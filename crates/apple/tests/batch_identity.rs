//! The cross-crate batch-engine contract for Apple's mechanisms,
//! mirroring `crates/core/tests/batch_oracles.rs`: for a given RNG seed,
//! the fused batch paths must produce **bit-identical** aggregator/sketch
//! state to the scalar randomize+accumulate loop, sharded-parallel
//! collection must equal sequential, and the estimators must stay
//! unbiased (5σ tolerances, the PR 1 convention) with variance matching
//! the documented approximations.

use ldp_apple::cms::{CmsOracle, CmsProtocol, CmsReport};
use ldp_apple::hcms::{HcmsOracle, HcmsProtocol};
use ldp_apple::sfp::{SfpConfig, SfpDiscovery};
use ldp_core::fo::{FoAggregator, FrequencyOracle};
use ldp_core::Epsilon;
use ldp_workloads::parallel::{accumulate_mech_sharded, accumulate_mech_sharded_sequential};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).expect("valid eps")
}

/// Builds the aggregator three ways over the same sharded population —
/// scalar loop, report-batch, fused batch — and asserts every estimate is
/// bit-identical across the three (the core-harness check, applied to the
/// cross-crate oracles).
fn check_batch_matches_scalar<O: FrequencyOracle>(oracle: &O, values: &[u64], seed: u64) {
    let split = values.len() / 3;
    let shards = [&values[..split], &values[split..]];

    let mut scalar_agg = oracle.new_aggregator();
    for (i, shard) in shards.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64) << 32);
        for &v in *shard {
            scalar_agg.accumulate(&oracle.randomize(v, &mut rng));
        }
    }

    let mut batch_agg = oracle.new_aggregator();
    for (i, shard) in shards.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64) << 32);
        oracle.randomize_batch(shard, &mut rng, |r| batch_agg.accumulate(r));
    }

    let mut fused_agg = oracle.new_aggregator();
    for (i, shard) in shards.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64) << 32);
        oracle.randomize_accumulate_batch(shard, &mut rng, &mut fused_agg);
    }

    assert_eq!(scalar_agg.reports(), values.len());
    assert_eq!(batch_agg.reports(), values.len());
    assert_eq!(fused_agg.reports(), values.len());

    let scalar = scalar_agg.estimate();
    let batch = batch_agg.estimate();
    let fused = fused_agg.estimate();
    for (i, ((s, b), f)) in scalar.iter().zip(&batch).zip(&fused).enumerate() {
        assert_eq!(
            s.to_bits(),
            b.to_bits(),
            "{} item {i}: batch {b} != scalar {s}",
            oracle.name()
        );
        assert_eq!(
            s.to_bits(),
            f.to_bits(),
            "{} item {i}: fused {f} != scalar {s}",
            oracle.name()
        );
    }
}

/// Sharded-parallel collection must be bit-identical to the sequential
/// reference for the newly wired oracles, across shard counts.
fn check_parallel_matches_sequential<O>(oracle: &O, values: &[u64])
where
    O: FrequencyOracle + Sync,
    O::Aggregator: Send,
{
    for &shards in &[1usize, 3, 16] {
        let par = accumulate_mech_sharded(&oracle, values, 42, shards).estimate();
        let seq = accumulate_mech_sharded_sequential(&oracle, values, 42, shards).estimate();
        assert_eq!(par.len(), seq.len());
        for (i, (a, b)) in par.iter().zip(&seq).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} shards={shards} item {i}: {a} != {b}",
                oracle.name()
            );
        }
    }
}

fn population(n: usize, d: u64) -> Vec<u64> {
    (0..n).map(|i| (i as u64).wrapping_mul(31) % d).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cms_batch_bit_identical(e in 0.5f64..6.0, k in 2usize..12, seed in 0u64..1000) {
        let d = 24u64;
        let oracle = CmsOracle::new(k, 64, eps(e), seed.wrapping_add(1), d);
        check_batch_matches_scalar(&oracle, &population(300, d), seed);
    }

    #[test]
    fn hcms_batch_bit_identical(e in 0.5f64..6.0, k in 2usize..12, seed in 0u64..1000) {
        let d = 24u64;
        let oracle = HcmsOracle::new(k, 64, eps(e), seed.wrapping_add(1), d);
        check_batch_matches_scalar(&oracle, &population(300, d), seed);
    }

    #[test]
    fn cms_parallel_matches_sequential(e in 0.5f64..4.0, seed in 0u64..100) {
        let oracle = CmsOracle::new(4, 32, eps(e), seed, 16);
        check_parallel_matches_sequential(&oracle, &population(2_000, 16));
    }

    #[test]
    fn hcms_parallel_matches_sequential(e in 0.5f64..4.0, seed in 0u64..100) {
        let oracle = HcmsOracle::new(4, 32, eps(e), seed, 16);
        check_parallel_matches_sequential(&oracle, &population(2_000, 16));
    }
}

/// The SFP client stage: the fused collection loop must land on exactly
/// the sketch state of the scalar per-user randomize+accumulate
/// reference, and sharded collection + merge must equal sequential.
#[test]
fn sfp_collect_bit_identical_and_mergeable() {
    let config = SfpConfig {
        word_len: 4,
        fragment_len: 2,
        epsilon: eps(6.0),
        sketch_rows: 8,
        sketch_width: 1024,
        fragments_per_position: 6,
    };
    let sfp = SfpDiscovery::new(config, 7).expect("valid config");
    let words: Vec<&[u8]> = (0..9_000)
        .map(|i| -> &[u8] {
            match i % 3 {
                0 => b"face",
                1 => b"time",
                _ => b"book",
            }
        })
        .collect();

    // Fused collection.
    let mut fused = sfp.new_collectors();
    let mut rng = StdRng::seed_from_u64(11);
    sfp.collect(&words, &mut rng, &mut fused);

    // Sharded + merged collection: same per-shard streams as two fused
    // calls — exercising SfpCollectors::merge against one sequential run
    // over the re-seeded halves.
    let mut left = sfp.new_collectors();
    let mut right = sfp.new_collectors();
    let mut rng_l = StdRng::seed_from_u64(21);
    let mut rng_r = StdRng::seed_from_u64(22);
    sfp.collect(&words[..4500], &mut rng_l, &mut left);
    sfp.collect(&words[4500..], &mut rng_r, &mut right);
    left.merge(right).unwrap();

    let mut seq = sfp.new_collectors();
    let mut rng_l2 = StdRng::seed_from_u64(21);
    let mut rng_r2 = StdRng::seed_from_u64(22);
    sfp.collect(&words[..4500], &mut rng_l2, &mut seq);
    sfp.collect(&words[4500..], &mut rng_r2, &mut seq);

    assert_eq!(left.reports(), seq.reports());
    for (a, b) in left
        .fragment_servers()
        .iter()
        .zip(seq.fragment_servers())
        .chain(std::iter::once((left.word_server(), seq.word_server())))
    {
        // Sketch state compared through estimates over a probe set.
        for probe in 0..64u64 {
            assert_eq!(
                a.estimate(probe).to_bits(),
                b.estimate(probe).to_bits(),
                "probe {probe}"
            );
        }
    }

    // And the fused round still discovers the planted words.
    let found = sfp.decode(&fused);
    assert!(
        found
            .iter()
            .any(|w| w.word == "face" || w.word == "time" || w.word == "book"),
        "found: {found:?}"
    );
}

/// Scalar reference for the SFP fused loop: per-user randomize +
/// accumulate through materialized reports must give identical sketch
/// state (bit-identity across the report boundary, not just shards).
#[test]
fn sfp_fused_matches_scalar_reference() {
    let config = SfpConfig {
        word_len: 4,
        fragment_len: 2,
        epsilon: eps(4.0),
        sketch_rows: 4,
        sketch_width: 64,
        fragments_per_position: 4,
    };
    let sfp = SfpDiscovery::new(config.clone(), 13).expect("valid config");
    let words: Vec<&[u8]> = (0..600)
        .map(|i| -> &[u8] {
            if i % 2 == 0 {
                b"emoj"
            } else {
                b"word"
            }
        })
        .collect();

    let mut fused = sfp.new_collectors();
    let mut rng = StdRng::seed_from_u64(31);
    sfp.collect(&words, &mut rng, &mut fused);

    // The scalar reference reimplements the collection loop with
    // materialized CMS reports, consuming the same RNG stream.
    let positions = config.word_len / config.fragment_len;
    let half_eps = config.epsilon.split(2);
    let frag_protos: Vec<CmsProtocol> = (0..positions)
        .map(|p| {
            CmsProtocol::new(
                config.sketch_rows,
                config.sketch_width,
                half_eps,
                13u64.wrapping_add(1 + p as u64),
            )
        })
        .collect();
    let word_proto = CmsProtocol::new(config.sketch_rows, config.sketch_width, half_eps, 13);
    let mut frag_servers: Vec<_> = frag_protos.iter().map(|p| p.new_server()).collect();
    let mut word_server = word_proto.new_server();
    let mut rng2 = StdRng::seed_from_u64(31);
    let mut report = CmsReport::empty();
    for raw in &words {
        // Re-derive the submission values exactly as the client does.
        let word: Vec<u64> = raw
            .iter()
            .map(|&b| match b {
                b'a'..=b'z' => (b - b'a') as u64,
                b'0'..=b'9' => 26 + (b - b'0') as u64,
                b'.' => 36,
                b'_' => 38,
                _ => 37,
            })
            .collect();
        let bytes: Vec<u8> = word.iter().map(|&s| s as u8).collect();
        let hash = ldp_sketch_hash(&bytes);
        let puzzle = hash & 0xff;
        let pos = rng2.gen_range(0..positions);
        let frag = word[pos * config.fragment_len..(pos + 1) * config.fragment_len]
            .iter()
            .fold(0u64, |acc, &s| acc * 40 + s);
        let frag_value = frag * 256 + puzzle;
        frag_protos[pos].report_into(frag_value, &mut rng2, &mut report);
        frag_servers[pos].accumulate(&report);
        word_proto.report_into(hash, &mut rng2, &mut report);
        word_server.accumulate(&report);
    }

    for probe in 0..128u64 {
        assert_eq!(
            fused.word_server().estimate(probe).to_bits(),
            word_server.estimate(probe).to_bits(),
            "word sketch diverged at probe {probe}"
        );
    }
    for (pos, (a, b)) in fused
        .fragment_servers()
        .iter()
        .zip(&frag_servers)
        .enumerate()
    {
        for probe in 0..128u64 {
            assert_eq!(
                a.estimate(probe).to_bits(),
                b.estimate(probe).to_bits(),
                "fragment sketch {pos} diverged at probe {probe}"
            );
        }
    }
}

fn ldp_sketch_hash(bytes: &[u8]) -> u64 {
    ldp_sketch::hash::hash_bytes64(bytes)
}

/// Statistical satellite (PR 1 convention: 5σ band on the mean of
/// independent trials): the CMS estimator must be unbiased, with the
/// documented approximate variance as the yardstick.
#[test]
fn cms_estimator_unbiased_5_sigma() {
    let oracle = CmsOracle::new(8, 256, eps(2.0), 17, 32);
    let n = 4_000usize;
    let truth = 1_000usize;
    let trials = 30;
    let mut sum = 0.0;
    for t in 0..trials {
        let mut rng = StdRng::seed_from_u64(500 + t);
        let values: Vec<u64> = (0..n)
            .map(|u| if u < truth { 5u64 } else { 6 + (u as u64 % 20) })
            .collect();
        let mut agg = oracle.new_aggregator();
        oracle.randomize_accumulate_batch(&values, &mut rng, &mut agg);
        sum += agg.estimate()[5];
    }
    let avg = sum / trials as f64;
    // sd of the mean of `trials` i.i.d. estimates, from the documented
    // approximate per-trial variance.
    let sd_of_mean = (oracle.count_variance(n, 0.25) / trials as f64).sqrt();
    assert!(
        (avg - truth as f64).abs() < 5.0 * sd_of_mean,
        "avg={avg} truth={truth} sd_of_mean={sd_of_mean}"
    );
}

/// Same 5σ contract for HCMS.
#[test]
fn hcms_estimator_unbiased_5_sigma() {
    let oracle = HcmsOracle::new(8, 256, eps(3.0), 19, 32);
    let n = 4_000usize;
    let truth = 1_000usize;
    let trials = 30;
    let mut sum = 0.0;
    for t in 0..trials {
        let mut rng = StdRng::seed_from_u64(900 + t);
        let values: Vec<u64> = (0..n)
            .map(|u| {
                if u < truth {
                    9u64
                } else {
                    10 + (u as u64 % 20)
                }
            })
            .collect();
        let mut agg = oracle.new_aggregator();
        oracle.randomize_accumulate_batch(&values, &mut rng, &mut agg);
        sum += agg.estimate()[9];
    }
    let avg = sum / trials as f64;
    let sd_of_mean = (oracle.count_variance(n, 0.25) / trials as f64).sqrt();
    assert!(
        (avg - truth as f64).abs() < 5.0 * sd_of_mean,
        "avg={avg} truth={truth} sd_of_mean={sd_of_mean}"
    );
}

/// The documented CMS variance approximation must match the empirical
/// spread of independent estimates (it is the yardstick of the 5σ test
/// above, so an off-by-10× formula would silently weaken it).
#[test]
fn cms_variance_formula_matches_empirical() {
    let proto = CmsProtocol::new(4, 128, eps(2.0), 41);
    let n = 2_000usize;
    let trials = 300;
    let mut ests = Vec::with_capacity(trials);
    for t in 0..trials as u64 {
        let mut rng = StdRng::seed_from_u64(7000 + t);
        let mut server = proto.new_server();
        for u in 0..n {
            let v = if u % 4 == 0 {
                3u64
            } else {
                100 + u as u64 % 50
            };
            server.accumulate(&proto.randomize(v, &mut rng));
        }
        ests.push(server.estimate(3));
    }
    let mean = ests.iter().sum::<f64>() / trials as f64;
    let var = ests.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / (trials - 1) as f64;
    let predicted = proto.approx_count_variance(n);
    let ratio = var / predicted;
    assert!(
        (0.5..2.0).contains(&ratio),
        "empirical var {var} vs predicted {predicted} (ratio {ratio})"
    );
}

/// The documented HCMS variance approximation must match the empirical
/// spread of independent estimates (it is the yardstick of the 5σ tests
/// above, so an off-by-10× formula would silently weaken them).
#[test]
fn hcms_variance_formula_matches_empirical() {
    let proto = HcmsProtocol::new(4, 128, eps(2.0), 23);
    let n = 2_000usize;
    let trials = 300;
    let mut ests = Vec::with_capacity(trials);
    for t in 0..trials as u64 {
        let mut rng = StdRng::seed_from_u64(3000 + t);
        let mut server = proto.new_server();
        for u in 0..n {
            // Item 3 at frequency 1/4; the rest spread thin.
            let v = if u % 4 == 0 {
                3u64
            } else {
                100 + u as u64 % 50
            };
            server.accumulate(&proto.randomize(v, &mut rng));
        }
        ests.push(server.estimate(3));
    }
    let mean = ests.iter().sum::<f64>() / trials as f64;
    let var = ests.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / (trials - 1) as f64;
    let predicted = proto.approx_count_variance(n);
    let ratio = var / predicted;
    assert!(
        (0.5..2.0).contains(&ratio),
        "empirical var {var} vs predicted {predicted} (ratio {ratio})"
    );
}
