//! The batch-engine contract, enforced for every oracle: for a given RNG
//! seed, `randomize_batch` and the fused `randomize_accumulate_batch`
//! must produce **bit-identical** aggregator state to the scalar
//! `randomize` + `accumulate` loop — same uniform draws, same counters,
//! same floating-point estimates. This is what lets the sharded parallel
//! engine (`ldp_workloads::parallel`) switch every shard onto the fused
//! path without perturbing any previously recorded result, and what makes
//! shard replays reproducible across the scalar/batch boundary.
//!
//! The shard-layout dimension: each case splits the population at an
//! arbitrary boundary and re-seeds per shard, mirroring the parallel
//! engine's per-shard RNG streams, so bit-identity is checked across
//! shard layouts and merge, not just for one flat pass.

use ldp_core::fo::{
    CohortLocalHashing, DirectEncoding, FoAggregator, FrequencyOracle, HadamardResponse,
    OptimizedLocalHashing, OptimizedUnaryEncoding, SubsetSelection, SummationHistogramEncoding,
    SymmetricUnaryEncoding, ThresholdHistogramEncoding,
};
use ldp_core::Epsilon;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds the aggregator three ways over the same sharded population —
/// scalar loop, report-batch, fused batch — and asserts every estimate is
/// bit-identical across the three.
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

fn population(n: usize, d: u64) -> Vec<u64> {
    (0..n).map(|i| (i as u64).wrapping_mul(31) % d).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn grr_batch_bit_identical(e in 0.3f64..4.0, d in 2u64..64, seed in 0u64..1000) {
        let oracle = DirectEncoding::new(d, Epsilon::new(e).expect("eps")).expect("domain");
        check_batch_matches_scalar(&oracle, &population(400, d), seed);
    }

    #[test]
    fn sue_batch_bit_identical(e in 0.3f64..7.0, d in 2u64..300, seed in 0u64..1000) {
        let oracle = SymmetricUnaryEncoding::new(d, Epsilon::new(e).expect("eps")).expect("domain");
        check_batch_matches_scalar(&oracle, &population(300, d), seed);
    }

    #[test]
    fn oue_batch_bit_identical(e in 0.3f64..7.0, d in 2u64..300, seed in 0u64..1000) {
        let oracle = OptimizedUnaryEncoding::new(d, Epsilon::new(e).expect("eps")).expect("domain");
        check_batch_matches_scalar(&oracle, &population(300, d), seed);
    }

    #[test]
    fn the_batch_bit_identical(e in 0.3f64..7.0, d in 2u64..300, seed in 0u64..1000) {
        let oracle = ThresholdHistogramEncoding::new(d, Epsilon::new(e).expect("eps")).expect("domain");
        check_batch_matches_scalar(&oracle, &population(300, d), seed);
    }

    #[test]
    fn she_batch_bit_identical(e in 0.3f64..4.0, d in 2u64..48, seed in 0u64..1000) {
        // The one floating-point aggregator: fused adds in scalar order,
        // so even the f64 sums must match to the bit.
        let oracle = SummationHistogramEncoding::new(d, Epsilon::new(e).expect("eps")).expect("domain");
        check_batch_matches_scalar(&oracle, &population(200, d), seed);
    }

    #[test]
    fn ss_batch_bit_identical(e in 0.3f64..4.0, d in 2u64..48, seed in 0u64..1000) {
        let oracle = SubsetSelection::new(d, Epsilon::new(e).expect("eps"));
        check_batch_matches_scalar(&oracle, &population(300, d), seed);
    }

    #[test]
    fn olh_batch_bit_identical(e in 0.3f64..4.0, d in 2u64..64, seed in 0u64..1000) {
        let oracle = OptimizedLocalHashing::new(d, Epsilon::new(e).expect("eps"));
        check_batch_matches_scalar(&oracle, &population(300, d), seed);
    }

    #[test]
    fn cohort_olh_batch_bit_identical(e in 0.3f64..4.0, d in 2u64..64, seed in 0u64..1000) {
        let oracle = CohortLocalHashing::optimized(d, 64, Epsilon::new(e).expect("eps"));
        check_batch_matches_scalar(&oracle, &population(400, d), seed);
    }

    #[test]
    fn hr_batch_bit_identical(e in 0.3f64..4.0, d in 2u64..64, seed in 0u64..1000) {
        let oracle = HadamardResponse::new(d, Epsilon::new(e).expect("eps"));
        check_batch_matches_scalar(&oracle, &population(400, d), seed);
    }
}

/// Statistical satellite: the unary sampler's per-bit 1-rates must
/// match the (p, q) channel the debiasing assumes — checked end-to-end
/// through `randomize_batch` reports rather than the sampler in isolation
/// (the unit-level marginal/variance tests live in `ldp_core::fo::batch`).
/// d = 32 runs geometric skipping; d = 200 runs the word sampler, with the
/// hot value once in a middle word and once in the partial last word.
#[test]
fn geometric_skip_batch_reports_match_channel() {
    for (d, value) in [(32u64, 11u64), (200, 100), (200, 197)] {
        let oracle =
            OptimizedUnaryEncoding::new(d, Epsilon::new(1.0).expect("eps")).expect("domain");
        let (p, q) = oracle.probabilities();
        let n = 40_000usize;
        let values = vec![value; n];
        let mut rng = StdRng::seed_from_u64(2024);
        let mut counts = vec![0u64; d as usize];
        oracle.randomize_batch(&values, &mut rng, |r| {
            for i in r.ones() {
                counts[i] += 1;
            }
        });
        let sd_p = (p * (1.0 - p) / n as f64).sqrt();
        let sd_q = (q * (1.0 - q) / n as f64).sqrt();
        for (i, &c) in counts.iter().enumerate() {
            let rate = c as f64 / n as f64;
            let (expected, sd) = if i as u64 == value {
                (p, sd_p)
            } else {
                (q, sd_q)
            };
            assert!(
                (rate - expected).abs() < 5.0 * sd,
                "d={d} value={value} bit {i}: rate={rate} expected={expected}"
            );
        }
    }
}
