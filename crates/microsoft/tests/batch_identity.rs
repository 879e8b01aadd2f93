//! The cross-crate batch-engine contract for Microsoft's mechanisms,
//! mirroring `crates/core/tests/batch_oracles.rs`: for a given RNG seed,
//! the fused batch paths must produce **bit-identical** aggregator state
//! to the scalar randomize+accumulate loop, sharded-parallel collection
//! must equal sequential (for dBitFlip through the oracle face of the
//! engine, for 1BitMean and telemetry rounds through the
//! `BatchMechanism` face), and dBitFlip's analytical `count_variance`
//! must match the empirical spread (the cohort-OLH variance-test
//! convention).

use ldp_core::fo::{FoAggregator, FrequencyOracle};
use ldp_core::mech::BatchMechanism;
use ldp_core::Epsilon;
use ldp_microsoft::{DBitFlip, OneBitMean, TelemetryConfig, TelemetryDevice, TelemetryPipeline};
use ldp_workloads::parallel::{
    accumulate_mech_sharded, accumulate_mech_sharded_sequential,
    accumulate_mech_sharded_with_workers,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).expect("valid eps")
}

fn population(n: usize, d: u64) -> Vec<u64> {
    (0..n).map(|i| (i as u64).wrapping_mul(31) % d).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // dBitFlip: scalar loop, report-batch and fused batch must land on
    // bit-identical estimates — across (k, d) pairs covering both the
    // rejection and Fisher–Yates bucket-sampling branches.
    #[test]
    fn dbitflip_batch_bit_identical(e in 0.3f64..4.0, seed in 0u64..1000) {
        for (k, d) in [(48u32, 4u32), (16, 8), (8, 8), (64, 2)] {
            let mech = DBitFlip::new(k, d, eps(e)).expect("valid params");
            let values = population(400, k as u64);
            let split = values.len() / 3;
            let shards = [&values[..split], &values[split..]];

            let mut scalar_agg = FrequencyOracle::new_aggregator(&mech);
            for (i, shard) in shards.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(seed ^ (i as u64) << 32);
                for &v in *shard {
                    scalar_agg.accumulate(&mech.randomize(v as u32, &mut rng));
                }
            }

            let mut batch_agg = FrequencyOracle::new_aggregator(&mech);
            for (i, shard) in shards.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(seed ^ (i as u64) << 32);
                mech.randomize_batch(shard, &mut rng, |r| batch_agg.accumulate(r));
            }

            let mut fused_agg = FrequencyOracle::new_aggregator(&mech);
            for (i, shard) in shards.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(seed ^ (i as u64) << 32);
                mech.randomize_accumulate_batch(shard, &mut rng, &mut fused_agg);
            }

            prop_assert_eq!(scalar_agg.reports(), values.len());
            prop_assert_eq!(fused_agg.reports(), values.len());
            let scalar = scalar_agg.estimate();
            let batch = batch_agg.estimate();
            let fused = fused_agg.estimate();
            for (i, ((s, b), f)) in scalar.iter().zip(&batch).zip(&fused).enumerate() {
                prop_assert_eq!(s.to_bits(), b.to_bits(), "k={} d={} item {}", k, d, i);
                prop_assert_eq!(s.to_bits(), f.to_bits(), "k={} d={} item {}", k, d, i);
            }
        }
    }

    // 1BitMean: the monomorphized batch path must replay the scalar
    // stream over f64 inputs exactly.
    #[test]
    fn onebit_batch_bit_identical(e in 0.3f64..4.0, seed in 0u64..1000) {
        let mech = OneBitMean::new(eps(e), 100.0).expect("valid range");
        let values: Vec<f64> = (0..500).map(|i| (i % 101) as f64).collect();

        let mut scalar_rng = StdRng::seed_from_u64(seed);
        let mut scalar = OneBitMean::new_aggregator(&mech);
        for &x in &values {
            scalar.accumulate(&mech.randomize(x, &mut scalar_rng));
        }

        let mut batch_rng = StdRng::seed_from_u64(seed);
        let mut batch = OneBitMean::new_aggregator(&mech);
        mech.accumulate_batch(&values, &mut batch_rng, &mut batch);

        prop_assert_eq!(scalar.ones(), batch.ones());
        prop_assert_eq!(scalar.reports(), batch.reports());
        prop_assert_eq!(scalar.mean().to_bits(), batch.mean().to_bits());
    }

    // Sharded-parallel dBitFlip equals sequential, across shard and
    // worker counts.
    #[test]
    fn dbitflip_parallel_matches_sequential(e in 0.5f64..3.0, seed in 0u64..100) {
        let mech = DBitFlip::new(32, 4, eps(e)).expect("valid params");
        let values = population(3_000, 32);
        for &shards in &[1usize, 3, 16] {
            let par = accumulate_mech_sharded(&&mech, &values, seed, shards).estimate();
            let seq = accumulate_mech_sharded_sequential(&&mech, &values, seed, shards).estimate();
            for (i, (a, b)) in par.iter().zip(&seq).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "shards={} item {}", shards, i);
            }
        }
        let w2 = accumulate_mech_sharded_with_workers(&&mech, &values, seed, 8, 3).estimate();
        let w1 = accumulate_mech_sharded_sequential(&&mech, &values, seed, 8).estimate();
        prop_assert_eq!(w1, w2);
    }

    // Sharded-parallel 1BitMean (the BatchMechanism face of the engine)
    // equals sequential.
    #[test]
    fn onebit_parallel_matches_sequential(e in 0.5f64..3.0, seed in 0u64..100) {
        let mech = OneBitMean::new(eps(e), 50.0).expect("valid range");
        let values: Vec<f64> = (0..4_000).map(|i| (i % 51) as f64).collect();
        for &shards in &[1usize, 4, 16] {
            let par = accumulate_mech_sharded(&mech, &values, seed, shards);
            let seq = accumulate_mech_sharded_sequential(&mech, &values, seed, shards);
            prop_assert_eq!(par.ones(), seq.ones(), "shards={}", shards);
            prop_assert_eq!(par.reports(), seq.reports());
            prop_assert_eq!(par.mean().to_bits(), seq.mean().to_bits());
        }
    }
}

fn pipeline_and_fleet(n: usize, gamma: f64) -> (TelemetryPipeline, Vec<TelemetryDevice>) {
    let pipeline = TelemetryPipeline::new(TelemetryConfig {
        total_epsilon: 2.0,
        mean_fraction: 0.5,
        max_value: 100.0,
        buckets: 10,
        bits_per_device: 4,
        gamma,
    })
    .expect("valid config");
    let mut rng = StdRng::seed_from_u64(1234);
    let devices = (0..n).map(|_| pipeline.enroll(&mut rng)).collect();
    (pipeline, devices)
}

/// The assembled telemetry round rides the mech engine: sharded-parallel
/// collection over `(device, value)` inputs equals sequential — with
/// output perturbation on, so the shards genuinely consume RNG.
#[test]
fn telemetry_round_parallel_matches_sequential() {
    let n = 5_000;
    let (pipeline, devices) = pipeline_and_fleet(n, 0.2);
    let values: Vec<f64> = (0..n).map(|i| (i % 100) as f64).collect();
    let round = pipeline.round(&devices);
    let inputs = round.inputs(&values);
    for shards in [1usize, 4, 16] {
        let par = accumulate_mech_sharded(&round, &inputs, 9, shards);
        let seq = accumulate_mech_sharded_sequential(&round, &inputs, 9, shards);
        assert_eq!(par.estimate(), seq.estimate(), "shards={shards}");
        assert_eq!(par.mean_bits().ones(), seq.mean_bits().ones());
        assert_eq!(par.round_mean().to_bits(), seq.round_mean().to_bits());
        assert_eq!(par.reports(), n);
    }
}

/// Statistical satellite (the cohort-OLH variance-test convention):
/// dBitFlip's analytical `count_variance` must match the empirical
/// variance of independent histogram estimates.
#[test]
fn dbitflip_count_variance_matches_empirical() {
    let mech = DBitFlip::new(16, 4, eps(2.0)).expect("valid params");
    let n = 1_000usize;
    let trials = 400;
    // Everyone reports bucket 0: its estimate's spread around n is the
    // mechanism noise the formula predicts (plus coverage jitter, which
    // the formula's mean-coverage approximation absorbs).
    let mut ests = Vec::with_capacity(trials);
    for t in 0..trials as u64 {
        let mut rng = StdRng::seed_from_u64(40_000 + t);
        let mut agg = DBitFlip::new_aggregator(&mech);
        for _ in 0..n {
            agg.accumulate(&mech.randomize(0, &mut rng));
        }
        ests.push(agg.estimate()[0]);
    }
    let mean = ests.iter().sum::<f64>() / trials as f64;
    let var = ests.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / (trials - 1) as f64;
    let predicted = mech.count_variance(n);
    let ratio = var / predicted;
    assert!(
        (0.6..1.67).contains(&ratio),
        "empirical var {var} vs predicted {predicted} (ratio {ratio})"
    );
    // Unbiasedness at 5σ on the trial mean rides along.
    let sd_of_mean = (predicted / trials as f64).sqrt();
    assert!(
        (mean - n as f64).abs() < 5.0 * sd_of_mean,
        "mean={mean} truth={n} sd_of_mean={sd_of_mean}"
    );
}
