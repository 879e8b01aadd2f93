//! Subtract-inverts-merge contract for Microsoft's aggregators:
//! `try_subtract(merge(a, b), b)` must restore `a` bit-exactly (snapshot
//! BLOB comparison) for the dBitFlip histogram, the 1BitMean counter,
//! and the composite telemetry round state, with atomic refusals on
//! parameter mismatch or oversubtraction — the retirement contract the
//! sliding-window ring relies on for longitudinal telemetry.

use ldp_core::fo::{FoAggregator, FrequencyOracle};
use ldp_core::mech::BatchMechanism;
use ldp_core::snapshot::snapshot_vec;
use ldp_core::{Epsilon, LdpError};
use ldp_microsoft::{DBitFlip, OneBitMean, TelemetryConfig, TelemetryPipeline};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).expect("valid eps")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn dbitflip_subtract_inverts_merge(
        e in 0.5f64..4.0, seed in 0u64..1000, n in 20usize..150, cut in 0usize..150,
    ) {
        let mech = DBitFlip::new(16, 4, eps(e)).expect("valid params");
        let mut rng = StdRng::seed_from_u64(seed);
        let n_a = cut.min(n);
        let mut a = FrequencyOracle::new_aggregator(&mech);
        let mut b = FrequencyOracle::new_aggregator(&mech);
        let mut merged = FrequencyOracle::new_aggregator(&mech);
        for i in 0..n {
            let report = FrequencyOracle::randomize(&mech, i as u64 % 16, &mut rng);
            if i < n_a { a.accumulate(&report) } else { b.accumulate(&report) }
            merged.accumulate(&report);
        }

        merged.try_subtract(&b).expect("b is a sub-aggregate");
        prop_assert_eq!(snapshot_vec(&merged), snapshot_vec(&a));
        prop_assert_eq!(merged.reports(), n_a);

        // Oversubtraction and a different channel both refuse with the
        // minuend untouched.
        let before = snapshot_vec(&merged);
        if n_a < n {
            let mut whole = FrequencyOracle::new_aggregator(&mech);
            let mut rng = StdRng::seed_from_u64(seed);
            for i in 0..n {
                whole.accumulate(&FrequencyOracle::randomize(&mech, i as u64 % 16, &mut rng));
            }
            prop_assert!(matches!(
                merged.try_subtract(&whole),
                Err(LdpError::StateMismatch(_))
            ));
        }
        let other_mech = DBitFlip::new(16, 4, eps(e + 0.5)).expect("valid params");
        let foreign = FrequencyOracle::new_aggregator(&other_mech);
        prop_assert!(matches!(
            merged.try_subtract(&foreign),
            Err(LdpError::StateMismatch(_))
        ));
        prop_assert_eq!(snapshot_vec(&merged), before);
    }

    #[test]
    fn onebit_mean_subtract_inverts_merge(
        e in 0.5f64..4.0, seed in 0u64..1000, n in 20usize..120, cut in 0usize..120,
    ) {
        let mech = OneBitMean::new(eps(e), 100.0).expect("valid params");
        let values: Vec<f64> = (0..n).map(|i| (i % 100) as f64).collect();
        let n_a = cut.min(n);

        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = OneBitMean::new_aggregator(&mech);
        mech.accumulate_batch(&values[..n_a], &mut rng, &mut a);
        let mut b = OneBitMean::new_aggregator(&mech);
        mech.accumulate_batch(&values[n_a..], &mut rng, &mut b);
        let mut merged = a.clone();
        merged.merge(b.clone()).unwrap();

        merged.try_subtract(&b).expect("b is a sub-aggregate");
        prop_assert_eq!(snapshot_vec(&merged), snapshot_vec(&a));
        prop_assert_eq!(merged.reports(), n_a);

        let before = snapshot_vec(&merged);
        let other_mech = OneBitMean::new(eps(e + 0.5), 100.0).expect("valid params");
        let foreign = OneBitMean::new_aggregator(&other_mech);
        prop_assert!(matches!(
            merged.try_subtract(&foreign),
            Err(LdpError::StateMismatch(_))
        ));
        prop_assert_eq!(snapshot_vec(&merged), before);
    }

    #[test]
    fn telemetry_round_subtract_inverts_merge(
        seed in 0u64..500, n in 30usize..120, cut in 0usize..120,
    ) {
        let pipeline = TelemetryPipeline::new(TelemetryConfig {
            total_epsilon: 2.0,
            mean_fraction: 0.5,
            max_value: 100.0,
            buckets: 10,
            bits_per_device: 4,
            gamma: 0.2,
        })
        .expect("valid config");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7E);
        let devices: Vec<_> = (0..n).map(|_| pipeline.enroll(&mut rng)).collect();
        let values: Vec<f64> = (0..n).map(|i| (i % 100) as f64).collect();
        let round = pipeline.round(&devices);
        let inputs = round.inputs(&values);
        let n_a = cut.min(n);

        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = round.new_aggregator();
        round.accumulate_batch(&inputs[..n_a], &mut rng, &mut a);
        let mut b = round.new_aggregator();
        round.accumulate_batch(&inputs[n_a..], &mut rng, &mut b);
        let mut merged = a.clone();
        merged.merge(b.clone()).unwrap();

        merged.try_subtract(&b).expect("b is a sub-aggregate");
        prop_assert_eq!(snapshot_vec(&merged), snapshot_vec(&a));
        prop_assert_eq!(merged.reports(), n_a);
        prop_assert_eq!(merged.round_mean().to_bits(), a.round_mean().to_bits());

        // A round collected under a different γ must refuse with both
        // halves of the composite state untouched — the subtract is
        // atomic across the mean and histogram statistics.
        let before = snapshot_vec(&merged);
        let other = TelemetryPipeline::new(TelemetryConfig {
            total_epsilon: 2.0,
            mean_fraction: 0.5,
            max_value: 100.0,
            buckets: 10,
            bits_per_device: 4,
            gamma: 0.1,
        })
        .expect("valid config");
        let foreign = other.round(&devices).new_aggregator();
        prop_assert!(matches!(
            merged.try_subtract(&foreign),
            Err(LdpError::StateMismatch(_))
        ));
        prop_assert_eq!(snapshot_vec(&merged), before);
    }
}
