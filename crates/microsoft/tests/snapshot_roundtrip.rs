//! Snapshot contract for the Microsoft aggregators: dBitFlip histograms,
//! 1BitMean counters, and the assembled telemetry round.
//! `merge(restore(snapshot(a)), b) == merge(a, b)` bit for bit, and
//! adversarial BLOBs decode to typed errors, never panics.

use ldp_core::fo::{FoAggregator, FrequencyOracle};
use ldp_core::snapshot::{restore_from, snapshot_vec, StateSnapshot, SNAPSHOT_VERSION};
use ldp_core::{Epsilon, LdpError};
use ldp_microsoft::pipeline::{TelemetryAggregator, TelemetryConfig, TelemetryPipeline};
use ldp_microsoft::{DBitFlip, OneBitMean, OneBitMeanAggregator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn check_adversarial<S: StateSnapshot>(agg: &mut S, blob: &[u8]) {
    for cut in 0..blob.len() {
        assert!(
            restore_from(agg, &blob[..cut]).is_err(),
            "truncation at {cut} must error"
        );
    }

    let mut bad = blob.to_vec();
    bad[0] = SNAPSHOT_VERSION.wrapping_add(1);
    assert!(matches!(
        restore_from(agg, &bad),
        Err(LdpError::VersionMismatch { .. })
    ));

    let mut bad = blob.to_vec();
    bad[1] = 0xEE; // unassigned tag
    assert!(matches!(
        restore_from(agg, &bad),
        Err(LdpError::ReportTypeMismatch { .. })
    ));

    for i in 0..blob.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut bad = blob.to_vec();
            bad[i] ^= flip;
            let _ = restore_from(agg, &bad); // must not panic
        }
    }
}

/// Restores `snapshot(a)` into `fresh`, merges `b` on both sides, and
/// demands bit-identical state; then runs the adversarial battery.
fn check_contract<A: FoAggregator + Clone>(a: A, b: A, mut fresh: A, mut spare: A) {
    let blob = snapshot_vec(&a);
    restore_from(&mut fresh, &blob).expect("well-formed snapshot restores");
    assert_eq!(snapshot_vec(&fresh), blob, "restore is lossless");

    let mut via_bytes = fresh;
    via_bytes.merge(b.clone()).unwrap();
    let mut in_process = a;
    in_process.merge(b).unwrap();
    assert_eq!(snapshot_vec(&via_bytes), snapshot_vec(&in_process));
    assert_eq!(via_bytes.reports(), in_process.reports());
    for (x, y) in via_bytes
        .estimate()
        .iter()
        .zip(in_process.estimate().iter())
    {
        assert_eq!(x.to_bits(), y.to_bits(), "estimates must be bit-identical");
    }

    check_adversarial(&mut spare, &blob);
}

fn filled_onebit(mech: &OneBitMean, n: usize, rng: &mut StdRng) -> OneBitMeanAggregator {
    let mut agg = mech.new_aggregator();
    for i in 0..n {
        let bit = mech.randomize((i % 101) as f64, rng);
        agg.accumulate(&bit);
    }
    agg
}

fn pipeline(gamma: f64) -> TelemetryPipeline {
    TelemetryPipeline::new(TelemetryConfig {
        total_epsilon: 2.0,
        mean_fraction: 0.5,
        max_value: 100.0,
        buckets: 10,
        bits_per_device: 4,
        gamma,
    })
    .expect("valid config")
}

fn filled_round(pipeline: &TelemetryPipeline, n: usize, rng: &mut StdRng) -> TelemetryAggregator {
    let mut agg = pipeline.new_round_aggregator();
    for i in 0..n {
        let device = pipeline.enroll(rng);
        let report = device.report((i % 100) as f64, rng);
        agg.accumulate(&report);
    }
    agg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn dbit_snapshot_contract(seed in any::<u64>(), k in 8u32..64, d in 2u32..8) {
        let mech = DBitFlip::new(k, d.min(k), eps(1.0)).expect("valid params");
        let mut rng = StdRng::seed_from_u64(seed);
        let a = {
            let mut agg = mech.new_aggregator();
            for i in 0..200u64 {
                agg.accumulate(&FrequencyOracle::randomize(&mech, (i * i) % u64::from(k), &mut rng));
            }
            agg
        };
        let b = {
            let mut agg = mech.new_aggregator();
            for i in 0..150u64 {
                agg.accumulate(&FrequencyOracle::randomize(&mech, i % u64::from(k), &mut rng));
            }
            agg
        };
        check_contract(a, b, mech.new_aggregator(), mech.new_aggregator());
    }

    #[test]
    fn onebit_snapshot_contract(seed in any::<u64>(), e in 0.5f64..3.0) {
        let mech = OneBitMean::new(eps(e), 100.0).expect("valid range");
        let mut rng = StdRng::seed_from_u64(seed);
        let a = filled_onebit(&mech, 300, &mut rng);
        let b = filled_onebit(&mech, 200, &mut rng);
        check_contract(a, b, mech.new_aggregator(), mech.new_aggregator());
    }

    #[test]
    fn telemetry_snapshot_contract(seed in any::<u64>(), gamma in 0.0f64..0.4) {
        let pipe = pipeline(gamma);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = filled_round(&pipe, 150, &mut rng);
        let b = filled_round(&pipe, 100, &mut rng);
        check_contract(a, b, pipe.new_round_aggregator(), pipe.new_round_aggregator());
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        let mech = DBitFlip::new(16, 4, eps(1.0)).expect("valid params");
        let mut dbit = mech.new_aggregator();
        let _ = restore_from(&mut dbit, &bytes);
        let mut onebit = OneBitMean::new(eps(1.0), 100.0).expect("valid range").new_aggregator();
        let _ = restore_from(&mut onebit, &bytes);
        let mut round = pipeline(0.2).new_round_aggregator();
        let _ = restore_from(&mut round, &bytes);
    }
}

/// Snapshots are pinned to the mechanism configuration.
#[test]
fn cross_configuration_snapshots_are_rejected() {
    let mut rng = StdRng::seed_from_u64(17);

    let mech = DBitFlip::new(32, 4, eps(1.0)).expect("valid params");
    let mut a = mech.new_aggregator();
    for i in 0..100u64 {
        a.accumulate(&FrequencyOracle::randomize(&mech, i % 32, &mut rng));
    }
    let blob = snapshot_vec(&a);
    let mut other_d = DBitFlip::new(32, 8, eps(1.0))
        .expect("valid params")
        .new_aggregator();
    assert!(matches!(
        restore_from(&mut other_d, &blob),
        Err(LdpError::StateMismatch(_))
    ));
    let mut other_k = DBitFlip::new(16, 4, eps(1.0))
        .expect("valid params")
        .new_aggregator();
    assert!(matches!(
        restore_from(&mut other_k, &blob),
        Err(LdpError::StateMismatch(_))
    ));

    let one = OneBitMean::new(eps(1.0), 100.0).expect("valid range");
    let bits = filled_onebit(&one, 100, &mut rng);
    let mut other_max = OneBitMean::new(eps(1.0), 50.0)
        .expect("valid range")
        .new_aggregator();
    assert!(matches!(
        restore_from(&mut other_max, &snapshot_vec(&bits)),
        Err(LdpError::StateMismatch(_))
    ));

    let round = filled_round(&pipeline(0.2), 50, &mut rng);
    let mut other_gamma = pipeline(0.1).new_round_aggregator();
    assert!(matches!(
        restore_from(&mut other_gamma, &snapshot_vec(&round)),
        Err(LdpError::StateMismatch(_))
    ));

    // A dBitFlip BLOB is not a 1BitMean BLOB: tag first, payload never.
    let mut onebit = one.new_aggregator();
    assert!(matches!(
        restore_from(&mut onebit, &blob),
        Err(LdpError::ReportTypeMismatch { .. })
    ));
}
