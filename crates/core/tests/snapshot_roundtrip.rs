//! The snapshot contract for every core oracle's aggregator:
//! `merge(restore(snapshot(a)), b) == merge(a, b)` bit for bit, and
//! decoding never panics on truncated, corrupted, wrong-version, or
//! wrong-tag BLOBs — every failure is a typed `LdpError` and a failed
//! restore leaves the aggregator unchanged.

use ldp_core::fo::{
    BinaryLocalHashing, CohortLocalHashing, DirectEncoding, FoAggregator, FrequencyOracle,
    HadamardResponse, OptimizedLocalHashing, OptimizedUnaryEncoding, SubsetSelection,
    SummationHistogramEncoding, SymmetricUnaryEncoding, ThresholdHistogramEncoding,
};
use ldp_core::snapshot::{restore_from, snapshot_vec, SNAPSHOT_VERSION};
use ldp_core::{Epsilon, LdpError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

/// Accumulates `n` randomized reports of a skewed population into a
/// fresh aggregator.
fn filled<O: FrequencyOracle>(oracle: &O, n: usize, rng: &mut StdRng) -> O::Aggregator {
    let d = oracle.domain_size();
    let mut agg = oracle.new_aggregator();
    for i in 0..n {
        let v = (i as u64 * i as u64) % d;
        let r = oracle.randomize(v, rng);
        agg.accumulate(&r);
    }
    agg
}

/// The tentpole invariant plus the adversarial-decode contract for one
/// oracle.
fn check_snapshot_contract<O>(oracle: &O, n_a: usize, n_b: usize, seed: u64)
where
    O: FrequencyOracle,
    O::Aggregator: Clone,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let a = filled(oracle, n_a, &mut rng);
    let b = filled(oracle, n_b, &mut rng);

    // Round trip is lossless: the restored state re-serializes to the
    // same bytes.
    let blob = snapshot_vec(&a);
    let mut restored = oracle.new_aggregator();
    restore_from(&mut restored, &blob).expect("well-formed snapshot restores");
    assert_eq!(snapshot_vec(&restored), blob, "restore is lossless");

    // merge(restore(snapshot(a)), b) == merge(a, b), down to the bits of
    // both the state BLOB and every estimate.
    let mut via_bytes = restored;
    via_bytes.merge(b.clone()).unwrap();
    let mut in_process = a;
    in_process.merge(b).unwrap();
    assert_eq!(
        snapshot_vec(&via_bytes),
        snapshot_vec(&in_process),
        "merged state must be bit-identical"
    );
    assert_eq!(via_bytes.reports(), in_process.reports());
    for (x, y) in via_bytes
        .estimate()
        .iter()
        .zip(in_process.estimate().iter())
    {
        assert_eq!(x.to_bits(), y.to_bits(), "estimates must be bit-identical");
    }

    check_adversarial(oracle, &blob);
}

/// Truncations, bad version, wrong tag: always a typed error. Arbitrary
/// single-byte corruption: a typed error or a valid alternative state —
/// never a panic.
fn check_adversarial<O: FrequencyOracle>(oracle: &O, blob: &[u8]) {
    let mut agg = oracle.new_aggregator();
    for cut in 0..blob.len() {
        assert!(
            restore_from(&mut agg, &blob[..cut]).is_err(),
            "truncation at {cut} must error"
        );
    }

    let mut bad = blob.to_vec();
    bad[0] = SNAPSHOT_VERSION.wrapping_add(1);
    assert!(matches!(
        restore_from(&mut agg, &bad),
        Err(LdpError::VersionMismatch { .. })
    ));

    let mut bad = blob.to_vec();
    bad[1] = 0xEE; // unassigned tag
    assert!(matches!(
        restore_from(&mut agg, &bad),
        Err(LdpError::ReportTypeMismatch { .. })
    ));

    for i in 0..blob.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut bad = blob.to_vec();
            bad[i] ^= flip;
            let _ = restore_from(&mut agg, &bad); // must not panic
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn grr_snapshot_contract(seed in any::<u64>(), d in 2u64..24) {
        let oracle = DirectEncoding::new(d, eps(1.0)).unwrap();
        check_snapshot_contract(&oracle, 300, 200, seed);
    }

    #[test]
    fn sue_snapshot_contract(seed in any::<u64>(), d in 2u64..24) {
        let oracle = SymmetricUnaryEncoding::new(d, eps(1.0)).unwrap();
        check_snapshot_contract(&oracle, 200, 150, seed);
    }

    #[test]
    fn oue_snapshot_contract(seed in any::<u64>(), d in 2u64..24) {
        let oracle = OptimizedUnaryEncoding::new(d, eps(1.0)).unwrap();
        check_snapshot_contract(&oracle, 200, 150, seed);
    }

    #[test]
    fn she_snapshot_contract(seed in any::<u64>(), d in 2u64..16) {
        let oracle = SummationHistogramEncoding::new(d, eps(1.0)).unwrap();
        check_snapshot_contract(&oracle, 120, 80, seed);
    }

    #[test]
    fn the_snapshot_contract(seed in any::<u64>(), d in 2u64..16) {
        let oracle = ThresholdHistogramEncoding::new(d, eps(1.0)).unwrap();
        check_snapshot_contract(&oracle, 200, 150, seed);
    }

    #[test]
    fn blh_snapshot_contract(seed in any::<u64>(), d in 2u64..64) {
        let oracle = BinaryLocalHashing::new(d, eps(1.0));
        check_snapshot_contract(&oracle, 150, 100, seed);
    }

    #[test]
    fn olh_snapshot_contract(seed in any::<u64>(), d in 2u64..64) {
        let oracle = OptimizedLocalHashing::new(d, eps(1.0));
        check_snapshot_contract(&oracle, 150, 100, seed);
    }

    #[test]
    fn olhc_snapshot_contract(seed in any::<u64>(), d in 2u64..64, cohorts in 2u32..32) {
        let oracle = CohortLocalHashing::optimized(d, cohorts, eps(1.0));
        check_snapshot_contract(&oracle, 300, 200, seed);
    }

    #[test]
    fn hr_snapshot_contract(seed in any::<u64>(), d in 2u64..24) {
        let oracle = HadamardResponse::new(d, eps(1.0));
        check_snapshot_contract(&oracle, 300, 200, seed);
    }

    #[test]
    fn ss_snapshot_contract(seed in any::<u64>(), d in 4u64..32) {
        let oracle = SubsetSelection::new(d, eps(1.0));
        check_snapshot_contract(&oracle, 200, 150, seed);
    }

    #[test]
    fn arbitrary_bytes_never_panic_any_restore(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        // Pure fuzz across every state layout.
        let mut g = DirectEncoding::new(8, eps(1.0)).unwrap().new_aggregator();
        let _ = restore_from(&mut g, &bytes);
        let mut u = OptimizedUnaryEncoding::new(8, eps(1.0)).unwrap().new_aggregator();
        let _ = restore_from(&mut u, &bytes);
        let mut s = SummationHistogramEncoding::new(8, eps(1.0)).unwrap().new_aggregator();
        let _ = restore_from(&mut s, &bytes);
        let mut t = ThresholdHistogramEncoding::new(8, eps(1.0)).unwrap().new_aggregator();
        let _ = restore_from(&mut t, &bytes);
        let mut l = OptimizedLocalHashing::new(8, eps(1.0)).new_aggregator();
        let _ = restore_from(&mut l, &bytes);
        let mut c = CohortLocalHashing::optimized(8, 4, eps(1.0)).new_aggregator();
        let _ = restore_from(&mut c, &bytes);
        let mut h = HadamardResponse::new(8, eps(1.0)).new_aggregator();
        let _ = restore_from(&mut h, &bytes);
        let mut ss = SubsetSelection::new(8, eps(1.0)).new_aggregator();
        let _ = restore_from(&mut ss, &bytes);
    }
}

/// A snapshot taken under one configuration must not restore into an
/// aggregator built under another — shape, channel, or seed base.
#[test]
fn cross_configuration_snapshots_are_rejected() {
    let mut rng = StdRng::seed_from_u64(11);

    let a16 = filled(&DirectEncoding::new(16, eps(1.0)).unwrap(), 100, &mut rng);
    let blob = snapshot_vec(&a16);
    let mut d8 = DirectEncoding::new(8, eps(1.0)).unwrap().new_aggregator();
    assert!(matches!(
        restore_from(&mut d8, &blob),
        Err(LdpError::StateMismatch(_))
    ));
    let mut other_eps = DirectEncoding::new(16, eps(2.0)).unwrap().new_aggregator();
    assert!(matches!(
        restore_from(&mut other_eps, &blob),
        Err(LdpError::StateMismatch(_))
    ));

    // SUE and OUE share the unary state tag but differ in channel.
    let sue = filled(
        &SymmetricUnaryEncoding::new(16, eps(1.0)).unwrap(),
        100,
        &mut rng,
    );
    let mut oue = OptimizedUnaryEncoding::new(16, eps(1.0))
        .unwrap()
        .new_aggregator();
    assert!(matches!(
        restore_from(&mut oue, &snapshot_vec(&sue)),
        Err(LdpError::StateMismatch(_))
    ));

    // OLH-C under a different public seed base.
    let olhc = filled(
        &CohortLocalHashing::optimized_with_seed(32, 8, 1, eps(1.0)),
        100,
        &mut rng,
    );
    let mut other_seed =
        CohortLocalHashing::optimized_with_seed(32, 8, 2, eps(1.0)).new_aggregator();
    assert!(matches!(
        restore_from(&mut other_seed, &snapshot_vec(&olhc)),
        Err(LdpError::StateMismatch(_))
    ));
}

/// A cross-tag restore is a tag error even between aggregators whose
/// payloads happen to share a layout (THE vs unary counters).
#[test]
fn wrong_kind_tag_is_rejected_before_payload_parsing() {
    let mut rng = StdRng::seed_from_u64(5);
    let the = filled(
        &ThresholdHistogramEncoding::new(8, eps(1.0)).unwrap(),
        50,
        &mut rng,
    );
    let mut sue = SymmetricUnaryEncoding::new(8, eps(1.0))
        .unwrap()
        .new_aggregator();
    assert!(matches!(
        restore_from(&mut sue, &snapshot_vec(&the)),
        Err(LdpError::ReportTypeMismatch { .. })
    ));
}
