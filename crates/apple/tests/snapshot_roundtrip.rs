//! Snapshot contract for the Apple aggregators: CMS and HCMS sketch
//! servers (through their oracle adapters) and the SFP collector set.
//! `merge(restore(snapshot(a)), b) == merge(a, b)` bit for bit, and
//! adversarial BLOBs decode to typed errors, never panics.

use ldp_apple::cms::CmsOracle;
use ldp_apple::hcms::HcmsOracle;
use ldp_apple::sfp::{SfpConfig, SfpDiscovery};
use ldp_core::fo::{FoAggregator, FrequencyOracle};
use ldp_core::snapshot::{restore_from, snapshot_vec, StateSnapshot, SNAPSHOT_VERSION};
use ldp_core::{Epsilon, LdpError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn filled<O: FrequencyOracle>(oracle: &O, n: usize, rng: &mut StdRng) -> O::Aggregator {
    let d = oracle.domain_size();
    let mut agg = oracle.new_aggregator();
    for i in 0..n {
        let r = oracle.randomize((i as u64 * i as u64) % d, rng);
        agg.accumulate(&r);
    }
    agg
}

fn check_snapshot_contract<O>(oracle: &O, n_a: usize, n_b: usize, seed: u64)
where
    O: FrequencyOracle,
    O::Aggregator: Clone,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let a = filled(oracle, n_a, &mut rng);
    let b = filled(oracle, n_b, &mut rng);

    let blob = snapshot_vec(&a);
    let mut restored = oracle.new_aggregator();
    restore_from(&mut restored, &blob).expect("well-formed snapshot restores");
    assert_eq!(snapshot_vec(&restored), blob, "restore is lossless");

    let mut via_bytes = restored;
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

    let mut fresh = oracle.new_aggregator();
    check_adversarial(&mut fresh, &blob);
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

fn sfp() -> SfpDiscovery {
    let config = SfpConfig {
        word_len: 4,
        fragment_len: 2,
        epsilon: eps(2.0),
        sketch_rows: 4,
        sketch_width: 64,
        fragments_per_position: 4,
    };
    SfpDiscovery::new(config, 7).expect("valid config")
}

const WORDS: &[&[u8]] = &[b"face", b"time", b"book", b"chat", b"maps"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn cms_snapshot_contract(seed in any::<u64>(), k in 2usize..5, domain in 8u64..64) {
        let oracle = CmsOracle::new(k, 32, eps(2.0), 7, domain);
        check_snapshot_contract(&oracle, 200, 150, seed);
    }

    #[test]
    fn hcms_snapshot_contract(seed in any::<u64>(), k in 2usize..5, domain in 8u64..64) {
        let oracle = HcmsOracle::new(k, 32, eps(2.0), 7, domain);
        check_snapshot_contract(&oracle, 200, 150, seed);
    }

    #[test]
    fn sfp_snapshot_contract(seed in any::<u64>()) {
        let discovery = sfp();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = discovery.new_collectors();
        discovery.collect(WORDS, &mut rng, &mut a);
        let mut b = discovery.new_collectors();
        discovery.collect(&WORDS[..3], &mut rng, &mut b);

        let blob = snapshot_vec(&a);
        let mut restored = discovery.new_collectors();
        restore_from(&mut restored, &blob).expect("well-formed snapshot restores");
        prop_assert_eq!(snapshot_vec(&restored), blob.clone());

        let mut via_bytes = restored;
        via_bytes.merge(b.clone()).unwrap();
        let mut in_process = a;
        in_process.merge(b).unwrap();
        prop_assert_eq!(snapshot_vec(&via_bytes), snapshot_vec(&in_process));
        prop_assert_eq!(via_bytes.reports(), in_process.reports());

        let mut fresh = discovery.new_collectors();
        check_adversarial(&mut fresh, &blob);
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        let mut cms = CmsOracle::new(2, 32, eps(2.0), 7, 16).new_aggregator();
        let _ = restore_from(&mut cms, &bytes);
        let mut hcms = HcmsOracle::new(2, 32, eps(2.0), 7, 16).new_aggregator();
        let _ = restore_from(&mut hcms, &bytes);
        let mut collectors = sfp().new_collectors();
        let _ = restore_from(&mut collectors, &bytes);
    }
}

/// Snapshots are pinned to the sketch configuration: shape, budget, hash
/// family (via fingerprint), and bound domain all have to match.
#[test]
fn cross_configuration_snapshots_are_rejected() {
    let mut rng = StdRng::seed_from_u64(3);
    let a = filled(&CmsOracle::new(3, 32, eps(2.0), 7, 32), 100, &mut rng);
    let blob = snapshot_vec(&a);

    let mut other_seed = CmsOracle::new(3, 32, eps(2.0), 8, 32).new_aggregator();
    assert!(matches!(
        restore_from(&mut other_seed, &blob),
        Err(LdpError::StateMismatch(_))
    ));
    let mut other_width = CmsOracle::new(3, 64, eps(2.0), 7, 32).new_aggregator();
    assert!(matches!(
        restore_from(&mut other_width, &blob),
        Err(LdpError::StateMismatch(_))
    ));
    let mut other_domain = CmsOracle::new(3, 32, eps(2.0), 7, 64).new_aggregator();
    assert!(matches!(
        restore_from(&mut other_domain, &blob),
        Err(LdpError::StateMismatch(_))
    ));
    let mut other_eps = CmsOracle::new(3, 32, eps(1.0), 7, 32).new_aggregator();
    assert!(matches!(
        restore_from(&mut other_eps, &blob),
        Err(LdpError::StateMismatch(_))
    ));

    // A CMS aggregator BLOB is not an HCMS aggregator BLOB: the kind tag
    // is checked before any payload parsing.
    let mut hcms = HcmsOracle::new(3, 32, eps(2.0), 7, 32).new_aggregator();
    assert!(matches!(
        restore_from(&mut hcms, &blob),
        Err(LdpError::ReportTypeMismatch { .. })
    ));
}
