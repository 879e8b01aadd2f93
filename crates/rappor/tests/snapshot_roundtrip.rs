//! Snapshot contract for the RAPPOR aggregator:
//! `merge(restore(snapshot(a)), b) == merge(a, b)` bit for bit, and
//! adversarial BLOBs decode to typed errors, never panics.

use ldp_core::snapshot::{restore_from, snapshot_vec, SNAPSHOT_VERSION};
use ldp_core::LdpError;
use ldp_rappor::{RapporAggregator, RapporClient, RapporParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn filled(params: &RapporParams, n: usize, rng: &mut StdRng) -> RapporAggregator {
    let mut agg = RapporAggregator::new(params.clone());
    for i in 0..n {
        let mut client = RapporClient::with_random_cohort(params.clone(), rng);
        let word = (i % 16) as u64;
        let report = client.report(word.to_le_bytes().as_slice(), rng);
        agg.accumulate(&report);
    }
    agg
}

fn check_adversarial(agg: &mut RapporAggregator, blob: &[u8]) {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn rappor_snapshot_contract(seed in any::<u64>(), cohorts in 2u32..16) {
        let params = RapporParams::small(cohorts).expect("params");
        let mut rng = StdRng::seed_from_u64(seed);
        let a = filled(&params, 150, &mut rng);
        let b = filled(&params, 100, &mut rng);

        let blob = snapshot_vec(&a);
        let mut restored = RapporAggregator::new(params.clone());
        restore_from(&mut restored, &blob).expect("well-formed snapshot restores");
        prop_assert_eq!(snapshot_vec(&restored), blob.clone());

        let mut via_bytes = restored;
        via_bytes.merge(b.clone()).unwrap();
        let mut in_process = a;
        in_process.merge(b).unwrap();
        prop_assert_eq!(snapshot_vec(&via_bytes), snapshot_vec(&in_process));
        prop_assert_eq!(via_bytes.reports(), in_process.reports());
        for (x, y) in via_bytes
            .debiased_bit_counts()
            .iter()
            .flatten()
            .zip(in_process.debiased_bit_counts().iter().flatten())
        {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }

        let mut fresh = RapporAggregator::new(params.clone());
        check_adversarial(&mut fresh, &blob);
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        let params = RapporParams::small(8).expect("params");
        let mut agg = RapporAggregator::new(params);
        let _ = restore_from(&mut agg, &bytes);
    }
}

/// Snapshots are pinned to the RAPPOR parameter set: cohort count and
/// filter shape have to match the live aggregator.
#[test]
fn cross_configuration_snapshots_are_rejected() {
    let mut rng = StdRng::seed_from_u64(23);
    let a = filled(&RapporParams::small(8).expect("params"), 100, &mut rng);
    let blob = snapshot_vec(&a);

    let mut other_cohorts = RapporAggregator::new(RapporParams::small(4).expect("params"));
    assert!(matches!(
        restore_from(&mut other_cohorts, &blob),
        Err(LdpError::StateMismatch(_))
    ));
    let mut chrome = RapporAggregator::new(RapporParams::chrome_default(8).expect("params"));
    assert!(matches!(
        restore_from(&mut chrome, &blob),
        Err(LdpError::StateMismatch(_))
    ));
}
