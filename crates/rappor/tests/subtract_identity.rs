//! Subtract-inverts-merge contract for the RAPPOR aggregator:
//! `try_subtract(merge(a, b), b)` must restore `a`'s per-cohort bit
//! counters bit-exactly (snapshot BLOB comparison), with atomic refusal
//! on parameter mismatch or oversubtraction — so a sliding window can
//! retire a RAPPOR collection round by exact subtraction.

use ldp_core::snapshot::snapshot_vec;
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
        agg.accumulate(&client.report(word.to_le_bytes().as_slice(), rng));
    }
    agg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn rappor_subtract_inverts_merge(
        seed in any::<u64>(), cohorts in 2u32..16, n_a in 0usize..120, n_b in 0usize..120,
    ) {
        let params = RapporParams::small(cohorts).expect("params");
        let mut rng = StdRng::seed_from_u64(seed);
        let a = filled(&params, n_a, &mut rng);
        let b = filled(&params, n_b, &mut rng);
        let mut merged = a.clone();
        merged.merge(b.clone()).unwrap();

        merged.try_subtract(&b).expect("b is a sub-aggregate");
        prop_assert_eq!(snapshot_vec(&merged), snapshot_vec(&a));
        prop_assert_eq!(merged.reports(), n_a as u64);

        // Oversubtraction refuses atomically: no cohort row moves.
        if n_b > 0 {
            let before = snapshot_vec(&merged);
            let mut oversized = b.clone();
            oversized.merge(b.clone()).unwrap();
            if merged.reports() < oversized.reports() {
                prop_assert!(matches!(
                    merged.try_subtract(&oversized),
                    Err(LdpError::StateMismatch(_))
                ));
                prop_assert_eq!(snapshot_vec(&merged), before);
            }
        }

        // Different Bloom/channel parameters are never a sub-aggregate.
        let other = RapporParams::small(cohorts + 1).expect("params");
        let foreign = RapporAggregator::new(other);
        let before = snapshot_vec(&merged);
        prop_assert!(matches!(
            merged.try_subtract(&foreign),
            Err(LdpError::StateMismatch(_))
        ));
        prop_assert_eq!(snapshot_vec(&merged), before);
    }
}
