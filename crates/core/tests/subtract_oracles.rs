//! Property tests for [`FoAggregator::try_subtract`]: subtraction must
//! be the **exact inverse** of merge — `subtract(merge(a, b), b)` leaves
//! state bit-identical to `a` (compared through snapshot BLOBs, stronger
//! than estimate equality) — for every count-based aggregator in the
//! family; the non-subtractive states (SHE's float sums, raw LH's report
//! list) must refuse with [`LdpError::NotSubtractive`] and leave both
//! operands untouched. This is the contract the sliding-window ring
//! (`ldp_workloads::window`) retires windows on.

use ldp_core::fo::{
    CohortLocalHashing, DirectEncoding, FoAggregator, FrequencyOracle, HadamardResponse,
    OptimizedLocalHashing, OptimizedUnaryEncoding, SubsetSelection, SummationHistogramEncoding,
    SymmetricUnaryEncoding, ThresholdHistogramEncoding,
};
use ldp_core::snapshot::{snapshot_vec, StateSnapshot};
use ldp_core::{Epsilon, LdpError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn eps(e: f64) -> Epsilon {
    Epsilon::new(e).expect("valid eps")
}

/// Builds `a` from the first `cut` reports and `b` from the rest, then
/// checks `try_subtract(merge(a, b), b)` restores `a`'s exact snapshot —
/// including the `b` empty and `a` empty edges — and that subtracting a
/// differently-configured state refuses without touching the minuend.
fn check_subtract<O: FrequencyOracle>(oracle: &O, mismatched: &O, seed: u64, n: usize, cut: usize)
where
    O::Aggregator: StateSnapshot,
{
    let d = oracle.domain_size();
    let mut rng = StdRng::seed_from_u64(seed);
    let reports: Vec<O::Report> = (0..n)
        .map(|i| oracle.randomize((i as u64 * 5 + seed) % d, &mut rng))
        .collect();
    let cut = cut.min(n);

    let build = |range: &[O::Report]| {
        let mut agg = oracle.new_aggregator();
        for r in range {
            agg.accumulate(r);
        }
        agg
    };
    let a = build(&reports[..cut]);
    let b = build(&reports[cut..]);
    let mut merged = build(&reports[..cut]);
    merged.merge(build(&reports[cut..])).unwrap();

    merged
        .try_subtract(&b)
        .unwrap_or_else(|e| panic!("{}: subtract refused: {e}", oracle.name()));
    assert_eq!(
        snapshot_vec(&merged),
        snapshot_vec(&a),
        "{}: subtract(merge(a, b), b) != a",
        oracle.name()
    );
    assert_eq!(merged.reports(), cut);

    // Subtracting more than the state holds must refuse atomically.
    if cut < n {
        let before = snapshot_vec(&merged);
        let whole = build(&reports);
        assert!(
            matches!(merged.try_subtract(&whole), Err(LdpError::StateMismatch(_))),
            "{}: oversubtraction must refuse",
            oracle.name()
        );
        assert_eq!(
            snapshot_vec(&merged),
            before,
            "{}: refused subtract moved state",
            oracle.name()
        );
    }

    // A state from a different configuration is never a sub-aggregate.
    let before = snapshot_vec(&merged);
    let foreign = mismatched.new_aggregator();
    assert!(
        matches!(
            merged.try_subtract(&foreign),
            Err(LdpError::StateMismatch(_))
        ),
        "{}: config mismatch must refuse",
        oracle.name()
    );
    assert_eq!(snapshot_vec(&merged), before);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn subtract_inverts_merge_for_count_aggregators(
        e in 0.3f64..4.0, d in 4u64..48, seed in 0u64..10_000,
        n in 20usize..120, cut in 0usize..120,
    ) {
        // Each mismatched twin differs only in ε, the config every
        // aggregator checks first.
        check_subtract(
            &DirectEncoding::new(d, eps(e)).expect("domain"),
            &DirectEncoding::new(d, eps(e + 0.7)).expect("domain"),
            seed, n, cut,
        );
        check_subtract(
            &SymmetricUnaryEncoding::new(d, eps(e)).expect("domain"),
            &SymmetricUnaryEncoding::new(d, eps(e + 0.7)).expect("domain"),
            seed, n, cut,
        );
        check_subtract(
            &OptimizedUnaryEncoding::new(d, eps(e)).expect("domain"),
            &OptimizedUnaryEncoding::new(d, eps(e + 0.7)).expect("domain"),
            seed, n, cut,
        );
        check_subtract(
            &ThresholdHistogramEncoding::new(d, eps(e)).expect("domain"),
            &ThresholdHistogramEncoding::new(d, eps(e + 0.7)).expect("domain"),
            seed, n, cut,
        );
        check_subtract(
            &SubsetSelection::new(d, eps(e)),
            &SubsetSelection::new(d, eps(e + 0.7)),
            seed, n, cut,
        );
        check_subtract(
            &HadamardResponse::new(d, eps(e)),
            &HadamardResponse::new(d, eps(e + 0.7)),
            seed, n, cut,
        );
        check_subtract(
            &CohortLocalHashing::optimized(d, 16, eps(e)),
            &CohortLocalHashing::optimized(d, 16, eps(e + 0.7)),
            seed, n, cut,
        );
    }

    #[test]
    fn non_subtractive_states_refuse_typed(
        e in 0.3f64..4.0, d in 4u64..24, seed in 0u64..10_000, n in 10usize..60,
    ) {
        // SHE: floating-point noise sums have no exact merge inverse.
        let she = SummationHistogramEncoding::new(d, eps(e)).expect("domain");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut agg = she.new_aggregator();
        let mut other = she.new_aggregator();
        for i in 0..n {
            agg.accumulate(&she.randomize(i as u64 % d, &mut rng));
            other.accumulate(&she.randomize(i as u64 % d, &mut rng));
        }
        let (before_a, before_b) = (snapshot_vec(&agg), snapshot_vec(&other));
        prop_assert!(matches!(
            agg.try_subtract(&other),
            Err(LdpError::NotSubtractive(_))
        ));
        prop_assert_eq!(snapshot_vec(&agg), before_a);
        prop_assert_eq!(snapshot_vec(&other), before_b);

        // Raw OLH: a report list; window deltas have no identity in it.
        let olh = OptimizedLocalHashing::new(d, eps(e));
        let mut agg = olh.new_aggregator();
        let mut other = olh.new_aggregator();
        for i in 0..n {
            agg.accumulate(&olh.randomize(i as u64 % d, &mut rng));
            other.accumulate(&olh.randomize(i as u64 % d, &mut rng));
        }
        prop_assert!(matches!(
            agg.try_subtract(&other),
            Err(LdpError::NotSubtractive(_))
        ));
        prop_assert_eq!(agg.reports(), n);
    }
}
