//! Property tests for [`FoAggregator::merge`]: for every oracle in the
//! family, splitting one report stream across shard-local aggregators and
//! merging must reproduce sequential accumulation — exactly, for every
//! count-based aggregator — and merging must be associative. This is the
//! contract the sharded parallel collection engine
//! (`ldp_workloads::parallel`) is built on.

use ldp_core::fo::{
    CohortLocalHashing, DirectEncoding, FoAggregator, FrequencyOracle, HadamardResponse,
    OptimizedLocalHashing, OptimizedUnaryEncoding, SubsetSelection, SummationHistogramEncoding,
    SymmetricUnaryEncoding, ThresholdHistogramEncoding,
};
use ldp_core::Epsilon;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How strictly the merged estimate must match the sequential one.
#[derive(Clone, Copy)]
enum Match {
    /// Bit-for-bit: integer sufficient statistics, identical debiasing.
    Exact,
    /// Up to f64 addition reassociation (SHE sums floating-point noise).
    UlpClose,
}

/// Accumulates `reports` three ways — sequentially, and as three shard
/// aggregators merged in the two associativity orders — and checks all
/// estimates agree.
fn check_merge<O: FrequencyOracle>(oracle: &O, seed: u64, n: usize, cut: (usize, usize), m: Match)
where
    O::Report: Clone,
{
    let d = oracle.domain_size();
    let mut rng = StdRng::seed_from_u64(seed);
    let reports: Vec<O::Report> = (0..n)
        .map(|i| oracle.randomize((i as u64 * 7 + seed) % d, &mut rng))
        .collect();
    let (c1, c2) = (cut.0.min(n), cut.1.min(n));
    let (lo, hi) = (c1.min(c2), c1.max(c2));

    let mut seq = oracle.new_aggregator();
    for r in &reports {
        seq.accumulate(r);
    }

    let shard = |range: &[O::Report]| {
        let mut agg = oracle.new_aggregator();
        for r in range {
            agg.accumulate(r);
        }
        agg
    };
    // ((s0 + s1) + s2) and (s0 + (s1 + s2)).
    let mut left = shard(&reports[..lo]);
    left.merge(shard(&reports[lo..hi])).unwrap();
    left.merge(shard(&reports[hi..])).unwrap();
    let mut tail = shard(&reports[lo..hi]);
    tail.merge(shard(&reports[hi..])).unwrap();
    let mut right = shard(&reports[..lo]);
    right.merge(tail).unwrap();

    assert_eq!(
        left.reports(),
        seq.reports(),
        "{}: n mismatch",
        oracle.name()
    );
    assert_eq!(right.reports(), seq.reports());

    let (es, el, er) = (seq.estimate(), left.estimate(), right.estimate());
    for i in 0..es.len() {
        match m {
            Match::Exact => {
                assert_eq!(
                    el[i].to_bits(),
                    es[i].to_bits(),
                    "{} item {i}: merged {} != sequential {}",
                    oracle.name(),
                    el[i],
                    es[i]
                );
                assert_eq!(er[i].to_bits(), es[i].to_bits(), "{} assoc", oracle.name());
            }
            Match::UlpClose => {
                let tol = 1e-9 * (1.0 + es[i].abs());
                assert!((el[i] - es[i]).abs() < tol, "{} item {i}", oracle.name());
                assert!(
                    (er[i] - es[i]).abs() < tol,
                    "{} assoc item {i}",
                    oracle.name()
                );
            }
        }
    }
}

fn eps(e: f64) -> Epsilon {
    Epsilon::new(e).expect("valid eps")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn merge_exact_for_count_aggregators(
        e in 0.3f64..4.0, d in 4u64..48, seed in 0u64..10_000,
        n in 30usize..150, a in 0usize..150, b in 0usize..150,
    ) {
        let cut = (a, b);
        check_merge(&DirectEncoding::new(d, eps(e)).expect("domain"), seed, n, cut, Match::Exact);
        check_merge(&SymmetricUnaryEncoding::new(d, eps(e)).expect("domain"), seed, n, cut, Match::Exact);
        check_merge(&OptimizedUnaryEncoding::new(d, eps(e)).expect("domain"), seed, n, cut, Match::Exact);
        check_merge(&ThresholdHistogramEncoding::new(d, eps(e)).expect("domain"), seed, n, cut, Match::Exact);
        check_merge(&SubsetSelection::new(d, eps(e)), seed, n, cut, Match::Exact);
        check_merge(&HadamardResponse::new(d, eps(e)), seed, n, cut, Match::Exact);
        check_merge(&OptimizedLocalHashing::new(d, eps(e)), seed, n, cut, Match::Exact);
        check_merge(&CohortLocalHashing::optimized(d, 32, eps(e)), seed, n, cut, Match::Exact);
    }

    #[test]
    fn merge_matches_sequential_for_she_up_to_reassociation(
        e in 0.3f64..4.0, d in 4u64..24, seed in 0u64..10_000,
        n in 30usize..100, a in 0usize..100, b in 0usize..100,
    ) {
        check_merge(
            &SummationHistogramEncoding::new(d, eps(e)).expect("domain"),
            seed, n, (a, b), Match::UlpClose,
        );
    }
}

/// Merging an empty aggregator is the identity.
#[test]
fn merge_with_empty_is_identity() {
    let oracle = CohortLocalHashing::optimized(16, 8, eps(1.0));
    let mut rng = StdRng::seed_from_u64(7);
    let mut agg = oracle.new_aggregator();
    for u in 0..200u64 {
        agg.accumulate(&oracle.randomize(u % 16, &mut rng));
    }
    let before = agg.estimate();
    agg.merge(oracle.new_aggregator()).unwrap();
    assert_eq!(agg.estimate(), before);
    assert_eq!(agg.reports(), 200);

    let mut empty = oracle.new_aggregator();
    let mut rng = StdRng::seed_from_u64(7);
    let mut other = oracle.new_aggregator();
    for u in 0..200u64 {
        other.accumulate(&oracle.randomize(u % 16, &mut rng));
    }
    empty.merge(other).unwrap();
    assert_eq!(empty.estimate(), before);
}
