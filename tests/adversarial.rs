//! Adversarial and failure-injection tests: what happens when inputs are
//! hostile or malformed. LDP's unbiasedness story assumes honest-but-
//! private clients; these tests pin (a) that malformed reports fail loud,
//! not silent, and (b) the *measured* sensitivity of each aggregate to
//! data-poisoning users — the robustness question the deployed systems
//! had to answer before shipping.

use ldp::core::fo::{FoAggregator, FrequencyOracle, OptimizedLocalHashing, OptimizedUnaryEncoding};
use ldp::core::Epsilon;
use ldp::workloads::gen::{exact_counts, ZipfGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Folds 200 honest reports into a fresh aggregator, then feeds it
/// `bad`: both `try_accumulate` (which must err) and `accumulate` (which
/// must panic) have to refuse it and leave `reports()` and `estimate()`
/// exactly as they were.
fn refused_on_both_paths<O: FrequencyOracle>(oracle: &O, bad: O::Report) {
    let name = oracle.name();
    let mut rng = StdRng::seed_from_u64(11);
    let values: Vec<u64> = (0..200).map(|i| i % oracle.domain_size()).collect();
    let mut agg = oracle.new_aggregator();
    oracle.randomize_accumulate_batch(&values, &mut rng, &mut agg);
    let state = |agg: &O::Aggregator| {
        let est: Vec<u64> = agg.estimate().iter().map(|x| x.to_bits()).collect();
        (agg.reports(), est)
    };
    let before = state(&agg);

    assert!(
        agg.try_accumulate(&bad).is_err(),
        "{name}: try_accumulate accepted {bad:?}"
    );
    assert_eq!(state(&agg), before, "{name}: try_accumulate moved state");

    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        agg.accumulate(&bad);
    }));
    assert!(
        result.is_err(),
        "{name}: malformed report must panic, not corrupt state"
    );
    assert_eq!(state(&agg), before, "{name}: accumulate moved state");
}

/// Every workspace aggregator with a refusable report refuses it on
/// both the checked and the panicking path, or on neither.
#[test]
fn malformed_reports_are_refused_on_both_paths() {
    use ldp::apple::{CmsOracle, CmsReport, HcmsOracle, HcmsReport};
    use ldp::core::fo::hadamard::HrReport;
    use ldp::core::fo::hashing::{CohortLhReport, LhReport};
    use ldp::core::fo::{
        CohortLocalHashing, DirectEncoding, HadamardResponse, SubsetSelection,
        SummationHistogramEncoding, ThresholdHistogramEncoding,
    };
    use ldp::microsoft::{DBitFlip, DBitReport};
    use ldp::sketch::BitVec;
    let eps = Epsilon::new(1.0).expect("eps");

    refused_on_both_paths(&DirectEncoding::new(8, eps).expect("domain"), 8);
    // Wrong width.
    refused_on_both_paths(
        &OptimizedUnaryEncoding::new(16, eps).expect("domain"),
        BitVec::zeros(8),
    );
    refused_on_both_paths(
        &ThresholdHistogramEncoding::new(16, eps).expect("domain"),
        BitVec::zeros(8),
    );
    refused_on_both_paths(
        &SummationHistogramEncoding::new(4, eps).expect("domain"),
        vec![0.0, f64::NAN, 0.0, 0.0],
    );
    // k = 16 votes piled on one item.
    refused_on_both_paths(&SubsetSelection::with_k(64, 16, eps), vec![5; 16]);
    refused_on_both_paths(
        &HadamardResponse::new(16, eps),
        HrReport { index: 0, sign: 3 },
    );
    refused_on_both_paths(
        &OptimizedLocalHashing::new(64, eps),
        LhReport {
            seed: 1,
            bucket: 1 << 40,
        },
    );
    refused_on_both_paths(
        &CohortLocalHashing::optimized(64, 16, eps),
        CohortLhReport {
            cohort: 16,
            bucket: 0,
        },
    );
    refused_on_both_paths(
        &CmsOracle::new(4, 16, eps, 7, 64),
        CmsReport {
            row: 4,
            bits: vec![1; 16],
        },
    );
    refused_on_both_paths(
        &HcmsOracle::new(4, 16, eps, 7, 64),
        HcmsReport {
            row: 0,
            coeff: 3,
            sign: 0,
        },
    );
    // Eight buckets from a device that covers d = 2.
    refused_on_both_paths(
        &DBitFlip::new(16, 2, eps).expect("mechanism"),
        DBitReport {
            buckets: (0..8).collect(),
            bits: vec![true; 8],
        },
    );
}

#[test]
fn malformed_rappor_report_panics() {
    use ldp::rappor::{RapporAggregator, RapporParams, RapporReport};
    let params = RapporParams::small(4).expect("params");
    let mut agg = RapporAggregator::new(params);
    let bad = RapporReport {
        cohort: 99, // out of range
        bits: ldp::sketch::BitVec::zeros(32),
    };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        agg.accumulate(&bad);
    }));
    assert!(result.is_err(), "bad cohort must panic");
}

/// Poisoning: a coalition of `m` fake users all report support for one
/// target item. Under OLH the debias slope is 1/(p* − q*), so the
/// inflation is ≈ m/(p*−q*) — bounded and linear in the coalition size,
/// never amplified by other users' data. Pin that bound.
#[test]
fn poisoning_inflation_is_linear_and_bounded() {
    let d = 64u64;
    let eps = Epsilon::new(1.0).expect("eps");
    let oracle = OptimizedLocalHashing::new(d, eps);
    let zipf = ZipfGenerator::new(d, 1.0).expect("zipf");
    let n_honest = 20_000;
    let target = 63u64; // unpopular item

    let mut rng = StdRng::seed_from_u64(5);
    let honest = zipf.sample_n(n_honest, &mut rng);
    let truth = exact_counts(&honest, d);

    let mut inflations = Vec::new();
    for &m in &[0usize, 200, 400] {
        let mut agg = oracle.new_aggregator();
        for &v in &honest {
            agg.accumulate(&oracle.randomize(v, &mut rng));
        }
        // Attackers skip the randomizer: they pick a seed and claim the
        // bucket that supports the target (the strongest input-independent
        // attack a report-forging client can mount).
        for i in 0..m {
            let seed = i as u64 * 7919;
            let fam = ldp::sketch::hash::HashFamily::new(oracle.g());
            let bucket = fam.hash(target, seed);
            agg.accumulate(&ldp::core::fo::hashing::LhReport { seed, bucket });
        }
        let est = agg.estimate();
        inflations.push(est[target as usize] - truth[target as usize]);
    }
    // Inflation grows ~linearly with coalition size...
    let per_attacker_small = (inflations[1] - inflations[0]) / 200.0;
    let per_attacker_large = (inflations[2] - inflations[0]) / 400.0;
    assert!(
        (per_attacker_small - per_attacker_large).abs() < per_attacker_small.abs() * 0.5 + 1.0,
        "inflation should be linear: {per_attacker_small} vs {per_attacker_large}"
    );
    // ...at roughly the analytic slope 1/(p* - q*).
    let e = eps.value().exp();
    let g = oracle.g() as f64;
    let slope = 1.0 / (e / (e + g - 1.0) - 1.0 / g);
    assert!(
        (per_attacker_large - slope).abs() < slope * 0.5,
        "per-attacker inflation {per_attacker_large} vs analytic {slope}"
    );
}

/// An attacker cannot *suppress* an item below what removing their own
/// honest report would do: non-support only removes the q* baseline.
#[test]
fn suppression_attack_is_weak() {
    let d = 16u64;
    let eps = Epsilon::new(1.0).expect("eps");
    let oracle = OptimizedLocalHashing::new(d, eps);
    let mut rng = StdRng::seed_from_u64(9);
    let n = 20_000usize;
    let m = 1_000usize; // attackers
    let mut agg = oracle.new_aggregator();
    for u in 0..n {
        agg.accumulate(&oracle.randomize((u % 4) as u64, &mut rng));
    }
    // Attackers report buckets that do NOT support item 0.
    let fam = ldp::sketch::hash::HashFamily::new(oracle.g());
    let mut placed = 0usize;
    let mut seed = 0u64;
    while placed < m {
        let bucket = (fam.hash(0, seed) + 1) % oracle.g();
        agg.accumulate(&ldp::core::fo::hashing::LhReport { seed, bucket });
        placed += 1;
        seed += 1;
    }
    let est = agg.estimate();
    let truth0 = (n / 4) as f64;
    // Suppression is bounded by m * q*/(p*-q*) ≈ m * 0.85 at eps=1... the
    // point is item 0 stays clearly positive and dominant.
    assert!(
        est[0] > truth0 * 0.5,
        "suppression should not erase a heavy item: est={}",
        est[0]
    );
}
