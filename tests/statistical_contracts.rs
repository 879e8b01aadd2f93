//! Cross-crate statistical contracts: every estimator in the workspace is
//! unbiased, every analytic variance matches the empirical one, and
//! post-processing preserves totals. These are the §1.1 "mathematical
//! tools" applied uniformly across all mechanisms.

use ldp::core::fo::{
    collect_counts, DirectEncoding, FrequencyOracle, HadamardResponse, OptimizedLocalHashing,
    OptimizedUnaryEncoding, SubsetSelection, SymmetricUnaryEncoding, ThresholdHistogramEncoding,
};
use ldp::core::postprocess::norm_sub;
use ldp::core::Epsilon;
use ldp::workloads::gen::{exact_counts, ZipfGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

const D: u64 = 16;
const N: usize = 8_000;
const TRIALS: u64 = 25;

/// Average the item-0 estimate across trials; it must converge to the
/// truth within the standard error of the trial mean.
fn check_unbiased<O: FrequencyOracle>(oracle: O, seed0: u64) {
    let zipf = ZipfGenerator::new(D, 1.0).expect("valid zipf");
    let mut sum = 0.0;
    let mut truth_sum = 0.0;
    for t in 0..TRIALS {
        let mut rng = StdRng::seed_from_u64(seed0 + t);
        let values = zipf.sample_n(N, &mut rng);
        truth_sum += exact_counts(&values, D)[0];
        sum += collect_counts(&oracle, &values, &mut rng)[0];
    }
    let avg = sum / TRIALS as f64;
    let truth_avg = truth_sum / TRIALS as f64;
    // Standard error of the mean across trials.
    let sd = oracle.count_variance(N, truth_avg / N as f64).sqrt();
    let sem = sd / (TRIALS as f64).sqrt();
    assert!(
        (avg - truth_avg).abs() < 4.0 * sem + 0.01 * truth_avg,
        "{}: avg={avg:.1} truth={truth_avg:.1} sem={sem:.1}",
        oracle.name()
    );
}

#[test]
fn grr_unbiased() {
    check_unbiased(
        DirectEncoding::new(D, Epsilon::new(1.0).expect("eps")).expect("domain"),
        1000,
    );
}

#[test]
fn sue_unbiased() {
    check_unbiased(
        SymmetricUnaryEncoding::new(D, Epsilon::new(1.0).expect("eps")).expect("domain"),
        2000,
    );
}

#[test]
fn oue_unbiased() {
    check_unbiased(
        OptimizedUnaryEncoding::new(D, Epsilon::new(1.0).expect("eps")).expect("domain"),
        3000,
    );
}

#[test]
fn the_unbiased() {
    check_unbiased(
        ThresholdHistogramEncoding::new(D, Epsilon::new(1.0).expect("eps")).expect("domain"),
        4000,
    );
}

#[test]
fn olh_unbiased() {
    check_unbiased(
        OptimizedLocalHashing::new(D, Epsilon::new(1.0).expect("eps")),
        5000,
    );
}

#[test]
fn hr_unbiased() {
    check_unbiased(
        HadamardResponse::new(D, Epsilon::new(1.0).expect("eps")),
        6000,
    );
}

#[test]
fn ss_unbiased() {
    check_unbiased(
        SubsetSelection::new(D, Epsilon::new(1.0).expect("eps")),
        7000,
    );
}

#[test]
fn empirical_variance_matches_analytic_for_olh() {
    let oracle = OptimizedLocalHashing::new(D, Epsilon::new(1.0).expect("eps"));
    let zipf = ZipfGenerator::new(D, 1.0).expect("valid zipf");
    let trials = 120u64;
    let mut rng0 = StdRng::seed_from_u64(9);
    let values = zipf.sample_n(N, &mut rng0);
    let truth = exact_counts(&values, D);
    let ests: Vec<f64> = (0..trials)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(10_000 + t);
            collect_counts(&oracle, &values, &mut rng)[0]
        })
        .collect();
    let mean = ests.iter().sum::<f64>() / trials as f64;
    let var = ests.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / trials as f64;
    let predicted = oracle.count_variance(N, truth[0] / N as f64);
    assert!(
        (var - predicted).abs() / predicted < 0.4,
        "var={var:.0} predicted={predicted:.0}"
    );
}

#[test]
fn norm_sub_preserves_total_and_improves_mse_after_collection() {
    let oracle = OptimizedLocalHashing::new(256, Epsilon::new(1.0).expect("eps"));
    let zipf = ZipfGenerator::new(256, 1.5).expect("valid zipf");
    let mut rng = StdRng::seed_from_u64(77);
    let values = zipf.sample_n(20_000, &mut rng);
    let truth = exact_counts(&values, 256);
    let raw = collect_counts(&oracle, &values, &mut rng);
    let post = norm_sub(&raw, 20_000.0);
    let total: f64 = post.iter().sum();
    assert!((total - 20_000.0).abs() < 1e-6);
    let mse = |est: &[f64]| -> f64 {
        est.iter()
            .zip(&truth)
            .map(|(e, t)| (e - t).powi(2))
            .sum::<f64>()
            / 256.0
    };
    assert!(
        mse(&post) < mse(&raw),
        "norm-sub should reduce MSE on skewed data"
    );
}

#[test]
fn report_size_ladder_is_as_documented() {
    // The README's communication table, pinned as a test.
    let eps = Epsilon::new(1.0).expect("eps");
    let d = 1u64 << 20;
    let grr = DirectEncoding::new(d, eps).expect("domain").report_bits();
    let oue = OptimizedUnaryEncoding::new(d, eps)
        .expect("domain")
        .report_bits();
    let olh = OptimizedLocalHashing::new(d, eps).report_bits();
    let hr = HadamardResponse::new(d, eps).report_bits();
    assert_eq!(grr, 20);
    assert_eq!(oue, 1 << 20);
    assert!(olh <= 66);
    assert_eq!(hr, 21);
}

/// Two-sided 99.9% band for `χ²(k)/k` (Wilson–Hilferty approximation).
fn chi_square_band(k: f64) -> (f64, f64) {
    let z = 3.29;
    let a = 2.0 / (9.0 * k);
    let q = |z: f64| (1.0 - a + z * a.sqrt()).powi(3);
    (q(-z), q(z))
}

/// HR's delivered count variance, measured over the byte path (client
/// frames → collector service), matches `count_variance` for an item no
/// one holds (f = 0) and one a tenth of users hold (f = 0.1), at a low
/// and a high ε. The squared errors are taken around the exact count,
/// so `trials · s²/σ²` is `χ²(trials)`.
#[test]
fn hr_delivered_variance_matches_count_variance() {
    use ldp::core::protocol::{MechanismKind, ProtocolDescriptor};
    use ldp::workloads::service::{CollectorService, WireClient};
    const USERS: usize = 2_000;
    const TRIALS: u64 = 300;
    const DOMAIN: u64 = 64;
    // A tenth of users hold item 0, none hold item 1, the rest spread
    // over items 2..64.
    let values: Vec<u64> = (0..USERS as u64)
        .map(|u| if u % 10 == 0 { 0 } else { 2 + u % (DOMAIN - 2) })
        .collect();
    let truth = exact_counts(&values, DOMAIN);
    assert_eq!(truth[0], USERS as f64 / 10.0);
    assert_eq!(truth[1], 0.0);
    let (lo, hi) = chi_square_band(TRIALS as f64);
    for eps in [1.0, 4.0] {
        let desc = ProtocolDescriptor::builder(MechanismKind::HadamardResponse)
            .domain_size(DOMAIN)
            .epsilon(eps)
            .build()
            .expect("descriptor");
        let client = WireClient::from_descriptor(&desc).expect("client");
        let mut sq = [0.0f64; 2];
        let mut frames = Vec::new();
        for t in 0..TRIALS {
            frames.clear();
            client
                .frames_for_shard(&values, 500 + t, 0, &mut frames)
                .expect("frames");
            let mut service = CollectorService::from_descriptor(&desc).expect("service");
            service.ingest_concat(&frames).expect("ingest");
            let est = service.estimate_items(&[0, 1]).expect("items");
            for (s, (e, v)) in sq.iter_mut().zip(est.iter().zip(&truth)) {
                *s += (e - v).powi(2);
            }
        }
        let hr = HadamardResponse::new(DOMAIN, Epsilon::new(eps).expect("eps"));
        for (item, f) in [(0, 0.1), (1, 0.0)] {
            let var = sq[item] / TRIALS as f64;
            let predicted = hr.count_variance(USERS, f);
            let ratio = var / predicted;
            assert!(
                (lo..=hi).contains(&ratio),
                "ε={eps} f={f}: delivered {var:.0}, predicted {predicted:.0} \
                 (ratio {ratio:.3} outside [{lo:.3}, {hi:.3}])"
            );
        }
    }
}
