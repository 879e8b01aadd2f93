//! Planner contracts, twice over.
//!
//! **Property side:** for any valid [`WorkloadSpec`], every plan the
//! planner returns must hand back a descriptor that survives the full
//! deployment path — serialization round-trip, workspace-registry
//! instantiation — while its predicted costs respect every budget the
//! spec imposed, in predicted-variance order. These are the guarantees
//! `Planner::plan` documents; proptest hunts for the spec that breaks
//! them.
//!
//! **Empirical side:** a predicted σ² is only useful if the mechanism it
//! describes actually delivers it. For OLH-C, OUE, CMS, and dBitFlip the
//! planned descriptor is executed over the byte path — all reports on
//! one random item, querying an absent item whose true count is zero, so
//! the estimate's spread *is* the noise floor the planner ranked on —
//! and the sample variance across trials must sit within five standard
//! errors of the prediction. (Variance-of-sample-variance for a
//! near-Gaussian estimator is `2σ⁴/(T−1)`, so five standard errors at
//! `T = 250` is a ±45% band — wide enough for approximation error in the
//! documented CMS/dBitFlip formulas, tight enough to catch a wrong
//! constant or a misrouted knob.)

use ldp::core::protocol::{MechanismKind, ProtocolDescriptor};
use ldp::planner::{workspace_planner, Plan, Planner, QueryShape, WorkloadSpec};
use ldp::workloads::service::{workspace_registry, CollectorService, WireClient};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every contract `Planner::plan` documents, checked for one spec.
fn assert_plan_contracts(planner: &Planner, spec: &WorkloadSpec) {
    let plans = planner.plan(spec).expect("valid spec plans cleanly");
    let registry = workspace_registry();
    let mut prev_variance = f64::NEG_INFINITY;
    for plan in &plans {
        let desc = &plan.descriptor;
        let kind = desc.kind();

        // (a) + (b): the descriptor survives the wire round-trip intact.
        let revived = ProtocolDescriptor::from_bytes(&desc.to_bytes())
            .unwrap_or_else(|e| panic!("{kind:?}: descriptor round-trip failed: {e}"));
        assert_eq!(
            &revived, desc,
            "{kind:?}: round-trip changed the descriptor"
        );

        // (c): the workspace registry instantiates it.
        registry
            .build(desc)
            .unwrap_or_else(|e| panic!("{kind:?}: registry refused planned descriptor: {e}"));

        // (d): predicted costs respect every budget the spec imposed.
        assert!(
            plan.cost.fits(spec),
            "{kind:?}: plan violates spec budgets: {:?} vs {spec:?}",
            plan.cost
        );
        if let Some(mem) = spec.memory_budget {
            assert!(
                plan.cost.memory_bytes <= mem,
                "{kind:?}: memory over budget"
            );
        }
        if let Some(bytes) = spec.report_budget {
            assert!(
                plan.cost.bytes_per_report <= bytes,
                "{kind:?}: report bytes over budget"
            );
        }
        if spec.require_subtractive {
            assert!(plan.cost.subtractive, "{kind:?}: non-subtractive plan");
        }

        // Ranked: predicted variance is non-decreasing down the list.
        assert!(
            plan.cost.variance >= prev_variance,
            "{kind:?}: plans not sorted by predicted variance"
        );
        prev_variance = plan.cost.variance;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Optional budgets ride as sentinel integers (0 = unconstrained):
    // the vendored proptest covers ranges and `any`, not `option::of`.
    #[test]
    fn every_plan_builds_roundtrips_instantiates_and_fits(
        domain in 2u64..=100_000,
        population in 100u64..=1_000_000,
        eps_tenths in 2u64..=40,
        memory_kib in 0u64..=1024,
        report_bytes in 0u64..=64,
        subtractive in any::<bool>(),
        topk in 0u64..=32,
    ) {
        let mut spec = WorkloadSpec::new(domain, population, eps_tenths as f64 / 10.0);
        if memory_kib > 0 {
            spec = spec.with_memory_budget(memory_kib * 1024);
        }
        if report_bytes >= 4 {
            spec = spec.with_report_budget(report_bytes);
        }
        if subtractive {
            spec = spec.with_subtractive();
        }
        if topk > 0 {
            spec = spec.with_query_shape(QueryShape::TopK { k: topk });
        }
        assert_plan_contracts(&workspace_planner(), &spec);
    }
}

// --- Empirical: predicted σ² vs measured noise-floor variance. ---

/// Finds the plan for `kind` in a roomy spec's ranked list.
fn plan_for(kind: MechanismKind, spec: &WorkloadSpec) -> Plan {
    workspace_planner()
        .plan(spec)
        .expect("roomy spec plans")
        .into_iter()
        .find(|p| p.kind() == kind)
        .unwrap_or_else(|| panic!("{kind:?} missing from roomy plan list"))
}

/// Executes the planned descriptor over the byte path `trials` times —
/// every report on one random item, estimate read at a different item
/// whose true count is zero — and returns the sample variance of that
/// estimate. Randomizing the item pair per trial averages over hash
/// placements, which is the expectation the analytic formulas take.
fn measured_noise_floor(plan: &Plan, n: usize, trials: usize, seed: u64) -> f64 {
    let d = plan.descriptor.domain_size();
    let client = WireClient::from_descriptor(&plan.descriptor).expect("client builds");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut estimates = Vec::with_capacity(trials);
    for _ in 0..trials {
        let held = rng.gen_range(0..d);
        let mut absent = rng.gen_range(0..d);
        while absent == held {
            absent = rng.gen_range(0..d);
        }
        let mut service =
            CollectorService::from_descriptor(&plan.descriptor).expect("service builds");
        let mut wire = Vec::new();
        for _ in 0..n {
            client
                .randomize_item(held, &mut rng, &mut wire)
                .expect("frame");
        }
        service.ingest_concat(&wire).expect("ingest");
        estimates.push(service.estimates()[absent as usize]);
    }
    let mean = estimates.iter().sum::<f64>() / trials as f64;
    estimates
        .iter()
        .map(|e| (e - mean) * (e - mean))
        .sum::<f64>()
        / (trials - 1) as f64
}

fn assert_noise_floor_matches(kind: MechanismKind, spec: &WorkloadSpec, seed: u64) {
    const TRIALS: usize = 250;
    let n = spec.population as usize;
    let plan = plan_for(kind, spec);
    let predicted = plan.cost.variance;
    let measured = measured_noise_floor(&plan, n, TRIALS, seed);
    // Sample variance of a near-Gaussian estimator has standard error
    // σ²·√(2/(T−1)); require agreement within five of those.
    let tolerance = 5.0 * predicted * (2.0 / (TRIALS - 1) as f64).sqrt();
    assert!(
        (measured - predicted).abs() <= tolerance,
        "{kind:?}: measured noise-floor variance {measured:.1} vs predicted {predicted:.1} \
         (tolerance ±{tolerance:.1})"
    );
}

#[test]
fn predicted_variance_matches_measured_oue() {
    let spec = WorkloadSpec::new(64, 2_000, 1.0);
    assert_noise_floor_matches(MechanismKind::OptimizedUnary, &spec, 0xa11ce);
}

#[test]
fn predicted_variance_matches_measured_olh_cohorts() {
    let spec = WorkloadSpec::new(64, 2_000, 1.0);
    assert_noise_floor_matches(MechanismKind::CohortLocalHashing, &spec, 0xb0b);
}

#[test]
fn predicted_variance_matches_measured_cms() {
    // Budgets steer the tuner to a small sketch (m = 256, few rows):
    // the variance formula is the same, and 250 byte-path trials stay
    // cheap enough for debug-mode CI.
    let spec = WorkloadSpec::new(64, 2_000, 1.0)
        .with_report_budget(40)
        .with_memory_budget(8 * 1024);
    assert_noise_floor_matches(MechanismKind::AppleCms, &spec, 0xc4a7);
}

#[test]
fn predicted_variance_matches_measured_dbitflip() {
    let spec = WorkloadSpec::new(64, 2_000, 1.0);
    assert_noise_floor_matches(MechanismKind::MicrosoftDBitFlip, &spec, 0xd1ce);
}
