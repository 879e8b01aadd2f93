//! # `ldp-planner` — a cost-based optimizer over the protocol registry
//!
//! The workspace ships twelve [`MechanismKind`]s whose accuracy,
//! server memory, report size, and decode latency trade off sharply as
//! `(d, n, ε)` move — and until this crate, an operator picked among
//! them by hand. The planner turns the menu into a system:
//!
//! 1. every crate prices its mechanisms through the shared
//!    [`CostModel`] seam (`ldp_core::cost`), delegating variance to the
//!    mechanism's own published formula, and registers each cost model
//!    in the [`Registry`] next to the kind's wire factory;
//! 2. [`Planner::plan`] asks each entry to *tune its integer knobs*
//!    (cohorts `C`, sketch `k×m`, bits-per-device `b`) for a
//!    [`WorkloadSpec`] by analytic minimization under the spec's
//!    budgets;
//! 3. candidates that blow a budget or need subtractive retirement the
//!    aggregator cannot give are dropped;
//! 4. the survivors are **validated** — every emitted descriptor has
//!    passed `ProtocolDescriptorBuilder::build`, round-tripped through
//!    its wire bytes, and instantiated through the registry — and
//!    ranked by predicted σ².
//!
//! The winner is therefore guaranteed to instantiate through
//! [`workspace_registry`] on both ends of the wire:
//!
//! ```
//! use ldp_planner::{workspace_planner, WorkloadSpec};
//!
//! let planner = workspace_planner();
//! let spec = WorkloadSpec::new(1024, 100_000, 1.0)
//!     .with_memory_budget(256 * 1024)
//!     .with_report_budget(64);
//! let plans = planner.plan(&spec).unwrap();
//! let best = &plans[0];
//! assert!(best.cost.memory_bytes <= 256 * 1024);
//! assert!(best.cost.bytes_per_report <= 64);
//! // The descriptor is ready for WireClient / CollectorService.
//! let mech = ldp_planner::workspace_registry()
//!     .build(&best.descriptor)
//!     .unwrap();
//! assert_eq!(mech.descriptor().kind(), best.kind());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use ldp_core::cost::{CostEstimate, CostModel, QueryShape, WorkloadSpec};
use ldp_core::protocol::{MechanismKind, ProtocolDescriptor, Registry};
use ldp_core::{LdpError, Result};

/// One ranked planner candidate: a validated, registry-instantiable
/// descriptor plus its predicted cost profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The tuned, builder-validated descriptor (round-tripped through
    /// its wire bytes and instantiated through the planner's registry
    /// before being emitted).
    pub descriptor: ProtocolDescriptor,
    /// Predicted σ², memory, frame bytes, and decode operations.
    pub cost: CostEstimate,
}

impl Plan {
    /// The mechanism this plan instantiates.
    #[must_use]
    pub fn kind(&self) -> MechanismKind {
        self.descriptor.kind()
    }
}

/// The optimizer over a [`Registry`]: every registered kind's cost model
/// is tuned and priced, and its factory must instantiate the winners.
#[derive(Debug)]
pub struct Planner {
    registry: Registry,
}

impl Default for Planner {
    fn default() -> Self {
        workspace_planner()
    }
}

impl Planner {
    /// A planner over `registry`'s kinds: each entry's cost model prices
    /// the kind, and its factory proves the plan instantiates.
    #[must_use]
    pub fn new(registry: Registry) -> Self {
        Self { registry }
    }

    /// The registry plans are validated against.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Plans `spec`: tunes every registered mechanism's knobs under the
    /// budgets, drops candidates that violate a budget or structural
    /// requirement, validates the survivors end to end (descriptor bytes
    /// round-trip + registry instantiation), and returns them ranked by
    /// predicted σ² ascending (ties: decode cost, then kind code).
    ///
    /// An empty vector means no registered mechanism fits the spec —
    /// see [`Planner::best`] for the erroring variant.
    ///
    /// # Errors
    /// Any [`LdpError`] from spec validation; internal tuning errors.
    pub fn plan(&self, spec: &WorkloadSpec) -> Result<Vec<Plan>> {
        spec.validate()?;
        let mut plans = Vec::new();
        for model in self.registry.cost_models() {
            let Some(descriptor) = model.tune(spec)? else {
                continue;
            };
            let cost = model.cost(&descriptor, spec)?;
            if !cost.fits(spec) {
                continue;
            }
            // A plan is a promise: the descriptor must survive the trip
            // a deployment takes it on (serialize → ship → rebuild) and
            // must instantiate through the registry on arrival.
            let Ok(round_tripped) = ProtocolDescriptor::from_bytes(&descriptor.to_bytes()) else {
                continue;
            };
            if round_tripped != descriptor {
                continue;
            }
            if self.registry.build(&descriptor).is_err() {
                continue;
            }
            plans.push(Plan { descriptor, cost });
        }
        plans.sort_by(|a, b| {
            a.cost
                .variance
                .total_cmp(&b.cost.variance)
                .then(a.cost.decode_ops.cmp(&b.cost.decode_ops))
                .then(a.kind().code().cmp(&b.kind().code()))
        });
        Ok(plans)
    }

    /// The top-ranked plan for `spec`.
    ///
    /// # Errors
    /// [`LdpError::UnsupportedMechanism`] when no registered mechanism
    /// fits the spec's budgets and requirements; any error from
    /// [`Planner::plan`].
    pub fn best(&self, spec: &WorkloadSpec) -> Result<Plan> {
        self.plan(spec)?.into_iter().next().ok_or_else(|| {
            LdpError::UnsupportedMechanism(format!(
                "no registered mechanism fits the workload spec {spec:?}; relax a budget \
                 or requirement, or register more cost models"
            ))
        })
    }
}

/// The full workspace registry: every mechanism kind the workspace
/// ships, instantiable from a serialized descriptor and priced by its
/// cost model — the eight core oracles plus Apple CMS/HCMS and
/// Microsoft dBitFlip/1BitMean
/// (`ldp_workloads::service::workspace_registry` delegates here).
#[must_use]
pub fn workspace_registry() -> Registry {
    let mut registry = Registry::core();
    ldp_apple::register_mechanisms(&mut registry);
    ldp_microsoft::register_mechanisms(&mut registry);
    registry
}

/// A [`Planner`] over the full workspace: every mechanism kind priced
/// and instantiable.
#[must_use]
pub fn workspace_planner() -> Planner {
    Planner::new(workspace_registry())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_is_plannable() {
        let registry = workspace_registry();
        assert_eq!(registry.kinds(), MechanismKind::ALL);
        for kind in MechanismKind::ALL {
            let spec = if kind == MechanismKind::MicrosoftOneBitMean {
                WorkloadSpec::new(256, 100_000, 1.0)
                    .with_query_shape(QueryShape::Mean { max_value: 100.0 })
            } else {
                WorkloadSpec::new(256, 100_000, 1.0)
            };
            let model = registry
                .cost_model(kind)
                .expect("every kind has a cost model");
            let desc = model
                .tune(&spec)
                .unwrap()
                .unwrap_or_else(|| panic!("{kind:?} declined to tune"));
            assert_eq!(desc.kind(), kind);
            registry.build(&desc).unwrap();
            let cost = model.cost(&desc, &spec).unwrap();
            assert!(cost.variance.is_finite(), "{kind:?}: σ² {}", cost.variance);
        }
    }

    #[test]
    fn plans_are_sorted_by_predicted_variance() {
        let planner = workspace_planner();
        let plans = planner.plan(&WorkloadSpec::new(256, 100_000, 1.0)).unwrap();
        assert!(plans.len() >= 5, "expected a rich candidate set");
        for pair in plans.windows(2) {
            assert!(pair[0].cost.variance <= pair[1].cost.variance);
        }
    }

    #[test]
    fn winner_instantiates_through_the_registry() {
        let planner = workspace_planner();
        let registry = workspace_registry();
        let best = planner.best(&WorkloadSpec::new(1024, 50_000, 2.0)).unwrap();
        let mech = registry.build(&best.descriptor).unwrap();
        assert_eq!(mech.descriptor().kind(), best.kind());
    }

    #[test]
    fn subtractive_specs_get_subtractive_plans_only() {
        let planner = workspace_planner();
        let plans = planner
            .plan(&WorkloadSpec::new(128, 10_000, 1.0).with_subtractive())
            .unwrap();
        assert!(!plans.is_empty());
        assert!(plans.iter().all(|p| p.cost.subtractive));
        assert!(plans
            .iter()
            .all(|p| p.kind() != MechanismKind::SummationHistogram));
    }

    #[test]
    fn tight_budgets_filter_and_may_exhaust() {
        let planner = workspace_planner();
        // 4-byte frames: only the smallest report formats survive.
        let tiny_frames = WorkloadSpec::new(4096, 100_000, 1.0).with_report_budget(8);
        for p in planner.plan(&tiny_frames).unwrap() {
            assert!(p.cost.bytes_per_report <= 8, "{:?}", p.kind());
        }
        // An impossible combination errors out of best().
        let impossible = WorkloadSpec::new(1 << 20, 1_000_000, 1.0)
            .with_memory_budget(32)
            .with_report_budget(3);
        assert!(planner.best(&impossible).is_err());
    }

    #[test]
    fn mean_specs_route_to_onebitmean() {
        let planner = workspace_planner();
        let best = planner
            .best(
                &WorkloadSpec::new(16, 10_000, 1.0)
                    .with_query_shape(QueryShape::Mean { max_value: 100.0 }),
            )
            .unwrap();
        assert_eq!(best.kind(), MechanismKind::MicrosoftOneBitMean);
        assert_eq!(best.descriptor.max_value(), 100.0);
    }
}
