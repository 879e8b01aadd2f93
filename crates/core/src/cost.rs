//! # Cost model — the analytic book the mechanism planner optimizes over
//!
//! The tutorial's mechanisms trade accuracy, server memory, report size,
//! and decode latency against each other as `(d, n, ε)` move. Every
//! formula the planner needs already lives next to the mechanism that
//! owns it — [`FrequencyOracle::count_variance`] implementations, the
//! CMS/HCMS `approx_count_variance` approximations, the dBitFlip bucket
//! variance — and the aggregation-complexity table in `DESIGN.md`
//! documents the memory/estimate costs. This module gives all of that
//! one seam: a [`CostModel`] trait (one entry per [`MechanismKind`]) and
//! a [`CostBook`] registry mirroring [`crate::Registry`], so each crate
//! contributes its own analytic entry exactly the way it contributes its
//! wire factory:
//!
//! * [`CostBook::core`] registers the eight `ldp-core` oracles a
//!   descriptor can name (GRR, SUE, OUE, SHE, THE, OLH-C, HR, SS);
//! * `ldp_apple::register_cost_models` adds CMS and HCMS;
//! * `ldp_microsoft::register_cost_models` adds dBitFlip and 1BitMean.
//!
//! **Single source of truth:** a [`CostModel`] never restates a variance
//! formula. It *instantiates* the mechanism its descriptor describes and
//! delegates to the mechanism's own published method
//! ([`FrequencyOracle::noise_floor_variance`] here; the sketch crates
//! delegate to their `approx_count_variance`/`count_variance`). Editing a
//! mechanism's formula automatically moves the planner.
//!
//! The planner itself — knob tuning across mechanisms, budget filtering,
//! registry validation, ranking — lives in the `ldp-planner` crate; this
//! module only defines the vocabulary ([`WorkloadSpec`], [`CostEstimate`])
//! and the per-mechanism entries.

use crate::fo::{
    CohortLocalHashing, DirectEncoding, FrequencyOracle, HadamardResponse, OptimizedUnaryEncoding,
    SubsetSelection, SummationHistogramEncoding, SymmetricUnaryEncoding,
    ThresholdHistogramEncoding,
};
use crate::protocol::{MechanismKind, ProtocolDescriptor};
use crate::{Epsilon, LdpError, Result};
use std::collections::BTreeMap;

/// What the collector will be asked at estimation time. The shape moves
/// the predicted decode cost (full sweeps pay `O(d)`-and-up; point
/// queries pay per-item) and gates which mechanisms apply at all (only
/// 1BitMean answers [`QueryShape::Mean`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryShape {
    /// Estimate every count in `[0, d)` (histograms, heavy-hitter scans).
    FullDomain,
    /// Estimate `k` known items (dashboards, candidate re-scoring).
    TopK {
        /// Number of point queries per estimation round.
        k: u64,
    },
    /// Estimate the population mean of a bounded real input — the
    /// Microsoft telemetry shape, answered by 1BitMean only.
    Mean {
        /// Inputs live in `[0, max_value]`.
        max_value: f64,
    },
}

/// The workload a deployment needs served: domain, population, privacy
/// level, resource budgets, and structural requirements. This is the
/// planner's input; `None` budgets mean unconstrained.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Domain size `d` (bucket count for dBitFlip).
    pub domain_size: u64,
    /// Expected number of reports per collection round (`n`).
    pub population: u64,
    /// Per-report privacy budget ε.
    pub epsilon: f64,
    /// Server-side aggregator state budget, in bytes.
    pub memory_budget: Option<u64>,
    /// Per-report wire-frame budget, in bytes (upper bound per report).
    pub report_budget: Option<u64>,
    /// Estimation latency budget as an abstract operation count (the
    /// unit of the DESIGN.md aggregation table: counter touches /
    /// transform butterflies per estimation round).
    pub decode_budget: Option<u64>,
    /// What estimation will be asked for.
    pub query_shape: QueryShape,
    /// Require exact subtractive retirement (`FoAggregator::try_subtract`)
    /// — windowed/longitudinal deployments set this so SHE is excluded.
    pub require_subtractive: bool,
}

impl WorkloadSpec {
    /// A frequency workload over `[0, d)` with `n` reports at ε, no
    /// budgets, full-domain estimation, no structural requirements.
    #[must_use]
    pub fn new(domain_size: u64, population: u64, epsilon: f64) -> Self {
        Self {
            domain_size,
            population,
            epsilon,
            memory_budget: None,
            report_budget: None,
            decode_budget: None,
            query_shape: QueryShape::FullDomain,
            require_subtractive: false,
        }
    }

    /// Caps server aggregator state at `bytes`.
    #[must_use]
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Caps every wire frame at `bytes`.
    #[must_use]
    pub fn with_report_budget(mut self, bytes: u64) -> Self {
        self.report_budget = Some(bytes);
        self
    }

    /// Caps estimation at `ops` abstract operations per round.
    #[must_use]
    pub fn with_decode_budget(mut self, ops: u64) -> Self {
        self.decode_budget = Some(ops);
        self
    }

    /// Sets the estimation shape (default [`QueryShape::FullDomain`]).
    #[must_use]
    pub fn with_query_shape(mut self, shape: QueryShape) -> Self {
        self.query_shape = shape;
        self
    }

    /// Requires exact subtractive retirement (windowed telemetry).
    #[must_use]
    pub fn with_subtractive(mut self) -> Self {
        self.require_subtractive = true;
        self
    }

    /// Validates the spec itself (before any mechanism is consulted).
    ///
    /// # Errors
    /// [`LdpError::InvalidEpsilon`] / [`LdpError::InvalidDomain`] /
    /// [`LdpError::InvalidParameter`] on an unusable spec.
    pub fn validate(&self) -> Result<()> {
        Epsilon::new(self.epsilon)?;
        if self.domain_size < 2 {
            return Err(LdpError::InvalidDomain(format!(
                "workload domain must have at least 2 items, got {}",
                self.domain_size
            )));
        }
        if self.population == 0 {
            return Err(LdpError::InvalidParameter(
                "workload population must be at least 1".into(),
            ));
        }
        match self.query_shape {
            QueryShape::TopK { k } => {
                if k == 0 {
                    return Err(LdpError::InvalidParameter(
                        "TopK query shape needs k >= 1".into(),
                    ));
                }
            }
            QueryShape::Mean { max_value } => {
                if !(max_value.is_finite() && max_value > 0.0) {
                    return Err(LdpError::InvalidParameter(format!(
                        "Mean query shape needs a positive, finite bound, got {max_value}"
                    )));
                }
            }
            QueryShape::FullDomain => {}
        }
        Ok(())
    }

    /// Number of point estimates one estimation round performs under
    /// this spec's query shape (`d` for full-domain, `min(k, d)` for
    /// top-k, 1 for a mean).
    #[must_use]
    pub fn queried_items(&self) -> u64 {
        match self.query_shape {
            QueryShape::FullDomain => self.domain_size,
            QueryShape::TopK { k } => k.min(self.domain_size),
            QueryShape::Mean { .. } => 1,
        }
    }

    /// The checked ε (valid after [`WorkloadSpec::validate`]).
    ///
    /// # Errors
    /// [`LdpError::InvalidEpsilon`] when ε is not positive and finite.
    pub fn epsilon_checked(&self) -> Result<Epsilon> {
        Epsilon::new(self.epsilon)
    }
}

/// A mechanism's predicted resource/accuracy profile for one
/// [`WorkloadSpec`] — the planner's ranking currency.
#[derive(Debug, Clone, PartialEq)]
pub struct CostEstimate {
    /// Predicted variance of one debiased estimate: σ² of a rare item's
    /// count ([`FrequencyOracle::noise_floor_variance`]) for frequency
    /// workloads, σ² of the mean estimate for [`QueryShape::Mean`].
    pub variance: f64,
    /// Predicted server aggregator state, in bytes.
    pub memory_bytes: u64,
    /// Upper bound on one encoded wire frame, in bytes (header +
    /// length varint + payload; see `ldp_core::wire`).
    pub bytes_per_report: u64,
    /// Predicted abstract operations per estimation round under the
    /// spec's [`QueryShape`].
    pub decode_ops: u64,
    /// Whether the aggregator supports exact subtractive retirement.
    pub subtractive: bool,
}

impl CostEstimate {
    /// Whether this estimate respects every budget and structural
    /// requirement in `spec`.
    #[must_use]
    pub fn fits(&self, spec: &WorkloadSpec) -> bool {
        if !self.variance.is_finite() {
            return false;
        }
        if let Some(b) = spec.memory_budget {
            if self.memory_bytes > b {
                return false;
            }
        }
        if let Some(b) = spec.report_budget {
            if self.bytes_per_report > b {
                return false;
            }
        }
        if let Some(b) = spec.decode_budget {
            if self.decode_ops > b {
                return false;
            }
        }
        if spec.require_subtractive && !self.subtractive {
            return false;
        }
        true
    }
}

/// One mechanism's analytic cost entry: knob tuning plus descriptor
/// costing. Implementations delegate every accuracy number to the
/// mechanism's own published variance method — the entry is a seam, not
/// a second copy of the math.
pub trait CostModel: Send + Sync {
    /// The mechanism this entry describes.
    fn kind(&self) -> MechanismKind;

    /// Tunes this mechanism's integer knobs (cohorts `C`, sketch `k×m`,
    /// bits-per-device `b`, …) for `spec` by analytic minimization under
    /// the spec's budgets, returning the best candidate descriptor —
    /// or `Ok(None)` when the mechanism cannot serve the spec at all
    /// (wrong query shape, domain out of range, no knob setting fits).
    ///
    /// # Errors
    /// Any [`LdpError`] from descriptor validation (a returned
    /// descriptor has always passed `ProtocolDescriptorBuilder::build`).
    fn tune(&self, spec: &WorkloadSpec) -> Result<Option<ProtocolDescriptor>>;

    /// Prices `desc` under `spec` — predicted σ², memory, frame bytes,
    /// and decode operations.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] when `desc` is not this entry's
    /// kind; any construction error from the underlying mechanism.
    fn cost(&self, desc: &ProtocolDescriptor, spec: &WorkloadSpec) -> Result<CostEstimate>;
}

/// Maps [`MechanismKind`]s to [`CostModel`] entries — the analytic
/// mirror of [`crate::Registry`]. Crates register their entries with
/// [`CostBook::register`] exactly as they register wire factories.
pub struct CostBook {
    models: BTreeMap<u8, Box<dyn CostModel>>,
}

impl std::fmt::Debug for CostBook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CostBook")
            .field("kinds", &self.kinds())
            .finish()
    }
}

impl Default for CostBook {
    fn default() -> Self {
        Self::core()
    }
}

impl CostBook {
    /// An empty book (register everything yourself).
    #[must_use]
    pub fn empty() -> Self {
        Self {
            models: BTreeMap::new(),
        }
    }

    /// A book with every `ldp-core` frequency oracle a descriptor can
    /// name priced: GRR, SUE, OUE, SHE, THE, OLH-C, HR, SS.
    #[must_use]
    pub fn core() -> Self {
        let mut book = Self::empty();
        for kind in [
            MechanismKind::DirectEncoding,
            MechanismKind::SymmetricUnary,
            MechanismKind::OptimizedUnary,
            MechanismKind::SummationHistogram,
            MechanismKind::ThresholdHistogram,
            MechanismKind::CohortLocalHashing,
            MechanismKind::HadamardResponse,
            MechanismKind::SubsetSelection,
        ] {
            book.register(CoreOracleCost { kind });
        }
        book
    }

    /// Registers (or replaces) the entry for `model.kind()`.
    pub fn register<M: CostModel + 'static>(&mut self, model: M) {
        self.models.insert(model.kind().code(), Box::new(model));
    }

    /// The entry for `kind`, if registered.
    #[must_use]
    pub fn get(&self, kind: MechanismKind) -> Option<&dyn CostModel> {
        self.models.get(&kind.code()).map(AsRef::as_ref)
    }

    /// The registered kinds, in code order.
    #[must_use]
    pub fn kinds(&self) -> Vec<MechanismKind> {
        self.models
            .keys()
            .map(|&c| MechanismKind::from_code(c).expect("registered codes are valid"))
            .collect()
    }

    /// Iterates the registered entries in code order.
    pub fn models(&self) -> impl Iterator<Item = &dyn CostModel> {
        self.models.values().map(AsRef::as_ref)
    }
}

/// Encoded length of a LEB128 unsigned varint (see `ldp_core::wire`).
#[must_use]
pub fn uvarint_len(v: u64) -> u64 {
    (64 - v.leading_zeros() as u64).div_ceil(7).max(1)
}

/// Upper bound on a full wire frame around a `payload`-byte report:
/// version byte + tag byte + length varint + payload.
#[must_use]
pub fn frame_bytes(payload: u64) -> u64 {
    2 + uvarint_len(payload) + payload
}

/// Fixed per-aggregator struct overhead charged on every memory
/// prediction (probabilities, seeds, counters' vec headers).
pub const STATE_OVERHEAD_BYTES: u64 = 64;

/// The `ldp-core` oracle entries: one instance per core
/// [`MechanismKind`], delegating variance to the oracle's own
/// [`FrequencyOracle::noise_floor_variance`].
struct CoreOracleCost {
    kind: MechanismKind,
}

/// `⌈log2(m)⌉` as a u64 (decode-op accounting for transforms).
fn log2_ceil(m: u64) -> u64 {
    64 - m.saturating_sub(1).leading_zeros() as u64
}

impl CoreOracleCost {
    /// Largest cohort count whose `C·g` count matrix fits the memory
    /// budget — variance falls monotonically in `C`, so take every
    /// cohort the budget allows, capped by the population (cohorts with
    /// no users stop helping) and by 64× the default.
    fn tune_cohorts(spec: &WorkloadSpec, g: u64) -> Option<u32> {
        let cap = spec
            .population
            .max(1)
            .min(u64::from(crate::fo::hashing::DEFAULT_COHORTS) * 64);
        let c = match spec.memory_budget {
            None => u64::from(crate::fo::hashing::DEFAULT_COHORTS).min(cap),
            Some(budget) => {
                let fit = budget.saturating_sub(STATE_OVERHEAD_BYTES) / (g * 8).max(1);
                if fit == 0 {
                    return None;
                }
                fit.min(cap)
            }
        };
        Some(u32::try_from(c).unwrap_or(u32::MAX))
    }
}

impl CostModel for CoreOracleCost {
    fn kind(&self) -> MechanismKind {
        self.kind
    }

    fn tune(&self, spec: &WorkloadSpec) -> Result<Option<ProtocolDescriptor>> {
        spec.validate()?;
        if matches!(spec.query_shape, QueryShape::Mean { .. }) {
            return Ok(None); // frequency oracles do not answer mean queries
        }
        let kind = self.kind;
        // A structural exclusion the planner must never override: SHE's
        // float sums have no exact merge inverse.
        if spec.require_subtractive && kind == MechanismKind::SummationHistogram {
            return Ok(None);
        }
        let mut builder = ProtocolDescriptor::builder(kind)
            .domain_size(spec.domain_size)
            .epsilon(spec.epsilon);
        if kind == MechanismKind::CohortLocalHashing {
            let eps = spec.epsilon_checked()?;
            let g = CohortLocalHashing::optimized(spec.domain_size, 1, eps).g();
            let Some(cohorts) = Self::tune_cohorts(spec, g) else {
                return Ok(None);
            };
            builder = builder
                .cohorts(cohorts)
                .hash_seed(crate::fo::hashing::DEFAULT_COHORT_SEED_BASE);
        }
        Ok(Some(builder.build()?))
    }

    fn cost(&self, desc: &ProtocolDescriptor, spec: &WorkloadSpec) -> Result<CostEstimate> {
        if desc.kind() != self.kind {
            return Err(LdpError::InvalidParameter(format!(
                "cost entry for {} asked to price a {} descriptor",
                self.kind.name(),
                desc.kind().name()
            )));
        }
        let d = desc.domain_size();
        let n = spec.population;
        let nq = spec.queried_items();
        let eps = desc.epsilon_checked();
        let n_usize = usize::try_from(n).unwrap_or(usize::MAX);
        // Delegate σ² to the oracle's own formula; per-kind resource rows
        // follow the DESIGN.md aggregation table.
        let (variance, payload, memory, decode, subtractive) = match self.kind {
            MechanismKind::DirectEncoding => {
                let m = DirectEncoding::new(d, eps)?;
                let var = m.noise_floor_variance(n_usize);
                (var, uvarint_len(d - 1), d * 8, nq, true)
            }
            MechanismKind::SymmetricUnary => {
                let m = SymmetricUnaryEncoding::new(d, eps)?;
                let var = m.noise_floor_variance(n_usize);
                let payload = uvarint_len(d) + d.div_ceil(8);
                (var, payload, d * 8, nq, true)
            }
            MechanismKind::OptimizedUnary => {
                let m = OptimizedUnaryEncoding::new(d, eps)?;
                let var = m.noise_floor_variance(n_usize);
                let payload = uvarint_len(d) + d.div_ceil(8);
                (var, payload, d * 8, nq, true)
            }
            MechanismKind::SummationHistogram => {
                let m = SummationHistogramEncoding::new(d, eps)?;
                let var = m.noise_floor_variance(n_usize);
                // f64 noise sums: payload is 8 bytes per item, and the
                // float state has no exact merge inverse.
                (var, uvarint_len(d) + d * 8, d * 8, nq, false)
            }
            MechanismKind::ThresholdHistogram => {
                let m = ThresholdHistogramEncoding::new(d, eps)?;
                let var = m.noise_floor_variance(n_usize);
                let payload = uvarint_len(d) + d.div_ceil(8);
                (var, payload, d * 8, nq, true)
            }
            MechanismKind::CohortLocalHashing => {
                let m = CohortLocalHashing::optimized_with_seed(
                    d,
                    desc.cohorts(),
                    desc.hash_seed(),
                    eps,
                );
                let var = m.noise_floor_variance(n_usize);
                let c = u64::from(desc.cohorts());
                let payload = uvarint_len(c.saturating_sub(1)) + uvarint_len(m.g() - 1);
                (var, payload, c * m.g() * 8, c.saturating_mul(nq), true)
            }
            MechanismKind::HadamardResponse => {
                let m = HadamardResponse::new(d, eps);
                let var = m.noise_floor_variance(n_usize);
                let sm = m.spectrum_size();
                let payload = uvarint_len(sm - 1) + 1;
                // One inverse FWHT (m·log m) then per-item reads.
                let decode = sm.saturating_mul(log2_ceil(sm)).saturating_add(nq);
                (var, payload, sm * 8, decode, true)
            }
            MechanismKind::SubsetSelection => {
                let m = SubsetSelection::new(d, eps);
                let var = m.noise_floor_variance(n_usize);
                let payload = uvarint_len(m.k()) + m.k() * uvarint_len(d - 1);
                (var, payload, d * 8, nq, true)
            }
            other => {
                return Err(LdpError::UnsupportedMechanism(format!(
                    "no core cost entry for {}",
                    other.name()
                )))
            }
        };
        Ok(CostEstimate {
            variance,
            memory_bytes: memory.saturating_add(STATE_OVERHEAD_BYTES),
            bytes_per_report: frame_bytes(payload),
            decode_ops: decode,
            subtractive,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(d: u64, n: u64, eps: f64) -> WorkloadSpec {
        WorkloadSpec::new(d, n, eps)
    }

    #[test]
    fn core_book_covers_all_core_oracles() {
        let book = CostBook::core();
        assert_eq!(book.kinds().len(), 8);
        for kind in book.kinds() {
            assert!(book.get(kind).is_some());
        }
    }

    #[test]
    fn tuned_descriptors_build_and_price() {
        let book = CostBook::core();
        let s = spec(256, 50_000, 1.0);
        for model in book.models() {
            if let Some(desc) = model.tune(&s).unwrap() {
                assert_eq!(desc.kind(), model.kind());
                let cost = model.cost(&desc, &s).unwrap();
                assert!(cost.variance.is_finite() && cost.variance > 0.0);
                assert!(cost.memory_bytes > 0);
                assert!(cost.bytes_per_report >= 3);
                assert!(cost.decode_ops >= 1);
            }
        }
    }

    #[test]
    fn subtractive_requirement_excludes_float_state() {
        let book = CostBook::core();
        let s = spec(64, 1000, 1.0).with_subtractive();
        assert!(book
            .get(MechanismKind::SummationHistogram)
            .unwrap()
            .tune(&s)
            .unwrap()
            .is_none());
        // The count-state oracles still serve it.
        assert!(book
            .get(MechanismKind::OptimizedUnary)
            .unwrap()
            .tune(&s)
            .unwrap()
            .is_some());
    }

    #[test]
    fn cohort_tuning_respects_memory_budget() {
        let book = CostBook::core();
        let model = book.get(MechanismKind::CohortLocalHashing).unwrap();
        let tight = spec(1024, 1_000_000, 1.0).with_memory_budget(16 * 1024);
        let desc = model.tune(&tight).unwrap().expect("a small C still fits");
        let cost = model.cost(&desc, &tight).unwrap();
        assert!(
            cost.memory_bytes <= 16 * 1024,
            "memory {}",
            cost.memory_bytes
        );
        // With a roomy budget the planner takes more cohorts (lower
        // collision variance), never exceeding the budget.
        let roomy = spec(1024, 1_000_000, 1.0).with_memory_budget(4 * 1024 * 1024);
        let desc2 = model.tune(&roomy).unwrap().unwrap();
        assert!(desc2.cohorts() > desc.cohorts());
        let cost2 = model.cost(&desc2, &roomy).unwrap();
        assert!(cost2.memory_bytes <= 4 * 1024 * 1024);
        assert!(cost2.variance < cost.variance);
    }

    #[test]
    fn mean_shape_excludes_frequency_oracles() {
        let book = CostBook::core();
        let s = spec(64, 1000, 1.0).with_query_shape(QueryShape::Mean { max_value: 10.0 });
        for model in book.models() {
            assert!(model.tune(&s).unwrap().is_none());
        }
    }

    #[test]
    fn topk_shape_shrinks_decode_cost() {
        let book = CostBook::core();
        let model = book.get(MechanismKind::CohortLocalHashing).unwrap();
        let full = spec(4096, 100_000, 1.0);
        let topk = spec(4096, 100_000, 1.0).with_query_shape(QueryShape::TopK { k: 8 });
        let desc = model.tune(&full).unwrap().unwrap();
        let c_full = model.cost(&desc, &full).unwrap();
        let c_topk = model.cost(&desc, &topk).unwrap();
        assert!(c_topk.decode_ops < c_full.decode_ops);
    }

    #[test]
    fn frame_bound_matches_wire_arithmetic() {
        assert_eq!(uvarint_len(0), 1);
        assert_eq!(uvarint_len(127), 1);
        assert_eq!(uvarint_len(128), 2);
        assert_eq!(uvarint_len(u64::MAX), 10);
        assert_eq!(frame_bytes(5), 2 + 1 + 5);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        assert!(spec(1, 10, 1.0).validate().is_err());
        assert!(spec(10, 0, 1.0).validate().is_err());
        assert!(spec(10, 10, 0.0).validate().is_err());
        assert!(spec(10, 10, 1.0)
            .with_query_shape(QueryShape::TopK { k: 0 })
            .validate()
            .is_err());
        assert!(spec(10, 10, 1.0)
            .with_query_shape(QueryShape::Mean { max_value: -1.0 })
            .validate()
            .is_err());
        assert!(spec(10, 10, 1.0).validate().is_ok());
    }
}
