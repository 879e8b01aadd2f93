//! Cost-model entries for the Apple sketches, registered into
//! [`CostBook`] the same way [`crate::register_mechanisms`] plugs wire
//! factories into a `Registry`.
//!
//! Variance numbers delegate to the sketches' own published formulas —
//! [`CmsProtocol::approx_count_variance`] and
//! [`HcmsProtocol::approx_count_variance`] — so the planner and the
//! estimators can never disagree. Knob tuning picks the sketch shape
//! `k×m`: width `m` drives both accuracy (variance falls monotonically
//! toward its asymptote as `m` grows) and the budgeted resources (CMS
//! frames carry `m` bits; both sketches keep `k·m` counters; HCMS
//! decodes with `k` FWHTs of size `m`), so the tuner takes the largest
//! power-of-two `m` the budgets allow, then the most rows `k` that
//! still fit.

use crate::cms::CmsProtocol;
use crate::hcms::HcmsProtocol;
use ldp_core::cost::{
    frame_bytes, uvarint_len, CostBook, CostEstimate, CostModel, QueryShape, WorkloadSpec,
    STATE_OVERHEAD_BYTES,
};
use ldp_core::protocol::{MechanismKind, ProtocolDescriptor};
use ldp_core::{LdpError, Result};

/// Widest sketch the tuner will reach for when budgets allow.
const MAX_WIDTH: u64 = 4096;
/// Most hash rows the tuner will take.
const MAX_ROWS: u64 = 16;
/// Hash seed planned descriptors carry (any fixed value works; clients
/// and server must agree, which the descriptor guarantees).
const PLANNED_SKETCH_SEED: u64 = 0x00c0_ffee_5eed_u64;

/// Registers the Apple cost entries (CMS, HCMS) into `book`.
pub fn register_cost_models(book: &mut CostBook) {
    book.register(CmsCost);
    book.register(HcmsCost);
}

/// CMS payload bytes: row varint + width varint + `m` packed bits.
fn cms_payload(k: u64, m: u64) -> u64 {
    uvarint_len(k.saturating_sub(1)) + uvarint_len(m) + m.div_ceil(8)
}

/// HCMS payload bytes: row varint + column varint + sign byte.
fn hcms_payload(k: u64, m: u64) -> u64 {
    uvarint_len(k.saturating_sub(1)) + uvarint_len(m.saturating_sub(1)) + 1
}

/// Sketch state: `k·m` eight-byte counters plus per-row totals.
fn sketch_memory(k: u64, m: u64) -> u64 {
    k * m * 8 + k * 8 + STATE_OVERHEAD_BYTES
}

/// Shared `k×m` tuner: walks `m` down from [`MAX_WIDTH`] in powers of
/// two (accuracy prefers the widest sketch), then `k` down from
/// [`MAX_ROWS`], returning the first shape within every budget.
fn tune_sketch(
    spec: &WorkloadSpec,
    payload: impl Fn(u64, u64) -> u64,
    decode: impl Fn(u64, u64) -> u64,
) -> Option<(u32, u32)> {
    let mut m = MAX_WIDTH;
    while m >= 2 {
        let frame_ok = spec
            .report_budget
            .is_none_or(|b| frame_bytes(payload(MAX_ROWS, m)) <= b);
        if frame_ok {
            let mut k = MAX_ROWS;
            while k >= 1 {
                let mem_ok = spec.memory_budget.is_none_or(|b| sketch_memory(k, m) <= b);
                let dec_ok = spec.decode_budget.is_none_or(|b| decode(k, m) <= b);
                if mem_ok && dec_ok {
                    return Some((k as u32, m as u32));
                }
                k /= 2;
            }
        }
        m /= 2;
    }
    None
}

/// `⌈log2(m)⌉` for transform decode accounting.
fn log2_ceil(m: u64) -> u64 {
    64 - m.saturating_sub(1).leading_zeros() as u64
}

/// CMS decode: `k` hash evaluations per queried item.
fn cms_decode_ops(k: u64, spec: &WorkloadSpec) -> u64 {
    k.saturating_mul(spec.queried_items())
}

/// HCMS decode: one inverse FWHT per row (`k·m·log m`), then `k` reads
/// per queried item.
fn hcms_decode_ops(k: u64, m: u64, spec: &WorkloadSpec) -> u64 {
    k.saturating_mul(m)
        .saturating_mul(log2_ceil(m))
        .saturating_add(k.saturating_mul(spec.queried_items()))
}

struct CmsCost;

impl CostModel for CmsCost {
    fn kind(&self) -> MechanismKind {
        MechanismKind::AppleCms
    }

    fn tune(&self, spec: &WorkloadSpec) -> Result<Option<ProtocolDescriptor>> {
        spec.validate()?;
        if matches!(spec.query_shape, QueryShape::Mean { .. }) {
            return Ok(None);
        }
        let Some((k, m)) = tune_sketch(spec, cms_payload, |k, _m| cms_decode_ops(k, spec)) else {
            return Ok(None);
        };
        Ok(Some(
            ProtocolDescriptor::builder(MechanismKind::AppleCms)
                .domain_size(spec.domain_size)
                .epsilon(spec.epsilon)
                .sketch(k, m)
                .hash_seed(PLANNED_SKETCH_SEED)
                .build()?,
        ))
    }

    fn cost(&self, desc: &ProtocolDescriptor, spec: &WorkloadSpec) -> Result<CostEstimate> {
        if desc.kind() != MechanismKind::AppleCms {
            return Err(LdpError::InvalidParameter(format!(
                "CMS cost entry asked to price a {} descriptor",
                desc.kind().name()
            )));
        }
        let (k, m) = (
            u64::from(desc.sketch_rows()),
            u64::from(desc.sketch_width()),
        );
        let proto = CmsProtocol::new(
            k as usize,
            m as usize,
            desc.epsilon_checked(),
            desc.hash_seed(),
        );
        let n = usize::try_from(spec.population).unwrap_or(usize::MAX);
        Ok(CostEstimate {
            variance: proto.approx_count_variance(n),
            memory_bytes: sketch_memory(k, m),
            bytes_per_report: frame_bytes(cms_payload(k, m)),
            decode_ops: cms_decode_ops(k, spec),
            subtractive: true,
        })
    }
}

struct HcmsCost;

impl CostModel for HcmsCost {
    fn kind(&self) -> MechanismKind {
        MechanismKind::AppleHcms
    }

    fn tune(&self, spec: &WorkloadSpec) -> Result<Option<ProtocolDescriptor>> {
        spec.validate()?;
        if matches!(spec.query_shape, QueryShape::Mean { .. }) {
            return Ok(None);
        }
        let Some((k, m)) = tune_sketch(spec, hcms_payload, |k, m| hcms_decode_ops(k, m, spec))
        else {
            return Ok(None);
        };
        Ok(Some(
            ProtocolDescriptor::builder(MechanismKind::AppleHcms)
                .domain_size(spec.domain_size)
                .epsilon(spec.epsilon)
                .sketch(k, m)
                .hash_seed(PLANNED_SKETCH_SEED)
                .build()?,
        ))
    }

    fn cost(&self, desc: &ProtocolDescriptor, spec: &WorkloadSpec) -> Result<CostEstimate> {
        if desc.kind() != MechanismKind::AppleHcms {
            return Err(LdpError::InvalidParameter(format!(
                "HCMS cost entry asked to price a {} descriptor",
                desc.kind().name()
            )));
        }
        let (k, m) = (
            u64::from(desc.sketch_rows()),
            u64::from(desc.sketch_width()),
        );
        let proto = HcmsProtocol::new(
            k as usize,
            m as usize,
            desc.epsilon_checked(),
            desc.hash_seed(),
        );
        let n = usize::try_from(spec.population).unwrap_or(usize::MAX);
        Ok(CostEstimate {
            variance: proto.approx_count_variance(n),
            memory_bytes: sketch_memory(k, m),
            bytes_per_report: frame_bytes(hcms_payload(k, m)),
            decode_ops: hcms_decode_ops(k, m, spec),
            subtractive: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn book() -> CostBook {
        let mut b = CostBook::empty();
        register_cost_models(&mut b);
        b
    }

    #[test]
    fn registers_both_sketches() {
        let b = book();
        assert!(b.get(MechanismKind::AppleCms).is_some());
        assert!(b.get(MechanismKind::AppleHcms).is_some());
    }

    #[test]
    fn unconstrained_tune_takes_the_widest_sketch() {
        let b = book();
        let spec = WorkloadSpec::new(1024, 100_000, 2.0);
        for kind in [MechanismKind::AppleCms, MechanismKind::AppleHcms] {
            let desc = b.get(kind).unwrap().tune(&spec).unwrap().unwrap();
            assert_eq!(u64::from(desc.sketch_width()), MAX_WIDTH);
            assert_eq!(u64::from(desc.sketch_rows()), MAX_ROWS);
            assert!(desc.sketch_width().is_power_of_two());
        }
    }

    #[test]
    fn report_budget_narrows_cms_but_not_hcms() {
        let b = book();
        // 64 bytes per frame: CMS must shrink m (frames carry m bits);
        // HCMS frames are a few bytes at any width.
        let spec = WorkloadSpec::new(1024, 100_000, 2.0).with_report_budget(64);
        let cms = b
            .get(MechanismKind::AppleCms)
            .unwrap()
            .tune(&spec)
            .unwrap()
            .unwrap();
        assert!(u64::from(cms.sketch_width()) < MAX_WIDTH);
        let cms_cost = b
            .get(MechanismKind::AppleCms)
            .unwrap()
            .cost(&cms, &spec)
            .unwrap();
        assert!(cms_cost.bytes_per_report <= 64);
        let hcms = b
            .get(MechanismKind::AppleHcms)
            .unwrap()
            .tune(&spec)
            .unwrap()
            .unwrap();
        assert_eq!(u64::from(hcms.sketch_width()), MAX_WIDTH);
    }

    #[test]
    fn memory_budget_shrinks_the_sketch() {
        let b = book();
        let spec = WorkloadSpec::new(1024, 100_000, 2.0).with_memory_budget(16 * 1024);
        for kind in [MechanismKind::AppleCms, MechanismKind::AppleHcms] {
            let model = b.get(kind).unwrap();
            let desc = model.tune(&spec).unwrap().unwrap();
            let cost = model.cost(&desc, &spec).unwrap();
            assert!(cost.memory_bytes <= 16 * 1024);
        }
    }

    #[test]
    fn variance_delegates_to_protocol_formula() {
        let b = book();
        let spec = WorkloadSpec::new(256, 50_000, 1.5);
        let desc = b
            .get(MechanismKind::AppleCms)
            .unwrap()
            .tune(&spec)
            .unwrap()
            .unwrap();
        let cost = b
            .get(MechanismKind::AppleCms)
            .unwrap()
            .cost(&desc, &spec)
            .unwrap();
        let proto = CmsProtocol::new(
            desc.sketch_rows() as usize,
            desc.sketch_width() as usize,
            desc.epsilon_checked(),
            desc.hash_seed(),
        );
        assert_eq!(cost.variance, proto.approx_count_variance(50_000));
    }

    #[test]
    fn mean_queries_are_declined() {
        let b = book();
        let spec =
            WorkloadSpec::new(64, 1000, 1.0).with_query_shape(QueryShape::Mean { max_value: 5.0 });
        for kind in [MechanismKind::AppleCms, MechanismKind::AppleHcms] {
            assert!(b.get(kind).unwrap().tune(&spec).unwrap().is_none());
        }
    }
}
