//! Cost-model entries for the Microsoft telemetry mechanisms,
//! registered into [`CostBook`] alongside the Apple and core entries.
//!
//! Variance delegates to the mechanisms' own published formulas —
//! [`DBitFlip::count_variance`] (the `(k/d)²`-scaled covered-bucket
//! bound) and [`OneBitMean::worst_case_variance`] — keeping one source
//! of truth per mechanism. The dBitFlip knob is bits-per-device `b`:
//! more bits per report means more coverage per bucket (variance falls
//! as `1/b`) at the price of a bigger frame, so the tuner takes the
//! most bits the report budget allows. 1BitMean is the only entry that
//! answers [`QueryShape::Mean`] — and the only shape it answers.

use crate::dbitflip::DBitFlip;
use crate::onebit::OneBitMean;
use ldp_core::cost::{
    frame_bytes, uvarint_len, CostBook, CostEstimate, CostModel, QueryShape, WorkloadSpec,
    STATE_OVERHEAD_BYTES,
};
use ldp_core::protocol::{MechanismKind, ProtocolDescriptor};
use ldp_core::{LdpError, Result};

/// Most bits per device the tuner reaches for when budgets allow —
/// beyond this the variance gains flatten while frames keep growing.
const MAX_BITS_PER_DEVICE: u64 = 64;

/// Registers the Microsoft cost entries (dBitFlip, 1BitMean).
pub fn register_cost_models(book: &mut CostBook) {
    book.register(DBitFlipCost);
    book.register(OneBitMeanCost);
}

/// dBitFlip payload upper bound: bit count varint, then per covered
/// bucket a delta varint (bounded by the absolute index width) plus a
/// packed bit.
fn dbit_payload(b: u64, buckets: u64) -> u64 {
    uvarint_len(b) + b.saturating_mul(uvarint_len(buckets.saturating_sub(1))) + b.div_ceil(8)
}

struct DBitFlipCost;

impl CostModel for DBitFlipCost {
    fn kind(&self) -> MechanismKind {
        MechanismKind::MicrosoftDBitFlip
    }

    fn tune(&self, spec: &WorkloadSpec) -> Result<Option<ProtocolDescriptor>> {
        spec.validate()?;
        if matches!(spec.query_shape, QueryShape::Mean { .. }) {
            return Ok(None);
        }
        if spec.domain_size > u64::from(u32::MAX) {
            return Ok(None); // bucketed telemetry tops out at u32 buckets
        }
        // Most coverage the budgets allow: variance falls as 1/b, frame
        // grows linearly in b.
        let mut b = MAX_BITS_PER_DEVICE.min(spec.domain_size);
        if let Some(budget) = spec.report_budget {
            while b > 1 && frame_bytes(dbit_payload(b, spec.domain_size)) > budget {
                b -= 1;
            }
            if frame_bytes(dbit_payload(b, spec.domain_size)) > budget {
                return Ok(None);
            }
        }
        Ok(Some(
            ProtocolDescriptor::builder(MechanismKind::MicrosoftDBitFlip)
                .domain_size(spec.domain_size)
                .epsilon(spec.epsilon)
                .bits_per_device(u32::try_from(b).expect("b <= 64"))
                .build()?,
        ))
    }

    fn cost(&self, desc: &ProtocolDescriptor, spec: &WorkloadSpec) -> Result<CostEstimate> {
        if desc.kind() != MechanismKind::MicrosoftDBitFlip {
            return Err(LdpError::InvalidParameter(format!(
                "dBitFlip cost entry asked to price a {} descriptor",
                desc.kind().name()
            )));
        }
        let buckets = desc.domain_size();
        let b = u64::from(desc.bits_per_device());
        let mech = DBitFlip::new(
            u32::try_from(buckets).map_err(|_| {
                LdpError::InvalidDescriptor(format!("dBitFlip buckets {buckets} overflow u32"))
            })?,
            desc.bits_per_device(),
            desc.epsilon_checked(),
        )?;
        let n = usize::try_from(spec.population).unwrap_or(usize::MAX);
        Ok(CostEstimate {
            variance: mech.count_variance(n),
            // ones + covered counters per bucket.
            memory_bytes: buckets * 16 + STATE_OVERHEAD_BYTES,
            bytes_per_report: frame_bytes(dbit_payload(b, buckets)),
            decode_ops: spec.queried_items(),
            subtractive: true,
        })
    }
}

struct OneBitMeanCost;

impl CostModel for OneBitMeanCost {
    fn kind(&self) -> MechanismKind {
        MechanismKind::MicrosoftOneBitMean
    }

    fn tune(&self, spec: &WorkloadSpec) -> Result<Option<ProtocolDescriptor>> {
        spec.validate()?;
        let QueryShape::Mean { max_value } = spec.query_shape else {
            return Ok(None); // a mean mechanism answers mean queries only
        };
        Ok(Some(
            ProtocolDescriptor::builder(MechanismKind::MicrosoftOneBitMean)
                .domain_size(spec.domain_size)
                .epsilon(spec.epsilon)
                .max_value(max_value)
                .build()?,
        ))
    }

    fn cost(&self, desc: &ProtocolDescriptor, spec: &WorkloadSpec) -> Result<CostEstimate> {
        if desc.kind() != MechanismKind::MicrosoftOneBitMean {
            return Err(LdpError::InvalidParameter(format!(
                "1BitMean cost entry asked to price a {} descriptor",
                desc.kind().name()
            )));
        }
        let mech = OneBitMean::new(desc.epsilon_checked(), desc.max_value())?;
        let n = usize::try_from(spec.population).unwrap_or(usize::MAX);
        Ok(CostEstimate {
            variance: mech.worst_case_variance(n),
            memory_bytes: STATE_OVERHEAD_BYTES,
            bytes_per_report: frame_bytes(1),
            decode_ops: 1,
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
    fn registers_both_mechanisms() {
        let b = book();
        assert!(b.get(MechanismKind::MicrosoftDBitFlip).is_some());
        assert!(b.get(MechanismKind::MicrosoftOneBitMean).is_some());
    }

    #[test]
    fn dbit_takes_more_bits_when_frames_allow() {
        let b = book();
        let model = b.get(MechanismKind::MicrosoftDBitFlip).unwrap();
        let roomy = WorkloadSpec::new(256, 100_000, 1.0);
        let tight = WorkloadSpec::new(256, 100_000, 1.0).with_report_budget(16);
        let d_roomy = model.tune(&roomy).unwrap().unwrap();
        let d_tight = model.tune(&tight).unwrap().unwrap();
        assert!(d_roomy.bits_per_device() > d_tight.bits_per_device());
        let c_tight = model.cost(&d_tight, &tight).unwrap();
        assert!(c_tight.bytes_per_report <= 16);
        let c_roomy = model.cost(&d_roomy, &roomy).unwrap();
        assert!(c_roomy.variance < c_tight.variance, "more bits, less noise");
    }

    #[test]
    fn dbit_variance_delegates_to_mechanism() {
        let b = book();
        let model = b.get(MechanismKind::MicrosoftDBitFlip).unwrap();
        let spec = WorkloadSpec::new(128, 20_000, 1.0);
        let desc = model.tune(&spec).unwrap().unwrap();
        let cost = model.cost(&desc, &spec).unwrap();
        let mech = DBitFlip::new(128, desc.bits_per_device(), desc.epsilon_checked()).unwrap();
        assert_eq!(cost.variance, mech.count_variance(20_000));
    }

    #[test]
    fn onebit_serves_only_mean_queries() {
        let b = book();
        let model = b.get(MechanismKind::MicrosoftOneBitMean).unwrap();
        assert!(model
            .tune(&WorkloadSpec::new(64, 1000, 1.0))
            .unwrap()
            .is_none());
        let mean =
            WorkloadSpec::new(64, 1000, 1.0).with_query_shape(QueryShape::Mean { max_value: 10.0 });
        let desc = model.tune(&mean).unwrap().unwrap();
        assert_eq!(desc.max_value(), 10.0);
        let cost = model.cost(&desc, &mean).unwrap();
        let mech = OneBitMean::new(desc.epsilon_checked(), 10.0).unwrap();
        assert_eq!(cost.variance, mech.worst_case_variance(1000));
        assert!(cost.bytes_per_report <= 4);
    }
}
