//! Wire codecs and registry factories for the Microsoft mechanisms.
//!
//! * [`DBitReport`] travels as `uvarint d | d delta-varint bucket ids |
//!   packed bits` — the bucket list is sorted ascending, so
//!   delta-encoding keeps a `d = 16` report around 20 bytes even over
//!   `k = 2²⁰` buckets.
//! * 1BitMean's report is a single `bool`; its codec
//!   (`ldp_core::wire::tag::BIT`) lives in `ldp-core`.
//!
//! [`register_mechanisms`] plugs [`DBitFlip`] (as a frequency oracle)
//! and [`OneBitMean`] (as a real-input [`WireMechanism`]) into a
//! [`Registry`], each next to its cost model (`crate::cost`):
//! `domain_size` → bucket count, `bits_per_device` → `d`, `max_value` →
//! the 1BitMean input bound.

use crate::cost::{DBitFlipCost, OneBitMeanCost};
use crate::dbitflip::{DBitFlip, DBitReport};
use crate::onebit::OneBitMean;
use ldp_core::protocol::Registry;
use ldp_core::wire::{
    get_packed_bits, packed_bit, put_packed_bits, put_uvarint, tag, ErasedBridge, ErasedMechanism,
    OracleMechanism, WireMechanism, WireReader, WireReport,
};
use ldp_core::{LdpError, Result};
use rand::RngCore;

impl WireReport for DBitReport {
    const TAG: u8 = tag::MS_DBIT;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        put_uvarint(out, self.buckets.len() as u64);
        // Buckets are sorted ascending: delta-encode (first is absolute).
        let mut prev = 0u64;
        for (i, &j) in self.buckets.iter().enumerate() {
            let j = j as u64;
            put_uvarint(out, if i == 0 { j } else { j - prev });
            prev = j;
        }
        put_packed_bits(out, self.bits.iter().copied());
    }

    fn decode_payload(r: &mut WireReader<'_>) -> Result<Self> {
        let d = r.uvarint()?;
        let d = usize::try_from(d)
            .map_err(|_| LdpError::Malformed(format!("bit count {d} overflows usize")))?;
        // Each bucket delta is at least one byte; bound the allocation.
        if r.remaining() < d {
            return Err(LdpError::Truncated {
                needed: d,
                available: r.remaining(),
            });
        }
        let mut buckets = Vec::with_capacity(d);
        let mut prev = 0u64;
        for i in 0..d {
            let delta = r.uvarint()?;
            let j = if i == 0 {
                delta
            } else {
                prev.checked_add(delta)
                    .filter(|_| delta > 0)
                    .ok_or_else(|| {
                        LdpError::Malformed("bucket list not strictly ascending".into())
                    })?
            };
            let bucket = u32::try_from(j)
                .map_err(|_| LdpError::Malformed(format!("bucket {j} overflows u32")))?;
            buckets.push(bucket);
            prev = j;
        }
        let bytes = get_packed_bits(r, d)?;
        let bits = (0..d).map(|i| packed_bit(bytes, i)).collect();
        Ok(Self { buckets, bits })
    }
}

/// 1BitMean as a wire mechanism: real-valued input in `[0, max]`, one
/// privatized bit out. The scalar path is the mechanism's only path
/// (`accumulate_batch` is the same `gen_bool` per input), so the byte
/// path is trivially RNG-stream-identical to the fused engine.
impl WireMechanism for OneBitMean {
    fn try_randomize_input<R: RngCore + ?Sized>(&self, input: &f64, rng: &mut R) -> Result<bool> {
        if !(0.0..=self.max_value()).contains(input) {
            return Err(LdpError::InvalidParameter(format!(
                "1BitMean input {input} outside [0, {}]",
                self.max_value()
            )));
        }
        Ok(self.randomize(*input, rng))
    }
}

/// Registers the Microsoft mechanisms
/// (`MechanismKind::MicrosoftDBitFlip`,
/// `MechanismKind::MicrosoftOneBitMean`) into `registry`: each factory
/// with its cost model.
pub fn register_mechanisms(registry: &mut Registry) {
    registry.register(&DBitFlipCost, |d| {
        let mech = DBitFlip::new(
            d.domain_size() as u32,
            d.bits_per_device(),
            d.epsilon_checked(),
        )?;
        Ok(
            Box::new(ErasedBridge::new(OracleMechanism(mech), d.clone()))
                as Box<dyn ErasedMechanism>,
        )
    });
    registry.register(&OneBitMeanCost, |d| {
        let mech = OneBitMean::new(d.epsilon_checked(), d.max_value())?;
        Ok(Box::new(ErasedBridge::new(mech, d.clone())) as Box<dyn ErasedMechanism>)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::wire::{decode_report, encode_report_vec};

    #[test]
    fn dbit_report_round_trips() {
        let report = DBitReport {
            buckets: vec![0, 5, 6, 900, 1023],
            bits: vec![true, false, false, true, true],
        };
        let back: DBitReport = decode_report(&encode_report_vec(&report)).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn dbit_decode_rejects_unsorted_buckets() {
        let report = DBitReport {
            buckets: vec![5, 5],
            bits: vec![true, false],
        };
        // A zero delta after the first bucket encodes a duplicate — the
        // decoder must reject it rather than round-tripping silently.
        let frame = encode_report_vec(&report);
        assert!(decode_report::<DBitReport>(&frame).is_err());
    }
}
