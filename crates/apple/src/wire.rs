//! Wire codecs and registry factories for the Apple mechanisms.
//!
//! * [`CmsReport`] travels as `uvarint row | uvarint m | packed sign
//!   bits` (bit set ⇔ `+1`), so an `m = 1024` report costs ~131 bytes
//!   instead of the kilobyte its in-memory `Vec<i8>` occupies.
//! * [`HcmsReport`] travels as `uvarint row | uvarint coeff | sign
//!   byte` — the three numbers the white paper's single-bit protocol
//!   actually transmits.
//!
//! [`register_mechanisms`] plugs [`CmsOracle`] and [`HcmsOracle`]
//! factories into a [`Registry`], each next to its cost model
//! (`crate::cost`), making both buildable from a [`ProtocolDescriptor`]
//! (`sketch(k, m)` + `hash_seed` + `domain_size` + `epsilon`) and
//! plannable.

use crate::cms::{CmsOracle, CmsReport};
use crate::cost::{CmsCost, HcmsCost};
use crate::hcms::{HcmsOracle, HcmsReport};
use ldp_core::protocol::{ProtocolDescriptor, Registry};
use ldp_core::wire::{
    get_packed_bits, get_sign, packed_bit, put_packed_bits, put_sign, put_uvarint, tag,
    ErasedBridge, ErasedMechanism, OracleMechanism, WireReader, WireReport,
};
use ldp_core::{LdpError, Result};

impl WireReport for CmsReport {
    const TAG: u8 = tag::APPLE_CMS;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        put_uvarint(out, self.row as u64);
        put_uvarint(out, self.bits.len() as u64);
        put_packed_bits(out, self.bits.iter().map(|&b| b > 0));
    }

    fn decode_payload(r: &mut WireReader<'_>) -> Result<Self> {
        let row = r.uvarint()?;
        let row = u32::try_from(row)
            .map_err(|_| LdpError::Malformed(format!("CMS row {row} overflows u32")))?;
        let m = r.uvarint()?;
        let m = usize::try_from(m)
            .map_err(|_| LdpError::Malformed(format!("CMS width {m} overflows usize")))?;
        let bytes = get_packed_bits(r, m)?;
        let bits = (0..m)
            .map(|i| if packed_bit(bytes, i) { 1 } else { -1 })
            .collect();
        Ok(Self { row, bits })
    }
}

impl WireReport for HcmsReport {
    const TAG: u8 = tag::APPLE_HCMS;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        put_uvarint(out, self.row as u64);
        put_uvarint(out, self.coeff as u64);
        put_sign(out, self.sign);
    }

    fn decode_payload(r: &mut WireReader<'_>) -> Result<Self> {
        let row = r.uvarint()?;
        let row = u32::try_from(row)
            .map_err(|_| LdpError::Malformed(format!("HCMS row {row} overflows u32")))?;
        let coeff = r.uvarint()?;
        let coeff = u32::try_from(coeff)
            .map_err(|_| LdpError::Malformed(format!("HCMS coeff {coeff} overflows u32")))?;
        Ok(Self {
            row,
            coeff,
            sign: get_sign(r)?,
        })
    }
}

/// Registers the Apple mechanisms (`MechanismKind::AppleCms`,
/// `MechanismKind::AppleHcms`) into `registry`: each factory with its
/// cost model. Both factories map the descriptor as: `sketch(k, m)` →
/// sketch shape, `hash_seed` → the deterministic hash-family seed
/// clients and server share, `domain_size` → the enumerable query
/// domain.
pub fn register_mechanisms(registry: &mut Registry) {
    registry.register(&CmsCost, |d| {
        build_cms(d).map(|mech| Box::new(mech) as Box<dyn ErasedMechanism>)
    });
    registry.register(&HcmsCost, |d| {
        build_hcms(d).map(|mech| Box::new(mech) as Box<dyn ErasedMechanism>)
    });
}

fn build_cms(d: &ProtocolDescriptor) -> Result<ErasedBridge<OracleMechanism<CmsOracle>>> {
    let oracle = CmsOracle::new(
        d.sketch_rows() as usize,
        d.sketch_width() as usize,
        d.epsilon_checked(),
        d.hash_seed(),
        d.domain_size(),
    );
    Ok(ErasedBridge::new(OracleMechanism(oracle), d.clone()))
}

fn build_hcms(d: &ProtocolDescriptor) -> Result<ErasedBridge<OracleMechanism<HcmsOracle>>> {
    let oracle = HcmsOracle::new(
        d.sketch_rows() as usize,
        d.sketch_width() as usize,
        d.epsilon_checked(),
        d.hash_seed(),
        d.domain_size(),
    );
    Ok(ErasedBridge::new(OracleMechanism(oracle), d.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::wire::{decode_report, encode_report_vec};

    #[test]
    fn cms_report_round_trips() {
        let report = CmsReport {
            row: 3,
            bits: (0..37).map(|i| if i % 5 == 0 { 1 } else { -1 }).collect(),
        };
        let frame = encode_report_vec(&report);
        let back: CmsReport = decode_report(&frame).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn hcms_report_round_trips() {
        for sign in [-1i8, 1] {
            let report = HcmsReport {
                row: 7,
                coeff: 1023,
                sign,
            };
            let back: HcmsReport = decode_report(&encode_report_vec(&report)).unwrap();
            assert_eq!(back, report);
        }
    }
}
