//! `ProtocolDescriptor::from_bytes` is the panic-free boundary for
//! untrusted descriptor bytes (checkpoints embed them, deployments ship
//! them). Whatever arrives, decoding never panics, and every accepted
//! input is canonical and well-behaved:
//!
//! * it re-encodes to exactly the bytes it came from, which the
//!   checkpoint `stable_hash` check relies on;
//! * the descriptor equals itself, so a service built from it can
//!   restore its own checkpoints and merge with peers built from the
//!   same bytes.
//!
//! Inputs are arbitrary byte strings plus 1–3 bit flips of a valid
//! descriptor of every kind; flips reach each field with the version
//! and kind intact often enough to exercise every validation arm.

use ldp_core::protocol::{MechanismKind, ProtocolDescriptor, DESCRIPTOR_VERSION};
use proptest::collection::vec;
use proptest::prelude::*;

/// One valid descriptor of `kind`. The input bound keeps its default
/// 1.0, whose exponent is one bit flip from the NaN/∞ range.
fn valid(kind: MechanismKind) -> ProtocolDescriptor {
    ProtocolDescriptor::builder(kind)
        .domain_size(256)
        .epsilon(1.5)
        .cohorts(1024)
        .hash_seed(0x5eed)
        .sketch(16, 1024)
        .bits_per_device(8)
        .build()
        .expect("the shared parameter set is valid for every kind")
}

/// The decode contract for one input.
fn check_decode(bytes: &[u8]) {
    let Ok(desc) = ProtocolDescriptor::from_bytes(bytes) else {
        return;
    };
    assert_eq!(desc.to_bytes(), bytes, "accepted input must be canonical");
    assert_eq!(desc.clone(), desc, "accepted descriptor must equal itself");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    fn bit_flipped_descriptors_decode_canonically(
        kind in 0usize..MechanismKind::ALL.len(),
        flips in 1usize..=3,
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
    ) {
        let mut bytes = valid(MechanismKind::ALL[kind]).to_bytes();
        let bits = bytes.len() as u64 * 8;
        for pos in [a, b, c].into_iter().take(flips) {
            let pos = pos % bits;
            bytes[(pos / 8) as usize] ^= 1 << (pos % 8);
        }
        check_decode(&bytes);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_descriptor_decoder(bytes in vec(any::<u8>(), 0..64)) {
        check_decode(&bytes);
        // Again behind the current version byte, so the soup reaches the
        // field decoders.
        let mut versioned = bytes;
        if let Some(first) = versioned.first_mut() {
            *first = DESCRIPTOR_VERSION;
        }
        check_decode(&versioned);
    }
}
