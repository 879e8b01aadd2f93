//! The wire-format contract for every core report type:
//! `decode_report(encode_report(r)) == r` (identity round trip) for
//! arbitrary representable reports, and decoding never panics on
//! corrupted, truncated, or wrong-version bytes — it returns
//! `LdpError`.

use ldp_core::wire::{
    decode_report, encode_report_vec, next_frame, tag, CohortLhReport, HrReport, WIRE_VERSION,
};
use ldp_core::LdpError;
use ldp_sketch::BitVec;
use proptest::collection::vec;
use proptest::prelude::*;

/// Round-trips one report and checks equality.
fn check_roundtrip<R>(report: R)
where
    R: ldp_core::wire::WireReport + PartialEq + std::fmt::Debug,
{
    let frame = encode_report_vec(&report);
    assert_eq!(frame[0], WIRE_VERSION);
    assert_eq!(frame[1], R::TAG);
    let back: R = decode_report(&frame).expect("well-formed frame decodes");
    assert_eq!(back, report);
}

/// Every truncation of a valid frame must fail cleanly, and every
/// single-byte corruption must either fail cleanly or decode to *some*
/// value — never panic. (Corruptions of payload bytes can be valid
/// alternative reports; the guarantee under test is panic-freedom plus
/// graceful errors, which `decode_report` provides by construction of
/// its `Result` API — any panic fails the test harness.)
fn check_adversarial<R>(report: &R)
where
    R: ldp_core::wire::WireReport + PartialEq + std::fmt::Debug,
{
    let frame = encode_report_vec(report);
    for cut in 0..frame.len() {
        assert!(
            decode_report::<R>(&frame[..cut]).is_err(),
            "truncation at {cut} must error"
        );
    }
    for i in 0..frame.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut bad = frame.clone();
            bad[i] ^= flip;
            let _ = decode_report::<R>(&bad); // must not panic
        }
    }
    // Wrong version byte is always rejected.
    let mut bad = frame.clone();
    bad[0] = WIRE_VERSION.wrapping_add(1);
    assert!(matches!(
        decode_report::<R>(&bad),
        Err(LdpError::VersionMismatch { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn item_report_roundtrips(v in any::<u64>()) {
        check_roundtrip(v);
        check_adversarial(&v);
    }

    #[test]
    fn bit_report_roundtrips(b in any::<bool>()) {
        check_roundtrip(b);
        check_adversarial(&b);
    }

    #[test]
    fn bitvec_report_roundtrips(bools in vec(any::<bool>(), 1..200)) {
        let bits = BitVec::from_bools(bools.iter().copied());
        check_roundtrip(bits.clone());
        check_adversarial(&bits);
    }

    #[test]
    fn real_vec_report_roundtrips(xs in vec(-1e9f64..1e9, 0..64)) {
        check_roundtrip(xs.clone());
        check_adversarial(&xs);
    }

    #[test]
    fn item_set_report_roundtrips(xs in vec(any::<u64>(), 0..64)) {
        check_roundtrip(xs.clone());
        check_adversarial(&xs);
    }

    #[test]
    fn cohort_report_roundtrips(cohort in any::<u32>(), bucket in any::<u32>()) {
        let r = CohortLhReport { cohort, bucket };
        check_roundtrip(r);
        check_adversarial(&r);
    }

    #[test]
    fn hr_report_roundtrips(index in any::<u64>(), flip in any::<bool>()) {
        let r = HrReport { index, sign: if flip { 1 } else { -1 } };
        check_roundtrip(r);
        check_adversarial(&r);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(bytes in vec(any::<u8>(), 0..64)) {
        // Pure fuzz: any byte soup must come back as Ok or Err.
        let _ = decode_report::<u64>(&bytes);
        let _ = decode_report::<BitVec>(&bytes);
        let _ = decode_report::<Vec<f64>>(&bytes);
        let _ = decode_report::<Vec<u64>>(&bytes);
        let _ = decode_report::<CohortLhReport>(&bytes);
        let _ = decode_report::<HrReport>(&bytes);
        let _ = decode_report::<bool>(&bytes);
        let mut pos = 0;
        let _ = next_frame(&bytes, &mut pos);
    }
}

#[test]
fn tags_are_distinct() {
    let tags = [
        tag::ITEM,
        tag::BITS,
        tag::REAL_VEC,
        tag::ITEM_SET,
        tag::COHORT_HASH,
        tag::HADAMARD,
        tag::BIT,
        tag::APPLE_CMS,
        tag::APPLE_HCMS,
        tag::MS_DBIT,
        tag::RAPPOR,
    ];
    let set: std::collections::HashSet<u8> = tags.into_iter().collect();
    assert_eq!(set.len(), tags.len(), "frame tags must be unique");
}

#[test]
fn declared_length_beyond_buffer_is_truncation_not_allocation() {
    // A frame header claiming a 2^40-byte payload over a 3-byte buffer
    // must error without trying to materialize anything.
    let mut frame = vec![WIRE_VERSION, tag::ITEM];
    ldp_core::wire::put_uvarint(&mut frame, 1 << 40);
    frame.extend_from_slice(&[1, 2, 3]);
    assert!(matches!(
        decode_report::<u64>(&frame),
        Err(LdpError::Truncated { .. })
    ));
}
