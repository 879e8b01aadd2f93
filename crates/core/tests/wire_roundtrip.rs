//! The wire-format contract for every core report type:
//! `decode_report(encode_report(r)) == r` (identity round trip) for
//! arbitrary representable reports, and decoding never panics on
//! corrupted, truncated, or wrong-version bytes — it returns
//! `LdpError`. `next_frame` splits frames, and `CohortLhReport` decodes
//! its payload, exactly as plain `WireReader` reads do, on any bytes;
//! the OLH-C cohort lane folds every stream exactly as the default
//! frame-by-frame fold does.

use ldp_core::fo::hashing::CohortLhAggregator;
use ldp_core::fo::{CohortLocalHashing, FoAggregator, FrequencyOracle};
use ldp_core::protocol::{MechanismKind, ProtocolDescriptor, Registry};
use ldp_core::snapshot::snapshot_to;
use ldp_core::wire::{
    decode_report, encode_report_vec, next_frame, tag, CohortLhMechanism, CohortLhReport, Frame,
    HrReport, WireMechanism, WireReader, WireReport, WIRE_VERSION,
};
use ldp_core::{Epsilon, LdpError, Result};
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

/// The frame header read as three `WireReader` reads, with no shortcut
/// for one-byte lengths: the reference `next_frame` must agree with.
fn reference_next_frame<'a>(buf: &'a [u8], pos: &mut usize) -> Result<Frame<'a>> {
    let mut r = WireReader::new(&buf[*pos..]);
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(LdpError::VersionMismatch {
            got: version,
            expected: WIRE_VERSION,
        });
    }
    let tag = r.u8()?;
    let len = r.uvarint()?;
    let len = usize::try_from(len)
        .map_err(|_| LdpError::Malformed(format!("payload length {len} overflows usize")))?;
    let payload = r.bytes(len)?;
    *pos = buf.len() - r.remaining();
    Ok(Frame { tag, payload })
}

/// The OLH-C payload read as two `WireReader` varints, with no shortcut
/// for one-byte fields: the reference `CohortLhReport::decode_payload`
/// must agree with. Returns the result and the bytes left unread.
fn reference_cohort_decode(payload: &[u8]) -> (Result<CohortLhReport>, usize) {
    let mut r = WireReader::new(payload);
    let mut read = || {
        let cohort = r.uvarint()?;
        let bucket = r.uvarint()?;
        let cohort = u32::try_from(cohort)
            .map_err(|_| LdpError::Malformed(format!("cohort {cohort} overflows u32")))?;
        let bucket = u32::try_from(bucket)
            .map_err(|_| LdpError::Malformed(format!("bucket {bucket} overflows u32")))?;
        Ok(CohortLhReport { cohort, bucket })
    };
    let res = read();
    (res, r.remaining())
}

/// The default stream fold with no lane, kept as the reference the
/// cohort lane must agree with: each frame split by
/// `reference_next_frame`, decoded by `reference_cohort_decode`, checked
/// for trailing bytes, then counted through `try_accumulate` into `agg`
/// and then `mirror`.
fn reference_cohort_fold(
    agg: &mut CohortLhAggregator,
    mut mirror: Option<&mut CohortLhAggregator>,
    stream: &[u8],
) -> (usize, Result<()>) {
    let mut pos = 0usize;
    let mut n = 0usize;
    while pos < stream.len() {
        let mut fold = || {
            let frame = reference_next_frame(stream, &mut pos)?;
            if frame.tag != tag::COHORT_HASH {
                return Err(LdpError::ReportTypeMismatch {
                    got: frame.tag,
                    expected: tag::COHORT_HASH,
                });
            }
            let (report, left) = reference_cohort_decode(frame.payload);
            let report = report?;
            WireReader::new(&frame.payload[frame.payload.len() - left..]).finish()?;
            agg.try_accumulate(&report)?;
            match mirror.as_deref_mut() {
                Some(m) => m.try_accumulate(&report),
                None => Ok(()),
            }
        };
        if let Err(e) = fold() {
            return (n, Err(e));
        }
        n += 1;
    }
    (n, Ok(()))
}

/// OLH-C over d = 1024 at ε = 1 (g = 4 buckets) with `cohorts` cohorts.
fn cohort_oracle(cohorts: u32) -> CohortLocalHashing {
    CohortLocalHashing::optimized_with_seed(1024, cohorts, 17, Epsilon::new(1.0).unwrap())
}

/// Folds every cut of `stream` through the cohort lane and through the
/// reference, lone and into a mirror shaped like `mirror` (the lane's
/// own shape when `None`), and asserts equal `(count, outcome)` and
/// equal aggregate and mirror state. Returns the whole stream's count.
fn assert_lane_matches_reference(
    oracle: &CohortLocalHashing,
    mirror: Option<&CohortLocalHashing>,
    stream: &[u8],
) -> usize {
    let lane = CohortLhMechanism(*oracle);
    let state = |agg: &CohortLhAggregator| {
        let mut out = Vec::new();
        snapshot_to(agg, &mut out);
        out
    };
    let mirror = mirror.unwrap_or(oracle);
    for cut in 0..=stream.len() {
        let cut_stream = &stream[..cut];
        for mirrored in [false, true] {
            let (mut agg, mut want_agg) = (oracle.new_aggregator(), oracle.new_aggregator());
            let (mut m, mut want_m) = (mirror.new_aggregator(), mirror.new_aggregator());
            let got = lane.fold_frames(&mut agg, mirrored.then_some(&mut m), cut_stream);
            let want =
                reference_cohort_fold(&mut want_agg, mirrored.then_some(&mut want_m), cut_stream);
            assert_eq!(got, want, "cut {cut}, mirrored {mirrored}: {cut_stream:?}");
            assert_eq!(state(&agg), state(&want_agg), "cut {cut}: {cut_stream:?}");
            assert_eq!(state(&m), state(&want_m), "cut {cut}: {cut_stream:?}");
        }
    }
    let mut agg = oracle.new_aggregator();
    lane.fold_frames(&mut agg, None, stream).0
}

/// One OLH-C frame, encoded as a client would (two-byte varints for
/// values from 128 up).
fn cohort_frame(cohort: u32, bucket: u32) -> Vec<u8> {
    encode_report_vec(&CohortLhReport { cohort, bucket })
}

/// Splits frames off `buf` from `start` with `next_frame` and with the
/// reference until the first error or the end of the buffer, asserting
/// equal results (the payload as the same sub-slice) and equal `pos`
/// after every call. Returns the number of frames split.
fn assert_splits_like_reference(buf: &[u8], start: usize) -> usize {
    let (mut pos, mut reference_pos) = (start, start);
    let mut frames = 0;
    loop {
        let got = next_frame(buf, &mut pos).map(|f| (f.tag, f.payload.as_ptr(), f.payload.len()));
        let want = reference_next_frame(buf, &mut reference_pos)
            .map(|f| (f.tag, f.payload.as_ptr(), f.payload.len()));
        assert_eq!(got, want, "frame {frames} from {start} in {buf:?}");
        assert_eq!(pos, reference_pos, "frame {frames} from {start} in {buf:?}");
        if got.is_err() {
            return frames;
        }
        frames += 1;
        if pos == buf.len() {
            return frames;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cohort_decode_matches_reference_on_arbitrary_payloads(
        bytes in vec(any::<u8>(), 0..24),
        one_byte_fields in any::<bool>(),
    ) {
        let mut bytes = bytes;
        if one_byte_fields {
            for b in bytes.iter_mut().take(2) {
                *b &= 0x7f;
            }
        }
        for cut in 0..=bytes.len() {
            let payload = &bytes[..cut];
            let mut r = WireReader::new(payload);
            let got = CohortLhReport::decode_payload(&mut r);
            prop_assert_eq!((got, r.remaining()), reference_cohort_decode(payload));
        }
    }

    // Arbitrary bytes with planted OLH-C frames: each word of `plan`
    // adds one piece (a frame, often at an edge of the matrix or of the
    // one-byte range, or a run of the arbitrary bytes), on a descriptor
    // with 64 or 300 cohorts and a mirror of the same or a smaller shape.
    #[test]
    fn cohort_lane_matches_reference_on_planted_streams(
        bytes in vec(any::<u8>(), 0..48),
        plan in vec(any::<u32>(), 0..12),
        wide in any::<bool>(),
        same_mirror in any::<bool>(),
    ) {
        let cohorts = if wide { 300 } else { 64 };
        let oracle = cohort_oracle(cohorts);
        let narrow = cohort_oracle(cohorts / 2);
        let g = 4;
        let mut stream = Vec::new();
        let mut rest = &bytes[..];
        for w in plan {
            let pick = |v: u32, top: u32| match v % 8 {
                0 => top - 1,
                1 => top,
                2 => 0x7f,
                3 => 0x80,
                _ => v % top,
            };
            match w % 8 {
                0..=5 => stream.extend(cohort_frame(pick(w >> 3, cohorts), pick(w >> 11, g))),
                _ => {
                    let (run, tail) = rest.split_at((w as usize >> 3) % (rest.len() + 1));
                    stream.extend_from_slice(run);
                    rest = tail;
                }
            }
        }
        let mirror = (!same_mirror).then_some(&narrow);
        assert_lane_matches_reference(&oracle, mirror, &stream);
    }

    #[test]
    fn next_frame_matches_reference_on_arbitrary_bytes(bytes in vec(any::<u8>(), 0..300)) {
        // From every start, on the raw bytes and with the version byte
        // planted there (so the header checks past it run too).
        for start in 0..=bytes.len() {
            assert_splits_like_reference(&bytes, start);
            if start < bytes.len() {
                let mut planted = bytes.clone();
                planted[start] = WIRE_VERSION;
                assert_splits_like_reference(&planted, start);
            }
        }
    }

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

/// Valid OLH-C and GRR streams (one-byte lengths) and an OUE d = 4096
/// stream (a two-byte length) split like the reference at every cut,
/// and so do a flipped version byte, a `0x80 0x00` length and a
/// 10-byte length.
#[test]
fn next_frame_matches_reference_on_cut_streams_and_bad_headers() {
    let descriptors = [
        ProtocolDescriptor::builder(MechanismKind::CohortLocalHashing)
            .domain_size(1024)
            .epsilon(2.0)
            .cohorts(64)
            .build(),
        ProtocolDescriptor::builder(MechanismKind::DirectEncoding)
            .domain_size(16)
            .epsilon(1.0)
            .build(),
        ProtocolDescriptor::builder(MechanismKind::OptimizedUnary)
            .domain_size(4096)
            .epsilon(1.0)
            .build(),
    ];
    let registry = Registry::core();
    for desc in descriptors {
        let desc = desc.unwrap();
        let mech = registry.build(&desc).unwrap();
        let values: Vec<u64> = (0..6).map(|i| (i * 5) % desc.domain_size()).collect();
        let mut stream = Vec::new();
        mech.randomize_items_to_frames(&values, 3, &mut stream)
            .unwrap();
        assert_eq!(assert_splits_like_reference(&stream, 0), values.len());
        for cut in 0..stream.len() {
            assert_splits_like_reference(&stream[..cut], 0);
        }
        let mut flipped = stream.clone();
        flipped[0] ^= 0x01;
        assert!(matches!(
            next_frame(&flipped, &mut 0),
            Err(LdpError::VersionMismatch { .. })
        ));
        assert_splits_like_reference(&flipped, 0);
    }

    // `0x80 0x00` (non-canonical), then 10-byte lengths: 2^63 (a
    // valid varint the buffer cannot hold), one overflowing u64, and
    // one whose 10th byte still continues.
    let ten_byte = |last: &[u8]| [&[0x80; 9][..], last].concat();
    let lengths = [
        vec![0x80, 0x00],
        ten_byte(&[0x01]),
        ten_byte(&[0x02]),
        ten_byte(&[0x81, 0x01]),
    ];
    for len in lengths {
        let bad = [&[WIRE_VERSION, tag::ITEM][..], &len, &[7; 4]].concat();
        let mut pos = 0;
        assert!(next_frame(&bad, &mut pos).is_err(), "{bad:?}");
        assert_eq!(pos, 0);
        for cut in 0..=bad.len() {
            assert_splits_like_reference(&bad[..cut], 0);
        }
    }
}

/// The cohort lane against the reference on fixed streams: every cut of
/// a valid client stream, then a valid prefix followed by each frame
/// the lane must hand to the default step, on descriptors with 64
/// cohorts (every frame five bytes) and 300 (two-byte cohorts from 128
/// up), lone, mirrored and into a mirror of another shape.
#[test]
fn cohort_lane_matches_reference_on_edge_frames() {
    let v = WIRE_VERSION;
    let t = tag::COHORT_HASH;
    for cohorts in [64u32, 300] {
        let oracle = cohort_oracle(cohorts);
        let narrow = cohort_oracle(cohorts / 2);
        let desc = ProtocolDescriptor::builder(MechanismKind::CohortLocalHashing)
            .domain_size(1024)
            .epsilon(1.0)
            .cohorts(cohorts)
            .hash_seed(17)
            .build()
            .unwrap();
        let mech = Registry::core().build(&desc).unwrap();
        let values: Vec<u64> = (0..40).map(|i| i * 31 % 1024).collect();
        let mut valid = Vec::new();
        mech.randomize_items_to_frames(&values, 5, &mut valid)
            .unwrap();
        assert_eq!(
            assert_lane_matches_reference(&oracle, None, &valid),
            values.len()
        );
        assert_lane_matches_reference(&oracle, Some(&narrow), &valid);

        let prefix = [cohort_frame(0, 0), cohort_frame(cohorts - 1, 3)].concat();
        let edges = [
            cohort_frame(cohorts, 0),
            cohort_frame(0, 4),
            cohort_frame(cohorts / 2, 1),
            cohort_frame(127, 3),
            cohort_frame(128, 0),
            vec![v, t, 3, 1, 2, 0],
            vec![v, t, 3, 0x80, 0x00, 1],
            vec![v, tag::ITEM, 2, 1, 2],
            vec![v ^ 1, t, 2, 1, 2],
            vec![v, t, 1, 1],
        ];
        for edge in edges {
            let stream = [&prefix[..], &edge, &cohort_frame(1, 1)].concat();
            assert_lane_matches_reference(&oracle, None, &stream);
            assert_lane_matches_reference(&oracle, Some(&narrow), &stream);
        }
    }
}
