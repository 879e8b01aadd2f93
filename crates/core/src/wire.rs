//! The compact binary wire format and the type-erased collection API.
//!
//! Deployed LDP systems (RAPPOR, Apple, Microsoft) are client/server
//! protocols: millions of heterogeneous clients send *serialized*
//! randomized reports to a collector that knows the protocol only from a
//! versioned configuration. This module is that seam for the workspace:
//!
//! * **Frames** — every report crosses the wire as one self-delimiting
//!   frame: `[version: u8] [tag: u8] [payload_len: uvarint] [payload]`.
//!   Multi-byte integers inside payloads are **little-endian**; lengths
//!   and small integers are LEB128 varints ([`put_uvarint`]). The tag
//!   names the report type ([`tag`]), so a collector can reject frames
//!   for the wrong mechanism without attempting a parse.
//! * **[`WireReport`]** — the per-report-type codec:
//!   [`encode_report`] / [`decode_report`] round-trip every report type
//!   a descriptor can name (`u64`, [`BitVec`], `Vec<f64>`, `Vec<u64>`,
//!   [`CohortLhReport`], [`HrReport`], `bool` here; CMS/HCMS, dBitFlip,
//!   and RAPPOR reports in their own crates). Raw BLH/OLH reports have
//!   no codec: those oracles run in-process only.
//!   Decoding is **panic-free**: malformed, truncated, or wrong-version
//!   bytes come back as [`LdpError`], never as a panic or an
//!   out-of-bounds index.
//! * **[`ErasedMechanism`] / [`ErasedAggregator`]** — the object-safe
//!   face of [`BatchMechanism`]: typed inputs to frames on the client;
//!   frame streams folded in ([`ErasedMechanism::accumulate_concat`]),
//!   merge, and estimate on the server, all behind `dyn` so one
//!   collector service can host any mechanism a
//!   [`crate::protocol::Registry`] instantiates at runtime. The
//!   [`ErasedBridge`] blanket implementation adapts any
//!   [`WireMechanism`] (a [`BatchMechanism`] whose reports have a wire
//!   codec and whose stream fold, [`WireMechanism::fold_frames`], is
//!   chosen by its type), so dynamic dispatch reuses the same
//!   aggregators, merge paths, and estimate code the fused generic
//!   engine drives — the byte path is bit-identical to the generic path
//!   for a given RNG seed (enforced by `tests/service_dispatch.rs` at
//!   the workspace root).
//!
//! The scalar-vs-batch bit-identity contract of
//! [`crate::fo::FrequencyOracle`] is what makes this work: a client that
//! randomizes scalar reports, encodes, and ships bytes produces exactly
//! the aggregator state of the fused in-process path, because both
//! consume the same RNG stream and fold into the same counters.

use crate::fo::hashing::CohortLhAggregator;
use crate::fo::{
    CohortLocalHashing, FoAggregator, FrequencyOracle, PackedOnes, SetBitSampler, PACKED_BATCH,
};
use crate::mech::BatchMechanism;
use crate::protocol::ProtocolDescriptor;
use crate::{LdpError, Result};
use ldp_sketch::BitVec;
use rand::{RngCore, SeedableRng};
use std::any::Any;

pub use crate::fo::hadamard::HrReport;
pub use crate::fo::hashing::CohortLhReport;

/// The wire-format version this build encodes and accepts.
pub const WIRE_VERSION: u8 = 1;

/// Report-type tags carried in byte 1 of every frame.
///
/// Tags are a workspace-wide registry: core report types use `1..=15`,
/// Apple `16..=23`, Microsoft `24..=31`, RAPPOR `32..=39`. Downstream
/// crates implementing [`WireReport`] for their own report types must
/// pick an unused tag.
pub mod tag {
    /// `u64` item report (direct encoding / GRR).
    pub const ITEM: u8 = 1;
    /// [`ldp_sketch::BitVec`] report (SUE, OUE, THE).
    pub const BITS: u8 = 2;
    /// `Vec<f64>` report (SHE).
    pub const REAL_VEC: u8 = 3;
    /// `Vec<u64>` report (subset selection).
    pub const ITEM_SET: u8 = 4;
    // 5 named the raw BLH/OLH report, retired with its codec; never
    // reuse it.
    /// [`super::CohortLhReport`] (cohort OLH).
    pub const COHORT_HASH: u8 = 6;
    /// [`super::HrReport`] (Hadamard response).
    pub const HADAMARD: u8 = 7;
    /// `bool` report (Microsoft 1BitMean).
    pub const BIT: u8 = 8;
    /// Apple CMS report (`ldp_apple::cms::CmsReport`).
    pub const APPLE_CMS: u8 = 16;
    /// Apple HCMS report (`ldp_apple::hcms::HcmsReport`).
    pub const APPLE_HCMS: u8 = 17;
    /// Microsoft dBitFlip report (`ldp_microsoft::DBitReport`).
    pub const MS_DBIT: u8 = 24;
    /// RAPPOR report (`ldp_rappor::RapporReport`).
    pub const RAPPOR: u8 = 32;
}

// ---------------------------------------------------------------------
// Byte-level primitives.
// ---------------------------------------------------------------------

/// Appends a LEB128 unsigned varint (1–10 bytes).
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Encodes a LEB128 unsigned varint into a stack array, returning the
/// buffer and the encoded length — for hot paths that splice a varint
/// into a larger frame without touching the heap ([`put_uvarint`] is the
/// `Vec` flavor of the same encoding).
#[must_use]
pub fn uvarint_array(mut v: u64) -> ([u8; 10], usize) {
    let mut buf = [0u8; 10];
    let mut n = 0usize;
    while v >= 0x80 {
        buf[n] = (v as u8) | 0x80;
        v >>= 7;
        n += 1;
    }
    buf[n] = v as u8;
    (buf, n + 1)
}

/// Appends a `u64` as 8 little-endian bytes.
pub fn put_u64_le(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as 8 little-endian IEEE-754 bytes.
pub fn put_f64_le(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked cursor over one payload slice. Every read returns
/// [`LdpError::Truncated`] instead of panicking when bytes run out.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wraps a payload slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(LdpError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian `u64`.
    pub fn u64_le(&mut self) -> Result<u64> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads a little-endian `f64`.
    pub fn f64_le(&mut self) -> Result<f64> {
        let b = self.bytes(8)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads a LEB128 unsigned varint, rejecting non-canonical or
    /// overlong encodings.
    pub fn uvarint(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            let chunk = (b & 0x7f) as u64;
            // The 10th byte (shift 63) may only carry bit 0.
            if shift == 63 && chunk > 1 {
                return Err(LdpError::Malformed("varint overflows u64".into()));
            }
            v |= chunk << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift != 0 {
                    return Err(LdpError::Malformed("non-canonical varint".into()));
                }
                return Ok(v);
            }
        }
        Err(LdpError::Malformed("varint longer than 10 bytes".into()))
    }

    /// Requires that the payload has been fully consumed.
    pub fn finish(self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(LdpError::Malformed(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Frames.
// ---------------------------------------------------------------------

/// One decoded frame header: the report tag plus a borrowed payload.
/// (The version byte has already been validated by the time a `Frame`
/// exists.)
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    /// Report-type tag (see [`tag`]).
    pub tag: u8,
    /// The frame's payload bytes.
    pub payload: &'a [u8],
}

/// Splits the next frame off `buf` starting at `*pos`, validating the
/// version byte and the declared payload length, and advances `*pos`
/// past the frame.
///
/// A frame whose payload is under 128 bytes has a one-byte length, so
/// its three header bytes are read straight off the slice. Every other
/// header (a longer length, or one that fails a check) goes through a
/// [`WireReader`], which names the error; both reads return the same
/// result and leave `*pos` in the same place.
///
/// # Errors
/// [`LdpError::VersionMismatch`] for a foreign version byte,
/// [`LdpError::Truncated`] / [`LdpError::Malformed`] for a frame that
/// ends early or declares an impossible length.
pub fn next_frame<'a>(buf: &'a [u8], pos: &mut usize) -> Result<Frame<'a>> {
    // A length byte under 0x80 has its continuation bit clear: it is the
    // whole varint, with the value `uvarint` would read.
    if let [WIRE_VERSION, tag, len @ 0..=0x7f, rest @ ..] = &buf[*pos..] {
        if let Some(payload) = rest.get(..usize::from(*len)) {
            *pos += 3 + payload.len();
            return Ok(Frame { tag: *tag, payload });
        }
    }
    next_frame_via_reader(buf, pos)
}

/// [`next_frame`] through a [`WireReader`]: multi-byte lengths and
/// every header error. Kept out of line so that the one-byte-length
/// path stays small enough to inline into the stream folds.
#[inline(never)]
fn next_frame_via_reader<'a>(buf: &'a [u8], pos: &mut usize) -> Result<Frame<'a>> {
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

/// A report type that round-trips through the binary wire format.
///
/// The contract (property-tested in `crates/*/tests/wire_roundtrip.rs`):
/// `decode_report(encode_report(r)) == r` for every representable
/// report, and decoding never panics on arbitrary bytes.
pub trait WireReport: Sized {
    /// The frame tag identifying this report type (see [`tag`]).
    const TAG: u8;

    /// Appends the payload bytes (frame header excluded) to `out`.
    fn encode_payload(&self, out: &mut Vec<u8>);

    /// Parses the payload from `r`. Implementations must consume exactly
    /// the payload ([`decode_report`] runs the trailing-bytes check).
    fn decode_payload(r: &mut WireReader<'_>) -> Result<Self>;

    /// Parses the payload from `r` **into** an existing report, reusing
    /// its storage where the type allows — the default stream fold
    /// ([`WireMechanism::fold_frames`]) calls this once per frame with
    /// one scratch report, so fixed-width report types ([`BitVec`],
    /// `Vec<f64>`) allocate nothing per frame.
    ///
    /// On success `self` equals what [`decode_payload`](Self::decode_payload)
    /// would have returned; on error its contents are unspecified (the
    /// caller aborts the stream).
    ///
    /// # Errors
    /// As [`decode_payload`](Self::decode_payload).
    fn decode_payload_into(&mut self, r: &mut WireReader<'_>) -> Result<()> {
        *self = Self::decode_payload(r)?;
        Ok(())
    }
}

/// Appends one complete frame (`version | tag | len | payload`) for
/// `report` to `out`.
pub fn encode_report<R: WireReport>(report: &R, out: &mut Vec<u8>) {
    out.push(WIRE_VERSION);
    out.push(R::TAG);
    // Reserve a 1-byte varint for the length, encode the payload in
    // place, and widen the varint only in the rare >127-byte case — no
    // scratch allocation on the (common) small-report path.
    let len_pos = out.len();
    out.push(0);
    let payload_start = out.len();
    report.encode_payload(out);
    let len = out.len() - payload_start;
    if len < 0x80 {
        out[len_pos] = len as u8;
    } else {
        let mut var = Vec::with_capacity(10);
        put_uvarint(&mut var, len as u64);
        out.splice(len_pos..payload_start, var);
    }
}

/// Encodes one report into a fresh frame buffer.
#[must_use]
pub fn encode_report_vec<R: WireReport>(report: &R) -> Vec<u8> {
    let mut out = Vec::new();
    encode_report(report, &mut out);
    out
}

/// Decodes exactly one frame. The slice must contain the frame and
/// nothing else; the tag must match `R::TAG`.
///
/// # Errors
/// [`LdpError::VersionMismatch`], [`LdpError::ReportTypeMismatch`],
/// [`LdpError::Truncated`], or [`LdpError::Malformed`] — never a panic.
pub fn decode_report<R: WireReport>(frame: &[u8]) -> Result<R> {
    let mut pos = 0usize;
    let payload = next_payload(frame, &mut pos, R::TAG)?;
    if pos != frame.len() {
        return Err(LdpError::Malformed(format!(
            "{} trailing bytes after frame",
            frame.len() - pos
        )));
    }
    let mut r = WireReader::new(payload);
    let report = R::decode_payload(&mut r)?;
    r.finish()?;
    Ok(report)
}

/// [`next_frame`], plus the check that the frame carries report type
/// `tag`; returns the payload.
fn next_payload<'a>(buf: &'a [u8], pos: &mut usize, tag: u8) -> Result<&'a [u8]> {
    let frame = next_frame(buf, pos)?;
    if frame.tag != tag {
        return Err(LdpError::ReportTypeMismatch {
            got: frame.tag,
            expected: tag,
        });
    }
    Ok(frame.payload)
}

// ---------------------------------------------------------------------
// WireReport implementations for the core report types.
// ---------------------------------------------------------------------

impl WireReport for u64 {
    const TAG: u8 = tag::ITEM;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        put_uvarint(out, *self);
    }

    fn decode_payload(r: &mut WireReader<'_>) -> Result<Self> {
        r.uvarint()
    }
}

impl WireReport for bool {
    const TAG: u8 = tag::BIT;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode_payload(r: &mut WireReader<'_>) -> Result<Self> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(LdpError::Malformed(format!(
                "bit byte must be 0/1, got {b}"
            ))),
        }
    }
}

/// Packs a bit sequence little-endian, 8 per byte (bit `i` in byte
/// `i/8`, position `i%8`; unused bits of the final byte are zero) — the
/// shared payload shape for bit-list reports (CMS sign vectors,
/// dBitFlip bit lists). [`BitVec`] payloads use the word-level
/// [`put_bitvec`] fast path instead.
pub fn put_packed_bits<I: IntoIterator<Item = bool>>(out: &mut Vec<u8>, bits: I) {
    let mut byte = 0u8;
    let mut i = 0usize;
    for b in bits {
        byte |= u8::from(b) << (i % 8);
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
        i += 1;
    }
    if !i.is_multiple_of(8) {
        out.push(byte);
    }
}

/// Reads `n` bits written by [`put_packed_bits`], rejecting nonzero
/// padding; index the returned bytes with [`packed_bit`].
pub fn get_packed_bits<'a>(r: &mut WireReader<'a>, n: usize) -> Result<&'a [u8]> {
    let nbytes = n.div_ceil(8);
    let bytes = r.bytes(nbytes)?;
    if !n.is_multiple_of(8) && bytes[nbytes - 1] >> (n % 8) != 0 {
        return Err(LdpError::Malformed("nonzero padding bits".into()));
    }
    Ok(bytes)
}

/// Reads bit `i` of a [`put_packed_bits`] payload.
#[inline]
#[must_use]
pub fn packed_bit(bytes: &[u8], i: usize) -> bool {
    bytes[i / 8] >> (i % 8) & 1 == 1
}

/// Appends a [`BitVec`] as `uvarint bit-length` + packed little-endian
/// bytes (bit `i` lives in byte `i/8`, position `i%8`; word-at-a-time,
/// so a `d = 4096` unary report serializes as 64 word copies). Unused
/// bits of the final byte are zero; decoders reject nonzero padding.
pub fn put_bitvec(out: &mut Vec<u8>, bits: &BitVec) {
    put_uvarint(out, bits.len() as u64);
    bits.write_le_bytes(out);
}

/// Reads a [`BitVec`] written by [`put_bitvec`].
pub fn get_bitvec(r: &mut WireReader<'_>) -> Result<BitVec> {
    let len = r.uvarint()?;
    let len = usize::try_from(len)
        .map_err(|_| LdpError::Malformed(format!("bit length {len} overflows usize")))?;
    let bytes = r.bytes(len.div_ceil(8))?;
    BitVec::from_le_bytes(len, bytes)
        .ok_or_else(|| LdpError::Malformed("nonzero padding bits".into()))
}

/// Reads a [`BitVec`] written by [`put_bitvec`] into `bits`, reusing its
/// word storage when the wire bit-length matches (the steady state of a
/// single-mechanism frame stream) and reallocating only on a length
/// change.
pub fn get_bitvec_into(r: &mut WireReader<'_>, bits: &mut BitVec) -> Result<()> {
    let len = r.uvarint()?;
    let len = usize::try_from(len)
        .map_err(|_| LdpError::Malformed(format!("bit length {len} overflows usize")))?;
    let bytes = r.bytes(len.div_ceil(8))?;
    if len == bits.len() {
        if bits.copy_from_le_bytes(bytes) {
            return Ok(());
        }
        return Err(LdpError::Malformed("nonzero padding bits".into()));
    }
    *bits = BitVec::from_le_bytes(len, bytes)
        .ok_or_else(|| LdpError::Malformed("nonzero padding bits".into()))?;
    Ok(())
}

impl WireReport for BitVec {
    const TAG: u8 = tag::BITS;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        put_bitvec(out, self);
    }

    fn decode_payload(r: &mut WireReader<'_>) -> Result<Self> {
        get_bitvec(r)
    }

    fn decode_payload_into(&mut self, r: &mut WireReader<'_>) -> Result<()> {
        get_bitvec_into(r, self)
    }
}

impl WireReport for Vec<f64> {
    const TAG: u8 = tag::REAL_VEC;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        put_uvarint(out, self.len() as u64);
        for &x in self {
            put_f64_le(out, x);
        }
    }

    fn decode_payload(r: &mut WireReader<'_>) -> Result<Self> {
        let len = r.uvarint()? as usize;
        // Bound the allocation by the bytes actually present.
        if r.remaining() / 8 < len {
            return Err(LdpError::Truncated {
                needed: len * 8,
                available: r.remaining(),
            });
        }
        (0..len).map(|_| r.f64_le()).collect()
    }

    fn decode_payload_into(&mut self, r: &mut WireReader<'_>) -> Result<()> {
        let len = r.uvarint()? as usize;
        if r.remaining() / 8 < len {
            return Err(LdpError::Truncated {
                needed: len * 8,
                available: r.remaining(),
            });
        }
        self.clear();
        self.reserve(len);
        for _ in 0..len {
            self.push(r.f64_le()?);
        }
        Ok(())
    }
}

impl WireReport for Vec<u64> {
    const TAG: u8 = tag::ITEM_SET;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        put_uvarint(out, self.len() as u64);
        for &x in self {
            put_uvarint(out, x);
        }
    }

    fn decode_payload(r: &mut WireReader<'_>) -> Result<Self> {
        let len = r.uvarint()? as usize;
        // Each element is at least one byte, so this bounds the alloc.
        if r.remaining() < len {
            return Err(LdpError::Truncated {
                needed: len,
                available: r.remaining(),
            });
        }
        (0..len).map(|_| r.uvarint()).collect()
    }

    fn decode_payload_into(&mut self, r: &mut WireReader<'_>) -> Result<()> {
        let len = r.uvarint()? as usize;
        if r.remaining() < len {
            return Err(LdpError::Truncated {
                needed: len,
                available: r.remaining(),
            });
        }
        self.clear();
        self.reserve(len);
        for _ in 0..len {
            self.push(r.uvarint()?);
        }
        Ok(())
    }
}

impl WireReport for CohortLhReport {
    const TAG: u8 = tag::COHORT_HASH;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        put_uvarint(out, self.cohort as u64);
        put_uvarint(out, self.bucket as u64);
    }

    /// Reads the cohort and bucket varints. On the byte path the
    /// five-byte frame with a one-byte cohort and bucket never gets
    /// here: [`CohortLhMechanism::fold_frames`] counts it off the
    /// stream. This read serves every other OLH-C payload (two-byte
    /// cohorts of descriptors with more than 128 cohorts, and every
    /// error) and [`decode_report`].
    fn decode_payload(r: &mut WireReader<'_>) -> Result<Self> {
        let cohort = r.uvarint()?;
        let bucket = r.uvarint()?;
        let cohort = u32::try_from(cohort)
            .map_err(|_| LdpError::Malformed(format!("cohort {cohort} overflows u32")))?;
        let bucket = u32::try_from(bucket)
            .map_err(|_| LdpError::Malformed(format!("bucket {bucket} overflows u32")))?;
        Ok(Self { cohort, bucket })
    }
}

/// Encodes a `±1` sign as one byte (`0` = −1, `1` = +1).
pub fn put_sign(out: &mut Vec<u8>, sign: i8) {
    out.push(u8::from(sign > 0));
}

/// Reads a `±1` sign byte written by [`put_sign`].
pub fn get_sign(r: &mut WireReader<'_>) -> Result<i8> {
    match r.u8()? {
        0 => Ok(-1),
        1 => Ok(1),
        b => Err(LdpError::Malformed(format!(
            "sign byte must be 0/1, got {b}"
        ))),
    }
}

impl WireReport for HrReport {
    const TAG: u8 = tag::HADAMARD;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        put_uvarint(out, self.index);
        put_sign(out, self.sign);
    }

    fn decode_payload(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(Self {
            index: r.uvarint()?,
            sign: get_sign(r)?,
        })
    }
}

// ---------------------------------------------------------------------
// Client inputs.
// ---------------------------------------------------------------------

/// A client input type the erased API can hand to a mechanism: `u64`
/// items or `f64` reals, the two input shapes [`ErasedMechanism`]
/// takes.
pub trait WireInput: Sized {
    /// Views an item batch as a batch of this input type, when the two
    /// coincide (`u64` only) — what lets the erased batch path hand a
    /// `&[u64]` population straight to an item mechanism without
    /// per-element conversion.
    fn items_as_inputs(items: &[u64]) -> Option<&[Self]>;

    /// Views a real-valued batch as a batch of this input type (`f64`
    /// only).
    fn reals_as_inputs(reals: &[f64]) -> Option<&[Self]>;
}

impl WireInput for u64 {
    fn items_as_inputs(items: &[u64]) -> Option<&[Self]> {
        Some(items)
    }

    fn reals_as_inputs(_reals: &[f64]) -> Option<&[Self]> {
        None
    }
}

impl WireInput for f64 {
    fn items_as_inputs(_items: &[u64]) -> Option<&[Self]> {
        None
    }

    fn reals_as_inputs(reals: &[f64]) -> Option<&[Self]> {
        Some(reals)
    }
}

// ---------------------------------------------------------------------
// The erased mechanism API.
// ---------------------------------------------------------------------

/// The report type of a [`BatchMechanism`] (what its aggregator
/// consumes), as a shorthand for wire bounds.
pub type ReportOf<M> = <<M as BatchMechanism>::Aggregator as FoAggregator>::Report;

/// A [`BatchMechanism`] that additionally exposes the scalar client path
/// the erased bridge needs: validate one input and privatize it.
///
/// The determinism contract extends to this method: for one input, the
/// scalar randomize must consume exactly the RNG stream the fused
/// [`BatchMechanism::accumulate_batch`] consumes for that input — which
/// is what makes the byte path bit-identical to the in-process path.
pub trait WireMechanism: BatchMechanism {
    /// Validates `input` and privatizes it through the scalar path.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] (or a kindred variant) when the
    /// input is outside the mechanism's domain — never a panic.
    fn try_randomize_input(
        &self,
        input: &Self::Input,
        rng: &mut dyn RngCore,
    ) -> Result<ReportOf<Self>>;

    /// Validates a whole input batch, then privatizes it with a
    /// **monomorphized** RNG — the client-side mirror of
    /// [`BatchMechanism::accumulate_batch`], consuming the identical RNG
    /// stream, so reports produced here fold into the same aggregator
    /// state the fused path would have produced. The default loops the
    /// scalar path; oracle bridges override with the oracle's own batch
    /// sampler.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] naming the first invalid input.
    /// Reports for inputs preceding the failing one may already have
    /// reached `sink`; callers discard the partial output on error.
    fn try_randomize_batch<R: RngCore>(
        &self,
        inputs: &[Self::Input],
        rng: &mut R,
        mut sink: impl FnMut(&ReportOf<Self>),
    ) -> Result<()> {
        for v in inputs {
            sink(&self.try_randomize_input(v, rng)?);
        }
        Ok(())
    }

    /// Validates a whole input batch and appends one wire frame per
    /// report to `out` — the client's serializing batch path. The
    /// default materializes each report through
    /// [`try_randomize_batch`](Self::try_randomize_batch) and encodes
    /// it; mechanisms whose report is a deterministic function of the
    /// sampled positions ([`FusedUnaryMechanism`]) override this to
    /// randomize **directly into the frame buffer**, skipping the
    /// report materialization entirely. Overrides must produce the
    /// byte-identical frame stream for the same RNG stream.
    ///
    /// # Errors
    /// As [`try_randomize_batch`](Self::try_randomize_batch); `out` may
    /// carry frames for inputs preceding the failing one.
    fn try_randomize_frames<R: RngCore>(
        &self,
        inputs: &[Self::Input],
        rng: &mut R,
        out: &mut Vec<u8>,
    ) -> Result<()>
    where
        ReportOf<Self>: WireReport,
    {
        self.try_randomize_batch(inputs, rng, |r| encode_report(r, out))
    }

    /// Server side: folds a concatenated frame stream into `agg`, and
    /// into `mirror` when one is given, returning how many frames were
    /// folded in alongside the outcome. Each frame is parsed, validated
    /// and decoded **once**; the report then goes to every target, so a
    /// caller keeping two aggregates of one stream (a window and its
    /// running total) pays one decode per frame. The stream stops at the
    /// first bad frame; the count names the frames **already folded
    /// in** (every target keeps them). Every frame is validated before
    /// any counter moves, so a bad frame leaves no trace of itself.
    ///
    /// `mirror` must be configured like `agg` (callers check that both
    /// come from equal descriptors): then it cannot refuse a frame `agg`
    /// accepted, and the two end in the same state.
    ///
    /// The default decodes every frame into one scratch report
    /// ([`WireReport::decode_payload_into`]: no per-frame allocation for
    /// fixed-width report types) and folds it through
    /// [`FoAggregator::try_accumulate`] on each target.
    /// [`FusedUnaryMechanism`] overrides it to fold bit-vector payloads
    /// straight into the counters, eight at a time, and
    /// [`CohortLhMechanism`] to count five-byte OLH-C frames straight off
    /// the stream. Overrides must leave the state the default would.
    ///
    /// # Errors
    /// Any [`LdpError`] for a malformed or truncated frame, a foreign
    /// version or tag, or a report that does not fit the mechanism's
    /// configuration — never a panic.
    fn fold_frames(
        &self,
        agg: &mut Self::Aggregator,
        mut mirror: Option<&mut Self::Aggregator>,
        stream: &[u8],
    ) -> (usize, Result<()>)
    where
        ReportOf<Self>: WireReport,
    {
        let mut pos = 0usize;
        let mut n = 0usize;
        let mut scratch = None;
        while pos < stream.len() {
            if let Err(e) = fold_frame(agg, mirror.as_deref_mut(), stream, &mut pos, &mut scratch) {
                return (n, Err(e));
            }
            n += 1;
        }
        (n, Ok(()))
    }
}

/// One step of the default stream fold ([`WireMechanism::fold_frames`]):
/// splits the frame at `*pos` off `stream`, decodes it into `scratch`
/// (reusing the report held there) and counts it into `agg`, then into
/// `mirror`. On error `*pos` is unspecified and the caller stops.
fn fold_frame<A>(
    agg: &mut A,
    mirror: Option<&mut A>,
    stream: &[u8],
    pos: &mut usize,
    scratch: &mut Option<A::Report>,
) -> Result<()>
where
    A: FoAggregator,
    A::Report: WireReport,
{
    let mut r = WireReader::new(next_payload(stream, pos, A::Report::TAG)?);
    let report = match scratch {
        Some(s) => {
            s.decode_payload_into(&mut r)?;
            s
        }
        None => scratch.insert(A::Report::decode_payload(&mut r)?),
    };
    r.finish()?;
    agg.try_accumulate(report)?;
    match mirror {
        Some(m) => m.try_accumulate(report),
        None => Ok(()),
    }
}

/// Owns a [`FrequencyOracle`] and exposes it as a
/// [`BatchMechanism`] + [`WireMechanism`] — the by-value counterpart of
/// the `&O` blanket impl in [`crate::mech`], so an oracle can live
/// inside a `Box<dyn ErasedMechanism>`.
#[derive(Debug, Clone)]
pub struct OracleMechanism<O>(pub O);

impl<O: FrequencyOracle> BatchMechanism for OracleMechanism<O> {
    type Input = u64;
    type Aggregator = O::Aggregator;

    fn new_aggregator(&self) -> O::Aggregator {
        self.0.new_aggregator()
    }

    fn accumulate_batch<R: RngCore>(&self, inputs: &[u64], rng: &mut R, agg: &mut O::Aggregator) {
        self.0.randomize_accumulate_batch(inputs, rng, agg);
    }
}

impl<O: FrequencyOracle> WireMechanism for OracleMechanism<O> {
    fn try_randomize_input(&self, input: &u64, rng: &mut dyn RngCore) -> Result<O::Report> {
        if *input >= self.0.domain_size() {
            return Err(LdpError::InvalidParameter(format!(
                "input {input} outside domain of size {}",
                self.0.domain_size()
            )));
        }
        Ok(self.0.randomize(*input, rng))
    }

    /// Validates the whole batch up front (cheap range checks, no RNG
    /// consumed on error), then rides the oracle's monomorphized
    /// [`FrequencyOracle::randomize_batch`] — the same sampler, and
    /// therefore the same RNG stream, as the fused engine path, but with
    /// the oracle free to reuse one report buffer across the batch
    /// (serializing sinks only borrow each report).
    fn try_randomize_batch<R: RngCore>(
        &self,
        inputs: &[u64],
        rng: &mut R,
        sink: impl FnMut(&O::Report),
    ) -> Result<()> {
        let d = self.0.domain_size();
        if let Some(&bad) = inputs.iter().find(|&&v| v >= d) {
            return Err(LdpError::InvalidParameter(format!(
                "input {bad} outside domain of size {d}"
            )));
        }
        self.0.randomize_batch(inputs, rng, sink);
        Ok(())
    }
}

/// [`OracleMechanism`] for the unary report family, with the fused
/// sampler→frame writer: [`WireMechanism::try_randomize_frames`] writes
/// each sampled payload word **directly into the outgoing frame buffer**
/// as 8 little-endian bytes — no [`BitVec`] report is materialized and
/// no per-report allocation happens on the serializing client path, the
/// wire-side mirror of [`FrequencyOracle::randomize_accumulate_batch`].
///
/// All `d`-bit reports of one oracle share a frame length, so the frame
/// header (version, tag, payload-length and bit-length varints) is
/// precomputed once per batch, and the payload is the report's words in
/// index order (the last one cut to the payload's `⌈d/8⌉` bytes) —
/// byte-identical to [`encode_report`] over
/// [`FrequencyOracle::randomize`], because
/// [`SetBitSampler::sample_words`] emits exactly the materialized
/// report's words while consuming the same RNG stream.
#[derive(Debug, Clone)]
pub struct FusedUnaryMechanism<O>(pub O);

impl<O: SetBitSampler> BatchMechanism for FusedUnaryMechanism<O> {
    type Input = u64;
    type Aggregator = O::Aggregator;

    fn new_aggregator(&self) -> O::Aggregator {
        self.0.new_aggregator()
    }

    fn accumulate_batch<R: RngCore>(&self, inputs: &[u64], rng: &mut R, agg: &mut O::Aggregator) {
        self.0.randomize_accumulate_batch(inputs, rng, agg);
    }
}

impl<O: SetBitSampler> FusedUnaryMechanism<O> {
    /// Returns the first out-of-domain input as an error, without
    /// consuming any RNG — both batch paths validate up front.
    fn check_domain(&self, inputs: &[u64]) -> Result<()> {
        let d = self.0.domain_size();
        if let Some(&bad) = inputs.iter().find(|&&v| v >= d) {
            return Err(LdpError::InvalidParameter(format!(
                "input {bad} outside domain of size {d}"
            )));
        }
        Ok(())
    }
}

impl<O: SetBitSampler> WireMechanism for FusedUnaryMechanism<O> {
    fn try_randomize_input(&self, input: &u64, rng: &mut dyn RngCore) -> Result<BitVec> {
        if *input >= self.0.domain_size() {
            return Err(LdpError::InvalidParameter(format!(
                "input {input} outside domain of size {}",
                self.0.domain_size()
            )));
        }
        Ok(self.0.randomize(*input, rng))
    }

    fn try_randomize_batch<R: RngCore>(
        &self,
        inputs: &[u64],
        rng: &mut R,
        sink: impl FnMut(&BitVec),
    ) -> Result<()> {
        self.check_domain(inputs)?;
        self.0.randomize_batch(inputs, rng, sink);
        Ok(())
    }

    fn try_randomize_frames<R: RngCore>(
        &self,
        inputs: &[u64],
        rng: &mut R,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        self.check_domain(inputs)?;
        let d = self.0.domain_size() as usize;
        let nbytes = d.div_ceil(8);
        // Every frame of the batch shares this prefix: the payload is
        // `uvarint(d)` + `d` packed bits, so its length is fixed — which
        // also fixes the frame length, so the whole batch is sized once.
        let (dbuf, dlen) = uvarint_array(d as u64);
        let (lbuf, llen) = uvarint_array((dlen + nbytes) as u64);
        let mut header = vec![WIRE_VERSION, tag::BITS];
        header.extend_from_slice(&lbuf[..llen]);
        header.extend_from_slice(&dbuf[..dlen]);
        // The batch is sized once and each frame written in place, so a
        // whole word is one fixed 8-byte store: appending words to the
        // `Vec` compiles to a capacity check and a `memcpy` call per word.
        let start = out.len();
        out.resize(start + inputs.len() * (header.len() + nbytes), 0);
        let frames = out[start..].chunks_exact_mut(header.len() + nbytes);
        for (&v, frame) in inputs.iter().zip(frames) {
            let (head, payload) = frame.split_at_mut(header.len());
            head.copy_from_slice(&header);
            // Payload bytes of the last word; the words before it are whole.
            let (whole, tail) = payload.split_at_mut(8 * (d.div_ceil(64) - 1));
            self.0.sample_words(v, rng, |w, bits| {
                let bytes = bits.to_le_bytes();
                match whole.get_mut(8 * w..8 * w + 8) {
                    Some(word) => word.copy_from_slice(&bytes),
                    None => tail.copy_from_slice(&bytes[..tail.len()]),
                }
            });
        }
        Ok(())
    }

    /// The packed lane: each frame's payload bytes go straight to the
    /// counters ([`PackedOnes::accumulate_packed_batch`]), eight frames
    /// per carry-save fold on each target, with no scratch report in
    /// between.
    fn fold_frames(
        &self,
        agg: &mut O::Aggregator,
        mut mirror: Option<&mut O::Aggregator>,
        stream: &[u8],
    ) -> (usize, Result<()>) {
        let mut pos = 0usize;
        let mut n = 0usize;
        let mut pending: [(&[u8], usize); PACKED_BATCH] = [(&[], 0); PACKED_BATCH];
        let mut len = 0usize;
        while pos < stream.len() {
            match next_payload(stream, &mut pos, tag::BITS).and_then(packed_bits) {
                Ok(payload) => {
                    pending[len] = payload;
                    len += 1;
                }
                Err(e) => {
                    // The buffered frames precede the bad one.
                    let (applied, res) = fold_packed(agg, mirror, &pending[..len]);
                    return (n + applied, res.and(Err(e)));
                }
            }
            if len == PACKED_BATCH {
                let (applied, res) = fold_packed(agg, mirror.as_deref_mut(), &pending);
                n += applied;
                if res.is_err() {
                    return (n, res);
                }
                len = 0;
            }
        }
        let (applied, res) = fold_packed(agg, mirror, &pending[..len]);
        (n + applied, res)
    }
}

/// Folds buffered packed payloads into `agg`, then the prefix `agg`
/// took into `mirror`.
fn fold_packed<A: PackedOnes>(
    agg: &mut A,
    mirror: Option<&mut A>,
    payloads: &[(&[u8], usize)],
) -> (usize, Result<()>) {
    let (applied, res) = agg.accumulate_packed_batch(payloads);
    match mirror {
        Some(m) => {
            let (_, mirrored) = m.accumulate_packed_batch(&payloads[..applied]);
            (applied, mirrored.and(res))
        }
        None => (applied, res),
    }
}

/// Splits a [`BitVec`] payload ([`put_bitvec`]) into its packed bytes and
/// bit width, checking only that the bytes are all there; the width and
/// padding checks are the aggregator's.
fn packed_bits(payload: &[u8]) -> Result<(&[u8], usize)> {
    let mut r = WireReader::new(payload);
    let len = r.uvarint()?;
    let bits = usize::try_from(len)
        .map_err(|_| LdpError::Malformed(format!("bit length {len} overflows usize")))?;
    let bytes = r.bytes(bits.div_ceil(8))?;
    r.finish()?;
    Ok((bytes, bits))
}

/// [`OracleMechanism`] for OLH-C ([`CohortLocalHashing`]) with a stream
/// fold of its own, the cohort lane: a frame that is exactly
/// `[WIRE_VERSION, COHORT_HASH, 2, cohort, bucket]` with a one-byte
/// cohort and bucket (each under 128) is counted straight into the
/// `C×g` matrix of every target, with no reader, scratch report or
/// `Result` in between. Every report of a descriptor with at most 128
/// cohorts and buckets takes this frame; a two-byte cohort (more than
/// 128 cohorts) and every frame that fails a check take the default
/// fold's step for that one frame, so counts, errors and state are
/// exactly the default's. The client side is [`OracleMechanism`]'s.
#[derive(Debug, Clone)]
pub struct CohortLhMechanism(pub CohortLocalHashing);

impl BatchMechanism for CohortLhMechanism {
    type Input = u64;
    type Aggregator = CohortLhAggregator;

    fn new_aggregator(&self) -> CohortLhAggregator {
        self.0.new_aggregator()
    }

    fn accumulate_batch<R: RngCore>(
        &self,
        inputs: &[u64],
        rng: &mut R,
        agg: &mut CohortLhAggregator,
    ) {
        self.0.randomize_accumulate_batch(inputs, rng, agg);
    }
}

impl WireMechanism for CohortLhMechanism {
    fn try_randomize_input(&self, input: &u64, rng: &mut dyn RngCore) -> Result<CohortLhReport> {
        OracleMechanism(self.0).try_randomize_input(input, rng)
    }

    fn try_randomize_batch<R: RngCore>(
        &self,
        inputs: &[u64],
        rng: &mut R,
        sink: impl FnMut(&CohortLhReport),
    ) -> Result<()> {
        OracleMechanism(self.0).try_randomize_batch(inputs, rng, sink)
    }

    /// The cohort lane (see the type): the whole five-byte frame is
    /// matched in one slice pattern, and its cell is counted only when
    /// it fits `agg` and `mirror` alike; otherwise `fold_frame` takes
    /// the frame.
    fn fold_frames(
        &self,
        agg: &mut CohortLhAggregator,
        mut mirror: Option<&mut CohortLhAggregator>,
        stream: &[u8],
    ) -> (usize, Result<()>) {
        let mut pos = 0usize;
        let mut n = 0usize;
        let mut scratch = None;
        while pos < stream.len() {
            if let &[WIRE_VERSION, tag::COHORT_HASH, 2, cohort @ 0..=0x7f, bucket @ 0..=0x7f, ..] =
                &stream[pos..]
            {
                let report = CohortLhReport {
                    cohort: u32::from(cohort),
                    bucket: u32::from(bucket),
                };
                if agg.fits(&report) && mirror.as_deref().is_none_or(|m| m.fits(&report)) {
                    agg.count(&report);
                    if let Some(m) = mirror.as_deref_mut() {
                        m.count(&report);
                    }
                    pos += 5;
                    n += 1;
                    continue;
                }
            }
            if let Err(e) = fold_frame(agg, mirror.as_deref_mut(), stream, &mut pos, &mut scratch) {
                return (n, Err(e));
            }
            n += 1;
        }
        (n, Ok(()))
    }
}

/// The object-safe server-side state behind a collector: a mechanism's
/// aggregator with its concrete types erased. Obtained from
/// [`ErasedMechanism::new_erased_aggregator`]; frames are folded in
/// through [`ErasedMechanism::accumulate_concat`] (the mechanism
/// carries the codec and validation, the aggregator carries the state).
pub trait ErasedAggregator: Send {
    /// Number of reports accumulated so far.
    fn reports(&self) -> usize;

    /// Unbiased estimates over the mechanism's output domain (counts for
    /// frequency oracles, `[mean]` for mean mechanisms).
    #[must_use]
    fn estimate(&self) -> Vec<f64>;

    /// Estimates for a subset of items.
    ///
    /// # Panics
    /// Like [`FoAggregator::estimate_items`], panics if an item is
    /// outside the mechanism's domain — callers validate first (the
    /// collector service checks against its descriptor).
    #[must_use]
    fn estimate_items(&self, items: &[u64]) -> Vec<f64>;

    /// Merges another erased aggregator into this one, as if its reports
    /// had been accumulated here.
    ///
    /// # Errors
    /// [`LdpError::Malformed`] if `other` is not the same concrete
    /// aggregator type; otherwise whatever [`crate::fo::FoAggregator::merge`]
    /// refuses ([`LdpError::CounterOverflow`] for counters forged or
    /// corrupted past their range). The collector service enforces
    /// descriptor equality before calling this. All-or-nothing.
    fn merge_erased(&mut self, other: Box<dyn ErasedAggregator>) -> Result<()>;

    /// Subtracts another erased aggregator's state from this one — the
    /// exact inverse of [`merge_erased`](Self::merge_erased), borrowed
    /// rather than consumed so the retired delta survives a refusal.
    /// See [`crate::fo::FoAggregator::try_subtract`] for the contract
    /// (bit-identity for count-based states, all-or-nothing on error).
    ///
    /// # Errors
    /// [`LdpError::Malformed`] if `other` is not the same concrete
    /// aggregator type; [`LdpError::NotSubtractive`] if the state has no
    /// exact merge inverse; [`LdpError::StateMismatch`] if `other` is
    /// incompatible or not a sub-aggregate.
    fn subtract_erased(&mut self, other: &dyn ErasedAggregator) -> Result<()>;

    /// Appends the aggregator's versioned state BLOB (see
    /// [`crate::snapshot`]) to `out`.
    fn snapshot(&self, out: &mut Vec<u8>);

    /// Restores state from a BLOB previously written by
    /// [`snapshot`](Self::snapshot) on an identically configured
    /// aggregator, replacing the current counters wholesale.
    ///
    /// # Errors
    /// Any [`LdpError`] for foreign versions or tags, truncation,
    /// corruption, or a snapshot taken under different configuration —
    /// never a panic. On error the aggregator is left unchanged.
    fn restore(&mut self, bytes: &[u8]) -> Result<()>;

    /// Borrows the concrete aggregator for downcasting.
    fn as_any(&self) -> &dyn Any;

    /// Mutably borrows the concrete aggregator for downcasting.
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// Unwraps to the concrete aggregator for downcasting by value.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// The object-safe face of a mechanism: everything a collector service
/// needs behind `dyn` — typed inputs to report frames on the client
/// side, frame streams folded into an aggregator on the server side,
/// plus aggregator creation. Built from a
/// [`crate::protocol::ProtocolDescriptor`] through a
/// [`crate::protocol::Registry`].
pub trait ErasedMechanism: Send + Sync {
    /// The descriptor this instance was built from.
    fn descriptor(&self) -> &ProtocolDescriptor;

    /// The frame tag of this mechanism's report type.
    fn report_tag(&self) -> u8;

    /// Client side: privatizes one item input and appends the report's
    /// wire frame to `out`.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] for an out-of-domain value or a
    /// mechanism that does not take item inputs — never a panic.
    fn randomize_item(&self, value: u64, rng: &mut dyn RngCore, out: &mut Vec<u8>) -> Result<()>;

    /// Client side for real-valued mechanisms (1BitMean): privatizes one
    /// real input and appends the report's wire frame to `out`.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] for an out-of-range value or a
    /// mechanism that takes item inputs — never a panic.
    fn randomize_real(&self, value: f64, rng: &mut dyn RngCore, out: &mut Vec<u8>) -> Result<()>;

    /// Client batch side: privatizes a whole item population into wire
    /// frames appended to `out`, drawing from a **monomorphized**
    /// `StdRng::seed_from_u64(seed)` created inside the call — dynamic
    /// dispatch is paid once per batch instead of once per RNG draw,
    /// which is what keeps the byte path's cost within a constant factor
    /// of the fused in-process engine. For a given `seed` the frames are
    /// exactly the reports the fused engine's shard with that seed would
    /// have folded in (the scalar/batch stream contract).
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] for out-of-domain values or a
    /// mechanism that does not take item inputs; `out` may carry frames
    /// for inputs preceding the failing one — discard it on error.
    fn randomize_items_to_frames(&self, values: &[u64], seed: u64, out: &mut Vec<u8>)
        -> Result<()>;

    /// Client batch side for real-valued mechanisms (1BitMean); the
    /// monomorphized counterpart of calling [`Self::randomize_real`] per
    /// value. Same seed semantics as
    /// [`Self::randomize_items_to_frames`].
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] for out-of-range values or a
    /// mechanism that takes item inputs.
    fn randomize_reals_to_frames(&self, values: &[f64], seed: u64, out: &mut Vec<u8>)
        -> Result<()>;

    /// Creates an empty erased aggregator for this mechanism.
    #[must_use]
    fn new_erased_aggregator(&self) -> Box<dyn ErasedAggregator>;

    /// Server side: folds a concatenated frame stream (one frame or
    /// many) into `agg`, and into `mirror` when one is given, through
    /// the mechanism's [`WireMechanism::fold_frames`]: each frame is
    /// decoded once and lands in every target. Returns how many frames
    /// were ingested alongside the outcome. On error the returned count
    /// names the frames **already folded in** (the stream stops at the
    /// first bad frame; every target keeps them), so callers can
    /// account for partial batches; the bad frame itself leaves every
    /// target untouched. `mirror` must be configured like `agg` (the
    /// collector service checks that their descriptors are equal).
    ///
    /// # Errors
    /// Any [`LdpError`] for malformed/truncated frames, foreign versions
    /// or tags, reports that don't fit the mechanism's shape, or a
    /// target that belongs to a different mechanism (refused with a
    /// zero count before any counter moves) — never a panic.
    fn accumulate_concat(
        &self,
        agg: &mut dyn ErasedAggregator,
        mirror: Option<&mut dyn ErasedAggregator>,
        stream: &[u8],
    ) -> (usize, Result<()>);
}

impl std::fmt::Debug for dyn ErasedMechanism + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ErasedMechanism")
            .field("kind", &self.descriptor().kind())
            .field("report_tag", &self.report_tag())
            .finish()
    }
}

impl std::fmt::Debug for dyn ErasedAggregator + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ErasedAggregator")
            .field("reports", &self.reports())
            .finish()
    }
}

/// The blanket bridge from the generic engine to the erased API: wraps
/// any [`WireMechanism`] whose input and report types have wire codecs,
/// together with the descriptor it was built from.
///
/// Dynamic dispatch through this bridge reuses the mechanism's own
/// aggregator, merge, and estimate code — the same paths the fused
/// generic engine (`accumulate_mech_sharded`) drives — so the byte path
/// and the generic path produce bit-identical state for the same RNG
/// streams.
pub struct ErasedBridge<M: WireMechanism> {
    mech: M,
    descriptor: ProtocolDescriptor,
}

impl<M: WireMechanism> ErasedBridge<M> {
    /// Wraps `mech` with the descriptor it was instantiated from.
    pub fn new(mech: M, descriptor: ProtocolDescriptor) -> Self {
        Self { mech, descriptor }
    }

    /// The wrapped mechanism.
    pub fn mechanism(&self) -> &M {
        &self.mech
    }
}

impl<M: WireMechanism> ErasedBridge<M>
where
    M::Input: WireInput,
{
    /// `values` as this mechanism's inputs, if it takes items.
    fn items<'a>(&self, values: &'a [u64]) -> Result<&'a [M::Input]> {
        M::Input::items_as_inputs(values).ok_or_else(|| self.refuses("item"))
    }

    /// `values` as this mechanism's inputs, if it takes reals.
    fn reals<'a>(&self, values: &'a [f64]) -> Result<&'a [M::Input]> {
        M::Input::reals_as_inputs(values).ok_or_else(|| self.refuses("real-valued"))
    }

    /// The error for an input shape this mechanism does not take.
    fn refuses(&self, shape: &str) -> LdpError {
        LdpError::InvalidParameter(format!(
            "{} does not take {shape} inputs",
            self.descriptor.kind().name()
        ))
    }
}

/// The concrete aggregator behind `Box<dyn ErasedAggregator>` for a
/// bridged mechanism `M` (private: reached only through downcasts inside
/// the bridge).
struct BridgedAggregator<M: BatchMechanism> {
    agg: M::Aggregator,
}

impl<M> ErasedAggregator for BridgedAggregator<M>
where
    M: BatchMechanism + 'static,
    M::Aggregator: Send + 'static,
{
    fn reports(&self) -> usize {
        self.agg.reports()
    }

    fn estimate(&self) -> Vec<f64> {
        self.agg.estimate()
    }

    fn estimate_items(&self, items: &[u64]) -> Vec<f64> {
        self.agg.estimate_items(items)
    }

    fn merge_erased(&mut self, other: Box<dyn ErasedAggregator>) -> Result<()> {
        let other = other
            .into_any()
            .downcast::<Self>()
            .map_err(|_| LdpError::Malformed("merge: erased aggregator type mismatch".into()))?;
        self.agg.merge(other.agg)
    }

    fn subtract_erased(&mut self, other: &dyn ErasedAggregator) -> Result<()> {
        let other = other.as_any().downcast_ref::<Self>().ok_or_else(|| {
            LdpError::Malformed("subtract: erased aggregator type mismatch".into())
        })?;
        self.agg.try_subtract(&other.agg)
    }

    fn snapshot(&self, out: &mut Vec<u8>) {
        crate::snapshot::snapshot_to(&self.agg, out);
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<()> {
        crate::snapshot::restore_from(&mut self.agg, bytes)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

impl<M> ErasedMechanism for ErasedBridge<M>
where
    M: WireMechanism + Send + Sync + 'static,
    M::Input: WireInput,
    M::Aggregator: Send + 'static,
    ReportOf<M>: WireReport,
{
    fn descriptor(&self) -> &ProtocolDescriptor {
        &self.descriptor
    }

    fn report_tag(&self) -> u8 {
        <ReportOf<M> as WireReport>::TAG
    }

    fn randomize_item(&self, value: u64, rng: &mut dyn RngCore, out: &mut Vec<u8>) -> Result<()> {
        let report = self
            .mech
            .try_randomize_input(&self.items(&[value])?[0], rng)?;
        encode_report(&report, out);
        Ok(())
    }

    fn randomize_real(&self, value: f64, rng: &mut dyn RngCore, out: &mut Vec<u8>) -> Result<()> {
        let report = self
            .mech
            .try_randomize_input(&self.reals(&[value])?[0], rng)?;
        encode_report(&report, out);
        Ok(())
    }

    fn randomize_items_to_frames(
        &self,
        values: &[u64],
        seed: u64,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        self.mech
            .try_randomize_frames(self.items(values)?, &mut rng, out)
    }

    fn randomize_reals_to_frames(
        &self,
        values: &[f64],
        seed: u64,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        self.mech
            .try_randomize_frames(self.reals(values)?, &mut rng, out)
    }

    fn new_erased_aggregator(&self) -> Box<dyn ErasedAggregator> {
        Box::new(BridgedAggregator::<M> {
            agg: self.mech.new_aggregator(),
        })
    }

    fn accumulate_concat(
        &self,
        agg: &mut dyn ErasedAggregator,
        mirror: Option<&mut dyn ErasedAggregator>,
        stream: &[u8],
    ) -> (usize, Result<()>) {
        let mismatch = || {
            (
                0,
                Err(LdpError::Malformed(
                    "accumulate: erased aggregator type mismatch".into(),
                )),
            )
        };
        // Every target is downcast before any counter moves.
        let Some(slot) = agg.as_any_mut().downcast_mut::<BridgedAggregator<M>>() else {
            return mismatch();
        };
        let mirror = match mirror.map(|m| m.as_any_mut().downcast_mut::<BridgedAggregator<M>>()) {
            None => None,
            Some(Some(m)) => Some(&mut m.agg),
            Some(None) => return mismatch(),
        };
        self.mech.fold_frames(&mut slot.agg, mirror, stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fo::DirectEncoding;
    use crate::Epsilon;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uvarint_round_trips() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut r = WireReader::new(&buf);
            assert_eq!(r.uvarint().unwrap(), v);
            r.finish().unwrap();
        }
    }

    #[test]
    fn uvarint_rejects_non_canonical() {
        // 0x80 0x00 encodes 0 in two bytes — must be rejected.
        let mut r = WireReader::new(&[0x80, 0x00]);
        assert!(matches!(r.uvarint(), Err(LdpError::Malformed(_))));
        // Eleven continuation bytes overflow.
        let mut r = WireReader::new(&[0xff; 11]);
        assert!(r.uvarint().is_err());
    }

    #[test]
    fn frame_encoding_handles_long_payloads() {
        // > 127 payload bytes exercises the varint-widening path.
        let report: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let frame = encode_report_vec(&report);
        assert_eq!(frame[0], WIRE_VERSION);
        assert_eq!(frame[1], tag::REAL_VEC);
        let decoded: Vec<f64> = decode_report(&frame).unwrap();
        assert_eq!(decoded, report);
    }

    #[test]
    fn wrong_version_and_tag_reject() {
        let mut frame = encode_report_vec(&7u64);
        frame[0] = 99;
        assert!(matches!(
            decode_report::<u64>(&frame),
            Err(LdpError::VersionMismatch { got: 99, .. })
        ));
        let frame = encode_report_vec(&7u64);
        assert!(matches!(
            decode_report::<bool>(&frame),
            Err(LdpError::ReportTypeMismatch { .. })
        ));
    }

    #[test]
    fn truncation_rejects_everywhere() {
        let frame = encode_report_vec(&HrReport {
            index: 1 << 20,
            sign: -1,
        });
        for cut in 0..frame.len() {
            assert!(
                decode_report::<HrReport>(&frame[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn uvarint_array_matches_put_uvarint() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut vec_enc = Vec::new();
            put_uvarint(&mut vec_enc, v);
            let (buf, n) = uvarint_array(v);
            assert_eq!(&buf[..n], &vec_enc[..], "v={v}");
        }
    }

    #[test]
    fn decode_payload_into_matches_owned_decode() {
        // BitVec: same-width reuse and width-change fallback.
        let mut bits = BitVec::zeros(37);
        bits.set(0, true);
        bits.set(36, true);
        let frame = encode_report_vec(&bits);
        let mut scratch = BitVec::zeros(37);
        let mut pos = 0usize;
        let f = next_frame(&frame, &mut pos).unwrap();
        let mut r = WireReader::new(f.payload);
        scratch.decode_payload_into(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(scratch, bits);
        let mut narrow = BitVec::zeros(5);
        let mut r = WireReader::new(f.payload);
        narrow.decode_payload_into(&mut r).unwrap();
        assert_eq!(narrow, bits);

        // Vec<f64> and Vec<u64> reuse their storage.
        let reals = vec![1.5f64, -0.25, 3.0];
        let frame = encode_report_vec(&reals);
        let mut scratch = vec![0.0f64; 8];
        let mut pos = 0usize;
        let f = next_frame(&frame, &mut pos).unwrap();
        let mut r = WireReader::new(f.payload);
        scratch.decode_payload_into(&mut r).unwrap();
        assert_eq!(scratch, reals);

        let items = vec![3u64, 999, 0];
        let frame = encode_report_vec(&items);
        let mut scratch = vec![7u64];
        let mut pos = 0usize;
        let f = next_frame(&frame, &mut pos).unwrap();
        let mut r = WireReader::new(f.payload);
        scratch.decode_payload_into(&mut r).unwrap();
        assert_eq!(scratch, items);
    }

    /// The fused sampler→frame writer emits the byte-identical stream
    /// the materialize-then-encode default produces, across payload
    /// lengths that exercise both 1-byte and 2-byte varints, whole and
    /// partial last words, both samplers (geometric skipping below
    /// d = 64, word-parallel from there), and a sparse report (ε = 6).
    #[test]
    fn fused_unary_frames_byte_identical() {
        use crate::fo::OptimizedUnaryEncoding;
        let configs = [8u64, 37, 64, 65, 129, 1024, 1031, 4096]
            .map(|d| (d, 0.7))
            .into_iter()
            .chain([(4096, 6.0)]);
        for (d, e) in configs {
            let oue = OptimizedUnaryEncoding::new(d, Epsilon::new(e).unwrap()).unwrap();
            let values: Vec<u64> = (0..200).map(|i| i % d).collect();

            let fused = FusedUnaryMechanism(oue.clone());
            let mut fused_out = Vec::new();
            let mut rng = StdRng::seed_from_u64(99);
            fused
                .try_randomize_frames(&values, &mut rng, &mut fused_out)
                .unwrap();

            let default = OracleMechanism(oue);
            let mut default_out = Vec::new();
            let mut rng = StdRng::seed_from_u64(99);
            default
                .try_randomize_frames(&values, &mut rng, &mut default_out)
                .unwrap();

            assert_eq!(fused_out, default_out, "d={d} eps={e}");
        }
    }

    #[test]
    fn fused_unary_rejects_out_of_domain_without_output() {
        use crate::fo::OptimizedUnaryEncoding;
        let oue = OptimizedUnaryEncoding::new(16, Epsilon::new(1.0).unwrap()).unwrap();
        let fused = FusedUnaryMechanism(oue);
        let mut out = Vec::new();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(fused
            .try_randomize_frames(&[3, 16, 2], &mut rng, &mut out)
            .is_err());
        assert!(out.is_empty(), "validation precedes any output");
    }

    /// `accumulate_concat` over the whole stream folds the same state as
    /// one call per frame, and reports the partial count on a
    /// mid-stream error — for OLH-C and GRR (one-byte frame lengths) and
    /// OUE at d = 4096 (a two-byte length, through the packed lane).
    #[test]
    fn accumulate_concat_matches_frame_loop_and_counts_partials() {
        use crate::protocol::{MechanismKind, Registry};
        let descriptors = [
            ProtocolDescriptor::builder(MechanismKind::CohortLocalHashing)
                .domain_size(1024)
                .epsilon(2.0)
                .cohorts(64),
            ProtocolDescriptor::builder(MechanismKind::DirectEncoding)
                .domain_size(16)
                .epsilon(1.0),
            ProtocolDescriptor::builder(MechanismKind::OptimizedUnary)
                .domain_size(4096)
                .epsilon(1.0),
        ];
        for desc in descriptors {
            let bridge = Registry::core().build(&desc.build().unwrap()).unwrap();
            let d = bridge.descriptor().domain_size();
            let kind = bridge.descriptor().kind();

            let values: Vec<u64> = (0..50).map(|i| (i * 7) % d).collect();
            let mut stream = Vec::new();
            bridge
                .randomize_items_to_frames(&values, 7, &mut stream)
                .unwrap();

            let mut fast = bridge.new_erased_aggregator();
            let (n, res) = bridge.accumulate_concat(fast.as_mut(), None, &stream);
            res.unwrap();
            assert_eq!(n, 50, "{kind:?}");

            let mut slow = bridge.new_erased_aggregator();
            let mut pos = 0usize;
            while pos < stream.len() {
                let start = pos;
                next_frame(&stream, &mut pos).unwrap();
                let (n, res) = bridge.accumulate_concat(slow.as_mut(), None, &stream[start..pos]);
                res.unwrap();
                assert_eq!(n, 1, "{kind:?}");
            }
            assert_eq!(fast.estimate(), slow.estimate(), "{kind:?}");
            assert_eq!(fast.reports(), slow.reports(), "{kind:?}");

            // Truncate mid-frame: the count names the frames already folded.
            let cut = &stream[..stream.len() - 1];
            let mut partial = bridge.new_erased_aggregator();
            let (n, res) = bridge.accumulate_concat(partial.as_mut(), None, cut);
            assert!(res.is_err(), "{kind:?}");
            assert_eq!(n, 49, "{kind:?}");
            assert_eq!(partial.reports(), 49, "{kind:?}");
        }
    }

    /// A mirror takes exactly what the first target takes, prefix
    /// included; a mirror of another aggregator type is refused before
    /// either target moves.
    #[test]
    fn accumulate_concat_mirror_matches_and_refuses_foreign_type() {
        use crate::fo::OptimizedUnaryEncoding;
        let eps = Epsilon::new(1.0).unwrap();
        let grr = ErasedBridge::new(
            OracleMechanism(DirectEncoding::new(16, eps).unwrap()),
            ProtocolDescriptor::builder(crate::protocol::MechanismKind::DirectEncoding)
                .domain_size(16)
                .epsilon(1.0)
                .build()
                .unwrap(),
        );
        let oue = ErasedBridge::new(
            FusedUnaryMechanism(OptimizedUnaryEncoding::new(100, eps).unwrap()),
            ProtocolDescriptor::builder(crate::protocol::MechanismKind::OptimizedUnary)
                .domain_size(100)
                .epsilon(1.0)
                .build()
                .unwrap(),
        );
        let values: Vec<u64> = (0..21).collect();
        for bridge in [&grr as &dyn ErasedMechanism, &oue] {
            let d = bridge.descriptor().domain_size();
            let inputs: Vec<u64> = values.iter().map(|v| v % d).collect();
            let mut stream = Vec::new();
            bridge
                .randomize_items_to_frames(&inputs, 9, &mut stream)
                .unwrap();
            let cut = &stream[..stream.len() - 1];
            let mut agg = bridge.new_erased_aggregator();
            let mut mirror = bridge.new_erased_aggregator();
            let (n, res) = bridge.accumulate_concat(agg.as_mut(), Some(mirror.as_mut()), cut);
            assert!(res.is_err());
            assert_eq!(n, 20);
            let mut alone = bridge.new_erased_aggregator();
            assert_eq!(bridge.accumulate_concat(alone.as_mut(), None, cut).0, 20);
            let blob = |a: &dyn ErasedAggregator| {
                let mut out = Vec::new();
                a.snapshot(&mut out);
                out
            };
            assert_eq!(blob(agg.as_ref()), blob(alone.as_ref()));
            assert_eq!(blob(mirror.as_ref()), blob(alone.as_ref()));
        }

        let mut stream = Vec::new();
        grr.randomize_items_to_frames(&[1, 2, 3], 9, &mut stream)
            .unwrap();
        let mut agg = grr.new_erased_aggregator();
        let mut foreign = oue.new_erased_aggregator();
        let (n, res) = grr.accumulate_concat(agg.as_mut(), Some(foreign.as_mut()), &stream);
        assert_eq!(n, 0);
        assert!(matches!(res, Err(LdpError::Malformed(_))));
        assert_eq!(agg.reports(), 0);
        assert_eq!(foreign.reports(), 0);
    }

    #[test]
    fn bridge_round_trips_one_report() {
        let oracle = DirectEncoding::new(16, Epsilon::new(1.0).unwrap()).unwrap();
        let desc = ProtocolDescriptor::builder(crate::protocol::MechanismKind::DirectEncoding)
            .domain_size(16)
            .epsilon(1.0)
            .build()
            .unwrap();
        let bridge = ErasedBridge::new(OracleMechanism(oracle), desc);
        let mut agg = bridge.new_erased_aggregator();

        let mut rng = StdRng::seed_from_u64(3);
        let mut frame = Vec::new();
        bridge.randomize_item(5, &mut rng, &mut frame).unwrap();
        let (n, res) = bridge.accumulate_concat(agg.as_mut(), None, &frame);
        res.unwrap();
        assert_eq!(n, 1);
        assert_eq!(agg.reports(), 1);

        // Out-of-domain input is an error, not a panic; so is a real
        // input to an item mechanism.
        let mut out = Vec::new();
        assert!(bridge.randomize_item(16, &mut rng, &mut out).is_err());
        assert!(bridge.randomize_real(5.0, &mut rng, &mut out).is_err());
        assert!(out.is_empty());
    }
}
