//! Durable aggregator snapshots: versioned, tagged, mergeable state BLOBs.
//!
//! PR 5 made *reports* durable bytes; this module does the same for
//! aggregator *state*, following the Apache DataSketches idiom of
//! sketches as compact serialized BLOBs that can be "stored and shared
//! across different systems, processes, and environments without loss of
//! fidelity". Every workspace aggregator implements [`StateSnapshot`]
//! (it is a supertrait of [`crate::fo::FoAggregator`], so the capability
//! is compile-enforced), which gives it a canonical byte form:
//!
//! ```text
//! [version: u8] [state tag: u8] [uvarint payload_len] [payload bytes]
//! ```
//!
//! The same envelope as a wire report frame, with a separate tag space
//! ([`state_tag`]) so an aggregator snapshot can never be confused with
//! a report frame of the same mechanism. Payloads start with the
//! aggregator's *configuration fields* (domain size, channel
//! probabilities, hash-family fingerprints, ...) followed by its
//! *counters*; [`restore_from`] validates every configuration field
//! against the live aggregator before committing any counter, so a
//! snapshot can only land in an aggregator built for the same protocol.
//! Every count-based aggregator gets this codec from one place, the
//! counter-state kernel ([`crate::fo::counters`]).
//!
//! Contracts, proptested in every mechanism crate's
//! `tests/snapshot_roundtrip.rs`:
//!
//! * **Bit-identity** — `merge(restore(snapshot(a)), b) == merge(a, b)`:
//!   round-tripping state through bytes never perturbs a counter, so
//!   merge trees over snapshots reproduce in-process collection exactly.
//! * **Panic-free decoding** — truncation, corruption, a foreign version
//!   byte, or a wrong-kind tag come back as typed [`LdpError`]s; a
//!   failed restore leaves the aggregator unchanged (all payload parsing
//!   happens into temporaries that are committed last).

use crate::wire::{put_f64_le, put_uvarint, WireReader};
use crate::{LdpError, Result};

/// The snapshot BLOB format version this build reads and writes.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Registry of state tags — one per aggregator state layout, in the
/// same banded layout as `crate::wire::tag` (core 1..=15, Apple 16..=23,
/// Microsoft 24..=31, RAPPOR 32..=39, service layer 48+). A tag is the
/// *state layout's* identity: two mechanisms sharing counters (SUE/OUE,
/// OLH/BLH) share a tag.
pub mod state_tag {
    /// Direct-encoding (GRR) histogram counters.
    pub const DIRECT: u8 = 1;
    /// Unary-encoding per-bit 1-counts (SUE and OUE).
    pub const UNARY: u8 = 2;
    /// Summation-histogram real-valued sums.
    pub const SHE: u8 = 3;
    /// Thresholded-histogram per-bit 1-counts.
    pub const THE: u8 = 4;
    /// Raw local-hashing report list (BLH and OLH).
    pub const LOCAL_HASH: u8 = 5;
    /// Cohort local-hashing (OLH-C) count matrix.
    pub const COHORT_HASH: u8 = 6;
    /// Hadamard-response spectrum sums.
    pub const HADAMARD: u8 = 7;
    /// Subset-selection inclusion counters.
    pub const SUBSET: u8 = 8;
    /// Apple CMS sketch-server counters (also each SFP collector).
    pub const APPLE_CMS_SKETCH: u8 = 16;
    /// Apple CMS oracle aggregator (sketch server + bound domain).
    pub const APPLE_CMS: u8 = 17;
    /// Apple HCMS sketch-server spectrum.
    pub const APPLE_HCMS_SKETCH: u8 = 18;
    /// Apple HCMS oracle aggregator (sketch server + bound domain).
    pub const APPLE_HCMS: u8 = 19;
    /// Apple SFP per-position fragment sketches + whole-word sketch.
    pub const APPLE_SFP: u8 = 20;
    /// Microsoft dBitFlip bucket counters.
    pub const MS_DBIT: u8 = 24;
    /// Microsoft 1BitMean bit count.
    pub const MS_ONE_BIT_MEAN: u8 = 25;
    /// Microsoft telemetry round (mean + histogram halves).
    pub const MS_TELEMETRY: u8 = 26;
    /// RAPPOR per-cohort bit counts.
    pub const RAPPOR: u8 = 32;
    /// A `CollectorService` checkpoint (descriptor + aggregator BLOB).
    pub const SERVICE_CHECKPOINT: u8 = 48;
    /// A whole sliding-window ring (`ldp_workloads::window::WindowRing`):
    /// ring configuration plus one embedded service checkpoint per live
    /// window and one for the running total.
    pub const WINDOW_RING: u8 = 49;
}

/// The durable-state capability: an aggregator that can serialize its
/// full state to a versioned BLOB and restore it, panic-free.
///
/// Object-safe, so the erased service layer
/// (`crate::wire::ErasedAggregator`) can forward it without knowing the
/// concrete aggregator type. Implementations serialize configuration
/// fields before counters and must make [`restore_payload`] all-or-
/// nothing: parse into temporaries, validate, and only then commit, so a
/// failed restore leaves the aggregator exactly as it was.
///
/// [`restore_payload`]: StateSnapshot::restore_payload
pub trait StateSnapshot {
    /// This aggregator's state-layout tag (a [`state_tag`] constant).
    fn state_tag(&self) -> u8;

    /// Appends the payload bytes (configuration fields, then counters)
    /// to `out`. Infallible: every aggregator state has a byte form.
    fn snapshot_payload(&self, out: &mut Vec<u8>);

    /// Parses one payload from `r`, validates its configuration fields
    /// against `self`, and replaces `self`'s counters with the decoded
    /// ones.
    ///
    /// # Errors
    /// Any [`LdpError`] for truncated or corrupt bytes, or
    /// [`LdpError::StateMismatch`] when the snapshot was taken from an
    /// aggregator with different configuration; `self` is unchanged on
    /// error.
    fn restore_payload(&mut self, r: &mut WireReader<'_>) -> Result<()>;
}

/// Appends one snapshot envelope to `out`:
/// `[SNAPSHOT_VERSION][tag][uvarint len][payload]`, with the payload
/// written in place by `payload`. The envelope of every durable BLOB:
/// aggregator snapshots, service checkpoints, and window rings.
pub fn put_envelope(out: &mut Vec<u8>, tag: u8, payload: impl FnOnce(&mut Vec<u8>)) {
    out.push(SNAPSHOT_VERSION);
    out.push(tag);
    // Reserve one byte for the length varint; payloads under 128 bytes
    // (most of them) need no splice.
    let len_pos = out.len();
    out.push(0);
    payload(out);
    let payload_len = out.len() - len_pos - 1;
    if payload_len < 0x80 {
        out[len_pos] = payload_len as u8;
    } else {
        let mut varint = Vec::with_capacity(10);
        put_uvarint(&mut varint, payload_len as u64);
        out.splice(len_pos..=len_pos, varint);
    }
}

/// Opens one envelope written by [`put_envelope`] (and nothing else:
/// trailing bytes are an error), returning its payload.
///
/// # Errors
/// [`LdpError::VersionMismatch`] for a foreign version byte,
/// [`LdpError::ReportTypeMismatch`] when the tag is not `tag`, and
/// [`LdpError::Truncated`] / [`LdpError::Malformed`] for byte-level
/// damage.
pub fn open_envelope(bytes: &[u8], tag: u8) -> Result<&[u8]> {
    let mut r = WireReader::new(bytes);
    let version = r.u8()?;
    if version != SNAPSHOT_VERSION {
        return Err(LdpError::VersionMismatch {
            got: version,
            expected: SNAPSHOT_VERSION,
        });
    }
    let got = r.u8()?;
    if got != tag {
        return Err(LdpError::ReportTypeMismatch { got, expected: tag });
    }
    let len = r.uvarint()?;
    let len = usize::try_from(len)
        .map_err(|_| LdpError::Malformed(format!("snapshot payload length {len} overflows")))?;
    let payload = r.bytes(len)?;
    r.finish()?;
    Ok(payload)
}

/// Serializes `agg`'s state as one snapshot envelope appended to `out`.
pub fn snapshot_to<S: StateSnapshot + ?Sized>(agg: &S, out: &mut Vec<u8>) {
    put_envelope(out, agg.state_tag(), |out| agg.snapshot_payload(out));
}

/// [`snapshot_to`] into a fresh vector.
#[must_use]
pub fn snapshot_vec<S: StateSnapshot + ?Sized>(agg: &S) -> Vec<u8> {
    let mut out = Vec::new();
    snapshot_to(agg, &mut out);
    out
}

/// Restores `agg`'s state from one snapshot BLOB (and nothing else:
/// trailing bytes are an error).
///
/// # Errors
/// As [`open_envelope`] against `agg`'s state tag, plus
/// [`LdpError::StateMismatch`] when the payload's configuration
/// disagrees with `agg`. `agg` is unchanged on error.
pub fn restore_from<S: StateSnapshot + ?Sized>(agg: &mut S, bytes: &[u8]) -> Result<()> {
    let mut r = WireReader::new(open_envelope(bytes, agg.state_tag())?);
    agg.restore_payload(&mut r)?;
    r.finish()
}

// ---------------------------------------------------------------------
// Payload codec helpers shared by every implementation.
// ---------------------------------------------------------------------

/// ZigZag-encodes a signed value so small magnitudes stay small varints.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends a signed value as a ZigZag varint.
pub fn put_ivarint(out: &mut Vec<u8>, v: i64) {
    put_uvarint(out, zigzag(v));
}

/// Reads a ZigZag varint.
///
/// # Errors
/// Propagates varint decode failures.
pub fn get_ivarint(r: &mut WireReader<'_>) -> Result<i64> {
    Ok(unzigzag(r.uvarint()?))
}

/// Appends a `usize` counter (report counts, vector lengths) as a varint.
pub fn put_count(out: &mut Vec<u8>, v: usize) {
    put_uvarint(out, v as u64);
}

/// Reads a `usize` counter.
///
/// # Errors
/// [`LdpError::Malformed`] when the value overflows `usize`.
pub fn get_count(r: &mut WireReader<'_>) -> Result<usize> {
    let v = r.uvarint()?;
    usize::try_from(v).map_err(|_| LdpError::Malformed(format!("count {v} overflows usize")))
}

/// Appends a length-prefixed vector of unsigned counters.
pub fn put_counts(out: &mut Vec<u8>, counts: &[u64]) {
    put_uvarint(out, counts.len() as u64);
    for &c in counts {
        put_uvarint(out, c);
    }
}

/// Reads a length-prefixed counter vector whose length must be
/// `expected` (the live aggregator's shape — a configuration check).
///
/// # Errors
/// [`LdpError::StateMismatch`] on a length disagreement;
/// [`LdpError::Truncated`] when the declared length cannot fit in the
/// remaining bytes (allocation bound: each varint is ≥ 1 byte).
pub fn get_counts(r: &mut WireReader<'_>, expected: usize, what: &str) -> Result<Vec<u64>> {
    get_vec(r, expected, what, 1, |r| r.uvarint())
}

/// Shared body of the vector readers: a length prefix that must equal
/// `expected`, an allocation bound of `width` bytes per entry, then
/// `expected` entries through `read`.
fn get_vec<T>(
    r: &mut WireReader<'_>,
    expected: usize,
    what: &str,
    width: usize,
    mut read: impl FnMut(&mut WireReader<'_>) -> Result<T>,
) -> Result<Vec<T>> {
    let len = get_count(r)?;
    if len != expected {
        return Err(LdpError::StateMismatch(format!(
            "{what}: snapshot has {len} entries, aggregator has {expected}"
        )));
    }
    if r.remaining() < len.saturating_mul(width) {
        return Err(LdpError::Truncated {
            needed: len.saturating_mul(width),
            available: r.remaining(),
        });
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(read(r)?);
    }
    Ok(out)
}

/// Appends a length-prefixed vector of signed counters (ZigZag varints).
pub fn put_signed_counts(out: &mut Vec<u8>, counts: &[i64]) {
    put_uvarint(out, counts.len() as u64);
    for &c in counts {
        put_ivarint(out, c);
    }
}

/// Reads a length-prefixed signed counter vector of exactly `expected`
/// entries.
///
/// # Errors
/// Same contract as [`get_counts`].
pub fn get_signed_counts(r: &mut WireReader<'_>, expected: usize, what: &str) -> Result<Vec<i64>> {
    get_vec(r, expected, what, 1, get_ivarint)
}

/// Appends a length-prefixed vector of reals (8-byte LE each).
pub fn put_reals(out: &mut Vec<u8>, reals: &[f64]) {
    put_uvarint(out, reals.len() as u64);
    for &x in reals {
        put_f64_le(out, x);
    }
}

/// Reads a length-prefixed real vector of exactly `expected` entries,
/// rejecting non-finite values (no aggregator produces them, so they
/// can only mean corruption).
///
/// # Errors
/// Same contract as [`get_counts`], plus [`LdpError::Malformed`] for
/// NaN/infinite entries.
pub fn get_reals(r: &mut WireReader<'_>, expected: usize, what: &str) -> Result<Vec<f64>> {
    get_vec(r, expected, what, 8, |r| {
        let x = r.f64_le()?;
        if !x.is_finite() {
            return Err(LdpError::Malformed(format!(
                "{what}: non-finite entry {x} in snapshot"
            )));
        }
        Ok(x)
    })
}

/// Reads a varint configuration field and checks it against the live
/// aggregator's value.
///
/// # Errors
/// [`LdpError::StateMismatch`] on disagreement.
pub fn check_u64(r: &mut WireReader<'_>, expected: u64, what: &str) -> Result<()> {
    let got = r.uvarint()?;
    if got != expected {
        return Err(LdpError::StateMismatch(format!(
            "{what}: snapshot says {got}, aggregator says {expected}"
        )));
    }
    Ok(())
}

/// Reads an 8-byte LE real configuration field and checks it bit-for-bit
/// (`to_bits` equality: channel probabilities are derived
/// deterministically, so equal configurations are bit-equal).
///
/// # Errors
/// [`LdpError::StateMismatch`] on disagreement.
pub fn check_f64(r: &mut WireReader<'_>, expected: f64, what: &str) -> Result<()> {
    let got = r.f64_le()?;
    if got.to_bits() != expected.to_bits() {
        return Err(LdpError::StateMismatch(format!(
            "{what}: snapshot says {got}, aggregator says {expected}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy aggregator exercising the framing layer in isolation.
    struct Toy {
        shape: u64,
        counts: Vec<u64>,
    }

    impl StateSnapshot for Toy {
        fn state_tag(&self) -> u8 {
            state_tag::DIRECT
        }

        fn snapshot_payload(&self, out: &mut Vec<u8>) {
            put_uvarint(out, self.shape);
            put_counts(out, &self.counts);
        }

        fn restore_payload(&mut self, r: &mut WireReader<'_>) -> Result<()> {
            check_u64(r, self.shape, "toy shape")?;
            self.counts = get_counts(r, self.counts.len(), "toy counts")?;
            Ok(())
        }
    }

    #[test]
    fn round_trip_preserves_state() {
        let a = Toy {
            shape: 7,
            counts: vec![1, u64::MAX, 0, 300],
        };
        let blob = snapshot_vec(&a);
        let mut b = Toy {
            shape: 7,
            counts: vec![0; 4],
        };
        restore_from(&mut b, &blob).unwrap();
        assert_eq!(b.counts, a.counts);
    }

    #[test]
    fn long_payload_length_splice() {
        let a = Toy {
            shape: 1,
            counts: vec![u64::MAX; 40], // > 127 payload bytes
        };
        let blob = snapshot_vec(&a);
        assert!(blob.len() > 0x80);
        let mut b = Toy {
            shape: 1,
            counts: vec![0; 40],
        };
        restore_from(&mut b, &blob).unwrap();
        assert_eq!(b.counts, a.counts);
    }

    #[test]
    fn version_tag_and_shape_guards() {
        let a = Toy {
            shape: 3,
            counts: vec![5; 3],
        };
        let blob = snapshot_vec(&a);

        let mut bad = blob.clone();
        bad[0] = SNAPSHOT_VERSION + 1;
        let mut b = Toy {
            shape: 3,
            counts: vec![0; 3],
        };
        assert!(matches!(
            restore_from(&mut b, &bad),
            Err(LdpError::VersionMismatch { .. })
        ));

        let mut bad = blob.clone();
        bad[1] = state_tag::SUBSET;
        assert!(matches!(
            restore_from(&mut b, &bad),
            Err(LdpError::ReportTypeMismatch { .. })
        ));

        let mut wrong_shape = Toy {
            shape: 4,
            counts: vec![0; 3],
        };
        assert!(matches!(
            restore_from(&mut wrong_shape, &blob),
            Err(LdpError::StateMismatch(_))
        ));
        assert_eq!(wrong_shape.counts, vec![0; 3], "failed restore is a no-op");

        // Truncations never panic.
        for cut in 0..blob.len() {
            assert!(restore_from(&mut b, &blob[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage is rejected.
        let mut long = blob.clone();
        long.push(0);
        assert!(restore_from(&mut b, &long).is_err());
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 4242, -4242] {
            let mut buf = Vec::new();
            put_ivarint(&mut buf, v);
            let mut r = WireReader::new(&buf);
            assert_eq!(get_ivarint(&mut r).unwrap(), v);
            r.finish().unwrap();
        }
    }

    #[test]
    fn reals_reject_non_finite() {
        let mut buf = Vec::new();
        put_reals(&mut buf, &[1.0, f64::NAN]);
        let mut r = WireReader::new(&buf);
        assert!(matches!(
            get_reals(&mut r, 2, "sums"),
            Err(LdpError::Malformed(_))
        ));
    }
}
