//! A compact bit vector used as the payload of RAPPOR reports and unary
//! encodings.
//!
//! RAPPOR clients send a perturbed Bloom filter of `k` bits per report; at
//! Internet scale the aggregator holds millions of these, so the
//! representation must be word-packed and the per-bit operations branch-free
//! where possible. This module is deliberately small: just what the LDP
//! protocols need (set/get/flip/count, bitwise accumulate), not a general
//! bitset library.

/// A fixed-length, word-packed vector of bits.
///
/// # Examples
/// ```
/// use ldp_sketch::BitVec;
/// let mut bv = BitVec::zeros(130);
/// bv.set(0, true);
/// bv.set(129, true);
/// assert_eq!(bv.count_ones(), 2);
/// assert!(bv.get(129));
/// bv.flip(129);
/// assert!(!bv.get(129));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an all-zero bit vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Reconstructs a bit vector from little-endian packed bytes (bit
    /// `i` in byte `i/8`, position `i%8`) — the inverse of
    /// [`write_le_bytes`](Self::write_le_bytes), used by the wire
    /// format. Returns `None` when the byte count does not match the bit
    /// length or the padding bits of the last byte are nonzero, so
    /// callers can reject malformed frames without panicking.
    pub fn from_le_bytes(len: usize, bytes: &[u8]) -> Option<Self> {
        if bytes.len() != len.div_ceil(8) {
            return None;
        }
        if !len.is_multiple_of(8) && bytes[bytes.len() - 1] >> (len % 8) != 0 {
            return None;
        }
        let mut words = vec![0u64; len.div_ceil(64)];
        for (i, &b) in bytes.iter().enumerate() {
            words[i / 8] |= (b as u64) << (8 * (i % 8));
        }
        Some(Self { words, len })
    }

    /// Overwrites this vector's bits from little-endian packed bytes —
    /// the in-place counterpart of [`from_le_bytes`](Self::from_le_bytes)
    /// for the same bit length, reusing the existing word storage so a
    /// decode loop over a frame stream allocates nothing per report.
    /// Returns `false` (leaving the vector unchanged) when the byte
    /// count does not match or the padding bits of the last byte are
    /// nonzero.
    pub fn copy_from_le_bytes(&mut self, bytes: &[u8]) -> bool {
        if bytes.len() != self.len.div_ceil(8) {
            return false;
        }
        if !self.len.is_multiple_of(8) && bytes[bytes.len() - 1] >> (self.len % 8) != 0 {
            return false;
        }
        let mut chunks = bytes.chunks_exact(8);
        for (w, chunk) in self.words.iter_mut().zip(&mut chunks) {
            *w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            *self.words.last_mut().expect("tail byte implies a word") = u64::from_le_bytes(tail);
        }
        true
    }

    /// Appends the bits as little-endian packed bytes (`len.div_ceil(8)`
    /// of them; unused bits of the final byte are zero) — word-at-a-time,
    /// so serializing is a memcpy-grade operation, not a per-bit loop.
    pub fn write_le_bytes(&self, out: &mut Vec<u8>) {
        let mut remaining = self.len.div_ceil(8);
        for w in &self.words {
            let take = remaining.min(8);
            out.extend_from_slice(&w.to_le_bytes()[..take]);
            remaining -= take;
            if remaining == 0 {
                break;
            }
        }
    }

    /// Creates a bit vector from an iterator of booleans.
    pub fn from_bools<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let bits: Vec<bool> = bits.into_iter().collect();
        let mut bv = Self::zeros(bits.len());
        for (i, b) in bits.into_iter().enumerate() {
            bv.set(i, b);
        }
        bv
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i >> 6] >> (i & 63)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i & 63);
        if value {
            self.words[i >> 6] |= mask;
        } else {
            self.words[i >> 6] &= !mask;
        }
    }

    /// Inverts bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i >> 6] ^= 1u64 << (i & 63);
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over all bits in index order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| (self.words[i >> 6] >> (i & 63)) & 1 == 1)
    }

    /// Iterates over indices of set bits.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let base = wi << 6;
            let len = self.len;
            BitIter { word: w }
                .map(move |b| base + b)
                .filter(move |&i| i < len)
        })
    }

    /// Adds each bit of `self` into `accumulator` (`accumulator[i] += bit`).
    ///
    /// This is the aggregator hot path: summing millions of reports into a
    /// per-position count vector. Word-at-a-time with an early skip for
    /// all-zero words.
    ///
    /// # Panics
    /// Panics if `accumulator.len() != self.len()`.
    pub fn accumulate_into(&self, accumulator: &mut [u64]) {
        assert_eq!(accumulator.len(), self.len, "accumulator length mismatch");
        for (wi, &w) in self.words.iter().enumerate() {
            if w == 0 {
                continue;
            }
            let mut bits = w;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                accumulator[(wi << 6) + b] += 1;
                bits &= bits - 1;
            }
        }
    }

    /// Resets every bit to 0, keeping the length (and allocation).
    /// Lets hot loops reuse one report buffer instead of allocating per
    /// report.
    #[inline]
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Index of the `n`-th (0-based, in increasing index order) **set**
    /// bit. The select operation behind class-mapped geometric-skip
    /// sampling: "flip the n-th currently-set position".
    ///
    /// # Panics
    /// Panics if `n >= count_ones()`.
    pub fn nth_one(&self, mut n: usize) -> usize {
        for (wi, &w) in self.words.iter().enumerate() {
            let c = w.count_ones() as usize;
            if n < c {
                return (wi << 6) + select_in_word(w, n);
            }
            n -= c;
        }
        panic!("set-bit rank out of range");
    }

    /// Index of the `n`-th (0-based, in increasing index order) **unset**
    /// bit among the vector's `len()` bits.
    ///
    /// # Panics
    /// Panics if `n >= len() - count_ones()`.
    pub fn nth_zero(&self, mut n: usize) -> usize {
        for (wi, &w) in self.words.iter().enumerate() {
            let bits_here = 64.min(self.len - (wi << 6));
            // Trailing bits beyond len are 0 in the word but not part of
            // the vector; mask them out of the zero count.
            let mask = if bits_here == 64 {
                u64::MAX
            } else {
                (1u64 << bits_here) - 1
            };
            let zeros = !w & mask;
            let c = zeros.count_ones() as usize;
            if n < c {
                return (wi << 6) + select_in_word(zeros, n);
            }
            n -= c;
        }
        panic!("zero-bit rank out of range");
    }

    /// Bitwise XOR with another vector of the same length.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn xor_with(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// Raw words (little-endian bit order within each word). Trailing bits
    /// beyond `len` are always zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Overwrites word `w` (bits `64·w .. 64·w + 63`) — the word-at-a-time
    /// writer behind the unary samplers, which emit whole words.
    ///
    /// # Panics
    /// Panics if `w` is past the last word, or if `bits` sets a bit at
    /// index `len()` or above (trailing bits must stay zero).
    #[inline]
    pub fn set_word(&mut self, w: usize, bits: u64) {
        let width = self.len.saturating_sub(w << 6);
        assert!(
            width >= 64 || (width > 0 && bits >> width == 0),
            "word {w} sets bits past length {}",
            self.len
        );
        self.words[w] = bits;
    }
}

/// Position of the `n`-th set bit inside one word (`n < popcount(w)`).
#[inline]
fn select_in_word(mut w: u64, mut n: usize) -> usize {
    loop {
        let b = w.trailing_zeros() as usize;
        if n == 0 {
            return b;
        }
        w &= w - 1;
        n -= 1;
    }
}

struct BitIter {
    word: u64,
}

impl Iterator for BitIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let b = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_is_empty_of_ones() {
        let bv = BitVec::zeros(100);
        assert_eq!(bv.count_ones(), 0);
        assert_eq!(bv.len(), 100);
        assert!(!bv.is_empty());
        assert!(BitVec::zeros(0).is_empty());
    }

    #[test]
    fn set_get_roundtrip_across_word_boundaries() {
        let mut bv = BitVec::zeros(200);
        for i in [0, 1, 63, 64, 65, 127, 128, 199] {
            bv.set(i, true);
            assert!(bv.get(i), "bit {i}");
        }
        assert_eq!(bv.count_ones(), 8);
        bv.set(64, false);
        assert!(!bv.get(64));
        assert_eq!(bv.count_ones(), 7);
    }

    #[test]
    fn ones_iterator_matches_gets() {
        let mut bv = BitVec::zeros(150);
        let idx = [3usize, 64, 65, 100, 149];
        for &i in &idx {
            bv.set(i, true);
        }
        let got: Vec<usize> = bv.ones().collect();
        assert_eq!(got, idx);
    }

    #[test]
    fn accumulate_counts_bits() {
        let mut acc = vec![0u64; 70];
        let mut a = BitVec::zeros(70);
        a.set(0, true);
        a.set(69, true);
        let mut b = BitVec::zeros(70);
        b.set(0, true);
        a.accumulate_into(&mut acc);
        b.accumulate_into(&mut acc);
        assert_eq!(acc[0], 2);
        assert_eq!(acc[69], 1);
        assert_eq!(acc[1], 0);
    }

    #[test]
    fn copy_from_le_bytes_matches_owned_decode() {
        let src = BitVec::from_bools((0..130).map(|i| i % 5 == 0));
        let mut bytes = Vec::new();
        src.write_le_bytes(&mut bytes);

        let mut dst = BitVec::from_bools((0..130).map(|i| i % 2 == 0));
        assert!(dst.copy_from_le_bytes(&bytes));
        assert_eq!(dst, src);
        assert_eq!(dst, BitVec::from_le_bytes(130, &bytes).unwrap());

        // Byte-count mismatch and nonzero padding are rejected, like
        // the owned constructor. (Lengths sharing a byte count — 129
        // vs 130 — are the caller's job to compare; see
        // `ldp_core::wire::get_bitvec_into`.)
        let mut wrong_len = BitVec::zeros(100);
        assert!(!wrong_len.copy_from_le_bytes(&bytes));
        assert!(wrong_len.ones().next().is_none(), "unchanged on failure");
        let mut padded = bytes.clone();
        *padded.last_mut().unwrap() |= 0x80; // bit 135 > len 130
        assert!(!dst.copy_from_le_bytes(&padded));
    }

    #[test]
    fn clear_zeroes_everything_and_keeps_len() {
        let mut bv = BitVec::from_bools((0..130).map(|i| i % 3 == 0));
        assert!(bv.count_ones() > 0);
        bv.clear();
        assert_eq!(bv.count_ones(), 0);
        assert_eq!(bv.len(), 130);
    }

    #[test]
    fn select_ones_and_zeros_across_word_boundaries() {
        let mut bv = BitVec::zeros(150);
        let ones = [3usize, 63, 64, 100, 149];
        for &i in &ones {
            bv.set(i, true);
        }
        for (rank, &expect) in ones.iter().enumerate() {
            assert_eq!(bv.nth_one(rank), expect, "rank {rank}");
        }
        // Zeros: ranks walk every unset index in order.
        let zero_indices: Vec<usize> = (0..150).filter(|i| !ones.contains(i)).collect();
        for (rank, &expect) in zero_indices.iter().enumerate().step_by(13) {
            assert_eq!(bv.nth_zero(rank), expect, "zero rank {rank}");
        }
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn nth_one_out_of_range_panics() {
        BitVec::zeros(10).nth_one(0);
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn nth_zero_out_of_range_panics() {
        let bv = BitVec::zeros(10);
        bv.nth_zero(10);
    }

    #[test]
    fn set_word_overwrites_and_guards_the_tail() {
        let mut bv = BitVec::zeros(70);
        bv.set(3, true);
        bv.set_word(0, 0b101);
        bv.set_word(1, 0b11_1111);
        assert_eq!(
            bv.ones().collect::<Vec<_>>(),
            vec![0, 2, 64, 65, 66, 67, 68, 69]
        );
        let tail = std::panic::catch_unwind(|| BitVec::zeros(70).set_word(1, 1 << 6));
        assert!(tail.is_err(), "bit 70 is past the length");
        let past = std::panic::catch_unwind(|| BitVec::zeros(64).set_word(1, 0));
        assert!(past.is_err(), "no word 1 in a 64-bit vector");
    }

    #[test]
    fn xor_flips_differences() {
        let a = BitVec::from_bools([true, false, true, false]);
        let b = BitVec::from_bools([true, true, false, false]);
        let mut c = a.clone();
        c.xor_with(&b);
        assert_eq!(c, BitVec::from_bools([false, true, true, false]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(10).get(10);
    }

    proptest! {
        #[test]
        fn prop_from_bools_roundtrip(bits in proptest::collection::vec(any::<bool>(), 0..300)) {
            let bv = BitVec::from_bools(bits.clone());
            prop_assert_eq!(bv.len(), bits.len());
            for (i, &b) in bits.iter().enumerate() {
                prop_assert_eq!(bv.get(i), b);
            }
            prop_assert_eq!(bv.count_ones(), bits.iter().filter(|&&b| b).count());
            let via_iter: Vec<bool> = bv.iter().collect();
            prop_assert_eq!(via_iter, bits);
        }

        #[test]
        fn prop_accumulate_equals_scalar_loop(
            rows in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 97), 1..20)
        ) {
            let mut fast = vec![0u64; 97];
            let mut slow = vec![0u64; 97];
            for row in &rows {
                let bv = BitVec::from_bools(row.iter().copied());
                bv.accumulate_into(&mut fast);
                for (i, &b) in row.iter().enumerate() {
                    if b { slow[i] += 1; }
                }
            }
            prop_assert_eq!(fast, slow);
        }

        #[test]
        fn prop_xor_is_involution(bits_a in proptest::collection::vec(any::<bool>(), 128),
                                  bits_b in proptest::collection::vec(any::<bool>(), 128)) {
            let a = BitVec::from_bools(bits_a);
            let b = BitVec::from_bools(bits_b);
            let mut c = a.clone();
            c.xor_with(&b);
            c.xor_with(&b);
            prop_assert_eq!(c, a);
        }
    }
}
