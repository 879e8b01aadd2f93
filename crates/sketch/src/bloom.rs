//! Bloom filters, the string-encoding substrate of Google RAPPOR.
//!
//! RAPPOR ([Erlingsson, Pihur, Korolova, CCS 2014]) never transmits a string:
//! each client hashes its value into a small Bloom filter with `h` hash
//! functions, then perturbs the *bits* of the filter. The aggregator decodes
//! candidate strings by regressing observed bit frequencies against each
//! candidate's filter signature. Cohorts (disjoint hash-function groups)
//! break cross-candidate collisions: a string that collides with another in
//! one cohort almost surely does not in the rest.
//!
//! The filter here is deliberately minimal and *deterministic given
//! (cohort, size, hashes)* so client and server derive identical signatures.

use crate::bitvec::BitVec;
use crate::hash::{hash_bytes64, HashFamily};

/// A Bloom filter over byte strings with cohort-indexed hash functions.
///
/// Two filters constructed with the same `(bits, hashes, cohort)` use the
/// same hash functions, which is exactly what RAPPOR's decoder requires to
/// recompute candidate signatures server-side.
///
/// # Examples
/// ```
/// use ldp_sketch::BloomFilter;
/// let mut f = BloomFilter::new(64, 2, /*cohort=*/ 7);
/// f.insert(b"example.com");
/// assert!(f.contains(b"example.com"));
/// // Signature-compatible with a server-side reconstruction:
/// let sig = BloomFilter::signature(64, 2, 7, b"example.com");
/// assert!(sig.ones().all(|i| f.bits().get(i)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: BitVec,
    hashes: u32,
    cohort: u32,
    family: HashFamily,
}

impl BloomFilter {
    /// Creates an empty filter of `bits` bits using `hashes` hash functions,
    /// drawn from the hash group of `cohort`.
    ///
    /// # Panics
    /// Panics if `bits == 0` or `hashes == 0`.
    pub fn new(bits: usize, hashes: u32, cohort: u32) -> Self {
        assert!(bits > 0, "bloom filter must have at least one bit");
        assert!(hashes > 0, "bloom filter must use at least one hash");
        Self {
            bits: BitVec::zeros(bits),
            hashes,
            cohort,
            family: HashFamily::new(bits as u64),
        }
    }

    /// The bit positions that `value` sets in a `(bits, hashes, cohort)`
    /// filter — the candidate's *signature* used by the RAPPOR decoder.
    ///
    /// Positions are returned as a `BitVec` of length `bits`. Note that
    /// distinct hash functions may collide on a position, so the signature
    /// may have fewer than `hashes` set bits (the decoder must use the set,
    /// not the multiset, which this representation enforces).
    pub fn signature(bits: usize, hashes: u32, cohort: u32, value: &[u8]) -> BitVec {
        let family = HashFamily::new(bits as u64);
        let key = hash_bytes64(value);
        let mut sig = BitVec::zeros(bits);
        for h in 0..hashes {
            let seed = seed_for(cohort, h);
            sig.set(family.hash(key, seed) as usize, true);
        }
        sig
    }

    /// Inserts a byte string.
    pub fn insert(&mut self, value: &[u8]) {
        let key = hash_bytes64(value);
        for h in 0..self.hashes {
            let seed = seed_for(self.cohort, h);
            let pos = self.family.hash(key, seed) as usize;
            self.bits.set(pos, true);
        }
    }

    /// Membership test: false means definitely absent; true means probably
    /// present (standard Bloom filter false-positive semantics).
    pub fn contains(&self, value: &[u8]) -> bool {
        let key = hash_bytes64(value);
        (0..self.hashes).all(|h| {
            let seed = seed_for(self.cohort, h);
            self.bits.get(self.family.hash(key, seed) as usize)
        })
    }

    /// The underlying bits (what a RAPPOR client perturbs and transmits).
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// Filter width in bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True if the filter has zero width (never constructible; for API
    /// completeness).
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Number of hash functions.
    pub fn hashes(&self) -> u32 {
        self.hashes
    }

    /// Cohort index.
    pub fn cohort(&self) -> u32 {
        self.cohort
    }

    /// Theoretical false-positive probability after `n` insertions:
    /// `(1 - e^{-hn/m})^h`.
    pub fn false_positive_rate(&self, n: usize) -> f64 {
        let m = self.len() as f64;
        let h = self.hashes as f64;
        (1.0 - (-h * n as f64 / m).exp()).powf(h)
    }
}

/// Derives the per-(cohort, hash-index) seed. Mixing the cohort in means
/// each cohort uses an effectively independent hash family, the property
/// RAPPOR relies on to break collisions across cohorts.
#[inline]
fn seed_for(cohort: u32, hash_index: u32) -> u64 {
    ((cohort as u64) << 32) | hash_index as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn inserted_values_are_contained() {
        let mut f = BloomFilter::new(256, 2, 0);
        let values: Vec<String> = (0..50).map(|i| format!("url-{i}.example")).collect();
        for v in &values {
            f.insert(v.as_bytes());
        }
        for v in &values {
            assert!(f.contains(v.as_bytes()), "{v} missing");
        }
    }

    #[test]
    fn absent_values_mostly_absent() {
        let mut f = BloomFilter::new(1024, 2, 0);
        for i in 0..50 {
            f.insert(format!("present-{i}").as_bytes());
        }
        let fp = (0..1000)
            .filter(|i| f.contains(format!("absent-{i}").as_bytes()))
            .count();
        // fp rate bound at ~ (1 - e^{-2*50/1024})^2 ≈ 0.0086; allow slack.
        assert!(fp < 40, "false positives: {fp}");
    }

    #[test]
    fn signature_matches_insert() {
        let sig = BloomFilter::signature(128, 4, 3, b"hello");
        let mut f = BloomFilter::new(128, 4, 3);
        f.insert(b"hello");
        assert_eq!(&sig, f.bits());
    }

    #[test]
    fn cohorts_use_different_functions() {
        let a = BloomFilter::signature(256, 2, 0, b"collision-test");
        let b = BloomFilter::signature(256, 2, 1, b"collision-test");
        assert_ne!(a, b, "distinct cohorts should map differently");
    }

    #[test]
    fn signature_has_at_most_h_bits() {
        for cohort in 0..8 {
            let sig = BloomFilter::signature(64, 3, cohort, b"xyz");
            let ones = sig.count_ones();
            assert!((1..=3).contains(&ones), "ones={ones}");
        }
    }

    #[test]
    fn fp_rate_monotone_in_n() {
        let f = BloomFilter::new(128, 2, 0);
        assert!(f.false_positive_rate(10) < f.false_positive_rate(100));
        assert!(f.false_positive_rate(0) == 0.0);
    }

    proptest! {
        #[test]
        fn prop_no_false_negatives(values in proptest::collection::vec(".{1,20}", 1..40)) {
            let mut f = BloomFilter::new(512, 2, 1);
            for v in &values {
                f.insert(v.as_bytes());
            }
            for v in &values {
                prop_assert!(f.contains(v.as_bytes()));
            }
        }

        #[test]
        fn prop_signature_deterministic(value in ".{0,32}", cohort in 0u32..64) {
            let a = BloomFilter::signature(128, 2, cohort, value.as_bytes());
            let b = BloomFilter::signature(128, 2, cohort, value.as_bytes());
            prop_assert_eq!(a, b);
        }
    }
}
