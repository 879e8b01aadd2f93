//! Batch randomization primitives: exact samplers for the i.i.d.
//! Bernoulli bit flips of unary reports.
//!
//! The unary-family oracles (SUE/OUE, THE, and RAPPOR's IRR layer) all
//! reduce to the same client-side channel: every position of a length-`d`
//! bit vector is independently set with some probability (`q` for the
//! `d−1` zero positions, `p` for the one-hot position). The naive sampler
//! draws one Bernoulli per position — `d` uniform draws per report, which
//! at `d = 4096` dominates the entire randomize→accumulate loop. This
//! module holds two exact replacements and the rule that picks one.
//!
//! * **Geometric skipping** ([`GeometricSkip`]), the classic RAPPOR
//!   trick: the gap between consecutive set positions of an i.i.d.
//!   Bernoulli(`q`) sequence is `Geometric(q)`-distributed, so the
//!   sampler jumps from one set position to the next with a single draw,
//!   `1 + d·q` draws in all. Each skip is resolved by inverse-CDF against
//!   precomputed 53-bit integer CDF boundaries, so the common case is a
//!   couple of integer comparisons against the raw uniform word; only
//!   the far tail (skips past the table) falls back to the closed-form
//!   `⌊ln(1−U)/ln(1−q)⌋`.
//! * **Word-parallel comparison** ([`WordBernoulli`]): the 64 positions
//!   of a payload word compare 64 independent 53-bit uniforms against
//!   `qm = ⌈q·2^53⌉` at once. The uniforms are built most-significant bit
//!   first, one RNG word per bit position (bit `j` of the word is lane
//!   `j`'s next bit); a lane settles at the first bit where its uniform
//!   differs from `qm`. A word first reveals a fixed prefix of `K = 8`
//!   positions (fewer if `qm`'s lowest set bit comes sooner) with no exit
//!   test, then continues one position at a time only while a lane is
//!   still open — which after 8 positions happens for about one word in
//!   five (`1 − (1 − 2^−8)^64 ≈ 0.22`). That is `8 + ≈0.46 ≈ 8.46` draws
//!   per word whatever `q` is: more than the `≈ 7.34` of testing for open
//!   lanes after every position, but that data-dependent test mispredicts
//!   about once per word, which costs more than the extra draws. The
//!   per-position work is a few bitwise operations shared by the whole
//!   word, not a table rank and a byte OR per set bit.
//!
//! Both give every bit probability exactly `⌈q·2^53⌉/2^53` — the rounding
//! `gen_bool(q)` applies to the vendored `rand`'s 53-bit uniform — with
//! all bits independent (statistical tests in this module and
//! `crates/core/tests/batch_oracles.rs` check marginals and the
//! independence-sensitive total-count variance).
//!
//! | sampler | RNG words per report of `d` bits | work per set bit |
//! |---|---|---|
//! | per-bit `gen_bool` | `d` | — |
//! | [`GeometricSkip`] | `1 + d·q` | table rank + store |
//! | [`WordBernoulli`] | `≈ (K + 0.46)·⌈d/64⌉`, `K = 8` (the prefix is capped at `qm`'s lowest set bit, so e.g. `5·⌈d/64⌉` exactly at `q = 1/32`) | none (bit scan only if the consumer wants positions) |
//!
//! **The rule** ([`OneHotSampler::new`]): the unary channel uses the word
//! sampler whenever the report has a full word, `d ≥ 64`, and geometric
//! skipping below that. Below one word, the word sampler would still pay
//! its `K`-position prefix against geometric's `1 + (d−1)·q` — and the
//! small-domain configurations keep the RNG stream every earlier build
//! drew, so their reports, frames and aggregates stay byte-identical.
//! The choice is made once, from `d`, when the oracle is built; there is
//! no switch. OUE at ε = 1 (`q ≈ 0.27`) and THE at its optimal threshold
//! (`q = ½e^{−εθ/2} ≥ 0.30` at ε = 1) are dense. Very sparse reports
//! (OUE past ε ≈ 4, `q` below one flip per word) would draw fewer words
//! by skipping — the `sampler` section of `BENCH_aggregate.json` records
//! both sides at `d = 4096` — but no measured workload runs them, so the
//! rule does not branch on `q`.
//!
//! Every consumer of one oracle — scalar [`FrequencyOracle::randomize`],
//! the fused batch overrides, and the wire layer's frame writer — calls
//! the same [`OneHotSampler`], so all paths consume identical RNG
//! streams. That is what makes the batch-vs-scalar bit-identity contract
//! (and with it, deterministic sharded collection) hold by construction.
//!
//! [`FrequencyOracle::randomize`]: super::FrequencyOracle::randomize

use ldp_sketch::BitVec;
use rand::{Rng, RngCore};

/// CDF boundaries kept per sampler. 32 entries cover `P[skip < 32] =
/// 1 − (1−q)^32` of the mass — >99.99% at `q ≈ 0.27`, ~40% at a sparse
/// `q = 1/64`; the remainder takes the logarithm fallback.
const TABLE: usize = 32;

/// Scale of the uniform mantissa the vendored `rand` uses for `f64`
/// sampling: `u = (x >> 11) / 2^53`.
const MANTISSA_SCALE: f64 = 1.0 / (1u64 << 53) as f64;

/// A geometric-skip sampler for one fixed flip probability `q`,
/// precomputed once per oracle instance.
///
/// `sample_into` walks the set positions of an i.i.d. Bernoulli(`q`) bit
/// sequence, consuming one `u64` RNG word per set position (plus one
/// terminating word). The skip ahead of each set position is resolved
/// from the raw 53-bit uniform by comparing against precomputed integer
/// CDF boundaries `⌈(1−(1−q)^{k+1})·2^53⌉` — `u < b_k ⟺ mantissa <
/// bound[k]`, exactly the inverse-CDF partition of the unit interval, so
/// the distribution is identical to the closed-form
/// `skip = ⌊ln(1−U)/ln(1−q)⌋` it falls back to past the table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeometricSkip {
    q: f64,
    /// `bound[k]` = smallest 53-bit mantissa NOT mapping to `skip ≤ k`.
    bounds: [u64; TABLE],
    /// `ln(1−q)` via `ln_1p`, accurately negative even for tiny `q`
    /// (where `1.0 − q` would round to `1.0` and a plain `ln` would
    /// return 0, collapsing every tail skip to zero — an infinite walk).
    ln_keep: f64,
}

impl GeometricSkip {
    /// Builds the sampler for flip probability `q`. Degenerate values are
    /// honored: `q ≤ 0` never flips, `q ≥ 1` always flips.
    ///
    /// # Panics
    /// Panics if `q` is NaN.
    pub fn new(q: f64) -> Self {
        assert!(!q.is_nan(), "flip probability must not be NaN");
        let mut bounds = [u64::MAX; TABLE];
        if q > 0.0 {
            let keep = (1.0 - q).max(0.0);
            let mut keep_pow = 1.0f64; // (1-q)^k
            for b in &mut bounds {
                keep_pow *= keep;
                // CDF: P[skip <= k] = 1 - (1-q)^{k+1}; scale by 2^53
                // (exact: power-of-two multiply) and round up so integer
                // mantissas compare exactly like the f64 CDF would.
                *b = ((1.0 - keep_pow) * (1u64 << 53) as f64).ceil() as u64;
            }
        } else {
            // q <= 0: no mantissa may flip; sample_into returns early
            // anyway, the table is never consulted.
            bounds = [0; TABLE];
        }
        Self {
            q,
            bounds,
            ln_keep: (-q).ln_1p(),
        }
    }

    /// The flip probability this sampler was built for.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Invokes `on_one(i)` for every index `i ∈ [0, slots)` whose
    /// independent Bernoulli(`q`) coin lands 1, in increasing index
    /// order. One RNG word per set position plus one terminating word;
    /// `q ≤ 0` consumes no RNG at all.
    #[inline]
    pub fn sample_into<R, F>(&self, slots: u64, rng: &mut R, mut on_one: F)
    where
        R: RngCore + ?Sized,
        F: FnMut(u64),
    {
        if self.q <= 0.0 {
            return;
        }
        let mut pos: u64 = 0;
        while pos < slots {
            let m = rng.next_u64() >> 11;
            // The skip rank is geometrically distributed, so a scan's
            // exit branch mispredicts on nearly every flip. Instead,
            // rank branchlessly over the first 8 boundaries (covers
            // `1−(1−q)^8` of the mass — >90% for OUE-like q) and only
            // fall into the scan, and then the closed-form tail, for
            // the geometric far end.
            let skip = if m < self.bounds[7] {
                let mut k = 0u64;
                for j in 0..8 {
                    k += u64::from(m >= self.bounds[j]);
                }
                k
            } else if m < self.bounds[TABLE - 1] {
                let mut k = 8u64;
                while m >= self.bounds[k as usize] {
                    k += 1;
                }
                k
            } else {
                // Tail: closed-form inverse CDF. 1−u ∈ (0, 1], so the
                // logarithm is finite and the saturating f64 → u64 cast
                // cannot see NaN; a huge skip from a tiny q saturates
                // and terminates the walk.
                let u = m as f64 * MANTISSA_SCALE;
                (((1.0 - u).ln() / self.ln_keep).floor()) as u64
            };
            pos = pos.saturating_add(skip);
            if pos >= slots {
                return;
            }
            on_one(pos);
            pos += 1;
        }
    }
}

/// One-shot convenience over [`GeometricSkip`]: flips each of `slots`
/// independent Bernoulli(`q`) coins, invoking `on_one(i)` for every set
/// index in increasing order. Builds the boundary table per call — hot
/// loops with a fixed `q` should hold a [`GeometricSkip`] instead (the
/// unary oracles do).
///
/// # Panics
/// Panics if `q` is NaN.
///
/// # Examples
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let mut ones = Vec::new();
/// ldp_core::fo::batch::sample_bernoulli_indices(100, 0.1, &mut rng, |i| ones.push(i));
/// assert!(ones.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
/// assert!(ones.iter().all(|&i| i < 100));
/// ```
pub fn sample_bernoulli_indices<R, F>(slots: u64, q: f64, rng: &mut R, on_one: F)
where
    R: RngCore + ?Sized,
    F: FnMut(u64),
{
    GeometricSkip::new(q).sample_into(slots, rng, on_one);
}

/// An [`RngCore`] wrapper that counts the words drawn through it — one
/// per `next_u64` or `next_u32`, `⌈len/8⌉` per `fill_bytes` — so tests
/// and benches can state a sampler's draw budget exactly.
#[derive(Debug, Clone)]
pub struct CountingRng<R> {
    inner: R,
    draws: u64,
}

impl<R: RngCore> CountingRng<R> {
    /// Wraps `inner` with a zero count.
    pub fn new(inner: R) -> Self {
        Self { inner, draws: 0 }
    }

    /// Words drawn so far.
    pub fn draws(&self) -> u64 {
        self.draws
    }
}

impl<R: RngCore> RngCore for CountingRng<R> {
    fn next_u32(&mut self) -> u32 {
        self.draws += 1;
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.draws += dest.len().div_ceil(8) as u64;
        self.inner.fill_bytes(dest)
    }
}

/// `2^53`: the scale of the 53-bit uniforms both samplers compare.
const UNIT: u64 = 1 << 53;

/// Bit positions [`WordBernoulli::sample_word`] reveals before it first
/// asks whether any lane is still open (fewer when `qm`'s lowest set bit
/// comes sooner). After 8 positions a full word still has an open lane
/// with probability `1 − (1 − 2^−8)^64 ≈ 0.22`, so the data-dependent
/// exit, which mispredicts about once each time it is reached, is reached
/// in one word of five. Chosen by measurement against depths 6–10.
const PREFIX: u32 = 8;

/// A word-parallel exact Bernoulli(`q`) sampler: 64 independent coins
/// per RNG-word sweep.
///
/// Lane `j` of a word holds an implicit 53-bit uniform `U_j`, revealed
/// most-significant bit first: bit `k` of the `k`-th RNG word drawn for
/// the word is lane `j`'s next bit. The lane's coin is `U_j < qm` with
/// `qm = ⌈q·2^53⌉`, decided at the first bit where `U_j` differs from
/// `qm` — below `qm` sets the bit, above clears it; a lane still equal
/// once `qm`'s remaining bits are all zero cannot fall below it and
/// clears. So each bit is 1 with probability exactly `qm/2^53`, the
/// rounding `gen_bool(q)` applies, and lanes (and words) are independent
/// because they read disjoint RNG bits.
///
/// Cost: one RNG word per revealed bit position. Every word reveals a
/// prefix of 8 positions (or down to `qm`'s lowest set bit, if that
/// comes first) without testing for open lanes, then continues only
/// while some lane is open; each open lane settles with probability ½
/// per position, so a full word draws `≈ 8.46` words, independent of
/// `q`. `q ≤ 0` and `q ≥ 1` consume no RNG at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WordBernoulli {
    q: f64,
    /// `⌈q·2^53⌉`, clamped to `[0, 2^53]`.
    qm: u64,
}

impl WordBernoulli {
    /// Builds the sampler for flip probability `q`. Degenerate values are
    /// honored: `q ≤ 0` never flips, `q ≥ 1` always flips.
    ///
    /// # Panics
    /// Panics if `q` is NaN.
    pub fn new(q: f64) -> Self {
        assert!(!q.is_nan(), "flip probability must not be NaN");
        // Exact: a power-of-two multiply, then the same round-up the
        // geometric table applies; the saturating cast clamps q < 0 to 0.
        let qm = ((q * UNIT as f64).ceil() as u64).min(UNIT);
        Self { q, qm }
    }

    /// The flip probability this sampler was built for.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Samples one word: every bit set in `lanes` is independently 1 with
    /// probability `qm/2^53`; bits outside `lanes` are always 0.
    // Always inlined: called once per word, it must keep the RNG state in
    // registers across a report's words and hoist `qm`'s prefix masks,
    // which a call per word would spill and rebuild.
    #[inline(always)]
    pub fn sample_word<R: RngCore + ?Sized>(&self, lanes: u64, rng: &mut R) -> u64 {
        if self.qm == 0 {
            return 0;
        }
        if self.qm == UNIT {
            // `2^53` has no bit in positions 52..0: every lane is below it.
            return lanes;
        }
        // Below `qm`'s lowest set bit its remaining bits are zero, so a
        // lane still open there can no longer fall below it.
        let last = self.qm.trailing_zeros();
        let prefix_end = last.max(53 - PREFIX);
        let (mut open, mut ones) = (lanes, 0u64);
        let mut k = 53;
        // The prefix: a fixed number of positions with no exit on `open`,
        // so the only branch is a loop count the predictor learns.
        while k > prefix_end {
            k -= 1;
            (open, ones) = self.reveal(k, rng.next_u64(), open, ones);
        }
        // The tail, for the few words with a lane still open.
        while open != 0 && k > last {
            k -= 1;
            (open, ones) = self.reveal(k, rng.next_u64(), open, ones);
        }
        ones
    }

    /// One bit position `k` of every lane's uniform, revealed by the RNG
    /// word `r`: returns the updated `(open, ones)` lane masks.
    #[inline(always)]
    fn reveal(&self, k: u32, r: u64, open: u64, ones: u64) -> (u64, u64) {
        // All-ones where `qm` has a 1 at bit k: an open lane drawing 0
        // there falls below `qm` (sets); where `qm` has a 0, an open lane
        // drawing 1 rises above it (clears). Lanes drawing `qm`'s bit
        // stay open.
        let qbit = ((self.qm >> k) & 1).wrapping_neg();
        (open & !(r ^ qbit), ones | (open & !r & qbit))
    }

    /// Samples `slots` coins as whole words in index order, invoking
    /// `on_word(w, bits)` once for every `w ∈ [0, ⌈slots/64⌉)`: bit `j`
    /// of `bits` is coin `64·w + j`, and bits at index `slots` and above
    /// in the last word are 0.
    #[inline]
    pub fn sample_words<R, F>(&self, slots: u64, rng: &mut R, mut on_word: F)
    where
        R: RngCore + ?Sized,
        F: FnMut(usize, u64),
    {
        let full = (slots / 64) as usize;
        for w in 0..full {
            on_word(w, self.sample_word(u64::MAX, rng));
        }
        let tail = slots % 64;
        if tail != 0 {
            on_word(full, self.sample_word((1u64 << tail) - 1, rng));
        }
    }
}

/// The unary one-hot channel shared by SUE/OUE and THE: a length-`d`
/// report whose one-hot position is set with probability `p` and every
/// other position with probability `q`, all independently.
///
/// The zero-position sampler is fixed at construction from `d` (see the
/// [module docs](self)). Either way the Bernoulli(`p`) draw for the
/// one-hot position comes first.
#[derive(Debug, Clone, PartialEq)]
pub struct OneHotSampler {
    d: u64,
    p: f64,
    zeros: Zeros,
}

/// The zero-position sampler of a [`OneHotSampler`].
#[derive(Debug, Clone, PartialEq)]
enum Zeros {
    /// `d ≥ 64`: samples all `d` positions at `q`, then the one-hot bit
    /// is overwritten with the Bernoulli(`p`) draw.
    Words(WordBernoulli),
    /// `d < 64`: skips over the `d−1` zero positions, mapping the `k`-th
    /// slot past the one-hot position — the stream every build has drawn
    /// for this channel. The whole report is one word.
    Skip(Box<GeometricSkip>),
}

impl OneHotSampler {
    /// Builds the channel for a domain of `d ≥ 1` items.
    ///
    /// # Panics
    /// Panics if `d == 0`, or if `p` or `q` is NaN.
    pub fn new(d: u64, p: f64, q: f64) -> Self {
        assert!(d >= 1, "one-hot channel needs d >= 1");
        assert!(!p.is_nan(), "keep probability must not be NaN");
        let zeros = if d >= 64 {
            Zeros::Words(WordBernoulli::new(q))
        } else {
            Zeros::Skip(Box::new(GeometricSkip::new(q)))
        };
        Self { d, p, zeros }
    }

    /// Domain size `d` (report length in bits).
    pub fn domain_size(&self) -> u64 {
        self.d
    }

    /// `(p, q)`: the one-hot keep and zero-position flip probabilities.
    pub fn probabilities(&self) -> (f64, f64) {
        let q = match &self.zeros {
            Zeros::Words(words) => words.q(),
            Zeros::Skip(skip) => skip.q(),
        };
        (self.p, q)
    }

    /// Samples one report for `value` as whole 64-bit words in index
    /// order: `on_word(w, bits)` is invoked exactly once for every
    /// `w ∈ [0, ⌈d/64⌉)`, bit `j` of `bits` is position `64·w + j`, and
    /// bits at index `d` and above in the last word are 0.
    ///
    /// # Panics
    /// Panics if `value >= d`.
    #[inline]
    pub fn sample_words<R: RngCore + ?Sized>(
        &self,
        value: u64,
        rng: &mut R,
        mut on_word: impl FnMut(usize, u64),
    ) {
        assert!(
            value < self.d,
            "value {value} outside domain of size {}",
            self.d
        );
        let hot_word = (value / 64) as usize;
        let hot_bit = 1u64 << (value % 64);
        let hot = if rng.gen_bool(self.p) { hot_bit } else { 0 };
        let mut emit = |w: usize, bits: u64| {
            on_word(
                w,
                if w == hot_word {
                    (bits & !hot_bit) | hot
                } else {
                    bits
                },
            )
        };
        match &self.zeros {
            Zeros::Words(words) => words.sample_words(self.d, rng, emit),
            Zeros::Skip(skip) => {
                let mut bits = 0u64;
                skip.sample_into(self.d - 1, rng, |k| {
                    // Map the k-th zero-position slot past the one-hot
                    // position (branchless: k is geometrically random, so
                    // a compare-jump would mispredict constantly).
                    bits |= 1u64 << (k + u64::from(k >= value));
                });
                emit(0, bits);
            }
        }
    }

    /// Invokes `on_one(i)` for every set position of one report, in
    /// increasing order — the set bits of [`sample_words`](Self::sample_words).
    #[inline]
    pub fn sample_ones<R: RngCore + ?Sized>(
        &self,
        value: u64,
        rng: &mut R,
        mut on_one: impl FnMut(usize),
    ) {
        self.sample_words(value, rng, |w, bits| for_each_one(w, bits, &mut on_one));
    }

    /// One report as a freshly allocated [`BitVec`].
    pub fn randomize<R: RngCore + ?Sized>(&self, value: u64, rng: &mut R) -> BitVec {
        let mut bits = BitVec::zeros(self.d as usize);
        self.sample_words(value, rng, |w, word| bits.set_word(w, word));
        bits
    }

    /// One report per value into one reused [`BitVec`], handed to `sink`
    /// — every word is overwritten, so nothing is allocated or cleared
    /// per report.
    pub fn randomize_batch<R, F>(&self, values: &[u64], rng: &mut R, mut sink: F)
    where
        R: RngCore + ?Sized,
        F: FnMut(&BitVec),
    {
        let mut bits = BitVec::zeros(self.d as usize);
        for &v in values {
            self.sample_words(v, rng, |w, word| bits.set_word(w, word));
            sink(&bits);
        }
    }

    /// Adds one report per value straight into per-position counters —
    /// no [`BitVec`] is materialized.
    ///
    /// # Panics
    /// Panics if `ones.len() != d` or a value is outside the domain.
    pub fn accumulate<R: RngCore + ?Sized>(&self, values: &[u64], rng: &mut R, ones: &mut [u64]) {
        assert_eq!(ones.len(), self.d as usize, "aggregator width mismatch");
        for &v in values {
            self.sample_ones(v, rng, |i| ones[i] += 1);
        }
    }
}

/// Invokes `on_one(64·w + j)` for every set bit `j` of `bits`, in
/// increasing order.
#[inline]
fn for_each_one(w: usize, mut bits: u64, mut on_one: impl FnMut(usize)) {
    while bits != 0 {
        on_one(w * 64 + bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn marginals_match_per_bit_bernoulli() {
        // The geometric-skip sampler must reproduce the per-bit
        // Bernoulli(q) marginal at every position — not just on average.
        let slots = 64u64;
        let q = 0.23;
        let trials = 200_000u64;
        let mut rng = StdRng::seed_from_u64(101);
        let skip = GeometricSkip::new(q);
        let mut counts = vec![0u64; slots as usize];
        for _ in 0..trials {
            skip.sample_into(slots, &mut rng, |i| counts[i as usize] += 1);
        }
        // Per-position rate: sd = sqrt(q(1-q)/trials) ≈ 0.00094; 5 sd.
        let sd = (q * (1.0 - q) / trials as f64).sqrt();
        for (i, &c) in counts.iter().enumerate() {
            let rate = c as f64 / trials as f64;
            assert!(
                (rate - q).abs() < 5.0 * sd,
                "position {i}: rate={rate} expected={q}"
            );
        }
    }

    #[test]
    fn total_ones_variance_matches_binomial() {
        // Independence check: the count of set positions must be
        // Binomial(slots, q) — a sampler with correlated flips would match
        // the marginals but miss the variance.
        let slots = 128u64;
        let q = 0.1;
        let trials = 50_000;
        let mut rng = StdRng::seed_from_u64(103);
        let skip = GeometricSkip::new(q);
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        for _ in 0..trials {
            let mut ones = 0u64;
            skip.sample_into(slots, &mut rng, |_| ones += 1);
            sum += ones as f64;
            sum_sq += (ones * ones) as f64;
        }
        let mean = sum / trials as f64;
        let var = sum_sq / trials as f64 - mean * mean;
        let expected_mean = slots as f64 * q;
        let expected_var = slots as f64 * q * (1.0 - q);
        assert!((mean - expected_mean).abs() < 0.1, "mean={mean}");
        assert!(
            (var - expected_var).abs() / expected_var < 0.05,
            "var={var} expected={expected_var}"
        );
    }

    /// The table fast path and the logarithm fallback implement the same
    /// inverse CDF: tail skips (≥ TABLE) must still occur at the exact
    /// geometric rate, or per-bit marginals would kink at position 32.
    #[test]
    fn tail_fallback_matches_geometric_rate() {
        let q = 0.05; // (1-q)^32 ≈ 0.194: a fat, measurable tail
        let skip = GeometricSkip::new(q);
        let mut rng = StdRng::seed_from_u64(107);
        let trials = 200_000;
        let mut first_skip_past_table = 0u64;
        for _ in 0..trials {
            let mut first: Option<u64> = None;
            skip.sample_into(10_000, &mut rng, |i| {
                if first.is_none() {
                    first = Some(i);
                }
            });
            if first.expect("10k slots at q=0.05 always flips something") >= TABLE as u64 {
                first_skip_past_table += 1;
            }
        }
        let rate = first_skip_past_table as f64 / trials as f64;
        let expected = (1.0 - q).powi(TABLE as i32);
        let sd = (expected * (1.0 - expected) / trials as f64).sqrt();
        assert!(
            (rate - expected).abs() < 5.0 * sd,
            "tail rate={rate} expected={expected}"
        );
    }

    #[test]
    fn degenerate_probabilities() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ones = Vec::new();
        sample_bernoulli_indices(50, 0.0, &mut rng, |i| ones.push(i));
        assert!(ones.is_empty(), "q=0 flips nothing");
        sample_bernoulli_indices(50, 1.0, &mut rng, |i| ones.push(i));
        assert_eq!(ones, (0..50).collect::<Vec<u64>>(), "q=1 flips everything");
        ones.clear();
        sample_bernoulli_indices(0, 0.5, &mut rng, |i| ones.push(i));
        assert!(ones.is_empty(), "zero slots");
    }

    #[test]
    fn tiny_q_terminates() {
        // ln(1-U)/ln(1-q) can exceed u64::MAX as an f64 for tiny q; the
        // saturating cast must terminate the walk rather than wrap. This
        // is also the regression test for ln vs ln_1p: with a plain
        // ln(1.0 - 1e-300) == 0.0 the skip would collapse to 0 forever.
        let mut rng = StdRng::seed_from_u64(5);
        let mut calls = 0u64;
        for _ in 0..1000 {
            sample_bernoulli_indices(u64::MAX, 1e-300, &mut rng, |_| calls += 1);
        }
        // Expected flips over all runs ≈ 1000 · u64::MAX · 1e-300 ≈ 0.
        assert_eq!(calls, 0, "tiny q should essentially never flip");
    }

    /// Replays a fixed list of RNG words and panics past its end, so a
    /// test pins exactly which words a sampler reads.
    struct Scripted(std::vec::IntoIter<u64>);

    impl RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("sampler read past the scripted words")
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for b in dest {
                *b = self.next_u64() as u8;
            }
        }
    }

    /// Per-lane marginals of the word sampler, over two full words and a
    /// partial one: every position is 1 at rate q, the padding never.
    #[test]
    fn word_marginals_match_per_bit_bernoulli() {
        let slots = 150u64;
        let q = 0.23;
        let trials = 40_000u64;
        let words = WordBernoulli::new(q);
        let mut rng = StdRng::seed_from_u64(109);
        let mut counts = vec![0u64; 192];
        for _ in 0..trials {
            words.sample_words(slots, &mut rng, |w, bits| {
                for_each_one(w, bits, |i| counts[i] += 1)
            });
        }
        let sd = (q * (1.0 - q) / trials as f64).sqrt();
        for (i, &c) in counts.iter().enumerate() {
            let rate = c as f64 / trials as f64;
            if i as u64 >= slots {
                assert_eq!(c, 0, "padding bit {i} set");
            } else {
                assert!(
                    (rate - q).abs() < 5.0 * sd,
                    "position {i}: rate={rate} expected={q}"
                );
            }
        }
    }

    /// Independence across lanes and words: the popcount of a
    /// multi-word row is Binomial(slots, q). Correlated lanes, or words
    /// sharing RNG bits, would keep the marginals but miss the variance.
    #[test]
    fn word_popcount_variance_matches_binomial() {
        for (q, seed) in [(0.3, 113u64), (1.0 / 64.0, 127), (0.71, 131)] {
            let slots = 256u64;
            let trials = 40_000;
            let words = WordBernoulli::new(q);
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
            for _ in 0..trials {
                let mut ones = 0u64;
                words.sample_words(slots, &mut rng, |_, bits| {
                    ones += u64::from(bits.count_ones())
                });
                sum += ones as f64;
                sum_sq += (ones * ones) as f64;
            }
            let mean = sum / trials as f64;
            let var = sum_sq / trials as f64 - mean * mean;
            let expected_mean = slots as f64 * q;
            let expected_var = expected_mean * (1.0 - q);
            // sd of the mean ≈ sqrt(var/trials); of the variance ≈
            // var·sqrt(2/trials) ≈ 0.7% of it.
            assert!(
                (mean - expected_mean).abs() < 5.0 * (expected_var / trials as f64).sqrt(),
                "q={q}: mean={mean} expected={expected_mean}"
            );
            assert!(
                (var - expected_var).abs() / expected_var < 0.05,
                "q={q}: var={var} expected={expected_var}"
            );
        }
    }

    /// No bit at index d or above is ever set — not by the word sampler,
    /// not by the hot-bit overwrite when the hot value sits in the last,
    /// one-bit word.
    #[test]
    fn no_bit_past_the_domain() {
        let d = 4097u64;
        let words = WordBernoulli::new(0.9);
        let chan = OneHotSampler::new(d, 0.9, 0.9);
        assert!(matches!(chan.zeros, Zeros::Words(_)));
        let mut rng = StdRng::seed_from_u64(137);
        let mut last_words = Vec::new();
        for _ in 0..2_000 {
            words.sample_words(d, &mut rng, |w, bits| {
                if w == 64 {
                    last_words.push(bits);
                }
            });
            chan.sample_words(d - 1, &mut rng, |w, bits| {
                if w == 64 {
                    last_words.push(bits);
                }
            });
        }
        assert_eq!(last_words.len(), 4_000, "one last word per report");
        assert!(
            last_words.iter().all(|&b| b <= 1),
            "only bit 4096 may be set"
        );
        assert!(last_words.contains(&1), "bit 4096 is sampled");
        let all = WordBernoulli::new(1.0);
        let mut seen = Vec::new();
        all.sample_words(d, &mut rng, |w, bits| seen.push((w, bits)));
        assert_eq!(seen.len(), 65);
        assert!(seen[..64].iter().all(|&(_, b)| b == u64::MAX));
        assert_eq!(seen[64], (64, 1));
    }

    /// `q = 0` draws nothing, `q = 1` sets every bit and draws nothing
    /// either (`2^53` has no bit in positions 52..0 to compare against).
    #[test]
    fn word_degenerate_probabilities_consume_no_rng() {
        let mut none = Scripted(Vec::new().into_iter());
        let mut seen = Vec::new();
        WordBernoulli::new(0.0).sample_words(130, &mut none, |w, bits| seen.push((w, bits)));
        WordBernoulli::new(-0.5).sample_words(130, &mut none, |w, bits| seen.push((w, bits)));
        assert_eq!(seen, [(0, 0), (1, 0), (2, 0), (0, 0), (1, 0), (2, 0)]);
        seen.clear();
        WordBernoulli::new(1.0).sample_words(130, &mut none, |w, bits| seen.push((w, bits)));
        WordBernoulli::new(3.0).sample_words(130, &mut none, |w, bits| seen.push((w, bits)));
        let full = [(0, u64::MAX), (1, u64::MAX), (2, 0b11)];
        assert_eq!(seen, [full, full].concat());
        // A one-hot channel at q = 0 reads only its Bernoulli(p) word.
        let mut one = Scripted(vec![0].into_iter());
        let mut ones = Vec::new();
        OneHotSampler::new(200, 0.5, 0.0).sample_ones(130, &mut one, |i| ones.push(i));
        assert_eq!(ones, [130], "U = 0 < p keeps the hot bit");
    }

    /// The comparison is exact: a lane whose uniform is `qm − 1` is below
    /// `qm` and comes out 1, a lane equal to `qm` comes out 0. Lane 0
    /// carries `qm − 1`, lane 1 and every other lane `qm`, one bit per
    /// scripted word, most significant first.
    #[test]
    fn word_lanes_compare_exactly_against_qm() {
        for q in [0.3, 0.27, 1.0 / 64.0, 0.5 + f64::EPSILON] {
            let qm = (q * UNIT as f64).ceil() as u64;
            let script: Vec<u64> = (0..53)
                .rev()
                .map(|k| {
                    let below = ((qm - 1) >> k) & 1;
                    let equal = ((qm >> k) & 1).wrapping_neg();
                    (equal & !1) | below
                })
                .collect();
            let words = WordBernoulli::new(q);
            assert_eq!(words.qm, qm);
            let bits = words.sample_word(u64::MAX, &mut Scripted(script.clone().into_iter()));
            assert_eq!(bits, 1, "q={q}: only the lane below qm is set");
            // A two-lane word settles exactly when lane 0 does: at qm's
            // lowest set bit, having read one word per position above it.
            let mut rng = Scripted(script.into_iter());
            assert_eq!(words.sample_word(0b11, &mut rng), 1);
            assert_eq!(rng.0.len(), qm.trailing_zeros() as usize, "q={q}");
        }
    }

    /// The prefix reads one word per bit position down to `qm`'s lowest
    /// set bit, even when every lane settles on the first word: at q = ½,
    /// ¾ and 1/64 (`qm` = 2^52, 3·2^51, 2^47) that is exactly 1, 2 and 6
    /// words per word, full or partial. The first word settles all lanes:
    /// zeros fall below ½ and ¾, ones rise above 1/64.
    #[test]
    fn prefix_reads_down_to_qms_lowest_set_bit() {
        for (q, first, depth, bits) in [
            (0.5, 0, 1, u64::MAX),
            (0.75, 0, 2, u64::MAX),
            (1.0 / 64.0, u64::MAX, 6, 0),
        ] {
            let mut per_word = vec![first];
            per_word.resize(depth, 0x5555_5555_5555_5555);
            let mut rng = Scripted(per_word.repeat(3).into_iter());
            let mut seen = Vec::new();
            WordBernoulli::new(q).sample_words(130, &mut rng, |_, b| seen.push(b));
            assert_eq!(rng.0.len(), 0, "q={q}: reads {depth} words per word");
            assert_eq!(seen, [bits, bits, bits & 0b11], "q={q}");
        }
    }

    /// Pins the RNG words a d = 4096 report draws at q = 0.27 for one
    /// seed: 64 prefixes of 8 words, plus the tails of the words with a
    /// lane still open after them (≈ 0.45 words per word).
    #[test]
    fn word_draws_per_report_are_pinned() {
        let words = WordBernoulli::new(0.27);
        let mut rng = CountingRng::new(StdRng::seed_from_u64(149));
        for _ in 0..100 {
            words.sample_words(4096, &mut rng, |_, _| {});
        }
        assert_eq!(rng.draws(), 54_125);
    }

    /// Both samplers give the one-hot channel: the hot bit at rate p,
    /// every other bit at rate q, with the hot value in a middle word and
    /// in the partial last word.
    #[test]
    fn one_hot_channel_marginals_on_both_samplers() {
        for (d, p, q) in [(200u64, 0.5, 0.27), (200, 0.8, 0.01), (40, 0.6, 0.3)] {
            let chan = OneHotSampler::new(d, p, q);
            assert_eq!(matches!(chan.zeros, Zeros::Words(_)), d >= 64);
            assert_eq!(chan.probabilities(), (p, q));
            for value in [100u64 % d, d - 3] {
                let trials = 30_000u64;
                let mut rng = StdRng::seed_from_u64(139 + value);
                let mut counts = vec![0u64; d as usize];
                for _ in 0..trials {
                    chan.sample_ones(value, &mut rng, |i| counts[i] += 1);
                }
                for (i, &c) in counts.iter().enumerate() {
                    let expected = if i as u64 == value { p } else { q };
                    let sd = (expected * (1.0 - expected) / trials as f64).sqrt();
                    let rate = c as f64 / trials as f64;
                    assert!(
                        (rate - expected).abs() < 5.0 * sd,
                        "d={d} value={value} bit {i}: rate={rate} expected={expected}"
                    );
                }
            }
        }
    }

    /// The rule: words from one full word on, whatever `q` is.
    #[test]
    fn sampler_choice_follows_d() {
        let words = |d, q| matches!(OneHotSampler::new(d, 0.5, q).zeros, Zeros::Words(_));
        assert!(words(64, 0.27));
        assert!(words(4096, 0.0025));
        assert!(!words(63, 0.27));
        assert!(!words(1, 0.27));
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_probability_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        sample_bernoulli_indices(10, f64::NAN, &mut rng, |_| {});
    }
}
