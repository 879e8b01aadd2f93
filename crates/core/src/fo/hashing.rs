//! Local-hashing frequency oracles: BLH and OLH.
//!
//! For massive domains, transmitting `d` bits (unary encodings) is
//! impossible and direct encoding is hopeless. Local hashing sidesteps
//! both: each user draws a *public* random hash function `h : [d] → [g]`
//! (transmitted as a 64-bit seed), hashes their value, and perturbs the
//! *hashed* value with k-ary randomized response over `[g]`. The report is
//! `(seed, perturbed bucket)` — constant size regardless of `d`.
//!
//! The server counts, for each candidate `v`, how many reports *support*
//! it (`h_seed(v) == bucket`). A non-held candidate is supported with
//! probability exactly `1/g` in expectation over seeds, giving the
//! debiasing pair `p* = e^ε/(e^ε+g−1)`, `q* = 1/g`.
//!
//! * **BLH** fixes `g = 2` (one-bit bucket).
//! * **OLH** chooses `g = e^ε + 1`, the value minimizing the noise floor —
//!   which then equals OUE's `4e^ε/(e^ε−1)²` with exponentially less
//!   communication. OLH is the default general-purpose oracle in this
//!   workspace.
//!
//! ## Fully random seeds vs cohorts
//!
//! With a fresh random seed per user ([`LocalHashing`]), the aggregator
//! has no sufficient statistic: it must keep all `n` raw reports and scan
//! them per candidate — `O(n)` memory and `O(n·d)` for a full-domain
//! estimate, which is hopeless at deployment scale.
//! [`CohortLocalHashing`] restricts the public randomness RAPPOR-style:
//! users draw one of `C` fixed public seeds (their *cohort*), so the
//! aggregator only needs the `C×g` matrix of bucket counts — `O(C·g)`
//! memory, `O(C·d)` estimation, and O(1) mergeable across shards. Privacy
//! is identical (the seed was public either way); the cost is a small
//! extra variance term from hash collisions shared within a cohort, which
//! shrinks as `1/C` (see [`CohortLocalHashing::count_variance`]).

use super::counters::{self, CounterState};
use super::{FoAggregator, FrequencyOracle};
use crate::estimate::debiased_count_variance;
use crate::privacy::Epsilon;
use crate::rr::KaryRandomizedResponse;
use ldp_sketch::hash::{mix64, HashFamily};
use rand::{Rng, RngCore};

/// A local-hashing report: the user's hash seed and the perturbed bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LhReport {
    /// The hash-function seed the user drew (public randomness).
    pub seed: u64,
    /// The k-ary-RR-perturbed value of `h_seed(value)`.
    pub bucket: u64,
}

/// Local hashing with an arbitrary bucket count `g ≥ 2`.
///
/// Use [`OptimizedLocalHashing`] (g = e^ε+1) or [`BinaryLocalHashing`]
/// (g = 2) unless you are sweeping `g` for an ablation.
#[derive(Debug, Clone, Copy)]
pub struct LocalHashing {
    d: u64,
    g: u64,
    epsilon: Epsilon,
    family: HashFamily,
    rr: KaryRandomizedResponse,
}

impl LocalHashing {
    /// Creates a local-hashing oracle with `g` buckets.
    ///
    /// # Panics
    /// Panics if `d == 0` or `g < 2`.
    pub fn with_g(d: u64, g: u64, epsilon: Epsilon) -> Self {
        assert!(d > 0, "domain must be non-empty");
        assert!(g >= 2, "local hashing needs g >= 2, got {g}");
        Self {
            d,
            g,
            epsilon,
            family: HashFamily::new(g),
            rr: KaryRandomizedResponse::new(g, epsilon).expect("g >= 2"),
        }
    }

    /// The bucket count `g`.
    pub fn g(&self) -> u64 {
        self.g
    }

    /// The `(p*, q*)` support-probability pair used for debiasing.
    pub fn support_probabilities(&self) -> (f64, f64) {
        (self.rr.p(), 1.0 / self.g as f64)
    }
}

impl FrequencyOracle for LocalHashing {
    type Report = LhReport;
    type Aggregator = LhAggregator;

    fn name(&self) -> &'static str {
        if self.g == 2 {
            "BLH"
        } else {
            "OLH"
        }
    }

    fn domain_size(&self) -> u64 {
        self.d
    }

    fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// Seed draw, hash, k-ary RR: at most three uniform draws per
    /// report.
    #[inline]
    fn randomize<R: RngCore + ?Sized>(&self, value: u64, rng: &mut R) -> LhReport {
        assert!(
            value < self.d,
            "value {value} outside domain of size {}",
            self.d
        );
        let seed: u64 = rng.gen();
        let bucket = self.family.hash(value, seed);
        let perturbed = self.rr.randomize(bucket, rng);
        LhReport {
            seed,
            bucket: perturbed,
        }
    }

    fn new_aggregator(&self) -> LhAggregator {
        let (p, q) = self.support_probabilities();
        LhAggregator {
            reports: Vec::new(),
            d: self.d,
            family: self.family,
            p,
            q,
        }
    }

    fn count_variance(&self, n: usize, f: f64) -> f64 {
        let (p, q) = self.support_probabilities();
        debiased_count_variance(n, f * n as f64, p, q)
    }

    fn report_bits(&self) -> usize {
        64 + (64 - (self.g - 1).leading_zeros()) as usize
    }
}

/// Binary local hashing (`g = 2`): the one-bit-per-user protocol of
/// Bassily–Smith, phrased in the Wang et al. framework.
#[derive(Debug, Clone, Copy)]
pub struct BinaryLocalHashing(LocalHashing);

impl BinaryLocalHashing {
    /// Creates BLH over `[0, d)`.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub fn new(d: u64, epsilon: Epsilon) -> Self {
        Self(LocalHashing::with_g(d, 2, epsilon))
    }
}

/// Optimized local hashing (`g = ⌊e^ε⌋ + 1`), the variance-optimal choice.
#[derive(Debug, Clone, Copy)]
pub struct OptimizedLocalHashing(LocalHashing);

impl OptimizedLocalHashing {
    /// Creates OLH over `[0, d)` with the optimal bucket count
    /// `g = max(2, round(e^ε + 1))`.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub fn new(d: u64, epsilon: Epsilon) -> Self {
        let g = ((epsilon.exp() + 1.0).round() as u64).max(2);
        Self(LocalHashing::with_g(d, g, epsilon))
    }

    /// The chosen bucket count.
    pub fn g(&self) -> u64 {
        self.0.g()
    }
}

macro_rules! delegate_oracle {
    ($ty:ty, $name:literal) => {
        impl FrequencyOracle for $ty {
            type Report = LhReport;
            type Aggregator = LhAggregator;

            fn name(&self) -> &'static str {
                $name
            }

            fn domain_size(&self) -> u64 {
                self.0.domain_size()
            }

            fn epsilon(&self) -> Epsilon {
                self.0.epsilon()
            }

            fn randomize<R: RngCore + ?Sized>(&self, value: u64, rng: &mut R) -> LhReport {
                self.0.randomize(value, rng)
            }

            fn new_aggregator(&self) -> LhAggregator {
                self.0.new_aggregator()
            }

            fn count_variance(&self, n: usize, f: f64) -> f64 {
                self.0.count_variance(n, f)
            }

            fn report_bits(&self) -> usize {
                self.0.report_bits()
            }
        }
    };
}

delegate_oracle!(BinaryLocalHashing, "BLH");
delegate_oracle!(OptimizedLocalHashing, "OLH");

/// Aggregator for local hashing.
///
/// Stores raw reports; a point estimate for item `v` scans them counting
/// support (`h_seed(v) == bucket`). `estimate()` over the full domain costs
/// `O(n·d)` — that is inherent to local hashing and is why heavy-hitter
/// protocols only query candidate sets via
/// [`estimate_items`](FoAggregator::estimate_items).
#[derive(Debug, Clone)]
pub struct LhAggregator {
    reports: Vec<LhReport>,
    d: u64,
    family: HashFamily,
    p: f64,
    q: f64,
}

impl LhAggregator {
    /// Support count for a single item.
    fn support(&self, item: u64) -> u64 {
        self.reports
            .iter()
            .filter(|r| self.family.hash(item, r.seed) == r.bucket)
            .count() as u64
    }

    /// Debiased count estimate for one item.
    #[inline]
    fn estimate_one(&self, item: u64, n: f64) -> f64 {
        debug_assert!(item < self.d);
        (self.support(item) as f64 - n * self.q) / (self.p - self.q)
    }
}

impl crate::snapshot::StateSnapshot for LhAggregator {
    fn state_tag(&self) -> u8 {
        crate::snapshot::state_tag::LOCAL_HASH
    }

    fn snapshot_payload(&self, out: &mut Vec<u8>) {
        crate::wire::put_uvarint(out, self.d);
        crate::wire::put_uvarint(out, self.family.range());
        crate::wire::put_f64_le(out, self.p);
        crate::wire::put_f64_le(out, self.q);
        crate::snapshot::put_count(out, self.reports.len());
        for rep in &self.reports {
            crate::wire::put_u64_le(out, rep.seed);
            crate::wire::put_uvarint(out, rep.bucket);
        }
    }

    fn restore_payload(&mut self, r: &mut crate::wire::WireReader<'_>) -> crate::Result<()> {
        crate::snapshot::check_u64(r, self.d, "BLH/OLH domain size")?;
        crate::snapshot::check_u64(r, self.family.range(), "BLH/OLH hash range")?;
        crate::snapshot::check_f64(r, self.p, "BLH/OLH p")?;
        crate::snapshot::check_f64(r, self.q, "BLH/OLH q")?;
        let len = crate::snapshot::get_count(r)?;
        // Each report costs at least 9 bytes (8-byte seed + >= 1-byte
        // bucket varint); bound the allocation before trusting `len`.
        if r.remaining() < len.saturating_mul(9) {
            return Err(crate::LdpError::Truncated {
                needed: len.saturating_mul(9),
                available: r.remaining(),
            });
        }
        let mut reports = Vec::with_capacity(len);
        for _ in 0..len {
            let seed = r.u64_le()?;
            let bucket = r.uvarint()?;
            if bucket >= self.family.range() {
                return Err(crate::LdpError::Malformed(format!(
                    "snapshot local-hashing bucket {bucket} outside range {}",
                    self.family.range()
                )));
            }
            reports.push(LhReport { seed, bucket });
        }
        self.reports = reports;
        Ok(())
    }
}

impl FoAggregator for LhAggregator {
    type Report = LhReport;

    fn try_accumulate(&mut self, report: &LhReport) -> crate::Result<()> {
        if report.bucket >= self.family.range() {
            return Err(crate::LdpError::Malformed(format!(
                "local-hashing bucket {} outside range {}",
                report.bucket,
                self.family.range()
            )));
        }
        self.reports.push(*report);
        Ok(())
    }

    fn reports(&self) -> usize {
        self.reports.len()
    }

    fn estimate(&self) -> Vec<f64> {
        // Iterate the domain range directly — no scratch `Vec<u64>` of all
        // item ids just to look each one up again.
        let n = self.reports.len() as f64;
        (0..self.d).map(|v| self.estimate_one(v, n)).collect()
    }

    fn estimate_items(&self, items: &[u64]) -> Vec<f64> {
        let n = self.reports.len() as f64;
        items.iter().map(|&v| self.estimate_one(v, n)).collect()
    }

    fn merge(&mut self, other: Self) -> crate::Result<()> {
        if self.d != other.d
            || self.family != other.family
            || self.p != other.p
            || self.q != other.q
        {
            return Err(crate::LdpError::StateMismatch(
                "merge: BLH/OLH configuration mismatch".into(),
            ));
        }
        self.reports.extend(other.reports);
        Ok(())
    }

    /// Raw local hashing keeps the trait's refusal, with its own reason:
    /// the state is the report list itself, and a window's contribution
    /// has no identity inside it — removing "equal" reports could strip
    /// a different user's coincidentally identical `(seed, bucket)` pair
    /// and still would not restore the original list order bit for bit.
    fn try_subtract(&mut self, other: &Self) -> crate::Result<()> {
        let _ = other;
        Err(crate::LdpError::NotSubtractive(
            "raw local hashing keeps a report list; window deltas have no identity in it".into(),
        ))
    }
}

/// Default cohort count for [`CohortLocalHashing::optimized`]: large
/// enough that the shared-collision variance term is negligible next to
/// the randomized-response noise floor for populations up to millions of
/// users, small enough that the `C×g` matrix stays in cache.
pub const DEFAULT_COHORTS: u32 = 1024;

/// Seed base that [`CohortLocalHashing::optimized`] derives its public
/// cohort seeds from. Any value works; deployments that re-run collection
/// rounds should rotate it so collision patterns don't persist.
pub const DEFAULT_COHORT_SEED_BASE: u64 = 0x1db3_c5a7_92e4_6f01;

/// Derives the public hash seed of one cohort. The multiplier walk is
/// injective over `u32` cohort indices and `mix64` is a bijection, so all
/// `C` seeds are distinct.
#[inline]
fn cohort_seed(seed_base: u64, cohort: u32) -> u64 {
    mix64(seed_base ^ (cohort as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// A cohort-mode local-hashing report: the user's public cohort index and
/// the perturbed bucket. Constant size — `log C + log g` bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CohortLhReport {
    /// Cohort index in `[0, C)`; selects one of the `C` public hash seeds.
    pub cohort: u32,
    /// The k-ary-RR-perturbed value of `h_cohort(value)`.
    pub bucket: u32,
}

/// Local hashing with the seed drawn from a fixed public set of `C`
/// cohorts (RAPPOR-style), making the aggregate a `C×g` count matrix.
///
/// Compared to [`LocalHashing`] this changes nothing about privacy — the
/// seed is public randomness in both designs — but collapses the
/// aggregator from `O(n)` raw reports to an `O(C·g)` sufficient
/// statistic, and full-domain estimation from `O(n·d)` to `O(C·d)`. Use
/// the fully-random-seed [`LocalHashing`] only for ablations.
#[derive(Debug, Clone, Copy)]
pub struct CohortLocalHashing {
    d: u64,
    g: u64,
    cohorts: u32,
    seed_base: u64,
    epsilon: Epsilon,
    family: HashFamily,
    rr: KaryRandomizedResponse,
}

impl CohortLocalHashing {
    /// Creates cohort-mode OLH with the variance-optimal bucket count
    /// `g = max(2, round(e^ε + 1))` and the default seed base.
    ///
    /// # Panics
    /// Panics if `d == 0` or `cohorts == 0`.
    pub fn optimized(d: u64, cohorts: u32, epsilon: Epsilon) -> Self {
        Self::optimized_with_seed(d, cohorts, DEFAULT_COHORT_SEED_BASE, epsilon)
    }

    /// Creates variance-optimal cohort-mode OLH with an explicit seed
    /// base. Protocols that run repeated collection rounds should draw a
    /// fresh seed base per round so the cohort seed set — and with it any
    /// shared-collision pattern — rotates instead of biasing the same
    /// item pairs every time.
    ///
    /// # Panics
    /// Panics if `d == 0` or `cohorts == 0`.
    pub fn optimized_with_seed(d: u64, cohorts: u32, seed_base: u64, epsilon: Epsilon) -> Self {
        let g = ((epsilon.exp() + 1.0).round() as u64).max(2);
        Self::with_params(d, g, cohorts, seed_base, epsilon)
    }

    /// Creates cohort-mode local hashing with explicit bucket count,
    /// cohort count, and seed base (the public randomness the `C` cohort
    /// seeds are derived from).
    ///
    /// # Panics
    /// Panics if `d == 0`, `g < 2`, `g > u32::MAX` (reports store the
    /// bucket as `u32`), or `cohorts == 0`.
    pub fn with_params(d: u64, g: u64, cohorts: u32, seed_base: u64, epsilon: Epsilon) -> Self {
        assert!(d > 0, "domain must be non-empty");
        assert!(g >= 2, "local hashing needs g >= 2, got {g}");
        assert!(
            g <= u32::MAX as u64,
            "bucket count {g} exceeds the u32 report encoding"
        );
        assert!(cohorts >= 1, "need at least one cohort");
        Self {
            d,
            g,
            cohorts,
            seed_base,
            epsilon,
            family: HashFamily::new(g),
            rr: KaryRandomizedResponse::new(g, epsilon).expect("g >= 2"),
        }
    }

    /// The bucket count `g`.
    pub fn g(&self) -> u64 {
        self.g
    }

    /// The cohort count `C`.
    pub fn cohorts(&self) -> u32 {
        self.cohorts
    }

    /// The seed base the public cohort seeds derive from.
    pub fn seed_base(&self) -> u64 {
        self.seed_base
    }

    /// The public hash seed of cohort `c`.
    ///
    /// # Panics
    /// Panics if `c >= cohorts()`.
    pub fn cohort_seed(&self, c: u32) -> u64 {
        assert!(c < self.cohorts, "cohort {c} out of range");
        cohort_seed(self.seed_base, c)
    }

    /// The `(p*, q*)` support-probability pair used for debiasing. `q*`
    /// is exactly `1/g` in expectation over the seed-base choice; for a
    /// fixed public seed set it deviates by `O(1/√(C·g))`.
    pub fn support_probabilities(&self) -> (f64, f64) {
        (self.rr.p(), 1.0 / self.g as f64)
    }
}

impl FrequencyOracle for CohortLocalHashing {
    type Report = CohortLhReport;
    type Aggregator = CohortLhAggregator;

    fn name(&self) -> &'static str {
        "OLH-C"
    }

    fn domain_size(&self) -> u64 {
        self.d
    }

    fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// Cohort draw, hash against the cohort's public seed, k-ary RR.
    #[inline]
    fn randomize<R: RngCore + ?Sized>(&self, value: u64, rng: &mut R) -> CohortLhReport {
        assert!(
            value < self.d,
            "value {value} outside domain of size {}",
            self.d
        );
        let cohort = rng.gen_range(0..self.cohorts);
        let bucket = self.family.hash(value, cohort_seed(self.seed_base, cohort));
        let perturbed = self.rr.randomize(bucket, rng);
        CohortLhReport {
            cohort,
            bucket: perturbed as u32,
        }
    }

    fn new_aggregator(&self) -> CohortLhAggregator {
        let (p, q) = self.support_probabilities();
        CohortLhAggregator {
            counts: vec![0; self.cohorts as usize * self.g as usize],
            n: 0,
            d: self.d,
            g: self.g,
            cohorts: self.cohorts,
            seed_base: self.seed_base,
            family: self.family,
            p,
            q,
        }
    }

    /// Analytical variance: the OLH noise floor **plus** an upper bound on
    /// the cohort-collision term.
    ///
    /// With fully random per-user seeds, hash collisions between the
    /// queried item and each other user's item are independent events and
    /// their randomness is already inside the `q(1−q)` binomial term. With
    /// `C` shared seeds, all users of a cohort collide (or not) together:
    /// a collision shifts a user's support probability from
    /// `q̃ = (1−p)/(g−1)` to `p`, so conditioned on the public seed set
    /// the estimate carries a mean-zero bias whose variance over the
    /// seed-base draw is
    /// `Σ_{u≠v} n_u² · q(1−q) · (p−q̃)² / (C·(p−q)²)`.
    /// `Σ n_u²` is bounded by `((1−f)·n)²` (all remaining mass on one
    /// item), which is what this method charges — the true term is smaller
    /// for spread-out populations, and shrinks as `1/C`.
    fn count_variance(&self, n: usize, f: f64) -> f64 {
        let (p, q) = self.support_probabilities();
        let base = debiased_count_variance(n, f * n as f64, p, q);
        let q_tilde = (1.0 - p) / (self.g as f64 - 1.0);
        let other_mass = (1.0 - f) * n as f64;
        let collision = other_mass * other_mass * q * (1.0 - q) * (p - q_tilde) * (p - q_tilde)
            / (self.cohorts as f64 * (p - q) * (p - q));
        base + collision
    }

    fn report_bits(&self) -> usize {
        (64 - (self.cohorts as u64 - 1).leading_zeros()) as usize
            + (64 - (self.g - 1).leading_zeros()) as usize
    }
}

/// Aggregator for [`CohortLocalHashing`]: the `C×g` matrix of perturbed
/// bucket counts — a constant-size sufficient statistic.
///
/// A full-domain `estimate()` walks the matrix once per cohort,
/// `O(C·d)` hash evaluations total, independent of the report count; the
/// cohort loop is outermost so each `g`-wide row stays in cache.
#[derive(Debug, Clone)]
pub struct CohortLhAggregator {
    /// Row-major `C×g` bucket counts: `counts[c*g + b]`.
    counts: Vec<u64>,
    n: usize,
    d: u64,
    g: u64,
    cohorts: u32,
    seed_base: u64,
    family: HashFamily,
    p: f64,
    q: f64,
}

impl CohortLhAggregator {
    /// The raw row-major `C×g` count matrix (for tests and persistence).
    pub fn count_matrix(&self) -> &[u64] {
        &self.counts
    }

    /// Raw support counts (reports whose cohort hashes the item onto the
    /// reported bucket) for each queried item. Takes a re-iterable item
    /// sequence so the full-domain sweep can pass `0..d` without
    /// materializing an all-items scratch `Vec`; the cohort loop stays
    /// outermost so each `g`-wide row stays in cache.
    fn support_counts<I>(&self, items: I, len: usize) -> Vec<u64>
    where
        I: Iterator<Item = u64> + Clone,
    {
        let g = self.g as usize;
        let mut support = vec![0u64; len];
        for c in 0..self.cohorts {
            let seed = cohort_seed(self.seed_base, c);
            let row = &self.counts[c as usize * g..(c as usize + 1) * g];
            for (s, v) in support.iter_mut().zip(items.clone()) {
                debug_assert!(v < self.d, "item {v} outside domain {}", self.d);
                *s += row[self.family.hash(v, seed) as usize];
            }
        }
        support
    }

    /// True when `report` names a cell of the `C×g` matrix.
    pub(crate) fn fits(&self, report: &CohortLhReport) -> bool {
        report.cohort < self.cohorts && u64::from(report.bucket) < self.g
    }

    /// Counts one report its caller has range-checked with
    /// [`fits`](Self::fits).
    pub(crate) fn count(&mut self, report: &CohortLhReport) {
        self.counts[report.cohort as usize * self.g as usize + report.bucket as usize] += 1;
        self.n += 1;
    }

    /// Debiases raw support counts into unbiased count estimates.
    fn debias(&self, support: Vec<u64>) -> Vec<f64> {
        let n = self.n as f64;
        support
            .into_iter()
            .map(|s| (s as f64 - n * self.q) / (self.p - self.q))
            .collect()
    }
}

impl CounterState for CohortLhAggregator {
    const STATE_TAG: u8 = crate::snapshot::state_tag::COHORT_HASH;
    const NAME: &'static str = "OLH-C";

    fn config_bytes(&self, out: &mut Vec<u8>) {
        crate::wire::put_uvarint(out, self.d);
        crate::wire::put_uvarint(out, self.g);
        crate::wire::put_uvarint(out, u64::from(self.cohorts));
        crate::wire::put_u64_le(out, self.seed_base);
        crate::wire::put_f64_le(out, self.p);
        crate::wire::put_f64_le(out, self.q);
    }

    crate::counter_fields!(Count n, Plane counts);
}

impl FoAggregator for CohortLhAggregator {
    type Report = CohortLhReport;

    fn try_accumulate(&mut self, report: &CohortLhReport) -> crate::Result<()> {
        if !self.fits(report) {
            return Err(crate::LdpError::Malformed(format!(
                "cohort report ({}, {}) outside the {}x{} cohort matrix",
                report.cohort, report.bucket, self.cohorts, self.g
            )));
        }
        self.count(report);
        Ok(())
    }

    fn reports(&self) -> usize {
        self.n
    }

    fn estimate(&self) -> Vec<f64> {
        // Sweep the domain range directly — no all-items scratch Vec.
        self.debias(self.support_counts(0..self.d, self.d as usize))
    }

    fn estimate_items(&self, items: &[u64]) -> Vec<f64> {
        self.debias(self.support_counts(items.iter().copied(), items.len()))
    }

    fn merge(&mut self, other: Self) -> crate::Result<()> {
        counters::merge(self, &other)
    }

    fn try_subtract(&mut self, other: &Self) -> crate::Result<()> {
        counters::subtract(self, other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn olh_bucket_count_tracks_eps() {
        assert_eq!(OptimizedLocalHashing::new(100, eps(1.0)).g(), 4); // e+1 ≈ 3.7 -> 4
        assert_eq!(OptimizedLocalHashing::new(100, eps(2.0)).g(), 8); // e^2+1 ≈ 8.4 -> 8
        assert!(OptimizedLocalHashing::new(100, eps(0.1)).g() >= 2);
    }

    #[test]
    fn olh_matches_oue_noise_floor_approximately() {
        let e = eps(1.0);
        let n = 1000;
        let olh = OptimizedLocalHashing::new(1 << 16, e);
        let expected = n as f64 * 4.0 * 1.0f64.exp() / (1.0f64.exp() - 1.0).powi(2);
        let got = olh.noise_floor_variance(n);
        // g is rounded to an integer so allow 15% slack.
        assert!(
            (got - expected).abs() / expected < 0.15,
            "got={got} expected={expected}"
        );
    }

    #[test]
    fn blh_noise_floor_formula() {
        // BLH: p = e^eps/(e^eps+1), q = 1/2 ->
        // Var* = n q(1-q)/(p-q)^2 = n (e^eps+1)^2 / (e^eps-1)^2.
        let e = 1.0f64;
        let blh = BinaryLocalHashing::new(1000, eps(e));
        let n = 500;
        let expected = n as f64 * (e.exp() + 1.0).powi(2) / (e.exp() - 1.0).powi(2);
        let got = blh.noise_floor_variance(n);
        assert!(
            (got - expected).abs() / expected < 1e-9,
            "got={got} expected={expected}"
        );
    }

    #[test]
    fn olh_estimates_unbiased() {
        let olh = OptimizedLocalHashing::new(64, eps(2.0));
        let mut rng = StdRng::seed_from_u64(51);
        let n = 40_000;
        let mut agg = olh.new_aggregator();
        for u in 0..n {
            let v = (u % 8) as u64; // items 0..8 each hold 1/8 of users
            agg.accumulate(&olh.randomize(v, &mut rng));
        }
        let est = agg.estimate();
        for (i, &e) in est.iter().enumerate().take(8) {
            let truth = n as f64 / 8.0;
            let sd = olh.count_variance(n, 1.0 / 8.0).sqrt();
            assert!((e - truth).abs() < 5.0 * sd, "item {i}: est={e}");
        }
        // Unheld items near zero.
        for (i, &e) in est.iter().enumerate().skip(8) {
            let sd = olh.noise_floor_variance(n).sqrt();
            assert!(e.abs() < 5.0 * sd, "item {i}: est={e}");
        }
    }

    #[test]
    fn estimate_items_matches_full_estimate() {
        let olh = OptimizedLocalHashing::new(32, eps(1.0));
        let mut rng = StdRng::seed_from_u64(53);
        let mut agg = olh.new_aggregator();
        for u in 0..2000u64 {
            agg.accumulate(&olh.randomize(u % 32, &mut rng));
        }
        let full = agg.estimate();
        let subset = agg.estimate_items(&[0, 7, 31]);
        assert_eq!(subset[0], full[0]);
        assert_eq!(subset[1], full[7]);
        assert_eq!(subset[2], full[31]);
    }

    #[test]
    fn blh_estimates_unbiased() {
        let blh = BinaryLocalHashing::new(16, eps(2.0));
        let mut rng = StdRng::seed_from_u64(57);
        let n = 60_000;
        let mut agg = blh.new_aggregator();
        for u in 0..n {
            agg.accumulate(&blh.randomize((u % 4) as u64, &mut rng));
        }
        let est = agg.estimate();
        let sd = blh.count_variance(n, 0.25).sqrt();
        for (i, &e) in est.iter().enumerate().take(4) {
            assert!(
                (e - n as f64 / 4.0).abs() < 5.0 * sd,
                "item {i}: est={e} sd={sd}"
            );
        }
    }

    #[test]
    fn report_size_constant_in_domain() {
        let e = eps(1.0);
        let small = OptimizedLocalHashing::new(16, e);
        let huge = OptimizedLocalHashing::new(1 << 40, e);
        assert_eq!(small.report_bits(), huge.report_bits());
        assert!(small.report_bits() <= 70);
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn out_of_domain_panics() {
        let olh = OptimizedLocalHashing::new(8, eps(1.0));
        let mut rng = StdRng::seed_from_u64(0);
        olh.randomize(8, &mut rng);
    }

    #[test]
    fn cohort_seeds_distinct_and_deterministic() {
        let c = CohortLocalHashing::optimized(100, 256, eps(1.0));
        let seeds: std::collections::HashSet<u64> = (0..256).map(|i| c.cohort_seed(i)).collect();
        assert_eq!(seeds.len(), 256, "cohort seeds must be distinct");
        let c2 = CohortLocalHashing::optimized(100, 256, eps(1.0));
        assert_eq!(c.cohort_seed(17), c2.cohort_seed(17));
    }

    /// Mirror of `olh_estimates_unbiased` for cohort mode: held items
    /// recover their counts, unheld items sit near zero, within the
    /// tolerance predicted by the cohort-aware `count_variance` (which
    /// charges the shared-collision term on top of the OLH noise floor).
    #[test]
    fn cohort_olh_estimates_unbiased() {
        let olh = CohortLocalHashing::optimized(64, 1024, eps(2.0));
        let mut rng = StdRng::seed_from_u64(51);
        let n = 40_000;
        let mut agg = olh.new_aggregator();
        for u in 0..n {
            let v = (u % 8) as u64; // items 0..8 each hold 1/8 of users
            agg.accumulate(&olh.randomize(v, &mut rng));
        }
        assert_eq!(agg.reports(), n);
        let est = agg.estimate();
        for (i, &e) in est.iter().enumerate().take(8) {
            let truth = n as f64 / 8.0;
            let sd = olh.count_variance(n, 1.0 / 8.0).sqrt();
            assert!((e - truth).abs() < 5.0 * sd, "item {i}: est={e} sd={sd}");
        }
        for (i, &e) in est.iter().enumerate().skip(8) {
            let sd = olh.noise_floor_variance(n).sqrt();
            assert!(e.abs() < 5.0 * sd, "item {i}: est={e}");
        }
    }

    /// The analytical variance story: across trials with rotated seed
    /// bases, the empirical variance of an unheld item's estimate must
    /// (a) exceed the plain OLH noise floor — the collision term is real —
    /// (b) track the exact collision formula `Σ n_u²·q(1−q)/(C(p−q)²)`
    /// computable here from the known population, and (c) stay below the
    /// worst-case bound `count_variance` charges.
    #[test]
    fn cohort_olh_variance_matches_analysis() {
        let (d, n, cohorts) = (32u64, 8_000usize, 64u32);
        let e = eps(2.0);
        let trials = 80;
        let probe = 20u64; // unheld item
        let ests: Vec<f64> = (0..trials)
            .map(|t| {
                let olh = CohortLocalHashing::with_params(d, 8, cohorts, 0xc0ff_ee00 + t as u64, e);
                let mut rng = StdRng::seed_from_u64(9000 + t as u64);
                let mut agg = olh.new_aggregator();
                for u in 0..n {
                    agg.accumulate(&olh.randomize((u % 4) as u64, &mut rng));
                }
                agg.estimate_items(&[probe])[0]
            })
            .collect();
        let mean = ests.iter().sum::<f64>() / trials as f64;
        let var = ests.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / trials as f64;

        let olh = CohortLocalHashing::with_params(d, 8, cohorts, 0, e);
        let (p, q) = olh.support_probabilities();
        let floor = debiased_count_variance(n, 0.0, p, q);
        // Exact collision term for this population: 4 items × (n/4)² each,
        // each collision moving a user's support probability q̃ → p.
        let q_tilde = (1.0 - p) / 7.0;
        let per_item = (n / 4) as f64;
        let collision_exact =
            4.0 * per_item * per_item * q * (1.0 - q) * (p - q_tilde) * (p - q_tilde)
                / (cohorts as f64 * (p - q) * (p - q));
        let predicted = floor + collision_exact;
        let bound = olh.count_variance(n, 0.0);

        // Unbiased over the seed-base draw: 5σ of the trial mean.
        let sd_of_mean = (predicted / trials as f64).sqrt();
        assert!(mean.abs() < 5.0 * sd_of_mean, "mean={mean} sd={sd_of_mean}");
        assert!(
            var > floor,
            "collision term missing: var={var} floor={floor}"
        );
        assert!(
            (var - predicted).abs() / predicted < 0.45,
            "var={var} predicted={predicted}"
        );
        assert!(predicted <= bound, "bound must dominate the exact term");
    }

    #[test]
    fn cohort_estimate_items_matches_full_estimate() {
        let olh = CohortLocalHashing::optimized(32, 128, eps(1.0));
        let mut rng = StdRng::seed_from_u64(53);
        let mut agg = olh.new_aggregator();
        for u in 0..2000u64 {
            agg.accumulate(&olh.randomize(u % 32, &mut rng));
        }
        let full = agg.estimate();
        let subset = agg.estimate_items(&[0, 7, 31]);
        assert_eq!(subset[0], full[0]);
        assert_eq!(subset[1], full[7]);
        assert_eq!(subset[2], full[31]);
    }

    #[test]
    fn cohort_matrix_is_sufficient_statistic() {
        let olh = CohortLocalHashing::optimized(16, 32, eps(1.0));
        let mut rng = StdRng::seed_from_u64(59);
        let mut agg = olh.new_aggregator();
        for u in 0..500u64 {
            agg.accumulate(&olh.randomize(u % 16, &mut rng));
        }
        let matrix = agg.count_matrix();
        assert_eq!(matrix.len(), 32 * olh.g() as usize);
        assert_eq!(matrix.iter().sum::<u64>(), 500, "every report lands once");
    }

    #[test]
    fn cohort_report_bits_constant_in_domain() {
        let e = eps(1.0);
        let small = CohortLocalHashing::optimized(16, 1024, e);
        let huge = CohortLocalHashing::optimized(1 << 40, 1024, e);
        assert_eq!(small.report_bits(), huge.report_bits());
        assert_eq!(small.report_bits(), 10 + 2); // 1024 cohorts, g=4
    }

    #[test]
    fn merge_matches_sequential_for_both_lh_modes() {
        let e = eps(1.0);
        let mut rng = StdRng::seed_from_u64(61);

        let cohort = CohortLocalHashing::optimized(32, 64, e);
        let reports: Vec<_> = (0..300)
            .map(|u| cohort.randomize(u % 32, &mut rng))
            .collect();
        let mut seq = cohort.new_aggregator();
        let (mut a, mut b) = (cohort.new_aggregator(), cohort.new_aggregator());
        for (i, r) in reports.iter().enumerate() {
            seq.accumulate(r);
            if i < 100 {
                a.accumulate(r);
            } else {
                b.accumulate(r);
            }
        }
        a.merge(b).unwrap();
        assert_eq!(a.reports(), seq.reports());
        assert_eq!(a.count_matrix(), seq.count_matrix());
        assert_eq!(a.estimate(), seq.estimate());

        let raw = OptimizedLocalHashing::new(32, e);
        let reports: Vec<_> = (0..300).map(|u| raw.randomize(u % 32, &mut rng)).collect();
        let mut seq = raw.new_aggregator();
        let (mut a, mut b) = (raw.new_aggregator(), raw.new_aggregator());
        for (i, r) in reports.iter().enumerate() {
            seq.accumulate(r);
            if i < 137 {
                a.accumulate(r);
            } else {
                b.accumulate(r);
            }
        }
        a.merge(b).unwrap();
        assert_eq!(a.reports(), seq.reports());
        assert_eq!(a.estimate(), seq.estimate());
    }

    #[test]
    fn cohort_merge_rejects_mismatched_seed_base() {
        let e = eps(1.0);
        let a = CohortLocalHashing::with_params(16, 4, 8, 1, e);
        let b = CohortLocalHashing::with_params(16, 4, 8, 2, e);
        let mut rng = StdRng::seed_from_u64(3);
        let mut agg = a.new_aggregator();
        agg.accumulate(&a.randomize(5, &mut rng));
        let before = agg.clone();
        assert!(matches!(
            agg.merge(b.new_aggregator()),
            Err(crate::LdpError::StateMismatch(_))
        ));
        assert_eq!(agg.count_matrix(), before.count_matrix());
        assert_eq!(agg.reports(), before.reports());
    }
}
