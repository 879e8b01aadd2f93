//! dBitFlip: Microsoft's d-bit histogram estimator.
//!
//! The value space (e.g. app-usage seconds) is bucketized into `k` buckets.
//! Each device is randomly responsible for `d ≤ k` buckets (sampled
//! without replacement at enrollment); at collection time it sends, for
//! each of its buckets `j`, the bit `1[v ∈ bucket j]` flipped through
//! symmetric randomized response with probability `e^{ε/2}/(e^{ε/2}+1)`.
//!
//! Changing a device's value changes at most **two** of its (one-hot)
//! bucket bits, so per-bit `ε/2` randomized response yields ε-LDP overall —
//! the same accounting as SUE, but with communication `d` bits instead of
//! `k`. The server debiases each bucket over the devices responsible for
//! it and rescales by `k/d`; the per-bucket standard deviation is
//! `√(k/d)`-fold that of full SUE, the accuracy/communication dial the
//! paper exposes.
//!
//! ## Batch engine
//!
//! The client channel decomposes into two stages the batch engine can
//! amortize, shared verbatim by the scalar and fused paths:
//!
//! 1. **Bucket sampling** — `d` distinct of `k`: rejection sampling when
//!    `d ≪ k` (expected `O(d)` draws, no `O(k)` pool — the naive
//!    Fisher–Yates pool is what made the old path allocate and touch `k`
//!    words per report), falling back to a partial Fisher–Yates over a
//!    reusable pool when `d` is a large fraction of `k`.
//! 2. **Bit flips** — each of the `d` bits flips with the *small*
//!    probability `q = 1/(e^{ε/2}+1)`, so flipped positions are sampled
//!    with the shared geometric-skip sampler
//!    ([`ldp_core::fo::batch::GeometricSkip`]): `1 + d·q` draws instead
//!    of `d`.
//!
//! [`DBitFlip`] also implements `ldp_core::fo::FrequencyOracle` (the
//! bucket index is the item), with a fused
//! `randomize_accumulate_batch` that folds reports straight into the
//! integer [`DBitAggregator`] counters with zero per-report allocation —
//! which is what lets `ldp_workloads::parallel` shard its collection.

use ldp_core::estimate::debias_count;
use ldp_core::fo::batch::GeometricSkip;
use ldp_core::fo::counters::{self, CounterState};
use ldp_core::fo::{FoAggregator, FrequencyOracle};
use ldp_core::{Epsilon, Error, Result};
use rand::{Rng, RngCore};

/// One dBitFlip report: which buckets the device covers, and its noisy
/// bits for them (parallel arrays).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DBitReport {
    /// The `d` bucket indices this device is responsible for (sorted).
    pub buckets: Vec<u32>,
    /// Noisy indicator bits, one per entry of `buckets`.
    pub bits: Vec<bool>,
}

/// The dBitFlip mechanism over `k` buckets with `d` bits per device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DBitFlip {
    k: u32,
    d: u32,
    epsilon: Epsilon,
    /// Pr[bit kept truthful] = e^{ε/2}/(e^{ε/2}+1).
    p: f64,
    /// Geometric-skip sampler for the per-bit flip rate `q = 1 − p`,
    /// precomputed once; shared by the scalar and fused paths so both
    /// consume identical RNG streams.
    flip_skip: GeometricSkip,
}

impl DBitFlip {
    /// Creates the mechanism.
    ///
    /// # Errors
    /// Returns [`Error::InvalidParameter`] unless `1 ≤ d ≤ k` and `k ≥ 2`.
    pub fn new(k: u32, d: u32, epsilon: Epsilon) -> Result<Self> {
        if k < 2 {
            return Err(Error::InvalidParameter(format!(
                "need k >= 2 buckets, got {k}"
            )));
        }
        if d == 0 || d > k {
            return Err(Error::InvalidParameter(format!(
                "need 1 <= d <= k, got d={d} k={k}"
            )));
        }
        let half = (epsilon.value() / 2.0).exp();
        let p = half / (half + 1.0);
        Ok(Self {
            k,
            d,
            epsilon,
            p,
            flip_skip: GeometricSkip::new(1.0 - p),
        })
    }

    /// Bucket count `k`.
    pub fn buckets(&self) -> u32 {
        self.k
    }

    /// Bits per device `d`.
    pub fn bits_per_device(&self) -> u32 {
        self.d
    }

    /// Privacy parameter.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// Pr[bit kept truthful] = `e^{ε/2}/(e^{ε/2}+1)`.
    pub fn keep_prob(&self) -> f64 {
        self.p
    }

    /// Samples the device's `d` distinct buckets into `out` (sorted
    /// ascending), reusing `pool` as Fisher–Yates scratch when the dense
    /// branch is taken. The single bucket-sampling core behind both the
    /// scalar and the fused paths — which is what makes their RNG streams
    /// identical.
    ///
    /// Branch selection is deterministic in `(k, d)`: rejection sampling
    /// when `4·d ≤ k` (expected `< 4/3` draws per bucket, never touches
    /// `pool`), partial Fisher–Yates otherwise (exactly `d` draws, `O(k)`
    /// pool reset).
    fn sample_buckets_into<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        out: &mut Vec<u32>,
        pool: &mut Vec<u32>,
    ) {
        out.clear();
        let (k, d) = (self.k as usize, self.d as usize);
        if d * 4 <= k {
            // Sparse: rejection against the already-picked prefix. The
            // linear membership scan is O(d²) worst case, but d ≤ k/4
            // keeps d small exactly when this branch is selected.
            while out.len() < d {
                let c = rng.gen_range(0..self.k);
                if !out.contains(&c) {
                    out.push(c);
                }
            }
        } else {
            // Dense: partial Fisher–Yates over a reusable pool.
            pool.clear();
            pool.extend(0..self.k);
            for i in 0..d {
                let j = rng.gen_range(i..k);
                pool.swap(i, j);
            }
            out.extend_from_slice(&pool[..d]);
        }
        out.sort_unstable();
    }

    /// Samples a fresh device bucket set (enrollment): `d` distinct
    /// buckets, sorted ascending.
    pub fn sample_buckets<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.d as usize);
        let mut pool = Vec::new();
        self.sample_buckets_into(rng, &mut out, &mut pool);
        out
    }

    /// Client side: sample the device's bucket set (enrollment) and
    /// produce its noisy bits for a value in bucket `value_bucket`.
    ///
    /// # Panics
    /// Panics if `value_bucket >= k`.
    pub fn randomize<R: Rng + ?Sized>(&self, value_bucket: u32, rng: &mut R) -> DBitReport {
        assert!(
            value_bucket < self.k,
            "bucket {value_bucket} out of range {}",
            self.k
        );
        let buckets = self.sample_buckets(rng);
        let mut bits: Vec<bool> = buckets.iter().map(|&j| j == value_bucket).collect();
        self.flip_skip.sample_into(self.d as u64, rng, |i| {
            let b = &mut bits[i as usize];
            *b = !*b;
        });
        DBitReport { buckets, bits }
    }

    /// Creates an empty aggregator.
    pub fn new_aggregator(&self) -> DBitAggregator {
        DBitAggregator {
            ones: vec![0; self.k as usize],
            covered: vec![0; self.k as usize],
            n: 0,
            d: self.d,
            p: self.p,
        }
    }

    /// Per-bucket count variance over `n` devices (noise floor):
    /// each bucket is covered by `≈ n·d/k` devices with SUE-grade noise,
    /// then rescaled by `k/d`.
    ///
    /// This method is the formula's single home: the planner's cost
    /// model (registered by [`crate::register_mechanisms`]) prices
    /// dBitFlip plans by instantiating the mechanism and delegating here.
    pub fn count_variance(&self, n: usize) -> f64 {
        let covered = n as f64 * self.d as f64 / self.k as f64;
        let q = 1.0 - self.p;
        let per_covered = covered * q * (1.0 - q) / (self.p - q).powi(2);
        per_covered * (self.k as f64 / self.d as f64).powi(2)
    }
}

impl FrequencyOracle for DBitFlip {
    type Report = DBitReport;
    type Aggregator = DBitAggregator;

    fn name(&self) -> &'static str {
        "dBitFlip"
    }

    fn domain_size(&self) -> u64 {
        self.k as u64
    }

    fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    fn randomize(&self, value: u64, rng: &mut dyn RngCore) -> DBitReport {
        assert!(
            value < self.k as u64,
            "bucket {value} out of range {}",
            self.k
        );
        DBitFlip::randomize(self, value as u32, rng)
    }

    fn randomize_batch<R, F>(&self, values: &[u64], rng: &mut R, mut sink: F)
    where
        R: RngCore,
        F: FnMut(&DBitReport),
    {
        for &v in values {
            assert!(v < self.k as u64, "bucket {v} out of range {}", self.k);
            sink(&DBitFlip::randomize(self, v as u32, rng));
        }
    }

    /// Fused batch path: reuses one bucket/pool/flip scratch for the
    /// whole batch and folds each report's `(bucket, bit)` pairs straight
    /// into the integer counters — zero per-report allocation,
    /// monomorphized draws, same RNG stream as the scalar loop.
    fn randomize_accumulate_batch<R: RngCore>(
        &self,
        values: &[u64],
        rng: &mut R,
        agg: &mut DBitAggregator,
    ) {
        assert!(
            agg.ones.len() == self.k as usize && agg.p == self.p,
            "aggregator configured for a different dBitFlip mechanism"
        );
        let d = self.d as usize;
        let mut buckets: Vec<u32> = Vec::with_capacity(d);
        let mut pool: Vec<u32> = Vec::new();
        let mut flips: Vec<u32> = Vec::with_capacity(d);
        for &v in values {
            assert!(v < self.k as u64, "bucket {v} out of range {}", self.k);
            self.sample_buckets_into(rng, &mut buckets, &mut pool);
            flips.clear();
            self.flip_skip
                .sample_into(self.d as u64, rng, |i| flips.push(i as u32));
            // Walk the sorted bucket list against the (sorted) flip
            // positions: bit = 1[j == v] XOR flipped.
            let mut fi = 0usize;
            for (idx, &j) in buckets.iter().enumerate() {
                let flipped = fi < flips.len() && flips[fi] == idx as u32;
                fi += usize::from(flipped);
                let bit = (j as u64 == v) != flipped;
                agg.covered[j as usize] += 1;
                agg.ones[j as usize] += u64::from(bit);
            }
            agg.n += 1;
        }
    }

    fn new_aggregator(&self) -> DBitAggregator {
        DBitFlip::new_aggregator(self)
    }

    /// The analytical per-bucket noise floor (`f`-independent: the
    /// dominant terms are the flip noise and the `k/d` coverage
    /// rescaling), verified empirically in
    /// `crates/microsoft/tests/batch_identity.rs`.
    fn count_variance(&self, n: usize, _f: f64) -> f64 {
        DBitFlip::count_variance(self, n)
    }

    fn report_bits(&self) -> usize {
        // d bucket indices plus d payload bits.
        self.d as usize * (1 + (self.k as u64).next_power_of_two().trailing_zeros() as usize)
    }
}

/// Aggregator for [`DBitFlip`].
#[derive(Debug, Clone)]
pub struct DBitAggregator {
    /// Noisy 1-counts per bucket.
    ones: Vec<u64>,
    /// Number of devices covering each bucket.
    covered: Vec<u64>,
    n: usize,
    /// Bits per device: every legitimate report covers exactly `d`
    /// distinct buckets (the protocol's per-report influence bound).
    d: u32,
    p: f64,
}

impl DBitAggregator {
    /// Folds one report in.
    ///
    /// # Panics
    /// Panics if the report's arrays disagree or reference unknown buckets.
    pub fn accumulate(&mut self, report: &DBitReport) {
        assert_eq!(report.buckets.len(), report.bits.len(), "malformed report");
        self.accumulate_bits(
            report
                .buckets
                .iter()
                .zip(&report.bits)
                .map(|(&j, &b)| (j, b)),
        );
    }

    /// Folds one report given as `(bucket, bit)` pairs, without requiring
    /// a materialized [`DBitReport`] — the allocation-free entry point
    /// used by the memoized repeated-collection clients and the fused
    /// pipeline path. Bit-identical to [`accumulate`](Self::accumulate)
    /// on the equivalent report.
    ///
    /// # Panics
    /// Panics if a bucket index is out of range.
    pub fn accumulate_bits(&mut self, pairs: impl IntoIterator<Item = (u32, bool)>) {
        for (j, b) in pairs {
            let j = j as usize;
            assert!(j < self.ones.len(), "bucket {j} out of range");
            self.covered[j] += 1;
            self.ones[j] += u64::from(b);
        }
        self.n += 1;
    }

    /// Whether this aggregator was configured for `mech` (bucket count
    /// and keep probability agree) — the compatibility check behind the
    /// fused paths' mismatch assertions.
    pub fn compatible_with(&self, mech: &DBitFlip) -> bool {
        self.ones.len() == mech.buckets() as usize
            && self.d == mech.bits_per_device()
            && self.p == mech.keep_prob()
    }

    /// Devices accumulated.
    pub fn reports(&self) -> usize {
        self.n
    }

    /// Unbiased histogram estimate (population counts per bucket):
    /// debias over covering devices, then scale by `n / covered_j`.
    pub fn estimate(&self) -> Vec<f64> {
        let q = 1.0 - self.p;
        self.ones
            .iter()
            .zip(&self.covered)
            .map(|(&ones, &cov)| {
                if cov == 0 {
                    return 0.0;
                }
                let debiased = debias_count(ones as f64, cov as usize, self.p, q);
                debiased * self.n as f64 / cov as f64
            })
            .collect()
    }
}

impl CounterState for DBitAggregator {
    const STATE_TAG: u8 = ldp_core::snapshot::state_tag::MS_DBIT;
    const NAME: &'static str = "dBitFlip";

    fn config_bytes(&self, out: &mut Vec<u8>) {
        ldp_core::wire::put_uvarint(out, u64::from(self.d));
        ldp_core::wire::put_f64_le(out, self.p);
    }

    ldp_core::counter_fields!(Count n, Plane ones, Plane covered);
}

impl FoAggregator for DBitAggregator {
    type Report = DBitReport;

    fn accumulate(&mut self, report: &DBitReport) {
        DBitAggregator::accumulate(self, report);
    }

    fn try_accumulate(&mut self, report: &DBitReport) -> ldp_core::Result<()> {
        let k = self.ones.len();
        if report.buckets.len() != report.bits.len() {
            return Err(Error::Malformed(format!(
                "dBitFlip report with {} buckets but {} bits",
                report.buckets.len(),
                report.bits.len()
            )));
        }
        // The protocol's influence bound: exactly `d` buckets per
        // device (a k-bucket "report" would vote k/d times over).
        if report.buckets.len() != self.d as usize {
            return Err(Error::Malformed(format!(
                "dBitFlip report covers {} buckets, protocol says {}",
                report.buckets.len(),
                self.d
            )));
        }
        if let Some(&j) = report.buckets.iter().find(|&&j| j as usize >= k) {
            return Err(Error::Malformed(format!(
                "dBitFlip bucket {j} outside range {k}"
            )));
        }
        DBitAggregator::accumulate(self, report);
        Ok(())
    }

    fn reports(&self) -> usize {
        self.n
    }

    fn estimate(&self) -> Vec<f64> {
        DBitAggregator::estimate(self)
    }

    fn merge(&mut self, other: Self) -> Result<()> {
        counters::merge(self, &other)
    }

    fn try_subtract(&mut self, other: &Self) -> Result<()> {
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
    fn validation() {
        assert!(DBitFlip::new(1, 1, eps(1.0)).is_err());
        assert!(DBitFlip::new(8, 0, eps(1.0)).is_err());
        assert!(DBitFlip::new(8, 9, eps(1.0)).is_err());
        assert!(DBitFlip::new(8, 8, eps(1.0)).is_ok());
    }

    /// The wire-facing checked accumulate enforces the per-device
    /// influence bound: exactly `d` in-range buckets per report.
    #[test]
    fn try_accumulate_enforces_bucket_count() {
        use ldp_core::fo::FoAggregator;
        let m = DBitFlip::new(32, 4, eps(1.0)).unwrap();
        let mut agg = DBitFlip::new_aggregator(&m);
        let ok = DBitReport {
            buckets: vec![1, 5, 9, 30],
            bits: vec![true, false, true, false],
        };
        assert!(agg.try_accumulate(&ok).is_ok());
        // Covering all k buckets would vote k/d times over; reject it.
        let all = DBitReport {
            buckets: (0..32).collect(),
            bits: vec![true; 32],
        };
        assert!(agg.try_accumulate(&all).is_err());
        let out_of_range = DBitReport {
            buckets: vec![1, 5, 9, 32],
            bits: vec![true; 4],
        };
        assert!(agg.try_accumulate(&out_of_range).is_err());
        let mismatched = DBitReport {
            buckets: vec![1, 5, 9, 30],
            bits: vec![true; 3],
        };
        assert!(agg.try_accumulate(&mismatched).is_err());
        assert_eq!(agg.reports(), 1, "rejected reports leave state intact");
    }

    #[test]
    fn report_shape() {
        let m = DBitFlip::new(32, 4, eps(1.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let r = m.randomize(5, &mut rng);
        assert_eq!(r.buckets.len(), 4);
        assert_eq!(r.bits.len(), 4);
        let mut sorted = r.buckets.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "buckets must be distinct");
        assert!(r.buckets.iter().all(|&b| b < 32));
    }

    /// Both sampling branches must yield distinct sorted in-range buckets
    /// at a uniform per-bucket rate.
    #[test]
    fn bucket_sampling_uniform_both_branches() {
        let mut rng = StdRng::seed_from_u64(17);
        // (k, d) pairs straddling the rejection/Fisher–Yates switch.
        for (k, d) in [(32u32, 4u32), (8, 5)] {
            let m = DBitFlip::new(k, d, eps(1.0)).unwrap();
            let trials = 40_000;
            let mut counts = vec![0u64; k as usize];
            for _ in 0..trials {
                let b = m.sample_buckets(&mut rng);
                assert_eq!(b.len(), d as usize);
                assert!(b.windows(2).all(|w| w[0] < w[1]), "sorted distinct: {b:?}");
                for &j in &b {
                    counts[j as usize] += 1;
                }
            }
            let expect = trials as f64 * d as f64 / k as f64;
            let sd = (trials as f64 * (d as f64 / k as f64) * (1.0 - d as f64 / k as f64)).sqrt();
            for (j, &c) in counts.iter().enumerate() {
                assert!(
                    (c as f64 - expect).abs() < 6.0 * sd,
                    "k={k} d={d} bucket {j}: {c} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn histogram_unbiased() {
        let m = DBitFlip::new(16, 4, eps(2.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 60_000;
        let mut agg = m.new_aggregator();
        let mut truth = [0f64; 16];
        for u in 0..n {
            // Skewed: bucket u%4 for most, bucket 8 for some.
            let b = if u % 10 == 0 { 8 } else { (u % 4) as u32 };
            truth[b as usize] += 1.0;
            agg.accumulate(&m.randomize(b, &mut rng));
        }
        let est = agg.estimate();
        let sd = m.count_variance(n).sqrt();
        for j in 0..16 {
            assert!(
                (est[j] - truth[j]).abs() < 5.0 * sd,
                "bucket {j}: est={} truth={} sd={sd}",
                est[j],
                truth[j]
            );
        }
    }

    #[test]
    fn full_coverage_matches_sue_accuracy() {
        // d = k: every device covers every bucket; variance should equal
        // the SUE noise floor (no k/d inflation).
        let m_full = DBitFlip::new(8, 8, eps(1.0)).unwrap();
        let m_sub = DBitFlip::new(8, 2, eps(1.0)).unwrap();
        assert!(m_full.count_variance(1000) < m_sub.count_variance(1000));
        let ratio = m_sub.count_variance(1000) / m_full.count_variance(1000);
        assert!((ratio - 4.0).abs() < 0.1, "k/d variance inflation: {ratio}");
    }

    #[test]
    fn estimates_sum_near_n() {
        let m = DBitFlip::new(8, 4, eps(2.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let mut agg = m.new_aggregator();
        for u in 0..n {
            agg.accumulate(&m.randomize((u % 8) as u32, &mut rng));
        }
        let total: f64 = agg.estimate().iter().sum();
        assert!((total - n as f64).abs() < n as f64 * 0.1, "total={total}");
    }

    /// The fused oracle path must land on exactly the counters the scalar
    /// loop produces — both sampling branches.
    #[test]
    fn fused_batch_bit_identical_to_scalar() {
        for (k, d) in [(64u32, 4u32), (8, 6)] {
            let m = DBitFlip::new(k, d, eps(1.5)).unwrap();
            let values: Vec<u64> = (0..2000).map(|i| i % k as u64).collect();

            let mut scalar_rng = StdRng::seed_from_u64(23);
            let mut scalar = m.new_aggregator();
            for &v in &values {
                scalar.accumulate(&m.randomize(v as u32, &mut scalar_rng));
            }

            let mut fused_rng = StdRng::seed_from_u64(23);
            let mut fused = m.new_aggregator();
            m.randomize_accumulate_batch(&values, &mut fused_rng, &mut fused);

            assert_eq!(scalar.ones, fused.ones, "k={k} d={d}");
            assert_eq!(scalar.covered, fused.covered, "k={k} d={d}");
            assert_eq!(scalar.reports(), fused.reports());
        }
    }

    #[test]
    fn merge_matches_sequential() {
        let m = DBitFlip::new(16, 4, eps(2.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(29);
        let mut a = m.new_aggregator();
        for u in 0..800u32 {
            a.accumulate(&m.randomize(u % 16, &mut rng));
        }
        let mut b = m.new_aggregator();
        for u in 0..800u32 {
            b.accumulate(&m.randomize(u % 16, &mut rng));
        }

        let mut rng2 = StdRng::seed_from_u64(29);
        let mut seq = m.new_aggregator();
        for _ in 0..2 {
            for u in 0..800u32 {
                seq.accumulate(&m.randomize(u % 16, &mut rng2));
            }
        }

        a.merge(b).unwrap();
        assert_eq!(a.ones, seq.ones);
        assert_eq!(a.covered, seq.covered);
        assert_eq!(a.reports(), seq.reports());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_bucket_panics() {
        let m = DBitFlip::new(8, 2, eps(1.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        m.randomize(8, &mut rng);
    }
}
