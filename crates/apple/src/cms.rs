//! Apple's private Count-Mean Sketch (CMS) protocol.
//!
//! Client side (`A_client-CMS` in the white paper): pick a uniform sketch
//! row `j ∈ [k]`, build the ±1 one-hot vector of `h_j(value)` over `[m]`,
//! flip each coordinate's sign independently with probability
//! `1/(e^{ε/2}+1)` (two coordinates differ between any two inputs, hence
//! the `ε/2`), and send `(j, noisy vector)`.
//!
//! Server side: accumulate the `k × m` sketch and answer point queries
//! with the debiased, collision-corrected row mean
//! `f̂(d) = (m/(m−1)) · ( (1/k)·Σ_j M[j, h_j(d)] − n/m )` where
//! `M[j, l] = k · Σ (c_ε/2 · bits[l] + 1/2)` over the reports that sampled
//! row `j`, with `c_ε = (e^{ε/2}+1)/(e^{ε/2}−1)`.
//!
//! The estimate is unbiased; its variance has two parts — privatization
//! noise `Θ(k·c_ε²·…/n)`-per-report and sketch collision noise `Θ(n/m)` —
//! which is exactly the trade-off experiment E4 sweeps.
//!
//! ## Batch engine
//!
//! Sign flips are i.i.d. Bernoulli(`q`) over the `m` coordinates, so the
//! client samples the *flipped positions* with the shared geometric-skip
//! sampler ([`ldp_core::fo::batch::GeometricSkip`]): `2 + m·q` uniform
//! draws per report instead of `m`. The server keeps **integer** state —
//! per-cell `+1` counts plus per-row report counts — so the debiased
//! matrix is a pure function of exact counters: scalar accumulation,
//! fused accumulation ([`CmsServer::accumulate_fused`], `O(1 + m·q)`
//! counter increments per report, no `O(m)` scan, no allocation), and
//! sharded merges ([`CmsServer::merge`]) are all bit-identical by
//! construction. [`CmsOracle`] binds the sketch to an enumerable domain
//! and plugs it into `ldp_core::fo::FrequencyOracle`, which is what lets
//! `ldp_workloads::parallel` drive CMS collection across shards.

use ldp_core::fo::batch::GeometricSkip;
use ldp_core::fo::counters::{self, CounterState};
use ldp_core::fo::{FoAggregator, FrequencyOracle};
use ldp_core::Epsilon;
use ldp_sketch::hash::PairwiseHash;
use rand::{Rng, RngCore};

/// One CMS report: the sampled row and the privatized ±1 vector.
#[derive(Debug, Clone, PartialEq)]
pub struct CmsReport {
    /// Sampled sketch row `j ∈ [k]`.
    pub row: u32,
    /// Privatized vector over the `m` buckets, entries in `{−1, +1}`.
    pub bits: Vec<i8>,
}

impl CmsReport {
    /// An empty report buffer, for reuse with [`CmsProtocol::report_into`].
    pub fn empty() -> Self {
        Self {
            row: 0,
            bits: Vec::new(),
        }
    }
}

/// The CMS protocol parameters shared by clients and server.
#[derive(Debug, Clone, PartialEq)]
pub struct CmsProtocol {
    k: usize,
    m: usize,
    epsilon: Epsilon,
    flip_prob: f64,
    c_eps: f64,
    /// Geometric-skip sampler for the per-coordinate sign-flip rate,
    /// precomputed once (CDF boundary table); shared by the scalar and
    /// fused paths so both consume identical RNG streams.
    flip_skip: GeometricSkip,
    hashes: Vec<PairwiseHash>,
}

impl CmsProtocol {
    /// Creates a protocol with `k` hash rows and sketch width `m`, seeded
    /// deterministically so clients and server agree on the hash family.
    ///
    /// # Panics
    /// Panics if `k == 0` or `m < 2`.
    pub fn new(k: usize, m: usize, epsilon: Epsilon, seed: u64) -> Self {
        assert!(k > 0, "need at least one hash row");
        assert!(m >= 2, "sketch width must be at least 2");
        let half = (epsilon.value() / 2.0).exp();
        let hashes = (0..k)
            .map(|r| {
                PairwiseHash::from_seed(
                    seed.wrapping_add(r as u64)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    m as u64,
                )
            })
            .collect();
        let flip_prob = 1.0 / (half + 1.0);
        Self {
            k,
            m,
            epsilon,
            flip_prob,
            c_eps: (half + 1.0) / (half - 1.0),
            flip_skip: GeometricSkip::new(flip_prob),
            hashes,
        }
    }

    /// Sketch shape `(k, m)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.k, self.m)
    }

    /// Privacy parameter.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// The per-coordinate sign-flip probability `1/(e^{ε/2}+1)`.
    pub fn flip_prob(&self) -> f64 {
        self.flip_prob
    }

    /// The debias constant `c_ε`.
    pub fn c_eps(&self) -> f64 {
        self.c_eps
    }

    /// The bucket `h_j(value)`.
    pub fn bucket(&self, row: usize, value: u64) -> usize {
        self.hashes[row].hash(value) as usize
    }

    /// Samples the report's row and resolves the value's bucket in it —
    /// the first stage of the shared sampling core (one `gen_range`
    /// draw). The second stage is `flip_skip.sample_into` over the `m`
    /// coordinates; every client path (scalar, `report_into`, fused)
    /// performs exactly these two stages in order, which is what makes
    /// their RNG streams identical.
    #[inline]
    fn sample_cell<R: RngCore + ?Sized>(&self, value: u64, rng: &mut R) -> (usize, usize) {
        let row = rng.gen_range(0..self.k);
        (row, self.bucket(row, value))
    }

    /// Client side: produce a privatized report for `value`.
    pub fn randomize<R: Rng + ?Sized>(&self, value: u64, rng: &mut R) -> CmsReport {
        let mut report = CmsReport::empty();
        self.report_into(value, rng, &mut report);
        report
    }

    /// Allocation-free client side: writes the privatized report for
    /// `value` into `report`, reusing its buffer (mirrors
    /// `ldp_rappor::RapporClient::report_into`). Same RNG stream as
    /// [`randomize`](Self::randomize) — which is implemented on top of it.
    pub fn report_into<R: Rng + ?Sized>(&self, value: u64, rng: &mut R, report: &mut CmsReport) {
        let (row, bucket) = self.sample_cell(value, rng);
        let bits = &mut report.bits;
        bits.clear();
        bits.resize(self.m, -1i8);
        self.flip_skip.sample_into(self.m as u64, rng, |l| {
            let b = &mut bits[l as usize];
            *b = -*b;
        });
        // Sign flips commute with the one-hot sign, so the bucket's +1 is
        // applied after the flip pass (toggling it once more).
        bits[bucket] = -bits[bucket];
        report.row = row as u32;
    }

    /// Creates the matching server.
    pub fn new_server(&self) -> CmsServer {
        CmsServer {
            protocol: self.clone(),
            ones: vec![0; self.k * self.m],
            row_n: vec![0; self.k],
            n: 0,
        }
    }

    /// Approximate variance of a count estimate over `n` reports.
    ///
    /// Each report contributes `c_ε/2·b + ½` to the queried row-mean
    /// (its sampled row enters the `k`-row average with weight `1/k`
    /// against the accumulation scale `k`, so the row count cancels),
    /// where `b` is the privatized ±1 sign of the queried cell:
    /// `Var(b) = 1 − E[b]²/c_ε²` with `E[b] ≈ −(1 − 2/m)` for an absent
    /// item. Hence
    /// `Var ≈ (m/(m−1))² · n/4 · (c_ε² − (1 − 2/m)²)` — flip noise plus
    /// the sketch-collision spread, independent of `k`. Verified
    /// empirically in `crates/apple/tests/batch_identity.rs`.
    ///
    /// This method is the formula's single home: the planner's cost
    /// model (registered by [`crate::register_mechanisms`]) prices CMS
    /// plans by instantiating the protocol and delegating here rather
    /// than restating the algebra.
    pub fn approx_count_variance(&self, n: usize) -> f64 {
        let nf = n as f64;
        let m = self.m as f64;
        let c = self.c_eps;
        (m / (m - 1.0)).powi(2) * nf / 4.0 * (c * c - (1.0 - 2.0 / m).powi(2))
    }
}

/// Server-side CMS state: exact integer counters from which the debiased
/// `k × m` matrix is derived on demand.
///
/// Keeping counters instead of a running `f64` matrix makes every
/// accumulation path exact: the scalar [`accumulate`](Self::accumulate),
/// the fused [`accumulate_fused`](Self::accumulate_fused) and
/// [`merge`](Self::merge) all land on identical state for identical
/// reports, with no floating-point reassociation anywhere.
#[derive(Debug, Clone)]
pub struct CmsServer {
    protocol: CmsProtocol,
    /// Per-cell count of `+1` entries among the reports that sampled the
    /// cell's row (`k × m`, row-major).
    ones: Vec<u64>,
    /// Number of reports that sampled each row.
    row_n: Vec<u64>,
    n: usize,
}

impl CmsServer {
    /// Folds one report into the counters. The derived matrix cell is
    /// `M[j, l] = k · (c_ε/2 · Σ bits[l] + n_j/2)` — identical to
    /// accumulating `k·(c_ε/2·bits[l] + ½)` per report.
    ///
    /// # Panics
    /// Panics if the report's shape disagrees with the protocol.
    pub fn accumulate(&mut self, report: &CmsReport) {
        let (k, m) = self.protocol.shape();
        assert!((report.row as usize) < k, "row out of range");
        assert_eq!(report.bits.len(), m, "report width mismatch");
        let row = report.row as usize;
        let base = row * m;
        for (l, &b) in report.bits.iter().enumerate() {
            self.ones[base + l] += u64::from(b > 0);
        }
        self.row_n[row] += 1;
        self.n += 1;
    }

    /// Fused client+server step: randomizes `value` and folds the report
    /// directly into the counters — `O(1 + m·q)` increments (one per
    /// flipped coordinate) instead of an `O(m)` scan, and no report is
    /// materialized. Consumes exactly the RNG stream of
    /// [`CmsProtocol::randomize`], so the resulting state is bit-identical
    /// to `accumulate(&randomize(value, rng))`.
    ///
    /// # Panics
    /// Panics if the RNG stream is exhausted (it never is for `RngCore`).
    pub fn accumulate_fused<R: RngCore + ?Sized>(&mut self, value: u64, rng: &mut R) {
        let (row, bucket) = self.protocol.sample_cell(value, rng);
        let m = self.protocol.m;
        let base = row * m;
        let skip = self.protocol.flip_skip;
        let ones = &mut self.ones;
        // A flipped non-bucket coordinate lands at +1; a flipped bucket
        // coordinate lands at −1. Everything else keeps its base sign
        // (−1 off-bucket, +1 at the bucket).
        let mut bucket_flipped = false;
        skip.sample_into(m as u64, rng, |l| {
            let l = l as usize;
            if l == bucket {
                bucket_flipped = true;
            } else {
                ones[base + l] += 1;
            }
        });
        if !bucket_flipped {
            ones[base + bucket] += 1;
        }
        self.row_n[row] += 1;
        self.n += 1;
    }

    /// Merges another server's counters into this one, as if its reports
    /// had been accumulated here. Exact (integer addition), so sharded
    /// collection is bit-identical to sequential.
    ///
    /// # Errors
    /// As [`counters::merge`]: a protocol mismatch (shape, budget or hash
    /// family) or a counter overflow; `self` is unchanged on error.
    pub fn merge(&mut self, other: Self) -> ldp_core::Result<()> {
        counters::merge(self, &other)
    }

    /// Subtracts another server's counters from this one — the exact
    /// inverse of [`merge`](Self::merge) for retiring a window delta
    /// from a running total.
    ///
    /// # Errors
    /// As [`counters::subtract`]: a protocol mismatch, or `other` is not
    /// a sub-aggregate of this state; `self` is unchanged on error.
    pub fn try_subtract(&mut self, other: &Self) -> ldp_core::Result<()> {
        counters::subtract(self, other)
    }

    /// Number of reports accumulated.
    pub fn reports(&self) -> usize {
        self.n
    }

    /// The debiased matrix cell `M[j, l]`, derived from the counters:
    /// `Σ bits[l] = 2·ones − n_j` over the `n_j` reports of row `j`.
    #[inline]
    fn cell(&self, j: usize, l: usize) -> f64 {
        let k = self.protocol.k as f64;
        let c = self.protocol.c_eps;
        let ones = self.ones[j * self.protocol.m + l] as f64;
        let nj = self.row_n[j] as f64;
        k * (c / 2.0 * (2.0 * ones - nj) + 0.5 * nj)
    }

    /// Unbiased count estimate for `value`:
    /// `(m/(m−1)) · ( (1/k)·Σ_j M[j, h_j(value)] − n/m )`.
    pub fn estimate(&self, value: u64) -> f64 {
        let (k, m) = self.protocol.shape();
        let mf = m as f64;
        let mean_cell: f64 = (0..k)
            .map(|j| self.cell(j, self.protocol.bucket(j, value)))
            .sum::<f64>()
            / k as f64;
        (mf / (mf - 1.0)) * (mean_cell - self.n as f64 / mf)
    }

    /// Estimates every item in `items` (convenience for sweeps).
    pub fn estimate_items(&self, items: &[u64]) -> Vec<f64> {
        items.iter().map(|&v| self.estimate(v)).collect()
    }

    /// Scans `0..domain` and returns, in ascending value order, every
    /// `(value, estimate)` whose estimate **exceeds** `threshold` — the
    /// result a naive `(0..domain).filter(|v| estimate(v) > threshold)`
    /// scan would produce, estimates bit-identical, but without paying
    /// the full estimate for values that cannot clear the cutoff.
    ///
    /// The estimate is a fixed affine transform of the row-cell sum
    /// `S(v) = Σ_j M[j, h_j(v)]`, so `estimate(v) > threshold` is a
    /// cutoff on `S(v)`. The scan precomputes the `k × m` debiased cell
    /// table once (the per-value work drops to hash + lookup), plus each
    /// row's maximum cell and the suffix sums of those maxima; a value
    /// whose partial sum over the first rows cannot reach the cutoff
    /// even on per-row maxima is abandoned mid-scan. The bound is padded
    /// by a conservative slack covering float reassociation, so pruning
    /// never drops a true survivor; survivors finish all `k` rows, and
    /// their sum is folded in exactly [`estimate`](Self::estimate)'s
    /// operation order.
    pub fn scan_above(&self, domain: u64, threshold: f64) -> Vec<(u64, f64)> {
        let (k, m) = self.protocol.shape();
        let (kf, mf) = (k as f64, m as f64);
        let mut cells = Vec::with_capacity(k * m);
        for j in 0..k {
            for l in 0..m {
                cells.push(self.cell(j, l));
            }
        }
        // suffix_max[j] bounds Σ_{j' ≥ j} of any per-row cell choice.
        let mut suffix_max = vec![0.0f64; k + 1];
        for j in (0..k).rev() {
            let row_max = cells[j * m..(j + 1) * m]
                .iter()
                .fold(f64::NEG_INFINITY, |a, &b| a.max(b));
            suffix_max[j] = suffix_max[j + 1] + row_max;
        }
        // estimate > threshold  ⟺  S(v) > cutoff, up to rounding — the
        // slack keeps the row-level bound conservative; the survivor
        // test itself reruns the exact comparison.
        let cutoff = kf * (threshold * (mf - 1.0) / mf + self.n as f64 / mf);
        let slack = 1e-9 * (1.0 + cutoff.abs() + suffix_max[0].abs());

        let mut out = Vec::new();
        'values: for v in 0..domain {
            let mut sum = 0.0f64;
            for j in 0..k {
                if sum + suffix_max[j] < cutoff - slack {
                    continue 'values;
                }
                sum += cells[j * m + self.protocol.bucket(j, v)];
            }
            // Identical float pipeline to `estimate`: the cell values
            // came from the same `cell()` calls, `sum` folded them in
            // the same row order from the same 0.0.
            let e = (mf / (mf - 1.0)) * (sum / kf - self.n as f64 / mf);
            if e > threshold {
                out.push((v, e));
            }
        }
        out
    }
}

/// Combined fingerprint of a sketch's row hash functions — one 64-bit
/// word a snapshot can embed so state sketched under a *different* hash
/// family is rejected instead of silently merged into nonsense.
pub(crate) fn hashes_fingerprint(hashes: &[PairwiseHash]) -> u64 {
    hashes.iter().fold(0x6170_706c_6560_736b, |acc, h| {
        ldp_sketch::hash::mix64(acc ^ h.fingerprint())
    })
}

impl CounterState for CmsServer {
    const STATE_TAG: u8 = ldp_core::snapshot::state_tag::APPLE_CMS_SKETCH;
    const NAME: &'static str = "CMS";

    fn config_bytes(&self, out: &mut Vec<u8>) {
        ldp_core::wire::put_uvarint(out, self.protocol.k as u64);
        ldp_core::wire::put_uvarint(out, self.protocol.m as u64);
        ldp_core::wire::put_f64_le(out, self.protocol.epsilon.value());
        ldp_core::wire::put_u64_le(out, hashes_fingerprint(&self.protocol.hashes));
    }

    ldp_core::counter_fields!(Count n, Plane ones, Plane row_n);
}

/// [`CmsProtocol`] bound to an enumerable item domain `0..d`, exposing the
/// sketch as a [`FrequencyOracle`] so the sharded parallel engine
/// (`ldp_workloads::parallel`) and the cross-mechanism experiment tables
/// can drive it like any other oracle.
///
/// # Examples
/// ```
/// use ldp_apple::cms::CmsOracle;
/// use ldp_core::fo::{FoAggregator, FrequencyOracle};
/// use ldp_core::Epsilon;
/// use rand::SeedableRng;
/// let oracle = CmsOracle::new(16, 256, Epsilon::new(4.0).unwrap(), 7, 64);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let values = vec![3u64; 4000];
/// let mut agg = oracle.new_aggregator();
/// oracle.randomize_accumulate_batch(&values, &mut rng, &mut agg);
/// assert!(agg.estimate()[3] > 3000.0);
/// ```
#[derive(Debug, Clone)]
pub struct CmsOracle {
    protocol: CmsProtocol,
    domain: u64,
}

impl CmsOracle {
    /// Creates a CMS oracle: `k` rows, width `m`, deterministic hash seed,
    /// over items `0..domain`.
    ///
    /// # Panics
    /// Panics if `k == 0`, `m < 2` or `domain == 0`.
    pub fn new(k: usize, m: usize, epsilon: Epsilon, seed: u64, domain: u64) -> Self {
        assert!(domain > 0, "domain must be non-empty");
        Self {
            protocol: CmsProtocol::new(k, m, epsilon, seed),
            domain,
        }
    }

    /// The underlying sketch protocol.
    pub fn protocol(&self) -> &CmsProtocol {
        &self.protocol
    }
}

/// Aggregator for [`CmsOracle`]: a [`CmsServer`] plus the bound domain.
#[derive(Debug, Clone)]
pub struct CmsAggregator {
    server: CmsServer,
    domain: u64,
}

impl CmsAggregator {
    /// The underlying sketch server (for point queries beyond `0..d`).
    pub fn server(&self) -> &CmsServer {
        &self.server
    }
}

/// The oracle wrapper's state is the server's, behind the bound domain.
impl CounterState for CmsAggregator {
    const STATE_TAG: u8 = ldp_core::snapshot::state_tag::APPLE_CMS;
    const NAME: &'static str = "CMS oracle";

    fn config_bytes(&self, out: &mut Vec<u8>) {
        ldp_core::wire::put_uvarint(out, self.domain);
        self.server.config_bytes(out);
    }

    ldp_core::counter_fields!(Count server.n, Plane server.ones, Plane server.row_n);
}

impl FoAggregator for CmsAggregator {
    type Report = CmsReport;

    fn accumulate(&mut self, report: &CmsReport) {
        self.server.accumulate(report);
    }

    fn try_accumulate(&mut self, report: &CmsReport) -> ldp_core::Result<()> {
        let (k, m) = self.server.protocol.shape();
        if report.row as usize >= k || report.bits.len() != m {
            return Err(ldp_core::LdpError::Malformed(format!(
                "CMS report (row {}, width {}) does not fit the {k}x{m} sketch",
                report.row,
                report.bits.len()
            )));
        }
        self.server.accumulate(report);
        Ok(())
    }

    fn reports(&self) -> usize {
        self.server.reports()
    }

    fn estimate(&self) -> Vec<f64> {
        (0..self.domain).map(|v| self.server.estimate(v)).collect()
    }

    fn estimate_items(&self, items: &[u64]) -> Vec<f64> {
        self.server.estimate_items(items)
    }

    fn merge(&mut self, other: Self) -> ldp_core::Result<()> {
        counters::merge(self, &other)
    }

    fn try_subtract(&mut self, other: &Self) -> ldp_core::Result<()> {
        counters::subtract(self, other)
    }
}

impl FrequencyOracle for CmsOracle {
    type Report = CmsReport;
    type Aggregator = CmsAggregator;

    fn name(&self) -> &'static str {
        "CMS"
    }

    fn domain_size(&self) -> u64 {
        self.domain
    }

    fn epsilon(&self) -> Epsilon {
        self.protocol.epsilon
    }

    fn randomize(&self, value: u64, rng: &mut dyn RngCore) -> CmsReport {
        assert!(value < self.domain, "value {value} outside domain");
        self.protocol.randomize(value, rng)
    }

    fn randomize_batch<R, F>(&self, values: &[u64], rng: &mut R, mut sink: F)
    where
        R: RngCore,
        F: FnMut(&CmsReport),
    {
        for &v in values {
            assert!(v < self.domain, "value {v} outside domain");
            sink(&self.protocol.randomize(v, rng));
        }
    }

    /// Fused batch path: each report lands as `O(1 + m·q)` counter
    /// increments via [`CmsServer::accumulate_fused`] — no report vector,
    /// no `O(m)` scan, monomorphized RNG draws.
    fn randomize_accumulate_batch<R: RngCore>(
        &self,
        values: &[u64],
        rng: &mut R,
        agg: &mut CmsAggregator,
    ) {
        assert!(
            agg.server.protocol == self.protocol && agg.domain == self.domain,
            "aggregator configured for a different CMS oracle"
        );
        for &v in values {
            assert!(v < self.domain, "value {v} outside domain");
            agg.server.accumulate_fused(v, rng);
        }
    }

    fn new_aggregator(&self) -> CmsAggregator {
        CmsAggregator {
            server: self.protocol.new_server(),
            domain: self.domain,
        }
    }

    /// Sketch-noise approximation (collision + privatization leading
    /// terms); CMS has no exact closed form per true frequency `f`, so
    /// this is `f`-independent — adequate for the 5σ test tolerances and
    /// the experiment tables, and empirically validated in
    /// `crates/apple/tests/batch_identity.rs`.
    fn count_variance(&self, n: usize, _f: f64) -> f64 {
        self.protocol.approx_count_variance(n)
    }

    fn report_bits(&self) -> usize {
        // The ±1 vector is one bit per bucket, plus the row index.
        self.protocol.m
            + (self.protocol.k.max(2) as u64)
                .next_power_of_two()
                .trailing_zeros() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::snapshot::snapshot_vec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn flip_prob_and_ceps_consistent() {
        let p = CmsProtocol::new(4, 32, eps(2.0), 1);
        let half = 1.0f64.exp(); // e^{2/2}
        assert!((p.flip_prob() - 1.0 / (half + 1.0)).abs() < 1e-12);
        assert!((p.c_eps() - (half + 1.0) / (half - 1.0)).abs() < 1e-12);
        // c_eps = 1/(1-2*flip_prob): debias inverts the flip channel.
        assert!((p.c_eps() - 1.0 / (1.0 - 2.0 * p.flip_prob())).abs() < 1e-9);
    }

    #[test]
    fn scan_above_matches_naive_filter_bit_exactly() {
        let proto = CmsProtocol::new(8, 64, eps(3.0), 11);
        let mut rng = StdRng::seed_from_u64(23);
        let mut server = proto.new_server();
        let domain = 4096u64;
        for u in 0..5_000u64 {
            let v = if u % 3 == 0 { u % 7 } else { u % domain };
            server.accumulate(&proto.randomize(v, &mut rng));
        }
        // Thresholds spanning "keep everything" through "keep nothing";
        // each must reproduce the naive filter scan exactly, estimates
        // included.
        for threshold in [-1e6, -10.0, 0.0, 5.0, 50.0, 500.0, 1e9] {
            let fast = server.scan_above(domain, threshold);
            let naive: Vec<(u64, f64)> = (0..domain)
                .map(|v| (v, server.estimate(v)))
                .filter(|&(_, e)| e > threshold)
                .collect();
            assert_eq!(fast.len(), naive.len(), "threshold={threshold}");
            for ((va, ea), (vb, eb)) in fast.iter().zip(&naive) {
                assert_eq!(va, vb, "threshold={threshold}");
                assert_eq!(ea.to_bits(), eb.to_bits(), "threshold={threshold}");
            }
        }
        // Empty server: nothing exceeds a positive threshold.
        let empty = proto.new_server();
        assert!(empty.scan_above(domain, 0.0).is_empty());
    }

    #[test]
    fn estimates_unbiased_for_heavy_item() {
        let proto = CmsProtocol::new(16, 256, eps(4.0), 5);
        let mut rng = StdRng::seed_from_u64(7);
        let mut server = proto.new_server();
        let n = 30_000;
        for u in 0..n {
            let v = if u % 3 == 0 {
                7u64
            } else {
                1000 + u as u64 % 5000
            };
            server.accumulate(&proto.randomize(v, &mut rng));
        }
        let est = server.estimate(7);
        let truth = (n as f64 / 3.0).ceil();
        assert!((est - truth).abs() < 1500.0, "est={est} truth={truth}");
        assert_eq!(server.reports(), n);
    }

    #[test]
    fn absent_items_near_zero() {
        let proto = CmsProtocol::new(8, 128, eps(4.0), 9);
        let mut rng = StdRng::seed_from_u64(11);
        let mut server = proto.new_server();
        let n = 20_000;
        for u in 0..n {
            server.accumulate(&proto.randomize(u as u64 % 50, &mut rng));
        }
        // Average over many absent items: collisions add ~n/m per cell but
        // the debias removes the mean; individual estimates are noisy.
        let absent: Vec<u64> = (1000..1100).collect();
        let ests = server.estimate_items(&absent);
        let avg = ests.iter().sum::<f64>() / ests.len() as f64;
        assert!(avg.abs() < 200.0, "avg absent estimate {avg}");
    }

    #[test]
    fn estimate_average_unbiased_over_trials() {
        let proto = CmsProtocol::new(4, 64, eps(2.0), 13);
        let truth = 500usize;
        let n = 2000usize;
        let trials = 40;
        let mut sum = 0.0;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(100 + t);
            let mut server = proto.new_server();
            for u in 0..n {
                let v = if u < truth { 42u64 } else { 10_000 + u as u64 };
                server.accumulate(&proto.randomize(v, &mut rng));
            }
            sum += server.estimate(42);
        }
        let avg = sum / trials as f64;
        assert!((avg - truth as f64).abs() < 60.0, "avg={avg}");
    }

    #[test]
    fn wider_sketch_reduces_collision_error() {
        let narrow = CmsProtocol::new(4, 16, eps(4.0), 17);
        let wide = CmsProtocol::new(4, 1024, eps(4.0), 17);
        assert!(wide.approx_count_variance(10_000) < narrow.approx_count_variance(10_000));
    }

    #[test]
    fn report_into_reuses_buffer_and_matches_randomize() {
        let proto = CmsProtocol::new(4, 64, eps(2.0), 23);
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        let mut report = CmsReport::empty();
        for v in 0..200u64 {
            proto.report_into(v % 7, &mut rng_a, &mut report);
            let fresh = proto.randomize(v % 7, &mut rng_b);
            assert_eq!(report, fresh);
            assert!(report.bits.iter().all(|&b| b == 1 || b == -1));
        }
    }

    #[test]
    fn fused_accumulate_bit_identical_to_scalar() {
        let proto = CmsProtocol::new(8, 128, eps(2.0), 29);
        let values: Vec<u64> = (0..3000).map(|i| i % 40).collect();

        let mut scalar_rng = StdRng::seed_from_u64(31);
        let mut scalar = proto.new_server();
        for &v in &values {
            scalar.accumulate(&proto.randomize(v, &mut scalar_rng));
        }

        let mut fused_rng = StdRng::seed_from_u64(31);
        let mut fused = proto.new_server();
        for &v in &values {
            fused.accumulate_fused(v, &mut fused_rng);
        }

        assert_eq!(scalar.ones, fused.ones);
        assert_eq!(scalar.row_n, fused.row_n);
        assert_eq!(scalar.reports(), fused.reports());
    }

    #[test]
    fn merge_matches_sequential() {
        let proto = CmsProtocol::new(4, 32, eps(2.0), 37);
        let values: Vec<u64> = (0..1000).map(|i| i % 11).collect();
        let mut rng = StdRng::seed_from_u64(41);
        let mut a = proto.new_server();
        for &v in &values[..400] {
            a.accumulate_fused(v, &mut rng);
        }
        let mut b = proto.new_server();
        for &v in &values[400..] {
            b.accumulate_fused(v, &mut rng);
        }

        let mut rng2 = StdRng::seed_from_u64(41);
        let mut seq = proto.new_server();
        for &v in &values {
            seq.accumulate_fused(v, &mut rng2);
        }

        a.merge(b).unwrap();
        assert_eq!(a.ones, seq.ones);
        assert_eq!(a.row_n, seq.row_n);
        assert_eq!(a.reports(), seq.reports());
    }

    #[test]
    #[should_panic(expected = "report width mismatch")]
    fn shape_mismatch_panics() {
        let proto = CmsProtocol::new(2, 16, eps(1.0), 0);
        let mut server = proto.new_server();
        server.accumulate(&CmsReport {
            row: 0,
            bits: vec![1; 8],
        });
    }

    #[test]
    fn merge_protocol_mismatch_is_refused() {
        let protocol = CmsProtocol::new(2, 16, eps(1.0), 0);
        let mut a = protocol.new_server();
        a.accumulate_fused(3, &mut StdRng::seed_from_u64(1));
        let before = a.clone();
        let b = CmsProtocol::new(2, 16, eps(1.0), 1).new_server();
        assert!(matches!(
            a.merge(b),
            Err(ldp_core::LdpError::StateMismatch(_))
        ));
        assert_eq!(snapshot_vec(&a), snapshot_vec(&before), "state unchanged");
    }

    #[test]
    fn oracle_estimates_match_server() {
        let oracle = CmsOracle::new(8, 128, eps(4.0), 3, 16);
        let mut rng = StdRng::seed_from_u64(17);
        let values: Vec<u64> = (0..8000).map(|i| i % 4).collect();
        let mut agg = oracle.new_aggregator();
        oracle.randomize_accumulate_batch(&values, &mut rng, &mut agg);
        let est = agg.estimate();
        assert_eq!(est.len(), 16);
        for (v, &e) in est.iter().enumerate().take(4) {
            assert!((e - 2000.0).abs() < 800.0, "item {v}: {e}");
        }
        assert_eq!(agg.estimate_items(&[0, 1])[0], est[0]);
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn oracle_rejects_out_of_domain() {
        let oracle = CmsOracle::new(2, 16, eps(1.0), 3, 8);
        let mut rng = StdRng::seed_from_u64(0);
        FrequencyOracle::randomize(&oracle, 8, &mut rng);
    }
}
