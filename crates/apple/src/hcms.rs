//! Apple's Hadamard Count-Mean Sketch (HCMS): CMS accuracy from a single
//! transmitted bit.
//!
//! The CMS report is an `m`-length vector — hundreds of bytes. HCMS
//! observes that the server only needs the sketch rows *up to an invertible
//! linear transform*, so the client can transmit one uniformly sampled
//! coordinate of the **Hadamard transform** of its one-hot row:
//!
//! * client: sample row `j ~ U[k]` and coefficient `l ~ U[m]`, compute
//!   `w = H[l, h_j(value)] ∈ {±1}` (an O(1) popcount — the matrix is never
//!   materialized), flip `w` with probability `1/(e^ε+1)`, send
//!   `(j, l, w̃)`. Note the *full* ε: exactly one coordinate changes
//!   between any two inputs in the spectrum domain, vs two in CMS — the
//!   factor the white paper highlights.
//! * server: accumulate `S[j, l] += c'_ε·w̃` with `c'_ε = (e^ε+1)/(e^ε−1)`,
//!   and at query time invert each row with one FWHT, then apply the same
//!   collision debiasing as CMS.

use ldp_core::fo::counters::{self, CounterState};
use ldp_core::fo::{FoAggregator, FrequencyOracle};
use ldp_core::Epsilon;
use ldp_sketch::hadamard::{fwht, hadamard_entry};
use ldp_sketch::hash::PairwiseHash;
use rand::{Rng, RngCore};

/// One HCMS report: sampled row, sampled Hadamard coefficient index, and
/// the privatized ±1 coefficient value. Three numbers; the payload bit is
/// `sign`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HcmsReport {
    /// Sampled sketch row `j ∈ [k]`.
    pub row: u32,
    /// Sampled Hadamard coefficient `l ∈ [m]`.
    pub coeff: u32,
    /// Privatized sign `±1`.
    pub sign: i8,
}

/// The HCMS protocol parameters shared by clients and server.
#[derive(Debug, Clone, PartialEq)]
pub struct HcmsProtocol {
    k: usize,
    m: usize,
    epsilon: Epsilon,
    flip_prob: f64,
    c_eps: f64,
    hashes: Vec<PairwiseHash>,
}

impl HcmsProtocol {
    /// Creates a protocol with `k` rows and width `m` (must be a power of
    /// two for the Hadamard transform).
    ///
    /// # Panics
    /// Panics if `k == 0`, `m < 2`, or `m` is not a power of two.
    pub fn new(k: usize, m: usize, epsilon: Epsilon, seed: u64) -> Self {
        assert!(k > 0, "need at least one hash row");
        assert!(
            m >= 2 && m.is_power_of_two(),
            "m must be a power of two >= 2, got {m}"
        );
        let e = epsilon.exp();
        let hashes = (0..k)
            .map(|r| {
                PairwiseHash::from_seed(
                    seed.wrapping_add(r as u64)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    m as u64,
                )
            })
            .collect();
        Self {
            k,
            m,
            epsilon,
            flip_prob: 1.0 / (e + 1.0),
            c_eps: (e + 1.0) / (e - 1.0),
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

    /// The bucket `h_j(value)`.
    pub fn bucket(&self, row: usize, value: u64) -> usize {
        self.hashes[row].hash(value) as usize
    }

    /// Client side: produce the one-bit report.
    pub fn randomize<R: Rng + ?Sized>(&self, value: u64, rng: &mut R) -> HcmsReport {
        let row = rng.gen_range(0..self.k);
        let coeff = rng.gen_range(0..self.m);
        let bucket = self.bucket(row, value);
        let mut sign = hadamard_entry(coeff as u64, bucket as u64);
        if rng.gen_bool(self.flip_prob) {
            sign = -sign;
        }
        HcmsReport {
            row: row as u32,
            coeff: coeff as u32,
            sign,
        }
    }

    /// Creates the matching server.
    pub fn new_server(&self) -> HcmsServer {
        HcmsServer {
            protocol: self.clone(),
            spectrum: vec![0; self.k * self.m],
            n: 0,
        }
    }

    /// Approximate variance of a count estimate over `n` reports: each
    /// report contributes `±c'_ε` to the queried (debiased, transformed)
    /// mean cell, plus the same `n/m` sketch-collision term as CMS.
    /// Empirically validated in `crates/apple/tests/batch_identity.rs`.
    ///
    /// This method is the formula's single home: the planner's cost
    /// model (registered by [`crate::register_mechanisms`]) prices HCMS
    /// plans by instantiating the protocol and delegating here rather
    /// than restating the algebra.
    pub fn approx_count_variance(&self, n: usize) -> f64 {
        let nf = n as f64;
        let m = self.m as f64;
        nf * self.c_eps * self.c_eps * (m / (m - 1.0)).powi(2) + nf / m
    }
}

/// Server-side HCMS state: the running spectrum as exact integer sign
/// sums, inverted lazily at query time.
///
/// Integer counters make every accumulation path exact: scalar
/// accumulation, the monomorphized batch path and sharded
/// [`merge`](Self::merge) land on identical state for identical reports —
/// the debias constant `c'_ε` is applied once, at query time.
#[derive(Debug, Clone)]
pub struct HcmsServer {
    protocol: HcmsProtocol,
    /// Accumulated sign sums: `S[j, l] = Σ w̃` over reports that sampled
    /// `(j, l)`; the debiased spectrum is `c'_ε · S`.
    spectrum: Vec<i64>,
    n: usize,
}

impl HcmsServer {
    /// Folds one report into the spectrum.
    ///
    /// # Panics
    /// Panics if the report indices exceed the protocol shape or the sign
    /// is not ±1.
    pub fn accumulate(&mut self, report: &HcmsReport) {
        let (k, m) = self.protocol.shape();
        let (row, coeff) = (report.row as usize, report.coeff as usize);
        assert!(row < k && coeff < m, "report indices out of range");
        assert!(
            report.sign == 1 || report.sign == -1,
            "HCMS sign must be ±1, got {}",
            report.sign
        );
        self.spectrum[row * m + coeff] += report.sign as i64;
        self.n += 1;
    }

    /// Merges another server's sign sums into this one. Exact (integer
    /// addition), so sharded collection is bit-identical to sequential.
    ///
    /// # Errors
    /// As [`counters::merge`]: a protocol mismatch (shape, budget or hash
    /// family) or a counter overflow; `self` is unchanged on error.
    pub fn merge(&mut self, other: Self) -> ldp_core::Result<()> {
        counters::merge(self, &other)
    }

    /// Subtracts another server's sign sums from this one — the exact
    /// inverse of [`merge`](Self::merge) for retiring a window delta
    /// from a running total (integer subtraction, so the result is
    /// bit-identical to never having merged `other`).
    ///
    /// # Errors
    /// As [`counters::subtract`]: a protocol mismatch, or `other` holds
    /// more reports than this state (sign sums are signed, so the report
    /// count is the underflow sentinel); `self` is unchanged on error.
    pub fn try_subtract(&mut self, other: &Self) -> ldp_core::Result<()> {
        counters::subtract(self, other)
    }

    /// Number of reports accumulated.
    pub fn reports(&self) -> usize {
        self.n
    }

    /// Materializes the bucket-domain sketch matrix `M[j, bucket]`
    /// (`E[M[j, b]] =` number of users whose value hashes to `b` in row
    /// `j`): one FWHT per row, scaled by `k` (row sampling) — the `m` from
    /// coefficient sampling cancels against the `1/m` of the inverse
    /// transform.
    pub fn bucket_matrix(&self) -> Vec<f64> {
        let (k, m) = self.protocol.shape();
        let mut out = vec![0.0; k * m];
        let mut row_buf = vec![0.0; m];
        for j in 0..k {
            for (dst, &s) in row_buf.iter_mut().zip(&self.spectrum[j * m..(j + 1) * m]) {
                *dst = self.protocol.c_eps * s as f64;
            }
            fwht(&mut row_buf);
            for l in 0..m {
                // k (row sampling) * m (coeff sampling) / m (inverse FWHT).
                out[j * m + l] = k as f64 * row_buf[l];
            }
        }
        out
    }

    /// Unbiased count estimate for `value` — same collision debiasing as
    /// CMS applied to the transformed matrix.
    ///
    /// Runs the full `k`-row transform sweep for this one query; when
    /// answering more than one point query against the same state, call
    /// [`decode`](Self::decode) once and query the cached matrix.
    pub fn estimate(&self, value: u64) -> f64 {
        self.decode().estimate(value)
    }

    /// Estimates many items, amortizing the per-row transforms.
    pub fn estimate_items(&self, items: &[u64]) -> Vec<f64> {
        self.estimate_iter(items.iter().copied())
    }

    /// [`estimate_items`](Self::estimate_items) over any item iterator —
    /// full-domain sweeps pass `0..d` directly, with no scratch vector
    /// of item ids (one FWHT sweep either way).
    pub fn estimate_iter(&self, items: impl IntoIterator<Item = u64>) -> Vec<f64> {
        let decoded = self.decode();
        items.into_iter().map(|v| decoded.estimate(v)).collect()
    }

    /// Runs the spectrum inversion once — `k` tiled FWHTs — and returns
    /// a decoded view that answers any number of point queries at
    /// `O(k)` hash-and-gather each, with no further transforms.
    ///
    /// This is the decode-kernel restructure: the old API shape forced
    /// `k` full transforms per [`estimate`](Self::estimate) call, so a
    /// `q`-item query batch against the same frozen state cost
    /// `q·k·m·log m`. Decoding once drops that to `k·m·log m + q·k`, and
    /// every query is bit-identical to what the per-call path returns
    /// (the cached matrix *is* that path's matrix).
    pub fn decode(&self) -> HcmsDecoded<'_> {
        HcmsDecoded {
            protocol: &self.protocol,
            matrix: self.bucket_matrix(),
            n: self.n,
        }
    }
}

/// A decoded HCMS state: the bucket-domain matrix materialized by one
/// transform sweep of [`HcmsServer::decode`], answering point queries
/// without re-running any FWHT.
///
/// Borrow-tied to the server it decoded (the hash family lives there);
/// reports accumulated after `decode()` are not reflected — decode
/// again for a fresh view.
#[derive(Debug, Clone)]
pub struct HcmsDecoded<'a> {
    protocol: &'a HcmsProtocol,
    matrix: Vec<f64>,
    n: usize,
}

impl HcmsDecoded<'_> {
    /// Unbiased count estimate for `value` from the cached matrix:
    /// `k` hash-and-gather probes, one debias — no transforms.
    pub fn estimate(&self, value: u64) -> f64 {
        let (k, m) = self.protocol.shape();
        let mf = m as f64;
        let mean_cell: f64 = (0..k)
            .map(|j| self.matrix[j * m + self.protocol.bucket(j, value)])
            .sum::<f64>()
            / k as f64;
        (mf / (mf - 1.0)) * (mean_cell - self.n as f64 / mf)
    }

    /// The cached bucket-domain matrix (row-major `k × m`), as produced
    /// by [`HcmsServer::bucket_matrix`].
    pub fn bucket_matrix(&self) -> &[f64] {
        &self.matrix
    }

    /// Number of reports the decoded state summarizes.
    pub fn reports(&self) -> usize {
        self.n
    }
}

impl CounterState for HcmsServer {
    const STATE_TAG: u8 = ldp_core::snapshot::state_tag::APPLE_HCMS_SKETCH;
    const NAME: &'static str = "HCMS";

    fn config_bytes(&self, out: &mut Vec<u8>) {
        ldp_core::wire::put_uvarint(out, self.protocol.k as u64);
        ldp_core::wire::put_uvarint(out, self.protocol.m as u64);
        ldp_core::wire::put_f64_le(out, self.protocol.epsilon.value());
        ldp_core::wire::put_u64_le(out, crate::cms::hashes_fingerprint(&self.protocol.hashes));
    }

    ldp_core::counter_fields!(Count n, Signed spectrum);
}

/// [`HcmsProtocol`] bound to an enumerable item domain `0..d`, exposing
/// the one-bit sketch as a [`FrequencyOracle`] so the sharded parallel
/// engine (`ldp_workloads::parallel`) can drive it like any other oracle.
///
/// The batch paths have nothing to fuse away allocation-wise — an
/// [`HcmsReport`] is three machine words — so they are the scalar
/// `randomize` loop, and share its RNG stream by construction.
#[derive(Debug, Clone)]
pub struct HcmsOracle {
    protocol: HcmsProtocol,
    domain: u64,
}

impl HcmsOracle {
    /// Creates an HCMS oracle: `k` rows, power-of-two width `m`,
    /// deterministic hash seed, over items `0..domain`.
    ///
    /// # Panics
    /// Panics if `k == 0`, `m` is not a power of two ≥ 2, or
    /// `domain == 0`.
    pub fn new(k: usize, m: usize, epsilon: Epsilon, seed: u64, domain: u64) -> Self {
        assert!(domain > 0, "domain must be non-empty");
        Self {
            protocol: HcmsProtocol::new(k, m, epsilon, seed),
            domain,
        }
    }

    /// The underlying sketch protocol.
    pub fn protocol(&self) -> &HcmsProtocol {
        &self.protocol
    }
}

/// Aggregator for [`HcmsOracle`]: an [`HcmsServer`] plus the bound domain.
#[derive(Debug, Clone)]
pub struct HcmsAggregator {
    server: HcmsServer,
    domain: u64,
}

impl HcmsAggregator {
    /// The underlying sketch server (for point queries beyond `0..d`).
    pub fn server(&self) -> &HcmsServer {
        &self.server
    }
}

/// The oracle wrapper's state is the server's, behind the bound domain.
impl CounterState for HcmsAggregator {
    const STATE_TAG: u8 = ldp_core::snapshot::state_tag::APPLE_HCMS;
    const NAME: &'static str = "HCMS oracle";

    fn config_bytes(&self, out: &mut Vec<u8>) {
        ldp_core::wire::put_uvarint(out, self.domain);
        self.server.config_bytes(out);
    }

    ldp_core::counter_fields!(Count server.n, Signed server.spectrum);
}

impl FoAggregator for HcmsAggregator {
    type Report = HcmsReport;

    fn try_accumulate(&mut self, report: &HcmsReport) -> ldp_core::Result<()> {
        let (k, m) = self.server.protocol.shape();
        if report.row as usize >= k || report.coeff as usize >= m {
            return Err(ldp_core::LdpError::Malformed(format!(
                "HCMS report (row {}, coeff {}) does not fit the {k}x{m} sketch",
                report.row, report.coeff
            )));
        }
        if report.sign != 1 && report.sign != -1 {
            return Err(ldp_core::LdpError::Malformed(format!(
                "HCMS sign must be ±1, got {}",
                report.sign
            )));
        }
        self.server.accumulate(report);
        Ok(())
    }

    fn reports(&self) -> usize {
        self.server.reports()
    }

    fn estimate(&self) -> Vec<f64> {
        // One FWHT sweep amortized over the whole domain.
        self.server.estimate_iter(0..self.domain)
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

impl FrequencyOracle for HcmsOracle {
    type Report = HcmsReport;
    type Aggregator = HcmsAggregator;

    fn name(&self) -> &'static str {
        "HCMS"
    }

    fn domain_size(&self) -> u64 {
        self.domain
    }

    fn epsilon(&self) -> Epsilon {
        self.protocol.epsilon
    }

    fn randomize<R: RngCore + ?Sized>(&self, value: u64, rng: &mut R) -> HcmsReport {
        assert!(value < self.domain, "value {value} outside domain");
        self.protocol.randomize(value, rng)
    }

    fn new_aggregator(&self) -> HcmsAggregator {
        HcmsAggregator {
            server: self.protocol.new_server(),
            domain: self.domain,
        }
    }

    /// Sketch-noise approximation (`f`-independent), empirically
    /// validated in `crates/apple/tests/batch_identity.rs`.
    fn count_variance(&self, n: usize, _f: f64) -> f64 {
        self.protocol.approx_count_variance(n)
    }

    fn report_bits(&self) -> usize {
        // One payload bit plus the sampled (row, coefficient) indices.
        1 + ((self.protocol.k.max(2) as u64)
            .next_power_of_two()
            .trailing_zeros()
            + (self.protocol.m as u64).trailing_zeros()) as usize
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
    #[should_panic(expected = "power of two")]
    fn non_pow2_width_panics() {
        HcmsProtocol::new(4, 48, eps(1.0), 0);
    }

    #[test]
    #[should_panic(expected = "sign must be ±1")]
    fn server_refuses_a_sign_outside_plus_minus_one() {
        let mut server = HcmsProtocol::new(2, 16, eps(1.0), 0).new_server();
        server.accumulate(&HcmsReport {
            row: 0,
            coeff: 3,
            sign: 0,
        });
    }

    #[test]
    fn bucket_matrix_unbiased_without_noise_channel() {
        // With a huge epsilon, flips are rare: bucket matrix ~ exact counts.
        let proto = HcmsProtocol::new(2, 16, eps(12.0), 3);
        let mut rng = StdRng::seed_from_u64(3);
        let mut server = proto.new_server();
        let n = 50_000;
        for _ in 0..n {
            server.accumulate(&proto.randomize(5, &mut rng));
        }
        let matrix = server.bucket_matrix();
        for j in 0..2 {
            let b = proto.bucket(j, 5);
            let cell = matrix[j * 16 + b];
            assert!(
                (cell - n as f64).abs() < n as f64 * 0.1,
                "row {j}: cell={cell}"
            );
        }
    }

    #[test]
    fn estimates_unbiased() {
        let proto = HcmsProtocol::new(8, 256, eps(4.0), 21);
        let mut rng = StdRng::seed_from_u64(23);
        let mut server = proto.new_server();
        let n = 60_000;
        for u in 0..n {
            let v = if u % 4 == 0 {
                3u64
            } else {
                500 + (u as u64 % 3000)
            };
            server.accumulate(&proto.randomize(v, &mut rng));
        }
        let est = server.estimate(3);
        let truth = n as f64 / 4.0;
        assert!((est - truth).abs() < 4000.0, "est={est} truth={truth}");
    }

    #[test]
    fn estimate_average_unbiased_over_trials() {
        let proto = HcmsProtocol::new(4, 64, eps(3.0), 31);
        let truth = 1000usize;
        let n = 4000usize;
        let trials = 30;
        let mut sum = 0.0;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(400 + t);
            let mut server = proto.new_server();
            for u in 0..n {
                let v = if u < truth { 9u64 } else { 77_000 + u as u64 };
                server.accumulate(&proto.randomize(v, &mut rng));
            }
            sum += server.estimate(9);
        }
        let avg = sum / trials as f64;
        assert!((avg - truth as f64).abs() < 200.0, "avg={avg}");
    }

    #[test]
    fn estimate_items_matches_single_estimates() {
        let proto = HcmsProtocol::new(4, 32, eps(2.0), 41);
        let mut rng = StdRng::seed_from_u64(43);
        let mut server = proto.new_server();
        for u in 0..3000u64 {
            server.accumulate(&proto.randomize(u % 7, &mut rng));
        }
        let items = [0u64, 3, 6, 100];
        let batch = server.estimate_items(&items);
        for (i, &v) in items.iter().enumerate() {
            assert!((batch[i] - server.estimate(v)).abs() < 1e-9);
        }
    }

    #[test]
    fn merge_matches_sequential() {
        let proto = HcmsProtocol::new(4, 64, eps(2.0), 61);
        let mut rng = StdRng::seed_from_u64(67);
        let mut a = proto.new_server();
        for u in 0..500u64 {
            a.accumulate(&proto.randomize(u % 9, &mut rng));
        }
        let mut b = proto.new_server();
        for u in 0..700u64 {
            b.accumulate(&proto.randomize(u % 9, &mut rng));
        }

        // Same draws, same values, one server: replay both halves.
        let mut rng2 = StdRng::seed_from_u64(67);
        let mut seq = proto.new_server();
        for u in 0..500u64 {
            seq.accumulate(&proto.randomize(u % 9, &mut rng2));
        }
        for u in 0..700u64 {
            seq.accumulate(&proto.randomize(u % 9, &mut rng2));
        }

        a.merge(b).unwrap();
        assert_eq!(a.spectrum, seq.spectrum);
        assert_eq!(a.reports(), seq.reports());
    }

    #[test]
    fn oracle_estimates_unbiased() {
        let oracle = HcmsOracle::new(8, 256, eps(4.0), 5, 16);
        let mut rng = StdRng::seed_from_u64(71);
        let values: Vec<u64> = (0..20_000).map(|i| i % 4).collect();
        let mut agg = oracle.new_aggregator();
        oracle.randomize_accumulate_batch(&values, &mut rng, &mut agg);
        let est = agg.estimate();
        assert_eq!(est.len(), 16);
        let sd = oracle.count_variance(values.len(), 0.25).sqrt();
        for (v, &e) in est.iter().enumerate().take(4) {
            assert!((e - 5000.0).abs() < 5.0 * sd, "item {v}: {e} (sd={sd})");
        }
    }

    #[test]
    fn decoded_queries_bit_identical_to_per_call_estimates() {
        // The cached-matrix decode must reproduce the per-call estimate
        // path to the bit — same transform output, same debias ops.
        let proto = HcmsProtocol::new(8, 128, eps(2.0), 77);
        let mut rng = StdRng::seed_from_u64(79);
        let mut server = proto.new_server();
        for u in 0..10_000u64 {
            server.accumulate(&proto.randomize(u % 50, &mut rng));
        }
        let decoded = server.decode();
        assert_eq!(decoded.reports(), server.reports());
        assert_eq!(decoded.bucket_matrix(), server.bucket_matrix().as_slice());
        for v in (0..200u64).chain([5_000_000, u64::MAX]) {
            assert_eq!(
                decoded.estimate(v).to_bits(),
                server.estimate(v).to_bits(),
                "value {v}"
            );
        }
        // And the batch path is the same queries against the same cache.
        let items: Vec<u64> = (0..200).collect();
        let batch = server.estimate_items(&items);
        for (i, &v) in items.iter().enumerate() {
            assert_eq!(batch[i].to_bits(), decoded.estimate(v).to_bits());
        }
    }

    /// The per-query reference decode: rebuilds the whole bucket matrix
    /// with `k` radix-2 reference transforms of the debiased spectrum for
    /// this one query, then applies the collision debias.
    fn reference_estimate(server: &HcmsServer, value: u64) -> f64 {
        let proto = &server.protocol;
        let (k, m) = proto.shape();
        let mut matrix = vec![0.0; k * m];
        let mut row_buf = vec![0.0; m];
        for j in 0..k {
            for (dst, &s) in row_buf.iter_mut().zip(&server.spectrum[j * m..(j + 1) * m]) {
                *dst = proto.c_eps * s as f64;
            }
            ldp_sketch::fwht_reference(&mut row_buf);
            for l in 0..m {
                matrix[j * m + l] = k as f64 * row_buf[l];
            }
        }
        let mf = m as f64;
        let mean_cell: f64 = (0..k)
            .map(|j| matrix[j * m + proto.bucket(j, value)])
            .sum::<f64>()
            / k as f64;
        (mf / (mf - 1.0)) * (mean_cell - server.n as f64 / mf)
    }

    /// The cached decode inverts the same debiased spectrum as the
    /// per-query reference, and the tiled FWHT is bit-identical to the
    /// reference butterfly, so every estimate must match bit for bit.
    #[test]
    fn cached_decode_bit_identical_to_per_query_reference() {
        for (k, m, seed) in [(8usize, 256usize, 13u64), (16, 2048, 17)] {
            let proto = HcmsProtocol::new(k, m, eps(4.0), 5);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut server = proto.new_server();
            for i in 0..5_000u64 {
                server.accumulate(&proto.randomize(i % 40, &mut rng));
            }
            let decoded = server.decode();
            for v in 0..64u64 {
                let reference = reference_estimate(&server, v);
                assert_eq!(
                    reference.to_bits(),
                    decoded.estimate(v).to_bits(),
                    "(k, m) = ({k}, {m}), value {v}: reference {reference} vs cached {}",
                    decoded.estimate(v)
                );
            }
        }
    }

    #[test]
    fn one_bit_payload() {
        // The transmitted payload is (row, coeff, sign): the sign is the
        // only data-dependent bit.
        let proto = HcmsProtocol::new(4, 64, eps(1.0), 51);
        let mut rng = StdRng::seed_from_u64(53);
        let r = proto.randomize(0, &mut rng);
        assert!(r.sign == 1 || r.sign == -1);
    }
}
