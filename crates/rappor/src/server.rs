//! The RAPPOR aggregator: per-cohort bit counting, channel debiasing, and
//! candidate regression (LASSO selection + least-squares fit).
//!
//! Decoding follows the CCS 2014 paper's pipeline:
//!
//! 1. Per cohort `i` and bit `j`, debias the observed 1-count through the
//!    composed PRR∘IRR channel: `t_ij = (c_ij − p*·n_i)/(q* − p*)` — an
//!    unbiased estimate of how many of cohort `i`'s users had Bloom bit
//!    `j` set.
//! 2. Stack `t` into a vector `Y` of length `cohorts·k`, and build the
//!    design matrix `X` whose column for candidate `s` is the stacked
//!    indicator of `s`'s Bloom signature in every cohort.
//! 3. Fit non-negative LASSO to select plausible candidates, then ordinary
//!    least squares on the survivors for unbiased magnitudes (the paper's
//!    exact two-stage scheme).
//! 4. A candidate's frequency estimate is its coefficient × cohorts
//!    (each cohort sees `≈ n/m` of its users).

use crate::client::RapporReport;
use crate::params::RapporParams;
use ldp_core::fo::counters::{self, CounterState};
use ldp_sketch::linalg::{lasso_sparse, least_squares, Matrix, SparseColMatrix};
use ldp_sketch::BloomFilter;

/// A decoded candidate: its estimated population count and selection state.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedCandidate {
    /// Index into the candidate list passed to
    /// [`RapporAggregator::decode`].
    pub candidate: usize,
    /// Estimated number of users holding this value.
    pub estimate: f64,
    /// Whether the LASSO stage selected the candidate (unselected
    /// candidates get estimate 0 from the OLS stage).
    pub selected: bool,
}

/// Server-side accumulation of RAPPOR reports.
#[derive(Debug, Clone)]
pub struct RapporAggregator {
    params: RapporParams,
    /// Per-cohort, per-bit 1-counts, cohort-major: bit `j` of cohort
    /// `i` is `counts[i * k + j]`.
    counts: Vec<u64>,
    /// Reports per cohort.
    cohort_sizes: Vec<u64>,
}

impl CounterState for RapporAggregator {
    const STATE_TAG: u8 = ldp_core::snapshot::state_tag::RAPPOR;
    const NAME: &'static str = "RAPPOR";

    fn config_bytes(&self, out: &mut Vec<u8>) {
        ldp_core::wire::put_uvarint(out, self.params.bloom_bits() as u64);
        ldp_core::wire::put_uvarint(out, u64::from(self.params.hashes()));
        ldp_core::wire::put_uvarint(out, u64::from(self.params.cohorts()));
        ldp_core::wire::put_f64_le(out, self.params.f());
        ldp_core::wire::put_f64_le(out, self.params.p());
        ldp_core::wire::put_f64_le(out, self.params.q());
    }

    ldp_core::counter_fields!(Plane cohort_sizes, Plane counts);
}

impl RapporAggregator {
    /// Creates an empty aggregator for the given parameters.
    pub fn new(params: RapporParams) -> Self {
        let m = params.cohorts() as usize;
        let k = params.bloom_bits();
        Self {
            params,
            counts: vec![0; m * k],
            cohort_sizes: vec![0; m],
        }
    }

    /// Folds one report into the per-cohort bit counts.
    ///
    /// # Panics
    /// Panics if the report's cohort or width does not match the
    /// aggregator's parameters.
    pub fn accumulate(&mut self, report: &RapporReport) {
        self.accumulate_bits(report.cohort, &report.bits);
    }

    /// Folds one report given as a raw `(cohort, bits)` pair — the
    /// allocation-free counterpart of [`accumulate`](Self::accumulate),
    /// for loops that reuse one bit buffer via
    /// [`crate::RapporClient::report_into`].
    ///
    /// # Panics
    /// Panics if the cohort or width does not match the parameters.
    pub fn accumulate_bits(&mut self, cohort: u32, bits: &ldp_sketch::BitVec) {
        let cohort = cohort as usize;
        assert!(
            cohort < self.cohort_sizes.len(),
            "cohort {cohort} out of range"
        );
        let k = self.params.bloom_bits();
        assert_eq!(bits.len(), k, "report width mismatch");
        bits.accumulate_into(&mut self.counts[cohort * k..(cohort + 1) * k]);
        self.cohort_sizes[cohort] += 1;
    }

    /// Total reports accumulated.
    pub fn reports(&self) -> u64 {
        self.cohort_sizes.iter().sum()
    }

    /// The parameters this aggregator was configured for.
    pub fn params(&self) -> &RapporParams {
        &self.params
    }

    /// Merges another aggregator's counters into this one, as if its
    /// reports had been accumulated here. Exact (integer addition), so
    /// sharded or checkpointed collection is bit-identical to sequential.
    ///
    /// # Errors
    /// As [`counters::merge`]: a parameter mismatch or a counter
    /// overflow; `self` is unchanged on error.
    pub fn merge(&mut self, other: Self) -> ldp_core::Result<()> {
        counters::merge(self, &other)
    }

    /// Subtracts another aggregator's counters from this one — the exact
    /// inverse of [`merge`](Self::merge) for retiring a window delta
    /// from a running total.
    ///
    /// # Errors
    /// As [`counters::subtract`]: a parameter mismatch, or `other` is not
    /// a sub-aggregate of this state; `self` is unchanged on error.
    pub fn try_subtract(&mut self, other: &Self) -> ldp_core::Result<()> {
        counters::subtract(self, other)
    }

    /// The debiased per-cohort, per-bit estimates `t_ij` (step 1 of
    /// decoding). Exposed for diagnostics and tests.
    pub fn debiased_bit_counts(&self) -> Vec<Vec<f64>> {
        let (p_star, q_star) = self.params.effective_channel();
        self.counts
            .chunks_exact(self.params.bloom_bits())
            .zip(&self.cohort_sizes)
            .map(|(bits, &n)| {
                bits.iter()
                    .map(|&c| (c as f64 - p_star * n as f64) / (q_star - p_star))
                    .collect()
            })
            .collect()
    }

    /// The stacked 0/1 candidate design matrix in sparse column form:
    /// column `s` holds the row indices `i·k + j` where candidate `s`'s
    /// Bloom signature sets bit `j` in cohort `i`. Only the `h` set bits
    /// per cohort are stored — a `h/k` fill (≈3% at h=2, k=64) instead
    /// of a dense `m·k × candidates` allocation.
    fn design_matrix(&self, candidates: &[&[u8]]) -> SparseColMatrix {
        let k = self.params.bloom_bits();
        let m = self.params.cohorts() as usize;
        let columns: Vec<Vec<u32>> = candidates
            .iter()
            .map(|cand| {
                let mut col = Vec::with_capacity(m * self.params.hashes() as usize);
                for i in 0..m {
                    let sig = BloomFilter::signature(k, self.params.hashes(), i as u32, cand);
                    col.extend(sig.ones().map(|j| (i * k + j) as u32));
                }
                col
            })
            .collect();
        SparseColMatrix::from_columns(m * k, &columns)
    }

    /// Decodes candidate frequencies via LASSO selection + OLS fit.
    ///
    /// Returns one [`DecodedCandidate`] per input candidate, in input
    /// order. Estimates are population counts (may be slightly negative
    /// for absent candidates; unbiasedness over clamping).
    ///
    /// The selection stage runs on the sparse design matrix with the
    /// active-set solver ([`lasso_sparse`]) — per sweep it touches only
    /// the `h·m` stored bits of each column instead of all `m·k` rows,
    /// and between full sweeps only the few selected candidates at all.
    /// Statistically equivalent to the dense-matrix decode this replaces
    /// (same design matrix, same `λ`, same convergence tolerance; the
    /// active-set schedule reorders coordinate updates).
    pub fn decode(&self, candidates: &[&[u8]]) -> Vec<DecodedCandidate> {
        let k = self.params.bloom_bits();
        let m = self.params.cohorts() as usize;
        let rows = m * k;
        let n_cand = candidates.len();
        if n_cand == 0 {
            return Vec::new();
        }

        // Design matrix: X[(i*k + j), s] = candidate s's signature bit j in
        // cohort i — built directly in sparse column form.
        let x = self.design_matrix(candidates);

        // Target: debiased bit counts, stacked.
        let t = self.debiased_bit_counts();
        let mut y = Vec::with_capacity(rows);
        for cohort in &t {
            y.extend_from_slice(cohort);
        }

        // Stage 1: non-negative LASSO for support selection. Lambda scales
        // with the noise level: sd of t_ij is ~ sqrt(n_i q*(1-q*))/(q*-p*).
        let (p_star, q_star) = self.params.effective_channel();
        let avg_cohort = self.reports() as f64 / m as f64;
        let noise_sd = (avg_cohort * q_star * (1.0 - q_star)).sqrt() / (q_star - p_star);
        let lambda = noise_sd * (2.0 * (n_cand.max(2) as f64).ln()).sqrt();
        let selected_coefs = lasso_sparse(&x, &y, lambda, true, 200, 1e-6);
        let support: Vec<usize> = (0..n_cand).filter(|&s| selected_coefs[s] > 1e-9).collect();

        let mut out: Vec<DecodedCandidate> = (0..n_cand)
            .map(|s| DecodedCandidate {
                candidate: s,
                estimate: 0.0,
                selected: false,
            })
            .collect();
        if support.is_empty() {
            return out;
        }

        // Stage 2: OLS restricted to the support (unbiased magnitudes).
        // The support is small, so the dense QR solver is the right tool.
        let mut xs = Matrix::zeros(rows, support.len());
        for (c_new, &s) in support.iter().enumerate() {
            for &r in x.col(s) {
                xs.set(r as usize, c_new, 1.0);
            }
        }
        let coefs = least_squares(&xs, &y);
        for (c_new, &s) in support.iter().enumerate() {
            out[s].selected = true;
            // Coefficient is per-cohort user count; total = coef * m when
            // cohorts are balanced. Use the exact cohort-size-weighted
            // scaling: sum over cohorts of (coef * n_i / avg) / m == coef*m
            // for balanced cohorts.
            out[s].estimate = coefs[c_new] * m as f64;
        }
        out
    }

    /// Convenience: decode and return `(candidate index, estimate)` sorted
    /// by estimate descending, dropping unselected candidates.
    pub fn top_candidates(&self, candidates: &[&[u8]]) -> Vec<(usize, f64)> {
        let mut decoded: Vec<(usize, f64)> = self
            .decode(candidates)
            .into_iter()
            .filter(|d| d.selected)
            .map(|d| (d.candidate, d.estimate))
            .collect();
        decoded.sort_by(|a, b| b.1.total_cmp(&a.1));
        decoded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RapporClient;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Simulates a population holding values with the given weights and
    /// returns the aggregator.
    fn simulate(
        params: &RapporParams,
        values: &[(&[u8], usize)],
        rng: &mut StdRng,
    ) -> RapporAggregator {
        let mut agg = RapporAggregator::new(params.clone());
        for &(value, count) in values {
            for _ in 0..count {
                let mut client = RapporClient::with_random_cohort(params.clone(), rng);
                agg.accumulate(&client.report(value, rng));
            }
        }
        agg
    }

    #[test]
    fn debiased_counts_track_signatures() {
        let params = RapporParams::new(32, 2, 2, 0.25, 0.35, 0.65).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let agg = simulate(&params, &[(b"only-value", 8000)], &mut rng);
        let t = agg.debiased_bit_counts();
        for cohort in 0..2u32 {
            let sig = BloomFilter::signature(32, 2, cohort, b"only-value");
            let n_i = agg.cohort_sizes[cohort as usize] as f64;
            for (j, &tj) in t[cohort as usize].iter().enumerate() {
                let expected = if sig.get(j) { n_i } else { 0.0 };
                assert!(
                    (tj - expected).abs() < n_i * 0.15 + 60.0,
                    "cohort {cohort} bit {j}: {tj} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn decode_recovers_frequencies() {
        let params = RapporParams::new(64, 2, 8, 0.25, 0.35, 0.65).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let agg = simulate(
            &params,
            &[(b"alpha", 6000), (b"beta", 3000), (b"gamma", 1000)],
            &mut rng,
        );
        let candidates: Vec<&[u8]> = vec![b"alpha", b"beta", b"gamma", b"absent-1", b"absent-2"];
        let decoded = agg.decode(&candidates);
        assert!(decoded[0].selected, "alpha must be selected");
        assert!(decoded[1].selected, "beta must be selected");
        assert!(
            (decoded[0].estimate - 6000.0).abs() < 1200.0,
            "alpha={}",
            decoded[0].estimate
        );
        assert!(
            (decoded[1].estimate - 3000.0).abs() < 1000.0,
            "beta={}",
            decoded[1].estimate
        );
        // Absent candidates should not beat real ones.
        assert!(decoded[3].estimate < decoded[1].estimate);
        assert!(decoded[4].estimate < decoded[1].estimate);
    }

    #[test]
    fn top_candidates_ordered() {
        let params = RapporParams::new(64, 2, 8, 0.25, 0.35, 0.65).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let agg = simulate(&params, &[(b"big", 7000), (b"small", 2000)], &mut rng);
        let candidates: Vec<&[u8]> = vec![b"small", b"big", b"nope"];
        let top = agg.top_candidates(&candidates);
        assert!(!top.is_empty());
        assert_eq!(top[0].0, 1, "'big' should rank first");
    }

    /// The pre-sparse decode pipeline, reproduced verbatim: dense design
    /// matrix + dense cyclic-sweep LASSO. The production decode must
    /// stay statistically equivalent to this.
    fn decode_dense_reference(
        agg: &RapporAggregator,
        candidates: &[&[u8]],
    ) -> Vec<DecodedCandidate> {
        use ldp_sketch::linalg::lasso;
        let k = agg.params.bloom_bits();
        let m = agg.params.cohorts() as usize;
        let rows = m * k;
        let n_cand = candidates.len();
        let mut x = Matrix::zeros(rows, n_cand);
        for (s, cand) in candidates.iter().enumerate() {
            for i in 0..m {
                let sig = BloomFilter::signature(k, agg.params.hashes(), i as u32, cand);
                for j in sig.ones() {
                    x.set(i * k + j, s, 1.0);
                }
            }
        }
        let t = agg.debiased_bit_counts();
        let mut y = Vec::with_capacity(rows);
        for cohort in &t {
            y.extend_from_slice(cohort);
        }
        let (p_star, q_star) = agg.params.effective_channel();
        let avg_cohort = agg.reports() as f64 / m as f64;
        let noise_sd = (avg_cohort * q_star * (1.0 - q_star)).sqrt() / (q_star - p_star);
        let lambda = noise_sd * (2.0 * (n_cand.max(2) as f64).ln()).sqrt();
        let selected_coefs = lasso(&x, &y, lambda, true, 200, 1e-6);
        let support: Vec<usize> = (0..n_cand).filter(|&s| selected_coefs[s] > 1e-9).collect();
        let mut out: Vec<DecodedCandidate> = (0..n_cand)
            .map(|s| DecodedCandidate {
                candidate: s,
                estimate: 0.0,
                selected: false,
            })
            .collect();
        if support.is_empty() {
            return out;
        }
        let mut xs = Matrix::zeros(rows, support.len());
        for (c_new, &s) in support.iter().enumerate() {
            for r in 0..rows {
                xs.set(r, c_new, x.get(r, s));
            }
        }
        let coefs = least_squares(&xs, &y);
        for (c_new, &s) in support.iter().enumerate() {
            out[s].selected = true;
            out[s].estimate = coefs[c_new] * m as f64;
        }
        out
    }

    #[test]
    fn sparse_decode_statistically_equivalent_to_dense_reference() {
        // Same design matrix, λ, and tolerance — the sparse active-set
        // decode must select the same support and land within the LASSO
        // convergence tolerance of the frozen dense pipeline.
        for seed in [11u64, 29, 31] {
            let params = RapporParams::new(64, 2, 8, 0.25, 0.35, 0.65).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let agg = simulate(
                &params,
                &[(b"alpha", 6000), (b"beta", 3000), (b"gamma", 1000)],
                &mut rng,
            );
            let candidates: Vec<&[u8]> =
                vec![b"alpha", b"beta", b"gamma", b"absent-1", b"absent-2"];
            let sparse = agg.decode(&candidates);
            let dense = decode_dense_reference(&agg, &candidates);
            for (sp, dn) in sparse.iter().zip(&dense) {
                assert_eq!(
                    sp.selected, dn.selected,
                    "seed {seed} candidate {}: support mismatch",
                    sp.candidate
                );
                assert!(
                    (sp.estimate - dn.estimate).abs() < 1e-3 * (1.0 + dn.estimate.abs()),
                    "seed {seed} candidate {}: {} vs {}",
                    sp.candidate,
                    sp.estimate,
                    dn.estimate
                );
            }
        }
    }

    #[test]
    fn empty_candidates_empty_result() {
        let params = RapporParams::small(4).unwrap();
        let agg = RapporAggregator::new(params);
        assert!(agg.decode(&[]).is_empty());
    }

    #[test]
    fn cohorts_fill_roughly_evenly() {
        let params = RapporParams::small(16).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let mut agg = RapporAggregator::new(params.clone());
        for _ in 0..3200 {
            let mut c = RapporClient::with_random_cohort(params.clone(), &mut rng);
            let v: u64 = rng.gen_range(0..10);
            agg.accumulate(&c.report(format!("v{v}").as_bytes(), &mut rng));
        }
        for (i, &n) in agg.cohort_sizes.iter().enumerate() {
            assert!((100..300).contains(&n), "cohort {i} has {n}");
        }
    }

    #[test]
    #[should_panic(expected = "report width mismatch")]
    fn width_mismatch_panics() {
        let params = RapporParams::small(4).unwrap();
        let mut agg = RapporAggregator::new(params);
        let bad = RapporReport {
            cohort: 0,
            bits: ldp_sketch::BitVec::zeros(7),
        };
        agg.accumulate(&bad);
    }
}
