//! Hadamard response: a one-bit frequency oracle built on the Fourier
//! trick behind Apple's HCMS.
//!
//! Each user samples a uniform row index `j` of the `m×m` Hadamard matrix
//! (`m` = smallest power of two `> d`), computes the single ±1 entry
//! `H[j, value]` — an O(1) popcount, never materializing the matrix — and
//! sends `(j, bit)` with the bit flipped with probability `1/(e^ε+1)`
//! (binary randomized response).
//!
//! The server averages debiased signs per row to estimate the Hadamard
//! *spectrum* of the frequency vector, then inverts with one fast
//! Walsh–Hadamard transform. Because the transform is orthogonal, noise
//! added uniformly in the spectrum comes back uniformly in the counts: the
//! noise floor is `((e^ε+1)/(e^ε−1))²·n = (4e^ε/(e^ε−1)² + 1)·n` — one
//! unit per report above OUE/OLH, from a `log m + 1`-bit report, the
//! communication-optimal point the tutorial highlights in Apple's design.

use super::counters::{self, CounterState};
use super::{FoAggregator, FrequencyOracle};
use crate::privacy::Epsilon;
use ldp_sketch::hadamard::{fwht, hadamard_entry};
use rand::{Rng, RngCore};

/// A Hadamard-response report: a sampled spectrum row and a perturbed sign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HrReport {
    /// Uniformly sampled Hadamard row index in `[0, m)`.
    pub index: u64,
    /// The (possibly flipped) sign `H[index, value]`, as `±1`.
    pub sign: i8,
}

/// The Hadamard-response frequency oracle.
#[derive(Debug, Clone, Copy)]
pub struct HadamardResponse {
    d: u64,
    m: u64,
    epsilon: Epsilon,
    p_truth: f64,
}

impl HadamardResponse {
    /// Creates the oracle over `[0, d)`; the spectrum size is the smallest
    /// power of two `≥ d`.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub fn new(d: u64, epsilon: Epsilon) -> Self {
        assert!(d > 0, "domain must be non-empty");
        let m = d.next_power_of_two();
        let e = epsilon.exp();
        Self {
            d,
            m,
            epsilon,
            p_truth: e / (e + 1.0),
        }
    }

    /// Spectrum size `m` (power of two ≥ d).
    pub fn spectrum_size(&self) -> u64 {
        self.m
    }
}

impl FrequencyOracle for HadamardResponse {
    type Report = HrReport;
    type Aggregator = HrAggregator;

    fn name(&self) -> &'static str {
        "HR"
    }

    fn domain_size(&self) -> u64 {
        self.d
    }

    fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// One uniform row draw plus one Bernoulli flip draw per report.
    #[inline]
    fn randomize<R: RngCore + ?Sized>(&self, value: u64, rng: &mut R) -> HrReport {
        assert!(
            value < self.d,
            "value {value} outside domain of size {}",
            self.d
        );
        let index = rng.gen_range(0..self.m);
        let true_sign = hadamard_entry(index, value);
        let sign = if rng.gen_bool(self.p_truth) {
            true_sign
        } else {
            -true_sign
        };
        HrReport { index, sign }
    }

    fn new_aggregator(&self) -> HrAggregator {
        HrAggregator {
            sign_sums: vec![0i64; self.m as usize],
            row_counts: vec![0u64; self.m as usize],
            n: 0,
            d: self.d,
            p_truth: self.p_truth,
        }
    }

    fn count_variance(&self, n: usize, f: f64) -> f64 {
        // The count estimate is Σ_i s_i·H[j_i, v]/(2p−1): every term
        // squares to 1/(2p−1)², and only holders of `v` give it a nonzero
        // mean (1), so Var = n·(1/(2p−1)² − f) = n·(4e^ε/(e^ε−1)² + 1 − f)
        // exactly. The per-row report counts never enter the estimator.
        let e = self.epsilon.exp();
        n as f64 * (4.0 * e / (e - 1.0).powi(2) + 1.0 - f)
    }

    fn report_bits(&self) -> usize {
        (64 - (self.m - 1).leading_zeros()) as usize + 1
    }
}

/// Aggregator for [`HadamardResponse`]: per-row sign sums, inverted with a
/// single FWHT at estimation time.
///
/// # Estimation cost
///
/// Every `estimate()`/`estimate_items()` call pays one full fast
/// Walsh–Hadamard transform — `O(m log m)` regardless of how many items
/// are queried, because the transform inverts the whole spectrum at once.
/// There is no per-item shortcut (a single count is a dense functional of
/// all `m` spectrum rows), so callers should batch: query all candidate
/// items in **one** `estimate_items` call rather than looping, and reuse
/// the returned vector rather than re-estimating per lookup.
#[derive(Debug, Clone)]
pub struct HrAggregator {
    sign_sums: Vec<i64>,
    row_counts: Vec<u64>,
    n: usize,
    d: u64,
    p_truth: f64,
}

impl HrAggregator {
    /// Debiased, inverse-transformed counts over the full spectrum
    /// (length `m`); the shared `O(m log m)` work behind both `estimate`
    /// and `estimate_items`.
    fn transformed_counts(&self) -> Vec<f64> {
        let m = self.sign_sums.len();
        let two_p_minus_1 = 2.0 * self.p_truth - 1.0;
        // Unbiased spectrum estimate: theta_j = E[H[j,v]] over the
        // population; each report contributes sign/(2p-1), scaled by m/n to
        // undo the uniform row sampling.
        let n = self.n as f64;
        let mut spectrum: Vec<f64> = self
            .sign_sums
            .iter()
            .map(|&s| (m as f64 / n) * s as f64 / two_p_minus_1)
            .collect();
        // counts = n * (1/m) * H * spectrum  (inverse transform).
        fwht(&mut spectrum);
        for x in &mut spectrum {
            *x *= n / m as f64;
        }
        spectrum
    }
}

impl CounterState for HrAggregator {
    const STATE_TAG: u8 = crate::snapshot::state_tag::HADAMARD;
    const NAME: &'static str = "HR";

    fn config_bytes(&self, out: &mut Vec<u8>) {
        crate::wire::put_uvarint(out, self.d);
        crate::wire::put_f64_le(out, self.p_truth);
    }

    // Sign sums are signed (±1 per report), so only `n` and the per-row
    // report counts can detect a subtrahend that is not a sub-aggregate.
    crate::counter_fields!(Count n, Signed sign_sums, Plane row_counts);
}

impl FoAggregator for HrAggregator {
    type Report = HrReport;

    fn try_accumulate(&mut self, report: &HrReport) -> crate::Result<()> {
        if report.index as usize >= self.sign_sums.len() {
            return Err(crate::LdpError::Malformed(format!(
                "Hadamard row {} outside spectrum of size {}",
                report.index,
                self.sign_sums.len()
            )));
        }
        if report.sign != 1 && report.sign != -1 {
            return Err(crate::LdpError::Malformed(format!(
                "Hadamard sign must be ±1, got {}",
                report.sign
            )));
        }
        self.sign_sums[report.index as usize] += report.sign as i64;
        self.row_counts[report.index as usize] += 1;
        self.n += 1;
        Ok(())
    }

    fn reports(&self) -> usize {
        self.n
    }

    fn estimate(&self) -> Vec<f64> {
        let mut counts = self.transformed_counts();
        counts.truncate(self.d as usize);
        counts
    }

    /// Explicit override of the trait default: runs the FWHT **once** for
    /// the whole item batch and indexes the transformed spectrum, instead
    /// of materializing a second full-domain vector per call. The cost is
    /// still one `O(m log m)` transform per call — batch your items.
    fn estimate_items(&self, items: &[u64]) -> Vec<f64> {
        let counts = self.transformed_counts();
        items
            .iter()
            .map(|&v| {
                assert!(v < self.d, "item {v} outside domain of size {}", self.d);
                counts[v as usize]
            })
            .collect()
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
    fn spectrum_size_is_next_pow2() {
        assert_eq!(HadamardResponse::new(5, eps(1.0)).spectrum_size(), 8);
        assert_eq!(HadamardResponse::new(8, eps(1.0)).spectrum_size(), 8);
        assert_eq!(HadamardResponse::new(9, eps(1.0)).spectrum_size(), 16);
    }

    #[test]
    fn estimates_unbiased() {
        let hr = HadamardResponse::new(16, eps(2.0));
        let mut rng = StdRng::seed_from_u64(61);
        let n = 60_000;
        let mut agg = hr.new_aggregator();
        for u in 0..n {
            let v = (u % 4) as u64;
            agg.accumulate(&hr.randomize(v, &mut rng));
        }
        let est = agg.estimate();
        assert_eq!(est.len(), 16);
        let sd = hr.count_variance(n, 0.25).sqrt();
        for (i, &e) in est.iter().enumerate().take(4) {
            assert!(
                (e - n as f64 / 4.0).abs() < 5.0 * sd,
                "item {i}: est={e} sd={sd}"
            );
        }
        for (i, &e) in est.iter().enumerate().skip(4) {
            assert!(e.abs() < 5.0 * sd, "item {i}: est={e}");
        }
    }

    #[test]
    fn estimates_sum_close_to_n() {
        // Row 0 of H is all-ones, so the spectrum at 0 estimates 1 and the
        // estimate total should track n.
        let hr = HadamardResponse::new(8, eps(1.0));
        let mut rng = StdRng::seed_from_u64(67);
        let n = 30_000;
        let mut agg = hr.new_aggregator();
        for u in 0..n {
            agg.accumulate(&hr.randomize((u % 8) as u64, &mut rng));
        }
        let total: f64 = agg.estimate().iter().sum();
        assert!((total - n as f64).abs() < n as f64 * 0.05, "total={total}");
    }

    #[test]
    fn estimate_items_matches_full_estimate_with_one_transform() {
        let hr = HadamardResponse::new(12, eps(1.0)); // m = 16 > d = 12
        let mut rng = StdRng::seed_from_u64(73);
        let mut agg = hr.new_aggregator();
        for u in 0..5000 {
            agg.accumulate(&hr.randomize((u % 12) as u64, &mut rng));
        }
        let full = agg.estimate();
        assert_eq!(full.len(), 12);
        let items = [0u64, 3, 11];
        let batch = agg.estimate_items(&items);
        for (k, &v) in items.iter().enumerate() {
            assert_eq!(batch[k], full[v as usize]);
        }
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn estimate_items_rejects_out_of_domain() {
        let hr = HadamardResponse::new(12, eps(1.0));
        let mut rng = StdRng::seed_from_u64(74);
        let mut agg = hr.new_aggregator();
        agg.accumulate(&hr.randomize(0, &mut rng));
        agg.estimate_items(&[12]); // m = 16, but the domain ends at 12
    }

    #[test]
    fn one_bit_report() {
        let hr = HadamardResponse::new(1 << 20, eps(1.0));
        assert_eq!(hr.report_bits(), 21); // 20-bit index + 1-bit sign
    }

    #[test]
    fn sign_flip_probability_matches() {
        let hr = HadamardResponse::new(4, eps(1.0));
        let mut rng = StdRng::seed_from_u64(71);
        let n = 200_000;
        let mut kept = 0u64;
        for _ in 0..n {
            let r = hr.randomize(2, &mut rng);
            if r.sign == hadamard_entry(r.index, 2) {
                kept += 1;
            }
        }
        let p_hat = kept as f64 / n as f64;
        let p = 1.0f64.exp() / (1.0f64.exp() + 1.0);
        assert!((p_hat - p).abs() < 0.01, "p_hat={p_hat} p={p}");
    }
}
