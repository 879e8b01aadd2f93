//! Histogram-encoding frequency oracles: SHE and THE.
//!
//! Instead of flipping bits, the client adds continuous Laplace noise to
//! each coordinate of its one-hot vector. Changing the input moves two
//! coordinates by 1 each (L1 sensitivity 2), so per-coordinate `Lap(2/ε)`
//! gives ε-LDP.
//!
//! * **SHE** (summation with histogram encoding) transmits the raw noisy
//!   vector; the server just sums. Simple, but the noise floor `8/ε²·n` is
//!   never competitive.
//! * **THE** (thresholding with histogram encoding) transmits only the
//!   *indicator* of each noisy coordinate exceeding a threshold `θ`. The
//!   induced channel has `p = 1 − ½e^{ε(θ−1)/2}`, `q = ½e^{−εθ/2}`;
//!   optimizing `θ` numerically (it lands in `(½, 1)`) makes THE
//!   competitive with OUE — the tutorial's example of post-processing
//!   buying back utility.
//!
//! Because the noisy coordinates are independent and the report only
//! carries the threshold indicators, THE's output distribution is exactly
//! "bit `i` set with probability `p` (one-hot position) or `q` (others)".
//! The implementation therefore samples the induced Bernoulli channel
//! directly through the unary family's sampler ([`crate::fo::batch`]) —
//! `q = ½e^{−εθ/2}` is at least 0.30 at ε = 1, so from `d = 64` on it
//! compares 64 positions per RNG word (~8.46 uniform draws per 64 bits —
//! an 8-draw prefix plus a short tail — instead of 64 Laplace draws) —
//! and never materializes the continuous
//! noise it marginalizes out. THE is thus a member of the unary family
//! outright: its oracle impls come from the same macro as SUE/OUE's, and
//! its [`TheAggregator`] is the unary [`OnesAggregator`] under THE's own
//! snapshot tag.

use super::unary::OnesAggregator;
use super::{batch, FoAggregator, FrequencyOracle, SetBitSampler};
use crate::estimate::debiased_count_variance;
use crate::noise::fill_laplace;
use crate::privacy::Epsilon;
use crate::snapshot::state_tag;
use crate::{Error, Result};
use ldp_sketch::BitVec;
use rand::RngCore;

/// Summation with histogram encoding: report a one-hot vector plus
/// per-coordinate `Lap(2/ε)` noise.
///
/// **Floating-point caveat.** The noise is f64 Laplace from
/// [`fill_laplace`] (inverse CDF through a polynomial `ln`). Textbook
/// floating-point Laplace can leak the input through the low-order bits
/// of its output (Mironov, "On Significance of the Least Significant Bits
/// for Differential Privacy", CCS 2012). SHE is not audited for this: its
/// ε holds for the real-valued mechanism. Fixing it (snapping or discrete
/// Laplace) would be a new mechanism, not a change to this one.
#[derive(Debug, Clone, Copy)]
pub struct SummationHistogramEncoding {
    d: u64,
    epsilon: Epsilon,
    scale: f64,
}

impl SummationHistogramEncoding {
    /// Creates SHE over a domain of `d ≥ 2` items.
    ///
    /// # Errors
    /// Returns [`Error::InvalidDomain`] if `d < 2`.
    pub fn new(d: u64, epsilon: Epsilon) -> Result<Self> {
        if d < 2 {
            return Err(Error::InvalidDomain(format!(
                "histogram encoding needs d >= 2, got {d}"
            )));
        }
        Ok(Self {
            d,
            epsilon,
            scale: 2.0 / epsilon.value(),
        })
    }

    /// The per-coordinate Laplace scale `2/ε`.
    pub fn noise_scale(&self) -> f64 {
        self.scale
    }
}

impl FrequencyOracle for SummationHistogramEncoding {
    type Report = Vec<f64>;
    type Aggregator = SheAggregator;

    fn name(&self) -> &'static str {
        "SHE"
    }

    fn domain_size(&self) -> u64 {
        self.d
    }

    fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// One batched Laplace block ([`fill_laplace`]: uniform block then
    /// branchless transform) plus the one-hot bump. The fused path runs
    /// the same kernel, so scalar, batch, and fused streams stay
    /// bit-identical for a given seed.
    fn randomize<R: RngCore + ?Sized>(&self, value: u64, rng: &mut R) -> Vec<f64> {
        assert!(
            value < self.d,
            "value {value} outside domain of size {}",
            self.d
        );
        let mut out = vec![0.0; self.d as usize];
        fill_laplace(self.scale, rng, &mut out);
        out[value as usize] += 1.0;
        out
    }

    /// Fused batch path: one scratch block reused across reports — each
    /// report is a [`fill_laplace`] block plus the one-hot bump, added
    /// into the aggregator's sums. No per-report `Vec<f64>`, and the
    /// same kernel (hence the same additions in the same order) as the
    /// scalar randomize→accumulate loop, so the floating-point state is
    /// bit-identical for a given seed.
    fn randomize_accumulate_batch<R: RngCore>(
        &self,
        values: &[u64],
        rng: &mut R,
        agg: &mut SheAggregator,
    ) {
        assert_eq!(agg.sums.len(), self.d as usize, "aggregator width mismatch");
        let mut scratch = vec![0.0; self.d as usize];
        for &v in values {
            assert!(v < self.d, "value {v} outside domain of size {}", self.d);
            fill_laplace(self.scale, rng, &mut scratch);
            scratch[v as usize] += 1.0;
            for (s, x) in agg.sums.iter_mut().zip(&scratch) {
                *s += x;
            }
            agg.n += 1;
        }
    }

    fn new_aggregator(&self) -> SheAggregator {
        SheAggregator {
            sums: vec![0.0; self.d as usize],
            n: 0,
        }
    }

    fn count_variance(&self, n: usize, _f: f64) -> f64 {
        // Each count estimate is a sum of n Laplace noises: n · 2·(2/ε)².
        n as f64 * 2.0 * self.scale * self.scale
    }

    fn report_bits(&self) -> usize {
        self.d as usize * 64
    }
}

/// Aggregator for [`SummationHistogramEncoding`]: coordinate-wise sums —
/// already unbiased, no debiasing step needed.
#[derive(Debug, Clone)]
pub struct SheAggregator {
    sums: Vec<f64>,
    n: usize,
}

impl crate::snapshot::StateSnapshot for SheAggregator {
    fn state_tag(&self) -> u8 {
        crate::snapshot::state_tag::SHE
    }

    fn snapshot_payload(&self, out: &mut Vec<u8>) {
        crate::snapshot::put_count(out, self.n);
        crate::snapshot::put_reals(out, &self.sums);
    }

    fn restore_payload(&mut self, r: &mut crate::wire::WireReader<'_>) -> crate::Result<()> {
        let n = crate::snapshot::get_count(r)?;
        let sums = crate::snapshot::get_reals(r, self.sums.len(), "SHE sums")?;
        self.n = n;
        self.sums = sums;
        Ok(())
    }
}

impl FoAggregator for SheAggregator {
    type Report = Vec<f64>;

    fn try_accumulate(&mut self, report: &Vec<f64>) -> crate::Result<()> {
        if report.len() != self.sums.len() {
            return Err(crate::LdpError::Malformed(format!(
                "SHE report width {} != domain size {}",
                report.len(),
                self.sums.len()
            )));
        }
        // A NaN/±inf coordinate would poison every estimate permanently;
        // legitimate clients (one-hot + Laplace noise) never produce one.
        if let Some(x) = report.iter().find(|x| !x.is_finite()) {
            return Err(crate::LdpError::Malformed(format!(
                "SHE report carries non-finite coordinate {x}"
            )));
        }
        for (s, r) in self.sums.iter_mut().zip(report) {
            *s += r;
        }
        self.n += 1;
        Ok(())
    }

    fn reports(&self) -> usize {
        self.n
    }

    fn estimate(&self) -> Vec<f64> {
        self.sums.clone()
    }

    /// Coordinate-wise sum of the two states. The only floating-point
    /// merge in the family: equal to sequential accumulation up to
    /// addition reassociation (the counts are exact for every integer
    /// aggregator).
    fn merge(&mut self, other: Self) -> crate::Result<()> {
        if self.sums.len() != other.sums.len() {
            return Err(crate::LdpError::StateMismatch(
                "merge: SHE domain mismatch".into(),
            ));
        }
        let n = self.n.checked_add(other.n).ok_or_else(|| {
            crate::LdpError::CounterOverflow("merge: SHE report count overflows".into())
        })?;
        for (a, b) in self.sums.iter_mut().zip(&other.sums) {
            *a += b;
        }
        self.n = n;
        Ok(())
    }

    /// SHE keeps the trait's refusal, with its own reason: the state is
    /// floating-point sums, and `(a + b) - b == a` does not hold for
    /// `f64` once additions reassociate — a "subtracted" total would
    /// silently drift from the rebuild-from-deltas truth, so the window
    /// layer must re-merge live windows instead.
    fn try_subtract(&mut self, other: &Self) -> crate::Result<()> {
        let _ = other;
        Err(crate::LdpError::NotSubtractive(
            "SHE state is floating-point sums; subtraction is not an exact merge inverse".into(),
        ))
    }
}

/// Thresholding with histogram encoding: SHE followed by a client-side
/// threshold at `θ`, transmitting one bit per coordinate.
///
/// Implemented by sampling the induced `(p, q)` Bernoulli channel
/// directly (the thresholded-Laplace construction marginalizes to exactly
/// that) through the unary family's [`batch::OneHotSampler`].
#[derive(Debug, Clone)]
pub struct ThresholdHistogramEncoding {
    epsilon: Epsilon,
    theta: f64,
    /// The induced one-hot channel, its zero-position sampler picked
    /// from `d` once per oracle.
    chan: batch::OneHotSampler,
}

impl ThresholdHistogramEncoding {
    /// Creates THE with the variance-optimal threshold for `epsilon`.
    ///
    /// # Errors
    /// Returns [`Error::InvalidDomain`] if `d < 2`.
    pub fn new(d: u64, epsilon: Epsilon) -> Result<Self> {
        let theta = Self::optimal_theta(epsilon);
        Self::with_theta(d, epsilon, theta)
    }

    /// Creates THE with an explicit threshold `θ ∈ (0, 1]`.
    ///
    /// # Errors
    /// Returns [`Error::InvalidDomain`] if `d < 2`, or
    /// [`Error::InvalidParameter`] for θ outside `(0, 1]`.
    pub fn with_theta(d: u64, epsilon: Epsilon, theta: f64) -> Result<Self> {
        if d < 2 {
            return Err(Error::InvalidDomain(format!(
                "histogram encoding needs d >= 2, got {d}"
            )));
        }
        if !(theta > 0.0 && theta <= 1.0) {
            return Err(Error::InvalidParameter(format!(
                "theta must be in (0,1], got {theta}"
            )));
        }
        let (p, q) = Self::channel(epsilon, theta);
        Ok(Self {
            epsilon,
            theta,
            chan: batch::OneHotSampler::new(d, p, q),
        })
    }

    /// The `(p, q)` channel induced by thresholding `Lap(2/ε)` noise at θ:
    /// `p = P[1 + Lap > θ] = 1 − ½e^{ε(θ−1)/2}`,
    /// `q = P[0 + Lap > θ] = ½e^{−εθ/2}`.
    fn channel(epsilon: Epsilon, theta: f64) -> (f64, f64) {
        let e = epsilon.value();
        let p = 1.0 - 0.5 * (e * (theta - 1.0) / 2.0).exp();
        let q = 0.5 * (-e * theta / 2.0).exp();
        (p, q)
    }

    /// Numerically minimizes the noise-floor variance `q(1−q)/(p−q)²` over
    /// `θ ∈ (½, 1]` by golden-section search (the objective is unimodal
    /// there, per Wang et al.).
    pub fn optimal_theta(epsilon: Epsilon) -> f64 {
        let objective = |theta: f64| {
            let (p, q) = Self::channel(epsilon, theta);
            q * (1.0 - q) / (p - q).powi(2)
        };
        let phi = (5.0f64.sqrt() - 1.0) / 2.0;
        let (mut lo, mut hi) = (0.5, 1.0);
        let mut x1 = hi - phi * (hi - lo);
        let mut x2 = lo + phi * (hi - lo);
        let mut f1 = objective(x1);
        let mut f2 = objective(x2);
        for _ in 0..80 {
            if f1 < f2 {
                hi = x2;
                x2 = x1;
                f2 = f1;
                x1 = hi - phi * (hi - lo);
                f1 = objective(x1);
            } else {
                lo = x1;
                x1 = x2;
                f1 = f2;
                x2 = lo + phi * (hi - lo);
                f2 = objective(x2);
            }
        }
        (lo + hi) / 2.0
    }

    /// The threshold in use.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The induced `(p, q)` channel.
    pub fn probabilities(&self) -> (f64, f64) {
        self.chan.probabilities()
    }
}

super::unary::impl_unary_oracle!(ThresholdHistogramEncoding, "THE", TheAggregator);

/// Aggregator for [`ThresholdHistogramEncoding`]: the unary family's
/// per-position counts with `(p, q)` debiasing, under THE's own snapshot
/// tag.
pub type TheAggregator = OnesAggregator<{ state_tag::THE }>;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    /// The wire-facing checked accumulate rejects non-finite
    /// coordinates — one NaN would otherwise poison every estimate.
    #[test]
    fn she_try_accumulate_rejects_non_finite() {
        let she = SummationHistogramEncoding::new(4, eps(1.0)).unwrap();
        let mut agg = she.new_aggregator();
        assert!(agg.try_accumulate(&vec![0.5, -0.2, 1.1, 0.0]).is_ok());
        assert!(agg.try_accumulate(&vec![0.5, f64::NAN, 1.1, 0.0]).is_err());
        assert!(agg
            .try_accumulate(&vec![f64::INFINITY, 0.0, 0.0, 0.0])
            .is_err());
        assert!(agg.try_accumulate(&vec![0.5, 0.2]).is_err(), "width");
        assert_eq!(agg.reports(), 1, "rejected reports leave state intact");
        assert!(agg.estimate().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn she_variance_is_8_over_eps_sq_per_user() {
        let she = SummationHistogramEncoding::new(8, eps(2.0)).unwrap();
        let v = she.count_variance(1000, 0.3);
        assert!((v - 1000.0 * 8.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn she_estimates_unbiased() {
        let she = SummationHistogramEncoding::new(4, eps(1.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(43);
        let n = 20_000;
        let mut agg = she.new_aggregator();
        for u in 0..n {
            agg.accumulate(&she.randomize((u % 4) as u64, &mut rng));
        }
        let est = agg.estimate();
        for (i, &e) in est.iter().enumerate().take(4) {
            let sd = she.count_variance(n, 0.25).sqrt();
            assert!((e - n as f64 / 4.0).abs() < 5.0 * sd, "item {i}: {e}");
        }
    }

    /// A point query debiases only the queried counters, bit-identical
    /// to picking the same items out of the full-domain estimate.
    #[test]
    fn the_estimate_items_is_bit_identical_to_full_estimate() {
        let the = ThresholdHistogramEncoding::new(100, eps(1.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(47);
        let mut agg = the.new_aggregator();
        for u in 0..3_000u64 {
            agg.accumulate(&the.randomize(u % 13, &mut rng));
        }
        let items = [99u64, 0, 7, 7, 12, 50];
        crate::fo::assert_point_queries_match_full_estimate(&agg, &items);
    }

    #[test]
    fn the_optimal_theta_in_expected_range() {
        for &e in &[0.5, 1.0, 2.0, 4.0] {
            let theta = ThresholdHistogramEncoding::optimal_theta(eps(e));
            assert!(theta > 0.5 && theta <= 1.0, "eps={e} theta={theta}");
        }
    }

    #[test]
    fn the_optimal_theta_beats_fixed_choices() {
        let e = eps(1.0);
        let opt = ThresholdHistogramEncoding::new(16, e).unwrap();
        let n = 1000;
        for &theta in &[0.55, 0.7, 0.9, 1.0] {
            let fixed = ThresholdHistogramEncoding::with_theta(16, e, theta).unwrap();
            assert!(
                opt.noise_floor_variance(n) <= fixed.noise_floor_variance(n) * 1.001,
                "theta={theta}"
            );
        }
    }

    #[test]
    fn the_channel_probabilities_consistent_with_sampling() {
        let the = ThresholdHistogramEncoding::new(2, eps(1.5)).unwrap();
        let (p, q) = the.probabilities();
        let mut rng = StdRng::seed_from_u64(47);
        let n = 200_000;
        let mut ones_true = 0u64;
        let mut ones_false = 0u64;
        for _ in 0..n {
            let r = the.randomize(0, &mut rng);
            if r.get(0) {
                ones_true += 1;
            }
            if r.get(1) {
                ones_false += 1;
            }
        }
        let p_hat = ones_true as f64 / n as f64;
        let q_hat = ones_false as f64 / n as f64;
        assert!((p_hat - p).abs() < 0.01, "p_hat={p_hat} p={p}");
        assert!((q_hat - q).abs() < 0.01, "q_hat={q_hat} q={q}");
    }

    #[test]
    fn the_competitive_with_she() {
        // THE's optimized threshold should beat SHE's raw noise floor.
        let e = eps(1.0);
        let n = 1000;
        let the = ThresholdHistogramEncoding::new(64, e).unwrap();
        let she = SummationHistogramEncoding::new(64, e).unwrap();
        assert!(the.noise_floor_variance(n) < she.noise_floor_variance(n));
    }

    #[test]
    fn the_rejects_bad_theta() {
        assert!(ThresholdHistogramEncoding::with_theta(4, eps(1.0), 0.0).is_err());
        assert!(ThresholdHistogramEncoding::with_theta(4, eps(1.0), 1.5).is_err());
    }
}
