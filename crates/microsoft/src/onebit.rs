//! 1BitMean: Microsoft's single-bit mean estimator.
//!
//! Each device holds `x ∈ [0, max]` and transmits **one bit**, set with
//! probability
//! `Pr[1] = 1/(e^ε+1) + (x/max)·(e^ε−1)/(e^ε+1)`.
//! The bit is ε-LDP (likelihood ratio between any two inputs is at most
//! `e^ε`, attained at the endpoints), and the debiased average
//! `max/n · Σ (b·(e^ε+1) − 1)/(e^ε−1)` is an unbiased mean estimate with
//! worst-case standard deviation `max·√(e^ε+1)²/… /√n` — the
//! `O(max/(ε√n))` the paper quotes for millions of devices.

use ldp_core::fo::counters::{self, CounterState};
use ldp_core::fo::FoAggregator;
use ldp_core::mech::BatchMechanism;
use ldp_core::{Epsilon, Error, Result};
use rand::{Rng, RngCore};

/// The 1BitMean mechanism over values in `[0, max_value]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OneBitMean {
    epsilon: Epsilon,
    max_value: f64,
}

impl OneBitMean {
    /// Creates the mechanism.
    ///
    /// # Errors
    /// Returns [`Error::InvalidParameter`] if `max_value` is not positive
    /// and finite.
    pub fn new(epsilon: Epsilon, max_value: f64) -> Result<Self> {
        if !(max_value.is_finite() && max_value > 0.0) {
            return Err(Error::InvalidParameter(format!(
                "max_value must be positive and finite, got {max_value}"
            )));
        }
        Ok(Self { epsilon, max_value })
    }

    /// The privacy parameter.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// Upper bound of the input range.
    pub fn max_value(&self) -> f64 {
        self.max_value
    }

    /// The probability the report bit is 1 for input `x`.
    ///
    /// # Panics
    /// Panics if `x` is outside `[0, max_value]`.
    pub fn p_one(&self, x: f64) -> f64 {
        assert!(
            (0.0..=self.max_value).contains(&x),
            "x={x} outside [0, {}]",
            self.max_value
        );
        let e = self.epsilon.exp();
        1.0 / (e + 1.0) + (x / self.max_value) * (e - 1.0) / (e + 1.0)
    }

    /// Client side: the single-bit report.
    pub fn randomize<R: Rng + ?Sized>(&self, x: f64, rng: &mut R) -> bool {
        rng.gen_bool(self.p_one(x))
    }

    /// Debiases one bit into an unbiased per-user contribution in value
    /// units: `max·(b·(e^ε+1) − 1)/(e^ε−1)`.
    pub fn debias(&self, bit: bool) -> f64 {
        let e = self.epsilon.exp();
        let b = if bit { 1.0 } else { 0.0 };
        self.max_value * (b * (e + 1.0) - 1.0) / (e - 1.0)
    }

    /// Server side: unbiased mean estimate from all report bits.
    pub fn estimate_mean(&self, bits: &[bool]) -> f64 {
        if bits.is_empty() {
            return 0.0;
        }
        bits.iter().map(|&b| self.debias(b)).sum::<f64>() / bits.len() as f64
    }

    /// Worst-case variance of the mean estimate over `n` devices
    /// (maximized at `Pr[1] = ½`):
    /// `max²·(e^ε+1)²/(4n(e^ε−1)²)`.
    ///
    /// This method is the formula's single home: the planner's cost
    /// model (registered by [`crate::register_mechanisms`]) prices
    /// 1BitMean plans by instantiating the mechanism and delegating here.
    pub fn worst_case_variance(&self, n: usize) -> f64 {
        let e = self.epsilon.exp();
        self.max_value * self.max_value * (e + 1.0).powi(2) / (4.0 * n as f64 * (e - 1.0).powi(2))
    }

    /// Creates an empty streaming aggregator — the sufficient statistic
    /// is just the 1-bit count, so server memory is `O(1)` regardless of
    /// the device population (unlike [`estimate_mean`](Self::estimate_mean),
    /// which needs all bits materialized).
    pub fn new_aggregator(&self) -> OneBitMeanAggregator {
        OneBitMeanAggregator {
            mechanism: *self,
            ones: 0,
            n: 0,
        }
    }
}

/// Streaming aggregator for [`OneBitMean`]: the exact integer 1-bit count.
///
/// Implements [`FoAggregator`] so the sharded parallel engine can merge
/// it; `estimate()` returns the single-element vector `[mean]` (this is a
/// mean estimator, not a histogram — the "domain" is the one statistic).
#[derive(Debug, Clone)]
pub struct OneBitMeanAggregator {
    mechanism: OneBitMean,
    ones: usize,
    n: usize,
}

impl OneBitMeanAggregator {
    /// The mechanism this aggregator was configured for.
    pub fn mechanism(&self) -> OneBitMean {
        self.mechanism
    }

    /// Number of 1-bits observed.
    pub fn ones(&self) -> u64 {
        self.ones as u64
    }

    /// The 1BitMean debias applied to an arbitrary underlying 1-rate:
    /// `max·(rate·(e^ε+1) − 1)/(e^ε−1)` — the linear map behind
    /// [`mean`](Self::mean), exposed for wrappers that correct the rate
    /// first (the telemetry pipeline's γ output perturbation).
    pub fn debiased_rate_to_mean(&self, rate: f64) -> f64 {
        let e = self.mechanism.epsilon.exp();
        self.mechanism.max_value * (rate * (e + 1.0) - 1.0) / (e - 1.0)
    }

    /// Unbiased mean estimate from the accumulated counts:
    /// `max·(ones·(e^ε+1) − n)/((e^ε−1)·n)` — algebraically identical to
    /// [`OneBitMean::estimate_mean`] over the same bits (they may differ
    /// in the last ulp: this form divides once instead of summing `n`
    /// per-bit debias terms).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let e = self.mechanism.epsilon.exp();
        self.mechanism.max_value * (self.ones as f64 * (e + 1.0) - self.n as f64)
            / ((e - 1.0) * self.n as f64)
    }
}

impl CounterState for OneBitMeanAggregator {
    const STATE_TAG: u8 = ldp_core::snapshot::state_tag::MS_ONE_BIT_MEAN;
    const NAME: &'static str = "1BitMean";

    fn config_bytes(&self, out: &mut Vec<u8>) {
        ldp_core::wire::put_f64_le(out, self.mechanism.epsilon.value());
        ldp_core::wire::put_f64_le(out, self.mechanism.max_value);
    }

    ldp_core::counter_fields!(Count n, Count ones);
}

impl FoAggregator for OneBitMeanAggregator {
    type Report = bool;

    fn accumulate(&mut self, report: &bool) {
        self.ones += usize::from(*report);
        self.n += 1;
    }

    fn reports(&self) -> usize {
        self.n
    }

    fn estimate(&self) -> Vec<f64> {
        vec![self.mean()]
    }

    fn merge(&mut self, other: Self) -> Result<()> {
        counters::merge(self, &other)
    }

    fn try_subtract(&mut self, other: &Self) -> Result<()> {
        counters::subtract(self, other)
    }
}

/// 1BitMean is not a frequency oracle — its input is a bounded real, not
/// an item — so it joins the sharded engine through [`BatchMechanism`]
/// directly: `ldp_workloads::parallel::accumulate_mech_sharded` drives it
/// over `&[f64]` populations.
impl BatchMechanism for OneBitMean {
    type Input = f64;
    type Aggregator = OneBitMeanAggregator;

    fn new_aggregator(&self) -> OneBitMeanAggregator {
        OneBitMean::new_aggregator(self)
    }

    /// Monomorphized batch path: one `gen_bool` draw per device, bit
    /// folded straight into the integer counter. Same RNG stream as the
    /// scalar `randomize` + `accumulate` loop by construction.
    fn accumulate_batch<R: RngCore>(
        &self,
        inputs: &[f64],
        rng: &mut R,
        agg: &mut OneBitMeanAggregator,
    ) {
        assert!(agg.mechanism == *self, "aggregator mechanism mismatch");
        for &x in inputs {
            let bit = self.randomize(x, rng);
            agg.ones += usize::from(bit);
            agg.n += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mech(eps: f64, max: f64) -> OneBitMean {
        OneBitMean::new(Epsilon::new(eps).unwrap(), max).unwrap()
    }

    #[test]
    fn p_one_endpoints_saturate_ldp() {
        let m = mech(1.0, 100.0);
        let p0 = m.p_one(0.0);
        let p100 = m.p_one(100.0);
        // Likelihood ratios at both output values equal e^eps.
        assert!((p100 / p0 - 1.0f64.exp()).abs() < 1e-9);
        assert!(((1.0 - p0) / (1.0 - p100) - 1.0f64.exp()).abs() < 1e-9);
    }

    #[test]
    fn p_one_linear_in_x() {
        let m = mech(2.0, 10.0);
        let mid = m.p_one(5.0);
        assert!((mid - (m.p_one(0.0) + m.p_one(10.0)) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn mean_estimate_unbiased() {
        let m = mech(1.0, 1000.0);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 200_000;
        // True values: deterministic mixture with mean 230.
        let bits: Vec<bool> = (0..n)
            .map(|i| {
                let x = if i % 10 < 7 { 100.0 } else { 533.3333333333334 };
                m.randomize(x, &mut rng)
            })
            .collect();
        let est = m.estimate_mean(&bits);
        let truth = 0.7 * 100.0 + 0.3 * 533.3333333333334;
        let sd = m.worst_case_variance(n).sqrt();
        assert!(
            (est - truth).abs() < 4.0 * sd,
            "est={est} truth={truth} sd={sd}"
        );
    }

    #[test]
    fn variance_shrinks_with_eps_and_n() {
        let n = 1000;
        assert!(mech(2.0, 1.0).worst_case_variance(n) < mech(0.5, 1.0).worst_case_variance(n));
        assert!(mech(1.0, 1.0).worst_case_variance(10 * n) < mech(1.0, 1.0).worst_case_variance(n));
    }

    #[test]
    fn empty_reports_estimate_zero() {
        assert_eq!(mech(1.0, 5.0).estimate_mean(&[]), 0.0);
        assert_eq!(mech(1.0, 5.0).new_aggregator().mean(), 0.0);
    }

    #[test]
    fn aggregator_mean_matches_estimate_mean() {
        let m = mech(1.0, 250.0);
        let mut rng = StdRng::seed_from_u64(11);
        let bits: Vec<bool> = (0..5000)
            .map(|i| m.randomize((i % 200) as f64, &mut rng))
            .collect();
        let mut agg = m.new_aggregator();
        for &b in &bits {
            agg.accumulate(&b);
        }
        assert_eq!(agg.reports(), bits.len());
        let direct = m.estimate_mean(&bits);
        assert!(
            (agg.mean() - direct).abs() < 1e-9,
            "agg={} direct={direct}",
            agg.mean()
        );
        assert_eq!(agg.estimate(), vec![agg.mean()]);
    }

    #[test]
    fn batch_path_bit_identical_and_merge_exact() {
        use ldp_core::mech::BatchMechanism;
        let m = mech(2.0, 100.0);
        let values: Vec<f64> = (0..3000).map(|i| (i % 100) as f64).collect();

        let mut scalar_rng = StdRng::seed_from_u64(13);
        let mut scalar = m.new_aggregator();
        for &x in &values {
            scalar.accumulate(&m.randomize(x, &mut scalar_rng));
        }

        let mut batch_rng = StdRng::seed_from_u64(13);
        let mut batch = m.new_aggregator();
        m.accumulate_batch(&values, &mut batch_rng, &mut batch);
        assert_eq!(scalar.ones(), batch.ones());
        assert_eq!(scalar.reports(), batch.reports());

        // Split + merge reproduces the counters exactly.
        let mut rng = StdRng::seed_from_u64(13);
        let mut a = m.new_aggregator();
        m.accumulate_batch(&values[..1000], &mut rng, &mut a);
        let mut b = m.new_aggregator();
        m.accumulate_batch(&values[1000..], &mut rng, &mut b);
        a.merge(b).unwrap();
        assert_eq!(a.ones(), scalar.ones());
        assert_eq!(a.reports(), scalar.reports());
    }

    #[test]
    fn rejects_bad_range() {
        assert!(OneBitMean::new(Epsilon::new(1.0).unwrap(), 0.0).is_err());
        assert!(OneBitMean::new(Epsilon::new(1.0).unwrap(), f64::INFINITY).is_err());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_panics() {
        let m = mech(1.0, 10.0);
        m.p_one(11.0);
    }
}
