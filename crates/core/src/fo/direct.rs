//! Direct encoding (generalized randomized response) as a frequency oracle.
//!
//! The simplest protocol: the report *is* a (perturbed) domain value. Its
//! noise floor grows linearly in the domain size — `(d−2+e^ε)/(e^ε−1)²`
//! per user — which is exactly why RAPPOR/Apple/Microsoft needed encodings:
//! for `d` in the millions, direct encoding is useless. It remains the best
//! choice for small domains (`d < 3e^ε + 2`), a crossover that experiment
//! E2 reproduces.

use super::counters::{self, CounterState};
use super::{FoAggregator, FrequencyOracle};
use crate::privacy::Epsilon;
use crate::rr::KaryRandomizedResponse;
use crate::Result;
use rand::RngCore;

/// Direct encoding / generalized randomized response over `[0, d)`.
#[derive(Debug, Clone, Copy)]
pub struct DirectEncoding {
    inner: KaryRandomizedResponse,
}

impl DirectEncoding {
    /// Creates the oracle for a domain of size `d` (must be ≥ 2).
    ///
    /// # Errors
    /// Returns [`crate::Error::InvalidDomain`] if `d < 2`.
    pub fn new(d: u64, epsilon: Epsilon) -> Result<Self> {
        Ok(Self {
            inner: KaryRandomizedResponse::new(d, epsilon)?,
        })
    }

    /// Probability of reporting the true value.
    pub fn p(&self) -> f64 {
        self.inner.p()
    }

    /// Probability of reporting a specific other value.
    pub fn q(&self) -> f64 {
        self.inner.q()
    }
}

impl FrequencyOracle for DirectEncoding {
    type Report = u64;
    type Aggregator = DirectAggregator;

    fn name(&self) -> &'static str {
        "GRR"
    }

    fn domain_size(&self) -> u64 {
        self.inner.k()
    }

    fn epsilon(&self) -> Epsilon {
        self.inner.epsilon()
    }

    fn randomize<R: RngCore + ?Sized>(&self, value: u64, rng: &mut R) -> u64 {
        self.inner.randomize(value, rng)
    }

    fn new_aggregator(&self) -> DirectAggregator {
        DirectAggregator {
            histogram: vec![0; self.inner.k() as usize],
            n: 0,
            p: self.inner.p(),
            q: self.inner.q(),
        }
    }

    fn count_variance(&self, n: usize, f: f64) -> f64 {
        self.inner.count_variance(n, f)
    }

    fn report_bits(&self) -> usize {
        (64 - (self.inner.k() - 1).leading_zeros()) as usize
    }
}

/// Aggregator for [`DirectEncoding`]: a plain histogram plus debiasing.
#[derive(Debug, Clone)]
pub struct DirectAggregator {
    histogram: Vec<u64>,
    n: usize,
    p: f64,
    q: f64,
}

impl CounterState for DirectAggregator {
    const STATE_TAG: u8 = crate::snapshot::state_tag::DIRECT;
    const NAME: &'static str = "GRR";

    fn config_bytes(&self, out: &mut Vec<u8>) {
        crate::wire::put_f64_le(out, self.p);
        crate::wire::put_f64_le(out, self.q);
    }

    crate::counter_fields!(Count n, Plane histogram);
}

impl FoAggregator for DirectAggregator {
    type Report = u64;

    fn try_accumulate(&mut self, report: &u64) -> crate::Result<()> {
        if *report as usize >= self.histogram.len() {
            return Err(crate::LdpError::Malformed(format!(
                "GRR report {report} outside domain of size {}",
                self.histogram.len()
            )));
        }
        self.histogram[*report as usize] += 1;
        self.n += 1;
        Ok(())
    }

    fn reports(&self) -> usize {
        self.n
    }

    fn estimate(&self) -> Vec<f64> {
        let counts = self.histogram.iter().copied();
        super::debiased_counts(self.n, self.p, self.q, counts)
    }

    /// Debiases only the queried counters.
    fn estimate_items(&self, items: &[u64]) -> Vec<f64> {
        let counts = items.iter().map(|&v| self.histogram[v as usize]);
        super::debiased_counts(self.n, self.p, self.q, counts)
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

    #[test]
    fn aggregator_estimates_sum_to_n() {
        // Sum of debiased GRR estimates is exactly n (since p + (d-1)q = 1).
        let oracle = DirectEncoding::new(10, Epsilon::new(1.0).unwrap()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut agg = oracle.new_aggregator();
        for u in 0..5000u64 {
            let r = oracle.randomize(u % 10, &mut rng);
            agg.accumulate(&r);
        }
        let est = agg.estimate();
        let total: f64 = est.iter().sum();
        assert!((total - 5000.0).abs() < 1e-6, "total={total}");
        assert_eq!(agg.reports(), 5000);
    }

    /// A point query debiases only the queried counters, bit-identical
    /// to picking the same items out of the full-domain estimate.
    #[test]
    fn estimate_items_is_bit_identical_to_full_estimate() {
        let oracle = DirectEncoding::new(10, Epsilon::new(1.0).unwrap()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut agg = oracle.new_aggregator();
        for u in 0..3_000u64 {
            agg.accumulate(&oracle.randomize(u % 7, &mut rng));
        }
        let items = [9u64, 0, 3, 3, 6];
        crate::fo::assert_point_queries_match_full_estimate(&agg, &items);
    }

    #[test]
    fn report_bits_is_log_domain() {
        let eps = Epsilon::new(1.0).unwrap();
        assert_eq!(DirectEncoding::new(2, eps).unwrap().report_bits(), 1);
        assert_eq!(DirectEncoding::new(256, eps).unwrap().report_bits(), 8);
        assert_eq!(DirectEncoding::new(257, eps).unwrap().report_bits(), 9);
    }

    #[test]
    fn variance_grows_linearly_with_domain() {
        let eps = Epsilon::new(1.0).unwrap();
        let v_small = DirectEncoding::new(10, eps)
            .unwrap()
            .noise_floor_variance(1000);
        let v_big = DirectEncoding::new(1000, eps)
            .unwrap()
            .noise_floor_variance(1000);
        // (d-2+e^eps) scaling: ratio ≈ 998+e / 8+e ≈ 93
        let ratio = v_big / v_small;
        assert!(ratio > 50.0 && ratio < 150.0, "ratio={ratio}");
    }
}
