//! Unary-encoding frequency oracles: SUE (basic RAPPOR) and OUE.
//!
//! The client one-hot encodes its value into `d` bits and perturbs each bit
//! independently: a 1-bit survives as 1 with probability `p`, a 0-bit flips
//! to 1 with probability `q`. Privacy comes from the *pair* of flips that
//! distinguish two inputs: the likelihood ratio is
//! `(p/q)·((1−q)/(1−p)) ≤ e^ε`.
//!
//! * **SUE** (symmetric, `p + q = 1`, `p = e^{ε/2}/(e^{ε/2}+1)`) is exactly
//!   the perturbation inside Google's basic one-time RAPPOR.
//! * **OUE** (optimized: `p = ½`, `q = 1/(e^ε+1)`) spends the budget
//!   asymmetrically on protecting 0-bits — for large sparse domains almost
//!   all bits are 0, and Wang et al. showed this choice minimizes the
//!   noise floor, reaching `4e^ε/(e^ε−1)²` per user.
//!
//! Both encodings sample through one [`batch::OneHotSampler`]: the
//! one-hot position costs one Bernoulli(`p`) draw, and the zero positions
//! are sampled word-parallel (an 8-draw prefix plus a short tail, `≈ 8.46`
//! draws per 64 bits) when the report has at least one full word
//! (`d ≥ 64`), or by geometric skipping (one
//! draw per *flipped* bit, `2 + (d−1)·q` in all) when it is shorter. The scalar [`FrequencyOracle::randomize`] and
//! the batch overrides share this sampler, so every path consumes
//! identical RNG streams for a given seed.

use super::counters::{self, CounterState};
use super::{batch, FoAggregator, FrequencyOracle, PackedOnes, SetBitSampler};
use crate::estimate::debiased_count_variance;
use crate::privacy::Epsilon;
use crate::snapshot::state_tag;
use crate::{Error, Result};
use ldp_sketch::BitVec;
use rand::RngCore;

/// Symmetric unary encoding (SUE) — the perturbation of basic RAPPOR.
///
/// # Examples
/// ```
/// use ldp_core::fo::{FrequencyOracle, FoAggregator, SymmetricUnaryEncoding};
/// use ldp_core::Epsilon;
/// use rand::SeedableRng;
/// let sue = SymmetricUnaryEncoding::new(8, Epsilon::new(1.0).unwrap()).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut agg = sue.new_aggregator();
/// for _ in 0..2000 {
///     agg.accumulate(&sue.randomize(3, &mut rng));
/// }
/// let est = agg.estimate();
/// assert!(est[3] > 1500.0); // everyone holds item 3
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricUnaryEncoding {
    epsilon: Epsilon,
    /// The one-hot channel, its zero-position sampler picked from
    /// `d` once per oracle.
    chan: batch::OneHotSampler,
}

impl SymmetricUnaryEncoding {
    /// Creates SUE over a domain of `d ≥ 2` items.
    ///
    /// # Errors
    /// Returns [`Error::InvalidDomain`] if `d < 2`.
    pub fn new(d: u64, epsilon: Epsilon) -> Result<Self> {
        if d < 2 {
            return Err(Error::InvalidDomain(format!(
                "unary encoding needs d >= 2, got {d}"
            )));
        }
        let half = (epsilon.value() / 2.0).exp();
        Ok(Self {
            epsilon,
            chan: batch::OneHotSampler::new(d, half / (half + 1.0), 1.0 / (half + 1.0)),
        })
    }

    /// `(p, q)` bit-keep probabilities.
    pub fn probabilities(&self) -> (f64, f64) {
        self.chan.probabilities()
    }
}

/// Optimized unary encoding (OUE): `p = ½`, `q = 1/(e^ε+1)`.
#[derive(Debug, Clone)]
pub struct OptimizedUnaryEncoding {
    epsilon: Epsilon,
    /// The one-hot channel, its zero-position sampler picked from
    /// `d` once per oracle.
    chan: batch::OneHotSampler,
}

impl OptimizedUnaryEncoding {
    /// Creates OUE over a domain of `d ≥ 2` items.
    ///
    /// # Errors
    /// Returns [`Error::InvalidDomain`] if `d < 2`.
    pub fn new(d: u64, epsilon: Epsilon) -> Result<Self> {
        if d < 2 {
            return Err(Error::InvalidDomain(format!(
                "unary encoding needs d >= 2, got {d}"
            )));
        }
        Ok(Self {
            epsilon,
            chan: batch::OneHotSampler::new(d, 0.5, 1.0 / (epsilon.exp() + 1.0)),
        })
    }

    /// `(p, q)` bit-keep probabilities.
    pub fn probabilities(&self) -> (f64, f64) {
        self.chan.probabilities()
    }
}

/// Implements `FrequencyOracle` and `SetBitSampler` for a one-hot
/// channel oracle (fields `epsilon` and `chan`, an inherent
/// `probabilities()`) whose aggregator is the `OnesAggregator` alias
/// `$agg`: SUE and OUE here, THE in `histogram.rs`. Names resolve where
/// the macro is invoked, so the invoking module imports them.
macro_rules! impl_unary_oracle {
    ($ty:ty, $name:literal, $agg:ident) => {
        impl FrequencyOracle for $ty {
            type Report = BitVec;
            type Aggregator = $agg;

            fn name(&self) -> &'static str {
                $name
            }

            fn domain_size(&self) -> u64 {
                self.chan.domain_size()
            }

            fn epsilon(&self) -> Epsilon {
                self.epsilon
            }

            fn randomize<R: RngCore + ?Sized>(&self, value: u64, rng: &mut R) -> BitVec {
                self.chan.randomize(value, rng)
            }

            /// Reusable-buffer batch path: one `BitVec` is overwritten
            /// word by word per report, so a serializing consumer
            /// allocates nothing per report. Draws the same RNG stream as
            /// `randomize`, so the emitted bits are identical.
            fn randomize_batch<R, F>(&self, values: &[u64], rng: &mut R, sink: F)
            where
                R: RngCore,
                F: FnMut(&BitVec),
            {
                self.chan.randomize_batch(values, rng, sink);
            }

            /// Fused batch path: adds each sampled set bit directly into
            /// the aggregator's per-position counters — no `BitVec` is
            /// materialized, no per-report allocation happens.
            fn randomize_accumulate_batch<R: RngCore>(
                &self,
                values: &[u64],
                rng: &mut R,
                agg: &mut $agg,
            ) {
                assert!(
                    (agg.p, agg.q) == self.probabilities(),
                    "aggregator channel mismatch"
                );
                self.chan.accumulate(values, rng, &mut agg.ones);
                agg.n += values.len();
            }

            fn new_aggregator(&self) -> $agg {
                let (p, q) = self.probabilities();
                $agg {
                    ones: vec![0; self.domain_size() as usize],
                    n: 0,
                    p,
                    q,
                }
            }

            fn count_variance(&self, n: usize, f: f64) -> f64 {
                let (p, q) = self.probabilities();
                debiased_count_variance(n, f * n as f64, p, q)
            }

            fn report_bits(&self) -> usize {
                self.domain_size() as usize
            }
        }

        impl SetBitSampler for $ty {
            fn sample_words<R: RngCore + ?Sized>(
                &self,
                value: u64,
                rng: &mut R,
                on_word: impl FnMut(usize, u64),
            ) {
                self.chan.sample_words(value, rng, on_word);
            }
        }
    };
}
pub(super) use impl_unary_oracle;

impl_unary_oracle!(SymmetricUnaryEncoding, "SUE", UnaryAggregator);
impl_unary_oracle!(OptimizedUnaryEncoding, "OUE", UnaryAggregator);

/// Aggregator for the one-hot channel family: per-position 1-counts
/// plus `(p, q)` debiasing. `TAG` is the snapshot state tag, the only
/// thing that tells [`UnaryAggregator`] (SUE/OUE) from
/// [`TheAggregator`](super::histogram::TheAggregator) (THE).
#[derive(Debug, Clone)]
pub struct OnesAggregator<const TAG: u8> {
    // `pub(super)`: `impl_unary_oracle!` builds and fills these in THE's
    // module too.
    pub(super) ones: Vec<u64>,
    pub(super) n: usize,
    pub(super) p: f64,
    pub(super) q: f64,
}

/// Aggregator for unary encodings (SUE, OUE).
pub type UnaryAggregator = OnesAggregator<{ state_tag::UNARY }>;

impl<const TAG: u8> CounterState for OnesAggregator<TAG> {
    const STATE_TAG: u8 = TAG;
    const NAME: &'static str = if TAG == state_tag::THE {
        "THE"
    } else {
        "unary"
    };

    fn config_bytes(&self, out: &mut Vec<u8>) {
        crate::wire::put_f64_le(out, self.p);
        crate::wire::put_f64_le(out, self.q);
    }

    crate::counter_fields!(Count n, Plane ones);
}

impl<const TAG: u8> PackedOnes for OnesAggregator<TAG> {
    fn accumulate_packed_batch(
        &mut self,
        payloads: &[(&[u8], usize)],
    ) -> (usize, crate::Result<()>) {
        let (applied, res) = super::accumulate_packed_ones_batch(&mut self.ones, payloads);
        self.n += applied;
        (applied, res)
    }
}

impl<const TAG: u8> FoAggregator for OnesAggregator<TAG> {
    type Report = BitVec;

    fn try_accumulate(&mut self, report: &BitVec) -> crate::Result<()> {
        if report.len() != self.ones.len() {
            return Err(crate::LdpError::Malformed(format!(
                "{} report width {} != domain size {}",
                Self::NAME,
                report.len(),
                self.ones.len()
            )));
        }
        report.accumulate_into(&mut self.ones);
        self.n += 1;
        Ok(())
    }

    fn reports(&self) -> usize {
        self.n
    }

    fn estimate(&self) -> Vec<f64> {
        let counts = self.ones.iter().copied();
        super::debiased_counts(self.n, self.p, self.q, counts)
    }

    /// Debiases only the queried counters.
    fn estimate_items(&self, items: &[u64]) -> Vec<f64> {
        let counts = items.iter().map(|&v| self.ones[v as usize]);
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

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn sue_probabilities_satisfy_ldp() {
        let sue = SymmetricUnaryEncoding::new(16, eps(1.0)).unwrap();
        let (p, q) = sue.probabilities();
        // p + q = 1 (symmetric) and (p/q)((1-q)/(1-p)) = e^eps.
        assert!((p + q - 1.0).abs() < 1e-12);
        let ratio = (p / q) * ((1.0 - q) / (1.0 - p));
        assert!((ratio - 1.0f64.exp()).abs() < 1e-9);
    }

    #[test]
    fn oue_probabilities_satisfy_ldp() {
        let oue = OptimizedUnaryEncoding::new(16, eps(1.0)).unwrap();
        let (p, q) = oue.probabilities();
        assert_eq!(p, 0.5);
        let ratio = (p / q) * ((1.0 - q) / (1.0 - p));
        assert!((ratio - 1.0f64.exp()).abs() < 1e-9);
    }

    #[test]
    fn oue_noise_floor_formula() {
        // Var* = n 4 e^eps / (e^eps - 1)^2.
        let e = 1.3f64;
        let oue = OptimizedUnaryEncoding::new(32, eps(e)).unwrap();
        let n = 1000;
        let expected = n as f64 * 4.0 * e.exp() / (e.exp() - 1.0).powi(2);
        let got = oue.noise_floor_variance(n);
        assert!(
            (got - expected).abs() / expected < 1e-9,
            "got={got} expected={expected}"
        );
    }

    #[test]
    fn oue_beats_sue_everywhere() {
        for &e in &[0.5, 1.0, 2.0, 4.0] {
            let oue = OptimizedUnaryEncoding::new(64, eps(e)).unwrap();
            let sue = SymmetricUnaryEncoding::new(64, eps(e)).unwrap();
            assert!(
                oue.noise_floor_variance(100) <= sue.noise_floor_variance(100) * 1.0001,
                "eps={e}"
            );
        }
    }

    #[test]
    fn estimates_unbiased_over_trials() {
        let oue = OptimizedUnaryEncoding::new(8, eps(0.8)).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let n = 4000;
        let trials = 30;
        let mut sum0 = 0.0;
        for _ in 0..trials {
            let mut agg = oue.new_aggregator();
            for u in 0..n {
                // item 0 has frequency 1/4
                let v = if u % 4 == 0 { 0 } else { 1 + (u % 7) as u64 };
                agg.accumulate(&oue.randomize(v, &mut rng));
            }
            sum0 += agg.estimate()[0];
        }
        let avg0 = sum0 / trials as f64;
        let truth = n as f64 / 4.0;
        // Tolerance rationale: each trial's estimate has sd at least
        // sqrt(noise_floor_variance(n)) ≈ 154 here, so the mean of 30
        // i.i.d. trials has sd ≈ 28. A 5-sigma band keeps the false-alarm
        // rate around 1e-6 while still catching any real debiasing error
        // (which would shift the mean by O(truth), not O(sd)).
        let sd_of_mean = (oue.noise_floor_variance(n) / trials as f64).sqrt();
        assert!(
            (avg0 - truth).abs() < 5.0 * sd_of_mean,
            "avg={avg0} truth={truth} sd_of_mean={sd_of_mean}"
        );
    }

    /// A point query debiases only the queried counters, bit-identical
    /// to picking the same items out of the full-domain estimate.
    #[test]
    fn estimate_items_is_bit_identical_to_full_estimate() {
        let sue = SymmetricUnaryEncoding::new(100, eps(1.0)).unwrap();
        let oue = OptimizedUnaryEncoding::new(100, eps(1.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(37);
        let mut aggs = [sue.new_aggregator(), oue.new_aggregator()];
        for u in 0..3_000u64 {
            aggs[0].accumulate(&sue.randomize(u % 13, &mut rng));
            aggs[1].accumulate(&oue.randomize(u % 13, &mut rng));
        }
        let items = [99u64, 0, 7, 7, 12, 50];
        for agg in &aggs {
            crate::fo::assert_point_queries_match_full_estimate(agg, &items);
        }
    }

    #[test]
    fn empirical_variance_matches_formula() {
        let oue = OptimizedUnaryEncoding::new(4, eps(1.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(37);
        let n = 1000;
        let trials = 2000;
        let f0 = 0.25;
        let ests: Vec<f64> = (0..trials)
            .map(|_| {
                let mut agg = oue.new_aggregator();
                for u in 0..n {
                    let v = if u % 4 == 0 { 0u64 } else { (u % 3 + 1) as u64 };
                    agg.accumulate(&oue.randomize(v, &mut rng));
                }
                agg.estimate()[0]
            })
            .collect();
        let var = crate::estimate::variance(&ests);
        let predicted = oue.count_variance(n, f0);
        assert!(
            (var - predicted).abs() / predicted < 0.15,
            "var={var} predicted={predicted}"
        );
    }

    /// The per-bit marginals of the geometric-skip sampler (d = 48 is
    /// below one word): the one-hot bit survives at rate `p`, every other
    /// bit flips on at rate `q`.
    #[test]
    fn geometric_skip_flips_match_bernoulli_marginals() {
        let oue = OptimizedUnaryEncoding::new(48, eps(1.0)).unwrap();
        let (p, q) = oue.probabilities();
        let mut rng = StdRng::seed_from_u64(41);
        let n = 60_000u64;
        let value = 17u64;
        let mut counts = vec![0u64; 48];
        for _ in 0..n {
            oue.chan.sample_ones(value, &mut rng, |i| counts[i] += 1);
        }
        let sd_q = (q * (1.0 - q) / n as f64).sqrt();
        let sd_p = (p * (1.0 - p) / n as f64).sqrt();
        for (i, &c) in counts.iter().enumerate() {
            let rate = c as f64 / n as f64;
            let (expected, sd) = if i as u64 == value {
                (p, sd_p)
            } else {
                (q, sd_q)
            };
            assert!(
                (rate - expected).abs() < 5.0 * sd,
                "bit {i}: rate={rate} expected={expected}"
            );
        }
    }

    /// Batch and fused paths replay the scalar RNG stream exactly: same
    /// seed ⇒ identical reports and bit-identical aggregator estimates.
    #[test]
    fn batch_paths_bit_identical_to_scalar() {
        let sue = SymmetricUnaryEncoding::new(37, eps(0.7)).unwrap();
        let values: Vec<u64> = (0..500).map(|i| i % 37).collect();

        let mut scalar_rng = StdRng::seed_from_u64(77);
        let mut scalar_agg = sue.new_aggregator();
        let scalar_reports: Vec<BitVec> = values
            .iter()
            .map(|&v| sue.randomize(v, &mut scalar_rng))
            .collect();
        for r in &scalar_reports {
            scalar_agg.accumulate(r);
        }

        let mut batch_rng = StdRng::seed_from_u64(77);
        let mut batch_reports = Vec::new();
        sue.randomize_batch(&values, &mut batch_rng, |r| batch_reports.push(r.clone()));
        assert_eq!(batch_reports, scalar_reports);

        let mut fused_rng = StdRng::seed_from_u64(77);
        let mut fused_agg = sue.new_aggregator();
        sue.randomize_accumulate_batch(&values, &mut fused_rng, &mut fused_agg);
        assert_eq!(fused_agg.reports(), scalar_agg.reports());
        assert_eq!(fused_agg.ones, scalar_agg.ones);
        assert_eq!(fused_agg.estimate(), scalar_agg.estimate());
    }

    #[test]
    fn rejects_domain_of_one() {
        assert!(SymmetricUnaryEncoding::new(1, eps(1.0)).is_err());
        assert!(OptimizedUnaryEncoding::new(1, eps(1.0)).is_err());
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn out_of_domain_panics() {
        let oue = OptimizedUnaryEncoding::new(4, eps(1.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        oue.randomize(4, &mut rng);
    }
}
