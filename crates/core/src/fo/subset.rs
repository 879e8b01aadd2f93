//! Subset selection (SS): the information-theoretically optimal
//! frequency oracle of Ye–Barg (IEEE Trans. IT 2018) / Wang et al.
//!
//! The client reports a *subset* of the domain of fixed size
//! `k = ⌈d/(e^ε+1)⌉`: with probability `k·e^ε/(k·e^ε + d − k)` the subset
//! contains the true value (plus `k−1` uniform others); otherwise it is a
//! uniform subset avoiding the true value. For mid-range ε this meets the
//! minimax lower bound for distribution estimation — the theory thread
//! (§1.4 "theoretical underpinnings") the tutorial points to.
//!
//! Support probabilities (what the aggregator debiases with):
//! `p* = k·e^ε/(k·e^ε + d − k)` for the true item, and for any other item
//! the inclusion probability works out to
//! `q* = p*·(k−1)/(d−1) + (1−p*)·k/(d−1)`.

use super::counters::{self, CounterState};
use super::{FoAggregator, FrequencyOracle};
use crate::estimate::debiased_count_variance;
use crate::privacy::Epsilon;
use rand::seq::index::sample;
use rand::{Rng, RngCore};

/// The subset-selection frequency oracle.
#[derive(Debug, Clone, Copy)]
pub struct SubsetSelection {
    d: u64,
    k: u64,
    epsilon: Epsilon,
    /// Probability the reported subset contains the true value.
    p_include: f64,
}

impl SubsetSelection {
    /// Creates the oracle with the optimal subset size
    /// `k = max(1, round(d/(e^ε+1)))`.
    ///
    /// # Panics
    /// Panics if `d < 2`.
    pub fn new(d: u64, epsilon: Epsilon) -> Self {
        assert!(d >= 2, "subset selection needs d >= 2, got {d}");
        let k = ((d as f64 / (epsilon.exp() + 1.0)).round() as u64).clamp(1, d - 1);
        Self::with_k(d, k, epsilon)
    }

    /// Creates the oracle with an explicit subset size `1 ≤ k < d`
    /// (exposed for the ablation bench).
    ///
    /// # Panics
    /// Panics if `d < 2` or `k` is out of range.
    pub fn with_k(d: u64, k: u64, epsilon: Epsilon) -> Self {
        assert!(d >= 2, "subset selection needs d >= 2, got {d}");
        assert!(k >= 1 && k < d, "need 1 <= k < d, got k={k} d={d}");
        let e = epsilon.exp();
        let kf = k as f64;
        let p_include = kf * e / (kf * e + d as f64 - kf);
        Self {
            d,
            k,
            epsilon,
            p_include,
        }
    }

    /// Subset size `k`.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// `(p*, q*)` inclusion probabilities for the true item and any fixed
    /// other item.
    pub fn support_probabilities(&self) -> (f64, f64) {
        let p = self.p_include;
        let (d, k) = (self.d as f64, self.k as f64);
        let q = p * (k - 1.0) / (d - 1.0) + (1.0 - p) * k / (d - 1.0);
        (p, q)
    }
}

impl FrequencyOracle for SubsetSelection {
    type Report = Vec<u64>;
    type Aggregator = SsAggregator;

    fn name(&self) -> &'static str {
        "SS"
    }

    fn domain_size(&self) -> u64 {
        self.d
    }

    fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    fn randomize<R: RngCore + ?Sized>(&self, value: u64, rng: &mut R) -> Vec<u64> {
        assert!(
            value < self.d,
            "value {value} outside domain of size {}",
            self.d
        );
        let include = rng.gen_bool(self.p_include);
        let k = self.k as usize;
        // Uniform distinct items avoiding the true value, shifted past it.
        let others = if include { k - 1 } else { k };
        let mut subset: Vec<u64> = sample(rng, self.d as usize - 1, others)
            .into_iter()
            .map(|i| {
                let i = i as u64;
                if i >= value {
                    i + 1
                } else {
                    i
                }
            })
            .collect();
        if include {
            subset.push(value);
        }
        subset.sort_unstable();
        subset
    }

    /// Fused batch path: the sampled items increment the inclusion
    /// counters directly — no subset `Vec` is built and the scalar path's
    /// cosmetic sort is skipped (inclusion counts are order-free). The
    /// RNG draws are identical to the scalar path, so aggregator state is
    /// bit-identical for a given seed.
    fn randomize_accumulate_batch<R: RngCore>(
        &self,
        values: &[u64],
        rng: &mut R,
        agg: &mut SsAggregator,
    ) {
        assert_eq!(
            agg.inclusions.len(),
            self.d as usize,
            "aggregator width mismatch"
        );
        let k = self.k as usize;
        for &v in values {
            assert!(v < self.d, "value {v} outside domain of size {}", self.d);
            let include = rng.gen_bool(self.p_include);
            let others = if include { k - 1 } else { k };
            for i in sample(rng, self.d as usize - 1, others) {
                let i = i as u64;
                let item = if i >= v { i + 1 } else { i };
                agg.inclusions[item as usize] += 1;
            }
            if include {
                agg.inclusions[v as usize] += 1;
            }
            agg.n += 1;
        }
    }

    fn new_aggregator(&self) -> SsAggregator {
        let (p, q) = self.support_probabilities();
        SsAggregator {
            inclusions: vec![0; self.d as usize],
            n: 0,
            k: self.k,
            p,
            q,
        }
    }

    fn count_variance(&self, n: usize, f: f64) -> f64 {
        let (p, q) = self.support_probabilities();
        debiased_count_variance(n, f * n as f64, p, q)
    }

    fn report_bits(&self) -> usize {
        self.k as usize * (64 - (self.d - 1).leading_zeros()) as usize
    }
}

/// Aggregator for [`SubsetSelection`]: per-item inclusion counts.
#[derive(Debug, Clone)]
pub struct SsAggregator {
    inclusions: Vec<u64>,
    n: usize,
    /// Protocol subset size: every legitimate report carries exactly
    /// `k` items, and the debias formula assumes that cardinality.
    k: u64,
    p: f64,
    q: f64,
}

impl CounterState for SsAggregator {
    const STATE_TAG: u8 = crate::snapshot::state_tag::SUBSET;
    const NAME: &'static str = "SS";

    fn config_bytes(&self, out: &mut Vec<u8>) {
        crate::wire::put_uvarint(out, self.k);
        crate::wire::put_f64_le(out, self.p);
        crate::wire::put_f64_le(out, self.q);
    }

    crate::counter_fields!(Count n, Plane inclusions);
}

impl FoAggregator for SsAggregator {
    type Report = Vec<u64>;

    fn try_accumulate(&mut self, report: &Vec<u64>) -> crate::Result<()> {
        let d = self.inclusions.len() as u64;
        // The protocol's sensitivity bound: exactly k inclusions per
        // report (the debias formula assumes it — a d-item "subset"
        // would inflate every count).
        if report.len() as u64 != self.k {
            return Err(crate::LdpError::Malformed(format!(
                "subset of {} items, protocol subset size is {}",
                report.len(),
                self.k
            )));
        }
        if let Some(&item) = report.iter().find(|&&item| item >= d) {
            return Err(crate::LdpError::Malformed(format!(
                "subset item {item} outside domain of size {d}"
            )));
        }
        // Legitimate reports are sorted with distinct items (the client
        // sorts); a duplicated item would concentrate the report's k
        // votes on one target, defeating the influence bound.
        if report.windows(2).any(|w| w[0] >= w[1]) {
            return Err(crate::LdpError::Malformed(
                "subset items must be strictly ascending".into(),
            ));
        }
        for &item in report {
            self.inclusions[item as usize] += 1;
        }
        self.n += 1;
        Ok(())
    }

    fn reports(&self) -> usize {
        self.n
    }

    fn estimate(&self) -> Vec<f64> {
        let counts = self.inclusions.iter().copied();
        super::debiased_counts(self.n, self.p, self.q, counts)
    }

    /// Debiases only the queried counters.
    fn estimate_items(&self, items: &[u64]) -> Vec<f64> {
        let counts = items.iter().map(|&v| self.inclusions[v as usize]);
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
    fn optimal_k_tracks_eps() {
        // k = d/(e^eps + 1): small eps -> big subsets, large eps -> k=1.
        assert!(SubsetSelection::new(100, eps(0.1)).k() > 40);
        assert_eq!(SubsetSelection::new(100, eps(5.0)).k(), 1);
    }

    /// The wire-facing checked accumulate enforces the protocol's
    /// sensitivity bound: exactly `k` items per report, all in-domain.
    #[test]
    fn try_accumulate_enforces_subset_size() {
        let ss = SubsetSelection::with_k(16, 3, eps(1.0));
        let mut agg = ss.new_aggregator();
        assert!(agg.try_accumulate(&vec![1, 2, 3]).is_ok());
        // A d-item "subset" would vote d/k times over; reject it.
        assert!(agg.try_accumulate(&(0..16).collect::<Vec<u64>>()).is_err());
        assert!(agg.try_accumulate(&vec![1, 2]).is_err());
        assert!(
            agg.try_accumulate(&vec![1, 2, 16]).is_err(),
            "out of domain"
        );
        // k votes concentrated on one item defeat the influence bound.
        assert!(agg.try_accumulate(&vec![5, 5, 5]).is_err(), "duplicates");
        assert!(agg.try_accumulate(&vec![3, 2, 1]).is_err(), "unsorted");
        assert_eq!(agg.reports(), 1, "rejected reports leave state intact");
    }

    #[test]
    fn k1_reduces_to_grr_variance() {
        // With k=1 SS is GRR: same noise floor.
        use crate::fo::DirectEncoding;
        let d = 32u64;
        let e = eps(4.0);
        let ss = SubsetSelection::with_k(d, 1, e);
        let grr = DirectEncoding::new(d, e).unwrap();
        let (n, f) = (1000, 0.0);
        let ratio = ss.count_variance(n, f) / grr.count_variance(n, f);
        assert!((ratio - 1.0).abs() < 0.05, "ratio={ratio}");
    }

    #[test]
    fn report_is_valid_subset() {
        let ss = SubsetSelection::new(64, eps(1.0));
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let r = ss.randomize(7, &mut rng);
            assert_eq!(r.len(), ss.k() as usize);
            let mut sorted = r.clone();
            sorted.dedup();
            assert_eq!(sorted.len(), r.len(), "items must be distinct");
            assert!(r.iter().all(|&v| v < 64));
        }
    }

    #[test]
    fn inclusion_probabilities_match_empirics() {
        let ss = SubsetSelection::new(32, eps(1.0));
        let (p, q) = ss.support_probabilities();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 100_000;
        let mut incl_true = 0u64;
        let mut incl_other = 0u64;
        for _ in 0..n {
            let r = ss.randomize(5, &mut rng);
            if r.contains(&5) {
                incl_true += 1;
            }
            if r.contains(&9) {
                incl_other += 1;
            }
        }
        assert!(
            (incl_true as f64 / n as f64 - p).abs() < 0.01,
            "p empirical"
        );
        assert!(
            (incl_other as f64 / n as f64 - q).abs() < 0.01,
            "q empirical"
        );
    }

    #[test]
    fn estimates_unbiased() {
        let ss = SubsetSelection::new(16, eps(1.0));
        let mut rng = StdRng::seed_from_u64(3);
        let n = 40_000;
        let mut agg = ss.new_aggregator();
        for u in 0..n {
            agg.accumulate(&ss.randomize((u % 4) as u64, &mut rng));
        }
        let est = agg.estimate();
        let sd = ss.count_variance(n, 0.25).sqrt();
        for (i, &e) in est.iter().enumerate().take(4) {
            assert!(
                (e - n as f64 / 4.0).abs() < 5.0 * sd,
                "item {i}: est={e} sd={sd}"
            );
        }
    }

    /// A point query debiases only the queried counters, bit-identical
    /// to picking the same items out of the full-domain estimate.
    #[test]
    fn estimate_items_is_bit_identical_to_full_estimate() {
        let ss = SubsetSelection::new(16, eps(1.0));
        let mut rng = StdRng::seed_from_u64(7);
        let mut agg = ss.new_aggregator();
        for u in 0..3_000u64 {
            agg.accumulate(&ss.randomize(u % 5, &mut rng));
        }
        let items = [15u64, 0, 4, 4, 9];
        crate::fo::assert_point_queries_match_full_estimate(&agg, &items);
    }

    #[test]
    fn competitive_with_olh_at_low_eps() {
        use crate::fo::OptimizedLocalHashing;
        let d = 1024u64;
        let e = eps(0.5);
        let ss = SubsetSelection::new(d, e).noise_floor_variance(1000);
        let olh = OptimizedLocalHashing::new(d, e).noise_floor_variance(1000);
        // SS is optimal; allow it to be at least as good up to 10% slack.
        assert!(ss <= olh * 1.1, "ss={ss} olh={olh}");
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn out_of_domain_panics() {
        let ss = SubsetSelection::new(8, eps(1.0));
        let mut rng = StdRng::seed_from_u64(0);
        ss.randomize(8, &mut rng);
    }
}
