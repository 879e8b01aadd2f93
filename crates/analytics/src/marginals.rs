//! Marginal release under LDP: the Fourier approach vs its baselines.
//!
//! Users hold `d` binary attributes; analysts want k-way *marginals* —
//! the joint distribution over attribute subsets. The tutorial's §1.3
//! explains the dilemma and the fix:
//!
//! * **Full materialization** treats `{0,1}^d` as one `2^d` domain and
//!   runs a frequency oracle. Every marginal cell then sums `2^{d−k}`
//!   noisy cells — error grows as `√(2^{d−k})`.
//! * **Direct collection** splits users across the requested marginals and
//!   runs a small oracle per marginal — error grows with the *number* of
//!   marginals.
//! * **Fourier collection** (Cormode–Kulkarni–Srivastava) observes that a
//!   k-way marginal is determined by only the `2^k` Fourier coefficients
//!   indexed by subsets of its attributes. Each user contributes one
//!   randomized-response bit for one sampled coefficient; every requested
//!   marginal reuses the same coefficient pool, so error grows only with
//!   the size of the *downward closure* of the query set.
//!
//! Here the Fourier basis over `{0,1}^d` **is** the Hadamard basis:
//! `χ_T(x) = (−1)^{⟨x ∧ T⟩}` — evaluated in O(1) by popcount, exactly as
//! in `ldp-apple`'s HCMS.

use ldp_core::rr::BinaryRandomizedResponse;
use ldp_core::{Epsilon, Error, Result};
use ldp_sketch::hash::FastMap;
use rand::Rng;

/// The parity character `χ_T(x) = (−1)^{popcount(x & T)}` as ±1.
#[inline]
fn chi(t: u64, x: u64) -> f64 {
    if (t & x).count_ones().is_multiple_of(2) {
        1.0
    } else {
        -1.0
    }
}

/// A marginal query: the set of attribute indices, as a bitmask over the
/// `d` attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MarginalQuery(pub u64);

impl MarginalQuery {
    /// Builds a query from attribute indices.
    ///
    /// # Panics
    /// Panics if any index is ≥ 63.
    pub fn from_attrs(attrs: &[u32]) -> Self {
        let mut mask = 0u64;
        for &a in attrs {
            assert!(a < 63, "attribute index {a} too large");
            mask |= 1 << a;
        }
        Self(mask)
    }

    /// Number of attributes in the marginal (its "k").
    pub fn arity(&self) -> u32 {
        self.0.count_ones()
    }

    /// Enumerates all subsets of this query's attribute mask (the
    /// downward closure), including the empty set.
    pub fn subsets(&self) -> Vec<u64> {
        let mask = self.0;
        let mut out = Vec::with_capacity(1 << self.arity());
        let mut t = 0u64;
        loop {
            out.push(t);
            if t == mask {
                break;
            }
            t = (t.wrapping_sub(mask)) & mask;
        }
        out
    }

    /// Enumerates the marginal's cells as compact indices `0..2^k` paired
    /// with their expanded bitmask positions within the query attributes.
    fn cells(&self) -> Vec<u64> {
        let attrs: Vec<u32> = (0..64).filter(|&i| self.0 >> i & 1 == 1).collect();
        (0..(1u64 << attrs.len()))
            .map(|cell| {
                let mut x = 0u64;
                for (bit, &attr) in attrs.iter().enumerate() {
                    if cell >> bit & 1 == 1 {
                        x |= 1 << attr;
                    }
                }
                x
            })
            .collect()
    }
}

/// A computed marginal table: probabilities per cell, in the cell order of
/// the query's attributes (LSB-first).
#[derive(Debug, Clone, PartialEq)]
pub struct MarginalTable {
    /// The query this table answers.
    pub query: MarginalQuery,
    /// Estimated probability of each of the `2^k` cells.
    pub probabilities: Vec<f64>,
}

/// Exact (non-private) marginal computation, the ground truth for tests
/// and experiment error metrics.
pub fn exact_marginal(data: &[u64], query: MarginalQuery) -> MarginalTable {
    let cells = query.cells();
    let mut probs = vec![0.0; cells.len()];
    if data.is_empty() {
        return MarginalTable {
            query,
            probabilities: probs,
        };
    }
    for &x in data {
        let projected = x & query.0;
        let idx = cells
            .iter()
            .position(|&c| c == projected)
            .expect("cell exists");
        probs[idx] += 1.0;
    }
    for p in probs.iter_mut() {
        *p /= data.len() as f64;
    }
    MarginalTable {
        query,
        probabilities: probs,
    }
}

/// The Fourier-basis marginal-release protocol.
#[derive(Debug, Clone)]
pub struct FourierMarginals {
    epsilon: Epsilon,
    /// The coefficient pool: union of downward closures of all queries.
    coefficients: Vec<u64>,
}

impl FourierMarginals {
    /// Prepares the protocol for a workload of marginal queries over `d`
    /// binary attributes.
    ///
    /// # Errors
    /// Rejects `d` outside `[1, 62]` or queries referencing attributes
    /// beyond `d`.
    pub fn new(d: u32, queries: &[MarginalQuery], epsilon: Epsilon) -> Result<Self> {
        if d == 0 || d > 62 {
            return Err(Error::InvalidDomain(format!(
                "d must be in [1, 62], got {d}"
            )));
        }
        let full_mask = (1u64 << d) - 1;
        let mut pool: Vec<u64> = Vec::new();
        for q in queries {
            if q.0 & !full_mask != 0 {
                return Err(Error::InvalidParameter(format!(
                    "query {:#x} references attributes beyond d={d}",
                    q.0
                )));
            }
            pool.extend(q.subsets());
        }
        pool.sort_unstable();
        pool.dedup();
        if pool.is_empty() {
            return Err(Error::InvalidParameter("no queries supplied".into()));
        }
        Ok(Self {
            epsilon,
            coefficients: pool,
        })
    }

    /// Number of Fourier coefficients the protocol estimates.
    pub fn coefficient_count(&self) -> usize {
        self.coefficients.len()
    }

    /// Runs collection: each user samples one coefficient `T` from the
    /// pool and reports `χ_T(x)` through binary randomized response.
    /// Returns the estimated coefficient map `T → φ̂_T`.
    pub fn collect<R: Rng>(&self, data: &[u64], rng: &mut R) -> FastMap<u64, f64> {
        let rr = BinaryRandomizedResponse::new(self.epsilon);
        let c = self.coefficients.len();
        let mut pos_counts: FastMap<u64, (u64, u64)> = FastMap::default(); // T -> (ones, total)
        for (i, &x) in data.iter().enumerate() {
            // Round-robin coefficient assignment (uniform in expectation,
            // lower variance than sampling).
            let t = self.coefficients[i % c];
            let bit = chi(t, x) > 0.0;
            let noisy = rr.randomize(bit, rng);
            let entry = pos_counts.entry(t).or_insert((0, 0));
            if noisy {
                entry.0 += 1;
            }
            entry.1 += 1;
        }
        let mut out = FastMap::default();
        for (&t, &(ones, total)) in &pos_counts {
            if total == 0 {
                continue;
            }
            // P(chi = +1) estimate, then phi = 2 P(+1) - 1.
            let p_plus = rr.estimate_proportion(ones as usize, total as usize);
            out.insert(t, 2.0 * p_plus - 1.0);
        }
        // chi_emptyset == 1 always; pin it exactly.
        out.insert(0, 1.0);
        out
    }

    /// Reconstructs one marginal from collected coefficients:
    /// `P_S(y) = 2^{−k} · Σ_{T ⊆ S} χ_T(y) · φ̂_T`.
    ///
    /// # Panics
    /// Panics if the query was not covered by the constructor's pool.
    pub fn reconstruct(
        &self,
        coefficients: &FastMap<u64, f64>,
        query: MarginalQuery,
    ) -> MarginalTable {
        let subsets = query.subsets();
        let cells = query.cells();
        let k = query.arity();
        let probabilities = cells
            .iter()
            .map(|&y| {
                let sum: f64 = subsets
                    .iter()
                    .map(|&t| {
                        let phi = coefficients.get(&t).unwrap_or_else(|| {
                            panic!("coefficient {t:#x} missing; was the query registered?")
                        });
                        chi(t, y) * phi
                    })
                    .sum();
                sum / (1u64 << k) as f64
            })
            .collect();
        MarginalTable {
            query,
            probabilities,
        }
    }
}

/// Baseline: full-domain materialization through OLH, then summing cells.
pub fn full_materialization_marginal<R: Rng>(
    data: &[u64],
    d: u32,
    query: MarginalQuery,
    epsilon: Epsilon,
    rng: &mut R,
) -> MarginalTable {
    use ldp_core::fo::{FoAggregator, FrequencyOracle, OptimizedLocalHashing};
    assert!(
        d <= 20,
        "full materialization is only tractable for small d"
    );
    let oracle = OptimizedLocalHashing::new(1u64 << d, epsilon);
    let mut agg = oracle.new_aggregator();
    for &x in data {
        agg.accumulate(&oracle.randomize(x, rng));
    }
    let counts = agg.estimate();
    let cells = query.cells();
    let n = data.len().max(1) as f64;
    let probabilities = cells
        .iter()
        .map(|&cell| {
            // Sum the full-domain estimate over all x projecting onto cell.
            let mut total = 0.0;
            for (x, &c) in counts.iter().enumerate() {
                if (x as u64) & query.0 == cell {
                    total += c;
                }
            }
            total / n
        })
        .collect();
    MarginalTable {
        query,
        probabilities,
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

    /// Correlated synthetic data: attr 1 = attr 0 w.p. 0.9; attr 2 random.
    fn correlated_data(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let a0 = rng.gen_bool(0.5) as u64;
                let a1 = if rng.gen_bool(0.9) { a0 } else { 1 - a0 };
                let a2 = rng.gen_bool(0.3) as u64;
                a0 | (a1 << 1) | (a2 << 2)
            })
            .collect()
    }

    #[test]
    fn subsets_enumerates_downward_closure() {
        let q = MarginalQuery::from_attrs(&[0, 2]);
        let mut subs = q.subsets();
        subs.sort_unstable();
        assert_eq!(subs, vec![0b000, 0b001, 0b100, 0b101]);
        assert_eq!(q.arity(), 2);
    }

    #[test]
    fn exact_marginal_sums_to_one() {
        let data = correlated_data(1000, 1);
        let t = exact_marginal(&data, MarginalQuery::from_attrs(&[0, 1]));
        let sum: f64 = t.probabilities.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // Correlation visible: P(00) + P(11) ~ 0.9.
        assert!(t.probabilities[0] + t.probabilities[3] > 0.8);
    }

    #[test]
    fn fourier_recovers_marginals() {
        let d = 8;
        let queries = vec![
            MarginalQuery::from_attrs(&[0, 1]),
            MarginalQuery::from_attrs(&[1, 2]),
            MarginalQuery::from_attrs(&[0, 2]),
        ];
        let fm = FourierMarginals::new(d, &queries, eps(2.0)).unwrap();
        let data = correlated_data(100_000, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let coeffs = fm.collect(&data, &mut rng);
        for q in &queries {
            let est = fm.reconstruct(&coeffs, *q);
            let truth = exact_marginal(&data, *q);
            for (cell, (&e, &t)) in est
                .probabilities
                .iter()
                .zip(&truth.probabilities)
                .enumerate()
            {
                assert!(
                    (e - t).abs() < 0.05,
                    "query {:#x} cell {cell}: est={e} truth={t}",
                    q.0
                );
            }
            // Cells sum to ~1 (phi_0 pinned to 1).
            let sum: f64 = est.probabilities.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "sum={sum}");
        }
    }

    #[test]
    fn coefficient_pool_deduplicates() {
        let queries = vec![
            MarginalQuery::from_attrs(&[0, 1]),
            MarginalQuery::from_attrs(&[0, 1]), // duplicate
            MarginalQuery::from_attrs(&[1, 2]),
        ];
        let fm = FourierMarginals::new(4, &queries, eps(1.0)).unwrap();
        // closures: {0,1,2,3} and {0,2,4,6} -> union size 6.
        assert_eq!(fm.coefficient_count(), 6);
    }

    #[test]
    fn full_materialization_agrees_with_truth() {
        let data = correlated_data(60_000, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let q = MarginalQuery::from_attrs(&[0, 1]);
        let est = full_materialization_marginal(&data, 3, q, eps(2.0), &mut rng);
        let truth = exact_marginal(&data, q);
        for (cell, (&e, &t)) in est
            .probabilities
            .iter()
            .zip(&truth.probabilities)
            .enumerate()
        {
            assert!((e - t).abs() < 0.08, "cell {cell}: est={e} truth={t}");
        }
    }

    #[test]
    fn rejects_out_of_range_queries() {
        let q = MarginalQuery::from_attrs(&[5]);
        assert!(FourierMarginals::new(4, &[q], eps(1.0)).is_err());
        assert!(FourierMarginals::new(0, &[q], eps(1.0)).is_err());
        assert!(FourierMarginals::new(4, &[], eps(1.0)).is_err());
    }

    #[test]
    fn chi_is_multiplicative_character() {
        for t in 0..16u64 {
            for x in 0..16u64 {
                for y in 0..16u64 {
                    assert_eq!(chi(t, x ^ y), chi(t, x) * chi(t, y));
                }
            }
        }
    }
}
