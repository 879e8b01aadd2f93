//! Heavy hitters over massive domains: the prefix-extending method.
//!
//! A frequency oracle over a 2³²-item domain is useless on its own: the
//! server cannot sweep four billion candidates, and with `n ≪ d` most
//! estimates are pure noise. The succinct-histogram line of work
//! (Bassily–Smith; Bassily–Nissim–Stemmer–Thakurta's TreeHist; Wang et
//! al.'s PEM) solves this by *localizing* the search: users are split into
//! groups, group `i` reports (the hash of) a **prefix** of their value,
//! and the server only extends prefixes that already look frequent —
//! pruning the exponential candidate tree to `O(k)` survivors per level.
//!
//! [`PrefixExtendingMethod`] implements the general protocol with a
//! configurable per-level bit step; [`PrefixExtendingMethod::tree_hist`]
//! is the step-1 (binary tree) variant. The underlying per-group oracle
//! is **cohort-mode** OLH (`CohortLocalHashing`), whose reports are
//! constant-size in the domain and whose aggregate is a `C×g` count
//! matrix — so each level costs `O(C·|candidates|)` hash evaluations to
//! estimate instead of rescanning the group's raw reports. Each group's
//! accumulation runs through the sharded parallel engine in
//! `ldp_workloads::parallel`, and with it through the oracle's **batch
//! path** (`randomize_accumulate_batch`): per-shard reports fold
//! straight into the `C×g` matrix with monomorphized RNG draws and no
//! per-report allocation on any level.

use ldp_core::fo::{CohortLocalHashing, FoAggregator};
use ldp_core::{Epsilon, Error, Result};
use ldp_workloads::parallel::accumulate_mech_sharded;
use rand::Rng;

/// A discovered heavy hitter: the value and its estimated count,
/// extrapolated to the full population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeavyHitter {
    /// The recovered domain value.
    pub value: u64,
    /// Estimated number of users holding it (full-population scale).
    pub estimate: f64,
}

/// Default cohort count per level: small enough that a level's `C×g`
/// matrix stays cache-resident, large enough that the shared-collision
/// variance stays well under the per-group noise floor for the group
/// sizes heavy-hitter runs see.
const DEFAULT_LEVEL_COHORTS: u32 = 256;

/// Default logical shard count for per-level parallel accumulation (the
/// worker count adapts to the machine; the shard plan fixes the result).
const DEFAULT_LEVEL_SHARDS: usize = 16;

/// The prefix-extending heavy-hitter protocol.
#[derive(Debug, Clone)]
pub struct PrefixExtendingMethod {
    /// Total value width in bits (domain = `[0, 2^bits)`).
    bits: u32,
    /// Bits revealed per level.
    step: u32,
    /// Initial prefix length (first level estimates all `2^start` prefixes
    /// exhaustively, so keep it ≤ ~16).
    start: u32,
    /// Candidates kept per level.
    keep: usize,
    epsilon: Epsilon,
    /// Cohort count for each level's OLH-C oracle.
    cohorts: u32,
    /// Logical shard count for each level's parallel accumulation.
    shards: usize,
}

impl PrefixExtendingMethod {
    /// Creates a PEM instance.
    ///
    /// # Errors
    /// Validates that `start ≤ bits`, the step divides the remainder, the
    /// initial exhaustive level is tractable (`start ≤ 20`), and `keep ≥ 1`.
    pub fn new(bits: u32, start: u32, step: u32, keep: usize, epsilon: Epsilon) -> Result<Self> {
        if bits == 0 || bits > 63 {
            return Err(Error::InvalidDomain(format!(
                "bits must be in [1, 63], got {bits}"
            )));
        }
        if start == 0 || start > bits || start > 20 {
            return Err(Error::InvalidParameter(format!(
                "start must be in [1, min(bits, 20)], got {start}"
            )));
        }
        if step == 0 || !(bits - start).is_multiple_of(step) {
            return Err(Error::InvalidParameter(format!(
                "step {step} must divide bits - start = {}",
                bits - start
            )));
        }
        if keep == 0 {
            return Err(Error::InvalidParameter("keep must be positive".into()));
        }
        Ok(Self {
            bits,
            step,
            start,
            keep,
            epsilon,
            cohorts: DEFAULT_LEVEL_COHORTS,
            shards: DEFAULT_LEVEL_SHARDS,
        })
    }

    /// TreeHist configuration: extend one bit per level.
    ///
    /// # Errors
    /// As for [`new`](Self::new).
    pub fn tree_hist(bits: u32, keep: usize, epsilon: Epsilon) -> Result<Self> {
        Self::new(bits, 1, 1, keep, epsilon)
    }

    /// Overrides the per-level cohort count (default 256). More cohorts
    /// shrink the shared-collision variance (`∝ 1/C`) at the price of a
    /// larger `C×g` count matrix and slower candidate estimation
    /// (`O(C·|candidates|)`).
    ///
    /// # Panics
    /// Panics if `cohorts == 0`.
    #[must_use]
    pub fn with_cohorts(mut self, cohorts: u32) -> Self {
        assert!(cohorts >= 1, "need at least one cohort");
        self.cohorts = cohorts;
        self
    }

    /// Overrides the logical shard count used for each level's parallel
    /// accumulation (default 16). The shard plan — not the machine's core
    /// count — determines the result, so estimates are reproducible.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        self.shards = shards;
        self
    }

    /// Number of user groups (levels) the protocol needs.
    pub fn levels(&self) -> u32 {
        1 + (self.bits - self.start) / self.step
    }

    /// One level's randomize→accumulate→estimate pass, shared by level 0
    /// and every extension level: maps each group value to its
    /// `prefix_len`-bit prefix, collects through cohort-mode OLH on the
    /// sharded parallel engine (whose shards run
    /// `randomize_accumulate_batch`), and returns estimates for
    /// `candidates`.
    ///
    /// `seed_base` rotates the level's public cohort seed set (so hash
    /// collisions between candidates differ per level and per run rather
    /// than biasing the same pairs every time); `shard_seed` drives the
    /// per-shard randomization streams.
    fn level_estimates(
        &self,
        group: &[u64],
        prefix_len: u32,
        candidates: &[u64],
        seed_base: u64,
        shard_seed: u64,
    ) -> Vec<f64> {
        let oracle = CohortLocalHashing::optimized_with_seed(
            1u64 << prefix_len,
            self.cohorts,
            seed_base,
            self.epsilon,
        );
        let prefixes: Vec<u64> = group
            .iter()
            .map(|&v| v >> (self.bits - prefix_len))
            .collect();
        let agg = accumulate_mech_sharded(&&oracle, &prefixes, shard_seed, self.shards);
        agg.estimate_items(candidates)
    }

    /// Runs the protocol over the users' values (each user reports once,
    /// in the group determined by their index). Returns up to `keep`
    /// heavy hitters sorted by estimated count descending.
    pub fn run<R: Rng>(&self, values: &[u64], rng: &mut R) -> Vec<HeavyHitter> {
        let levels = self.levels() as usize;
        if values.is_empty() {
            return Vec::new();
        }
        // Partition users into level groups by a hash of their index —
        // the deployment analogue of random group assignment, and immune
        // to populations whose value pattern is periodic in the index.
        let mut groups: Vec<Vec<u64>> = vec![Vec::with_capacity(values.len() / levels + 1); levels];
        for (i, &v) in values.iter().enumerate() {
            debug_assert!(
                self.bits == 63 || v < (1u64 << self.bits),
                "value exceeds domain"
            );
            let g = (ldp_sketch::hash::mix64(i as u64) % levels as u64) as usize;
            groups[g].push(v);
        }

        // Level 0 estimates all 2^start prefixes exhaustively; every later
        // level estimates the step-bit extensions of the survivors. All
        // levels share one `level_estimates` pass.
        let mut prefix_len = self.start;
        let mut candidates: Vec<u64> = (0..(1u64 << self.start)).collect();
        let mut survivors: Vec<u64> = Vec::new();
        for (level, group) in groups.iter().enumerate() {
            if level > 0 {
                prefix_len += self.step;
                candidates = Vec::with_capacity(survivors.len() << self.step);
                for &s in &survivors {
                    for ext in 0..(1u64 << self.step) {
                        candidates.push((s << self.step) | ext);
                    }
                }
            }
            let ests = self.level_estimates(group, prefix_len, &candidates, rng.gen(), rng.gen());
            let mut scored: Vec<(u64, f64)> = candidates.iter().copied().zip(ests).collect();
            scored.sort_by(|a, b| b.1.total_cmp(&a.1));
            scored.truncate(self.keep);
            if level == levels - 1 {
                // Final level: scale group estimates to the population.
                let scale = values.len() as f64 / group.len().max(1) as f64;
                return scored
                    .into_iter()
                    .filter(|&(_, e)| e > 0.0)
                    .map(|(value, e)| HeavyHitter {
                        value,
                        estimate: e * scale,
                    })
                    .collect();
            }
            survivors = scored.into_iter().map(|(v, _)| v).collect();
        }
        unreachable!("levels >= 1, so the final level always returns");
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
    fn validation() {
        assert!(PrefixExtendingMethod::new(0, 1, 1, 4, eps(1.0)).is_err());
        assert!(PrefixExtendingMethod::new(32, 0, 4, 4, eps(1.0)).is_err());
        assert!(
            PrefixExtendingMethod::new(32, 8, 5, 4, eps(1.0)).is_err(),
            "step must divide"
        );
        assert!(
            PrefixExtendingMethod::new(32, 21, 1, 4, eps(1.0)).is_err(),
            "start too big"
        );
        assert!(PrefixExtendingMethod::new(32, 8, 4, 0, eps(1.0)).is_err());
        let ok = PrefixExtendingMethod::new(32, 8, 4, 16, eps(1.0)).unwrap();
        assert_eq!(ok.levels(), 7);
    }

    #[test]
    fn finds_planted_heavy_hitters() {
        // 24-bit domain, three planted values dominating a uniform tail.
        let pem = PrefixExtendingMethod::new(24, 8, 4, 12, eps(3.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let planted = [0x00_abcd_u64, 0x12_3456, 0xff_00ff];
        let mut values = Vec::new();
        for i in 0..60_000usize {
            values.push(match i % 10 {
                0..=3 => planted[0],
                4..=6 => planted[1],
                7..=8 => planted[2],
                _ => (i as u64).wrapping_mul(0x9e37_79b9) & 0xff_ffff,
            });
        }
        let found = pem.run(&values, &mut rng);
        assert!(!found.is_empty());
        let found_values: Vec<u64> = found.iter().map(|h| h.value).collect();
        for (rank, &p) in planted.iter().enumerate() {
            assert!(
                found_values.contains(&p),
                "planted value {rank} ({p:#x}) missing from {found_values:x?}"
            );
        }
        // The top hitter should be the 40% value with a sane estimate.
        assert_eq!(found[0].value, planted[0]);
        assert!(
            (found[0].estimate - 24_000.0).abs() < 8000.0,
            "estimate {}",
            found[0].estimate
        );
    }

    #[test]
    fn tree_hist_variant_works() {
        let th = PrefixExtendingMethod::tree_hist(12, 8, eps(3.0)).unwrap();
        assert_eq!(th.levels(), 12);
        let mut rng = StdRng::seed_from_u64(9);
        let mut values = vec![0xabcu64; 30_000];
        for i in 0..10_000usize {
            values.push((i as u64 * 7919) & 0xfff);
        }
        let found = th.run(&values, &mut rng);
        assert!(
            found.iter().any(|h| h.value == 0xabc),
            "planted value missing: {found:?}"
        );
    }

    #[test]
    fn empty_population() {
        let pem = PrefixExtendingMethod::new(16, 8, 8, 4, eps(1.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(pem.run(&[], &mut rng).is_empty());
    }

    #[test]
    fn runs_are_reproducible_for_fixed_seed() {
        let pem = PrefixExtendingMethod::new(16, 8, 8, 6, eps(2.0)).unwrap();
        let mut values = vec![0x1234u64; 8_000];
        for i in 0..4_000usize {
            values.push((i as u64 * 2654435761) & 0xffff);
        }
        let a = pem.run(&values, &mut StdRng::seed_from_u64(11));
        let b = pem.run(&values, &mut StdRng::seed_from_u64(11));
        assert_eq!(a, b, "same seed must reproduce identical hitters");
    }

    #[test]
    fn cohort_and_shard_knobs_apply() {
        let pem = PrefixExtendingMethod::new(16, 8, 8, 6, eps(3.0))
            .unwrap()
            .with_cohorts(512)
            .with_shards(4);
        let mut rng = StdRng::seed_from_u64(13);
        let mut values = vec![0xbeefu64; 20_000];
        for i in 0..5_000usize {
            values.push((i as u64 * 7919) & 0xffff);
        }
        let found = pem.run(&values, &mut rng);
        assert!(found.iter().any(|h| h.value == 0xbeef), "{found:?}");
    }
}
