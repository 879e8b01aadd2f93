//! Seeded input generation. Every input a workload feeds the library —
//! item values, client RNG seeds, query candidates, the dictionary — is a
//! pure function of `(--seed, stream, index)`, so the same seed replays
//! the same traffic and a different seed gives different traffic.

use ldp_workloads::ZipfGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Zipf exponent of every workload's item popularity.
pub const ZIPF_S: f64 = 1.1;

/// Items in one analyst query.
pub const QUERY_ITEMS: usize = 64;

/// Independent input streams drawn from one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum Stream {
    Values = 1,
    ClientSeed = 2,
    Queries = 3,
    Dictionary = 4,
    Stragglers = 5,
}

/// SplitMix64 finalizer over `seed`, `stream` and `index`.
pub fn mix(seed: u64, stream: Stream, index: u64) -> u64 {
    let mut z = seed
        ^ (stream as u64).wrapping_mul(0xd1b5_4a32_d192_ed03)
        ^ index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn rng(seed: u64, stream: Stream, index: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, stream, index))
}

/// `n` Zipf-distributed ranks in `0..zipf.domain()` for input batch `index`.
pub fn zipf_values(zipf: &ZipfGenerator, seed: u64, index: u64, n: usize) -> Vec<u64> {
    zipf.sample_n(n, &mut rng(seed, Stream::Values, index))
}

/// The items of analyst query `q`: [`QUERY_ITEMS`] entries of `pool`.
pub fn query_items(pool: &[u64], seed: u64, q: u64) -> Vec<u64> {
    let mut state = mix(seed, Stream::Queries, q);
    (0..QUERY_ITEMS)
        .map(|_| {
            state = mix(state, Stream::Queries, 0);
            pool[(state % pool.len() as u64) as usize]
        })
        .collect()
}

/// `size` distinct items of `0..domain`, in draw order — the dictionary
/// a sketch collector is asked about.
pub fn dictionary(seed: u64, size: usize, domain: u64) -> Vec<u64> {
    assert!(size as u64 <= domain, "dictionary larger than its domain");
    let mut seen = std::collections::HashSet::with_capacity(size);
    let mut out = Vec::with_capacity(size);
    let mut i = 0u64;
    while out.len() < size {
        let item = mix(seed, Stream::Dictionary, i) % domain;
        i += 1;
        if seen.insert(item) {
            out.push(item);
        }
    }
    out
}

/// Mean squared error over the tail half of the domain: the items whose
/// true count is at or below the median true count.
pub fn tail_mse(estimate: &[f64], truth: &[f64]) -> f64 {
    let mut sorted = truth.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    let (sse, n) = estimate
        .iter()
        .zip(truth)
        .filter(|(_, &t)| t <= median)
        .fold((0.0, 0usize), |(sse, n), (e, t)| {
            (sse + (e - t) * (e - t), n + 1)
        });
    sse / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_and_indices_are_independent() {
        assert_ne!(mix(1, Stream::Values, 0), mix(1, Stream::ClientSeed, 0));
        assert_ne!(mix(1, Stream::Values, 0), mix(1, Stream::Values, 1));
        assert_ne!(mix(1, Stream::Values, 0), mix(2, Stream::Values, 0));
        assert_eq!(mix(9, Stream::Queries, 4), mix(9, Stream::Queries, 4));
    }

    #[test]
    fn dictionary_is_distinct_and_seeded() {
        let d = dictionary(3, 500, 1 << 20);
        let distinct: std::collections::BTreeSet<_> = d.iter().collect();
        assert_eq!(distinct.len(), 500);
        assert_eq!(d, dictionary(3, 500, 1 << 20));
        assert_ne!(d, dictionary(4, 500, 1 << 20));
        // A dictionary as large as its domain is a permutation of it.
        let mut all = dictionary(3, 16, 16);
        all.sort_unstable();
        assert_eq!(all, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn query_items_come_from_the_pool() {
        let pool = [10u64, 20, 30];
        let q = query_items(&pool, 1, 0);
        assert_eq!(q.len(), QUERY_ITEMS);
        assert!(q.iter().all(|v| pool.contains(v)));
        assert_eq!(q, query_items(&pool, 1, 0));
        assert_ne!(q, query_items(&pool, 1, 1));
    }

    #[test]
    fn tail_mse_uses_items_at_or_below_the_median_count() {
        let truth = [1.0, 2.0, 3.0, 100.0];
        // Median (upper) true count is 3: items 0..3 are the tail.
        let estimate = [2.0, 2.0, 1.0, 0.0];
        assert_eq!(tail_mse(&estimate, &truth), (1.0 + 0.0 + 4.0) / 3.0);
    }
}
