//! Sharded parallel collection: randomize-and-accumulate across
//! `std::thread::scope` workers, combined with [`FoAggregator::merge`].
//!
//! The deployment picture the tutorial paints — millions of clients
//! reporting to a fleet of collectors — reduces server-side to one
//! algebraic requirement: the aggregate state must be *mergeable*. Every
//! aggregator in `ldp-core` satisfies it, so collection can be split into
//! shards, accumulated independently (here: on worker threads; in a real
//! deployment: on separate collector machines), and merged.
//!
//! Determinism is a first-class property of this harness. Work is divided
//! into a fixed number of **logical shards**, each with its own
//! seed-derived RNG stream, and shard aggregators are merged in shard
//! order. The worker count only decides which thread runs which shard, so
//! the result is bit-identical across machines, core counts, and
//! schedules — and bit-identical to [`accumulate_mech_sharded_sequential`],
//! the single-threaded reference that tests compare against.
//!
//! Each shard runs the mechanism's **fused batch path**: reports fold
//! straight into the shard aggregator with monomorphized RNG draws and,
//! for the unary family, word-parallel or geometric-skip bit sampling
//! ([`ldp_core::fo::batch`]) — no per-report
//! allocation. Because the fused path replays the scalar RNG stream
//! exactly, the determinism contract is unchanged. Workers are spawned
//! once per collection round and live for all of their shards (strided
//! assignment), so thread-spawn cost is paid `workers` times per round,
//! not `shards` times; [`recommended_shards`] sizes shards so that spawn
//! cost stays amortized. [`accumulate_mech_sharded_with_workers`] pins the
//! worker count explicitly — benches use it for honest 1-vs-N scaling
//! comparisons, and [`planned_workers`] reports the count the automatic
//! path would use (what the bench JSON records as `threads`).
//!
//! The engine is generic over [`BatchMechanism`]: the
//! `accumulate_mech_sharded*` entry points drive *any* batch-fusable
//! mechanism — `ldp_microsoft::OneBitMean` over `&[f64]`, a telemetry
//! round over `(device, value)` pairs, and every frequency oracle
//! (Apple's CMS/HCMS and Microsoft's dBitFlip included) through the
//! blanket `&O` impl: pass `&oracle` as the mechanism, as in
//! `accumulate_mech_sharded(&&oracle, &values, seed, shards)`.

use ldp_core::fo::FoAggregator;
use ldp_core::mech::BatchMechanism;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::thread;

/// Derives the deterministic RNG seed for one logical shard (a SplitMix64
/// finalizer over the base seed and shard index, so shard streams are
/// decorrelated even for adjacent base seeds).
#[inline]
pub fn shard_seed(base_seed: u64, shard: usize) -> u64 {
    let mut z = base_seed ^ (shard as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Contiguous `[lo, hi)` bounds of each logical shard — the single
/// source of the shard plan, shared by the in-process engine here and
/// the byte path's `service::WireClient::frames_sharded` (their
/// bit-identity depends on both using exactly this plan).
pub(crate) fn shard_bounds(len: usize, shards: usize) -> Vec<(usize, usize)> {
    let chunk = len.div_ceil(shards);
    (0..shards)
        .map(|i| ((i * chunk).min(len), ((i + 1) * chunk).min(len)))
        .collect()
}

/// Randomizes and accumulates one shard's inputs with its own RNG stream,
/// through the mechanism's fused batch path (allocation-free where the
/// mechanism supports it, monomorphized draws for everyone).
fn accumulate_shard<M: BatchMechanism>(mech: &M, inputs: &[M::Input], seed: u64) -> M::Aggregator {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut agg = mech.new_aggregator();
    mech.accumulate_batch(inputs, &mut rng, &mut agg);
    agg
}

/// The worker count [`accumulate_mech_sharded`] uses for a given shard count:
/// one per available core, capped at the shard count. Benches record this
/// as the `threads` field so the JSON reflects the parallelism actually
/// exercised, not a constant.
pub fn planned_workers(shards: usize) -> usize {
    thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(shards.max(1))
}

/// A shard count that keeps every worker busy while amortizing the
/// per-worker spawn cost: a few shards per worker for load balance, but
/// never so many that shards shrink below ~4k users (at which point spawn
/// and merge overhead is no longer noise).
///
/// **Reproducibility note:** the shard count is part of the determinism
/// contract — two machines with different core counts get different plans
/// from this helper. Pipelines that must reproduce results bit-for-bit
/// across machines should pass a fixed shard count instead.
pub fn recommended_shards(len: usize, workers: usize) -> usize {
    const MIN_PER_SHARD: usize = 4096;
    let cap = workers.max(1) * 4;
    (len / MIN_PER_SHARD).clamp(1, cap.max(1))
}

/// Merges per-shard aggregators in shard order; order is part of the
/// determinism contract (floating-point states reassociate otherwise).
///
/// Shards of one mechanism instance only fail to merge past `u64::MAX`
/// reports, so a refusal panics.
fn merge_in_order<A: FoAggregator>(mut parts: Vec<Option<A>>) -> A {
    let mut acc = parts[0].take().expect("shard 0 aggregator present");
    for p in parts.iter_mut().skip(1) {
        acc.merge(p.take().expect("shard aggregator present"))
            .expect("shards of one mechanism merge");
    }
    acc
}

/// Splits `inputs` into `shards` logical shards and runs the full
/// randomize→accumulate→merge round for any [`BatchMechanism`] across
/// `std::thread::scope` workers (one per available core, capped at the
/// shard count).
///
/// Returns the merged aggregator, bit-identical to
/// [`accumulate_mech_sharded_sequential`] with the same arguments
/// regardless of core count or scheduling.
///
/// # Panics
/// Panics if `shards == 0` or a worker thread panics.
pub fn accumulate_mech_sharded<M>(
    mech: &M,
    inputs: &[M::Input],
    base_seed: u64,
    shards: usize,
) -> M::Aggregator
where
    M: BatchMechanism + Sync,
    M::Input: Sync,
    M::Aggregator: Send,
{
    accumulate_mech_sharded_with_workers(mech, inputs, base_seed, shards, planned_workers(shards))
}

/// [`accumulate_mech_sharded`] with an explicit worker count. The shard
/// plan — and therefore the result — is identical for every `workers`
/// value; only the wall-clock changes. Benches use `workers = 1` vs
/// `workers = planned_workers(shards)` for honest scaling comparisons.
///
/// # Panics
/// Panics if `shards == 0`, `workers == 0`, or a worker thread panics.
pub fn accumulate_mech_sharded_with_workers<M>(
    mech: &M,
    inputs: &[M::Input],
    base_seed: u64,
    shards: usize,
    workers: usize,
) -> M::Aggregator
where
    M: BatchMechanism + Sync,
    M::Input: Sync,
    M::Aggregator: Send,
{
    assert!(shards > 0, "need at least one shard");
    assert!(workers > 0, "need at least one worker");
    let shards = shards.min(inputs.len().max(1));
    let workers = workers.min(shards);
    let bounds = shard_bounds(inputs.len(), shards);
    if workers == 1 {
        return accumulate_mech_sharded_sequential(mech, inputs, base_seed, shards);
    }

    let parts = thread::scope(|s| {
        let bounds = &bounds;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    // Strided shard assignment: worker w takes shards
                    // w, w+workers, … — balanced even when per-shard cost
                    // varies with position in the input.
                    (w..bounds.len())
                        .step_by(workers)
                        .map(|i| {
                            let (lo, hi) = bounds[i];
                            (
                                i,
                                accumulate_shard(mech, &inputs[lo..hi], shard_seed(base_seed, i)),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut parts: Vec<Option<M::Aggregator>> = (0..bounds.len()).map(|_| None).collect();
        for h in handles {
            for (i, agg) in h.join().expect("shard worker panicked") {
                parts[i] = Some(agg);
            }
        }
        parts
    });
    merge_in_order(parts)
}

/// Single-threaded reference for [`accumulate_mech_sharded`]: identical
/// shard plan, identical per-shard RNG streams, identical merge order —
/// just no threads. Exists so tests can assert the parallel path is
/// bit-identical, and as the fallback on single-core hosts.
///
/// # Panics
/// Panics if `shards == 0`.
pub fn accumulate_mech_sharded_sequential<M: BatchMechanism>(
    mech: &M,
    inputs: &[M::Input],
    base_seed: u64,
    shards: usize,
) -> M::Aggregator {
    assert!(shards > 0, "need at least one shard");
    let shards = shards.min(inputs.len().max(1));
    let parts = shard_bounds(inputs.len(), shards)
        .into_iter()
        .enumerate()
        .map(|(i, (lo, hi))| {
            Some(accumulate_shard(
                mech,
                &inputs[lo..hi],
                shard_seed(base_seed, i),
            ))
        })
        .collect();
    merge_in_order(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::fo::{
        CohortLocalHashing, DirectEncoding, FrequencyOracle, HadamardResponse,
        OptimizedLocalHashing, OptimizedUnaryEncoding, SubsetSelection, SummationHistogramEncoding,
        ThresholdHistogramEncoding,
    };
    use ldp_core::Epsilon;

    fn eps(e: f64) -> Epsilon {
        Epsilon::new(e).expect("valid eps")
    }

    fn values(n: usize, d: u64) -> Vec<u64> {
        (0..n).map(|i| (i as u64).wrapping_mul(31) % d).collect()
    }

    /// The acceptance contract: parallel collection is bit-identical to
    /// the sequential reference, for every oracle family member
    /// (including the floating-point SHE state, since both sides use the
    /// same shard plan and merge order).
    #[test]
    fn parallel_bit_identical_to_sequential_for_all_oracles() {
        let d = 32u64;
        let vals = values(4_000, d);
        macro_rules! check {
            ($oracle:expr) => {{
                let oracle = $oracle;
                for &shards in &[1usize, 3, 8, 64] {
                    let par = accumulate_mech_sharded(&&oracle, &vals, 42, shards).estimate();
                    let seq =
                        accumulate_mech_sharded_sequential(&&oracle, &vals, 42, shards).estimate();
                    assert_eq!(par.len(), seq.len());
                    for (i, (a, b)) in par.iter().zip(&seq).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "shards={shards} item {i}: {a} != {b}"
                        );
                    }
                }
            }};
        }
        check!(DirectEncoding::new(d, eps(1.0)).expect("domain"));
        check!(OptimizedUnaryEncoding::new(d, eps(1.0)).expect("domain"));
        check!(ThresholdHistogramEncoding::new(d, eps(1.0)).expect("domain"));
        check!(SummationHistogramEncoding::new(d, eps(1.0)).expect("domain"));
        check!(SubsetSelection::new(d, eps(1.0)));
        check!(HadamardResponse::new(d, eps(1.0)));
        check!(OptimizedLocalHashing::new(d, eps(1.0)));
        check!(CohortLocalHashing::optimized(d, 128, eps(1.0)));
    }

    /// The shard plan (not the worker count) defines the result, so the
    /// same seed and shard count always reproduce the same estimate.
    #[test]
    fn deterministic_across_runs() {
        let oracle = CohortLocalHashing::optimized(64, 256, eps(2.0));
        let vals = values(10_000, 64);
        let a = accumulate_mech_sharded(&&oracle, &vals, 7, 16).estimate();
        let b = accumulate_mech_sharded(&&oracle, &vals, 7, 16).estimate();
        assert_eq!(a, b);
        let c = accumulate_mech_sharded(&&oracle, &vals, 8, 16).estimate();
        assert_ne!(a, c, "different base seed must change the noise draw");
    }

    #[test]
    fn parallel_collection_is_unbiased() {
        let d = 16u64;
        let n = 30_000usize;
        let oracle = CohortLocalHashing::optimized(d, 512, eps(2.0));
        let vals: Vec<u64> = (0..n).map(|u| (u % 4) as u64).collect();
        let est = accumulate_mech_sharded(&&oracle, &vals, 99, 32).estimate();
        let sd = oracle.count_variance(n, 0.25).sqrt();
        for (i, &e) in est.iter().enumerate().take(4) {
            assert!(
                (e - n as f64 / 4.0).abs() < 5.0 * sd,
                "item {i}: est={e} sd={sd}"
            );
        }
    }

    /// The worker count is pure scheduling: every explicit worker count
    /// reproduces the same bit-identical aggregate.
    #[test]
    fn worker_count_does_not_change_results() {
        let oracle = OptimizedUnaryEncoding::new(64, eps(1.0)).expect("domain");
        let vals = values(6_000, 64);
        let reference = accumulate_mech_sharded_sequential(&&oracle, &vals, 13, 12).estimate();
        for &workers in &[1usize, 2, 3, 8, 32] {
            let got =
                accumulate_mech_sharded_with_workers(&&oracle, &vals, 13, 12, workers).estimate();
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn planned_workers_bounded_by_shards() {
        assert_eq!(planned_workers(1), 1);
        assert!(planned_workers(64) >= 1);
        assert!(planned_workers(4) <= 4);
    }

    #[test]
    fn recommended_shards_sane() {
        assert_eq!(recommended_shards(0, 8), 1);
        assert_eq!(recommended_shards(100, 8), 1);
        // Large inputs: a few shards per worker, capped.
        let s = recommended_shards(1_000_000, 8);
        assert!((8..=32).contains(&s), "s={s}");
        // Small inputs never produce undersized shards.
        assert_eq!(recommended_shards(8192, 64), 2);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let oracle = DirectEncoding::new(8, eps(1.0)).expect("domain");
        accumulate_mech_sharded_with_workers(&&oracle, &[1], 0, 4, 0);
    }

    #[test]
    fn empty_and_tiny_populations() {
        let oracle = DirectEncoding::new(8, eps(1.0)).expect("domain");
        let agg = accumulate_mech_sharded(&&oracle, &[], 1, 16);
        assert_eq!(agg.reports(), 0);
        let agg = accumulate_mech_sharded(&&oracle, &[3], 1, 16);
        assert_eq!(agg.reports(), 1);
    }

    #[test]
    fn shard_bounds_cover_input_exactly() {
        for len in [0usize, 1, 7, 64, 65, 1000] {
            for shards in [1usize, 2, 7, 64] {
                let bounds = shard_bounds(len, shards.min(len.max(1)));
                assert_eq!(bounds.first().map(|b| b.0), Some(0));
                assert_eq!(bounds.last().map(|b| b.1), Some(len));
                for w in bounds.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "shards must tile contiguously");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let oracle = DirectEncoding::new(8, eps(1.0)).expect("domain");
        accumulate_mech_sharded_sequential(&&oracle, &[1], 0, 0);
    }

    /// A minimal non-oracle mechanism over `f64` inputs: each input `x`
    /// contributes one Bernoulli(`x`) bit. Stands in for the real
    /// non-oracle mechanisms (1BitMean, telemetry rounds) so the engine's
    /// mech-generic face is tested without a cross-crate dev-dependency.
    struct CoinMech;

    struct CoinAgg {
        ones: u64,
        n: usize,
    }

    impl ldp_core::snapshot::StateSnapshot for CoinAgg {
        fn state_tag(&self) -> u8 {
            ldp_core::snapshot::state_tag::MS_ONE_BIT_MEAN
        }

        fn snapshot_payload(&self, out: &mut Vec<u8>) {
            ldp_core::snapshot::put_count(out, self.n);
            ldp_core::wire::put_uvarint(out, self.ones);
        }

        fn restore_payload(
            &mut self,
            r: &mut ldp_core::wire::WireReader<'_>,
        ) -> ldp_core::Result<()> {
            self.n = ldp_core::snapshot::get_count(r)?;
            self.ones = r.uvarint()?;
            Ok(())
        }
    }

    impl ldp_core::fo::FoAggregator for CoinAgg {
        type Report = bool;

        fn try_accumulate(&mut self, report: &bool) -> ldp_core::Result<()> {
            self.ones += u64::from(*report);
            self.n += 1;
            Ok(())
        }

        fn reports(&self) -> usize {
            self.n
        }

        fn estimate(&self) -> Vec<f64> {
            vec![self.ones as f64]
        }

        fn merge(&mut self, other: Self) -> ldp_core::Result<()> {
            self.ones += other.ones;
            self.n += other.n;
            Ok(())
        }
    }

    impl BatchMechanism for CoinMech {
        type Input = f64;
        type Aggregator = CoinAgg;

        fn new_aggregator(&self) -> CoinAgg {
            CoinAgg { ones: 0, n: 0 }
        }

        fn accumulate_batch<R: rand::RngCore>(
            &self,
            inputs: &[f64],
            rng: &mut R,
            agg: &mut CoinAgg,
        ) {
            use rand::Rng;
            for &x in inputs {
                agg.ones += u64::from(rng.gen_bool(x));
                agg.n += 1;
            }
        }
    }

    /// The engine honors the same determinism contract for non-oracle
    /// mechanisms: parallel == sequential, worker count irrelevant,
    /// over a non-`u64` input type.
    #[test]
    fn mech_engine_parallel_bit_identical_to_sequential() {
        let inputs: Vec<f64> = (0..5_000).map(|i| (i % 100) as f64 / 100.0).collect();
        for &shards in &[1usize, 3, 16] {
            let seq = accumulate_mech_sharded_sequential(&CoinMech, &inputs, 5, shards);
            let par = accumulate_mech_sharded(&CoinMech, &inputs, 5, shards);
            assert_eq!(par.ones, seq.ones, "shards={shards}");
            assert_eq!(par.n, seq.n);
            for &workers in &[1usize, 2, 7] {
                let w =
                    accumulate_mech_sharded_with_workers(&CoinMech, &inputs, 5, shards, workers);
                assert_eq!(w.ones, seq.ones, "shards={shards} workers={workers}");
            }
        }
    }
}
