//! Frequency oracles: the protocols behind every deployed LDP system.
//!
//! A *frequency oracle* lets an untrusted aggregator estimate, for any item
//! `v` in a domain of size `d`, how many of `n` users hold `v` — from one
//! privatized report per user. The tutorial's §1.2 presents the deployed
//! systems (RAPPOR, Apple, Microsoft) as engineering around this core
//! primitive, and Wang et al. (USENIX Security 2017) systematized the
//! design space. This module implements that design space:
//!
//! | Mechanism | Module | Descriptor kind ([`crate::protocol::MechanismKind`]) | Report size | `Var*/n` (noise floor, counts) | Randomize cost (uniform draws / user) | Aggregation: memory, full `estimate()` | Snapshot BLOB ([`crate::snapshot`]) |
//! |---|---|---|---|---|---|---|---|
//! | Direct encoding (GRR) | [`direct`] | `DirectEncoding` | `log d` bits | `(d−2+e^ε)/(e^ε−1)²` | `≤ 2` | `O(d)`, `O(d)` | `O(d)` varints |
//! | Symmetric unary (SUE, basic RAPPOR) | [`unary`] | `SymmetricUnary` | `d` bits | `e^{ε/2}/(e^{ε/2}−1)²` | `1 + ≈8.46·⌈d/64⌉` (word-parallel: 8-position prefix + tail) if `d ≥ 64`; else `2 + (d−1)·q` (geometric skip) | `O(d)`, `O(d)` | `O(d)` varints |
//! | Optimized unary (OUE) | [`unary`] | `OptimizedUnary` | `d` bits | `4e^ε/(e^ε−1)²` | `1 + ≈8.46·⌈d/64⌉` (word-parallel: 8-position prefix + tail) if `d ≥ 64`; else `2 + (d−1)·q` (geometric skip) | `O(d)`, `O(d)` | `O(d)` varints |
//! | Summation histogram (SHE) | [`histogram`] | `SummationHistogram` | `d` floats | `8/ε²` | `d` (one batched Laplace block) | `O(d)`, `O(d)` | `8d` B (exact `f64` bits) |
//! | Threshold histogram (THE) | [`histogram`] | `ThresholdHistogram` | `d` bits | optimized numerically | as SUE/OUE (word-parallel from `d = 64`) | `O(d)`, `O(d)` | `O(d)` varints |
//! | Binary local hashing (BLH) | [`hashing`] | — (in-process only) | 64+1 bits | `(e^ε+1)²/(e^ε−1)²` | `≤ 3` | `O(n)`, `O(n·d)` | `≈ 9n` B (report list) |
//! | Optimized local hashing (OLH) | [`hashing`] | — (in-process only) | 64+log g bits | `4e^ε/(e^ε−1)²` | `≤ 3` | `O(n)`, `O(n·d)` | `≈ 9n` B (report list) |
//! | Cohort local hashing (OLH-C) | [`hashing`] | `CohortLocalHashing` | log C + log g bits | `4e^ε/(e^ε−1)²` + collision term | `≤ 3` | `O(C·g)`, `O(C·d)` | `O(C·g)` varints |
//! | Hadamard response (HR) | [`hadamard`] | `HadamardResponse` | log m + 1 bits | `≈4e^ε/(e^ε−1)²` | `2` | `O(m)`, `O(m log m)` (tiled FWHT) | `O(m)` varints |
//! | Subset selection (SS) | [`subset`] | `SubsetSelection` | `k·log d` bits | minimax-optimal | `1 + k` | `O(d)`, `O(d)` | `O(d)` varints |
//! | Apple CMS | `ldp_apple::cms` | `AppleCms` | `m` bits + log k | `≈k·c_ε²·n/m + n/m` (sketch) | `2 + m·q` (geometric skip) | `O(k·m)`, `O(k·d)` | `O(k·m)` varints |
//! | Apple HCMS | `ldp_apple::hcms` | `AppleHcms` | 1 bit + log km | `≈c'_ε²·n + n/m` (sketch) | `3` | `O(k·m)`, `O(k·m log m + k·d)` (decode once, `O(k)`/query) | `O(k·m)` varints |
//! | Microsoft dBitFlip | `ldp_microsoft::dbitflip` | `MicrosoftDBitFlip` | `d·(log k + 1)` bits | `(k/d)·`SUE floor | `≈ d + 2 + d·q` | `O(k)`, `O(k)` | `O(k)` varints |
//! | Microsoft 1BitMean | `ldp_microsoft::onebit` | `MicrosoftOneBitMean` | 1 bit | mean: `max²(e^ε+1)²/4(e^ε−1)²` | `1` | `O(1)`, `O(1)` | `≈ 20` B |
//!
//! The descriptor-kind column is the runtime face: build a
//! [`crate::protocol::ProtocolDescriptor`] with that kind and any
//! workspace registry (`ldp_workloads::service::workspace_registry`)
//! instantiates the mechanism behind the erased wire API
//! ([`crate::wire::ErasedMechanism`]), so a collector service ingests
//! its serialized reports without compile-time knowledge of the type.
//! Raw BLH/OLH have no kind: their `O(n)` report list stays in-process,
//! and OLH-C is local hashing's service face.
//!
//! The randomization-cost column counts uniform RNG draws per report on
//! the batch path. The unary family (`d` bits, one independent Bernoulli
//! per position) never pays `d` draws ([`batch`]): reports of at least
//! one full word (`d ≥ 64`) compare 64 positions per RNG word, settling
//! a word in a fixed 8-draw prefix plus a short tail for the ~1 word in
//! 5 with a lane still open (~8.46 draws whatever `q` is), and shorter
//! ones skip geometrically from one set bit to the next, `2 + (d−1)·q`
//! draws in all. The sampler is fixed per oracle from `d`; SHE is the one
//! mechanism that inherently needs a continuous noise draw per
//! coordinate, so it draws the whole report's uniforms as one block and
//! maps them through a branchless inverse-CDF transform
//! ([`crate::noise::fill_laplace`]) instead of `d` libm `ln` calls.
//! The last four rows are the industrial deployments in `ldp-apple` and
//! `ldp-microsoft`: they use the same geometric-skip sampler and are
//! wired into the same batch engine through [`crate::mech::BatchMechanism`]
//! (CMS flips its `m`-long sign vector at rate `q = 1/(e^{ε/2}+1)` so a
//! fused report costs `O(m·q)` sketch updates, not `O(m)`; dBitFlip
//! samples its `d` buckets by rejection and flips them by skip).
//!
//! The table is the tutorial's punchline: OUE, OLH and HR share the same
//! optimal noise floor, differing only in communication; GRR beats them all
//! when the domain is small (`d < 3e^ε + 2`). Experiment E2 regenerates
//! this comparison. The variance column is documentation, not a second
//! implementation: each formula lives only in that mechanism's
//! [`FrequencyOracle::count_variance`], which the planner's cost models
//! ([`crate::cost`]) also delegate to when ranking plans.
//!
//! ## Aggregation at deployment scale
//!
//! The last column is the server-side story. Every aggregator except raw
//! local hashing keeps a *sufficient statistic* whose size is independent
//! of the report count `n` — which is what makes million-user populations
//! feasible. Raw OLH/BLH is the outlier: it must keep all `n` reports and
//! rescan them per candidate. [`hashing::CohortLocalHashing`] (OLH-C)
//! fixes this RAPPOR-style by drawing each user's hash seed from a public
//! set of `C` cohorts, so the aggregator reduces to a `C×g` count matrix:
//! memory `O(C·g)` instead of `O(n)`, full-domain estimation `O(C·d)`
//! instead of `O(n·d)`. Privacy is unchanged (the seed is public
//! randomness either way); the price is a small extra variance term from
//! shared hash collisions, documented on
//! [`hashing::CohortLocalHashing::count_variance`].
//!
//! All aggregators additionally support [`FoAggregator::merge`], so
//! collection can be sharded across threads or machines and combined —
//! see `ldp_workloads::parallel` for the `std::thread::scope` harness.
//! Merge is fallible and all-or-nothing: an incompatible or overflowing
//! operand is refused with a typed error and the state left unchanged.
//! For every count-based aggregator (all but SHE's float sums and raw
//! local hashing's report list) merge, exact subtract, snapshot and
//! restore live once, in the [`counters`] kernel; the aggregator keeps
//! only its config, its one report fold
//! ([`FoAggregator::try_accumulate`]) and `estimate`.

pub mod batch;
pub mod counters;
pub mod direct;
pub mod hadamard;
pub mod hashing;
pub mod histogram;
pub mod subset;
pub mod unary;

pub use direct::DirectEncoding;
pub use hadamard::HadamardResponse;
pub use hashing::{BinaryLocalHashing, CohortLocalHashing, LocalHashing, OptimizedLocalHashing};
pub use histogram::{SummationHistogramEncoding, ThresholdHistogramEncoding};
pub use subset::SubsetSelection;
pub use unary::{OptimizedUnaryEncoding, SymmetricUnaryEncoding};

use crate::privacy::Epsilon;
use rand::RngCore;

/// A local frequency-estimation protocol: client-side randomization plus a
/// matching server-side aggregator.
///
/// Implementations guarantee:
/// * `randomize` is ε-LDP with `ε = self.epsilon()`;
/// * the aggregator's `estimate()` is unbiased for the true count vector;
/// * `count_variance(n, f)` is the analytical variance of a single item's
///   count estimate when its true relative frequency is `f`.
pub trait FrequencyOracle {
    /// What one client transmits.
    type Report: Clone + std::fmt::Debug;
    /// The matching server-side aggregator.
    type Aggregator: FoAggregator<Report = Self::Report>;

    /// Short mechanism name (e.g. `"OLH"`), for experiment tables.
    fn name(&self) -> &'static str;

    /// Domain size `d`; values are `0..d`.
    fn domain_size(&self) -> u64;

    /// Per-report privacy parameter.
    fn epsilon(&self) -> Epsilon;

    /// Client side: privatize `value ∈ [0, d)`.
    ///
    /// The RNG is generic, so one body serves every caller: the batch
    /// paths monomorphize their per-draw calls, and the erased wire
    /// layer passes `&mut dyn RngCore` as `R`. Either way, a given RNG
    /// state yields the same draws and therefore the same report.
    ///
    /// # Panics
    /// Implementations panic if `value >= domain_size()`.
    fn randomize<R: RngCore + ?Sized>(&self, value: u64, rng: &mut R) -> Self::Report;

    /// Batch client side: privatizes every value in `values`, handing each
    /// report to `sink` **by reference**, in input order.
    ///
    /// The default is the [`randomize`](Self::randomize) loop. An
    /// override must consume **exactly** the same RNG stream as that
    /// loop for a given seed (the bit-identity contract the proptests in
    /// `crates/core/tests/batch_oracles.rs` enforce); the unary family
    /// overrides it to reuse one `BitVec` for the whole batch, which the
    /// by-reference borrow allows. A sink that needs ownership clones.
    ///
    /// # Panics
    /// Panics if any value is `>= domain_size()`.
    fn randomize_batch<R, F>(&self, values: &[u64], rng: &mut R, mut sink: F)
    where
        R: RngCore,
        F: FnMut(&Self::Report),
    {
        for &v in values {
            sink(&self.randomize(v, rng));
        }
    }

    /// Fused batch client+server step: privatizes every value in `values`
    /// and folds the reports into `agg`.
    ///
    /// This is the hot path of sharded collection
    /// (`ldp_workloads::parallel`). The default is
    /// [`randomize_batch`](Self::randomize_batch) feeding
    /// [`FoAggregator::accumulate`]; an oracle overrides it only where it
    /// can skip building a report at all (the unary family adds sampled
    /// set bits straight into the aggregator's `u64` column counters, SS
    /// its sampled items, SHE one reused noise block, CMS and dBitFlip
    /// their flipped cells). Either way the resulting aggregator state is
    /// bit-identical to the scalar `randomize` + [`FoAggregator::accumulate`]
    /// loop with the same RNG seed — same draws, same counters.
    ///
    /// # Panics
    /// Panics if any value is `>= domain_size()`. The overrides also
    /// panic if `agg` was configured for a different oracle instance; the
    /// default panics only when a report does not fit `agg`.
    fn randomize_accumulate_batch<R: RngCore>(
        &self,
        values: &[u64],
        rng: &mut R,
        agg: &mut Self::Aggregator,
    ) {
        self.randomize_batch(values, rng, |r| agg.accumulate(r));
    }

    /// Creates an empty aggregator configured for this oracle instance.
    fn new_aggregator(&self) -> Self::Aggregator;

    /// Analytical variance of the *count* estimate for an item with true
    /// relative frequency `f`, over `n` reports.
    ///
    /// Each implementation is its formula's single home: every other
    /// consumer — the planner's cost models in [`crate::cost`]
    /// included — instantiates the oracle and delegates here rather
    /// than restating the algebra.
    fn count_variance(&self, n: usize, f: f64) -> f64;

    /// The `f → 0` "noise floor" variance Wang et al. use to rank
    /// mechanisms (their `Var*`). This is the quantity the planner's
    /// cost models ([`crate::cost`]) rank plans by.
    fn noise_floor_variance(&self, n: usize) -> f64 {
        self.count_variance(n, 0.0)
    }

    /// Expected report size in bits (communication cost), for the
    /// communication-vs-accuracy tables.
    fn report_bits(&self) -> usize;
}

/// The unary report family (SUE, OUE, THE): oracles whose report is a
/// perturbed `d`-bit one-hot vector, exposing the underlying sampler
/// ([`batch::OneHotSampler`]) directly.
///
/// This is the hook behind the wire layer's fused sampler→frame writer:
/// a consumer that only needs the report's bits (packing them into an
/// outgoing frame buffer, bumping counters) can take them straight from
/// the sampler without materializing a [`ldp_sketch::BitVec`] per report.
///
/// Contract: for a given `value` and RNG state, `sample_words` makes
/// exactly the draws [`FrequencyOracle::randomize`] makes and emits the
/// returned report's words — every word `w ∈ [0, ⌈d/64⌉)` exactly once,
/// in index order, bit `j` of word `w` being position `64·w + j`, and
/// every bit at index `d` or above in the last word 0. That RNG-stream
/// identity keeps every consumer of this sampler bit-identical to the
/// report path.
///
/// The aggregator side of the family is [`PackedOnes`]: one counter per
/// report bit, so the collector folds wire payloads without decoding
/// them into reports.
pub trait SetBitSampler:
    FrequencyOracle<Report = ldp_sketch::BitVec, Aggregator: PackedOnes>
{
    /// Samples one report as whole 64-bit words, invoking
    /// `on_word(w, bits)` for each in index order.
    ///
    /// # Panics
    /// Panics if `value >= domain_size()`.
    fn sample_words<R: RngCore + ?Sized>(
        &self,
        value: u64,
        rng: &mut R,
        on_word: impl FnMut(usize, u64),
    );
}

/// The aggregator of the unary report family: one counter per report
/// bit, fed straight from the reports' wire payloads (little-endian
/// packed bytes) without materializing a [`ldp_sketch::BitVec`] per
/// report.
pub trait PackedOnes {
    /// Folds `(packed bytes, bit width)` payloads in arrival order,
    /// counting groups of eight through a carry-save positional
    /// popcount. Returns how many payloads were folded in, and the
    /// validation error (width, byte count, nonzero padding) of the
    /// first one that did not fit. Payloads are validated before any
    /// counter moves, and the state equals decoding the folded
    /// payloads and calling [`FoAggregator::try_accumulate`] on each.
    ///
    /// # Errors
    /// [`crate::LdpError::Malformed`] for the first payload that does
    /// not fit this aggregator's configuration.
    fn accumulate_packed_batch(
        &mut self,
        payloads: &[(&[u8], usize)],
    ) -> (usize, crate::Result<()>);
}

/// Server-side accumulation and estimation for one [`FrequencyOracle`].
///
/// [`crate::snapshot::StateSnapshot`] is a supertrait: every aggregator
/// must have a durable serialized form, which is what lets collectors
/// checkpoint mid-ingest, ship partial counts to regional mergers, and
/// resume after a crash (`ldp_workloads::service::MergeTree`). The
/// bound is compile-enforced here rather than opt-in so the erased
/// service layer can always snapshot whatever aggregator it holds.
pub trait FoAggregator: crate::snapshot::StateSnapshot {
    /// Report type consumed.
    type Report;

    /// Validates one client report against this aggregator's
    /// configuration and folds it in, returning an error instead of
    /// panicking when the report does not fit (wrong width, out-of-range
    /// bucket or cohort, …). This is the aggregator's one report fold:
    /// [`accumulate`](Self::accumulate) and the default
    /// [`FrequencyOracle::randomize_accumulate_batch`] call it, and the
    /// erased wire layer ([`crate::wire`]) routes every decoded frame
    /// through it, so a collector fed adversarial bytes degrades to
    /// [`crate::LdpError`]s rather than crashing. A refused report
    /// leaves the state unchanged.
    ///
    /// # Errors
    /// [`crate::LdpError::Malformed`] when the report does not fit this
    /// aggregator's configuration.
    fn try_accumulate(&mut self, report: &Self::Report) -> crate::Result<()>;

    /// Folds one client report into the aggregate state: the panicking
    /// face of [`try_accumulate`](Self::try_accumulate), for callers whose
    /// reports come from their own randomizer. Both paths accept and
    /// refuse exactly the same reports.
    ///
    /// # Panics
    /// Panics with `try_accumulate`'s error when the report does not fit
    /// this aggregator's configuration; the state is left unchanged.
    fn accumulate(&mut self, report: &Self::Report) {
        if let Err(e) = self.try_accumulate(report) {
            panic!("{e}");
        }
    }

    /// Number of reports accumulated so far.
    fn reports(&self) -> usize;

    /// Unbiased estimated counts for every item `0..d`.
    fn estimate(&self) -> Vec<f64>;

    /// Unbiased estimated counts for a subset of items — override when a
    /// full-domain sweep would be wasteful (local hashing with massive
    /// domains, as used by prefix-extension heavy hitters; the
    /// one-counter-per-item oracles, which debias only the queried
    /// counters).
    fn estimate_items(&self, items: &[u64]) -> Vec<f64> {
        let all = self.estimate();
        items.iter().map(|&v| all[v as usize]).collect()
    }

    /// Merges another aggregator's state into this one, as if every report
    /// accumulated into `other` had been accumulated here.
    ///
    /// Merging is associative, and for the count-based aggregators (every
    /// oracle except SHE, whose state is floating-point sums subject to
    /// addition reassociation) it reproduces sequential accumulation bit
    /// for bit. That contract is what makes sharded collection safe:
    /// shard-local aggregators built on worker threads (or separate
    /// machines) and merged in shard order yield exactly the estimate a
    /// single sequential pass would have produced. The
    /// `ldp_workloads::parallel` module provides the `std::thread::scope`
    /// harness built on this operation.
    ///
    /// Calls are all-or-nothing: a refused merge leaves `self` unchanged.
    /// The count-based aggregators delegate to [`counters::merge`], which
    /// refuses a counter sum that would wrap (forged or corrupted state)
    /// instead of folding it in.
    ///
    /// # Errors
    /// [`crate::LdpError::StateMismatch`] when `other` was configured
    /// incompatibly (different domain size, bucket count, cohort set, or
    /// channel probabilities); [`crate::LdpError::CounterOverflow`] when
    /// a counter sum would leave its integer range.
    fn merge(&mut self, other: Self) -> crate::Result<()>
    where
        Self: Sized;

    /// Subtracts another aggregator's state from this one — the exact
    /// inverse of [`merge`](Self::merge). When `other`'s reports are a
    /// sub-multiset of the reports folded in here, the state afterwards
    /// is **bit-identical** to an aggregator that accumulated only the
    /// remainder. This is what lets a sliding-window collector retire an
    /// expired window's delta from a running total in `O(state)` instead
    /// of re-merging every live window
    /// (`ldp_workloads::window::WindowRing`).
    ///
    /// Only the count-based aggregators support it: their state is
    /// integer counters, which form a group under `merge`, so the inverse
    /// is exact. The default refuses with
    /// [`crate::LdpError::NotSubtractive`] — the two workspace states
    /// that keep the default are SHE (floating-point sums, for which an
    /// *exact* inverse does not exist under reassociation) and raw local
    /// hashing (a report list records that reports arrived, not which
    /// ones a given window contributed).
    ///
    /// Calls are all-or-nothing: a failed subtract (configuration
    /// mismatch, counter underflow) leaves `self` untouched, so callers
    /// can fall back to a rebuild. The count-based aggregators delegate
    /// to [`counters::subtract`].
    ///
    /// # Errors
    /// [`crate::LdpError::NotSubtractive`] when this aggregator kind has
    /// no exact merge inverse; [`crate::LdpError::StateMismatch`] when
    /// `other` was configured incompatibly or is not a sub-aggregate of
    /// `self` (some counter would underflow).
    fn try_subtract(&mut self, other: &Self) -> crate::Result<()>
    where
        Self: Sized,
    {
        let _ = other;
        Err(crate::LdpError::NotSubtractive(
            "this aggregator's state has no exact merge inverse".into(),
        ))
    }
}

/// The unbiased count estimator shared by every oracle whose state is one
/// counter per item — unary (SUE/OUE), THE, GRR and SS: each counter `c`
/// debiased as `(c − n·q)/(p − q)`, where `p` and `q` are the
/// probabilities that a report counts toward a holder's and a
/// non-holder's cell. Serves both `estimate` (every counter) and
/// `estimate_items` (only the queried counters), so the two agree bit
/// for bit.
pub(crate) fn debiased_counts(
    n: usize,
    p: f64,
    q: f64,
    counts: impl Iterator<Item = u64>,
) -> Vec<f64> {
    let n = n as f64;
    counts.map(|c| (c as f64 - n * q) / (p - q)).collect()
}

/// Asserts that `agg.estimate_items(items)` is bit-identical to picking
/// `items` out of `agg.estimate()`.
#[cfg(test)]
pub(crate) fn assert_point_queries_match_full_estimate(agg: &impl FoAggregator, items: &[u64]) {
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    let full = agg.estimate();
    let picked = items.iter().map(|&v| full[v as usize]).collect();
    assert_eq!(bits(agg.estimate_items(items)), bits(picked));
}

/// Checks one LE-packed bit payload against a counter width: the width
/// itself, the byte count, and zero padding bits.
fn check_packed_ones(width: usize, bytes: &[u8], bits: usize) -> crate::Result<()> {
    if bits != width {
        return Err(crate::LdpError::Malformed(format!(
            "report width {bits} != domain size {width}"
        )));
    }
    if bytes.len() != bits.div_ceil(8) {
        return Err(crate::LdpError::Malformed(format!(
            "bit payload of {} bytes for {bits} bits",
            bytes.len()
        )));
    }
    if !bits.is_multiple_of(8) && bytes[bytes.len() - 1] >> (bits % 8) != 0 {
        return Err(crate::LdpError::Malformed("nonzero padding bits".into()));
    }
    Ok(())
}

/// Adds each set bit of one checked LE-packed payload to its counter,
/// word at a time — the exact state change of decoding the payload into
/// a `BitVec` and accumulating it.
fn add_packed_ones(ones: &mut [u64], bytes: &[u8]) {
    // A plain trailing_zeros/clear-lowest extraction per word: measured
    // against both a two-chain interleaved drain and a branchless
    // bit-spread (`ones[k] += (w >> k) & 1`), the single chain wins at
    // the ~25% bit density the unary mechanisms produce — the extra
    // loop conditions cost more than the dependency chain they hide.
    let mut chunks = bytes.chunks_exact(8);
    let mut base = 0usize;
    for chunk in &mut chunks {
        let mut w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        while w != 0 {
            ones[base + w.trailing_zeros() as usize] += 1;
            w &= w - 1;
        }
        base += 64;
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        let mut w = u64::from_le_bytes(tail);
        while w != 0 {
            ones[base + w.trailing_zeros() as usize] += 1;
            w &= w - 1;
        }
    }
}

/// Full adder over bit-parallel lanes: `(sum, carry)` of three words.
#[inline]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    (u ^ c, (a & b) | (u & c))
}

/// Number of payloads [`accumulate_packed_ones_batch`] reduces through
/// one carry-save popcount group.
pub(crate) const PACKED_BATCH: usize = 8;

/// Shared body of the [`PackedOnes`] implementations: validates every
/// payload up front (so the fold below cannot fail mid-group), then
/// folds groups of [`PACKED_BATCH`] payloads through a carry-save
/// positional popcount — each 64-counter column costs one 3-2 adder
/// tree plus a `trailing_zeros` walk over four count bit-planes, instead
/// of eight separate per-set-bit walks. At the ~25% bit density the
/// unary mechanisms produce, that roughly halves the counter-add work
/// per report. Leftover payloads (and any prefix that precedes an
/// invalid payload) go through the single-report walk.
///
/// Returns `(applied, res)`: the number of payloads folded in, and the
/// first validation error if one did not fit. Counter adds commute, so
/// group order is unobservable.
pub(crate) fn accumulate_packed_ones_batch(
    ones: &mut [u64],
    payloads: &[(&[u8], usize)],
) -> (usize, crate::Result<()>) {
    let width = ones.len();
    let valid = payloads
        .iter()
        .position(|&(bytes, bits)| check_packed_ones(width, bytes, bits).is_err())
        .unwrap_or(payloads.len());
    // One 3-2 adder tree: positional popcount of eight bit rows into
    // four count planes, added into 64 counters at plane weights.
    #[inline]
    fn csa_fold(ones: &mut [u64], base: usize, r: [u64; PACKED_BATCH]) {
        let (s0, c0) = csa(r[0], r[1], r[2]);
        let (s1, c1) = csa(r[3], r[4], r[5]);
        let (s2, c2) = csa(r[6], r[7], s0);
        let (p0, c3) = (s1 ^ s2, s1 & s2);
        let (s3, c4) = csa(c0, c1, c2);
        let (p1, c5) = (s3 ^ c3, s3 & c3);
        let (p2, p3) = (c4 ^ c5, c4 & c5);
        for (mut plane, weight) in [(p0, 1u64), (p1, 2), (p2, 4), (p3, 8)] {
            while plane != 0 {
                ones[base + plane.trailing_zeros() as usize] += weight;
                plane &= plane - 1;
            }
        }
    }
    let full_words = width / 64;
    let mut groups = payloads[..valid].chunks_exact(PACKED_BATCH);
    for group in &mut groups {
        for j in 0..full_words {
            let mut r = [0u64; PACKED_BATCH];
            for (row, &(bytes, _)) in r.iter_mut().zip(group) {
                let chunk: [u8; 8] = bytes[j * 8..j * 8 + 8].try_into().expect("full word");
                *row = u64::from_le_bytes(chunk);
            }
            csa_fold(ones, j * 64, r);
        }
        // Partial trailing word: padding bits are validated zero, so the
        // zero-extended loads keep every plane inside the counter range.
        if !width.is_multiple_of(64) {
            let mut r = [0u64; PACKED_BATCH];
            for (row, &(bytes, _)) in r.iter_mut().zip(group) {
                let rem = &bytes[full_words * 8..];
                let mut tail = [0u8; 8];
                tail[..rem.len()].copy_from_slice(rem);
                *row = u64::from_le_bytes(tail);
            }
            csa_fold(ones, full_words * 64, r);
        }
    }
    for &(bytes, _) in groups.remainder() {
        add_packed_ones(ones, bytes);
    }
    let res = payloads.get(valid).map_or(Ok(()), |&(bytes, bits)| {
        check_packed_ones(width, bytes, bits)
    });
    (valid, res)
}

/// Runs a full collection round: randomizes `values` through `oracle`,
/// aggregates, and returns the estimated count vector. Convenience used by
/// tests, examples, and experiment binaries.
///
/// Rides the fused batch path; since that path consumes the same RNG
/// stream as the scalar loop, results for a fixed seed are unchanged.
pub fn collect_counts<O: FrequencyOracle, R: RngCore>(
    oracle: &O,
    values: &[u64],
    rng: &mut R,
) -> Vec<f64> {
    let mut agg = oracle.new_aggregator();
    oracle.randomize_accumulate_batch(values, rng, &mut agg);
    agg.estimate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// All oracles must produce unbiased estimates on the same workload.
    /// (Each concrete oracle has its own deeper tests in its module; this
    /// is the cross-cutting contract check.)
    #[test]
    fn all_oracles_unbiased_on_small_domain() {
        let eps = Epsilon::new(2.0).unwrap();
        let d = 16u64;
        let n = 30_000usize;
        // Deterministic skewed values: item i with weight ~ 2^{-i/2}.
        let values: Vec<u64> = (0..n).map(|u| (u % 97 % d as usize) as u64).collect();
        let mut truth = vec![0f64; d as usize];
        for &v in &values {
            truth[v as usize] += 1.0;
        }

        macro_rules! check {
            ($oracle:expr, $seed:expr) => {{
                let oracle = $oracle;
                let mut rng = StdRng::seed_from_u64($seed);
                let est = collect_counts(&oracle, &values, &mut rng);
                assert_eq!(est.len(), d as usize);
                for i in 0..d as usize {
                    let sd = oracle
                        .count_variance(n, truth[i] / n as f64)
                        .sqrt()
                        .max(1.0);
                    assert!(
                        (est[i] - truth[i]).abs() < 6.0 * sd,
                        "{} item {i}: est={} truth={} sd={sd}",
                        oracle.name(),
                        est[i],
                        truth[i]
                    );
                }
            }};
        }

        check!(DirectEncoding::new(d, eps).unwrap(), 1);
        check!(SymmetricUnaryEncoding::new(d, eps).unwrap(), 2);
        check!(OptimizedUnaryEncoding::new(d, eps).unwrap(), 3);
        check!(SummationHistogramEncoding::new(d, eps).unwrap(), 4);
        check!(ThresholdHistogramEncoding::new(d, eps).unwrap(), 5);
        check!(BinaryLocalHashing::new(d, eps), 6);
        check!(OptimizedLocalHashing::new(d, eps), 7);
        check!(HadamardResponse::new(d, eps), 8);
        check!(CohortLocalHashing::optimized(d, 512, eps), 9);
    }

    #[test]
    fn noise_floor_ranking_matches_theory() {
        // At eps=1, d=128: OUE/OLH ~ 4e/(e-1)^2 n; GRR ~ (d-2+e)/(e-1)^2 n.
        let eps = Epsilon::new(1.0).unwrap();
        let d = 128;
        let n = 1000;
        let grr = DirectEncoding::new(d, eps).unwrap().noise_floor_variance(n);
        let oue = OptimizedUnaryEncoding::new(d, eps)
            .unwrap()
            .noise_floor_variance(n);
        let olh = OptimizedLocalHashing::new(d, eps).noise_floor_variance(n);
        let sue = SymmetricUnaryEncoding::new(d, eps)
            .unwrap()
            .noise_floor_variance(n);
        assert!(oue < grr, "OUE should beat GRR for large domains");
        assert!(oue < sue, "OUE should beat SUE");
        assert!((oue - olh).abs() / oue < 0.2, "OUE and OLH share the floor");
    }

    #[test]
    fn grr_wins_small_domains() {
        // The crossover: GRR beats OUE iff d < 3 e^eps + 2.
        let eps = Epsilon::new(1.0).unwrap();
        let n = 1000;
        let d_small = 4; // < 3e + 2 ≈ 10.2
        let d_large = 64;
        let grr_s = DirectEncoding::new(d_small, eps)
            .unwrap()
            .noise_floor_variance(n);
        let oue_s = OptimizedUnaryEncoding::new(d_small, eps)
            .unwrap()
            .noise_floor_variance(n);
        assert!(grr_s < oue_s);
        let grr_l = DirectEncoding::new(d_large, eps)
            .unwrap()
            .noise_floor_variance(n);
        let oue_l = OptimizedUnaryEncoding::new(d_large, eps)
            .unwrap()
            .noise_floor_variance(n);
        assert!(oue_l < grr_l);
    }
}
