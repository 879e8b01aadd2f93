//! The collector service: the single entry point a deployment exposes.
//!
//! A [`CollectorService`] owns a [`ProtocolDescriptor`] and the matching
//! type-erased aggregator, and ingests **serialized** report frames —
//! `&[u8]` in, estimates out, for any mechanism the backing
//! [`Registry`] can instantiate. This is the client/server seam the
//! deployed systems in the tutorial all share: a versioned protocol
//! config shipped to the fleet, opaque randomized bytes flowing back,
//! and a mergeable server state that shards across collectors.
//!
//! Guarantees:
//!
//! * **Panic-free ingestion** — malformed, truncated, wrong-version, or
//!   wrong-mechanism frames come back as [`LdpError`]s; the aggregate
//!   state is untouched by a rejected frame.
//! * **Bit-identity with the in-process engine** — a population
//!   randomized shard-by-shard with [`WireClient::frames_sharded`],
//!   ingested into per-shard services, and [`CollectorService::merge`]d
//!   in shard order produces estimates bit-identical to
//!   [`crate::parallel::accumulate_mech_sharded`] over the same inputs,
//!   seed, and shard count (the scalar/batch RNG-stream contract plus
//!   exact round-tripping of every report type). The workspace-root
//!   `tests/service_dispatch.rs` enforces this for every registered
//!   kind.
//! * **Mergeable across shards** — services built from equal
//!   descriptors merge; mismatched descriptors are rejected, not
//!   UB'd into a panic deep inside an aggregator.
//!
//! ```
//! use ldp_core::protocol::{MechanismKind, ProtocolDescriptor};
//! use ldp_workloads::service::{CollectorService, WireClient};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // The operator ships one versioned config...
//! let desc = ProtocolDescriptor::builder(MechanismKind::CohortLocalHashing)
//!     .domain_size(64)
//!     .epsilon(2.0)
//!     .cohorts(256)
//!     .build()
//!     .unwrap();
//!
//! // ...clients randomize locally and transmit opaque bytes...
//! let client = WireClient::from_descriptor(&desc).unwrap();
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut wire = Vec::new();
//! for user in 0..2000u64 {
//!     client.randomize_item(user % 64, &mut rng, &mut wire).unwrap();
//! }
//!
//! // ...and the collector folds frames without ever seeing a value.
//! let mut service = CollectorService::from_descriptor(&desc).unwrap();
//! let ingested = service.ingest_concat(&wire).unwrap();
//! assert_eq!(ingested, 2000);
//! assert_eq!(service.reports(), 2000);
//! let estimates = service.estimates();
//! assert_eq!(estimates.len(), 64);
//! ```

use ldp_core::protocol::{ProtocolDescriptor, Registry};
use ldp_core::snapshot::{open_envelope, put_envelope, state_tag};
use ldp_core::wire::{
    next_frame, put_u64_le, put_uvarint, ErasedAggregator, ErasedMechanism, WireReader,
};
use ldp_core::{LdpError, Result};
use rand::RngCore;
use std::sync::Arc;

use crate::parallel::shard_seed;

/// A frame stream stopped at a bad frame: the error that stopped it,
/// plus how many frames before it were **successfully folded in** (the
/// aggregate keeps them), so callers can account for partial batches.
#[derive(Debug)]
pub struct IngestError {
    /// Frames ingested before the failure; the aggregate state includes
    /// exactly these.
    pub ingested: usize,
    /// The error raised by the first bad frame.
    pub source: LdpError,
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ingest stopped after {} frames: {}",
            self.ingested, self.source
        )
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

impl From<IngestError> for LdpError {
    fn from(e: IngestError) -> Self {
        e.source
    }
}

/// A registry with **every** workspace mechanism registered: the eight
/// `ldp-core` oracles plus Apple CMS/HCMS and Microsoft
/// dBitFlip/1BitMean (delegates to [`ldp_planner::workspace_registry`],
/// so the planner plans over exactly this registry).
#[must_use]
pub fn workspace_registry() -> Registry {
    ldp_planner::workspace_registry()
}

// The planner's vocabulary, re-exported where deployments assemble
// their serving stack: `workspace_planner().plan(&spec)` yields
// descriptors that instantiate through this module's `WireClient` /
// `CollectorService` unchanged.
pub use ldp_planner::{workspace_planner, Plan, Planner, QueryShape, WorkloadSpec};

/// The client half of the wire protocol: randomizes private inputs into
/// report frames for the mechanism a descriptor describes.
///
/// In a deployment this object is the piece that ships to devices (its
/// construction is exactly as reproducible as the descriptor); here it
/// also powers tests and benches that need byte-path traffic.
#[derive(Debug)]
pub struct WireClient {
    mech: Box<dyn ErasedMechanism>,
}

impl WireClient {
    /// Builds the client for `descriptor` from the full workspace
    /// registry.
    ///
    /// # Errors
    /// Whatever [`Registry::build`] surfaces.
    pub fn from_descriptor(descriptor: &ProtocolDescriptor) -> Result<Self> {
        Self::with_registry(&workspace_registry(), descriptor)
    }

    /// Builds the client for `descriptor` from a caller-provided
    /// registry.
    ///
    /// # Errors
    /// Whatever [`Registry::build`] surfaces.
    pub fn with_registry(registry: &Registry, descriptor: &ProtocolDescriptor) -> Result<Self> {
        Ok(Self {
            mech: registry.build(descriptor)?,
        })
    }

    /// The descriptor this client randomizes for.
    pub fn descriptor(&self) -> &ProtocolDescriptor {
        self.mech.descriptor()
    }

    /// Randomizes one item input (`value ∈ [0, d)`) and appends its wire
    /// frame to `out`.
    ///
    /// # Errors
    /// [`LdpError`] for out-of-domain values or a mechanism that does
    /// not take item inputs (1BitMean takes reals).
    pub fn randomize_item(
        &self,
        value: u64,
        rng: &mut dyn RngCore,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        self.mech.randomize_item(value, rng, out)
    }

    /// Randomizes one real-valued input (1BitMean) and appends its wire
    /// frame to `out`.
    ///
    /// # Errors
    /// [`LdpError`] for out-of-range values or a mechanism that takes
    /// item inputs.
    pub fn randomize_real(
        &self,
        value: f64,
        rng: &mut dyn RngCore,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        self.mech.randomize_real(value, rng, out)
    }

    /// Randomizes an item population into per-shard frame buffers,
    /// mirroring the sharded engine's plan exactly: shard `i` covers the
    /// same contiguous input range and consumes the RNG stream
    /// `StdRng::seed_from_u64(shard_seed(base_seed, i))` that
    /// [`crate::parallel::accumulate_mech_sharded`] would give it.
    /// Ingesting buffer `i` into the `i`-th of per-shard services and
    /// merging in shard order therefore reproduces the in-process
    /// engine's aggregate bit for bit.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] if `shards == 0`, plus anything
    /// [`Self::randomize_item`] can raise.
    pub fn frames_sharded(
        &self,
        values: &[u64],
        base_seed: u64,
        shards: usize,
    ) -> Result<Vec<Vec<u8>>> {
        let mut buffers = Vec::new();
        self.frames_sharded_into(values, base_seed, shards, &mut buffers)?;
        Ok(buffers)
    }

    /// [`Self::frames_sharded`] into caller-owned buffers: clears and
    /// refills `buffers` (resizing it to the effective shard count) with
    /// byte-identical contents. A client that frames round after round
    /// keeps its per-shard `Vec`s across rounds, so the steady-state
    /// cost is the sampling and the payload writes — not a fresh
    /// multi-megabyte allocation per round, which the system allocator
    /// serves by `mmap` and hands back page-faulting and kernel-zeroed.
    ///
    /// # Errors
    /// As [`Self::frames_sharded`]. On error, `buffers` holds the
    /// shards completed so far (later entries are cleared).
    pub fn frames_sharded_into(
        &self,
        values: &[u64],
        base_seed: u64,
        shards: usize,
        buffers: &mut Vec<Vec<u8>>,
    ) -> Result<()> {
        if shards == 0 {
            return Err(LdpError::InvalidParameter("need at least one shard".into()));
        }
        let shards = shards.min(values.len().max(1));
        let bounds = crate::parallel::shard_bounds(values.len(), shards);
        buffers.resize_with(shards, Vec::new);
        buffers.truncate(shards);
        for buf in buffers.iter_mut() {
            buf.clear();
        }
        // Frames of one mechanism are near-constant-width, so the first
        // shard's measured bytes/frame sizes the remaining buffers up
        // front instead of growing them through doubling copies (a no-op
        // on a reused buffer that already has the room).
        let mut frame_hint = 0usize;
        for (i, (lo, hi)) in bounds.into_iter().enumerate() {
            let buf = &mut buffers[i];
            buf.reserve(frame_hint * (hi - lo));
            self.mech
                .randomize_items_to_frames(&values[lo..hi], shard_seed(base_seed, i), buf)?;
            if i == 0 && hi > lo {
                frame_hint = buf.len().div_ceil(hi - lo);
            }
        }
        Ok(())
    }

    /// Randomizes **one shard's** slice of an item population into
    /// `out`, with the same seed derivation
    /// (`shard_seed(base_seed, shard)`) as
    /// [`Self::frames_sharded`] — the streaming building block: a
    /// driver can generate, submit, and discard one shard's frames at a
    /// time ([`crate::pipeline::stream_population`]) without ever
    /// holding the whole population's frames in memory, and the
    /// concatenation over shards is byte-identical to the all-at-once
    /// call.
    ///
    /// # Errors
    /// As [`Self::frames_sharded`].
    pub fn frames_for_shard(
        &self,
        shard_values: &[u64],
        base_seed: u64,
        shard: usize,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        self.mech
            .randomize_items_to_frames(shard_values, shard_seed(base_seed, shard), out)
    }
}

/// The server half: owns a descriptor plus the matching erased
/// aggregator, ingests serialized report frames, merges across shards,
/// and snapshots estimates. See the module docs for the guarantees.
#[derive(Debug)]
pub struct CollectorService {
    /// Shared by every service [`empty_like`](Self::empty_like) or
    /// [`try_clone`](Self::try_clone) makes from this one.
    mech: Arc<dyn ErasedMechanism>,
    agg: Box<dyn ErasedAggregator>,
}

impl CollectorService {
    /// Builds the service for `descriptor` from the full workspace
    /// registry.
    ///
    /// # Errors
    /// Whatever [`Registry::build`] surfaces (unregistered kind, invalid
    /// parameters).
    pub fn from_descriptor(descriptor: &ProtocolDescriptor) -> Result<Self> {
        Self::with_registry(&workspace_registry(), descriptor)
    }

    /// Builds the service for `descriptor` from a caller-provided
    /// registry.
    ///
    /// # Errors
    /// Whatever [`Registry::build`] surfaces.
    pub fn with_registry(registry: &Registry, descriptor: &ProtocolDescriptor) -> Result<Self> {
        let mech: Arc<dyn ErasedMechanism> = Arc::from(registry.build(descriptor)?);
        let agg = mech.new_erased_aggregator();
        Ok(Self { mech, agg })
    }

    /// An empty service on this service's mechanism: the same
    /// descriptor, with no registry lookup or mechanism build.
    pub(crate) fn empty_like(&self) -> Self {
        Self {
            mech: Arc::clone(&self.mech),
            agg: self.mech.new_erased_aggregator(),
        }
    }

    /// A copy of this service on its mechanism, the aggregate carried
    /// over through its state BLOB.
    ///
    /// # Errors
    /// Whatever [`ErasedAggregator::restore`] refuses of the BLOB this
    /// aggregate wrote (nothing, for a well-behaved aggregator).
    pub(crate) fn try_clone(&self) -> Result<Self> {
        let mut state = Vec::new();
        self.agg.snapshot(&mut state);
        let mut copy = self.empty_like();
        copy.agg.restore(&state)?;
        Ok(copy)
    }

    /// True when both services run on one shared mechanism instance.
    #[cfg(test)]
    pub(crate) fn shares_mechanism(&self, other: &CollectorService) -> bool {
        Arc::ptr_eq(&self.mech, &other.mech)
    }

    /// The descriptor this service aggregates for.
    pub fn descriptor(&self) -> &ProtocolDescriptor {
        self.mech.descriptor()
    }

    /// Ingests exactly one report frame.
    ///
    /// # Errors
    /// Any [`LdpError`] for bytes that are not one well-formed,
    /// current-version frame of this mechanism's report type; the
    /// aggregate state is unchanged on error.
    pub fn ingest(&mut self, frame: &[u8]) -> Result<()> {
        check_one_frame(frame)?;
        self.mech
            .accumulate_concat(self.agg.as_mut(), None, frame)
            .1
    }

    /// Ingests a buffer of back-to-back frames (the batched transport
    /// shape: one network payload carrying many reports), returning how
    /// many frames were folded in. One aggregator downcast per stream,
    /// then the mechanism's own stream fold
    /// ([`ldp_core::wire::WireMechanism::fold_frames`]): a reused
    /// scratch report, or for the unary family the packed counter fold.
    ///
    /// # Errors
    /// Stops at the first bad frame; the [`IngestError`] carries both
    /// the cause and the count of frames before it, which **remain
    /// ingested** (exactly the reports the error-position prefix
    /// carried).
    pub fn ingest_concat(&mut self, stream: &[u8]) -> std::result::Result<usize, IngestError> {
        let (ingested, res) = self.mech.accumulate_concat(self.agg.as_mut(), None, stream);
        into_ingest_result(ingested, res)
    }

    /// Checks the first frame of `stream` as
    /// [`ingest_concat`](Self::ingest_concat) would fold it, on a fresh
    /// aggregator of this service's mechanism: `Ok(())` when that call
    /// would take the frame, otherwise the error it would raise there.
    /// This service is unchanged.
    pub(crate) fn check_first_frame(&self, stream: &[u8]) -> Result<()> {
        let mut end = 0usize;
        let first = match next_frame(stream, &mut end) {
            Ok(_) => &stream[..end],
            Err(_) => stream,
        };
        let mut scratch = self.mech.new_erased_aggregator();
        self.mech.accumulate_concat(scratch.as_mut(), None, first).1
    }

    /// [`ingest_concat`](Self::ingest_concat) into this service **and**
    /// `mirror` at once: each frame is decoded once and folds into both
    /// aggregates (a window and its running total, say), so the two
    /// stay in step without a second pass over the stream.
    ///
    /// # Errors
    /// An [`IngestError`] with `ingested: 0` wrapping
    /// [`LdpError::Malformed`] when the two services were built from
    /// different descriptors, before anything moves. Otherwise as
    /// [`ingest_concat`](Self::ingest_concat): the frames before the bad
    /// one remain ingested in both services, and the bad one in neither.
    pub fn ingest_concat_mirrored(
        &mut self,
        mirror: &mut CollectorService,
        stream: &[u8],
    ) -> std::result::Result<usize, IngestError> {
        if self.descriptor() != mirror.descriptor() {
            return Err(IngestError {
                ingested: 0,
                source: LdpError::Malformed(format!(
                    "mirrored ingest: descriptor mismatch ({} vs {})",
                    self.descriptor().kind().name(),
                    mirror.descriptor().kind().name()
                )),
            });
        }
        let (ingested, res) =
            self.mech
                .accumulate_concat(self.agg.as_mut(), Some(mirror.agg.as_mut()), stream);
        into_ingest_result(ingested, res)
    }

    /// Merges another service's aggregate into this one, as if every
    /// frame it ingested had been ingested here.
    ///
    /// # Errors
    /// [`LdpError::Malformed`] if the two services were built from
    /// different descriptors (mechanism, parameters, or version) — the
    /// descriptor is the compatibility contract.
    pub fn merge(&mut self, other: CollectorService) -> Result<()> {
        if self.descriptor() != other.descriptor() {
            return Err(LdpError::Malformed(format!(
                "merge: descriptor mismatch ({} vs {})",
                self.descriptor().kind().name(),
                other.descriptor().kind().name()
            )));
        }
        self.agg.merge_erased(other.agg)
    }

    /// Retires another service's aggregate from this one — the exact
    /// inverse of [`merge`](Self::merge): if every frame `other`
    /// ingested was also merged here, the state afterwards is
    /// bit-identical to never having merged it. `other` is borrowed, not
    /// consumed, so a refused subtract leaves both services usable (the
    /// window ring falls back to rebuilding its total from live deltas).
    ///
    /// # Errors
    /// [`LdpError::Malformed`] on descriptor mismatch;
    /// [`LdpError::NotSubtractive`] when the mechanism's state has no
    /// exact merge inverse (SHE); [`LdpError::StateMismatch`] when
    /// `other` is not a sub-aggregate of this state. The aggregate is
    /// unchanged on every error.
    pub fn subtract(&mut self, other: &CollectorService) -> Result<()> {
        if self.descriptor() != other.descriptor() {
            return Err(LdpError::Malformed(format!(
                "subtract: descriptor mismatch ({} vs {})",
                self.descriptor().kind().name(),
                other.descriptor().kind().name()
            )));
        }
        self.agg.subtract_erased(other.agg.as_ref())
    }

    /// Number of reports ingested so far.
    pub fn reports(&self) -> usize {
        self.agg.reports()
    }

    /// Snapshot of the unbiased estimates over the mechanism's output
    /// domain (counts per item for frequency oracles, `[mean]` for
    /// 1BitMean).
    #[must_use]
    pub fn estimates(&self) -> Vec<f64> {
        self.agg.estimate()
    }

    /// Snapshot of estimates for a candidate subset.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] for items outside the descriptor's
    /// domain.
    pub fn estimate_items(&self, items: &[u64]) -> Result<Vec<f64>> {
        let d = self.descriptor().domain_size();
        if let Some(&bad) = items.iter().find(|&&v| v >= d) {
            return Err(LdpError::InvalidParameter(format!(
                "item {bad} outside domain of size {d}"
            )));
        }
        Ok(self.agg.estimate_items(items))
    }

    /// Serializes the full service state into one self-describing
    /// checkpoint BLOB:
    ///
    /// ```text
    /// [SNAPSHOT_VERSION] [SERVICE_CHECKPOINT] [uvarint len] [payload]
    /// payload = [uvarint desc_len] [descriptor bytes]
    ///           [u64-LE descriptor stable_hash] [aggregator state BLOB]
    /// ```
    ///
    /// The BLOB carries its own descriptor, so a crashed collector can be
    /// resumed by [`from_checkpoint`](Self::from_checkpoint) with no
    /// out-of-band configuration, and the embedded
    /// [`ProtocolDescriptor::stable_hash`] guards against a descriptor /
    /// state pairing forged or corrupted in storage.
    #[must_use]
    pub fn checkpoint(&self) -> Vec<u8> {
        let desc = self.descriptor().to_bytes();
        let mut out = Vec::with_capacity(desc.len() + 64);
        put_envelope(&mut out, state_tag::SERVICE_CHECKPOINT, |out| {
            put_uvarint(out, desc.len() as u64);
            out.extend_from_slice(&desc);
            put_u64_le(out, self.descriptor().stable_hash());
            self.agg.snapshot(out);
        });
        out
    }

    /// Replaces this service's aggregate with the state in `bytes`
    /// (written by [`checkpoint`](Self::checkpoint) on a service built
    /// from the **same** descriptor).
    ///
    /// # Errors
    /// Any [`LdpError`] for damaged bytes, and
    /// [`LdpError::StateMismatch`] when the checkpoint's descriptor is
    /// not this service's descriptor; the aggregate is unchanged on
    /// error.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<()> {
        let (desc, blob) = parse_checkpoint(bytes)?;
        if &desc != self.descriptor() {
            return Err(LdpError::StateMismatch(format!(
                "checkpoint was taken under a different {} descriptor",
                desc.kind().name()
            )));
        }
        self.agg.restore(blob)
    }

    /// Reconstructs a service — descriptor and aggregate — from a
    /// checkpoint BLOB, using the full workspace registry.
    ///
    /// # Errors
    /// Any [`LdpError`] for damaged bytes, plus whatever
    /// [`Registry::build`] surfaces for the embedded descriptor.
    pub fn from_checkpoint(bytes: &[u8]) -> Result<Self> {
        Self::from_checkpoint_with_registry(&workspace_registry(), bytes)
    }

    /// [`from_checkpoint`](Self::from_checkpoint) against a
    /// caller-provided registry.
    ///
    /// # Errors
    /// As [`from_checkpoint`](Self::from_checkpoint).
    pub fn from_checkpoint_with_registry(registry: &Registry, bytes: &[u8]) -> Result<Self> {
        let (desc, blob) = parse_checkpoint(bytes)?;
        let mut service = Self::with_registry(registry, &desc)?;
        service.agg.restore(blob)?;
        Ok(service)
    }
}

/// Checks that `frame` is exactly one well-formed frame: trailing bytes
/// are [`LdpError::Malformed`].
pub(crate) fn check_one_frame(frame: &[u8]) -> Result<()> {
    let mut pos = 0usize;
    next_frame(frame, &mut pos)?;
    if pos != frame.len() {
        return Err(LdpError::Malformed(format!(
            "{} trailing bytes after frame",
            frame.len() - pos
        )));
    }
    Ok(())
}

/// A stream fold's `(count, outcome)` as an ingest result.
fn into_ingest_result(ingested: usize, res: Result<()>) -> std::result::Result<usize, IngestError> {
    match res {
        Ok(()) => Ok(ingested),
        Err(source) => Err(IngestError { ingested, source }),
    }
}

/// Splits one checkpoint BLOB into its re-validated descriptor and the
/// embedded aggregator state BLOB.
fn parse_checkpoint(bytes: &[u8]) -> Result<(ProtocolDescriptor, &[u8])> {
    let mut pr = WireReader::new(open_envelope(bytes, state_tag::SERVICE_CHECKPOINT)?);
    let desc_len = pr.uvarint()?;
    let desc_len = usize::try_from(desc_len)
        .map_err(|_| LdpError::Malformed(format!("descriptor length {desc_len} overflows")))?;
    let desc = ProtocolDescriptor::from_bytes(pr.bytes(desc_len)?)?;
    let hash = pr.u64_le()?;
    if hash != desc.stable_hash() {
        return Err(LdpError::Malformed(
            "checkpoint descriptor hash does not match its descriptor".into(),
        ));
    }
    let blob = pr.bytes(pr.remaining())?;
    Ok((desc, blob))
}

/// A bounded-fan-in merge tree over [`CollectorService`] checkpoints:
/// the cross-process rollup driver (collector → regional → global) the
/// snapshot layer exists for.
///
/// Every level loads at most `fan_in` checkpoints at a time, merges them
/// (exact integer addition for every mechanism except SHE's real sums),
/// and re-serializes the group's combined state — so a rollup over any
/// number of collector shards runs in `O(fan_in)` live aggregators of
/// memory, and any grouping of the same shards produces bit-identical
/// global estimates (merge associativity, proptested in
/// `tests/service_dispatch.rs`).
pub struct MergeTree {
    registry: Registry,
    fan_in: usize,
}

impl std::fmt::Debug for MergeTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MergeTree")
            .field("fan_in", &self.fan_in)
            .finish_non_exhaustive()
    }
}

impl MergeTree {
    /// A merge tree over the full workspace registry.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] if `fan_in < 2` (a 1-ary "merge"
    /// would never shrink a level).
    pub fn new(fan_in: usize) -> Result<Self> {
        Self::with_registry(workspace_registry(), fan_in)
    }

    /// A merge tree resolving descriptors against `registry`.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] if `fan_in < 2`.
    pub fn with_registry(registry: Registry, fan_in: usize) -> Result<Self> {
        if fan_in < 2 {
            return Err(LdpError::InvalidParameter(format!(
                "merge tree fan-in must be at least 2, got {fan_in}"
            )));
        }
        Ok(Self { registry, fan_in })
    }

    /// Merges one level: each group of up to `fan_in` consecutive
    /// checkpoints becomes one combined checkpoint.
    ///
    /// # Errors
    /// Any [`LdpError`] a checkpoint load or a descriptor-mismatched
    /// merge can raise.
    pub fn merge_level(&self, checkpoints: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
        checkpoints
            .chunks(self.fan_in)
            .map(|group| {
                let mut acc =
                    CollectorService::from_checkpoint_with_registry(&self.registry, &group[0])?;
                for blob in &group[1..] {
                    acc.merge(CollectorService::from_checkpoint_with_registry(
                        &self.registry,
                        blob,
                    )?)?;
                }
                Ok(acc.checkpoint())
            })
            .collect()
    }

    /// Runs [`merge_level`](Self::merge_level) until one checkpoint
    /// remains and loads it as the global service.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] for an empty input, plus anything
    /// [`merge_level`](Self::merge_level) can raise.
    pub fn merge_to_root(&self, checkpoints: &[Vec<u8>]) -> Result<CollectorService> {
        if checkpoints.is_empty() {
            return Err(LdpError::InvalidParameter(
                "merge tree needs at least one checkpoint".into(),
            ));
        }
        let mut level = self.merge_level(checkpoints)?;
        while level.len() > 1 {
            level = self.merge_level(&level)?;
        }
        CollectorService::from_checkpoint_with_registry(&self.registry, &level[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::protocol::MechanismKind;
    use ldp_core::wire::WIRE_VERSION;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn olhc_descriptor(d: u64) -> ProtocolDescriptor {
        ProtocolDescriptor::builder(MechanismKind::CohortLocalHashing)
            .domain_size(d)
            .epsilon(1.0)
            .cohorts(64)
            .build()
            .expect("valid descriptor")
    }

    #[test]
    fn round_trip_through_bytes() {
        let desc = olhc_descriptor(32);
        let client = WireClient::from_descriptor(&desc).unwrap();
        let mut service = CollectorService::from_descriptor(&desc).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut wire = Vec::new();
        for v in 0..500u64 {
            client.randomize_item(v % 32, &mut rng, &mut wire).unwrap();
        }
        assert_eq!(service.ingest_concat(&wire).unwrap(), 500);
        assert_eq!(service.reports(), 500);
        assert_eq!(service.estimates().len(), 32);
    }

    #[test]
    fn malformed_frames_error_and_leave_state_intact() {
        let desc = olhc_descriptor(32);
        let client = WireClient::from_descriptor(&desc).unwrap();
        let mut service = CollectorService::from_descriptor(&desc).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut frame = Vec::new();
        client.randomize_item(5, &mut rng, &mut frame).unwrap();

        // Truncations of a valid frame.
        for cut in 0..frame.len() {
            assert!(service.ingest(&frame[..cut]).is_err(), "cut {cut}");
        }
        // Wrong version byte.
        let mut bad = frame.clone();
        bad[0] = WIRE_VERSION + 1;
        assert!(matches!(
            service.ingest(&bad),
            Err(LdpError::VersionMismatch { .. })
        ));
        // Wrong report type (a GRR frame fed to an OLH-C service).
        let grr = ProtocolDescriptor::builder(MechanismKind::DirectEncoding)
            .domain_size(32)
            .epsilon(1.0)
            .build()
            .unwrap();
        let grr_client = WireClient::from_descriptor(&grr).unwrap();
        let mut foreign = Vec::new();
        grr_client
            .randomize_item(5, &mut rng, &mut foreign)
            .unwrap();
        assert!(matches!(
            service.ingest(&foreign),
            Err(LdpError::ReportTypeMismatch { .. })
        ));
        // Nothing was ingested by any failed call.
        assert_eq!(service.reports(), 0);
        // The original frame still works.
        service.ingest(&frame).unwrap();
        assert_eq!(service.reports(), 1);
    }

    #[test]
    fn frames_sharded_into_matches_allocating_call() {
        let desc = olhc_descriptor(32);
        let client = WireClient::from_descriptor(&desc).unwrap();
        let values: Vec<u64> = (0..200u64).map(|v| v % 32).collect();
        let fresh = client.frames_sharded(&values, 7, 5).unwrap();
        // Reused buffers start dirty and at the wrong count: stale bytes
        // and extra shards must not leak into the refill.
        let mut reused = vec![vec![0xAAu8; 97]; 9];
        client
            .frames_sharded_into(&values, 7, 5, &mut reused)
            .unwrap();
        assert_eq!(reused, fresh);
    }

    #[test]
    fn ingest_concat_reports_partial_count() {
        let desc = olhc_descriptor(32);
        let client = WireClient::from_descriptor(&desc).unwrap();
        let mut service = CollectorService::from_descriptor(&desc).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut wire = Vec::new();
        for v in 0..10u64 {
            client.randomize_item(v, &mut rng, &mut wire).unwrap();
        }
        // Chop the last byte: nine frames fold in, the tenth fails, and
        // the error accounts for the partial batch.
        let err = service.ingest_concat(&wire[..wire.len() - 1]).unwrap_err();
        assert_eq!(err.ingested, 9);
        assert_eq!(service.reports(), 9);
        assert!(matches!(err.source, LdpError::Truncated { .. }));
        // `?`-conversion into the workspace error keeps the cause.
        let as_ldp: LdpError = err.into();
        assert!(matches!(as_ldp, LdpError::Truncated { .. }));
    }

    /// The unary packed lane folds frames in groups of eight; a bad frame
    /// at any position must leave exactly the frames before it folded,
    /// whether it lands mid-group or on a group boundary. d = 100 has a
    /// partial last byte and a partial last word.
    #[test]
    fn packed_lane_partial_batches_match_per_frame_ingest() {
        use ldp_core::wire::{next_frame, tag};
        const D: u64 = 100;
        for kind in [
            MechanismKind::OptimizedUnary,
            MechanismKind::ThresholdHistogram,
        ] {
            let desc = ProtocolDescriptor::builder(kind)
                .domain_size(D)
                .epsilon(1.0)
                .build()
                .unwrap();
            let client = WireClient::from_descriptor(&desc).unwrap();
            let values: Vec<u64> = (0..20).map(|i| (i * 7) % D).collect();
            let mut stream = Vec::new();
            client.frames_for_shard(&values, 5, 0, &mut stream).unwrap();
            let mut frames = Vec::new();
            let mut pos = 0usize;
            while pos < stream.len() {
                let start = pos;
                next_frame(&stream, &mut pos).unwrap();
                frames.push(&stream[start..pos]);
            }
            assert_eq!(frames.len(), 20);
            let mut wide = Vec::new();
            let mut rng = StdRng::seed_from_u64(1);
            let other = ProtocolDescriptor::builder(kind)
                .domain_size(D + 1)
                .epsilon(1.0)
                .build()
                .unwrap();
            WireClient::from_descriptor(&other)
                .unwrap()
                .randomize_item(3, &mut rng, &mut wide)
                .unwrap();
            for name in ["padding", "width", "tag", "truncated"] {
                for k in 0..frames.len() {
                    let mut bad = frames[..k].concat();
                    let mut frame = frames[k].to_vec();
                    match name {
                        "padding" => *frame.last_mut().unwrap() |= 0x80,
                        "width" => frame.clone_from(&wide),
                        "tag" => frame[1] = tag::ITEM,
                        _ => {
                            frame.pop();
                        }
                    }
                    bad.extend_from_slice(&frame);
                    if name != "truncated" {
                        bad.extend_from_slice(&frames[k + 1..].concat());
                    }
                    let mut batched = CollectorService::from_descriptor(&desc).unwrap();
                    let err = batched.ingest_concat(&bad).unwrap_err();
                    assert_eq!(err.ingested, k, "{kind:?} {name} at {k}");
                    let mut one_by_one = CollectorService::from_descriptor(&desc).unwrap();
                    for f in &frames[..k] {
                        one_by_one.ingest(f).unwrap();
                    }
                    assert_eq!(
                        batched.checkpoint(),
                        one_by_one.checkpoint(),
                        "{kind:?} {name} at {k}"
                    );
                }
            }
        }
    }

    /// A mirror built from a different descriptor is refused before
    /// either service moves, even when the two share an aggregator type.
    #[test]
    fn mirrored_ingest_refuses_a_foreign_descriptor_before_anything_moves() {
        let desc = olhc_descriptor(32);
        let client = WireClient::from_descriptor(&desc).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut wire = Vec::new();
        for v in 0..10u64 {
            client.randomize_item(v, &mut rng, &mut wire).unwrap();
        }
        let mut service = CollectorService::from_descriptor(&desc).unwrap();
        let mut foreign = CollectorService::from_descriptor(&olhc_descriptor(64)).unwrap();
        let err = service
            .ingest_concat_mirrored(&mut foreign, &wire)
            .unwrap_err();
        assert_eq!(err.ingested, 0);
        assert!(matches!(err.source, LdpError::Malformed(_)));
        assert_eq!(service.reports(), 0);
        assert_eq!(foreign.reports(), 0);

        // An equal descriptor takes every frame into both.
        let mut mirror = CollectorService::from_descriptor(&desc).unwrap();
        assert_eq!(
            service.ingest_concat_mirrored(&mut mirror, &wire).unwrap(),
            10
        );
        let mut alone = CollectorService::from_descriptor(&desc).unwrap();
        alone.ingest_concat(&wire).unwrap();
        assert_eq!(service.checkpoint(), alone.checkpoint());
        assert_eq!(mirror.checkpoint(), alone.checkpoint());
    }

    #[test]
    fn merge_requires_equal_descriptors() {
        let a = olhc_descriptor(32);
        let b = olhc_descriptor(64);
        let mut sa = CollectorService::from_descriptor(&a).unwrap();
        let sb = CollectorService::from_descriptor(&b).unwrap();
        assert!(sa.merge(sb).is_err());
        let sa2 = CollectorService::from_descriptor(&a).unwrap();
        assert!(sa.merge(sa2).is_ok());
    }

    #[test]
    fn real_input_mechanism_round_trips() {
        let desc = ProtocolDescriptor::builder(MechanismKind::MicrosoftOneBitMean)
            .epsilon(1.0)
            .max_value(100.0)
            .build()
            .unwrap();
        let client = WireClient::from_descriptor(&desc).unwrap();
        let mut service = CollectorService::from_descriptor(&desc).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut wire = Vec::new();
        for i in 0..4000 {
            client
                .randomize_real(50.0 + (i % 10) as f64, &mut rng, &mut wire)
                .unwrap();
        }
        service.ingest_concat(&wire).unwrap();
        let est = service.estimates();
        assert_eq!(est.len(), 1);
        assert!((est[0] - 54.5).abs() < 15.0, "mean estimate {}", est[0]);
        // Out-of-range input is an error, not a panic.
        let mut out = Vec::new();
        assert!(client.randomize_real(101.0, &mut rng, &mut out).is_err());
        // Item inputs don't decode as reals.
        assert!(client.randomize_item(5, &mut rng, &mut out).is_err());
    }

    #[test]
    fn estimate_items_validates_domain() {
        let desc = olhc_descriptor(16);
        let service = CollectorService::from_descriptor(&desc).unwrap();
        assert!(service.estimate_items(&[0, 15]).is_ok());
        assert!(service.estimate_items(&[16]).is_err());
    }
}
