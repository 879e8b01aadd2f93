//! Event-time sliding windows over the collector service: a ring of
//! per-window aggregate deltas with **subtractive retirement** and
//! rolling longitudinal privacy accounting.
//!
//! The mechanisms the tutorial surveys are framed for one-shot
//! collection, but the deployments it describes live on windows:
//! "popular home pages over the last 24 hours" advancing as traffic
//! streams in. [`WindowRing`] provides that shape on top of the wire
//! service layer:
//!
//! * **One [`CollectorService`] delta per event-time window.** Frames
//!   carry a client event timestamp; `timestamp / window_len` buckets
//!   them into a window. Each window's delta stays sketch-sized — per
//!   PAPERS.md's itemset lower bounds, raw report retention is exactly
//!   what this layer avoids.
//! * **A maintained running total.** Every frame is decoded once and
//!   folds into its window's delta and the total in the same pass, so
//!   the current sliding-window estimate is a read of one aggregator,
//!   not a merge of `W`.
//! * **Retirement by subtraction.** When the ring advances past its
//!   horizon, the expired window's delta is removed from the total with
//!   [`CollectorService::subtract`] — the exact inverse of `merge`, so
//!   for every count-based mechanism the total is **bit-identical** to
//!   one rebuilt from the live windows, at `O(state)` cost instead of
//!   `O(W × state)`. Mechanisms whose state has no exact inverse (SHE's
//!   floating-point sums) refuse with
//!   [`LdpError::NotSubtractive`], and the ring transparently falls
//!   back to the rebuild; [`WindowStats`] records which path ran.
//! * **Optional exponential decay.** With a decay factor `λ`,
//!   [`WindowRing::decayed_estimates`] weights window `w`'s estimate by
//!   `λ^age(w)` — recency weighting without touching the unweighted
//!   total.
//! * **Durability.** The whole ring — configuration, every live delta,
//!   the total, the stats — checkpoints to one versioned BLOB
//!   (`state_tag::WINDOW_RING`) embedding the service layer's own
//!   checkpoints, so a windowed collector restarts exactly where it
//!   crashed.
//!
//! [`LongitudinalAccountant`] completes the longitudinal story: privacy
//! loss under repeated collection composes sequentially, so a device
//! reporting every window spends `ε_window` per window. Deployed systems
//! meter that spend against a per-*period* allowance; the accountant
//! keeps one [`PrivacyBudget`] per device, draws on each charged window,
//! and **releases** charges whose window has aged out of the accounting
//! horizon — the budget-side mirror of the ring's subtractive
//! retirement.
//!
//! # Example
//! ```
//! use ldp_core::protocol::{MechanismKind, ProtocolDescriptor};
//! use ldp_workloads::window::{WindowConfig, WindowRing};
//! use ldp_workloads::WireClient;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let desc = ProtocolDescriptor::builder(MechanismKind::CohortLocalHashing)
//!     .domain_size(64)
//!     .epsilon(2.0)
//!     .cohorts(16)
//!     .build()
//!     .unwrap();
//! let mut ring = WindowRing::new(&desc, WindowConfig::new(3600, 24)).unwrap();
//! let client = WireClient::from_descriptor(&desc).unwrap();
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut frame = Vec::new();
//! for hour in 0..48u64 {
//!     for user in 0..50u64 {
//!         frame.clear();
//!         client.randomize_item(user % 8, &mut rng, &mut frame).unwrap();
//!         ring.ingest(hour * 3600 + user, &frame).unwrap();
//!     }
//! }
//! // 48 hourly windows streamed in; only the last 24 are live.
//! assert_eq!(ring.live_windows(), 24);
//! assert_eq!(ring.reports(), 24 * 50);
//! assert_eq!(ring.stats().retired_subtract, 24);
//! ```

use std::collections::{BTreeMap, VecDeque};

use ldp_core::protocol::ProtocolDescriptor;
use ldp_core::snapshot::{open_envelope, put_envelope, state_tag};
use ldp_core::wire::{next_frame, put_f64_le, put_u64_le, put_uvarint, WireReader};
use ldp_core::{Epsilon, LdpError, PrivacyBudget, Result};

use crate::service::{check_one_frame, CollectorService, IngestError};

/// Configuration of a [`WindowRing`]: event-time bucketing, horizon, and
/// optional decay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowConfig {
    /// Event-time length of one window, in the same unit as the
    /// timestamps passed to [`WindowRing::ingest`] (seconds, for the
    /// `ldp-sim` trace). A frame at time `t` lands in window
    /// `t / window_len`.
    pub window_len: u64,
    /// Number of live windows the ring keeps — the sliding horizon. The
    /// running total always covers exactly the live windows.
    pub windows: usize,
    /// Optional exponential decay factor `λ ∈ (0, 1]` for
    /// [`WindowRing::decayed_estimates`]: window `w` is weighted
    /// `λ^age(w)`, newest window age 0.
    pub decay: Option<f64>,
}

impl WindowConfig {
    /// A config with no decay weighting.
    pub fn new(window_len: u64, windows: usize) -> Self {
        Self {
            window_len,
            windows,
            decay: None,
        }
    }

    /// Adds a decay factor (validated by [`WindowRing::new`]).
    #[must_use]
    pub fn with_decay(mut self, lambda: f64) -> Self {
        self.decay = Some(lambda);
        self
    }

    fn validate(&self) -> Result<()> {
        if self.window_len == 0 {
            return Err(LdpError::InvalidParameter(
                "window_len must be positive".into(),
            ));
        }
        if self.windows == 0 {
            return Err(LdpError::InvalidParameter(
                "ring must keep at least one window".into(),
            ));
        }
        if let Some(lambda) = self.decay {
            if !(lambda > 0.0 && lambda <= 1.0) {
                return Err(LdpError::InvalidParameter(format!(
                    "decay factor must be in (0, 1], got {lambda}"
                )));
            }
        }
        Ok(())
    }
}

/// Counters of what a [`WindowRing`] has done — the observability the
/// retirement cost story needs (how often the `O(state)` subtract ran
/// versus the `O(W × state)` rebuild fallback).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Report frames folded into the ring: each lands in its window
    /// delta and in the running total together, so one count covers
    /// both (absorbed deltas add their reports).
    pub frames_ingested: u64,
    /// Frames (or absorbed delta reports) dropped because their event
    /// time predates the ring's watermark (the oldest live window).
    pub late_dropped: u64,
    /// Windows retired by exact subtraction from the running total.
    pub retired_subtract: u64,
    /// Windows retired through the rebuild fallback (the mechanism's
    /// state refused subtraction, so the total was re-merged from the
    /// live deltas).
    pub retired_rebuild: u64,
    /// Windows dropped wholesale because event time jumped past the
    /// entire horizon (the total resets; nothing to subtract).
    pub retired_wholesale: u64,
}

/// A sliding ring of per-window aggregate deltas plus their running
/// total. See the [module docs](self) for the design.
#[derive(Debug)]
pub struct WindowRing {
    config: WindowConfig,
    /// Live window deltas, oldest first, contiguous in bucket index:
    /// `live[i]` covers bucket `front_bucket + i`.
    live: VecDeque<(u64, CollectorService)>,
    /// Merge of every live delta, maintained incrementally. Its
    /// mechanism is the ring's one mechanism, shared by every window:
    /// windows are opened, reset and copied through it.
    total: CollectorService,
    stats: WindowStats,
}

impl WindowRing {
    /// Builds an empty ring for `descriptor` (via the full workspace
    /// registry).
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] for a bad config, plus whatever
    /// [`CollectorService::from_descriptor`] surfaces for the
    /// descriptor.
    pub fn new(descriptor: &ProtocolDescriptor, config: WindowConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config,
            live: VecDeque::with_capacity(config.windows + 1),
            total: CollectorService::from_descriptor(descriptor)?,
            stats: WindowStats::default(),
        })
    }

    /// The descriptor every window aggregates for.
    pub fn descriptor(&self) -> &ProtocolDescriptor {
        self.total.descriptor()
    }

    /// The ring configuration.
    pub fn config(&self) -> &WindowConfig {
        &self.config
    }

    /// Operation counters so far.
    pub fn stats(&self) -> &WindowStats {
        &self.stats
    }

    /// Number of live windows (0 until the first ingest, then between 1
    /// and `config.windows`).
    pub fn live_windows(&self) -> usize {
        self.live.len()
    }

    /// Bucket index of the newest live window, if any.
    pub fn newest_bucket(&self) -> Option<u64> {
        self.live.back().map(|(b, _)| *b)
    }

    /// Bucket index of the oldest live window — the ring's lateness
    /// watermark — if any.
    pub fn oldest_bucket(&self) -> Option<u64> {
        self.live.front().map(|(b, _)| *b)
    }

    /// Reports currently covered by the running total (the live
    /// windows' reports; retired windows no longer count).
    pub fn reports(&self) -> usize {
        self.total.reports()
    }

    /// Iterates the live window deltas oldest first as
    /// `(bucket, delta)` — per-window drill-down, and the raw material
    /// for verifying the total against a from-scratch rebuild.
    pub fn windows(&self) -> impl Iterator<Item = (u64, &CollectorService)> + '_ {
        self.live.iter().map(|(b, w)| (*b, w))
    }

    /// The maintained running total over the live windows.
    pub fn total(&self) -> &CollectorService {
        &self.total
    }

    /// The window bucket a timestamp falls in.
    pub fn bucket_of(&self, timestamp: u64) -> u64 {
        timestamp / self.config.window_len
    }

    /// Ingests one report frame stamped with its client event time.
    /// Returns `Ok(true)` when folded in, `Ok(false)` when the frame is
    /// **late** — its bucket predates the oldest live window — and was
    /// counted in [`WindowStats::late_dropped`] instead (late data is a
    /// fact of event-time systems, not an error).
    ///
    /// Ingesting may advance the ring: a frame from a new bucket opens
    /// that window (plus empty windows for any skipped buckets) and
    /// retires whatever falls off the horizon. The frame is validated
    /// before event time moves, so a frame the ring refuses opens and
    /// retires nothing. Once `frame` is checked to be exactly one frame,
    /// this is [`ingest_concat`](Self::ingest_concat) on it.
    ///
    /// # Errors
    /// The frame validation errors [`CollectorService::ingest`] raises;
    /// the retirement errors described on [`advance_to`](Self::advance_to).
    /// A frame that errors leaves the ring unchanged.
    pub fn ingest(&mut self, timestamp: u64, frame: &[u8]) -> Result<bool> {
        if self.is_late(self.bucket_of(timestamp)) {
            self.stats.late_dropped += 1;
            return Ok(false);
        }
        check_one_frame(frame)?;
        self.ingest_concat(timestamp, frame)?;
        Ok(true)
    }

    /// Ingests a buffer of back-to-back frames that all share one event
    /// time (the batched transport shape: a collection round's payload
    /// for one window). Returns how many frames were folded in; late
    /// buffers are dropped whole (counted per frame) and return
    /// `Ok(0)`.
    ///
    /// Each frame is decoded once and folds into its window and the
    /// running total together
    /// ([`CollectorService::ingest_concat_mirrored`]).
    ///
    /// A call that folds nothing moves no event time: an empty stream
    /// returns `Ok(0)`, and a stream whose first frame is refused errors,
    /// both with the ring unchanged. (When the call would open a window,
    /// the first frame is checked on a fresh aggregator before the ring
    /// advances.)
    ///
    /// # Errors
    /// Stops at the first bad frame like
    /// [`CollectorService::ingest_concat`]; the frames before it remain
    /// ingested in both the window and the total, and the bad frame is
    /// in neither.
    pub fn ingest_concat(
        &mut self,
        timestamp: u64,
        stream: &[u8],
    ) -> std::result::Result<usize, IngestError> {
        let bucket = self.bucket_of(timestamp);
        if self.is_late(bucket) {
            let frames = count_frames(stream);
            self.stats.late_dropped += frames;
            return Ok(0);
        }
        if stream.is_empty() {
            return Ok(0);
        }
        if self.opens_window(bucket) {
            self.total
                .check_first_frame(stream)
                .map_err(|source| IngestError {
                    ingested: 0,
                    source,
                })?;
        }
        self.advance_to_bucket(bucket)
            .map_err(|source| IngestError {
                ingested: 0,
                source,
            })?;
        let idx = self.live_index(bucket);
        let res = self.live[idx]
            .1
            .ingest_concat_mirrored(&mut self.total, stream);
        self.stats.frames_ingested += match &res {
            Ok(n) => *n,
            Err(e) => e.ingested,
        } as u64;
        res
    }

    /// Absorbs a pre-aggregated window delta — the integration point for
    /// the concurrent collector pipeline, whose `finish()` yields one
    /// [`CollectorService`] per collection round. The delta is merged
    /// into the window covering `timestamp` and into the running total.
    /// Returns `Ok(false)` (counting every report as late-dropped) when
    /// the bucket predates the watermark.
    ///
    /// # Errors
    /// [`LdpError::Malformed`] on descriptor mismatch;
    /// [`LdpError::CounterOverflow`] (a forged delta; neither window nor
    /// total takes it); the retirement errors of [`advance_to`](Self::advance_to).
    pub fn absorb(&mut self, timestamp: u64, delta: CollectorService) -> Result<bool> {
        if delta.descriptor() != self.descriptor() {
            return Err(LdpError::Malformed(format!(
                "absorb: descriptor mismatch ({} vs {})",
                delta.descriptor().kind().name(),
                self.descriptor().kind().name()
            )));
        }
        let bucket = self.bucket_of(timestamp);
        let reports = delta.reports() as u64;
        if self.is_late(bucket) {
            self.stats.late_dropped += reports;
            return Ok(false);
        }
        self.advance_to_bucket(bucket)?;
        let copy = delta.try_clone()?;
        // Total first: a window's counters never exceed the total's, so if
        // the total takes the delta the window cannot refuse it.
        self.total.merge(copy)?;
        let idx = self.live_index(bucket);
        self.live[idx].1.merge(delta)?;
        self.stats.frames_ingested += reports;
        Ok(true)
    }

    /// Advances event time to `timestamp` with no traffic: opens the
    /// window covering it (plus empties for skipped buckets) and retires
    /// everything that falls off the horizon — the call a quiet stream
    /// makes so estimates age out on schedule.
    ///
    /// # Errors
    /// Retirement propagates [`LdpError::StateMismatch`] only if a
    /// retired delta was somehow not a sub-aggregate of the total (an
    /// invariant breach, not a reachable state through this API);
    /// [`LdpError::NotSubtractive`] never escapes — it triggers the
    /// rebuild fallback internally.
    pub fn advance_to(&mut self, timestamp: u64) -> Result<()> {
        let bucket = self.bucket_of(timestamp);
        if !self.is_late(bucket) {
            self.advance_to_bucket(bucket)?;
        }
        Ok(())
    }

    /// Estimates over the mechanism's output domain for the current
    /// sliding window (the running total — one aggregator read).
    pub fn estimates(&self) -> Vec<f64> {
        self.total.estimates()
    }

    /// Estimates for a subset of items, against the running total.
    ///
    /// # Errors
    /// As [`CollectorService::estimate_items`].
    pub fn estimate_items(&self, items: &[u64]) -> Result<Vec<f64>> {
        self.total.estimate_items(items)
    }

    /// Recency-weighted estimates: `Σ_w λ^age(w) · estimate(delta_w)`
    /// over the live windows, newest window age 0. The unweighted
    /// sliding-window estimate stays available via
    /// [`estimates`](Self::estimates); with `λ = 1` the two agree up to
    /// float reassociation (per-window debias sums versus one debiased
    /// total).
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] if the ring was configured without
    /// a decay factor.
    pub fn decayed_estimates(&self) -> Result<Vec<f64>> {
        let lambda = self.config.decay.ok_or_else(|| {
            LdpError::InvalidParameter("ring was configured without a decay factor".into())
        })?;
        let newest = match self.newest_bucket() {
            Some(b) => b,
            None => return Ok(self.total.estimates()),
        };
        let mut acc: Option<Vec<f64>> = None;
        for (bucket, window) in &self.live {
            let age = (newest - bucket) as i32;
            let weight = lambda.powi(age);
            let est = window.estimates();
            match acc.as_mut() {
                None => {
                    let mut first = est;
                    for e in &mut first {
                        *e *= weight;
                    }
                    acc = Some(first);
                }
                Some(a) => {
                    for (x, e) in a.iter_mut().zip(&est) {
                        *x += weight * e;
                    }
                }
            }
        }
        Ok(acc.unwrap_or_else(|| self.total.estimates()))
    }

    /// Serializes the whole ring — config, stats, every live delta, the
    /// running total — into one versioned BLOB
    /// (`state_tag::WINDOW_RING`) built from embedded
    /// [`CollectorService::checkpoint`] BLOBs.
    #[must_use]
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_envelope(&mut out, state_tag::WINDOW_RING, |out| {
            put_u64_le(out, self.config.window_len);
            put_uvarint(out, self.config.windows as u64);
            match self.config.decay {
                Some(lambda) => {
                    out.push(1);
                    put_f64_le(out, lambda);
                }
                None => out.push(0),
            }
            put_u64_le(out, self.stats.frames_ingested);
            put_u64_le(out, self.stats.late_dropped);
            put_u64_le(out, self.stats.retired_subtract);
            put_u64_le(out, self.stats.retired_rebuild);
            put_u64_le(out, self.stats.retired_wholesale);
            put_uvarint(out, self.live.len() as u64);
            for (bucket, window) in &self.live {
                put_u64_le(out, *bucket);
                let blob = window.checkpoint();
                put_uvarint(out, blob.len() as u64);
                out.extend_from_slice(&blob);
            }
            let blob = self.total.checkpoint();
            put_uvarint(out, blob.len() as u64);
            out.extend_from_slice(&blob);
        });
        out
    }

    /// Reconstructs a ring from a [`checkpoint`](Self::checkpoint)
    /// BLOB, re-validating structure, configuration, window contiguity,
    /// and the total-covers-live-windows invariant — damaged or forged
    /// bytes degrade to errors, never a panic.
    ///
    /// # Errors
    /// Any [`LdpError`] for damaged bytes, foreign versions or tags, a
    /// config that fails validation, embedded checkpoints with
    /// mismatched descriptors, non-contiguous window buckets, or a total
    /// whose report count disagrees with the live windows.
    pub fn from_checkpoint(bytes: &[u8]) -> Result<Self> {
        let mut pr = WireReader::new(open_envelope(bytes, state_tag::WINDOW_RING)?);
        let window_len = pr.u64_le()?;
        let windows = usize::try_from(pr.uvarint()?)
            .map_err(|_| LdpError::Malformed("ring window count overflows".into()))?;
        let decay = match pr.u8()? {
            0 => None,
            1 => Some(pr.f64_le()?),
            other => {
                return Err(LdpError::Malformed(format!(
                    "ring decay flag must be 0 or 1, got {other}"
                )))
            }
        };
        let config = WindowConfig {
            window_len,
            windows,
            decay,
        };
        config.validate()?;
        let stats = WindowStats {
            frames_ingested: pr.u64_le()?,
            late_dropped: pr.u64_le()?,
            retired_subtract: pr.u64_le()?,
            retired_rebuild: pr.u64_le()?,
            retired_wholesale: pr.u64_le()?,
        };
        let live_count = usize::try_from(pr.uvarint()?)
            .map_err(|_| LdpError::Malformed("ring live-window count overflows".into()))?;
        if live_count > windows {
            return Err(LdpError::Malformed(format!(
                "ring checkpoint carries {live_count} live windows but a horizon of {windows}"
            )));
        }
        // The first embedded checkpoint builds the ring's one mechanism;
        // every later one is restored onto it, in blob order, so a
        // damaged blob fails where it did when each built its own.
        let mut live = VecDeque::with_capacity(windows + 1);
        let mut live_reports = 0usize;
        for i in 0..live_count {
            let bucket = pr.u64_le()?;
            if let Some(&(front, _)) = live.front() {
                if bucket != front + i as u64 {
                    return Err(LdpError::Malformed(
                        "ring checkpoint windows are not contiguous".into(),
                    ));
                }
            }
            let blob_len = usize::try_from(pr.uvarint()?)
                .map_err(|_| LdpError::Malformed("window checkpoint length overflows".into()))?;
            let window = restore_on(live.front().map(|(_, w)| w), pr.bytes(blob_len)?)?;
            live_reports += window.reports();
            live.push_back((bucket, window));
        }
        let blob_len = usize::try_from(pr.uvarint()?)
            .map_err(|_| LdpError::Malformed("total checkpoint length overflows".into()))?;
        let total = restore_on(live.front().map(|(_, w)| w), pr.bytes(blob_len)?)?;
        pr.finish()?;

        if total.reports() != live_reports {
            return Err(LdpError::StateMismatch(format!(
                "ring total covers {} reports but live windows carry {live_reports}",
                total.reports()
            )));
        }
        Ok(Self {
            config,
            live,
            total,
            stats,
        })
    }

    /// Replaces this ring's state with a checkpoint taken from a ring
    /// with the **same** descriptor and configuration.
    ///
    /// # Errors
    /// As [`from_checkpoint`](Self::from_checkpoint), plus
    /// [`LdpError::StateMismatch`] when descriptor or config differ; the
    /// ring is unchanged on error.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<()> {
        let other = Self::from_checkpoint(bytes)?;
        if other.descriptor() != self.descriptor() {
            return Err(LdpError::StateMismatch(
                "ring checkpoint was taken under a different descriptor".into(),
            ));
        }
        if other.config != self.config {
            return Err(LdpError::StateMismatch(
                "ring checkpoint was taken under a different window configuration".into(),
            ));
        }
        *self = other;
        Ok(())
    }

    /// True when `bucket` predates the oldest live window (the ring's
    /// monotone watermark).
    fn is_late(&self, bucket: u64) -> bool {
        matches!(self.oldest_bucket(), Some(front) if bucket < front)
    }

    /// True when ingesting at `bucket` would open a window: the ring is
    /// empty or `bucket` is past the newest live window.
    fn opens_window(&self, bucket: u64) -> bool {
        self.newest_bucket().is_none_or(|newest| bucket > newest)
    }

    /// Index of `bucket` in the contiguous live deque. Callers advance
    /// first, so the bucket is always present.
    fn live_index(&self, bucket: u64) -> usize {
        let front = self.live.front().map(|(b, _)| *b).expect("ring advanced");
        (bucket - front) as usize
    }

    /// Opens windows up to and including `bucket`, retiring everything
    /// that falls off the horizon. `bucket` is never late here (callers
    /// check the watermark first).
    fn advance_to_bucket(&mut self, bucket: u64) -> Result<()> {
        let newest = match self.newest_bucket() {
            None => {
                self.live.push_back((bucket, self.total.empty_like()));
                return Ok(());
            }
            Some(b) => b,
        };
        if bucket <= newest {
            return Ok(());
        }
        if bucket - newest > self.config.windows as u64 {
            // Event time jumped past the whole horizon: every live
            // window expires at once, so drop them wholesale and restart
            // the total from empty — nothing to subtract. Empty windows
            // are opened back to `bucket − windows + 1` so the watermark
            // lands exactly where the incremental path would put it:
            // in-horizon-but-older traffic after a quiet gap is still
            // accepted, not dropped as late.
            self.stats.retired_wholesale += self.live.len() as u64;
            self.live.clear();
            self.total = self.total.empty_like();
            let start = bucket.saturating_sub(self.config.windows as u64 - 1);
            for b in start..=bucket {
                self.live.push_back((b, self.total.empty_like()));
            }
            return Ok(());
        }
        for b in newest + 1..=bucket {
            self.live.push_back((b, self.total.empty_like()));
            while self.live.len() > self.config.windows {
                self.retire_front()?;
            }
        }
        Ok(())
    }

    /// Retires the oldest live window: exact subtraction from the total
    /// when the mechanism supports it, rebuild fallback when it refuses.
    fn retire_front(&mut self) -> Result<()> {
        let (_, window) = self.live.pop_front().expect("ring has a window to retire");
        if window.reports() == 0 {
            // An empty delta is trivially subtractable (it changes no
            // counter), including from states that refuse subtraction.
            self.stats.retired_subtract += 1;
            return Ok(());
        }
        match self.total.subtract(&window) {
            Ok(()) => {
                self.stats.retired_subtract += 1;
                Ok(())
            }
            Err(LdpError::NotSubtractive(_)) => {
                self.rebuild_total()?;
                self.stats.retired_rebuild += 1;
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Rebuilds the running total by re-merging every live delta in
    /// bucket order (the deterministic fallback for non-subtractive
    /// states; `O(W × state)` where the subtract path is `O(state)`).
    fn rebuild_total(&mut self) -> Result<()> {
        let mut total = self.total.empty_like();
        for (_, window) in &self.live {
            total.merge(window.try_clone()?)?;
        }
        self.total = total;
        Ok(())
    }
}

/// Restores an embedded service checkpoint onto `first`'s mechanism
/// ([`CollectorService::restore`], which refuses a checkpoint taken
/// under another descriptor with [`LdpError::StateMismatch`]), or builds
/// the mechanism from the checkpoint when there is no `first` yet.
fn restore_on(first: Option<&CollectorService>, blob: &[u8]) -> Result<CollectorService> {
    match first {
        Some(first) => {
            let mut service = first.empty_like();
            service.restore(blob)?;
            Ok(service)
        }
        None => CollectorService::from_checkpoint(blob),
    }
}

/// Counts the frames in a concatenated stream without decoding payloads
/// (frame headers are self-delimiting); damaged tails count as one
/// frame, matching where `ingest_concat` would stop.
fn count_frames(stream: &[u8]) -> u64 {
    let mut pos = 0usize;
    let mut frames = 0u64;
    while pos < stream.len() {
        match next_frame(stream, &mut pos) {
            Ok(_) => frames += 1,
            Err(_) => return frames + 1,
        }
    }
    frames
}

/// Per-device longitudinal privacy accounting over a rolling window
/// horizon: one [`PrivacyBudget`] per device, charged `ε_window` per
/// contributed window, with charges **released** once their window ages
/// out of the horizon — the accounting mirror of the ring's subtractive
/// retirement. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct LongitudinalAccountant {
    per_window: Epsilon,
    horizon: u64,
    allowance: Epsilon,
    devices: BTreeMap<u64, DeviceLedger>,
}

#[derive(Debug, Clone)]
struct DeviceLedger {
    budget: PrivacyBudget,
    /// Buckets this device has been charged for, oldest first.
    charged: VecDeque<u64>,
}

impl LongitudinalAccountant {
    /// Builds an accountant enforcing "at most `allowance` of ε spent
    /// within any `horizon` consecutive windows, at `per_window` per
    /// contributed window" for every device.
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] if `horizon` is zero or a single
    /// window's charge already exceeds the allowance.
    pub fn new(allowance: Epsilon, per_window: Epsilon, horizon: usize) -> Result<Self> {
        if horizon == 0 {
            return Err(LdpError::InvalidParameter(
                "accounting horizon must cover at least one window".into(),
            ));
        }
        if per_window.value() > allowance.value() + 1e-9 {
            return Err(LdpError::InvalidParameter(format!(
                "per-window charge {per_window} exceeds the allowance {allowance}"
            )));
        }
        Ok(Self {
            per_window,
            horizon: horizon as u64,
            allowance,
            devices: BTreeMap::new(),
        })
    }

    /// Charges `device` for contributing to window `bucket`. Charging is
    /// idempotent per `(device, bucket)` — Microsoft-style memoized
    /// clients send one randomized answer per window, so a repeat charge
    /// is the same disclosure, not a new one. Charges may arrive out of
    /// event-time order: the ring's watermark admits any in-horizon
    /// bucket, not just monotone ones, so the accountant does too. The
    /// rolling horizon is anchored at the newest bucket the device has
    /// been charged for (or `bucket`, if newer); before drawing, charges
    /// that have scrolled out of it are released back to the device's
    /// budget, and a `bucket` that itself predates the whole horizon is
    /// a budget no-op — its charge would be released in the same breath.
    ///
    /// # Errors
    /// [`LdpError::BudgetExhausted`] when the device's rolling spend
    /// cannot absorb another window — the caller should skip (not
    /// collect) this device for this window. No charge is recorded
    /// (charges that had already scrolled out of the horizon are still
    /// released), and a never-charged device gains no ledger.
    pub fn try_charge(&mut self, device: u64, bucket: u64) -> Result<()> {
        if !self.devices.contains_key(&device) {
            // First charge: `new` guarantees one window's charge fits a
            // fresh allowance, and drawing before inserting means a
            // failed draw can never invent a zero-charge device.
            let mut budget = PrivacyBudget::new(self.allowance);
            budget.draw(self.per_window.value())?;
            self.devices.insert(
                device,
                DeviceLedger {
                    budget,
                    charged: VecDeque::from([bucket]),
                },
            );
            return Ok(());
        }
        let ledger = self.devices.get_mut(&device).expect("device has a ledger");
        if ledger.charged.contains(&bucket) {
            return Ok(());
        }
        let newest = ledger.charged.back().map_or(bucket, |&b| b.max(bucket));
        let oldest_in_horizon = newest.saturating_sub(self.horizon - 1);
        while matches!(ledger.charged.front(), Some(&b) if b < oldest_in_horizon) {
            ledger.charged.pop_front();
            ledger
                .budget
                .release(self.per_window.value())
                .expect("released charge was drawn");
        }
        if bucket < oldest_in_horizon {
            return Ok(());
        }
        ledger.budget.draw(self.per_window.value())?;
        // Keep `charged` sorted so horizon releases pop oldest-first
        // even when in-horizon charges arrived out of order.
        let pos = ledger.charged.partition_point(|&b| b < bucket);
        ledger.charged.insert(pos, bucket);
        Ok(())
    }

    /// ε the device is currently spending inside its rolling horizon
    /// (0 for devices never charged).
    pub fn spent(&self, device: u64) -> f64 {
        self.devices.get(&device).map_or(0.0, |l| l.budget.spent())
    }

    /// Devices with at least one charge on record.
    pub fn devices(&self) -> usize {
        self.devices.len()
    }

    /// The per-device allowance this accountant enforces.
    pub fn allowance(&self) -> Epsilon {
        self.allowance
    }

    /// The ε charged per contributed window.
    pub fn per_window(&self) -> Epsilon {
        self.per_window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::WireClient;
    use ldp_core::protocol::{MechanismKind, ProtocolDescriptor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn olhc_descriptor(d: u64) -> ProtocolDescriptor {
        ProtocolDescriptor::builder(MechanismKind::CohortLocalHashing)
            .domain_size(d)
            .epsilon(2.0)
            .cohorts(32)
            .build()
            .unwrap()
    }

    fn she_descriptor(d: u64) -> ProtocolDescriptor {
        ProtocolDescriptor::builder(MechanismKind::SummationHistogram)
            .domain_size(d)
            .epsilon(1.0)
            .build()
            .unwrap()
    }

    /// Frames for `count` reports at one event time, as one stream.
    fn stream(client: &WireClient, rng: &mut StdRng, d: u64, count: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..count {
            client.randomize_item(i as u64 % d, rng, &mut out).unwrap();
        }
        out
    }

    #[test]
    fn ring_buckets_by_event_time_and_retires() {
        let desc = olhc_descriptor(16);
        let client = WireClient::from_descriptor(&desc).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut ring = WindowRing::new(&desc, WindowConfig::new(10, 3)).unwrap();

        for t in [0u64, 11, 22, 33, 44] {
            let s = stream(&client, &mut rng, 16, 5);
            assert_eq!(ring.ingest_concat(t, &s).unwrap(), 5);
        }
        // 5 buckets seen, horizon 3: buckets 2, 3, 4 live.
        assert_eq!(ring.live_windows(), 3);
        assert_eq!(ring.oldest_bucket(), Some(2));
        assert_eq!(ring.newest_bucket(), Some(4));
        assert_eq!(ring.reports(), 15);
        assert_eq!(ring.stats().retired_subtract, 2);
        assert_eq!(ring.stats().retired_rebuild, 0);
        assert_eq!(ring.stats().frames_ingested, 25);
    }

    #[test]
    fn retired_total_is_bit_identical_to_rebuild() {
        let desc = olhc_descriptor(32);
        let client = WireClient::from_descriptor(&desc).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let mut ring = WindowRing::new(&desc, WindowConfig::new(100, 4)).unwrap();

        for t in (0..12u64).map(|i| i * 100 + 7) {
            let s = stream(&client, &mut rng, 32, 20);
            ring.ingest_concat(t, &s).unwrap();
        }
        // Rebuild the total from the live windows and compare state
        // BLOBs: subtraction must be the exact inverse of merge.
        let mut rebuilt = CollectorService::from_descriptor(&desc).unwrap();
        for i in 0..ring.live_windows() {
            let (_, w) = &ring.live[i];
            rebuilt
                .merge(CollectorService::from_checkpoint(&w.checkpoint()).unwrap())
                .unwrap();
        }
        assert_eq!(ring.total.checkpoint(), rebuilt.checkpoint());
        assert!(ring.stats().retired_subtract >= 8);
    }

    #[test]
    fn she_falls_back_to_rebuild_and_stays_consistent() {
        let desc = she_descriptor(8);
        let client = WireClient::from_descriptor(&desc).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let mut ring = WindowRing::new(&desc, WindowConfig::new(10, 2)).unwrap();

        for t in [5u64, 15, 25, 35] {
            let mut s = Vec::new();
            for i in 0..6u64 {
                client.randomize_item(i % 8, &mut rng, &mut s).unwrap();
            }
            ring.ingest_concat(t, &s).unwrap();
        }
        // Two retirements, both through the rebuild path.
        assert_eq!(ring.stats().retired_rebuild, 2);
        assert_eq!(ring.stats().retired_subtract, 0);
        assert_eq!(ring.reports(), 12);
        // SHE sums are floats, so the total matches a fresh merge of the
        // live windows only up to reassociation — the whole reason this
        // state refuses subtraction and takes the rebuild path.
        let mut rebuilt = CollectorService::from_descriptor(&desc).unwrap();
        for i in 0..ring.live_windows() {
            let (_, w) = &ring.live[i];
            rebuilt
                .merge(CollectorService::from_checkpoint(&w.checkpoint()).unwrap())
                .unwrap();
        }
        assert_eq!(rebuilt.reports(), ring.reports());
        for (a, b) in ring.estimates().iter().zip(rebuilt.estimates()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn late_frames_drop_against_the_watermark() {
        let desc = olhc_descriptor(16);
        let client = WireClient::from_descriptor(&desc).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut ring = WindowRing::new(&desc, WindowConfig::new(10, 2)).unwrap();

        for t in [0u64, 10, 20] {
            let s = stream(&client, &mut rng, 16, 3);
            ring.ingest_concat(t, &s).unwrap();
        }
        // Bucket 0 retired; its time range is now late.
        let mut frame = Vec::new();
        client.randomize_item(1, &mut rng, &mut frame).unwrap();
        assert!(!ring.ingest(5, &frame).unwrap());
        assert_eq!(ring.stats().late_dropped, 1);
        // In-horizon out-of-order ingest still lands.
        assert!(ring.ingest(12, &frame).unwrap());
        assert_eq!(ring.reports(), 7);
    }

    #[test]
    fn horizon_jump_resets_wholesale() {
        let desc = olhc_descriptor(16);
        let client = WireClient::from_descriptor(&desc).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let mut ring = WindowRing::new(&desc, WindowConfig::new(10, 3)).unwrap();

        for t in [0u64, 10, 20] {
            let s = stream(&client, &mut rng, 16, 4);
            ring.ingest_concat(t, &s).unwrap();
        }
        let s = stream(&client, &mut rng, 16, 4);
        ring.ingest_concat(1_000_000, &s).unwrap();
        assert_eq!(ring.stats().retired_wholesale, 3);
        // The reset opens empty windows back to the watermark the
        // incremental path would have produced, so the horizon is full
        // and in-horizon-but-older traffic still lands.
        assert_eq!(ring.live_windows(), 3);
        assert_eq!(ring.oldest_bucket(), Some(100_000 - 2));
        assert_eq!(ring.reports(), 4);
        let mut frame = Vec::new();
        client.randomize_item(2, &mut rng, &mut frame).unwrap();
        assert!(ring.ingest((100_000 - 1) * 10, &frame).unwrap());
        assert_eq!(ring.reports(), 5);
        assert_eq!(ring.stats().late_dropped, 0);
    }

    #[test]
    fn concat_error_keeps_window_and_total_in_step() {
        let desc = olhc_descriptor(16);
        let client = WireClient::from_descriptor(&desc).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let mut ring = WindowRing::new(&desc, WindowConfig::new(10, 3)).unwrap();

        // Two good frames followed by a corrupt tail: the window and
        // the total must both keep exactly the two-frame prefix, so the
        // total still equals the merge of the live windows.
        let mut s = stream(&client, &mut rng, 16, 2);
        s.extend_from_slice(&[0xff, 0xff, 0xff]);
        let err = ring.ingest_concat(5, &s).unwrap_err();
        assert_eq!(err.ingested, 2);
        assert_eq!(ring.stats().frames_ingested, 2);
        assert_eq!(ring.reports(), 2);
        let (_, window) = &ring.live[0];
        assert_eq!(window.reports(), 2);
        assert_eq!(ring.total.checkpoint(), window.checkpoint());

        // The ring stays fully usable: a later clean stream round-trips
        // through checkpoint validation (which enforces the
        // total-covers-live-windows invariant).
        let s = stream(&client, &mut rng, 16, 3);
        assert_eq!(ring.ingest_concat(15, &s).unwrap(), 3);
        assert_eq!(ring.reports(), 5);
        let revived = WindowRing::from_checkpoint(&ring.checkpoint()).unwrap();
        assert_eq!(revived.reports(), 5);
    }

    /// The merge of the ring's live windows, as a checkpoint.
    fn merged_windows(ring: &WindowRing) -> Vec<u8> {
        let mut merged = CollectorService::from_descriptor(ring.descriptor()).unwrap();
        for (_, w) in ring.windows() {
            merged
                .merge(CollectorService::from_checkpoint(&w.checkpoint()).unwrap())
                .unwrap();
        }
        merged.checkpoint()
    }

    /// A bad frame at any position of a stream leaves exactly the frames
    /// before it in the window and in the total, for the default fold
    /// (OLH-C) and the unary packed lane (OUE at d = 100: a partial last
    /// byte and a partial last word, and groups of eight cut anywhere).
    #[test]
    fn ring_partial_batches_keep_window_and_total_in_step() {
        use ldp_core::wire::{encode_report_vec, next_frame, tag, CohortLhReport};
        let olhc = olhc_descriptor(64);
        let oue = ProtocolDescriptor::builder(MechanismKind::OptimizedUnary)
            .domain_size(100)
            .epsilon(1.0)
            .build()
            .unwrap();
        // Out-of-range reports: a cohort past the descriptor's 32, and a
        // bit vector one bit too wide.
        let cohort_out = encode_report_vec(&CohortLhReport {
            cohort: 32,
            bucket: 0,
        });
        let wide_desc = ProtocolDescriptor::builder(MechanismKind::OptimizedUnary)
            .domain_size(101)
            .epsilon(1.0)
            .build()
            .unwrap();
        let mut too_wide = Vec::new();
        WireClient::from_descriptor(&wide_desc)
            .unwrap()
            .randomize_item(3, &mut StdRng::seed_from_u64(1), &mut too_wide)
            .unwrap();
        let cases = [
            (olhc, cohort_out, &["tag", "truncated", "range"][..]),
            (oue, too_wide, &["tag", "truncated", "range", "padding"][..]),
        ];
        for (desc, out_of_range, corruptions) in cases {
            let kind = desc.kind();
            let client = WireClient::from_descriptor(&desc).unwrap();
            let d = desc.domain_size();
            let values: Vec<u64> = (0..20).map(|i| (i * 7) % d).collect();
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
            let mut warm = Vec::new();
            client.frames_for_shard(&values, 6, 0, &mut warm).unwrap();
            for &name in corruptions {
                for k in 0..frames.len() {
                    let mut frame = frames[k].to_vec();
                    match name {
                        "tag" => frame[1] = tag::ITEM_SET,
                        "truncated" => {
                            frame.pop();
                        }
                        "range" => frame.clone_from(&out_of_range),
                        _ => *frame.last_mut().unwrap() |= 0x80,
                    }
                    let mut bad = frames[..k].concat();
                    bad.extend_from_slice(&frame);
                    if name != "truncated" {
                        bad.extend_from_slice(&frames[k + 1..].concat());
                    }
                    let ctx = format!("{kind:?} {name} at {k}");

                    // An earlier window already holds 20 reports.
                    let mut ring = WindowRing::new(&desc, WindowConfig::new(10, 3)).unwrap();
                    assert_eq!(ring.ingest_concat(5, &warm).unwrap(), 20);
                    let before = ring.stats().frames_ingested;
                    let unmoved = ring.checkpoint();
                    let err = ring.ingest_concat(15, &bad).unwrap_err();
                    assert_eq!(err.ingested, k, "{ctx}");
                    assert_eq!(ring.stats().frames_ingested - before, k as u64, "{ctx}");
                    if k == 0 {
                        // Nothing folded, so the second window never opened,
                        // and the bad frame alone does not open it either.
                        assert_eq!(ring.checkpoint(), unmoved, "{ctx}");
                        assert!(ring.ingest(15, &frame).is_err(), "{ctx}");
                        assert_eq!(ring.checkpoint(), unmoved, "{ctx}");
                        continue;
                    }

                    let mut alone = CollectorService::from_descriptor(&desc).unwrap();
                    assert_eq!(alone.ingest_concat(&frames[..k].concat()).unwrap(), k);
                    let (bucket, window) = ring.windows().last().unwrap();
                    assert_eq!(bucket, 1, "{ctx}");
                    assert_eq!(window.checkpoint(), alone.checkpoint(), "{ctx}");
                    assert_eq!(ring.total().checkpoint(), merged_windows(&ring), "{ctx}");

                    // The same bad frame alone moves neither aggregate.
                    let snapshot = ring.checkpoint();
                    assert!(ring.ingest(15, &frame).is_err(), "{ctx}");
                    assert_eq!(ring.checkpoint(), snapshot, "{ctx}");
                }
            }
        }
    }

    /// Input the ring refuses moves no event time: garbage bytes and a
    /// well-formed OLH-C frame whose cohort is out of range, stamped 100
    /// windows ahead, error as a lone service would and leave the ring
    /// checkpoint byte-identical (so nothing retires).
    #[test]
    fn refused_input_stamped_ahead_moves_no_event_time() {
        use ldp_core::wire::{encode_report_vec, CohortLhReport};
        let desc = olhc_descriptor(16);
        let client = WireClient::from_descriptor(&desc).unwrap();
        let mut rng = StdRng::seed_from_u64(43);
        let garbage = vec![0xff, 0xff, 0xff];
        let out_of_range = encode_report_vec(&CohortLhReport {
            cohort: 32,
            bucket: 0,
        });
        let ahead = 100 * 10 + 5;

        let mut fresh = WindowRing::new(&desc, WindowConfig::new(10, 3)).unwrap();
        let mut ring = WindowRing::new(&desc, WindowConfig::new(10, 3)).unwrap();
        assert_eq!(
            ring.ingest_concat(5, &stream(&client, &mut rng, 16, 5))
                .unwrap(),
            5
        );
        for bad in [garbage, out_of_range] {
            let expected = CollectorService::from_descriptor(&desc)
                .unwrap()
                .ingest_concat(&bad)
                .unwrap_err()
                .source;
            let mut followed = bad.clone();
            followed.extend_from_slice(&stream(&client, &mut rng, 16, 2));
            for r in [&mut ring, &mut fresh] {
                let before = r.checkpoint();
                assert_eq!(r.ingest(ahead, &bad).unwrap_err(), expected);
                assert_eq!(r.checkpoint(), before);
                for s in [&bad, &followed] {
                    let err = r.ingest_concat(ahead, s).unwrap_err();
                    assert_eq!((err.ingested, &err.source), (0, &expected));
                    assert_eq!(r.checkpoint(), before);
                }
                assert_eq!(r.ingest_concat(ahead, &[]).unwrap(), 0);
                assert_eq!(r.checkpoint(), before);
            }
        }
        assert_eq!(ring.reports(), 5);
        assert_eq!(ring.oldest_bucket(), Some(0));
        assert_eq!(fresh.live_windows(), 0);
    }

    #[test]
    fn decayed_estimates_weight_recency() {
        let desc = olhc_descriptor(8);
        let client = WireClient::from_descriptor(&desc).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let mut ring = WindowRing::new(&desc, WindowConfig::new(10, 4).with_decay(0.5)).unwrap();

        // Item 0 heavy in an old window, item 1 heavy in the newest.
        let mut s = Vec::new();
        for _ in 0..200 {
            client.randomize_item(0, &mut rng, &mut s).unwrap();
        }
        ring.ingest_concat(0, &s).unwrap();
        let mut s = Vec::new();
        for _ in 0..200 {
            client.randomize_item(1, &mut rng, &mut s).unwrap();
        }
        ring.ingest_concat(30, &s).unwrap();

        let flat = ring.estimates();
        let decayed = ring.decayed_estimates().unwrap();
        // Undecayed: both items near 200. Decayed: item 0's window is 3
        // buckets old, so its weight is 1/8 of item 1's.
        assert!((flat[0] - flat[1]).abs() < 80.0, "{flat:?}");
        assert!(decayed[1] > 4.0 * decayed[0].max(1.0), "{decayed:?}");

        // Rings without decay refuse.
        let plain = WindowRing::new(&desc, WindowConfig::new(10, 4)).unwrap();
        assert!(matches!(
            plain.decayed_estimates(),
            Err(LdpError::InvalidParameter(_))
        ));
    }

    #[test]
    fn ring_checkpoint_round_trips_bit_exactly() {
        let desc = olhc_descriptor(16);
        let client = WireClient::from_descriptor(&desc).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let mut ring = WindowRing::new(&desc, WindowConfig::new(10, 3).with_decay(0.9)).unwrap();
        for t in [3u64, 14, 25, 36] {
            let s = stream(&client, &mut rng, 16, 8);
            ring.ingest_concat(t, &s).unwrap();
        }

        let blob = ring.checkpoint();
        let revived = WindowRing::from_checkpoint(&blob).unwrap();
        assert_eq!(revived.checkpoint(), blob);
        assert_eq!(revived.stats(), ring.stats());
        assert_eq!(revived.estimates(), ring.estimates());

        // The revived ring keeps advancing identically.
        let s = stream(&client, &mut rng, 16, 8);
        let mut a = ring;
        let mut b = revived;
        a.ingest_concat(47, &s).unwrap();
        b.ingest_concat(47, &s).unwrap();
        assert_eq!(a.checkpoint(), b.checkpoint());
    }

    #[test]
    fn ring_checkpoint_rejects_tampering() {
        let desc = olhc_descriptor(16);
        let client = WireClient::from_descriptor(&desc).unwrap();
        let mut rng = StdRng::seed_from_u64(19);
        let mut ring = WindowRing::new(&desc, WindowConfig::new(10, 2)).unwrap();
        let s = stream(&client, &mut rng, 16, 4);
        ring.ingest_concat(0, &s).unwrap();
        let blob = ring.checkpoint();

        // Truncation, bad version, bad tag: all typed errors.
        assert!(WindowRing::from_checkpoint(&blob[..blob.len() - 1]).is_err());
        let mut bad = blob.clone();
        bad[0] ^= 0xff;
        assert!(WindowRing::from_checkpoint(&bad).is_err());
        let mut bad = blob.clone();
        bad[1] = state_tag::SERVICE_CHECKPOINT;
        assert!(WindowRing::from_checkpoint(&bad).is_err());

        // Restore requires matching config.
        let mut other = WindowRing::new(&desc, WindowConfig::new(10, 5)).unwrap();
        assert!(matches!(
            other.restore(&blob),
            Err(LdpError::StateMismatch(_))
        ));
    }

    /// Every live window runs on the total's mechanism: windows opened
    /// one at a time, after a horizon jump, after a rebuild, and after a
    /// restore.
    #[test]
    fn windows_and_total_share_one_mechanism() {
        let shared = |ring: &WindowRing| {
            ring.live_windows() > 0 && ring.windows().all(|(_, w)| w.shares_mechanism(&ring.total))
        };
        let desc = olhc_descriptor(16);
        let client = WireClient::from_descriptor(&desc).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let mut ring = WindowRing::new(&desc, WindowConfig::new(10, 3)).unwrap();
        ring.ingest_concat(4, &stream(&client, &mut rng, 16, 5))
            .unwrap();
        assert!(shared(&ring));
        ring.advance_to(35).unwrap();
        assert_eq!(ring.stats().retired_subtract, 1);
        assert!(shared(&ring));
        ring.advance_to(1_000).unwrap();
        assert_eq!(ring.stats().retired_wholesale, 3);
        assert!(shared(&ring));
        ring.ingest_concat(1_000, &stream(&client, &mut rng, 16, 5))
            .unwrap();
        let revived = WindowRing::from_checkpoint(&ring.checkpoint()).unwrap();
        assert!(shared(&revived));

        let desc = she_descriptor(8);
        let client = WireClient::from_descriptor(&desc).unwrap();
        let mut ring = WindowRing::new(&desc, WindowConfig::new(10, 2)).unwrap();
        for t in [5u64, 15, 25] {
            ring.ingest_concat(t, &stream(&client, &mut rng, 8, 3))
                .unwrap();
        }
        assert_eq!(ring.stats().retired_rebuild, 1);
        assert!(shared(&ring));
    }

    /// A ring checkpoint whose window was taken under another ε (same
    /// bucket count, so every length matches) is refused as a state
    /// mismatch, not restored onto the total's mechanism.
    #[test]
    fn ring_checkpoint_refuses_a_window_of_another_descriptor() {
        let ring_at = |epsilon| {
            let desc = ProtocolDescriptor::builder(MechanismKind::CohortLocalHashing)
                .domain_size(16)
                .epsilon(epsilon)
                .cohorts(4)
                .build()
                .unwrap();
            let mut ring = WindowRing::new(&desc, WindowConfig::new(10, 2)).unwrap();
            ring.advance_to(0).unwrap();
            ring
        };
        let (ring, other) = (ring_at(1.0), ring_at(1.1));
        let window = |ring: &WindowRing| ring.windows().next().unwrap().1.checkpoint();
        let (ours, theirs) = (window(&ring), window(&other));
        assert_eq!(ours.len(), theirs.len());
        assert_ne!(ours, theirs);

        // The lone window is empty like the total, so the first copy of
        // its blob in the ring checkpoint is the window's entry.
        let mut forged = ring.checkpoint();
        let at = forged
            .windows(ours.len())
            .position(|w| w == ours.as_slice())
            .unwrap();
        forged[at..at + ours.len()].copy_from_slice(&theirs);
        assert!(matches!(
            WindowRing::from_checkpoint(&forged),
            Err(LdpError::StateMismatch(_))
        ));
    }

    #[test]
    fn accountant_meters_and_releases_over_the_horizon() {
        // Allowance of 1.0 at 0.4/window over a 3-window horizon: a
        // device can afford 2 consecutive windows, then must skip.
        let mut acct =
            LongitudinalAccountant::new(Epsilon::new(1.0).unwrap(), Epsilon::new(0.4).unwrap(), 3)
                .unwrap();
        acct.try_charge(7, 0).unwrap();
        acct.try_charge(7, 0).unwrap(); // idempotent per window
        acct.try_charge(7, 1).unwrap();
        assert!((acct.spent(7) - 0.8).abs() < 1e-12);
        assert!(matches!(
            acct.try_charge(7, 2),
            Err(LdpError::BudgetExhausted { .. })
        ));
        // Window 0 scrolls out at bucket 3: its 0.4 is released.
        acct.try_charge(7, 3).unwrap();
        assert!((acct.spent(7) - 0.8).abs() < 1e-12);
        // Other devices have their own ledgers.
        acct.try_charge(8, 3).unwrap();
        assert!((acct.spent(8) - 0.4).abs() < 1e-12);
        assert_eq!(acct.devices(), 2);

        // A per-window charge above the allowance is rejected up front.
        assert!(LongitudinalAccountant::new(
            Epsilon::new(0.3).unwrap(),
            Epsilon::new(0.4).unwrap(),
            3,
        )
        .is_err());
    }

    #[test]
    fn accountant_accepts_out_of_order_in_horizon_charges() {
        // The ring's watermark admits any in-horizon bucket, not just
        // monotone ones, so charging per accepted frame must too.
        let mut acct =
            LongitudinalAccountant::new(Epsilon::new(2.0).unwrap(), Epsilon::new(0.5).unwrap(), 4)
                .unwrap();
        acct.try_charge(1, 10).unwrap();
        acct.try_charge(1, 8).unwrap(); // older, in horizon [7, 10]
        assert!((acct.spent(1) - 1.0).abs() < 1e-12);
        // Idempotent even for a bucket that is not the newest.
        acct.try_charge(1, 8).unwrap();
        assert!((acct.spent(1) - 1.0).abs() < 1e-12);
        // A bucket that predates the whole horizon is a budget no-op:
        // its charge would be released in the same call.
        acct.try_charge(1, 3).unwrap();
        assert!((acct.spent(1) - 1.0).abs() < 1e-12);
        // Releases stay anchored at the newest charge: at bucket 13 the
        // horizon is [10, 13], so 8's charge is handed back.
        acct.try_charge(1, 13).unwrap();
        assert!((acct.spent(1) - 1.0).abs() < 1e-12);
        assert_eq!(acct.devices(), 1);
    }

    #[test]
    fn accountant_failed_charge_leaves_no_trace() {
        let mut acct =
            LongitudinalAccountant::new(Epsilon::new(1.0).unwrap(), Epsilon::new(0.5).unwrap(), 8)
                .unwrap();
        acct.try_charge(4, 0).unwrap();
        acct.try_charge(4, 1).unwrap();
        assert!(matches!(
            acct.try_charge(4, 2),
            Err(LdpError::BudgetExhausted { .. })
        ));
        // The failed draw recorded nothing: spend is unchanged and a
        // retry for an already-charged bucket is still idempotent.
        assert!((acct.spent(4) - 1.0).abs() < 1e-12);
        acct.try_charge(4, 1).unwrap();
        assert!((acct.spent(4) - 1.0).abs() < 1e-12);
        // Only devices that actually paid appear in the roster.
        assert_eq!(acct.devices(), 1);
    }
}
