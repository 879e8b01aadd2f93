//! # `ldp-workloads` — synthetic workloads, metrics, and the experiment
//! harness
//!
//! The deployed systems the tutorial surveys were evaluated on proprietary
//! data (Chrome home pages, iOS keyboard streams, Windows telemetry). This
//! crate provides the synthetic equivalents used throughout the
//! reproduction — per DESIGN.md's substitution table, the estimators under
//! test consume only the *frequency profile* of the data, which the
//! generators here control exactly:
//!
//! * [`gen`] — Zipf, uniform, and discretized-Gaussian categorical
//!   populations; bounded numeric streams with drift for telemetry.
//! * [`metrics`] — the accuracy measures the source papers report: MSE,
//!   MAE, max error, KL divergence, total variation, top-k
//!   precision/recall/F1, and normalized cumulative rank.
//! * [`harness`] — multi-trial experiment running with mean ± std
//!   aggregation and aligned-column table printing for the `ldp-bench`
//!   reproduction binaries.
//! * [`parallel`] — the sharded parallel collection engine: splits users
//!   across `std::thread::scope` workers, accumulates shard-local
//!   aggregators, and combines them with `FoAggregator::merge` —
//!   deterministically (fixed logical shards, seed-derived RNG streams,
//!   shard-order merging), so results are bit-identical across core
//!   counts.
//! * [`service`] — the deployment-facing entry point:
//!   [`service::CollectorService`] owns a protocol descriptor plus a
//!   type-erased aggregator and ingests **serialized** report frames
//!   (`&[u8]` in, estimates out) for any mechanism the workspace
//!   registry can build, with [`service::WireClient`] as the matching
//!   client half.
//! * [`pipeline`] — the concurrent collector fleet over that byte path:
//!   [`pipeline::CollectorPipeline`] runs N ingest workers pulling
//!   frame batches from bounded queues (block or drop-with-counter
//!   backpressure) into per-shard services, merged in shard order at
//!   snapshot time — bit-identical across worker counts, with
//!   per-worker throughput and queue stats in
//!   [`pipeline::PipelineStats`].
//! * [`window`] — event-time sliding windows over the service layer:
//!   [`window::WindowRing`] keeps one mergeable delta per window plus a
//!   running total retired by **exact subtraction** (rebuild fallback
//!   for non-subtractive states), with optional exponential decay
//!   weighting, whole-ring checkpoint/restore, and
//!   [`window::LongitudinalAccountant`] metering per-device ε over a
//!   rolling horizon.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod gen;
pub mod harness;
pub mod metrics;
pub mod parallel;
pub mod pipeline;
pub mod service;
pub mod window;

pub use gen::{NumericStream, ZipfGenerator};
pub use harness::{ExperimentTable, Trials};
pub use pipeline::{BackpressurePolicy, CollectorPipeline, PipelineConfig, PipelineStats};
pub use service::{
    workspace_planner, workspace_registry, CollectorService, Plan, Planner, WireClient,
    WorkloadSpec,
};
pub use window::{LongitudinalAccountant, WindowConfig, WindowRing, WindowStats};
