//! # `ldp` — Local Differential Privacy at Scale
//!
//! A comprehensive Rust reproduction of the systems surveyed in the SIGMOD
//! 2018 tutorial *"Privacy at Scale: Local Differential Privacy in
//! Practice"* (Cormode, Kulkarni, Srivastava).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — ε-LDP foundations: randomized response, frequency oracles
//!   (GRR/SUE/OUE/SHE/THE/BLH/OLH/Hadamard response), numeric mechanisms,
//!   privacy accounting, the estimation toolkit (unbiasedness, variance,
//!   confidence bounds), and the deployment seam: protocol descriptors +
//!   the runtime mechanism registry ([`core::protocol`]) and the binary
//!   wire format with its type-erased collection API ([`core::wire`]).
//! * [`sketch`] — the data-structure substrate: hashing, Bloom filters,
//!   bit vectors, the fast Walsh–Hadamard transform, and the regression
//!   toolkit used for decoding.
//! * [`rappor`] — Google's RAPPOR (CCS 2014) and the unknown-dictionary
//!   extension.
//! * [`apple`] — Apple's Count-Mean Sketch / Hadamard CMS stack and the
//!   Sequence Fragment Puzzle.
//! * [`microsoft`] — Microsoft's telemetry collection (1BitMean, dBitFlip,
//!   α-point rounding with memoization).
//! * [`analytics`] — heavy hitters, marginals, spatial aggregation, graph
//!   statistics, the hybrid (BLENDER-style) model, central-DP baselines,
//!   and multi-round protocols.
//! * [`workloads`] — synthetic workload generators, accuracy metrics, the
//!   experiment harness used by the `ldp-bench` reproduction binaries,
//!   and the deployment-facing [`CollectorService`].
//! * [`planner`] — the cost-based mechanism planner: give it a
//!   [`planner::WorkloadSpec`] (domain, population, ε, budgets) and it
//!   returns ranked, validated [`planner::Plan`]s whose descriptors
//!   instantiate through [`workspace_registry`] unchanged.
//!
//! ## Quickstart: a client/server round trip over bytes
//!
//! Deployed LDP is a wire protocol: the operator ships a versioned
//! config, clients transmit opaque randomized frames, and a collector
//! aggregates without ever seeing a raw value. The workspace mirrors
//! that shape end to end:
//!
//! ```
//! use ldp::core::protocol::{MechanismKind, ProtocolDescriptor};
//! use ldp::workloads::service::{CollectorService, WireClient};
//! use rand::SeedableRng;
//!
//! // The operator's config — serializable, versioned, validated.
//! let descriptor = ProtocolDescriptor::builder(MechanismKind::CohortLocalHashing)
//!     .domain_size(64)
//!     .epsilon(1.0)
//!     .cohorts(256)
//!     .build()
//!     .unwrap();
//!
//! // 10k clients randomize locally and emit wire frames (~6 bytes each).
//! let client = WireClient::from_descriptor(&descriptor).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut wire = Vec::new();
//! for user in 0..10_000u64 {
//!     let value = user % 64; // the user's private value
//!     client.randomize_item(value, &mut rng, &mut wire).unwrap();
//! }
//!
//! // The collector ingests bytes and snapshots unbiased estimates; a
//! // malformed frame is an error, never a panic.
//! let mut service = CollectorService::from_descriptor(&descriptor).unwrap();
//! assert_eq!(service.ingest_concat(&wire).unwrap(), 10_000);
//! assert!(service.ingest(&[0xde, 0xad, 0xbe, 0xef]).is_err());
//! let estimates = service.estimates();
//! // Every value occurs ~156 times; estimates are unbiased around that.
//! assert!((estimates[0] - 156.25).abs() < 1000.0);
//!
//! // Collector state is durable: checkpoint, revive, and the revived
//! // service is byte-identical — kill/restore mid-round costs nothing.
//! let checkpoint = service.checkpoint(); // descriptor + versioned state BLOB
//! let revived = CollectorService::from_checkpoint(&checkpoint).unwrap();
//! assert_eq!(revived.estimates(), estimates);
//! ```
//!
//! The in-process face of the same engine — generic
//! [`core::fo::FrequencyOracle`]s, the fused batch paths, and the
//! sharded parallel collector in [`workloads`] — remains available for
//! simulations and experiments, and the byte path above is bit-identical
//! to it for the same seeds (see `tests/service_dispatch.rs`).
//!
//! ## Don't pick the mechanism by hand: plan it
//!
//! Fourteen mechanism kinds trade accuracy, memory, report size, and
//! decode latency against each other. The planner owns those trade-offs:
//! describe the workload and its budgets, and the top-ranked plan drops
//! into the same wire path as the hand-picked descriptor above:
//!
//! ```
//! use ldp::planner::{workspace_planner, WorkloadSpec};
//! use ldp::workloads::service::{CollectorService, WireClient};
//! use rand::SeedableRng;
//!
//! // The workload: 64 items, 10k reports at ε = 1, server state under
//! // 64 KiB, frames under 16 bytes, exact window retirement required.
//! let spec = WorkloadSpec::new(64, 10_000, 1.0)
//!     .with_memory_budget(64 * 1024)
//!     .with_report_budget(16)
//!     .with_subtractive();
//!
//! // Plan → descriptor: tuned knobs, budgets respected, instantiation
//! // guaranteed through the workspace registry.
//! let plan = workspace_planner().best(&spec).unwrap();
//! assert!(plan.cost.bytes_per_report <= 16);
//!
//! // The planned descriptor rides the byte path unchanged.
//! let client = WireClient::from_descriptor(&plan.descriptor).unwrap();
//! let mut service = CollectorService::from_descriptor(&plan.descriptor).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(11);
//! let mut wire = Vec::new();
//! for user in 0..10_000u64 {
//!     client.randomize_item(user % 64, &mut rng, &mut wire).unwrap();
//! }
//! assert_eq!(service.ingest_concat(&wire).unwrap(), 10_000);
//! let estimates = service.estimates();
//! assert!((estimates[0] - 156.25).abs() < 5.0 * plan.cost.variance.sqrt());
//! ```

pub use ldp_analytics as analytics;
pub use ldp_apple as apple;
pub use ldp_core as core;
pub use ldp_microsoft as microsoft;
pub use ldp_planner as planner;
pub use ldp_rappor as rappor;
pub use ldp_sketch as sketch;
pub use ldp_workloads as workloads;

pub use ldp_core::protocol::{MechanismKind, ProtocolDescriptor, Registry};
pub use ldp_workloads::service::{workspace_registry, CollectorService, WireClient};
