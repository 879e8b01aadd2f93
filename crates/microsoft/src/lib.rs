//! # `ldp-microsoft` — Microsoft's private telemetry collection, reproduced
//!
//! Ding, Kulkarni and Yekhanin ("Collecting Telemetry Data Privately",
//! NeurIPS 2017) deployed LDP in Windows 10 to collect app-usage
//! statistics *every day, indefinitely* — the regime where naive
//! randomized response loses all privacy (noise averages away across
//! rounds). The SIGMOD 2018 tutorial presents their three ideas:
//!
//! * [`onebit::OneBitMean`] — a single-bit mean estimator for bounded
//!   numeric values (app usage seconds), the communication-minimal
//!   mechanism the paper deploys at scale.
//! * [`dbitflip::DBitFlip`] — a d-bit histogram estimator: each device is
//!   responsible for `d` random buckets, giving constant communication
//!   independent of the bucket count.
//! * [`memoization`] — α-point rounding plus response memoization: each
//!   device pre-draws its noisy answers *once* and replays them, so
//!   repeated collection reveals nothing new while values are stable;
//!   optional output perturbation hides the transition points themselves.
//!
//! ## Example
//! ```
//! use ldp_microsoft::OneBitMean;
//! use ldp_core::Epsilon;
//! use rand::SeedableRng;
//!
//! let mech = OneBitMean::new(Epsilon::new(1.0).unwrap(), 3600.0).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(5);
//! // 100k devices, true mean app usage 900s.
//! let bits: Vec<bool> =
//!     (0..100_000).map(|i| mech.randomize(900.0 + (i % 7) as f64, &mut rng)).collect();
//! let est = mech.estimate_mean(&bits);
//! assert!((est - 903.0).abs() < 40.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cost;
pub mod dbitflip;
pub mod memoization;
pub mod onebit;
pub mod pipeline;
pub mod repeated;
pub mod wire;

pub use dbitflip::{DBitAggregator, DBitFlip, DBitReport};
pub use memoization::{MemoizedMeanClient, RoundingConfig};
pub use onebit::{OneBitMean, OneBitMeanAggregator};
pub use pipeline::{
    TelemetryAggregator, TelemetryConfig, TelemetryDevice, TelemetryPipeline, TelemetryReport,
    TelemetryRound,
};
pub use repeated::MemoizedHistogramClient;
pub use wire::register_mechanisms;
