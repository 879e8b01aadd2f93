//! # `ldp-core` — the mechanisms of local differential privacy
//!
//! This crate implements §1.1 ("Introduction and Preliminaries") and the
//! frequency-oracle layer of §1.2 of the SIGMOD 2018 tutorial *"Privacy at
//! Scale: Local Differential Privacy in Practice"*:
//!
//! * [`privacy`] — the ε-LDP definition as a type ([`Epsilon`]), budget
//!   accounting and sequential composition ([`privacy::PrivacyBudget`]).
//! * [`rr`] — randomized response, from Warner's 1965 single-bit coin toss
//!   to the k-ary generalization that underlies direct encoding.
//! * [`fo`] — the frequency-oracle family of Wang et al. (USENIX Security
//!   2017): direct encoding (GRR), symmetric/optimized unary encoding
//!   (SUE = basic RAPPOR, OUE), summation/thresholding with histogram
//!   encoding (SHE, THE), binary/optimized local hashing (BLH, OLH), and
//!   Hadamard response — all behind one [`fo::FrequencyOracle`] trait.
//! * [`mean`] — numeric mechanisms: Duchi et al.'s minimax ±c mechanism,
//!   the Laplace mechanism, stochastic rounding, and the piecewise
//!   mechanism.
//! * [`mech`] — the cross-crate [`BatchMechanism`] abstraction: the
//!   batch-fused, mergeable collection contract shared by the frequency
//!   oracles and the non-oracle industrial mechanisms (`ldp-apple`,
//!   `ldp-microsoft`), which is what the sharded parallel engine in
//!   `ldp-workloads` drives.
//! * [`noise`] — Laplace / discrete-geometric samplers shared by the
//!   mechanisms and by central-DP baselines.
//! * [`estimate`] — the statistical toolkit the tutorial teaches:
//!   debiasing, closed-form variances, and confidence tail bounds.
//! * [`protocol`] — the deployment seam: a serializable
//!   [`ProtocolDescriptor`] (mechanism kind + parameters + version) with
//!   builder-side validation, and a [`Registry`] that instantiates any
//!   registered mechanism from a descriptor at runtime.
//! * [`wire`] — the compact binary report format every mechanism's
//!   reports encode to, and the object-safe [`wire::ErasedMechanism`]
//!   bridge that lets one collector service ingest `&[u8]` frames for
//!   any mechanism behind dynamic dispatch.
//!
//! ## The model
//!
//! A randomized client-side algorithm `M` is ε-LDP iff for all inputs
//! `v, v'` and all outputs `y`: `Pr[M(v) = y] ≤ e^ε · Pr[M(v') = y]`.
//! Every mechanism in this crate documents its `(p, q)` perturbation
//! probabilities and carries the proof obligation in tests: empirical
//! likelihood ratios never exceed `e^ε` (see `tests/` and each module's
//! property tests).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cost;
pub mod estimate;
pub mod fo;
pub mod mean;
pub mod mech;
pub mod noise;
pub mod postprocess;
pub mod privacy;
pub mod protocol;
pub mod rr;
pub mod snapshot;
pub mod wire;

pub use mech::BatchMechanism;
pub use privacy::{Epsilon, PrivacyBudget};
pub use protocol::{MechanismKind, ProtocolDescriptor, Registry};

/// Errors surfaced on every public fallible path of the workspace:
/// mechanism construction, protocol-descriptor validation, registry
/// dispatch, and the wire format.
///
/// The descriptor/registry/wire layer ([`protocol`], [`wire`], and the
/// collector service built on them) is the *panic-free boundary* of the
/// workspace: everything reachable from serialized bytes — descriptors
/// and report frames — reports problems through this enum. The typed
/// constructors underneath keep their documented `assert!`s for
/// programmer errors (those are unreachable once a descriptor has
/// validated), and the hot randomize/accumulate loops stay assertion-thin.
#[derive(Debug, Clone, PartialEq)]
pub enum LdpError {
    /// The privacy parameter was not a positive, finite number.
    InvalidEpsilon(f64),
    /// A domain size was zero or otherwise unusable for the mechanism.
    InvalidDomain(String),
    /// A mechanism parameter was out of range.
    InvalidParameter(String),
    /// The privacy budget has been exhausted.
    BudgetExhausted {
        /// Amount requested.
        requested: f64,
        /// Amount remaining.
        remaining: f64,
    },
    /// A [`ProtocolDescriptor`] failed validation (missing or
    /// inconsistent fields for its mechanism kind).
    InvalidDescriptor(String),
    /// The registry has no factory for the requested mechanism kind, or
    /// a descriptor names a retired kind code (see
    /// [`MechanismKind::from_code`]).
    UnsupportedMechanism(String),
    /// A wire frame (or serialized descriptor) declared a format version
    /// this build does not speak.
    VersionMismatch {
        /// Version found in the frame.
        got: u8,
        /// Version this build encodes.
        expected: u8,
    },
    /// A wire frame carried a different report type than the mechanism
    /// it was fed to expects.
    ReportTypeMismatch {
        /// Report tag found in the frame.
        got: u8,
        /// Report tag the consuming mechanism expects.
        expected: u8,
    },
    /// A wire frame ended before its declared payload did.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// A wire frame or report payload was structurally invalid (bad
    /// varint, trailing garbage, out-of-range field, width mismatch).
    Malformed(String),
    /// A state snapshot was structurally valid but taken from an
    /// aggregator with different configuration (shape, channel
    /// probabilities, or hash family) than the one restoring it.
    StateMismatch(String),
    /// The aggregator was asked to [`fo::FoAggregator::try_subtract`]
    /// but its state has no exact merge inverse (floating-point sums
    /// that reassociate, or a raw report list with no window identity) —
    /// callers fall back to rebuilding the total from live deltas.
    NotSubtractive(String),
    /// A merge would carry a counter past its integer range. Honest
    /// collection cannot get there; only forged or corrupted state can,
    /// so the merge is refused and both operands stay unchanged.
    CounterOverflow(String),
}

/// Pre-PR-5 name of [`LdpError`], kept so existing `ldp_core::Error`
/// call sites keep compiling.
pub type Error = LdpError;

impl std::fmt::Display for LdpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LdpError::InvalidEpsilon(e) => {
                write!(f, "epsilon must be positive and finite, got {e}")
            }
            LdpError::InvalidDomain(msg) => write!(f, "invalid domain: {msg}"),
            LdpError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            LdpError::BudgetExhausted {
                requested,
                remaining,
            } => {
                write!(
                    f,
                    "privacy budget exhausted: requested {requested}, remaining {remaining}"
                )
            }
            LdpError::InvalidDescriptor(msg) => write!(f, "invalid protocol descriptor: {msg}"),
            LdpError::UnsupportedMechanism(msg) => write!(f, "unsupported mechanism: {msg}"),
            LdpError::VersionMismatch { got, expected } => {
                write!(
                    f,
                    "wire version mismatch: frame says {got}, expected {expected}"
                )
            }
            LdpError::ReportTypeMismatch { got, expected } => {
                write!(
                    f,
                    "report type mismatch: frame tag {got}, expected {expected}"
                )
            }
            LdpError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated frame: needed {needed} more bytes, had {available}"
                )
            }
            LdpError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            LdpError::StateMismatch(msg) => write!(f, "snapshot state mismatch: {msg}"),
            LdpError::NotSubtractive(msg) => {
                write!(f, "aggregator state is not subtractive: {msg}")
            }
            LdpError::CounterOverflow(msg) => write!(f, "counter overflow: {msg}"),
        }
    }
}

impl std::error::Error for LdpError {}

impl From<ldp_sketch::FwhtSizeError> for LdpError {
    /// A non-power-of-two Walsh–Hadamard length is a domain-shape
    /// problem: Hadamard-based mechanisms size their message space as
    /// `2^k`, so a buffer that violates that is an invalid domain.
    fn from(e: ldp_sketch::FwhtSizeError) -> Self {
        LdpError::InvalidDomain(e.to_string())
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, LdpError>;
