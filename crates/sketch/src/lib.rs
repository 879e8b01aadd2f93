//! # `ldp-sketch` — sketching substrate for local differential privacy
//!
//! Every deployed LDP system surveyed by the SIGMOD 2018 tutorial
//! *"Privacy at Scale: Local Differential Privacy in Practice"* leans on a
//! compact-summary substrate:
//!
//! * **Google RAPPOR** encodes strings into [Bloom filters](bloom) before
//!   perturbation, and decodes aggregated filters with [regression](linalg).
//! * **Apple's implementation** [hashes](hash) a massive domain into a
//!   Count-Mean Sketch (its integer server lives in `ldp-apple`) and
//!   spreads signal with the [Walsh–Hadamard transform](hadamard).
//! * **Frequency oracles** (OLH/BLH) need cheap [universal hashing](hash).
//!
//! This crate provides those substrates as standalone, dependency-light,
//! deterministic building blocks. Nothing in here adds privacy noise — the
//! privacy layer lives in `ldp-core` and the per-system crates; this crate
//! is the data-structure layer underneath them.
//!
//! All structures are designed for the aggregation hot path: no per-report
//! allocation, pre-sized buffers, and `#[inline]` bit/hash helpers.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bitvec;
pub mod bloom;
pub mod hadamard;
pub mod hash;
pub mod linalg;

pub use bitvec::BitVec;
pub use bloom::BloomFilter;
pub use hadamard::{
    fwht, fwht_normalized, fwht_reference, hadamard_entry, try_fwht, FwhtSizeError,
};
pub use hash::{FastHasher, HashFamily, PairwiseHash};
pub use linalg::{lasso, lasso_sparse, least_squares, Matrix, SparseColMatrix};
