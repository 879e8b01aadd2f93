//! # `ldp-apple` — Apple's local differential privacy stack, reproduced
//!
//! Apple's deployment ("Learning with Privacy at Scale", 2017; US patent
//! 9,594,741) collects popular emoji, words and web domains from hundreds
//! of millions of devices. The SIGMOD 2018 tutorial highlights its two
//! technical moves beyond RAPPOR:
//!
//! 1. **Sketching before privatizing** — the domain (every possible word)
//!    is first hashed into a `k × m` Count-Mean Sketch, so client messages
//!    and server state scale with the sketch, not the domain
//!    ([`cms::CmsProtocol`]).
//! 2. **Fourier-spreading for 1-bit messages** — the Hadamard variant
//!    ([`hcms::HcmsProtocol`]) has each device transmit a *single
//!    privatized bit* (one sampled Hadamard coefficient), with accuracy
//!    matching the full-vector CMS: the transform spreads the one-hot
//!    signal so any coordinate carries `1/√m` of it.
//!
//! New-word discovery — learning strings outside any dictionary — is
//! reproduced in [`sfp`] (Sequence Fragment Puzzle): fragments are
//! reported alongside an 8-bit hash "puzzle piece" of the whole word, and
//! the server reassembles candidates by matching puzzle pieces across
//! positions.
//!
//! ## Example
//! ```
//! use ldp_apple::cms::CmsProtocol;
//! use ldp_core::Epsilon;
//! use rand::SeedableRng;
//!
//! let proto = CmsProtocol::new(64, 1024, Epsilon::new(4.0).unwrap(), 99);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut server = proto.new_server();
//! for user in 0..20_000u64 {
//!     let emoji = user % 10; // ten popular emoji
//!     server.accumulate(&proto.randomize(emoji, &mut rng));
//! }
//! let est = server.estimate(3);
//! assert!((est - 2000.0).abs() < 600.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cms;
mod cost;
pub mod hcms;
pub mod sfp;
pub mod wire;

pub use cms::{CmsAggregator, CmsOracle, CmsProtocol, CmsReport, CmsServer};
pub use hcms::{HcmsAggregator, HcmsOracle, HcmsProtocol, HcmsReport, HcmsServer};
pub use sfp::{SfpCollectors, SfpConfig, SfpDiscovery};
pub use wire::register_mechanisms;
