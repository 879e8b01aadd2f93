//! Protocol descriptors and the runtime mechanism registry.
//!
//! A deployed LDP service does not monomorphize its mechanism at compile
//! time: the client population runs whatever versioned configuration the
//! operator shipped, and the collector instantiates the matching
//! server-side state at runtime (RAPPOR's client config + shuffler is
//! the canonical example). This module is that configuration layer:
//!
//! * [`MechanismKind`] — the closed set of mechanism families the
//!   workspace speaks, with stable one-byte codes for serialization.
//! * [`ProtocolDescriptor`] — one mechanism instance's full wire-level
//!   identity: kind, domain size, ε, cohort/sketch/bit parameters, hash
//!   seed, and a schema version. Built through
//!   [`ProtocolDescriptor::builder`], which **validates** instead of
//!   panicking — the descriptor path is the panic-free boundary of the
//!   workspace ([`LdpError`] replaces the `assert!`s of the typed
//!   constructors) — and serialized with
//!   [`ProtocolDescriptor::to_bytes`] / [`from_bytes`](ProtocolDescriptor::from_bytes).
//! * [`Registry`] — maps kinds to factories producing type-erased
//!   mechanisms ([`ErasedMechanism`]). [`Registry::core`] registers
//!   every `ldp-core` oracle; `ldp_apple::register_mechanisms` and
//!   `ldp_microsoft::register_mechanisms` add the industrial
//!   deployments, and `ldp_workloads::service::workspace_registry`
//!   assembles the whole workspace.
//!
//! ## Raw local hashing has no descriptor
//!
//! Raw BLH/OLH (fresh hash seed per user) keep **every report** — `O(n)`
//! memory and `O(n·d)` full-domain estimates — so they stay in-process
//! oracles ([`crate::fo::BinaryLocalHashing`],
//! [`crate::fo::OptimizedLocalHashing`]) and no descriptor names them.
//! Their kind codes 6 and 7 are retired: [`MechanismKind::from_code`]
//! refuses them with an [`LdpError::UnsupportedMechanism`] steering the
//! caller to [`MechanismKind::CohortLocalHashing`] (same privacy, same
//! noise floor up to a `1/C` collision term, `O(C·g)` memory) or the
//! planner. Descriptor byte 2 is reserved and must be `0`.

use crate::fo::{
    CohortLocalHashing, DirectEncoding, HadamardResponse, OptimizedUnaryEncoding, SubsetSelection,
    SummationHistogramEncoding, SymmetricUnaryEncoding, ThresholdHistogramEncoding,
};
use crate::wire::{
    put_f64_le, put_u64_le, put_uvarint, ErasedBridge, ErasedMechanism, FusedUnaryMechanism,
    OracleMechanism, WireReader,
};
use crate::{Epsilon, LdpError, Result};
use std::collections::BTreeMap;

pub use crate::fo::hashing::{DEFAULT_COHORTS, DEFAULT_COHORT_SEED_BASE};

/// The descriptor schema version this build encodes and accepts.
pub const DESCRIPTOR_VERSION: u8 = 1;

/// The mechanism families the workspace can instantiate from a
/// descriptor. The `u8` code of each kind is part of the wire-stable
/// descriptor schema — append new kinds, never renumber, and never reuse
/// a retired code (6 and 7 named raw BLH/OLH).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MechanismKind {
    /// Direct encoding / generalized randomized response (GRR).
    DirectEncoding,
    /// Symmetric unary encoding (SUE, basic RAPPOR's perturbation).
    SymmetricUnary,
    /// Optimized unary encoding (OUE).
    OptimizedUnary,
    /// Summation with histogram encoding (SHE).
    SummationHistogram,
    /// Thresholding with histogram encoding (THE).
    ThresholdHistogram,
    /// Cohort-mode optimized local hashing (OLH-C).
    CohortLocalHashing,
    /// Hadamard response (HR).
    HadamardResponse,
    /// Subset selection (SS).
    SubsetSelection,
    /// Apple's Count-Mean Sketch (CMS).
    AppleCms,
    /// Apple's Hadamard Count-Mean Sketch (HCMS).
    AppleHcms,
    /// Microsoft's dBitFlip histogram estimator.
    MicrosoftDBitFlip,
    /// Microsoft's 1BitMean mean estimator (real-valued inputs).
    MicrosoftOneBitMean,
}

impl MechanismKind {
    /// All kinds, in code order.
    pub const ALL: [MechanismKind; 12] = [
        MechanismKind::DirectEncoding,
        MechanismKind::SymmetricUnary,
        MechanismKind::OptimizedUnary,
        MechanismKind::SummationHistogram,
        MechanismKind::ThresholdHistogram,
        MechanismKind::CohortLocalHashing,
        MechanismKind::HadamardResponse,
        MechanismKind::SubsetSelection,
        MechanismKind::AppleCms,
        MechanismKind::AppleHcms,
        MechanismKind::MicrosoftDBitFlip,
        MechanismKind::MicrosoftOneBitMean,
    ];

    /// The stable one-byte code used in serialized descriptors.
    pub fn code(self) -> u8 {
        match self {
            MechanismKind::DirectEncoding => 1,
            MechanismKind::SymmetricUnary => 2,
            MechanismKind::OptimizedUnary => 3,
            MechanismKind::SummationHistogram => 4,
            MechanismKind::ThresholdHistogram => 5,
            MechanismKind::CohortLocalHashing => 8,
            MechanismKind::HadamardResponse => 9,
            MechanismKind::SubsetSelection => 10,
            MechanismKind::AppleCms => 11,
            MechanismKind::AppleHcms => 12,
            MechanismKind::MicrosoftDBitFlip => 13,
            MechanismKind::MicrosoftOneBitMean => 14,
        }
    }

    /// Decodes a descriptor kind code.
    ///
    /// # Errors
    /// [`LdpError::UnsupportedMechanism`] for the retired raw BLH/OLH
    /// codes 6 and 7, naming their bounded-memory replacement;
    /// [`LdpError::Malformed`] for any other unknown code.
    pub fn from_code(code: u8) -> Result<Self> {
        if let Some(k) = Self::ALL.into_iter().find(|k| k.code() == code) {
            return Ok(k);
        }
        if matches!(code, 6 | 7) {
            return Err(LdpError::UnsupportedMechanism(format!(
                "mechanism kind code {code} named raw {} (fresh per-user hash seeds), \
                 which keeps every report: O(n) memory and O(n·d) full-domain \
                 estimates. Use CohortLocalHashing (same privacy, same noise floor up \
                 to a 1/C collision term, O(C·g) memory), or let the planner pick and \
                 tune a mechanism for your budgets (ldp_planner::Planner::plan)",
                if code == 6 { "BLH" } else { "OLH" }
            )));
        }
        Err(LdpError::Malformed(format!(
            "unknown mechanism kind code {code}"
        )))
    }

    /// The short name used in experiment tables and error messages.
    pub fn name(self) -> &'static str {
        match self {
            MechanismKind::DirectEncoding => "GRR",
            MechanismKind::SymmetricUnary => "SUE",
            MechanismKind::OptimizedUnary => "OUE",
            MechanismKind::SummationHistogram => "SHE",
            MechanismKind::ThresholdHistogram => "THE",
            MechanismKind::CohortLocalHashing => "OLH-C",
            MechanismKind::HadamardResponse => "HR",
            MechanismKind::SubsetSelection => "SS",
            MechanismKind::AppleCms => "CMS",
            MechanismKind::AppleHcms => "HCMS",
            MechanismKind::MicrosoftDBitFlip => "dBitFlip",
            MechanismKind::MicrosoftOneBitMean => "1BitMean",
        }
    }
}

/// A runtime-configurable protocol instance: everything a client needs
/// to randomize compatibly and a collector needs to aggregate — the
/// versioned config a deployment ships to its fleet.
///
/// Build with [`ProtocolDescriptor::builder`]; every instance in
/// existence has passed validation, so the registry's factories can rely
/// on its invariants. Serialize with [`to_bytes`](Self::to_bytes).
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolDescriptor {
    kind: MechanismKind,
    domain_size: u64,
    epsilon: f64,
    cohorts: u32,
    hash_seed: u64,
    sketch_rows: u32,
    sketch_width: u32,
    bits_per_device: u32,
    max_value: f64,
}

impl ProtocolDescriptor {
    /// Starts a builder for `kind` with the workspace defaults
    /// (`cohorts = `[`DEFAULT_COHORTS`], `hash_seed = `
    /// [`DEFAULT_COHORT_SEED_BASE`], `max_value = 1.0`; domain size,
    /// sketch shape, and bits-per-device must be set where the kind
    /// needs them).
    #[must_use]
    pub fn builder(kind: MechanismKind) -> ProtocolDescriptorBuilder {
        ProtocolDescriptorBuilder {
            desc: ProtocolDescriptor {
                kind,
                domain_size: 0,
                epsilon: f64::NAN,
                cohorts: DEFAULT_COHORTS,
                hash_seed: DEFAULT_COHORT_SEED_BASE,
                sketch_rows: 0,
                sketch_width: 0,
                bits_per_device: 0,
                max_value: 1.0,
            },
        }
    }

    /// Mechanism family.
    pub fn kind(&self) -> MechanismKind {
        self.kind
    }

    /// Domain size `d` (bucket count for dBitFlip; `0` for the
    /// domain-free 1BitMean).
    pub fn domain_size(&self) -> u64 {
        self.domain_size
    }

    /// Privacy parameter ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The validated [`Epsilon`] (infallible: validation already ran).
    pub fn epsilon_checked(&self) -> Epsilon {
        Epsilon::new(self.epsilon).expect("validated at build time")
    }

    /// Cohort count `C` (OLH-C).
    pub fn cohorts(&self) -> u32 {
        self.cohorts
    }

    /// Public hash seed: the cohort seed base for OLH-C, the sketch
    /// hash-family seed for CMS/HCMS.
    pub fn hash_seed(&self) -> u64 {
        self.hash_seed
    }

    /// Sketch rows `k` (CMS/HCMS).
    pub fn sketch_rows(&self) -> u32 {
        self.sketch_rows
    }

    /// Sketch width `m` (CMS/HCMS).
    pub fn sketch_width(&self) -> u32 {
        self.sketch_width
    }

    /// Bits per device `d` (dBitFlip).
    pub fn bits_per_device(&self) -> u32 {
        self.bits_per_device
    }

    /// Input bound `max` (1BitMean: inputs live in `[0, max]`).
    pub fn max_value(&self) -> f64 {
        self.max_value
    }

    /// Serializes the descriptor:
    /// `[version u8] [kind u8] [reserved u8 = 0] [d uvarint] [ε f64-LE]
    /// [cohorts uvarint] [hash_seed u64-LE] [rows uvarint]
    /// [width uvarint] [bits uvarint] [max f64-LE]`.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(40);
        out.push(DESCRIPTOR_VERSION);
        out.push(self.kind.code());
        out.push(0);
        put_uvarint(&mut out, self.domain_size);
        put_f64_le(&mut out, self.epsilon);
        put_uvarint(&mut out, self.cohorts as u64);
        put_u64_le(&mut out, self.hash_seed);
        put_uvarint(&mut out, self.sketch_rows as u64);
        put_uvarint(&mut out, self.sketch_width as u64);
        put_uvarint(&mut out, self.bits_per_device as u64);
        put_f64_le(&mut out, self.max_value);
        out
    }

    /// A 64-bit FNV-1a hash of the serialized descriptor — stable across
    /// processes and builds that share the descriptor schema version.
    /// Checkpoint BLOBs embed it so a snapshot restored into a service
    /// built from a *different* descriptor is rejected up front.
    #[must_use]
    pub fn stable_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in &self.to_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Deserializes and **re-validates** a descriptor written by
    /// [`to_bytes`](Self::to_bytes) — untrusted bytes cannot produce a
    /// descriptor that skips validation.
    ///
    /// # Errors
    /// [`LdpError::VersionMismatch`] for a foreign schema version, any
    /// decoding [`LdpError`] for malformed bytes, and every
    /// [`LdpError::InvalidDescriptor`] the builder can raise.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = WireReader::new(bytes);
        let version = r.u8()?;
        if version != DESCRIPTOR_VERSION {
            return Err(LdpError::VersionMismatch {
                got: version,
                expected: DESCRIPTOR_VERSION,
            });
        }
        let kind = MechanismKind::from_code(r.u8()?)?;
        let reserved = r.u8()?;
        if reserved != 0 {
            return Err(LdpError::Malformed(format!(
                "reserved descriptor byte must be 0, got {reserved:#x}"
            )));
        }
        let domain_size = r.uvarint()?;
        let epsilon = r.f64_le()?;
        let cohorts = u32::try_from(r.uvarint()?)
            .map_err(|_| LdpError::Malformed("cohort count overflows u32".into()))?;
        let hash_seed = r.u64_le()?;
        let sketch_rows = u32::try_from(r.uvarint()?)
            .map_err(|_| LdpError::Malformed("sketch rows overflow u32".into()))?;
        let sketch_width = u32::try_from(r.uvarint()?)
            .map_err(|_| LdpError::Malformed("sketch width overflows u32".into()))?;
        let bits_per_device = u32::try_from(r.uvarint()?)
            .map_err(|_| LdpError::Malformed("bits per device overflow u32".into()))?;
        let max_value = r.f64_le()?;
        r.finish()?;

        Self::builder(kind)
            .domain_size(domain_size)
            .epsilon(epsilon)
            .cohorts(cohorts)
            .hash_seed(hash_seed)
            .sketch(sketch_rows, sketch_width)
            .bits_per_device(bits_per_device)
            .max_value(max_value)
            .build()
    }
}

/// Builder for [`ProtocolDescriptor`]; terminal
/// [`build`](Self::build) validates the parameter set for the chosen
/// mechanism kind.
#[derive(Debug, Clone)]
pub struct ProtocolDescriptorBuilder {
    desc: ProtocolDescriptor,
}

impl ProtocolDescriptorBuilder {
    /// Sets the domain size `d` (items are `0..d`; dBitFlip buckets).
    #[must_use]
    pub fn domain_size(mut self, d: u64) -> Self {
        self.desc.domain_size = d;
        self
    }

    /// Sets the privacy parameter ε.
    #[must_use]
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.desc.epsilon = epsilon;
        self
    }

    /// Sets the cohort count `C` (OLH-C).
    #[must_use]
    pub fn cohorts(mut self, cohorts: u32) -> Self {
        self.desc.cohorts = cohorts;
        self
    }

    /// Sets the public hash seed (cohort seed base / sketch hash seed).
    #[must_use]
    pub fn hash_seed(mut self, seed: u64) -> Self {
        self.desc.hash_seed = seed;
        self
    }

    /// Sets the sketch shape `(k rows, m width)` (CMS/HCMS).
    #[must_use]
    pub fn sketch(mut self, rows: u32, width: u32) -> Self {
        self.desc.sketch_rows = rows;
        self.desc.sketch_width = width;
        self
    }

    /// Sets the per-device bit count `d` (dBitFlip).
    #[must_use]
    pub fn bits_per_device(mut self, bits: u32) -> Self {
        self.desc.bits_per_device = bits;
        self
    }

    /// Sets the input bound (1BitMean inputs live in `[0, max]`).
    #[must_use]
    pub fn max_value(mut self, max: f64) -> Self {
        self.desc.max_value = max;
        self
    }

    /// Validates the parameter set and produces the descriptor.
    ///
    /// # Errors
    /// [`LdpError::InvalidEpsilon`] / [`LdpError::InvalidDescriptor`]
    /// describing the first violated constraint for the chosen kind.
    pub fn build(self) -> Result<ProtocolDescriptor> {
        let d = self.desc;
        Epsilon::new(d.epsilon)?;
        let invalid = |msg: String| Err(LdpError::InvalidDescriptor(msg));
        // Checked for every kind, not just 1BitMean: a NaN bound would
        // make the descriptor unequal to itself, so a service could
        // neither restore its own checkpoint nor merge with a peer.
        if !(d.max_value.is_finite() && d.max_value > 0.0) {
            return invalid(format!(
                "{} needs a positive, finite input bound, got {}",
                d.kind.name(),
                d.max_value
            ));
        }
        match d.kind {
            MechanismKind::DirectEncoding
            | MechanismKind::SymmetricUnary
            | MechanismKind::OptimizedUnary
            | MechanismKind::SummationHistogram
            | MechanismKind::ThresholdHistogram
            | MechanismKind::SubsetSelection
            | MechanismKind::HadamardResponse => {
                if d.domain_size < 2 {
                    return invalid(format!(
                        "{} needs a domain of at least 2 items, got {}",
                        d.kind.name(),
                        d.domain_size
                    ));
                }
            }
            MechanismKind::CohortLocalHashing => {
                if d.domain_size < 2 {
                    return invalid(format!(
                        "OLH-C needs a domain of at least 2 items, got {}",
                        d.domain_size
                    ));
                }
                if d.cohorts == 0 {
                    return invalid("OLH-C needs at least one cohort".into());
                }
            }
            MechanismKind::AppleCms | MechanismKind::AppleHcms => {
                if d.domain_size == 0 {
                    return invalid(format!("{} needs a non-empty domain", d.kind.name()));
                }
                if d.sketch_rows == 0 {
                    return invalid(format!(
                        "{} needs at least one sketch row (builder.sketch(k, m))",
                        d.kind.name()
                    ));
                }
                if d.sketch_width < 2 {
                    return invalid(format!(
                        "{} needs sketch width >= 2, got {}",
                        d.kind.name(),
                        d.sketch_width
                    ));
                }
                if d.kind == MechanismKind::AppleHcms && !d.sketch_width.is_power_of_two() {
                    return invalid(format!(
                        "HCMS needs a power-of-two sketch width, got {}",
                        d.sketch_width
                    ));
                }
            }
            MechanismKind::MicrosoftDBitFlip => {
                if d.domain_size < 2 || d.domain_size > u32::MAX as u64 {
                    return invalid(format!(
                        "dBitFlip needs 2 <= buckets <= u32::MAX, got {}",
                        d.domain_size
                    ));
                }
                if d.bits_per_device == 0 || d.bits_per_device as u64 > d.domain_size {
                    return invalid(format!(
                        "dBitFlip needs 1 <= bits_per_device <= buckets, got {} of {}",
                        d.bits_per_device, d.domain_size
                    ));
                }
            }
            MechanismKind::MicrosoftOneBitMean => {}
        }
        Ok(d)
    }
}

/// A factory producing a type-erased mechanism from a validated
/// descriptor.
pub type MechanismFactory =
    Box<dyn Fn(&ProtocolDescriptor) -> Result<Box<dyn ErasedMechanism>> + Send + Sync>;

/// Maps [`MechanismKind`]s to factories, so a service can instantiate
/// any registered mechanism from a serialized descriptor at runtime.
pub struct Registry {
    factories: BTreeMap<u8, MechanismFactory>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("kinds", &self.kinds())
            .finish()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::core()
    }
}

impl Registry {
    /// An empty registry (register everything yourself).
    #[must_use]
    pub fn empty() -> Self {
        Self {
            factories: BTreeMap::new(),
        }
    }

    /// A registry with every `ldp-core` frequency oracle a descriptor
    /// can name registered: GRR, SUE, OUE, SHE, THE, OLH-C, HR, SS.
    #[must_use]
    pub fn core() -> Self {
        let mut r = Self::empty();
        r.register(MechanismKind::DirectEncoding, |d| {
            erase(
                OracleMechanism(DirectEncoding::new(d.domain_size(), d.epsilon_checked())?),
                d,
            )
        });
        // The unary family rides `FusedUnaryMechanism`, whose
        // `try_randomize_frames` writes sampled payload words straight
        // into the outgoing frame buffer (byte-identical to the materializing
        // path for a given seed).
        r.register(MechanismKind::SymmetricUnary, |d| {
            erase(
                FusedUnaryMechanism(SymmetricUnaryEncoding::new(
                    d.domain_size(),
                    d.epsilon_checked(),
                )?),
                d,
            )
        });
        r.register(MechanismKind::OptimizedUnary, |d| {
            erase(
                FusedUnaryMechanism(OptimizedUnaryEncoding::new(
                    d.domain_size(),
                    d.epsilon_checked(),
                )?),
                d,
            )
        });
        r.register(MechanismKind::SummationHistogram, |d| {
            erase(
                OracleMechanism(SummationHistogramEncoding::new(
                    d.domain_size(),
                    d.epsilon_checked(),
                )?),
                d,
            )
        });
        r.register(MechanismKind::ThresholdHistogram, |d| {
            erase(
                FusedUnaryMechanism(ThresholdHistogramEncoding::new(
                    d.domain_size(),
                    d.epsilon_checked(),
                )?),
                d,
            )
        });
        r.register(MechanismKind::CohortLocalHashing, |d| {
            erase(
                OracleMechanism(CohortLocalHashing::optimized_with_seed(
                    d.domain_size(),
                    d.cohorts(),
                    d.hash_seed(),
                    d.epsilon_checked(),
                )),
                d,
            )
        });
        r.register(MechanismKind::HadamardResponse, |d| {
            erase(
                OracleMechanism(HadamardResponse::new(d.domain_size(), d.epsilon_checked())),
                d,
            )
        });
        r.register(MechanismKind::SubsetSelection, |d| {
            erase(
                OracleMechanism(SubsetSelection::new(d.domain_size(), d.epsilon_checked())),
                d,
            )
        });
        r
    }

    /// Registers (or replaces) the factory for `kind`.
    pub fn register<F>(&mut self, kind: MechanismKind, factory: F)
    where
        F: Fn(&ProtocolDescriptor) -> Result<Box<dyn ErasedMechanism>> + Send + Sync + 'static,
    {
        self.factories.insert(kind.code(), Box::new(factory));
    }

    /// Whether a factory for `kind` is registered.
    pub fn supports(&self, kind: MechanismKind) -> bool {
        self.factories.contains_key(&kind.code())
    }

    /// The registered kinds, in code order.
    #[must_use]
    pub fn kinds(&self) -> Vec<MechanismKind> {
        self.factories
            .keys()
            .map(|&c| MechanismKind::from_code(c).expect("registered codes are valid"))
            .collect()
    }

    /// Instantiates the mechanism a descriptor describes.
    ///
    /// # Errors
    /// [`LdpError::UnsupportedMechanism`] when no factory is registered
    /// for the kind; any [`LdpError`] the factory's typed constructor
    /// surfaces.
    pub fn build(&self, descriptor: &ProtocolDescriptor) -> Result<Box<dyn ErasedMechanism>> {
        let factory = self
            .factories
            .get(&descriptor.kind().code())
            .ok_or_else(|| {
                LdpError::UnsupportedMechanism(format!(
                    "no factory registered for {} (registered: {:?})",
                    descriptor.kind().name(),
                    self.kinds()
                ))
            })?;
        factory(descriptor)
    }
}

/// Boxes a bridged mechanism (shared shorthand for the factories).
fn erase<M>(mech: M, descriptor: &ProtocolDescriptor) -> Result<Box<dyn ErasedMechanism>>
where
    M: crate::wire::WireMechanism + Send + Sync + 'static,
    M::Input: crate::wire::WireInput,
    M::Aggregator: Send + 'static,
    crate::wire::ReportOf<M>: crate::wire::WireReport,
{
    Ok(Box::new(ErasedBridge::new(mech, descriptor.clone())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_round_trips_through_bytes() {
        let desc = ProtocolDescriptor::builder(MechanismKind::CohortLocalHashing)
            .domain_size(4096)
            .epsilon(1.25)
            .cohorts(512)
            .hash_seed(0xfeed)
            .build()
            .unwrap();
        let bytes = desc.to_bytes();
        let back = ProtocolDescriptor::from_bytes(&bytes).unwrap();
        assert_eq!(back, desc);
    }

    #[test]
    fn descriptor_rejects_bad_parameters() {
        assert!(matches!(
            ProtocolDescriptor::builder(MechanismKind::DirectEncoding)
                .domain_size(1)
                .epsilon(1.0)
                .build(),
            Err(LdpError::InvalidDescriptor(_))
        ));
        assert!(matches!(
            ProtocolDescriptor::builder(MechanismKind::DirectEncoding)
                .domain_size(8)
                .epsilon(-1.0)
                .build(),
            Err(LdpError::InvalidEpsilon(_))
        ));
        assert!(ProtocolDescriptor::builder(MechanismKind::AppleHcms)
            .domain_size(8)
            .epsilon(1.0)
            .sketch(4, 100) // not a power of two
            .build()
            .is_err());
        assert!(
            ProtocolDescriptor::builder(MechanismKind::MicrosoftDBitFlip)
                .domain_size(16)
                .bits_per_device(32)
                .epsilon(1.0)
                .build()
                .is_err()
        );
    }

    #[test]
    fn from_bytes_revalidates() {
        // Corrupt a valid descriptor's epsilon field in place: the
        // deserializer must reject it, not resurrect an invalid value.
        let desc = ProtocolDescriptor::builder(MechanismKind::DirectEncoding)
            .domain_size(8)
            .epsilon(1.0)
            .build()
            .unwrap();
        let mut bytes = desc.to_bytes();
        // ε is the f64 right after version, kind, the reserved byte, and
        // the 1-byte domain varint.
        bytes[4..12].copy_from_slice(&f64::NEG_INFINITY.to_le_bytes());
        assert!(matches!(
            ProtocolDescriptor::from_bytes(&bytes),
            Err(LdpError::InvalidEpsilon(_))
        ));
        // Foreign schema version.
        let mut bytes = desc.to_bytes();
        bytes[0] = 9;
        assert!(matches!(
            ProtocolDescriptor::from_bytes(&bytes),
            Err(LdpError::VersionMismatch { got: 9, .. })
        ));
    }

    #[test]
    fn registry_builds_core_kinds() {
        let registry = Registry::core();
        for kind in [
            MechanismKind::DirectEncoding,
            MechanismKind::SymmetricUnary,
            MechanismKind::OptimizedUnary,
            MechanismKind::SummationHistogram,
            MechanismKind::ThresholdHistogram,
            MechanismKind::CohortLocalHashing,
            MechanismKind::HadamardResponse,
            MechanismKind::SubsetSelection,
        ] {
            let desc = ProtocolDescriptor::builder(kind)
                .domain_size(32)
                .epsilon(1.0)
                .build()
                .unwrap();
            let mech = registry.build(&desc).unwrap();
            assert_eq!(mech.descriptor().kind(), kind);
        }
    }

    #[test]
    fn retired_raw_hashing_codes_steer_to_cohorts() {
        let bytes = ProtocolDescriptor::builder(MechanismKind::DirectEncoding)
            .domain_size(32)
            .epsilon(1.0)
            .build()
            .unwrap()
            .to_bytes();
        for code in [6u8, 7] {
            let mut retired = bytes.clone();
            retired[1] = code;
            for err in [
                MechanismKind::from_code(code).unwrap_err(),
                ProtocolDescriptor::from_bytes(&retired).unwrap_err(),
            ] {
                let LdpError::UnsupportedMechanism(msg) = err else {
                    panic!("code {code}: expected UnsupportedMechanism, got {err:?}");
                };
                assert!(msg.contains("CohortLocalHashing"), "steering: {msg}");
                assert!(msg.contains("Planner::plan"), "planner remedy: {msg}");
            }
        }
        assert!(matches!(
            MechanismKind::from_code(0),
            Err(LdpError::Malformed(_))
        ));
    }

    #[test]
    fn reserved_descriptor_byte_must_be_zero() {
        let mut bytes = ProtocolDescriptor::builder(MechanismKind::CohortLocalHashing)
            .domain_size(32)
            .epsilon(1.0)
            .build()
            .unwrap()
            .to_bytes();
        assert_eq!(bytes[2], 0);
        // 1 was the retired linear-memory opt-in flag.
        bytes[2] = 1;
        assert!(matches!(
            ProtocolDescriptor::from_bytes(&bytes),
            Err(LdpError::Malformed(_))
        ));
    }

    #[test]
    fn nan_input_bound_is_rejected_for_every_kind() {
        let builder = ProtocolDescriptor::builder(MechanismKind::OptimizedUnary)
            .domain_size(64)
            .epsilon(1.0);
        assert!(matches!(
            builder.clone().max_value(f64::NAN).build(),
            Err(LdpError::InvalidDescriptor(_))
        ));
        // The same descriptor arriving as bytes: max_value is the
        // trailing f64.
        let mut bytes = builder.build().unwrap().to_bytes();
        let at = bytes.len() - 8;
        bytes[at..].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(matches!(
            ProtocolDescriptor::from_bytes(&bytes),
            Err(LdpError::InvalidDescriptor(_))
        ));
    }

    #[test]
    fn registry_reports_unregistered_kinds() {
        let registry = Registry::core();
        let desc = ProtocolDescriptor::builder(MechanismKind::AppleCms)
            .domain_size(32)
            .epsilon(2.0)
            .sketch(16, 256)
            .build()
            .unwrap();
        assert!(matches!(
            registry.build(&desc),
            Err(LdpError::UnsupportedMechanism(_))
        ));
    }
}
