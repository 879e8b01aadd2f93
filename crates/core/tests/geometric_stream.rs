//! Pins the geometric-skip RNG stream of the small-domain unary
//! configurations.
//!
//! The unary family (SUE/OUE, THE) picks its flip sampler from `d` when
//! the oracle is built: the word-parallel sampler from one full word on
//! (`d ≥ 64`), geometric skipping below. Below that threshold the
//! reports, frames and aggregates must stay byte-identical to the builds
//! that predate the word sampler. The fixture
//! `fixtures/geometric_frames.txt` holds frames written by such a build
//! (fused frame writer, fixed seed); every configuration here must still
//! write exactly those bytes, through both the fused writer and the
//! materialize-then-encode path.

use ldp_core::fo::{
    OptimizedUnaryEncoding, SetBitSampler, SymmetricUnaryEncoding, ThresholdHistogramEncoding,
};
use ldp_core::wire::{FusedUnaryMechanism, OracleMechanism, WireMechanism};
use ldp_core::Epsilon;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FIXTURE: &str = include_str!("fixtures/geometric_frames.txt");

fn eps(e: f64) -> Epsilon {
    Epsilon::new(e).expect("valid epsilon")
}

/// `n` reports over `[0, d)`, seeded by `seed`.
fn frames<O: SetBitSampler + Clone>(oracle: &O, n: u64, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let d = oracle.domain_size();
    let values: Vec<u64> = (0..n).map(|i| i.wrapping_mul(5) % d).collect();
    let mut fused = Vec::new();
    FusedUnaryMechanism(oracle.clone())
        .try_randomize_frames(&values, &mut StdRng::seed_from_u64(seed), &mut fused)
        .expect("in-domain values");
    let mut encoded = Vec::new();
    OracleMechanism(oracle.clone())
        .try_randomize_frames(&values, &mut StdRng::seed_from_u64(seed), &mut encoded)
        .expect("in-domain values");
    (fused, encoded)
}

fn configs() -> Vec<(&'static str, Vec<u8>, Vec<u8>)> {
    let oue12 = OptimizedUnaryEncoding::new(12, eps(1.0)).expect("domain");
    let the12 = ThresholdHistogramEncoding::new(12, eps(1.0)).expect("domain");
    let sue63 = SymmetricUnaryEncoding::new(63, eps(1.0)).expect("domain");
    let (a, b) = frames(&oue12, 24, 1);
    let (c, d) = frames(&the12, 24, 2);
    let (e, f) = frames(&sue63, 16, 3);
    vec![
        ("oue_d12_eps1", a, b),
        ("the_d12_eps1", c, d),
        ("sue_d63_eps1", e, f),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn geometric_configs_write_pinned_frames() {
    let golden: Vec<(&str, &str)> = FIXTURE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| l.split_once(' ').expect("`name hex` line"))
        .collect();
    let configs = configs();
    assert_eq!(golden.len(), configs.len(), "one fixture line per config");
    for (name, fused, encoded) in configs {
        let want = golden
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name}: no fixture line"))
            .1;
        assert_eq!(hex(&fused), want, "{name}: fused frames drifted");
        assert_eq!(hex(&encoded), want, "{name}: encoded frames drifted");
    }
}
