//! The client's two byte paths agree: for every registered mechanism
//! kind, one scalar `randomize_item` (`randomize_real` for 1BitMean)
//! call per input on one RNG, passed as `&mut dyn RngCore`, writes the
//! same bytes as the batch `randomize_items_to_frames`
//! (`randomize_reals_to_frames`) seeded with that RNG's seed.
//!
//! Each oracle has a single generic `randomize`; the scalar path runs
//! it with `R = dyn RngCore` and the batch paths with a concrete RNG.
//! This pins that both draw the same stream for every kind the registry
//! can build.

use ldp::core::cost::{QueryShape, WorkloadSpec};
use ldp::core::protocol::MechanismKind;
use ldp::workloads::service::workspace_registry;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const REPORTS: usize = 300;
const MAX_VALUE: f64 = 10.0;

#[test]
fn scalar_client_matches_batch_frames_for_every_kind() {
    let registry = workspace_registry();
    for kind in MechanismKind::ALL {
        let model = registry
            .cost_model(kind)
            .unwrap_or_else(|| panic!("{} has no cost model", kind.name()));
        for (d, seed) in [(16u64, 11u64), (100, 12), (1024, 13)] {
            let mut spec = WorkloadSpec::new(d, 100_000, 1.0);
            if kind == MechanismKind::MicrosoftOneBitMean {
                spec = spec.with_query_shape(QueryShape::Mean {
                    max_value: MAX_VALUE,
                });
            }
            let desc = model
                .tune(&spec)
                .expect("tuning succeeds")
                .unwrap_or_else(|| panic!("{} serves d = {d}", kind.name()));
            let mech = registry.build(&desc).expect("tuned descriptor builds");

            let mut rng = StdRng::seed_from_u64(seed);
            let rng: &mut dyn RngCore = &mut rng;
            let mut scalar = Vec::new();
            let mut batch = Vec::new();
            if kind == MechanismKind::MicrosoftOneBitMean {
                let reals: Vec<f64> = (0..REPORTS)
                    .map(|i| MAX_VALUE * i as f64 / (REPORTS - 1) as f64)
                    .collect();
                for &x in &reals {
                    mech.randomize_real(x, rng, &mut scalar).unwrap();
                }
                mech.randomize_reals_to_frames(&reals, seed, &mut batch)
                    .unwrap();
            } else {
                let items: Vec<u64> = (0..REPORTS as u64)
                    .map(|i| i.wrapping_mul(31) % d)
                    .collect();
                for &v in &items {
                    mech.randomize_item(v, rng, &mut scalar).unwrap();
                }
                mech.randomize_items_to_frames(&items, seed, &mut batch)
                    .unwrap();
            }
            assert!(!scalar.is_empty());
            assert!(
                scalar == batch,
                "{} at d = {d}: scalar and batch frames differ",
                kind.name()
            );
        }
    }
}
