//! Descriptor-driven dispatch, end to end: for every mechanism kind the
//! workspace registry can build, a full collection round through the
//! byte path — `WireClient` frames in per-shard RNG streams, per-shard
//! `CollectorService`s, shard-order merges, estimates out — must be
//! **bit-identical** to the direct generic engine
//! (`accumulate_mech_sharded_sequential`) over the same inputs, seed,
//! and shard count.
//!
//! This is the acceptance gate of the protocol/wire layer: serialize →
//! transmit → decode → erased dispatch costs exactly zero statistical
//! fidelity.

use ldp::apple::cms::CmsOracle;
use ldp::apple::hcms::HcmsOracle;
use ldp::core::fo::{
    CohortLocalHashing, DirectEncoding, FoAggregator, FrequencyOracle, HadamardResponse,
    LocalHashing, OptimizedLocalHashing, OptimizedUnaryEncoding, SubsetSelection,
    SummationHistogramEncoding, SymmetricUnaryEncoding, ThresholdHistogramEncoding,
};
use ldp::core::protocol::{MechanismKind, ProtocolDescriptor, DEFAULT_COHORT_SEED_BASE};
use ldp::core::snapshot::{snapshot_vec, state_tag, SNAPSHOT_VERSION};
use ldp::core::wire::{put_f64_le, put_u64_le, put_uvarint};
use ldp::core::{Epsilon, LdpError};
use ldp::microsoft::{DBitFlip, OneBitMean};
use ldp::workloads::parallel::{accumulate_mech_sharded_sequential, shard_seed};
use ldp::workloads::service::{CollectorService, MergeTree, WireClient};
use ldp::workloads::window::{WindowConfig, WindowRing};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 2018;
const SHARDS: usize = 7;

fn values(n: usize, d: u64) -> Vec<u64> {
    (0..n).map(|i| (i as u64).wrapping_mul(31) % d).collect()
}

/// Runs the byte path: client frames per shard, one service per shard,
/// merged in shard order.
fn byte_path_estimates(desc: &ProtocolDescriptor, values: &[u64]) -> Vec<f64> {
    let client = WireClient::from_descriptor(desc).expect("client builds");
    let buffers = client
        .frames_sharded(values, SEED, SHARDS)
        .expect("framing succeeds");
    let mut merged: Option<CollectorService> = None;
    for buf in &buffers {
        let mut shard = CollectorService::from_descriptor(desc).expect("service builds");
        let frames = shard.ingest_concat(buf).expect("frames ingest");
        assert!(frames > 0 || buf.is_empty());
        match merged.as_mut() {
            None => merged = Some(shard),
            Some(m) => m.merge(shard).expect("same-descriptor merge"),
        }
    }
    merged.expect("at least one shard").estimates()
}

/// Asserts the byte path reproduces the direct generic engine bit for
/// bit for an item-domain oracle.
fn check_oracle<O>(desc: &ProtocolDescriptor, oracle: O, n: usize)
where
    O: FrequencyOracle + Sync,
    O::Aggregator: Send,
{
    let vals = values(n, oracle.domain_size());
    let direct = accumulate_mech_sharded_sequential(&&oracle, &vals, SEED, SHARDS).estimate();
    let bytes = byte_path_estimates(desc, &vals);
    assert_eq!(direct.len(), bytes.len(), "{}", desc.kind().name());
    for (i, (a, b)) in direct.iter().zip(&bytes).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{} item {i}: direct {a} != bytes {b}",
            desc.kind().name()
        );
    }
}

fn base(kind: MechanismKind, d: u64) -> ProtocolDescriptor {
    ProtocolDescriptor::builder(kind)
        .domain_size(d)
        .epsilon(1.0)
        .build()
        .expect("valid descriptor")
}

#[test]
fn grr_bytes_match_generic_path() {
    let d = 32;
    check_oracle(
        &base(MechanismKind::DirectEncoding, d),
        DirectEncoding::new(d, Epsilon::new(1.0).unwrap()).unwrap(),
        2000,
    );
}

#[test]
fn sue_bytes_match_generic_path() {
    let d = 48;
    check_oracle(
        &base(MechanismKind::SymmetricUnary, d),
        SymmetricUnaryEncoding::new(d, Epsilon::new(1.0).unwrap()).unwrap(),
        1500,
    );
}

#[test]
fn oue_bytes_match_generic_path() {
    let d = 48;
    check_oracle(
        &base(MechanismKind::OptimizedUnary, d),
        OptimizedUnaryEncoding::new(d, Epsilon::new(1.0).unwrap()).unwrap(),
        1500,
    );
}

#[test]
fn she_bytes_match_generic_path() {
    // The one floating-point aggregator: the byte path must reproduce
    // even the f64 sums bit for bit (same per-shard accumulation order,
    // same shard-merge order).
    let d = 24;
    check_oracle(
        &base(MechanismKind::SummationHistogram, d),
        SummationHistogramEncoding::new(d, Epsilon::new(1.0).unwrap()).unwrap(),
        800,
    );
}

#[test]
fn the_bytes_match_generic_path() {
    let d = 48;
    check_oracle(
        &base(MechanismKind::ThresholdHistogram, d),
        ThresholdHistogramEncoding::new(d, Epsilon::new(1.0).unwrap()).unwrap(),
        1500,
    );
}

#[test]
fn olh_cohort_bytes_match_generic_path() {
    let d = 64;
    let desc = ProtocolDescriptor::builder(MechanismKind::CohortLocalHashing)
        .domain_size(d)
        .epsilon(1.0)
        .cohorts(128)
        .build()
        .unwrap();
    check_oracle(
        &desc,
        CohortLocalHashing::optimized_with_seed(
            d,
            128,
            DEFAULT_COHORT_SEED_BASE,
            Epsilon::new(1.0).unwrap(),
        ),
        3000,
    );
}

#[test]
fn hr_bytes_match_generic_path() {
    let d = 50; // non-power-of-two domain exercises the m > d spectrum
    check_oracle(
        &base(MechanismKind::HadamardResponse, d),
        HadamardResponse::new(d, Epsilon::new(1.0).unwrap()),
        2000,
    );
}

#[test]
fn ss_bytes_match_generic_path() {
    let d = 40;
    check_oracle(
        &base(MechanismKind::SubsetSelection, d),
        SubsetSelection::new(d, Epsilon::new(1.0).unwrap()),
        1200,
    );
}

#[test]
fn apple_cms_bytes_match_generic_path() {
    let d = 128;
    let desc = ProtocolDescriptor::builder(MechanismKind::AppleCms)
        .domain_size(d)
        .epsilon(2.0)
        .sketch(8, 128)
        .hash_seed(31)
        .build()
        .unwrap();
    check_oracle(
        &desc,
        CmsOracle::new(8, 128, Epsilon::new(2.0).unwrap(), 31, d),
        2000,
    );
}

#[test]
fn apple_hcms_bytes_match_generic_path() {
    let d = 100;
    let desc = ProtocolDescriptor::builder(MechanismKind::AppleHcms)
        .domain_size(d)
        .epsilon(2.0)
        .sketch(8, 128)
        .hash_seed(31)
        .build()
        .unwrap();
    check_oracle(
        &desc,
        HcmsOracle::new(8, 128, Epsilon::new(2.0).unwrap(), 31, d),
        2000,
    );
}

#[test]
fn microsoft_dbitflip_bytes_match_generic_path() {
    let k = 256;
    let desc = ProtocolDescriptor::builder(MechanismKind::MicrosoftDBitFlip)
        .domain_size(k as u64)
        .bits_per_device(8)
        .epsilon(1.0)
        .build()
        .unwrap();
    check_oracle(
        &desc,
        DBitFlip::new(k, 8, Epsilon::new(1.0).unwrap()).unwrap(),
        2000,
    );
}

#[test]
fn microsoft_onebitmean_bytes_match_generic_path() {
    // Real-valued inputs: the byte path mirrors the shard plan by hand
    // (frames_sharded is item-typed), then merges in shard order.
    let desc = ProtocolDescriptor::builder(MechanismKind::MicrosoftOneBitMean)
        .epsilon(1.0)
        .max_value(500.0)
        .build()
        .unwrap();
    let mech = OneBitMean::new(Epsilon::new(1.0).unwrap(), 500.0).unwrap();
    let inputs: Vec<f64> = (0..3000).map(|i| (i % 500) as f64).collect();

    let direct = accumulate_mech_sharded_sequential(&mech, &inputs, SEED, SHARDS).estimate();

    let client = WireClient::from_descriptor(&desc).unwrap();
    let shards = SHARDS.min(inputs.len());
    let chunk = inputs.len().div_ceil(shards);
    let mut merged: Option<CollectorService> = None;
    for s in 0..shards {
        let (lo, hi) = (
            (s * chunk).min(inputs.len()),
            ((s + 1) * chunk).min(inputs.len()),
        );
        let mut rng = StdRng::seed_from_u64(shard_seed(SEED, s));
        let mut buf = Vec::new();
        for &x in &inputs[lo..hi] {
            client.randomize_real(x, &mut rng, &mut buf).unwrap();
        }
        let mut shard = CollectorService::from_descriptor(&desc).unwrap();
        shard.ingest_concat(&buf).unwrap();
        match merged.as_mut() {
            None => merged = Some(shard),
            Some(m) => m.merge(shard).unwrap(),
        }
    }
    let bytes = merged.unwrap().estimates();
    assert_eq!(direct.len(), bytes.len());
    for (a, b) in direct.iter().zip(&bytes) {
        assert_eq!(a.to_bits(), b.to_bits(), "direct {a} != bytes {b}");
    }
}

#[test]
fn serialized_descriptor_drives_the_same_service() {
    // Ship the descriptor itself over the wire: a service built from
    // the deserialized bytes is indistinguishable from one built from
    // the original.
    let d = 64;
    let desc = ProtocolDescriptor::builder(MechanismKind::CohortLocalHashing)
        .domain_size(d)
        .epsilon(1.5)
        .cohorts(64)
        .build()
        .unwrap();
    let shipped = ProtocolDescriptor::from_bytes(&desc.to_bytes()).unwrap();
    assert_eq!(shipped, desc);

    let vals = values(1000, d);
    let a = byte_path_estimates(&desc, &vals);
    let b = byte_path_estimates(&shipped, &vals);
    assert_eq!(a, b);
}

/// A collector killed mid-ingest and brought back from its checkpoint
/// must finish the round byte-identically to one that never died.
fn check_kill_and_restore(desc: &ProtocolDescriptor, d: u64, n: usize) {
    let client = WireClient::from_descriptor(desc).expect("client builds");
    let vals = values(n, d);
    let buffers = client
        .frames_sharded(&vals, SEED, 2)
        .expect("framing succeeds");
    let (first_half, second_half) = (&buffers[0], &buffers[1]);

    let mut uninterrupted = CollectorService::from_descriptor(desc).unwrap();
    uninterrupted.ingest_concat(first_half).unwrap();
    uninterrupted.ingest_concat(second_half).unwrap();

    // Kill after the first half; bring the state back two ways.
    let ckpt = {
        let mut service = CollectorService::from_descriptor(desc).unwrap();
        service.ingest_concat(first_half).unwrap();
        service.checkpoint()
    };

    let mut from_bytes = CollectorService::from_checkpoint(&ckpt).unwrap();
    from_bytes.ingest_concat(second_half).unwrap();

    let mut in_place = CollectorService::from_descriptor(desc).unwrap();
    in_place.restore(&ckpt).unwrap();
    in_place.ingest_concat(second_half).unwrap();

    let reference = uninterrupted.estimates();
    for (name, resumed) in [("from_checkpoint", from_bytes), ("restore", in_place)] {
        assert_eq!(resumed.descriptor(), uninterrupted.descriptor());
        assert_eq!(resumed.reports(), uninterrupted.reports(), "{name}");
        let est = resumed.estimates();
        assert_eq!(reference.len(), est.len(), "{name}");
        for (i, (a, b)) in reference.iter().zip(&est).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} item {i} after {name}: uninterrupted {a} != resumed {b}",
                desc.kind().name()
            );
        }
        // The resumed state is the uninterrupted state, byte for byte.
        assert_eq!(resumed.checkpoint(), uninterrupted.checkpoint(), "{name}");
    }
}

#[test]
fn killed_and_restored_collectors_are_byte_identical() {
    let d = 64;
    let olhc = ProtocolDescriptor::builder(MechanismKind::CohortLocalHashing)
        .domain_size(d)
        .epsilon(1.0)
        .cohorts(64)
        .build()
        .unwrap();
    check_kill_and_restore(&olhc, d, 2000);

    let cms = ProtocolDescriptor::builder(MechanismKind::AppleCms)
        .domain_size(d)
        .epsilon(2.0)
        .sketch(8, 128)
        .hash_seed(31)
        .build()
        .unwrap();
    check_kill_and_restore(&cms, d, 2000);

    let dbit = ProtocolDescriptor::builder(MechanismKind::MicrosoftDBitFlip)
        .domain_size(d)
        .bits_per_device(8)
        .epsilon(1.0)
        .build()
        .unwrap();
    check_kill_and_restore(&dbit, d, 2000);

    // The floating-point aggregator too: restore replays the exact f64
    // bits, so resumed accumulation stays on the reference stream.
    let she = base(MechanismKind::SummationHistogram, 24);
    check_kill_and_restore(&she, 24, 800);
}

#[test]
fn checkpoint_restore_guards_descriptor_and_integrity() {
    let d = 32;
    let desc = base(MechanismKind::DirectEncoding, d);
    let mut service = CollectorService::from_descriptor(&desc).unwrap();
    let client = WireClient::from_descriptor(&desc).unwrap();
    let buffers = client.frames_sharded(&values(500, d), SEED, 1).unwrap();
    service.ingest_concat(&buffers[0]).unwrap();
    let ckpt = service.checkpoint();

    // Wrong descriptor: refused before any state is touched.
    let other = base(MechanismKind::DirectEncoding, 64);
    let mut wrong = CollectorService::from_descriptor(&other).unwrap();
    let err = wrong.restore(&ckpt).unwrap_err().to_string();
    assert!(err.contains("different"), "descriptor guard: {err}");
    assert_eq!(wrong.reports(), 0, "failed restore must not mutate");

    // Tampered descriptor bytes: the embedded hash catches it.
    let mut bad = ckpt.clone();
    let flip_at = 8; // inside the descriptor region
    bad[flip_at] ^= 0x01;
    assert!(CollectorService::from_checkpoint(&bad).is_err());

    // Truncations never panic and never build a service.
    for cut in 0..ckpt.len() {
        assert!(CollectorService::from_checkpoint(&ckpt[..cut]).is_err());
    }
}

/// Collector → regional → global: whatever the fan-in (grouping), the
/// root estimates are bit-identical to a flat shard-order merge.
fn check_merge_tree(desc: &ProtocolDescriptor, d: u64, n: usize) {
    let client = WireClient::from_descriptor(desc).expect("client builds");
    let vals = values(n, d);
    let buffers = client
        .frames_sharded(&vals, SEED, 8)
        .expect("framing succeeds");
    let checkpoints: Vec<Vec<u8>> = buffers
        .iter()
        .map(|buf| {
            let mut collector = CollectorService::from_descriptor(desc).unwrap();
            collector.ingest_concat(buf).unwrap();
            collector.checkpoint()
        })
        .collect();

    let mut flat = CollectorService::from_checkpoint(&checkpoints[0]).unwrap();
    for ckpt in &checkpoints[1..] {
        let shard = CollectorService::from_checkpoint(ckpt).unwrap();
        flat.merge(shard).unwrap();
    }
    let reference = flat.estimates();

    for fan_in in [2usize, 3, 4, 8] {
        let tree = MergeTree::new(fan_in).unwrap();

        // The intermediate level shrinks as promised.
        let regional = tree.merge_level(&checkpoints).unwrap();
        assert_eq!(regional.len(), checkpoints.len().div_ceil(fan_in));

        let global = tree.merge_to_root(&checkpoints).unwrap();
        assert_eq!(global.reports(), flat.reports(), "fan_in={fan_in}");
        let est = global.estimates();
        assert_eq!(reference.len(), est.len());
        for (i, (a, b)) in reference.iter().zip(&est).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} fan_in {fan_in} item {i}: flat {a} != tree {b}",
                desc.kind().name()
            );
        }
    }
}

#[test]
fn merge_tree_grouping_is_invisible_olhc() {
    let d = 64;
    let desc = ProtocolDescriptor::builder(MechanismKind::CohortLocalHashing)
        .domain_size(d)
        .epsilon(1.0)
        .cohorts(64)
        .build()
        .unwrap();
    check_merge_tree(&desc, d, 3000);
}

#[test]
fn merge_tree_grouping_is_invisible_cms() {
    let d = 128;
    let desc = ProtocolDescriptor::builder(MechanismKind::AppleCms)
        .domain_size(d)
        .epsilon(2.0)
        .sketch(8, 128)
        .hash_seed(31)
        .build()
        .unwrap();
    check_merge_tree(&desc, d, 2000);
}

#[test]
fn merge_tree_grouping_is_invisible_dbitflip() {
    let k = 256u64;
    let desc = ProtocolDescriptor::builder(MechanismKind::MicrosoftDBitFlip)
        .domain_size(k)
        .bits_per_device(8)
        .epsilon(1.0)
        .build()
        .unwrap();
    check_merge_tree(&desc, k, 2000);
}

#[test]
fn merge_tree_rejects_degenerate_inputs() {
    assert!(MergeTree::new(0).is_err());
    assert!(MergeTree::new(1).is_err());
    let tree = MergeTree::new(2).unwrap();
    assert!(tree.merge_to_root(&[]).is_err());
}

/// A GRR `d = 8` service checkpoint written field by field, with a
/// chosen report count `n` and first histogram counter. Any `u64` is a
/// valid varint, so a forged `u64::MAX` restores without complaint.
fn forged_grr_checkpoint(desc: &ProtocolDescriptor, n: u64, counter0: u64) -> Vec<u8> {
    let oracle = DirectEncoding::new(8, Epsilon::new(1.0).unwrap()).unwrap();
    let mut state = Vec::new();
    put_f64_le(&mut state, oracle.p());
    put_f64_le(&mut state, oracle.q());
    put_uvarint(&mut state, n);
    put_uvarint(&mut state, 8);
    put_uvarint(&mut state, counter0);
    state.extend([0u8; 7]);
    let mut snapshot = vec![SNAPSHOT_VERSION, state_tag::DIRECT];
    put_uvarint(&mut snapshot, state.len() as u64);
    snapshot.extend(state);
    checkpoint_blob(&desc.to_bytes(), desc.stable_hash(), &snapshot)
}

/// A service checkpoint around raw descriptor bytes, their hash, and one
/// aggregator snapshot BLOB.
fn checkpoint_blob(desc_bytes: &[u8], desc_hash: u64, snapshot: &[u8]) -> Vec<u8> {
    let mut payload = Vec::new();
    put_uvarint(&mut payload, desc_bytes.len() as u64);
    payload.extend_from_slice(desc_bytes);
    put_u64_le(&mut payload, desc_hash);
    payload.extend_from_slice(snapshot);
    let mut out = vec![SNAPSHOT_VERSION, state_tag::SERVICE_CHECKPOINT];
    put_uvarint(&mut out, payload.len() as u64);
    out.extend(payload);
    out
}

/// A hostile checkpoint whose counters sit at `u64::MAX` must not wrap
/// when a merge tree folds it with honest state: the merge is refused
/// with a typed error, in debug and release alike, and the receiving
/// operand keeps its state.
#[test]
fn merge_tree_refuses_counters_that_would_wrap() {
    let desc = base(MechanismKind::DirectEncoding, 8);
    let empty = CollectorService::from_descriptor(&desc).unwrap();
    assert_eq!(forged_grr_checkpoint(&desc, 0, 0), empty.checkpoint());
    let hostile = forged_grr_checkpoint(&desc, u64::MAX, u64::MAX);
    assert!(CollectorService::from_checkpoint(&hostile).is_ok());

    let client = WireClient::from_descriptor(&desc).unwrap();
    let mut frame = Vec::new();
    let mut rng = StdRng::seed_from_u64(SEED);
    client.randomize_item(0, &mut rng, &mut frame).unwrap();
    let mut one = CollectorService::from_descriptor(&desc).unwrap();
    one.ingest(&frame).unwrap();
    let honest = one.checkpoint();

    let tree = MergeTree::new(2).unwrap();
    for pair in [
        [hostile.clone(), honest.clone()],
        [honest.clone(), hostile.clone()],
    ] {
        match tree.merge_to_root(&pair) {
            Err(LdpError::CounterOverflow(_)) => {}
            Err(e) => panic!("wrong error: {e}"),
            Ok(root) => panic!("merged a wrapping state: {} reports", root.reports()),
        }
    }
    for (dst, src) in [(&honest, &hostile), (&hostile, &honest)] {
        let mut svc = CollectorService::from_checkpoint(dst).unwrap();
        let res = svc.merge(CollectorService::from_checkpoint(src).unwrap());
        assert!(matches!(res, Err(LdpError::CounterOverflow(_))));
        assert_eq!(
            &svc.checkpoint(),
            dst,
            "refused merge leaves state unchanged"
        );
    }

    // A window ring absorbing the forged delta into an empty window: the
    // window alone could take it, the running total cannot, and neither
    // may move.
    let mut ring = WindowRing::new(&desc, WindowConfig::new(10, 3)).unwrap();
    ring.absorb(0, CollectorService::from_checkpoint(&honest).unwrap())
        .unwrap();
    ring.advance_to(10).unwrap();
    let before = ring.checkpoint();
    let res = ring.absorb(15, CollectorService::from_checkpoint(&hostile).unwrap());
    assert!(matches!(res, Err(LdpError::CounterOverflow(_))));
    assert_eq!(ring.checkpoint(), before);
}

/// A checkpoint written by a raw BLH (`code` 6) or OLH (`code` 7)
/// collector, when descriptors could still name them: the linear-memory
/// flag in byte 2, a matching descriptor hash, and the raw report list.
fn retired_raw_hashing_checkpoint(code: u8) -> Vec<u8> {
    let d = 32;
    let eps = Epsilon::new(1.0).unwrap();
    let mut desc = base(MechanismKind::DirectEncoding, d).to_bytes();
    desc[1] = code;
    desc[2] = 1;
    let hash = desc.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let g = if code == 6 {
        2
    } else {
        OptimizedLocalHashing::new(d, eps).g()
    };
    let oracle = LocalHashing::with_g(d, g, eps);
    let mut agg = oracle.new_aggregator();
    agg.accumulate(&oracle.randomize(3, &mut StdRng::seed_from_u64(SEED)));
    checkpoint_blob(&desc, hash, &snapshot_vec(&agg))
}

/// Raw BLH/OLH left the byte path: a checkpoint from one of their
/// collectors is refused on load and in a rollup, with a typed error
/// steering to cohort local hashing.
#[test]
fn registry_steers_raw_olh_to_cohorts() {
    let honest = CollectorService::from_descriptor(&base(MechanismKind::DirectEncoding, 32))
        .unwrap()
        .checkpoint();
    let tree = MergeTree::new(2).unwrap();
    for code in [6u8, 7] {
        let retired = retired_raw_hashing_checkpoint(code);
        for err in [
            CollectorService::from_checkpoint(&retired).unwrap_err(),
            tree.merge_to_root(&[honest.clone(), retired.clone()])
                .unwrap_err(),
        ] {
            let LdpError::UnsupportedMechanism(msg) = err else {
                panic!("code {code}: expected UnsupportedMechanism, got {err:?}");
            };
            assert!(msg.contains("CohortLocalHashing"), "steering: {msg}");
            assert!(msg.contains("Planner::plan"), "planner remedy: {msg}");
        }
    }
}
