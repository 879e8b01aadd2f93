//! Golden snapshot bytes: one small fixed-seed state per snapshot tag,
//! checked against BLOBs committed in `tests/fixtures/snapshot_golden.txt`.
//!
//! The round-trip proptests in each crate only compare a build with
//! itself, so they cannot see a layout change that both the writer and
//! the reader picked up. This test pins the layout across builds: the
//! fixture was written by the per-aggregator codecs that predate the
//! shared counter-state kernel (`ldp_core::fo::counters`), and every
//! state must still snapshot to exactly those bytes, restore from them,
//! and snapshot again to the same bytes. A deliberate layout change has
//! to bump `SNAPSHOT_VERSION` and regenerate the fixture.

use ldp::apple::cms::{CmsOracle, CmsProtocol};
use ldp::apple::hcms::{HcmsOracle, HcmsProtocol};
use ldp::apple::sfp::{SfpConfig, SfpDiscovery};
use ldp::core::fo::{
    BinaryLocalHashing, CohortLocalHashing, DirectEncoding, FoAggregator, FrequencyOracle,
    HadamardResponse, OptimizedUnaryEncoding, SubsetSelection, SummationHistogramEncoding,
    ThresholdHistogramEncoding,
};
use ldp::core::mech::BatchMechanism;
use ldp::core::protocol::{MechanismKind, ProtocolDescriptor};
use ldp::core::snapshot::{restore_from, snapshot_vec, state_tag, StateSnapshot, SNAPSHOT_VERSION};
use ldp::core::{Epsilon, Result};
use ldp::microsoft::{DBitFlip, OneBitMean, TelemetryConfig, TelemetryPipeline};
use ldp::rappor::{RapporAggregator, RapporClient, RapporParams};
use ldp::workloads::service::{CollectorService, WireClient};
use ldp::workloads::window::{WindowConfig, WindowRing};
use rand::rngs::StdRng;
use rand::SeedableRng;

const FIXTURE: &str = include_str!("fixtures/snapshot_golden.txt");

/// Restores a BLOB into a freshly built, identically configured state
/// and snapshots it again.
type Reload = Box<dyn Fn(&[u8]) -> Result<Vec<u8>>>;

struct Golden {
    name: &'static str,
    tag: u8,
    blob: Vec<u8>,
    reload: Reload,
}

fn eps(e: f64) -> Epsilon {
    Epsilon::new(e).expect("valid epsilon")
}

fn values(n: usize, d: u64) -> Vec<u64> {
    (0..n as u64).map(|i| i.wrapping_mul(7) % d).collect()
}

/// A filled aggregator of a frequency oracle (scalar randomize path).
fn oracle_state<O>(name: &'static str, tag: u8, oracle: O, d: u64, seed: u64) -> Golden
where
    O: FrequencyOracle + 'static,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let mut agg = oracle.new_aggregator();
    for v in values(40, d) {
        agg.accumulate(&oracle.randomize(v, &mut rng));
    }
    fo_state(name, tag, &agg, move || oracle.new_aggregator())
}

/// Wraps any aggregator whose empty twin `fresh` builds.
fn fo_state<A, F>(name: &'static str, tag: u8, agg: &A, fresh: F) -> Golden
where
    A: StateSnapshot,
    F: Fn() -> A + 'static,
{
    Golden {
        name,
        tag,
        blob: snapshot_vec(agg),
        reload: Box::new(move |bytes| {
            let mut twin = fresh();
            restore_from(&mut twin, bytes)?;
            Ok(snapshot_vec(&twin))
        }),
    }
}

fn grr_descriptor() -> ProtocolDescriptor {
    ProtocolDescriptor::builder(MechanismKind::DirectEncoding)
        .domain_size(8)
        .epsilon(1.0)
        .build()
        .expect("valid descriptor")
}

fn telemetry() -> TelemetryPipeline {
    TelemetryPipeline::new(TelemetryConfig {
        total_epsilon: 2.0,
        mean_fraction: 0.5,
        max_value: 10.0,
        buckets: 16,
        bits_per_device: 2,
        gamma: 0.1,
    })
    .expect("valid telemetry config")
}

fn sfp() -> SfpDiscovery {
    let config = SfpConfig {
        word_len: 4,
        fragment_len: 2,
        epsilon: eps(4.0),
        sketch_rows: 2,
        sketch_width: 8,
        fragments_per_position: 2,
    };
    SfpDiscovery::new(config, 5).expect("valid SFP config")
}

/// One small fixed-seed state per snapshot tag.
fn goldens() -> Vec<Golden> {
    let mut out = vec![
        oracle_state(
            "direct",
            state_tag::DIRECT,
            DirectEncoding::new(8, eps(1.0)).unwrap(),
            8,
            1,
        ),
        oracle_state(
            "unary",
            state_tag::UNARY,
            OptimizedUnaryEncoding::new(12, eps(1.0)).unwrap(),
            12,
            2,
        ),
        oracle_state(
            "she",
            state_tag::SHE,
            SummationHistogramEncoding::new(4, eps(1.0)).unwrap(),
            4,
            3,
        ),
        oracle_state(
            "the",
            state_tag::THE,
            ThresholdHistogramEncoding::new(12, eps(1.0)).unwrap(),
            12,
            4,
        ),
        oracle_state(
            "local_hash",
            state_tag::LOCAL_HASH,
            BinaryLocalHashing::new(8, eps(1.0)),
            8,
            5,
        ),
        oracle_state(
            "cohort_hash",
            state_tag::COHORT_HASH,
            CohortLocalHashing::optimized(8, 4, eps(1.0)),
            8,
            6,
        ),
        oracle_state(
            "hadamard",
            state_tag::HADAMARD,
            HadamardResponse::new(6, eps(1.0)),
            6,
            7,
        ),
        oracle_state(
            "subset",
            state_tag::SUBSET,
            SubsetSelection::new(10, eps(1.0)),
            10,
            8,
        ),
        oracle_state(
            "apple_cms",
            state_tag::APPLE_CMS,
            CmsOracle::new(2, 8, eps(2.0), 9, 16),
            16,
            9,
        ),
        oracle_state(
            "apple_hcms",
            state_tag::APPLE_HCMS,
            HcmsOracle::new(2, 8, eps(2.0), 10, 16),
            16,
            10,
        ),
        oracle_state(
            "ms_dbit",
            state_tag::MS_DBIT,
            DBitFlip::new(16, 2, eps(1.0)).unwrap(),
            16,
            11,
        ),
    ];

    let mut rng = StdRng::seed_from_u64(12);
    let cms = CmsProtocol::new(2, 8, eps(2.0), 12);
    let mut server = cms.new_server();
    for v in values(30, 16) {
        server.accumulate_fused(v, &mut rng);
    }
    out.push(fo_state(
        "apple_cms_sketch",
        state_tag::APPLE_CMS_SKETCH,
        &server,
        move || cms.new_server(),
    ));

    let mut rng = StdRng::seed_from_u64(13);
    let hcms = HcmsProtocol::new(2, 8, eps(2.0), 13);
    let mut server = hcms.new_server();
    for v in values(30, 16) {
        server.accumulate(&hcms.randomize(v, &mut rng));
    }
    out.push(fo_state(
        "apple_hcms_sketch",
        state_tag::APPLE_HCMS_SKETCH,
        &server,
        move || hcms.new_server(),
    ));

    let mut rng = StdRng::seed_from_u64(14);
    let discovery = sfp();
    let mut collectors = discovery.new_collectors();
    let words: Vec<&[u8]> = vec![b"face", b"time", b"face", b"book", b"face"];
    discovery.collect(&words, &mut rng, &mut collectors);
    out.push(fo_state(
        "apple_sfp",
        state_tag::APPLE_SFP,
        &collectors,
        move || discovery.new_collectors(),
    ));

    let mut rng = StdRng::seed_from_u64(15);
    let mech = OneBitMean::new(eps(1.0), 10.0).unwrap();
    let mut agg = mech.new_aggregator();
    for i in 0..40 {
        agg.accumulate(&mech.randomize(f64::from(i % 10), &mut rng));
    }
    out.push(fo_state(
        "ms_one_bit_mean",
        state_tag::MS_ONE_BIT_MEAN,
        &agg,
        move || mech.new_aggregator(),
    ));

    let mut rng = StdRng::seed_from_u64(16);
    let pipeline = telemetry();
    let devices: Vec<_> = (0..20).map(|_| pipeline.enroll(&mut rng)).collect();
    let round = pipeline.round(&devices);
    let inputs = round.inputs(&(0..20).map(|i| f64::from(i % 10)).collect::<Vec<_>>());
    let mut agg = pipeline.new_round_aggregator();
    round.accumulate_batch(&inputs, &mut rng, &mut agg);
    out.push(fo_state(
        "ms_telemetry",
        state_tag::MS_TELEMETRY,
        &agg,
        move || pipeline.new_round_aggregator(),
    ));

    let mut rng = StdRng::seed_from_u64(17);
    let params = RapporParams::small(3).unwrap();
    let mut agg = RapporAggregator::new(params.clone());
    for i in 0..30u64 {
        let mut client = RapporClient::with_random_cohort(params.clone(), &mut rng);
        agg.accumulate(&client.report((i % 5).to_le_bytes().as_slice(), &mut rng));
    }
    out.push(fo_state("rappor", state_tag::RAPPOR, &agg, move || {
        RapporAggregator::new(params.clone())
    }));

    let desc = grr_descriptor();
    let client = WireClient::from_descriptor(&desc).unwrap();
    let mut rng = StdRng::seed_from_u64(18);
    let mut service = CollectorService::from_descriptor(&desc).unwrap();
    let mut ring = WindowRing::new(&desc, WindowConfig::new(10, 3)).unwrap();
    let mut frame = Vec::new();
    for (i, v) in values(40, 8).into_iter().enumerate() {
        frame.clear();
        client.randomize_item(v, &mut rng, &mut frame).unwrap();
        service.ingest(&frame).unwrap();
        ring.ingest(i as u64, &frame).unwrap();
    }
    out.push(Golden {
        name: "service_checkpoint",
        tag: state_tag::SERVICE_CHECKPOINT,
        blob: service.checkpoint(),
        reload: Box::new(|bytes| Ok(CollectorService::from_checkpoint(bytes)?.checkpoint())),
    });
    out.push(Golden {
        name: "window_ring",
        tag: state_tag::WINDOW_RING,
        blob: ring.checkpoint(),
        reload: Box::new(|bytes| Ok(WindowRing::from_checkpoint(bytes)?.checkpoint())),
    });
    out
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn from_hex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("fixture hex"))
        .collect()
}

/// `name -> hex` pairs from the fixture, in file order.
fn fixture() -> Vec<(&'static str, Vec<u8>)> {
    FIXTURE
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, hex) = l.split_once(' ').expect("`name hex` fixture line");
            (name, from_hex(hex.trim()))
        })
        .collect()
}

#[test]
fn every_state_tag_has_a_golden_blob() {
    let mut tags: Vec<u8> = goldens().iter().map(|g| g.tag).collect();
    tags.sort_unstable();
    let expected = [
        state_tag::DIRECT,
        state_tag::UNARY,
        state_tag::SHE,
        state_tag::THE,
        state_tag::LOCAL_HASH,
        state_tag::COHORT_HASH,
        state_tag::HADAMARD,
        state_tag::SUBSET,
        state_tag::APPLE_CMS_SKETCH,
        state_tag::APPLE_CMS,
        state_tag::APPLE_HCMS_SKETCH,
        state_tag::APPLE_HCMS,
        state_tag::APPLE_SFP,
        state_tag::MS_DBIT,
        state_tag::MS_ONE_BIT_MEAN,
        state_tag::MS_TELEMETRY,
        state_tag::RAPPOR,
        state_tag::SERVICE_CHECKPOINT,
        state_tag::WINDOW_RING,
    ];
    assert_eq!(tags, expected);
    let names: Vec<&str> = fixture().into_iter().map(|(n, _)| n).collect();
    let built: Vec<&str> = goldens().iter().map(|g| g.name).collect();
    assert_eq!(names, built, "fixture and builders cover the same states");
}

#[test]
fn snapshots_match_golden_bytes_and_restore() {
    assert_eq!(
        SNAPSHOT_VERSION, 1,
        "a layout change must regenerate the fixture"
    );
    let fixture = fixture();
    for (golden, (name, want)) in goldens().iter().zip(&fixture) {
        assert_eq!(golden.name, *name);
        assert_eq!(
            to_hex(&golden.blob),
            to_hex(want),
            "{name}: snapshot bytes drifted from the golden BLOB"
        );
        assert_eq!(want[0], SNAPSHOT_VERSION, "{name}: version byte");
        assert_eq!(want[1], golden.tag, "{name}: state tag byte");
        let again = (golden.reload)(want).unwrap_or_else(|e| panic!("{name}: restore: {e}"));
        assert_eq!(to_hex(&again), to_hex(want), "{name}: restore + snapshot");
    }
}
