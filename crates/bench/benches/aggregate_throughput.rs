//! Server-side aggregation and estimation cost — accumulate must be O(1)
//! amortized per report, estimation linear with small constants.
//!
//! Besides the criterion groups, this bench records the library's hot
//! paths at deployment-ish scale in `BENCH_aggregate.json` at the
//! workspace root, so the perf trajectory is recorded run over run:
//!
//! * client-side randomize→accumulate through the fused batch paths,
//!   sequential: OUE and THE (`oue_batch_randomize_ns`,
//!   `the_batch_randomize_ns`), Apple CMS (`apple_cms_batch_ns`) and
//!   Microsoft dBitFlip (`ms_dbitflip_batch_ns`);
//! * the whole collect loop: the fused batch path on one worker vs
//!   fanned out across the parallel engine's actual worker count
//!   (`thread_scaling`), with the real worker count recorded as
//!   `threads` and the host's core count as `cores` — on a single-core
//!   host `thread_scaling` sits at ~1;
//! * the wire layer: the fused in-process OUE collect vs collecting the
//!   same traffic as bytes through `CollectorService` (frame parse +
//!   decode + validate + accumulate) — `wire_overhead`, gated < 1.3× in
//!   CI, with the client-fleet framing cost and end-to-end ratio
//!   recorded alongside (`wire_client_frame_ns`, `wire_e2e_overhead`);
//! * the concurrent pipeline: the same pre-framed traffic through the
//!   bounded-queue collector fleet, thread spawn to shard-order merge
//!   (`pipeline_ingest_ns`), with the peak queue depth recorded as
//!   `pipeline_queue_hwm`;
//! * the durable-snapshot layer: one snapshot→restore cycle of the
//!   loaded OLH-C aggregator (the C×g count matrix) and its BLOB size
//!   (`snapshot_roundtrip_ns`, `snapshot_bytes`);
//! * the unary one-hot channel's two zero-position samplers, recorded in a
//!   nested `"sampler"` sub-object: ns per `d = 4096` report of words for
//!   geometric skipping (set bits OR-ed into zeroed words, as the frame
//!   writer did before the word sampler) and the shipped
//!   `ldp_core::fo::batch::OneHotSampler` (word-parallel at this `d`) at
//!   `q ∈ {1/128, 1/64, 1/32, 0.27}`, `word_speedup_q027`, the ratio
//!   at OUE's ε = 1 flip rate, and `word_draws_q027`, the RNG words one
//!   report draws there (counted, not timed);
//! * the **decode kernels**, recorded in a nested `"decode"` sub-object
//!   so the collect-side and decode-side trajectories stay separable:
//!   full-domain OLH estimation, raw-report rescan vs cohort count
//!   matrix (`olh_estimate_speedup`); the tiled radix-4 FWHT vs the
//!   radix-2 reference butterfly (`fwht_tiled_speedup`, bit-identical
//!   outputs); SFP candidate-frontier decode vs the exhaustive oracle
//!   (`sfp_decode_speedup`, same discovered-word set); and the absolute
//!   cost of the HCMS decode-once-query-many path, the RAPPOR sparse
//!   active-set LASSO and the batched-Laplace SHE randomize
//!   (`hcms_cached_decode_ns`, `rappor_sparse_lasso_ns`,
//!   `she_batched_randomize_ns`).
//!
//! Set `LDP_BENCH_SMOKE=1` for a seconds-scale CI smoke configuration,
//! and `LDP_BENCH_OUT=<path>` to redirect the JSON.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ldp_apple::cms::CmsOracle;
use ldp_apple::hcms::HcmsProtocol;
use ldp_apple::sfp::{SfpConfig, SfpDiscovery};
use ldp_core::fo::batch::{CountingRng, GeometricSkip, OneHotSampler};
use ldp_core::fo::{
    CohortLocalHashing, FoAggregator, FrequencyOracle, LocalHashing, OptimizedLocalHashing,
    OptimizedUnaryEncoding, SummationHistogramEncoding, ThresholdHistogramEncoding,
};
use ldp_core::protocol::{MechanismKind, ProtocolDescriptor};
use ldp_core::Epsilon;
use ldp_microsoft::DBitFlip;
use ldp_planner::{workspace_planner, WorkloadSpec};
use ldp_rappor::{RapporAggregator, RapporClient, RapporParams};
use ldp_workloads::frontier;
use ldp_workloads::parallel::{
    accumulate_mech_sharded_sequential, accumulate_mech_sharded_with_workers, planned_workers,
};
use ldp_workloads::pipeline::{
    split_frames, BackpressurePolicy, CollectorPipeline, PipelineConfig,
};
use ldp_workloads::service::{CollectorService, WireClient};
use ldp_workloads::window::{WindowConfig, WindowRing};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn bench_aggregate(c: &mut Criterion) {
    let eps = Epsilon::new(1.0).expect("valid eps");
    let mut rng = StdRng::seed_from_u64(2);
    let n = 10_000usize;

    let mut group = c.benchmark_group("server_aggregate");
    group.sample_size(30);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(n as u64));

    // OUE: bit-packed accumulate over d=1024.
    {
        let oracle = OptimizedUnaryEncoding::new(1024, eps).expect("valid domain");
        let reports: Vec<_> = (0..n)
            .map(|i| oracle.randomize((i % 1024) as u64, &mut rng))
            .collect();
        group.bench_function("oue_d1024_accumulate_10k", |b| {
            b.iter(|| {
                let mut agg = oracle.new_aggregator();
                for r in &reports {
                    agg.accumulate(black_box(r));
                }
                agg.reports()
            })
        });
    }

    // OLH: accumulate is a push; estimation is the expensive side.
    {
        let oracle = OptimizedLocalHashing::new(1 << 20, eps);
        let reports: Vec<_> = (0..n)
            .map(|i| oracle.randomize((i % 1000) as u64, &mut rng))
            .collect();
        let mut agg = oracle.new_aggregator();
        for r in &reports {
            agg.accumulate(r);
        }
        let candidates: Vec<u64> = (0..100).collect();
        group.bench_function("olh_estimate_100_items_over_10k_reports", |b| {
            b.iter(|| agg.estimate_items(black_box(&candidates)))
        });
    }

    // HCMS: accumulate + one FWHT sweep per estimate batch.
    {
        let proto = HcmsProtocol::new(64, 1024, Epsilon::new(4.0).expect("valid eps"), 5);
        let reports: Vec<_> = (0..n)
            .map(|i| proto.randomize((i % 50) as u64, &mut rng))
            .collect();
        group.bench_function("hcms_accumulate_10k", |b| {
            b.iter(|| {
                let mut server = proto.new_server();
                for r in &reports {
                    server.accumulate(black_box(r));
                }
                server.reports()
            })
        });
        let mut server = proto.new_server();
        for r in &reports {
            server.accumulate(r);
        }
        let items: Vec<u64> = (0..50).collect();
        group.bench_function("hcms_estimate_50_items", |b| {
            b.iter(|| server.estimate_items(black_box(&items)))
        });
    }

    // RAPPOR: accumulate + LASSO/OLS decode of 100 candidates.
    {
        let params = RapporParams::small(8).expect("valid params");
        let reports: Vec<_> = (0..2000)
            .map(|i| {
                let mut client = RapporClient::with_random_cohort(params.clone(), &mut rng);
                client.report(format!("url-{}", i % 20).as_bytes(), &mut rng)
            })
            .collect();
        let mut agg = RapporAggregator::new(params.clone());
        for r in &reports {
            agg.accumulate(r);
        }
        let names: Vec<String> = (0..100).map(|i| format!("url-{i}")).collect();
        let candidates: Vec<&[u8]> = names.iter().map(|s| s.as_bytes()).collect();
        group.bench_function("rappor_decode_100_candidates", |b| {
            b.iter(|| agg.decode(black_box(&candidates)))
        });
    }

    group.finish();
}

/// Times `f` with `reps` measured repetitions and returns the median
/// nanoseconds per run. The criterion `Bencher` keeps its samples
/// private, and the raw-scan side of the comparison takes ~1 s per run at
/// full size, so this manual loop is both necessary and adequate.
fn median_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median of an already-collected sample vector — companion to
/// `median_ns` for the paired-measurement loops that time several sides
/// of one comparison inside the same rep.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The recorded trajectory at deployment-ish scale (see the module docs
/// for every key). Prints each measurement and records them all in
/// `BENCH_aggregate.json`.
fn bench_old_vs_new(_c: &mut Criterion) {
    let smoke = std::env::var("LDP_BENCH_SMOKE").is_ok();
    // Full size matches the acceptance target (n=100k, d=4096); smoke
    // keeps CI in the seconds range while exercising the same code paths.
    let (n, d, estimate_reps) = if smoke {
        (10_000usize, 512u64, 3usize)
    } else {
        (100_000usize, 4096u64, 3usize)
    };
    let cohorts = 1024u32;
    let shards = 16usize;
    let eps = Epsilon::new(1.0).expect("valid eps");
    let cohort_oracle = CohortLocalHashing::optimized(d, cohorts, eps);
    let raw_oracle = LocalHashing::with_g(d, cohort_oracle.g(), eps);
    let mut rng = StdRng::seed_from_u64(11);
    let values: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(31) % d).collect();

    // --- Estimation: raw rescan vs cohort matrix (unchanged since PR 2).
    let mut raw_agg = raw_oracle.new_aggregator();
    let mut cohort_agg = cohort_oracle.new_aggregator();
    for &v in &values {
        raw_agg.accumulate(&raw_oracle.randomize(v, &mut rng));
        cohort_agg.accumulate(&cohort_oracle.randomize(v, &mut rng));
    }
    let raw_estimate_ns = median_ns(estimate_reps, || {
        black_box(raw_agg.estimate());
    });
    let cohort_estimate_ns = median_ns(estimate_reps.max(11), || {
        black_box(cohort_agg.estimate());
    });
    let olh_estimate_speedup = raw_estimate_ns / cohort_estimate_ns;

    // --- Randomization: the fused batch randomize→accumulate paths,
    // sequential (algorithmic cost only — thread gains are measured
    // separately below).
    let rand_reps = 3;
    let oue = OptimizedUnaryEncoding::new(d, eps).expect("valid domain");
    let oue_batch_randomize_ns = median_ns(rand_reps, || {
        let mut rng = StdRng::seed_from_u64(7);
        let mut agg = oue.new_aggregator();
        oue.randomize_accumulate_batch(&values, &mut rng, &mut agg);
        black_box(agg.reports());
    });

    // THE samples its thresholded-Laplace channel as an exact Bernoulli
    // channel, word-parallel.
    let the = ThresholdHistogramEncoding::new(d, eps).expect("valid domain");
    let the_batch_randomize_ns = median_ns(rand_reps, || {
        let mut rng = StdRng::seed_from_u64(7);
        let mut agg = the.new_aggregator();
        the.randomize_accumulate_batch(&values, &mut rng, &mut agg);
        black_box(agg.reports());
    });

    // Apple CMS (k=16 rows, m=1024 buckets, ε=2): geometric-skips the
    // sign flips (2 + m·q draws) and lands O(1 + m·q) integer counter
    // increments per report.
    let cms = CmsOracle::new(16, 1024, Epsilon::new(2.0).expect("valid eps"), 31, d);
    let cms_values: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(17) % d).collect();
    let apple_cms_batch_ns = median_ns(rand_reps, || {
        let mut rng = StdRng::seed_from_u64(7);
        let mut agg = cms.new_aggregator();
        cms.randomize_accumulate_batch(&cms_values, &mut rng, &mut agg);
        black_box(agg.reports());
    });

    // Microsoft dBitFlip (k=1024 buckets, d=16 bits/device, ε=1):
    // rejection-samples the d buckets (expected O(d) draws, no pool) and
    // geometric-skips the flips.
    let dbf = DBitFlip::new(1024, 16, eps).expect("valid params");
    let dbf_values: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(13) % 1024).collect();
    let ms_dbitflip_batch_ns = median_ns(rand_reps, || {
        let mut rng = StdRng::seed_from_u64(7);
        let mut agg = DBitFlip::new_aggregator(&dbf);
        dbf.randomize_accumulate_batch(&dbf_values, &mut rng, &mut agg);
        black_box(agg.reports());
    });

    // --- Collection: the batch path on one worker vs on the parallel
    // engine, isolating the pure thread contribution.
    // Median of 7: the wire-overhead gate below compares two ~0.5 s
    // measurements whose ratio a single noisy rep can swing by ±25% on a
    // busy host; 7 reps keeps the medians honest without moving the full
    // run out of the minutes range.
    let collect_reps = 7;
    let threads = planned_workers(shards);
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let batch_collect_1w_ns = median_ns(collect_reps, || {
        black_box(accumulate_mech_sharded_sequential(&&oue, &values, 5, shards).reports());
    });
    let par_collect_ns = median_ns(collect_reps, || {
        black_box(
            accumulate_mech_sharded_with_workers(&&oue, &values, 5, shards, threads).reports(),
        );
    });
    let thread_scaling = batch_collect_1w_ns / par_collect_ns;

    // --- Wire overhead: the same OUE collect as above, fused in-process
    // (`direct_collect_ns`, the direct side) vs collecting the same
    // traffic as bytes through `CollectorService` — frame parse, decode,
    // validation, accumulate. In a deployment the collector never
    // randomizes: framing happens on the client fleet, so the service's
    // cost of a collection round is the ingest side, and `wire_overhead`
    // gates exactly that (the service must not be slower than the fused
    // in-process engine by more than 1.3×). The client-side framing cost
    // and the resulting end-to-end ratio are recorded alongside
    // (`wire_client_frame_ns`, `wire_e2e_overhead`, gated < 1.35×) —
    // both ends of the byte path are fused now: the client samples set
    // bits straight into the outgoing frame buffer
    // (`FusedUnaryMechanism::try_randomize_frames`) and the service adds
    // payload bytes straight into the counters, eight frames at a time
    // (`FusedUnaryMechanism::fold_frames`), so the
    // remaining tax over the in-process engine is one packed write plus
    // one packed read of each report's bits.
    let wire_desc = ProtocolDescriptor::builder(MechanismKind::OptimizedUnary)
        .domain_size(d)
        .epsilon(1.0)
        .build()
        .expect("valid descriptor");
    let wire_client = WireClient::from_descriptor(&wire_desc).expect("client builds");
    // All three sides (fused direct collect, client framing, service
    // ingest) are timed back-to-back inside each rep, and the overhead
    // ratios are medians of *per-rep* ratios. This is a shared 1-core
    // container whose throughput drifts by double-digit percentages
    // over minutes; sides measured in separate median_ns blocks put
    // that drift straight into the ratio, while all three sides of one
    // rep see the same machine.
    let buffers = wire_client
        .frames_sharded(&values, 5, shards)
        .expect("framing succeeds");
    // The framing side reuses one set of per-shard buffers across reps
    // (`frames_sharded_into`), as a client fleet does round over round —
    // a fresh 50 MB `frames_sharded` allocation per rep would charge the
    // client ~12k mmap page faults the steady state never pays.
    let mut frame_bufs = buffers.clone();
    let mut direct_samples = Vec::with_capacity(collect_reps);
    let mut frame_samples = Vec::with_capacity(collect_reps);
    let mut ingest_samples = Vec::with_capacity(collect_reps);
    let mut service_ratio_samples = Vec::with_capacity(collect_reps);
    let mut e2e_ratio_samples = Vec::with_capacity(collect_reps);
    for _ in 0..collect_reps {
        let start = Instant::now();
        black_box(accumulate_mech_sharded_sequential(&&oue, &values, 5, shards).reports());
        let direct = start.elapsed().as_nanos() as f64;
        let start = Instant::now();
        wire_client
            .frames_sharded_into(&values, 5, shards, &mut frame_bufs)
            .expect("framing succeeds");
        black_box(frame_bufs.len());
        let frame = start.elapsed().as_nanos() as f64;
        let start = Instant::now();
        let mut service = CollectorService::from_descriptor(&wire_desc).expect("service builds");
        for buf in &buffers {
            service.ingest_concat(buf).expect("frames ingest");
        }
        black_box(service.reports());
        let ingest = start.elapsed().as_nanos() as f64;
        direct_samples.push(direct);
        frame_samples.push(frame);
        ingest_samples.push(ingest);
        service_ratio_samples.push(ingest / direct);
        e2e_ratio_samples.push((frame + ingest) / direct);
    }
    let direct_collect_ns = median(direct_samples);
    let wire_client_frame_ns = median(frame_samples);
    let wire_collect_ns = median(ingest_samples);
    let wire_overhead = median(service_ratio_samples);
    let wire_e2e_overhead = median(e2e_ratio_samples);

    // --- Concurrent pipeline: the same pre-framed traffic pushed through
    // the bounded-queue collector fleet — submit, worker drain, ingest
    // into per-shard services, shard-order merge at finish. Includes the
    // pipeline's whole lifecycle (thread spawn to join) so the number is
    // the honest deployment cost of a collection round. On this host the
    // value of record is the absolute ingest cost plus the queue
    // high-water mark; the concurrency win itself is algorithmic (the
    // shard-order merge is bit-identical at any worker count) and
    // materializes on multi-core collectors.
    let pipeline_config = PipelineConfig {
        shards,
        workers: threads,
        queue_depth: 64,
        policy: BackpressurePolicy::Block,
    };
    let pipeline_batches: Vec<(usize, Vec<u8>)> = buffers
        .iter()
        .enumerate()
        .flat_map(|(shard, buf)| {
            split_frames(buf, 4)
                .expect("frame split")
                .into_iter()
                .map(move |batch| (shard, batch))
        })
        .collect();
    let mut pipeline_queue_hwm = 0usize;
    let pipeline_ingest_ns = median_ns(collect_reps, || {
        let pipeline =
            CollectorPipeline::new(&wire_desc, pipeline_config).expect("pipeline builds");
        for (shard, batch) in &pipeline_batches {
            pipeline.submit(*shard, batch.clone()).expect("submit");
        }
        let (service, stats) = pipeline.finish().expect("pipeline finish");
        pipeline_queue_hwm = pipeline_queue_hwm.max(stats.queue_hwm());
        black_box(service.reports());
    });

    // --- Durable snapshots: one checkpoint/restore cycle of the loaded
    // OLH-C aggregator (the C×g cohort count matrix, the biggest state in
    // the workspace at these parameters), plus the BLOB size — the cost
    // story for the merge-tree layer, recorded run over run.
    let snapshot_bytes = ldp_core::snapshot::snapshot_vec(&cohort_agg).len();
    let snapshot_roundtrip_ns = median_ns(collect_reps, || {
        let blob = ldp_core::snapshot::snapshot_vec(&cohort_agg);
        let mut fresh = cohort_oracle.new_aggregator();
        ldp_core::snapshot::restore_from(&mut fresh, &blob).expect("snapshot restores");
        black_box(fresh.reports());
    });

    // --- Sliding window ring: steady-state advance (one collection
    // round's pre-framed traffic into a fresh bucket, retiring the
    // expired window from the running total by exact subtraction) and a
    // full decode of the sliding total. OLH-C, the mechanism the
    // `ldp-sim --scenario windows` deployment runs on.
    let win_windows = 8usize;
    let n_win = n / 10;
    let win_desc = ProtocolDescriptor::builder(MechanismKind::CohortLocalHashing)
        .domain_size(d)
        .epsilon(1.0)
        .cohorts(64)
        .build()
        .expect("valid descriptor");
    let win_client = WireClient::from_descriptor(&win_desc).expect("client builds");
    let win_buf = win_client
        .frames_sharded(&values[..n_win], 13, 1)
        .expect("framing succeeds")
        .remove(0);
    let mut ring =
        WindowRing::new(&win_desc, WindowConfig::new(1, win_windows)).expect("ring builds");
    let mut next_bucket = 0u64;
    for _ in 0..win_windows {
        ring.ingest_concat(next_bucket, &win_buf)
            .expect("ring prefill");
        next_bucket += 1;
    }
    let window_advance_ns = median_ns(collect_reps, || {
        ring.ingest_concat(next_bucket, &win_buf)
            .expect("ring advances");
        next_bucket += 1;
        black_box(ring.reports());
    });
    assert_eq!(
        ring.stats().retired_rebuild,
        0,
        "OLH-C retirement must stay on the subtract path"
    );
    let window_estimate_ns = median_ns(estimate_reps.max(11), || {
        black_box(ring.estimates());
    });

    // --- Mechanism planner: full plan latency over the workspace
    // registry, and predicted-vs-measured error ranking agreement over
    // the shared frontier grid (`ldp_workloads::frontier`, also behind
    // `ldp-sim --scenario plan`). Agreement below 1.0 is expected: OLH-C's
    // formula is a documented approximation (it charges the worst-case
    // collision mass), and the frontier harness exists to keep that gap
    // measured rather than assumed.
    let planner = workspace_planner();
    let plan_spec = WorkloadSpec::new(d, n as u64, 1.0)
        .with_memory_budget(64 * 1024)
        .with_report_budget(16);
    let planner_plan_ns = median_ns(rand_reps.max(11), || {
        black_box(planner.plan(black_box(&plan_spec)).expect("spec plans"));
    });
    let planner_n = if smoke { 4_000usize } else { 30_000 };
    let cells = frontier::sweep(&planner, planner_n, 1.1, 2024).expect("frontier sweeps");
    let planner_cells = cells.len();
    let planner_agreed = cells.iter().filter(|c| c.agrees()).count();
    let planner_agreement = planner_agreed as f64 / planner_cells.max(1) as f64;

    // --- Decode kernels. Where a kernel has a retained oracle to race,
    // both sides get the same odd rep count: median_ns over an even count
    // returns the slower sample, and asymmetric counts would bias the
    // recorded speedup.

    // Tiled radix-4 FWHT vs the radix-2 reference butterfly, at a
    // transform size whose working set spills L1 (where the tiling
    // matters). The per-rep clone is identical on both sides.
    let fwht_m = if smoke { 1usize << 14 } else { 1usize << 17 };
    let fwht_reps = 11;
    let fwht_data: Vec<f64> = (0..fwht_m)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect();
    let fwht_reference_ns = median_ns(fwht_reps, || {
        let mut buf = fwht_data.clone();
        ldp_sketch::fwht_reference(&mut buf);
        black_box(&buf);
    });
    let fwht_tiled_ns = median_ns(fwht_reps, || {
        let mut buf = fwht_data.clone();
        ldp_sketch::fwht(&mut buf);
        black_box(&buf);
    });
    let fwht_tiled_speedup = fwht_reference_ns / fwht_tiled_ns;

    // HCMS: answering a batch of point queries against a frozen sketch.
    // The decode kernel inverts the spectrum once and answers each query
    // with k hash-and-gather probes.
    let (hcms_k, hcms_m, hcms_q) = if smoke {
        (8usize, 512usize, 16u64)
    } else {
        (16, 2048, 32)
    };
    let hcms_proto = HcmsProtocol::new(hcms_k, hcms_m, Epsilon::new(4.0).expect("valid eps"), 5);
    let mut hcms_server = hcms_proto.new_server();
    {
        let mut hrng = StdRng::seed_from_u64(17);
        for i in 0..n / 10 {
            hcms_server.accumulate(&hcms_proto.randomize((i % 64) as u64, &mut hrng));
        }
    }
    let hcms_queries: Vec<u64> = (0..hcms_q).collect();
    let hcms_cached_decode_ns = median_ns(rand_reps, || {
        black_box(hcms_server.estimate_items(&hcms_queries));
    });

    // SFP: candidate-frontier decode vs the exhaustive oracle on a seeded
    // heavy-hitter workload (both must discover the same words; the
    // frontier only prunes fragments below the noise floor).
    let sfp_n = if smoke { 4_000usize } else { 20_000 };
    let sfp = SfpDiscovery::new(
        SfpConfig::simulation(Epsilon::new(6.0).expect("valid eps")),
        99,
    )
    .expect("valid config");
    let mut sfp_collectors = sfp.new_collectors();
    {
        let mut srng = StdRng::seed_from_u64(7);
        let population: Vec<&[u8]> = (0..sfp_n)
            .map(|i| -> &[u8] {
                match i % 10 {
                    0..=5 => b"selfie",
                    6..=8 => b"emojis",
                    _ => b"xq1-z0",
                }
            })
            .collect();
        sfp.collect(&population, &mut srng, &mut sfp_collectors);
    }
    let sfp_exhaustive_decode_ns = median_ns(rand_reps, || {
        black_box(sfp.decode_exhaustive(&sfp_collectors));
    });
    let sfp_candidate_decode_ns = median_ns(rand_reps, || {
        black_box(sfp.decode(&sfp_collectors));
    });
    let sfp_decode_speedup = sfp_exhaustive_decode_ns / sfp_candidate_decode_ns;

    // RAPPOR: sparse active-set LASSO decode over a candidate list
    // dominated by absent values (the deployment shape: the known
    // dictionary is much larger than the heavy-hitter set, and the sparse
    // solver skips converged zeros).
    let (n_rappor, n_rappor_cand) = if smoke {
        (2_000usize, 100usize)
    } else {
        (10_000, 400)
    };
    let rappor_params = RapporParams::new(64, 2, 8, 0.25, 0.35, 0.65).expect("valid params");
    let mut rappor_agg = RapporAggregator::new(rappor_params.clone());
    {
        let mut rrng = StdRng::seed_from_u64(23);
        for i in 0..n_rappor {
            let word = format!("url-{}", i % 20);
            let mut client = RapporClient::with_random_cohort(rappor_params.clone(), &mut rrng);
            rappor_agg.accumulate(&client.report(word.as_bytes(), &mut rrng));
        }
    }
    let rappor_names: Vec<String> = (0..n_rappor_cand).map(|i| format!("url-{i}")).collect();
    let rappor_cands: Vec<&[u8]> = rappor_names.iter().map(|s| s.as_bytes()).collect();
    let rappor_sparse_lasso_ns = median_ns(rand_reps, || {
        black_box(rappor_agg.decode(&rappor_cands));
    });

    // SHE: the batched inverse-CDF Laplace randomize→accumulate (one
    // uniform block + branchless transform per report, shared scratch).
    let (she_d, n_she) = if smoke {
        (256u64, 2_000usize)
    } else {
        (1024, 10_000)
    };
    let she = SummationHistogramEncoding::new(she_d, eps).expect("valid domain");
    let she_values: Vec<u64> = (0..n_she)
        .map(|i| (i as u64).wrapping_mul(7) % she_d)
        .collect();
    let she_batched_randomize_ns = median_ns(rand_reps, || {
        let mut rng = StdRng::seed_from_u64(7);
        let mut agg = she.new_aggregator();
        she.randomize_accumulate_batch(&she_values, &mut rng, &mut agg);
        black_box(agg.reports());
    });

    // --- The unary one-hot channel at d = 4096, per report's words (what
    // the fused frame writer consumes): geometric skipping with the
    // one-hot draw first, its set bits OR-ed into zeroed words, vs the
    // shipped word-parallel `OneHotSampler`, at sparse flip rates and at
    // OUE's ε = 1 rate.
    let sampler_d = 4096u64;
    let sampler_reports = if smoke { 2_000usize } else { 20_000 };
    let sampler_qs = [
        ("q1_128", 1.0 / 128.0),
        ("q1_64", 1.0 / 64.0),
        ("q1_32", 1.0 / 32.0),
        ("q027", 0.27),
    ];
    let mut sampler_words = vec![0u64; sampler_d.div_ceil(64) as usize];
    let mut sampler_fields = Vec::new();
    let mut word_speedup_q027 = 0.0;
    for (label, q) in sampler_qs {
        let skip = GeometricSkip::new(q);
        let chan = OneHotSampler::new(sampler_d, 0.5, q);
        let geometric_ns = median_ns(rand_reps, || {
            let mut rng = StdRng::seed_from_u64(7);
            for r in 0..sampler_reports as u64 {
                let value = r % sampler_d;
                sampler_words.fill(0);
                if rng.gen_bool(0.5) {
                    sampler_words[(value / 64) as usize] |= 1u64 << (value % 64);
                }
                skip.sample_into(sampler_d - 1, &mut rng, |k| {
                    let i = k + u64::from(k >= value);
                    sampler_words[(i / 64) as usize] |= 1u64 << (i % 64)
                });
                black_box(&sampler_words);
            }
        }) / sampler_reports as f64;
        let word_ns = median_ns(rand_reps, || {
            let mut rng = StdRng::seed_from_u64(7);
            for r in 0..sampler_reports as u64 {
                chan.sample_words(r % sampler_d, &mut rng, |w, bits| sampler_words[w] = bits);
                black_box(&sampler_words);
            }
        }) / sampler_reports as f64;
        println!(
            "unary_sampler/d{sampler_d}_{label}: geometric {geometric_ns:.0} ns, words {word_ns:.0} ns per report ({:.2}x)",
            geometric_ns / word_ns
        );
        if label == "q027" {
            word_speedup_q027 = geometric_ns / word_ns;
        }
        sampler_fields.push(format!(
            "    \"geometric_{label}_ns\": {geometric_ns:.0},\n    \"word_{label}_ns\": {word_ns:.0}"
        ));
    }
    // RNG words one report draws at OUE's ε = 1 rate, counted rather
    // than timed: deterministic for the seed, the same in every mode.
    let draw_reports = 1_000u64;
    let mut counting = CountingRng::new(StdRng::seed_from_u64(7));
    let chan = OneHotSampler::new(sampler_d, 0.5, 0.27);
    for r in 0..draw_reports {
        chan.sample_words(r % sampler_d, &mut counting, |_, _| {});
    }
    let word_draws_q027 = counting.draws() as f64 / draw_reports as f64;
    println!("unary_sampler/d{sampler_d}_q027: {word_draws_q027:.2} RNG words per report");
    let sampler_json = format!(
        "{{\n    \"d\": {sampler_d},\n{},\n    \"word_speedup_q027\": {word_speedup_q027:.2},\n    \"word_draws_q027\": {word_draws_q027:.2}\n  }}",
        sampler_fields.join(",\n")
    );

    println!(
        "olh_full_domain_estimate/raw_n{n}_d{d}: {:.2} ms",
        raw_estimate_ns / 1e6
    );
    println!(
        "olh_full_domain_estimate/cohort_C{cohorts}_d{d}: {:.3} ms  ({olh_estimate_speedup:.1}x speedup)",
        cohort_estimate_ns / 1e6
    );
    println!(
        "fused_batch_randomize_accumulate_n{n}: oue_d{d} {:.2} ms, the_d{d} {:.2} ms, apple_cms_m1024 {:.2} ms, microsoft_dbitflip_k1024_d16 {:.2} ms",
        oue_batch_randomize_ns / 1e6,
        the_batch_randomize_ns / 1e6,
        apple_cms_batch_ns / 1e6,
        ms_dbitflip_batch_ns / 1e6
    );
    println!(
        "oue_collect/batch_1w_n{n}: {:.2} ms, batch_parallel({threads} workers, {cores} cores): {:.2} ms  ({thread_scaling:.2}x from threads)",
        batch_collect_1w_ns / 1e6,
        par_collect_ns / 1e6
    );
    println!(
        "oue_collect/fused_direct_n{n}: {:.2} ms, bytes_through_service: {:.2} ms  ({wire_overhead:.2}x service-side wire overhead; client framing {:.2} ms, {wire_e2e_overhead:.2}x end-to-end)",
        direct_collect_ns / 1e6,
        wire_collect_ns / 1e6,
        wire_client_frame_ns / 1e6
    );
    println!(
        "oue_collect/pipeline_{threads}w_q64: {:.2} ms (queue hwm {pipeline_queue_hwm} batches)",
        pipeline_ingest_ns / 1e6
    );
    println!(
        "olhc_snapshot/roundtrip_C{cohorts}_g{}: {:.3} ms, blob {snapshot_bytes} bytes",
        cohort_oracle.g(),
        snapshot_roundtrip_ns / 1e6
    );
    println!(
        "window_ring/advance_{n_win}f_w{win_windows}: {:.2} ms (subtractive retirement), estimate: {:.3} ms",
        window_advance_ns / 1e6,
        window_estimate_ns / 1e6
    );
    println!(
        "planner/plan_d{d}_budgeted: {:.1} µs, ranking_agreement: {planner_agreed}/{planner_cells} ({:.0}%) over the frontier grid at n={planner_n}",
        planner_plan_ns / 1e3,
        planner_agreement * 100.0
    );
    println!(
        "fwht/reference_m{fwht_m}: {:.3} ms, tiled: {:.3} ms  ({fwht_tiled_speedup:.2}x speedup, bit-identical)",
        fwht_reference_ns / 1e6,
        fwht_tiled_ns / 1e6
    );
    println!(
        "hcms_decode/decode_once_k{hcms_k}_m{hcms_m}_q{hcms_q}: {:.3} ms",
        hcms_cached_decode_ns / 1e6
    );
    println!(
        "sfp_decode/exhaustive_n{sfp_n}: {:.2} ms, candidate_frontier: {:.2} ms  ({sfp_decode_speedup:.1}x speedup, same word set)",
        sfp_exhaustive_decode_ns / 1e6,
        sfp_candidate_decode_ns / 1e6
    );
    println!(
        "rappor_decode/sparse_active_set_{n_rappor_cand}cand: {:.2} ms",
        rappor_sparse_lasso_ns / 1e6
    );
    println!(
        "she_randomize_accumulate/batched_laplace_n{n_she}_d{she_d}: {:.2} ms",
        she_batched_randomize_ns / 1e6
    );

    let json = format!(
        "{{\n  \"bench\": \"aggregate_throughput\",\n  \"mode\": \"{}\",\n  \"n\": {n},\n  \"d\": {d},\n  \"g\": {},\n  \"cohorts\": {cohorts},\n  \"shards\": {shards},\n  \"threads\": {threads},\n  \"cores\": {cores},\n  \"oue_batch_randomize_ns\": {oue_batch_randomize_ns:.0},\n  \"the_batch_randomize_ns\": {the_batch_randomize_ns:.0},\n  \"apple_cms_batch_ns\": {apple_cms_batch_ns:.0},\n  \"ms_dbitflip_batch_ns\": {ms_dbitflip_batch_ns:.0},\n  \"batch_collect_1w_ns\": {batch_collect_1w_ns:.0},\n  \"par_collect_ns\": {par_collect_ns:.0},\n  \"thread_scaling\": {thread_scaling:.2},\n  \"direct_collect_ns\": {direct_collect_ns:.0},\n  \"wire_collect_ns\": {wire_collect_ns:.0},\n  \"wire_client_frame_ns\": {wire_client_frame_ns:.0},\n  \"wire_overhead\": {wire_overhead:.3},\n  \"wire_e2e_overhead\": {wire_e2e_overhead:.3},\n  \"pipeline_ingest_ns\": {pipeline_ingest_ns:.0},\n  \"pipeline_queue_hwm\": {pipeline_queue_hwm},\n  \"snapshot_roundtrip_ns\": {snapshot_roundtrip_ns:.0},\n  \"snapshot_bytes\": {snapshot_bytes},\n  \"window_advance_ns\": {window_advance_ns:.0},\n  \"window_estimate_ns\": {window_estimate_ns:.0},\n  \"planner\": {{\n    \"plan_ns\": {planner_plan_ns:.0},\n    \"cells\": {planner_cells},\n    \"ranking_agreement\": {planner_agreement:.3}\n  }},\n  \"sampler\": {sampler_json},\n  \"decode\": {{\n    \"raw_full_estimate_ns\": {raw_estimate_ns:.0},\n    \"cohort_full_estimate_ns\": {cohort_estimate_ns:.0},\n    \"olh_estimate_speedup\": {olh_estimate_speedup:.2},\n    \"fwht_m\": {fwht_m},\n    \"fwht_reference_ns\": {fwht_reference_ns:.0},\n    \"fwht_tiled_ns\": {fwht_tiled_ns:.0},\n    \"fwht_tiled_speedup\": {fwht_tiled_speedup:.2},\n    \"hcms_cached_decode_ns\": {hcms_cached_decode_ns:.0},\n    \"sfp_exhaustive_decode_ns\": {sfp_exhaustive_decode_ns:.0},\n    \"sfp_candidate_decode_ns\": {sfp_candidate_decode_ns:.0},\n    \"sfp_decode_speedup\": {sfp_decode_speedup:.2},\n    \"rappor_sparse_lasso_ns\": {rappor_sparse_lasso_ns:.0},\n    \"she_batched_randomize_ns\": {she_batched_randomize_ns:.0}\n  }}\n}}\n",
        if smoke { "smoke" } else { "full" },
        cohort_oracle.g(),
    );
    let out = std::env::var("LDP_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_aggregate.json").to_string()
    });
    std::fs::write(&out, json).expect("write BENCH_aggregate.json");
    println!("wrote {out}");
}

criterion_group!(benches, bench_aggregate, bench_old_vs_new);
criterion_main!(benches);
