//! `ldp-sim` — a command-line simulator for the workspace's frequency
//! oracles.
//!
//! ```text
//! Usage: ldp-sim [--mechanism grr|sue|oue|she|the|blh|olh|hr|ss]
//!                [--eps <f64>] [--domain <u64>] [--users <usize>]
//!                [--zipf <f64>] [--seed <u64>] [--top <usize>]
//!                [--scenario oracle|pipeline|windows|plan] [--workers <usize>]
//!                [--shards <usize>] [--queue-depth <usize>]
//!                [--policy block|drop]
//! ```
//!
//! Simulates a population, runs the chosen mechanism end to end, and
//! prints estimated-vs-true counts with error diagnostics — the fastest
//! way to get a feel for the accuracy/ε/domain trade-offs the tutorial
//! teaches. Defaults: OLH, ε=1, d=64, 50k users, Zipf 1.1.
//!
//! `--scenario pipeline` instead streams the population as serialized
//! wire frames through the concurrent collector pipeline (OLH-C over
//! the byte path): fused client-side frame writing, bounded-queue
//! ingest workers, and a shard-order merge, with per-worker
//! throughput/queue statistics. Defaults to 10M frames (`--users`
//! scales it down for CI smoke runs).
//!
//! `--scenario plan` sweeps the cost-based mechanism planner over a
//! grid of `(d, n, ε, memory budget)` cells: each cell is planned, the
//! top pick and the runner-up both execute end to end through the wire
//! path (client frames → collector service → estimates), and the
//! measured-error ranking is checked against the planner's predicted
//! ranking. `--users` sets reports per cell (default 30k).
//!
//! `--scenario windows` replays a bursty three-day synthetic trace
//! (hourly event-time buckets, evening peaks, overnight lulls, stale
//! stragglers) into a sliding [`WindowRing`] with a 24-hour horizon:
//! most hours run one collector-pipeline round whose delta is absorbed
//! into its window and the running total, while evening-peak hours hand
//! the ring their client frames as one batched payload
//! (`ingest_concat`). Expired windows retire by exact subtraction,
//! per-device ε spend is metered by a rolling
//! [`LongitudinalAccountant`], each day ends by checking the frame
//! count and that the total equals the merge of the live windows, and
//! the whole ring checkpoint/restores at the end. `--users` sets total
//! trace frames (default 500k).

use ldp::core::fo::{
    collect_counts, BinaryLocalHashing, DirectEncoding, FrequencyOracle, HadamardResponse,
    OptimizedLocalHashing, OptimizedUnaryEncoding, SubsetSelection, SummationHistogramEncoding,
    SymmetricUnaryEncoding, ThresholdHistogramEncoding,
};
use ldp::core::protocol::{MechanismKind, ProtocolDescriptor};
use ldp::core::Epsilon;
use ldp::workloads::gen::{exact_counts, ZipfGenerator};
use ldp::workloads::metrics;
use ldp::workloads::pipeline::{
    stream_population, BackpressurePolicy, CollectorPipeline, PipelineConfig,
};
use ldp::workloads::service::{CollectorService, WireClient};
use ldp::workloads::window::{LongitudinalAccountant, WindowConfig, WindowRing};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Debug)]
struct Args {
    mechanism: String,
    eps: f64,
    domain: u64,
    // None = scenario default (50k oracle / 10M pipeline).
    users: Option<usize>,
    zipf: f64,
    seed: u64,
    top: usize,
    scenario: String,
    workers: usize,
    shards: usize,
    queue_depth: usize,
    policy: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mechanism: "olh".into(),
        eps: 1.0,
        domain: 64,
        users: None,
        zipf: 1.1,
        seed: 42,
        top: 10,
        scenario: "oracle".into(),
        workers: 4,
        shards: 1024,
        queue_depth: 64,
        policy: "block".into(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i].as_str();
        if key == "--help" || key == "-h" {
            return Err("help".into());
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {key}"))?;
        match key {
            "--mechanism" => args.mechanism = value.to_lowercase(),
            "--eps" => args.eps = value.parse().map_err(|e| format!("--eps: {e}"))?,
            "--domain" => args.domain = value.parse().map_err(|e| format!("--domain: {e}"))?,
            "--users" => args.users = Some(value.parse().map_err(|e| format!("--users: {e}"))?),
            "--zipf" => args.zipf = value.parse().map_err(|e| format!("--zipf: {e}"))?,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--top" => args.top = value.parse().map_err(|e| format!("--top: {e}"))?,
            "--scenario" => args.scenario = value.to_lowercase(),
            "--workers" => args.workers = value.parse().map_err(|e| format!("--workers: {e}"))?,
            "--shards" => args.shards = value.parse().map_err(|e| format!("--shards: {e}"))?,
            "--queue-depth" => {
                args.queue_depth = value.parse().map_err(|e| format!("--queue-depth: {e}"))?;
            }
            "--policy" => args.policy = value.to_lowercase(),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    Ok(args)
}

fn run<O: FrequencyOracle>(oracle: O, args: &Args) {
    let users = args.users.unwrap_or(50_000);
    let zipf = ZipfGenerator::new(args.domain, args.zipf).expect("valid zipf");
    let mut rng = StdRng::seed_from_u64(args.seed);
    let values = zipf.sample_n(users, &mut rng);
    let truth = exact_counts(&values, args.domain);
    let start = std::time::Instant::now();
    let est = collect_counts(&oracle, &values, &mut rng);
    let elapsed = start.elapsed();

    println!(
        "{} | ε={} | d={} | n={} | Zipf({}) | report = {} bits | {:?}",
        oracle.name(),
        args.eps,
        args.domain,
        users,
        args.zipf,
        oracle.report_bits(),
        elapsed
    );
    let sd = oracle.noise_floor_variance(users).sqrt();
    println!("analytic noise sd ≈ {sd:.1} counts\n");
    println!(
        "{:>6} {:>12} {:>12} {:>8}",
        "item", "true", "estimate", "err/sd"
    );
    for i in 0..args.top.min(args.domain as usize) {
        println!(
            "{:>6} {:>12.0} {:>12.0} {:>8.2}",
            i,
            truth[i],
            est[i],
            (est[i] - truth[i]) / sd
        );
    }
    println!(
        "\nMSE {:.0} | MAE {:.1} | max err {:.1} | top-{} F1 {:.2}",
        metrics::mse(&est, &truth),
        metrics::mae(&est, &truth),
        metrics::max_error(&est, &truth),
        args.top,
        metrics::top_k_metrics(&est, &truth, args.top).f1,
    );
}

/// The `--scenario pipeline` path: stream a synthetic population as
/// serialized OLH-C wire frames through the concurrent collector
/// pipeline, then print per-worker throughput, queue pressure, merge
/// cost, and estimate accuracy.
fn run_pipeline(args: &Args) -> Result<(), String> {
    let frames = args.users.unwrap_or(10_000_000);
    let policy = match args.policy.as_str() {
        "block" => BackpressurePolicy::Block,
        "drop" => BackpressurePolicy::DropNewest,
        other => return Err(format!("unknown policy '{other}' (block|drop)")),
    };
    let desc = ProtocolDescriptor::builder(MechanismKind::CohortLocalHashing)
        .domain_size(args.domain)
        .epsilon(args.eps)
        .cohorts(64)
        .build()
        .map_err(|e| format!("descriptor: {e}"))?;
    let client = WireClient::from_descriptor(&desc).map_err(|e| format!("client: {e}"))?;
    let shards = args.shards.min(frames.max(1));
    let pipeline = CollectorPipeline::new(
        &desc,
        PipelineConfig {
            shards,
            workers: args.workers,
            queue_depth: args.queue_depth,
            policy,
        },
    )
    .map_err(|e| format!("pipeline: {e}"))?;
    let workers = pipeline.workers();

    let zipf = ZipfGenerator::new(args.domain, args.zipf).map_err(|e| format!("zipf: {e}"))?;
    let mut rng = StdRng::seed_from_u64(args.seed);
    let values = zipf.sample_n(frames, &mut rng);
    let truth = exact_counts(&values, args.domain);

    let start = std::time::Instant::now();
    let accepted = stream_population(&client, &pipeline, &values, args.seed, 4)
        .map_err(|e| format!("stream: {e}"))?;
    let (service, stats) = pipeline.finish().map_err(|e| format!("finish: {e}"))?;
    let elapsed = start.elapsed();

    println!(
        "pipeline | OLH-C | ε={} | d={} | frames={} | shards={} | workers={} | \
         queue={} | policy={}",
        args.eps, args.domain, frames, shards, workers, args.queue_depth, args.policy
    );
    println!(
        "wall {:?} | {:.0} frames/s end-to-end | merge {:.2} ms | accepted {accepted}",
        elapsed,
        accepted as f64 / elapsed.as_secs_f64(),
        stats.merge_nanos as f64 / 1e6,
    );
    for (i, w) in stats.workers.iter().enumerate() {
        println!(
            "  worker {i}: {} frames in {} batches | busy {:.1} ms | \
             {:.0} frames/s | queue hwm {} | dropped {}",
            w.frames,
            w.batches,
            w.busy_nanos as f64 / 1e6,
            w.frames_per_sec(),
            w.queue_hwm,
            w.dropped_batches,
        );
    }
    println!(
        "ingested {} frames | queue hwm {} | dropped batches {}",
        stats.total_frames(),
        stats.queue_hwm(),
        stats.dropped_batches(),
    );

    let est = service.estimates();
    println!(
        "MSE {:.0} | MAE {:.1} | max err {:.1} | top-{} F1 {:.2}",
        metrics::mse(&est, &truth),
        metrics::mae(&est, &truth),
        metrics::max_error(&est, &truth),
        args.top,
        metrics::top_k_metrics(&est, &truth, args.top).f1,
    );
    Ok(())
}

/// The `--scenario plan` path: sweep the planner over the frontier grid
/// (`ldp::workloads::frontier`), print each cell's top pick and
/// runner-up with predicted σ² and measured tail MSE, and score
/// predicted-vs-measured error ranking agreement.
fn run_plan(args: &Args) -> Result<(), String> {
    use ldp::workloads::frontier::{sweep, DOMAINS, EPSILONS, PROFILES};

    let n = args.users.unwrap_or(30_000);
    println!(
        "plan | grid: d×ε×budget = {}×{}×{} cells | n={n} per cell | Zipf({})",
        DOMAINS.len(),
        EPSILONS.len(),
        PROFILES.len(),
        args.zipf,
    );
    println!(
        "{:>5} {:>5} {:>10} | {:>9} {:>12} {:>12} | {:>9} {:>12} {:>12} | agree",
        "d", "ε", "budget", "top", "pred σ²", "meas MSE", "next", "pred σ²", "meas MSE"
    );
    let cells = sweep(&ldp::planner::workspace_planner(), n, args.zipf, args.seed)
        .map_err(|e| e.to_string())?;
    for c in &cells {
        println!(
            "{:>5} {:>5} {:>10} | {:>9} {:>12.1} {:>12.1} | {:>9} {:>12.1} {:>12.1} | {}",
            c.spec.domain_size,
            c.spec.epsilon,
            c.profile,
            c.top.kind().name(),
            c.top.cost.variance,
            c.mse_top,
            c.next.kind().name(),
            c.next.cost.variance,
            c.mse_next,
            if c.agrees() { "yes" } else { "NO" },
        );
    }
    let agreements = cells.iter().filter(|c| c.agrees()).count();
    let fraction = agreements as f64 / cells.len() as f64;
    let plan_time: std::time::Duration = cells.iter().map(|c| c.plan_time).sum();
    println!(
        "\nranking agreement {agreements}/{} ({:.0}%) | mean plan time {:.1} µs",
        cells.len(),
        fraction * 100.0,
        plan_time.as_nanos() as f64 / cells.len() as f64 / 1e3,
    );
    // Near-ties can flip under sampling noise; disagreement in more than
    // a quarter of the cells means the cost models are wrong.
    if fraction < 0.75 {
        return Err(format!(
            "measured rankings disagree with predictions in {}/{} cells",
            cells.len() - agreements,
            cells.len()
        ));
    }
    Ok(())
}

/// The `--scenario windows` path: a bursty multi-day trace through the
/// collector pipeline and batched frame payloads into a 24-hour sliding
/// window ring, with rolling per-device longitudinal accounting, daily
/// consistency checks and a final checkpoint/restore.
fn run_windows(args: &Args) -> Result<(), String> {
    const DAYS: usize = 3;
    const HOURS: usize = DAYS * 24;
    const WINDOW_LEN: u64 = 3600;
    const HORIZON: usize = 24;

    let total_frames = args.users.unwrap_or(500_000);
    // Diurnal burst profile: overnight lull, daytime baseline, a 4×
    // evening peak — the "popular items over the last 24 hours" shape.
    let hour_weight = |hour_of_day: usize| -> f64 {
        match hour_of_day {
            0..=5 => 0.3,
            18..=21 => 4.0,
            _ => 1.0,
        }
    };
    let weight_sum: f64 = (0..HOURS).map(|h| hour_weight(h % 24)).sum();

    let desc = ProtocolDescriptor::builder(MechanismKind::CohortLocalHashing)
        .domain_size(args.domain)
        .epsilon(args.eps)
        .cohorts(64)
        .build()
        .map_err(|e| format!("descriptor: {e}"))?;
    let client = WireClient::from_descriptor(&desc).map_err(|e| format!("client: {e}"))?;
    let mut ring = WindowRing::new(
        &desc,
        WindowConfig::new(WINDOW_LEN, HORIZON).with_decay(0.9),
    )
    .map_err(|e| format!("ring: {e}"))?;

    // Rolling per-device ledger: each contributed window costs the
    // report ε and a device may spend at most 8 windows' worth inside
    // any 24-hour horizon. The pool is sized so devices want slightly
    // more than that — the accountant must throttle the tail of each
    // day once budgets run dry.
    let per_window = Epsilon::new(args.eps).map_err(|e| format!("eps: {e}"))?;
    let allowance = Epsilon::new(args.eps * 8.0).map_err(|e| format!("allowance: {e}"))?;
    let mut accountant = LongitudinalAccountant::new(allowance, per_window, HORIZON)
        .map_err(|e| format!("accountant: {e}"))?;
    let device_pool = (total_frames / 27).max(32);

    let zipf = ZipfGenerator::new(args.domain, args.zipf).map_err(|e| format!("zipf: {e}"))?;
    let mut rng = StdRng::seed_from_u64(args.seed);
    // Exact counts per hour; only the last HORIZON hours stay queued, so
    // the fold at the end is ground truth for the sliding window.
    let mut hour_truth: std::collections::VecDeque<Vec<f64>> = std::collections::VecDeque::new();
    let mut throttled = 0usize;
    let mut next_device = 0usize;
    // Frames handed to the ring: pipeline deltas' reports, batched
    // payloads and stragglers.
    let mut handed_in = 0u64;
    let mut frames = Vec::new();

    println!(
        "windows | OLH-C | ε={} | d={} | {DAYS} days × hourly buckets | horizon {HORIZON} h | \
         ~{total_frames} frames | {device_pool} devices | per-device cap 8ε/24h",
        args.eps, args.domain
    );
    let start = std::time::Instant::now();
    for hour in 0..HOURS {
        let t = hour as u64 * WINDOW_LEN + WINDOW_LEN / 2;
        let bucket = t / WINDOW_LEN;
        let target = (total_frames as f64 * hour_weight(hour % 24) / weight_sum).round() as usize;

        // Devices volunteer round-robin; the accountant throttles any
        // whose rolling-horizon budget is spent.
        let mut values = Vec::with_capacity(target);
        for _ in 0..target {
            let device = next_device as u64;
            next_device = (next_device + 1) % device_pool;
            if accountant.try_charge(device, bucket).is_ok() {
                values.push(zipf.sample(&mut rng));
            } else {
                throttled += 1;
            }
        }
        hour_truth.push_back(exact_counts(&values, args.domain));
        if hour_truth.len() > HORIZON {
            hour_truth.pop_front();
        }

        handed_in += values.len() as u64;
        if values.is_empty() {
            // Budgets ran dry this hour: the watermark still advances.
            ring.advance_to(t).map_err(|e| format!("advance: {e}"))?;
        } else if (18..=21).contains(&(hour % 24)) {
            // Evening-peak hours arrive as one batched client payload
            // that the ring folds frame by frame into the hour's window
            // and the running total.
            frames.clear();
            client
                .frames_for_shard(&values, args.seed ^ hour as u64, 0, &mut frames)
                .map_err(|e| format!("frames: {e}"))?;
            let folded = ring
                .ingest_concat(t, &frames)
                .map_err(|e| format!("ingest: {e}"))?;
            if folded != values.len() {
                return Err(format!(
                    "hour {hour}: ring folded {folded} of {} frames",
                    values.len()
                ));
            }
        } else {
            // One pipeline round per collection hour, absorbed as a delta.
            let shards = args.shards.min(values.len()).max(1);
            let pipeline = CollectorPipeline::new(
                &desc,
                PipelineConfig {
                    shards,
                    workers: args.workers,
                    queue_depth: args.queue_depth,
                    policy: BackpressurePolicy::Block,
                },
            )
            .map_err(|e| format!("pipeline: {e}"))?;
            stream_population(&client, &pipeline, &values, args.seed ^ hour as u64, 4)
                .map_err(|e| format!("stream: {e}"))?;
            let (delta, _) = pipeline.finish().map_err(|e| format!("finish: {e}"))?;
            ring.absorb(t, delta).map_err(|e| format!("absorb: {e}"))?;
        }

        // A stale straggler from >24 h ago arrives once a day and must
        // drop against the watermark, not poison an expired window.
        if hour % 24 == 23 && hour >= 24 {
            handed_in += 1;
            let mut frame = Vec::new();
            client
                .randomize_item(0, &mut rng, &mut frame)
                .map_err(|e| format!("frame: {e}"))?;
            let late = (bucket - HORIZON as u64) * WINDOW_LEN;
            if ring
                .ingest(late, &frame)
                .map_err(|e| format!("late: {e}"))?
            {
                return Err("stale frame was accepted past the watermark".into());
            }
        }
        if hour % 24 == 23 {
            let s = ring.stats();
            // Every frame handed in is in the ring or was dropped late,
            // and the running total is exactly the merge of the live
            // windows.
            if s.frames_ingested != handed_in - s.late_dropped {
                return Err(format!(
                    "day {}: ring counts {} frames, {handed_in} handed in and {} late",
                    hour / 24 + 1,
                    s.frames_ingested,
                    s.late_dropped
                ));
            }
            let mut merged =
                CollectorService::from_descriptor(&desc).map_err(|e| format!("merge: {e}"))?;
            for (_, window) in ring.windows() {
                let copy = CollectorService::from_checkpoint(&window.checkpoint())
                    .map_err(|e| format!("merge: {e}"))?;
                merged.merge(copy).map_err(|e| format!("merge: {e}"))?;
            }
            if merged.checkpoint() != ring.total().checkpoint() {
                return Err(format!(
                    "day {}: running total differs from the merge of the live windows",
                    hour / 24 + 1
                ));
            }
            println!(
                "  day {} done: {} live windows | {} frames in ring | \
                 retired {} by subtract, {} rebuilt | {} late dropped | {throttled} throttled",
                hour / 24 + 1,
                ring.live_windows(),
                ring.reports(),
                s.retired_subtract,
                s.retired_rebuild,
                s.late_dropped,
            );
        }
    }
    let elapsed = start.elapsed();

    let truth = hour_truth
        .iter()
        .fold(vec![0.0f64; args.domain as usize], |mut acc, h| {
            for (a, v) in acc.iter_mut().zip(h) {
                *a += v;
            }
            acc
        });
    let est = ring.estimates();
    let decayed = ring
        .decayed_estimates()
        .map_err(|e| format!("decay: {e}"))?;
    let mut order: Vec<usize> = (0..est.len()).collect();
    order.sort_by(|&a, &b| est[b].total_cmp(&est[a]));
    println!(
        "trace done in {:?} | sliding total covers {} frames over {} windows",
        elapsed,
        ring.reports(),
        ring.live_windows(),
    );
    println!(
        "last-24h MSE {:.0} | MAE {:.1} | top-{} F1 {:.2} | decayed favors recent: \
         item {} at {:.0} (flat {:.0})",
        metrics::mse(&est, &truth),
        metrics::mae(&est, &truth),
        args.top,
        metrics::top_k_metrics(&est, &truth, args.top).f1,
        order[0],
        decayed[order[0]],
        est[order[0]],
    );

    // Durability: the whole ring round-trips through one BLOB.
    let blob = ring.checkpoint();
    let mut revived = WindowRing::from_checkpoint(&blob).map_err(|e| format!("restore: {e}"))?;
    if revived.checkpoint() != blob {
        return Err("ring checkpoint did not round-trip bit-exactly".into());
    }
    // The restored ring answers every query bit for bit as the live one
    // does, and one more hour ingested into both leaves them equal.
    let stats = *ring.stats();
    let items: Vec<u64> = (0..args.domain).collect();
    let answers = |r: &WindowRing| -> Result<Vec<Vec<u64>>, String> {
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect();
        Ok(vec![
            bits(r.estimates()),
            bits(r.decayed_estimates().map_err(|e| format!("decay: {e}"))?),
            bits(
                r.estimate_items(&items)
                    .map_err(|e| format!("items: {e}"))?,
            ),
        ])
    };
    if answers(&revived)? != answers(&ring)? {
        return Err("restored ring answers differently from the live ring".into());
    }
    let values: Vec<u64> = (0..1000).map(|_| zipf.sample(&mut rng)).collect();
    frames.clear();
    client
        .frames_for_shard(&values, args.seed ^ HOURS as u64, 0, &mut frames)
        .map_err(|e| format!("frames: {e}"))?;
    let t = HOURS as u64 * WINDOW_LEN + WINDOW_LEN / 2;
    for r in [&mut ring, &mut revived] {
        r.ingest_concat(t, &frames)
            .map_err(|e| format!("ingest after restore: {e}"))?;
    }
    if revived.checkpoint() != ring.checkpoint() {
        return Err("restored ring diverged from the live ring after one more hour".into());
    }
    println!(
        "checkpoint {} KiB round-trips bit-exactly; the restored ring answers and ingests \
         like the live one | ring stats: {:?}",
        blob.len() / 1024,
        stats,
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg != "help" {
                eprintln!("error: {msg}\n");
            }
            eprintln!(
                "usage: ldp-sim [--mechanism grr|sue|oue|she|the|blh|olh|hr|ss] \
                 [--eps F] [--domain D] [--users N] [--zipf S] [--seed K] [--top T] \
                 [--scenario oracle|pipeline|windows|plan] [--workers W] [--shards S] \
                 [--queue-depth Q] [--policy block|drop]"
            );
            std::process::exit(if msg == "help" { 0 } else { 2 });
        }
    };
    if args.scenario == "pipeline" {
        if let Err(msg) = run_pipeline(&args) {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
        return;
    }
    if args.scenario == "windows" {
        if let Err(msg) = run_windows(&args) {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
        return;
    }
    if args.scenario == "plan" {
        if let Err(msg) = run_plan(&args) {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
        return;
    }
    if args.scenario != "oracle" {
        eprintln!("error: unknown scenario '{}'", args.scenario);
        std::process::exit(2);
    }
    let eps = match Epsilon::new(args.eps) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match args.mechanism.as_str() {
        "grr" => run(
            DirectEncoding::new(args.domain, eps).expect("domain >= 2"),
            &args,
        ),
        "sue" => run(
            SymmetricUnaryEncoding::new(args.domain, eps).expect("domain >= 2"),
            &args,
        ),
        "oue" => run(
            OptimizedUnaryEncoding::new(args.domain, eps).expect("domain >= 2"),
            &args,
        ),
        "she" => run(
            SummationHistogramEncoding::new(args.domain, eps).expect("domain >= 2"),
            &args,
        ),
        "the" => run(
            ThresholdHistogramEncoding::new(args.domain, eps).expect("domain >= 2"),
            &args,
        ),
        "blh" => run(BinaryLocalHashing::new(args.domain, eps), &args),
        "olh" => run(OptimizedLocalHashing::new(args.domain, eps), &args),
        "hr" => run(HadamardResponse::new(args.domain, eps), &args),
        "ss" => run(SubsetSelection::new(args.domain, eps), &args),
        other => {
            eprintln!("error: unknown mechanism '{other}'");
            std::process::exit(2);
        }
    }
}
