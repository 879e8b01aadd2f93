//! The mechanism planner: describe the workload, get a tuned protocol.
//!
//! Run with: `cargo run --release --example mechanism_planner`
//!
//! Picking an LDP mechanism by hand means trading accuracy, server
//! memory, report bytes, and decode latency across twelve kinds and
//! their integer knobs (cohorts, hash range, sketch shape, bits per
//! device). The planner owns that search: a [`WorkloadSpec`] states the
//! workload and its budgets, and every returned [`Plan`] carries a
//! descriptor that is already validated, tuned, budget-checked, and
//! instantiable through the workspace registry. This example walks one
//! spec from planning through wire-path collection to estimation, then
//! shows how the ranking shifts when the budgets move.

use ldp::planner::{workspace_planner, WorkloadSpec};
use ldp::workloads::gen::{exact_counts, ZipfGenerator};
use ldp::workloads::metrics;
use ldp::workloads::service::{CollectorService, WireClient};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let planner = workspace_planner();
    let (d, n, eps) = (256u64, 50_000u64, 1.0);

    // --- Plan: a memory-capped, wire-capped, windowed workload. ---
    let spec = WorkloadSpec::new(d, n, eps)
        .with_memory_budget(64 * 1024)
        .with_report_budget(16)
        .with_subtractive();
    let plans = planner.plan(&spec).expect("plannable spec");
    println!("d={d} n={n} ε={eps} | mem ≤ 64 KiB, report ≤ 16 B, subtractive:");
    println!(
        "{:>8} {:>12} {:>10} {:>8} {:>12}",
        "kind", "pred σ²", "mem B", "wire B", "decode ops"
    );
    for p in plans.iter().take(5) {
        println!(
            "{:>8} {:>12.1} {:>10} {:>8} {:>12}",
            p.kind().name(),
            p.cost.variance,
            p.cost.memory_bytes,
            p.cost.bytes_per_report,
            p.cost.decode_ops,
        );
    }

    // --- Execute the winner end to end over the byte path. ---
    let top = &plans[0];
    let client = WireClient::from_descriptor(&top.descriptor).expect("planned descriptor builds");
    let mut service =
        CollectorService::from_descriptor(&top.descriptor).expect("registry instantiates winner");
    let mut rng = StdRng::seed_from_u64(42);
    let zipf = ZipfGenerator::new(d, 1.1).expect("valid zipf");
    let values = zipf.sample_n(n as usize, &mut rng);
    let mut wire = Vec::new();
    for &v in &values {
        client
            .randomize_item(v, &mut rng, &mut wire)
            .expect("frame");
    }
    let frames = service.ingest_concat(&wire).expect("clean ingest");
    let truth = exact_counts(&values, d);
    let mse = metrics::mse(&service.estimates(), &truth);
    println!(
        "\nwinner {} executed: {frames} frames, {} wire bytes ({:.1} B/report)",
        top.kind().name(),
        wire.len(),
        wire.len() as f64 / n as f64,
    );
    println!(
        "measured MSE {mse:.1} vs predicted σ² {:.1} (ratio {:.2})",
        top.cost.variance,
        mse / top.cost.variance,
    );

    // --- Budgets steer the choice: squeeze memory, watch the pick flip. ---
    let wide = 1u64 << 16;
    println!("\nsame ε and population over d = {wide} under a shrinking memory budget:");
    for mem in [1024 * 1024u64, 128 * 1024, 8 * 1024] {
        let spec = WorkloadSpec::new(wide, n, eps).with_memory_budget(mem);
        let best = planner.best(&spec).expect("plannable");
        println!(
            "  mem ≤ {:>7} B → {:>6} (pred σ² {:.1}, uses {} B)",
            mem,
            best.kind().name(),
            best.cost.variance,
            best.cost.memory_bytes,
        );
    }

    // --- Impossible budgets fail loudly, not silently. ---
    let impossible = WorkloadSpec::new(wide, n, eps).with_memory_budget(32);
    match planner.best(&impossible) {
        Ok(p) => println!("\nunexpected plan: {}", p.kind().name()),
        Err(e) => println!("\na 32-byte server refused outright: {e}"),
    }
}
