//! The metrics a run reports, and the lines it prints.
//!
//! With tracing off a run reports [`END_TO_END`]; with tracing on it
//! reports [`PER_LAYER`]. Both lists are the ones `BENCHMARK.json`
//! declares, in the same order.

use crate::run::{nproc, peak_rss_mb, Outcome, Phase, MSE_ROUNDS};
use crate::stats;
use crate::trace::Totals;

/// End-to-end metric names and units.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("reports_per_s", "1/s"),
    ("publish_p10_ms", "ms"),
    ("query_p10_us", "us"),
    ("query_p90_us", "us"),
    ("wire_bytes_per_report", "B"),
    ("state_bytes", "B"),
    ("peak_rss_mb", "MB"),
    ("tail_mse", "count2"),
    ("delivered_frac", "frac"),
];

/// Layers, named after the library modules they time.
pub const LAYERS: [&str; 7] = [
    "client", "pipeline", "service", "window", "estimate", "snapshot", "rollup",
];

/// Per-layer metric names and units (each layer's `self_frac` follows).
pub const PER_LAYER: [(&str, &str); 35] = [
    ("client.ns_per_report", "ns"),
    ("pipeline.split_ns_per_report", "ns"),
    ("pipeline.submit_ns_per_report", "ns"),
    ("pipeline.worker_ns_per_report", "ns"),
    ("pipeline.worker_busy_frac", "frac"),
    ("pipeline.queue_hwm", "count"),
    ("pipeline.shed_batches", "count"),
    ("pipeline.spawn_ms", "ms"),
    ("pipeline.finish_ms", "ms"),
    ("pipeline.merge_ms", "ms"),
    ("service.ingest_ns_per_report", "ns"),
    ("service.rejected_frames", "count"),
    ("service.merge_us", "us"),
    ("window.retire_us", "us"),
    ("window.ingest_ns_per_report", "ns"),
    ("window.retired_subtract", "count"),
    ("window.retired_rebuild", "count"),
    ("window.late_dropped", "count"),
    ("estimate.full_us", "us"),
    ("estimate.items_us", "us"),
    ("estimate.decayed_us", "us"),
    ("snapshot.checkpoint_us", "us"),
    ("snapshot.restore_us", "us"),
    ("snapshot.bytes", "B"),
    ("rollup.merge_level_ms", "ms"),
    ("rollup.levels", "count"),
    ("client.self_frac", "frac"),
    ("pipeline.self_frac", "frac"),
    ("service.self_frac", "frac"),
    ("window.self_frac", "frac"),
    ("estimate.self_frac", "frac"),
    ("snapshot.self_frac", "frac"),
    ("rollup.self_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
];

/// The percentile of per-unit throughput that `reports_per_s` reports.
const RATE_Q: f64 = 0.9;

/// `q`-percentile of `xs`, or an error naming the samples that fell short.
fn at(xs: &[f64], q: f64, what: &str) -> Result<f64, String> {
    stats::percentile(xs, q).ok_or(format!(
        "{} {what} samples are too few for a p{} with {} beyond it",
        xs.len(),
        q * 100.0,
        stats::MIN_BEYOND
    ))
}

/// The end-to-end metrics of an untraced run, in [`END_TO_END`] order.
///
/// Timings are read at the 10th or 90th percentile of samples spread over
/// the whole run, not at the median: the machine alternates between a
/// fast and a slow state for seconds at a time, and a run's median lands
/// on whichever state held most of that run (see the README).
pub fn end_to_end(out: &Outcome) -> Result<Vec<f64>, String> {
    let p = &out.phase;
    if p.tail_mse.len() != MSE_ROUNDS as usize {
        return Err(format!(
            "{} of {MSE_ROUNDS} tail-error rounds ran",
            p.tail_mse.len()
        ));
    }
    let (unit_rates, unit_round_ns) = p.units(out.rounds_per_unit);
    Ok(vec![
        at(&out.setup_ns, 0.1, "set-up")? / 1e9,
        at(&unit_rates, RATE_Q, "unit")?,
        at(&unit_round_ns, 0.1, "unit")? / 1e6,
        at(&p.query_ns, 0.1, "query")? / 1e3,
        at(&p.query_ns, 0.9, "query")? / 1e3,
        p.wire_bytes as f64 / p.wire_reports as f64,
        out.state_bytes as f64,
        peak_rss_mb()?,
        p.tail_mse.iter().sum::<f64>() / p.tail_mse.len() as f64,
        p.delivered_frac(),
    ])
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order.
/// `ring_snapshots` selects the window ring's checkpoints as the
/// published aggregate's, instead of the collector service's.
pub fn per_layer(out: &Outcome, ring_snapshots: bool) -> Result<Vec<f64>, String> {
    let p = &out.phase;
    let untraced = out
        .untraced
        .as_ref()
        .ok_or("traced run has no untraced units")?;
    let totals = out.tracer.totals();
    let t = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let (checkpoint, restore): (Totals, Totals) = if ring_snapshots {
        (t("snapshot.ring_checkpoint"), t("snapshot.ring_restore"))
    } else {
        (t("snapshot.checkpoint"), t("snapshot.restore"))
    };
    let (self_ns, wall) = out.tracer.self_time_under("round");
    if wall == 0 {
        return Err("no traced rounds".into());
    }
    let share = |layer: &str| self_ns.get(layer).copied().unwrap_or(0) as f64 / wall as f64;
    let rounds = p.rounds() as f64;

    let mut values = vec![
        t("client.frames_for_shard").ns_per_work(),
        t("pipeline.split_frames").ns_per_work(),
        t("pipeline.submit").ns_per_work(),
        per(
            p.counter("pipeline.worker_busy_ns"),
            p.counter("pipeline.worker_frames"),
        ),
        per(
            p.counter("pipeline.worker_busy_ns"),
            p.counter("pipeline.worker_lifetime_ns"),
        ),
        p.counter("pipeline.queue_hwm"),
        p.counter("pipeline.shed_batches"),
        t("pipeline.new").mean_ns() / 1e6,
        t("pipeline.finish").mean_ns() / 1e6,
        per(p.counter("pipeline.merge_ns"), rounds) / 1e6,
        t("service.ingest_concat").ns_per_work(),
        p.tally.rejected as f64,
        t("service.merge").mean_ns() / 1e3,
        t("window.advance_to").mean_ns() / 1e3,
        t("window.ingest_concat").ns_per_work(),
        p.counter("window.retired_subtract"),
        p.counter("window.retired_rebuild"),
        p.counter("window.late_dropped"),
        t("estimate.estimates").mean_ns() / 1e3,
        t("estimate.estimate_items").mean_ns() / 1e3,
        t("estimate.decayed_estimates").mean_ns() / 1e3,
        checkpoint.mean_ns() / 1e3,
        restore.mean_ns() / 1e3,
        per(checkpoint.work as f64, checkpoint.calls as f64),
        t("rollup.merge_level").mean_ns() / 1e6,
        per(p.counter("rollup.levels"), rounds),
    ];
    values.extend(LAYERS.iter().map(|l| share(l)));
    // Traced and untraced units alternate, so both rates see the same
    // host states.
    let rate = |phase: &Phase| at(&phase.units(out.rounds_per_unit).0, RATE_Q, "unit");
    values.push(1.0 - rate(p)? / rate(untraced)?);
    values.push(share("round"));
    Ok(values)
}

/// Formats a float as JSON: every digit Rust's shortest round-trip form
/// gives, and an error for NaN or infinity (not JSON numbers).
fn number(name: &str, v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("metric {name} is {v}"))
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str)],
    values: &[f64],
) -> Result<String, String> {
    let body = metrics
        .iter()
        .zip(values)
        .map(|(&(name, unit), &v)| {
            Ok(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(name, v)?
            ))
        })
        .collect::<Result<Vec<_>, String>>()?
        .join(", ");
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    ))
}

/// The machine and sample context of a run, as one JSON line.
pub fn context_line(workload: &str, seed: u64, seconds: u64, out: &Outcome) -> String {
    let p = &out.phase;
    let untraced = out.untraced.as_ref().map_or(0, Phase::rounds);
    format!(
        "{{\"context\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"nproc\": {}, \"threads\": {}, \"rounds\": {}, \"untraced_rounds\": {untraced}, \
         \"rounds_per_unit\": {}, \"setup_samples\": {}, \"unit_samples\": {}, \
         \"query_samples\": {}, \"tail_mse_rounds\": {}, \"spans\": {}}}}}",
        nproc(),
        out.threads,
        p.rounds(),
        out.rounds_per_unit,
        out.setup_ns.len(),
        p.rounds() / out.rounds_per_unit,
        p.query_ns.len(),
        p.tail_mse.len(),
        out.tracer.spans().len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = json[start..].find(']').expect("section closes") + start;
            json[start..end]
                .split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        let names =
            |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(section("end_to_end"), names(&END_TO_END));
        assert_eq!(section("per_layer"), names(&PER_LAYER));
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} with unit {unit}"
            );
        }
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(true, 5, 0, &END_TO_END[..2], &[0.5, 1234.5]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"reports_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}}}"
        );
        assert!(result_line(true, 1, 0, &END_TO_END[..1], &[f64::NAN]).is_err());
    }
}
