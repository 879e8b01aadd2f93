//! The collector benchmark.
//!
//! ```text
//! ldp-perfbench --workload fleet_oue|window_olhc|rollup_cms --seed N
//!               --seconds S --trace 0|1 [--spans PATH]
//! ```
//!
//! Prints each metric with its unit, a context line (machine, threads,
//! sample counts), and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! writes its spans to `--spans` as JSON lines. Exits 1 when a
//! correctness check fails, 2 on a usage or run error (no result line).
//! `run.py` beside this crate builds it and passes the arguments on.

mod fleet;
mod inputs;
mod report;
mod rollup;
mod run;
mod stats;
mod trace;
mod window;

use std::path::PathBuf;
use std::process::ExitCode;

use run::{drive, Config, Outcome};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    FleetOue,
    WindowOlhc,
    RollupCms,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::FleetOue, Kind::WindowOlhc, Kind::RollupCms];

    fn name(self) -> &'static str {
        match self {
            Kind::FleetOue => "fleet_oue",
            Kind::WindowOlhc => "window_olhc",
            Kind::RollupCms => "rollup_cms",
        }
    }

    fn drive(self, cfg: &Config) -> Result<Outcome, String> {
        match self {
            Kind::FleetOue => drive::<fleet::Fleet>(cfg),
            Kind::WindowOlhc => drive::<window::Window>(cfg),
            Kind::RollupCms => drive::<rollup::Rollup>(cfg),
        }
    }
}

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace, mut spans) = (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::ALL
                        .into_iter()
                        .find(|k| k.name() == value)
                        .ok_or(format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

/// Runs the benchmark; `Ok(true)` when every correctness check passed.
fn bench(args: &Args) -> Result<bool, String> {
    let cfg = Config::new(args.seed, args.seconds as f64, args.trace);
    let out = args.kind.drive(&cfg)?;
    let (list, values) = if args.trace {
        let values = report::per_layer(&out, args.kind == Kind::WindowOlhc)?;
        if let Some(path) = &args.spans {
            out.tracer
                .write_jsonl(path)
                .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
        }
        (&report::PER_LAYER[..], values)
    } else {
        (&report::END_TO_END[..], report::end_to_end(&out)?)
    };

    let p = &out.phase;
    for failure in &p.failures {
        println!("CHECK FAILED: {failure}");
    }
    let mut tally = p.tally;
    if let Some(u) = &out.untraced {
        tally.add(&u.tally);
    }
    // Late stragglers are dropped by design; rejected or shed reports
    // and failed checks are failures.
    let failed = p.failures.len() as u64 + tally.rejected + tally.shed;
    println!(
        "{} | seed {} | {} s | trace {} | {} rounds",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        p.rounds()
    );
    for ((name, unit), v) in list.iter().zip(&values) {
        println!("  {name:<40} {v:>16.6} {unit}");
    }
    if let Some([q1, q2, q3]) = stats::quartiles(&p.publish_ns) {
        println!(
            "  publish quartiles {:.3} / {:.3} / {:.3} ms | lost_frac {:.6}",
            q1 / 1e6,
            q2 / 1e6,
            q3 / 1e6,
            p.lost_frac()
        );
    }
    println!(
        "{}",
        report::context_line(args.kind.name(), args.seed, args.seconds, &out)
    );
    println!(
        "{}",
        report::result_line(failed == 0, tally.attempted, failed, list, &values)?
    );
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: ldp-perfbench --workload fleet_oue|window_olhc|rollup_cms \
                 --seed N --seconds S --trace 0|1 [--spans PATH]"
            );
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run of `units` units and no query minimum, however short.
    fn quick(seed: u64, units: usize) -> Config {
        Config {
            min_units: units,
            min_queries: 0,
            ..Config::new(seed, 0.0, false)
        }
    }

    #[test]
    fn parses_the_command_line() {
        let argv = |s: &str| {
            s.split(' ')
                .map(String::from)
                .collect::<Vec<_>>()
                .into_iter()
        };
        let a = parse_args(argv(
            "--workload window_olhc --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace),
            (Kind::WindowOlhc, 7, 10, true)
        );
        assert!(parse_args(argv("--workload nope --seed 7 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(argv("--workload fleet_oue --seed 7 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(argv("--workload fleet_oue --seed 7 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(argv("--workload fleet_oue --seed 7 --trace 0")).is_err());
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let fleet = |seed| {
            let prep = <fleet::Fleet as run::Workload>::prepare(&quick(seed, 1)).unwrap();
            (fleet::round_values(&prep, 3), fleet::round_values(&prep, 4))
        };
        assert_eq!(fleet(1), fleet(1));
        assert_ne!(fleet(1), fleet(2));
        assert_ne!(fleet(1).0, fleet(1).1, "rounds differ");

        let window = |seed| {
            let prep = <window::Window as run::Workload>::prepare(&quick(seed, 1)).unwrap();
            window::hour_values(&prep, 47)
        };
        assert_eq!(window(1), window(1));
        assert_ne!(window(1), window(2));
        assert!(!window(1).1.is_empty(), "hour 47 carries stragglers");

        let rollup = |seed| {
            let prep = <rollup::Rollup as run::Workload>::prepare(&quick(seed, 1)).unwrap();
            (0..3)
                .map(|c| rollup::collector_ranks(&prep, 2, c))
                .collect::<Vec<_>>()
        };
        assert_eq!(rollup(1), rollup(1));
        assert_ne!(rollup(1), rollup(2));
    }

    #[test]
    fn lost_frac_is_the_designed_straggler_share() {
        // Two simulated days: the measured rounds cover hours 25..=72,
        // which hold two straggler batches (hours 47 and 71).
        let cfg = quick(5, 2);
        let out = Kind::WindowOlhc.drive(&cfg).unwrap();
        let p = &out.phase;
        assert!(p.failures.is_empty(), "{:?}", p.failures);
        let scale = window::SCALE;
        let hours = 25..25 + p.rounds() as u64;
        let stragglers: usize = hours.clone().map(|h| scale.stragglers(h)).sum();
        let reports: usize = hours.map(|h| scale.hour_reports(h)).sum();
        assert_eq!(stragglers, 2 * scale.base / 100);
        let designed = stragglers as f64 / (stragglers + reports) as f64;
        assert_eq!(p.tally.late, stragglers as u64);
        assert!(
            (p.lost_frac() - designed).abs() < 1e-12,
            "{} vs {designed}",
            p.lost_frac()
        );
    }

    #[test]
    fn lost_frac_is_zero_without_stragglers() {
        for kind in [Kind::FleetOue, Kind::RollupCms] {
            let out = kind.drive(&quick(5, 3)).unwrap();
            let p = &out.phase;
            assert!(p.failures.is_empty(), "{}: {:?}", kind.name(), p.failures);
            assert!(p.tally.attempted > 0);
            assert_eq!(p.lost_frac(), 0.0, "{}", kind.name());
        }
    }

    #[test]
    fn traced_runs_report_every_layer_metric() {
        for kind in Kind::ALL {
            // Enough units on each side for the p90 unit rates behind
            // `trace.overhead_frac`.
            let out = kind.drive(&Config::new(9, 0.0, true)).unwrap();
            let traced = out.phase.rounds() / out.rounds_per_unit;
            let untraced = out.untraced.as_ref().unwrap().rounds() / out.rounds_per_unit;
            assert_eq!(traced, untraced, "{}: units alternate", kind.name());
            let values = report::per_layer(&out, kind == Kind::WindowOlhc).unwrap();
            assert_eq!(values.len(), report::PER_LAYER.len());
            let unattributed = values[values.len() - 1];
            assert!(
                (0.0..1.0).contains(&unattributed),
                "{}: {unattributed}",
                kind.name()
            );
            // Self-time shares and the unattributed share tile the rounds.
            let shares: f64 = values[values.len() - 9..values.len() - 2].iter().sum();
            assert!(
                (shares + unattributed - 1.0).abs() < 1e-9,
                "{}",
                kind.name()
            );
        }
    }
}
