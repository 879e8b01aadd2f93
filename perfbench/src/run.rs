//! The run loop every workload shares: a warm-up round, timed phases of
//! collection rounds, a from-scratch set-up after every round, and the
//! per-round conservation check.
//!
//! A run with tracing off times one phase of `--seconds`. A traced run
//! spends `--seconds` alternating unit by unit between an untraced and a
//! traced phase, so that both see the same states of the host; the traced
//! phase gives the per-layer numbers and the pair gives the tracing
//! overhead.
//!
//! Rounds are grouped into *units* of equal work — one round, or one
//! simulated day of hourly rounds — so that statistics over units compare
//! like with like.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::inputs;
use crate::stats;
use crate::trace::Tracer;

/// Measured units whose last round's tail error makes up `tail_mse` — a
/// fixed count, so the metric depends on the seed alone, not on how fast
/// rounds ran.
pub const MSE_ROUNDS: u64 = 8;

/// What the benchmark asks of a run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Units each measured phase runs at least, whatever `seconds` says.
    pub min_units: usize,
    /// Analyst queries each measured phase collects at least.
    pub min_queries: usize,
}

impl Config {
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            seed,
            seconds,
            trace,
            min_units: stats::samples_needed(0.1),
            min_queries: stats::samples_needed(0.99),
        }
    }
}

/// What became of the reports a round handed to the collector. Every
/// attempted report is folded into the published aggregate, shed by
/// backpressure, dropped as late, or rejected as malformed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub folded: u64,
    pub shed: u64,
    pub late: u64,
    pub rejected: u64,
}

impl Tally {
    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.folded += o.folded;
        self.shed += o.shed;
        self.late += o.late;
        self.rejected += o.rejected;
    }

    pub fn conserved(&self) -> bool {
        self.attempted == self.folded + self.shed + self.late + self.rejected
    }
}

/// Everything one phase of rounds measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Per round: ns from handing the round's input to the collector
    /// until its estimate is computed. Their sum is the timed path.
    pub publish_ns: Vec<f64>,
    /// Per round: reports folded into the published aggregate.
    pub round_reports: Vec<f64>,
    pub tally: Tally,
    /// Per analyst query, in ns.
    pub query_ns: Vec<f64>,
    /// Wire bytes of the frames the clients produced, and their reports.
    pub wire_bytes: u64,
    pub wire_reports: u64,
    /// Tail-half MSE at the end of units `1..=MSE_ROUNDS`.
    pub tail_mse: Vec<f64>,
    /// Failed correctness checks.
    pub failures: Vec<String>,
    /// Per-layer sums a workload reads off the library's own counters.
    pub counters: BTreeMap<&'static str, f64>,
}

impl Phase {
    /// Records one round's timed path and report tally, checking that
    /// the tally is conserved.
    pub fn record_round(&mut self, publish: Duration, tally: Tally) {
        self.publish_ns.push(publish.as_nanos() as f64);
        self.round_reports.push(tally.folded as f64);
        self.check(tally.conserved(), || {
            format!("round does not conserve reports: {tally:?}")
        });
        self.tally.add(&tally);
    }

    pub fn rounds(&self) -> usize {
        self.publish_ns.len()
    }

    /// Times one analyst query.
    pub fn query<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.query_ns.push(t0.elapsed().as_nanos() as f64);
        out
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Whether round `r` contributes to `tail_mse`: the last round of
    /// each of the first [`MSE_ROUNDS`] measured units of `per_unit`
    /// rounds (day ends are 24 hours apart, so their sliding windows do
    /// not overlap).
    pub fn wants_mse(r: u64, per_unit: usize) -> bool {
        let per_unit = per_unit as u64;
        r.is_multiple_of(per_unit) && (1..=MSE_ROUNDS).contains(&(r / per_unit))
    }

    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.counters.entry(key).or_default() += v;
    }

    pub fn max(&mut self, key: &'static str, v: f64) {
        let slot = self.counters.entry(key).or_default();
        *slot = slot.max(v);
    }

    pub fn counter(&self, key: &str) -> f64 {
        self.counters.get(key).copied().unwrap_or(0.0)
    }

    /// Per complete unit of `per` rounds: reports folded per second of
    /// timed path, and mean ns per round.
    pub fn units(&self, per: usize) -> (Vec<f64>, Vec<f64>) {
        self.round_reports
            .chunks_exact(per)
            .zip(self.publish_ns.chunks_exact(per))
            .map(|(reports, ns)| {
                let ns_sum: f64 = ns.iter().sum();
                (
                    reports.iter().sum::<f64>() * 1e9 / ns_sum,
                    ns_sum / per as f64,
                )
            })
            .unzip()
    }

    /// Share of attempted reports reflected in the estimate.
    pub fn delivered_frac(&self) -> f64 {
        self.tally.folded as f64 / self.tally.attempted as f64
    }

    /// Share of attempted reports rejected, shed or late.
    pub fn lost_frac(&self) -> f64 {
        1.0 - self.delivered_frac()
    }
}

/// One benchmark workload, driven by [`drive`].
pub trait Workload: Sized {
    /// Inputs built once per run, outside every timed region.
    type Prep;

    /// Rounds in one unit of equal work.
    const ROUNDS_PER_UNIT: usize;

    /// Threads the workload runs, the benchmark's own included.
    fn threads() -> usize;

    fn prepare(cfg: &Config) -> Result<Self::Prep, String>;

    /// Everything before the first report is accepted (timed for
    /// `setup_s`).
    fn setup(prep: &Self::Prep, tr: &mut Tracer) -> Result<Self, String>;

    /// Stops whatever `setup` started; called on every discarded set-up.
    fn teardown(self) -> Result<(), String>;

    /// Collection round `r`: builds its inputs outside the timed path,
    /// runs the timed path, then the query burst and the round's checks.
    fn round(
        &mut self,
        prep: &Self::Prep,
        r: u64,
        tr: &mut Tracer,
        phase: &mut Phase,
    ) -> Result<(), String>;

    /// End-of-run checks on the published aggregate; returns its
    /// checkpoint size in bytes.
    fn close(&mut self, tr: &mut Tracer, phase: &mut Phase) -> Result<u64, String>;
}

/// Everything a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// One from-scratch set-up before the first round and one after each
    /// round, spread over the run.
    pub setup_ns: Vec<f64>,
    pub rounds_per_unit: usize,
    /// The measured phase (the traced units, when tracing).
    pub phase: Phase,
    /// The untraced units of a traced run.
    pub untraced: Option<Phase>,
    pub state_bytes: u64,
    pub threads: usize,
    pub tracer: Tracer,
}

/// Runs workload `W` as `cfg` asks.
pub fn drive<W: Workload>(cfg: &Config) -> Result<Outcome, String> {
    let prep = W::prepare(cfg)?;
    let mut tr = Tracer::new(cfg.trace);
    let mut setup_ns = Vec::new();
    let mut w = timed_setup::<W>(&prep, &mut tr, &mut setup_ns)?;

    // Round 0 warms caches and allocators; its checks still count.
    tr.set_enabled(false);
    let mut warm = Phase::default();
    w.round(&prep, 0, &mut tr, &mut warm)?;
    let mut run = Run {
        prep: &prep,
        cfg,
        next_round: 1,
        setup_ns,
        tr,
    };
    let (mut phase, untraced) = if cfg.trace {
        let [untraced, traced] = run.phases(&mut w, [false, true])?;
        (traced, Some(untraced))
    } else {
        let [phase] = run.phases(&mut w, [false])?;
        (phase, None)
    };
    let mut tr = run.tr;
    let state_bytes = w.close(&mut tr, &mut phase)?;
    w.teardown()?;
    phase.failures.extend(warm.failures);
    if let Some(a) = &untraced {
        phase.failures.extend(a.failures.iter().cloned());
    }
    Ok(Outcome {
        setup_ns: run.setup_ns,
        rounds_per_unit: W::ROUNDS_PER_UNIT,
        phase,
        untraced,
        state_bytes,
        threads: W::threads(),
        tracer: tr,
    })
}

/// One from-scratch set-up, timed into `setup_ns`.
fn timed_setup<W: Workload>(
    prep: &W::Prep,
    tr: &mut Tracer,
    setup_ns: &mut Vec<f64>,
) -> Result<W, String> {
    let t0 = Instant::now();
    let w = tr.span("setup", 0, |tr| W::setup(prep, tr))?;
    setup_ns.push(t0.elapsed().as_nanos() as f64);
    Ok(w)
}

/// The state a run carries through its rounds.
struct Run<'a, P> {
    prep: &'a P,
    cfg: &'a Config,
    next_round: u64,
    setup_ns: Vec<f64>,
    tr: Tracer,
}

impl<P> Run<'_, P> {
    /// Runs whole units for `cfg.seconds`, and on until every phase holds
    /// `cfg.min_units` units and `cfg.min_queries` queries. Unit `k` goes
    /// to phase `k % N`, with the tracer on when `traced` says so; a
    /// discarded from-scratch set-up is timed after each round.
    fn phases<W: Workload<Prep = P>, const N: usize>(
        &mut self,
        w: &mut W,
        traced: [bool; N],
    ) -> Result<[Phase; N], String> {
        let mut phases: [Phase; N] = std::array::from_fn(|_| Phase::default());
        let start = Instant::now();
        for unit in 0.. {
            let k = unit % N;
            self.tr.set_enabled(traced[k]);
            for _ in 0..W::ROUNDS_PER_UNIT {
                w.round(self.prep, self.next_round, &mut self.tr, &mut phases[k])?;
                self.next_round += 1;
                timed_setup::<W>(self.prep, &mut self.tr, &mut self.setup_ns)?.teardown()?;
            }
            if k == N - 1
                && start.elapsed().as_secs_f64() >= self.cfg.seconds
                && phases.iter().all(|p| {
                    p.rounds() / W::ROUNDS_PER_UNIT >= self.cfg.min_units
                        && p.query_ns.len() >= self.cfg.min_queries
                })
            {
                break;
            }
        }
        Ok(phases)
    }
}

/// Runs round `r`'s `count` analyst queries — `query` over
/// [`inputs::QUERY_ITEMS`] items of `pool` each — timing every one.
pub fn query_burst<E>(
    phase: &mut Phase,
    tr: &mut Tracer,
    (pool, seed): (&[u64], u64),
    r: u64,
    count: u64,
    query: impl Fn(&[u64]) -> Result<Vec<f64>, E>,
) {
    for q in 0..count {
        let items = inputs::query_items(pool, seed, r * count + q);
        let est = tr.span("estimate.estimate_items", items.len() as u64, |_| {
            phase.query(|| query(&items))
        });
        phase.check(est.is_ok(), || format!("round {r}: query {q} failed"));
    }
}

/// Threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process, in MB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading process status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("process status has no VmHWM line")?;
    Ok(kib * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_conservation() {
        let ok = Tally {
            attempted: 10,
            folded: 7,
            shed: 1,
            late: 1,
            rejected: 1,
        };
        assert!(ok.conserved());
        let mut phase = Phase::default();
        phase.record_round(Duration::from_millis(1), ok);
        assert!(phase.failures.is_empty());
        phase.record_round(
            Duration::from_millis(1),
            Tally {
                attempted: 10,
                folded: 9,
                ..Tally::default()
            },
        );
        assert_eq!(phase.failures.len(), 1);
        assert_eq!(phase.tally.attempted, 20);
        assert!((phase.lost_frac() - 4.0 / 20.0).abs() < 1e-12);
        assert_eq!(phase.units(2), (vec![16.0 / 2e-3], vec![1e6]));
    }

    #[test]
    fn mse_rounds_end_the_first_measured_units() {
        assert!(!Phase::wants_mse(0, 1), "the warm-up round is not measured");
        assert!(Phase::wants_mse(1, 1) && Phase::wants_mse(MSE_ROUNDS, 1));
        assert!(!Phase::wants_mse(MSE_ROUNDS + 1, 1));
        let days: Vec<u64> = (0..400).filter(|&r| Phase::wants_mse(r, 24)).collect();
        assert_eq!(days, (1..=MSE_ROUNDS).map(|d| d * 24).collect::<Vec<_>>());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
