//! The planner frontier: predicted-vs-measured error ranking over a
//! fixed `(d, ε, budget)` grid.
//!
//! The planner ranks mechanisms by *predicted* noise-floor σ²; this
//! module checks those predictions against measurements. [`sweep`]
//! plans every cell of [`DOMAINS`] × [`EPSILONS`] × [`PROFILES`],
//! executes the cell's top pick and its first clearly-separated
//! runner-up end to end over the byte path (client frames → collector
//! service → estimates), and records both measured errors.
//! [`FrontierCell::agrees`] says whether the measured ranking matches
//! the predicted one. `ldp-sim --scenario plan` prints the cells and
//! the `aggregate_throughput` bench counts the agreements; both read
//! them from here.

use crate::gen::{exact_counts, ZipfGenerator};
use crate::service::{CollectorService, WireClient};
use ldp_core::{LdpError, Result};
use ldp_planner::{Plan, Planner, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Domain sizes the frontier sweeps.
pub const DOMAINS: [u64; 3] = [64, 256, 1024];

/// Per-report privacy levels the frontier sweeps.
pub const EPSILONS: [f64; 3] = [0.5, 1.0, 2.0];

/// Budget profiles as `(label, memory budget, report budget)` in bytes.
/// They exercise different planner regimes: unconstrained accuracy
/// chasing, a memory wall that forces sketches/cohorts at large `d`, and
/// a wire cap that forces compact report formats.
pub const PROFILES: [(&str, Option<u64>, Option<u64>); 3] = [
    ("roomy", Some(1024 * 1024), None),
    ("tight-mem", Some(4 * 1024), None),
    ("tight-wire", Some(1024 * 1024), Some(8)),
];

/// Collection rounds per executed arm: a few repetitions average away
/// single-draw luck so the comparison reflects the mechanisms, not one
/// RNG stream.
const TRIALS: u64 = 3;

/// One planned and executed frontier cell.
#[derive(Debug, Clone)]
pub struct FrontierCell {
    /// The workload the cell planned for.
    pub spec: WorkloadSpec,
    /// The budget profile's label (see [`PROFILES`]).
    pub profile: &'static str,
    /// The planner's top pick.
    pub top: Plan,
    /// The first plan whose predicted σ² is at least 1.1× the top's —
    /// ranking two near-identical predictions is a coin flip by
    /// construction — or rank 2 when the whole field is tied.
    pub next: Plan,
    /// Measured tail-half MSE of the top pick.
    pub mse_top: f64,
    /// Measured tail-half MSE of the runner-up.
    pub mse_next: f64,
    /// Wall time of the cell's `Planner::plan` call.
    pub plan_time: Duration,
}

impl FrontierCell {
    /// Whether the measured errors rank the two plans the way the
    /// planner predicted (top ≤ next).
    #[must_use]
    pub fn agrees(&self) -> bool {
        self.mse_top <= self.mse_next
    }
}

/// Sweeps `planner` over the frontier grid with `n` Zipf(`zipf`) reports
/// per cell. Cell `ci` (counting from 0 in domain, ε, profile order)
/// draws its values from `seed ^ ci` and seeds its two arms with
/// `seed + ci` and `seed + 1000 + ci`.
///
/// # Errors
/// [`LdpError::UnsupportedMechanism`] when a cell has fewer than two
/// plans; [`LdpError::InvalidParameter`] when a plan does not fit its
/// cell's spec or `zipf` is unusable; any error from planning or from
/// executing a plan over the byte path.
pub fn sweep(planner: &Planner, n: usize, zipf: f64, seed: u64) -> Result<Vec<FrontierCell>> {
    let mut cells = Vec::new();
    for &d in &DOMAINS {
        for &eps in &EPSILONS {
            for &(profile, mem, wire_cap) in &PROFILES {
                let ci = cells.len() as u64;
                let mut spec = WorkloadSpec::new(d, n as u64, eps);
                if let Some(m) = mem {
                    spec = spec.with_memory_budget(m);
                }
                if let Some(w) = wire_cap {
                    spec = spec.with_report_budget(w);
                }
                let started = Instant::now();
                let plans = planner.plan(&spec)?;
                let plan_time = started.elapsed();
                let cell = format!("cell d={d} ε={eps} {profile}");
                if plans.len() < 2 {
                    return Err(LdpError::UnsupportedMechanism(format!(
                        "{cell}: fewer than 2 plans"
                    )));
                }
                if let Some(p) = plans.iter().find(|p| !p.cost.fits(&spec)) {
                    return Err(LdpError::InvalidParameter(format!(
                        "{cell}: {} blew a budget",
                        p.kind().name()
                    )));
                }
                let top = &plans[0];
                let next = plans[1..]
                    .iter()
                    .find(|p| p.cost.variance >= 1.1 * top.cost.variance)
                    .unwrap_or(&plans[1]);

                let population = ZipfGenerator::new(d, zipf).map_err(LdpError::InvalidParameter)?;
                let values = population.sample_n(n, &mut StdRng::seed_from_u64(seed ^ ci));
                let truth = exact_counts(&values, d);
                let mse_top = tail_mse(top, &values, &truth, seed.wrapping_add(ci))?;
                let mse_next = tail_mse(next, &values, &truth, seed.wrapping_add(1000 + ci))?;
                cells.push(FrontierCell {
                    spec,
                    profile,
                    top: top.clone(),
                    next: next.clone(),
                    mse_top,
                    mse_next,
                    plan_time,
                });
            }
        }
    }
    Ok(cells)
}

/// Executes one planned descriptor end to end through the wire path and
/// returns the measured MSE over the **tail half** of the domain (items
/// at or below the median true count), averaged over [`TRIALS`] rounds.
/// The planner ranks on noise-floor σ² — the variance of a *rare* item's
/// estimate — so the measured yardstick is the same quantity, not the
/// head items whose error is dominated by frequency-dependent terms
/// every floor formula ignores.
fn tail_mse(plan: &Plan, values: &[u64], truth: &[f64], seed: u64) -> Result<f64> {
    let client = WireClient::from_descriptor(&plan.descriptor)?;
    let mut sorted = truth.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];

    let mut mse_sum = 0.0f64;
    for t in 0..TRIALS {
        let mut service = CollectorService::from_descriptor(&plan.descriptor)?;
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(t.wrapping_mul(0x9e37_79b9)));
        let mut wire = Vec::new();
        for &v in values {
            client.randomize_item(v, &mut rng, &mut wire)?;
        }
        service.ingest_concat(&wire)?;
        let est = service.estimates();

        let (mut sse, mut count) = (0.0f64, 0usize);
        for (e, t) in est.iter().zip(truth) {
            if *t <= median {
                sse += (e - t) * (e - t);
                count += 1;
            }
        }
        mse_sum += sse / count.max(1) as f64;
    }
    Ok(mse_sum / TRIALS as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_planner::workspace_planner;

    #[test]
    fn sweep_covers_the_grid_with_separated_fitting_pairs() {
        let planner = workspace_planner();
        let cells = sweep(&planner, 1_000, 1.1, 7).unwrap();
        assert_eq!(cells.len(), DOMAINS.len() * EPSILONS.len() * PROFILES.len());
        for cell in &cells {
            let separated = cell.next.cost.variance >= 1.1 * cell.top.cost.variance;
            let rank_two = planner.plan(&cell.spec).unwrap()[1] == cell.next;
            assert!(separated || rank_two, "{cell:?}");
            assert!(cell.top.cost.fits(&cell.spec), "{cell:?}");
            assert!(cell.next.cost.fits(&cell.spec), "{cell:?}");
        }
    }
}
