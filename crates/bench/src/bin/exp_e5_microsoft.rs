//! Experiment E5 — Microsoft telemetry (NeurIPS 2017 Figs. 2–3 shape).
//!
//! Reproduces: 1BitMean error vs population size (the paper's headline
//! "accurate at millions of devices"); dBitFlip histogram error vs d
//! (bits per device); and memoization behaviour over repeated rounds —
//! stable values leak nothing new while the round-mean stays accurate.

use ldp_core::fo::FoAggregator;
use ldp_core::Epsilon;
use ldp_microsoft::{DBitFlip, MemoizedMeanClient, OneBitMean, RoundingConfig};
use ldp_workloads::gen::{gaussian_population, NumericStream};
use ldp_workloads::{metrics, ExperimentTable, Trials};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let trials = Trials::new(5, 3);
    let eps = Epsilon::new(1.0).expect("valid eps");
    let max_value = 3600.0; // seconds of app usage per hour

    // --- E5a: 1BitMean absolute error vs n. ---
    let mut t1 = ExperimentTable::new(
        "E5a: 1BitMean absolute error vs n (eps=1, values in [0, 3600])",
        &["n", "abs error (s)", "predicted sd"],
    );
    for &n in &[10_000usize, 100_000, 1_000_000] {
        let mech = OneBitMean::new(eps, max_value).expect("valid range");
        let stats = trials.run(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let stream = NumericStream::new(n, max_value, 0.0, 0.0, &mut rng);
            let values = stream.round_values(0, &mut rng);
            let truth = values.iter().sum::<f64>() / n as f64;
            let bits: Vec<bool> = values
                .iter()
                .map(|&x| mech.randomize(x, &mut rng))
                .collect();
            (mech.estimate_mean(&bits) - truth).abs()
        });
        t1.row(&[
            n.to_string(),
            format!("{:.2}", stats.mean),
            format!("{:.2}", mech.worst_case_variance(n).sqrt()),
        ]);
    }
    t1.print();

    // --- E5b: dBitFlip histogram error vs d. ---
    let k = 32u32;
    let mut t2 = ExperimentTable::new(
        "E5b: dBitFlip histogram MAE vs bits-per-device d (k=32 buckets, n=100k, eps=1)",
        &["d", "MAE (counts)", "predicted sd"],
    );
    for &d in &[1u32, 2, 4, 8, 16, 32] {
        let mech = DBitFlip::new(k, d, eps).expect("valid d");
        let stats = trials.run(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 100_000;
            let pop = gaussian_population(n, k as u64, 0.15, &mut rng);
            let mut truth = vec![0f64; k as usize];
            let mut agg = mech.new_aggregator();
            for &v in &pop {
                truth[v as usize] += 1.0;
                agg.accumulate(&mech.randomize(v as u32, &mut rng));
            }
            metrics::mae(&agg.estimate(), &truth)
        });
        t2.row(&[
            d.to_string(),
            format!("{:.0}", stats.mean),
            format!("{:.0}", mech.count_variance(100_000).sqrt()),
        ]);
    }
    t2.print();

    // --- E5c: memoization over rounds. ---
    let mut t3 = ExperimentTable::new(
        "E5c: memoized repeated collection (n=50k, 10 rounds, gamma=0.1)",
        &[
            "round",
            "mean abs err (s)",
            "distinct msgs/device (stable value)",
        ],
    );
    let mech = OneBitMean::new(eps, max_value).expect("valid range");
    let config = RoundingConfig::new(0.1).expect("valid gamma");
    let mut rng = StdRng::seed_from_u64(777);
    let n = 50_000;
    let stream = NumericStream::new(n, max_value, 0.0, 0.0, &mut rng);
    let clients: Vec<MemoizedMeanClient> = (0..n)
        .map(|_| MemoizedMeanClient::enroll(mech, config, &mut rng))
        .collect();
    let values = stream.round_values(0, &mut rng);
    let truth = values.iter().sum::<f64>() / n as f64;
    // Track message diversity of device 0 with gamma = 0 separately.
    let pure = RoundingConfig::new(0.0).expect("valid gamma");
    let pure_client = MemoizedMeanClient::enroll(mech, pure, &mut rng);
    let mut distinct = std::collections::HashSet::new();
    for round in 0..10 {
        let bits: Vec<bool> = clients
            .iter()
            .zip(&values)
            .map(|(c, &x)| c.report(x, &mut rng))
            .collect();
        let est = MemoizedMeanClient::estimate_round_mean(&mech, &config, &bits);
        distinct.insert(pure_client.report(values[0], &mut rng));
        t3.row(&[
            round.to_string(),
            format!("{:.2}", (est - truth).abs()),
            distinct.len().to_string(),
        ]);
    }
    t3.print();
}
