//! App-usage telemetry à la Windows: repeated private collection.
//!
//! Run with: `cargo run --release --example app_usage`
//!
//! Microsoft's scenario: estimate average daily app usage across devices,
//! every day, without the repeated reports eroding privacy. Shows
//! 1BitMean accuracy, the dBitFlip usage histogram, and memoization
//! keeping a stable device's transcript constant across rounds.

use ldp::core::fo::FoAggregator;
use ldp::core::Epsilon;
use ldp::microsoft::{DBitFlip, MemoizedMeanClient, OneBitMean, RoundingConfig};
use ldp::workloads::gen::NumericStream;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let eps = Epsilon::new(1.0).expect("valid eps");
    let max_seconds = 3600.0;
    let n = 200_000;
    let mut rng = StdRng::seed_from_u64(10);

    // --- Single-round mean. ---
    let mech = OneBitMean::new(eps, max_seconds).expect("valid range");
    let stream = NumericStream::new(n, max_seconds, 0.02, 0.01, &mut rng);
    let values = stream.round_values(0, &mut rng);
    let truth = values.iter().sum::<f64>() / n as f64;
    let bits: Vec<bool> = values
        .iter()
        .map(|&x| mech.randomize(x, &mut rng))
        .collect();
    println!(
        "1BitMean over {n} devices: estimate {:.1}s vs true {:.1}s (predicted sd {:.1}s)",
        mech.estimate_mean(&bits),
        truth,
        mech.worst_case_variance(n).sqrt()
    );

    // --- Usage histogram via dBitFlip. ---
    let buckets = 16u32;
    let dbf = DBitFlip::new(buckets, 4, eps).expect("valid d");
    let mut agg = dbf.new_aggregator();
    for &x in &values {
        let b = ((x / max_seconds * buckets as f64) as u32).min(buckets - 1);
        agg.accumulate(&dbf.randomize(b, &mut rng));
    }
    println!("\ndBitFlip histogram (4 bits/device, 16 buckets):");
    let est = agg.estimate();
    for (i, &c) in est.iter().enumerate() {
        let bar = "#".repeat((c / n as f64 * 200.0).max(0.0) as usize);
        println!(
            "  [{:>4.0}-{:>4.0}s] {:>8.0} {bar}",
            i as f64 * max_seconds / buckets as f64,
            (i + 1) as f64 * max_seconds / buckets as f64,
            c
        );
    }

    // --- Memoized repeated collection. ---
    println!("\nmemoized daily collection (device with stable usage):");
    let config = RoundingConfig::new(0.0).expect("valid gamma");
    let device = MemoizedMeanClient::enroll(mech, config, &mut rng);
    let transcript: Vec<bool> = (0..7).map(|_| device.report(900.0, &mut rng)).collect();
    println!("  7-day transcript: {transcript:?}");
    println!("  -> identical every day: repeated collection reveals nothing new.");
}
