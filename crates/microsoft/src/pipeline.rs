//! The assembled telemetry pipeline: what actually ships on a device.
//!
//! Ding et al.'s deployment does not run one mechanism — it runs a
//! *collection program*: a per-device privacy budget split across a mean
//! statistic (1BitMean) and a histogram statistic (dBitFlip), each with
//! memoization so daily collection stays inside the budget forever. This
//! module packages that composition behind one [`TelemetryPipeline`] so a
//! downstream user configures the deployment, not the mechanisms.

use crate::dbitflip::{DBitAggregator, DBitFlip};
use crate::memoization::{MemoizedMeanClient, RoundingConfig};
use crate::onebit::{OneBitMean, OneBitMeanAggregator};
use crate::repeated::MemoizedHistogramClient;
use ldp_core::fo::counters::{self, Op};
use ldp_core::fo::FoAggregator;
use ldp_core::mech::BatchMechanism;
use ldp_core::privacy::PrivacyBudget;
use ldp_core::{Epsilon, Result};
use rand::{Rng, RngCore};

/// Deployment configuration: total per-device budget and its split.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Total per-device ε (lifetime, thanks to memoization).
    pub total_epsilon: f64,
    /// Fraction of the budget spent on the mean statistic (the rest goes
    /// to the histogram).
    pub mean_fraction: f64,
    /// Value range upper bound for the mean statistic.
    pub max_value: f64,
    /// Histogram bucket count.
    pub buckets: u32,
    /// Bits per device for the histogram.
    pub bits_per_device: u32,
    /// Output-perturbation γ for the mean reports.
    pub gamma: f64,
}

/// The server-side view of one deployment.
#[derive(Debug)]
pub struct TelemetryPipeline {
    mean_mech: OneBitMean,
    rounding: RoundingConfig,
    hist_mech: DBitFlip,
}

/// One enrolled device: memoized state for both statistics.
#[derive(Debug, Clone)]
pub struct TelemetryDevice {
    mean_client: MemoizedMeanClient,
    hist_client: MemoizedHistogramClient,
    max_value: f64,
    buckets: u32,
}

/// One round's transmissions from a device.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// The 1BitMean bit.
    pub mean_bit: bool,
    /// The dBitFlip report.
    pub hist: crate::dbitflip::DBitReport,
}

impl TelemetryPipeline {
    /// Builds the pipeline, drawing the two mechanisms' budgets from one
    /// [`PrivacyBudget`] so the split is checked, not assumed.
    ///
    /// # Errors
    /// Propagates budget/parameter validation failures.
    pub fn new(config: TelemetryConfig) -> Result<Self> {
        let mut budget = PrivacyBudget::new(Epsilon::new(config.total_epsilon)?);
        let mean_eps = budget.draw(config.total_epsilon * config.mean_fraction)?;
        let hist_eps = budget.draw(budget.remaining())?;
        Ok(Self {
            mean_mech: OneBitMean::new(mean_eps, config.max_value)?,
            rounding: RoundingConfig::new(config.gamma)?,
            hist_mech: DBitFlip::new(config.buckets, config.bits_per_device, hist_eps)?,
        })
    }

    /// Enrolls a device (draws all its memoized randomness once).
    pub fn enroll<R: Rng + ?Sized>(&self, rng: &mut R) -> TelemetryDevice {
        TelemetryDevice {
            mean_client: MemoizedMeanClient::enroll(self.mean_mech, self.rounding, rng),
            hist_client: MemoizedHistogramClient::enroll(self.hist_mech, rng),
            max_value: self.mean_mech.max_value(),
            buckets: self.hist_mech.buckets(),
        }
    }

    /// Creates a fresh histogram aggregator for one round.
    pub fn new_histogram_aggregator(&self) -> DBitAggregator {
        self.hist_mech.new_aggregator()
    }

    /// Creates a fresh combined aggregator (mean + histogram) for one
    /// round, ready for the fused collection path.
    pub fn new_round_aggregator(&self) -> TelemetryAggregator {
        TelemetryAggregator {
            mean: self.mean_mech.new_aggregator(),
            hist: self.hist_mech.new_aggregator(),
            gamma: self.rounding.gamma,
        }
    }

    /// A borrowed view of one collection round over an enrolled device
    /// fleet — the [`BatchMechanism`] the sharded parallel engine drives.
    pub fn round<'a>(&'a self, devices: &'a [TelemetryDevice]) -> TelemetryRound<'a> {
        TelemetryRound {
            pipeline: self,
            devices,
        }
    }

    /// Server-side round mean from the collected mean bits.
    pub fn estimate_mean(&self, bits: &[bool]) -> f64 {
        MemoizedMeanClient::estimate_round_mean(&self.mean_mech, &self.rounding, bits)
    }
}

/// Combined per-round server state: the 1BitMean bit count and the
/// dBitFlip histogram counters — both exact integers, so sharded merges
/// reproduce sequential collection bit for bit.
#[derive(Debug, Clone)]
pub struct TelemetryAggregator {
    mean: OneBitMeanAggregator,
    hist: DBitAggregator,
    gamma: f64,
}

impl TelemetryAggregator {
    /// γ-corrected round mean in value units: maps the observed 1-rate
    /// back through the output-perturbation channel, then the 1BitMean
    /// debias — the streaming-counter equivalent of
    /// [`TelemetryPipeline::estimate_mean`].
    pub fn round_mean(&self) -> f64 {
        let n = self.mean.reports();
        if n == 0 {
            return 0.0;
        }
        let observed = self.mean.ones() as f64 / n as f64;
        let underlying = if self.gamma > 0.0 {
            (observed - self.gamma) / (1.0 - 2.0 * self.gamma)
        } else {
            observed
        };
        self.mean.debiased_rate_to_mean(underlying)
    }

    /// The histogram half of the round.
    pub fn histogram(&self) -> &DBitAggregator {
        &self.hist
    }

    /// The mean half of the round (raw, γ-uncorrected).
    pub fn mean_bits(&self) -> &OneBitMeanAggregator {
        &self.mean
    }

    /// Applies `op` to both halves; a refusal from the histogram undoes
    /// the mean half, so the round stays all-or-nothing.
    fn apply(&mut self, other: &Self, op: Op) -> Result<()> {
        if self.gamma.to_bits() != other.gamma.to_bits() {
            return Err(ldp_core::LdpError::StateMismatch(
                "telemetry gamma mismatch".into(),
            ));
        }
        counters::apply(&mut self.mean, &other.mean, op)?;
        counters::apply(&mut self.hist, &other.hist, op).inspect_err(|_| {
            counters::apply(&mut self.mean, &other.mean, op.inverse()).expect("exact inverse");
        })
    }
}

impl ldp_core::snapshot::StateSnapshot for TelemetryAggregator {
    fn state_tag(&self) -> u8 {
        ldp_core::snapshot::state_tag::MS_TELEMETRY
    }

    fn snapshot_payload(&self, out: &mut Vec<u8>) {
        // γ first, then the two halves' own payloads back to back (each
        // is self-delimiting: its counter vectors carry length prefixes).
        ldp_core::wire::put_f64_le(out, self.gamma);
        self.mean.snapshot_payload(out);
        self.hist.snapshot_payload(out);
    }

    fn restore_payload(&mut self, r: &mut ldp_core::wire::WireReader<'_>) -> ldp_core::Result<()> {
        ldp_core::snapshot::check_f64(r, self.gamma, "telemetry gamma")?;
        // Decode into clones so a failure in the second half leaves the
        // first untouched.
        let mut mean = self.mean.clone();
        mean.restore_payload(r)?;
        let mut hist = self.hist.clone();
        hist.restore_payload(r)?;
        self.mean = mean;
        self.hist = hist;
        Ok(())
    }
}

impl FoAggregator for TelemetryAggregator {
    type Report = TelemetryReport;

    /// Folds the histogram half first: it is the half that can refuse,
    /// so a refused report leaves both halves unchanged.
    fn try_accumulate(&mut self, report: &TelemetryReport) -> Result<()> {
        self.hist.try_accumulate(&report.hist)?;
        self.mean.try_accumulate(&report.mean_bit)
    }

    fn reports(&self) -> usize {
        self.mean.reports()
    }

    /// The histogram estimate (the frequency-shaped half of the round);
    /// the mean statistic is exposed via
    /// [`round_mean`](Self::round_mean).
    fn estimate(&self) -> Vec<f64> {
        self.hist.estimate()
    }

    fn merge(&mut self, other: Self) -> Result<()> {
        self.apply(&other, Op::Merge)
    }

    fn try_subtract(&mut self, other: &Self) -> Result<()> {
        self.apply(other, Op::Subtract)
    }
}

/// One collection round over an enrolled fleet, as a [`BatchMechanism`]:
/// inputs are `(device_index, value)` pairs (the device's memoized
/// randomness lives with the device, so shards must know *which* device
/// reports, not just the value). Build inputs with
/// [`TelemetryRound::inputs`].
#[derive(Debug, Clone, Copy)]
pub struct TelemetryRound<'a> {
    pipeline: &'a TelemetryPipeline,
    devices: &'a [TelemetryDevice],
}

impl TelemetryRound<'_> {
    /// Pairs each device index with its current value, in fleet order —
    /// the input population for one round.
    ///
    /// # Panics
    /// Panics if `values` and the fleet disagree in length.
    pub fn inputs(&self, values: &[f64]) -> Vec<(u32, f64)> {
        assert_eq!(
            values.len(),
            self.devices.len(),
            "one value per enrolled device"
        );
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u32, v))
            .collect()
    }
}

impl BatchMechanism for TelemetryRound<'_> {
    type Input = (u32, f64);
    type Aggregator = TelemetryAggregator;

    fn new_aggregator(&self) -> TelemetryAggregator {
        self.pipeline.new_round_aggregator()
    }

    /// Fused round: each device's mean bit (one optional γ draw) and its
    /// memoized histogram answers fold straight into the counters — no
    /// [`TelemetryReport`], no bucket-list clone, no bit vector. Same RNG
    /// stream as the scalar `TelemetryDevice::report` + accumulate loop.
    fn accumulate_batch<R: RngCore>(
        &self,
        inputs: &[(u32, f64)],
        rng: &mut R,
        agg: &mut TelemetryAggregator,
    ) {
        assert!(
            agg.gamma == self.pipeline.rounding.gamma
                && agg.mean.mechanism() == self.pipeline.mean_mech
                && agg.hist.compatible_with(&self.pipeline.hist_mech),
            "aggregator configured for a different telemetry pipeline"
        );
        for &(i, value) in inputs {
            let device = &self.devices[i as usize];
            let bucket = device.bucket_of(value);
            let bit = device.mean_client.report(value, rng);
            agg.mean.accumulate(&bit);
            device.hist_client.accumulate_into(bucket, &mut agg.hist);
        }
    }
}

impl TelemetryDevice {
    /// The histogram bucket of `value`.
    ///
    /// # Panics
    /// Panics if `value` is outside `[0, max_value]`.
    pub fn bucket_of(&self, value: f64) -> u32 {
        assert!(
            (0.0..=self.max_value).contains(&value),
            "value {value} outside [0, {}]",
            self.max_value
        );
        ((value / self.max_value * self.buckets as f64) as u32).min(self.buckets - 1)
    }

    /// Produces one round's report for the device's current value.
    ///
    /// # Panics
    /// Panics if `value` is outside `[0, max_value]`.
    pub fn report<R: Rng + ?Sized>(&self, value: f64, rng: &mut R) -> TelemetryReport {
        let bucket = self.bucket_of(value);
        TelemetryReport {
            mean_bit: self.mean_client.report(value, rng),
            hist: self.hist_client.report(bucket),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A refusal from the histogram half, after the mean half has
    /// already moved, undoes the mean half.
    #[test]
    fn refusal_from_the_histogram_undoes_the_mean() {
        let pipeline = TelemetryPipeline::new(config()).unwrap();
        let mut a = pipeline.new_round_aggregator();
        a.mean.accumulate(&true);
        let mut b = a.clone();
        b.hist.accumulate_bits([(0, true)]);
        let before = ldp_core::snapshot::snapshot_vec(&a);
        assert!(a.try_subtract(&b).is_err());
        assert_eq!(ldp_core::snapshot::snapshot_vec(&a), before);
    }

    fn config() -> TelemetryConfig {
        TelemetryConfig {
            total_epsilon: 2.0,
            mean_fraction: 0.5,
            max_value: 100.0,
            buckets: 10,
            bits_per_device: 4,
            gamma: 0.0,
        }
    }

    #[test]
    fn budget_split_is_enforced() {
        let mut bad = config();
        bad.total_epsilon = 0.0;
        assert!(TelemetryPipeline::new(bad).is_err());
        let mut bad2 = config();
        bad2.gamma = 0.9;
        assert!(TelemetryPipeline::new(bad2).is_err());
        assert!(TelemetryPipeline::new(config()).is_ok());
    }

    #[test]
    fn round_estimates_accurate() {
        let pipeline = TelemetryPipeline::new(config()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 80_000;
        let devices: Vec<TelemetryDevice> = (0..n).map(|_| pipeline.enroll(&mut rng)).collect();
        // Values 20 and 80 half/half: mean 50; histogram peaks at buckets 2 and 8.
        let mut bits = Vec::with_capacity(n);
        let mut agg = pipeline.new_histogram_aggregator();
        for (i, d) in devices.iter().enumerate() {
            let v = if i % 2 == 0 { 20.0 } else { 80.0 };
            let r = d.report(v, &mut rng);
            bits.push(r.mean_bit);
            agg.accumulate(&r.hist);
        }
        let mean = pipeline.estimate_mean(&bits);
        assert!((mean - 50.0).abs() < 3.0, "mean={mean}");
        let hist = agg.estimate();
        assert!(
            hist[2] > hist[0] * 3.0,
            "bucket 2 should dominate: {hist:?}"
        );
        assert!(
            hist[8] > hist[9] * 3.0,
            "bucket 8 should dominate: {hist:?}"
        );
    }

    #[test]
    fn stable_device_constant_transcript_across_rounds() {
        let pipeline = TelemetryPipeline::new(config()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let device = pipeline.enroll(&mut rng);
        let first = device.report(42.0, &mut rng);
        for _ in 0..20 {
            let r = device.report(42.0, &mut rng);
            assert_eq!(r.mean_bit, first.mean_bit);
            assert_eq!(r.hist, first.hist);
        }
    }

    #[test]
    fn fused_round_bit_identical_to_scalar() {
        let pipeline = TelemetryPipeline::new(TelemetryConfig {
            gamma: 0.1,
            ..config()
        })
        .unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let n = 2000;
        let devices: Vec<TelemetryDevice> = (0..n).map(|_| pipeline.enroll(&mut rng)).collect();
        let values: Vec<f64> = (0..n).map(|i| (i % 100) as f64).collect();
        let round = pipeline.round(&devices);
        let inputs = round.inputs(&values);

        let mut scalar_rng = StdRng::seed_from_u64(33);
        let mut scalar = pipeline.new_round_aggregator();
        for (d, &v) in devices.iter().zip(&values) {
            scalar.accumulate(&d.report(v, &mut scalar_rng));
        }

        let mut fused_rng = StdRng::seed_from_u64(33);
        let mut fused = pipeline.new_round_aggregator();
        round.accumulate_batch(&inputs, &mut fused_rng, &mut fused);

        assert_eq!(scalar.reports(), fused.reports());
        assert_eq!(scalar.mean_bits().ones(), fused.mean_bits().ones());
        assert_eq!(scalar.estimate(), fused.estimate());
        assert_eq!(scalar.round_mean(), fused.round_mean());
    }

    #[test]
    fn round_mean_matches_estimate_mean() {
        let pipeline = TelemetryPipeline::new(TelemetryConfig {
            gamma: 0.15,
            ..config()
        })
        .unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let n = 30_000;
        let devices: Vec<TelemetryDevice> = (0..n).map(|_| pipeline.enroll(&mut rng)).collect();
        let mut bits = Vec::with_capacity(n);
        let mut agg = pipeline.new_round_aggregator();
        for (i, d) in devices.iter().enumerate() {
            let v = if i % 2 == 0 { 20.0 } else { 80.0 };
            let r = d.report(v, &mut rng);
            bits.push(r.mean_bit);
            agg.accumulate(&r);
        }
        let direct = pipeline.estimate_mean(&bits);
        assert!(
            (agg.round_mean() - direct).abs() < 1e-9,
            "agg={} direct={direct}",
            agg.round_mean()
        );
        assert!((agg.round_mean() - 50.0).abs() < 4.0);
    }

    #[test]
    fn sharded_round_merge_matches_sequential() {
        let pipeline = TelemetryPipeline::new(config()).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let n = 1200;
        let devices: Vec<TelemetryDevice> = (0..n).map(|_| pipeline.enroll(&mut rng)).collect();
        let values: Vec<f64> = (0..n).map(|i| (i % 100) as f64).collect();
        let round = pipeline.round(&devices);
        let inputs = round.inputs(&values);

        let mut rng_a = StdRng::seed_from_u64(77);
        let mut seq = pipeline.new_round_aggregator();
        round.accumulate_batch(&inputs, &mut rng_a, &mut seq);

        let mut rng_b = StdRng::seed_from_u64(77);
        let mut left = pipeline.new_round_aggregator();
        round.accumulate_batch(&inputs[..700], &mut rng_b, &mut left);
        let mut right = pipeline.new_round_aggregator();
        round.accumulate_batch(&inputs[700..], &mut rng_b, &mut right);
        left.merge(right).unwrap();

        assert_eq!(left.estimate(), seq.estimate());
        assert_eq!(left.mean_bits().ones(), seq.mean_bits().ones());
        assert_eq!(left.reports(), seq.reports());
    }

    #[test]
    #[should_panic(expected = "different telemetry pipeline")]
    fn mismatched_round_aggregator_panics() {
        let pipeline_a = TelemetryPipeline::new(config()).unwrap();
        let pipeline_b = TelemetryPipeline::new(TelemetryConfig {
            total_epsilon: 4.0,
            ..config()
        })
        .unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let devices: Vec<TelemetryDevice> = (0..4).map(|_| pipeline_a.enroll(&mut rng)).collect();
        let round = pipeline_a.round(&devices);
        let inputs = round.inputs(&[1.0, 2.0, 3.0, 4.0]);
        let mut wrong_agg = pipeline_b.new_round_aggregator();
        round.accumulate_batch(&inputs, &mut rng, &mut wrong_agg);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_value_panics() {
        let pipeline = TelemetryPipeline::new(config()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let device = pipeline.enroll(&mut rng);
        device.report(101.0, &mut rng);
    }
}
