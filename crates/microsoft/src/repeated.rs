//! Repeated histogram collection: memoized dBitFlip.
//!
//! The companion to α-point rounding for the *histogram* side of the
//! telemetry pipeline: each device pre-draws, **once**, its noisy bit for
//! each of its `d` assigned buckets under both hypotheses ("my value is
//! in this bucket" / "it is not"), and replays those memoized answers at
//! every collection round. While a device's bucket stays the same, its
//! transcript is constant — repeated collection reveals nothing beyond
//! the first round, the property Ding et al. deploy in Windows.

use crate::dbitflip::{DBitAggregator, DBitFlip, DBitReport};
use rand::Rng;

/// A device enrolled in repeated dBitFlip collection.
#[derive(Debug, Clone)]
pub struct MemoizedHistogramClient {
    mechanism: DBitFlip,
    /// The device's assigned buckets (fixed at enrollment).
    buckets: Vec<u32>,
    /// Memoized noisy answer per assigned bucket for the "value in this
    /// bucket" hypothesis.
    answer_in: Vec<bool>,
    /// Memoized noisy answer per assigned bucket for the "value not in
    /// this bucket" hypothesis.
    answer_out: Vec<bool>,
}

impl MemoizedHistogramClient {
    /// Enrolls a device: samples its bucket set and pre-draws both
    /// hypothesis answers for every assigned bucket.
    pub fn enroll<R: Rng + ?Sized>(mechanism: DBitFlip, rng: &mut R) -> Self {
        let buckets = mechanism.sample_buckets(rng);
        let p = mechanism.keep_prob();
        let answer_in = buckets.iter().map(|_| rng.gen_bool(p)).collect();
        let answer_out = buckets.iter().map(|_| !rng.gen_bool(p)).collect();
        Self {
            mechanism,
            buckets,
            answer_in,
            answer_out,
        }
    }

    /// The device's assigned buckets.
    pub fn buckets(&self) -> &[u32] {
        &self.buckets
    }

    /// One collection round: replay the memoized answers for the current
    /// value's bucket. Identical input ⇒ identical report, every round.
    ///
    /// # Panics
    /// Panics if `value_bucket` is out of range.
    pub fn report(&self, value_bucket: u32) -> DBitReport {
        assert!(
            value_bucket < self.mechanism.buckets(),
            "bucket {value_bucket} out of range {}",
            self.mechanism.buckets()
        );
        let bits = self
            .buckets
            .iter()
            .zip(self.answer_in.iter().zip(&self.answer_out))
            .map(|(&j, (&ans_in, &ans_out))| if j == value_bucket { ans_in } else { ans_out })
            .collect();
        DBitReport {
            buckets: self.buckets.clone(),
            bits,
        }
    }

    /// Allocation-free round: folds the memoized answers for
    /// `value_bucket` straight into `agg`, without materializing a
    /// [`DBitReport`] (no bucket-list clone, no bit vector). Bit-identical
    /// to `agg.accumulate(&self.report(value_bucket))`.
    ///
    /// # Panics
    /// Panics if `value_bucket` is out of range.
    pub fn accumulate_into(&self, value_bucket: u32, agg: &mut DBitAggregator) {
        assert!(
            value_bucket < self.mechanism.buckets(),
            "bucket {value_bucket} out of range {}",
            self.mechanism.buckets()
        );
        agg.accumulate_bits(
            self.buckets
                .iter()
                .zip(self.answer_in.iter().zip(&self.answer_out))
                .map(|(&j, (&ans_in, &ans_out))| {
                    (j, if j == value_bucket { ans_in } else { ans_out })
                }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::fo::FoAggregator;
    use ldp_core::Epsilon;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mech() -> DBitFlip {
        DBitFlip::new(16, 4, Epsilon::new(2.0).unwrap()).unwrap()
    }

    #[test]
    fn stable_value_stable_transcript() {
        let mut rng = StdRng::seed_from_u64(1);
        let c = MemoizedHistogramClient::enroll(mech(), &mut rng);
        let first = c.report(5);
        for _ in 0..50 {
            assert_eq!(c.report(5), first, "transcript must be constant");
        }
    }

    #[test]
    fn at_most_two_transcripts_per_bucket_pair() {
        // Toggling between two values yields at most two distinct reports.
        let mut rng = StdRng::seed_from_u64(2);
        let c = MemoizedHistogramClient::enroll(mech(), &mut rng);
        let mut seen = std::collections::HashSet::new();
        for round in 0..40 {
            let v = if round % 2 == 0 { 3 } else { 9 };
            seen.insert(format!("{:?}", c.report(v)));
        }
        assert!(seen.len() <= 2, "transcripts: {}", seen.len());
    }

    #[test]
    fn population_histogram_still_unbiased() {
        let mechanism = mech();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 60_000;
        let clients: Vec<MemoizedHistogramClient> = (0..n)
            .map(|_| MemoizedHistogramClient::enroll(mechanism, &mut rng))
            .collect();
        let mut truth = [0f64; 16];
        let mut agg = mechanism.new_aggregator();
        for (i, c) in clients.iter().enumerate() {
            let b = (i % 4) as u32;
            truth[b as usize] += 1.0;
            agg.accumulate(&c.report(b));
        }
        let est = agg.estimate();
        let sd = mechanism.count_variance(n).sqrt();
        for j in 0..16 {
            assert!(
                (est[j] - truth[j]).abs() < 5.0 * sd,
                "bucket {j}: est={} truth={} sd={sd}",
                est[j],
                truth[j]
            );
        }
    }

    #[test]
    fn accumulate_into_matches_report_accumulate() {
        let mechanism = mech();
        let mut rng = StdRng::seed_from_u64(5);
        let clients: Vec<MemoizedHistogramClient> = (0..500)
            .map(|_| MemoizedHistogramClient::enroll(mechanism, &mut rng))
            .collect();
        let mut via_report = mechanism.new_aggregator();
        let mut fused = mechanism.new_aggregator();
        for (i, c) in clients.iter().enumerate() {
            let b = (i % 16) as u32;
            via_report.accumulate(&c.report(b));
            c.accumulate_into(b, &mut fused);
        }
        assert_eq!(via_report.estimate(), fused.estimate());
        assert_eq!(via_report.reports(), fused.reports());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_bucket_panics() {
        let mut rng = StdRng::seed_from_u64(4);
        let c = MemoizedHistogramClient::enroll(mech(), &mut rng);
        c.report(16);
    }
}
