//! Order statistics over timing samples.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it on its tail side — a p99 over 200 samples is the
//! second-largest sample, not a tail estimate.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// First, second and third quartiles by the same rule as Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method);
/// `None` with fewer than two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(samples);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // `i*m - j*4` can be negative after clamping; keep it signed.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Nearest-rank `p`-quantile of `samples` (`0 < p < 1`), reported only
/// when at least [`MIN_BEYOND`] samples lie strictly beyond its rank on
/// the tail side: above it for `p ≥ 0.5`, below it for `p < 0.5`.
/// `None` otherwise.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    if n == 0 || !(p > 0.0 && p < 1.0) {
        return None;
    }
    let rank = rank_of(p, n);
    (beyond(p, n, rank) >= MIN_BEYOND).then(|| s[rank - 1])
}

/// The smallest sample count for which [`percentile`] reports `p`.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| beyond(p, n, rank_of(p, n)) >= MIN_BEYOND)
        .unwrap_or(usize::MAX)
}

/// Nearest rank `⌈p·n⌉` (1-based), in integers for `p` given to 0.1%
/// precision so that `p = 0.99, n = 1000` is exactly rank 990.
fn rank_of(p: f64, n: usize) -> usize {
    ((p * 1000.0).round() as usize * n).div_ceil(1000).max(1)
}

/// Samples strictly beyond rank `rank` of `n` on the tail side of `p`.
fn beyond(p: f64, n: usize, rank: usize) -> usize {
    if p >= 0.5 {
        n - rank
    } else {
        rank - 1
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn high_percentiles_need_ten_samples_above() {
        assert_eq!(percentile(&ramp(999), 0.99), None);
        // Rank 990 of 1000: samples 991..=1000 — ten — lie beyond.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.9), 100);
        assert_eq!(samples_needed(0.5), 20);
    }

    #[test]
    fn low_percentiles_need_ten_samples_below() {
        // Rank ⌈10.1⌉ = 11 of 101: samples 1..=10 lie below it.
        assert_eq!(percentile(&ramp(101), 0.1), Some(11.0));
        assert_eq!(percentile(&ramp(100), 0.1), None);
        assert_eq!(samples_needed(0.1), 101);
    }

    #[test]
    fn samples_needed_is_the_exact_threshold() {
        for p in [0.1, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let n = samples_needed(p);
            assert!(percentile(&ramp(n), p).is_some(), "p={p}");
            assert!(percentile(&ramp(n - 1), p).is_none(), "p={p}");
        }
    }

    #[test]
    fn percentile_ignores_sample_order() {
        let mut shuffled = ramp(1000);
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.99), Some(990.0));
        assert_eq!(percentile(&shuffled, 0.1), Some(100.0));
        assert_eq!(percentile(&shuffled, 1.0), None);
    }
}
