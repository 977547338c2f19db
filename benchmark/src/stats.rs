//! Statistics for timing samples: the median, the mean `wall_s` is
//! reported as, and the tail percentile a sample count can support.

/// Percentiles a tail may be reported at, highest first. A ladder, not a
/// continuous choice, so that a time-bounded run whose sample count
/// wobbles by a few still reports the same percentile every time.
const TAIL_LADDER: [u32; 5] = [90, 80, 70, 60, 50];

/// Samples that must lie beyond a percentile for it to be reported.
const TAIL_MIN_BEYOND: usize = 10;

/// The median of `samples` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller has taken at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The arithmetic mean of `samples` — what `wall_s` reports for a run's
/// repetitions: the window's time per repetition.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The highest percentile at or below p90 that still has at least ten of
/// `n` samples beyond it, or `None` when not even p50 does (n < 20).
pub fn tail_pct(n: usize) -> Option<u32> {
    TAIL_LADDER
        .into_iter()
        .find(|&pct| n * (100 - pct as usize) / 100 >= TAIL_MIN_BEYOND)
}

/// The nearest-rank `pct`-th percentile of `samples`.
///
/// # Panics
///
/// Panics on an empty slice or a percentile above 100.
pub fn percentile(samples: &[f64], pct: u32) -> f64 {
    assert!(!samples.is_empty() && pct <= 100, "bad percentile request");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() * pct as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn mean_is_the_sum_over_the_count() {
        assert_eq!(mean(&[5.0]), 5.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_pct(19), None);
        assert_eq!(tail_pct(20), Some(50));
        assert_eq!(tail_pct(34), Some(70));
        assert_eq!(tail_pct(36), Some(70));
        assert_eq!(tail_pct(50), Some(80));
        assert_eq!(tail_pct(99), Some(80));
        assert_eq!(tail_pct(100), Some(90));
        // Never above p90, however many samples there are.
        assert_eq!(tail_pct(1_000_000), Some(90));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[5.0], 90), 5.0);
        // The reported tail really has ten samples beyond it.
        let n = 34;
        let v: Vec<f64> = (1..=n).map(f64::from).collect();
        let p = percentile(&v, tail_pct(n as usize).unwrap());
        assert!(v.iter().filter(|&&x| x > p).count() >= 10);
    }
}
