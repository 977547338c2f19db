//! Descriptive statistics for experiment outputs: empirical CDFs,
//! quantiles and per-percentile gain series.

/// An empirical cumulative distribution over `f64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (NaNs are rejected).
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    pub fn new<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        assert!(
            sorted.iter().all(|x| !x.is_nan()),
            "NaN sample in CDF input"
        );
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `p`-quantile (nearest-rank on `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty or `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty CDF");
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
        if p <= 0.0 {
            return self.sorted[0];
        }
        let idx = ((p * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[idx - 1]
    }

    /// The median.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Smallest sample.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty.
    pub fn min(&self) -> f64 {
        *self.sorted.first().expect("min of empty CDF")
    }

    /// Largest sample.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("max of empty CDF")
    }

    /// The mean.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty.
    pub fn mean(&self) -> f64 {
        assert!(!self.sorted.is_empty(), "mean of empty CDF");
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Fraction of samples `<= x`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&s| s <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// `points` evenly spaced `(value, cumulative_probability)` pairs,
    /// suitable for plotting or printing a figure series.
    pub fn series(&self, points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        (1..=points)
            .map(|i| {
                let p = i as f64 / points as f64;
                (self.quantile(p), p)
            })
            .collect()
    }

    /// The underlying sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Merges two CDFs into one covering both sample sets, in
    /// `O(n + m)` via a two-pointer merge of the sorted sample vectors.
    ///
    /// Because the result is fully determined by the multiset of
    /// samples, merging any number of per-shard CDFs yields the same
    /// CDF in whatever order the shards finished — the property the
    /// parallel experiment engine relies on, checked by proptest in
    /// `tests/parallel_engine.rs`.
    pub fn merge(&self, other: &Cdf) -> Cdf {
        let (a, b) = (&self.sorted, &other.sorted);
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i] <= b[j] {
                merged.push(a[i]);
                i += 1;
            } else {
                merged.push(b[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        Cdf { sorted: merged }
    }

    /// Merges an iterator of CDFs (e.g. one per shard) into one.
    pub fn merge_all<I: IntoIterator<Item = Cdf>>(parts: I) -> Cdf {
        parts
            .into_iter()
            .fold(Cdf::new(std::iter::empty()), |acc, c| acc.merge(&c))
    }
}

impl FromIterator<f64> for Cdf {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Cdf::new(iter)
    }
}

/// One row of a Fig. 15/16-style per-percentile gain table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PercentileGain {
    /// The percentile, in percent (5, 10, …, 95).
    pub percentile: u32,
    /// Baseline (control) value at that percentile.
    pub baseline: f64,
    /// Treated (Riptide) value at that percentile.
    pub treated: f64,
    /// Fractional gain: `(baseline − treated) / baseline`; positive means
    /// the treatment is faster.
    pub gain: f64,
}

/// Per-percentile gains of `treated` over `baseline` in steps of
/// `step_pct` (the paper uses 5%).
///
/// # Panics
///
/// Panics if either CDF is empty, or `step_pct` is 0 or above 100.
pub fn percentile_gains(baseline: &Cdf, treated: &Cdf, step_pct: u32) -> Vec<PercentileGain> {
    assert!(
        !baseline.is_empty() && !treated.is_empty(),
        "gain over empty CDF"
    );
    assert!((1..=100).contains(&step_pct), "step must be in [1,100]");
    (1..)
        .map(|i| i * step_pct)
        .take_while(|&p| p < 100)
        .map(|p| {
            let q = p as f64 / 100.0;
            let b = baseline.quantile(q);
            let t = treated.quantile(q);
            PercentileGain {
                percentile: p,
                baseline: b,
                treated: t,
                gain: if b > 0.0 { (b - t) / b } else { 0.0 },
            }
        })
        .collect()
}

/// Averages gain rows across several destination tables, percentile by
/// percentile — the paper's "averaged across destinations".
///
/// # Panics
///
/// Panics if `tables` is empty or rows disagree on percentiles.
pub fn average_gains(tables: &[Vec<PercentileGain>]) -> Vec<PercentileGain> {
    assert!(!tables.is_empty(), "no gain tables to average");
    let rows = tables[0].len();
    (0..rows)
        .map(|r| {
            let pct = tables[0][r].percentile;
            let mut baseline = 0.0;
            let mut treated = 0.0;
            let mut gain = 0.0;
            for t in tables {
                assert_eq!(t[r].percentile, pct, "misaligned percentile rows");
                baseline += t[r].baseline;
                treated += t[r].treated;
                gain += t[r].gain;
            }
            let n = tables.len() as f64;
            PercentileGain {
                percentile: pct,
                baseline: baseline / n,
                treated: treated / n,
                gain: gain / n,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cdf(v: &[f64]) -> Cdf {
        Cdf::new(v.iter().copied())
    }

    #[test]
    fn quantiles_nearest_rank() {
        let c = cdf(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(c.quantile(0.0), 10.0);
        assert_eq!(c.quantile(0.25), 10.0);
        assert_eq!(c.quantile(0.26), 20.0);
        assert_eq!(c.quantile(0.5), 20.0);
        assert_eq!(c.quantile(0.75), 30.0);
        assert_eq!(c.quantile(1.0), 40.0);
        assert_eq!(c.median(), 20.0);
    }

    #[test]
    fn fraction_below() {
        let c = cdf(&[1.0, 2.0, 2.0, 3.0]);
        assert_eq!(c.fraction_at_or_below(0.5), 0.0);
        assert_eq!(c.fraction_at_or_below(2.0), 0.75);
        assert_eq!(c.fraction_at_or_below(99.0), 1.0);
    }

    #[test]
    fn series_is_monotone() {
        let c = cdf(&[5.0, 1.0, 9.0, 3.0, 7.0]);
        let s = c.series(10);
        assert_eq!(s.len(), 10);
        for w in s.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert_eq!(s.last().unwrap().0, 9.0);
    }

    #[test]
    fn summary_stats() {
        let c = cdf(&[2.0, 4.0, 6.0]);
        assert_eq!(c.min(), 2.0);
        assert_eq!(c.max(), 6.0);
        assert_eq!(c.mean(), 4.0);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn empty_cdf_behaviour() {
        let c = Cdf::new(std::iter::empty());
        assert!(c.is_empty());
        assert_eq!(c.fraction_at_or_below(1.0), 0.0);
        assert!(c.series(5).is_empty());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = cdf(&[1.0, f64::NAN]);
    }

    #[test]
    fn gains_positive_when_treated_faster() {
        let base = cdf(&[100.0, 200.0, 300.0, 400.0]);
        let fast = cdf(&[100.0, 150.0, 210.0, 400.0]);
        let gains = percentile_gains(&base, &fast, 25);
        assert_eq!(gains.len(), 3); // 25, 50, 75
        assert_eq!(gains[0].percentile, 25);
        assert_eq!(gains[0].gain, 0.0, "best percentile unchanged");
        assert!((gains[1].gain - 0.25).abs() < 1e-12);
        assert!((gains[2].gain - 0.30).abs() < 1e-12);
    }

    #[test]
    fn averaging_across_destinations() {
        let t1 = vec![PercentileGain {
            percentile: 50,
            baseline: 100.0,
            treated: 80.0,
            gain: 0.2,
        }];
        let t2 = vec![PercentileGain {
            percentile: 50,
            baseline: 200.0,
            treated: 200.0,
            gain: 0.0,
        }];
        let avg = average_gains(&[t1, t2]);
        assert_eq!(avg.len(), 1);
        assert!((avg[0].gain - 0.1).abs() < 1e-12);
        assert!((avg[0].baseline - 150.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_pooled_construction() {
        let a = cdf(&[3.0, 1.0, 4.0]);
        let b = cdf(&[1.0, 5.0, 9.0, 2.0]);
        let merged = a.merge(&b);
        let pooled = cdf(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]);
        assert_eq!(merged, pooled);
        assert_eq!(a.merge(&b), b.merge(&a), "merge is symmetric");
        assert_eq!(
            Cdf::merge_all([a.clone(), b.clone()]),
            pooled,
            "merge_all pools everything"
        );
        assert_eq!(Cdf::merge_all([] as [Cdf; 0]).len(), 0);
    }

    #[test]
    fn five_percent_steps_make_nineteen_rows() {
        let base = Cdf::new((1..=100).map(|i| i as f64));
        let gains = percentile_gains(&base, &base, 5);
        assert_eq!(gains.len(), 19);
        assert_eq!(gains[0].percentile, 5);
        assert_eq!(gains[18].percentile, 95);
        assert!(gains.iter().all(|g| g.gain == 0.0));
    }
}
