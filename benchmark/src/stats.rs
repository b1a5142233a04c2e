//! Order statistics: medians, quartiles and rank percentiles.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default exclusive method), so a spread computed here is the spread an
//! external checker computes from the same values.

/// Median, quartiles and range of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarise `values` (any order). Empty input gives an all-NaN
    /// summary with `n == 0`, which the JSON writer emits as `null`.
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles_sorted(&v);
        Summary {
            n: v.len(),
            median,
            q1,
            q3,
            min: v.first().copied().unwrap_or(f64::NAN),
            max: v.last().copied().unwrap_or(f64::NAN),
        }
    }

    /// Interquartile range as a share of the median (0 when the median
    /// is 0 or there are fewer than two samples).
    pub fn spread(&self) -> f64 {
        if self.n < 2 || self.median == 0.0 {
            0.0
        } else {
            ((self.q3 - self.q1) / self.median).abs()
        }
    }
}

/// `[q1, median, q3]` of an ascending slice, exclusive method. One
/// sample is its own quartiles; no samples give NaN.
pub fn quartiles_sorted(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    match n {
        0 => [f64::NAN; 3],
        1 => [sorted[0]; 3],
        _ => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            [cut(1), cut(2), cut(3)]
        }
    }
}

/// Median of `values` (any order; NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// Mean of `values` (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` (in `[0, 1]`) of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// [`percentile_sorted`] of an unsorted sample set.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, p)
}
