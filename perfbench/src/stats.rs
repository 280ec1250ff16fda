//! Timing statistics: every timing is kept as median, quartiles and
//! sample count, and a tail percentile is only reported when enough
//! samples lie beyond it to make it a measurement.

/// A tail percentile is reported only when at least this many samples
/// lie strictly beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// Median, quartiles and sample count of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            n: v.len(),
            q1: quantile_sorted(&v, 0.25),
            median: quantile_sorted(&v, 0.5),
            q3: quantile_sorted(&v, 0.75),
        })
    }

    /// `(q3 - q1) / median`, the run-to-run spread the acceptance rule
    /// uses.
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {:.4} [q1 {:.4}, q3 {:.4}] n={}",
            self.median, self.q1, self.q3, self.n
        )
    }
}

/// Linear-interpolation quantile of an ascending slice (`0 ≤ q ≤ 1`).
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of an ascending
/// slice, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond
/// its rank.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
