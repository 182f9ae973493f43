//! The few order statistics the benchmark reports.

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistic of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}

/// The `p`-quantile (0 ≤ p ≤ 1) by linear interpolation between ranks.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    let rank = p * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Distance between the first and third quartile.
pub fn iqr(values: &[f64]) -> f64 {
    quantile(values, 0.75) - quantile(values, 0.25)
}

/// Mean of `a[i] - b[i]` with the smallest and the largest twentieth of the
/// differences left out: a mean (so a cost paid by few queries still
/// counts) that one hiccup of the box cannot move.
pub fn trimmed_mean_difference(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "paired samples");
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    let v = sorted(&diffs);
    let cut = v.len() / 20;
    mean(&v[cut..v.len() - cut])
}

/// The estimator for a wall-clock duration measured several times in one
/// run (slices, set-ups): the fastest sample. The work is deterministic and
/// the noise on this kind of box is one-sided — the other tenants' memory
/// traffic only ever lengthens a sample, in spells of tens of seconds — so
/// the fast edge of the distribution repeats from run to run where the
/// median and the mean do not. The measured spreads behind this choice are
/// in `README.md`.
pub fn fastest(durations: &[f64]) -> f64 {
    quantile(durations, 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(iqr(&v), 1.5);
        assert_eq!(fastest(&v), 1.0);
        assert_eq!(mean(&v), 2.5);
        let a: Vec<f64> = (0..40).map(|i| if i == 7 { 1e9 } else { 10.0 }).collect();
        assert_eq!(trimmed_mean_difference(&a, &[4.0; 40]), 6.0);
    }
}
