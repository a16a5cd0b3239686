//! Summary statistics over measured samples.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every metric is measured at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of `xs`: the highest percentile that still has at least ten
/// samples beyond it, as `(percentile, value)`. With `n` samples that is
/// the eleventh-largest one, at percentile `100 * (n - 10) / n`. With
/// fewer than eleven samples no percentile qualifies, and the maximum is
/// reported as percentile 100.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "tail of no samples");
    let n = xs.len();
    let v = sorted(xs);
    if n < 11 {
        return (100.0, v[n - 1]);
    }
    let k = n - 11;
    (100.0 * (k + 1) as f64 / n as f64, v[k])
}

/// Harmonic mean of positive values (the paper's summary of speedups).
pub fn harmonic_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "harmonic mean of no samples");
    xs.len() as f64 / xs.iter().map(|x| 1.0 / x).sum::<f64>()
}

/// Geometric mean of positive values.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of no samples");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail(&[1.0, 3.0, 2.0]), (100.0, 3.0));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0));
        let beyond = xs.iter().filter(|&&x| x > 90.0).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn means_of_equal_values_are_that_value() {
        assert!((harmonic_mean(&[2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((harmonic_mean(&[1.0, 3.0]) - 1.5).abs() < 1e-12);
    }
}
