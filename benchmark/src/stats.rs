//! Percentiles and spreads, on plain `f64` samples.

/// Percentiles a latency sample may be reported at, ascending.
const TAIL_LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// A reported percentile needs this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p` percent of the sample at or below it. `None` on an
/// empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    sorted
        .get(rank(p, sorted.len()).clamp(1, sorted.len()) - 1)
        .copied()
}

/// How many of `n` ascending samples lie at or below percentile `p`.
/// The slack keeps 99.9 % of 10 000 at 9 990, not at 9 991 by rounding.
fn rank(p: f64, n: usize) -> usize {
    (p / 100.0 * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// The highest percentile of the ladder that still has [`MIN_BEYOND`]
/// samples beyond it in a sample of `n`; `None` when not even the
/// median has.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&p| n - rank(p, n).min(n) >= MIN_BEYOND)
}

/// Sorts a sample in place and returns it, for the percentile calls.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of an unsorted sample; 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values.to_vec());
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method),
/// so the noise floor here is the number the driver computes.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let sorted = sorted(values.to_vec());
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the quartiles as a share of the median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_takes_the_smallest_value_covering_p() {
        let sample: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sample, 50.0), Some(5.0));
        assert_eq!(percentile(&sample, 90.0), Some(9.0));
        assert_eq!(percentile(&sample, 91.0), Some(10.0));
        assert_eq!(percentile(&sample, 100.0), Some(10.0));
        assert_eq!(percentile(&sample, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(99), Some(50.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(999), Some(90.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some([1.0, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(relative_spread(&ten), Some(1.0));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
