//! Order statistics: medians, tail percentiles and the quartile spread the
//! benchmark contract is judged by.

/// The median of `values` (mean of the middle pair for an even count).
/// `NaN` for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest rank (1-based) of the `permille`-th per-mille point among `n`
/// samples. Percentiles are per-mille integers (p99 = 990) so that the rank
/// is exact: `99.9 / 100.0 * 10_000.0` is not 9990 in floating point.
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `permille`/1000 of the samples at or below it.
pub fn percentile(sorted: &[u64], permille: usize) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), permille) - 1]
}

/// Number of samples strictly beyond the nearest-rank percentile.
pub fn samples_beyond(n: usize, permille: usize) -> usize {
    n.saturating_sub(rank(n, permille))
}

/// The percentiles the benchmark may report, highest first, in per-mille.
const TAIL_LADDER: [usize; 5] = [999, 990, 950, 900, 750];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it — fewer and the tail value is one outlier's story.
pub fn highest_percentile(n: usize) -> Option<usize> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default "exclusive" method), so the spreads printed here are the
/// ones the driver will see. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = 4usize;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * (m + 1) / n).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile range as a share of the median; 0 for fewer than two
/// values.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, _, q3]) => {
            let med = median(values);
            if med == 0.0 {
                0.0
            } else {
                ((q3 - q1) / med).abs()
            }
        }
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 150 inserts: p90 leaves 15 beyond, p95 only 7.
        assert_eq!(highest_percentile(150), Some(900));
        // 1000 samples leave exactly 10 beyond p99; 999 leave 9.
        assert_eq!(highest_percentile(1000), Some(990));
        assert_eq!(highest_percentile(999), Some(950));
        assert_eq!(highest_percentile(10_000), Some(999));
        assert_eq!(highest_percentile(40), Some(750));
        assert_eq!(highest_percentile(39), None);
        assert_eq!(samples_beyond(6000, 990), 60);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 500), 50);
        assert_eq!(percentile(&v, 990), 99);
        assert_eq!(percentile(&v, 1000), 100);
        assert_eq!(percentile(&[7], 990), 7);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(spread(&v), 1.0);
        assert_eq!(spread(&[4.0]), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }
}
