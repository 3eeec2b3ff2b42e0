//! Order statistics the benchmark reports: medians, quartiles, and the
//! tail percentile with at least ten samples beyond it.

/// Median of `xs` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(xs, n=4)` does (its default "exclusive"
/// method), so spreads printed here match a reader's own check. A single
/// sample is its own three quartiles; no samples give zeros.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let m = v.len();
    match m {
        0 => return [0.0; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let n = 4;
    let mut q = [0.0; 3];
    for (i, slot) in (1..n).zip(q.iter_mut()) {
        let j = (i * (m + 1) / n).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    q
}

/// First quartile by linear interpolation between order statistics
/// (Python's `statistics.quantiles(xs, n=4, method="inclusive")[0]`),
/// which never falls outside the samples; a single sample is its own
/// quartile and no samples give 0.
pub fn lower_quartile(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let pos = (v.len() - 1) as f64 / 4.0;
    let (i, frac) = (pos.floor() as usize, pos.fract());
    match v.get(i + 1) {
        Some(next) => v[i] + (next - v[i]) * frac,
        None => v[i],
    }
}

/// Interquartile range as a share of the median: the run-to-run spread
/// a bound is judged against.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The highest whole percentile that leaves at least ten samples beyond
/// it under nearest-rank indexing: p84 for 64 samples, p98 for 850, p99
/// for 3,600. Below 11 samples no percentile qualifies and the median
/// (p50) stands in.
pub fn tail_percentile(n: usize) -> u32 {
    (1..=99u32)
        .rev()
        .find(|&p| n - rank(n, p) >= 10)
        .filter(|_| n > 10)
        .unwrap_or(50)
}

/// Nearest-rank percentile `p` of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: u32) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        0.0
    } else {
        v[rank(v.len(), p) - 1]
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).clamp(1, n.max(1))
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
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn lower_quartile_matches_python_inclusive_method() {
        // statistics.quantiles([1..10], n=4, method="inclusive")[0] == 3.25
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(lower_quartile(&xs), 3.25);
        // [1, 2] -> 1.25: inside the samples, where "exclusive" gives 0.75.
        assert_eq!(lower_quartile(&[2.0, 1.0]), 1.25);
        assert_eq!(lower_quartile(&[5.0, 1.0, 3.0, 2.0, 4.0]), 2.0);
        assert_eq!(lower_quartile(&[7.0]), 7.0);
        assert_eq!(lower_quartile(&[]), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0; 5]), 0.0);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(64), 84);
        assert_eq!(tail_percentile(850), 98);
        assert_eq!(tail_percentile(3600), 99);
        assert_eq!(tail_percentile(10), 50);
        for n in [11, 20, 64, 100, 850, 3900] {
            let p = tail_percentile(n);
            assert!(n - rank(n, p) >= 10, "n={n} p={p}");
            if p < 99 {
                assert!(n - rank(n, p + 1) < 10, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), 50.0);
        assert_eq!(percentile(&xs, 98), 98.0);
        assert_eq!(percentile(&xs, 100), 100.0);
        assert_eq!(percentile(&[], 50), 0.0);
    }
}
