//! Order statistics the report is built from.

/// Sorted copy of `values`. NaN never occurs in this benchmark's samples;
/// `total_cmp` keeps the order total regardless.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle value, or the mean of the two middle values for
/// an even count. `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile with the same interpolation as
/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so the spread the benchmark reports is the spread its users
/// compute. A single value is its own quartiles. `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => return None,
        1 => return Some([v[0]; 3]),
        _ => {}
    }
    // Python's integer arithmetic, signed: at the clamped ends `delta`
    // goes negative (or past `n`) and the formula extrapolates.
    let (n, m) = (4i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        *slot = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    Some(out)
}

/// The nearest-rank percentile: the smallest sample such that at least
/// `p` percent of the samples are at or below it (rank `ceil(p/100 · n)`,
/// clamped to `1..=n`). `None` when empty.
pub fn nearest_rank(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // clamped ends extrapolate.
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 2.0, 1.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn quartile_median_agrees_with_median() {
        let v = [9.0, 2.0, 7.5, 3.0, 3.0, 11.0, 0.5, 6.0];
        assert_eq!(quartiles(&v).map(|q| q[1]), median(&v));
    }

    #[test]
    fn nearest_rank_uses_the_ceiling_rule() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&v, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&v, 99.5), Some(100.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        // Few samples: p99 of three is the maximum, p50 of two the lower.
        assert_eq!(nearest_rank(&[3.0, 1.0, 2.0], 99.0), Some(3.0));
        assert_eq!(nearest_rank(&[2.0, 1.0], 50.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }
}
