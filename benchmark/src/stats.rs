//! The estimators: per-op floors over identical rounds, nearest-rank
//! percentiles, quartiles as Python's `statistics.quantiles(v, n=4)`
//! gives them, and the percentile-placement rule for op mixes.

/// `floor[i] = min over rounds of rounds[r][i]` — the noise floor of op
/// `i`. On a shared box noise only ever adds time, so the minimum over
/// identical rounds is the estimator that repeats (README, "Why floors").
pub fn floors<R: AsRef<[u64]>>(rounds: &[R]) -> Vec<u64> {
    let ops = rounds.first().map_or(0, |r| r.as_ref().len());
    (0..ops).map(|i| rounds.iter().map(|r| r.as_ref()[i]).min().unwrap_or(0)).collect()
}

/// Nearest-rank percentile (`p` in percent) of an unsorted sample.
pub fn percentile(sample: &[u64], p: f64) -> u64 {
    let mut sorted = sample.to_vec();
    sorted.sort_unstable();
    percentile_sorted(&sorted, p)
}

/// Nearest-rank percentile of a sorted sample; 0 for an empty one.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of floats (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`; needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |q: usize| {
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Distance between the quartiles as a share of the median — the spread
/// the driver compares with a metric's bound.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values).abs())
}

/// Distance, in percent of the ops, from percentile `p` to the nearest
/// boundary between two op kinds, when the kinds are laid out in ascending
/// cost with the given shares (which sum to 1). A reported percentile this
/// close to a boundary flips between two modes from run to run.
pub fn boundary_clearance(shares: &[f64], p: f64) -> f64 {
    let mut cumulative = 0.0;
    let mut clearance = f64::INFINITY;
    for share in &shares[..shares.len().saturating_sub(1)] {
        cumulative += share * 100.0;
        clearance = clearance.min((p - cumulative).abs());
    }
    clearance
}

/// Percent of the ops a reported percentile must keep between itself and
/// any kind boundary.
pub const MIN_BOUNDARY_CLEARANCE: f64 = 5.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_is_the_per_op_minimum() {
        let rounds = vec![vec![5, 9, 7], vec![6, 2, 7], vec![4, 3, 8]];
        assert_eq!(floors(&rounds), vec![4, 2, 7]);
        assert!(floors::<Vec<u64>>(&[]).is_empty());
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let sample: Vec<u64> = (1..=200).rev().collect();
        assert_eq!(percentile(&sample, 50.0), 100);
        assert_eq!(percentile(&sample, 95.0), 190); // ten samples beyond it
        assert_eq!(percentile(&sample, 100.0), 200);
        assert_eq!(percentile(&[7], 95.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_share(&v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clearance_measures_distance_to_the_nearest_kind_boundary() {
        // 12 % stale, 68 % applied, 20 % reads: boundaries at 12 and 80.
        let shares = [0.12, 0.68, 0.20];
        assert!((boundary_clearance(&shares, 50.0) - 30.0).abs() < 1e-9);
        assert!((boundary_clearance(&shares, 95.0) - 15.0).abs() < 1e-9);
        // PR 11's mistake: a 5 % slow mode puts p95 on the boundary.
        assert!(boundary_clearance(&[0.95, 0.05], 95.0) < MIN_BOUNDARY_CLEARANCE);
        assert_eq!(boundary_clearance(&[1.0], 95.0), f64::INFINITY);
    }
}
