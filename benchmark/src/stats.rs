//! Medians, percentiles and the quartile spread the acceptance rule uses.

/// Minimum, median and maximum of one metric's per-rep samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub median: f64,
    pub max: f64,
}

/// `count` per second of `wall`.
pub fn rate(count: u64, wall: std::time::Duration) -> f64 {
    count as f64 / wall.as_secs_f64().max(1e-9)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median (mean of the two middle samples for an even count); 0 for no
/// samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `q` in `0..=1`; 0 for no samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The mean of the lower half of `values` (of the upper half if `upper`),
/// the middle sample of an odd count included; 0 for no samples.
///
/// Other tenants of the host only ever slow a repetition down, in bursts,
/// so the faster half of a run's repetitions is the half that says most
/// about the program, and its mean wastes fewer samples than a median.
pub fn half_mean(values: &[f64], upper: bool) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let half = v.len().div_ceil(2);
    let half = if upper {
        &v[v.len() - half..]
    } else {
        &v[..half]
    };
    half.iter().sum::<f64>() / half.len() as f64
}

pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    Summary {
        min: v.first().copied().unwrap_or(0.0),
        median: median(&v),
        max: v.last().copied().unwrap_or(0.0),
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them; `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k(n+1)/4 on a 1-based axis; like Python, the interval is
        // clamped to the samples and the position may extrapolate from it.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Distance between the quartiles as a share of the median: the spread the
/// driver holds against a metric's bound.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1).abs() / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn half_mean_takes_the_lower_or_the_upper_half() {
        assert_eq!(half_mean(&[4.0, 1.0, 3.0, 2.0], false), 1.5);
        assert_eq!(half_mean(&[4.0, 1.0, 3.0, 2.0], true), 3.5);
        assert_eq!(half_mean(&[5.0, 1.0, 3.0], false), 2.0);
        assert_eq!(half_mean(&[5.0, 1.0, 3.0], true), 4.0);
        assert_eq!(half_mean(&[7.0], true), 7.0);
        assert_eq!(half_mean(&[], false), 0.0);
    }

    #[test]
    fn summary_orders_its_samples() {
        let s = summarize(&[9.0, 2.0, 5.0]);
        assert_eq!((s.min, s.median, s.max), (2.0, 5.0, 9.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - 1.0).abs() < 1e-12);
    }
}
