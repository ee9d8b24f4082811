//! Order statistics over latency samples.

/// Percentile by linear interpolation between closest ranks (`p` in 0..=100).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The lower decile: what an operation costs when the host leaves it alone.
///
/// The benchmark runs on a few cores of a shared machine. A neighbour only
/// ever adds time, for seconds at a stretch, so the upper half of a series
/// measures the neighbour and the median of a 15 s run moves by 30 % with
/// it; the lower decile of samples spread over the whole run moves by 3 %.
/// A change to the code shifts the whole distribution, this end included.
pub fn low_decile(samples: &[f64]) -> f64 {
    percentile(samples, 10.0)
}

/// The mean of the middle half (the interquartile mean).
///
/// For latencies under concurrent load, where the distribution is broad by
/// design (what a request costs depends on what the other connection is
/// doing) and the median sits where samples are sparse: it moves less from
/// run to run than the median and, unlike the mean, ignores the tail.
pub fn midmean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "midmean of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    sum(middle) / middle.len() as f64
}

pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    (values.iter().map(|v| v.max(1e-9).ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn sum(values: &[f64]) -> f64 {
    values.iter().sum()
}

/// Means of consecutive pairs (a trailing odd sample is kept as is).
///
/// Repeated operations on this system alternate with period two: the
/// planner's cardinality feedback flips a re-executed join between two
/// plans (taught-grads: ~75 ms, then ~500 ms, then ~75 ms, ...), and every
/// other `apply` retires the snapshot before last. A quantile of such a
/// series sits in one mode or in the gap between them and jumps with a
/// single sample; a quantile of pair means does not, and for a unimodal
/// series it is about the same number.
pub fn pair_means(samples: &[f64]) -> Vec<f64> {
    samples
        .chunks(2)
        .map(|pair| sum(pair) / pair.len() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((low_decile(&[1.0, 2.0, 3.0]) - 1.2).abs() < 1e-9);
        assert_eq!(midmean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0]), 3.5);
        assert_eq!(midmean(&[7.0]), 7.0);
    }

    #[test]
    fn pair_means_hide_a_period_two_alternation() {
        let s = [75.0, 500.0, 80.0, 510.0, 70.0];
        assert_eq!(pair_means(&s), vec![287.5, 295.0, 70.0]);
    }
}
