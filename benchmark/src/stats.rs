//! Order statistics for the measurement protocol: nearest-rank
//! percentiles, the "ten samples beyond it" support rule, the
//! median-of-rounds summary and relative spreads.

/// Sorts a sample in place (timings are finite; `total_cmp` keeps a
/// failed op's `INFINITY` at the top, where it misses every latency).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p` % of the sample at or below it. `0.0` on an empty
/// sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether percentile `p` may be reported from `n` samples: at least
/// ten of them must lie beyond it, counted over the whole phase.
pub fn supported(p: f64, n: usize) -> bool {
    let at_or_below = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(at_or_below) >= 10
}

/// [`percentile`] when [`supported`], else `None`.
pub fn percentile_checked(sorted: &[f64], p: f64) -> Option<f64> {
    supported(p, sorted.len()).then(|| percentile(sorted, p))
}

/// Median (nearest-rank p50) of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 50.0)
}

/// One per-round statistic summarised across the rounds of a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundSummary {
    pub rounds: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Summarises per-round values; the reported figure is `median`.
pub fn median_of_rounds(per_round: &[f64]) -> RoundSummary {
    let mut v = per_round.to_vec();
    sort(&mut v);
    RoundSummary {
        rounds: v.len(),
        min: v.first().copied().unwrap_or(0.0),
        q1: percentile(&v, 25.0),
        median: percentile(&v, 50.0),
        q3: percentile(&v, 75.0),
        max: v.last().copied().unwrap_or(0.0),
    }
}

/// `(max − min) ÷ median`; `0.0` when the median is zero.
pub fn rel_spread(values: &[f64]) -> f64 {
    let s = median_of_rounds(values);
    if s.median == 0.0 {
        0.0
    } else {
        (s.max - s.min) / s.median
    }
}

/// `part ÷ whole`; `0.0` of nothing.
pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// `(b − a) ÷ a`, the relative difference the A/A table prints.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        if b == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (b - a) / a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_fixed_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // 40 sessions a round: p50 is the 20th, p90 the 36th.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 20.0);
        assert_eq!(percentile(&v, 90.0), 36.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(supported(50.0, 20));
        assert!(!supported(50.0, 19));
        assert!(supported(90.0, 100));
        assert!(!supported(90.0, 99));
        assert!(supported(99.0, 1000));
        assert!(!supported(99.0, 999));
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile_checked(&v, 90.0), None);
        assert_eq!(percentile_checked(&v, 50.0), Some(50.0));
    }

    #[test]
    fn failed_ops_sort_above_every_latency() {
        let mut v = vec![3.0, f64::INFINITY, 1.0, 2.0];
        sort(&mut v);
        assert_eq!(v, vec![1.0, 2.0, 3.0, f64::INFINITY]);
        assert_eq!(percentile(&v, 100.0), f64::INFINITY);
    }

    #[test]
    fn median_of_rounds_and_spread() {
        let s = median_of_rounds(&[12.0, 10.0, 11.0, 30.0, 10.5, 10.2, 10.8, 10.1]);
        assert_eq!(s.rounds, 8);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.q1, 10.1);
        assert_eq!(s.median, 10.5);
        assert_eq!(s.q3, 11.0);
        assert_eq!(s.max, 30.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(rel_spread(&[9.0, 10.0, 12.0]), 0.3);
        assert_eq!(rel_spread(&[0.0, 0.0]), 0.0);
        assert_eq!(rel_spread(&[]), 0.0);
    }

    #[test]
    fn shares() {
        assert_eq!(share(40, 48), 40.0 / 48.0);
        assert_eq!(share(0, 0), 0.0);
    }

    #[test]
    fn relative_difference() {
        assert_eq!(rel_diff(10.0, 11.0), 0.1);
        assert_eq!(rel_diff(10.0, 9.0), -0.1);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert_eq!(rel_diff(0.0, 1.0), f64::INFINITY);
    }
}
