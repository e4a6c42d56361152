//! Sample statistics and the regression rule `compare` applies.

/// Median of the samples (mean of the middle two for an even count);
/// `NaN` when there are none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100); `NaN` when there are no
/// samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method); `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let len = samples.len();
    if len < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Run-to-run spread: the distance between the quartiles as a share of
/// the median. Zero below two samples or for a zero median.
pub fn spread(samples: &[f64]) -> f64 {
    let mid = median(samples);
    match quartiles(samples) {
        Some((q1, q3)) if mid != 0.0 => ((q3 - q1) / mid).abs(),
        _ => 0.0,
    }
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// What `compare` says about one (workload, metric) row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// The medians differ by more than the bound, but so do runs of one
    /// build among themselves: the rows cannot tell the builds apart.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share by which `candidate` is worse than `baseline` (negative when it
/// is better).
pub fn worse_by(better: Better, baseline: f64, candidate: f64) -> f64 {
    if baseline == 0.0 {
        return match (candidate == 0.0, better, candidate > 0.0) {
            (true, _, _) => 0.0,
            (false, Better::Lower, true) | (false, Better::Higher, false) => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        };
    }
    match better {
        Better::Lower => (candidate - baseline) / baseline.abs(),
        Better::Higher => (baseline - candidate) / baseline.abs(),
    }
}

/// Applies a metric's direction and bound to two medians. `spread` is the
/// wider of the two runs' own spreads. A bound of zero marks an exact
/// count: any difference at all is a regression, whatever the spread.
pub fn judge(better: Better, bound: f64, baseline: f64, candidate: f64, spread: f64) -> Verdict {
    if bound == 0.0 {
        return if baseline.to_bits() == candidate.to_bits() {
            Verdict::WithinBound
        } else {
            Verdict::Worse
        };
    }
    let delta = worse_by(better, baseline, candidate);
    if delta.abs() <= bound {
        Verdict::WithinBound
    } else if spread > bound {
        Verdict::Unresolved
    } else if delta > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), 1.0);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worse_by(Better::Lower, 2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 2.0, 2.2) + 0.1).abs() < 1e-12);
        assert_eq!(worse_by(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worse_by(Better::Lower, 0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn judge_applies_bound_spread_and_exactness() {
        assert_eq!(
            judge(Better::Lower, 0.10, 1.0, 1.05, 0.01),
            Verdict::WithinBound
        );
        assert_eq!(judge(Better::Lower, 0.10, 1.0, 1.20, 0.01), Verdict::Worse);
        assert_eq!(judge(Better::Lower, 0.10, 1.0, 0.80, 0.01), Verdict::Better);
        assert_eq!(
            judge(Better::Lower, 0.10, 1.0, 1.20, 0.30),
            Verdict::Unresolved
        );
        assert_eq!(judge(Better::Higher, 0.10, 1.0, 0.80, 0.01), Verdict::Worse);
        // Exact counts: bit-for-bit or worse, never unresolved.
        assert_eq!(
            judge(Better::Lower, 0.0, 1380.0, 1380.0, 0.5),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(Better::Lower, 0.0, 1380.0, 1379.0, 0.5),
            Verdict::Worse
        );
    }
}
