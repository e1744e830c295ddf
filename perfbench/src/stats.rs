//! Summary statistics for one run's latency samples.

/// Percentiles the tail metric may report, highest last.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The value at percentile `p` (0–100) of ascending `sorted`, by the
/// nearest-rank rule (the smallest sample with at least `p`% of the
/// samples at or below it).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (any order).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail a run reports: a percentile of the ladder and how many
/// samples lie strictly beyond its nearest rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub percentile: f64,
    /// Samples beyond it (at least [`TAIL_MIN_BEYOND`]).
    pub beyond: usize,
}

fn tail_at(p: f64, n: usize) -> Tail {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Tail {
        percentile: p,
        beyond: n.saturating_sub(rank),
    }
}

/// The highest ladder percentile not above `cap` with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it at sample count `n`.
pub fn tail_not_above(cap: f64, n: usize) -> Option<Tail> {
    TAIL_LADDER
        .iter()
        .rev()
        .filter(|&&p| p <= cap)
        .map(|&p| tail_at(p, n))
        .find(|t| t.beyond >= TAIL_MIN_BEYOND)
}

/// Ops per second over a phase, as the median over its runs of `per`
/// consecutive ops of the rate each run completed at; `done_at` holds
/// each op's completion time in seconds since the phase began, ascending.
/// A host stall lands in a few runs and leaves the median alone. A phase
/// of fewer than two runs reports ops over its length.
pub fn median_rate(done_at: &[f64], per: usize) -> f64 {
    let Some(&end) = done_at.last() else {
        return 0.0;
    };
    let runs = done_at.len() / per.max(1);
    if runs < 2 {
        return done_at.len() as f64 / end;
    }
    let rates: Vec<f64> = (0..runs)
        .map(|k| {
            let from = if k == 0 { 0.0 } else { done_at[k * per - 1] };
            per as f64 / (done_at[(k + 1) * per - 1] - from)
        })
        .collect();
    median(&rates)
}

/// Latency summary of one timed phase.
#[derive(Clone, Debug)]
pub struct Latency {
    /// Samples.
    pub n: usize,
    /// Median, seconds.
    pub p50: f64,
    /// The reported tail percentile and its beyond-count.
    pub tail: Tail,
    /// Latency at that percentile, seconds.
    pub tail_value: f64,
}

/// Summarizes `samples` (seconds). The tail is the workload's fixed
/// percentile `tail`, or, when a short run has fewer than ten samples
/// beyond it, the highest lower ladder percentile that has ten. Errors
/// when even the median has fewer than ten samples beyond it.
pub fn latency(samples: &[f64], tail: f64) -> Result<Latency, String> {
    let tail = tail_not_above(tail, samples.len()).ok_or_else(|| {
        format!(
            "{} samples: too few for a tail with {TAIL_MIN_BEYOND} samples beyond it",
            samples.len()
        )
    })?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Latency {
        n: sorted.len(),
        p50: percentile(&sorted, 50.0),
        tail,
        tail_value: percentile(&sorted, tail.percentile),
    })
}

/// Answers attempted and how each ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Answers {
    /// Answers the workload asked for.
    pub attempted: u64,
    /// Answers that came back exact.
    pub exact: u64,
    /// Answers a budget cut short (a capped analysis, a `degraded`
    /// response): sound but not exact.
    pub degraded: u64,
    /// `error` responses.
    pub errors: u64,
}

impl Answers {
    /// Answers that never arrived.
    pub fn lost(&self) -> u64 {
        self.attempted - self.exact - self.degraded - self.errors
    }

    /// Answers that are not exact (degraded, error or lost) over answers
    /// attempted.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.exact) as f64 / self.attempted as f64
    }

    /// Operations that failed outright: an error or a lost answer. A
    /// degraded answer is the sound outcome of a configured budget, not
    /// a failure.
    pub fn failed(&self) -> u64 {
        self.errors + self.lost()
    }

    /// Adds another tally.
    pub fn add(&mut self, other: Answers) {
        self.attempted += other.attempted;
        self.exact += other.exact;
        self.degraded += other.degraded;
        self.errors += other.errors;
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_never_has_fewer_than_ten_samples_beyond() {
        assert_eq!(tail_not_above(90.0, 19), None);
        for n in 20..5_000 {
            for cap in [75.0, 90.0, 99.0, 99.9] {
                let t = tail_not_above(cap, n).expect("twenty samples give a median tail");
                assert!(t.beyond >= TAIL_MIN_BEYOND, "n={n} cap={cap}: {t:?}");
                assert!(t.percentile <= cap);
            }
        }
        assert_eq!(
            tail_not_above(99.0, 5_000).map(|t| t.percentile),
            Some(99.0)
        );
        assert_eq!(tail_not_above(99.0, 500).map(|t| t.percentile), Some(90.0));
    }

    #[test]
    fn latency_reports_the_named_tail() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let l = latency(&samples, 90.0).unwrap();
        assert_eq!(l.p50, 100.0);
        assert_eq!(l.tail.percentile, 90.0);
        assert_eq!(l.tail.beyond, 20);
        assert_eq!(l.tail_value, 180.0);
        let short = latency(&samples[..50], 90.0).unwrap();
        assert_eq!(
            short.tail.percentile, 75.0,
            "p90 has five samples beyond it"
        );
        assert!(latency(&samples[..10], 90.0).is_err());
    }

    #[test]
    fn fail_ratio_counts_capped_degraded_error_and_lost_answers() {
        let capped_analysis = Answers {
            attempted: 4,
            exact: 3,
            degraded: 1,
            errors: 0,
        };
        assert_eq!(capped_analysis.fail_ratio(), 0.25);
        assert_eq!(
            capped_analysis.failed(),
            0,
            "a capped analysis is not an error"
        );
        let responses = Answers {
            attempted: 10,
            exact: 7,
            degraded: 1,
            errors: 1,
        };
        assert_eq!(responses.lost(), 1);
        assert_eq!(responses.fail_ratio(), 0.3);
        assert_eq!(responses.failed(), 2);
        assert_eq!(Answers::default().fail_ratio(), 0.0);
    }

    #[test]
    fn median_rate_ignores_a_stall() {
        // 100 ops per second, then a 0.25 s stall, then 100 per second.
        let mut t: Vec<f64> = (1..=100).map(|i| f64::from(i) * 0.01).collect();
        t.extend((1..=100).map(|i| 1.25 + f64::from(i) * 0.01));
        let rate = median_rate(&t, 10);
        assert!((rate - 100.0).abs() < 1e-6, "{rate}");
        assert!(
            t.len() as f64 / t[t.len() - 1] < 90.0,
            "the mean sees the stall"
        );
        assert_eq!(median_rate(&[0.5, 1.0, 2.0], 2), 1.5);
        assert_eq!(median_rate(&[], 10), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
