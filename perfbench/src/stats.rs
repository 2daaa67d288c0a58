//! Exact sample statistics: percentiles from raw samples (never from
//! histogram buckets), open-loop timing from due times, and the
//! failure share.

use std::time::Duration;

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (0 < q ≤ 1) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `q · n` samples at or below it.
/// Every value returned is a sample that was actually observed.
/// `None` for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median and 99th percentile of one sample, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarise `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        Some(Summary {
            n: samples.len(),
            p50: percentile(samples, 0.5)?,
            p99: percentile(samples, 0.99)?,
        })
    }
}

/// Arithmetic mean; `None` for an empty sample.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// How late the generator sent a request: time from its due time to
/// the moment it was handed to the service (zero when on time).
pub fn lateness(due: Duration, sent: Duration) -> Duration {
    sent.saturating_sub(due)
}

/// Open-loop latency: from the request's *due* time until its own
/// completion was observed. Timing from the due time (not from the
/// send) charges a generator stall to every request it delayed.
pub fn latency_from_due(due: Duration, done: Duration) -> Duration {
    done.saturating_sub(due)
}

/// Share of attempted requests that did not produce an answer
/// (failed, refused or canceled).
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    assert!(attempted > 0, "a run attempts at least one request");
    assert!(failed <= attempted, "cannot fail more than was attempted");
    failed as f64 / attempted as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_over_raw_samples() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        assert_eq!(percentile(&samples, 0.99), Some(99.0));
        assert_eq!(percentile(&samples, 1.0), Some(100.0));
        assert_eq!(percentile(&samples, 0.001), Some(1.0));
    }

    #[test]
    fn percentile_ignores_input_order_and_returns_a_sample() {
        let samples = [0.524, 1.049, 0.7, 0.9, 0.61];
        assert_eq!(percentile(&samples, 0.5), Some(0.7));
        // A log-bucketed estimate would round 0.7 to a bucket edge.
        let shuffled = [0.9, 0.61, 1.049, 0.524, 0.7];
        assert_eq!(percentile(&shuffled, 0.5), Some(0.7));
    }

    #[test]
    fn percentile_of_small_and_empty_samples() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[3.0], 0.5), Some(3.0));
        assert_eq!(percentile(&[3.0], 0.99), Some(3.0));
        assert_eq!(percentile(&[2.0, 1.0], 0.5), Some(1.0));
        assert_eq!(percentile(&[2.0, 1.0], 0.99), Some(2.0));
    }

    #[test]
    fn summary_reports_sample_count() {
        let samples: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 499.0);
        assert_eq!(s.p99, 989.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn lateness_is_zero_when_on_time() {
        let at = Duration::from_millis(10);
        assert_eq!(lateness(at, at), Duration::ZERO);
        assert_eq!(lateness(at, Duration::from_millis(9)), Duration::ZERO);
        assert_eq!(
            lateness(at, Duration::from_micros(10_250)),
            Duration::from_micros(250)
        );
    }

    #[test]
    fn latency_counts_the_generator_stall() {
        // Due at 0, sent 5 ms late, completed 1 ms after sending: the
        // user waited 6 ms, not the 1 ms the service saw.
        let due = Duration::ZERO;
        let sent = Duration::from_millis(5);
        let done = Duration::from_millis(6);
        assert_eq!(lateness(due, sent), Duration::from_millis(5));
        assert_eq!(latency_from_due(due, done), Duration::from_millis(6));
    }

    #[test]
    fn failed_share_counts_against_attempts() {
        assert_eq!(failed_frac(0, 10), 0.0);
        assert_eq!(failed_frac(1, 4), 0.25);
        assert_eq!(failed_frac(3, 3), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn failed_share_needs_attempts() {
        failed_frac(0, 0);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
