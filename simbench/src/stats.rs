//! Summary statistics, failure counting and the JSON result line.

use std::fmt::Write as _;

/// Median of `values` (mean of the middle pair for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Mean over the samples of their kind's median; `kinds[i]` is the kind
/// of `ms[i]`. With one kind this is the plain median.
///
/// A cycle that mixes kinds of operation of different cost puts a plain
/// median in the gap between two kinds, where one slow or fast call moves
/// it from one kind to the next. Per-kind medians do not jump that way.
pub fn kind_median(kinds: &[usize], ms: &[f64]) -> f64 {
    let n_kinds = kinds.iter().max().map_or(0, |&k| k + 1);
    let mut by_kind = vec![Vec::new(); n_kinds];
    for (&k, &v) in kinds.iter().zip(ms) {
        by_kind[k].push(v);
    }
    let total: f64 = by_kind.iter().map(|v| v.len() as f64 * median(v)).sum();
    total / ms.len().max(1) as f64
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending slice;
/// `0.0` for an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of `samples` with at least [`TAIL_BEYOND`]
/// samples strictly beyond it, as `(percentile, value, samples beyond)`.
///
/// With `n` samples that is nearest rank `n - 10`: the percentile is
/// `100 (n - 10) / n`, and the ten largest samples lie beyond it (ties
/// with the value at that rank are not "beyond", so the count can be
/// smaller only when the top samples repeat the value exactly). `None`
/// when there are too few samples for any percentile to qualify.
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64, usize)> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    let value = sorted[rank - 1];
    let beyond = sorted.iter().filter(|&&v| v > value).count();
    Some((100.0 * rank as f64 / n as f64, value, beyond))
}

/// Counts attempted operations and output checks, and the ones that
/// failed (returned an error, panicked or produced a wrong output).
#[derive(Debug, Default)]
pub struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    /// Records one attempt; a failure's reason goes to stderr.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            eprintln!("FAILED {what}: {reason}");
        }
    }

    pub fn attempted(&self) -> usize {
        self.attempted
    }

    pub fn failed(&self) -> usize {
        self.failed
    }

    /// Failed attempts over attempts (`0.0` before any attempt).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// `Ok` when `a == b`, else an error naming `what` differed.
pub fn expect_eq<T: PartialEq>(what: &str, a: &T, b: &T) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what} differs"))
    }
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters, all of them letters, digits, `_`, `.` or `-`.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One named metric of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
///
/// # Panics
///
/// Panics on an invalid metric name or a non-finite value — both are
/// bugs in this benchmark, and JSON cannot carry a NaN.
pub fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed() == 0,
        tally.attempted(),
        tally.failed()
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_metric_name(m.name), "invalid metric name {}", m.name);
        assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, value, beyond) = tail_percentile(&samples).unwrap();
        assert_eq!((p, value, beyond), (90.0, 90.0, 10));

        // Any higher rank leaves fewer than ten samples beyond it.
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let next = sorted[90];
        assert!(sorted.iter().filter(|&&v| v > next).count() < TAIL_BEYOND);

        let (p, value, beyond) =
            tail_percentile(&(1..=1000).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((p, value, beyond), (99.0, 990.0, 10));
    }

    #[test]
    fn kind_median_averages_each_kinds_median() {
        // Kind 0 costs ~10 ms with one outlier, kind 1 ~100 ms; kind 1
        // has one sample more.
        let kinds = [0, 1, 0, 1, 0, 1, 1];
        let ms = [10.0, 100.0, 50.0, 101.0, 11.0, 99.0, 100.0];
        assert_eq!(kind_median(&kinds, &ms), (3.0 * 11.0 + 4.0 * 100.0) / 7.0);
        assert_eq!(kind_median(&[0; 3], &[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(kind_median(&[], &[]), 0.0);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).rev().collect();
        let (p, value, beyond) = tail_percentile(&eleven).unwrap();
        assert_eq!(value, 0.0);
        assert_eq!(beyond, 10);
        assert!((p - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let sorted: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 99.0), 198.0);
        assert_eq!(nearest_rank(&sorted, 100.0), 200.0);
        assert_eq!(nearest_rank(&sorted[..1], 50.0), 1.0);
    }

    #[test]
    fn an_injected_failing_check_raises_failed_frac() {
        let mut tally = Tally::default();
        for _ in 0..3 {
            tally.record("op", Ok(()));
        }
        assert_eq!(tally.failed_frac(), 0.0);
        tally.record("injected", expect_eq("report", &1, &2));
        assert_eq!((tally.attempted(), tally.failed()), (4, 1));
        assert_eq!(tally.failed_frac(), 0.25);
        assert!(result_json(&tally, &[]).starts_with("{\"correct\": false"));
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in ["setup_s", "core.map.partition.busy_ms.share", "9a-b", "x"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "map/place", "a b", "µs", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut tally = Tally::default();
        tally.record("op", Ok(()));
        let line = result_json(
            &tally,
            &[Metric {
                name: "setup_s",
                unit: "s",
                value: 0.125,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn an_invalid_name_never_reaches_the_output() {
        let bad = Metric {
            name: "map/place",
            unit: "ms",
            value: 1.0,
        };
        result_json(&Tally::default(), &[bad]);
    }
}
