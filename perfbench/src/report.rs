//! Statistics helpers, the correctness tally and the result line.

use liger_gpu_sim::json::JsonObject;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile `p` (in whole percent) of `samples`, the rule
/// `ServingMetrics::latency_percentile` uses. `None` when fewer than
/// [`MIN_TAIL`] samples lie beyond it, so a tail is never read off a
/// handful of points.
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    assert!((1..=100).contains(&p), "percentile {p} outside 1..=100");
    let n = samples.len();
    let rank = (p as usize * n).div_ceil(100).clamp(1, n.max(1));
    if n < rank + MIN_TAIL {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of `samples` (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Seconds per megabyte (10^6 bytes) for `seconds` spent on `bytes`; 0 for
/// no bytes.
pub fn per_mb(seconds: f64, bytes: u64) -> f64 {
    if bytes == 0 {
        0.0
    } else {
        seconds / (bytes as f64 / 1e6)
    }
}

/// A metric name: starts with a letter or digit, at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Requests submitted and requests that did not complete correctly, with
/// one note per failed check.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests not completed correctly.
    pub failed: u64,
    /// What failed, one line per check.
    pub notes: Vec<String>,
}

impl Tally {
    /// A tally of `submitted` requests, none failed yet.
    pub fn new(submitted: u64) -> Tally {
        Tally { submitted, ..Tally::default() }
    }

    /// Records a check that failed for `requests` requests.
    pub fn fail(&mut self, requests: u64, note: impl Into<String>) {
        self.failed = (self.failed + requests).min(self.submitted);
        self.notes.push(note.into());
    }

    /// Records a failed check that taints every request of the tally.
    pub fn fail_all(&mut self, note: impl Into<String>) {
        self.fail(self.submitted, note);
    }

    /// Adds `o` to this tally.
    pub fn absorb(&mut self, o: Tally) {
        self.submitted += o.submitted;
        self.failed += o.failed;
        self.notes.extend(o.notes);
    }

    /// Failed ÷ submitted.
    pub fn failed_frac(&self) -> f64 {
        if self.submitted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.submitted as f64
    }
}

/// One metric of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, e.g. `host_cpu_s`.
    pub name: &'static str,
    /// Unit, e.g. `s`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
/// A metric whose value is not finite, or whose name or unit is malformed,
/// makes the result incorrect.
pub fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let finite =
        metrics.iter().all(|m| m.value.is_finite() && valid_name(m.name) && valid_unit(m.unit));
    let mut out = String::new();
    let mut obj = JsonObject::begin(&mut out);
    obj.field("correct", &(tally.failed == 0 && finite))
        .field("attempted", &tally.submitted.max(1))
        .field("failed", &tally.failed)
        .field_with("metrics", |out| {
            let mut all = JsonObject::begin(out);
            for m in metrics {
                all.field_with(m.name, |out| {
                    let mut one = JsonObject::begin(out);
                    one.field("value", &m.value).field("unit", &m.unit);
                    one.end();
                });
            }
            all.end();
        });
    obj.end();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use liger_gpu_sim::json::JsonValue;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(999), 99), None, "rank 990 leaves 9 beyond");
        assert_eq!(percentile(&ramp(1000), 99), Some(990.0));
        assert_eq!(percentile(&ramp(199), 95), None);
        assert_eq!(percentile(&ramp(200), 95), Some(190.0));
        assert_eq!(percentile(&ramp(20), 50), Some(10.0));
        assert_eq!(percentile(&ramp(19), 50), None);
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn per_mb_rates() {
        assert_eq!(per_mb(2.0, 4_000_000), 0.5);
        assert_eq!(per_mb(0.25, 500_000), 0.5);
        assert_eq!(per_mb(1.0, 0), 0.0);
    }

    #[test]
    fn metric_name_character_set() {
        for ok in ["host_cpu_s", "core.ns_per_round", "9lives", "a-b.c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "tok/s", "s/MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_parses_and_keeps_every_digit() {
        let tally = Tally::new(10);
        let metrics = [
            Metric { name: "host_cpu_s", unit: "s", value: 1.234_567_890_123 },
            Metric { name: "sim_tok_per_s", unit: "tok/s", value: 17.0 },
        ];
        let line = result_json(&tally, &metrics);
        let v = JsonValue::parse(&line).expect("result line is JSON");
        assert_eq!(v.get("correct").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(JsonValue::as_u64), Some(10));
        assert_eq!(v.get("failed").and_then(JsonValue::as_u64), Some(0));
        let host = v.get("metrics").and_then(|m| m.get("host_cpu_s")).expect("host_cpu_s present");
        assert_eq!(host.get("value").and_then(JsonValue::as_f64), Some(1.234_567_890_123));
        assert_eq!(host.get("unit").and_then(JsonValue::as_str), Some("s"));
    }

    #[test]
    fn failures_and_non_finite_values_make_the_result_incorrect() {
        let mut tally = Tally::new(4);
        tally.fail(1, "job 3: stream differs");
        assert_eq!(tally.failed_frac(), 0.25);
        let v = JsonValue::parse(&result_json(&tally, &[])).expect("JSON");
        assert_eq!(v.get("correct").and_then(JsonValue::as_bool), Some(false));

        let nan = [Metric { name: "x", unit: "s", value: f64::NAN }];
        let v = JsonValue::parse(&result_json(&Tally::new(1), &nan)).expect("JSON");
        assert_eq!(v.get("correct").and_then(JsonValue::as_bool), Some(false));
    }
}
