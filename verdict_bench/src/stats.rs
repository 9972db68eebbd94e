//! Summary statistics and the result line.

/// Median of `values` (mean of the middle pair for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Jobs that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A latency tail: the highest nearest-rank percentile that still has
/// [`TAIL_BEYOND`] jobs above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile of the reported value (share of jobs at or below it).
    pub percentile: f64,
    pub value: f64,
    /// Jobs behind the percentile.
    pub jobs: usize,
}

/// The tail of `values`, or `None` with fewer than
/// `TAIL_BEYOND + 1` values.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank k (1-based) leaves n - k values above it.
    let k = n - TAIL_BEYOND;
    Some(Tail {
        percentile: 100.0 * k as f64 / n as f64,
        value: v[k - 1],
        jobs: n,
    })
}

/// Metric names: 1 to 64 of `[A-Za-z0-9_.-]`, starting with a letter
/// or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// The final result line:
/// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
///
/// # Errors
///
/// Rejects an invalid or repeated metric name, a non-finite value, and
/// `attempted == 0`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    if attempted == 0 {
        return Err("no operation was attempted".into());
    }
    let mut body = Vec::with_capacity(metrics.len());
    for (i, m) in metrics.iter().enumerate() {
        if !valid_name(&m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        if metrics[..i].iter().any(|other| other.name == m.name) {
            return Err(format!("metric {:?} reported twice", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_jobs_beyond_the_percentile() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.jobs, 100);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), TAIL_BEYOND);

        // Eleven jobs: the smallest one is the only value with ten
        // beyond it.
        let eleven: Vec<f64> = (0..11).rev().map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!(t.value, 0.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);

        assert_eq!(tail(&[1.0; 10]), None);
    }

    #[test]
    fn tail_holds_for_every_count() {
        for n in 11..=211 {
            // Distinct latencies in scrambled order.
            let values: Vec<f64> = (0..n).map(|i| ((i * 37) % 211) as f64).collect();
            let t = tail(&values).unwrap();
            let beyond = values.iter().filter(|&&v| v > t.value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
            // No higher nearest-rank percentile keeps ten beyond it.
            let at_or_below = values.iter().filter(|&&v| v <= t.value).count();
            assert_eq!(100.0 * at_or_below as f64 / n as f64, t.percentile);
        }
    }

    #[test]
    fn metric_names_are_validated() {
        for good in ["setup_s", "analog.dut.ns_per_sample", "a", "9-x_y.z"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".dot",
            "_under",
            "-dash",
            "sp ace",
            "uni\u{e7}ode",
            "a/b",
            &long,
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn result_line_formats_and_rejects_bad_metrics() {
        let line = result_line(
            true,
            3,
            0,
            &[
                Metric::new("latency_ms", "ms", 1.25),
                Metric::new("setup_s", "s", 0.5),
            ],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(result_line(true, 0, 0, &[]).is_err());
        assert!(result_line(true, 1, 0, &[Metric::new("bad name", "s", 1.0)]).is_err());
        assert!(result_line(true, 1, 0, &[Metric::new("x", "s", f64::NAN)]).is_err());
        let twice = [Metric::new("x", "s", 1.0), Metric::new("x", "s", 2.0)];
        assert!(result_line(true, 1, 0, &twice).is_err());
    }
}
