//! The result line, failure accounting and the small statistics every
//! workload shares.

use std::process::ExitCode;

/// What one run reports: the correctness verdict, operations attempted
/// and failed, and named metrics with their units.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate violations; any entry withholds every number.
    pub violations: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records a gate violation when `ok` is false.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Prints the human summary to stderr and the JSON result as the last
    /// line of stdout.
    pub fn print(mut self) -> ExitCode {
        for (name, value, _) in &self.metrics {
            if !value.is_finite() {
                self.violations
                    .push(format!("metric {name} is not a finite number"));
            }
        }
        let correct = self.violations.is_empty();
        for v in &self.violations {
            eprintln!("[bench] GATE FAILED: {v}");
        }
        let metrics = if correct {
            self.metrics
                .iter()
                .map(|(name, value, unit)| {
                    eprintln!("[bench] {name:<36} {value:>16.6} {unit}");
                    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
                })
                .collect::<Vec<_>>()
                .join(", ")
        } else {
            String::new()
        };
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Nearest-rank quantile of an ascending-sorted slice (0 when empty).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank quantile of unsorted values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

/// Median of unsorted values: the mean of the two middle values for an
/// even count, so two repetitions report their mean.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The process's resident-memory high-water mark, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM:")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPUs this process may run on, as `nproc` counts them (the affinity
/// mask), falling back to the standard library's view.
pub fn nproc() -> usize {
    proc_status_field("Cpus_allowed:")
        .map(|mask| {
            mask.chars()
                .filter_map(|c| c.to_digit(16))
                .map(|d| d.count_ones() as usize)
                .sum::<usize>()
        })
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn proc_status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key).map(|v| v.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0]), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
