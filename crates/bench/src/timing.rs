//! A minimal, dependency-free micro-benchmark harness.
//!
//! The workspace builds fully offline, so the benches under `benches/`
//! (declared with `harness = false`) use this instead of an external
//! framework. The harness auto-calibrates the iteration count to a small
//! wall-clock budget per case and reports min / median / mean, which is
//! plenty for tracking the relative cost of the hot paths over time.
//!
//! Passing `--json <path>` additionally writes the collected samples as a
//! machine-readable snapshot (one object per case with nanosecond
//! min/median/mean), which `scripts/bench_snapshot.sh` uses to track the
//! perf trajectory across PRs.
//!
//! # Examples
//!
//! ```
//! use xhc_bench::timing::Harness;
//!
//! let mut h = Harness::from_args("demo");
//! h.bench("sum", || (0..1000u64).sum::<u64>());
//! ```

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Re-export of the optimization barrier used around bench inputs/outputs.
pub use std::hint::black_box;

/// Timing summary of one finished bench case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseResult {
    /// Case name within the group (e.g. `cells/500`).
    pub name: String,
    /// Timed iterations (excludes the calibration warmup).
    pub iters: usize,
    /// Fastest iteration, in nanoseconds.
    pub min_ns: u128,
    /// Median iteration, in nanoseconds.
    pub median_ns: u128,
    /// 95th-percentile iteration (nearest-rank), in nanoseconds.
    pub p95_ns: u128,
    /// 99th-percentile iteration (nearest-rank), in nanoseconds.
    pub p99_ns: u128,
    /// Mean iteration, in nanoseconds.
    pub mean_ns: u128,
}

/// A named group of micro-benchmarks with a per-case time budget.
pub struct Harness {
    group: String,
    filter: Option<String>,
    budget: Duration,
    json_path: Option<PathBuf>,
    results: Vec<CaseResult>,
}

impl Harness {
    /// A harness for `group` reading the standard bench argv: an optional
    /// positional substring filter (cargo passes `--bench`; it is
    /// ignored), `--budget-ms N` to change the per-case budget, and
    /// `--json PATH` to write a machine-readable snapshot on exit.
    pub fn from_args(group: &str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut filter = None;
        let mut budget_ms = 300u64;
        let mut json_path = None;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--bench" | "--test" => {}
                "--budget-ms" => {
                    if let Some(v) = args.get(i + 1).and_then(|v| v.parse().ok()) {
                        budget_ms = v;
                        i += 1;
                    }
                }
                "--json" => {
                    if let Some(p) = args.get(i + 1) {
                        json_path = Some(PathBuf::from(p));
                        i += 1;
                    }
                }
                a if !a.starts_with('-') => filter = Some(a.to_string()),
                _ => {}
            }
            i += 1;
        }
        Harness {
            group: group.to_string(),
            filter,
            budget: Duration::from_millis(budget_ms),
            json_path,
            results: Vec::new(),
        }
    }

    /// Runs one case: calibrates an iteration count against the budget,
    /// then times each iteration and prints the summary line.
    pub fn bench<T>(&mut self, name: &str, f: impl FnMut() -> T) {
        self.bench_capped(name, usize::MAX, f);
    }

    /// Like [`Harness::bench`] with the calibrated iteration count capped
    /// at `max_iters` (floored at 1). For multi-second cases — the
    /// full-size CKT workloads — where even the minimum calibration of 3
    /// iterations would dominate the whole bench run, a cap keeps the
    /// case affordable while still reporting a real median.
    pub fn bench_capped<T>(&mut self, name: &str, max_iters: usize, mut f: impl FnMut() -> T) {
        let full = format!("{}/{}", self.group, name);
        if let Some(filter) = &self.filter {
            if !full.contains(filter.as_str()) {
                return;
            }
        }
        // Calibration: one untimed warmup doubles as the cost estimate.
        let start = Instant::now();
        black_box(f());
        let est = start.elapsed().max(Duration::from_nanos(50));
        let iters = ((self.budget.as_nanos() / est.as_nanos()).clamp(3, 10_000) as usize)
            .min(max_iters.max(1));

        let mut samples: Vec<Duration> = Vec::with_capacity(iters);
        for _ in 0..iters {
            let t = Instant::now();
            black_box(f());
            samples.push(t.elapsed());
        }
        samples.sort_unstable();
        let min = samples[0];
        let median = samples[samples.len() / 2];
        let p95 = percentile(&samples, 95);
        let p99 = percentile(&samples, 99);
        let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
        println!(
            "{full:<48} {iters:>6} iters   min {:>12}   median {:>12}   p95 {:>12}   p99 {:>12}   mean {:>12}",
            fmt_duration(min),
            fmt_duration(median),
            fmt_duration(p95),
            fmt_duration(p99),
            fmt_duration(mean),
        );
        self.results.push(CaseResult {
            name: name.to_string(),
            iters,
            min_ns: min.as_nanos(),
            median_ns: median.as_nanos(),
            p95_ns: p95.as_nanos(),
            p99_ns: p99.as_nanos(),
            mean_ns: mean.as_nanos(),
        });
    }

    /// Results collected so far, in run order.
    pub fn results(&self) -> &[CaseResult] {
        &self.results
    }

    /// Renders the collected results as a JSON snapshot document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"group\": \"{}\",\n", escape(&self.group)));
        out.push_str(&format!("  \"budget_ms\": {},\n", self.budget.as_millis()));
        out.push_str("  \"cases\": [\n");
        for (i, c) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"iters\": {}, \"min_ns\": {}, \"median_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"mean_ns\": {}}}{}\n",
                escape(&c.name),
                c.iters,
                c.min_ns,
                c.median_ns,
                c.p95_ns,
                c.p99_ns,
                c.mean_ns,
                if i + 1 < self.results.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON snapshot to the `--json` path, if one was given.
    /// Called automatically on drop; exposed for explicit flushing.
    pub fn write_json(&self) -> std::io::Result<()> {
        if let Some(path) = &self.json_path {
            std::fs::write(path, self.to_json())?;
            eprintln!("bench snapshot written to {}", path.display());
        }
        Ok(())
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        if let Err(e) = self.write_json() {
            eprintln!("failed to write bench snapshot: {e}");
        }
    }
}

/// Nearest-rank percentile over a sorted sample set: the sample at
/// 1-based rank `ceil(pct * n / 100)` (rank 1 for `pct = 0`), or the
/// default value when there are no samples.
pub fn percentile<T: Copy + Default>(sorted: &[T], pct: usize) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    sorted[(sorted.len() * pct).div_ceil(100).max(1) - 1]
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_harness(filter: Option<&str>) -> Harness {
        Harness {
            group: "t".into(),
            filter: filter.map(str::to_string),
            budget: Duration::from_millis(1),
            json_path: None,
            results: Vec::new(),
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&samples, 0), 1);
        assert_eq!(percentile(&samples, 50), 10);
        assert_eq!(percentile(&samples, 95), 19);
        assert_eq!(percentile(&samples, 99), 20);
        assert_eq!(percentile(&samples, 100), 20);
        assert_eq!(percentile(&[7u64], 99), 7);
        assert_eq!(percentile::<u64>(&[], 50), 0);
    }

    #[test]
    fn bench_runs_and_filters() {
        let mut h = test_harness(Some("nomatch"));
        let mut calls = 0u32;
        h.bench("case", || calls += 1);
        assert_eq!(calls, 0, "filtered-out case must not run");
        assert!(h.results().is_empty());

        let mut h = test_harness(None);
        h.bench("case", || calls += 1);
        assert!(calls >= 4, "warmup + >=3 samples, got {calls}");
        assert_eq!(h.results().len(), 1);
        assert_eq!(h.results()[0].name, "case");
    }

    #[test]
    fn bench_capped_limits_iterations() {
        let mut h = test_harness(None);
        let mut calls = 0u32;
        h.bench_capped("capped", 2, || calls += 1);
        assert_eq!(calls, 3, "warmup + 2 capped samples, got {calls}");
        assert_eq!(h.results()[0].iters, 2);
        // A zero cap is floored to one timed iteration.
        h.bench_capped("floor", 0, || ());
        assert_eq!(h.results()[1].iters, 1);
    }

    #[test]
    fn json_snapshot_shape() {
        let mut h = test_harness(None);
        h.bench("a/b", || 1 + 1);
        h.bench("c", || 2 + 2);
        let json = h.to_json();
        assert!(json.contains("\"group\": \"t\""));
        assert!(json.contains("\"name\": \"a/b\""));
        assert!(json.contains("\"median_ns\":"));
        assert!(json.contains("\"p95_ns\":"));
        assert!(json.contains("\"p99_ns\":"));
        // Exactly one trailing-comma-free last element: valid JSON shape.
        assert_eq!(json.matches("\"name\"").count(), 2);
    }

    #[test]
    fn durations_format() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500ns");
        assert_eq!(fmt_duration(Duration::from_micros(500)), "500.00us");
        assert_eq!(fmt_duration(Duration::from_millis(500)), "500.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(20)), "20.00s");
    }
}
