//! A minimal, dependency-free stand-in for the slice of the `criterion`
//! API the kernel benchmarks use (`benchmark_group`, `bench_function`,
//! `iter`, `iter_batched`). The workspace builds offline, so the real
//! criterion crate is unavailable; this harness runs each routine a
//! configurable number of samples and prints min / median / mean wall
//! times in a table.
//!
//! Benchmarks are ordinary `[[bench]]` targets with `harness = false`
//! and a plain `main` that drives a [`Criterion`] value.
//!
//! Besides the human-readable tables, the harness provides a minimal
//! dependency-free JSON emitter ([`JsonObj`] / [`JsonList`]) so bench
//! bins can write machine-readable `BENCH_<name>.json` artifacts (e.g.
//! the robustness sweep) that CI and perf-trajectory tooling consume.

use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Machine-readable reports
// ---------------------------------------------------------------------

/// A JSON object under construction. Only the value shapes the bench
/// artifacts need (strings, integers, floats, arrays, nested objects) —
/// not a general serializer.
#[derive(Debug, Default, Clone)]
pub struct JsonObj {
    parts: Vec<String>,
}

/// A JSON array under construction.
#[derive(Debug, Default, Clone)]
pub struct JsonList {
    parts: Vec<String>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl JsonObj {
    /// Empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.parts.push(format!(
            "\"{}\":\"{}\"",
            json_escape(key),
            json_escape(value)
        ));
        self
    }

    /// Add an integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.parts.push(format!("\"{}\":{value}", json_escape(key)));
        self
    }

    /// Add a float field (finite values only; NaN/inf become null).
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        let v = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        self.parts.push(format!("\"{}\":{v}", json_escape(key)));
        self
    }

    /// Add an array of integers.
    pub fn u64_array(mut self, key: &str, values: &[u64]) -> Self {
        let body: Vec<String> = values.iter().map(|v| v.to_string()).collect();
        self.parts
            .push(format!("\"{}\":[{}]", json_escape(key), body.join(",")));
        self
    }

    /// Add a nested array value.
    pub fn list(mut self, key: &str, value: JsonList) -> Self {
        self.parts
            .push(format!("\"{}\":{}", json_escape(key), value.finish()));
        self
    }

    /// Add a nested object value.
    pub fn obj(mut self, key: &str, value: JsonObj) -> Self {
        self.parts
            .push(format!("\"{}\":{}", json_escape(key), value.finish()));
        self
    }

    /// Serialize.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.parts.join(","))
    }
}

impl JsonList {
    /// Empty array.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an object element.
    pub fn push(&mut self, value: JsonObj) {
        self.parts.push(value.finish());
    }

    /// Serialize.
    pub fn finish(self) -> String {
        format!("[{}]", self.parts.join(","))
    }
}

/// Write a machine-readable bench artifact as `BENCH_<name>.json` in the
/// current directory (the convention CI's perf-trajectory step greps
/// for). Returns the path written.
pub fn write_bench_json(name: &str, root: JsonObj) -> std::io::Result<String> {
    let path = format!("BENCH_{name}.json");
    std::fs::write(&path, root.finish() + "\n")?;
    Ok(path)
}

/// The commit a bench artifact was recorded at, as `git describe
/// --always --dirty` prints it (a `-dirty` suffix marks uncommitted
/// changes); `unknown` outside a git work tree.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Latency percentiles over a sample set (nanoseconds), nearest-rank
/// method. The query service records one sample per completed call
/// (`Service::take_latencies`); `service_bench` folds them through this
/// and emits them into `BENCH_service.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentiles {
    /// Number of samples.
    pub count: usize,
    /// Mean (ns).
    pub mean_ns: u64,
    /// Median (ns).
    pub p50_ns: u64,
    /// 95th percentile (ns).
    pub p95_ns: u64,
    /// 99th percentile (ns).
    pub p99_ns: u64,
    /// Maximum (ns).
    pub max_ns: u64,
}

impl Percentiles {
    /// Compute from raw nanosecond samples (empty input yields zeros).
    pub fn from_nanos(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        let count = samples.len();
        let rank = |p: usize| -> u64 {
            if count == 0 {
                return 0;
            }
            // Nearest-rank: smallest sample with at least p% of the
            // distribution at or below it.
            samples[(p * count).div_ceil(100).clamp(1, count) - 1]
        };
        Percentiles {
            count,
            mean_ns: if count == 0 {
                0
            } else {
                (samples.iter().map(|&n| n as u128).sum::<u128>() / count as u128) as u64
            },
            p50_ns: rank(50),
            p95_ns: rank(95),
            p99_ns: rank(99),
            max_ns: samples.last().copied().unwrap_or(0),
        }
    }

    /// Serialize into the bench-artifact JSON shape (microsecond floats
    /// for readability, counts as integers).
    pub fn to_json(self) -> JsonObj {
        JsonObj::new()
            .u64("samples", self.count as u64)
            .f64("mean_us", self.mean_ns as f64 / 1e3)
            .f64("p50_us", self.p50_ns as f64 / 1e3)
            .f64("p95_us", self.p95_ns as f64 / 1e3)
            .f64("p99_us", self.p99_ns as f64 / 1e3)
            .f64("max_us", self.max_ns as f64 / 1e3)
    }
}

/// How `iter_batched` amortizes setup (kept for API compatibility; this
/// harness always runs one setup per measured sample).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration state.
    SmallInput,
    /// Large per-iteration state.
    LargeInput,
    /// Fresh state every iteration.
    PerIteration,
}

/// Top-level benchmark driver.
#[derive(Debug)]
pub struct Criterion {
    default_samples: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        // Keep runs fast: kernels here are all ≥ microseconds, and the
        // experiment binaries (not these microbenches) produce the
        // paper's figures.
        Criterion {
            default_samples: 15,
        }
    }
}

impl Criterion {
    /// Start a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> Group {
        let name = name.into();
        println!("\n== {name}");
        println!(
            "{:<44} {:>12} {:>12} {:>12}",
            "benchmark", "min", "median", "mean"
        );
        Group {
            _name: name,
            samples: self.default_samples,
        }
    }
}

/// A benchmark group (named section of the report).
#[derive(Debug)]
pub struct Group {
    _name: String,
    samples: usize,
}

impl Group {
    /// Set the number of measured samples per benchmark.
    pub fn sample_size(&mut self, n: usize) {
        self.samples = n.max(3);
    }

    /// Measure one routine. `f` receives a [`Bencher`] and must call
    /// [`Bencher::iter`] or [`Bencher::iter_batched`] exactly once.
    pub fn bench_function(&mut self, id: impl ToString, mut f: impl FnMut(&mut Bencher)) {
        let mut b = Bencher {
            samples: self.samples,
            times: Vec::new(),
        };
        f(&mut b);
        let mut times = b.times;
        times.sort_unstable();
        let min = times.first().copied().unwrap_or_default();
        let median = times.get(times.len() / 2).copied().unwrap_or_default();
        let mean = if times.is_empty() {
            Duration::ZERO
        } else {
            times.iter().sum::<Duration>() / times.len() as u32
        };
        println!(
            "{:<44} {:>12} {:>12} {:>12}",
            id.to_string(),
            fmt(min),
            fmt(median),
            fmt(mean)
        );
    }

    /// End the group (printing is incremental; kept for API parity).
    pub fn finish(self) {}
}

fn fmt(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Per-benchmark measurement driver.
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    times: Vec<Duration>,
}

impl Bencher {
    /// Measure `f` directly, one timing sample per call (plus one
    /// unmeasured warm-up call).
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        std::hint::black_box(f());
        for _ in 0..self.samples {
            let t0 = Instant::now();
            std::hint::black_box(f());
            self.times.push(t0.elapsed());
        }
    }

    /// Measure `routine` on fresh state from `setup`; setup time is not
    /// measured.
    pub fn iter_batched<S, R>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
        _size: BatchSize,
    ) {
        std::hint::black_box(routine(setup()));
        for _ in 0..self.samples {
            let state = setup();
            let t0 = Instant::now();
            std::hint::black_box(routine(state));
            self.times.push(t0.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let p = Percentiles::from_nanos((1..=100).collect());
        assert_eq!(p.count, 100);
        assert_eq!(p.p50_ns, 50);
        assert_eq!(p.p95_ns, 95);
        assert_eq!(p.p99_ns, 99);
        assert_eq!(p.max_ns, 100);
        assert_eq!(p.mean_ns, 50); // 50.5 truncated
    }

    #[test]
    fn percentiles_degenerate_inputs() {
        let empty = Percentiles::from_nanos(Vec::new());
        assert_eq!(empty.count, 0);
        assert_eq!(empty.p99_ns, 0);
        assert_eq!(empty.max_ns, 0);
        let one = Percentiles::from_nanos(vec![7]);
        assert_eq!((one.p50_ns, one.p99_ns, one.max_ns), (7, 7, 7));
        // Unsorted input is sorted internally.
        let two = Percentiles::from_nanos(vec![9, 1]);
        assert_eq!(two.p50_ns, 1);
        assert_eq!(two.p99_ns, 9);
    }

    #[test]
    fn percentiles_serialize() {
        let json = Percentiles::from_nanos(vec![1000, 2000]).to_json().finish();
        assert!(json.contains("\"samples\":2"), "{json}");
        assert!(json.contains("\"p50_us\":1"), "{json}");
    }
}
