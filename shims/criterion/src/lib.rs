//! Offline stand-in for the `criterion` crate.
//!
//! Implements the subset of the API this workspace's benches use —
//! groups, `bench_function`, `bench_with_input`, `iter`,
//! `iter_batched`, `sample_size`, `sampling_mode` — over plain
//! `std::time::Instant` wall-clock measurement. Reported statistics are
//! the min / median / mean over the collected samples (per-iteration
//! time). No plots, no saved baselines.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Top-level harness handle.
pub struct Criterion {
    default_sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            default_sample_size: 20,
        }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.default_sample_size,
            _criterion: self,
        }
    }

    /// Runs a stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<BenchmarkId>, f: F) {
        let mut g = self.benchmark_group("");
        g.bench_function(id, f);
        g.finish();
    }
}

/// How samples are scheduled. Accepted for compatibility; this shim
/// always measures the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingMode {
    /// Criterion's default adaptive mode.
    Auto,
    /// Fixed iteration count per sample (what slow benches request).
    Flat,
    /// Linearly increasing iteration counts.
    Linear,
}

/// Per-iteration input handling for `iter_batched`. Accepted for
/// compatibility; batches are always materialised one at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small inputs: many per batch upstream.
    SmallInput,
    /// Large inputs: few per batch upstream.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// A benchmark identifier, optionally parameterised.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// `name/parameter` identifier.
    pub fn new(name: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{name}/{parameter}"),
        }
    }

    /// Identifier carrying only a parameter (grouped benches).
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            name: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { name: s.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { name: s }
    }
}

/// A group of related benchmarks sharing settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples collected per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Accepted for compatibility; measurement is unaffected.
    pub fn sampling_mode(&mut self, _mode: SamplingMode) -> &mut Self {
        self
    }

    /// Accepted for compatibility; measurement is unaffected.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Benchmarks `f`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<BenchmarkId>, mut f: F) {
        let id = id.into();
        let mut b = Bencher {
            sample_size: self.sample_size,
            samples_ns: Vec::new(),
        };
        f(&mut b);
        report(&self.name, &id.name, &b.samples_ns);
    }

    /// Benchmarks `f` against a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher {
            sample_size: self.sample_size,
            samples_ns: Vec::new(),
        };
        f(&mut b, input);
        report(&self.name, &id.name, &b.samples_ns);
    }

    /// Ends the group. (No cross-benchmark reporting in this shim.)
    pub fn finish(self) {}
}

/// Collects timing samples for one benchmark.
pub struct Bencher {
    sample_size: usize,
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Times `routine`, amortising over enough iterations per sample to
    /// dominate timer overhead.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Calibrate: grow the per-sample iteration count until one
        // sample costs >= ~2ms (or the routine is clearly slow).
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(2) || iters >= 1 << 24 {
                break;
            }
            iters *= 2;
        }
        self.samples_ns.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            self.samples_ns
                .push(start.elapsed().as_secs_f64() * 1e9 / iters as f64);
        }
    }

    /// Times `routine` over fresh inputs from `setup`; only the routine
    /// is measured.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // Calibrate like `iter`, but setup stays outside the timed span.
        let mut iters: u64 = 1;
        loop {
            let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
            let start = Instant::now();
            for input in inputs {
                std::hint::black_box(routine(input));
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(2) || iters >= 1 << 16 {
                break;
            }
            iters *= 2;
        }
        self.samples_ns.clear();
        for _ in 0..self.sample_size {
            let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
            let start = Instant::now();
            for input in inputs {
                std::hint::black_box(routine(input));
            }
            self.samples_ns
                .push(start.elapsed().as_secs_f64() * 1e9 / iters as f64);
        }
    }
}

fn report(group: &str, name: &str, samples_ns: &[f64]) {
    if samples_ns.is_empty() {
        return;
    }
    let mut sorted = samples_ns.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let min = sorted[0];
    let median = sorted[sorted.len() / 2];
    let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
    let full = if group.is_empty() {
        name.to_owned()
    } else {
        format!("{group}/{name}")
    };
    println!(
        "{full:<48} time: [min {} | median {} | mean {}]",
        fmt_ns(min),
        fmt_ns(median),
        fmt_ns(mean)
    );
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Declares a benchmark group function, upstream-style.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench `main`, running each group. Harness CLI arguments
/// (`--bench`, filters) are accepted and ignored.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_samples() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.sample_size(3);
        let mut ran = false;
        g.bench_function("noop", |b| {
            b.iter(|| std::hint::black_box(1 + 1));
            ran = true;
        });
        g.finish();
        assert!(ran);
    }

    #[test]
    fn iter_batched_runs_setup_per_input() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.sample_size(2);
        g.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 8], |v| v.len(), BatchSize::SmallInput);
        });
        g.finish();
    }
}
