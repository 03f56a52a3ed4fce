//! Hermetic stand-in for the `criterion` API surface this workspace uses.
//!
//! The build environment has no network access, so the real `criterion`
//! crate cannot be fetched. This shim implements the subset the bench
//! harnesses rely on: [`Criterion::bench_function`],
//! [`Criterion::benchmark_group`] (with `sample_size`/`throughput`),
//! [`Bencher::iter`], [`Throughput`], and the
//! [`criterion_group!`]/[`criterion_main!`] macros.
//!
//! Like upstream, benchmarks run in *test mode* (each body executed once,
//! no timing) unless the binary is invoked with `--bench`, which is what
//! `cargo bench` passes and `cargo test` does not. In bench mode timing is
//! a simple warmup + fixed-sample mean — adequate for relative comparisons,
//! without upstream's statistical machinery.

#![forbid(unsafe_code)]

use std::time::Instant;

pub use core::hint::black_box;

/// Work-per-iteration annotation, echoed in bench-mode reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
    /// Bytes decimal (accepted for API parity; reported as bytes).
    BytesDecimal(u64),
}

/// Top-level benchmark driver handed to every registered bench function.
pub struct Criterion {
    bench_mode: bool,
    sample_size: usize,
}

impl Criterion {
    /// Builds a driver, detecting test vs. bench mode from CLI arguments.
    pub fn from_args() -> Criterion {
        let bench_mode = std::env::args().any(|a| a == "--bench");
        Criterion {
            bench_mode,
            sample_size: 100,
        }
    }

    /// Runs a single named benchmark.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        run_one(name, self.bench_mode, self.sample_size, None, f);
        self
    }

    /// Opens a named group; drop or [`BenchmarkGroup::finish`] closes it.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size: None,
            throughput: None,
        }
    }
}

/// A named set of related benchmarks sharing sample-size and throughput
/// settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of timed samples for benches in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Annotates benches in this group with work-per-iteration.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs a named benchmark within this group.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let qualified = format!("{}/{}", self.name, name);
        let samples = self.sample_size.unwrap_or(self.criterion.sample_size);
        run_one(
            &qualified,
            self.criterion.bench_mode,
            samples,
            self.throughput,
            f,
        );
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// Per-benchmark timing handle passed to the bench closure.
pub struct Bencher {
    bench_mode: bool,
    samples: usize,
    /// Mean nanoseconds per iteration, filled in bench mode.
    mean_ns: f64,
}

impl Bencher {
    /// Times `f`, or runs it exactly once in test mode.
    pub fn iter<O, F>(&mut self, mut f: F)
    where
        F: FnMut() -> O,
    {
        if !self.bench_mode {
            black_box(f());
            return;
        }
        // Warmup, then size the inner loop so one sample is measurable.
        let warm_start = Instant::now();
        black_box(f());
        let once = warm_start.elapsed().as_nanos().max(1);
        let inner = (100_000 / once).clamp(1, 10_000) as usize;
        let mut total_ns: u128 = 0;
        let mut iters: u64 = 0;
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..inner {
                black_box(f());
            }
            total_ns += start.elapsed().as_nanos();
            iters += inner as u64;
        }
        self.mean_ns = total_ns as f64 / iters as f64;
    }
}

fn run_one<F>(
    name: &str,
    bench_mode: bool,
    samples: usize,
    throughput: Option<Throughput>,
    mut f: F,
) where
    F: FnMut(&mut Bencher),
{
    let mut b = Bencher {
        bench_mode,
        samples,
        mean_ns: 0.0,
    };
    f(&mut b);
    if !bench_mode {
        println!("test {name} ... ok (bench body executed once)");
        return;
    }
    let per_iter = b.mean_ns;
    let rate = throughput.map(|t| match t {
        Throughput::Bytes(n) | Throughput::BytesDecimal(n) => {
            format!(
                ", {:.1} MiB/s",
                n as f64 / per_iter.max(1.0) * 1e9 / (1 << 20) as f64
            )
        }
        Throughput::Elements(n) => {
            format!(", {:.0} elem/s", n as f64 / per_iter.max(1.0) * 1e9)
        }
    });
    println!(
        "bench {name}: {:.0} ns/iter{}",
        per_iter,
        rate.unwrap_or_default()
    );
}

/// Defines a bench group function that runs each listed bench with a fresh
/// [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($bench:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::from_args();
            $($bench(&mut criterion);)+
        }
    };
}

/// Defines `main` running every listed group.
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
    fn test_mode_runs_body_once() {
        let mut c = Criterion {
            bench_mode: false,
            sample_size: 10,
        };
        let mut runs = 0;
        c.bench_function("once", |b| b.iter(|| runs += 1));
        assert_eq!(runs, 1);
    }

    #[test]
    fn groups_apply_sample_size_and_throughput() {
        let mut c = Criterion {
            bench_mode: true,
            sample_size: 3,
        };
        let mut g = c.benchmark_group("g");
        g.sample_size(2).throughput(Throughput::Elements(30));
        let mut runs = 0u64;
        g.bench_function("counted", |b| b.iter(|| runs += 1));
        g.finish();
        assert!(
            runs > 2,
            "bench mode should iterate more than once, got {runs}"
        );
    }
}
