//! A small wall-clock benchmark harness (std only).
//!
//! The seed used Criterion, but external dev-dependencies break offline
//! resolution for the whole workspace, so the `benches/` binaries run on
//! this harness instead. It keeps Criterion's shape — groups, ids,
//! per-group sample sizes — and reports min/median/mean per benchmark.
//!
//! Methodology: each sample calls the closure enough times to fill
//! [`TARGET_SAMPLE_NS`] (calibrated once), so sub-microsecond benches
//! aren't dominated by clock granularity; the median of samples is the
//! headline number. This is deliberately simpler than Criterion — no
//! outlier rejection or bootstrapping — which is fine for the repo's
//! purpose: tracking complexity *trends* and catching order-of-magnitude
//! regressions.
//!
//! Binaries accept an optional substring filter argument (as Criterion
//! did): `cargo bench --bench refinement -- E5` runs only benchmarks
//! whose `group/id` contains `E5`.

use std::hint::black_box;
use std::time::Instant;

/// Target duration of one sample, in nanoseconds.
pub const TARGET_SAMPLE_NS: u64 = 20_000_000;

/// One benchmark's aggregated measurements, in nanoseconds per call.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// `group/id`.
    pub name: String,
    /// Fastest sample.
    pub min_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// Mean over samples.
    pub mean_ns: f64,
    /// Number of samples taken.
    pub samples: usize,
    /// Closure calls per sample.
    pub iters_per_sample: u64,
}

/// Top-level driver: owns the filter and collected measurements.
pub struct Harness {
    filter: Option<String>,
    results: Vec<Measurement>,
}

impl Harness {
    /// Builds a harness from the process arguments, skipping the flags
    /// cargo passes to custom bench binaries (`--bench`, `--test`); the
    /// first free argument becomes a substring filter.
    pub fn from_args() -> Harness {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Harness {
            filter,
            results: Vec::new(),
        }
    }

    /// A harness that runs everything (for tests).
    pub fn unfiltered() -> Harness {
        Harness {
            filter: None,
            results: Vec::new(),
        }
    }

    /// Opens a benchmark group.
    pub fn group(&mut self, name: impl Into<String>) -> Group<'_> {
        Group {
            harness: self,
            name: name.into(),
            samples: 20,
        }
    }

    /// All measurements taken so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// Prints the summary table. Call at the end of `main`.
    pub fn finish(self) {
        if self.results.is_empty() {
            println!("no benchmarks matched the filter");
            return;
        }
        let width = self.results.iter().map(|m| m.name.len()).max().unwrap_or(0);
        println!(
            "{:width$}  {:>12} {:>12} {:>12}",
            "benchmark", "min", "median", "mean"
        );
        for m in &self.results {
            println!(
                "{:width$}  {:>12} {:>12} {:>12}",
                m.name,
                fmt_ns(m.min_ns),
                fmt_ns(m.median_ns),
                fmt_ns(m.mean_ns),
            );
        }
    }
}

/// A named group of benchmarks sharing a sample size.
pub struct Group<'a> {
    harness: &'a mut Harness,
    name: String,
    samples: usize,
}

impl Group<'_> {
    /// Sets the number of samples per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(2);
        self
    }

    /// Measures `f`, reporting under `group/id`. The closure's result is
    /// passed through [`black_box`] so the work cannot be optimized out.
    pub fn bench<R>(&mut self, id: impl std::fmt::Display, mut f: impl FnMut() -> R) {
        let name = format!("{}/{}", self.name, id);
        if let Some(filter) = &self.harness.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        // Calibrate: how many calls fill one sample?
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed().as_nanos().max(1) as u64;
        let iters = (TARGET_SAMPLE_NS / once).clamp(1, 1_000_000);
        // Warm-up sample (not recorded).
        for _ in 0..iters {
            black_box(f());
        }
        let mut per_call: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_call.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        per_call.sort_by(|a, b| a.total_cmp(b));
        let m = Measurement {
            min_ns: per_call[0],
            median_ns: median(per_call.clone()),
            mean_ns: per_call.iter().sum::<f64>() / per_call.len() as f64,
            samples: per_call.len(),
            iters_per_sample: iters,
            name,
        };
        println!(
            "{:<48} median {:>10}  (min {}, {} samples x {} iters)",
            m.name,
            fmt_ns(m.median_ns),
            fmt_ns(m.min_ns),
            m.samples,
            m.iters_per_sample,
        );
        self.harness.results.push(m);
    }
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    if v.len() % 2 == 1 {
        v[v.len() / 2]
    } else {
        (v[v.len() / 2 - 1] + v[v.len() / 2]) / 2.0
    }
}

/// Median wall time of `samples` (at least 2) calls of `f`, in ns,
/// after one unrecorded warm-up call. The bench areas use this for
/// whole-workload timings where [`Group::bench`]'s calibrated batching
/// would be wasted.
pub fn median_ns(samples: usize, mut f: impl FnMut()) -> f64 {
    f();
    let runs: Vec<f64> = (0..samples.max(2))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(runs)
}

/// Renders nanoseconds human-readably (`412ns`, `3.1µs`, `2.4ms`, `1.2s`).
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1}µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.1}ms", ns / 1_000_000.0)
    } else {
        format!("{:.2}s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_records() {
        let mut h = Harness::unfiltered();
        let mut g = h.group("t");
        g.sample_size(3);
        g.bench("noop", || 1 + 1);
        assert_eq!(h.results().len(), 1);
        let m = &h.results()[0];
        assert_eq!(m.name, "t/noop");
        assert!(m.min_ns >= 0.0 && m.median_ns >= m.min_ns);
        assert_eq!(m.samples, 3);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut h = Harness {
            filter: Some("match-me".to_string()),
            results: Vec::new(),
        };
        let mut g = h.group("t");
        g.bench("other", || 0);
        g.bench("match-me", || 0);
        assert_eq!(h.results().len(), 1);
        assert_eq!(h.results()[0].name, "t/match-me");
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(412.0), "412ns");
        assert_eq!(fmt_ns(3_100.0), "3.1µs");
        assert_eq!(fmt_ns(2_400_000.0), "2.4ms");
        assert_eq!(fmt_ns(1_200_000_000.0), "1.20s");
    }
}
