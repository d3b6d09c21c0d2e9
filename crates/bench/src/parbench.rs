//! Thread-scaling workloads and the `BENCH_pr3.json` emitter.
//!
//! The wait-bound parallel path is measured at 1/2/4/8 worker threads
//! (`iixml_par::set_threads`), plus the signature-interning micro-bench:
//!
//! * `webhouse_fanout16` — one query fanned out over 16
//!   latency-simulating sources (wait-bound: sleeping sources overlap
//!   regardless of CPU count, so the speedup survives a single-core
//!   host);
//! * `sig_interning` — the old `format!`-keyed initial partition vs the
//!   interned `(SymTarget, IntervalSet)` keying that replaced it.
//!
//! The CPU-bound Refine kernels are sequential (DESIGN §8); their
//! single-thread numbers live in `cpubench`.
//!
//! Both `cargo bench --bench par` and
//! `cargo run -p iixml-bench --bin report -- --bench-pr3` run these
//! through the same code and write the same JSON to the repo root, so
//! the recorded trajectory never depends on which entry point produced
//! it. `--quick` shrinks workloads and sample counts for CI smoke runs.

use crate::refine_blowup_tree;
use iixml_core::{IncompleteTree, SymTarget};
use iixml_obs::json::Json;
use iixml_query::PsQuery;
use iixml_values::IntervalSet;
use iixml_webhouse::{LatentSource, Source, Webhouse};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Worker widths every scaling group is measured at.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

/// One scaling group: medians (ns) per worker width.
pub struct GroupResult {
    /// Stable group key (also the JSON key).
    pub name: &'static str,
    /// Human description of the workload and its size.
    pub workload: String,
    /// `(threads, median_ns)` in [`THREADS`] order.
    pub by_threads: Vec<(usize, f64)>,
}

impl GroupResult {
    /// Speedup of `threads` relative to the width-1 median.
    pub fn speedup(&self, threads: usize) -> f64 {
        let base = self.by_threads[0].1;
        let at = self
            .by_threads
            .iter()
            .find(|&&(t, _)| t == threads)
            .map(|&(_, ns)| ns)
            .unwrap_or(base);
        base / at
    }
}

/// The full PR 3 scaling report.
pub struct ParReport {
    /// Whether this was a `--quick` (CI smoke) run.
    pub quick: bool,
    /// `std::thread::available_parallelism` on the measuring host —
    /// readers of the JSON need this to interpret CPU-bound curves.
    pub threads_available: usize,
    /// The scaling groups.
    pub groups: Vec<GroupResult>,
    /// Old string-keyed initial partition, median ns.
    pub sig_string_ns: f64,
    /// Interned-key initial partition, median ns.
    pub sig_interned_ns: f64,
}

pub(crate) fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    if v.len() % 2 == 1 {
        v[v.len() / 2]
    } else {
        (v[v.len() / 2 - 1] + v[v.len() / 2]) / 2.0
    }
}

pub(crate) fn median_ns(samples: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up, not recorded
    let runs: Vec<f64> = (0..samples.max(2))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(runs)
}

fn scaling_group(
    name: &'static str,
    workload: String,
    samples: usize,
    mut f: impl FnMut(),
) -> GroupResult {
    let by_threads = THREADS
        .iter()
        .map(|&t| {
            iixml_par::set_threads(Some(t));
            let ns = median_ns(samples, &mut f);
            (t, ns)
        })
        .collect();
    iixml_par::set_threads(None);
    GroupResult {
        name,
        workload,
        by_threads,
    }
}

/// The fan-out fixture: one catalog document behind `sources`
/// latency-wrapped sources, plus the query to fan out.
pub fn fanout_fixture(
    sources: usize,
    latency: Duration,
) -> (Webhouse<LatentSource<Source>>, PsQuery) {
    let mut cat = iixml_gen::catalog(6, 17);
    let q = iixml_gen::catalog_query_price_below(&mut cat.alpha, 250);
    let mut wh = Webhouse::new();
    for i in 0..sources {
        wh.register(
            format!("src{i:02}"),
            cat.alpha.clone(),
            LatentSource::new(Source::new(cat.doc.clone(), Some(cat.ty.clone())), latency),
        );
    }
    (wh, q)
}

/// Runs one fan-out over freshly registered sessions (fresh sessions
/// every time, so each source is actually contacted — a warm session
/// answers locally and never pays the latency).
pub fn fanout_once(sources: usize, latency: Duration) {
    let (mut wh, q) = fanout_fixture(sources, latency);
    let outcomes = wh.fan_out(&q);
    assert_eq!(outcomes.len(), sources);
    assert!(outcomes.iter().all(|(_, a)| a.is_complete()));
}

/// Replicates the pre-PR initial-partition keying: two `format!`
/// allocations per symbol. Kept here (not in `iixml-core`) purely as
/// the micro-bench baseline for the interned keying.
pub fn partition_init_string_keys(it: &IncompleteTree) -> usize {
    let ty = it.ty();
    let mut key_to_block: HashMap<String, usize> = HashMap::new();
    let mut blocks = 0usize;
    for s in ty.syms() {
        let info = ty.info(s);
        let target = match info.target {
            SymTarget::Lab(l) => format!("L{}", l.0),
            SymTarget::Node(nd) => format!("N{}", nd.0),
        };
        let key = format!("{target}|{}", info.cond);
        let next = key_to_block.len();
        let b = *key_to_block.entry(key).or_insert(next);
        blocks = blocks.max(b + 1);
    }
    blocks
}

/// The interned keying `Minimizer::partition` now uses: the structured
/// `(SymTarget, IntervalSet)` pair hashed directly, zero allocations.
pub fn partition_init_interned_keys(it: &IncompleteTree) -> usize {
    let ty = it.ty();
    let mut key_to_block: HashMap<(SymTarget, &IntervalSet), usize> = HashMap::new();
    let mut blocks = 0usize;
    for s in ty.syms() {
        let info = ty.info(s);
        let next = key_to_block.len();
        let b = *key_to_block
            .entry((info.target, &info.cond))
            .or_insert(next);
        blocks = blocks.max(b + 1);
    }
    blocks
}

/// Runs every group and the micro-bench; `quick` shrinks workloads and
/// sample counts for CI smoke runs.
pub fn run(quick: bool) -> ParReport {
    let threads_available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let chain_n = if quick { 5 } else { 7 };
    let samples = if quick { 3 } else { 7 };
    let latency = Duration::from_millis(if quick { 2 } else { 4 });
    let fan_sources = 16;

    let groups = vec![scaling_group(
        "webhouse_fanout16",
        format!(
            "one query fanned out over {fan_sources} sources with {:?} simulated latency each",
            latency
        ),
        samples,
        || fanout_once(fan_sources, latency),
    )];

    // Micro-bench: string vs interned initial-partition keys on the
    // Example 3.2 chain's self-product (many symbols). Sequential by
    // construction.
    let base = refine_blowup_tree(chain_n);
    let product = iixml_core::refine::intersect(&base, &base).expect("self-product is compatible");
    let micro_samples = samples * 3;
    let sig_string_ns = median_ns(micro_samples, || {
        assert!(partition_init_string_keys(&product) > 0);
    });
    let sig_interned_ns = median_ns(micro_samples, || {
        assert!(partition_init_interned_keys(&product) > 0);
    });

    ParReport {
        quick,
        threads_available,
        groups,
        sig_string_ns,
        sig_interned_ns,
    }
}

impl ParReport {
    /// The machine-readable form committed as `BENCH_pr3.json`.
    pub fn to_json(&self) -> Json {
        let groups: Vec<Json> = self
            .groups
            .iter()
            .map(|g| {
                let results: Vec<Json> = g
                    .by_threads
                    .iter()
                    .map(|&(t, ns)| {
                        Json::obj()
                            .set("threads", t)
                            .set("median_ns", ns)
                            .set("speedup_vs_1", g.speedup(t))
                    })
                    .collect();
                Json::obj()
                    .set("name", g.name)
                    .set("workload", g.workload.clone())
                    .set("results", results)
            })
            .collect();
        Json::obj()
            .set("pr", 3u64)
            .set("quick", self.quick)
            .set("threads_available", self.threads_available)
            .set("groups", groups)
            .set(
                "sig_interning",
                Json::obj()
                    .set("string_keys_ns", self.sig_string_ns)
                    .set("interned_keys_ns", self.sig_interned_ns)
                    .set(
                        "speedup",
                        self.sig_string_ns / self.sig_interned_ns.max(1.0),
                    ),
            )
    }

    /// Prints the human-readable table.
    pub fn print_table(&self) {
        println!(
            "par scaling ({} samples median; host has {} hardware thread(s))",
            if self.quick { "quick" } else { "full" },
            self.threads_available
        );
        for g in &self.groups {
            println!("\n{} — {}", g.name, g.workload);
            for &(t, ns) in &g.by_threads {
                println!(
                    "  t={t}  median {:>10}  speedup {:.2}x",
                    crate::harness::fmt_ns(ns),
                    g.speedup(t)
                );
            }
        }
        println!(
            "\nsig_interning — string {} vs interned {} ({:.2}x)",
            crate::harness::fmt_ns(self.sig_string_ns),
            crate::harness::fmt_ns(self.sig_interned_ns),
            self.sig_string_ns / self.sig_interned_ns.max(1.0),
        );
    }

    /// Writes `BENCH_pr3.json` at the repo root; returns the path.
    pub fn write_json(&self) -> std::io::Result<std::path::PathBuf> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()?
            .join("BENCH_pr3.json");
        std::fs::write(&path, self.to_json().render_pretty() + "\n")?;
        Ok(path)
    }

    /// The fan-out group's speedup at `threads` (the CI gate reads
    /// this).
    pub fn fanout_speedup(&self, threads: usize) -> f64 {
        self.groups
            .iter()
            .find(|g| g.name == "webhouse_fanout16")
            .map(|g| g.speedup(threads))
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_keyings_count_the_same_blocks() {
        let t = refine_blowup_tree(3);
        let product = iixml_core::refine::intersect(&t, &t).unwrap();
        assert_eq!(
            partition_init_string_keys(&product),
            partition_init_interned_keys(&product)
        );
    }

    #[test]
    fn fanout_fixture_completes_on_all_sources() {
        fanout_once(3, Duration::ZERO);
    }
}
