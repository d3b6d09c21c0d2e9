//! The `cpu` bench area: CPU kernels before/after ID-interning.
//!
//! Two CPU-bound kernels are measured on one thread, each in two
//! variants:
//!
//! * **pre** — the preserved structural paths
//!   (`refine::intersect_reference`, `IncompleteTree::minimize_reference`):
//!   hash-probed pair tables, nested-`Vec` signatures, fresh join
//!   buffers per emitted combination. These are the verbatim
//!   pre-interning code paths, so the pre row *is* the old baseline
//!   re-measured on the current host.
//! * **post** — the shipping kernels: dense/interned ID tables and one
//!   reused scratch arena per call.
//!
//! Both kernels are sequential (DESIGN §8), so the gated rows are the
//! **sequential speedups** — pre ÷ post per kernel, `>= 1.3` each. An
//! informational micro-bench rides along: `sig_interning`, the old
//! `format!`-keyed initial partition vs the interned
//! `(SymTarget, IntervalSet)` keying that replaced it.
//!
//! `cargo run -p iixml-bench --bin report -- --bench cpu` runs these and
//! writes `BENCH_cpu.json`; `--quick` shrinks workloads and sample
//! counts for CI smoke runs.

use crate::harness::median_ns;
use crate::refine_blowup_tree;
use crate::row::Row;
use iixml_core::{IncompleteTree, SymTarget};
use iixml_values::IntervalSet;
use std::collections::HashMap;

/// The gated metrics of this area.
pub const GATES: &[&str] = &["intersect_seq_speedup", "minimize_seq_speedup"];

/// One kernel: pre/post medians (ns) on one thread.
pub struct KernelResult {
    /// Stable kernel key (the row-name prefix).
    pub name: &'static str,
    /// Median ns of the preserved pre-interning path.
    pub pre_ns: f64,
    /// Median ns of the shipping interned path.
    pub post_ns: f64,
}

/// The full CPU-kernel report.
pub struct CpuReport {
    /// The two kernels, then `sig_interning` (string keys as pre,
    /// interned keys as post).
    pub kernels: Vec<KernelResult>,
}

/// Replicates the pre-interning initial-partition keying: two
/// `format!` allocations per symbol. Kept here (not in `iixml-core`)
/// purely as the micro-bench baseline for the interned keying.
fn partition_init_string_keys(it: &IncompleteTree) -> usize {
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
fn partition_init_interned_keys(it: &IncompleteTree) -> usize {
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

/// Runs both kernels in both variants, then the keying micro-bench, on
/// the self-product of the Example 3.2 chain; `quick` shrinks the chain
/// and sample counts for CI smoke runs.
pub fn run(quick: bool) -> CpuReport {
    iixml_obs::set_enabled(true);
    let chain_n = if quick { 5 } else { 7 };
    let samples = if quick { 3 } else { 7 };

    let base = refine_blowup_tree(chain_n);
    let product = iixml_core::refine::intersect(&base, &base).expect("self-product is compatible");

    let intersect = KernelResult {
        name: "intersect",
        pre_ns: median_ns(samples, || {
            let p = iixml_core::refine::intersect_reference(&base, &base)
                .expect("self-product is compatible");
            assert!(p.ty().sym_count() > 0);
        }),
        post_ns: median_ns(samples, || {
            let p =
                iixml_core::refine::intersect(&base, &base).expect("self-product is compatible");
            assert!(p.ty().sym_count() > 0);
        }),
    };
    let minimize = KernelResult {
        name: "minimize",
        pre_ns: median_ns(samples, || {
            let m = product.minimize_reference();
            assert!(m.ty().sym_count() <= product.ty().sym_count());
        }),
        post_ns: median_ns(samples, || {
            let m = product.minimize();
            assert!(m.ty().sym_count() <= product.ty().sym_count());
        }),
    };
    let sig_interning = KernelResult {
        name: "sig_interning",
        pre_ns: median_ns(samples * 3, || {
            assert!(partition_init_string_keys(&product) > 0);
        }),
        post_ns: median_ns(samples * 3, || {
            assert!(partition_init_interned_keys(&product) > 0);
        }),
    };

    CpuReport {
        kernels: vec![intersect, minimize, sig_interning],
    }
}

impl CpuReport {
    /// Per kernel: pre and post medians (ms), then the sequential
    /// speedup, gated at 1.3x for the two Refine kernels.
    pub fn rows(&self) -> Vec<Row> {
        let mut rows = Vec::new();
        for k in &self.kernels {
            let metric = |what: &str| format!("{}_{what}", k.name);
            rows.push(Row::lower("cpu", &metric("pre_ms"), "ms", k.pre_ns / 1e6));
            rows.push(Row::lower("cpu", &metric("post_ms"), "ms", k.post_ns / 1e6));
            let speedup = Row::higher("cpu", &metric("seq_speedup"), "x", k.pre_ns / k.post_ns);
            rows.push(if GATES.contains(&speedup.metric.as_str()) {
                speedup.bound(1.3)
            } else {
                speedup
            });
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shipping `intersect` returns the reference's full product
    /// restricted to its root-reachable symbols, exactly; minimize then
    /// agrees with the reference minimize of that same tree.
    #[test]
    fn reference_and_shipping_kernels_agree() {
        let base = refine_blowup_tree(3);
        let fast = iixml_core::refine::intersect(&base, &base).unwrap();
        let slow = iixml_oracle::root_reachable(
            &iixml_core::refine::intersect_reference(&base, &base).unwrap(),
        );
        assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
        assert_eq!(
            format!("{:?}", fast.minimize()),
            format!("{:?}", slow.minimize_reference())
        );
    }

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
    fn quick_run_carries_every_gate() {
        let rows = run(true).rows();
        assert_eq!(rows.len(), 9);
        assert!(rows.iter().all(|r| r.value > 0.0));
        assert_eq!(crate::row::gated(&rows), GATES);
    }
}
