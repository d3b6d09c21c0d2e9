//! CPU kernels before/after ID-interning and the `BENCH_cpu.json`
//! emitter.
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
//! Both kernels are sequential (DESIGN §8), so the committed headline
//! is the **sequential speedup row** — pre ÷ post per kernel.
//!
//! `cargo run -p iixml-bench --bin report -- --bench-cpu` runs these and
//! writes the JSON to the repo root; `--quick` shrinks workloads and
//! sample counts for CI smoke runs; `--diff-cpu OLD NEW` gates the
//! committed trajectory with the same floor-clamped rule as the store
//! and serve benches.

use crate::parbench::median_ns;
use crate::refine_blowup_tree;
use iixml_obs::json::Json;

/// One kernel: pre/post medians (ns) on one thread.
pub struct KernelResult {
    /// Stable kernel key (also the JSON key).
    pub name: &'static str,
    /// Human description of the workload and its size.
    pub workload: String,
    /// Median ns of the preserved pre-interning path.
    pub pre_ns: f64,
    /// Median ns of the shipping interned path.
    pub post_ns: f64,
}

impl KernelResult {
    /// The sequential headline: pre ÷ post — how much faster the
    /// interned kernel runs than the pre-interning code.
    pub fn seq_speedup(&self) -> f64 {
        self.pre_ns / self.post_ns.max(1.0)
    }
}

/// The full CPU-kernel report.
pub struct CpuReport {
    /// Whether this was a `--quick` (CI smoke) run.
    pub quick: bool,
    /// `std::thread::available_parallelism` on the measuring host.
    pub threads_available: usize,
    /// The two kernels.
    pub kernels: Vec<KernelResult>,
}

/// Runs both kernels in both variants; `quick` shrinks the workload and
/// sample counts for CI smoke runs.
pub fn run(quick: bool) -> CpuReport {
    let threads_available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let chain_n = if quick { 5 } else { 7 };
    let samples = if quick { 3 } else { 7 };

    let base = refine_blowup_tree(chain_n);
    let product = iixml_core::refine::intersect(&base, &base).expect("self-product is compatible");

    let intersect = KernelResult {
        name: "intersect_product",
        workload: format!(
            "⋊⋉ self-product of the Example 3.2 chain, n = {chain_n} ({} × {} symbols)",
            base.ty().sym_count(),
            base.ty().sym_count()
        ),
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
        name: "minimize_product",
        workload: format!(
            "bisimulation partition of the chain's self-product ({} symbols)",
            product.ty().sym_count()
        ),
        pre_ns: median_ns(samples, || {
            let m = product.minimize_reference();
            assert!(m.ty().sym_count() <= product.ty().sym_count());
        }),
        post_ns: median_ns(samples, || {
            let m = product.minimize();
            assert!(m.ty().sym_count() <= product.ty().sym_count());
        }),
    };

    CpuReport {
        quick,
        threads_available,
        kernels: vec![intersect, minimize],
    }
}

impl CpuReport {
    fn kernel(&self, name: &str) -> Option<&KernelResult> {
        self.kernels.iter().find(|k| k.name == name)
    }

    /// The intersect kernel's sequential speedup (trajectory headline).
    pub fn intersect_seq_speedup(&self) -> f64 {
        self.kernel("intersect_product")
            .map(KernelResult::seq_speedup)
            .unwrap_or(0.0)
    }

    /// The minimize kernel's sequential speedup (trajectory headline).
    pub fn minimize_seq_speedup(&self) -> f64 {
        self.kernel("minimize_product")
            .map(KernelResult::seq_speedup)
            .unwrap_or(0.0)
    }

    /// The machine-readable form committed as `BENCH_cpu.json`.
    pub fn to_json(&self) -> Json {
        let kernels: Vec<Json> = self
            .kernels
            .iter()
            .map(|k| {
                Json::obj()
                    .set("name", k.name)
                    .set("workload", k.workload.clone())
                    .set("pre_median_ns", k.pre_ns)
                    .set("post_median_ns", k.post_ns)
                    .set("seq_speedup", k.seq_speedup())
            })
            .collect();
        Json::obj()
            .set("pr", 8u64)
            .set("quick", self.quick)
            .set("threads_available", self.threads_available)
            .set("kernels", kernels)
            .set("intersect_seq_speedup", self.intersect_seq_speedup())
            .set("minimize_seq_speedup", self.minimize_seq_speedup())
    }

    /// Prints the human-readable table.
    pub fn print_table(&self) {
        println!(
            "cpu kernels, one thread ({} samples median; host has {} hardware thread(s))",
            if self.quick { "quick" } else { "full" },
            self.threads_available
        );
        for k in &self.kernels {
            println!("\n{} — {}", k.name, k.workload);
            println!(
                "  pre {:>10}  post {:>10}  sequential speedup (pre / post) {:.2}x",
                crate::harness::fmt_ns(k.pre_ns),
                crate::harness::fmt_ns(k.post_ns),
                k.seq_speedup()
            );
        }
    }

    /// Writes `BENCH_cpu.json` at the repo root; returns the path.
    pub fn write_json(&self) -> std::io::Result<std::path::PathBuf> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()?
            .join("BENCH_cpu.json");
        std::fs::write(&path, self.to_json().render_pretty() + "\n")?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_and_shipping_kernels_agree() {
        let base = refine_blowup_tree(3);
        let fast = iixml_core::refine::intersect(&base, &base).unwrap();
        let slow = iixml_core::refine::intersect_reference(&base, &base).unwrap();
        assert_eq!(format!("{:?}", fast.ty()), format!("{:?}", slow.ty()));
        assert_eq!(
            format!("{:?}", fast.minimize().ty()),
            format!("{:?}", slow.minimize_reference().ty())
        );
    }

    #[test]
    fn quick_report_has_both_kernels() {
        let r = run(true);
        assert_eq!(r.kernels.len(), 2);
        for k in &r.kernels {
            assert!(k.pre_ns > 0.0 && k.post_ns > 0.0);
            assert!(k.seq_speedup() > 0.0);
        }
        let text = r.to_json().render_pretty();
        assert!(text.contains("intersect_seq_speedup"));
        assert!(text.contains("minimize_seq_speedup"));
    }
}
