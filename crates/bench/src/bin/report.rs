//! Regenerates the paper-vs-measured tables of EXPERIMENTS.md.
//!
//! Run with `cargo run -p iixml-bench --bin report` (add `--release` for
//! the larger rows). Prints Markdown tables; timings are coarse
//! (`std::time::Instant` medians of a few runs) — the harness benches
//! in `benches/` are the precise instrument.
//!
//! Flags: `--json` prints the machine-readable core tables; `--obs`
//! additionally enables the observability layer and appends its metric
//! snapshot (counters and histograms accumulated while the report ran);
//! `--bench-pr3` runs the thread-scaling workloads of
//! [`iixml_bench::parbench`] and writes `BENCH_pr3.json` at the repo
//! root; `--bench-pr4` runs the durability workloads of
//! [`iixml_bench::storebench`] and writes `BENCH_pr4.json`;
//! `--bench-store2` runs the group-commit/compaction/recovery
//! workloads of [`iixml_bench::store2bench`], writes
//! `BENCH_store2.json`, and gates on the in-run invariants (add
//! `--quick` to any of these for the CI smoke configuration);
//! `--diff-store2 OLD NEW` compares two `BENCH_store2.json` files and
//! fails on a >20% regression of appends/sec or the recovery ratios —
//! the CI `bench-trajectory` gate; `--bench-serve` runs the
//! server/chaos/restart workloads of [`iixml_bench::servebench`],
//! writes `BENCH_serve.json`, and gates on liveness, honest-load
//! cleanliness, and full restart recovery; `--diff-serve OLD NEW`
//! compares two `BENCH_serve.json` files with the same floor-clamped
//! trajectory rule (p99 is lower-is-better and gated from the other
//! side); `--bench-cpu` runs the pre/post-interning CPU kernels of
//! [`iixml_bench::cpubench`], writes `BENCH_cpu.json`, and gates on the
//! sequential speedup row;
//! `--diff-cpu OLD NEW` compares two `BENCH_cpu.json` files under the
//! floor-clamped rule; `--trajectory` prints one summary table over
//! every committed `BENCH_*.json`.

use iixml_bench::{
    auxiliary_chain_size, conjunctive_blowup_sizes, linear_chain_sizes, refine_blowup_sizes,
    refined_catalog,
};
use iixml_extensions::order::{merge_answers, MergeResult};
use iixml_extensions::regex::Regex;
use iixml_extensions::sat::{encode, Cnf};
use iixml_gen::{catalog, catalog_query_camera_pictures, catalog_query_price_below};
use iixml_mediator::Mediator;
use iixml_obs::json::Json;
use iixml_tree::Label;
use iixml_values::Rat;
use iixml_webhouse::{Session, Source};
use std::time::Instant;

/// Pulls the first `"key": <number>` out of a rendered JSON document.
///
/// The obs `Json` type is emit-only by design (no parser in-tree), and
/// the bench files use unique key names, so a line-level scan is exact
/// for this format.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)?;
    let rest = text[at + needle.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `--diff-store2 OLD NEW`: the trajectory gate. Higher is better for
/// every compared metric; a drop of more than 20% fails.
///
/// Each metric's effective baseline is the committed value clamped at
/// the acceptance floor that PR 6 blessed (10x the PR 4 appends/sec,
/// a 10x group-commit speedup, a 0.5 recovery par ratio). The fsync
/// is the dominant noise source run to run, so gating 20% under a
/// lucky committed run would fail healthy code; gating 20% under the
/// blessed floor catches exactly the drift that would sink the
/// claims this bench exists to hold.
fn diff_store2(old_path: &str, new_path: &str) {
    let read = |p: &str| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("FAIL: cannot read {p}: {e}");
            std::process::exit(1);
        })
    };
    let old = read(old_path);
    let new = read(new_path);
    let pr4_appends = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pr4.json"),
    )
    .ok()
    .and_then(|s| json_number(&s, "appends_per_sec"))
    .unwrap_or(6722.0);
    // (metric, floor): 0.8 × min(committed, floor / 0.8) is the pass
    // line, i.e. the floor itself when the committed run is lucky.
    let metrics = [
        ("batched_appends_per_sec", 10.0 * pr4_appends / 0.8),
        ("batch_speedup", 12.5),
        ("recovery_par_ratio", 0.625),
    ];
    let mut failed = false;
    println!("| metric | committed | this run | pass line | verdict |");
    println!("|---|---|---|---|---|");
    for (key, cap) in metrics {
        let (Some(o), Some(n)) = (json_number(&old, key), json_number(&new, key)) else {
            eprintln!("FAIL: metric {key} missing from one of the files");
            failed = true;
            continue;
        };
        let pass_line = 0.8 * o.min(cap);
        let verdict = if n < pass_line {
            failed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        println!("| {key} | {o:.2} | {n:.2} | {pass_line:.2} | {verdict} |");
    }
    if failed {
        eprintln!("FAIL: BENCH_store2 trajectory regressed by more than 20%");
        std::process::exit(1);
    }
    println!("\ntrajectory ok: no metric regressed by more than 20% of its blessed baseline");
}

/// `--diff-serve OLD NEW`: the serve trajectory gate, same
/// floor-clamp rule as [`diff_store2`]. Throughput metrics are
/// higher-is-better with pass line `0.8 × min(committed, floor/0.8)`;
/// honest p99 is lower-is-better with pass line
/// `1.25 × max(committed, ceiling/1.25)` — a committed run on a fast
/// machine must not make a healthy CI host fail on latency noise.
fn diff_serve(old_path: &str, new_path: &str) {
    let read = |p: &str| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("FAIL: cannot read {p}: {e}");
            std::process::exit(1);
        })
    };
    let old = read(old_path);
    let new = read(new_path);
    // (metric, floor/0.8): the blessed floors are deliberately loose —
    // an order of magnitude under the committed run — because the gate
    // exists to catch the server falling over, not scheduler jitter.
    let higher_better = [
        ("requests_per_sec", 500.0 / 0.8),
        ("sessions_per_sec", 8.0 / 0.8),
    ];
    // (metric, ceiling/1.25): honest p99 in µs, quiet server.
    let lower_better = [("p99_us", 50_000.0 / 1.25)];
    let mut failed = false;
    println!("| metric | committed | this run | pass line | verdict |");
    println!("|---|---|---|---|---|");
    for (key, cap) in higher_better {
        let (Some(o), Some(n)) = (json_number(&old, key), json_number(&new, key)) else {
            eprintln!("FAIL: metric {key} missing from one of the files");
            failed = true;
            continue;
        };
        let pass_line = 0.8 * o.min(cap);
        let verdict = if n < pass_line {
            failed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        println!("| {key} | {o:.2} | {n:.2} | >= {pass_line:.2} | {verdict} |");
    }
    for (key, cap) in lower_better {
        let (Some(o), Some(n)) = (json_number(&old, key), json_number(&new, key)) else {
            eprintln!("FAIL: metric {key} missing from one of the files");
            failed = true;
            continue;
        };
        let pass_line = 1.25 * o.max(cap);
        let verdict = if n > pass_line {
            failed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        println!("| {key} | {o:.2} | {n:.2} | <= {pass_line:.2} | {verdict} |");
    }
    if failed {
        eprintln!("FAIL: BENCH_serve trajectory regressed past its blessed baseline");
        std::process::exit(1);
    }
    println!("\ntrajectory ok: server throughput and latency within the blessed envelope");
}

/// `--diff-cpu OLD NEW`: the CPU-kernel trajectory gate, same
/// floor-clamp rule as [`diff_store2`]. The compared metrics are the
/// sequential speedup rows (pre-interning ÷ post-interning at one
/// thread) — the headline that holds on any host, single-core CI
/// runners included. The blessed floor is the 1.3x acceptance line, so
/// a lucky committed run cannot ratchet the gate above what the PR
/// actually claimed.
fn diff_cpu(old_path: &str, new_path: &str) {
    let read = |p: &str| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("FAIL: cannot read {p}: {e}");
            std::process::exit(1);
        })
    };
    let old = read(old_path);
    let new = read(new_path);
    // (metric, floor/0.8): pass line 0.8 × min(committed, floor/0.8),
    // i.e. never above the 1.3x the acceptance criteria blessed.
    let metrics = [
        ("intersect_seq_speedup", 1.3 / 0.8),
        ("minimize_seq_speedup", 1.3 / 0.8),
    ];
    let mut failed = false;
    println!("| metric | committed | this run | pass line | verdict |");
    println!("|---|---|---|---|---|");
    for (key, cap) in metrics {
        let (Some(o), Some(n)) = (json_number(&old, key), json_number(&new, key)) else {
            eprintln!("FAIL: metric {key} missing from one of the files");
            failed = true;
            continue;
        };
        let pass_line = 0.8 * o.min(cap);
        let verdict = if n < pass_line {
            failed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        println!("| {key} | {o:.2} | {n:.2} | >= {pass_line:.2} | {verdict} |");
    }
    if failed {
        eprintln!("FAIL: BENCH_cpu trajectory regressed past its blessed baseline");
        std::process::exit(1);
    }
    println!("\ntrajectory ok: both kernels kept their sequential speedup over the PR 3 code");
}

/// `--diff-contain OLD NEW`: the containment-cache trajectory gate.
/// `fetch_reduction` is higher-is-better under the floor-clamp rule
/// (blessed floor = the 0.30 acceptance line); `check_overhead_ratio`
/// is lower-is-better and gated from the other side, ceiling-clamped
/// at the 0.05 acceptance line so a lucky committed run cannot
/// tighten the gate below what the PR claimed; `bytes_identical` must
/// simply stay 1.
fn diff_contain(old_path: &str, new_path: &str) {
    let read = |p: &str| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("FAIL: cannot read {p}: {e}");
            std::process::exit(1);
        })
    };
    let old = read(old_path);
    let new = read(new_path);
    let mut failed = false;
    println!("| metric | committed | this run | pass line | verdict |");
    println!("|---|---|---|---|---|");
    // Higher is better: pass at 0.8 × min(committed, 0.30/0.8).
    {
        let key = "fetch_reduction";
        match (json_number(&old, key), json_number(&new, key)) {
            (Some(o), Some(n)) => {
                let pass_line = 0.8 * o.min(0.30 / 0.8);
                let verdict = if n < pass_line {
                    failed = true;
                    "REGRESSED"
                } else {
                    "ok"
                };
                println!("| {key} | {o:.2} | {n:.2} | >= {pass_line:.2} | {verdict} |");
            }
            _ => {
                eprintln!("FAIL: metric {key} missing from one of the files");
                failed = true;
            }
        }
    }
    // Lower is better: pass at 1.25 × max(committed, 0.05/1.25).
    {
        let key = "check_overhead_ratio";
        match (json_number(&old, key), json_number(&new, key)) {
            (Some(o), Some(n)) => {
                let pass_line = 1.25 * o.max(0.05 / 1.25);
                let verdict = if n > pass_line {
                    failed = true;
                    "REGRESSED"
                } else {
                    "ok"
                };
                println!("| {key} | {o:.4} | {n:.4} | <= {pass_line:.4} | {verdict} |");
            }
            _ => {
                eprintln!("FAIL: metric {key} missing from one of the files");
                failed = true;
            }
        }
    }
    // Invariant: byte identity can never regress.
    {
        let key = "bytes_identical";
        match json_number(&new, key) {
            Some(n) if n >= 1.0 => {
                println!("| {key} | 1 | {n:.0} | == 1 | ok |");
            }
            Some(n) => {
                println!("| {key} | 1 | {n:.0} | == 1 | REGRESSED |");
                failed = true;
            }
            None => {
                eprintln!("FAIL: metric {key} missing from the new file");
                failed = true;
            }
        }
    }
    if failed {
        eprintln!("FAIL: BENCH_contain trajectory regressed past its blessed baseline");
        std::process::exit(1);
    }
    println!("\ntrajectory ok: the containment cache kept its fetch reduction, byte identity, and overhead envelope");
}

/// `--trajectory`: one summary table over every committed
/// `BENCH_*.json` at the repo root — the headline metric(s) each bench
/// PR blessed, read with the same line-level scan the diff gates use.
/// Missing files are reported, not fatal: the table documents how much
/// of the trajectory this checkout carries.
fn trajectory() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    // (file, [(key, what it claims)]): first-occurrence keys, chosen to
    // be unique within their file.
    let headline: [(&str, &[(&str, &str)]); 6] = [
        (
            "BENCH_pr3.json",
            &[("speedup", "interned vs string partition keys")],
        ),
        ("BENCH_pr4.json", &[("appends_per_sec", "WAL appends/sec")]),
        (
            "BENCH_store2.json",
            &[
                ("batched_appends_per_sec", "group-commit appends/sec"),
                ("batch_speedup", "group-commit vs per-record fsync"),
                ("recovery_par_ratio", "width-4 fleet recovery vs width 1"),
            ],
        ),
        (
            "BENCH_serve.json",
            &[
                ("requests_per_sec", "honest-load requests/sec"),
                ("p99_us", "honest-load p99 latency (µs)"),
            ],
        ),
        (
            "BENCH_cpu.json",
            &[
                (
                    "intersect_seq_speedup",
                    "interned intersect vs PR 3 path, 1 thread",
                ),
                (
                    "minimize_seq_speedup",
                    "interned minimize vs PR 3 path, 1 thread",
                ),
            ],
        ),
        (
            "BENCH_contain.json",
            &[
                (
                    "fetch_reduction",
                    "source round-trips removed by the containment cache",
                ),
                (
                    "check_overhead_ratio",
                    "containment lookup cost vs a cache-miss fetch",
                ),
            ],
        ),
    ];
    println!("# Bench trajectory (committed BENCH_*.json headlines)\n");
    println!("| file | metric | value | claim |");
    println!("|---|---|---|---|");
    let mut missing = Vec::new();
    for (file, metrics) in headline {
        let Ok(text) = std::fs::read_to_string(root.join(file)) else {
            missing.push(file);
            continue;
        };
        for &(key, claim) in metrics {
            match json_number(&text, key) {
                Some(v) => println!("| {file} | {key} | {v:.2} | {claim} |"),
                None => println!("| {file} | {key} | (missing) | {claim} |"),
            }
        }
    }
    for file in missing {
        println!("| {file} | — | (file not committed) | — |");
    }
}

fn time_ms<T>(f: impl Fn() -> T) -> (T, f64) {
    // Median of three.
    let mut times = Vec::new();
    let mut result = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        result = Some(f());
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(f64::total_cmp);
    (result.unwrap(), times[1])
}

/// `--json`: machine-readable core tables (E5 sizes, PTIME sweep).
fn json_report(with_obs: bool) {
    let e5: Vec<Json> = (1..=9usize)
        .map(|n| {
            Json::obj()
                .set("n", n)
                .set("refine", *refine_blowup_sizes(n).last().unwrap())
                .set("refine_plus", *conjunctive_blowup_sizes(n).last().unwrap())
                .set("linear", *linear_chain_sizes(n).last().unwrap())
                .set("auxiliary", auxiliary_chain_size(n))
        })
        .collect();
    let ptime: Vec<Json> = [5usize, 20, 80, 200]
        .iter()
        .map(|&products| {
            let mut cat = catalog(products, 7);
            let q_view = catalog_query_price_below(&mut cat.alpha, 250);
            let q_cam = catalog_query_camera_pictures(&mut cat.alpha);
            let ans = q_view.eval(&cat.doc);
            let (knowledge, t_refine) = time_ms(|| {
                let mut r = iixml_core::Refiner::new(&cat.alpha);
                r.refine(&cat.alpha, &q_view, &ans).unwrap();
                r.current().clone()
            });
            let (_, t_qt) = time_ms(|| knowledge.query(&q_cam));
            Json::obj()
                .set("products", products)
                .set("knowledge_size", knowledge.size())
                .set("refine_ms", t_refine)
                .set("query_incomplete_ms", t_qt)
        })
        .collect();
    let mut out = Json::obj().set("e5_blowup", e5).set("ptime_sweep", ptime);
    if with_obs {
        out = out.set("obs", iixml_obs::snapshot().to_json_value());
    }
    println!("{}", out.render_pretty());
}

fn main() {
    let with_obs = std::env::args().any(|a| a == "--obs");
    if with_obs {
        iixml_obs::set_enabled(true);
    }
    if std::env::args().any(|a| a == "--bench-pr3") {
        let quick = std::env::args().any(|a| a == "--quick");
        iixml_obs::set_enabled(true);
        let report = iixml_bench::parbench::run(quick);
        report.print_table();
        match report.write_json() {
            Ok(path) => println!("\nwrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write BENCH_pr3.json: {e}");
                std::process::exit(1);
            }
        }
        // The CI smoke gate: parallel fan-out must actually overlap the
        // simulated source latency.
        let s4 = report.fanout_speedup(4);
        println!("fanout speedup at 4 threads: {s4:.2}x");
        if s4 < 1.5 {
            eprintln!("FAIL: 4-thread fan-out speedup {s4:.2}x < 1.5x");
            std::process::exit(1);
        }
        return;
    }
    if std::env::args().any(|a| a == "--bench-pr4") {
        let quick = std::env::args().any(|a| a == "--quick");
        iixml_obs::set_enabled(true);
        let report = iixml_bench::storebench::run(quick);
        report.print_table();
        match report.write_json() {
            Ok(path) => println!("\nwrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write BENCH_pr4.json: {e}");
                std::process::exit(1);
            }
        }
        // The CI smoke gate: every recovery in the sweep must have been
        // clean and whole (asserted inside run()); the cadence must not
        // make long-chain recovery slower than plain replay.
        let ratio = report.snapshot_recovery_ratio();
        println!("snapshot-cadence recovery ratio: {ratio:.2}x");
        if ratio < 0.8 {
            eprintln!("FAIL: snapshot cadence slowed long-chain recovery to {ratio:.2}x");
            std::process::exit(1);
        }
        return;
    }
    if std::env::args().any(|a| a == "--bench-store2") {
        let quick = std::env::args().any(|a| a == "--quick");
        iixml_obs::set_enabled(true);
        let report = iixml_bench::store2bench::run(quick);
        report.print_table();
        match report.write_json() {
            Ok(path) => println!("\nwrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write BENCH_store2.json: {e}");
                std::process::exit(1);
            }
        }
        // The smoke gates hold on any disk speed and any core count.
        // The 10x appends claim has two routes: the in-run speedup
        // (robust when the fsync is slow — the baseline pays it per
        // record) or 10x the committed PR 4 absolute (robust when the
        // fsync is fast — the batched path is encode-bound and clears
        // it on raw throughput). A machine fails only if group commit
        // genuinely stopped amortizing.
        let speedup = report.batch_speedup();
        let par = report.recovery_par_ratio();
        let pr4_appends = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pr4.json"),
        )
        .ok()
        .and_then(|s| json_number(&s, "appends_per_sec"))
        .unwrap_or(6722.0);
        let absolute = report.batched_appends_per_sec();
        println!(
            "group-commit speedup: {speedup:.1}x, batched: {absolute:.0}/s vs PR4 {pr4_appends:.0}/s, recovery par ratio: {par:.2}x, deterministic: {}",
            report.recovery.deterministic
        );
        let mut failed = false;
        if speedup < 10.0 && absolute < 10.0 * pr4_appends {
            eprintln!(
                "FAIL: group-commit speedup {speedup:.1}x < 10x and batched {absolute:.0} appends/s < 10x the PR 4 baseline {pr4_appends:.0}/s"
            );
            failed = true;
        }
        // The StoreIo seam (PR 9's fault-injection indirection) must
        // stay free on the batched hot path: within 3% of the
        // handwritten loop, measured in-run on interleaved samples.
        let io_overhead = report.io_overhead_ratio();
        println!("storeio seam overhead: {io_overhead:.3}x");
        if io_overhead > 1.03 {
            eprintln!(
                "FAIL: StoreIo dispatch costs {io_overhead:.3}x the raw append loop (> 1.03x)"
            );
            failed = true;
        }
        if par < 0.5 {
            eprintln!("FAIL: width-4 fleet recovery slowed the fleet to {par:.2}x of width 1");
            failed = true;
        }
        if !report.recovery.deterministic {
            eprintln!("FAIL: fleet recovery not byte-identical across par widths");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        return;
    }
    if std::env::args().any(|a| a == "--bench-serve") {
        let quick = std::env::args().any(|a| a == "--quick");
        iixml_obs::set_enabled(true);
        let report = iixml_bench::servebench::run(quick);
        report.print_table();
        match report.write_json() {
            Ok(path) => println!("\nwrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write BENCH_serve.json: {e}");
                std::process::exit(1);
            }
        }
        // The CI smoke gates hold on any host speed: the server must
        // survive the storm, the honest load must see zero transport
        // errors and zero sheds (quotas are sized for it), and restart
        // must recover every journaled session.
        let mut failed = false;
        if !report.chaos.server_alive {
            eprintln!("FAIL: server not answering after the chaos storm");
            failed = true;
        }
        if report.honest.errors > 0 || report.honest.shed > 0 {
            eprintln!(
                "FAIL: honest load degraded on a quiet server ({} errors, {} shed)",
                report.honest.errors, report.honest.shed
            );
            failed = true;
        }
        if (report.recovered_sessions as u64) < report.honest.sessions_done {
            eprintln!(
                "FAIL: restart recovered {} sessions, expected at least {}",
                report.recovered_sessions, report.honest.sessions_done
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        return;
    }
    if std::env::args().any(|a| a == "--bench-cpu") {
        let quick = std::env::args().any(|a| a == "--quick");
        iixml_obs::set_enabled(true);
        let report = iixml_bench::cpubench::run(quick);
        report.print_table();
        match report.write_json() {
            Ok(path) => println!("\nwrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write BENCH_cpu.json: {e}");
                std::process::exit(1);
            }
        }
        // The in-run gate. The kernels are sequential, so the gate is
        // the sequential speedup row, which holds on any host: both
        // interned kernels must beat the preserved pre-interning paths
        // by 1.3x.
        let iseq = report.intersect_seq_speedup();
        let mseq = report.minimize_seq_speedup();
        println!("\nsequential speedup: intersect {iseq:.2}x, minimize {mseq:.2}x");
        let mut failed = false;
        if iseq < 1.3 {
            eprintln!("FAIL: interned intersect only {iseq:.2}x over the PR 3 path (< 1.3x)");
            failed = true;
        }
        if mseq < 1.3 {
            eprintln!("FAIL: interned minimize only {mseq:.2}x over the PR 3 path (< 1.3x)");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        return;
    }
    if std::env::args().any(|a| a == "--bench-contain") {
        let quick = std::env::args().any(|a| a == "--quick");
        let report = iixml_bench::containbench::run(quick);
        report.print_table();
        match report.write_json() {
            Ok(path) => println!("\nwrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write BENCH_contain.json: {e}");
                std::process::exit(1);
            }
        }
        // The in-run gates: the cache must remove at least 30% of the
        // source round-trips on the subsumption-heavy mix, stay
        // byte-invisible in answers and knowledge, and cost under 5%
        // of a cache-miss fetch per lookup.
        let red = report.fetch_reduction();
        let overhead = report.check_overhead_ratio();
        let mut failed = false;
        if red < 0.30 {
            eprintln!("FAIL: fetch reduction {red:.2} below the 0.30 line");
            failed = true;
        }
        if !report.bytes_identical {
            eprintln!("FAIL: cache on/off transcripts diverged — the cache is not byte-invisible");
            failed = true;
        }
        if overhead >= 0.05 {
            eprintln!(
                "FAIL: containment lookup costs {:.1}% of a cache-miss fetch (>= 5%)",
                100.0 * overhead
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        return;
    }
    if let Some(at) = std::env::args().position(|a| a == "--diff-contain") {
        let args: Vec<String> = std::env::args().collect();
        let (Some(old_path), Some(new_path)) = (args.get(at + 1), args.get(at + 2)) else {
            eprintln!("usage: report --diff-contain OLD.json NEW.json");
            std::process::exit(1);
        };
        diff_contain(old_path, new_path);
        return;
    }
    if let Some(at) = std::env::args().position(|a| a == "--diff-cpu") {
        let args: Vec<String> = std::env::args().collect();
        let (Some(old_path), Some(new_path)) = (args.get(at + 1), args.get(at + 2)) else {
            eprintln!("usage: report --diff-cpu OLD.json NEW.json");
            std::process::exit(1);
        };
        diff_cpu(old_path, new_path);
        return;
    }
    if std::env::args().any(|a| a == "--trajectory") {
        trajectory();
        return;
    }
    if let Some(at) = std::env::args().position(|a| a == "--diff-serve") {
        let args: Vec<String> = std::env::args().collect();
        let (Some(old_path), Some(new_path)) = (args.get(at + 1), args.get(at + 2)) else {
            eprintln!("usage: report --diff-serve OLD.json NEW.json");
            std::process::exit(1);
        };
        diff_serve(old_path, new_path);
        return;
    }
    if let Some(at) = std::env::args().position(|a| a == "--diff-store2") {
        let args: Vec<String> = std::env::args().collect();
        let (Some(old_path), Some(new_path)) = (args.get(at + 1), args.get(at + 2)) else {
            eprintln!("usage: report --diff-store2 OLD.json NEW.json");
            std::process::exit(1);
        };
        diff_store2(old_path, new_path);
        return;
    }
    if std::env::args().any(|a| a == "--json") {
        json_report(with_obs);
        return;
    }
    println!("# Experiment report (generated by `cargo run -p iixml-bench --bin report`)\n");

    // ---------------------------------------------------------------
    println!("## E5 — Example 3.2 blowup: representation size vs n\n");
    println!("| n | Refine (disjunctive) | Refine+ (conjunctive) | linear queries (Lemma 3.12) | with aux queries (Prop 3.13) |");
    println!("|---|---|---|---|---|");
    for n in 1..=9usize {
        let r = *refine_blowup_sizes(n).last().unwrap();
        let c = *conjunctive_blowup_sizes(n).last().unwrap();
        let l = *linear_chain_sizes(n).last().unwrap();
        let a = auxiliary_chain_size(n);
        println!("| {n} | {r} | {c} | {l} | {a} |");
    }
    println!("\nPaper's claim: Refine exponential (2^n), Refine+ linear (Cor 3.9), linear\nqueries polynomial (Lemma 3.12), auxiliary queries polynomial (Prop 3.13).\n");

    // ---------------------------------------------------------------
    println!("## E4/E9/E10/E11 — PTIME operations on growing catalogs\n");
    println!("| products | knowledge size | refine step (ms) | q(T) (ms) | answerable? (ms) | completion (ms, #local queries) |");
    println!("|---|---|---|---|---|---|");
    for products in [5usize, 20, 80, 200] {
        let mut cat = catalog(products, 7);
        let q_view = catalog_query_price_below(&mut cat.alpha, 250);
        let q_cam = catalog_query_camera_pictures(&mut cat.alpha);
        let ans = q_view.eval(&cat.doc);
        let (knowledge, t_refine) = time_ms(|| {
            let mut r = iixml_core::Refiner::new(&cat.alpha);
            r.refine(&cat.alpha, &q_view, &ans).unwrap();
            r.current().clone()
        });
        let (_, t_qt) = time_ms(|| knowledge.query(&q_cam));
        let (_, t_ansable) = time_ms(|| knowledge.query(&q_cam).fully_answerable());
        let ((), t_completion) = {
            let med = Mediator::new(&knowledge);
            let (_c, t) = time_ms(|| med.complete(&q_cam));
            ((), t)
        };
        let nq = Mediator::new(&knowledge).complete(&q_cam).queries.len();
        println!(
            "| {products} | {} | {t_refine:.2} | {t_qt:.2} | {t_ansable:.2} | {t_completion:.2} ({nq}) |",
            knowledge.size()
        );
    }
    println!("\nPaper's claim: all four operations PTIME in the incomplete tree\n(Theorems 3.4, 3.14, Corollary 3.15, Theorem 3.19).\n");

    // ---------------------------------------------------------------
    println!("## E12 — Theorem 3.6 SAT reduction\n");
    println!("| formula | queries | knowledge size | possible prefix (val=1) | brute-force SAT | decide (ms) |");
    println!("|---|---|---|---|---|---|");
    let formulas = [
        (
            "1var sat",
            Cnf {
                num_vars: 1,
                clauses: vec![[1, 1, 1]],
            },
        ),
        (
            "1var unsat",
            Cnf {
                num_vars: 1,
                clauses: vec![[1, 1, 1], [-1, -1, -1]],
            },
        ),
        (
            "2var xor",
            Cnf {
                num_vars: 2,
                clauses: vec![[1, 2, 2], [-1, -2, -2]],
            },
        ),
        (
            "2var unsat",
            Cnf {
                num_vars: 2,
                clauses: vec![[1, 2, 2], [-1, 2, 2], [1, -2, -2], [-1, -2, -2]],
            },
        ),
        (
            "3var sat",
            Cnf {
                num_vars: 3,
                clauses: vec![[1, -2, 3], [-1, 2, -3], [2, 3, 3]],
            },
        ),
    ];
    for (name, cnf) in &formulas {
        let enc = encode(cnf);
        let (got, t) = time_ms(|| enc.possible_prefix_val1());
        let brute = cnf.brute_force_sat();
        assert_eq!(got, brute);
        println!(
            "| {name} | {} | {} | {got} | {brute} | {t:.2} |",
            enc.num_queries,
            enc.knowledge_size()
        );
    }
    println!("\nPaper's claim: satisfiable iff root—val(=1) is a possible prefix\n(NP-hardness mechanism); conjunctive knowledge stays polynomial (Cor 3.9).\n");

    // ---------------------------------------------------------------
    println!("## E19 — Webhouse session accounting\n");
    println!("| products | view | local queries | shipped by mediation | full re-ask cost | answered locally after |");
    println!("|---|---|---|---|---|---|");
    for products in [10usize, 40, 120] {
        for full_view in [false, true] {
            let mut cat = catalog(products, 31);
            // A partial view (price band) leaves missing products
            // possible, so the mediator must re-ask at the root; a
            // full-coverage view pins every product, so the mediator
            // descends and fetches only the missing pictures.
            let q_view = if full_view {
                let mut b = iixml_query::PsQueryBuilder::new(
                    &mut cat.alpha,
                    "catalog",
                    iixml_values::Cond::True,
                );
                let root = b.root();
                let p = b.child(root, "product", iixml_values::Cond::True).unwrap();
                b.child(p, "name", iixml_values::Cond::True).unwrap();
                b.child(p, "price", iixml_values::Cond::True).unwrap();
                let c = b.child(p, "cat", iixml_values::Cond::True).unwrap();
                b.child(c, "subcat", iixml_values::Cond::True).unwrap();
                b.build()
            } else {
                catalog_query_price_below(&mut cat.alpha, 250)
            };
            let q_cam = catalog_query_camera_pictures(&mut cat.alpha);
            let mut session = Session::open(
                cat.alpha.clone(),
                Source::new(cat.doc.clone(), Some(cat.ty.clone())),
            );
            session.fetch(&q_view).unwrap();
            let before = session.source().nodes_shipped;
            let _ = session.answer_with_mediation(&q_cam).unwrap();
            let shipped = session.source().nodes_shipped - before;
            let full = q_cam.eval(&cat.doc).len();
            let local = session.answer_locally(&q_cam).is_complete();
            println!(
                "| {products} | {} | {} | {shipped} | {full} | {local} |",
                if full_view {
                    "all products"
                } else {
                    "price<250"
                },
                session.mediator_queries,
            );
        }
    }
    println!("\nPaper's claim: the mediator's completion is non-redundant (Thm 3.19).\nWith a full-coverage view, the local queries descend into known products\nand ship only the missing pictures — well below the full re-ask cost.\n");

    // ---------------------------------------------------------------
    println!("## E18 — Order discussion (Section 4)\n");
    println!("| ordered type | q1 answer (a's) | q2 answer (b's) | merge |");
    println!("|---|---|---|---|");
    let a = Label(0);
    let b = Label(1);
    let scenarios: Vec<(&str, Regex)> = vec![
        (
            "a* b*",
            Regex::cat(Regex::star(Regex::Sym(a)), Regex::star(Regex::Sym(b))),
        ),
        (
            "(a+b)*",
            Regex::star(Regex::alt(Regex::Sym(a), Regex::Sym(b))),
        ),
        (
            "(ab)*",
            Regex::star(Regex::cat(Regex::Sym(a), Regex::Sym(b))),
        ),
    ];
    for (name, ty) in &scenarios {
        let res = merge_answers(
            ty,
            a,
            &[Rat::from(1), Rat::from(2)],
            b,
            &[Rat::from(3), Rat::from(4)],
        );
        let desc = match res {
            MergeResult::Unique(_) => "unique — q3 answerable".to_string(),
            MergeResult::Ambiguous(n) => {
                format!("ambiguous ({n}+ interleavings) — q3 not answerable")
            }
            MergeResult::Inconsistent => "inconsistent".to_string(),
        };
        println!("| {name} | [1,2] | [3,4] | {desc} |");
    }
    println!("\nPaper's claim: under a*b* the interleaving is forced; under (a+b)* the\norder information is genuinely missing.\n");

    // ---------------------------------------------------------------
    println!("## Sanity — answering-with-views consistency at scale\n");
    let (mut cat, knowledge) = refined_catalog(120, 99);
    let q_cheap = catalog_query_price_below(&mut cat.alpha, 150);
    let described = knowledge.query(&q_cheap);
    let ans = described.the_answer();
    let direct = q_cheap.eval(&cat.doc).tree;
    let agree = match (&ans, &direct) {
        (Some(x), Some(y)) => x.same_tree(y),
        (x, y) => x.is_none() == y.is_none(),
    };
    println!(
        "120-product catalog: cheap-price query answerable from the 250-price view: {} (answer matches source: {agree})",
        described.fully_answerable()
    );
    assert!(described.fully_answerable() && agree);

    if with_obs {
        println!("\n## Observability snapshot\n");
        println!(
            "```json\n{}\n```",
            iixml_obs::snapshot().to_json_value().render_pretty()
        );
    }
}
