//! The `cpu` bench area: CPU kernels before/after ID-interning.
//!
//! Two CPU-bound kernels are measured on one thread, each in two
//! variants:
//!
//! * **pre** — the preserved structural paths
//!   (`iixml_oracle::intersect_reference`,
//!   `iixml_oracle::minimize_reference`):
//!   hash-probed pair tables, nested-`Vec` signatures, fresh join
//!   buffers per emitted combination. These are the verbatim
//!   pre-interning code paths, so the pre row *is* the old baseline
//!   re-measured on the current host.
//! * **post** — the shipping kernels: dense/interned ID tables and one
//!   reused scratch arena per call.
//!
//! Both kernels are sequential (DESIGN §8), so the gated rows are the
//! **sequential speedups** — pre ÷ post per kernel, `>= 1.3` each, from
//! the medians of interleaved pre and post samples. An
//! informational micro-bench rides along: `sig_interning`, the old
//! `format!`-keyed initial partition vs the interned
//! `(SymTarget, IntervalSet)` keying that replaced it.
//!
//! Two ungated rows time the whole Refine step as a `refine_heavy`
//! session runs it: typed 64-product catalogs refined through
//! `Refiner::refine` by 96 distinct price windows in random order, with
//! metric collection off as in the server. `refine_step_us` is the
//! median over samples of the mean time of a step that changes the
//! knowledge, and `refine_step_allocs` the allocations such a step
//! makes (counted when the binary installs [`crate::allocs::Counting`],
//! as `report` does; the count repeats exactly).
//!
//! Two more ungated rows time the knowledge-text parser a cold start
//! runs on every snapshot: `knowledge_parse_us` is the median time of
//! `parse_incomplete_xml` on a `restart`-shaped snapshot (a typed
//! 64-product catalog after 31 distinct price windows, the state the
//! snapshot at record 32 holds), and `knowledge_parse_allocs` the
//! allocations one parse makes.
//!
//! Two more ungated rows time a warm Ask as a `read_heavy` session
//! answers it: a typed 32-product catalog fully fetched
//! (`catalog/product{name, price, cat/subcat}`), its known data tree
//! built, then `Refiner::answer` on `catalog/product{name, price[< b]}`
//! for bounds `b` spread over the price range, with metric collection
//! off. `ask_warm_us` is the median over samples of the mean time of
//! one Ask, and `ask_warm_allocs` the allocations one Ask makes.
//!
//! `cargo run -p iixml-bench --bin report -- --bench cpu` runs these and
//! writes `BENCH_cpu.json`; `--quick` shrinks workloads and sample
//! counts for CI smoke runs.

use crate::harness::median;
use crate::refine_blowup_tree;
use crate::row::Row;
use iixml_core::io::{parse_incomplete_xml, write_incomplete_xml};
use iixml_core::type_intersect::restrict_to_type;
use iixml_core::{IncompleteTree, Refiner, SymTarget, Verdict};
use iixml_gen::rng::DetRng;
use iixml_query::{parse_ps_query, Answer, PsQuery};
use iixml_tree::Alphabet;
use iixml_values::IntervalSet;
use std::collections::HashMap;
use std::time::Instant;

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

impl KernelResult {
    /// Times `pre` and `post` in `samples` interleaved rounds (at least
    /// 2, after one warm-up call of each), alternating which of the two
    /// runs first, and keeps each one's median: a host whose speed
    /// drifts during the run moves both medians alike instead of only
    /// the variant timed second.
    fn interleaved(
        name: &'static str,
        samples: usize,
        mut pre: impl FnMut(),
        mut post: impl FnMut(),
    ) -> KernelResult {
        let time = |f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        };
        pre();
        post();
        let (mut pres, mut posts) = (Vec::new(), Vec::new());
        for round in 0..samples.max(2) {
            if round % 2 == 0 {
                pres.push(time(&mut pre));
                posts.push(time(&mut post));
            } else {
                posts.push(time(&mut post));
                pres.push(time(&mut pre));
            }
        }
        KernelResult {
            name,
            pre_ns: median(pres),
            post_ns: median(posts),
        }
    }
}

/// The full CPU-kernel report.
pub struct CpuReport {
    /// The two kernels, then `sig_interning` (string keys as pre,
    /// interned keys as post).
    pub kernels: Vec<KernelResult>,
    /// The `refine_heavy`-shaped Refine steps.
    pub steps: StepResult,
    /// Parses of a `restart`-shaped snapshot.
    pub parse: StepResult,
    /// Warm Asks of a `read_heavy`-shaped session.
    pub asks: StepResult,
}

/// Refine steps that change the knowledge, on `refine_heavy`-shaped
/// chains.
pub struct StepResult {
    /// Median over samples of the mean ns per step.
    pub ns: f64,
    /// Allocations per step (0 without [`crate::allocs::Counting`]).
    pub allocs: f64,
}

/// One `refine_heavy`-shaped session: a typed start over a 64-product
/// catalog, and `windows` distinct price-window Fetches
/// `catalog/product{name, price[>= lo & < lo + 5]}` in random order,
/// with their answers.
struct WindowChain {
    alpha: Alphabet,
    start: IncompleteTree,
    steps: Vec<(PsQuery, Answer)>,
}

fn window_chain(windows: usize, seed: u64) -> WindowChain {
    let mut rng = DetRng::new(seed);
    let c = iixml_gen::catalog(64, rng.next_u64());
    let mut alpha = c.alpha.clone();
    let mut order: Vec<usize> = (0..98).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let steps = order[..windows.min(order.len())]
        .iter()
        .map(|&k| {
            let lo = 10 + 5 * k;
            let text = format!("catalog/product{{name, price[>= {lo} & < {}]}}", lo + 5);
            let q = parse_ps_query(&text, &mut alpha).expect("window queries parse");
            let ans = q.eval(&c.doc);
            (q, ans)
        })
        .collect();
    let labels: Vec<_> = alpha.labels().collect();
    let start = restrict_to_type(&IncompleteTree::universal(&labels), &c.ty);
    WindowChain {
        alpha,
        start,
        steps,
    }
}

/// Runs every chain through `Refiner::refine` `samples` times (after
/// one warm-up pass), timing and counting each step that changes the
/// knowledge, with metric collection off.
fn refine_steps(chains: &[WindowChain], samples: usize) -> StepResult {
    let was = iixml_obs::enabled();
    iixml_obs::set_enabled(false);
    let mut means = Vec::with_capacity(samples);
    let mut allocs = 0.0;
    for _ in 0..=samples.max(2) {
        let (mut ns, mut count, mut steps) = (0u128, 0u64, 0u64);
        for c in chains {
            let mut refiner = Refiner::from_tree(c.start.clone());
            for (q, ans) in &c.steps {
                let a0 = crate::allocs::count();
                let t0 = Instant::now();
                let implied = refiner
                    .refine(&c.alpha, q, ans)
                    .expect("window answers refine");
                let dt = t0.elapsed().as_nanos();
                let da = crate::allocs::count() - a0;
                if !implied {
                    ns += dt;
                    count += da;
                    steps += 1;
                }
            }
        }
        assert!(steps > 0, "every window chain changes the knowledge");
        means.push(ns as f64 / steps as f64);
        allocs = count as f64 / steps as f64;
    }
    iixml_obs::set_enabled(was);
    // The first pass warmed up.
    means.remove(0);
    StepResult {
        ns: median(means),
        allocs,
    }
}

/// A `restart` session's snapshot as text, with the alphabet recovery
/// parses it under: the knowledge of a typed 64-product catalog after
/// 31 distinct price-window Fetches.
pub fn restart_snapshot(seed: u64) -> (String, Alphabet) {
    let c = window_chain(31, seed);
    let mut refiner = Refiner::from_tree(c.start);
    for (q, ans) in &c.steps {
        refiner
            .refine(&c.alpha, q, ans)
            .expect("window answers refine");
    }
    (write_incomplete_xml(refiner.current(), &c.alpha), c.alpha)
}

/// Parses `text` `samples` times (after one warm-up parse), each into a
/// fresh copy of `alpha` as recovery does; the median time and the
/// allocations of one parse.
fn knowledge_parses(text: &str, alpha: &Alphabet, samples: usize) -> StepResult {
    let mut times = Vec::with_capacity(samples);
    let mut allocs = 0.0;
    for _ in 0..=samples.max(2) {
        let mut a = alpha.clone();
        let a0 = crate::allocs::count();
        let t0 = Instant::now();
        let parsed = parse_incomplete_xml(text, &mut a);
        let dt = t0.elapsed().as_nanos() as f64;
        allocs = (crate::allocs::count() - a0) as f64;
        let it = parsed.expect("the snapshot parses");
        times.push(dt);
        drop(it);
    }
    // The first parse warmed up.
    times.remove(0);
    StepResult {
        ns: median(times),
        allocs,
    }
}

/// A `read_heavy` session: a typed catalog of `products` products
/// fully fetched, and the price bounds of the measured Asks.
struct AskSession {
    refiner: Refiner,
    asks: Vec<PsQuery>,
}

fn ask_session(products: usize, seed: u64) -> AskSession {
    let c = iixml_gen::catalog(products, seed);
    let mut alpha = c.alpha.clone();
    let full = parse_ps_query("catalog/product{name, price, cat/subcat}", &mut alpha)
        .expect("the full query parses");
    let asks = (0..64)
        .map(|k| {
            let text = format!("catalog/product{{name, price[< {}]}}", 10 + 490 * k / 64);
            parse_ps_query(&text, &mut alpha).expect("ask queries parse")
        })
        .collect();
    let labels: Vec<_> = alpha.labels().collect();
    let mut refiner =
        Refiner::from_tree(restrict_to_type(&IncompleteTree::universal(&labels), &c.ty));
    refiner
        .refine(&alpha, &full, &full.eval(&c.doc))
        .expect("the full answer refines");
    AskSession { refiner, asks }
}

/// Asks every query of `s` `samples` times (after two warm-up passes,
/// the second of which builds the known data tree), timing and
/// counting each Ask, with metric collection off.
fn warm_asks(s: &mut AskSession, samples: usize) -> StepResult {
    let was = iixml_obs::enabled();
    iixml_obs::set_enabled(false);
    for _ in 0..2 {
        for q in &s.asks {
            assert!(
                matches!(s.refiner.answer(q), Verdict::Complete(_)),
                "a fully fetched catalog answers every Ask"
            );
        }
    }
    let mut means = Vec::with_capacity(samples);
    let mut allocs = 0.0;
    for _ in 0..samples.max(1) {
        let a0 = crate::allocs::count();
        let t0 = Instant::now();
        for q in &s.asks {
            drop(s.refiner.answer(q));
        }
        let dt = t0.elapsed().as_nanos() as f64;
        allocs = (crate::allocs::count() - a0) as f64 / s.asks.len() as f64;
        means.push(dt / s.asks.len() as f64);
    }
    iixml_obs::set_enabled(was);
    StepResult {
        ns: median(means),
        allocs,
    }
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
    let chain_n = if quick { 5 } else { 7 };
    let samples = if quick { 3 } else { 7 };
    let chains: Vec<WindowChain> = (0..if quick { 1 } else { 4 })
        .map(|seed| window_chain(96, seed))
        .collect();
    let steps = refine_steps(&chains, samples);
    let (snapshot, snapshot_alpha) = restart_snapshot(0);
    let parse = knowledge_parses(&snapshot, &snapshot_alpha, if quick { 50 } else { 1000 });
    let asks = warm_asks(&mut ask_session(32, 0), if quick { 20 } else { 400 });

    iixml_obs::set_enabled(true);

    let base = refine_blowup_tree(chain_n);
    let product = iixml_core::refine::intersect(&base, &base).expect("self-product is compatible");

    let intersect = KernelResult::interleaved(
        "intersect",
        samples,
        || {
            let p = iixml_oracle::intersect_reference(&base, &base)
                .expect("self-product is compatible");
            assert!(p.ty().sym_count() > 0);
        },
        || {
            let p =
                iixml_core::refine::intersect(&base, &base).expect("self-product is compatible");
            assert!(p.ty().sym_count() > 0);
        },
    );
    let minimize = KernelResult::interleaved(
        "minimize",
        samples,
        || {
            let m = iixml_oracle::minimize_reference(&product);
            assert!(m.ty().sym_count() <= product.ty().sym_count());
        },
        || {
            let m = product.minimize();
            assert!(m.ty().sym_count() <= product.ty().sym_count());
        },
    );
    let sig_interning = KernelResult::interleaved(
        "sig_interning",
        samples * 3,
        || assert!(partition_init_string_keys(&product) > 0),
        || assert!(partition_init_interned_keys(&product) > 0),
    );

    CpuReport {
        kernels: vec![intersect, minimize, sig_interning],
        steps,
        parse,
        asks,
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
        rows.push(Row::lower(
            "cpu",
            "refine_step_us",
            "us",
            self.steps.ns / 1e3,
        ));
        rows.push(Row::lower(
            "cpu",
            "refine_step_allocs",
            "count",
            self.steps.allocs,
        ));
        rows.push(Row::lower(
            "cpu",
            "knowledge_parse_us",
            "us",
            self.parse.ns / 1e3,
        ));
        rows.push(Row::lower(
            "cpu",
            "knowledge_parse_allocs",
            "count",
            self.parse.allocs,
        ));
        rows.push(Row::lower("cpu", "ask_warm_us", "us", self.asks.ns / 1e3));
        rows.push(Row::lower(
            "cpu",
            "ask_warm_allocs",
            "count",
            self.asks.allocs,
        ));
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
        let slow =
            iixml_oracle::root_reachable(&iixml_oracle::intersect_reference(&base, &base).unwrap());
        assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
        assert_eq!(
            format!("{:?}", fast.minimize()),
            format!("{:?}", iixml_oracle::minimize_reference(&slow))
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
        assert_eq!(rows.len(), 15);
        assert!(rows.iter().all(|r| r.value > 0.0));
        assert_eq!(crate::row::gated(&rows), GATES);
    }
}
