//! Regenerates the paper-vs-measured tables of EXPERIMENTS.md, and runs
//! the gated bench areas.
//!
//! Run with `cargo run -p iixml-bench --bin report` (add `--release` for
//! the larger rows). Prints Markdown tables; timings are coarse
//! (`std::time::Instant` medians of a few runs) — the harness benches
//! in `benches/` are the precise instrument.
//!
//! Flags:
//!
//! * `--bench <store|serve|cpu|contain|par> [--quick]` runs one area of
//!   [`iixml_bench::AREAS`], prints its rows, writes `BENCH_<area>.json`
//!   at the repo root, and exits 1 when a bounded row fails its bound
//!   (`--quick` selects the CI smoke sizes);
//! * `--trajectory` prints every row of the committed `BENCH_*.json`
//!   files as one table;
//! * `--json` prints the machine-readable core tables;
//! * `--obs` enables the observability layer and appends its metric
//!   snapshot (counters and histograms accumulated while the report
//!   ran).

use iixml_bench::row::{self, Host, Row};
use iixml_bench::{
    auxiliary_chain_size, conjunctive_blowup_sizes, linear_chain_sizes, refine_blowup_sizes,
    refined_catalog, AREAS,
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

/// `--bench <area>`: runs the area, prints and writes its rows, and
/// exits with the bound check's verdict.
fn bench(name: &str, quick: bool) -> ! {
    let Some(area) = AREAS.iter().find(|a| a.name == name) else {
        let names: Vec<&str> = AREAS.iter().map(|a| a.name).collect();
        eprintln!("usage: report --bench <{}> [--quick]", names.join("|"));
        std::process::exit(2);
    };
    let rows = (area.run)(quick);
    row::print_table(&rows);
    match row::write(name, &rows, Host::here(quick)) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write BENCH_{name}.json: {e}");
            std::process::exit(1);
        }
    }
    for r in rows.iter().filter(|r| !r.passes()) {
        eprintln!(
            "FAIL: {name} {} = {} misses its bound {:?}",
            r.metric, r.value, r.bound
        );
    }
    std::process::exit(row::exit_code(&rows));
}

/// `--trajectory`: every row of every committed `BENCH_<area>.json`, in
/// one table. A missing file is reported, not fatal: the table
/// documents how much of the trajectory this checkout carries.
fn trajectory() {
    println!("# Bench trajectory (committed BENCH_*.json rows)\n");
    let mut rows: Vec<Row> = Vec::new();
    for area in &AREAS {
        let file = format!("BENCH_{}.json", area.name);
        let Ok(text) = std::fs::read_to_string(row::bench_path(area.name)) else {
            println!("- {file}: not committed");
            continue;
        };
        let parsed: Vec<(Row, Host)> = text.lines().filter_map(row::parse).collect();
        let host = parsed.first().map(|(_, h)| *h);
        println!(
            "- {file}: {} rows, measured on {} core(s), {} run",
            parsed.len(),
            host.map_or(0, |h| h.cores),
            if host.is_some_and(|h| h.quick) {
                "quick"
            } else {
                "full"
            },
        );
        rows.extend(parsed.into_iter().map(|(r, _)| r));
    }
    println!();
    row::print_table(&rows);
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |f: &str| args.iter().any(|a| a == f);
    let with_obs = flag("--obs");
    if with_obs {
        iixml_obs::set_enabled(true);
    }
    if let Some(at) = args.iter().position(|a| a == "--bench") {
        bench(args.get(at + 1).map_or("", String::as_str), flag("--quick"));
    }
    if flag("--trajectory") {
        trajectory();
        return;
    }
    if flag("--json") {
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
