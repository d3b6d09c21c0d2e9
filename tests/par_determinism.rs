//! The determinism matrix for the parallel execution layer: results
//! must be *byte-identical* at any worker width. The parallel paths are
//! the two wait-bound `iixml_par::par_map` callers — the webhouse
//! fan-out (`Webhouse::fan_out`) and fleet recovery
//! (`Webhouse::recover_sessions`, pinned by `store_recovery.rs` and
//! `serve_chaos.rs`). `par_map` places results by input index, so this
//! holds by construction. Algorithm Refine's intersect, bisimulation
//! minimization and mediated completion are sequential; they stay in
//! the matrix as a guard that the width never changes their output.
//! Every check runs at widths 1 (the sequential fallback through the
//! same code path) and 4.
//!
//! CI additionally runs the whole suite under `IIXML_PAR_THREADS=1` and
//! `=4` (the thread-matrix job), so any width-dependent behavior that
//! slips past these targeted checks still fails the build.

use iixml_core::io::write_incomplete_xml;
use iixml_core::Refiner;
use iixml_gen::{blowup_queries, catalog, catalog_query_price_below, testkit};
use iixml_query::Answer;
use iixml_tree::Alphabet;
use iixml_webhouse::{FaultPlan, FaultySource, LocalAnswer, Session, Source, Webhouse};

/// Serializes the final knowledge of the Example 3.2 Refine chain —
/// the intersect-heavy workload — at a given worker width.
fn refine_chain_serialized(width: usize, n: usize) -> String {
    iixml_par::set_threads(Some(width));
    let mut alpha = Alphabet::from_names(["root", "a", "b"]);
    let queries = blowup_queries(&mut alpha, n);
    let mut refiner = Refiner::new(&alpha);
    for q in &queries {
        refiner.refine(&alpha, q, &Answer::empty()).unwrap();
    }
    let out = write_incomplete_xml(refiner.current(), &alpha);
    iixml_par::set_threads(None);
    out
}

#[test]
fn refine_chain_is_byte_identical_across_widths() {
    let seq = refine_chain_serialized(1, 5);
    let par = refine_chain_serialized(4, 5);
    assert_eq!(seq, par, "intersect/minimize diverged between widths");
    // And distinct chain lengths genuinely differ (the serializer is
    // not constant).
    assert_ne!(seq, refine_chain_serialized(1, 4));
}

/// Minimization of a large product at a given width.
fn minimized_product_serialized(width: usize) -> String {
    iixml_par::set_threads(Some(width));
    let mut alpha = Alphabet::from_names(["root", "a", "b"]);
    let queries = blowup_queries(&mut alpha, 4);
    let mut refiner = Refiner::new(&alpha);
    for q in &queries {
        refiner.refine(&alpha, q, &Answer::empty()).unwrap();
    }
    let t = refiner.current();
    let product = iixml_core::refine::intersect(t, t).unwrap();
    let out = write_incomplete_xml(&product.minimize(), &alpha);
    iixml_par::set_threads(None);
    out
}

#[test]
fn minimization_is_byte_identical_across_widths() {
    assert_eq!(
        minimized_product_serialized(1),
        minimized_product_serialized(4)
    );
}

/// One catalog mediation session (fetch a view, mediate a follow-up),
/// returning serialized knowledge plus the exact answer's rendering.
fn mediation_outcome(width: usize) -> (String, String) {
    iixml_par::set_threads(Some(width));
    let mut cat = catalog(10, testkit::base_seed() ^ 0x9A9);
    let q_view = catalog_query_price_below(&mut cat.alpha, 250);
    let q_cheap = catalog_query_price_below(&mut cat.alpha, 120);
    let mut session = Session::open(
        cat.alpha.clone(),
        Source::new(cat.doc.clone(), Some(cat.ty.clone())),
    );
    session.fetch(&q_view).unwrap();
    let exact = session.answer_with_mediation(&q_cheap).unwrap();
    // Render the answer by preorder walk (Debug would leak internal
    // hash-map ordering, which is nondeterministic per instance).
    let rendered = exact.map_or("<empty>".to_string(), |t| {
        t.preorder()
            .iter()
            .map(|&r| format!("{}:{}={};", t.nid(r).0, t.label(r).0, t.value(r)))
            .collect()
    });
    let out = (
        write_incomplete_xml(session.knowledge(), &cat.alpha),
        rendered,
    );
    iixml_par::set_threads(None);
    out
}

#[test]
fn mediated_completion_is_byte_identical_across_widths() {
    assert_eq!(mediation_outcome(1), mediation_outcome(4));
}

/// Fans a query out over faulty sources and renders every outcome —
/// variant, answer shape, and per-session fault accounting — into one
/// comparable transcript.
fn fanout_transcript(width: usize) -> String {
    iixml_par::set_threads(Some(width));
    let mut cat = catalog(6, testkit::base_seed() ^ 0xFA9);
    let q = catalog_query_price_below(&mut cat.alpha, 300);
    let mut wh: Webhouse<FaultySource> = Webhouse::new();
    for i in 0..8u64 {
        // Per-source fault seed: each session replays its own fault
        // stream regardless of which worker runs it.
        let src = Source::new(cat.doc.clone(), Some(cat.ty.clone()));
        wh.register(
            format!("src{i}"),
            cat.alpha.clone(),
            FaultySource::new(src, FaultPlan::uniform(0.15), 0xC0FFEE ^ i),
        );
    }
    let mut lines = Vec::new();
    for (name, outcome) in wh.fan_out(&q) {
        let desc = match outcome {
            LocalAnswer::Complete(t) => {
                format!("complete:{}", t.map_or(0, |t| t.len()))
            }
            LocalAnswer::Degraded { partial, .. } => {
                format!("degraded:possible={}", partial.possible_nonempty())
            }
            LocalAnswer::Partial(_) => "partial".to_string(),
        };
        let faults = wh.session(&name).unwrap().source().faults;
        lines.push(format!("{name} {desc} faults={}", faults.total()));
    }
    iixml_par::set_threads(None);
    lines.join("\n")
}

#[test]
fn faulty_fanout_is_deterministic_across_widths() {
    let seq = fanout_transcript(1);
    let par = fanout_transcript(4);
    assert_eq!(seq, par, "fan-out outcomes depend on worker width");
    // The transcript covers all eight sessions in name order.
    assert_eq!(seq.lines().count(), 8);
}
