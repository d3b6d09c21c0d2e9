//! Seeded property tests for the containment analyzer (DESIGN §15).
//!
//! Two pinned contracts, each at worker widths 1 and 4:
//!
//! * **Verdict vs brute force** — on random catalogs and documents, a
//!   `Contained` verdict means replaying the subsuming query's answer
//!   tree reproduces the subsumed query's source answer byte-for-byte
//!   (same node ids, sibling order, and provenance), and on the
//!   price-bound family the verdict matches the arithmetic truth
//!   exactly (the check is complete there, not just sound). A
//!   one-entry answer cache hits exactly when the verdict says
//!   contained, and counts exactly the `Skeleton` verdicts as skeleton
//!   rejects.
//! * **Mediator equivalence matrix** — a session with the containment
//!   cache on walks the same query mix as one with it off and keeps
//!   *byte-identical* knowledge after every step, while contacting the
//!   source strictly fewer times on a subsumption-heavy mix.

use iixml_contain::{contained_in, AnswerCache, Mismatch, Verdict};
use iixml_core::io::write_incomplete_xml;
use iixml_gen::{catalog, catalog_query_price_below, random_queries, sample_tree, testkit};
use iixml_query::Answer;
use iixml_tree::DataTree;
use iixml_webhouse::{Session, Source};

/// Ordered rendering of an answer tree: node ids, labels, values and
/// child counts in preorder — exactly the content downstream
/// refinement is sensitive to. (`Debug` would leak internal hash-map
/// ordering.)
fn render(t: &Option<DataTree>) -> String {
    let Some(t) = t else {
        return String::from("<empty>");
    };
    let mut out = String::new();
    for n in t.preorder() {
        out.push_str(&format!(
            "{}:{}={}/{};",
            t.nid(n).0,
            t.label(n).0,
            t.value(n),
            t.children(n).len()
        ));
    }
    out
}

/// Full ordered rendering of an answer: tree plus sorted provenance.
fn render_answer(a: &Answer) -> String {
    let mut prov: Vec<_> = a
        .provenance
        .iter()
        .map(|(n, k)| format!("{}:{:?}", n.0, k))
        .collect();
    prov.sort();
    format!("{} | {}", render(&a.tree), prov.join(","))
}

/// The brute-force oracle: whenever the analyzer says `q1 ⊑ q2`,
/// evaluating `q1` against `q2`'s answer tree must equal evaluating
/// `q1` against the document itself — on every sampled document.
fn verdict_matches_replay_at_width(width: usize) {
    iixml_par::set_threads(Some(width));
    testkit::check_with("containment verdict agrees with brute force", 12, |rng| {
        let cat = catalog(rng.range_usize(3, 10), rng.next_u64());
        let root = cat.alpha.get("catalog").expect("catalog root");
        let queries = random_queries(&cat.alpha, &cat.ty, root, 5, 40, rng.next_u64());
        let docs: Vec<DataTree> = (0..3)
            .map(|_| sample_tree(&cat.ty, root, 3, 40, 4, rng.next_u64()))
            .collect();
        for q1 in &queries {
            for q2 in &queries {
                match contained_in(q1, q2) {
                    Verdict::ContainedEmpty => {
                        for d in &docs {
                            assert!(
                                q1.eval(d).is_empty(),
                                "unsatisfiable verdict but non-empty answer"
                            );
                        }
                    }
                    Verdict::Contained(_) => {
                        for d in &docs {
                            let sup = q2.eval(d);
                            let replay = match &sup.tree {
                                Some(t) => q1.eval(t),
                                None => Answer::empty(),
                            };
                            assert_eq!(
                                render_answer(&replay),
                                render_answer(&q1.eval(d)),
                                "contained verdict but replay diverged from the source"
                            );
                        }
                    }
                    Verdict::NotContained(_) => {
                        // Sound but silent: no per-document claim.
                    }
                }
            }
        }
        // The cache must agree with the raw procedure end-to-end: it
        // hits exactly when `q ⊑ p`, a hit is the source's answer, and
        // its skeleton-reject count is the descent's `Skeleton` count.
        // An unsatisfiable `p` is never recorded, so nothing is scanned.
        let mut cache = AnswerCache::new();
        let d = &docs[0];
        let p = &queries[0];
        cache.record(p, &p.eval(d));
        let scanned = cache.len() == 1;
        let rejects_before = cache.fast_rejects();
        let mut skeleton_verdicts = 0;
        for q in &queries {
            let verdict = contained_in(q, p);
            if scanned && verdict == Verdict::NotContained(Mismatch::Skeleton) {
                skeleton_verdicts += 1;
            }
            let hit = cache.lookup(q);
            assert_eq!(hit.is_some(), verdict.is_contained(), "{verdict:?}");
            if let Some(hit) = hit {
                assert_eq!(render_answer(&hit), render_answer(&q.eval(d)));
            }
        }
        assert_eq!(cache.fast_rejects() - rejects_before, skeleton_verdicts);
    });
    iixml_par::set_threads(None);
}

#[test]
fn verdict_matches_replay_sequential() {
    verdict_matches_replay_at_width(1);
}

#[test]
fn verdict_matches_replay_parallel() {
    verdict_matches_replay_at_width(4);
}

/// On the price-bound family the decision procedure is *complete*:
/// `price[< b1] ⊑ price[< b2]` exactly when `b1 ≤ b2`.
#[test]
fn price_bound_family_is_decided_exactly() {
    testkit::check("price-bound containment is exact", |rng| {
        let mut cat = catalog(2, rng.next_u64());
        let b1 = rng.range_i64(10, 500);
        let b2 = rng.range_i64(10, 500);
        let q1 = catalog_query_price_below(&mut cat.alpha, b1);
        let q2 = catalog_query_price_below(&mut cat.alpha, b2);
        assert_eq!(
            contained_in(&q1, &q2).is_contained(),
            b1 <= b2,
            "price[< {b1}] ⊑ price[< {b2}] misdecided"
        );
    });
}

/// Runs the same query mix through a cache-on and a cache-off session
/// and checks knowledge bytes after every step, answers per call, and
/// the source-contact reduction at the end.
fn equivalence_matrix_at_width(width: usize) {
    iixml_par::set_threads(Some(width));
    testkit::check_with("cache on/off sessions stay byte-identical", 8, |rng| {
        let mut cat = catalog(rng.range_usize(4, 12), rng.next_u64());
        // A subsumption-heavy mix: a wide view first, then narrower
        // price slices (guaranteed cache hits), then random queries
        // shaped by the type (hit or miss as they fall).
        let root = cat.alpha.get("catalog").expect("catalog root");
        let mut mix = Vec::new();
        let mut bound = rng.range_i64(400, 500);
        for _ in 0..4 {
            mix.push(catalog_query_price_below(&mut cat.alpha, bound));
            bound -= rng.range_i64(40, 90);
        }
        mix.extend(random_queries(
            &cat.alpha,
            &cat.ty,
            root,
            4,
            40,
            rng.next_u64(),
        ));

        let source = || Source::new(cat.doc.clone(), Some(cat.ty.clone()));
        let mut on = Session::open(cat.alpha.clone(), source());
        let mut off = Session::open(cat.alpha.clone(), source());
        off.set_contain_cache(false);

        for (i, q) in mix.iter().enumerate() {
            if rng.bool(0.3) && i > 0 {
                let a = on.answer_with_mediation(q).expect("mediate (cache on)");
                let b = off.answer_with_mediation(q).expect("mediate (cache off)");
                assert_eq!(
                    render(&a),
                    render(&b),
                    "mediated answers diverged at step {i}"
                );
            } else {
                let a = on.fetch(q).expect("fetch (cache on)");
                let b = off.fetch(q).expect("fetch (cache off)");
                assert_eq!(
                    render_answer(&a),
                    render_answer(&b),
                    "fetched answers diverged at step {i}"
                );
            }
            assert_eq!(
                write_incomplete_xml(on.knowledge(), &cat.alpha),
                write_incomplete_xml(off.knowledge(), &cat.alpha),
                "knowledge diverged at step {i}"
            );
        }
        assert!(
            on.source().queries_served < off.source().queries_served,
            "subsumption-heavy mix produced no source-fetch reduction \
             ({} vs {})",
            on.source().queries_served,
            off.source().queries_served
        );
    });
    iixml_par::set_threads(None);
}

#[test]
fn equivalence_matrix_sequential() {
    equivalence_matrix_at_width(1);
}

#[test]
fn equivalence_matrix_parallel() {
    equivalence_matrix_at_width(4);
}
