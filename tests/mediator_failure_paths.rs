//! Failure paths of completion execution: every error must leave the
//! already-known tree byte-for-byte unchanged (execution is
//! transactional — all answers graft or none do), and the webhouse
//! session must reject partial answers before they reach the knowledge.
//! The transactional cases run twice: on `Completion::execute` over a
//! document, and through `Session::answer_with_mediation` against a
//! source changed under the session — both drive the one completion
//! loop, `Completion::run`.

use iixml_core::io::write_incomplete_xml;
use iixml_mediator::{Completion, CompletionError, LocalQuery, Mediator};
use iixml_query::{PsQuery, PsQueryBuilder};
use iixml_tree::{Alphabet, DataTree, Nid};
use iixml_values::{Cond, Rat};
use iixml_webhouse::{
    FaultPlan, FaultySource, LocalAnswer, RetryPolicy, Session, Source, SourceError,
    ValidationError, WebhouseError,
};

fn doc(alpha: &mut Alphabet) -> DataTree {
    let r = alpha.intern("root");
    let a = alpha.intern("a");
    let b = alpha.intern("b");
    let mut t = DataTree::new(Nid(0), r, Rat::ZERO);
    let n1 = t.add_child(t.root(), Nid(1), a, Rat::from(5)).unwrap();
    t.add_child(n1, Nid(3), b, Rat::from(30)).unwrap();
    t.add_child(t.root(), Nid(2), a, Rat::from(9)).unwrap();
    t
}

fn query_all(alpha: &mut Alphabet) -> PsQuery {
    let mut bld = PsQueryBuilder::new(alpha, "root", Cond::True);
    let root = bld.root();
    bld.child(root, "a", Cond::True).unwrap();
    bld.build()
}

#[test]
fn missing_anchor_fails_and_leaves_known_untouched() {
    let mut alpha = Alphabet::new();
    let source = doc(&mut alpha);
    let q = query_all(&mut alpha);
    let mut known = DataTree::new(Nid(0), alpha.get("root").unwrap(), Rat::ZERO);
    let snapshot = known.clone();
    let completion = Completion {
        queries: vec![LocalQuery {
            query: q,
            at: Some(Nid(999)), // no such node at the source
        }],
    };
    match completion.execute(&source, &mut known) {
        Err(CompletionError::MissingAnchor(n)) => assert_eq!(n, Nid(999)),
        other => panic!("expected MissingAnchor, got {other:?}"),
    }
    assert!(known.same_tree(&snapshot));
}

#[test]
fn graft_conflict_fails_and_leaves_known_untouched() {
    let mut alpha = Alphabet::new();
    let source = doc(&mut alpha);
    let q = query_all(&mut alpha);
    // The warehouse "knows" node 1 with a *different* value than the
    // source now ships: the graft must refuse the contradiction.
    let mut known = DataTree::new(Nid(0), alpha.get("root").unwrap(), Rat::ZERO);
    known
        .add_child(known.root(), Nid(1), alpha.get("a").unwrap(), Rat::from(77))
        .unwrap();
    let snapshot = known.clone();
    let completion = Completion {
        queries: vec![LocalQuery { query: q, at: None }],
    };
    match completion.execute(&source, &mut known) {
        Err(CompletionError::Graft { reason }) => {
            assert!(reason.contains("disagrees"), "unexpected reason: {reason}")
        }
        other => panic!("expected a graft failure, got {other:?}"),
    }
    assert!(known.same_tree(&snapshot));
}

#[test]
fn late_failure_rolls_back_earlier_grafts() {
    // Transactionality proper: the first local query succeeds and would
    // graft new nodes, the second fails — the known tree must come out
    // exactly as it went in, with no half-applied answers.
    let mut alpha = Alphabet::new();
    let source = doc(&mut alpha);
    let q_ok = query_all(&mut alpha);
    let q_bad = query_all(&mut alpha);
    let mut known = DataTree::new(Nid(0), alpha.get("root").unwrap(), Rat::ZERO);
    let snapshot = known.clone();
    let completion = Completion {
        queries: vec![
            LocalQuery {
                query: q_ok,
                at: None,
            },
            LocalQuery {
                query: q_bad,
                at: Some(Nid(999)),
            },
        ],
    };
    assert!(completion.execute(&source, &mut known).is_err());
    assert!(
        known.same_tree(&snapshot),
        "first query's graft leaked through a failed completion"
    );
}

#[test]
fn truncated_answers_are_rejected_before_the_knowledge() {
    // A source that always truncates (dropping a subtree, sometimes
    // leaving its provenance dangling) must never get a partial answer
    // past the session: either validation rejects it (sloppy truncation)
    // or — for the locally undetectable consistent truncation — the
    // answer grafts but the data tree stays a prefix of the source.
    // Here we pin the sloppy case and check the knowledge is untouched.
    let mut alpha = Alphabet::new();
    let source_doc = doc(&mut alpha);
    let q = query_all(&mut alpha);
    let plan = FaultPlan {
        truncate: 1.0,
        ..FaultPlan::none()
    };
    let mut saw_rejection = false;
    for seed in 0..16 {
        let faulty = FaultySource::new(Source::new(source_doc.clone(), None), plan, seed);
        let mut session = Session::open(alpha.clone(), faulty);
        session.set_retry(RetryPolicy::none());
        let before = session.data_tree();
        match session.answer_with_mediation(&q) {
            Err(WebhouseError::Source(SourceError::InvalidAnswer(v))) => {
                assert!(
                    matches!(
                        v,
                        ValidationError::DanglingProvenance(_)
                            | ValidationError::MissingProvenance(_)
                    ),
                    "unexpected validation error: {v}"
                );
                saw_rejection = true;
                // Nothing was grafted: the knowledge's data tree is
                // exactly what it was.
                match (before, session.data_tree()) {
                    (None, None) => {}
                    (Some(a), Some(b)) => assert!(a.same_tree(&b)),
                    _ => panic!("knowledge changed across a rejected answer"),
                }
            }
            Ok(_) => {
                // Consistent truncation slipped through (locally
                // undetectable by design); the knowledge still must be
                // well-formed.
                session.knowledge().well_formed().unwrap();
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(
        saw_rejection,
        "no seed in 0..16 produced a sloppy truncation — injector broken?"
    );
}

#[test]
fn degraded_answers_keep_the_prior_knowledge() {
    // End-to-end: fetch a view, kill the source, ask something new via
    // the resilient path — the degraded answer must be served from the
    // *intact* pre-failure knowledge.
    let mut alpha = Alphabet::new();
    let source_doc = doc(&mut alpha);
    let q = query_all(&mut alpha);
    let q_b = {
        let mut bld = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
        let root = bld.root();
        let a = bld.child(root, "a", Cond::True).unwrap();
        bld.child(a, "b", Cond::True).unwrap();
        bld.build()
    };
    let faulty = FaultySource::new(Source::new(source_doc, None), FaultPlan::none(), 1);
    let mut session = Session::open(alpha, faulty);
    session.fetch(&q).unwrap();
    let before = session.data_tree().expect("view pinned data nodes");
    session.source_mut().set_plan(FaultPlan {
        timeout: 1.0,
        ..FaultPlan::none()
    });
    match session.answer_resilient(&q_b) {
        LocalAnswer::Degraded { .. } => {}
        other => panic!("expected degradation, got {other:?}"),
    }
    assert!(session.data_tree().unwrap().same_tree(&before));
    assert_eq!(session.quarantines, 0);
}

/// [`doc`] plus a `c` child of the root (node 4, value 7).
fn doc_with_c(alpha: &mut Alphabet) -> DataTree {
    let mut t = doc(alpha);
    let c = alpha.intern("c");
    t.add_child(t.root(), Nid(4), c, Rat::from(7)).unwrap();
    t
}

/// Mediates `root{a/b, c}` on a session that fetched `root/a` and
/// `root/c[=7]` from [`doc_with_c`] (so it knows both `a` nodes but
/// nothing below them, and node 4 but not whether other `c` nodes
/// exist), after the source document was changed by `change`. The
/// completion asks `root/c` at node 0 (its answer ships the known node
/// 4 again), then `a/b` at node 1, then `a/b` at node 2. Returns the
/// error and the number of local queries the source answered during
/// the call, after checking that the knowledge came out byte-identical.
fn mediate_on_changed_source(change: impl FnOnce(&mut DataTree)) -> (WebhouseError, usize) {
    let mut alpha = Alphabet::new();
    let mut source_doc = doc_with_c(&mut alpha);
    let q_a = query_all(&mut alpha);
    let mut bld = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
    let root = bld.root();
    bld.child(root, "c", Cond::eq(Rat::from(7))).unwrap();
    let q_c7 = bld.build();
    let mut bld = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
    let root = bld.root();
    let a = bld.child(root, "a", Cond::True).unwrap();
    bld.child(a, "b", Cond::True).unwrap();
    bld.child(root, "c", Cond::True).unwrap();
    let q = bld.build();

    let mut session = Session::open(alpha.clone(), Source::new(source_doc.clone(), None));
    session.fetch(&q_a).unwrap();
    session.fetch(&q_c7).unwrap();
    let anchors: Vec<Option<Nid>> = Mediator::new(session.knowledge())
        .complete(&q)
        .queries
        .iter()
        .map(|lq| lq.at)
        .collect();
    assert_eq!(anchors, [Some(Nid(0)), Some(Nid(1)), Some(Nid(2))]);

    change(&mut source_doc);
    session.source_mut().update(source_doc);
    let before = write_incomplete_xml(session.knowledge(), &alpha);
    let served = session.source().queries_served;
    let err = session
        .answer_with_mediation(&q)
        .expect_err("the source changed under the session");
    assert_eq!(
        write_incomplete_xml(session.knowledge(), &alpha),
        before,
        "a failed mediation changed the knowledge"
    );
    (err, session.source().queries_served - served)
}

/// Rebuilds `t` without the subtree rooted at node `gone`.
fn without(t: &DataTree, gone: Nid) -> DataTree {
    let root = t.root();
    let mut out = DataTree::new(t.nid(root), t.label(root), t.value(root));
    for n in t.preorder().into_iter().skip(1) {
        let parent = t.parent(n).and_then(|p| out.by_nid(t.nid(p)));
        if let (Some(p), false) = (parent, t.nid(n) == gone) {
            out.add_child(p, t.nid(n), t.label(n), t.value(n)).unwrap();
        }
    }
    out
}

#[test]
fn session_missing_anchor_fails_and_leaves_knowledge_untouched() {
    // Node 1, the second query's anchor, is gone.
    let (err, asked) = mediate_on_changed_source(|t| *t = without(t, Nid(1)));
    assert_eq!(
        err,
        WebhouseError::Source(SourceError::MissingAnchor(Nid(1)))
    );
    assert_eq!(asked, 1);
}

#[test]
fn session_graft_conflict_fails_and_leaves_knowledge_untouched() {
    // Node 4 now carries another value: the first answer conflicts with
    // the known node, so the queries at nodes 1 and 2 are never asked.
    let (err, asked) = mediate_on_changed_source(|t| {
        let n4 = t.by_nid(Nid(4)).unwrap();
        t.set_value(n4, Rat::from(8));
    });
    match err {
        WebhouseError::Completion(CompletionError::Graft { reason }) => {
            assert!(reason.contains("disagrees"), "unexpected reason: {reason}")
        }
        other => panic!("expected a graft failure, got {other:?}"),
    }
    assert_eq!(asked, 1);
}

#[test]
fn session_late_failure_rolls_back_earlier_grafts() {
    // Node 2, the last anchor, is gone: the answers at nodes 0 and 1
    // graft (the second adds node 3), then the query at node 2 fails.
    let (err, asked) = mediate_on_changed_source(|t| *t = without(t, Nid(2)));
    assert_eq!(
        err,
        WebhouseError::Source(SourceError::MissingAnchor(Nid(2)))
    );
    assert_eq!(asked, 2);
}
