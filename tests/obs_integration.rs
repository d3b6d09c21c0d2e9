//! Integration test for the observability layer: driving Algorithm
//! Refine over the Example 3.2 blowup family (plus an eval and a world
//! enumeration) must emit the documented metric keys with sane values.
//!
//! Metric names come from the `iixml_obs::keys` registry — never string
//! literals — and the test closes the loop in both directions: every
//! key this scenario emits must be registered, and every registry key
//! the scenario is expected to exercise must show up in the snapshot.
//!
//! Kept as a single test function: the obs registry is process-global,
//! and one linear scenario keeps the asserted counts deterministic.

use iixml_core::Refiner;
use iixml_obs::keys;
use iixml_oracle::{enumerate_rep, Bounds};
use iixml_query::parse_ps_query;
use iixml_query::Answer;
use iixml_tree::Alphabet;
use iixml_webhouse::{Session, Source};

#[test]
fn refine_pipeline_emits_expected_metrics() {
    iixml_obs::reset();
    iixml_obs::set_enabled(true);

    // The Example 3.2 blowup: 4 empty-answer steps square the disjunct
    // count each time.
    let mut alpha = Alphabet::from_names(["root", "a", "b"]);
    let queries = iixml_gen::blowup_queries(&mut alpha, 4);
    let mut refiner = Refiner::new(&alpha);
    for q in &queries {
        refiner.refine(&alpha, q, &Answer::empty()).unwrap();
    }

    // A mediated session: the mediator's decomposed local queries drive
    // the ⋊⋉ join into genuine multi-way fan-out.
    let unchanged_before = iixml_obs::snapshot()
        .counter(keys::CORE_MINIMIZE_UNCHANGED)
        .unwrap_or(0);
    let mut cat = iixml_gen::catalog(4, 42);
    let q_view = iixml_gen::catalog_query_price_below(&mut cat.alpha, 250);
    let q_cam = iixml_gen::catalog_query_camera_pictures(&mut cat.alpha);
    let mut session = Session::open(
        cat.alpha.clone(),
        Source::new(cat.doc.clone(), Some(cat.ty.clone())),
    );
    session.fetch(&q_view).unwrap();
    // Ask down both branches of the decision: the fetched view twice
    // (the first determined Ask of a knowledge goes through q(T), the
    // second builds the known data tree and answers from it), the
    // camera query (not yet fetched) through q(T).
    for _ in 0..2 {
        assert!(session.answer_locally(&q_view).is_complete());
    }
    assert!(!session.answer_locally(&q_cam).is_complete());
    let _ = session.answer_with_mediation(&q_cam).unwrap();
    // A revisit: the knowledge already implies the pair.
    session.fetch(&q_view).unwrap();
    // A new price window: its product is trim, and its certificate
    // shows it minimal.
    let q_window = parse_ps_query(
        "catalog/product{name, price[>= 300 & < 305]}",
        &mut cat.alpha,
    )
    .unwrap();
    session.fetch(&q_window).unwrap();

    // One direct evaluation and one bounded enumeration so the query
    // and oracle families show up too.
    let _ans = q_view.eval(&cat.doc);
    let en = enumerate_rep(
        refiner.current(),
        Bounds {
            star_cap: 1,
            max_depth: 3,
            max_worlds: 16,
            values_per_interval: 1,
        },
    );

    let snap = iixml_obs::snapshot();

    // Registry conformance, emitted → declared: nothing in the snapshot
    // may bypass iixml_obs::keys (a typo'd key would silently mint a
    // fresh metric; the iixml-vet `metrics` rule enforces the same
    // property statically).
    for name in snap.counters.keys() {
        assert!(keys::is_registered(name), "unregistered counter {name:?}");
    }
    for name in snap.histograms.keys() {
        assert!(keys::is_registered(name), "unregistered histogram {name:?}");
    }
    // And declared → well-formed: the registry itself must only hold
    // names that pass its own membership test.
    for name in keys::COUNTERS.iter().chain(keys::HISTOGRAMS) {
        assert!(
            keys::is_registered(name),
            "registry rejects its own {name:?}"
        );
    }

    // Refine instrumentation (Theorem 3.4's loop): 4 blowup steps plus
    // at least one session-side refinement.
    let steps = snap.counter(keys::CORE_REFINE_STEPS).unwrap_or(0);
    assert!(steps >= 5, "expected >= 5 refine steps, saw {steps}");
    let fanout = snap
        .histogram(keys::CORE_REFINE_JOIN_FANOUT)
        .expect("join fan-out histogram present");
    assert!(fanout.count > 0 && fanout.max >= 2, "the ⋊⋉ join fans out");
    assert!(
        snap.counter(keys::CORE_REFINE_DISJUNCTIVE_EXPANSIONS)
            .unwrap_or(0)
            >= 1,
        "the mediated chain must trigger disjunctive expansion"
    );
    // The catalog chain's steps merge nothing, so minimize hands the
    // product back unchanged instead of rebuilding it.
    let unchanged = snap.counter(keys::CORE_MINIMIZE_UNCHANGED).unwrap_or(0);
    assert!(
        unchanged > unchanged_before,
        "the catalog chain never kept its product unchanged"
    );
    // Those steps keep their product on its certificate, without
    // running minimize.
    assert!(
        snap.counter(keys::CORE_REFINE_CERTIFIED).unwrap_or(0) >= 1,
        "no Refine step kept a certified product"
    );
    // Every registered core-pipeline histogram this scenario drives.
    for key in [
        keys::CORE_REFINE_TQA_SIZE,
        keys::CORE_REFINE_STEP_SIZE,
        keys::CORE_REFINE_INTERSECT_NS,
        keys::CORE_REFINE_TRIM_NS,
        keys::CORE_REFINE_MINIMIZE_NS,
        keys::CORE_TYPE_INTERSECT_RESTRICT_NS,
        keys::CORE_MINIMIZE_CALL_NS,
    ] {
        let h = snap
            .histogram(key)
            .unwrap_or_else(|| panic!("missing {key}"));
        assert!(h.count > 0, "{key} never observed");
    }
    // Step sizes are recorded post-minimization, one per refine step,
    // and the blowup's final tree is the largest thing seen.
    let sizes = snap.histogram(keys::CORE_REFINE_STEP_SIZE).unwrap();
    assert_eq!(sizes.count, steps);
    assert!(sizes.max as usize >= refiner.current().size());

    // Query evaluation.
    assert!(snap.counter(keys::QUERY_EVAL_CALLS).unwrap_or(0) >= 1);
    let vals = snap
        .histogram(keys::QUERY_EVAL_VALUATIONS)
        .expect("valuation histogram present");
    assert!(vals.count >= 1);

    // Oracle enumeration.
    let worlds = snap
        .histogram(keys::ORACLE_ENUMERATE_WORLDS)
        .expect("world-count histogram present");
    assert_eq!(worlds.count, 1);
    assert_eq!(worlds.max as usize, en.worlds.len());

    // The revisit Fetch left the knowledge as it was.
    assert!(
        snap.counter(keys::CORE_REFINE_IMPLIED).unwrap_or(0) >= 1,
        "the revisit Fetch was not counted as implied"
    );

    // The Ask decision: one counter per branch.
    for key in [keys::CORE_ASK_FROM_KNOWN, keys::CORE_ASK_FROM_ANSWER_TYPE] {
        assert!(snap.counter(key).unwrap_or(0) >= 1, "{key} never counted");
    }

    // Mediator / webhouse instrumentation.
    assert!(snap.counter(keys::MEDIATOR_LOCAL_QUERIES).unwrap_or(0) >= 1);
    assert!(snap.histogram(keys::MEDIATOR_EXECUTE_NS).is_some());
    assert!(
        snap.histogram(&keys::webhouse_fetch_ns("anon")).is_some(),
        "per-source fetch latency present (label defaults to 'anon')"
    );

    // Disabled mode records nothing further.
    iixml_obs::set_enabled(false);
    let before = iixml_obs::snapshot().counter(keys::CORE_REFINE_STEPS);
    let mut r2 = Refiner::new(&alpha);
    r2.refine(&alpha, &queries[0], &Answer::empty()).unwrap();
    assert_eq!(
        iixml_obs::snapshot().counter(keys::CORE_REFINE_STEPS),
        before
    );
}
