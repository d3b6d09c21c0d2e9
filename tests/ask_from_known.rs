//! Ask from the known data tree against Ask through `q(T)`.
//!
//! `Refiner::answer` first runs a dry run of the Theorem 3.14
//! construction (`IncompleteTree::determination`). When no root can
//! match it answers empty; when the empty answer is impossible and every
//! pair the construction reaches targets a data node, it answers `q` on
//! the known data tree `D`, which the second such Ask of a knowledge
//! builds and later ones reuse (the first goes through `q(T)`).
//! Otherwise it builds `q(T)` as before. On every input here its
//! verdict (complete or partial) and its serialized answer must equal
//! the reference: `query`, then `fully_answerable`, then `the_answer`.
//! Every probe is asked twice in a row, so each determined one is
//! answered from `D` at least once.
//!
//! The inputs are small random incomplete trees, typed Refine chains
//! on catalogs (one `Refiner` across a chain, so a `D` kept past a
//! Refine would show), and journaled sessions asked between Fetches,
//! quarantines, source updates and recoveries. Each test requires both
//! branches to have run. Where the fast path answers, the answer is
//! also checked against a represented world: a match in `D` is a match
//! in every world, since ps-queries have no negation.
//!
//! Every probe also checks the kernels the fast path runs on:
//! `match_sets` (bucketed by the labels the knowledge carries) must give
//! the Poss/Cert sets of `iixml_oracle::match_sets_reference` on every
//! (query node, symbol) pair; `eval_tree` must build the tree `eval`
//! builds, without provenance; and every knowledge the test builds or
//! derives (parse, product, trim, quotient, type restriction,
//! `universal`, `q(T)`, the mediator's `relax`) must carry the labels
//! its node map and targets give.

use iixml_core::io::{parse_incomplete_xml, write_incomplete_xml};
use iixml_core::refine::{intersect, query_answer_tree};
use iixml_core::type_intersect::restrict_to_type;
use iixml_core::{
    match_sets, ConditionalTreeType, Determination, Disjunction, IncompleteTree, NodeInfo, Refiner,
    SAtom, Sym, SymTarget, Verdict,
};
use iixml_gen::rng::DetRng;
use iixml_gen::testkit::check_with;
use iixml_gen::{catalog, random_queries, Catalog};
use iixml_oracle::match_sets_reference;
use iixml_query::{parse_ps_query, Answer, PsQuery};
use iixml_tree::xmlio::write_tree;
use iixml_tree::{Alphabet, DataTree, Label, Mult, Nid, NidGen};
use iixml_values::{IntervalSet, Rat};
use iixml_webhouse::{LocalAnswer, Session, Source};
use std::path::PathBuf;

/// How often each branch of the Ask decision ran.
#[derive(Default, Debug)]
struct Branches {
    from_known: usize,
    from_answer_type: usize,
}

impl Branches {
    fn note(&mut self, d: Determination) {
        match d {
            Determination::Empty | Determination::Known => self.from_known += 1,
            Determination::Undecided => self.from_answer_type += 1,
        }
    }

    fn assert_both(&self) {
        assert!(self.from_known > 0, "no Ask answered from D: {self:?}");
        assert!(
            self.from_answer_type > 0,
            "no Ask fell back to q(T): {self:?}"
        );
    }
}

/// A verdict in serialized form: complete with the answer's text, or
/// partial with `q(T)`'s text and its empty flag.
#[derive(Debug, PartialEq, Eq)]
enum Text {
    Complete(Option<String>),
    Partial(String, bool),
}

fn text(v: Verdict, alpha: &Alphabet) -> Text {
    match v {
        Verdict::Complete(t) => Text::Complete(t.map(|t| write_tree(&t, alpha))),
        Verdict::Partial(qt) => {
            Text::Partial(write_incomplete_xml(&qt.tree, alpha), qt.empty_possible)
        }
    }
}

fn local_text(a: LocalAnswer, alpha: &Alphabet) -> Text {
    match a {
        LocalAnswer::Complete(t) => text(Verdict::Complete(t), alpha),
        LocalAnswer::Partial(qt) => text(Verdict::Partial(qt), alpha),
        LocalAnswer::Degraded { .. } => panic!("answer_locally never degrades"),
    }
}

/// The reference verdict: build `q(T)`, then decide on it.
fn reference(it: &IncompleteTree, q: &PsQuery, alpha: &Alphabet) -> Text {
    text(Verdict::from_answer_type(it.query(q)), alpha)
}

/// Where the dry run answered, the answer is what a represented world
/// answers (when the knowledge has a witness).
fn check_world(it: &IncompleteTree, q: &PsQuery, d: Determination, got: &Text, alpha: &Alphabet) {
    if d == Determination::Undecided {
        return;
    }
    let Some(world) = it.witness(&mut NidGen::starting_at(1 << 50)) else {
        return;
    };
    let want = q.eval(&world).tree.map(|mut t| {
        t.sort_children_by_nid();
        write_tree(&t, alpha)
    });
    assert_eq!(got, &Text::Complete(want), "a world answers otherwise");
}

/// `it` carries, for every symbol, the label its target names: the
/// target label, or the node map's `λ(n)`.
fn assert_labels(it: &IncompleteTree, what: &str) {
    let ty = it.ty();
    assert_eq!(
        it.labels().len(),
        ty.sym_count(),
        "{what}: one label per symbol"
    );
    for s in ty.syms() {
        let want = match ty.info(s).target {
            SymTarget::Lab(l) => l,
            SymTarget::Node(n) => it.node_info(n).expect("a known node").label,
        };
        assert_eq!(it.label(s), want, "{what}: label of {s:?}");
    }
}

/// The knowledge `it` and every tree derived from it carry the right
/// labels: its trim, its minimization (a quotient when it merges), its
/// text parsed back, `q(T)` and the mediator's relaxation.
fn check_derived_labels(it: &IncompleteTree, q: &PsQuery, alpha: &Alphabet) {
    assert_labels(it, "knowledge");
    assert_labels(&it.trim(), "trim");
    assert_labels(&it.minimize(), "minimize");
    let mut a = alpha.clone();
    let parsed = parse_incomplete_xml(&write_incomplete_xml(it, alpha), &mut a).unwrap();
    assert_labels(&parsed, "parse");
    assert_labels(&it.query(q).tree, "q(T)");
    assert_labels(&iixml_mediator::relax(it, it.size() / 2), "relax");
}

/// `match_sets` gives the reference Poss/Cert on every (query node,
/// symbol) pair.
fn check_match_sets(it: &IncompleteTree, q: &PsQuery) {
    let (got, want) = (match_sets(it, q), match_sets_reference(it, q));
    for &m in q.preorder() {
        for s in it.ty().syms() {
            assert_eq!(got.poss(m, s), want.poss(m, s), "Poss({m:?}) at {s:?}");
            assert_eq!(got.cert(m, s), want.cert(m, s), "Cert({m:?}) at {s:?}");
        }
    }
}

/// `eval_tree` builds exactly the tree `eval` builds: the same nodes in
/// the same order, written out the same.
fn check_eval(q: &PsQuery, t: &DataTree, alpha: &Alphabet) {
    let full: Answer = q.eval(t);
    let bare = q.eval_tree(t);
    let shape = |t: &Option<DataTree>| {
        t.as_ref()
            .map(|t| (write_tree(t, alpha), t.nids().collect::<Vec<_>>()))
    };
    assert_eq!(
        shape(&full.tree),
        shape(&bare),
        "eval_tree differs from eval"
    );
}

/// The kernels behind the Ask: match sets on the knowledge and its
/// trim, and `eval` with and without provenance on the known data tree
/// and on a represented world.
fn check_kernels(it: &IncompleteTree, q: &PsQuery, alpha: &Alphabet) {
    check_match_sets(it, q);
    check_match_sets(&it.trim(), q);
    if let Some(d) = it.data_tree() {
        check_eval(q, &d, alpha);
    }
    if let Some(world) = it.witness(&mut NidGen::starting_at(1 << 50)) {
        check_eval(q, &world, alpha);
    }
}

/// Asks `q` of `refiner` and compares with the reference on its
/// current knowledge.
fn check_refiner(refiner: &mut Refiner, q: &PsQuery, alpha: &Alphabet, b: &mut Branches) {
    let d = refiner.current().determination(q);
    b.note(d);
    check_kernels(refiner.current(), q, alpha);
    check_derived_labels(refiner.current(), q, alpha);
    let want = reference(refiner.current(), q, alpha);
    for _ in 0..2 {
        let got = text(refiner.answer(q), alpha);
        assert_eq!(got, want, "verdict differs ({d:?})");
        check_world(refiner.current(), q, d, &got, alpha);
    }
}

/// Refines `refiner` by `(q, ans)`, first checking the labels of the
/// product the step builds.
fn refine_checked(refiner: &mut Refiner, alpha: &Alphabet, q: &PsQuery, ans: &Answer) {
    let tqa = query_answer_tree(q, ans, alpha).unwrap();
    assert_labels(&tqa, "T_{q,A}");
    assert_labels(&intersect(refiner.current(), &tqa).unwrap(), "product");
    refiner.refine(alpha, q, ans).unwrap();
}

fn random_cond(rng: &mut DetRng) -> IntervalSet {
    let v = Rat::from(rng.range_i64(0, 4));
    match rng.below(5) {
        0 => IntervalSet::eq(v),
        1 => IntervalSet::lt(v),
        2 => IntervalSet::ge(v),
        3 => IntervalSet::ne(v),
        _ => IntervalSet::all(),
    }
}

/// A small random incomplete tree: a random data tree whose nodes each
/// get a symbol (with its child nodes mandatory, and random
/// label-targeted entries or alternatives beside them), plus a few
/// label-targeted symbols. Many are not well formed; callers skip those.
fn random_itree(rng: &mut DetRng, labels: &[Label]) -> IncompleteTree {
    let n_nodes = rng.range_usize(1, 7);
    let mut nodes = std::collections::BTreeMap::new();
    let mut parent = vec![None];
    for i in 0..n_nodes {
        let info = NodeInfo {
            label: *rng.choose(labels),
            value: Rat::from(rng.range_i64(0, 4)),
        };
        nodes.insert(Nid(i as u64), info);
        if i > 0 {
            parent.push(Some(rng.below(i as u64) as usize));
        }
    }
    let mut ty = ConditionalTreeType::new();
    let node_syms: Vec<Sym> = (0..n_nodes)
        .map(|i| {
            let value = nodes[&Nid(i as u64)].value;
            ty.add_symbol(SymTarget::Node(Nid(i as u64)), IntervalSet::eq(value))
        })
        .collect();
    let lab_syms: Vec<Sym> = (0..rng.range_usize(0, 4))
        .map(|_| ty.add_symbol(SymTarget::Lab(*rng.choose(labels)), random_cond(rng)))
        .collect();
    let pick_lab = |rng: &mut DetRng, entries: &mut Vec<(Sym, Mult)>| {
        for &l in &lab_syms {
            if rng.bool(0.5) {
                entries.push((l, *rng.choose(&[Mult::Opt, Mult::Star])));
            }
        }
    };
    for (i, &s) in node_syms.iter().enumerate() {
        let mut entries: Vec<(Sym, Mult)> = (0..n_nodes)
            .filter(|&c| parent[c] == Some(i))
            .map(|c| (node_syms[c], Mult::One))
            .collect();
        pick_lab(rng, &mut entries);
        let mut atoms = vec![SAtom::new(entries)];
        if rng.bool(0.2) {
            let mut alt = Vec::new();
            pick_lab(rng, &mut alt);
            atoms.push(SAtom::new(alt));
        }
        ty.set_mu(s, Disjunction(atoms));
    }
    for &l in &lab_syms {
        let mut entries = Vec::new();
        for &c in &lab_syms {
            if c != l && rng.bool(0.2) {
                entries.push((c, Mult::Star));
            }
        }
        ty.set_mu(l, Disjunction::single(SAtom::new(entries)));
    }
    ty.add_root(node_syms[0]);
    IncompleteTree::new(nodes, ty).expect("symbols target existing nodes")
}

#[test]
fn random_trees_answer_like_the_answer_type() {
    let c = catalog(1, 0);
    let labels: Vec<Label> = c.alpha.labels().collect();
    let mut b = Branches::default();
    check_with("ask_from_known_random_trees", 64, |rng| {
        for _ in 0..8 {
            let t = random_itree(rng, &labels);
            if t.well_formed().is_err() {
                continue;
            }
            let root = t.node_info(Nid(0)).map(|i| i.label).unwrap();
            let queries = random_queries(&c.alpha, &c.ty, root, 3, 4, rng.next_u64());
            let mut refiner = Refiner::from_tree(t);
            for q in &queries {
                check_refiner(&mut refiner, q, &c.alpha, &mut b);
            }
        }
    });
    b.assert_both();
}

/// The query of price window `[lo, hi)` on a catalog.
fn window(lo: i64, hi: i64, alpha: &mut Alphabet) -> PsQuery {
    let text = format!("catalog/product{{name, price[>= {lo} & < {hi}]}}");
    parse_ps_query(&text, alpha).unwrap()
}

/// Probes for a catalog: fetched windows, spans of two windows, the
/// whole product list, and random type-shaped queries.
fn probes(c: &Catalog, alpha: &mut Alphabet, rng: &mut DetRng) -> Vec<PsQuery> {
    let root = c.alpha.get("catalog").unwrap();
    let mut out = random_queries(&c.alpha, &c.ty, root, 3, 500, rng.next_u64());
    for _ in 0..3 {
        let lo = rng.range_i64(0, 12) * 40;
        out.push(window(lo, lo + 40, alpha));
        out.push(window(lo, lo + 80, alpha));
    }
    out.push(parse_ps_query("catalog/product{name, price}", alpha).unwrap());
    out.push(parse_ps_query("catalog/product{name, price[< 10]}", alpha).unwrap());
    out
}

/// Typed Refine chains: window Fetches and random queries, one
/// `Refiner` throughout, every probe asked after every step.
#[test]
fn typed_refine_chains_answer_like_the_answer_type() {
    let mut b = Branches::default();
    check_with("ask_from_known_typed_chains", 16, |rng| {
        let c = catalog(rng.range_usize(2, 10), rng.below(1_000));
        let mut alpha = c.alpha.clone();
        let probes = probes(&c, &mut alpha, rng);
        let labels: Vec<Label> = alpha.labels().collect();
        let universal = IncompleteTree::universal(&labels);
        assert_labels(&universal, "universal");
        let typed = restrict_to_type(&universal, &c.ty);
        assert_labels(&typed, "type restriction");
        let mut refiner = Refiner::from_tree(typed);
        let mut chain: Vec<PsQuery> = (0..4)
            .map(|_| {
                let lo = rng.range_i64(0, 12) * 40;
                window(lo, lo + 40, &mut alpha)
            })
            .collect();
        let root = alpha.get("catalog").unwrap();
        chain.extend(random_queries(&alpha, &c.ty, root, 2, 500, rng.next_u64()));
        chain.push(parse_ps_query("catalog/product{name, price}", &mut alpha).unwrap());
        for q in &chain {
            for p in &probes {
                check_refiner(&mut refiner, p, &alpha, &mut b);
            }
            refine_checked(&mut refiner, &alpha, q, &q.eval(&c.doc));
        }
        for p in &probes {
            check_refiner(&mut refiner, p, &alpha, &mut b);
        }
    });
    b.assert_both();
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iixml-askknown-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Asks every probe of a session and compares with the reference on
/// its knowledge.
fn check_session(s: &mut Session, probes: &[PsQuery], b: &mut Branches) {
    for q in probes {
        let d = s.knowledge().determination(q);
        b.note(d);
        check_kernels(s.knowledge(), q, s.alphabet());
        assert_labels(s.knowledge(), "session knowledge");
        let want = reference(s.knowledge(), q, s.alphabet());
        for _ in 0..2 {
            let got = s.answer_locally(q);
            assert_eq!(
                local_text(got, s.alphabet()),
                want,
                "session verdict differs ({d:?})"
            );
        }
    }
}

/// Journaled typed sessions: Ask between Fetches, after a quarantine
/// (a source that changed without notice), after a source update and
/// after recovery. Adjacent windows are fetched one by one and their
/// span asked in between, so an Ask answered from a `D` kept across a
/// change would miss the second window's products.
#[test]
fn sessions_answer_like_the_answer_type_across_resets() {
    let dir = scratch("sessions");
    let mut b = Branches::default();
    let mut quarantines = 0;
    check_with("ask_from_known_sessions", 8, |rng| {
        let seed = rng.below(1_000);
        let c = catalog(rng.range_usize(4, 12), seed);
        let mut alpha = c.alpha.clone();
        let probes = probes(&c, &mut alpha, rng);
        let lo = rng.range_i64(0, 10) * 40;
        let (first, second) = (
            window(lo, lo + 40, &mut alpha),
            window(lo + 40, lo + 80, &mut alpha),
        );
        let span = window(lo, lo + 80, &mut alpha);
        let all = parse_ps_query("catalog/product{name, price}", &mut alpha).unwrap();
        let probes: Vec<PsQuery> = probes.into_iter().chain([span]).collect();
        let source = || Source::new(c.doc.clone(), Some(c.ty.clone()));
        let at = dir.join(format!("s{seed}"));
        let _ = std::fs::remove_dir_all(&at);
        let mut s = Session::open_journaled(alpha.clone(), source(), &at).unwrap();
        check_session(&mut s, &probes, &mut b);
        for q in [&first, &second, &all] {
            s.fetch(q).unwrap();
            check_session(&mut s, &probes, &mut b);
        }
        // A source that changed without notice: mediating a query the
        // knowledge cannot answer finds its anchors gone and quarantines.
        let other = catalog(1, seed + 1);
        s.source_mut().update(other.doc.clone());
        let cameras = iixml_gen::catalog_query_camera_pictures(s.alphabet_mut());
        let before = s.quarantines;
        let _ = s.answer_resilient(&cameras);
        quarantines += s.quarantines - before;
        check_session(&mut s, &probes, &mut b);
        // An announced source update, then the original document back.
        s.source_updated(c.doc.clone());
        check_session(&mut s, &probes, &mut b);
        for q in [&first, &second] {
            s.fetch(q).unwrap();
            check_session(&mut s, &probes, &mut b);
        }
        s.sync_journal().unwrap();
        drop(s);
        let (mut s, _) = Session::recover(&at, source()).unwrap();
        check_session(&mut s, &probes, &mut b);
        s.fetch(&all).unwrap();
        check_session(&mut s, &probes, &mut b);
    });
    let _ = std::fs::remove_dir_all(&dir);
    b.assert_both();
    assert!(quarantines > 0, "no session was quarantined");
}

/// The dry run answers a fully fetched window from `D`, and a window
/// reaching past the fetched data from `q(T)`.
#[test]
fn fetched_window_is_answered_from_known_data() {
    let c = catalog(16, 7);
    let mut alpha = c.alpha.clone();
    let fetched = window(100, 200, &mut alpha);
    let inside = window(120, 180, &mut alpha);
    let past = window(150, 250, &mut alpha);
    let labels: Vec<Label> = alpha.labels().collect();
    let mut refiner =
        Refiner::from_tree(restrict_to_type(&IncompleteTree::universal(&labels), &c.ty));
    refiner
        .refine(&alpha, &fetched, &fetched.eval(&c.doc))
        .unwrap();
    let k = refiner.current();
    assert_eq!(k.determination(&fetched), Determination::Known);
    assert_eq!(k.determination(&inside), Determination::Known);
    assert_eq!(k.determination(&past), Determination::Undecided);
    let nothing = parse_ps_query("nothing", &mut alpha).unwrap();
    assert_eq!(k.determination(&nothing), Determination::Empty);
    let mut b = Branches::default();
    for q in [&fetched, &inside, &past, &nothing] {
        check_refiner(&mut refiner, q, &alpha, &mut b);
    }
    b.assert_both();
    let answer = match refiner.answer(&fetched) {
        Verdict::Complete(Some(t)) => t,
        other => panic!("expected a complete answer, got {other:?}"),
    };
    let direct = fetched.eval(&c.doc).tree.unwrap();
    assert!(answer.same_tree(&direct), "the fetched window's own answer");
}
