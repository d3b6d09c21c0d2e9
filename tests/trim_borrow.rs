//! The borrowed trim (`IncompleteTree::trimmed`) against the rebuilding
//! one (`IncompleteTree::trim`).
//!
//! Trimming (Corollary 2.6) is idempotent, so read-only callers borrow
//! the input when trimming would change nothing. Two properties pin
//! that down on seeded random inputs:
//!
//! * `trimmed()` is `Borrowed` exactly when `trim()` is structurally
//!   equal to the input (type and data nodes), and otherwise equals
//!   `trim()`;
//! * every read-only consumer answers the same on `T` and on
//!   `T.trim()`: `q(T)` (Theorem 3.14), full answerability and the
//!   answer (Corollary 3.15), the sure answer, the answer prefixes
//!   (Theorem 3.17), plus `data_tree`, `well_formed` and the prefix
//!   checks (Theorem 2.8) on `T` itself.
//!
//! Inputs are small random incomplete trees, which are rarely trim,
//! and the knowledge of typed sessions along random Refine chains, both
//! as `Session` leaves it and with seeded junk added: unreferenced data
//! nodes, unreachable symbols, unproductive optional entries and
//! unrealizable atoms.

use iixml_core::{
    ConditionalTreeType, Disjunction, IncompleteTree, NodeInfo, QueryOnIncomplete, SAtom, Sym,
    SymTarget,
};
use iixml_gen::rng::DetRng;
use iixml_gen::testkit::check_with;
use iixml_gen::{catalog, random_queries, Catalog};
use iixml_query::{parse_ps_query, PsQuery};
use iixml_tree::xmlio::write_tree;
use iixml_tree::{Alphabet, DataTree, Label, Mult, Nid};
use iixml_values::{IntervalSet, Rat};
use iixml_webhouse::{Session, Source};
use std::borrow::Cow;
use std::collections::BTreeMap;

type Structure = (
    BTreeMap<Nid, NodeInfo>,
    Vec<(SymTarget, IntervalSet, Disjunction)>,
    Vec<Sym>,
);

/// Everything `trim()` can change: data nodes, symbols with their
/// metadata and right-hand sides, and roots.
fn structure(it: &IncompleteTree) -> Structure {
    let ty = it.ty();
    let syms = ty
        .syms()
        .map(|s| {
            let info = ty.info(s);
            (info.target, info.cond.clone(), ty.mu(s).clone())
        })
        .collect();
    (it.nodes().clone(), syms, ty.roots().to_vec())
}

fn is_borrowed(it: &IncompleteTree) -> bool {
    matches!(it.trimmed(), Cow::Borrowed(_))
}

fn xml(t: Option<DataTree>, alpha: &Alphabet) -> Option<String> {
    t.map(|t| write_tree(&t, alpha))
}

/// Paths taken by [`check_trimmed`], so the properties can require
/// that both were exercised.
#[derive(Default)]
struct Paths {
    borrowed: usize,
    owned: usize,
}

/// `trimmed()` borrows exactly when `trim()` would rebuild an equal
/// tree, returns `trim()` otherwise, and `trim()` is a fixpoint.
fn check_trimmed(it: &IncompleteTree, paths: &mut Paths) {
    let trim = it.trim();
    let unchanged = structure(&trim) == structure(it);
    let borrowed = is_borrowed(it);
    assert_eq!(
        borrowed, unchanged,
        "trimmed() is Borrowed iff trim() is unchanged"
    );
    assert!(structure(&it.trimmed()) == structure(&trim));
    assert!(is_borrowed(&trim), "trim() output is already trim");
    if borrowed {
        paths.borrowed += 1;
    } else {
        paths.owned += 1;
    }
}

/// Every read-only consumer agrees on `a` and on `b = a.trim()`.
fn check_same_answers(
    a: &IncompleteTree,
    b: &IncompleteTree,
    q: &PsQuery,
    candidates: &[DataTree],
    alpha: &Alphabet,
) {
    assert_eq!(a.well_formed(), b.well_formed());
    assert_eq!(xml(a.data_tree(), alpha), xml(b.data_tree(), alpha));
    for t in candidates {
        assert_eq!(a.possible_prefix(t), b.possible_prefix(t));
        assert_eq!(a.certain_prefix(t), b.certain_prefix(t));
    }
    let (qa, qb) = (a.query(q), b.query(q));
    assert!(structure(&qa.tree) == structure(&qb.tree), "q(T) differs");
    assert_eq!(qa.empty_possible, qb.empty_possible);
    // The answer methods, once on the computed answers and once on the
    // input trees standing in as untrimmed answer descriptions.
    let as_answer = |tree: &IncompleteTree| QueryOnIncomplete {
        tree: tree.clone(),
        empty_possible: false,
    };
    for (x, y) in [(qa, qb), (as_answer(a), as_answer(b))] {
        assert_eq!(x.fully_answerable(), y.fully_answerable());
        assert_eq!(xml(x.the_answer(), alpha), xml(y.the_answer(), alpha));
        assert_eq!(xml(x.sure_answer(), alpha), xml(y.sure_answer(), alpha));
        for t in candidates {
            assert_eq!(x.possible_answer_prefix(t), y.possible_answer_prefix(t));
            assert_eq!(x.certain_answer_prefix(t), y.certain_answer_prefix(t));
        }
    }
}

fn random_cond(rng: &mut DetRng) -> IntervalSet {
    let v = Rat::from(rng.range_i64(0, 4));
    match rng.below(6) {
        0 => IntervalSet::eq(v),
        1 => IntervalSet::lt(v),
        2 => IntervalSet::ge(v),
        3 => IntervalSet::ne(v),
        4 if rng.bool(0.3) => IntervalSet::empty(),
        _ => IntervalSet::all(),
    }
}

fn random_mult(rng: &mut DetRng) -> Mult {
    *rng.choose(&[Mult::One, Mult::Opt, Mult::Plus, Mult::Star])
}

/// A small random incomplete tree over `labels`: random data nodes,
/// symbols targeting labels or nodes, random disjunctions and roots.
/// Most are not trim; some are empty or ill-formed.
fn random_itree(rng: &mut DetRng, labels: &[Label]) -> IncompleteTree {
    let n_nodes = rng.range_usize(0, 5);
    let nodes: BTreeMap<Nid, NodeInfo> = (0..n_nodes as u64)
        .map(|i| {
            let info = NodeInfo {
                label: *rng.choose(labels),
                value: Rat::from(rng.range_i64(0, 4)),
            };
            (Nid(i), info)
        })
        .collect();
    let mut ty = ConditionalTreeType::new();
    let n_syms = rng.range_usize(1, 8);
    for _ in 0..n_syms {
        let target = if n_nodes > 0 && rng.bool(0.5) {
            SymTarget::Node(Nid(rng.below(n_nodes as u64)))
        } else {
            SymTarget::Lab(*rng.choose(labels))
        };
        let cond = random_cond(rng);
        ty.add_symbol(target, cond);
    }
    for s in 0..n_syms as u32 {
        let atoms = (0..rng.range_usize(0, 3))
            .map(|_| {
                let mut entries = Vec::new();
                for c in 0..n_syms as u32 {
                    if rng.bool(0.3) {
                        entries.push((Sym(c), random_mult(rng)));
                    }
                }
                SAtom::new(entries)
            })
            .collect();
        ty.set_mu(Sym(s), Disjunction(atoms));
        if rng.bool(0.4) {
            ty.add_root(Sym(s));
        }
    }
    IncompleteTree::new(nodes, ty).expect("symbols target existing nodes")
}

/// `it` with seeded junk that `trim()` removes and that changes no
/// answer: an unreferenced data node, an unreachable symbol, an
/// unproductive symbol as an optional entry, an unrealizable atom.
/// Each kind is added or not at random, so some copies stay trim.
fn with_junk(it: &IncompleteTree, rng: &mut DetRng, labels: &[Label]) -> IncompleteTree {
    let mut nodes = it.nodes().clone();
    let mut ty = it.ty().clone();
    let label = *rng.choose(labels);
    if rng.bool(0.3) {
        let value = Rat::from(rng.range_i64(0, 4));
        nodes.insert(Nid(1 << 40), NodeInfo { label, value });
    }
    if rng.bool(0.3) {
        let orphan = ty.add_symbol(SymTarget::Lab(label), IntervalSet::all());
        ty.set_mu(orphan, Disjunction::leaf());
    }
    let hosts: Vec<Sym> = ty
        .syms()
        .filter(|&s| !ty.mu(s).atoms().is_empty())
        .collect();
    if !hosts.is_empty() && rng.bool(0.5) {
        let dead = ty.add_symbol(SymTarget::Lab(label), IntervalSet::all());
        ty.set_mu(
            dead,
            Disjunction::single(SAtom::new(vec![(dead, Mult::One)])),
        );
        let host = *rng.choose(&hosts);
        let mut atoms = ty.mu(host).atoms().to_vec();
        if rng.bool(0.5) {
            // An optional entry that can never be instantiated.
            let i = rng.below(atoms.len() as u64) as usize;
            let mut entries = atoms[i].entries().to_vec();
            entries.push((dead, Mult::Star));
            atoms[i] = SAtom::new(entries);
        } else {
            // An atom that can never be realized.
            atoms.push(SAtom::new(vec![(dead, Mult::Plus)]));
        }
        ty.set_mu(host, Disjunction(atoms));
    }
    IncompleteTree::new(nodes, ty).expect("junk targets no new data node")
}

fn catalog_labels(c: &Catalog) -> Vec<Label> {
    c.alpha.labels().collect()
}

#[test]
fn trimmed_borrows_exactly_when_trim_changes_nothing_on_random_trees() {
    let c = catalog(1, 0);
    let labels = catalog_labels(&c);
    let root = c.alpha.get("catalog").unwrap();
    let mut paths = Paths::default();
    check_with("trimmed_random_trees", 64, |rng| {
        for _ in 0..8 {
            let t = random_itree(rng, &labels);
            check_trimmed(&t, &mut paths);
            if t.well_formed().is_err() {
                continue;
            }
            let seed = rng.next_u64();
            let queries = random_queries(&c.alpha, &c.ty, root, 2, 4, seed);
            let candidates: Vec<DataTree> = t.data_tree().into_iter().collect();
            for q in &queries {
                check_same_answers(&t, &t.trim(), q, &candidates, &c.alpha);
            }
        }
    });
    assert!(
        paths.borrowed > 0 && paths.owned > 0,
        "both paths exercised"
    );
}

#[test]
fn session_knowledge_answers_the_same_trimmed_or_not() {
    let mut paths = Paths::default();
    check_with("trimmed_session_chains", 32, |rng| {
        let c = catalog(rng.range_usize(2, 6), rng.below(1_000));
        let labels = catalog_labels(&c);
        let root = c.alpha.get("catalog").unwrap();
        let mut alpha = c.alpha.clone();
        let full = parse_ps_query("catalog/product{name, price, cat/subcat}", &mut alpha).unwrap();
        let ask = parse_ps_query("catalog/product{name, price[< 250]}", &mut alpha).unwrap();
        let mut chain = random_queries(&c.alpha, &c.ty, root, 3, 500, rng.next_u64());
        if rng.bool(0.5) {
            chain.push(full);
        }
        let probes = random_queries(&c.alpha, &c.ty, root, 2, 500, rng.next_u64());
        let doc = c.doc.clone();
        let mut session = Session::open(alpha.clone(), Source::new(c.doc, Some(c.ty)));
        for q in &chain {
            session.fetch(q).unwrap();
            let knowledge = session.knowledge();
            let junk = with_junk(knowledge, rng, &labels);
            check_trimmed(knowledge, &mut paths);
            check_trimmed(&junk, &mut paths);
            for probe in probes.iter().chain([&ask]) {
                let mut candidates: Vec<DataTree> = probe.eval(&doc).tree.into_iter().collect();
                candidates.extend(knowledge.data_tree());
                check_same_answers(&junk, &junk.trim(), probe, &candidates, &alpha);
                check_same_answers(knowledge, &junk, probe, &candidates, &alpha);
            }
        }
    });
    assert!(
        paths.borrowed > 0 && paths.owned > 0,
        "both paths exercised"
    );
}
