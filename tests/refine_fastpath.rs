//! Refine's copy-free path against the reference chain.
//!
//! `Refiner::refine` builds the product from the root pairs
//! (`refine::intersect`), then moves it on unchanged whenever
//! `trimmed()` and `minimized()` borrow. At every step of every chain
//! here, its serialized knowledge must equal the reference chain's
//! `minimize_reference(trim(intersect_reference(T, T_{q,A})))`, byte for
//! byte. Along the way each step also checks that:
//!
//! * `intersect` is the reference product restricted to its
//!   root-reachable symbols, and the two products trim identically;
//! * `minimized()` borrows exactly when `minimize_reference()` returns
//!   a tree equal to its input.
//!
//! The chains are price-window Fetches (then revisits of earlier
//! windows) on typed 16- and 64-product catalogs, as a typed `Session`
//! holds them, and the Example 3.2 blowup and Proposition 3.13
//! auxiliary-query chains, where minimize merges and freezes symbols.
//! Each test tallies the branches `trimmed()` and `minimized()` took on
//! the shipping path and requires the ones its chains exist to cover.

use iixml_core::io::write_incomplete_xml;
use iixml_core::refine::{intersect, intersect_reference, query_answer_tree};
use iixml_core::type_intersect::restrict_to_type;
use iixml_core::{
    ConditionalTreeType, Disjunction, IncompleteTree, NodeInfo, Refiner, SAtom, SymTarget,
};
use iixml_gen::rng::DetRng;
use iixml_gen::testkit::check_with;
use iixml_gen::{blowup_queries, catalog};
use iixml_mediator::auxiliary_queries;
use iixml_oracle::root_reachable;
use iixml_query::{parse_ps_query, Answer, PsQuery};
use iixml_tree::{Alphabet, DataTree, Mult, Nid};
use iixml_values::{IntervalSet, Rat};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Branches taken by `trimmed()` and `minimized()` on the shipping path.
#[derive(Default, Debug)]
struct Tally {
    trim_borrowed: usize,
    trim_owned: usize,
    min_borrowed: usize,
    min_owned: usize,
}

fn debug(it: &IncompleteTree) -> String {
    format!("{it:?}")
}

/// Runs `steps` from `start` through `Refiner::refine` and through the
/// reference chain, checking the per-step contracts above; returns the
/// final knowledge.
fn run_chain(
    alpha: &Alphabet,
    start: IncompleteTree,
    steps: &[(PsQuery, Answer)],
    t: &mut Tally,
) -> IncompleteTree {
    let mut refiner = Refiner::from_tree(start.clone());
    let mut reference = start;
    for (i, (q, ans)) in steps.iter().enumerate() {
        let tqa = query_answer_tree(q, ans, alpha).unwrap();
        let full = intersect_reference(&reference, &tqa).unwrap();
        let product = intersect(refiner.current(), &tqa).unwrap();
        assert_eq!(
            debug(&product),
            debug(&root_reachable(&full)),
            "step {i}: intersect is not the root-reachable reference product"
        );
        let ref_trimmed = full.trim();
        let trimmed = product.trimmed();
        assert_eq!(debug(&trimmed), debug(&ref_trimmed), "step {i}: trim");
        match trimmed {
            Cow::Borrowed(_) => t.trim_borrowed += 1,
            Cow::Owned(_) => t.trim_owned += 1,
        }
        let ref_min = ref_trimmed.minimize_reference();
        let unchanged = debug(&ref_min) == debug(&ref_trimmed);
        match trimmed.minimized() {
            Cow::Borrowed(_) => {
                assert!(
                    unchanged,
                    "step {i}: minimized() borrowed, reference merged"
                );
                t.min_borrowed += 1;
            }
            Cow::Owned(_) => {
                assert!(
                    !unchanged,
                    "step {i}: minimized() rebuilt an unchanged tree"
                );
                t.min_owned += 1;
            }
        }
        refiner.refine(alpha, q, ans).unwrap();
        reference = ref_min;
        assert_eq!(
            write_incomplete_xml(refiner.current(), alpha),
            write_incomplete_xml(&reference, alpha),
            "step {i}: Refiner diverged from the reference chain"
        );
    }
    reference
}

/// The query of price window `k`: `[10 + 5k, 15 + 5k)`, one of 98
/// disjoint windows tiling the catalog's price range.
fn window_query(k: usize, alpha: &mut Alphabet) -> PsQuery {
    let lo = 10 + 5 * k;
    let text = format!("catalog/product{{name, price[>= {lo} & < {}]}}", lo + 5);
    parse_ps_query(&text, alpha).unwrap()
}

/// A typed catalog session's chain: `fetches` distinct windows in
/// random order, then `revisits` re-fetches of windows already asked.
fn window_chain(products: usize, fetches: usize, revisits: usize, rng: &mut DetRng, t: &mut Tally) {
    let c = catalog(products, rng.next_u64());
    let mut alpha = c.alpha.clone();
    let mut windows: Vec<usize> = (0..98).collect();
    for i in (1..windows.len()).rev() {
        windows.swap(i, rng.below(i as u64 + 1) as usize);
    }
    windows.truncate(fetches);
    let mut order = windows.clone();
    for _ in 0..revisits {
        order.push(*rng.choose(&windows));
    }
    let steps: Vec<(PsQuery, Answer)> = order
        .into_iter()
        .map(|k| {
            let q = window_query(k, &mut alpha);
            let ans = q.eval(&c.doc);
            (q, ans)
        })
        .collect();
    let labels: Vec<_> = alpha.labels().collect();
    let names: Vec<&str> = labels.iter().map(|&l| alpha.name(l)).collect();
    let start = restrict_to_type(&IncompleteTree::universal(&labels, &names), &c.ty);
    run_chain(&alpha, start, &steps, t);
}

/// Window chains copy nothing in the steady state: both views borrow on
/// most steps, and every step matches the reference chain.
#[test]
fn window_chains_match_reference() {
    let mut t = Tally::default();
    check_with("refine_fastpath_windows_16", 3, |rng| {
        window_chain(16, 32, 12, rng, &mut t);
    });
    check_with("refine_fastpath_windows_64", 2, |rng| {
        window_chain(64, 48, 16, rng, &mut t);
    });
    assert!(t.trim_borrowed > 0, "trimmed() never borrowed: {t:?}");
    assert!(t.min_borrowed > 0, "minimized() never borrowed: {t:?}");
    assert!(
        t.min_borrowed > t.min_owned,
        "window chains should rarely merge: {t:?}"
    );
}

fn blowup_alphabet() -> Alphabet {
    Alphabet::from_names(["root", "a", "b"])
}

/// The Example 3.2 chain (empty answers) from the universal tree and
/// from a root that needs exactly two bisimilar children, and
/// Proposition 3.13's auxiliary-query chain against a two-child source:
/// minimize steps that merge, and steps that must freeze a block.
#[test]
fn paper_chains_match_reference() {
    let mut t = Tally::default();
    let mut alpha = blowup_alphabet();
    let queries = blowup_queries(&mut alpha, 5);
    let labels: Vec<_> = alpha.labels().collect();
    let names: Vec<&str> = labels.iter().map(|&l| alpha.name(l)).collect();
    let universal = IncompleteTree::universal(&labels, &names);

    let empty: Vec<(PsQuery, Answer)> = queries
        .iter()
        .map(|q| (q.clone(), Answer::empty()))
        .collect();
    run_chain(&alpha, universal.clone(), &empty, &mut t);

    let (root, a, b) = (
        alpha.get("root").unwrap(),
        alpha.get("a").unwrap(),
        alpha.get("b").unwrap(),
    );
    let mut doc = DataTree::new(Nid(0), root, Rat::ZERO);
    doc.add_child(doc.root(), Nid(1), a, Rat::from(100))
        .unwrap();
    doc.add_child(doc.root(), Nid(2), b, Rat::from(200))
        .unwrap();
    let aided: Vec<(PsQuery, Answer)> = auxiliary_queries(&queries[0])
        .into_iter()
        .chain(queries.iter().cloned())
        .map(|q| {
            let ans = q.eval(&doc);
            (q, ans)
        })
        .collect();
    run_chain(&alpha, universal, &aided, &mut t);

    // A start whose root node needs exactly two `a` children, typed by
    // two bisimilar symbols. Every product keeps such a pair in one
    // atom; merging it would need the count "exactly 2", which no
    // multiplicity expresses, so minimize freezes the block.
    let mut nodes = BTreeMap::new();
    let info = NodeInfo {
        label: root,
        value: Rat::ZERO,
    };
    nodes.insert(Nid(0), info);
    let mut ty = ConditionalTreeType::new();
    let r = ty.add_symbol("r", SymTarget::Node(Nid(0)), IntervalSet::all());
    let a1 = ty.add_symbol("a1", SymTarget::Lab(a), IntervalSet::all());
    let a2 = ty.add_symbol("a2", SymTarget::Lab(a), IntervalSet::all());
    let two = SAtom::new(vec![(a1, Mult::One), (a2, Mult::One)]);
    ty.set_mu(r, Disjunction::single(two));
    ty.set_mu(a1, Disjunction::leaf());
    ty.set_mu(a2, Disjunction::leaf());
    ty.add_root(r);
    let exactly_two = IncompleteTree::new(nodes, ty).unwrap();
    let last = run_chain(&alpha, exactly_two, &empty, &mut t);
    let ty = last.ty();
    let frozen_pair = ty.syms().any(|s| {
        ty.mu(s).atoms().iter().any(|atom| {
            atom.entries().iter().enumerate().any(|(i, &(x, _))| {
                atom.entries()[i + 1..].iter().any(|&(y, _)| {
                    ty.info(x).target == ty.info(y).target && ty.info(x).cond == ty.info(y).cond
                })
            })
        })
    });
    assert!(frozen_pair, "minimize merged a pair it had to freeze");

    assert!(t.min_owned > 0, "minimized() never rebuilt: {t:?}");
    assert!(t.min_borrowed > 0, "minimized() never borrowed: {t:?}");
}

/// Random ps-query chains on a small catalog, from the universal tree
/// and from the typed one. Each chain opens with a query the typed
/// product cannot satisfy below a product (`price` is mandatory, the
/// empty answer says no product of value 79 has one), so the product
/// carries reachable useless symbols and `trimmed()` must rebuild.
#[test]
fn random_query_chains_match_reference() {
    let mut t = Tally::default();
    check_with("refine_fastpath_random_chains", 8, |rng| {
        let seed = rng.below(500);
        let c = catalog(3, seed);
        let mut alpha = c.alpha.clone();
        let root = alpha.get("catalog").unwrap();
        let mut queries = vec![parse_ps_query("catalog/product[= 79]/price", &mut alpha).unwrap()];
        queries.extend(iixml_gen::random_queries(
            &alpha,
            &c.ty,
            root,
            4,
            300,
            seed ^ 0x1D5,
        ));
        let steps: Vec<(PsQuery, Answer)> = queries
            .into_iter()
            .map(|q| {
                let ans = q.eval(&c.doc);
                (q, ans)
            })
            .collect();
        assert!(steps[0].1.is_empty(), "catalog products carry value 0");
        let labels: Vec<_> = alpha.labels().collect();
        let names: Vec<&str> = labels.iter().map(|&l| alpha.name(l)).collect();
        let universal = IncompleteTree::universal(&labels, &names);
        run_chain(&alpha, restrict_to_type(&universal, &c.ty), &steps, &mut t);
        run_chain(&alpha, universal, &steps, &mut t);
    });
    assert!(t.trim_owned > 0, "trimmed() never rebuilt: {t:?}");
    assert!(t.trim_borrowed > 0, "trimmed() never borrowed: {t:?}");
}
