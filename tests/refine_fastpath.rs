//! Refine's copy-free path against the reference chain.
//!
//! `Refiner::refine` leaves the knowledge as it is when it already
//! implies the pair; otherwise it builds the product from the root
//! pairs (`refine::intersect`), then moves it on unchanged whenever
//! `trimmed()` and `minimized()` borrow. The reference model decides
//! "implied" on `q(T)` itself (fully answerable, with `A` as its one
//! answer) and then keeps its knowledge; on every other step it runs
//! `minimize_reference(trim(intersect_reference(T, T_{q,A})))`. At
//! every step of every chain here, the serialized knowledge of both
//! must be equal, byte for byte. Along the way every step, implied or
//! not, also checks the kernels `refine` runs when it does not skip:
//!
//! * `intersect` is the reference product restricted to its
//!   root-reachable symbols, and the two products trim identically;
//! * `minimized()` borrows exactly when `minimize_reference()` returns
//!   a tree equal to its input;
//!
//! and that `Refiner::refine` leaves the knowledge byte-identical on
//! the steps the reference implies and skips none of the others.
//!
//! The chains are price-window Fetches (then revisits of earlier
//! windows) on typed 16- and 64-product catalogs, as a typed `Session`
//! holds them, and the Example 3.2 blowup and Proposition 3.13
//! auxiliary-query chains, where minimize merges and freezes symbols.
//! Each test tallies the branches `trimmed()` and `minimized()` took on
//! the shipping path and requires the ones its chains exist to cover.
//!
//! The same window chains, price-bound chains and random typed chains
//! also pin the fixpoint of the literal construction: running it on a
//! pair the knowledge already implies leaves the serialized bytes
//! unchanged, so the text records what is known and not the order of
//! the queries that taught it.

use iixml_core::io::write_incomplete_xml;
use iixml_core::refine::intersect_certified;
use iixml_core::refine::{intersect, query_answer_tree};
use iixml_core::type_intersect::restrict_to_type;
use iixml_core::{
    ConditionalTreeType, Disjunction, IncompleteTree, NodeInfo, Refiner, SAtom, SymTarget,
};
use iixml_gen::rng::DetRng;
use iixml_gen::testkit::check_with;
use iixml_gen::{blowup_queries, catalog};
use iixml_mediator::auxiliary_queries;
use iixml_obs::keys;
use iixml_oracle::{intersect_reference, minimize_reference, root_reachable};
use iixml_query::{parse_ps_query, Answer, PsQuery};
use iixml_tree::{Alphabet, DataTree, Mult, Nid};
use iixml_values::{IntervalSet, Rat};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Branches taken by `trimmed()` and `minimized()` on the shipping path,
/// and the steps the reference implied and `Refiner::refine` skipped.
#[derive(Default, Debug)]
struct Tally {
    trim_borrowed: usize,
    trim_owned: usize,
    min_borrowed: usize,
    min_owned: usize,
    implied: usize,
    skipped: usize,
    /// Steps the reference does not imply, and of those the ones whose
    /// product is trim with a certificate, and the ones on which
    /// `Refiner::refine` counted a certified skip of minimize.
    changed: usize,
    certificate: usize,
    certified: usize,
}

fn debug(it: &IncompleteTree) -> String {
    format!("{it:?}")
}

/// Does `knowledge` imply the pair: is `q(T)` fully answerable
/// (Corollary 3.15) with `ans` as its one answer? Decided on the answer
/// type itself, not on the dry run `Refiner::refine` uses.
fn reference_implies(knowledge: &IncompleteTree, q: &PsQuery, ans: &Answer) -> bool {
    let qt = knowledge.query(q);
    qt.fully_answerable()
        && match (qt.the_answer(), &ans.tree) {
            (None, None) => true,
            (Some(known), Some(a)) => {
                known.canonical_key(known.root()) == a.canonical_key(a.root())
            }
            _ => false,
        }
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
        let certificate = intersect_certified(refiner.current(), &tqa)
            .unwrap()
            .minimal_if_trim;
        let trimmed = product.trimmed();
        assert_eq!(debug(&trimmed), debug(&ref_trimmed), "step {i}: trim");
        match trimmed {
            Cow::Borrowed(_) => t.trim_borrowed += 1,
            Cow::Owned(_) => t.trim_owned += 1,
        }
        let ref_min = minimize_reference(&ref_trimmed);
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
        if reference_implies(&reference, q, ans) {
            let before = write_incomplete_xml(refiner.current(), alpha);
            t.implied += 1;
            if refiner.refine(alpha, q, ans).unwrap() {
                t.skipped += 1;
            }
            assert_eq!(
                write_incomplete_xml(refiner.current(), alpha),
                before,
                "step {i}: refining an implied pair changed the knowledge"
            );
        } else {
            let skips = iixml_obs::counter(keys::CORE_REFINE_CERTIFIED).get();
            assert!(
                !refiner.refine(alpha, q, ans).unwrap(),
                "step {i}: skipped a pair the reference does not imply"
            );
            t.changed += 1;
            if certificate && matches!(product.trimmed(), Cow::Borrowed(_)) {
                t.certificate += 1;
            }
            if iixml_obs::counter(keys::CORE_REFINE_CERTIFIED).get() > skips {
                t.certified += 1;
            }
            reference = ref_min;
        }
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
/// Returns the alphabet, the typed start and the steps.
fn window_steps(
    products: usize,
    fetches: usize,
    revisits: usize,
    rng: &mut DetRng,
) -> (Alphabet, IncompleteTree, Vec<(PsQuery, Answer)>) {
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
    let start = restrict_to_type(&IncompleteTree::universal(&labels), &c.ty);
    (alpha, start, steps)
}

fn window_chain(products: usize, fetches: usize, revisits: usize, rng: &mut DetRng, t: &mut Tally) {
    let (alpha, start, steps) = window_steps(products, fetches, revisits, rng);
    run_chain(&alpha, start, &steps, t);
}

/// Window chains copy nothing in the steady state: both views borrow on
/// most steps, revisits leave the knowledge as it is, and every step
/// matches the reference chain.
#[test]
fn window_chains_match_reference() {
    // `core.refine.certified` counts the certified skips below.
    iixml_obs::set_enabled(true);
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
    assert!(t.skipped > 0, "no revisit was skipped: {t:?}");
    // Every new window's product is trim and certified minimal, and
    // `Refiner::refine` skipped minimize on each.
    assert_eq!(
        t.certificate, t.changed,
        "a window step lost its certificate: {t:?}"
    );
    assert_eq!(t.certified, t.changed, "a window step ran minimize: {t:?}");
}

fn blowup_alphabet() -> Alphabet {
    Alphabet::from_names(["root", "a", "b"])
}

/// The Example 3.2 chain (empty answers) from the universal tree and
/// from a root that needs exactly two bisimilar children (closed, it
/// implies every step), Proposition 3.13's auxiliary-query chain
/// against a two-child source (whose answers imply the blowup steps
/// that follow them): minimize steps that merge, and steps that must
/// freeze a block.
#[test]
fn paper_chains_match_reference() {
    let mut t = Tally::default();
    let mut alpha = blowup_alphabet();
    let queries = blowup_queries(&mut alpha, 5);
    let labels: Vec<_> = alpha.labels().collect();
    let universal = IncompleteTree::universal(&labels);

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

    // A root with exactly two `a` leaves and nothing else has no `b`
    // child, so it already implies every empty blowup answer: each of
    // those steps must leave it as it is.
    let mut closed = Tally::default();
    run_chain(&alpha, exactly_two_a(&alpha, false), &empty, &mut closed);
    assert_eq!(
        closed.skipped,
        empty.len(),
        "a blowup step was not skipped: {closed:?}"
    );
    // With `b` children allowed it implies none of them. Every product
    // keeps the two `a` symbols in one atom; merging them would need
    // the count "exactly 2", which no multiplicity expresses, so
    // minimize freezes the block.
    let last = run_chain(&alpha, exactly_two_a(&alpha, true), &empty, &mut t);
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

/// A start whose root node (id 0) needs exactly two `a` leaves, typed
/// by two bisimilar symbols, and with `open` may have any number of `b`
/// leaves besides.
fn exactly_two_a(alpha: &Alphabet, open: bool) -> IncompleteTree {
    let (root, a, b) = (
        alpha.get("root").unwrap(),
        alpha.get("a").unwrap(),
        alpha.get("b").unwrap(),
    );
    let mut nodes = BTreeMap::new();
    let info = NodeInfo {
        label: root,
        value: Rat::ZERO,
    };
    nodes.insert(Nid(0), info);
    let mut ty = ConditionalTreeType::new();
    let r = ty.add_symbol(SymTarget::Node(Nid(0)), IntervalSet::all());
    let a1 = ty.add_symbol(SymTarget::Lab(a), IntervalSet::all());
    let a2 = ty.add_symbol(SymTarget::Lab(a), IntervalSet::all());
    let mut kids = vec![(a1, Mult::One), (a2, Mult::One)];
    if open {
        let bs = ty.add_symbol(SymTarget::Lab(b), IntervalSet::all());
        ty.set_mu(bs, Disjunction::leaf());
        kids.push((bs, Mult::Star));
    }
    ty.set_mu(r, Disjunction::single(SAtom::new(kids)));
    ty.set_mu(a1, Disjunction::leaf());
    ty.set_mu(a2, Disjunction::leaf());
    ty.add_root(r);
    IncompleteTree::new(nodes, ty).unwrap()
}

/// A random ps-query chain on a small catalog: the alphabet, the
/// universal tree, its restriction to the catalog type, and the steps.
/// The chain opens with a query the typed product cannot satisfy below
/// a product (`price` is mandatory, the empty answer says no product of
/// value 79 has one).
fn random_steps(
    rng: &mut DetRng,
) -> (
    Alphabet,
    IncompleteTree,
    IncompleteTree,
    Vec<(PsQuery, Answer)>,
) {
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
    let universal = IncompleteTree::universal(&labels);
    let typed = restrict_to_type(&universal, &c.ty);
    (alpha, universal, typed, steps)
}

/// Random ps-query chains on a small catalog, from the universal tree
/// and from the typed one. The opening query leaves the product with
/// reachable useless symbols, so `trimmed()` must rebuild.
#[test]
fn random_query_chains_match_reference() {
    let mut t = Tally::default();
    check_with("refine_fastpath_random_chains", 8, |rng| {
        let (alpha, universal, typed, steps) = random_steps(rng);
        run_chain(&alpha, typed, &steps, &mut t);
        run_chain(&alpha, universal, &steps, &mut t);
    });
    assert!(t.trim_owned > 0, "trimmed() never rebuilt: {t:?}");
    assert!(t.trim_borrowed > 0, "trimmed() never borrowed: {t:?}");
}

/// Re-refinements of implied pairs: how many left the knowledge's
/// structure unchanged, and how many changed it.
#[derive(Default, Debug)]
struct Fixpoints {
    unchanged: usize,
    restructured: usize,
}

/// The literal Refine construction, without the implied-pair check:
/// `minimize(trim(T ∩ T_{q,A}))` through the shipping kernels.
fn construct(alpha: &Alphabet, t: &IncompleteTree, q: &PsQuery, ans: &Answer) -> IncompleteTree {
    let tqa = query_answer_tree(q, ans, alpha).unwrap();
    let product = intersect(t, &tqa).unwrap();
    let trimmed = product.trimmed();
    let minimized = trimmed.minimized();
    minimized.into_owned()
}

/// Refines `steps` from `start`. After each step, every pair refined so
/// far is implied by the knowledge (Theorem 3.4: refining it again
/// leaves `rep` unchanged), and each goes through the literal
/// construction again, one at a time (`Refiner::refine` would skip it).
/// Whenever that leaves the structure (the `Debug` form: data nodes,
/// each symbol's target, condition and µ, and the roots) unchanged,
/// the serialized knowledge must be byte-identical. With `strict`, every such
/// re-refinement must leave the structure unchanged too.
fn check_implied_pairs(
    alpha: &Alphabet,
    start: IncompleteTree,
    steps: &[(PsQuery, Answer)],
    strict: bool,
    f: &mut Fixpoints,
) {
    let mut refiner = Refiner::from_tree(start);
    for (k, (q, ans)) in steps.iter().enumerate() {
        refiner.refine(alpha, q, ans).unwrap();
        let known = write_incomplete_xml(refiner.current(), alpha);
        let shape = debug(refiner.current());
        for (i, (q, ans)) in steps[..=k].iter().enumerate() {
            let again = construct(alpha, refiner.current(), q, ans);
            if debug(&again) != shape {
                assert!(
                    !strict,
                    "after step {k}: re-refining pair {i} restructured the knowledge"
                );
                f.restructured += 1;
                continue;
            }
            assert_eq!(
                write_incomplete_xml(&again, alpha),
                known,
                "after step {k}: re-refining implied pair {i} changed the bytes"
            );
            f.unchanged += 1;
        }
    }
}

/// A typed catalog session's chain of `draws` price-bound Fetches
/// `catalog/product{name, price[< b]}`, `b` drawn from `[10, 500)`.
fn price_steps(
    products: usize,
    draws: usize,
    rng: &mut DetRng,
) -> (Alphabet, IncompleteTree, Vec<(PsQuery, Answer)>) {
    let c = catalog(products, rng.next_u64());
    let mut alpha = c.alpha.clone();
    let steps: Vec<(PsQuery, Answer)> = (0..draws)
        .map(|_| {
            let b = rng.range_i64(10, 500);
            let text = format!("catalog/product{{name, price[< {b}]}}");
            let q = parse_ps_query(&text, &mut alpha).unwrap();
            let ans = q.eval(&c.doc);
            (q, ans)
        })
        .collect();
    let labels: Vec<_> = alpha.labels().collect();
    let start = restrict_to_type(&IncompleteTree::universal(&labels), &c.ty);
    (alpha, start, steps)
}

/// Knowledge bytes do not record query history. On seeded typed catalog
/// sessions (price-window Fetches, then revisits; or price-bound
/// Fetches) re-running the construction on any pair the knowledge
/// implies is a byte-level fixpoint. On the random typed
/// chains above it is one whenever it leaves the structure unchanged:
/// there a re-refinement can add an alternative that another already
/// covers (an atom with a narrower child symbol), which changes `rep`
/// not at all but the structure does.
#[test]
fn implied_pairs_are_byte_fixpoints() {
    let mut f = Fixpoints::default();
    check_with("refine_fastpath_fixpoint_windows_16", 3, |rng| {
        let (alpha, start, steps) = window_steps(16, 24, 6, rng);
        check_implied_pairs(&alpha, start, &steps, true, &mut f);
    });
    check_with("refine_fastpath_fixpoint_windows_64", 1, |rng| {
        let (alpha, start, steps) = window_steps(64, 32, 8, rng);
        check_implied_pairs(&alpha, start, &steps, true, &mut f);
    });
    check_with("refine_fastpath_fixpoint_price_bounds_8", 8, |rng| {
        let (alpha, start, steps) = price_steps(8, 16, rng);
        check_implied_pairs(&alpha, start, &steps, true, &mut f);
    });
    check_with("refine_fastpath_fixpoint_random_chains", 8, |rng| {
        let (alpha, _, typed, steps) = random_steps(rng);
        check_implied_pairs(&alpha, typed, &steps, false, &mut f);
    });
    assert!(
        f.unchanged > f.restructured,
        "most re-refinements should be structural fixpoints: {f:?}"
    );
}
