//! Figure 7 / Example 2.2: the paper's two hand-built incomplete trees —
//! `T` (the input knowledge) and `T′` (the description of `q`'s possible
//! answers) — and the claim `rep(T′) = q(rep(T))`.
//!
//! We build both exactly as in the paper, compute `q(T)` with the
//! Theorem 3.14 algorithm, and check three-way agreement by bounded
//! exhaustive enumeration (the oracle crate).

use iixml_core::{ConditionalTreeType, Disjunction, IncompleteTree, NodeInfo, SAtom, SymTarget};
use iixml_oracle::{enumerate_rep, Bounds};
use iixml_query::{PsQuery, PsQueryBuilder};
use iixml_tree::{Alphabet, Label, Mult, Nid};
use iixml_values::{Cond, IntervalSet, Rat};
use std::collections::BTreeMap;

const ROOT: Label = Label(0);
const A: Label = Label(1);
const B: Label = Label(2);

fn alphabet() -> Alphabet {
    Alphabet::from_names(["root", "a", "b"])
}

/// The incomplete tree `T` of Figure 7 (left).
fn paper_t() -> IncompleteTree {
    let mut nodes = BTreeMap::new();
    nodes.insert(
        Nid(0),
        NodeInfo {
            label: ROOT,
            value: Rat::ZERO,
        },
    );
    nodes.insert(
        Nid(1),
        NodeInfo {
            label: A,
            value: Rat::ZERO,
        },
    );
    let mut ty = ConditionalTreeType::new();
    let r = ty.add_symbol(SymTarget::Node(Nid(0)), Cond::eq(Rat::ZERO).to_intervals());
    let n = ty.add_symbol(SymTarget::Node(Nid(1)), Cond::eq(Rat::ZERO).to_intervals());
    let a = ty.add_symbol(SymTarget::Lab(A), Cond::ne(Rat::ZERO).to_intervals());
    let b = ty.add_symbol(SymTarget::Lab(B), IntervalSet::all());
    ty.set_mu(
        r,
        Disjunction::single(SAtom::new(vec![(n, Mult::One), (a, Mult::Star)])),
    );
    ty.set_mu(n, Disjunction::single(SAtom::new(vec![(b, Mult::Star)])));
    ty.set_mu(a, Disjunction::single(SAtom::new(vec![(b, Mult::Star)])));
    ty.set_mu(b, Disjunction::leaf());
    ty.add_root(r);
    IncompleteTree::new(nodes, ty).unwrap()
}

/// The paper's hand-built answer description `T′` (Example 2.2): roots
/// `r1` (the empty-answer placeholder, unsatisfiable) and `r2`; each
/// answered `a` has at least one `b` child.
fn paper_t_prime() -> IncompleteTree {
    let mut nodes = BTreeMap::new();
    nodes.insert(
        Nid(0),
        NodeInfo {
            label: ROOT,
            value: Rat::ZERO,
        },
    );
    nodes.insert(
        Nid(1),
        NodeInfo {
            label: A,
            value: Rat::ZERO,
        },
    );
    let mut ty = ConditionalTreeType::new();
    let r1 = ty.add_symbol(SymTarget::Node(Nid(0)), IntervalSet::empty());
    let r2 = ty.add_symbol(SymTarget::Node(Nid(0)), Cond::eq(Rat::ZERO).to_intervals());
    let n = ty.add_symbol(SymTarget::Node(Nid(1)), Cond::eq(Rat::ZERO).to_intervals());
    let a = ty.add_symbol(SymTarget::Lab(A), Cond::ne(Rat::ZERO).to_intervals());
    let b = ty.add_symbol(SymTarget::Lab(B), IntervalSet::all());
    ty.set_mu(r1, Disjunction::leaf());
    // µ′(r2) = n a⋆ ∨ a⁺.
    ty.set_mu(
        r2,
        Disjunction(vec![
            SAtom::new(vec![(n, Mult::One), (a, Mult::Star)]),
            SAtom::new(vec![(a, Mult::Plus)]),
        ]),
    );
    // µ′(a) = µ′(n) = b⁺.
    ty.set_mu(n, Disjunction::single(SAtom::new(vec![(b, Mult::Plus)])));
    ty.set_mu(a, Disjunction::single(SAtom::new(vec![(b, Mult::Plus)])));
    ty.set_mu(b, Disjunction::leaf());
    ty.add_root(r1);
    ty.add_root(r2);
    IncompleteTree::new(nodes, ty).unwrap()
}

/// The query of Figure 7 (right): root / a / b.
fn q(alpha: &mut Alphabet) -> PsQuery {
    let mut bld = PsQueryBuilder::new(alpha, "root", Cond::True);
    let root = bld.root();
    let a = bld.child(root, "a", Cond::True).unwrap();
    bld.child(a, "b", Cond::True).unwrap();
    bld.build()
}

fn bounds() -> Bounds {
    Bounds {
        star_cap: 2,
        max_depth: 3,
        max_worlds: 50_000,
        values_per_interval: 1,
    }
}

#[test]
fn computed_answer_tree_matches_papers_t_prime() {
    let mut alpha = alphabet();
    let t = paper_t();
    let query = q(&mut alpha);
    let computed = t.query(&query);
    let hand = paper_t_prime();

    // The paper's r1 encodes the empty answer: our flag captures it.
    assert!(computed.empty_possible);

    // Agreement on the nonempty answers, by exhaustive enumeration of
    // both descriptions.
    let ours = enumerate_rep(&computed.tree, bounds());
    let theirs = enumerate_rep(&hand, bounds());
    assert!(!ours.truncated && !theirs.truncated);
    assert!(!ours.worlds.is_empty());
    for w in &ours.worlds {
        assert!(
            hand.contains(w),
            "computed answer not covered by the paper's T′:\n{}",
            w.display(&alpha)
        );
    }
    for w in &theirs.worlds {
        assert!(
            computed.tree.contains(w),
            "paper answer not covered by computed q(T):\n{}",
            w.display(&alpha)
        );
    }
}

#[test]
fn answer_descriptions_match_actual_answers() {
    // Enumerate rep(T); evaluate q on each world; the set of nonempty
    // answers must agree (both directions) with rep(T′).
    let mut alpha = alphabet();
    let t = paper_t();
    let query = q(&mut alpha);
    let hand = paper_t_prime();
    let worlds = enumerate_rep(&t, bounds());
    assert!(!worlds.truncated);
    let mut saw_empty = false;
    let mut saw_nonempty = false;
    for w in &worlds.worlds {
        match query.eval(w).tree {
            None => saw_empty = true,
            Some(ans) => {
                saw_nonempty = true;
                assert!(
                    hand.contains(&ans),
                    "an actual answer is missing from T′:\n{}",
                    ans.display(&alpha)
                );
            }
        }
    }
    assert!(saw_empty, "some world answers empty (n without b)");
    assert!(saw_nonempty, "some world answers nonempty");

    // Converse: every enumerated member of T′ is the answer of some
    // constructed input (build it: the answer itself, possibly extended
    // by a b-less `a` child, is a valid input whose answer is itself).
    let members = enumerate_rep(&hand, bounds());
    for ans in &members.worlds {
        let again = query.eval(ans).tree.expect("answers match the query");
        assert!(again.same_tree(ans), "answers are fixpoints of the query");
        assert!(
            t.contains(ans) || {
                // Answers omitting node n (r2's second disjunct) are not
                // themselves in rep(T) — extend with node n to get a
                // legitimate input.
                let mut input = ans.clone();
                if input.by_nid(Nid(1)).is_none() {
                    let root = input.root();
                    input.add_child(root, Nid(1), A, Rat::ZERO).unwrap();
                }
                t.contains(&input)
            }
        );
    }
}

#[test]
fn paper_t_basics() {
    let t = paper_t();
    assert!(t.well_formed().is_ok());
    assert!(t.is_unambiguous());
    assert!(!t.is_empty());
    let td = t.data_tree().unwrap();
    assert_eq!(td.len(), 2);
}
