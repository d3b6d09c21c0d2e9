//! Algorithm Refine's structural product kept as the slow reference
//! for the shipping kernels of `iixml_core::refine`.
//!
//! [`intersect_reference`] is the pre-interning product of Lemma 3.3:
//! every pair of symbols is paired up front through a hash map, and
//! every pair of atoms goes through the general `⋊⋉` join with fresh
//! buffers. `refine::intersect` must return exactly this product
//! restricted to its root-reachable symbols ([`crate::root_reachable`]);
//! `tests/intern_equiv.rs` and `tests/refine_fastpath.rs` check that,
//! and the `cpu` bench area measures the shipping kernel against it.

use iixml_core::{
    ConditionalTreeType, Disjunction, IncompleteTree, ItreeError, SAtom, Sym, SymTarget,
};
use iixml_obs::{keys, LazyCounter, LazyHistogram};
use iixml_tree::Mult;
use std::collections::HashMap;

/// Atoms emitted per `⋊⋉` join of two multiplicity atoms.
static OBS_JOIN_FANOUT: LazyHistogram = LazyHistogram::new(keys::CORE_REFINE_JOIN_FANOUT);
/// Joins whose disjunctive expansion produced more than one atom.
static OBS_EXPANSIONS: LazyCounter = LazyCounter::new(keys::CORE_REFINE_DISJUNCTIVE_EXPANSIONS);

/// The meet of two multiplicities as occurrence-count bounds:
/// (mandatory, bounded-to-one).
fn meet_bounds(a: Mult, b: Mult) -> (bool, bool) {
    (
        a.mandatory() || b.mandatory(),
        !a.repeatable() || !b.repeatable(),
    )
}

fn mult_from(mandatory: bool, bounded: bool) -> Mult {
    match (mandatory, bounded) {
        (true, true) => Mult::One,
        (true, false) => Mult::Plus,
        (false, true) => Mult::Opt,
        (false, false) => Mult::Star,
    }
}

/// The pre-interning structural intersection, preserved verbatim:
/// hash-table pair lookups, per-pair task scheduling, per-call
/// allocation of every join buffer. Kept as (a) the equivalence oracle
/// for `tests/intern_equiv.rs` and `tests/refine_fastpath.rs` — the
/// shipping product must serialize byte-identically to this one's
/// root-reachable part — and (b) the "pre" row of the `cpu` bench
/// area, so the committed speedup is measured against the real old
/// code.
pub fn intersect_reference(
    t1: &IncompleteTree,
    t2: &IncompleteTree,
) -> Result<IncompleteTree, ItreeError> {
    let (base, other) = if t1.nodes().len() >= t2.nodes().len() {
        (t1, t2)
    } else {
        (t2, t1)
    };
    let mut nodes = base.nodes().clone();
    for (&n, &info) in other.nodes() {
        match nodes.get(&n) {
            Some(&prev) if prev != info => return Err(ItreeError::IncompatibleNode(n)),
            _ => {
                nodes.insert(n, info);
            }
        }
    }

    let (ty1, ty2) = (t1.ty(), t2.ty());
    let mut ty = ConditionalTreeType::new();
    let mut pair_of: HashMap<(Sym, Sym), Sym> = HashMap::new();

    for s1 in ty1.syms() {
        for s2 in ty2.syms() {
            let i1 = ty1.info(s1);
            let i2 = ty2.info(s2);
            let target = match (i1.target, i2.target) {
                (SymTarget::Lab(a), SymTarget::Lab(b)) if a == b => SymTarget::Lab(a),
                (SymTarget::Node(n), SymTarget::Node(m)) if n == m => SymTarget::Node(n),
                (SymTarget::Node(n), SymTarget::Lab(b)) => {
                    if t2.nodes().contains_key(&n) || t1.node_info(n).map(|i| i.label) != Some(b) {
                        continue;
                    }
                    SymTarget::Node(n)
                }
                (SymTarget::Lab(a), SymTarget::Node(m)) => {
                    if t1.nodes().contains_key(&m) || t2.node_info(m).map(|i| i.label) != Some(a) {
                        continue;
                    }
                    SymTarget::Node(m)
                }
                _ => continue,
            };
            let cond = i1.cond.intersect(&i2.cond);
            if cond.is_empty() {
                continue;
            }
            let p = ty.add_symbol(target, cond);
            pair_of.insert((s1, s2), p);
        }
    }

    // The pair table is a HashMap, so never iterate it directly: sort
    // the keys once and drive every pass off that.
    let mut keys: Vec<(Sym, Sym)> = Vec::with_capacity(pair_of.len());
    keys.extend(pair_of.keys().copied());
    keys.sort_unstable();

    for &(s1, s2) in &keys {
        if ty1.roots().contains(&s1) && ty2.roots().contains(&s2) {
            ty.add_root(pair_of[&(s1, s2)]);
        }
    }

    let mus: Vec<Disjunction> = keys
        .iter()
        .map(|&(s1, s2)| {
            let mut atoms: Vec<SAtom> = Vec::new();
            for a1 in ty1.mu(s1).atoms() {
                for a2 in ty2.mu(s2).atoms() {
                    join_atoms_reference(a1, a2, &pair_of, &mut atoms);
                }
            }
            atoms.sort_by(|x, y| x.entries().iter().cmp(y.entries().iter()));
            atoms.dedup();
            Disjunction(atoms)
        })
        .collect();
    for (&(s1, s2), mu) in keys.iter().zip(mus) {
        ty.set_mu(pair_of[&(s1, s2)], mu);
    }

    IncompleteTree::new(nodes, ty)
}

/// One constrained entry of a ⋊⋉ join: bounded (`1`/`?`) or mandatory
/// (`1`/`+`) on one side, constraining the total count across all pairs
/// containing that entry.
#[derive(Clone, Copy)]
struct Constraint {
    side1: bool,
    idx: usize,
    mandatory: bool,
    bounded: bool,
}

/// choice[c] = Some(pair index) designated for constraint c, or None
/// (allowed only for non-mandatory constraints).
fn join_recurse(
    cs: &[Constraint],
    k: usize,
    pairs: &[(usize, usize)],
    choice: &mut Vec<Option<usize>>,
    emit: &mut dyn FnMut(&[Option<usize>]),
) {
    if k == cs.len() {
        emit(choice);
        return;
    }
    let c = cs[k];
    let mut any = false;
    for (pi, &(i, j)) in pairs.iter().enumerate() {
        let on_entry = if c.side1 { i == c.idx } else { j == c.idx };
        if on_entry {
            any = true;
            choice.push(Some(pi));
            join_recurse(cs, k + 1, pairs, choice, emit);
            choice.pop();
        }
    }
    if !c.mandatory || !any {
        // A bounded-but-optional entry may host no child at all; a
        // mandatory entry with no partner makes the join empty (we
        // simply emit nothing down this branch).
        if !c.mandatory {
            choice.push(None);
            join_recurse(cs, k + 1, pairs, choice, emit);
            choice.pop();
        }
    }
}

/// The pre-scratch ⋊⋉ join, preserved verbatim for
/// [`intersect_reference`]: hash-table probes and fresh buffer
/// allocations per emitted combination.
fn join_atoms_reference(
    a1: &SAtom,
    a2: &SAtom,
    pair_of: &HashMap<(Sym, Sym), Sym>,
    out: &mut Vec<SAtom>,
) {
    let mut pairs: Vec<(usize, usize)> = Vec::new(); // (idx in a1, idx in a2)
    for (i, &(c1, _)) in a1.entries().iter().enumerate() {
        for (j, &(c2, _)) in a2.entries().iter().enumerate() {
            if pair_of.contains_key(&(c1, c2)) {
                pairs.push((i, j));
            }
        }
    }
    let mut constraints: Vec<Constraint> = Vec::new();
    for (i, &(_, m)) in a1.entries().iter().enumerate() {
        if m.mandatory() || !m.repeatable() {
            constraints.push(Constraint {
                side1: true,
                idx: i,
                mandatory: m.mandatory(),
                bounded: !m.repeatable(),
            });
        }
    }
    for (j, &(_, m)) in a2.entries().iter().enumerate() {
        if m.mandatory() || !m.repeatable() {
            constraints.push(Constraint {
                side1: false,
                idx: j,
                mandatory: m.mandatory(),
                bounded: !m.repeatable(),
            });
        }
    }

    let a1e = a1.entries();
    let a2e = a2.entries();
    let before = out.len();
    let mut emit = |choice: &[Option<usize>]| {
        let mut included = vec![true; pairs.len()];
        let mut designated = vec![false; pairs.len()];
        for (c, &ch) in constraints.iter().zip(choice) {
            if c.bounded {
                for (pi, &(i, j)) in pairs.iter().enumerate() {
                    let on_entry = if c.side1 { i == c.idx } else { j == c.idx };
                    if on_entry && Some(pi) != ch {
                        included[pi] = false;
                    }
                }
            }
            if c.mandatory {
                if let Some(pi) = ch {
                    designated[pi] = true;
                }
            }
        }
        for pi in 0..pairs.len() {
            if designated[pi] && !included[pi] {
                return;
            }
        }
        let mut entries: Vec<(Sym, Mult)> = Vec::with_capacity(pairs.len());
        for (pi, &(i, j)) in pairs.iter().enumerate() {
            if !included[pi] {
                continue;
            }
            let (c1, m1) = a1e[i];
            let (c2, m2) = a2e[j];
            let (_, bounded) = meet_bounds(m1, m2);
            let mandatory = designated[pi];
            entries.push((pair_of[&(c1, c2)], mult_from(mandatory, bounded)));
        }
        out.push(SAtom::new(entries));
    };
    let mut choice = Vec::new();
    join_recurse(&constraints, 0, &pairs, &mut choice, &mut emit);
    let fanout = (out.len() - before) as u64;
    OBS_JOIN_FANOUT.observe(fanout);
    if fanout > 1 {
        OBS_EXPANSIONS.incr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::root_reachable;
    use iixml_core::refine::{intersect, query_answer_tree};
    use iixml_core::type_intersect::restrict_to_type;
    use iixml_core::Refiner;
    use iixml_query::{Answer, PsQuery, PsQueryBuilder};
    use iixml_tree::{Alphabet, DataTree, Label, Nid, TreeTypeBuilder};
    use iixml_values::{Cond, Rat};

    /// A tiny source: root(=0) with children a(=1), a(=5), b(=2).
    fn source(alpha: &mut Alphabet) -> DataTree {
        let r = alpha.intern("root");
        let a = alpha.intern("a");
        let b = alpha.intern("b");
        let mut t = DataTree::new(Nid(0), r, Rat::ZERO);
        t.add_child(t.root(), Nid(1), a, Rat::from(1)).unwrap();
        t.add_child(t.root(), Nid(2), a, Rat::from(5)).unwrap();
        t.add_child(t.root(), Nid(3), b, Rat::from(2)).unwrap();
        t
    }

    fn q_a_lt(alpha: &mut Alphabet, bound: i64) -> PsQuery {
        let mut bld = PsQueryBuilder::new(alpha, "root", Cond::True);
        let root = bld.root();
        bld.child(root, "a", Cond::lt(Rat::from(bound))).unwrap();
        bld.build()
    }

    #[test]
    fn table_driven_intersect_matches_reference() {
        // The shipping product (root-driven, dense pair table, label-keyed
        // copies and the partner-list join) is exactly the preserved
        // legacy product
        // restricted to its root-reachable symbols: symbol ids, conditions,
        // µ atom order, roots and data nodes included. Checked on two
        // `T_{q,A}`s and along a Refine chain whose steps include an
        // empty answer and pairs the join probes but never emits; the
        // restriction really removes symbols, and trim agrees too.
        let mut alpha = Alphabet::new();
        let t = source(&mut alpha);
        let q1 = q_a_lt(&mut alpha, 3);
        let q2 = q_a_lt(&mut alpha, 10);
        let q3 = q_a_lt(&mut alpha, 0);
        let q4 = {
            let mut bld = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
            let root = bld.root();
            bld.child(root, "b", Cond::gt(Rat::ZERO)).unwrap();
            bld.build()
        };
        let tqa = |q: &PsQuery| query_answer_tree(q, &q.eval(&t), &alpha).unwrap();
        let mut cases = vec![(tqa(&q1), tqa(&q2))];
        let mut refiner = Refiner::new(&alpha);
        for q in [&q1, &q3, &q4, &q2] {
            cases.push((refiner.current().clone(), tqa(q)));
            refiner.refine(&alpha, q, &q.eval(&t)).unwrap();
        }
        // Typed knowledge (`a → c d`) against an empty answer to
        // `root/a{c, d[= 1]}`: the "c fails" disjunct of `τ̂_a` joins to
        // nothing (`c` is mandatory), so the pair of `d` with `τ_d` it
        // probes is compatible but never emitted.
        let ty = TreeTypeBuilder::new(&mut alpha)
            .root("root")
            .rule("root", &[("a", Mult::Star)])
            .rule("a", &[("c", Mult::One), ("d", Mult::One)])
            .build()
            .unwrap();
        let q5 = {
            let mut bld = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
            let a = bld.child(bld.root(), "a", Cond::True).unwrap();
            bld.child(a, "c", Cond::True).unwrap();
            bld.child(a, "d", Cond::eq(Rat::ONE)).unwrap();
            bld.build()
        };
        let labels: Vec<Label> = alpha.labels().collect();
        let typed = restrict_to_type(&IncompleteTree::universal(&labels), &ty);
        let empty = query_answer_tree(&q5, &Answer::empty(), &alpha).unwrap();
        cases.push((typed, empty));
        let mut removed = 0;
        for (t1, t2) in &cases {
            let fast = intersect(t1, t2).unwrap();
            let full = intersect_reference(t1, t2).unwrap();
            let slow = root_reachable(&full);
            removed += full.ty().sym_count() - slow.ty().sym_count();
            assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
            assert_eq!(format!("{:?}", fast.trim()), format!("{:?}", full.trim()));
        }
        assert!(removed > 0, "no case had unreachable product symbols");
    }
}
