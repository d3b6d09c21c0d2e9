//! Bisimulation minimization kept as the slow reference for
//! `IncompleteTree::minimized` in `iixml_core::minimize`.
//!
//! [`minimize_reference`] is the pre-interning structural minimization:
//! each round keys every symbol by its nested signature (current block,
//! sorted atom list over blocks) through a `HashMap` with a running
//! block counter, and blocks that would need an inexpressible count are
//! frozen and the partition rerun. The one step both share is the
//! quotient by the final block map, [`IncompleteTree::quotient`].
//! `tests/intern_equiv.rs` and `tests/refine_fastpath.rs` check that
//! the shipping minimization serializes byte-identically to this one,
//! and the `cpu` bench area measures it against this one.

use iixml_core::{IncompleteTree, Sym, SymTarget};
use iixml_tree::Mult;
use iixml_values::IntervalSet;
use std::collections::{BTreeMap, HashMap, HashSet};

fn bounds(m: Mult) -> (u8, bool) {
    // (lower bound, unbounded?)
    match m {
        Mult::One => (1, false),
        Mult::Opt => (0, false),
        Mult::Plus => (1, true),
        Mult::Star => (0, true),
    }
}

/// Combines the multiplicities of same-block entries; `None` when the
/// combined count set is not expressible as a single multiplicity.
fn combine(ms: &[Mult]) -> Option<Mult> {
    if ms.len() == 1 {
        return Some(ms[0]);
    }
    let lo: u8 = ms.iter().map(|&m| bounds(m).0).sum();
    let unbounded = ms.iter().any(|&m| bounds(m).1);
    let hi_bounded: u8 = ms.iter().map(|&m| !bounds(m).1 as u8).sum::<u8>();
    match (lo, unbounded) {
        (0, true) => Some(Mult::Star),
        (1, true) => Some(Mult::Plus),
        (0, false) if hi_bounded == 1 => Some(Mult::Opt),
        (1, false) if hi_bounded == 1 => Some(Mult::One),
        _ => None,
    }
}

/// The pre-interning structural minimization, preserved verbatim but
/// for the final step, the shared [`IncompleteTree::quotient`]:
/// nested-structure signatures hashed through a `HashMap` with a
/// running block counter, and a per-symbol, per-atom check of every
/// block's combined multiplicity. Kept as (a) the equivalence oracle for
/// `tests/intern_equiv.rs` and `tests/refine_fastpath.rs` and (b) the
/// "pre" row of the `cpu` bench area, so the committed speedup is
/// measured against the real old code, not a remembered number. Records
/// no metrics.
pub fn minimize_reference(it: &IncompleteTree) -> IncompleteTree {
    let ty = it.ty();
    if ty.sym_count() == 0 {
        return it.clone();
    }
    let mut frozen: HashSet<Sym> = HashSet::new();
    loop {
        let block_of = partition_reference(it, &frozen);
        let mut violated = false;
        for s in ty.syms() {
            for atom in ty.mu(s).atoms() {
                let mut groups: BTreeMap<usize, Vec<Mult>> = BTreeMap::new();
                for &(c, m) in atom.entries() {
                    groups.entry(block_of[c.ix()]).or_default().push(m);
                }
                for (block, ms) in groups {
                    if combine(&ms).is_none() {
                        for c in ty.syms() {
                            if block_of[c.ix()] == block {
                                frozen.insert(c);
                            }
                        }
                        violated = true;
                    }
                }
            }
        }
        if !violated {
            return it
                .quotient(&block_of)
                .expect("inexpressible blocks were frozen before the quotient");
        }
    }
}

/// The structural partition behind [`minimize_reference`]: the coarsest
/// partition compatible with (target, cond, frozen-ness) refined by µ
/// signatures, blocks numbered in first-encounter order.
fn partition_reference(it: &IncompleteTree, frozen: &HashSet<Sym>) -> Vec<usize> {
    let ty = it.ty();
    let n = ty.sym_count();
    let mut block_of: Vec<usize> = vec![0; n];
    {
        let mut key_to_block: HashMap<(SymTarget, &IntervalSet), usize> = HashMap::new();
        let mut next = 0usize;
        for s in ty.syms() {
            let info = ty.info(s);
            let b = if frozen.contains(&s) {
                let b = next;
                next += 1;
                b
            } else {
                *key_to_block
                    .entry((info.target, &info.cond))
                    .or_insert_with(|| {
                        let b = next;
                        next += 1;
                        b
                    })
            };
            block_of[s.ix()] = b;
        }
    }
    // Signature: (current block, canonical atom list over blocks).
    type Signature = (usize, Vec<Vec<(usize, Mult)>>);
    let syms: Vec<Sym> = ty.syms().collect();
    loop {
        let sigs: Vec<Signature> = syms
            .iter()
            .map(|&s| {
                let mut atoms: Vec<Vec<(usize, Mult)>> = ty
                    .mu(s)
                    .atoms()
                    .iter()
                    .map(|a| {
                        let mut v: Vec<(usize, Mult)> = a
                            .entries()
                            .iter()
                            .map(|&(c, m)| (block_of[c.ix()], m))
                            .collect();
                        v.sort();
                        v
                    })
                    .collect();
                atoms.sort();
                atoms.dedup();
                (block_of[s.ix()], atoms)
            })
            .collect();
        let mut sig_to_block: HashMap<Signature, usize> = HashMap::with_capacity(n);
        let mut next_block: Vec<usize> = vec![0; n];
        for (s, key) in syms.iter().zip(sigs) {
            let fresh = sig_to_block.len();
            let b = *sig_to_block.entry(key).or_insert(fresh);
            next_block[s.ix()] = b;
        }
        if next_block == block_of {
            return block_of;
        }
        block_of = next_block;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iixml_core::{ConditionalTreeType, Disjunction, SAtom};
    use iixml_tree::Label;
    use iixml_values::{Cond, Rat};
    use std::borrow::Cow;

    /// The interned partition must reproduce the structural reference
    /// exactly — same blocks, same numbering, same rebuilt type
    /// (the full-pipeline property lives in `tests/intern_equiv.rs`).
    #[test]
    fn interned_path_matches_reference() {
        let mut ty = ConditionalTreeType::new();
        let r = ty.add_symbol(SymTarget::Lab(Label(0)), IntervalSet::all());
        let a1 = ty.add_symbol(SymTarget::Lab(Label(1)), IntervalSet::all());
        let a2 = ty.add_symbol(SymTarget::Lab(Label(1)), IntervalSet::all());
        let b = ty.add_symbol(SymTarget::Lab(Label(2)), IntervalSet::all());
        let c1 = ty.add_symbol(SymTarget::Lab(Label(1)), IntervalSet::all());
        ty.set_mu(
            r,
            Disjunction(vec![
                SAtom::new(vec![(a1, Mult::Star), (b, Mult::One)]),
                SAtom::new(vec![(a2, Mult::Star), (c1, Mult::Opt)]),
            ]),
        );
        ty.set_mu(a1, Disjunction::single(SAtom::new(vec![(b, Mult::One)])));
        ty.set_mu(a2, Disjunction::single(SAtom::new(vec![(b, Mult::One)])));
        ty.set_mu(b, Disjunction::leaf());
        ty.set_mu(c1, Disjunction::single(SAtom::new(vec![(b, Mult::Plus)])));
        ty.add_root(r);
        let it = IncompleteTree::new(std::collections::BTreeMap::new(), ty).unwrap();
        let interned = it.minimize();
        let reference = minimize_reference(&it);
        assert_eq!(
            format!("{:?}", interned.ty()),
            format!("{:?}", reference.ty())
        );
        assert_eq!(interned.size(), reference.size());
    }

    /// `r -> µ(a1, a2)` with two leaf children of label 1: `a1` under
    /// `all`, `a2` under `cond2`.
    fn two_kids(
        cond2: IntervalSet,
        mu: impl Fn(Sym, Sym) -> Disjunction,
    ) -> (ConditionalTreeType, [Sym; 3]) {
        let mut ty = ConditionalTreeType::new();
        let r = ty.add_symbol(SymTarget::Lab(Label(0)), IntervalSet::all());
        let a1 = ty.add_symbol(SymTarget::Lab(Label(1)), IntervalSet::all());
        let a2 = ty.add_symbol(SymTarget::Lab(Label(1)), cond2);
        ty.set_mu(r, mu(a1, a2));
        ty.set_mu(a1, Disjunction::leaf());
        ty.set_mu(a2, Disjunction::leaf());
        ty.add_root(r);
        (ty, [r, a1, a2])
    }

    /// `minimized()` borrows exactly when the reference minimization
    /// returns a tree equal to its input, over the shapes that decide
    /// it: merges, distinct keys, shared keys that stay apart (split by
    /// µ or frozen), unsorted or duplicate atoms, unsorted roots,
    /// useless symbols and the empty type.
    #[test]
    fn minimized_borrows_exactly_when_reference_is_unchanged() {
        let stars = |a: Sym, b: Sym| {
            Disjunction::single(SAtom::new(vec![(a, Mult::Star), (b, Mult::Star)]))
        };
        let pos = || Cond::gt(Rat::ZERO).to_intervals();
        let mut cases: Vec<(&str, ConditionalTreeType, bool)> = Vec::new();
        cases.push((
            "bisimilar pair",
            two_kids(IntervalSet::all(), stars).0,
            false,
        ));
        cases.push(("distinct keys", two_kids(pos(), stars).0, true));
        let (mut split, [_, a1, a2]) = two_kids(IntervalSet::all(), stars);
        split.set_mu(a2, Disjunction::single(SAtom::new(vec![(a1, Mult::One)])));
        cases.push(("shared key split by µ", split, true));
        let ones =
            |a: Sym, b: Sym| Disjunction::single(SAtom::new(vec![(a, Mult::One), (b, Mult::One)]));
        cases.push((
            "shared key frozen",
            two_kids(IntervalSet::all(), ones).0,
            true,
        ));
        let unsorted = |a: Sym, b: Sym| {
            Disjunction(vec![
                SAtom::new(vec![(b, Mult::Star)]),
                SAtom::new(vec![(a, Mult::Star)]),
            ])
        };
        cases.push(("unsorted atoms", two_kids(pos(), unsorted).0, false));
        let twice = |a: Sym, _: Sym| Disjunction(vec![SAtom::new(vec![(a, Mult::One)]); 2]);
        cases.push(("duplicate atoms", two_kids(pos(), twice).0, false));
        let (mut roots, [r, a1, _]) = two_kids(pos(), stars);
        roots.set_roots(vec![a1, r]);
        cases.push(("unsorted roots", roots, false));
        let (mut orphan, _) = two_kids(pos(), stars);
        let o = orphan.add_symbol(SymTarget::Lab(Label(2)), IntervalSet::all());
        orphan.set_mu(o, Disjunction::leaf());
        cases.push(("useless symbol", orphan, false));
        cases.push(("empty type", ConditionalTreeType::new(), true));
        for (name, ty, expect) in cases {
            let it = IncompleteTree::new(BTreeMap::new(), ty).unwrap();
            let unchanged = format!("{:?}", minimize_reference(&it)) == format!("{it:?}");
            let borrowed = matches!(it.minimized(), Cow::Borrowed(_));
            assert_eq!(
                borrowed, unchanged,
                "{name}: borrowed iff reference unchanged"
            );
            assert_eq!(borrowed, expect, "{name}");
            assert_eq!(
                format!("{:?}", it.minimize()),
                format!("{:?}", minimize_reference(&it)),
                "{name}"
            );
        }
    }
}
