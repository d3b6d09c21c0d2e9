//! Bisimulation minimization of incomplete trees.
//!
//! Algorithm Refine's product construction (Lemma 3.3) creates many
//! specialized symbols that are semantically identical — e.g. after the
//! auxiliary queries of Proposition 3.13 pin all children of a node, the
//! `τ̄`/`τ̂`/`else` specializations of a data node collapse to the same
//! behavior. The paper presents the resulting simplified incomplete tree
//! directly; this module makes the simplification explicit and general:
//!
//! * symbols are partitioned by *bisimilarity* — same specialization
//!   target, same (normalized) condition, and µ's that coincide once
//!   entries are mapped to partition blocks;
//! * each block becomes one symbol; entries of one atom that fall into
//!   the same block are combined when the resulting occurrence-count set
//!   is expressible as a multiplicity (`1`, `?`, `+`, `⋆`) — blocks that
//!   would need an inexpressible count (e.g. "exactly 2") are *frozen*
//!   (not merged), so minimization is always `rep`-preserving;
//! * duplicate atoms in a disjunction are removed.
//!
//! [`IncompleteTree::minimize`] is idempotent and `rep`-preserving; the
//! [`crate::Refiner`] applies it after every step, which keeps benign
//! chains (in particular Proposition 3.13's) polynomial. Most steps merge
//! nothing, so [`IncompleteTree::minimized`] borrows its input whenever
//! the rebuild would only copy it.

use crate::ctt::{ConditionalTreeType, Disjunction, SAtom, Sym, SymTarget};
use crate::intern::{AtomId, InternedType, SliceInterner};
use crate::itree::{keep_unless_changed, IncompleteTree};
use iixml_obs::{keys, LazyCounter, LazyHistogram};
use iixml_tree::Mult;
use iixml_values::IntervalSet;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Wall time of each `minimize()` call.
static OBS_MINIMIZE_NS: LazyHistogram = LazyHistogram::new(keys::CORE_MINIMIZE_CALL_NS);
/// Symbols eliminated by bisimulation merging, across all calls.
static OBS_MERGED: LazyCounter = LazyCounter::new(keys::CORE_MINIMIZE_SYMBOLS_MERGED);
/// Distinct partition signatures interned across all refinement rounds.
static OBS_INTERNED: LazyCounter = LazyCounter::new(keys::CORE_MINIMIZE_INTERNED_SIGS);
/// `minimized()` calls that borrowed their input.
static OBS_UNCHANGED: LazyCounter = LazyCounter::new(keys::CORE_MINIMIZE_UNCHANGED);

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

impl IncompleteTree {
    /// Merges bisimilar symbols and removes duplicate atoms, preserving
    /// `rep` exactly. Run [`IncompleteTree::trim`] first for best effect
    /// (the [`crate::Refiner`] does both).
    pub fn minimize(&self) -> IncompleteTree {
        self.minimized().into_owned()
    }

    /// [`minimize`](Self::minimize) that borrows when the rebuild would
    /// copy its input: `Borrowed(self)` exactly when the bisimulation
    /// partition is discrete (every symbol its own block), every µ's
    /// atoms and the root list are strictly sorted, and the tree is trim.
    /// When no two symbols share a (target, cond) pair the partition is
    /// discrete from the start, so that case skips interning, partition
    /// rounds, the rebuild and the trailing trim.
    pub fn minimized(&self) -> Cow<'_, IncompleteTree> {
        let _span = OBS_MINIMIZE_NS.time();
        let ty = self.ty();
        let n = ty.sym_count();
        let sorted = self.in_rebuild_order();
        if n == 0 || (sorted && self.keys_distinct() && self.is_trim()) {
            OBS_UNCHANGED.incr();
            return Cow::Borrowed(self);
        }
        // Lower every µ onto the interned kernel store once per call:
        // the freeze loop and every partition round below walk flat
        // id slices instead of nested atom structures, and an atom
        // shared by many symbols (the `all_star` µ of `T_{q,A}`, the
        // product atoms duplicated across specializations) is visited
        // exactly once per pass.
        let interned = InternedType::build(ty);
        // Frozen symbols are never merged with anything.
        let mut frozen: HashSet<Sym> = HashSet::new();
        let mut ent: Vec<(usize, Mult)> = Vec::new();
        let mut ms: Vec<Mult> = Vec::new();
        loop {
            let block_of = self.partition(&interned, &frozen);
            // Check expressibility of every within-atom merge, per
            // *distinct* atom. Identical to the per-symbol walk (an
            // atom violates independently of which µ references it)
            // but without revisiting shared atoms.
            let mut violated: BTreeSet<usize> = BTreeSet::new();
            for a in 0..interned.table.atom_count() {
                ent.clear();
                for &(c, m) in interned.table.atom(AtomId(a as u32)) {
                    ent.push((block_of[c.ix()], m));
                }
                ent.sort_unstable_by_key(|e| e.0);
                let mut i = 0;
                while i < ent.len() {
                    let block = ent[i].0;
                    ms.clear();
                    while i < ent.len() && ent[i].0 == block {
                        ms.push(ent[i].1);
                        i += 1;
                    }
                    if combine(&ms).is_none() {
                        violated.insert(block);
                    }
                }
            }
            if violated.is_empty() {
                let discrete = block_of.iter().enumerate().all(|(s, &b)| s == b);
                if discrete && sorted && self.is_trim() {
                    OBS_UNCHANGED.incr();
                    return Cow::Borrowed(self);
                }
                // Infallible: the loop above found no block to split.
                let out = self
                    .quotient(&block_of)
                    .expect("inexpressible blocks were frozen before the quotient");
                OBS_MERGED.add((n - out.ty().sym_count().min(n)) as u64);
                return Cow::Owned(out);
            }
            // Freeze every member of each offending block.
            for c in ty.syms() {
                if violated.contains(&block_of[c.ix()]) {
                    frozen.insert(c);
                }
            }
        }
    }

    /// Counts `self` as a tree [`minimized`](Self::minimized) would
    /// borrow, without running it: the caller knows `self` is trim, and
    /// its certificate ([`crate::refine::CertifiedProduct`]) shows the
    /// rest.
    pub(crate) fn keep_certified(self) -> IncompleteTree {
        debug_assert!(
            self.in_rebuild_order() && self.keys_distinct(),
            "a certified product minimize would rebuild"
        );
        OBS_UNCHANGED.incr();
        self
    }

    /// Does [`quotient`](Self::quotient) keep this tree's order? True
    /// iff the root list, every µ's atom list and every atom's entries
    /// are strictly sorted (the quotient sorts and dedups all three).
    fn in_rebuild_order(&self) -> bool {
        let ty = self.ty();
        ty.roots().windows(2).all(|w| w[0] < w[1])
            && ty.syms().all(|s| {
                let atoms = ty.mu(s).atoms();
                atoms
                    .windows(2)
                    .all(|w| w[0].entries().iter().lt(w[1].entries().iter()))
                    && atoms
                        .iter()
                        .all(|a| a.entries().windows(2).all(|w| w[0].0 < w[1].0))
            })
    }

    /// Does every symbol have a (target, cond) pair of its own? Then the
    /// initial partition, and so the final one, is discrete.
    fn keys_distinct(&self) -> bool {
        let ty = self.ty();
        let mut seen: HashSet<(SymTarget, &IntervalSet)> = HashSet::with_capacity(ty.sym_count());
        ty.syms().all(|s| {
            let info = ty.info(s);
            seen.insert((info.target, &info.cond))
        })
    }

    /// Coarsest partition compatible with (target, cond, frozen-ness)
    /// refined by µ signatures, computed over the interned kernel
    /// representation: each round canonicalizes every *distinct* atom
    /// once (entries mapped to current blocks, sorted, in one reused
    /// buffer), then interns per-symbol signatures as flat `u32`
    /// slices. Canon ids are assigned in atom-id order and signatures
    /// are interned in symbol order, so block numbering is
    /// first-encounter order — byte-identical to the structural
    /// reference, `iixml_oracle::minimize_reference` (pinned by
    /// `tests/intern_equiv.rs`).
    fn partition(&self, interned: &InternedType, frozen: &HashSet<Sym>) -> Vec<usize> {
        let ty = self.ty();
        let n = ty.sym_count();
        // Initial blocks: by (target, cond), frozen symbols isolated.
        // The key is the structured (SymTarget, IntervalSet) pair hashed
        // directly — the old keying rendered both to `format!`-allocated
        // Strings per symbol per call, which showed up as the top
        // allocation site in minimize (see BENCH_cpu.json,
        // `sig_interning_*`). Frozen symbols never share, so they take a
        // fresh block without touching the map; block numbering is
        // first-encounter order either way.
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
        // Refine until stable. A round is two stages:
        //
        // 1. Canonicalize every distinct atom under the current
        //    partition: entries mapped to `(block, mult)`, sorted, in
        //    one reused buffer. Equal forms intern to equal `canon` ids
        //    (assigned in atom-id order — deterministic).
        // 2. Per symbol, the signature is its current block plus the
        //    sorted-deduped canon ids of its µ's atoms — a flat `u32`
        //    slice. Interning it yields the next-round block directly,
        //    since `SliceInterner` numbers fresh slices in
        //    first-encounter order, exactly like the HashMap-with-
        //    running-counter it replaces.
        let atom_count = interned.table.atom_count() as u32;
        let mut form: Vec<(u32, Mult)> = Vec::new();
        loop {
            let mut canon_of: Vec<u32> = Vec::with_capacity(atom_count as usize);
            let mut canon: SliceInterner<(u32, Mult)> = SliceInterner::new();
            for a in 0..atom_count {
                form.clear();
                for &(c, m) in interned.table.atom(AtomId(a)) {
                    form.push((block_of[c.ix()] as u32, m));
                }
                form.sort_unstable();
                canon_of.push(canon.intern(&form));
            }
            let mut sig: SliceInterner<u32> = SliceInterner::new();
            let mut next_block: Vec<usize> = vec![0; n];
            let mut ids: Vec<u32> = Vec::new();
            let mut buf: Vec<u32> = Vec::new();
            for s in ty.syms() {
                ids.clear();
                for &a in interned.table.disj(interned.mu_of(s)) {
                    ids.push(canon_of[a.ix()]);
                }
                ids.sort_unstable();
                ids.dedup();
                buf.clear();
                buf.push(block_of[s.ix()] as u32);
                buf.extend_from_slice(&ids);
                next_block[s.ix()] = sig.intern(&buf) as usize;
            }
            OBS_INTERNED.add(sig.len() as u64);
            if next_block == block_of {
                return block_of;
            }
            block_of = next_block;
        }
    }

    /// The quotient of this tree by a partition of its symbols, given as
    /// one block number per symbol (`block_of[s.ix()]`): each block
    /// becomes one symbol, the first of its members in symbol order
    /// supplies its target, condition and µ, entries of one atom that
    /// fall into the same block are combined, and the result is sorted,
    /// deduplicated and trimmed. `None` when the entries of some block
    /// in some atom would need an occurrence count no multiplicity
    /// expresses ("exactly 2"); such blocks must be split first.
    ///
    /// # Panics
    ///
    /// When `block_of` has fewer entries than the type has symbols.
    pub fn quotient(&self, block_of: &[usize]) -> Option<IncompleteTree> {
        let ty = self.ty();
        let mut rep_sym: HashMap<usize, Sym> = HashMap::new();
        let mut out = ConditionalTreeType::new();
        for s in ty.syms() {
            let b = block_of[s.ix()];
            if let std::collections::hash_map::Entry::Vacant(e) = rep_sym.entry(b) {
                let info = ty.info(s);
                let ns = out.add_symbol(info.target, info.cond.clone());
                e.insert(ns);
            }
        }
        // Build µ from each block representative's original µ.
        let mut done: HashSet<usize> = HashSet::new();
        for s in ty.syms() {
            let b = block_of[s.ix()];
            if !done.insert(b) {
                continue;
            }
            let mut atoms: Vec<SAtom> = Vec::new();
            for atom in ty.mu(s).atoms() {
                let mut groups: BTreeMap<Sym, Vec<Mult>> = BTreeMap::new();
                for &(c, m) in atom.entries() {
                    groups
                        .entry(rep_sym[&block_of[c.ix()]])
                        .or_default()
                        .push(m);
                }
                let mut entries: Vec<(Sym, Mult)> = Vec::with_capacity(groups.len());
                for (c, ms) in groups {
                    entries.push((c, combine(&ms)?));
                }
                atoms.push(SAtom::new(entries));
            }
            atoms.sort_by(|x, y| x.entries().iter().cmp(y.entries().iter()));
            atoms.dedup();
            out.set_mu(rep_sym[&b], Disjunction(atoms));
        }
        let mut roots: Vec<Sym> = ty
            .roots()
            .iter()
            .map(|r| rep_sym[&block_of[r.ix()]])
            .collect();
        roots.sort();
        roots.dedup();
        out.set_roots(roots);
        // Infallible: minimization rewrites symbols only — the node set is
        // exactly the one this (well-formed) tree already carries.
        let out = IncompleteTree::new(self.nodes().clone(), out).expect("nodes unchanged");
        Some(keep_unless_changed(out, IncompleteTree::trimmed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itree::NodeInfo;
    use iixml_tree::{DataTree, Label, Nid};
    use iixml_values::{Cond, IntervalSet, Rat};

    /// Two symbols with identical behavior under the root: must merge.
    #[test]
    fn merges_identical_star_symbols() {
        let mut ty = ConditionalTreeType::new();
        let r = ty.add_symbol(SymTarget::Lab(Label(0)), IntervalSet::all());
        let a1 = ty.add_symbol(SymTarget::Lab(Label(1)), Cond::gt(Rat::ZERO).to_intervals());
        let a2 = ty.add_symbol(SymTarget::Lab(Label(1)), Cond::gt(Rat::ZERO).to_intervals());
        ty.set_mu(
            r,
            Disjunction(vec![
                SAtom::new(vec![(a1, Mult::Star)]),
                SAtom::new(vec![(a2, Mult::Star)]),
            ]),
        );
        ty.set_mu(a1, Disjunction::leaf());
        ty.set_mu(a2, Disjunction::leaf());
        ty.add_root(r);
        let it = IncompleteTree::new(std::collections::BTreeMap::new(), ty).unwrap();
        let m = it.minimize();
        assert_eq!(m.ty().sym_count(), 2, "a1/a2 merged");
        // The two atoms collapsed to one.
        let root_sym = m.ty().roots()[0];
        assert_eq!(m.ty().mu(root_sym).atoms().len(), 1);
        // Semantics preserved.
        let mut t = DataTree::new(Nid(0), Label(0), Rat::ZERO);
        t.add_child(t.root(), Nid(1), Label(1), Rat::from(3))
            .unwrap();
        assert!(it.contains(&t) && m.contains(&t));
        let mut bad = DataTree::new(Nid(0), Label(0), Rat::ZERO);
        bad.add_child(bad.root(), Nid(1), Label(1), Rat::from(-3))
            .unwrap();
        assert!(!it.contains(&bad) && !m.contains(&bad));
    }

    /// Symbols with different conditions must not merge.
    #[test]
    fn keeps_distinguishable_symbols() {
        let mut ty = ConditionalTreeType::new();
        let r = ty.add_symbol(SymTarget::Lab(Label(0)), IntervalSet::all());
        let a1 = ty.add_symbol(SymTarget::Lab(Label(1)), Cond::gt(Rat::ZERO).to_intervals());
        let a2 = ty.add_symbol(SymTarget::Lab(Label(1)), Cond::lt(Rat::ZERO).to_intervals());
        ty.set_mu(
            r,
            Disjunction::single(SAtom::new(vec![(a1, Mult::Star), (a2, Mult::Star)])),
        );
        ty.set_mu(a1, Disjunction::leaf());
        ty.set_mu(a2, Disjunction::leaf());
        ty.add_root(r);
        let it = IncompleteTree::new(std::collections::BTreeMap::new(), ty).unwrap();
        let m = it.minimize();
        assert_eq!(m.ty().sym_count(), 3);
    }

    /// Same condition, different subtree structure: no merge.
    #[test]
    fn structure_distinguishes() {
        let mut ty = ConditionalTreeType::new();
        let r = ty.add_symbol(SymTarget::Lab(Label(0)), IntervalSet::all());
        let a1 = ty.add_symbol(SymTarget::Lab(Label(1)), IntervalSet::all());
        let a2 = ty.add_symbol(SymTarget::Lab(Label(1)), IntervalSet::all());
        let b = ty.add_symbol(SymTarget::Lab(Label(2)), IntervalSet::all());
        ty.set_mu(
            r,
            Disjunction::single(SAtom::new(vec![(a1, Mult::Star), (a2, Mult::Star)])),
        );
        ty.set_mu(a1, Disjunction::single(SAtom::new(vec![(b, Mult::One)])));
        ty.set_mu(a2, Disjunction::leaf());
        ty.set_mu(b, Disjunction::leaf());
        ty.add_root(r);
        let it = IncompleteTree::new(std::collections::BTreeMap::new(), ty).unwrap();
        let m = it.minimize();
        assert_eq!(m.ty().sym_count(), 4);
    }

    /// The inexpressible-count guard: two mandatory bounded entries of a
    /// would-be block must stay separate.
    #[test]
    fn freezes_inexpressible_merges() {
        let mut nodes = std::collections::BTreeMap::new();
        nodes.insert(
            Nid(0),
            NodeInfo {
                label: Label(0),
                value: Rat::ZERO,
            },
        );
        let mut ty = ConditionalTreeType::new();
        let r = ty.add_symbol(SymTarget::Node(Nid(0)), IntervalSet::all());
        // Two identical-behavior Lab symbols, both mandatory in the same
        // atom: merged they would require "exactly 2".
        let a1 = ty.add_symbol(SymTarget::Lab(Label(1)), IntervalSet::all());
        let a2 = ty.add_symbol(SymTarget::Lab(Label(1)), IntervalSet::all());
        ty.set_mu(
            r,
            Disjunction::single(SAtom::new(vec![(a1, Mult::One), (a2, Mult::One)])),
        );
        ty.set_mu(a1, Disjunction::leaf());
        ty.set_mu(a2, Disjunction::leaf());
        ty.add_root(r);
        let it = IncompleteTree::new(nodes, ty).unwrap();
        let m = it.minimize();
        // Exactly-two semantics preserved.
        let mut two = DataTree::new(Nid(0), Label(0), Rat::ZERO);
        two.add_child(two.root(), Nid(10), Label(1), Rat::ZERO)
            .unwrap();
        two.add_child(two.root(), Nid(11), Label(1), Rat::ZERO)
            .unwrap();
        let mut one = DataTree::new(Nid(0), Label(0), Rat::ZERO);
        one.add_child(one.root(), Nid(10), Label(1), Rat::ZERO)
            .unwrap();
        let mut three = two.clone();
        three
            .add_child(three.root(), Nid(12), Label(1), Rat::ZERO)
            .unwrap();
        for (t, expect) in [(&two, true), (&one, false), (&three, false)] {
            assert_eq!(it.contains(t), expect);
            assert_eq!(m.contains(t), expect, "minimization changed semantics");
        }
    }

    /// One + Star in a block combines to Plus.
    #[test]
    fn combine_rules() {
        assert_eq!(combine(&[Mult::Star, Mult::Star]), Some(Mult::Star));
        assert_eq!(combine(&[Mult::One, Mult::Star]), Some(Mult::Plus));
        assert_eq!(combine(&[Mult::Opt, Mult::Star]), Some(Mult::Star));
        assert_eq!(combine(&[Mult::Plus, Mult::Star]), Some(Mult::Plus));
        assert_eq!(combine(&[Mult::One, Mult::One]), None);
        assert_eq!(combine(&[Mult::Opt, Mult::Opt]), None);
        assert_eq!(combine(&[Mult::Plus, Mult::Plus]), None);
        assert_eq!(combine(&[Mult::One]), Some(Mult::One));
    }

    /// Minimization is idempotent.
    #[test]
    fn idempotent() {
        let mut ty = ConditionalTreeType::new();
        let r = ty.add_symbol(SymTarget::Lab(Label(0)), IntervalSet::all());
        let a1 = ty.add_symbol(SymTarget::Lab(Label(1)), IntervalSet::all());
        let a2 = ty.add_symbol(SymTarget::Lab(Label(1)), IntervalSet::all());
        ty.set_mu(
            r,
            Disjunction::single(SAtom::new(vec![(a1, Mult::Star), (a2, Mult::Star)])),
        );
        ty.set_mu(a1, Disjunction::leaf());
        ty.set_mu(a2, Disjunction::leaf());
        ty.add_root(r);
        let it = IncompleteTree::new(std::collections::BTreeMap::new(), ty).unwrap();
        let m1 = it.minimize();
        let m2 = m1.minimize();
        assert_eq!(m1.ty().sym_count(), m2.ty().sym_count());
        assert_eq!(m1.size(), m2.size());
    }
}
