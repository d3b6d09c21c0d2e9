//! Certain and possible prefixes (Theorem 2.8).
//!
//! Given an incomplete tree `T` with data nodes `N` and a candidate data
//! tree `T`, the paper asks whether `T` is a *certain prefix* (every tree
//! in `rep(T)` has `T` as a prefix relative to `N`) or a *possible
//! prefix* (some tree does). Both are PTIME; the per-node step reduces to
//! bipartite matching between the children of a `T`-node and the entries
//! of a multiplicity atom.
//!
//! Implementation notes:
//! * The type is trimmed first, so every surviving symbol is productive —
//!   the precondition "no useless symbols" of the paper's algorithm.
//! * `Cert(u)` keeps a symbol only when its condition *forces* the node's
//!   value (`cond = {v}`): otherwise some represented tree places a
//!   different value there and the embedding is not guaranteed.
//! * Unpinned `T`-nodes are also allowed to embed onto instantiated data
//!   nodes (the prefix definition only pins nodes whose ids are in `N`);
//!   this slightly generalizes the paper's presentation, which relabels
//!   only the pinned nodes.
//! * Entries targeting data nodes contribute at most one occurrence per
//!   represented tree (Definition 2.7(4)), so they are never treated as
//!   repeatable slots.

use crate::ctt::{ConditionalTreeType, SAtom, Sym, SymTarget};
use crate::itree::IncompleteTree;
use iixml_tree::matching::Bipartite;
use iixml_tree::{DataTree, NodeRef};
use std::collections::HashMap;

struct PrefixAnalysis<'a> {
    it: &'a IncompleteTree,
    t: &'a DataTree,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Certain,
    Possible,
}

impl PrefixAnalysis<'_> {
    fn ty(&self) -> &ConditionalTreeType {
        self.it.ty()
    }

    /// Is symbol `s` admissible at `T`-node `u` (label/pinning/value)?
    fn match_ok(&self, u: NodeRef, s: Sym, mode: Mode) -> bool {
        let info = self.ty().info(s);
        let pinned = self.it.nodes().contains_key(&self.t.nid(u));
        match info.target {
            SymTarget::Node(n) => {
                if pinned && self.t.nid(u) != n {
                    return false;
                }
                let Some(ni) = self.it.node_info(n) else {
                    return false;
                };
                if ni.label != self.t.label(u) || ni.value != self.t.value(u) {
                    return false;
                }
            }
            SymTarget::Lab(l) => {
                if pinned || l != self.t.label(u) {
                    return false;
                }
            }
        }
        match mode {
            // Possible: the node's value merely satisfies the condition.
            Mode::Possible => info.cond.contains(self.t.value(u)),
            // Certain: the condition must *force* this exact value.
            Mode::Certain => info.cond.as_singleton() == Some(self.t.value(u)),
        }
    }

    /// The set of symbols `s` such that the subtree of `T` at `u` is a
    /// certain (resp. possible) prefix of every (resp. some) tree of
    /// `rep(T_s)` — the `Cert(n)` / `Poss(n)` sets of Theorem 2.8.
    fn analyze(&self, u: NodeRef, mode: Mode, memo: &mut HashMap<NodeRef, Vec<bool>>) -> Vec<bool> {
        if let Some(v) = memo.get(&u) {
            return v.clone();
        }
        // Children first (bottom-up).
        let kids = self.t.children(u).to_vec();
        let kid_sets: Vec<Vec<bool>> = kids.iter().map(|&c| self.analyze(c, mode, memo)).collect();
        let mut out = vec![false; self.ty().sym_count()];
        for s in self.ty().syms() {
            if !self.match_ok(u, s, mode) {
                continue;
            }
            let atoms = self.ty().mu(s).atoms();
            if atoms.is_empty() {
                continue; // unsatisfiable symbol (removed by trim anyway)
            }
            let ok = match mode {
                Mode::Certain => atoms.iter().all(|a| self.atom_certain(a, &kids, &kid_sets)),
                Mode::Possible => atoms
                    .iter()
                    .any(|a| self.atom_possible(a, &kids, &kid_sets)),
            };
            out[s.ix()] = ok;
        }
        memo.insert(u, out.clone());
        out
    }

    /// Certain embedding of all children into *guaranteed* slots: each
    /// child goes to a distinct entry whose multiplicity guarantees an
    /// occurrence (`1`/`+`) and whose symbol certainly embeds the child.
    fn atom_certain(&self, atom: &SAtom, kids: &[NodeRef], kid_sets: &[Vec<bool>]) -> bool {
        if kids.is_empty() {
            return true;
        }
        let slots: Vec<Sym> = atom
            .entries()
            .iter()
            .filter(|&&(_, m)| m.mandatory())
            .map(|&(c, _)| c)
            .collect();
        if slots.len() < kids.len() {
            return false;
        }
        let mut g = Bipartite::new(kids.len(), slots.len());
        for (j, set) in kid_sets.iter().enumerate() {
            for (i, &slot) in slots.iter().enumerate() {
                if set[slot.ix()] {
                    g.add_edge(j, i);
                }
            }
        }
        g.has_left_perfect_matching()
    }

    /// Possible embedding: children that fit a repeatable label-targeted
    /// entry can always be accommodated; the rest need distinct
    /// single-occurrence slots.
    fn atom_possible(&self, atom: &SAtom, _kids: &[NodeRef], kid_sets: &[Vec<bool>]) -> bool {
        let mut pending: Vec<usize> = Vec::new();
        'kids: for (j, set) in kid_sets.iter().enumerate() {
            for &(c, m) in atom.entries() {
                let unbounded =
                    m.repeatable() && matches!(self.ty().info(c).target, SymTarget::Lab(_));
                if unbounded && set[c.ix()] {
                    continue 'kids; // repeatable slot swallows the child
                }
            }
            pending.push(j);
        }
        if pending.is_empty() {
            return true;
        }
        // Single-occurrence slots: non-repeatable entries, plus
        // node-targeted entries (capacity 1 by Definition 2.7(4)).
        let slots: Vec<Sym> = atom
            .entries()
            .iter()
            .filter(|&&(c, m)| {
                !m.repeatable() || matches!(self.ty().info(c).target, SymTarget::Node(_))
            })
            .map(|&(c, _)| c)
            .collect();
        let mut g = Bipartite::new(pending.len(), slots.len());
        for (pj, &j) in pending.iter().enumerate() {
            for (i, &slot) in slots.iter().enumerate() {
                if kid_sets[j][slot.ix()] {
                    g.add_edge(pj, i);
                }
            }
        }
        g.has_left_perfect_matching()
    }
}

impl IncompleteTree {
    fn prefix_query(&self, t: &DataTree, mode: Mode) -> bool {
        // Precheck: pinned nodes must agree with (λ, ν).
        for u in t.preorder() {
            if let Some(info) = self.node_info(t.nid(u)) {
                if info.label != t.label(u) || info.value != t.value(u) {
                    return false;
                }
            }
        }
        let trimmed = self.trimmed();
        if trimmed.ty().roots().is_empty() {
            return false; // rep is empty
        }
        let analysis = PrefixAnalysis { it: &trimmed, t };
        let mut memo = HashMap::new();
        let sets = analysis.analyze(t.root(), mode, &mut memo);
        match mode {
            Mode::Possible => trimmed.ty().roots().iter().any(|r| sets[r.ix()]),
            Mode::Certain => trimmed.ty().roots().iter().all(|r| sets[r.ix()]),
        }
    }

    /// Is `t` a prefix (relative to this tree's data nodes) of **some**
    /// tree in `rep(T)`? (Theorem 2.8, PTIME.)
    pub fn possible_prefix(&self, t: &DataTree) -> bool {
        self.prefix_query(t, Mode::Possible)
    }

    /// Is `rep(T)` nonempty and `t` a prefix (relative to this tree's
    /// data nodes) of **every** tree in `rep(T)`? (Theorem 2.8, PTIME.)
    pub fn certain_prefix(&self, t: &DataTree) -> bool {
        self.prefix_query(t, Mode::Certain)
    }
}

#[cfg(test)]
mod tests {
    use crate::ctt::{ConditionalTreeType, Disjunction, SAtom, SymTarget};
    use crate::itree::{IncompleteTree, NodeInfo};
    use iixml_tree::{DataTree, Label, Mult, Nid};
    use iixml_values::{Cond, IntervalSet, Rat};
    use std::collections::BTreeMap;

    /// Example 2.2 incomplete tree: root r (=0) with data child n (a,=0),
    /// optional extra `a != 0` children, all a's may have b children.
    fn example() -> IncompleteTree {
        let mut nodes = BTreeMap::new();
        nodes.insert(
            Nid(0),
            NodeInfo {
                label: Label(0),
                value: Rat::ZERO,
            },
        );
        nodes.insert(
            Nid(1),
            NodeInfo {
                label: Label(1),
                value: Rat::ZERO,
            },
        );
        let mut ty = ConditionalTreeType::new();
        let r = ty.add_symbol(SymTarget::Node(Nid(0)), Cond::eq(Rat::ZERO).to_intervals());
        let n = ty.add_symbol(SymTarget::Node(Nid(1)), Cond::eq(Rat::ZERO).to_intervals());
        let a = ty.add_symbol(SymTarget::Lab(Label(1)), Cond::ne(Rat::ZERO).to_intervals());
        let b = ty.add_symbol(SymTarget::Lab(Label(2)), IntervalSet::all());
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

    #[test]
    fn data_tree_is_certain_prefix() {
        let it = example();
        let td = it.data_tree().unwrap();
        assert!(it.certain_prefix(&td));
        assert!(it.possible_prefix(&td));
    }

    #[test]
    fn root_alone_is_certain() {
        let it = example();
        let t = DataTree::new(Nid(0), Label(0), Rat::ZERO);
        assert!(it.certain_prefix(&t));
    }

    #[test]
    fn extra_a_child_possible_not_certain() {
        let it = example();
        let mut t = DataTree::new(Nid(0), Label(0), Rat::ZERO);
        t.add_child(t.root(), Nid(99), Label(1), Rat::from(5))
            .unwrap();
        assert!(it.possible_prefix(&t), "some world has an extra a=5");
        assert!(!it.certain_prefix(&t), "worlds with no extra a exist");
    }

    #[test]
    fn forbidden_value_not_even_possible() {
        let it = example();
        // Unpinned a-child with value 0: the star type requires != 0, and
        // the data node n (value 0) can absorb it instead!
        let mut t = DataTree::new(Nid(0), Label(0), Rat::ZERO);
        t.add_child(t.root(), Nid(99), Label(1), Rat::ZERO).unwrap();
        assert!(
            it.possible_prefix(&t),
            "embeds onto the data node n (value 0)"
        );
        // But two such children cannot both embed (only one node n, and
        // the star type rejects value 0).
        let mut t2 = t.clone();
        t2.add_child(t2.root(), Nid(98), Label(1), Rat::ZERO)
            .unwrap();
        assert!(!it.possible_prefix(&t2));
    }

    #[test]
    fn pinned_mismatch_fails_fast() {
        let it = example();
        // Node 1 pinned with the wrong label.
        let mut t = DataTree::new(Nid(0), Label(0), Rat::ZERO);
        t.add_child(t.root(), Nid(1), Label(2), Rat::ZERO).unwrap();
        assert!(!it.possible_prefix(&t));
        assert!(!it.certain_prefix(&t));
        // Wrong value on the pinned root.
        let t2 = DataTree::new(Nid(0), Label(0), Rat::from(3));
        assert!(!it.possible_prefix(&t2));
    }

    #[test]
    fn wrong_root_label() {
        let it = example();
        let t = DataTree::new(Nid(7), Label(1), Rat::ZERO);
        assert!(!it.possible_prefix(&t));
    }

    #[test]
    fn empty_rep_nothing_is_certain_or_possible() {
        let mut nodes = BTreeMap::new();
        nodes.insert(
            Nid(0),
            NodeInfo {
                label: Label(0),
                value: Rat::ZERO,
            },
        );
        let mut ty = ConditionalTreeType::new();
        // Root requires an unproductive child.
        let r = ty.add_symbol(SymTarget::Node(Nid(0)), IntervalSet::all());
        let x = ty.add_symbol(SymTarget::Lab(Label(1)), IntervalSet::all());
        ty.set_mu(r, Disjunction::single(SAtom::new(vec![(x, Mult::One)])));
        ty.set_mu(x, Disjunction::single(SAtom::new(vec![(x, Mult::One)])));
        ty.add_root(r);
        let it = IncompleteTree::new(nodes, ty).unwrap();
        assert!(it.is_empty());
        let t = DataTree::new(Nid(0), Label(0), Rat::ZERO);
        assert!(!it.possible_prefix(&t));
        assert!(!it.certain_prefix(&t));
    }

    #[test]
    fn certain_needs_forced_values() {
        // root -> x* with cond(x) = (0, 10): a tree with x=5 is possible
        // but never certain (value not forced, and x not mandatory).
        let mut ty = ConditionalTreeType::new();
        let r = ty.add_symbol(SymTarget::Lab(Label(0)), Cond::eq(Rat::ZERO).to_intervals());
        let x = ty.add_symbol(
            SymTarget::Lab(Label(1)),
            Cond::gt(Rat::ZERO)
                .and(Cond::lt(Rat::from(10)))
                .to_intervals(),
        );
        ty.set_mu(r, Disjunction::single(SAtom::new(vec![(x, Mult::Star)])));
        ty.set_mu(x, Disjunction::leaf());
        ty.add_root(r);
        let it = IncompleteTree::new(BTreeMap::new(), ty).unwrap();
        let mut t = DataTree::new(Nid(0), Label(0), Rat::ZERO);
        t.add_child(t.root(), Nid(1), Label(1), Rat::from(5))
            .unwrap();
        assert!(it.possible_prefix(&t));
        assert!(!it.certain_prefix(&t));
    }

    #[test]
    fn certain_with_mandatory_forced_child() {
        // root -> x (exactly one, value forced to 7).
        let mut ty = ConditionalTreeType::new();
        let r = ty.add_symbol(SymTarget::Lab(Label(0)), Cond::eq(Rat::ZERO).to_intervals());
        let x = ty.add_symbol(
            SymTarget::Lab(Label(1)),
            Cond::eq(Rat::from(7)).to_intervals(),
        );
        ty.set_mu(r, Disjunction::single(SAtom::new(vec![(x, Mult::One)])));
        ty.set_mu(x, Disjunction::leaf());
        ty.add_root(r);
        let it = IncompleteTree::new(BTreeMap::new(), ty).unwrap();
        let mut t = DataTree::new(Nid(0), Label(0), Rat::ZERO);
        t.add_child(t.root(), Nid(1), Label(1), Rat::from(7))
            .unwrap();
        assert!(it.certain_prefix(&t));
        // Two x children: not even possible (exactly one).
        let mut t2 = t.clone();
        t2.add_child(t2.root(), Nid(2), Label(1), Rat::from(7))
            .unwrap();
        assert!(!it.possible_prefix(&t2));
    }

    #[test]
    fn certain_quantifies_over_all_disjuncts() {
        // root -> x | eps : the x child appears only in some worlds.
        let mut ty = ConditionalTreeType::new();
        let r = ty.add_symbol(SymTarget::Lab(Label(0)), Cond::eq(Rat::ZERO).to_intervals());
        let x = ty.add_symbol(
            SymTarget::Lab(Label(1)),
            Cond::eq(Rat::from(7)).to_intervals(),
        );
        ty.set_mu(
            r,
            Disjunction(vec![SAtom::new(vec![(x, Mult::One)]), SAtom::empty()]),
        );
        ty.set_mu(x, Disjunction::leaf());
        ty.add_root(r);
        let it = IncompleteTree::new(BTreeMap::new(), ty).unwrap();
        let mut t = DataTree::new(Nid(0), Label(0), Rat::ZERO);
        t.add_child(t.root(), Nid(1), Label(1), Rat::from(7))
            .unwrap();
        assert!(it.possible_prefix(&t));
        assert!(!it.certain_prefix(&t), "the eps disjunct has no x child");
    }

    #[test]
    fn multiple_roots_certain_needs_all() {
        let mut ty = ConditionalTreeType::new();
        let r1 = ty.add_symbol(SymTarget::Lab(Label(0)), Cond::eq(Rat::ZERO).to_intervals());
        let r2 = ty.add_symbol(SymTarget::Lab(Label(1)), Cond::eq(Rat::ZERO).to_intervals());
        ty.set_mu(r1, Disjunction::leaf());
        ty.set_mu(r2, Disjunction::leaf());
        ty.add_root(r1);
        ty.add_root(r2);
        let it = IncompleteTree::new(BTreeMap::new(), ty).unwrap();
        let t = DataTree::new(Nid(0), Label(0), Rat::ZERO);
        // Possible: some world has a label-0 root.
        assert!(it.possible_prefix(&t));
        // Not certain: worlds rooted r2 have label 1.
        assert!(!it.certain_prefix(&t));
    }
}
