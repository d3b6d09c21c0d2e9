//! Conjunctive incomplete trees (Section 3.2, Theorems 3.8 and 3.10).
//!
//! Algorithm Refine's disjunctions of multiplicity atoms can grow
//! exponentially in the query-answer sequence (Example 3.2). The paper's
//! fix is to allow *conjunctions* of disjunctions of multiplicity atoms:
//! Refine⁺ then simply conjoins the new `T_{q,A}` constraint, keeping the
//! representation linear in the sequence (Corollary 3.9) — at the price
//! of NP-complete emptiness (Theorem 3.10).
//!
//! Representation choice (documented in DESIGN.md): a conjunctive
//! incomplete tree is stored as a shared data-node part plus a **vector
//! of incomplete-tree layers** with semantics `rep = ⋂ layers`. Each
//! Refine⁺ step appends one layer — literally "taking the conjunction".
//! This is equivalent to the paper's single-tree CNF for reachable trees
//! and keeps every operation syntax-directed:
//!
//! * [`ConjunctiveTree::is_empty`] implements the NP algorithm of
//!   Theorem 3.10 — a backtracking search that folds layers together via
//!   the Lemma 3.3 product, pruning as soon as a partial product is
//!   empty;
//! * [`ConjunctiveTree::to_incomplete_tree`] materializes the full
//!   product (worst-case exponential — this is the DNF expansion the
//!   paper describes), for comparison experiments;
//! * [`ConjunctiveTree::contains`] checks membership in every layer
//!   (conjunction of PTIME checks, so PTIME overall).

use crate::itree::{IncompleteTree, ItreeError};
use crate::refine::{intersect, query_answer_tree};
use iixml_query::{Answer, PsQuery};
use iixml_tree::{Alphabet, DataTree, Label};

/// A conjunctive incomplete tree: the intersection of its layers.
#[derive(Clone, Debug)]
pub struct ConjunctiveTree {
    layers: Vec<IncompleteTree>,
}

impl ConjunctiveTree {
    /// Starts with the zero-knowledge universal layer.
    pub fn new(alpha: &Alphabet) -> ConjunctiveTree {
        let labels: Vec<Label> = alpha.labels().collect();
        ConjunctiveTree {
            layers: vec![IncompleteTree::universal(&labels)],
        }
    }

    /// Wraps existing layers (semantics: their intersection).
    pub fn from_layers(layers: Vec<IncompleteTree>) -> ConjunctiveTree {
        assert!(!layers.is_empty(), "a conjunctive tree needs >= 1 layer");
        ConjunctiveTree { layers }
    }

    /// The layers.
    pub fn layers(&self) -> &[IncompleteTree] {
        &self.layers
    }

    /// Algorithm Refine⁺ (Theorem 3.8): conjoin `T_{q,A}`. The size grows
    /// by `O((|q| + |A|)·|Σ|)` per step — polynomial in the whole
    /// sequence (Corollary 3.9).
    ///
    /// Checks node compatibility against all existing layers, mirroring
    /// the compatibility precondition of Lemma 3.3.
    pub fn refine(
        &mut self,
        alpha: &Alphabet,
        q: &PsQuery,
        ans: &Answer,
    ) -> Result<(), ItreeError> {
        let layer = query_answer_tree(q, ans, alpha)?;
        for prev in &self.layers {
            for (&n, info) in layer.nodes() {
                if let Some(pi) = prev.node_info(n) {
                    if pi != *info {
                        return Err(ItreeError::IncompatibleNode(n));
                    }
                }
            }
        }
        self.layers.push(layer);
        Ok(())
    }

    /// Total representation size (sum of layer sizes).
    pub fn size(&self) -> usize {
        self.layers.iter().map(IncompleteTree::size).sum()
    }

    /// Membership: a tree is represented iff every layer represents it
    /// (PTIME — membership does not pay the NP price, only emptiness and
    /// its relatives do).
    pub fn contains(&self, t: &DataTree) -> bool {
        self.layers.iter().all(|l| l.contains(t))
    }

    /// Emptiness of `rep` — NP-complete (Theorem 3.10).
    ///
    /// Strategy: fold the layers left-to-right with the Lemma 3.3
    /// product, trimming after each step and stopping early when the
    /// partial product is already empty. The paper's
    /// nondeterministic disjunct choice π is realized implicitly: the
    /// product enumerates all disjunct combinations, which backtracking
    /// on emptiness prunes. Worst-case exponential (as it must be unless
    /// P = NP), linear when the layers chain consistently.
    pub fn is_empty(&self) -> bool {
        let mut acc = self.layers[0].clone();
        if acc.is_empty() {
            return true;
        }
        for layer in &self.layers[1..] {
            acc = match intersect(&acc, layer) {
                Ok(t) => t.trim(),
                Err(_) => return true, // incompatible shared node
            };
            if acc.is_empty() {
                return true;
            }
        }
        false
    }

    /// Materializes the explicit product of all layers — the exponential
    /// expansion Algorithm Refine would have built (Example 3.2). Returns
    /// an error on incompatible shared nodes.
    pub fn to_incomplete_tree(&self) -> Result<IncompleteTree, ItreeError> {
        let mut acc = self.layers[0].clone();
        for layer in &self.layers[1..] {
            acc = intersect(&acc, layer)?.trim();
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iixml_query::PsQueryBuilder;
    use iixml_tree::{DataTree, Nid};
    use iixml_values::{Cond, Rat};

    /// The Example 3.2 family: queries root{a=i, b=i} with empty
    /// answers.
    fn example_3_2_query(alpha: &mut Alphabet, i: i64) -> PsQuery {
        let mut b = PsQueryBuilder::new(alpha, "root", Cond::True);
        let root = b.root();
        b.child(root, "a", Cond::eq(Rat::from(i))).unwrap();
        b.child(root, "b", Cond::eq(Rat::from(i))).unwrap();
        b.build()
    }

    fn alphabet() -> Alphabet {
        Alphabet::from_names(["root", "a", "b"])
    }

    #[test]
    fn refine_plus_grows_linearly() {
        let mut alpha = alphabet();
        let mut conj = ConjunctiveTree::new(&alpha);
        let mut sizes = Vec::new();
        for i in 1..=6 {
            let q = example_3_2_query(&mut alpha, i);
            conj.refine(&alpha, &q, &Answer::empty()).unwrap();
            sizes.push(conj.size());
        }
        // Linear growth: constant per-step increments.
        let d1 = sizes[1] - sizes[0];
        for w in sizes.windows(2) {
            assert_eq!(w[1] - w[0], d1, "per-step growth is constant");
        }
    }

    #[test]
    fn conjunctive_semantics_matches_membership() {
        let mut alpha = alphabet();
        let mut conj = ConjunctiveTree::new(&alpha);
        for i in 1..=3 {
            let q = example_3_2_query(&mut alpha, i);
            conj.refine(&alpha, &q, &Answer::empty()).unwrap();
        }
        let (r, a, b) = (
            alpha.get("root").unwrap(),
            alpha.get("a").unwrap(),
            alpha.get("b").unwrap(),
        );
        // root with a=1, b=2: q1 would answer empty? q1 asks a=1 AND
        // b=1; b=1 missing -> empty. q2: a=2 missing -> empty. OK.
        let mut ok = DataTree::new(Nid(0), r, Rat::ZERO);
        ok.add_child(ok.root(), Nid(1), a, Rat::from(1)).unwrap();
        ok.add_child(ok.root(), Nid(2), b, Rat::from(2)).unwrap();
        assert!(conj.contains(&ok));
        // root with a=2, b=2: q2 would answer nonempty -> excluded.
        let mut bad = DataTree::new(Nid(0), r, Rat::ZERO);
        bad.add_child(bad.root(), Nid(1), a, Rat::from(2)).unwrap();
        bad.add_child(bad.root(), Nid(2), b, Rat::from(2)).unwrap();
        assert!(!conj.contains(&bad));
        assert!(!conj.is_empty());
    }

    #[test]
    fn product_expansion_agrees_with_layers() {
        let mut alpha = alphabet();
        let mut conj = ConjunctiveTree::new(&alpha);
        for i in 1..=3 {
            let q = example_3_2_query(&mut alpha, i);
            conj.refine(&alpha, &q, &Answer::empty()).unwrap();
        }
        let expanded = conj.to_incomplete_tree().unwrap();
        let (r, a, b) = (
            alpha.get("root").unwrap(),
            alpha.get("a").unwrap(),
            alpha.get("b").unwrap(),
        );
        // Check agreement on a batch of small trees.
        for av in 0..5i64 {
            for bv in 0..5i64 {
                let mut t = DataTree::new(Nid(0), r, Rat::ZERO);
                t.add_child(t.root(), Nid(1), a, Rat::from(av)).unwrap();
                t.add_child(t.root(), Nid(2), b, Rat::from(bv)).unwrap();
                assert_eq!(
                    conj.contains(&t),
                    expanded.contains(&t),
                    "disagreement at a={av}, b={bv}"
                );
            }
        }
    }

    #[test]
    fn expansion_blows_up_while_layers_stay_small() {
        let mut alpha = alphabet();
        let n = 5;
        let mut conj = ConjunctiveTree::new(&alpha);
        for i in 1..=n {
            let q = example_3_2_query(&mut alpha, i);
            conj.refine(&alpha, &q, &Answer::empty()).unwrap();
        }
        let expanded = conj.to_incomplete_tree().unwrap();
        // The expanded root must distinguish ~2^n combinations of
        // which inequality holds via a / via b; the conjunctive
        // representation stays linear.
        assert!(
            expanded.size() > conj.size(),
            "expanded {} vs conjunctive {}",
            expanded.size(),
            conj.size()
        );
        assert!(!conj.is_empty());
    }

    #[test]
    fn emptiness_detected() {
        let mut alpha = alphabet();
        let mut conj = ConjunctiveTree::new(&alpha);
        // First: the root (labeled root, value anything) exists and the
        // query root[=1] answered *nonempty* (root value is 1)...
        let q_root_is_1 = PsQueryBuilder::new(&mut alpha, "root", Cond::eq(Rat::ONE)).build();
        let mut world = DataTree::new(Nid(0), alpha.get("root").unwrap(), Rat::ONE);
        world
            .add_child(world.root(), Nid(1), alpha.get("a").unwrap(), Rat::ZERO)
            .unwrap();
        let ans = q_root_is_1.eval(&world);
        assert!(!ans.is_empty());
        conj.refine(&alpha, &q_root_is_1, &ans).unwrap();
        assert!(!conj.is_empty());
        // ...then the query root[=1] answers empty: contradiction.
        conj.refine(&alpha, &q_root_is_1, &Answer::empty()).unwrap();
        assert!(conj.is_empty());
    }

    #[test]
    fn incompatible_nodes_rejected() {
        let mut alpha = alphabet();
        let mut conj = ConjunctiveTree::new(&alpha);
        let q = PsQueryBuilder::new(&mut alpha, "root", Cond::True).build();
        let w1 = DataTree::new(Nid(0), alpha.get("root").unwrap(), Rat::ZERO);
        let w2 = DataTree::new(Nid(0), alpha.get("root").unwrap(), Rat::ONE);
        conj.refine(&alpha, &q, &q.eval(&w1)).unwrap();
        assert!(matches!(
            conj.refine(&alpha, &q, &q.eval(&w2)),
            Err(ItreeError::IncompatibleNode(Nid(0)))
        ));
    }
}
