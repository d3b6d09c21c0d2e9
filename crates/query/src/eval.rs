//! Evaluation of ps-queries on data trees.
//!
//! The answer `q(T)` is the prefix of `T` made of all nodes in the image
//! of some valuation of the pattern into `T`, plus all descendants of
//! nodes matched by barred pattern nodes. Node ids are preserved
//! (Remark 2.4), so the answer's nodes *are* nodes of `T` and consecutive
//! answers can be merged.

use crate::pattern::{PsQuery, QNodeRef};
use iixml_obs::{keys, LazyCounter, LazyHistogram};
use iixml_tree::{DataTree, Nid, NodeRef};
use std::collections::HashMap;

/// Query evaluations performed.
static OBS_EVALS: LazyCounter = LazyCounter::new(keys::QUERY_EVAL_CALLS);
/// Pattern-node/data-node valuations tried per evaluation (the memo's
/// footprint — the `O(|q|·|T|)` of the naive bound).
static OBS_VALUATIONS: LazyHistogram = LazyHistogram::new(keys::QUERY_EVAL_VALUATIONS);
/// Answer size (nodes) per evaluation, empty answers included as 0.
static OBS_ANSWER_NODES: LazyHistogram = LazyHistogram::new(keys::QUERY_EVAL_ANSWER_NODES);

/// How an answer node was produced. Algorithm Refine (Lemma 3.2) needs
/// this provenance to build the incomplete tree `T_{q,A}`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MatchKind {
    /// The node is the image of the given pattern node under some
    /// valuation.
    Matched(QNodeRef),
    /// The node is a strict descendant of a node matched by the given
    /// *barred* pattern node (extracted wholesale).
    BarDescendant(QNodeRef),
}

/// The result of evaluating a ps-query: the answer prefix (if any
/// valuation exists) plus per-node provenance.
#[derive(Clone, Debug)]
pub struct Answer {
    /// The answer tree; `None` when no valuation exists (the empty
    /// answer).
    pub tree: Option<DataTree>,
    /// For each answer node (by persistent id), how it was selected.
    pub provenance: HashMap<Nid, MatchKind>,
}

impl Answer {
    /// The empty answer.
    pub fn empty() -> Answer {
        Answer {
            tree: None,
            provenance: HashMap::new(),
        }
    }

    /// Is this the empty answer?
    pub fn is_empty(&self) -> bool {
        self.tree.is_none()
    }

    /// Number of nodes in the answer (0 when empty).
    pub fn len(&self) -> usize {
        self.tree.as_ref().map_or(0, DataTree::len)
    }
}

/// Dense sat-memo: one byte per (pattern node, data node) valuation.
/// Pattern and tree nodes are both dense `u32` ids, so the memo the
/// `sat` recursion probes on every call is a flat array load instead of
/// a hash — the same IDs-not-hashes discipline as the core kernels.
/// `0` = not yet computed, `1` = unsat, `2` = sat.
struct SatMemo {
    tn: usize,
    slots: Vec<u8>,
    filled: u64,
}

impl SatMemo {
    fn new(qn: usize, tn: usize) -> SatMemo {
        SatMemo {
            tn: tn.max(1),
            slots: vec![0u8; qn * tn],
            filled: 0,
        }
    }

    #[inline]
    fn get(&self, m: QNodeRef, n: NodeRef) -> Option<bool> {
        match self.slots.get(m.0 as usize * self.tn + n.0 as usize) {
            Some(&2) => Some(true),
            Some(&1) => Some(false),
            _ => None,
        }
    }

    #[inline]
    fn set(&mut self, m: QNodeRef, n: NodeRef, v: bool) {
        if let Some(slot) = self.slots.get_mut(m.0 as usize * self.tn + n.0 as usize) {
            if *slot == 0 {
                self.filled += 1;
            }
            *slot = if v { 2 } else { 1 };
        }
    }
}

impl PsQuery {
    /// Does the subquery rooted at `m` fully match at node `n` of `t`?
    ///
    /// `sat` is computed by a straightforward recursion: the node must
    /// match `m`'s label and condition, and every pattern child of `m`
    /// must match at some child of `n` (children of `m` carry distinct
    /// labels, so their matches never compete).
    fn sat(&self, t: &DataTree, m: QNodeRef, n: NodeRef, memo: &mut SatMemo) -> bool {
        if let Some(r) = memo.get(m, n) {
            return r;
        }
        let ok = self.label(m) == t.label(n)
            && self.cond_set(m).contains(t.value(n))
            && self
                .children(m)
                .iter()
                .all(|&mc| t.children(n).iter().any(|&nc| self.sat(t, mc, nc, memo)));
        memo.set(m, n, ok);
        ok
    }

    /// Evaluates the query, returning the answer prefix with provenance.
    pub fn eval(&self, t: &DataTree) -> Answer {
        let mut provenance = HashMap::new();
        let tree = self.evaluate(t, Some(&mut provenance));
        Answer { tree, provenance }
    }

    /// The answer tree of [`eval`](Self::eval) alone, for callers that
    /// would drop the provenance: the same evaluation, which then does
    /// not fill it.
    pub fn eval_tree(&self, t: &DataTree) -> Option<DataTree> {
        self.evaluate(t, None)
    }

    /// The one evaluator behind [`eval`](Self::eval) and
    /// [`eval_tree`](Self::eval_tree): finds the answer's nodes first,
    /// so the answer tree (and `provenance`, when given) is built at its
    /// final size.
    fn evaluate(
        &self,
        t: &DataTree,
        provenance: Option<&mut HashMap<Nid, MatchKind>>,
    ) -> Option<DataTree> {
        OBS_EVALS.incr();
        let mut memo = SatMemo::new(self.len(), t.len());
        if !self.sat(t, self.root(), t.root(), &mut memo) {
            OBS_VALUATIONS.observe(memo.filled);
            OBS_ANSWER_NODES.observe(0);
            return None;
        }
        // The root matches; collect the image of all valuations.
        // `in_image(m, n)` holds iff sat(m, n) and the parents are in
        // image of each other — we materialize the answer top-down.
        let mut picked = Vec::with_capacity(t.len());
        picked.push(Picked {
            node: t.root(),
            parent: 0,
            kind: MatchKind::Matched(self.root()),
        });
        self.collect(t, self.root(), t.root(), 0, &mut picked, &mut memo);
        // The answer's nodes enter it in `picked` order, so the `i`-th
        // picked node is the answer's node `i`.
        let root = t.root();
        let mut answer =
            DataTree::with_capacity(t.nid(root), t.label(root), t.value(root), picked.len());
        for p in picked.iter().skip(1) {
            // Infallible: sibling pattern labels are unique
            // (DuplicateSiblingLabel is rejected at build time), so each
            // data node is picked at most once, and `t`'s own ids are
            // unique by DataTree construction.
            answer
                .add_child(
                    NodeRef(p.parent),
                    t.nid(p.node),
                    t.label(p.node),
                    t.value(p.node),
                )
                .expect("source ids are unique");
        }
        if let Some(provenance) = provenance {
            provenance.reserve(picked.len());
            provenance.extend(picked.iter().map(|p| (t.nid(p.node), p.kind)));
        }
        OBS_VALUATIONS.observe(memo.filled);
        OBS_ANSWER_NODES.observe(answer.len() as u64);
        Some(answer)
    }

    /// Appends to `picked` the answer nodes below `n`, the node picked
    /// `at`, where `n` matched the pattern node `m`.
    fn collect(
        &self,
        t: &DataTree,
        m: QNodeRef,
        n: NodeRef,
        at: u32,
        picked: &mut Vec<Picked>,
        memo: &mut SatMemo,
    ) {
        for &mc in self.children(m) {
            for &nc in t.children(n) {
                if self.sat(t, mc, nc, memo) {
                    let here = picked.len() as u32;
                    picked.push(Picked {
                        node: nc,
                        parent: at,
                        kind: MatchKind::Matched(mc),
                    });
                    if self.barred(mc) {
                        // Extract the entire subtree below the barred
                        // match.
                        pick_descendants(t, nc, here, mc, picked);
                    } else {
                        self.collect(t, mc, nc, here, picked, memo);
                    }
                }
            }
        }
    }

    /// Evaluates the query on the subtree of `t` rooted at the node with
    /// id `at` — the local-query primitive `p@n` of Section 3.4.
    pub fn eval_at(&self, t: &DataTree, at: Nid) -> Option<Answer> {
        let n = t.by_nid(at)?;
        Some(self.eval(&t.subtree(n)))
    }
}

/// One answer node, found before the answer tree is built: its node
/// in the source, the index of its parent in the picked list, and how
/// it was selected.
struct Picked {
    node: NodeRef,
    parent: u32,
    kind: MatchKind,
}

fn pick_descendants(t: &DataTree, n: NodeRef, at: u32, bar: QNodeRef, picked: &mut Vec<Picked>) {
    for &c in t.children(n) {
        let here = picked.len() as u32;
        picked.push(Picked {
            node: c,
            parent: at,
            kind: MatchKind::BarDescendant(bar),
        });
        pick_descendants(t, c, here, bar, picked);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PsQueryBuilder;
    use iixml_tree::{Alphabet, Nid};
    use iixml_values::{Cond, Rat};

    /// Builds the paper's catalog instance behind Figure 6:
    /// four products — Canon (120, elec, camera, picture c.jpg),
    /// Nikon (199, elec, camera, no picture),
    /// Sony (175, elec, cdplayer, no picture),
    /// Olympus (250, elec, camera, picture o.jpg).
    /// Data values: names and pictures are coded as numbers.
    fn catalog(alpha: &mut Alphabet) -> DataTree {
        let cat = alpha.intern("catalog");
        let product = alpha.intern("product");
        let name = alpha.intern("name");
        let price = alpha.intern("price");
        let catl = alpha.intern("cat");
        let subcat = alpha.intern("subcat");
        let picture = alpha.intern("picture");
        // value codes: elec=1, camera=10, cdplayer=11.
        let mut t = DataTree::new(Nid(0), cat, Rat::ZERO);
        let mut next = 1u64;
        let mut add_product = |t: &mut DataTree, nm: i64, pr: i64, sub: i64, pics: &[i64]| {
            let root = t.root();
            let p = t.add_child(root, Nid(next), product, Rat::ZERO).unwrap();
            next += 1;
            for (lab, v) in [(name, nm), (price, pr)] {
                t.add_child(p, Nid(next), lab, Rat::from(v)).unwrap();
                next += 1;
            }
            let c = t.add_child(p, Nid(next), catl, Rat::from(1)).unwrap();
            next += 1;
            t.add_child(c, Nid(next), subcat, Rat::from(sub)).unwrap();
            next += 1;
            for &v in pics {
                t.add_child(p, Nid(next), picture, Rat::from(v)).unwrap();
                next += 1;
            }
        };
        add_product(&mut t, 100, 120, 10, &[501]);
        add_product(&mut t, 101, 199, 10, &[]);
        add_product(&mut t, 102, 175, 11, &[]);
        add_product(&mut t, 103, 250, 10, &[502]);
        t
    }

    fn query1(alpha: &mut Alphabet) -> PsQuery {
        // Query 1: name, price and subcategories of elec products < 200.
        let mut b = PsQueryBuilder::new(alpha, "catalog", Cond::True);
        let root = b.root();
        let p = b.child(root, "product", Cond::True).unwrap();
        b.child(p, "name", Cond::True).unwrap();
        b.child(p, "price", Cond::lt(Rat::from(200))).unwrap();
        let c = b.child(p, "cat", Cond::eq(Rat::from(1))).unwrap();
        b.child(c, "subcat", Cond::True).unwrap();
        b.build()
    }

    #[test]
    fn query1_selects_three_products() {
        let mut alpha = Alphabet::new();
        let t = catalog(&mut alpha);
        let q = query1(&mut alpha);
        let a = q.eval(&t);
        let at = a.tree.as_ref().unwrap();
        // catalog + 3 products × (product, name, price, cat, subcat).
        assert_eq!(at.len(), 1 + 3 * 5);
        // Node ids are shared with the source.
        for n in at.preorder() {
            let src = t.by_nid(at.nid(n)).expect("answer ids come from source");
            assert_eq!(t.label(src), at.label(n));
            assert_eq!(t.value(src), at.value(n));
        }
        // The Olympus product (price 250, node 17) is excluded.
        assert!(at.by_nid(Nid(17)).is_none());
        // The Sony product (price 175, cdplayer, node 12) is included:
        // Query 1 only constrains price and cat, not subcat.
        assert!(at.by_nid(Nid(12)).is_some());
    }

    #[test]
    fn empty_answer_when_no_valuation() {
        let mut alpha = Alphabet::new();
        let t = catalog(&mut alpha);
        let mut b = PsQueryBuilder::new(&mut alpha, "catalog", Cond::True);
        let root = b.root();
        let p = b.child(root, "product", Cond::True).unwrap();
        b.child(p, "price", Cond::gt(Rat::from(10_000))).unwrap();
        let q = b.build();
        assert!(q.eval(&t).is_empty());
        // Root label mismatch also gives the empty answer.
        let q2 = PsQueryBuilder::new(&mut alpha, "nonsense", Cond::True).build();
        assert!(q2.eval(&t).is_empty());
    }

    #[test]
    fn root_condition_filters() {
        let mut alpha = Alphabet::new();
        let t = catalog(&mut alpha);
        let q = PsQueryBuilder::new(&mut alpha, "catalog", Cond::eq(Rat::from(7))).build();
        assert!(q.eval(&t).is_empty());
        let q = PsQueryBuilder::new(&mut alpha, "catalog", Cond::eq(Rat::ZERO)).build();
        let a = q.eval(&t);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn barred_node_extracts_subtree() {
        let mut alpha = Alphabet::new();
        let t = catalog(&mut alpha);
        // Extract whole products priced below 150.
        let mut b = PsQueryBuilder::new(&mut alpha, "catalog", Cond::True);
        let root = b.root();
        let p = b.child(root, "product", Cond::True).unwrap();
        b.child(p, "price", Cond::lt(Rat::from(150))).unwrap();
        let q = {
            // Separate pattern: catalog / product(bar)? No - bar on
            // product itself needs price filter inside, which bar leaves
            // cannot have. Instead extract pictures wholesale.
            b.barred_child(p, "picture", Cond::True).unwrap();
            b.build()
        };
        let a = q.eval(&t);
        let at = a.tree.unwrap();
        // Only the Canon product matches (price 120 & has picture):
        // catalog, product, price, picture.
        assert_eq!(at.len(), 4);
        let pic_nid = Nid(6);
        assert!(at.by_nid(pic_nid).is_some());
        assert_eq!(
            a.provenance.get(&at.nid(at.root())),
            Some(&MatchKind::Matched(q.root()))
        );
    }

    #[test]
    fn bar_descendants_are_tagged() {
        let mut alpha = Alphabet::new();
        let r = alpha.intern("r");
        let a_ = alpha.intern("a");
        let b_ = alpha.intern("b");
        let mut t = DataTree::new(Nid(0), r, Rat::ZERO);
        let x = t.add_child(t.root(), Nid(1), a_, Rat::ZERO).unwrap();
        t.add_child(x, Nid(2), b_, Rat::from(9)).unwrap();
        let mut bld = PsQueryBuilder::new(&mut alpha, "r", Cond::True);
        let root = bld.root();
        let bar = bld.barred_child(root, "a", Cond::True).unwrap();
        let q = bld.build();
        let ans = q.eval(&t);
        assert_eq!(ans.len(), 3);
        assert_eq!(ans.provenance.get(&Nid(1)), Some(&MatchKind::Matched(bar)));
        assert_eq!(
            ans.provenance.get(&Nid(2)),
            Some(&MatchKind::BarDescendant(bar))
        );
    }

    #[test]
    fn eval_at_subtree() {
        let mut alpha = Alphabet::new();
        let t = catalog(&mut alpha);
        // Query the first product node directly for its price.
        let product = alpha.get("product").unwrap();
        let price = alpha.get("price").unwrap();
        let q = PsQuery::linear(&[(product, Cond::True), (price, Cond::True)]);
        let a = q.eval_at(&t, Nid(1)).unwrap();
        assert_eq!(a.len(), 2);
        assert!(q.eval_at(&t, Nid(999)).is_none());
    }

    #[test]
    fn answers_are_prefixes_of_the_source() {
        let mut alpha = Alphabet::new();
        let t = catalog(&mut alpha);
        let q = query1(&mut alpha);
        let a = q.eval(&t).tree.unwrap();
        let pinned = a.preorder().iter().map(|&n| a.nid(n)).collect();
        assert!(iixml_tree::is_prefix_of(&a, &t, &pinned));
    }
}
