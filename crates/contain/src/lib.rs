//! Static containment analysis for ps-queries.
//!
//! Decides `q ⊑ p` — "the exact answer of `p` determines the exact
//! answer of `q` on every document" — without touching any document,
//! in the spirit of containment for conditional tree patterns
//! (Facchini–Hirai–Marx–Sherkhonov) restricted to the paper's
//! ps-query fragment.
//!
//! Because sibling pattern labels are unique (enforced by
//! `PsQueryBuilder`), a label-preserving homomorphism between two
//! ps-queries is unique when it exists, so the general backtracking
//! simulation check degenerates into one deterministic descent: pair
//! the roots, then pair each child by label. `q ⊑ p` holds iff
//!
//! 1. the label skeletons are identical (the descent is a bijection),
//! 2. every `q` condition implies the paired `p` condition
//!    (`sat_q(m, n) ⇒ sat_p(e(m), n)` pointwise), and
//! 3. every barred `q` leaf pairs with a barred `p` leaf (so the
//!    descendants `q` extracts wholesale are present in `p`'s answer).
//!
//! Under these rules every valuation of `q` into a document `T` lands
//! inside `p`'s answer prefix `p(T)`, with all the child edges a
//! re-evaluation needs, and `sat` is monotone in data children — so
//! `q(p(T)) = q(T)` *exactly*, node ids, sibling order and provenance
//! included. That equation is what [`AnswerCache`] exploits: replay
//! `q` over a recorded answer instead of re-fetching from the source,
//! byte-identically.
//!
//! A query with an unsatisfiable condition anywhere evaluates empty on
//! every document and is therefore contained in everything
//! ([`Verdict::ContainedEmpty`]).
//!
//! One descent decides every check. [`contained_in`] runs it with a
//! witness sink for the CLI and the tests; [`AnswerCache`] runs it
//! without one, so a cache scan allocates nothing per entry.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod canon;

pub use cache::AnswerCache;

use iixml_query::{PsQuery, QNodeRef};

/// Why a containment check failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mismatch {
    /// The label skeletons differ (missing/extra child or a label
    /// disagreement), so no homomorphism exists.
    Skeleton,
    /// The paired nodes' conditions are not in implication order: the
    /// candidate subquery admits a value the superquery rejects.
    Condition {
        /// The offending node of the contained-side query.
        sub: QNodeRef,
        /// Its image in the containing-side query.
        sup: QNodeRef,
    },
    /// A barred node of the contained-side query pairs with an
    /// unbarred node, so the subtree it extracts wholesale would be
    /// missing from the containing query's answer.
    Bar {
        /// The offending barred node of the contained-side query.
        sub: QNodeRef,
        /// Its (unbarred) image in the containing-side query.
        sup: QNodeRef,
    },
}

/// The outcome of a containment check `q ⊑ p`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// `q` is unsatisfiable — it evaluates empty on every document, so
    /// it is contained in every query and needs no witness.
    ContainedEmpty,
    /// `q ⊑ p`, witnessed by the (unique) embedding `e`: pairs
    /// `(m, e(m))` of query-node refs, in preorder of `q`.
    Contained(Vec<(QNodeRef, QNodeRef)>),
    /// Containment does not hold; the first mismatch found.
    NotContained(Mismatch),
}

impl Verdict {
    /// Does the verdict certify containment?
    pub fn is_contained(&self) -> bool {
        matches!(self, Verdict::ContainedEmpty | Verdict::Contained(_))
    }
}

/// Decides `sub ⊑ sup`: can the exact answer of `sub` be computed from
/// the exact answer of `sup` on every document?
///
/// Runs in `O(|sub| + |sup|)` worst case (label lookups are linear
/// scans over sibling lists, which the unique-label invariant keeps
/// small). The returned witness pairs each node of `sub` with its
/// image in `sup`.
pub fn contained_in(sub: &PsQuery, sup: &PsQuery) -> Verdict {
    if canon::is_unsatisfiable(sub) {
        return Verdict::ContainedEmpty;
    }
    let mut witness = Vec::with_capacity(sub.len());
    match descend(sub, sup, &mut Vec::new(), Some(&mut witness)) {
        Ok(()) => {
            witness.sort_by_key(|&(m, _)| m.0);
            Verdict::Contained(witness)
        }
        Err(why) => Verdict::NotContained(why),
    }
}

/// The forced-embedding descent behind [`contained_in`], for a `sub`
/// the caller already knows to be satisfiable. Visits mapped pairs
/// depth-first, children last-first, and reports the first mismatch;
/// on success every pair `(m, e(m))` has been pushed onto `witness`
/// (in visit order) when a sink is given. `work` is scratch space the
/// caller may reuse across calls.
pub(crate) fn descend(
    sub: &PsQuery,
    sup: &PsQuery,
    work: &mut Vec<(QNodeRef, QNodeRef)>,
    mut witness: Option<&mut Vec<(QNodeRef, QNodeRef)>>,
) -> Result<(), Mismatch> {
    work.clear();
    work.push((sub.root(), sup.root()));
    while let Some((m, w)) = work.pop() {
        if sub.label(m) != sup.label(w) {
            return Err(Mismatch::Skeleton);
        }
        if !sub.cond_set(m).implies(sup.cond_set(w)) {
            return Err(Mismatch::Condition { sub: m, sup: w });
        }
        if sub.barred(m) && !sup.barred(w) {
            return Err(Mismatch::Bar { sub: m, sup: w });
        }
        // The skeletons must agree exactly: an extra `sup` child makes
        // `sup` stricter (its answer can be empty where `sub`'s is
        // not); an extra `sub` child selects nodes `sup`'s answer
        // never materializes. Sibling labels are unique on both sides,
        // so equal counts + every `sub` child label present makes the
        // pairing a bijection.
        if sub.children(m).len() != sup.children(w).len() {
            return Err(Mismatch::Skeleton);
        }
        for &mc in sub.children(m) {
            match canon::child_by_label(sup, w, sub.label(mc)) {
                Some(wc) => work.push((mc, wc)),
                None => return Err(Mismatch::Skeleton),
            }
        }
        if let Some(map) = &mut witness {
            map.push((m, w));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use iixml_query::parse_ps_query;
    use iixml_tree::Alphabet;

    fn q(alpha: &mut Alphabet, text: &str) -> PsQuery {
        parse_ps_query(text, alpha).expect("test query parses")
    }

    #[test]
    fn identical_queries_contain_each_other() {
        let mut alpha = Alphabet::new();
        let a = q(&mut alpha, "catalog/product{name, price[< 200]}");
        let b = q(&mut alpha, "catalog/product{name, price[< 200]}");
        assert!(contained_in(&a, &b).is_contained());
        assert!(contained_in(&b, &a).is_contained());
        // The witness maps every node.
        match contained_in(&a, &b) {
            Verdict::Contained(map) => assert_eq!(map.len(), a.len()),
            v => panic!("expected containment, got {v:?}"),
        }
    }

    #[test]
    fn narrower_condition_is_contained_in_wider() {
        let mut alpha = Alphabet::new();
        let narrow = q(&mut alpha, "catalog/product/price[< 100]");
        let wide = q(&mut alpha, "catalog/product/price[< 200]");
        assert!(contained_in(&narrow, &wide).is_contained());
        match contained_in(&wide, &narrow) {
            Verdict::NotContained(Mismatch::Condition { .. }) => {}
            v => panic!("expected condition mismatch, got {v:?}"),
        }
    }

    #[test]
    fn skeleton_mismatch_rejects_both_ways() {
        let mut alpha = Alphabet::new();
        let a = q(&mut alpha, "catalog/product{name, price}");
        let b = q(&mut alpha, "catalog/product/price");
        assert_eq!(
            contained_in(&a, &b),
            Verdict::NotContained(Mismatch::Skeleton)
        );
        assert_eq!(
            contained_in(&b, &a),
            Verdict::NotContained(Mismatch::Skeleton)
        );
    }

    #[test]
    fn bar_requires_bar_on_the_wider_side() {
        let mut alpha = Alphabet::new();
        let barred = q(&mut alpha, "catalog/product/picture!");
        let plain = q(&mut alpha, "catalog/product/picture");
        // A barred leaf needs the whole subtree, which the unbarred
        // query's answer does not carry.
        match contained_in(&barred, &plain) {
            Verdict::NotContained(Mismatch::Bar { .. }) => {}
            v => panic!("expected bar mismatch, got {v:?}"),
        }
        // The other way round is fine: the barred answer is a superset
        // and re-evaluation drops the extra descendants.
        assert!(contained_in(&plain, &barred).is_contained());
    }

    #[test]
    fn unsatisfiable_query_is_contained_in_everything() {
        let mut alpha = Alphabet::new();
        let unsat = q(&mut alpha, "catalog/product/price[< 10 & > 20]");
        let other = q(&mut alpha, "totally/unrelated");
        assert_eq!(contained_in(&unsat, &other), Verdict::ContainedEmpty);
    }

    #[test]
    fn witness_is_in_sub_preorder() {
        let mut alpha = Alphabet::new();
        let a = q(
            &mut alpha,
            "catalog/product{name, price[< 100], cat/subcat}",
        );
        let b = q(
            &mut alpha,
            "catalog/product{name, price[< 200], cat/subcat}",
        );
        match contained_in(&a, &b) {
            Verdict::Contained(map) => {
                let subs: Vec<u32> = map.iter().map(|&(m, _)| m.0).collect();
                let mut sorted = subs.clone();
                sorted.sort_unstable();
                assert_eq!(subs, sorted);
                for &(m, w) in &map {
                    assert_eq!(a.label(m), b.label(w));
                }
            }
            v => panic!("expected containment, got {v:?}"),
        }
    }
}
