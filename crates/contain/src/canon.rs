//! The two query facts the containment descent reads beyond the
//! builder's own normal form (interval-normalized conditions, unique
//! sibling labels, leaf-only bars): whether a query is unsatisfiable,
//! and which child of a node carries a given label.

use iixml_query::{PsQuery, QNodeRef};
use iixml_tree::Label;

/// Does the query evaluate to the empty answer on *every* document?
///
/// Every pattern node is mandatory (a valuation must map all of them),
/// so one node with an unsatisfiable interval-normal condition voids
/// the whole query. Barred-node simplification falls out of the same
/// rule: a barred leaf with an empty condition voids the query rather
/// than extracting an empty subtree.
pub fn is_unsatisfiable(q: &PsQuery) -> bool {
    q.preorder().iter().any(|&m| q.cond_set(m).is_empty())
}

/// Looks up the unique child of `m` carrying label `l`, if any.
pub fn child_by_label(q: &PsQuery, m: QNodeRef, l: Label) -> Option<QNodeRef> {
    q.children(m).iter().copied().find(|&c| q.label(c) == l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iixml_query::parse_ps_query;
    use iixml_tree::Alphabet;

    #[test]
    fn unsatisfiable_detection() {
        let mut alpha = Alphabet::new();
        let sat = parse_ps_query("a/b[< 10]", &mut alpha).unwrap();
        assert!(!is_unsatisfiable(&sat));
        let unsat = parse_ps_query("a/b[< 10 & > 10]", &mut alpha).unwrap();
        assert!(is_unsatisfiable(&unsat));
        let unsat_root = parse_ps_query("a[false]/b", &mut alpha).unwrap();
        assert!(is_unsatisfiable(&unsat_root));
    }

    #[test]
    fn child_lookup() {
        let mut alpha = Alphabet::new();
        let q = parse_ps_query("r{a, b}", &mut alpha).unwrap();
        let b_lab = alpha.get("b").unwrap();
        let c = child_by_label(&q, q.root(), b_lab).unwrap();
        assert_eq!(q.label(c), b_lab);
        let missing = alpha.intern("zzz");
        assert!(child_by_label(&q, q.root(), missing).is_none());
    }
}
