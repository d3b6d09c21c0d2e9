//! The Poss/Cert sets of the Theorem 3.14 construction, kept as the
//! slow reference for `iixml_core::match_sets`.
//!
//! [`match_sets_reference`] is the pass as it was before incomplete
//! trees carried each symbol's label: it looks every symbol's label up
//! through the data-node map, then scans every symbol for every query
//! node, into one pair of boolean vectors per query node.
//! `tests/ask_from_known.rs` checks that the shipping pass agrees with
//! it on every (query node, symbol) pair.

use iixml_core::{IncompleteTree, Sym, SymTarget};
use iixml_query::{PsQuery, QNodeRef};
use iixml_tree::Label;

/// The `Poss(m)` / `Cert(m)` sets of [`match_sets_reference`].
#[derive(Clone, Debug)]
pub struct MatchSetsReference {
    /// `poss[m.0][s.ix()]`: some tree of `rep(T_s)` matches `q_m`.
    poss: Vec<Vec<bool>>,
    /// `cert[m.0][s.ix()]`: every tree of `rep(T_s)` matches `q_m`.
    cert: Vec<Vec<bool>>,
}

impl MatchSetsReference {
    /// Is `s` in `Poss(m)`?
    pub fn poss(&self, m: QNodeRef, s: Sym) -> bool {
        self.poss[m.0 as usize][s.ix()]
    }

    /// Is `s` in `Cert(m)`?
    pub fn cert(&self, m: QNodeRef, s: Sym) -> bool {
        self.cert[m.0 as usize][s.ix()]
    }
}

/// Computes the match sets bottom-up over the query pattern, masking
/// out unproductive symbols, as `iixml_core::match_sets` does.
pub fn match_sets_reference(it: &IncompleteTree, q: &PsQuery) -> MatchSetsReference {
    let ty = it.ty();
    let productive = ty.productive();
    // The label each productive symbol stands for, looked up once.
    let underlying: Vec<Option<Label>> = ty
        .syms()
        .map(|s| match ty.info(s).target {
            _ if !productive[s.ix()] => None,
            SymTarget::Lab(l) => Some(l),
            SymTarget::Node(n) => it.node_info(n).map(|i| i.label),
        })
        .collect();
    let mut sets = MatchSetsReference {
        poss: vec![Vec::new(); q.len()],
        cert: vec![Vec::new(); q.len()],
    };
    // Reversed preorder visits children before parents.
    for &m in q.preorder().iter().rev() {
        let kids = q.children(m);
        let mut poss = vec![false; ty.sym_count()];
        let mut cert = vec![false; ty.sym_count()];
        for s in ty.syms() {
            if underlying[s.ix()] != Some(q.label(m)) {
                continue;
            }
            let cond = &ty.info(s).cond;
            let p_cond = cond.overlaps(q.cond_set(m));
            let c_cond = !cond.is_empty() && cond.implies(q.cond_set(m));
            if p_cond {
                poss[s.ix()] = kids.is_empty()
                    || ty.mu(s).atoms().iter().any(|a| {
                        kids.iter()
                            .all(|&mi| a.entries().iter().any(|&(c, _)| sets.poss(mi, c)))
                    });
            }
            if c_cond {
                cert[s.ix()] = !ty.mu(s).atoms().is_empty()
                    && ty.mu(s).atoms().iter().all(|a| {
                        kids.iter().all(|&mi| {
                            a.entries()
                                .iter()
                                .any(|&(c, mu)| mu.mandatory() && sets.cert(mi, c))
                        })
                    });
            }
        }
        sets.poss[m.0 as usize] = poss;
        sets.cert[m.0 as usize] = cert;
    }
    sets
}
