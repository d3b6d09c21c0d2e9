//! Intersection of an incomplete tree with a source tree type
//! (Theorem 3.5).
//!
//! Algorithm Refine alone tracks only the information derived from
//! query-answer pairs; the source's declared DTD (tree type) can be
//! folded in at any time: `rep(T′) = rep(T) ∩ rep(ρ)`.
//!
//! The construction follows the paper: the root set is restricted to
//! specializations of ρ's roots, and each multiplicity atom is either
//! eliminated (it contradicts ρ) or adjusted so that per-label occurrence
//! totals respect ρ's multiplicities. Where the paper appeals to the
//! uniqueness of the `b⋆` entry (unambiguity), we expand disjunctively
//! over which same-label entry hosts a `1`/`?`/`+` budget — reachable
//! incomplete trees have several ⋆-specializations per label (`τ̄`/`τ̂`),
//! and "exactly one b-child" then means "exactly one child typed by one
//! of them".

use crate::ctt::{ConditionalTreeType, Disjunction, SAtom, Sym};
use crate::itree::IncompleteTree;
use iixml_obs::{keys, LazyCounter, LazyHistogram};
use iixml_tree::{Label, Mult, TreeType};
use std::collections::BTreeMap;

/// Wall time of each [`restrict_to_type`] call.
static OBS_RESTRICT_NS: LazyHistogram = LazyHistogram::new(keys::CORE_TYPE_INTERSECT_RESTRICT_NS);
/// Alternatives produced per atom restriction (cartesian blowup gauge).
static OBS_ATOM_FANOUT: LazyHistogram = LazyHistogram::new(keys::CORE_TYPE_INTERSECT_ATOM_FANOUT);
/// Atoms eliminated as contradicting the type.
static OBS_CONTRADICTIONS: LazyCounter = LazyCounter::new(keys::CORE_TYPE_INTERSECT_CONTRADICTIONS);

/// Restricts an incomplete tree to the trees that also satisfy the given
/// tree type: `rep(result) = rep(it) ∩ rep(ty)` (Theorem 3.5).
pub fn restrict_to_type(it: &IncompleteTree, ty: &TreeType) -> IncompleteTree {
    let _span = OBS_RESTRICT_NS.time();
    let src = it.ty();
    let mut out = ConditionalTreeType::new();
    // Same symbol set (indices preserved); only roots and µ change.
    for s in src.syms() {
        let info = src.info(s);
        out.add_symbol(info.target, info.cond.clone());
    }
    // R′: specializations of ρ's roots.
    for &r in src.roots() {
        if ty.roots().contains(&it.label(r)) {
            out.add_root(r);
        }
    }
    // Each symbol's restricted µ depends only on the frozen inputs; the
    // atom buffer is scratch, cleared per symbol, so the whole pass
    // allocates it once.
    let mut atoms: Vec<SAtom> = Vec::new();
    for s in src.syms() {
        let rho = ty.atom(it.label(s));
        atoms.clear();
        for atom in src.mu(s).atoms() {
            restrict_atom(it, atom, &rho, &mut atoms);
        }
        atoms.sort_by(|x, y| x.entries().iter().cmp(y.entries().iter()));
        atoms.dedup();
        out.set_mu(s, Disjunction(atoms.clone()));
    }
    // Infallible: `out` targets the same node set as `it`, whose own
    // well-formedness was checked when `it` was constructed.
    IncompleteTree::new(it.nodes().clone(), out)
        .expect("symbol set unchanged")
        .trim()
}

/// Adjusts one atom to the per-label budgets of `rho`, appending the
/// resulting alternatives to `out` (none when the atom is contradictory).
fn restrict_atom(
    it: &IncompleteTree,
    atom: &SAtom,
    rho: &iixml_tree::MultAtom,
    out: &mut Vec<SAtom>,
) {
    // Group entry indices by the labels the symbols carry.
    let entries = atom.entries();
    let mut groups: BTreeMap<Label, Vec<usize>> = BTreeMap::new();
    for (i, &(c, _)) in entries.iter().enumerate() {
        groups.entry(it.label(c)).or_default().push(i);
    }
    // Labels mandated by rho but absent from the atom: contradiction.
    for &(l, m) in rho.entries() {
        if m.mandatory() && !groups.contains_key(&l) {
            OBS_CONTRADICTIONS.incr();
            return;
        }
    }
    // Each label contributes a set of alternative "patches": per entry
    // index, the multiplicity to use (absent = entry dropped).
    // Alternatives across labels combine by cartesian product.
    type Patch = Vec<(usize, Mult)>;
    let mut per_label: Vec<Vec<Patch>> = Vec::new();

    for (&label, idxs) in &groups {
        let budget = rho.mult(label);
        let mands: Vec<usize> = idxs
            .iter()
            .copied()
            .filter(|&i| entries[i].1.mandatory())
            .collect();
        let alternatives: Vec<Patch> = match budget {
            None => {
                // Label forbidden by rho: mandatory entries contradict;
                // optional entries are dropped.
                if !mands.is_empty() {
                    OBS_CONTRADICTIONS.incr();
                    return;
                }
                vec![Vec::new()]
            }
            Some(Mult::Star) => {
                vec![idxs.iter().map(|&i| (i, entries[i].1)).collect()]
            }
            Some(Mult::Plus) => {
                if !mands.is_empty() {
                    // Presence already guaranteed.
                    vec![idxs.iter().map(|&i| (i, entries[i].1)).collect()]
                } else {
                    // Designate one entry to carry the >=1 budget.
                    idxs.iter()
                        .map(|&host| {
                            idxs.iter()
                                .map(|&i| {
                                    let m = entries[i].1;
                                    let m = if i == host {
                                        match m {
                                            Mult::Star => Mult::Plus,
                                            Mult::Opt => Mult::One,
                                            other => other,
                                        }
                                    } else {
                                        m
                                    };
                                    (i, m)
                                })
                                .collect()
                        })
                        .collect()
                }
            }
            Some(bounded @ (Mult::One | Mult::Opt)) => {
                if mands.len() >= 2 {
                    // Two guaranteed children exceed the budget.
                    OBS_CONTRADICTIONS.incr();
                    return;
                }
                if mands.len() == 1 {
                    // The mandatory entry is the single child; cap it at
                    // exactly one and drop the other same-label entries.
                    vec![vec![(mands[0], Mult::One)]]
                } else {
                    // Choose which entry hosts the (at most / exactly)
                    // one child; `?` keeps the zero-children case via an
                    // extra empty alternative.
                    let target = if bounded == Mult::One {
                        Mult::One
                    } else {
                        Mult::Opt
                    };
                    let mut alts: Vec<Patch> =
                        idxs.iter().map(|&host| vec![(host, target)]).collect();
                    if bounded == Mult::One && alts.is_empty() {
                        OBS_CONTRADICTIONS.incr();
                        return;
                    }
                    if bounded == Mult::Opt {
                        alts.push(Vec::new()); // no child of this label
                    }
                    alts
                }
            }
        };
        per_label.push(alternatives);
    }

    // Cartesian product of the per-label alternatives.
    let mut combos: Vec<Patch> = vec![Vec::new()];
    for alts in &per_label {
        let mut next = Vec::with_capacity(combos.len() * alts.len());
        for combo in &combos {
            for alt in alts {
                let mut c = combo.clone();
                c.extend(alt.iter().copied());
                next.push(c);
            }
        }
        combos = next;
    }
    OBS_ATOM_FANOUT.observe(combos.len() as u64);
    for combo in combos {
        let new_entries: Vec<(Sym, Mult)> =
            combo.into_iter().map(|(i, m)| (entries[i].0, m)).collect();
        out.push(SAtom::new(new_entries));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::{query_answer_tree, Refiner};
    use iixml_query::PsQueryBuilder;
    use iixml_tree::{Alphabet, DataTree, Nid, NidGen, TreeTypeBuilder};
    use iixml_values::{Cond, Rat};

    fn setup() -> (Alphabet, TreeType, DataTree) {
        let mut alpha = Alphabet::new();
        let ty = TreeTypeBuilder::new(&mut alpha)
            .root("root")
            .rule("root", &[("a", Mult::Plus), ("b", Mult::Opt)])
            .build()
            .unwrap();
        let r = alpha.get("root").unwrap();
        let a = alpha.get("a").unwrap();
        let b = alpha.get("b").unwrap();
        let mut t = DataTree::new(Nid(0), r, Rat::ZERO);
        t.add_child(t.root(), Nid(1), a, Rat::from(1)).unwrap();
        t.add_child(t.root(), Nid(2), a, Rat::from(5)).unwrap();
        t.add_child(t.root(), Nid(3), b, Rat::from(2)).unwrap();
        (alpha, ty, t)
    }

    #[test]
    fn restriction_keeps_conforming_trees() {
        let (mut alpha, ty, t) = setup();
        let mut bld = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
        let root = bld.root();
        bld.child(root, "a", Cond::lt(Rat::from(3))).unwrap();
        let q = bld.build();
        let ans = q.eval(&t);
        let tqa = query_answer_tree(&q, &ans, &alpha).unwrap();
        let restricted = restrict_to_type(&tqa, &ty);
        assert!(ty.accepts(&t));
        assert!(tqa.contains(&t));
        assert!(restricted.contains(&t));
        assert!(!restricted.is_empty());
    }

    #[test]
    fn restriction_drops_nonconforming_trees() {
        let (mut alpha, ty, t) = setup();
        let mut bld = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
        let root = bld.root();
        bld.child(root, "a", Cond::lt(Rat::from(3))).unwrap();
        let q = bld.build();
        let ans = q.eval(&t);
        let tqa = query_answer_tree(&q, &ans, &alpha).unwrap();
        let restricted = restrict_to_type(&tqa, &ty);

        // Two b children violate b?.
        let mut bad = t.clone();
        bad.add_child(bad.root(), Nid(9), alpha.get("b").unwrap(), Rat::from(9))
            .unwrap();
        assert!(tqa.contains(&bad), "q^-1(A) alone allows it");
        assert!(!restricted.contains(&bad), "the type forbids it");

        // `b` under `a` violates a -> eps.
        let mut bad2 = t.clone();
        let a1 = bad2.by_nid(Nid(2)).unwrap();
        bad2.add_child(a1, Nid(10), alpha.get("b").unwrap(), Rat::ZERO)
            .unwrap();
        assert!(!restricted.contains(&bad2));

        // Wrong root label: answers empty, so not in q^-1(A) (the
        // recorded answer was nonempty), and certainly not in the
        // restriction either.
        let other = DataTree::new(Nid(7), alpha.get("a").unwrap(), Rat::ZERO);
        assert!(!tqa.contains(&other));
        assert!(!restricted.contains(&other));

        // No `a` child at all violates a+.
        let mut no_a = DataTree::new(Nid(0), alpha.get("root").unwrap(), Rat::ZERO);
        no_a.add_child(no_a.root(), Nid(1), alpha.get("a").unwrap(), Rat::from(1))
            .unwrap();
        // (has node 1 = the known answer node, so still conforms)
        assert!(restricted.contains(&no_a));
    }

    #[test]
    fn witnesses_satisfy_the_type() {
        let (mut alpha, ty, t) = setup();
        let mut bld = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
        let root = bld.root();
        bld.child(root, "b", Cond::True).unwrap();
        let q = bld.build();
        let ans = q.eval(&t);
        let mut refiner = Refiner::new(&alpha);
        refiner.refine(&alpha, &q, &ans).unwrap();
        let restricted = restrict_to_type(refiner.current(), &ty);
        let w = restricted.witness(&mut NidGen::starting_at(100)).unwrap();
        assert!(ty.accepts(&w), "witness conforms to the tree type");
        assert!(refiner.current().contains(&w));
    }

    #[test]
    fn mandatory_label_missing_empties_rep() {
        // A type whose root requires a label that no symbol of the
        // incomplete tree can produce yields an empty restriction.
        let mut alpha = Alphabet::new();
        let ty = TreeTypeBuilder::new(&mut alpha)
            .root("root")
            .rule("root", &[("missing", Mult::One)])
            .build()
            .unwrap();
        let r = alpha.get("root").unwrap();
        let it = IncompleteTree::universal(&[r]);
        let restricted = restrict_to_type(&it, &ty);
        assert!(restricted.is_empty());
    }

    #[test]
    fn opt_budget_with_two_data_nodes_contradicts() {
        // Incomplete tree asserting two b-children (data nodes) under
        // root; type says b?.
        let (mut alpha, ty, t) = setup();
        let mut t2 = t.clone();
        t2.add_child(t2.root(), Nid(4), alpha.get("b").unwrap(), Rat::from(7))
            .unwrap();
        // Query extracting both b's.
        let mut bld = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
        let root = bld.root();
        bld.child(root, "b", Cond::True).unwrap();
        let q = bld.build();
        let ans = q.eval(&t2);
        assert_eq!(ans.len(), 3); // root + two b's
        let tqa = query_answer_tree(&q, &ans, &alpha).unwrap();
        assert!(!tqa.is_empty());
        let restricted = restrict_to_type(&tqa, &ty);
        assert!(restricted.is_empty(), "b? cannot host two known b nodes");
    }

    #[test]
    fn universal_restricted_equals_type() {
        // Restricting the universal tree by ρ yields exactly rep(ρ).
        let (alpha, ty, t) = setup();
        let labels: Vec<_> = alpha.labels().collect();
        let it = IncompleteTree::universal(&labels);
        let restricted = restrict_to_type(&it, &ty);
        assert!(restricted.contains(&t));
        // A conforming variant.
        let mut ok = DataTree::new(Nid(0), alpha.get("root").unwrap(), Rat::ZERO);
        ok.add_child(ok.root(), Nid(1), alpha.get("a").unwrap(), Rat::from(9))
            .unwrap();
        assert!(ty.accepts(&ok));
        assert!(restricted.contains(&ok));
        // Non-conforming: root -> b only.
        let mut bad = DataTree::new(Nid(0), alpha.get("root").unwrap(), Rat::ZERO);
        bad.add_child(bad.root(), Nid(1), alpha.get("b").unwrap(), Rat::from(9))
            .unwrap();
        assert!(!ty.accepts(&bad));
        assert!(!restricted.contains(&bad));
    }
}
