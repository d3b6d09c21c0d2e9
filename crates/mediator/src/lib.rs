#![warn(missing_docs)]

//! Guiding mediators (Section 3.4) and the size heuristics of
//! Section 3.2.
//!
//! When a query cannot be fully answered from the incomplete tree, the
//! mediator generates *local queries* `p@n` — ps-queries evaluated at
//! already-known nodes of the data tree — that fetch exactly the missing
//! information:
//!
//! * [`Mediator::complete`] implements the non-redundant completion of
//!   Theorem 3.19: the returned local queries avoid re-fetching known
//!   nodes, never overlap, and never certainly return empty answers.
//! * [`Completion::run`] is the one completion loop: it asks the local
//!   queries through a caller-supplied function (a live source, or the
//!   webhouse's validating, retrying endpoint) and grafts the answers
//!   into the known data tree, after which the original query is
//!   answerable locally. [`Completion::execute`] runs it over an
//!   in-memory source document.
//! * [`auxiliary_queries`] implements Proposition 3.13: the path queries
//!   that, when asked alongside each user query, keep Algorithm Refine's
//!   incomplete tree polynomial in the whole query-answer sequence.
//! * [`relax_label`] / [`relax`] implement the "graceful information
//!   loss" heuristic: merge the specializations of a label, trading
//!   precision (the result's `rep` is a superset) for size.

use iixml_core::{
    match_sets, ConditionalTreeType, Disjunction, IncompleteTree, SAtom, Sym, SymTarget,
};
use iixml_query::{Answer, PsQuery, QNodeRef};
use iixml_tree::{DataTree, Label, Mult, Nid};
use iixml_values::IntervalSet;
use std::collections::HashMap;
use std::fmt;

/// Failure executing a completion against a source (typed replacement
/// for the former bare-`String` errors, so the webhouse loop can react
/// per cause instead of aborting wholesale).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompletionError {
    /// A local query's anchor node is absent from the source — the
    /// signature of a source updated after the anchor was learned.
    MissingAnchor(Nid),
    /// An answer could not be merged into the known data tree (a shared
    /// node disagreed on label or value, or the answer's root is not a
    /// known node).
    Graft {
        /// Human-readable description from [`DataTree::graft`].
        reason: String,
    },
}

impl fmt::Display for CompletionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompletionError::MissingAnchor(n) => write!(f, "anchor {n} not in source"),
            CompletionError::Graft { reason } => write!(f, "graft failed: {reason}"),
        }
    }
}

impl std::error::Error for CompletionError {}

/// A local query `p@n`: evaluate `p` on the subtree of the source rooted
/// at the (already known) node `n`; `at = None` addresses the document
/// root when no data nodes are known yet.
#[derive(Clone, Debug)]
pub struct LocalQuery {
    /// The ps-query to ask.
    pub query: PsQuery,
    /// The anchor node (`None` = document root).
    pub at: Option<Nid>,
}

/// A set of local queries completing an incomplete tree relative to a
/// query (Theorem 3.19).
#[derive(Clone, Debug, Default)]
pub struct Completion {
    /// The local queries, in root-to-leaf generation order.
    pub queries: Vec<LocalQuery>,
}

impl Completion {
    /// Is the known information already sufficient (no queries needed)?
    pub fn is_complete(&self) -> bool {
        self.queries.is_empty()
    }

    /// The completion loop: asks each local query through `ask`, in
    /// generation order, and grafts its answer into `prefix`, the data
    /// tree known so far (`None` when nothing is known yet: the first
    /// non-empty answer then becomes the prefix). Each answer is grafted
    /// before the next query is asked, and the first error — from `ask`
    /// or from a graft — stops the loop. Returns the completed tree and
    /// the number of answer nodes shipped.
    ///
    /// The loop is transactional: it grafts into the `prefix` it was
    /// given and hands the result back only on success, so a failed
    /// completion never leaves a half-grafted tree behind (the
    /// fault-model contract of the webhouse loop).
    pub fn run<E: From<CompletionError>>(
        &self,
        prefix: Option<DataTree>,
        mut ask: impl FnMut(&LocalQuery) -> Result<Answer, E>,
    ) -> Result<(Option<DataTree>, usize), E> {
        /// Wall time of executing a completion against a source.
        static OBS_EXECUTE_NS: iixml_obs::LazyHistogram =
            iixml_obs::LazyHistogram::new(iixml_obs::keys::MEDIATOR_EXECUTE_NS);
        /// Answer nodes shipped by sources, across all executions.
        static OBS_SHIPPED: iixml_obs::LazyCounter =
            iixml_obs::LazyCounter::new(iixml_obs::keys::MEDIATOR_SHIPPED_NODES);
        /// Local queries sent to sources.
        static OBS_LOCAL_QUERIES: iixml_obs::LazyCounter =
            iixml_obs::LazyCounter::new(iixml_obs::keys::MEDIATOR_LOCAL_QUERIES);

        let _span = OBS_EXECUTE_NS.time();
        OBS_LOCAL_QUERIES.add(self.queries.len() as u64);
        let mut known = prefix;
        let mut shipped = 0;
        // Grafts are root-to-leaf dependent: generation order fixes the
        // result and the first error surfaced.
        let outcome = self.queries.iter().try_for_each(|lq| {
            let answer = ask(lq)?;
            shipped += answer.len();
            match (answer.tree, &mut known) {
                (None, _) => Ok(()),
                (Some(t), Some(k)) => k
                    .graft(&t)
                    .map_err(|reason| E::from(CompletionError::Graft { reason })),
                (Some(t), slot @ None) => {
                    *slot = Some(t);
                    Ok(())
                }
            }
        });
        // Nodes a failed completion fetched were still shipped.
        OBS_SHIPPED.add(shipped as u64);
        outcome.map(|()| (known, shipped))
    }

    /// Executes the completion against a live source document through
    /// [`Completion::run`]: evaluates each local query and grafts its
    /// answer into `known` (the data tree accumulated so far). After
    /// execution, `q(known) = q(source)` for the query the completion
    /// was generated for. Returns the total number of answer nodes
    /// shipped by the source. On error, `known` is left exactly as it
    /// was.
    pub fn execute(
        &self,
        source: &DataTree,
        known: &mut DataTree,
    ) -> Result<usize, CompletionError> {
        let (grown, shipped) = self.run(Some(known.clone()), |lq| match lq.at {
            None => Ok(lq.query.eval(source)),
            Some(n) => lq
                .query
                .eval_at(source, n)
                .ok_or(CompletionError::MissingAnchor(n)),
        })?;
        if let Some(t) = grown {
            *known = t;
        }
        Ok(shipped)
    }
}

/// Generates non-redundant completions (Theorem 3.19).
pub struct Mediator<'a> {
    it: &'a IncompleteTree,
}

impl<'a> Mediator<'a> {
    /// Wraps a (reachable) incomplete tree.
    pub fn new(it: &'a IncompleteTree) -> Mediator<'a> {
        Mediator { it }
    }

    /// Computes a non-redundant set of local queries whose answers allow
    /// `q` to be fully answered (Theorem 3.19, PTIME).
    ///
    /// The procedure descends the query pattern alongside the data tree:
    /// a child subquery that can only be answered by *instantiated*
    /// nodes recurses into them; a child subquery whose answer may
    /// involve *missing* information is kept in a pruned local query
    /// anchored at the current node.
    pub fn complete(&self, q: &PsQuery) -> Completion {
        /// Wall time of completion generation (Theorem 3.19 descent).
        static OBS_COMPLETE_NS: iixml_obs::LazyHistogram =
            iixml_obs::LazyHistogram::new(iixml_obs::keys::MEDIATOR_COMPLETE_NS);
        let _span = OBS_COMPLETE_NS.time();
        let trimmed = self.it.trimmed();
        let sets = match_sets(&trimmed, q);
        let mut out = Completion::default();
        let Some(td) = trimmed.data_tree() else {
            // Nothing known yet: ask the whole query at the root
            // (unless it certainly answers empty).
            let any_poss = trimmed.ty().roots().iter().any(|&r| sets.poss(q.root(), r));
            if any_poss {
                out.queries.push(LocalQuery {
                    query: q.clone(),
                    at: None,
                });
            }
            return out;
        };
        // Root must possibly match the known root.
        let root_nid = td.nid(td.root());
        let root_syms = self.syms_of(&trimmed, root_nid);
        if !root_syms.iter().any(|&s| sets.poss(q.root(), s)) {
            return out; // certainly empty answer: nothing to fetch
        }
        self.descend(&trimmed, &td, q, q.root(), root_nid, &sets, &mut out);
        out
    }

    /// Symbols targeting a given data node.
    fn syms_of(&self, it: &IncompleteTree, n: Nid) -> Vec<Sym> {
        it.ty()
            .syms()
            .filter(|&s| matches!(it.ty().info(s).target, SymTarget::Node(m) if m == n))
            .collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn descend(
        &self,
        it: &IncompleteTree,
        td: &DataTree,
        q: &PsQuery,
        m: QNodeRef,
        at: Nid,
        sets: &iixml_core::MatchSets,
        out: &mut Completion,
    ) {
        let kids = q.children(m);
        if kids.is_empty() {
            // A barred leaf extracts the whole subtree: if missing
            // content is possible below, fetch it.
            if q.barred(m) && self.missing_possible_below(it, at) {
                out.queries.push(LocalQuery {
                    query: q.subquery(m),
                    at: Some(at),
                });
            }
            return;
        }
        let node_syms = self.syms_of(it, at);
        // C: children whose answer may come from missing information
        // under `at`.
        let mut c_set: Vec<QNodeRef> = Vec::new();
        for &mi in kids {
            let from_missing = node_syms.iter().any(|&s| {
                it.ty().mu(s).atoms().iter().any(|a| {
                    a.entries().iter().any(|&(c, _)| {
                        !matches!(it.ty().info(c).target, SymTarget::Node(_)) && sets.poss(mi, c)
                    })
                })
            });
            if from_missing {
                c_set.push(mi);
            }
        }
        if !c_set.is_empty() {
            out.queries.push(LocalQuery {
                query: q.subquery_restricted(m, &c_set),
                at: Some(at),
            });
        }
        // Children answerable only through instantiated nodes: recurse
        // into each data child whose type possibly matches. An anchor
        // absent from the data tree (caller passed knowledge that has
        // drifted from `td`) simply has no data children to descend
        // into; the executor reports `MissingAnchor` when the local
        // query above runs, so nothing is silently lost here.
        let Some(at_ref) = td.by_nid(at) else {
            return;
        };
        for &mi in kids {
            if c_set.contains(&mi) {
                continue;
            }
            for &child in td.children(at_ref) {
                let child_nid = td.nid(child);
                let child_syms = self.syms_of(it, child_nid);
                if child_syms.iter().any(|&s| sets.poss(mi, s)) {
                    self.descend(it, td, q, mi, child_nid, sets, out);
                }
            }
        }
    }

    /// Can the subtree below a data node still contain unknown nodes?
    fn missing_possible_below(&self, it: &IncompleteTree, n: Nid) -> bool {
        // BFS through symbols reachable below n's symbols; any
        // label-targeted symbol reachable means unknown content.
        let mut stack: Vec<Sym> = self.syms_of(it, n);
        let mut seen: Vec<bool> = vec![false; it.ty().sym_count()];
        while let Some(s) = stack.pop() {
            if seen[s.ix()] {
                continue;
            }
            seen[s.ix()] = true;
            for atom in it.ty().mu(s).atoms() {
                for &(c, _) in atom.entries() {
                    if matches!(it.ty().info(c).target, SymTarget::Lab(_)) {
                        return true;
                    }
                    if !seen[c.ix()] {
                        stack.push(c);
                    }
                }
            }
        }
        false
    }
}

/// The auxiliary queries of Proposition 3.13 for a user query `q`: for
/// every pattern node `m`, the root-to-`m` path with all conditions
/// cleared, parents before children. Asking these alongside each user
/// query keeps the refined incomplete tree polynomial in the whole
/// sequence (all answer nodes become instantiated, so no `τ̄`/`τ̂`
/// case analysis accumulates).
pub fn auxiliary_queries(q: &PsQuery) -> Vec<PsQuery> {
    q.preorder().iter().map(|&m| q.path_to(m)).collect()
}

/// Merges all label-targeted specializations of `label` into a single
/// symbol whose condition is the union of the originals and whose µ is
/// the union of their disjunctions — the "gracefully lose information"
/// heuristic of Section 3.2. The result's `rep` is a superset of the
/// original's, and its size never larger.
pub fn relax_label(it: &IncompleteTree, label: Label) -> IncompleteTree {
    let ty = it.ty();
    let group: Vec<Sym> = ty
        .syms()
        .filter(|&s| matches!(ty.info(s).target, SymTarget::Lab(l) if l == label))
        .collect();
    if group.len() <= 1 {
        return it.clone();
    }
    let mut out = ConditionalTreeType::new();
    // Merged symbol first, then survivors; build a remap table.
    let merged_cond = group
        .iter()
        .fold(IntervalSet::empty(), |acc, &s| acc.union(&ty.info(s).cond));
    let merged = out.add_symbol(SymTarget::Lab(label), merged_cond);
    let mut remap: HashMap<Sym, Sym> = HashMap::new();
    for s in ty.syms() {
        if group.contains(&s) {
            remap.insert(s, merged);
        } else {
            let info = ty.info(s);
            let ns = out.add_symbol(info.target, info.cond.clone());
            remap.insert(s, ns);
        }
    }
    // µ: remap entries; collapsed duplicates widen to ⋆ (a sound
    // over-approximation) or + when some collapsed entry was mandatory.
    let remap_atom = |a: &SAtom| -> SAtom {
        let mut acc: HashMap<Sym, (usize, bool, Mult)> = HashMap::new();
        for &(c, m) in a.entries() {
            let nc = remap[&c];
            let e = acc.entry(nc).or_insert((0, false, m));
            e.0 += 1;
            e.1 |= m.mandatory();
            e.2 = m;
        }
        SAtom::new(
            acc.into_iter()
                .map(|(c, (count, mand, orig))| {
                    let m = if count == 1 {
                        orig
                    } else if mand {
                        Mult::Plus
                    } else {
                        Mult::Star
                    };
                    (c, m)
                })
                .collect(),
        )
    };
    // The merged symbol's µ: union of the group's disjunctions.
    let mut merged_atoms: Vec<SAtom> = Vec::new();
    for &s in &group {
        merged_atoms.extend(ty.mu(s).atoms().iter().map(&remap_atom));
    }
    merged_atoms.sort_by(|x, y| x.entries().iter().cmp(y.entries().iter()));
    merged_atoms.dedup();
    out.set_mu(merged, Disjunction(merged_atoms));
    for s in ty.syms() {
        if group.contains(&s) {
            continue;
        }
        let atoms = ty.mu(s).atoms().iter().map(&remap_atom).collect();
        out.set_mu(remap[&s], Disjunction(atoms));
    }
    out.set_roots(ty.roots().iter().map(|r| remap[r]).collect());
    // Relaxation is a lossy heuristic to begin with: if the rebuilt
    // type/node pair is somehow rejected, returning the tree unrelaxed
    // is always sound (the caller just gets no size reduction).
    match IncompleteTree::new(it.nodes().clone(), out) {
        Ok(relaxed) => relaxed.trim(),
        Err(_) => it.clone(),
    }
}

/// Repeatedly relaxes the label with the most specializations until the
/// tree's size drops below `target_size` or no label has more than one
/// specialization. Returns the relaxed tree.
pub fn relax(it: &IncompleteTree, target_size: usize) -> IncompleteTree {
    let mut cur = it.clone();
    loop {
        if cur.size() <= target_size {
            return cur;
        }
        // Most-specialized label.
        let ty = cur.ty();
        let mut counts: HashMap<Label, usize> = HashMap::new();
        for s in ty.syms() {
            if let SymTarget::Lab(l) = ty.info(s).target {
                *counts.entry(l).or_default() += 1;
            }
        }
        // Ties broken by smallest label, not by HashMap order.
        let Some((&label, &count)) = counts
            .iter()
            .max_by_key(|&(&l, &c)| (c, std::cmp::Reverse(l)))
        else {
            return cur;
        };
        if count <= 1 {
            return cur;
        }
        cur = relax_label(&cur, label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iixml_core::Refiner;
    use iixml_query::PsQueryBuilder;
    use iixml_tree::{Alphabet, Nid};
    use iixml_values::{Cond, Rat};

    /// The catalog source from the paper's running example, numeric
    /// encoding: cat elec=1; subcat camera=10, cdplayer=11.
    fn catalog(alpha: &mut Alphabet) -> DataTree {
        let cat = alpha.intern("catalog");
        let product = alpha.intern("product");
        let name = alpha.intern("name");
        let price = alpha.intern("price");
        let catl = alpha.intern("cat");
        let subcat = alpha.intern("subcat");
        let picture = alpha.intern("picture");
        let mut t = DataTree::new(Nid(0), cat, Rat::ZERO);
        let mut next = 1u64;
        let mut add = |t: &mut DataTree, nm: i64, pr: i64, sub: i64, pics: &[i64]| {
            let root = t.root();
            let p = t.add_child(root, Nid(next), product, Rat::ZERO).unwrap();
            next += 1;
            t.add_child(p, Nid(next), name, Rat::from(nm)).unwrap();
            next += 1;
            t.add_child(p, Nid(next), price, Rat::from(pr)).unwrap();
            next += 1;
            let c = t.add_child(p, Nid(next), catl, Rat::from(1)).unwrap();
            next += 1;
            t.add_child(c, Nid(next), subcat, Rat::from(sub)).unwrap();
            next += 1;
            for &v in pics {
                t.add_child(p, Nid(next), picture, Rat::from(v)).unwrap();
                next += 1;
            }
        };
        add(&mut t, 100, 120, 10, &[501]); // Canon
        add(&mut t, 101, 199, 10, &[]); // Nikon
        add(&mut t, 102, 175, 11, &[]); // Sony cdplayer
        add(&mut t, 103, 250, 10, &[502]); // Olympus
        t
    }

    /// Query 1: name/price/subcat of elec products under 200.
    fn query1(alpha: &mut Alphabet) -> PsQuery {
        let mut b = PsQueryBuilder::new(alpha, "catalog", Cond::True);
        let root = b.root();
        let p = b.child(root, "product", Cond::True).unwrap();
        b.child(p, "name", Cond::True).unwrap();
        b.child(p, "price", Cond::lt(Rat::from(200))).unwrap();
        let c = b.child(p, "cat", Cond::eq(Rat::from(1))).unwrap();
        b.child(c, "subcat", Cond::True).unwrap();
        b.build()
    }

    /// Query 4: list all cameras (name + cat/subcat=camera).
    fn query4(alpha: &mut Alphabet) -> PsQuery {
        let mut b = PsQueryBuilder::new(alpha, "catalog", Cond::True);
        let root = b.root();
        let p = b.child(root, "product", Cond::True).unwrap();
        b.child(p, "name", Cond::True).unwrap();
        let c = b.child(p, "cat", Cond::eq(Rat::from(1))).unwrap();
        b.child(c, "subcat", Cond::eq(Rat::from(10))).unwrap();
        b.build()
    }

    #[test]
    fn completion_makes_query_answerable() {
        let mut alpha = Alphabet::new();
        let source = catalog(&mut alpha);
        let q1 = query1(&mut alpha);
        let q4 = query4(&mut alpha);
        let mut refiner = Refiner::new(&alpha);
        refiner.refine(&alpha, &q1, &q1.eval(&source)).unwrap();
        // q4 is not fully answerable: expensive cameras are unknown.
        let ans = refiner.current().query(&q4);
        assert!(!ans.fully_answerable());
        // Build and execute the completion.
        let med = Mediator::new(refiner.current());
        let completion = med.complete(&q4);
        assert!(!completion.is_complete());
        let mut known = refiner.data_tree().unwrap();
        completion.execute(&source, &mut known).unwrap();
        // The query now evaluates identically on known data and source.
        let on_known = q4.eval(&known).tree;
        let on_source = q4.eval(&source).tree;
        match (on_known, on_source) {
            (Some(a), Some(b)) => assert!(a.same_tree(&b)),
            (a, b) => assert_eq!(a.is_none(), b.is_none()),
        }
    }

    #[test]
    fn completion_empty_when_fully_answerable() {
        let mut alpha = Alphabet::new();
        let source = catalog(&mut alpha);
        let q1 = query1(&mut alpha);
        let mut refiner = Refiner::new(&alpha);
        refiner.refine(&alpha, &q1, &q1.eval(&source)).unwrap();
        // Re-asking q1 needs nothing new... its answer came entirely
        // from q1, but products not matching q1 could still match
        // subqueries? No: q1's own answer is fixed by q^-1(A).
        let ans = refiner.current().query(&q1);
        assert!(ans.fully_answerable());
        let med = Mediator::new(refiner.current());
        let completion = med.complete(&q1);
        // The completion may be empty or consist of queries returning
        // nothing new; executing it must not change the answer.
        let mut known = refiner.data_tree().unwrap();
        completion.execute(&source, &mut known).unwrap();
        assert!(q1
            .eval(&known)
            .tree
            .unwrap()
            .same_tree(q1.eval(&source).tree.as_ref().unwrap()));
    }

    #[test]
    fn completion_against_empty_knowledge_asks_q_at_root() {
        let alpha = Alphabet::from_names([
            "catalog", "product", "name", "price", "cat", "subcat", "picture",
        ]);
        let mut a2 = alpha.clone();
        let q = query4(&mut a2);
        let refiner = Refiner::new(&alpha);
        let med = Mediator::new(refiner.current());
        let completion = med.complete(&q);
        assert_eq!(completion.queries.len(), 1);
        assert!(completion.queries[0].at.is_none());
    }

    #[test]
    fn completion_answers_do_not_overlap() {
        let mut alpha = Alphabet::new();
        let source = catalog(&mut alpha);
        let q1 = query1(&mut alpha);
        let q4 = query4(&mut alpha);
        let mut refiner = Refiner::new(&alpha);
        refiner.refine(&alpha, &q1, &q1.eval(&source)).unwrap();
        let med = Mediator::new(refiner.current());
        let completion = med.complete(&q4);
        // Evaluate each local query; non-anchor answer nodes must be
        // pairwise disjoint.
        let mut seen: std::collections::HashSet<Nid> = std::collections::HashSet::new();
        for lq in &completion.queries {
            let ans = match lq.at {
                None => q4.eval(&source),
                Some(n) => lq.query.eval_at(&source, n).unwrap(),
            };
            if let Some(t) = ans.tree {
                for r in t.preorder() {
                    let nid = t.nid(r);
                    if Some(nid) == lq.at || nid == t.nid(t.root()) {
                        continue;
                    }
                    assert!(seen.insert(nid), "node {nid} returned by two local queries");
                }
            }
        }
    }

    #[test]
    fn auxiliary_queries_cover_all_pattern_nodes() {
        let mut alpha = Alphabet::new();
        let q = query1(&mut alpha);
        let aux = auxiliary_queries(&q);
        assert_eq!(aux.len(), q.len());
        for a in &aux {
            assert!(a.is_linear());
            for &m in a.preorder() {
                assert_eq!(*a.cond(m), Cond::True);
            }
        }
        // The longest auxiliary path reaches subcat:
        // catalog/product/cat/subcat.
        let max_depth = aux.iter().map(|a| a.len()).max().unwrap();
        assert_eq!(max_depth, 4);
    }

    #[test]
    fn relaxation_is_sound_and_smaller() {
        let mut alpha = Alphabet::new();
        let source = catalog(&mut alpha);
        let q1 = query1(&mut alpha);
        let q4 = query4(&mut alpha);
        let mut refiner = Refiner::new(&alpha);
        refiner.refine(&alpha, &q1, &q1.eval(&source)).unwrap();
        refiner.refine(&alpha, &q4, &q4.eval(&source)).unwrap();
        let it = refiner.current();
        let before = it.size();
        let relaxed = relax(it, before / 2);
        assert!(relaxed.size() < before, "relaxation shrinks the tree");
        // Soundness: everything represented stays represented.
        assert!(relaxed.contains(&source));
        let mut gen = iixml_tree::NidGen::starting_at(10_000);
        for _ in 0..3 {
            if let Some(w) = it.witness(&mut gen) {
                assert!(relaxed.contains(&w), "rep(relaxed) ⊇ rep(original)");
            }
        }
    }
}
