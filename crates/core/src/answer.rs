//! Querying incomplete trees (Section 3.3).
//!
//! Incomplete trees are a *strong representation system* for ps-queries:
//! for any incomplete tree `T` and ps-query `q` there is an incomplete
//! tree `q(T)` with `rep(q(T)) = q(rep(T))` (Theorem 3.14), computable in
//! PTIME for fixed Σ (the construction's disjunctive-normal-form step is
//! exponential in Σ only).
//!
//! Built on top of it:
//! * possible / certain non-emptiness of the answer (Corollary 3.18);
//! * possible / certain prefixes of the answer (Theorem 3.17);
//! * full answerability — "can `q` be answered from the data already
//!   fetched?", the answering-queries-using-views question
//!   (Corollary 3.15).
//!
//! One modeling note: the *empty* answer is a possible result of a query
//! but data trees are nonempty, so [`QueryOnIncomplete`] carries the
//! nonempty-answer description plus an `empty_possible` flag (the paper's
//! Example 2.2 encodes the same thing with an unsatisfiable root type
//! `r1`).

use crate::ctt::{ConditionalTreeType, Disjunction, SAtom, Sym, SymTarget};
use crate::itree::{IncompleteTree, NodeInfo};
use iixml_obs::{keys, LazyCounter};
use iixml_query::{Answer, PsQuery, QNodeRef};
use iixml_tree::{DataTree, Mult, Nid};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::collections::HashMap;

/// Asks answered without building `q(T)`.
static OBS_ASK_FROM_KNOWN: LazyCounter = LazyCounter::new(keys::CORE_ASK_FROM_KNOWN);
/// Asks that fell back to building `q(T)`.
static OBS_ASK_FROM_ANSWER_TYPE: LazyCounter = LazyCounter::new(keys::CORE_ASK_FROM_ANSWER_TYPE);

/// The position component of an answer-type symbol: paired with a query
/// node, or inside a bar-extracted subtree.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum QPos {
    At(QNodeRef),
    Bar,
}

/// The description of `q(rep(T))`: an incomplete tree for the nonempty
/// answers plus whether the empty answer can occur.
#[derive(Clone, Debug)]
pub struct QueryOnIncomplete {
    /// Incomplete tree whose `rep` is the set of *nonempty* answers.
    pub tree: IncompleteTree,
    /// Does some represented input yield the empty answer?
    pub empty_possible: bool,
}

/// The `Poss(m)` / `Cert(m)` sets of the Theorem 3.14 construction:
/// per query node `m`, the type symbols on which the subquery `q_m`
/// possibly / certainly produces output. Also used by the mediator's
/// completion generation (Theorem 3.19).
#[derive(Clone, Debug)]
pub struct MatchSets {
    /// Symbols per query node.
    syms: usize,
    /// By `m.0 * syms + s.ix()`: [`POSS`] and [`CERT`] bits.
    bits: Vec<u8>,
}

/// `s ∈ Poss(m)`: some tree of `rep(T_s)` matches `q_m`.
const POSS: u8 = 1;
/// `s ∈ Cert(m)`: every tree of `rep(T_s)` matches `q_m`.
const CERT: u8 = 2;

impl MatchSets {
    fn get(&self, m: QNodeRef, s: Sym) -> u8 {
        self.bits[m.0 as usize * self.syms + s.ix()]
    }

    /// Is `s` in `Poss(m)`: does some tree of `rep(T_s)` match `q_m`?
    pub fn poss(&self, m: QNodeRef, s: Sym) -> bool {
        self.get(m, s) & POSS != 0
    }

    /// Is `s` in `Cert(m)`: does every tree of `rep(T_s)` match `q_m`?
    pub fn cert(&self, m: QNodeRef, s: Sym) -> bool {
        self.get(m, s) & CERT != 0
    }
}

/// Computes [`MatchSets`] bottom-up over the query pattern, masking out
/// unproductive symbols (a symbol with empty `rep` possibly-matches
/// nothing).
pub fn match_sets(it: &IncompleteTree, q: &PsQuery) -> MatchSets {
    let prod = it.ty().productive();
    sets_over(it, q, |s| prod[s.ix()])
}

/// [`match_sets`] over the symbols `productive` admits: all of them in
/// a trim tree, whose every symbol is productive, so the fixpoint that
/// finds them need not run.
///
/// A symbol can match only query nodes of its own label, so the
/// admitted symbols are first bucketed by the query's distinct labels,
/// reading the labels the tree carries; each query node then visits
/// its label's bucket alone. Poss and Cert share one flat buffer.
fn sets_over(it: &IncompleteTree, q: &PsQuery, productive: impl Fn(Sym) -> bool) -> MatchSets {
    let ty = it.ty();
    let labels = it.labels();
    // By query node: its label's symbols' range in `members`. Each
    // symbol falls in one bucket at most.
    let mut ranges = vec![(0, 0); q.len()];
    let mut members: Vec<Sym> = Vec::with_capacity(labels.len());
    let order = q.preorder();
    for (i, &m) in order.iter().enumerate() {
        let l = q.label(m);
        // A label met before shares its bucket.
        ranges[m.0 as usize] = match order[..i].iter().find(|&&p| q.label(p) == l) {
            Some(&p) => ranges[p.0 as usize],
            None => {
                let lo = members.len();
                members.extend(
                    (0..labels.len() as u32)
                        .map(Sym)
                        .filter(|&s| labels[s.ix()] == l && productive(s)),
                );
                (lo, members.len())
            }
        };
    }
    let mut sets = MatchSets {
        syms: ty.sym_count(),
        bits: vec![0; q.len() * ty.sym_count()],
    };
    // Reversed preorder visits children before parents.
    for &m in q.preorder().iter().rev() {
        let kids = q.children(m);
        let want = q.cond_set(m);
        let (lo, hi) = ranges[m.0 as usize];
        for &s in &members[lo..hi] {
            let cond = &ty.info(s).cond;
            let mut bits = 0;
            if cond.overlaps(want)
                && (kids.is_empty()
                    || ty.mu(s).atoms().iter().any(|a| {
                        kids.iter()
                            .all(|&mi| a.entries().iter().any(|&(c, _)| sets.poss(mi, c)))
                    }))
            {
                bits |= POSS;
            }
            if !cond.is_empty()
                && cond.implies(want)
                && !ty.mu(s).atoms().is_empty()
                && ty.mu(s).atoms().iter().all(|a| {
                    kids.iter().all(|&mi| {
                        a.entries()
                            .iter()
                            .any(|&(c, mu)| mu.mandatory() && sets.cert(mi, c))
                    })
                })
            {
                bits |= CERT;
            }
            sets.bits[m.0 as usize * sets.syms + s.ix()] = bits;
        }
    }
    sets
}

/// Whether local knowledge fixes a query's answer, decided by
/// [`IncompleteTree::determination`] without building `q(T)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Determination {
    /// No root symbol can match: the answer is certainly empty.
    Empty,
    /// The answer is certainly nonempty and involves only data nodes:
    /// it is `q` evaluated on the known data tree.
    Known,
    /// The dry run cannot tell; only `q(T)` can.
    Undecided,
}

/// The answer to a query from local knowledge alone (Section 3.3).
#[derive(Debug)]
pub enum Verdict {
    /// The knowledge determines the answer (Corollary 3.15); `None` is
    /// the empty answer.
    Complete(Option<DataTree>),
    /// It does not: `q(T)` describes the possible answers
    /// (Theorem 3.14).
    Partial(QueryOnIncomplete),
}

impl Verdict {
    /// The decision on `q(T)` itself: complete with its one answer when
    /// it is fully answerable (Corollary 3.15), partial otherwise.
    pub fn from_answer_type(qt: QueryOnIncomplete) -> Verdict {
        if qt.fully_answerable() {
            Verdict::Complete(qt.the_answer())
        } else {
            Verdict::Partial(qt)
        }
    }
}

/// `q` evaluated on the known data tree, with every node's children in
/// ascending id order, as `data_tree()` orders them.
fn answer_on_known(q: &PsQuery, known: &DataTree) -> Option<DataTree> {
    let mut t = q.eval_tree(known)?;
    t.sort_children_by_nid();
    Some(t)
}

struct Builder<'a> {
    it: &'a IncompleteTree,
    q: &'a PsQuery,
    sets: MatchSets,
}

impl<'a> Builder<'a> {
    /// Computes the `Poss(m)` / `Cert(m)` sets (proof of Theorem 3.14)
    /// on a trim input, whose symbols are all productive.
    fn new(it: &'a IncompleteTree, q: &'a PsQuery) -> Builder<'a> {
        debug_assert!(it.ty().productive().iter().all(|&p| p), "input is trim");
        Builder {
            it,
            q,
            sets: sets_over(it, q, |_| true),
        }
    }

    /// The input's root symbols that possibly match the query root.
    fn roots(&self) -> impl Iterator<Item = Sym> + '_ {
        let rq = self.q.root();
        self.it
            .ty()
            .roots()
            .iter()
            .copied()
            .filter(move |&s| self.sets.poss(rq, s))
    }

    /// Empty answer possible iff some (productive) root is not certain.
    fn empty_possible(&self) -> bool {
        let rq = self.q.root();
        self.it.ty().roots().iter().any(|&s| !self.sets.cert(rq, s))
    }

    /// The successor rule of the construction, written once for
    /// [`build`](Self::build) and the dry run
    /// [`reaches_only_data_nodes`](Self::reaches_only_data_nodes): calls
    /// `visit(i, c, w, pos)` for every entry `(c, w)` that the answer
    /// µ of the pair `(s, at)` keeps from the `i`-th surviving atom of
    /// `µ(s)`, where `pos` is the position of the entry's answer symbol.
    /// Returns the number of surviving atoms.
    ///
    /// * Bar-extracted positions and barred query leaves carry every
    ///   atom through verbatim (the whole subtree is in the answer).
    /// * An unbarred query leaf extracts nothing below: one empty atom.
    /// * At an internal query node `m`, an atom survives when every
    ///   child subquery has an entry that can serve it; the kept entries
    ///   come child by child (children carry distinct labels, so each
    ///   entry serves at most one).
    fn successors(
        &self,
        s: Sym,
        at: QPos,
        visit: &mut impl FnMut(usize, Sym, Mult, QPos),
    ) -> usize {
        let atoms = self.it.ty().mu(s).atoms();
        let m = match at {
            QPos::At(m) if !self.q.children(m).is_empty() => m,
            QPos::At(m) if !self.q.barred(m) => return 1,
            _ => {
                for (i, atom) in atoms.iter().enumerate() {
                    for &(c, w) in atom.entries() {
                        visit(i, c, w, QPos::Bar);
                    }
                }
                return atoms.len();
            }
        };
        let kids = self.q.children(m);
        let serves = |c: Sym, mi: QNodeRef| self.sets.poss(mi, c);
        let mut kept = 0;
        for atom in atoms {
            let survives = kids
                .iter()
                .all(|&mi| atom.entries().iter().any(|&(c, _)| serves(c, mi)));
            if !survives {
                continue; // some child subquery is unsatisfiable here
            }
            for &mi in kids {
                for &(c, w) in atom.entries() {
                    if serves(c, mi) {
                        visit(kept, c, w, QPos::At(mi));
                    }
                }
            }
            kept += 1;
        }
        kept
    }

    /// The dry run of [`build`](Self::build): walks the `(s, pos)` pairs
    /// it would reach from the possible roots and reports whether every
    /// reached `s` targets a data node. It creates no symbols,
    /// disjunctions or trees.
    fn reaches_only_data_nodes(&self) -> bool {
        let ty = self.it.ty();
        let width = self.q.len() + 1;
        let slot = |s: Sym, pos: QPos| {
            s.ix() * width
                + match pos {
                    QPos::At(m) => m.0 as usize,
                    QPos::Bar => self.q.len(),
                }
        };
        let mut seen = vec![false; ty.sym_count() * width];
        let mut stack: Vec<(Sym, QPos)> = Vec::with_capacity(ty.sym_count());
        for s in self.roots() {
            let pair = (s, QPos::At(self.q.root()));
            seen[slot(pair.0, pair.1)] = true;
            stack.push(pair);
        }
        while let Some((s, pos)) = stack.pop() {
            if let SymTarget::Lab(_) = ty.info(s).target {
                return false;
            }
            self.successors(s, pos, &mut |_, c, _, p| {
                let k = slot(c, p);
                if !seen[k] {
                    seen[k] = true;
                    stack.push((c, p));
                }
            });
        }
        true
    }

    /// See [`IncompleteTree::determination`].
    fn determination(&self) -> Determination {
        if self.roots().next().is_none() {
            Determination::Empty
        } else if !self.empty_possible() && self.reaches_only_data_nodes() {
            Determination::Known
        } else {
            Determination::Undecided
        }
    }

    /// `q(T)`: the answer type, over the data nodes it targets, trimmed.
    fn answer_type(&self) -> QueryOnIncomplete {
        let (ty, empty_possible) = self.build();
        // Only the data nodes the answer type targets: the rest would be
        // dropped by the trim below anyway.
        let nodes: BTreeMap<Nid, NodeInfo> = ty
            .syms()
            .filter_map(|s| match ty.info(s).target {
                SymTarget::Node(n) => self.it.node_info(n).map(|info| (n, info)),
                SymTarget::Lab(_) => None,
            })
            .collect();
        // Infallible: the answer type only targets nodes of the input,
        // which is well formed.
        let tree =
            IncompleteTree::new(nodes, ty).expect("answer type reuses the input's data nodes");
        let tree = match tree.trimmed() {
            Cow::Owned(t) => t,
            Cow::Borrowed(_) => tree,
        };
        QueryOnIncomplete {
            tree,
            empty_possible,
        }
    }

    /// Builds the answer type. Returns the new conditional tree type.
    fn build(&self) -> (ConditionalTreeType, bool) {
        let ty = self.it.ty();
        let mut out = ConditionalTreeType::new();
        let mut pair_of: HashMap<(Sym, QPos), Sym> = HashMap::new();

        // Create symbols on demand, with a worklist for µ construction.
        let mut worklist: Vec<(Sym, QPos)> = Vec::new();
        let ensure = |out: &mut ConditionalTreeType,
                      worklist: &mut Vec<(Sym, QPos)>,
                      pair_of: &mut HashMap<(Sym, QPos), Sym>,
                      s: Sym,
                      pos: QPos| {
            *pair_of.entry((s, pos)).or_insert_with(|| {
                let info = ty.info(s);
                let cond = match pos {
                    QPos::At(m) => info.cond.intersect(self.q.cond_set(m)),
                    QPos::Bar => info.cond.clone(),
                };
                let p = out.add_symbol(info.target, cond);
                worklist.push((s, pos));
                p
            })
        };

        // Roots: (s, root_q) for possible root symbols.
        let rq = self.q.root();
        let roots = self
            .roots()
            .map(|s| ensure(&mut out, &mut worklist, &mut pair_of, s, QPos::At(rq)))
            .collect();
        out.set_roots(roots);

        // Saturate: the answer symbols are numbered in worklist order,
        // so the `p`-th pair popped is answer symbol `p`.
        let mut done = 0;
        while let Some(&(s, pos)) = worklist.get(done) {
            let mu = self.mu(s, pos, &mut |c, p| {
                ensure(&mut out, &mut worklist, &mut pair_of, c, p)
            });
            out.set_mu(Sym(done as u32), mu);
            done += 1;
        }
        (out, self.empty_possible())
    }

    /// The answer µ of the pair `(s, at)` over the entries
    /// [`successors`](Self::successors) keeps. Carried positions copy
    /// the atoms. At a matched internal query node (the heart of
    /// Theorem 3.14) multiplicities are weakened for
    /// possible-but-not-certain matches, and atoms are expanded
    /// disjunctively so every child subquery contributes at least one
    /// answer node.
    fn mu(&self, s: Sym, at: QPos, ensure: &mut dyn FnMut(Sym, QPos) -> Sym) -> Disjunction {
        let mut atoms: Vec<Vec<(Sym, Mult, QPos)>> = Vec::new();
        let kept = self.successors(s, at, &mut |i, c, w, pos| {
            let w = match pos {
                // Such an input child may produce no answer node.
                QPos::At(mi) if !self.sets.cert(mi, c) => match w {
                    Mult::One => Mult::Opt,
                    Mult::Plus => Mult::Star,
                    other => other,
                },
                _ => w,
            };
            if atoms.len() <= i {
                atoms.resize_with(i + 1, Vec::new);
            }
            atoms[i].push((ensure(c, pos), w, pos));
        });
        atoms.resize_with(kept, Vec::new);
        let carried = match at {
            QPos::At(m) => self.q.children(m).is_empty(),
            QPos::Bar => true,
        };
        if carried {
            let atoms = atoms
                .into_iter()
                .map(|a| SAtom::new(a.into_iter().map(|(c, w, _)| (c, w)).collect()))
                .collect();
            return Disjunction(atoms);
        }
        let mut out_atoms: Vec<SAtom> = Vec::new();
        for atom in &atoms {
            // Each group (the entries serving one child subquery) must
            // contribute >= 1 answer node: if no entry is already
            // mandatory, expand over which one is promoted.
            let mut per_group: Vec<Vec<Vec<(Sym, Mult)>>> = Vec::new();
            for group in atom.chunk_by(|a, b| a.2 == b.2) {
                let mapped: Vec<(Sym, Mult)> = group.iter().map(|&(c, w, _)| (c, w)).collect();
                if mapped.iter().any(|&(_, w)| w.mandatory()) {
                    per_group.push(vec![mapped]);
                } else {
                    let alts = (0..mapped.len())
                        .map(|host| {
                            mapped
                                .iter()
                                .enumerate()
                                .map(|(i, &(c, w))| {
                                    let w = if i == host {
                                        match w {
                                            Mult::Opt => Mult::One,
                                            Mult::Star => Mult::Plus,
                                            other => other,
                                        }
                                    } else {
                                        w
                                    };
                                    (c, w)
                                })
                                .collect()
                        })
                        .collect();
                    per_group.push(alts);
                }
            }
            // Cartesian product across groups.
            let mut combos: Vec<Vec<(Sym, Mult)>> = vec![Vec::new()];
            for alts in &per_group {
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
            for combo in combos {
                out_atoms.push(SAtom::new(combo));
            }
        }
        out_atoms.sort_by(|x, y| x.entries().iter().cmp(y.entries().iter()));
        out_atoms.dedup();
        Disjunction(out_atoms)
    }
}

impl IncompleteTree {
    /// Computes `q(T)` — an incomplete tree representing exactly the set
    /// of answers `{ q(T0) | T0 ∈ rep(T) }` (Theorem 3.14), along with
    /// whether the empty answer is possible.
    pub fn query(&self, q: &PsQuery) -> QueryOnIncomplete {
        Builder::new(&self.trimmed(), q).answer_type()
    }

    /// Decides full answerability (Corollary 3.15) by a dry run of the
    /// `q(T)` construction, without building it. [`Determination::Known`]
    /// means the empty answer is impossible and every pair the
    /// construction reaches from the possible roots has a node-targeted
    /// symbol. The useful symbols of the trimmed `q(T)` are among those
    /// pairs, so `q(T)` is then fully answerable and its one answer is
    /// `q` on the known data tree: ps-queries have no negation, so a
    /// match there is a match in every represented world. The dry run
    /// may reach pairs the trim would drop, so it errs only towards
    /// [`Determination::Undecided`].
    pub fn determination(&self, q: &PsQuery) -> Determination {
        determination_trim(&self.trimmed(), q)
    }
}

/// [`IncompleteTree::determination`] of a tree that is already trim.
pub(crate) fn determination_trim(trim: &IncompleteTree, q: &PsQuery) -> Determination {
    Builder::new(trim, q).determination()
}

/// [`Refiner::answer`](crate::Refiner::answer) on a trim tree: the dry
/// run, then `q` on the data tree `known()` supplies when it passes,
/// otherwise `q(T)` built from the same match sets.
pub(crate) fn answer_trim<'d>(
    trim: &IncompleteTree,
    q: &PsQuery,
    known: impl FnOnce() -> Option<&'d DataTree>,
) -> Verdict {
    let b = Builder::new(trim, q);
    match b.determination() {
        Determination::Empty => {
            OBS_ASK_FROM_KNOWN.incr();
            return Verdict::Complete(None);
        }
        Determination::Known => {
            if let Some(known) = known() {
                OBS_ASK_FROM_KNOWN.incr();
                return Verdict::Complete(answer_on_known(q, known));
            }
        }
        Determination::Undecided => {}
    }
    OBS_ASK_FROM_ANSWER_TYPE.incr();
    Verdict::from_answer_type(b.answer_type())
}

/// Does the trim knowledge imply the pair `(q, ans)`: is `ans` the
/// answer of `q` on every represented world, so that `rep(trim)` lies
/// in `q⁻¹(ans)` and Refine would leave `rep` as it is (Theorem 3.4)?
/// The dry run decides: the empty `ans` is implied exactly when the
/// answer is certainly empty ([`Determination::Empty`]), and a nonempty
/// one exactly when the answer is [`Determination::Known`] and `q` on
/// the data tree `known()` supplies equals `ans` as an unordered tree
/// with ids, labels and values, with the same provenance. A nonempty `ans` naming a node the knowledge
/// does not know is rejected first, which settles most new answers
/// without the dry run. `false` may still be an implied pair the dry
/// run cannot tell; it never hides a contradiction.
pub(crate) fn implies<'d>(
    trim: &IncompleteTree,
    q: &PsQuery,
    ans: &Answer,
    known: impl FnOnce() -> Option<&'d DataTree>,
) -> bool {
    let Some(a) = &ans.tree else {
        return determination_trim(trim, q) == Determination::Empty;
    };
    if !a.nids().all(|n| trim.nodes().contains_key(&n)) {
        return false;
    }
    if determination_trim(trim, q) != Determination::Known {
        return false;
    }
    let Some(d) = known() else {
        return false;
    };
    let on_known = q.eval(d);
    on_known.tree.is_some_and(|t| t.same_tree(a)) && on_known.provenance == ans.provenance
}

impl QueryOnIncomplete {
    /// Can the answer be nonempty? (Corollary 3.18.)
    pub fn possible_nonempty(&self) -> bool {
        !self.tree.is_empty()
    }

    /// Is the answer nonempty on *every* represented input?
    /// (Corollary 3.18; requires the input's `rep` to be nonempty, which
    /// holds whenever this was produced from a consistent Refine chain.)
    pub fn certain_nonempty(&self) -> bool {
        !self.tree.is_empty() && !self.empty_possible
    }

    /// Is `t` a possible prefix of some answer? (Theorem 3.17.)
    pub fn possible_answer_prefix(&self, t: &DataTree) -> bool {
        self.tree.possible_prefix(t)
    }

    /// Is `t` a certain prefix of every answer? (Theorem 3.17.) The
    /// empty answer has no prefixes, so this is false whenever the empty
    /// answer is possible.
    pub fn certain_answer_prefix(&self, t: &DataTree) -> bool {
        !self.empty_possible && self.tree.certain_prefix(t)
    }

    /// Can the query be *fully answered* from the data already available
    /// (Corollary 3.15)? True iff the answer never involves
    /// non-instantiated nodes — i.e. every useful symbol of `q(T)`
    /// specializes a data node — and emptiness of the answer does not
    /// depend on the unknown part.
    pub fn fully_answerable(&self) -> bool {
        let trimmed = self.tree.trimmed();
        if self.empty_possible {
            // Mixed empty/nonempty outcomes are only consistent when no
            // answer is ever produced.
            return trimmed.ty().roots().is_empty();
        }
        let ty = trimmed.ty();
        let all_nodes = ty
            .syms()
            .all(|s| matches!(ty.info(s).target, SymTarget::Node(_)));
        all_nodes
    }

    /// When [`fully_answerable`](Self::fully_answerable), the unique
    /// answer (or `None` for the empty answer); unspecified otherwise.
    pub fn the_answer(&self) -> Option<DataTree> {
        self.tree.data_tree()
    }

    /// The *sure part* of the answer (the paper's "sure answer
    /// modality", Section 1): the largest data-node tree guaranteed to
    /// be a prefix of **every** answer. `None` when no node is sure
    /// (in particular whenever the empty answer is possible).
    ///
    /// Construction: starting from the answer tree's root symbols
    /// (which must all target the same data node), keep a data node
    /// when, under every surviving parent symbol and in every disjunct,
    /// its entry is mandatory. This is sound by construction and
    /// verified against [`certain_answer_prefix`](Self::certain_answer_prefix)
    /// in tests.
    pub fn sure_answer(&self) -> Option<DataTree> {
        if self.empty_possible {
            return None;
        }
        let trimmed = self.tree.trimmed();
        let ty = trimmed.ty();
        // Every root symbol must pin the same data node.
        let mut root_node = None;
        for &r in ty.roots() {
            match ty.info(r).target {
                SymTarget::Node(n) => {
                    if *root_node.get_or_insert(n) != n {
                        return None;
                    }
                }
                SymTarget::Lab(_) => return None,
            }
        }
        let root = root_node?;
        let info = trimmed.node_info(root)?;
        let mut out = DataTree::new(root, info.label, info.value);
        // sure_syms[n] = symbols targeting node n that can type it in
        // some answer; a child node is sure when mandatory in every
        // atom of every such symbol of its (sure) parent.
        let mut frontier = vec![root];
        while let Some(n) = frontier.pop() {
            let parent_syms: Vec<Sym> = ty
                .syms()
                .filter(|&s| matches!(ty.info(s).target, SymTarget::Node(m) if m == n))
                .collect();
            // Candidate children: data nodes appearing in any atom.
            let mut candidates: Vec<iixml_tree::Nid> = Vec::new();
            for &s in &parent_syms {
                for atom in ty.mu(s).atoms() {
                    for &(c, _) in atom.entries() {
                        if let SymTarget::Node(m) = ty.info(c).target {
                            if !candidates.contains(&m) {
                                candidates.push(m);
                            }
                        }
                    }
                }
            }
            for child in candidates {
                let sure = parent_syms.iter().all(|&s| {
                    !ty.mu(s).atoms().is_empty()
                        && ty.mu(s).atoms().iter().all(|atom| {
                            atom.entries().iter().any(|&(c, m)| {
                                m.mandatory()
                                    && matches!(ty.info(c).target,
                                        SymTarget::Node(mm) if mm == child)
                            })
                        })
                });
                if sure {
                    if let Some(ci) = trimmed.node_info(child) {
                        // Infallible: `n` was pushed on the frontier only
                        // after being inserted into `out`.
                        let parent_ref = out.by_nid(n).expect("parent inserted first");
                        if out.add_child(parent_ref, child, ci.label, ci.value).is_ok() {
                            frontier.push(child);
                        }
                    }
                }
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctt::{ConditionalTreeType, Disjunction, SAtom, SymTarget};
    use crate::itree::NodeInfo;
    use iixml_query::PsQueryBuilder;
    use iixml_tree::{Alphabet, Label, Nid, NidGen};
    use iixml_values::{Cond, IntervalSet, Rat};
    use std::collections::BTreeMap;

    /// Example 2.2: data nodes r(root,=0), n(a,=0); extra a != 0
    /// children possible; all a's may have b children. Query:
    /// root / a / b (all conditions true).
    fn example() -> (IncompleteTree, Alphabet) {
        let alpha = Alphabet::from_names(["root", "a", "b"]);
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
        (IncompleteTree::new(nodes, ty).unwrap(), alpha)
    }

    fn example_query(alpha: &mut Alphabet) -> iixml_query::PsQuery {
        let mut bld = PsQueryBuilder::new(alpha, "root", Cond::True);
        let root = bld.root();
        let a = bld.child(root, "a", Cond::True).unwrap();
        bld.child(a, "b", Cond::True).unwrap();
        bld.build()
    }

    #[test]
    fn example_2_2_answer_description() {
        let (it, mut alpha) = example();
        let q = example_query(&mut alpha);
        let ans = it.query(&q);
        // The empty answer is possible (no a has a b child).
        assert!(ans.empty_possible);
        assert!(ans.possible_nonempty());
        assert!(!ans.certain_nonempty());

        // Possible nonempty answers include: r with n and one b below n.
        let mut a1 = DataTree::new(Nid(0), Label(0), Rat::ZERO);
        let nref = a1
            .add_child(a1.root(), Nid(1), Label(1), Rat::ZERO)
            .unwrap();
        a1.add_child(nref, Nid(50), Label(2), Rat::from(3)).unwrap();
        assert!(ans.tree.contains(&a1), "r-n-b is a possible answer");

        // r with an extra a(=5) child carrying a b: possible.
        let mut a2 = a1.clone();
        let extra = a2
            .add_child(a2.root(), Nid(60), Label(1), Rat::from(5))
            .unwrap();
        a2.add_child(extra, Nid(61), Label(2), Rat::ZERO).unwrap();
        assert!(ans.tree.contains(&a2));

        // r with n but n has no b: NOT an answer (answers include n only
        // when a b was matched below it).
        let mut bad = DataTree::new(Nid(0), Label(0), Rat::ZERO);
        bad.add_child(bad.root(), Nid(1), Label(1), Rat::ZERO)
            .unwrap();
        assert!(!ans.tree.contains(&bad));

        // An `a` child with value 0 is impossible (the star type demands
        // != 0 and node n is the only a=0).
        let mut bad2 = a1.clone();
        let e = bad2
            .add_child(bad2.root(), Nid(70), Label(1), Rat::ZERO)
            .unwrap();
        bad2.add_child(e, Nid(71), Label(2), Rat::ZERO).unwrap();
        assert!(!ans.tree.contains(&bad2));
    }

    #[test]
    fn answers_of_witnesses_are_represented() {
        let (it, mut alpha) = example();
        let q = example_query(&mut alpha);
        let ans = it.query(&q);
        // Sample a witness input and check its actual answer is
        // represented.
        let w = it.witness(&mut NidGen::starting_at(100)).unwrap();
        let actual = q.eval(&w);
        match actual.tree {
            Some(t) => assert!(ans.tree.contains(&t)),
            None => assert!(ans.empty_possible),
        }
    }

    #[test]
    fn witnesses_of_answer_tree_are_valid_answers() {
        let (it, mut alpha) = example();
        let q = example_query(&mut alpha);
        let ans = it.query(&q);
        let w = ans.tree.witness(&mut NidGen::starting_at(200)).unwrap();
        // Re-evaluating q on the answer must reproduce it exactly
        // (answers are fixpoints of q: q(q(T)) = q(T) for prefix
        // selections whose conditions the answer already satisfies).
        let again = q.eval(&w);
        assert!(again.tree.unwrap().same_tree(&w));
    }

    #[test]
    fn fully_answerable_cases() {
        let (it, mut alpha) = example();
        // Query: root/a — answered by data nodes? The extra a's (!= 0)
        // also match, so NOT fully answerable.
        let q1 = {
            let mut b = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
            let root = b.root();
            b.child(root, "a", Cond::True).unwrap();
            b.build()
        };
        let ans1 = it.query(&q1);
        assert!(!ans1.fully_answerable());

        // Query: root/a[=0] — only node n qualifies (star a's are != 0):
        // fully answerable, answer = r-n.
        let q2 = {
            let mut b = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
            let root = b.root();
            b.child(root, "a", Cond::eq(Rat::ZERO)).unwrap();
            b.build()
        };
        let ans2 = it.query(&q2);
        assert!(ans2.certain_nonempty());
        assert!(ans2.fully_answerable(), "only instantiated nodes answer");
        let t = ans2.the_answer().unwrap();
        assert_eq!(t.len(), 2);

        // Query: root/a[=7] — never matches anything… wait, star a's
        // allow value 7, so the answer varies: not fully answerable.
        let q3 = {
            let mut b = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
            let root = b.root();
            b.child(root, "a", Cond::eq(Rat::from(7))).unwrap();
            b.build()
        };
        let ans3 = it.query(&q3);
        assert!(ans3.empty_possible);
        assert!(ans3.possible_nonempty());
        assert!(!ans3.fully_answerable());

        // Query: root/c (label unknown to the type): certainly empty,
        // hence trivially fully answerable.
        let q4 = {
            let mut b = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
            let root = b.root();
            b.child(root, "c", Cond::True).unwrap();
            b.build()
        };
        let ans4 = it.query(&q4);
        assert!(!ans4.possible_nonempty());
        assert!(ans4.fully_answerable());
        assert!(ans4.the_answer().is_none());
    }

    #[test]
    fn certain_and_possible_answer_prefixes() {
        let (it, mut alpha) = example();
        // Query root/a[=0]: the answer is always exactly r-n.
        let q = {
            let mut b = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
            let root = b.root();
            b.child(root, "a", Cond::eq(Rat::ZERO)).unwrap();
            b.build()
        };
        let ans = it.query(&q);
        let just_root = DataTree::new(Nid(0), Label(0), Rat::ZERO);
        assert!(ans.certain_answer_prefix(&just_root));
        assert!(ans.possible_answer_prefix(&just_root));
        let mut rn = just_root.clone();
        rn.add_child(rn.root(), Nid(1), Label(1), Rat::ZERO)
            .unwrap();
        assert!(ans.certain_answer_prefix(&rn));
        // A b-node below n is never in this answer.
        let mut rnb = rn.clone();
        let nref = rnb.by_nid(Nid(1)).unwrap();
        rnb.add_child(nref, Nid(9), Label(2), Rat::ZERO).unwrap();
        assert!(!ans.possible_answer_prefix(&rnb));
    }

    #[test]
    fn sure_answer_is_a_certain_prefix() {
        let (it, mut alpha) = example();
        // root/a[=0]: certainly answers with r-n.
        let q = {
            let mut b = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
            let root = b.root();
            b.child(root, "a", Cond::eq(Rat::ZERO)).unwrap();
            b.build()
        };
        let ans = it.query(&q);
        let sure = ans.sure_answer().expect("certainly nonempty");
        assert_eq!(sure.len(), 2);
        assert!(ans.certain_answer_prefix(&sure));
        // root/a (any a): empty impossible? node n always matches (a=0
        // and the subquery is a leaf) -> certainly nonempty; the sure
        // part is r-n (extra a's not guaranteed).
        let q2 = {
            let mut b = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
            let root = b.root();
            b.child(root, "a", Cond::True).unwrap();
            b.build()
        };
        let ans2 = it.query(&q2);
        assert!(ans2.certain_nonempty());
        let sure2 = ans2.sure_answer().expect("nonempty");
        assert!(ans2.certain_answer_prefix(&sure2));
        assert!(sure2.by_nid(Nid(1)).is_some());
        // root/a/b: the empty answer is possible -> no sure part.
        let q3 = example_query(&mut alpha);
        let ans3 = it.query(&q3);
        assert!(ans3.empty_possible);
        assert!(ans3.sure_answer().is_none());
    }

    #[test]
    fn root_label_mismatch_gives_certainly_empty() {
        let (it, mut alpha) = example();
        let q = PsQueryBuilder::new(&mut alpha, "nonsense", Cond::True).build();
        let ans = it.query(&q);
        assert!(!ans.possible_nonempty());
        assert!(ans.empty_possible);
        assert!(ans.fully_answerable());
    }

    #[test]
    fn root_condition_filters_answers() {
        let (it, mut alpha) = example();
        // Root value is pinned to 0: a root condition = 5 never matches.
        let q = PsQueryBuilder::new(&mut alpha, "root", Cond::eq(Rat::from(5))).build();
        let ans = it.query(&q);
        assert!(!ans.possible_nonempty());
        // Condition = 0 always matches: the answer is exactly the root.
        let q = PsQueryBuilder::new(&mut alpha, "root", Cond::eq(Rat::ZERO)).build();
        let ans = it.query(&q);
        assert!(ans.certain_nonempty());
        assert!(ans.fully_answerable());
        assert_eq!(ans.the_answer().unwrap().len(), 1);
    }

    #[test]
    fn query_deeper_than_the_type_is_empty() {
        let (it, mut alpha) = example();
        // root/a/b/<deeper>: b is a leaf in the type.
        let mut bld = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
        let root = bld.root();
        let a = bld.child(root, "a", Cond::True).unwrap();
        let b = bld.child(a, "b", Cond::True).unwrap();
        bld.child(b, "a", Cond::True).unwrap();
        let q = bld.build();
        let ans = it.query(&q);
        assert!(!ans.possible_nonempty());
        assert!(ans.fully_answerable(), "certainly empty is fully known");
    }

    #[test]
    fn querying_an_empty_rep() {
        // Incomplete tree with empty rep: no answers at all.
        let mut ty = ConditionalTreeType::new();
        let r = ty.add_symbol(SymTarget::Lab(Label(0)), IntervalSet::empty());
        ty.set_mu(r, Disjunction::leaf());
        ty.add_root(r);
        let it = IncompleteTree::new(BTreeMap::new(), ty).unwrap();
        assert!(it.is_empty());
        let mut alpha = Alphabet::from_names(["root"]);
        let q = PsQueryBuilder::new(&mut alpha, "root", Cond::True).build();
        let ans = it.query(&q);
        assert!(!ans.possible_nonempty());
        assert!(!ans.empty_possible, "no worlds at all");
        assert!(!ans.certain_nonempty());
    }

    #[test]
    fn barred_query_carries_subtree_through() {
        let (it, mut alpha) = example();
        // Query root / ā[=0]: extract node n's whole subtree.
        let q = {
            let mut b = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
            let root = b.root();
            b.barred_child(root, "a", Cond::eq(Rat::ZERO)).unwrap();
            b.build()
        };
        let ans = it.query(&q);
        assert!(ans.certain_nonempty());
        // Answers may include b-children below n (unknown content).
        let mut with_b = DataTree::new(Nid(0), Label(0), Rat::ZERO);
        let nref = with_b
            .add_child(with_b.root(), Nid(1), Label(1), Rat::ZERO)
            .unwrap();
        with_b
            .add_child(nref, Nid(80), Label(2), Rat::from(4))
            .unwrap();
        assert!(ans.tree.contains(&with_b));
        // And also no b at all.
        let mut no_b = DataTree::new(Nid(0), Label(0), Rat::ZERO);
        no_b.add_child(no_b.root(), Nid(1), Label(1), Rat::ZERO)
            .unwrap();
        assert!(ans.tree.contains(&no_b));
        // Not fully answerable: the subtree content is unknown.
        assert!(!ans.fully_answerable());
    }
}
