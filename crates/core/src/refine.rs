//! Algorithm Refine (Section 3.1): incremental acquisition of incomplete
//! information from query-answer pairs.
//!
//! Two building blocks, then the algorithm:
//!
//! 1. [`query_answer_tree`] (Lemma 3.2) — from a ps-query `q` and its
//!    answer `A`, builds the incomplete tree `T_{q,A}` with
//!    `rep(T_{q,A}) = q⁻¹(A) = { T | q(T) = A }`. The specialized types
//!    are exactly the paper's: `τ_a` (unconstrained subtree with root
//!    label `a`), `τ_n` (answer node `n`), `τ̄_m` (nodes violating the
//!    condition of query node `m`), and `τ̂_m` (nodes satisfying `m`'s
//!    condition under which `m`'s subquery cannot be matched).
//! 2. [`intersect`] (Lemma 3.3) — the product of two incomplete trees,
//!    with `rep(T) = rep(T1) ∩ rep(T2)`. Multiplicity atoms are joined by
//!    the `⋊⋉` operation; our implementation generalizes the paper's
//!    unique-matching argument to a (small) disjunctive expansion when a
//!    mandatory entry has several compatible partners, which keeps the
//!    construction correct on arbitrary inputs while coinciding with the
//!    paper's on unambiguous ones.
//!
//! [`Refiner`] chains these: `T ← minimize(trim(T ∩ T_{q,A}))` per
//! query-answer pair (Theorem 3.4: polynomial per step — though the
//! result can grow exponentially in the *whole sequence*, see Example 3.2
//! and the `blowup` bench). The product is built from the root pairs
//! outward, and trim and minimize hand it back unchanged when they
//! would only copy it, so a step that learns no merge allocates only
//! the product. A pair the knowledge already implies builds nothing:
//! Refine would leave `rep` as it is, so the knowledge stays as it is.

use crate::answer::{answer_trim, implies, Verdict};
use crate::ctt::{ConditionalTreeType, Disjunction, SAtom, Sym, SymTarget};
use crate::itree::{keep_unless_changed, IncompleteTree, ItreeError, NodeInfo};
use iixml_obs::{keys, LazyCounter, LazyHistogram};
use iixml_query::{Answer, MatchKind, PsQuery, QNodeRef};
use iixml_tree::{Alphabet, DataTree, Label, Mult, Nid};
use iixml_values::IntervalSet;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Maximum `n1 * n2` for the dense pair table; larger products fall
/// back to the hash table (4M entries = 16 MiB of `u32`).
const DENSE_PAIR_LIMIT: usize = 1 << 22;

/// Refinement steps performed (all chains).
static OBS_STEPS: LazyCounter = LazyCounter::new(keys::CORE_REFINE_STEPS);
/// Steps whose pair the knowledge already implied (no product built).
static OBS_IMPLIED: LazyCounter = LazyCounter::new(keys::CORE_REFINE_IMPLIED);
/// Size of each `T_{q,A}` built by [`query_answer_tree`].
static OBS_TQA_SIZE: LazyHistogram = LazyHistogram::new(keys::CORE_REFINE_TQA_SIZE);
/// Atoms emitted per `⋊⋉` join of two multiplicity atoms.
static OBS_JOIN_FANOUT: LazyHistogram = LazyHistogram::new(keys::CORE_REFINE_JOIN_FANOUT);
/// Joins whose disjunctive expansion produced more than one atom
/// (ambiguous partner choices — the paper's unique-matching case is 1).
static OBS_EXPANSIONS: LazyCounter = LazyCounter::new(keys::CORE_REFINE_DISJUNCTIVE_EXPANSIONS);
/// Wall time of the ⋊⋉ product per step.
static OBS_INTERSECT_NS: LazyHistogram = LazyHistogram::new(keys::CORE_REFINE_INTERSECT_NS);
/// Wall time of trim per step.
static OBS_TRIM_NS: LazyHistogram = LazyHistogram::new(keys::CORE_REFINE_TRIM_NS);
/// Wall time of bisimulation minimization per step.
static OBS_MINIMIZE_NS: LazyHistogram = LazyHistogram::new(keys::CORE_REFINE_MINIMIZE_NS);
/// Size of the maintained incomplete tree after each step.
static OBS_STEP_SIZE: LazyHistogram = LazyHistogram::new(keys::CORE_REFINE_STEP_SIZE);

/// Builds `T_{q,A}` (Lemma 3.2): the unambiguous incomplete tree whose
/// `rep` is exactly the set of data trees on which `q` returns `A`.
///
/// `alpha` supplies the full element alphabet Σ (the construction's
/// "else" entries quantify over all of Σ, which is why the paper's
/// complexity bound is `O((|q| + |A|) · |Σ|)`).
///
/// Fails with [`ItreeError::MissingProvenance`] when an answer node has
/// no recorded match provenance — impossible for answers produced by
/// [`PsQuery::eval`], but reachable when the answer was shipped by an
/// untrusted source (truncated or fabricated answers).
pub fn query_answer_tree(
    q: &PsQuery,
    ans: &Answer,
    alpha: &Alphabet,
) -> Result<IncompleteTree, ItreeError> {
    let labels: Vec<Label> = alpha.labels().collect();
    let mut ty = ConditionalTreeType::new();

    // τ_a for every a in Σ: anything-goes subtree rooted with label a.
    let any: HashMap<Label, Sym> = labels
        .iter()
        .map(|&l| {
            let s = ty.add_symbol(SymTarget::Lab(l), IntervalSet::all());
            (l, s)
        })
        .collect();
    let all_star = SAtom::new(labels.iter().map(|&l| (any[&l], Mult::Star)).collect());
    // One shared µ for every τ_a, τ̄_m, and unexplored answer node: the
    // anything-goes atom is O(|Σ|) large and referenced O(|Σ| + |q| + |A|)
    // times, so sharing it turns a quadratic allocation site into a
    // constant one.
    let all_star_mu = Arc::new(Disjunction::single(all_star.clone()));
    for &l in &labels {
        ty.set_mu_shared(any[&l], all_star_mu.clone());
    }

    // τ̄_m and τ̂_m for every query node m.
    let qnodes = q.preorder();
    let mut bar: HashMap<QNodeRef, Sym> = HashMap::new();
    let mut hat: HashMap<QNodeRef, Sym> = HashMap::new();
    for &m in qnodes {
        let b = ty.add_symbol(SymTarget::Lab(q.label(m)), q.cond_set(m).complement());
        ty.set_mu_shared(b, all_star_mu.clone());
        bar.insert(m, b);
        if !q.children(m).is_empty() {
            let h = ty.add_symbol(SymTarget::Lab(q.label(m)), q.cond_set(m).clone());
            hat.insert(m, h);
        }
    }
    // µ(τ̂_m) = ∨_i  τ̄_{m_i}⋆ τ̂_{m_i}⋆ · (τ_a⋆ for a ≠ λ(m_i)):
    // below this node, the subquery of at least one child m_i matches
    // nothing.
    for (&m, &h) in &hat {
        let mut atoms = Vec::with_capacity(q.children(m).len());
        for &mi in q.children(m) {
            let mut entries: Vec<(Sym, Mult)> = Vec::with_capacity(labels.len() + 1);
            entries.push((bar[&mi], Mult::Star));
            if let Some(&hi) = hat.get(&mi) {
                entries.push((hi, Mult::Star));
            }
            for &l in &labels {
                if l != q.label(mi) {
                    entries.push((any[&l], Mult::Star));
                }
            }
            atoms.push(SAtom::new(entries));
        }
        ty.set_mu(h, Disjunction(atoms));
    }

    // τ_n for every answer node, plus the data-node table.
    let mut nodes: BTreeMap<Nid, NodeInfo> = BTreeMap::new();
    let mut node_sym: HashMap<Nid, Sym> = HashMap::new();
    if let Some(a) = &ans.tree {
        for r in a.preorder() {
            let nid = a.nid(r);
            nodes.insert(
                nid,
                NodeInfo {
                    label: a.label(r),
                    value: a.value(r),
                },
            );
            let s = ty.add_symbol(SymTarget::Node(nid), IntervalSet::eq(a.value(r)));
            node_sym.insert(nid, s);
        }
        for r in a.preorder() {
            let nid = a.nid(r);
            let s = node_sym[&nid];
            let kind = ans
                .provenance
                .get(&nid)
                .copied()
                .ok_or(ItreeError::MissingProvenance(nid))?;
            // Indexing is safe: node_sym holds every node of `a` (both
            // maps were filled from the same preorder walk just above).
            let kid_entries: Vec<(Sym, Mult)> = a
                .children(r)
                .iter()
                .map(|&c| (node_sym[&a.nid(c)], Mult::One))
                .collect();
            let mu = match kind {
                // The whole subtree was extracted (the node descends
                // from a barred match, or is itself a barred match):
                // children are exactly those present in A.
                MatchKind::BarDescendant(_) => {
                    Arc::new(Disjunction::single(SAtom::new(kid_entries)))
                }
                MatchKind::Matched(m) if q.barred(m) => {
                    Arc::new(Disjunction::single(SAtom::new(kid_entries)))
                }
                MatchKind::Matched(m) if q.children(m).is_empty() => {
                    // The query did not explore below this node.
                    all_star_mu.clone()
                }
                MatchKind::Matched(m) => {
                    let mut entries = kid_entries;
                    let qkid_labels: Vec<Label> =
                        q.children(m).iter().map(|&mi| q.label(mi)).collect();
                    for &mi in q.children(m) {
                        entries.push((bar[&mi], Mult::Star));
                        if let Some(&hi) = hat.get(&mi) {
                            entries.push((hi, Mult::Star));
                        }
                    }
                    for &l in &labels {
                        if !qkid_labels.contains(&l) {
                            entries.push((any[&l], Mult::Star));
                        }
                    }
                    Arc::new(Disjunction::single(SAtom::new(entries)))
                }
            };
            ty.set_mu_shared(s, mu);
        }
        ty.add_root(node_sym[&a.nid(a.root())]);
    } else {
        // Empty answer: the root either has the wrong label (τ_a for
        // a ≠ λ(r)), violates the root condition (τ̄_r), or satisfies it
        // but the pattern fails below (τ̂_r).
        let r = q.root();
        ty.add_root(bar[&r]);
        if let Some(&h) = hat.get(&r) {
            ty.add_root(h);
        }
        for &l in &labels {
            if l != q.label(r) {
                ty.add_root(any[&l]);
            }
        }
    }

    // Infallible by construction: every node-targeted symbol was created
    // from a node inserted into `nodes` in the same loop.
    let t = IncompleteTree::new(nodes, ty).expect("construction references only answer nodes");
    OBS_TQA_SIZE.observe(t.size() as u64);
    Ok(t)
}

/// The meet of two multiplicities as occurrence-count bounds.
fn meet_bounds(a: Mult, b: Mult) -> (bool, bool) {
    // (mandatory, bounded-to-one)
    (
        a.mandatory() || b.mandatory(),
        !a.repeatable() || !b.repeatable(),
    )
}

fn mult_from(mandatory: bool, bounded: bool) -> Mult {
    match (mandatory, bounded) {
        (true, true) => Mult::One,
        (true, false) => Mult::Plus,
        (false, true) => Mult::Opt,
        (false, false) => Mult::Star,
    }
}

/// Product-table slot of a pair never probed.
const UNPROBED: u32 = u32::MAX;
/// Product-table slot of a pair that can type no node.
const INCOMPATIBLE: u32 = u32::MAX - 1;

/// The pair table of one `intersect` call: maps `(s1, s2)` to the
/// pair's discovery id, or to [`UNPROBED`] / [`INCOMPATIBLE`]. Dense
/// (one flat `u32` vector indexed by `s1.ix() * n2 + s2.ix()`) whenever
/// the pair space fits [`DENSE_PAIR_LIMIT`] — the ⋊⋉ join probes this
/// table for every entry pair of every atom pair, and an array load
/// beats a hash per probe by an order of magnitude. Oversized products
/// fall back to the hash map (keyed lookups only; nothing iterates it).
enum PairTable {
    Dense { n2: usize, slots: Vec<u32> },
    Sparse(HashMap<(Sym, Sym), u32>),
}

impl PairTable {
    fn for_sizes(n1: usize, n2: usize) -> PairTable {
        if n1.saturating_mul(n2) <= DENSE_PAIR_LIMIT {
            PairTable::Dense {
                n2: n2.max(1),
                slots: vec![UNPROBED; n1 * n2],
            }
        } else {
            PairTable::Sparse(HashMap::new())
        }
    }

    fn set(&mut self, s1: Sym, s2: Sym, v: u32) {
        match self {
            PairTable::Dense { n2, slots } => {
                if let Some(slot) = slots.get_mut(s1.ix() * *n2 + s2.ix()) {
                    *slot = v;
                }
            }
            PairTable::Sparse(map) => {
                map.insert((s1, s2), v);
            }
        }
    }

    #[inline]
    fn get(&self, s1: Sym, s2: Sym) -> u32 {
        match self {
            PairTable::Dense { n2, slots } => slots
                .get(s1.ix() * *n2 + s2.ix())
                .copied()
                .unwrap_or(INCOMPATIBLE),
            PairTable::Sparse(map) => map.get(&(s1, s2)).copied().unwrap_or(UNPROBED),
        }
    }
}

/// What pairing needs to know about one symbol, looked up once per
/// `intersect` call rather than once per probed pair (a data node's
/// label and membership are `BTreeMap` lookups).
#[derive(Clone, Copy)]
struct Pairing {
    /// The symbol's own target.
    target: SymTarget,
    /// The label of the nodes the symbol types (`λ(n)` for a data node).
    label: Option<Label>,
    /// For a node target: does the other tree know that node too?
    known_to_other: bool,
}

fn pairings(t: &IncompleteTree, other: &IncompleteTree) -> Vec<Pairing> {
    let ty = t.ty();
    ty.syms()
        .map(|s| {
            let target = ty.info(s).target;
            let (label, known_to_other) = match target {
                SymTarget::Lab(l) => (Some(l), false),
                SymTarget::Node(n) => (
                    t.node_info(n).map(|i| i.label),
                    other.nodes().contains_key(&n),
                ),
            };
            Pairing {
                target,
                label,
                known_to_other,
            }
        })
        .collect()
}

/// The product symbols of one `intersect` call, discovered on demand:
/// a pair gets a discovery id the first time the ⋊⋉ join probes it and
/// finds it compatible (targets agree, conditions overlap), and is
/// explored once an emitted atom (or the root list) mentions it.
struct Product<'a> {
    ty1: &'a ConditionalTreeType,
    ty2: &'a ConditionalTreeType,
    pairing1: Vec<Pairing>,
    pairing2: Vec<Pairing>,
    table: PairTable,
    /// `(s1, s2)` and the pair's target, by discovery id.
    pairs: Vec<(Sym, Sym, SymTarget)>,
    /// By discovery id: already on the exploration stack (reachable).
    queued: Vec<bool>,
}

impl Product<'_> {
    /// The specialization target of the pair `(s1, s2)`, or `None` when
    /// no node can carry both symbols.
    fn target(&self, s1: Sym, s2: Sym) -> Option<SymTarget> {
        let (p1, p2) = (self.pairing1[s1.ix()], self.pairing2[s2.ix()]);
        if p1.label != p2.label {
            return None;
        }
        match (p1.target, p2.target) {
            (SymTarget::Lab(a), SymTarget::Lab(_)) => Some(SymTarget::Lab(a)),
            (SymTarget::Node(n), SymTarget::Node(m)) => (n == m).then_some(SymTarget::Node(n)),
            // A node of one side pairs with a label of the other only
            // when the other side does not know the node: in its rep
            // that node is an ordinary node of that label.
            (SymTarget::Node(n), SymTarget::Lab(_)) => {
                (!p1.known_to_other).then_some(SymTarget::Node(n))
            }
            (SymTarget::Lab(_), SymTarget::Node(m)) => {
                (!p2.known_to_other).then_some(SymTarget::Node(m))
            }
        }
    }

    /// The discovery id of `(s1, s2)`, or `None` when the pair can type
    /// no node.
    fn probe(&mut self, s1: Sym, s2: Sym) -> Option<Sym> {
        match self.table.get(s1, s2) {
            INCOMPATIBLE => None,
            UNPROBED => {
                let target = self
                    .target(s1, s2)
                    .filter(|_| (self.ty1.info(s1).cond).overlaps(&self.ty2.info(s2).cond));
                let Some(target) = target else {
                    self.table.set(s1, s2, INCOMPATIBLE);
                    return None;
                };
                let id = self.pairs.len() as u32;
                self.table.set(s1, s2, id);
                self.pairs.push((s1, s2, target));
                self.queued.push(false);
                Some(Sym(id))
            }
            id => Some(Sym(id)),
        }
    }

    /// Marks the pair `p` reachable, pushing it on `stack` the first
    /// time.
    fn reach(&mut self, p: Sym, stack: &mut Vec<Sym>) {
        if !std::mem::replace(&mut self.queued[p.ix()], true) {
            stack.push(p);
        }
    }
}

/// Scratch arena for the ⋊⋉ join: every buffer the join needs per atom
/// pair (and per emitted combination), allocated once per `intersect`
/// call and reused across all product symbols. The buffers carry no
/// state between items — each use starts with `clear()` — so reuse
/// cannot affect results, only allocator traffic.
#[derive(Default)]
struct JoinScratch {
    pairs: Vec<(usize, usize, Sym)>,
    constraints: Vec<Constraint>,
    included: Vec<bool>,
    designated: Vec<bool>,
    choice: Vec<Option<usize>>,
}

/// Intersection of two incomplete trees (Lemma 3.3):
/// `rep(result) = rep(t1) ∩ rep(t2)`.
///
/// The product is built from the root pairs outward: a pair is explored
/// only once the root list or an atom the ⋊⋉ join emits mentions it.
/// Symbols are then numbered in ascending `(s1, s2)` order, so the
/// result is exactly [`intersect_reference`]'s full product restricted
/// to its root-reachable symbols (the symbols `trim()` could keep), and
/// its `trim()` is byte-identical.
///
/// Fails with [`ItreeError::IncompatibleNode`] when the trees disagree on
/// a shared data node's label or value (in which case the intersection is
/// empty anyway — the paper assumes compatibility).
pub fn intersect(t1: &IncompleteTree, t2: &IncompleteTree) -> Result<IncompleteTree, ItreeError> {
    // Union the data nodes, checking compatibility. Clone the larger
    // side and fold the smaller one in, so the refinement loop (which
    // intersects a shrinking tree with a fresh product each round) never
    // rehashes the big map.
    let (base, other) = if t1.nodes().len() >= t2.nodes().len() {
        (t1, t2)
    } else {
        (t2, t1)
    };
    let mut nodes = base.nodes().clone();
    for (&n, &info) in other.nodes() {
        match nodes.get(&n) {
            Some(&prev) if prev != info => return Err(ItreeError::IncompatibleNode(n)),
            _ => {
                nodes.insert(n, info);
            }
        }
    }

    let (ty1, ty2) = (t1.ty(), t2.ty());
    let mut product = Product {
        ty1,
        ty2,
        pairing1: pairings(t1, t2),
        pairing2: pairings(t2, t1),
        table: PairTable::for_sizes(ty1.sym_count(), ty2.sym_count()),
        pairs: Vec::new(),
        queued: Vec::new(),
    };
    let mut stack: Vec<Sym> = Vec::new();
    let mut roots: Vec<Sym> = Vec::new();
    for &r1 in ty1.roots() {
        for &r2 in ty2.roots() {
            if let Some(p) = product.probe(r1, r2) {
                roots.push(p);
                product.reach(p, &mut stack);
            }
        }
    }

    // Explore: the µ of each reachable pair is the union over disjunct
    // pairs of the joined atoms (the hot inner loop of Algorithm
    // Refine), computed with one reused scratch arena; every pair an
    // emitted atom mentions is reachable too.
    let mut scratch = JoinScratch::default();
    let mut mus: Vec<Vec<Joined>> = Vec::new();
    while let Some(p) = stack.pop() {
        let (s1, s2, _) = product.pairs[p.ix()];
        let mu = pair_mu(&mut product, s1, s2, &mut scratch);
        for &(c, _) in mu.iter().flatten() {
            product.reach(c, &mut stack);
        }
        mus.resize_with(product.pairs.len(), Vec::new);
        mus[p.ix()] = mu;
    }

    // Number the reachable pairs in ascending (s1, s2) order — the
    // order the full product would give them — and rewrite every µ from
    // discovery ids to those numbers.
    let mut order: Vec<Sym> = (0..product.pairs.len() as u32)
        .map(Sym)
        .filter(|p| product.queued[p.ix()])
        .collect();
    order.sort_unstable_by_key(|p| {
        let (s1, s2, _) = product.pairs[p.ix()];
        (s1, s2)
    });
    let mut number: Vec<Sym> = vec![Sym(u32::MAX); product.pairs.len()];
    let mut ty = ConditionalTreeType::new();
    for &p in &order {
        let (s1, s2, target) = product.pairs[p.ix()];
        let cond = ty1.info(s1).cond.intersect(&ty2.info(s2).cond);
        number[p.ix()] = ty.add_symbol(target, cond);
    }
    for &p in &order {
        let mut atoms: Vec<SAtom> = std::mem::take(&mut mus[p.ix()])
            .into_iter()
            .map(|mut entries| {
                entries.iter_mut().for_each(|e| e.0 = number[e.0.ix()]);
                SAtom::new(entries)
            })
            .collect();
        atoms.sort_by(|x, y| x.entries().iter().cmp(y.entries().iter()));
        atoms.dedup();
        ty.set_mu(number[p.ix()], Disjunction(atoms));
    }
    let mut roots: Vec<Sym> = roots.into_iter().map(|p| number[p.ix()]).collect();
    roots.sort_unstable();
    roots.dedup();
    ty.set_roots(roots);

    IncompleteTree::new(nodes, ty)
}

/// One atom emitted by the ⋊⋉ join, over discovery ids. Its entries
/// come in ascending `(s1, s2)` order of their pairs (the join walks
/// both input atoms in their sorted order), so they are sorted once the
/// pairs are numbered in that order.
type Joined = Vec<(Sym, Mult)>;

/// µ of one product symbol: the ⋊⋉ join over all atom pairs of the two
/// input µ's, over discovery ids (sorted and deduplicated once
/// numbered).
fn pair_mu(product: &mut Product<'_>, s1: Sym, s2: Sym, scratch: &mut JoinScratch) -> Vec<Joined> {
    let (ty1, ty2) = (product.ty1, product.ty2);
    let mut atoms: Vec<Joined> = Vec::new();
    for a1 in ty1.mu(s1).atoms() {
        for a2 in ty2.mu(s2).atoms() {
            join_atoms(a1, a2, product, scratch, &mut atoms);
        }
    }
    atoms
}

/// The pre-interning structural intersection, preserved verbatim:
/// hash-table pair lookups, per-pair task scheduling, per-call
/// allocation of every join buffer. Kept as (a) the equivalence oracle
/// for `tests/intern_equiv.rs` — the table-driven path must serialize
/// byte-identically to this one — and (b) the "pre" row of the
/// `cpubench` group, so the committed speedup is measured against the
/// real old code.
pub fn intersect_reference(
    t1: &IncompleteTree,
    t2: &IncompleteTree,
) -> Result<IncompleteTree, ItreeError> {
    let (base, other) = if t1.nodes().len() >= t2.nodes().len() {
        (t1, t2)
    } else {
        (t2, t1)
    };
    let mut nodes = base.nodes().clone();
    for (&n, &info) in other.nodes() {
        match nodes.get(&n) {
            Some(&prev) if prev != info => return Err(ItreeError::IncompatibleNode(n)),
            _ => {
                nodes.insert(n, info);
            }
        }
    }

    let (ty1, ty2) = (t1.ty(), t2.ty());
    let mut ty = ConditionalTreeType::new();
    let mut pair_of: HashMap<(Sym, Sym), Sym> = HashMap::new();

    for s1 in ty1.syms() {
        for s2 in ty2.syms() {
            let i1 = ty1.info(s1);
            let i2 = ty2.info(s2);
            let target = match (i1.target, i2.target) {
                (SymTarget::Lab(a), SymTarget::Lab(b)) if a == b => SymTarget::Lab(a),
                (SymTarget::Node(n), SymTarget::Node(m)) if n == m => SymTarget::Node(n),
                (SymTarget::Node(n), SymTarget::Lab(b)) => {
                    if t2.nodes().contains_key(&n) || t1.node_info(n).map(|i| i.label) != Some(b) {
                        continue;
                    }
                    SymTarget::Node(n)
                }
                (SymTarget::Lab(a), SymTarget::Node(m)) => {
                    if t1.nodes().contains_key(&m) || t2.node_info(m).map(|i| i.label) != Some(a) {
                        continue;
                    }
                    SymTarget::Node(m)
                }
                _ => continue,
            };
            let cond = i1.cond.intersect(&i2.cond);
            if cond.is_empty() {
                continue;
            }
            let p = ty.add_symbol(target, cond);
            pair_of.insert((s1, s2), p);
        }
    }

    // The pair table is a HashMap, so never iterate it directly: sort
    // the keys once and drive every pass off that.
    let mut keys: Vec<(Sym, Sym)> = Vec::with_capacity(pair_of.len());
    keys.extend(pair_of.keys().copied());
    keys.sort_unstable();

    for &(s1, s2) in &keys {
        if ty1.roots().contains(&s1) && ty2.roots().contains(&s2) {
            ty.add_root(pair_of[&(s1, s2)]);
        }
    }

    let mus: Vec<Disjunction> = keys
        .iter()
        .map(|&(s1, s2)| {
            let mut atoms: Vec<SAtom> = Vec::new();
            for a1 in ty1.mu(s1).atoms() {
                for a2 in ty2.mu(s2).atoms() {
                    join_atoms_reference(a1, a2, &pair_of, &mut atoms);
                }
            }
            atoms.sort_by(|x, y| x.entries().iter().cmp(y.entries().iter()));
            atoms.dedup();
            Disjunction(atoms)
        })
        .collect();
    for (&(s1, s2), mu) in keys.iter().zip(mus) {
        ty.set_mu(pair_of[&(s1, s2)], mu);
    }

    IncompleteTree::new(nodes, ty)
}

/// One constrained entry of a ⋊⋉ join: bounded (`1`/`?`) or mandatory
/// (`1`/`+`) on one side, constraining the total count across all pairs
/// containing that entry.
#[derive(Clone, Copy)]
struct Constraint {
    side1: bool,
    idx: usize,
    mandatory: bool,
    bounded: bool,
}

/// An entry pair of the ⋊⋉ join, viewed by its two entry indices. The
/// shipping path carries the cached product symbol alongside; the
/// preserved reference path carries the bare indices.
trait PairIj: Copy {
    fn ij(self) -> (usize, usize);
}

impl PairIj for (usize, usize) {
    fn ij(self) -> (usize, usize) {
        self
    }
}

impl PairIj for (usize, usize, Sym) {
    fn ij(self) -> (usize, usize) {
        (self.0, self.1)
    }
}

/// choice[c] = Some(pair index) designated for constraint c, or None
/// (allowed only for non-mandatory constraints).
fn join_recurse<P: PairIj>(
    cs: &[Constraint],
    k: usize,
    pairs: &[P],
    choice: &mut Vec<Option<usize>>,
    emit: &mut dyn FnMut(&[Option<usize>]),
) {
    if k == cs.len() {
        emit(choice);
        return;
    }
    let c = cs[k];
    let mut any = false;
    for (pi, p) in pairs.iter().enumerate() {
        let (i, j) = p.ij();
        let on_entry = if c.side1 { i == c.idx } else { j == c.idx };
        if on_entry {
            any = true;
            choice.push(Some(pi));
            join_recurse(cs, k + 1, pairs, choice, emit);
            choice.pop();
        }
    }
    if !c.mandatory || !any {
        // A bounded-but-optional entry may host no child at all; a
        // mandatory entry with no partner makes the join empty (we
        // simply emit nothing down this branch).
        if !c.mandatory {
            choice.push(None);
            join_recurse(cs, k + 1, pairs, choice, emit);
            choice.pop();
        }
    }
}

/// Joins two multiplicity atoms (the `⋊⋉` of Lemma 3.3), appending the
/// resulting atoms (possibly several, possibly none) to `out`.
///
/// A child of the combined node must be typeable on both sides, so the
/// joined atom ranges over compatible entry pairs. Entries that are
/// bounded (`1`/`?`) or mandatory (`1`/`+`) on one side constrain the
/// *total* count across all pairs containing that entry, which a single
/// atom cannot express when an entry has several compatible partners; we
/// therefore expand disjunctively over the choice of partner. On
/// unambiguous trees every choice set is a singleton and the expansion
/// degenerates to the paper's single joined atom.
///
/// All working buffers live in `scratch` so one `intersect` joining
/// thousands of atom pairs allocates each of them once; every use
/// starts from `clear()`, so reuse is invisible in the output.
fn join_atoms(
    a1: &SAtom,
    a2: &SAtom,
    product: &mut Product<'_>,
    scratch: &mut JoinScratch,
    out: &mut Vec<Joined>,
) {
    let JoinScratch {
        pairs,
        constraints,
        included,
        designated,
        choice,
    } = scratch;
    // All compatible pairs, with partner lists per side entry. The
    // product symbol is probed once here and carried along, so the emit
    // pass never touches the table again.
    pairs.clear();
    for (i, &(c1, _)) in a1.entries().iter().enumerate() {
        for (j, &(c2, _)) in a2.entries().iter().enumerate() {
            if let Some(p) = product.probe(c1, c2) {
                pairs.push((i, j, p));
            }
        }
    }
    // Constrained entries: bounded or mandatory on either side.
    constraints.clear();
    for (i, &(_, m)) in a1.entries().iter().enumerate() {
        if m.mandatory() || !m.repeatable() {
            constraints.push(Constraint {
                side1: true,
                idx: i,
                mandatory: m.mandatory(),
                bounded: !m.repeatable(),
            });
        }
    }
    for (j, &(_, m)) in a2.entries().iter().enumerate() {
        if m.mandatory() || !m.repeatable() {
            constraints.push(Constraint {
                side1: false,
                idx: j,
                mandatory: m.mandatory(),
                bounded: !m.repeatable(),
            });
        }
    }

    let a1e = a1.entries();
    let a2e = a2.entries();
    let before = out.len();
    // Reborrow immutably so the emit closure can capture the flag
    // buffers mutably alongside them.
    let pairs: &[(usize, usize, Sym)] = pairs;
    let constraints: &[Constraint] = constraints;
    let mut emit = |choice: &[Option<usize>]| {
        // Build the atom for this combination.
        // included[p]: pair participates; designated[p]: lower bound 1.
        included.clear();
        included.resize(pairs.len(), true);
        designated.clear();
        designated.resize(pairs.len(), false);
        for (c, &ch) in constraints.iter().zip(choice) {
            if c.bounded {
                // Only the chosen partner (if any) survives for this
                // entry.
                for (pi, &(i, j, _)) in pairs.iter().enumerate() {
                    let on_entry = if c.side1 { i == c.idx } else { j == c.idx };
                    if on_entry && Some(pi) != ch {
                        included[pi] = false;
                    }
                }
            }
            if c.mandatory {
                if let Some(pi) = ch {
                    designated[pi] = true;
                }
            }
        }
        // Consistency: every designated pair must still be included
        // (a partner excluded by the other side's bounded choice is a
        // contradiction).
        for pi in 0..pairs.len() {
            if designated[pi] && !included[pi] {
                return;
            }
        }
        let mut entries: Vec<(Sym, Mult)> = Vec::with_capacity(pairs.len());
        for (pi, &(i, j, p)) in pairs.iter().enumerate() {
            if !included[pi] {
                continue;
            }
            let (_, m1) = a1e[i];
            let (_, m2) = a2e[j];
            let (_, bounded) = meet_bounds(m1, m2);
            let mandatory = designated[pi];
            entries.push((p, mult_from(mandatory, bounded)));
        }
        out.push(entries);
    };
    choice.clear();
    join_recurse(constraints, 0, pairs, choice, &mut emit);
    let fanout = (out.len() - before) as u64;
    OBS_JOIN_FANOUT.observe(fanout);
    if fanout > 1 {
        OBS_EXPANSIONS.incr();
    }
}

/// The pre-scratch ⋊⋉ join, preserved verbatim for
/// [`intersect_reference`]: hash-table probes and fresh buffer
/// allocations per emitted combination.
fn join_atoms_reference(
    a1: &SAtom,
    a2: &SAtom,
    pair_of: &HashMap<(Sym, Sym), Sym>,
    out: &mut Vec<SAtom>,
) {
    let mut pairs: Vec<(usize, usize)> = Vec::new(); // (idx in a1, idx in a2)
    for (i, &(c1, _)) in a1.entries().iter().enumerate() {
        for (j, &(c2, _)) in a2.entries().iter().enumerate() {
            if pair_of.contains_key(&(c1, c2)) {
                pairs.push((i, j));
            }
        }
    }
    let mut constraints: Vec<Constraint> = Vec::new();
    for (i, &(_, m)) in a1.entries().iter().enumerate() {
        if m.mandatory() || !m.repeatable() {
            constraints.push(Constraint {
                side1: true,
                idx: i,
                mandatory: m.mandatory(),
                bounded: !m.repeatable(),
            });
        }
    }
    for (j, &(_, m)) in a2.entries().iter().enumerate() {
        if m.mandatory() || !m.repeatable() {
            constraints.push(Constraint {
                side1: false,
                idx: j,
                mandatory: m.mandatory(),
                bounded: !m.repeatable(),
            });
        }
    }

    let a1e = a1.entries();
    let a2e = a2.entries();
    let before = out.len();
    let mut emit = |choice: &[Option<usize>]| {
        let mut included = vec![true; pairs.len()];
        let mut designated = vec![false; pairs.len()];
        for (c, &ch) in constraints.iter().zip(choice) {
            if c.bounded {
                for (pi, &(i, j)) in pairs.iter().enumerate() {
                    let on_entry = if c.side1 { i == c.idx } else { j == c.idx };
                    if on_entry && Some(pi) != ch {
                        included[pi] = false;
                    }
                }
            }
            if c.mandatory {
                if let Some(pi) = ch {
                    designated[pi] = true;
                }
            }
        }
        for pi in 0..pairs.len() {
            if designated[pi] && !included[pi] {
                return;
            }
        }
        let mut entries: Vec<(Sym, Mult)> = Vec::with_capacity(pairs.len());
        for (pi, &(i, j)) in pairs.iter().enumerate() {
            if !included[pi] {
                continue;
            }
            let (c1, m1) = a1e[i];
            let (c2, m2) = a2e[j];
            let (_, bounded) = meet_bounds(m1, m2);
            let mandatory = designated[pi];
            entries.push((pair_of[&(c1, c2)], mult_from(mandatory, bounded)));
        }
        out.push(SAtom::new(entries));
    };
    let mut choice = Vec::new();
    join_recurse(&constraints, 0, &pairs, &mut choice, &mut emit);
    let fanout = (out.len() - before) as u64;
    OBS_JOIN_FANOUT.observe(fanout);
    if fanout > 1 {
        OBS_EXPANSIONS.incr();
    }
}

/// Maintains the incomplete tree of a Refine chain: start from the
/// zero-knowledge universal tree and refine with successive query-answer
/// pairs (Theorem 3.4), optionally folding in the source's tree type
/// (Theorem 3.5, see [`crate::type_intersect`]).
#[derive(Clone, Debug)]
pub struct Refiner {
    current: IncompleteTree,
    /// Is `current` trim? Checked once by the constructors; `refine`
    /// always leaves it trim.
    trim: bool,
    steps: usize,
    /// The known data tree of `current`, for [`Refiner::answer`] and
    /// the implied-pair check of [`Refiner::refine`]; reset whenever
    /// `current` changes.
    known: KnownTree,
}

/// The known data tree `current.data_tree()` of a [`Refiner`]. Building
/// it costs about as much as one `q(T)`, so the first Ask the dry run
/// determines goes through `q(T)` and the second builds it: knowledge
/// asked once (a cold start, or an Ask between two Fetches) never pays
/// for it, and knowledge asked again keeps it. A Refine whose answer
/// the dry run determines builds it at once, since only it can show
/// the pair is implied; a run of implied Refines then builds it once.
#[derive(Clone, Debug)]
enum KnownTree {
    /// No determined Ask of this knowledge yet.
    Unasked,
    /// One, answered through `q(T)`.
    AskedOnce,
    /// Built by the second.
    Built(Option<DataTree>),
}

impl KnownTree {
    /// The tree for a determined Ask, built by `build` on the second;
    /// `None` on the first, and when the knowledge has no data tree.
    fn for_ask(&mut self, build: impl FnOnce() -> Option<DataTree>) -> Option<&DataTree> {
        if let KnownTree::Unasked = self {
            *self = KnownTree::AskedOnce;
            return None;
        }
        self.built(build)
    }

    /// The tree, built by `build` unless it already was; `None` when the
    /// knowledge has no data tree.
    fn built(&mut self, build: impl FnOnce() -> Option<DataTree>) -> Option<&DataTree> {
        if !matches!(self, KnownTree::Built(_)) {
            *self = KnownTree::Built(build());
        }
        match self {
            KnownTree::Built(tree) => tree.as_ref(),
            _ => None,
        }
    }
}

/// `t` as a trim tree: borrowed when `trim` says it already is.
fn trim_view(t: &IncompleteTree, trim: bool) -> Cow<'_, IncompleteTree> {
    if trim {
        Cow::Borrowed(t)
    } else {
        t.trimmed()
    }
}

impl Refiner {
    /// Starts a chain knowing nothing: `rep` = all trees over `alpha`.
    ///
    /// The alphabet must already contain every label the *source
    /// document* can use (labels interned later — e.g. by queries probing
    /// names absent from the source — are harmless: the chain correctly
    /// records that no such nodes exist).
    pub fn new(alpha: &Alphabet) -> Refiner {
        let labels: Vec<Label> = alpha.labels().collect();
        Refiner::from_tree(IncompleteTree::universal(&labels))
    }

    /// Starts a chain from an existing incomplete tree.
    pub fn from_tree(t: IncompleteTree) -> Refiner {
        Refiner {
            trim: t.is_trim(),
            current: t,
            steps: 0,
            known: KnownTree::Unasked,
        }
    }

    /// The current incomplete tree.
    pub fn current(&self) -> &IncompleteTree {
        &self.current
    }

    /// Number of refinement steps performed.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// One step of Algorithm Refine:
    /// `T ← minimize(trim(T ∩ T_{q,A}))`. Minimization (bisimulation
    /// merging, see [`crate::minimize`]) is `rep`-preserving and keeps
    /// benign chains — in particular those aided by Proposition 3.13's
    /// auxiliary queries — polynomial.
    ///
    /// When the knowledge already implies the pair (every represented
    /// world answers `q` with `ans`, so `rep(T) ⊆ q⁻¹(ans)` and the step
    /// would leave `rep` as it is), the knowledge is left as it is and
    /// this returns `Ok(true)`. The decision is a function of `T`, `q`
    /// and `ans` alone, so a journal replay makes the same one.
    pub fn refine(
        &mut self,
        alpha: &Alphabet,
        q: &PsQuery,
        ans: &Answer,
    ) -> Result<bool, ItreeError> {
        let implied = {
            let trimmed = trim_view(&self.current, self.trim);
            let known = &mut self.known;
            implies(&trimmed, q, ans, || {
                known.built(|| trimmed.data_tree_of_trim())
            })
        };
        if implied {
            OBS_IMPLIED.incr();
            self.count_step();
            return Ok(true);
        }
        let tqa = query_answer_tree(q, ans, alpha)?;
        let combined = {
            let _span = OBS_INTERSECT_NS.time();
            intersect(&self.current, &tqa)?
        };
        // Trim and minimize rebuild only when they change something;
        // otherwise the product itself moves on.
        let trimmed = {
            let _span = OBS_TRIM_NS.time();
            keep_unless_changed(combined, IncompleteTree::trimmed)
        };
        self.current = {
            let _span = OBS_MINIMIZE_NS.time();
            keep_unless_changed(trimmed, IncompleteTree::minimized)
        };
        debug_assert!(self.current.is_trim(), "Refine leaves its knowledge trim");
        self.trim = true;
        self.known = KnownTree::Unasked;
        self.count_step();
        Ok(false)
    }

    fn count_step(&mut self) {
        self.steps += 1;
        OBS_STEPS.incr();
        OBS_STEP_SIZE.observe(self.current.size() as u64);
    }

    /// The data tree `T_d` accumulated so far (the known prefix of the
    /// source document).
    pub fn data_tree(&self) -> Option<DataTree> {
        self.current.data_tree()
    }

    /// Answers `q` from the knowledge alone (Section 3.3). When
    /// [`IncompleteTree::determination`] shows the answer is fixed, it
    /// is `q` on the known data tree, which the second such Ask of this
    /// knowledge builds and later ones reuse; otherwise, and on the
    /// first, this builds `q(T)` and decides on it, as
    /// [`Verdict::from_answer_type`] does.
    pub fn answer(&mut self, q: &PsQuery) -> Verdict {
        let trimmed = trim_view(&self.current, self.trim);
        let known = &mut self.known;
        answer_trim(&trimmed, q, || {
            known.for_ask(|| trimmed.data_tree_of_trim())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::type_intersect::restrict_to_type;
    use iixml_query::PsQueryBuilder;
    use iixml_tree::{NidGen, TreeTypeBuilder};
    use iixml_values::{Cond, Rat};

    /// A tiny source: root(=0) with children a(=1), a(=5), b(=2).
    fn source(alpha: &mut Alphabet) -> DataTree {
        let r = alpha.intern("root");
        let a = alpha.intern("a");
        let b = alpha.intern("b");
        let mut t = DataTree::new(Nid(0), r, Rat::ZERO);
        t.add_child(t.root(), Nid(1), a, Rat::from(1)).unwrap();
        t.add_child(t.root(), Nid(2), a, Rat::from(5)).unwrap();
        t.add_child(t.root(), Nid(3), b, Rat::from(2)).unwrap();
        t
    }

    fn q_a_lt(alpha: &mut Alphabet, bound: i64) -> PsQuery {
        let mut bld = PsQueryBuilder::new(alpha, "root", Cond::True);
        let root = bld.root();
        bld.child(root, "a", Cond::lt(Rat::from(bound))).unwrap();
        bld.build()
    }

    #[test]
    fn tqa_inverse_image_contains_source() {
        let mut alpha = Alphabet::new();
        let t = source(&mut alpha);
        let q = q_a_lt(&mut alpha, 3);
        let ans = q.eval(&t);
        assert_eq!(ans.len(), 2); // root + a(=1)
        let tqa = query_answer_tree(&q, &ans, &alpha).unwrap();
        assert!(tqa.well_formed().is_ok());
        assert!(tqa.contains(&t), "the source itself must be in q^-1(A)");
    }

    #[test]
    fn tqa_rejects_trees_with_different_answers() {
        let mut alpha = Alphabet::new();
        let t = source(&mut alpha);
        let q = q_a_lt(&mut alpha, 3);
        let ans = q.eval(&t);
        let tqa = query_answer_tree(&q, &ans, &alpha).unwrap();

        // A tree with an extra a(=2) child would have answered with an
        // extra node: not in q^-1(A).
        let mut t2 = t.clone();
        t2.add_child(t2.root(), Nid(9), alpha.get("a").unwrap(), Rat::from(2))
            .unwrap();
        assert!(!tqa.contains(&t2));

        // A tree missing node 1 answers with fewer nodes.
        let mut t3 = DataTree::new(Nid(0), alpha.get("root").unwrap(), Rat::ZERO);
        t3.add_child(t3.root(), Nid(2), alpha.get("a").unwrap(), Rat::from(5))
            .unwrap();
        assert!(!tqa.contains(&t3));

        // Changing a non-answer node's value (a=5 -> a=7) keeps the
        // answer identical: still in q^-1(A).
        let mut t4 = DataTree::new(Nid(0), alpha.get("root").unwrap(), Rat::ZERO);
        t4.add_child(t4.root(), Nid(1), alpha.get("a").unwrap(), Rat::from(1))
            .unwrap();
        t4.add_child(t4.root(), Nid(12), alpha.get("a").unwrap(), Rat::from(7))
            .unwrap();
        assert!(tqa.contains(&t4));
    }

    #[test]
    fn tqa_empty_answer() {
        let mut alpha = Alphabet::new();
        let t = source(&mut alpha);
        let q = q_a_lt(&mut alpha, 0); // no a < 0
        let ans = q.eval(&t);
        assert!(ans.is_empty());
        let tqa = query_answer_tree(&q, &ans, &alpha).unwrap();
        assert!(tqa.contains(&t));
        // A tree with a(= -1) would have answered nonempty.
        let mut bad = DataTree::new(Nid(0), alpha.get("root").unwrap(), Rat::ZERO);
        bad.add_child(bad.root(), Nid(5), alpha.get("a").unwrap(), Rat::from(-1))
            .unwrap();
        assert!(!tqa.contains(&bad));
        // A tree with a different root label answers empty too.
        let other = DataTree::new(Nid(0), alpha.get("b").unwrap(), Rat::ZERO);
        assert!(tqa.contains(&other));
    }

    #[test]
    fn refine_chain_narrows_rep() {
        let mut alpha = Alphabet::new();
        let t = source(&mut alpha);
        let q1 = q_a_lt(&mut alpha, 3);
        let q2 = {
            let mut bld = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
            let root = bld.root();
            bld.child(root, "b", Cond::True).unwrap();
            bld.build()
        };
        let mut refiner = Refiner::new(&alpha);
        assert!(refiner.current().contains(&t));

        let a1 = q1.eval(&t);
        refiner.refine(&alpha, &q1, &a1).unwrap();
        assert!(refiner.current().contains(&t));
        assert!(refiner.current().is_unambiguous());

        let a2 = q2.eval(&t);
        refiner.refine(&alpha, &q2, &a2).unwrap();
        let cur = refiner.current();
        assert!(cur.contains(&t), "source always remains represented");
        assert!(!cur.is_empty());
        assert_eq!(refiner.steps(), 2);

        // The accumulated data tree holds the union of both answers:
        // root, a(=1), b(=2).
        let td = refiner.data_tree().unwrap();
        assert_eq!(td.len(), 3);
        assert!(td.by_nid(Nid(1)).is_some());
        assert!(td.by_nid(Nid(3)).is_some());

        // Trees answering differently to either query are excluded.
        let mut bad = t.clone();
        bad.add_child(bad.root(), Nid(9), alpha.get("b").unwrap(), Rat::from(4))
            .unwrap();
        assert!(!cur.contains(&bad), "extra b changes q2's answer");
        let mut ok = t.clone();
        ok.add_child(ok.root(), Nid(9), alpha.get("a").unwrap(), Rat::from(10))
            .unwrap();
        assert!(cur.contains(&ok), "extra a >= 3 changes neither answer");
    }

    #[test]
    fn refine_with_incompatible_nodes_errors() {
        let mut alpha = Alphabet::new();
        let t = source(&mut alpha);
        let q = q_a_lt(&mut alpha, 3);
        let ans = q.eval(&t);
        let mut refiner = Refiner::new(&alpha);
        refiner.refine(&alpha, &q, &ans).unwrap();
        // Fake a conflicting answer: node 1 now claims value 2.
        let mut fake_tree = DataTree::new(Nid(0), alpha.get("root").unwrap(), Rat::ZERO);
        fake_tree
            .add_child(
                fake_tree.root(),
                Nid(1),
                alpha.get("a").unwrap(),
                Rat::from(2),
            )
            .unwrap();
        let fake = q.eval(&fake_tree);
        assert!(matches!(
            refiner.refine(&alpha, &q, &fake),
            Err(ItreeError::IncompatibleNode(Nid(1)))
        ));
    }

    #[test]
    fn intersection_semantics_on_witnesses() {
        let mut alpha = Alphabet::new();
        let t = source(&mut alpha);
        let q1 = q_a_lt(&mut alpha, 3);
        let q2 = q_a_lt(&mut alpha, 10);
        let t1 = query_answer_tree(&q1, &q1.eval(&t), &alpha).unwrap();
        let t2 = query_answer_tree(&q2, &q2.eval(&t), &alpha).unwrap();
        let both = intersect(&t1, &t2).unwrap().trim();
        assert!(both.contains(&t));
        // Witnesses of the intersection lie in both components.
        let w = both.witness(&mut NidGen::starting_at(100)).unwrap();
        assert!(t1.contains(&w));
        assert!(t2.contains(&w));
    }

    #[test]
    fn query_with_label_unknown_to_the_chain() {
        // A query probing a label interned after the chain started: the
        // empty answer is recorded consistently and the source stays
        // represented.
        let mut alpha = Alphabet::new();
        let t = source(&mut alpha);
        let mut refiner = Refiner::new(&alpha);
        let mut bld = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
        let broot = bld.root();
        bld.child(broot, "zzz_new_label", Cond::True).unwrap();
        let q = bld.build();
        let ans = q.eval(&t);
        assert!(ans.is_empty());
        refiner.refine(&alpha, &q, &ans).unwrap();
        assert!(refiner.current().contains(&t));
        // A hypothetical source WITH that label would have answered
        // nonempty: rightly excluded.
        let mut other = t.clone();
        let zzz = alpha.get("zzz_new_label").unwrap();
        other
            .add_child(other.root(), Nid(99), zzz, Rat::ZERO)
            .unwrap();
        assert!(!refiner.current().contains(&other));
    }

    /// The reference product cut down to the symbols its roots reach
    /// through any atom entry, in their old order (the oracle crate's
    /// `root_reachable`, which this crate cannot depend on).
    fn root_reachable(it: &IncompleteTree) -> IncompleteTree {
        let ty = it.ty();
        let mut seen = vec![false; ty.sym_count()];
        let mut stack: Vec<Sym> = ty.roots().to_vec();
        stack.iter().for_each(|r| seen[r.ix()] = true);
        while let Some(s) = stack.pop() {
            for &(c, _) in ty.mu(s).atoms().iter().flat_map(SAtom::entries) {
                if !std::mem::replace(&mut seen[c.ix()], true) {
                    stack.push(c);
                }
            }
        }
        let mut out = ConditionalTreeType::new();
        let mut number: Vec<Option<Sym>> = vec![None; ty.sym_count()];
        for s in ty.syms().filter(|s| seen[s.ix()]) {
            let info = ty.info(s);
            number[s.ix()] = Some(out.add_symbol(info.target, info.cond.clone()));
        }
        for s in ty.syms().filter(|s| seen[s.ix()]) {
            let atoms = ty.mu(s).atoms().iter().map(|a| {
                SAtom::new(
                    a.entries()
                        .iter()
                        .map(|&(c, m)| (number[c.ix()].unwrap(), m))
                        .collect(),
                )
            });
            out.set_mu(number[s.ix()].unwrap(), Disjunction(atoms.collect()));
        }
        out.set_roots(ty.roots().iter().map(|r| number[r.ix()].unwrap()).collect());
        IncompleteTree::new(it.nodes().clone(), out).unwrap()
    }

    #[test]
    fn table_driven_intersect_matches_reference() {
        // The root-driven product with its dense pair table and
        // scratch-arena join is exactly the preserved legacy product
        // restricted to its root-reachable symbols: symbol ids, conditions,
        // µ atom order, roots and data nodes included. Checked on two
        // `T_{q,A}`s and along a Refine chain whose steps include an
        // empty answer and pairs the join probes but never emits; the
        // restriction really removes symbols, and trim agrees too.
        let mut alpha = Alphabet::new();
        let t = source(&mut alpha);
        let q1 = q_a_lt(&mut alpha, 3);
        let q2 = q_a_lt(&mut alpha, 10);
        let q3 = q_a_lt(&mut alpha, 0);
        let q4 = {
            let mut bld = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
            let root = bld.root();
            bld.child(root, "b", Cond::gt(Rat::ZERO)).unwrap();
            bld.build()
        };
        let tqa = |q: &PsQuery| query_answer_tree(q, &q.eval(&t), &alpha).unwrap();
        let mut cases = vec![(tqa(&q1), tqa(&q2))];
        let mut refiner = Refiner::new(&alpha);
        for q in [&q1, &q3, &q4, &q2] {
            cases.push((refiner.current().clone(), tqa(q)));
            refiner.refine(&alpha, q, &q.eval(&t)).unwrap();
        }
        // Typed knowledge (`a → c d`) against an empty answer to
        // `root/a{c, d[= 1]}`: the "c fails" disjunct of `τ̂_a` joins to
        // nothing (`c` is mandatory), so the pair of `d` with `τ_d` it
        // probes is compatible but never emitted.
        let ty = TreeTypeBuilder::new(&mut alpha)
            .root("root")
            .rule("root", &[("a", Mult::Star)])
            .rule("a", &[("c", Mult::One), ("d", Mult::One)])
            .build()
            .unwrap();
        let q5 = {
            let mut bld = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
            let a = bld.child(bld.root(), "a", Cond::True).unwrap();
            bld.child(a, "c", Cond::True).unwrap();
            bld.child(a, "d", Cond::eq(Rat::ONE)).unwrap();
            bld.build()
        };
        let labels: Vec<Label> = alpha.labels().collect();
        let typed = restrict_to_type(&IncompleteTree::universal(&labels), &ty);
        let empty = query_answer_tree(&q5, &Answer::empty(), &alpha).unwrap();
        cases.push((typed, empty));
        let mut removed = 0;
        for (t1, t2) in &cases {
            let fast = intersect(t1, t2).unwrap();
            let full = intersect_reference(t1, t2).unwrap();
            let slow = root_reachable(&full);
            removed += full.ty().sym_count() - slow.ty().sym_count();
            assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
            assert_eq!(format!("{:?}", fast.trim()), format!("{:?}", full.trim()));
        }
        assert!(removed > 0, "no case had unreachable product symbols");
    }

    #[test]
    fn refined_tree_answers_query_consistently() {
        // Every witness of the refined tree must produce the recorded
        // answer when the query is re-evaluated (rep = q^-1(A) ∩ ...).
        let mut alpha = Alphabet::new();
        let t = source(&mut alpha);
        let q = q_a_lt(&mut alpha, 3);
        let ans = q.eval(&t);
        let mut refiner = Refiner::new(&alpha);
        refiner.refine(&alpha, &q, &ans).unwrap();
        let w = refiner
            .current()
            .witness(&mut NidGen::starting_at(500))
            .unwrap();
        let re = q.eval(&w);
        assert!(
            re.tree
                .as_ref()
                .unwrap()
                .same_tree(ans.tree.as_ref().unwrap()),
            "witness answers the query exactly as recorded"
        );
    }
}
