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

use crate::answer::{answer_trim, determination_trim, implies, Determination, Verdict};
use crate::ctt::{ConditionalTreeType, Disjunction, SAtom, Sym, SymTarget, SymbolInfo};
use crate::itree::{keep_unless_changed, IncompleteTree, ItreeError, NodeInfo};
use iixml_obs::{keys, LazyCounter, LazyHistogram};
use iixml_query::{Answer, MatchKind, PsQuery, QNodeRef};
use iixml_tree::{Alphabet, DataTree, Label, Mult, Nid};
use iixml_values::IntervalSet;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Maximum `n1 * n2` for the dense pair table; larger products fall
/// back to the hash table (4M entries = 16 MiB of `u32`).
const DENSE_PAIR_LIMIT: usize = 1 << 22;

/// Refinement steps performed (all chains).
static OBS_STEPS: LazyCounter = LazyCounter::new(keys::CORE_REFINE_STEPS);
/// Steps whose pair the knowledge already implied (no product built).
static OBS_IMPLIED: LazyCounter = LazyCounter::new(keys::CORE_REFINE_IMPLIED);
/// Steps that kept a trim product its certificate shows minimal.
static OBS_CERTIFIED: LazyCounter = LazyCounter::new(keys::CORE_REFINE_CERTIFIED);
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

/// `c1 ∩ c2`. A side that is `all`, or equal to the other side, is the
/// intersection as it stands, so only a real meet walks both sets.
fn meet_conds(c1: &IntervalSet, c2: &IntervalSet) -> IntervalSet {
    if c2.is_all() || c1 == c2 {
        c1.clone()
    } else if c1.is_all() {
        c2.clone()
    } else {
        c1.intersect(c2)
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

/// What pairing needs to know about one symbol, gathered once per
/// `intersect` call rather than once per probed pair.
#[derive(Clone, Copy)]
struct Pairing {
    /// The symbol's own target.
    target: SymTarget,
    /// The label of the nodes the symbol types (`λ(n)` for a data node).
    label: Label,
    /// For a node target: does the other tree know that node too?
    known_to_other: bool,
}

/// The pairing facts of `t`'s symbols: each one's carried label, and
/// for a node target whether `other` knows that node.
fn pairings(t: &IncompleteTree, other: &IncompleteTree) -> Vec<Pairing> {
    let ty = t.ty();
    let theirs = other.nodes();
    ty.syms()
        .map(|s| {
            let target = ty.info(s).target;
            Pairing {
                target,
                label: t.label(s),
                known_to_other: matches!(target, SymTarget::Node(n) if theirs.contains_key(&n)),
            }
        })
        .collect()
}

/// The product symbols of one `intersect` call, discovered on demand:
/// a pair gets a discovery id the first time a join probes it and
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
    /// By discovery id: the pair's condition `cond(s1) ∩ cond(s2)`,
    /// intersected once, when the pair is first probed.
    conds: Vec<IntervalSet>,
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
                let pair = self.target(s1, s2).and_then(|target| {
                    let cond = meet_conds(&self.ty1.info(s1).cond, &self.ty2.info(s2).cond);
                    (!cond.is_empty()).then_some((target, cond))
                });
                let Some((target, cond)) = pair else {
                    self.table.set(s1, s2, INCOMPATIBLE);
                    return None;
                };
                let id = self.pairs.len() as u32;
                self.table.set(s1, s2, id);
                self.pairs.push((s1, s2, target));
                self.conds.push(cond);
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

/// The atoms of `t2`'s µ's whose entries are all `⋆` and type nodes of
/// pairwise distinct labels — the `τ_a⋆ …` atom every universal `τ_a`
/// of `T_{q,A}` shares, and the atom of a fail symbol `τ̂_m` for a
/// child of `m` that is a leaf of the pattern. An entry of the other
/// side can pair only with the one entry of its own label there, so a
/// join with such an atom is a copy (see [`copy_atom`]). Found per
/// symbol the first time a pair with it is explored.
struct LabelKeyed {
    /// By `t2` symbol: where its µ's atoms start in `atoms`, once
    /// looked at.
    of_sym: Vec<Option<u32>>,
    /// By atom: its `(label, symbol)` entries' range in `entries`
    /// (sorted by label), or `None` when the atom is not label-keyed.
    atoms: Vec<Option<(u32, u32)>>,
    entries: Vec<(Label, Sym)>,
}

impl LabelKeyed {
    fn new(n2: usize) -> LabelKeyed {
        LabelKeyed {
            of_sym: vec![None; n2],
            atoms: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Where `s2`'s µ's atoms start in `atoms`.
    fn atoms_of(&mut self, s2: Sym, ty2: &ConditionalTreeType, pairing2: &[Pairing]) -> u32 {
        if let Some(first) = self.of_sym[s2.ix()] {
            return first;
        }
        let first = self.atoms.len() as u32;
        for a2 in ty2.mu(s2).atoms() {
            let start = self.entries.len();
            for &(c2, m) in a2.entries() {
                if m != Mult::Star {
                    break;
                }
                self.entries.push((pairing2[c2.ix()].label, c2));
            }
            let keys = &mut self.entries[start..];
            keys.sort_unstable();
            let keyed = keys.len() == a2.len() && keys.windows(2).all(|w| w[0].0 != w[1].0);
            if keyed {
                self.atoms
                    .push(Some((start as u32, self.entries.len() as u32)));
            } else {
                self.entries.truncate(start);
                self.atoms.push(None);
            }
        }
        self.of_sym[s2.ix()] = Some(first);
        first
    }

    /// The entries of atom `k` by label, when it is label-keyed.
    fn keys(&self, k: usize) -> Option<&[(Label, Sym)]> {
        self.atoms[k].map(|(lo, hi)| &self.entries[lo as usize..hi as usize])
    }
}

/// The atoms the joins emit, over discovery ids, back to back in one
/// arena: no allocation per atom until numbering copies each kept atom
/// out at its final size.
#[derive(Default)]
struct Emitted {
    entries: Vec<(Sym, Mult)>,
    /// Each atom's end in `entries`; it starts where the previous ends.
    ends: Vec<u32>,
    /// By discovery id: the range of the pair's atoms in `ends`.
    of_pair: Vec<(u32, u32)>,
}

impl Emitted {
    /// Where the next atom's entries start.
    fn open(&self) -> usize {
        self.ends.last().map_or(0, |&e| e as usize)
    }

    /// Ends the atom whose entries were pushed since [`open`](Self::open).
    fn close(&mut self) {
        self.ends.push(self.entries.len() as u32);
    }

    /// Atom `k`'s range in `entries`.
    fn span(&self, k: usize) -> (usize, usize) {
        let start = if k == 0 { 0 } else { self.ends[k - 1] as usize };
        (start, self.ends[k] as usize)
    }
}

/// One constrained entry of a ⋊⋉ join whose partner choice branches:
/// bounded (`1`/`?`) or mandatory (`1`/`+`), with its partner pairs in
/// `JoinScratch::partners[lo..hi]`.
#[derive(Clone, Copy)]
struct Constraint {
    mandatory: bool,
    bounded: bool,
    lo: u32,
    hi: u32,
}

impl Constraint {
    /// Choices: each partner, and no partner when not mandatory.
    fn options(self) -> u32 {
        self.hi - self.lo + u32::from(!self.mandatory)
    }
}

/// Scratch arena for the ⋊⋉ join, allocated once per `intersect` call
/// and reused for every atom pair. The buffers carry no state between
/// joins — each use starts by clearing them — so reuse cannot affect
/// results, only allocator traffic.
#[derive(Default)]
struct JoinScratch {
    /// Compatible entry pairs `(i, j, product symbol)`, in `i`-major
    /// order.
    pairs: Vec<(u32, u32, Sym)>,
    /// Where each side-1 entry's pairs start in `pairs` (plus the end).
    starts1: Vec<u32>,
    /// Where each side-2 entry's pairs start in the second half of
    /// `partners` (plus the end).
    starts2: Vec<u32>,
    /// Pair indices: `0..n` (the side-1 groups), then grouped by side-2
    /// entry.
    partners: Vec<u32>,
    /// The constraints whose choice branches, in entry order.
    branching: Vec<Constraint>,
    /// By pair: designated by a constraint with one forced choice.
    forced: Vec<bool>,
    /// The current option of each branching constraint.
    choice: Vec<u32>,
    included: Vec<bool>,
    designated: Vec<bool>,
}

/// Intersection of two incomplete trees (Lemma 3.3):
/// `rep(result) = rep(t1) ∩ rep(t2)`. [`intersect_certified`] without
/// the certificate.
pub fn intersect(t1: &IncompleteTree, t2: &IncompleteTree) -> Result<IncompleteTree, ItreeError> {
    intersect_certified(t1, t2).map(|p| p.tree)
}

/// A product of [`intersect_certified`] together with what its
/// construction shows.
#[derive(Clone, Debug)]
pub struct CertifiedProduct {
    /// The product, as [`intersect`] returns it.
    pub tree: IncompleteTree,
    /// No two symbols share a `(target, cond)` key. Every root list,
    /// atom list and atom of the product is strictly sorted by
    /// construction, so this is what [`IncompleteTree::minimized`]
    /// checks besides trimness: a trim product it certifies is minimal
    /// as it stands.
    pub minimal_if_trim: bool,
    /// Atom pairs whose ⋊⋉ join was a copy of the `t1` atom (see
    /// [`intersect_certified`]).
    pub copies: usize,
}

/// Intersection of two incomplete trees (Lemma 3.3), with its
/// certificate: `rep(result.tree) = rep(t1) ∩ rep(t2)`.
///
/// The product is built from the root pairs outward: a pair is explored
/// only once the root list or an atom a join emits mentions it.
/// Symbols are then numbered in ascending `(s1, s2)` order, so the
/// result is exactly the full product of Lemma 3.3 (`iixml-oracle`'s
/// `intersect_reference`) restricted to its root-reachable symbols (the
/// symbols `trim()` could keep), and its `trim()` is byte-identical.
///
/// Each compatible pair's condition is intersected once, when the pair
/// is first probed. A join with a `t2` atom whose entries are all `⋆`
/// with distinct labels copies the `t1` atom ([`copy_atom`]) unless that
/// atom has a `?` entry. Every root list, atom list and atom comes out
/// strictly sorted, and a cheap hash of each symbol's `(target, cond)`
/// key, taken while numbering, shows whether the keys are distinct
/// ([`CertifiedProduct::minimal_if_trim`]).
///
/// Fails with [`ItreeError::IncompatibleNode`] when the trees disagree on
/// a shared data node's label or value (in which case the intersection is
/// empty anyway — the paper assumes compatibility).
pub fn intersect_certified(
    t1: &IncompleteTree,
    t2: &IncompleteTree,
) -> Result<CertifiedProduct, ItreeError> {
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
        conds: Vec::new(),
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

    // Explore: the µ of each reachable pair is the union over atom
    // pairs of the joined atoms (the hot inner loop of Algorithm
    // Refine); every pair an emitted atom mentions is reachable too.
    let mut keyed = LabelKeyed::new(ty2.sym_count());
    let mut scratch = JoinScratch::default();
    let mut emitted = Emitted::default();
    let mut copies = 0;
    while let Some(p) = stack.pop() {
        let (s1, s2, _) = product.pairs[p.ix()];
        let first_atom = emitted.ends.len();
        let first_entry = emitted.open();
        let keyed_from = keyed.atoms_of(s2, ty2, &product.pairing2) as usize;
        for a1 in ty1.mu(s1).atoms() {
            let copyable = a1.entries().iter().all(|&(_, m)| m != Mult::Opt);
            for (k, a2) in ty2.mu(s2).atoms().iter().enumerate() {
                match keyed.keys(keyed_from + k) {
                    Some(keys) if copyable => {
                        copy_atom(a1, keys, &mut product, &mut emitted);
                        copies += 1;
                    }
                    _ => join_atoms(a1, a2, &mut product, &mut scratch, &mut emitted),
                }
            }
        }
        emitted.of_pair.resize(product.pairs.len(), (0, 0));
        emitted.of_pair[p.ix()] = (first_atom as u32, emitted.ends.len() as u32);
        for i in first_entry..emitted.entries.len() {
            product.reach(emitted.entries[i].0, &mut stack);
        }
    }

    // Number the reachable pairs in ascending (s1, s2) order — the
    // order the full product would give them — and rewrite every
    // emitted entry from discovery ids to those numbers. The joins emit
    // each atom's entries in ascending (s1, s2) order of their pairs, so
    // every atom is sorted once numbered.
    let mut order: Vec<(Sym, Sym, u32)> = (0..product.pairs.len())
        .filter(|&id| product.queued[id])
        .map(|id| {
            let (s1, s2, _) = product.pairs[id];
            (s1, s2, id as u32)
        })
        .collect();
    order.sort_unstable();
    let mut number: Vec<Sym> = vec![Sym(u32::MAX); product.pairs.len()];
    for (k, &(_, _, id)) in order.iter().enumerate() {
        number[id as usize] = Sym(k as u32);
    }
    for e in &mut emitted.entries {
        e.0 = number[e.0.ix()];
    }
    // Each symbol's µ: its pair's atoms sorted and deduplicated, each
    // copied out of the arena at its final size; every leaf symbol
    // shares one `ε` right-hand side. Symbols are built in discovery
    // order, the order their conditions and atoms were made in, into
    // their numbered slots.
    let mut slots: Vec<Option<(SymbolInfo, Arc<Disjunction>, Label)>> = vec![None; order.len()];
    let mut key_hashes: Vec<u64> = Vec::with_capacity(order.len());
    let mut leaf: Option<Arc<Disjunction>> = None;
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let entries = &emitted.entries;
    for (id, &(lo, hi)) in emitted.of_pair.iter().enumerate() {
        if !product.queued[id] {
            continue;
        }
        spans.clear();
        spans.extend((lo as usize..hi as usize).map(|a| emitted.span(a)));
        if spans.len() > 1 {
            spans.sort_unstable_by(|&(a, b), &(c, d)| entries[a..b].cmp(&entries[c..d]));
            spans.dedup_by(|&mut (a, b), &mut (c, d)| entries[a..b] == entries[c..d]);
        }
        let mu = match spans[..] {
            [(a, b)] if a == b => leaf
                .get_or_insert_with(|| Arc::new(Disjunction::leaf()))
                .clone(),
            _ => Arc::new(Disjunction(
                spans
                    .iter()
                    .map(|&(a, b)| SAtom::from_sorted(entries[a..b].to_vec()))
                    .collect(),
            )),
        };
        let (s1, _, target) = product.pairs[id];
        let cond = std::mem::take(&mut product.conds[id]);
        key_hashes.push(key_hash(target, &cond));
        // A pair's sides carry one label (see `Product::target`).
        let label = product.pairing1[s1.ix()].label;
        slots[number[id].ix()] = Some((SymbolInfo { target, cond }, mu, label));
    }
    // Every reachable pair filled its own slot.
    let mut ty = ConditionalTreeType::with_capacity(order.len());
    let mut labels = Vec::with_capacity(order.len());
    for (info, mu, label) in slots.into_iter().flatten() {
        ty.push_symbol(info, mu);
        labels.push(label);
    }
    debug_assert_eq!(ty.sym_count(), order.len(), "a numbered slot stayed empty");
    let mut roots: Vec<Sym> = roots.into_iter().map(|p| number[p.ix()]).collect();
    roots.sort_unstable();
    roots.dedup();
    ty.set_roots(roots);
    key_hashes.sort_unstable();
    let minimal_if_trim = key_hashes.windows(2).all(|w| w[0] != w[1]);

    // Every node symbol's condition is inside `{ν(n)}` already: one side
    // of its pair targets `n` and was normalized by its own tree.
    Ok(CertifiedProduct {
        tree: IncompleteTree::from_normalized(nodes, ty, labels),
        minimal_if_trim,
        copies,
    })
}

/// A 64-bit hash of a symbol's `(target, cond)` key (the FxHash
/// multiply-rotate): distinct hashes prove distinct keys, and a
/// collision only withholds the certificate.
fn key_hash(target: SymTarget, cond: &IntervalSet) -> u64 {
    let mut h = FoldHasher(0);
    (target, cond).hash(&mut h);
    h.0
}

/// The hasher of [`key_hash`].
struct FoldHasher(u64);

impl FoldHasher {
    fn fold(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.fold(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.fold(x);
    }

    fn write_usize(&mut self, x: usize) {
        self.fold(x as u64);
    }
}

/// The ⋊⋉ join of `a1` with a label-keyed atom of `t2` (see
/// [`LabelKeyed`]), whose entries `keys` lists by label: each entry of
/// `a1` has at most one partner, the entry of its label, and the keyed
/// side's `⋆` leaves its multiplicity as it is. So the join is one atom
/// that copies `a1` entry by entry — or none, when a mandatory entry
/// has no compatible partner — and an entry with no partner is left
/// out. Callers keep `?` entries away: their join emits two atoms, one
/// with the partner and one without.
fn copy_atom(a1: &SAtom, keys: &[(Label, Sym)], product: &mut Product<'_>, out: &mut Emitted) {
    let start = out.open();
    for &(c1, m1) in a1.entries() {
        let label = product.pairing1[c1.ix()].label;
        let partner = keys
            .binary_search_by_key(&label, |&(k, _)| k)
            .ok()
            .and_then(|at| product.probe(c1, keys[at].1));
        match partner {
            Some(p) => out.entries.push((p, m1)),
            None if m1.mandatory() => {
                out.entries.truncate(start);
                OBS_JOIN_FANOUT.observe(0);
                return;
            }
            None => {}
        }
    }
    out.close();
    OBS_JOIN_FANOUT.observe(1);
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
/// Each constrained entry's partners are listed once. A mandatory entry
/// without one empties the join; one with a single partner designates
/// it in every combination, and an optional entry without one has only
/// the choice of none; only the other constraints branch. The
/// combinations, and the atoms they emit, are those of the recursion
/// over every constraint that this replaces (`iixml-oracle`'s reference
/// join), in the same order.
fn join_atoms(
    a1: &SAtom,
    a2: &SAtom,
    product: &mut Product<'_>,
    s: &mut JoinScratch,
    out: &mut Emitted,
) {
    let (e1, e2) = (a1.entries(), a2.entries());
    // All compatible pairs, grouped by side-1 entry. The product symbol
    // is probed once here and carried along, so the emit pass never
    // touches the table again.
    s.pairs.clear();
    s.starts1.clear();
    for (i, &(c1, _)) in e1.iter().enumerate() {
        s.starts1.push(s.pairs.len() as u32);
        for (j, &(c2, _)) in e2.iter().enumerate() {
            if let Some(p) = product.probe(c1, c2) {
                s.pairs.push((i as u32, j as u32, p));
            }
        }
    }
    let n = s.pairs.len();
    s.starts1.push(n as u32);
    // The same pairs grouped by side-2 entry (a counting sort, stable),
    // after the identity list that the side-1 groups index.
    s.starts2.clear();
    s.starts2.resize(e2.len() + 1, 0);
    for &(_, j, _) in &s.pairs {
        s.starts2[j as usize + 1] += 1;
    }
    for j in 0..e2.len() {
        s.starts2[j + 1] += s.starts2[j];
    }
    s.partners.clear();
    s.partners.extend(0..n as u32);
    s.partners.resize(2 * n, 0);
    for (pi, &(_, j, _)) in s.pairs.iter().enumerate() {
        let slot = &mut s.starts2[j as usize];
        s.partners[n + *slot as usize] = pi as u32;
        *slot += 1;
    }
    // The fill advanced each start to the next group's: shift back.
    s.starts2.rotate_right(1);
    s.starts2[0] = 0;

    // Constrained entries: bounded or mandatory on either side.
    s.forced.clear();
    s.forced.resize(n, false);
    s.branching.clear();
    let groups1 = e1
        .iter()
        .enumerate()
        .map(|(i, &(_, m))| (m, s.starts1[i], s.starts1[i + 1]));
    let groups2 = e2.iter().enumerate().map(|(j, &(_, m))| {
        let off = n as u32;
        (m, off + s.starts2[j], off + s.starts2[j + 1])
    });
    for (m, lo, hi) in groups1.chain(groups2) {
        let (mandatory, bounded) = (m.mandatory(), !m.repeatable());
        match (hi - lo, mandatory) {
            _ if !mandatory && !bounded => {}
            (0, true) => {
                OBS_JOIN_FANOUT.observe(0);
                return;
            }
            (0, false) => {}
            (1, true) => s.forced[s.partners[lo as usize] as usize] = true,
            _ => s.branching.push(Constraint {
                mandatory,
                bounded,
                lo,
                hi,
            }),
        }
    }

    let before = out.ends.len();
    s.choice.clear();
    s.choice.resize(s.branching.len(), 0);
    loop {
        emit_combination(e1, e2, s, out);
        // The next combination: the last constraint's choice moves
        // fastest, as in the recursion.
        let mut k = s.branching.len();
        loop {
            if k == 0 {
                let fanout = (out.ends.len() - before) as u64;
                OBS_JOIN_FANOUT.observe(fanout);
                if fanout > 1 {
                    OBS_EXPANSIONS.incr();
                }
                return;
            }
            k -= 1;
            s.choice[k] += 1;
            if s.choice[k] < s.branching[k].options() {
                break;
            }
            s.choice[k] = 0;
        }
    }
}

/// Emits the atom of the join's current combination of choices, unless
/// the choices contradict each other.
fn emit_combination(
    e1: &[(Sym, Mult)],
    e2: &[(Sym, Mult)],
    s: &mut JoinScratch,
    out: &mut Emitted,
) {
    let n = s.pairs.len();
    // included[p]: pair participates; designated[p]: lower bound 1.
    s.included.clear();
    s.included.resize(n, true);
    s.designated.clone_from(&s.forced);
    for (c, &o) in s.branching.iter().zip(&s.choice) {
        let partners = &s.partners[c.lo as usize..c.hi as usize];
        let chosen = partners.get(o as usize).copied();
        if c.bounded {
            // Only the chosen partner (if any) survives for this entry.
            for &pi in partners {
                if Some(pi) != chosen {
                    s.included[pi as usize] = false;
                }
            }
        }
        if c.mandatory {
            if let Some(pi) = chosen {
                s.designated[pi as usize] = true;
            }
        }
    }
    // Consistency: every designated pair must still be included (a
    // partner excluded by the other side's bounded choice is a
    // contradiction).
    if (0..n).any(|pi| s.designated[pi] && !s.included[pi]) {
        return;
    }
    for (pi, &(i, j, p)) in s.pairs.iter().enumerate() {
        if s.included[pi] {
            let (_, bounded) = meet_bounds(e1[i as usize].1, e2[j as usize].1);
            out.entries.push((p, mult_from(s.designated[pi], bounded)));
        }
    }
    out.close();
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
        let CertifiedProduct {
            tree: combined,
            minimal_if_trim,
            ..
        } = {
            let _span = OBS_INTERSECT_NS.time();
            intersect_certified(&self.current, &tqa)?
        };
        // Trim and minimize rebuild only when they change something;
        // otherwise the product itself moves on. Trimness is checked
        // once, and only for productivity and node targets: the product
        // holds root-reachable symbols alone. A trim product whose
        // certificate shows it minimal skips minimize's own checks.
        let (trimmed, trim) = {
            let _span = OBS_TRIM_NS.time();
            if combined.is_trim_given_reachable() {
                (combined, true)
            } else {
                (combined.trim(), false)
            }
        };
        self.current = {
            let _span = OBS_MINIMIZE_NS.time();
            if trim && minimal_if_trim {
                OBS_CERTIFIED.incr();
                trimmed.keep_certified()
            } else {
                keep_unless_changed(trimmed, IncompleteTree::minimized)
            }
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

    /// [`IncompleteTree::determination`] of the current knowledge,
    /// without re-checking that it is trim: the dry run alone, as
    /// [`answer`](Self::answer) runs it first.
    pub fn determination(&self, q: &PsQuery) -> Determination {
        determination_trim(&trim_view(&self.current, self.trim), q)
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
    use iixml_query::PsQueryBuilder;
    use iixml_tree::NidGen;
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
