//! Conditional tree types (Section 2).
//!
//! A conditional tree type extends a tree type three ways: right-hand
//! sides are *disjunctions* of multiplicity atoms, every specialized
//! symbol carries a condition on data values, and a *specialization
//! mapping* σ : Σ′ → Σ ∪ N lets one element name (or one instantiated
//! data node) have several types depending on context.
//!
//! [`ConditionalTreeType`] stores the specialized alphabet Σ′ as an arena
//! of [`SymbolInfo`]s. Symbols target either an element label ([`SymTarget::Lab`])
//! or an instantiated data node ([`SymTarget::Node`]) — the latter is how
//! incomplete trees embed their data nodes into the type (Definition 2.7:
//! "instantiated nodes are also viewed as labels").
//!
//! Key algorithms here:
//! * emptiness of `rep` ([`ConditionalTreeType::is_empty`]) — the PTIME
//!   fixpoint of Lemma 2.5;
//! * useless-symbol analysis and removal ([`ConditionalTreeType::trim`])
//!   — Corollary 2.6;
//! * witness construction ([`ConditionalTreeType::witness`]) — a concrete
//!   member of `rep`, used pervasively by tests.

use iixml_tree::{Alphabet, DataTree, Label, Mult, Nid, NidGen};
use iixml_values::IntervalSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A specialized symbol (an element of the specialized alphabet Σ′).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Sym(pub u32);

impl Sym {
    /// Arena index.
    pub fn ix(self) -> usize {
        self.0 as usize
    }
}

/// What a specialized symbol maps to under σ: an element label in Σ, or
/// an instantiated data node in N.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SymTarget {
    /// σ(s) is an element label.
    Lab(Label),
    /// σ(s) is an instantiated data node.
    Node(Nid),
}

/// Metadata of one specialized symbol.
#[derive(Clone, Debug)]
pub struct SymbolInfo {
    /// The specialization target σ(s).
    pub target: SymTarget,
    /// The condition on data values of nodes typed by this symbol, in
    /// interval normal form. For node-targeted symbols this is already
    /// intersected with the singleton `{ν(n)}` by [`crate::IncompleteTree`].
    pub cond: IntervalSet,
}

/// A multiplicity atom over specialized symbols: `s1^ω1 … sk^ωk` with
/// distinct symbols, kept sorted.
///
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct SAtom {
    entries: Vec<(Sym, Mult)>,
}

impl SAtom {
    /// The empty atom ε (leaf type).
    pub fn empty() -> SAtom {
        SAtom::default()
    }

    /// Builds an atom, sorting entries.
    ///
    /// # Panics
    ///
    /// Panics (debug) if a symbol repeats.
    pub fn new(mut entries: Vec<(Sym, Mult)>) -> SAtom {
        entries.sort_by_key(|&(s, _)| s);
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 != w[1].0),
            "duplicate symbol in multiplicity atom"
        );
        SAtom { entries }
    }

    /// Builds an atom from entries already strictly sorted by symbol.
    pub(crate) fn from_sorted(entries: Vec<(Sym, Mult)>) -> SAtom {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "atom entries not strictly sorted"
        );
        SAtom { entries }
    }

    /// The sorted entries.
    pub fn entries(&self) -> &[(Sym, Mult)] {
        &self.entries
    }

    /// The multiplicity of a symbol in the atom, if present.
    pub fn mult(&self, s: Sym) -> Option<Mult> {
        self.entries
            .binary_search_by_key(&s, |&(x, _)| x)
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is this the ε atom?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A disjunction of multiplicity atoms (a right-hand side `α1 ∨ … ∨ αm`).
/// An empty disjunction is unsatisfiable (no arrangement of children is
/// allowed, not even none — use `[SAtom::empty()]` for leaf types).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Disjunction(pub Vec<SAtom>);

impl Disjunction {
    /// Just the ε atom: the symbol types leaves only.
    pub fn leaf() -> Disjunction {
        Disjunction(vec![SAtom::empty()])
    }

    /// A single-atom disjunction.
    pub fn single(atom: SAtom) -> Disjunction {
        Disjunction(vec![atom])
    }

    /// The atoms.
    pub fn atoms(&self) -> &[SAtom] {
        &self.0
    }
}

/// A conditional tree type `(Σ′, R, µ, cond, σ, Σ ∪ N)`.
///
/// Right-hand sides are stored behind `Arc` so structurally shared µ's
/// (e.g. the `τ_a⋆ … τ_z⋆` anything-goes atom every `τ_a`/`τ̄_m` symbol
/// of Lemma 3.2 points to) cost one allocation total instead of one per
/// symbol — see [`ConditionalTreeType::set_mu_shared`]. Cloning a whole
/// type (the Refiner does so per step) then bumps refcounts instead of
/// deep-copying every atom list.
#[derive(Clone, Debug, Default)]
pub struct ConditionalTreeType {
    symbols: Vec<SymbolInfo>,
    mu: Vec<Arc<Disjunction>>,
    roots: Vec<Sym>,
}

/// The shared default right-hand side (unsatisfiable empty disjunction).
fn unset_mu() -> Arc<Disjunction> {
    static EMPTY: OnceLock<Arc<Disjunction>> = OnceLock::new();
    EMPTY
        .get_or_init(|| Arc::new(Disjunction::default()))
        .clone()
}

impl ConditionalTreeType {
    /// Creates an empty type (no symbols, no roots; `rep` is empty).
    pub fn new() -> ConditionalTreeType {
        ConditionalTreeType::default()
    }

    /// Adds a symbol with the given metadata; its µ defaults to the
    /// unsatisfiable empty disjunction until [`set_mu`] is called.
    ///
    /// [`set_mu`]: ConditionalTreeType::set_mu
    pub fn add_symbol(&mut self, target: SymTarget, cond: IntervalSet) -> Sym {
        let s = Sym(self.symbols.len() as u32);
        self.symbols.push(SymbolInfo { target, cond });
        self.mu.push(unset_mu());
        s
    }

    /// An empty type with room for `n` symbols, filled by
    /// [`push_symbol`](Self::push_symbol).
    pub(crate) fn with_capacity(n: usize) -> ConditionalTreeType {
        ConditionalTreeType {
            symbols: Vec::with_capacity(n),
            mu: Vec::with_capacity(n),
            roots: Vec::new(),
        }
    }

    /// Adds a symbol together with its right-hand side.
    pub(crate) fn push_symbol(&mut self, info: SymbolInfo, mu: Arc<Disjunction>) -> Sym {
        let s = Sym(self.symbols.len() as u32);
        self.symbols.push(info);
        self.mu.push(mu);
        s
    }

    /// Sets the right-hand side of a symbol.
    pub fn set_mu(&mut self, s: Sym, d: Disjunction) {
        self.mu[s.ix()] = Arc::new(d);
    }

    /// Sets the right-hand side of a symbol to an already-shared
    /// disjunction (hash-consing hook: many symbols pointing to the same
    /// µ share one allocation).
    pub fn set_mu_shared(&mut self, s: Sym, d: Arc<Disjunction>) {
        self.mu[s.ix()] = d;
    }

    /// Declares a root symbol.
    pub fn add_root(&mut self, s: Sym) {
        if !self.roots.contains(&s) {
            self.roots.push(s);
        }
    }

    /// Replaces the root set.
    pub fn set_roots(&mut self, roots: Vec<Sym>) {
        self.roots = roots;
    }

    /// Number of symbols in Σ′.
    pub fn sym_count(&self) -> usize {
        self.symbols.len()
    }

    /// Iterates over all symbols.
    pub fn syms(&self) -> impl Iterator<Item = Sym> + '_ {
        (0..self.symbols.len() as u32).map(Sym)
    }

    /// Metadata of a symbol.
    pub fn info(&self, s: Sym) -> &SymbolInfo {
        &self.symbols[s.ix()]
    }

    /// Mutable metadata of a symbol.
    pub fn info_mut(&mut self, s: Sym) -> &mut SymbolInfo {
        &mut self.symbols[s.ix()]
    }

    /// The right-hand side of a symbol.
    pub fn mu(&self, s: Sym) -> &Disjunction {
        &self.mu[s.ix()]
    }

    /// The root symbols.
    pub fn roots(&self) -> &[Sym] {
        &self.roots
    }

    /// A size measure: symbols plus total multiplicity-atom entries.
    /// This is the quantity that blows up exponentially in Example 3.2
    /// and stays polynomial for conjunctive trees (Corollary 3.9).
    pub fn size(&self) -> usize {
        self.symbols.len()
            + self
                .mu
                .iter()
                .map(|d| d.0.iter().map(|a| a.len() + 1).sum::<usize>())
                .sum::<usize>()
    }

    /// Computes the set of *productive* symbols: `s` is productive iff
    /// some finite tree can be rooted at a node typed `s`. This is the
    /// PTIME emptiness fixpoint of Lemma 2.5 (the analogue of
    /// context-free grammar emptiness).
    pub fn productive(&self) -> Vec<bool> {
        let n = self.symbols.len();
        let mut prod = vec![false; n];
        loop {
            let mut changed = false;
            for s in 0..n {
                if prod[s] || self.symbols[s].cond.is_empty() {
                    continue;
                }
                let ok = self.mu[s].0.iter().any(|atom| {
                    atom.entries()
                        .iter()
                        .all(|&(c, m)| !m.mandatory() || prod[c.ix()])
                });
                if ok {
                    prod[s] = true;
                    changed = true;
                }
            }
            if !changed {
                return prod;
            }
        }
    }

    /// Is every symbol productive?
    pub(crate) fn all_productive(&self) -> bool {
        self.productive().iter().all(|&p| p)
    }

    /// Is `rep` empty? (Lemma 2.5: PTIME-complete.)
    pub fn is_empty(&self) -> bool {
        let prod = self.productive();
        !self.roots.iter().any(|r| prod[r.ix()])
    }

    /// Computes the *useful* symbols (Corollary 2.6): productive symbols
    /// that can actually occur in some accepted tree. Reachability is the
    /// standard grammar argument: a productive symbol occurring (with a
    /// realizable atom) under a reachable symbol is reachable.
    pub fn useful(&self) -> Vec<bool> {
        self.useful_given(&self.productive())
    }

    /// [`useful`](Self::useful) from an already computed
    /// [`productive`](Self::productive) set, so callers needing both run
    /// the fixpoint once.
    fn useful_given(&self, prod: &[bool]) -> Vec<bool> {
        let n = self.symbols.len();
        let mut reach = vec![false; n];
        let mut stack: Vec<usize> = self
            .roots
            .iter()
            .filter(|r| prod[r.ix()])
            .map(|r| r.ix())
            .collect();
        for &s in &stack {
            reach[s] = true;
        }
        while let Some(s) = stack.pop() {
            for atom in &self.mu[s].0 {
                // Only realizable atoms (all mandatory children
                // productive) contribute occurrences.
                if !atom
                    .entries()
                    .iter()
                    .all(|&(c, m)| !m.mandatory() || prod[c.ix()])
                {
                    continue;
                }
                for &(c, _) in atom.entries() {
                    if prod[c.ix()] && !reach[c.ix()] {
                        reach[c.ix()] = true;
                        stack.push(c.ix());
                    }
                }
            }
        }
        reach
    }

    /// Would [`trim`](Self::trim) leave the type unchanged? True iff
    /// every symbol is useful. Every atom is then realizable too (useful
    /// symbols are productive), so trim would drop no symbol, atom or
    /// entry and rebuild a structurally equal type.
    pub(crate) fn is_trimmed(&self) -> bool {
        self.useful().iter().all(|&u| u)
    }

    /// Removes useless symbols, unrealizable atoms, and optional entries
    /// that can never be instantiated, preserving `rep` exactly. Returns
    /// the trimmed type and the old-to-new symbol mapping.
    pub fn trim(&self) -> (ConditionalTreeType, Vec<Option<Sym>>) {
        let prod = self.productive();
        let useful = self.useful_given(&prod);
        let mut remap: Vec<Option<Sym>> = vec![None; self.symbols.len()];
        let mut out = ConditionalTreeType::new();
        for s in self.syms() {
            if useful[s.ix()] {
                let info = self.info(s);
                let ns = out.add_symbol(info.target, info.cond.clone());
                remap[s.ix()] = Some(ns);
            }
        }
        for s in self.syms() {
            let Some(ns) = remap[s.ix()] else { continue };
            let mut atoms = Vec::new();
            for atom in &self.mu[s.ix()].0 {
                if !atom
                    .entries()
                    .iter()
                    .all(|&(c, m)| !m.mandatory() || prod[c.ix()])
                {
                    continue; // unrealizable atom
                }
                let entries: Vec<(Sym, Mult)> = atom
                    .entries()
                    .iter()
                    .filter_map(|&(c, m)| remap[c.ix()].map(|nc| (nc, m)))
                    .collect();
                atoms.push(SAtom::new(entries));
            }
            out.set_mu(ns, Disjunction(atoms));
        }
        out.set_roots(self.roots.iter().filter_map(|r| remap[r.ix()]).collect());
        (out, remap)
    }

    /// Constructs a concrete member of `rep`, using `gen` for fresh node
    /// ids of label-targeted symbols. Node-targeted symbols keep their
    /// instantiated id. Returns `None` when `rep` is empty.
    ///
    /// The witness is minimal: every optional child is omitted, every
    /// mandatory child instantiated once. For well-formed incomplete
    /// trees this always yields a valid member (node-targeted symbols
    /// occur at most once per tree by Definition 2.7(4)).
    pub fn witness(&self, gen: &mut NidGen) -> Option<DataTree> {
        // Rank symbols by the fixpoint round in which they became
        // productive; picking children of strictly lower rank guarantees
        // termination of the recursive construction.
        let n = self.symbols.len();
        let mut rank = vec![usize::MAX; n];
        let mut round = 0;
        loop {
            let mut changed = false;
            for s in 0..n {
                if rank[s] != usize::MAX || self.symbols[s].cond.is_empty() {
                    continue;
                }
                let ok = self.mu[s].0.iter().any(|atom| {
                    atom.entries()
                        .iter()
                        .all(|&(c, m)| !m.mandatory() || rank[c.ix()] < round + 1)
                });
                if ok {
                    rank[s] = round + 1;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            round += 1;
        }
        let root = *self
            .roots
            .iter()
            .filter(|r| rank[r.ix()] != usize::MAX)
            .min_by_key(|r| rank[r.ix()])?;
        let mut tree = self.instantiate_root(root, gen);
        let tree_root = tree.root();
        self.fill(root, &mut tree, tree_root, &rank, gen);
        Some(tree)
    }

    fn instantiate_root(&self, s: Sym, gen: &mut NidGen) -> DataTree {
        let (nid, label, value) = self.instantiation(s, gen);
        DataTree::new(nid, label, value)
    }

    fn instantiation(&self, s: Sym, gen: &mut NidGen) -> (Nid, Label, iixml_values::Rat) {
        let info = self.info(s);
        // Infallible: productivity (checked by the caller via `trim`)
        // requires a satisfiable condition, and satisfiable interval sets
        // always yield a witness value.
        let value = info
            .cond
            .witness()
            .expect("witness only called on productive symbols");
        match info.target {
            SymTarget::Lab(l) => (gen.fresh(), l, value),
            // Node symbols: the label recorded for display is not stored
            // here; IncompleteTree::witness patches labels for node
            // targets. We use a placeholder label resolved by the caller.
            SymTarget::Node(nid) => (nid, Label(u32::MAX), value),
        }
    }

    fn fill(
        &self,
        s: Sym,
        tree: &mut DataTree,
        at: iixml_tree::NodeRef,
        rank: &[usize],
        gen: &mut NidGen,
    ) {
        let my_rank = rank[s.ix()];
        let atom = self.mu[s.ix()]
            .0
            .iter()
            .find(|atom| {
                atom.entries()
                    .iter()
                    .all(|&(c, m)| !m.mandatory() || rank[c.ix()] < my_rank)
            })
            // Infallible: a symbol gets a finite rank exactly when one of
            // its atoms needs only lower-ranked mandatory children.
            .expect("productive symbol has a realizable atom");
        let mandatory: Vec<Sym> = atom
            .entries()
            .iter()
            .filter(|&&(_, m)| m.mandatory())
            .map(|&(c, _)| c)
            .collect();
        for c in mandatory {
            let (nid, label, value) = self.instantiation(c, gen);
            // Infallible: well-formedness (Definition 2.7) guarantees each
            // data node is reachable along exactly one symbol path, and
            // label-targeted symbols draw fresh ids from the generator.
            let child = tree
                .add_child(at, nid, label, value)
                .expect("well-formed types instantiate each data node once");
            self.fill(c, tree, child, rank, gen);
        }
    }

    /// Pretty-prints the type with label names from `alpha`.
    pub fn display<'a>(&'a self, alpha: &'a Alphabet) -> DisplayCtt<'a> {
        DisplayCtt { ty: self, alpha }
    }
}

/// Helper returned by [`ConditionalTreeType::display`].
///
/// Symbols carry no names: each one is shown by its target text, the
/// label's name or `n<nid>` for a data node. Symbols that specialize the
/// same label print alike; their conditions and right-hand sides tell
/// them apart.
pub struct DisplayCtt<'a> {
    ty: &'a ConditionalTreeType,
    alpha: &'a Alphabet,
}

impl DisplayCtt<'_> {
    fn target(&self, s: Sym) -> String {
        match self.ty.info(s).target {
            SymTarget::Lab(l) => self.alpha.name(l).to_string(),
            SymTarget::Node(n) => n.to_string(),
        }
    }
}

impl fmt::Display for DisplayCtt<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.ty;
        write!(f, "roots:")?;
        for &r in &t.roots {
            write!(f, " {}", self.target(r))?;
        }
        writeln!(f)?;
        for s in t.syms() {
            write!(f, "{} [{}] ::= ", self.target(s), t.info(s).cond)?;
            if t.mu(s).0.is_empty() {
                write!(f, "UNSAT")?;
            }
            for (i, atom) in t.mu(s).0.iter().enumerate() {
                if i > 0 {
                    write!(f, " | ")?;
                }
                if atom.is_empty() {
                    write!(f, "eps")?;
                } else {
                    for (j, &(c, m)) in atom.entries().iter().enumerate() {
                        if j > 0 {
                            write!(f, " ")?;
                        }
                        write!(f, "{}{}", self.target(c), m)?;
                    }
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iixml_values::{Cond, Rat};

    /// A small type: root -> a b?, a -> eps, b -> b (unproductive: b
    /// requires an infinite chain).
    fn sample() -> (ConditionalTreeType, Sym, Sym, Sym) {
        let mut t = ConditionalTreeType::new();
        let root = t.add_symbol(SymTarget::Lab(Label(0)), IntervalSet::all());
        let a = t.add_symbol(SymTarget::Lab(Label(1)), IntervalSet::all());
        let b = t.add_symbol(SymTarget::Lab(Label(2)), IntervalSet::all());
        t.set_mu(
            root,
            Disjunction::single(SAtom::new(vec![(a, Mult::One), (b, Mult::Opt)])),
        );
        t.set_mu(a, Disjunction::leaf());
        t.set_mu(b, Disjunction::single(SAtom::new(vec![(b, Mult::One)])));
        t.add_root(root);
        (t, root, a, b)
    }

    #[test]
    fn productivity_fixpoint() {
        let (t, root, a, b) = sample();
        let p = t.productive();
        assert!(p[root.ix()]);
        assert!(p[a.ix()]);
        assert!(!p[b.ix()], "b requires an infinite descent");
        assert!(!t.is_empty());
    }

    #[test]
    fn empty_when_root_needs_unproductive_child() {
        let mut t = ConditionalTreeType::new();
        let root = t.add_symbol(SymTarget::Lab(Label(0)), IntervalSet::all());
        let b = t.add_symbol(SymTarget::Lab(Label(1)), IntervalSet::all());
        t.set_mu(root, Disjunction::single(SAtom::new(vec![(b, Mult::Plus)])));
        t.set_mu(b, Disjunction::single(SAtom::new(vec![(b, Mult::One)])));
        t.add_root(root);
        assert!(t.is_empty());
    }

    #[test]
    fn unsatisfiable_condition_kills_symbol() {
        let mut t = ConditionalTreeType::new();
        let root = t.add_symbol(SymTarget::Lab(Label(0)), IntervalSet::empty());
        t.set_mu(root, Disjunction::leaf());
        t.add_root(root);
        assert!(t.is_empty());
    }

    #[test]
    fn empty_disjunction_is_unsat() {
        let mut t = ConditionalTreeType::new();
        let root = t.add_symbol(SymTarget::Lab(Label(0)), IntervalSet::all());
        t.add_root(root);
        // µ(root) left as the default empty disjunction.
        assert!(t.is_empty());
    }

    #[test]
    fn trim_removes_useless() {
        let (t, _, _, _) = sample();
        let (trimmed, remap) = t.trim();
        assert_eq!(trimmed.sym_count(), 2, "b is dropped");
        assert!(remap[2].is_none());
        // The root's atom lost its optional b entry.
        let root = remap[0].unwrap();
        assert_eq!(trimmed.mu(root).0.len(), 1);
        assert_eq!(trimmed.mu(root).0[0].len(), 1);
        assert!(!trimmed.is_empty());
    }

    #[test]
    fn trim_drops_unreachable() {
        let mut t = ConditionalTreeType::new();
        let root = t.add_symbol(SymTarget::Lab(Label(0)), IntervalSet::all());
        let orphan = t.add_symbol(SymTarget::Lab(Label(1)), IntervalSet::all());
        t.set_mu(root, Disjunction::leaf());
        t.set_mu(orphan, Disjunction::leaf());
        t.add_root(root);
        let (trimmed, remap) = t.trim();
        assert_eq!(trimmed.sym_count(), 1);
        assert!(remap[orphan.ix()].is_none());
    }

    #[test]
    fn witness_constructs_member() {
        let mut t = ConditionalTreeType::new();
        let root = t.add_symbol(SymTarget::Lab(Label(0)), Cond::eq(Rat::ZERO).to_intervals());
        let a = t.add_symbol(
            SymTarget::Lab(Label(1)),
            Cond::gt(Rat::from(5)).to_intervals(),
        );
        let b = t.add_symbol(SymTarget::Lab(Label(2)), IntervalSet::all());
        t.set_mu(
            root,
            Disjunction::single(SAtom::new(vec![(a, Mult::Plus), (b, Mult::Star)])),
        );
        t.set_mu(a, Disjunction::leaf());
        t.set_mu(b, Disjunction::leaf());
        t.add_root(root);
        let mut gen = NidGen::starting_at(1000);
        let w = t.witness(&mut gen).unwrap();
        // root with exactly one `a` child (mandatory), no `b` (optional).
        assert_eq!(w.len(), 2);
        assert_eq!(w.value(w.root()), Rat::ZERO);
        let child = w.children(w.root())[0];
        assert_eq!(w.label(child), Label(1));
        assert!(w.value(child) > Rat::from(5));
    }

    #[test]
    fn witness_none_for_empty() {
        let (mut t, root, _, b) = sample();
        // Make b mandatory: type becomes empty.
        let a = Sym(1);
        t.set_mu(
            root,
            Disjunction::single(SAtom::new(vec![(a, Mult::One), (b, Mult::One)])),
        );
        assert!(t.is_empty());
        assert!(t.witness(&mut NidGen::new()).is_none());
    }

    #[test]
    fn disjunction_gives_choice() {
        // root -> a | b with a unproductive: witness must pick b.
        let mut t = ConditionalTreeType::new();
        let root = t.add_symbol(SymTarget::Lab(Label(0)), IntervalSet::all());
        let a = t.add_symbol(SymTarget::Lab(Label(1)), IntervalSet::all());
        let b = t.add_symbol(SymTarget::Lab(Label(2)), IntervalSet::all());
        t.set_mu(
            root,
            Disjunction(vec![
                SAtom::new(vec![(a, Mult::One)]),
                SAtom::new(vec![(b, Mult::One)]),
            ]),
        );
        t.set_mu(a, Disjunction(vec![])); // unsat
        t.set_mu(b, Disjunction::leaf());
        t.add_root(root);
        assert!(!t.is_empty());
        let w = t.witness(&mut NidGen::new()).unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(w.label(w.children(w.root())[0]), Label(2));
    }

    #[test]
    fn size_counts_symbols_and_entries() {
        let (t, _, _, _) = sample();
        // 3 symbols; atoms: root's (2 entries + 1) + a's eps (0+1) + b's
        // (1+1) = 6; total 9.
        assert_eq!(t.size(), 9);
    }

    #[test]
    fn display_mentions_everything() {
        let (t, _, _, _) = sample();
        let alpha = Alphabet::from_names(["root", "a", "b"]);
        let s = t.display(&alpha).to_string();
        assert!(s.contains("roots: root"));
        assert!(s.contains("a? ") || s.contains("b?"));
        assert!(s.contains("eps"));
    }
}
