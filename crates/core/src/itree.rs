//! Incomplete trees (Definition 2.7): the paper's representation system
//! for XML with incomplete information.
//!
//! An incomplete tree `T = (N, λ, ν, τ)` couples a finite set of
//! *instantiated data nodes* (with fixed labels and values) with a
//! conditional tree type over `N ∪ Σ` describing both the known prefix
//! and the missing information. `rep(T)` is the set of complete data
//! trees consistent with it.
//!
//! Provided here:
//! * construction and normalization ([`IncompleteTree::new`]);
//! * `rep` emptiness, trimming, and witness construction;
//! * exact membership `T ∈ rep(T)` ([`IncompleteTree::contains`]) via
//!   circulation feasibility — the testing backbone of this repository;
//! * the data tree `T_d` (the instantiated prefix);
//! * well-formedness (Definition 2.7 item 4) and unambiguity
//!   (Definition 3.1) checks.

use crate::ctt::{ConditionalTreeType, Disjunction, SAtom, Sym, SymTarget};
use iixml_tree::flow::Circulation;
use iixml_tree::{DataTree, Label, Mult, Nid, NidGen, NodeRef};
use iixml_values::{IntervalSet, Rat};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// The label and value of an instantiated data node (`λ(n)`, `ν(n)`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NodeInfo {
    /// The node's element label.
    pub label: Label,
    /// The node's data value.
    pub value: Rat,
}

/// Errors constructing or validating incomplete trees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItreeError {
    /// A symbol targets a data node absent from `N`.
    UnknownNode(Nid),
    /// A data node could occur more than once in some represented tree
    /// (violates Definition 2.7(4)).
    DuplicatedNode(Nid),
    /// A node-targeted symbol can occur under a label-targeted symbol
    /// (violates Definition 2.7(4): parents of data nodes are data
    /// nodes).
    NodeUnderLabel(Nid),
    /// Two incomplete trees disagree on a shared node's label or value.
    IncompatibleNode(Nid),
    /// An answer shipped a node without provenance (which query-pattern
    /// node it matched) — the signature of a truncated or fabricated
    /// answer from an unreliable source.
    MissingProvenance(Nid),
}

impl fmt::Display for ItreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ItreeError::UnknownNode(n) => write!(f, "symbol targets unknown data node {n}"),
            ItreeError::DuplicatedNode(n) => {
                write!(f, "data node {n} may occur twice in a represented tree")
            }
            ItreeError::NodeUnderLabel(n) => {
                write!(f, "data node {n} may occur under a non-data node")
            }
            ItreeError::IncompatibleNode(n) => {
                write!(f, "incompatible label/value for shared node {n}")
            }
            ItreeError::MissingProvenance(n) => {
                write!(f, "answer node {n} carries no match provenance")
            }
        }
    }
}

impl std::error::Error for ItreeError {}

/// An incomplete tree `(N, λ, ν, τ)`.
///
/// Each symbol's label — its target label, or `λ(n)` for a data node
/// `n` — is carried beside the type, set where the symbols are made;
/// nothing changes a tree's parts after construction, so it cannot go
/// stale.
#[derive(Clone, Debug)]
pub struct IncompleteTree {
    nodes: BTreeMap<Nid, NodeInfo>,
    ty: ConditionalTreeType,
    /// By symbol: the label of the nodes it types.
    labels: Vec<Label>,
}

impl IncompleteTree {
    /// Creates an incomplete tree, *normalizing* node-targeted symbols:
    /// their conditions are intersected with the singleton `{ν(n)}`
    /// (represented trees assign exactly `ν(n)` to node `n`), so that all
    /// downstream reasoning can treat conditions uniformly.
    /// The same walk also reads each symbol's label.
    pub fn new(
        nodes: BTreeMap<Nid, NodeInfo>,
        mut ty: ConditionalTreeType,
    ) -> Result<IncompleteTree, ItreeError> {
        let mut labels = Vec::with_capacity(ty.sym_count());
        for s in (0..ty.sym_count() as u32).map(Sym) {
            let n = match ty.info(s).target {
                SymTarget::Lab(l) => {
                    labels.push(l);
                    continue;
                }
                SymTarget::Node(n) => n,
            };
            let info = *nodes.get(&n).ok_or(ItreeError::UnknownNode(n))?;
            labels.push(info.label);
            let cond = &ty.info(s).cond;
            // Already inside {ν(n)} (every product and `T_{q,A}`
            // node symbol is): narrowing would rebuild an equal set.
            if cond.is_empty() || cond.as_singleton() == Some(info.value) {
                continue;
            }
            let narrowed = cond.intersect(&IntervalSet::eq(info.value));
            ty.info_mut(s).cond = narrowed;
        }
        Ok(IncompleteTree { nodes, ty, labels })
    }

    /// An incomplete tree whose parts are already in [`new`](Self::new)'s
    /// normal form: every node-targeted symbol targets a node of
    /// `nodes`, with a condition that is empty or `{ν(n)}`, and
    /// `labels` holds each symbol's label.
    pub(crate) fn from_normalized(
        nodes: BTreeMap<Nid, NodeInfo>,
        ty: ConditionalTreeType,
        labels: Vec<Label>,
    ) -> IncompleteTree {
        debug_assert!(
            labels.len() == ty.sym_count()
                && ty.syms().all(|s| match ty.info(s).target {
                    SymTarget::Lab(l) => labels[s.ix()] == l,
                    SymTarget::Node(n) => nodes.get(&n).is_some_and(|i| {
                        let cond = &ty.info(s).cond;
                        labels[s.ix()] == i.label
                            && (cond.is_empty() || cond.as_singleton() == Some(i.value))
                    }),
                }),
            "a node symbol outside its node's normal form, or a wrong label"
        );
        IncompleteTree { nodes, ty, labels }
    }

    /// The incomplete tree representing *all* data trees over the given
    /// labels — the zero-knowledge starting point of a Refine chain.
    pub fn universal(labels: &[Label]) -> IncompleteTree {
        let mut ty = ConditionalTreeType::new();
        let syms: Vec<Sym> = labels
            .iter()
            .map(|&l| ty.add_symbol(SymTarget::Lab(l), IntervalSet::all()))
            .collect();
        let all_star = SAtom::new(syms.iter().map(|&s| (s, Mult::Star)).collect());
        for &s in &syms {
            ty.set_mu(s, Disjunction::single(all_star.clone()));
            ty.add_root(s);
        }
        IncompleteTree {
            nodes: BTreeMap::new(),
            ty,
            labels: labels.to_vec(),
        }
    }

    /// The data nodes `N` with their labels and values.
    pub fn nodes(&self) -> &BTreeMap<Nid, NodeInfo> {
        &self.nodes
    }

    /// Looks up a data node.
    pub fn node_info(&self, n: Nid) -> Option<NodeInfo> {
        self.nodes.get(&n).copied()
    }

    /// The underlying conditional tree type.
    pub fn ty(&self) -> &ConditionalTreeType {
        &self.ty
    }

    /// The label of the nodes `s` types: its target label, or `λ(n)`
    /// for a data node `n`.
    pub fn label(&self, s: Sym) -> Label {
        self.labels[s.ix()]
    }

    /// Every symbol's [`label`](Self::label), by symbol.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Size measure (see [`ConditionalTreeType::size`]) plus data nodes.
    pub fn size(&self) -> usize {
        self.nodes.len() + self.ty.size()
    }

    /// Is `rep(T)` empty?
    pub fn is_empty(&self) -> bool {
        self.ty.is_empty()
    }

    /// Removes useless symbols (preserving `rep` exactly) and drops data
    /// nodes no longer mentioned by any symbol.
    pub fn trim(&self) -> IncompleteTree {
        let (ty, remap) = self.ty.trim();
        let mut nodes = BTreeMap::new();
        for s in ty.syms() {
            if let SymTarget::Node(n) = ty.info(s).target {
                if let Some(&info) = self.nodes.get(&n) {
                    nodes.insert(n, info);
                }
            }
        }
        // Kept symbols keep their order, so their labels follow.
        let labels = self
            .labels
            .iter()
            .zip(&remap)
            .filter_map(|(&l, kept)| kept.map(|_| l))
            .collect();
        IncompleteTree { nodes, ty, labels }
    }

    /// [`trim`](Self::trim) that borrows when there is nothing to
    /// remove: `Borrowed(self)` exactly when every symbol is useful and
    /// every data node is targeted by some symbol, so `trim()` would
    /// return a structurally equal tree. Read-only callers use this
    /// instead of re-trimming knowledge that is already trim.
    pub fn trimmed(&self) -> Cow<'_, IncompleteTree> {
        if self.is_trim() {
            Cow::Borrowed(self)
        } else {
            Cow::Owned(self.trim())
        }
    }

    /// Would [`trim`](Self::trim) return a structurally equal tree?
    pub(crate) fn is_trim(&self) -> bool {
        self.ty.is_trimmed() && self.every_node_targeted()
    }

    /// [`is_trim`](Self::is_trim) for a tree whose roots reach every
    /// symbol, as [`intersect_certified`](crate::refine::intersect_certified)'s
    /// product does by construction: every symbol is then useful exactly
    /// when every symbol is productive, so the reachability pass is
    /// skipped.
    pub(crate) fn is_trim_given_reachable(&self) -> bool {
        let trim = self.ty.all_productive() && self.every_node_targeted();
        debug_assert_eq!(trim, self.is_trim(), "a symbol the roots do not reach");
        trim
    }

    /// Is every data node the target of some symbol? One pass over the
    /// symbols into a sorted set, then one merge walk against the
    /// (sorted) node keys.
    fn every_node_targeted(&self) -> bool {
        let mut targeted: Vec<Nid> = self
            .ty
            .syms()
            .filter_map(|s| match self.ty.info(s).target {
                SymTarget::Node(n) => Some(n),
                SymTarget::Lab(_) => None,
            })
            .collect();
        targeted.sort_unstable();
        targeted.dedup();
        let mut targeted = targeted.into_iter();
        self.nodes
            .keys()
            .all(|n| targeted.by_ref().any(|t| t == *n))
    }

    /// A concrete member of `rep(T)`, or `None` if empty. Fresh ids for
    /// non-instantiated nodes come from `gen` (callers should start it
    /// above all instantiated ids).
    pub fn witness(&self, gen: &mut NidGen) -> Option<DataTree> {
        let mut t = self.ty.witness(gen)?;
        // Patch labels of instantiated nodes (the type layer stores a
        // placeholder label for node-targeted symbols).
        for r in t.preorder() {
            if let Some(info) = self.nodes.get(&t.nid(r)) {
                t.set_label(r, info.label);
                t.set_value(r, info.value);
            }
        }
        Some(t)
    }

    /// Exact membership test: is the concrete data tree `t` in `rep(T)`?
    ///
    /// A tree is represented iff its nodes can be assigned specialized
    /// symbols such that the root gets a root symbol, labels/values/ids
    /// are consistent (nodes carrying an id in `N` must be typed by a
    /// symbol targeting exactly that node, others by label-targeted
    /// symbols), and each node's children satisfy one disjunct of its
    /// symbol's µ. The per-node children check is a circulation
    /// feasibility problem (one symbol per child, per-symbol counts
    /// within the multiplicity bounds).
    pub fn contains(&self, t: &DataTree) -> bool {
        let mut memo: HashMap<(NodeRef, Sym), bool> = HashMap::new();
        self.ty
            .roots()
            .iter()
            .any(|&r| self.ok(t, t.root(), r, &mut memo))
    }

    fn ok(
        &self,
        t: &DataTree,
        u: NodeRef,
        s: Sym,
        memo: &mut HashMap<(NodeRef, Sym), bool>,
    ) -> bool {
        if let Some(&r) = memo.get(&(u, s)) {
            return r;
        }
        memo.insert((u, s), false); // guard (trees are acyclic)
        let r = self.ok_inner(t, u, s, memo);
        memo.insert((u, s), r);
        r
    }

    fn ok_inner(
        &self,
        t: &DataTree,
        u: NodeRef,
        s: Sym,
        memo: &mut HashMap<(NodeRef, Sym), bool>,
    ) -> bool {
        let info = self.ty.info(s);
        match info.target {
            SymTarget::Lab(l) => {
                if t.label(u) != l || self.nodes.contains_key(&t.nid(u)) {
                    return false;
                }
            }
            SymTarget::Node(n) => {
                let Some(ni) = self.nodes.get(&n) else {
                    return false;
                };
                if t.nid(u) != n || t.label(u) != ni.label {
                    return false;
                }
            }
        }
        if !info.cond.contains(t.value(u)) {
            return false;
        }
        let kids = t.children(u).to_vec();
        self.ty
            .mu(s)
            .0
            .iter()
            .any(|atom| self.atom_feasible(t, &kids, atom, memo))
    }

    fn atom_feasible(
        &self,
        t: &DataTree,
        kids: &[NodeRef],
        atom: &SAtom,
        memo: &mut HashMap<(NodeRef, Sym), bool>,
    ) -> bool {
        let m = kids.len();
        let k = atom.len();
        if m == 0 {
            // Feasible iff no entry is mandatory.
            return atom.entries().iter().all(|&(_, mu)| !mu.mandatory());
        }
        // Vertices: 0 = source/sink hub, 1..=m children, m+1..=m+k slots.
        let source = 0;
        let sink = m + k + 1;
        let mut c = Circulation::new(m + k + 2);
        for (j, &kid) in kids.iter().enumerate() {
            c.add_edge(source, 1 + j, 1, 1);
            let mut any = false;
            for (i, &(sym, _)) in atom.entries().iter().enumerate() {
                if self.ok(t, kid, sym, memo) {
                    c.add_edge(1 + j, 1 + m + i, 0, 1);
                    any = true;
                }
            }
            if !any {
                return false; // child cannot be typed at all
            }
        }
        for (i, &(_, mu)) in atom.entries().iter().enumerate() {
            let lo = if mu.mandatory() { 1 } else { 0 };
            let hi = if mu.repeatable() { m as i64 } else { 1 };
            c.add_edge(1 + m + i, sink, lo, hi);
        }
        c.add_edge(sink, source, 0, m as i64);
        c.feasible()
    }

    /// The data tree `T_d`: the instantiated prefix formed by the data
    /// nodes, reconstructed from the type structure (each data node's
    /// parent is the data node under whose symbol it occurs). Returns
    /// `None` when `N` is empty or the structure is inconsistent.
    pub fn data_tree(&self) -> Option<DataTree> {
        if self.nodes.is_empty() {
            return None;
        }
        self.trimmed().data_tree_of_trim()
    }

    /// [`data_tree`](Self::data_tree) of a tree that is already trim.
    pub(crate) fn data_tree_of_trim(&self) -> Option<DataTree> {
        let ty = &self.ty;
        // (child, parent) for every entry that targets a data node: the
        // parent is the data node of the symbol it occurs under (`None`
        // under a label symbol). Sorted, each node's edges are adjacent.
        let mut up: Vec<(Nid, Option<Nid>)> = Vec::new();
        for s in ty.syms() {
            let parent_node = match ty.info(s).target {
                SymTarget::Node(n) => Some(n),
                SymTarget::Lab(_) => None,
            };
            for atom in &ty.mu(s).0 {
                for &(c, _) in atom.entries() {
                    if let SymTarget::Node(child) = ty.info(c).target {
                        up.push((child, parent_node));
                    }
                }
            }
        }
        up.sort_unstable();
        up.dedup();
        if up.windows(2).any(|w| w[0].0 == w[1].0) {
            return None; // a data node under two different parents
        }
        // Roots: data nodes appearing as root symbols, or with no parent
        // edge recorded.
        let mut root: Option<Nid> = None;
        for &n in self.nodes.keys() {
            let is_root = match up.binary_search_by_key(&n, |&(c, _)| c) {
                Ok(i) => up[i].1.is_none(),
                Err(_) => true,
            };
            if is_root {
                if root.is_some() {
                    return None; // forest, not a tree
                }
                root = Some(n);
            }
        }
        let root = root?;
        let ri = self.nodes.get(&root)?;
        let mut out = DataTree::with_capacity(root, ri.label, ri.value, self.nodes.len());
        // Insert children depth-first, each parent's in ascending id
        // order, from the edges sorted by (parent, child).
        let mut down: Vec<(Nid, Nid)> = up.iter().filter_map(|&(c, p)| p.map(|p| (p, c))).collect();
        down.sort_unstable();
        let mut frontier = vec![(root, out.root())];
        while let Some((p, pr)) = frontier.pop() {
            let first = down.partition_point(|&(pp, _)| pp < p);
            for &(_, c) in down[first..].iter().take_while(|&&(pp, _)| pp == p) {
                let ci = self.nodes.get(&c)?;
                let cr = out.add_child(pr, c, ci.label, ci.value).ok()?;
                frontier.push((c, cr));
            }
        }
        if out.len() != self.nodes.len() {
            return None; // disconnected data nodes
        }
        Some(out)
    }

    /// Checks Definition 2.7 item 4: in every represented tree, each data
    /// node occurs at most once, and parents of data nodes are data
    /// nodes.
    pub fn well_formed(&self) -> Result<(), ItreeError> {
        let trimmed = self.trimmed();
        let ty = &trimmed.ty;
        // (b) structural parent check on the trimmed (all-useful) type.
        for s in ty.syms() {
            if let SymTarget::Lab(_) = ty.info(s).target {
                for atom in &ty.mu(s).0 {
                    for &(c, _) in atom.entries() {
                        if let SymTarget::Node(n) = ty.info(c).target {
                            return Err(ItreeError::NodeUnderLabel(n));
                        }
                    }
                }
            }
        }
        // (a) occurrence counting, capped at 2. occ[s][n-index] = max
        // occurrences of node n in any tree rooted at a node typed s.
        let nids: Vec<Nid> = trimmed.nodes.keys().copied().collect();
        let idx: HashMap<Nid, usize> = nids.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let ns = ty.sym_count();
        let nn = nids.len();
        let mut occ = vec![vec![0u8; nn]; ns];
        loop {
            let mut changed = false;
            for s in ty.syms() {
                let own: Option<usize> = match ty.info(s).target {
                    SymTarget::Node(n) => idx.get(&n).copied(),
                    SymTarget::Lab(_) => None,
                };
                #[allow(clippy::needless_range_loop)]
                for ni in 0..nn {
                    // Max over atoms of the sum over entries.
                    let mut best = 0u16;
                    for atom in &ty.mu(s).0 {
                        let mut total: u16 = 0;
                        for &(c, m) in atom.entries() {
                            let per = occ[c.ix()][ni] as u16;
                            let copies: u16 = if m.repeatable() { 2 } else { 1 };
                            total = (total + per * copies).min(2);
                        }
                        best = best.max(total);
                    }
                    let self_occ = u16::from(own == Some(ni));
                    let v = ((best + self_occ).min(2)) as u8;
                    if v > occ[s.ix()][ni] {
                        occ[s.ix()][ni] = v;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        for r in ty.roots() {
            for (ni, &n) in nids.iter().enumerate() {
                if occ[r.ix()][ni] >= 2 {
                    return Err(ItreeError::DuplicatedNode(n));
                }
            }
        }
        Ok(())
    }

    /// Pretty-prints the incomplete tree in the paper's Figure 8/9
    /// spirit: the known data tree first, then the specialized types
    /// describing the missing information.
    pub fn display<'a>(&'a self, alpha: &'a iixml_tree::Alphabet) -> DisplayItree<'a> {
        DisplayItree { it: self, alpha }
    }

    /// Checks unambiguity (Definition 3.1): (1) data-node symbols have
    /// multiplicity 1 and all others ⋆; (2) distinct ⋆-specializations of
    /// the same label in one atom have mutually exclusive conditions;
    /// (3) a label with multiple ⋆-specializations in one atom also
    /// appears as the label of some data-node entry of that atom.
    pub fn is_unambiguous(&self) -> bool {
        let ty = &self.ty;
        for s in ty.syms() {
            for atom in &ty.mu(s).0 {
                for &(c, m) in atom.entries() {
                    let is_node = matches!(ty.info(c).target, SymTarget::Node(_));
                    match (is_node, m) {
                        (true, Mult::One) | (false, Mult::Star) => {}
                        _ => return false,
                    }
                }
                // Group ⋆ entries by label.
                let mut by_label: HashMap<Label, Vec<Sym>> = HashMap::new();
                for &(c, _) in atom.entries() {
                    if let SymTarget::Lab(l) = ty.info(c).target {
                        by_label.entry(l).or_default().push(c);
                    }
                }
                for (l, group) in by_label {
                    if group.len() < 2 {
                        continue;
                    }
                    // (2) pairwise exclusive conditions, or (3) a
                    // data-node entry with the same label exists. (The
                    // paper's Figure 8 uses specializations that are
                    // distinguished by subtree structure rather than by
                    // their own value condition, so (3) acts as the
                    // alternative to (2).)
                    let exclusive = (0..group.len()).all(|i| {
                        (i + 1..group.len())
                            .all(|j| !ty.info(group[i]).cond.overlaps(&ty.info(group[j]).cond))
                    });
                    let has_node = atom.entries().iter().any(|&(c, _)| {
                        matches!(ty.info(c).target, SymTarget::Node(_)) && self.label(c) == l
                    });
                    if !exclusive && !has_node {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// `t` itself when `view` borrows it (there is nothing to change),
/// else the tree `view` rebuilt: the by-value form of
/// [`IncompleteTree::trimmed`] and [`IncompleteTree::minimized`], so an
/// owner moves its tree on instead of cloning it.
pub(crate) fn keep_unless_changed(
    t: IncompleteTree,
    view: impl for<'a> Fn(&'a IncompleteTree) -> Cow<'a, IncompleteTree>,
) -> IncompleteTree {
    let changed = match view(&t) {
        Cow::Owned(new) => Some(new),
        Cow::Borrowed(_) => None,
    };
    changed.unwrap_or(t)
}

/// Helper returned by [`IncompleteTree::display`].
pub struct DisplayItree<'a> {
    it: &'a IncompleteTree,
    alpha: &'a iixml_tree::Alphabet,
}

impl fmt::Display for DisplayItree<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "known data tree:")?;
        match self.it.data_tree() {
            Some(td) => write!(f, "{}", td.display(self.alpha))?,
            None => writeln!(f, "  (no data nodes)")?,
        }
        writeln!(f, "specialized types:")?;
        write!(f, "{}", self.it.ty().display(self.alpha))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iixml_values::Cond;

    /// The incomplete tree of Example 2.2 / Figure 7 (left):
    /// data nodes r (root, =0) and n (a, =0); r may have extra `a ≠ 0`
    /// children; all a's and n may have b children.
    pub fn example_2_2() -> (IncompleteTree, [Label; 3]) {
        let root_l = Label(0);
        let a_l = Label(1);
        let b_l = Label(2);
        let mut nodes = BTreeMap::new();
        nodes.insert(
            Nid(0),
            NodeInfo {
                label: root_l,
                value: Rat::ZERO,
            },
        );
        nodes.insert(
            Nid(1),
            NodeInfo {
                label: a_l,
                value: Rat::ZERO,
            },
        );
        let mut ty = ConditionalTreeType::new();
        let r = ty.add_symbol(SymTarget::Node(Nid(0)), Cond::eq(Rat::ZERO).to_intervals());
        let n = ty.add_symbol(SymTarget::Node(Nid(1)), Cond::eq(Rat::ZERO).to_intervals());
        let a = ty.add_symbol(SymTarget::Lab(a_l), Cond::ne(Rat::ZERO).to_intervals());
        let b = ty.add_symbol(SymTarget::Lab(b_l), IntervalSet::all());
        ty.set_mu(
            r,
            Disjunction::single(SAtom::new(vec![(n, Mult::One), (a, Mult::Star)])),
        );
        ty.set_mu(n, Disjunction::single(SAtom::new(vec![(b, Mult::Star)])));
        ty.set_mu(a, Disjunction::single(SAtom::new(vec![(b, Mult::Star)])));
        ty.set_mu(b, Disjunction::leaf());
        ty.add_root(r);
        let it = IncompleteTree::new(nodes, ty).unwrap();
        (it, [root_l, a_l, b_l])
    }

    #[test]
    fn example_2_2_basics() {
        let (it, _) = example_2_2();
        assert!(!it.is_empty());
        assert!(it.well_formed().is_ok());
        assert!(it.is_unambiguous());
        let td = it.data_tree().unwrap();
        assert_eq!(td.len(), 2);
        assert_eq!(td.nid(td.root()), Nid(0));
        assert_eq!(td.nid(td.children(td.root())[0]), Nid(1));
    }

    #[test]
    fn membership_examples() {
        let (it, [root_l, a_l, b_l]) = example_2_2();
        // Minimal world: r with child n.
        let mut t = DataTree::new(Nid(0), root_l, Rat::ZERO);
        t.add_child(t.root(), Nid(1), a_l, Rat::ZERO).unwrap();
        assert!(it.contains(&t));
        // Add an extra a != 0 child and b grandchildren: still in rep.
        let mut t2 = t.clone();
        let extra = t2.add_child(t2.root(), Nid(50), a_l, Rat::from(7)).unwrap();
        t2.add_child(extra, Nid(51), b_l, Rat::from(3)).unwrap();
        let n_ref = t2.by_nid(Nid(1)).unwrap();
        t2.add_child(n_ref, Nid(52), b_l, Rat::from(4)).unwrap();
        assert!(it.contains(&t2));
        // Extra `a` child with value 0 violates cond(a) != 0.
        let mut t3 = t.clone();
        t3.add_child(t3.root(), Nid(60), a_l, Rat::ZERO).unwrap();
        assert!(!it.contains(&t3));
        // Missing the mandatory data node n.
        let t4 = DataTree::new(Nid(0), root_l, Rat::ZERO);
        assert!(!it.contains(&t4));
        // A tree whose root is a fresh node (not node 0) cannot be typed
        // by the node-targeted root symbol.
        let mut t5 = DataTree::new(Nid(99), root_l, Rat::ZERO);
        t5.add_child(t5.root(), Nid(1), a_l, Rat::ZERO).unwrap();
        assert!(!it.contains(&t5));
        // Wrong value at node n.
        let mut t6 = DataTree::new(Nid(0), root_l, Rat::ZERO);
        t6.add_child(t6.root(), Nid(1), a_l, Rat::from(5)).unwrap();
        assert!(!it.contains(&t6));
    }

    #[test]
    fn witness_is_member() {
        let (it, _) = example_2_2();
        let w = it.witness(&mut NidGen::starting_at(1000)).unwrap();
        assert!(it.contains(&w), "witness must be in rep");
        // Witness contains both data nodes with patched labels.
        assert_eq!(w.len(), 2);
        assert_eq!(w.label(w.root()), Label(0));
    }

    #[test]
    fn universal_accepts_everything() {
        let labels = [Label(0), Label(1)];
        let it = IncompleteTree::universal(&labels);
        let mut t = DataTree::new(Nid(0), Label(1), Rat::from(42));
        let c = t.add_child(t.root(), Nid(1), Label(0), Rat::ZERO).unwrap();
        t.add_child(c, Nid(2), Label(1), Rat::from(-3)).unwrap();
        assert!(it.contains(&t));
        assert!(!it.is_empty());
        assert!(it.well_formed().is_ok());
        assert!(it.data_tree().is_none());
    }

    #[test]
    fn ill_formed_duplicate_node() {
        // root -> n n (two node entries for the same nid via two symbols
        // — modeled as one symbol with mult Plus, allowing 2 copies).
        let mut nodes = BTreeMap::new();
        nodes.insert(
            Nid(1),
            NodeInfo {
                label: Label(1),
                value: Rat::ZERO,
            },
        );
        nodes.insert(
            Nid(0),
            NodeInfo {
                label: Label(0),
                value: Rat::ZERO,
            },
        );
        let mut ty = ConditionalTreeType::new();
        let r = ty.add_symbol(SymTarget::Node(Nid(0)), IntervalSet::all());
        let n = ty.add_symbol(SymTarget::Node(Nid(1)), IntervalSet::all());
        ty.set_mu(r, Disjunction::single(SAtom::new(vec![(n, Mult::Plus)])));
        ty.set_mu(n, Disjunction::leaf());
        ty.add_root(r);
        let it = IncompleteTree::new(nodes, ty).unwrap();
        assert_eq!(it.well_formed(), Err(ItreeError::DuplicatedNode(Nid(1))));
    }

    #[test]
    fn ill_formed_node_under_label() {
        let mut nodes = BTreeMap::new();
        nodes.insert(
            Nid(1),
            NodeInfo {
                label: Label(1),
                value: Rat::ZERO,
            },
        );
        let mut ty = ConditionalTreeType::new();
        let r = ty.add_symbol(SymTarget::Lab(Label(0)), IntervalSet::all());
        let n = ty.add_symbol(SymTarget::Node(Nid(1)), IntervalSet::all());
        ty.set_mu(r, Disjunction::single(SAtom::new(vec![(n, Mult::One)])));
        ty.set_mu(n, Disjunction::leaf());
        ty.add_root(r);
        let it = IncompleteTree::new(nodes, ty).unwrap();
        assert_eq!(it.well_formed(), Err(ItreeError::NodeUnderLabel(Nid(1))));
    }

    #[test]
    fn unknown_node_rejected() {
        let mut ty = ConditionalTreeType::new();
        let r = ty.add_symbol(SymTarget::Node(Nid(7)), IntervalSet::all());
        ty.set_mu(r, Disjunction::leaf());
        ty.add_root(r);
        assert_eq!(
            IncompleteTree::new(BTreeMap::new(), ty).err(),
            Some(ItreeError::UnknownNode(Nid(7)))
        );
    }

    #[test]
    fn normalization_narrows_node_conditions() {
        // Node value 5 but symbol condition < 3: the symbol becomes
        // unsatisfiable, so rep is empty.
        let mut nodes = BTreeMap::new();
        nodes.insert(
            Nid(0),
            NodeInfo {
                label: Label(0),
                value: Rat::from(5),
            },
        );
        let mut ty = ConditionalTreeType::new();
        let r = ty.add_symbol(
            SymTarget::Node(Nid(0)),
            Cond::lt(Rat::from(3)).to_intervals(),
        );
        ty.set_mu(r, Disjunction::leaf());
        ty.add_root(r);
        let it = IncompleteTree::new(nodes, ty).unwrap();
        assert!(it.is_empty());
    }

    #[test]
    fn ambiguity_detection() {
        let (it, _) = example_2_2();
        assert!(it.is_unambiguous());
        // Two star specializations of `a` with overlapping conditions.
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
                label: Label(2),
                value: Rat::ZERO,
            },
        );
        let mut ty = ConditionalTreeType::new();
        let r = ty.add_symbol(SymTarget::Node(Nid(0)), IntervalSet::all());
        let n1 = ty.add_symbol(SymTarget::Node(Nid(1)), IntervalSet::all());
        let a1 = ty.add_symbol(
            SymTarget::Lab(Label(1)),
            Cond::lt(Rat::from(5)).to_intervals(),
        );
        let a2 = ty.add_symbol(SymTarget::Lab(Label(1)), Cond::gt(Rat::ZERO).to_intervals());
        ty.set_mu(
            r,
            Disjunction::single(SAtom::new(vec![
                (n1, Mult::One),
                (a1, Mult::Star),
                (a2, Mult::Star),
            ])),
        );
        for s in [n1, a1, a2] {
            ty.set_mu(s, Disjunction::leaf());
        }
        ty.add_root(r);
        let it2 = IncompleteTree::new(nodes, ty).unwrap();
        // Conditions (−∞,5) and (0,∞) overlap and no data node carries
        // label 1 -> ambiguous.
        assert!(!it2.is_unambiguous());
        // Node entries with multiplicity other than One violate (1).
        let mut ty2 = ConditionalTreeType::new();
        let r2 = ty2.add_symbol(SymTarget::Node(Nid(0)), IntervalSet::all());
        let n2 = ty2.add_symbol(SymTarget::Node(Nid(1)), IntervalSet::all());
        ty2.set_mu(r2, Disjunction::single(SAtom::new(vec![(n2, Mult::Opt)])));
        ty2.set_mu(n2, Disjunction::leaf());
        ty2.add_root(r2);
        let mut nodes2 = BTreeMap::new();
        nodes2.insert(
            Nid(0),
            NodeInfo {
                label: Label(0),
                value: Rat::ZERO,
            },
        );
        nodes2.insert(
            Nid(1),
            NodeInfo {
                label: Label(2),
                value: Rat::ZERO,
            },
        );
        let it3 = IncompleteTree::new(nodes2, ty2).unwrap();
        assert!(!it3.is_unambiguous());
    }

    #[test]
    fn display_shows_both_parts() {
        let (it, _) = example_2_2();
        let alpha = iixml_tree::Alphabet::from_names(["root", "a", "b"]);
        let s = it.display(&alpha).to_string();
        assert!(s.contains("known data tree:"));
        assert!(s.contains("root n0 = 0"));
        assert!(s.contains("specialized types:"));
        assert!(
            s.contains("(-inf,0) u (0,+inf)"),
            "the star-a condition (!= 0 in interval form) is visible"
        );
    }

    #[test]
    fn trim_drops_unreferenced_nodes() {
        let (it, _) = example_2_2();
        // Add an unreachable symbol targeting a new node.
        let mut nodes = it.nodes.clone();
        nodes.insert(
            Nid(77),
            NodeInfo {
                label: Label(1),
                value: Rat::ZERO,
            },
        );
        let mut ty = it.ty.clone();
        let orphan = ty.add_symbol(SymTarget::Node(Nid(77)), IntervalSet::all());
        ty.set_mu(orphan, Disjunction::leaf());
        let it2 = IncompleteTree::new(nodes, ty).unwrap();
        let trimmed = it2.trim();
        assert!(!trimmed.nodes.contains_key(&Nid(77)));
        assert_eq!(trimmed.nodes.len(), 2);
    }
}
