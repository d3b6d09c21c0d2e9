//! Data trees (Definition 2.1): finite rooted unordered trees whose nodes
//! carry a label from Σ, a data value from `Q`, and a *persistent node
//! identifier* from the infinite set `N`.

use crate::label::{Alphabet, Label};
use iixml_values::Rat;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A persistent node identifier (an element of the paper's infinite node
/// set `N`).
///
/// Identifiers are global: the answer `q(T)` of a ps-query re-uses the ids
/// of the matched source nodes (Remark 2.4), which is what allows
/// information from consecutive queries to be merged.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Nid(pub u64);

impl fmt::Display for Nid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A deterministic generator of fresh [`Nid`]s.
#[derive(Clone, Debug, Default)]
pub struct NidGen {
    next: u64,
}

impl NidGen {
    /// A generator starting at id 0.
    pub fn new() -> NidGen {
        NidGen::default()
    }

    /// A generator starting at the given id.
    pub fn starting_at(next: u64) -> NidGen {
        NidGen { next }
    }

    /// Produces a fresh identifier.
    pub fn fresh(&mut self) -> Nid {
        let n = Nid(self.next);
        self.next += 1;
        n
    }
}

/// An index into a [`DataTree`]'s node arena. Only meaningful for the tree
/// that produced it; persistent identity across trees is [`Nid`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeRef(pub u32);

impl NodeRef {
    fn ix(self) -> usize {
        self.0 as usize
    }
}

#[derive(Clone, Debug)]
struct NodeData {
    nid: Nid,
    label: Label,
    value: Rat,
    parent: Option<NodeRef>,
    children: Kids,
}

/// Children a node holds in place before they move to the heap.
const INLINE_KIDS: usize = 4;

/// A node's children: up to [`INLINE_KIDS`] in the node itself, more on
/// the heap. Most nodes of a catalog, of a query answer or of a known
/// data tree have a handful of children, so they allocate nothing.
#[derive(Clone, Debug)]
enum Kids {
    Inline(u32, [NodeRef; INLINE_KIDS]),
    Heap(Vec<NodeRef>),
}

impl Kids {
    const NONE: Kids = Kids::Inline(0, [NodeRef(0); INLINE_KIDS]);

    fn as_slice(&self) -> &[NodeRef] {
        match self {
            Kids::Inline(len, kids) => &kids[..*len as usize],
            Kids::Heap(kids) => kids,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [NodeRef] {
        match self {
            Kids::Inline(len, kids) => &mut kids[..*len as usize],
            Kids::Heap(kids) => kids,
        }
    }

    fn push(&mut self, kid: NodeRef) {
        match self {
            Kids::Inline(len, kids) if (*len as usize) < INLINE_KIDS => {
                kids[*len as usize] = kid;
                *len += 1;
            }
            Kids::Inline(_, kids) => {
                let mut heap = Vec::with_capacity(2 * INLINE_KIDS);
                heap.extend_from_slice(kids);
                heap.push(kid);
                *self = Kids::Heap(heap);
            }
            Kids::Heap(kids) => kids.push(kid),
        }
    }
}

/// The hasher of a tree's id index: one multiply and fold per id, as
/// the index is only looked up, never iterated, and ids are plain
/// integers (SipHash would cost more than the lookup it guards).
#[derive(Default)]
struct NidHasher(u64);

impl Hasher for NidHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        // A multiply spreads the id over the high bits; folding them
        // back in lets the table's low-bit bucket index see all of it.
        let h = (self.0 ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

/// A node-id index keyed through [`NidHasher`].
type NidIndex = HashMap<Nid, NodeRef, BuildHasherDefault<NidHasher>>;

/// A data tree: an arena of nodes with a designated root.
///
/// Children are stored in insertion order but the tree is semantically
/// *unordered* (the paper's simplification); all comparisons
/// ([`DataTree::same_tree`], [`DataTree::isomorphic`]) and the prefix
/// relation are order-insensitive.
///
/// ```
/// use iixml_tree::{Alphabet, DataTree, Nid};
/// use iixml_values::Rat;
/// let mut alpha = Alphabet::new();
/// let cat = alpha.intern("catalog");
/// let prod = alpha.intern("product");
/// let mut t = DataTree::new(Nid(0), cat, Rat::ZERO);
/// let p = t.add_child(t.root(), Nid(1), prod, Rat::from(7)).unwrap();
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.label(p), prod);
/// assert_eq!(t.parent(p), Some(t.root()));
/// ```
#[derive(Clone, Debug)]
pub struct DataTree {
    nodes: Vec<NodeData>,
    root: NodeRef,
    by_nid: NidIndex,
}

/// Errors from tree construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// A node with this id already exists in the tree.
    DuplicateNid(Nid),
    /// The referenced parent does not exist.
    BadParent(NodeRef),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::DuplicateNid(n) => write!(f, "duplicate node id {n}"),
            TreeError::BadParent(p) => write!(f, "invalid parent reference {p:?}"),
        }
    }
}

impl std::error::Error for TreeError {}

impl DataTree {
    /// Creates a tree consisting of a single root node.
    pub fn new(nid: Nid, label: Label, value: Rat) -> DataTree {
        DataTree::with_capacity(nid, label, value, 1)
    }

    /// Creates a tree consisting of a single root node, with room for
    /// `capacity` nodes in all.
    pub fn with_capacity(nid: Nid, label: Label, value: Rat, capacity: usize) -> DataTree {
        let root = NodeRef(0);
        let mut by_nid = NidIndex::with_capacity_and_hasher(capacity, Default::default());
        by_nid.insert(nid, root);
        let mut nodes = Vec::with_capacity(capacity.max(1));
        nodes.push(NodeData {
            nid,
            label,
            value,
            parent: None,
            children: Kids::NONE,
        });
        DataTree {
            nodes,
            root,
            by_nid,
        }
    }

    /// Adds a child under `parent` and returns its reference.
    pub fn add_child(
        &mut self,
        parent: NodeRef,
        nid: Nid,
        label: Label,
        value: Rat,
    ) -> Result<NodeRef, TreeError> {
        if parent.ix() >= self.nodes.len() {
            return Err(TreeError::BadParent(parent));
        }
        if self.by_nid.contains_key(&nid) {
            return Err(TreeError::DuplicateNid(nid));
        }
        let r = NodeRef(self.nodes.len() as u32);
        self.nodes.push(NodeData {
            nid,
            label,
            value,
            parent: Some(parent),
            children: Kids::NONE,
        });
        self.nodes[parent.ix()].children.push(r);
        self.by_nid.insert(nid, r);
        Ok(r)
    }

    /// The root reference.
    pub fn root(&self) -> NodeRef {
        self.root
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false: trees have at least a root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The persistent id of a node.
    pub fn nid(&self, n: NodeRef) -> Nid {
        self.nodes[n.ix()].nid
    }

    /// The label of a node.
    pub fn label(&self, n: NodeRef) -> Label {
        self.nodes[n.ix()].label
    }

    /// The data value of a node.
    pub fn value(&self, n: NodeRef) -> Rat {
        self.nodes[n.ix()].value
    }

    /// The parent of a node (`None` for the root).
    pub fn parent(&self, n: NodeRef) -> Option<NodeRef> {
        self.nodes[n.ix()].parent
    }

    /// The children of a node.
    pub fn children(&self, n: NodeRef) -> &[NodeRef] {
        self.nodes[n.ix()].children.as_slice()
    }

    /// The persistent ids of all nodes, in arena order.
    pub fn nids(&self) -> impl Iterator<Item = Nid> + '_ {
        self.nodes.iter().map(|n| n.nid)
    }

    /// Looks up a node by persistent id.
    pub fn by_nid(&self, nid: Nid) -> Option<NodeRef> {
        self.by_nid.get(&nid).copied()
    }

    /// Overwrites a node's label (used when instantiating witnesses of
    /// incomplete trees, where data-node symbols carry their label
    /// out-of-band).
    pub fn set_label(&mut self, n: NodeRef, label: Label) {
        self.nodes[n.ix()].label = label;
    }

    /// Overwrites a node's data value.
    pub fn set_value(&mut self, n: NodeRef, value: Rat) {
        self.nodes[n.ix()].value = value;
    }

    /// Reorders every node's children by ascending node id. The tree is
    /// unordered, so this changes only how it is written out.
    pub fn sort_children_by_nid(&mut self) {
        for i in 0..self.nodes.len() {
            let mut kids = std::mem::replace(&mut self.nodes[i].children, Kids::NONE);
            kids.as_mut_slice()
                .sort_unstable_by_key(|c| self.nodes[c.ix()].nid);
            self.nodes[i].children = kids;
        }
    }

    /// All node references in preorder (root first).
    pub fn preorder(&self) -> Vec<NodeRef> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            out.push(n);
            // Reverse keeps left-to-right insertion order in the output.
            stack.extend(self.children(n).iter().rev());
        }
        out
    }

    /// The depth of the tree (root alone = 1). Iterative, so a tree of
    /// any depth is measured without deep recursion.
    pub fn depth(&self) -> usize {
        let mut deepest = 0;
        let mut stack = vec![(self.root, 1)];
        while let Some((n, d)) = stack.pop() {
            deepest = deepest.max(d);
            stack.extend(self.children(n).iter().map(|&c| (c, d + 1)));
        }
        deepest
    }

    /// Depth of a node below the root (root = 0).
    pub fn node_depth(&self, mut n: NodeRef) -> usize {
        let mut d = 0;
        while let Some(p) = self.parent(n) {
            d += 1;
            n = p;
        }
        d
    }

    /// Extracts the subtree rooted at `n` as a standalone tree (preserving
    /// node ids). Used by local queries `p@n` (Section 3.4).
    pub fn subtree(&self, n: NodeRef) -> DataTree {
        let mut out = DataTree::new(self.nid(n), self.label(n), self.value(n));
        fn copy(src: &DataTree, s: NodeRef, dst: &mut DataTree, d: NodeRef) {
            for &c in src.children(s) {
                let nc = dst
                    .add_child(d, src.nid(c), src.label(c), src.value(c))
                    .expect("source tree has unique nids");
                copy(src, c, dst, nc);
            }
        }
        let out_root = out.root();
        copy(self, n, &mut out, out_root);
        out
    }

    /// Grafts `other` as children of the node with the same root id in
    /// `self`, merging nodes that share ids. Used when a mediator extends
    /// a partial answer with the answers to local queries.
    ///
    /// Returns an error if `other`'s root id is absent from `self`, or if
    /// a shared node disagrees on label or value.
    pub fn graft(&mut self, other: &DataTree) -> Result<(), String> {
        let target = self
            .by_nid(other.nid(other.root()))
            .ok_or_else(|| format!("graft root {} not present", other.nid(other.root())))?;
        self.merge_children(target, other, other.root())
    }

    fn merge_children(
        &mut self,
        here: NodeRef,
        other: &DataTree,
        there: NodeRef,
    ) -> Result<(), String> {
        for &oc in other.children(there) {
            let nid = other.nid(oc);
            let child = match self.by_nid(nid) {
                Some(existing) => {
                    if self.label(existing) != other.label(oc)
                        || self.value(existing) != other.value(oc)
                    {
                        return Err(format!("node {nid} disagrees between trees"));
                    }
                    existing
                }
                None => self
                    .add_child(here, nid, other.label(oc), other.value(oc))
                    .map_err(|e| e.to_string())?,
            };
            self.merge_children(child, other, oc)?;
        }
        Ok(())
    }

    /// A canonical string key for the subtree at `n`: two subtrees have
    /// equal keys iff they are equal as unordered trees *including node
    /// ids*.
    pub fn canonical_key(&self, n: NodeRef) -> String {
        let mut kids: Vec<String> = self
            .children(n)
            .iter()
            .map(|&c| self.canonical_key(c))
            .collect();
        kids.sort();
        format!(
            "({}:{}:{}[{}])",
            self.nid(n),
            self.label(n).0,
            self.value(n),
            kids.join(",")
        )
    }

    /// Like [`DataTree::canonical_key`] but ignoring node ids (for
    /// comparisons "up to node identifiers", Theorem 3.6(ii)).
    pub fn shape_key(&self, n: NodeRef) -> String {
        let mut kids: Vec<String> = self
            .children(n)
            .iter()
            .map(|&c| self.shape_key(c))
            .collect();
        kids.sort();
        format!(
            "({}:{}[{}])",
            self.label(n).0,
            self.value(n),
            kids.join(",")
        )
    }

    /// Equality as unordered trees with node ids. Ids are unique within
    /// a tree, so two trees are equal exactly when they have the same
    /// size and root id and every node has a namesake in the other with
    /// the same label, value and parent id.
    pub fn same_tree(&self, other: &DataTree) -> bool {
        let parent_nid = |t: &DataTree, n: &NodeData| n.parent.map(|p| t.nid(p));
        self.len() == other.len()
            && self.nid(self.root) == other.nid(other.root)
            && self.nodes.iter().all(|n| {
                other.by_nid(n.nid).is_some_and(|o| {
                    let o = &other.nodes[o.ix()];
                    o.label == n.label
                        && o.value == n.value
                        && parent_nid(other, o) == parent_nid(self, n)
                })
            })
    }

    /// Equality as unordered trees up to node ids.
    pub fn isomorphic(&self, other: &DataTree) -> bool {
        self.len() == other.len() && self.shape_key(self.root()) == other.shape_key(other.root())
    }

    /// Pretty-prints the tree with names from `alpha`, one node per line,
    /// indented by depth.
    pub fn display<'a>(&'a self, alpha: &'a Alphabet) -> DisplayTree<'a> {
        DisplayTree { tree: self, alpha }
    }
}

/// Helper returned by [`DataTree::display`].
pub struct DisplayTree<'a> {
    tree: &'a DataTree,
    alpha: &'a Alphabet,
}

impl fmt::Display for DisplayTree<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(
            t: &DataTree,
            alpha: &Alphabet,
            n: NodeRef,
            depth: usize,
            f: &mut fmt::Formatter<'_>,
        ) -> fmt::Result {
            writeln!(
                f,
                "{:indent$}{} {} = {}",
                "",
                alpha.name(t.label(n)),
                t.nid(n),
                t.value(n),
                indent = depth * 2
            )?;
            for &c in t.children(n) {
                go(t, alpha, c, depth + 1, f)?;
            }
            Ok(())
        }
        go(self.tree, self.alpha, self.tree.root(), 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alpha() -> (Alphabet, Label, Label, Label) {
        let mut a = Alphabet::new();
        let r = a.intern("root");
        let x = a.intern("x");
        let y = a.intern("y");
        (a, r, x, y)
    }

    #[test]
    fn build_and_navigate() {
        let (_, r, x, y) = alpha();
        let mut t = DataTree::new(Nid(0), r, Rat::ZERO);
        let a = t.add_child(t.root(), Nid(1), x, Rat::from(1)).unwrap();
        let b = t.add_child(t.root(), Nid(2), y, Rat::from(2)).unwrap();
        let c = t.add_child(a, Nid(3), y, Rat::from(3)).unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t.children(t.root()), &[a, b]);
        assert_eq!(t.parent(c), Some(a));
        assert_eq!(t.node_depth(c), 2);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.by_nid(Nid(3)), Some(c));
        assert_eq!(t.by_nid(Nid(9)), None);
        assert_eq!(t.preorder().len(), 4);
        assert_eq!(t.preorder()[0], t.root());
    }

    #[test]
    fn duplicate_nid_rejected() {
        let (_, r, x, _) = alpha();
        let mut t = DataTree::new(Nid(0), r, Rat::ZERO);
        assert_eq!(
            t.add_child(t.root(), Nid(0), x, Rat::ZERO),
            Err(TreeError::DuplicateNid(Nid(0)))
        );
    }

    #[test]
    fn unordered_equality() {
        let (_, r, x, y) = alpha();
        let mut t1 = DataTree::new(Nid(0), r, Rat::ZERO);
        t1.add_child(t1.root(), Nid(1), x, Rat::from(1)).unwrap();
        t1.add_child(t1.root(), Nid(2), y, Rat::from(2)).unwrap();
        let mut t2 = DataTree::new(Nid(0), r, Rat::ZERO);
        t2.add_child(t2.root(), Nid(2), y, Rat::from(2)).unwrap();
        t2.add_child(t2.root(), Nid(1), x, Rat::from(1)).unwrap();
        assert!(t1.same_tree(&t2));
        assert!(t1.isomorphic(&t2));
        // Different ids, same shape: isomorphic but not same_tree.
        let mut t3 = DataTree::new(Nid(7), r, Rat::ZERO);
        t3.add_child(t3.root(), Nid(8), x, Rat::from(1)).unwrap();
        t3.add_child(t3.root(), Nid(9), y, Rat::from(2)).unwrap();
        assert!(!t1.same_tree(&t3));
        assert!(t1.isomorphic(&t3));
        // Different value: neither.
        let mut t4 = DataTree::new(Nid(0), r, Rat::ZERO);
        t4.add_child(t4.root(), Nid(1), x, Rat::from(5)).unwrap();
        t4.add_child(t4.root(), Nid(2), y, Rat::from(2)).unwrap();
        assert!(!t1.same_tree(&t4));
        assert!(!t1.isomorphic(&t4));
    }

    #[test]
    fn subtree_extraction() {
        let (_, r, x, y) = alpha();
        let mut t = DataTree::new(Nid(0), r, Rat::ZERO);
        let a = t.add_child(t.root(), Nid(1), x, Rat::from(1)).unwrap();
        t.add_child(a, Nid(2), y, Rat::from(2)).unwrap();
        t.add_child(t.root(), Nid(3), y, Rat::from(3)).unwrap();
        let s = t.subtree(a);
        assert_eq!(s.len(), 2);
        assert_eq!(s.nid(s.root()), Nid(1));
        assert_eq!(s.children(s.root()).len(), 1);
    }

    #[test]
    fn graft_merges_shared_nodes() {
        let (_, r, x, y) = alpha();
        let mut base = DataTree::new(Nid(0), r, Rat::ZERO);
        let a = base
            .add_child(base.root(), Nid(1), x, Rat::from(1))
            .unwrap();
        // `extra` is a subtree rooted at the node with id 1, adding a new
        // child under it.
        let mut extra = DataTree::new(Nid(1), x, Rat::from(1));
        extra
            .add_child(extra.root(), Nid(5), y, Rat::from(9))
            .unwrap();
        base.graft(&extra).unwrap();
        assert_eq!(base.len(), 3);
        assert_eq!(base.children(a).len(), 1);
        // Grafting again is idempotent (node 5 already merged).
        base.graft(&extra).unwrap();
        assert_eq!(base.len(), 3);
    }

    #[test]
    fn graft_rejects_conflicts() {
        let (_, r, x, _) = alpha();
        let mut base = DataTree::new(Nid(0), r, Rat::ZERO);
        base.add_child(base.root(), Nid(1), x, Rat::from(1))
            .unwrap();
        // Conflicting value for node 1's child id reused as root? Root id
        // 9 absent entirely:
        let stray = DataTree::new(Nid(9), x, Rat::from(1));
        assert!(base.graft(&stray).is_err());
        // Value conflict on shared node id.
        let mut conflict = DataTree::new(Nid(0), r, Rat::ZERO);
        conflict
            .add_child(conflict.root(), Nid(1), x, Rat::from(42))
            .unwrap();
        assert!(base.graft(&conflict).is_err());
    }

    #[test]
    fn nid_gen_is_sequential() {
        let mut g = NidGen::new();
        assert_eq!(g.fresh(), Nid(0));
        assert_eq!(g.fresh(), Nid(1));
        let mut g = NidGen::starting_at(100);
        assert_eq!(g.fresh(), Nid(100));
    }

    #[test]
    fn display_is_indented() {
        let (a, r, x, _) = alpha();
        let mut t = DataTree::new(Nid(0), r, Rat::ZERO);
        t.add_child(t.root(), Nid(1), x, Rat::from(1)).unwrap();
        let s = t.display(&a).to_string();
        assert!(s.contains("root n0 = 0"));
        assert!(s.contains("  x n1 = 1"));
    }
}
