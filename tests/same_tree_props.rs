//! `DataTree::same_tree` against canonical-key equality.
//!
//! `same_tree` compares two trees by id: ids are unique within a tree,
//! so the trees are equal as unordered trees with ids exactly when they
//! have the same size and root id and each node has a namesake in the
//! other tree with the same label, value and parent id. The reference is
//! the canonical string key (`canonical_key`), which sorts each node's
//! children. On random trees, both must agree on the tree itself, on
//! the tree rebuilt with every node's children permuted, and on copies
//! with one changed label, value, parent or id — which the two must
//! also both call different.

use iixml_gen::rng::DetRng;
use iixml_gen::testkit::check;
use iixml_tree::{DataTree, Label, Nid};
use iixml_values::Rat;

/// One node of a tree description: id, label, value, parent index.
#[derive(Clone, Copy, Debug)]
struct Spec {
    nid: Nid,
    label: Label,
    value: Rat,
    parent: Option<usize>,
}

/// A random tree description: a few small labels and values, so
/// near-equal trees are common, and sometimes a wide node, so children
/// outgrow a node's inline room.
fn random_specs(rng: &mut DetRng) -> Vec<Spec> {
    let n = rng.range_usize(1, 24);
    let wide = rng.bool(0.5);
    let mut ids: Vec<u64> = (0..3 * n as u64).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.below(i as u64 + 1) as usize);
    }
    (0..n)
        .map(|i| Spec {
            nid: Nid(ids[i]),
            label: Label(rng.below(3) as u32),
            value: Rat::from(rng.range_i64(0, 3)),
            parent: (i > 0).then(|| {
                if wide {
                    rng.below(i.min(2) as u64) as usize
                } else {
                    rng.below(i as u64) as usize
                }
            }),
        })
        .collect()
}

/// Builds the tree `specs` describes; with `shuffle`, every node's
/// children are added in a random order.
fn build(specs: &[Spec], shuffle: Option<&mut DetRng>) -> DataTree {
    let root = specs
        .iter()
        .position(|s| s.parent.is_none())
        .expect("a root");
    let mut t = DataTree::new(specs[root].nid, specs[root].label, specs[root].value);
    let mut rng = shuffle;
    let mut stack = vec![(root, t.root())];
    while let Some((i, at)) = stack.pop() {
        let mut kids: Vec<usize> = (0..specs.len())
            .filter(|&k| specs[k].parent == Some(i))
            .collect();
        if let Some(rng) = rng.as_deref_mut() {
            for j in (1..kids.len()).rev() {
                kids.swap(j, rng.below(j as u64 + 1) as usize);
            }
        }
        for k in kids {
            let s = specs[k];
            let r = t.add_child(at, s.nid, s.label, s.value).unwrap();
            stack.push((k, r));
        }
    }
    assert_eq!(t.len(), specs.len(), "every node is reachable");
    t
}

fn canonical_eq(a: &DataTree, b: &DataTree) -> bool {
    a.len() == b.len() && a.canonical_key(a.root()) == b.canonical_key(b.root())
}

/// `same_tree` agrees with the canonical keys, and says `want`.
fn agree(a: &DataTree, b: &DataTree, want: bool, what: &str) {
    assert_eq!(canonical_eq(a, b), want, "{what}: canonical keys");
    assert_eq!(a.same_tree(b), want, "{what}: same_tree");
    assert_eq!(b.same_tree(a), want, "{what}: same_tree reversed");
}

/// Is `k` in the subtree of `i`?
fn descends(specs: &[Spec], mut k: usize, i: usize) -> bool {
    loop {
        if k == i {
            return true;
        }
        match specs[k].parent {
            Some(p) => k = p,
            None => return false,
        }
    }
}

#[test]
fn same_tree_agrees_with_canonical_keys() {
    let mut changed = [0usize; 4];
    check("same_tree_agrees_with_canonical_keys", |rng| {
        let specs = random_specs(rng);
        let t = build(&specs, None);
        agree(&t, &t.clone(), true, "clone");
        agree(&t, &build(&specs, Some(rng)), true, "permuted children");

        let k = rng.below(specs.len() as u64) as usize;
        let mut relabeled = specs.clone();
        relabeled[k].label = Label((specs[k].label.0 + 1) % 3);
        agree(&t, &build(&relabeled, Some(rng)), false, "changed label");
        changed[0] += 1;

        let mut revalued = specs.clone();
        revalued[k].value = specs[k].value + Rat::from(1);
        agree(&t, &build(&revalued, Some(rng)), false, "changed value");
        changed[1] += 1;

        let mut renamed = specs.clone();
        let fresh = specs.iter().map(|s| s.nid.0).max().unwrap_or(0) + 1;
        renamed[k].nid = Nid(fresh);
        agree(&t, &build(&renamed, Some(rng)), false, "changed id");
        changed[2] += 1;

        // A non-root node moved under a node outside its own subtree.
        if let Some(old) = specs[k].parent {
            let targets: Vec<usize> = (0..specs.len())
                .filter(|&p| p != old && !descends(&specs, p, k))
                .collect();
            if !targets.is_empty() {
                let mut moved = specs.clone();
                moved[k].parent = Some(*rng.choose(&targets));
                agree(&t, &build(&moved, Some(rng)), false, "changed parent");
                changed[3] += 1;
            }
        }
    });
    assert!(
        changed.iter().all(|&c| c > 0),
        "every kind of change was tried: {changed:?}"
    );
}
