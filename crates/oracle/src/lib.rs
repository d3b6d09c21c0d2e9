#![warn(missing_docs)]

//! Brute-force reference semantics for testing.
//!
//! The efficient algorithms of `iixml-core` (Refine, certain/possible
//! prefixes, `q(T)`, …) are all statements about the possible-world set
//! `rep(T)`. This crate provides the slow-but-obviously-correct
//! counterparts used as oracles in tests:
//!
//! * [`enumerate_rep`] — bounded exhaustive enumeration of `rep(T)` by
//!   direct expansion of the conditional tree type (multiplicities capped,
//!   data values drawn from condition-derived representatives, mirroring
//!   the finite-check argument of Lemma 2.3);
//! * [`mutations`] — a neighborhood of a concrete tree (drop a node,
//!   perturb a value, duplicate a subtree, relabel) used to probe
//!   membership predicates from both sides;
//! * reference implementations of possible/certain prefix over an
//!   explicit world list;
//! * [`intersect_reference`] — the structural product of Lemma 3.3 as it
//!   was before the shipping kernel's tables and shortcuts, and
//!   [`root_reachable`] — an incomplete tree cut down to the symbols its
//!   roots reach, the shape `refine::intersect` returns next to that full
//!   product;
//! * [`minimize_reference`] — the structural bisimulation minimization
//!   as it was before the shipping partition ran on interned ids;
//! * [`parse_incomplete_xml_reference`] — the knowledge-text parser as it
//!   was before its single-pass rewrite;
//! * [`match_sets_reference`] — the Poss/Cert sets of Theorem 3.14 as
//!   they were computed before symbols carried their labels.

use iixml_core::{ConditionalTreeType, Disjunction, IncompleteTree, SAtom, Sym, SymTarget};
use iixml_obs::{keys, LazyCounter, LazyHistogram};
use iixml_tree::{is_prefix_of, DataTree, Nid, NodeRef};
use iixml_values::{IntervalSet, Rat};
use std::collections::{HashMap, HashSet};

mod knowledge_text;
mod match_sets;
mod minimize;
mod reference;
pub use knowledge_text::parse_incomplete_xml_reference;
pub use match_sets::{match_sets_reference, MatchSetsReference};
pub use minimize::minimize_reference;
pub use reference::intersect_reference;

/// Bounds for exhaustive enumeration.
#[derive(Clone, Copy, Debug)]
pub struct Bounds {
    /// Cap on instances of a `+`/`⋆` entry (0..=cap or 1..=cap).
    pub star_cap: usize,
    /// Maximum tree depth (root = 1).
    pub max_depth: usize,
    /// Hard cap on the number of enumerated worlds (enumeration stops —
    /// and [`Enumeration::truncated`] is set — once reached).
    pub max_worlds: usize,
    /// How many representative values to draw per condition interval.
    pub values_per_interval: usize,
}

impl Default for Bounds {
    fn default() -> Bounds {
        Bounds {
            star_cap: 2,
            max_depth: 4,
            max_worlds: 20_000,
            values_per_interval: 1,
        }
    }
}

/// The result of a bounded enumeration.
#[derive(Clone, Debug)]
pub struct Enumeration {
    /// The worlds found (complete up to the bounds unless truncated).
    pub worlds: Vec<DataTree>,
    /// True when `max_worlds` cut the enumeration short.
    pub truncated: bool,
}

/// Representative values of a condition: a witness from each interval
/// (plus endpoints where closed), mirroring Lemma 2.3's argument that
/// checking finitely many values suffices.
pub fn representatives(set: &IntervalSet, per_interval: usize) -> Vec<Rat> {
    let mut out = Vec::new();
    for iv in set.intervals() {
        out.push(iv.witness());
        if per_interval > 1 {
            // A second point inside the interval when one exists.
            let w = iv.witness();
            let next = w + Rat::new(1, 7);
            if iv.contains(next) {
                out.push(next);
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// A partially-built fragment during enumeration: a standalone tree.
type Fragment = DataTree;

/// Enumerates (a bounded, representative subset of) `rep(T)`.
///
/// The enumeration is exhaustive with respect to the bounds: every tree
/// in `rep(T)` whose star-entry counts are `<= star_cap`, whose depth is
/// `<= max_depth`, and whose free values are among the condition
/// representatives appears (up to node ids of non-instantiated nodes).
pub fn enumerate_rep(it: &IncompleteTree, bounds: Bounds) -> Enumeration {
    /// Worlds returned per enumeration (after dedup).
    static OBS_WORLDS: LazyHistogram = LazyHistogram::new(keys::ORACLE_ENUMERATE_WORLDS);
    /// Enumerations that hit a bound and were cut short.
    static OBS_TRUNCATIONS: LazyCounter = LazyCounter::new(keys::ORACLE_ENUMERATE_TRUNCATIONS);
    /// Wall time per enumeration.
    static OBS_ENUM_NS: LazyHistogram = LazyHistogram::new(keys::ORACLE_ENUMERATE_CALL_NS);

    let _span = OBS_ENUM_NS.time();
    let trimmed = it.trim();
    let ty = trimmed.ty();
    let mut truncated = false;
    let mut worlds: Vec<DataTree> = Vec::new();
    for &root in ty.roots() {
        let frags = expand(&trimmed, root, bounds.max_depth, &bounds, &mut truncated);
        for f in frags {
            if worlds.len() >= bounds.max_worlds {
                truncated = true;
                break;
            }
            worlds.push(f);
        }
    }
    // Re-id the non-instantiated nodes deterministically and dedupe.
    let mut seen = HashSet::new();
    let mut unique = Vec::new();
    for w in worlds {
        let key = w.canonical_key(w.root());
        if seen.insert(key) {
            unique.push(w);
        }
    }
    OBS_WORLDS.observe(unique.len() as u64);
    if truncated {
        OBS_TRUNCATIONS.incr();
    }
    Enumeration {
        worlds: unique,
        truncated,
    }
}

/// All fragments rooted at a node typed `s`, up to `depth` levels.
fn expand(
    it: &IncompleteTree,
    s: Sym,
    depth: usize,
    bounds: &Bounds,
    truncated: &mut bool,
) -> Vec<Fragment> {
    if depth == 0 {
        *truncated = true;
        return Vec::new();
    }
    let ty = it.ty();
    let info = ty.info(s);
    let values = representatives(&info.cond, bounds.values_per_interval);
    let mut out = Vec::new();
    for &v in &values {
        for atom in ty.mu(s).atoms() {
            // Per entry: list of (child fragment lists) for each allowed
            // count.
            let mut child_options: Vec<Vec<Vec<Fragment>>> = Vec::new();
            for &(c, m) in atom.entries() {
                let sub = expand(it, c, depth - 1, bounds, truncated);
                let counts: Vec<usize> = match m {
                    iixml_tree::Mult::One => vec![1],
                    iixml_tree::Mult::Opt => vec![0, 1],
                    iixml_tree::Mult::Plus => (1..=bounds.star_cap).collect(),
                    iixml_tree::Mult::Star => (0..=bounds.star_cap).collect(),
                };
                // Options for this entry: multisets of `count` fragments.
                let mut opts: Vec<Vec<Fragment>> = Vec::new();
                for count in counts {
                    multisets(&sub, count, &mut Vec::new(), 0, &mut opts);
                }
                if opts.is_empty() {
                    // Entry mandatory but no fragments: atom dead for
                    // this choice.
                }
                child_options.push(opts);
            }
            // Cartesian product across entries.
            let mut combos: Vec<Vec<Fragment>> = vec![Vec::new()];
            for opts in &child_options {
                let mut next = Vec::new();
                for combo in &combos {
                    for opt in opts {
                        if combo.len() + opt.len() > 16 {
                            *truncated = true;
                            continue;
                        }
                        let mut c: Vec<Fragment> = combo.clone();
                        c.extend(opt.iter().cloned());
                        next.push(c);
                    }
                }
                combos = next;
                if combos.len() > bounds.max_worlds {
                    *truncated = true;
                    combos.truncate(bounds.max_worlds);
                }
            }
            for combo in combos {
                out.push(assemble(it, s, v, &combo));
                if out.len() > bounds.max_worlds {
                    *truncated = true;
                    return out;
                }
            }
        }
    }
    out
}

/// Choose `count` fragments from `pool` with repetition, order-insensitive.
fn multisets(
    pool: &[Fragment],
    count: usize,
    acc: &mut Vec<usize>,
    from: usize,
    out: &mut Vec<Vec<Fragment>>,
) {
    if count == 0 {
        out.push(acc.iter().map(|&i| pool[i].clone()).collect());
        return;
    }
    for i in from..pool.len() {
        acc.push(i);
        multisets(pool, count - 1, acc, i, out);
        acc.pop();
    }
}

/// Builds a fragment: a root node typed `s` with the given child
/// fragments grafted under it. Node ids: instantiated nodes keep theirs;
/// others are assigned fresh ids on a per-fragment basis (rewritten to be
/// globally unique at assembly).
fn assemble(it: &IncompleteTree, s: Sym, value: Rat, children: &[Fragment]) -> Fragment {
    let info = it.ty().info(s);
    let (nid, label) = match info.target {
        SymTarget::Node(n) => (
            n,
            it.node_info(n)
                .expect("node symbols reference known nodes")
                .label,
        ),
        SymTarget::Lab(l) => {
            // A free root: pick an id guaranteed not to clash with any
            // instantiated node (renumbered again when grafted under a
            // parent fragment).
            let mut id = 900_000_000u64;
            while it.nodes().contains_key(&Nid(id)) {
                id += 1;
            }
            (Nid(id), l)
        }
    };
    let mut t = DataTree::new(nid, label, value);
    let mut next_free = 1_000_000u64;
    // Re-id helper: copy a fragment under the root, keeping instantiated
    // ids and renumbering free ones.
    fn copy(
        src: &DataTree,
        sn: NodeRef,
        dst: &mut DataTree,
        dn: NodeRef,
        it: &IncompleteTree,
        next_free: &mut u64,
    ) {
        for &c in src.children(sn) {
            let id = src.nid(c);
            let id = if it.nodes().contains_key(&id) {
                id
            } else {
                *next_free += 1;
                Nid(*next_free)
            };
            let nc = dst
                .add_child(dn, id, src.label(c), src.value(c))
                .expect("fresh ids are unique");
            copy(src, c, dst, nc, it, next_free);
        }
    }
    // The fragment roots themselves:
    for ch in children {
        let id = ch.nid(ch.root());
        let id = if it.nodes().contains_key(&id) {
            id
        } else {
            next_free += 1;
            Nid(next_free)
        };
        let root = t.root();
        let nc = t
            .add_child(root, id, ch.label(ch.root()), ch.value(ch.root()))
            .expect("fresh ids are unique");
        copy(ch, ch.root(), &mut t, nc, it, &mut next_free);
    }
    t
}

/// Counts the *derivations* of bounded worlds of `rep(T)` without
/// materializing them: per symbol, the number of choices of
/// representative value, atom, per-entry multiplicity count, and child
/// derivations (multisets with repetition). Saturating `u128`.
///
/// This upper-bounds the number of bounded worlds (overlapping
/// disjunctions may derive the same world twice). Note the measure's
/// granularity follows the conditions present (each interval contributes
/// one representative), so it is *not* monotone under refinement — use
/// [`log2_worlds`] with a fixed integer domain for an uncertainty meter.
pub fn count_derivations(it: &IncompleteTree, bounds: Bounds) -> u128 {
    let trimmed = it.trim();
    let ty = trimmed.ty();
    let mut memo: HashMap<(Sym, usize), u128> = HashMap::new();
    fn binom(n: u128, k: u128) -> u128 {
        // C(n + k - 1, k): multisets of size k from n variants.
        if k == 0 {
            return 1;
        }
        if n == 0 {
            return 0;
        }
        let mut acc: u128 = 1;
        for i in 0..k {
            acc = acc.saturating_mul((n + k - 1).saturating_sub(i));
            acc /= i + 1;
            if acc > u128::MAX / 2 {
                return u128::MAX / 2; // saturate early
            }
        }
        acc
    }
    fn go(
        it: &IncompleteTree,
        s: Sym,
        depth: usize,
        bounds: &Bounds,
        memo: &mut HashMap<(Sym, usize), u128>,
    ) -> u128 {
        if depth == 0 {
            return 0;
        }
        if let Some(&c) = memo.get(&(s, depth)) {
            return c;
        }
        memo.insert((s, depth), 0); // cycle guard
        let ty = it.ty();
        let values = representatives(&ty.info(s).cond, bounds.values_per_interval).len() as u128;
        let mut per_atom_sum: u128 = 0;
        for atom in ty.mu(s).atoms() {
            let mut prod: u128 = 1;
            for &(c, m) in atom.entries() {
                let variants = go(it, c, depth - 1, bounds, memo);
                let counts: Vec<u128> = match m {
                    iixml_tree::Mult::One => vec![1],
                    iixml_tree::Mult::Opt => vec![0, 1],
                    iixml_tree::Mult::Plus => (1..=bounds.star_cap as u128).collect(),
                    iixml_tree::Mult::Star => (0..=bounds.star_cap as u128).collect(),
                };
                let entry_total: u128 = counts
                    .into_iter()
                    .map(|k| binom(variants, k))
                    .fold(0u128, u128::saturating_add);
                prod = prod.saturating_mul(entry_total);
                if prod == 0 {
                    break;
                }
            }
            per_atom_sum = per_atom_sum.saturating_add(prod);
        }
        let total = values.saturating_mul(per_atom_sum);
        memo.insert((s, depth), total);
        total
    }
    ty.roots()
        .iter()
        .map(|&r| go(&trimmed, r, bounds.max_depth, &bounds.clone(), &mut memo))
        .fold(0u128, u128::saturating_add)
}

/// The log₂ of the number of bounded possible-world derivations of
/// `rep(T)` over the **fixed integer value domain** `[lo, hi]` — an
/// uncertainty meter for Webhouse sessions.
///
/// Unlike [`count_derivations`] (whose representative-value granularity
/// depends on the conditions present), the value domain here is fixed,
/// so the measure is monotone under refinement: more knowledge can only
/// remove worlds. Computed in the log domain to avoid overflow; returns
/// `f64::NEG_INFINITY` when no bounded world exists.
pub fn log2_worlds(
    it: &IncompleteTree,
    lo: i64,
    hi: i64,
    star_cap: usize,
    max_depth: usize,
) -> f64 {
    let trimmed = it.trim();
    let ty = trimmed.ty();
    let mut memo: HashMap<(Sym, usize), f64> = HashMap::new();

    fn log2_sum(xs: impl IntoIterator<Item = f64>) -> f64 {
        let xs: Vec<f64> = xs.into_iter().filter(|x| x.is_finite()).collect();
        let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if !m.is_finite() {
            return f64::NEG_INFINITY;
        }
        m + xs.iter().map(|x| (x - m).exp2()).sum::<f64>().log2()
    }

    // log₂ of the number of size-k multisets from 2^variants_l
    // variants: C(n + k - 1, k).
    fn log2_multisets(variants_l: f64, k: usize) -> f64 {
        if k == 0 {
            return 0.0;
        }
        if !variants_l.is_finite() {
            return f64::NEG_INFINITY;
        }
        if variants_l > 40.0 {
            // n overwhelms k: C(n+k-1, k) ≈ n^k / k!.
            let log2_kfact: f64 = (1..=k).map(|i| (i as f64).log2()).sum();
            return (k as f64) * variants_l - log2_kfact;
        }
        let n = variants_l.exp2().round() as u128;
        if n == 0 {
            return f64::NEG_INFINITY;
        }
        let mut acc = 0.0f64;
        for i in 0..k as u128 {
            acc += ((n + k as u128 - 1 - i) as f64).log2() - ((i + 1) as f64).log2();
        }
        acc
    }

    #[allow(clippy::too_many_arguments)]
    fn go(
        it: &IncompleteTree,
        s: Sym,
        depth: usize,
        lo: i64,
        hi: i64,
        star_cap: usize,
        memo: &mut HashMap<(Sym, usize), f64>,
    ) -> f64 {
        if depth == 0 {
            return f64::NEG_INFINITY;
        }
        if let Some(&c) = memo.get(&(s, depth)) {
            return c;
        }
        memo.insert((s, depth), f64::NEG_INFINITY); // cycle guard
        let ty = it.ty();
        let nvals = ty.info(s).cond.count_integers(lo, hi);
        if nvals == 0 {
            return f64::NEG_INFINITY;
        }
        let values_l = (nvals as f64).log2();
        let atom_logs: Vec<f64> = ty
            .mu(s)
            .atoms()
            .iter()
            .map(|atom| {
                let mut prod = 0.0f64;
                for &(c, m) in atom.entries() {
                    let variants_l = go(it, c, depth - 1, lo, hi, star_cap, memo);
                    let counts: Vec<usize> = match m {
                        iixml_tree::Mult::One => vec![1],
                        iixml_tree::Mult::Opt => vec![0, 1],
                        iixml_tree::Mult::Plus => (1..=star_cap).collect(),
                        iixml_tree::Mult::Star => (0..=star_cap).collect(),
                    };
                    let entry_l =
                        log2_sum(counts.into_iter().map(|k| log2_multisets(variants_l, k)));
                    prod += entry_l;
                    if !prod.is_finite() {
                        break;
                    }
                }
                prod
            })
            .collect();
        let total = values_l + log2_sum(atom_logs);
        memo.insert((s, depth), total);
        total
    }

    log2_sum(
        ty.roots()
            .iter()
            .map(|&r| go(&trimmed, r, max_depth, lo, hi, star_cap, &mut memo))
            .collect::<Vec<_>>(),
    )
}

/// The log₂ of the number of (ordered) derivations of trees in `rep(T)`
/// with at most `max_nodes` nodes and integer values in `[lo, hi]`.
///
/// "Ordered derivation" = a tree together with an ordering of each
/// node's children and a typing; each tree is counted with a
/// tree-intrinsic multiplicity, so the measure behaves monotonically
/// under refinement in practice (a smaller `rep` has fewer derivations)
/// — the node budget, unlike a per-entry star cap, is
/// representation-independent. Returns `NEG_INFINITY` when no bounded
/// world exists.
pub fn log2_sized_worlds(it: &IncompleteTree, lo: i64, hi: i64, max_nodes: usize) -> f64 {
    // Counts can reach 10^800+, so the whole DP runs in the log₂
    // domain: a cell holds log₂(count), NEG_INFINITY means zero.
    const ZERO: f64 = f64::NEG_INFINITY;
    fn ladd(a: f64, b: f64) -> f64 {
        // log₂(2^a + 2^b)
        if a == ZERO {
            return b;
        }
        if b == ZERO {
            return a;
        }
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        hi + (1.0 + (lo - hi).exp2()).log2()
    }
    let trimmed = it.trim();
    let ty = trimmed.ty();
    let ns = ty.sym_count();
    let b = max_nodes;
    // w[s][k] = log₂(#derivations of k-node trees rooted at symbol s).
    let mut w = vec![vec![ZERO; b + 1]; ns];
    // Iterate to a fixpoint: tree height is bounded by node count, so
    // `max_nodes` rounds suffice.
    for _round in 0..b {
        let mut next = vec![vec![ZERO; b + 1]; ns];
        for s in ty.syms() {
            let nvals = ty.info(s).cond.count_integers(lo, hi);
            if nvals == 0 {
                continue;
            }
            let lvals = (nvals as f64).log2();
            for atom in ty.mu(s).atoms() {
                // children[c] = log₂(ways to fill the atom, c nodes).
                let mut children = vec![ZERO; b];
                children[0] = 0.0;
                for &(cs, m) in atom.entries() {
                    let child = &w[cs.ix()];
                    // series[c] = log₂(ways for this entry: c nodes).
                    let mut series = vec![ZERO; b];
                    if !m.mandatory() {
                        series[0] = 0.0;
                    }
                    let max_k = if m.repeatable() { b } else { 1 };
                    let mut power = vec![ZERO; b];
                    power[0] = 0.0; // child^0
                    for _k in 1..=max_k {
                        let mut nextp = vec![ZERO; b];
                        for (i, &pi) in power.iter().enumerate() {
                            if pi == ZERO {
                                continue;
                            }
                            for (j, &cj) in child.iter().enumerate() {
                                if cj != ZERO && i + j < b {
                                    nextp[i + j] = ladd(nextp[i + j], pi + cj);
                                }
                            }
                        }
                        power = nextp;
                        let mut any = false;
                        for (c, &pc) in power.iter().enumerate() {
                            if pc != ZERO {
                                series[c] = ladd(series[c], pc);
                                any = true;
                            }
                        }
                        if !any {
                            break; // children too large for the budget
                        }
                    }
                    // children ⊗ series.
                    let mut combined = vec![ZERO; b];
                    for (i, &ci) in children.iter().enumerate() {
                        if ci == ZERO {
                            continue;
                        }
                        for (j, &sj) in series.iter().enumerate() {
                            if sj != ZERO && i + j < b {
                                combined[i + j] = ladd(combined[i + j], ci + sj);
                            }
                        }
                    }
                    children = combined;
                }
                for (c, &ways) in children.iter().enumerate() {
                    if ways != ZERO {
                        next[s.ix()][c + 1] = ladd(next[s.ix()][c + 1], lvals + ways);
                    }
                }
            }
        }
        if next == w {
            break;
        }
        w = next;
    }
    let mut total = ZERO;
    for &r in ty.roots() {
        for &cell in &w[r.ix()] {
            total = ladd(total, cell);
        }
    }
    total
}

/// `it` restricted to the symbols reachable from its roots through any
/// atom entry (productive or not), kept in their old relative order;
/// data nodes are left as they are.
pub fn root_reachable(it: &IncompleteTree) -> IncompleteTree {
    let ty = it.ty();
    let mut seen = vec![false; ty.sym_count()];
    let mut stack: Vec<Sym> = Vec::new();
    for &r in ty.roots() {
        if !std::mem::replace(&mut seen[r.ix()], true) {
            stack.push(r);
        }
    }
    while let Some(s) = stack.pop() {
        for atom in ty.mu(s).atoms() {
            for &(c, _) in atom.entries() {
                if !std::mem::replace(&mut seen[c.ix()], true) {
                    stack.push(c);
                }
            }
        }
    }
    let mut out = ConditionalTreeType::new();
    let mut number: Vec<Option<Sym>> = vec![None; ty.sym_count()];
    for s in ty.syms().filter(|s| seen[s.ix()]) {
        let info = ty.info(s);
        number[s.ix()] = Some(out.add_symbol(info.target, info.cond.clone()));
    }
    for s in ty.syms() {
        let Some(ns) = number[s.ix()] else { continue };
        let atoms = ty
            .mu(s)
            .atoms()
            .iter()
            .map(|a| {
                SAtom::new(
                    a.entries()
                        .iter()
                        .filter_map(|&(c, m)| Some((number[c.ix()]?, m)))
                        .collect(),
                )
            })
            .collect();
        out.set_mu(ns, Disjunction(atoms));
    }
    out.set_roots(ty.roots().iter().filter_map(|r| number[r.ix()]).collect());
    IncompleteTree::new(it.nodes().clone(), out).expect("the data nodes are unchanged")
}

/// Reference possible-prefix: scan the world list.
pub fn oracle_possible_prefix(worlds: &[DataTree], t: &DataTree, pinned: &HashSet<Nid>) -> bool {
    worlds.iter().any(|w| is_prefix_of(t, w, pinned))
}

/// Reference certain-prefix: nonempty world list, all embedding.
pub fn oracle_certain_prefix(worlds: &[DataTree], t: &DataTree, pinned: &HashSet<Nid>) -> bool {
    !worlds.is_empty() && worlds.iter().all(|w| is_prefix_of(t, w, pinned))
}

/// Structural mutations of a tree, for probing membership predicates:
/// value perturbations, node drops, subtree duplications (with fresh
/// ids), and label swaps.
pub fn mutations(t: &DataTree, labels: &[iixml_tree::Label]) -> Vec<DataTree> {
    let mut out = Vec::new();
    let nodes = t.preorder();
    // Value perturbations.
    for &n in &nodes {
        for delta in [Rat::ONE, -Rat::ONE, Rat::new(1, 2)] {
            let mut m = t.clone();
            let r = m.by_nid(t.nid(n)).unwrap();
            m.set_value(r, t.value(n) + delta);
            out.push(m);
        }
    }
    // Drop a (non-root) subtree: rebuild without it.
    for &n in &nodes {
        if t.parent(n).is_none() {
            continue;
        }
        let skip = t.nid(n);
        let mut m = DataTree::new(t.nid(t.root()), t.label(t.root()), t.value(t.root()));
        fn rebuild(src: &DataTree, sn: NodeRef, dst: &mut DataTree, dn: NodeRef, skip: Nid) {
            for &c in src.children(sn) {
                if src.nid(c) == skip {
                    continue;
                }
                let nc = dst
                    .add_child(dn, src.nid(c), src.label(c), src.value(c))
                    .unwrap();
                rebuild(src, c, dst, nc, skip);
            }
        }
        let root = m.root();
        rebuild(t, t.root(), &mut m, root, skip);
        out.push(m);
    }
    // Duplicate a non-root leaf with a fresh id.
    let mut fresh = 5_000_000u64;
    for &n in &nodes {
        if let Some(p) = t.parent(n) {
            if t.children(n).is_empty() {
                let mut m = t.clone();
                let pr = m.by_nid(t.nid(p)).unwrap();
                fresh += 1;
                m.add_child(pr, Nid(fresh), t.label(n), t.value(n)).unwrap();
                out.push(m);
            }
        }
    }
    // Relabel a node.
    for &n in &nodes {
        for &l in labels {
            if l != t.label(n) {
                let mut m = t.clone();
                let r = m.by_nid(t.nid(n)).unwrap();
                m.set_label(r, l);
                out.push(m);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iixml_core::{ConditionalTreeType, Disjunction, NodeInfo, SAtom};
    use iixml_tree::{Label, Mult};
    use iixml_values::Cond;
    use std::collections::BTreeMap;

    /// Example 2.2 again: r(root,=0) with data child n(a,=0), extra
    /// a != 0 children, b's below any a.
    fn example() -> IncompleteTree {
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
        IncompleteTree::new(nodes, ty).unwrap()
    }

    #[test]
    fn enumeration_members_are_in_rep() {
        let it = example();
        let e = enumerate_rep(
            &it,
            Bounds {
                star_cap: 1,
                max_depth: 3,
                max_worlds: 500,
                values_per_interval: 1,
            },
        );
        assert!(!e.worlds.is_empty());
        for w in &e.worlds {
            assert!(it.contains(w), "enumerated world must be in rep:\n{w:?}");
        }
    }

    #[test]
    fn enumeration_counts_small_case() {
        let it = example();
        // star_cap=1, depth 3: r always has n; optionally one extra a
        // (values: witness of !=0 per interval: two intervals -> two
        // candidate values); n may have 0..1 b; extra a may have 0..1 b;
        // b values: one representative.
        let e = enumerate_rep(
            &it,
            Bounds {
                star_cap: 1,
                max_depth: 3,
                max_worlds: 10_000,
                values_per_interval: 1,
            },
        );
        assert!(!e.truncated);
        // n: {0,1} b-children = 2 variants. extra a: absent, or present
        // with 2 values × 2 b-variants = 4; total 2 × (1 + 4) = 10.
        assert_eq!(e.worlds.len(), 10);
    }

    #[test]
    fn prefix_oracle_agrees_with_algorithm() {
        let it = example();
        let e = enumerate_rep(
            &it,
            Bounds {
                star_cap: 1,
                max_depth: 3,
                max_worlds: 10_000,
                values_per_interval: 2,
            },
        );
        let pinned: HashSet<Nid> = it.nodes().keys().copied().collect();
        // Candidate prefixes: data tree, root-only, and mutations.
        let mut candidates = vec![it.data_tree().unwrap()];
        candidates.push(DataTree::new(Nid(0), Label(0), Rat::ZERO));
        let labels = [Label(0), Label(1), Label(2)];
        let base = it.data_tree().unwrap();
        candidates.extend(mutations(&base, &labels));
        for t in &candidates {
            let alg_poss = it.possible_prefix(t);
            let oracle_poss = oracle_possible_prefix(&e.worlds, t, &pinned);
            // The enumeration is bounded: the oracle can miss possible
            // worlds, so only check one-sided implication there; certain
            // is checked two-sided against the enumerated set when the
            // algorithm claims certainty.
            if oracle_poss {
                assert!(
                    alg_poss,
                    "oracle found a world but algorithm denies:\n{t:?}"
                );
            }
            if it.certain_prefix(t) {
                assert!(
                    oracle_certain_prefix(&e.worlds, t, &pinned),
                    "algorithm claims certain but an enumerated world disagrees:\n{t:?}"
                );
            }
        }
    }

    #[test]
    fn derivation_count_matches_enumeration_on_example() {
        let it = example();
        let bounds = Bounds {
            star_cap: 1,
            max_depth: 3,
            max_worlds: 10_000,
            values_per_interval: 1,
        };
        let e = enumerate_rep(&it, bounds);
        assert!(!e.truncated);
        // This type has no overlapping disjunctions, so the derivation
        // count equals the (deduplicated) world count.
        assert_eq!(count_derivations(&it, bounds), e.worlds.len() as u128);
    }

    #[test]
    fn derivation_count_shrinks_with_knowledge() {
        // The universal tree has astronomically more derivations than a
        // refined one over the same alphabet.
        use iixml_tree::Label;
        let labels = [Label(0), Label(1), Label(2)];
        let universal = IncompleteTree::universal(&labels);
        let refined = example();
        let bounds = Bounds {
            star_cap: 1,
            max_depth: 3,
            max_worlds: 10_000,
            values_per_interval: 1,
        };
        let u = count_derivations(&universal, bounds);
        let r = count_derivations(&refined, bounds);
        assert!(u > r, "universal {u} vs refined {r}");
        assert!(r > 0);
    }

    #[test]
    fn sized_world_count_exact_small_case() {
        // root[a?]: values in {0,1} for both labels. Trees with <= 2
        // nodes: root alone (2 values) + root-with-a (2 × 2): 6 total.
        use iixml_core::{ConditionalTreeType, Disjunction, SAtom};
        let mut ty = ConditionalTreeType::new();
        let r = ty.add_symbol(SymTarget::Lab(iixml_tree::Label(0)), IntervalSet::all());
        let a = ty.add_symbol(SymTarget::Lab(iixml_tree::Label(1)), IntervalSet::all());
        ty.set_mu(
            r,
            Disjunction::single(SAtom::new(vec![(a, iixml_tree::Mult::Opt)])),
        );
        ty.set_mu(a, Disjunction::leaf());
        ty.add_root(r);
        let it = IncompleteTree::new(std::collections::BTreeMap::new(), ty).unwrap();
        let got = log2_sized_worlds(&it, 0, 1, 2);
        assert!((got - 6.0f64.log2()).abs() < 1e-9, "got 2^{got}");
        // Budget 1: only the bare root (2 values).
        let got1 = log2_sized_worlds(&it, 0, 1, 1);
        assert!((got1 - 1.0).abs() < 1e-9, "got 2^{got1}");
        // Empty value domain: no worlds.
        assert_eq!(log2_sized_worlds(&it, 5, 4, 3), f64::NEG_INFINITY);
    }

    #[test]
    fn log2_worlds_exact_small_case() {
        // Same root[a?] type, per-entry cap instead of a node budget:
        // with depth 2 and cap 1 the same 6 worlds are counted.
        use iixml_core::{ConditionalTreeType, Disjunction, SAtom};
        let mut ty = ConditionalTreeType::new();
        let r = ty.add_symbol(SymTarget::Lab(iixml_tree::Label(0)), IntervalSet::all());
        let a = ty.add_symbol(SymTarget::Lab(iixml_tree::Label(1)), IntervalSet::all());
        ty.set_mu(
            r,
            Disjunction::single(SAtom::new(vec![(a, iixml_tree::Mult::Opt)])),
        );
        ty.set_mu(a, Disjunction::leaf());
        ty.add_root(r);
        let it = IncompleteTree::new(std::collections::BTreeMap::new(), ty).unwrap();
        let got = log2_worlds(&it, 0, 1, 1, 2);
        assert!((got - 6.0f64.log2()).abs() < 1e-9, "got 2^{got}");
        // Depth 1: the mandatory-free root alone (2 values).
        let got1 = log2_worlds(&it, 0, 1, 1, 1);
        assert!((got1 - 1.0).abs() < 1e-9, "got 2^{got1}");
        // Empty value domain: no worlds.
        assert_eq!(log2_worlds(&it, 3, 2, 1, 2), f64::NEG_INFINITY);
        // Sanity on Example 2.2: a nonempty rep yields a finite,
        // positive bit count over a small integer domain.
        let it = example();
        let bits = log2_worlds(&it, 0, 1, 1, 3);
        assert!(bits.is_finite() && bits > 0.0);
    }

    #[test]
    fn sized_world_count_decreases_under_refinement() {
        use iixml_core::Refiner;
        use iixml_gen::{catalog, catalog_query_price_below};
        let mut c = catalog(5, 3);
        let labels: Vec<_> = c.alpha.labels().collect();
        let universal = IncompleteTree::universal(&labels);
        let before = log2_sized_worlds(&universal, 0, 20_000, 40);
        let q = catalog_query_price_below(&mut c.alpha, 250);
        let mut refiner = Refiner::new(&c.alpha);
        refiner.refine(&c.alpha, &q, &q.eval(&c.doc)).unwrap();
        let after = log2_sized_worlds(refiner.current(), 0, 20_000, 40);
        assert!(
            after < before,
            "knowledge must shrink the world count: {before} -> {after}"
        );
        assert!(after.is_finite(), "the source is still represented");
    }

    #[test]
    fn mutations_produce_variety() {
        let base = example().data_tree().unwrap();
        let muts = mutations(&base, &[Label(0), Label(1), Label(2)]);
        assert!(muts.len() > 5);
        // At least one mutation leaves rep (value change on node n).
        let it = example();
        assert!(muts.iter().any(|m| !it.contains(m)));
    }
}
