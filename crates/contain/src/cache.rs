//! The containment-keyed answer cache.
//!
//! Each entry records a query whose *exact* source answer has already
//! been obtained, together with that answer's tree. On lookup, an
//! incoming query `q` is checked for containment in a recorded query
//! `p`; on `q ⊑ p` the cached answer tree is re-evaluated under `q`,
//! which reproduces the source's answer for `q` byte-for-byte (same
//! node ids, same sibling order, same provenance — see the crate
//! docs), so callers can skip the source round-trip entirely.
//!
//! Each entry costs one forced-embedding descent; a scan shares one
//! work stack across its entries, so it allocates nothing per entry.
//! The cache is *sound by construction*: a miss merely costs the
//! normal fetch, and a hit feeds downstream refinement input identical
//! to what the source would have produced.

use crate::{canon, descend, Mismatch};
use iixml_query::{Answer, PsQuery};
use iixml_tree::DataTree;

/// Upper bound on recorded entries; the oldest entry is evicted first.
/// Maximal-element dedup keeps real workloads far below this.
const MAX_ENTRIES: usize = 64;

struct Entry {
    query: PsQuery,
    /// The exact answer tree of `query` at the source (`None` = the
    /// empty answer). Preserves the source's sibling order, which
    /// downstream refinement is sensitive to.
    answer: Option<DataTree>,
}

/// A cache of exactly-answered queries, keyed by containment.
#[derive(Default)]
pub struct AnswerCache {
    entries: Vec<Entry>,
    checks: u64,
    hits: u64,
    fast_rejects: u64,
}

impl AnswerCache {
    /// A fresh, empty cache.
    pub fn new() -> AnswerCache {
        AnswerCache::default()
    }

    /// Tries to answer `q` from recorded knowledge. `Some(answer)` is
    /// byte-identical to what the source would return for `q` right
    /// now; `None` means no recorded query provably subsumes `q`.
    pub fn lookup(&mut self, q: &PsQuery) -> Option<Answer> {
        self.checks += 1;
        // An unsatisfiable query answers empty on every document — no
        // entry needed, and the source would say the same.
        if canon::is_unsatisfiable(q) {
            self.hits += 1;
            return Some(Answer::empty());
        }
        let mut work = Vec::new();
        for e in &self.entries {
            match descend(q, &e.query, &mut work, None) {
                Ok(()) => {
                    self.hits += 1;
                    return Some(match &e.answer {
                        Some(t) => q.eval(t),
                        None => Answer::empty(),
                    });
                }
                Err(Mismatch::Skeleton) => self.fast_rejects += 1,
                Err(_) => {}
            }
        }
        None
    }

    /// Records the exact source answer for `q`. Entries are kept
    /// maximal: recording is skipped when an existing entry already
    /// subsumes `q`, and entries that `q` subsumes are dropped.
    pub fn record(&mut self, q: &PsQuery, ans: &Answer) {
        if canon::is_unsatisfiable(q) {
            return;
        }
        let mut work = Vec::new();
        if self
            .entries
            .iter()
            .any(|e| descend(q, &e.query, &mut work, None).is_ok())
        {
            return;
        }
        // Recorded queries are satisfiable, so the bare descent decides
        // `e ⊑ q` too.
        self.entries
            .retain(|e| descend(&e.query, q, &mut work, None).is_err());
        if self.entries.len() >= MAX_ENTRIES {
            self.entries.remove(0);
        }
        self.entries.push(Entry {
            query: q.clone(),
            answer: ans.tree.clone(),
        });
    }

    /// Drops all entries (knowledge reset / source update /
    /// quarantine). Counters survive for observability.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Containment lookups performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Lookups answered from recorded knowledge.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Entries a lookup's descent rejected with
    /// [`Mismatch::Skeleton`]: the label skeletons differ.
    pub fn fast_rejects(&self) -> u64 {
        self.fast_rejects
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iixml_query::parse_ps_query;
    use iixml_tree::{Alphabet, Nid};
    use iixml_values::Rat;

    /// Ordered rendering: node ids, labels, values and child counts in
    /// preorder, which is exactly what downstream refinement consumes.
    fn render(t: &Option<DataTree>) -> String {
        let Some(t) = t else {
            return String::from("empty");
        };
        let mut out = String::new();
        for n in t.preorder() {
            out.push_str(&format!(
                "{}:{}={}/{};",
                t.nid(n).0,
                t.label(n).0,
                t.value(n),
                t.children(n).len()
            ));
        }
        out
    }

    /// Two products: one at price 120 (camera), one at 250 (cdplayer).
    fn doc(alpha: &mut Alphabet) -> DataTree {
        let cat = alpha.intern("catalog");
        let product = alpha.intern("product");
        let price = alpha.intern("price");
        let name = alpha.intern("name");
        let mut t = DataTree::new(Nid(0), cat, Rat::ZERO);
        let root = t.root();
        let p1 = t.add_child(root, Nid(1), product, Rat::ZERO).unwrap();
        t.add_child(p1, Nid(2), name, Rat::from(100)).unwrap();
        t.add_child(p1, Nid(3), price, Rat::from(120)).unwrap();
        let p2 = t.add_child(root, Nid(4), product, Rat::ZERO).unwrap();
        t.add_child(p2, Nid(5), name, Rat::from(101)).unwrap();
        t.add_child(p2, Nid(6), price, Rat::from(250)).unwrap();
        t
    }

    #[test]
    fn hit_reproduces_the_source_answer_exactly() {
        let mut alpha = Alphabet::new();
        let t = doc(&mut alpha);
        let wide = parse_ps_query("catalog/product{name, price[< 300]}", &mut alpha).unwrap();
        let narrow = parse_ps_query("catalog/product{name, price[< 200]}", &mut alpha).unwrap();
        let mut cache = AnswerCache::new();
        cache.record(&wide, &wide.eval(&t));
        let hit = cache.lookup(&narrow).expect("narrow ⊑ wide");
        let reference = narrow.eval(&t);
        assert_eq!(
            render(&hit.tree),
            render(&reference.tree),
            "hit answer must be byte-identical to the source answer"
        );
        let mut hp: Vec<_> = hit.provenance.iter().collect();
        let mut rp: Vec<_> = reference.provenance.iter().collect();
        hp.sort_by_key(|(n, _)| n.0);
        rp.sort_by_key(|(n, _)| n.0);
        assert_eq!(hp, rp);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.checks(), 1);
    }

    #[test]
    fn miss_on_uncontained_query() {
        let mut alpha = Alphabet::new();
        let t = doc(&mut alpha);
        let narrow = parse_ps_query("catalog/product{name, price[< 200]}", &mut alpha).unwrap();
        let wide = parse_ps_query("catalog/product{name, price[< 300]}", &mut alpha).unwrap();
        let other = parse_ps_query("catalog/vendor", &mut alpha).unwrap();
        let mut cache = AnswerCache::new();
        cache.record(&narrow, &narrow.eval(&t));
        assert!(cache.lookup(&wide).is_none(), "wider query must miss");
        assert!(cache.lookup(&other).is_none(), "other skeleton must miss");
        // Only the skeleton-differing lookup counts as a skeleton reject.
        assert_eq!(cache.fast_rejects(), 1);
    }

    #[test]
    fn empty_recorded_answer_hits_empty() {
        let mut alpha = Alphabet::new();
        let t = doc(&mut alpha);
        let none = parse_ps_query("catalog/product/price[> 1000]", &mut alpha).unwrap();
        let narrower = parse_ps_query("catalog/product/price[> 2000]", &mut alpha).unwrap();
        let mut cache = AnswerCache::new();
        let ans = none.eval(&t);
        assert!(ans.is_empty());
        cache.record(&none, &ans);
        let hit = cache.lookup(&narrower).expect("narrower ⊑ none");
        assert!(hit.is_empty());
    }

    #[test]
    fn unsatisfiable_lookup_hits_without_entries() {
        let mut alpha = Alphabet::new();
        let unsat = parse_ps_query("catalog/price[< 1 & > 2]", &mut alpha).unwrap();
        let mut cache = AnswerCache::new();
        let hit = cache
            .lookup(&unsat)
            .expect("unsat is contained in anything");
        assert!(hit.is_empty());
    }

    #[test]
    fn entries_stay_maximal() {
        let mut alpha = Alphabet::new();
        let t = doc(&mut alpha);
        let narrow = parse_ps_query("catalog/product/price[< 100]", &mut alpha).unwrap();
        let wide = parse_ps_query("catalog/product/price[< 300]", &mut alpha).unwrap();
        let mut cache = AnswerCache::new();
        cache.record(&narrow, &narrow.eval(&t));
        assert_eq!(cache.len(), 1);
        // Recording the wider query replaces the narrower entry.
        cache.record(&wide, &wide.eval(&t));
        assert_eq!(cache.len(), 1);
        // Re-recording a subsumed query is a no-op.
        cache.record(&narrow, &narrow.eval(&t));
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&narrow).is_some());
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.lookup(&narrow).is_none());
    }
}
