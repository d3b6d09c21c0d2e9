//! Property tests for bisimulation minimization: it must preserve `rep`
//! exactly on incomplete trees arising from real Refine chains, while
//! never growing the representation.

use iixml_core::refine::{intersect, query_answer_tree};
use iixml_gen::testkit::check_with;
use iixml_gen::{
    catalog, catalog_query_camera_pictures, catalog_query_price_below, random_queries,
};
use iixml_oracle::mutations;

/// Membership agrees before and after minimization on dozens of
/// probes (the source, its mutations, and witnesses).
#[test]
fn minimization_preserves_membership() {
    check_with("minimization_preserves_membership", 12, |rng| {
        let seed = rng.below(400);
        let nq = rng.range_usize(1, 3);
        let c = catalog(3, seed);
        let root = c.alpha.get("catalog").unwrap();
        let queries = random_queries(&c.alpha, &c.ty, root, nq, 300, seed ^ 0x5A5A);
        // Build WITHOUT the Refiner (which minimizes internally): raw
        // intersection chain.
        let labels: Vec<_> = c.alpha.labels().collect();
        let mut cur = iixml_core::IncompleteTree::universal(&labels);
        for q in &queries {
            let tqa = query_answer_tree(q, &q.eval(&c.doc), &c.alpha).unwrap();
            cur = intersect(&cur, &tqa).unwrap().trim();
        }
        let minimized = cur.minimize();
        assert!(minimized.size() <= cur.size(), "never grows");
        let mut probes = mutations(&c.doc, &labels);
        probes.push(c.doc.clone());
        probes.truncate(40);
        for p in &probes {
            assert_eq!(
                cur.contains(p),
                minimized.contains(p),
                "membership changed by minimization"
            );
        }
        // Witnesses cross over.
        let mut gen = iixml_tree::NidGen::starting_at(2_000_000);
        if let Some(w) = cur.witness(&mut gen) {
            assert!(minimized.contains(&w));
        }
        if let Some(w) = minimized.witness(&mut gen) {
            assert!(cur.contains(&w));
        }
    });
}

/// Minimization commutes with the prefix predicates.
#[test]
fn minimization_preserves_prefix_predicates() {
    check_with("minimization_preserves_prefix_predicates", 12, |rng| {
        let seed = rng.below(400);
        let mut c = catalog(3, seed);
        let q1 = catalog_query_price_below(&mut c.alpha, 250);
        let q2 = catalog_query_camera_pictures(&mut c.alpha);
        let labels: Vec<_> = c.alpha.labels().collect();
        let mut cur = iixml_core::IncompleteTree::universal(&labels);
        for q in [&q1, &q2] {
            let tqa = query_answer_tree(q, &q.eval(&c.doc), &c.alpha).unwrap();
            cur = intersect(&cur, &tqa).unwrap().trim();
        }
        let minimized = cur.minimize();
        if let Some(td) = cur.data_tree() {
            assert_eq!(cur.certain_prefix(&td), minimized.certain_prefix(&td));
            assert_eq!(cur.possible_prefix(&td), minimized.possible_prefix(&td));
            for m in mutations(&td, &labels).into_iter().take(15) {
                assert_eq!(
                    cur.possible_prefix(&m),
                    minimized.possible_prefix(&m),
                    "possible_prefix changed"
                );
                assert_eq!(
                    cur.certain_prefix(&m),
                    minimized.certain_prefix(&m),
                    "certain_prefix changed"
                );
            }
        }
    });
}
