//! Equivalence of the ID-interned kernel pipeline with the preserved
//! structural reference paths, over seeded random workloads.
//!
//! The shipping `refine::intersect` and `IncompleteTree::minimize` run
//! sequentially on interned `u32` ids (dense pair tables, hash-consed
//! atom and signature interners, one reused scratch value per call);
//! the `*_reference` twins are the verbatim pre-interning code. The
//! determinism argument (DESIGN.md §13) says the two must agree to the
//! byte at every worker width — these properties pin that end-to-end on
//! random catalog chains, at widths 1 and 4, plus the id-stability leg:
//! rebuilding the intern tables from an identical type must reproduce
//! identical ids (allocation order is first-encounter in symbol order,
//! never hash-map iteration order).
//!
//! CI runs this file across the thread matrix (`IIXML_PAR_THREADS`
//! 1/4/8), so a width-dependent divergence that slips past the explicit
//! widths here still fails the build.

use iixml_core::intern::InternedType;
use iixml_core::io::write_incomplete_xml;
use iixml_core::refine::{intersect, intersect_reference, query_answer_tree};
use iixml_core::IncompleteTree;
use iixml_gen::testkit::check_with;
use iixml_gen::{catalog, random_queries, Catalog};
use iixml_query::PsQuery;

/// Runs the same random refine chain through both pipelines at one
/// worker width and serializes both final knowledge bases.
fn both_pipelines_serialized(width: usize, c: &Catalog, queries: &[PsQuery]) -> (String, String) {
    iixml_par::set_threads(Some(width));
    let labels: Vec<_> = c.alpha.labels().collect();
    let names: Vec<&str> = labels.iter().map(|&l| c.alpha.name(l)).collect();
    let mut fast = IncompleteTree::universal(&labels, &names);
    let mut slow = fast.clone();
    for q in queries {
        let tqa = query_answer_tree(q, &q.eval(&c.doc), &c.alpha).unwrap();
        fast = intersect(&fast, &tqa).unwrap().trim();
        slow = intersect_reference(&slow, &tqa).unwrap().trim();
    }
    let out = (
        write_incomplete_xml(&fast.minimize(), &c.alpha),
        write_incomplete_xml(&slow.minimize_reference(), &c.alpha),
    );
    iixml_par::set_threads(None);
    out
}

/// The interned intersect+minimize pipeline serializes byte-identically
/// to the structural reference path, at widths 1 and 4 — and the two
/// widths agree with each other.
#[test]
fn interned_pipeline_matches_reference_across_widths() {
    check_with(
        "interned_pipeline_matches_reference_across_widths",
        6,
        |rng| {
            let seed = rng.below(500);
            let nq = rng.range_usize(1, 4);
            let c = catalog(3, seed);
            let root = c.alpha.get("catalog").unwrap();
            let queries = random_queries(&c.alpha, &c.ty, root, nq, 300, seed ^ 0x1D5);
            let (fast1, slow1) = both_pipelines_serialized(1, &c, &queries);
            assert_eq!(fast1, slow1, "width 1: interned diverged from reference");
            let (fast4, slow4) = both_pipelines_serialized(4, &c, &queries);
            assert_eq!(fast4, slow4, "width 4: interned diverged from reference");
            assert_eq!(fast1, fast4, "interned pipeline diverged between widths");
            assert!(!fast1.is_empty());
        },
    );
}

/// Interner ids are a pure function of the input type: building the
/// intern tables twice — from the same tree and from an independently
/// reconstructed identical tree — yields identical atom/disjunction id
/// assignments, µ vectors included.
#[test]
fn interner_ids_are_stable_across_runs_with_same_seed() {
    check_with(
        "interner_ids_are_stable_across_runs_with_same_seed",
        6,
        |rng| {
            let seed = rng.below(500);
            let build_knowledge = || {
                let c = catalog(3, seed);
                let root = c.alpha.get("catalog").unwrap();
                let queries = random_queries(&c.alpha, &c.ty, root, 2, 300, seed ^ 0x5EED);
                let labels: Vec<_> = c.alpha.labels().collect();
                let names: Vec<&str> = labels.iter().map(|&l| c.alpha.name(l)).collect();
                let mut cur = IncompleteTree::universal(&labels, &names);
                for q in &queries {
                    let tqa = query_answer_tree(q, &q.eval(&c.doc), &c.alpha).unwrap();
                    cur = intersect(&cur, &tqa).unwrap().trim();
                }
                cur
            };
            let t1 = build_knowledge();
            let t2 = build_knowledge();
            let i1 = InternedType::build(t1.ty());
            let i2 = InternedType::build(t2.ty());
            // Same dense id spaces, same µ ids, same interned content.
            assert_eq!(i1.mu, i2.mu, "µ disjunction ids differ between runs");
            assert_eq!(i1.table.atom_count(), i2.table.atom_count());
            assert_eq!(i1.table.disj_count(), i2.table.disj_count());
            for (d1, d2) in i1.mu.iter().zip(&i2.mu) {
                let (a1s, a2s) = (i1.table.disj(*d1), i2.table.disj(*d2));
                assert_eq!(a1s, a2s, "atom id lists differ for equal µ ids");
                for (a1, a2) in a1s.iter().zip(a2s) {
                    assert_eq!(i1.table.atom(*a1), i2.table.atom(*a2));
                }
            }
            // And building from the *same* instance twice is trivially
            // stable too (no hidden global state in the interner).
            let again = InternedType::build(t1.ty());
            assert_eq!(i1.mu, again.mu);
        },
    );
}
