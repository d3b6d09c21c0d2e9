//! The fast path of `refine::intersect_certified` against the general
//! construction, on seeded random trim pairs.
//!
//! A pair is knowledge a Refine chain left (trim, from the universal
//! tree or restricted to the source type) and the trimmed `T_{q,A}` of
//! a random query, on catalogs (`1`/`⋆` entries) and on libraries,
//! whose type adds `?` and `+` entries. A typed start lists each atom
//! with a `?` entry next to the same atom without it, which hides a
//! join that drops the second alternative, so half of the knowledge
//! keeps only the first alternative of every µ. Two properties:
//!
//! * the label-keyed copy equals the ⋊⋉ join, atom for atom: the
//!   shipping product, which copies wherever a `T_{q,A}` atom is all
//!   `⋆` with one entry per label and the knowledge atom has no `?`
//!   entry, is exactly the root-reachable part of `iixml-oracle`'s
//!   `intersect_reference`, which runs the ⋊⋉ join on every atom pair;
//! * whenever the certificate lets `Refiner::refine` skip
//!   `minimized()` (the product is trim and `minimal_if_trim` holds),
//!   `minimized()` borrows that product.
//!
//! The run must copy atoms, join atoms whose knowledge side has a `?`
//! entry, and use the certificate, so inputs that stop exercising the
//! fast path fail here.

use iixml_core::refine::{intersect_certified, query_answer_tree};
use iixml_core::type_intersect::restrict_to_type;
use iixml_core::{ConditionalTreeType, Disjunction, IncompleteTree, Refiner};
use iixml_gen::rng::DetRng;
use iixml_gen::testkit::check_with;
use iixml_gen::{catalog, library, random_queries, Catalog};
use iixml_oracle::{intersect_reference, root_reachable};
use iixml_tree::Mult;
use std::borrow::Cow;

/// What the cases exercised.
#[derive(Default, Debug)]
struct Seen {
    copies: usize,
    optional_knowledge: usize,
    certified: usize,
}

/// A random source (catalog or library) and trim knowledge of it: a
/// Refine chain of up to three random queries from the universal or
/// the typed tree.
fn knowledge(rng: &mut DetRng) -> (Catalog, IncompleteTree) {
    let seed = rng.below(1_000);
    let c = if rng.bool(0.5) {
        catalog(rng.range_usize(2, 5), seed)
    } else {
        library(rng.range_usize(2, 5), seed)
    };
    let labels: Vec<_> = c.alpha.labels().collect();
    let universal = IncompleteTree::universal(&labels);
    let start = if rng.bool(0.7) {
        restrict_to_type(&universal, &c.ty)
    } else {
        universal
    };
    let root = c.doc.label(c.doc.root());
    let steps = rng.range_usize(0, 4);
    let queries = random_queries(&c.alpha, &c.ty, root, steps, 60, seed ^ 0xCE27);
    let mut refiner = Refiner::from_tree(start);
    for q in &queries {
        refiner.refine(&c.alpha, q, &q.eval(&c.doc)).unwrap();
    }
    let known = refiner.current().clone();
    (c, known)
}

/// `t` with only the first alternative of every µ, trimmed.
fn first_alternatives(t: &IncompleteTree) -> IncompleteTree {
    let ty = t.ty();
    let mut out = ConditionalTreeType::new();
    for s in ty.syms() {
        let info = ty.info(s);
        out.add_symbol(info.target, info.cond.clone());
    }
    for s in ty.syms() {
        let first = ty.mu(s).atoms().iter().take(1).cloned().collect();
        out.set_mu(s, Disjunction(first));
    }
    out.set_roots(ty.roots().to_vec());
    IncompleteTree::new(t.nodes().clone(), out).unwrap().trim()
}

#[test]
fn copies_and_certificates_match_the_general_construction() {
    let mut seen = Seen::default();
    check_with("refine_certificate_random_pairs", 48, |rng| {
        let (c, t1) = knowledge(rng);
        let t1 = if rng.bool(0.5) {
            first_alternatives(&t1)
        } else {
            t1
        };
        assert!(
            matches!(t1.trimmed(), Cow::Borrowed(_)),
            "knowledge is trim"
        );
        let root = c.doc.label(c.doc.root());
        let q = random_queries(&c.alpha, &c.ty, root, 1, 60, rng.next_u64())
            .pop()
            .unwrap();
        let t2 = query_answer_tree(&q, &q.eval(&c.doc), &c.alpha)
            .unwrap()
            .trim();

        let product = intersect_certified(&t1, &t2).unwrap();
        let reference = root_reachable(&intersect_reference(&t1, &t2).unwrap());
        assert_eq!(
            format!("{:?}", product.tree),
            format!("{reference:?}"),
            "the shipping product is not the joined reference product"
        );
        seen.copies += product.copies;
        let ty = t1.ty();
        let optional = ty.syms().any(|s| {
            ty.mu(s)
                .atoms()
                .iter()
                .any(|a| a.entries().iter().any(|&(_, m)| m == Mult::Opt))
        });
        seen.optional_knowledge += usize::from(optional);

        let trimmed = product.tree.trimmed();
        if product.minimal_if_trim && matches!(trimmed, Cow::Borrowed(_)) {
            assert!(
                matches!(product.tree.minimized(), Cow::Borrowed(_)),
                "minimize rebuilt a product the certificate shows minimal"
            );
            seen.certified += 1;
        }
    });
    assert!(seen.copies > 0, "no atom was copied: {seen:?}");
    assert!(
        seen.optional_knowledge > 0,
        "no knowledge had a `?` entry: {seen:?}"
    );
    assert!(
        seen.certified > 0,
        "the certificate never applied: {seen:?}"
    );
}
