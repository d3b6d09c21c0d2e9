//! E9–E11, E13: querying incomplete trees and the mediator.
//!
//! * E9 (Theorem 3.14): `q(T)` construction time in |T| and in |Σ| (the
//!   exponential-in-Σ DNF step);
//! * E10 (Corollary 3.15): full-answerability checks, and the whole
//!   local Ask path (`q(T)`, answerability, the answer) on a fully
//!   fetched typed session;
//! * E11 (Theorem 3.19): completion generation;
//! * E13 (Section 4): extended-query evaluation with branching
//!   (the factorial matching space).

use iixml_bench::harness::Harness;
use iixml_bench::refined_catalog;
use iixml_extensions::xquery::{Modality, XQueryBuilder};
use iixml_gen::{catalog, catalog_query_camera_pictures};
use iixml_mediator::Mediator;
use iixml_query::parse_ps_query;
use iixml_tree::{Alphabet, DataTree, Nid};
use iixml_values::{Cond, Rat};
use iixml_webhouse::{Session, Source};

fn bench_query_incomplete(h: &mut Harness) {
    let mut g = h.group("E9_query_incomplete");
    g.sample_size(10);
    for products in [5usize, 20, 80] {
        let (mut cat, knowledge) = refined_catalog(products, 11);
        let q = catalog_query_camera_pictures(&mut cat.alpha);
        g.bench(format!("qT/{products}"), || knowledge.query(&q));
    }
}

fn bench_answerability(h: &mut Harness) {
    let mut g = h.group("E10_answerability");
    g.sample_size(10);
    for products in [5usize, 20, 80] {
        let (mut cat, knowledge) = refined_catalog(products, 13);
        let q = catalog_query_camera_pictures(&mut cat.alpha);
        g.bench(format!("fully_answerable/{products}"), || {
            knowledge.query(&q).fully_answerable()
        });
    }
    // The serve Ask path on the shape where it answers locally: a typed
    // session whose 32-product catalog is fully fetched (the rows above
    // use the untyped `refined_catalog`, never fully answerable).
    let c = catalog(32, 13);
    let mut alpha = c.alpha.clone();
    let full = parse_ps_query("catalog/product{name, price, cat/subcat}", &mut alpha).unwrap();
    let ask = parse_ps_query("catalog/product{name, price[< 250]}", &mut alpha).unwrap();
    let mut session = Session::open(alpha, Source::new(c.doc, Some(c.ty)));
    session.fetch(&full).unwrap();
    let knowledge = session.knowledge();
    assert!(knowledge.query(&ask).fully_answerable());
    g.bench("ask_path/32", || {
        let qt = knowledge.query(&ask);
        qt.fully_answerable() && qt.the_answer().is_some()
    });
}

fn bench_mediator(h: &mut Harness) {
    let mut g = h.group("E11_mediator");
    g.sample_size(10);
    for products in [5usize, 20, 80] {
        let (mut cat, knowledge) = refined_catalog(products, 17);
        let q = catalog_query_camera_pictures(&mut cat.alpha);
        g.bench(format!("complete/{products}"), || {
            let med = Mediator::new(&knowledge);
            med.complete(&q).queries.len()
        });
    }
}

/// The Section 4 branching example: root with n `a(b=i)` children, query
/// branching over all n values — the n! assignment space the paper uses
/// to show q(T) explodes with branching.
fn bench_branching(h: &mut Harness) {
    let mut g = h.group("E13_branching_eval");
    g.sample_size(10);
    for n in [2usize, 4, 6] {
        let mut alpha = Alphabet::new();
        let root = alpha.intern("root");
        let a = alpha.intern("a");
        let b_l = alpha.intern("b");
        let mut t = DataTree::new(Nid(0), root, Rat::ZERO);
        for i in 0..n {
            let an = t
                .add_child(t.root(), Nid(1 + 2 * i as u64), a, Rat::ZERO)
                .unwrap();
            t.add_child(an, Nid(2 + 2 * i as u64), b_l, Rat::from(i as i64 + 1))
                .unwrap();
        }
        let mut bld = XQueryBuilder::new(&mut alpha, "root", Cond::True);
        let broot = bld.root();
        for i in 0..n {
            let an = bld.child(broot, "a", Cond::True, Modality::Plain);
            bld.child(an, "b", Cond::eq(Rat::from(i as i64 + 1)), Modality::Plain);
        }
        let q = bld.build();
        g.bench(format!("valuations/{n}"), || q.valuations(&t).len());
    }
}

fn bench_pebble(h: &mut Harness) {
    // E17 (Theorem 4.2 flavor): pebble-automaton acceptance on growing
    // trees: the configuration space is states × nodes^k.
    use iixml_extensions::pebble::{BinTree, PebbleAutomaton};
    let mut g = h.group("E17_pebble");
    g.sample_size(10);
    for products in [5usize, 20, 80] {
        let cat = iixml_gen::catalog(products, 23);
        let bt = BinTree::from_unranked(&cat.doc);
        let picture = cat.alpha.get("picture").unwrap();
        let a1 = PebbleAutomaton::exists_label(picture);
        let a2 = PebbleAutomaton::two_distinct_labeled(picture);
        g.bench(format!("one_pebble/{products}"), || a1.accepts(&bt));
        g.bench(format!("two_pebbles/{products}"), || a2.accepts(&bt));
    }
}

fn main() {
    let mut h = Harness::from_args();
    bench_query_incomplete(&mut h);
    bench_answerability(&mut h);
    bench_mediator(&mut h);
    bench_branching(&mut h);
    bench_pebble(&mut h);
    h.finish();
}
