//! E1–E3: foundations.
//!
//! * E1 (Lemma 2.3): condition → interval normal form, PTIME in the
//!   number of constants;
//! * E2 (Lemma 2.5): emptiness of conditional tree types, PTIME in the
//!   type size;
//! * E3 (Theorem 2.8): certain/possible prefix checks, PTIME in the
//!   candidate tree size.

use iixml_bench::harness::Harness;
use iixml_bench::refined_catalog;
use iixml_core::{ConditionalTreeType, Disjunction, SAtom, SymTarget};
use iixml_gen::catalog_query_price_below;
use iixml_tree::{Label, Mult};
use iixml_values::{Cond, IntervalSet, Rat};

fn bench_conditions(h: &mut Harness) {
    let mut g = h.group("E1_conditions");
    g.sample_size(20);
    for n in [4usize, 16, 64, 256] {
        // Alternating conjunction/disjunction over n constants.
        let mut cond = Cond::True;
        for i in 0..n as i64 {
            let atom = if i % 2 == 0 {
                Cond::ne(Rat::from(i))
            } else {
                Cond::lt(Rat::from(10 * i)).or(Cond::gt(Rat::from(10 * i + 5)))
            };
            cond = cond.and(atom);
        }
        g.bench(format!("normalize/{n}"), || cond.to_intervals());
    }
}

/// A deep chain type: root -> l1+, l1 -> l2+, ..., with an unproductive
/// tail to exercise the fixpoint.
fn chain_type(depth: usize) -> ConditionalTreeType {
    let mut ty = ConditionalTreeType::new();
    let syms: Vec<_> = (0..depth)
        .map(|i| ty.add_symbol(SymTarget::Lab(Label(i as u32)), IntervalSet::all()))
        .collect();
    for (i, &s) in syms.iter().enumerate() {
        if i + 1 < depth {
            ty.set_mu(
                s,
                Disjunction(vec![
                    SAtom::new(vec![(syms[i + 1], Mult::Plus)]),
                    SAtom::new(vec![(syms[i + 1], Mult::One), (s, Mult::Star)]),
                ]),
            );
        } else {
            ty.set_mu(s, Disjunction::leaf());
        }
    }
    ty.add_root(syms[0]);
    ty
}

fn bench_emptiness(h: &mut Harness) {
    let mut g = h.group("E2_emptiness");
    g.sample_size(20);
    for depth in [8usize, 32, 128, 512] {
        let ty = chain_type(depth);
        assert!(!ty.is_empty());
        g.bench(format!("chain/{depth}"), || ty.is_empty());
    }
}

fn bench_prefix(h: &mut Harness) {
    let mut g = h.group("E3_prefix");
    g.sample_size(10);
    for products in [5usize, 20, 80] {
        let (_cat, knowledge) = refined_catalog(products, 7);
        let td = knowledge.data_tree().expect("view answered something");
        g.bench(format!("certain/{products}"), || {
            knowledge.certain_prefix(&td)
        });
        g.bench(format!("possible/{products}"), || {
            knowledge.possible_prefix(&td)
        });
    }
}

fn bench_membership(h: &mut Harness) {
    // Exact membership (rep ∋ tree) via circulation, used throughout
    // the test oracle: PTIME in |T| × |Σ'|.
    let mut g = h.group("E2b_membership");
    g.sample_size(10);
    for products in [5usize, 20, 80] {
        let (cat, knowledge) = refined_catalog(products, 7);
        g.bench(format!("contains_source/{products}"), || {
            knowledge.contains(&cat.doc)
        });
    }
}

fn bench_type_restriction(h: &mut Harness) {
    // Theorem 3.5 at growing knowledge sizes.
    let mut g = h.group("E2c_type_restriction");
    g.sample_size(10);
    for products in [5usize, 20, 80] {
        let (cat, knowledge) = refined_catalog(products, 7);
        g.bench(format!("restrict/{products}"), || {
            iixml_core::type_intersect::restrict_to_type(&knowledge, &cat.ty)
        });
    }
}

fn bench_minimize(h: &mut Harness) {
    let mut g = h.group("E2d_minimize");
    g.sample_size(10);
    for products in [5usize, 20, 80] {
        let (mut cat, knowledge) = refined_catalog(products, 7);
        // One more refinement to create mergeable structure.
        let q2 = catalog_query_price_below(&mut cat.alpha, 400);
        let mut refiner = iixml_core::Refiner::from_tree(knowledge);
        refiner.refine(&cat.alpha, &q2, &q2.eval(&cat.doc)).unwrap();
        let tree = refiner.current().clone();
        g.bench(format!("minimize/{products}"), || tree.minimize());
    }
}

fn main() {
    let mut h = Harness::from_args();
    bench_conditions(&mut h);
    bench_emptiness(&mut h);
    bench_prefix(&mut h);
    bench_membership(&mut h);
    bench_type_restriction(&mut h);
    bench_minimize(&mut h);
    h.finish();
}
