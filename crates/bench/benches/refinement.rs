//! E4, E5, E7, E8: Algorithm Refine and the size landscape.
//!
//! * E4 (Theorem 3.4): per-step Refine cost on growing catalogs;
//! * E5 (Example 3.2 / Corollary 3.9): the adversarial family — plain
//!   Refine (exponential) vs Refine⁺ (linear);
//! * E7 (Lemma 3.12): linear-query chains stay cheap;
//! * E8 (Proposition 3.13): auxiliary queries tame the blowup.

use iixml_bench::harness::Harness;
use iixml_bench::{
    auxiliary_chain_size, blowup_alphabet, conjunctive_blowup_sizes, linear_chain_sizes,
    refine_blowup_sizes,
};
use iixml_core::{ConjunctiveTree, Refiner};
use iixml_gen::{blowup_queries, catalog, catalog_query_price_below};
use iixml_query::Answer;

fn bench_refine_catalog(h: &mut Harness) {
    let mut g = h.group("E4_refine_catalog");
    g.sample_size(10);
    for products in [5usize, 20, 80] {
        let mut cat = catalog(products, 3);
        let q = catalog_query_price_below(&mut cat.alpha, 250);
        let ans = q.eval(&cat.doc);
        g.bench(format!("one_step/{products}"), || {
            let mut refiner = Refiner::new(&cat.alpha);
            refiner.refine(&cat.alpha, &q, &ans).unwrap();
            refiner.current().size()
        });
    }
}

fn bench_blowup(h: &mut Harness) {
    let mut g = h.group("E5_blowup");
    g.sample_size(10);
    for n in [3usize, 5, 7] {
        g.bench(format!("refine_exponential/{n}"), || {
            refine_blowup_sizes(n).last().copied()
        });
    }
    for n in [3usize, 7, 12, 24] {
        g.bench(format!("refine_plus_linear/{n}"), || {
            conjunctive_blowup_sizes(n).last().copied()
        });
    }
}

fn bench_linear_queries(h: &mut Harness) {
    let mut g = h.group("E7_linear_queries");
    g.sample_size(10);
    for n in [4usize, 8, 16] {
        g.bench(format!("chain/{n}"), || {
            linear_chain_sizes(n).last().copied()
        });
    }
}

fn bench_auxiliary(h: &mut Harness) {
    let mut g = h.group("E8_auxiliary_queries");
    g.sample_size(10);
    for n in [4usize, 6, 8] {
        g.bench(format!("aided_chain/{n}"), || auxiliary_chain_size(n));
    }
}

fn bench_conjunctive_emptiness(h: &mut Harness) {
    // E6 (Theorem 3.10): emptiness of conjunctive trees via the
    // fold-and-prune search; consistent chains stay fast, the cost
    // lives in the product expansion.
    let mut g = h.group("E6_conjunctive_emptiness");
    g.sample_size(10);
    for n in [2usize, 4, 6] {
        let mut alpha = blowup_alphabet();
        let queries = blowup_queries(&mut alpha, n);
        let mut conj = ConjunctiveTree::new(&alpha);
        for q in &queries {
            conj.refine(&alpha, q, &Answer::empty()).unwrap();
        }
        g.bench(format!("is_empty/{n}"), || conj.is_empty());
    }
    // Contrast: membership in the same conjunctive trees is PTIME.
    for n in [2usize, 4, 6] {
        let mut alpha = blowup_alphabet();
        let queries = blowup_queries(&mut alpha, n);
        let mut conj = ConjunctiveTree::new(&alpha);
        for q in &queries {
            conj.refine(&alpha, q, &Answer::empty()).unwrap();
        }
        use iixml_tree::{DataTree, Nid};
        use iixml_values::Rat;
        let mut w = DataTree::new(Nid(0), alpha.get("root").unwrap(), Rat::ZERO);
        w.add_child(w.root(), Nid(1), alpha.get("a").unwrap(), Rat::from(500))
            .unwrap();
        g.bench(format!("contains/{n}"), || conj.contains(&w));
    }
}

fn main() {
    let mut h = Harness::from_args();
    bench_refine_catalog(&mut h);
    bench_blowup(&mut h);
    bench_linear_queries(&mut h);
    bench_auxiliary(&mut h);
    bench_conjunctive_emptiness(&mut h);
    h.finish();
}
