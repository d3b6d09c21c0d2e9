//! Shared workload construction for the benchmark harness and the
//! `report` binary (which regenerates the EXPERIMENTS.md tables).
//!
//! Each helper corresponds to a row family in DESIGN.md's experiment
//! index; the benches in `benches/` (driven by the std-only [`harness`])
//! measure times on these workloads, while `src/bin/report.rs` prints
//! the size/count tables.
//!
//! The gated bench areas ([`AREAS`]) each report a flat list of
//! [`row::Row`]s; `report --bench <area>` prints them, writes
//! `BENCH_<area>.json`, and exits nonzero when a bounded row fails.

pub mod allocs;
pub mod containbench;
pub mod cpubench;
pub mod harness;
pub mod loadgen;
pub mod parbench;
pub mod row;
pub mod servebench;
pub mod storebench;

#[cfg(test)]
#[global_allocator]
static ALLOC: allocs::Counting = allocs::Counting;

/// One gated bench area: its name, its gated metrics, and its runner
/// (`quick` selects the CI smoke sizes).
pub struct Area {
    /// The name `report --bench` takes and `BENCH_<name>.json` carries.
    pub name: &'static str,
    /// The metrics with a bound; every run must report all of them.
    pub gates: &'static [&'static str],
    /// Runs the area's workloads and returns its rows.
    pub run: fn(bool) -> Vec<row::Row>,
}

/// Every gated bench area.
pub const AREAS: [Area; 5] = [
    Area {
        name: "store",
        gates: storebench::GATES,
        run: |quick| storebench::run(quick).rows(),
    },
    Area {
        name: "serve",
        gates: servebench::GATES,
        run: |quick| servebench::run(quick).rows(),
    },
    Area {
        name: "cpu",
        gates: cpubench::GATES,
        run: |quick| cpubench::run(quick).rows(),
    },
    Area {
        name: "contain",
        gates: containbench::GATES,
        run: |quick| containbench::run(quick).rows(),
    },
    Area {
        name: "par",
        gates: parbench::GATES,
        run: |quick| parbench::run(quick).rows(),
    },
];

use iixml_core::{ConjunctiveTree, IncompleteTree, Refiner};
use iixml_gen::{
    blowup_queries, catalog, catalog_query_camera_pictures, catalog_query_price_below,
    linear_queries,
};
use iixml_mediator::auxiliary_queries;
use iixml_query::Answer;
use iixml_tree::{Alphabet, DataTree};

/// The blowup alphabet of Example 3.2.
pub fn blowup_alphabet() -> Alphabet {
    Alphabet::from_names(["root", "a", "b"])
}

/// Sizes of the plain Refine chain on Example 3.2 after each step.
pub fn refine_blowup_sizes(n: usize) -> Vec<usize> {
    let mut alpha = blowup_alphabet();
    let queries = blowup_queries(&mut alpha, n);
    let mut refiner = Refiner::new(&alpha);
    queries
        .iter()
        .map(|q| {
            refiner.refine(&alpha, q, &Answer::empty()).unwrap();
            refiner.current().size()
        })
        .collect()
}

/// The final incomplete tree of the plain Refine chain on Example 3.2.
pub fn refine_blowup_tree(n: usize) -> IncompleteTree {
    let mut alpha = blowup_alphabet();
    let queries = blowup_queries(&mut alpha, n);
    let mut refiner = Refiner::new(&alpha);
    for q in &queries {
        refiner.refine(&alpha, q, &Answer::empty()).unwrap();
    }
    refiner.current().clone()
}

/// Sizes of the conjunctive (Refine⁺) chain on Example 3.2.
pub fn conjunctive_blowup_sizes(n: usize) -> Vec<usize> {
    let mut alpha = blowup_alphabet();
    let queries = blowup_queries(&mut alpha, n);
    let mut conj = ConjunctiveTree::new(&alpha);
    queries
        .iter()
        .map(|q| {
            conj.refine(&alpha, q, &Answer::empty()).unwrap();
            conj.size()
        })
        .collect()
}

/// Sizes of the linear-query chain (Lemma 3.12).
pub fn linear_chain_sizes(n: usize) -> Vec<usize> {
    let mut alpha = blowup_alphabet();
    let queries = linear_queries(&mut alpha, n);
    let mut refiner = Refiner::new(&alpha);
    queries
        .iter()
        .map(|q| {
            refiner.refine(&alpha, q, &Answer::empty()).unwrap();
            refiner.current().size()
        })
        .collect()
}

/// Final size of the Example 3.2 chain preceded by Proposition 3.13's
/// auxiliary queries (against a fixed two-child source).
pub fn auxiliary_chain_size(n: usize) -> usize {
    use iixml_tree::Nid;
    use iixml_values::Rat;
    let mut alpha = blowup_alphabet();
    let queries = blowup_queries(&mut alpha, n);
    let (root, a, b) = (
        alpha.get("root").unwrap(),
        alpha.get("a").unwrap(),
        alpha.get("b").unwrap(),
    );
    let mut doc = DataTree::new(Nid(0), root, Rat::ZERO);
    doc.add_child(doc.root(), Nid(1), a, Rat::from(100))
        .unwrap();
    doc.add_child(doc.root(), Nid(2), b, Rat::from(200))
        .unwrap();
    let mut refiner = Refiner::new(&alpha);
    for aux in auxiliary_queries(&queries[0]) {
        refiner.refine(&alpha, &aux, &aux.eval(&doc)).unwrap();
    }
    for q in &queries {
        refiner.refine(&alpha, q, &q.eval(&doc)).unwrap();
    }
    refiner.current().size()
}

/// A refined catalog knowledge base: `products` products, one price
/// view.
pub fn refined_catalog(products: usize, seed: u64) -> (iixml_gen::Catalog, IncompleteTree) {
    let mut c = catalog(products, seed);
    let q = catalog_query_price_below(&mut c.alpha, 250);
    let mut refiner = Refiner::new(&c.alpha);
    let a = q.eval(&c.doc);
    refiner.refine(&c.alpha, &q, &a).unwrap();
    let tree = refiner.current().clone();
    (c, tree)
}

/// The standard camera follow-up query for a catalog workload.
pub fn camera_query(c: &mut iixml_gen::Catalog) -> iixml_query::PsQuery {
    catalog_query_camera_pictures(&mut c.alpha)
}
