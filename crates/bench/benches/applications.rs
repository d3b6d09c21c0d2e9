//! E12, E19: end-to-end applications.
//!
//! * E12 (Theorem 3.6): encoding + deciding SAT instances through the
//!   possible-prefix reduction;
//! * E19 (Section 1): the Webhouse session loop — fetch, answer locally,
//!   mediate.

use iixml_bench::harness::Harness;
use iixml_extensions::sat::{encode, Cnf};
use iixml_gen::{catalog, catalog_query_camera_pictures, catalog_query_price_below};
use iixml_webhouse::{Session, Source};

fn bench_sat_reduction(h: &mut Harness) {
    let mut g = h.group("E12_sat_reduction");
    g.sample_size(10);
    for n in [1usize, 2, 3] {
        let cnf = Cnf {
            num_vars: n,
            clauses: vec![[1, (n as i64).max(1), 1], [-1, -(n as i64), -1]],
        };
        g.bench(format!("encode/{n}"), || encode(&cnf).num_queries);
        let enc = encode(&cnf);
        g.bench(format!("decide/{n}"), || enc.possible_prefix_val1());
    }
}

fn bench_webhouse(h: &mut Harness) {
    let mut g = h.group("E19_webhouse");
    g.sample_size(10);
    for products in [10usize, 40] {
        g.bench(format!("session_loop/{products}"), || {
            let mut cat = catalog(products, 31);
            let q_view = catalog_query_price_below(&mut cat.alpha, 250);
            let q_cam = catalog_query_camera_pictures(&mut cat.alpha);
            let mut session = Session::open(
                cat.alpha.clone(),
                Source::new(cat.doc.clone(), Some(cat.ty.clone())),
            );
            session.fetch(&q_view).unwrap();
            let _partial = session.answer_locally(&q_cam);
            let ans = session.answer_with_mediation(&q_cam).unwrap();
            ans.map_or(0, |t| t.len())
        });
    }
}

fn main() {
    let mut h = Harness::from_args();
    bench_sat_reduction(&mut h);
    bench_webhouse(&mut h);
    h.finish();
}
