//! The `contain` bench area: the containment-keyed answer cache.
//!
//! A subsumption-heavy query mix (one wide catalog view, then
//! progressively narrower price slices with mediations interleaved,
//! plus type-shaped random queries) runs through two webhouse sessions
//! over the same source: one with the containment-keyed answer cache
//! on, one with it off. Three gated rows come out:
//!
//! * **fetch_reduction** — `1 − fetches(on) / fetches(off)`: the share
//!   of source round-trips the cache removed. Gated `>= 0.30`.
//! * **bytes_identical** — `1` iff every answer and the serialized
//!   knowledge after every step were byte-identical between the two
//!   sessions; the cache must be invisible except in fetch counts.
//!   Gated `>= 1`.
//! * **check_overhead_ratio** — median time of one containment lookup
//!   against a populated cache ÷ median end-to-end time of a cache-miss
//!   fetch. Gated `< 0.05`: the analyzer must cost a rounding error
//!   relative to the round-trip it tries to save.
//!
//! `cargo run -p iixml-bench --bin report -- --bench contain` runs this
//! and writes `BENCH_contain.json`; `--quick` shrinks the catalog for
//! CI smoke runs. This area leaves obs collection off, so the
//! lookup-overhead ratio carries no span costs.

use crate::harness::median_ns;
use crate::row::Row;
use iixml_contain::AnswerCache;
use iixml_core::io::write_incomplete_xml;
use iixml_gen::{catalog, catalog_query_price_below, random_queries, Catalog};
use iixml_query::{Answer, PsQuery};
use iixml_tree::DataTree;
use iixml_webhouse::{Session, Source};

/// The gated metrics of this area.
pub const GATES: &[&str] = &["fetch_reduction", "bytes_identical", "check_overhead_ratio"];

/// The full containment-cache report.
pub struct ContainReport {
    /// Products in the generated catalog.
    pub products: usize,
    /// Queries in the mix (fetches + mediations).
    pub mix_len: usize,
    /// Source round-trips with the cache off.
    pub fetches_off: usize,
    /// Source round-trips with the cache on.
    pub fetches_on: usize,
    /// Containment lookups the cached session performed.
    pub checks: u64,
    /// Lookups answered from recorded knowledge.
    pub hits: u64,
    /// Whether every answer and every post-step knowledge serialization
    /// matched byte-for-byte between the two sessions.
    pub bytes_identical: bool,
    /// Median ns of one containment lookup against a populated cache.
    pub check_ns: f64,
    /// Median ns of one cache-miss fetch, end to end.
    pub miss_fetch_ns: f64,
}

/// Ordered rendering of an answer tree (node ids, labels, values,
/// child counts in preorder) — `Debug` would leak hash-map ordering.
fn render(t: &Option<DataTree>) -> String {
    let Some(t) = t else {
        return String::from("<empty>");
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

fn render_answer(a: &Answer) -> String {
    let mut prov: Vec<_> = a
        .provenance
        .iter()
        .map(|(n, k)| format!("{}:{:?}", n.0, k))
        .collect();
    prov.sort();
    format!("{} | {}", render(&a.tree), prov.join(","))
}

/// The subsumption-heavy mix: one wide price view, narrower slices
/// under it, type-shaped random queries, repeated over a few rounds.
/// `(query, mediate?)` — mediations exercise the local-answer path.
fn build_mix(cat: &mut Catalog, rounds: usize) -> Vec<(PsQuery, bool)> {
    let root = cat.alpha.get("catalog").expect("catalog root");
    let mut mix = Vec::new();
    for r in 0..rounds {
        let mut bound = 480 - 7 * r as i64;
        mix.push((catalog_query_price_below(&mut cat.alpha, bound), false));
        for i in 0..5 {
            bound -= 45;
            // Narrower slices: fetched twice each round, mediated once.
            mix.push((catalog_query_price_below(&mut cat.alpha, bound), i % 3 == 2));
        }
        for q in random_queries(&cat.alpha, &cat.ty, root, 2, 40, 0xCA7A106 + r as u64) {
            mix.push((q, false));
        }
    }
    mix
}

/// Runs the mix through one session; returns per-step transcripts
/// (answer rendering + serialized knowledge) for the identity check.
fn run_mix(
    session: &mut Session<Source>,
    mix: &[(PsQuery, bool)],
    alpha_src: &Catalog,
) -> Vec<String> {
    let mut transcript = Vec::with_capacity(mix.len());
    for (q, mediate) in mix {
        let step = if *mediate {
            match session.answer_with_mediation(q) {
                Ok(t) => format!("mediate {}", render(&t)),
                Err(e) => format!("mediate error {e}"),
            }
        } else {
            match session.fetch(q) {
                Ok(a) => format!("fetch {}", render_answer(&a)),
                Err(e) => format!("fetch error {e}"),
            }
        };
        transcript.push(format!(
            "{step}\n{}",
            write_incomplete_xml(session.knowledge(), &alpha_src.alpha)
        ));
    }
    transcript
}

/// Runs the bench; `quick` shrinks the catalog and sample counts for
/// CI smoke runs.
pub fn run(quick: bool) -> ContainReport {
    let products = if quick { 40 } else { 200 };
    let rounds = if quick { 2 } else { 4 };
    let samples = if quick { 5 } else { 11 };
    let mut cat = catalog(products, 0x5EEDCA7);
    let mix = build_mix(&mut cat, rounds);

    let source = || Source::new(cat.doc.clone(), Some(cat.ty.clone()));
    let mut on = Session::open(cat.alpha.clone(), source());
    let mut off = Session::open(cat.alpha.clone(), source());
    off.set_contain_cache(false);

    let t_on = run_mix(&mut on, &mix, &cat);
    let t_off = run_mix(&mut off, &mix, &cat);
    let bytes_identical = t_on == t_off;

    // Overhead probe: a populated cache answering a narrower query
    // (the expensive path: signature match + full descent + replay
    // eval) vs a cold session's end-to-end source fetch of it.
    let wide = catalog_query_price_below(&mut cat.alpha, 450);
    let narrow = catalog_query_price_below(&mut cat.alpha, 200);
    let wide_ans = {
        let mut probe = Session::open(cat.alpha.clone(), source());
        probe.fetch(&wide).expect("probe fetch")
    };
    let mut cache = AnswerCache::new();
    cache.record(&wide, &wide_ans);
    let check_ns = median_ns(samples, || {
        assert!(cache.lookup(&narrow).is_some());
    });
    let miss_fetch_ns = median_ns(samples, || {
        let mut cold = Session::open(cat.alpha.clone(), source());
        cold.set_contain_cache(false);
        assert!(cold.fetch(&narrow).is_ok());
    });

    ContainReport {
        products,
        mix_len: mix.len(),
        fetches_off: off.source().queries_served,
        fetches_on: on.source().queries_served,
        checks: on.containment_checks(),
        hits: on.containment_hits(),
        bytes_identical,
        check_ns,
        miss_fetch_ns,
    }
}

impl ContainReport {
    /// The workload's counts, then the three gated rows and the two
    /// timings behind the overhead ratio.
    pub fn rows(&self) -> Vec<Row> {
        let count = |metric: &str, v: f64| Row::higher("contain", metric, "count", v);
        let fetch_reduction = match self.fetches_off {
            0 => f64::NAN,
            off => 1.0 - self.fetches_on as f64 / off as f64,
        };
        vec![
            count("products", self.products as f64),
            count("mix_len", self.mix_len as f64),
            Row::lower("contain", "fetches_off", "count", self.fetches_off as f64),
            Row::lower("contain", "fetches_on", "count", self.fetches_on as f64),
            count("containment_checks", self.checks as f64),
            count("containment_hits", self.hits as f64),
            Row::higher("contain", "fetch_reduction", "frac", fetch_reduction).bound(0.30),
            Row::higher(
                "contain",
                "bytes_identical",
                "bool",
                f64::from(u8::from(self.bytes_identical)),
            )
            .bound(1.0),
            Row::lower("contain", "check_us", "us", self.check_ns / 1e3),
            Row::lower("contain", "miss_fetch_us", "us", self.miss_fetch_ns / 1e3),
            Row::lower(
                "contain",
                "check_overhead_ratio",
                "frac",
                self.check_ns / self.miss_fetch_ns,
            )
            .bound(0.05),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_meets_the_gates() {
        let r = run(true);
        assert!(r.hits >= 1 && r.checks >= r.hits);
        let rows = r.rows();
        assert_eq!(crate::row::gated(&rows), GATES);
        for row in &rows {
            // The overhead ratio is a timing, too noisy to assert in a
            // unit test; the gate run checks it.
            if row.metric != "check_overhead_ratio" {
                assert!(row.passes(), "{row:?}");
            }
        }
    }
}
