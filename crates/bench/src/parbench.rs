//! The `par` bench area: the wait-bound webhouse fan-out at 1/2/4/8
//! worker threads (`iixml_par::set_threads`).
//!
//! One query fans out over 16 latency-simulating sources. Sleeping
//! sources overlap regardless of CPU count, so the speedup survives a
//! single-core host, and `speedup_at_4 >= 1.5` is the gate. The
//! CPU-bound Refine kernels are sequential (DESIGN §8); their numbers
//! live in the `cpu` area.
//!
//! `cargo run -p iixml-bench --bin report -- --bench par` runs this and
//! writes `BENCH_par.json`; `--quick` shrinks the latency and sample
//! counts for CI smoke runs.

use crate::harness::median_ns;
use crate::row::Row;
use iixml_webhouse::{LatentSource, Source, Webhouse};
use std::time::Duration;

/// Worker widths the fan-out is measured at.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The gated metrics of this area.
pub const GATES: &[&str] = &["speedup_at_4"];

/// The fan-out medians (ns) per worker width.
pub struct ParReport {
    /// `(threads, median_ns)` in [`THREADS`] order.
    pub by_threads: Vec<(usize, f64)>,
}

/// Runs one fan-out of a price query over `sources` latency-wrapped
/// sources of one catalog document, on freshly registered sessions
/// (fresh sessions every time, so each source is actually contacted —
/// a warm session answers locally and never pays the latency).
fn fanout_once(sources: usize, latency: Duration) {
    let mut cat = iixml_gen::catalog(6, 17);
    let q = iixml_gen::catalog_query_price_below(&mut cat.alpha, 250);
    let mut wh = Webhouse::new();
    for i in 0..sources {
        wh.register(
            format!("src{i:02}"),
            cat.alpha.clone(),
            LatentSource::new(Source::new(cat.doc.clone(), Some(cat.ty.clone())), latency),
        );
    }
    let outcomes = wh.fan_out(&q);
    assert_eq!(outcomes.len(), sources);
    assert!(outcomes.iter().all(|(_, a)| a.is_complete()));
}

/// Runs the fan-out at every width; `quick` shrinks the simulated
/// latency and sample counts for CI smoke runs.
pub fn run(quick: bool) -> ParReport {
    iixml_obs::set_enabled(true);
    let samples = if quick { 3 } else { 7 };
    let latency = Duration::from_millis(if quick { 2 } else { 4 });
    let by_threads = THREADS
        .iter()
        .map(|&t| {
            iixml_par::set_threads(Some(t));
            (t, median_ns(samples, || fanout_once(16, latency)))
        })
        .collect();
    iixml_par::set_threads(None);
    ParReport { by_threads }
}

impl ParReport {
    /// Median ms per width, then the speedup over width 1 per width.
    pub fn rows(&self) -> Vec<Row> {
        let base = self.by_threads.first().map_or(f64::NAN, |&(_, ns)| ns);
        let mut rows: Vec<Row> = self
            .by_threads
            .iter()
            .map(|&(t, ns)| Row::lower("par", &format!("fanout16_ms_at_{t}"), "ms", ns / 1e6))
            .collect();
        for &(t, ns) in &self.by_threads[1..] {
            let row = Row::higher("par", &format!("speedup_at_{t}"), "x", base / ns);
            rows.push(if t == 4 { row.bound(1.5) } else { row });
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_completes_on_all_sources() {
        fanout_once(3, Duration::ZERO);
    }

    #[test]
    fn every_gate_is_a_bounded_row() {
        let report = ParReport {
            by_threads: THREADS.iter().map(|&t| (t, 8e6 / t as f64)).collect(),
        };
        let rows = report.rows();
        assert_eq!(crate::row::gated(&rows), GATES);
        assert!(rows.iter().all(Row::passes));
    }
}
