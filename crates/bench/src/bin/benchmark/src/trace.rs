//! `trace`: the per-layer breakdown. Replays the first requests of the
//! workload's op list through `pipeline` on one thread, once with spans
//! off and once with spans (and allocation counting) on, then recovers
//! the live fleet once more. Also runs a short untraced `run` so the
//! transport's share (`serve.residual_us`) can be told apart.

use crate::alloc;
use crate::drive;
use crate::pipeline::{self, Op, Pipeline, Probe};
use crate::report::{self, Metric, Outcome, Tally};
use crate::spans::{self, Layer, Site, Tracer};
use crate::workload::{self, ClientPlan, Kind, Sizes, Workload};
use iixml_obs::json::Json;
use iixml_obs::keys;
use std::io::Write;
use std::path::Path;

/// Per-request mean self time of these calls, over every traced
/// request (set-up included) that makes them. Each runs on every
/// workload.
const CALL_METRICS: &[(&str, &[Site])] = &[
    (
        "serve.proto_us",
        &[
            Site::EncodeRequest,
            Site::DecodeRequest,
            Site::Reply,
            Site::DecodeReply,
        ],
    ),
    ("serve.admission_us", &[Site::Admission]),
    ("serve.session_fs_us", &[Site::SessionFs]),
    ("query.parse_us", &[Site::Parse]),
    ("core.tqa_us", &[Site::Tqa]),
    ("core.intersect_us", &[Site::Intersect]),
    ("core.trim_us", &[Site::Trim]),
    ("core.minimize_us", &[Site::Minimize]),
    ("core.restrict_us", &[Site::Restrict]),
    ("gen.catalog_us", &[Site::Catalog]),
    ("contain.lookup_us", &[Site::Lookup]),
    ("contain.record_us", &[Site::Record]),
    ("webhouse.source_us", &[Site::SourceAsk]),
    ("webhouse.validate_us", &[Site::Validate]),
    ("store.append_us", &[Site::Check, Site::Append]),
    ("store.snapshot_us", &[Site::Snapshot]),
    ("store.sync_us", &[Site::Sync]),
    ("store.open_us", &[Site::StoreOpen]),
];

/// Shares of measured pipeline time for calls some workloads never
/// make (a time would read 0 there).
const SHARE_METRICS: &[(&str, &[Site])] = &[
    (
        "core.refine_share",
        &[Site::Tqa, Site::Intersect, Site::Trim, Site::Minimize],
    ),
    ("core.local_query_share", &[Site::LocalQuery]),
    ("query.eval_share", &[Site::Eval]),
    ("mediator.complete_share", &[Site::Complete]),
    ("tree.graft_share", &[Site::Graft]),
];

/// Layers whose allocations per request are reported.
const ALLOC_LAYERS: [Layer; 4] = [Layer::Serve, Layer::Query, Layer::Core, Layer::Store];

struct Replay {
    tr: Tracer,
    counts: pipeline::Counts,
    fsyncs: u64,
    probe: Probe,
}

fn fsyncs() -> u64 {
    iixml_obs::snapshot()
        .counter(keys::STORE_FSYNCS)
        .unwrap_or(0)
}

fn replay(
    w: Workload,
    plans: &[ClientPlan],
    setup: &[Op],
    measured: &[Op],
    root: &Path,
    spans_on: bool,
    tally: &mut Tally,
) -> Replay {
    let capacity = (setup.len() + measured.len()) * 24 + 1024;
    let mut p = Pipeline::new(root, spans_on, capacity);
    alloc::arm(spans_on);
    let mut before = Vec::new();
    for op in setup {
        if matches!(op, Op::Shutdown) {
            before = p.knowledge(w, plans);
        }
        p.run_op(plans, op, tally);
    }
    p.measured = true;
    let fsyncs0 = fsyncs();
    for op in measured {
        p.run_op(plans, op, tally);
        if matches!(op, Op::Restart) {
            let after = p.knowledge(w, plans);
            tally.check(after == before, || "recovered knowledge differs".into());
        }
    }
    let fsyncs = fsyncs() - fsyncs0;
    p.measured = false;
    // The probe's fleet recovery runs on the `iixml-par` pool.
    alloc::arm(false);
    let probe = if spans_on {
        p.probe()
    } else {
        Probe::default()
    };
    for f in &p.faults {
        tally.check(false, || format!("recovery failed: {f}"));
    }
    let _ = std::fs::remove_dir_all(p.root());
    Replay {
        tr: std::mem::replace(&mut p.tr, Tracer::new(false, 0)),
        counts: std::mem::take(&mut p.counts),
        fsyncs,
        probe,
    }
}

/// Total measured request time of kind `kind` (`None` = all kinds),
/// and each such request's duration.
fn measured_durs(tr: &Tracer, kind: Option<Kind>) -> Vec<u64> {
    tr.reqs
        .iter()
        .filter(|r| r.measured && kind.is_none_or(|k| r.kind == k))
        .map(|r| r.end - r.start)
        .collect()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

pub fn trace(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    out: &Path,
) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let run = drive::run(w, sizes, seed, (seconds / 5.0).max(0.5), out, 1)?;
    tally.merge(run.tally);
    let run_op1_us = run
        .metrics
        .iter()
        .find(|m| m.name == "op1_p50_us")
        .map_or(0.0, |m| m.value);

    iixml_obs::set_enabled(true);
    let plans = workload::plan(w, sizes, seed);
    let (setup, measured) = pipeline::trace_ops(w, sizes, &plans);
    let root = |tag: &str| out.join(format!("trace-{}-{}-{tag}", w.name(), std::process::id()));
    // Untraced replays before and after the traced one: their mean
    // cancels host-speed drift across the three.
    let untraced = |tag: &str, tally: &mut Tally| {
        replay(w, &plans, &setup, &measured, &root(tag), false, tally)
    };
    let before = untraced("off1", &mut tally);
    let on = replay(w, &plans, &setup, &measured, &root("on"), true, &mut tally);
    let after = untraced("off2", &mut tally);
    iixml_obs::set_enabled(false);

    let tr = &on.tr;
    let d = spans::digest(tr);
    let measured_ns: u64 = measured_durs(tr, None).iter().sum();
    let off_ns = [&before, &after]
        .iter()
        .map(|r| measured_durs(&r.tr, None).iter().sum::<u64>())
        .sum::<u64>()
        / 2;
    let share = |ns: u64| ratio(ns as f64, measured_ns as f64);
    let in_measured = |i: usize| tr.reqs[tr.spans[i].req as usize].measured;

    let mut layer_ns = [0u64; Layer::ALL.len()];
    let mut layer_allocs = [0u64; Layer::ALL.len()];
    for (i, s) in tr.spans.iter().enumerate() {
        if in_measured(i) {
            let l = s.site.layer() as usize;
            layer_ns[l] += d.span_self[i];
            layer_allocs[l] += d.span_self_allocs[i];
        }
    }
    let unattributed: u64 = tr
        .reqs
        .iter()
        .zip(&d.req_self)
        .filter(|(r, _)| r.measured)
        .map(|(_, s)| *s)
        .sum();

    let mut metrics = Vec::new();
    for (name, sites) in CALL_METRICS {
        let (mut ns, mut reqs, mut last) = (0u64, 0u64, u32::MAX);
        for (i, s) in tr.spans.iter().enumerate() {
            if sites.contains(&s.site) {
                ns += d.span_self[i];
                if s.req != last {
                    reqs += 1;
                    last = s.req;
                }
            }
        }
        metrics.push(
            Metric::new(*name, ratio(ns as f64, reqs as f64) / 1e3, "us").with_n(reqs as usize),
        );
    }
    let (op1, _) = w.roles();
    let mut off_op1 = measured_durs(&before.tr, Some(op1));
    off_op1.extend(measured_durs(&after.tr, Some(op1)));
    let pipeline_op1_us = report::quantile(&mut off_op1, 0.5) / 1e3;
    metrics.push(
        Metric::new("serve.residual_us", run_op1_us - pipeline_op1_us, "us").with_n(off_op1.len()),
    );
    let pr = &on.probe;
    let sessions = pr.sessions.max(1) as f64;
    metrics.push(
        Metric::new(
            "store.recover_session_us",
            pr.recover_seq_ns as f64 / sessions / 1e3,
            "us",
        )
        .with_n(pr.sessions),
    );

    for l in Layer::ALL {
        metrics.push(Metric::new(
            format!("{}.share", l.name()),
            share(layer_ns[l as usize]),
            "frac",
        ));
    }
    for (name, sites) in SHARE_METRICS {
        let ns: u64 = (0..tr.spans.len())
            .filter(|&i| in_measured(i) && sites.contains(&tr.spans[i].site))
            .map(|i| d.span_self[i])
            .sum();
        metrics.push(Metric::new(*name, share(ns), "frac"));
    }

    let c = &on.counts;
    let reqs = c.requests as f64;
    let mut ks = c.knowledge_sizes.clone();
    metrics.extend([
        Metric::new(
            "serve.frame_bytes_per_req",
            ratio(c.frame_bytes as f64, reqs),
            "B",
        ),
        Metric::new(
            "core.knowledge_size_p50",
            report::quantile(&mut ks, 0.5),
            "count",
        )
        .with_n(ks.len()),
        Metric::new(
            "contain.hit_frac",
            ratio(c.hits as f64, c.lookups as f64),
            "frac",
        ),
        Metric::new(
            "contain.fast_rejects_per_lookup",
            ratio(c.fast_rejects as f64, c.lookups as f64),
            "count",
        ),
        Metric::new(
            "webhouse.source_calls_per_req",
            ratio(c.source_calls as f64, reqs),
            "count",
        ),
        Metric::new(
            "mediator.local_queries_per_mediate",
            ratio(c.local_queries as f64, c.mediates as f64),
            "count",
        ),
        Metric::new(
            "store.bytes_per_req",
            ratio(c.disk_growth as f64, reqs),
            "B",
        ),
        Metric::new(
            "store.fsyncs_per_req",
            ratio(on.fsyncs as f64, reqs),
            "count",
        ),
        Metric::new(
            "store.replayed_per_session",
            pr.replayed as f64 / sessions,
            "count",
        ),
        Metric::new(
            "store.disk_kb_per_session",
            pr.disk_bytes as f64 / sessions / 1024.0,
            "KiB",
        ),
        Metric::new(
            "par.recover_speedup",
            ratio(pr.recover_seq_ns as f64, pr.recover_fleet_ns as f64),
            "x",
        ),
        Metric::new("trace.unattributed_frac", share(unattributed), "frac"),
        Metric::new(
            "trace.overhead_frac",
            ratio(measured_ns as f64, off_ns as f64) - 1.0,
            "frac",
        ),
    ]);
    for l in ALLOC_LAYERS {
        metrics.push(Metric::new(
            format!("{}.allocs_per_req", l.name()),
            ratio(layer_allocs[l as usize] as f64, reqs),
            "count",
        ));
    }

    let by_kind = by_kind(tr, &d);
    print_by_kind(&by_kind);
    write_spans(&out.join(format!("{}.spans.jsonl", w.name())), tr).map_err(|e| e.to_string())?;
    let info = Json::obj()
        .set("measured_requests", c.requests)
        .set("traced_spans", tr.spans.len())
        .set("run_op1_p50_us", run_op1_us)
        .set("pipeline_op1_p50_us", pipeline_op1_us)
        .set("by_kind", Json::Obj(by_kind));
    Ok(Outcome {
        metrics,
        tally,
        info,
    })
}

/// Per request kind: count, mean time, and each layer's share of that
/// kind's measured pipeline time.
fn by_kind(tr: &Tracer, d: &spans::Digest) -> Vec<(String, Json)> {
    let mut out = Vec::new();
    for kind in Kind::ALL {
        let durs = measured_durs(tr, Some(kind));
        if durs.is_empty() {
            continue;
        }
        let total: u64 = durs.iter().sum();
        let mut layer_ns = [0u64; Layer::ALL.len()];
        let mut refine_ns = 0u64;
        for (i, s) in tr.spans.iter().enumerate() {
            let r = &tr.reqs[s.req as usize];
            if r.measured && r.kind == kind {
                layer_ns[s.site.layer() as usize] += d.span_self[i];
                if matches!(
                    s.site,
                    Site::Tqa | Site::Intersect | Site::Trim | Site::Minimize
                ) {
                    refine_ns += d.span_self[i];
                }
            }
        }
        let unattributed: u64 = tr
            .reqs
            .iter()
            .zip(&d.req_self)
            .filter(|(r, _)| r.measured && r.kind == kind)
            .map(|(_, s)| *s)
            .sum();
        let mut j = Json::obj()
            .set("requests", durs.len())
            .set("mean_us", total as f64 / durs.len() as f64 / 1e3);
        for l in Layer::ALL {
            j = j.set(l.name(), ratio(layer_ns[l as usize] as f64, total as f64));
        }
        j = j
            .set("core.refine", ratio(refine_ns as f64, total as f64))
            .set("unattributed", ratio(unattributed as f64, total as f64));
        out.push((kind.name().to_string(), j));
    }
    out
}

fn print_by_kind(rows: &[(String, Json)]) {
    print!("{:<8} {:>7} {:>9}", "kind", "n", "mean_us");
    for l in Layer::ALL {
        print!(" {:>8}", l.name());
    }
    println!(" {:>8} {:>8}", "refine", "unattr");
    for (kind, j) in rows {
        let f = |k: &str| report::field(j, k).and_then(report::as_f64).unwrap_or(0.0);
        print!("{kind:<8} {:>7} {:>9.1}", f("requests"), f("mean_us"));
        for l in Layer::ALL {
            print!(" {:>8.3}", f(l.name()));
        }
        println!(" {:>8.3} {:>8.3}", f("core.refine"), f("unattributed"));
    }
}

/// One JSON line per request, then one per span.
fn write_spans(path: &Path, tr: &Tracer) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, r) in tr.reqs.iter().enumerate() {
        writeln!(
            f,
            r#"{{"req":{i},"kind":"{}","measured":{},"start_ns":{},"end_ns":{}}}"#,
            r.kind.name(),
            r.measured,
            r.start,
            r.end
        )?;
    }
    for (i, s) in tr.spans.iter().enumerate() {
        let parent = if s.parent == spans::NONE {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            f,
            r#"{{"span":{i},"req":{},"site":"{}","parent":{parent},"start_ns":{},"end_ns":{},"allocs":{}}}"#,
            s.req,
            s.site.name(),
            s.start,
            s.end,
            s.allocs
        )?;
    }
    f.flush()
}
