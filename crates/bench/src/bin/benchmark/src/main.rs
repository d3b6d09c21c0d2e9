//! The repo benchmark: closed-loop `iixml-serve` workloads measured end
//! to end over TCP (`run`), a traced per-layer breakdown of the same
//! requests (`trace`), and a bounds check between two result sets
//! (`compare`). See README.md in this directory.

mod alloc;
mod drive;
mod pipeline;
mod report;
mod spans;
mod trace;
mod workload;

use report::Host;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Sizes, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  benchmark run <workload>     [--seed N] [--seconds S] [--out DIR]
  benchmark trace <workload>   [--seed N] [--seconds S] [--out DIR]
  benchmark compare <dirA> <dirB> [--spec BENCHMARK.json]
                               (exit 1 on any worse, 3 on unresolved only)
  benchmark --workload <workload> --seed N --seconds S --trace 0|1 [--out DIR]
workloads: read_heavy refine_heavy durable_write restart";

struct Opts {
    positional: Vec<String>,
    workload: Option<String>,
    trace: bool,
    seed: u64,
    seconds: f64,
    out: PathBuf,
    spec: PathBuf,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        positional: Vec::new(),
        workload: None,
        trace: false,
        seed: 1,
        seconds: 25.0,
        out: PathBuf::from("target/benchmark"),
        spec: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--trace" => o.trace = value()? == "1",
            "--seed" => o.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--out" => o.out = PathBuf::from(value()?),
            "--spec" => o.spec = PathBuf::from(value()?),
            s if s.starts_with("--") => return Err(format!("unknown option {s}")),
            s => o.positional.push(s.to_string()),
        }
    }
    Ok(o)
}

fn cli(args: &[String]) -> Result<ExitCode, String> {
    let o = parse(args)?;
    let (cmd, target) = match (o.positional.first().map(String::as_str), &o.workload) {
        (Some("compare"), _) => {
            let [_, a, b] = o.positional.as_slice() else {
                return Err("compare takes two directories".into());
            };
            let spec = report::load_spec(&o.spec)?;
            let (worse, unresolved) = report::compare(&spec, a.as_ref(), b.as_ref())?;
            return Ok(match (worse, unresolved) {
                (0, 0) => ExitCode::SUCCESS,
                (0, _) => ExitCode::from(3),
                _ => ExitCode::FAILURE,
            });
        }
        (Some(cmd @ ("run" | "trace")), None) if o.positional.len() == 2 => {
            (cmd, o.positional[1].as_str())
        }
        (None, Some(w)) => (if o.trace { "trace" } else { "run" }, w.as_str()),
        _ => return Err("no command".into()),
    };
    let w = Workload::parse(target).ok_or_else(|| format!("unknown workload {target}"))?;
    let sizes = Sizes::full(w);
    std::fs::create_dir_all(&o.out).map_err(|e| format!("{}: {e}", o.out.display()))?;
    let host = Host::probe(&o.out);
    host.warn_if_small(workload::CLIENTS);
    let (outcome, suffix) = if cmd == "run" {
        let r = drive::run(w, &sizes, o.seed, o.seconds, &o.out, drive::SETUPS)?;
        (r, "")
    } else {
        (
            trace::trace(w, &sizes, o.seed, o.seconds, &o.out)?,
            ".trace",
        )
    };
    outcome.print_lines();
    outcome
        .write(&o.out, w.name(), suffix, o.seed, &host)
        .map_err(|e| format!("writing results: {e}"))?;
    println!("{}", outcome.summary_line());
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{Outcome, Spec};
    use std::path::Path;

    /// `BENCHMARK.json` at the repository root, found upwards from
    /// whichever manifest built this binary.
    fn spec() -> report::BenchSpec {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .map(|d| d.join("BENCHMARK.json"))
            .find(|p| p.is_file())
            .expect("BENCHMARK.json above the package");
        report::load_spec(&path).expect("BENCHMARK.json parses")
    }

    /// The summary line names exactly `specs`, each with its unit.
    fn reports_exactly(o: &Outcome, specs: &[Spec], what: &str) {
        let line = report::parse_json(&o.summary_line()).expect("summary is JSON");
        let Some(iixml_obs::json::Json::Obj(metrics)) = report::field(&line, "metrics") else {
            panic!("{what}: no metrics object");
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), want.len(), "{what}: {names:?} vs {want:?}");
        for s in specs {
            let m = report::field(&line, "metrics").and_then(|m| report::field(m, &s.name));
            let unit = m
                .and_then(|m| report::field(m, "unit"))
                .and_then(report::as_str);
            assert_eq!(unit, Some(s.unit.as_str()), "{what}: {}", s.name);
            let value = m
                .and_then(|m| report::field(m, "value"))
                .and_then(report::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{what}: {} = {value:?}",
                s.name
            );
        }
    }

    #[test]
    fn tiny_runs_are_correct_and_report_every_metric() {
        let spec = spec();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, names);
        let out = std::env::temp_dir().join(format!("iixml-benchmark-tiny-{}", std::process::id()));
        for w in Workload::ALL {
            let sizes = Sizes::tiny(w);
            let run = drive::run(w, &sizes, 3, 1.0, &out, 2).expect("run");
            assert_eq!(
                run.tally.failed,
                0,
                "{} run: {:?}",
                w.name(),
                run.tally.notes
            );
            reports_exactly(&run, &spec.end_to_end, w.name());
            let tr = trace::trace(w, &sizes, 3, 1.0, &out).expect("trace");
            assert_eq!(
                tr.tally.failed,
                0,
                "{} trace: {:?}",
                w.name(),
                tr.tally.notes
            );
            reports_exactly(&tr, &spec.per_layer, w.name());
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}
