//! The one bench row schema, its writer, its bound check, and its
//! reader.
//!
//! Every bench area (store, serve, cpu, contain, par) reports a flat
//! list of [`Row`]s: one named metric, its unit, which direction is
//! better, an optional blessed bound, and the measured value. A row
//! with a bound is a gate: a higher-is-better row passes at or above
//! its bound, a lower-is-better row passes strictly below it, and a
//! NaN value never passes. Unbounded rows are informational.
//!
//! [`write`] emits `BENCH_<area>.json` at the repo root as one compact
//! JSON object per line, stamped with the measuring [`Host`]. The obs
//! `Json` type is emit-only by design, so [`parse`] is a line scan over
//! exactly the shape [`Row::to_line`] writes — enough for
//! `report --trajectory` and the committed-file test.

use iixml_obs::json::Json;
use std::path::PathBuf;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Bigger values are better; a bound is a floor (`value >= bound`).
    Higher,
    /// Smaller values are better; a bound is a ceiling (`value < bound`).
    Lower,
}

/// One measured metric of one bench area.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// The bench area (`store`, `serve`, `cpu`, `contain`, `par`).
    pub area: String,
    /// Metric name, unique within its area.
    pub metric: String,
    /// Unit of `value` (`/s`, `us`, `ms`, `x`, `frac`, `count`, `bool`).
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// The blessed floor or ceiling; `None` for informational rows.
    pub bound: Option<f64>,
    /// The measured value.
    pub value: f64,
}

/// What a row file records about the run that produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Host {
    /// `std::thread::available_parallelism` on the measuring host.
    pub cores: usize,
    /// Whether the run used the `--quick` (CI smoke) sizes.
    pub quick: bool,
}

impl Host {
    /// The current host, for a run of the given size.
    pub fn here(quick: bool) -> Host {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Host { cores, quick }
    }
}

impl Row {
    /// An unbounded higher-is-better row.
    pub fn higher(area: &str, metric: &str, unit: &str, value: f64) -> Row {
        Row::new(area, metric, unit, Better::Higher, value)
    }

    /// An unbounded lower-is-better row.
    pub fn lower(area: &str, metric: &str, unit: &str, value: f64) -> Row {
        Row::new(area, metric, unit, Better::Lower, value)
    }

    fn new(area: &str, metric: &str, unit: &str, better: Better, value: f64) -> Row {
        Row {
            area: area.to_string(),
            metric: metric.to_string(),
            unit: unit.to_string(),
            better,
            bound: None,
            value,
        }
    }

    /// Makes the row a gate at `bound` (builder style).
    pub fn bound(mut self, bound: f64) -> Row {
        self.bound = Some(bound);
        self
    }

    /// The bound check: unbounded rows always pass; NaN never does.
    pub fn passes(&self) -> bool {
        match (self.bound, self.better) {
            (None, _) => true,
            (Some(b), Better::Higher) => self.value >= b,
            (Some(b), Better::Lower) => self.value < b,
        }
    }

    /// The row as one compact JSON line.
    pub fn to_line(&self, host: Host) -> String {
        let better = match self.better {
            Better::Higher => "higher",
            Better::Lower => "lower",
        };
        Json::obj()
            .set("area", self.area.as_str())
            .set("metric", self.metric.as_str())
            .set("unit", self.unit.as_str())
            .set("better", better)
            .set("bound", self.bound.map_or(Json::Null, Json::Float))
            .set("value", self.value)
            .set("cores", host.cores)
            .set("quick", host.quick)
            .render()
    }
}

/// The raw text of field `key` in a line written by [`Row::to_line`]:
/// a string's contents without quotes, or a bare number/literal.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let rest = &line[line.find(&needle)? + needle.len()..];
    match rest.strip_prefix('"') {
        Some(s) => s.split('"').next(),
        None => rest.split([',', '}']).next(),
    }
}

/// Reads one line written by [`Row::to_line`]; `None` if it is not a
/// row. A `null` value reads back as NaN (non-finite values serialize
/// as `null`).
pub fn parse(line: &str) -> Option<(Row, Host)> {
    let number = |key| match field(line, key)? {
        "null" => Some(f64::NAN),
        s => s.parse::<f64>().ok(),
    };
    let better = match field(line, "better")? {
        "higher" => Better::Higher,
        "lower" => Better::Lower,
        _ => return None,
    };
    let bound = match field(line, "bound")? {
        "null" => None,
        s => Some(s.parse().ok()?),
    };
    let quick = match field(line, "quick")? {
        "true" => true,
        "false" => false,
        _ => return None,
    };
    let row = Row {
        area: field(line, "area")?.to_string(),
        metric: field(line, "metric")?.to_string(),
        unit: field(line, "unit")?.to_string(),
        better,
        bound,
        value: number("value")?,
    };
    let host = Host {
        cores: field(line, "cores")?.parse().ok()?,
        quick,
    };
    Some((row, host))
}

/// `BENCH_<area>.json` at the repo root.
pub fn bench_path(area: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(format!("BENCH_{area}.json"))
}

/// Writes `rows` to `BENCH_<area>.json`, one line each; returns the
/// path.
pub fn write(area: &str, rows: &[Row], host: Host) -> std::io::Result<PathBuf> {
    let text: String = rows.iter().map(|r| r.to_line(host) + "\n").collect();
    let path = bench_path(area);
    std::fs::write(&path, text)?;
    path.canonicalize()
}

/// Prints `rows` as a Markdown table with a verdict per gate.
pub fn print_table(rows: &[Row]) {
    println!("| area | metric | value | unit | bound | verdict |");
    println!("|---|---|---|---|---|---|");
    for r in rows {
        let (bound, verdict) = match (r.bound, r.better) {
            (None, _) => (String::from("—"), "—"),
            (Some(b), better) => {
                let op = if better == Better::Higher { ">=" } else { "<" };
                (format!("{op} {b}"), if r.passes() { "ok" } else { "FAIL" })
            }
        };
        println!(
            "| {} | {} | {:.4} | {} | {bound} | {verdict} |",
            r.area, r.metric, r.value, r.unit
        );
    }
}

/// The metric names of the bounded rows, in row order — an area's
/// tests compare this against its `GATES` list.
pub fn gated(rows: &[Row]) -> Vec<&str> {
    rows.iter()
        .filter(|r| r.bound.is_some())
        .map(|r| r.metric.as_str())
        .collect()
}

/// The process exit code for a bench run: 0 when every gate passes,
/// 1 otherwise.
pub fn exit_code(rows: &[Row]) -> i32 {
    i32::from(!rows.iter().all(Row::passes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn higher_is_better_fails_below_its_bound() {
        let row = Row::higher("t", "m", "x", 9.99).bound(10.0);
        assert!(!row.passes());
        assert!(Row { value: 10.0, ..row }.passes());
    }

    #[test]
    fn lower_is_better_fails_at_or_above_its_bound() {
        let row = Row::lower("t", "m", "x", 0.05).bound(0.05);
        assert!(!row.passes());
        assert!(!Row {
            value: 0.06,
            ..row.clone()
        }
        .passes());
        assert!(Row {
            value: 0.049,
            ..row
        }
        .passes());
    }

    #[test]
    fn nan_fails_a_bounded_row() {
        assert!(!Row::higher("t", "m", "x", f64::NAN).bound(1.0).passes());
        assert!(!Row::lower("t", "m", "x", f64::NAN).bound(1.0).passes());
    }

    #[test]
    fn unbounded_rows_never_fail() {
        for v in [f64::NAN, f64::NEG_INFINITY, 0.0, 1e300] {
            assert!(Row::higher("t", "m", "x", v).passes());
            assert!(Row::lower("t", "m", "x", v).passes());
        }
    }

    #[test]
    fn a_failing_gate_makes_the_run_exit_nonzero() {
        let ok = Row::higher("t", "a", "x", 2.0).bound(1.0);
        let info = Row::lower("t", "b", "us", 5.0);
        assert_eq!(exit_code(&[ok.clone(), info.clone()]), 0);
        let bad = Row::lower("t", "c", "frac", 0.5).bound(0.05);
        assert_eq!(exit_code(&[ok, bad, info]), 1);
    }

    #[test]
    fn written_lines_round_trip_through_the_reader() {
        let host = Host {
            cores: 3,
            quick: true,
        };
        let rows = [
            Row::higher("store", "batched_appends_per_sec", "/s", 155_256.125).bound(67_220.0),
            Row::lower("contain", "check_overhead_ratio", "frac", 0.037_052_564).bound(0.05),
            Row::lower("serve", "p50_us", "us", 692.524),
            Row::higher("par", "speedup_at_4", "x", 1e-7),
        ];
        for row in rows {
            let line = row.to_line(host);
            assert!(!line.contains('\n'));
            assert_eq!(parse(&line), Some((row, host)), "{line}");
        }
        let nan = Row::higher("cpu", "m", "x", f64::NAN).bound(1.3);
        let (back, _) = parse(&nan.to_line(host)).unwrap();
        assert!(back.value.is_nan() && back.bound == Some(1.3) && !back.passes());
        assert_eq!(parse("{\"pr\": 6}"), None);
    }
}
