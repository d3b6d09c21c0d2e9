//! Results: metrics, provenance, result files, and `compare`.
//!
//! Results are written with `iixml_obs::json::Json`; the small parser
//! below reads them (and `BENCHMARK.json`) back into the same type.

use iixml_obs::json::Json;
use std::path::{Path, PathBuf};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a percentile or median.
    pub n: Option<usize>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            n: None,
        }
    }

    pub fn with_n(mut self, n: usize) -> Metric {
        self.n = Some(n);
        self
    }
}

/// Checks counted toward `attempted`/`failed`, keeping the first few
/// failure descriptions for the log.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// The value at quantile `p` of `v` (nearest rank; sorts in place).
pub fn quantile(v: &mut [u64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((v.len() - 1) as f64 * p).round() as usize;
    v[rank.min(v.len() - 1)] as f64
}

/// Median of floats (mean of the middle pair).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed like Python's
/// `statistics.quantiles(v, n=4)` (the "exclusive" method).
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: f64| {
        let m = (n + 1) as f64 * k / 4.0;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1.0), at(3.0))
}

/// Where the run happened.
#[derive(Debug, Clone)]
pub struct Host {
    pub cores: usize,
    pub par_width: usize,
    pub cpu: String,
    pub journal_fs: String,
}

impl Host {
    pub fn probe(journal_root: &Path) -> Host {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            cores,
            par_width: iixml_par::threads(),
            cpu,
            journal_fs: fs_type(journal_root),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("available_parallelism", self.cores)
            .set("par_width", self.par_width)
            .set("cpu", self.cpu.as_str())
            .set("journal_fs", self.journal_fs.as_str())
    }

    /// Warns when the host cannot give each client its own core.
    pub fn warn_if_small(&self, clients: usize) {
        if self.cores < clients {
            eprintln!(
                "warning: {} core(s) for {clients} client threads; latencies include CPU queueing",
                self.cores
            );
        }
    }
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/self/mounts`).
fn fs_type(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, kind) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// Resident set size of this process (VmRSS), MiB.
pub fn resident_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A finished `run` or `trace`.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Extra context (counts behind the metrics), not compared.
    pub info: Json,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// `name value unit` lines, with the sample count where one applies.
    pub fn print_lines(&self) {
        for m in &self.metrics {
            match m.n {
                Some(n) => println!("{} {} {} n={n}", m.name, m.value, m.unit),
                None => println!("{} {} {}", m.name, m.value, m.unit),
            }
        }
        for n in &self.tally.notes {
            eprintln!("check failed: {n}");
        }
    }

    fn metrics_json(&self, with_n: bool) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let mut j = Json::obj().set("value", m.value).set("unit", m.unit);
                    if let (true, Some(n)) = (with_n, m.n) {
                        j = j.set("n", n);
                    }
                    (m.name.clone(), j)
                })
                .collect(),
        )
    }

    /// The one-line summary: `correct`, `attempted`, `failed`, `metrics`.
    pub fn summary_line(&self) -> String {
        Json::obj()
            .set("correct", self.correct())
            .set("attempted", self.tally.attempted)
            .set("failed", self.tally.failed)
            .set("metrics", self.metrics_json(false))
            .render()
    }

    /// Writes `<out>/<workload><suffix>.json` and appends the same
    /// record as one line to `<out>/<workload><suffix>.runs.jsonl`.
    pub fn write(
        &self,
        out: &Path,
        workload: &str,
        suffix: &str,
        seed: u64,
        host: &Host,
    ) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(out)?;
        let record = Json::obj()
            .set("workload", workload)
            .set("seed", seed)
            .set("host", host.to_json())
            .set("correct", self.correct())
            .set("attempted", self.tally.attempted)
            .set("failed", self.tally.failed)
            .set("metrics", self.metrics_json(true))
            .set("info", self.info.clone());
        let path = out.join(format!("{workload}{suffix}.json"));
        std::fs::write(&path, record.render_pretty() + "\n")?;
        use std::io::Write;
        let mut log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out.join(format!("{workload}{suffix}.runs.jsonl")))?;
        writeln!(log, "{}", record.render())?;
        Ok(path)
    }
}

// ---------------------------------------------------------------------
// Reading JSON back.

/// Parses one JSON document. Integers become `UInt`/`Int`, other numbers
/// `Float`.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = JsonParser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing bytes at {}", p.i));
    }
    Ok(v)
}

struct JsonParser<'a> {
    s: &'a [u8],
    i: usize,
}

impl JsonParser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.i))
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                if self.eat(b'}') {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    if !self.eat(b':') {
                        return self.err("expected ':'");
                    }
                    fields.push((k, self.value()?));
                    if self.eat(b'}') {
                        return Ok(Json::Obj(fields));
                    }
                    if !self.eat(b',') {
                        return self.err("expected ',' or '}'");
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                if self.eat(b']') {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    if self.eat(b']') {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(b',') {
                        return self.err("expected ',' or ']'");
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(_) => self.number(),
            None => self.err("unexpected end"),
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            Ok(v)
        } else {
            self.err("bad literal")
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
        {
            self.i += 1;
        }
        let t = std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
        if let Ok(n) = t.parse::<u64>() {
            return Ok(Json::UInt(n));
        }
        if let Ok(n) = t.parse::<i64>() {
            return Ok(Json::Int(n));
        }
        t.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("bad number {t:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return self.err("expected string");
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = self.s.get(self.i + 1).copied();
                    self.i += 2;
                    match esc {
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b'u') => {
                            let hex = self.s.get(self.i..self.i + 4).unwrap_or_default();
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            let Some(c) = code else {
                                return self.err("bad \\u escape");
                            };
                            self.i += 4;
                            out.extend_from_slice(c.to_string().as_bytes());
                        }
                        Some(c) => out.push(c),
                        None => return self.err("unterminated escape"),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.i += 1;
                }
            }
        }
    }
}

/// Field `key` of an object.
pub fn field<'a>(j: &'a Json, key: &str) -> Option<&'a Json> {
    match j {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn as_f64(j: &Json) -> Option<f64> {
    match j {
        Json::UInt(n) => Some(*n as f64),
        Json::Int(n) => Some(*n as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

pub fn as_str(j: &Json) -> Option<&str> {
    match j {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// The benchmark description and `compare`.

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the baseline median (`None` for
    /// per-layer metrics).
    pub bound: Option<f64>,
}

/// The workloads, end-to-end metrics and per-layer metrics named in
/// `BENCHMARK.json`.
pub struct BenchSpec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Spec>,
    #[cfg(test)]
    pub per_layer: Vec<Spec>,
}

pub fn load_spec(path: &Path) -> Result<BenchSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let j = parse_json(&text)?;
    let list = |key: &str| -> Result<Vec<Spec>, String> {
        let Some(Json::Arr(items)) = field(&j, key) else {
            return Err(format!("{key} missing"));
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| field(m, k).and_then(as_str).map(str::to_string);
                Ok(Spec {
                    name: s("name").ok_or("metric without a name")?,
                    unit: s("unit").ok_or("metric without a unit")?,
                    higher_is_better: s("better").as_deref() == Some("higher"),
                    bound: field(m, "bound").and_then(as_f64),
                })
            })
            .collect()
    };
    let workloads = match field(&j, "workloads") {
        Some(Json::Arr(items)) => items
            .iter()
            .filter_map(|w| field(w, "name").and_then(as_str).map(str::to_string))
            .collect(),
        _ => return Err("workloads missing".into()),
    };
    Ok(BenchSpec {
        workloads,
        end_to_end: list("end_to_end")?,
        #[cfg(test)]
        per_layer: list("per_layer")?,
    })
}

/// Values of metric `name` over every run recorded in
/// `<dir>/<workload>.runs.jsonl`.
fn runs(dir: &Path, workload: &str) -> Result<Vec<Json>, String> {
    let path = dir.join(format!("{workload}.runs.jsonl"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse_json)
        .collect()
}

fn values(runs: &[Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| {
            field(r, "metrics")
                .and_then(|m| field(m, metric))
                .and_then(|m| field(m, "value"))
                .and_then(as_f64)
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn iqr(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    q3 - q1
}

/// Baseline `a` against candidate `b` for one metric.
///
/// `worse` when `b`'s median is worse than `a`'s by more than the bound
/// and the difference stands out of the noise: both spreads (IQR over
/// median) are within the bound, or every `b` run is worse than every
/// `a` run, or the gap between the medians exceeds both IQRs. Otherwise
/// `unresolved` when either spread exceeds the bound, and `same` when
/// neither does.
pub fn verdict(spec: &Spec, a: &[f64], b: &[f64]) -> Verdict {
    let bound = spec.bound.unwrap_or(0.0);
    let spread = |v: &[f64]| iqr(v) / median(v).abs().max(f64::MIN_POSITIVE);
    let (ma, mb) = (median(a), median(b));
    // How much worse `b` is than `a`, in the metric's own units.
    let gap = if spec.higher_is_better {
        ma - mb
    } else {
        mb - ma
    };
    let lo = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let separated = if spec.higher_is_better {
        hi(b) < lo(a)
    } else {
        lo(b) > hi(a)
    };
    let noisy = spread(a) > bound || spread(b) > bound;
    let clear = !noisy || separated || gap > iqr(a).max(iqr(b));
    if gap / ma.abs().max(f64::MIN_POSITIVE) > bound && clear {
        Verdict::Worse
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

/// Minimum runs per workload and side that `compare` accepts.
pub const MIN_RUNS: usize = 5;

/// Prints one row per workload × end-to-end metric and a closing count
/// of each verdict; returns the number of `worse` and `unresolved`
/// rows.
pub fn compare(spec: &BenchSpec, a: &Path, b: &Path) -> Result<(usize, usize), String> {
    let mut count = [0usize; 3];
    println!(
        "{:<14} {:<18} {:>6} {:>14} {:>8} {:>14} {:>8}  verdict",
        "workload", "metric", "unit", "median A", "iqr A", "median B", "iqr B"
    );
    for w in &spec.workloads {
        let (ra, rb) = (runs(a, w)?, runs(b, w)?);
        if ra.len() < MIN_RUNS || rb.len() < MIN_RUNS {
            return Err(format!(
                "{w}: need at least {MIN_RUNS} runs per side, found {} and {}",
                ra.len(),
                rb.len()
            ));
        }
        for m in &spec.end_to_end {
            let (va, vb) = (values(&ra, &m.name), values(&rb, &m.name));
            if va.len() < MIN_RUNS || vb.len() < MIN_RUNS {
                return Err(format!("{w}/{}: missing values", m.name));
            }
            let v = verdict(m, &va, &vb);
            count[v as usize] += 1;
            println!(
                "{:<14} {:<18} {:>6} {:>14.3} {:>8.3} {:>14.3} {:>8.3}  {}",
                w,
                m.name,
                m.unit,
                median(&va),
                iqr(&va),
                median(&vb),
                iqr(&vb),
                v.word()
            );
        }
    }
    let [same, worse, unresolved] = count;
    println!("{same} same, {worse} worse, {unresolved} unresolved");
    Ok((worse, unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let j = Json::obj()
            .set("a", 1u64)
            .set("b", -2i64)
            .set("c", 0.125)
            .set("d", "x\"y\n")
            .set("e", Json::Arr(vec![Json::Bool(true), Json::Null]));
        assert_eq!(parse_json(&j.render_pretty()).unwrap(), j);
    }

    #[test]
    fn verdicts_follow_direction_and_spread() {
        let lower = Spec {
            name: "x".into(),
            unit: "us".into(),
            higher_is_better: false,
            bound: Some(0.1),
        };
        let base = [100.0, 101.0, 99.0, 100.0, 100.5];
        let same = [104.0, 105.0, 103.0, 104.0, 104.5];
        let worse = [120.0, 121.0, 119.0, 120.0, 120.5];
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(verdict(&lower, &base, &same), Verdict::Same);
        assert_eq!(verdict(&lower, &base, &worse), Verdict::Worse);
        assert_eq!(verdict(&lower, &base, &noisy), Verdict::Unresolved);
        // Noise does not hide a regression that stands out of it.
        let noisy_triple = noisy.map(|x| 3.0 * x);
        assert_eq!(verdict(&lower, &noisy, &noisy_triple), Verdict::Worse);
        assert_eq!(verdict(&lower, &base, &noisy_triple), Verdict::Worse);
        let higher = Spec {
            higher_is_better: true,
            ..lower
        };
        assert_eq!(verdict(&higher, &worse, &base), Verdict::Worse);
        assert_eq!(verdict(&higher, &base, &worse), Verdict::Same);
    }
}
