#![warn(missing_docs)]

//! `iixml-obs` — zero-dependency observability for the iixml workspace.
//!
//! The Refine pipeline's representation can grow exponentially over a
//! query-answer *sequence* (Example 3.2), and the automaton-product
//! sites (`intersect`, type restriction) dominate cost long before that.
//! This crate gives every hot path cheap counters, size histograms, and
//! scoped timers so perf claims can be measured rather than asserted —
//! using only `std` (`std::sync` atomics + `OnceLock`), so it compiles
//! even when the crate registry is unreachable.
//!
//! # Design
//!
//! * **Disabled by default, branch-on-atomic when off.** Every record
//!   call first does one relaxed atomic load; unless `IIXML_OBS=1` is
//!   set in the environment (or [`set_enabled`] was called), nothing
//!   else happens — no clock reads, no locking, no allocation. The one
//!   exception is [`LazyCounter::add_always`], which the 11 counters of
//!   the server's Stats body use: they count with collection off too,
//!   at one relaxed `fetch_add` each.
//! * **Static handles for hot paths.** Call sites declare
//!   `static M: LazyCounter = LazyCounter::new("core.refine.steps");`
//!   and pay one `OnceLock` pointer load after first use. Dynamic names
//!   (e.g. per-source spans) go through [`counter`]/[`histogram`],
//!   which take the registry lock.
//! * **Hand-rolled JSON.** [`snapshot`] serializes via the [`json`]
//!   module — no serde.
//!
//! # Metric naming
//!
//! `<crate>.<area>.<metric>[_<unit>]`, e.g. `core.refine.step_ns`,
//! `query.eval.valuations`. Durations are nanoseconds (`_ns`); sizes
//! and counts carry no suffix. See DESIGN.md for the full convention.
//!
//! # Example
//!
//! ```
//! use iixml_obs as obs;
//! obs::set_enabled(true);
//! static STEPS: obs::LazyCounter = obs::LazyCounter::new("demo.steps");
//! static COST: obs::LazyHistogram = obs::LazyHistogram::new("demo.cost_ns");
//! STEPS.incr();
//! {
//!     let _span = COST.time();
//!     // ... measured work ...
//! }
//! let snap = obs::snapshot();
//! assert_eq!(snap.counter("demo.steps"), Some(1));
//! assert!(snap.to_json().contains("demo.cost_ns"));
//! obs::reset();
//! obs::set_enabled(false);
//! ```

pub mod json;
pub mod keys;

use json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// Enablement.

/// 0 = not yet initialized from the environment, 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Environment variable that enables metric collection when set to `1`,
/// `true`, or `on` (the [`keys::ENV_OBS`] registry entry).
pub const ENV_TOGGLE: &str = keys::ENV_OBS;

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var(ENV_TOGGLE)
        .map(|v| matches!(v.as_str(), "1" | "true" | "on" | "yes"))
        .unwrap_or(false);
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Is metric collection enabled? One relaxed atomic load on the fast
/// path; the first call reads [`ENV_TOGGLE`] from the environment.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        0 => init_from_env(),
        1 => false,
        _ => true,
    }
}

/// Programmatically enables or disables collection, overriding the
/// environment (used by `iixml --stats` and by tests).
pub fn set_enabled(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Primitives.

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of power-of-two buckets in a histogram: bucket `i` counts
/// observations in `[2^i, 2^(i+1))` (bucket 0 also takes value 0).
const BUCKETS: usize = 64;

/// A lock-free histogram over `u64` observations (sizes, counts,
/// nanosecond durations) with power-of-two buckets plus running
/// count/sum/min/max.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        let bucket = (64 - v.leading_zeros()).saturating_sub(1) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time summary (individual fields are
    /// read with relaxed ordering; concurrent writers may skew them by
    /// an in-flight observation).
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let target = ((count as f64) * q).ceil() as u64;
            let mut seen = 0u64;
            for (i, &b) in buckets.iter().enumerate() {
                seen += b;
                if seen >= target {
                    // Upper edge of bucket i: 2^(i+1) - 1 (i = 0 holds
                    // values 0 and 1).
                    return if i >= 63 {
                        u64::MAX
                    } else {
                        (1u64 << (i + 1)) - 1
                    };
                }
            }
            0
        };
        let min = self.min.load(Ordering::Relaxed);
        HistogramSummary {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// A digest of a [`Histogram`]: exact count/sum/min/max, bucket-upper-
/// bound quantiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Median (upper bucket edge).
    pub p50: u64,
    /// 90th percentile (upper bucket edge).
    pub p90: u64,
    /// 99th percentile (upper bucket edge).
    pub p99: u64,
}

impl HistogramSummary {
    /// Mean observation, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

// ---------------------------------------------------------------------
// Registry.

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Interns a name: metric handles live for the process lifetime, so the
/// (bounded) name set is leaked once per distinct metric.
fn intern(name: &str) -> &'static str {
    Box::leak(name.to_string().into_boxed_str())
}

/// The counter registered under `name`, creating it on first use.
/// Takes the registry lock — prefer [`LazyCounter`] on hot paths.
pub fn counter(name: &str) -> &'static Counter {
    let mut map = registry().counters.lock().expect("obs registry poisoned");
    if let Some(c) = map.get(name) {
        return c;
    }
    let c: &'static Counter = Box::leak(Box::default());
    map.insert(intern(name), c);
    c
}

/// The histogram registered under `name`, creating it on first use.
/// Takes the registry lock — prefer [`LazyHistogram`] on hot paths.
pub fn histogram(name: &str) -> &'static Histogram {
    let mut map = registry().histograms.lock().expect("obs registry poisoned");
    if let Some(h) = map.get(name) {
        return h;
    }
    let h: &'static Histogram = Box::leak(Box::default());
    map.insert(intern(name), h);
    h
}

/// Adds `n` to the counter `name` when collection is enabled.
#[inline]
pub fn add(name: &str, n: u64) {
    if enabled() {
        counter(name).add(n);
    }
}

/// Records `v` into the histogram `name` when collection is enabled.
#[inline]
pub fn observe(name: &str, v: u64) {
    if enabled() {
        histogram(name).observe(v);
    }
}

/// Starts a scoped span recording its duration (ns) into the histogram
/// `name` when dropped. A no-op (no clock read) when disabled.
#[inline]
pub fn time(name: &str) -> SpanGuard {
    if enabled() {
        SpanGuard {
            inner: Some((histogram(name), Instant::now())),
        }
    } else {
        SpanGuard { inner: None }
    }
}

// ---------------------------------------------------------------------
// Static handles.

/// A counter handle for `static` declaration at hot call sites: the
/// registry lock is taken at most once (first enabled use).
pub struct LazyCounter {
    name: &'static str,
    slot: OnceLock<&'static Counter>,
}

impl LazyCounter {
    /// Declares a counter named `name` (registered lazily).
    pub const fn new(name: &'static str) -> LazyCounter {
        LazyCounter {
            name,
            slot: OnceLock::new(),
        }
    }

    #[inline]
    fn get(&self) -> &'static Counter {
        self.slot.get_or_init(|| counter(self.name))
    }

    /// Adds `n` when collection is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.get().add(n);
        }
    }

    /// Adds one when collection is enabled.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n` whether or not collection is enabled: one relaxed
    /// `fetch_add`. Only the counters a server reports in its Stats
    /// use it; every other metric stays gated.
    #[inline]
    pub fn add_always(&self, n: u64) {
        self.get().add(n);
    }
}

/// A histogram handle for `static` declaration at hot call sites.
pub struct LazyHistogram {
    name: &'static str,
    slot: OnceLock<&'static Histogram>,
}

impl LazyHistogram {
    /// Declares a histogram named `name` (registered lazily).
    pub const fn new(name: &'static str) -> LazyHistogram {
        LazyHistogram {
            name,
            slot: OnceLock::new(),
        }
    }

    #[inline]
    fn get(&self) -> &'static Histogram {
        self.slot.get_or_init(|| histogram(self.name))
    }

    /// Records `v` when collection is enabled.
    #[inline]
    pub fn observe(&self, v: u64) {
        if enabled() {
            self.get().observe(v);
        }
    }

    /// Starts a scoped timer recording nanoseconds on drop; a no-op
    /// (no clock read) when disabled.
    #[inline]
    pub fn time(&self) -> SpanGuard {
        if enabled() {
            SpanGuard {
                inner: Some((self.get(), Instant::now())),
            }
        } else {
            SpanGuard { inner: None }
        }
    }
}

/// A scoped span: records its lifetime in nanoseconds into the owning
/// histogram when dropped (see [`LazyHistogram::time`] / [`time`]).
#[must_use = "a span records on drop; binding it to _ drops immediately"]
pub struct SpanGuard {
    inner: Option<(&'static Histogram, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((h, t0)) = self.inner.take() {
            h.observe(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        }
    }
}

// ---------------------------------------------------------------------
// Snapshots.

/// A point-in-time copy of every registered metric.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram digests by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl Snapshot {
    /// The value of a counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The digest of a histogram, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.get(name)
    }

    /// The snapshot as a [`Json`] value:
    /// `{"counters": {...}, "histograms": {name: {count, sum, ...}}}`.
    pub fn to_json_value(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, &v)| (k.clone(), Json::UInt(v)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Json::obj()
                            .set("count", h.count)
                            .set("sum", h.sum)
                            .set("min", h.min)
                            .set("max", h.max)
                            .set("mean", h.mean())
                            .set("p50", h.p50)
                            .set("p90", h.p90)
                            .set("p99", h.p99),
                    )
                })
                .collect(),
        );
        Json::obj()
            .set("counters", counters)
            .set("histograms", histograms)
    }

    /// The snapshot serialized as pretty JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().render_pretty()
    }
}

/// Captures every registered metric. Registration order does not
/// matter; names are sorted.
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let counters = reg
        .counters
        .lock()
        .expect("obs registry poisoned")
        .iter()
        .map(|(&k, c)| (k.to_string(), c.get()))
        .collect();
    let histograms = reg
        .histograms
        .lock()
        .expect("obs registry poisoned")
        .iter()
        .map(|(&k, h)| (k.to_string(), h.summary()))
        .collect();
    Snapshot {
        counters,
        histograms,
    }
}

/// Resets every registered metric to zero (handles stay valid).
pub fn reset() {
    let reg = registry();
    for c in reg.counters.lock().expect("obs registry poisoned").values() {
        c.reset();
    }
    for h in reg
        .histograms
        .lock()
        .expect("obs registry poisoned")
        .values()
    {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The obs tests share global state (registry + toggle), so they run
    /// under one lock to stay order-independent.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let _g = serial();
        set_enabled(true);
        reset();
        add("test.counter.basic", 2);
        add("test.counter.basic", 3);
        assert_eq!(snapshot().counter("test.counter.basic"), Some(5));
        reset();
        assert_eq!(snapshot().counter("test.counter.basic"), Some(0));
        set_enabled(false);
    }

    #[test]
    fn disabled_mode_records_nothing() {
        let _g = serial();
        set_enabled(true);
        reset();
        // Register the metric so the snapshot can prove it stayed zero.
        add("test.counter.gated", 0);
        set_enabled(false);
        add("test.counter.gated", 10);
        observe("test.hist.gated", 10);
        static C: LazyCounter = LazyCounter::new("test.counter.gated");
        C.incr();
        set_enabled(true);
        let snap = snapshot();
        assert_eq!(snap.counter("test.counter.gated"), Some(0));
        // The histogram was never registered (observe was gated).
        assert!(snap.histogram("test.hist.gated").is_none());
        set_enabled(false);
    }

    #[test]
    fn add_always_counts_with_collection_off() {
        let _g = serial();
        set_enabled(false);
        static C: LazyCounter = LazyCounter::new("test.counter.always");
        C.add_always(2);
        C.incr();
        C.add_always(1);
        assert_eq!(counter("test.counter.always").get(), 3);
        reset();
        assert_eq!(counter("test.counter.always").get(), 0);
    }

    #[test]
    fn histogram_summary_is_sane() {
        let _g = serial();
        set_enabled(true);
        reset();
        let h = histogram("test.hist.sizes");
        for v in [1u64, 2, 3, 100] {
            h.observe(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 106);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert!((s.mean() - 26.5).abs() < 1e-9);
        assert!(s.p50 >= 2 && s.p50 <= 3, "p50 = {}", s.p50);
        assert!(s.p99 >= 100, "p99 = {}", s.p99);
        set_enabled(false);
    }

    #[test]
    fn zero_observation_lands_in_bucket_zero() {
        let _g = serial();
        set_enabled(true);
        reset();
        let h = histogram("test.hist.zero");
        h.observe(0);
        let s = h.summary();
        assert_eq!((s.count, s.min, s.max), (1, 0, 0));
        assert!(s.p50 <= 1);
        set_enabled(false);
    }

    #[test]
    fn spans_record_durations() {
        let _g = serial();
        set_enabled(true);
        reset();
        static SPAN: LazyHistogram = LazyHistogram::new("test.span.ns");
        {
            let _s = SPAN.time();
            std::hint::black_box(1 + 1);
        }
        let s = snapshot();
        let h = s.histogram("test.span.ns").expect("span registered");
        assert_eq!(h.count, 1);
        set_enabled(false);
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let _g = serial();
        set_enabled(true);
        reset();
        static C: LazyCounter = LazyCounter::new("test.counter.concurrent");
        static H: LazyHistogram = LazyHistogram::new("test.hist.concurrent");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    for i in 0..1_000u64 {
                        C.incr();
                        H.observe(i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = snapshot();
        assert_eq!(snap.counter("test.counter.concurrent"), Some(8_000));
        let h = snap.histogram("test.hist.concurrent").unwrap();
        assert_eq!(h.count, 8_000);
        assert_eq!(h.sum, 8 * (0..1_000u64).sum::<u64>());
        set_enabled(false);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let _g = serial();
        set_enabled(true);
        reset();
        add("test.json.counter", 7);
        observe("test.json.hist", 42);
        let text = snapshot().to_json();
        assert!(text.contains("\"test.json.counter\": 7"));
        assert!(text.contains("\"test.json.hist\""));
        assert!(text.contains("\"counters\""));
        assert!(text.contains("\"histograms\""));
        set_enabled(false);
    }
}
