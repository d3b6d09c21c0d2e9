#![warn(missing_docs)]

//! `iixml-par` — std-only scoped data parallelism for the iixml
//! workspace.
//!
//! Parallelism pays only where work *waits*: the webhouse fan-out of
//! Section 1 (one remote source per task) and fleet recovery (one
//! session journal per task). The CPU-bound Refine kernels run
//! sequentially — on the 2-core reference host their chunked parallel
//! paths measured slower end to end than their inline loops (DESIGN
//! §8). This crate provides the one primitive the wait-bound sites
//! need: [`par_map`], an *order-preserving* parallel map over an
//! indexed task list, built on `std::thread::scope` only (the
//! workspace builds offline against an empty registry, so no
//! rayon/crossbeam).
//!
//! # Determinism contract
//!
//! `par_map(items, f)` returns exactly the vector that
//! `items.map(f).collect()` would: results are written into slots keyed
//! by input index, so the output is byte-identical regardless of thread
//! count or scheduling. Callers keep determinism as long as `f` is a
//! pure function of its item (shared counters/histograms in `f` are
//! fine — they commute).
//!
//! # Thread count
//!
//! The worker width is `IIXML_PAR_THREADS` (default: available
//! parallelism), capped by the number of tasks. Width 1 runs the *same*
//! claim-loop code path on the calling thread with zero spawns, so the
//! sequential fallback is not a separate implementation that could
//! drift. Tests and benches can switch width in-process with
//! [`set_threads`].
//!
//! # Scheduling
//!
//! Workers claim task indices from a shared atomic counter (dynamic
//! load balancing — sources answer after uneven delays). A task claimed
//! outside a worker's fair static share is counted as a *steal* in the
//! `par.steals` metric; `par.tasks` counts tasks run and `par.threads`
//! records the width per invocation.

use iixml_obs::{keys, LazyCounter, LazyHistogram};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Tasks executed through [`par_map`] (all widths, including 1).
static OBS_TASKS: LazyCounter = LazyCounter::new(keys::PAR_TASKS);
/// Tasks a worker claimed outside its fair static share.
static OBS_STEALS: LazyCounter = LazyCounter::new(keys::PAR_STEALS);
/// Worker width per [`par_map`] invocation.
static OBS_THREADS: LazyHistogram = LazyHistogram::new(keys::PAR_THREADS);

/// Environment variable selecting the worker width (`1` = sequential).
pub const ENV_THREADS: &str = keys::ENV_PAR_THREADS;

/// In-process override; 0 means "use the environment default".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);
static ENV_DEFAULT: OnceLock<usize> = OnceLock::new();

fn env_threads() -> usize {
    *ENV_DEFAULT.get_or_init(|| {
        std::env::var(ENV_THREADS)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// The configured worker width: the [`set_threads`] override if set,
/// otherwise [`ENV_THREADS`], otherwise available parallelism.
pub fn threads() -> usize {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => env_threads(),
        n => n,
    }
}

/// Overrides the worker width in-process (`None` restores the
/// environment default). Used by benches and the determinism test
/// matrix; safe to flip at any time — the width never affects results,
/// only scheduling.
pub fn set_threads(n: Option<usize>) {
    OVERRIDE.store(n.map_or(0, |n| n.max(1)), Ordering::Relaxed);
}

/// Maps `f` over `items` in parallel, preserving input order exactly.
///
/// The width used is `threads().min(items.len())`. Each task should be
/// worth a thread: one latency-bound source session or one journal
/// recovery per item.
///
/// Panics in `f` propagate to the caller after all workers have
/// stopped.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let tasks = items.len();
    if tasks == 0 {
        return Vec::new();
    }
    let width = threads().min(tasks);
    OBS_TASKS.add(tasks as u64);
    OBS_THREADS.observe(width as u64);

    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    // Each worker drains the shared counter into a local (index, result)
    // list; `lo..hi` is its fair static share, used only for steal
    // accounting.
    let worker = |w: usize| -> (Vec<(usize, R)>, u64) {
        let lo = w * tasks / width;
        let hi = (w + 1) * tasks / width;
        let mut out = Vec::with_capacity(hi - lo + 1);
        let mut steals = 0u64;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                break;
            }
            if i < lo || i >= hi {
                steals += 1;
            }
            let item = slots[i]
                .lock()
                .expect("task slot poisoned")
                .take()
                .expect("each task index is claimed exactly once");
            out.push((i, f(item)));
        }
        (out, steals)
    };

    if width == 1 {
        // The claim loop visits indices in ascending order here, so the
        // collected results are already in input order.
        return worker(0).0.into_iter().map(|(_, r)| r).collect();
    }

    let mut results: Vec<Option<R>> = Vec::with_capacity(tasks);
    results.resize_with(tasks, || None);
    std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = (1..width).map(|w| scope.spawn(move || worker(w))).collect();
        let (own, mut steals) = worker(0);
        for (i, r) in own {
            results[i] = Some(r);
        }
        for h in handles {
            match h.join() {
                Ok((part, s)) => {
                    steals += s;
                    for (i, r) in part {
                        results[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        OBS_STEALS.add(steals);
    });
    results
        .into_iter()
        .map(|r| r.expect("every claimed task produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_at_every_width() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for w in [1, 2, 3, 4, 8] {
            set_threads(Some(w));
            assert_eq!(par_map(items.clone(), |x| x * x), expect, "width {w}");
        }
        set_threads(None);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        set_threads(Some(4));
        let none: Vec<u32> = Vec::new();
        assert!(par_map(none, |x: u32| x).is_empty());
        assert_eq!(par_map(vec![7u32], |x| x + 1), vec![8]);
        set_threads(None);
    }

    #[test]
    fn set_threads_round_trips() {
        set_threads(Some(3));
        assert_eq!(threads(), 3);
        set_threads(Some(0)); // clamped to 1
        assert_eq!(threads(), 1);
        set_threads(None);
        assert!(threads() >= 1);
    }

    #[test]
    fn worker_panics_propagate() {
        set_threads(Some(2));
        let r = std::panic::catch_unwind(|| {
            par_map(vec![1u32, 2, 3, 4], |x| {
                if x == 3 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(r.is_err());
        set_threads(None);
    }

    #[test]
    fn metrics_are_recorded() {
        iixml_obs::set_enabled(true);
        let before = iixml_obs::snapshot().counter("par.tasks").unwrap_or(0);
        set_threads(Some(2));
        par_map(vec![1u32; 64], |x| x);
        set_threads(None);
        let after = iixml_obs::snapshot().counter("par.tasks").unwrap_or(0);
        assert!(after >= before + 64);
    }
}
