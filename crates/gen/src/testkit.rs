//! A tiny deterministic property-test harness.
//!
//! The workspace's property tests ran on `proptest` in the seed, but an
//! external dependency cannot be guaranteed in offline builds, so tests
//! use this harness instead: a fixed default seed, a case count, and a
//! failure report that names the exact setting to replay: a property
//! that fails at case `c` under base seed `b` prints
//! `IIXML_TEST_SEED=<b> IIXML_PROPTEST_CASES=<c + 1>`, whose last case
//! is case `c` again.
//!
//! Environment knobs (both optional, both read per property):
//!
//! * `IIXML_PROPTEST_CASES` — cases per property (default 64);
//! * `IIXML_TEST_SEED` — base seed (default `0xA5EED`). CI pins both so
//!   runs are reproducible; see CONTRIBUTING.md.
//!
//! ```
//! iixml_gen::testkit::check("addition commutes", |rng| {
//!     let a = rng.range_i64(-1000, 1000);
//!     let b = rng.range_i64(-1000, 1000);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

use crate::rng::DetRng;

/// Default number of cases per property.
pub const DEFAULT_CASES: usize = 64;

/// Default base seed.
pub const DEFAULT_SEED: u64 = 0xA5EED;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// Cases per property: `IIXML_PROPTEST_CASES` or [`DEFAULT_CASES`].
pub fn cases() -> usize {
    env_u64(iixml_obs::keys::ENV_PROPTEST_CASES, DEFAULT_CASES as u64) as usize
}

/// Base seed: `IIXML_TEST_SEED` or [`DEFAULT_SEED`].
pub fn base_seed() -> u64 {
    env_u64(iixml_obs::keys::ENV_TEST_SEED, DEFAULT_SEED)
}

/// The seed of case `case` under base seed `base`. Case `c` depends only
/// on `base` and `c`, so a run of `c + 1` cases ends with it.
pub fn case_seed(base: u64, case: usize) -> u64 {
    DetRng::new(base).fork(case as u64).next_u64()
}

/// The environment that replays case `case` under base seed `base`.
pub fn replay_hint(base: u64, case: usize) -> String {
    format!(
        "{}={base} {}={}",
        iixml_obs::keys::ENV_TEST_SEED,
        iixml_obs::keys::ENV_PROPTEST_CASES,
        case + 1
    )
}

/// Runs `property` once per case with an independent [`DetRng`]. On
/// panic, reports the property name and the [`replay_hint`] that
/// replays the failing case: `IIXML_TEST_SEED=<base>
/// IIXML_PROPTEST_CASES=<case + 1>`.
pub fn check<F>(name: &str, property: F)
where
    F: FnMut(&mut DetRng),
{
    check_with(name, usize::MAX, property);
}

/// Like [`check`], but capped at `max_cases` cases — for expensive
/// properties where the global default would dominate the test run.
/// `IIXML_PROPTEST_CASES` still lowers (never raises) the count.
pub fn check_with<F>(name: &str, max_cases: usize, mut property: F)
where
    F: FnMut(&mut DetRng),
{
    let n = cases().min(max_cases).max(1);
    let base = base_seed();
    for case in 0..n {
        let mut rng = DetRng::new(case_seed(base, case));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| property(&mut rng)));
        if let Err(payload) = outcome {
            eprintln!(
                "property '{name}' failed at case {case}/{n} — replay with {}",
                replay_hint(base, case)
            );
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_runs_every_case() {
        let mut ran = 0usize;
        check("counts cases", |_| ran += 1);
        assert_eq!(ran, cases().max(1));
    }

    #[test]
    fn check_reports_failures() {
        let result = std::panic::catch_unwind(|| {
            check("always fails", |_| panic!("boom"));
        });
        assert!(result.is_err());
    }

    /// The printed pair redraws the failing case's seed as the last case
    /// of the replay run; the old form (`<case seed>` with one case) did
    /// not.
    #[test]
    fn replay_hint_redraws_the_failing_case() {
        let value = |hint: &str, key: &str| -> u64 {
            let pair = hint.split(' ').find(|p| p.starts_with(key)).unwrap();
            pair[key.len() + 1..].parse().unwrap()
        };
        for base in [DEFAULT_SEED, 0, 7, u64::MAX] {
            for case in [0, 1, 5, 63] {
                let hint = replay_hint(base, case);
                let replay_base = value(&hint, iixml_obs::keys::ENV_TEST_SEED);
                let replay_cases = value(&hint, iixml_obs::keys::ENV_PROPTEST_CASES) as usize;
                let last = replay_cases - 1;
                assert_eq!(case_seed(replay_base, last), case_seed(base, case));
                assert_ne!(case_seed(case_seed(base, case), 0), case_seed(base, case));
            }
        }
    }

    /// `check` draws case `c`'s rng from `case_seed(base, c)`.
    #[test]
    fn check_draws_case_seeds() {
        let mut draws = Vec::new();
        check("collect draws", |rng| draws.push(rng.next_u64()));
        for (case, &draw) in draws.iter().enumerate() {
            assert_eq!(draw, DetRng::new(case_seed(base_seed(), case)).next_u64());
        }
    }

    #[test]
    fn case_seeds_differ() {
        let mut seeds = Vec::new();
        check("collect seeds", |rng| seeds.push(rng.next_u64()));
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cases().max(1), "each case gets its own rng");
    }
}
