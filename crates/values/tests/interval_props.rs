//! Property tests for the interval algebra (Lemma 2.3's normal form):
//! Boolean-algebra laws checked pointwise against random sample values,
//! plus canonical-form invariants.
//!
//! `iixml-values` sits at the bottom of the workspace, so it cannot use
//! `iixml-gen`'s testkit without a dependency cycle; a minimal inline
//! SplitMix64 harness (same seed conventions: `IIXML_TEST_SEED`,
//! `IIXML_PROPTEST_CASES`) stands in for it here.

use iixml_values::{Cond, IntervalSet, Rat};

/// Inline SplitMix64 — keep in sync with `iixml_gen::rng::DetRng`.
struct MiniRng {
    state: u64,
}

impl MiniRng {
    fn new(seed: u64) -> MiniRng {
        MiniRng { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }

    fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        lo.wrapping_add(self.below(hi.wrapping_sub(lo) as u64) as i64)
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// Runs `property` on a deterministic per-case rng, `IIXML_PROPTEST_CASES`
/// times (capped at 200), reporting on panic the base seed and case
/// count whose last case is the failing one.
fn check(name: &str, mut property: impl FnMut(&mut MiniRng)) {
    let n = (env_u64(iixml_obs::keys::ENV_PROPTEST_CASES, 64) as usize).clamp(1, 200);
    let base = env_u64(iixml_obs::keys::ENV_TEST_SEED, 0xA5EED);
    for case in 0..n {
        let case_seed = MiniRng::new(base ^ MiniRng::new(case as u64).next_u64()).next_u64();
        let mut rng = MiniRng::new(case_seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| property(&mut rng)));
        if let Err(payload) = outcome {
            eprintln!(
                "property '{name}' failed at case {case}/{n} — replay with \
                 IIXML_TEST_SEED={base} IIXML_PROPTEST_CASES={}",
                case + 1
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// An arbitrary condition over small constants: a random tree of
/// and/or/not combinators, depth-bounded like the old proptest strategy.
fn arb_cond(rng: &mut MiniRng, depth: usize) -> Cond {
    if depth == 0 || rng.below(3) == 0 {
        let v = Rat::from(rng.range_i64(-20, 20));
        return match rng.below(6) {
            0 => Cond::eq(v),
            1 => Cond::ne(v),
            2 => Cond::lt(v),
            3 => Cond::le(v),
            4 => Cond::gt(v),
            _ => Cond::ge(v),
        };
    }
    match rng.below(3) {
        0 => arb_cond(rng, depth - 1).and(arb_cond(rng, depth - 1)),
        1 => arb_cond(rng, depth - 1).or(arb_cond(rng, depth - 1)),
        _ => arb_cond(rng, depth - 1).not(),
    }
}

/// Sample values: integers and half-integers around the constant range.
fn samples() -> Vec<Rat> {
    let mut out = Vec::new();
    for i in -22..=22 {
        out.push(Rat::from(i));
        out.push(Rat::new(2 * i + 1, 2));
    }
    out
}

/// Normalization preserves pointwise semantics.
#[test]
fn normal_form_is_pointwise_correct() {
    check("normal_form_is_pointwise_correct", |rng| {
        let c = arb_cond(rng, 3);
        let set = c.to_intervals();
        for v in samples() {
            assert_eq!(c.eval(v), set.contains(v), "at {}", v);
        }
    });
}

/// Boolean-algebra laws hold on the canonical forms.
#[test]
fn boolean_laws() {
    check("boolean_laws", |rng| {
        let a = arb_cond(rng, 3);
        let b = arb_cond(rng, 3);
        let (sa, sb) = (a.to_intervals(), b.to_intervals());
        // De Morgan.
        assert_eq!(
            sa.union(&sb).complement(),
            sa.complement().intersect(&sb.complement())
        );
        // Distributivity.
        let sc = IntervalSet::lt(Rat::from(3));
        assert_eq!(
            sa.intersect(&sb.union(&sc)),
            sa.intersect(&sb).union(&sa.intersect(&sc))
        );
        // Absorption.
        assert_eq!(sa.union(&sa.intersect(&sb)), sa);
        // Complement laws.
        assert_eq!(sa.union(&sa.complement()), IntervalSet::all());
        assert_eq!(sa.intersect(&sa.complement()), IntervalSet::empty());
        // Difference.
        assert_eq!(sa.difference(&sb).intersect(&sb), IntervalSet::empty());
    });
}

/// Canonical representation: semantically equal conditions have
/// structurally equal interval sets.
#[test]
fn canonicity() {
    check("canonicity", |rng| {
        let a = arb_cond(rng, 3);
        let s = a.to_intervals();
        // Double negation.
        assert_eq!(a.clone().not().not().to_intervals(), s);
        // Round trip through Cond.
        assert_eq!(Cond::from_intervals(&s).to_intervals(), s);
        // Idempotent union/intersection.
        assert_eq!(s.union(&s), s);
        assert_eq!(s.intersect(&s), s);
        // Disjointness and ordering of the representation.
        let ivs = s.intervals();
        for w in ivs.windows(2) {
            assert!(w[0].hi() <= w[1].lo(), "unordered or overlapping");
            assert!(w[0].hi() != w[1].lo(), "adjacent pieces not merged");
        }
    });
}

/// Witnesses always belong to their sets, and implication is a
/// partial order consistent with membership.
#[test]
fn witnesses_and_implication() {
    check("witnesses_and_implication", |rng| {
        let a = arb_cond(rng, 3);
        let b = arb_cond(rng, 3);
        let (sa, sb) = (a.to_intervals(), b.to_intervals());
        if let Some(w) = sa.witness() {
            assert!(sa.contains(w));
        }
        if sa.implies(&sb) {
            for v in samples() {
                if sa.contains(v) {
                    assert!(sb.contains(v));
                }
            }
            if let Some(w) = sa.witness() {
                assert!(sb.contains(w));
            }
        }
    });
}
