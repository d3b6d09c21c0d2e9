//! `IntervalSet::overlaps` and `IntervalSet::implies` are merge walks
//! that build no temporary set. They must agree with their definitions,
//! `!a.intersect(b).is_empty()` and `a.difference(b).is_empty()`, on
//! random sets mixing unbounded, point, open and closed endpoints.

use iixml_gen::rng::DetRng;
use iixml_gen::testkit::check;
use iixml_values::{IntervalSet, Rat};

/// One random piece: a point, a ray (open or closed, either way), a
/// bounded interval with random endpoint kinds, all of `Q`, or nothing.
fn random_piece(rng: &mut DetRng) -> IntervalSet {
    // Halves as well as integers, so open ends meet closed ones.
    let value = |rng: &mut DetRng| Rat::new(rng.range_i64(-12, 12), 2);
    match rng.below(9) {
        0 => IntervalSet::eq(value(rng)),
        1 => IntervalSet::ne(value(rng)),
        2 => IntervalSet::lt(value(rng)),
        3 => IntervalSet::le(value(rng)),
        4 => IntervalSet::gt(value(rng)),
        5 => IntervalSet::ge(value(rng)),
        6 => IntervalSet::all(),
        7 => IntervalSet::empty(),
        _ => {
            let (a, b) = (value(rng), value(rng));
            let lo = if rng.bool(0.5) {
                IntervalSet::gt(a)
            } else {
                IntervalSet::ge(a)
            };
            let hi = if rng.bool(0.5) {
                IntervalSet::lt(b)
            } else {
                IntervalSet::le(b)
            };
            lo.intersect(&hi)
        }
    }
}

/// A union of a few random pieces, so sets have several intervals.
fn random_set(rng: &mut DetRng) -> IntervalSet {
    (0..rng.range_usize(0, 5)).fold(IntervalSet::empty(), |acc, _| acc.union(&random_piece(rng)))
}

#[test]
fn overlaps_and_implies_match_their_definitions() {
    check("overlaps_and_implies_match_their_definitions", |rng| {
        for _ in 0..64 {
            let (a, b) = (random_set(rng), random_set(rng));
            for (x, y) in [(&a, &b), (&b, &a), (&a, &a)] {
                assert_eq!(
                    x.overlaps(y),
                    !x.intersect(y).is_empty(),
                    "overlaps({x}, {y})"
                );
                assert_eq!(
                    x.implies(y),
                    x.difference(y).is_empty(),
                    "implies({x}, {y})"
                );
            }
            // Pieces of one set always imply it.
            let part = a.intersect(&random_piece(rng));
            assert!(part.implies(&a), "implies({part}, {a})");
        }
    });
}
