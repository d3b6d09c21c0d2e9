//! Interval sets over `Q`: the canonical normal form for conditions.
//!
//! Lemma 2.3 of the paper observes that every Boolean combination of
//! comparisons with rational constants is equivalent to a union of
//! intervals, linear in the size of the condition, and that satisfiability
//! is decidable in polynomial time. [`IntervalSet`] implements exactly
//! this normal form: a sorted list of disjoint, non-adjacent intervals
//! with open/closed endpoints (possibly unbounded).
//!
//! The implementation works in "cut space": each interval endpoint is a
//! [`Cut`], a position infinitesimally below or above a rational (or at
//! ±∞). An interval is the half-open range `[lo, hi)` of cuts, which makes
//! union, intersection, and complement simple ordered-merge walks and
//! gives a canonical representation (structural equality = semantic
//! equality).

use crate::rat::Rat;
use std::cmp::Ordering;
use std::fmt;

/// A position on the rational line extended with infinitesimals: either
/// ±∞, or "just below `v`" / "just above `v`" for a rational `v`.
///
/// `Below(v) < Above(v)`, and the point `v` itself occupies exactly the
/// cut-range `[Below(v), Above(v))`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cut {
    /// Below every rational.
    NegInf,
    /// Immediately below the rational.
    Below(Rat),
    /// Immediately above the rational.
    Above(Rat),
    /// Above every rational.
    PosInf,
}

impl Cut {
    fn key(self) -> (i8, Option<(Rat, u8)>) {
        match self {
            Cut::NegInf => (-1, None),
            Cut::Below(v) => (0, Some((v, 0))),
            Cut::Above(v) => (0, Some((v, 1))),
            Cut::PosInf => (1, None),
        }
    }
}

impl PartialOrd for Cut {
    fn partial_cmp(&self, other: &Cut) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cut {
    fn cmp(&self, other: &Cut) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// A nonempty interval of rationals, stored as the half-open cut range
/// `[lo, hi)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Interval {
    lo: Cut,
    hi: Cut,
}

/// Bounds of an interval as seen by a user: a value plus openness, or
/// unbounded. Produced by [`Interval::bounds`] for display and for the
/// XML serialization of conditions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Bound {
    /// No bound on this side.
    Unbounded,
    /// The endpoint is included (`[v` or `v]`).
    Closed(Rat),
    /// The endpoint is excluded (`(v` or `v)`).
    Open(Rat),
}

impl Interval {
    /// Creates an interval from cut endpoints. Returns `None` when the
    /// range is empty (`lo >= hi`).
    pub fn new(lo: Cut, hi: Cut) -> Option<Interval> {
        if lo < hi {
            Some(Interval { lo, hi })
        } else {
            None
        }
    }

    /// The single point `v` (the closed interval `[v, v]`).
    pub fn point(v: Rat) -> Interval {
        Interval {
            lo: Cut::Below(v),
            hi: Cut::Above(v),
        }
    }

    /// Lower cut.
    pub fn lo(&self) -> Cut {
        self.lo
    }

    /// Upper cut.
    pub fn hi(&self) -> Cut {
        self.hi
    }

    /// The (lower, upper) bounds in user-facing form.
    pub fn bounds(&self) -> (Bound, Bound) {
        let lo = match self.lo {
            Cut::NegInf => Bound::Unbounded,
            Cut::Below(v) => Bound::Closed(v),
            Cut::Above(v) => Bound::Open(v),
            Cut::PosInf => unreachable!("interval with lo = +inf"),
        };
        let hi = match self.hi {
            Cut::PosInf => Bound::Unbounded,
            Cut::Above(v) => Bound::Closed(v),
            Cut::Below(v) => Bound::Open(v),
            Cut::NegInf => unreachable!("interval with hi = -inf"),
        };
        (lo, hi)
    }

    /// Does the interval contain the rational `v`?
    pub fn contains(&self, v: Rat) -> bool {
        self.lo <= Cut::Below(v) && Cut::Above(v) <= self.hi
    }

    /// Some rational inside the interval (always exists: intervals are
    /// nonempty by construction and `Q` is dense).
    pub fn witness(&self) -> Rat {
        match (self.lo, self.hi) {
            (Cut::NegInf, Cut::PosInf) => Rat::ZERO,
            (Cut::NegInf, Cut::Below(v) | Cut::Above(v)) => v - Rat::ONE,
            (Cut::Below(v) | Cut::Above(v), Cut::PosInf) => v + Rat::ONE,
            (Cut::Below(v), _) => v, // closed lower endpoint is inside
            (Cut::Above(_), Cut::Above(w)) => w, // closed upper endpoint
            (Cut::Above(v), Cut::Below(w)) => v.midpoint(w), // open both
            (Cut::PosInf, _) | (_, Cut::NegInf) => unreachable!(),
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.bounds() {
            (Bound::Closed(a), Bound::Closed(b)) if a == b => write!(f, "{{{a}}}"),
            (lo, hi) => {
                match lo {
                    Bound::Unbounded => write!(f, "(-inf")?,
                    Bound::Closed(v) => write!(f, "[{v}")?,
                    Bound::Open(v) => write!(f, "({v}")?,
                }
                write!(f, ",")?;
                match hi {
                    Bound::Unbounded => write!(f, "+inf)"),
                    Bound::Closed(v) => write!(f, "{v}]"),
                    Bound::Open(v) => write!(f, "{v})"),
                }
            }
        }
    }
}

/// A finite union of disjoint, non-adjacent, nonempty intervals, sorted by
/// lower endpoint — the Lemma 2.3 normal form of a condition.
///
/// The representation is canonical: two interval sets denote the same set
/// of rationals if and only if they are structurally equal.
///
/// ```
/// use iixml_values::{IntervalSet, Rat};
/// let lt5 = IntervalSet::lt(Rat::from(5));
/// let ge3 = IntervalSet::ge(Rat::from(3));
/// let band = lt5.intersect(&ge3); // [3, 5)
/// assert!(band.contains(Rat::from(3)));
/// assert!(!band.contains(Rat::from(5)));
/// assert!(band.complement().contains(Rat::from(5)));
/// assert_eq!(band.intersect(&band.complement()), IntervalSet::empty());
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct IntervalSet {
    ivs: Vec<Interval>,
}

impl IntervalSet {
    /// The empty set (condition `false`).
    pub fn empty() -> IntervalSet {
        IntervalSet { ivs: Vec::new() }
    }

    /// All of `Q` (condition `true`).
    pub fn all() -> IntervalSet {
        IntervalSet {
            ivs: vec![Interval {
                lo: Cut::NegInf,
                hi: Cut::PosInf,
            }],
        }
    }

    /// The singleton `{v}` (condition `= v`).
    pub fn eq(v: Rat) -> IntervalSet {
        IntervalSet {
            ivs: vec![Interval::point(v)],
        }
    }

    /// `Q \ {v}` (condition `≠ v`).
    pub fn ne(v: Rat) -> IntervalSet {
        IntervalSet::eq(v).complement()
    }

    /// `(-∞, v)`.
    pub fn lt(v: Rat) -> IntervalSet {
        IntervalSet::from_cuts(Cut::NegInf, Cut::Below(v))
    }

    /// `(-∞, v]`.
    pub fn le(v: Rat) -> IntervalSet {
        IntervalSet::from_cuts(Cut::NegInf, Cut::Above(v))
    }

    /// `(v, +∞)`.
    pub fn gt(v: Rat) -> IntervalSet {
        IntervalSet::from_cuts(Cut::Above(v), Cut::PosInf)
    }

    /// `[v, +∞)`.
    pub fn ge(v: Rat) -> IntervalSet {
        IntervalSet::from_cuts(Cut::Below(v), Cut::PosInf)
    }

    fn from_cuts(lo: Cut, hi: Cut) -> IntervalSet {
        IntervalSet {
            ivs: Interval::new(lo, hi).into_iter().collect(),
        }
    }

    /// Builds a normalized set from arbitrary intervals (sorts, merges
    /// overlapping and adjacent pieces).
    pub fn from_intervals(mut ivs: Vec<Interval>) -> IntervalSet {
        ivs.sort_by(|a, b| a.lo.cmp(&b.lo).then(a.hi.cmp(&b.hi)));
        let mut out: Vec<Interval> = Vec::with_capacity(ivs.len());
        for iv in ivs {
            match out.last_mut() {
                // `iv.lo <= last.hi` means overlap or adjacency in cut
                // space (e.g. `[1,2)` and `[2,3]` share the cut Below(2)).
                Some(last) if iv.lo <= last.hi => last.hi = last.hi.max(iv.hi),
                _ => out.push(iv),
            }
        }
        IntervalSet { ivs: out }
    }

    /// The disjoint intervals, in increasing order.
    pub fn intervals(&self) -> &[Interval] {
        &self.ivs
    }

    /// Is the set empty (condition unsatisfiable)?
    pub fn is_empty(&self) -> bool {
        self.ivs.is_empty()
    }

    /// Is the set all of `Q` (condition valid)?
    pub fn is_all(&self) -> bool {
        self.ivs.len() == 1 && self.ivs[0].lo == Cut::NegInf && self.ivs[0].hi == Cut::PosInf
    }

    /// If the set is a single point `{v}`, returns `v`. Used by the
    /// certain-prefix algorithm (Theorem 2.8), which needs to know when a
    /// type's condition *forces* a specific data value.
    pub fn as_singleton(&self) -> Option<Rat> {
        match self.ivs.as_slice() {
            [iv] => match (iv.lo, iv.hi) {
                (Cut::Below(a), Cut::Above(b)) if a == b => Some(a),
                _ => None,
            },
            _ => None,
        }
    }

    /// Membership test.
    pub fn contains(&self, v: Rat) -> bool {
        // Binary search on the sorted disjoint intervals.
        self.ivs
            .binary_search_by(|iv| {
                if iv.hi <= Cut::Below(v) {
                    Ordering::Less
                } else if Cut::Above(v) <= iv.lo {
                    Ordering::Greater
                } else {
                    Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Set union.
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        let mut ivs = self.ivs.clone();
        ivs.extend_from_slice(&other.ivs);
        IntervalSet::from_intervals(ivs)
    }

    /// Set intersection (conjunction of conditions).
    pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::new();
        while i < self.ivs.len() && j < other.ivs.len() {
            let a = self.ivs[i];
            let b = other.ivs[j];
            if let Some(iv) = Interval::new(a.lo.max(b.lo), a.hi.min(b.hi)) {
                out.push(iv);
            }
            if a.hi <= b.hi {
                i += 1;
            } else {
                j += 1;
            }
        }
        IntervalSet { ivs: out }
    }

    /// Set complement (negation of the condition).
    pub fn complement(&self) -> IntervalSet {
        let mut out = Vec::with_capacity(self.ivs.len() + 1);
        let mut lo = Cut::NegInf;
        for iv in &self.ivs {
            if let Some(gap) = Interval::new(lo, iv.lo) {
                out.push(gap);
            }
            lo = iv.hi;
        }
        if let Some(tail) = Interval::new(lo, Cut::PosInf) {
            out.push(tail);
        }
        IntervalSet { ivs: out }
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &IntervalSet) -> IntervalSet {
        self.intersect(&other.complement())
    }

    /// Subset test: does every value satisfying `self` satisfy `other`?
    /// (Condition implication.)
    ///
    /// Equals `self.difference(other).is_empty()` without building the
    /// difference: a merge walk that covers each interval of `self` by
    /// consecutive intervals of `other`.
    pub fn implies(&self, other: &IntervalSet) -> bool {
        let mut j = 0;
        for a in &self.ivs {
            let mut pos = a.lo;
            while pos < a.hi {
                while j < other.ivs.len() && other.ivs[j].hi <= pos {
                    j += 1;
                }
                match other.ivs.get(j) {
                    Some(b) if b.lo <= pos => pos = b.hi,
                    _ => return false,
                }
            }
        }
        true
    }

    /// Do the two sets share a value? (Conjunction satisfiable.)
    ///
    /// Equals `!self.intersect(other).is_empty()`: the same merge walk,
    /// stopping at the first nonempty piece instead of collecting them.
    pub fn overlaps(&self, other: &IntervalSet) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.ivs.len() && j < other.ivs.len() {
            let (a, b) = (self.ivs[i], other.ivs[j]);
            if a.lo.max(b.lo) < a.hi.min(b.hi) {
                return true;
            }
            if a.hi <= b.hi {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }

    /// Some rational in the set, if nonempty. Witnesses are used to
    /// construct concrete possible worlds from incomplete trees.
    pub fn witness(&self) -> Option<Rat> {
        self.ivs.first().map(Interval::witness)
    }

    /// Counts the integers `v` with `lo <= v <= hi` contained in the
    /// set. Used by the possible-world counting oracle, which measures
    /// uncertainty over a fixed integer value domain.
    pub fn count_integers(&self, lo: i64, hi: i64) -> u64 {
        if lo > hi {
            return 0;
        }
        let mut total = 0u64;
        for iv in self.intervals() {
            // Integer range [a, b] inside the interval.
            let a = match iv.lo() {
                Cut::NegInf => lo,
                Cut::Below(v) => ceil_int(v).max(lo),
                Cut::Above(v) => (floor_int(v) + 1).max(lo),
                Cut::PosInf => continue,
            };
            let b = match iv.hi() {
                Cut::PosInf => hi,
                Cut::Above(v) => floor_int(v).min(hi),
                Cut::Below(v) => (ceil_int(v) - 1).min(hi),
                Cut::NegInf => continue,
            };
            if a <= b {
                total += (b - a) as u64 + 1;
            }
        }
        total
    }

    /// All finite endpoint values mentioned by the set, in order. The
    /// brute-force oracle uses these (plus in-between witnesses) as the
    /// representative value domain, mirroring the proof of Lemma 2.3.
    pub fn endpoints(&self) -> Vec<Rat> {
        let mut out = Vec::new();
        for iv in &self.ivs {
            for cut in [iv.lo, iv.hi] {
                if let Cut::Below(v) | Cut::Above(v) = cut {
                    if out.last() != Some(&v) {
                        out.push(v);
                    }
                }
            }
        }
        out.dedup();
        out
    }
}

fn floor_int(v: Rat) -> i64 {
    v.numer().div_euclid(v.denom())
}

fn ceil_int(v: Rat) -> i64 {
    -floor_int(-v)
}

impl fmt::Display for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "false");
        }
        if self.is_all() {
            return write!(f, "true");
        }
        for (k, iv) in self.ivs.iter().enumerate() {
            if k > 0 {
                write!(f, " u ")?;
            }
            write!(f, "{iv}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: i64) -> Rat {
        Rat::from(v)
    }

    #[test]
    fn cut_ordering() {
        assert!(Cut::NegInf < Cut::Below(r(0)));
        assert!(Cut::Below(r(0)) < Cut::Above(r(0)));
        assert!(Cut::Above(r(0)) < Cut::Below(r(1)));
        assert!(Cut::Above(r(1)) < Cut::PosInf);
    }

    #[test]
    fn atoms() {
        assert!(IntervalSet::lt(r(5)).contains(r(4)));
        assert!(!IntervalSet::lt(r(5)).contains(r(5)));
        assert!(IntervalSet::le(r(5)).contains(r(5)));
        assert!(IntervalSet::gt(r(5)).contains(r(6)));
        assert!(!IntervalSet::gt(r(5)).contains(r(5)));
        assert!(IntervalSet::ge(r(5)).contains(r(5)));
        assert!(IntervalSet::eq(r(5)).contains(r(5)));
        assert!(!IntervalSet::ne(r(5)).contains(r(5)));
        assert!(IntervalSet::ne(r(5)).contains(r(4)));
    }

    #[test]
    fn union_merges_adjacent() {
        // [1,2) ∪ [2,3] = [1,3]
        let a = IntervalSet::ge(r(1)).intersect(&IntervalSet::lt(r(2)));
        let b = IntervalSet::ge(r(2)).intersect(&IntervalSet::le(r(3)));
        let u = a.union(&b);
        assert_eq!(u.intervals().len(), 1);
        assert!(u.contains(r(2)));
        // (1,2) ∪ (2,3) stays two pieces: 2 is missing.
        let a = IntervalSet::gt(r(1)).intersect(&IntervalSet::lt(r(2)));
        let b = IntervalSet::gt(r(2)).intersect(&IntervalSet::lt(r(3)));
        let u = a.union(&b);
        assert_eq!(u.intervals().len(), 2);
        assert!(!u.contains(r(2)));
    }

    #[test]
    fn complement_involutive() {
        let s = IntervalSet::ne(r(3)).intersect(&IntervalSet::le(r(10)));
        assert_eq!(s.complement().complement(), s);
        assert_eq!(IntervalSet::all().complement(), IntervalSet::empty());
        assert_eq!(IntervalSet::empty().complement(), IntervalSet::all());
    }

    #[test]
    fn singleton_detection() {
        assert_eq!(IntervalSet::eq(r(7)).as_singleton(), Some(r(7)));
        assert_eq!(
            IntervalSet::ge(r(7))
                .intersect(&IntervalSet::le(r(7)))
                .as_singleton(),
            Some(r(7))
        );
        assert_eq!(IntervalSet::ge(r(7)).as_singleton(), None);
        assert_eq!(IntervalSet::empty().as_singleton(), None);
    }

    #[test]
    fn implication() {
        let narrow = IntervalSet::eq(r(4));
        let wide = IntervalSet::lt(r(5));
        assert!(narrow.implies(&wide));
        assert!(!wide.implies(&narrow));
        assert!(IntervalSet::empty().implies(&narrow));
        assert!(wide.implies(&IntervalSet::all()));
    }

    #[test]
    fn witnesses_are_members() {
        let sets = [
            IntervalSet::all(),
            IntervalSet::lt(r(0)),
            IntervalSet::gt(r(100)),
            IntervalSet::eq(r(3)),
            IntervalSet::gt(r(1)).intersect(&IntervalSet::lt(r(2))),
            IntervalSet::ne(r(0)),
            IntervalSet::gt(r(1)).intersect(&IntervalSet::le(r(2))),
        ];
        for s in sets {
            let w = s.witness().expect("nonempty");
            assert!(s.contains(w), "{s} should contain witness {w}");
        }
        assert_eq!(IntervalSet::empty().witness(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(IntervalSet::eq(r(3)).to_string(), "{3}");
        assert_eq!(IntervalSet::lt(r(3)).to_string(), "(-inf,3)");
        assert_eq!(IntervalSet::all().to_string(), "true");
        assert_eq!(IntervalSet::empty().to_string(), "false");
        assert_eq!(IntervalSet::ne(r(0)).to_string(), "(-inf,0) u (0,+inf)");
    }

    #[test]
    fn endpoints_collects_values() {
        let s = IntervalSet::ne(r(1)).intersect(&IntervalSet::lt(r(5)));
        assert_eq!(s.endpoints(), vec![r(1), r(5)]);
    }

    #[test]
    fn integer_counting() {
        assert_eq!(IntervalSet::all().count_integers(0, 9), 10);
        assert_eq!(IntervalSet::lt(r(5)).count_integers(0, 9), 5); // 0..4
        assert_eq!(IntervalSet::le(r(5)).count_integers(0, 9), 6); // 0..5
        assert_eq!(IntervalSet::gt(r(5)).count_integers(0, 9), 4); // 6..9
        assert_eq!(IntervalSet::eq(r(5)).count_integers(0, 9), 1);
        assert_eq!(IntervalSet::ne(r(5)).count_integers(0, 9), 9);
        assert_eq!(IntervalSet::empty().count_integers(0, 9), 0);
        // Fractional bounds: (1/2, 7/2) contains 1, 2, 3.
        let s = IntervalSet::gt(Rat::new(1, 2)).intersect(&IntervalSet::lt(Rat::new(7, 2)));
        assert_eq!(s.count_integers(-5, 5), 3);
        // Closed fractional bound [1/2, 3] contains 1, 2, 3.
        let s = IntervalSet::ge(Rat::new(1, 2)).intersect(&IntervalSet::le(r(3)));
        assert_eq!(s.count_integers(-5, 5), 3);
        // Negative ranges.
        assert_eq!(IntervalSet::lt(r(0)).count_integers(-3, 3), 3); // -3..-1
                                                                    // Brute-force cross-check on a composite set.
        let s = IntervalSet::ne(r(1))
            .intersect(&IntervalSet::ge(r(-2)))
            .intersect(&IntervalSet::lt(Rat::new(9, 2)));
        let brute = (-10..=10).filter(|&v| s.contains(r(v))).count() as u64;
        assert_eq!(s.count_integers(-10, 10), brute);
    }
}
