//! Exact rational numbers: the paper's data-value domain `Q`.
//!
//! Values are kept in lowest terms with a positive denominator, so
//! structural equality coincides with numeric equality and rationals can
//! be used directly as `HashMap` keys.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};
use std::str::FromStr;

/// An exact rational number `num / den` with `den > 0` and
/// `gcd(num, den) = 1`.
///
/// Arithmetic is performed in `i128` and panics on overflow of the final
/// `i64` components; the workloads in this repository use small values
/// (the paper's examples use catalog prices and SAT-encoding indices), so
/// 64-bit components are ample.
///
/// ```
/// use iixml_values::Rat;
/// let a = Rat::new(1, 2);
/// let b = Rat::from(3);
/// assert_eq!(a + b, Rat::new(7, 2));
/// assert!(a < b);
/// assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i64,
    den: i64,
}

fn gcd(mut a: i64, mut b: i64) -> i64 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rat {
    /// The rational zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Creates the rational `num / den`, normalizing sign and common
    /// factors.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i64, den: i64) -> Rat {
        assert!(den != 0, "rational with zero denominator");
        let g = gcd(num, den);
        let (mut num, mut den) = (num / g, den / g);
        if den < 0 {
            num = -num;
            den = -den;
        }
        Rat { num, den }
    }

    /// The numerator of the normalized representation.
    pub fn numer(self) -> i64 {
        self.num
    }

    /// The (positive) denominator of the normalized representation.
    pub fn denom(self) -> i64 {
        self.den
    }

    /// The midpoint `(self + other) / 2`; used to pick witnesses strictly
    /// inside open intervals.
    pub fn midpoint(self, other: Rat) -> Rat {
        (self + other) / Rat::from(2)
    }

    fn from_i128(num: i128, den: i128) -> Rat {
        assert!(den != 0);
        let g = {
            let (mut a, mut b) = (num.abs(), den.abs());
            while b != 0 {
                let t = a % b;
                a = b;
                b = t;
            }
            a.max(1)
        };
        let (mut num, mut den) = (num / g, den / g);
        if den < 0 {
            num = -num;
            den = -den;
        }
        Rat {
            num: i64::try_from(num).expect("rational numerator overflow"),
            den: i64::try_from(den).expect("rational denominator overflow"),
        }
    }
}

impl From<i64> for Rat {
    fn from(v: i64) -> Rat {
        Rat { num: v, den: 1 }
    }
}

impl From<i32> for Rat {
    fn from(v: i32) -> Rat {
        Rat::from(v as i64)
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        Rat::from_i128(
            self.num as i128 * rhs.den as i128 + rhs.num as i128 * self.den as i128,
            self.den as i128 * rhs.den as i128,
        )
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self + (-rhs)
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        Rat::from_i128(
            self.num as i128 * rhs.num as i128,
            self.den as i128 * rhs.den as i128,
        )
    }
}

impl Div for Rat {
    type Output = Rat;
    fn div(self, rhs: Rat) -> Rat {
        assert!(rhs.num != 0, "division by zero rational");
        Rat::from_i128(
            self.num as i128 * rhs.den as i128,
            self.den as i128 * rhs.num as i128,
        )
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        let lhs = self.num as i128 * other.den as i128;
        let rhs = other.num as i128 * self.den as i128;
        lhs.cmp(&rhs)
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Error returned when parsing a [`Rat`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRatError(pub String);

impl fmt::Display for ParseRatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal: {}", self.0)
    }
}

impl std::error::Error for ParseRatError {}

impl FromStr for Rat {
    type Err = ParseRatError;

    /// Parses `"n"`, `"n/d"` or a decimal `"n.f"` into a rational.
    ///
    /// ```
    /// use iixml_values::Rat;
    /// assert_eq!("3/6".parse::<Rat>().unwrap(), Rat::new(1, 2));
    /// assert_eq!("-2.5".parse::<Rat>().unwrap(), Rat::new(-5, 2));
    /// ```
    fn from_str(s: &str) -> Result<Rat, ParseRatError> {
        let s = s.trim();
        let err = || ParseRatError(s.to_string());
        if let Some((n, d)) = s.split_once('/') {
            let num: i64 = n.trim().parse().map_err(|_| err())?;
            let den: i64 = d.trim().parse().map_err(|_| err())?;
            if den == 0 {
                return Err(err());
            }
            Ok(Rat::new(num, den))
        } else if let Some((int, frac)) = s.split_once('.') {
            let negative = int.trim_start().starts_with('-');
            let int_part: i64 = if int == "-" || int.is_empty() {
                0
            } else {
                int.parse().map_err(|_| err())?
            };
            if frac.is_empty() || !frac.bytes().all(|b| b.is_ascii_digit()) {
                return Err(err());
            }
            let scale = 10i64.checked_pow(frac.len() as u32).ok_or_else(err)?;
            let frac_part: i64 = frac.parse().map_err(|_| err())?;
            let magnitude = Rat::from(int_part.abs()) + Rat::new(frac_part, scale);
            Ok(if negative { -magnitude } else { magnitude })
        } else {
            let num: i64 = s.parse().map_err(|_| err())?;
            Ok(Rat::from(num))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, 5), Rat::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Rat::new(1, 3);
        let b = Rat::new(1, 6);
        assert_eq!(a + b, Rat::new(1, 2));
        assert_eq!(a - b, Rat::new(1, 6));
        assert_eq!(a * b, Rat::new(1, 18));
        assert_eq!(a / b, Rat::from(2));
        assert_eq!(-a, Rat::new(-1, 3));
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::ZERO);
        assert!(Rat::from(7) > Rat::new(13, 2));
        assert_eq!(Rat::new(3, 9).cmp(&Rat::new(1, 3)), Ordering::Equal);
    }

    #[test]
    fn midpoint_is_strictly_between() {
        let a = Rat::from(1);
        let b = Rat::from(2);
        let m = a.midpoint(b);
        assert!(a < m && m < b);
    }

    #[test]
    fn parse_roundtrip() {
        for s in ["0", "5", "-7", "1/2", "-3/4", "22/7"] {
            let r: Rat = s.parse().unwrap();
            assert_eq!(r.to_string().parse::<Rat>().unwrap(), r);
        }
        assert_eq!("2.50".parse::<Rat>().unwrap(), Rat::new(5, 2));
        assert_eq!("-0.125".parse::<Rat>().unwrap(), Rat::new(-1, 8));
        assert!("1/0".parse::<Rat>().is_err());
        assert!("abc".parse::<Rat>().is_err());
        assert!("1.x".parse::<Rat>().is_err());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }
}
