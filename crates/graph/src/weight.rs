//! The [`Weight`] newtype used for all vertex and edge weights.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A non-negative integral weight.
///
/// Vertex weights model processing requirements (e.g. instruction counts),
/// edge weights model communication volumes (e.g. bits transferred), exactly
/// as in Section 1 of the paper. Arithmetic is checked: overflow or underflow
/// panics with a descriptive message rather than silently wrapping, because a
/// wrapped weight would corrupt every feasibility decision downstream.
///
/// # Examples
///
/// ```
/// use tgp_graph::Weight;
///
/// let a = Weight::new(3);
/// let b = Weight::new(4);
/// assert_eq!(a + b, Weight::new(7));
/// assert_eq!((a + b).get(), 7);
/// assert!(a < b);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Weight(u64);

impl Weight {
    /// The zero weight.
    pub const ZERO: Weight = Weight(0);

    /// The maximum representable weight.
    pub const MAX: Weight = Weight(u64::MAX);

    /// Creates a weight from a raw value.
    ///
    /// # Examples
    ///
    /// ```
    /// use tgp_graph::Weight;
    /// assert_eq!(Weight::new(5).get(), 5);
    /// ```
    #[inline]
    pub const fn new(value: u64) -> Self {
        Weight(value)
    }

    /// Returns the raw value.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns `true` if the weight is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use tgp_graph::Weight;
    /// assert!(Weight::ZERO.is_zero());
    /// assert!(!Weight::new(1).is_zero());
    /// ```
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked addition; returns `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Weight) -> Option<Weight> {
        self.0.checked_add(rhs.0).map(Weight)
    }

    /// Checked subtraction; returns `None` on underflow.
    #[inline]
    pub fn checked_sub(self, rhs: Weight) -> Option<Weight> {
        self.0.checked_sub(rhs.0).map(Weight)
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Weight) -> Weight {
        Weight(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (clamps at zero).
    #[inline]
    pub fn saturating_sub(self, rhs: Weight) -> Weight {
        Weight(self.0.saturating_sub(rhs.0))
    }
}

/// The crate-wide weight budget: the combined total of all vertex and
/// edge weights, `node_total + edge_total`, must be strictly below
/// `u64::MAX`, so that any sum of distinct weights (span weights, cut
/// weights, dynamic-programming costs of the form "edge weight + sum of
/// other weights") fits `u64` without overflow, and `u64::MAX` stays
/// free as an "unset" sentinel in the solvers. Every graph constructor
/// checks it, the flat builders on running totals.
///
/// # Errors
///
/// [`GraphError::WeightOverflow`](crate::GraphError::WeightOverflow)
/// otherwise.
pub fn check_weight_totals(node_total: u128, edge_total: u128) -> Result<(), crate::GraphError> {
    if node_total + edge_total >= u128::from(u64::MAX) {
        return Err(crate::GraphError::WeightOverflow);
    }
    Ok(())
}

/// The exact sum of `weights`, for [`check_weight_totals`].
pub(crate) fn weight_sum(weights: impl IntoIterator<Item = Weight>) -> u128 {
    weights.into_iter().map(|w| u128::from(w.get())).sum()
}

impl fmt::Display for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl From<u64> for Weight {
    #[inline]
    fn from(value: u64) -> Self {
        Weight(value)
    }
}

impl From<u32> for Weight {
    #[inline]
    fn from(value: u32) -> Self {
        Weight(u64::from(value))
    }
}

impl From<Weight> for u64 {
    #[inline]
    fn from(value: Weight) -> Self {
        value.0
    }
}

impl Add for Weight {
    type Output = Weight;

    /// # Panics
    ///
    /// Panics if the sum overflows `u64`.
    #[inline]
    fn add(self, rhs: Weight) -> Weight {
        Weight(
            self.0
                .checked_add(rhs.0)
                .expect("weight addition overflowed u64"),
        )
    }
}

impl AddAssign for Weight {
    #[inline]
    fn add_assign(&mut self, rhs: Weight) {
        *self = *self + rhs;
    }
}

impl Sub for Weight {
    type Output = Weight;

    /// # Panics
    ///
    /// Panics if the difference underflows (would be negative).
    #[inline]
    fn sub(self, rhs: Weight) -> Weight {
        Weight(
            self.0
                .checked_sub(rhs.0)
                .expect("weight subtraction underflowed"),
        )
    }
}

impl SubAssign for Weight {
    #[inline]
    fn sub_assign(&mut self, rhs: Weight) {
        *self = *self - rhs;
    }
}

impl Sum for Weight {
    fn sum<I: Iterator<Item = Weight>>(iter: I) -> Weight {
        iter.fold(Weight::ZERO, |acc, w| acc + w)
    }
}

impl<'a> Sum<&'a Weight> for Weight {
    fn sum<I: Iterator<Item = &'a Weight>>(iter: I) -> Weight {
        iter.copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(Weight::new(7).get(), 7);
        assert_eq!(Weight::default(), Weight::ZERO);
        assert!(Weight::ZERO.is_zero());
        assert!(!Weight::new(1).is_zero());
    }

    #[test]
    fn arithmetic() {
        let a = Weight::new(10);
        let b = Weight::new(3);
        assert_eq!(a + b, Weight::new(13));
        assert_eq!(a - b, Weight::new(7));
        let mut c = a;
        c += b;
        assert_eq!(c, Weight::new(13));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn checked_arithmetic() {
        assert_eq!(Weight::MAX.checked_add(Weight::new(1)), None);
        assert_eq!(Weight::ZERO.checked_sub(Weight::new(1)), None);
        assert_eq!(
            Weight::new(2).checked_add(Weight::new(3)),
            Some(Weight::new(5))
        );
        assert_eq!(Weight::MAX.saturating_add(Weight::new(1)), Weight::MAX);
        assert_eq!(Weight::ZERO.saturating_sub(Weight::new(1)), Weight::ZERO);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn add_overflow_panics() {
        let _ = Weight::MAX + Weight::new(1);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = Weight::ZERO - Weight::new(1);
    }

    #[test]
    fn ordering_and_sum() {
        assert!(Weight::new(1) < Weight::new(2));
        let ws = [Weight::new(1), Weight::new(2), Weight::new(3)];
        let total: Weight = ws.iter().sum();
        assert_eq!(total, Weight::new(6));
        let total2: Weight = ws.into_iter().sum();
        assert_eq!(total2, Weight::new(6));
    }

    #[test]
    fn conversions() {
        assert_eq!(Weight::from(5u64), Weight::new(5));
        assert_eq!(Weight::from(5u32), Weight::new(5));
        assert_eq!(u64::from(Weight::new(5)), 5);
    }

    #[test]
    fn display_is_raw_value() {
        assert_eq!(Weight::new(42).to_string(), "42");
    }
}
