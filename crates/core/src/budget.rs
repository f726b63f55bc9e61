//! Cooperative cost-slicing for long solves.
//!
//! A [`Budget`] is a request's deadline, handed to a solve and charged
//! once per unit of work (a processed edge, a probe, a DP cell). Every
//! `stride` units the budget actually looks at the clock, so the common
//! case costs one counter decrement — cheap enough to sit inside the
//! paper's `O(n + p log q)` hot loops — while a million-node
//! adversarial solve still notices an expired deadline within a bounded
//! number of work units instead of head-of-line blocking a worker until
//! it finishes.

use std::cell::Cell;
use std::time::Instant;

/// Default number of work units between real deadline checks.
///
/// Chosen so the check amortizes to noise (one `Instant::now()` per
/// ~16k edge visits) while a 50 ms deadline is still observed within a
/// fraction of a millisecond of solver progress.
pub const DEFAULT_STRIDE: u64 = 16 * 1024;

/// Why a [`Budget`] refused further work: its wall-clock deadline
/// passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exceeded;

impl std::fmt::Display for Exceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deadline exceeded")
    }
}

impl std::error::Error for Exceeded {}

/// A cooperative work budget: an optional wall-clock deadline, checked
/// every `stride` work units.
///
/// One budget serves one solve; it is intentionally `!Sync` (interior
/// `Cell` counters) — concurrent batch items each build their own from
/// their deadline.
#[derive(Debug, Clone)]
pub struct Budget {
    deadline: Option<Instant>,
    stride: u64,
    until_check: Cell<u64>,
}

impl Budget {
    /// A budget that never expires. Charges against it are a single
    /// branch.
    pub fn unlimited() -> Self {
        Budget {
            deadline: None,
            stride: DEFAULT_STRIDE,
            until_check: Cell::new(DEFAULT_STRIDE),
        }
    }

    /// A budget that expires at `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        Budget {
            deadline: Some(deadline),
            ..Budget::unlimited()
        }
    }

    /// Overrides the check stride (work units between real checks).
    /// A stride of 0 checks on every charge.
    #[must_use]
    pub fn with_stride(mut self, stride: u64) -> Self {
        self.stride = stride;
        self.until_check.set(stride);
        self
    }

    /// Whether this budget can ever refuse work. `false` lets callers
    /// skip building budgeted state entirely.
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some()
    }

    /// The wall-clock deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Milliseconds until the deadline, saturating at zero. `None` when
    /// the budget has no deadline.
    pub fn remaining_ms(&self) -> Option<u64> {
        self.deadline.map(|d| {
            let now = Instant::now();
            if d <= now {
                0
            } else {
                u64::try_from((d - now).as_millis()).unwrap_or(u64::MAX)
            }
        })
    }

    /// Charges `units` of work. Most calls only decrement a counter;
    /// once `stride` units accumulate the clock is actually consulted.
    #[inline]
    pub fn charge(&self, units: u64) -> Result<(), Exceeded> {
        if !self.is_limited() {
            return Ok(());
        }
        let left = self.until_check.get();
        if left > units {
            self.until_check.set(left - units);
            return Ok(());
        }
        self.until_check.set(self.stride);
        self.check_now()
    }

    /// Consults the clock immediately, bypassing the stride counter.
    pub fn check_now(&self) -> Result<(), Exceeded> {
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => Err(Exceeded),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlimited_budget_never_refuses() {
        let b = Budget::unlimited();
        for _ in 0..1_000 {
            assert_eq!(b.charge(u64::MAX), Ok(()));
        }
        assert!(!b.is_limited());
        assert_eq!(b.remaining_ms(), None);
    }

    #[test]
    fn expired_deadline_fails_within_one_stride() {
        let b = Budget::with_deadline(Instant::now() - Duration::from_millis(1));
        // Charges below the stride pass on the fast path...
        assert_eq!(b.charge(1), Ok(()));
        // ...but at most `stride` units later the clock is consulted.
        let mut refused = false;
        for _ in 0..=2 * DEFAULT_STRIDE {
            if b.charge(1).is_err() {
                refused = true;
                break;
            }
        }
        assert!(refused, "expired budget must refuse within one stride");
        assert_eq!(b.check_now(), Err(Exceeded));
        assert_eq!(b.remaining_ms(), Some(0));
    }

    #[test]
    fn generous_deadline_passes() {
        let b = Budget::with_deadline(Instant::now() + Duration::from_secs(3600));
        for _ in 0..10 * DEFAULT_STRIDE {
            assert_eq!(b.charge(1), Ok(()));
        }
        assert!(b.remaining_ms().unwrap() > 3_000_000);
    }

    #[test]
    fn zero_stride_checks_every_charge() {
        let b = Budget::with_deadline(Instant::now() - Duration::from_millis(1)).with_stride(0);
        assert_eq!(b.charge(1), Err(Exceeded));
    }

    #[test]
    fn oversized_charge_triggers_immediate_check() {
        let b = Budget::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(b.charge(DEFAULT_STRIDE + 1), Err(Exceeded));
    }
}
