//! Step and wall-clock budgets for analysis fixpoints.
//!
//! A [`Budget`] is a declarative limit — at most `max_steps` units of work
//! and/or `max_time` of wall clock — and a [`BudgetMeter`] is the running
//! enforcement of one: solver loops call [`BudgetMeter::tick`] once per unit
//! of work and stop (degrading gracefully) when it returns `false`. The
//! deadline is only consulted every `DEADLINE_CHECK_INTERVAL` (1024) steps so the
//! per-iteration cost of an armed budget stays a counter increment.

use std::time::{
    Duration,
    Instant, //
};

/// How many steps pass between wall-clock checks.
const DEADLINE_CHECK_INTERVAL: u64 = 1024;

/// A work limit: step cap, wall-clock cap, both, or neither.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum number of steps (solver iterations, propagations).
    pub max_steps: Option<u64>,
    /// Maximum wall-clock time, measured from [`BudgetMeter::start`].
    pub max_time: Option<Duration>,
}

impl Budget {
    /// No limits at all.
    pub const UNLIMITED: Budget = Budget {
        max_steps: None,
        max_time: None,
    };

    /// A pure step budget.
    pub fn steps(n: u64) -> Budget {
        Budget {
            max_steps: Some(n),
            max_time: None,
        }
    }

    /// A pure wall-clock budget.
    pub fn millis(ms: u64) -> Budget {
        Budget {
            max_steps: None,
            max_time: Some(Duration::from_millis(ms)),
        }
    }

    /// Adds a step cap.
    pub fn with_steps(mut self, n: u64) -> Budget {
        self.max_steps = Some(n);
        self
    }

    /// Adds a wall-clock cap.
    pub fn with_millis(mut self, ms: u64) -> Budget {
        self.max_time = Some(Duration::from_millis(ms));
        self
    }

    /// Whether the budget imposes no limit.
    pub fn is_unlimited(&self) -> bool {
        self.max_steps.is_none() && self.max_time.is_none()
    }
}

/// The running enforcement of a [`Budget`].
#[derive(Clone, Debug)]
pub struct BudgetMeter {
    budget: Budget,
    started: Instant,
    steps: u64,
    exhausted: bool,
}

impl BudgetMeter {
    /// Starts metering; the wall clock (if capped) begins now.
    pub fn start(budget: Budget) -> BudgetMeter {
        BudgetMeter {
            budget,
            started: Instant::now(),
            steps: 0,
            exhausted: false,
        }
    }

    /// Charges one step. Returns `true` while within budget; once it
    /// returns `false` it keeps returning `false` (exhaustion is sticky).
    pub fn tick(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        self.steps += 1;
        if let Some(cap) = self.budget.max_steps {
            if self.steps > cap {
                self.exhausted = true;
                return false;
            }
        }
        if let Some(limit) = self.budget.max_time {
            if self.steps.is_multiple_of(DEADLINE_CHECK_INTERVAL) && self.started.elapsed() > limit
            {
                self.exhausted = true;
                return false;
            }
        }
        true
    }

    /// Whether the budget has run out.
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// Steps charged so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let mut m = BudgetMeter::start(Budget::UNLIMITED);
        for _ in 0..100_000 {
            assert!(m.tick());
        }
        assert!(!m.exhausted());
    }

    #[test]
    fn step_cap_exhausts_and_sticks() {
        let mut m = BudgetMeter::start(Budget::steps(3));
        assert!(m.tick());
        assert!(m.tick());
        assert!(m.tick());
        assert!(!m.tick());
        assert!(!m.tick(), "exhaustion must be sticky");
        assert!(m.exhausted());
    }

    #[test]
    fn zero_time_budget_exhausts_within_interval() {
        let mut m = BudgetMeter::start(Budget::millis(0));
        let mut survived = 0u64;
        while m.tick() {
            survived += 1;
            assert!(survived <= 2048, "deadline never enforced");
        }
        assert!(m.exhausted());
    }

    #[test]
    fn builder_combines_caps() {
        let b = Budget::steps(10).with_millis(5);
        assert!(!b.is_unlimited());
        assert_eq!(b.max_steps, Some(10));
        assert_eq!(b.max_time, Some(Duration::from_millis(5)));
    }
}
