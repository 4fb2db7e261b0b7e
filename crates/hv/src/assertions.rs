//! The runtime-assertion monitor.
//!
//! The paper (§3.3) asks for a formally verified hypervisor; in lieu of
//! proofs, this reproduction pairs extensive property tests with a runtime
//! assertion monitor, and preserves the paper's failure policy exactly: "if,
//! for whatever reason, the hypervisor fails a software-level runtime
//! assertion or triggers an unexpected machine-check exception, the
//! hypervisor forcibly reboots into offline isolation mode."

use guillotine_types::{GuillotineError, SimInstant};

/// What the monitor decided after evaluating an assertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssertionOutcome {
    /// The invariant held.
    Held,
    /// The invariant failed; the hypervisor must reboot into offline
    /// isolation.
    FailedRebootRequired {
        /// Description of the violated invariant.
        description: String,
    },
}

/// One recorded assertion failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssertionFailure {
    /// When the failure happened.
    pub at: SimInstant,
    /// Description of the violated invariant.
    pub description: String,
}

/// Tracks runtime assertions evaluated by the hypervisor.
#[derive(Debug, Clone, Default)]
pub struct AssertionMonitor {
    evaluated: u64,
    failures: Vec<AssertionFailure>,
}

impl AssertionMonitor {
    /// Creates a monitor with no history.
    pub fn new() -> Self {
        AssertionMonitor::default()
    }

    /// Evaluates an invariant.
    pub fn check(
        &mut self,
        now: SimInstant,
        condition: bool,
        description: &str,
    ) -> AssertionOutcome {
        self.evaluated += 1;
        if condition {
            AssertionOutcome::Held
        } else {
            self.failures.push(AssertionFailure {
                at: now,
                description: description.to_string(),
            });
            AssertionOutcome::FailedRebootRequired {
                description: description.to_string(),
            }
        }
    }

    /// Evaluates an invariant and converts a failure into the corresponding
    /// error, for call sites that want `?` propagation.
    pub fn require(
        &mut self,
        now: SimInstant,
        condition: bool,
        description: &str,
    ) -> Result<(), GuillotineError> {
        match self.check(now, condition, description) {
            AssertionOutcome::Held => Ok(()),
            AssertionOutcome::FailedRebootRequired { description } => {
                Err(GuillotineError::RuntimeAssertion {
                    reason: description,
                })
            }
        }
    }

    /// Total assertions evaluated.
    pub fn evaluated(&self) -> u64 {
        self.evaluated
    }

    /// Recorded failures.
    pub fn failures(&self) -> &[AssertionFailure] {
        &self.failures
    }

    /// True if any assertion has ever failed.
    pub fn any_failure(&self) -> bool {
        !self.failures.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_assertions_accumulate_quietly() {
        let mut m = AssertionMonitor::new();
        for i in 0..100 {
            assert_eq!(
                m.check(SimInstant::from_nanos(i), true, "invariant"),
                AssertionOutcome::Held
            );
        }
        assert_eq!(m.evaluated(), 100);
        assert!(!m.any_failure());
    }

    #[test]
    fn failures_are_recorded_and_demand_reboot() {
        let mut m = AssertionMonitor::new();
        let out = m.check(SimInstant::from_nanos(5), false, "ring head <= tail");
        assert!(matches!(out, AssertionOutcome::FailedRebootRequired { .. }));
        assert_eq!(m.failures().len(), 1);
        assert_eq!(m.failures()[0].description, "ring head <= tail");
        assert!(m.any_failure());
    }

    #[test]
    fn require_converts_to_error() {
        let mut m = AssertionMonitor::new();
        assert!(m.require(SimInstant::ZERO, true, "ok").is_ok());
        let err = m.require(SimInstant::ZERO, false, "broken").unwrap_err();
        assert!(matches!(err, GuillotineError::RuntimeAssertion { .. }));
    }
}
