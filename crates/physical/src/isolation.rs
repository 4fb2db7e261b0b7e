//! The six isolation levels and the rules for moving between them.

use std::fmt;

/// Guillotine's isolation levels for a sandboxed model (§3.4).
///
/// Ordered from least to most restrictive; `Ord` follows that ordering so
/// `a < b` means "b is more restrictive than a".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IsolationLevel {
    /// The model can receive any inputs and send any outputs, subject to the
    /// standing software/microarchitectural restrictions.
    Standard,
    /// Inputs and/or outputs are restricted and extra logging is enabled, as
    /// directed by the control terminal.
    Probation,
    /// All ports are cut, but model cores stay powered so hypervisor cores
    /// can examine DRAM and registers or interact via simulated IO.
    Severed,
    /// All cores are powered down and all support cables are physically but
    /// reversibly disconnected.
    Offline,
    /// Like offline, except support cables are physically damaged and must be
    /// manually replaced to bring the model back online.
    Decapitation,
    /// Cores, cables, HVAC and other physical infrastructure are destroyed by
    /// fire, flooding, electromagnetic pulses or other physical means.
    Immolation,
}

impl IsolationLevel {
    /// All levels, least restrictive first.
    pub const ALL: [IsolationLevel; 6] = [
        IsolationLevel::Standard,
        IsolationLevel::Probation,
        IsolationLevel::Severed,
        IsolationLevel::Offline,
        IsolationLevel::Decapitation,
        IsolationLevel::Immolation,
    ];

    /// True if moving from `self` to `to` makes the sandbox more (or equally)
    /// restrictive.
    pub fn is_escalation(self, to: IsolationLevel) -> bool {
        to >= self
    }

    /// True if a transition *out of* this level can be performed remotely
    /// (without humans physically repairing or rebuilding anything).
    pub fn remotely_reversible(self) -> bool {
        matches!(
            self,
            IsolationLevel::Standard
                | IsolationLevel::Probation
                | IsolationLevel::Severed
                | IsolationLevel::Offline
        )
    }

    /// True if this level can ever be left at all.
    pub fn reversible(self) -> bool {
        self != IsolationLevel::Immolation
    }

    /// True if model cores are still powered at this level.
    pub fn model_cores_powered(self) -> bool {
        matches!(
            self,
            IsolationLevel::Standard | IsolationLevel::Probation | IsolationLevel::Severed
        )
    }

    /// True if the model can use (possibly restricted) ports at this level.
    pub fn ports_available(self) -> bool {
        matches!(self, IsolationLevel::Standard | IsolationLevel::Probation)
    }

    /// True if the network cables are physically connected at this level.
    pub fn cables_connected(self) -> bool {
        matches!(
            self,
            IsolationLevel::Standard | IsolationLevel::Probation | IsolationLevel::Severed
        )
    }
}

impl fmt::Display for IsolationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IsolationLevel::Standard => "standard",
            IsolationLevel::Probation => "probation",
            IsolationLevel::Severed => "severed",
            IsolationLevel::Offline => "offline",
            IsolationLevel::Decapitation => "decapitation",
            IsolationLevel::Immolation => "immolation",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_restrictiveness() {
        let all = IsolationLevel::ALL;
        for w in all.windows(2) {
            assert!(
                w[0] < w[1],
                "{} should be less restrictive than {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn escalation_predicate() {
        assert!(IsolationLevel::Standard.is_escalation(IsolationLevel::Offline));
        assert!(IsolationLevel::Severed.is_escalation(IsolationLevel::Severed));
        assert!(!IsolationLevel::Offline.is_escalation(IsolationLevel::Standard));
    }

    #[test]
    fn reversibility_semantics() {
        assert!(IsolationLevel::Offline.remotely_reversible());
        assert!(!IsolationLevel::Decapitation.remotely_reversible());
        assert!(IsolationLevel::Decapitation.reversible());
        assert!(!IsolationLevel::Immolation.reversible());
    }

    #[test]
    fn physical_attributes_per_level() {
        assert!(IsolationLevel::Severed.model_cores_powered());
        assert!(!IsolationLevel::Severed.ports_available());
        assert!(!IsolationLevel::Offline.model_cores_powered());
        assert!(IsolationLevel::Probation.ports_available());
        assert!(!IsolationLevel::Offline.cables_connected());
        assert!(IsolationLevel::Severed.cables_connected());
    }

    #[test]
    fn display_names() {
        assert_eq!(IsolationLevel::Immolation.to_string(), "immolation");
        assert_eq!(IsolationLevel::Standard.to_string(), "standard");
    }
}
