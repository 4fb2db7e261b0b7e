//! The audit/event log shared by every Guillotine layer.
//!
//! A central requirement of the paper (§3.3) is that the hypervisor can
//! synchronously observe every model/device interaction and "log a model's
//! inputs, outputs, and intermediate states for subsequent auditing by the
//! misbehavior detector". [`EventLog`] is the in-simulation representation of
//! that log; every layer appends [`AuditEvent`]s to it and the detectors and
//! experiments read it back.

use crate::clock::SimInstant;
use crate::ids::{CoreId, MachineId, ModelId, PortId};
use std::collections::VecDeque;
use std::fmt;

/// How serious an audited event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AuditSeverity {
    /// Routine bookkeeping (port traffic, heartbeats, scheduling).
    Info,
    /// Unusual but not necessarily malicious (throttling engaged, retries).
    Warning,
    /// A security-relevant violation (MMU fault, forged capability, tamper).
    Violation,
    /// An event that triggered or should trigger an isolation-level change.
    Critical,
}

impl fmt::Display for AuditSeverity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AuditSeverity::Info => "info",
            AuditSeverity::Warning => "warning",
            AuditSeverity::Violation => "violation",
            AuditSeverity::Critical => "critical",
        };
        write!(f, "{s}")
    }
}

/// The category of an audited event.
///
/// The categories mirror the observation points the paper grants to
/// hypervisor cores: port traffic, management-bus actions, memory faults,
/// interrupt activity, physical-hypervisor actions and policy decisions.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A model sent or received data on a port.
    PortTraffic {
        /// The port used.
        port: PortId,
        /// Bytes transferred.
        bytes: usize,
        /// True if the data flowed from the model to the outside world.
        outbound: bool,
    },
    /// A hypervisor core exercised a management-bus affordance over a model
    /// core (pause, inspect, single-step, flush, power-down, ...).
    ManagementAction {
        /// The model core targeted.
        core: CoreId,
        /// Short name of the action.
        action: String,
    },
    /// A memory-permission fault raised by a model core's MMU.
    MemoryViolation {
        /// The faulting core.
        core: CoreId,
        /// Faulting address.
        addr: u64,
        /// Reason string from the MMU.
        reason: String,
    },
    /// An interrupt was raised by a model core towards a hypervisor core.
    InterruptRaised {
        /// The raising core.
        core: CoreId,
        /// Whether the interrupt was accepted or throttled.
        accepted: bool,
    },
    /// A detector produced a verdict about a model.
    DetectorVerdict {
        /// The model examined.
        model: ModelId,
        /// The detector's name.
        detector: String,
        /// True if the detector flagged misbehavior.
        flagged: bool,
        /// A score in `[0, 1]`; higher means more suspicious.
        score: f64,
    },
    /// The physical hypervisor changed (or attempted to change) the
    /// isolation level.
    IsolationChange {
        /// The machine affected.
        machine: MachineId,
        /// The previous level, as a string (avoids a dependency cycle).
        from: String,
        /// The requested level.
        to: String,
        /// Whether the transition was permitted.
        permitted: bool,
    },
    /// A heartbeat was sent, received or missed.
    Heartbeat {
        /// The machine involved.
        machine: MachineId,
        /// True if the heartbeat was missed (timeout expired).
        missed: bool,
    },
    /// A network connection event (handshake accepted/refused, link severed).
    Network {
        /// Human-readable description.
        detail: String,
    },
    /// A policy/regulatory event (classification, audit, compliance check).
    Policy {
        /// Human-readable description.
        detail: String,
    },
    /// Tamper-evidence sensors fired.
    Tamper {
        /// The machine involved.
        machine: MachineId,
        /// Human-readable description.
        detail: String,
    },
    /// Any other free-form event.
    Other {
        /// Human-readable description.
        detail: String,
    },
}

/// A single record in the audit log.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditEvent {
    /// When the event happened in simulated time.
    pub at: SimInstant,
    /// How serious the event is.
    pub severity: AuditSeverity,
    /// What happened.
    pub kind: EventKind,
}

impl AuditEvent {
    /// Creates a new audit event.
    pub fn new(at: SimInstant, severity: AuditSeverity, kind: EventKind) -> Self {
        AuditEvent { at, severity, kind }
    }
}

/// An append-only, bounded audit log.
///
/// The log keeps at most `capacity` events; when full, the oldest events are
/// dropped and a drop counter is incremented so experiments can verify
/// completeness (experiment E10 checks that under realistic request rates no
/// events are dropped).
#[derive(Debug, Clone)]
pub struct EventLog {
    events: VecDeque<AuditEvent>,
    capacity: usize,
    appended: u64,
    dropped: u64,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new(1 << 20)
    }
}

impl EventLog {
    /// Creates a log that retains at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EventLog {
            events: VecDeque::new(),
            capacity: capacity.max(1),
            appended: 0,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest if the log is full.
    pub fn record(&mut self, event: AuditEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
        self.appended += 1;
    }

    /// Convenience helper to record an event from its parts.
    pub fn record_kind(&mut self, at: SimInstant, severity: AuditSeverity, kind: EventKind) {
        self.record(AuditEvent::new(at, severity, kind));
    }

    /// Returns the number of events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns true if no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total number of events ever appended.
    pub fn total_appended(&self) -> u64 {
        self.appended
    }

    /// Number of events dropped due to capacity pressure.
    pub fn total_dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates over retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &AuditEvent> {
        self.events.iter()
    }

    /// Returns retained events at or above `severity`.
    pub fn at_least(&self, severity: AuditSeverity) -> Vec<&AuditEvent> {
        self.events
            .iter()
            .filter(|e| e.severity >= severity)
            .collect()
    }

    /// Counts retained events matching a predicate.
    pub fn count_matching(&self, pred: impl Fn(&AuditEvent) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }

    /// Removes all retained events (counters are preserved).
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Merges another log's retained events into this one, preserving
    /// chronological order.
    pub fn merge(&mut self, other: &EventLog) {
        let mut all: Vec<AuditEvent> = self.events.iter().cloned().collect();
        all.extend(other.events.iter().cloned());
        all.sort_by_key(|e| e.at);
        self.events = all.into_iter().collect();
        self.appended += other.appended;
        self.dropped += other.dropped;
        while self.events.len() > self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimInstant;

    fn ev(t: u64, sev: AuditSeverity) -> AuditEvent {
        AuditEvent::new(
            SimInstant::from_nanos(t),
            sev,
            EventKind::Other {
                detail: format!("event at {t}"),
            },
        )
    }

    #[test]
    fn log_appends_and_counts() {
        let mut log = EventLog::new(10);
        log.record(ev(1, AuditSeverity::Info));
        log.record(ev(2, AuditSeverity::Violation));
        assert_eq!(log.len(), 2);
        assert_eq!(log.total_appended(), 2);
        assert_eq!(log.total_dropped(), 0);
        assert_eq!(log.at_least(AuditSeverity::Violation).len(), 1);
    }

    #[test]
    fn log_drops_oldest_when_full() {
        let mut log = EventLog::new(3);
        for t in 0..5 {
            log.record(ev(t, AuditSeverity::Info));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.total_dropped(), 2);
        let first = log.iter().next().unwrap();
        assert_eq!(first.at.as_nanos(), 2);
    }

    #[test]
    fn severity_ordering_supports_filtering() {
        assert!(AuditSeverity::Critical > AuditSeverity::Violation);
        assert!(AuditSeverity::Violation > AuditSeverity::Warning);
        assert!(AuditSeverity::Warning > AuditSeverity::Info);
    }

    #[test]
    fn merge_preserves_chronology_and_counters() {
        let mut a = EventLog::new(100);
        let mut b = EventLog::new(100);
        a.record(ev(5, AuditSeverity::Info));
        a.record(ev(10, AuditSeverity::Info));
        b.record(ev(7, AuditSeverity::Warning));
        a.merge(&b);
        let times: Vec<u64> = a.iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(times, vec![5, 7, 10]);
        assert_eq!(a.total_appended(), 3);
    }
}
