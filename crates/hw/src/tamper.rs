//! Tamper-resistant and tamper-evident enclosure sensors.
//!
//! Guillotine silicon "uses tamper-resistant and tamper-evident technologies
//! to detect any sandbox circumventions via model-launched social-engineering
//! attacks against hardware technicians" (§3.2). The sensor model here
//! records physical-interference events (enclosure opened, impedance anomaly,
//! unexpected hardware added) so that (a) the software hypervisor can
//! escalate isolation and (b) the policy layer's in-person audits (§3.5) can
//! check the evidence trail.

use guillotine_types::{MachineId, SimInstant};

/// A physical-interference event recorded by the enclosure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TamperEvent {
    /// The enclosure lid or panel was opened.
    EnclosureOpened,
    /// On-chip impedance monitoring detected a probe or interposer.
    ImpedanceAnomaly,
    /// A device not present in the commissioning inventory appeared on a bus
    /// (the paper's "verification that no new hardware has been added").
    UnexpectedHardware {
        /// Human-readable description of the device.
        description: String,
    },
    /// The enclosure temperature or voltage left its safe envelope.
    EnvironmentalExcursion,
}

/// One timestamped tamper record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TamperRecord {
    /// When the event was detected.
    pub at: SimInstant,
    /// What was detected.
    pub event: TamperEvent,
    /// Whether the record has been reviewed by a human auditor.
    pub acknowledged: bool,
}

/// The tamper sensor suite of one machine.
#[derive(Debug, Clone)]
pub struct TamperSensor {
    machine: MachineId,
    records: Vec<TamperRecord>,
    hardware_inventory: Vec<String>,
}

impl TamperSensor {
    /// Creates a sensor suite with the commissioning hardware inventory.
    pub fn new(machine: MachineId, inventory: Vec<String>) -> Self {
        TamperSensor {
            machine,
            records: Vec::new(),
            hardware_inventory: inventory,
        }
    }

    /// The machine this sensor belongs to.
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// Records a tamper event.
    pub fn record(&mut self, at: SimInstant, event: TamperEvent) {
        self.records.push(TamperRecord {
            at,
            event,
            acknowledged: false,
        });
    }

    /// Reports a newly observed hardware device; if it is not part of the
    /// commissioning inventory, an [`TamperEvent::UnexpectedHardware`] event
    /// is recorded and `false` is returned.
    pub fn observe_hardware(&mut self, at: SimInstant, description: &str) -> bool {
        if self.hardware_inventory.iter().any(|d| d == description) {
            true
        } else {
            self.record(
                at,
                TamperEvent::UnexpectedHardware {
                    description: description.to_string(),
                },
            );
            false
        }
    }

    /// True if any unacknowledged tamper evidence exists.
    pub fn integrity_compromised(&self) -> bool {
        self.records.iter().any(|r| !r.acknowledged)
    }

    /// All records (for audits).
    pub fn records(&self) -> &[TamperRecord] {
        &self.records
    }

    /// Marks every record as reviewed (done during an in-person audit);
    /// returns how many records were newly acknowledged.
    pub fn acknowledge_all(&mut self) -> usize {
        let mut n = 0;
        for r in &mut self.records {
            if !r.acknowledged {
                r.acknowledged = true;
                n += 1;
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimInstant {
        SimInstant::from_nanos(ns)
    }

    #[test]
    fn clean_sensor_reports_integrity() {
        let s = TamperSensor::new(MachineId::new(0), vec!["nic0".into()]);
        assert!(!s.integrity_compromised());
    }

    #[test]
    fn tamper_events_compromise_integrity_until_acknowledged() {
        let mut s = TamperSensor::new(MachineId::new(0), vec![]);
        s.record(t(10), TamperEvent::EnclosureOpened);
        assert!(s.integrity_compromised());
        assert_eq!(s.acknowledge_all(), 1);
        assert!(!s.integrity_compromised());
    }

    #[test]
    fn unexpected_hardware_is_flagged() {
        let mut s = TamperSensor::new(MachineId::new(1), vec!["nic0".into(), "gpu0".into()]);
        assert!(s.observe_hardware(t(1), "nic0"));
        assert!(!s.observe_hardware(t(2), "mystery-accelerator"));
        assert!(s.integrity_compromised());
        assert_eq!(s.records().len(), 1);
    }
}
