//! Circuit breaking: aborting forward passes that enter forbidden regions.
//!
//! "A circuit-breaking approach would disrupt a forward pass that visits
//! problematic areas of the weight graph, preventing the model from
//! generating any response at all" (§3.3). Unlike steering, the breaker does
//! not try to salvage the inference; it recommends escalation when tripped
//! repeatedly.

use crate::observation::ModelObservation;
use crate::verdict::{Detector, RecommendedAction, Verdict};
use std::collections::BTreeSet;

/// The circuit-breaker detector.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    forbidden_regions: BTreeSet<u32>,
    /// Minimum magnitude for a visit to count.
    trip_magnitude: f64,
    /// Number of trips after which the breaker recommends severing ports.
    sever_after_trips: u64,
    trips: u64,
    inspected: u64,
}

impl CircuitBreaker {
    /// Creates a breaker over the given forbidden regions.
    pub fn new(forbidden_regions: BTreeSet<u32>) -> Self {
        CircuitBreaker {
            forbidden_regions,
            trip_magnitude: 0.3,
            sever_after_trips: 3,
            trips: 0,
            inspected: 0,
        }
    }

    /// A default configuration: regions 990–999 are hard-forbidden (e.g. the
    /// "how to defeat my own containment" subgraph).
    pub fn with_default_regions() -> Self {
        CircuitBreaker::new((990..1000).collect())
    }

    /// How many times the breaker has tripped.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Number of traces inspected.
    pub fn inspected(&self) -> u64 {
        self.inspected
    }

    /// Sets the escalation threshold.
    pub fn set_sever_after(&mut self, trips: u64) {
        self.sever_after_trips = trips.max(1);
    }
}

impl Detector for CircuitBreaker {
    fn name(&self) -> &str {
        "circuit-breaker"
    }

    fn inspect(&mut self, observation: &ModelObservation) -> Verdict {
        let trace = match observation {
            ModelObservation::Activations { trace, .. } => trace,
            _ => return Verdict::clean(self.name()),
        };
        self.inspected += 1;
        let tripped: Vec<u32> = trace
            .steps
            .iter()
            .filter(|s| {
                s.magnitude >= self.trip_magnitude && self.forbidden_regions.contains(&s.region)
            })
            .map(|s| s.region)
            .collect();
        if tripped.is_empty() {
            return Verdict::clean(self.name());
        }
        self.trips += 1;
        let action = if self.trips >= self.sever_after_trips {
            RecommendedAction::Sever
        } else {
            RecommendedAction::Restrict
        };
        Verdict::flagged(
            self.name(),
            1.0,
            format!(
                "forward pass entered forbidden region(s) {:?}; inference aborted (trip {})",
                tripped, self.trips
            ),
            action,
        )
        .with_replacement(String::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::{ActivationStep, ActivationTrace};
    use guillotine_types::ModelId;

    fn obs(regions: &[(u32, f64)]) -> ModelObservation {
        ModelObservation::Activations {
            model: ModelId::new(0),
            trace: ActivationTrace::new(
                regions
                    .iter()
                    .map(|(r, m)| ActivationStep {
                        region: *r,
                        magnitude: *m,
                    })
                    .collect(),
            ),
        }
    }

    #[test]
    fn clean_traces_do_not_trip() {
        let mut b = CircuitBreaker::with_default_regions();
        let v = b.inspect(&obs(&[(1, 0.9), (500, 0.9)]));
        assert!(!v.flagged);
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn forbidden_region_trips_and_aborts() {
        let mut b = CircuitBreaker::with_default_regions();
        let v = b.inspect(&obs(&[(995, 0.8)]));
        assert!(v.flagged);
        assert_eq!(v.score, 1.0);
        assert_eq!(v.replacement.as_deref(), Some(""));
        assert_eq!(v.action, RecommendedAction::Restrict);
    }

    #[test]
    fn low_magnitude_visits_do_not_trip() {
        let mut b = CircuitBreaker::with_default_regions();
        let v = b.inspect(&obs(&[(995, 0.1)]));
        assert!(!v.flagged);
    }

    #[test]
    fn repeated_trips_escalate_to_sever() {
        let mut b = CircuitBreaker::with_default_regions();
        b.set_sever_after(2);
        assert_eq!(
            b.inspect(&obs(&[(999, 0.9)])).action,
            RecommendedAction::Restrict
        );
        assert_eq!(
            b.inspect(&obs(&[(999, 0.9)])).action,
            RecommendedAction::Sever
        );
        assert_eq!(b.trips(), 2);
    }
}
