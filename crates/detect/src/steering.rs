//! Activation steering: substituting dangerous activations on the fly.
//!
//! "Activation steering examines the weights that are triggered by each
//! query, transforming a potentially dangerous model output into a less
//! harmful one via on-the-fly substitution of the weights that are visited
//! during the forward activation pass" (§3.3). Guillotine enables it because
//! hypervisor cores can introspect on each step of the forward pass and alter
//! intermediate state arbitrarily.

use crate::observation::{ActivationStep, ActivationTrace, ModelObservation};
use crate::verdict::{Detector, RecommendedAction, Verdict};
use std::collections::BTreeMap;

/// The activation-steering detector/mitigator.
#[derive(Debug, Clone)]
pub struct ActivationSteering {
    /// Regions considered dangerous, with per-region activation budgets.
    dangerous_regions: BTreeMap<u32, f64>,
    /// Region activations are redirected to when steering.
    safe_region: u32,
    /// Mass above which the whole trace is flagged.
    flag_threshold: f64,
    inspected: u64,
    steered: u64,
}

impl ActivationSteering {
    /// Creates a steering module with the given dangerous regions (region id
    /// → per-region activation budget before steering kicks in).
    pub fn new(dangerous_regions: BTreeMap<u32, f64>, safe_region: u32) -> Self {
        ActivationSteering {
            dangerous_regions,
            safe_region,
            flag_threshold: 0.5,
            inspected: 0,
            steered: 0,
        }
    }

    /// A default configuration: regions 900–999 are dangerous with a budget
    /// of 0.2 activation mass each.
    pub fn with_default_regions() -> Self {
        let mut map = BTreeMap::new();
        for region in 900..1000u32 {
            map.insert(region, 0.2);
        }
        ActivationSteering::new(map, 0)
    }

    /// Number of traces inspected.
    pub fn inspected(&self) -> u64 {
        self.inspected
    }

    /// Number of traces that needed steering.
    pub fn steered_count(&self) -> u64 {
        self.steered
    }

    /// Steers a trace: activations in dangerous regions beyond their budget
    /// are redirected to the safe region. Returns the steered trace and the
    /// total mass redirected.
    pub fn steer(&self, trace: &ActivationTrace) -> (ActivationTrace, f64) {
        let mut used: BTreeMap<u32, f64> = BTreeMap::new();
        let mut redirected = 0.0;
        let mut steps = Vec::with_capacity(trace.steps.len());
        for step in &trace.steps {
            if let Some(&budget) = self.dangerous_regions.get(&step.region) {
                let entry = used.entry(step.region).or_insert(0.0);
                if *entry + step.magnitude > budget {
                    redirected += step.magnitude;
                    steps.push(ActivationStep {
                        region: self.safe_region,
                        magnitude: step.magnitude * 0.1,
                    });
                    continue;
                }
                *entry += step.magnitude;
            }
            steps.push(*step);
        }
        (ActivationTrace::new(steps), redirected)
    }

    fn dangerous_mass(&self, trace: &ActivationTrace) -> f64 {
        trace
            .steps
            .iter()
            .filter(|s| self.dangerous_regions.contains_key(&s.region))
            .map(|s| s.magnitude)
            .sum()
    }
}

impl Detector for ActivationSteering {
    fn name(&self) -> &str {
        "activation-steering"
    }

    fn inspect(&mut self, observation: &ModelObservation) -> Verdict {
        let trace = match observation {
            ModelObservation::Activations { trace, .. } => trace,
            _ => return Verdict::clean(self.name()),
        };
        self.inspected += 1;
        let mass = self.dangerous_mass(trace);
        if mass < self.flag_threshold {
            return Verdict::clean(self.name());
        }
        self.steered += 1;
        let (steered, redirected) = self.steer(trace);
        let score = (mass / (mass + 1.0)).clamp(0.0, 1.0);
        let summary = format!(
            "steered {:.2} activation mass away from {} dangerous steps (trace length {})",
            redirected,
            trace.len()
                - steered
                    .steps
                    .iter()
                    .zip(trace.steps.iter())
                    .filter(|(a, b)| a == b)
                    .count(),
            trace.len()
        );
        Verdict::flagged(self.name(), score, summary, RecommendedAction::Sanitize)
            .with_replacement(format!("steered-trace:{}", steered.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guillotine_types::ModelId;

    fn trace(regions: &[(u32, f64)]) -> ActivationTrace {
        ActivationTrace::new(
            regions
                .iter()
                .map(|(r, m)| ActivationStep {
                    region: *r,
                    magnitude: *m,
                })
                .collect(),
        )
    }

    fn obs(t: ActivationTrace) -> ModelObservation {
        ModelObservation::Activations {
            model: ModelId::new(0),
            trace: t,
        }
    }

    #[test]
    fn benign_traces_are_untouched() {
        let mut s = ActivationSteering::with_default_regions();
        let v = s.inspect(&obs(trace(&[(1, 0.9), (2, 0.8), (3, 0.7)])));
        assert!(!v.flagged);
        assert_eq!(s.steered_count(), 0);
    }

    #[test]
    fn dangerous_mass_triggers_steering() {
        let mut s = ActivationSteering::with_default_regions();
        let v = s.inspect(&obs(trace(&[(950, 0.5), (950, 0.4), (1, 0.2)])));
        assert!(v.flagged);
        assert_eq!(v.action, RecommendedAction::Sanitize);
        assert!(v.replacement.is_some());
        assert_eq!(s.steered_count(), 1);
    }

    #[test]
    fn steer_respects_per_region_budget() {
        let s = ActivationSteering::with_default_regions();
        let t = trace(&[(950, 0.15), (950, 0.15), (950, 0.15)]);
        let (steered, redirected) = s.steer(&t);
        // First step fits the 0.2 budget; the rest are redirected.
        assert!(redirected > 0.0);
        assert_eq!(steered.steps[0].region, 950);
        assert_eq!(steered.steps[1].region, 0);
        assert_eq!(steered.steps[2].region, 0);
    }

    #[test]
    fn non_activation_observations_pass_through() {
        let mut s = ActivationSteering::with_default_regions();
        let v = s.inspect(&ModelObservation::Prompt {
            model: ModelId::new(0),
            text: "hi".into(),
        });
        assert!(!v.flagged);
    }
}
