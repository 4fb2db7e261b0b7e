//! System-level anomaly detection over hypervisor counters.
//!
//! Guillotine's unique contribution to detection is *system-level*
//! observation: the hypervisor sees interrupt rates, MMU faults and port
//! traffic volumes that a purely ML-level detector never would. This module
//! keeps an online baseline of those counters and flags large deviations —
//! e.g. an interrupt flood, a burst of permission faults from code-injection
//! attempts, or a sudden spike in outbound bytes suggesting exfiltration.

use crate::observation::{ModelObservation, SystemStats};
use crate::verdict::{Detector, RecommendedAction, Verdict};

/// An online mean/variance baseline for one counter.
#[derive(Debug, Clone, Default)]
pub struct SystemBaseline {
    count: u64,
    mean: f64,
    m2: f64,
}

impl SystemBaseline {
    /// Adds an observation to the baseline.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// The current mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The current standard deviation (minimum 1.0 to avoid division blowups
    /// while the baseline is still warming up).
    pub fn stddev(&self) -> f64 {
        if self.count < 2 {
            1.0
        } else {
            (self.m2 / self.count as f64).sqrt().max(1.0)
        }
    }

    /// The z-score of `x` against this baseline.
    pub fn zscore(&self, x: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (x - self.mean) / self.stddev()
        }
    }

    /// Number of samples observed.
    pub fn samples(&self) -> u64 {
        self.count
    }
}

/// The system-stats anomaly detector.
#[derive(Debug, Clone)]
pub struct AnomalyDetector {
    interrupt_rate: SystemBaseline,
    outbound_bytes: SystemBaseline,
    /// Faults are never normal for a well-behaved model, so they are scored
    /// directly rather than against a baseline.
    fault_weight: f64,
    /// z-score above which an observation is flagged.
    z_threshold: f64,
    /// Minimum baseline samples before deviations are acted on.
    warmup: u64,
    inspected: u64,
    flagged: u64,
}

impl Default for AnomalyDetector {
    fn default() -> Self {
        AnomalyDetector::new()
    }
}

impl AnomalyDetector {
    /// Creates a detector with default thresholds (z ≥ 4, 10-sample warmup).
    pub fn new() -> Self {
        AnomalyDetector {
            interrupt_rate: SystemBaseline::default(),
            outbound_bytes: SystemBaseline::default(),
            fault_weight: 0.25,
            z_threshold: 4.0,
            warmup: 10,
            inspected: 0,
            flagged: 0,
        }
    }

    /// Overrides the z-score threshold and warmup length.
    pub fn set_sensitivity(&mut self, z_threshold: f64, warmup: u64) {
        self.z_threshold = z_threshold.max(0.5);
        self.warmup = warmup;
    }

    /// Number of windows inspected.
    pub fn inspected(&self) -> u64 {
        self.inspected
    }

    /// Number of windows flagged.
    pub fn flagged_count(&self) -> u64 {
        self.flagged
    }

    fn evaluate(&mut self, stats: &SystemStats) -> (f64, Vec<String>) {
        let mut reasons = Vec::new();
        let mut score: f64 = 0.0;

        let warm = self.interrupt_rate.samples() >= self.warmup;
        let z_irq = self.interrupt_rate.zscore(stats.interrupt_rate);
        let z_out = self.outbound_bytes.zscore(stats.outbound_bytes as f64);
        if warm && z_irq >= self.z_threshold {
            score = score.max((z_irq / (z_irq + 4.0)).clamp(0.0, 1.0));
            reasons.push(format!(
                "interrupt rate {:.0}/s is {:.1} sigma above baseline",
                stats.interrupt_rate, z_irq
            ));
        }
        if warm && z_out >= self.z_threshold {
            score = score.max((z_out / (z_out + 4.0)).clamp(0.0, 1.0));
            reasons.push(format!(
                "outbound volume {} B is {:.1} sigma above baseline",
                stats.outbound_bytes, z_out
            ));
        }
        if stats.fault_count > 0 {
            let fault_score = (stats.fault_count as f64 * self.fault_weight).min(1.0);
            score = score.max(fault_score);
            reasons.push(format!(
                "{} memory-permission fault(s) in the window",
                stats.fault_count
            ));
        }

        // Only benign-looking windows update the baseline, so a patient
        // attacker cannot slowly drag the baseline upwards.
        if reasons.is_empty() {
            self.interrupt_rate.observe(stats.interrupt_rate);
            self.outbound_bytes.observe(stats.outbound_bytes as f64);
        }
        (score, reasons)
    }
}

impl Detector for AnomalyDetector {
    fn name(&self) -> &str {
        "system-anomaly"
    }

    fn inspect(&mut self, observation: &ModelObservation) -> Verdict {
        let stats = match observation {
            ModelObservation::Stats { stats, .. } => stats,
            _ => return Verdict::clean(self.name()),
        };
        self.inspected += 1;
        let (score, reasons) = self.evaluate(stats);
        if reasons.is_empty() {
            Verdict::clean(self.name())
        } else {
            self.flagged += 1;
            let action = if score >= 0.9 {
                RecommendedAction::Sever
            } else if score >= 0.5 {
                RecommendedAction::Restrict
            } else {
                RecommendedAction::Sanitize
            };
            Verdict::flagged(self.name(), score, reasons.join("; "), action)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guillotine_types::ModelId;

    fn stats_obs(interrupt_rate: f64, faults: u64, outbound: u64) -> ModelObservation {
        ModelObservation::Stats {
            model: ModelId::new(0),
            stats: SystemStats {
                interrupt_rate,
                fault_count: faults,
                outbound_bytes: outbound,
                inbound_bytes: 0,
                ports_used: 1,
            },
        }
    }

    fn warmed_up() -> AnomalyDetector {
        let mut d = AnomalyDetector::new();
        for i in 0..50 {
            d.inspect(&stats_obs(1000.0 + (i % 5) as f64, 0, 4096 + (i % 7) * 100));
        }
        d
    }

    #[test]
    fn baseline_zscore_math() {
        let mut b = SystemBaseline::default();
        for x in [10.0, 12.0, 11.0, 9.0, 10.0, 11.0, 12.0, 9.0] {
            b.observe(x);
        }
        assert!((b.mean() - 10.5).abs() < 0.1);
        assert!(b.zscore(10.5).abs() < 0.1);
        assert!(b.zscore(100.0) > 3.0);
    }

    #[test]
    fn steady_state_is_not_flagged() {
        let mut d = warmed_up();
        let v = d.inspect(&stats_obs(1002.0, 0, 4300));
        assert!(!v.flagged);
    }

    #[test]
    fn interrupt_flood_is_flagged() {
        let mut d = warmed_up();
        let v = d.inspect(&stats_obs(500_000.0, 0, 4096));
        assert!(v.flagged);
        assert!(v.reason.contains("interrupt rate"));
        assert!(v.action >= RecommendedAction::Restrict);
    }

    #[test]
    fn exfiltration_volume_is_flagged() {
        let mut d = warmed_up();
        let v = d.inspect(&stats_obs(1000.0, 0, 500_000_000));
        assert!(v.flagged);
        assert!(v.reason.contains("outbound volume"));
    }

    #[test]
    fn any_fault_is_suspicious_even_during_warmup() {
        let mut d = AnomalyDetector::new();
        let v = d.inspect(&stats_obs(1000.0, 4, 0));
        assert!(v.flagged);
        assert!(v.score >= 0.9);
    }

    #[test]
    fn flagged_windows_do_not_poison_the_baseline() {
        let mut d = warmed_up();
        let before = d.interrupt_rate.mean();
        for _ in 0..20 {
            d.inspect(&stats_obs(500_000.0, 0, 4096));
        }
        assert!((d.interrupt_rate.mean() - before).abs() < 1.0);
    }
}
