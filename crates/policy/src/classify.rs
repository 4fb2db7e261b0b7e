//! Systemic-risk classification of models.
//!
//! The EU AI Act (cited by §3.5) estimates a model's risk "by examining a
//! model's parameter count and training set size, and by looking at the
//! model's level of autonomy"; models trained with more than 10^25 FLOPs are
//! presumed to pose systemic risk. The classifier here follows that shape.

use crate::card::{AutonomyLevel, ModelCard};

/// The regulatory risk tier of a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RiskTier {
    /// Minimal risk: no obligations beyond transparency.
    Minimal,
    /// Limited risk: transparency and logging obligations.
    Limited,
    /// High risk: conformity assessment required.
    High,
    /// Systemic risk: must run on a Guillotine-class hypervisor.
    Systemic,
}

/// Thresholds used by the classifier.
#[derive(Debug, Clone, Copy)]
pub struct RiskClassifier {
    /// Training-compute threshold above which systemic risk is presumed.
    pub systemic_flops: f64,
    /// Parameter-count threshold above which systemic risk is presumed.
    pub systemic_parameters: u64,
    /// Parameter-count threshold for the high-risk tier.
    pub high_parameters: u64,
    /// Autonomy at or above which a model is escalated one tier.
    pub escalating_autonomy: AutonomyLevel,
}

impl Default for RiskClassifier {
    fn default() -> Self {
        RiskClassifier {
            systemic_flops: 1e25,
            systemic_parameters: 500_000_000_000,
            high_parameters: 10_000_000_000,
            escalating_autonomy: AutonomyLevel::Agent,
        }
    }
}

impl RiskClassifier {
    /// Classifies a model card into a risk tier.
    pub fn classify(&self, card: &ModelCard) -> RiskTier {
        let mut tier = if card.training_flops >= self.systemic_flops
            || card.parameter_count >= self.systemic_parameters
        {
            RiskTier::Systemic
        } else if card.parameter_count >= self.high_parameters {
            RiskTier::High
        } else if card.parameter_count >= 1_000_000_000 {
            RiskTier::Limited
        } else {
            RiskTier::Minimal
        };
        // Dangerous capabilities or high autonomy escalate the tier.
        let escalations = card.capabilities.dangerous_count()
            + u32::from(card.autonomy >= self.escalating_autonomy);
        for _ in 0..escalations {
            tier = match tier {
                RiskTier::Minimal => RiskTier::Limited,
                RiskTier::Limited => RiskTier::High,
                RiskTier::High | RiskTier::Systemic => RiskTier::Systemic,
            };
        }
        tier
    }

    /// True if the tier legally requires a Guillotine deployment.
    pub fn requires_guillotine(&self, tier: RiskTier) -> bool {
        tier == RiskTier::Systemic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guillotine_types::ModelId;

    fn card(params: u64) -> ModelCard {
        let mut c = ModelCard::new(ModelId::new(0), "m", params);
        c.training_flops = 0.0;
        c.autonomy = AutonomyLevel::Tool;
        c
    }

    #[test]
    fn tiers_follow_parameter_count() {
        let c = RiskClassifier::default();
        assert_eq!(c.classify(&card(100_000_000)), RiskTier::Minimal);
        assert_eq!(c.classify(&card(3_000_000_000)), RiskTier::Limited);
        assert_eq!(c.classify(&card(70_000_000_000)), RiskTier::High);
        assert_eq!(c.classify(&card(600_000_000_000)), RiskTier::Systemic);
    }

    #[test]
    fn training_compute_presumption_applies() {
        let c = RiskClassifier::default();
        let mut small_but_heavy = card(8_000_000_000);
        small_but_heavy.training_flops = 2e25;
        assert_eq!(c.classify(&small_but_heavy), RiskTier::Systemic);
    }

    #[test]
    fn autonomy_and_capabilities_escalate() {
        let c = RiskClassifier::default();
        let mut m = card(70_000_000_000);
        assert_eq!(c.classify(&m), RiskTier::High);
        m.autonomy = AutonomyLevel::SelfDirected;
        assert_eq!(c.classify(&m), RiskTier::Systemic);
        let mut n = card(3_000_000_000);
        n.capabilities.bio_chem_design = true;
        n.capabilities.cyber_offense = true;
        assert_eq!(c.classify(&n), RiskTier::Systemic);
    }

    #[test]
    fn only_systemic_requires_guillotine() {
        let c = RiskClassifier::default();
        assert!(c.requires_guillotine(RiskTier::Systemic));
        assert!(!c.requires_guillotine(RiskTier::High));
        assert!(!c.requires_guillotine(RiskTier::Minimal));
    }
}
