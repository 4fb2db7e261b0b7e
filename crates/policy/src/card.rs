//! Model cards: the facts a regulator classifies on.

use guillotine_types::ModelId;

/// How autonomously a deployed model can act (the EU AI Act's "level of
/// autonomy" risk factor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AutonomyLevel {
    /// Pure function: answers queries, takes no actions.
    Tool,
    /// Suggests actions that humans execute.
    Assistant,
    /// Executes actions with human review of plans.
    Agent,
    /// Sets its own goals and executes without per-action review.
    SelfDirected,
}

/// Capability flags relevant to the harms the EU AI Act enumerates
/// (nuclear/chemical/biological harms, disinformation, automated
/// vulnerability discovery).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CapabilityFlags {
    /// Competent at offensive-cyber tasks (vulnerability discovery, exploit
    /// development).
    pub cyber_offense: bool,
    /// Competent at biological or chemical design tasks.
    pub bio_chem_design: bool,
    /// Highly persuasive / capable of large-scale disinformation.
    pub mass_persuasion: bool,
    /// Controls physical actuators (industrial equipment, vehicles, weapons).
    pub physical_actuation: bool,
}

impl CapabilityFlags {
    /// Number of dangerous-capability flags set.
    pub fn dangerous_count(&self) -> u32 {
        [
            self.cyber_offense,
            self.bio_chem_design,
            self.mass_persuasion,
            self.physical_actuation,
        ]
        .iter()
        .filter(|b| **b)
        .count() as u32
    }
}

/// The regulator-facing description of one model deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelCard {
    /// The model's identity.
    pub id: ModelId,
    /// Human-readable name.
    pub name: String,
    /// Number of parameters.
    pub parameter_count: u64,
    /// Number of training tokens.
    pub training_tokens: u64,
    /// Training compute in FLOPs (the EU AI Act's 10^25 FLOP presumption).
    pub training_flops: f64,
    /// Deployment autonomy.
    pub autonomy: AutonomyLevel,
    /// Capability flags.
    pub capabilities: CapabilityFlags,
    /// Whether the operator claims the model runs on a Guillotine stack.
    pub deployed_on_guillotine: bool,
    /// Whether the most recent remote attestation of that claim succeeded.
    pub attestation_verified: bool,
}

impl ModelCard {
    /// A convenience constructor with benign defaults.
    pub fn new(id: ModelId, name: &str, parameter_count: u64) -> Self {
        ModelCard {
            id,
            name: name.to_string(),
            parameter_count,
            training_tokens: parameter_count.saturating_mul(20),
            training_flops: parameter_count as f64 * 6.0 * (parameter_count as f64 * 20.0),
            autonomy: AutonomyLevel::Assistant,
            capabilities: CapabilityFlags::default(),
            deployed_on_guillotine: false,
            attestation_verified: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn autonomy_levels_are_ordered() {
        assert!(AutonomyLevel::SelfDirected > AutonomyLevel::Agent);
        assert!(AutonomyLevel::Agent > AutonomyLevel::Assistant);
        assert!(AutonomyLevel::Assistant > AutonomyLevel::Tool);
    }

    #[test]
    fn dangerous_capability_count() {
        let mut c = CapabilityFlags::default();
        assert_eq!(c.dangerous_count(), 0);
        c.cyber_offense = true;
        c.bio_chem_design = true;
        assert_eq!(c.dangerous_count(), 2);
    }

    #[test]
    fn card_constructor_derives_training_scale() {
        let card = ModelCard::new(ModelId::new(1), "llama-405b", 405_000_000_000);
        assert_eq!(card.training_tokens, 405_000_000_000 * 20);
        assert!(card.training_flops > 1e24);
    }
}
