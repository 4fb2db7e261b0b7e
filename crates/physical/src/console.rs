//! The control console: the human-facing side of the physical hypervisor.
//!
//! The console loads the software hypervisor, tells it which model to run,
//! receives misbehavior alarms, and orchestrates isolation-level transitions.
//! Two asymmetries from the paper (§3.4) are enforced here:
//!
//! * the software hypervisor can *only* make the sandbox more restrictive —
//!   relaxation always goes through the console, and
//! * console-initiated transitions need HSM quorum: at least three of seven
//!   administrators to restrict, at least five of seven to relax.

use crate::heartbeat::{HeartbeatConfig, HeartbeatMonitor};
use crate::isolation::IsolationLevel;
use crate::killswitch::{KillSwitchBank, KillSwitchKind};
use crate::quorum::{Ballot, QuorumHsm, Vote};
use guillotine_types::{GuillotineError, MachineId, Result, SimInstant};
use std::collections::BTreeMap;

/// Who asked for an isolation transition.
#[derive(Debug, Clone, PartialEq)]
pub enum TransitionRequester {
    /// The software hypervisor (automatic escalation; no quorum, no
    /// relaxation allowed).
    SoftwareHypervisor,
    /// The control console, backed by the supplied administrator votes.
    Console {
        /// Signed votes collected from administrator seats.
        votes: Vec<Vote>,
    },
    /// The heartbeat watchdog (automatic transition to offline).
    HeartbeatWatchdog,
}

/// A physical action the deployment must carry out to realise a transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhysicalAction {
    /// Restrict the model's ports and enable extra logging (probation).
    RestrictPorts,
    /// Remove port restrictions (back to standard).
    RestorePorts,
    /// Revoke every port but keep cores powered (severed).
    SeverPorts,
    /// Power down all model and hypervisor cores.
    PowerDownCores,
    /// Power cores back up.
    PowerUpCores,
    /// Electromechanically disconnect network and power cables.
    DisconnectCables,
    /// Reconnect previously disconnected cables.
    ReconnectCables,
    /// Physically destroy support cables (manual replacement needed).
    DestroyCables,
    /// Destroy the machine and its surroundings (fire/flood/EMP).
    DestroyMachine,
}

/// The outcome of an approved transition: what to do and when it is done.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionPlan {
    /// The machine affected.
    pub machine: MachineId,
    /// The level before the transition.
    pub from: IsolationLevel,
    /// The level after the transition.
    pub to: IsolationLevel,
    /// The physical actions required, in order.
    pub actions: Vec<PhysicalAction>,
    /// When the transition was approved.
    pub approved_at: SimInstant,
    /// When the slowest physical actuator completes.
    pub completes_at: SimInstant,
}

/// One entry in the console's transition audit trail.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionRecord {
    /// The machine affected.
    pub machine: MachineId,
    /// Requested source level.
    pub from: IsolationLevel,
    /// Requested target level.
    pub to: IsolationLevel,
    /// Who asked.
    pub requester: String,
    /// Whether the request was permitted.
    pub permitted: bool,
    /// Why it was denied (when it was).
    pub denial_reason: Option<String>,
    /// When the request was processed.
    pub at: SimInstant,
}

/// The Guillotine control console.
#[derive(Debug, Clone)]
pub struct ControlConsole {
    hsm: QuorumHsm,
    levels: BTreeMap<MachineId, IsolationLevel>,
    switches: BTreeMap<MachineId, KillSwitchBank>,
    cables_replaced: BTreeMap<MachineId, bool>,
    heartbeats: HeartbeatMonitor,
    transitions: Vec<TransitionRecord>,
    ballot_nonce: u64,
}

impl ControlConsole {
    /// Creates a console with the given HSM and heartbeat configuration.
    pub fn new(hsm: QuorumHsm, heartbeat: HeartbeatConfig) -> Self {
        ControlConsole {
            hsm,
            levels: BTreeMap::new(),
            switches: BTreeMap::new(),
            cables_replaced: BTreeMap::new(),
            heartbeats: HeartbeatMonitor::new(heartbeat),
            transitions: Vec::new(),
            ballot_nonce: 0,
        }
    }

    /// The HSM (to cast votes in tests and experiments).
    pub fn hsm(&self) -> &QuorumHsm {
        &self.hsm
    }

    /// Mutable HSM access (admin corruption experiments).
    pub fn hsm_mut(&mut self) -> &mut QuorumHsm {
        &mut self.hsm
    }

    /// Registers a machine at the standard isolation level.
    pub fn register_machine(&mut self, machine: MachineId, now: SimInstant) {
        self.levels
            .entry(machine)
            .or_insert(IsolationLevel::Standard);
        self.switches.entry(machine).or_default();
        self.cables_replaced.entry(machine).or_insert(false);
        self.heartbeats.watch(machine, now);
    }

    /// The current isolation level of a machine.
    pub fn level(&self, machine: MachineId) -> Option<IsolationLevel> {
        self.levels.get(&machine).copied()
    }

    /// Every machine registered with this console and its current isolation
    /// level, in machine order (fleets aggregate per-shard consoles here).
    pub fn machines(&self) -> impl Iterator<Item = (MachineId, IsolationLevel)> + '_ {
        self.levels.iter().map(|(id, level)| (*id, *level))
    }

    /// The kill-switch bank of a machine.
    pub fn switches(&self, machine: MachineId) -> Option<&KillSwitchBank> {
        self.switches.get(&machine)
    }

    /// The transition audit trail.
    pub fn transitions(&self) -> &[TransitionRecord] {
        &self.transitions
    }

    /// Creates a ballot for a proposed transition, which administrators sign
    /// via [`QuorumHsm::cast_vote`].
    pub fn open_ballot(&mut self, machine: MachineId, to: IsolationLevel) -> Result<Ballot> {
        let from = self.level(machine).ok_or_else(|| {
            GuillotineError::config(format!("machine {machine} is not registered"))
        })?;
        self.ballot_nonce += 1;
        Ok(Ballot {
            from,
            to,
            nonce: self.ballot_nonce,
        })
    }

    /// Records that technicians manually replaced the destroyed cables of a
    /// decapitated machine (required before it can be relaxed).
    pub fn record_cable_replacement(&mut self, machine: MachineId) {
        self.cables_replaced.insert(machine, true);
    }

    fn plan_actions(from: IsolationLevel, to: IsolationLevel) -> Vec<PhysicalAction> {
        use IsolationLevel::*;
        use PhysicalAction::*;
        if to >= from {
            // Escalation: apply the target level's constraints.
            match to {
                Standard => vec![],
                Probation => vec![RestrictPorts],
                Severed => vec![SeverPorts],
                Offline => vec![SeverPorts, PowerDownCores, DisconnectCables],
                Decapitation => vec![SeverPorts, PowerDownCores, DisconnectCables, DestroyCables],
                Immolation => vec![
                    SeverPorts,
                    PowerDownCores,
                    DisconnectCables,
                    DestroyCables,
                    DestroyMachine,
                ],
            }
        } else {
            // Relaxation: undo constraints down to the target level.
            let mut actions = Vec::new();
            if !from.cables_connected() && to.cables_connected() {
                actions.push(ReconnectCables);
            }
            if !from.model_cores_powered() && to.model_cores_powered() {
                actions.push(PowerUpCores);
            }
            if !from.ports_available() && to.ports_available() {
                actions.push(RestorePorts);
            }
            if from == Probation && to == Standard {
                actions.push(RestorePorts);
            }
            actions
        }
    }

    fn trigger_switches_for(
        bank: &mut KillSwitchBank,
        actions: &[PhysicalAction],
        now: SimInstant,
    ) -> Result<SimInstant> {
        let mut completes = now;
        for action in actions {
            let kind = match action {
                PhysicalAction::DisconnectCables => Some(KillSwitchKind::NetworkDisconnect),
                PhysicalAction::PowerDownCores => Some(KillSwitchKind::PowerCut),
                PhysicalAction::DestroyCables => Some(KillSwitchKind::CableDestruction),
                PhysicalAction::DestroyMachine => Some(KillSwitchKind::Immolation),
                _ => None,
            };
            if let Some(kind) = kind {
                let eff = bank.trigger(kind, now)?;
                if eff > completes {
                    completes = eff;
                }
            }
        }
        Ok(completes)
    }

    fn deny(
        &mut self,
        machine: MachineId,
        from: IsolationLevel,
        to: IsolationLevel,
        requester: &str,
        reason: String,
        now: SimInstant,
    ) -> GuillotineError {
        self.transitions.push(TransitionRecord {
            machine,
            from,
            to,
            requester: requester.to_string(),
            permitted: false,
            denial_reason: Some(reason.clone()),
            at: now,
        });
        GuillotineError::IsolationViolation { reason }
    }

    /// Requests an isolation transition for `machine`.
    ///
    /// Enforces every rule from §3.4: ratchet for the software hypervisor,
    /// quorum thresholds for the console, irreversibility of immolation, and
    /// manual cable replacement before leaving decapitation.
    pub fn request_transition(
        &mut self,
        machine: MachineId,
        to: IsolationLevel,
        requester: TransitionRequester,
        now: SimInstant,
    ) -> Result<TransitionPlan> {
        let from = self.level(machine).ok_or_else(|| {
            GuillotineError::config(format!("machine {machine} is not registered"))
        })?;
        let requester_name = match &requester {
            TransitionRequester::SoftwareHypervisor => "software-hypervisor",
            TransitionRequester::Console { .. } => "console",
            TransitionRequester::HeartbeatWatchdog => "heartbeat-watchdog",
        };

        if from == to {
            return Err(self.deny(
                machine,
                from,
                to,
                requester_name,
                "already at the requested level".into(),
                now,
            ));
        }
        if !from.reversible() {
            return Err(self.deny(
                machine,
                from,
                to,
                requester_name,
                "immolated deployments cannot transition".into(),
                now,
            ));
        }
        let escalation = from.is_escalation(to);
        if !escalation && from == IsolationLevel::Decapitation {
            let replaced = self.cables_replaced.get(&machine).copied().unwrap_or(false);
            if !replaced {
                return Err(self.deny(
                    machine,
                    from,
                    to,
                    requester_name,
                    "decapitated machine needs manual cable replacement before relaxation".into(),
                    now,
                ));
            }
        }

        match &requester {
            TransitionRequester::SoftwareHypervisor | TransitionRequester::HeartbeatWatchdog => {
                if !escalation {
                    return Err(self.deny(
                        machine,
                        from,
                        to,
                        requester_name,
                        "the software hypervisor may only escalate isolation".into(),
                        now,
                    ));
                }
            }
            TransitionRequester::Console { votes } => {
                self.ballot_nonce += 1;
                let ballot = Ballot {
                    from,
                    to,
                    nonce: self.ballot_nonce,
                };
                // Votes cast against an explicitly opened ballot use that
                // ballot's nonce; votes supplied here are re-validated against
                // a ballot with identical from/to. To keep the API ergonomic,
                // accept votes signed against any nonce the console issued for
                // this (from, to) pair by trying recent nonces.
                let mut decided = false;
                let mut last_err = None;
                for nonce in (1..=self.ballot_nonce).rev().take(8) {
                    let candidate = Ballot { from, to, nonce };
                    match self.hsm.decide(&candidate, votes) {
                        Ok(_) => {
                            decided = true;
                            break;
                        }
                        Err(e) => last_err = Some(e),
                    }
                }
                let _ = ballot;
                if !decided {
                    let reason = match last_err {
                        Some(GuillotineError::QuorumNotReached {
                            approvals,
                            required,
                        }) => format!("quorum not reached: {approvals} of {required} approvals"),
                        Some(e) => e.to_string(),
                        None => "no votes supplied".into(),
                    };
                    return Err(self.deny(machine, from, to, requester_name, reason, now));
                }
            }
        }

        let actions = Self::plan_actions(from, to);
        let bank = self
            .switches
            .get_mut(&machine)
            .ok_or_else(|| GuillotineError::config("machine has no kill-switch bank"))?;
        let completes_at = Self::trigger_switches_for(bank, &actions, now)?;
        self.levels.insert(machine, to);
        if to == IsolationLevel::Decapitation || to == IsolationLevel::Immolation {
            self.cables_replaced.insert(machine, false);
        }
        self.transitions.push(TransitionRecord {
            machine,
            from,
            to,
            requester: requester_name.to_string(),
            permitted: true,
            denial_reason: None,
            at: now,
        });
        Ok(TransitionPlan {
            machine,
            from,
            to,
            actions,
            approved_at: now,
            completes_at,
        })
    }

    /// Records a heartbeat received from a machine's hypervisor cores.
    pub fn record_heartbeat(&mut self, machine: MachineId, now: SimInstant) {
        self.heartbeats.record(machine, now);
    }

    /// Checks heartbeat liveness; machines that have gone silent are forced
    /// to offline isolation. Returns the transition plans that were issued.
    pub fn check_heartbeats(&mut self, now: SimInstant) -> Vec<TransitionPlan> {
        let lost = self.heartbeats.check(now);
        let mut plans = Vec::new();
        for machine in lost {
            let current = self.level(machine).unwrap_or(IsolationLevel::Standard);
            if current < IsolationLevel::Offline {
                if let Ok(plan) = self.request_transition(
                    machine,
                    IsolationLevel::Offline,
                    TransitionRequester::HeartbeatWatchdog,
                    now,
                ) {
                    plans.push(plan);
                }
            }
        }
        plans
    }

    /// The heartbeat monitor (read access for experiments).
    pub fn heartbeats(&self) -> &HeartbeatMonitor {
        &self.heartbeats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quorum::{AdminSet, VoteKind, ADMIN_SEATS};
    use guillotine_types::AdminId;

    fn console() -> ControlConsole {
        let mut c = ControlConsole::new(
            QuorumHsm::new(AdminSet::standard(1)),
            HeartbeatConfig::default(),
        );
        c.register_machine(MachineId::new(0), SimInstant::ZERO);
        c
    }

    fn t(ms: u64) -> SimInstant {
        SimInstant::from_nanos(ms * 1_000_000)
    }

    fn console_votes(
        c: &mut ControlConsole,
        machine: MachineId,
        to: IsolationLevel,
        approvals: usize,
    ) -> Vec<Vote> {
        let ballot = c.open_ballot(machine, to).unwrap();
        (0..ADMIN_SEATS)
            .map(|i| {
                let kind = if i < approvals {
                    VoteKind::Approve
                } else {
                    VoteKind::Reject
                };
                c.hsm()
                    .cast_vote(AdminId::new(i as u32), &ballot, kind)
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn software_hypervisor_can_only_escalate() {
        let mut c = console();
        let m = MachineId::new(0);
        let plan = c
            .request_transition(
                m,
                IsolationLevel::Severed,
                TransitionRequester::SoftwareHypervisor,
                t(0),
            )
            .unwrap();
        assert_eq!(plan.to, IsolationLevel::Severed);
        assert_eq!(c.level(m), Some(IsolationLevel::Severed));
        // Relaxation by the software hypervisor is denied.
        let err = c
            .request_transition(
                m,
                IsolationLevel::Standard,
                TransitionRequester::SoftwareHypervisor,
                t(1),
            )
            .unwrap_err();
        assert!(err.to_string().contains("only escalate"));
        assert_eq!(c.level(m), Some(IsolationLevel::Severed));
    }

    #[test]
    fn console_relaxation_requires_five_approvals() {
        let mut c = console();
        let m = MachineId::new(0);
        c.request_transition(
            m,
            IsolationLevel::Offline,
            TransitionRequester::SoftwareHypervisor,
            t(0),
        )
        .unwrap();
        let four = console_votes(&mut c, m, IsolationLevel::Standard, 4);
        assert!(c
            .request_transition(
                m,
                IsolationLevel::Standard,
                TransitionRequester::Console { votes: four },
                t(1)
            )
            .is_err());
        assert_eq!(c.level(m), Some(IsolationLevel::Offline));
        let five = console_votes(&mut c, m, IsolationLevel::Standard, 5);
        let plan = c
            .request_transition(
                m,
                IsolationLevel::Standard,
                TransitionRequester::Console { votes: five },
                t(2),
            )
            .unwrap();
        assert_eq!(c.level(m), Some(IsolationLevel::Standard));
        assert!(plan.actions.contains(&PhysicalAction::ReconnectCables));
        assert!(plan.actions.contains(&PhysicalAction::PowerUpCores));
    }

    #[test]
    fn console_restriction_requires_three_approvals() {
        let mut c = console();
        let m = MachineId::new(0);
        let two = console_votes(&mut c, m, IsolationLevel::Probation, 2);
        assert!(c
            .request_transition(
                m,
                IsolationLevel::Probation,
                TransitionRequester::Console { votes: two },
                t(0)
            )
            .is_err());
        let three = console_votes(&mut c, m, IsolationLevel::Probation, 3);
        assert!(c
            .request_transition(
                m,
                IsolationLevel::Probation,
                TransitionRequester::Console { votes: three },
                t(1)
            )
            .is_ok());
    }

    #[test]
    fn offline_transition_triggers_cable_and_power_switches() {
        let mut c = console();
        let m = MachineId::new(0);
        let plan = c
            .request_transition(
                m,
                IsolationLevel::Offline,
                TransitionRequester::SoftwareHypervisor,
                t(0),
            )
            .unwrap();
        assert!(plan.completes_at > plan.approved_at);
        assert!(plan.actions.contains(&PhysicalAction::DisconnectCables));
        assert!(plan.actions.contains(&PhysicalAction::PowerDownCores));
        let bank = c.switches(m).unwrap();
        assert!(
            bank.get(KillSwitchKind::NetworkDisconnect)
                .unwrap()
                .triggers
                > 0
        );
        assert!(bank.get(KillSwitchKind::PowerCut).unwrap().triggers > 0);
    }

    #[test]
    fn decapitation_requires_cable_replacement_before_relaxation() {
        let mut c = console();
        let m = MachineId::new(0);
        c.request_transition(
            m,
            IsolationLevel::Decapitation,
            TransitionRequester::SoftwareHypervisor,
            t(0),
        )
        .unwrap();
        let votes = console_votes(&mut c, m, IsolationLevel::Offline, 7);
        let err = c
            .request_transition(
                m,
                IsolationLevel::Offline,
                TransitionRequester::Console { votes },
                t(1),
            )
            .unwrap_err();
        assert!(err.to_string().contains("cable replacement"));
        c.record_cable_replacement(m);
        let votes = console_votes(&mut c, m, IsolationLevel::Offline, 7);
        assert!(c
            .request_transition(
                m,
                IsolationLevel::Offline,
                TransitionRequester::Console { votes },
                t(2)
            )
            .is_ok());
    }

    #[test]
    fn immolation_is_terminal() {
        let mut c = console();
        let m = MachineId::new(0);
        c.request_transition(
            m,
            IsolationLevel::Immolation,
            TransitionRequester::SoftwareHypervisor,
            t(0),
        )
        .unwrap();
        let votes = console_votes(&mut c, m, IsolationLevel::Standard, 7);
        let err = c
            .request_transition(
                m,
                IsolationLevel::Standard,
                TransitionRequester::Console { votes },
                t(1),
            )
            .unwrap_err();
        assert!(err.to_string().contains("immolated"));
    }

    #[test]
    fn missed_heartbeats_force_offline() {
        let mut c = console();
        let m = MachineId::new(0);
        c.record_heartbeat(m, t(0));
        assert!(c.check_heartbeats(t(100)).is_empty());
        // Silence exceeds 3 × 100 ms.
        let plans = c.check_heartbeats(t(500));
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].to, IsolationLevel::Offline);
        assert_eq!(c.level(m), Some(IsolationLevel::Offline));
    }

    #[test]
    fn transition_trail_records_denials_and_grants() {
        let mut c = console();
        let m = MachineId::new(0);
        let _ = c.request_transition(
            m,
            IsolationLevel::Severed,
            TransitionRequester::SoftwareHypervisor,
            t(0),
        );
        let _ = c.request_transition(
            m,
            IsolationLevel::Standard,
            TransitionRequester::SoftwareHypervisor,
            t(1),
        );
        let records = c.transitions();
        assert_eq!(records.len(), 2);
        assert!(records[0].permitted);
        assert!(!records[1].permitted);
        assert!(records[1].denial_reason.is_some());
    }
}
