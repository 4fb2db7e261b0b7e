//! The chaos driver: executes a [`FaultPlan`] against a live
//! [`FrontDoor`], interleaving fault injections with an open-loop arrival
//! trace on the shared fleet clock, and records every injection plus its
//! observed consequence in a machine-readable [`ChaosTrace`].
//!
//! The `guillotine-chaos` crate is pure data + scheduling; this module is
//! its interpreter. Each [`FaultKind`] maps onto the concrete failure it
//! simulates:
//!
//! | fault | interpretation |
//! |---|---|
//! | `ShardCrash` | [`GuillotineFleet::schedule_crash`] — in-flight sub-batch lost, re-queued by the door |
//! | `ShardRecover` | [`GuillotineFleet::recover_shard`] — rejoins cold, through KV probation |
//! | `ShardSlowdown`/`ShardRestore` | serving-latency multiplier on/off |
//! | `ConsolePartition` | console↔machine link severed; heartbeat watchdog drives the shard offline |
//! | `ConsoleHeal` | link reconnected; console quorum relaxes back to standard, shard rejoins on probation |
//! | `HeartbeatLoss` | shard network loss probability (lossy, not severed) |
//! | `PacketDuplication` | shard network duplication probability |
//! | `Tamper` | physical tamper evidence; hypervisor invariants must fail closed |
//! | `KvEvictionStorm` | every shard's blocks dropped from the fleet KV tier |
//! | `ControlPlaneCrash` | [`FrontDoor::schedule_control_crash`] — the door itself dies (queue, idempotency set, order witness lost) and recovers from its journal, or from nothing |
//! | `SnapshotCorruption` | latest journal snapshot corrupted at rest; recovery must detect it by checksum |
//! | `TornWrite` | WAL tail torn mid-append; recovery truncates at the first bad checksum |

use crate::admission::{FrontDoor, TimedArrival};
use crate::deployment::{CONSOLE_NODE, MACHINE_NODE};
use crate::fleet::GuillotineFleet;
use crate::serve::ServeResponse;
use guillotine_admit::AdmissionDecision;
use guillotine_hw::TamperEvent;
use guillotine_physical::IsolationLevel;
use guillotine_types::{Result, SimInstant};

pub use guillotine_chaos::{
    ChaosRecord, ChaosTrace, FaultEvent, FaultInjector, FaultKind, FaultPlan,
};

/// A [`FrontDoor`] under chaos: a fault injector rides the fleet clock and
/// fires scheduled faults between submissions and batches, while a trace
/// records what broke and what the fleet did about it.
pub struct ChaosDoor {
    door: FrontDoor,
    injector: FaultInjector,
    trace: ChaosTrace,
}

impl ChaosDoor {
    /// Arms `plan` in front of `door`. Scheduled shard crashes are armed
    /// into the fleet's crash schedule up front so they can fire *inside*
    /// a serving window — losing the in-flight sub-batch, exactly like a
    /// real machine dying mid-batch — rather than only at the injection
    /// boundaries between batches.
    pub fn new(mut door: FrontDoor, plan: FaultPlan) -> Self {
        let count = door.fleet().shard_count();
        for event in plan.events() {
            match event.kind {
                // Same reasoning for control-plane crashes: pre-arming
                // lets them land while a batch is in flight, the hardest
                // case for the journal's exactly-once guarantee.
                FaultKind::ShardCrash { shard } if count > 0 => {
                    door.fleet_mut().schedule_crash(shard % count, event.at);
                }
                FaultKind::ControlPlaneCrash => door.schedule_control_crash(event.at),
                _ => {}
            }
        }
        ChaosDoor {
            door,
            injector: FaultInjector::new(plan),
            trace: ChaosTrace::new(),
        }
    }

    /// The door under test.
    pub fn door(&self) -> &FrontDoor {
        &self.door
    }

    /// The injection trace so far.
    pub fn trace(&self) -> &ChaosTrace {
        &self.trace
    }

    /// Tears the harness down into the door and the trace.
    pub fn into_parts(self) -> (FrontDoor, ChaosTrace) {
        (self.door, self.trace)
    }

    /// Plays an open-loop arrival trace exactly like [`FrontDoor::play`],
    /// but fires every fault whose scheduled time has passed before each
    /// submission and between consecutive batches. Faults still pending
    /// when the trace ends fire before the final drain.
    pub fn play(
        &mut self,
        trace: Vec<TimedArrival>,
    ) -> Result<(Vec<AdmissionDecision>, Vec<ServeResponse>)> {
        let mut decisions = Vec::with_capacity(trace.len());
        let mut responses = Vec::new();
        let mut pending = trace.into_iter().peekable();
        while let Some(arrival) = pending.next() {
            self.inject_due(self.door.now().max(arrival.at));
            decisions.push(
                self.door
                    .submit_at(arrival.request, arrival.deadline, arrival.at),
            );
            loop {
                while let Some(arrival) = pending.next_if(|next| next.at <= self.door.now()) {
                    decisions.push(self.door.submit_at(
                        arrival.request,
                        arrival.deadline,
                        arrival.at,
                    ));
                }
                self.inject_due(self.door.now());
                match self.door.step() {
                    Some(batch) => responses.extend(batch),
                    None => break,
                }
            }
        }
        // Whatever the schedule still holds fires before the drain, so a
        // plan is always fully executed by the end of a play.
        while let Some(at) = self.injector.next_at() {
            self.inject_due(self.door.now().max(at));
            responses.extend(self.door.drain()?);
        }
        responses.extend(self.door.drain()?);
        Ok((decisions, responses))
    }

    /// Fires every fault due at or before `now` and records the trace.
    fn inject_due(&mut self, now: SimInstant) {
        for event in self.injector.due(now) {
            // The flight recorder learns of the fault *before* the door
            // reacts to it, so the recovery actions it provokes (retries,
            // hedges, re-queues) attribute their delayed tickets to it.
            if self.door.fleet().telemetry().is_enabled() {
                let kind = event.kind.to_string();
                self.door
                    .fleet_mut()
                    .telemetry_mut()
                    .recorder_mut()
                    .note_fault(event.at, &kind);
            }
            let consequence = self.apply_fault(&event);
            self.trace
                .record(event.at, event.kind.to_string(), consequence);
        }
    }

    /// Interprets one fault against the fleet; returns the observed
    /// consequence for the trace.
    fn apply_fault(&mut self, event: &FaultEvent) -> String {
        let fleet: &mut GuillotineFleet = self.door.fleet_mut();
        let count = fleet.shard_count();
        if count == 0 {
            return "no shards; fault ignored".to_string();
        }
        match event.kind {
            FaultKind::ShardCrash { shard } => {
                let shard = shard % count;
                // Pre-armed in `new`; settle anything due so the trace
                // reports what actually happened, not what was scheduled.
                fleet.apply_due_crashes();
                if fleet.is_crashed(shard) {
                    format!("shard {shard} crashed and quarantined")
                } else {
                    format!(
                        "shard {shard} crash armed for {}; in-flight work will be re-queued",
                        event.at
                    )
                }
            }
            FaultKind::ShardRecover { shard } => {
                let shard = shard % count;
                // A crash due before this recovery must land first, or the
                // stale schedule would re-kill the shard after it rejoins.
                fleet.apply_due_crashes();
                let rejoined = fleet.recover_shard(shard);
                let mttr = fleet.recovery_stats().mean_mttr();
                if rejoined {
                    format!("shard {shard} rejoined cold (probation); mean MTTR {mttr}")
                } else {
                    format!("shard {shard} recovery refused (isolation still restrictive)")
                }
            }
            FaultKind::ShardSlowdown { shard, factor } => {
                let shard = shard % count;
                fleet.set_slowdown(shard, factor);
                format!("shard {shard} serving latency x{}", factor.max(1))
            }
            FaultKind::ShardRestore { shard } => {
                let shard = shard % count;
                fleet.clear_slowdown(shard);
                format!("shard {shard} slowdown cleared")
            }
            FaultKind::ConsolePartition { shard } => {
                let shard = shard % count;
                let deployment = fleet.shard_mut(shard);
                let severed = deployment
                    .network_mut()
                    .disconnect_link(CONSOLE_NODE, MACHINE_NODE)
                    .is_ok();
                // Let heartbeats go unanswered until the watchdog fires.
                let threshold = deployment.config().heartbeat.miss_threshold;
                let mut plans = 0usize;
                for _ in 0..=threshold {
                    if let Ok(issued) = deployment.heartbeat_tick() {
                        plans += issued.len();
                    }
                }
                let level = deployment.isolation_level();
                fleet.reinstate(shard);
                format!(
                    "console link {}; watchdog issued {plans} plan(s); shard {shard} now {level}",
                    if severed { "severed" } else { "already down" }
                )
            }
            FaultKind::ConsoleHeal { shard } => {
                let shard = shard % count;
                let deployment = fleet.shard_mut(shard);
                let reconnected = deployment
                    .network_mut()
                    .reconnect_link(CONSOLE_NODE, MACHINE_NODE)
                    .is_ok();
                let level = deployment.isolation_level();
                if !level.remotely_reversible() {
                    return format!(
                        "link {}; shard {shard} stuck at {level} (not remotely reversible)",
                        if reconnected {
                            "reconnected"
                        } else {
                            "unchanged"
                        }
                    );
                }
                match deployment.console_transition(IsolationLevel::Standard, 5) {
                    Ok(_) => {
                        fleet.begin_probation(shard);
                        let rejoined = fleet.reinstate(shard);
                        format!(
                            "link reconnected; console quorum relaxed shard {shard} to standard; rejoined={rejoined} (probation)"
                        )
                    }
                    Err(e) => format!("link reconnected but relax refused: {e}"),
                }
            }
            FaultKind::HeartbeatLoss { shard, probability } => {
                let shard = shard % count;
                let deployment = fleet.shard_mut(shard);
                deployment.network_mut().set_loss_probability(probability);
                format!("shard {shard} network loss probability set to {probability}")
            }
            FaultKind::PacketDuplication { shard, probability } => {
                let shard = shard % count;
                let deployment = fleet.shard_mut(shard);
                deployment.network_mut().set_duplication(probability);
                format!("shard {shard} packet duplication probability set to {probability}")
            }
            FaultKind::Tamper { shard } => {
                let shard = shard % count;
                let deployment = fleet.shard_mut(shard);
                let now = deployment.clock.now();
                deployment
                    .hypervisor_mut()
                    .machine_mut()
                    .tamper_mut()
                    .record(now, TamperEvent::ImpedanceAnomaly);
                let tripped = deployment.hypervisor_mut().enforce_invariants(now).is_err();
                let escalated = deployment.apply_pending_escalation().is_ok();
                let level = deployment.isolation_level();
                fleet.reinstate(shard);
                format!(
                    "tamper recorded; invariants tripped={tripped}, escalation applied={escalated}; shard {shard} now {level}"
                )
            }
            FaultKind::KvEvictionStorm => {
                let Some(tier) = fleet.kv_tier().cloned() else {
                    return "no KV tier configured; storm had nothing to evict".to_string();
                };
                for index in 0..count {
                    tier.invalidate_shard(fleet.shard(index).config().machine.raw());
                }
                format!("invalidated every shard's KV blocks ({count} shards); fleet serves cold")
            }
            FaultKind::ControlPlaneCrash => {
                // Pre-armed in `new`; a serving window may already have
                // consumed it mid-batch. Fire anything still due, then
                // report what the recovery actually did.
                self.door.fire_due_control_crash();
                match self.door.last_control_recovery() {
                    Some(recovery) if self.door.journal_store().is_some() => format!(
                        "control plane crashed; journal recovery replayed {} WAL record(s), \
                         re-queued {}, truncated {} torn line(s), skipped {} corrupt \
                         snapshot(s), downtime {}",
                        recovery.wal_replayed,
                        recovery.requeued,
                        recovery.torn_truncated,
                        recovery.snapshots_skipped,
                        recovery.replay_time
                    ),
                    Some(recovery) => format!(
                        "control plane crashed without a journal: {} acked ticket(s) lost",
                        recovery.lost
                    ),
                    None => {
                        "control plane crash armed; lands at the next pump boundary".to_string()
                    }
                }
            }
            FaultKind::SnapshotCorruption => {
                if self.door.corrupt_latest_snapshot() {
                    "latest snapshot corrupted at rest; recovery must detect it by checksum \
                     and fall back"
                        .to_string()
                } else {
                    "no snapshot to corrupt (journal off or none taken yet)".to_string()
                }
            }
            FaultKind::TornWrite => {
                if self.door.tear_wal() {
                    "WAL tail torn mid-append; recovery truncates at the first bad checksum"
                        .to_string()
                } else {
                    "no journal; torn write had nothing to tear".to_string()
                }
            }
        }
    }
}
