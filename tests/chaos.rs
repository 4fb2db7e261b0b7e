//! Integration and property tests for the chaos engine and the
//! self-healing fleet: deterministic fault injection through [`ChaosDoor`],
//! the front door's retry/hedge/timeout recovery, cold-KV probation, the
//! degradation ladder, and the two fleet-wide safety witnesses — no ticket
//! is ever double-served and no session's responses are ever reordered,
//! under **any** fault plan.

use guillotine::admission::{AdmissionConfig, FrontDoor, JournalConfig, TimedArrival};
use guillotine::chaos::{ChaosDoor, FaultKind, FaultPlan};
use guillotine::fleet::GuillotineFleet;
use guillotine::fleet_quorum::FleetConsole;
use guillotine::recovery::{DegradationMode, RecoveryConfig};
use guillotine::serve::{ServePriority, ServeRequest};
use guillotine::{AdmissionDecision, DeadlinePolicy, KvCacheConfig, ShedPolicy};
use guillotine_physical::IsolationLevel;
use guillotine_telemetry::TelemetryConfig;
use guillotine_types::{SessionId, SimDuration, SimInstant};
use proptest::prelude::*;

fn benign(i: u32, session: u32) -> ServeRequest {
    ServeRequest::new(format!("Summarize item {i} of the quarterly report."))
        .with_session(SessionId::new(session))
}

fn fleet(shards: usize) -> GuillotineFleet {
    GuillotineFleet::builder()
        .with_shards(shards)
        .with_kv_cache(KvCacheConfig::default())
        .with_probation(2, 1)
        .build()
        .unwrap()
}

fn door_with(shards: usize, recovery: RecoveryConfig) -> FrontDoor {
    FrontDoor::new(
        fleet(shards),
        AdmissionConfig {
            capacity: 256,
            shed: ShedPolicy::FailClosed,
            default_deadline: Some(SimDuration::from_secs(5)),
        },
        Box::new(DeadlinePolicy {
            max_batch: 4,
            max_wait: SimDuration::from_micros(10),
            ..DeadlinePolicy::default()
        }),
    )
    .with_recovery(recovery)
}

fn arrivals(n: u32, sessions: u32) -> Vec<TimedArrival> {
    (0..n)
        .map(|i| TimedArrival {
            at: SimInstant::from_nanos(u64::from(i) * 200_000),
            request: benign(i, i % sessions.max(1)),
            deadline: None,
        })
        .collect()
}

fn admitted_count(decisions: &[AdmissionDecision]) -> usize {
    decisions.iter().filter(|d| d.admitted()).count()
}

// ---------------------------------------------------------------------
// Deterministic recovery scenarios.
// ---------------------------------------------------------------------

/// A shard crash mid-run strands queued and in-flight work; the recovery
/// loop re-queues and retries it, so every admitted request is still
/// answered — exactly once, in session order — and the shard rejoins cold
/// through probation after its recovery event.
#[test]
fn crashed_shard_work_is_retried_not_lost() {
    let plan = FaultPlan::new()
        .with(
            SimInstant::from_nanos(400_000),
            FaultKind::ShardCrash { shard: 0 },
        )
        .with(
            SimInstant::from_nanos(3_000_000),
            FaultKind::ShardRecover { shard: 0 },
        );
    let mut chaos = ChaosDoor::new(door_with(2, RecoveryConfig::default()), plan);
    let (decisions, responses) = chaos.play(arrivals(24, 4)).unwrap();
    assert_eq!(responses.len(), admitted_count(&decisions));
    let (door, trace) = chaos.into_parts();
    let stats = door.stats();
    assert_eq!(stats.recovery.crashes, 1, "{}", door.report().render());
    assert_eq!(stats.recovery.recoveries, 1);
    assert!(stats.recovery.mean_mttr() > SimDuration::ZERO);
    assert_eq!(stats.recovery.double_serves, 0);
    assert_eq!(stats.recovery.session_reorderings, 0);
    // The trace recorded both the break and the healing.
    assert_eq!(trace.len(), 2);
    assert!(trace.to_json().contains("shard-crash(shard 0)"));
}

/// With every shard crashed and no recovery scheduled, the retry budget
/// exhausts and requests are refused — answered and fail-closed, never
/// silently lost, and the ladder reports fail-closed mode.
#[test]
fn retry_exhaustion_fails_closed_with_refusals() {
    let mut door = door_with(2, RecoveryConfig::default());
    door.fleet_mut().inject_crash(0);
    door.fleet_mut().inject_crash(1);
    let decisions: Vec<_> = (0..4).map(|i| door.submit(benign(i, i))).collect();
    // Every shard is crashed: the ladder refuses at the door.
    assert!(decisions.iter().all(|d| !d.admitted()));
    assert_eq!(door.degradation_mode(), DegradationMode::FailClosed);
    let stats = door.stats();
    assert_eq!(stats.recovery.ladder_shed, 4);

    // Half-crashed: work admitted before the second crash retries, then
    // exhausts into refusals once both shards are down mid-flight.
    let mut door = door_with(2, RecoveryConfig::default());
    for i in 0..4 {
        assert!(door.submit(benign(i, i)).admitted());
    }
    door.fleet_mut().inject_crash(0);
    door.fleet_mut().inject_crash(1);
    let responses = door.drain().unwrap();
    assert_eq!(responses.len(), 4);
    assert!(responses.iter().all(|r| !r.delivered()));
    let stats = door.stats();
    assert!(stats.recovery.retries_exhausted > 0);
    assert_eq!(stats.recovery.double_serves, 0);
}

/// A recovered shard rejoins on cold-KV probation: its blocks are dropped
/// and its per-batch traffic is capped until probation burns down.
#[test]
fn recovered_shard_rejoins_through_cold_probation() {
    let mut f = fleet(2);
    f.inject_crash(1);
    assert!(f.is_crashed(1) && f.is_quarantined(1));
    f.clock.advance(SimDuration::from_millis(7));
    assert!(f.recover_shard(1));
    assert!(f.in_probation(1));
    assert_eq!(f.recovery_stats().mean_mttr(), SimDuration::from_millis(7));
    // Serve enough fleet batches to burn probation down; the cap defers
    // overflow traffic away from the probation shard.
    for round in 0..3 {
        let batch: Vec<ServeRequest> = (0..6).map(|i| benign(round * 6 + i, i)).collect();
        let attempt = f.serve_batch_attempt(batch);
        assert!(attempt.failed.is_empty());
    }
    assert!(!f.in_probation(1));
    let stats = f.recovery_stats();
    assert!(stats.probation_batches > 0);
    assert!(stats.probation_deferrals > 0, "{stats:?}");
}

/// A slowed shard's responses cross the hedge threshold; the door hedges
/// them onto the healthy shard and the faster completion wins, with the
/// loser suppressed — never delivered twice.
#[test]
fn hedging_beats_a_slowed_shard() {
    // Measure a healthy baseline latency first, then slow one shard far
    // past it and hedge anything slower than 2x the baseline.
    let mut probe = door_with(2, RecoveryConfig::disabled());
    probe.submit(benign(0, 0));
    let baseline = probe.drain().unwrap()[0].latency.total();

    let config = RecoveryConfig {
        hedge_threshold: Some(baseline.saturating_mul(2)),
        ..RecoveryConfig::default()
    };
    let mut door = door_with(2, config).with_telemetry(TelemetryConfig::full());
    door.fleet_mut().set_slowdown(0, 16);
    let mut served = 0usize;
    for i in 0..12 {
        if door.submit(benign(i, i)).admitted() {
            served += 1;
        }
    }
    let responses = door.drain().unwrap();
    assert_eq!(responses.len(), served);
    assert!(responses.iter().all(|r| r.delivered()));
    let stats = door.stats();
    assert!(stats.recovery.hedges > 0, "{}", door.report().render());
    assert!(stats.recovery.hedges_won > 0);
    assert_eq!(stats.recovery.duplicates_suppressed, stats.recovery.hedges);
    assert_eq!(stats.recovery.double_serves, 0);
    // A hedge is served through the fleet's one dispatch path, so its
    // outcome is counted once, in `FleetStats`, which the exported
    // `outcome.*` counters read.
    let metrics = door.metrics();
    let counted: u64 = [
        "outcome.delivered",
        "outcome.sanitized",
        "outcome.refused",
        "outcome.escalated",
    ]
    .iter()
    .map(|name| metrics.counter_value(name))
    .sum();
    assert_eq!(stats.outcomes().total(), counted);
    assert_eq!(
        metrics.counter_value("recovery.hedges"),
        stats.recovery.hedges
    );
}

/// The graceful-degradation ladder: losing half the fleet sheds
/// batch-class arrivals while interactive traffic keeps flowing; losing
/// everything fails closed.
#[test]
fn degradation_ladder_sheds_low_priority_then_fails_closed() {
    let mut door = door_with(2, RecoveryConfig::default()).with_telemetry(TelemetryConfig::full());
    assert_eq!(door.degradation_mode(), DegradationMode::Normal);
    door.fleet_mut().inject_crash(0);
    // Half the fleet is gone: batch-class arrivals are refused...
    let refused = door.submit(benign(0, 0).with_priority(ServePriority::Batch));
    assert!(!refused.admitted());
    assert_eq!(door.degradation_mode(), DegradationMode::ShedLowPriority);
    // ...while normal/interactive traffic is still admitted and served.
    assert!(door
        .submit(benign(1, 1).with_priority(ServePriority::Interactive))
        .admitted());
    let responses = door.drain().unwrap();
    assert_eq!(responses.len(), 1);
    assert!(responses[0].delivered());
    // Losing the last healthy shard fails the door closed entirely.
    door.fleet_mut().inject_crash(1);
    assert!(!door
        .submit(benign(2, 2).with_priority(ServePriority::Interactive))
        .admitted());
    assert_eq!(door.degradation_mode(), DegradationMode::FailClosed);
    let stats = door.stats();
    assert_eq!(stats.recovery.ladder_shed, 2);
    assert!(stats.recovery.degraded_time() > SimDuration::ZERO);
    // Ladder refusals are `recovery.ladder_shed`, not queue refusals: the
    // exported counters are the typed fields, not a second count.
    let admission = stats.admission.clone().unwrap_or_default();
    let outcomes = stats.outcomes();
    let metrics = door.metrics();
    for (name, typed) in [
        ("admission.enqueued", admission.enqueued),
        ("admission.refused", admission.refused),
        ("admission.shed", admission.shed),
        ("recovery.ladder_shed", stats.recovery.ladder_shed),
        ("fleet.shard_crashes", stats.recovery.crashes),
        ("outcome.delivered", outcomes.delivered),
        ("outcome.refused", outcomes.refused),
    ] {
        assert_eq!(metrics.counter_value(name), typed, "{name}");
    }
}

/// A console partition drives the shard offline through its own watchdog
/// (containment), the fleet routes around it, and a later heal brings it
/// back through the console quorum — all recorded in the chaos trace.
#[test]
fn console_partition_contains_then_heals() {
    let plan = FaultPlan::new()
        .with(
            SimInstant::from_nanos(300_000),
            FaultKind::ConsolePartition { shard: 1 },
        )
        .with(
            SimInstant::from_nanos(2_000_000),
            FaultKind::ConsoleHeal { shard: 1 },
        );
    let mut chaos = ChaosDoor::new(door_with(2, RecoveryConfig::default()), plan);
    let (decisions, responses) = chaos.play(arrivals(16, 4)).unwrap();
    assert_eq!(responses.len(), admitted_count(&decisions));
    let (door, trace) = chaos.into_parts();
    assert_eq!(trace.len(), 2);
    let rendered = trace.to_string();
    assert!(rendered.contains("console-partition"), "{rendered}");
    assert!(rendered.contains("watchdog"), "{rendered}");
    // Healed: the shard is serving again (or at worst still on probation).
    assert!(!door.fleet().is_crashed(1));
    let stats = door.stats();
    assert_eq!(stats.recovery.double_serves, 0);
    assert_eq!(stats.recovery.session_reorderings, 0);
}

/// The fleet-level quorum console integrates with recovery: a bulk
/// quarantine under one datacenter ballot takes shards out, split-brain
/// fails a bulk relax closed, and healing the partition lets the relax
/// through — onto probation.
#[test]
fn fleet_console_bulk_operations_reconcile_with_recovery() {
    let mut f = fleet(3);
    let mut console = FleetConsole::new(11);
    let report = console.bulk_quarantine(&mut f, &[0, 1], 3).unwrap();
    assert_eq!(report.applied, vec![0, 1]);
    assert_eq!(f.healthy_count(), 1);

    // Partition two of three shards: split brain, relax fails closed.
    for shard in [0usize, 1] {
        f.shard_mut(shard)
            .network_mut()
            .disconnect_link(
                guillotine::deployment::CONSOLE_NODE,
                guillotine::deployment::MACHINE_NODE,
            )
            .unwrap();
    }
    assert!(FleetConsole::split_brain(&f));
    assert!(console.bulk_relax(&mut f, &[0, 1], 5).is_err());
    assert!(f.is_quarantined(0) && f.is_quarantined(1));

    // Heal the links: the same ballot strength now relaxes both shards,
    // and they rejoin through cold-KV probation.
    for shard in [0usize, 1] {
        f.shard_mut(shard)
            .network_mut()
            .reconnect_link(
                guillotine::deployment::CONSOLE_NODE,
                guillotine::deployment::MACHINE_NODE,
            )
            .unwrap();
    }
    let report = console.bulk_relax(&mut f, &[0, 1], 5).unwrap();
    assert_eq!(report.applied, vec![0, 1]);
    assert!(f.in_probation(0) && f.in_probation(1));
    assert_eq!(f.healthy_count(), 3);
}

// ---------------------------------------------------------------------
// Property tests: the recovery guarantees hold under ANY fault plan.
// ---------------------------------------------------------------------

proptest! {
    /// Whatever seeded fault schedule runs against the fleet, every
    /// admitted request is answered exactly once and per-session response
    /// order follows arrival order: zero double-serves, zero reorderings.
    #[test]
    fn any_fault_plan_preserves_order_and_idempotency(
        seed in 0u64..1_000,
        shards in 2usize..4,
        n in 4u32..20,
        sessions in 1u32..5,
    ) {
        let horizon = SimDuration::from_millis(8);
        let plan = FaultPlan::seeded(seed, shards, horizon);
        let mut chaos = ChaosDoor::new(door_with(shards, RecoveryConfig::default()), plan);
        let (decisions, responses) = chaos.play(arrivals(n, sessions)).unwrap();
        prop_assert_eq!(responses.len(), admitted_count(&decisions));
        let (door, _trace) = chaos.into_parts();
        let stats = door.stats();
        prop_assert_eq!(stats.recovery.double_serves, 0);
        prop_assert_eq!(stats.recovery.session_reorderings, 0);
    }

    /// Recovery restores *liveness*, never *containment*: faults that
    /// escalate a shard's isolation (console partition, tamper) stay
    /// escalated — with no console heal in the plan, no amount of retrying,
    /// hedging or re-queueing relaxes isolation below where the watchdogs
    /// put it.
    #[test]
    fn recovery_never_decreases_isolation(
        faults in proptest::collection::vec((0usize..3, 0u8..2, 1u64..4_000_000), 1..4),
        n in 4u32..12,
    ) {
        let shards = 3usize;
        let mut plan = FaultPlan::new();
        for &(shard, kind, at) in &faults {
            let kind = match kind {
                0 => FaultKind::ConsolePartition { shard },
                _ => FaultKind::Tamper { shard },
            };
            plan.push(SimInstant::from_nanos(at), kind);
        }
        let mut chaos = ChaosDoor::new(door_with(shards, RecoveryConfig::default()), plan);
        let (decisions, responses) = chaos.play(arrivals(n, 3)).unwrap();
        prop_assert_eq!(responses.len(), admitted_count(&decisions));
        let (door, _trace) = chaos.into_parts();
        for &(shard, _, _) in &faults {
            let level = door.fleet().shard(shard).isolation_level();
            prop_assert!(
                level > IsolationLevel::Standard,
                "shard {} was relaxed back to {} with no heal scheduled",
                shard,
                level
            );
            prop_assert!(door.fleet().is_quarantined(shard));
        }
        let stats = door.stats();
        prop_assert_eq!(stats.recovery.double_serves, 0);
        prop_assert_eq!(stats.recovery.session_reorderings, 0);
    }

    /// The ladder's per-mode residence accounting never leaks or double
    /// counts time: across ANY seeded fault plan — including control-plane
    /// crashes whose replay downtime advances the clock — the per-mode
    /// durations in `RecoveryStats::degraded` sum to exactly the elapsed
    /// fleet clock.
    #[test]
    fn degraded_mode_durations_sum_to_elapsed_clock(
        seed in 0u64..400,
        shards in 2usize..4,
        n in 4u32..16,
        journaled in 0u8..2,
    ) {
        let horizon = SimDuration::from_millis(8);
        let plan = FaultPlan::seeded_durability(seed, shards, horizon);
        let mut door = door_with(shards, RecoveryConfig::default());
        if journaled == 1 {
            door = door.with_journal(JournalConfig::default());
        }
        let mut chaos = ChaosDoor::new(door, plan);
        chaos.play(arrivals(n, 3)).unwrap();
        let (door, _trace) = chaos.into_parts();
        let stats = door.stats();
        let elapsed = door.now().duration_since(SimInstant::ZERO);
        let accounted = stats
            .recovery
            .degraded
            .iter()
            .fold(SimDuration::ZERO, |acc, held| acc.saturating_add(*held));
        prop_assert_eq!(accounted, elapsed, "mode residence must partition the clock");
    }
}
