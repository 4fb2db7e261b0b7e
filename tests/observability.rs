//! Integration tests for end-to-end telemetry: per-ticket span trees
//! across admission, dispatch, shard serve stages and recovery; the
//! fleet-wide metrics registry; and the incident flight recorder — both on
//! a calm fleet and under a seeded chaos schedule.

use guillotine::admission::{AdmissionConfig, FrontDoor, JournalConfig, TimedArrival};
use guillotine::chaos::{ChaosDoor, FaultPlan};
use guillotine::fleet::GuillotineFleet;
use guillotine::recovery::RecoveryConfig;
use guillotine::serve::ServeRequest;
use guillotine::{
    AdmissionDecision, DeadlinePolicy, IncidentKind, KvCacheConfig, ShedPolicy, TelemetryConfig,
};
use guillotine_types::{SessionId, SimDuration, SimInstant, TicketId};

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

fn door(shards: usize) -> FrontDoor {
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

fn admitted_tickets(decisions: &[AdmissionDecision]) -> Vec<TicketId> {
    decisions
        .iter()
        .filter_map(|d| match d {
            AdmissionDecision::Enqueued { ticket, .. } => Some(*ticket),
            AdmissionDecision::Shed {
                admitted: Some(t), ..
            } => Some(*t),
            _ => None,
        })
        .collect()
}

#[test]
fn every_served_ticket_has_a_complete_span_tree() {
    let mut d = door(3).with_telemetry(TelemetryConfig::full());
    let (decisions, responses) = d.play(arrivals(24, 6)).unwrap();
    let tickets = admitted_tickets(&decisions);
    assert_eq!(responses.len(), tickets.len());
    let tracer = d.fleet().telemetry().tracer();
    assert!(tracer.orphans().is_empty(), "no dangling causal links");
    for ticket in tickets {
        assert!(
            tracer.has_complete_tree(ticket),
            "ticket {ticket} has an incomplete span tree"
        );
        let names: Vec<&str> = tracer.spans_for(ticket).iter().map(|s| s.name).collect();
        assert!(names.contains(&"request"), "{names:?}");
        assert!(names.contains(&"admission.queue"), "{names:?}");
        assert!(names.contains(&"serve.dispatch"), "{names:?}");
        assert!(names.contains(&"serve.shield"), "{names:?}");
        assert!(names.contains(&"serve.prefill"), "{names:?}");
    }
}

#[test]
fn telemetry_does_not_change_served_bytes() {
    let mut plain = door(2);
    let mut traced = door(2).with_telemetry(TelemetryConfig::full());
    let (_, a) = plain.play(arrivals(16, 4)).unwrap();
    let (_, b) = traced.play(arrivals(16, 4)).unwrap();
    assert_eq!(a, b, "tracing must observe, never perturb");
    assert!(plain.fleet().telemetry().tracer().is_empty());
    assert!(!traced.fleet().telemetry().tracer().is_empty());
}

#[test]
fn stage_latency_percentiles_reach_the_report() {
    let mut d = door(2).with_telemetry(TelemetryConfig::full());
    d.play(arrivals(16, 4)).unwrap();
    let stats = d.stats();
    assert!(!stats.stages.is_empty());
    let names: Vec<&str> = stats.stages.iter().map(|s| s.stage.as_str()).collect();
    for required in ["serve.shield", "serve.prefill", "serve.inference"] {
        assert!(
            names.contains(&required),
            "missing stage {required} in {names:?}"
        );
    }
    for stage in &stats.stages {
        assert!(stage.count > 0);
        assert!(stage.p50_ns <= stage.p95_ns && stage.p95_ns <= stage.p99_ns);
    }
    let rendered = d.report().render();
    assert!(rendered.contains("Stage latency"), "{rendered}");
    // The metrics artifact serializes and round-trips the same view, with
    // every typed counter present even when this run never bumped it.
    let json = d.metrics().to_json();
    assert!(json.contains("\"serve.prefill\""));
    assert!(json.contains("\"recovery.timeouts\": 0"), "{json}");
    assert!(json.contains("guillotine-metrics-v1"));
}

#[test]
fn untraced_door_reports_no_stages() {
    let mut d = door(2);
    d.play(arrivals(8, 2)).unwrap();
    assert!(d.stats().stages.is_empty());
}

#[test]
fn chaos_run_correlates_faults_and_dumps_incidents() {
    let plan = FaultPlan::seeded(0x5EED, 4, SimDuration::from_millis(8));
    let d = door(4)
        .with_recovery(RecoveryConfig::default())
        .with_journal(JournalConfig::default())
        .with_telemetry(TelemetryConfig::full());
    let mut chaos = ChaosDoor::new(d, plan);
    let (decisions, responses) = chaos.play(arrivals(96, 12)).unwrap();
    let (door, trace) = chaos.into_parts();
    assert!(!trace.records().is_empty());
    let telemetry = door.fleet().telemetry();
    // Every injected fault was noted for correlation, in schedule order.
    assert_eq!(telemetry.recorder().faults().len(), trace.records().len());
    let correlations = telemetry.recorder().correlations();
    assert_eq!(correlations.len(), trace.records().len());
    // Every completed ticket still has a complete causal tree.
    let tracer = telemetry.tracer();
    assert!(tracer.orphans().is_empty());
    let tickets = admitted_tickets(&decisions);
    assert_eq!(responses.len(), tickets.len());
    for ticket in tickets {
        assert!(tracer.has_complete_tree(ticket), "ticket {ticket}");
    }
    // The dump artifact is well-formed and carries both sections.
    let dump = telemetry.recorder().to_json();
    assert!(dump.contains("guillotine-flight-recorder-v1"));
    assert!(dump.contains("\"fault_correlations\": ["));
}

#[test]
fn control_plane_crash_fires_an_incident_with_wal_offset() {
    let mut d = door(2)
        .with_journal(JournalConfig::default())
        .with_telemetry(TelemetryConfig::full());
    for i in 0..6 {
        d.submit(benign(i, i));
    }
    d.schedule_control_crash(d.now());
    d.pump().unwrap();
    d.drain().unwrap();
    let incidents = d.fleet().telemetry().recorder().incidents();
    let crash = incidents
        .iter()
        .find(|i| i.kind == IncidentKind::ControlPlaneCrash)
        .expect("control-plane crash incident");
    assert!(
        crash.wal_offset > 0,
        "journaled door had committed WAL records before the crash"
    );
    // Replay shows up as an infrastructure span.
    let tracer = d.fleet().telemetry().tracer();
    assert!(tracer.spans().iter().any(|s| s.name == "journal.replay"));
}

#[test]
fn ring_capacity_and_head_sampling_bound_the_recorder() {
    let mut d = door(2).with_telemetry(TelemetryConfig {
        enabled: true,
        ring_capacity: 16,
        head_sample_every: 4,
    });
    d.play(arrivals(32, 8)).unwrap();
    assert!(d.fleet().telemetry().recorder().ring_len() <= 16);
    // The tracer itself is unsampled — sampling only bounds the ring.
    assert!(d.fleet().telemetry().tracer().len() > 16);
}
