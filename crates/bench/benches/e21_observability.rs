//! E21: observability — what end-to-end tracing costs, and what it proves.
//!
//! Two halves:
//!
//! * **Overhead** — the e13 workload (repeated 64-prompt batches) runs
//!   through two identical fleets, telemetry off vs
//!   [`TelemetryConfig::full`] (every span, no sampling). The acceptance
//!   bar: traced throughput within 10% of untraced.
//! * **Completeness under chaos** — the e19 seeded fault schedule plays
//!   against a traced, journaled, self-healing door. Every served ticket
//!   must end with a complete causal span tree (root + resolvable
//!   parent/follows links), the tracer must hold zero orphans, and the
//!   flight recorder must carry one correlation entry per injected fault,
//!   joining it to the tickets whose recovery it forced.
//!
//! Artifacts: `METRICS_e21.json` (the merged fleet registry) and
//! `FLIGHT_RECORDER_e21.json` (incident dumps + fault correlations), both
//! archived by CI next to `BENCH_e21.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use guillotine::admission::{AdmissionConfig, FrontDoor, JournalConfig, TimedArrival};
use guillotine::chaos::{ChaosDoor, FaultPlan};
use guillotine::fleet::GuillotineFleet;
use guillotine::recovery::RecoveryConfig;
use guillotine::serve::{ServePriority, ServeRequest};
use guillotine::{AdmissionDecision, DeadlinePolicy, KvCacheConfig, ShedPolicy, TelemetryConfig};
use guillotine_types::{SessionId, SimDuration, SimInstant, TicketId};

const BATCH: usize = 64;
const ROUNDS: usize = 12;
const TRIALS: usize = 5;
const SHARDS: usize = 4;
const REQUESTS: u32 = 192;
const SESSIONS: u32 = 24;
const SEED: u64 = 0x5EED;
const SPACING_NS: u64 = 50_000;
const HORIZON: SimDuration = SimDuration::from_millis(8);

fn prompts() -> Vec<String> {
    (0..BATCH)
        .map(|i| format!("Summarize change number {i} in the release notes."))
        .collect()
}

fn fleet() -> GuillotineFleet {
    GuillotineFleet::builder()
        .with_shards(SHARDS)
        .with_kv_cache(KvCacheConfig::default())
        .with_probation(3, 2)
        .build()
        .unwrap()
}

/// Wall-clock seconds for one run of `ROUNDS` 64-prompt batches.
fn run_workload(traced: bool) -> f64 {
    let texts = prompts();
    let mut f = fleet();
    if traced {
        f.enable_telemetry(TelemetryConfig::full());
    }
    // Warmup outside the timed window.
    f.serve_batch(vec![ServeRequest::new("warmup")]).unwrap();
    let start = std::time::Instant::now();
    for _ in 0..ROUNDS {
        let responses = f
            .serve_batch(texts.iter().map(|p| ServeRequest::new(p.clone())).collect())
            .unwrap();
        assert_eq!(responses.len(), BATCH);
    }
    start.elapsed().as_secs_f64()
}

/// Best-of-`TRIALS` wall-clock for both modes, trials interleaved so a
/// scheduler hiccup or frequency shift hits untraced and traced runs
/// alike instead of faking a regression (or masking one).
fn workload_seconds() -> (f64, f64) {
    let mut best_plain = f64::INFINITY;
    let mut best_traced = f64::INFINITY;
    for _ in 0..TRIALS {
        best_plain = best_plain.min(run_workload(false));
        best_traced = best_traced.min(run_workload(true));
    }
    (best_plain, best_traced)
}

fn chaos_trace() -> Vec<TimedArrival> {
    (0..REQUESTS)
        .map(|i| {
            let (priority, deadline) = match i % 3 {
                0 => (
                    ServePriority::Interactive,
                    Some(SimDuration::from_millis(150)),
                ),
                1 => (ServePriority::Normal, Some(SimDuration::from_millis(600))),
                _ => (ServePriority::Batch, None),
            };
            TimedArrival {
                at: SimInstant::from_nanos(u64::from(i) * SPACING_NS),
                request: ServeRequest::new(format!(
                    "Please summarize item {i} of the incident report."
                ))
                .with_session(SessionId::new(i % SESSIONS))
                .with_priority(priority),
                deadline,
            }
        })
        .collect()
}

fn chaos_door() -> FrontDoor {
    FrontDoor::new(
        fleet(),
        AdmissionConfig {
            capacity: 512,
            shed: ShedPolicy::FailClosed,
            default_deadline: Some(SimDuration::from_secs(5)),
        },
        Box::new(DeadlinePolicy {
            max_batch: 8,
            max_wait: SimDuration::from_micros(100),
            ..DeadlinePolicy::default()
        }),
    )
    .with_recovery(RecoveryConfig::default())
    .with_journal(JournalConfig::default())
    .with_telemetry(TelemetryConfig::full())
}

fn bench(c: &mut Criterion) {
    // ---- Overhead: traced vs untraced e13 workload. ----
    let (plain_s, traced_s) = workload_seconds();
    let served = (BATCH * ROUNDS) as f64;
    let plain_rps = served / plain_s.max(1e-9);
    let traced_rps = served / traced_s.max(1e-9);
    let ratio = traced_rps / plain_rps.max(1e-9);
    println!(
        "e21: {ROUNDS}x{BATCH} prompts -> untraced {plain_rps:.0} req/s, full tracing \
         {traced_rps:.0} req/s ({:.1}% overhead)",
        (1.0 - ratio) * 100.0
    );
    assert!(
        ratio >= 0.90,
        "full tracing must stay within 10% of untraced throughput: ratio {ratio:.3}"
    );

    // ---- Completeness under the seeded chaos schedule. ----
    let plan = FaultPlan::seeded(SEED, SHARDS, HORIZON);
    let mut chaos = ChaosDoor::new(chaos_door(), plan);
    let (decisions, responses) = chaos.play(chaos_trace()).unwrap();
    let (door, trace) = chaos.into_parts();
    let tickets: Vec<TicketId> = decisions
        .iter()
        .filter_map(|d| match d {
            AdmissionDecision::Enqueued { ticket, .. } => Some(*ticket),
            AdmissionDecision::Shed {
                admitted: Some(t), ..
            } => Some(*t),
            _ => None,
        })
        .collect();
    assert_eq!(
        responses.len(),
        tickets.len(),
        "every admitted ticket is answered"
    );
    let telemetry = door.fleet().telemetry();
    let tracer = telemetry.tracer();
    let orphans = tracer.orphans().len();
    assert_eq!(orphans, 0, "no span may carry a dangling causal link");
    let complete = tickets
        .iter()
        .filter(|&&t| tracer.has_complete_tree(t))
        .count();
    assert_eq!(
        complete,
        tickets.len(),
        "every served ticket must have a complete span tree"
    );
    let faults = trace.records().len();
    let correlations = telemetry.recorder().correlations();
    assert_eq!(
        correlations.len(),
        faults,
        "one correlation entry per injected fault"
    );
    let delayed_total: usize = correlations.iter().map(|c| c.delayed_tickets.len()).sum();
    let incidents = telemetry.recorder().incidents().len();
    println!(
        "e21: seeded plan {SEED:#x} -> {} spans over {} tickets, {complete} complete trees, \
         {orphans} orphans, {incidents} incident dumps, {faults} faults correlated to \
         {delayed_total} delayed-ticket entries",
        tracer.len(),
        tickets.len(),
    );
    assert!(
        delayed_total > 0,
        "the seeded schedule must delay at least one ticket via recovery"
    );
    assert!(
        incidents > 0,
        "the schedule fires at least one incident dump"
    );

    let metrics_json = door.metrics().to_json();
    std::fs::write("METRICS_e21.json", &metrics_json).expect("write metrics");
    std::fs::write("FLIGHT_RECORDER_e21.json", telemetry.recorder().to_json())
        .expect("write flight recorder");
    println!("e21: wrote METRICS_e21.json and FLIGHT_RECORDER_e21.json");

    let stages = door.stats().stages;
    let mut json = guillotine_bench::BenchJson::new("e21", "observability");
    json.metric("untraced_req_per_s", plain_rps)
        .metric("traced_req_per_s", traced_rps)
        .metric("span_count", tracer.len() as f64)
        .metric("traced_tickets", tickets.len() as f64)
        .metric("incident_dumps", incidents as f64)
        .metric("faults_correlated", faults as f64)
        .metric("delayed_ticket_entries", delayed_total as f64)
        .bar("tracing_throughput_ratio", ratio, 0.90)
        .bar(
            "complete_span_trees",
            complete as f64 / tickets.len().max(1) as f64,
            1.0,
        )
        .bar("no_orphan_spans", if orphans == 0 { 1.0 } else { 0.0 }, 1.0);
    for stage in stages.iter().filter(|s| s.stage.starts_with("serve.")) {
        json.metric(
            &format!("{}_p95_ns", stage.stage.replace('.', "_")),
            stage.p95_ns as f64,
        );
    }
    json.write();

    // Wall-clock: the traced workload, so regressions in the record path
    // show up as criterion deltas.
    let mut group = c.benchmark_group("e21_observability");
    group.sample_size(10);
    group.bench_function("traced_batch64", |b| {
        let texts = prompts();
        let mut f = fleet();
        f.enable_telemetry(TelemetryConfig::full());
        b.iter(|| {
            f.serve_batch(texts.iter().map(|p| ServeRequest::new(p.clone())).collect())
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
