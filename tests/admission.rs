//! Integration tests for the admission tier: backpressure decisions,
//! ordering invariants of the batch former, and the central serving
//! guarantee — a queue drained through the `FrontDoor` produces
//! byte-identical answers to one synchronous `serve_batch` call with the
//! same requests. Batch forming decides grouping and timing, never
//! content.

use guillotine::admission::{AdmissionConfig, FrontDoor, TimedArrival};
use guillotine::fleet::GuillotineFleet;
use guillotine::serve::{ServePriority, ServeRequest, ServeResponse};
use guillotine::{
    AdmissionDecision, ArrivalGen, ArrivalProcess, DeadlinePolicy, FifoWavePolicy, ShedPolicy,
};
use guillotine_admit::AdmissionController;
use guillotine_types::{SessionId, SimDuration, SimInstant};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn fleet() -> GuillotineFleet {
    GuillotineFleet::builder().with_shards(2).build().unwrap()
}

fn priority(class: u8) -> ServePriority {
    match class {
        0 => ServePriority::Batch,
        1 => ServePriority::Normal,
        _ => ServePriority::Interactive,
    }
}

/// A benign request: never flags a detector, so outcomes depend only on
/// the request itself, not on how the former grouped the batch.
fn benign(i: usize, session: u32, class: u8, word: u16) -> ServeRequest {
    ServeRequest::new(format!(
        "Please summarize item {word} of quarterly report {i}."
    ))
    .with_session(SessionId::new(session))
    .with_priority(priority(class))
}

/// Responses grouped per session, keeping only the fields the admission
/// tier must not change: outcome and delivered bytes.
fn per_session(responses: &[ServeResponse]) -> BTreeMap<u32, Vec<(String, String)>> {
    let mut map: BTreeMap<u32, Vec<(String, String)>> = BTreeMap::new();
    for r in responses {
        map.entry(r.session.raw())
            .or_default()
            .push((format!("{:?}", r.outcome), r.response.clone()));
    }
    map
}

// ---------------------------------------------------------------------
// Deterministic behaviour under overload.
// ---------------------------------------------------------------------

#[test]
fn fail_closed_overload_refuses_and_preserves_the_queue() {
    let mut door = FrontDoor::new(
        fleet(),
        AdmissionConfig {
            capacity: 4,
            shed: ShedPolicy::FailClosed,
            default_deadline: None,
        },
        // A wave the test never fills, so the queue only moves on drain.
        Box::new(FifoWavePolicy { wave: 1024 }),
    );
    let mut refused = 0;
    for i in 0..10 {
        if !door.submit(benign(i, i as u32, 1, 7)).admitted() {
            refused += 1;
        }
    }
    assert_eq!(door.queue_depth(), 4);
    assert_eq!(refused, 6);
    let stats = door.admission_stats();
    assert_eq!(stats.refused, 6);
    assert_eq!(stats.shed, 0);
    // Everything that got in is served on drain.
    assert_eq!(door.drain().unwrap().len(), 4);
}

#[test]
fn shed_overload_keeps_the_urgent_work() {
    let mut door = FrontDoor::new(
        fleet(),
        AdmissionConfig {
            capacity: 3,
            shed: ShedPolicy::DropLowestPriority,
            default_deadline: None,
        },
        Box::new(FifoWavePolicy { wave: 1024 }),
    );
    // Fill with bulk traffic, then hit the full queue with interactive
    // requests: every interactive arrival must displace a bulk victim.
    for i in 0..3 {
        assert!(door.submit(benign(i, i as u32, 0, 1)).admitted());
    }
    for i in 3..6 {
        let decision = door.submit(benign(i, i as u32, 2, 1));
        assert!(
            matches!(
                decision,
                AdmissionDecision::Shed {
                    admitted: Some(_),
                    ..
                }
            ),
            "interactive arrival {i} should displace a bulk victim, got {decision:?}"
        );
    }
    let responses = door.drain().unwrap();
    assert_eq!(responses.len(), 3);
    let mut sessions: Vec<u32> = responses.iter().map(|r| r.session.raw()).collect();
    sessions.sort_unstable();
    assert_eq!(
        sessions,
        vec![3, 4, 5],
        "only the interactive traffic survives"
    );
    assert_eq!(door.admission_stats().shed, 3);
}

#[test]
fn a_seeded_arrival_trace_replays_identically_through_the_door() {
    let process = ArrivalProcess::OnOff {
        burst_len: 8,
        burst_gap: SimDuration::from_micros(10),
        idle_gap: SimDuration::from_millis(2),
    };
    let run = |seed: u64| {
        let arrivals = ArrivalGen::trace(process, seed, 48);
        let trace: Vec<TimedArrival> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &at)| TimedArrival {
                at,
                request: benign(i, i as u32 % 6, (i % 3) as u8, i as u16),
                deadline: Some(SimDuration::from_millis(20)),
            })
            .collect();
        let mut door = FrontDoor::deadline_aware(fleet());
        let (decisions, responses) = door.play(trace).unwrap();
        (decisions, per_session(&responses), door.stats())
    };
    let a = run(41);
    let b = run(41);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2, "same seed, same SLO accounting");
    let c = run(42);
    assert_ne!(
        a.2.elapsed, c.2.elapsed,
        "a different seed should produce a different timeline"
    );
}

// ---------------------------------------------------------------------
// Property tests.
// ---------------------------------------------------------------------

proptest! {
    /// Whatever the policy and whatever the arrival mix, requests of one
    /// session leave the queue in arrival order — across batches and
    /// within each batch.
    #[test]
    fn batch_forming_never_reorders_a_session(
        arrivals in collection::vec((0u32..4, 0u8..3, 0u64..4000), 1..32),
        max_batch in 1usize..6,
        affinity in any::<bool>(),
    ) {
        let mut queue: AdmissionController<usize> = AdmissionController::new(
            64,
            ShedPolicy::FailClosed,
            Box::new(DeadlinePolicy {
                max_batch,
                max_wait: SimDuration::from_micros(5),
                session_affinity: affinity,
                ..DeadlinePolicy::default()
            }),
        );
        for (i, &(session, class, deadline)) in arrivals.iter().enumerate() {
            let deadline = (deadline > 0).then(|| SimInstant::from_nanos(deadline));
            queue.submit(
                i,
                SessionId::new(session),
                class,
                deadline,
                SimInstant::from_nanos(i as u64 * 37),
            );
        }
        let mut dispatched: Vec<(u32, usize)> = Vec::new();
        let mut now = SimInstant::from_nanos(arrivals.len() as u64 * 37);
        while let Some(batch) = queue.flush(now) {
            for admitted in batch {
                dispatched.push((admitted.stamp.session.raw(), admitted.payload));
            }
            now = now.saturating_add(SimDuration::from_micros(1));
        }
        prop_assert_eq!(dispatched.len(), arrivals.len());
        let mut last_seen: BTreeMap<u32, usize> = BTreeMap::new();
        for (session, index) in dispatched {
            if let Some(&previous) = last_seen.get(&session) {
                prop_assert!(
                    index > previous,
                    "session {} dispatched {} after {}",
                    session,
                    index,
                    previous
                );
            }
            last_seen.insert(session, index);
        }
    }

    /// Shedding respects priority: a victim is never outranked by anything
    /// left in the queue (its class is <= every retained entry's class).
    #[test]
    fn shed_decisions_respect_priority_ordering(
        arrivals in collection::vec((0u32..6, 0u8..3), 4..40),
        capacity in 1usize..6,
    ) {
        let mut queue: AdmissionController<usize> = AdmissionController::new(
            capacity,
            ShedPolicy::DropLowestPriority,
            Box::new(FifoWavePolicy { wave: 1024 }),
        );
        // Ticket ids are assigned in submission order, so they index this.
        let classes: Vec<u8> = arrivals.iter().map(|&(_, c)| c).collect();
        for (i, &(session, class)) in arrivals.iter().enumerate() {
            let decision = queue.submit(
                i,
                SessionId::new(session),
                class,
                None,
                SimInstant::from_nanos(i as u64),
            );
            if let AdmissionDecision::Shed { victim, .. } = decision {
                let victim_class = classes[victim.raw() as usize];
                for stamp in queue.stamps() {
                    prop_assert!(
                        stamp.class >= victim_class,
                        "shed a class-{} victim while class {} stayed queued",
                        victim_class,
                        stamp.class
                    );
                }
            }
        }
        let stats = queue.stats();
        // Every submission was enqueued or dropped; every drop was a shed
        // (nothing fail-closed here), and drops never exceed submissions.
        prop_assert!(stats.enqueued <= stats.submitted);
        prop_assert_eq!(stats.refused, 0);
        prop_assert!(stats.shed <= stats.submitted);
        prop_assert!(stats.enqueued + stats.shed >= stats.submitted);
        prop_assert_eq!(queue.depth() as u64, stats.depth.current());
    }

    /// The central serving guarantee: draining the front door returns, per
    /// request, byte-identical outcomes and response text to one
    /// synchronous `serve_batch` over the same requests — however the
    /// former batched them.
    #[test]
    fn drained_queue_is_byte_identical_to_synchronous_serve_batch(
        specs in collection::vec((0u32..5, 0u8..3, 0u16..200), 1..12),
        max_batch in 1usize..5,
        affinity in any::<bool>(),
    ) {
        let requests: Vec<ServeRequest> = specs
            .iter()
            .enumerate()
            .map(|(i, &(session, class, word))| benign(i, session, class, word))
            .collect();

        let mut direct = fleet();
        let direct_responses = direct.serve_batch(requests.clone()).unwrap();

        let mut door = FrontDoor::new(
            fleet(),
            AdmissionConfig {
                capacity: 64,
                shed: ShedPolicy::FailClosed,
                default_deadline: Some(SimDuration::from_secs(1)),
            },
            Box::new(DeadlinePolicy {
                max_batch,
                max_wait: SimDuration::from_micros(50),
                session_affinity: affinity,
                ..DeadlinePolicy::default()
            }),
        );
        for request in requests.clone() {
            prop_assert!(door.submit(request).admitted());
        }
        let door_responses = door.drain().unwrap();

        prop_assert_eq!(door_responses.len(), requests.len());
        prop_assert_eq!(per_session(&door_responses), per_session(&direct_responses));
        prop_assert!(door.queue_depth() == 0);
        let stats = door.stats();
        let admission = stats.admission.unwrap();
        prop_assert_eq!(admission.dispatched, requests.len() as u64);
        prop_assert_eq!(admission.deadlines_tracked, requests.len() as u64);
        // The plain door settles through the same path as a hardened one,
        // so its idempotency and session-order witnesses run too.
        prop_assert_eq!(stats.recovery.double_serves, 0);
        prop_assert_eq!(stats.recovery.session_reorderings, 0);
    }
}
