//! Mutant tests for the bounded containment model checker: the faithful
//! model proves every invariant, and each seeded containment bug is caught
//! with a counterexample trace naming the invariant it breaks.

use guillotine_audit::{check, Counterexample, ModelFault, DEFAULT_DEPTH, INVARIANTS};

#[test]
fn faithful_model_proves_every_invariant() {
    let proof = check(ModelFault::None, DEFAULT_DEPTH)
        .unwrap_or_else(|cx| panic!("faithful model produced a counterexample:\n{cx}"));
    assert!(
        proof.states_explored > 1_000,
        "suspiciously small state space: {}",
        proof.states_explored
    );
    assert_eq!(INVARIANTS.len(), 10);
}

fn expect_counterexample(fault: ModelFault, invariant: &str) -> Counterexample {
    let counterexample = check(fault, DEFAULT_DEPTH)
        .err()
        .unwrap_or_else(|| panic!("mutant {fault:?} was not caught"));
    assert_eq!(
        counterexample.invariant, invariant,
        "mutant {fault:?} violated the wrong invariant: {counterexample}"
    );
    assert!(
        !counterexample.trace.is_empty(),
        "counterexample for {fault:?} has no trace"
    );
    counterexample
}

/// The ISSUE's required mutant: a quarantine that drops its shard's queue
/// instead of re-homing it. The violation manifests as a served
/// sequence-number gap — the session's first turn vanished with the queue.
#[test]
fn skipping_rehome_on_quarantine_is_caught() {
    let counterexample = expect_counterexample(
        ModelFault::DropQueueOnQuarantine,
        "session-order-preserved-across-rehome",
    );
    // The minimal trace must actually exercise the bug: a submit, the
    // quarantine that loses it, and a dispatch that exposes the gap.
    let trace = counterexample.trace.join("\n");
    assert!(trace.contains("Quarantine"), "{counterexample}");
    assert!(trace.contains("Dispatch"), "{counterexample}");
}

#[test]
fn serving_from_a_quarantined_shard_is_caught() {
    expect_counterexample(
        ModelFault::ServeFromQuarantined,
        "no-serve-from-quarantined-shard",
    );
}

#[test]
fn admitting_when_fully_quarantined_is_caught() {
    expect_counterexample(
        ModelFault::SkipFailClosed,
        "fail-closed-when-fully-quarantined",
    );
}

#[test]
fn serving_stale_kv_after_invalidation_is_caught() {
    let counterexample = expect_counterexample(
        ModelFault::ServeStaleKv,
        "no-kv-from-invalidated-generation",
    );
    // Reaching a stale-generation serve needs a full quarantine/reinstate
    // round trip; the minimal trace is the longest of the six.
    assert!(counterexample.trace.len() >= 6, "{counterexample}");
}

#[test]
fn emitting_chunks_after_sever_is_caught() {
    expect_counterexample(ModelFault::EmitAfterSever, "no-chunk-after-severed-stream");
}

#[test]
fn reinstating_without_quorum_is_caught() {
    let counterexample = expect_counterexample(
        ModelFault::ReinstateWithoutQuorum,
        "no-reinstate-without-quorum",
    );
    // Quarantine then an immediate vote-less reinstate: two steps.
    assert_eq!(counterexample.trace.len(), 2, "{counterexample}");
}

/// The chaos PR's first new mutant: dispatch serves a retry/hedge
/// duplicate of an already-delivered request instead of suppressing it.
/// The minimal witness needs a full serve before the duplicate exists:
/// submit → dispatch → retry-enqueue → dispatch.
#[test]
fn double_serving_a_retry_duplicate_is_caught() {
    let counterexample =
        expect_counterexample(ModelFault::ServeDuplicate, "no-double-serve-under-retry");
    let trace = counterexample.trace.join("\n");
    assert!(trace.contains("RetryEnqueue"), "{counterexample}");
    assert!(
        counterexample.trace.len() >= 4,
        "a duplicate cannot exist before one serve completed: {counterexample}"
    );
}

/// The chaos PR's second new mutant: a reinstate quorum honoured while the
/// fleet console is partitioned from its machines. Split-brain must fail
/// closed — the votes may be the minority side.
#[test]
fn relaxing_while_partitioned_is_caught() {
    let counterexample = expect_counterexample(
        ModelFault::RelaxWhilePartitioned,
        "no-relax-while-partitioned",
    );
    let trace = counterexample.trace.join("\n");
    assert!(trace.contains("ConsolePartition"), "{counterexample}");
    assert!(trace.contains("Reinstate"), "{counterexample}");
}

/// The journal PR's first new mutant: control-plane crash recovery that
/// forgets the WAL. The minimal witness is an acked-but-unserved submit
/// followed by the crash that loses it.
#[test]
fn losing_acked_work_across_recovery_is_caught() {
    let counterexample = expect_counterexample(
        ModelFault::LoseAckedOnRecovery,
        "no-acked-loss-across-recovery",
    );
    let trace = counterexample.trace.join("\n");
    assert!(trace.contains("Submit"), "{counterexample}");
    assert!(trace.contains("ControlPlaneCrash"), "{counterexample}");
    // Nothing can be lost before something was acked: submit then crash.
    assert_eq!(counterexample.trace.len(), 2, "{counterexample}");
}

/// The journal PR's second new mutant: crash replay that walks the whole
/// log and re-releases completed responses. The minimal witness needs a
/// completion on record first: submit → dispatch → crash.
#[test]
fn replaying_completed_work_across_recovery_is_caught() {
    let counterexample = expect_counterexample(
        ModelFault::ReplayCompletedOnRecovery,
        "no-double-serve-across-recovery",
    );
    let trace = counterexample.trace.join("\n");
    assert!(trace.contains("Dispatch"), "{counterexample}");
    assert!(trace.contains("ControlPlaneCrash"), "{counterexample}");
    assert!(
        counterexample.trace.len() >= 3,
        "a completion must exist before it can be double-served: {counterexample}"
    );
}

/// The watermark mutant: crash replay compares `seq >= delivered` instead
/// of `seq > delivered`, so it re-queues each session's last completed
/// request. This re-proves the invariant over the watermark abstraction the
/// door's settled floor implements; the minimal witness again needs a
/// completion on record: submit → dispatch → crash.
#[test]
fn off_by_one_watermark_across_recovery_is_caught() {
    let counterexample = expect_counterexample(
        ModelFault::OffByOneWatermark,
        "no-double-serve-across-recovery",
    );
    let trace = counterexample.trace.join("\n");
    assert!(trace.contains("Dispatch"), "{counterexample}");
    assert!(trace.contains("ControlPlaneCrash"), "{counterexample}");
    assert_eq!(counterexample.trace.len(), 3, "{counterexample}");
}

/// Counterexamples render as numbered, human-readable traces — that is the
/// debugging artifact the audit gate prints on a red build.
#[test]
fn counterexample_display_is_a_numbered_trace() {
    let counterexample = check(ModelFault::ReinstateWithoutQuorum, DEFAULT_DEPTH)
        .expect_err("mutant must be caught");
    let rendered = counterexample.to_string();
    assert!(
        rendered.contains("no-reinstate-without-quorum"),
        "{rendered}"
    );
    assert!(rendered.contains("1."), "{rendered}");
}
