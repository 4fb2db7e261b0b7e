//! Outcome accounting and the correctness gate: matches every attempted
//! request to its fate, checks each fate against the prompt's class, and
//! derives the simulated-clock end-to-end metrics from the responses.

use crate::workloads::{Inputs, PromptClass};
use guillotine::fleet::FleetStats;
use guillotine::serve::{ServeOutcomeKind, ServeResponse};
use guillotine::AdmissionDecision;
use guillotine_detect::CompiledCategories;
use guillotine_model::simulated_answer;
use guillotine_types::SimDuration;
use std::collections::HashMap;

/// A nearest-rank percentile together with the number of samples it was
/// taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The sample at rank `ceil(q * n)` (1-based) of the sorted samples.
    pub value: f64,
    /// How many samples the percentile was taken from.
    pub samples: usize,
}

/// The nearest-rank `q`-quantile of `samples` (`q` in `[0, 1]`); `None`
/// when there are no samples. Sorts in place.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<Quantile> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Quantile {
        value: samples[rank - 1],
        samples: n,
    })
}

/// The median of `values` (mean of the middle two for an even count);
/// `NaN` when empty. Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// How each attempted request ended, counted. Every attempted request lands
/// in exactly one bucket.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests in the trace.
    pub attempted: u64,
    /// Delivered as the model answered.
    pub delivered: u64,
    /// Delivered with forbidden spans redacted.
    pub sanitized: u64,
    /// Adversarial prompts the shield refused: a correct outcome.
    pub shield_refused: u64,
    /// Non-adversarial requests answered with a refusal (retry budget
    /// exhausted, fail-closed isolation): an errored request.
    pub errored: u64,
    /// Cut off by a batch-level escalation.
    pub escalated: u64,
    /// Dropped by the shed policy.
    pub shed: u64,
    /// Turned away by a full fail-closed queue or the degradation ladder.
    pub admission_refused: u64,
    /// Admitted but never answered.
    pub lost: u64,
}

impl Tally {
    /// Requests that did not get the service their class calls for.
    pub fn failed(&self) -> u64 {
        self.shed + self.admission_refused + self.lost + self.errored + self.escalated
    }

    /// Shed, admission-refused, lost, errored or escalated requests over
    /// attempted requests.
    pub fn fail_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed() as f64 / self.attempted as f64
    }
}

/// The simulated-clock results of one play: deterministic outputs of the
/// cost model, compared bit for bit across plays of the same inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// How every attempted request ended.
    pub tally: Tally,
    /// Responses returned by the door.
    pub settled: u64,
    /// `FleetStats::elapsed`.
    pub elapsed: SimDuration,
    /// Submission-to-first-token per streamed response, in ms.
    pub ttft_ms: Vec<f64>,
    /// Submission-to-completion (`latency.total()`) per response, in ms.
    pub latency_ms: Vec<f64>,
    /// Requests that carried a deadline.
    pub deadlines_carried: u64,
    /// Served requests that met their deadline, as the door judged it.
    pub deadlines_met: u64,
}

impl SimResult {
    /// Settled requests per simulated second.
    pub fn req_per_s(&self) -> f64 {
        self.settled as f64 / self.elapsed.as_secs_f64()
    }

    /// Attempted requests that carried a deadline and met it, over
    /// attempted requests that carried one.
    pub fn deadline_met_share(&self) -> f64 {
        if self.deadlines_carried == 0 {
            return 0.0;
        }
        self.deadlines_met as f64 / self.deadlines_carried as f64
    }
}

/// What the door's serving pipeline charges every request before its
/// queue wait: read off a probe response, so the submission-to-first-token
/// arithmetic follows the cost model instead of restating it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageCosts {
    /// Pipeline queueing charged inside each batch.
    pub queue: SimDuration,
    /// Input shielding.
    pub input_screen: SimDuration,
    /// Output screening.
    pub output_screen: SimDuration,
}

/// Accounts one play: matches every attempted request to its fate, checks
/// it against the request's class, and collects the simulated metrics.
/// Returns the result and every violation found.
pub fn account(
    inputs: &Inputs,
    decisions: &[AdmissionDecision],
    responses: &[ServeResponse],
    stats: &FleetStats,
    stages: StageCosts,
) -> (SimResult, Vec<String>) {
    let hardened = inputs.kind.hardened();
    let mut violations = Vec::new();
    let mut tally = Tally {
        attempted: inputs.arrivals.len() as u64,
        ..Tally::default()
    };
    if decisions.len() != inputs.arrivals.len() {
        violations.push(format!(
            "{} decisions for {} arrivals",
            decisions.len(),
            inputs.arrivals.len()
        ));
    }

    // Which arrival holds which ticket, and which arrivals were shed.
    let mut ticket_of = vec![None; inputs.arrivals.len()];
    let mut arrival_of: HashMap<u32, usize> = HashMap::new();
    let mut shed = vec![false; inputs.arrivals.len()];
    for (i, decision) in decisions.iter().enumerate() {
        match *decision {
            AdmissionDecision::Enqueued { ticket, .. } => {
                ticket_of[i] = Some(ticket);
                arrival_of.insert(ticket.raw(), i);
            }
            AdmissionDecision::Shed {
                victim, admitted, ..
            } => match admitted {
                Some(ticket) => {
                    ticket_of[i] = Some(ticket);
                    arrival_of.insert(ticket.raw(), i);
                    match arrival_of.get(&victim.raw()) {
                        Some(&j) => shed[j] = true,
                        None => violations.push(format!("shed victim {victim} was never queued")),
                    }
                }
                None => shed[i] = true,
            },
            AdmissionDecision::Refused { .. } => tally.admission_refused += 1,
        }
    }
    tally.shed = shed.iter().filter(|&&s| s).count() as u64;

    // Within a session the door answers in arrival order, so the k-th
    // response of a session belongs to its k-th surviving arrival.
    let mut pending: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, arrival) in inputs.arrivals.iter().enumerate() {
        if ticket_of[i].is_some() && !shed[i] {
            pending.entry(arrival.session.raw()).or_default().push(i);
        }
    }
    let mut cursor: HashMap<u32, usize> = HashMap::new();
    let markers = CompiledCategories::standard();
    let mut ttft_ms = Vec::with_capacity(responses.len());
    let mut latency_ms = Vec::with_capacity(responses.len());
    let mut ttft_total = 0u64;
    for response in responses {
        let session = response.session.raw();
        let next = cursor.entry(session).or_default();
        let Some(&i) = pending.get(&session).and_then(|queue| queue.get(*next)) else {
            violations.push(format!("session {session}: response with no request left"));
            continue;
        };
        *next += 1;
        let arrival = &inputs.arrivals[i];
        let latency = response.latency;
        latency_ms.push(latency.total().as_secs_f64() * 1e3);
        if latency.time_to_first_token > SimDuration::ZERO {
            // The pipeline stamps first token from batch entry, which
            // already includes its own queue charge; the producer's wait
            // before dispatch is the rest of `latency.queue`.
            let wait = SimDuration::from_nanos(
                latency
                    .queue
                    .as_nanos()
                    .saturating_sub(stages.queue.as_nanos()),
            );
            let ttft = wait.saturating_add(latency.time_to_first_token);
            ttft_total += ttft.as_nanos();
            ttft_ms.push(ttft.as_secs_f64() * 1e3);
        }
        let text = response.response.as_str();
        if response.delivered() && markers.matcher().find_earliest(text).is_some() {
            violations.push(format!(
                "request {i}: delivered text carries a forbidden marker"
            ));
        }
        match (response.outcome, arrival.class) {
            (ServeOutcomeKind::Delivered, PromptClass::Benign) => {
                tally.delivered += 1;
                if text != simulated_answer(&arrival.prompt) {
                    violations.push(format!(
                        "request {i}: delivered text is not the model's answer"
                    ));
                }
            }
            (ServeOutcomeKind::Sanitized, PromptClass::MarkerEcho) => tally.sanitized += 1,
            (ServeOutcomeKind::Refused, PromptClass::Jailbreak) => tally.shield_refused += 1,
            (ServeOutcomeKind::Refused, _) if hardened && text.is_empty() => tally.errored += 1,
            (ServeOutcomeKind::Escalated, _) if hardened => tally.escalated += 1,
            (outcome, class) => {
                violations.push(format!("request {i}: {class:?} prompt ended {outcome:?}"));
            }
        }
    }
    for (session, queue) in &pending {
        let answered = cursor.get(session).copied().unwrap_or(0);
        tally.lost += (queue.len() - answered.min(queue.len())) as u64;
    }
    if tally.lost > 0 {
        violations.push(format!(
            "{} admitted requests were never answered",
            tally.lost
        ));
    }

    let admission = stats.admission.clone().unwrap_or_default();
    if !hardened && ttft_total != admission.ttft_total.as_nanos() {
        violations.push(format!(
            "first-token times from the responses sum to {ttft_total} ns, the door recorded {} ns",
            admission.ttft_total.as_nanos()
        ));
    }
    if hardened {
        let recovery = &stats.recovery;
        for (name, value) in [
            ("acked_lost", recovery.acked_lost),
            ("double_serves", recovery.double_serves),
            ("session_reorderings", recovery.session_reorderings),
        ] {
            if value != 0 {
                violations.push(format!("{name} = {value}"));
            }
        }
    }

    let result = SimResult {
        tally,
        settled: responses.len() as u64,
        elapsed: stats.elapsed,
        ttft_ms,
        latency_ms,
        deadlines_carried: inputs
            .arrivals
            .iter()
            .filter(|a| a.deadline.is_some())
            .count() as u64,
        deadlines_met: admission.deadlines_met,
    };
    (result, violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank_with_its_sample_count() {
        let mut samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p50 = quantile(&mut samples, 0.50).unwrap();
        let p99 = quantile(&mut samples, 0.99).unwrap();
        assert_eq!(
            p50,
            Quantile {
                value: 50.0,
                samples: 100
            }
        );
        assert_eq!(
            p99,
            Quantile {
                value: 99.0,
                samples: 100
            }
        );
        assert_eq!(quantile(&mut samples, 1.0).unwrap().value, 100.0);
        assert_eq!(quantile(&mut samples, 0.0).unwrap().value, 1.0);
        let mut one = [7.5];
        assert_eq!(
            quantile(&mut one, 0.99),
            Some(Quantile {
                value: 7.5,
                samples: 1
            })
        );
        assert_eq!(quantile(&mut [], 0.5), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn fail_share_counts_every_failure_kind_but_not_shield_refusals() {
        let tally = Tally {
            attempted: 100,
            delivered: 70,
            sanitized: 5,
            shield_refused: 10,
            errored: 2,
            escalated: 1,
            shed: 8,
            admission_refused: 3,
            lost: 1,
        };
        assert_eq!(tally.failed(), 15);
        assert_eq!(tally.fail_share(), 0.15);
        let clean = Tally {
            attempted: 10,
            delivered: 9,
            shield_refused: 1,
            ..Tally::default()
        };
        assert_eq!(clean.fail_share(), 0.0);
        assert_eq!(Tally::default().fail_share(), 0.0);
    }
}
