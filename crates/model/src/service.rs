//! The inference-service simulator.
//!
//! Mirrors the model-service shape described in §2 of the paper: a request
//! queue, one or more replicas, a key/value cache for previously generated
//! tokens, per-token generation latency (the GPU-heavy part) and optional
//! retrieval-augmented-generation lookups.

use crate::kv::{KvCache, KvCacheConfig};
use crate::workload::InferenceRequest;
use guillotine_types::{DetRng, SessionId, SimDuration, SimInstant};
use std::collections::VecDeque;

/// Service sizing and latency parameters.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Number of model replicas serving requests in parallel.
    pub replicas: usize,
    /// Per-token generation latency on a replica.
    pub per_token_latency: SimDuration,
    /// Latency of one RAG lookup.
    pub rag_latency: SimDuration,
    /// KV-cache capacity in entries (prompt prefixes).
    pub kv_cache_entries: usize,
    /// Latency saved per request on a KV-cache hit.
    pub kv_hit_savings: SimDuration,
    /// RNG seed for tie-breaking.
    pub seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            replicas: 4,
            per_token_latency: SimDuration::from_micros(200),
            rag_latency: SimDuration::from_millis(2),
            kv_cache_entries: 1024,
            kv_hit_savings: SimDuration::from_millis(1),
            seed: 7,
        }
    }
}

/// Aggregate statistics for a service run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Requests completed.
    pub completed: u64,
    /// Tokens generated across all requests.
    pub tokens_generated: u64,
    /// KV-cache hits.
    pub kv_hits: u64,
    /// KV-cache misses.
    pub kv_misses: u64,
    /// RAG lookups performed.
    pub rag_lookups: u64,
    /// Sum of request latencies in nanoseconds (for mean computation).
    pub total_latency_nanos: u128,
    /// Maximum request latency in nanoseconds.
    pub max_latency_nanos: u64,
}

impl ServiceStats {
    /// Mean request latency.
    pub fn mean_latency(&self) -> SimDuration {
        if self.completed == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos((self.total_latency_nanos / self.completed as u128) as u64)
        }
    }

    /// KV-cache hit rate.
    pub fn kv_hit_rate(&self) -> f64 {
        let total = self.kv_hits + self.kv_misses;
        if total == 0 {
            0.0
        } else {
            self.kv_hits as f64 / total as f64
        }
    }
}

/// One completed inference.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedInference {
    /// The request that was served.
    pub request: InferenceRequest,
    /// When generation finished.
    pub completed_at: SimInstant,
    /// End-to-end latency (queueing + compute).
    pub latency: SimDuration,
    /// Whether the KV cache was hit.
    pub kv_hit: bool,
}

#[derive(Debug, Clone)]
struct Replica {
    busy_until: SimInstant,
}

/// The inference-service simulator.
#[derive(Debug, Clone)]
pub struct InferenceService {
    config: ServiceConfig,
    queue: VecDeque<InferenceRequest>,
    replicas: Vec<Replica>,
    kv: KvCache,
    stats: ServiceStats,
    rng: DetRng,
}

impl InferenceService {
    /// Creates a service.
    pub fn new(config: ServiceConfig) -> Self {
        InferenceService {
            queue: VecDeque::new(),
            replicas: (0..config.replicas.max(1))
                .map(|_| Replica {
                    busy_until: SimInstant::ZERO,
                })
                .collect(),
            // The service's private prompt cache used to be its own
            // HashMap + insertion-order queue (with an LRU recency bug: a
            // hit never moved the entry, so hot prompts were evicted in
            // insertion order). It now rides the shared KV tier
            // implementation, whose LRU is real. The entry budget maps to
            // a token budget at one default block per entry.
            kv: KvCache::new(KvCacheConfig::with_capacity(
                config.kv_cache_entries as u64 * crate::kv::BLOCK_TOKENS as u64,
            )),
            stats: ServiceStats::default(),
            rng: DetRng::seed(config.seed),
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// Current statistics.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// Number of requests waiting for a replica.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues a request.
    pub fn submit(&mut self, request: InferenceRequest) {
        self.queue.push_back(request);
    }

    /// Enqueues a whole batch in order; the batched front door
    /// (`GuillotineDeployment::serve_batch`) admits requests this way so the
    /// replica scheduler sees them as one arrival wave.
    pub fn submit_batch(&mut self, requests: impl IntoIterator<Item = InferenceRequest>) {
        self.queue.extend(requests);
    }

    /// One KV lookup through the shared tier implementation: the service's
    /// requests carry no session, so all traffic shares one anonymous
    /// session, and a "hit" means the whole prompt prefix was cached (the
    /// full-savings case the `kv_hit_savings` latency discount models).
    fn kv_lookup(&mut self, prompt: &str) -> bool {
        self.kv
            .lookup_insert(SessionId::new(0), 0, prompt)
            .full_hit()
    }

    /// Processes queued requests, assigning them to replicas as the replicas
    /// free up, and returns the inferences that complete by `now`.
    pub fn run_until(&mut self, now: SimInstant) -> Vec<CompletedInference> {
        let mut completed = Vec::new();
        while let Some(request) = self.queue.front().cloned() {
            // Pick the replica that frees up first.
            let (idx, free_at) = self
                .replicas
                .iter()
                .enumerate()
                .map(|(i, r)| (i, r.busy_until))
                .min_by_key(|(_, t)| *t)
                .expect("at least one replica");
            let start = free_at.max(request.arrival);
            if start > now {
                break;
            }
            self.queue.pop_front();
            let kv_hit = self.kv_lookup(&request.prompt);
            if kv_hit {
                self.stats.kv_hits += 1;
            } else {
                self.stats.kv_misses += 1;
            }
            let mut compute = self
                .config
                .per_token_latency
                .saturating_mul(request.output_tokens as u64);
            if request.needs_rag {
                compute = compute.saturating_add(self.config.rag_latency);
                self.stats.rag_lookups += 1;
            }
            if kv_hit {
                compute = compute - self.config.kv_hit_savings.min(compute);
            }
            // Small deterministic jitter models batching effects.
            let jitter = SimDuration::from_micros(self.rng.below(50));
            let finish = start + compute + jitter;
            self.replicas[idx].busy_until = finish;
            let latency = finish.duration_since(request.arrival);
            self.stats.completed += 1;
            self.stats.tokens_generated += request.output_tokens as u64;
            self.stats.total_latency_nanos += latency.as_nanos() as u128;
            self.stats.max_latency_nanos = self.stats.max_latency_nanos.max(latency.as_nanos());
            completed.push(CompletedInference {
                request,
                completed_at: finish,
                latency,
                kv_hit,
            });
        }
        completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{WorkloadConfig, WorkloadGenerator};

    #[test]
    fn serves_a_batch_and_accumulates_stats() {
        let mut gen = WorkloadGenerator::new(WorkloadConfig::default());
        let mut svc = InferenceService::new(ServiceConfig::default());
        for r in gen.batch(100) {
            svc.submit(r);
        }
        let done = svc.run_until(SimInstant::from_nanos(u64::MAX / 2));
        assert_eq!(done.len(), 100);
        let stats = svc.stats();
        assert_eq!(stats.completed, 100);
        assert!(stats.tokens_generated > 0);
        assert!(stats.mean_latency() > SimDuration::ZERO);
    }

    #[test]
    fn repeated_prompts_hit_the_kv_cache() {
        let mut svc = InferenceService::new(ServiceConfig::default());
        let mut gen = WorkloadGenerator::new(WorkloadConfig {
            adversarial_fraction: 0.0,
            ..WorkloadConfig::default()
        });
        // The benign corpus has 10 prompts; 200 requests must repeat them.
        for r in gen.batch(200) {
            svc.submit(r);
        }
        svc.run_until(SimInstant::from_nanos(u64::MAX / 2));
        assert!(svc.stats().kv_hit_rate() > 0.8);
    }

    #[test]
    fn hot_prompts_survive_eviction_pressure() {
        // Two-entry (32-token) cache and three one-block (16-token, 64-byte)
        // prompts, so the third distinct prompt genuinely forces an
        // eviction. The hot prompt A is touched between the B and C
        // insertions, so the LRU victim for C must be B — under the old
        // insertion-order eviction, A was evicted while hot and the final A
        // lookup missed.
        let mut svc = InferenceService::new(ServiceConfig {
            kv_cache_entries: 2,
            ..ServiceConfig::default()
        });
        let mut gen = WorkloadGenerator::new(WorkloadConfig {
            adversarial_fraction: 0.0,
            ..WorkloadConfig::default()
        });
        let template = gen.batch(1).pop().unwrap();
        let (a, b, c) = ("a".repeat(64), "b".repeat(64), "c".repeat(64));
        let prompts = [&a, &b, &a, &c, &a];
        for (i, prompt) in prompts.iter().enumerate() {
            svc.submit(InferenceRequest {
                prompt: prompt.to_string(),
                arrival: SimInstant::from_nanos(i as u64),
                ..template.clone()
            });
        }
        svc.run_until(SimInstant::from_nanos(u64::MAX / 2));
        assert_eq!(svc.stats().kv_hits, 2, "both repeat touches of A must hit");
        assert_eq!(
            svc.stats().kv_misses,
            3,
            "A, B and C each cold-miss exactly once: C's insertion evicted B, not hot A"
        );
    }

    #[test]
    fn more_replicas_reduce_latency_under_load() {
        let mut requests = WorkloadGenerator::new(WorkloadConfig {
            arrival_rate: 5000.0,
            adversarial_fraction: 0.0,
            ..WorkloadConfig::default()
        })
        .batch(500);
        let run = |replicas: usize, reqs: &[InferenceRequest]| {
            let mut svc = InferenceService::new(ServiceConfig {
                replicas,
                ..ServiceConfig::default()
            });
            for r in reqs {
                svc.submit(r.clone());
            }
            svc.run_until(SimInstant::from_nanos(u64::MAX / 2));
            svc.stats().mean_latency()
        };
        let slow = run(1, &requests);
        let fast = run(8, &requests);
        requests.clear();
        assert!(
            fast < slow,
            "8 replicas {fast} should beat 1 replica {slow}"
        );
    }

    #[test]
    fn submit_batch_matches_sequential_submission() {
        let mut gen = WorkloadGenerator::new(WorkloadConfig::default());
        let requests = gen.batch(50);
        let mut one = InferenceService::new(ServiceConfig::default());
        for r in &requests {
            one.submit(r.clone());
        }
        let mut batched = InferenceService::new(ServiceConfig::default());
        batched.submit_batch(requests);
        assert_eq!(one.queue_depth(), batched.queue_depth());
        let a = one.run_until(SimInstant::from_nanos(u64::MAX / 2));
        let b = batched.run_until(SimInstant::from_nanos(u64::MAX / 2));
        assert_eq!(a, b);
    }

    #[test]
    fn queue_depth_reflects_backlog() {
        let mut svc = InferenceService::new(ServiceConfig::default());
        let mut gen = WorkloadGenerator::new(WorkloadConfig::default());
        for r in gen.batch(10) {
            svc.submit(r);
        }
        assert_eq!(svc.queue_depth(), 10);
        svc.run_until(SimInstant::from_nanos(u64::MAX / 2));
        assert_eq!(svc.queue_depth(), 0);
    }
}
