//! The hypervisor-core interrupt controller with request throttling.
//!
//! The paper (§3.2) requires that "to stop a model core from live-locking a
//! hypervisor core with a flood of spurious interrupts, the LAPIC chip of a
//! hypervisor core throttles incoming requests, akin to the interrupt filter
//! for an iPhone secure enclave processor". The controller here implements a
//! token-bucket throttle per source core, plus a bounded pending queue.

use guillotine_types::{CoreId, SimDuration, SimInstant};
use std::collections::VecDeque;

/// Throttle parameters for incoming inter-core interrupts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThrottleConfig {
    /// Sustained accepted-interrupt rate per source core (interrupts/second).
    pub rate_per_sec: f64,
    /// Maximum burst size (token bucket depth).
    pub burst: u32,
    /// Maximum number of accepted-but-unserviced interrupts held in the
    /// pending queue.
    pub queue_depth: usize,
}

impl Default for ThrottleConfig {
    fn default() -> Self {
        ThrottleConfig {
            rate_per_sec: 100_000.0,
            burst: 64,
            queue_depth: 1024,
        }
    }
}

impl ThrottleConfig {
    /// A configuration with throttling effectively disabled (used by the
    /// baseline machine and by experiment E4's "no throttle" arm).
    pub fn unthrottled() -> Self {
        ThrottleConfig {
            rate_per_sec: f64::INFINITY,
            burst: u32::MAX,
            queue_depth: usize::MAX / 2,
        }
    }
}

/// A pending interrupt delivered to a hypervisor core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingInterrupt {
    /// The model core that raised the interrupt.
    pub source: CoreId,
    /// The immediate argument carried by the `hvcall`.
    pub arg: u16,
    /// When the interrupt was accepted.
    pub at: SimInstant,
}

#[derive(Debug, Clone)]
struct Bucket {
    source: CoreId,
    tokens: f64,
    last_refill: SimInstant,
}

/// Interrupt-delivery statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterruptStats {
    /// Interrupts accepted into the pending queue.
    pub accepted: u64,
    /// Interrupts rejected by the token-bucket throttle.
    pub throttled: u64,
    /// Interrupts rejected because the pending queue was full.
    pub dropped_queue_full: u64,
    /// Interrupts serviced (popped) by the hypervisor core.
    pub serviced: u64,
}

/// The LAPIC-like interrupt controller attached to one hypervisor core.
#[derive(Debug, Clone)]
pub struct InterruptController {
    config: ThrottleConfig,
    buckets: Vec<Bucket>,
    pending: VecDeque<PendingInterrupt>,
    stats: InterruptStats,
}

impl InterruptController {
    /// Creates a controller with the given throttle configuration.
    pub fn new(config: ThrottleConfig) -> Self {
        InterruptController {
            config,
            buckets: Vec::new(),
            pending: VecDeque::new(),
            stats: InterruptStats::default(),
        }
    }

    /// The active throttle configuration.
    pub fn config(&self) -> ThrottleConfig {
        self.config
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> InterruptStats {
        self.stats
    }

    /// Number of accepted interrupts waiting to be serviced.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    fn bucket_mut(&mut self, source: CoreId, now: SimInstant) -> &mut Bucket {
        if let Some(i) = self.buckets.iter().position(|b| b.source == source) {
            &mut self.buckets[i]
        } else {
            self.buckets.push(Bucket {
                source,
                tokens: self.config.burst as f64,
                last_refill: now,
            });
            self.buckets.last_mut().expect("just pushed")
        }
    }

    /// Offers an interrupt from `source` at time `now`.
    ///
    /// Returns `true` if the interrupt was accepted into the pending queue,
    /// `false` if it was throttled or dropped. Either way the model core is
    /// *not* notified of the difference — from the model's perspective the
    /// request simply may take longer, which avoids giving the model a
    /// feedback signal about hypervisor load.
    pub fn offer(&mut self, source: CoreId, arg: u16, now: SimInstant) -> bool {
        let rate = self.config.rate_per_sec;
        let burst = self.config.burst as f64;
        let bucket = self.bucket_mut(source, now);
        if rate.is_finite() {
            let elapsed = now.duration_since(bucket.last_refill).as_secs_f64();
            bucket.tokens = (bucket.tokens + elapsed * rate).min(burst);
            bucket.last_refill = now;
            if bucket.tokens < 1.0 {
                self.stats.throttled += 1;
                return false;
            }
            bucket.tokens -= 1.0;
        }
        if self.pending.len() >= self.config.queue_depth {
            self.stats.dropped_queue_full += 1;
            return false;
        }
        self.pending.push_back(PendingInterrupt {
            source,
            arg,
            at: now,
        });
        self.stats.accepted += 1;
        true
    }

    /// Pops the next pending interrupt, if any.
    pub fn service(&mut self) -> Option<PendingInterrupt> {
        let p = self.pending.pop_front();
        if p.is_some() {
            self.stats.serviced += 1;
        }
        p
    }

    /// Drops all pending interrupts (used when a core is powered down).
    pub fn clear(&mut self) {
        self.pending.clear();
    }

    /// Helper: the average queueing delay a serviced interrupt would see if
    /// serviced at `now`, in simulated nanoseconds.
    pub fn oldest_pending_age(&self, now: SimInstant) -> Option<SimDuration> {
        self.pending.front().map(|p| now.duration_since(p.at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimInstant {
        SimInstant::from_nanos(ns)
    }

    #[test]
    fn accepts_within_burst_then_throttles() {
        let mut ic = InterruptController::new(ThrottleConfig {
            rate_per_sec: 1000.0,
            burst: 4,
            queue_depth: 100,
        });
        let src = CoreId::new(1);
        let mut accepted = 0;
        for _ in 0..10 {
            if ic.offer(src, 0, t(0)) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 4);
        assert_eq!(ic.stats().throttled, 6);
    }

    #[test]
    fn tokens_refill_over_time() {
        let mut ic = InterruptController::new(ThrottleConfig {
            rate_per_sec: 1000.0,
            burst: 1,
            queue_depth: 100,
        });
        let src = CoreId::new(1);
        assert!(ic.offer(src, 0, t(0)));
        assert!(!ic.offer(src, 0, t(0)));
        // 1 ms later one token has refilled at 1000/s.
        assert!(ic.offer(src, 0, t(1_000_000)));
    }

    #[test]
    fn queue_depth_is_bounded() {
        let mut ic = InterruptController::new(ThrottleConfig {
            rate_per_sec: f64::INFINITY,
            burst: u32::MAX,
            queue_depth: 2,
        });
        let src = CoreId::new(0);
        assert!(ic.offer(src, 1, t(0)));
        assert!(ic.offer(src, 2, t(0)));
        assert!(!ic.offer(src, 3, t(0)));
        assert_eq!(ic.stats().dropped_queue_full, 1);
        assert_eq!(ic.pending_len(), 2);
    }

    #[test]
    fn per_source_buckets_are_independent() {
        let mut ic = InterruptController::new(ThrottleConfig {
            rate_per_sec: 10.0,
            burst: 1,
            queue_depth: 100,
        });
        assert!(ic.offer(CoreId::new(1), 0, t(0)));
        assert!(!ic.offer(CoreId::new(1), 0, t(0)));
        // A different source still has its own burst budget.
        assert!(ic.offer(CoreId::new(2), 0, t(0)));
    }

    #[test]
    fn service_pops_in_fifo_order() {
        let mut ic = InterruptController::new(ThrottleConfig::default());
        ic.offer(CoreId::new(1), 10, t(0));
        ic.offer(CoreId::new(1), 20, t(5));
        assert_eq!(ic.service().unwrap().arg, 10);
        assert_eq!(ic.service().unwrap().arg, 20);
        assert!(ic.service().is_none());
        assert_eq!(ic.stats().serviced, 2);
    }

    #[test]
    fn unthrottled_config_accepts_floods() {
        let mut ic = InterruptController::new(ThrottleConfig::unthrottled());
        let src = CoreId::new(3);
        for i in 0..10_000 {
            assert!(ic.offer(src, (i % 100) as u16, t(i)));
        }
        assert_eq!(ic.stats().accepted, 10_000);
    }

    #[test]
    fn oldest_pending_age_tracks_head() {
        let mut ic = InterruptController::new(ThrottleConfig::default());
        assert!(ic.oldest_pending_age(t(100)).is_none());
        ic.offer(CoreId::new(1), 0, t(100));
        assert_eq!(
            ic.oldest_pending_age(t(600)).unwrap(),
            SimDuration::from_nanos(500)
        );
    }
}
