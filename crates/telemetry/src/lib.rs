//! End-to-end observability for the Guillotine fleet.
//!
//! Three pieces, one facade:
//!
//! - [`Tracer`] — causal span trees on the simulated clock, correlated by
//!   [`TicketId`](guillotine_types::TicketId) across admission, routing,
//!   per-shard serve stages, streaming chunk rounds and recovery actions.
//! - [`MetricsRegistry`] — hierarchically named counters/gauges/histograms,
//!   one per fleet, serialized to a stable `METRICS.json` and a
//!   Prometheus-style text form. It records only what has no typed twin
//!   (stage latencies, batch and settle counts); the front door's exporter
//!   adds every other counter from the fleet's typed statistics.
//! - [`FlightRecorder`] — a bounded ring of recent spans with head
//!   sampling, dumped on tail events (escalation, sever, crash, deadline
//!   miss) with chaos fault ids and WAL offsets for cross-reference.
//!
//! [`Telemetry`] bundles the three behind one enable switch so the serving
//! path pays a single branch when observability is off.

mod recorder;
mod registry;
mod span;

pub use recorder::{FaultCorrelation, FaultNote, FlightRecorder, Incident, IncidentKind};
pub use registry::{MetricsRegistry, METRICS_SCHEMA};
pub use span::{NewSpan, RawSpan, ShardTracer, Span, SpanId, Tracer};

/// Knobs for one telemetry instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch; everything is a no-op when false.
    pub enabled: bool,
    /// Flight-recorder ring capacity in spans.
    pub ring_capacity: usize,
    /// Head-sampling modulus: the ring keeps spans of every k-th ticket
    /// (1 keeps all).
    pub head_sample_every: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            ring_capacity: 256,
            head_sample_every: 1,
        }
    }
}

impl TelemetryConfig {
    /// Everything on, no sampling — the configuration the observability
    /// bench measures overhead with.
    pub fn full() -> Self {
        TelemetryConfig {
            enabled: true,
            ..TelemetryConfig::default()
        }
    }
}

/// The facade the fleet owns: tracer + registry + flight recorder.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    config: TelemetryConfig,
    tracer: Tracer,
    metrics: MetricsRegistry,
    recorder: FlightRecorder,
}

impl Telemetry {
    /// Disabled telemetry: every record call is a cheap no-op.
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// Telemetry with the given knobs.
    pub fn new(config: TelemetryConfig) -> Self {
        let mut recorder = FlightRecorder::new(config.ring_capacity);
        recorder.set_head_sampling(config.head_sample_every);
        Telemetry {
            config,
            tracer: if config.enabled {
                Tracer::enabled()
            } else {
                Tracer::disabled()
            },
            metrics: MetricsRegistry::new(),
            recorder,
        }
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.config.enabled
    }

    /// The active configuration.
    pub fn config(&self) -> TelemetryConfig {
        self.config
    }

    /// Records a span (tracer + flight-recorder ring) and returns its id;
    /// `None` when disabled.
    pub fn span(&mut self, new: NewSpan) -> Option<SpanId> {
        let id = self.tracer.record(new)?;
        // The id we just recorded is the tracer's newest span; the
        // recorder clones it only if sampling admits it to the ring.
        if let Some(span) = self.tracer.spans().last() {
            self.recorder.offer(span);
        }
        Some(id)
    }

    /// The span store, for causal queries.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The fleet's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable registry; no-op-friendly callers should gate on
    /// [`Telemetry::is_enabled`] before doing expensive label formatting.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// The flight recorder, for incident queries and dumps.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Mutable flight recorder, for fault notes and incident triggers.
    pub fn recorder_mut(&mut self) -> &mut FlightRecorder {
        &mut self.recorder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guillotine_types::{SimInstant, TicketId};

    #[test]
    fn disabled_telemetry_is_a_no_op() {
        let mut t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let id = t.span(NewSpan {
            name: "request",
            ..NewSpan::default()
        });
        assert_eq!(id, None);
        assert!(t.tracer().is_empty());
        assert_eq!(t.recorder().ring_len(), 0);
    }

    #[test]
    fn spans_reach_both_tracer_and_ring() {
        let mut t = Telemetry::new(TelemetryConfig::full());
        let root = t.span(NewSpan {
            name: "request",
            ticket: Some(TicketId::new(1)),
            start: SimInstant::from_nanos(0),
            end: SimInstant::from_nanos(10),
            ..NewSpan::default()
        });
        assert!(root.is_some());
        assert_eq!(t.tracer().len(), 1);
        assert_eq!(t.recorder().ring_len(), 1);
    }
}
