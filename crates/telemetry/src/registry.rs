//! Hierarchically named metrics, one registry per fleet.
//!
//! Names are dot-separated paths (`serve.decode_ns`, `admission.shed`);
//! the registry stores them in sorted maps so the serialized forms —
//! `METRICS.json` and the Prometheus-style text exposition — are stable
//! byte-for-byte across runs, which is what lets a golden test pin the
//! schema and CI diff artifacts between commits.

use guillotine_types::encode::{json_escape, json_number};
use guillotine_types::{Counter, Gauge, Histogram};
use std::collections::BTreeMap;

/// Version tag embedded in every `METRICS.json`; bump on schema breaks.
pub const METRICS_SCHEMA: &str = "guillotine-metrics-v1";

/// A named collection of counters, gauges and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&mut self, name: &str) -> &mut Counter {
        self.counters.entry(name.to_string()).or_default()
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&mut self, name: &str) -> &mut Gauge {
        self.gauges.entry(name.to_string()).or_default()
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&mut self, name: &str) -> &mut Histogram {
        self.histograms.entry(name.to_string()).or_default()
    }

    /// Shorthand: bumps the counter named `name` by one.
    ///
    /// Steady-state records hit the map without allocating; the
    /// name-to-`String` copy happens only on a metric's first use.
    pub fn incr(&mut self, name: &str) {
        if let Some(c) = self.counters.get_mut(name) {
            c.incr();
            return;
        }
        self.counter(name).incr();
    }

    /// Shorthand: adds `n` to the counter named `name`.
    pub fn add(&mut self, name: &str, n: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            c.add(n);
            return;
        }
        self.counter(name).add(n);
    }

    /// Shorthand: records `value` into the histogram named `name`.
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(value);
            return;
        }
        self.histogram(name).record(value);
    }

    /// The current value of a counter, zero if absent.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .get(name)
            .map(Counter::get)
            .unwrap_or_default()
    }

    /// A read view of a histogram, if it exists.
    pub fn histogram_view(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Sorted histogram names.
    pub fn histogram_names(&self) -> Vec<&str> {
        self.histograms.keys().map(String::as_str).collect()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Serializes the registry as stable, pretty-printed JSON — the
    /// `METRICS.json` artifact. Keys appear in sorted order; histogram
    /// buckets are sparse (`"idx": count` for non-empty buckets only).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{METRICS_SCHEMA}\",\n"));
        out.push_str("  \"counters\": {");
        let mut first = true;
        for (name, c) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{}\": {}", json_escape(name), c.get()));
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"gauges\": {");
        first = true;
        for (name, g) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    \"{}\": {{\"current\": {}, \"high_water\": {}}}",
                json_escape(name),
                g.current(),
                g.high_water(),
            ));
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"histograms\": {");
        first = true;
        for (name, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": {{",
                json_escape(name),
                h.count(),
                json_number(h.mean()),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
            ));
            let mut first_bucket = true;
            for (i, &count) in h.buckets().iter().enumerate() {
                if count == 0 {
                    continue;
                }
                if !first_bucket {
                    out.push_str(", ");
                }
                first_bucket = false;
                out.push_str(&format!("\"{i}\": {count}"));
            }
            out.push_str("}}");
        }
        out.push_str(if first { "}\n" } else { "\n  }\n" });
        out.push_str("}\n");
        out
    }

    /// Serializes the registry in Prometheus text exposition style: dots in
    /// names become underscores, histograms expose `_count`, `_sum` and
    /// quantile gauges (the simulation has no live scrape endpoint, so
    /// summaries stand in for native histogram types).
    pub fn to_prometheus(&self) -> String {
        let flat = |name: &str| name.replace('.', "_");
        let mut out = String::new();
        for (name, c) in &self.counters {
            let name = flat(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.get()));
        }
        for (name, g) in &self.gauges {
            let name = flat(name);
            out.push_str(&format!(
                "# TYPE {name} gauge\n{name} {}\n{name}_high_water {}\n",
                g.current(),
                g.high_water(),
            ));
        }
        for (name, h) in &self.histograms {
            let name = flat(name);
            out.push_str(&format!("# TYPE {name} summary\n"));
            for (q, label) in [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                out.push_str(&format!(
                    "{name}{{quantile=\"{label}\"}} {}\n",
                    h.quantile(q)
                ));
            }
            out.push_str(&format!("{name}_sum {}\n", h.sum()));
            out.push_str(&format!("{name}_count {}\n", h.count()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_metrics_are_created_on_first_use() {
        let mut r = MetricsRegistry::new();
        assert!(r.is_empty());
        r.incr("admission.shed");
        r.add("admission.shed", 2);
        r.gauge("queue.depth").set(5);
        r.observe("serve.decode_ns", 1_000);
        assert_eq!(r.counter_value("admission.shed"), 3);
        assert_eq!(r.counter_value("never.touched"), 0);
        assert_eq!(
            r.histogram_view("serve.decode_ns").map(Histogram::count),
            Some(1)
        );
        assert!(!r.is_empty());
    }

    #[test]
    fn json_and_prometheus_forms_are_stable_and_sorted() {
        let mut r = MetricsRegistry::new();
        r.add("b.second", 1);
        r.add("a.first", 1);
        let json = r.to_json();
        let a = json.find("a.first");
        let b = json.find("b.second");
        assert!(a < b, "sorted keys: {json}");
        assert!(json.contains(METRICS_SCHEMA));
        let prom = r.to_prometheus();
        assert!(prom.contains("a_first 1"));
        assert!(prom.contains("# TYPE b_second counter"));
    }

    #[test]
    fn empty_registry_serializes_to_empty_sections() {
        let json = MetricsRegistry::new().to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"gauges\": {}"));
        assert!(json.contains("\"histograms\": {}"));
    }
}
