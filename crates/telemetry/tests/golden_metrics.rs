//! Golden-schema test pinning the `METRICS.json` byte format.
//!
//! CI archives `METRICS_e21.json` and downstream tooling diffs metrics
//! across runs, so a silent field rename or formatting change would break
//! trajectory comparisons. The golden asserts the rendered bytes exactly;
//! changing the schema must be a deliberate act that updates this test.

use guillotine_telemetry::MetricsRegistry;

fn sample_registry() -> MetricsRegistry {
    let mut r = MetricsRegistry::new();
    r.incr("admission.enqueued");
    r.add("admission.enqueued", 2);
    r.gauge("queue.depth").set(5);
    r.gauge("queue.depth").set(2);
    r.observe("serve.prefill", 100);
    r.observe("serve.prefill", 200);
    r
}

#[test]
fn metrics_json_bytes_are_pinned() {
    let golden = concat!(
        "{\n",
        "  \"schema\": \"guillotine-metrics-v1\",\n",
        "  \"counters\": {\n",
        "    \"admission.enqueued\": 3\n",
        "  },\n",
        "  \"gauges\": {\n",
        "    \"queue.depth\": {\"current\": 2, \"high_water\": 5}\n",
        "  },\n",
        "  \"histograms\": {\n",
        "    \"serve.prefill\": {\"count\": 2, \"mean\": 150, ",
        "\"p50\": 95, \"p95\": 191, \"p99\": 191, \"buckets\": ",
        "{\"6\": 1, \"7\": 1}}\n",
        "  }\n",
        "}\n",
    );
    assert_eq!(sample_registry().to_json(), golden);
}

#[test]
fn empty_registry_json_bytes_are_pinned() {
    let golden = concat!(
        "{\n",
        "  \"schema\": \"guillotine-metrics-v1\",\n",
        "  \"counters\": {},\n",
        "  \"gauges\": {},\n",
        "  \"histograms\": {}\n",
        "}\n",
    );
    assert_eq!(MetricsRegistry::new().to_json(), golden);
}

#[test]
fn schema_field_names_are_stable() {
    let json = sample_registry().to_json();
    for key in [
        "\"schema\": ",
        "\"counters\": ",
        "\"gauges\": ",
        "\"histograms\": ",
        "\"current\": ",
        "\"high_water\": ",
        "\"count\": ",
        "\"mean\": ",
        "\"p50\": ",
        "\"p95\": ",
        "\"p99\": ",
        "\"buckets\": ",
    ] {
        assert!(json.contains(key), "missing pinned key {key} in {json}");
    }
}

#[test]
fn prometheus_exposition_is_pinned() {
    let golden = concat!(
        "# TYPE admission_enqueued counter\n",
        "admission_enqueued 3\n",
        "# TYPE queue_depth gauge\n",
        "queue_depth 2\n",
        "queue_depth_high_water 5\n",
        "# TYPE serve_prefill summary\n",
        "serve_prefill{quantile=\"0.5\"} 95\n",
        "serve_prefill{quantile=\"0.95\"} 191\n",
        "serve_prefill{quantile=\"0.99\"} 191\n",
        "serve_prefill_sum 300\n",
        "serve_prefill_count 2\n",
    );
    assert_eq!(sample_registry().to_prometheus(), golden);
}
