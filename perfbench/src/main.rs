//! The repository benchmark. Plays one seeded open-loop workload through
//! the front door for a fixed wall-clock budget, checks every outcome, and
//! prints the end-to-end metrics (`--trace 0`) or the per-layer metrics of
//! a replay traced around each layer's public calls (`--trace 1`). The last
//! line of standard output is one JSON object; `README.md` in this
//! directory defines every workload and metric.
//!
//! ```text
//! perfbench --workload <chat_kv|burst_short|durable_chaos> --seed <n> --seconds <s> --trace <0|1>
//! ```

mod outcome;
mod replay;
mod workloads;

use guillotine::serve::ServeRequest;
use guillotine::{DeploymentBuilder, DEFAULT_CHUNK_TOKENS};
use guillotine_model::forward::{PREFILL_WORDS_PER_TOKEN, WEIGHT_SWEEP_WORDS};
use guillotine_model::{kv::BYTES_PER_TOKEN, BatchedForwardPass};
use outcome::{account, median, quantile, SimResult, StageCosts};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Door, Inputs, Kind};

/// Where results and span dumps are written, relative to the directory the
/// benchmark runs from (the repository root).
const OUT_DIR: &str = "perfbench/out";

/// Door builds timed after each play, in addition to the play's own.
const SETUP_PER_PLAY: usize = 8;

/// Command-line arguments; all four are required.
struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut pairs = args.chunks(2);
    for pair in &mut pairs {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// What the value was taken from (`None` for a single reading).
    pub samples: Option<usize>,
}

impl Metric {
    /// A metric read once.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            samples: None,
        }
    }

    /// A metric summarised from `samples` readings.
    pub fn sampled(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            samples: Some(samples),
        }
    }
}

/// The cost-model stage charges, read off one probe request through a
/// single deployment (not part of any timed section).
fn probe_stage_costs() -> guillotine_types::Result<StageCosts> {
    let mut deployment = DeploymentBuilder::new().build()?;
    let response = deployment
        .serve_batch(vec![ServeRequest::new("Please outline the river lesson.")])?
        .remove(0);
    Ok(StageCosts {
        queue: response.latency.queue,
        input_screen: response.latency.input_screen,
        output_screen: response.latency.output_screen,
    })
}

/// What defines the measured workload, recorded with every result: the
/// inputs and the cost-model constants. A cost-model edit changes this and
/// so shows up as a different workload, not as a gain.
fn fingerprint(inputs: &Inputs, stages: StageCosts) -> Vec<(&'static str, String)> {
    // FNV-1a over every generated input field.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for a in &inputs.arrivals {
        feed(&a.at.as_nanos().to_le_bytes());
        feed(&a.session.raw().to_le_bytes());
        feed(&[a.priority.class(), a.class as u8]);
        feed(&a.deadline.map_or(u64::MAX, |d| d.as_nanos()).to_le_bytes());
        feed(a.prompt.as_bytes());
    }
    if let Some(plan) = &inputs.plan {
        for event in plan.events() {
            feed(&event.at.as_nanos().to_le_bytes());
            feed(event.kind.to_string().as_bytes());
        }
    }
    let forward = BatchedForwardPass::new();
    vec![
        ("workload", inputs.kind.name().to_string()),
        ("seed", inputs.seed.to_string()),
        ("requests", inputs.arrivals.len().to_string()),
        ("prompt_bytes", inputs.prompt_bytes().to_string()),
        (
            "faults",
            inputs.plan.as_ref().map_or(0, |p| p.len()).to_string(),
        ),
        ("inputs_fnv1a", format!("{hash:016x}")),
        ("weight_sweep_words", WEIGHT_SWEEP_WORDS.to_string()),
        (
            "prefill_words_per_token",
            PREFILL_WORDS_PER_TOKEN.to_string(),
        ),
        (
            "launch_latency_ns",
            forward.launch_latency().as_nanos().to_string(),
        ),
        (
            "prefill_latency_ns_per_token",
            forward.prefill_latency(1).as_nanos().to_string(),
        ),
        (
            "decode_latency_ns_per_sequence",
            forward.per_sequence_latency().as_nanos().to_string(),
        ),
        ("stage_queue_ns", stages.queue.as_nanos().to_string()),
        (
            "stage_shield_ns",
            stages.input_screen.as_nanos().to_string(),
        ),
        (
            "stage_output_ns",
            stages.output_screen.as_nanos().to_string(),
        ),
        ("chunk_tokens", DEFAULT_CHUNK_TOKENS.to_string()),
        ("bytes_per_token", BYTES_PER_TOKEN.to_string()),
    ]
}

/// Peak resident set of this process, from the kernel's high-water mark.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// One play of the workload through a freshly built door.
pub struct Play {
    /// Wall time to build the fleet and door.
    pub setup: Duration,
    /// Wall time of the `play` call.
    pub wall: Duration,
    /// The door after the play, for its statistics.
    pub door: Door,
    /// Admission decisions, in arrival order.
    pub decisions: Vec<guillotine::AdmissionDecision>,
    /// Responses, in dispatch order.
    pub responses: Vec<guillotine::serve::ServeResponse>,
}

/// Builds the door and plays the trace once, timing both.
pub fn play_once(
    inputs: &Inputs,
    policy: Box<dyn guillotine::BatchPolicy>,
) -> guillotine_types::Result<Play> {
    let trace = inputs.timed();
    let start = Instant::now();
    let mut door = Door::build(inputs, policy)?;
    let setup = start.elapsed();
    let start = Instant::now();
    let (decisions, responses) = door.play(std::hint::black_box(trace))?;
    let wall = start.elapsed();
    Ok(Play {
        setup,
        wall,
        door,
        decisions,
        responses,
    })
}

/// A latency percentile in ms with its sample count (`NaN` without
/// samples).
fn percentile(name: &'static str, samples: &mut [f64], q: f64) -> Metric {
    match quantile(samples, q) {
        Some(q) => Metric::sampled(name, q.value, "ms", q.samples),
        None => Metric::sampled(name, f64::NAN, "ms", 0),
    }
}

/// The end-to-end metrics, from the plays' wall times and the first play's
/// simulated results (every play's are identical, or the run fails).
fn end_to_end(
    requests: usize,
    setups: &mut [f64],
    rates: &mut [f64],
    peak_rss: f64,
    sim: &SimResult,
) -> Vec<Metric> {
    let mut ttft = sim.ttft_ms.clone();
    let mut latency = sim.latency_ms.clone();
    let mut metrics = vec![
        Metric::sampled("setup_s", median(setups), "s", setups.len()),
        Metric::sampled("host_req_per_s", median(rates), "req/s", rates.len()),
        Metric::new("peak_rss_mib", peak_rss, "MiB"),
        Metric::sampled(
            "sim_req_per_s",
            sim.req_per_s(),
            "req/s",
            sim.settled as usize,
        ),
    ];
    metrics.extend([
        percentile("sim_ttft_ms_p50", &mut ttft, 0.50),
        percentile("sim_ttft_ms_p99", &mut ttft, 0.99),
        percentile("sim_latency_ms_p50", &mut latency, 0.50),
        percentile("sim_latency_ms_p99", &mut latency, 0.99),
    ]);
    metrics.push(Metric::sampled(
        "deadline_met_share",
        sim.deadline_met_share(),
        "ratio",
        sim.deadlines_carried as usize,
    ));
    metrics.push(Metric::sampled(
        "ok_share",
        1.0 - sim.tally.fail_share(),
        "ratio",
        requests,
    ));
    metrics
}

/// The metrics as one JSON object of `{"value", "unit"}` entries, with
/// `"samples"` when asked. A value that is not finite becomes `null`.
fn metrics_json(metrics: &[Metric], samples: bool) -> String {
    let mut json = String::from("{");
    for (i, metric) in metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let value = if metric.value.is_finite() {
            format!("{:?}", metric.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"",
            metric.name, metric.unit
        );
        if samples {
            let n = metric.samples.map_or("null".to_string(), |n| n.to_string());
            let _ = write!(json, ", \"samples\": {n}");
        }
        json.push('}');
    }
    json.push('}');
    json
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics, false)
    )
}

/// The human-readable report: fingerprint, then every metric with its unit
/// and sample count.
fn report(fingerprint: &[(&'static str, String)], metrics: &[Metric]) -> String {
    let mut out = String::new();
    for (key, value) in fingerprint {
        let _ = writeln!(out, "# {key} = {value}");
    }
    for metric in metrics {
        let samples = metric.samples.map_or(String::from("-"), |n| n.to_string());
        let _ = writeln!(
            out,
            "{:<34} {:>18.6} {:<8} n={samples}",
            metric.name, metric.value, metric.unit
        );
    }
    out
}

/// Writes the fingerprint and metrics (with sample counts) next to the
/// benchmark, so each result keeps the definition of what it measured.
fn record(args: &Args, fingerprint: &[(&'static str, String)], metrics: &[Metric], correct: bool) {
    let fields: Vec<String> = fingerprint
        .iter()
        .map(|(key, value)| format!("\"{key}\": \"{value}\""))
        .collect();
    let json = format!(
        "{{\"fingerprint\": {{{}}}, \"correct\": {correct}, \"metrics\": {}}}\n",
        fields.join(", "),
        metrics_json(metrics, true)
    );
    let dir = std::path::Path::new(OUT_DIR);
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(err) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
        eprintln!("perfbench: could not write {}: {err}", path.display());
    }
}

fn run(args: &Args) -> guillotine_types::Result<bool> {
    let inputs = Inputs::generate(args.kind, args.seed);
    let stages = probe_stage_costs()?;
    let fingerprint = fingerprint(&inputs, stages);
    let budget = Duration::from_secs(args.seconds);
    let requests = inputs.arrivals.len();
    let started = Instant::now();
    let mut violations = Vec::new();
    let mut first: Option<SimResult> = None;
    let mut plays = 0u64;
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut layers = replay::LayerRuns::default();
    let mut peak_rss = f64::NAN;
    while plays == 0 || started.elapsed() < budget {
        let policy: Box<dyn guillotine::BatchPolicy> = if args.trace {
            Box::new(replay::RecordingPolicy::new(
                args.kind.policy(),
                layers.dispatches(),
            ))
        } else {
            Box::new(args.kind.policy())
        };
        let play = play_once(&inputs, policy)?;
        if plays == 0 {
            // The first play's peak: later plays reuse freed memory unevenly.
            peak_rss = peak_rss_mib();
        }
        setups.push(play.setup.as_secs_f64());
        rates.push(requests as f64 / play.wall.as_secs_f64());
        let stats = play.door.front().stats();
        let (sim, found) = account(&inputs, &play.decisions, &play.responses, &stats, stages);
        match &first {
            None => violations.extend(found),
            Some(first) if *first != sim => violations.push(format!(
                "play {plays} differs from play 0 on the simulated clock"
            )),
            Some(_) => {}
        }
        if args.trace {
            layers.measure(&inputs, &play);
        }
        drop(play);
        if !args.trace {
            // Set-up takes milliseconds: time it several more times after
            // every play, spread over the run, so its median is steady.
            for _ in 0..SETUP_PER_PLAY {
                let start = Instant::now();
                let door = Door::build(&inputs, Box::new(args.kind.policy()))?;
                setups.push(start.elapsed().as_secs_f64());
                drop(std::hint::black_box(door));
            }
        }
        first.get_or_insert(sim);
        plays += 1;
    }
    let sim = first.expect("at least one play ran");
    let metrics = if args.trace {
        layers.metrics()
    } else {
        end_to_end(requests, &mut setups, &mut rates, peak_rss, &sim)
    };
    let correct = violations.is_empty();
    for violation in violations.iter().take(20) {
        eprintln!("perfbench: VIOLATION {violation}");
    }
    print!("{}", report(&fingerprint, &metrics));
    eprintln!(
        "perfbench: {plays} plays of {requests} requests; fail_share {:.6} (1 - ok_share); fates {:?}",
        sim.tally.fail_share(),
        sim.tally
    );
    record(args, &fingerprint, &metrics, correct);
    if args.trace {
        let path = format!("{OUT_DIR}/spans-{}-seed{}.tsv", args.kind.name(), args.seed);
        if let Err(err) = layers.write_spans(std::path::Path::new(&path)) {
            eprintln!("perfbench: could not write {path}: {err}");
        }
    }
    println!(
        "{}",
        result_json(
            correct,
            plays * requests as u64,
            violations.len() as u64,
            &metrics
        )
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            eprintln!(
                "usage: perfbench --workload <chat_kv|burst_short|durable_chaos> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(err) => {
            eprintln!("perfbench: the program returned an error: {err}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plays the first arrivals of a workload's trace and accounts them.
    fn short_play(
        kind: Kind,
        seed: u64,
        stages: StageCosts,
    ) -> (Vec<(&'static str, String)>, SimResult) {
        let mut inputs = Inputs::generate(kind, seed);
        inputs.arrivals.truncate(300);
        let play = play_once(&inputs, Box::new(kind.policy())).expect("the play runs");
        let stats = play.door.front().stats();
        let (sim, violations) = account(&inputs, &play.decisions, &play.responses, &stats, stages);
        assert!(violations.is_empty(), "{}: {violations:?}", kind.name());
        (fingerprint(&inputs, stages), sim)
    }

    #[test]
    fn same_seed_is_bit_identical_and_another_seed_is_not() {
        let stages = probe_stage_costs().expect("the probe serves");
        for kind in Kind::ALL {
            let (print_a, sim_a) = short_play(kind, 7, stages);
            let (print_b, sim_b) = short_play(kind, 7, stages);
            let (print_c, sim_c) = short_play(kind, 8, stages);
            assert_eq!(print_a, print_b, "{}", kind.name());
            assert_eq!(
                sim_a,
                sim_b,
                "{}: same seed, different results",
                kind.name()
            );
            assert_ne!(print_a, print_c, "{}", kind.name());
            assert_ne!(sim_a, sim_c, "{}: the seed changed nothing", kind.name());
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let metrics = [
            Metric::new("setup_s", 0.5, "s"),
            Metric::new("x", f64::NAN, "ms"),
        ];
        assert_eq!(
            result_json(true, 3, 0, &metrics),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.5, \"unit\": \"s\"}, \"x\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
    }
}
