//! The traced run: per-layer costs from a replay of the workload's layer
//! calls, timed with spans recorded only in this file.
//!
//! After each play through the product door, the replay feeds the same
//! arrivals through each layer's public functions, in the order the door's
//! serial path calls them: `AdmissionController::submit/form` (batches come
//! from the workload's own `BatchPolicy`, formed at the instants the
//! product's former ran, which the [`RecordingPolicy`] logged), then per
//! shard sub-batch `InputShield::scan`, `KvTier::lookup_insert`,
//! `BatchedForwardPass::run_prefill_decode`, `StreamingSanitizer::push` per
//! chunk and `finish`, `OutputSanitizer::sanitize`, and around them the
//! control plane's `JournalStore::append/take_snapshot/recover` and
//! `Telemetry::span`.
//!
//! Each call gets a span (name, start, end, parent, request or batch id)
//! under a per-batch span under one root. A layer's self time is the summed
//! duration of its spans; `core.unattributed_share` is what the layers the
//! product runs on the workload leave unexplained of the product play's
//! wall time: the door, fleet routing, settlement and string copies.
//!
//! Every layer is replayed on every workload, so each per-call cost is
//! always measured on the workload's own inputs. Where the product has a
//! layer off (KV on `burst_short`; journal and telemetry on `chat_kv` and
//! `burst_short`), that layer's counters read 0 and its self time is left
//! out of the accounting.

use crate::outcome::median;
use crate::workloads::Kind;
use crate::{Metric, Play};
use guillotine::fleet::RoutingPolicy;
use guillotine::serve::ServeRequest;
use guillotine::{BatchPolicy, DeadlinePolicy, DEFAULT_CHUNK_TOKENS};
use guillotine_admit::{AdmissionController, AdmissionDecision, Admitted, EntryStamp};
use guillotine_detect::{CompiledCategories, InputShield, OutputSanitizer, StreamingSanitizer};
use guillotine_journal::{CompletionKind, JournalConfig, JournalStore, SnapshotData, WalRecord};
use guillotine_model::forward::{PREFILL_WORDS_PER_TOKEN, WEIGHT_SWEEP_WORDS};
use guillotine_model::{
    decode_byte_target, decode_tokens, prompt_tokens, BatchedForwardPass, KvTier, PrefillJob,
};
use guillotine_telemetry::{NewSpan, Telemetry, TelemetryConfig};
use guillotine_types::{SimInstant, TicketId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Arrivals the probe replays to measure the per-call cost of a layer the
/// product has off on the workload.
const PROBE_REQUESTS: usize = 400;

/// The fleet-clock instants at which the product's batch former selected a
/// batch, in order.
pub type Dispatches = Rc<RefCell<Vec<SimInstant>>>;

/// The workload's batch former, unchanged, logging when it selects.
pub struct RecordingPolicy {
    inner: DeadlinePolicy,
    log: Dispatches,
}

impl RecordingPolicy {
    /// Wraps `inner`, appending to `log`.
    pub fn new(inner: DeadlinePolicy, log: Dispatches) -> Self {
        RecordingPolicy { inner, log }
    }
}

impl BatchPolicy for RecordingPolicy {
    fn ready(&self, queue: &[EntryStamp], now: SimInstant) -> bool {
        self.inner.ready(queue, now)
    }

    fn select(&self, queue: &[EntryStamp], now: SimInstant) -> Vec<usize> {
        self.log.borrow_mut().push(now);
        self.inner.select(queue, now)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Span names. The first twelve are layer calls (leaves); the last two
/// are the replay's own structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Name {
    Submit,
    Form,
    Shield,
    Kv,
    Forward,
    Push,
    Finish,
    Output,
    Append,
    Snapshot,
    Recover,
    Telemetry,
    Batch,
    Root,
}

const NAMES: [Name; 14] = [
    Name::Submit,
    Name::Form,
    Name::Shield,
    Name::Kv,
    Name::Forward,
    Name::Push,
    Name::Finish,
    Name::Output,
    Name::Append,
    Name::Snapshot,
    Name::Recover,
    Name::Telemetry,
    Name::Batch,
    Name::Root,
];

impl Name {
    fn label(self) -> &'static str {
        match self {
            Name::Submit => "admit.submit",
            Name::Form => "admit.form",
            Name::Shield => "shield.scan",
            Name::Kv => "kv.lookup_insert",
            Name::Forward => "forward.run_prefill_decode",
            Name::Push => "stream.push",
            Name::Finish => "stream.finish",
            Name::Output => "output.sanitize",
            Name::Append => "journal.append",
            Name::Snapshot => "journal.take_snapshot",
            Name::Recover => "journal.recover",
            Name::Telemetry => "telemetry.span",
            Name::Batch => "core.batch",
            Name::Root => "core.replay",
        }
    }

    /// The layer a span's time is charged to.
    fn layer(self) -> Layer {
        match self {
            Name::Submit | Name::Form => Layer::Admit,
            Name::Shield => Layer::Shield,
            Name::Kv => Layer::Kv,
            Name::Forward => Layer::Forward,
            Name::Push | Name::Finish => Layer::Stream,
            Name::Output => Layer::Output,
            Name::Append | Name::Snapshot | Name::Recover => Layer::Journal,
            Name::Telemetry => Layer::Telemetry,
            Name::Batch | Name::Root => Layer::Core,
        }
    }
}

/// The layers time is attributed to, named after the workspace's modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    Admit,
    Shield,
    Kv,
    Forward,
    Stream,
    Output,
    Journal,
    Telemetry,
    Core,
}

const LAYERS: [Layer; 8] = [
    Layer::Admit,
    Layer::Shield,
    Layer::Kv,
    Layer::Forward,
    Layer::Stream,
    Layer::Output,
    Layer::Journal,
    Layer::Telemetry,
];

impl Layer {
    fn share_name(self) -> &'static str {
        match self {
            Layer::Admit => "admit.self_share",
            Layer::Shield => "shield.self_share",
            Layer::Kv => "kv.self_share",
            Layer::Forward => "forward.self_share",
            Layer::Stream => "stream.self_share",
            Layer::Output => "output.self_share",
            Layer::Journal => "journal.self_share",
            Layer::Telemetry => "telemetry.self_share",
            Layer::Core => "core.unattributed_share",
        }
    }

    /// Whether the product door runs this layer on the workload.
    fn runs_on(self, kind: Kind) -> bool {
        match self {
            Layer::Kv => kind.kv_cache().is_some(),
            Layer::Journal | Layer::Telemetry => kind.hardened(),
            _ => true,
        }
    }
}

/// One recorded span. Times are nanoseconds since the replay started.
#[derive(Debug, Clone, Copy)]
struct SpanRecord {
    name: Name,
    /// Index of the parent span (the root is its own parent).
    parent: u32,
    /// Request (ticket) or batch id the call served.
    id: u32,
    start: u64,
    end: u64,
}

/// The span recorder. Off, it only runs the calls, so the same replay
/// measures the recorder's own cost.
struct Spans {
    on: bool,
    origin: Instant,
    records: Vec<SpanRecord>,
    current: u32,
}

impl Spans {
    fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            records: Vec::new(),
            current: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `call` inside a leaf span.
    fn time<R>(&mut self, name: Name, id: u32, call: impl FnOnce() -> R) -> R {
        if !self.on {
            return call();
        }
        let start = self.now();
        let result = call();
        let end = self.now();
        self.records.push(SpanRecord {
            name,
            parent: self.current,
            id,
            start,
            end,
        });
        result
    }

    /// Opens a span that later spans nest under; returns what `close`
    /// needs to restore the previous parent.
    fn open(&mut self, name: Name, id: u32) -> u32 {
        let previous = self.current;
        if self.on {
            self.records.push(SpanRecord {
                name,
                parent: previous,
                id,
                start: self.now(),
                end: 0,
            });
            self.current = self.records.len() as u32 - 1;
        }
        previous
    }

    fn close(&mut self, previous: u32) {
        if self.on {
            let end = self.now();
            self.records[self.current as usize].end = end;
            self.current = previous;
        }
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover (children never overlap each other).
    fn self_times(&self) -> [(u64, u64); NAMES.len()] {
        let mut child_time = vec![0u64; self.records.len()];
        for (i, span) in self.records.iter().enumerate() {
            if span.parent as usize != i {
                child_time[span.parent as usize] += span.end - span.start;
            }
        }
        let mut totals = [(0u64, 0u64); NAMES.len()];
        for (span, children) in self.records.iter().zip(child_time) {
            let slot = &mut totals[span.name as usize];
            slot.0 += (span.end - span.start).saturating_sub(children);
            slot.1 += 1;
        }
        totals
    }

    /// The spans as tab-separated lines: line, parent line, name, id,
    /// start and end in ns, calls, and busy ns. Consecutive leaf spans with
    /// the same name, id and parent (a stream's chunk pushes) share one
    /// line: `calls` counts them and `busy_ns` sums their durations, so
    /// self times computed from the file match those computed in memory.
    fn dump(&self) -> String {
        let mut out = String::from("span\tparent\tname\tid\tstart_ns\tend_ns\tcalls\tbusy_ns\n");
        let is_leaf = |span: &SpanRecord| !matches!(span.name, Name::Batch | Name::Root);
        let mut line_of = vec![0u32; self.records.len()];
        let mut line = 0u32;
        let mut i = 0;
        while i < self.records.len() {
            let first = self.records[i];
            let mut last = first;
            let mut busy = first.end - first.start;
            let mut j = i + 1;
            while is_leaf(&first)
                && j < self.records.len()
                && (
                    self.records[j].name,
                    self.records[j].id,
                    self.records[j].parent,
                ) == (first.name, first.id, first.parent)
            {
                last = self.records[j];
                busy += last.end - last.start;
                j += 1;
            }
            let parent = if first.parent as usize == i {
                line
            } else {
                line_of[first.parent as usize]
            };
            let _ = writeln!(
                out,
                "{line}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{busy}",
                first.name.label(),
                first.id,
                first.start,
                last.end,
                j - i
            );
            for slot in &mut line_of[i..j] {
                *slot = line;
            }
            line += 1;
            i = j;
        }
        out
    }
}

/// Work the replay did that per-unit costs divide by.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Work {
    scanned_bytes: u64,
    sanitized_bytes: u64,
    streams: u64,
    kwords: u64,
}

/// The layers' state for one replay, built before the timer starts.
struct Layers {
    controller: AdmissionController<ServeRequest>,
    shield: InputShield,
    kv: KvTier,
    forward: Vec<BatchedForwardPass>,
    categories: Arc<CompiledCategories>,
    output: OutputSanitizer,
    journal: JournalStore,
    telemetry: Telemetry,
}

impl Layers {
    fn new(kind: Kind) -> Self {
        let admission = kind.admission();
        let categories = Arc::new(CompiledCategories::standard());
        Layers {
            controller: AdmissionController::new(
                admission.capacity,
                admission.shed,
                Box::new(kind.policy()),
            ),
            shield: InputShield::new(),
            kv: KvTier::new(kind.kv_cache().unwrap_or_default()),
            forward: vec![BatchedForwardPass::new(); kind.shards()],
            output: OutputSanitizer::with_compiled(Arc::clone(&categories)),
            categories,
            journal: JournalStore::new(),
            telemetry: Telemetry::new(TelemetryConfig::full()),
        }
    }
}

/// What the replay needs from the product play.
struct Script<'a> {
    kind: Kind,
    arrivals: &'a [crate::workloads::Arrival],
    dispatches: &'a [SimInstant],
    /// Shard each session is homed on (session-affinity routing).
    homes: &'a HashMap<u32, usize>,
    /// Control-plane recoveries the product made. The replay spreads as
    /// many over the run and adds one at the end, so the call is always
    /// measured.
    recoveries: usize,
}

/// The replay's own bookkeeping between layer calls.
struct Replay<'a> {
    script: Script<'a>,
    /// Run every layer, including those the product has off on this
    /// workload (the probe that measures their per-call cost).
    probe: bool,
    layers: Layers,
    spans: Spans,
    work: Work,
    /// Telemetry root span per ticket.
    roots: HashMap<u32, guillotine_telemetry::SpanId>,
    /// Completed tickets and per-session progress, as snapshots carry them.
    completed: Vec<u32>,
    progress: HashMap<u32, u64>,
}

impl Replay<'_> {
    /// Whether this replay calls into `layer`.
    fn runs(&self, layer: Layer) -> bool {
        self.probe || layer.runs_on(self.script.kind)
    }

    /// Offers arrival `i` to the queue and journals the decision.
    fn submit(&mut self, i: usize, request: ServeRequest) {
        let arrival = &self.script.arrivals[i];
        // The journal needs the wire form, and `submit` consumes the
        // request: encode first, as the door does.
        let wire = if self.runs(Layer::Journal) {
            request.to_wire()
        } else {
            String::new()
        };
        let layers = &mut self.layers;
        let class = request.priority.class();
        let deadline = arrival.deadline.map(|d| arrival.at.saturating_add(d));
        let decision = self.spans.time(Name::Submit, i as u32, || {
            layers
                .controller
                .submit(request, arrival.session, class, deadline, arrival.at)
        });
        let (admitted, victim) = match decision {
            AdmissionDecision::Enqueued { ticket, .. } => (Some(ticket), None),
            AdmissionDecision::Shed {
                victim, admitted, ..
            } => (admitted, admitted.map(|_| victim)),
            AdmissionDecision::Refused { .. } => (None, None),
        };
        if let Some(victim) = victim {
            self.append(victim.raw(), WalRecord::Shed { ticket: victim });
        }
        if let Some(ticket) = admitted {
            let stamp = EntryStamp {
                ticket,
                session: arrival.session,
                class,
                arrival: arrival.at,
                deadline,
            };
            let at = arrival.at;
            self.append(
                ticket.raw(),
                WalRecord::Enqueue {
                    stamp,
                    payload: wire,
                },
            );
            if let Some(id) = self.span("request", ticket, None, at, at) {
                self.roots.insert(ticket.raw(), id);
            }
        }
    }

    fn append(&mut self, id: u32, record: WalRecord) {
        if !self.runs(Layer::Journal) {
            return;
        }
        let journal = &mut self.layers.journal;
        self.spans
            .time(Name::Append, id, || journal.append(&record));
    }

    /// Records one product-style telemetry span.
    fn span(
        &mut self,
        name: &'static str,
        ticket: TicketId,
        shard: Option<usize>,
        start: SimInstant,
        end: SimInstant,
    ) -> Option<guillotine_telemetry::SpanId> {
        if !self.runs(Layer::Telemetry) {
            return None;
        }
        let span = NewSpan {
            name,
            ticket: Some(ticket),
            shard,
            parent: self.roots.get(&ticket.raw()).copied(),
            start,
            end,
            ..NewSpan::default()
        };
        let telemetry = &mut self.layers.telemetry;
        self.spans
            .time(Name::Telemetry, ticket.raw(), || telemetry.span(span))
    }

    /// Serves one formed batch through the data-plane layers.
    fn serve(&mut self, b: usize, at: SimInstant, batch: Vec<Admitted<ServeRequest>>) {
        let kind = self.script.kind;
        let shards = kind.shards();
        let batch_span = self.spans.open(Name::Batch, b as u32);
        let tickets: Vec<TicketId> = batch.iter().map(|a| a.stamp.ticket).collect();
        let batch_id = TicketId::new(b as u32);
        self.append(b as u32, WalRecord::Dispatch { at, tickets });
        self.span("fleet.batch", batch_id, None, at, at);
        // The fleet splits a batch into per-shard sub-batches: by home
        // shard under session affinity, evenly under least-loaded routing.
        let mut sub: Vec<Vec<Admitted<ServeRequest>>> = (0..shards).map(|_| Vec::new()).collect();
        for (k, admitted) in batch.into_iter().enumerate() {
            let shard = match kind.routing() {
                RoutingPolicy::SessionAffinity => self
                    .script
                    .homes
                    .get(&admitted.stamp.session.raw())
                    .copied()
                    .unwrap_or(0),
                _ => k % shards,
            };
            sub[shard].push(admitted);
        }
        for (shard, members) in sub.into_iter().enumerate() {
            if !members.is_empty() {
                self.span("fleet.subbatch", batch_id, Some(shard), at, at);
                self.serve_shard(shard, at, members);
            }
        }
        self.spans.close(batch_span);
    }

    /// One shard's sub-batch: shield, KV, one forward pass, then stream,
    /// screen and complete each survivor.
    fn serve_shard(&mut self, shard: usize, at: SimInstant, members: Vec<Admitted<ServeRequest>>) {
        let kind = self.script.kind;
        let mut survivors = Vec::with_capacity(members.len());
        for admitted in members {
            let ticket = admitted.stamp.ticket;
            self.span("admission.queue", ticket, None, admitted.stamp.arrival, at);
            self.span("serve.dispatch", ticket, Some(shard), at, at);
            let prompt = admitted.payload.prompt.as_str();
            self.work.scanned_bytes += prompt.len() as u64;
            let shield = &self.layers.shield;
            let scan = self
                .spans
                .time(Name::Shield, ticket.raw(), || shield.scan(prompt));
            self.span("serve.shield", ticket, Some(shard), at, at);
            // The shield's flag threshold: flagged prompts are refused
            // before the forward pass.
            if scan.score < 0.5 {
                survivors.push(admitted);
            }
        }
        if survivors.is_empty() {
            return;
        }
        let mut prefill = Vec::with_capacity(survivors.len());
        for admitted in &survivors {
            let request = &admitted.payload;
            let mut tokens = prompt_tokens(&request.prompt);
            if self.runs(Layer::Kv) {
                let kv = &self.layers.kv;
                let lookup = self.spans.time(Name::Kv, admitted.stamp.ticket.raw(), || {
                    kv.lookup_insert(request.session, shard as u32, &request.prompt)
                });
                // Without a tier in the product, the probe's lookups save
                // nothing: the forward pass still prefills everything.
                if kind.kv_cache().is_some() {
                    tokens = lookup.uncached_tokens();
                }
            }
            prefill.push(tokens);
        }
        let jobs: Vec<PrefillJob> = survivors
            .iter()
            .zip(&prefill)
            .map(|(admitted, &prefill_tokens)| PrefillJob {
                prompt: admitted.payload.prompt.as_str(),
                prefill_tokens,
            })
            .collect();
        self.work.kwords +=
            WEIGHT_SWEEP_WORDS + PREFILL_WORDS_PER_TOKEN * prefill.iter().sum::<u64>();
        let forward = &mut self.layers.forward[shard];
        let answers = self.spans.time(Name::Forward, shard as u32, || {
            forward.run_prefill_decode(&jobs)
        });
        drop(jobs);
        for (admitted, answer) in survivors.iter().zip(&answers) {
            let ticket = admitted.stamp.ticket;
            self.span("serve.prefill", ticket, Some(shard), at, at);
            let mut stream = StreamingSanitizer::new(Arc::clone(&self.layers.categories));
            let total = decode_tokens(answer);
            let (mut decoded, mut cursor) = (0u64, 0usize);
            while decoded < total {
                decoded += DEFAULT_CHUNK_TOKENS.min(total - decoded);
                let target = decode_byte_target(answer, decoded, total);
                let raw = &answer[cursor..target];
                cursor = target;
                black_box(
                    self.spans
                        .time(Name::Push, ticket.raw(), || stream.push(raw)),
                );
                self.span("stream.chunk", ticket, Some(shard), at, at);
            }
            black_box(
                self.spans
                    .time(Name::Finish, ticket.raw(), || stream.finish()),
            );
            self.work.streams += 1;
            self.work.sanitized_bytes += answer.len() as u64;
            let output = &self.layers.output;
            let (clean, matched, _) = self
                .spans
                .time(Name::Output, ticket.raw(), || output.sanitize(answer));
            black_box(clean);
            self.span("serve.sanitize", ticket, Some(shard), at, at);
            let outcome = if matched.is_empty() {
                CompletionKind::Delivered
            } else {
                CompletionKind::Sanitized
            };
            self.append(
                ticket.raw(),
                WalRecord::Complete {
                    ticket,
                    at,
                    outcome,
                    session: admitted.stamp.session,
                    arrival: admitted.stamp.arrival,
                },
            );
            self.completed.push(ticket.raw());
            self.progress.insert(
                admitted.stamp.session.raw(),
                admitted.stamp.arrival.as_nanos(),
            );
        }
    }

    /// Checkpoints the queue, the completed set and the session progress,
    /// as the door does at a quiescent point.
    fn snapshot(&mut self, at: SimInstant, b: usize) {
        if !self.runs(Layer::Journal) {
            return;
        }
        let shards = self.script.kind.shards();
        let mut progress: Vec<(u32, u64)> = self.progress.iter().map(|(&s, &a)| (s, a)).collect();
        progress.sort_unstable();
        let data = SnapshotData {
            at,
            wal_offset: self.layers.journal.wal_len(),
            next_ticket: self.layers.controller.next_ticket_raw(),
            mode_rank: 0,
            queue: self
                .layers
                .controller
                .entries()
                .map(|(stamp, request)| (*stamp, request.to_wire()))
                .collect(),
            completed: self.completed.clone(),
            progress,
            quarantined: vec![false; shards],
            kv_invalidated: vec![false; shards],
            stats: self.layers.controller.stats(),
        };
        let journal = &mut self.layers.journal;
        self.spans
            .time(Name::Snapshot, b as u32, || journal.take_snapshot(&data));
    }

    fn recover(&mut self, b: usize) {
        if !self.runs(Layer::Journal) {
            return;
        }
        let journal = &self.layers.journal;
        black_box(
            self.spans
                .time(Name::Recover, b as u32, || journal.recover()),
        );
    }

    /// Plays the whole script: arrivals submitted as their instants pass,
    /// batches formed at the product's dispatch instants, snapshots on the
    /// journal's cadence, recoveries spread evenly, then a final drain.
    fn run(&mut self, requests: Vec<ServeRequest>) {
        let dispatches = self.script.dispatches;
        let arrivals = self.script.arrivals;
        let snapshot_every = JournalConfig::default().snapshot_interval;
        let recover_every = (dispatches.len() / (self.script.recoveries + 1)).max(1);
        let mut requests = requests.into_iter().enumerate().peekable();
        let mut last_snapshot = SimInstant::ZERO;
        let mut batches = 0usize;
        let root = self.spans.open(Name::Root, 0);
        for (b, &at) in dispatches.iter().enumerate() {
            while let Some((i, request)) = requests.next_if(|(i, _)| arrivals[*i].at <= at) {
                self.submit(i, request);
            }
            if snapshot_every.is_some_and(|every| at.duration_since(last_snapshot) >= every) {
                self.snapshot(at, b);
                last_snapshot = at;
            }
            let controller = &mut self.layers.controller;
            if let Some(batch) = self
                .spans
                .time(Name::Form, b as u32, || controller.form(at))
            {
                self.serve(batches, at, batch);
                batches += 1;
            }
            if (b + 1) % recover_every == 0 && b + 1 < dispatches.len() {
                self.recover(b);
            }
        }
        for (i, request) in requests {
            self.submit(i, request);
        }
        let last = dispatches.last().copied().unwrap_or(SimInstant::ZERO);
        loop {
            let controller = &mut self.layers.controller;
            let Some(batch) = self
                .spans
                .time(Name::Form, batches as u32, || controller.flush(last))
            else {
                break;
            };
            self.serve(batches, last, batch);
            batches += 1;
        }
        self.recover(batches);
        self.spans.close(root);
    }
}

/// What one traced play measured.
struct LayerRun {
    /// Product play wall time (the recorder policy on, nothing else).
    play_ns: u64,
    /// Replay wall times with spans off and on.
    untraced_ns: u64,
    traced_ns: u64,
    /// Self time and span count per span name.
    self_times: [(u64, u64); NAMES.len()],
    /// The same from the probe, when the product has a layer off.
    probe: Option<[(u64, u64); NAMES.len()]>,
    work: Work,
}

/// The product's own counters after the first traced play.
#[derive(Debug, Clone, Default)]
struct Counters {
    requests: f64,
    settled: f64,
    batch_size_mean: f64,
    queue_wait_ms_p99: f64,
    shed_share: f64,
    route_imbalance: f64,
    kv_token_reuse_rate: f64,
    kv_evictions: f64,
    forward_launches: f64,
    forward_kwords: f64,
    journal_records: f64,
    snapshot_bytes_first: f64,
    snapshot_bytes_last: f64,
    spans_retained: f64,
    retries: f64,
    requeued: f64,
    hedges: f64,
    degraded_share: f64,
}

fn counters(kind: Kind, play: &Play) -> Counters {
    let door = play.door.front();
    let stats = door.stats();
    let admission = stats.admission.clone().unwrap_or_default();
    let routed: Vec<f64> = stats.shards.iter().map(|s| s.routed as f64).collect();
    let mean_routed = routed.iter().sum::<f64>() / routed.len().max(1) as f64;
    let max_routed = routed.iter().copied().fold(0.0, f64::max);
    let kv = stats.kv.unwrap_or_default();
    let fleet = door.fleet();
    let prefilled: u64 = (0..fleet.shard_count())
        .map(|i| fleet.shard(i).prefilled_tokens())
        .sum();
    let launches = stats.forward_launches();
    let snapshots: Vec<usize> = door
        .journal_store()
        .map(|store| {
            store
                .dump_snapshots()
                .split("--- snapshot ")
                .skip(1)
                .map(|part| part.split_once('\n').map_or(0, |(_, blob)| blob.len() - 1))
                .collect()
        })
        .unwrap_or_default();
    let recovery = stats.recovery;
    Counters {
        requests: kind.requests() as f64,
        settled: play.responses.len() as f64,
        batch_size_mean: admission.mean_batch(),
        queue_wait_ms_p99: admission.wait_quantile(0.99).as_secs_f64() * 1e3,
        shed_share: admission.shed_rate(),
        route_imbalance: if mean_routed > 0.0 {
            max_routed / mean_routed
        } else {
            0.0
        },
        kv_token_reuse_rate: kv.token_reuse_rate(),
        kv_evictions: kv.evictions as f64,
        forward_launches: launches as f64,
        forward_kwords: (launches * WEIGHT_SWEEP_WORDS + prefilled * PREFILL_WORDS_PER_TOKEN)
            as f64
            / 1e3,
        journal_records: door.journal_store().map_or(0, |s| s.wal_len()) as f64,
        snapshot_bytes_first: snapshots.first().copied().unwrap_or(0) as f64,
        snapshot_bytes_last: snapshots.last().copied().unwrap_or(0) as f64,
        spans_retained: fleet.telemetry().tracer().len() as f64,
        retries: recovery.retries as f64,
        requeued: (recovery.requeued_in_flight + recovery.journal_requeued) as f64,
        hedges: recovery.hedges as f64,
        // Time off the ladder's normal rung over all time spent on it.
        degraded_share: {
            let total: f64 = recovery.degraded.iter().map(|d| d.as_secs_f64()).sum();
            if total > 0.0 {
                recovery.degraded_time().as_secs_f64() / total
            } else {
                0.0
            }
        },
    }
}

/// Every traced play of a run, summarised into the per-layer metrics.
#[derive(Default)]
pub struct LayerRuns {
    dispatches: Dispatches,
    kind: Option<Kind>,
    runs: Vec<LayerRun>,
    counters: Option<Counters>,
    /// The last traced replay's spans, written out when the run ends.
    spans: Option<Spans>,
}

impl LayerRuns {
    /// A cleared dispatch log for the next play's recording policy.
    pub fn dispatches(&self) -> Dispatches {
        self.dispatches.borrow_mut().clear();
        Rc::clone(&self.dispatches)
    }

    /// Replays `play`'s workload twice, spans off and on (alternating which
    /// goes first), and records the costs.
    pub fn measure(&mut self, inputs: &crate::workloads::Inputs, play: &Play) {
        let kind = inputs.kind;
        let dispatches = self.dispatches.borrow().clone();
        let fleet = play.door.front().fleet();
        let homes: HashMap<u32, usize> = inputs
            .arrivals
            .iter()
            .map(|a| (a.session.raw(), fleet.home_shard(a.session)))
            .collect();
        let recoveries = play.door.front().stats().recovery.control_plane_crashes as usize;
        let requests: Vec<ServeRequest> = inputs.timed().into_iter().map(|t| t.request).collect();
        let time = |spans: bool, probe: bool, arrivals: usize| {
            let last = inputs.arrivals[arrivals - 1].at;
            let script = Script {
                kind,
                arrivals: &inputs.arrivals[..arrivals],
                // The probe replays a prefix: the batches formed by then.
                dispatches: &dispatches[..dispatches.partition_point(|&at| at <= last)],
                homes: &homes,
                recoveries,
            };
            let mut replay = Replay {
                script,
                probe,
                layers: Layers::new(kind),
                spans: Spans::new(spans),
                work: Work::default(),
                roots: HashMap::new(),
                completed: Vec::new(),
                progress: HashMap::new(),
            };
            let requests = requests[..arrivals].to_vec();
            let start = Instant::now();
            replay.spans.origin = start;
            replay.run(requests);
            let wall = start.elapsed();
            (wall, replay.work, replay.spans)
        };
        let all = inputs.arrivals.len();
        let traced_first = self.runs.len().is_multiple_of(2);
        let (first, second) = (
            time(traced_first, false, all),
            time(!traced_first, false, all),
        );
        let ((traced, work, spans), (untraced, untraced_work, _)) = if traced_first {
            (first, second)
        } else {
            (second, first)
        };
        debug_assert_eq!(work, untraced_work);
        let probe = LAYERS
            .iter()
            .any(|layer| !layer.runs_on(kind))
            .then(|| time(true, true, PROBE_REQUESTS.min(all)).2.self_times());
        self.runs.push(LayerRun {
            play_ns: play.wall.as_nanos() as u64,
            untraced_ns: untraced.as_nanos() as u64,
            traced_ns: traced.as_nanos() as u64,
            self_times: spans.self_times(),
            probe,
            work,
        });
        if self.counters.is_none() {
            self.counters = Some(counters(kind, play));
        }
        self.kind = Some(kind);
        self.spans = Some(spans);
    }

    /// Writes the last traced replay's spans to `path`.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        match &self.spans {
            Some(spans) => std::fs::write(path, spans.dump()),
            None => Ok(()),
        }
    }

    /// The per-layer metrics: per-call costs and shares as medians over the
    /// traced plays, the product's counters from the first.
    pub fn metrics(&self) -> Vec<Metric> {
        let kind = self.kind.expect("measure ran");
        let c = self.counters.clone().unwrap_or_default();
        let n = self.runs.len();
        // Median over plays of a per-run value.
        let med = |f: &dyn Fn(&LayerRun) -> f64| -> f64 {
            let mut values: Vec<f64> = self.runs.iter().map(f).collect();
            median(&mut values)
        };
        let per_call = |name: Name| {
            med(&|run: &LayerRun| {
                let (ns, calls) = if name.layer().runs_on(kind) {
                    run.self_times[name as usize]
                } else {
                    run.probe.map_or((0, 0), |probe| probe[name as usize])
                };
                if calls == 0 {
                    0.0
                } else {
                    ns as f64 / calls as f64
                }
            })
        };
        let per_unit = |names: &[Name], unit: &dyn Fn(&Work) -> f64| {
            med(&|run: &LayerRun| {
                let ns: u64 = names
                    .iter()
                    .map(|&name| run.self_times[name as usize].0)
                    .sum();
                ns as f64 / unit(&run.work).max(1e-9)
            })
        };
        let layer_self = |run: &LayerRun, layer: Layer| -> f64 {
            NAMES
                .iter()
                .filter(|name| name.layer() == layer)
                .map(|&name| run.self_times[name as usize].0 as f64)
                .sum()
        };
        let calls = |name: Name| {
            self.runs
                .first()
                .map_or(0, |run| run.self_times[name as usize].1)
        };
        let on = |layer: Layer| if layer.runs_on(kind) { 1.0 } else { 0.0 };
        let mut metrics = vec![
            Metric::sampled("admit.submit_ns", per_call(Name::Submit), "ns", n),
            Metric::sampled("admit.form_ns", per_call(Name::Form), "ns", n),
            Metric::new("admit.batch_size_mean", c.batch_size_mean, "req"),
            Metric::new("admit.queue_wait_ms_p99", c.queue_wait_ms_p99, "ms"),
            Metric::new("admit.shed_share", c.shed_share, "ratio"),
            Metric::new("fleet.route_imbalance", c.route_imbalance, "ratio"),
            Metric::sampled(
                "shield.ns_per_kib",
                per_unit(&[Name::Shield], &|w| w.scanned_bytes as f64 / 1024.0),
                "ns/KiB",
                n,
            ),
            Metric::sampled(
                "output.sanitize_ns_per_kib",
                per_unit(&[Name::Output], &|w| w.sanitized_bytes as f64 / 1024.0),
                "ns/KiB",
                n,
            ),
            Metric::sampled("stream.push_ns_per_chunk", per_call(Name::Push), "ns", n),
            Metric::new(
                "stream.chunks_per_req",
                calls(Name::Push) as f64
                    / self
                        .runs
                        .first()
                        .map_or(1.0, |r| r.work.streams.max(1) as f64),
                "count",
            ),
            Metric::sampled("kv.lookup_ns", per_call(Name::Kv), "ns", n),
            Metric::new("kv.token_reuse_rate", c.kv_token_reuse_rate, "ratio"),
            Metric::new("kv.evictions", c.kv_evictions, "count"),
            Metric::new("forward.launches", c.forward_launches, "count"),
            Metric::new(
                "forward.kwords_per_req",
                c.forward_kwords / c.settled.max(1.0),
                "kword",
            ),
            Metric::sampled(
                "forward.ns_per_kword",
                per_unit(&[Name::Forward], &|w| w.kwords as f64 / 1e3),
                "ns/kword",
                n,
            ),
            Metric::sampled("journal.append_ns", per_call(Name::Append), "ns", n),
            Metric::new(
                "journal.records_per_req",
                c.journal_records / c.requests.max(1.0),
                "count",
            ),
            Metric::sampled("journal.snapshot_ns", per_call(Name::Snapshot), "ns", n),
            Metric::new("journal.snapshot_bytes_first", c.snapshot_bytes_first, "B"),
            Metric::new("journal.snapshot_bytes_last", c.snapshot_bytes_last, "B"),
            Metric::sampled("journal.recover_ns", per_call(Name::Recover), "ns", n),
            Metric::sampled("telemetry.span_ns", per_call(Name::Telemetry), "ns", n),
            Metric::new(
                "telemetry.spans_per_req",
                c.spans_retained / c.requests.max(1.0),
                "count",
            ),
            Metric::new("telemetry.spans_retained", c.spans_retained, "count"),
            Metric::new("recovery.retries", c.retries, "count"),
            Metric::new("recovery.requeued", c.requeued, "count"),
            Metric::new("recovery.hedges", c.hedges, "count"),
            Metric::new("recovery.degraded_share", c.degraded_share, "ratio"),
        ];
        for layer in LAYERS {
            metrics.push(Metric::sampled(
                layer.share_name(),
                on(layer) * med(&|run: &LayerRun| layer_self(run, layer) / run.play_ns as f64),
                "ratio",
                n,
            ));
        }
        metrics.push(Metric::sampled(
            Layer::Core.share_name(),
            med(&|run: &LayerRun| {
                let attributed: f64 = LAYERS
                    .iter()
                    .filter(|layer| layer.runs_on(kind))
                    .map(|&layer| layer_self(run, layer))
                    .sum();
                1.0 - attributed / run.play_ns as f64
            }),
            "ratio",
            n,
        ));
        metrics.push(Metric::sampled(
            "trace.overhead_ms",
            med(&|run: &LayerRun| (run.traced_ns as f64 - run.untraced_ns as f64) / 1e6),
            "ms",
            n,
        ));
        metrics
    }
}
