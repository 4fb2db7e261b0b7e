//! Periodic fleet snapshots: a checksummed, self-delimiting dump of the
//! control plane's durable state at a quiescent point.
//!
//! A snapshot is a sequence of framed lines (`crc32hex|body`) ending in an
//! explicit `end` marker; any bad checksum or missing marker makes the
//! whole snapshot invalid, and recovery falls back to the previous one (or
//! to a full WAL replay). Snapshots are only taken when no batch is in
//! flight, so `queue + WAL suffix` fully reconstructs the control plane.

use guillotine_admit::{AdmissionStats, EntryStamp};
use guillotine_types::encode::{
    escape_field, frame, instant_field, parse_instant, parse_ticket, split_fields, ticket_field,
    unescape_field, unframe,
};
use guillotine_types::{Gauge, Histogram, SessionId, SimDuration, SimInstant};

/// Everything a control-plane snapshot captures.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotData {
    /// Fleet-clock instant the snapshot was taken.
    pub at: SimInstant,
    /// Number of WAL records committed when the snapshot was taken; the
    /// replay suffix starts here.
    pub wal_offset: u64,
    /// The ticket counter, so recovery never re-issues a live ticket.
    pub next_ticket: u32,
    /// The degradation-ladder mode rank at snapshot time.
    pub mode_rank: u8,
    /// The queued entries (stamp plus wire-form payload), in queue order.
    pub queue: Vec<(EntryStamp, String)>,
    /// Completed tickets at or above the settled floor (the idempotency
    /// set). The floor is not stored: it is the smallest queued ticket, or
    /// `next_ticket` when the queue is empty, and every ticket below it is
    /// settled or gone.
    pub completed: Vec<u32>,
    /// Per-session order witness of the sessions with queued work: latest
    /// arrival instant completed per session, as `(session raw, arrival
    /// ns)`. A session with nothing queued has no older request live.
    pub progress: Vec<(u32, u64)>,
    /// Per-shard quarantine flags (the fleet console's quorum state).
    pub quarantined: Vec<bool>,
    /// Per-shard KV invalidation flags (which shards must serve cold).
    pub kv_invalidated: Vec<bool>,
    /// Admission statistics at snapshot time.
    pub stats: AdmissionStats,
}

fn flags_field(flags: &[bool]) -> String {
    flags.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

fn parse_flags(s: &str) -> Option<Vec<bool>> {
    s.chars()
        .map(|c| match c {
            '0' => Some(false),
            '1' => Some(true),
            _ => None,
        })
        .collect()
}

fn stats_body(stats: &AdmissionStats) -> String {
    format!(
        "stats|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
        stats.submitted,
        stats.enqueued,
        stats.refused,
        stats.shed,
        stats.dispatched,
        stats.batches,
        stats.depth.current(),
        stats.depth.high_water(),
        stats.wait_total.as_nanos(),
        stats.wait_max.as_nanos(),
        stats.deadlines_tracked,
        stats.deadlines_met,
        stats.deadlines_missed,
        stats.ttft_samples,
        stats.ttft_total.as_nanos(),
        stats.ttft_max.as_nanos(),
        // The SLO histograms ride along sparsely (sum;idx:count,...), so a
        // recovered control plane reports the same p95/p99 it crashed with.
        stats.wait_hist.encode_sparse(),
        stats.ttft_hist.encode_sparse(),
    )
}

fn parse_stats(fields: &[&str]) -> Option<AdmissionStats> {
    if fields.len() != 19 {
        return None;
    }
    let n = |i: usize| -> Option<u64> { fields[i].parse().ok() };
    let mut depth = Gauge::new();
    depth.set(n(8)?);
    depth.set(n(7)?);
    Some(AdmissionStats {
        submitted: n(1)?,
        enqueued: n(2)?,
        refused: n(3)?,
        shed: n(4)?,
        dispatched: n(5)?,
        batches: n(6)?,
        depth,
        wait_total: SimDuration::from_nanos(n(9)?),
        wait_max: SimDuration::from_nanos(n(10)?),
        deadlines_tracked: n(11)?,
        deadlines_met: n(12)?,
        deadlines_missed: n(13)?,
        ttft_samples: n(14)?,
        ttft_total: SimDuration::from_nanos(n(15)?),
        ttft_max: SimDuration::from_nanos(n(16)?),
        wait_hist: Histogram::decode_sparse(fields[17])?,
        ttft_hist: Histogram::decode_sparse(fields[18])?,
    })
}

const NO_DEADLINE: &str = "-";

impl SnapshotData {
    /// Serializes the snapshot as framed lines ending in an `end` marker.
    pub fn encode(&self) -> String {
        let mut lines = Vec::new();
        lines.push(frame(&format!(
            "snap|{}|{}|{}|{}",
            instant_field(self.at),
            self.wal_offset,
            self.next_ticket,
            self.mode_rank,
        )));
        for (stamp, payload) in &self.queue {
            let deadline = match stamp.deadline {
                Some(at) => instant_field(at),
                None => NO_DEADLINE.to_string(),
            };
            lines.push(frame(&format!(
                "entry|{}|{}|{}|{}|{}|{}",
                ticket_field(stamp.ticket),
                stamp.session.raw(),
                stamp.class,
                instant_field(stamp.arrival),
                deadline,
                escape_field(payload),
            )));
        }
        let completed: Vec<String> = self.completed.iter().map(|t| t.to_string()).collect();
        lines.push(frame(&format!("completed|{}", completed.join(","))));
        let progress: Vec<String> = self
            .progress
            .iter()
            .map(|(session, arrival)| format!("{session}:{arrival}"))
            .collect();
        lines.push(frame(&format!("progress|{}", progress.join(","))));
        lines.push(frame(&format!(
            "shards|{}|{}",
            flags_field(&self.quarantined),
            flags_field(&self.kv_invalidated),
        )));
        lines.push(frame(&stats_body(&self.stats)));
        lines.push(frame("end"));
        lines.join("\n")
    }

    /// Deserializes a snapshot blob, re-verifying every line's checksum.
    /// `None` means the snapshot is corrupt (any bad line, wrong ordering,
    /// or missing `end` marker) and must not be loaded.
    pub fn decode(blob: &str) -> Option<SnapshotData> {
        let mut lines = blob.lines();
        let head = unframe(lines.next()?)?;
        let head_fields = split_fields(head);
        if head_fields.len() != 5 || head_fields[0] != "snap" {
            return None;
        }
        let mut snapshot = SnapshotData {
            at: parse_instant(head_fields[1])?,
            wal_offset: head_fields[2].parse().ok()?,
            next_ticket: head_fields[3].parse().ok()?,
            mode_rank: head_fields[4].parse().ok()?,
            queue: Vec::new(),
            completed: Vec::new(),
            progress: Vec::new(),
            quarantined: Vec::new(),
            kv_invalidated: Vec::new(),
            stats: AdmissionStats::default(),
        };
        let mut saw_end = false;
        for line in lines {
            if saw_end {
                return None;
            }
            let body = unframe(line)?;
            let fields = split_fields(body);
            match fields.first().copied()? {
                "entry" if fields.len() == 7 => {
                    let deadline = if fields[5] == NO_DEADLINE {
                        None
                    } else {
                        Some(parse_instant(fields[5])?)
                    };
                    snapshot.queue.push((
                        EntryStamp {
                            ticket: parse_ticket(fields[1])?,
                            session: SessionId::new(fields[2].parse().ok()?),
                            class: fields[3].parse().ok()?,
                            arrival: parse_instant(fields[4])?,
                            deadline,
                        },
                        unescape_field(fields[6]),
                    ));
                }
                "completed" if fields.len() == 2 => {
                    if !fields[1].is_empty() {
                        for part in fields[1].split(',') {
                            snapshot.completed.push(part.parse().ok()?);
                        }
                    }
                }
                "progress" if fields.len() == 2 => {
                    if !fields[1].is_empty() {
                        for part in fields[1].split(',') {
                            let (session, arrival) = part.split_once(':')?;
                            snapshot
                                .progress
                                .push((session.parse().ok()?, arrival.parse().ok()?));
                        }
                    }
                }
                "shards" if fields.len() == 3 => {
                    snapshot.quarantined = parse_flags(fields[1])?;
                    snapshot.kv_invalidated = parse_flags(fields[2])?;
                }
                "stats" => snapshot.stats = parse_stats(&fields)?,
                "end" if fields.len() == 1 => saw_end = true,
                _ => return None,
            }
        }
        saw_end.then_some(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guillotine_types::TicketId;

    fn sample() -> SnapshotData {
        let mut stats = AdmissionStats {
            submitted: 10,
            enqueued: 8,
            refused: 1,
            shed: 1,
            dispatched: 6,
            batches: 2,
            wait_total: SimDuration::from_micros(40),
            wait_max: SimDuration::from_micros(12),
            deadlines_tracked: 5,
            deadlines_met: 4,
            deadlines_missed: 1,
            ttft_samples: 6,
            ttft_total: SimDuration::from_micros(90),
            ttft_max: SimDuration::from_micros(25),
            ..AdmissionStats::default()
        };
        stats.depth.set(3);
        stats.depth.set(2);
        SnapshotData {
            at: SimInstant::from_nanos(5_000),
            wal_offset: 17,
            next_ticket: 9,
            mode_rank: 1,
            queue: vec![
                (
                    EntryStamp {
                        ticket: TicketId::new(7),
                        session: SessionId::new(2),
                        class: 1,
                        arrival: SimInstant::from_nanos(4_000),
                        deadline: Some(SimInstant::from_nanos(9_000)),
                    },
                    "payload|with pipe".to_string(),
                ),
                (
                    EntryStamp {
                        ticket: TicketId::new(8),
                        session: SessionId::new(0),
                        class: 2,
                        arrival: SimInstant::from_nanos(4_500),
                        deadline: None,
                    },
                    String::new(),
                ),
            ],
            completed: vec![0, 3, 5],
            progress: vec![(0, 1_200), (2, 3_400)],
            quarantined: vec![false, true, false],
            kv_invalidated: vec![true, false, false],
            stats,
        }
    }

    #[test]
    fn snapshots_round_trip() {
        let snapshot = sample();
        let blob = snapshot.encode();
        let decoded = SnapshotData::decode(&blob).expect("clean snapshot decodes");
        assert_eq!(decoded, snapshot);
    }

    #[test]
    fn any_corruption_invalidates_the_whole_snapshot() {
        let blob = sample().encode();
        // Flip one byte somewhere in the middle.
        let mid = blob.len() / 2;
        let mut corrupt = String::new();
        for (i, c) in blob.chars().enumerate() {
            corrupt.push(if i == mid {
                if c == 'x' {
                    'y'
                } else {
                    'x'
                }
            } else {
                c
            });
        }
        assert_eq!(SnapshotData::decode(&corrupt), None);
        // A truncated snapshot (missing end marker) is also invalid.
        let cut = blob.rfind('\n').map(|i| &blob[..i]).unwrap_or("");
        assert_eq!(SnapshotData::decode(cut), None);
        assert_eq!(SnapshotData::decode(""), None);
    }

    #[test]
    fn empty_collections_round_trip() {
        let snapshot = SnapshotData {
            at: SimInstant::ZERO,
            wal_offset: 0,
            next_ticket: 0,
            mode_rank: 0,
            queue: Vec::new(),
            completed: Vec::new(),
            progress: Vec::new(),
            quarantined: Vec::new(),
            kv_invalidated: Vec::new(),
            stats: AdmissionStats::default(),
        };
        let decoded = SnapshotData::decode(&snapshot.encode());
        assert_eq!(decoded, Some(snapshot));
    }
}
