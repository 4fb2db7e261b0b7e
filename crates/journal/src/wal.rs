//! The append-only, checksummed write-ahead log of admission lifecycle
//! records.
//!
//! Every record is one framed line (`crc32hex|body`, see
//! [`guillotine_types::encode`]); the body is a `|`-joined field list whose
//! first field is the record tag. The log models the durability contract a
//! real control plane gets from `fsync`-before-ack: a record is *committed*
//! once [`WriteAheadLog::append`] returns, and only committed records are
//! ever acknowledged to a caller. A torn write — the partially-flushed
//! append a crash can leave at the tail — is therefore always a record
//! nobody was acked for, and recovery may truncate it at the first bad
//! checksum without losing acknowledged work.

use guillotine_admit::EntryStamp;
use guillotine_types::encode::{
    escape_field, frame, instant_field, parse_instant, parse_ticket, split_fields, ticket_field,
    unescape_field, unframe,
};
use guillotine_types::{SessionId, SimInstant, TicketId};

/// The terminal outcome a completion record carries. Mirrors the serving
/// layer's outcome kinds without depending on it — the journal sits below
/// the serving stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionKind {
    /// Response delivered verbatim.
    Delivered,
    /// Response delivered after sanitization.
    Sanitized,
    /// Request refused (policy or exhaustion) — still a completion: the
    /// caller got a definitive answer.
    Refused,
    /// Request escalated to containment.
    Escalated,
}

impl CompletionKind {
    fn code(self) -> &'static str {
        match self {
            CompletionKind::Delivered => "delivered",
            CompletionKind::Sanitized => "sanitized",
            CompletionKind::Refused => "refused",
            CompletionKind::Escalated => "escalated",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "delivered" => Some(CompletionKind::Delivered),
            "sanitized" => Some(CompletionKind::Sanitized),
            "refused" => Some(CompletionKind::Refused),
            "escalated" => Some(CompletionKind::Escalated),
            _ => None,
        }
    }
}

/// One admission lifecycle record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A request was acknowledged into the queue. Carries everything needed
    /// to re-enqueue it after a crash: the admission stamp plus the request
    /// payload in its stable wire form.
    Enqueue {
        /// The admission stamp the request was acked with.
        stamp: EntryStamp,
        /// The request payload, encoded by the serving layer.
        payload: String,
    },
    /// A previously-acked queued request was dropped by the shed policy
    /// (the producer was told). It must not be re-enqueued on recovery.
    Shed {
        /// Ticket of the shed victim.
        ticket: TicketId,
    },
    /// A formed batch left the queue for the fleet. Dispatched tickets
    /// without a matching [`WalRecord::Complete`] are the in-flight work a
    /// crash strands; recovery re-enqueues them.
    Dispatch {
        /// Dispatch instant on the fleet clock.
        at: SimInstant,
        /// The batch's tickets, in dispatch order.
        tickets: Vec<TicketId>,
    },
    /// A dispatched request's response was committed. Appended *before*
    /// the response is released to the caller, so every response the
    /// outside world ever saw has a completion record — the idempotency
    /// set recovery rebuilds to guarantee exactly-once service.
    Complete {
        /// Ticket of the completed request.
        ticket: TicketId,
        /// Completion instant on the fleet clock.
        at: SimInstant,
        /// The terminal outcome.
        outcome: CompletionKind,
        /// Session the request belonged to (restores the per-session
        /// order witness).
        session: SessionId,
        /// The request's arrival instant (the order witness compares
        /// arrivals, not completions).
        arrival: SimInstant,
    },
}

const NO_DEADLINE: &str = "-";

impl WalRecord {
    /// The record's stable wire form (the framed line's body).
    pub fn encode(&self) -> String {
        match self {
            WalRecord::Enqueue { stamp, payload } => {
                let deadline = match stamp.deadline {
                    Some(at) => instant_field(at),
                    None => NO_DEADLINE.to_string(),
                };
                format!(
                    "enq|{}|{}|{}|{}|{}|{}",
                    ticket_field(stamp.ticket),
                    stamp.session.raw(),
                    stamp.class,
                    instant_field(stamp.arrival),
                    deadline,
                    escape_field(payload),
                )
            }
            WalRecord::Shed { ticket } => format!("shed|{}", ticket_field(*ticket)),
            WalRecord::Dispatch { at, tickets } => {
                let list: Vec<String> = tickets.iter().map(|t| ticket_field(*t)).collect();
                format!("disp|{}|{}", instant_field(*at), list.join(","))
            }
            WalRecord::Complete {
                ticket,
                at,
                outcome,
                session,
                arrival,
            } => format!(
                "done|{}|{}|{}|{}|{}",
                ticket_field(*ticket),
                instant_field(*at),
                outcome.code(),
                session.raw(),
                instant_field(*arrival),
            ),
        }
    }

    /// Decodes one framed line's body. `None` means the record is not
    /// parseable — recovery treats that exactly like a bad checksum and
    /// truncates there.
    pub fn decode(body: &str) -> Option<WalRecord> {
        let fields = split_fields(body);
        match fields.first().copied()? {
            "enq" if fields.len() == 7 => {
                let deadline = if fields[5] == NO_DEADLINE {
                    None
                } else {
                    Some(parse_instant(fields[5])?)
                };
                Some(WalRecord::Enqueue {
                    stamp: EntryStamp {
                        ticket: parse_ticket(fields[1])?,
                        session: SessionId::new(fields[2].parse().ok()?),
                        class: fields[3].parse().ok()?,
                        arrival: parse_instant(fields[4])?,
                        deadline,
                    },
                    payload: unescape_field(fields[6]),
                })
            }
            "shed" if fields.len() == 2 => Some(WalRecord::Shed {
                ticket: parse_ticket(fields[1])?,
            }),
            "disp" if fields.len() == 3 => {
                let mut tickets = Vec::new();
                if !fields[2].is_empty() {
                    for part in fields[2].split(',') {
                        tickets.push(parse_ticket(part)?);
                    }
                }
                Some(WalRecord::Dispatch {
                    at: parse_instant(fields[1])?,
                    tickets,
                })
            }
            "done" if fields.len() == 6 => Some(WalRecord::Complete {
                ticket: parse_ticket(fields[1])?,
                at: parse_instant(fields[2])?,
                outcome: CompletionKind::parse(fields[3])?,
                session: SessionId::new(fields[4].parse().ok()?),
                arrival: parse_instant(fields[5])?,
            }),
            _ => None,
        }
    }
}

/// The in-memory model of the durable log file: committed framed lines
/// plus, possibly, one torn (partially-flushed, never-acked) tail.
#[derive(Debug, Clone, Default)]
pub struct WriteAheadLog {
    lines: Vec<String>,
    torn_tail: Option<String>,
}

impl WriteAheadLog {
    /// An empty log.
    pub fn new() -> Self {
        WriteAheadLog::default()
    }

    /// Commits one record and returns its index. The writer knows its own
    /// committed offset, so an earlier torn tail (garbage from an append
    /// that never completed) is overwritten — exactly what a real logger
    /// does when it keeps appending from its in-memory position.
    pub fn append(&mut self, record: &WalRecord) -> u64 {
        self.torn_tail = None;
        self.lines.push(frame(&record.encode()));
        self.lines.len() as u64 - 1
    }

    /// Number of committed records.
    pub fn len(&self) -> u64 {
        self.lines.len() as u64
    }

    /// True when nothing has been committed.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// True when a torn tail is pending at the end of the file.
    pub fn has_torn_tail(&self) -> bool {
        self.torn_tail.is_some()
    }

    /// Simulates a torn append: garbage that looks like the front half of
    /// a record lands after the committed tail. The record it belonged to
    /// was never committed, so no caller was ever acked for it.
    pub fn tear(&mut self) {
        let half = match self.lines.last() {
            Some(line) => {
                let cut = line.len() / 2;
                let mut partial = String::new();
                for (i, c) in line.chars().enumerate() {
                    if i >= cut {
                        break;
                    }
                    partial.push(c);
                }
                partial
            }
            None => "00000000|enq".to_string(),
        };
        self.torn_tail = Some(half);
    }

    /// The file bytes: every committed line plus the torn tail,
    /// newline-separated.
    pub fn bytes(&self) -> String {
        let mut out = self.lines.join("\n");
        if let Some(tail) = &self.torn_tail {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(tail);
        }
        out
    }

    /// Scans the log from record `offset`, re-verifying every line it
    /// reads against its checksum. Only the suffix is read: lines before
    /// `offset` were committed whole, and a tear can only sit at the tail,
    /// so skipping them changes nothing. Stops at the first unreadable line
    /// (bad frame, bad checksum, or undecodable body): everything after a
    /// torn point is untrusted. Returns the decoded suffix and how many
    /// trailing lines were truncated.
    pub fn replay_from(&self, offset: u64) -> WalScan {
        let start = usize::try_from(offset).map_or(self.lines.len(), |o| o.min(self.lines.len()));
        let suffix = self.lines[start..].iter().map(String::as_str);
        let mut records = Vec::with_capacity(self.lines.len() - start);
        let mut truncated = 0u64;
        for line in suffix.chain(self.torn_tail.as_deref()) {
            match unframe(line).and_then(WalRecord::decode) {
                Some(record) if truncated == 0 => records.push(record),
                _ => truncated += 1,
            }
        }
        WalScan { records, truncated }
    }
}

/// The result of scanning a log's bytes: the valid decoded suffix, plus
/// how many trailing lines were truncated at the first bad checksum.
#[derive(Debug, Clone)]
pub struct WalScan {
    /// Valid records from the requested offset, in append order.
    pub records: Vec<WalRecord>,
    /// Unreadable trailing lines dropped (0 when the log was clean).
    pub truncated: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn stamp(ticket: u32, session: u32, arrival: u64) -> EntryStamp {
        EntryStamp {
            ticket: TicketId::new(ticket),
            session: SessionId::new(session),
            class: 1,
            arrival: SimInstant::from_nanos(arrival),
            deadline: Some(SimInstant::from_nanos(arrival + 5_000)),
        }
    }

    #[test]
    fn records_round_trip_through_the_wire_form() {
        let records = vec![
            WalRecord::Enqueue {
                stamp: stamp(7, 3, 100),
                payload: "prompt with | pipe\nand newline".to_string(),
            },
            WalRecord::Enqueue {
                stamp: EntryStamp {
                    deadline: None,
                    ..stamp(8, 3, 150)
                },
                payload: String::new(),
            },
            WalRecord::Shed {
                ticket: TicketId::new(9),
            },
            WalRecord::Dispatch {
                at: SimInstant::from_nanos(400),
                tickets: vec![TicketId::new(7), TicketId::new(8)],
            },
            WalRecord::Complete {
                ticket: TicketId::new(7),
                at: SimInstant::from_nanos(900),
                outcome: CompletionKind::Sanitized,
                session: SessionId::new(3),
                arrival: SimInstant::from_nanos(100),
            },
        ];
        for record in records {
            let decoded = WalRecord::decode(&record.encode());
            assert_eq!(decoded.as_ref(), Some(&record));
        }
    }

    #[test]
    fn malformed_bodies_are_rejected() {
        for body in [
            "",
            "nope",
            "enq|1|2",
            "enq|x|3|1|100|-|p",
            "done|1|2|exploded|3|4",
            "disp|100|1,x",
        ] {
            assert_eq!(WalRecord::decode(body), None, "body {body:?}");
        }
    }

    #[test]
    fn replay_returns_the_suffix_and_truncates_torn_tails() {
        let mut wal = WriteAheadLog::new();
        for i in 0..4 {
            wal.append(&WalRecord::Enqueue {
                stamp: stamp(i, 0, u64::from(i) * 10),
                payload: format!("req {i}"),
            });
        }
        assert_eq!(wal.len(), 4);
        let full = wal.replay_from(0);
        assert_eq!(full.records.len(), 4);
        assert_eq!(full.truncated, 0);
        let suffix = wal.replay_from(3);
        assert_eq!(suffix.records.len(), 1);

        // A torn tail is truncated without touching committed records.
        wal.tear();
        assert!(wal.has_torn_tail());
        let scan = wal.replay_from(0);
        assert_eq!(scan.records.len(), 4);
        assert_eq!(scan.truncated, 1);

        // The writer keeps appending from its committed offset: the torn
        // garbage is overwritten and the log is clean again.
        wal.append(&WalRecord::Shed {
            ticket: TicketId::new(0),
        });
        assert!(!wal.has_torn_tail());
        let scan = wal.replay_from(0);
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.truncated, 0);
    }

    #[test]
    fn tearing_an_empty_log_still_truncates_cleanly() {
        let mut wal = WriteAheadLog::new();
        wal.tear();
        let scan = wal.replay_from(0);
        assert!(scan.records.is_empty());
        assert_eq!(scan.truncated, 1);
    }

    proptest! {
        /// Reading only the suffix is exact: for every offset `k`, the
        /// suffix scan equals the full scan's records from `k` on, with and
        /// without a torn tail.
        #[test]
        fn suffix_replay_equals_the_full_replay_from_the_offset(
            kinds in collection::vec(0u32..4, 0..24),
            torn in any::<bool>(),
        ) {
            let mut wal = WriteAheadLog::new();
            for (i, kind) in kinds.iter().enumerate() {
                let ticket = TicketId::new(i as u32);
                let record = match kind {
                    0 => WalRecord::Enqueue {
                        stamp: stamp(i as u32, 1, i as u64 * 10),
                        payload: format!("req {i}"),
                    },
                    1 => WalRecord::Shed { ticket },
                    2 => WalRecord::Dispatch {
                        at: SimInstant::from_nanos(i as u64 * 10),
                        tickets: vec![ticket],
                    },
                    _ => WalRecord::Complete {
                        ticket,
                        at: SimInstant::from_nanos(i as u64 * 10),
                        outcome: CompletionKind::Delivered,
                        session: SessionId::new(1),
                        arrival: SimInstant::from_nanos(i as u64),
                    },
                };
                wal.append(&record);
            }
            if torn {
                wal.tear();
            }
            let full = wal.replay_from(0);
            prop_assert_eq!(full.records.len(), kinds.len());
            prop_assert_eq!(full.truncated, u64::from(torn));
            for k in 0..=kinds.len() + 2 {
                let scan = wal.replay_from(k as u64);
                let from = k.min(full.records.len());
                prop_assert_eq!(&scan.records[..], &full.records[from..]);
                prop_assert_eq!(scan.truncated, full.truncated);
            }
        }
    }
}
