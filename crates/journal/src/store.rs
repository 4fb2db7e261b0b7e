//! The journal store: one WAL plus the snapshot chain, and the recovery
//! procedure that turns them back into control-plane state.

use crate::snapshot::SnapshotData;
use crate::wal::{WalRecord, WriteAheadLog};
use guillotine_types::SimDuration;

/// Simulated cost of loading one snapshot byte at recovery.
pub const SNAPSHOT_LOAD_NS_PER_BYTE: u64 = 2;

/// Simulated cost of replaying one WAL record at recovery.
pub const WAL_REPLAY_NS_PER_RECORD: u64 = 400;

/// Snapshots the chain keeps: the newest plus one fallback. If both are
/// corrupt, recovery replays the whole WAL, which keeps every record.
const SNAPSHOT_CHAIN: usize = 2;

/// Journal configuration carried by the control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// Simulated time between snapshots. `None` disables snapshotting
    /// entirely: recovery replays the whole WAL from the beginning, so
    /// recovery time grows with total history instead of the suffix.
    pub snapshot_interval: Option<SimDuration>,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            snapshot_interval: Some(SimDuration::from_millis(1)),
        }
    }
}

/// The durable side of the control plane: the WAL and the two-deep
/// snapshot chain, both modeled as the bytes a recovery would read back.
#[derive(Debug, Clone, Default)]
pub struct JournalStore {
    wal: WriteAheadLog,
    snapshots: Vec<String>,
}

/// What recovery reconstructed from the store, before the control plane
/// maps it back onto live state.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// The latest valid snapshot, if any survived.
    pub snapshot: Option<SnapshotData>,
    /// The WAL suffix after the snapshot's offset (the whole log when no
    /// snapshot was usable), already checksum-verified.
    pub suffix: Vec<WalRecord>,
    /// Unreadable trailing WAL lines truncated (torn tail).
    pub torn_truncated: u64,
    /// Corrupt snapshots skipped before a valid one was found.
    pub snapshots_skipped: u64,
    /// Simulated downtime the recovery costs: snapshot bytes loaded plus
    /// WAL records replayed, under the fixed per-unit costs.
    pub replay_cost: SimDuration,
}

impl JournalStore {
    /// An empty store.
    pub fn new() -> Self {
        JournalStore::default()
    }

    /// Commits one WAL record; returns its index.
    pub fn append(&mut self, record: &WalRecord) -> u64 {
        self.wal.append(record)
    }

    /// Number of committed WAL records.
    pub fn wal_len(&self) -> u64 {
        self.wal.len()
    }

    /// Persists one snapshot at the end of the chain, dropping the oldest
    /// once the chain holds two.
    pub fn take_snapshot(&mut self, data: &SnapshotData) {
        if self.snapshots.len() == SNAPSHOT_CHAIN {
            self.snapshots.remove(0);
        }
        self.snapshots.push(data.encode());
    }

    /// Simulates at-rest corruption of the latest snapshot: one byte near
    /// the middle of the blob is flipped, which recovery must detect by
    /// checksum. Returns false when there is no snapshot to corrupt.
    pub fn corrupt_latest_snapshot(&mut self) -> bool {
        let Some(blob) = self.snapshots.last_mut() else {
            return false;
        };
        let mid = blob.len() / 2;
        let mut corrupted = String::with_capacity(blob.len());
        for (i, c) in blob.chars().enumerate() {
            corrupted.push(if i == mid {
                if c == '#' {
                    '%'
                } else {
                    '#'
                }
            } else {
                c
            });
        }
        *blob = corrupted;
        true
    }

    /// Simulates a torn WAL append (see [`WriteAheadLog::tear`]).
    pub fn tear_wal(&mut self) {
        self.wal.tear();
    }

    /// Runs recovery against the store: walk the snapshot chain newest to
    /// oldest until one decodes cleanly, then read only the WAL suffix from
    /// its offset (the whole log when neither snapshot decodes), truncating
    /// a torn tail at the first bad checksum.
    pub fn recover(&self) -> Recovered {
        let mut snapshots_skipped = 0u64;
        let mut snapshot = None;
        let mut loaded_bytes = 0u64;
        for blob in self.snapshots.iter().rev() {
            // Every candidate snapshot read costs load time, valid or not.
            loaded_bytes += blob.len() as u64;
            match SnapshotData::decode(blob) {
                Some(data) => {
                    snapshot = Some(data);
                    break;
                }
                None => snapshots_skipped += 1,
            }
        }
        let offset = snapshot.as_ref().map_or(0, |s| s.wal_offset);
        let scan = self.wal.replay_from(offset);
        let cost_ns = loaded_bytes * SNAPSHOT_LOAD_NS_PER_BYTE
            + scan.records.len() as u64 * WAL_REPLAY_NS_PER_RECORD;
        Recovered {
            snapshot,
            suffix: scan.records,
            torn_truncated: scan.truncated,
            snapshots_skipped,
            replay_cost: SimDuration::from_nanos(cost_ns),
        }
    }

    /// The WAL file bytes, for CI artifact dumps.
    pub fn dump_wal(&self) -> String {
        self.wal.bytes()
    }

    /// The snapshot chain, for CI artifact dumps: blobs separated by a
    /// `--- snapshot N ---` header line each.
    pub fn dump_snapshots(&self) -> String {
        let mut out = String::new();
        for (i, blob) in self.snapshots.iter().enumerate() {
            out.push_str(&format!("--- snapshot {i} ---\n{blob}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guillotine_admit::{AdmissionStats, EntryStamp};
    use guillotine_types::{SessionId, SimInstant, TicketId};

    fn enqueue(ticket: u32) -> WalRecord {
        WalRecord::Enqueue {
            stamp: EntryStamp {
                ticket: TicketId::new(ticket),
                session: SessionId::new(ticket % 3),
                class: 1,
                arrival: SimInstant::from_nanos(u64::from(ticket) * 100),
                deadline: None,
            },
            payload: format!("req {ticket}"),
        }
    }

    fn snapshot_at(wal_offset: u64) -> SnapshotData {
        SnapshotData {
            at: SimInstant::from_nanos(wal_offset * 100),
            wal_offset,
            next_ticket: wal_offset as u32,
            mode_rank: 0,
            queue: Vec::new(),
            completed: Vec::new(),
            progress: Vec::new(),
            quarantined: Vec::new(),
            kv_invalidated: Vec::new(),
            stats: AdmissionStats::default(),
        }
    }

    #[test]
    fn recovery_replays_only_the_suffix_after_the_latest_snapshot() {
        let mut store = JournalStore::new();
        for i in 0..6 {
            store.append(&enqueue(i));
        }
        store.take_snapshot(&snapshot_at(6));
        for i in 6..10 {
            store.append(&enqueue(i));
        }
        let recovered = store.recover();
        assert_eq!(recovered.snapshots_skipped, 0);
        assert_eq!(recovered.suffix.len(), 4, "replay starts at the snapshot");
        assert!(recovered.snapshot.is_some());
        assert!(recovered.replay_cost > SimDuration::ZERO);
    }

    #[test]
    fn corrupt_snapshots_are_skipped_for_older_valid_ones() {
        let mut store = JournalStore::new();
        for i in 0..4 {
            store.append(&enqueue(i));
        }
        store.take_snapshot(&snapshot_at(2));
        store.take_snapshot(&snapshot_at(4));
        assert!(store.corrupt_latest_snapshot());
        let recovered = store.recover();
        assert_eq!(recovered.snapshots_skipped, 1);
        let snapshot = recovered.snapshot.expect("older snapshot still valid");
        assert_eq!(snapshot.wal_offset, 2);
        assert_eq!(recovered.suffix.len(), 2);
    }

    #[test]
    fn the_chain_keeps_two_snapshots_and_falls_back_to_the_whole_wal() {
        let mut store = JournalStore::new();
        for i in 0..6 {
            store.append(&enqueue(i));
            if i % 2 == 1 {
                store.take_snapshot(&snapshot_at(u64::from(i) + 1));
            }
        }
        assert_eq!(store.dump_snapshots().matches("--- snapshot ").count(), 2);
        assert!(store.corrupt_latest_snapshot());
        let fallback = store.recover();
        assert_eq!(fallback.snapshots_skipped, 1);
        assert_eq!(fallback.snapshot.map(|s| s.wal_offset), Some(4));
        assert_eq!(fallback.suffix.len(), 2);
        // A fresh snapshot evicts the fallback; corrupting it too leaves no
        // valid snapshot, and recovery replays the WAL from the start.
        store.take_snapshot(&snapshot_at(6));
        assert!(store.corrupt_latest_snapshot());
        let full = store.recover();
        assert!(full.snapshot.is_none());
        assert_eq!(full.snapshots_skipped, 2);
        assert_eq!(full.suffix.len(), 6);
    }

    #[test]
    fn recovery_without_snapshots_replays_the_entire_wal() {
        let mut store = JournalStore::new();
        for i in 0..5 {
            store.append(&enqueue(i));
        }
        store.tear_wal();
        let recovered = store.recover();
        assert!(recovered.snapshot.is_none());
        assert_eq!(recovered.suffix.len(), 5);
        assert_eq!(recovered.torn_truncated, 1);
        assert!(!store.corrupt_latest_snapshot(), "no snapshot exists");
    }

    #[test]
    fn replay_cost_scales_with_suffix_not_history() {
        // Same history length; one store snapshots late, one never does.
        let mut with_snapshot = JournalStore::new();
        let mut without = JournalStore::new();
        for i in 0..50 {
            with_snapshot.append(&enqueue(i));
            without.append(&enqueue(i));
        }
        with_snapshot.take_snapshot(&snapshot_at(48));
        for i in 50..52 {
            with_snapshot.append(&enqueue(i));
            without.append(&enqueue(i));
        }
        let a = with_snapshot.recover();
        let b = without.recover();
        assert_eq!(a.suffix.len(), 4);
        assert_eq!(b.suffix.len(), 52);
        assert!(
            a.replay_cost < b.replay_cost,
            "snapshotted recovery must be cheaper: {} vs {}",
            a.replay_cost,
            b.replay_cost
        );
    }
}
