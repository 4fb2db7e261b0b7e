//! Crash-consistent durability for the Guillotine admission control plane.
//!
//! PR 8 made *shards* crash-survivable; this crate makes the control plane
//! itself survive. The front door is a single point of failure holding the
//! bounded admission queue, ticket stamps, the idempotency set, the
//! degradation-ladder mode and the fleet's quarantine/quorum view — all of
//! it in memory, all of it gone on a crash. The durability contract a real
//! serving stack promises is:
//!
//! > once an enqueue is acknowledged, the request is never lost and never
//! > served twice, across arbitrary control-plane crashes.
//!
//! Three pieces deliver it, all on the simulated clock and fully
//! deterministic:
//!
//! * [`WriteAheadLog`] — an append-only, checksummed log of admission
//!   lifecycle records ([`WalRecord`]: acked-enqueue, shed, batch
//!   dispatch, completion). Records are committed before they are acked
//!   (the `fsync`-before-ack contract), so a torn tail is always un-acked
//!   garbage and recovery may truncate it at the first bad checksum.
//! * [`SnapshotData`] — periodic snapshots of the control plane at
//!   quiescent points (no batch in flight): queue contents, ticket
//!   counter, the completed tickets at or above the settled floor, the
//!   order witness of sessions with queued work, degradation mode,
//!   per-shard quarantine and KV-invalidation flags, and the admission
//!   statistics. A snapshot holds live state only, so its size does not
//!   grow with history. The store keeps the newest snapshot plus one
//!   fallback.
//! * [`rebuild`] — recovery: load the latest snapshot that passes its
//!   checksums (skipping a corrupt one), read only the WAL suffix after
//!   its offset, and fold both into a [`ReplayState`] whose queue holds
//!   exactly the acked-but-uncompleted work sorted by `(arrival, ticket)`
//!   — preserving per-session prefix order. Its settled floor (every
//!   ticket below it is settled or gone) plus the completed tickets above
//!   it guarantee `TicketId`-keyed exactly-once completion.
//!
//! Replay cost is charged to the fleet clock as downtime
//! ([`SNAPSHOT_LOAD_NS_PER_BYTE`], [`WAL_REPLAY_NS_PER_RECORD`]), so the
//! e20 bench can show recovery time scaling with the WAL *suffix* and the
//! live state rather than total history.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod replay;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use replay::{rebuild, ReplayState};
pub use snapshot::SnapshotData;
pub use store::{
    JournalConfig, JournalStore, Recovered, SNAPSHOT_LOAD_NS_PER_BYTE, WAL_REPLAY_NS_PER_RECORD,
};
pub use wal::{CompletionKind, WalRecord, WalScan, WriteAheadLog};
