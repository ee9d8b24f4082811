//! # nyaya-ledger
//!
//! Durable ledger storage for an evolving extensional database: a
//! checksummed, length-prefixed **write-ahead log** of update batches,
//! periodic immutable **index segments** (a full snapshot of the data at
//! one epoch), and **crash recovery** that opens the newest valid segment
//! and replays the log tail.
//!
//! The crate is deliberately payload-agnostic: records and segments carry
//! opaque byte strings, so nothing here depends on the rest of the
//! workspace. The `nyaya` facade supplies the payloads (encoded
//! `UpdateBatch`es for the log, an encoded `Database` for segments — see
//! `nyaya_sql::segment`) and drives the [`Ledger`] from
//! `KnowledgeBase::apply` and its background compactor.
//!
//! ## On-disk layout
//!
//! ```text
//! <root>/
//!   wal.log                      the active log tail (epochs after the
//!                                newest segment)
//!   segments/seg-<epoch>.seg     immutable snapshots, one per flush
//!   history/wal-<from>-<to>.log  sealed log ranges, moved out of the
//!                                active tail by compaction
//! ```
//!
//! Compaction never destroys history: flushing a segment at epoch `E`
//! *seals* the replayed log prefix into `history/` instead of deleting
//! it, so any historical epoch remains materializable from the nearest
//! segment at or below it plus the sealed ranges — unbounded time travel
//! survives restarts, while crash recovery only ever replays the short
//! active tail.
//!
//! ## Durability contract
//!
//! | operation | syncs |
//! |---|---|
//! | [`Ledger::append`] | record bytes + `fdatasync` before returning |
//! | [`Ledger::flush_segment`] | segment tmp file synced, renamed, directory synced; then the sealed history file and the new active tail, each synced before its rename |
//! | recovery ([`Ledger::open`]) | truncates a torn final record and syncs the repaired tail |
//!
//! A torn final record in the active tail (a crash mid-append) is
//! expected and repaired; any other invalid byte — a flipped bit, a
//! duplicated or out-of-order record, a bad segment checksum — surfaces
//! as a typed [`LedgerError`], never a panic and never silent data loss.

use std::error::Error;
use std::fmt;

mod crc;
mod segment;
mod store;
mod wal;

pub use store::{Ledger, LedgerHistory, RecoveredState, SealedWalInfo, SegmentFlush, SegmentInfo};
pub use wal::WalRecord;

/// A failure in the ledger's file formats or I/O.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LedgerError {
    /// An underlying file operation failed.
    Io {
        /// The file or directory involved.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// A log record or segment failed validation: bad magic, a checksum
    /// mismatch away from the tail, a duplicated or out-of-order epoch
    /// within one file, or an impossible length field.
    Corrupt {
        /// The file that failed validation.
        path: String,
        /// Byte offset of the first invalid record or field.
        offset: u64,
        /// What exactly failed.
        detail: String,
    },
    /// The epoch sequence has a hole: replay expected `expected` next but
    /// found `found` (or the caller appended out of order).
    EpochGap {
        /// The epoch the contiguous sequence required next.
        expected: u64,
        /// The epoch actually encountered.
        found: u64,
    },
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::Io { path, message } => write!(f, "ledger I/O on {path}: {message}"),
            LedgerError::Corrupt {
                path,
                offset,
                detail,
            } => write!(f, "ledger corruption in {path} at byte {offset}: {detail}"),
            LedgerError::EpochGap { expected, found } => write!(
                f,
                "ledger epoch sequence broken: expected epoch {expected}, found {found}"
            ),
        }
    }
}

impl Error for LedgerError {}

impl LedgerError {
    pub(crate) fn io(path: &std::path::Path, err: std::io::Error) -> Self {
        LedgerError::Io {
            path: path.display().to_string(),
            message: err.to_string(),
        }
    }
}
