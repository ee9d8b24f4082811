//! Write-ahead log file format and readers/writers.
//!
//! A log file is an 8-byte magic header followed by records:
//!
//! ```text
//! [body_len: u32 LE][crc32(body): u32 LE][body = epoch u64 LE ++ payload]
//! ```
//!
//! Reading distinguishes a *torn tail* (a crash mid-append left an
//! incomplete or checksum-failing final record — tolerated, reported via
//! [`TailStatus::Torn`]) from *corruption* (an invalid record with valid
//! data after it, or a duplicated / out-of-order epoch — a hard
//! [`LedgerError::Corrupt`]).

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::crc::crc32;
use crate::LedgerError;

/// Magic bytes opening every WAL file (active or sealed).
pub(crate) const WAL_MAGIC: &[u8; 8] = b"NYWAL01\n";

/// Upper bound on a single record body; a length field beyond this is
/// treated as invalid rather than allocated.
pub(crate) const MAX_RECORD_BYTES: u32 = 1 << 30;

/// One decoded log record: the epoch it produced and its opaque payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// The epoch this record's batch produced when applied.
    pub epoch: u64,
    /// Opaque payload (the facade encodes the `UpdateBatch` here).
    pub payload: Vec<u8>,
}

/// Whether a WAL file ended cleanly or with a torn final record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TailStatus {
    /// The file ends exactly at a record boundary.
    Clean,
    /// The file ends with an incomplete or checksum-failing final record
    /// (a crash mid-append). `valid_len` is the byte offset of the end of
    /// the last valid record; truncating to it repairs the file.
    Torn {
        /// Offset of the end of the last valid record.
        valid_len: u64,
    },
}

/// Outcome of reading a WAL file.
pub(crate) struct WalContents {
    pub records: Vec<WalRecord>,
    pub tail: TailStatus,
    /// Total file length in bytes (including any torn suffix).
    pub file_len: u64,
}

/// Read every record of the WAL at `path`.
///
/// With `tolerate_torn_tail`, trailing bytes that do not form a complete
/// valid record are reported as [`TailStatus::Torn`] instead of an error —
/// this is correct only for the *active* tail, where a crash mid-append is
/// expected. Sealed history files are written atomically and must be
/// fully valid, so they are read with `tolerate_torn_tail = false`.
///
/// Epochs within one file must be strictly increasing; a duplicated or
/// out-of-order record is corruption regardless of tail tolerance.
pub(crate) fn read_wal(path: &Path, tolerate_torn_tail: bool) -> Result<WalContents, LedgerError> {
    let mut file = File::open(path).map_err(|e| LedgerError::io(path, e))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| LedgerError::io(path, e))?;
    let file_len = bytes.len() as u64;

    if bytes.len() < WAL_MAGIC.len() {
        // A crash while creating the file can leave a partial header.
        if tolerate_torn_tail {
            return Ok(WalContents {
                records: Vec::new(),
                tail: TailStatus::Torn { valid_len: 0 },
                file_len,
            });
        }
        return Err(corrupt(path, 0, "file shorter than the WAL header"));
    }
    if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(corrupt(path, 0, "bad WAL magic"));
    }

    let mut records = Vec::new();
    let mut offset = WAL_MAGIC.len();
    let mut last_epoch: Option<u64> = None;
    loop {
        if offset == bytes.len() {
            return Ok(WalContents {
                records,
                tail: TailStatus::Clean,
                file_len,
            });
        }
        let torn = |valid_len: usize| {
            if tolerate_torn_tail {
                Ok(WalContents {
                    records: Vec::new(), // replaced by caller below
                    tail: TailStatus::Torn {
                        valid_len: valid_len as u64,
                    },
                    file_len,
                })
            } else {
                Err(corrupt(
                    path,
                    valid_len as u64,
                    "incomplete record in a sealed WAL file",
                ))
            }
        };
        // Record header: body length + checksum.
        if bytes.len() - offset < 8 {
            let mut out = torn(offset)?;
            out.records = records;
            return Ok(out);
        }
        let body_len = u32_le(&bytes[offset..offset + 4]);
        let stored_crc = u32_le(&bytes[offset + 4..offset + 8]);
        let body_start = offset + 8;
        if !(8..=MAX_RECORD_BYTES).contains(&body_len) {
            // An impossible length field. If nothing follows, this is a
            // torn header (garbage from a partial write); with valid-sized
            // data after it we cannot resync, so it is hard corruption.
            let claimed_end = body_start.saturating_add(body_len as usize);
            if claimed_end >= bytes.len() {
                let mut out = torn(offset)?;
                out.records = records;
                return Ok(out);
            }
            return Err(corrupt(path, offset as u64, "invalid record length"));
        }
        let body_end = body_start + body_len as usize;
        if body_end > bytes.len() {
            let mut out = torn(offset)?;
            out.records = records;
            return Ok(out);
        }
        let body = &bytes[body_start..body_end];
        if crc32(body) != stored_crc {
            // A checksum failure on the *final* record is a torn append;
            // anywhere else it is corruption.
            if body_end == bytes.len() {
                let mut out = torn(offset)?;
                out.records = records;
                return Ok(out);
            }
            return Err(corrupt(path, offset as u64, "record checksum mismatch"));
        }
        let epoch = u64_le(&body[..8]);
        if let Some(prev) = last_epoch {
            if epoch <= prev {
                return Err(corrupt(
                    path,
                    offset as u64,
                    &format!("duplicate or out-of-order epoch {epoch} after {prev}"),
                ));
            }
        }
        last_epoch = Some(epoch);
        records.push(WalRecord {
            epoch,
            payload: body[8..].to_vec(),
        });
        offset = body_end;
    }
}

/// An open handle appending records to the active WAL.
#[derive(Debug)]
pub(crate) struct WalWriter {
    path: PathBuf,
    file: File,
    len: u64,
}

impl WalWriter {
    /// Open `path` for appending, creating it (with the magic header) if
    /// absent. `len` must be the known-valid length of the file — the
    /// writer appends at that offset.
    pub(crate) fn open(path: &Path, len: u64) -> Result<Self, LedgerError> {
        let exists = path.exists();
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| LedgerError::io(path, e))?;
        let mut len = len;
        if !exists || len < WAL_MAGIC.len() as u64 {
            file.write_all(WAL_MAGIC)
                .map_err(|e| LedgerError::io(path, e))?;
            file.sync_data().map_err(|e| LedgerError::io(path, e))?;
            len = WAL_MAGIC.len() as u64;
        }
        Ok(WalWriter {
            path: path.to_path_buf(),
            file,
            len,
        })
    }

    /// Append one record and `fdatasync` it. Returns the bytes written.
    pub(crate) fn append(&mut self, epoch: u64, payload: &[u8]) -> Result<u64, LedgerError> {
        let body_len = 8 + payload.len();
        if body_len as u64 > MAX_RECORD_BYTES as u64 {
            return Err(LedgerError::Io {
                path: self.path.display().to_string(),
                message: format!(
                    "record payload of {} bytes exceeds the 1 GiB cap",
                    payload.len()
                ),
            });
        }
        let mut body = Vec::with_capacity(body_len);
        body.extend_from_slice(&epoch.to_le_bytes());
        body.extend_from_slice(payload);
        let mut frame = Vec::with_capacity(8 + body.len());
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        self.file
            .write_all(&frame)
            .map_err(|e| LedgerError::io(&self.path, e))?;
        self.file
            .sync_data()
            .map_err(|e| LedgerError::io(&self.path, e))?;
        self.len += frame.len() as u64;
        Ok(frame.len() as u64)
    }

    /// Current valid length of the file in bytes.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }
}

/// Serialize `records` into a fresh WAL byte image (header + records).
pub(crate) fn encode_wal(records: &[&WalRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        WAL_MAGIC.len() + records.iter().map(|r| 16 + r.payload.len()).sum::<usize>(),
    );
    out.extend_from_slice(WAL_MAGIC);
    for record in records {
        let mut body = Vec::with_capacity(8 + record.payload.len());
        body.extend_from_slice(&record.epoch.to_le_bytes());
        body.extend_from_slice(&record.payload);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
    }
    out
}

fn corrupt(path: &Path, offset: u64, detail: &str) -> LedgerError {
    LedgerError::Corrupt {
        path: path.display().to_string(),
        offset,
        detail: detail.to_string(),
    }
}

fn u32_le(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().expect("4-byte slice"))
}

fn u64_le(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8-byte slice"))
}
