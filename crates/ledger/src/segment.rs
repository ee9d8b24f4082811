//! Immutable index-segment files.
//!
//! A segment is a full snapshot of the extensional database at one flush
//! epoch, written once and never modified:
//!
//! ```text
//! [magic 8B "NYSEG01\n"][epoch u64 LE][payload_len u64 LE]
//! [crc32(payload) u32 LE][payload]
//! ```
//!
//! Segments are written atomically: the bytes go to a `.tmp` sibling,
//! which is synced, renamed over the final name, and the directory is
//! synced — a crash leaves either no segment or a complete valid one.

use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::crc::crc32;
use crate::LedgerError;

pub(crate) const SEGMENT_MAGIC: &[u8; 8] = b"NYSEG01\n";
const HEADER_LEN: usize = 8 + 8 + 8 + 4;

/// Metadata of a segment file on disk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct SegmentMeta {
    /// The epoch whose database the segment snapshots.
    pub epoch: u64,
    /// Total file size in bytes (header + payload).
    pub bytes: u64,
    /// Path of the segment file.
    pub path: PathBuf,
}

/// The file name used for the segment at `epoch` (zero-padded so that
/// lexicographic order equals epoch order).
pub(crate) fn segment_file_name(epoch: u64) -> String {
    format!("seg-{epoch:020}.seg")
}

/// Parse an epoch back out of a name produced by [`segment_file_name`].
pub(crate) fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("seg-")?.strip_suffix(".seg")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Atomically write the segment for `epoch` into `dir`.
pub(crate) fn write_segment_atomic(
    dir: &Path,
    epoch: u64,
    payload: &[u8],
) -> Result<SegmentMeta, LedgerError> {
    let final_path = dir.join(segment_file_name(epoch));
    let tmp_path = dir.join(format!("{}.tmp", segment_file_name(epoch)));

    let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
    bytes.extend_from_slice(SEGMENT_MAGIC);
    bytes.extend_from_slice(&epoch.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&crc32(payload).to_le_bytes());
    bytes.extend_from_slice(payload);

    write_file_atomic(&tmp_path, &final_path, &bytes)?;
    Ok(SegmentMeta {
        epoch,
        bytes: bytes.len() as u64,
        path: final_path,
    })
}

/// Read and fully validate the segment at `path`, returning its epoch and
/// payload.
pub(crate) fn read_segment(path: &Path) -> Result<(u64, Vec<u8>), LedgerError> {
    let mut file = File::open(path).map_err(|e| LedgerError::io(path, e))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| LedgerError::io(path, e))?;
    if bytes.len() < HEADER_LEN {
        return Err(corrupt(path, 0, "file shorter than the segment header"));
    }
    if &bytes[..8] != SEGMENT_MAGIC {
        return Err(corrupt(path, 0, "bad segment magic"));
    }
    let epoch = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
    let payload_len = u64::from_le_bytes(bytes[16..24].try_into().expect("8-byte slice"));
    let stored_crc = u32::from_le_bytes(bytes[24..28].try_into().expect("4-byte slice"));
    if payload_len != (bytes.len() - HEADER_LEN) as u64 {
        return Err(corrupt(path, 16, "segment payload length mismatch"));
    }
    let payload = &bytes[HEADER_LEN..];
    if crc32(payload) != stored_crc {
        return Err(corrupt(path, 24, "segment checksum mismatch"));
    }
    if let Some(name_epoch) = path
        .file_name()
        .and_then(|n| n.to_str())
        .and_then(parse_segment_name)
    {
        if name_epoch != epoch {
            return Err(corrupt(path, 8, "segment epoch does not match file name"));
        }
    }
    Ok((epoch, payload.to_vec()))
}

/// Write `bytes` to `final_path` atomically via `tmp_path`: write + sync
/// the tmp file, rename it into place, then sync the containing directory.
pub(crate) fn write_file_atomic(
    tmp_path: &Path,
    final_path: &Path,
    bytes: &[u8],
) -> Result<(), LedgerError> {
    {
        let mut tmp = File::create(tmp_path).map_err(|e| LedgerError::io(tmp_path, e))?;
        tmp.write_all(bytes)
            .map_err(|e| LedgerError::io(tmp_path, e))?;
        tmp.sync_all().map_err(|e| LedgerError::io(tmp_path, e))?;
    }
    fs::rename(tmp_path, final_path).map_err(|e| LedgerError::io(final_path, e))?;
    if let Some(dir) = final_path.parent() {
        sync_dir(dir)?;
    }
    Ok(())
}

/// Fsync a directory so a just-renamed entry survives a crash. A no-op on
/// platforms where directories cannot be opened as files.
pub(crate) fn sync_dir(dir: &Path) -> Result<(), LedgerError> {
    #[cfg(unix)]
    {
        let handle = File::open(dir).map_err(|e| LedgerError::io(dir, e))?;
        handle.sync_all().map_err(|e| LedgerError::io(dir, e))?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

fn corrupt(path: &Path, offset: u64, detail: &str) -> LedgerError {
    LedgerError::Corrupt {
        path: path.display().to_string(),
        offset,
        detail: detail.to_string(),
    }
}
