//! The [`Ledger`]: the durable store combining the active WAL, immutable
//! segments, and sealed history files, with crash recovery and epoch
//! materialization reads.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};

use crate::segment::{
    parse_segment_name, read_segment, segment_file_name, write_file_atomic, write_segment_atomic,
};
use crate::wal::{self, encode_wal, TailStatus, WalRecord, WalWriter};
use crate::LedgerError;

const ACTIVE_WAL: &str = "wal.log";
const SEGMENTS_DIR: &str = "segments";
const HISTORY_DIR: &str = "history";

/// What [`Ledger::open`] found in a non-empty ledger directory.
#[derive(Clone, Debug)]
pub struct RecoveredState {
    /// The newest valid segment, if any: its epoch and opaque payload.
    pub segment: Option<(u64, Vec<u8>)>,
    /// Log records after the segment, in epoch order — the replay tail.
    pub tail: Vec<WalRecord>,
    /// The newest epoch the ledger knows (segment epoch if the tail is
    /// empty).
    pub latest_epoch: u64,
    /// Whether the active WAL ended with a torn final record (which was
    /// truncated away and the file repaired).
    pub torn_tail: bool,
    /// How many newest segments failed validation and were skipped in
    /// favor of an older one.
    pub segments_skipped: usize,
}

/// Outcome of one [`Ledger::flush_segment`] call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentFlush {
    /// The epoch the new segment snapshots.
    pub epoch: u64,
    /// Size of the new segment file in bytes.
    pub segment_bytes: u64,
    /// How many active-WAL records were sealed into history.
    pub sealed_records: usize,
    /// How many records remain in the active WAL after rotation.
    pub remaining_records: usize,
}

/// A segment listed by [`Ledger::history`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentInfo {
    /// The epoch the segment snapshots.
    pub epoch: u64,
    /// File size in bytes.
    pub bytes: u64,
}

/// A sealed WAL range listed by [`Ledger::history`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedWalInfo {
    /// First epoch in the file.
    pub from: u64,
    /// Last epoch in the file.
    pub to: u64,
    /// File size in bytes.
    pub bytes: u64,
}

/// A report of everything the ledger holds on disk.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LedgerHistory {
    /// All segments, oldest first.
    pub segments: Vec<SegmentInfo>,
    /// All sealed WAL ranges, oldest first.
    pub sealed: Vec<SealedWalInfo>,
    /// Records currently in the active WAL.
    pub active_records: usize,
    /// First epoch in the active WAL, if any.
    pub active_from: Option<u64>,
    /// Active WAL size in bytes.
    pub active_bytes: u64,
    /// The newest epoch the ledger knows.
    pub latest_epoch: u64,
}

/// The durable ledger rooted at one directory. See the crate docs for the
/// layout and durability contract.
///
/// A `Ledger` is single-writer: `append` and `flush_segment` take
/// `&mut self`. Callers that share one ledger between an applying thread
/// and a background compactor wrap it in a mutex.
#[derive(Debug)]
pub struct Ledger {
    root: PathBuf,
    wal_path: PathBuf,
    segments_dir: PathBuf,
    history_dir: PathBuf,
    writer: WalWriter,
    next_epoch: u64,
}

impl Ledger {
    /// Open (or create) the ledger rooted at `root`.
    ///
    /// Returns `None` for the recovered state when the directory holds no
    /// data (a fresh ledger); otherwise recovers: picks the newest valid
    /// segment, reads the log records after it from sealed history plus
    /// the active WAL, repairs a torn active tail by truncation, and
    /// verifies the epoch sequence is contiguous.
    pub fn open(root: &Path) -> Result<(Ledger, Option<RecoveredState>), LedgerError> {
        let wal_path = root.join(ACTIVE_WAL);
        let segments_dir = root.join(SEGMENTS_DIR);
        let history_dir = root.join(HISTORY_DIR);
        for dir in [root, &segments_dir, &history_dir] {
            fs::create_dir_all(dir).map_err(|e| LedgerError::io(dir, e))?;
        }

        // Read (and if necessary repair) the active WAL.
        let (active_records, torn_tail, active_valid_len) = if wal_path.exists() {
            let contents = wal::read_wal(&wal_path, true)?;
            match contents.tail {
                TailStatus::Clean => (contents.records, false, contents.file_len),
                TailStatus::Torn { valid_len } => {
                    let file = OpenOptions::new()
                        .write(true)
                        .open(&wal_path)
                        .map_err(|e| LedgerError::io(&wal_path, e))?;
                    file.set_len(valid_len)
                        .map_err(|e| LedgerError::io(&wal_path, e))?;
                    file.sync_all().map_err(|e| LedgerError::io(&wal_path, e))?;
                    (contents.records, true, valid_len)
                }
            }
        } else {
            (Vec::new(), false, 0)
        };

        let segment_epochs = list_segments(&segments_dir)?;
        let sealed_ranges = list_sealed(&history_dir)?;

        if segment_epochs.is_empty() && sealed_ranges.is_empty() && active_records.is_empty() {
            let writer = WalWriter::open(&wal_path, active_valid_len)?;
            let ledger = Ledger {
                root: root.to_path_buf(),
                wal_path,
                segments_dir,
                history_dir,
                writer,
                next_epoch: 1,
            };
            return Ok((ledger, None));
        }

        // Newest valid segment, skipping corrupt ones in favor of older.
        let mut segment = None;
        let mut segments_skipped = 0usize;
        let mut last_err = None;
        for &epoch in segment_epochs.iter().rev() {
            let path = segments_dir.join(segment_file_name(epoch));
            match read_segment(&path) {
                Ok((seg_epoch, payload)) => {
                    segment = Some((seg_epoch, payload));
                    break;
                }
                Err(err @ LedgerError::Corrupt { .. }) => {
                    segments_skipped += 1;
                    last_err = Some(err);
                }
                Err(err) => return Err(err),
            }
        }
        if segment.is_none() {
            if let Some(err) = last_err {
                // Every segment failed validation: the replay base is gone.
                return Err(err);
            }
        }
        let base_epoch = segment.as_ref().map(|(e, _)| *e).unwrap_or(0);

        // Tail records after the base: sealed ranges that extend past it,
        // then the active WAL. Duplicates across files (a crash between
        // sealing and rewriting the active WAL) are tolerated; duplicates
        // within one file were already rejected as corruption.
        let mut by_epoch: BTreeMap<u64, WalRecord> = BTreeMap::new();
        for range in &sealed_ranges {
            if range.to <= base_epoch {
                continue;
            }
            let path = history_dir.join(sealed_file_name(range.from, range.to));
            let contents = wal::read_wal(&path, false)?;
            for record in contents.records {
                if record.epoch > base_epoch {
                    by_epoch.entry(record.epoch).or_insert(record);
                }
            }
        }
        for record in active_records {
            if record.epoch > base_epoch {
                by_epoch.entry(record.epoch).or_insert(record);
            }
        }

        let latest_epoch = by_epoch.keys().next_back().copied().unwrap_or(base_epoch);
        for (expected, &epoch) in (base_epoch + 1..).zip(by_epoch.keys()) {
            if epoch != expected {
                return Err(LedgerError::EpochGap {
                    expected,
                    found: epoch,
                });
            }
        }

        let writer = WalWriter::open(&wal_path, active_valid_len)?;
        let ledger = Ledger {
            root: root.to_path_buf(),
            wal_path,
            segments_dir,
            history_dir,
            writer,
            next_epoch: latest_epoch + 1,
        };
        let recovered = RecoveredState {
            segment,
            tail: by_epoch.into_values().collect(),
            latest_epoch,
            torn_tail,
            segments_skipped,
        };
        Ok((ledger, Some(recovered)))
    }

    /// Append the record producing `epoch` and fsync it. `epoch` must be
    /// exactly the next epoch in sequence. Returns the bytes written.
    pub fn append(&mut self, epoch: u64, payload: &[u8]) -> Result<u64, LedgerError> {
        if epoch != self.next_epoch {
            return Err(LedgerError::EpochGap {
                expected: self.next_epoch,
                found: epoch,
            });
        }
        let bytes = self.writer.append(epoch, payload)?;
        self.next_epoch += 1;
        Ok(bytes)
    }

    /// Write an immutable segment snapshotting `epoch`, then rotate the
    /// active WAL: records at or below `epoch` are sealed into a history
    /// file and the active WAL is rewritten with only the remainder.
    ///
    /// `epoch` must already exist (a segment cannot snapshot the future).
    pub fn flush_segment(
        &mut self,
        epoch: u64,
        payload: &[u8],
    ) -> Result<SegmentFlush, LedgerError> {
        if epoch >= self.next_epoch {
            return Err(LedgerError::EpochGap {
                expected: self.next_epoch - 1,
                found: epoch,
            });
        }
        let meta = write_segment_atomic(&self.segments_dir, epoch, payload)?;

        let contents = wal::read_wal(&self.wal_path, true)?;
        let (prefix, suffix): (Vec<_>, Vec<_>) =
            contents.records.iter().partition(|r| r.epoch <= epoch);

        if !prefix.is_empty() {
            let from = prefix.first().expect("non-empty prefix").epoch;
            let to = prefix.last().expect("non-empty prefix").epoch;
            let final_path = self.history_dir.join(sealed_file_name(from, to));
            let tmp_path = self
                .history_dir
                .join(format!("{}.tmp", sealed_file_name(from, to)));
            write_file_atomic(&tmp_path, &final_path, &encode_wal(&prefix))?;

            let new_active = encode_wal(&suffix);
            let tmp_wal = self.root.join("wal.log.tmp");
            write_file_atomic(&tmp_wal, &self.wal_path, &new_active)?;
            self.writer = WalWriter::open(&self.wal_path, new_active.len() as u64)?;
        }

        Ok(SegmentFlush {
            epoch,
            segment_bytes: meta.bytes,
            sealed_records: prefix.len(),
            remaining_records: suffix.len(),
        })
    }

    /// All records with epochs in `(after, upto]`, gathered from sealed
    /// history and the active WAL, in epoch order. Errors with
    /// [`LedgerError::EpochGap`] if any epoch in the range is missing.
    pub fn records_between(&self, after: u64, upto: u64) -> Result<Vec<WalRecord>, LedgerError> {
        let mut by_epoch: BTreeMap<u64, WalRecord> = BTreeMap::new();
        if upto > after {
            for range in list_sealed(&self.history_dir)? {
                if range.to <= after || range.from > upto {
                    continue;
                }
                let path = self
                    .history_dir
                    .join(sealed_file_name(range.from, range.to));
                let contents = wal::read_wal(&path, false)?;
                for record in contents.records {
                    if record.epoch > after && record.epoch <= upto {
                        by_epoch.entry(record.epoch).or_insert(record);
                    }
                }
            }
            if self.wal_path.exists() {
                let contents = wal::read_wal(&self.wal_path, true)?;
                for record in contents.records {
                    if record.epoch > after && record.epoch <= upto {
                        by_epoch.entry(record.epoch).or_insert(record);
                    }
                }
            }
        }
        for expected in (after + 1)..=upto {
            if !by_epoch.contains_key(&expected) {
                let found = by_epoch
                    .range(expected..)
                    .next()
                    .map(|(&e, _)| e)
                    .unwrap_or(upto);
                return Err(LedgerError::EpochGap { expected, found });
            }
        }
        Ok(by_epoch.into_values().collect())
    }

    /// The newest valid segment at or below `epoch`, if any. Corrupt
    /// segments are skipped in favor of older ones (the sealed history
    /// still covers the difference).
    pub fn segment_at_or_before(&self, epoch: u64) -> Result<Option<(u64, Vec<u8>)>, LedgerError> {
        for seg_epoch in list_segments(&self.segments_dir)?.into_iter().rev() {
            if seg_epoch > epoch {
                continue;
            }
            let path = self.segments_dir.join(segment_file_name(seg_epoch));
            match read_segment(&path) {
                Ok(found) => return Ok(Some(found)),
                Err(LedgerError::Corrupt { .. }) => continue,
                Err(err) => return Err(err),
            }
        }
        Ok(None)
    }

    /// Report everything the ledger holds on disk.
    pub fn history(&self) -> Result<LedgerHistory, LedgerError> {
        let mut segments = Vec::new();
        for epoch in list_segments(&self.segments_dir)? {
            let path = self.segments_dir.join(segment_file_name(epoch));
            let bytes = fs::metadata(&path)
                .map_err(|e| LedgerError::io(&path, e))?
                .len();
            segments.push(SegmentInfo { epoch, bytes });
        }
        let mut sealed = Vec::new();
        for range in list_sealed(&self.history_dir)? {
            let path = self
                .history_dir
                .join(sealed_file_name(range.from, range.to));
            let bytes = fs::metadata(&path)
                .map_err(|e| LedgerError::io(&path, e))?
                .len();
            sealed.push(SealedWalInfo {
                from: range.from,
                to: range.to,
                bytes,
            });
        }
        let contents = wal::read_wal(&self.wal_path, true)?;
        Ok(LedgerHistory {
            segments,
            sealed,
            active_records: contents.records.len(),
            active_from: contents.records.first().map(|r| r.epoch),
            active_bytes: self.writer.len(),
            latest_epoch: self.next_epoch - 1,
        })
    }

    /// The epoch the next [`Ledger::append`] must carry.
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// The directory the ledger is rooted at.
    pub fn root(&self) -> &Path {
        &self.root
    }
}

#[derive(Clone, Copy, Debug)]
struct SealedRange {
    from: u64,
    to: u64,
}

fn sealed_file_name(from: u64, to: u64) -> String {
    format!("wal-{from:020}-{to:020}.log")
}

fn parse_sealed_name(name: &str) -> Option<SealedRange> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    let (from, to) = rest.split_once('-')?;
    if from.len() != 20 || to.len() != 20 {
        return None;
    }
    Some(SealedRange {
        from: from.parse().ok()?,
        to: to.parse().ok()?,
    })
}

fn list_segments(dir: &Path) -> Result<Vec<u64>, LedgerError> {
    let mut epochs = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| LedgerError::io(dir, e))? {
        let entry = entry.map_err(|e| LedgerError::io(dir, e))?;
        if let Some(epoch) = entry.file_name().to_str().and_then(parse_segment_name) {
            epochs.push(epoch);
        }
    }
    epochs.sort_unstable();
    Ok(epochs)
}

fn list_sealed(dir: &Path) -> Result<Vec<SealedRange>, LedgerError> {
    let mut ranges = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| LedgerError::io(dir, e))? {
        let entry = entry.map_err(|e| LedgerError::io(dir, e))?;
        if let Some(range) = entry.file_name().to_str().and_then(parse_sealed_name) {
            ranges.push(range);
        }
    }
    ranges.sort_unstable_by_key(|r| (r.from, r.to));
    Ok(ranges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct TempRoot(PathBuf);

    impl TempRoot {
        fn new(tag: &str) -> Self {
            static COUNTER: AtomicUsize = AtomicUsize::new(0);
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("nyaya-ledger-{tag}-{}-{n}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            TempRoot(dir)
        }
    }

    impl Drop for TempRoot {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn payload(epoch: u64) -> Vec<u8> {
        format!("batch-{epoch}").into_bytes()
    }

    #[test]
    fn fresh_open_then_reopen_replays_everything() {
        let root = TempRoot::new("fresh");
        let (mut ledger, recovered) = Ledger::open(&root.0).expect("open fresh");
        assert!(recovered.is_none());
        for epoch in 1..=5 {
            ledger.append(epoch, &payload(epoch)).expect("append");
        }
        drop(ledger);

        let (ledger, recovered) = Ledger::open(&root.0).expect("reopen");
        let recovered = recovered.expect("non-empty ledger");
        assert!(recovered.segment.is_none());
        assert_eq!(recovered.latest_epoch, 5);
        assert!(!recovered.torn_tail);
        let epochs: Vec<u64> = recovered.tail.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![1, 2, 3, 4, 5]);
        assert_eq!(recovered.tail[2].payload, payload(3));
        assert_eq!(ledger.next_epoch(), 6);
    }

    #[test]
    fn append_enforces_the_epoch_sequence() {
        let root = TempRoot::new("seq");
        let (mut ledger, _) = Ledger::open(&root.0).expect("open");
        ledger.append(1, b"a").expect("append 1");
        let err = ledger.append(3, b"c").expect_err("gap rejected");
        assert_eq!(
            err,
            LedgerError::EpochGap {
                expected: 2,
                found: 3
            }
        );
    }

    #[test]
    fn flush_seals_the_prefix_and_recovery_uses_the_segment() {
        let root = TempRoot::new("flush");
        let (mut ledger, _) = Ledger::open(&root.0).expect("open");
        for epoch in 1..=6 {
            ledger.append(epoch, &payload(epoch)).expect("append");
        }
        let flush = ledger.flush_segment(4, b"segment-at-4").expect("flush");
        assert_eq!(flush.sealed_records, 4);
        assert_eq!(flush.remaining_records, 2);
        // Appends keep working on the rotated active file.
        ledger
            .append(7, &payload(7))
            .expect("append after rotation");
        drop(ledger);

        let (ledger, recovered) = Ledger::open(&root.0).expect("reopen");
        let recovered = recovered.expect("non-empty");
        let (seg_epoch, seg_payload) = recovered.segment.clone().expect("segment");
        assert_eq!(seg_epoch, 4);
        assert_eq!(seg_payload, b"segment-at-4");
        let epochs: Vec<u64> = recovered.tail.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![5, 6, 7]);

        // Sealed history still materializes the pre-segment epochs.
        let all = ledger.records_between(0, 7).expect("records");
        let epochs: Vec<u64> = all.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(all[0].payload, payload(1));
    }

    #[test]
    fn torn_tail_is_tolerated_and_repaired() {
        let root = TempRoot::new("torn");
        let (mut ledger, _) = Ledger::open(&root.0).expect("open");
        for epoch in 1..=3 {
            ledger.append(epoch, &payload(epoch)).expect("append");
        }
        drop(ledger);
        // Simulate a crash mid-append: half a record at the end.
        let wal = root.0.join(ACTIVE_WAL);
        let mut file = OpenOptions::new()
            .append(true)
            .open(&wal)
            .expect("open wal");
        file.write_all(&[0x20, 0x00, 0x00, 0x00, 0xAB, 0xCD])
            .expect("torn bytes");
        drop(file);

        let (mut ledger, recovered) = Ledger::open(&root.0).expect("reopen");
        let recovered = recovered.expect("non-empty");
        assert!(recovered.torn_tail);
        assert_eq!(recovered.latest_epoch, 3);
        // The repair truncated the garbage; new appends produce a clean file.
        ledger.append(4, &payload(4)).expect("append after repair");
        drop(ledger);
        let (_, recovered) = Ledger::open(&root.0).expect("reopen again");
        let recovered = recovered.expect("non-empty");
        assert!(!recovered.torn_tail);
        assert_eq!(recovered.latest_epoch, 4);
    }

    #[test]
    fn mid_file_bit_flip_is_corruption_not_data_loss() {
        let root = TempRoot::new("flip");
        let (mut ledger, _) = Ledger::open(&root.0).expect("open");
        for epoch in 1..=3 {
            ledger.append(epoch, &payload(epoch)).expect("append");
        }
        drop(ledger);
        let wal = root.0.join(ACTIVE_WAL);
        let mut bytes = fs::read(&wal).expect("read wal");
        // Flip a bit inside the first record's payload, far from the tail.
        let target = wal::WAL_MAGIC.len() + 8 + 8 + 2;
        bytes[target] ^= 0x01;
        fs::write(&wal, &bytes).expect("write back");

        let err = Ledger::open(&root.0).expect_err("corruption detected");
        assert!(matches!(err, LedgerError::Corrupt { .. }), "got {err:?}");
    }

    #[test]
    fn duplicated_record_is_corruption() {
        let root = TempRoot::new("dup");
        let (mut ledger, _) = Ledger::open(&root.0).expect("open");
        for epoch in 1..=2 {
            ledger.append(epoch, &payload(epoch)).expect("append");
        }
        drop(ledger);
        let wal = root.0.join(ACTIVE_WAL);
        let bytes = fs::read(&wal).expect("read wal");
        // Duplicate the final record verbatim.
        let record_len = 8 + 8 + payload(2).len();
        let tail = bytes[bytes.len() - record_len..].to_vec();
        let mut file = OpenOptions::new().append(true).open(&wal).expect("open");
        file.write_all(&tail).expect("append duplicate");
        drop(file);

        let err = Ledger::open(&root.0).expect_err("duplicate detected");
        match err {
            LedgerError::Corrupt { detail, .. } => {
                assert!(detail.contains("duplicate"), "detail: {detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_newest_segment_falls_back_to_an_older_one() {
        let root = TempRoot::new("segfall");
        let (mut ledger, _) = Ledger::open(&root.0).expect("open");
        for epoch in 1..=6 {
            ledger.append(epoch, &payload(epoch)).expect("append");
        }
        ledger.flush_segment(3, b"segment-3").expect("flush 3");
        ledger.flush_segment(6, b"segment-6").expect("flush 6");
        drop(ledger);
        // Damage the newest segment's checksum.
        let seg6 = root.0.join(SEGMENTS_DIR).join(segment_file_name(6));
        let mut bytes = fs::read(&seg6).expect("read segment");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&seg6, &bytes).expect("write back");

        let (ledger, recovered) = Ledger::open(&root.0).expect("reopen");
        let recovered = recovered.expect("non-empty");
        assert_eq!(recovered.segments_skipped, 1);
        let (seg_epoch, seg_payload) = recovered.segment.clone().expect("fallback segment");
        assert_eq!(seg_epoch, 3);
        assert_eq!(seg_payload, b"segment-3");
        // The sealed history covers 4..=6, so nothing is lost.
        let epochs: Vec<u64> = recovered.tail.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![4, 5, 6]);
        assert_eq!(
            ledger
                .segment_at_or_before(6)
                .expect("lookup")
                .expect("found")
                .0,
            3
        );
    }

    #[test]
    fn history_reports_segments_sealed_ranges_and_the_active_tail() {
        let root = TempRoot::new("history");
        let (mut ledger, _) = Ledger::open(&root.0).expect("open");
        for epoch in 1..=5 {
            ledger.append(epoch, &payload(epoch)).expect("append");
        }
        ledger.flush_segment(3, b"segment-3").expect("flush");
        let history = ledger.history().expect("history");
        assert_eq!(
            history.segments,
            vec![SegmentInfo {
                epoch: 3,
                bytes: history.segments[0].bytes
            }]
        );
        assert_eq!(history.sealed.len(), 1);
        assert_eq!((history.sealed[0].from, history.sealed[0].to), (1, 3));
        assert_eq!(history.active_records, 2);
        assert_eq!(history.active_from, Some(4));
        assert_eq!(history.latest_epoch, 5);
    }

    #[test]
    fn records_between_reports_gaps_with_a_typed_error() {
        let root = TempRoot::new("gap");
        let (mut ledger, _) = Ledger::open(&root.0).expect("open");
        for epoch in 1..=3 {
            ledger.append(epoch, &payload(epoch)).expect("append");
        }
        let err = ledger.records_between(0, 5).expect_err("missing epochs");
        assert_eq!(
            err,
            LedgerError::EpochGap {
                expected: 4,
                found: 5
            }
        );
    }
}
