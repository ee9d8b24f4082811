//! The durable-ledger layer behind [`KnowledgeBase`](crate::KnowledgeBase).
//!
//! A durable knowledge base (built with
//! [`KnowledgeBaseBuilder::durable`](crate::KnowledgeBaseBuilder::durable))
//! wires three pieces around the in-memory snapshot machinery:
//!
//! 1. **Write-ahead log** — inside `apply()`, the encoded batch is
//!    appended and fsynced *before* the successor snapshot is published.
//!    If the append fails, nothing is published: a batch is either on
//!    disk and visible, or neither.
//! 2. **Index segments** — every `flush_interval` epochs the freshly
//!    published snapshot is handed to a background compactor thread,
//!    which encodes the full database and writes an immutable segment,
//!    sealing the replayed WAL prefix into the ledger's history.
//!    Segment writes are an optimization (bounding recovery replay and
//!    as-of reconstruction cost), never a correctness requirement: the
//!    sealed WAL retains every batch ever applied.
//! 3. **Recovery & time travel** — on build over a non-empty directory,
//!    the newest valid segment is decoded and the WAL tail replayed to
//!    reconstruct the latest epoch; any *historical* epoch is
//!    materialized on demand from the nearest segment at or below it
//!    plus the sealed log, with a small cache of recently materialized
//!    snapshots.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use nyaya_core::Atom;
use nyaya_ledger::{Ledger, LedgerError, LedgerHistory, RecoveredState, SegmentFlush};
use nyaya_sql::segment::{decode_batch, decode_database, encode_batch, encode_database};
use nyaya_sql::{BuildCache, Catalog, Database};

use super::error::NyayaError;
use super::stats::Counters;
use super::update::{replay, Snapshot, UpdateBatch};

/// How many materialized historical snapshots to keep around.
const MATERIALIZED_CACHE_CAP: usize = 16;

/// One decoded WAL batch: `(epoch, retracts, inserts)`.
pub(crate) type LoggedBatch = (u64, Vec<Atom>, Vec<Atom>);

/// What [`Durability::open`] reconstructed from a non-empty data
/// directory.
pub(crate) struct RecoveredData {
    /// The database at the newest durable epoch.
    pub(crate) database: Database,
    /// That epoch.
    pub(crate) epoch: u64,
}

/// A request to the background compactor.
enum CompactorMsg {
    Flush(Arc<Snapshot>),
}

/// The per-knowledge-base durability state. Dropping it shuts the
/// compactor down (the channel closes, the thread drains and exits).
pub(crate) struct Durability {
    root: PathBuf,
    ledger: Arc<Mutex<Ledger>>,
    flush_interval: u64,
    counters: Arc<Counters>,
    materialized: Mutex<BTreeMap<u64, Arc<Snapshot>>>,
    sender: Option<SyncSender<CompactorMsg>>,
    worker: Option<JoinHandle<()>>,
}

impl Durability {
    /// The ledger mutex, surfacing poisoning as a typed error instead of
    /// a panic. The ledger is *write* state (WAL offsets, segment
    /// bookkeeping): a thread that panicked while holding it may have
    /// torn an in-memory invariant, so callers get
    /// [`NyayaError::Poisoned`] and the on-disk ledger stays untouched —
    /// reads over published snapshots keep working either way.
    fn ledger(&self) -> Result<MutexGuard<'_, Ledger>, NyayaError> {
        self.ledger.lock().map_err(|_| NyayaError::Poisoned {
            what: "durable ledger",
        })
    }

    /// Open the ledger at `root`, recovering whatever it holds. The
    /// ledger and its compactor thread bump the knowledge base's
    /// `counters`.
    pub(crate) fn open(
        root: &Path,
        flush_interval: u64,
        counters: Arc<Counters>,
    ) -> Result<(Durability, Option<RecoveredData>), NyayaError> {
        let (ledger, recovered) = Ledger::open(root)?;
        let recovered = match recovered {
            None => None,
            Some(state) => Some(Self::rebuild(state, &counters)?),
        };
        let ledger = Arc::new(Mutex::new(ledger));
        // Bounded to 1: at most one flush queued behind the one in
        // progress. A full queue skips the flush — the WAL keeps every
        // batch, so a skipped segment only delays replay-bound shrinking.
        let (sender, receiver) = std::sync::mpsc::sync_channel(1);
        let worker = std::thread::Builder::new()
            .name("nyaya-compactor".into())
            .spawn({
                let ledger = Arc::clone(&ledger);
                let counters = Arc::clone(&counters);
                move || run_compactor(receiver, ledger, counters)
            })
            .map_err(|e| NyayaError::LedgerIo {
                path: root.display().to_string(),
                message: format!("cannot spawn compactor thread: {e}"),
            })?;
        let durability = Durability {
            root: root.to_path_buf(),
            ledger,
            flush_interval: flush_interval.max(1),
            counters,
            materialized: Mutex::new(BTreeMap::new()),
            sender: Some(sender),
            worker: Some(worker),
        };
        Ok((durability, recovered))
    }

    /// Decode the recovered segment and replay the WAL tail over it.
    fn rebuild(state: RecoveredState, counters: &Counters) -> Result<RecoveredData, NyayaError> {
        let (seg_epoch, mut database) = match state.segment {
            Some((epoch, payload)) => (epoch, decode_database(&payload)?),
            None => {
                // A durable build always seeds segment 0 before the first
                // append, so records without any base mean the segment
                // store was damaged beyond the newest-segment fallback.
                return Err(NyayaError::LedgerCorrupt {
                    path: "segments/".into(),
                    offset: 0,
                    detail: "log records present but no valid base segment".into(),
                });
            }
        };
        let mut replayed = 0u64;
        for record in &state.tail {
            debug_assert!(record.epoch > seg_epoch);
            let (retracts, inserts) = decode_batch(&record.payload)?;
            replay(&mut database, &retracts, &inserts, |_, _| {});
            replayed += 1;
        }
        counters
            .recovery_replayed
            .store(replayed, Ordering::Relaxed);
        Ok(RecoveredData {
            database,
            epoch: state.latest_epoch,
        })
    }

    /// Write the epoch-0 base segment for a freshly created ledger. Done
    /// synchronously at build time so recovery always has a base to
    /// replay from.
    pub(crate) fn seed(&self, database: &Database) -> Result<(), NyayaError> {
        let payload = encode_database(database);
        let flush = self.ledger()?.flush_segment(0, &payload)?;
        self.record_flush(&flush);
        Ok(())
    }

    /// Append one batch as the record producing `epoch`, fsynced. Called
    /// by `apply()` **before** the snapshot swap.
    pub(crate) fn append_batch(&self, epoch: u64, batch: &UpdateBatch) -> Result<(), NyayaError> {
        let payload = encode_batch(batch.retracts(), batch.inserts());
        let bytes = self.ledger()?.append(epoch, &payload)?;
        self.counters.wal_records.fetch_add(1, Ordering::Relaxed);
        self.counters.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
        Ok(())
    }

    /// Hand the snapshot to the background compactor if its epoch is on
    /// the flush interval. Never blocks: a busy compactor skips the
    /// flush (the WAL retains everything).
    pub(crate) fn maybe_flush(&self, snapshot: &Arc<Snapshot>) {
        if snapshot.epoch() == 0 || !snapshot.epoch().is_multiple_of(self.flush_interval) {
            return;
        }
        if let Some(sender) = &self.sender {
            match sender.try_send(CompactorMsg::Flush(Arc::clone(snapshot))) {
                Ok(()) | Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {}
            }
        }
    }

    /// Synchronously flush a segment for `snapshot` (the CLI `compact`
    /// command and tests). Runs on the caller's thread.
    pub(crate) fn compact_now(&self, snapshot: &Snapshot) -> Result<SegmentFlush, NyayaError> {
        let payload = encode_database(snapshot.database());
        let flush = self.ledger()?.flush_segment(snapshot.epoch(), &payload)?;
        self.record_flush(&flush);
        Ok(flush)
    }

    /// The logged batches producing epochs `after + 1 ..= to`, decoded,
    /// in ascending epoch order — the catch-up feed for a subscription
    /// resuming from a historical epoch
    /// ([`KnowledgeBase::subscribe_from`]). Each entry is
    /// `(epoch, retracts, inserts)`.
    ///
    /// [`KnowledgeBase::subscribe_from`]: crate::KnowledgeBase::subscribe_from
    pub(crate) fn batches_between(
        &self,
        after: u64,
        to: u64,
    ) -> Result<Vec<LoggedBatch>, NyayaError> {
        let records = self.ledger()?.records_between(after, to)?;
        let mut out = Vec::with_capacity(records.len());
        for record in &records {
            let (retracts, inserts) = decode_batch(&record.payload)?;
            out.push((record.epoch, retracts, inserts));
        }
        Ok(out)
    }

    /// Materialize the snapshot of a historical `epoch` from the nearest
    /// segment at or below it plus the sealed log, with caching.
    pub(crate) fn materialize(
        &self,
        epoch: u64,
        owner: u64,
        catalog: &Catalog,
    ) -> Result<Arc<Snapshot>, NyayaError> {
        // The materialized cache is advisory (immutable Arc'd snapshots):
        // poisoning cannot tear an entry, so recover on both sides.
        if let Some(hit) = self
            .materialized
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&epoch)
        {
            return Ok(Arc::clone(hit));
        }
        let (base_epoch, mut database, records) = {
            let ledger = self.ledger()?;
            let (base_epoch, payload) =
                ledger
                    .segment_at_or_before(epoch)?
                    .ok_or_else(|| NyayaError::LedgerCorrupt {
                        path: "segments/".into(),
                        offset: 0,
                        detail: format!("no valid segment at or below epoch {epoch}"),
                    })?;
            let records = ledger.records_between(base_epoch, epoch)?;
            (base_epoch, decode_database(&payload)?, records)
        };
        debug_assert!(base_epoch <= epoch);
        // Per-predicate write epochs for the answer cache: a predicate
        // written by a replayed record carries that record's epoch (its
        // last write at or below `epoch`), everything else the segment's
        // base epoch — exactly the fingerprint the live snapshot of this
        // epoch published, for every predicate written after the segment.
        let mut pred_epochs: std::collections::HashMap<nyaya_core::Predicate, u64> =
            std::collections::HashMap::new();
        for record in &records {
            let (retracts, inserts) = decode_batch(&record.payload)?;
            replay(&mut database, &retracts, &inserts, |fact, _| {
                pred_epochs.insert(fact.pred, record.epoch);
            });
        }
        // The current catalog is a superset of every historical one
        // (registrations only accumulate), so it is safe for SQL over
        // any past epoch.
        let snapshot = Arc::new(Snapshot::with_epochs(
            owner,
            epoch,
            database,
            catalog.clone(),
            BuildCache::new(),
            base_epoch,
            pred_epochs,
        ));
        self.counters
            .epochs_materialized
            .fetch_add(1, Ordering::Relaxed);
        let mut cache = self
            .materialized
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if cache.len() >= MATERIALIZED_CACHE_CAP {
            // Evict the oldest epoch — as-of workloads skew recent.
            cache.pop_first();
        }
        cache.insert(epoch, Arc::clone(&snapshot));
        Ok(snapshot)
    }

    /// Everything the ledger holds on disk.
    pub(crate) fn history(&self) -> Result<LedgerHistory, NyayaError> {
        Ok(self.ledger()?.history()?)
    }

    /// The data directory this ledger lives in.
    pub(crate) fn root(&self) -> &Path {
        &self.root
    }

    fn record_flush(&self, flush: &SegmentFlush) {
        record_flush_counters(&self.counters, flush);
    }
}

impl Drop for Durability {
    fn drop(&mut self) {
        // Closing the channel lets the compactor drain queued flushes
        // and exit; joining makes the shutdown deterministic for tests.
        drop(self.sender.take());
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

fn record_flush_counters(counters: &Counters, flush: &SegmentFlush) {
    counters.segments_flushed.fetch_add(1, Ordering::Relaxed);
    counters
        .segment_bytes
        .fetch_add(flush.segment_bytes, Ordering::Relaxed);
    counters
        .last_segment_epoch
        .fetch_max(flush.epoch, Ordering::Relaxed);
}

fn run_compactor(
    receiver: Receiver<CompactorMsg>,
    ledger: Arc<Mutex<Ledger>>,
    counters: Arc<Counters>,
) {
    while let Ok(CompactorMsg::Flush(snapshot)) = receiver.recv() {
        let payload = encode_database(snapshot.database());
        // A poisoned ledger means a writer panicked mid-operation; the
        // background worker must neither panic in turn nor write through
        // possibly-torn bookkeeping. Skip the flush — the foreground path
        // reports the poisoning as a typed error.
        let Ok(mut guard) = ledger.lock() else {
            continue;
        };
        let result = guard.flush_segment(snapshot.epoch(), &payload);
        drop(guard);
        // A failed background flush is not fatal: the WAL holds every
        // batch, so only replay-length shrinking is lost. The next
        // interval (or an explicit `compact`) will retry.
        if let Ok(flush) = result {
            record_flush_counters(&counters, &flush);
        }
    }
}

impl From<LedgerError> for NyayaError {
    fn from(err: LedgerError) -> Self {
        match err {
            LedgerError::Io { path, message } => NyayaError::LedgerIo { path, message },
            LedgerError::Corrupt {
                path,
                offset,
                detail,
            } => NyayaError::LedgerCorrupt {
                path,
                offset,
                detail,
            },
            LedgerError::EpochGap { expected, found } => {
                NyayaError::LedgerEpochGap { expected, found }
            }
        }
    }
}

impl From<nyaya_sql::CodecError> for NyayaError {
    fn from(err: nyaya_sql::CodecError) -> Self {
        NyayaError::LedgerCorrupt {
            path: "<payload>".into(),
            offset: err.offset as u64,
            detail: err.detail,
        }
    }
}
