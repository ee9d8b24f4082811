//! Durability integration tests: crash recovery, corruption handling,
//! historical-epoch time travel, and a many-seed differential harness
//! against an in-memory oracle knowledge base.

use std::collections::BTreeSet;
use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use nyaya::core::{Atom, Term};
use nyaya::prelude::*;
use nyaya::KnowledgeBaseBuilder;
use nyaya_ontologies::rng::Prng;

const ONTOLOGY: &str = "
    t1: manager(X) -> employee(X).
    t2: employee(X) -> person(X).
    t3: person(X) -> member(X, Y).
";

const QUERY: &str = "q(A) :- person(A).";

/// A temp data directory removed on drop.
struct DataDir(PathBuf);

impl DataDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "nyaya-durable-test-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        DataDir(dir)
    }

    fn wal(&self) -> PathBuf {
        self.0.join("wal.log")
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn durable_builder(dir: &DataDir) -> KnowledgeBaseBuilder {
    KnowledgeBase::builder()
        .program_text(ONTOLOGY)
        .expect("parse ontology")
        .durable(&dir.0)
}

fn person(name: &str) -> Atom {
    Atom::make("person", [name])
}

fn answers_of(kb: &KnowledgeBase, query: &PreparedQuery) -> BTreeSet<Vec<Term>> {
    kb.execute(query).expect("execute").tuples
}

#[test]
fn durable_kb_survives_a_restart_with_identical_answers() {
    let dir = DataDir::new("restart");
    let before: BTreeSet<Vec<Term>>;
    {
        let kb = durable_builder(&dir)
            .facts([person("alice")])
            .build()
            .expect("build fresh");
        assert!(kb.is_durable());
        assert_eq!(kb.epoch(), 0);
        kb.apply(UpdateBatch::new().insert(Atom::make("employee", ["bob"])))
            .expect("apply 1");
        kb.apply(
            UpdateBatch::new()
                .insert(Atom::make("manager", ["carol"]))
                .retract(person("alice")),
        )
        .expect("apply 2");
        let q = kb.prepare_text(QUERY).expect("prepare");
        before = answers_of(&kb, &q);
        assert_eq!(kb.stats().wal_records, 2);
    }

    // Reopen over the same directory: the ledger wins, builder facts are
    // the original seed and must not re-apply on top.
    let kb = durable_builder(&dir).build().expect("recover");
    assert_eq!(kb.epoch(), 2);
    assert_eq!(kb.stats().recovery_replayed, 2);
    let q = kb.prepare_text(QUERY).expect("prepare");
    assert_eq!(answers_of(&kb, &q), before);
    // Epoch 0 is still reachable: exactly the seeded facts.
    let at0 = kb.execute_at_epoch(&q, 0).expect("as-of 0");
    assert_eq!(at0.tuples, BTreeSet::from([vec![Term::constant("alice")]]));
}

/// The acceptance-criterion test: ≥ 100 applied batches, killed
/// mid-write (a torn final record in the WAL), recovered, and **every**
/// historical epoch's answers bit-identical to an uninterrupted
/// in-memory oracle run — including epochs older than flushed segments.
#[test]
fn kill_mid_write_recovers_every_historical_epoch() {
    let dir = DataDir::new("kill");
    let mut rng = Prng::seed_from_u64(0xD1CE);
    let pool: Vec<Atom> = (0..40)
        .flat_map(|i| {
            [
                Atom::make("person", [format!("p{i}").as_str()]),
                Atom::make("employee", [format!("e{i}").as_str()]),
                Atom::make("manager", [format!("m{i}").as_str()]),
            ]
        })
        .collect();

    let batches: Vec<UpdateBatch> = (0..120)
        .map(|_| {
            let mut batch = UpdateBatch::new();
            for _ in 0..rng.gen_range(1..6) {
                batch = batch.insert(pool[rng.gen_range(0..pool.len())].clone());
            }
            for _ in 0..rng.gen_range(0..3) {
                batch = batch.retract(pool[rng.gen_range(0..pool.len())].clone());
            }
            batch
        })
        .collect();

    // Oracle: uninterrupted, memory-only; record the answers per epoch.
    let oracle = KnowledgeBase::builder()
        .program_text(ONTOLOGY)
        .expect("parse")
        .facts([person("seed")])
        .build()
        .expect("build oracle");
    let oq = oracle.prepare_text(QUERY).expect("prepare");
    let mut per_epoch = vec![answers_of(&oracle, &oq)];
    for batch in &batches {
        oracle.apply(batch.clone()).expect("oracle apply");
        per_epoch.push(answers_of(&oracle, &oq));
    }

    // Durable run with background segment flushes, then a simulated
    // crash mid-append.
    {
        let kb = durable_builder(&dir)
            .facts([person("seed")])
            .flush_interval(16)
            .build()
            .expect("build durable");
        for batch in &batches {
            kb.apply(batch.clone()).expect("durable apply");
        }
        assert!(kb.stats().segments_flushed >= 1);
    }
    let mut torn = OpenOptions::new()
        .append(true)
        .open(dir.wal())
        .expect("open wal");
    torn.write_all(&[0x77, 0x03, 0x00, 0x00, 0xDE, 0xAD, 0xBE])
        .expect("torn record");
    drop(torn);

    let kb = durable_builder(&dir).build().expect("recover");
    assert_eq!(kb.epoch(), batches.len() as u64);
    let q = kb.prepare_text(QUERY).expect("prepare");
    for (epoch, expected) in per_epoch.iter().enumerate() {
        let got = kb
            .execute_at_epoch(&q, epoch as u64)
            .unwrap_or_else(|e| panic!("as-of epoch {epoch}: {e}"));
        assert_eq!(&got.tuples, expected, "answers diverge at epoch {epoch}");
    }
    assert!(kb.stats().epochs_materialized > 0);
}

#[test]
fn epoch_not_found_is_a_typed_error_with_the_valid_range() {
    let dir = DataDir::new("notfound");
    let kb = durable_builder(&dir)
        .facts([person("alice")])
        .build()
        .expect("build");
    kb.apply(UpdateBatch::new().insert(person("bob")))
        .expect("apply");
    let q = kb.prepare_text(QUERY).expect("prepare");

    // Beyond the current epoch: never created.
    match kb.execute_at_epoch(&q, 7) {
        Err(NyayaError::EpochNotFound { requested, latest }) => {
            assert_eq!((requested, latest), (7, 1));
        }
        other => panic!("expected EpochNotFound, got {other:?}"),
    }
    match kb.snapshot_at(2) {
        Err(NyayaError::EpochNotFound { requested, latest }) => {
            assert_eq!((requested, latest), (2, 1));
        }
        other => panic!("expected EpochNotFound, got {other:?}"),
    }

    // A memory-only knowledge base cannot reconstruct past epochs.
    let memory = KnowledgeBase::builder()
        .program_text(ONTOLOGY)
        .expect("parse")
        .build()
        .expect("build");
    memory
        .apply(UpdateBatch::new().insert(person("x")))
        .expect("apply");
    match memory.snapshot_at(0) {
        Err(NyayaError::NotDurable { requested }) => assert_eq!(requested, 0),
        other => panic!("expected NotDurable, got {other:?}"),
    }
}

/// Satellite: truncated, bit-flipped, and duplicated WAL records surface
/// typed `Ledger*` errors (or clean torn-tail recovery) — never a panic
/// and never silently wrong answers.
#[test]
fn corruption_fuzz_truncate_flip_duplicate() {
    // Build once to learn the WAL image, then mutate copies of it.
    let dir = DataDir::new("fuzz");
    {
        let kb = durable_builder(&dir)
            .facts([person("alice")])
            .build()
            .expect("build");
        for i in 0..8 {
            kb.apply(UpdateBatch::new().insert(person(&format!("p{i}"))))
                .expect("apply");
        }
    }
    let pristine = fs::read(dir.wal()).expect("read wal");
    let header = 8usize; // magic
    let mut rng = Prng::seed_from_u64(0xFADE);

    // Truncation anywhere: recovery must stop cleanly at the last valid
    // record and serve a consistent prefix.
    for _ in 0..40 {
        let cut = rng.gen_range(header..pristine.len());
        fs::write(dir.wal(), &pristine[..cut]).expect("truncate");
        let kb = durable_builder(&dir).build().expect("torn tail tolerated");
        assert!(kb.epoch() <= 8);
        let q = kb.prepare_text(QUERY).expect("prepare");
        // Every surviving epoch must still answer.
        for epoch in 0..=kb.epoch() {
            kb.execute_at_epoch(&q, epoch).expect("as-of survives");
        }
    }

    // Bit flips: either the tail record (torn, tolerated) or a typed
    // corruption error. Never a panic, never an epoch gap served.
    let mut outcomes = [0usize; 2];
    for _ in 0..60 {
        let mut bytes = pristine.clone();
        let target = rng.gen_range(0..bytes.len());
        bytes[target] ^= 1 << rng.gen_range(0..8);
        fs::write(dir.wal(), &bytes).expect("flip");
        match durable_builder(&dir).build() {
            Ok(kb) => {
                outcomes[0] += 1;
                assert!(kb.epoch() <= 8);
                // Repair the file for the next iteration (a torn-tail
                // open truncates in place).
            }
            Err(NyayaError::LedgerCorrupt { .. } | NyayaError::LedgerEpochGap { .. }) => {
                outcomes[1] += 1
            }
            Err(other) => panic!("expected a Ledger* error, got {other}"),
        }
        fs::write(dir.wal(), &pristine).expect("restore");
    }
    assert!(outcomes[1] > 0, "no flip ever hit a checksummed region?");

    // Duplicated final record: typed corruption, not a double-applied batch.
    let record_start = {
        // Find the last record by re-scanning lengths from the header.
        let mut pos = header;
        let mut last = pos;
        while pos + 8 <= pristine.len() {
            let len = u32::from_le_bytes(pristine[pos..pos + 4].try_into().unwrap()) as usize;
            last = pos;
            pos += 8 + len;
        }
        last
    };
    let mut bytes = pristine.clone();
    bytes.extend_from_slice(&pristine[record_start..]);
    fs::write(dir.wal(), &bytes).expect("duplicate");
    match durable_builder(&dir).build() {
        Err(NyayaError::LedgerCorrupt { detail, .. }) => {
            assert!(detail.contains("duplicate"), "detail: {detail}")
        }
        other => panic!("expected LedgerCorrupt, got {other:?}"),
    }
}

/// Satellite: the many-seed differential harness. Random batches, killed
/// without flushing segments at a random point, recovered, and every
/// historical epoch checked bit-equal against the in-memory oracle.
#[test]
fn differential_recovery_over_200_seeds() {
    for seed in 0..200u64 {
        let mut rng = Prng::seed_from_u64(seed);
        let dir = DataDir::new("diff");
        let pool: Vec<Atom> = (0..12)
            .flat_map(|i| {
                [
                    Atom::make("person", [format!("p{i}").as_str()]),
                    Atom::make("employee", [format!("e{i}").as_str()]),
                    Atom::make("manager", [format!("m{i}").as_str()]),
                ]
            })
            .collect();
        let n_batches = rng.gen_range(3..15);
        let batches: Vec<UpdateBatch> = (0..n_batches)
            .map(|_| {
                let mut batch = UpdateBatch::new();
                for _ in 0..rng.gen_range(1..5) {
                    if rng.gen_bool(0.7) {
                        batch = batch.insert(pool[rng.gen_range(0..pool.len())].clone());
                    } else {
                        batch = batch.retract(pool[rng.gen_range(0..pool.len())].clone());
                    }
                }
                batch
            })
            .collect();

        let oracle = KnowledgeBase::builder()
            .program_text(ONTOLOGY)
            .expect("parse")
            .facts([person("seed")])
            .build()
            .expect("oracle");
        let oq = oracle.prepare_text(QUERY).expect("prepare");
        let mut per_epoch = vec![answers_of(&oracle, &oq)];

        {
            // Huge flush interval: no background segments — the kill
            // point leaves only the seed segment plus the WAL.
            let kb = durable_builder(&dir)
                .facts([person("seed")])
                .flush_interval(1_000_000)
                .build()
                .expect("durable");
            let kill_after = rng.gen_range(0..batches.len() + 1);
            for (i, batch) in batches.iter().enumerate() {
                if i == kill_after {
                    break;
                }
                oracle.apply(batch.clone()).expect("oracle apply");
                per_epoch.push(answers_of(&oracle, &oq));
                kb.apply(batch.clone()).expect("durable apply");
                // Occasionally compact mid-run so some seeds exercise
                // segment + sealed-history materialization too.
                if rng.gen_bool(0.15) {
                    kb.compact().expect("compact");
                }
            }
            // `kb` dropped here without any final flush: the "kill".
        }

        let kb = durable_builder(&dir).build().expect("recover");
        assert_eq!(
            kb.epoch() as usize,
            per_epoch.len() - 1,
            "seed {seed}: wrong recovered epoch"
        );
        let q = kb.prepare_text(QUERY).expect("prepare");
        for (epoch, expected) in per_epoch.iter().enumerate() {
            let got = kb
                .execute_at_epoch(&q, epoch as u64)
                .unwrap_or_else(|e| panic!("seed {seed}, epoch {epoch}: {e}"));
            assert_eq!(
                &got.tuples, expected,
                "seed {seed}: answers diverge at epoch {epoch}"
            );
        }
    }
}

/// Compaction bounds recovery replay without losing any history, and the
/// ledger history report reflects what is on disk.
#[test]
fn compaction_seals_history_and_bounds_replay() {
    let dir = DataDir::new("compact");
    {
        let kb = durable_builder(&dir)
            .facts([person("alice")])
            .build()
            .expect("build");
        for i in 0..10 {
            kb.apply(UpdateBatch::new().insert(person(&format!("p{i}"))))
                .expect("apply");
        }
        let seeded = kb.stats();
        assert_eq!(seeded.last_segment_epoch, 0, "the epoch-0 seed segment");
        let flush = kb.compact().expect("compact");
        assert_eq!(flush.epoch, 10);
        assert_eq!(flush.sealed_records, 10);
        let stats = kb.stats();
        assert_eq!(stats.segments_flushed, 2);
        assert_eq!(stats.last_segment_epoch, 10);
        assert_eq!(
            stats.segment_bytes,
            seeded.segment_bytes + flush.segment_bytes
        );
        assert!(seeded.segment_bytes > 0 && flush.segment_bytes > 0);
    }
    {
        // Straight after a compaction the segment is the whole state.
        let kb = durable_builder(&dir).build().expect("recover");
        assert_eq!(kb.stats().recovery_replayed, 0);
        assert_eq!(kb.epoch(), 10);
        for i in 10..14 {
            kb.apply(UpdateBatch::new().insert(person(&format!("p{i}"))))
                .expect("apply");
        }
        let history = kb.ledger_history().expect("history");
        assert_eq!(history.latest_epoch, 14);
        assert_eq!(history.active_records, 4);
        assert!(history.segments.iter().any(|s| s.epoch == 10));
        assert_eq!(history.sealed.len(), 1);
    }

    let kb = durable_builder(&dir).build().expect("recover");
    // Only the 4 post-segment records replay…
    assert_eq!(kb.stats().recovery_replayed, 4);
    assert_eq!(kb.epoch(), 14);
    // …but epochs sealed before the segment are still materializable.
    let q = kb.prepare_text(QUERY).expect("prepare");
    let at3 = kb.execute_at_epoch(&q, 3).expect("as-of 3");
    assert!(at3.tuples.contains(&vec![Term::constant("p2")]));
    assert!(!at3.tuples.contains(&vec![Term::constant("p3")]));

    // Two flushes in one run: `last_segment_epoch` is the newest, not a sum.
    kb.compact().expect("compact at 14");
    kb.apply(UpdateBatch::new().insert(person("p14")))
        .expect("apply");
    let newest = kb.compact().expect("compact at 15");
    let stats = kb.stats();
    assert_eq!(stats.segments_flushed, 2);
    assert_eq!(stats.last_segment_epoch, newest.epoch);
    assert_eq!(newest.epoch, 15);
}

/// Memory-only knowledge bases are entirely unaffected by the ledger
/// layer: no data dir, `NotDurable` for ledger-only operations.
#[test]
fn memory_only_kbs_report_not_durable() {
    let kb = KnowledgeBase::builder()
        .program_text(ONTOLOGY)
        .expect("parse")
        .facts([person("alice")])
        .build()
        .expect("build");
    assert!(!kb.is_durable());
    assert!(kb.data_dir().is_none());
    assert!(!kb.stats().durable);
    assert!(matches!(kb.compact(), Err(NyayaError::NotDurable { .. })));
    assert!(matches!(
        kb.ledger_history(),
        Err(NyayaError::NotDurable { .. })
    ));
}

/// The database holds constants: a batch with a labelled null is refused
/// before the WAL sees it, so the epoch stays put, no record is written
/// and a reopen replays nothing.
#[test]
fn a_labelled_null_is_refused_before_the_wal() {
    let dir = DataDir::new("null-fact");
    let kb = durable_builder(&dir)
        .facts([person("alice")])
        .build()
        .expect("build fresh");
    let wal_bytes = || fs::metadata(dir.wal()).map_or(0, |m| m.len());
    let before = wal_bytes();
    let null = Atom::new(
        nyaya::core::Predicate::new("person", 1),
        vec![Term::Null(1)],
    );
    match kb.apply(UpdateBatch::new().insert(person("bob")).insert(null)) {
        Err(NyayaError::NonGroundFact { fact }) => assert!(fact.contains("person"), "{fact}"),
        other => panic!("expected NonGroundFact, got {other:?}"),
    }
    assert_eq!(kb.epoch(), 0, "nothing published");
    assert_eq!(kb.stats().wal_records, 0);
    assert_eq!(wal_bytes(), before, "no WAL record");
    drop(kb);
    let kb = durable_builder(&dir).build().expect("reopen");
    assert_eq!((kb.epoch(), kb.stats().recovery_replayed), (0, 0));
}

/// A CRC-valid WAL record whose batch holds a term that is not a
/// constant — the tags earlier formats gave a labelled null (1), a
/// variable (2) and a function term (3) — is a typed corruption error on
/// reopen, never a panic in replay.
#[test]
fn a_wal_record_holding_a_non_constant_is_a_typed_error_on_reopen() {
    let text = |s: &str| [&(s.len() as u32).to_le_bytes()[..], s.as_bytes()].concat();
    let terms = [
        (1u8, 9u64.to_le_bytes().to_vec()),
        (2, text("X")),
        (3, [text("sk0"), 0u32.to_le_bytes().to_vec()].concat()),
    ];
    for (tag, term) in terms {
        let dir = DataDir::new("non-constant-record");
        drop(
            durable_builder(&dir)
                .facts([person("alice")])
                .build()
                .expect("seed epoch 0"),
        );
        // Batch payload v3: no retracts, one insert `person(<term>)`.
        let mut payload = 3u32.to_le_bytes().to_vec();
        payload.extend(0u64.to_le_bytes());
        payload.extend(1u64.to_le_bytes());
        payload.extend(text("person"));
        payload.extend(1u32.to_le_bytes());
        payload.push(tag);
        payload.extend(term);
        {
            let (mut ledger, _) = nyaya::ledger::Ledger::open(&dir.0).expect("open ledger");
            ledger.append(1, &payload).expect("append epoch 1");
        }
        match durable_builder(&dir).build() {
            Err(NyayaError::LedgerCorrupt { detail, .. }) => {
                assert!(detail.contains("not a constant"), "tag {tag}: {detail}")
            }
            other => panic!(
                "tag {tag}: expected LedgerCorrupt, got {:?}",
                other.map(|kb| kb.epoch())
            ),
        }
    }
}
