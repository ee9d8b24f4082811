//! The incremental-update contract: batched ABox writes, epoch-stamped
//! snapshots, and per-predicate cache invalidation.
//!
//! Three pillars, each pinned by a seeded/deterministic suite:
//!
//! 1. **Differential correctness** — after every one of hundreds of
//!    random insert/retract batches, the incrementally-maintained
//!    knowledge base answers exactly like a from-scratch
//!    `Database::from_facts` rebuild of the same fact set, and the
//!    repaired indexes (postings, distinct counts) agree with rebuilt
//!    ones.
//! 2. **Snapshot isolation** — readers pinned to an epoch see
//!    bit-identical answers no matter how far the writer advances, and
//!    concurrent readers only ever observe published epochs whose
//!    answers match the writer's own per-epoch expectation.
//! 3. **Invalidation granularity** — a write to predicate P evicts only
//!    P-keyed build-cache entries; compiled rewritings (TBox-only)
//!    survive every data write.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use nyaya::prelude::*;
use nyaya::UpdateBatch;
use nyaya_ontologies::rng::Prng;
use nyaya_sql::execute_ucq;

/// A small linear taxonomy: six subclasses under `top`, queried through
/// a binary join — the rewriting has (6+1)² = 49 disjuncts, so every
/// batch exercises a realistically wide union.
const TAXONOMY: &str = "
    s0: c0(X) -> top(X).
    s1: c1(X) -> top(X).
    s2: c2(X) -> top(X).
    s3: c3(X) -> top(X).
    s4: c4(X) -> top(X).
    s5: c5(X) -> top(X).
    q(X, Y) :- top(X), edge(X, Y), top(Y).
";

/// A random ground fact over the taxonomy's schema.
fn random_fact(rng: &mut Prng, individuals: usize) -> Atom {
    let ind = |rng: &mut Prng| format!("i{}", rng.gen_range(0..individuals));
    match rng.gen_range(0..8) {
        0..=5 => {
            let class = format!("c{}", rng.gen_range(0..6));
            Atom::make(&class, [ind(rng).as_str()])
        }
        6 => Atom::make("top", [ind(rng).as_str()]),
        _ => {
            let (a, b) = (ind(rng), ind(rng));
            Atom::make("edge", [a.as_str(), b.as_str()])
        }
    }
}

/// A random batch: a few inserts, and retractions drawn (mostly) from
/// the currently live facts so they actually hit.
fn random_batch(rng: &mut Prng, live: &BTreeSet<Atom>, individuals: usize) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for _ in 0..rng.gen_range(1..5) {
        batch = batch.insert(random_fact(rng, individuals));
    }
    let retractions = rng.gen_range(0..4);
    let live_vec: Vec<&Atom> = live.iter().collect();
    for _ in 0..retractions {
        if !live_vec.is_empty() && rng.gen_bool(0.7) {
            batch = batch.retract(live_vec[rng.gen_range(0..live_vec.len())].clone());
        } else {
            // Sometimes retract something that may not exist: must no-op.
            batch = batch.retract(random_fact(rng, individuals));
        }
    }
    batch
}

/// Mirror `KnowledgeBase::apply` semantics on a plain fact set:
/// retractions first, then insertions, set semantics throughout.
fn apply_to_model(model: &mut BTreeSet<Atom>, batch: &UpdateBatch) {
    for f in batch.retracts() {
        model.remove(f);
    }
    for f in batch.inserts() {
        model.insert(f.clone());
    }
}

#[test]
fn two_hundred_seeded_batches_match_from_scratch_rebuilds() {
    let mut rng = Prng::seed_from_u64(0xA11CE);
    let kb = KnowledgeBase::from_program_text(TAXONOMY).unwrap();
    let prepared = kb.prepare(&kb.queries()[0].clone()).unwrap();
    let rewriting = kb.rewriting(&prepared).unwrap();
    assert!(rewriting.ucq.size() >= 49, "{}", rewriting.ucq.size());

    let mut model: BTreeSet<Atom> = BTreeSet::new();
    for round in 0..200u64 {
        let batch = random_batch(&mut rng, &model, 25);
        apply_to_model(&mut model, &batch);
        let outcome = kb.apply(batch).unwrap();
        assert_eq!(outcome.epoch, round + 1, "one epoch per batch");

        // The incrementally-maintained snapshot must hold exactly the
        // model's facts…
        let snapshot = kb.snapshot();
        assert_eq!(snapshot.len(), model.len(), "round {round}");
        assert_eq!(
            snapshot.facts(),
            model.iter().cloned().collect::<Vec<_>>(),
            "round {round}"
        );
        // …and answer exactly like a from-scratch rebuild of them.
        let rebuilt = Database::from_facts(model.iter().cloned());
        let expected = execute_ucq(&rebuilt, &rewriting.ucq);
        let got = kb.execute(&prepared).unwrap();
        assert_eq!(got.tuples, expected, "round {round}");

        // Spot-check the repaired indexes against rebuilt ones.
        for pred in rebuilt.predicates() {
            assert_eq!(
                snapshot.database().table_len(pred),
                rebuilt.table_len(pred),
                "round {round}, {pred:?}"
            );
            for col in 0..pred.arity {
                assert_eq!(
                    snapshot.database().distinct(pred, col),
                    rebuilt.distinct(pred, col),
                    "round {round}, {pred:?} col {col}"
                );
            }
        }
    }
    // Only one rewriting was ever compiled across all 200 epochs.
    assert_eq!(kb.stats().cache_misses, 1);
    assert_eq!(kb.stats().batches_applied, 200);
}

#[test]
fn concurrent_pinned_readers_see_bit_identical_answers_while_writer_advances() {
    let kb = KnowledgeBase::from_program_text(TAXONOMY).unwrap();
    let prepared = kb.prepare(&kb.queries()[0].clone()).unwrap();
    let rewriting = kb.rewriting(&prepared).unwrap();

    // The writer records, for every epoch it publishes, the answers a
    // from-scratch rebuild of that epoch's facts produces. Readers
    // verify against this map after the fact.
    let expected: Mutex<Vec<(u64, BTreeSet<Vec<Term>>)>> = Mutex::new(Vec::new());
    expected.lock().unwrap().push((0, BTreeSet::new())); // epoch 0: empty ABox, empty answers
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Writer: 200 seeded batches, back to back.
        let writer = scope.spawn(|| {
            let mut rng = Prng::seed_from_u64(0xBEE);
            let mut model: BTreeSet<Atom> = BTreeSet::new();
            for _ in 0..200u64 {
                let batch = random_batch(&mut rng, &model, 25);
                apply_to_model(&mut model, &batch);
                let answers =
                    execute_ucq(&Database::from_facts(model.iter().cloned()), &rewriting.ucq);
                let outcome = kb.apply(batch).unwrap();
                expected.lock().unwrap().push((outcome.epoch, answers));
            }
            done.store(true, Ordering::Release);
        });

        // Readers: pin a snapshot, answer it twice (with writer traffic
        // in between), and log what they saw per epoch.
        let readers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    let mut observed: Vec<(u64, BTreeSet<Vec<Term>>)> = Vec::new();
                    while !done.load(Ordering::Acquire) {
                        let pinned = kb.snapshot();
                        let first = kb.execute_at(&prepared, &pinned).unwrap();
                        std::thread::yield_now(); // let the writer advance
                        let second = kb.execute_at(&prepared, &pinned).unwrap();
                        assert_eq!(
                            first.tuples,
                            second.tuples,
                            "pinned epoch {} changed under a reader",
                            pinned.epoch()
                        );
                        observed.push((pinned.epoch(), first.tuples));
                    }
                    observed
                })
            })
            .collect();

        writer.join().unwrap();
        let expected = expected.lock().unwrap();
        let mut verified = 0usize;
        for reader in readers {
            for (epoch, tuples) in reader.join().unwrap() {
                let (_, want) = expected
                    .iter()
                    .find(|(e, _)| *e == epoch)
                    .unwrap_or_else(|| panic!("reader observed unpublished epoch {epoch}"));
                assert_eq!(&tuples, want, "epoch {epoch}");
                verified += 1;
            }
        }
        assert!(verified > 0, "readers observed at least one epoch");
    });
    assert_eq!(kb.epoch(), 200);
}

#[test]
fn writes_evict_only_the_touched_predicates_build_sides() {
    // No TGDs: each query rewrites to itself, so the build-cache
    // patterns are exactly one scan per queried predicate. The answer
    // cache is disabled: this test measures *re-execution* (build-cache
    // hits), which an answer-cache hit would skip entirely.
    let kb = KnowledgeBase::builder()
        .program_text(
            "
        p(a, b). p(c, d). p(e, e). p(f, f).
        pk(a, b). pk(c, d). pk(x, y).
        r(e, f). r(g, h). r(i, i).
        rk(e, f). rk(g, h).
        ",
        )
        .unwrap()
        .answer_cache(false)
        .build()
        .unwrap();
    // A scan reads its table in place and a one-column join its posting
    // index: only a join on both columns builds. Each key table is the
    // smaller, so the planner scans it first and builds `p` (and `r`) by
    // both columns.
    let q_p = kb.prepare_text("qp(X) :- pk(X, Y), p(X, Y).").unwrap();
    let q_r = kb.prepare_text("qr(X) :- rk(X, Y), r(X, Y).").unwrap();

    // First executions hash one build side each.
    kb.execute(&q_p).unwrap();
    kb.execute(&q_r).unwrap();
    let s = kb.stats();
    assert_eq!((s.build_cache_hits, s.build_cache_misses), (0, 2), "{s:?}");

    // Re-execution over the same snapshot hits the persistent cache.
    kb.execute(&q_p).unwrap();
    kb.execute(&q_r).unwrap();
    let s = kb.stats();
    assert_eq!((s.build_cache_hits, s.build_cache_misses), (2, 2), "{s:?}");

    // A write to p must evict p's build side and carry r's over.
    let outcome = kb
        .apply(UpdateBatch::new().insert(Atom::make("p", ["x", "y"])))
        .unwrap();
    assert_eq!(outcome.builds_invalidated, 1, "{outcome:?}");
    assert_eq!(outcome.builds_carried_over, 1, "{outcome:?}");

    kb.execute(&q_r).unwrap(); // untouched predicate: carried build hits
    let s = kb.stats();
    assert_eq!((s.build_cache_hits, s.build_cache_misses), (3, 2), "{s:?}");

    kb.execute(&q_p).unwrap(); // written predicate: rebuilt
    let s = kb.stats();
    assert_eq!((s.build_cache_hits, s.build_cache_misses), (3, 3), "{s:?}");
    assert_eq!(s.build_cache_invalidations, 1);
    assert_eq!(
        kb.execute(&q_p).unwrap().tuples.len(),
        3,
        "new fact visible"
    );
}

#[test]
fn rewriting_cache_and_hit_counters_are_unaffected_by_abox_writes() {
    let kb = KnowledgeBase::from_program_text(TAXONOMY).unwrap();
    let prepared = kb.prepare(&kb.queries()[0].clone()).unwrap();
    kb.execute(&prepared).unwrap();
    let before = kb.stats();
    assert_eq!(before.cache_misses, 1);
    assert_eq!(before.cached_rewritings, 1);

    for i in 0..10 {
        kb.apply(UpdateBatch::new().insert(Atom::make("top", [format!("i{i}").as_str()])))
            .unwrap();
        kb.execute(&prepared).unwrap();
    }
    let after = kb.stats();
    assert_eq!(
        after.cache_misses, 1,
        "ten epochs later, still exactly one compile"
    );
    assert_eq!(after.cached_rewritings, 1);
    assert_eq!(
        after.cache_hits,
        before.cache_hits + 10,
        "every post-write execution was served from the rewriting cache"
    );
}

#[test]
fn retraction_repairs_postings_and_distinct_counts() {
    let kb = KnowledgeBase::from_program_text(
        "
        e(a, b). e(b, c). e(c, c).
        q(X) :- e(X, Y).
        ",
    )
    .unwrap();
    let e = Predicate::new("e", 2);
    assert_eq!(kb.snapshot().database().distinct(e, 1), 2); // {b, c}

    kb.apply(UpdateBatch::new().retract(Atom::make("e", ["a", "b"])))
        .unwrap();
    let snapshot = kb.snapshot();
    let db = snapshot.database();
    assert_eq!(db.table_len(e), 2);
    assert_eq!(db.distinct(e, 0), 2, "a gone from column 0");
    assert_eq!(db.distinct(e, 1), 1, "b gone from column 1");
    assert!(db.posting(e, 1, &Term::constant("b")).is_empty());
    assert_eq!(db.posting(e, 1, &Term::constant("c")).len(), 2);
    assert!(!db.contains(&Atom::make("e", ["a", "b"])));

    // And the chase-facing view follows the same epoch.
    let q = kb.prepare(&kb.queries()[0].clone()).unwrap();
    let via_chase = kb.execute_on(&q, ExecutorKind::Chase).unwrap();
    let via_engine = kb.execute_on(&q, ExecutorKind::InMemory).unwrap();
    assert_eq!(via_chase.tuples, via_engine.tuples);
    assert_eq!(via_engine.tuples.len(), 2); // b, c
}

// ---- base + delta storage: O(batch) writes, folds, pinned bases --------

/// Rows of the big `edge` table the storage suites write into: large
/// enough in release that 200 small batches stay far below the fold
/// threshold (1/64 of the base); a 2 000-row cell keeps debug runs short.
fn big_rows() -> usize {
    if cfg!(debug_assertions) {
        2_000
    } else {
        200_000
    }
}

fn edge(a: usize, b: usize) -> Atom {
    Atom::make("edge", [format!("n{a}").as_str(), format!("n{b}").as_str()])
}

/// The taxonomy over a `rows`-row `edge` table; the first 40 individuals
/// are spread over the six classes, so the query has answers among them.
fn big_kb(rows: usize) -> (KnowledgeBase, BTreeSet<Atom>) {
    let mut facts: BTreeSet<Atom> = (0..rows)
        .map(|k| edge(k, (k * 7 + 1) % (rows / 4)))
        .collect();
    for i in 0..40 {
        facts.insert(Atom::make(
            &format!("c{}", i % 6),
            [format!("n{i}").as_str()],
        ));
    }
    let kb = KnowledgeBase::builder()
        .program_text(TAXONOMY)
        .unwrap()
        .facts(facts.iter().cloned())
        .build()
        .unwrap();
    (kb, facts)
}

/// A batch of `writes` operations on `edge` alone: inserts (a third of
/// them between class members, so answers move) and retractions of live
/// edges.
fn edge_batch(rng: &mut Prng, live: &BTreeSet<Atom>, rows: usize, writes: usize) -> UpdateBatch {
    let live_edges: Vec<&Atom> = live.iter().filter(|f| f.pred.arity == 2).collect();
    let mut batch = UpdateBatch::new();
    for _ in 0..writes {
        batch = match rng.gen_range(0..3) {
            0 => batch.insert(edge(rng.gen_range(0..40), rng.gen_range(0..40))),
            1 => batch.insert(edge(rng.gen_range(0..rows), rng.gen_range(0..rows))),
            _ => batch.retract(live_edges[rng.gen_range(0..live_edges.len())].clone()),
        };
    }
    batch
}

/// Answers, row counts, distinct counts and sorted lists equal a
/// from-scratch rebuild; so do the rows behind the posting lists of every
/// value the batch wrote and of a fixed sample of the rest.
fn assert_matches_rebuild(
    kb: &KnowledgeBase,
    prepared: &PreparedQuery,
    model: &BTreeSet<Atom>,
    batch: &UpdateBatch,
    context: &str,
) {
    let snapshot = kb.snapshot();
    let db = snapshot.database();
    let rebuilt = Database::from_facts(model.iter().cloned());
    let ucq = &kb.rewriting(prepared).unwrap().ucq;
    assert_eq!(
        kb.execute(prepared).unwrap().tuples,
        execute_ucq(&rebuilt, ucq),
        "{context}"
    );
    assert_eq!(db.len(), model.len(), "{context}");
    for pred in rebuilt.predicates() {
        assert_eq!(db.table_len(pred), rebuilt.table_len(pred), "{context}");
        for col in 0..pred.arity {
            let sorted = db.sorted_values(pred, col);
            assert_eq!(
                sorted,
                rebuilt.sorted_values(pred, col),
                "{context}: {pred:?} {col}"
            );
            assert_eq!(
                db.distinct(pred, col),
                sorted.len(),
                "{context}: {pred:?} {col}"
            );
            let written = batch
                .inserts()
                .iter()
                .chain(batch.retracts())
                .filter(|f| f.pred == pred)
                .map(|f| &f.args[col]);
            for value in sorted.iter().step_by(97).chain(written) {
                let carriers = |d: &Database| {
                    d.posting(pred, col, value)
                        .iter()
                        .map(|&id| d.row(pred, id))
                        .collect::<BTreeSet<_>>()
                };
                assert_eq!(
                    carriers(db),
                    carriers(&rebuilt),
                    "{context}: {pred:?} {col} {value}"
                );
            }
        }
    }
}

fn batches_match_rebuilds(seed: u64, batches: usize, writes: usize) -> u64 {
    let rows = big_rows();
    let mut rng = Prng::seed_from_u64(seed);
    let (kb, mut model) = big_kb(rows);
    let prepared = kb.prepare(&kb.queries()[0].clone()).unwrap();
    for round in 0..batches {
        let batch = edge_batch(&mut rng, &model, rows, writes);
        apply_to_model(&mut model, &batch);
        kb.apply(batch.clone()).unwrap();
        assert_matches_rebuild(&kb, &prepared, &model, &batch, &format!("round {round}"));
    }
    kb.stats().table_folds
}

/// Small batches against a large base: every write lands in the delta,
/// nothing ever folds, and every epoch still equals a rebuild.
#[test]
fn small_batches_on_a_large_table_match_rebuilds_without_folding() {
    // 200 batches of 6 writes are 1 200 delta rows against 3 125 allowed;
    // the debug cell's 2 000 rows allow 31.
    let batches = if cfg!(debug_assertions) { 5 } else { 200 };
    assert_eq!(batches_match_rebuilds(0xDE17A, batches, 6), 0);
}

/// Enough writes to outgrow the base several times over: the same
/// contract holds across every fold.
#[test]
fn heavy_batches_fold_the_table_several_times_and_match_rebuilds() {
    // 100 writes a batch in release (20 000 in all, a fold every ~32
    // batches), 1 in debug (a fold every ~32 too).
    let folds = batches_match_rebuilds(0xF01D, 200, big_rows() / 2_000);
    assert!((3..=20).contains(&folds), "{folds} folds");
}

/// Everything a reader can see through a pinned snapshot of `edge`.
fn reader_view(
    kb: &KnowledgeBase,
    prepared: &PreparedQuery,
    pinned: &Snapshot,
) -> impl PartialEq + std::fmt::Debug {
    let db = pinned.database();
    let e = Predicate::new("edge", 2);
    let postings: Vec<Vec<Vec<u32>>> = (0..2)
        .map(|col| {
            db.sorted_values(e, col)
                .iter()
                .map(|v| db.posting(e, col, v).to_vec())
                .collect()
        })
        .collect();
    (
        kb.execute_at(prepared, pinned).unwrap().tuples,
        postings,
        db.rows_vec(e),
        (db.distinct(e, 0), db.distinct(e, 1), db.table_len(e)),
    )
}

/// A reader pinned to one epoch keeps the base it pinned: while the
/// writer folds the table twice, the pinned snapshot re-reads the same
/// answers, the same posting lists (row ids included) and the same rows.
#[test]
fn a_pinned_reader_rereads_identical_postings_while_the_table_folds_twice() {
    let rows = big_rows();
    let mut rng = Prng::seed_from_u64(0x9177ED);
    let (kb, mut model) = big_kb(rows);
    let prepared = kb.prepare(&kb.queries()[0].clone()).unwrap();
    // Pin an epoch that already carries a delta, not the pristine load.
    let batch = edge_batch(&mut rng, &model, rows, 6);
    apply_to_model(&mut model, &batch);
    kb.apply(batch).unwrap();
    let pinned = kb.snapshot();
    let before = reader_view(&kb, &prepared, &pinned);

    let e = Predicate::new("edge", 2);
    let mut applied = 0;
    while kb.stats().table_folds < 2 {
        let batch = edge_batch(&mut rng, &model, rows, rows / 100);
        apply_to_model(&mut model, &batch);
        kb.apply(batch).unwrap();
        applied += 1;
        assert!(applied < 50, "the writer should have folded twice by now");
        if applied % 2 == 0 {
            assert!(
                before == reader_view(&kb, &prepared, &pinned),
                "after {applied} batches"
            );
        }
    }
    assert!(before == reader_view(&kb, &prepared, &pinned));
    let current = kb.snapshot();
    assert!(!current.database().shares_base(pinned.database(), e));
    assert_eq!(current.facts(), model.iter().cloned().collect::<Vec<_>>());
}

/// O(batch) as a count, not a time: one six-fact batch copies three
/// deltas and no base, and leaves every other table shared whole.
#[test]
fn a_six_fact_batch_shares_every_base_with_the_previous_snapshot() {
    let (kb, _) = big_kb(big_rows());
    let before = kb.snapshot();
    let written = [
        Predicate::new("edge", 2),
        Predicate::new("c0", 1),
        Predicate::new("c1", 1),
    ];
    kb.apply(
        UpdateBatch::new()
            .insert(edge(1, 2))
            .insert(edge(3, 4))
            .insert(Atom::make("c0", ["n1"]))
            .insert(Atom::make("c1", ["n2"]))
            .retract(edge(0, 1))
            .retract(Atom::make("c1", ["n1"])),
    )
    .unwrap();
    let after = kb.snapshot();
    let (old, new) = (before.database(), after.database());
    for pred in old.predicates() {
        if written.contains(&pred) {
            assert!(
                new.shares_base(old, pred),
                "{pred:?}: a write copied a base"
            );
            assert!(!new.shares_table(old, pred), "{pred:?}");
        } else {
            assert!(
                new.shares_table(old, pred),
                "{pred:?}: untouched yet copied"
            );
        }
    }
    let stats = kb.stats();
    assert_eq!(stats.table_folds, 0);
    let delta: usize = stats
        .tables
        .iter()
        .map(|t| t.delta_rows + t.dead_rows)
        .sum();
    assert_eq!(delta, 6, "{:?}", stats.tables);
    assert!(
        stats.to_json().contains("\"table_folds\":0,"),
        "{}",
        stats.to_json()
    );
    assert!(stats
        .to_json()
        .contains("\"delta_rows\":2,\"dead_rows\":1}"));
}
