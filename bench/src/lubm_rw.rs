//! `lubm_rw`: the layers `lubm_join` reads through, used for writes. A
//! durable knowledge base over the same 1M facts with one standing query
//! (`grad-courses`). One thread cycles: `apply` a batch of 4 inserts and 2
//! retracts → `poll` the subscription → re-read `grad-courses` (its answer
//! was invalidated by the batch) → re-read `U-q1` (untouched predicates, so
//! it must stay an answer-cache hit). Then `compact`, drop, and reopen from
//! the directory alone. Copy-on-write table clones, index maintenance,
//! build/answer-cache invalidation, IVM and WAL+fsync only run here, so a
//! read optimisation that taxes writes shows up on this workload.
//!
//! Set-up here is what a durable deployment pays on every start: recover
//! the knowledge base from its directory, prepare, subscribe.

use std::path::Path;

use nyaya::ledger::Ledger;
use nyaya::ontologies::{load, BenchmarkId};
use nyaya::sql::{decode_database, encode_batch, encode_database};
use nyaya::{KnowledgeBase, PreparedQuery, Subscription, UpdateBatch};

use crate::check::{same, Digest, Expected, RefDb};
use crate::common::{cores, hit_ratio, timed, ScratchDir};
use crate::inputs::{self, Batch, Lubm, GRAD_COURSES, U_Q1};
use crate::lubm_join::{self, LUBM_FACTS};
use crate::metrics::Report;
use crate::stats::{low_decile, median, pair_means, percentile};
use crate::trace::Tracer;

/// Recoveries per run; `setup_s` is the lower decile over them. Each costs ~4.5 s
/// (1 s to recover, 3.5 s to seed the standing query's view).
const SETUP_REPS: usize = 2;

struct Ready {
    kb: KnowledgeBase,
    standing: PreparedQuery,
    untouched: PreparedQuery,
    subscription: Subscription,
    /// Size of the standing query's answer set, tracked from the diffs.
    standing_count: i64,
}

fn open(dir: &Path) -> Result<KnowledgeBase, String> {
    KnowledgeBase::builder()
        .ontology(load(BenchmarkId::U).raw)
        .durable(dir)
        .build()
        .map_err(|e| format!("open {}: {e}", dir.display()))
}

/// Write the generated facts as epoch 0 of a fresh ledger in `dir`.
fn create(lubm: &Lubm, dir: &Path) -> Result<f64, String> {
    let (ontology, facts) = (load(BenchmarkId::U).raw, lubm.facts.clone());
    let (kb, ms) = timed(|| {
        KnowledgeBase::builder()
            .ontology(ontology)
            .facts(facts)
            .durable(dir)
            .build()
    });
    kb.map(|_| ms).map_err(|e| format!("create ledger: {e}"))
}

/// Directory → ready for the first cycle: recover, prepare the two
/// queries, subscribe, and read both once so their answers are cached.
fn setup(dir: &Path) -> Result<(Ready, f64), String> {
    let queries = inputs::lubm_queries();
    let (ready, ms) = timed(|| -> Result<Ready, String> {
        let kb = open(dir)?;
        let standing = kb
            .prepare_text(&queries[GRAD_COURSES].1)
            .map_err(|e| e.to_string())?;
        let untouched = kb
            .prepare_text(&queries[U_Q1].1)
            .map_err(|e| e.to_string())?;
        let subscription = kb.subscribe(&standing).map_err(|e| e.to_string())?;
        let seeded: i64 = subscription
            .poll()
            .iter()
            .map(|d| d.added.len() as i64 - d.removed.len() as i64)
            .sum();
        let first = kb.execute(&standing).map_err(|e| e.to_string())?;
        kb.execute(&untouched).map_err(|e| e.to_string())?;
        if first.tuples.len() as i64 != seeded {
            return Err(format!(
                "subscription seeded {seeded} answers, execution found {}",
                first.tuples.len()
            ));
        }
        Ok(Ready {
            kb,
            standing,
            untouched,
            subscription,
            standing_count: seeded,
        })
    });
    ready.map(|r| (r, ms))
}

fn update(batch: &Batch) -> UpdateBatch {
    UpdateBatch::new()
        .insert_all(batch.inserts.iter().cloned())
        .retract_all(batch.retracts.iter().cloned())
}

/// Milliseconds of the four steps of one cycle.
struct Cycle {
    apply: f64,
    poll: f64,
    stale_read: f64,
    cached_read: f64,
}

/// One cycle; `Err` names the first thing that was not as it must be.
fn cycle(
    ready: &mut Ready,
    batch: &Batch,
    epoch: u64,
    untouched_answers: u64,
) -> (Cycle, Result<(), String>) {
    let pending = update(batch);
    let (outcome, apply) = timed(|| ready.kb.apply(pending));
    let (diffs, poll) = timed(|| ready.subscription.poll());
    let (stale, stale_read) = timed(|| ready.kb.execute(&ready.standing));
    let (cached, cached_read) = timed(|| ready.kb.execute(&ready.untouched));
    let times = Cycle {
        apply,
        poll,
        stale_read,
        cached_read,
    };
    let check = (|| {
        let outcome = outcome.map_err(|e| format!("apply: {e}"))?;
        if (outcome.epoch, outcome.inserted, outcome.retracted) != (epoch, 4, 2) {
            return Err(format!("epoch {epoch}: apply reported {outcome:?}"));
        }
        if diffs.len() != 1 || diffs[0].epoch != epoch {
            return Err(format!(
                "epoch {epoch}: poll returned {} diffs",
                diffs.len()
            ));
        }
        ready.standing_count += diffs[0].added.len() as i64 - diffs[0].removed.len() as i64;
        let stale = stale.map_err(|e| format!("stale read: {e}"))?;
        if stale.tuples.len() as i64 != ready.standing_count {
            return Err(format!(
                "epoch {epoch}: re-execution has {} answers, the maintained view {}",
                stale.tuples.len(),
                ready.standing_count
            ));
        }
        let cached = cached.map_err(|e| format!("cached read: {e}"))?;
        if cached.tuples.len() as u64 != untouched_answers {
            return Err(format!(
                "epoch {epoch}: U-q1 changed to {} answers",
                cached.tuples.len()
            ));
        }
        Ok(())
    })();
    (times, check)
}

/// Fingerprints of the live state: epoch, fact count, both answer sets.
fn state(
    kb: &KnowledgeBase,
    standing: &PreparedQuery,
    untouched: &PreparedQuery,
) -> Result<(u64, usize, Digest, Digest), String> {
    let a = kb.execute(standing).map_err(|e| e.to_string())?;
    let b = kb.execute(untouched).map_err(|e| e.to_string())?;
    Ok((
        kb.epoch(),
        kb.snapshot().len(),
        Digest::of_terms(&a.tuples),
        Digest::of_terms(&b.tuples),
    ))
}

pub fn run(seed: u64, seconds: u64, report: &mut Report, out_dir: &Path) {
    // A cycle takes ~0.3 s at the defining commit. Cycles come in pairs
    // (see `stats::pair_means`) and stay under the default flush interval
    // of 64 batches, so no background segment flush lands in a run.
    let cycles = 2 * ((seconds * 4 / 3).clamp(2, 31)) as usize;
    let names = inputs::lubm_queries();
    let (lubm, gen_ms) = timed(|| inputs::lubm(seed, LUBM_FACTS));
    let batches = inputs::batches(seed, &lubm, cycles);
    let scratch = match ScratchDir::new(out_dir, "lubm_rw") {
        Ok(dir) => dir,
        Err(e) => return report.op(Err(format!("scratch directory: {e}"))),
    };
    let dir = scratch.path().join("ledger");
    let create_ms = match create(&lubm, &dir) {
        Ok(ms) => ms,
        Err(e) => return report.op(Err(e)),
    };

    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Two writers must never share a ledger: drop before reopening.
        drop(last.take());
        match setup(&dir) {
            Ok((ready, ms)) => {
                setup_s.push(ms / 1e3);
                last = Some(ready);
            }
            Err(e) => return report.op(Err(format!("set-up: {e}"))),
        }
    }
    let mut ready = last.expect("SETUP_REPS > 0");

    // Both queries against the references before the first write.
    let expected = Expected::embedded();
    let mut refdb = RefDb::new(&lubm.facts);
    let mut cqs = 0u64;
    let mut untouched_answers = 0;
    for (query, index) in [(&ready.standing, GRAD_COURSES), (&ready.untouched, U_Q1)] {
        let name = &names[index].0;
        let outcome = (|| {
            let (size, want) = refdb.answers(&ready.kb, query)?;
            let got = Digest::of_terms(&ready.kb.execute(query).map_err(|e| e.to_string())?.tuples);
            cqs += size;
            if index == U_Q1 {
                untouched_answers = got.count;
            }
            same(name, got, want)?;
            expected.check("lubm", name, seed, size, got)
        })();
        report.op(outcome);
    }
    drop(refdb);

    let hits_before = ready.kb.stats().cache_answer_hits;
    let mut times = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        let (cycle_ms, check) = cycle(&mut ready, batch, i as u64 + 1, untouched_answers);
        times.push(cycle_ms);
        // Four operations per cycle; a failed check fails the cycle's apply.
        report.attempted += 3;
        report.op(check);
    }
    let stats = ready.kb.stats();
    report.op(if stats.cache_answer_hits - hits_before == cycles as u64 {
        Ok(())
    } else {
        Err(format!(
            "{} answer-cache hits over {cycles} cycles: U-q1 must hit once per cycle and grad-courses never",
            stats.cache_answer_hits - hits_before
        ))
    });

    // Everything acknowledged must be readable after a restart.
    let (compacted, compact_ms) = timed(|| ready.kb.compact());
    report.op(compacted.map(|_| ()).map_err(|e| format!("compact: {e}")));
    let live = state(&ready.kb, &ready.standing, &ready.untouched);
    let maintained = Digest::of_terms(&ready.subscription.current());
    let Ready {
        kb,
        standing,
        untouched,
        subscription,
        ..
    } = ready;
    drop(subscription);
    drop(kb);
    let (reopened, reopen_ms) = timed(|| open(&dir));
    report.op((|| {
        let reopened = reopened?;
        let live = live?;
        let recovered = state(&reopened, &standing, &untouched)?;
        if recovered != live {
            return Err(format!("after reopen {recovered:?}, before {live:?}"));
        }
        if live.0 != cycles as u64 || live.1 != lubm.facts.len() + 2 * cycles {
            return Err(format!(
                "epoch {} with {} facts after {cycles} batches",
                live.0, live.1
            ));
        }
        same("maintained view vs re-execution", maintained, live.2)?;
        let history = reopened.ledger_history().map_err(|e| e.to_string())?;
        if history.latest_epoch != cycles as u64 {
            return Err(format!("ledger ends at epoch {}", history.latest_epoch));
        }
        // The state half way, rebuilt from the ledger alone.
        let half = cycles as u64 / 2;
        let past = reopened
            .snapshot_at(half)
            .map_err(|e| format!("epoch {half}: {e}"))?;
        if past.len() != lubm.facts.len() + 2 * half as usize {
            return Err(format!("epoch {half} has {} facts", past.len()));
        }
        // And the final answers from the reference evaluator over the
        // facts the batches should have left.
        let mut refdb = RefDb::new(inputs::facts_after(&lubm, &batches));
        for (query, got) in [(&standing, live.2), (&untouched, live.3)] {
            same("final state", got, refdb.answers(&reopened, query)?.1)?;
        }
        Ok(())
    })());

    let series = |f: fn(&Cycle) -> f64| -> Vec<f64> { times.iter().map(f).collect() };
    let applies = series(|c| c.apply);
    let apply = pair_means(&applies);
    let stale = pair_means(&series(|c| c.stale_read));
    let whole = pair_means(&series(|c| c.apply + c.poll + c.stale_read + c.cached_read));
    // The slow end of a write is the slower of the two alternating kinds of
    // `apply`. An upper percentile of a 15 s run measures the neighbours on
    // the host: the p90 of these 20 pairs moves by 22 % between runs.
    let phase =
        |first: usize| -> Vec<f64> { applies.iter().skip(first).step_by(2).copied().collect() };
    let slow_apply = low_decile(&phase(0)).max(low_decile(&phase(1)));
    report.setup(&setup_s);
    report.set("op_ms", low_decile(&apply), cycles);
    report.set("op_ms_tail", slow_apply, cycles);
    report.set("alt_ms", low_decile(&stale), cycles);
    report.set("ops_per_s", 1e3 / low_decile(&whole), cycles);
    report.info("apply_ms_p90", percentile(&apply, 90.0), "ms", cycles);
    report.set(
        "resident_bytes_per_fact",
        (stats.fact_bytes + stats.index_bytes) as f64 / stats.snapshot_facts.max(1) as f64,
        1,
    );
    report.set("rewriting_cqs", cqs as f64, 2);
    report.info("apply_ms_p50", median(&series(|c| c.apply)), "ms", cycles);
    report.info(
        "stale_read_ms_p50",
        median(&series(|c| c.stale_read)),
        "ms",
        cycles,
    );
    report.info(
        "cached_read_ms_p50",
        median(&series(|c| c.cached_read)),
        "ms",
        cycles,
    );
    report.info(
        "poll_us_p50",
        median(&series(|c| c.poll)) * 1e3,
        "us",
        cycles,
    );
    report.info("reopen_s", reopen_ms / 1e3, "s", 1);
    report.info("compact_s", compact_ms / 1e3, "s", 1);
    report.info("create_s", create_ms / 1e3, "s", 1);
    report.info(
        "ivm_ms_per_apply",
        stats.ivm_micros as f64 / 1e3 / cycles as f64,
        "ms",
        cycles,
    );
    report.info(
        "wal_bytes_per_batch",
        stats.wal_bytes as f64 / cycles as f64,
        "B",
        cycles,
    );
    report.info("cores", cores() as f64, "count", 1);
    report.info("ontologies.gen_s", gen_ms / 1e3, "s", 1);
}

/// The traced run: the same batch stream applied to a plain in-memory
/// knowledge base and to the durable one with its subscription, each step
/// under a span; the WAL append, the segment codec, compaction and
/// recovery on their own.
pub fn run_traced(seed: u64, report: &mut Report, out_dir: &Path) {
    const CYCLES: usize = 20;
    let (lubm, gen_ms) = timed(|| inputs::lubm(seed, LUBM_FACTS));
    let batches = inputs::batches(seed, &lubm, CYCLES);
    let scratch = match ScratchDir::new(out_dir, "lubm_rw_trace") {
        Ok(dir) => dir,
        Err(e) => return report.op(Err(format!("scratch directory: {e}"))),
    };
    let mut t = Tracer::new();

    // In memory, nobody subscribed: what a write costs before IVM and WAL.
    {
        let (plain, _) = lubm_join::setup(&lubm, true);
        for batch in &batches {
            t.next_op();
            let pending = update(batch);
            let outcome = t.span("kb.apply_mem", |_| plain.kb.apply(pending));
            report.op(outcome
                .map(|_| ())
                .map_err(|e| format!("in-memory apply: {e}")));
        }
    }

    // The WAL alone: encode the batch, append, fsync.
    let mut wal_bytes = 0u64;
    match Ledger::open(&scratch.path().join("wal-only")) {
        Ok((mut ledger, _)) => {
            for batch in &batches {
                t.next_op();
                let appended = t.span("ledger.append", |_| {
                    let payload = encode_batch(&batch.retracts, &batch.inserts);
                    ledger.append(ledger.next_epoch(), &payload)
                });
                match appended {
                    Ok(bytes) => wal_bytes += bytes,
                    Err(e) => report.op(Err(format!("WAL append: {e}"))),
                }
            }
        }
        Err(e) => report.op(Err(format!("open scratch ledger: {e}"))),
    }

    // The durable knowledge base with its standing query.
    let dir = scratch.path().join("ledger");
    let create_ms = match create(&lubm, &dir) {
        Ok(ms) => ms,
        Err(e) => return report.op(Err(e)),
    };
    let mut ready = match t.span("kb.setup", |_| setup(&dir)) {
        Ok((ready, _)) => ready,
        Err(e) => return report.op(Err(format!("set-up: {e}"))),
    };
    let subscribe_ms = {
        let (sub, ms) = timed(|| ready.kb.subscribe(&ready.standing));
        drop(sub);
        ms
    };
    let untouched_answers = ready
        .kb
        .execute(&ready.untouched)
        .map_or(0, |a| a.tuples.len() as u64);
    let before = ready.kb.stats();
    let (mut facade_ms, mut staged_ms) = (0.0, 0.0);
    let mut apply_ms = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        t.next_op();
        let (times, check) = t.span("kb.cycle", |_| {
            cycle(&mut ready, batch, i as u64 + 1, untouched_answers)
        });
        report.op(check);
        facade_ms += times.stale_read;
        // The invalidated read again, straight on the engine.
        let snapshot = ready.kb.snapshot();
        let compiled = ready.kb.rewriting(&ready.standing).expect("rewriting");
        let correction = ready.kb.plan_correction(&ready.standing);
        t.span("sql.execute_ucq", |_| {
            nyaya::sql::execute_ucq_intra(
                snapshot.database(),
                &compiled.ucq,
                1,
                cores(),
                snapshot.build_cache(),
                correction,
            )
        });
        staged_ms += t.last_ms("sql.execute_ucq");
        apply_ms.push(times.apply);
    }
    let after = ready.kb.stats();

    // Compaction, the segment codec, recovery.
    let compacted = t.span("ledger.compact", |_| ready.kb.compact());
    report.op(compacted.map(|_| ()).map_err(|e| format!("compact: {e}")));
    let snapshot = ready.kb.snapshot();
    let segment = t.span("sql.segment_encode", |_| {
        encode_database(snapshot.database())
    });
    let decoded = t.span("sql.segment_decode", |_| decode_database(&segment));
    report.op(match decoded {
        Ok(db) if db.len() == snapshot.len() => Ok(()),
        Ok(db) => Err(format!("segment decoded to {} facts", db.len())),
        Err(e) => Err(format!("segment decode: {e}")),
    });
    let facts = snapshot.len();
    drop(snapshot);
    drop(ready);
    let reopened = t.span("ledger.recover", |_| open(&dir));
    let replayed = match &reopened {
        Ok(kb) => kb.stats().recovery_replayed,
        Err(e) => {
            report.op(Err(e.clone()));
            0
        }
    };

    let applied = (CYCLES * 6) as f64;
    let per_op = |name: &str| t.total_ms(name) / t.calls(name).max(1) as f64;
    report.set("kb.apply_mem_ms", per_op("kb.apply_mem"), CYCLES);
    report.set(
        "kb.apply_durable_ms",
        median(&pair_means(&apply_ms)),
        CYCLES,
    );
    report.set("kb.subscribe_ms", subscribe_ms, 1);
    report.set(
        "sql.ivm_ms_per_apply",
        (after.ivm_micros - before.ivm_micros) as f64 / 1e3 / CYCLES as f64,
        CYCLES,
    );
    report.set("ledger.append_ms", per_op("ledger.append"), CYCLES);
    report.set(
        "ledger.wal_bytes_per_fact",
        wal_bytes as f64 / applied,
        CYCLES,
    );
    report.set("ledger.create_ms", create_ms, 1);
    report.set("ledger.compact_ms", t.total_ms("ledger.compact"), 1);
    report.set("sql.segment_encode_ms", t.total_ms("sql.segment_encode"), 1);
    report.set("sql.segment_decode_ms", t.total_ms("sql.segment_decode"), 1);
    report.set(
        "sql.segment_bytes_per_fact",
        segment.len() as f64 / facts.max(1) as f64,
        1,
    );
    report.set("ledger.recover_ms", t.total_ms("ledger.recover"), 1);
    report.set("ledger.recovery_replayed", replayed as f64, 1);
    report.set("sql.exec_ms", staged_ms / CYCLES as f64, CYCLES);
    report.set(
        "kb.answer_cache_hit_ratio",
        hit_ratio(
            after.cache_answer_hits - before.cache_answer_hits,
            after.cache_answer_misses - before.cache_answer_misses,
        ),
        2 * CYCLES,
    );
    report.set(
        "kb.build_cache_invalidations",
        (after.build_cache_invalidations - before.build_cache_invalidations) as f64,
        CYCLES,
    );
    report.facade_vs_staged(facade_ms, staged_ms, CYCLES);
    report.set("ontologies.gen_s", gen_ms / 1e3, 1);
    crate::finish_trace(&t, "lubm_rw", out_dir);
}
