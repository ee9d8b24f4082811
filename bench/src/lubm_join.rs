//! `lubm_join`: eight prepared multi-joins over 1M LUBM facts, in process,
//! answer cache off (the builder switch documented for measuring
//! re-execution — with it on, every repeat is a 1 ms clone). Rewritings are
//! compiled once during set-up; scan, build, probe, materialize and
//! union-dedup are the whole cost. An executor change moves this workload;
//! a rewriter or wire change must not.

use std::path::Path;
use std::sync::Arc;

use nyaya::ontologies::{load, BenchmarkId};
use nyaya::sql::{execute_ucq_intra, plan_cq_cost_corrected, BuildCache, Database};
use nyaya::{KnowledgeBase, PreparedQuery};

use crate::check::{same, Digest, Expected, RefDb, Tuples};
use crate::common::{cores, hit_ratio, timed, ExecTotals};
use crate::inputs::{self, Lubm};
use crate::metrics::Report;
use crate::stats::{geomean, low_decile, median, pair_means, sum};
use crate::trace::Tracer;

pub const LUBM_FACTS: usize = 1_000_000;
/// Knowledge bases built per run; `setup_s` is the lower decile over them, and
/// each contributes one first execution per query.
pub const SETUP_REPS: usize = 5;

pub struct Ready {
    pub kb: Arc<KnowledgeBase>,
    pub prepared: Vec<PreparedQuery>,
}

/// Generated facts → ready for the first operation: build the knowledge
/// base over the U ontology and compile the eight queries.
pub fn setup(lubm: &Lubm, answer_cache: bool) -> (Ready, f64) {
    let ontology = load(BenchmarkId::U).raw;
    let facts = lubm.facts.clone();
    timed(move || {
        let kb = KnowledgeBase::builder()
            .ontology(ontology)
            .facts(facts)
            .answer_cache(answer_cache)
            .build()
            .expect("LUBM knowledge base builds");
        let prepared = inputs::lubm_queries()
            .iter()
            .map(|(_, text)| {
                let query = kb.prepare_text(text).expect("LUBM query parses");
                // Compile now, as a server's PREPARE does.
                if kb.execution_plan(&query).expect("strategy").is_none() {
                    kb.rewriting(&query).expect("rewriting");
                }
                query
            })
            .collect();
        Ready {
            kb: Arc::new(kb),
            prepared,
        }
    })
}

/// Reference answers of the eight queries over `facts`, from the reference
/// evaluator on the rewriting each query compiled to, plus the CQ counts.
pub fn references<'a>(
    ready: &Ready,
    facts: impl IntoIterator<Item = &'a nyaya::core::Atom>,
) -> (Vec<Digest>, Vec<u64>) {
    let mut refdb = RefDb::new(facts);
    ready
        .prepared
        .iter()
        .map(|query| {
            let (cqs, digest) = refdb.answers(&ready.kb, query).expect("compiled in set-up");
            (digest, cqs)
        })
        .unzip()
}

pub fn run(seed: u64, seconds: u64, report: &mut Report) {
    // One round of the eight queries takes ~1.5 s at the defining commit.
    // Rounds come in pairs (see `stats::pair_means`).
    let rounds = 2 * (seconds / 3).max(1) as usize;
    let names = inputs::lubm_queries();
    let (lubm, gen_ms) = timed(|| inputs::lubm(seed, LUBM_FACTS));

    // Set up several times; the first execution of each query on each
    // fresh knowledge base (cold build cache, no feedback yet) is the
    // contrasting operation.
    let mut setup_s = Vec::new();
    let mut first_ms: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    let mut first: Vec<Tuples> = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (ready, ms) = setup(&lubm, false);
        setup_s.push(ms / 1e3);
        first.clear();
        for (q, query) in ready.prepared.iter().enumerate() {
            let (answers, ms) = timed(|| ready.kb.execute(query));
            first_ms[q].push(ms);
            match answers {
                Ok(a) => {
                    report.op(Ok(()));
                    first.push(a.tuples);
                }
                Err(e) => {
                    report.op(Err(format!("{}: {e}", names[q].0)));
                    first.push(Tuples::new());
                }
            }
        }
        last = Some(ready);
    }
    let ready = last.expect("SETUP_REPS > 0");

    // The first executions are checked against the references; every later
    // execution must repeat them exactly.
    let expected = Expected::embedded();
    let (want, cqs) = references(&ready, &lubm.facts);
    for (q, (name, _)) in names.iter().enumerate() {
        let got = Digest::of_terms(&first[q]);
        report.op(same(name, got, want[q]));
        report.op(expected.check("lubm", name, seed, cqs[q], got));
    }

    // Round two lets the planner's feedback settle; then the measured rounds.
    let mut exec_ms: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    for round in 0..=rounds {
        for (q, query) in ready.prepared.iter().enumerate() {
            let (answers, ms) = timed(|| ready.kb.execute(query));
            if round > 0 {
                exec_ms[q].push(ms);
            }
            report.op(match answers {
                Ok(a) if a.tuples == first[q] => Ok(()),
                Ok(a) => Err(format!(
                    "{}: round {round} returned {} tuples, the first execution {}",
                    names[q].0,
                    a.tuples.len(),
                    first[q].len()
                )),
                Err(e) => Err(format!("{}: {e}", names[q].0)),
            });
        }
    }

    let per_query: Vec<f64> = exec_ms.iter().map(|s| low_decile(&pair_means(s))).collect();
    let per_query_p50: Vec<f64> = exec_ms.iter().map(|s| median(&pair_means(s))).collect();
    let firsts: Vec<f64> = first_ms.iter().map(|s| low_decile(s)).collect();
    let firsts_p50: Vec<f64> = first_ms.iter().map(|s| median(s)).collect();
    let ops = rounds * names.len();
    let busy_s: f64 = exec_ms.iter().map(|s| sum(s)).sum::<f64>() / 1e3;
    let stats = ready.kb.stats();
    report.setup(&setup_s);
    report.set("op_ms", geomean(&per_query), ops);
    // The slow end: the three slowest of the eight queries. The slowest
    // alone (U-q3, two cores busy on 0.5M-row tables) moves by 10 % between
    // two processes on the same inputs.
    let mut slowest = per_query.clone();
    slowest.sort_by(|a, b| b.total_cmp(a));
    report.set("op_ms_tail", geomean(&slowest[..3]), 3 * rounds);
    report.set("alt_ms", geomean(&firsts), SETUP_REPS * names.len());
    report.set(
        "ops_per_s",
        names.len() as f64 / (sum(&per_query) / 1e3),
        ops,
    );
    report.info("exec_ops_per_s", ops as f64 / busy_s, "1/s", ops);
    report.set(
        "resident_bytes_per_fact",
        (stats.fact_bytes + stats.index_bytes) as f64 / stats.snapshot_facts.max(1) as f64,
        1,
    );
    report.set("rewriting_cqs", cqs.iter().sum::<u64>() as f64, names.len());
    report.info("exec_ms_geomean", geomean(&per_query_p50), "ms", ops);
    report.info(
        "first_exec_ms_geomean",
        geomean(&firsts_p50),
        "ms",
        SETUP_REPS * names.len(),
    );
    report.info("plan_replans", stats.plan_replans as f64, "count", ops);
    report.info("facts", stats.snapshot_facts as f64, "count", 1);
    report.info("cores", cores() as f64, "count", 1);
    report.info("ontologies.gen_s", gen_ms / 1e3, "s", 1);
    for (q, (name, _)) in names.iter().enumerate() {
        report.info(&format!("exec_ms.{name}"), per_query[q], "ms", rounds);
    }
}

/// The traced run: each operation once through the facade and once through
/// `execute_ucq_intra` directly with the plan correction the facade used,
/// plus the build-side probes (fresh vs warm `BuildCache`).
pub fn run_traced(seed: u64, report: &mut Report, out_dir: &Path) {
    const ROUNDS: usize = 4;
    let names = inputs::lubm_queries();
    let (lubm, gen_ms) = timed(|| inputs::lubm(seed, LUBM_FACTS));
    let mut t = Tracer::new();

    let facts = lubm.facts.clone();
    let db = t.span("sql.load", |_| Database::from_facts(facts));
    let load_ms = t.last_ms("sql.load");
    let memory = db.memory_stats();
    drop(db);

    let (ready, _) = setup(&lubm, false);
    let snapshot = ready.kb.snapshot();
    let unions: Vec<_> = ready
        .prepared
        .iter()
        .map(|q| ready.kb.rewriting(q).expect("rewriting"))
        .collect();
    let run_direct = |cache: &BuildCache, q: usize, correction: f64| {
        execute_ucq_intra(
            snapshot.database(),
            &unions[q].ucq,
            1,
            cores(),
            cache,
            correction,
        )
    };

    // Build sides: the same execution with a fresh cache, then a warm one.
    let (mut cold_ms, mut warm_ms) = (0.0, 0.0);
    for q in 0..names.len() {
        let cache = BuildCache::new();
        t.next_op();
        t.span("probe.sql.exec_cold_build", |_| run_direct(&cache, q, 1.0));
        cold_ms += t.last_ms("probe.sql.exec_cold_build");
        t.span("probe.sql.exec_warm_build", |_| run_direct(&cache, q, 1.0));
        warm_ms += t.last_ms("probe.sql.exec_warm_build");
    }

    let mut execs = ExecTotals::default();
    let (mut facade_ms, mut staged_ms, mut first_ms) = (0.0, 0.0, 0.0);
    let (mut plan_us, mut plans) = (0.0, 0usize);
    let mut per_query: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    let replans_before = ready.kb.stats().plan_replans;
    for round in 0..ROUNDS {
        for (q, query) in ready.prepared.iter().enumerate() {
            t.next_op();
            let correction = ready.kb.plan_correction(query);
            let facade = t.span("kb.execute", |_| ready.kb.execute(query));
            let ms = t.last_ms("kb.execute");
            if round == 0 {
                first_ms += ms;
                continue;
            }
            facade_ms += ms;
            let (staged, metrics) = t.span("staged.op", |t| {
                t.span("sql.execute_ucq", |_| {
                    run_direct(snapshot.build_cache(), q, correction)
                })
            });
            staged_ms += t.last_ms("staged.op");
            per_query[q].push(t.last_ms("sql.execute_ucq"));
            execs.add(&metrics);
            report.op(match facade {
                Ok(a) if a.tuples == staged => Ok(()),
                Ok(_) => Err(format!("{}: staged replay and facade disagree", names[q].0)),
                Err(e) => Err(format!("{}: {e}", names[q].0)),
            });
            t.span("probe.sql.plan", |_| {
                for cq in unions[q].ucq.iter() {
                    std::hint::black_box(plan_cq_cost_corrected(
                        snapshot.database(),
                        cq,
                        correction,
                    ));
                }
            });
            plan_us += t.last_ms("probe.sql.plan") * 1e3;
            plans += unions[q].ucq.size();
        }
    }

    let n = (ROUNDS - 1) * names.len();
    let stats = ready.kb.stats();
    report.set(
        "sql.load_facts_per_s",
        memory_rows(&memory) as f64 / (load_ms / 1e3),
        1,
    );
    report.set("sql.fact_bytes", memory.fact_bytes as f64, 1);
    report.set("sql.index_bytes", memory.index_bytes as f64, 1);
    report.set(
        "sql.index_to_fact_ratio",
        memory.index_bytes as f64 / memory.fact_bytes.max(1) as f64,
        1,
    );
    report.set("sql.exec_cold_build_ms", cold_ms, names.len());
    report.set("sql.exec_warm_build_ms", warm_ms, names.len());
    report.set("sql.build_ms", cold_ms - warm_ms, names.len());
    report.set("sql.first_exec_ms", first_ms, names.len());
    report.set("sql.exec_ms", staged_ms, n);
    report.set(
        "sql.rows_out_per_s",
        execs.rows as f64 / (staged_ms / 1e3),
        n,
    );
    report.set("sql.morsel_tasks", execs.morsel_tasks as f64, n);
    report.set("sql.build_cache_hits", execs.build_cache_hits as f64, n);
    report.set("sql.build_cache_misses", execs.build_cache_misses as f64, n);
    report.set("sql.merge_joins", execs.merge_joins as f64, n);
    report.set("sql.plan_us", plan_us / plans.max(1) as f64, plans);
    report.set(
        "sql.plan_est_over_actual",
        execs.estimated_rows as f64 / execs.rows.max(1) as f64,
        n,
    );
    report.set(
        "sql.plan_replans",
        (stats.plan_replans - replans_before) as f64,
        2 * n,
    );
    for (q, (name, _)) in names.iter().enumerate() {
        report.set(
            &format!("sql.exec_ms.{name}"),
            median(&per_query[q]),
            per_query[q].len(),
        );
    }
    report.facade_vs_staged(facade_ms, staged_ms, n);
    report.set(
        "kb.rewrite_cache_hit_ratio",
        hit_ratio(stats.cache_hits, stats.cache_misses),
        1,
    );
    report.set("ontologies.gen_s", gen_ms / 1e3, 1);
    crate::finish_trace(&t, "lubm_join", out_dir);
}

fn memory_rows(memory: &nyaya::sql::DbMemory) -> u64 {
    memory.tables.iter().map(|t| t.rows as u64).sum()
}
