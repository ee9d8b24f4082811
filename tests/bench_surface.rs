//! Tier-1 guard for the frozen end-to-end benchmark.
//!
//! `bench/` is a package of its own that `cargo test` never builds, yet it
//! compiles against this crate's public API and may not be edited by the
//! changes it judges. This test pins everything `bench/src` imports from
//! the execution layer (`grep -rn "nyaya::" bench/src`): each function is
//! coerced to the exact `fn` type the benchmark calls it with, and each
//! counter it reads is read here with the type it does arithmetic on — so
//! an API change that would break the benchmark's build fails here first.

use std::collections::BTreeSet;

use nyaya::core::{ConjunctiveQuery, DatalogProgram, Term, UnionQuery};
use nyaya::sql::reference::execute_ucq_reference;
use nyaya::sql::{
    execute_program, execute_program_shared, execute_ucq, execute_ucq_intra, plan_cq_cost,
    plan_cq_cost_corrected, BuildCache, CostPlan, Database, DbMemory, ExecMetrics, ProgramError,
    ProgramMetrics,
};
use nyaya::{KbStats, KnowledgeBase, PreparedQuery};

type Tuples = BTreeSet<Vec<Term>>;

// The point of this test is to spell each signature out in full.
#[allow(clippy::type_complexity)]
#[test]
fn functions_the_benchmark_calls_keep_their_signatures() {
    let _: fn(&Database, &UnionQuery, usize, usize, &BuildCache, f64) -> (Tuples, ExecMetrics) =
        execute_ucq_intra;
    let _: fn(&Database, &UnionQuery) -> Tuples = execute_ucq;
    let _: fn(&Database, &UnionQuery) -> Tuples = execute_ucq_reference;
    let _: fn(&Database, &DatalogProgram) -> Result<Tuples, ProgramError> = execute_program;
    let _: fn(
        &Database,
        &DatalogProgram,
        usize,
        &BuildCache,
    ) -> Result<(Tuples, ProgramMetrics), ProgramError> = execute_program_shared;
    let _: fn(&Database, &ConjunctiveQuery) -> CostPlan = plan_cq_cost;
    let _: fn(&Database, &ConjunctiveQuery, f64) -> CostPlan = plan_cq_cost_corrected;
    let _: fn(&KnowledgeBase, &PreparedQuery) -> f64 = KnowledgeBase::plan_correction;
}

#[test]
fn counters_the_benchmark_reads_keep_their_names_and_types() {
    let kb = KnowledgeBase::from_program_text(
        "sigma1: manager(X) -> employee(X).\n\
         manager(ann).\n\
         employee(bob).\n\
         q(A) :- employee(A).\n",
    )
    .unwrap();
    let prepared = kb.prepare(&kb.queries()[0].clone()).unwrap();
    let answers = kb.execute(&prepared).unwrap().tuples;
    assert_eq!(answers.len(), 2);

    let KbStats {
        plan_replans,
        cache_hits,
        cache_misses,
        cache_answer_hits,
        cache_answer_misses,
        build_cache_invalidations,
        ivm_micros,
        wal_bytes,
        recovery_replayed,
        fact_bytes,
        index_bytes,
        snapshot_facts,
        ..
    } = kb.stats();
    let _: [u64; 11] = [
        plan_replans,
        cache_hits,
        cache_misses,
        cache_answer_hits,
        cache_answer_misses,
        build_cache_invalidations,
        ivm_micros,
        wal_bytes,
        recovery_replayed,
        fact_bytes,
        index_bytes,
    ];
    assert_eq!(snapshot_facts, 2usize);

    let snapshot = kb.snapshot();
    let db = snapshot.database();
    let ucq = kb.rewriting(&prepared).unwrap().ucq.clone();
    let (tuples, m) = execute_ucq_intra(db, &ucq, 1, 1, &BuildCache::new(), 1.0);
    assert_eq!(tuples, answers);
    let _: usize = m.rows;
    let _: [u64; 5] = [
        m.estimated_rows,
        m.morsel_tasks,
        m.build_cache_hits,
        m.build_cache_misses,
        m.merge_joins,
    ];

    let m = ProgramMetrics::default();
    let _: usize = m.rows;
    let _: [u64; 4] = [
        m.morsel_tasks,
        m.build_cache_hits,
        m.build_cache_misses,
        m.merge_joins,
    ];

    let DbMemory {
        fact_bytes,
        index_bytes,
        tables,
    } = db.memory_stats();
    let _: [u64; 2] = [fact_bytes, index_bytes];
    assert_eq!(tables.iter().map(|t| t.rows).sum::<usize>(), 2);
}
