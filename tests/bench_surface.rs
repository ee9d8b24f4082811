//! Tier-1 guard for the frozen end-to-end benchmark.
//!
//! `bench/` is a package of its own that `cargo test` never builds, yet it
//! compiles against this crate's public API and may not be edited by the
//! changes it judges. This test pins everything `bench/src` imports from
//! the execution and rewriting layers (`grep -rn "nyaya::" bench/src`):
//! each function is
//! coerced to the exact `fn` type the benchmark calls it with, and each
//! counter it reads is read here with the type it does arithmetic on — so
//! an API change that would break the benchmark's build fails here first.
//! Every other path `bench/src` imports is named once in
//! `paths_the_benchmark_imports_resolve`, so a module or item that stops
//! being public fails here too.

use std::collections::{BTreeSet, HashSet};

use nyaya::core::{
    canonical_key, classify, normalize, Atom, CanonicalKey, Classification, ConjunctiveQuery,
    DatalogProgram, DatalogRule, NegativeConstraint, Normalization, Predicate, Symbol, Term, Tgd,
    UnionQuery,
};
use nyaya::ledger::Ledger;
use nyaya::ontologies::lubm::{lubm_abox, LubmConfig};
use nyaya::ontologies::rng::Prng;
use nyaya::ontologies::{
    adolena, generate_abox, load, path5, stockexchange, university, vicodi, AboxConfig, Benchmark,
    BenchmarkId,
};
use nyaya::parser::parse_query;
use nyaya::rewrite::{
    estimate_dnf_bound, interaction_clusters, minimize_union_with_stats, nr_datalog_rewrite_with,
    tgd_rewrite_with, EliminationContext, ProgramRewriting, RewriteError, RewriteOptions,
    RewriteStats, Rewriting, SubsumptionStats,
};
use nyaya::serve::{
    serve, write_frame, AnswerSet, Backend, Client, Request, Response, Server, ServerConfig,
};
use nyaya::sql::reference::execute_ucq_reference;
use nyaya::sql::{
    decode_database, encode_batch, encode_database, execute_program, execute_program_shared,
    execute_ucq, execute_ucq_intra, plan_cq_cost, plan_cq_cost_corrected, BuildCache, CodecError,
    CostPlan, Database, DbMemory, ExecMetrics, ProgramError, ProgramMetrics,
};
use nyaya::{
    CompiledProgram, CompiledRewriting, ExecutorKind, KbBackend, KbStats, KnowledgeBase,
    KnowledgeBaseBuilder, NyayaError, PreparedQuery, Strategy, Subscription, UpdateBatch,
    DEFAULT_PROGRAM_THRESHOLD,
};

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

#[allow(clippy::type_complexity)]
#[test]
fn facade_methods_the_benchmark_calls_keep_their_signatures() {
    use std::sync::Arc;
    let _: fn(&KnowledgeBase, &PreparedQuery) -> Result<Arc<CompiledRewriting>, NyayaError> =
        KnowledgeBase::rewriting;
    let _: fn(&KnowledgeBase, &PreparedQuery) -> Result<Option<Arc<CompiledProgram>>, NyayaError> =
        KnowledgeBase::execution_plan;
    let _: fn(&KnowledgeBase, &str) -> Result<PreparedQuery, NyayaError> =
        KnowledgeBase::prepare_text;
    let _: fn(KnowledgeBaseBuilder, bool) -> KnowledgeBaseBuilder =
        KnowledgeBaseBuilder::answer_cache;
}

#[test]
fn compiled_fields_the_benchmark_reads_keep_their_names_and_types() {
    // `check.rs`, `lubm_join.rs`, `lubm_rw.rs` and `verify.rs` read the
    // compiled artifacts the facade hands out.
    let kb = KnowledgeBase::builder()
        .program_text("sigma1: manager(X) -> employee(X).\nq(A) :- employee(A), manager(A).\n")
        .unwrap()
        .strategy(Strategy::Program)
        .answer_cache(false)
        .build()
        .unwrap();
    let prepared = kb.prepare_text("q(A) :- employee(A), manager(A).").unwrap();
    let _: &UnionQuery = &kb.rewriting(&prepared).unwrap().ucq;
    let program = kb.execution_plan(&prepared).unwrap().unwrap();
    let _: &DatalogProgram = &program.program;
    let _: usize = program.estimated_dnf;
    let _: &RewriteStats = &program.stats;
}

#[allow(clippy::type_complexity)]
#[test]
fn rewriting_functions_the_benchmark_calls_keep_their_signatures() {
    let _: fn(
        &ConjunctiveQuery,
        &[Tgd],
        &[NegativeConstraint],
        &RewriteOptions,
        Option<&EliminationContext>,
    ) -> Result<Rewriting, RewriteError> = tgd_rewrite_with;
    let _: fn(
        &ConjunctiveQuery,
        &[Tgd],
        &[NegativeConstraint],
        &RewriteOptions,
        Option<&EliminationContext>,
    ) -> Result<ProgramRewriting, RewriteError> = nr_datalog_rewrite_with;
    let _: fn(&UnionQuery) -> (UnionQuery, SubsumptionStats) = minimize_union_with_stats;
    let _: fn(&ConjunctiveQuery, &[Tgd]) -> usize = estimate_dnf_bound;
    let _: fn(&ConjunctiveQuery, &[Tgd]) -> Vec<Vec<usize>> = interaction_clusters;
    let _: fn(&[Tgd]) -> EliminationContext = EliminationContext::new;
    let _: fn(&EliminationContext, &ConjunctiveQuery) -> ConjunctiveQuery =
        EliminationContext::eliminate;
    let _: fn(&ConjunctiveQuery) -> CanonicalKey = canonical_key;
    let _: fn(&[Tgd]) -> Classification = classify;
    let _: fn(&[Tgd]) -> Normalization = normalize;
}

#[test]
fn rewriting_options_and_counters_the_benchmark_uses_keep_their_names_and_types() {
    // `Compiled::build` and `Compiled::options` of bench/src/common.rs.
    let kb = KnowledgeBase::from_program_text("sigma1: manager(X) -> employee(X).").unwrap();
    let raw = &kb.ontology().tgds;
    let classification = classify(raw);
    let normalization = normalize(raw);
    let _: &HashSet<Predicate> = &normalization.aux_predicates;
    let elimination: Option<EliminationContext> = classification
        .linear
        .then(|| EliminationContext::new(&normalization.tgds));
    let options = RewriteOptions {
        elimination: elimination.is_some(),
        nc_pruning: false,
        hidden_predicates: normalization.aux_predicates.clone(),
        ..RewriteOptions::default()
    };
    let query = nyaya::parser::parse_query("q(A) :- employee(A).").unwrap();
    let elim = elimination.as_ref();
    let rewriting = tgd_rewrite_with(&query, &normalization.tgds, &[], &options, elim).unwrap();
    assert_eq!(rewriting.ucq.size(), 2);
    let RewriteStats {
        explored,
        dedup_hits,
        factorization_products,
        rewriting_products,
        atoms_eliminated,
        program_rules,
        ..
    } = rewriting.stats;
    let _: [usize; 6] = [
        explored,
        dedup_hits,
        factorization_products,
        rewriting_products,
        atoms_eliminated,
        program_rules,
    ];

    let out = nr_datalog_rewrite_with(&query, &normalization.tgds, &[], &options, elim).unwrap();
    let _: usize = out.estimated_dnf;
    let _: &DatalogProgram = &out.program;
    let _: usize = out.stats.program_rules;

    let (_, stats) = minimize_union_with_stats(&rewriting.ucq);
    let _: [usize; 2] = [stats.hom_checks, stats.skipped_by_signature];
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

#[allow(clippy::type_complexity)]
#[test]
fn paths_the_benchmark_imports_resolve() {
    use std::net::SocketAddr;
    // `inputs.rs`: the suite queries and the two ABox generators.
    let suites: [&[(&str, &str); 5]; 5] = [
        &adolena::ADOLENA_QUERIES,
        &path5::PATH5_QUERIES,
        &stockexchange::STOCKEXCHANGE_QUERIES,
        &university::UNIVERSITY_QUERIES,
        &vicodi::VICODI_QUERIES,
    ];
    assert!(suites.iter().all(|queries| !queries.is_empty()));
    let _: fn(BenchmarkId) -> Benchmark = load;
    let _: fn(&Benchmark, &AboxConfig) -> Vec<Atom> = generate_abox;
    let _: fn(&LubmConfig) -> Vec<Atom> = lubm_abox;
    let _: fn(usize, u64) -> LubmConfig = LubmConfig::with_at_least;
    let _: fn(u64) -> Prng = Prng::seed_from_u64;
    let _: fn(&str) -> Result<ConjunctiveQuery, nyaya::parser::ParseError> = parse_query;

    // `lubm_rw.rs`: the segment codec and the ledger it reopens.
    let _: fn(&Database) -> Vec<u8> = encode_database;
    let _: fn(&[u8]) -> Result<Database, CodecError> = decode_database;
    let _: fn(&[Atom], &[Atom]) -> Vec<u8> = encode_batch;
    let _ = Ledger::open;
    let _ = UpdateBatch::new;
    let _ = std::any::type_name::<Subscription>();

    // `lubm_serve.rs`: the wire server, client and frames.
    let _ = |addr: SocketAddr, backend, config| serve(addr, backend, config);
    let _ = |out: &mut Vec<u8>, payload: &[u8]| write_frame(out, payload);
    let _ = |addr: SocketAddr| Client::connect(addr);
    let _ = Request::parse;
    let _ = Response::parse;
    let _ = std::any::type_name::<(AnswerSet, Server, ServerConfig)>();
    let _: fn(std::sync::Arc<KnowledgeBase>) -> KbBackend = KbBackend::new;
    let _: &dyn Backend = &KbBackend::new(std::sync::Arc::new(
        KnowledgeBase::from_program_text("sigma1: manager(X) -> employee(X).").unwrap(),
    ));

    // `check.rs`, `common.rs`, `verify.rs`.
    let _: fn(Atom, Vec<Atom>) -> DatalogRule = DatalogRule::new;
    let _ = Symbol::as_str;
    let _: usize = DEFAULT_PROGRAM_THRESHOLD;
    let _ = ExecutorKind::Chase;
}
