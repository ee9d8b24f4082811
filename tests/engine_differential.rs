//! Randomized differential testing of the indexed, planned, shared-work
//! execution engine.
//!
//! For hundreds of seeded random databases and (unions of) conjunctive
//! queries, the optimized engine must agree with two independent oracles:
//!
//! - the naive homomorphism-semantics evaluator from `nyaya-chase`
//!   (Section 3.1 semantics, no join machinery at all), and
//! - the seed engine preserved in `nyaya_sql::reference` (textual order,
//!   no indexes, no build sharing),
//!
//! and the parallel union path must agree with the sequential one. Every
//! assertion prints the failing seed so a mismatch reproduces exactly.

use std::collections::BTreeSet;

use nyaya_chase::Instance;
use nyaya_core::Term;
use nyaya_ontologies::rng::Prng;
use nyaya_ontologies::{random_database, random_ucq, FuzzConfig};
use nyaya_sql::{execute_ucq, execute_ucq_intra, reference, BuildCache, Database};

/// Seeds the harness sweeps. Keep ≥ 200 (acceptance criterion of the
/// engine rework: zero mismatches across at least 200 random seeds).
const SEEDS: u64 = 300;

#[test]
fn engine_matches_homomorphism_and_reference_oracles_on_random_inputs() {
    let config = FuzzConfig::default();
    for seed in 0..SEEDS {
        let mut rng = Prng::seed_from_u64(seed);
        let facts = random_database(&mut rng, &config);
        let db = Database::from_facts(facts.iter().cloned());
        let instance = Instance::from_atoms(facts.iter().cloned());
        let ucq = random_ucq(&mut rng, &config);

        let planned = execute_ucq(&db, &ucq);
        let oracle = nyaya_chase::answers_union(&instance, &ucq);
        assert_eq!(
            planned, oracle,
            "seed {seed}: planned/indexed engine disagrees with homomorphism \
             semantics on {ucq}"
        );
        let seed_engine = reference::execute_ucq_reference(&db, &ucq);
        assert_eq!(
            planned, seed_engine,
            "seed {seed}: planned/indexed engine disagrees with the seed engine \
             on {ucq}"
        );
    }
}

#[test]
fn parallel_union_path_matches_sequential_on_random_inputs() {
    let config = FuzzConfig::default();
    for seed in 0..SEEDS {
        let mut rng = Prng::seed_from_u64(0x9A7A_11E1 ^ seed);
        let facts = random_database(&mut rng, &config);
        let db = Database::from_facts(facts);
        let ucq = random_ucq(&mut rng, &config);
        let sequential = execute_ucq(&db, &ucq);
        for threads in [2, 4] {
            assert_eq!(
                execute_ucq_intra(&db, &ucq, threads, 1, &BuildCache::new(), 1.0).0,
                sequential,
                "seed {seed}: parallel ({threads} threads) disagrees with \
                 sequential on {ucq}"
            );
        }
    }
}

/// A program whose `q(A) :- top(A).` rewriting has `n + 1` disjuncts:
/// `top` plus `n` subclasses — comfortably above the in-memory executor's
/// parallel-routing threshold.
fn wide_taxonomy_program(n: usize) -> String {
    use std::fmt::Write as _;
    let mut src = String::new();
    for i in 0..n {
        let _ = writeln!(src, "sigma{i}: sub{i}(X) -> top(X).");
        let _ = writeln!(src, "sub{i}(a{i}).");
    }
    let _ = writeln!(src, "top(troot).");
    let _ = writeln!(src, "q(A) :- top(A).");
    src
}

#[test]
fn in_memory_executor_routes_large_unions_through_the_parallel_path() {
    use nyaya::{ExecutorKind, KnowledgeBase};

    let kb = KnowledgeBase::from_program_text(&wide_taxonomy_program(120)).unwrap();
    assert_eq!(kb.executor_kind(), ExecutorKind::InMemory);
    let prepared = kb.prepare(&kb.queries()[0].clone()).unwrap();
    let answers = kb.execute(&prepared).unwrap();
    assert_eq!(answers.backend, "in-memory");
    assert_eq!(answers.tuples.len(), 121, "120 subclass members + troot");

    // The 121-disjunct union crossed the threshold: the run must have
    // been recorded as parallel, and its result must equal a sequential
    // evaluation of the same rewriting.
    let stats = kb.stats();
    assert_eq!(stats.parallel_executions, 1, "{stats:?}");
    assert_eq!(stats.rows_returned, 121, "{stats:?}");
    let rewriting = kb.rewriting(&prepared).unwrap();
    assert!(rewriting.ucq.size() >= 121, "{}", rewriting.ucq.size());
    let sequential = execute_ucq(kb.snapshot().database(), &rewriting.ucq);
    let tuples: BTreeSet<Vec<Term>> = answers.tuples;
    assert_eq!(tuples, sequential);

    // Small unions stay sequential: the counter must not move again.
    let small = kb.prepare_text("q2(A) :- sub0(A).").unwrap();
    kb.execute(&small).unwrap();
    assert_eq!(kb.stats().parallel_executions, 1);
}

#[test]
fn shared_build_cache_collapses_repeated_patterns_across_disjuncts() {
    let config = FuzzConfig::default();
    let mut rng = Prng::seed_from_u64(99);
    let facts = random_database(&mut rng, &config);
    let db = Database::from_facts(facts);
    // 40 copies of one disjunct whose every step builds a constant-free
    // pattern: a repeat alone (`f3(Y, Z, Y)`), a key plus a repeat
    // (`f3(X, Y, Y)`) and a repeat as the Cartesian step (`f2(W, W)`).
    // Seed 99's database joins all three into one answer, so the first
    // copy builds each pattern once and the other 39 are served from the
    // cache.
    let cq = nyaya::parser::parse_query("q(X, Y, Z, W) :- f3(Y, Z, Y), f3(X, Y, Y), f2(W, W).");
    let ucq = nyaya_core::UnionQuery::new(vec![cq.unwrap(); 40]);
    let cache = BuildCache::new();
    let (answers, metrics) = execute_ucq_intra(&db, &ucq, 1, 1, &cache, 1.0);
    assert_eq!(answers, reference::execute_ucq_reference(&db, &ucq));
    assert_eq!(answers.len(), 1, "{metrics:?}");
    assert_eq!(metrics.build_cache_misses, 3, "{metrics:?}");
    assert_eq!(metrics.build_cache_hits, 39 * 3, "{metrics:?}");
    assert_eq!(cache.len(), 3);

    // The same steps with constants in them: two constants
    // (`f3(c2, c7, Y)`, the cheapest scan) and a key plus a constant
    // (`f3(Y, c3, Z)`). A pattern that names a constant is built for the
    // step that asks and never retained, so every copy builds both; only
    // the constant-free `f2(W, W)` is shared.
    let cq = nyaya::parser::parse_query("q(Y, Z, W) :- f2(W, W), f3(Y, c3, Z), f3(c2, c7, Y).");
    let ucq = nyaya_core::UnionQuery::new(vec![cq.unwrap(); 40]);
    let cache = BuildCache::new();
    let (answers, metrics) = execute_ucq_intra(&db, &ucq, 1, 1, &cache, 1.0);
    assert_eq!(answers, reference::execute_ucq_reference(&db, &ucq));
    assert_eq!(answers.len(), 1, "{metrics:?}");
    assert_eq!(metrics.build_cache_misses, 1 + 40 * 2, "{metrics:?}");
    assert_eq!(metrics.build_cache_hits, 39, "{metrics:?}");
    assert_eq!(cache.len(), 1);

    // Seed 99's random disjunct, `q(X2) :- f2(c7,X3), f1(c5,X2)`: two
    // scans, each filtered by one constant alone, read their constants'
    // posting lists. 40 copies fetch no build side and leave the cache
    // empty.
    let cq = nyaya_ontologies::random_cq(&mut rng, &config, 1);
    assert_eq!(cq.to_string(), "q(X2) :- f2(c7,X3), f1(c5,X2)");
    let ucq = nyaya_core::UnionQuery::new(vec![cq; 40]);
    let cache = BuildCache::new();
    let (answers, metrics) = execute_ucq_intra(&db, &ucq, 1, 1, &cache, 1.0);
    assert_eq!(answers, reference::execute_ucq_reference(&db, &ucq));
    let fetched = (metrics.build_cache_hits, metrics.build_cache_misses);
    assert_eq!(fetched, (0, 0), "{metrics:?}");
    assert_eq!(metrics.merge_joins, 0, "{metrics:?}");
    assert!(cache.is_empty());
}

/// Pins `execute_ucq_intra`'s worker fan-out (disjuncts across `threads`,
/// probe spans across `intra`) on V-q3's 72-disjunct rewriting over a
/// seeded ABox where every table a disjunct can scan first holds more than
/// two morsels, so each disjunct's second join step is wide enough to
/// split. The constants were recorded at the commit before the five
/// hand-written fan-outs were folded into one helper.
#[test]
fn wide_union_over_multi_morsel_probe_sides_keeps_answers_and_metrics() {
    use nyaya::KnowledgeBase;
    use nyaya_ontologies::{generate_abox, load, AboxConfig, BenchmarkId};

    let bench = load(BenchmarkId::V);
    let kb = KnowledgeBase::builder()
        .ontology(bench.raw.clone())
        .build()
        .unwrap();
    let prepared = kb.prepare(&bench.queries[2].1).unwrap();
    let ucq = kb.rewriting(&prepared).unwrap().ucq.clone();
    assert_eq!(ucq.size(), 72);
    let db = Database::from_facts(generate_abox(
        &bench,
        &AboxConfig {
            individuals: 8_000,
            facts: 300_000,
            seed: 13,
        },
    ));
    let smallest = ucq
        .iter()
        .flat_map(|q| q.body.iter())
        .map(|a| db.table_len(a.pred))
        .min()
        .unwrap();
    assert!(smallest > 2 * 1024, "probe sides must exceed two morsels");

    // Sequential execution is the baseline here: the seed engine's textual
    // atom order turns some of these disjuncts into cross products.
    let oracle = nyaya_sql::execute_ucq(&db, &ucq);
    assert_eq!(oracle.len(), 4504);
    // 72 disjuncts over 10 requested workers chunk by 8, which leaves 9.
    for (threads, used) in [(1, 1), (3, 3), (10, 9)] {
        for intra in [1, 4] {
            let (answers, m) =
                execute_ucq_intra(&db, &ucq, threads, intra, &BuildCache::new(), 1.0);
            let at = format!("threads={threads} intra={intra}: {m:?}");
            assert_eq!(answers, oracle, "{at}");
            assert_eq!(m.threads, used, "{at}");
            assert_eq!(m.morsel_tasks, 413, "{at}");
            assert_eq!(m.merge_joins, 72, "{at}");
            assert_eq!(m.build_cache_hits + m.build_cache_misses, 144, "{at}");
            if threads == 1 {
                assert_eq!(m.build_cache_misses, 22, "{at}");
            } else {
                // Workers racing on one pattern may each construct it.
                assert!(m.build_cache_misses >= 22, "{at}");
            }
        }
    }
}
