//! Randomized differential testing of the cost-based planner and the
//! result-modifier (`SelectOptions`) execution paths.
//!
//! For hundreds of seeded random databases, unions and modifier
//! combinations, two independent evaluations must agree:
//!
//! - the cost-based planner (hash-vs-merge per join, index statistics,
//!   optional cardinality-feedback correction), and
//! - the seed reference engine (`nyaya_sql::reference`, textual order,
//!   no indexes).
//!
//! Modifier queries additionally must match the reference semantics
//! `apply_select` (filter → group/aggregate → sort → limit) applied to
//! the reference engine's answer set — whichever fast path (aggregate
//! pushdown, top-k walk, range index scan) the engine picked. Every
//! assertion prints the failing seed so a mismatch reproduces exactly.

use nyaya_core::select::{apply_select, ColumnFilter, FilterOp, SelectOptions};
use nyaya_ontologies::fuzz::{random_select_ucq, random_ucq};
use nyaya_ontologies::rng::Prng;
use nyaya_ontologies::{random_database, FuzzConfig};
use nyaya_sql::{
    execute_ucq, execute_ucq_intra, execute_ucq_select, reference, BuildCache, Database,
};

/// Seeds each harness sweeps. The acceptance criterion for the planner
/// rework is zero mismatches across at least 300 random seeds.
const SEEDS: u64 = 300;

#[test]
fn cost_planner_matches_the_reference_engine() {
    let config = FuzzConfig::default();
    for seed in 0..SEEDS {
        let mut rng = Prng::seed_from_u64(seed);
        let facts = random_database(&mut rng, &config);
        let db = Database::from_facts(facts.iter().cloned());
        let ucq = random_ucq(&mut rng, &config);

        let cost_planned = execute_ucq(&db, &ucq);
        let seed_engine = reference::execute_ucq_reference(&db, &ucq);
        assert_eq!(
            cost_planned, seed_engine,
            "seed {seed}: cost-based plan disagrees with the reference engine \
             on {ucq}"
        );
    }
}

#[test]
fn corrected_plans_stay_answer_identical_across_the_feedback_range() {
    // Whatever the cardinality-feedback loop multiplies into the
    // estimates — from "estimates were 64x too high" to "64x too low" —
    // the chosen plan may change but the answers must not.
    let config = FuzzConfig::default();
    for seed in 0..SEEDS {
        let mut rng = Prng::seed_from_u64(0xC0_57ED ^ seed);
        let facts = random_database(&mut rng, &config);
        let db = Database::from_facts(facts.iter().cloned());
        let ucq = random_ucq(&mut rng, &config);
        let baseline = reference::execute_ucq_reference(&db, &ucq);
        for correction in [1.0 / 64.0, 0.25, 1.0, 4.0, 64.0] {
            let cache = BuildCache::new();
            let (got, _) = execute_ucq_intra(&db, &ucq, 1, 1, &cache, correction);
            assert_eq!(
                got, baseline,
                "seed {seed}: correction {correction} changed the answers on {ucq}"
            );
        }
    }
}

#[test]
fn modifier_execution_matches_reference_semantics() {
    let config = FuzzConfig::default();
    let mut fast_paths = 0u64;
    let mut fallbacks = 0u64;
    for seed in 0..SEEDS {
        let mut rng = Prng::seed_from_u64(0x5E1EC7 ^ (seed << 1));
        let facts = random_database(&mut rng, &config);
        let db = Database::from_facts(facts.iter().cloned());
        let (ucq, sel) = random_select_ucq(&mut rng, &config);

        let cache = BuildCache::new();
        let (got, metrics) = execute_ucq_select(&db, &ucq, &sel, 1, &cache, 1.0)
            .unwrap_or_else(|e| panic!("seed {seed}: fuzzer made invalid options: {e}"));
        let expected = apply_select(reference::execute_ucq_reference(&db, &ucq), &sel);
        assert_eq!(
            got, expected,
            "seed {seed}: modifier execution disagrees with apply_select over \
             the reference answers on {ucq} with {sel:?}"
        );
        fast_paths +=
            metrics.aggregate_pushdowns + metrics.topk_early_exits + metrics.range_index_scans;
        fallbacks += metrics.filter_fallback_scans;
    }
    // The sweep must have exercised both the index fast paths and the
    // counted fallback — otherwise the differential proves nothing about
    // one of them.
    assert!(
        fast_paths > 0,
        "no fast path ever fired across {SEEDS} seeds"
    );
    assert!(fallbacks > 0, "no counted fallback across {SEEDS} seeds");
}

#[test]
fn cardinality_feedback_repicks_the_plan_when_the_estimate_misses() {
    use nyaya::{KnowledgeBase, UpdateBatch, REPLAN_RATIO};

    // A skewed join the uniform-distinct estimate gets badly wrong:
    // p = {hub}, and r has 100 rows over 51 distinct keys — but 50 of
    // them share the key `hub`. The estimate (|p|·|r|/distinct ≈ 2) is
    // ≥ 8x under the actual 50 rows, so the first execution must trip
    // the feedback loop and later plans must carry the correction.
    const {
        assert!(REPLAN_RATIO < 25.0, "test skew must exceed the threshold");
    }
    // Answer cache off: this test measures *re-execution* under the
    // corrected plan, which an answer-cache hit would skip.
    let kb = KnowledgeBase::builder()
        .program_text("q(X, Y) :- p(X), r(X, Y).")
        .unwrap()
        .answer_cache(false)
        .build()
        .unwrap();
    let mut batch = UpdateBatch::new().insert(nyaya_core::Atom::make("p", ["hub"]));
    for i in 0..50 {
        batch = batch
            .insert(nyaya_core::Atom::make(
                "r",
                ["hub", format!("y{i}").as_str()],
            ))
            .insert(nyaya_core::Atom::make(
                "r",
                [format!("x{i}").as_str(), format!("z{i}").as_str()],
            ));
    }
    kb.apply(batch).unwrap();
    let prepared = kb.prepare(&kb.queries()[0].clone()).unwrap();

    assert_eq!(kb.plan_correction(&prepared), 1.0, "no feedback yet");
    let first = kb.execute(&prepared).unwrap();
    assert_eq!(first.tuples.len(), 50);
    let correction = kb.plan_correction(&prepared);
    assert!(
        correction > 1.0,
        "a ≥8x estimate miss must store a correction, got {correction}"
    );
    assert_eq!(kb.stats().plan_replans, 1, "{:?}", kb.stats());

    // The corrected plan answers identically, and the learned factor is
    // now visible in the explain text.
    let second = kb.execute(&prepared).unwrap();
    assert_eq!(second.tuples, first.tuples);
    let explain = kb
        .explain(&prepared, &nyaya_core::SelectOptions::default())
        .unwrap();
    assert!(
        explain.contains("feedback correction:"),
        "explain must surface the learned correction:\n{explain}"
    );
    // Estimated-vs-actual is tracked per run for observability.
    let stats = kb.stats();
    assert!(stats.plan_estimated_rows > 0, "{stats:?}");
    assert!(stats.plan_actual_rows >= 100, "{stats:?}");
}

#[test]
fn unindexed_filter_fallback_is_planned_and_counted() {
    // Regression for the silent-fallback gap: a filter over the head of a
    // *join* (no single-table direct access, so no range index applies)
    // must still answer correctly AND be visible in the metrics as a
    // planned, counted scan — not an invisible degradation.
    let db = Database::from_facts(
        (0..50)
            .flat_map(|i| {
                [
                    nyaya_core::Atom::make("e", [format!("a{i}").as_str(), "hub"]),
                    nyaya_core::Atom::make("f", ["hub", format!("b{i}").as_str()]),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let cq = nyaya_parser::parse_query("q(X, Z) :- e(X, Y), f(Y, Z).").unwrap();
    let ucq = nyaya_core::UnionQuery::new(vec![cq]);
    let sel = SelectOptions {
        filters: vec![ColumnFilter {
            column: 0,
            op: FilterOp::Le,
            value: nyaya_core::Term::constant("a3"),
        }],
        ..SelectOptions::default()
    };
    let cache = BuildCache::new();
    let (rows, metrics) = execute_ucq_select(&db, &ucq, &sel, 1, &cache, 1.0).unwrap();
    let expected = apply_select(reference::execute_ucq_reference(&db, &ucq), &sel);
    assert_eq!(rows, expected);
    assert!(!rows.is_empty(), "filter must keep a1/a2/a3 rows");
    assert_eq!(
        metrics.filter_fallback_scans, 1,
        "row-by-row post-filter must be counted, not silent: {metrics:?}"
    );
    assert_eq!(metrics.range_index_scans, 0, "{metrics:?}");
}
