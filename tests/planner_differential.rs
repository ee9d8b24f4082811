//! Randomized differential testing of the cost-based planner and of
//! result-modifier (`SelectOptions`) execution through the facade.
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
//! the reference engine's answer set. Every assertion prints the failing
//! seed so a mismatch reproduces exactly.

use nyaya::{KnowledgeBase, Strategy};
use nyaya_core::select::apply_select;
use nyaya_ontologies::fuzz::{random_select_ucq, random_ucq};
use nyaya_ontologies::rng::Prng;
use nyaya_ontologies::{random_database, FuzzConfig};
use nyaya_sql::{execute_ucq, execute_ucq_intra, reference, BuildCache, Database};

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

/// `execute_select` on a knowledge base with no Σ: each disjunct of the
/// fuzzed union, prepared as its own query, must answer what
/// `apply_select` gives over the reference engine's answers to it.
#[test]
fn modifier_execution_matches_reference_semantics() {
    let config = FuzzConfig::default();
    for seed in 0..SEEDS {
        let mut rng = Prng::seed_from_u64(0x5E1EC7 ^ (seed << 1));
        let facts = random_database(&mut rng, &config);
        let db = Database::from_facts(facts.iter().cloned());
        let (ucq, sel) = random_select_ucq(&mut rng, &config);
        let kb = KnowledgeBase::builder()
            .facts(facts)
            .strategy(Strategy::Ucq)
            .build()
            .unwrap();
        for cq in ucq.iter() {
            let prepared = kb.prepare(cq).unwrap();
            let got = kb
                .execute_select(&prepared, &sel)
                .unwrap_or_else(|e| panic!("seed {seed}: {cq} with {sel:?}: {e}"));
            let expected = apply_select(reference::execute_cq_reference(&db, cq), &sel);
            assert_eq!(
                got, expected,
                "seed {seed}: execute_select disagrees with apply_select over \
                 the reference answers on {cq} with {sel:?}"
            );
        }
    }
}

#[test]
fn cardinality_feedback_repicks_the_plan_when_the_estimate_misses() {
    use nyaya::{UpdateBatch, REPLAN_RATIO};

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
