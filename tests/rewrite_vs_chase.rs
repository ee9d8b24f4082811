//! End-to-end oracle: rewrite-then-execute versus chase certain answers.
//!
//! Theorem 1's contract is that evaluating the perfect rewriting over the
//! plain database equals the certain answers of the original query over
//! `D ∪ Σ`. This test exercises that contract *through the new execution
//! engine* on every bundled FO-rewritable benchmark suite, with generated
//! ABoxes:
//!
//! - when the chase saturates, the two answer sets must be equal
//!   (soundness and completeness);
//! - when the chase budget truncates, its answers are still sound, so
//!   they must be a subset of the rewrite-then-execute answers.

use nyaya::{ExecutorKind, KnowledgeBase, NyayaError};
use nyaya_chase::ChaseConfig;
use nyaya_ontologies::{generate_abox, load, AboxConfig, BenchmarkId};

/// Per-suite query budget. The ADOLENA q3 rewritings explore enough of
/// the search space to take minutes in debug builds, so A/AX stop at q2;
/// every other suite contributes three queries.
fn queries_for(id: BenchmarkId) -> usize {
    match id {
        BenchmarkId::A | BenchmarkId::AX => 2,
        _ => 3,
    }
}

#[test]
fn rewrite_then_execute_equals_chase_certain_answers() {
    let mut saturated_checks = 0usize;
    let mut compared = 0usize;
    for id in BenchmarkId::ALL {
        let bench = load(id);
        let abox = generate_abox(
            &bench,
            &AboxConfig {
                individuals: 8,
                facts: 40,
                seed: 0xC0FFEE ^ id as u64,
            },
        );
        let kb = KnowledgeBase::builder()
            .ontology(bench.raw.clone())
            .facts(abox)
            .show_aux(id.is_x_variant())
            .chase_config(ChaseConfig {
                max_rounds: 8,
                max_atoms: 20_000,
            })
            .build()
            .unwrap();

        for (name, query) in bench.queries.iter().take(queries_for(id)) {
            let prepared = match kb.prepare(query) {
                Ok(p) => p,
                Err(e) => panic!("{id} {name}: prepare failed: {e}"),
            };
            let rewritten = match kb.execute_on(&prepared, ExecutorKind::InMemory) {
                Ok(a) => a,
                Err(NyayaError::BudgetExhausted { .. }) => continue,
                Err(e) => panic!("{id} {name}: in-memory execution failed: {e}"),
            };
            assert!(rewritten.complete, "{id} {name}");
            let chased = kb.execute_on(&prepared, ExecutorKind::Chase).unwrap();
            compared += 1;
            if chased.complete {
                saturated_checks += 1;
                assert_eq!(
                    rewritten.tuples, chased.tuples,
                    "{id} {name}: rewrite-then-execute disagrees with saturated \
                     chase certain answers"
                );
            } else {
                // A truncated chase under-approximates: every answer it
                // found must also be found by the perfect rewriting.
                assert!(
                    chased.tuples.is_subset(&rewritten.tuples),
                    "{id} {name}: truncated chase produced answers the rewriting \
                     missed — the rewriting is incomplete"
                );
            }
        }
    }
    assert!(compared >= 16, "only {compared} suite queries compared");
    assert!(
        saturated_checks >= 8,
        "only {saturated_checks} saturated equality checks — chase budget too small \
         for the oracle to bite"
    );
}

#[test]
fn running_example_certain_answers_survive_the_new_engine() {
    // The Section 1 walkthrough, end to end: σ1–σ9 + the example database,
    // executed via rewriting on the indexed engine and via the chase.
    let kb = KnowledgeBase::builder()
        .ontology(nyaya_ontologies::running_example::ontology())
        .facts(nyaya_ontologies::running_example::database_facts())
        .build()
        .unwrap();
    let q = kb
        .prepare(&nyaya_ontologies::running_example::query())
        .unwrap();
    let rewritten = kb.execute_on(&q, ExecutorKind::InMemory).unwrap();
    let chased = kb.execute_on(&q, ExecutorKind::Chase).unwrap();
    assert!(chased.complete);
    assert_eq!(rewritten.tuples, chased.tuples);
    assert!(
        !rewritten.tuples.is_empty(),
        "the running example has at least ⟨ibm_s, ibm, nasdaq⟩"
    );
}
