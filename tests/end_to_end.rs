//! End-to-end integration through the `KnowledgeBase` facade:
//! build → prepare → execute, checked against the chase oracle
//! (Theorems 6 and 10: `D ⊨ q_Σ ⇔ D ∪ Σ ⊨ q`).

use nyaya::ontologies::running_example;
use nyaya::prelude::*;

fn running_example_kb() -> KnowledgeBase {
    KnowledgeBase::builder()
        .ontology(running_example::ontology())
        .facts(running_example::database_facts())
        .build()
        .expect("running example builds")
}

#[test]
fn running_example_full_pipeline() {
    let kb = running_example_kb();
    let query = running_example::query();

    // The running example is linear Datalog± → FO-rewritable → the
    // in-memory backend is auto-selected.
    assert!(kb.classification().linear);
    assert!(kb.classification().fo_rewritable());
    assert_eq!(kb.executor_kind(), ExecutorKind::InMemory);

    for algorithm in [Algorithm::Nyaya, Algorithm::NyayaStar] {
        let prepared = kb.prepare_with(&query, algorithm).unwrap();

        // Execute on the in-memory engine…
        let from_rewriting = kb.execute(&prepared).unwrap();

        // …and compare with the certain answers computed by the chase.
        let oracle = kb.execute_on(&prepared, ExecutorKind::Chase).unwrap();
        assert!(oracle.complete);
        assert_eq!(
            from_rewriting.tuples, oracle.tuples,
            "{algorithm:?}: rewriting answers must equal certain answers"
        );
        assert!(
            !from_rewriting.tuples.is_empty(),
            "the sample database has answers"
        );
    }
}

#[test]
fn ny_and_ny_star_agree_on_answers_everywhere() {
    // Same ontology, two rewritings of very different size — identical
    // answers on any database (Theorem 10).
    let kb = running_example_kb();
    let query = running_example::query();
    let ny = kb.prepare_with(&query, Algorithm::Nyaya).unwrap();
    let ny_star = kb.prepare_with(&query, Algorithm::NyayaStar).unwrap();
    assert!(kb.rewriting(&ny_star).unwrap().ucq.size() < kb.rewriting(&ny).unwrap().ucq.size());
    assert_eq!(
        kb.execute(&ny).unwrap().tuples,
        kb.execute(&ny_star).unwrap().tuples
    );
}

#[test]
fn sql_generation_covers_the_whole_rewriting() {
    let kb = KnowledgeBase::builder()
        .ontology(running_example::ontology())
        .catalog(Catalog::stock_exchange())
        .build()
        .unwrap();
    let prepared = kb
        .prepare_with(&running_example::query(), Algorithm::NyayaStar)
        .unwrap();
    let sql = kb.sql(&prepared).expect("schema must cover rewriting");
    assert!(sql.contains("SELECT DISTINCT"));
    assert!(sql.contains("list_comp"));
}

#[test]
fn negative_constraint_prunes_and_preserves_answers() {
    // An NC can only remove CQs that are unsatisfiable over consistent
    // databases — answers over a consistent database are unchanged.
    const PROGRAM: &str = "
        t1: employs(X, Y) -> person(Y).
        t2: robot(X), person(X) -> false.
        employs(acme, ada).
        person(bob).
        q(A) :- person(A).
    ";
    let pruned_kb = KnowledgeBase::from_program_text(PROGRAM).unwrap(); // NC ⇒ pruning on
    let plain_kb = KnowledgeBase::builder()
        .program_text(PROGRAM)
        .unwrap()
        .nc_pruning(false)
        .build()
        .unwrap();
    let query = pruned_kb.queries()[0].clone();

    let pruned = pruned_kb.prepare(&query).unwrap();
    let plain = plain_kb.prepare(&query).unwrap();
    assert!(
        pruned_kb.rewriting(&pruned).unwrap().ucq.size()
            <= plain_kb.rewriting(&plain).unwrap().ucq.size()
    );
    assert_eq!(
        pruned_kb.execute(&pruned).unwrap().tuples,
        plain_kb.execute(&plain).unwrap().tuples
    );
}

#[test]
fn dl_lite_front_end_pipeline() {
    // DL-Lite axioms → Datalog± → rewriting → execution, all via the
    // builder's DL-Lite front end.
    let kb = KnowledgeBase::builder()
        .dl_lite_text(
            "
            Professor [= FacultyStaff
            FacultyStaff [= Employee
            exists teacherOf [= FacultyStaff
            exists teacherOf- [= Course
            ",
        )
        .unwrap()
        .facts([
            Atom::make("Professor", ["turing"]),
            Atom::make("teacherOf", ["church", "logic101"]),
        ])
        .build()
        .unwrap();
    let prepared = kb.prepare_text("q(A) :- Employee(A).").unwrap();
    // Employee ⊇ FacultyStaff ⊇ Professor, ∃teacherOf: 4 alternatives.
    let rewriting = kb.rewriting(&prepared).unwrap();
    assert_eq!(rewriting.ucq.size(), 4, "{}", rewriting.ucq);

    let answers = kb.execute(&prepared).unwrap();
    assert_eq!(
        answers.tuples.len(),
        2,
        "both turing and church are employees"
    );
}
