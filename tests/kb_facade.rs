//! The `KnowledgeBase` facade contract: compile once, execute many.
//!
//! Pins the satellite guarantees of the facade: the prepared-query cache
//! really skips rewriting work, the chase fallback is auto-selected for
//! non-FO-rewritable ontologies, backends agree on answers, and every
//! entry point counts one execution on the backend it names.

use nyaya::prelude::*;

const LINEAR_PROGRAM: &str = "
    sigma5: stock_portf(X, Y, Z) -> has_stock(Y, X).
    sigma6: has_stock(X, Y) -> stock_portf(Y, X, Z).
    has_stock(ibm_s, fund1).
    stock_portf(fund2, sap_s, q10).
    q(A, B) :- stock_portf(B, A, D).
";

/// Transitivity: not linear, not sticky, not weakly acyclic — outside
/// every FO-rewritable class the classifier knows.
const TRANSITIVE_PROGRAM: &str = "
    tr: e(X, Y), e(Y, Z) -> e(X, Z).
    e(a, b). e(b, c). e(c, d).
    q(A, B) :- e(A, B).
";

#[test]
fn same_query_twice_rewrites_once_and_answers_identically() {
    let kb = KnowledgeBase::from_program_text(LINEAR_PROGRAM).unwrap();
    let query = kb.queries()[0].clone();

    let first = kb.prepare(&query).unwrap();
    let a1 = kb.execute(&first).unwrap();
    let after_first = kb.stats();
    assert_eq!(after_first.cache_misses, 1, "first execution compiles");
    assert_eq!(after_first.cache_hits, 0);

    // Same query, fresh prepare: the compile must be skipped entirely.
    let second = kb.prepare(&query).unwrap();
    let a2 = kb.execute(&second).unwrap();
    let after_second = kb.stats();
    assert_eq!(a1, a2, "answers identical across executions");
    assert_eq!(
        after_second.cache_misses, 1,
        "second execution performs zero rewriting work"
    );
    assert_eq!(after_second.cache_hits, 1, "…because the cache served it");
    assert_eq!(after_second.cached_rewritings, 1);
    assert_eq!(after_second.prepared, 2);
    assert_eq!(after_second.executions, 2);

    // And the identical-rewriting guarantee is structural, not just
    // statistical: both handles resolve to the same compiled UCQ.
    assert_eq!(
        kb.rewriting(&first).unwrap().ucq.to_string(),
        kb.rewriting(&second).unwrap().ucq.to_string()
    );
}

#[test]
fn alpha_equivalent_queries_share_one_cache_slot() {
    let kb = KnowledgeBase::from_program_text(LINEAR_PROGRAM).unwrap();
    let q1 = kb.prepare_text("q(A, B) :- stock_portf(B, A, D).").unwrap();
    let q2 = kb.prepare_text("q(U, V) :- stock_portf(V, U, W).").unwrap();
    assert_eq!(q1.key(), q2.key(), "canonical keys agree modulo renaming");
    let a1 = kb.execute(&q1).unwrap();
    let a2 = kb.execute(&q2).unwrap();
    assert_eq!(a1.tuples, a2.tuples);
    assert_eq!(kb.stats().cache_misses, 1);
    assert_eq!(kb.stats().cached_rewritings, 1);
}

#[test]
fn distinct_queries_and_algorithms_get_distinct_slots() {
    let kb = KnowledgeBase::from_program_text(LINEAR_PROGRAM).unwrap();
    let query = kb.queries()[0].clone();
    for algorithm in [
        Algorithm::Nyaya,
        Algorithm::NyayaStar,
        Algorithm::QuOnto,
        Algorithm::Requiem,
    ] {
        let prepared = kb.prepare_with(&query, algorithm).unwrap();
        let answers = kb.execute(&prepared).unwrap();
        assert_eq!(answers.tuples.len(), 2, "{algorithm:?}");
    }
    let stats = kb.stats();
    assert_eq!(stats.cache_misses, 4, "one compile per engine");
    assert_eq!(stats.cached_rewritings, 4);
}

#[test]
fn chase_fallback_is_auto_selected_for_non_fo_rewritable_ontologies() {
    let kb = KnowledgeBase::from_program_text(TRANSITIVE_PROGRAM).unwrap();
    assert!(!kb.classification().fo_rewritable());
    assert_eq!(kb.executor_kind(), ExecutorKind::Chase);

    let prepared = kb.prepare(&kb.queries()[0].clone()).unwrap();
    let answers = kb.execute(&prepared).unwrap();
    assert_eq!(answers.backend, "chase");
    assert!(answers.complete);
    // Transitive closure of a → b → c → d: 6 pairs.
    assert_eq!(answers.tuples.len(), 6);
    // The chase backend never touched the rewriting cache.
    assert_eq!(kb.stats().cache_misses, 0);
    assert_eq!(kb.stats().cached_rewritings, 0);
}

/// The chase backend chases a snapshot once and evaluates every query
/// over that chase, with the answers and the completeness flag a chase
/// per query gives; a write publishes a snapshot that chases afresh.
#[test]
fn the_chase_backend_chases_once_per_snapshot() {
    for (rounds, saturated) in [(32, true), (1, false)] {
        let kb = KnowledgeBase::builder()
            .program_text(
                "tr: e(X, Y), e(Y, Z) -> e(X, Z).
                 e(a, b). e(b, c). e(c, d). e(d, f).",
            )
            .unwrap()
            .chase_config(ChaseConfig::rounds(rounds))
            .build()
            .unwrap();
        let queries = [
            "q(A, B) :- e(A, B).",
            "q(A) :- e(a, A).",
            "q(A) :- e(A, f).",
        ];
        let expected = |kb: &KnowledgeBase, q: &PreparedQuery| {
            certain_answers(
                kb.snapshot().instance(),
                kb.normalized_tgds(),
                q.query(),
                kb.chase_config(),
            )
        };
        for (runs, epoch) in [(1, 0), (2, 1)] {
            for text in queries {
                let q = kb.prepare_text(text).unwrap();
                let a = kb.execute_on(&q, ExecutorKind::Chase).unwrap();
                let oracle = expected(&kb, &q);
                assert_eq!(a.tuples, oracle.answers, "{text} at epoch {epoch}");
                assert_eq!(a.complete, oracle.saturated, "{text} at epoch {epoch}");
                assert_eq!(a.complete, saturated, "{text} at epoch {epoch}");
            }
            assert_eq!(
                kb.stats().chase_runs,
                runs,
                "rounds {rounds}, epoch {epoch}"
            );
            kb.apply(UpdateBatch::new().insert(Atom::make("e", ["f", "g"])))
                .unwrap();
        }
    }
}

#[test]
fn backends_agree_on_the_round_trip() {
    let kb = KnowledgeBase::from_program_text(LINEAR_PROGRAM).unwrap();
    let prepared = kb.prepare(&kb.queries()[0].clone()).unwrap();
    let fast = kb.execute_on(&prepared, ExecutorKind::InMemory).unwrap();
    let oracle = kb.execute_on(&prepared, ExecutorKind::Chase).unwrap();
    assert!(oracle.complete);
    assert_eq!(fast.tuples, oracle.tuples, "Theorem 10: backends agree");
    assert!(kb.sql(&prepared).unwrap().contains("UNION"));
}

#[test]
fn file_front_end_dispatches_on_extension() {
    let dir = std::env::temp_dir();
    let dlp = dir.join(format!("kb_facade_{}.dlp", std::process::id()));
    std::fs::write(&dlp, LINEAR_PROGRAM).unwrap();
    let dl = dir.join(format!("kb_facade_{}.dl", std::process::id()));
    std::fs::write(&dl, "Person [= LegalAgent\nexists hasStock [= Person\n").unwrap();

    let kb = KnowledgeBase::from_file(&dlp).unwrap();
    assert_eq!(kb.queries().len(), 1);
    assert_eq!(kb.snapshot().len(), 2);

    let kb = KnowledgeBase::from_file(&dl).unwrap();
    assert_eq!(kb.ontology().tgds.len(), 2);
    assert!(kb.classification().linear);

    std::fs::remove_file(&dlp).ok();
    std::fs::remove_file(&dl).ok();

    match KnowledgeBase::from_file(dir.join("kb_facade_missing.dlp")) {
        Err(NyayaError::Io { .. }) => {}
        other => panic!("expected Io error, got {other:?}"),
    }
}

#[test]
fn parse_failures_are_typed_not_stringly() {
    match KnowledgeBase::builder().program_text("p(X ->") {
        Err(NyayaError::Parse { front_end, message }) => {
            assert_eq!(front_end, "datalog\u{b1}");
            assert!(message.contains(':'), "carries line:col — {message}");
        }
        other => panic!("expected Parse error, got {:?}", other.err()),
    }
}

#[test]
fn consistency_violations_surface_as_typed_errors() {
    let kb = KnowledgeBase::from_program_text(
        "
        delta: a(X), b(X) -> false.
        a(k). b(k).
        q(X) :- a(X).
        ",
    )
    .unwrap();
    match kb.check_consistency() {
        Err(NyayaError::ConstraintViolation { constraint }) => {
            assert!(constraint.contains("false"), "{constraint}");
        }
        other => panic!("expected NC violation, got {other:?}"),
    }

    let kb = KnowledgeBase::from_program_text(
        "
        key(r/2) = {1}.
        r(a, b). r(a, c).
        q(X) :- r(X, Y).
        ",
    )
    .unwrap();
    assert!(matches!(
        kb.check_consistency(),
        Err(NyayaError::KeyViolation { .. })
    ));
}

#[test]
fn exact_budget_fixpoint_completes_without_exhaustion() {
    // The perfect rewriting of the bundled query has exactly 2 CQs. A
    // budget of exactly 2 must let it complete; only a budget that forces
    // a genuinely new query to be dropped is exhaustion.
    let kb = KnowledgeBase::builder()
        .program_text(LINEAR_PROGRAM)
        .unwrap()
        .max_queries(2)
        .build()
        .unwrap();
    let prepared = kb.prepare(&kb.queries()[0].clone()).unwrap();
    let answers = kb.execute(&prepared).unwrap();
    assert_eq!(answers.tuples.len(), 2);
    assert_eq!(kb.rewriting(&prepared).unwrap().ucq.size(), 2);

    // One below the fixpoint: the second CQ is refused → typed error.
    let tight = KnowledgeBase::builder()
        .program_text(LINEAR_PROGRAM)
        .unwrap()
        .max_queries(1)
        .build()
        .unwrap();
    let prepared = tight.prepare(&tight.queries()[0].clone()).unwrap();
    assert!(matches!(
        tight.execute(&prepared),
        Err(NyayaError::BudgetExhausted { budget: 1, .. })
    ));
}

#[test]
fn prepared_query_executed_on_another_kb_uses_that_kbs_ontology() {
    // A handle prepared (and compiled) on kb1 must not leak kb1's
    // rewriting when executed against kb2, whose ontology differs.
    let kb1 = KnowledgeBase::from_program_text(LINEAR_PROGRAM).unwrap();
    let kb2 = KnowledgeBase::builder()
        .program_text(
            // No σ6: has_stock does NOT imply stock_portf here.
            "
            sigma5: stock_portf(X, Y, Z) -> has_stock(Y, X).
            has_stock(ibm_s, fund1).
            stock_portf(fund2, sap_s, q10).
            ",
        )
        .unwrap()
        .build()
        .unwrap();

    let prepared = kb1
        .prepare_text("q(A, B) :- stock_portf(B, A, D).")
        .unwrap();
    // Compile + execute under kb1: σ6 turns the has_stock fact into an answer.
    assert_eq!(kb1.execute(&prepared).unwrap().tuples.len(), 2);
    // The same handle on kb2 must recompile under kb2's Σ: only the
    // literal stock_portf fact answers.
    let on_kb2 = kb2.execute(&prepared).unwrap();
    assert_eq!(
        on_kb2.tuples.len(),
        1,
        "kb1's rewriting must not leak into kb2"
    );
    assert_eq!(
        kb2.stats().cache_misses,
        1,
        "kb2 compiled its own rewriting"
    );
    // And kb1's inline fast path still serves kb1's own rewriting.
    assert_eq!(kb1.execute(&prepared).unwrap().tuples.len(), 2);
}

/// A handle's template belongs to the base that prepared it: another
/// base re-templates the query against its own Σ. Here only kb1's Σ
/// mentions `acme`, so kb2 abstracts it and kb1 must not — under kb1,
/// `special(dan)` derives `owns(dan, acme)`, which a parameter standing
/// for `acme` would never unify with.
#[test]
fn a_handle_on_another_kb_is_templated_against_that_kbs_ontology() {
    let kb1 = KnowledgeBase::from_program_text(
        "s1: special(X) -> owns(X, acme).
         owns(ann, acme). owns(bob, beta). special(dan).",
    )
    .unwrap();
    let kb2 = KnowledgeBase::from_program_text(
        "s2: special(X) -> other(X).
         owns(ann, acme). owns(bob, beta). special(dan).",
    )
    .unwrap();
    let names = |answers: Answers| -> Vec<String> {
        answers.tuples.iter().map(|t| t[0].to_string()).collect()
    };
    let acme = kb2.prepare_text("q(X) :- owns(X, acme).").unwrap();
    assert_eq!(names(kb2.execute(&acme).unwrap()), ["ann"]);
    assert_eq!(names(kb1.execute(&acme).unwrap()), ["ann", "dan"]);
    assert_eq!(names(kb2.execute(&acme).unwrap()), ["ann"]);
    // kb2 bound `acme` into its template's rewriting once, for the
    // handle; kb1 kept `acme` in its template and had nothing to bind.
    assert_eq!(kb2.stats().template_binds, 1);
    assert_eq!(kb1.stats().template_binds, 0);

    // The other way round: kb1's handle on kb2, and a constant neither Σ
    // mentions, abstracted by both.
    let acme = kb1.prepare_text("q(X) :- owns(X, acme).").unwrap();
    assert_eq!(names(kb2.execute(&acme).unwrap()), ["ann"]);
    let beta = kb1.prepare_text("q(X) :- owns(X, beta).").unwrap();
    assert_eq!(names(kb1.execute(&beta).unwrap()), ["bob"]);
    assert_eq!(names(kb2.execute(&beta).unwrap()), ["bob"]);
}

/// The query of the cross-base cases below. Three interaction clusters,
/// and a join the planner's uniform estimate gets ≥ 8x wrong: 50 of r's
/// 100 rows share the key `hub`.
const SKEWED_QUERY: &str = "q(X, Y) :- p(X), r(X, Y), u(Y).";

/// A knowledge base over the skewed data; only `with_sigma2` derives u
/// from su, which adds the answer (x0, z0) and grows the program. It also
/// adds 14 empty sources for each of p and u, so both clusters have 16
/// alternatives and the estimated DNF reaches
/// [`nyaya::DEFAULT_PROGRAM_THRESHOLD`]: `Strategy::Auto` runs the program
/// there and the flat UCQ without `with_sigma2`.
fn skewed_kb(with_sigma2: bool, strategy: Strategy) -> KnowledgeBase {
    let mut facts = vec![
        Atom::make("p", ["hub"]),
        Atom::make("sp", ["x0"]),
        Atom::make("su", ["z0"]),
    ];
    for i in 0..50 {
        let (x, y, z) = (format!("x{i}"), format!("y{i}"), format!("z{i}"));
        facts.push(Atom::make("r", ["hub", y.as_str()]));
        facts.push(Atom::make("r", [x.as_str(), z.as_str()]));
        facts.push(Atom::make("u", [y.as_str()]));
    }
    let mut sigma = "sigma1: sp(X) -> p(X).".to_owned();
    if with_sigma2 {
        sigma.push_str(" sigma2: su(X) -> u(X).");
        for i in 1..=14 {
            sigma.push_str(&format!(" wp{i}: p{i}(X) -> p(X). wu{i}: u{i}(X) -> u(X)."));
        }
    }
    KnowledgeBase::builder()
        .program_text(&sigma)
        .unwrap()
        .facts(facts)
        .strategy(strategy)
        .build()
        .unwrap()
}

#[test]
fn handle_on_another_kb_gets_that_kbs_program_choice_answers_and_correction() {
    for strategy in [Strategy::Program, Strategy::Auto] {
        // kb1 always runs the program (its DNF reaches the threshold);
        // under Auto, kb2's 2-CQ DNF keeps the query on the flat UCQ.
        let kb1 = skewed_kb(true, strategy);
        let kb2 = skewed_kb(false, strategy);
        let handle = kb1.prepare_text(SKEWED_QUERY).unwrap();
        let on_kb1 = kb1.execute(&handle).unwrap();
        assert_eq!((on_kb1.backend, on_kb1.tuples.len()), ("program", 51));

        let on_kb2 = kb2.execute(&handle).unwrap();
        assert_eq!(on_kb2.tuples.len(), 50, "{strategy:?}: kb1's Σ leaked");
        let own = kb2.prepare_text(SKEWED_QUERY).unwrap();
        let (flat, expected_backend) = match strategy {
            Strategy::Auto => (true, "in-memory"),
            _ => (false, "program"),
        };
        assert_eq!(on_kb2.backend, expected_backend, "{strategy:?}");
        assert_eq!(kb2.execution_plan(&handle).unwrap().is_none(), flat);
        assert!(std::sync::Arc::ptr_eq(
            &kb2.program(&handle).unwrap(),
            &kb2.program(&own).unwrap()
        ));
        assert_ne!(
            kb2.program(&handle).unwrap().program.num_rules(),
            kb1.program(&handle).unwrap().program.num_rules(),
            "{strategy:?}: kb2 must compile under its own Σ"
        );
        assert_eq!(kb2.plan_correction(&handle), kb2.plan_correction(&own));
        assert_eq!(kb2.plan_correction(&handle) > 1.0, flat, "{strategy:?}");
        assert_eq!(kb1.plan_correction(&handle), 1.0, "{strategy:?}");

        // Through the same handle, kb1 still serves kb1's answers.
        let again = kb1.execute(&handle).unwrap();
        assert_eq!(again.backend, "program");
        assert_eq!(again.tuples, on_kb1.tuples, "{strategy:?}");
    }
}

#[test]
fn alpha_equivalent_handles_share_correction_and_program() {
    let kb = skewed_kb(false, Strategy::Ucq);
    let first = kb.prepare_text(SKEWED_QUERY).unwrap();
    let second = kb.prepare_text("q(A, B) :- p(A), r(A, B), u(B).").unwrap();
    kb.execute(&first).unwrap();
    let learned = kb.plan_correction(&first);
    assert!(learned > 1.0, "the skewed join must teach a correction");
    assert_eq!(kb.plan_correction(&second), learned);

    let kb = skewed_kb(true, Strategy::Auto);
    let first = kb.prepare_text(SKEWED_QUERY).unwrap();
    let second = kb.prepare_text("q(A, B) :- p(A), r(A, B), u(B).").unwrap();
    assert!(kb.execution_plan(&first).unwrap().is_some());
    assert_eq!(kb.stats().program_compiles, 1);
    assert!(kb.execution_plan(&second).unwrap().is_some());
    assert_eq!(kb.stats().program_compiles, 1, "the second handle compiled");
}

/// A handle that binds a constant into its template learns its plan
/// correction in the handle: a held handle re-plans after a ≥ 8x miss,
/// while the template's entry — shared by every constant, whose rows a
/// miss on `hub` says nothing about — and other handles stay at 1.0.
#[test]
fn a_held_handle_that_binds_a_constant_learns_its_own_correction() {
    let kb = skewed_kb(false, Strategy::Ucq);
    let point = |c: &str| {
        kb.prepare_text(&format!("q(Y) :- p({c}), r({c}, Y), u(Y)."))
            .unwrap()
    };
    let hub = point("hub");
    let answers = kb.execute(&hub).unwrap().tuples;
    assert_eq!(answers.len(), 50);
    let learned = kb.plan_correction(&hub);
    assert!(learned > 1.0, "the skewed join must teach a correction");
    assert_eq!(kb.stats().plan_replans, 1);
    assert_eq!(kb.plan_correction(&point("hub")), 1.0);
    assert_eq!(kb.plan_correction(&point("x0")), 1.0);
    let plan = kb
        .explain(&hub, &nyaya::core::SelectOptions::default())
        .unwrap();
    assert!(plan.contains("feedback correction"), "{plan}");
    // Re-planned with the correction, the held handle answers the same.
    assert_eq!(kb.execute(&hub).unwrap().tuples, answers);
    assert_eq!(kb.execute(&point("x0")).unwrap().tuples.len(), 0);
}

#[test]
fn parallel_and_minimized_compiles_answer_identically_and_report_stats() {
    // Minimization must never change answers: same program, one default
    // knowledge base, one that minimizes its rewritings.
    let plain = KnowledgeBase::from_program_text(LINEAR_PROGRAM).unwrap();
    let tuned = KnowledgeBase::builder()
        .program_text(LINEAR_PROGRAM)
        .unwrap()
        .minimize_rewritings(true)
        .build()
        .unwrap();
    let query = plain.queries()[0].clone();
    let a = plain.execute(&plain.prepare(&query).unwrap()).unwrap();
    let b = tuned.execute(&tuned.prepare(&query).unwrap()).unwrap();
    assert_eq!(a.tuples, b.tuples);

    // The compile-time counters surface in KbStats.
    let stats = tuned.stats();
    assert_eq!(stats.cache_misses, 1);
    assert!(stats.rewrite_explored > 0, "explored counter must flow up");
    assert_eq!(stats.rewrites_parallel, 0, "a small compile never splits");
    // A cache hit adds no compile time.
    let before = tuned.stats().rewrite_micros;
    tuned.execute(&tuned.prepare(&query).unwrap()).unwrap();
    assert_eq!(tuned.stats().rewrite_micros, before);

    // A-q2's frontier rounds are large enough to split in a default
    // knowledge base, and the split compile is the sequential rewriting.
    let bench = nyaya::ontologies::load(nyaya::ontologies::BenchmarkId::A);
    let (_, query) = &bench.queries[1];
    let kb = KnowledgeBase::builder()
        .ontology(bench.raw.clone())
        .build()
        .unwrap();
    let compiled = kb.rewriting(&kb.prepare(query).unwrap()).unwrap();
    assert_eq!(kb.stats().rewrites_parallel, 1, "A-q2 must split a round");
    let options = RewriteOptions {
        elimination: true,
        hidden_predicates: bench.hidden_predicates.clone(),
        parallel_workers: 1,
        ..RewriteOptions::default()
    };
    let seq =
        nyaya::rewrite::tgd_rewrite_with(query, &bench.normalized, &[], &options, None).unwrap();
    assert_eq!(compiled.ucq.to_string(), seq.ucq.to_string());
}

#[test]
fn knowledge_base_is_shareable_across_threads() {
    // The serving scenario: one compiled knowledge base, many query
    // threads. The cache must stay coherent (one compile total).
    let kb = std::sync::Arc::new(KnowledgeBase::from_program_text(LINEAR_PROGRAM).unwrap());
    let query = kb.queries()[0].clone();
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let kb = std::sync::Arc::clone(&kb);
            let query = query.clone();
            std::thread::spawn(move || {
                let prepared = kb.prepare(&query).unwrap();
                kb.execute(&prepared).unwrap().tuples.len()
            })
        })
        .collect();
    for handle in handles {
        assert_eq!(handle.join().unwrap(), 2);
    }
    let stats = kb.stats();
    assert_eq!(stats.executions, 8);
    assert_eq!(stats.cached_rewritings, 1);
    assert!(stats.cache_misses >= 1, "at least one thread compiled");
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        8,
        "every execution either hit or compiled"
    );
}

#[test]
fn memory_accounting_moves_with_inserts_and_retracts() {
    use nyaya::UpdateBatch;

    let kb = KnowledgeBase::from_program_text(LINEAR_PROGRAM).unwrap();
    let before = kb.stats();
    assert!(before.fact_bytes > 0, "{before:?}");
    assert!(before.index_bytes > 0, "{before:?}");
    // The per-table breakdown covers every live predicate and sums to
    // the totals.
    assert_eq!(
        before.tables.iter().map(|t| t.fact_bytes).sum::<u64>(),
        before.fact_bytes
    );
    assert_eq!(
        before.tables.iter().map(|t| t.index_bytes).sum::<u64>(),
        before.index_bytes
    );
    let names: Vec<&str> = before.tables.iter().map(|t| t.predicate.as_str()).collect();
    assert!(names.contains(&"has_stock"), "{names:?}");
    assert!(names.contains(&"stock_portf"), "{names:?}");

    // Inserting a batch of fresh facts grows the resident fact bytes.
    let mut batch = UpdateBatch::new();
    for i in 0..512 {
        batch = batch.insert(Atom::make(
            "has_stock",
            [format!("stk{i}").as_str(), "fund9"],
        ));
    }
    kb.apply(batch).unwrap();
    let grown = kb.stats();
    assert!(
        grown.fact_bytes > before.fact_bytes,
        "insert must grow fact bytes: {} -> {}",
        before.fact_bytes,
        grown.fact_bytes
    );
    assert!(
        grown.index_bytes > before.index_bytes,
        "insert must grow index bytes: {} -> {}",
        before.index_bytes,
        grown.index_bytes
    );
    let grown_table = grown
        .tables
        .iter()
        .find(|t| t.predicate == "has_stock")
        .unwrap();
    assert_eq!(grown_table.rows, 513, "512 inserted + 1 seed fact");

    // Retracting every inserted fact drops the table's accounted rows;
    // bytes shrink once the retractions actually land (capacity-based
    // accounting never reports freed rows as still resident after the
    // table itself is rebuilt by a fresh snapshot rebuild).
    let mut retract = UpdateBatch::new();
    for i in 0..512 {
        retract = retract.retract(Atom::make(
            "has_stock",
            [format!("stk{i}").as_str(), "fund9"],
        ));
    }
    kb.apply(retract).unwrap();
    let shrunk = kb.stats();
    let shrunk_table = shrunk
        .tables
        .iter()
        .find(|t| t.predicate == "has_stock")
        .unwrap();
    assert_eq!(shrunk_table.rows, 1, "only the seed fact remains");
    assert!(
        shrunk.fact_bytes <= grown.fact_bytes,
        "retract must not grow fact bytes: {} -> {}",
        grown.fact_bytes,
        shrunk.fact_bytes
    );
    // The JSON document carries the new accounting for both the CLI and
    // the serving layer's stats endpoint.
    let json = shrunk.to_json();
    assert!(json.contains("\"fact_bytes\":"), "{json}");
    assert!(json.contains("\"index_bytes\":"), "{json}");
    assert!(json.contains("\"tables\":[{\"predicate\":"), "{json}");
    assert!(json.contains("\"morsel_tasks\":"), "{json}");
}

/// A query written with canonical-looking variable names used to be
/// canonicalized through a chasing substitution (`V2 → V1 → V0`), which
/// merged its variables: the stored rewriting was wrong, the cache key was
/// right, so the isomorphic query asked afterwards was served the same
/// wrong answer from the rewrite cache.
#[test]
fn canonical_looking_variable_names_do_not_change_the_answer() {
    const PROGRAM: &str = "p(a, b). r(b, c). p(d, e). p(f, f). r(f, g).";
    let v_named = "q(V1) :- p(V1, V2), r(V2, X).";
    let plain = "q(A) :- p(A, B), r(B, C).";
    let expected: std::collections::BTreeSet<Vec<Term>> =
        [vec![Term::constant("a")], vec![Term::constant("f")]].into();
    for order in [[v_named, plain], [plain, v_named]] {
        let kb = KnowledgeBase::from_program_text(PROGRAM).unwrap();
        for text in order {
            let answers = kb.answer_text(text).unwrap();
            assert_eq!(answers.tuples, expected, "{text} (asked in {order:?})");
        }
        assert_eq!(kb.stats().cache_misses, 1, "the two are one cache slot");
    }
    // The 2-cycle V1 → V0, V0 → V1 tripped a debug assertion.
    let kb = KnowledgeBase::from_program_text(PROGRAM).unwrap();
    let answers = kb.answer_text("q(V1) :- p(V1, V0).").unwrap();
    assert_eq!(answers.tuples.len(), 3);
}

/// Two interaction clusters with two alternatives each, so the same query
/// runs as a UCQ or as a program depending on the strategy alone.
const DECOMPOSABLE: &str = "
    sigma1: sp(X) -> p(X).
    sigma2: su(X) -> u(X).
    p(a). u(b). sp(c). su(d). t(a, b). t(c, d). t(a, d).
    q(A) :- p(A), t(A, B), u(B).
";

#[test]
fn every_entry_point_counts_one_execution_on_its_backend() {
    use nyaya::core::{apply_select, SelectOptions, SortDir};

    for (strategy, in_memory) in [(Strategy::Ucq, "in-memory"), (Strategy::Program, "program")] {
        let kb = KnowledgeBase::builder()
            .program_text(DECOMPOSABLE)
            .unwrap()
            .strategy(strategy)
            .build()
            .unwrap();
        let q = kb.prepare(&kb.queries()[0].clone()).unwrap();
        // A flat-UCQ execution reads the rewriting cache once; the chase
        // and the program target never do.
        let rewrites = u64::from(strategy == Strategy::Ucq);
        let mut last = kb.stats();
        // One entry point just ran: exactly one execution, on `backend`,
        // with these answer-cache (hits, misses) and rewriting lookups.
        let mut ran = |name: &str, backend: &str, expected: &str, answers, rewritings| {
            let now = kb.stats();
            let what = format!("{strategy:?} {name}");
            assert_eq!(backend, expected, "{what}");
            assert_eq!(now.executions, last.executions + 1, "{what}");
            assert_eq!(
                (
                    now.cache_answer_hits - last.cache_answer_hits,
                    now.cache_answer_misses - last.cache_answer_misses
                ),
                answers,
                "{what}: answer cache"
            );
            assert_eq!(
                now.cache_hits + now.cache_misses - last.cache_hits - last.cache_misses,
                rewritings,
                "{what}: rewriting cache"
            );
            last = now;
        };

        let first = kb.execute(&q).unwrap();
        ran("execute", first.backend, in_memory, (0, 1), rewrites);
        assert_eq!(first.tuples.len(), 2);
        let a = kb.execute_on(&q, ExecutorKind::InMemory).unwrap();
        ran("on InMemory", a.backend, in_memory, (1, 0), rewrites);
        assert_eq!(a.tuples, first.tuples);
        let a = kb.execute_at(&q, &kb.snapshot()).unwrap();
        ran("execute_at", a.backend, in_memory, (1, 0), rewrites);
        let a = kb.execute_at_epoch(&q, kb.epoch()).unwrap();
        ran("execute_at_epoch", a.backend, in_memory, (1, 0), rewrites);
        // Shaped rows come out of the same run: `execute_select` names no
        // backend, so the in-memory one stands in for it.
        let top = SelectOptions {
            order_by: vec![(0, SortDir::Asc)],
            limit: Some(1),
            ..SelectOptions::default()
        };
        let rows = kb.execute_select(&q, &top).unwrap();
        ran("execute_select", in_memory, in_memory, (1, 0), rewrites);
        assert_eq!(rows, apply_select(first.tuples.clone(), &top));
        let out_of_range = SelectOptions {
            order_by: vec![(1, SortDir::Asc)],
            ..SelectOptions::default()
        };
        let executions = kb.stats().executions;
        assert!(matches!(
            kb.execute_select(&q, &out_of_range),
            Err(NyayaError::InvalidSelect { .. })
        ));
        assert_eq!(
            kb.stats().executions,
            executions,
            "{strategy:?}: an invalid modifier runs nothing"
        );
        let a = kb.execute_on(&q, ExecutorKind::Chase).unwrap();
        ran("on Chase", a.backend, "chase", (0, 0), 0);
        assert_eq!(a.tuples, first.tuples, "{strategy:?}: backends agree");
        // SQL text is handed to an external DBMS: rendering it runs nothing.
        kb.sql(&q).unwrap();
        let now = kb.stats();
        assert_eq!(now.executions, last.executions, "{strategy:?}: sql");
        assert_eq!(
            (now.cache_answer_hits, now.cache_answer_misses),
            (last.cache_answer_hits, last.cache_answer_misses),
            "{strategy:?}: sql"
        );
    }

    // `execute` runs the backend the classification picks: the chase here.
    let kb = KnowledgeBase::from_program_text(TRANSITIVE_PROGRAM).unwrap();
    let q = kb.prepare(&kb.queries()[0].clone()).unwrap();
    let a = kb.execute(&q).unwrap();
    assert_eq!((a.backend, a.tuples.len()), ("chase", 6));
    assert_eq!(kb.stats().executions, 1);
    assert_eq!(kb.stats().cache_misses, 0);
}

#[test]
fn result_modifiers_do_not_teach_the_planner_a_correction() {
    use nyaya::core::{AggFunc, Aggregate, SelectOptions, SortDir};

    let mut facts = Vec::new();
    for i in 0..200 {
        let (x, y) = (format!("x{i}"), format!("y{i}"));
        facts.push(Atom::make("r", [x.as_str(), y.as_str()]));
        facts.push(Atom::make("s", [y.as_str()]));
    }
    let kb = KnowledgeBase::builder()
        .facts(facts)
        .strategy(Strategy::Ucq)
        .build()
        .unwrap();
    let count = SelectOptions {
        aggregate: Some(Aggregate {
            group_by: vec![],
            func: AggFunc::Count,
        }),
        ..SelectOptions::default()
    };
    let top = SelectOptions {
        order_by: vec![(0, SortDir::Asc)],
        limit: Some(20),
        ..SelectOptions::default()
    };
    for (text, alpha, sel, rows) in [
        ("q(X) :- r(X, Y), s(Y).", "q(A) :- r(A, B), s(B).", count, 1),
        ("q(X, Y) :- r(X, Y).", "q(A, B) :- r(A, B).", top, 20),
    ] {
        let q = kb.prepare_text(text).unwrap();
        assert_eq!(kb.execute_select(&q, &sel).unwrap().len(), rows, "{text}");
        // One shaped row, or 20 off the sorted index with no estimate at
        // all, says nothing about the join's cardinality.
        assert_eq!(kb.plan_correction(&q), 1.0, "{text}");
        let fresh = kb.prepare_text(alpha).unwrap();
        let plan = kb.explain(&fresh, &SelectOptions::default()).unwrap();
        assert!(!plan.contains("feedback correction"), "{text}: {plan}");
    }
    assert_eq!(kb.stats().plan_replans, 0);
}

/// A rewriting with no disjuncts still has the query's head: modifiers are
/// checked against it, and the empty union answers what the reference
/// semantics give on the empty set.
#[test]
fn modifiers_on_an_empty_rewriting_are_checked_against_the_query_head() {
    use nyaya::core::{apply_select, AggFunc, Aggregate, SelectOptions, SortDir};

    let kb = KnowledgeBase::builder()
        .program_text("n1: p(X) -> false.")
        .unwrap()
        .strategy(Strategy::Ucq)
        .build()
        .unwrap();
    let q = kb.prepare_text("q(A) :- p(A).").unwrap();
    assert_eq!(kb.rewriting(&q).unwrap().ucq.size(), 0);
    assert!(kb.execute(&q).unwrap().tuples.is_empty());
    let top = SelectOptions {
        order_by: vec![(0, SortDir::Asc)],
        limit: Some(3),
        ..SelectOptions::default()
    };
    let count = SelectOptions {
        aggregate: Some(Aggregate {
            group_by: vec![],
            func: AggFunc::Count,
        }),
        ..SelectOptions::default()
    };
    for sel in [top, count] {
        assert_eq!(
            kb.execute_select(&q, &sel).unwrap(),
            apply_select(std::collections::BTreeSet::new(), &sel),
            "{sel:?}"
        );
    }
    let out_of_range = SelectOptions {
        order_by: vec![(1, SortDir::Asc)],
        ..SelectOptions::default()
    };
    assert!(
        matches!(
            kb.execute_select(&q, &out_of_range),
            Err(NyayaError::InvalidSelect { .. })
        ),
        "column 1 is out of range for a unary head"
    );
}

/// Table names reach the stats JSON (CLI `--json`, the wire `STATS` verb)
/// with control characters escaped, so the document stays valid JSON.
#[test]
fn stats_json_escapes_control_characters_in_table_names() {
    let kb = KnowledgeBase::builder()
        .facts(vec![Atom::make("we\u{1}ird\nname", ["a"])])
        .build()
        .unwrap();
    let json = kb.stats().to_json();
    assert!(!json.chars().any(char::is_control), "{json:?}");
    assert!(
        json.contains(r#""predicate":"we\u0001ird\nname""#),
        "{json}"
    );
}

/// Every field of `KbStats` is a key of its JSON document (the CLI's
/// `--json`, the wire `STATS` verb): the field names are read off the
/// `Debug` output, so a field added without its key fails here.
#[test]
fn stats_json_has_a_key_for_every_stats_field() {
    let kb = KnowledgeBase::from_program_text(LINEAR_PROGRAM).unwrap();
    kb.answer_text("q(A, B) :- stock_portf(B, A, D).").unwrap();
    let stats = kb.stats();
    let debug = format!("{stats:?}");
    let body = debug
        .strip_prefix("KbStats { ")
        .and_then(|s| s.strip_suffix(" }"))
        .unwrap_or_else(|| panic!("{debug}"));
    // Split at the top-level commas only: `tables` nests.
    let mut fields = Vec::new();
    let (mut depth, mut start) = (0usize, 0usize);
    for (i, c) in body.char_indices() {
        match c {
            '{' | '[' | '(' => depth += 1,
            '}' | ']' | ')' => depth -= 1,
            ',' if depth == 0 => {
                fields.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    fields.push(&body[start..]);
    assert!(fields.len() > 40, "{fields:?}");
    let json = stats.to_json();
    for field in fields {
        let name = field.trim().split(':').next().unwrap();
        assert!(
            json.contains(&format!("\"{name}\":")),
            "no {name:?} in {json}"
        );
    }
}

/// The stats document byte for byte: every key, its position and its
/// rendering, over the default value and over a durable knowledge base
/// that has prepared, executed (twice, so the answer cache hits),
/// compiled a program, subscribed, applied, time-travelled, served one
/// request and compacted. Wall-clock `*_micros` values are masked.
#[test]
fn stats_json_is_byte_stable() {
    assert_eq!(
        KbStats::default().to_json(),
        concat!(
            r#"{"prepared":0,"cache_hits":0,"cache_misses":0,"template_binds":0,"#,
            r#""executions":0,"chase_runs":0,"#,
            r#""cached_rewritings":0,"exec_micros":0,"rows_returned":0,"#,
            r#""parallel_executions":0,"build_cache_hits":0,"build_cache_misses":0,"#,
            r#""epoch":0,"batches_applied":0,"facts_inserted":0,"facts_retracted":0,"#,
            r#""build_cache_invalidations":0,"snapshot_facts":0,"rewrite_micros":0,"#,
            r#""rewrite_explored":0,"rewrites_parallel":0,"subsumption_checks_avoided":0,"#,
            r#""program_compiles":0,"program_executions":0,"program_micros":0,"#,
            r#""program_rules":0,"program_strata":0,"program_tuples_materialized":0,"#,
            r#""durable":false,"wal_records":0,"wal_bytes":0,"segments_flushed":0,"#,
            r#""segment_bytes":0,"last_segment_epoch":0,"epochs_materialized":0,"#,
            r#""recovery_replayed":0,"subscriptions_active":0,"subscription_diffs":0,"#,
            r#""ivm_added_tuples":0,"ivm_removed_tuples":0,"ivm_micros":0,"#,
            r#""ivm_seed_micros":0,"ivm_seeded_tuples":0,"merge_joins":0,"#,
            r#""morsel_tasks":0,"plan_estimated_rows":0,"plan_actual_rows":0,"#,
            r#""plan_replans":0,"cache_answer_hits":0,"cache_answer_misses":0,"#,
            r#""net_requests":0,"fact_bytes":0,"index_bytes":0,"build_cache_bytes":0,"#,
            r#""table_folds":0,"tables":[]}"#,
        )
    );

    let dir = std::env::temp_dir().join(format!("nyaya-stats-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let kb = KnowledgeBase::builder()
        .program_text(LINEAR_PROGRAM)
        .unwrap()
        .durable(&dir)
        .build()
        .unwrap();
    let q = kb.prepare_text("q(A, B) :- stock_portf(B, A, D).").unwrap();
    kb.execute(&q).unwrap();
    kb.execute(&q).unwrap();
    kb.execute_program(&kb.program(&q).unwrap().program)
        .unwrap();
    let sub = kb.subscribe(&q).unwrap();
    kb.apply(
        UpdateBatch::new()
            .insert(Atom::make("has_stock", ["sap_s", "fund3"]))
            .retract(Atom::make("has_stock", ["ibm_s", "fund1"])),
    )
    .unwrap();
    kb.snapshot_at(0).unwrap();
    kb.record_net_request();
    kb.compact().unwrap();
    let json = kb.stats().to_json();
    drop(sub);
    drop(kb);
    let _ = std::fs::remove_dir_all(&dir);
    let mut masked = String::new();
    let mut rest = json.as_str();
    while let Some(at) = rest.find("_micros\":") {
        let (head, tail) = rest.split_at(at + "_micros\":".len());
        masked.push_str(head);
        masked.push('#');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    masked.push_str(rest);
    assert_eq!(
        masked,
        concat!(
            r#"{"prepared":1,"cache_hits":1,"cache_misses":1,"template_binds":0,"#,
            r#""executions":2,"chase_runs":0,"#,
            r#""cached_rewritings":1,"exec_micros":#,"rows_returned":4,"#,
            r#""parallel_executions":0,"build_cache_hits":0,"build_cache_misses":0,"#,
            r#""epoch":1,"batches_applied":1,"facts_inserted":1,"facts_retracted":1,"#,
            r#""build_cache_invalidations":0,"snapshot_facts":2,"rewrite_micros":#,"#,
            r#""rewrite_explored":4,"rewrites_parallel":0,"subsumption_checks_avoided":0,"#,
            r#""program_compiles":1,"program_executions":1,"program_micros":#,"#,
            r#""program_rules":2,"program_strata":1,"program_tuples_materialized":0,"#,
            r#""durable":true,"wal_records":1,"wal_bytes":110,"segments_flushed":2,"#,
            r#""segment_bytes":352,"last_segment_epoch":1,"epochs_materialized":1,"#,
            r#""recovery_replayed":0,"subscriptions_active":1,"subscription_diffs":1,"#,
            r#""ivm_added_tuples":1,"ivm_removed_tuples":1,"ivm_micros":#,"#,
            r#""ivm_seed_micros":#,"ivm_seeded_tuples":2,"merge_joins":0,"#,
            r#""morsel_tasks":4,"plan_estimated_rows":2,"plan_actual_rows":2,"#,
            r#""plan_replans":0,"cache_answer_hits":1,"cache_answer_misses":1,"#,
            r#""net_requests":1,"fact_bytes":44,"index_bytes":320,"build_cache_bytes":0,"#,
            r#""table_folds":0,"#,
            r#""tables":[{"predicate":"has_stock","arity":2,"rows":1,"fact_bytes":32,"#,
            r#""index_bytes":296,"delta_rows":1,"dead_rows":0},{"predicate":"stock_portf","#,
            r#""arity":3,"rows":1,"fact_bytes":12,"index_bytes":24,"delta_rows":0,"#,
            r#""dead_rows":0}]}"#,
        )
    );
}

/// `grad-courses` compiles to a program whose `takesCourse` and
/// `GraduateCourse` atoms each get a predicate that only renames the
/// relation. The program optimizer inlines those, so a subscription seeds
/// the graduate-student union and the answers, not a copy of every
/// `takesCourse` fact.
#[test]
fn subscribing_does_not_copy_a_renamed_base_relation() {
    use nyaya::ontologies::lubm::{lubm_abox, LubmConfig};
    use nyaya::ontologies::{load, BenchmarkId};

    let facts = lubm_abox(&LubmConfig {
        universities: 1,
        departments_per_university: 1,
        seed: 7,
    });
    let takes_course = Predicate::new("takesCourse", 2);
    let takes = facts.iter().filter(|f| f.pred == takes_course).count();
    let kb = KnowledgeBase::builder()
        .ontology(load(BenchmarkId::U).raw)
        .facts(facts)
        .build()
        .unwrap();
    let q = kb
        .prepare_text("q(X, Y) :- GraduateStudent(X), takesCourse(X, Y), GraduateCourse(Y).")
        .unwrap();
    let sub = kb.subscribe(&q).unwrap();
    let answers = kb.execute(&q).unwrap().tuples;
    assert!(!answers.is_empty());
    assert_eq!(sub.current(), answers);
    let seeded = kb.stats().ivm_seeded_tuples as usize;
    assert!(
        answers.len() < seeded && seeded < takes,
        "seeded {seeded} support entries for {} answers over {takes} takesCourse facts",
        answers.len()
    );
}

/// The program target reads a renamed relation itself: `grad-courses`
/// under `Strategy::Program` compiles no renaming rule, so executing it
/// materializes the graduate-student union below the goal but no copy of
/// `takesCourse` (which alone would be as many rows as the relation).
#[test]
fn the_program_target_does_not_copy_a_renamed_base_relation() {
    use nyaya::ontologies::lubm::{lubm_abox, LubmConfig};
    use nyaya::ontologies::{load, BenchmarkId};

    let facts = lubm_abox(&LubmConfig {
        universities: 1,
        departments_per_university: 1,
        seed: 7,
    });
    let takes_course = Predicate::new("takesCourse", 2);
    let takes = facts.iter().filter(|f| f.pred == takes_course).count();
    let kb = KnowledgeBase::builder()
        .ontology(load(BenchmarkId::U).raw)
        .facts(facts)
        .strategy(Strategy::Program)
        .build()
        .unwrap();
    let q = kb
        .prepare_text("q(X, Y) :- GraduateStudent(X), takesCourse(X, Y), GraduateCourse(Y).")
        .unwrap();
    // The renaming pass finds nothing left to inline.
    let compiled = &kb.program(&q).unwrap().program;
    let mut again = compiled.clone();
    nyaya::rewrite::inline_renamings(&mut again);
    assert_eq!(again.rules, compiled.rules, "{compiled}");
    let answers = kb.execute(&q).unwrap().tuples;
    assert!(!answers.is_empty());
    let stats = kb.stats();
    assert_eq!(stats.program_executions, 1, "{stats:?}");
    let materialized = stats.program_tuples_materialized as usize;
    assert!(
        0 < materialized && materialized < takes,
        "materialized {materialized} tuples over {takes} takesCourse facts"
    );
}

/// Never-seen point queries of the three serving shapes leave a
/// snapshot's build cache as they found it: each scans its constant's
/// posting list or builds what its constant filters for itself, and every
/// build the cache keeps carries no constant and is shared. Sixty
/// departments make a department's `worksFor` posting list cheaper to
/// scan than the `Chair` table, as it is at serving scale.
#[test]
fn point_queries_leave_the_build_cache_as_they_found_it() {
    // The first query of each shape may build its constant-free scans.
    let answered = point_queries_keep_the_build_cache(4, 15, 3);
    assert!(answered > 200, "the point queries must answer something");
}

/// The same on four departments, where the planner joins a department's
/// `worksFor` rows on a key plus the constant: a build it does not keep.
#[test]
fn point_queries_on_four_departments_leave_the_build_cache_as_they_found_it() {
    // Here the queries on every department of the first university may
    // build constant-free sides: a step is compiled only once the steps
    // before it produced rows, so a department whose earlier steps are
    // empty builds less.
    let answered = point_queries_keep_the_build_cache(1, 4, 3 * 4);
    assert!(answered > 100, "the point queries must answer something");
}

/// Run `warm` point queries, then 200 more, over a LUBM base of
/// `universities` × `departments`, checking each against the reference
/// engine and the build cache's size after the 200 against its size
/// before them; the 200's answer count.
fn point_queries_keep_the_build_cache(
    universities: usize,
    departments: usize,
    warm: usize,
) -> usize {
    use nyaya::ontologies::lubm::{lubm_abox, LubmConfig};
    use nyaya::ontologies::{load, BenchmarkId};

    let kb = KnowledgeBase::builder()
        .ontology(load(BenchmarkId::U).raw)
        .facts(lubm_abox(&LubmConfig {
            universities,
            departments_per_university: departments,
            seed: 7,
        }))
        .build()
        .unwrap();
    // Query `i` of shape `i % 3` names department `i / 3`: every text of
    // the first two shapes is new, and one university past the last its
    // constants are absent (the count wraps after it, so a small base
    // still answers).
    let point = |i: usize| {
        let j = i / 3;
        let (u, d) = ((j / departments) % (universities + 1), j % departments);
        match i % 3 {
            0 => format!("q(C) :- takesCourse(u{u}d{d}_gr{}, C), Course(C).", j % 50),
            1 => format!("q(S) :- Student(S), advisor(S, u{u}d{d}_fac{}).", j % 40),
            _ => format!("q(P, C) :- worksFor(P, u{u}d{d}_dept), teacherOf(P, C), Professor(P)."),
        }
    };
    let run = |i: usize| {
        let q = kb.prepare_text(&point(i)).unwrap();
        let answers = kb.execute(&q).unwrap().tuples;
        let ucq = &kb.rewriting(&q).unwrap().ucq;
        let reference = nyaya::sql::reference::execute_ucq_reference(kb.snapshot().database(), ucq);
        assert_eq!(answers, reference, "{}", point(i));
        answers.len()
    };
    for i in 0..warm {
        run(i);
    }
    let before = kb.snapshot().build_cache().len();
    let answered = (warm..warm + 200).map(run).sum();
    assert_eq!(kb.snapshot().build_cache().len(), before);
    answered
}

/// A scan reads its table in place: of `p(X, Y), r(X, Y)` run cold, only
/// `r`, joined on both columns, builds a side, and the snapshot's cache
/// holds that one build.
#[test]
fn only_a_grouping_no_index_holds_is_built_and_cached() {
    let facts: Vec<Atom> = (0..40)
        .map(|i| {
            Atom::make(
                "p",
                [format!("a{i}").as_str(), format!("b{}", i % 7).as_str()],
            )
        })
        .chain((0..60).map(|i| {
            Atom::make(
                "r",
                [
                    format!("a{}", i % 50).as_str(),
                    format!("b{}", i % 7).as_str(),
                ],
            )
        }))
        .collect();
    let kb = KnowledgeBase::builder()
        .facts(facts.clone())
        .strategy(Strategy::Ucq)
        .build()
        .unwrap();
    let q = kb.prepare_text("q(X, Y) :- p(X, Y), r(X, Y).").unwrap();
    let answers = kb.execute(&q).unwrap().tuples;
    let stats = kb.stats();
    assert_eq!(
        (
            stats.build_cache_misses,
            stats.build_cache_hits,
            stats.merge_joins
        ),
        (1, 0, 0),
        "{stats:?}"
    );
    // The same union over the same facts, straight through the engine:
    // its cache holds one build, the bytes the snapshot's cache reports.
    let cache = nyaya::sql::BuildCache::new();
    let db = nyaya::sql::Database::from_facts(facts);
    let ucq = kb.rewriting(&q).unwrap().ucq.clone();
    let (direct, _) = nyaya::sql::execute_ucq_intra(&db, &ucq, 1, 1, &cache, 1.0);
    assert_eq!(direct, answers);
    assert_eq!(cache.len(), 1);
    assert!(cache.bytes() > 0);
    assert_eq!(stats.build_cache_bytes, cache.bytes());
}

/// `EXPLAIN` prints the plan the executor runs: after the skewed join
/// below teaches a correction, the first disjunct's join order flips, and
/// the per-step lines are the plan at that correction.
#[test]
fn explain_prints_the_plan_at_the_learned_correction() {
    // `r` has 995 rows over 100 keys, but 500 of them share `hub`, the
    // one row of `s`; `t` has 400 rows over 391 keys, 10 per `k`.
    let mut facts = vec![Atom::make("s", ["hub"])];
    for i in 0..500 {
        facts.push(Atom::make("r", ["hub", format!("y{i}").as_str()]));
    }
    for j in 1..100 {
        for k in 0..5 {
            facts.push(Atom::make(
                "r",
                [format!("x{j}").as_str(), format!("w{j}_{k}").as_str()],
            ));
        }
    }
    for m in 0..10 {
        facts.push(Atom::make("t", ["hub", format!("k{m}").as_str()]));
    }
    for i in 0..390 {
        facts.push(Atom::make(
            "t",
            [format!("v{i}").as_str(), format!("k{}", i % 10).as_str()],
        ));
    }
    let kb = KnowledgeBase::builder()
        .facts(facts)
        .strategy(Strategy::Ucq)
        .build()
        .unwrap();
    let q = kb.prepare_text("q(Y) :- s(X), r(X, Y), t(X, k0).").unwrap();
    let snapshot = kb.snapshot();
    let first = kb.rewriting(&q).unwrap().ucq.iter().next().unwrap().clone();
    let steps = |text: &str| -> Vec<String> {
        text.lines()
            .skip_while(|line| !line.starts_with("plan for "))
            .skip(1)
            .take_while(|line| !line.contains("total estimated cost"))
            .map(str::to_owned)
            .collect()
    };
    let expected = |correction: f64| -> Vec<String> {
        let plan = nyaya::sql::plan_cq_cost_corrected(snapshot.database(), &first, correction);
        plan.order
            .iter()
            .zip(&plan.estimates)
            .zip(&plan.ops)
            .enumerate()
            .map(|(step, ((&i, est), op))| {
                let operand = match op {
                    nyaya::sql::StepOp::Merge { key_col } => {
                        format!("{} [col {key_col}]", first.body[i])
                    }
                    _ => first.body[i].to_string(),
                };
                format!(
                    "  {step}: {:<5} {operand:<30} est. rows {est:.1}",
                    op.name()
                )
            })
            .collect()
    };
    let explain = || {
        kb.explain(&q, &nyaya::core::SelectOptions::default())
            .unwrap()
    };
    assert_eq!(steps(&explain()), expected(1.0));

    assert_eq!(kb.execute(&q).unwrap().tuples.len(), 500);
    let correction = kb.plan_correction(&q);
    assert!(correction > 1.0, "the skewed join must teach a correction");
    let before = nyaya::sql::plan_cq_cost(snapshot.database(), &first);
    let after = nyaya::sql::plan_cq_cost_corrected(snapshot.database(), &first, correction);
    assert_ne!(
        before.order, after.order,
        "the correction must flip the order"
    );
    let text = explain();
    assert!(text.contains("feedback correction"), "{text}");
    assert_eq!(steps(&text), expected(correction), "{text}");
}

/// Result modifiers and `explain` run on the knowledge base's backend: on
/// a chase base they compile no rewriting, which for transitivity would
/// only end in the rewriting budget.
#[test]
fn modifiers_and_explain_follow_the_chase_backend() {
    use nyaya::core::{apply_select, AggFunc, Aggregate, SelectOptions, SortDir};

    let kb = KnowledgeBase::builder()
        .program_text(TRANSITIVE_PROGRAM)
        .unwrap()
        .max_queries(500)
        .build()
        .unwrap();
    assert_eq!(kb.executor_kind(), ExecutorKind::Chase);
    let count = SelectOptions {
        aggregate: Some(Aggregate {
            group_by: vec![],
            func: AggFunc::Count,
        }),
        ..SelectOptions::default()
    };
    let top = SelectOptions {
        order_by: vec![(1, SortDir::Desc)],
        limit: Some(2),
        ..SelectOptions::default()
    };
    for text in ["q(A, B) :- e(A, B).", "q(B) :- e(a, B)."] {
        let q = kb.prepare_text(text).unwrap();
        let all = kb.execute(&q).unwrap().tuples;
        for sel in [&count, &top] {
            if sel.validate(q.query().head.len()).is_err() {
                continue;
            }
            let rows = kb.execute_select(&q, sel).unwrap();
            assert_eq!(rows, apply_select(all.clone(), sel), "{text}");
        }
        let plan = kb.explain(&q, &top).unwrap();
        assert!(plan.starts_with("strategy: chase\n"), "{plan}");
    }
    assert_eq!(kb.stats().cache_misses, 0, "no rewriting was compiled");
}
