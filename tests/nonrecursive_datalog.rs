//! The non-recursive Datalog rewriting target (Sections 2 and 8) against
//! the UCQ engine, across the benchmark suite:
//!
//! 1. unfolding the program gives a UCQ equivalent to `TGD-rewrite`'s;
//! 2. bottom-up program evaluation returns the same answers as executing
//!    the UCQ rewriting;
//! 3. on cluster-decomposable queries the program is *smaller* than the
//!    DNF it hides.
//!
//! Each (ontology, query) rewriting is computed once and re-used for all
//! three checks — the rewritings, not the checks, dominate the cost.

use std::collections::HashSet;

use nyaya::core::UnionQuery;
use nyaya::ontologies::{generate_abox, load, AboxConfig, BenchmarkId};
use nyaya::rewrite::{nr_datalog_rewrite, tgd_rewrite, ProgramStrategy, RewriteOptions};
use nyaya::sql::{execute_program, execute_ucq, Database};

/// Mutual containment of two UCQs (each disjunct of one is contained in
/// some disjunct of the other — the classical UCQ-containment criterion).
fn ucq_equivalent(a: &UnionQuery, b: &UnionQuery) -> bool {
    a.iter().all(|qa| b.iter().any(|qb| qb.contains(qa)))
        && b.iter().all(|qb| a.iter().any(|qa| qa.contains(qb)))
}

fn canonical_keys(u: &UnionQuery) -> HashSet<String> {
    u.iter()
        .map(|q| nyaya::core::canonical_key(q).as_str().to_owned())
        .collect()
}

fn check_benchmark(id: BenchmarkId, star: bool) {
    let bench = load(id);
    let config = AboxConfig {
        seed: 20260610,
        ..Default::default()
    };
    let db = Database::from_facts(generate_abox(&bench, &config));
    let mut decomposed = 0usize;
    for (name, q) in &bench.queries {
        let mut opts = if star {
            RewriteOptions::nyaya_star()
        } else {
            RewriteOptions::nyaya()
        };
        opts.hidden_predicates = bench.hidden_predicates.clone();
        let ucq = tgd_rewrite(q, &bench.normalized, &[], &opts).unwrap().ucq;
        if ucq.size() > 500 {
            continue; // keep the suite fast; covered by benches instead
        }
        let out = nr_datalog_rewrite(q, &bench.normalized, &[], &opts).unwrap();
        let program = &out.program;

        // (1) Expansion equivalence: fast canonical-key path first, full
        // semantic containment only when the sets differ syntactically.
        let expanded = program.expand();
        if canonical_keys(&ucq) != canonical_keys(&expanded) {
            assert!(
                ucq.size() <= 200 && ucq_equivalent(&ucq, &expanded) || ucq.size() > 200, // too large for containment — covered by (2)
                "{id} {name} (star={star}): expansion differs ({} vs {} CQs)",
                ucq.size(),
                expanded.size()
            );
        }

        // (2) Answer agreement on a generated ABox.
        assert_eq!(
            execute_ucq(&db, &ucq),
            execute_program(&db, program).expect("suite programs evaluate"),
            "{id} {name} (star={star}): answers differ"
        );

        // (3) Size accounting for decomposed queries.
        if let ProgramStrategy::Clustered { clusters } = out.strategy {
            assert!(clusters >= 2, "{id} {name}");
            decomposed += 1;
        }
    }
    // V/S/U have several decomposable queries; P5 has none (chain queries
    // are one interaction cluster). The expectation only applies when all
    // five queries run — with star=false the size cap skips the large ones.
    match id {
        BenchmarkId::P5 => assert_eq!(decomposed, 0, "P5 chains must not split"),
        BenchmarkId::S | BenchmarkId::U if star => {
            assert!(decomposed >= 2, "{id}: expected decomposable queries")
        }
        _ => {}
    }
}

#[test]
fn vicodi_programs_match_ucq() {
    check_benchmark(BenchmarkId::V, true);
}

#[test]
fn stockexchange_programs_match_ucq() {
    check_benchmark(BenchmarkId::S, true);
}

#[test]
fn university_programs_match_ucq() {
    check_benchmark(BenchmarkId::U, true);
}

#[test]
fn adolena_programs_match_ucq() {
    check_benchmark(BenchmarkId::A, true);
}

#[test]
fn path5_programs_match_ucq() {
    check_benchmark(BenchmarkId::P5, true);
}

#[test]
fn plain_ny_programs_match_ucq_on_stockexchange() {
    // Without elimination the DNF is much larger — exercise the clustered
    // construction where it matters most.
    check_benchmark(BenchmarkId::S, false);
}

#[test]
fn clustered_programs_beat_the_dnf_in_size() {
    let mut saved = 0usize;
    for id in [BenchmarkId::S, BenchmarkId::U] {
        let bench = load(id);
        for (_, q) in &bench.queries {
            let mut opts = RewriteOptions::nyaya();
            opts.hidden_predicates = bench.hidden_predicates.clone();
            let out = nr_datalog_rewrite(q, &bench.normalized, &[], &opts).unwrap();
            if matches!(out.strategy, ProgramStrategy::Clustered { .. }) {
                let ucq = tgd_rewrite(q, &bench.normalized, &[], &opts).unwrap().ucq;
                if out.program.total_atoms() < ucq.length() {
                    saved += 1;
                }
            }
        }
    }
    assert!(
        saved >= 3,
        "expected the program to beat the DNF on several S/U queries, got {saved}"
    );
}

#[test]
fn x_variant_programs_stay_sound() {
    // The UX benchmark exposes the auxiliary predicates; programs must
    // still evaluate to the same answers as the UCQ.
    let bench = load(BenchmarkId::UX);
    let config = AboxConfig {
        seed: 7,
        ..Default::default()
    };
    let db = Database::from_facts(generate_abox(&bench, &config));
    for (name, q) in bench.queries.iter().take(2) {
        let opts = RewriteOptions::nyaya_star();
        let ucq = tgd_rewrite(q, &bench.normalized, &[], &opts).unwrap().ucq;
        let program = nr_datalog_rewrite(q, &bench.normalized, &[], &opts)
            .unwrap()
            .program;
        assert_eq!(
            execute_ucq(&db, &ucq),
            execute_program(&db, &program).expect("UX programs evaluate"),
            "UX {name}"
        );
    }
}

/// The public-API guard on a seeded view's support counts. Every V/S/U/A/P5
/// query under the size cap is subscribed over its generated ABox, then the
/// ABox is retracted in four batches. At every epoch the replayed diffs
/// equal re-execution, and at the end the view is empty: a count too high
/// leaves a tuple behind, a count too low drops one early (a removal of an
/// absent tuple, or a replayed set short of re-execution).
#[test]
fn seeded_views_drain_to_empty_on_every_suite_cell() {
    use std::collections::BTreeSet;

    use nyaya::core::Term;
    use nyaya::{AnswerDiff, KnowledgeBase, UpdateBatch};

    fn replay(replayed: &mut BTreeSet<Vec<Term>>, diff: &AnswerDiff, at: &str) {
        for tuple in &diff.added {
            assert!(
                replayed.insert(tuple.clone()),
                "{at}: added twice {tuple:?}"
            );
        }
        for tuple in &diff.removed {
            assert!(replayed.remove(tuple), "{at}: removed absent {tuple:?}");
        }
    }

    // Rewriting these cells takes 1–30 s each in debug (A-q4 only to find
    // it over the cap); the release run covers them.
    const HEAVY_IN_DEBUG: [&str; 4] = ["A q3", "A q4", "A q5", "P5 q5"];
    // Dense enough that most cells have answers to drain.
    let config = AboxConfig {
        individuals: 50,
        facts: 2_000,
        seed: 20260610,
    };
    for id in [
        BenchmarkId::V,
        BenchmarkId::S,
        BenchmarkId::U,
        BenchmarkId::A,
        BenchmarkId::P5,
    ] {
        let bench = load(id);
        let facts = generate_abox(&bench, &config);
        let kb = KnowledgeBase::builder()
            .ontology(bench.raw.clone())
            .facts(facts.iter().cloned())
            .build()
            .expect("suite ontology builds");
        let mut cells = Vec::new();
        for (name, q) in &bench.queries {
            let cell = format!("{id} {name}");
            if cfg!(debug_assertions) && HEAVY_IN_DEBUG.contains(&cell.as_str()) {
                continue;
            }
            let query = kb.prepare(q).expect("suite query prepares");
            if kb.rewriting(&query).expect("rewrites").ucq.size() > 500 {
                continue;
            }
            let sub = kb.subscribe(&query).expect("suite program subscribes");
            cells.push((cell, query, sub, BTreeSet::new()));
        }
        let batches = facts.chunks(facts.len().div_ceil(4));
        for (i, batch) in std::iter::once(&[][..]).chain(batches).enumerate() {
            if i > 0 {
                kb.apply(UpdateBatch::new().retract_all(batch.iter().cloned()))
                    .expect("retraction applies");
            }
            for (cell, query, sub, replayed) in &mut cells {
                let at = format!("{cell}, batch {i}");
                for diff in sub.poll() {
                    replay(replayed, &diff, &at);
                }
                assert_eq!(
                    *replayed,
                    kb.execute(query).expect("executes").tuples,
                    "{at}"
                );
            }
        }
        for (cell, _, sub, replayed) in &cells {
            assert!(
                replayed.is_empty(),
                "{cell}: the drained view kept {replayed:?}"
            );
            assert!(sub.current().is_empty(), "{cell}");
        }
    }
}
