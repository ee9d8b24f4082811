//! Plan-shape regression: the `--explain` text for the benchmark suites
//! is pinned, so a cost-model change that flips a chosen plan (join
//! order, hash→merge, ucq→program routing) shows up as a visible diff
//! in this file instead of a silent performance cliff.
//!
//! Everything runs inside ONE `#[test]` over a deterministic,
//! name-ordered ABox: plan text only mentions predicate/variable names
//! (never interner indices), and single-threaded construction keeps the
//! estimates byte-stable across runs and hosts.

use std::fmt::Write as _;

use nyaya::core::{Predicate, SelectOptions};
use nyaya::ontologies::{load, Benchmark, BenchmarkId};
use nyaya::{KnowledgeBase, UpdateBatch};

/// Deterministic ABox: base predicates in *name* order, 24 facts each
/// over a 12-individual domain — small enough that every suite explains
/// in debug mode, skewed enough that estimates differ per column.
fn populate(kb: &KnowledgeBase, bench: &Benchmark) {
    let mut preds: Vec<Predicate> = bench
        .raw
        .predicates()
        .into_iter()
        .filter(|p| !bench.aux_predicates.contains(p))
        .collect();
    preds.sort_by_key(|p| (p.to_string(), p.arity));
    let mut batch = UpdateBatch::new();
    for (pi, pred) in preds.iter().enumerate() {
        for i in 0..24usize {
            let args: Vec<nyaya::core::Term> = (0..pred.arity)
                .map(|a| {
                    nyaya::core::Term::constant(&format!("ind{}", (pi * 5 + i * (a + 3) + a) % 12))
                })
                .collect();
            batch = batch.insert(nyaya::core::Atom::new(*pred, args));
        }
    }
    kb.apply(batch).unwrap();
}

fn kb_for(bench: &Benchmark) -> KnowledgeBase {
    let kb = KnowledgeBase::builder()
        .ontology(bench.raw.clone())
        .show_aux(bench.hidden_predicates.is_empty())
        .build()
        .expect("benchmark builds");
    populate(&kb, bench);
    kb
}

fn explain(kb: &KnowledgeBase, bench: &Benchmark, qi: usize) -> String {
    let (name, query) = &bench.queries[qi];
    let prepared = kb.prepare(query).unwrap();
    let text = kb.explain(&prepared, &SelectOptions::default()).unwrap();
    format!("== {:?} {} ==\n{}", bench.id, name, text)
}

#[test]
fn explain_text_is_pinned_for_the_suite() {
    let mut got = String::new();
    // q1 of every suite: the cross-suite sweep.
    for id in BenchmarkId::ALL {
        let bench = load(id);
        let kb = kb_for(&bench);
        let _ = write!(got, "{}", explain(&kb, &bench, 0));
    }
    // The three named deeper cells: a wide union (U q5) and the
    // existential-heavy X-variant joins (P5X q2/q3).
    for (id, qis) in [(BenchmarkId::U, &[4][..]), (BenchmarkId::P5X, &[1, 2][..])] {
        let bench = load(id);
        let kb = kb_for(&bench);
        for &qi in qis {
            let _ = write!(got, "{}", explain(&kb, &bench, qi));
        }
    }
    // A constant-bearing cell: a point query's constant filter prices a
    // scan by the posting list it reads, not by the whole table.
    let bench = load(BenchmarkId::U);
    let kb = kb_for(&bench);
    let point = "q(P, C) :- worksFor(P, ind3), teacherOf(P, C), Professor(P).";
    let prepared = kb.prepare_text(point).unwrap();
    let text = kb.explain(&prepared, &SelectOptions::default()).unwrap();
    let _ = write!(got, "== U point ==\n{text}");
    let expected = include_str!("plan_shapes.golden");
    if got != expected {
        // Drop the full actual text next to the build so regenerating the
        // golden is `cp target/plan_shapes.actual tests/plan_shapes.golden`,
        // then fail with the first diverging line.
        let _ = std::fs::write("target/plan_shapes.actual", &got);
        println!("=== ACTUAL ===\n{got}\n=== END ===");
        for (ln, (g, e)) in got.lines().zip(expected.lines()).enumerate() {
            assert_eq!(g, e, "first divergence at line {}", ln + 1);
        }
        assert_eq!(
            got.lines().count(),
            expected.lines().count(),
            "explain text grew or shrank"
        );
        unreachable!("texts differ but no line diverged?");
    }
}
