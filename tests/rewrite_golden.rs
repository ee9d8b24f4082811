//! The text of every rewriting is pinned: CQ order, atom order inside each
//! CQ and variable names of NY⋆'s output for the 25 Table 2 cells of V, S,
//! U, A, P5, the three LUBM multi-joins and the three point templates of
//! the `lubm_serve` workload (LUBM's U-q1..q5 are the suite's U cells),
//! plus the canonical key of every emitted CQ.
//!
//! Both depend on interner indices (the key spells predicate and constant
//! indices out, the atom order hashes them), so this file holds exactly one
//! test: the process interns nothing but what that test loads, in the
//! order it loads it, and every ontology and query is loaded before the
//! first compile. `rewrite_golden.txt` was recorded with this same source at
//! commit ca88dcf, the parent of the per-Σ compile (ISSUE 15).

use nyaya::core::{canonical_key, ConjunctiveQuery};
use nyaya::ontologies::{load, Benchmark, BenchmarkId};
use nyaya::parser::parse_query;
use nyaya::rewrite::{tgd_rewrite, RewriteOptions};

const GOLDEN: &str = include_str!("rewrite_golden.txt");

/// Cells whose compile costs minutes unoptimized; release only (CI's
/// build-test job runs this file in release).
const HEAVY: [&str; 4] = ["A-q3", "A-q4", "A-q5", "P5-q5"];

const LUBM_QUERIES: [(&str, &str); 6] = [
    (
        "grad-courses",
        "q(X, Y) :- GraduateStudent(X), takesCourse(X, Y), GraduateCourse(Y).",
    ),
    (
        "taught-grads",
        "q(X, C) :- AssociateProfessor(P), teacherOf(P, C), takesCourse(X, C), \
         GraduateStudent(X).",
    ),
    (
        "grad-pipeline",
        "q(X, P) :- GraduateStudent(X), takesCourse(X, C), GraduateCourse(C), \
         advisor(X, P), FullProfessor(P).",
    ),
    ("point-0", "q(C) :- takesCourse(u0d0_gr0, C), Course(C)."),
    ("point-1", "q(S) :- Student(S), advisor(S, u0d0_fac0)."),
    (
        "point-2",
        "q(P, C) :- worksFor(P, u0d0_dept), teacherOf(P, C), Professor(P).",
    ),
];

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash = (*hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `name cqs bytes fnv(ucq text) fnv(canonical keys)`.
fn line(name: &str, bench: &Benchmark, query: &ConjunctiveQuery) -> String {
    let mut options = RewriteOptions::nyaya_star();
    options.hidden_predicates = bench.hidden_predicates.clone();
    let out = tgd_rewrite(query, &bench.normalized, &[], &options).unwrap();
    assert!(!out.stats.budget_exhausted, "{name}: budget exhausted");
    let text = out.ucq.to_string();
    let mut text_hash = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut text_hash, text.as_bytes());
    let mut key_hash = 0xcbf2_9ce4_8422_2325u64;
    for cq in out.ucq.iter() {
        fnv1a(&mut key_hash, canonical_key(cq).as_str().as_bytes());
        fnv1a(&mut key_hash, b"\n");
    }
    format!(
        "{name} {} {} {text_hash:016x} {key_hash:016x}",
        out.ucq.size(),
        text.len()
    )
}

#[test]
fn rewriting_text_and_keys_are_identical_to_the_recorded_parent() {
    // Load everything first: compiles intern variable names, and an index
    // shifted by them would move every later ontology's keys.
    let suites: Vec<Benchmark> = [
        BenchmarkId::V,
        BenchmarkId::S,
        BenchmarkId::U,
        BenchmarkId::A,
        BenchmarkId::P5,
    ]
    .into_iter()
    .map(load)
    .collect();
    let lubm: Vec<(&str, ConjunctiveQuery)> = LUBM_QUERIES
        .iter()
        .map(|(name, text)| (*name, parse_query(text).expect("LUBM query parses")))
        .collect();
    let university = &suites[2];

    let skip = |name: &str| cfg!(debug_assertions) && HEAVY.contains(&name);
    let mut actual = Vec::new();
    for bench in &suites {
        for (q, query) in &bench.queries {
            let name = format!("{}-{q}", bench.id);
            if !skip(&name) {
                actual.push(line(&name, bench, query));
            }
        }
    }
    for (name, query) in &lubm {
        actual.push(line(name, university, query));
    }

    let expected: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !skip(l.split(' ').next().unwrap_or("")))
        .collect();
    assert!(
        actual == expected,
        "rewriting text or canonical keys differ from the recorded parent; actual:\n{}",
        actual.join("\n")
    );
}
