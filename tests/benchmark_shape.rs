//! Regression tests pinning the reproduced Table 1 cells.
//!
//! The V and P5 NY columns and the S/U NY⋆ columns match the paper's
//! Table 1 *exactly* (`bench/expected.json` pins the same NY⋆ cells for
//! the end-to-end benchmark); these tests keep it that way. The
//! heaviest cells (P5 q4/q5, S NY q3–q5) are exercised by the release-mode
//! harness (`cargo run --release -p nyaya-bench --bin table1`) instead of
//! debug-mode `cargo test`.

use nyaya::ontologies::{load, Benchmark, BenchmarkId};
use nyaya::{Algorithm, KnowledgeBase};

/// Build a knowledge base over a benchmark. X-variants keep the auxiliary
/// predicates in the schema — expressed as `show_aux` on the builder.
fn kb_for(bench: &Benchmark) -> KnowledgeBase {
    KnowledgeBase::builder()
        .ontology(bench.raw.clone())
        .show_aux(bench.hidden_predicates.is_empty())
        .build()
        .expect("benchmark builds")
}

fn metrics(
    kb: &KnowledgeBase,
    bench: &Benchmark,
    qi: usize,
    algorithm: Algorithm,
) -> (usize, usize, usize) {
    let prepared = kb.prepare_with(&bench.queries[qi].1, algorithm).unwrap();
    let r = kb.rewriting(&prepared).unwrap();
    (r.ucq.size(), r.ucq.length(), r.ucq.width())
}

fn ny_metrics(id: BenchmarkId, qi: usize, star: bool) -> (usize, usize, usize) {
    let bench = load(id);
    let kb = kb_for(&bench);
    let algorithm = if star {
        Algorithm::NyayaStar
    } else {
        Algorithm::Nyaya
    };
    metrics(&kb, &bench, qi, algorithm)
}

#[test]
fn vicodi_ny_matches_table1_exactly() {
    // Table 1, V rows, NY column: size / length / width.
    let expected = [
        (15, 15, 0),
        (10, 30, 30),
        (72, 216, 144),
        (185, 555, 370),
        (30, 210, 270),
    ];
    for (qi, want) in expected.iter().enumerate() {
        let got = ny_metrics(BenchmarkId::V, qi, false);
        assert_eq!(got, *want, "V q{} NY", qi + 1);
        // V has no existential axioms ⇒ elimination is a no-op (NY = NY⋆).
        let star = ny_metrics(BenchmarkId::V, qi, true);
        assert_eq!(star, *want, "V q{} NY⋆", qi + 1);
    }
}

#[test]
fn path5_ny_matches_table1_exactly() {
    // Table 1, P5 rows, NY column (q1–q3 here; q4/q5 in the release
    // harness — they explore the full P5X space).
    let expected = [(6, 6, 0), (10, 16, 6), (13, 29, 16)];
    for (qi, want) in expected.iter().enumerate() {
        let got = ny_metrics(BenchmarkId::P5, qi, false);
        assert_eq!(got, *want, "P5 q{} NY", qi + 1);
        // Elimination finds nothing to remove in P5 chains.
        let star = ny_metrics(BenchmarkId::P5, qi, true);
        assert_eq!(star, *want, "P5 q{} NY⋆", qi + 1);
    }
}

#[test]
fn stockexchange_ny_star_matches_table1_exactly() {
    // Table 1, S rows, NY⋆ column: the headline optimization result —
    // q2–q5 reduce to pure role joins.
    let expected = [(6, 6, 0), (2, 2, 0), (4, 8, 4), (4, 8, 4), (8, 24, 16)];
    for (qi, want) in expected.iter().enumerate() {
        let got = ny_metrics(BenchmarkId::S, qi, true);
        assert_eq!(got, *want, "S q{} NY⋆", qi + 1);
    }
}

#[test]
fn university_ny_star_matches_table1_exactly() {
    // Table 1, U rows, NY⋆ column.
    let expected = [(2, 4, 2), (1, 1, 0), (4, 16, 20), (2, 2, 0), (10, 20, 20)];
    for (qi, want) in expected.iter().enumerate() {
        let got = ny_metrics(BenchmarkId::U, qi, true);
        assert_eq!(got, *want, "U q{} NY⋆", qi + 1);
    }
}

#[test]
fn elimination_never_grows_a_rewriting() {
    // NY⋆ ≤ NY on every cheap cell of the suite.
    let cells = [
        (BenchmarkId::V, 1),
        (BenchmarkId::S, 1),
        (BenchmarkId::U, 1),
        (BenchmarkId::U, 3),
        (BenchmarkId::A, 2),
        (BenchmarkId::P5, 1),
    ];
    for (id, qi) in cells {
        let plain = ny_metrics(id, qi, false);
        let star = ny_metrics(id, qi, true);
        assert!(
            star.0 <= plain.0,
            "{id} q{}: NY⋆ {} > NY {}",
            qi + 1,
            star.0,
            plain.0
        );
    }
}

#[test]
fn quonto_never_beats_ny() {
    // The exhaustive included factorization can only add queries.
    let cells = [
        (BenchmarkId::V, 4),
        (BenchmarkId::U, 1),
        (BenchmarkId::P5, 1),
    ];
    for (id, qi) in cells {
        let bench = load(id);
        let kb = kb_for(&bench);
        let qo = metrics(&kb, &bench, qi, Algorithm::QuOnto);
        let ny = metrics(&kb, &bench, qi, Algorithm::Nyaya);
        assert!(qo.0 >= ny.0, "{id} q{}: QO {} < NY {}", qi + 1, qo.0, ny.0);
    }
    // V q5 is the paper's sharpest QO-vs-NY gap in V: 150 vs 30 (5×).
    let bench = load(BenchmarkId::V);
    let kb = kb_for(&bench);
    let qo = metrics(&kb, &bench, 4, Algorithm::QuOnto);
    assert_eq!(qo, (150, 900, 1110));
}

#[test]
fn x_variants_are_never_smaller() {
    // UX/AX/P5X count queries over auxiliary predicates too.
    for (base, x) in [
        (BenchmarkId::U, BenchmarkId::UX),
        (BenchmarkId::A, BenchmarkId::AX),
        (BenchmarkId::P5, BenchmarkId::P5X),
    ] {
        let b = ny_metrics(base, 0, false);
        let bx = ny_metrics(x, 0, false);
        assert!(bx.0 >= b.0, "{x} q1 {} < {base} q1 {}", bx.0, b.0);
    }
}
