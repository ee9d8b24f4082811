//! The symbol table is append-only and process-global, so whatever a
//! compile interns stays for the life of a `nyaya serve` process. Compiling
//! a query may intern its own names once; it must not mint names per
//! compile (the renamed-apart `_V{n}` copies of every TGD did: one cold
//! P5-q5 compile left 193 622 of them behind), nor per point query (a
//! program compile mints `_def{n}` predicate names, so a point query must
//! reuse its template's compile rather than compile again).
//!
//! One test only: [`symbols::len`] is global, and a second test running on
//! another thread would intern into the same table.

use nyaya::core::symbols;
use nyaya::ontologies::{load, BenchmarkId};
use nyaya::{Algorithm, KnowledgeBase};

#[test]
fn compiling_does_not_grow_the_interner_per_compile() {
    // The same compile on two fresh knowledge bases: the first may intern
    // the canonical and the reserved variable names, the second finds them.
    let p5 = load(BenchmarkId::P5);
    let (_, q4) = &p5.queries[3];
    let mut interned = Vec::new();
    let mut sizes = Vec::new();
    for _ in 0..2 {
        let kb = KnowledgeBase::builder()
            .ontology(p5.raw.clone())
            .build()
            .unwrap();
        for algorithm in [Algorithm::NyayaStar, Algorithm::Nyaya, Algorithm::QuOnto] {
            let prepared = kb.prepare_with(q4, algorithm).unwrap();
            let before = symbols::len();
            sizes.push(kb.rewriting(&prepared).unwrap().ucq.size());
            interned.push(symbols::len() - before);
        }
    }
    assert_eq!(sizes[..3], sizes[3..], "same rewritings both times");
    assert_eq!(sizes[0], 15, "P5-q4 under NY⋆ (Table 1)");
    assert_eq!(
        interned[3..],
        [0, 0, 0],
        "second compile of P5-q4 (NY⋆, NY, QuOnto) interned new symbols; first: {:?}",
        &interned[..3]
    );

    // Never-seen point queries, the `lubm_serve` request mix, answered
    // under `Strategy::Auto`: each may intern its constant and nothing
    // else. The ontology never mentions those constants, so each shape
    // compiles once, for its template, on its first query — with the
    // program attempt and the `_def{n}` names that mints — and later
    // queries only bind their constant: no rewriting explored, no new
    // cache entry.
    let kb = KnowledgeBase::builder()
        .ontology(load(BenchmarkId::U).raw)
        .build()
        .unwrap();
    let shapes = [
        "q(C) :- takesCourse(gr{i}, C), Course(C).",
        "q(S) :- Student(S), advisor(S, fac{i}).",
        "q(P, C) :- worksFor(P, dept{i}), teacherOf(P, C), Professor(P).",
    ];
    let text = |shape: &str, i: &str| shape.replace("{i}", i);
    for shape in shapes {
        kb.answer_text(&text(shape, "_warm_up")).unwrap();
    }
    let warm = kb.stats();
    for i in 0..100 {
        for shape in shapes {
            let text = text(shape, &i.to_string());
            let before = symbols::len();
            kb.answer_text(&text).unwrap();
            let names: Vec<String> = (before..symbols::len())
                .map(|i| symbols::Symbol::from_index(i as u32).name())
                .collect();
            assert!(names.len() <= 1, "{text} interned {names:?}");
        }
    }
    let stats = kb.stats();
    assert_eq!(stats.rewrite_explored, warm.rewrite_explored, "{stats:?}");
    assert_eq!(stats.cache_misses, warm.cache_misses, "{stats:?}");
    assert_eq!(stats.program_compiles, warm.program_compiles, "{stats:?}");
    assert_eq!(stats.cached_rewritings, warm.cached_rewritings, "{stats:?}");
    assert_eq!(stats.template_binds, warm.template_binds + 300, "{stats:?}");
}
