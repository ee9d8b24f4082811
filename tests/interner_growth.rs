//! The symbol table is append-only and process-global, so whatever a
//! compile interns stays for the life of a `nyaya serve` process. Compiling
//! a query may intern its own names once; it must not mint names per
//! compile (the renamed-apart `_V{n}` copies of every TGD did: one cold
//! P5-q5 compile left 193 622 of them behind).
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

    // Never-seen point queries, the `lubm_serve` request mix, through the
    // NY⋆ compile: each may intern its constant and nothing else. (Not
    // through `answer_text`: when `Strategy::Auto` tries the program target
    // for a query, that compile still mints two `_def{n}` predicate names —
    // `presto.rs`, an open item.)
    let kb = KnowledgeBase::builder()
        .ontology(load(BenchmarkId::U).raw)
        .build()
        .unwrap();
    let compile = |text: &str| {
        let prepared = kb.prepare_text(text).unwrap();
        kb.rewriting(&prepared).unwrap().ucq.size()
    };
    let size = compile("q(S) :- Student(S), advisor(S, fac_warm_up).");
    for i in 0..100 {
        let text = format!("q(S) :- Student(S), advisor(S, fac{i}).");
        let before = symbols::len();
        assert_eq!(compile(&text), size);
        let names: Vec<String> = (before..symbols::len())
            .map(|i| symbols::Symbol::from_index(i as u32).name())
            .collect();
        assert!(names.len() <= 1, "{text} interned {names:?}");
    }
}
