//! The SQL text the facade hands an external DBMS is pinned: `kb.sql()`
//! for q1 and q2 of V, S, U, A and P5, under [`Strategy::Ucq`] (the flat
//! `UNION`) and [`Strategy::Program`] (one `WITH`-CTE per intensional
//! predicate), as its length and an FNV-1a hash of its bytes.
//!
//! The text depends on interner indices (disjunct order follows them, and
//! a program's CTE names are fresh symbols), so this file holds exactly
//! one test, and every knowledge base is built before the first compile.
//! `sql_golden.txt` was recorded with this same source against the
//! executor that still had a SQL-text backend, so it also pins that
//! rendering `target()` directly emits the same bytes.

use nyaya::ontologies::{load, Benchmark, BenchmarkId};
use nyaya::sql::Catalog;
use nyaya::{KnowledgeBase, Strategy};

const GOLDEN: &str = include_str!("sql_golden.txt");

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        hash = (hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A data-free knowledge base over `bench`'s Σ whose catalog also holds
/// the tables its queries read that no TGD mentions.
fn kb(bench: &Benchmark, strategy: Strategy) -> KnowledgeBase {
    let mut catalog = Catalog::new();
    catalog.register_defaults(
        bench
            .queries
            .iter()
            .flat_map(|(_, q)| q.body.iter().map(|a| a.pred)),
    );
    KnowledgeBase::builder()
        .ontology(bench.raw.clone())
        .catalog(catalog)
        .strategy(strategy)
        .build()
        .expect("suite knowledge base builds")
}

#[test]
fn sql_text_is_identical_to_the_recorded_parent() {
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
    let strategies = [("ucq", Strategy::Ucq), ("program", Strategy::Program)];
    let kbs: Vec<(&Benchmark, &str, KnowledgeBase)> = suites
        .iter()
        .flat_map(|bench| {
            strategies
                .iter()
                .map(move |&(label, strategy)| (bench, label, kb(bench, strategy)))
        })
        .collect();

    let mut actual = Vec::new();
    for (bench, label, kb) in &kbs {
        for (q, query) in bench.queries.iter().take(2) {
            let prepared = kb.prepare(query).expect("suite query prepares");
            let sql = kb.sql(&prepared).expect("catalog covers the rewriting");
            actual.push(format!(
                "{}-{q} {label} {} {:016x}",
                bench.id,
                sql.len(),
                fnv1a(sql.as_bytes())
            ));
        }
    }

    let expected: Vec<&str> = GOLDEN.lines().filter(|l| !l.is_empty()).collect();
    assert!(
        actual == expected,
        "SQL text differs from the recorded parent; actual:\n{}",
        actual.join("\n")
    );
}
