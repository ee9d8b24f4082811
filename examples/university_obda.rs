//! Ontology-based data access over the LUBM-like U ontology: rewrite the
//! Table 2 queries with all four algorithms through one knowledge base,
//! then answer one of them over a synthetic ABox and cross-check the
//! in-memory backend against the chase backend.
//!
//! ```text
//! cargo run --release --example university_obda
//! ```

use nyaya::chase::ChaseConfig;
use nyaya::ontologies::{generate_abox, load, AboxConfig, BenchmarkId};
use nyaya::prelude::*;

fn main() {
    let bench = load(BenchmarkId::U);
    let kb = KnowledgeBase::builder()
        .ontology(bench.raw.clone())
        .facts(generate_abox(
            &bench,
            &AboxConfig {
                individuals: 60,
                facts: 400,
                seed: 7,
            },
        ))
        .max_queries(200_000)
        .chase_config(ChaseConfig {
            max_rounds: 12,
            max_atoms: 2_000_000,
        })
        .build()
        .expect("U builds");
    println!(
        "U: {} axioms → {} normalized TGDs ({} auxiliary predicates)\n",
        kb.ontology().tgds.len(),
        kb.normalized_tgds().len(),
        kb.aux_predicates().len()
    );

    println!(
        "{:<4} {:>10} {:>10} {:>10} {:>10}   (rewriting size)",
        "", "QO", "RQ", "NY", "NY*"
    );
    for (name, query) in &bench.queries {
        let sizes: Vec<usize> = [
            Algorithm::QuOnto,
            Algorithm::Requiem,
            Algorithm::Nyaya,
            Algorithm::NyayaStar,
        ]
        .into_iter()
        .map(|alg| {
            let prepared = kb.prepare_with(query, alg).expect("prepares");
            kb.rewriting(&prepared).expect("compiles").ucq.size()
        })
        .collect();
        println!(
            "{:<4} {:>10} {:>10} {:>10} {:>10}",
            name, sizes[0], sizes[1], sizes[2], sizes[3]
        );
    }

    // End-to-end OBDA on q4: q(A,B) ← Person(A), worksFor(A,B),
    // Organization(B). TGD-rewrite* compiles it down to worksFor ∪ headOf.
    let (_, q4) = &bench.queries[3];
    let prepared = kb.prepare_with(q4, Algorithm::NyayaStar).expect("q4");
    println!("\nq4 rewriting:\n{}", kb.rewriting(&prepared).unwrap().ucq);

    let fast = kb.execute(&prepared).expect("in-memory execution");
    // Oracle: certain answers via the chase backend over the same data.
    let oracle = kb
        .execute_on(&prepared, ExecutorKind::Chase)
        .expect("chase execution");
    assert!(oracle.complete, "U chase terminates on this ABox");
    assert_eq!(
        fast.tuples, oracle.tuples,
        "rewriting and chase must agree (Theorem 10)"
    );
    println!(
        "q4 over {}-fact ABox: {} answers — rewriting agrees with the chase ✓",
        kb.snapshot().len(),
        fast.tuples.len()
    );

    // Every (query, algorithm) pair above was compiled exactly once.
    let stats = kb.stats();
    println!(
        "\ncompiled {} rewritings for {} prepares ({} cache hits)",
        stats.cache_misses, stats.prepared, stats.cache_hits
    );
    assert_eq!(stats.cached_rewritings as u64, stats.cache_misses);
}
