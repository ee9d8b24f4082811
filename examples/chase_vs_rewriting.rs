//! Materialization vs. rewriting (the trade-off behind Section 1's
//! FO-rewritability story): the chase pays per-database and grows with the
//! data; the rewriting is compiled once per query — and with the knowledge
//! base's prepared-query cache, *exactly* once — then evaluates on the raw
//! tables.
//!
//! ```text
//! cargo run --release --example chase_vs_rewriting
//! ```

use std::time::Instant;

use nyaya::chase::ChaseConfig;
use nyaya::ontologies::{generate_abox, load, AboxConfig, BenchmarkId};
use nyaya::prelude::*;

fn main() {
    let bench = load(BenchmarkId::U);
    let (_, query) = &bench.queries[3]; // q4: Person, worksFor, Organization

    println!(
        "{:>8} {:>14} {:>14} {:>12} {:>12} {:>10}",
        "facts", "chase atoms", "chase time", "1st exec", "2nd exec", "answers"
    );
    for facts in [250usize, 1_000, 4_000] {
        let abox = generate_abox(
            &bench,
            &AboxConfig {
                individuals: facts / 5,
                facts,
                seed: 99,
            },
        );
        let kb = KnowledgeBase::builder()
            .ontology(bench.raw.clone())
            .facts(abox)
            .chase_config(ChaseConfig {
                max_rounds: 16,
                max_atoms: 5_000_000,
            })
            .build()
            .expect("U builds");
        let prepared = kb.prepare(query).expect("q4 prepares");

        // Materialization: chase the whole database.
        let t1 = Instant::now();
        let out = kb.materialize();
        let chase_time = t1.elapsed();
        assert!(out.saturated);

        // Rewriting: the first execution compiles the UCQ (cache miss)…
        let t2 = Instant::now();
        let answers = kb.execute(&prepared).expect("executes");
        let first_exec = t2.elapsed();
        // …the second is pure database work (cache hit).
        let t3 = Instant::now();
        let again = kb.execute(&prepared).expect("executes again");
        let second_exec = t3.elapsed();
        assert_eq!(answers.tuples, again.tuples);
        assert_eq!(kb.stats().cache_misses, 1);
        assert_eq!(kb.stats().cache_hits, 1);

        // Both strategies agree (Theorem 10).
        let oracle = kb
            .execute_on(&prepared, ExecutorKind::Chase)
            .expect("chase backend");
        assert!(oracle.complete);
        assert_eq!(answers.tuples, oracle.tuples);

        println!(
            "{:>8} {:>14} {:>14.2?} {:>12.2?} {:>12.2?} {:>10}",
            facts,
            out.instance.len(),
            chase_time,
            first_exec,
            second_exec,
            answers.tuples.len()
        );
    }
    println!("\nthe chase re-pays reasoning on every database; the prepared query never does");
}
