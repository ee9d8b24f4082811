//! Quantify the UCQ-vs-program trade-off of Section 2: for every benchmark
//! query, the size of the perfect UCQ rewriting (DNF) next to the size of
//! the equivalent non-recursive Datalog program (Sections 2/8), under both
//! NY and NY⋆.
//!
//! ```text
//! cargo run --release -p nyaya-bench --bin programs [-- --ontology V[,S,…]]
//! ```

use nyaya_bench::benchmarks_from_args;
use nyaya_ontologies::Benchmark;
use nyaya_rewrite::{nr_datalog_rewrite, tgd_rewrite, ProgramStrategy, RewriteOptions};

fn options(bench: &Benchmark, star: bool) -> RewriteOptions {
    let mut opts = if star {
        RewriteOptions::nyaya_star()
    } else {
        RewriteOptions::nyaya()
    };
    opts.hidden_predicates = bench.hidden_predicates.clone();
    opts
}

fn main() {
    let benches = benchmarks_from_args();

    println!(
        "{:<4} {:<4} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} | {:>8}",
        "Ont", "Q", "UCQ", "UCQ", "prog", "UCQ*", "UCQ*", "prog*", "clusters"
    );
    println!(
        "{:<4} {:<4} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} |",
        "", "", "CQs", "atoms", "atoms", "CQs", "atoms", "atoms"
    );
    println!("{}", "-".repeat(92));
    for bench in &benches {
        // The largest AX rewritings exceed the 15-minute spirit of the
        // paper's "-" cells; keep the harness snappy.
        let budget = 200_000;
        for (name, q) in &bench.queries {
            let mut cells: Vec<String> = Vec::new();
            let mut clusters_label = String::new();
            for star in [false, true] {
                let mut opts = options(bench, star);
                opts.max_queries = budget;
                let rewriting = tgd_rewrite(q, &bench.normalized, &[], &opts)
                    .expect("benchmark TGDs are normalized");
                let out = nr_datalog_rewrite(q, &bench.normalized, &[], &opts)
                    .expect("benchmark TGDs are normalized");
                if rewriting.stats.budget_exhausted || out.stats.budget_exhausted {
                    cells.extend(["-".into(), "-".into(), "-".into()]);
                    continue;
                }
                cells.push(rewriting.ucq.size().to_string());
                cells.push(rewriting.ucq.length().to_string());
                cells.push(out.program.total_atoms().to_string());
                clusters_label = match out.strategy {
                    ProgramStrategy::Clustered { clusters } => clusters.to_string(),
                    ProgramStrategy::Monolithic => "mono".to_owned(),
                };
            }
            println!(
                "{:<4} {:<4} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} | {:>8}",
                bench.id.to_string(),
                name,
                cells[0],
                cells[1],
                cells[2],
                cells[3],
                cells[4],
                cells[5],
                clusters_label
            );
        }
    }
}
