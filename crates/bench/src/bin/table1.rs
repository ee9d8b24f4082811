//! Regenerate Table 1: size / length / width of the perfect rewriting for
//! QO, RQ, NY and NY⋆ over the benchmark suite.
//!
//! ```text
//! cargo run --release -p nyaya-bench --bin table1 [-- --ontology V[,S,…]]
//! ```

use nyaya_bench::{benchmarks_from_args, format_table, measure_benchmark};

fn main() {
    let benches = benchmarks_from_args();
    let mut rows = Vec::new();
    for bench in &benches {
        eprintln!("measuring {} …", bench.id);
        rows.extend(measure_benchmark(bench));
    }
    println!("{}", format_table(&rows));
}
