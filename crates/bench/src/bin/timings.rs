//! Regenerate the rewriting-time series (the conference version's timing
//! figure): wall-clock per ontology × query × algorithm.
//!
//! ```text
//! cargo run --release -p nyaya-bench --bin timings [-- --ontology V,S,…]
//! ```

use nyaya_bench::{benchmarks_from_args, format_timings, measure_benchmark};

fn main() {
    let benches = benchmarks_from_args();
    let mut rows = Vec::new();
    for bench in &benches {
        eprintln!("timing {} …", bench.id);
        rows.extend(measure_benchmark(bench));
    }
    println!("{}", format_timings(&rows));
}
