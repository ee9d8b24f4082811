//! # nyaya-bench
//!
//! Harness reproducing the paper's evaluation: the Table 1 comparison
//! (size / length / width of the perfect rewriting for QO, RQ, NY, NY⋆)
//! and wall-clock timing series. Performance of the system as a whole is
//! measured by `bench/` (see `BENCHMARK.json`), not here.

use std::time::{Duration, Instant};

use nyaya_core::UnionQuery;
use nyaya_ontologies::{load, load_all, Benchmark, BenchmarkId};
use nyaya_rewrite::{quonto_rewrite, requiem_rewrite, tgd_rewrite, RewriteOptions};

/// The suites a harness bin should measure, from its command line: all
/// eight without arguments, or the comma-separated `--ontology` list.
/// Anything else prints the usage line and exits 2.
pub fn benchmarks_from_args() -> Vec<Benchmark> {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    let args: Vec<String> = args.collect();
    match args.as_slice() {
        [] => load_all(),
        [flag, list] if flag == "--ontology" => list
            .split(',')
            .map(|s| {
                let id = BenchmarkId::parse(s)
                    .unwrap_or_else(|| panic!("unknown ontology `{s}` (try V,S,U,A,P5,UX,AX,P5X)"));
                load(id)
            })
            .collect(),
        _ => {
            let bin = std::path::Path::new(&bin)
                .file_stem()
                .map_or("nyaya-bench".into(), |s| s.to_string_lossy());
            eprintln!("usage: {bin} [--ontology V,S,U,A,P5,UX,AX,P5X]");
            std::process::exit(2);
        }
    }
}

/// Budget for a single rewriting run in the harness. Cells whose
/// exploration exceeds it are reported as truncated lower bounds (`>n`) —
/// the analogue of the paper's "-" entries for QuOnto/Requiem timeouts on
/// AX-q5.
pub const MAX_QUERIES: usize = 120_000;

/// The four rewriting configurations of Table 1.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Algorithm {
    /// QuOnto-style: atom-at-a-time + exhaustive included factorization.
    Qo,
    /// Requiem-style: Skolem resolution, function-free output.
    Rq,
    /// Nyaya: TGD-rewrite (Algorithm 1).
    Ny,
    /// Nyaya⋆: TGD-rewrite with query elimination (Section 6).
    NyStar,
}

impl Algorithm {
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Qo,
        Algorithm::Rq,
        Algorithm::Ny,
        Algorithm::NyStar,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Qo => "QO",
            Algorithm::Rq => "RQ",
            Algorithm::Ny => "NY",
            Algorithm::NyStar => "NY*",
        }
    }
}

/// Size/length/width of one rewriting plus its wall-clock time.
#[derive(Clone, Debug)]
pub struct Measurement {
    pub algorithm: Algorithm,
    pub size: usize,
    pub length: usize,
    pub width: usize,
    pub elapsed: Duration,
    /// True if the run hit its budget; metrics are then lower bounds.
    pub truncated: bool,
}

/// Run one algorithm on one benchmark query.
pub fn run_algorithm(bench: &Benchmark, query_idx: usize, algorithm: Algorithm) -> Measurement {
    let (_, query) = &bench.queries[query_idx];
    let start = Instant::now();
    let mut opts = match algorithm {
        Algorithm::NyStar => RewriteOptions::nyaya_star(),
        _ => RewriteOptions::nyaya(),
    };
    opts.max_queries = MAX_QUERIES;
    opts.hidden_predicates = bench.hidden_predicates.clone();
    let r = match algorithm {
        Algorithm::Qo => quonto_rewrite(query, &bench.normalized, &opts),
        Algorithm::Rq => requiem_rewrite(query, &bench.normalized, &opts),
        Algorithm::Ny | Algorithm::NyStar => tgd_rewrite(query, &bench.normalized, &[], &opts),
    }
    .expect("benchmark TGDs are normalized");
    let (ucq, truncated): (UnionQuery, bool) = (r.ucq, r.stats.budget_exhausted);
    Measurement {
        algorithm,
        size: ucq.size(),
        length: ucq.length(),
        width: ucq.width(),
        elapsed: start.elapsed(),
        truncated,
    }
}

/// One Table 1 row: a benchmark query measured under all four algorithms.
pub struct Row {
    pub ontology: String,
    pub query: String,
    pub measurements: Vec<Measurement>,
}

/// Measure every query of a benchmark under all four algorithms.
pub fn measure_benchmark(bench: &Benchmark) -> Vec<Row> {
    (0..bench.queries.len())
        .map(|qi| Row {
            ontology: bench.id.to_string(),
            query: bench.queries[qi].0.clone(),
            measurements: Algorithm::ALL
                .into_iter()
                .map(|alg| run_algorithm(bench, qi, alg))
                .collect(),
        })
        .collect()
}

/// Render rows in the Table 1 layout (three metric groups × four systems).
pub fn format_table(rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<4} {:<3} | {:>8} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} {:>8}",
        "Ont", "Q", "QO", "RQ", "NY", "NY*", "QO", "RQ", "NY", "NY*", "QO", "RQ", "NY", "NY*"
    );
    let _ = writeln!(
        out,
        "{:<8} | {:>35}   Size | {:>35} Length | {:>35}  Width",
        "", "", "", ""
    );
    let _ = writeln!(out, "{}", "-".repeat(130));
    for row in rows {
        let m = &row.measurements;
        let cell = |meas: &Measurement, f: fn(&Measurement) -> usize| -> String {
            if meas.truncated {
                format!(">{}", f(meas))
            } else {
                f(meas).to_string()
            }
        };
        let _ = writeln!(
            out,
            "{:<4} {:<3} | {:>8} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} {:>8}",
            row.ontology,
            row.query,
            cell(&m[0], |x| x.size),
            cell(&m[1], |x| x.size),
            cell(&m[2], |x| x.size),
            cell(&m[3], |x| x.size),
            cell(&m[0], |x| x.length),
            cell(&m[1], |x| x.length),
            cell(&m[2], |x| x.length),
            cell(&m[3], |x| x.length),
            cell(&m[0], |x| x.width),
            cell(&m[1], |x| x.width),
            cell(&m[2], |x| x.width),
            cell(&m[3], |x| x.width),
        );
    }
    out
}

/// Render per-row timings (the conference version's timing figure).
pub fn format_timings(rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<4} {:<3} | {:>12} {:>12} {:>12} {:>12}   (rewriting wall-clock, ms)",
        "Ont", "Q", "QO", "RQ", "NY", "NY*"
    );
    let _ = writeln!(out, "{}", "-".repeat(70));
    for row in rows {
        let ms = |m: &Measurement| format!("{:.2}", m.elapsed.as_secs_f64() * 1e3);
        let m = &row.measurements;
        let _ = writeln!(
            out,
            "{:<4} {:<3} | {:>12} {:>12} {:>12} {:>12}",
            row.ontology,
            row.query,
            ms(&m[0]),
            ms(&m[1]),
            ms(&m[2]),
            ms(&m[3]),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_row(truncated: bool) -> Row {
        Row {
            ontology: "V".to_owned(),
            query: "q1".to_owned(),
            measurements: Algorithm::ALL
                .into_iter()
                .enumerate()
                .map(|(i, algorithm)| Measurement {
                    algorithm,
                    size: 10 + i,
                    length: 20 + i,
                    width: 5 + i,
                    elapsed: Duration::from_millis(3),
                    truncated: truncated && algorithm == Algorithm::Rq,
                })
                .collect(),
        }
    }

    #[test]
    fn table_layout_contains_all_metric_groups() {
        let text = format_table(&[fake_row(false)]);
        assert!(text.contains("Size"));
        assert!(text.contains("Length"));
        assert!(text.contains("Width"));
        assert!(text.contains("V    q1"), "{text}");
        assert!(text.contains("10"), "{text}");
    }

    #[test]
    fn truncated_cells_are_marked() {
        let text = format_table(&[fake_row(true)]);
        assert!(text.contains(">11"), "{text}");
    }

    #[test]
    fn timings_layout_reports_milliseconds() {
        let text = format_timings(&[fake_row(false)]);
        assert!(text.contains("3.00"), "{text}");
        assert!(text.contains("wall-clock"), "{text}");
    }

    #[test]
    fn algorithm_labels_are_stable() {
        let labels: Vec<&str> = Algorithm::ALL.iter().map(|a| a.label()).collect();
        assert_eq!(labels, vec!["QO", "RQ", "NY", "NY*"]);
    }
}
