//! Program-target benchmark: the non-recursive Datalog pipeline (PR 5)
//! against the flat-UCQ pipeline on the blowup cells of the Section 7
//! suite — rewriting size, rewriting wall-clock and end-to-end (rewrite +
//! execute) wall-clock, with answer-equality self-checks.
//!
//! Cells:
//!
//! - **U-q5** (NY, no elimination): the 2000+-CQ DNF whose body splits
//!   into interaction clusters — the program is the *sum* of the cluster
//!   rewritings and the worklist never explores the product. The cell
//!   also verifies that a default `KnowledgeBase` auto-selects
//!   `Strategy::Program` here.
//! - **P5X depth sweep** (NY⋆): monolithic chain queries where the
//!   optimizer's common-body factoring re-hides the product structure
//!   (q4's 9 848-atom DNF compresses ~30x). The q2/q3 cells also verify
//!   that `Strategy::Auto` serves these single-cluster bodies from the
//!   flat UCQ — the compile that used to lose to the flat path here is
//!   never paid.
//! - **fuzz** cells: seeded random linear ontologies with decomposable
//!   queries, as a drift guard off the curated suites.
//!
//! Emits `BENCH_pr5.json`; `--check BASELINE.json` gates CI on the
//! machine-invariant ratios (size ratio, rewrite/end-to-end speedup),
//! failing if a cell lost more than half its baseline advantage (cells
//! whose baseline slow side is under 100 ms are informational).
//! Independent of any baseline, the run fails unless at least one
//! ≥ 100 ms cell beats the flat-UCQ path ≥ 2x in *both* rewriting size
//! and end-to-end wall clock. Every self-check failure exits 2 — a fast
//! wrong answer is not a win.
//!
//! ```text
//! program_bench [--out PATH] [--check BASELINE.json] [--quick]
//! ```

use std::time::Instant;

use nyaya::{KnowledgeBase, Strategy};
use nyaya_bench::{json_number, RatioGate};
use nyaya_ontologies::rng::Prng;
use nyaya_ontologies::{
    generate_abox, load, random_cq, random_database, random_linear_tgds, AboxConfig, Benchmark,
    BenchmarkId, FuzzConfig,
};
use nyaya_rewrite::{nr_datalog_rewrite, tgd_rewrite, ProgramStrategy, RewriteOptions};
use nyaya_sql::{execute_program_shared, execute_ucq_intra, BuildCache, Database};

const BUDGET: usize = 200_000;

struct SuiteCell {
    suite: BenchmarkId,
    query_idx: usize,
    star: bool,
    /// Verify a default KnowledgeBase's `Strategy::Auto` picks exactly
    /// this backend (`"program"` or `"in-memory"`) for the cell's query.
    expect_auto: Option<&'static str>,
    /// Included in `--quick` (CI smoke) runs.
    quick: bool,
}

fn suite_cells() -> Vec<SuiteCell> {
    use BenchmarkId::*;
    let c = |suite, query_idx, star, expect_auto, quick| SuiteCell {
        suite,
        query_idx,
        star,
        expect_auto,
        quick,
    };
    vec![
        // U-q5: the clustered blowup cell — Auto must pay the compile.
        c(U, 4, false, Some("program"), true),
        // S-q5: clustered, mid-size.
        c(S, 4, false, None, true),
        // P5X depth sweep: monolithic chains. Auto must *not* compile a
        // program here — single-cluster bodies fall back to the flat UCQ
        // (the ROADMAP P5X-q3/q4 regression: compile time lost to the
        // flat path, so selecting "program" again is itself a failure).
        c(P5X, 1, true, Some("in-memory"), true),
        c(P5X, 2, true, Some("in-memory"), true),
        c(P5X, 3, true, None, false), // q4: full mode only (seconds)
    ]
}

struct CellResult {
    name: String,
    ucq_cqs: usize,
    ucq_atoms: usize,
    ucq_rewrite_ms: f64,
    ucq_exec_ms: f64,
    prog_rules: usize,
    prog_atoms: usize,
    prog_strata: usize,
    prog_rewrite_ms: f64,
    prog_exec_ms: f64,
    answers: usize,
    size_ratio: f64,
    rewrite_speedup: f64,
    exec_speedup: f64,
    end_to_end_speedup: f64,
    auto_backend: Option<String>,
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn options(
    star: bool,
    hidden: &std::collections::HashSet<nyaya_core::Predicate>,
) -> RewriteOptions {
    let mut opts = if star {
        RewriteOptions::nyaya_star()
    } else {
        RewriteOptions::nyaya()
    };
    opts.max_queries = BUDGET;
    opts.hidden_predicates = hidden.clone();
    opts
}

/// Compare both pipelines on one (ontology, query, database) triple.
#[allow(clippy::too_many_arguments)]
fn measure(
    name: String,
    tgds: &[nyaya_core::Tgd],
    hidden: &std::collections::HashSet<nyaya_core::Predicate>,
    q: &nyaya_core::ConjunctiveQuery,
    star: bool,
    db: &Database,
    auto_backend: Option<String>,
) -> CellResult {
    let opts = options(star, hidden);

    let start = Instant::now();
    let ucq = tgd_rewrite(q, tgds, &[], &opts).expect("cell TGDs are normalized");
    let ucq_rewrite_ms = ms(start);
    let start = Instant::now();
    let (ucq_answers, _) = execute_ucq_intra(db, &ucq.ucq, 1, 1, &BuildCache::new(), 1.0);
    let ucq_exec_ms = ms(start);

    let start = Instant::now();
    let pr = nr_datalog_rewrite(q, tgds, &[], &opts).expect("cell TGDs are normalized");
    let prog_rewrite_ms = ms(start);
    if ucq.stats.budget_exhausted || pr.stats.budget_exhausted {
        eprintln!("FATAL: {name} exhausted its rewriting budget");
        std::process::exit(2);
    }
    let start = Instant::now();
    let (prog_answers, _) = execute_program_shared(db, &pr.program, 1, &BuildCache::new())
        .unwrap_or_else(|e| {
            eprintln!("FATAL: {name}: program evaluation failed: {e}");
            std::process::exit(2);
        });
    let prog_exec_ms = ms(start);

    // Self-check: the two compiled forms must answer identically.
    if ucq_answers != prog_answers {
        eprintln!(
            "FATAL: {name}: program answers ({}) differ from UCQ answers ({})",
            prog_answers.len(),
            ucq_answers.len()
        );
        std::process::exit(2);
    }

    let ucq_atoms = ucq.ucq.length();
    let prog_atoms = pr.program.total_atoms().max(1);
    CellResult {
        name,
        ucq_cqs: ucq.ucq.size(),
        ucq_atoms,
        ucq_rewrite_ms,
        ucq_exec_ms,
        prog_rules: pr.program.num_rules(),
        prog_atoms: pr.program.total_atoms(),
        prog_strata: pr.stats.program_strata,
        prog_rewrite_ms,
        prog_exec_ms,
        answers: prog_answers.len(),
        size_ratio: ucq_atoms as f64 / prog_atoms as f64,
        rewrite_speedup: ucq_rewrite_ms / prog_rewrite_ms.max(1e-9),
        exec_speedup: ucq_exec_ms / prog_exec_ms.max(1e-9),
        end_to_end_speedup: (ucq_rewrite_ms + ucq_exec_ms)
            / (prog_rewrite_ms + prog_exec_ms).max(1e-9),
        auto_backend,
    }
}

/// Does a default-threshold KnowledgeBase route this benchmark query to
/// the `expected` backend — and answer exactly like the forced flat UCQ?
/// Returns the backend Auto actually chose.
fn check_auto_selection(
    bench: &Benchmark,
    query_idx: usize,
    facts: &[nyaya_core::Atom],
    star: bool,
    expected: &str,
) -> String {
    let algorithm = if star {
        nyaya::Algorithm::NyayaStar
    } else {
        nyaya::Algorithm::Nyaya
    };
    let build = |strategy: Strategy| {
        KnowledgeBase::builder()
            .ontology(bench.raw.clone())
            .facts(facts.iter().cloned())
            .algorithm(algorithm)
            .strategy(strategy)
            .build()
            .expect("benchmark ontology builds")
    };
    let kb = build(Strategy::Auto);
    let q = &bench.queries[query_idx].1;
    let prepared = kb.prepare(q).expect("query prepares");
    let answers = kb.execute(&prepared).expect("query executes");
    if answers.backend != expected {
        eprintln!(
            "FATAL: {}-q{}: expected Strategy::Auto to select the {expected} backend, got {}",
            bench.id,
            query_idx + 1,
            answers.backend
        );
        std::process::exit(2);
    }
    let flat_kb = build(Strategy::Ucq);
    let flat = flat_kb
        .execute(&flat_kb.prepare(q).expect("query prepares"))
        .expect("query executes");
    if flat.tuples != answers.tuples {
        eprintln!("FATAL: auto-selected backend answers differ from the UCQ strategy");
        std::process::exit(2);
    }
    answers.backend.to_owned()
}

fn fuzz_cells(quick: bool) -> Vec<CellResult> {
    let config = FuzzConfig {
        max_atoms: 4,
        max_facts: 400,
        ..Default::default()
    };
    let wanted = if quick { 2 } else { 4 };
    let mut cells = Vec::new();
    let mut seed = 0u64;
    while cells.len() < wanted && seed < 500 {
        seed += 1;
        let mut rng = Prng::seed_from_u64(0xBE0C ^ seed);
        let tgds = random_linear_tgds(&mut rng, 3 + (seed as usize % 4));
        let head_arity = rng.gen_range(0..3);
        let q = random_cq(&mut rng, &config, head_arity);
        let facts = random_database(&mut rng, &config);
        let opts = options(false, &Default::default());
        let Ok(pr) = nr_datalog_rewrite(&q, &tgds, &[], &opts) else {
            continue;
        };
        // Only decomposable queries exercise the clustered pipeline.
        if !matches!(pr.strategy, ProgramStrategy::Clustered { clusters } if clusters >= 2)
            || pr.estimated_dnf < 4
        {
            continue;
        }
        let db = Database::from_facts(facts);
        cells.push(measure(
            format!("fuzz-{seed}"),
            &tgds,
            &Default::default(),
            &q,
            false,
            &db,
            None,
        ));
    }
    cells
}

fn json_cell(r: &CellResult) -> String {
    let auto = match &r.auto_backend {
        Some(v) => format!("\"{v}\""),
        None => "null".to_owned(),
    };
    format!(
        "{{\"name\":\"{}\",\"ucq_cqs\":{},\"ucq_atoms\":{},\"ucq_rewrite_ms\":{:.3},\
         \"ucq_exec_ms\":{:.3},\"prog_rules\":{},\"prog_atoms\":{},\"prog_strata\":{},\
         \"prog_rewrite_ms\":{:.3},\"prog_exec_ms\":{:.3},\"answers\":{},\
         \"size_ratio\":{:.2},\"rewrite_speedup\":{:.2},\"exec_speedup\":{:.2},\
         \"end_to_end_speedup\":{:.2},\"auto_backend\":{}}}",
        r.name,
        r.ucq_cqs,
        r.ucq_atoms,
        r.ucq_rewrite_ms,
        r.ucq_exec_ms,
        r.prog_rules,
        r.prog_atoms,
        r.prog_strata,
        r.prog_rewrite_ms,
        r.prog_exec_ms,
        r.answers,
        r.size_ratio,
        r.rewrite_speedup,
        r.exec_speedup,
        r.end_to_end_speedup,
        auto
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_pr5.json");
    let mut check_path: Option<String> = None;
    let mut quick = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = args.get(i).expect("--out needs a path").clone();
            }
            "--check" => {
                i += 1;
                check_path = Some(args.get(i).expect("--check needs a path").clone());
            }
            "--quick" => quick = true,
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(64);
            }
        }
        i += 1;
    }

    let mut results = Vec::new();
    for cell in suite_cells().iter().filter(|c| !quick || c.quick) {
        let bench = load(cell.suite);
        let facts = generate_abox(
            &bench,
            &AboxConfig {
                individuals: 300,
                facts: 6_000,
                seed: 7,
            },
        );
        let db = Database::from_facts(facts.iter().cloned());
        let auto = cell.expect_auto.map(|expected| {
            check_auto_selection(&bench, cell.query_idx, &facts, cell.star, expected)
        });
        let (_, q) = &bench.queries[cell.query_idx];
        results.push(measure(
            format!("{}-q{}", cell.suite, cell.query_idx + 1),
            &bench.normalized,
            &bench.hidden_predicates,
            q,
            cell.star,
            &db,
            auto,
        ));
    }
    results.extend(fuzz_cells(quick));

    for r in &results {
        eprintln!(
            "{:<9} UCQ {:>6} CQs {:>7} atoms | rw {:>9.2} ms  exec {:>9.2} ms || \
             prog {:>5} rules {:>6} atoms {:>2} strata | rw {:>9.2} ms  exec {:>8.2} ms || \
             size {:>6.1}x  rw {:>6.2}x  exec {:>6.2}x  e2e {:>6.2}x{}",
            r.name,
            r.ucq_cqs,
            r.ucq_atoms,
            r.ucq_rewrite_ms,
            r.ucq_exec_ms,
            r.prog_rules,
            r.prog_atoms,
            r.prog_strata,
            r.prog_rewrite_ms,
            r.prog_exec_ms,
            r.size_ratio,
            r.rewrite_speedup,
            r.exec_speedup,
            r.end_to_end_speedup,
            match &r.auto_backend {
                Some(backend) => format!("  [auto: {backend}]"),
                None => String::new(),
            }
        );
    }

    let rendered: Vec<String> = results.iter().map(json_cell).collect();
    let report = format!(
        "{{\"pr\":5,\"bench\":\"program-target\",\"quick\":{},\"cells\":[{}]}}\n",
        quick,
        rendered.join(",")
    );
    std::fs::write(&out_path, &report).expect("write bench report");
    eprintln!("wrote {out_path}");

    // Acceptance floor, independent of any baseline: at least one cell
    // whose flat-UCQ side costs ≥ 100 ms must beat it ≥ 2x in both
    // rewriting size and end-to-end wall clock.
    let best = results
        .iter()
        .filter(|r| r.ucq_rewrite_ms + r.ucq_exec_ms >= 100.0)
        .map(|r| r.size_ratio.min(r.end_to_end_speedup))
        .fold(0.0f64, f64::max);
    if best < 2.0 {
        eprintln!(
            "FAIL: no >=100 ms cell beat the flat UCQ 2x in both size and wall clock \
             (best {best:.2}x)"
        );
        std::process::exit(1);
    }

    if let Some(path) = check_path {
        let mut gate = RatioGate::load(&path);
        for (r, obj) in results.iter().zip(&rendered) {
            if !gate.has_entry(&r.name) {
                gate.skip(&r.name);
                continue;
            }
            let base_slow = gate
                .baseline_value(&r.name, "ucq_rewrite_ms")
                .unwrap_or(0.0)
                + gate.baseline_value(&r.name, "ucq_exec_ms").unwrap_or(0.0);
            for key in ["size_ratio", "rewrite_speedup", "end_to_end_speedup"] {
                let Some(new_v) = json_number(obj, key) else {
                    continue;
                };
                // size_ratio is a pure size comparison — always gated;
                // timing ratios only for cells the baseline measured above
                // the 100 ms jitter threshold.
                if key != "size_ratio" && base_slow < 100.0 {
                    gate.info(&r.name, key, new_v, 100.0);
                } else {
                    gate.check(&r.name, key, new_v);
                }
            }
        }
        gate.finish();
    }
}
