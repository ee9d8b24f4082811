//! Execution-engine benchmark: the seed engine (textual order, no
//! indexes, no sharing — preserved in `nyaya_sql::reference`) versus the
//! indexed + planned + shared-build-cache engine, on UCQ rewritings over
//! generated ABoxes.
//!
//! Emits machine-readable JSON (`BENCH_pr2.json`) with per-scenario
//! timings and a differential sweep, and can gate CI against a
//! checked-in baseline:
//!
//! ```text
//! engine_bench [--out PATH] [--check BASELINE.json] [--seeds N] [--quick]
//! ```
//!
//! `--check` fails (exit 1) if any scenario's indexed time regressed more
//! than 2x against the baseline. A result mismatch between the engines
//! fails immediately (exit 2) — a fast wrong answer is not a win.

use std::time::Instant;

use nyaya_bench::{json_number, RatioGate};
use nyaya_core::{normalize, Predicate, Term, UnionQuery};
use nyaya_ontologies::rng::Prng;
use nyaya_ontologies::{
    generate_for_predicates, random_database, random_ucq, running_example, AboxConfig, FuzzConfig,
};
use nyaya_rewrite::{tgd_rewrite, RewriteOptions};
use nyaya_sql::{execute_ucq_intra, reference, BuildCache, Database};

/// One benchmark workload: a UCQ rewriting plus the database to run it on.
struct Scenario {
    name: String,
    ucq: UnionQuery,
    db: Database,
    db_facts: usize,
}

/// Timings (milliseconds, best of `repeats`) for one scenario.
struct Timings {
    naive_ms: f64,
    indexed_ms: f64,
    parallel_ms: f64,
    answers: usize,
}

fn best_of<F: FnMut() -> std::collections::BTreeSet<Vec<Term>>>(
    repeats: usize,
    mut f: F,
) -> (f64, std::collections::BTreeSet<Vec<Term>>) {
    let mut best = f64::INFINITY;
    let mut out = Default::default();
    for _ in 0..repeats {
        let start = Instant::now();
        out = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    (best, out)
}

fn measure(scenario: &Scenario, repeats: usize) -> Timings {
    let (naive_ms, naive) = best_of(repeats, || {
        reference::execute_ucq_reference(&scenario.db, &scenario.ucq)
    });
    let (indexed_ms, indexed) = best_of(repeats, || {
        execute_ucq_intra(&scenario.db, &scenario.ucq, 1, 1, &BuildCache::new(), 1.0).0
    });
    let (parallel_ms, parallel) = best_of(repeats, || {
        execute_ucq_intra(&scenario.db, &scenario.ucq, 4, 1, &BuildCache::new(), 1.0).0
    });
    if naive != indexed || naive != parallel {
        eprintln!(
            "FATAL: engines disagree on {}: naive={} indexed={} parallel={}",
            scenario.name,
            naive.len(),
            indexed.len(),
            parallel.len()
        );
        std::process::exit(2);
    }
    Timings {
        naive_ms,
        indexed_ms,
        parallel_ms,
        answers: indexed.len(),
    }
}

/// The paper's running example (Section 1): σ1–σ9, the three-variable
/// example query, and a synthetic ABox over the relational schema.
fn running_example_scenario(scale: usize) -> Scenario {
    let ontology = running_example::ontology();
    let normalization = normalize(&ontology.tgds);
    let mut opts = RewriteOptions::nyaya_star();
    opts.hidden_predicates = normalization.aux_predicates.clone();
    let rewriting = tgd_rewrite(&running_example::query(), &normalization.tgds, &[], &opts)
        .expect("running example rewriting");
    let preds: Vec<Predicate> = {
        let aux = &normalization.aux_predicates;
        let mut ps: Vec<Predicate> = ontology
            .predicates()
            .into_iter()
            .filter(|p| !aux.contains(p))
            .collect();
        ps.sort_by_key(|p| (p.sym.index(), p.arity));
        ps
    };
    let facts = generate_for_predicates(
        &preds,
        &AboxConfig {
            individuals: scale / 20,
            facts: scale,
            seed: 7,
        },
    );
    let db_facts = facts.len();
    Scenario {
        name: "running-example".to_owned(),
        ucq: rewriting.ucq,
        db: Database::from_facts(facts),
        db_facts,
    }
}

/// The shared wide-taxonomy workload ([`nyaya_bench::taxonomy`]) — the
/// shape that dominates large UCQ rewritings, with every disjunct
/// probing the same `edge` table.
fn taxonomy_scenario(classes: usize, individuals: usize, edges: usize) -> Scenario {
    let tgds = nyaya_bench::taxonomy::tgds(classes);
    let query = nyaya_bench::taxonomy::query();
    let rewriting =
        tgd_rewrite(&query, &tgds, &[], &RewriteOptions::nyaya()).expect("taxonomy rewriting");
    assert!(
        rewriting.ucq.size() >= 100,
        "workload must exceed 100 disjuncts, got {}",
        rewriting.ucq.size()
    );

    let facts = nyaya_bench::taxonomy::facts(classes, individuals, edges, 42);
    let db_facts = facts.len();
    Scenario {
        name: format!("taxonomy-{}", rewriting.ucq.size()),
        ucq: rewriting.ucq,
        db: Database::from_facts(facts),
        db_facts,
    }
}

/// Differential sweep: planned/indexed engine vs the seed engine and the
/// homomorphism-semantics oracle, on seeded random inputs.
fn differential_sweep(seeds: u64) -> (u64, u64) {
    let config = FuzzConfig::default();
    let mut mismatches = 0;
    for seed in 0..seeds {
        let mut rng = Prng::seed_from_u64(seed);
        let facts = random_database(&mut rng, &config);
        let db = Database::from_facts(facts.iter().cloned());
        let instance = nyaya_chase::Instance::from_atoms(facts.iter().cloned());
        let ucq = random_ucq(&mut rng, &config);
        let planned = execute_ucq_intra(&db, &ucq, 1, 1, &BuildCache::new(), 1.0).0;
        let oracle = nyaya_chase::answers_union(&instance, &ucq);
        let seed_engine = reference::execute_ucq_reference(&db, &ucq);
        if planned != oracle || planned != seed_engine {
            eprintln!("differential mismatch at seed {seed}: {ucq}");
            mismatches += 1;
        }
    }
    (seeds, mismatches)
}

fn json_scenario(s: &Scenario, t: &Timings) -> String {
    format!(
        "{{\"name\":\"{}\",\"disjuncts\":{},\"db_facts\":{},\"answers\":{},\
         \"naive_ms\":{:.3},\"indexed_ms\":{:.3},\"parallel_ms\":{:.3},\"speedup\":{:.2}}}",
        s.name,
        s.ucq.size(),
        s.db_facts,
        t.answers,
        t.naive_ms,
        t.indexed_ms,
        t.parallel_ms,
        t.naive_ms / t.indexed_ms.max(1e-9)
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_pr2.json");
    let mut check_path: Option<String> = None;
    let mut seeds: u64 = 200;
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
            "--seeds" => {
                i += 1;
                seeds = args
                    .get(i)
                    .expect("--seeds needs a number")
                    .parse()
                    .unwrap();
            }
            "--quick" => quick = true,
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(64);
            }
        }
        i += 1;
    }

    let repeats = if quick { 1 } else { 3 };
    let scenarios = vec![
        running_example_scenario(if quick { 2_000 } else { 10_000 }),
        taxonomy_scenario(
            12,
            if quick { 400 } else { 1_500 },
            if quick { 4_000 } else { 30_000 },
        ),
    ];

    let mut rendered = Vec::new();
    for s in &scenarios {
        let t = measure(s, repeats);
        eprintln!(
            "{:<18} {:>4} disjuncts {:>7} facts | naive {:>9.3} ms  indexed {:>9.3} ms  \
             parallel {:>9.3} ms | speedup {:>6.2}x | {} answers",
            s.name,
            s.ucq.size(),
            s.db_facts,
            t.naive_ms,
            t.indexed_ms,
            t.parallel_ms,
            t.naive_ms / t.indexed_ms.max(1e-9),
            t.answers
        );
        rendered.push(json_scenario(s, &t));
    }

    let (diff_seeds, mismatches) = differential_sweep(seeds);
    eprintln!("differential sweep: {diff_seeds} seeds, {mismatches} mismatches");

    let report = format!(
        "{{\"pr\":2,\"bench\":\"execution-engine\",\"scenarios\":[{}],\
         \"differential\":{{\"seeds\":{},\"mismatches\":{}}}}}\n",
        rendered.join(","),
        diff_seeds,
        mismatches
    );
    std::fs::write(&out_path, &report).expect("write bench report");
    eprintln!("wrote {out_path}");

    if mismatches > 0 {
        std::process::exit(2);
    }

    if let Some(path) = check_path {
        let mut gate = RatioGate::load(&path);
        for (s, obj) in scenarios.iter().zip(&rendered) {
            // Scenario names carry the disjunct count; match on the stable
            // prefix so regenerated baselines with different sizes still pair.
            let prefix: &str = s.name.split('-').next().unwrap_or(&s.name);
            let Some(new_speedup) = json_number(obj, "speedup") else {
                continue;
            };
            gate.check(prefix, "speedup", new_speedup);
        }
        gate.finish();
    }
}
