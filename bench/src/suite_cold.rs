//! `suite_cold`: the paper's own experiment, end to end. Every operation
//! is `answer_text(query)` on a knowledge base that has never seen a query:
//! parse → key → rewrite → (compile) → plan → execute, nothing cached. The
//! 2 000-fact ABoxes keep the executor's share small, so this is the
//! workload a rewriter change moves and an executor change does not.

use std::path::Path;

use nyaya::rewrite::{minimize_union_with_stats, nr_datalog_rewrite_with, tgd_rewrite_with};
use nyaya::sql::{execute_program, execute_ucq, plan_cq_cost, BuildCache, Database};
use nyaya::KnowledgeBase;

use crate::check::{same, Digest, Expected, RefDb};
use crate::common::{
    staged_compile, staged_execute, timed, Compiled, ExecTotals, Plan, RewriteTotals,
};
use crate::inputs::{self, Suite, SuiteCell};
use crate::metrics::Report;
use crate::stats::{geomean, low_decile, median, sum};
use crate::trace::Tracer;

pub const ABOX_FACTS: usize = 2_000;
pub const ABOX_INDIVIDUALS: usize = 200;

fn fresh_kb(suite: &Suite, cell: &SuiteCell) -> (KnowledgeBase, f64) {
    let (bench, abox) = &suite.ontologies[cell.ontology];
    // Cloning the inputs is the caller's cost, not the system's.
    let (ontology, facts) = (bench.raw.clone(), abox.clone());
    timed(move || {
        KnowledgeBase::builder()
            .ontology(ontology)
            .facts(facts)
            .build()
            .expect("suite knowledge base builds")
    })
}

/// Light rounds after every heavy operation: the light cells' samples are
/// spread over the whole run, not taken in one burst that a busy neighbour
/// can cover.
const LIGHT_ROUNDS_PER_HEAVY_OP: usize = 2;

/// What the run has seen of each cell so far.
struct Samples {
    build_ms: Vec<Vec<f64>>,
    cold_ms: Vec<Vec<f64>>,
    warm_ms: Vec<Vec<f64>>,
    want: Vec<Option<Digest>>,
    bytes: u64,
    facts: u64,
    cqs: u64,
}

/// One operation on cell `i`: a fresh knowledge base, the cold answer, the
/// warm repeat, and the checks (against the reference evaluator and
/// `expected.json` the first time, against the first answer afterwards).
fn visit(
    i: usize,
    suite: &Suite,
    seed: u64,
    expected: &Expected,
    refdbs: &mut [RefDb],
    seen: &mut Samples,
    report: &mut Report,
) {
    let cell = &suite.cells[i];
    let (kb, ms) = fresh_kb(suite, cell);
    seen.build_ms[i].push(ms);
    let (cold, ms) = timed(|| kb.answer_text(cell.query));
    seen.cold_ms[i].push(ms);
    let (warm, ms) = timed(|| kb.answer_text(cell.query));
    seen.warm_ms[i].push(ms);
    let cold = match cold {
        Ok(answers) => answers,
        Err(e) => return report.op(Err(format!("{}: {e}", cell.name))),
    };
    let got = Digest::of_terms(&cold.tuples);
    if seen.cold_ms[i].len() == 1 {
        let stats = kb.stats();
        seen.bytes += stats.fact_bytes + stats.index_bytes;
        seen.facts += stats.snapshot_facts as u64;
        let reference = kb
            .prepare_text(cell.query)
            .map_err(|e| e.to_string())
            .and_then(|prepared| refdbs[cell.ontology].answers(&kb, &prepared));
        match reference {
            Ok((size, digest)) => {
                seen.cqs += size;
                seen.want[i] = Some(digest);
                report.op(expected.check("suite_cold", &cell.name, seed, size, got));
            }
            Err(e) => report.op(Err(format!("{}: {e}", cell.name))),
        }
    }
    report.op(match seen.want[i] {
        Some(want) => same(&cell.name, got, want),
        None => Err(format!("{}: no reference answer", cell.name)),
    });
    report.op(match warm {
        Ok(warm) if warm.tuples == cold.tuples => Ok(()),
        Ok(_) => Err(format!("{}: the repeated answer differs", cell.name)),
        Err(e) => Err(format!("{}: {e}", cell.name)),
    });
}

pub fn run(seed: u64, seconds: u64, report: &mut Report) {
    // One pass over the heavy cells takes ~5 s at the defining commit.
    let heavy_reps = (seconds / 5).max(1) as usize;
    let (suite, gen_ms) = timed(|| inputs::suite(seed, ABOX_FACTS, ABOX_INDIVIDUALS));
    let expected = Expected::embedded();
    let mut refdbs: Vec<RefDb> = suite
        .ontologies
        .iter()
        .map(|(_, abox)| RefDb::new(abox))
        .collect();

    let cells = suite.cells.len();
    let mut seen = Samples {
        build_ms: vec![Vec::new(); cells],
        cold_ms: vec![Vec::new(); cells],
        warm_ms: vec![Vec::new(); cells],
        want: vec![None; cells],
        bytes: 0,
        facts: 0,
        cqs: 0,
    };
    let (heavy, light): (Vec<usize>, Vec<usize>) = (0..cells).partition(|&i| suite.cells[i].heavy);
    for _ in 0..heavy_reps {
        for &h in &heavy {
            visit(h, &suite, seed, &expected, &mut refdbs, &mut seen, report);
            for _ in 0..LIGHT_ROUNDS_PER_HEAVY_OP {
                for &l in &light {
                    visit(l, &suite, seed, &expected, &mut refdbs, &mut seen, report);
                }
            }
        }
    }

    let per_cell = |series: &[Vec<f64>], f: fn(&[f64]) -> f64| -> Vec<f64> {
        series.iter().map(|s| f(s)).collect()
    };
    let cold = per_cell(&seen.cold_ms, low_decile);
    let warm = per_cell(&seen.warm_ms, low_decile);
    let build = per_cell(&seen.build_ms, low_decile);
    let cold_p50 = per_cell(&seen.cold_ms, median);
    let samples: usize = seen.cold_ms.iter().map(Vec::len).sum();
    let slowest = cold.iter().copied().fold(0.0, f64::max);
    report.set("setup_s", sum(&build) / 1e3, samples);
    report.set("op_ms", geomean(&cold), samples);
    report.set("op_ms_tail", slowest, heavy_reps);
    report.set("alt_ms", geomean(&warm), samples);
    report.set("ops_per_s", cells as f64 / (sum(&cold) / 1e3), samples);
    report.set(
        "resident_bytes_per_fact",
        seen.bytes as f64 / seen.facts.max(1) as f64,
        cells,
    );
    report.set("rewriting_cqs", seen.cqs as f64, cells);
    report.info("cold_ms_geomean", geomean(&cold_p50), "ms", samples);
    report.info("cold_s_total", sum(&cold_p50) / 1e3, "s", samples);
    report.info(
        "warm_ms_geomean",
        geomean(&per_cell(&seen.warm_ms, median)),
        "ms",
        samples,
    );
    report.info(
        "setup_s.p50",
        sum(&per_cell(&seen.build_ms, median)) / 1e3,
        "s",
        samples,
    );
    report.info("ontologies.gen_s", gen_ms / 1e3, "s", 1);
    for (i, cell) in suite.cells.iter().enumerate() {
        report.info(
            &format!("cold_ms.{}", cell.name),
            cold[i],
            "ms",
            seen.cold_ms[i].len(),
        );
    }
}

/// The traced run: every cell once through the facade, then once stage by
/// stage through the layer crates, then the layer probes the facade's path
/// does not reach (flat expansion of the cells `Auto` sends to the program
/// target, subsumption, the program target for the cells it keeps flat).
pub fn run_traced(seed: u64, report: &mut Report, out_dir: &Path) {
    let (suite, gen_ms) = timed(|| inputs::suite(seed, ABOX_FACTS, ABOX_INDIVIDUALS));
    let mut t = Tracer::new();
    let mut rewrites = RewriteTotals::default();
    let mut execs = ExecTotals::default();
    let (mut facade_ms, mut staged_ms) = (0.0, 0.0);
    let (mut plan_us, mut plans) = (0.0, 0usize);
    let (mut checks, mut avoided) = (0usize, 0usize);
    let mut load_facts_per_s = Vec::new();

    for cell in &suite.cells {
        let (bench, abox) = &suite.ontologies[cell.ontology];
        t.next_op();
        let compiled = t.span("core.build", |_| {
            Compiled::build(&bench.raw.tgds, &bench.raw.ncs)
        });
        let (db, load_ms) = timed(|| Database::from_facts(abox.iter().cloned()));
        load_facts_per_s.push(db.len() as f64 / (load_ms / 1e3));

        let (kb, _) = fresh_kb(&suite, cell);
        let facade = t.span("kb.answer_text", |_| kb.answer_text(cell.query));
        facade_ms += t.last_ms("kb.answer_text");

        let (staged, query, plan, stats) = t.span("staged.op", |t| {
            let (query, plan, stats) = staged_compile(t, &compiled, cell.query, &mut rewrites);
            let tuples = staged_execute(t, &db, &plan, &BuildCache::new(), 1.0, &mut execs);
            (tuples, query, plan, stats)
        });
        staged_ms += t.last_ms("staged.op");
        report.op(match facade {
            Ok(answers) if answers.tuples == staged => Ok(()),
            Ok(_) => Err(format!("{}: staged replay and facade disagree", cell.name)),
            Err(e) => Err(format!("{}: {e}", cell.name)),
        });

        if let Plan::Ucq(ucq) = &plan {
            t.span("probe.sql.plan", |_| {
                for cq in ucq.iter() {
                    std::hint::black_box(plan_cq_cost(&db, cq));
                }
            });
            plan_us += t.last_ms("probe.sql.plan") * 1e3;
            plans += ucq.size();
        }
        if !cell.heavy {
            continue;
        }
        // Layer probes on the cells where compile time is seconds.
        let options = compiled.options();
        let elim = compiled.elimination.as_ref();
        let (flat, stats, expand_ms) = match plan {
            Plan::Ucq(ucq) => (ucq, stats, t.last_ms("rewrite.expand")),
            Plan::Program(_) => {
                let flat = t.span("probe.rewrite.expand_flat", |_| {
                    tgd_rewrite_with(&query, &compiled.tgds, &compiled.ncs, &options, elim)
                        .expect("flat UCQ rewriting")
                });
                (flat.ucq, flat.stats, t.last_ms("probe.rewrite.expand_flat"))
            }
        };
        report.set(&format!("rewrite.expand_ms.{}", cell.name), expand_ms, 1);
        // Where the expansion's time goes: queries explored against CQs
        // kept, products generated, products the canonical key discarded.
        for (what, count) in [
            ("explored", stats.explored),
            ("kept", flat.size()),
            ("rewriting_products", stats.rewriting_products),
            ("factorization_products", stats.factorization_products),
            ("dedup_hits", stats.dedup_hits),
        ] {
            report.info(
                &format!("rewrite.{what}.{}", cell.name),
                count as f64,
                "count",
                1,
            );
        }
        // Subsumption is quadratic in the union; the widest flat unions of
        // the suite stay under this.
        if flat.size() <= 5_000 {
            let (_, stats) = t.span("probe.rewrite.minimize", |_| {
                minimize_union_with_stats(&flat)
            });
            checks += stats.hom_checks;
            avoided += stats.skipped_by_signature;
        }
        let program = t.span("probe.rewrite.program_compile", |_| {
            nr_datalog_rewrite_with(&query, &compiled.tgds, &compiled.ncs, &options, elim)
                .expect("program compile")
        });
        let via_program = t.span("probe.sql.program_exec", |_| {
            execute_program(&db, &program.program).expect("program executes")
        });
        report.op(if via_program == execute_ucq(&db, &flat) {
            Ok(())
        } else {
            Err(format!(
                "{}: program target and flat UCQ disagree",
                cell.name
            ))
        });
        rewrites.program_rules += program.stats.program_rules;
    }

    let n = suite.cells.len();
    let per_op = |name: &str, scale: f64| t.total_ms(name) * scale / t.calls(name).max(1) as f64;
    report.set(
        "parser.parse_us",
        per_op("parser.parse_query", 1e3),
        t.calls("parser.parse_query"),
    );
    report.set("core.build_ms", per_op("core.build", 1.0), n);
    report.set(
        "core.canonical_key_us",
        per_op("core.canonical_key", 1e3),
        n,
    );
    report.set(
        "rewrite.auto_decide_ms",
        t.total_ms("rewrite.auto_decide"),
        n,
    );
    report.set(
        "rewrite.expand_ms",
        t.total_ms("rewrite.expand"),
        t.calls("rewrite.expand"),
    );
    report.set("rewrite.explored", rewrites.explored as f64, n);
    report.set("rewrite.dedup_hits", rewrites.dedup_hits as f64, n);
    report.set(
        "rewrite.factorization_products",
        rewrites.factorization_products as f64,
        n,
    );
    report.set(
        "rewrite.rewriting_products",
        rewrites.rewriting_products as f64,
        n,
    );
    report.set(
        "rewrite.atoms_eliminated",
        rewrites.atoms_eliminated as f64,
        n,
    );
    report.set(
        "rewrite.useful_ratio",
        rewrites.final_cqs as f64 / rewrites.explored.max(1) as f64,
        n,
    );
    report.set(
        "rewrite.minimize_ms",
        t.total_ms("probe.rewrite.minimize"),
        t.calls("probe.rewrite.minimize"),
    );
    report.set(
        "rewrite.subsumption_checks",
        checks as f64,
        t.calls("probe.rewrite.minimize"),
    );
    report.set(
        "rewrite.subsumption_avoided",
        avoided as f64,
        t.calls("probe.rewrite.minimize"),
    );
    report.set(
        "rewrite.program_compile_ms",
        t.total_ms("rewrite.program_compile") + t.total_ms("probe.rewrite.program_compile"),
        t.calls("rewrite.program_compile") + t.calls("probe.rewrite.program_compile"),
    );
    report.set("rewrite.program_rules", rewrites.program_rules as f64, n);
    report.set(
        "sql.program_exec_ms",
        t.total_ms("sql.execute_program") + t.total_ms("probe.sql.program_exec"),
        t.calls("sql.execute_program") + t.calls("probe.sql.program_exec"),
    );
    report.set("sql.plan_us", plan_us / plans.max(1) as f64, plans);
    report.set(
        "sql.exec_ms",
        t.total_ms("sql.execute_ucq"),
        t.calls("sql.execute_ucq"),
    );
    report.set(
        "sql.first_exec_ms",
        t.total_ms("sql.execute_ucq"),
        t.calls("sql.execute_ucq"),
    );
    report.set(
        "sql.plan_est_over_actual",
        execs.estimated_rows as f64 / execs.rows.max(1) as f64,
        n,
    );
    report.set("sql.morsel_tasks", execs.morsel_tasks as f64, n);
    report.set("sql.build_cache_hits", execs.build_cache_hits as f64, n);
    report.set("sql.build_cache_misses", execs.build_cache_misses as f64, n);
    report.set("sql.merge_joins", execs.merge_joins as f64, n);
    report.set("sql.load_facts_per_s", median(&load_facts_per_s), n);
    report.facade_vs_staged(facade_ms, staged_ms, n);
    report.set("ontologies.gen_s", gen_ms / 1e3, 1);
    crate::finish_trace(&t, "suite_cold", out_dir);
}
