//! Cost-based planner and sorted-index benchmark: the preserved greedy
//! hash-only planner versus the cost model's merge joins, and the full
//! materialize-then-shape path versus the sorted-index fast paths
//! (top-k early exit, aggregate pushdown, range index scan).
//!
//! Emits machine-readable JSON (`BENCH_pr8.json`) with per-cell timings
//! and can gate CI against a checked-in baseline:
//!
//! ```text
//! planner_bench [--out PATH] [--check BASELINE.json] [--quick]
//! ```
//!
//! Every cell self-checks its answers against the reference semantics
//! (`reference::execute_ucq_reference` + `apply_select`); a mismatch
//! fails immediately with exit 2 — a fast wrong answer is not a win.
//! The gate (exit 1) requires the merge-join or top-k cell to keep at
//! least a 2x advantage on its sorted workload, and no cell may lose
//! more than half its baselined speedup (ratios are machine-invariant,
//! so the gate survives runner-generation changes).

use std::time::Instant;

use nyaya_bench::RatioGate;
use nyaya_core::select::{
    apply_select, AggFunc, Aggregate, ColumnFilter, FilterOp, SelectOptions, SortDir,
};
use nyaya_core::{Atom, Term, UnionQuery};
use nyaya_sql::{
    execute_ucq_greedy, execute_ucq_intra, execute_ucq_select, reference, BuildCache, Database,
};

/// One benchmark cell: a query + select options over a database, with a
/// slow comparator path and the fast planned path.
struct Cell {
    name: &'static str,
    slow_label: &'static str,
    slow_ms: f64,
    fast_ms: f64,
    answers: usize,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.slow_ms / self.fast_ms.max(1e-9)
    }
}

fn best_of<T, F: FnMut() -> T>(repeats: usize, mut f: F) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = f();
    for _ in 0..repeats {
        let start = Instant::now();
        out = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    (best, out)
}

fn parse_ucq(src: &str) -> UnionQuery {
    UnionQuery::new(vec![
        nyaya::parser::parse_query(src).expect("bench query parses")
    ])
}

fn self_check(name: &str, got: &[Vec<Term>], db: &Database, ucq: &UnionQuery, sel: &SelectOptions) {
    let expected = apply_select(reference::execute_ucq_reference(db, ucq), sel);
    if got != expected.as_slice() {
        eprintln!(
            "FATAL: {name} disagrees with reference semantics: {} vs {} rows",
            got.len(),
            expected.len()
        );
        std::process::exit(2);
    }
}

/// Merge-vs-hash: a 1:1 join of a small probe table into a wide sorted
/// table with ~all-distinct keys. The greedy hash-only planner pays the
/// full build/probe of the wide side on every run; the cost model walks
/// the small side and merges through the sorted index.
fn merge_vs_hash_cell(scale: usize, repeats: usize) -> Cell {
    let probe = scale / 100;
    let mut facts = Vec::with_capacity(scale + probe);
    for i in 0..probe {
        facts.push(Atom::make(
            "a",
            [format!("x{i}").as_str(), format!("k{:06}", i * 97).as_str()],
        ));
    }
    for j in 0..scale {
        facts.push(Atom::make(
            "b",
            [format!("k{j:06}").as_str(), format!("z{j}").as_str()],
        ));
    }
    let db = Database::from_facts(facts);
    let ucq = parse_ucq("q(X, Z) :- a(X, Y), b(Y, Z).");

    let (slow_ms, slow) = best_of(repeats, || execute_ucq_greedy(&db, &ucq));
    let cache = BuildCache::new();
    let (fast_ms, (fast, metrics)) =
        best_of(repeats, || execute_ucq_intra(&db, &ucq, 1, 1, &cache, 1.0));
    if fast != slow {
        eprintln!("FATAL: merge-vs-hash engines disagree");
        std::process::exit(2);
    }
    if metrics.merge_joins == 0 {
        eprintln!("FATAL: cost planner never picked the merge join on the sorted workload");
        std::process::exit(2);
    }
    let rows: Vec<Vec<Term>> = fast.into_iter().collect();
    let mut sorted = rows.clone();
    sorted.sort_by(|a, b| nyaya_core::term::canonical_cmp_rows(a, b));
    self_check(
        "merge-vs-hash",
        &sorted,
        &db,
        &ucq,
        &SelectOptions::default(),
    );
    Cell {
        name: "merge-vs-hash",
        slow_label: "greedy hash-only",
        slow_ms,
        fast_ms,
        answers: sorted.len(),
    }
}

/// A single wide table for the select fast-path cells.
fn edge_db(scale: usize) -> (Database, UnionQuery) {
    let facts: Vec<Atom> = (0..scale)
        .map(|i| {
            Atom::make(
                "e",
                [
                    format!("v{i:06}").as_str(),
                    format!("w{:06}", (i * 31) % scale).as_str(),
                ],
            )
        })
        .collect();
    (
        Database::from_facts(facts),
        parse_ucq("q(X, Y) :- e(X, Y)."),
    )
}

/// The slow comparator every select cell shares: execute the query in
/// full, then shape the materialized answer set with `apply_select`.
fn full_materialize(
    db: &Database,
    ucq: &UnionQuery,
    sel: &SelectOptions,
    repeats: usize,
) -> (f64, Vec<Vec<Term>>) {
    best_of(repeats, || {
        let cache = BuildCache::new();
        let (set, _) = execute_ucq_intra(db, ucq, 1, 1, &cache, 1.0);
        apply_select(set, sel)
    })
}

fn select_cell(
    name: &'static str,
    db: &Database,
    ucq: &UnionQuery,
    sel: &SelectOptions,
    repeats: usize,
    expect_counter: impl Fn(&nyaya_sql::ExecMetrics) -> u64,
    counter_name: &str,
) -> Cell {
    let (slow_ms, slow) = full_materialize(db, ucq, sel, repeats);
    let cache = BuildCache::new();
    let (fast_ms, result) = best_of(repeats, || {
        execute_ucq_select(db, ucq, sel, 1, &cache, 1.0).expect("select options are valid")
    });
    let (fast, metrics) = result;
    if expect_counter(&metrics) == 0 {
        eprintln!("FATAL: {name} never took its fast path ({counter_name} stayed 0)");
        std::process::exit(2);
    }
    if fast != slow {
        eprintln!("FATAL: {name} fast path disagrees with full materialize");
        std::process::exit(2);
    }
    self_check(name, &fast, db, ucq, sel);
    Cell {
        name,
        slow_label: "full materialize",
        slow_ms,
        fast_ms,
        answers: fast.len(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_pr8.json");
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

    let repeats = if quick { 2 } else { 5 };
    let join_scale = if quick { 30_000 } else { 120_000 };
    let table_scale = if quick { 50_000 } else { 200_000 };

    let mut cells = vec![merge_vs_hash_cell(join_scale, repeats)];

    let (db, ucq) = edge_db(table_scale);
    cells.push(select_cell(
        "topk-early-exit",
        &db,
        &ucq,
        &SelectOptions {
            order_by: vec![(0, SortDir::Asc)],
            limit: Some(10),
            ..SelectOptions::default()
        },
        repeats,
        |m| m.topk_early_exits,
        "topk_early_exits",
    ));
    cells.push(select_cell(
        "aggregate-pushdown",
        &db,
        &ucq,
        &SelectOptions {
            aggregate: Some(Aggregate {
                func: AggFunc::Min(1),
                group_by: Vec::new(),
            }),
            ..SelectOptions::default()
        },
        repeats,
        |m| m.aggregate_pushdowns,
        "aggregate_pushdowns",
    ));
    cells.push(select_cell(
        "range-index-scan",
        &db,
        &ucq,
        &SelectOptions {
            filters: vec![ColumnFilter {
                column: 0,
                op: FilterOp::Lt,
                value: Term::constant("v000100"),
            }],
            ..SelectOptions::default()
        },
        repeats,
        |m| m.range_index_scans,
        "range_index_scans",
    ));

    let mut rendered = Vec::new();
    for c in &cells {
        eprintln!(
            "{:<18} {:>9.3} ms ({}) vs {:>9.3} ms (planned) | speedup {:>8.2}x | {} answers",
            c.name,
            c.slow_ms,
            c.slow_label,
            c.fast_ms,
            c.speedup(),
            c.answers
        );
        rendered.push(format!(
            "{{\"name\":\"{}\",\"slow\":\"{}\",\"slow_ms\":{:.3},\"fast_ms\":{:.3},\
             \"speedup\":{:.2},\"answers\":{}}}",
            c.name,
            c.slow_label,
            c.slow_ms,
            c.fast_ms,
            c.speedup(),
            c.answers
        ));
    }

    let report = format!(
        "{{\"pr\":8,\"bench\":\"planner\",\"cells\":[{}]}}\n",
        rendered.join(",")
    );
    std::fs::write(&out_path, &report).expect("write bench report");
    eprintln!("wrote {out_path}");

    // Acceptance gate: the sorted workloads must keep a >= 2x advantage —
    // merge join over hash-only, or top-k early exit over full
    // materialization. Losing both means the sorted indexes buy nothing.
    let sorted_best = cells
        .iter()
        .filter(|c| c.name == "merge-vs-hash" || c.name == "topk-early-exit")
        .map(Cell::speedup)
        .fold(0.0f64, f64::max);
    if sorted_best < 2.0 {
        eprintln!("GATE FAILED: best sorted-workload speedup {sorted_best:.2}x < 2x");
        std::process::exit(1);
    }

    if let Some(path) = check_path {
        let mut gate = RatioGate::load(&path);
        for c in &cells {
            // Sub-millisecond fast sides sit at timer resolution: the
            // ratio's *magnitude* is noise (it scales with whatever the
            // slow side cost on that host), so compare against the fixed
            // 2x floor instead of the baseline magnitude.
            let base_fast = gate.baseline_value(c.name, "fast_ms").unwrap_or(0.0);
            if base_fast < 0.5 || c.fast_ms < 0.5 {
                gate.check_floor(c.name, "speedup", c.speedup(), 2.0);
            } else {
                gate.check(c.name, "speedup", c.speedup());
            }
        }
        gate.finish();
    }
}
