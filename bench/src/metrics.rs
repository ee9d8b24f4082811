//! The names this benchmark reports: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is `e2e --benchmark-json` written to a file, so the two
//! cannot drift.

use std::collections::BTreeMap;

use crate::json::{number, Json};
use crate::stats::{low_decile, median, percentile};

pub const RUN_SECONDS: u64 = 15;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "suite_cold",
        "rewrite-bound: cold answer_text on fresh KBs over the 25 Table 2 queries of V, S, U, A, P5; executor nearly idle",
    ),
    (
        "lubm_join",
        "executor-bound: 8 prepared multi-joins re-executed over LUBM-1M with the answer cache off; rewriter idle",
    ),
    (
        "lubm_serve",
        "wire/cache-bound: 2 TCP clients, 25% cached ANSWER handles, 75% never-seen point QUERYs (parse, rewrite, plan each time)",
    ),
    (
        "lubm_rw",
        "write path: durable LUBM-1M KB with a standing query; apply, poll, invalidated read, cached read; compact and reopen",
    ),
];

#[derive(Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening as a share of the parent's median (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports every one of these; what each means on each
/// workload is the table in `bench/README.md`.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_ms", "ms", Better::Lower, 0.25),
    e2e("op_ms_tail", "ms", Better::Lower, 0.25),
    e2e("alt_ms", "ms", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("resident_bytes_per_fact", "B/fact", Better::Lower, 0.05),
    e2e("rewriting_cqs", "count", Better::Lower, 0.001),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// Layer = module name. A traced run reports all of them; one that a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("parser.parse_us", "us", Lower),
    layer("core.build_ms", "ms", Lower),
    layer("core.canonical_key_us", "us", Lower),
    layer("rewrite.auto_decide_ms", "ms", Lower),
    layer("rewrite.expand_ms", "ms", Lower),
    layer("rewrite.explored", "count", Lower),
    layer("rewrite.dedup_hits", "count", Lower),
    layer("rewrite.factorization_products", "count", Lower),
    layer("rewrite.rewriting_products", "count", Lower),
    layer("rewrite.atoms_eliminated", "count", Higher),
    layer("rewrite.useful_ratio", "ratio", Higher),
    layer("rewrite.expand_ms.A-q2", "ms", Lower),
    layer("rewrite.expand_ms.A-q3", "ms", Lower),
    layer("rewrite.expand_ms.A-q4", "ms", Lower),
    layer("rewrite.expand_ms.A-q5", "ms", Lower),
    layer("rewrite.expand_ms.P5-q4", "ms", Lower),
    layer("rewrite.expand_ms.P5-q5", "ms", Lower),
    layer("rewrite.minimize_ms", "ms", Lower),
    layer("rewrite.subsumption_checks", "count", Lower),
    layer("rewrite.subsumption_avoided", "count", Higher),
    layer("rewrite.program_compile_ms", "ms", Lower),
    layer("rewrite.program_rules", "count", Lower),
    layer("sql.program_exec_ms", "ms", Lower),
    layer("sql.plan_us", "us", Lower),
    layer("sql.plan_est_over_actual", "ratio", Lower),
    layer("sql.plan_replans", "count", Lower),
    layer("sql.exec_ms", "ms", Lower),
    layer("sql.exec_cold_build_ms", "ms", Lower),
    layer("sql.exec_warm_build_ms", "ms", Lower),
    layer("sql.build_ms", "ms", Lower),
    layer("sql.first_exec_ms", "ms", Lower),
    layer("sql.rows_out_per_s", "1/s", Higher),
    layer("sql.morsel_tasks", "count", Lower),
    layer("sql.build_cache_hits", "count", Higher),
    layer("sql.build_cache_misses", "count", Lower),
    layer("sql.merge_joins", "count", Higher),
    layer("sql.exec_ms.U-q1", "ms", Lower),
    layer("sql.exec_ms.U-q2", "ms", Lower),
    layer("sql.exec_ms.U-q3", "ms", Lower),
    layer("sql.exec_ms.U-q4", "ms", Lower),
    layer("sql.exec_ms.U-q5", "ms", Lower),
    layer("sql.exec_ms.grad-courses", "ms", Lower),
    layer("sql.exec_ms.taught-grads", "ms", Lower),
    layer("sql.exec_ms.grad-pipeline", "ms", Lower),
    layer("sql.load_facts_per_s", "1/s", Higher),
    layer("sql.fact_bytes", "B", Lower),
    layer("sql.index_bytes", "B", Lower),
    layer("sql.index_to_fact_ratio", "ratio", Lower),
    layer("kb.facade_op_ms", "ms", Lower),
    layer("kb.staged_op_ms", "ms", Lower),
    layer("kb.facade_overhead_ms", "ms", Lower),
    layer("kb.answer_cache_hit_ratio", "ratio", Higher),
    layer("kb.rewrite_cache_hit_ratio", "ratio", Higher),
    layer("kb.build_cache_invalidations", "count", Lower),
    layer("kb.subscribe_ms", "ms", Lower),
    layer("kb.apply_mem_ms", "ms", Lower),
    layer("kb.apply_durable_ms", "ms", Lower),
    layer("sql.ivm_ms_per_apply", "ms", Lower),
    layer("ledger.append_ms", "ms", Lower),
    layer("ledger.wal_bytes_per_fact", "B/fact", Lower),
    layer("ledger.create_ms", "ms", Lower),
    layer("ledger.compact_ms", "ms", Lower),
    layer("sql.segment_encode_ms", "ms", Lower),
    layer("sql.segment_decode_ms", "ms", Lower),
    layer("sql.segment_bytes_per_fact", "B/fact", Lower),
    layer("ledger.recover_ms", "ms", Lower),
    layer("ledger.recovery_replayed", "count", Lower),
    layer("serve.ping_us", "us", Lower),
    layer("serve.wire_answer_ms", "ms", Lower),
    layer("serve.wire_point_ms", "ms", Lower),
    layer("serve.render_ms", "ms", Lower),
    layer("serve.encode_ms", "ms", Lower),
    layer("serve.decode_ms", "ms", Lower),
    layer("serve.bytes_per_answer", "B", Lower),
    layer("serve.parse_request_us", "us", Lower),
    layer("ontologies.gen_s", "s", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

/// The values one run measured, each with its sample count.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<String, (f64, usize, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed (first few), for the human-readable output.
    pub failures: Vec<String>,
}

impl Report {
    /// Record a metric of [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("{name} is not a declared metric"));
        self.values
            .insert(name.to_owned(), (value, samples, def.unit));
    }

    /// `setup_s` as the lower decile of a run's set-ups, with their median
    /// and range beside it.
    pub fn setup(&mut self, setup_s: &[f64]) {
        self.set("setup_s", low_decile(setup_s), setup_s.len());
        self.info("setup_s.p50", median(setup_s), "s", setup_s.len());
        let range = percentile(setup_s, 100.0) - percentile(setup_s, 0.0);
        self.info("setup_s.range", range, "s", setup_s.len());
    }

    /// A traced run's totals: operations through the facade, their staged
    /// replay, the difference (what the facade adds), and the share by
    /// which the replay under spans differs from the facade.
    pub fn facade_vs_staged(&mut self, facade_ms: f64, staged_ms: f64, ops: usize) {
        self.set("kb.facade_op_ms", facade_ms, ops);
        self.set("kb.staged_op_ms", staged_ms, ops);
        self.set("kb.facade_overhead_ms", facade_ms - staged_ms, ops);
        self.set(
            "trace.overhead_share",
            (staged_ms - facade_ms) / facade_ms,
            ops,
        );
    }

    /// Record a value that is printed for the reader but not judged.
    pub fn info(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.values.insert(name.to_owned(), (value, samples, unit));
    }

    /// Count one attempted operation; `Err` marks it failed.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(why);
        }
    }

    /// Mark an already-counted operation as failed.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// `name value unit n=<samples>` for every value measured, then the
    /// result line the driver reads: every end-to-end metric for an
    /// untraced run, every per-layer metric for a traced one. A run that
    /// broke off before measuring everything prints no result line.
    pub fn print(&self, traced: bool) {
        for (name, (value, samples, unit)) in &self.values {
            println!("{name} {} {unit} n={samples}", number(*value));
        }
        for why in &self.failures {
            println!("FAILED {why}");
        }
        let defs: &[MetricDef] = if traced { PER_LAYER } else { &END_TO_END };
        let mut metrics = BTreeMap::new();
        for def in defs {
            let value = match self.values.get(def.name) {
                Some((value, ..)) => *value,
                // A layer this workload does not touch.
                None if traced => 0.0,
                None => {
                    println!("FAILED the run ended before {} was measured", def.name);
                    return;
                }
            };
            let mut cell = BTreeMap::new();
            cell.insert("value".to_owned(), Json::Num(value));
            cell.insert("unit".to_owned(), Json::Str(def.unit.to_owned()));
            metrics.insert(def.name.to_owned(), Json::Obj(cell));
        }
        let mut line = BTreeMap::new();
        line.insert("correct".to_owned(), Json::Bool(self.failed == 0));
        line.insert("attempted".to_owned(), Json::Num(self.attempted as f64));
        line.insert("failed".to_owned(), Json::Num(self.failed as f64));
        line.insert("metrics".to_owned(), Json::Obj(metrics));
        println!("{}", Json::Obj(line).render(0));
    }
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let better = |b: Better| match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    };
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"bench/run.sh\"],\n");
    out.push_str("  \"paths\": [\"bench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    out.push_str(&format!(
        "  \"workloads\": {},\n",
        list(
            WORKLOADS
                .iter()
                .map(|(name, why)| format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
                .collect()
        )
    ));
    out.push_str(&format!(
        "  \"end_to_end\": {},\n",
        list(
            END_TO_END
                .iter()
                .map(|d| format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    d.name,
                    d.unit,
                    better(d.better),
                    d.bound
                ))
                .collect()
        )
    ));
    out.push_str(&format!(
        "  \"per_layer\": {}\n",
        list(
            PER_LAYER
                .iter()
                .map(|d| format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    d.name,
                    d.unit,
                    better(d.better)
                ))
                .collect()
        )
    ));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_meets_the_contract_limits() {
        let doc = Json::parse(&benchmark_json()).unwrap();
        assert_eq!(doc.get("run_seconds").unwrap().as_u64(), Some(RUN_SECONDS));
        let mut names = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(names.insert(def.name), "{} is used twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(def.bound <= 0.25);
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }
}
