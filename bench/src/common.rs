//! What the four workloads share: clocks, scratch directories and the
//! staged replay of one query through the layer crates' public functions.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

use nyaya::core::{
    canonical_key, classify, normalize, ConjunctiveQuery, DatalogProgram, NegativeConstraint,
    Predicate, Tgd, UnionQuery,
};
use nyaya::parser::parse_query;
use nyaya::rewrite::{
    estimate_dnf_bound, interaction_clusters, nr_datalog_rewrite_with, tgd_rewrite_with,
    EliminationContext, RewriteOptions, RewriteStats,
};
use nyaya::sql::{
    execute_program_shared, execute_ucq_intra, BuildCache, Database, ExecMetrics, ProgramMetrics,
};
use nyaya::DEFAULT_PROGRAM_THRESHOLD;

use crate::check::Tuples;
use crate::trace::Tracer;

/// Run `f`, returning its result and the milliseconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// The worker count the facade gives a query (`available_parallelism`,
/// at least 2) — recorded with every result that depends on threads.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get().max(2))
}

/// Hits as a share of lookups.
pub fn hit_ratio(hits: u64, misses: u64) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}

/// A directory under `<out>/tmp` that is removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(out_dir: &Path, label: &str) -> std::io::Result<ScratchDir> {
        let path = out_dir
            .join("tmp")
            .join(format!("{label}-{}", std::process::id()));
        // A crashed earlier run with the same pid may have left one behind.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Sums of the rewriting engine's counters over the compiles of a run.
#[derive(Default)]
pub struct RewriteTotals {
    pub explored: usize,
    pub dedup_hits: usize,
    pub factorization_products: usize,
    pub rewriting_products: usize,
    pub atoms_eliminated: usize,
    pub program_rules: usize,
    /// CQs in the final unions (the useful outcomes of `explored`).
    pub final_cqs: usize,
}

impl RewriteTotals {
    pub fn add(&mut self, stats: &RewriteStats, final_cqs: usize) {
        self.explored += stats.explored;
        self.dedup_hits += stats.dedup_hits;
        self.factorization_products += stats.factorization_products;
        self.rewriting_products += stats.rewriting_products;
        self.atoms_eliminated += stats.atoms_eliminated;
        self.program_rules += stats.program_rules;
        self.final_cqs += final_cqs;
    }
}

/// Sums of the executor's counters over the staged executions of a run.
#[derive(Default)]
pub struct ExecTotals {
    pub rows: u64,
    pub estimated_rows: u64,
    pub morsel_tasks: u64,
    pub build_cache_hits: u64,
    pub build_cache_misses: u64,
    pub merge_joins: u64,
}

impl ExecTotals {
    pub fn add(&mut self, m: &ExecMetrics) {
        self.rows += m.rows as u64;
        self.estimated_rows += m.estimated_rows;
        self.morsel_tasks += m.morsel_tasks;
        self.build_cache_hits += m.build_cache_hits;
        self.build_cache_misses += m.build_cache_misses;
        self.merge_joins += m.merge_joins;
    }

    pub fn add_program(&mut self, m: &ProgramMetrics) {
        self.rows += m.rows as u64;
        self.morsel_tasks += m.morsel_tasks;
        self.build_cache_hits += m.build_cache_hits;
        self.build_cache_misses += m.build_cache_misses;
        self.merge_joins += m.merge_joins;
    }
}

/// The compile-once half of a knowledge base, rebuilt from the layer
/// crates: what `KnowledgeBaseBuilder::build` derives from the ontology.
pub struct Compiled {
    pub tgds: Vec<Tgd>,
    pub ncs: Vec<NegativeConstraint>,
    pub hidden: HashSet<Predicate>,
    pub elimination: Option<EliminationContext>,
}

impl Compiled {
    pub fn build(raw_tgds: &[Tgd], ncs: &[NegativeConstraint]) -> Compiled {
        let classification = classify(raw_tgds);
        let normalization = normalize(raw_tgds);
        let elimination = classification
            .linear
            .then(|| EliminationContext::new(&normalization.tgds));
        Compiled {
            tgds: normalization.tgds,
            ncs: ncs.to_vec(),
            hidden: normalization.aux_predicates,
            elimination,
        }
    }

    /// The options a default knowledge base compiles with.
    pub fn options(&self) -> RewriteOptions {
        RewriteOptions {
            elimination: self.elimination.is_some(),
            nc_pruning: !self.ncs.is_empty(),
            hidden_predicates: self.hidden.clone(),
            ..RewriteOptions::default()
        }
    }
}

/// What a staged compile produced: the form the facade would execute.
pub enum Plan {
    Ucq(UnionQuery),
    Program(DatalogProgram),
}

/// Parse → canonical key → `Strategy::Auto` decision → compile, each under
/// its own span, choosing as `KnowledgeBase::execution_plan` chooses.
pub fn staged_compile(
    t: &mut Tracer,
    compiled: &Compiled,
    text: &str,
    totals: &mut RewriteTotals,
) -> (ConjunctiveQuery, Plan, RewriteStats) {
    let query = t.span("parser.parse_query", |_| {
        parse_query(text).expect("benchmark query parses")
    });
    t.span("core.canonical_key", |_| {
        std::hint::black_box(canonical_key(&query));
    });
    let options = compiled.options();
    let elim = compiled.elimination.as_ref();
    // The facade compiles the program whenever the cheap bounds cannot rule
    // it out, and keeps it iff its DNF is empty or reaches the threshold.
    let may_pay = t.span("rewrite.auto_decide", |_| {
        let eliminated;
        let q = match elim {
            Some(ctx) => {
                eliminated = ctx.eliminate(&query);
                &eliminated
            }
            None => &query,
        };
        interaction_clusters(q, &compiled.tgds).len() > 1
            && (options.nc_pruning
                || estimate_dnf_bound(q, &compiled.tgds) >= DEFAULT_PROGRAM_THRESHOLD)
    });
    if may_pay {
        let out = t.span("rewrite.program_compile", |_| {
            nr_datalog_rewrite_with(&query, &compiled.tgds, &compiled.ncs, &options, elim)
                .expect("program compile")
        });
        if out.estimated_dnf == 0 || out.estimated_dnf >= DEFAULT_PROGRAM_THRESHOLD {
            totals.add(&out.stats, 0);
            return (query, Plan::Program(out.program), out.stats);
        }
    }
    let rewriting = t.span("rewrite.expand", |_| {
        tgd_rewrite_with(&query, &compiled.tgds, &compiled.ncs, &options, elim)
            .expect("UCQ rewriting")
    });
    totals.add(&rewriting.stats, rewriting.ucq.size());
    (query, Plan::Ucq(rewriting.ucq), rewriting.stats)
}

/// Execute a staged plan the way `InMemoryExecutor` would: the same thread
/// split, the given build cache and cardinality correction.
pub fn staged_execute(
    t: &mut Tracer,
    db: &Database,
    plan: &Plan,
    cache: &BuildCache,
    correction: f64,
    totals: &mut ExecTotals,
) -> Tuples {
    // `kb::executor::PARALLEL_THRESHOLD`: unions this wide fan out across
    // disjuncts, narrower ones split each join's probe side.
    const PARALLEL_THRESHOLD: usize = 32;
    match plan {
        Plan::Ucq(ucq) => {
            let (threads, intra) = if ucq.size() >= PARALLEL_THRESHOLD {
                (cores(), 1)
            } else {
                (1, cores())
            };
            let (tuples, metrics) = t.span("sql.execute_ucq", |_| {
                execute_ucq_intra(db, ucq, threads, intra, cache, correction)
            });
            totals.add(&metrics);
            tuples
        }
        Plan::Program(program) => {
            let threads = if program.num_rules() >= PARALLEL_THRESHOLD {
                cores()
            } else {
                1
            };
            let (tuples, metrics) = t.span("sql.execute_program", |_| {
                execute_program_shared(db, program, threads, cache).expect("program executes")
            });
            totals.add_program(&metrics);
            tuples
        }
    }
}
