//! Execution: one path per prepared query.
//!
//! The paper reaches certain answers in one of two ways: it evaluates the
//! perfect rewriting over D when Σ is FO-rewritable, and otherwise (no
//! finite UCQ rewriting is guaranteed) it chases. [`ExecutorKind`] names
//! those two backends; the knowledge base picks one from its
//! classification at build time, and callers can override it per call
//! with [`KnowledgeBase::execute_on`]. SQL text is not a backend:
//! [`KnowledgeBase::sql`] renders the compiled form the same `target`
//! picks.
//!
//! Every `execute*` and `answer*` entry point ends in one private `run`,
//! which matches on the backend once. The in-memory backend then matches
//! on one `Target` — the flat UCQ or the non-recursive Datalog program,
//! chosen per query by the knowledge base's
//! [`Strategy`](super::Strategy) in one place.

use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use nyaya_chase::{answers, chase};
use nyaya_core::par::cores;
use nyaya_core::{DatalogProgram, Predicate, Term};
use nyaya_sql::{execute_program_shared, execute_ucq_intra, ExecMetrics, ProgramMetrics};

use super::error::NyayaError;
use super::update::Snapshot;
use super::{CompiledProgram, CompiledRewriting, KnowledgeBase, PreparedQuery};

/// Which backend a [`KnowledgeBase`] routes execution to.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ExecutorKind {
    /// Evaluate the compiled form — the UCQ rewriting or the
    /// non-recursive Datalog program — on the in-process relational
    /// engine.
    InMemory,
    /// Certain answers via the chase — no rewriting involved. The fallback
    /// for ontologies where no finite perfect rewriting is guaranteed.
    Chase,
}

/// The result of executing a prepared query on some backend.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answers {
    /// Name of the backend that produced this result: `in-memory`,
    /// `program` or `chase`.
    pub backend: &'static str,
    /// Answer tuples.
    pub tuples: BTreeSet<Vec<Term>>,
    /// False when the chase was truncated by its budget, so the tuples
    /// are a subset of the certain answers.
    pub complete: bool,
}

/// Unions with at least this many disjuncts (and programs with at least
/// this many rules) run on the engine's parallel path; smaller ones stay
/// sequential, where thread spawn overhead would dominate.
pub(crate) const PARALLEL_THRESHOLD: usize = 32;

/// The facade's one thread-routing policy: the engine's `(threads, intra)`
/// budgets for a union of `width` disjuncts (or a program of `width`
/// rules, which has no use for `intra`).
///
/// Wide unions always get at least two workers ([`cores`] is floored at
/// 2) so the routing decision, and the `KbStats` counter built on it, is
/// the same on every host. On a single core the chunked workers cost a
/// few percent over sequential; on multi-core hosts — the deployment
/// target for hundred-disjunct rewritings — they win.
///
/// Narrow unions get the cores the other way: intra-query morsel
/// parallelism splits each join step's probe side across workers once it
/// holds at least two morsels. On the 2-core bench host that split wins
/// on both workloads that reach it: a variant that split a step only when
/// it built its build side (so `lubm_join`'s warm rounds, all cache hits
/// and merges, ran sequentially) read `lubm_join` `ops_per_s` 49.0
/// against 52.8 and `lubm_rw` `alt_ms` 54.2 against 52.8 ms, better in 0
/// of 6 alternating pairs on each (docs/ARCHITECTURE.md, "One join step
/// and who drives it"). Tiny intermediates never spawn (the engine's
/// 2-morsel floor), so point queries stay sequential.
pub(super) fn thread_budgets(width: usize) -> (usize, usize) {
    if width >= PARALLEL_THRESHOLD {
        (cores(), 1)
    } else {
        (1, cores())
    }
}

/// The compiled form a prepared query executes as (Sections 2 and 8).
pub(super) enum Target {
    /// The flat perfect UCQ rewriting.
    Ucq(Arc<CompiledRewriting>),
    /// The non-recursive Datalog program hiding the UCQ's DNF.
    Program(Arc<CompiledProgram>),
}

impl Target {
    /// Every predicate the compiled form reads, sorted — the answer
    /// cache fingerprints snapshots over exactly this set.
    fn touched(&self) -> &[Predicate] {
        match self {
            Target::Ucq(compiled) => &compiled.touched,
            Target::Program(program) => &program.touched,
        }
    }

    /// What [`thread_budgets`] routes on: a union's disjuncts, or a
    /// program's rules.
    fn width(&self) -> usize {
        match self {
            Target::Ucq(compiled) => compiled.ucq.cqs.len(),
            Target::Program(program) => program.program.num_rules(),
        }
    }
}

impl KnowledgeBase {
    /// The [`Target`] `query` runs as under this knowledge base's
    /// [`Strategy`](super::Strategy), compiled (or served from its cache
    /// entry) on the way.
    pub(super) fn target(&self, query: &PreparedQuery) -> Result<Target, NyayaError> {
        Ok(match self.execution_plan(query)? {
            Some(program) => Target::Program(program),
            None => Target::Ucq(self.rewriting(query)?),
        })
    }

    /// Evaluate `program` over `snapshot` on up to `threads` workers and
    /// record the run: the program target of [`run`](Self::run), and
    /// [`KnowledgeBase::execute_program`].
    pub(super) fn run_program(
        &self,
        snapshot: &Snapshot,
        program: &DatalogProgram,
        threads: usize,
    ) -> Result<BTreeSet<Vec<Term>>, NyayaError> {
        let db = snapshot.database();
        let (tuples, metrics) =
            execute_program_shared(db, program, threads, snapshot.build_cache())?;
        let ProgramMetrics {
            materialized_tuples,
            rows,
            threads,
            build_cache_hits,
            build_cache_misses,
            merge_joins,
            morsel_tasks,
            elapsed,
            ..
        } = metrics;
        let join_work = ExecMetrics {
            rows,
            threads,
            build_cache_hits,
            build_cache_misses,
            merge_joins,
            morsel_tasks,
            elapsed,
            ..ExecMetrics::default()
        };
        self.record_execution(&join_work, Some(materialized_tuples));
        Ok(tuples)
    }

    /// Execute `query` over `snapshot` on backend `kind`: the one
    /// execution path, and the one place executions are counted.
    pub(super) fn run(
        &self,
        query: &PreparedQuery,
        snapshot: &Snapshot,
        kind: ExecutorKind,
    ) -> Result<Answers, NyayaError> {
        self.counters.executions.fetch_add(1, Ordering::Relaxed);
        match kind {
            // Certain answers via the chase (Section 3.3) over the
            // snapshot's instance, skipping rewriting entirely: the
            // snapshot chases once, and each query is evaluated over that
            // chase. Incomplete (a lower bound) if the chase budget
            // truncated the search.
            ExecutorKind::Chase => {
                let outcome = snapshot.chased(|instance| {
                    self.counters.chase_runs.fetch_add(1, Ordering::Relaxed);
                    chase(instance, self.normalized_tgds(), self.chase_config)
                });
                Ok(Answers {
                    backend: "chase",
                    tuples: answers(&outcome.instance, query.query()),
                    complete: outcome.saturated,
                })
            }
            // The in-process engine, reading the snapshot's tables and
            // sharing its persistent build cache.
            ExecutorKind::InMemory => {
                let target = self.target(query)?;
                if let Some(hit) = self.cached_answer(query, snapshot, target.touched()) {
                    return Ok(hit);
                }
                let (threads, intra) = thread_budgets(target.width());
                let (backend, tuples) = match &target {
                    // Materialize each intensional predicate below the
                    // goal once instead of evaluating the DNF's disjuncts.
                    Target::Program(program) => (
                        "program",
                        self.run_program(snapshot, &program.program, threads)?,
                    ),
                    // Cost-based planning with the shape's learned
                    // cardinality correction; the run's estimated-vs-actual
                    // counts feed the next correction.
                    Target::Ucq(compiled) => {
                        let (tuples, metrics) = execute_ucq_intra(
                            snapshot.database(),
                            &compiled.ucq,
                            threads,
                            intra,
                            snapshot.build_cache(),
                            self.plan_correction(query),
                        );
                        self.record_execution(&metrics, None);
                        self.record_feedback(query, &metrics);
                        ("in-memory", tuples)
                    }
                };
                let answers = Answers {
                    backend,
                    tuples,
                    complete: true,
                };
                self.store_answer(query, snapshot, target.touched(), &answers);
                Ok(answers)
            }
        }
    }
}
