//! Pluggable execution backends.
//!
//! The paper's pipeline ends with "submit the rewriting as a standard SQL
//! query to the DBMS holding D" — but which engine holds D varies: the
//! in-process relational engine, an external DBMS that only wants SQL text,
//! or (for ontologies outside the FO-rewritable classes, where no finite
//! UCQ rewriting exists) the chase. Each of those is an [`Executor`]; the
//! knowledge base picks one from its [`Classification`] and callers can
//! override per call via [`KnowledgeBase::execute_with`].
//!
//! [`Classification`]: nyaya_core::Classification
//! [`KnowledgeBase::execute_with`]: crate::KnowledgeBase::execute_with

use std::collections::BTreeSet;

use nyaya_chase::certain_answers;
use nyaya_core::Term;
use nyaya_sql::{execute_program_shared, execute_ucq_intra, program_to_sql, ucq_to_sql};

use super::error::NyayaError;
use super::update::Snapshot;
use super::{KnowledgeBase, PreparedQuery};

/// Which backend a [`KnowledgeBase`] routes execution to.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ExecutorKind {
    /// Pick from the ontology's classification at build time:
    /// FO-rewritable ⇒ [`InMemoryExecutor`], otherwise [`ChaseExecutor`].
    Auto,
    /// Evaluate the UCQ rewriting on the in-process relational engine.
    InMemory,
    /// Emit SQL text for an external DBMS; does not produce tuples.
    Sql,
    /// Certain answers via the chase — no rewriting involved. The fallback
    /// for ontologies where no finite perfect rewriting is guaranteed.
    Chase,
}

/// The result of executing a prepared query on some backend.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answers {
    /// Name of the backend that produced this result.
    pub backend: &'static str,
    /// Answer tuples (empty for the SQL-emission backend).
    pub tuples: BTreeSet<Vec<Term>>,
    /// The SQL a DBMS should run — populated by [`SqlExecutor`].
    pub sql: Option<String>,
    /// False when the backend could not guarantee completeness (chase
    /// truncated by its budget) or delegates the actual work (SQL text).
    pub complete: bool,
}

/// An execution backend for prepared queries.
pub trait Executor {
    /// Stable backend name, also recorded in [`Answers::backend`].
    fn name(&self) -> &'static str;

    /// Execute `query` against `kb`'s data.
    fn execute(&self, kb: &KnowledgeBase, query: &PreparedQuery) -> Result<Answers, NyayaError>;
}

/// Unions with at least this many disjuncts (and programs with at least
/// this many rules) run on the engine's parallel path; smaller ones stay
/// sequential, where thread spawn overhead would dominate.
pub const PARALLEL_THRESHOLD: usize = 32;

/// The facade's one thread-routing policy: the engine's `(threads, intra)`
/// budgets for a union of `width` disjuncts (or a program of `width`
/// rules, which has no use for `intra`).
///
/// Wide unions always get at least two workers so the routing decision
/// (and the `KbStats` counter built on it) is deterministic across hosts.
/// On a single core the chunked workers cost a few percent over
/// sequential; on multi-core hosts — the deployment target for
/// hundred-disjunct rewritings — they win.
///
/// Narrow unions get the cores the other way: intra-query morsel
/// parallelism splits each join step's probe side across workers once it
/// holds at least two morsels. On the 2-core bench host that split has
/// lost to `(1, 1)` on warm re-executed joins in every measurement made —
/// `lubm_join` `ops_per_s` 30.3 routed against 35.6 forced sequential, 10
/// of 10 alternating pairs after PR 17 (3× before it, for a reason that
/// had nothing to do with threads) — and won on `lubm_rw`'s invalidated
/// read (`alt_ms` 125 against 150 ms, 10 of 10). It stays until something
/// the code can observe separates the two; the tables and what was tried
/// are in docs/ARCHITECTURE.md, "Morsel-driven join kernels". Tiny
/// intermediates never spawn (the engine's 2-morsel floor), so point
/// queries stay sequential.
pub(crate) fn thread_budgets(width: usize) -> (usize, usize) {
    let avail = std::thread::available_parallelism().map_or(2, |n| n.get().max(2));
    if width >= PARALLEL_THRESHOLD {
        (avail, 1)
    } else {
        (1, avail)
    }
}

/// Evaluate the UCQ rewriting over the in-process relational engine —
/// compile once, then pure database work (the paper's OBDA story without
/// leaving the process).
///
/// Large unions (at least `PARALLEL_THRESHOLD` disjuncts) are routed through
/// the engine's multi-threaded path: the disjuncts of a perfect rewriting
/// are independent, and the workers share one build-side cache. Per-run
/// timing and row counters land in [`KbStats`](super::KbStats).
#[derive(Copy, Clone, Debug, Default)]
pub struct InMemoryExecutor;

impl InMemoryExecutor {
    /// Run against a **pinned** snapshot: the execution reads that
    /// epoch's tables and shares that epoch's persistent build cache
    /// (patterns hashed by earlier executions over the same snapshot are
    /// reused; patterns built here are left behind for later ones).
    pub fn execute_at(
        &self,
        kb: &KnowledgeBase,
        query: &PreparedQuery,
        snapshot: &Snapshot,
    ) -> Result<Answers, NyayaError> {
        // The knowledge base's Strategy may route this query to the
        // non-recursive Datalog target: materialize each intensional
        // predicate once (strata in parallel past the same threshold)
        // instead of evaluating the DNF's disjuncts.
        if let Some(program) = kb.execution_plan(query)? {
            // Exact answer cache: a fingerprint match over the program's
            // extensional predicates proves the cached answer equals
            // what this execution would produce.
            if let Some(hit) = kb.cached_answer(query, snapshot, &program.touched) {
                return Ok(hit);
            }
            let (threads, _) = thread_budgets(program.program.num_rules());
            let (tuples, metrics) = execute_program_shared(
                snapshot.database(),
                &program.program,
                threads,
                snapshot.build_cache(),
            )?;
            kb.record_program_execution(&metrics);
            let answers = Answers {
                backend: "program",
                tuples,
                sql: None,
                complete: true,
            };
            kb.store_answer(query, snapshot, &program.touched, &answers);
            return Ok(answers);
        }
        let compiled = kb.rewriting(query)?;
        if let Some(hit) = kb.cached_answer(query, snapshot, &compiled.touched) {
            return Ok(hit);
        }
        // Cost-based planning with the query's learned cardinality
        // correction; the run's estimated-vs-actual counts feed the next
        // correction (re-planning when the estimate was badly off).
        let (threads, intra) = thread_budgets(compiled.ucq.cqs.len());
        let (tuples, metrics) = execute_ucq_intra(
            snapshot.database(),
            &compiled.ucq,
            threads,
            intra,
            snapshot.build_cache(),
            kb.plan_correction(query),
        );
        kb.record_execution(&metrics);
        kb.record_feedback(query, &metrics);
        let answers = Answers {
            backend: self.name(),
            tuples,
            sql: None,
            complete: true,
        };
        kb.store_answer(query, snapshot, &compiled.touched, &answers);
        Ok(answers)
    }
}

impl Executor for InMemoryExecutor {
    fn name(&self) -> &'static str {
        "in-memory"
    }

    fn execute(&self, kb: &KnowledgeBase, query: &PreparedQuery) -> Result<Answers, NyayaError> {
        self.execute_at(kb, query, &kb.snapshot())
    }
}

/// Translate the UCQ rewriting to SQL text against the knowledge base's
/// catalog. Produces no tuples — the returned [`Answers::sql`] is meant for
/// the DBMS that actually holds the data.
#[derive(Copy, Clone, Debug, Default)]
pub struct SqlExecutor;

impl SqlExecutor {
    /// Emit SQL against a pinned snapshot's catalog (catalogs grow when
    /// updates introduce new predicates, so emission is epoch-dependent).
    pub fn execute_at(
        &self,
        kb: &KnowledgeBase,
        query: &PreparedQuery,
        snapshot: &Snapshot,
    ) -> Result<Answers, NyayaError> {
        // Under the program strategy, ship the program shape: one
        // `WITH`-CTE per intensional predicate and a goal SELECT joining
        // them, instead of unfolding into the flat UCQ text.
        if let Some(program) = kb.execution_plan(query)? {
            let sql = program_to_sql(&program.program, snapshot.catalog())?;
            return Ok(Answers {
                backend: self.name(),
                tuples: BTreeSet::new(),
                sql: Some(sql),
                complete: false,
            });
        }
        let compiled = kb.rewriting(query)?;
        let sql = ucq_to_sql(&compiled.ucq, snapshot.catalog()).ok_or_else(|| {
            // Name the first predicate the catalog is missing — the error
            // is actionable only if it says which table to register.
            let predicate = compiled
                .ucq
                .iter()
                .flat_map(|cq| cq.body.iter())
                .find(|a| snapshot.catalog().table(a.pred).is_none())
                .map(|a| a.pred.to_string())
                .unwrap_or_else(|| "<unknown>".to_owned());
            NyayaError::UnregisteredPredicate { predicate }
        })?;
        Ok(Answers {
            backend: self.name(),
            tuples: BTreeSet::new(),
            sql: Some(sql),
            complete: false,
        })
    }
}

impl Executor for SqlExecutor {
    fn name(&self) -> &'static str {
        "sql"
    }

    fn execute(&self, kb: &KnowledgeBase, query: &PreparedQuery) -> Result<Answers, NyayaError> {
        self.execute_at(kb, query, &kb.snapshot())
    }
}

/// Certain answers via the chase (Section 3.3). Skips rewriting entirely:
/// this is the sound fallback when the ontology is outside every
/// FO-rewritable class and a finite UCQ rewriting is not guaranteed to
/// exist. [`Answers::complete`] is false if the chase budget truncated the
/// search (answers are then a lower bound).
#[derive(Copy, Clone, Debug, Default)]
pub struct ChaseExecutor;

impl ChaseExecutor {
    /// Chase a pinned snapshot's instance (derived lazily from its
    /// database and memoized on the snapshot).
    pub fn execute_at(
        &self,
        kb: &KnowledgeBase,
        query: &PreparedQuery,
        snapshot: &Snapshot,
    ) -> Result<Answers, NyayaError> {
        let result = certain_answers(
            snapshot.instance(),
            kb.normalized_tgds(),
            query.query(),
            kb.chase_config(),
        );
        Ok(Answers {
            backend: self.name(),
            tuples: result.answers,
            sql: None,
            complete: result.saturated,
        })
    }
}

impl Executor for ChaseExecutor {
    fn name(&self) -> &'static str {
        "chase"
    }

    fn execute(&self, kb: &KnowledgeBase, query: &PreparedQuery) -> Result<Answers, NyayaError> {
        self.execute_at(kb, query, &kb.snapshot())
    }
}
