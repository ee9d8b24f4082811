use std::borrow::Cow;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock, PoisonError};

use nyaya_core::{CanonicalKey, ConjunctiveQuery, Predicate};
use nyaya_parser::parse_query;
use nyaya_rewrite::{
    estimate_dnf_bound, interaction_clusters, nr_datalog_rewrite_with, quonto_rewrite,
    requiem_rewrite, tgd_rewrite_with, EliminationContext, RewriteOptions, RewriteStats,
};
use nyaya_sql::ExecMetrics;

use super::cache::{Correction, QueryEntry, ANSWER_CACHE_PER_QUERY, ANSWER_CACHE_PER_TEMPLATE};
use super::template::Shape;
use super::{
    Algorithm, Answers, CompiledProgram, CompiledRewriting, KnowledgeBase, NyayaError, Snapshot,
    Strategy, DEFAULT_PROGRAM_THRESHOLD,
};

/// A query compiled against a [`KnowledgeBase`].
///
/// Holds the original CQ, the engine that will compile it, and its
/// template: the query with every constant the ontology never mentions
/// replaced by a parameter, beside the constants those parameters stand
/// for. Everything compiled or learned for the template — rewriting,
/// program, [`Strategy::Auto`] choice, plan correction, cached answers —
/// lives in the knowledge base's one cache entry for it, produced lazily
/// by the first executor that needs it and shared by every handle with an
/// α-equivalent template — except the plan correction of a handle that
/// binds constants, which the handle learns itself (see
/// [`KnowledgeBase::plan_correction`]). The handle binds its constants
/// into the compiled forms once and keeps those, and a reference to the
/// entry, inline, so re-executing it takes no cache lock. The slots
/// belong to the knowledge base that prepared the handle: executing it
/// against a *different* knowledge base re-templates the query against
/// that base's ontology, goes through that base's own entry and never
/// touches the slots, instead of silently serving a rewriting from the
/// wrong Σ.
pub struct PreparedQuery {
    pub(super) query: ConjunctiveQuery,
    algorithm: Algorithm,
    /// `query` as the base that prepared it compiles it.
    shape: Shape,
    /// Identity of the [`KnowledgeBase`] whose `prepare` produced this.
    kb_id: u64,
    /// That base's entry for this query's shape, filled on first use.
    entry: OnceLock<Arc<QueryEntry>>,
    /// The entry's rewriting and program with `shape`'s constants bound,
    /// filled on first use when there are any (otherwise the entry's own
    /// forms are served).
    bound_rewriting: OnceLock<Arc<CompiledRewriting>>,
    bound_program: OnceLock<Arc<CompiledProgram>>,
    /// The plan correction learned from this handle's executions when it
    /// binds constants (see [`KnowledgeBase::plan_correction`]).
    bound_correction: Correction,
}

impl std::fmt::Debug for PreparedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let compiled = self
            .entry
            .get()
            .is_some_and(|e| e.rewriting.get().is_some());
        f.debug_struct("PreparedQuery")
            .field("query", &self.query.to_string())
            .field("algorithm", &self.algorithm)
            .field("compiled", &compiled)
            .finish()
    }
}

impl PreparedQuery {
    /// The query as handed to [`KnowledgeBase::prepare`].
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// The engine that compiles this query.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The canonical (α-renaming-invariant) cache key: that of the
    /// query's template, so queries differing only in constants the
    /// ontology never mentions share it.
    pub fn key(&self) -> &CanonicalKey {
        &self.shape.key
    }
}

impl KnowledgeBase {
    // ---- prepared queries --------------------------------------------

    /// Prepare a CQ for repeated execution with the default engine.
    pub fn prepare(&self, query: &ConjunctiveQuery) -> Result<PreparedQuery, NyayaError> {
        self.prepare_with(query, self.default_algorithm)
    }

    /// Prepare a CQ with an explicit rewriting engine.
    pub fn prepare_with(
        &self,
        query: &ConjunctiveQuery,
        algorithm: Algorithm,
    ) -> Result<PreparedQuery, NyayaError> {
        if query.body.is_empty() {
            return Err(NyayaError::EmptyQuery);
        }
        self.counters.prepared.fetch_add(1, Ordering::Relaxed);
        Ok(PreparedQuery {
            shape: Shape::of(query, &self.sigma_constants),
            query: query.clone(),
            algorithm,
            kb_id: self.id,
            entry: OnceLock::new(),
            bound_rewriting: OnceLock::new(),
            bound_program: OnceLock::new(),
            bound_correction: Correction::default(),
        })
    }

    /// Parse and prepare a query, e.g. `"q(A) :- person(A)."`.
    pub fn prepare_text(&self, source: &str) -> Result<PreparedQuery, NyayaError> {
        let query = parse_query(source).map_err(|e| NyayaError::parse("datalog\u{b1}", e))?;
        self.prepare(&query)
    }

    /// The perfect rewriting of a prepared query — compiled for its
    /// template on first use, then served from the cache (keyed by the
    /// template's canonical key and engine, so α-equivalent queries and
    /// queries differing only in constants Σ never mentions share one
    /// compile), with the query's own constants bound.
    pub fn rewriting(&self, query: &PreparedQuery) -> Result<Arc<CompiledRewriting>, NyayaError> {
        let (shape, entry) = self.entry(query);
        let compiled = match entry.rewriting.get() {
            Some(compiled) => {
                self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                Arc::clone(compiled)
            }
            None => {
                self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
                let compiled = self.compile(&shape.template, query.algorithm)?;
                // Racing misses both compile; the first to store wins for both.
                Arc::clone(entry.rewriting.get_or_init(|| Arc::new(compiled)))
            }
        };
        Ok(self.bind(
            query,
            &shape,
            &query.bound_rewriting,
            compiled,
            Shape::bind_rewriting,
        ))
    }

    /// `query`'s shape on this knowledge base and the cache entry it is
    /// compiled in — the one place a handle's owner is checked. A handle
    /// this base prepared brings its own shape and fills its inline slot
    /// on first use; a handle prepared elsewhere is re-templated against
    /// this base's Σ and goes through this base's map every time, never
    /// touching the slot, which holds what another Σ compiled.
    pub(super) fn entry<'q>(&self, query: &'q PreparedQuery) -> (Cow<'q, Shape>, Arc<QueryEntry>) {
        let shared = |shape: &Shape| {
            // The map only memoizes: poisoning cannot leave a torn entry
            // visible, so both sides recover.
            let key = (shape.key.clone(), query.algorithm);
            if let Some(entry) = self
                .entries
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .get(&key)
            {
                return Arc::clone(entry);
            }
            self.entries
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(key)
        };
        if query.kb_id == self.id {
            let entry = query.entry.get_or_init(|| shared(&query.shape));
            (Cow::Borrowed(&query.shape), Arc::clone(entry))
        } else {
            let shape = Shape::of(&query.query, &self.sigma_constants);
            let entry = shared(&shape);
            (Cow::Owned(shape), entry)
        }
    }

    /// `compiled`, the entry's form of `query`'s template, for `query`
    /// itself: the entry's own `Arc` when the shape binds no constant,
    /// else that form with the constants bound — once per handle
    /// (memoized in `slot`) when this base prepared it.
    fn bind<T>(
        &self,
        query: &PreparedQuery,
        shape: &Shape,
        slot: &OnceLock<Arc<T>>,
        compiled: Arc<T>,
        bind: fn(&Shape, &T) -> T,
    ) -> Arc<T> {
        if shape.bindings.is_empty() {
            return compiled;
        }
        let bound = || {
            self.counters.template_binds.fetch_add(1, Ordering::Relaxed);
            Arc::new(bind(shape, &compiled))
        };
        if query.kb_id == self.id {
            Arc::clone(slot.get_or_init(bound))
        } else {
            bound()
        }
    }

    /// The [`RewriteOptions`] this knowledge base compiles with: shared
    /// budget, hidden predicates and minimization across all engines, and
    /// the default worker cap; elimination only for NY⋆ (the baselines
    /// ignore it).
    fn rewrite_options(&self, algorithm: Algorithm) -> RewriteOptions {
        RewriteOptions {
            elimination: algorithm == Algorithm::NyayaStar,
            nc_pruning: self.nc_pruning,
            max_queries: self.max_queries,
            hidden_predicates: self.hidden.clone(),
            minimize: self.minimize_rewritings,
            ..RewriteOptions::default()
        }
    }

    /// Fold one compile's counters into the lifetime stats.
    fn record_compile(&self, stats: &RewriteStats) {
        let c = &self.counters;
        c.rewrite_micros
            .fetch_add(stats.rewrite_micros, Ordering::Relaxed);
        c.rewrite_explored
            .fetch_add(stats.explored as u64, Ordering::Relaxed);
        c.subsumption_checks_avoided
            .fetch_add(stats.subsumption_avoided as u64, Ordering::Relaxed);
        if stats.workers > 1 {
            c.rewrites_parallel.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Run one rewriting engine, uncached. Budget exhaustion is an error:
    /// a truncated rewriting is unsound to execute as if it were perfect.
    fn compile(
        &self,
        query: &ConjunctiveQuery,
        algorithm: Algorithm,
    ) -> Result<CompiledRewriting, NyayaError> {
        let options = self.rewrite_options(algorithm);
        let rewriting = match algorithm {
            Algorithm::Nyaya | Algorithm::NyayaStar => tgd_rewrite_with(
                query,
                &self.normalization.tgds,
                &self.ontology.ncs,
                &options,
                self.elimination.as_ref(),
            )?,
            Algorithm::QuOnto => quonto_rewrite(query, &self.normalization.tgds, &options)?,
            Algorithm::Requiem => requiem_rewrite(query, &self.normalization.tgds, &options)?,
        };
        self.record_compile(&rewriting.stats);
        if rewriting.stats.budget_exhausted {
            return Err(NyayaError::BudgetExhausted {
                explored: rewriting.stats.explored,
                budget: self.max_queries,
            });
        }
        let mut touched: Vec<Predicate> = rewriting
            .ucq
            .iter()
            .flat_map(|cq| cq.body.iter().map(|a| a.pred))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        Ok(CompiledRewriting {
            ucq: rewriting.ucq,
            stats: rewriting.stats,
            touched,
        })
    }

    /// Rewrite a prepared query into a non-recursive Datalog program
    /// (Sections 2 and 8) — compiled for its template on first use, then
    /// served from the query shape's cache entry beside its
    /// [`CompiledRewriting`] (TBox-only, so every data write leaves it
    /// intact), with the query's own constants bound.
    pub fn program(&self, query: &PreparedQuery) -> Result<Arc<CompiledProgram>, NyayaError> {
        let (shape, entry) = self.entry(query);
        let compiled = self.template_program(&shape, query.algorithm, &entry)?;
        Ok(self.bind(
            query,
            &shape,
            &query.bound_program,
            compiled,
            Shape::bind_program,
        ))
    }

    /// The program of `shape`'s template, compiled once into `entry`.
    fn template_program(
        &self,
        shape: &Shape,
        algorithm: Algorithm,
        entry: &QueryEntry,
    ) -> Result<Arc<CompiledProgram>, NyayaError> {
        if let Some(compiled) = entry.program.get() {
            return Ok(Arc::clone(compiled));
        }
        let options = self.rewrite_options(algorithm);
        let out = nr_datalog_rewrite_with(
            &shape.template,
            &self.normalization.tgds,
            &self.ontology.ncs,
            &options,
            self.elimination.as_ref(),
        )?;
        self.record_compile(&out.stats);
        let c = &self.counters;
        c.program_compiles.fetch_add(1, Ordering::Relaxed);
        c.program_rules
            .fetch_add(out.stats.program_rules as u64, Ordering::Relaxed);
        c.program_strata
            .fetch_add(out.stats.program_strata as u64, Ordering::Relaxed);
        if out.stats.budget_exhausted {
            return Err(NyayaError::BudgetExhausted {
                explored: out.stats.explored,
                budget: self.max_queries,
            });
        }
        let mut touched: Vec<Predicate> = out.program.base_predicates().into_iter().collect();
        touched.sort_unstable();
        let compiled = CompiledProgram {
            program: out.program,
            strategy: out.strategy,
            estimated_dnf: out.estimated_dnf,
            stats: out.stats,
            opt: out.opt,
            touched,
        };
        Ok(Arc::clone(entry.program.get_or_init(|| Arc::new(compiled))))
    }

    /// The execution form this query runs as under the knowledge base's
    /// [`Strategy`]: `None` for the flat UCQ, `Some(program)` for the
    /// program target. `Auto` decides per query — cheap syntactic
    /// interaction-cluster analysis first (a single-cluster body has no
    /// decomposition to exploit), then the program is compiled (its cost
    /// is the *sum* of the cluster rewritings, never more than the UCQ
    /// compile it replaces) and selected iff its estimated DNF reaches
    /// the program threshold. The decision is memoized per query shape.
    pub fn execution_plan(
        &self,
        query: &PreparedQuery,
    ) -> Result<Option<Arc<CompiledProgram>>, NyayaError> {
        let uses_program = match self.strategy {
            Strategy::Ucq => false,
            Strategy::Program => true,
            Strategy::Auto => {
                let (shape, entry) = self.entry(query);
                match entry.uses_program.get() {
                    Some(&choice) => choice,
                    None => {
                        let choice = self.auto_prefers_program(&shape, query.algorithm, &entry)?;
                        *entry.uses_program.get_or_init(|| choice)
                    }
                }
            }
        };
        if uses_program {
            self.program(query).map(Some)
        } else {
            Ok(None)
        }
    }

    /// The [`Strategy::Auto`] decision for one template, uncached.
    fn auto_prefers_program(
        &self,
        shape: &Shape,
        algorithm: Algorithm,
        entry: &QueryEntry,
    ) -> Result<bool, NyayaError> {
        // Cluster the same body the program rewriter will see: elimination
        // (NY⋆) can merge or drop atoms, changing the decomposition. The
        // context mirrors `nr_datalog_rewrite_with` exactly — including the
        // owned fallback when NY⋆ is forced on an ontology the builder did
        // not classify as linear — so this decision and the compile below
        // always cluster the same query.
        let eliminated;
        let q = if algorithm == Algorithm::NyayaStar {
            let owned;
            let ctx = match &self.elimination {
                Some(ctx) => ctx,
                None => {
                    owned = EliminationContext::new(&self.normalization.tgds);
                    &owned
                }
            };
            eliminated = ctx.eliminate(&shape.template);
            &eliminated
        } else {
            &shape.template
        };
        if interaction_clusters(q, &self.normalization.tgds).len() <= 1 {
            // Monolithic: the program is the DNF itself; compiling it costs
            // the full UCQ exploration with no size win to justify it.
            return Ok(false);
        }
        // Even with several clusters, a small ontology fan-out means the
        // flat DNF is cheap; the static path bound over-counts, so when it
        // is already under the threshold the true DNF certainly is — skip
        // the program compile without running any rewriting. (With NC
        // pruning active the compile can still pay off by *proving*
        // unsatisfiability, so only the real `estimated_dnf` decides.)
        if !self.nc_pruning
            && estimate_dnf_bound(q, &self.normalization.tgds) < DEFAULT_PROGRAM_THRESHOLD
        {
            return Ok(false);
        }
        let program = self.template_program(shape, algorithm, entry)?;
        // estimated_dnf == 0 is a *proof of unsatisfiability* (some cluster
        // rewrote to the empty union): serve the cached empty program
        // rather than falling back to the flat path, which would explore
        // the full DNF product — including the blowup clusters the program
        // compile deliberately never visited.
        Ok(program.estimated_dnf == 0 || program.estimated_dnf >= DEFAULT_PROGRAM_THRESHOLD)
    }

    /// Consult the exact answer cache: serve a stored answer iff the
    /// snapshot's per-predicate write epochs over `touched` and the
    /// query's bound constants equal a stored entry's — which proves (see
    /// [`Snapshot::pred_epoch`]) the touched tables are bit-identical to
    /// when that answer was computed for these constants, so the answer
    /// itself is too. Counts a hit or a miss;
    /// `None` (without counting) when the cache is disabled.
    pub(super) fn cached_answer(
        &self,
        query: &PreparedQuery,
        snapshot: &Snapshot,
        touched: &[Predicate],
    ) -> Option<Answers> {
        if !self.answer_cache_enabled {
            return None;
        }
        let (shape, entry) = self.entry(query);
        let hit = entry.answer(&shape.fingerprint(snapshot, touched));
        let counter = match hit {
            Some(_) => &self.counters.cache_answer_hits,
            None => &self.counters.cache_answer_misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Store one freshly executed answer set in the exact answer cache,
    /// tagged with the query's bound constants and the snapshot's epoch
    /// fingerprint over `touched`, in the ring of the query shape's entry:
    /// [`ANSWER_CACHE_PER_QUERY`] sets for a query that binds nothing,
    /// [`ANSWER_CACHE_PER_TEMPLATE`] for a template every bound constant
    /// shares.
    pub(super) fn store_answer(
        &self,
        query: &PreparedQuery,
        snapshot: &Snapshot,
        touched: &[Predicate],
        answers: &Answers,
    ) {
        if self.answer_cache_enabled {
            let (shape, entry) = self.entry(query);
            let capacity = if shape.bindings.is_empty() {
                ANSWER_CACHE_PER_QUERY
            } else {
                ANSWER_CACHE_PER_TEMPLATE
            };
            entry.store(shape.fingerprint(snapshot, touched), answers, capacity);
        }
    }

    /// The learned cardinality-correction factor for this query: `1.0`
    /// until an execution misses its estimate by ≥
    /// [`REPLAN_RATIO`](super::REPLAN_RATIO), the multiplier applied to
    /// join estimates on every re-plan afterwards.
    /// A query that binds constants into its template learns in its own
    /// handle, not in the entry every constant shares — a miss on one
    /// constant's rows says nothing about another's — so a held handle
    /// re-plans and a fresh one starts at `1.0` (as does a handle executed
    /// on a base that did not prepare it).
    pub fn plan_correction(&self, query: &PreparedQuery) -> f64 {
        let (shape, entry) = self.entry(query);
        if shape.bindings.is_empty() {
            entry.correction.get()
        } else if query.kb_id == self.id {
            query.bound_correction.get()
        } else {
            1.0
        }
    }

    /// Feed one execution's estimated-vs-actual row counts back into the
    /// planner: a miss by ≥ [`REPLAN_RATIO`](super::REPLAN_RATIO) updates
    /// the query's correction (see [`plan_correction`](Self::plan_correction)
    /// for where it lives) and ticks `plan_replans`.
    pub(super) fn record_feedback(&self, query: &PreparedQuery, metrics: &ExecMetrics) {
        let (shape, entry) = self.entry(query);
        let ratio = metrics.rows.max(1) as f64 / metrics.estimated_rows.max(1) as f64;
        let learned = if shape.bindings.is_empty() {
            entry.correction.learn(ratio)
        } else {
            query.kb_id == self.id && query.bound_correction.learn(ratio)
        };
        if learned {
            self.counters.plan_replans.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::cache::MAX_QUERY_ENTRIES;
    use super::super::tests::PROGRAM;
    use super::*;

    #[test]
    fn the_entry_map_drops_unheld_entries_past_its_bound() {
        let kb = KnowledgeBase::from_program_text(PROGRAM).unwrap();
        let entries = || kb.entries.read().unwrap().values().count();
        let held: Vec<PreparedQuery> = (0..3)
            .map(|i| {
                let q = kb.prepare_text(&format!("q(X) :- held{i}(X).")).unwrap();
                kb.execute(&q).unwrap();
                q
            })
            .collect();
        // Distinct shapes, each answered through a handle dropped at once.
        for i in 0..3 * MAX_QUERY_ENTRIES {
            kb.answer_text(&format!("q(X) :- shape{i}(X).")).unwrap();
            assert!(entries() <= MAX_QUERY_ENTRIES, "{} entries", entries());
        }
        // A held handle keeps its entry, in the map, compiled: executing it
        // again recompiles nothing.
        let misses = kb.stats().cache_misses;
        for q in &held {
            let (_, entry) = kb.entry(q);
            assert!(entry.rewriting.get().is_some());
            let map = kb.entries.read().unwrap();
            assert!(map.values().any(|e| Arc::ptr_eq(e, &entry)));
            drop(map);
            kb.execute(q).unwrap();
        }
        assert_eq!(kb.stats().cache_misses, misses);
    }

    #[test]
    fn entries_held_past_the_bound_cost_no_sweep_per_new_shape() {
        let kb = KnowledgeBase::from_program_text(PROGRAM).unwrap();
        let entries = || kb.entries.read().unwrap().values().count();
        let held: Vec<PreparedQuery> = (0..MAX_QUERY_ENTRIES + 100)
            .map(|i| {
                let q = kb.prepare_text(&format!("q(X) :- held{i}(X).")).unwrap();
                kb.execute(&q).unwrap();
                q
            })
            .collect();
        assert_eq!(entries(), held.len());
        // The sweep that found every entry held is not repeated for each
        // new shape: unheld shapes stay compiled until the map doubles.
        let shape = |i: usize| format!("q(X) :- shape{i}(X).");
        for i in 0..50 {
            kb.answer_text(&shape(i)).unwrap();
        }
        let misses = kb.stats().cache_misses;
        for i in 0..50 {
            kb.answer_text(&shape(i)).unwrap();
        }
        assert_eq!(kb.stats().cache_misses, misses, "no entry was swept");
        // Past twice what the last sweep kept, the unheld ones go.
        let mut peak = 0;
        for i in 50..2 * held.len() {
            kb.answer_text(&shape(i)).unwrap();
            peak = peak.max(entries());
        }
        assert_eq!(peak, 2 * held.len());
        assert!(entries() < peak, "{} entries", entries());
        assert!(held.iter().all(|q| kb.entry(q).1.rewriting.get().is_some()));
    }
}
