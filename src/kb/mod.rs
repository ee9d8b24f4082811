//! # The `KnowledgeBase` facade
//!
//! The paper's pipeline is *compile once, execute many*: normalize the
//! ontology (Lemmas 1–2), classify it (Section 4), rewrite each query into
//! a UCQ (Algorithm 1 / TGD-rewrite⋆) and hand the rewriting to a plain
//! database engine. This module packages that lifecycle behind one type so
//! callers stop re-deriving it from free functions:
//!
//! - [`KnowledgeBaseBuilder`] loads an ontology from any front end
//!   (Datalog±, DL-Lite_R, OWL 2 QL), then normalizes and classifies it
//!   **once** at [`build`](KnowledgeBaseBuilder::build) time — including
//!   the Section 6 [`EliminationContext`], which is derived from Σ alone
//!   and shared by every subsequent rewriting;
//! - [`KnowledgeBase::prepare`] turns a CQ into a [`PreparedQuery`],
//!   abstracting every constant Σ never mentions into a parameter; the
//!   perfect rewriting of that template is computed on first execution
//!   and memoized in the one cache entry of the query's shape (the
//!   template's canonical key and engine, so α-equivalent queries, and
//!   point queries that differ only in such a constant, share it), beside
//!   everything else learned about that shape: its program, the
//!   [`Strategy::Auto`] choice, the plan correction and the last few
//!   answer sets. Each handle binds its own constants into the compiled
//!   forms once (and learns its own plan correction when it binds any). Repeated queries never rewrite twice — [`KbStats`]
//!   exposes the hit/miss counters. A handle keeps its entry inline after
//!   first use; one guard makes a handle executed on a *different*
//!   knowledge base use that base's entry;
//! - every execution takes one path: the backend named by an
//!   [`ExecutorKind`] — the in-process relational engine, SQL-text
//!   emission for an external DBMS, or chase-based certain answers for
//!   ontologies outside the FO-rewritable classes — over the compiled
//!   form [`Strategy`] picks (the flat UCQ or the program). The default
//!   backend is picked from [`classify`] and can be overridden per call
//!   with [`KnowledgeBase::execute_on`];
//! - the ABox evolves **without recompiling anything**:
//!   [`KnowledgeBase::apply`] inserts/retracts facts in atomic
//!   [`UpdateBatch`]es, maintaining the engine's per-column indexes
//!   incrementally and publishing each new state as an epoch-stamped,
//!   immutable [`Snapshot`]. In-flight readers keep the epoch they
//!   started on; rewritings (TBox-only) survive every data write, and
//!   the engine's build-side cache is invalidated per-predicate rather
//!   than dropped.
//!
//! ```
//! use nyaya::{Algorithm, KnowledgeBase};
//!
//! let kb = KnowledgeBase::builder()
//!     .program_text(
//!         "sigma: has_stock(X, Y) -> stock_portf(Y, X, Z).
//!          has_stock(ibm_s, fund1).",
//!     )
//!     .unwrap()
//!     .algorithm(Algorithm::NyayaStar)
//!     .build()
//!     .unwrap();
//! let q = kb.prepare_text("q(A, B) :- stock_portf(B, A, D).").unwrap();
//! let answers = kb.execute(&q).unwrap();
//! assert_eq!(answers.tuples.len(), 1);
//! assert_eq!(kb.stats().cache_misses, 1);
//! ```

mod cache;
mod durability;
mod error;
mod executor;
mod stats;
mod subscribe;
mod template;
mod update;

use std::borrow::Cow;
use std::collections::{HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock, Weak};

use nyaya_chase::{check_consistency, ChaseConfig, Consistency};
use nyaya_core::{
    apply_select, classify, normalize, Atom, CanonicalKey, Classification, ConjunctiveQuery,
    DatalogProgram, Normalization, Ontology, Predicate, SelectOptions, Symbol, Term, Tgd,
};
use nyaya_parser::{parse_dl_lite, parse_owl_ql, parse_program, parse_query};
use nyaya_rewrite::{
    estimate_dnf_bound, interaction_clusters, nr_datalog_rewrite_with, quonto_rewrite,
    requiem_rewrite, tgd_rewrite_with, EliminationContext, ProgramOptStats, ProgramStrategy,
    RewriteOptions, RewriteStats,
};
use nyaya_sql::{BaseDeltas, BuildCache, Catalog, Database, ExecMetrics, MaterializedView};

use cache::{Correction, Entries, QueryEntry, ANSWER_CACHE_PER_QUERY, ANSWER_CACHE_PER_TEMPLATE};
use durability::Durability;
use executor::{thread_budgets, Target};
use stats::Counters;
use subscribe::SubscriptionInner;
use template::{sigma_constants, Shape};
use update::replay;

pub use error::NyayaError;
pub use executor::{Answers, ExecutorKind};
pub use nyaya_ledger::{LedgerHistory, SealedWalInfo, SegmentFlush, SegmentInfo};
pub use stats::{json_escape, KbStats};
pub use subscribe::{AnswerDiff, Subscription};
pub use update::{ApplyOutcome, Snapshot, UpdateBatch};

/// Which rewriting engine compiles prepared queries.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// TGD-rewrite (Algorithm 1) — sound and complete for arbitrary TGDs.
    Nyaya,
    /// TGD-rewrite⋆ — Algorithm 1 plus the Section 6 query elimination.
    /// Complete for linear TGDs (Theorem 10).
    NyayaStar,
    /// The QuOnto/PerfectRef-style baseline (exhaustive factorization).
    QuOnto,
    /// The Requiem-style resolution baseline (Skolemized existentials).
    Requiem,
}

impl Algorithm {
    /// Short label, as used in the paper's Table 1.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Nyaya => "NY",
            Algorithm::NyayaStar => "NY*",
            Algorithm::QuOnto => "QO",
            Algorithm::Requiem => "RQ",
        }
    }
}

/// Which compiled form a prepared query executes as (Sections 2 and 8):
/// the flat UCQ rewriting, or the non-recursive Datalog program that
/// hides the UCQ's disjunctive normal form inside intermediate rules.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Pick per query: compile the program when the query body splits into
    /// ≥ 2 interaction clusters and the estimated DNF size of the UCQ
    /// rewriting reaches the threshold
    /// ([`KnowledgeBaseBuilder::program_threshold`]); otherwise the UCQ.
    #[default]
    Auto,
    /// Always execute the flat UCQ rewriting.
    Ucq,
    /// Always compile and execute the non-recursive Datalog program.
    Program,
}

/// Default [`KnowledgeBaseBuilder::program_threshold`]: an estimated DNF
/// of this many CQs routes an [`Strategy::Auto`] query to the program
/// target. Below it, flat-UCQ execution (shared build sides, parallel
/// disjuncts) wins; far above it, the UCQ's size dominates everything.
pub const DEFAULT_PROGRAM_THRESHOLD: usize = 256;

/// Default [`KnowledgeBaseBuilder::flush_interval`]: a durable knowledge
/// base writes an index segment every this many applied batches. Smaller
/// intervals bound recovery replay tighter at the cost of more segment
/// I/O; the WAL keeps every batch either way.
pub(crate) const DEFAULT_FLUSH_INTERVAL: u64 = 64;

/// Cardinality-feedback trigger: when an execution's actual row count
/// differs from the cost plan's estimate by at least this factor (either
/// direction), the learned correction is updated and the query re-plans
/// on its next execution.
pub const REPLAN_RATIO: f64 = 8.0;

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
    query: ConjunctiveQuery,
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

/// A compiled perfect rewriting, as cached by the knowledge base.
#[derive(Clone)]
pub struct CompiledRewriting {
    /// The perfect UCQ rewriting of the prepared query.
    pub ucq: nyaya_core::UnionQuery,
    /// Engine counters from the run that produced it.
    pub stats: RewriteStats,
    /// Every predicate the rewriting reads (union of the disjunct
    /// bodies), sorted — the answer cache fingerprints snapshots over
    /// exactly this set.
    pub touched: Vec<Predicate>,
}

/// A compiled non-recursive Datalog program, the [`Strategy::Program`]
/// peer of [`CompiledRewriting`] — cached by the knowledge base under the
/// same canonical key, TBox-only like every rewriting (data writes never
/// invalidate it).
#[derive(Clone)]
pub struct CompiledProgram {
    /// The optimized program, equivalent to the perfect UCQ rewriting.
    pub program: DatalogProgram,
    /// How the query body decomposed (clusters vs monolithic).
    pub strategy: ProgramStrategy,
    /// Size of the flat UCQ the program hides (saturating product of the
    /// cluster rewriting sizes) — what [`Strategy::Auto`] compares against
    /// the program threshold.
    pub estimated_dnf: usize,
    /// Engine counters from the compile, program rules/strata included.
    pub stats: RewriteStats,
    /// What the program optimizer passes did.
    pub opt: ProgramOptStats,
    /// The extensional predicates the program reads (body predicates
    /// never defined by a rule head), sorted — the program path's answer
    /// dependency set, mirroring [`CompiledRewriting::touched`].
    pub touched: Vec<Predicate>,
}

/// Process-unique knowledge-base identities (see [`PreparedQuery::kb_id`]).
static NEXT_KB_ID: AtomicU64 = AtomicU64::new(0);

/// Builder for [`KnowledgeBase`] — see the [crate docs](crate).
pub struct KnowledgeBaseBuilder {
    ontology: Ontology,
    facts: Vec<Atom>,
    queries: Vec<ConjunctiveQuery>,
    algorithm: Option<Algorithm>,
    executor: ExecutorKind,
    show_aux: bool,
    nc_pruning: Option<bool>,
    max_queries: usize,
    minimize_rewritings: bool,
    strategy: Strategy,
    program_threshold: usize,
    chase_config: ChaseConfig,
    catalog: Option<Catalog>,
    durable_path: Option<PathBuf>,
    flush_interval: u64,
    answer_cache: bool,
}

impl Default for KnowledgeBaseBuilder {
    fn default() -> Self {
        KnowledgeBaseBuilder {
            ontology: Ontology::from_tgds(Vec::new()),
            facts: Vec::new(),
            queries: Vec::new(),
            algorithm: None,
            executor: ExecutorKind::Auto,
            show_aux: false,
            nc_pruning: None,
            max_queries: 500_000,
            minimize_rewritings: false,
            strategy: Strategy::Auto,
            program_threshold: DEFAULT_PROGRAM_THRESHOLD,
            chase_config: ChaseConfig::default(),
            catalog: None,
            durable_path: None,
            flush_interval: DEFAULT_FLUSH_INTERVAL,
            answer_cache: true,
        }
    }
}

impl KnowledgeBaseBuilder {
    /// An empty builder (no ontology, facts or queries loaded yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Load a Datalog± program: TGDs, NCs, KDs, facts and queries. Facts
    /// and queries accumulate; constraints extend the ontology.
    pub fn program_text(mut self, source: &str) -> Result<Self, NyayaError> {
        let program = parse_program(source).map_err(|e| NyayaError::parse("datalog\u{b1}", e))?;
        self.merge_ontology(program.ontology);
        self.facts.extend(program.facts);
        self.queries.extend(program.queries);
        Ok(self)
    }

    /// Load a DL-Lite_R axiom list (TBox only — no facts or queries).
    pub fn dl_lite_text(mut self, source: &str) -> Result<Self, NyayaError> {
        let ontology = parse_dl_lite(source).map_err(|e| NyayaError::parse("dl-lite", e))?;
        self.merge_ontology(ontology);
        Ok(self)
    }

    /// Load an OWL 2 QL document in functional-style syntax (TBox + ABox).
    pub fn owl_ql_text(mut self, source: &str) -> Result<Self, NyayaError> {
        let program = parse_owl_ql(source).map_err(|e| NyayaError::parse("owl2-ql", e))?;
        self.merge_ontology(program.ontology);
        self.facts.extend(program.facts);
        self.queries.extend(program.queries);
        Ok(self)
    }

    /// Load from a file, dispatching on extension: `.dl` ⇒ DL-Lite_R,
    /// `.owl`/`.ofn` ⇒ OWL 2 QL, anything else ⇒ Datalog±.
    pub fn file(self, path: impl AsRef<Path>) -> Result<Self, NyayaError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| NyayaError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        match path.extension().and_then(|e| e.to_str()) {
            Some("dl") => self.dl_lite_text(&text),
            Some("owl") | Some("ofn") => self.owl_ql_text(&text),
            _ => self.program_text(&text),
        }
    }

    /// Add a pre-built ontology (merged with anything already loaded).
    pub fn ontology(mut self, ontology: Ontology) -> Self {
        self.merge_ontology(ontology);
        self
    }

    /// Add raw TGDs.
    pub fn tgds(mut self, tgds: impl IntoIterator<Item = Tgd>) -> Self {
        self.ontology.tgds.extend(tgds);
        self
    }

    /// Add database facts.
    pub fn facts(mut self, facts: impl IntoIterator<Item = Atom>) -> Self {
        self.facts.extend(facts);
        self
    }

    /// Force a rewriting engine. Default: TGD-rewrite⋆ for linear
    /// ontologies, plain TGD-rewrite otherwise (elimination is only proven
    /// complete for linear TGDs — Theorem 10).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = Some(algorithm);
        self
    }

    /// Force an execution backend. Default ([`ExecutorKind::Auto`]):
    /// in-memory UCQ execution when the classification guarantees
    /// FO-rewritability, chase-based certain answers otherwise.
    pub fn executor(mut self, executor: ExecutorKind) -> Self {
        self.executor = executor;
        self
    }

    /// Keep the Lemma 1/2 auxiliary predicates in final rewritings (the
    /// paper's UX/AX/P5X mode, where auxiliaries are part of the schema).
    pub fn show_aux(mut self, show_aux: bool) -> Self {
        self.show_aux = show_aux;
        self
    }

    /// Enable/disable negative-constraint pruning (Section 5.1). Default:
    /// enabled iff the ontology has NCs.
    pub fn nc_pruning(mut self, nc_pruning: bool) -> Self {
        self.nc_pruning = Some(nc_pruning);
        self
    }

    /// Rewriting budget: maximum distinct queries explored per compile.
    pub fn max_queries(mut self, max_queries: usize) -> Self {
        self.max_queries = max_queries;
        self
    }

    /// Post-process every compiled rewriting with signature-indexed
    /// subsumption (answer-equivalent, possibly smaller UCQs; default
    /// off, keeping the raw Algorithm 1 output). The pass's counters
    /// surface in [`RewriteStats`] and [`KbStats`].
    pub fn minimize_rewritings(mut self, minimize: bool) -> Self {
        self.minimize_rewritings = minimize;
        self
    }

    /// Force an execution form for prepared queries: the flat UCQ
    /// rewriting, the non-recursive Datalog program, or (default) the
    /// per-query [`Strategy::Auto`] selection based on the estimated DNF
    /// size.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The [`Strategy::Auto`] threshold: queries whose estimated DNF
    /// (product of interaction-cluster rewriting sizes) reaches this many
    /// CQs compile to the program target instead of the flat UCQ. Default
    /// [`DEFAULT_PROGRAM_THRESHOLD`]; `0` routes every decomposable query
    /// to the program.
    pub fn program_threshold(mut self, threshold: usize) -> Self {
        self.program_threshold = threshold;
        self
    }

    /// Chase budgets for the consistency check and the chase backend.
    pub fn chase_config(mut self, config: ChaseConfig) -> Self {
        self.chase_config = config;
        self
    }

    /// Use an explicit relational catalog. Predicates it does not cover are
    /// still registered with default table/column names at build time.
    pub fn catalog(mut self, catalog: Catalog) -> Self {
        self.catalog = Some(catalog);
        self
    }

    /// Persist the ABox in a durable ledger rooted at `path` (created if
    /// absent): every applied batch is written to a checksummed,
    /// fsynced write-ahead log *before* its snapshot is published, and
    /// index segments bound recovery replay.
    ///
    /// If the directory already holds a ledger, [`build`](Self::build)
    /// **recovers** from it — the on-disk state wins and any facts
    /// staged on this builder are ignored (they were the epoch-0 seed of
    /// the run that created the ledger). A fresh directory is seeded
    /// with the builder's facts as epoch 0.
    ///
    /// Durable knowledge bases serve *any* historical epoch through
    /// [`KnowledgeBase::snapshot_at`], across restarts.
    pub fn durable(mut self, path: impl Into<PathBuf>) -> Self {
        self.durable_path = Some(path.into());
        self
    }

    /// How many applied batches between background index-segment flushes
    /// (default 64; `0` is treated as 1). Only
    /// meaningful together with [`durable`](Self::durable).
    pub fn flush_interval(mut self, interval: u64) -> Self {
        self.flush_interval = interval.max(1);
        self
    }

    /// Enable/disable the exact answer cache (default **on**). A hit
    /// requires the snapshot's per-predicate write epochs to match the
    /// stored entry over every predicate the query reads, so a cached
    /// answer is provably bit-identical to re-execution — disabling it
    /// only matters for workloads that *measure* re-execution (benchmark
    /// harnesses, planner-feedback tests).
    pub fn answer_cache(mut self, enabled: bool) -> Self {
        self.answer_cache = enabled;
        self
    }

    fn merge_ontology(&mut self, other: Ontology) {
        self.ontology.tgds.extend(other.tgds);
        self.ontology.ncs.extend(other.ncs);
        self.ontology.kds.extend(other.kds);
    }

    /// Normalize, classify and index the ontology — the compile-once half
    /// of the pipeline. Everything done here is done exactly once per
    /// knowledge base, never per query.
    ///
    /// Fails with [`NyayaError::NonGroundFact`] if a fact holds anything
    /// but constants: the database holds constants only.
    pub fn build(self) -> Result<KnowledgeBase, NyayaError> {
        check_constants(&self.facts)?;
        let classification = classify(&self.ontology.tgds);
        let normalization = normalize(&self.ontology.tgds);
        let algorithm = self.algorithm.unwrap_or(if classification.linear {
            Algorithm::NyayaStar
        } else {
            Algorithm::Nyaya
        });
        // The elimination context (Section 6) depends on Σ alone; built
        // here once and reused by every prepared query.
        let elimination = classification
            .linear
            .then(|| EliminationContext::new(&normalization.tgds));
        let hidden: HashSet<Predicate> = if self.show_aux {
            HashSet::new()
        } else {
            normalization.aux_predicates.clone()
        };
        let executor = self.executor.resolve(&classification);
        let mut catalog = self.catalog.unwrap_or_default();
        catalog.register_defaults(
            self.ontology
                .predicates()
                .into_iter()
                .chain(normalization.tgds.iter().flat_map(|t| t.predicates()))
                .chain(self.facts.iter().map(|f| f.pred))
                // Bundled queries may mention database predicates that no
                // TGD or fact touches — they still need tables for SQL.
                .chain(
                    self.queries
                        .iter()
                        .flat_map(|q| q.body.iter().map(|a| a.pred)),
                ),
        );
        let nc_pruning = self.nc_pruning.unwrap_or(!self.ontology.ncs.is_empty());
        let sigma_constants = sigma_constants(&self.ontology, &normalization.tgds);
        let mut database = Database::from_facts(self.facts.iter().cloned());
        let mut epoch = 0u64;
        let counters = Arc::new(Counters::default());
        let durability = match &self.durable_path {
            None => None,
            Some(path) => {
                let (durability, recovered) =
                    Durability::open(path, self.flush_interval, Arc::clone(&counters))?;
                match recovered {
                    // Fresh directory: the builder's facts become epoch 0,
                    // sealed immediately as the base segment so recovery
                    // always has something to replay from.
                    None => durability.seed(&database)?,
                    // Existing ledger: the durable state wins over any
                    // builder-staged facts (those seeded the run that
                    // created this ledger).
                    Some(state) => {
                        catalog.register_defaults(state.database.predicates());
                        database = state.database;
                        epoch = state.epoch;
                    }
                }
                Some(durability)
            }
        };
        let id = NEXT_KB_ID.fetch_add(1, Ordering::Relaxed);
        // Epoch 0 (or the recovered epoch): the build-time data, published
        // like any later epoch so readers and writers go through one code
        // path from the start.
        let snapshot = Arc::new(Snapshot::new(
            id,
            epoch,
            database,
            catalog,
            BuildCache::new(),
        ));
        Ok(KnowledgeBase {
            id,
            ontology: self.ontology,
            queries: self.queries,
            classification,
            normalization,
            elimination,
            hidden,
            sigma_constants,
            state: RwLock::new(snapshot),
            apply_lock: Mutex::new(()),
            chase_config: self.chase_config,
            nc_pruning,
            max_queries: self.max_queries,
            minimize_rewritings: self.minimize_rewritings,
            strategy: self.strategy,
            program_threshold: self.program_threshold,
            default_algorithm: algorithm,
            executor,
            entries: RwLock::default(),
            counters,
            durability,
            subscriptions: Mutex::new(Vec::new()),
            answer_cache_enabled: self.answer_cache,
        })
    }
}

/// A compiled ontological database: ontology, evolving data, and a
/// rewriting cache. See the [crate docs](crate) for the lifecycle.
///
/// The TBox-derived state (normalization, classification, elimination
/// context, compiled rewritings) is immutable for the lifetime of the
/// knowledge base. The data lives in an epoch-stamped [`Snapshot`]
/// published behind an `Arc`: [`apply`](Self::apply) builds the successor
/// off to the side and swaps it in, so readers never block and never see
/// a partial batch.
pub struct KnowledgeBase {
    /// Process-unique identity; ties [`PreparedQuery`] handles to their
    /// owning knowledge base.
    id: u64,
    ontology: Ontology,
    queries: Vec<ConjunctiveQuery>,
    classification: Classification,
    normalization: Normalization,
    elimination: Option<EliminationContext>,
    hidden: HashSet<Predicate>,
    /// Every constant Σ mentions: a prepared query's template keeps
    /// these and abstracts every other constant.
    sigma_constants: HashSet<Symbol>,
    /// The currently published data epoch. Read-locked only long enough
    /// to clone the `Arc`; write-locked only for the pointer swap.
    state: RwLock<Arc<Snapshot>>,
    /// Serializes writers. Readers never take it: they work off whatever
    /// snapshot was published when they started.
    apply_lock: Mutex<()>,
    chase_config: ChaseConfig,
    nc_pruning: bool,
    max_queries: usize,
    minimize_rewritings: bool,
    strategy: Strategy,
    program_threshold: usize,
    default_algorithm: Algorithm,
    executor: ExecutorKind,
    /// One entry per query shape — (canonical template, engine) — holding
    /// everything compiled or learned for it (see [`PreparedQuery`]).
    /// Reached only through [`entry`](Self::entry); bounded by
    /// [`Entries::get_or_insert`].
    entries: RwLock<Entries>,
    counters: Arc<Counters>,
    /// The durable-ledger layer, present iff the builder set
    /// [`durable`](KnowledgeBaseBuilder::durable).
    durability: Option<Durability>,
    /// Live standing queries ([`subscribe`](KnowledgeBase::subscribe)):
    /// [`apply`](KnowledgeBase::apply) propagates each batch's deltas
    /// into every registered view. Weak, so dropping a [`Subscription`]
    /// unregisters it (dead entries are pruned on each sweep).
    subscriptions: Mutex<Vec<Weak<SubscriptionInner>>>,
    /// Is the exact answer cache consulted by in-memory executions? An
    /// entry's stored answer is served only on an exact match of the
    /// snapshot's per-predicate write epochs — provably the same answer,
    /// never stale (see [`Snapshot::pred_epoch`]). Data writes need no
    /// invalidation sweep: a write bumps the touched predicates' epochs,
    /// so stale answers simply stop matching (and rotate out of the
    /// entry's small ring).
    answer_cache_enabled: bool,
}

impl std::fmt::Debug for KnowledgeBase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snapshot = self.snapshot();
        f.debug_struct("KnowledgeBase")
            .field("tgds", &self.ontology.tgds.len())
            .field("normalized_tgds", &self.normalization.tgds.len())
            .field("facts", &snapshot.len())
            .field("epoch", &snapshot.epoch())
            .field("classification", &self.classification)
            .field("algorithm", &self.default_algorithm)
            .field("executor", &self.executor)
            .finish_non_exhaustive()
    }
}

impl KnowledgeBase {
    /// Start building a knowledge base.
    pub fn builder() -> KnowledgeBaseBuilder {
        KnowledgeBaseBuilder::new()
    }

    /// One-call convenience: build from Datalog± program text.
    pub fn from_program_text(source: &str) -> Result<Self, NyayaError> {
        Self::builder().program_text(source)?.build()
    }

    /// One-call convenience: build from a program file (see
    /// [`KnowledgeBaseBuilder::file`] for the extension dispatch).
    pub fn from_file(path: impl AsRef<Path>) -> Result<Self, NyayaError> {
        Self::builder().file(path)?.build()
    }

    // ---- compile-once state ------------------------------------------

    /// The ontology as loaded (pre-normalization).
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// The Section 4 language-class membership, computed at build time.
    pub fn classification(&self) -> &Classification {
        &self.classification
    }

    /// The Lemma 1/2 normal form of the TGDs, computed at build time.
    pub fn normalized_tgds(&self) -> &[Tgd] {
        &self.normalization.tgds
    }

    /// Auxiliary predicates introduced by normalization.
    pub fn aux_predicates(&self) -> &HashSet<Predicate> {
        &self.normalization.aux_predicates
    }

    /// Predicates excluded from final rewritings (empty under `show_aux`).
    pub fn hidden_predicates(&self) -> &HashSet<Predicate> {
        &self.hidden
    }

    // ---- data state: snapshots and updates ---------------------------

    /// The currently published [`Snapshot`]. Pin it (keep the `Arc`) to
    /// read a consistent epoch across several operations while writers
    /// advance; see [`execute_at`](Self::execute_at).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        // The lock guards a pointer, swapped atomically by `apply`; a
        // poisoning panic cannot tear the Arc, so reads recover instead
        // of wedging every reader for the process's lifetime.
        Arc::clone(&self.state.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The currently published data epoch (0 until the first
    /// [`apply`](Self::apply)).
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// The current snapshot's facts, in deterministic (sorted) order.
    pub fn facts(&self) -> Vec<Atom> {
        self.snapshot().facts()
    }

    /// Apply a batch of ABox insertions and retractions atomically.
    ///
    /// The successor snapshot is built off to the side and published
    /// with a bumped epoch. A write costs O(batch): every table is an
    /// immutable base shared with the previous snapshot plus a small
    /// delta, and a written table copies its delta only (rows appended,
    /// rows dead, the posting lists of the cells the batch touched);
    /// untouched tables are shared whole. The exception is the rare
    /// apply that finds a delta grown past 1/64 of its base and folds it
    /// into a new base — O(table), counted in [`KbStats::table_folds`].
    /// In-flight readers keep the epoch they pinned; new reads
    /// observe either all of this batch or none of it. Compiled
    /// rewritings (TBox-only) are untouched; the engine's build-side
    /// cache drops exactly the patterns over predicates this batch
    /// actually changed.
    ///
    /// Returns an [`ApplyOutcome`] describing what changed, or
    /// [`NyayaError::NonGroundFact`] (publishing nothing) if any queued
    /// atom holds anything but constants. Writers are serialized with
    /// each other; they never block readers.
    pub fn apply(&self, batch: UpdateBatch) -> Result<ApplyOutcome, NyayaError> {
        check_constants(batch.retracts.iter().chain(&batch.inserts))?;
        // A poisoned apply lock means a writer panicked mid-batch —
        // possibly between the WAL append and the snapshot swap, leaving
        // disk ahead of memory. Applying more batches on top could fork
        // the epoch sequence, so writes are refused with a typed error;
        // reads over published snapshots are unaffected.
        let _writer = self
            .apply_lock
            .lock()
            .map_err(|_| NyayaError::Poisoned { what: "writer" })?;
        // Standing queries registered right now get this batch's diff.
        // Dead weak entries (dropped subscriptions) are pruned in passing.
        let mut standing: Vec<Arc<SubscriptionInner>> = Vec::new();
        {
            let mut subs = self
                .subscriptions
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            subs.retain(|weak| match weak.upgrade() {
                Some(inner) => {
                    standing.push(inner);
                    true
                }
                None => false,
            });
        }
        let track = !standing.is_empty();
        let current = self.snapshot();
        // COW: O(#predicates) here, then O(delta) per written table.
        let mut database = current.database().clone();
        let mut touched: HashSet<Predicate> = HashSet::new();
        // Net per-fact deltas for view maintenance: a fact both retracted
        // and re-inserted nets to zero and is never propagated.
        let mut net = BaseDeltas::new();
        let (mut retracted, mut inserted) = (0usize, 0usize);
        replay(
            &mut database,
            &batch.retracts,
            &batch.inserts,
            |fact, sign| {
                touched.insert(fact.pred);
                if sign < 0 {
                    retracted += 1;
                } else {
                    inserted += 1;
                }
                if track {
                    add_net(&mut net, fact, sign);
                }
            },
        );
        // A batch may introduce predicates no TGD, query or earlier fact
        // mentioned — they still need tables for SQL emission.
        let mut catalog = current.catalog().clone();
        catalog.register_defaults(touched.iter().copied());
        let (build_cache, invalidated) = current.build_cache().carried_over(&touched);
        let carried = build_cache.len();
        // Per-predicate write epochs (the answer cache's exactness
        // witness): written predicates stamp the new epoch, everything
        // else keeps the epoch of its last write.
        let mut pred_epochs = current.pred_epochs.clone();
        for pred in &touched {
            pred_epochs.insert(*pred, current.epoch() + 1);
        }
        let next = Arc::new(Snapshot::with_epochs(
            self.id,
            current.epoch() + 1,
            database,
            catalog,
            build_cache,
            current.base_epoch,
            pred_epochs,
        ));
        let outcome = ApplyOutcome {
            epoch: next.epoch(),
            inserted,
            retracted,
            builds_invalidated: invalidated,
            builds_carried_over: carried,
        };
        // Write-ahead: the batch must be on disk (fsynced) before the
        // snapshot becomes visible. If the append fails, nothing is
        // published — a batch is durable and visible, or neither.
        if let Some(durability) = &self.durability {
            durability.append_batch(next.epoch(), &batch)?;
        }
        // Like `snapshot`: the write guard only swaps the pointer, so a
        // poisoned lock is recovered rather than wedging all writers.
        *self.state.write().unwrap_or_else(PoisonError::into_inner) = Arc::clone(&next);
        if let Some(durability) = &self.durability {
            durability.maybe_flush(&next);
        }
        // Propagate this batch's net deltas through every standing query
        // (still under the apply lock, so subscriptions see every epoch
        // exactly once, in order). Each epoch pushes one diff per
        // subscription — empty diffs included, keeping the per-epoch
        // streams aligned with the epoch sequence.
        if track {
            let started = std::time::Instant::now();
            let mut added = 0u64;
            let mut removed = 0u64;
            for sub in &standing {
                let delta = sub
                    .view
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .propagate(
                        (current.database(), current.build_cache()),
                        (next.database(), next.build_cache()),
                        &net,
                    );
                added += delta.added.len() as u64;
                removed += delta.removed.len() as u64;
                sub.push(AnswerDiff {
                    epoch: next.epoch(),
                    added: delta.added,
                    removed: delta.removed,
                });
            }
            let c = &self.counters;
            c.subscription_diffs
                .fetch_add(standing.len() as u64, Ordering::Relaxed);
            c.ivm_added_tuples.fetch_add(added, Ordering::Relaxed);
            c.ivm_removed_tuples.fetch_add(removed, Ordering::Relaxed);
            c.ivm_micros.fetch_add(
                u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
                Ordering::Relaxed,
            );
        }
        let c = &self.counters;
        c.batches_applied.fetch_add(1, Ordering::Relaxed);
        c.facts_inserted
            .fetch_add(inserted as u64, Ordering::Relaxed);
        c.facts_retracted
            .fetch_add(retracted as u64, Ordering::Relaxed);
        c.build_cache_invalidations
            .fetch_add(invalidated, Ordering::Relaxed);
        Ok(outcome)
    }

    // ---- durability & time travel ------------------------------------

    /// Is this knowledge base backed by a durable ledger?
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The ledger's data directory, if this knowledge base is durable.
    pub fn data_dir(&self) -> Option<&Path> {
        self.durability.as_ref().map(|d| d.root())
    }

    /// The snapshot of **any** historical `epoch`, across restarts.
    ///
    /// The current epoch is returned directly. A past epoch is
    /// materialized on demand from the durable ledger: the newest index
    /// segment at or below it is decoded and the logged batches up to
    /// `epoch` replayed on top (recently materialized epochs are
    /// cached). Errors:
    ///
    /// - [`NyayaError::EpochNotFound`] if `epoch` is beyond the current
    ///   epoch — it was never published; the error carries the valid
    ///   range;
    /// - [`NyayaError::NotDurable`] for a past epoch on a memory-only
    ///   knowledge base;
    /// - [`NyayaError::LedgerCorrupt`] / [`NyayaError::LedgerEpochGap`]
    ///   if the on-disk history is damaged — never a silently wrong
    ///   answer.
    pub fn snapshot_at(&self, epoch: u64) -> Result<Arc<Snapshot>, NyayaError> {
        let current = self.snapshot();
        if epoch == current.epoch() {
            return Ok(current);
        }
        if epoch > current.epoch() {
            return Err(NyayaError::EpochNotFound {
                requested: epoch,
                latest: current.epoch(),
            });
        }
        match &self.durability {
            None => Err(NyayaError::NotDurable { requested: epoch }),
            Some(durability) => durability.materialize(epoch, self.id, current.catalog()),
        }
    }

    /// Execute a prepared query *as of* a historical `epoch` — the
    /// time-travel form of [`execute_at`](Self::execute_at), resolving
    /// the epoch through [`snapshot_at`](Self::snapshot_at).
    pub fn execute_at_epoch(
        &self,
        query: &PreparedQuery,
        epoch: u64,
    ) -> Result<Answers, NyayaError> {
        let snapshot = self.snapshot_at(epoch)?;
        self.run(query, &snapshot, self.executor)
    }

    /// Synchronously flush an index segment for the current epoch,
    /// sealing the replayed WAL prefix into the ledger's history (the
    /// background compactor does the same on the builder's
    /// [`flush_interval`](KnowledgeBaseBuilder::flush_interval); this is
    /// the on-demand form). [`NyayaError::NotDurable`] on a memory-only
    /// knowledge base.
    pub fn compact(&self) -> Result<SegmentFlush, NyayaError> {
        let snapshot = self.snapshot();
        match &self.durability {
            None => Err(NyayaError::NotDurable {
                requested: snapshot.epoch(),
            }),
            Some(durability) => durability.compact_now(&snapshot),
        }
    }

    /// Everything the durable ledger holds on disk: segments, sealed WAL
    /// ranges, and the active tail. [`NyayaError::NotDurable`] on a
    /// memory-only knowledge base.
    pub fn ledger_history(&self) -> Result<LedgerHistory, NyayaError> {
        match &self.durability {
            None => Err(NyayaError::NotDurable {
                requested: self.epoch(),
            }),
            Some(durability) => durability.history(),
        }
    }

    // ---- standing queries (incremental view maintenance) -------------

    /// Register a standing query: materialize the prepared query's
    /// non-recursive Datalog program (the TBox-only compile
    /// [`program`](Self::program) memoizes) with per-tuple support
    /// counts, and maintain it incrementally — every
    /// [`apply`](Self::apply) propagates just that batch's net deltas
    /// through the program's delta rules instead of re-executing.
    ///
    /// The returned [`Subscription`] yields one [`AnswerDiff`] per epoch
    /// via [`poll`](Subscription::poll); the first diff is the current
    /// answer set at the subscription's seed epoch. Dropping the handle
    /// unregisters the view. Like prepared rewritings, the compiled
    /// program is TBox-only: no data write ever invalidates it.
    pub fn subscribe(&self, query: &PreparedQuery) -> Result<Subscription, NyayaError> {
        let program = self.program(query)?.program.clone();
        self.subscribe_seeded(program, None)
    }

    /// [`subscribe`](Self::subscribe), but seeded from the historical
    /// `epoch` and caught up to the present by replaying the durable
    /// ledger's logged batches through the view — one [`AnswerDiff`] per
    /// replayed epoch, exactly as a live subscription would have seen
    /// them. This is how a subscriber resumes after a restart without
    /// losing diffs: seed from the epoch it last processed.
    ///
    /// Errors as [`snapshot_at`](Self::snapshot_at): a future epoch is
    /// [`NyayaError::EpochNotFound`], a past epoch on a memory-only base
    /// is [`NyayaError::NotDurable`].
    pub fn subscribe_from(
        &self,
        query: &PreparedQuery,
        epoch: u64,
    ) -> Result<Subscription, NyayaError> {
        let program = self.program(query)?.program.clone();
        self.subscribe_seeded(program, Some(epoch))
    }

    /// Seed a view and register it. Compilation happened before this
    /// point (TBox-only, possibly slow); everything here runs under the
    /// apply lock so no batch can slip between the seed, the catch-up
    /// replay and the registration.
    fn subscribe_seeded(
        &self,
        program: DatalogProgram,
        from: Option<u64>,
    ) -> Result<Subscription, NyayaError> {
        let _writer = self
            .apply_lock
            .lock()
            .map_err(|_| NyayaError::Poisoned { what: "writer" })?;
        let current = self.snapshot();
        let seed_epoch = from.unwrap_or_else(|| current.epoch());
        let base = self.snapshot_at(seed_epoch)?;
        // The seed is a program run: the facade's program budget applies.
        let (threads, _) = thread_budgets(program.num_rules());
        let started = std::time::Instant::now();
        let (mut view, seeded) =
            MaterializedView::seed(program, base.database(), base.build_cache(), threads)?;
        let seeded_tuples = view.support_size() as u64;
        let mut pending = VecDeque::new();
        pending.push_back(AnswerDiff {
            epoch: seed_epoch,
            added: seeded.added,
            removed: seeded.removed,
        });
        if seed_epoch < current.epoch() {
            // `snapshot_at` only serves past epochs on a durable base.
            let durability = self
                .durability
                .as_ref()
                .expect("past epoch materialized without a ledger");
            let mut state = base.database().clone(); // COW
            for (epoch, retracts, inserts) in
                durability.batches_between(seed_epoch, current.epoch())?
            {
                let old = state.clone(); // COW
                let mut net = BaseDeltas::new();
                replay(&mut state, &retracts, &inserts, |fact, sign| {
                    add_net(&mut net, fact, sign);
                });
                let delta = view.propagate(
                    (&old, &BuildCache::new()),
                    (&state, &BuildCache::new()),
                    &net,
                );
                pending.push_back(AnswerDiff {
                    epoch,
                    added: delta.added,
                    removed: delta.removed,
                });
            }
        }
        let c = &self.counters;
        c.ivm_seed_micros.fetch_add(
            u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        c.ivm_seeded_tuples
            .fetch_add(seeded_tuples, Ordering::Relaxed);
        let inner = Arc::new(SubscriptionInner::new(view, pending, current.epoch()));
        self.subscriptions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::downgrade(&inner));
        Ok(Subscription { inner })
    }

    /// Queries that came bundled with the loaded program(s).
    pub fn queries(&self) -> &[ConjunctiveQuery] {
        &self.queries
    }

    /// The engine used by [`prepare`](Self::prepare).
    pub fn default_algorithm(&self) -> Algorithm {
        self.default_algorithm
    }

    /// The backend used by [`execute`](Self::execute) (never `Auto`).
    pub fn executor_kind(&self) -> ExecutorKind {
        self.executor
    }

    /// The configured execution-form [`Strategy`] (UCQ vs program).
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The [`Strategy::Auto`] DNF-size threshold.
    pub fn program_threshold(&self) -> usize {
        self.program_threshold
    }

    /// Chase budgets used for consistency checking and the chase backend.
    pub fn chase_config(&self) -> ChaseConfig {
        self.chase_config
    }

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
    fn entry<'q>(&self, query: &'q PreparedQuery) -> (Cow<'q, Shape>, Arc<QueryEntry>) {
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
            && estimate_dnf_bound(q, &self.normalization.tgds) < self.program_threshold
        {
            return Ok(false);
        }
        let program = self.template_program(shape, algorithm, entry)?;
        // estimated_dnf == 0 is a *proof of unsatisfiability* (some cluster
        // rewrote to the empty union): serve the cached empty program
        // rather than falling back to the flat path, which would explore
        // the full DNF product — including the blowup clusters the program
        // compile deliberately never visited.
        Ok(program.estimated_dnf == 0 || program.estimated_dnf >= self.program_threshold)
    }

    // ---- execution ---------------------------------------------------

    /// Execute on the backend chosen at build time.
    pub fn execute(&self, query: &PreparedQuery) -> Result<Answers, NyayaError> {
        self.run(query, &self.snapshot(), self.executor)
    }

    /// Execute on a specific backend (`Auto` resolved from this
    /// knowledge base's classification).
    pub fn execute_on(
        &self,
        query: &PreparedQuery,
        kind: ExecutorKind,
    ) -> Result<Answers, NyayaError> {
        let kind = kind.resolve(&self.classification);
        self.run(query, &self.snapshot(), kind)
    }

    /// Execute against a **pinned** snapshot instead of the currently
    /// published one: the answers reflect `snapshot`'s epoch exactly,
    /// no matter how many batches have been applied since it was taken.
    /// Routing follows the backend chosen at build time (rewriting
    /// backends still hit the shared rewriting cache — rewritings don't
    /// depend on data).
    ///
    /// The snapshot must have been published by **this** knowledge base
    /// ([`NyayaError::ForeignSnapshot`] otherwise): evaluating this
    /// base's rewritings over another base's data would silently produce
    /// meaningless answers.
    pub fn execute_at(
        &self,
        query: &PreparedQuery,
        snapshot: &Snapshot,
    ) -> Result<Answers, NyayaError> {
        if snapshot.owner != self.id {
            return Err(NyayaError::ForeignSnapshot {
                epoch: snapshot.epoch(),
            });
        }
        self.run(query, snapshot, self.executor)
    }

    /// Prepare + execute in one call (still hits the rewriting cache).
    pub fn answer(&self, query: &ConjunctiveQuery) -> Result<Answers, NyayaError> {
        self.execute(&self.prepare(query)?)
    }

    /// Parse + prepare + execute in one call.
    pub fn answer_text(&self, source: &str) -> Result<Answers, NyayaError> {
        self.execute(&self.prepare_text(source)?)
    }

    /// The SQL an external DBMS should run for this query.
    pub fn sql(&self, query: &PreparedQuery) -> Result<String, NyayaError> {
        self.run(query, &self.snapshot(), ExecutorKind::Sql)
            .map(|answers| answers.sql.expect("sql backend always sets sql"))
    }

    /// Evaluate a non-recursive Datalog program bottom-up over the
    /// current snapshot's facts (the Sections 2/8 execution target for
    /// [`Self::program`]). Derived tables are layered beside the pinned
    /// snapshot — its data is never copied — and base-atom build sides
    /// are shared with every other execution over the same epoch.
    pub fn execute_program(
        &self,
        program: &DatalogProgram,
    ) -> Result<std::collections::BTreeSet<Vec<Term>>, NyayaError> {
        self.run_program(&self.snapshot(), program, 1)
    }

    /// Materialize `chase(D, Σ)` over the *raw* (as-authored) TGDs with
    /// the knowledge base's chase budgets. This is the inspection/debug
    /// path; certain-answer execution goes through [`ExecutorKind::Chase`],
    /// which chases the normalized TGDs.
    pub fn materialize(&self) -> nyaya_chase::ChaseOutcome {
        let snapshot = self.snapshot();
        nyaya_chase::chase(snapshot.instance(), &self.ontology.tgds, self.chase_config)
    }

    /// Check `D ∪ Σ` for consistency (Section 4.2 workflow: KDs first,
    /// then NCs over the chase), against the current snapshot.
    pub fn check_consistency(&self) -> Result<(), NyayaError> {
        let snapshot = self.snapshot();
        match check_consistency(snapshot.instance(), &self.ontology, self.chase_config) {
            Consistency::Consistent => Ok(()),
            Consistency::KdViolated(i) => Err(NyayaError::KeyViolation {
                key: format!("{:?}", self.ontology.kds[i]),
            }),
            Consistency::NcViolated(i) => Err(NyayaError::ConstraintViolation {
                constraint: self.ontology.ncs[i].to_string(),
            }),
            Consistency::Unknown => Err(NyayaError::ConsistencyUnknown),
        }
    }

    /// Record one in-memory run in the lifetime counters: its join work
    /// (rows, the parallel route, build sides served and built, merge
    /// joins, probe morsels), then a program's materialization when
    /// `materialized` holds its tuple count, else a UCQ's planner
    /// estimate.
    fn record_execution(&self, metrics: &ExecMetrics, materialized: Option<usize>) {
        let c = &self.counters;
        let micros = u64::try_from(metrics.elapsed.as_micros()).unwrap_or(u64::MAX);
        c.rows_returned
            .fetch_add(metrics.rows as u64, Ordering::Relaxed);
        if metrics.threads > 1 {
            c.parallel_executions.fetch_add(1, Ordering::Relaxed);
        }
        c.build_cache_hits
            .fetch_add(metrics.build_cache_hits, Ordering::Relaxed);
        c.build_cache_misses
            .fetch_add(metrics.build_cache_misses, Ordering::Relaxed);
        c.merge_joins
            .fetch_add(metrics.merge_joins, Ordering::Relaxed);
        c.morsel_tasks
            .fetch_add(metrics.morsel_tasks, Ordering::Relaxed);
        match materialized {
            Some(tuples) => {
                c.program_executions.fetch_add(1, Ordering::Relaxed);
                c.program_micros.fetch_add(micros, Ordering::Relaxed);
                c.program_tuples_materialized
                    .fetch_add(tuples as u64, Ordering::Relaxed);
            }
            None => {
                c.exec_micros.fetch_add(micros, Ordering::Relaxed);
                c.plan_estimated_rows
                    .fetch_add(metrics.estimated_rows, Ordering::Relaxed);
                c.plan_actual_rows
                    .fetch_add(metrics.rows as u64, Ordering::Relaxed);
            }
        }
    }

    /// Count one request served through the network serving layer.
    pub fn record_net_request(&self) {
        self.counters.net_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Consult the exact answer cache: serve a stored answer iff the
    /// snapshot's per-predicate write epochs over `touched` and the
    /// query's bound constants equal a stored entry's — which proves (see
    /// [`Snapshot::pred_epoch`]) the touched tables are bit-identical to
    /// when that answer was computed for these constants, so the answer
    /// itself is too. Counts a hit or a miss;
    /// `None` (without counting) when the cache is disabled.
    fn cached_answer(
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
    fn store_answer(
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
    /// until an execution misses its estimate by ≥ [`REPLAN_RATIO`], the
    /// multiplier applied to join estimates on every re-plan afterwards.
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
    /// planner: a miss by ≥ [`REPLAN_RATIO`] updates the query's
    /// correction (see [`plan_correction`](Self::plan_correction) for
    /// where it lives) and ticks `plan_replans`.
    fn record_feedback(&self, query: &PreparedQuery, metrics: &ExecMetrics) {
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

    /// Execute with result modifiers — comparison filters, ORDER BY /
    /// LIMIT, COUNT/MIN/MAX/GROUP BY aggregates. The query runs exactly
    /// as [`execute_on`](Self::execute_on) with
    /// [`ExecutorKind::InMemory`] runs it (answer cache, planner feedback
    /// from the unshaped answers), and [`apply_select`], the modifiers'
    /// reference semantics, shapes the answer set. Returns rows in
    /// modifier order: a `Vec`, unlike
    /// [`execute`](Self::execute)'s set — ORDER BY would be meaningless
    /// on a `BTreeSet`. Modifier column indices out of range for the
    /// query head are a [`NyayaError::InvalidSelect`], raised before
    /// anything runs.
    pub fn execute_select(
        &self,
        query: &PreparedQuery,
        sel: &SelectOptions,
    ) -> Result<Vec<Vec<Term>>, NyayaError> {
        // Modifier columns are positions of the query head, which both
        // compiled forms preserve — even a rewriting with no disjuncts.
        sel.validate(query.query.head.len())
            .map_err(|detail| NyayaError::InvalidSelect { detail })?;
        let answers = self.run(query, &self.snapshot(), ExecutorKind::InMemory)?;
        Ok(apply_select(answers.tuples, sel))
    }

    /// Human-readable execution plan — the CLI's `--explain` surface:
    /// the chosen strategy, the cost-based operator mix across all
    /// disjuncts, the per-step plan of the first disjunct, and the result
    /// modifiers (if any), which are applied to the answer set afterwards.
    pub fn explain(
        &self,
        query: &PreparedQuery,
        sel: &SelectOptions,
    ) -> Result<String, NyayaError> {
        let snapshot = self.snapshot();
        let mut out = String::new();
        match self.target(query)? {
            Target::Program(program) => out.push_str(&format!(
                "strategy: program ({} rules, {} strata)\n",
                program.program.num_rules(),
                program.stats.program_strata,
            )),
            Target::Ucq(compiled) => {
                let correction = self.plan_correction(query);
                out.push_str(&format!(
                    "strategy: ucq ({} disjuncts)\n",
                    compiled.ucq.cqs.len()
                ));
                if (correction - 1.0).abs() > f64::EPSILON {
                    out.push_str(&format!("feedback correction: {correction:.3}\n"));
                }
                let (mut scans, mut hashes, mut merges) = (0usize, 0usize, 0usize);
                for cq in compiled.ucq.iter() {
                    let plan =
                        nyaya_sql::plan_cq_cost_corrected(snapshot.database(), cq, correction);
                    for op in &plan.ops {
                        match op {
                            nyaya_sql::StepOp::Scan => scans += 1,
                            nyaya_sql::StepOp::Hash => hashes += 1,
                            nyaya_sql::StepOp::Merge { .. } => merges += 1,
                        }
                    }
                }
                out.push_str(&format!(
                    "operators: scan {scans}, hash {hashes}, merge {merges}\n"
                ));
                if let Some(first) = compiled.ucq.iter().next() {
                    out.push_str(&nyaya_sql::explain_cq(snapshot.database(), first));
                }
            }
        }
        if !sel.is_plain() {
            out.push_str(&format!(
                "select: {} filter(s), {} order key(s), limit {}, aggregate {}\n",
                sel.filters.len(),
                sel.order_by.len(),
                sel.limit.map_or("none".to_owned(), |n| n.to_string()),
                if sel.aggregate.is_some() { "yes" } else { "no" },
            ));
        }
        Ok(out)
    }

    /// Snapshot the lifetime counters.
    pub fn stats(&self) -> KbStats {
        let snapshot = self.snapshot();
        let memory = snapshot.database().memory_stats();
        KbStats {
            cached_rewritings: self
                .entries
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .values()
                .filter(|entry| entry.rewriting.get().is_some())
                .count(),
            epoch: snapshot.epoch(),
            snapshot_facts: snapshot.len(),
            durable: self.durability.is_some(),
            subscriptions_active: {
                let mut subs = self
                    .subscriptions
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                subs.retain(|weak| weak.strong_count() > 0);
                subs.len()
            },
            fact_bytes: memory.fact_bytes,
            index_bytes: memory.index_bytes,
            build_cache_bytes: snapshot.build_cache().bytes(),
            table_folds: snapshot.database().table_folds(),
            tables: memory.tables,
            ..self.counters.load()
        }
    }
}

/// The database holds constants only: the first fact with a variable, a
/// labelled null or a function term is a [`NyayaError::NonGroundFact`].
fn check_constants<'a>(facts: impl IntoIterator<Item = &'a Atom>) -> Result<(), NyayaError> {
    match facts
        .into_iter()
        .find(|fact| !fact.args.iter().all(Term::is_const))
    {
        Some(fact) => Err(NyayaError::NonGroundFact {
            fact: fact.to_string(),
        }),
        None => Ok(()),
    }
}

/// Count one effective write into a view-maintenance delta.
fn add_net(net: &mut BaseDeltas, fact: &Atom, sign: i64) {
    *net.entry(fact.pred)
        .or_default()
        .entry(fact.args.clone())
        .or_insert(0) += sign;
}

#[cfg(test)]
mod tests {
    use super::cache::MAX_QUERY_ENTRIES;
    use super::*;

    const PROGRAM: &str = "
        sigma5: stock_portf(X, Y, Z) -> has_stock(Y, X).
        sigma6: has_stock(X, Y) -> stock_portf(Y, X, Z).
        has_stock(ibm_s, fund1).
        q(A, B) :- stock_portf(B, A, D).
    ";

    #[test]
    fn builder_compiles_once_and_caches_rewritings() {
        let kb = KnowledgeBase::from_program_text(PROGRAM).unwrap();
        assert!(kb.classification().linear);
        assert_eq!(kb.executor_kind(), ExecutorKind::InMemory);
        assert_eq!(kb.default_algorithm(), Algorithm::NyayaStar);

        let q = &kb.queries()[0].clone();
        let p1 = kb.prepare(q).unwrap();
        let a1 = kb.execute(&p1).unwrap();
        assert_eq!(a1.tuples.len(), 1);
        assert_eq!(kb.stats().cache_misses, 1);
        assert_eq!(kb.stats().cache_hits, 0);

        // A fresh handle for an α-renamed query hits the same cache slot.
        let renamed = nyaya_parser::parse_query("q(P, Q) :- stock_portf(Q, P, R).").unwrap();
        let p2 = kb.prepare(&renamed).unwrap();
        let a2 = kb.execute(&p2).unwrap();
        assert_eq!(a1.tuples, a2.tuples);
        let stats = kb.stats();
        assert_eq!(stats.cache_misses, 1, "second execution must not rewrite");
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cached_rewritings, 1);
        assert_eq!(stats.executions, 2);
    }

    #[test]
    fn empty_query_is_rejected_not_panicked() {
        let kb = KnowledgeBase::from_program_text(PROGRAM).unwrap();
        // `ConjunctiveQuery::new` asserts a non-empty body, but the fields
        // are public — the facade must not panic on a hand-built value.
        let empty = ConjunctiveQuery {
            head_pred: nyaya_core::symbols::intern("q"),
            head: Vec::new(),
            body: Vec::new(),
        };
        assert_eq!(kb.prepare(&empty).unwrap_err(), NyayaError::EmptyQuery);
    }

    #[test]
    fn apply_bumps_epochs_and_answers_track_the_data() {
        let kb = KnowledgeBase::from_program_text(PROGRAM).unwrap();
        assert_eq!(kb.epoch(), 0);
        let q = kb.prepare_text("q(A, B) :- stock_portf(B, A, D).").unwrap();
        assert_eq!(kb.execute(&q).unwrap().tuples.len(), 1);

        let outcome = kb
            .apply(UpdateBatch::new().insert(Atom::make("has_stock", ["sap_s", "fund2"])))
            .unwrap();
        assert_eq!(outcome.epoch, 1);
        assert_eq!(outcome.inserted, 1);
        assert_eq!(kb.execute(&q).unwrap().tuples.len(), 2);

        let outcome = kb
            .apply(UpdateBatch::new().retract(Atom::make("has_stock", ["ibm_s", "fund1"])))
            .unwrap();
        assert_eq!(outcome.epoch, 2);
        assert_eq!(outcome.retracted, 1);
        assert_eq!(kb.execute(&q).unwrap().tuples.len(), 1);

        // Duplicates and absent facts are counted as the no-ops they are.
        let outcome = kb
            .apply(
                UpdateBatch::new()
                    .insert(Atom::make("has_stock", ["sap_s", "fund2"]))
                    .retract(Atom::make("has_stock", ["ibm_s", "fund1"])),
            )
            .unwrap();
        assert_eq!((outcome.inserted, outcome.retracted), (0, 0));
        assert_eq!(outcome.epoch, 3, "epochs advance even for no-op batches");

        let stats = kb.stats();
        assert_eq!(stats.epoch, 3);
        assert_eq!(stats.batches_applied, 3);
        assert_eq!(stats.facts_inserted, 1);
        assert_eq!(stats.facts_retracted, 1);
    }

    #[test]
    fn non_ground_batches_are_rejected_without_publishing() {
        let kb = KnowledgeBase::from_program_text(PROGRAM).unwrap();
        let bad = UpdateBatch::new()
            .insert(Atom::make("has_stock", ["sap_s", "fund2"]))
            .insert(Atom::make("has_stock", ["X", "fund9"]));
        match kb.apply(bad) {
            Err(NyayaError::NonGroundFact { fact }) => assert!(fact.contains("has_stock")),
            other => panic!("expected NonGroundFact, got {other:?}"),
        }
        assert_eq!(kb.epoch(), 0, "rejected batches publish nothing");
        assert_eq!(kb.snapshot().len(), 1, "…not even their ground prefix");
    }

    /// The database holds constants: a builder fact with a labelled null,
    /// a function term or a variable is a typed error, not a panic in the
    /// bulk loader.
    #[test]
    fn builder_facts_must_be_constants() {
        let pred = Predicate::new("has_stock", 2);
        let skolem = Term::Func(
            nyaya_core::symbols::intern("sk0"),
            [Term::constant("ibm_s")].into(),
        );
        for bad in [Term::Null(3), skolem, Term::var("X")] {
            let fact = Atom::new(pred, vec![Term::constant("ibm_s"), bad]);
            let built = KnowledgeBase::builder()
                .program_text(PROGRAM)
                .unwrap()
                .facts([fact])
                .build();
            match built {
                Err(NyayaError::NonGroundFact { fact }) => assert!(fact.contains("has_stock")),
                Err(other) => panic!("expected NonGroundFact, got {other:?}"),
                Ok(_) => panic!("built a knowledge base over a non-constant fact"),
            }
        }
    }

    #[test]
    fn pinned_snapshots_are_isolated_from_later_writes() {
        let kb = KnowledgeBase::from_program_text(PROGRAM).unwrap();
        let q = kb.prepare_text("q(A, B) :- stock_portf(B, A, D).").unwrap();
        let pinned = kb.snapshot();
        let before = kb.execute_at(&q, &pinned).unwrap();

        kb.apply(UpdateBatch::new().insert(Atom::make("has_stock", ["sap_s", "fund2"])))
            .unwrap();
        // The live view moved…
        assert_eq!(kb.execute(&q).unwrap().tuples.len(), 2);
        // …the pinned epoch did not.
        let after = kb.execute_at(&q, &pinned).unwrap();
        assert_eq!(before.tuples, after.tuples);
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(kb.epoch(), 1);
    }

    #[test]
    fn snapshots_from_another_kb_are_rejected_not_misanswered() {
        let kb1 = KnowledgeBase::from_program_text(PROGRAM).unwrap();
        let kb2 = KnowledgeBase::from_program_text(PROGRAM).unwrap();
        let q = kb1
            .prepare_text("q(A, B) :- stock_portf(B, A, D).")
            .unwrap();
        match kb1.execute_at(&q, &kb2.snapshot()) {
            Err(NyayaError::ForeignSnapshot { epoch: 0 }) => {}
            other => panic!("expected ForeignSnapshot, got {other:?}"),
        }
        // The same snapshot is fine on its own base.
        assert!(kb2.execute_at(&q, &kb2.snapshot()).is_ok());
    }

    #[test]
    fn updates_to_new_predicates_extend_the_catalog_for_sql() {
        let kb = KnowledgeBase::from_program_text(PROGRAM).unwrap();
        kb.apply(UpdateBatch::new().insert(Atom::make("brand_new", ["a", "b"])))
            .unwrap();
        let q = kb.prepare_text("q(A) :- brand_new(A, B).").unwrap();
        let sql = kb.sql(&q).unwrap();
        assert!(sql.contains("brand_new"), "{sql}");
        assert_eq!(kb.execute(&q).unwrap().tuples.len(), 1);
    }

    /// Two independent interaction clusters with two alternatives each:
    /// estimated DNF 4, program strictly smaller.
    const DECOMPOSABLE: &str = "
        sigma1: sp(X) -> p(X).
        sigma2: su(X) -> u(X).
        p(a). u(b). sp(c). su(d). t(a, b). t(c, d). t(a, d).
        q(A) :- p(A), t(A, B), u(B).
    ";

    #[test]
    fn forced_program_strategy_matches_ucq_answers() {
        let ucq_kb = KnowledgeBase::builder()
            .program_text(DECOMPOSABLE)
            .unwrap()
            .strategy(Strategy::Ucq)
            .build()
            .unwrap();
        let program_kb = KnowledgeBase::builder()
            .program_text(DECOMPOSABLE)
            .unwrap()
            .strategy(Strategy::Program)
            .build()
            .unwrap();
        let q = ucq_kb.queries()[0].clone();
        let via_ucq = ucq_kb.answer(&q).unwrap();
        let via_program = program_kb.answer(&q).unwrap();
        assert_eq!(via_ucq.backend, "in-memory");
        assert_eq!(via_program.backend, "program");
        assert_eq!(via_ucq.tuples, via_program.tuples);
        assert_eq!(via_program.tuples.len(), 2); // a and c

        let stats = program_kb.stats();
        assert_eq!(stats.program_compiles, 1);
        assert_eq!(stats.program_executions, 1);
        assert!(stats.program_rules >= 4, "{stats:?}");
        assert!(stats.program_strata >= 2, "{stats:?}");
        assert!(stats.program_tuples_materialized > 0, "{stats:?}");
        // Re-execution serves the cached program: no second compile.
        let prepared = program_kb.prepare(&q).unwrap();
        program_kb.execute(&prepared).unwrap();
        assert_eq!(program_kb.stats().program_compiles, 1);
    }

    #[test]
    fn auto_strategy_selects_by_estimated_dnf() {
        // Threshold 1: any decomposable query routes to the program.
        let kb = KnowledgeBase::builder()
            .program_text(DECOMPOSABLE)
            .unwrap()
            .program_threshold(1)
            .build()
            .unwrap();
        assert_eq!(kb.strategy(), Strategy::Auto);
        let q = kb.queries()[0].clone();
        let answers = kb.answer(&q).unwrap();
        assert_eq!(answers.backend, "program");
        let prepared = kb.prepare(&q).unwrap();
        let program = kb.program(&prepared).unwrap();
        assert_eq!(program.estimated_dnf, 4);
        assert!(matches!(
            program.strategy,
            nyaya_rewrite::ProgramStrategy::Clustered { clusters: 3 }
        ));

        // Default threshold (256): the same 4-CQ DNF stays on the UCQ path,
        // and the static path bound (also 4 here) proves it cheap without
        // even compiling the program to measure it.
        let kb = KnowledgeBase::from_program_text(DECOMPOSABLE).unwrap();
        let answers = kb.answer(&kb.queries()[0].clone()).unwrap();
        assert_eq!(answers.backend, "in-memory");
        assert_eq!(
            kb.stats().program_compiles,
            0,
            "the cheap DNF bound should have skipped the program compile"
        );

        // Single-cluster bodies never pay a program compile under Auto.
        let kb = KnowledgeBase::builder()
            .program_text(PROGRAM)
            .unwrap()
            .program_threshold(0)
            .build()
            .unwrap();
        let answers = kb.answer(&kb.queries()[0].clone()).unwrap();
        assert_eq!(answers.backend, "in-memory");
        assert_eq!(kb.stats().program_compiles, 0);
    }

    #[test]
    fn auto_serves_the_unsatisfiability_proof_instead_of_the_dnf() {
        // NCs kill every alternative of the u-cluster: the program compile
        // proves emptiness (estimated_dnf = 0) without exploring the other
        // clusters, and Auto must serve that proof — not fall back to the
        // flat path and pay for the DNF product.
        let kb = KnowledgeBase::builder()
            .program_text(DECOMPOSABLE)
            .unwrap()
            .program_text("n1: u(X) -> false. n2: su(X) -> false.")
            .unwrap()
            .build()
            .unwrap();
        let q = kb.prepare(&kb.queries()[0].clone()).unwrap();
        let answers = kb.execute(&q).unwrap();
        assert_eq!(answers.backend, "program", "emptiness proof not served");
        assert!(answers.tuples.is_empty());
        let stats = kb.stats();
        assert_eq!(stats.program_compiles, 1);
        assert_eq!(stats.cache_misses, 0, "the flat DNF was never compiled");
    }

    #[test]
    fn programs_survive_writes_and_track_the_data() {
        let kb = KnowledgeBase::builder()
            .program_text(DECOMPOSABLE)
            .unwrap()
            .strategy(Strategy::Program)
            .build()
            .unwrap();
        let q = kb.prepare(&kb.queries()[0].clone()).unwrap();
        assert_eq!(kb.execute(&q).unwrap().tuples.len(), 2);
        let pinned = kb.snapshot();

        // New data flows through the *same* compiled program.
        kb.apply(
            UpdateBatch::new()
                .insert(Atom::make("sp", ["z"]))
                .insert(Atom::make("t", ["z", "b"])),
        )
        .unwrap();
        assert_eq!(kb.execute(&q).unwrap().tuples.len(), 3);
        // The pinned snapshot still answers at its epoch.
        assert_eq!(kb.execute_at(&q, &pinned).unwrap().tuples.len(), 2);
        // Exactly one program compile across all of it.
        assert_eq!(kb.stats().program_compiles, 1);
        assert_eq!(kb.stats().cache_misses, 0, "the flat UCQ was never built");
    }

    #[test]
    fn program_sql_ships_ctes_under_the_program_strategy() {
        let kb = KnowledgeBase::builder()
            .program_text(DECOMPOSABLE)
            .unwrap()
            .strategy(Strategy::Program)
            .build()
            .unwrap();
        let q = kb.prepare(&kb.queries()[0].clone()).unwrap();
        let sql = kb.sql(&q).unwrap();
        assert!(sql.starts_with("WITH "), "{sql}");
        assert!(sql.contains(" AS ("), "{sql}");
        // The flat form would be a UNION of full joins; the program form
        // joins the cluster CTEs exactly once in the goal SELECT.
        let kb_flat = KnowledgeBase::builder()
            .program_text(DECOMPOSABLE)
            .unwrap()
            .strategy(Strategy::Ucq)
            .build()
            .unwrap();
        let flat = kb_flat
            .sql(&kb_flat.prepare(&kb.queries()[0].clone()).unwrap())
            .unwrap();
        assert!(!flat.contains("WITH"), "{flat}");
    }

    #[test]
    fn recursive_programs_surface_a_typed_error() {
        use nyaya_core::{DatalogRule, Predicate, Term};
        let kb = KnowledgeBase::from_program_text(PROGRAM).unwrap();
        let p = |n: &str| Predicate::new(n, 1);
        let atom = |n: &str| nyaya_core::Atom::new(p(n), vec![Term::var("X")]);
        let program = DatalogProgram::new(
            atom("a"),
            vec![
                DatalogRule::new(atom("a"), vec![atom("b")]),
                DatalogRule::new(atom("b"), vec![atom("a")]),
            ],
        );
        assert_eq!(
            kb.execute_program(&program).unwrap_err(),
            NyayaError::RecursiveProgram
        );
    }

    #[test]
    fn budget_exhaustion_is_an_error_not_a_wrong_answer() {
        let kb = KnowledgeBase::builder()
            .program_text(PROGRAM)
            .unwrap()
            .max_queries(1)
            .build()
            .unwrap();
        let q = kb.prepare_text("q(A, B) :- stock_portf(B, A, D).").unwrap();
        match kb.execute(&q) {
            Err(NyayaError::BudgetExhausted { budget: 1, .. }) => {}
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    /// The current answers of a query, as a set (for diff comparison).
    fn answer_set(
        kb: &KnowledgeBase,
        q: &PreparedQuery,
    ) -> std::collections::BTreeSet<Vec<nyaya_core::Term>> {
        kb.execute(q).unwrap().tuples.into_iter().collect()
    }

    #[test]
    fn subscriptions_track_every_epoch_with_exact_diffs() {
        use nyaya_core::Term;
        let kb = KnowledgeBase::from_program_text(PROGRAM).unwrap();
        let q = kb.prepare_text("q(A, B) :- stock_portf(B, A, D).").unwrap();
        let sub = kb.subscribe(&q).unwrap();
        assert_eq!(kb.stats().subscriptions_active, 1);

        // The first diff is the full current answer set at the seed epoch.
        let initial = sub.poll();
        assert_eq!(initial.len(), 1);
        assert_eq!(initial[0].epoch, 0);
        assert_eq!(
            initial[0]
                .added
                .iter()
                .cloned()
                .collect::<std::collections::BTreeSet<_>>(),
            answer_set(&kb, &q)
        );
        assert!(initial[0].removed.is_empty());
        assert_eq!(sub.current(), answer_set(&kb, &q));

        // An insert shows up as exactly its derived answers.
        kb.apply(UpdateBatch::new().insert(Atom::make("has_stock", ["sap_s", "fund2"])))
            .unwrap();
        let diffs = sub.poll();
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].epoch, 1);
        assert_eq!(
            diffs[0].added,
            vec![vec![Term::constant("sap_s"), Term::constant("fund2")]]
        );
        assert!(diffs[0].removed.is_empty());
        assert_eq!(sub.current(), answer_set(&kb, &q));

        // A retraction is exact (support counting, no recomputation).
        kb.apply(UpdateBatch::new().retract(Atom::make("has_stock", ["ibm_s", "fund1"])))
            .unwrap();
        let diffs = sub.poll();
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].epoch, 2);
        assert_eq!(
            diffs[0].removed,
            vec![vec![Term::constant("ibm_s"), Term::constant("fund1")]]
        );
        assert!(diffs[0].added.is_empty());
        assert_eq!(sub.current(), answer_set(&kb, &q));

        // A batch over an unrelated predicate still yields its epoch's
        // diff (empty), keeping the stream aligned with the epochs.
        kb.apply(UpdateBatch::new().insert(Atom::make("unrelated", ["x"])))
            .unwrap();
        let diffs = sub.poll();
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].epoch, 3);
        assert!(diffs[0].is_empty());
        assert_eq!(sub.epoch(), 3);

        let stats = kb.stats();
        assert_eq!(stats.subscription_diffs, 3);
        assert_eq!(stats.ivm_added_tuples, 1);
        assert_eq!(stats.ivm_removed_tuples, 1);
    }

    #[test]
    fn dropping_a_subscription_unregisters_it() {
        let kb = KnowledgeBase::from_program_text(PROGRAM).unwrap();
        let q = kb.prepare_text("q(A, B) :- stock_portf(B, A, D).").unwrap();
        let sub = kb.subscribe(&q).unwrap();
        assert_eq!(kb.stats().subscriptions_active, 1);
        drop(sub);
        assert_eq!(kb.stats().subscriptions_active, 0);
        kb.apply(UpdateBatch::new().insert(Atom::make("has_stock", ["sap_s", "fund2"])))
            .unwrap();
        assert_eq!(kb.stats().subscription_diffs, 0, "no live views: no work");
    }

    #[test]
    fn same_fact_retract_insert_is_deterministic_and_nets_to_zero() {
        let kb = KnowledgeBase::from_program_text(PROGRAM).unwrap();
        let q = kb.prepare_text("q(A, B) :- stock_portf(B, A, D).").unwrap();
        let sub = kb.subscribe(&q).unwrap();
        sub.poll();

        // Present fact, both ops queued insert-first: retractions still
        // run first, so the fact survives and both count as effective.
        let f = Atom::make("has_stock", ["ibm_s", "fund1"]);
        let outcome = kb
            .apply(UpdateBatch::new().insert(f.clone()).retract(f.clone()))
            .unwrap();
        assert_eq!((outcome.retracted, outcome.inserted), (1, 1));
        assert_eq!(kb.snapshot().len(), 1, "net: the fact is still present");
        // …and the net-zero delta propagates nothing to subscriptions.
        let diffs = sub.poll();
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].is_empty(), "{diffs:?}");

        // Absent fact: the retraction is a no-op, the insertion lands.
        let g = Atom::make("has_stock", ["sap_s", "fund2"]);
        let outcome = kb
            .apply(UpdateBatch::new().retract(g.clone()).insert(g.clone()))
            .unwrap();
        assert_eq!((outcome.retracted, outcome.inserted), (0, 1));
        assert_eq!(kb.snapshot().len(), 2);
        let diffs = sub.poll();
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].added.len(), 1);
        assert!(diffs[0].removed.is_empty());
        assert_eq!(sub.current(), answer_set(&kb, &q));
    }

    #[test]
    fn poisoned_reader_locks_recover_instead_of_wedging() {
        let kb = KnowledgeBase::from_program_text(PROGRAM).unwrap();
        let q = kb.prepare_text("q(A, B) :- stock_portf(B, A, D).").unwrap();
        kb.execute(&q).unwrap(); // warm the rewriting cache
        let (kb, prepared) = (&kb, &q);
        std::thread::scope(|s| {
            for what in ["entries", "answer ring", "state"] {
                let handle = s.spawn(move || {
                    // Deliberately panic while holding each advisory lock.
                    match what {
                        "entries" => {
                            let _guard = kb.entries.write().unwrap();
                            panic!("poisoning the entry map");
                        }
                        "answer ring" => {
                            let (_, entry) = kb.entry(prepared);
                            let _guard = entry.answers.write().unwrap();
                            panic!("poisoning the query's answer ring");
                        }
                        _ => {
                            let _guard = kb.state.write().unwrap();
                            panic!("poisoning the snapshot pointer");
                        }
                    }
                });
                assert!(handle.join().is_err(), "the thread must have panicked");
            }
        });
        // Reads, compiles and writes all still work.
        assert_eq!(kb.execute(&q).unwrap().tuples.len(), 1);
        let q2 = kb.prepare_text("q(B) :- has_stock(A, B).").unwrap();
        assert_eq!(kb.execute(&q2).unwrap().tuples.len(), 1);
        let outcome = kb
            .apply(UpdateBatch::new().insert(Atom::make("has_stock", ["sap_s", "fund2"])))
            .unwrap();
        assert_eq!(outcome.epoch, 1);
        assert_eq!(kb.execute(&q).unwrap().tuples.len(), 2);
        assert!(kb.stats().cached_rewritings >= 1);
    }

    #[test]
    fn poisoned_writer_lock_is_a_typed_error_not_a_panic() {
        let kb = KnowledgeBase::from_program_text(PROGRAM).unwrap();
        let q = kb.prepare_text("q(A, B) :- stock_portf(B, A, D).").unwrap();
        std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let _guard = kb.apply_lock.lock().unwrap();
                panic!("poisoning the writer lock");
            });
            assert!(handle.join().is_err());
        });
        // Writes and subscriptions refuse with a typed error…
        match kb.apply(UpdateBatch::new().insert(Atom::make("has_stock", ["sap_s", "fund2"]))) {
            Err(NyayaError::Poisoned { what: "writer" }) => {}
            other => panic!("expected Poisoned, got {other:?}"),
        }
        match kb.subscribe(&q) {
            Err(NyayaError::Poisoned { what: "writer" }) => {}
            other => panic!("expected Poisoned, got {other:?}"),
        }
        // …while reads over the published snapshot keep working.
        assert_eq!(kb.execute(&q).unwrap().tuples.len(), 1);
        assert_eq!(kb.epoch(), 0, "the refused batch published nothing");
    }

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
