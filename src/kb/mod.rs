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
//! - every execution takes one path, on one of the paper's two
//!   semantics named by an [`ExecutorKind`]: the in-process relational
//!   engine evaluating the compiled form [`Strategy`] picks (the flat UCQ
//!   or the program) when Σ is FO-rewritable, or chase-based certain
//!   answers otherwise. The backend is picked from
//!   [`classify`](nyaya_core::classify) at build time and can be
//!   overridden per call with [`KnowledgeBase::execute_on`]. [`KnowledgeBase::sql`] renders the
//!   same compiled form as SQL text for an external DBMS, and executes
//!   nothing;
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

mod builder;
mod cache;
mod durability;
mod error;
mod executor;
mod query;
mod stats;
mod subscribe;
mod template;
mod update;

use std::collections::{HashSet, VecDeque};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError, RwLock, Weak};

use nyaya_chase::{check_consistency, ChaseConfig, Consistency};
use nyaya_core::{
    apply_select, Atom, Classification, ConjunctiveQuery, DatalogProgram, Normalization, Ontology,
    Predicate, SelectOptions, Symbol, Term, Tgd,
};
use nyaya_rewrite::{EliminationContext, ProgramOptStats, ProgramStrategy, RewriteStats};
use nyaya_sql::{
    program_to_sql, ucq_to_sql, BaseDeltas, BuildCache, ExecMetrics, MaterializedView,
};

use cache::Entries;
use durability::Durability;
use executor::{thread_budgets, Target};
use stats::Counters;
use subscribe::SubscriptionInner;
use update::replay;

pub use builder::KnowledgeBaseBuilder;
pub use error::NyayaError;
pub use executor::{Answers, ExecutorKind};
pub use nyaya_ledger::{LedgerHistory, SealedWalInfo, SegmentFlush, SegmentInfo};
pub use query::PreparedQuery;
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
    /// rewriting reaches [`DEFAULT_PROGRAM_THRESHOLD`]; otherwise the UCQ.
    #[default]
    Auto,
    /// Always execute the flat UCQ rewriting.
    Ucq,
    /// Always compile and execute the non-recursive Datalog program.
    Program,
}

/// The [`Strategy::Auto`] threshold: an estimated DNF (the product of the
/// interaction clusters' rewriting sizes) of this many CQs routes a query
/// to the program target. Below it, flat-UCQ execution (shared build
/// sides, parallel disjuncts) wins; far above it, the UCQ's size
/// dominates everything.
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

    /// The backend used by [`execute`](Self::execute), picked from the
    /// [`classification`](Self::classification) at build time.
    pub fn executor_kind(&self) -> ExecutorKind {
        self.executor
    }

    /// The configured execution-form [`Strategy`] (UCQ vs program).
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Chase budgets used for consistency checking and the chase backend.
    pub fn chase_config(&self) -> ChaseConfig {
        self.chase_config
    }

    // ---- execution ---------------------------------------------------

    /// Execute on the backend chosen at build time.
    pub fn execute(&self, query: &PreparedQuery) -> Result<Answers, NyayaError> {
        self.run(query, &self.snapshot(), self.executor)
    }

    /// Execute on a specific backend — [`ExecutorKind::Chase`] gives the
    /// certain answers of any ontology, the reference for the rewriting.
    pub fn execute_on(
        &self,
        query: &PreparedQuery,
        kind: ExecutorKind,
    ) -> Result<Answers, NyayaError> {
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

    /// The SQL an external DBMS should run for this query: the compiled
    /// form [`Strategy`] picks, rendered against the current snapshot's
    /// catalog (writes register new tables) — a program as one
    /// `WITH`-CTE per intensional predicate, a UCQ as the flat `UNION`.
    /// Nothing is executed.
    pub fn sql(&self, query: &PreparedQuery) -> Result<String, NyayaError> {
        let snapshot = self.snapshot();
        let catalog = snapshot.catalog();
        Ok(match self.target(query)? {
            Target::Program(program) => program_to_sql(&program.program, catalog)?,
            Target::Ucq(compiled) => ucq_to_sql(&compiled.ucq, catalog)?,
        })
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

    /// Execute with result modifiers — comparison filters, ORDER BY /
    /// LIMIT, COUNT/MIN/MAX/GROUP BY aggregates. The query runs exactly
    /// as [`execute`](Self::execute) runs it, on the knowledge base's
    /// backend (answer cache, planner feedback from the unshaped answers),
    /// and [`apply_select`], the modifiers'
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
        let answers = self.run(query, &self.snapshot(), self.executor)?;
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
        let target = match self.executor {
            // Nothing is compiled: the query is evaluated over the chase.
            ExecutorKind::Chase => None,
            ExecutorKind::InMemory => Some(self.target(query)?),
        };
        match target {
            None => out.push_str("strategy: chase\n"),
            Some(Target::Program(program)) => out.push_str(&format!(
                "strategy: program ({} rules, {} strata)\n",
                program.program.num_rules(),
                program.stats.program_strata,
            )),
            Some(Target::Ucq(compiled)) => {
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
                    out.push_str(&nyaya_sql::explain_cq(
                        snapshot.database(),
                        first,
                        correction,
                    ));
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
    use super::*;

    pub(super) const PROGRAM: &str = "
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

    /// [`DECOMPOSABLE`] with 14 more sources for each of `p` and `u`: both
    /// clusters have 16 alternatives, so the estimated DNF is
    /// 16 · 16 = [`DEFAULT_PROGRAM_THRESHOLD`]. The new predicates hold no
    /// facts: the answers stay a and c.
    fn wide_decomposable() -> String {
        let mut text: String = (1..=14)
            .map(|i| format!("wp{i}: p{i}(X) -> p(X). wu{i}: u{i}(X) -> u(X).\n"))
            .collect();
        text.push_str(DECOMPOSABLE);
        text
    }

    #[test]
    fn auto_strategy_selects_by_estimated_dnf() {
        // An estimated DNF at the threshold routes to the program.
        let kb = KnowledgeBase::from_program_text(&wide_decomposable()).unwrap();
        assert_eq!(kb.strategy(), Strategy::Auto);
        let q = kb.queries()[0].clone();
        let answers = kb.answer(&q).unwrap();
        assert_eq!(answers.backend, "program");
        assert_eq!(answers.tuples.len(), 2);
        let prepared = kb.prepare(&q).unwrap();
        let program = kb.program(&prepared).unwrap();
        assert_eq!(program.estimated_dnf, DEFAULT_PROGRAM_THRESHOLD);
        assert!(matches!(
            program.strategy,
            nyaya_rewrite::ProgramStrategy::Clustered { clusters: 3 }
        ));

        // Below it, the 4-CQ DNF of the same shape stays on the UCQ path,
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

        // Single-cluster bodies never pay a program compile under Auto,
        // however large their DNF: the program would be the DNF itself.
        let sources: String = (0..DEFAULT_PROGRAM_THRESHOLD)
            .map(|i| format!("w{i}: w{i}(X, Y) -> has_stock(X, Y).\n"))
            .collect();
        let kb = KnowledgeBase::builder()
            .program_text(PROGRAM)
            .unwrap()
            .program_text(&sources)
            .unwrap()
            .build()
            .unwrap();
        let q = kb.prepare(&kb.queries()[0].clone()).unwrap();
        assert_eq!(kb.execute(&q).unwrap().backend, "in-memory");
        assert!(kb.rewriting(&q).unwrap().ucq.size() > DEFAULT_PROGRAM_THRESHOLD);
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
}
