//! Batched ABox updates and epoch-stamped snapshots.
//!
//! The TODS extension of the paper separates the *fixed* TBox-compiled
//! rewriting from an *evolving* extensional database: the ontology is
//! compiled once, while facts arrive and retire continuously. This module
//! is that split made concrete:
//!
//! - an [`UpdateBatch`] collects fact insertions and retractions
//!   and is applied atomically by
//!   [`KnowledgeBase::apply`](crate::KnowledgeBase::apply);
//! - every apply publishes a new [`Snapshot`] — an immutable,
//!   epoch-stamped view of the data (indexed database, relational
//!   catalog, warm build-side cache, lazily-derived chase instance).
//!   In-flight readers keep the snapshot they started with; new readers
//!   see the new epoch. Nothing blocks on anything.
//!
//! Snapshots are cheap: [`Database`] clones share untouched tables whole,
//! and a written table is an immutable base — flat columns and posting
//! arrays, shared by every snapshot since its bulk load or last fold —
//! plus a small delta that the writing snapshot alone owns, so an apply
//! copies what earlier batches changed, not the table. The build-side
//! cache of the previous epoch is carried over for every predicate the
//! batch did not touch. Rewritings — which depend on the TBox only — are
//! never invalidated by data updates.

use std::collections::HashMap;
use std::sync::OnceLock;

use nyaya_chase::{ChaseOutcome, Instance};
use nyaya_core::{Atom, Predicate};
use nyaya_sql::{BuildCache, Catalog, Database};

/// A set of ABox insertions and retractions, applied atomically.
///
/// Within one batch, **retractions are applied first, then insertions**,
/// regardless of the order the builder calls were made in — a batch
/// containing both `retract(f)` and `insert(f)` therefore always leaves
/// `f` present, whether or not `f` existed before. Because the batch is
/// atomic, no reader (and no standing query — see
/// [`KnowledgeBase::subscribe`](crate::KnowledgeBase::subscribe)) ever
/// observes the intermediate state between the two phases: a same-fact
/// retract+insert over a present fact is a net no-op for the published
/// snapshot and propagates **no** delta to subscriptions, even though
/// both operations are counted in the [`ApplyOutcome`].
///
/// Facts must hold constants only;
/// [`KnowledgeBase::apply`](crate::KnowledgeBase::apply) rejects the
/// whole batch (without publishing anything) if any atom holds a
/// variable, a labelled null or a function term.
///
/// ```
/// use nyaya::prelude::*;
/// use nyaya::UpdateBatch;
///
/// let batch = UpdateBatch::new()
///     .insert(Atom::make("has_stock", ["sap_s", "fund2"]))
///     .retract(Atom::make("has_stock", ["ibm_s", "fund1"]));
/// assert_eq!(batch.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct UpdateBatch {
    pub(crate) inserts: Vec<Atom>,
    pub(crate) retracts: Vec<Atom>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a fact for insertion.
    pub fn insert(mut self, fact: Atom) -> Self {
        self.inserts.push(fact);
        self
    }

    /// Queue a fact for retraction.
    pub fn retract(mut self, fact: Atom) -> Self {
        self.retracts.push(fact);
        self
    }

    /// Queue many insertions.
    pub fn insert_all(mut self, facts: impl IntoIterator<Item = Atom>) -> Self {
        self.inserts.extend(facts);
        self
    }

    /// Queue many retractions.
    pub fn retract_all(mut self, facts: impl IntoIterator<Item = Atom>) -> Self {
        self.retracts.extend(facts);
        self
    }

    /// Queued insertions, in application order.
    pub fn inserts(&self) -> &[Atom] {
        &self.inserts
    }

    /// Queued retractions, in application order.
    pub fn retracts(&self) -> &[Atom] {
        &self.retracts
    }

    /// Total queued operations.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.retracts.len()
    }

    /// Does the batch queue no operations at all?
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.retracts.is_empty()
    }
}

/// Write one batch into `database` in the order [`UpdateBatch`]
/// documents — every retraction, then every insertion — and report each
/// write that changed the data to `changed`: `-1` for a retracted fact
/// that was present, `+1` for an inserted fact that was absent. Every
/// path that writes a batch goes through here: `apply`, crash recovery,
/// time travel and a subscription's catch-up.
pub(crate) fn replay(
    database: &mut Database,
    retracts: &[Atom],
    inserts: &[Atom],
    mut changed: impl FnMut(&Atom, i64),
) {
    for fact in retracts {
        if database.remove(fact) {
            changed(fact, -1);
        }
    }
    for fact in inserts {
        if database.insert(fact) {
            changed(fact, 1);
        }
    }
}

/// What one [`KnowledgeBase::apply`](crate::KnowledgeBase::apply) did.
///
/// The `inserted`/`retracted` counters count *effective* operations in
/// application order (retractions first, then insertions; see
/// [`UpdateBatch`]): a retraction counts iff the fact was present when
/// the retraction phase reached it, an insertion counts iff the fact was
/// absent when the insertion phase reached it. A same-fact
/// retract+insert over a present fact therefore reports
/// `retracted: 1, inserted: 1` even though the published snapshot is
/// unchanged for that fact; over an absent fact it reports
/// `retracted: 0, inserted: 1`. Duplicate operations within one phase
/// count once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// The epoch the new snapshot was published under.
    pub epoch: u64,
    /// Facts actually inserted (duplicates of existing facts don't count).
    pub inserted: usize,
    /// Facts actually retracted (absent facts don't count).
    pub retracted: usize,
    /// Build-cache entries evicted because their predicate was written.
    pub builds_invalidated: u64,
    /// Build-cache entries carried over into the new snapshot's cache.
    pub builds_carried_over: usize,
}

/// An immutable, epoch-stamped view of the knowledge base's data.
///
/// Obtained from [`KnowledgeBase::snapshot`](crate::KnowledgeBase::snapshot)
/// (behind an [`Arc`](std::sync::Arc)) and pinned by executors for the
/// duration of one query: every read within an execution sees the same
/// epoch, regardless of concurrent
/// [`apply`](crate::KnowledgeBase::apply) calls. Holding a snapshot never
/// blocks writers — it only keeps this epoch's (largely COW-shared)
/// tables alive.
pub struct Snapshot {
    /// Identity of the [`KnowledgeBase`](crate::KnowledgeBase) that
    /// published this snapshot — checked by
    /// [`execute_at`](crate::KnowledgeBase::execute_at) so a snapshot
    /// cannot silently serve a *different* base's rewritings over this
    /// base's data.
    pub(crate) owner: u64,
    pub(crate) epoch: u64,
    pub(crate) database: Database,
    pub(crate) catalog: Catalog,
    pub(crate) build_cache: BuildCache,
    /// Per-predicate write epochs, the answer cache's exactness witness:
    /// `pred_epochs[p] = e` (default [`base_epoch`](Self::pred_epoch))
    /// guarantees `p`'s table in this snapshot is bit-identical to `p`'s
    /// table at epoch `e` — `p` has not been written since. Two
    /// snapshots agreeing on these epochs for every predicate a query
    /// reads therefore yield *identical* answers, which is what lets a
    /// cached answer be served without any staleness risk.
    pub(crate) base_epoch: u64,
    pub(crate) pred_epochs: HashMap<Predicate, u64>,
    /// The chase-facing view of the data, derived on first use: pure
    /// rewriting workloads never pay for it.
    pub(super) chase_instance: OnceLock<Instance>,
    /// That instance chased under the knowledge base's normalized TGDs,
    /// run by the first chase-backend execution over this snapshot; every
    /// later one evaluates its query over it.
    chased: OnceLock<ChaseOutcome>,
}

impl Snapshot {
    pub(crate) fn new(
        owner: u64,
        epoch: u64,
        database: Database,
        catalog: Catalog,
        cache: BuildCache,
    ) -> Self {
        // A snapshot built whole (build time, ledger recovery) pins every
        // predicate to its own epoch: trivially exact, maximally
        // conservative for cache matching (false misses only).
        Snapshot::with_epochs(
            owner,
            epoch,
            database,
            catalog,
            cache,
            epoch,
            HashMap::new(),
        )
    }

    /// Construct with explicit per-predicate write epochs (successor
    /// snapshots carry their predecessor's map forward; materialized
    /// historical snapshots derive theirs from the replayed log).
    pub(crate) fn with_epochs(
        owner: u64,
        epoch: u64,
        database: Database,
        catalog: Catalog,
        cache: BuildCache,
        base_epoch: u64,
        pred_epochs: HashMap<Predicate, u64>,
    ) -> Self {
        Snapshot {
            owner,
            epoch,
            database,
            catalog,
            build_cache: cache,
            base_epoch,
            pred_epochs,
            chase_instance: OnceLock::new(),
            chased: OnceLock::new(),
        }
    }

    /// The epoch `pred`'s table was last written at — this snapshot's
    /// content for `pred` equals its content at exactly that epoch.
    /// Predicates never written since the snapshot's base state report
    /// the base epoch.
    pub(crate) fn pred_epoch(&self, pred: Predicate) -> u64 {
        self.pred_epochs
            .get(&pred)
            .copied()
            .unwrap_or(self.base_epoch)
    }

    /// The epoch this snapshot was published under. Epoch 0 is the
    /// [`build`](crate::KnowledgeBaseBuilder::build)-time state; every
    /// applied batch increments it by one.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The indexed relational database of this epoch.
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// The relational catalog of this epoch (extended whenever an update
    /// introduces a predicate no TGD, query or earlier fact mentioned).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// This epoch's persistent build-side cache. Patterns hashed by any
    /// execution over this snapshot are reused by all later ones; a new
    /// epoch starts from this cache minus the written predicates.
    pub fn build_cache(&self) -> &BuildCache {
        &self.build_cache
    }

    /// The facts of this epoch as a chase [`Instance`], derived (in
    /// deterministic order) on first use and memoized.
    pub fn instance(&self) -> &Instance {
        self.chase_instance
            .get_or_init(|| Instance::from_atoms(self.facts()))
    }

    /// This epoch's [`instance`](Self::instance) chased by `chase` the
    /// first time it is asked for, memoized. The caller passes the same
    /// chase every time: the knowledge base's normalized TGDs under its
    /// chase budget, both fixed at build time.
    pub(crate) fn chased(&self, chase: impl FnOnce(&Instance) -> ChaseOutcome) -> &ChaseOutcome {
        self.chased.get_or_init(|| chase(self.instance()))
    }

    /// The facts of this epoch, in deterministic (sorted) order.
    pub fn facts(&self) -> Vec<Atom> {
        let mut facts: Vec<Atom> = self.database.facts().collect();
        facts.sort_unstable();
        facts
    }

    /// Number of facts in this epoch.
    pub fn len(&self) -> usize {
        self.database.len()
    }

    /// Does this epoch hold no facts?
    pub fn is_empty(&self) -> bool {
        self.database.is_empty()
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("epoch", &self.epoch)
            .field("facts", &self.database.len())
            .field("cached_builds", &self.build_cache.len())
            .finish()
    }
}
