//! Standing queries: subscriptions maintained incrementally.
//!
//! [`KnowledgeBase::subscribe`](crate::KnowledgeBase::subscribe) seeds a
//! [`MaterializedView`] with a prepared query's compiled non-recursive
//! Datalog program — the one [`KnowledgeBase::program`](crate::KnowledgeBase::program)
//! returns, renaming rules already inlined by the program optimizer —
//! which materializes the answer set with per-tuple support counts, and
//! registers the view so every [`apply`](crate::KnowledgeBase::apply)
//! propagates just that batch's deltas through the program's delta rules
//! instead of re-executing the query.
//! Each epoch publishes one [`AnswerDiff`] into the subscription's queue;
//! [`Subscription::poll`] drains it.
//!
//! A `Subscription` is a plain handle: dropping it unregisters the view
//! (the knowledge base holds only a `Weak` reference), and it can be
//! polled from any thread while writers keep applying batches.

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use nyaya_core::Term;
use nyaya_sql::MaterializedView;

/// The answer-set change one epoch produced for a standing query.
///
/// `added` and `removed` are sorted, disjoint, and expressed over the
/// goal atom's answer tuples. Every applied epoch yields exactly one
/// diff — possibly empty — so a consumer replaying diffs in order tracks
/// the full-re-execution answer set at every epoch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnswerDiff {
    /// The epoch whose batch produced this change.
    pub epoch: u64,
    /// Answer tuples that became derivable at this epoch.
    pub added: Vec<Vec<Term>>,
    /// Answer tuples that stopped being derivable at this epoch.
    pub removed: Vec<Vec<Term>>,
}

impl AnswerDiff {
    /// Did this epoch leave the answer set unchanged?
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// Shared state between a [`Subscription`] handle and the knowledge
/// base's registry. All three fields are advisory per-subscription state:
/// a panic while one is locked tears at most this subscription, so the
/// locks recover from poisoning instead of spreading the panic.
pub(crate) struct SubscriptionInner {
    /// The support-counted materialization the writer propagates into.
    pub(crate) view: Mutex<MaterializedView>,
    /// Per-epoch diffs not yet drained by [`Subscription::poll`].
    pub(crate) pending: Mutex<VecDeque<AnswerDiff>>,
    /// The newest epoch whose diff has been pushed.
    pub(crate) epoch: AtomicU64,
}

impl SubscriptionInner {
    pub(crate) fn new(view: MaterializedView, initial: VecDeque<AnswerDiff>, epoch: u64) -> Self {
        SubscriptionInner {
            view: Mutex::new(view),
            pending: Mutex::new(initial),
            epoch: AtomicU64::new(epoch),
        }
    }

    /// Publish one epoch's diff (writer side, called under the apply lock).
    pub(crate) fn push(&self, diff: AnswerDiff) {
        let epoch = diff.epoch;
        self.pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(diff);
        self.epoch.store(epoch, Ordering::Release);
    }
}

/// A standing query over a [`KnowledgeBase`](crate::KnowledgeBase),
/// maintained incrementally by delta propagation on every
/// [`apply`](crate::KnowledgeBase::apply).
pub struct Subscription {
    pub(crate) inner: Arc<SubscriptionInner>,
}

impl Subscription {
    /// Drain every diff published since the last `poll` (or since
    /// subscribing), in ascending epoch order. The first diff of a fresh
    /// subscription is the initial answer set (`added` = all current
    /// answers) at the seed epoch.
    pub fn poll(&self) -> Vec<AnswerDiff> {
        self.inner
            .pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect()
    }

    /// The current answer set of the standing query, as of
    /// [`epoch`](Self::epoch). Unlike [`poll`](Self::poll) this does not
    /// consume anything.
    pub fn current(&self) -> BTreeSet<Vec<Term>> {
        self.inner
            .view
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .answers()
            .clone()
    }

    /// The newest epoch whose diff has been published (drained or not).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    /// Number of diffs waiting in the queue.
    pub fn pending(&self) -> usize {
        self.inner
            .pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

impl std::fmt::Debug for Subscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscription")
            .field("epoch", &self.epoch())
            .field("pending", &self.pending())
            .finish_non_exhaustive()
    }
}
