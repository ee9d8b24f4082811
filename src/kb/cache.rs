//! One cache entry per query shape.
//!
//! The paper's rewriting depends on the query and Σ alone, so everything
//! the facade learns about one query shape — its perfect rewriting, its
//! non-recursive Datalog program, the [`Strategy::Auto`] choice between
//! the two, the planner's learned cardinality correction and the last few
//! exact answer sets — lives in one [`QueryEntry`], keyed by the canonical
//! query and the engine. α-equivalent queries share an entry; data writes
//! invalidate none of it (cached answers carry the epochs they were
//! computed at and simply stop matching).
//!
//! [`Strategy::Auto`]: super::Strategy::Auto

use std::collections::{BTreeSet, VecDeque};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

use nyaya_core::Term;

use super::{Answers, CompiledProgram, CompiledRewriting, REPLAN_RATIO};

/// Cached answer sets kept per entry: enough for a few distinct epochs to
/// stay warm under `execute_at_epoch` time travel without letting
/// historical sweeps grow the cache unboundedly.
const ANSWER_CACHE_PER_QUERY: usize = 4;

/// Learned correction factors are clamped to `[1/64, 64]` so one absurd
/// estimate cannot wedge a query into a pathological plan forever.
const MAX_CORRECTION: f64 = 64.0;

/// One memoized answer set in the exact answer cache.
pub(super) struct CachedAnswer {
    /// The snapshot's write epochs over the query's touched predicates
    /// (parallel to the compiled artifact's sorted `touched` list).
    fingerprint: Vec<u64>,
    /// [`Answers::backend`] of the execution that produced this.
    backend: &'static str,
    tuples: Arc<BTreeSet<Vec<Term>>>,
}

/// Everything the knowledge base knows about one (canonical query,
/// engine). The compiled slots are set once and never invalidated; the
/// locks are advisory (a poisoning panic cannot tear a value they guard),
/// so every lock recovers instead of wedging later queries.
pub(super) struct QueryEntry {
    pub(super) rewriting: OnceLock<Arc<CompiledRewriting>>,
    pub(super) program: OnceLock<Arc<CompiledProgram>>,
    /// The [`Strategy::Auto`](super::Strategy::Auto) decision (`true` =
    /// program target).
    pub(super) uses_program: OnceLock<bool>,
    /// The cardinality-feedback factor applied to join estimates.
    correction: Mutex<f64>,
    /// The exact answer cache: the newest answer sets, oldest first, each
    /// tagged with the snapshot's per-predicate write epochs over the
    /// predicates the query reads.
    pub(super) answers: RwLock<VecDeque<CachedAnswer>>,
}

impl Default for QueryEntry {
    fn default() -> Self {
        QueryEntry {
            rewriting: OnceLock::new(),
            program: OnceLock::new(),
            uses_program: OnceLock::new(),
            correction: Mutex::new(1.0),
            answers: RwLock::default(),
        }
    }
}

impl QueryEntry {
    /// The learned correction: `1.0` until an execution misses its
    /// estimate by ≥ [`REPLAN_RATIO`].
    pub(super) fn correction(&self) -> f64 {
        *self
            .correction
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Absorb one execution's actual/estimated row ratio. Within
    /// [`REPLAN_RATIO`] nothing changes; outside it the correction is
    /// multiplied by the ratio, clamped to ±64×. `true` iff the stored
    /// factor moved, so the next execution re-plans.
    pub(super) fn learn(&self, ratio: f64) -> bool {
        if (1.0 / REPLAN_RATIO..=REPLAN_RATIO).contains(&ratio) {
            return false;
        }
        let mut correction = self
            .correction
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let updated = (*correction * ratio).clamp(1.0 / MAX_CORRECTION, MAX_CORRECTION);
        if (updated - *correction).abs() <= f64::EPSILON {
            return false;
        }
        *correction = updated;
        true
    }

    /// The stored answer set whose fingerprint equals `fingerprint`.
    pub(super) fn answer(&self, fingerprint: &[u64]) -> Option<Answers> {
        let (backend, tuples) = self
            .answers
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .find(|a| a.fingerprint == fingerprint)
            .map(|a| (a.backend, Arc::clone(&a.tuples)))?;
        Some(Answers {
            backend,
            tuples: (*tuples).clone(),
            sql: None,
            complete: true,
        })
    }

    /// Remember one answer set under `fingerprint`, newest last: a
    /// fingerprint already held is not stored twice, and past
    /// [`ANSWER_CACHE_PER_QUERY`] the oldest set rotates out.
    pub(super) fn store(&self, fingerprint: Vec<u64>, answers: &Answers) {
        let mut ring = self.answers.write().unwrap_or_else(PoisonError::into_inner);
        if ring.iter().any(|a| a.fingerprint == fingerprint) {
            return;
        }
        if ring.len() >= ANSWER_CACHE_PER_QUERY {
            ring.pop_front();
        }
        ring.push_back(CachedAnswer {
            fingerprint,
            backend: answers.backend,
            tuples: Arc::new(answers.tuples.clone()),
        });
    }
}
