//! One cache entry per query shape.
//!
//! The paper's rewriting depends on the query and Σ alone, so everything
//! the facade learns about one query shape — its perfect rewriting, its
//! non-recursive Datalog program, the [`Strategy::Auto`] choice between
//! the two, the planner's learned cardinality correction and the last few
//! exact answer sets — lives in one [`QueryEntry`], keyed by the canonical
//! query template (its constants Σ never mentions abstracted, see
//! `template.rs`) and the engine. α-equivalent queries and queries that
//! differ only in such constants share an entry, whose compiled forms
//! hold parameters each handle binds; data writes invalidate none of it
//! (cached answers carry the epochs they were computed at and the
//! constants they were computed for, and simply stop matching).
//!
//! [`Strategy::Auto`]: super::Strategy::Auto

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::thread::{self, ThreadId};

use nyaya_core::{CanonicalKey, Term};

use super::{Algorithm, Answers, CompiledProgram, CompiledRewriting, REPLAN_RATIO};

/// Cached answer sets kept per entry of a query that binds no constant:
/// enough for a few distinct epochs to stay warm under `execute_at_epoch`
/// time travel without letting historical sweeps grow the cache
/// unboundedly.
pub(super) const ANSWER_CACHE_PER_QUERY: usize = 4;

/// Cached answer sets kept per entry of a template with parameters, whose
/// ring every constant bound into it shares: enough for a few dozen hot
/// constants (or one constant at a few epochs each) to keep hitting in
/// rotation, as they did when each constant had an entry of its own.
pub(super) const ANSWER_CACHE_PER_TEMPLATE: usize = 64;

/// Entries past which adding one first drops every entry no handle holds
/// (see [`Entries::get_or_insert`]): distinct templates would otherwise
/// grow the map without limit in a long-running server.
pub(super) const MAX_QUERY_ENTRIES: usize = 1024;

/// Learned correction factors are clamped to `[1/64, 64]` so one absurd
/// estimate cannot wedge a query into a pathological plan forever.
const MAX_CORRECTION: f64 = 64.0;

/// One memoized answer set in the exact answer cache.
pub(super) struct CachedAnswer {
    /// The symbol indices of the constants the handle bound, then the
    /// snapshot's write epochs over the query's touched predicates
    /// (parallel to the compiled artifact's sorted `touched` list).
    fingerprint: Vec<u64>,
    /// [`Answers::backend`] of the execution that produced this.
    backend: &'static str,
    tuples: Arc<BTreeSet<Vec<Term>>>,
    /// The thread that stored it, which [`QueryEntry::store`] prefers to
    /// rotate it out.
    owner: ThreadId,
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
    /// The cardinality-feedback factor applied to join estimates (of a
    /// query that binds no constant, see `KnowledgeBase::plan_correction`).
    pub(super) correction: Correction,
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
            correction: Correction::default(),
            answers: RwLock::default(),
        }
    }
}

/// One knowledge base's query entries, by (canonical template, engine).
pub(super) struct Entries {
    map: HashMap<(CanonicalKey, Algorithm), Arc<QueryEntry>>,
    /// The size at which adding an entry next sweeps out the unheld ones.
    sweep_at: usize,
}

impl Default for Entries {
    fn default() -> Self {
        Entries {
            map: HashMap::new(),
            sweep_at: MAX_QUERY_ENTRIES,
        }
    }
}

impl Entries {
    pub(super) fn get(&self, key: &(CanonicalKey, Algorithm)) -> Option<&Arc<QueryEntry>> {
        self.map.get(key)
    }

    pub(super) fn values(&self) -> impl Iterator<Item = &Arc<QueryEntry>> {
        self.map.values()
    }

    /// The entry under `key`, added empty if absent. An addition that
    /// finds [`MAX_QUERY_ENTRIES`] or more entries first drops every entry
    /// no handle holds (`Arc::strong_count == 1`) — a held handle keeps
    /// its compiled forms — and the next sweep waits until the map has
    /// doubled what that one kept, so entries that handles hold past the
    /// bound cost no scan per addition.
    pub(super) fn get_or_insert(&mut self, key: (CanonicalKey, Algorithm)) -> Arc<QueryEntry> {
        if self.map.len() >= self.sweep_at && !self.map.contains_key(&key) {
            self.map.retain(|_, entry| Arc::strong_count(entry) > 1);
            self.sweep_at = (2 * self.map.len()).max(MAX_QUERY_ENTRIES);
        }
        Arc::clone(self.map.entry(key).or_default())
    }
}

/// A learned cardinality-correction factor, applied to join estimates on
/// every re-plan.
pub(super) struct Correction(Mutex<f64>);

impl Default for Correction {
    fn default() -> Self {
        Correction(Mutex::new(1.0))
    }
}

impl Correction {
    /// The learned correction: `1.0` until an execution misses its
    /// estimate by ≥ [`REPLAN_RATIO`].
    pub(super) fn get(&self) -> f64 {
        *self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Absorb one execution's actual/estimated row ratio. Within
    /// [`REPLAN_RATIO`] nothing changes; outside it the correction is
    /// multiplied by the ratio, clamped to ±64×. `true` iff the stored
    /// factor moved, so the next execution re-plans.
    pub(super) fn learn(&self, ratio: f64) -> bool {
        if (1.0 / REPLAN_RATIO..=REPLAN_RATIO).contains(&ratio) {
            return false;
        }
        let mut correction = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let updated = (*correction * ratio).clamp(1.0 / MAX_CORRECTION, MAX_CORRECTION);
        if (updated - *correction).abs() <= f64::EPSILON {
            return false;
        }
        *correction = updated;
        true
    }
}

impl QueryEntry {
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
    /// fingerprint already held is not stored twice, and past `capacity`
    /// sets an older set rotates out — the oldest one this thread stored,
    /// else the oldest.
    ///
    /// Every point query of a template stores into one ring, so in a
    /// server the set rotated out was usually allocated by another worker
    /// thread. glibc's malloc gives each thread its own arena, and freeing
    /// a block returns it to the arena it came from under that arena's
    /// lock, which its owner holds through a `realloc`'s copy: while the
    /// other worker grew a large rendered answer, such a free stalled a
    /// point query for milliseconds (on a 2-core host, `lubm_serve`'s
    /// `op_ms_tail` read 2.2–4.4 ms with plain rotation and ≈ 1.2 ms with
    /// eviction preferring the own sets).
    pub(super) fn store(&self, fingerprint: Vec<u64>, answers: &Answers, capacity: usize) {
        let owner = thread::current().id();
        let mut ring = self.answers.write().unwrap_or_else(PoisonError::into_inner);
        if ring.iter().any(|a| a.fingerprint == fingerprint) {
            return;
        }
        if ring.len() >= capacity {
            let oldest = ring.iter().position(|a| a.owner == owner).unwrap_or(0);
            ring.remove(oldest);
        }
        ring.push_back(CachedAnswer {
            fingerprint,
            backend: answers.backend,
            tuples: Arc::new(answers.tuples.clone()),
            owner,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answers(k: u64) -> Answers {
        Answers {
            backend: "in-memory",
            tuples: [vec![Term::constant(&format!("t{k}"))]].into(),
            sql: None,
            complete: true,
        }
    }

    fn held(entry: &QueryEntry) -> Vec<u64> {
        (0..8).filter(|&k| entry.answer(&[k]).is_some()).collect()
    }

    #[test]
    fn a_full_ring_rotates_out_the_storing_threads_oldest_set() {
        let entry = QueryEntry::default();
        let store = |keys: std::ops::Range<u64>| {
            for k in keys {
                entry.store(vec![k], &answers(k), 4);
            }
        };
        // Another thread stores 0 and 1, this one 2 and 3: the ring is full.
        thread::scope(|s| s.spawn(|| store(0..2)).join().unwrap());
        store(2..4);
        // This thread's next set rotates out its own oldest, 2.
        store(4..5);
        assert_eq!(held(&entry), [0, 1, 3, 4]);
        assert_eq!(entry.answer(&[4]).unwrap().tuples, answers(4).tuples);
        // A thread with no set in the ring rotates out the oldest, 0.
        thread::scope(|s| s.spawn(|| store(5..6)).join().unwrap());
        assert_eq!(held(&entry), [1, 3, 4, 5]);
    }
}
