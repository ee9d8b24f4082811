//! Access patterns and the shared build-side cache.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use nyaya_core::{Predicate, Term};

use crate::table::{cell_of, Database};

/// The database-wide identity of an atom's access pattern: which
/// predicate is read, which columns form the hash-join key, and which
/// constant/equality filters restrict the rows. Two atoms from different
/// disjuncts with the same pattern can share one hashed build side.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct PatternKey {
    pred: Predicate,
    /// Columns hashed as the join key, ascending.
    key_cols: Vec<usize>,
    /// Constant filters `row[col] == term`, sorted by column.
    consts: Vec<(usize, Term)>,
    /// Intra-atom equalities `row[col] == row[earlier_col]`.
    repeats: Vec<(usize, usize)>,
}

impl PatternKey {
    /// Construct a pattern identity from an atom's classified columns
    /// (`join.rs` compiles every step, and so names every pattern).
    pub(crate) fn make(
        pred: Predicate,
        key_cols: Vec<usize>,
        consts: Vec<(usize, Term)>,
        repeats: Vec<(usize, usize)>,
    ) -> Self {
        PatternKey {
            pred,
            key_cols,
            consts,
            repeats,
        }
    }
}

/// A hashed build side: row ids of the filtered table, grouped by their
/// join-key **cell** tuple (in `key_cols` order). With no key columns
/// there is a single group under the empty key — a cached filtered scan.
/// The single-column case (the overwhelmingly common join shape) keys
/// the map by a bare `u32`, so probing is one integer hash.
pub(crate) struct Build {
    groups: BuildGroups,
}

enum BuildGroups {
    /// Exactly one key column: cell → row ids.
    Single(HashMap<u32, Vec<u32>>),
    /// Zero or two-plus key columns: cell tuple → row ids.
    Multi(HashMap<Vec<u32>, Vec<u32>>),
}

impl Build {
    fn empty(key_cols: usize) -> Build {
        Build {
            groups: if key_cols == 1 {
                BuildGroups::Single(HashMap::new())
            } else {
                BuildGroups::Multi(HashMap::new())
            },
        }
    }

    /// Row ids grouped under the cell tuple `key` (empty slice when the
    /// group is absent). `key.len()` must match the pattern's key-column
    /// count.
    #[inline]
    pub(crate) fn group_cells(&self, key: &[u32]) -> &[u32] {
        match &self.groups {
            BuildGroups::Single(m) => m.get(&key[0]).map_or(&[], Vec::as_slice),
            BuildGroups::Multi(m) => m.get(key).map_or(&[], Vec::as_slice),
        }
    }

    fn construct(db: &Database, key: &PatternKey) -> Build {
        let Some(table) = db.table(key.pred) else {
            return Build::empty(key.key_cols.len());
        };
        // Constant filters as cells: a non-constant matches nothing (no
        // row holds one).
        let Some(consts) = key
            .consts
            .iter()
            .map(|(col, term)| cell_of(term).map(|c| (*col, c)))
            .collect::<Option<Vec<(usize, u32)>>>()
        else {
            return Build::empty(key.key_cols.len());
        };
        let mut groups = Build::empty(key.key_cols.len()).groups;
        let mut insert = |id: u32| {
            for &(col, cell) in &consts {
                if table.cell_at(id, col) != cell {
                    return;
                }
            }
            for &(col, earlier) in &key.repeats {
                if table.cell_at(id, col) != table.cell_at(id, earlier) {
                    return;
                }
            }
            match &mut groups {
                BuildGroups::Single(m) => m
                    .entry(table.cell_at(id, key.key_cols[0]))
                    .or_default()
                    .push(id),
                BuildGroups::Multi(m) => m
                    .entry(key.key_cols.iter().map(|&c| table.cell_at(id, c)).collect())
                    .or_default()
                    .push(id),
            }
        };
        // Drive the scan from the most selective constant's posting list
        // when there is one (it holds live rows only); otherwise enumerate
        // the live row ids.
        let driver = consts
            .iter()
            .min_by_key(|(col, cell)| table.posting_cells(*col, *cell).len());
        match driver {
            Some(&(col, cell)) => {
                for &id in table.posting_cells(col, cell) {
                    insert(id);
                }
            }
            None => {
                for id in table.live_ids() {
                    insert(id);
                }
            }
        }
        Build { groups }
    }
}

/// Upper bound on cached build sides per [`BuildCache`]; past it, builds
/// are still constructed and used but not retained. A pattern that names
/// a constant is never retained at all (see
/// [`get_or_build`](BuildCache::get_or_build)), so the retained patterns
/// are those of the constant-free query shapes the cache serves.
pub(crate) const MAX_CACHED_BUILDS: usize = 4096;

/// A concurrent cache of hashed build sides, keyed by access pattern.
/// One cache is shared across all disjuncts of a UCQ execution (and all
/// worker threads of the parallel path); since PR 3 a cache also
/// persists on each published snapshot, shared by every execution over
/// that epoch. Bounded by `MAX_CACHED_BUILDS` (4096) builds.
#[derive(Default)]
pub struct BuildCache {
    builds: RwLock<HashMap<PatternKey, Arc<Build>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BuildCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the build side and whether it was served from the cache
    /// — the flag is what makes per-call hit/miss attribution exact
    /// even when many executions share this cache concurrently.
    ///
    /// A pattern that names a constant (a join key or a repeat beside a
    /// constant, or two constants) is built for the step that asked and
    /// not retained: point queries bring a new constant each, which would
    /// fill a long-lived snapshot's cache with builds no later query
    /// reads. The planner already charges every hash step its own build.
    /// (A scan filtered by one constant alone reads that constant's
    /// posting list and never reaches the cache, `join.rs`.)
    pub(crate) fn get_or_build(&self, db: &Database, key: &PatternKey) -> (Arc<Build>, bool) {
        if !key.consts.is_empty() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return (Arc::new(Build::construct(db, key)), false);
        }
        // A cache is advisory state: entries are immutable `Arc<Build>`s
        // and a panic mid-insert leaves the map valid, so a poisoned lock
        // is recovered rather than propagated — one panicking reader must
        // not wedge every later execution.
        if let Some(build) = self
            .builds
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(build), true);
        }
        // Built outside the lock: a racing thread may build the same
        // pattern twice; both results are identical and the last insert
        // wins, which is benign.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let build = Arc::new(Build::construct(db, key));
        let mut builds = self.builds.write().unwrap_or_else(PoisonError::into_inner);
        if builds.len() < MAX_CACHED_BUILDS {
            builds.insert(key.clone(), Arc::clone(&build));
        }
        (build, false)
    }

    /// Times a disjunct found its build side already hashed.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Times a build side was constructed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cached build sides.
    pub fn len(&self) -> usize {
        self.builds
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The successor cache after a write touching `touched`: entries over
    /// untouched predicates are carried over (their hashed build sides
    /// stay valid — the underlying tables are COW-shared with the new
    /// snapshot), entries over touched predicates are evicted. Returns
    /// the new cache and the eviction count; hit/miss counters start at
    /// zero.
    pub fn carried_over(&self, touched: &HashSet<Predicate>) -> (BuildCache, u64) {
        let builds = self.builds.read().unwrap_or_else(PoisonError::into_inner);
        let mut kept: HashMap<PatternKey, Arc<Build>> = HashMap::with_capacity(builds.len());
        let mut evicted = 0u64;
        for (key, build) in builds.iter() {
            if touched.contains(&key.pred) {
                evicted += 1;
            } else {
                kept.insert(key.clone(), Arc::clone(build));
            }
        }
        (
            BuildCache {
                builds: RwLock::new(kept),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            },
            evicted,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_ucq_intra;
    use crate::test_support::{cq, sample_db};
    use nyaya_core::UnionQuery;

    #[test]
    fn build_cache_is_shared_across_disjuncts() {
        let db = sample_db();
        // Three disjuncts with the same access pattern on list_comp: one
        // build, two hits.
        let u = UnionQuery::new(vec![
            cq(&["A"], &[("list_comp", &["A", "B"])]),
            cq(&["C"], &[("list_comp", &["C", "D"])]),
            cq(&["X"], &[("list_comp", &["X", "Y"])]),
        ]);
        let (ans, metrics) = execute_ucq_intra(&db, &u, 1, 1, &BuildCache::new(), 1.0);
        assert_eq!(ans.len(), 2);
        assert_eq!(metrics.build_cache_misses, 1, "{metrics:?}");
        assert_eq!(metrics.build_cache_hits, 2, "{metrics:?}");
        assert_eq!(metrics.disjuncts, 3);
        assert_eq!(metrics.rows, 2);
    }

    #[test]
    fn carried_over_evicts_exactly_the_touched_predicates() {
        let db = sample_db();
        let u = UnionQuery::new(vec![
            cq(&["A"], &[("list_comp", &["A", "B"])]),
            cq(&["A"], &[("has_stock", &["A", "B"])]),
        ]);
        let cache = BuildCache::new();
        execute_ucq_intra(&db, &u, 1, 1, &cache, 1.0);
        assert_eq!(cache.len(), 2);

        let touched: HashSet<Predicate> = [Predicate::new("list_comp", 2)].into();
        let (next, evicted) = cache.carried_over(&touched);
        assert_eq!(evicted, 1);
        assert_eq!(next.len(), 1);
        // Re-running over the successor cache: has_stock hits, list_comp
        // rebuilds.
        let (_, metrics) = execute_ucq_intra(&db, &u, 1, 1, &next, 1.0);
        assert_eq!(metrics.build_cache_hits, 1, "{metrics:?}");
        assert_eq!(metrics.build_cache_misses, 1, "{metrics:?}");
    }

    #[test]
    fn shared_cache_metrics_report_per_call_deltas() {
        let db = sample_db();
        let u = UnionQuery::new(vec![cq(&["A"], &[("list_comp", &["A", "B"])])]);
        let cache = BuildCache::new();
        let (_, first) = execute_ucq_intra(&db, &u, 1, 1, &cache, 1.0);
        assert_eq!((first.build_cache_hits, first.build_cache_misses), (0, 1));
        let (_, second) = execute_ucq_intra(&db, &u, 1, 1, &cache, 1.0);
        assert_eq!(
            (second.build_cache_hits, second.build_cache_misses),
            (1, 0),
            "the second execution reuses the persistent build side"
        );
    }

    #[test]
    fn poisoned_build_cache_recovers_instead_of_wedging() {
        let db = sample_db();
        let u = UnionQuery::new(vec![cq(&["A"], &[("list_comp", &["A", "B"])])]);
        let cache = BuildCache::new();
        let (expected, _) = execute_ucq_intra(&db, &u, 1, 1, &cache, 1.0);
        // A reader that panics while holding the cache's write lock (the
        // worst case) poisons it; every later execution must recover.
        std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let _guard = cache.builds.write().unwrap();
                panic!("poisoning the build cache");
            });
            assert!(handle.join().is_err());
        });
        let (answers, metrics) = execute_ucq_intra(&db, &u, 1, 1, &cache, 1.0);
        assert_eq!(answers, expected);
        assert_eq!(metrics.build_cache_hits, 1, "the warm entry survived");
        assert_eq!(cache.len(), 1);
        let (next, _) = cache.carried_over(&HashSet::new());
        assert_eq!(next.len(), 1);
    }
}
