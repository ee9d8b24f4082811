//! Access patterns and the shared build-side cache: the groupings of a
//! table's rows that no index of the table holds — by a key column under
//! a constant or a repeat filter, or by two or more key columns. A join
//! on one key column with no other filter probes the column's posting
//! index, and a scan reads the table in place (`join.rs`); neither
//! reaches this cache.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use nyaya_core::{Predicate, Term};

use crate::table::{cell_of, hash_bytes, Database, Table};

/// The database-wide identity of an atom's access pattern: which
/// predicate is read, which columns form the hash-join key, and which
/// constant/equality filters restrict the rows. Two atoms from different
/// disjuncts with the same pattern can share one hashed build side.
/// `join.rs` compiles every step, and so names every pattern.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct PatternKey {
    pub(crate) pred: Predicate,
    /// Columns hashed as the join key, ascending.
    pub(crate) key_cols: Vec<usize>,
    /// Constant filters `row[col] == term`, sorted by column.
    pub(crate) consts: Vec<(usize, Term)>,
    /// Intra-atom equalities `row[col] == row[earlier_col]`.
    pub(crate) repeats: Vec<(usize, usize)>,
}

/// A hashed build side: the ids of the filtered table's rows in one
/// flat array, grouped by their join-key **cell** tuple (in `key_cols`
/// order), and an index from each key to its group's `(start, end)` span
/// of that array. Within a group, ids are ascending — the order the scan
/// that drives the build yields them. A build is two heap blocks however
/// many groups it holds (past two key columns, plus one boxed key per
/// group), so constructing it and dropping it (when a write evicts it
/// with its snapshot's cache) costs a constant number of allocations and
/// frees.
pub(crate) struct Build {
    /// Every matching row id, grouped by key.
    rows: Box<[u32]>,
    spans: Spans,
}

/// A group's `(start, end)` in [`Build::rows`].
type Span = (u32, u32);

/// Key → [`Span`] of its group, one map shape per key width, so the
/// common keys hash as one integer. A build always has a key column: a
/// scan with none reads the table in place (`join.rs`).
enum Spans {
    /// One key column: the bare cell.
    One(HashMap<u32, Span>),
    /// Two key columns: both cells packed by [`pack`].
    Two(HashMap<u64, Span>),
    /// Three or more key columns: the cell tuple (no workload has one).
    /// An empty build of any key width is also `Many`, with no groups.
    Many(HashMap<Box<[u32]>, Span>),
}

/// Two key cells as one integer, the first in the high half.
#[inline]
fn pack(first: u32, second: u32) -> u64 {
    u64::from(first) << 32 | u64::from(second)
}

impl Build {
    /// Row ids grouped under the cell tuple `key` (empty slice when the
    /// group is absent). `key.len()` must match the pattern's key-column
    /// count.
    #[inline]
    pub(crate) fn group_cells(&self, key: &[u32]) -> &[u32] {
        let span = match &self.spans {
            Spans::One(m) => m.get(&key[0]),
            Spans::Two(m) => m.get(&pack(key[0], key[1])),
            Spans::Many(m) => m.get(key),
        };
        span.map_or(&[], |&(start, end)| {
            &self.rows[start as usize..end as usize]
        })
    }

    /// Heap bytes held: the row array and the span map's buckets (plus a
    /// wide key's cells).
    pub(crate) fn bytes(&self) -> usize {
        let spans = match &self.spans {
            Spans::One(m) => hash_bytes::<u32, Span>(m.capacity()),
            Spans::Two(m) => hash_bytes::<u64, Span>(m.capacity()),
            Spans::Many(m) => {
                hash_bytes::<Box<[u32]>, Span>(m.capacity())
                    + m.keys().map(|k| k.len() * 4).sum::<usize>()
            }
        };
        self.rows.len() * 4 + spans
    }

    /// Collect the matching ids once, each with its key packed above it,
    /// sort the packed words, and cut the sorted array into its runs of
    /// equal keys. The driver yields ids ascending, so sorting by key and
    /// then id keeps every group in driver order.
    fn construct(db: &Database, key: &PatternKey) -> Build {
        let Some(table) = db.table(key.pred) else {
            return Build {
                rows: Box::default(),
                spans: Spans::Many(HashMap::new()),
            };
        };
        let (consts, repeats) = (&key.consts, &key.repeats);
        let cell = |id: u32, col: usize| table.cell_at(id, col);
        match *key.key_cols.as_slice() {
            [col] => {
                let mut words = matching(table, consts, repeats, |id| pack(cell(id, col), id));
                words.sort_unstable();
                let (rows, spans) = grouped(
                    &words,
                    |w| w as u32,
                    |a, b| a >> 32 == b >> 32,
                    |w| (w >> 32) as u32,
                );
                Build {
                    rows,
                    spans: Spans::One(spans),
                }
            }
            [first, second] => {
                let mut words = matching(table, consts, repeats, |id| {
                    u128::from(pack(cell(id, first), cell(id, second))) << 32 | u128::from(id)
                });
                words.sort_unstable();
                let (rows, spans) = grouped(
                    &words,
                    |w| w as u32,
                    |a, b| a >> 32 == b >> 32,
                    |w| (w >> 32) as u64,
                );
                Build {
                    rows,
                    spans: Spans::Two(spans),
                }
            }
            ref cols => {
                let key_of = |id: u32| cols.iter().map(move |&col| cell(id, col));
                let mut ids = matching(table, consts, repeats, |id| id);
                ids.sort_unstable_by(|&a, &b| key_of(a).cmp(key_of(b)).then(a.cmp(&b)));
                let (rows, spans) = grouped(
                    &ids,
                    |id| id,
                    |a, b| key_of(a).eq(key_of(b)),
                    |id| key_of(id).collect(),
                );
                Build {
                    rows,
                    spans: Spans::Many(spans),
                }
            }
        }
    }
}

/// Every id of `table`'s live rows that pass the constant and repeat
/// filters, through `word`, in driver order (ascending), into one array
/// sized by the driver. The scan is driven from the most selective
/// constant's posting list when there is one (it holds live rows only);
/// otherwise it enumerates the live row ids. A non-constant filter
/// matches nothing: no row holds one.
pub(crate) fn matching<T>(
    table: &Table,
    consts: &[(usize, Term)],
    repeats: &[(usize, usize)],
    word: impl Fn(u32) -> T,
) -> Vec<T> {
    let Some(consts) = consts
        .iter()
        .map(|(col, term)| cell_of(term).map(|c| (*col, c)))
        .collect::<Option<Vec<(usize, u32)>>>()
    else {
        return Vec::new();
    };
    let admits = |id: &u32| {
        consts
            .iter()
            .all(|&(col, cell)| table.cell_at(*id, col) == cell)
            && repeats
                .iter()
                .all(|&(col, earlier)| table.cell_at(*id, col) == table.cell_at(*id, earlier))
    };
    let driver = consts
        .iter()
        .map(|&(col, cell)| table.posting_cells(col, cell))
        .min_by_key(|posting| posting.len());
    let mut out = Vec::with_capacity(driver.map_or(table.len(), <[u32]>::len));
    match driver {
        Some(posting) => {
            debug_assert!(posting.is_sorted(), "posting lists are ascending");
            out.extend(posting.iter().copied().filter(admits).map(word));
        }
        None => out.extend(table.live_ids().filter(admits).map(word)),
    }
    out
}

/// Cut `sorted` into its runs of `same` elements: the row ids in order,
/// and each run's `key` → `(start, end)`, in a map sized once.
fn grouped<T: Copy, K: Hash + Eq>(
    sorted: &[T],
    id: impl Fn(T) -> u32,
    same: impl Fn(T, T) -> bool,
    key: impl Fn(T) -> K,
) -> (Box<[u32]>, HashMap<K, Span>) {
    let rows = sorted.iter().map(|&w| id(w)).collect();
    let runs = sorted.chunk_by(|&a, &b| same(a, b));
    let mut spans = HashMap::with_capacity(runs.clone().count());
    let mut start = 0u32;
    for run in runs {
        let end = start + run.len() as u32;
        spans.insert(key(run[0]), (start, end));
        start = end;
    }
    (rows, spans)
}

/// Upper bound on cached build sides per [`BuildCache`]; past it, builds
/// are still constructed and used but not retained. A pattern that names
/// a constant is never retained at all (see
/// [`get_or_build`](BuildCache::get_or_build)), so the retained patterns
/// are those of the constant-free query shapes the cache serves. The
/// bound counts builds, not bytes ([`BuildCache::bytes`] reports those);
/// each [`Build`] is flat, so evicting one frees a few blocks whatever
/// its size.
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

    /// Heap bytes held by the cached build sides: per build, its row-id
    /// array and its span map's buckets.
    pub fn bytes(&self) -> u64 {
        self.builds
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .map(|build| build.bytes() as u64)
            .sum()
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
    use nyaya_core::{Atom, ConjunctiveQuery, UnionQuery};

    /// xorshift64: the crate has no dependency to draw a generator from.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// Six constants, so keys repeat across rows.
    fn value(k: usize) -> Term {
        Term::constant(&format!("v{k}"))
    }

    fn random_fact(rng: &mut Rng) -> Atom {
        let arity = 1 + rng.below(4);
        let args = (0..arity).map(|_| value(rng.below(6))).collect();
        Atom::new(Predicate::new(&format!("p{arity}"), arity), args)
    }

    /// Every pattern over `p1`…`p4` (each column a fresh variable, a key,
    /// a constant — stored, never stored, or a labelled null — or a
    /// repeat of the first fresh column) and over the absent `p5`, built
    /// on tables with appended and dead rows: each probed group is the
    /// naive filter of the live rows, in live-id order.
    #[test]
    fn grouping_equals_a_naive_filter_of_the_live_rows() {
        let mut grouped = 0usize;
        for seed in 1..=20u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut db = Database::from_facts((0..80).map(|_| random_fact(&mut rng)));
            for _ in 0..30 {
                let fact = random_fact(&mut rng);
                if rng.below(3) == 0 {
                    db.remove(&fact);
                } else {
                    db.insert(fact);
                }
            }
            let never = cell_of(&Term::constant("never")).unwrap();
            for arity in 1..=5usize {
                let pred = Predicate::new(&format!("p{arity}"), arity);
                let table = db.table(pred);
                assert_eq!(table.is_none(), arity == 5, "seed {seed}");
                for code in 0..4usize.pow(arity as u32) {
                    let (mut key_cols, mut consts, mut repeats) = (vec![], vec![], vec![]);
                    let mut first_fresh = None;
                    for col in 0..arity {
                        match code / 4usize.pow(col as u32) % 4 {
                            0 => {
                                first_fresh.get_or_insert(col);
                            }
                            1 => key_cols.push(col),
                            2 => consts.push((
                                col,
                                match rng.below(8) {
                                    0 => Term::constant("never"),
                                    1 => Term::Null(7),
                                    k => value(k - 2),
                                },
                            )),
                            _ => match first_fresh {
                                Some(earlier) => repeats.push((col, earlier)),
                                None => key_cols.push(col),
                            },
                        }
                    }
                    let pattern = PatternKey {
                        pred,
                        key_cols,
                        consts,
                        repeats,
                    };
                    let build = Build::construct(&db, &pattern);
                    let context = format!("seed {seed}, {pattern:?}");
                    let Some(table) = table else {
                        let key = vec![0; pattern.key_cols.len()];
                        assert!(build.group_cells(&key).is_empty(), "{context}");
                        continue;
                    };
                    let admits = |id: u32| {
                        pattern
                            .consts
                            .iter()
                            .all(|(col, t)| cell_of(t) == Some(table.cell_at(id, *col)))
                            && pattern
                                .repeats
                                .iter()
                                .all(|&(col, k)| table.cell_at(id, col) == table.cell_at(id, k))
                    };
                    let key_of = |id: u32| -> Vec<u32> {
                        pattern
                            .key_cols
                            .iter()
                            .map(|&c| table.cell_at(id, c))
                            .collect()
                    };
                    // Every key a live row holds, one no row holds, and a
                    // random one.
                    let mut probes: Vec<Vec<u32>> = table.live_ids().map(key_of).collect();
                    probes.push(vec![never; pattern.key_cols.len()]);
                    probes.push(
                        (0..pattern.key_cols.len())
                            .map(|_| cell_of(&value(rng.below(6))).unwrap())
                            .collect(),
                    );
                    for probe in probes {
                        let expected: Vec<u32> = table
                            .live_ids()
                            .filter(|&id| admits(id) && key_of(id) == probe)
                            .collect();
                        assert_eq!(
                            build.group_cells(&probe),
                            expected,
                            "{context}, probe {probe:?}"
                        );
                        grouped += expected.len();
                    }
                }
            }
        }
        assert!(
            grouped > 50_000,
            "the fixture must group something: {grouped}"
        );
    }

    /// `sample_db` plus `listed` and `held`, copies of `list_comp` and
    /// `has_stock`: a table joined to its copy on both columns is the
    /// shape that reads a build side (a scan or a one-key join reads the
    /// table's own indexes).
    fn copies_db() -> Database {
        let mut db = sample_db();
        for (copy, pred) in [("listed", "list_comp"), ("held", "has_stock")] {
            for row in db.rows_vec(Predicate::new(pred, 2)) {
                db.insert(Atom::new(Predicate::new(copy, 2), row));
            }
        }
        db
    }

    /// `copy(a, b), pred(a, b)`: the planner scans the copy first (a tie,
    /// broken by body order) and joins `pred` by both columns, a build.
    fn both_columns(copy: &str, pred: &str, a: &str, b: &str) -> ConjunctiveQuery {
        cq(&[a], &[(copy, &[a, b]), (pred, &[a, b])])
    }

    #[test]
    fn build_cache_is_shared_across_disjuncts() {
        let db = copies_db();
        // Three disjuncts with the same access pattern on list_comp: one
        // build, two hits.
        let u = UnionQuery::new(vec![
            both_columns("listed", "list_comp", "A", "B"),
            both_columns("listed", "list_comp", "C", "D"),
            both_columns("listed", "list_comp", "X", "Y"),
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
        let db = copies_db();
        let u = UnionQuery::new(vec![
            both_columns("listed", "list_comp", "A", "B"),
            both_columns("held", "has_stock", "A", "B"),
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
        let db = copies_db();
        let u = UnionQuery::new(vec![both_columns("listed", "list_comp", "A", "B")]);
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
        let db = copies_db();
        let u = UnionQuery::new(vec![both_columns("listed", "list_comp", "A", "B")]);
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
