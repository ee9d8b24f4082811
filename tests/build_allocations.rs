//! A hashed build side costs a constant number of allocations and frees,
//! however many key groups it holds: its row ids live in one array and
//! its key index in one map. A write evicts the builds over the tables it
//! touched, and freeing them is part of that write's cost.
//!
//! The allocator below counts per thread, so the test harness's other
//! threads do not show; every execution runs on one worker. A build's
//! cost is read as the difference between a cold execution (which
//! constructs and caches it) and the same execution warm (which hits the
//! cache), and its free as the frees of dropping the cache that holds it.
//!
//! The same allocator counts live bytes, which checks the storage's own
//! byte accounting: what `Database::memory_stats` reports for a
//! bulk-loaded table is what building it left on the heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nyaya_core::{Atom, ConjunctiveQuery, Predicate, Term, UnionQuery};
use nyaya_sql::{execute_ucq_intra, BuildCache, Database};

struct Counting;

thread_local! {
    /// `(allocations, frees)` on this thread; a reallocation is one of each.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Bytes allocated minus bytes freed on this thread, as requested.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn bump(allocs: u64, frees: u64, bytes: i64) {
    // `try_with`: a thread's last frees can run after its locals are gone.
    let _ = COUNTS.try_with(|c| {
        let (a, f) = c.get();
        c.set((a + allocs, f + frees));
    });
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
}

fn counts() -> (u64, u64) {
    COUNTS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

fn size(bytes: usize) -> i64 {
    i64::try_from(bytes).expect("an allocation fits in i64")
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// const-initialized thread locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(1, 0, size(layout.size()));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(1, 0, size(layout.size()));
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(0, 1, -size(layout.size()));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(1, 1, size(new_size) - size(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Groups in each build: enough that a per-group allocation cannot hide.
const GROUPS: usize = 100_000;

/// Rows of the leading, constant-filtered step.
const PROBES: usize = 10;

/// The most allocations (or frees) one build may take.
const MAX_PER_BUILD: u64 = 8;

fn cell(prefix: &str, k: usize) -> Term {
    Term::constant(&format!("{prefix}{k}"))
}

fn atom(pred: &str, args: Vec<Term>) -> Atom {
    Atom::new(Predicate::new(pred, args.len()), args)
}

/// Execute `q` cold and then warm over one cache, and drop the cache:
/// the allocations and frees of constructing its one build, and the
/// frees of dropping it.
fn build_costs(db: &Database, q: ConjunctiveQuery) -> ((u64, u64), u64) {
    let u = UnionQuery::new(vec![q]);
    let cache = BuildCache::new();
    let run = || {
        let before = counts();
        let (answers, metrics) = execute_ucq_intra(db, &u, 1, 1, &cache, 1.0);
        let after = counts();
        assert_eq!(answers.len(), PROBES);
        ((after.0 - before.0, after.1 - before.1), metrics)
        // `answers` is freed here, outside the counted window.
    };
    let (cold, first) = run();
    let (warm, second) = run();
    assert_eq!(
        (first.build_cache_misses, first.build_cache_hits),
        (1, 0),
        "the cold run builds one side: {first:?}"
    );
    assert_eq!(
        (second.build_cache_misses, second.build_cache_hits),
        (0, 1),
        "the warm run hits it: {second:?}"
    );
    let before = counts();
    drop(cache);
    let dropped = counts().1 - before.1;
    ((cold.0 - warm.0, cold.1 - warm.1), dropped)
}

fn assert_constant(what: &str, ((allocs, frees), dropped): ((u64, u64), u64)) {
    assert!(
        allocs <= MAX_PER_BUILD && frees <= MAX_PER_BUILD && dropped <= MAX_PER_BUILD,
        "{what} over {GROUPS} groups: {allocs} allocations and {frees} frees to build, \
         {dropped} frees to drop (at most {MAX_PER_BUILD} each)"
    );
}

#[test]
fn a_one_column_build_allocates_and_frees_a_constant_number_of_times() {
    // `s(c, X)` leads, read off `c`'s posting list (no build). The repeat
    // in `r(X, Z, Z)` keeps the next step off the posting index, so it
    // is a build keyed on `X` alone: one row per group.
    let db = Database::from_facts(
        (0..PROBES)
            .map(|k| atom("s", vec![cell("c", 0), cell("x", k)]))
            .chain((0..GROUPS).map(|k| atom("r", vec![cell("x", k), cell("z", k), cell("z", k)]))),
    );
    let q = ConjunctiveQuery::new(
        vec![Term::var("X")],
        vec![
            atom("s", vec![cell("c", 0), Term::var("X")]),
            atom("r", vec![Term::var("X"), Term::var("Z"), Term::var("Z")]),
        ],
    );
    assert_constant("a one-column build", build_costs(&db, q));
}

#[test]
fn a_two_column_build_allocates_and_frees_a_constant_number_of_times() {
    // Both columns bound by the leading `s(c, X, Y)`: a build keyed on
    // the pair, one row per group.
    let db = Database::from_facts(
        (0..PROBES)
            .map(|k| atom("s", vec![cell("c", 0), cell("x", k), cell("y", k / 2)]))
            .chain((0..GROUPS).map(|k| atom("r", vec![cell("x", k), cell("y", k / 2)]))),
    );
    let q = ConjunctiveQuery::new(
        vec![Term::var("X"), Term::var("Y")],
        vec![
            atom("s", vec![cell("c", 0), Term::var("X"), Term::var("Y")]),
            atom("r", vec![Term::var("X"), Term::var("Y")]),
        ],
    );
    assert_constant("a two-column build", build_costs(&db, q));
}

/// Rows of the bulk-loaded table whose bytes are checked against the heap.
const ROWS: usize = 100_000;

/// Heap bytes a one-table database holds beyond its columns and indexes:
/// its predicate map, the table's and the base's `Arc`s, and the per-column
/// headers (a few hundred bytes at arity 3).
const STRUCTURE_BYTES: i64 = 2_048;

#[test]
fn memory_stats_cover_the_heap_a_bulk_load_keeps() {
    // One column unique, one of 10 000 groups of 10 rows, one of 50
    // groups: a sorted index with and without group starts, above and
    // below the directory threshold.
    let facts: Vec<Atom> = (0..ROWS)
        .map(|k| {
            atom(
                "t",
                vec![cell("u", k), cell("g", k % 10_000), cell("s", k % 50)],
            )
        })
        .collect();
    // The constants are interned above; the load only clones atoms, and
    // frees each clone once it is staged.
    let before = live_bytes();
    let db = Database::from_facts(facts.iter().cloned());
    let grown = live_bytes() - before;
    let memory = db.memory_stats();
    assert_eq!(db.len(), ROWS);
    let accounted = i64::try_from(memory.fact_bytes + memory.index_bytes).unwrap();
    assert!(
        accounted <= grown && grown <= accounted + STRUCTURE_BYTES,
        "the load kept {grown} heap bytes; memory_stats accounts for {accounted} \
         ({} fact, {} index), and at most {STRUCTURE_BYTES} more may be structure",
        memory.fact_bytes,
        memory.index_bytes
    );
}
