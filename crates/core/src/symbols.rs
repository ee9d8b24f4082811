//! Global string interner for predicate, constant, variable and function
//! symbols.
//!
//! Every name that appears in a Datalog± program is interned once and
//! referred to by a compact [`Symbol`] (a `u32`). Interning happens at
//! program-construction time; the hot rewriting loops only ever compare and
//! hash `u32`s.
//!
//! Only [`intern`] (and [`len`]) take the interner's lock, which guards
//! the name → symbol map. Everything that *reads* a symbol — resolving,
//! displaying, comparing by name or value — goes through
//! [`Symbol::as_str`], which takes no lock and allocates nothing: names
//! are leaked once into an append-only table whose slots never move.
//! Leaking keeps nothing alive that was freed before — the interner has
//! always been append-only and process-lived.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// An interned name. Cheap to copy, compare and hash.
///
/// Symbols are process-global: the same string always interns to the same
/// symbol within one process, so symbol equality is name equality.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The raw interner index. Stable within a process run only.
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }

    /// Rebuild a symbol from a raw interner index previously obtained via
    /// [`Symbol::index`] **in this process run**. Indices are assigned in
    /// first-intern order, so an index from another run (or one never
    /// handed out by `index()`) names an arbitrary — possibly absent —
    /// string. Callers that persist data must go through names instead.
    #[inline]
    pub fn from_index(index: u32) -> Symbol {
        Symbol(index)
    }

    /// The interned string for this symbol, borrowed for the life of the
    /// process: two `Acquire` loads, no lock, no allocation.
    ///
    /// # Panics
    /// On an index [`intern`] never handed out (see [`Symbol::from_index`]).
    #[inline]
    pub fn as_str(self) -> &'static str {
        let (segment, offset) = slot_of(self.0);
        NAMES
            .get(segment)
            .and_then(OnceLock::get)
            .and_then(|slots| slots[offset].get().copied())
            .unwrap_or_else(|| panic!("symbol index {} was never interned", self.0))
    }

    /// The interned string for this symbol, as an owned copy.
    pub fn name(self) -> String {
        resolve(self)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Slots in segment 0 of [`NAMES`]; segment `k` holds `FIRST_SEGMENT << k`.
const FIRST_SEGMENT: u64 = 256;

/// Segment count: together they hold every index below 2³² − 256, well
/// past the 2³¹ names a table cell can encode.
const SEGMENTS: usize = 24;

/// The names, by symbol index: an append-only table cut into segments of
/// doubling size so that growing it never moves a slot a reader may be
/// looking at. [`intern`] allocates a segment on first use and fills each
/// slot once, under the interner's lock; readers only `get`.
static NAMES: [OnceLock<Box<[OnceLock<&'static str>]>>; SEGMENTS] =
    [const { OnceLock::new() }; SEGMENTS];

/// Where a symbol index lives in [`NAMES`]: (segment, offset within it).
/// The last 256 indices map one past the final segment.
#[inline]
fn slot_of(index: u32) -> (usize, usize) {
    let n = u64::from(index) + FIRST_SEGMENT;
    let segment = n.ilog2() - FIRST_SEGMENT.ilog2();
    (segment as usize, (n - (FIRST_SEGMENT << segment)) as usize)
}

/// Name → symbol. The map's size is the next index to hand out.
fn interner() -> &'static Mutex<HashMap<&'static str, Symbol>> {
    static INTERNER: OnceLock<Mutex<HashMap<&'static str, Symbol>>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(HashMap::with_capacity(256)))
}

/// Intern `name`, returning its symbol. Idempotent.
pub fn intern(name: &str) -> Symbol {
    // The interner is process-global and append-only; the only panics
    // possible inside the critical section are allocation failures,
    // which abort, and overflow, which fires before anything is written.
    // A poisoned lock therefore guards intact state — recover rather
    // than wedging every later parse in the process.
    let mut guard = interner().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&sym) = guard.get(name) {
        return sym;
    }
    let index = u32::try_from(guard.len()).expect("interner overflow");
    let (segment, offset) = slot_of(index);
    let slots = NAMES
        .get(segment)
        .expect("interner overflow")
        .get_or_init(|| {
            (0..FIRST_SEGMENT << segment)
                .map(|_| OnceLock::new())
                .collect()
        });
    // The one copy of the name: the table slot and the map key share it.
    let name: &'static str = Box::leak(Box::from(name));
    // Filled before the lock is released, so whoever learns of the symbol
    // — from this call or from a later `intern` of the same name — can
    // read it.
    slots[offset]
        .set(name)
        .expect("the lock serialises writers and each index is handed out once");
    guard.insert(name, Symbol(index));
    Symbol(index)
}

/// Number of distinct names interned so far. The table is append-only, so
/// the difference between two readings is what the code in between
/// interned — the request path must not grow it per query.
pub fn len() -> usize {
    // See `intern` for why recovery is sound here.
    let guard = interner().lock().unwrap_or_else(PoisonError::into_inner);
    guard.len()
}

/// Resolve a symbol back to its string (an owned copy of
/// [`Symbol::as_str`]).
pub fn resolve(sym: Symbol) -> String {
    sym.as_str().to_owned()
}

/// Compare two symbols by their interned *names*.
///
/// The derived `Ord` on [`Symbol`] compares interner indices, which are
/// assigned in first-intern order and therefore differ between process
/// runs. Anything that must order identically across restarts (sorted
/// index postings serialized into ledger segments, canonical answer
/// ordering) goes through this name order instead.
pub(crate) fn cmp_names(a: Symbol, b: Symbol) -> std::cmp::Ordering {
    if a == b {
        return std::cmp::Ordering::Equal;
    }
    a.as_str().cmp(b.as_str())
}

/// The sort key behind [`cmp_values`]: (not an integer, the integer, the
/// name). Tuple order on it puts integers first, in numeric order, ties
/// between spellings of one number and all other names in byte order.
fn value_key(sym: Symbol) -> (bool, i128, &'static str) {
    let name = sym.as_str();
    let parsed = name.parse::<i128>();
    (parsed.is_err(), parsed.unwrap_or(0), name)
}

/// Value order for constants: names that parse as integers compare
/// numerically (`"9" < "10"`, `"-3" < "2"`), integers sort before
/// non-numeric names, and everything else falls back to byte-wise name
/// order. Ties between distinct spellings of one number (`"01"` vs
/// `"1"`) break on the exact name, keeping this a strict total order
/// where `Equal` implies the same symbol.
pub fn cmp_values(a: Symbol, b: Symbol) -> std::cmp::Ordering {
    if a == b {
        return std::cmp::Ordering::Equal;
    }
    value_key(a).cmp(&value_key(b))
}

/// Sort a slice of symbols into [`cmp_values`] order.
///
/// Sorting n symbols through `cmp_values` directly parses both names on
/// each of its O(n log n) comparisons; bulk index rebuilds over columnar
/// tables sort whole columns at once, so this computes each symbol's key
/// once and sorts on the keys.
pub fn sort_by_value(syms: &mut [Symbol]) {
    let mut keyed: Vec<_> = syms.iter().map(|&s| (value_key(s), s)).collect();
    // Distinct symbols never share a key, so an unstable sort is exact.
    keyed.sort_unstable();
    for (slot, (_, s)) in syms.iter_mut().zip(keyed) {
        *slot = s;
    }
}

static FRESH_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Intern a globally fresh name with the given prefix.
///
/// Fresh names start with `_` which the parser rejects in user input, so a
/// fresh symbol can never collide with a user-written one.
pub fn fresh(prefix: &str) -> Symbol {
    let n = FRESH_COUNTER.fetch_add(1, Ordering::Relaxed);
    intern(&format!("_{prefix}{n}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = intern("stock");
        let b = intern("stock");
        assert_eq!(a, b);
        assert_eq!(resolve(a), "stock");
    }

    #[test]
    fn distinct_names_get_distinct_symbols() {
        assert_ne!(intern("company"), intern("companies"));
    }

    #[test]
    fn fresh_symbols_are_unique_and_prefixed() {
        let a = fresh("V");
        let b = fresh("V");
        assert_ne!(a, b);
        assert!(resolve(a).starts_with("_V"));
        assert!(resolve(b).starts_with("_V"));
    }

    #[test]
    fn sort_by_value_matches_cmp_values() {
        let mut syms: Vec<Symbol> = ["10", "9", "-3", "apple", "01", "1", "zeta", "Zed", "2"]
            .iter()
            .map(|s| intern(s))
            .collect();
        let mut expect = syms.clone();
        expect.sort_by(|&a, &b| cmp_values(a, b));
        sort_by_value(&mut syms);
        assert_eq!(syms, expect);
        assert_eq!(Symbol::from_index(syms[0].index()), syms[0]);
    }

    #[test]
    fn display_matches_resolve() {
        let s = intern("fin_idx");
        assert_eq!(format!("{s}"), "fin_idx");
        assert_eq!(format!("{s:?}"), "fin_idx");
    }

    #[test]
    fn slots_tile_the_segments_without_gaps() {
        assert_eq!(slot_of(0), (0, 0));
        assert_eq!(slot_of(255), (0, 255));
        assert_eq!(slot_of(256), (1, 0));
        assert_eq!(slot_of(767), (1, 511));
        assert_eq!(slot_of(768), (2, 0));
        // The last index the table holds, and the first it does not.
        assert_eq!(slot_of(u32::MAX - 256), (SEGMENTS - 1, (1 << 31) - 1));
        assert_eq!(slot_of(u32::MAX - 255), (SEGMENTS, 0));
    }

    #[test]
    #[should_panic(expected = "never interned")]
    fn an_index_never_handed_out_panics() {
        Symbol::from_index(u32::MAX).as_str();
    }

    /// Nothing that reads a symbol may wait for the interner's lock: with
    /// the lock held here, every read on another thread still completes.
    #[test]
    fn reads_complete_while_the_interner_lock_is_held() {
        use std::sync::mpsc;
        use std::time::Duration;

        let syms: Vec<Symbol> = ["lf_10", "9", "lf_apple", "-3", "10"]
            .iter()
            .map(|s| intern(s))
            .collect();
        let (tx, rx) = mpsc::channel();
        let guard = interner().lock().unwrap_or_else(PoisonError::into_inner);
        let reader = std::thread::spawn(move || {
            let mut sorted = syms.clone();
            sort_by_value(&mut sorted);
            let report = (
                syms[0].as_str(),
                format!("{}", syms[2]),
                format!("{:?}", syms[2]),
                cmp_names(syms[0], syms[2]),
                cmp_values(syms[1], syms[4]),
                sorted.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
            );
            // The receiver only goes away once it has given up waiting.
            let _ = tx.send(report);
        });
        let report = rx.recv_timeout(Duration::from_secs(5));
        // Release before joining: a reader that does block must get to
        // finish, so the failure is the assertion below and not a hang.
        drop(guard);
        reader.join().expect("reader thread panicked");
        let report = report.expect("a symbol read waited for the interner's lock");
        assert_eq!(
            report,
            (
                "lf_10",
                "lf_apple".to_owned(),
                "lf_apple".to_owned(),
                std::cmp::Ordering::Less,
                std::cmp::Ordering::Less,
                vec!["-3", "9", "10", "lf_10", "lf_apple"],
            )
        );
    }
}
