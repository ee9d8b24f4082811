//! Global string interner for predicate, constant, variable and function
//! symbols.
//!
//! Every name that appears in a Datalog± program is interned once and
//! referred to by a compact [`Symbol`] (a `u32`). Interning happens at
//! program-construction time; the hot rewriting loops only ever compare and
//! hash `u32`s.

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

    /// The interned string for this symbol.
    pub fn name(self) -> String {
        resolve(self)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", resolve(*self))
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", resolve(*self))
    }
}

struct Interner {
    names: Vec<String>,
    index: HashMap<String, Symbol>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            names: Vec::with_capacity(256),
            index: HashMap::with_capacity(256),
        })
    })
}

/// Intern `name`, returning its symbol. Idempotent.
pub fn intern(name: &str) -> Symbol {
    // The interner is process-global and append-only; the only panics
    // possible inside the critical section are allocation failures,
    // which abort. A poisoned lock therefore guards intact state —
    // recover rather than wedging every later parse in the process.
    let mut guard = interner().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&sym) = guard.index.get(name) {
        return sym;
    }
    let sym = Symbol(u32::try_from(guard.names.len()).expect("interner overflow"));
    guard.names.push(name.to_owned());
    guard.index.insert(name.to_owned(), sym);
    sym
}

/// Number of distinct names interned so far. The table is append-only, so
/// the difference between two readings is what the code in between
/// interned — the request path must not grow it per query.
pub fn len() -> usize {
    // See `intern` for why recovery is sound here.
    let guard = interner().lock().unwrap_or_else(PoisonError::into_inner);
    guard.names.len()
}

/// Resolve a symbol back to its string.
pub fn resolve(sym: Symbol) -> String {
    // See `intern` for why recovery is sound here.
    let guard = interner().lock().unwrap_or_else(PoisonError::into_inner);
    guard.names[sym.0 as usize].clone()
}

/// Compare two symbols by their interned *names* under a single lock
/// acquisition, without cloning either string.
///
/// The derived `Ord` on [`Symbol`] compares interner indices, which are
/// assigned in first-intern order and therefore differ between process
/// runs. Anything that must order identically across restarts (sorted
/// index postings serialized into ledger segments, canonical answer
/// ordering) goes through this name order instead.
pub fn cmp_names(a: Symbol, b: Symbol) -> std::cmp::Ordering {
    if a == b {
        return std::cmp::Ordering::Equal;
    }
    let guard = interner().lock().unwrap_or_else(PoisonError::into_inner);
    guard.names[a.0 as usize].cmp(&guard.names[b.0 as usize])
}

/// Value order for constants: names that parse as integers compare
/// numerically (`"9" < "10"`, `"-3" < "2"`), integers sort before
/// non-numeric names, and everything else falls back to byte-wise name
/// order. Ties between distinct spellings of one number (`"01"` vs
/// `"1"`) break on the exact name, keeping this a strict total order
/// where `Equal` implies the same symbol.
pub fn cmp_values(a: Symbol, b: Symbol) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    if a == b {
        return Ordering::Equal;
    }
    let guard = interner().lock().unwrap_or_else(PoisonError::into_inner);
    let (sa, sb) = (&guard.names[a.0 as usize], &guard.names[b.0 as usize]);
    match (sa.parse::<i128>(), sb.parse::<i128>()) {
        (Ok(x), Ok(y)) => x.cmp(&y).then_with(|| sa.cmp(sb)),
        (Ok(_), Err(_)) => Ordering::Less,
        (Err(_), Ok(_)) => Ordering::Greater,
        (Err(_), Err(_)) => sa.cmp(sb),
    }
}

/// Sort a slice of symbols into [`cmp_values`] order under a **single**
/// lock acquisition.
///
/// Sorting n symbols through `cmp_values` directly takes O(n log n) lock
/// round-trips on the global interner; bulk index rebuilds over columnar
/// tables sort whole columns at once, so this precomputes each symbol's
/// `(parsed integer, name)` sort key with the lock held once and sorts on
/// the keys. The order produced is identical to `cmp_values` (numeric
/// ties break on the exact name, so `Equal` implies the same symbol).
pub fn sort_by_value(syms: &mut [Symbol]) {
    let guard = interner().lock().unwrap_or_else(PoisonError::into_inner);
    let mut keyed: Vec<(Option<i128>, &str, Symbol)> = syms
        .iter()
        .map(|&s| {
            let name = guard.names[s.0 as usize].as_str();
            (name.parse::<i128>().ok(), name, s)
        })
        .collect();
    keyed.sort_unstable_by(|(xa, na, _), (xb, nb, _)| {
        use std::cmp::Ordering;
        match (xa, xb) {
            (Some(x), Some(y)) => x.cmp(y).then_with(|| na.cmp(nb)),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => na.cmp(nb),
        }
    });
    for (slot, (_, _, s)) in syms.iter_mut().zip(keyed) {
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
}
