//! Columnar fact storage: per-table cell columns with their per-column
//! indexes, and the copy-on-write [`Database`] of tables.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use nyaya_core::{Atom, Predicate, Symbol, Term};

/// Tag bit marking a cell as an index into its table's exotic
/// side-table rather than a global [`Symbol`] interner index.
pub(crate) const EXOTIC_BIT: u32 = 1 << 31;

/// The cell encoding of a constant: its global interner index. The top
/// bit is reserved for [`EXOTIC_BIT`], capping the symbol space at 2^31
/// names — hit that and we want a loud failure, not silent aliasing.
#[inline]
fn const_cell(sym: Symbol) -> u32 {
    let ix = sym.index();
    assert!(ix & EXOTIC_BIT == 0, "symbol interner exceeded 2^31 names");
    ix
}

/// Compare two cells in canonical term order ([`Term::canonical_cmp`]):
/// constants by [`nyaya_core::symbols::cmp_values`], and every ground
/// non-constant (null or function term — there is no third kind in a
/// ground row) strictly after every constant. Distinct cells never
/// compare `Equal`, so any sort under this order is deterministic.
///
/// **Cell order is not canonical order.** A constant's cell is its
/// interner index, so comparing two cells as integers gives
/// first-intern order: it differs between process runs and says nothing
/// about names or values — which is why this function reads both names
/// (lock-free, [`Symbol::as_str`]) instead of comparing `a` with `b`.
/// What integer order on constant cells *does* equal is the derived `Ord`
/// of `Term::Const`, the order a `BTreeSet<Vec<Term>>` of answers sorts
/// by. Only the sorted index and its readers (`select.rs`, `segment.rs`)
/// need canonical order; the join kernels compare cells for equality
/// alone.
#[inline]
fn cmp_cells(exotic: &[Term], a: u32, b: u32) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    if a == b {
        return Ordering::Equal;
    }
    match (a & EXOTIC_BIT == 0, b & EXOTIC_BIT == 0) {
        (true, true) => {
            nyaya_core::symbols::cmp_values(Symbol::from_index(a), Symbol::from_index(b))
        }
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (false, false) => {
            exotic[(a & !EXOTIC_BIT) as usize].canonical_cmp(&exotic[(b & !EXOTIC_BIT) as usize])
        }
    }
}

/// One relation, stored **columnar**: each column is a flat `Vec<u32>`
/// of cells (one allocation per column, not per row), plus a hash index
/// and a sorted distinct-cell list per column, and a row-hash dedup set.
///
/// A *cell* packs one ground term into 32 bits. The ground-fact common
/// case — ABox rows are all constants — stores the constant's global
/// [`Symbol`] index directly, so cell equality is term equality across
/// tables and a join probe is a `u32` compare. The rare non-constant
/// ground terms (labeled nulls and function terms from chase instances)
/// set [`EXOTIC_BIT`] and index the table-local `exotic` side-table.
#[derive(Clone, Default)]
pub(crate) struct Table {
    /// Column-major cells: `cols[j][id]` is row `id`'s `j`-th argument.
    cols: Vec<Vec<u32>>,
    /// Row count (also covers zero-arity tables, which have no columns).
    n_rows: u32,
    /// Rare non-constant ground terms, interned per table. Entries are
    /// append-only: a retracted exotic term keeps its slot (bounded by
    /// the distinct exotic terms ever inserted, which chase instances
    /// keep small by construction).
    exotic: Vec<Term>,
    /// Term → tagged cell for the exotic side-table.
    exotic_ids: HashMap<Term, u32>,
    /// Exact-duplicate guard and row-id lookup, keyed by a 64-bit row
    /// hash instead of a cloned row (the old `HashMap<Vec<Term>, u32>`
    /// duplicated every fact a second time — gigabytes at 10M rows).
    /// Candidates are verified against the columns, so a hash collision
    /// can never merge two distinct facts; the rare second row sharing
    /// a hash lives in `spill`.
    seen: HashMap<u64, u32>,
    /// Overflow for rows whose hash collides with an occupant of
    /// `seen`: `(row_hash, row_id)` pairs, scanned linearly (a 64-bit
    /// collision among even 10M rows is a handful of entries).
    spill: Vec<(u64, u32)>,
    /// `columns[j][cell]` = ids of rows whose `j`-th cell is `cell`: the
    /// posting index that constant filters and the planner's "merge" join
    /// steps probe.
    columns: Vec<HashMap<u32, Vec<u32>>>,
    /// `sorted[j]` = the distinct cells of column `j` in canonical term
    /// order ([`cmp_cells`] — name-based, so the order is identical
    /// across process runs and segment reloads). Each entry has a posting
    /// list in `columns[j]`; together they form the sorted index that
    /// answers range filters, ORDER BY / top-k and MIN/MAX, and that
    /// segments are written through. No join reads it.
    sorted: Vec<Vec<u32>>,
}

impl Table {
    fn with_arity(arity: usize) -> Self {
        Table {
            cols: vec![Vec::new(); arity],
            n_rows: 0,
            exotic: Vec::new(),
            exotic_ids: HashMap::new(),
            seen: HashMap::new(),
            spill: Vec::new(),
            columns: vec![HashMap::new(); arity],
            sorted: vec![Vec::new(); arity],
        }
    }

    pub(crate) fn arity(&self) -> usize {
        self.cols.len()
    }

    pub(crate) fn len(&self) -> usize {
        self.n_rows as usize
    }

    /// The term a cell encodes. Free for constants (`Term::Const` wraps
    /// the `Copy` symbol); exotic cells clone their side-table entry.
    // `#[inline]` here and on the accessors below: the join kernels call
    // them once per probed tuple from another module (another codegen
    // unit), and `lubm_join` slows by a few percent when they stay calls.
    #[inline]
    pub(crate) fn term_of(&self, cell: u32) -> Term {
        if cell & EXOTIC_BIT == 0 {
            Term::Const(Symbol::from_index(cell))
        } else {
            self.exotic[(cell & !EXOTIC_BIT) as usize].clone()
        }
    }

    /// The cell encoding a term, read-only: `None` means the term is a
    /// non-constant this table has never stored — no row can match it.
    /// Constants always encode (possibly to a cell absent from every
    /// column, which probes as empty).
    #[inline]
    pub(crate) fn cell_of(&self, t: &Term) -> Option<u32> {
        match t {
            Term::Const(s) => Some(const_cell(*s)),
            other => self.exotic_ids.get(other).copied(),
        }
    }

    /// The cell encoding a term for insertion, interning non-constants
    /// into the exotic side-table.
    fn cell_for_insert(&mut self, t: &Term) -> u32 {
        match t {
            Term::Const(s) => const_cell(*s),
            other => {
                if let Some(&cell) = self.exotic_ids.get(other) {
                    return cell;
                }
                let k = u32::try_from(self.exotic.len()).expect("exotic side-table overflow");
                assert!(
                    k & EXOTIC_BIT == 0,
                    "exotic side-table exceeded 2^31 entries"
                );
                let cell = k | EXOTIC_BIT;
                self.exotic.push(other.clone());
                self.exotic_ids.insert(other.clone(), cell);
                cell
            }
        }
    }

    #[inline]
    pub(crate) fn cell_at(&self, id: u32, col: usize) -> u32 {
        self.cols[col][id as usize]
    }

    #[inline]
    pub(crate) fn term_at(&self, id: u32, col: usize) -> Term {
        self.term_of(self.cell_at(id, col))
    }

    /// Materialize one row as terms.
    pub(crate) fn row_terms(&self, id: u32) -> Vec<Term> {
        (0..self.arity()).map(|j| self.term_at(id, j)).collect()
    }

    fn row_cells(&self, id: u32) -> Vec<u32> {
        self.cols.iter().map(|c| c[id as usize]).collect()
    }

    fn cells_eq(&self, id: u32, cells: &[u32]) -> bool {
        self.cols
            .iter()
            .zip(cells)
            .all(|(c, &x)| c[id as usize] == x)
    }

    /// Posting list for a cell in one column (row ids).
    #[inline]
    pub(crate) fn posting_cells(&self, col: usize, cell: u32) -> &[u32] {
        self.columns
            .get(col)
            .and_then(|ix| ix.get(&cell))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The distinct cells of a column in canonical term order.
    pub(crate) fn sorted_cells(&self, col: usize) -> &[u32] {
        self.sorted.get(col).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Deterministic 64-bit hash of a row's cells (SipHash with fixed
    /// keys — stable within a process; never persisted).
    fn hash_cells(cells: &[u32]) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        cells.hash(&mut h);
        h.finish()
    }

    /// The id of the row whose cells equal `cells`, if present: probe
    /// `seen` by hash, then verify the candidate against the columns
    /// (and the spill list on collision).
    fn find_hashed(&self, h: u64, cells: &[u32]) -> Option<u32> {
        if let Some(&id) = self.seen.get(&h) {
            if self.cells_eq(id, cells) {
                return Some(id);
            }
        }
        self.spill
            .iter()
            .find(|&&(sh, id)| sh == h && self.cells_eq(id, cells))
            .map(|&(_, id)| id)
    }

    /// Register `id` under hash `h`; a second row with the same hash
    /// goes to the spill list.
    fn seen_insert(&mut self, h: u64, id: u32) {
        match self.seen.entry(h) {
            std::collections::hash_map::Entry::Occupied(_) => self.spill.push((h, id)),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(id);
            }
        }
    }

    /// Unregister `(h, id)`, promoting a spilled collision into the
    /// primary map so lookups keep their one-probe fast path.
    fn seen_remove(&mut self, h: u64, id: u32) {
        if self.seen.get(&h) == Some(&id) {
            self.seen.remove(&h);
            if let Some(pos) = self.spill.iter().position(|&(sh, _)| sh == h) {
                let (_, promoted) = self.spill.swap_remove(pos);
                self.seen.insert(h, promoted);
            }
        } else {
            let pos = self
                .spill
                .iter()
                .position(|&(sh, sid)| sh == h && sid == id)
                .expect("row is registered in the dedup set");
            self.spill.swap_remove(pos);
        }
    }

    /// Re-point the dedup entry for hash `h` from row `old` to `new`
    /// (swap-remove renumbering).
    fn seen_reid(&mut self, h: u64, old: u32, new: u32) {
        if self.seen.get(&h) == Some(&old) {
            self.seen.insert(h, new);
            return;
        }
        for entry in &mut self.spill {
            if entry.0 == h && entry.1 == old {
                entry.1 = new;
                return;
            }
        }
        panic!("moved row is registered in the dedup set");
    }

    fn contains(&self, args: &[Term]) -> bool {
        let Some(cells) = args
            .iter()
            .map(|t| self.cell_of(t))
            .collect::<Option<Vec<u32>>>()
        else {
            return false;
        };
        self.find_hashed(Self::hash_cells(&cells), &cells).is_some()
    }

    /// Append a deduplicated row. `splice_sorted` keeps the sorted
    /// distinct-cell lists exact incrementally; the bulk-load path
    /// passes `false` and rebuilds them once in [`rebuild_sorted`] —
    /// O(n log n) total instead of O(n²) splicing — producing the
    /// identical structure (the sorted list is a function of the
    /// distinct-cell set).
    ///
    /// [`rebuild_sorted`]: Self::rebuild_sorted
    fn insert_cells(&mut self, cells: Vec<u32>, splice_sorted: bool) -> bool {
        let h = Self::hash_cells(&cells);
        if self.find_hashed(h, &cells).is_some() {
            return false;
        }
        let id = self.n_rows;
        assert!(id != u32::MAX, "table exceeds u32 rows");
        for (j, &c) in cells.iter().enumerate() {
            if let Some(posting) = self.columns[j].get_mut(&c) {
                posting.push(id);
            } else {
                self.columns[j].insert(c, vec![id]);
                if splice_sorted {
                    // First occurrence of this cell in the column: splice
                    // it into the sorted list at its canonical position.
                    let pos =
                        self.sorted[j].partition_point(|&x| cmp_cells(&self.exotic, x, c).is_lt());
                    self.sorted[j].insert(pos, c);
                }
            }
            self.cols[j].push(c);
        }
        self.seen_insert(h, id);
        self.n_rows += 1;
        true
    }

    fn insert(&mut self, args: &[Term]) -> bool {
        let cells: Vec<u32> = args.iter().map(|t| self.cell_for_insert(t)).collect();
        self.insert_cells(cells, true)
    }

    fn insert_deferred(&mut self, args: &[Term]) -> bool {
        let cells: Vec<u32> = args.iter().map(|t| self.cell_for_insert(t)).collect();
        self.insert_cells(cells, false)
    }

    /// Rebuild every column's sorted distinct-cell list from the posting
    /// keys — the bulk-load finalize step. Constants sort by value under
    /// a single interner lock ([`nyaya_core::symbols::sort_by_value`]),
    /// exotics by canonical term order after them; the result is
    /// bit-identical to incremental splicing because distinct cells
    /// never tie under [`cmp_cells`].
    fn rebuild_sorted(&mut self) {
        for j in 0..self.cols.len() {
            let mut consts: Vec<Symbol> = Vec::new();
            let mut exotics: Vec<u32> = Vec::new();
            for &c in self.columns[j].keys() {
                if c & EXOTIC_BIT == 0 {
                    consts.push(Symbol::from_index(c));
                } else {
                    exotics.push(c);
                }
            }
            nyaya_core::symbols::sort_by_value(&mut consts);
            exotics.sort_unstable_by(|&a, &b| cmp_cells(&self.exotic, a, b));
            self.sorted[j] = consts
                .into_iter()
                .map(Symbol::index)
                .chain(exotics)
                .collect();
        }
    }

    /// Remove one row, keeping every index exact: the removed id is
    /// unlinked from its posting lists (empty lists are dropped so
    /// distinct counts stay truthful, and the cell leaves the sorted
    /// list), and the swap-removed last row is re-pointed at its new id
    /// everywhere it is indexed.
    fn remove(&mut self, args: &[Term]) -> bool {
        let Some(cells) = args
            .iter()
            .map(|t| self.cell_of(t))
            .collect::<Option<Vec<u32>>>()
        else {
            return false;
        };
        let h = Self::hash_cells(&cells);
        let Some(id) = self.find_hashed(h, &cells) else {
            return false;
        };
        self.seen_remove(h, id);
        let last = self.n_rows - 1;
        for (j, &c) in cells.iter().enumerate() {
            if let Some(posting) = self.columns[j].get_mut(&c) {
                posting.retain(|&x| x != id);
                if posting.is_empty() {
                    self.columns[j].remove(&c);
                    let pos =
                        self.sorted[j].partition_point(|&x| cmp_cells(&self.exotic, x, c).is_lt());
                    debug_assert!(self.sorted[j][pos] == c, "sorted list tracks the index");
                    self.sorted[j].remove(pos);
                }
            }
        }
        if id != last {
            let moved = self.row_cells(last);
            for (j, &c) in moved.iter().enumerate() {
                if let Some(posting) = self.columns[j].get_mut(&c) {
                    for x in posting.iter_mut() {
                        if *x == last {
                            *x = id;
                        }
                    }
                }
            }
            let moved_hash = Self::hash_cells(&moved);
            self.seen_reid(moved_hash, last, id);
        }
        for col in &mut self.cols {
            col.swap_remove(id as usize);
        }
        self.n_rows -= 1;
        true
    }

    /// Approximate heap bytes of the fact payload: the flat columns plus
    /// the exotic side-table. Analytic (capacity-based), not measured.
    fn fact_bytes(&self) -> u64 {
        let cols: usize = self.cols.iter().map(|c| c.capacity() * 4).sum();
        let exotic = self.exotic.capacity() * std::mem::size_of::<Term>();
        (cols + exotic) as u64
    }

    /// Approximate heap bytes of the indexes: per-column postings,
    /// sorted distinct lists, and the dedup set. Analytic, with hash-map
    /// entries costed at key + value + one control byte.
    fn index_bytes(&self) -> u64 {
        let vec_header = std::mem::size_of::<Vec<u32>>();
        let postings: usize = self
            .columns
            .iter()
            .map(|m| {
                m.capacity() * (4 + vec_header + 1)
                    + m.values().map(|p| p.capacity() * 4).sum::<usize>()
            })
            .sum();
        let sorted: usize = self.sorted.iter().map(|s| s.capacity() * 4).sum();
        let seen = self.seen.capacity() * (8 + 4 + 1);
        let spill = self.spill.capacity() * std::mem::size_of::<(u64, u32)>();
        (postings + sorted + seen + spill) as u64
    }
}

/// An in-memory database: one indexed table of ground tuples per predicate.
///
/// Tables live behind [`Arc`]s, so `Database` is **copy-on-write**:
/// cloning is O(#predicates) and shares every table with the original;
/// the first [`insert`](Self::insert) or [`remove`](Self::remove) into a
/// shared table makes that one table private to the writer. This is the
/// snapshot primitive of the incremental knowledge base — a writer clones
/// the current database, applies a batch, and publishes the clone while
/// readers keep the old value.
#[derive(Clone, Default)]
pub struct Database {
    tables: HashMap<Predicate, Arc<Table>>,
}

impl Database {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a database from ground atoms (deduplicating), through the
    /// bulk-load path.
    pub fn from_facts(facts: impl IntoIterator<Item = Atom>) -> Self {
        let mut db = Database::new();
        db.insert_all(facts);
        db
    }

    /// Bulk-insert many facts, returning how many were new. End state is
    /// bit-identical to inserting one at a time, but the sorted
    /// distinct-cell lists are built once per touched table at the end
    /// instead of spliced per insert — the difference between O(n log n)
    /// and O(n²) when loading millions of facts.
    pub fn insert_all(&mut self, facts: impl IntoIterator<Item = Atom>) -> usize {
        let mut touched: HashSet<Predicate> = HashSet::new();
        let mut added = 0usize;
        for fact in facts {
            assert!(fact.is_ground(), "facts must be ground, got {fact}");
            // Duplicate probe first: a no-op insert must not copy a
            // table that is COW-shared with other snapshots.
            if let Some(table) = self.tables.get(&fact.pred) {
                if table.contains(&fact.args) {
                    continue;
                }
            }
            let table = self
                .tables
                .entry(fact.pred)
                .or_insert_with(|| Arc::new(Table::with_arity(fact.pred.arity)));
            if Arc::make_mut(table).insert_deferred(&fact.args) {
                touched.insert(fact.pred);
                added += 1;
            }
        }
        for pred in touched {
            let table = self.tables.get_mut(&pred).expect("touched table exists");
            Arc::make_mut(table).rebuild_sorted();
        }
        added
    }

    /// Insert a fact, maintaining the per-column indexes incrementally.
    /// Returns `true` if the fact was new. Panics on non-ground atoms.
    pub fn insert(&mut self, fact: Atom) -> bool {
        assert!(fact.is_ground(), "facts must be ground, got {fact}");
        // Duplicate probe first: a no-op insert must not copy a table
        // that is COW-shared with other snapshots.
        if let Some(table) = self.tables.get(&fact.pred) {
            if table.contains(&fact.args) {
                return false;
            }
        }
        let table = self
            .tables
            .entry(fact.pred)
            .or_insert_with(|| Arc::new(Table::with_arity(fact.pred.arity)));
        Arc::make_mut(table).insert(&fact.args)
    }

    /// Retract a fact, maintaining the per-column indexes incrementally
    /// (no table rebuild). Returns `true` if the fact was present. A
    /// table emptied by its last retraction is dropped, so
    /// [`predicates`](Self::predicates) keeps its "has at least one
    /// fact" contract.
    pub fn remove(&mut self, fact: &Atom) -> bool {
        let Some(table) = self.tables.get_mut(&fact.pred) else {
            return false;
        };
        // Same COW guard as insert: missing facts must not force a copy.
        if !table.contains(&fact.args) {
            return false;
        }
        let removed = Arc::make_mut(table).remove(&fact.args);
        if table.len() == 0 {
            self.tables.remove(&fact.pred);
        }
        removed
    }

    /// The columnar table behind a predicate (crate-internal cell-level
    /// access for the join kernels, IVM probes, and the segment codec).
    pub(crate) fn table(&self, pred: Predicate) -> Option<&Table> {
        self.tables.get(&pred).map(Arc::as_ref)
    }

    /// Materialize one row as terms (`id` comes from a
    /// [`posting`](Self::posting) lookup). Panics when out of range.
    pub fn row(&self, pred: Predicate, id: u32) -> Vec<Term> {
        self.tables
            .get(&pred)
            .expect("row lookup on unknown predicate")
            .row_terms(id)
    }

    /// Iterate a table's rows in row-id order, each materialized as
    /// terms from the flat columns.
    pub fn iter_rows(&self, pred: Predicate) -> impl Iterator<Item = Vec<Term>> + '_ {
        let table = self.tables.get(&pred).map(Arc::as_ref);
        (0..table.map_or(0, Table::len) as u32)
            .map(move |id| table.expect("non-empty range implies table").row_terms(id))
    }

    /// All rows of a table, materialized (the oracle engines and tests
    /// that want the old row-store view).
    pub fn rows_vec(&self, pred: Predicate) -> Vec<Vec<Term>> {
        self.iter_rows(pred).collect()
    }

    /// Row ids whose `col`-th argument equals `term` (index lookup).
    pub fn posting(&self, pred: Predicate, col: usize, term: &Term) -> &[u32] {
        self.tables
            .get(&pred)
            .and_then(|t| t.cell_of(term).map(|c| t.posting_cells(col, c)))
            .unwrap_or(&[])
    }

    /// The distinct values of a column in canonical order, materialized
    /// from the sorted cell index. Each value has a non-empty posting
    /// list reachable through [`posting`](Self::posting). Empty for
    /// unknown predicates/columns.
    pub fn sorted_values(&self, pred: Predicate, col: usize) -> Vec<Term> {
        self.tables
            .get(&pred)
            .map(|t| t.sorted_cells(col).iter().map(|&c| t.term_of(c)).collect())
            .unwrap_or_default()
    }

    /// Number of distinct values in a column — O(1), read off the index.
    pub fn distinct(&self, pred: Predicate, col: usize) -> usize {
        self.tables
            .get(&pred)
            .and_then(|t| t.columns.get(col))
            .map(HashMap::len)
            .unwrap_or(0)
    }

    /// Number of rows in one table — O(1).
    pub fn table_len(&self, pred: Predicate) -> usize {
        self.tables.get(&pred).map(|t| t.len()).unwrap_or(0)
    }

    /// Predicates that have at least one fact.
    pub fn predicates(&self) -> impl Iterator<Item = Predicate> + '_ {
        self.tables.keys().copied()
    }

    /// Every stored fact, reconstituted as ground atoms. Iteration order
    /// is unspecified across predicates (stable within one).
    pub fn facts(&self) -> impl Iterator<Item = Atom> + '_ {
        self.tables
            .iter()
            .flat_map(|(p, t)| (0..t.len() as u32).map(move |id| Atom::new(*p, t.row_terms(id))))
    }

    /// Does the database contain this exact fact?
    pub fn contains(&self, fact: &Atom) -> bool {
        self.tables
            .get(&fact.pred)
            .is_some_and(|t| t.contains(&fact.args))
    }

    /// Is this predicate's table physically shared (COW) with `other`?
    /// Diagnostic for snapshot tests: untouched tables must stay shared.
    pub fn shares_table(&self, other: &Database, pred: Predicate) -> bool {
        match (self.tables.get(&pred), other.tables.get(&pred)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    pub fn len(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Analytic heap-byte accounting for the whole database, split into
    /// fact payload (flat columns + exotic side-tables) and index
    /// structures (postings, sorted lists, dedup sets). Tables are
    /// reported sorted by name for stable output.
    pub fn memory_stats(&self) -> DbMemory {
        let mut tables: Vec<TableMemory> = self
            .tables
            .iter()
            .map(|(p, t)| TableMemory {
                predicate: p.sym.name(),
                arity: p.arity,
                rows: t.len(),
                fact_bytes: t.fact_bytes(),
                index_bytes: t.index_bytes(),
            })
            .collect();
        tables.sort_by(|a, b| {
            a.predicate
                .cmp(&b.predicate)
                .then_with(|| a.arity.cmp(&b.arity))
        });
        DbMemory {
            fact_bytes: tables.iter().map(|t| t.fact_bytes).sum(),
            index_bytes: tables.iter().map(|t| t.index_bytes).sum(),
            tables,
        }
    }
}

/// Memory accounting for one table (see [`Database::memory_stats`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableMemory {
    /// Predicate name.
    pub predicate: String,
    /// Predicate arity.
    pub arity: usize,
    /// Row count.
    pub rows: usize,
    /// Approximate heap bytes of the fact payload.
    pub fact_bytes: u64,
    /// Approximate heap bytes of the index structures.
    pub index_bytes: u64,
}

/// Database-wide memory accounting (see [`Database::memory_stats`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DbMemory {
    /// Total approximate heap bytes of fact payloads.
    pub fact_bytes: u64,
    /// Total approximate heap bytes of index structures.
    pub index_bytes: u64,
    /// Per-table breakdown, sorted by predicate name then arity.
    pub tables: Vec<TableMemory>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::sample_db;

    /// The dedup set must stay exact even when distinct rows share a
    /// 64-bit hash: candidates are verified against the stored rows and
    /// collisions spill. Forced here by registering three rows under one
    /// artificial hash — a real SipHash collision is not constructible
    /// in a test.
    #[test]
    fn dedup_spill_survives_hash_collisions() {
        let mut t = Table::with_arity(1);
        assert!(t.insert(&[Term::constant("a")]));
        assert!(t.insert(&[Term::constant("b")]));
        assert!(t.insert(&[Term::constant("c")]));
        let ca = t.cell_of(&Term::constant("a")).unwrap();
        let cb = t.cell_of(&Term::constant("b")).unwrap();
        let cc = t.cell_of(&Term::constant("c")).unwrap();
        let cd = t.cell_of(&Term::constant("d")).unwrap();
        t.seen.clear();
        t.spill.clear();
        for id in 0..3 {
            t.seen_insert(0x42, id);
        }
        assert_eq!(t.seen.len(), 1, "one primary occupant per hash");
        assert_eq!(t.spill.len(), 2, "collisions spill");
        assert_eq!(t.find_hashed(0x42, &[ca]), Some(0));
        assert_eq!(t.find_hashed(0x42, &[cb]), Some(1));
        assert_eq!(t.find_hashed(0x42, &[cc]), Some(2));
        assert_eq!(t.find_hashed(0x42, &[cd]), None);
        // Removing the primary occupant promotes a spilled entry so the
        // fast path stays populated.
        t.seen_remove(0x42, 0);
        assert_eq!(t.seen.get(&0x42), Some(&1));
        assert_eq!(t.spill.len(), 1);
        assert_eq!(t.find_hashed(0x42, &[cc]), Some(2));
        // Removing a spilled entry leaves the primary untouched.
        t.seen_remove(0x42, 2);
        assert!(t.spill.is_empty());
        assert_eq!(t.find_hashed(0x42, &[cb]), Some(1));
        // Swap-remove renumbering rewrites whichever slot holds the id.
        t.seen_reid(0x42, 1, 0);
        assert_eq!(t.seen.get(&0x42), Some(&0));
    }

    #[test]
    fn duplicate_inserts_are_ignored() {
        let mut db = Database::new();
        for _ in 0..3 {
            db.insert(Atom::make("p", ["a", "b"]));
        }
        assert_eq!(db.len(), 1);
        assert_eq!(
            db.posting(Predicate::new("p", 2), 0, &Term::constant("a")),
            &[0]
        );
    }

    #[test]
    fn indexes_answer_postings_and_distinct_counts() {
        let db = sample_db();
        let lc = Predicate::new("list_comp", 2);
        assert_eq!(db.table_len(lc), 2);
        assert_eq!(db.distinct(lc, 0), 2);
        assert_eq!(db.posting(lc, 1, &Term::constant("nasdaq")).len(), 1);
        // Unknown predicate/column/value: empty, not a panic.
        assert_eq!(
            db.posting(Predicate::new("nope", 1), 0, &Term::constant("x")),
            &[] as &[u32]
        );
        assert_eq!(db.distinct(lc, 7), 0);
    }

    #[test]
    fn retraction_updates_postings_and_distinct_counts() {
        let mut db = sample_db();
        let lc = Predicate::new("list_comp", 2);
        assert_eq!(db.table_len(lc), 2);
        assert_eq!(db.distinct(lc, 1), 2);
        assert!(db.remove(&Atom::make("list_comp", ["ibm_s", "nasdaq"])));
        assert_eq!(db.table_len(lc), 1);
        assert_eq!(db.distinct(lc, 0), 1, "ibm_s gone from the column index");
        assert_eq!(db.distinct(lc, 1), 1, "nasdaq gone from the column index");
        assert!(
            db.posting(lc, 1, &Term::constant("nasdaq")).is_empty(),
            "posting list for the retracted value is dropped"
        );
        // The surviving row is still reachable through its (renumbered) id.
        let posting = db.posting(lc, 0, &Term::constant("sap_s"));
        assert_eq!(posting.len(), 1);
        assert_eq!(db.row(lc, posting[0])[1], Term::constant("dax"));
        // Retracting what is not there is a no-op, not a panic.
        assert!(!db.remove(&Atom::make("list_comp", ["ibm_s", "nasdaq"])));
        assert!(!db.remove(&Atom::make("nope", ["x"])));
    }

    #[test]
    fn emptied_tables_are_dropped() {
        let mut db = Database::new();
        db.insert(Atom::make("p", ["a"]));
        assert!(db.remove(&Atom::make("p", ["a"])));
        assert_eq!(db.predicates().count(), 0);
        assert!(db.is_empty());
    }

    #[test]
    fn clones_are_copy_on_write_snapshots() {
        let db = sample_db();
        let lc = Predicate::new("list_comp", 2);
        let hs = Predicate::new("has_stock", 2);
        let mut writer = db.clone();
        assert!(writer.shares_table(&db, lc), "clone shares every table");
        writer.insert(Atom::make("list_comp", ["aapl_s", "nasdaq"]));
        assert!(!writer.shares_table(&db, lc), "written table went private");
        assert!(writer.shares_table(&db, hs), "untouched table still shared");
        assert_eq!(db.table_len(lc), 2, "reader's snapshot is unchanged");
        assert_eq!(writer.table_len(lc), 3);
        // No-op writes must not unshare either.
        let mut noop = db.clone();
        assert!(!noop.insert(Atom::make("list_comp", ["ibm_s", "nasdaq"])));
        assert!(!noop.remove(&Atom::make("list_comp", ["ibm_s", "zzz"])));
        assert!(noop.shares_table(&db, lc));
    }

    #[test]
    fn facts_round_trip_through_the_iterator() {
        let db = sample_db();
        let rebuilt = Database::from_facts(db.facts());
        assert_eq!(rebuilt.len(), db.len());
        for fact in db.facts() {
            assert!(rebuilt.contains(&fact));
        }
    }
}
