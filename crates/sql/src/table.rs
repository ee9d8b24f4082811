//! Columnar fact storage: per-table cell columns with their per-column
//! indexes, and the copy-on-write [`Database`] of tables.
//!
//! A database holds constants only (in the paper, D is a finite set of
//! atoms over constants; labelled nulls and function terms exist only
//! inside the chase and the RQ baseline), so a *cell* is exactly a
//! constant's [`Symbol`] index: cell equality is term equality across
//! tables, and a join probe is a `u32` compare.
//!
//! # Table layout: base + delta
//!
//! A table is an immutable, [`Arc`]-shared **base** plus a small
//! **delta** owned by the one snapshot that wrote it:
//!
//! - the base (built by the bulk-load path, by a fold or by the segment
//!   decoder, never mutated afterwards) holds the flat cell columns and, per column, one hash map
//!   from cell to a `(start, len)` span of one flat row-id array. No `Vec`
//!   per cell, no per-row dedup map: whether a row is present is answered
//!   by scanning the shortest posting list among its cells;
//! - the delta holds the rows appended since the base was built, the set
//!   of dead row ids, and — for every cell a write *touched* — that cell's
//!   complete live posting list, copied from the base on first touch. A
//!   probe therefore still returns one contiguous `&[u32]` that never
//!   contains a dead row, and no join kernel tests for one; only the
//!   id-range scans (`Table::live_ids`, `Table::live_ranges`) skip the
//!   dead set.
//!
//! A write through a [`Database`] clone copies the delta, never the base
//! (`O(delta)`, not `O(table)`); a delta that outgrows its base is folded
//! into a new base (`FOLD_DIVISOR`). Row ids are stable between folds.
//! Copy-on-touch has one cost to know about: touching a cell copies its
//! whole posting list into the delta, so a write into a cell shared by a
//! large part of the table (a low-cardinality column) costs that posting,
//! not the batch.

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;

use nyaya_core::{Atom, Predicate, Symbol, Term};

/// A delta is folded into a new base once it holds more rows (appended
/// plus dead) than `1 / FOLD_DIVISOR` of the base — checked where a write
/// is about to *copy* the delta because an older snapshot still shares the
/// table. It balances the two O(n) costs left on the write path, both
/// measured on a 200 000-row binary table written one row in, one row out
/// per batch (`fold_rule_costs` below, release, the 2-core bench host):
/// copying a delta costs 60–130 ns per delta row, on every batch; a fold
/// costs ≈ 370 ns per base row (75 ms), once per `n / FOLD_DIVISOR`
/// delta rows. At 64 the copy is at most 0.25 ms (3 125 rows; 0.14 ms on
/// average) and the fold comes every ~1 560 batches, 0.05 ms amortised; at
/// 8 the copy alone averages 1.1 ms (3.3 ms measured at 25 000 rows); at
/// 1 024 a 75 ms fold lands every ~100 batches, 0.75 ms amortised. The
/// sum is flat between 64 and 128; 64 halves how often an apply stalls.
///
/// A table no other snapshot shares pays no copy, so it waits until the
/// delta has outgrown the base itself: doubling keeps a loop of single
/// inserts O(1) amortised per row and bounds the dead rows a churning
/// table carries.
const FOLD_DIVISOR: usize = 64;

/// The cell of a term: a constant's interner index. `None` for any other
/// term — no row holds one.
#[inline]
pub(crate) fn cell_of(t: &Term) -> Option<u32> {
    match t {
        Term::Const(s) => Some(s.index()),
        _ => None,
    }
}

/// The cells of a row of terms; `None` if one is not a constant.
fn cells_of(args: &[Term]) -> Option<Vec<u32>> {
    args.iter().map(cell_of).collect()
}

/// The cell of an argument of `fact`, which must be a constant.
fn fact_cell(fact: &Atom, t: &Term) -> u32 {
    cell_of(t).unwrap_or_else(|| panic!("facts hold constants only, got {fact}"))
}

/// Sort distinct cells into canonical order
/// ([`nyaya_core::symbols::cmp_values`]), each key computed once
/// ([`nyaya_core::symbols::sort_by_value`]).
///
/// **Cell order is not canonical order.** A cell is an interner index,
/// so comparing two cells as integers gives first-intern order: it
/// differs between process runs and says nothing about names or values.
/// What integer order on cells *does* equal is the derived `Ord` of
/// `Term::Const`, the order a `BTreeSet<Vec<Term>>` of answers sorts by.
/// Only [`Table::canonical_cells`] and its readers (the segment codec,
/// [`Database::sorted_values`]) need canonical order; the join kernels
/// compare cells for equality alone.
fn sort_cells(cells: Vec<u32>) -> Vec<u32> {
    let mut syms: Vec<Symbol> = cells.into_iter().map(Symbol::from_index).collect();
    nyaya_core::symbols::sort_by_value(&mut syms);
    syms.into_iter().map(Symbol::index).collect()
}

/// Heap bytes of a hash map's bucket array: one `(K, V)` slot plus one
/// control byte per bucket, for the power-of-two bucket count the map
/// allocated to offer `capacity` (it fills at most 7/8 of its buckets).
pub(crate) fn hash_bytes<K, V>(capacity: usize) -> usize {
    if capacity == 0 {
        return 0;
    }
    (capacity * 8 / 7).next_power_of_two() * (std::mem::size_of::<(K, V)>() + 1)
}

/// One column's posting index in the base: every row id of the column,
/// grouped by cell in one flat array.
struct ColumnIndex {
    /// `cell → (start, len)` into `rows`.
    spans: HashMap<u32, (u32, u32)>,
    /// Row ids grouped by cell, ascending within a group.
    rows: Vec<u32>,
}

impl ColumnIndex {
    /// Group a column's row ids by cell, given every row's dense key:
    /// `keys[id]` is row `id`'s key in `0..cells.len()` and `cells[k]` the
    /// cell key `k` stands for. One counting pass over the keys, offsets
    /// by a running sum in key order, one `spans` insert per key, one fill
    /// pass — no hashing per row. Each key must be used by some row and
    /// name a cell no earlier key named; `Err(k)` names the first key that
    /// is not (only a decoded segment can get that wrong).
    fn group(keys: &[u32], cells: &[u32]) -> Result<ColumnIndex, usize> {
        let mut next = vec![0u32; cells.len()];
        for &k in keys {
            next[k as usize] += 1;
        }
        let mut spans = HashMap::with_capacity(cells.len());
        let mut start = 0u32;
        for (k, (slot, &cell)) in next.iter_mut().zip(cells).enumerate() {
            let count = *slot;
            if count == 0 || spans.insert(cell, (start, count)).is_some() {
                return Err(k);
            }
            // From here on the slot is key `k`'s fill cursor.
            *slot = start;
            start += count;
        }
        let mut rows = vec![0u32; keys.len()];
        for (id, &k) in keys.iter().enumerate() {
            let slot = &mut next[k as usize];
            rows[*slot as usize] = id as u32;
            *slot += 1;
        }
        Ok(ColumnIndex { spans, rows })
    }

    #[inline]
    fn posting(&self, cell: u32) -> &[u32] {
        match self.spans.get(&cell) {
            Some(&(start, len)) => &self.rows[start as usize..(start + len) as usize],
            None => &[],
        }
    }
}

/// The immutable half of a table, shared by every snapshot since the
/// bulk load or fold that built it.
struct Base {
    /// Column-major cells: `cols[j][id]` is row `id`'s `j`-th argument.
    cols: Vec<Vec<u32>>,
    /// Row count (also covers zero-arity tables, which have no columns).
    n_rows: u32,
    /// `index[j]` = column `j`'s posting index.
    index: Vec<ColumnIndex>,
}

impl Base {
    /// Index bulk-loaded columns: each cell's key is the order in which
    /// the column first shows it (so a column of mostly distinct cells
    /// fills its posting array front to back), one hash probe per cell.
    fn build(cols: Vec<Vec<u32>>, n_rows: u32) -> Base {
        let index = cols
            .iter()
            .map(|col| {
                let mut key_of: HashMap<u32, u32> = HashMap::new();
                let mut cells: Vec<u32> = Vec::new();
                let keys: Vec<u32> = col
                    .iter()
                    .map(|&c| {
                        *key_of.entry(c).or_insert_with(|| {
                            cells.push(c);
                            cells.len() as u32 - 1
                        })
                    })
                    .collect();
                ColumnIndex::group(&keys, &cells).expect("first-seen keys are used and distinct")
            })
            .collect();
        Base {
            cols,
            n_rows,
            index,
        }
    }
}

/// What one snapshot wrote on top of a base it shares with others.
#[derive(Clone)]
struct Delta {
    /// Appended rows: row `base.n_rows + k` is `cols[j][k]`.
    cols: Vec<Vec<u32>>,
    /// Appended row count (dead ones included).
    n_rows: u32,
    /// Ids of removed rows, base or appended.
    dead: HashSet<u32>,
    /// `touched[j][cell]` = the complete live posting list of a cell some
    /// write touched; it shadows the base's span. Empty for a base cell
    /// whose last row died.
    touched: Vec<HashMap<u32, Vec<u32>>>,
    /// Exact distinct-cell count per column.
    distinct: Vec<usize>,
}

impl Delta {
    fn empty(base: &Base) -> Delta {
        let arity = base.cols.len();
        Delta {
            cols: vec![Vec::new(); arity],
            n_rows: 0,
            dead: HashSet::new(),
            touched: vec![HashMap::new(); arity],
            distinct: base.index.iter().map(|ix| ix.spans.len()).collect(),
        }
    }
}

/// One relation, stored **columnar** as base + delta (see the module
/// docs). A cell is a symbol index: the constant's global [`Symbol`]
/// index, nothing else.
#[derive(Clone)]
pub(crate) struct Table {
    base: Arc<Base>,
    delta: Delta,
}

/// Load-time-only exact duplicate guard over staged rows. Rows of up to
/// two cells (every LUBM table) pack into one integer key; wider rows are
/// kept whole.
enum RowSet {
    Packed(HashSet<u64>),
    Wide(HashSet<Vec<u32>>),
}

impl RowSet {
    fn new(arity: usize) -> RowSet {
        if arity <= 2 {
            RowSet::Packed(HashSet::new())
        } else {
            RowSet::Wide(HashSet::new())
        }
    }

    fn insert(&mut self, cells: &[u32]) -> bool {
        match self {
            RowSet::Packed(set) => {
                set.insert(cells.iter().fold(0u64, |key, &c| key << 32 | u64::from(c)))
            }
            RowSet::Wide(set) => set.insert(cells.to_vec()),
        }
    }
}

/// Rows staged by the bulk-load path for one predicate: encoded to cells
/// and deduplicated as they stream in, indexed once at the end.
struct Staged {
    cols: Vec<Vec<u32>>,
    n_rows: usize,
    /// Dropped with the stage: what must not persist per snapshot is a
    /// second O(rows) map.
    seen: RowSet,
    /// Reused cell buffer of the row being staged.
    row: Vec<u32>,
}

impl Staged {
    fn new(arity: usize) -> Staged {
        Staged {
            cols: vec![Vec::new(); arity],
            n_rows: 0,
            seen: RowSet::new(arity),
            row: Vec::with_capacity(arity),
        }
    }

    /// Stage a fact unless `prior` or the stage already holds it.
    fn push(&mut self, fact: &Atom, prior: Option<&Table>) {
        self.row.clear();
        self.row
            .extend(fact.args.iter().map(|t| fact_cell(fact, t)));
        if prior.is_some_and(|t| t.find(&self.row).is_some()) || !self.seen.insert(&self.row) {
            return;
        }
        for (col, &c) in self.cols.iter_mut().zip(&self.row) {
            col.push(c);
        }
        self.n_rows += 1;
    }
}

impl Table {
    /// A table of `base` with an empty delta.
    fn with_base(base: Base) -> Self {
        Table {
            delta: Delta::empty(&base),
            base: Arc::new(base),
        }
    }

    fn with_arity(arity: usize) -> Self {
        Table::with_base(Base::build(vec![Vec::new(); arity], 0))
    }

    pub(crate) fn arity(&self) -> usize {
        self.base.cols.len()
    }

    /// Live rows.
    pub(crate) fn len(&self) -> usize {
        (self.base.n_rows + self.delta.n_rows) as usize - self.delta.dead.len()
    }

    /// The ids of the live rows, ascending — what every id-range scan
    /// iterates instead of `0..len()`: ids are stable between folds, so
    /// removed rows leave holes.
    pub(crate) fn live_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.live_ranges().into_iter().flatten()
    }

    /// The live ids as the ranges between the dead ones, ascending: the
    /// dead ids are sorted once per call, nothing is hashed per row, and a
    /// table without dead rows is one range.
    pub(crate) fn live_ranges(&self) -> Vec<Range<u32>> {
        let mut dead: Vec<u32> = self.delta.dead.iter().copied().collect();
        dead.sort_unstable();
        let starts = [0].into_iter().chain(dead.iter().map(|id| id + 1));
        let ends = dead
            .iter()
            .copied()
            .chain([self.base.n_rows + self.delta.n_rows]);
        starts.zip(ends).map(|(from, to)| from..to).collect()
    }

    // `#[inline]` on the accessors below: the join kernels call them once
    // per probed tuple from another module (another codegen unit), and
    // `lubm_join` slows by a few percent when they stay calls.
    #[inline]
    pub(crate) fn cell_at(&self, id: u32, col: usize) -> u32 {
        match id.checked_sub(self.base.n_rows) {
            None => self.base.cols[col][id as usize],
            Some(k) => self.delta.cols[col][k as usize],
        }
    }

    #[inline]
    pub(crate) fn term_at(&self, id: u32, col: usize) -> Term {
        Term::Const(Symbol::from_index(self.cell_at(id, col)))
    }

    /// Materialize one row as terms.
    pub(crate) fn row_terms(&self, id: u32) -> Vec<Term> {
        (0..self.arity()).map(|j| self.term_at(id, j)).collect()
    }

    /// Posting list for a cell in one column: the ids of the live rows
    /// carrying it, as one contiguous slice — the delta's list when a
    /// write touched the cell, the base's span otherwise.
    #[inline]
    pub(crate) fn posting_cells(&self, col: usize, cell: u32) -> &[u32] {
        let Some(index) = self.base.index.get(col) else {
            return &[];
        };
        let touched = &self.delta.touched[col];
        if !touched.is_empty() {
            if let Some(posting) = touched.get(&cell) {
                return posting;
            }
        }
        index.posting(cell)
    }

    /// The live distinct cells of a column in canonical term order
    /// ([`sort_cells`] — name-based, so the order is identical across
    /// process runs and segment reloads), computed per call: the base's
    /// cells the delta did not empty, plus the cells the delta added. The
    /// segment codec's dictionaries and [`Database::sorted_values`] read
    /// it; no join does.
    pub(crate) fn canonical_cells(&self, col: usize) -> Vec<u32> {
        let Some(index) = self.base.index.get(col) else {
            return Vec::new();
        };
        let touched = &self.delta.touched[col];
        let kept = index
            .spans
            .keys()
            .filter(|c| touched.get(c).is_none_or(|p| !p.is_empty()));
        let added = touched
            .iter()
            .filter(|(c, p)| !p.is_empty() && !index.spans.contains_key(c))
            .map(|(c, _)| c);
        sort_cells(kept.chain(added).copied().collect())
    }

    fn cells_eq(&self, id: u32, cells: &[u32]) -> bool {
        cells
            .iter()
            .enumerate()
            .all(|(j, &c)| self.cell_at(id, j) == c)
    }

    /// The id of the live row whose cells equal `cells`, if present: scan
    /// the shortest posting list among its cells, comparing columns.
    fn find(&self, cells: &[u32]) -> Option<u32> {
        let Some(shortest) = cells
            .iter()
            .enumerate()
            .map(|(j, &c)| self.posting_cells(j, c))
            .min_by_key(|p| p.len())
        else {
            // Zero arity: the one possible row, if it is there.
            return self.live_ids().next();
        };
        shortest
            .iter()
            .copied()
            .find(|&id| self.cells_eq(id, cells))
    }

    fn contains(&self, args: &[Term]) -> bool {
        cells_of(args).is_some_and(|c| self.find(&c).is_some())
    }

    /// The delta's posting list for `cell`, copied from the base on first
    /// touch.
    fn touch(&mut self, col: usize, cell: u32) -> &mut Vec<u32> {
        let base = &self.base.index[col];
        self.delta.touched[col]
            .entry(cell)
            .or_insert_with(|| base.posting(cell).to_vec())
    }

    /// Append a row the caller knows to be absent.
    fn append(&mut self, cells: &[u32]) {
        let id = self.base.n_rows + self.delta.n_rows;
        assert!(id != u32::MAX, "table exceeds u32 rows");
        for (j, &c) in cells.iter().enumerate() {
            let posting = self.touch(j, c);
            let first = posting.is_empty();
            posting.push(id);
            if first {
                self.delta.distinct[j] += 1;
            }
            self.delta.cols[j].push(c);
        }
        self.delta.n_rows += 1;
    }

    /// Remove live row `id`, whose cells are `cells`, keeping every index
    /// exact: its id joins the dead set and leaves the posting list of
    /// each of its cells, so no probe sees it again. A cell whose last
    /// row died leaves the distinct count.
    fn remove_row(&mut self, id: u32, cells: &[u32]) {
        self.delta.dead.insert(id);
        for (j, &c) in cells.iter().enumerate() {
            let posting = self.touch(j, c);
            let at = posting
                .iter()
                .position(|&x| x == id)
                .expect("a live row is in the posting list of each of its cells");
            posting.remove(at);
            if posting.is_empty() {
                // Only a base cell needs an (empty) entry to shadow.
                if !self.base.index[j].spans.contains_key(&c) {
                    self.delta.touched[j].remove(&c);
                }
                self.delta.distinct[j] -= 1;
            }
        }
    }

    /// Rows in the delta, appended plus dead: what a copy-on-write clone
    /// of this table copies, up to a constant.
    fn delta_weight(&self) -> usize {
        self.delta.n_rows as usize + self.delta.dead.len()
    }

    /// Would the delta, grown by `extra` rows, have outgrown its base?
    /// See [`FOLD_DIVISOR`] for the two limits.
    fn outgrown(&self, extra: usize, shared: bool) -> bool {
        let base_rows = self.base.n_rows as usize;
        let limit = if shared {
            base_rows / FOLD_DIVISOR
        } else {
            base_rows
        };
        self.delta_weight() + extra > limit
    }

    /// A new table of `prior`'s live rows followed by the staged ones,
    /// all in one freshly indexed base (first-insertion order kept, row
    /// ids renumbered densely).
    fn rebuilt(prior: Option<&Table>, staged: Staged) -> Table {
        let n_rows = u32::try_from(prior.map_or(0, Table::len) + staged.n_rows)
            .ok()
            .filter(|&n| n != u32::MAX)
            .expect("table exceeds u32 rows");
        let cols: Vec<Vec<u32>> = staged
            .cols
            .into_iter()
            .enumerate()
            .map(|(j, mut new)| match prior {
                None => {
                    new.shrink_to_fit();
                    new
                }
                Some(t) => {
                    let mut col = Vec::with_capacity(n_rows as usize);
                    col.extend(t.live_ids().map(|id| t.cell_at(id, j)));
                    col.append(&mut new);
                    col
                }
            })
            .collect();
        Table::with_base(Base::build(cols, n_rows))
    }

    /// This table with its delta folded into a new base.
    fn folded(&self) -> Table {
        Table::rebuilt(Some(self), Staged::new(self.arity()))
    }

    /// Approximate heap bytes of the fact payload: the flat columns of
    /// base and delta. Analytic (capacity-based), not measured.
    fn fact_bytes(&self) -> u64 {
        let cols: usize = self
            .base
            .cols
            .iter()
            .chain(&self.delta.cols)
            .map(|c| c.capacity() * 4)
            .sum();
        cols as u64
    }

    /// Approximate heap bytes of the indexes, every allocation at its
    /// capacity: per column the base's span map and flat row-id array; in
    /// the delta the dead set and every touched posting. Analytic (see
    /// [`hash_bytes`]).
    fn index_bytes(&self) -> u64 {
        let base: usize = self
            .base
            .index
            .iter()
            .map(|ix| hash_bytes::<u32, (u32, u32)>(ix.spans.capacity()) + ix.rows.capacity() * 4)
            .sum();
        let touched: usize = self
            .delta
            .touched
            .iter()
            .map(|m| {
                hash_bytes::<u32, Vec<u32>>(m.capacity())
                    + m.values().map(|p| p.capacity() * 4).sum::<usize>()
            })
            .sum();
        let dead = hash_bytes::<u32, ()>(self.delta.dead.capacity());
        (base + touched + dead) as u64
    }
}

/// An in-memory database: one indexed table of ground tuples per predicate.
///
/// Tables live behind [`Arc`]s, so `Database` is **copy-on-write**:
/// cloning is O(#predicates) and shares every table with the original;
/// the first [`insert`](Self::insert) or [`remove`](Self::remove) into a
/// shared table gives the writer a private copy of that table's *delta*
/// — the base, which is nearly all of the table, stays shared. This is
/// the snapshot primitive of the
/// incremental knowledge base — a writer clones the current database,
/// applies a batch, and publishes the clone while readers keep the old
/// value.
#[derive(Clone, Default)]
pub struct Database {
    tables: HashMap<Predicate, Arc<Table>>,
    /// Folds so far, carried along the copy-on-write clones.
    folds: u64,
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

    /// Bulk-insert many facts, returning how many were new. The end
    /// state holds the same facts, postings and distinct counts as
    /// inserting one at a time, but rows are staged as cells and each
    /// touched table is indexed once: a new table, or one the batch would
    /// make outgrow its base anyway, gets a base built directly (counting
    /// sort per column — no per-row index upkeep); a batch small against
    /// its table goes through the delta like single inserts.
    pub fn insert_all(&mut self, facts: impl IntoIterator<Item = Atom>) -> usize {
        let mut staged: HashMap<Predicate, Staged> = HashMap::new();
        for fact in facts {
            let prior = self.tables.get(&fact.pred).map(Arc::as_ref);
            staged
                .entry(fact.pred)
                .or_insert_with(|| Staged::new(fact.pred.arity))
                .push(&fact, prior);
        }
        let mut added = 0usize;
        for (pred, stage) in staged {
            // Nothing new: a no-op insert must not copy a table that is
            // COW-shared with other snapshots.
            if stage.n_rows == 0 {
                continue;
            }
            added += stage.n_rows;
            let small = self
                .tables
                .get(&pred)
                .is_some_and(|t| !t.outgrown(stage.n_rows, Arc::strong_count(t) > 1));
            if small {
                let (table, _) = self.table_mut(pred);
                let mut cells = vec![0u32; pred.arity];
                for k in 0..stage.n_rows {
                    for (cell, col) in cells.iter_mut().zip(&stage.cols) {
                        *cell = col[k];
                    }
                    table.append(&cells);
                }
            } else {
                let prior = self.tables.get(&pred).map(Arc::as_ref);
                let folds = u64::from(prior.is_some());
                let table = Table::rebuilt(prior, stage);
                self.tables.insert(pred, Arc::new(table));
                self.folds += folds;
            }
        }
        added
    }

    /// Add `pred`'s table straight from a decoded segment, in place of
    /// the bulk-load path: `dicts[j]` is column `j`'s dictionary (the
    /// cells of its constants) and `rows` holds `n_rows` row-major
    /// dictionary-index tuples, every index in range. A row copies its
    /// cells by index, and the postings are grouped with the indices as
    /// keys. Nothing is re-encoded or deduplicated per row: the caller
    /// has checked the tuples strictly increasing, so the rows are
    /// distinct. `Err((j, k))` names entry `k` of column `j` when it is a
    /// cell an earlier entry of that dictionary is, or no row uses it.
    pub(crate) fn insert_decoded(
        &mut self,
        pred: Predicate,
        dicts: &[Vec<u32>],
        rows: &[u32],
        n_rows: u32,
    ) -> Result<(), (usize, usize)> {
        let mut cols = Vec::with_capacity(dicts.len());
        let mut index = Vec::with_capacity(dicts.len());
        for (j, cells) in dicts.iter().enumerate() {
            let keys: Vec<u32> = rows.iter().skip(j).step_by(dicts.len()).copied().collect();
            cols.push(keys.iter().map(|&k| cells[k as usize]).collect());
            index.push(ColumnIndex::group(&keys, cells).map_err(|k| (j, k))?);
        }
        let base = Base {
            cols,
            n_rows,
            index,
        };
        self.tables.insert(pred, Arc::new(Table::with_base(base)));
        Ok(())
    }

    /// The table behind `pred`, private to this database and ready for
    /// one more write: created if absent, folded if its delta has
    /// outgrown its base, its delta copied if an older snapshot still
    /// shares it. The flag says whether it was folded, which renumbers
    /// its rows (cells stay valid).
    fn table_mut(&mut self, pred: Predicate) -> (&mut Table, bool) {
        let slot = self
            .tables
            .entry(pred)
            .or_insert_with(|| Arc::new(Table::with_arity(pred.arity)));
        let fold = slot.outgrown(0, Arc::strong_count(slot) > 1);
        if fold {
            // A fold renumbers row ids. That is safe: the only holders of
            // row ids are hashed build sides, `BuildCache::carried_over`
            // evicts every build over a written predicate, and a cache
            // never outlives the `Database` of its snapshot.
            *slot = Arc::new(slot.folded());
            self.folds += 1;
        }
        (Arc::make_mut(slot), fold)
    }

    /// Insert a fact, maintaining the per-column indexes incrementally.
    /// Returns `true` if the fact was new. Panics unless every argument
    /// is a constant. The row is encoded from the fact, so a borrowed one
    /// is never cloned.
    pub fn insert(&mut self, fact: impl Borrow<Atom>) -> bool {
        let fact = fact.borrow();
        let cells: Vec<u32> = fact.args.iter().map(|t| fact_cell(fact, t)).collect();
        // Duplicate probe first: a no-op insert must not copy a table that
        // is COW-shared with other snapshots.
        if let Some(table) = self.tables.get(&fact.pred) {
            if table.find(&cells).is_some() {
                return false;
            }
        }
        let (table, _) = self.table_mut(fact.pred);
        table.append(&cells);
        true
    }

    /// Retract a fact, maintaining the per-column indexes incrementally
    /// (no table rebuild). Returns `true` if the fact was present. A
    /// table emptied by its last retraction is dropped, so
    /// [`predicates`](Self::predicates) keeps its "has at least one
    /// fact" contract.
    pub fn remove(&mut self, fact: &Atom) -> bool {
        // Same COW guard as insert: a missing fact must not force a copy.
        // The one encoding and lookup made here are handed to the write.
        let Some(table) = self.tables.get(&fact.pred) else {
            return false;
        };
        let Some(cells) = cells_of(&fact.args) else {
            return false;
        };
        let Some(id) = table.find(&cells) else {
            return false;
        };
        if table.len() == 1 {
            self.tables.remove(&fact.pred);
            return true;
        }
        let (table, folded) = self.table_mut(fact.pred);
        let id = if folded {
            table.find(&cells).expect("a fold keeps every live row")
        } else {
            id
        };
        table.remove_row(id, &cells);
        true
    }

    /// The columnar table behind a predicate (crate-internal cell-level
    /// access for the join step, the build cache and the segment codec).
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
    pub(crate) fn iter_rows(&self, pred: Predicate) -> impl Iterator<Item = Vec<Term>> + '_ {
        self.tables
            .get(&pred)
            .into_iter()
            .flat_map(|t| t.live_ids().map(move |id| t.row_terms(id)))
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
            .and_then(|t| cell_of(term).map(|c| t.posting_cells(col, c)))
            .unwrap_or(&[])
    }

    /// The distinct values of a column in canonical order, collected and
    /// sorted per call. Each value has a non-empty posting list reachable
    /// through [`posting`](Self::posting). Empty for unknown
    /// predicates/columns.
    pub fn sorted_values(&self, pred: Predicate, col: usize) -> Vec<Term> {
        self.tables
            .get(&pred)
            .map(|t| {
                t.canonical_cells(col)
                    .into_iter()
                    .map(|c| Term::Const(Symbol::from_index(c)))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Number of distinct values in a column — O(1) and exact after any
    /// sequence of writes.
    pub fn distinct(&self, pred: Predicate, col: usize) -> usize {
        self.tables
            .get(&pred)
            .and_then(|t| t.delta.distinct.get(col).copied())
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
            .flat_map(|(p, t)| t.live_ids().map(move |id| Atom::new(*p, t.row_terms(id))))
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

    /// Is this predicate's *base* physically shared with `other`'s —
    /// true for an untouched table and for one written since without a
    /// fold? Diagnostic for snapshot tests: a small write must copy the
    /// delta only.
    pub fn shares_base(&self, other: &Database, pred: Predicate) -> bool {
        match (self.tables.get(&pred), other.tables.get(&pred)) {
            (Some(a), Some(b)) => Arc::ptr_eq(&a.base, &b.base),
            _ => false,
        }
    }

    /// How many times a write to this database or one of the clones it
    /// descends from folded a table's delta into a new base — the one
    /// O(table) write left.
    pub fn table_folds(&self) -> u64 {
        self.folds
    }

    pub fn len(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Analytic heap-byte accounting for the whole database, split into
    /// fact payload (flat columns) and index structures (postings, the
    /// deltas' dead sets and touched postings). Each table's base is
    /// counted once, however many other snapshots share it. Tables are reported sorted by name for
    /// stable output.
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
                delta_rows: t.delta.n_rows as usize,
                dead_rows: t.delta.dead.len(),
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
    /// Rows appended to the table's delta since its base was built (dead
    /// ones included).
    pub delta_rows: usize,
    /// Removed rows still occupying a row id, in base or delta; a fold
    /// drops them.
    pub dead_rows: usize,
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
    use crate::segment::encode_database;
    use crate::test_support::sample_db;
    use std::collections::BTreeSet;

    fn p2() -> Predicate {
        Predicate::new("p", 2)
    }

    fn fact(a: &str, b: &str) -> Atom {
        Atom::make("p", [a, b])
    }

    /// Fold `pred`'s table in place, whatever the fold rule says.
    fn force_fold(db: &mut Database, pred: Predicate) {
        let folded = db.tables[&pred].folded();
        db.tables.insert(pred, Arc::new(folded));
    }

    /// Every index of `db` agrees with a from-scratch rebuild of its
    /// live facts, down to the segment bytes.
    fn assert_equals_rebuild(db: &Database) {
        let rebuilt = Database::from_facts(db.facts());
        assert_eq!(encode_database(db), encode_database(&rebuilt));
        for pred in rebuilt.predicates() {
            assert_eq!(db.table_len(pred), rebuilt.table_len(pred));
            let rows = |d: &Database| d.rows_vec(pred).into_iter().collect::<BTreeSet<_>>();
            assert_eq!(rows(db), rows(&rebuilt));
            for col in 0..pred.arity {
                assert_eq!(db.distinct(pred, col), rebuilt.distinct(pred, col));
                let sorted = db.sorted_values(pred, col);
                assert_eq!(sorted, rebuilt.sorted_values(pred, col));
                for value in &sorted {
                    let carriers = |d: &Database| {
                        d.posting(pred, col, value)
                            .iter()
                            .map(|&id| d.row(pred, id))
                            .collect::<BTreeSet<_>>()
                    };
                    assert_eq!(carriers(db), carriers(&rebuilt), "{pred:?} {col} {value}");
                }
            }
        }
    }

    /// Membership has no row-hash map behind it: it scans the shortest
    /// posting list among the row's cells and compares columns, so rows
    /// that agree on all but one column must be told apart.
    #[test]
    fn membership_scans_the_shortest_posting() {
        let mut db = Database::new();
        // Column 0 is one long posting, column 1 all distinct — and the
        // other way round for the `x*` rows.
        for i in 0..50 {
            db.insert(fact("hub", &format!("leaf{i}")));
            db.insert(fact(&format!("x{i}"), "sink"));
        }
        assert!(db.contains(&fact("hub", "leaf7")));
        assert!(db.contains(&fact("x7", "sink")));
        assert!(
            !db.contains(&fact("hub", "sink")),
            "both cells exist, the row does not"
        );
        assert!(!db.contains(&fact("x7", "leaf7")));
        assert!(!db.contains(&fact("hub", "nowhere")));
        assert!(!db.insert(fact("hub", "leaf7")));
        assert!(db.insert(fact("hub", "sink")));
        assert_eq!(db.len(), 101);
        // Same through the bulk path, wide rows included.
        let wide = |a: &str, b: &str, c: &str| Atom::make("w", [a, b, c]);
        let bulk = Database::from_facts([
            wide("a", "b", "c"),
            wide("a", "b", "d"),
            wide("a", "b", "c"),
            Atom::make("z", [] as [&str; 0]),
            Atom::make("z", [] as [&str; 0]),
        ]);
        assert_eq!(bulk.len(), 3);
        assert!(bulk.contains(&wide("a", "b", "d")));
        assert!(!bulk.contains(&wide("a", "c", "c")));
        assert!(bulk.contains(&Atom::make("z", [] as [&str; 0])));
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
        // The surviving row is still reachable through its id.
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
        // Emptying a bulk-loaded table row by row drops it too, and the
        // old snapshot keeps every row.
        let old = Database::from_facts([fact("a", "b"), fact("c", "d")]);
        let mut db = old.clone();
        assert!(db.remove(&fact("a", "b")));
        assert_eq!(db.table_len(p2()), 1);
        assert!(db.remove(&fact("c", "d")));
        assert_eq!(db.predicates().count(), 0);
        assert_eq!(db.distinct(p2(), 0), 0);
        assert_eq!(old.table_len(p2()), 2);
        assert!(db.insert(fact("c", "d")), "a dropped table starts over");
        assert_eq!(db.rows_vec(p2()), vec![fact("c", "d").args]);
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
        assert_eq!(
            noop.insert_all([Atom::make("list_comp", ["sap_s", "dax"])]),
            0
        );
        assert!(noop.shares_table(&db, lc));
    }

    /// A small write to a shared table copies the delta and nothing else:
    /// the base stays shared, and the old snapshot reads what it read.
    #[test]
    fn a_write_shares_the_base_and_leaves_the_old_snapshot_alone() {
        let old =
            Database::from_facts((0..200).map(|i| fact(&format!("s{i}"), &format!("c{}", i % 10))));
        let c3 = Term::constant("c3");
        let posting_before = old.posting(p2(), 1, &c3).to_vec();
        let sorted_before = old.sorted_values(p2(), 0);
        let row_before = old.row(p2(), 13);

        let mut new = old.clone();
        assert!(new.insert(fact("s_new", "c3")));
        assert!(new.remove(&fact("s13", "c3")));
        assert!(new.shares_base(&old, p2()), "only the delta was copied");
        assert!(!new.shares_table(&old, p2()));
        assert_eq!(new.table_folds(), 0);

        assert_eq!(old.posting(p2(), 1, &c3), posting_before);
        assert_eq!(old.sorted_values(p2(), 0), sorted_before);
        assert_eq!(old.row(p2(), 13), row_before);
        assert_eq!((old.distinct(p2(), 0), old.distinct(p2(), 1)), (200, 10));
        assert_eq!(old.table_len(p2()), 200);
        assert!(old.contains(&fact("s13", "c3")) && !old.contains(&fact("s_new", "c3")));

        assert_eq!(new.posting(p2(), 1, &c3).len(), posting_before.len());
        assert!(
            !new.posting(p2(), 1, &c3).contains(&13),
            "no probe sees a dead row"
        );
        assert_eq!(new.distinct(p2(), 0), 200, "one student left, one came");
        assert_eq!(new.table_len(p2()), 200);
        let memory = new.memory_stats();
        assert_eq!(
            (memory.tables[0].delta_rows, memory.tables[0].dead_rows),
            (1, 1)
        );
        assert_equals_rebuild(&new);
    }

    #[test]
    fn scans_skip_dead_rows() {
        let mut db = Database::from_facts((0..6).map(|i| fact(&format!("a{i}"), "b")));
        assert!(db.remove(&fact("a1", "b")));
        assert!(db.insert(fact("a6", "b")));
        assert!(db.remove(&fact("a4", "b")));
        let names: Vec<String> = db.iter_rows(p2()).map(|r| r[0].to_string()).collect();
        assert_eq!(
            names,
            ["a0", "a2", "a3", "a5", "a6"],
            "row-id order, holes skipped"
        );
        assert_eq!(db.facts().count(), 5);
        assert_eq!(db.rows_vec(p2()).len(), db.table_len(p2()));
        let table = db.table(p2()).unwrap();
        assert_eq!(table.live_ids().collect::<Vec<_>>(), [0, 2, 3, 5, 6]);
        assert_equals_rebuild(&db);
    }

    #[test]
    fn delta_edge_cases_match_a_rebuild() {
        let mut db = Database::from_facts([fact("a", "x"), fact("b", "x"), fact("c", "y")]);
        // Re-inserting a removed row gives it a new id.
        assert!(db.remove(&fact("a", "x")));
        assert!(!db.contains(&fact("a", "x")));
        assert!(db.insert(fact("a", "x")));
        assert!(!db.insert(fact("a", "x")));
        assert_eq!(db.posting(p2(), 0, &Term::constant("a")), &[3]);
        assert_equals_rebuild(&db);
        // Removing a row that only ever lived in the delta.
        assert!(db.insert(fact("d", "z")));
        assert_eq!(db.distinct(p2(), 1), 3);
        assert!(db.remove(&fact("d", "z")));
        assert_eq!(db.distinct(p2(), 1), 2, "z came and went");
        assert!(db.posting(p2(), 1, &Term::constant("z")).is_empty());
        assert_equals_rebuild(&db);
        // Emptying a base cell, reading the sorted values, and re-adding
        // the cell.
        assert!(db.remove(&fact("c", "y")));
        assert_eq!(db.sorted_values(p2(), 1), vec![Term::constant("x")]);
        assert_eq!(db.distinct(p2(), 1), 1);
        assert!(db.insert(fact("e", "y")));
        assert_eq!(
            db.sorted_values(p2(), 1),
            vec![Term::constant("x"), Term::constant("y")]
        );
        assert_eq!(db.distinct(p2(), 1), 2);
        assert_equals_rebuild(&db);
    }

    /// A database holds constants: a lookup of a labelled null finds
    /// nothing, and both write paths refuse a fact that holds one (the
    /// knowledge base checks every fact before it writes).
    #[test]
    fn lookups_of_a_non_constant_find_nothing() {
        let mut db = Database::from_facts([fact("a", "x")]);
        let null_fact = Atom::new(p2(), vec![Term::Null(7), Term::constant("x")]);
        assert!(!db.contains(&null_fact));
        assert!(!db.remove(&null_fact));
        assert!(db.posting(p2(), 0, &Term::Null(7)).is_empty());
    }

    #[test]
    #[should_panic(expected = "facts hold constants only")]
    fn insert_refuses_a_labelled_null() {
        Database::new().insert(Atom::new(p2(), vec![Term::Null(7), Term::constant("x")]));
    }

    #[test]
    #[should_panic(expected = "facts hold constants only")]
    fn bulk_insert_refuses_a_variable() {
        Database::from_facts([Atom::new(p2(), vec![Term::constant("a"), Term::var("X")])]);
    }

    /// Whatever state the delta is in, folding it yields exactly the
    /// table a bulk load of the live facts builds.
    #[test]
    fn a_fold_equals_a_rebuild_of_the_live_facts() {
        let mut db =
            Database::from_facts((0..40).map(|i| fact(&format!("s{i}"), &format!("c{}", i % 4))));
        let snapshot = db.clone();
        for i in (0..40).step_by(3) {
            assert!(db.remove(&fact(&format!("s{i}"), &format!("c{}", i % 4))));
        }
        for i in 40..50 {
            assert!(db.insert(fact(&format!("s{i}"), "c9")));
        }
        assert_equals_rebuild(&db);
        let unfolded = encode_database(&db);
        force_fold(&mut db, p2());
        let memory = db.memory_stats();
        assert_eq!(
            (memory.tables[0].delta_rows, memory.tables[0].dead_rows),
            (0, 0)
        );
        assert_eq!(
            encode_database(&db),
            unfolded,
            "written-then-folded = written-not-folded"
        );
        assert_equals_rebuild(&db);
        assert_eq!(
            db.table(p2()).unwrap().live_ids().collect::<Vec<_>>(),
            (0..db.table_len(p2()) as u32).collect::<Vec<_>>(),
            "a fold renumbers row ids densely"
        );
        assert_eq!(snapshot.table_len(p2()), 40, "the pinned base is untouched");
    }

    /// The fold rule: a table an older snapshot shares folds once its
    /// delta passes 1/FOLD_DIVISOR of the base, an unshared one when the
    /// delta passes the base; both count in `table_folds`.
    #[test]
    fn deltas_fold_when_they_outgrow_their_base() {
        let n = 10 * FOLD_DIVISOR;
        let mut db = Database::from_facts((0..n).map(|i| fact(&format!("s{i}"), "c")));
        let mut pinned = Vec::new();
        for i in 0..=10 {
            pinned.push(db.clone());
            assert!(db.insert(fact(&format!("new{i}"), "c")));
            assert_eq!(db.table_folds(), 0, "{i} delta rows copied, base of {n}");
        }
        pinned.push(db.clone());
        assert!(db.insert(fact("new11", "c")));
        assert_eq!(
            db.table_folds(),
            1,
            "eleven rows are past n/64: folded, not copied"
        );
        assert!(!db.shares_base(&pinned[11], p2()));
        assert_equals_rebuild(&db);
        for (i, old) in pinned.iter().enumerate() {
            assert_eq!(
                old.table_len(p2()),
                n + i,
                "pinned snapshots keep their rows"
            );
        }
        // Unshared: no copy to avoid, so the delta may grow to the base.
        drop(pinned);
        let base_rows = db.table_len(p2()) - 1;
        for i in 0..base_rows {
            assert!(db.insert(fact(&format!("more{i}"), "c")));
        }
        assert_eq!(db.table_folds(), 1);
        assert!(db.insert(fact("last", "c")));
        assert_eq!(db.table_folds(), 2);
        // A bulk insert the table would outgrow rebuilds it in one pass.
        let shared = db.clone();
        let added = db.insert_all((0..n).map(|i| fact(&format!("bulk{i}"), "d")));
        assert_eq!((added, db.table_folds()), (n, 3));
        assert_eq!(db.memory_stats().tables[0].delta_rows, 0);
        assert_eq!(db.insert_all([fact("one", "d"), fact("bulk0", "d")]), 1);
        assert_eq!(
            db.memory_stats().tables[0].delta_rows,
            1,
            "a small batch goes to the delta"
        );
        assert!(!shared.contains(&fact("bulk0", "d")));
        assert_equals_rebuild(&db);
    }

    /// `remove` finds its row before it asks for a writable table; the
    /// fold that request can trigger renumbers the rows.
    #[test]
    fn a_remove_that_folds_still_removes_its_own_row() {
        let n = 10 * FOLD_DIVISOR;
        let mut db = Database::from_facts((0..n).map(|i| fact(&format!("s{i}"), "c")));
        let mut pinned = Vec::new();
        for i in 0..=11 {
            pinned.push(db.clone());
            assert!(db.remove(&fact(&format!("s{i}"), "c")));
        }
        assert_eq!(db.table_folds(), 1, "the twelfth dead row is past n/64");
        assert_eq!(db.table_len(p2()), n - 12);
        assert!(!db.contains(&fact("s11", "c")));
        assert!(db.contains(&fact("s12", "c")) && db.contains(&fact("s23", "c")));
        assert_equals_rebuild(&db);
    }

    /// The two costs [`FOLD_DIVISOR`] balances, measured:
    /// `cargo test --release -p nyaya-sql fold_rule_costs -- --ignored --nocapture`.
    #[test]
    #[ignore = "a measurement, not a check"]
    fn fold_rule_costs() {
        use std::time::Instant;
        let n = 200_000usize;
        let row = |i: usize| fact(&format!("s{i}"), &format!("c{}", i % (n / 10)));
        let mut db = Database::from_facts((0..n).map(row));
        let mut next = n;
        for delta_rows in [100usize, 1_000, 3_000, 10_000, 25_000] {
            while db.tables[&p2()].delta_weight() < delta_rows {
                // Two rows per batch, one in and one out, like `lubm_rw`.
                db.insert(row(next));
                db.remove(&row(next - n));
                next += 1;
            }
            let started = Instant::now();
            let copies: Vec<Table> = (0..20).map(|_| Table::clone(&db.tables[&p2()])).collect();
            let copy = started.elapsed() / 20;
            drop(copies);
            let started = Instant::now();
            let folded = db.tables[&p2()].folded();
            let fold = started.elapsed();
            println!(
                "delta {delta_rows:>6} rows: copy {:>9.1} us ({:>5.1} ns/delta row), \
                 fold {:>6.1} ms ({:>5.1} ns/base row)",
                copy.as_secs_f64() * 1e6,
                copy.as_secs_f64() * 1e9 / delta_rows as f64,
                fold.as_secs_f64() * 1e3,
                fold.as_secs_f64() * 1e9 / folded.len() as f64,
            );
        }
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
