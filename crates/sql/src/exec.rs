//! The (U)CQ executor of the in-memory relational engine.
//!
//! This is the "underlying relational database" substrate of the OBDA
//! architecture (Section 1): rewritings produced by `nyaya-rewrite` are
//! executed here without any ontological reasoning — that is the whole
//! point of FO-rewritability. Because perfect rewritings routinely blow up
//! to hundreds of disjuncts, the engine is built around these ideas:
//!
//! - **Indexed columnar tables** ([`Database`]): a table is an immutable
//!   shared base (flat cell columns and, per column, a posting index from
//!   cell to row ids) under a small per-snapshot delta whose touched
//!   posting lists shadow the base's. A posting lookup returns the live
//!   rows of a cell as one slice, and the planner reads row and distinct
//!   counts in O(1).
//! - **One planner, one per-disjunct driver** (`run_planned`): every
//!   CQ the engine runs — a disjunct of [`execute_ucq_intra`], a rule body
//!   in [`crate::program`], and so a rule body of a view's seed — is
//!   planned by the cost planner ([`crate::plan`]) against the tables its
//!   `DataSource` resolves, counted, and run. Body atoms are ordered by
//!   priced operator work; each step's access path follows from its
//!   atom's shape (`join.rs`): the key column's posting index for a join
//!   on one column ([`StepOp::Merge`](crate::StepOp::Merge)), the table
//!   read in place for a scan, a hashed build side for any other join.
//!   The driver projects every valuation into a head sink: a set of
//!   answers, or a seed's support counts.
//! - **One join step** (`join.rs`): every step of every pipeline — a
//!   disjunct here, a rule body in [`crate::program`], a delta rule in
//!   [`crate::ivm`] — is the same compiled step: an atom classified
//!   against the variables bound so far, a table, an access path, and one
//!   probe loop that extends intermediate tuples with matching rows. This
//!   module is the driver that compiles steps lazily in plan order and
//!   feeds them morsels.
//! - **A shared build-side cache** ([`BuildCache`]): the disjuncts of a
//!   UCQ rewriting overwhelmingly share access patterns (same predicate,
//!   same join-key positions, same constant filters). The hashed build
//!   side for a pattern — a grouping no table index holds — is
//!   constructed once and reused by every disjunct
//!   — and by every worker thread of [`execute_ucq_intra`] — the
//!   execution-side analogue of the paper's factorization.
//! - **Cheap snapshots** ([`Database`] is copy-on-write): cloning a
//!   database is O(#predicates); a writer clones, and its
//!   [`Database::insert`] / [`Database::remove`] copy only the deltas of
//!   the tables they touch, so readers holding the old value never
//!   observe a partial batch. [`BuildCache::carried_over`] transplants
//!   the build sides of untouched predicates into the next snapshot's
//!   cache.
//!
//! The seed engine (textual order, no indexes, one fresh hash table per
//! atom per disjunct) is preserved verbatim in [`crate::reference`] as the
//! differential-testing oracle.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use nyaya_core::par::fan_out;
use nyaya_core::{ConjunctiveQuery, Predicate, Symbol, Term, UnionQuery};

use crate::build_cache::BuildCache;
use crate::join::{AtomShape, Projection, Step};
use crate::plan::plan_over;
use crate::program::evaluate;
use crate::table::Database;

/// Per-call counters for one (U)CQ execution. Distinct from the
/// [`BuildCache`]'s own lifetime counters: when several executions share
/// one persistent cache concurrently, each execution's tally counts only
/// its own probes, so summing tallies never double-counts.
#[derive(Default)]
pub(crate) struct CacheTally {
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
    /// [`StepOp::Merge`](crate::StepOp::Merge) steps executed (no build
    /// side fetched).
    pub(crate) merges: AtomicU64,
    /// Probe morsels driven through the join step (see [`MORSEL`]).
    pub(crate) morsels: AtomicU64,
    /// The planner's result estimates, rounded per CQ and summed.
    pub(crate) estimated: AtomicU64,
}

impl CacheTally {
    /// The tally's counters as the matching [`ExecMetrics`] fields.
    pub(crate) fn exec_metrics(&self) -> ExecMetrics {
        ExecMetrics {
            build_cache_hits: self.hits.load(Ordering::Relaxed),
            build_cache_misses: self.misses.load(Ordering::Relaxed),
            merge_joins: self.merges.load(Ordering::Relaxed),
            morsel_tasks: self.morsels.load(Ordering::Relaxed),
            estimated_rows: self.estimated.load(Ordering::Relaxed),
            ..ExecMetrics::default()
        }
    }
}

/// Fixed probe-batch size of the join step, in rows.
///
/// Every join step drives its probe side through `join.rs` in morsels
/// of this many intermediate tuples: the batch's key cells are resolved
/// and probed together, which keeps the working set (key buffer, build
/// side bucket walks, output run) cache-resident, and the batch is the
/// unit the intra-query parallel path hands to worker threads.
pub(crate) const MORSEL: usize = 1024;

/// Drive one join step's probe loop in [`MORSEL`]-row batches, optionally
/// splitting the probe side across `intra` worker threads.
///
/// The probe side is cut into `intra` contiguous spans (one per worker),
/// each span is processed batch by batch, and span outputs are
/// concatenated in span order — so the produced tuple *set* is identical
/// to a sequential run regardless of the split (a step emits in probe
/// order, so even the tuple order is preserved exactly).
/// A probe side under two morsels never splits: spawn overhead would
/// dominate. `tally` counts the *logical* morsel count — `len / MORSEL`
/// rounded up, at least one — independent of the worker split, so the
/// counter is host-stable.
fn run_morsels<F>(
    tuples: &[Vec<Term>],
    intra: usize,
    tally: &CacheTally,
    probe: F,
) -> Vec<Vec<Term>>
where
    F: Fn(&[Vec<Term>], &mut Vec<Vec<Term>>) + Sync,
{
    tally.morsels.fetch_add(
        tuples.len().div_ceil(MORSEL).max(1) as u64,
        Ordering::Relaxed,
    );
    let workers = if tuples.len() < 2 * MORSEL { 1 } else { intra };
    fan_out(tuples, workers, |out: &mut Vec<Vec<Term>>, span| {
        for batch in span.chunks(MORSEL) {
            probe(batch, out);
        }
    })
    .0
}

/// Per-atom table resolution for the join pipeline: derived intensional
/// tables (with their own per-run cache) layered over a read-only base.
///
/// Atoms over `intensional` predicates resolve to the overlay —
/// exclusively, matching [`DatalogProgram::expand`] semantics, where a
/// defined predicate is exactly its rules — and every other atom reads
/// the base, which is never cloned or written. A flat UCQ's source has
/// an empty overlay and no intensional predicates. View maintenance
/// ([`crate::ivm`]) holds two sources, the state before an update and the
/// state after it, each a snapshot under its view.
///
/// [`DatalogProgram::expand`]: nyaya_core::DatalogProgram::expand
pub(crate) struct DataSource<'a> {
    pub(crate) base: &'a Database,
    pub(crate) base_cache: &'a BuildCache,
    pub(crate) overlay: &'a Database,
    pub(crate) overlay_cache: &'a BuildCache,
    /// Predicates that resolve to the overlay (the program's defined
    /// predicates — even when their derived table is still empty).
    pub(crate) intensional: &'a HashSet<Predicate>,
}

impl<'a> DataSource<'a> {
    pub(crate) fn resolve(&self, pred: Predicate) -> (&'a Database, &'a BuildCache) {
        if self.intensional.contains(&pred) {
            (self.overlay, self.overlay_cache)
        } else {
            (self.base, self.base_cache)
        }
    }
}

/// The support sink of a head projection: every valuation is one
/// derivation of its head tuple (a valuation fixes the row each body atom
/// matched), so a tuple's count is its support — what a view's seed
/// needs. The other sink is a set of answers.
#[derive(Default)]
pub(crate) struct Support(pub(crate) HashMap<Vec<Term>, i64>);

impl Extend<Vec<Term>> for Support {
    fn extend<I: IntoIterator<Item = Vec<Term>>>(&mut self, tuples: I) {
        for tuple in tuples {
            *self.0.entry(tuple).or_insert(0) += 1;
        }
    }
}

/// Execute one CQ with atoms in `order`, resolving each atom's table and
/// build cache through `src`, and project every valuation into `sink`.
///
/// Each step's access path is its atom's shape alone ([`Step::compile`]):
/// the plan's [`StepOp`](crate::StepOp) labels name the same choice, so
/// only its order is read here.
///
/// Each join step's probe side is split into contiguous spans across up
/// to `intra` worker threads (only once it holds at least two
/// [`MORSEL`]s — smaller intermediates stay sequential, where spawn
/// overhead would dominate). What reaches the sink is identical for every
/// `intra`.
fn execute_cq_ordered(
    src: &DataSource<'_>,
    q: &ConjunctiveQuery,
    order: &[usize],
    tally: &CacheTally,
    intra: usize,
    sink: &mut impl Extend<Vec<Term>>,
) {
    debug_assert_eq!(order.len(), q.body.len());
    let mut var_index: HashMap<Symbol, usize> = HashMap::new();
    let mut current: Vec<Vec<Term>> = vec![Vec::new()];

    for &atom_idx in order {
        let atom = &q.body[atom_idx];
        let (db, cache) = src.resolve(atom.pred);
        if current.is_empty() {
            return;
        }
        let shape = AtomShape::of(atom, |v| var_index.get(&v).copied());
        shape.bind_fresh(atom, &mut var_index);
        let merge = shape.posting_col().is_some();
        let (compiled, was_hit) = Step::compile(db, cache, atom, shape);
        // A step with no key column fetched nothing and merged nothing: it
        // counts nowhere.
        let counter = match was_hit {
            Some(true) => Some(&tally.hits),
            Some(false) => Some(&tally.misses),
            None => merge.then_some(&tally.merges),
        };
        if let Some(counter) = counter {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        current = if compiled.is_empty() {
            Vec::new()
        } else {
            run_morsels(&current, intra, tally, |batch, out| {
                compiled.probe(batch, out)
            })
        };
    }

    // Project the head (an unsafe head only fails on an actual answer).
    if current.is_empty() {
        return;
    }
    let head = Projection::new(&q.head, &var_index);
    sink.extend(current.into_iter().map(|tuple| head.of(&tuple)));
}

/// Plan `q` against `src`, add the plan's rounded result estimate to
/// `tally`, and run it into `sink`: the one per-CQ driver behind UCQ
/// execution, program rule bodies and a view's seed.
pub(crate) fn run_planned(
    src: &DataSource<'_>,
    q: &ConjunctiveQuery,
    correction: f64,
    tally: &CacheTally,
    intra: usize,
    sink: &mut impl Extend<Vec<Term>>,
) {
    let plan = plan_over(src, q, correction);
    tally
        .estimated
        .fetch_add(plan.result_estimate().round() as u64, Ordering::Relaxed);
    execute_cq_ordered(src, q, &plan.order, tally, intra, sink);
}

/// The one union fan-out: run every rule body of `rules` through
/// [`run_planned`] into a fresh sink `S` of its own, across up to
/// `threads` workers (contiguous chunks), and `merge` each sink into its
/// worker's accumulator in rule order. Returns the accumulators
/// concatenated in rule order and the workers used. A program's stratum
/// keeps one sink per rule; a goal stratum — a UCQ's disjuncts —
/// merges each rule's set into the answers.
pub(crate) fn run_union<S, A>(
    src: &DataSource<'_>,
    rules: &[ConjunctiveQuery],
    threads: usize,
    intra: usize,
    correction: f64,
    tally: &CacheTally,
    merge: impl Fn(&mut A, S) + Sync,
) -> (A, usize)
where
    S: Default + Extend<Vec<Term>>,
    A: Default + Extend<<A as IntoIterator>::Item> + IntoIterator + Send,
{
    fan_out(rules, threads, |out: &mut A, chunk| {
        for q in chunk {
            let mut sink = S::default();
            run_planned(src, q, correction, tally, intra, &mut sink);
            merge(out, sink);
        }
    })
}

/// Counters from one (U)CQ execution.
///
/// Every step with a key column bumps exactly one of `build_cache_hits`,
/// `build_cache_misses` and `merge_joins`; a step with no key column (a
/// scan, which reads its table in place) bumps none.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecMetrics {
    /// Disjuncts evaluated.
    pub disjuncts: usize,
    /// Worker threads actually used (1 = sequential).
    pub threads: usize,
    /// Answer tuples produced (after union-level dedup).
    pub rows: usize,
    /// Build sides served from the shared cache.
    pub build_cache_hits: u64,
    /// Build sides constructed.
    pub build_cache_misses: u64,
    /// [`StepOp::Merge`](crate::StepOp::Merge) steps executed: joins
    /// probed through a column's posting index, with no build side fetched
    /// or constructed.
    pub merge_joins: u64,
    /// Probe morsels (1024-row batches) the join steps drove
    /// across all join steps. Counts logical batches of each step's probe
    /// side, independent of the intra-query worker split, so the value is
    /// host-stable.
    pub morsel_tasks: u64,
    /// The cost planner's summed result-cardinality estimate across
    /// disjuncts (rounded) — compared against `rows` by the knowledge
    /// base's cardinality-feedback loop.
    pub estimated_rows: u64,
    /// Wall-clock execution time.
    pub elapsed: Duration,
}

/// Execute a union of CQs (set semantics) sequentially with one private
/// build cache: [`execute_ucq_intra`] at its defaults.
pub fn execute_ucq(db: &Database, u: &UnionQuery) -> BTreeSet<Vec<Term>> {
    execute_ucq_intra(db, u, 1, 1, &BuildCache::new(), 1.0).0
}

/// Execute a union of CQs — the engine's one UCQ entry point, a thin
/// wrapper over the engine's one evaluator (a flat rewriting is a goal
/// stratum with nothing beneath it; see
/// [`execute_program_shared`](crate::execute_program_shared)).
///
/// `threads` is the *inter*-CQ budget. Section 2 observes that the CQs of
/// a UCQ rewriting "are independent from each other, and thus they can be
/// easily executed in parallel threads": workers evaluate contiguous
/// chunks of the union and results are merged under set semantics.
/// `intra` is the *intra*-CQ budget — inside each disjunct's join
/// pipeline, any step whose probe side holds at least two 1024-row morsels
/// splits it across up to `intra` workers. The two compose: small unions
/// over big data want `threads = 1, intra = N`, hundred-disjunct
/// rewritings over modest data want the reverse. Answer sets are
/// identical for every combination.
///
/// `cache` is caller-owned and outlives the call — build sides hashed by
/// any earlier execution over the same database state are reused here,
/// and the ones this call constructs are left behind for the next. The
/// returned [`ExecMetrics`] report this call's own hit/miss counts,
/// tallied per probe rather than diffed off the shared counters, so the
/// attribution stays exact even when many executions share one cache
/// concurrently. `correction` is the cardinality-feedback factor applied
/// to the cost planner's join estimates (see
/// [`plan_cq_cost_corrected`](crate::plan_cq_cost_corrected); 1.0 = none).
pub fn execute_ucq_intra(
    db: &Database,
    u: &UnionQuery,
    threads: usize,
    intra: usize,
    cache: &BuildCache,
    correction: f64,
) -> (BTreeSet<Vec<Term>>, ExecMetrics) {
    let (answers, metrics, _) = evaluate(db, cache, None, &u.cqs, threads, intra, correction);
    (answers, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::test_support::{cq, execute_one, sample_db};
    use nyaya_core::Atom;

    #[test]
    fn single_table_scan() {
        let db = sample_db();
        let q = cq(&["A"], &[("list_comp", &["A", "B"])]);
        let ans = execute_one(&db, &q);
        assert_eq!(ans.len(), 2);
    }

    #[test]
    fn hash_join_on_shared_variable() {
        let db = sample_db();
        // q(A,B) ← list_comp(A,C), stock_portf(B,A,D)
        let q = cq(
            &["A", "B"],
            &[
                ("list_comp", &["A", "C"]),
                ("stock_portf", &["B", "A", "D"]),
            ],
        );
        let ans = execute_one(&db, &q);
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&vec![Term::constant("ibm_s"), Term::constant("fund1")]));
    }

    #[test]
    fn constant_filters() {
        let db = sample_db();
        let q = cq(&["A"], &[("list_comp", &["A", "nasdaq"])]);
        let ans = execute_one(&db, &q);
        assert_eq!(ans.len(), 1);
    }

    #[test]
    fn repeated_variable_within_atom() {
        let mut db = Database::new();
        db.insert(Atom::make("t", ["a", "a"]));
        db.insert(Atom::make("t", ["a", "b"]));
        let q = cq(&["A"], &[("t", &["A", "A"])]);
        assert_eq!(execute_one(&db, &q).len(), 1);
    }

    #[test]
    fn empty_result_on_failed_join() {
        let db = sample_db();
        let q = cq(
            &["A"],
            &[("list_comp", &["A", "B"]), ("has_stock", &["B", "C"])],
        );
        assert!(execute_one(&db, &q).is_empty());
        assert!(execute_one(
            &db,
            &cq(
                &[],
                &[("list_comp", &["A", "B"]), ("has_stock", &["B", "C"])]
            )
        )
        .is_empty());
    }

    #[test]
    fn union_accumulates_and_dedups() {
        let db = sample_db();
        let u = UnionQuery::new(vec![
            cq(&["A"], &[("list_comp", &["A", "B"])]),
            cq(&["A"], &[("stock_portf", &["C", "A", "D"])]),
            cq(&["A"], &[("list_comp", &["A", "nasdaq"])]), // subset of first
        ]);
        let ans = execute_ucq(&db, &u);
        assert_eq!(ans.len(), 2); // ibm_s, sap_s
    }

    #[test]
    fn parallel_execution_matches_sequential() {
        let db = sample_db();
        let u = UnionQuery::new(vec![
            cq(&["A"], &[("list_comp", &["A", "B"])]),
            cq(&["A"], &[("stock_portf", &["C", "A", "D"])]),
            cq(&["A"], &[("has_stock", &["A", "B"])]),
        ]);
        let seq = execute_ucq(&db, &u);
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                execute_ucq_intra(&db, &u, threads, 1, &BuildCache::new(), 1.0).0,
                seq
            );
        }
        // Degenerate cases: empty union, more threads than CQs.
        let empty = UnionQuery::default();
        assert!(
            execute_ucq_intra(&db, &empty, 4, 1, &BuildCache::new(), 1.0)
                .0
                .is_empty()
        );
    }

    #[test]
    fn planned_engine_agrees_with_reference_engine() {
        let db = sample_db();
        for q in [
            cq(&["A"], &[("list_comp", &["A", "B"])]),
            cq(
                &["A", "B"],
                &[
                    ("list_comp", &["A", "C"]),
                    ("stock_portf", &["B", "A", "D"]),
                ],
            ),
            cq(&["A"], &[("list_comp", &["A", "nasdaq"])]),
            cq(
                &["A"],
                &[("list_comp", &["A", "B"]), ("has_stock", &["B", "C"])],
            ),
        ] {
            assert_eq!(
                execute_one(&db, &q),
                reference::execute_cq_reference(&db, &q),
                "{q}"
            );
        }
    }

    #[test]
    fn retraction_renumbers_the_swapped_row_everywhere() {
        // Three rows; removing the first swap-moves the last into id 0.
        let mut db = Database::new();
        db.insert(Atom::make("t", ["a", "x"]));
        db.insert(Atom::make("t", ["b", "x"]));
        db.insert(Atom::make("t", ["c", "x"]));
        assert!(db.remove(&Atom::make("t", ["a", "x"])));
        let t = Predicate::new("t", 2);
        // Every posting must point at a live row holding the right value.
        for val in ["b", "c"] {
            let posting = db.posting(t, 0, &Term::constant(val));
            assert_eq!(posting.len(), 1, "{val}");
            assert_eq!(db.row(t, posting[0])[0], Term::constant(val));
        }
        assert_eq!(db.posting(t, 1, &Term::constant("x")).len(), 2);
        // Queries over the repaired indexes agree with a rebuild.
        let q = cq(&["A"], &[("t", &["A", "x"])]);
        let rebuilt = Database::from_facts(db.facts());
        assert_eq!(execute_one(&db, &q), execute_one(&rebuilt, &q));
        // Re-inserting the retracted fact round-trips.
        assert!(db.insert(Atom::make("t", ["a", "x"])));
        assert_eq!(db.table_len(t), 3);
        assert!(!db.insert(Atom::make("t", ["a", "x"])), "now a duplicate");
    }

    #[test]
    fn matches_homomorphism_semantics() {
        // Cross-check the join pipeline against the naive homomorphism
        // evaluator from nyaya-chase on a triangle query.
        let facts = [
            Atom::make("e", ["a", "b"]),
            Atom::make("e", ["b", "c"]),
            Atom::make("e", ["c", "a"]),
            Atom::make("e", ["b", "a"]),
        ];
        let db = Database::from_facts(facts.clone());
        let q = cq(
            &["X"],
            &[("e", &["X", "Y"]), ("e", &["Y", "Z"]), ("e", &["Z", "X"])],
        );
        let ans = execute_one(&db, &q);
        let instance = nyaya_chase::Instance::from_atoms(facts);
        let oracle = nyaya_chase::answers(&instance, &q);
        let oracle_set: BTreeSet<Vec<Term>> = oracle.into_iter().collect();
        assert_eq!(ans, oracle_set);
        assert!(!ans.is_empty());
    }
}
