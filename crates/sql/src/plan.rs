//! The cost-based join planner for conjunctive queries.
//!
//! Section 1 motivates FO-rewritability precisely because the produced SQL
//! "is evaluated and optimized in the usual way" by the DBMS. Our
//! in-memory engine joins body atoms left to right, so atom order *is* the
//! physical plan, and one planner chooses it for every CQ the engine runs:
//! a UCQ disjunct and a program rule body.
//!
//! The planner is greedy: at every step it takes the connected atom whose
//! step is cheapest, priced per physical operator, and records the
//! operator in the plan ([`StepOp`]). The operator follows from the
//! atom's shape, as the executor's access path does (`join.rs`): a join
//! on one key column with no other filter is a "merge" join (an index
//! nested-loop join over the key column's posting index, which every
//! table already maintains) and pays only for its probes; any other join
//! is a hash join and pays for the build side it reads. A runtime
//! cardinality-feedback factor
//! (learned by the `KnowledgeBase` from estimated-vs-actual row counts per
//! prepared query) scales the join estimates, so a plan that mispredicted
//! badly is re-priced — and possibly re-shaped — on the next execution.
//!
//! Planning never changes results — execution is order-insensitive set
//! semantics — only intermediate sizes and per-step operator work.
//!
//! Statistics (rows and per-column distinct counts) are read in O(1) off
//! the persistent indexes of whichever table a `DataSource` resolves the
//! atom to — the snapshot for a UCQ, the derived overlay for a program's
//! intensional predicate. Planning a CQ never scans a table, so planning
//! all few-hundred disjuncts of a UCQ rewriting is essentially free.

use std::collections::{HashMap, HashSet};

use nyaya_core::{ConjunctiveQuery, Predicate, Symbol, Term};

use crate::build_cache::BuildCache;
use crate::exec::DataSource;
use crate::join::AtomShape;
use crate::table::Database;

/// Per-table column statistics: row count and per-position distinct counts.
#[derive(Clone, Debug)]
struct TableStats {
    rows: usize,
    distinct: Vec<usize>,
}

impl TableStats {
    /// `pred`'s statistics in `db` — O(1) per column, served by the
    /// table's indexes.
    fn of(db: &Database, pred: Predicate) -> TableStats {
        TableStats {
            rows: db.table_len(pred),
            distinct: (0..pred.arity)
                .map(|j| db.distinct(pred, j).max(1))
                .collect(),
        }
    }
}

/// Statistics for every predicate of `q`'s body, read off the table `src`
/// resolves it to.
fn collect_stats(src: &DataSource<'_>, q: &ConjunctiveQuery) -> HashMap<Predicate, TableStats> {
    let mut stats = HashMap::new();
    for pred in q.body.iter().map(|a| a.pred) {
        stats
            .entry(pred)
            .or_insert_with(|| TableStats::of(src.resolve(pred).0, pred));
    }
    stats
}

/// Estimated result size of joining `atom` into an intermediate of size
/// `card` with `bound` variables already bound.
fn step_estimate(
    atom: &nyaya_core::Atom,
    stats: &TableStats,
    bound: &HashSet<Symbol>,
    card: f64,
) -> f64 {
    let mut rows = stats.rows as f64;
    let mut seen_here: HashSet<Symbol> = HashSet::new();
    for (j, t) in atom.args.iter().enumerate() {
        let d = stats.distinct[j] as f64;
        match t {
            // A constant keeps ~rows/d of the table.
            Term::Const(_) | Term::Null(_) | Term::Func(..) => rows /= d,
            Term::Var(v) => {
                if bound.contains(v) || seen_here.contains(v) {
                    // Equi-join / intra-atom repeat: selectivity 1/d.
                    rows /= d;
                } else {
                    seen_here.insert(*v);
                }
            }
        }
    }
    card * rows.max(0.0)
}

/// The physical operator chosen for one join step of a [`CostPlan`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StepOp {
    /// Table access with no bound join key (the leading atom of a
    /// pipeline, or a Cartesian step): constant filters drive the most
    /// selective posting list, otherwise the table is enumerated.
    Scan,
    /// Hash join, for the groupings no table index holds — a key column
    /// beside a constant or a repeat, or two or more key columns: the
    /// atom's filtered rows are grouped by the join-key columns (a
    /// [`BuildCache`]-shared build side) and probed per intermediate
    /// tuple. A join on one key column with no other filter is always a
    /// [`StepOp::Merge`].
    Hash,
    /// Index nested-loop join over the key column's posting index (the
    /// name is historical — nothing is sorted or merged): each
    /// intermediate tuple's join-key value is looked up in the index the
    /// table maintains per column, and its posting list is exactly the
    /// joining rows. No build side is constructed.
    Merge {
        /// The atom column whose posting index is probed.
        key_col: usize,
    },
}

impl StepOp {
    /// Short operator name for `EXPLAIN` output.
    pub fn name(self) -> &'static str {
        match self {
            StepOp::Scan => "scan",
            StepOp::Hash => "hash",
            StepOp::Merge { .. } => "merge",
        }
    }
}

/// A join order with per-step physical operators and the planner's cost
/// estimates.
#[derive(Clone, Debug)]
pub struct CostPlan {
    /// Permutation of body-atom indices, in execution order.
    pub order: Vec<usize>,
    /// Physical operator per step (parallel to `order`).
    pub ops: Vec<StepOp>,
    /// Estimated intermediate cardinality after each step.
    pub estimates: Vec<f64>,
    /// Total priced work: per-step operator cost plus intermediate sizes.
    pub cost: f64,
}

impl CostPlan {
    /// The planner's estimate of the final result cardinality.
    pub(crate) fn result_estimate(&self) -> f64 {
        self.estimates.last().copied().unwrap_or(0.0)
    }
}

/// Price one candidate step: estimated output cardinality, the operator
/// its shape gets, and the operator's work. A scan pays for the rows it
/// reads; a hash join pays for reading those rows into a build side plus
/// one probe per intermediate tuple; a merge join pays for its probes, plus
/// a `min(distinct, card)` term left from a walk of per-column sorted
/// value lists that tables no longer keep. The rows read are the whole
/// table, or — under a constant filter — the most selective constant's
/// posting list, estimated `rows / d` for the largest distinct count `d`
/// among the constant columns: the executor drives such a step from
/// that list, never from the table. Every hash step is charged its own
/// build: a build whose pattern names a constant is never cached.
fn price_step(
    atom: &nyaya_core::Atom,
    stats: &TableStats,
    bound: &HashSet<Symbol>,
    card: f64,
    correction: f64,
) -> (f64, StepOp, f64) {
    let raw = step_estimate(atom, stats, bound, card);
    let joins_bound = atom.variables().iter().any(|v| bound.contains(v));
    // The feedback factor corrects *join* selectivity misestimates only; a
    // leading scan's cardinality is the table's row count, divided by `d`
    // per constant column — an estimate, but not a join's.
    let est = if joins_bound { raw * correction } else { raw };
    let read = atom
        .args
        .iter()
        .zip(&stats.distinct)
        .filter(|(t, _)| !matches!(t, Term::Var(_)))
        .map(|(_, &d)| d)
        .max()
        .map_or(stats.rows as f64, |d| stats.rows as f64 / d as f64);
    // The columnar kernels price operator *work* (rows scanned into a
    // build side, probes) at half a unit per row: builds scan flat u32
    // columns and probes hash short integer keys — about half the per-row
    // cost of the old term-materializing row engine. Output
    // materialization (`est`) still decodes cells back to terms, so it
    // stays at full price. The discount applies to every operator alike,
    // letting cheap-work/large-output steps trade off honestly against
    // expensive-work/small-output ones.
    const COLUMNAR_WORK_DISCOUNT: f64 = 0.5;
    if !joins_bound {
        return (est, StepOp::Scan, COLUMNAR_WORK_DISCOUNT * read + est);
    }
    // The executor's own classification, asked with the planner's bound
    // set (the valuation index is unused): a posting-eligible step probes
    // the index, every other one reads a build side.
    let (op, work) = match AtomShape::of(atom, |v| bound.contains(&v).then_some(0)).posting_col() {
        // The `min(distinct, card)` term priced a walk of the column's
        // sorted distinct values, a list no table keeps any more: the step
        // is `card` posting-index probes and nothing else, so this
        // over-prices it by at most `0.5 * card`. Kept as is so that no
        // plan moves with the kernel; re-pricing belongs to the planner's
        // per-step-feedback change (ROADMAP item 1(a)).
        Some(key_col) => (
            StepOp::Merge { key_col },
            card + (stats.distinct[key_col] as f64).min(card),
        ),
        None => (StepOp::Hash, read + card),
    };
    (est, op, COLUMNAR_WORK_DISCOUNT * work + est)
}

/// Plan a CQ with the cost-based planner against database statistics.
pub fn plan_cq_cost(db: &Database, q: &ConjunctiveQuery) -> CostPlan {
    plan_cq_cost_corrected(db, q, 1.0)
}

/// [`plan_cq_cost`] with a runtime cardinality-feedback factor: join
/// estimates are multiplied by `correction` (learned from
/// estimated-vs-actual row counts of earlier executions), which can flip
/// the join order, and with it the operators, on re-planning.
pub fn plan_cq_cost_corrected(db: &Database, q: &ConjunctiveQuery, correction: f64) -> CostPlan {
    let (overlay, cache, intensional) = (Database::new(), BuildCache::new(), HashSet::new());
    let src = DataSource {
        base: db,
        base_cache: &cache,
        overlay: &overlay,
        overlay_cache: &cache,
        intensional: &intensional,
    };
    plan_over(&src, q, correction)
}

/// Plan a CQ against the tables `src` resolves its atoms to, with join
/// estimates scaled by `correction` — the planner behind every entry.
pub(crate) fn plan_over(src: &DataSource<'_>, q: &ConjunctiveQuery, correction: f64) -> CostPlan {
    let stats = collect_stats(src, q);
    let n = q.body.len();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut bound: HashSet<Symbol> = HashSet::new();
    let mut order = Vec::with_capacity(n);
    let mut ops = Vec::with_capacity(n);
    let mut estimates = Vec::with_capacity(n);
    let mut card = 1.0f64;
    let mut cost = 0.0f64;
    while !remaining.is_empty() {
        // Connected atoms first, then the cheapest priced step, then the
        // smallest estimate, then input order.
        let price = |atom| price_step(atom, &stats[&atom.pred], &bound, card, correction);
        let disconnected = |k: usize| {
            !bound.is_empty() && !q.body[k].variables().iter().any(|v| bound.contains(v))
        };
        let (pos, (est, op, work)) = remaining
            .iter()
            .map(|&k| price(&q.body[k]))
            .enumerate()
            .min_by(|(a, (ea, _, wa)), (b, (eb, _, wb))| {
                let (i, j) = (remaining[*a], remaining[*b]);
                disconnected(i)
                    .cmp(&disconnected(j))
                    .then(wa.total_cmp(wb))
                    .then(ea.total_cmp(eb))
                    .then(i.cmp(&j))
            })
            .expect("remaining is non-empty");
        let i = remaining.remove(pos);
        card = est;
        cost += work;
        order.push(i);
        ops.push(op);
        estimates.push(est);
        for v in q.body[i].variables() {
            bound.insert(v);
        }
    }
    CostPlan {
        order,
        ops,
        estimates,
        cost,
    }
}

/// Human-readable plan (an `EXPLAIN` for the in-memory engine): the
/// cost-based join order with the physical operator per step, planned at
/// the feedback `correction` the executor plans with (see
/// [`plan_cq_cost_corrected`]).
pub fn explain_cq(db: &Database, q: &ConjunctiveQuery, correction: f64) -> String {
    let plan = plan_cq_cost_corrected(db, q, correction);
    let mut out = String::new();
    out.push_str(&format!("plan for {q}\n"));
    for (step, ((&i, est), op)) in plan
        .order
        .iter()
        .zip(&plan.estimates)
        .zip(&plan.ops)
        .enumerate()
    {
        let operand = match op {
            StepOp::Merge { key_col } => format!("{} [col {key_col}]", q.body[i]),
            _ => q.body[i].to_string(),
        };
        out.push_str(&format!(
            "  {step}: {:<5} {:<30} est. rows {:.1}\n",
            op.name(),
            operand,
            est
        ));
    }
    out.push_str(&format!("  total estimated cost {:.1}\n", plan.cost));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{cq, execute_one};
    use crate::{execute_ucq, reference};
    use nyaya_core::{Atom, UnionQuery};

    /// big(X,Y): 1000 rows; small(X): 2 rows; the planner must start small.
    fn skewed_db() -> Database {
        let mut db = Database::new();
        for i in 0..1000 {
            db.insert(Atom::new(
                Predicate::new("big", 2),
                vec![
                    Term::constant(&format!("v{i}")),
                    Term::constant(&format!("w{}", i % 10)),
                ],
            ));
        }
        db.insert(Atom::make("small", ["v1"]));
        db.insert(Atom::make("small", ["v2"]));
        db
    }

    #[test]
    fn planner_starts_with_the_selective_atom() {
        let db = skewed_db();
        let q = cq(&["X"], &[("big", &["X", "Y"]), ("small", &["X"])]);
        let plan = plan_cq_cost(&db, &q);
        assert_eq!(plan.order[0], 1, "small/1 first: {plan:?}");
    }

    #[test]
    fn planned_execution_matches_naive() {
        let db = skewed_db();
        for q in [
            cq(&["X"], &[("big", &["X", "Y"]), ("small", &["X"])]),
            cq(&["Y"], &[("big", &["X", "Y"]), ("big", &["Y", "Z"])]),
            cq(&["X"], &[("small", &["X"]), ("big", &["X", "w1"])]),
        ] {
            assert_eq!(
                execute_one(&db, &q),
                reference::execute_cq_reference(&db, &q),
                "{q}"
            );
        }
    }

    #[test]
    fn constants_increase_selectivity() {
        let db = skewed_db();
        // big(X, w1) filters on a 10-value column: estimate ≈ 100 rows,
        // far below the 1000-row scan.
        let filtered = cq(&["X"], &[("big", &["X", "w1"])]);
        let scan = cq(&["X"], &[("big", &["X", "Y"])]);
        let pf = plan_cq_cost(&db, &filtered);
        let ps = plan_cq_cost(&db, &scan);
        assert!(pf.cost < ps.cost);
    }

    /// [`price_step`] over `atom`'s table in `db`, with `bound` bound into
    /// an intermediate of `card` tuples and no feedback correction.
    fn price(db: &Database, atom: &Atom, bound: &[&str], card: f64) -> (f64, StepOp, f64) {
        let bound = bound.iter().filter_map(|v| Term::var(v).as_var()).collect();
        price_step(atom, &TableStats::of(db, atom.pred), &bound, card, 1.0)
    }

    #[test]
    fn a_constant_scan_is_priced_by_its_posting_list() {
        let mut db = skewed_db();
        for i in 0..300 {
            db.insert(Atom::make("mid", [format!("v{i}").as_str()]));
        }
        // big(X, w1) reads w1's posting list, ~1000/10 rows, and keeps as
        // many: 0.5 · 100 + 100 = 150, against 0.5 · 300 + 300 = 450 for
        // scanning the 300-row mid/1. Priced by the whole table (0.5 ·
        // 1000 + 100) it would go second.
        let q = cq(&["X"], &[("mid", &["X"]), ("big", &["X", "w1"])]);
        let (est, op, work) = price(&db, &q.body[1], &[], 1.0);
        assert_eq!((est, op), (100.0, StepOp::Scan));
        assert_eq!(work, 0.5 * (1000.0 / 10.0) + est);
        assert_eq!(price(&db, &q.body[0], &[], 1.0).2, 0.5 * 300.0 + 300.0);
        let plan = plan_cq_cost(&db, &q);
        assert_eq!(plan.order, vec![1, 0], "{plan:?}");
        assert_eq!(plan.ops[0], StepOp::Scan, "{plan:?}");
        assert_eq!(
            execute_one(&db, &q),
            reference::execute_cq_reference(&db, &q)
        );
    }

    #[test]
    fn a_constant_cheapens_a_hash_build_to_its_posting_list() {
        let db = skewed_db();
        // After small(X), big(X, w1) is a hash join (a key plus a constant
        // has no posting column): its build side reads w1's ~100 rows, not
        // big's 1000.
        let atom = &cq(&["X"], &[("big", &["X", "w1"])]).body[0];
        let (est, op, work) = price(&db, atom, &["X"], 2.0);
        assert_eq!(op, StepOp::Hash);
        assert_eq!(work, 0.5 * (1000.0 / 10.0 + 2.0) + est);
        assert!(work < 0.5 * (1000.0 + 2.0) + est);
        // With no constant the same atom reads the whole table.
        let atom = &cq(&["X"], &[("big", &["X", "X"])]).body[0];
        let (est, op, work) = price(&db, atom, &["X"], 2.0);
        assert_eq!(op, StepOp::Hash);
        assert_eq!(work, 0.5 * (1000.0 + 2.0) + est);
    }

    #[test]
    fn connected_atoms_preferred_over_cartesian_products() {
        let mut db = skewed_db();
        for i in 0..5 {
            db.insert(Atom::new(
                Predicate::new("other", 1),
                vec![Term::constant(&format!("o{i}"))],
            ));
        }
        // After small(X), joining big(X,Y) (connected) must precede
        // other(Z) (Cartesian) even though other/1 is tiny.
        let q = cq(
            &["X", "Z"],
            &[("big", &["X", "Y"]), ("other", &["Z"]), ("small", &["X"])],
        );
        let plan = plan_cq_cost(&db, &q);
        assert_eq!(plan.order[0], 2, "{plan:?}");
        assert_eq!(plan.order[1], 0, "{plan:?}");
        assert_eq!(
            execute_one(&db, &q),
            reference::execute_cq_reference(&db, &q)
        );
    }

    /// Over a layered source, an intensional predicate's statistics come
    /// from the overlay: the base's large stray table of the same name is
    /// shadowed for planning exactly as it is for execution.
    #[test]
    fn layered_planning_reads_intensional_statistics_from_the_overlay() {
        let mut base = Database::new();
        for i in 0..1000 {
            base.insert(Atom::make("d", [format!("v{i}").as_str()]));
        }
        for i in 0..100 {
            base.insert(Atom::make(
                "e",
                [format!("v{i}").as_str(), format!("w{i}").as_str()],
            ));
        }
        let overlay = Database::from_facts([Atom::make("d", ["v1"]), Atom::make("d", ["v2"])]);
        let q = cq(&["X"], &[("e", &["X", "Y"]), ("d", &["X"])]);
        // Read off the base alone, the stray 1000-row d/1 goes last.
        assert_eq!(plan_cq_cost(&base, &q).order, vec![0, 1]);
        let (base_cache, overlay_cache) = (BuildCache::new(), BuildCache::new());
        let intensional = HashSet::from([Predicate::new("d", 1)]);
        let src = DataSource {
            base: &base,
            base_cache: &base_cache,
            overlay: &overlay,
            overlay_cache: &overlay_cache,
            intensional: &intensional,
        };
        let plan = plan_over(&src, &q, 1.0);
        assert_eq!(plan.order[0], 1, "the 2-row overlay d/1 first: {plan:?}");
        assert_eq!(plan.estimates[0], 2.0, "{plan:?}");
    }

    #[test]
    fn explain_mentions_every_atom() {
        let db = skewed_db();
        let q = cq(&["X"], &[("big", &["X", "Y"]), ("small", &["X"])]);
        let text = explain_cq(&db, &q, 1.0);
        assert!(text.contains("big("));
        assert!(text.contains("small("));
        assert!(text.contains("total estimated cost"));
    }

    #[test]
    fn planned_union_matches_naive_union() {
        let db = skewed_db();
        let u = UnionQuery::new(vec![
            cq(&["X"], &[("big", &["X", "Y"]), ("small", &["X"])]),
            cq(&["X"], &[("small", &["X"])]),
        ]);
        assert_eq!(
            execute_ucq(&db, &u),
            reference::execute_ucq_reference(&db, &u)
        );
    }

    #[test]
    fn empty_tables_plan_cheaply() {
        let db = Database::new();
        let q = cq(&["X"], &[("big", &["X", "Y"]), ("small", &["X"])]);
        let plan = plan_cq_cost(&db, &q);
        assert_eq!(plan.order.len(), 2);
        assert!(execute_one(&db, &q).is_empty());
    }
}
