//! Shaped execution: filters, ORDER BY / LIMIT, aggregates.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use nyaya_core::{ConjunctiveQuery, Predicate, SelectOptions, Symbol, Term, UnionQuery};

use crate::build_cache::BuildCache;
use crate::exec::{execute_ucq_intra, fan_out, run_planned, CacheTally, DataSource, ExecMetrics};
use crate::table::Database;

/// Head-to-column mapping for a single-atom disjunct whose atom arguments
/// are pairwise-distinct variables and whose head terms are all variables
/// of that atom. Such a disjunct's answers are a pure projection of the
/// table, which lets filters, ORDER BY / top-k, and aggregates run
/// directly off the sorted column indexes.
struct DirectAccess {
    pred: Predicate,
    /// `cols[i]` = the atom column that head position `i` projects.
    cols: Vec<usize>,
    /// The head is a permutation of all atom columns, so the answer count
    /// equals the row count (needed for COUNT pushdown).
    bijective: bool,
}

fn direct_access(q: &ConjunctiveQuery) -> Option<DirectAccess> {
    let [atom] = q.body.as_slice() else {
        return None;
    };
    let mut pos: HashMap<Symbol, usize> = HashMap::new();
    for (j, t) in atom.args.iter().enumerate() {
        if pos.insert(t.as_var()?, j).is_some() {
            return None;
        }
    }
    let cols = q
        .head
        .iter()
        .map(|t| t.as_var().and_then(|v| pos.get(&v).copied()))
        .collect::<Option<Vec<usize>>>()?;
    let distinct: HashSet<usize> = cols.iter().copied().collect();
    let bijective = cols.len() == atom.args.len() && distinct.len() == cols.len();
    Some(DirectAccess {
        pred: atom.pred,
        cols,
        bijective,
    })
}

/// Execute a union with [`SelectOptions`] result shaping — filters, ORDER
/// BY / LIMIT, aggregates — returning the ordered result rows.
///
/// Bit-identical to [`apply_select`](nyaya_core::select::apply_select) over the query's answer set (the
/// reference semantics), but routed through the sorted column indexes
/// whenever the query shape allows:
///
/// - **aggregate pushdown**: unfiltered global COUNT / MIN / MAX over a
///   projection disjunct read off the index in O(1);
/// - **top-k early exit**: `ORDER BY col LIMIT k` walks the sorted value
///   list from the right end and stops after `k` rows;
/// - **range index scan**: a `<`/`<=`/`>`/`>=` filter binary-searches the
///   sorted value list and touches only qualifying postings.
///
/// Anything else executes normally and applies the filters as a *planned*
/// row-by-row post-filter, reported in
/// [`ExecMetrics::filter_fallback_scans`] — the stat that closes the old
/// silent-fallback gap. Errors on column indices out of range for the
/// union's head; an empty union has no head to check against and answers
/// what `apply_select` returns on the empty set.
/// `threads`, `cache` and `correction` are as for [`execute_ucq_intra`].
pub fn execute_ucq_select(
    db: &Database,
    u: &UnionQuery,
    sel: &SelectOptions,
    threads: usize,
    cache: &BuildCache,
    correction: f64,
) -> Result<(Vec<Vec<Term>>, ExecMetrics), String> {
    use nyaya_core::select::{apply_select, sort_rows, AggFunc, FilterOp};
    use nyaya_core::term::canonical_cmp_rows;

    if let Some(q) = u.cqs.first() {
        sel.validate(q.head.len())?;
    }
    let start = Instant::now();
    if sel.is_plain() {
        let (set, mut metrics) = execute_ucq_intra(db, u, threads, 1, cache, correction);
        let mut rows: Vec<Vec<Term>> = set.into_iter().collect();
        rows.sort_by(|a, b| canonical_cmp_rows(a, b));
        metrics.elapsed = start.elapsed();
        return Ok((rows, metrics));
    }

    // Index fast paths: one disjunct reading one table as a projection.
    if let [q] = u.cqs.as_slice() {
        if let Some(da) = direct_access(q) {
            // Aggregate pushdown: global COUNT/MIN/MAX with no filters is
            // answered off the index without touching a row.
            if let Some(agg) = &sel.aggregate {
                if sel.filters.is_empty() && agg.group_by.is_empty() {
                    let pushed: Option<Vec<Vec<Term>>> = match agg.func {
                        AggFunc::Count if da.bijective => Some(vec![vec![Term::constant(
                            &db.table_len(da.pred).to_string(),
                        )]]),
                        AggFunc::Min(c) => Some(
                            db.table(da.pred)
                                .and_then(|t| {
                                    t.sorted_cells(da.cols[c])
                                        .first()
                                        .map(|&v| vec![t.term_of(v)])
                                })
                                .into_iter()
                                .collect(),
                        ),
                        AggFunc::Max(c) => Some(
                            db.table(da.pred)
                                .and_then(|t| {
                                    t.sorted_cells(da.cols[c])
                                        .last()
                                        .map(|&v| vec![t.term_of(v)])
                                })
                                .into_iter()
                                .collect(),
                        ),
                        _ => None,
                    };
                    if let Some(mut out) = pushed {
                        sort_rows(&mut out, &sel.order_by);
                        if let Some(k) = sel.limit {
                            out.truncate(k);
                        }
                        let metrics = ExecMetrics {
                            disjuncts: 1,
                            threads: 1,
                            rows: out.len(),
                            aggregate_pushdowns: 1,
                            elapsed: start.elapsed(),
                            ..ExecMetrics::default()
                        };
                        return Ok((out, metrics));
                    }
                }
            }
            // Top-k early exit: ORDER BY one column with a LIMIT walks the
            // sorted value list in key order and stops at k rows. Filters
            // (all on head columns) are checked per projected row, which
            // keeps the walk exact.
            if let (None, &[(_, _)], Some(k)) = (&sel.aggregate, sel.order_by.as_slice(), sel.limit)
            {
                let (oc, dir) = sel.order_by[0];
                let col = da.cols[oc];
                let mut out: Vec<Vec<Term>> = Vec::new();
                if let Some(table) = db.table(da.pred) {
                    let sorted = table.sorted_cells(col);
                    let values: Box<dyn Iterator<Item = &u32>> = match dir {
                        nyaya_core::select::SortDir::Asc => Box::new(sorted.iter()),
                        nyaya_core::select::SortDir::Desc => Box::new(sorted.iter().rev()),
                    };
                    for &v in values {
                        if out.len() >= k {
                            break;
                        }
                        // Rows within one key value tie-break by whole-row
                        // canonical order — the reference semantics'
                        // tiebreak.
                        let mut group: Vec<Vec<Term>> = table
                            .posting_cells(col, v)
                            .iter()
                            .map(|&id| {
                                da.cols
                                    .iter()
                                    .map(|&c| table.term_at(id, c))
                                    .collect::<Vec<_>>()
                            })
                            .filter(|r| sel.filters.iter().all(|f| f.accepts(r)))
                            .collect();
                        group.sort_by(|a, b| canonical_cmp_rows(a, b));
                        group.dedup();
                        out.extend(group);
                    }
                }
                out.truncate(k);
                let metrics = ExecMetrics {
                    disjuncts: 1,
                    threads: 1,
                    rows: out.len(),
                    topk_early_exits: 1,
                    elapsed: start.elapsed(),
                    ..ExecMetrics::default()
                };
                return Ok((out, metrics));
            }
            // Range index scan: drive the first range filter through a
            // binary search on the sorted value list; only qualifying
            // postings are touched. Remaining filters are checked per row;
            // ordering/limit/aggregation finish on the filtered set.
            if let Some(f) = sel.filters.iter().find(|f| f.op != FilterOp::Ne) {
                let col = da.cols[f.column];
                let mut set: BTreeSet<Vec<Term>> = BTreeSet::new();
                if let Some(table) = db.table(da.pred) {
                    let sorted = table.sorted_cells(col);
                    let against = |cell: &u32| table.term_of(*cell).canonical_cmp(&f.value);
                    let lo = match f.op {
                        FilterOp::Gt => {
                            sorted.partition_point(|x| against(x) != std::cmp::Ordering::Greater)
                        }
                        FilterOp::Ge => {
                            sorted.partition_point(|x| against(x) == std::cmp::Ordering::Less)
                        }
                        _ => 0,
                    };
                    let hi = match f.op {
                        FilterOp::Lt => {
                            sorted.partition_point(|x| against(x) == std::cmp::Ordering::Less)
                        }
                        FilterOp::Le => {
                            sorted.partition_point(|x| against(x) != std::cmp::Ordering::Greater)
                        }
                        _ => sorted.len(),
                    };
                    for &v in &sorted[lo..hi] {
                        for &id in table.posting_cells(col, v) {
                            let projected: Vec<Term> =
                                da.cols.iter().map(|&c| table.term_at(id, c)).collect();
                            if sel.filters.iter().all(|f| f.accepts(&projected)) {
                                set.insert(projected);
                            }
                        }
                    }
                }
                let rest = SelectOptions {
                    filters: Vec::new(),
                    ..sel.clone()
                };
                let out = apply_select(set, &rest);
                let metrics = ExecMetrics {
                    disjuncts: 1,
                    threads: 1,
                    rows: out.len(),
                    range_index_scans: 1,
                    elapsed: start.elapsed(),
                    ..ExecMetrics::default()
                };
                return Ok((out, metrics));
            }
        }
    }

    // General path: execute each disjunct with the cost planner, applying
    // filters per disjunct — statically when the head term at the filtered
    // column is ground (the whole disjunct is pruned without executing),
    // row-by-row otherwise. The row-by-row case is a *planned* post-filter
    // and is counted in `filter_fallback_scans`.
    let tally = CacheTally::default();
    let src = DataSource::Single { db, cache };
    let fallback_scans = AtomicU64::new(0);
    let run_cq = |q: &ConjunctiveQuery| -> BTreeSet<Vec<Term>> {
        let mut dynamic: Vec<&nyaya_core::select::ColumnFilter> = Vec::new();
        for f in &sel.filters {
            let head_term = &q.head[f.column];
            if head_term.is_ground() {
                if !f.op.accepts(head_term.canonical_cmp(&f.value)) {
                    // Statically refuted: this disjunct cannot contribute.
                    return BTreeSet::new();
                }
            } else {
                dynamic.push(f);
            }
        }
        if !dynamic.is_empty() {
            fallback_scans.fetch_add(1, Ordering::Relaxed);
        }
        let answers = run_planned(&src, q, correction, &tally, 1);
        if dynamic.is_empty() {
            answers
        } else {
            answers
                .into_iter()
                .filter(|r| dynamic.iter().all(|f| f.accepts(r)))
                .collect()
        }
    };
    let (set, threads_used) = fan_out(&u.cqs, threads, |set: &mut BTreeSet<Vec<Term>>, chunk| {
        for q in chunk {
            set.extend(run_cq(q));
        }
    });
    let rest = SelectOptions {
        filters: Vec::new(),
        ..sel.clone()
    };
    let out = apply_select(set, &rest);
    let metrics = ExecMetrics {
        disjuncts: u.cqs.len(),
        threads: threads_used,
        rows: out.len(),
        filter_fallback_scans: fallback_scans.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
        ..tally.exec_metrics()
    };
    Ok((out, metrics))
}
