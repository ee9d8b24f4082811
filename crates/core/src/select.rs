//! Query modifiers: comparison filters, ORDER BY / LIMIT, and aggregates.
//!
//! A [`SelectOptions`] decorates a (union of) conjunctive quer(y/ies) with
//! SQL-style result shaping. Every position in it refers to a **head column
//! index** of the query, which makes the modifiers sound under rewriting:
//! rewriting renames body variables and multiplies disjuncts but never
//! changes head positions, so the same decoration applies unchanged to the
//! rewritten union.
//!
//! [`apply_select`] is the *semantics* and the one implementation: a pure,
//! index-free function from an answer set to the shaped result. The
//! knowledge base's `execute_select` runs the query unshaped and hands the
//! answer set to it; `tests/planner_differential.rs` checks that path
//! against the reference engine over 300 seeded runs.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use crate::term::{canonical_cmp_rows, Term};

/// A comparison operator for a column filter. Equality is deliberately
/// absent: equality selections are expressed as constants in the query body
/// and answered by the hash indexes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FilterOp {
    /// Strictly less than, under canonical term order.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
    /// Not equal.
    Ne,
}

impl FilterOp {
    /// Does a comparison outcome (`row_value.canonical_cmp(&filter_value)`)
    /// satisfy this operator?
    #[inline]
    pub fn accepts(self, ord: Ordering) -> bool {
        match self {
            FilterOp::Lt => ord == Ordering::Less,
            FilterOp::Le => ord != Ordering::Greater,
            FilterOp::Gt => ord == Ordering::Greater,
            FilterOp::Ge => ord != Ordering::Less,
            FilterOp::Ne => ord != Ordering::Equal,
        }
    }
}

/// A comparison filter on one head column: `column <op> value`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnFilter {
    /// Zero-based head column index.
    pub column: usize,
    /// Comparison operator.
    pub op: FilterOp,
    /// Ground comparison value.
    pub value: Term,
}

impl ColumnFilter {
    /// Does `row` satisfy this filter?
    #[inline]
    pub fn accepts(&self, row: &[Term]) -> bool {
        self.op.accepts(row[self.column].canonical_cmp(&self.value))
    }
}

/// Sort direction for an ORDER BY key.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SortDir {
    /// Ascending (canonical order).
    Asc,
    /// Descending.
    Desc,
}

/// An aggregate function over the (distinct) answer rows.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AggFunc {
    /// Number of distinct answer rows (per group).
    Count,
    /// Minimum value of the given head column (per group).
    Min(usize),
    /// Maximum value of the given head column (per group).
    Max(usize),
}

/// An aggregate with optional grouping. Output rows are the group-by key
/// columns followed by one aggregate value column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Aggregate {
    /// Head columns to group by (empty = one global group).
    pub group_by: Vec<usize>,
    /// The aggregate computed per group.
    pub func: AggFunc,
}

/// Result-shaping options applied on top of a query's answer set, in this
/// order: filters, then aggregation, then ORDER BY, then LIMIT. ORDER BY
/// column indices refer to the **output** rows (post-aggregation columns
/// when an aggregate is present).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SelectOptions {
    /// Conjunction of comparison filters on head columns.
    pub filters: Vec<ColumnFilter>,
    /// ORDER BY keys over output columns, applied left to right.
    pub order_by: Vec<(usize, SortDir)>,
    /// Keep at most this many output rows (after ordering).
    pub limit: Option<usize>,
    /// Optional aggregation replacing the raw answer rows.
    pub aggregate: Option<Aggregate>,
}

impl SelectOptions {
    /// True when no modifier is set: the query's raw answer set is the
    /// result.
    pub fn is_plain(&self) -> bool {
        self.filters.is_empty()
            && self.order_by.is_empty()
            && self.limit.is_none()
            && self.aggregate.is_none()
    }

    /// Number of columns in the shaped output, given the query head arity.
    pub fn output_arity(&self, head_arity: usize) -> usize {
        match &self.aggregate {
            Some(agg) => agg.group_by.len() + 1,
            None => head_arity,
        }
    }

    /// Check every column index against the query head arity (and ORDER BY
    /// indices against the output arity). Returns a human-readable
    /// description of the first violation.
    pub fn validate(&self, head_arity: usize) -> Result<(), String> {
        for f in &self.filters {
            if f.column >= head_arity {
                return Err(format!(
                    "filter column {} out of range for head arity {head_arity}",
                    f.column + 1
                ));
            }
            if !f.value.is_ground() {
                return Err(format!("filter value {} is not ground", f.value));
            }
        }
        if let Some(agg) = &self.aggregate {
            for &c in &agg.group_by {
                if c >= head_arity {
                    return Err(format!(
                        "group-by column {} out of range for head arity {head_arity}",
                        c + 1
                    ));
                }
            }
            match agg.func {
                AggFunc::Min(c) | AggFunc::Max(c) if c >= head_arity => {
                    return Err(format!(
                        "aggregate column {} out of range for head arity {head_arity}",
                        c + 1
                    ));
                }
                _ => {}
            }
        }
        let out = self.output_arity(head_arity);
        for &(c, _) in &self.order_by {
            if c >= out {
                return Err(format!(
                    "order-by column {} out of range for output arity {out}",
                    c + 1
                ));
            }
        }
        Ok(())
    }
}

/// Sort `rows` by the ORDER BY keys (canonical term order per key), breaking
/// ties by whole-row canonical order so the result is deterministic across
/// processes.
pub(crate) fn sort_rows(rows: &mut [Vec<Term>], order_by: &[(usize, SortDir)]) {
    rows.sort_by(|a, b| {
        for &(col, dir) in order_by {
            let ord = a[col].canonical_cmp(&b[col]);
            let ord = match dir {
                SortDir::Asc => ord,
                SortDir::Desc => ord.reverse(),
            };
            if ord.is_ne() {
                return ord;
            }
        }
        canonical_cmp_rows(a, b)
    });
}

/// Reference semantics for [`SelectOptions`]: shape a distinct answer set
/// into the final ordered result. `rows` must not contain duplicates (answer
/// sets never do). Without ORDER BY the output is still sorted canonically,
/// so two engines producing the same answer *set* produce the same output
/// *sequence*.
pub fn apply_select<I>(rows: I, sel: &SelectOptions) -> Vec<Vec<Term>>
where
    I: IntoIterator<Item = Vec<Term>>,
{
    let filtered = rows
        .into_iter()
        .filter(|r| sel.filters.iter().all(|f| f.accepts(r)));
    let mut out: Vec<Vec<Term>> = match &sel.aggregate {
        None => filtered.collect(),
        Some(agg) => {
            // BTreeMap on the raw (derived-Ord) key is fine here: grouping
            // only needs key *equality*; the output order comes from the
            // canonical sort below.
            let mut groups: BTreeMap<Vec<Term>, (u64, Option<Term>)> = BTreeMap::new();
            let mut saw_rows = false;
            for row in filtered {
                saw_rows = true;
                let key: Vec<Term> = agg.group_by.iter().map(|&c| row[c].clone()).collect();
                let entry = groups.entry(key).or_insert((0, None));
                entry.0 += 1;
                match agg.func {
                    AggFunc::Count => {}
                    AggFunc::Min(c) => {
                        let v = &row[c];
                        if entry
                            .1
                            .as_ref()
                            .is_none_or(|cur| v.canonical_cmp(cur) == Ordering::Less)
                        {
                            entry.1 = Some(v.clone());
                        }
                    }
                    AggFunc::Max(c) => {
                        let v = &row[c];
                        if entry
                            .1
                            .as_ref()
                            .is_none_or(|cur| v.canonical_cmp(cur) == Ordering::Greater)
                        {
                            entry.1 = Some(v.clone());
                        }
                    }
                }
            }
            // COUNT over an empty, ungrouped input is 0, matching SQL;
            // MIN/MAX over no rows produce no rows.
            if !saw_rows && agg.group_by.is_empty() && agg.func == AggFunc::Count {
                groups.insert(Vec::new(), (0, None));
            }
            groups
                .into_iter()
                .map(|(mut key, (count, extreme))| {
                    let value = match agg.func {
                        AggFunc::Count => Term::constant(&count.to_string()),
                        AggFunc::Min(_) | AggFunc::Max(_) => {
                            extreme.expect("non-empty group has an extreme")
                        }
                    };
                    key.push(value);
                    key
                })
                .collect()
        }
    };
    sort_rows(&mut out, &sel.order_by);
    if let Some(k) = sel.limit {
        out.truncate(k);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: &[&str]) -> Vec<Term> {
        vals.iter().map(|v| Term::constant(v)).collect()
    }

    fn sel() -> SelectOptions {
        SelectOptions::default()
    }

    #[test]
    fn plain_select_sorts_canonically() {
        let rows = vec![row(&["b"]), row(&["a"]), row(&["10"]), row(&["9"])];
        let out = apply_select(rows, &sel());
        assert_eq!(
            out,
            vec![row(&["9"]), row(&["10"]), row(&["a"]), row(&["b"])]
        );
    }

    #[test]
    fn filters_are_conjunctive() {
        let rows = vec![row(&["1"]), row(&["2"]), row(&["3"]), row(&["4"])];
        let s = SelectOptions {
            filters: vec![
                ColumnFilter {
                    column: 0,
                    op: FilterOp::Gt,
                    value: Term::constant("1"),
                },
                ColumnFilter {
                    column: 0,
                    op: FilterOp::Ne,
                    value: Term::constant("3"),
                },
            ],
            ..sel()
        };
        assert_eq!(apply_select(rows, &s), vec![row(&["2"]), row(&["4"])]);
    }

    #[test]
    fn order_by_desc_with_limit() {
        let rows = vec![row(&["1", "x"]), row(&["3", "y"]), row(&["2", "z"])];
        let s = SelectOptions {
            order_by: vec![(0, SortDir::Desc)],
            limit: Some(2),
            ..sel()
        };
        assert_eq!(
            apply_select(rows, &s),
            vec![row(&["3", "y"]), row(&["2", "z"])]
        );
    }

    #[test]
    fn grouped_count_and_global_extremes() {
        let rows = vec![
            row(&["a", "1"]),
            row(&["a", "5"]),
            row(&["b", "3"]),
            row(&["b", "4"]),
        ];
        let s = SelectOptions {
            aggregate: Some(Aggregate {
                group_by: vec![0],
                func: AggFunc::Count,
            }),
            ..sel()
        };
        assert_eq!(
            apply_select(rows.clone(), &s),
            vec![row(&["a", "2"]), row(&["b", "2"])]
        );
        let s = SelectOptions {
            aggregate: Some(Aggregate {
                group_by: vec![],
                func: AggFunc::Max(1),
            }),
            ..sel()
        };
        assert_eq!(apply_select(rows, &s), vec![row(&["5"])]);
    }

    #[test]
    fn global_count_of_nothing_is_zero() {
        let s = SelectOptions {
            aggregate: Some(Aggregate {
                group_by: vec![],
                func: AggFunc::Count,
            }),
            ..sel()
        };
        assert_eq!(apply_select(Vec::<Vec<Term>>::new(), &s), vec![row(&["0"])]);
        // But MIN over nothing yields no rows.
        let s = SelectOptions {
            aggregate: Some(Aggregate {
                group_by: vec![],
                func: AggFunc::Min(0),
            }),
            ..sel()
        };
        assert!(apply_select(Vec::<Vec<Term>>::new(), &s).is_empty());
    }

    #[test]
    fn validate_rejects_out_of_range_columns() {
        let s = SelectOptions {
            filters: vec![ColumnFilter {
                column: 2,
                op: FilterOp::Lt,
                value: Term::constant("x"),
            }],
            ..sel()
        };
        assert!(s.validate(2).is_err());
        let s = SelectOptions {
            aggregate: Some(Aggregate {
                group_by: vec![0],
                func: AggFunc::Count,
            }),
            // Output arity is 2 (one key + count), so ordering by column 1 is
            // fine and column 2 is not.
            order_by: vec![(2, SortDir::Asc)],
            ..sel()
        };
        assert!(s.validate(3).is_err());
    }
}
