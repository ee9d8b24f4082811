//! The one join step: classify an atom against the variables bound so
//! far ([`AtomShape`]), compile it into a probe over a table
//! ([`Step`]), and join intermediate tuples to rows ([`Step::probe`]).
//!
//! Every driver runs this kernel and differs only in *when* it compiles,
//! *what* it feeds in and *when* it asks for the posting index: the (U)CQ
//! executor (`exec::execute_cq_ordered`, which program evaluation and a
//! view's seed also reach) compiles lazily, step by step, in the
//! planner's order, probes in morsels, and probes postings where the plan
//! says `merge`; view maintenance
//! ([`crate::ivm`]) compiles a delta rule's steps once per pass, probes
//! once per changed tuple, and probes postings wherever the shape has a
//! [`posting_col`](AtomShape::posting_col). Both read a scan filtered by
//! one constant alone off that constant's posting list
//! ([`posting_const`](AtomShape::posting_const)). Intermediate tuples are
//! `Vec<Term>` valuations; cells are decoded to terms here, where a row
//! extends a tuple, and nowhere else.

use std::collections::HashMap;
use std::sync::Arc;

use nyaya_core::{Atom, Symbol, Term};

use crate::build_cache::{Build, BuildCache, PatternKey};
use crate::table::{cell_of, Database, Table};

/// One atom's arguments classified against a set of bound variables:
/// every column is a join key, a constant filter, an in-atom repeat or a
/// fresh variable. With nothing bound the same classification is a
/// ground tuple's filter ([`admits`](Self::admits)) and binding
/// ([`fresh`](Self::fresh)) — what a delta atom and a goal atom need.
pub(crate) struct AtomShape {
    /// Columns holding a bound variable, ascending.
    key_cols: Vec<usize>,
    /// The valuation index feeding each key column (parallel to
    /// `key_cols`).
    probe_indices: Vec<usize>,
    /// Constant filters `row[col] == term`, ascending by column.
    consts: Vec<(usize, Term)>,
    /// In-atom equalities `row[col] == row[earlier fresh col]`.
    repeats: Vec<(usize, usize)>,
    /// Columns holding the first occurrence of an unbound variable,
    /// ascending — the order in which a matching row extends a tuple.
    fresh_cols: Vec<usize>,
}

impl AtomShape {
    /// Classify `atom`; `bound` maps a variable to its valuation index
    /// when the prefix binds it.
    pub(crate) fn of(atom: &Atom, bound: impl Fn(Symbol) -> Option<usize>) -> AtomShape {
        let mut shape = AtomShape {
            key_cols: Vec::new(),
            probe_indices: Vec::new(),
            consts: Vec::new(),
            repeats: Vec::new(),
            fresh_cols: Vec::new(),
        };
        for (col, t) in atom.args.iter().enumerate() {
            let Term::Var(v) = t else {
                shape.consts.push((col, t.clone()));
                continue;
            };
            if let Some(idx) = bound(*v) {
                shape.key_cols.push(col);
                shape.probe_indices.push(idx);
            } else if let Some(&first) = shape.fresh_cols.iter().find(|&&c| atom.args[c] == *t) {
                shape.repeats.push((col, first));
            } else {
                shape.fresh_cols.push(col);
            }
        }
        shape
    }

    /// Register the atom's fresh variables in first-position order — the
    /// order [`Step::probe`] appends their values in.
    pub(crate) fn bind_fresh(&self, atom: &Atom, var_index: &mut HashMap<Symbol, usize>) {
        for v in self
            .fresh_cols
            .iter()
            .filter_map(|&col| atom.args[col].as_var())
        {
            var_index.insert(v, var_index.len());
        }
    }

    /// The one key column whose posting lists are exactly the joining
    /// rows: a single bound variable, no constants, no repeats.
    pub(crate) fn posting_col(&self) -> Option<usize> {
        match self.key_cols.as_slice() {
            [col] if self.consts.is_empty() && self.repeats.is_empty() => Some(*col),
            _ => None,
        }
    }

    /// The one constant filter of a scan whose posting list is exactly
    /// the matching rows: no key column, one constant, no repeats.
    pub(crate) fn posting_const(&self) -> Option<(usize, &Term)> {
        match self.consts.as_slice() {
            [(col, term)] if self.key_cols.is_empty() && self.repeats.is_empty() => {
                Some((*col, term))
            }
            _ => None,
        }
    }

    /// Does a ground tuple of the atom's relation satisfy the constant
    /// and repeat filters?
    pub(crate) fn admits(&self, tuple: &[Term]) -> bool {
        self.consts.iter().all(|(col, t)| &tuple[*col] == t)
            && self.repeats.iter().all(|(col, k)| tuple[*col] == tuple[*k])
    }

    /// The fresh columns of a ground tuple, in binding order.
    pub(crate) fn fresh(&self, tuple: &[Term]) -> Vec<Term> {
        self.fresh_cols.iter().map(|&c| tuple[c].clone()).collect()
    }
}

/// How a [`Step`] finds the rows joining one probe key.
enum Access<'a> {
    /// The key column's posting index, which every table maintains (the
    /// planner's `merge` operator): nothing is built or cached.
    /// [`Step::compile`] only makes one for a shape with a
    /// [`posting_col`](AtomShape::posting_col).
    Posting { key_col: usize },
    /// The rows of one constant's posting list: a scan with exactly one
    /// constant filter, no key column and no repeat reads that list as it
    /// stands, so nothing is built, locked or cached per constant.
    Rows(&'a [u32]),
    /// A hashed build side from a [`BuildCache`]: the atom's rows,
    /// filtered by its constants and repeats, grouped by the key columns.
    Build(Arc<Build>),
}

/// One compiled join step: a table, how to look a probe key up in it,
/// and which columns of a matching row extend the tuple.
pub(crate) struct Step<'a> {
    /// `None` when the predicate has no facts: the step joins nothing.
    table: Option<&'a Table>,
    probe_indices: Vec<usize>,
    fresh_cols: Vec<usize>,
    access: Access<'a>,
}

impl<'a> Step<'a> {
    /// Compile `atom`'s step over `db`. With `posting` set, a shape whose
    /// key column's postings are exactly the joining rows
    /// ([`AtomShape::posting_col`]) probes that index; a scan filtered by
    /// one constant alone reads that constant's posting list; every other
    /// step fetches its build side from `cache`, or constructs it into it
    /// (retained only when its pattern names no constant,
    /// [`BuildCache::get_or_build`]). The second value says whether the
    /// cache served it (`None`: nothing was fetched).
    pub(crate) fn compile(
        db: &'a Database,
        cache: &BuildCache,
        atom: &Atom,
        shape: AtomShape,
        posting: bool,
    ) -> (Step<'a>, Option<bool>) {
        let table = db.table(atom.pred);
        let (access, was_hit) = if let Some(key_col) = shape.posting_col().filter(|_| posting) {
            (Access::Posting { key_col }, None)
        } else if let Some((col, term)) = shape.posting_const() {
            // A non-constant filter matches nothing: no row holds one.
            let rows = match (table, cell_of(term)) {
                (Some(table), Some(cell)) => table.posting_cells(col, cell),
                _ => &[],
            };
            (Access::Rows(rows), None)
        } else {
            let pattern = PatternKey::make(atom.pred, shape.key_cols, shape.consts, shape.repeats);
            let (build, was_hit) = cache.get_or_build(db, &pattern);
            (Access::Build(build), Some(was_hit))
        };
        let step = Step {
            table,
            probe_indices: shape.probe_indices,
            fresh_cols: shape.fresh_cols,
            access,
        };
        (step, was_hit)
    }

    /// Does the step join nothing whatever is probed (no table)?
    pub(crate) fn is_empty(&self) -> bool {
        self.table.is_none()
    }

    /// Join every tuple of `batch` to its matching rows, appending one
    /// extended tuple per match to `out`, in probe order.
    #[inline]
    pub(crate) fn probe(&self, batch: &[Vec<Term>], out: &mut Vec<Vec<Term>>) {
        let Some(table) = self.table else {
            return;
        };
        match &self.access {
            Access::Posting { key_col } => self.extend(table, batch, out, |key| {
                table.posting_cells(*key_col, key[0])
            }),
            Access::Rows(rows) => self.extend(table, batch, out, |_| rows),
            Access::Build(build) => self.extend(table, batch, out, |key| build.group_cells(key)),
        }
    }

    /// The probe loop, monomorphised per access path: encode the tuple's
    /// key values as cells, look the key up, decode the fresh columns of
    /// every matching row.
    #[inline(always)]
    fn extend<'r>(
        &self,
        table: &Table,
        batch: &[Vec<Term>],
        out: &mut Vec<Vec<Term>>,
        rows_of: impl Fn(&[u32]) -> &'r [u32],
    ) {
        let mut key: Vec<u32> = Vec::with_capacity(self.probe_indices.len());
        'tuples: for tuple in batch {
            key.clear();
            for &idx in &self.probe_indices {
                match cell_of(&tuple[idx]) {
                    Some(c) => key.push(c),
                    // A non-constant probe value joins with nothing: no
                    // row holds one.
                    None => continue 'tuples,
                }
            }
            for &id in rows_of(&key) {
                let mut extended = tuple.clone();
                for &col in &self.fresh_cols {
                    extended.push(table.term_at(id, col));
                }
                out.push(extended);
            }
        }
    }
}

/// A head's projection out of a complete valuation: variables through
/// the variable index they were compiled against, every other term as
/// itself.
pub(crate) struct Projection(
    /// Per head term: `Ok` the valuation index of a variable, `Err` the
    /// term to emit as it stands.
    Vec<Result<usize, Term>>,
);

impl Projection {
    /// Panics on a head variable the body never binds (an unsafe rule).
    pub(crate) fn new(head: &[Term], var_index: &HashMap<Symbol, usize>) -> Projection {
        Projection(
            head.iter()
                .map(|t| match t {
                    Term::Var(v) => Ok(var_index[v]),
                    other => Err(other.clone()),
                })
                .collect(),
        )
    }

    #[inline]
    pub(crate) fn of(&self, valuation: &[Term]) -> Vec<Term> {
        self.0
            .iter()
            .map(|slot| match slot {
                Ok(i) => valuation[*i].clone(),
                Err(t) => t.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::cq;
    use nyaya_core::Predicate;

    /// The first body atom of a one-atom query (upper-case arguments are
    /// variables).
    fn atom(pred: &str, args: &[&str]) -> Atom {
        cq(&[], &[(pred, args)]).body.remove(0)
    }

    /// Classify with `bound[i]` bound at valuation index `i`.
    fn shape(atom: &Atom, bound: &[&str]) -> AtomShape {
        AtomShape::of(atom, |v| {
            bound
                .iter()
                .position(|name| Term::var(name) == Term::Var(v))
        })
    }

    #[test]
    fn a_shape_sorts_every_column_into_one_role() {
        // Bound twice, a constant, a repeat of a fresh variable, and two
        // fresh variables whose first positions are not in name order.
        let a = atom("r", &["Y", "k", "X", "N", "N", "A", "X"]);
        let s = shape(&a, &["X", "Y"]);
        assert_eq!(s.key_cols, [0, 2, 6]);
        assert_eq!(s.probe_indices, [1, 0, 0]);
        assert_eq!(s.consts, [(1, Term::constant("k"))]);
        assert_eq!(s.repeats, [(4, 3)]);
        assert_eq!(s.fresh_cols, [3, 5]);
        assert_eq!(s.posting_col(), None, "three key columns");

        // Fresh variables are numbered by first position, after the
        // variables already bound.
        let var = |name: &str| Term::var(name).as_var().unwrap();
        let mut var_index: HashMap<Symbol, usize> = HashMap::from([(var("X"), 0), (var("Y"), 1)]);
        s.bind_fresh(&a, &mut var_index);
        let index_of = |name: &str| var_index[&var(name)];
        assert_eq!((index_of("N"), index_of("A")), (2, 3));
        assert_eq!(var_index.len(), 4);

        // Zero key columns: a Cartesian step, or — read as a filter and a
        // binding of ground tuples — a delta atom or a goal atom.
        let a = atom("s", &["B", "A", "B", "c"]);
        let s = shape(&a, &[]);
        assert!(s.key_cols.is_empty() && s.probe_indices.is_empty());
        assert_eq!(s.repeats, [(2, 0)]);
        assert_eq!(s.fresh_cols, [0, 1]);
        assert_eq!(s.posting_col(), None);
        let t = |names: [&str; 4]| names.map(Term::constant).to_vec();
        assert!(s.admits(&t(["x", "y", "x", "c"])));
        assert!(!s.admits(&t(["x", "y", "z", "c"])), "repeat");
        assert!(!s.admits(&t(["x", "y", "x", "d"])), "constant");
        assert_eq!(
            s.fresh(&t(["x", "y", "x", "c"])),
            t(["x", "y", "x", "c"])[..2]
        );

        // The posting index answers exactly: one key, nothing to filter.
        let eligible = |args: &[&str], bound: &[&str]| shape(&atom("e", args), bound).posting_col();
        assert_eq!(eligible(&["A", "X"], &["X"]), Some(1));
        assert_eq!(eligible(&["X", "A", "B"], &["X"]), Some(0));
        assert_eq!(eligible(&["X", "Y"], &["X", "Y"]), None, "two key columns");
        assert_eq!(eligible(&["X", "k"], &["X"]), None, "a constant");
        assert_eq!(eligible(&["X", "A", "A"], &["X"]), None, "a repeat");
        assert_eq!(eligible(&["X", "X"], &["X"]), None, "the key twice");

        // One posting list answers a scan filtered by one constant alone.
        let scanned = |args: &[&str], bound: &[&str]| {
            let s = shape(&atom("e", args), bound);
            s.posting_const().map(|(col, t)| (col, t.clone()))
        };
        assert_eq!(scanned(&["X", "k"], &[]), Some((1, Term::constant("k"))));
        assert_eq!(scanned(&["X", "k"], &["X"]), None, "a key column");
        assert_eq!(scanned(&["j", "k"], &[]), None, "two constants");
        assert_eq!(scanned(&["X", "k", "X"], &[]), None, "a repeat");
        assert_eq!(scanned(&["X", "Y"], &[]), None, "no constant");
    }

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

    /// Nine constants.
    fn value(k: usize) -> Term {
        Term::constant(&format!("v{k}"))
    }

    fn random_fact(rng: &mut Rng) -> Atom {
        let arity = 1 + rng.below(3);
        let args = (0..arity).map(|_| value(rng.below(9))).collect();
        Atom::new(Predicate::new(&format!("p{arity}"), arity), args)
    }

    #[test]
    fn posting_and_build_access_join_the_same_rows() {
        let mut joined = 0usize;
        for seed in 1..=40u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let base = Database::from_facts((0..60).map(|_| random_fact(&mut rng)));
            // The same tables after writes: appended rows, dead rows (of
            // the base and of the delta), cells whose last row died.
            let mut written = base.clone();
            for fact in base
                .facts()
                .filter(|_| rng.below(3) == 0)
                .collect::<Vec<_>>()
            {
                assert!(written.remove(&fact));
            }
            for _ in 0..20 {
                let fact = random_fact(&mut rng);
                if rng.below(4) == 0 {
                    written.remove(&fact);
                } else {
                    written.insert(fact);
                }
            }
            for (db, state) in [(&base, "base only"), (&written, "base + delta")] {
                let cache = BuildCache::new();
                // `p4` has no table: both paths must join nothing.
                for arity in 1..=4 {
                    for key_col in 0..arity {
                        let names: Vec<String> = (0..arity)
                            .map(|j| {
                                if j == key_col {
                                    "K".into()
                                } else {
                                    format!("F{j}")
                                }
                            })
                            .collect();
                        let names: Vec<&str> = names.iter().map(String::as_str).collect();
                        let a = atom(&format!("p{arity}"), &names);
                        // `K` is bound at valuation index 1, behind a pad.
                        let compile = |posting: bool| {
                            let s = AtomShape::of(&a, |v| {
                                (Term::Var(v) == Term::var("K")).then_some(1)
                            });
                            assert_eq!(s.posting_col(), Some(key_col));
                            Step::compile(db, &cache, &a, s, posting)
                        };
                        let ((posting, no_fetch), (build, fetch)) = (compile(true), compile(false));
                        assert!(no_fetch.is_none() && fetch.is_some(), "two access paths");
                        assert_eq!(posting.is_empty(), arity == 4);
                        // Every stored value, a constant the table never
                        // stored, and a labelled null, which no row holds.
                        let probes = (0..9)
                            .map(value)
                            .chain([Term::constant("never"), Term::Null(999)]);
                        for probe in probes {
                            let tuple = vec![Term::constant("pad"), probe.clone()];
                            let run = |step: &Step<'_>| {
                                let mut out = Vec::new();
                                step.probe(std::slice::from_ref(&tuple), &mut out);
                                out.sort();
                                out
                            };
                            let mut expected: Vec<Vec<Term>> = db
                                .rows_vec(a.pred)
                                .into_iter()
                                .filter(|row| row[key_col] == probe)
                                .map(|mut row| {
                                    row.remove(key_col);
                                    [tuple.clone(), row].concat()
                                })
                                .collect();
                            expected.sort();
                            let context = format!("seed {seed}, {state}, {a}, probe {probe}");
                            assert_eq!(run(&posting), expected, "posting: {context}");
                            assert_eq!(run(&build), expected, "build: {context}");
                            joined += expected.len();
                        }
                    }
                }
            }
        }
        assert!(joined > 5_000, "the fixture must join something: {joined}");
    }

    #[test]
    fn a_one_constant_scan_reads_its_posting_list_and_builds_nothing() {
        let mut read = 0usize;
        for seed in 1..=40u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut db = Database::from_facts((0..60).map(|_| random_fact(&mut rng)));
            for _ in 0..20 {
                let fact = random_fact(&mut rng);
                if rng.below(3) == 0 {
                    db.remove(&fact);
                } else {
                    db.insert(fact);
                }
            }
            let cache = BuildCache::new();
            for arity in 1..=4 {
                for const_col in 0..arity {
                    let filters = (0..9)
                        .map(value)
                        .chain([Term::constant("never"), Term::Null(999)]);
                    for filter in filters {
                        let vars: Vec<String> = (0..arity).map(|j| format!("F{j}")).collect();
                        let mut args: Vec<Term> = vars.iter().map(|v| Term::var(v)).collect();
                        args[const_col] = filter.clone();
                        let a = Atom::new(Predicate::new(&format!("p{arity}"), arity), args);
                        let (step, fetched) =
                            Step::compile(&db, &cache, &a, AtomShape::of(&a, |_| None), false);
                        assert!(fetched.is_none(), "{a}: no build side fetched");
                        let mut out = Vec::new();
                        step.probe(&[Vec::new()], &mut out);
                        out.sort();
                        let mut expected: Vec<Vec<Term>> = db
                            .rows_vec(a.pred)
                            .into_iter()
                            .filter(|row| row[const_col] == filter)
                            .map(|mut row| {
                                row.remove(const_col);
                                row
                            })
                            .collect();
                        expected.sort();
                        assert_eq!(out, expected, "seed {seed}, {a}");
                        read += expected.len();
                    }
                }
            }
            assert!(cache.is_empty(), "seed {seed}");
        }
        assert!(read > 2_000, "the fixture must read something: {read}");
    }
}
