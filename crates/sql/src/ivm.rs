//! Incremental view maintenance: support-counted materialization and
//! counting delta joins for nonrecursive Datalog programs.
//!
//! A [`MaterializedView`] holds, for every intensional predicate of a
//! delta program, a map from tuple to *support* — the number of (rule,
//! valuation) derivations producing it — plus an indexed [`Database`] of
//! the tuples whose support is positive (the set-level view higher strata
//! join against). [`MaterializedView::propagate`] consumes an update's
//! signed base-fact deltas and runs the program's delta rules level by
//! level:
//!
//! - each delta rule joins its delta atom's changed tuples with the
//!   *new* state to its left and the *old* state to its right
//!   (seminaive), counting every valuation with the delta tuple's sign;
//! - summed signed derivations adjust per-tuple support; support
//!   transitions (0 → positive, positive → 0) become the set-level ±1
//!   deltas fed to the next stratum;
//! - transitions of the goal predicate's tuples that match the goal atom
//!   (its constants and repeated variables) are the answer diff.
//!
//! The initial materialization is the same code path run against an
//! empty "old" state with every base fact as a +1 delta
//! ([`MaterializedView::seed`]), so seeding and maintenance cannot
//! disagree. A delta rule's joins are the executor's: each body atom is
//! compiled into the shared join step of `join.rs` once per pass, in a
//! static bound-first order, and probed once per changed tuple; this
//! module only chooses the order, the side (old or new) each atom reads
//! and the signs. A step whose shape has a single key column and no
//! filter probes its table's posting index, which every table keeps
//! current under writes (the base shadowed by the delta's touched cells,
//! dead rows excluded) on the snapshots and the view overlay alike, so
//! nothing is built for it. Only the other shapes (constants, repeats,
//! several key columns, Cartesian) fetch a build side: base-atom steps
//! from the snapshots' persistent [`BuildCache`]s, intensional steps
//! from per-propagation caches over the view overlay (lower strata are
//! final before higher strata read them, so those builds stay valid
//! within a pass). A rule with a step over a predicate that has no table
//! derives nothing and is not evaluated further — in a seed, every
//! delta rule that reads the empty "old" state.
//!
//! The delta-rule *compiler* lives in `nyaya-rewrite` (next to the
//! program optimizer), and the [`DeltaProgram`] it emits in `nyaya-core`,
//! which both crates depend on; this module only evaluates.

use std::collections::{BTreeSet, HashMap, HashSet};

use nyaya_core::{Atom, DeltaProgram, DeltaRule, Predicate, Symbol, Term};

use crate::build_cache::BuildCache;
use crate::exec::DataSource;
use crate::join::{AtomShape, Projection, Step};
use crate::table::Database;

/// Signed set-level deltas of base facts, per predicate: `+1` for a fact
/// absent before and present after the update, `-1` for the reverse.
/// Facts whose membership did not change (including a same-batch
/// retract-then-insert) must not appear.
pub type BaseDeltas = HashMap<Predicate, HashMap<Vec<Term>, i64>>;

/// The answer-set change produced by one propagation pass. Both sides
/// are sorted and disjoint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnswerDelta {
    /// Tuples whose support became positive.
    pub added: Vec<Vec<Term>>,
    /// Tuples whose support reached zero.
    pub removed: Vec<Vec<Term>>,
}

impl AnswerDelta {
    /// No change?
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// Counters from one propagation pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IvmMetrics {
    /// Signed derivation events summed into support counts.
    pub derivations: u64,
    /// Delta rules whose delta relation actually changed.
    pub rules_fired: usize,
}

/// A support-counted materialization of one delta program.
pub struct MaterializedView {
    program: DeltaProgram,
    /// Per-tuple derivation counts for every intensional predicate.
    counts: HashMap<Predicate, HashMap<Vec<Term>, i64>>,
    /// Indexed set-level view: exactly the tuples with positive support.
    view: Database,
    /// Current answers: goal-relation tuples matching the goal atom.
    answers: BTreeSet<Vec<Term>>,
    /// Metrics accumulated over the view's lifetime.
    metrics: IvmMetrics,
}

impl MaterializedView {
    /// An empty view of `program`; call [`seed`](Self::seed) to
    /// materialize it against a database.
    pub fn new(program: DeltaProgram) -> Self {
        MaterializedView {
            program,
            counts: HashMap::new(),
            view: Database::new(),
            answers: BTreeSet::new(),
            metrics: IvmMetrics::default(),
        }
    }

    /// The compiled program this view maintains.
    pub fn program(&self) -> &DeltaProgram {
        &self.program
    }

    /// Current answer set (tuples of the goal atom's arity).
    pub fn answers(&self) -> &BTreeSet<Vec<Term>> {
        &self.answers
    }

    /// Total supported tuples across all intensional relations.
    pub fn support_size(&self) -> usize {
        self.counts.values().map(HashMap::len).sum()
    }

    /// Lifetime propagation counters.
    pub fn metrics(&self) -> &IvmMetrics {
        &self.metrics
    }

    /// Initial materialization: propagate from the empty state with every
    /// base fact of `db` (restricted to predicates the program reads) as
    /// a +1 delta. Exactly the maintenance code path, so the seed and all
    /// later deltas agree by construction.
    pub fn seed(&mut self, db: &Database, cache: &BuildCache) -> AnswerDelta {
        debug_assert!(self.counts.is_empty(), "seed called on a non-empty view");
        let mut deltas: BaseDeltas = HashMap::new();
        for pred in &self.program.base {
            let mut rows = db.iter_rows(*pred).peekable();
            if rows.peek().is_none() {
                continue;
            }
            let entry = deltas.entry(*pred).or_default();
            for row in rows {
                entry.insert(row, 1);
            }
        }
        let empty_db = Database::new();
        let empty_cache = BuildCache::new();
        self.propagate((&empty_db, &empty_cache), (db, cache), &deltas)
    }

    /// Propagate one update's signed base deltas through the delta rules,
    /// level by level, and return the answer diff. `old` and `new` are
    /// the database states (with their persistent build caches) before
    /// and after the update. `base_deltas` is only read: entries of
    /// predicates the program does not read, and zero signs, are skipped.
    pub fn propagate(
        &mut self,
        old: (&Database, &BuildCache),
        new: (&Database, &BuildCache),
        base_deltas: &BaseDeltas,
    ) -> AnswerDelta {
        // Set-level deltas visible to rule bodies this pass: the borrowed
        // base-fact deltas, plus the intensional transitions committed so
        // far (a predicate is base or intensional, never both).
        let mut derived: HashMap<Predicate, HashMap<Vec<Term>, i64>> = HashMap::new();

        // OLD view = the state before this pass; committed level by
        // level, `self.view` becomes NEW. Cloning is O(#predicates)
        // (COW tables). Per-pass caches: lower strata are final before
        // higher strata read them, so builds stay valid within the pass.
        let old_view = self.view.clone();
        let old_view_cache = BuildCache::new();
        let new_view_cache = BuildCache::new();

        let mut diff = AnswerDelta::default();
        let goal_pred = self.program.goal.pred;
        // With nothing bound, the goal atom's shape is the filter its
        // relation's tuples must pass to be answers.
        let goal_shape = AtomShape::of(&self.program.goal, |_| None);

        for level in 0..self.program.levels {
            // Evaluate every delta rule of this level against the deltas
            // accumulated so far (base + strata below this one).
            let mut head_acc: HashMap<Predicate, HashMap<Vec<Term>, i64>> = HashMap::new();
            let old_src = DataSource::Layered {
                base: old.0,
                base_cache: old.1,
                overlay: &old_view,
                overlay_cache: &old_view_cache,
                intensional: &self.program.intensional,
            };
            let new_src = DataSource::Layered {
                base: new.0,
                base_cache: new.1,
                overlay: &self.view,
                overlay_cache: &new_view_cache,
                intensional: &self.program.intensional,
            };
            for rule in self.program.rules.iter().filter(|r| r.level == level) {
                let dpred = rule.body[rule.delta_idx].pred;
                let dmap = if self.program.intensional.contains(&dpred) {
                    derived.get(&dpred)
                } else {
                    base_deltas.get(&dpred)
                };
                let Some(dmap) = dmap.filter(|m| m.values().any(|s| *s != 0)) else {
                    continue;
                };
                let acc = head_acc.entry(rule.head.pred).or_default();
                self.metrics.rules_fired += 1;
                self.metrics.derivations += eval_delta_rule(rule, dmap, &old_src, &new_src, acc);
            }

            // Commit this level's support changes (sorted for
            // determinism) and record set-level transitions for the
            // strata above.
            let mut preds: Vec<Predicate> = head_acc.keys().copied().collect();
            preds.sort();
            for pred in preds {
                let mut changes: Vec<(Vec<Term>, i64)> = head_acc
                    .remove(&pred)
                    .expect("predicate key vanished")
                    .into_iter()
                    .filter(|(_, d)| *d != 0)
                    .collect();
                changes.sort();
                if changes.is_empty() {
                    continue;
                }
                let support = self.counts.entry(pred).or_default();
                // Tuples entering the view are written in one bulk insert
                // after the loop: a seed's whole relation then builds its
                // table's base directly, a maintenance pass's handful goes
                // through the delta. (A pass changes each tuple at most
                // once, so the order against the removals is immaterial.)
                let mut entering: Vec<Atom> = Vec::new();
                for (tuple, d) in changes {
                    let old_support = support.get(&tuple).copied().unwrap_or(0);
                    let new_support = old_support + d;
                    debug_assert!(
                        new_support >= 0,
                        "negative support for {pred:?} tuple {tuple:?}"
                    );
                    if new_support <= 0 {
                        support.remove(&tuple);
                    } else {
                        support.insert(tuple.clone(), new_support);
                    }
                    let was_in = old_support > 0;
                    let is_in = new_support > 0;
                    if was_in == is_in {
                        continue;
                    }
                    let sign = if is_in { 1 } else { -1 };
                    let atom = Atom::new(pred, tuple.clone());
                    if is_in {
                        entering.push(atom);
                    } else {
                        self.view.remove(&atom);
                    }
                    if pred == goal_pred && goal_shape.admits(&tuple) {
                        if is_in {
                            self.answers.insert(tuple.clone());
                            diff.added.push(tuple.clone());
                        } else {
                            self.answers.remove(&tuple);
                            diff.removed.push(tuple.clone());
                        }
                    }
                    *derived.entry(pred).or_default().entry(tuple).or_insert(0) += sign;
                }
                self.view.insert_all(entering);
            }
        }

        diff.added.sort();
        diff.removed.sort();
        diff
    }
}

/// Evaluate one delta rule over its delta relation's changed tuples,
/// adding each valuation's signed contribution to `acc` (keyed by head
/// tuple). Atoms left of the delta atom read `new`, atoms right of it
/// `old`. Returns the number of derivation events.
fn eval_delta_rule(
    rule: &DeltaRule,
    dmap: &HashMap<Vec<Term>, i64>,
    old: &DataSource<'_>,
    new: &DataSource<'_>,
    acc: &mut HashMap<Vec<Term>, i64>,
) -> u64 {
    let datom = &rule.body[rule.delta_idx];

    // Bind the delta atom: with nothing bound before it, its fresh
    // columns become the valuation and its constants and repeats are
    // per-tuple checks.
    let mut var_index: HashMap<Symbol, usize> = HashMap::new();
    let dshape = AtomShape::of(datom, |_| None);
    dshape.bind_fresh(datom, &mut var_index);

    // Order the remaining atoms greedily by bound-argument count — the
    // same "bound first" heuristic as the CQ planner, reduced to what is
    // known statically (which variables the prefix binds).
    let mut bound_vars: HashSet<Symbol> = var_index.keys().copied().collect();
    let mut remaining: Vec<usize> = (0..rule.body.len())
        .filter(|&j| j != rule.delta_idx)
        .collect();
    let mut order: Vec<usize> = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let (pos, &best) = remaining
            .iter()
            .enumerate()
            .max_by_key(|(_, &j)| {
                let atom = &rule.body[j];
                let bound = atom
                    .args
                    .iter()
                    .filter(|t| match t {
                        Term::Var(v) => bound_vars.contains(v),
                        _ => true,
                    })
                    .count();
                // Prefer more bound positions; tie-break toward original
                // order (stable via reverse index).
                (bound, usize::MAX - j)
            })
            .expect("remaining is non-empty");
        order.push(best);
        for v in rule.body[best].variables() {
            bound_vars.insert(v);
        }
        remaining.remove(pos);
    }

    // Compile every step once per pass (posting access where the shape
    // allows); each is probed per delta tuple. A step over a predicate
    // with no table joins nothing, and neither does the rule: stop before
    // touching the delta tuples.
    let mut steps: Vec<Step<'_>> = Vec::with_capacity(order.len());
    for &j in &order {
        let atom = &rule.body[j];
        let src = if j < rule.delta_idx { new } else { old };
        let (db, cache) = src.resolve(atom.pred);
        let shape = AtomShape::of(atom, |v| var_index.get(&v).copied());
        shape.bind_fresh(atom, &mut var_index);
        let step = Step::compile(db, cache, atom, shape, true).0;
        if step.is_empty() {
            return 0;
        }
        steps.push(step);
    }
    let head = Projection::new(&rule.head.args, &var_index);

    // Drive every changed tuple of the delta relation through the steps,
    // counting valuations (no dedup — multiplicity is the point).
    let mut events = 0u64;
    let mut dtuples: Vec<(&Vec<Term>, i64)> = dmap.iter().map(|(t, s)| (t, *s)).collect();
    dtuples.sort();
    for (tuple, sign) in dtuples {
        if sign == 0 || !dshape.admits(tuple) {
            continue;
        }
        let mut current: Vec<Vec<Term>> = vec![dshape.fresh(tuple)];
        for step in &steps {
            if current.is_empty() {
                break;
            }
            let mut next: Vec<Vec<Term>> = Vec::new();
            step.probe(&current, &mut next);
            current = next;
        }
        for val in &current {
            *acc.entry(head.of(val)).or_insert(0) += sign;
            events += 1;
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program() -> DeltaProgram {
        // goal: q(X,Y).
        //   q(X,Y) :- top(X), edge(X,Y), top(Y).   (level 1)
        //   top(X) :- c1(X).  top(X) :- c2(X).     (level 0)
        let q_rule = (
            Atom::make("q", ["X", "Y"]),
            vec![
                Atom::make("top", ["X"]),
                Atom::make("edge", ["X", "Y"]),
                Atom::make("top", ["Y"]),
            ],
            1,
        );
        let t1 = (Atom::make("top", ["X"]), vec![Atom::make("c1", ["X"])], 0);
        let t2 = (Atom::make("top", ["X"]), vec![Atom::make("c2", ["X"])], 0);
        let mut rules = Vec::new();
        for (head, body, level) in [q_rule, t1, t2] {
            for delta_idx in 0..body.len() {
                rules.push(DeltaRule {
                    head: head.clone(),
                    body: body.clone(),
                    delta_idx,
                    level,
                });
            }
        }
        let intensional: HashSet<Predicate> =
            [Predicate::new("q", 2), Predicate::new("top", 1)].into();
        let base: HashSet<Predicate> = [
            Predicate::new("c1", 1),
            Predicate::new("c2", 1),
            Predicate::new("edge", 2),
        ]
        .into();
        DeltaProgram {
            goal: Atom::make("q", ["X", "Y"]),
            levels: 2,
            rules,
            intensional,
            base,
        }
    }

    fn facts(names: &[(&str, &[&str])]) -> Database {
        Database::from_facts(names.iter().map(|(p, args)| {
            Atom::new(
                Predicate::new(p, args.len()),
                args.iter().map(|a| Term::constant(a)).collect(),
            )
        }))
    }

    fn delta(pred: &str, args: &[&str], sign: i64) -> BaseDeltas {
        let mut d = BaseDeltas::new();
        d.entry(Predicate::new(pred, args.len()))
            .or_default()
            .insert(args.iter().map(|a| Term::constant(a)).collect(), sign);
        d
    }

    fn tup(args: &[&str]) -> Vec<Term> {
        args.iter().map(|a| Term::constant(a)).collect()
    }

    #[test]
    fn seed_then_insert_then_retract() {
        let db = facts(&[
            ("c1", &["a"]),
            ("c2", &["b"]),
            ("edge", &["a", "b"]),
            ("edge", &["b", "a"]),
        ]);
        let cache = BuildCache::new();
        let mut view = MaterializedView::new(program());
        let diff = view.seed(&db, &cache);
        assert_eq!(diff.added, vec![tup(&["a", "b"]), tup(&["b", "a"])]);
        assert!(diff.removed.is_empty());

        // Insert c1(b): b now reachable through two classes — support
        // rises but the answer set is unchanged.
        let mut db2 = db.clone();
        db2.insert(Atom::make("c1", ["b"]));
        let cache2 = BuildCache::new();
        let diff = view.propagate((&db, &cache), (&db2, &cache2), &delta("c1", &["b"], 1));
        assert!(diff.is_empty(), "support-only change must not diff");

        // Retract c2(b): still supported via c1(b) — no change.
        let mut db3 = db2.clone();
        db3.remove(&Atom::make("c2", ["b"]));
        let cache3 = BuildCache::new();
        let diff = view.propagate((&db2, &cache2), (&db3, &cache3), &delta("c2", &["b"], -1));
        assert!(diff.is_empty(), "counting maintenance keeps b supported");

        // Retract c1(b): b loses top membership; both answers vanish.
        let mut db4 = db3.clone();
        db4.remove(&Atom::make("c1", ["b"]));
        let cache4 = BuildCache::new();
        let diff = view.propagate((&db3, &cache3), (&db4, &cache4), &delta("c1", &["b"], -1));
        assert!(diff.added.is_empty());
        assert_eq!(diff.removed, vec![tup(&["a", "b"]), tup(&["b", "a"])]);
        assert!(view.answers().is_empty());
    }

    #[test]
    fn maintenance_builds_only_what_it_cannot_probe() {
        let db = facts(&[
            ("c1", &["a"]),
            ("c2", &["b"]),
            ("edge", &["a", "b"]),
            ("edge", &["b", "a"]),
        ]);
        let mut db2 = db.clone();
        db2.insert(Atom::make("c1", ["b"]));
        let mut db3 = db2.clone();
        db3.remove(&Atom::make("c2", ["b"]));

        // Every non-delta step of `program()` has one key column and no
        // filter: seed and both passes probe posting indexes only.
        let seed_cache = BuildCache::new();
        let mut view = MaterializedView::new(program());
        view.seed(&db, &seed_cache);
        let (old, new) = (BuildCache::new(), BuildCache::new());
        let diff = view.propagate((&db, &old), (&db2, &new), &delta("c1", &["b"], 1));
        assert!(diff.is_empty());
        assert_eq!((seed_cache.len(), old.len(), new.len()), (0, 0, 0));
        let (old, new) = (BuildCache::new(), BuildCache::new());
        let diff = view.propagate((&db2, &old), (&db3, &new), &delta("c2", &["b"], -1));
        assert!(diff.is_empty());
        assert_eq!((old.len(), new.len()), (0, 0));
        let answers: BTreeSet<Vec<Term>> = [tup(&["a", "b"]), tup(&["b", "a"])].into();
        assert_eq!(view.answers(), &answers);

        // `edge(X, b)` carries a constant: once `top(c)` enters, its steps
        // fetch a build side, from the old state right of the `top` delta
        // and the new state left of it.
        let mut p = program();
        for atom in p.rules.iter_mut().flat_map(|r| r.body.iter_mut()) {
            if atom.pred == Predicate::new("edge", 2) {
                atom.args[1] = Term::constant("b");
            }
        }
        let mut view = MaterializedView::new(p);
        view.seed(&db, &BuildCache::new());
        let mut db2 = db.clone();
        db2.insert(Atom::make("c1", ["c"]));
        let (old, new) = (BuildCache::new(), BuildCache::new());
        view.propagate((&db, &old), (&db2, &new), &delta("c1", &["c"], 1));
        assert_eq!((old.len(), new.len()), (1, 1));
    }

    #[test]
    fn goal_constants_and_repeats_filter_answers() {
        // goal q(X, X): only self-loops are answers.
        let mut p = program();
        p.goal = Atom::make("q", ["X", "X"]);
        let db = facts(&[
            ("c1", &["a"]),
            ("c1", &["b"]),
            ("edge", &["a", "a"]),
            ("edge", &["a", "b"]),
        ]);
        let cache = BuildCache::new();
        let mut view = MaterializedView::new(p);
        let diff = view.seed(&db, &cache);
        assert_eq!(diff.added, vec![tup(&["a", "a"])]);
    }

    #[test]
    fn seed_matches_incremental_arrival() {
        // Materializing everything at once equals arriving fact by fact.
        let all = [
            ("c1", vec!["a"]),
            ("c2", vec!["b"]),
            ("c1", vec!["c"]),
            ("edge", vec!["a", "b"]),
            ("edge", vec!["b", "c"]),
            ("edge", vec!["c", "a"]),
        ];
        let full_db = Database::from_facts(all.iter().map(|(p, args)| {
            Atom::new(
                Predicate::new(p, args.len()),
                args.iter().map(|a| Term::constant(a)).collect(),
            )
        }));
        let cache = BuildCache::new();
        let mut seeded = MaterializedView::new(program());
        seeded.seed(&full_db, &cache);

        let mut incremental = MaterializedView::new(program());
        let mut db = Database::new();
        incremental.seed(&db, &BuildCache::new());
        for (p, args) in &all {
            let atom = Atom::new(
                Predicate::new(p, args.len()),
                args.iter().map(|a| Term::constant(a)).collect(),
            );
            let mut next = db.clone();
            next.insert(atom.clone());
            let mut d = BaseDeltas::new();
            d.entry(atom.pred).or_default().insert(atom.args.clone(), 1);
            incremental.propagate((&db, &BuildCache::new()), (&next, &BuildCache::new()), &d);
            db = next;
        }
        assert_eq!(seeded.answers(), incremental.answers());
        assert_eq!(seeded.support_size(), incremental.support_size());
    }
}
