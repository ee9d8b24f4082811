//! Incremental view maintenance: support-counted materialization and
//! counting delta joins for nonrecursive Datalog programs.
//!
//! A [`MaterializedView`] holds a nonrecursive Datalog program — the one
//! the program compiler emits, renaming rules already inlined by its
//! optimizer — and, for every intensional predicate, a map from tuple to
//! *support* — the number of (rule, valuation) derivations producing it —
//! plus an indexed [`Database`] of the tuples whose support is positive
//! (the set-level view higher strata join against).
//!
//! [`MaterializedView::seed`] validates the program as every evaluation
//! does (a stratification, safe rules, constants and variables only) and
//! materializes it over a snapshot with the program evaluator of
//! [`crate::program`]: against an empty old state only each rule's
//! last-position delta rule would fire, joining the whole body over the
//! snapshot and the lower strata, so a seed is a bag evaluation of every
//! rule, counting valuations per head tuple. The evaluator runs each rule
//! body through the executor's cost planner into a support sink instead
//! of a set, and commits each stratum with one bulk insert.
//!
//! [`MaterializedView::propagate`] consumes an update's signed base-fact
//! deltas and runs the program's *delta rules* stratum by stratum. For a
//! rule `h :- b_1, …, b_n`, delta rule `i` fires when `b_i`'s relation
//! changes; positions left of it read the *new* state and positions right
//! of it the *old* state, so the delta rules enumerate exactly the
//! derivations an update gains or loses:
//!
//! ```text
//! Δ(B_1 ⋈ … ⋈ B_n) = Σ_i  new(B_1) ⋈ … ⋈ new(B_{i-1}) ⋈ ΔB_i ⋈ old(B_{i+1}) ⋈ … ⋈ old(B_n)
//! ```
//!
//! - each valuation counts with its delta tuple's sign;
//! - summed signed derivations adjust per-tuple support; support
//!   transitions (0 → positive, positive → 0) become the set-level ±1
//!   deltas fed to the next stratum, so retractions are exact without
//!   recomputation (counting-based maintenance);
//! - transitions of the goal predicate's tuples that match the goal atom
//!   (its constants and repeated variables) are the answer diff.
//!
//! A rule with an empty body asserts its head once at the seed and has no
//! delta rule, so no update moves it.
//!
//! A delta rule's joins are the executor's: each body atom is compiled
//! into the shared join step of `join.rs` once per pass, in a static
//! bound-first order, and probed once per changed tuple; this module only
//! chooses the order, the side (old or new) each atom reads and the
//! signs. A step whose shape has a single key column and no filter probes
//! its table's posting index, which every table keeps current under
//! writes (the base shadowed by the delta's touched cells, dead rows
//! excluded) on the snapshots and the view overlay alike, so nothing is
//! built for it. Only the other shapes (constants, repeats, several key
//! columns, Cartesian) fetch a build side: base-atom steps from the
//! snapshots' persistent [`BuildCache`]s, intensional steps from
//! per-propagation caches over the view overlay (lower strata are final
//! before higher strata read them, so those builds stay valid within a
//! pass). A rule with a step over a predicate that has no table derives
//! nothing and is not evaluated further.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use nyaya_core::{Atom, DatalogProgram, DatalogRule, Predicate, Symbol, Term};

use crate::build_cache::BuildCache;
use crate::exec::{CacheTally, DataSource, Support};
use crate::join::{AtomShape, Projection, Step};
use crate::program::{materialize, validated_strata, ProgramError};
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

/// A support-counted materialization of one nonrecursive Datalog program.
pub struct MaterializedView {
    program: DatalogProgram,
    /// The program's strata, lowest first (as [`DatalogProgram::strata`]).
    strata: Vec<Vec<Predicate>>,
    /// The program's defined predicates: the relations the view holds.
    intensional: HashSet<Predicate>,
    /// Per-tuple derivation counts for every intensional predicate.
    counts: HashMap<Predicate, HashMap<Vec<Term>, i64>>,
    /// Indexed set-level view: exactly the tuples with positive support.
    view: Database,
    /// Current answers: goal-relation tuples matching the goal atom.
    answers: BTreeSet<Vec<Term>>,
}

impl MaterializedView {
    /// Materialize `program` over `db` (with `db`'s persistent build
    /// cache), running each stratum's rules across up to `threads`
    /// workers. Returns the view and its first diff: every answer added.
    ///
    /// The rules run through the program evaluator with a support sink,
    /// so each derived tuple's count is its number of valuations —
    /// exactly what propagating every base fact as a +1 delta from the
    /// empty state would sum. A program the evaluator refuses (recursive,
    /// an unsafe rule, a null or a function term) is a [`ProgramError`].
    pub fn seed(
        program: DatalogProgram,
        db: &Database,
        cache: &BuildCache,
        threads: usize,
    ) -> Result<(MaterializedView, AnswerDelta), ProgramError> {
        let strata = validated_strata(&program)?;
        let mut counts: HashMap<Predicate, HashMap<Vec<Term>, i64>> = HashMap::new();
        let tally = CacheTally::default();
        let commit = |pred, derived: Support, entering: &mut Vec<Atom>| {
            // Rules sharing a head add their supports (the bulk insert
            // drops a tuple already in the view).
            let support = counts.entry(pred).or_default();
            for (tuple, n) in derived.0 {
                entering.push(Atom::new(pred, tuple.clone()));
                *support.entry(tuple).or_insert(0) += n;
            }
        };
        let (view, _, _) = materialize(db, cache, &program, &strata, threads, &tally, commit);
        // The seed is the one caller that materializes the goal relation
        // (its counts are maintained like any other); with nothing bound,
        // the goal atom's shape is the filter its tuples pass as answers.
        let goal = AtomShape::of(&program.goal, |_| None);
        let answers: BTreeSet<Vec<Term>> = view
            .iter_rows(program.goal.pred)
            .filter(|tuple| goal.admits(tuple))
            .collect();
        let diff = AnswerDelta {
            added: answers.iter().cloned().collect(),
            removed: Vec::new(),
        };
        let view = MaterializedView {
            intensional: program.defined_predicates(),
            program,
            strata,
            counts,
            view,
            answers,
        };
        Ok((view, diff))
    }

    /// Current answer set (tuples of the goal atom's arity).
    pub fn answers(&self) -> &BTreeSet<Vec<Term>> {
        &self.answers
    }

    /// Total supported tuples across all intensional relations.
    pub fn support_size(&self) -> usize {
        self.counts.values().map(HashMap::len).sum()
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

        for level in &self.strata {
            // Evaluate every delta rule of this level against the deltas
            // accumulated so far (base + strata below this one), in rule
            // order, then body-position order.
            let mut head_acc: BTreeMap<Predicate, HashMap<Vec<Term>, i64>> = BTreeMap::new();
            let old_src = DataSource {
                base: old.0,
                base_cache: old.1,
                overlay: &old_view,
                overlay_cache: &old_view_cache,
                intensional: &self.intensional,
            };
            let new_src = DataSource {
                base: new.0,
                base_cache: new.1,
                overlay: &self.view,
                overlay_cache: &new_view_cache,
                intensional: &self.intensional,
            };
            let rules = self.program.rules.iter();
            for rule in rules.filter(|r| level.binary_search(&r.head.pred).is_ok()) {
                for (delta_idx, datom) in rule.body.iter().enumerate() {
                    let dmap = if self.intensional.contains(&datom.pred) {
                        derived.get(&datom.pred)
                    } else {
                        base_deltas.get(&datom.pred)
                    };
                    let Some(dmap) = dmap.filter(|m| m.values().any(|s| *s != 0)) else {
                        continue;
                    };
                    let acc = head_acc.entry(rule.head.pred).or_default();
                    eval_delta_rule(rule, delta_idx, dmap, &old_src, &new_src, acc);
                }
            }

            // Commit this level's support changes (sorted for
            // determinism) and record set-level transitions for the
            // strata above.
            for (pred, acc) in head_acc {
                let mut changes: Vec<(Vec<Term>, i64)> =
                    acc.into_iter().filter(|(_, d)| *d != 0).collect();
                changes.sort();
                if changes.is_empty() {
                    continue;
                }
                let support = self.counts.entry(pred).or_default();
                // Tuples entering the view are written in one bulk insert
                // after the loop. (A pass changes each tuple at most once,
                // so the order against the removals is immaterial.)
                let mut entering: Vec<Atom> = Vec::new();
                for (tuple, d) in changes {
                    let count = support.entry(tuple.clone()).or_insert(0);
                    let was_in = *count > 0;
                    *count += d;
                    debug_assert!(*count >= 0, "negative support for {pred:?} tuple {tuple:?}");
                    let is_in = *count > 0;
                    if !is_in {
                        support.remove(&tuple);
                    }
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

/// Evaluate `rule`'s delta rule at body position `delta_idx` over that
/// atom's changed tuples, adding each valuation's signed contribution to
/// `acc` (keyed by head tuple). Atoms left of the delta atom read `new`,
/// atoms right of it `old`.
fn eval_delta_rule(
    rule: &DatalogRule,
    delta_idx: usize,
    dmap: &HashMap<Vec<Term>, i64>,
    old: &DataSource<'_>,
    new: &DataSource<'_>,
    acc: &mut HashMap<Vec<Term>, i64>,
) {
    let datom = &rule.body[delta_idx];

    // Bind the delta atom: with nothing bound before it, its fresh
    // columns become the valuation and its constants and repeats are
    // per-tuple checks.
    let mut var_index: HashMap<Symbol, usize> = HashMap::new();
    let dshape = AtomShape::of(datom, |_| None);
    dshape.bind_fresh(datom, &mut var_index);

    // Order the remaining atoms greedily by bound-argument count — the
    // same "bound first" heuristic as the CQ planner, reduced to what is
    // known statically (which variables the prefix binds).
    // Ties go to the atom first in the body.
    let mut bound_vars: HashSet<Symbol> = var_index.keys().copied().collect();
    let mut remaining: Vec<usize> = (0..rule.body.len()).filter(|&j| j != delta_idx).collect();
    let mut order: Vec<usize> = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let is_bound = |t: &&Term| t.as_var().is_none_or(|v| bound_vars.contains(&v));
        let bound = |j: usize| rule.body[j].args.iter().filter(is_bound).count();
        let pos = (0..remaining.len())
            .max_by_key(|&p| (bound(remaining[p]), Reverse(p)))
            .expect("remaining is non-empty");
        let best = remaining.remove(pos);
        bound_vars.extend(rule.body[best].variables());
        order.push(best);
    }

    // Compile every step once per pass (its access path follows from its
    // shape); each is probed per delta tuple. A step over a predicate
    // with no table joins nothing, and neither does the rule: stop before
    // touching the delta tuples.
    let mut steps: Vec<Step<'_>> = Vec::with_capacity(order.len());
    for &j in &order {
        let atom = &rule.body[j];
        let src = if j < delta_idx { new } else { old };
        let (db, cache) = src.resolve(atom.pred);
        let shape = AtomShape::of(atom, |v| var_index.get(&v).copied());
        shape.bind_fresh(atom, &mut var_index);
        let step = Step::compile(db, cache, atom, shape).0;
        if step.is_empty() {
            return;
        }
        steps.push(step);
    }
    let head = Projection::new(&rule.head.args, &var_index);

    // Drive every changed tuple of the delta relation through the steps,
    // counting valuations (no dedup — multiplicity is the point).
    for (tuple, &sign) in dmap {
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
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program() -> DatalogProgram {
        // goal: q(X,Y).
        //   q(X,Y) :- top(X), edge(X,Y), top(Y).   (level 1)
        //   top(X) :- c1(X).  top(X) :- c2(X).     (level 0)
        let q_rule = DatalogRule::new(
            Atom::make("q", ["X", "Y"]),
            vec![
                Atom::make("top", ["X"]),
                Atom::make("edge", ["X", "Y"]),
                Atom::make("top", ["Y"]),
            ],
        );
        let t1 = DatalogRule::new(Atom::make("top", ["X"]), vec![Atom::make("c1", ["X"])]);
        let t2 = DatalogRule::new(Atom::make("top", ["X"]), vec![Atom::make("c2", ["X"])]);
        DatalogProgram::new(Atom::make("q", ["X", "Y"]), vec![q_rule, t1, t2])
    }

    /// `program()` with `edge(X, b)` for every `edge` atom.
    fn program_with_edge_constant() -> DatalogProgram {
        let mut p = program();
        for atom in p.rules.iter_mut().flat_map(|r| r.body.iter_mut()) {
            if atom.pred == Predicate::new("edge", 2) {
                atom.args[1] = Term::constant("b");
            }
        }
        p
    }

    /// `program()` with `edge(a, b)` for every `edge` atom.
    fn program_with_ground_edge() -> DatalogProgram {
        let mut p = program();
        for atom in p.rules.iter_mut().flat_map(|r| r.body.iter_mut()) {
            if atom.pred == Predicate::new("edge", 2) {
                atom.args = vec![Term::constant("a"), Term::constant("b")];
            }
        }
        p
    }

    /// `program()` answering `q(X, X)`: only self-loops.
    fn program_with_repeated_goal() -> DatalogProgram {
        let mut p = program();
        p.goal = Atom::make("q", ["X", "X"]);
        p
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

    fn seed(program: DatalogProgram, db: &Database) -> (MaterializedView, AnswerDelta) {
        MaterializedView::seed(program, db, &BuildCache::new(), 1).expect("seeds")
    }

    /// The oracle for seeding: propagate from the empty state with every
    /// base fact the program reads as a +1 delta.
    fn seed_by_propagation(
        program: DatalogProgram,
        db: &Database,
    ) -> (MaterializedView, AnswerDelta) {
        let mut deltas = BaseDeltas::new();
        for pred in program.base_predicates() {
            for row in db.iter_rows(pred) {
                deltas.entry(pred).or_default().insert(row, 1);
            }
        }
        let mut view = MaterializedView {
            strata: program.strata().expect("a stratified program"),
            intensional: program.defined_predicates(),
            program,
            counts: HashMap::new(),
            view: Database::new(),
            answers: BTreeSet::new(),
        };
        let empty = Database::new();
        let diff = view.propagate(
            (&empty, &BuildCache::new()),
            (db, &BuildCache::new()),
            &deltas,
        );
        (view, diff)
    }

    /// The evaluator's seed (sequential and across three workers) must
    /// equal the oracle's: counts per predicate and tuple, the view's
    /// facts, the answers and the first diff.
    fn assert_seeds_agree(program: &DatalogProgram, db: &Database, context: &str) {
        let (oracle, oracle_diff) = seed_by_propagation(program.clone(), db);
        let oracle_facts: BTreeSet<Atom> = oracle.view.facts().collect();
        for threads in [1, 3] {
            let (seeded, diff) =
                MaterializedView::seed(program.clone(), db, &BuildCache::new(), threads)
                    .expect("seeds");
            let at = format!("{context}, threads {threads}");
            // The oracle records a predicate only once it has a tuple.
            let counts: HashMap<_, _> = seeded
                .counts
                .iter()
                .filter(|(_, c)| !c.is_empty())
                .map(|(p, c)| (*p, c.clone()))
                .collect();
            assert_eq!(counts, oracle.counts, "{at}: counts");
            assert_eq!(
                seeded.view.facts().collect::<BTreeSet<Atom>>(),
                oracle_facts,
                "{at}: view"
            );
            assert_eq!(seeded.answers, oracle.answers, "{at}: answers");
            assert_eq!(diff, oracle_diff, "{at}: diff");
        }
    }

    #[test]
    fn seed_then_insert_then_retract() {
        let db = facts(&[
            ("c1", &["a"]),
            ("c2", &["b"]),
            ("edge", &["a", "b"]),
            ("edge", &["b", "a"]),
        ]);
        let (mut view, diff) = seed(program(), &db);
        assert_eq!(diff.added, vec![tup(&["a", "b"]), tup(&["b", "a"])]);
        assert!(diff.removed.is_empty());

        // Insert c1(b): b now reachable through two classes — support
        // rises but the answer set is unchanged.
        let mut db2 = db.clone();
        db2.insert(Atom::make("c1", ["b"]));
        let cache2 = BuildCache::new();
        let diff = view.propagate(
            (&db, &BuildCache::new()),
            (&db2, &cache2),
            &delta("c1", &["b"], 1),
        );
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
        // filter: both passes probe posting indexes only. (The seed is a
        // planned program run, which builds where its plan says so.)
        let (mut view, _) = seed(program(), &db);
        let (old, new) = (BuildCache::new(), BuildCache::new());
        let diff = view.propagate((&db, &old), (&db2, &new), &delta("c1", &["b"], 1));
        assert!(diff.is_empty());
        assert_eq!((old.len(), new.len()), (0, 0));
        let (old, new) = (BuildCache::new(), BuildCache::new());
        let diff = view.propagate((&db2, &old), (&db3, &new), &delta("c2", &["b"], -1));
        assert!(diff.is_empty());
        assert_eq!((old.len(), new.len()), (0, 0));
        let answers: BTreeSet<Vec<Term>> = [tup(&["a", "b"]), tup(&["b", "a"])].into();
        assert_eq!(view.answers(), &answers);

        // `edge(X, b)` carries a constant. Once `top(c)` enters, the
        // delta at `top(X)` joins it on `X` plus the constant, a build
        // side from the old state right of the delta. The delta at
        // `top(Y)` scans it first, filtered by the constant alone: that
        // reads `b`'s posting list in the new state and builds nothing.
        // A build whose pattern names a constant is not retained.
        let (mut view, _) = seed(program_with_edge_constant(), &db);
        let mut db2 = db.clone();
        db2.insert(Atom::make("c1", ["c"]));
        let (old, new) = (BuildCache::new(), BuildCache::new());
        view.propagate((&db, &old), (&db2, &new), &delta("c1", &["c"], 1));
        assert_eq!((old.misses(), new.misses()), (1, 0));
        assert_eq!((old.len(), new.len()), (0, 0));

        // `edge(a, b)` carries two constants, which no one posting list
        // answers: both deltas scan it first, filtering its rows once per
        // pass, and neither builds a side.
        let (mut view, _) = seed(program_with_ground_edge(), &db);
        let (old, new) = (BuildCache::new(), BuildCache::new());
        view.propagate((&db, &old), (&db2, &new), &delta("c1", &["c"], 1));
        assert_eq!((old.misses(), new.misses()), (0, 0));
        assert_eq!((old.len(), new.len()), (0, 0));
    }

    #[test]
    fn goal_constants_and_repeats_filter_answers() {
        let db = facts(&[
            ("c1", &["a"]),
            ("c1", &["b"]),
            ("edge", &["a", "a"]),
            ("edge", &["a", "b"]),
        ]);
        let (_, diff) = seed(program_with_repeated_goal(), &db);
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
        let (seeded, _) = seed(program(), &full_db);

        let mut db = Database::new();
        let (mut incremental, _) = seed(program(), &db);
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

    #[test]
    fn seeded_counts_equal_propagation_from_empty() {
        // `top(b)` has two derivations, one per class rule, and the
        // projection `_p(X) :- edge(X, Y)` counts one per `Y`.
        let db = facts(&[
            ("c1", &["a"]),
            ("c1", &["b"]),
            ("c2", &["b"]),
            ("edge", &["a", "a"]),
            ("edge", &["a", "b"]),
            ("edge", &["b", "a"]),
            ("edge", &["c", "b"]),
        ]);
        let mut projecting = program();
        projecting.rules.push(DatalogRule::new(
            Atom::make("top", ["X"]),
            vec![Atom::make("edge", ["X", "Y"])],
        ));
        for (program, name) in [
            (program(), "program()"),
            (program_with_edge_constant(), "edge constant"),
            (program_with_repeated_goal(), "repeated goal"),
            (projecting, "projecting rule"),
        ] {
            assert_seeds_agree(&program, &db, name);
        }
    }

    /// xorshift64, as in `join.rs`: the crate has no dependency to draw a
    /// generator from.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// One of four constants (`k0..k3`), the facts' whole domain.
    fn constant(rng: &mut Rng) -> Term {
        Term::constant(&format!("k{}", rng.below(4)))
    }

    /// An atom over `pred` whose arguments are variables from a pool of
    /// four (so atoms repeat variables and join) or, one in six,
    /// constants.
    fn random_atom(rng: &mut Rng, pred: Predicate) -> Atom {
        let args = (0..pred.arity)
            .map(|_| match rng.below(6) {
                0 => constant(rng),
                _ => Term::var(&format!("V{}", rng.below(4))),
            })
            .collect();
        Atom::new(pred, args)
    }

    /// A random stratified program over `b1/1`, `b2/2`, `b3/2` and the
    /// database it runs on. One to three levels define one or two
    /// predicates each; a predicate has one or two rules (the second
    /// sometimes a copy of the first, so every tuple has support two);
    /// a rule has one to three body atoms over base predicates and lower
    /// levels, and a head over its body variables or a constant. The
    /// database holds one stray fact under a defined predicate, which
    /// both seeds must ignore.
    fn random_case(rng: &mut Rng) -> (DatalogProgram, Database) {
        let mut readable: Vec<Predicate> = vec![
            Predicate::new("b1", 1),
            Predicate::new("b2", 2),
            Predicate::new("b3", 2),
        ];
        let levels = 1 + rng.below(3);
        let mut rules: Vec<DatalogRule> = Vec::new();
        let mut defined: Vec<Predicate> = Vec::new();
        for level in 0..levels {
            let mut this_level = Vec::new();
            for i in 0..1 + rng.below(2) {
                let pred = Predicate::new(&format!("d{level}_{i}"), 1 + rng.below(2));
                for r in 0..1 + rng.below(2) {
                    if r == 1 && rng.below(4) == 0 {
                        let copy = rules.last().expect("a first rule").clone();
                        rules.push(copy);
                        continue;
                    }
                    let body: Vec<Atom> = (0..1 + rng.below(3))
                        .map(|_| {
                            let read = readable[rng.below(readable.len())];
                            random_atom(rng, read)
                        })
                        .collect();
                    let vars: Vec<Term> = body
                        .iter()
                        .flat_map(|a| a.args.iter())
                        .filter(|t| t.is_var())
                        .cloned()
                        .collect();
                    let head_args = (0..pred.arity)
                        .map(|_| {
                            if vars.is_empty() || rng.below(8) == 0 {
                                constant(rng)
                            } else {
                                vars[rng.below(vars.len())].clone()
                            }
                        })
                        .collect();
                    rules.push(DatalogRule::new(Atom::new(pred, head_args), body));
                }
                this_level.push(pred);
            }
            readable.extend(&this_level);
            defined.extend(this_level);
        }
        let top = *defined.last().expect("one defined predicate per level");
        let goal_args = match (top.arity, rng.below(3)) {
            (2, 0) => vec![Term::var("G"), Term::var("G")],
            (_, 1) => {
                let mut args = vec![constant(rng)];
                args.extend((1..top.arity).map(|i| Term::var(&format!("G{i}"))));
                args
            }
            _ => (0..top.arity)
                .map(|i| Term::var(&format!("G{i}")))
                .collect(),
        };
        let program = DatalogProgram::new(Atom::new(top, goal_args), rules);

        let mut db = Database::new();
        for (pred, n) in [("b1", 3), ("b2", 8), ("b3", 8)] {
            for _ in 0..n {
                let pred = Predicate::new(pred, if pred == "b1" { 1 } else { 2 });
                db.insert(Atom::new(
                    pred,
                    (0..pred.arity).map(|_| constant(rng)).collect(),
                ));
            }
        }
        let stray = defined[rng.below(defined.len())];
        db.insert(Atom::new(
            stray,
            (0..stray.arity).map(|_| constant(rng)).collect(),
        ));
        (program, db)
    }

    #[test]
    fn random_programs_seed_the_counts_propagation_would() {
        let (mut supported_twice, mut answered) = (0, 0);
        for seed in 1..=150u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let (program, db) = random_case(&mut rng);
            assert_seeds_agree(&program, &db, &format!("seed {seed}"));
            let (seeded, _) = self::seed(program, &db);
            supported_twice += seeded
                .counts
                .values()
                .flat_map(HashMap::values)
                .filter(|&&n| n > 1)
                .count();
            answered += usize::from(!seeded.answers.is_empty());
        }
        // The generator must reach what the comparison is about.
        assert!(supported_twice > 0, "no tuple with two derivations");
        assert!(
            answered > 50,
            "only {answered} of 150 programs have answers"
        );
    }

    /// A program the evaluator refuses is a typed error at the seed too.
    #[test]
    fn seeding_a_program_the_evaluator_refuses_is_a_typed_error() {
        let db = facts(&[("c1", &["a"])]);
        let refused = |program| MaterializedView::seed(program, &db, &BuildCache::new(), 1).err();
        let rule = |head, body| DatalogRule::new(head, body);

        let recursive = DatalogProgram::new(
            Atom::make("p", ["X"]),
            vec![
                rule(Atom::make("p", ["X"]), vec![Atom::make("r", ["X"])]),
                rule(Atom::make("r", ["X"]), vec![Atom::make("p", ["X"])]),
            ],
        );
        assert_eq!(refused(recursive), Some(ProgramError::Recursive));

        // A derived tuple holds constants only.
        let skolem = Term::Func(nyaya_core::symbols::intern("f"), [Term::var("X")].into());
        for term in [Term::Null(1), skolem] {
            let head = Atom::new(Predicate::new("q", 2), vec![Term::var("X"), term]);
            let program = DatalogProgram::new(
                Atom::make("q", ["X", "Y"]),
                vec![rule(head, vec![Atom::make("c1", ["X"])])],
            );
            match refused(program) {
                Some(ProgramError::Untranslatable { rule }) => {
                    assert!(rule.starts_with("q(X,"), "{rule}")
                }
                other => panic!("expected Untranslatable, got {other:?}"),
            }
        }

        // `Y` occurs in no body atom.
        let unsafe_rule = DatalogProgram::new(
            Atom::make("q", ["X", "Y"]),
            vec![rule(
                Atom::make("q", ["X", "Y"]),
                vec![Atom::make("c1", ["X"])],
            )],
        );
        assert!(matches!(
            refused(unsafe_rule),
            Some(ProgramError::UnsafeRule { .. })
        ));
    }

    /// A safe rule with an empty body holds once: the executor projects
    /// its one empty valuation, and with no body atom it has no delta
    /// rule, so no update moves its share of the support.
    #[test]
    fn an_empty_body_rule_seeds_support_one_that_no_update_moves() {
        // q(X) :- c1(X).  q(k) :- .
        let program = DatalogProgram::new(
            Atom::make("q", ["X"]),
            vec![
                DatalogRule::new(Atom::make("q", ["X"]), vec![Atom::make("c1", ["X"])]),
                DatalogRule {
                    head: Atom::make("q", ["k"]),
                    body: Vec::new(),
                },
            ],
        );
        let db = facts(&[("c1", &["a"])]);
        let (mut view, diff) = seed(program, &db);
        let added: BTreeSet<Vec<Term>> = diff.added.into_iter().collect();
        assert_eq!(added, BTreeSet::from([tup(&["a"]), tup(&["k"])]));
        let support = |view: &MaterializedView| view.counts[&Predicate::new("q", 1)][&tup(&["k"])];
        assert_eq!(support(&view), 1);

        let empty = facts(&[]);
        let diff = view.propagate(
            (&db, &BuildCache::new()),
            (&empty, &BuildCache::new()),
            &delta("c1", &["a"], -1),
        );
        assert_eq!((diff.added, diff.removed), (vec![], vec![tup(&["a"])]));
        assert_eq!(support(&view), 1);

        let k = facts(&[("c1", &["k"])]);
        let diff = view.propagate(
            (&empty, &BuildCache::new()),
            (&k, &BuildCache::new()),
            &delta("c1", &["k"], 1),
        );
        assert!(diff.is_empty());
        assert_eq!(support(&view), 2);
        let diff = view.propagate(
            (&k, &BuildCache::new()),
            (&empty, &BuildCache::new()),
            &delta("c1", &["k"], -1),
        );
        assert!(diff.is_empty());
        assert_eq!(support(&view), 1);
        assert_eq!(view.answers(), &BTreeSet::from([tup(&["k"])]));
    }
}
