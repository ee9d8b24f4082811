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
//! disagree. Base-atom probes reuse the snapshots' persistent
//! [`BuildCache`]s; intensional probes use per-propagation caches over
//! the view overlay (lower strata are final before higher strata read
//! them, so those builds stay valid within a pass).
//!
//! The delta-rule *compiler* lives in `nyaya-rewrite` (next to the
//! program optimizer); this module only evaluates. The mirrored rule
//! types below keep the crate layering acyclic — `nyaya-rewrite`
//! dev-depends on this crate for its differential tests, so this crate
//! cannot depend back on it.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use nyaya_core::{Atom, Predicate, Symbol, Term};

use crate::build_cache::{Build, BuildCache, PatternKey};
use crate::table::{Database, Table};

/// One seminaive delta rule, mirrored from the compiler's output:
/// `head :- body`, reacting to changes of `body[delta_idx]`'s relation,
/// evaluated at stratum `level`.
#[derive(Clone, Debug)]
pub struct IvmRule {
    /// Head atom of the originating rule.
    pub head: Atom,
    /// Full body in original order.
    pub body: Vec<Atom>,
    /// Index of the delta atom within `body`.
    pub delta_idx: usize,
    /// Stratum level of the head predicate.
    pub level: usize,
}

/// A delta program in evaluation form.
#[derive(Clone, Debug)]
pub struct IvmProgram {
    /// The goal atom; answers are goal-relation tuples matching it.
    pub goal: Atom,
    /// Number of stratum levels.
    pub levels: usize,
    /// All delta rules, tagged with levels.
    pub rules: Vec<IvmRule>,
    /// Predicates defined by the program (resolved against the view).
    pub intensional: HashSet<Predicate>,
    /// Base predicates read by some rule body.
    pub base: HashSet<Predicate>,
}

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
    program: IvmProgram,
    /// Per-tuple derivation counts for every intensional predicate.
    counts: HashMap<Predicate, HashMap<Vec<Term>, i64>>,
    /// Indexed set-level view: exactly the tuples with positive support.
    view: Database,
    /// Current answers: goal-relation tuples matching the goal atom.
    answers: BTreeSet<Vec<Term>>,
    /// Metrics accumulated over the view's lifetime.
    metrics: IvmMetrics,
}

/// Where one pipeline atom reads from during a delta join.
struct Sources<'a> {
    old_db: &'a Database,
    old_cache: &'a BuildCache,
    new_db: &'a Database,
    new_cache: &'a BuildCache,
    old_view: &'a Database,
    old_view_cache: &'a BuildCache,
    new_view: &'a Database,
    new_view_cache: &'a BuildCache,
    intensional: &'a HashSet<Predicate>,
}

impl<'a> Sources<'a> {
    fn resolve(&self, pred: Predicate, new_side: bool) -> (&'a Database, &'a BuildCache) {
        match (self.intensional.contains(&pred), new_side) {
            (true, true) => (self.new_view, self.new_view_cache),
            (true, false) => (self.old_view, self.old_view_cache),
            (false, true) => (self.new_db, self.new_cache),
            (false, false) => (self.old_db, self.old_cache),
        }
    }
}

/// Slot classification for one pipeline atom (same roles as the engine's
/// private `Slot`, rebuilt here because delta joins classify against the
/// delta atom's binding rather than a query prefix).
enum DeltaSlot {
    /// Variable already bound: probes with the valuation index it holds.
    Bound(usize),
    /// First occurrence: extends the valuation.
    Fresh,
    /// Repeat of a fresh variable earlier in this atom — enforced by the
    /// build's filter, inert during extension.
    Repeat,
    /// Constant: folded into the build's filter.
    Constant,
}

/// One precompiled pipeline step of a delta rule: the build side is
/// fetched once per propagation and probed per delta tuple.
struct AtomStep<'a> {
    /// The atom's columnar table (`None` when the predicate has no facts
    /// on this side — the build is then empty and the step matches
    /// nothing).
    table: Option<&'a Table>,
    build: Arc<Build>,
    slots: Vec<DeltaSlot>,
    probe_indices: Vec<usize>,
}

/// How one head (or goal) argument projects out of a valuation.
enum Proj {
    Var(usize),
    Const(Term),
}

impl MaterializedView {
    /// An empty view of `program`; call [`seed`](Self::seed) to
    /// materialize it against a database.
    pub fn new(program: IvmProgram) -> Self {
        MaterializedView {
            program,
            counts: HashMap::new(),
            view: Database::new(),
            answers: BTreeSet::new(),
            metrics: IvmMetrics::default(),
        }
    }

    /// The compiled program this view maintains.
    pub fn program(&self) -> &IvmProgram {
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
    /// and after the update.
    pub fn propagate(
        &mut self,
        old: (&Database, &BuildCache),
        new: (&Database, &BuildCache),
        base_deltas: &BaseDeltas,
    ) -> AnswerDelta {
        // Set-level deltas visible to rule bodies this pass: base-fact
        // deltas plus, as levels commit, intensional transitions.
        let mut deltas: HashMap<Predicate, HashMap<Vec<Term>, i64>> = HashMap::new();
        for (pred, facts) in base_deltas {
            if !self.program.base.contains(pred) {
                continue;
            }
            let live: HashMap<Vec<Term>, i64> = facts
                .iter()
                .filter(|(_, sign)| **sign != 0)
                .map(|(t, sign)| (t.clone(), *sign))
                .collect();
            if !live.is_empty() {
                deltas.insert(*pred, live);
            }
        }

        // OLD view = the state before this pass; committed level by
        // level, `self.view` becomes NEW. Cloning is O(#predicates)
        // (COW tables). Per-pass caches: lower strata are final before
        // higher strata read them, so builds stay valid within the pass.
        let old_view = self.view.clone();
        let old_view_cache = BuildCache::new();
        let new_view_cache = BuildCache::new();

        let mut diff = AnswerDelta::default();
        let goal_pred = self.program.goal.pred;
        let goal_proj = goal_filter(&self.program.goal);

        for level in 0..self.program.levels {
            // Evaluate every delta rule of this level against the deltas
            // accumulated so far (base + strata below this one).
            let mut head_acc: HashMap<Predicate, HashMap<Vec<Term>, i64>> = HashMap::new();
            for rule in self.program.rules.iter().filter(|r| r.level == level) {
                let dpred = rule.body[rule.delta_idx].pred;
                let Some(dmap) = deltas.get(&dpred) else {
                    continue;
                };
                if dmap.is_empty() {
                    continue;
                }
                let sources = Sources {
                    old_db: old.0,
                    old_cache: old.1,
                    new_db: new.0,
                    new_cache: new.1,
                    old_view: &old_view,
                    old_view_cache: &old_view_cache,
                    new_view: &self.view,
                    new_view_cache: &new_view_cache,
                    intensional: &self.program.intensional,
                };
                let acc = head_acc.entry(rule.head.pred).or_default();
                self.metrics.rules_fired += 1;
                self.metrics.derivations += eval_delta_rule(rule, dmap, &sources, acc);
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
                    if pred == goal_pred && goal_proj.matches(&tuple) {
                        if is_in {
                            self.answers.insert(tuple.clone());
                            diff.added.push(tuple.clone());
                        } else {
                            self.answers.remove(&tuple);
                            diff.removed.push(tuple.clone());
                        }
                    }
                    *deltas.entry(pred).or_default().entry(tuple).or_insert(0) += sign;
                }
                self.view.insert_all(entering);
            }
        }

        diff.added.sort();
        diff.removed.sort();
        diff
    }
}

/// The goal atom's tuple filter: constant and repeated-variable
/// positions a goal-relation tuple must satisfy to be an answer.
struct GoalFilter {
    consts: Vec<(usize, Term)>,
    repeats: Vec<(usize, usize)>,
}

impl GoalFilter {
    fn matches(&self, tuple: &[Term]) -> bool {
        self.consts.iter().all(|(j, t)| &tuple[*j] == t)
            && self.repeats.iter().all(|(j, k)| tuple[*j] == tuple[*k])
    }
}

fn goal_filter(goal: &Atom) -> GoalFilter {
    let mut first: HashMap<Symbol, usize> = HashMap::new();
    let mut consts = Vec::new();
    let mut repeats = Vec::new();
    for (j, t) in goal.args.iter().enumerate() {
        match t {
            Term::Var(v) => match first.get(v) {
                Some(&k) => repeats.push((j, k)),
                None => {
                    first.insert(*v, j);
                }
            },
            other => consts.push((j, other.clone())),
        }
    }
    GoalFilter { consts, repeats }
}

/// Evaluate one delta rule over its delta relation's changed tuples,
/// adding each valuation's signed contribution to `acc` (keyed by head
/// tuple). Returns the number of derivation events.
fn eval_delta_rule(
    rule: &IvmRule,
    dmap: &HashMap<Vec<Term>, i64>,
    sources: &Sources<'_>,
    acc: &mut HashMap<Vec<Term>, i64>,
) -> u64 {
    let datom = &rule.body[rule.delta_idx];

    // Bind the delta atom: first variable occurrences become valuation
    // slots; constants and repeats become per-tuple checks.
    let mut var_index: HashMap<Symbol, usize> = HashMap::new();
    let mut bind_slots: Vec<DeltaSlot> = Vec::with_capacity(datom.args.len());
    for t in &datom.args {
        match t {
            Term::Var(v) => {
                if let Some(&i) = var_index.get(v) {
                    bind_slots.push(DeltaSlot::Bound(i));
                } else {
                    var_index.insert(*v, var_index.len());
                    bind_slots.push(DeltaSlot::Fresh);
                }
            }
            _ => bind_slots.push(DeltaSlot::Constant),
        }
    }

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

    // Precompile each pipeline step: classify slots against the evolving
    // variable index, derive the pattern, and fetch its build side once.
    let mut steps: Vec<AtomStep<'_>> = Vec::with_capacity(order.len());
    for &j in &order {
        let atom = &rule.body[j];
        let new_side = j < rule.delta_idx;
        let (db, cache) = sources.resolve(atom.pred, new_side);
        let mut slots: Vec<DeltaSlot> = Vec::with_capacity(atom.args.len());
        let mut fresh_positions: HashMap<Symbol, usize> = HashMap::new();
        let mut key_cols: Vec<usize> = Vec::new();
        let mut probe_indices: Vec<usize> = Vec::new();
        let mut consts: Vec<(usize, Term)> = Vec::new();
        let mut repeats: Vec<(usize, usize)> = Vec::new();
        for (col, t) in atom.args.iter().enumerate() {
            match t {
                Term::Var(v) => {
                    if let Some(&idx) = var_index.get(v) {
                        slots.push(DeltaSlot::Bound(idx));
                        key_cols.push(col);
                        probe_indices.push(idx);
                    } else if let Some(&k) = fresh_positions.get(v) {
                        slots.push(DeltaSlot::Repeat);
                        repeats.push((col, k));
                    } else {
                        fresh_positions.insert(*v, col);
                        slots.push(DeltaSlot::Fresh);
                    }
                }
                other => {
                    slots.push(DeltaSlot::Constant);
                    consts.push((col, other.clone()));
                }
            }
        }
        let mut fresh_sorted: Vec<(usize, Symbol)> =
            fresh_positions.iter().map(|(v, c)| (*c, *v)).collect();
        fresh_sorted.sort_unstable();
        for (_, v) in fresh_sorted {
            let idx = var_index.len();
            var_index.insert(v, idx);
        }
        let pattern = PatternKey::make(atom.pred, key_cols, consts, repeats);
        let (build, _) = cache.get_or_build(db, &pattern);
        steps.push(AtomStep {
            table: db.table(atom.pred),
            build,
            slots,
            probe_indices,
        });
    }

    // Head projection out of a complete valuation.
    let head_proj: Vec<Proj> = rule
        .head
        .args
        .iter()
        .map(|t| match t {
            Term::Var(v) => Proj::Var(var_index[v]),
            other => Proj::Const(other.clone()),
        })
        .collect();

    // Drive every changed tuple of the delta relation through the steps,
    // counting valuations (no dedup — multiplicity is the point).
    let mut events = 0u64;
    let mut dtuples: Vec<(&Vec<Term>, i64)> = dmap.iter().map(|(t, s)| (t, *s)).collect();
    dtuples.sort();
    'tuples: for (tuple, sign) in dtuples {
        if sign == 0 {
            continue;
        }
        let mut binding: Vec<Term> = Vec::with_capacity(var_index.len());
        for (j, slot) in bind_slots.iter().enumerate() {
            match slot {
                DeltaSlot::Fresh => binding.push(tuple[j].clone()),
                DeltaSlot::Bound(i) => {
                    if binding[*i] != tuple[j] {
                        continue 'tuples;
                    }
                }
                DeltaSlot::Constant => {
                    if datom.args[j] != tuple[j] {
                        continue 'tuples;
                    }
                }
                DeltaSlot::Repeat => unreachable!("delta binding uses Bound for repeats"),
            }
        }

        let mut current: Vec<Vec<Term>> = vec![binding];
        for step in &steps {
            if current.is_empty() {
                break;
            }
            let mut next: Vec<Vec<Term>> = Vec::new();
            if let Some(table) = step.table {
                let mut key_buf: Vec<u32> = Vec::with_capacity(step.probe_indices.len());
                'vals: for val in &current {
                    key_buf.clear();
                    for &idx in &step.probe_indices {
                        match table.cell_of(&val[idx]) {
                            Some(c) => key_buf.push(c),
                            // A probe value the table never stored joins
                            // with nothing.
                            None => continue 'vals,
                        }
                    }
                    for &id in step.build.group_cells(&key_buf) {
                        let mut extended = val.clone();
                        for (col, slot) in step.slots.iter().enumerate() {
                            if let DeltaSlot::Fresh = slot {
                                extended.push(table.term_at(id, col));
                            }
                        }
                        next.push(extended);
                    }
                }
            }
            current = next;
        }

        for val in current {
            let head_tuple: Vec<Term> = head_proj
                .iter()
                .map(|p| match p {
                    Proj::Var(i) => val[*i].clone(),
                    Proj::Const(t) => t.clone(),
                })
                .collect();
            *acc.entry(head_tuple).or_insert(0) += sign;
            events += 1;
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program() -> IvmProgram {
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
                rules.push(IvmRule {
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
        IvmProgram {
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
