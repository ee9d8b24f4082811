//! Bottom-up evaluation of non-recursive Datalog programs, and their
//! translation to SQL.
//!
//! Section 2 contrasts UCQ rewritings with the non-recursive Datalog
//! programs of Presto: the program avoids materializing the disjunctive
//! normal form. This module holds the engine's one evaluator for both
//! compiled forms, `evaluate`: a UCQ is the goal stratum of a program
//! with nothing beneath it.
//!
//! - the intensional predicates below the goal are materialized
//!   **stratum by stratum** ([`DatalogProgram::strata`]) by the one
//!   stratum loop, `materialize`: the rules of one stratum run as a union
//!   (`exec::run_union`) across worker threads, each rule body planned
//!   and run by the executor's one per-CQ driver (`exec::run_planned`) —
//!   the same cost planner as a UCQ disjunct, reading an intensional
//!   atom's statistics off the overlay — into a head sink, and each
//!   stratum is committed with one bulk insert;
//! - the goal's rules then run as the same union straight into the answer
//!   set, as a UCQ's disjuncts do ([`execute_ucq_intra`](crate::execute_ucq_intra)
//!   and [`execute_program_shared`] are wrappers); the goal relation is
//!   never materialized;
//! - a standing query's seed
//!   ([`MaterializedView::seed`](crate::MaterializedView::seed)) runs
//!   `materialize` over every stratum, goal included, with support counts
//!   (one per valuation) as the sink;
//! - derived tuples live in an **overlay database layered over the base**
//!   (the engine's layered `DataSource`) — the pinned snapshot is never
//!   cloned or written, and base-atom build sides are served from (and
//!   left behind in) the caller's persistent [`BuildCache`];
//! - SQL emission produces one `WITH`-CTE per intensional predicate with
//!   a goal `SELECT` joining them ([`program_to_sql`]), so the program
//!   ships to a DBMS without unfolding into the flat UCQ text; every
//!   `UNION` is printed by [`ucq_to_sql`].
//!
//! Failure modes (recursive program, unsafe rule, unregistered predicate,
//! untranslatable term) are typed [`ProgramError`]s, not panics.

use std::collections::{BTreeSet, HashSet};
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

use nyaya_core::{
    symbols, Atom, ConjunctiveQuery, DatalogProgram, DatalogRule, Predicate, Term, UnionQuery,
};

use crate::build_cache::BuildCache;
use crate::catalog::Catalog;
use crate::exec::{run_union, CacheTally, DataSource, ExecMetrics};
use crate::join::AtomShape;
use crate::table::Database;
use crate::translate::{sql_ident, ucq_to_sql};

/// Why a Datalog program could not be evaluated or translated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// The defined-predicate dependency graph has a cycle; bottom-up
    /// stratified evaluation is undefined. The rewriters never produce
    /// recursive programs — this guards hand-constructed ones.
    Recursive,
    /// A rule is not range-restricted (some head variable never occurs in
    /// the body), so its derived tuples would be unbounded.
    UnsafeRule {
        /// The offending rule, rendered in Datalog syntax.
        rule: String,
    },
    /// SQL translation met a base predicate with no table in the catalog.
    UnregisteredPredicate {
        /// The predicate with no registered table.
        predicate: String,
    },
    /// A rule contains a labelled null or a function term: SQL cannot
    /// express one, and a database — the tables a program derives
    /// included — holds constants only.
    Untranslatable {
        /// The offending rule, rendered in Datalog syntax.
        rule: String,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Recursive => {
                write!(
                    f,
                    "program is recursive; bottom-up evaluation requires a stratification"
                )
            }
            ProgramError::UnsafeRule { rule } => {
                write!(f, "unsafe rule (head variable unbound by the body): {rule}")
            }
            ProgramError::UnregisteredPredicate { predicate } => {
                write!(f, "predicate `{predicate}` has no registered table")
            }
            ProgramError::Untranslatable { rule } => {
                write!(f, "rule contains terms SQL cannot express: {rule}")
            }
        }
    }
}

impl Error for ProgramError {}

/// Counters from one program execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProgramMetrics {
    /// Rules evaluated (every rule of the program).
    pub rules: usize,
    /// Stratum levels the materialization ran in.
    pub strata: usize,
    /// Intensional tuples materialized into the overlay: the strata below
    /// the goal (the goal's answers go straight into the answer set).
    pub materialized_tuples: usize,
    /// Answer tuples returned.
    pub rows: usize,
    /// Worker threads actually used (1 = sequential).
    pub threads: usize,
    /// Build sides served from a cache (base or overlay).
    pub build_cache_hits: u64,
    /// Build sides constructed.
    pub build_cache_misses: u64,
    /// [`StepOp::Merge`](crate::StepOp::Merge) steps executed — probes of a
    /// column's posting index (base tables and overlay tables both
    /// maintain one).
    pub merge_joins: u64,
    /// Probe morsels the join steps drove (see
    /// [`ExecMetrics::morsel_tasks`](crate::ExecMetrics::morsel_tasks)).
    pub morsel_tasks: u64,
    /// Wall-clock execution time.
    pub elapsed: Duration,
}

/// Validate a program for bottom-up evaluation and SQL emission: a
/// stratification must exist, and every rule must be safe and hold
/// constants and variables only (so a derived tuple is constants only).
pub(crate) fn validated_strata(
    program: &DatalogProgram,
) -> Result<Vec<Vec<Predicate>>, ProgramError> {
    let strata = program.strata().ok_or(ProgramError::Recursive)?;
    for rule in &program.rules {
        if !rule.is_safe() {
            return Err(ProgramError::UnsafeRule {
                rule: rule.to_string(),
            });
        }
        let mut terms = rule.body.iter().chain([&rule.head]).flat_map(|a| &a.args);
        if terms.any(|t| matches!(t, Term::Null(_) | Term::Func(..))) {
            return Err(ProgramError::Untranslatable {
                rule: rule.to_string(),
            });
        }
    }
    Ok(strata)
}

/// Evaluate a non-recursive Datalog program bottom-up over `db`.
///
/// Sequential convenience wrapper over [`execute_program_shared`] with a
/// private build cache.
pub fn execute_program(
    db: &Database,
    program: &DatalogProgram,
) -> Result<BTreeSet<Vec<Term>>, ProgramError> {
    execute_program_shared(db, program, 1, &BuildCache::new()).map(|(tuples, _)| tuples)
}

/// Evaluate a non-recursive Datalog program bottom-up over `base`,
/// layering the derived intensional tables in an overlay — the base is
/// never cloned or written, so program evaluation shares the pinned
/// snapshot like any other reader.
///
/// A thin wrapper over the one evaluator: the strata below the goal's
/// are materialized in dependency order, each stratum's rules across up
/// to `threads` workers (a stratification never puts a predicate in the
/// same level as one it reads), and the goal's rules run as a union into
/// the answers. Base-atom build sides are served from the caller's
/// `base_cache` — typically a snapshot's persistent cache, shared with
/// UCQ executions — while overlay atoms use a private per-run cache
/// (derived tables exist only for the duration of this call).
pub fn execute_program_shared(
    base: &Database,
    program: &DatalogProgram,
    threads: usize,
    base_cache: &BuildCache,
) -> Result<(BTreeSet<Vec<Term>>, ProgramMetrics), ProgramError> {
    let strata = validated_strata(program)?;
    let goal = program.goal.pred;
    // An undefined goal (an unsatisfiable program) has no rules and
    // nothing beneath it.
    let below = strata
        .iter()
        .position(|level| level.binary_search(&goal).is_ok())
        .unwrap_or(0);
    let rules: Vec<ConjunctiveQuery> = program
        .rules
        .iter()
        .filter(|r| r.head.pred == goal)
        .map(rule_body)
        .collect();
    let lower = Some((program, &strata[..below]));
    let (answers, exec, materialized_tuples) =
        evaluate(base, base_cache, lower, &rules, threads, 1, 1.0);
    let ExecMetrics {
        rows,
        threads,
        build_cache_hits,
        build_cache_misses,
        merge_joins,
        morsel_tasks,
        elapsed,
        ..
    } = exec;
    let metrics = ProgramMetrics {
        rules: program.rules.len(),
        strata: strata.len(),
        materialized_tuples,
        rows,
        threads,
        build_cache_hits,
        build_cache_misses,
        merge_joins,
        morsel_tasks,
        elapsed,
    };
    Ok((answers, metrics))
}

/// A rule as the CQ the planner and the SQL printer take: its head's
/// arguments over its body. Unlike a rewriting's CQ, a rule's body may be
/// empty: with no join step, the executor projects its one empty
/// valuation, so the rule derives its (ground, since safe) head once.
fn rule_body(rule: &DatalogRule) -> ConjunctiveQuery {
    let mut q = ConjunctiveQuery {
        head_pred: symbols::intern("q"),
        head: rule.head.args.clone(),
        body: rule.body.clone(),
    };
    q.dedup_body();
    q
}

/// The one evaluator behind both compiled forms: a UCQ is the goal
/// stratum of a program with nothing beneath it.
///
/// With `lower = Some((program, strata))`, `materialize` first derives
/// `strata` (the program's levels below its goal) into an overlay, and
/// the goal rules read it alongside `base`; with `None` they read `base`
/// alone. The goal rules then run as one union through
/// [`run_union`]: each rule fills a set of its own (planned with
/// `correction`, each join step split across up to `intra` workers),
/// merged into the answers in rule order across up to `threads` workers.
/// A program's answers pass its goal atom's filter (its constants and
/// repeated variables). Returns the answers, this call's counters and the
/// tuples materialized beneath the goal.
pub(crate) fn evaluate(
    base: &Database,
    base_cache: &BuildCache,
    lower: Option<(&DatalogProgram, &[Vec<Predicate>])>,
    goal: &[ConjunctiveQuery],
    threads: usize,
    intra: usize,
    correction: f64,
) -> (BTreeSet<Vec<Term>>, ExecMetrics, usize) {
    let start = Instant::now();
    let tally = CacheTally::default();
    let commit = |pred, rows: BTreeSet<Vec<Term>>, entering: &mut Vec<Atom>| {
        entering.extend(rows.into_iter().map(|row| Atom::new(pred, row)))
    };
    let (overlay, overlay_cache, workers) = match lower {
        Some((program, strata)) => {
            materialize(base, base_cache, program, strata, threads, &tally, commit)
        }
        None => (Database::new(), BuildCache::new(), 1),
    };
    let intensional = lower.map_or_else(HashSet::new, |(p, _)| p.defined_predicates());
    let src = DataSource {
        base,
        base_cache,
        overlay: &overlay,
        overlay_cache: &overlay_cache,
        intensional: &intensional,
    };
    // With nothing bound, the goal atom's shape is the filter its
    // relation's tuples must pass to be answers.
    let filter = lower.map(|(p, _)| AtomShape::of(&p.goal, |_| None));
    // Each rule fills a set of its own, merged into the answers after.
    // Filling the answers directly read LUBM faster on the 2-core bench
    // host but made every other `lubm_rw` apply about 25 % slower
    // (ROADMAP, "Fill the union set directly").
    let merge = |out: &mut BTreeSet<Vec<Term>>, rule: BTreeSet<Vec<Term>>| match &filter {
        Some(goal) => out.extend(rule.into_iter().filter(|t| goal.admits(t))),
        None => out.extend(rule),
    };
    let (answers, used) = run_union(&src, goal, threads, intra, correction, &tally, merge);
    let metrics = ExecMetrics {
        disjuncts: goal.len(),
        threads: workers.max(used),
        rows: answers.len(),
        elapsed: start.elapsed(),
        ..tally.exec_metrics()
    };
    (answers, metrics, overlay.len())
}

/// The one stratum loop: materialize `program`'s rules over `base`,
/// stratum by stratum in the order of `strata` (levels of the program's
/// [`DatalogProgram::strata`]), into an overlay of its defined
/// predicates, and return the overlay, the build sides made over it
/// (still valid: the overlay is final) and the most workers a stratum
/// used.
///
/// Each stratum's rules run through [`run_union`], each into a fresh
/// head sink `S` — a set for program evaluation, support counts for a
/// view's seed. Once a stratum's rules have run (across up to `threads`
/// workers), `commit` receives each rule's sink in rule order and pushes
/// the facts entering the overlay, and the stratum is written with one
/// [`Database::insert_all`]. Rules of a stratum read only the base and
/// strictly lower strata, so the overlay (and every build over it) is
/// final before anything reads it.
pub(crate) fn materialize<S: Default + Extend<Vec<Term>> + Send>(
    base: &Database,
    base_cache: &BuildCache,
    program: &DatalogProgram,
    strata: &[Vec<Predicate>],
    threads: usize,
    tally: &CacheTally,
    mut commit: impl FnMut(Predicate, S, &mut Vec<Atom>),
) -> (Database, BuildCache, usize) {
    let intensional = program.defined_predicates();
    let mut overlay = Database::new();
    let overlay_cache = BuildCache::new();
    let mut workers = 1;
    for level in strata {
        let rules: Vec<&DatalogRule> = program
            .rules
            .iter()
            .filter(|r| level.binary_search(&r.head.pred).is_ok())
            .collect();
        let bodies: Vec<ConjunctiveQuery> = rules.iter().map(|r| rule_body(r)).collect();
        let src = DataSource {
            base,
            base_cache,
            overlay: &overlay,
            overlay_cache: &overlay_cache,
            intensional: &intensional,
        };
        let keep = |out: &mut Vec<S>, sink| out.push(sink);
        let (derived, used) = run_union(&src, &bodies, threads, 1, 1.0, tally, keep);
        workers = workers.max(used);
        // Commit in rule order (the fan-out preserves it), so the
        // overlay's row numbering — and therefore every downstream join —
        // is identical whether one worker materialized the stratum or many.
        let mut entering = Vec::new();
        for (rule, sink) in rules.iter().zip(derived) {
            commit(rule.head.pred, sink, &mut entering);
        }
        overlay.insert_all(entering);
    }
    (overlay, overlay_cache, workers)
}

/// A scratch catalog extending `catalog` with one table schema per
/// intensional predicate (columns `a1..an`, matching the `SELECT … AS a{i}`
/// aliases [`cq_to_sql`](crate::translate::cq_to_sql) emits), so rules over
/// intensional predicates translate like any other.
fn extended_catalog(catalog: &Catalog, order: &[Predicate]) -> Catalog {
    let mut cat = catalog.clone();
    for p in order {
        let columns = (0..p.arity).map(|i| format!("a{}", i + 1)).collect();
        cat.register(*p, &format!("{}", p.sym), columns);
    }
    cat
}

/// The `SELECT` blocks of one defined predicate's rules, joined with
/// `UNION` by [`ucq_to_sql`] (set semantics — bottom-up materialization
/// deduplicates).
fn predicate_union(
    program: &DatalogProgram,
    p: Predicate,
    cat: &Catalog,
) -> Result<String, ProgramError> {
    let rules = program.rules.iter().filter(|r| r.head.pred == p);
    ucq_to_sql(&UnionQuery::new(rules.map(rule_body).collect()), cat)
}

/// Translate a non-recursive Datalog program into a single SQL statement:
/// one `WITH`-CTE per non-goal intensional predicate (in dependency
/// order), with the goal rules as the final `SELECT` joining them — the
/// program-shaped alternative to unfolding into the flat UCQ `UNION` text.
/// A program of goal rules alone prints exactly as [`ucq_to_sql`] prints
/// their bodies.
pub fn program_to_sql(program: &DatalogProgram, catalog: &Catalog) -> Result<String, ProgramError> {
    let _ = validated_strata(program)?;
    let order = program
        .stratum_order()
        .expect("validated_strata checked acyclicity");
    if !program.defined_predicates().contains(&program.goal.pred) {
        return Ok("SELECT NULL WHERE 1 = 0".to_owned());
    }
    let cat = extended_catalog(catalog, &order);
    let mut ctes: Vec<String> = Vec::new();
    for p in order.iter().filter(|p| **p != program.goal.pred) {
        let columns: Vec<String> = (1..=p.arity).map(|i| format!("a{i}")).collect();
        let body = predicate_union(program, *p, &cat)?;
        let name = sql_ident(&cat.table(*p).expect("registered above").name);
        ctes.push(format!("{name}({}) AS (\n{body}\n)", columns.join(", ")));
    }
    let goal_select = predicate_union(program, program.goal.pred, &cat)?;
    if ctes.is_empty() {
        return Ok(goal_select);
    }
    Ok(format!("WITH {}\n{goal_select}", ctes.join(",\n")))
}

/// Translate a non-recursive Datalog program into SQL `CREATE VIEW`
/// statements, one view per intensional predicate (rule bodies become
/// `UNION` branches), ending with a `SELECT` from the goal view — for
/// DBMSs where installing views beats shipping one large statement.
pub fn program_to_sql_views(
    program: &DatalogProgram,
    catalog: &Catalog,
) -> Result<String, ProgramError> {
    let _ = validated_strata(program)?;
    let order = program
        .stratum_order()
        .expect("validated_strata checked acyclicity");
    let intensional = program.defined_predicates();
    if !intensional.contains(&program.goal.pred) {
        return Ok("SELECT NULL WHERE 1 = 0; -- unsatisfiable".to_owned());
    }
    let cat = extended_catalog(catalog, &order);
    let mut out = String::new();
    for p in order {
        let body = predicate_union(program, p, &cat)?;
        let name = sql_ident(&cat.table(p).expect("registered above").name);
        out.push_str(&format!("CREATE VIEW {name} AS\n{body};\n\n"));
    }
    out.push_str(&format!(
        "SELECT * FROM {};\n",
        sql_ident(&cat.table(program.goal.pred).expect("goal is defined").name)
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute_ucq;

    fn atom(p: &str, args: &[&str]) -> Atom {
        let terms: Vec<Term> = args
            .iter()
            .map(|a| {
                if a.chars().next().unwrap().is_uppercase() {
                    Term::var(a)
                } else {
                    Term::constant(a)
                }
            })
            .collect();
        Atom::new(Predicate::new(p, terms.len()), terms)
    }

    fn sample_program() -> DatalogProgram {
        // q(X) :- d1(X,Y), d2(Y);  d1 = r ∪ s;  d2 = t ∪ u.
        DatalogProgram::new(
            atom("ans", &["X"]),
            vec![
                DatalogRule::new(
                    atom("ans", &["X"]),
                    vec![atom("d1", &["X", "Y"]), atom("d2", &["Y"])],
                ),
                DatalogRule::new(atom("d1", &["X", "Y"]), vec![atom("r", &["X", "Y"])]),
                DatalogRule::new(atom("d1", &["X", "Y"]), vec![atom("s", &["X", "Y"])]),
                DatalogRule::new(atom("d2", &["Y"]), vec![atom("t", &["Y"])]),
                DatalogRule::new(atom("d2", &["Y"]), vec![atom("u", &["Y"])]),
            ],
        )
    }

    fn sample_db() -> Database {
        Database::from_facts([
            Atom::make("r", ["a", "b"]),
            Atom::make("s", ["c", "d"]),
            Atom::make("t", ["b"]),
            Atom::make("u", ["e"]),
        ])
    }

    #[test]
    fn program_evaluation_matches_expansion() {
        let program = sample_program();
        let db = sample_db();
        let direct = execute_program(&db, &program).unwrap();
        let expanded = execute_ucq(&db, &program.expand());
        assert_eq!(direct, expanded);
        assert_eq!(direct.len(), 1); // only r(a,b) joins t(b)
        assert!(direct.contains(&vec![Term::constant("a")]));
    }

    #[test]
    fn evaluation_never_copies_the_base_database() {
        let db = sample_db();
        let before = db.len();
        let reference = db.clone();
        let _ = execute_program(&db, &sample_program()).unwrap();
        assert_eq!(db.len(), before, "input database must stay untouched");
        // Stronger than "same length": the base tables are still the very
        // same Arcs — evaluation never triggered a copy-on-write.
        for pred in reference.predicates() {
            assert!(
                db.shares_table(&reference, pred),
                "{pred:?} was copied during program evaluation"
            );
        }
    }

    #[test]
    fn parallel_strata_match_sequential_and_share_the_base_cache() {
        // A sixth rule joins two base atoms on both columns, the shape
        // whose build side lands in the shared base cache (it derives
        // nothing: r and s share no row).
        let mut rules = sample_program().rules;
        rules.push(DatalogRule::new(
            atom("d1", &["X", "Y"]),
            vec![atom("r", &["X", "Y"]), atom("s", &["X", "Y"])],
        ));
        let program = DatalogProgram::new(atom("ans", &["X"]), rules);
        let db = sample_db();
        let cache = BuildCache::new();
        let (seq, m1) = execute_program_shared(&db, &program, 1, &cache).unwrap();
        let (par, m4) = execute_program_shared(&db, &program, 4, &cache).unwrap();
        assert_eq!(seq, par);
        assert!(m4.threads > 1, "{m4:?}");
        assert_eq!(m1.strata, 2);
        assert_eq!(m1.rules, 6);
        assert_eq!(m1.materialized_tuples, 4); // d1: 2, d2: 2 (not the goal)
                                               // The second run reuses the base-atom build sides left in `cache`.
        assert!(m4.build_cache_hits > 0, "{m4:?}");
    }

    #[test]
    fn unsatisfiable_program_yields_no_answers() {
        let program = DatalogProgram::unsatisfiable(atom("ans", &["X"]));
        assert!(execute_program(&sample_db(), &program).unwrap().is_empty());
    }

    /// A ground rule with an empty body holds once, beneath the goal and
    /// as a goal rule, and its SQL selects its row from no table.
    #[test]
    fn an_empty_body_rule_derives_its_head() {
        let fact = |p: &str, c: &str| DatalogRule {
            head: atom(p, &[c]),
            body: Vec::new(),
        };
        // ans(X) :- d2(X).  d2(Y) :- t(Y).  d2(b) :- .  ans(e) :- .
        let program = DatalogProgram::new(
            atom("ans", &["X"]),
            vec![
                DatalogRule::new(atom("ans", &["X"]), vec![atom("d2", &["X"])]),
                DatalogRule::new(atom("d2", &["Y"]), vec![atom("t", &["Y"])]),
                fact("d2", "b"),
                fact("ans", "e"),
            ],
        );
        let answers = execute_program(&sample_db(), &program).unwrap();
        let expected = [["b"], ["e"]].map(|t| vec![Term::constant(t[0])]);
        assert_eq!(answers, BTreeSet::from(expected));

        let mut catalog = Catalog::new();
        catalog.register_defaults([Predicate::new("t", 1)]);
        let sql = program_to_sql(&program, &catalog).unwrap();
        assert!(sql.contains("SELECT DISTINCT 'b' AS a1\n"), "{sql}");
        assert!(!sql.contains("FROM \n") && !sql.ends_with("FROM "), "{sql}");
    }

    #[test]
    fn recursive_program_is_a_typed_error() {
        let program = DatalogProgram::new(
            atom("p", &["X"]),
            vec![
                DatalogRule::new(atom("p", &["X"]), vec![atom("p0", &["X"])]),
                DatalogRule::new(atom("p0", &["X"]), vec![atom("p", &["X"])]),
            ],
        );
        assert_eq!(
            execute_program(&sample_db(), &program).unwrap_err(),
            ProgramError::Recursive
        );
        assert_eq!(
            program_to_sql(&program, &Catalog::new()).unwrap_err(),
            ProgramError::Recursive
        );
    }

    #[test]
    fn unsafe_rule_is_a_typed_error() {
        // Head variable Z never occurs in the body.
        let program = DatalogProgram::new(
            atom("p", &["Z"]),
            vec![DatalogRule::new(atom("p", &["Z"]), vec![atom("t", &["X"])])],
        );
        match execute_program(&sample_db(), &program) {
            Err(ProgramError::UnsafeRule { rule }) => assert!(rule.contains("p(Z)"), "{rule}"),
            other => panic!("expected UnsafeRule, got {other:?}"),
        }
    }

    #[test]
    fn unregistered_predicate_is_named_not_silently_none() {
        let program = sample_program();
        let mut catalog = Catalog::new();
        // r/2 registered, s/2 (and t, u) missing.
        catalog.register_defaults([Predicate::new("r", 2)]);
        match program_to_sql(&program, &catalog) {
            Err(ProgramError::UnregisteredPredicate { predicate }) => {
                assert!(["s", "t", "u"].contains(&predicate.as_str()), "{predicate}")
            }
            other => panic!("expected UnregisteredPredicate, got {other:?}"),
        }
    }

    #[test]
    fn untranslatable_terms_are_a_typed_error() {
        // A labeled null in a rule body: SQL has no spelling for it. The
        // Boolean head keeps the rule safe, isolating the error path.
        let program = DatalogProgram::new(
            atom("p", &[]),
            vec![DatalogRule::new(
                atom("p", &[]),
                vec![Atom::new(Predicate::new("t", 1), vec![Term::Null(1)])],
            )],
        );
        let mut catalog = Catalog::new();
        catalog.register_defaults([Predicate::new("t", 1)]);
        match program_to_sql(&program, &catalog) {
            Err(ProgramError::Untranslatable { rule }) => assert!(rule.contains("t("), "{rule}"),
            other => panic!("expected Untranslatable, got {other:?}"),
        }
        // Evaluation refuses them too: a function term in the head of a
        // rule beneath the goal would derive a tuple that is not
        // constants into the overlay.
        let f_of_x = Term::Func(nyaya_core::symbols::intern("f"), [Term::var("X")].into());
        let skolem = DatalogProgram::new(
            atom("ans", &["X"]),
            vec![
                DatalogRule::new(atom("ans", &["X"]), vec![atom("d2", &["X"])]),
                DatalogRule::new(
                    Atom::new(Predicate::new("d2", 1), vec![f_of_x]),
                    vec![atom("t", &["X"])],
                ),
            ],
        );
        match execute_program(&sample_db(), &skolem) {
            Err(ProgramError::Untranslatable { rule }) => assert!(rule.contains("f("), "{rule}"),
            other => panic!("expected Untranslatable, got {other:?}"),
        }
    }

    #[test]
    fn goal_with_constant_argument_filters() {
        // ans2(X, k) :- d(X): the goal projects a constant column.
        let program = DatalogProgram::new(
            atom("ans2", &["X", "k"]),
            vec![DatalogRule::new(
                atom("ans2", &["X", "k"]),
                vec![atom("t", &["X"])],
            )],
        );
        let ans = execute_program(&sample_db(), &program).unwrap();
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&vec![Term::constant("b"), Term::constant("k")]));
    }

    #[test]
    fn base_facts_of_a_defined_predicate_are_shadowed() {
        // Defined predicates are exactly their rules (expand() semantics):
        // a stray base fact under the same name must not leak into answers.
        let mut db = sample_db();
        db.insert(Atom::make("d1", ["z", "b"]));
        let program = sample_program();
        let direct = execute_program(&db, &program).unwrap();
        let expanded = execute_ucq(&db, &program.expand());
        assert_eq!(direct, expanded);
        assert!(!direct.contains(&vec![Term::constant("z")]));
    }

    #[test]
    fn sql_views_cover_every_defined_predicate() {
        let program = sample_program();
        let mut catalog = Catalog::new();
        catalog.register_defaults(
            ["r", "s"]
                .map(|n| Predicate::new(n, 2))
                .into_iter()
                .chain(["t", "u"].map(|n| Predicate::new(n, 1))),
        );
        let sql = program_to_sql_views(&program, &catalog).unwrap();
        assert_eq!(sql.matches("CREATE VIEW").count(), 3); // d1, d2, ans
        assert!(sql.contains("UNION"));
        assert!(sql.trim_end().ends_with("FROM ans;"));
    }

    #[test]
    fn cte_emission_defines_every_intensional_predicate_once() {
        let program = sample_program();
        let mut catalog = Catalog::new();
        catalog.register_defaults(
            ["r", "s"]
                .map(|n| Predicate::new(n, 2))
                .into_iter()
                .chain(["t", "u"].map(|n| Predicate::new(n, 1))),
        );
        let sql = program_to_sql(&program, &catalog).unwrap();
        assert!(sql.starts_with("WITH "), "{sql}");
        assert!(sql.contains("d1(a1, a2) AS ("), "{sql}");
        assert!(sql.contains("d2(a1) AS ("), "{sql}");
        // The goal is the final SELECT joining the CTEs, not a CTE itself.
        assert_eq!(sql.matches(" AS (").count(), 2, "{sql}");
        assert!(sql.contains("FROM d1 AS r0, d2 AS r1"), "{sql}");
        // A statement fragment, like ucq_to_sql: no trailing semicolon.
        assert!(!sql.trim_end().ends_with(';'), "{sql}");
    }

    #[test]
    fn sql_emissions_report_unsatisfiable() {
        let program = DatalogProgram::unsatisfiable(atom("ans", &["X"]));
        for sql in [
            program_to_sql_views(&program, &Catalog::new()).unwrap(),
            program_to_sql(&program, &Catalog::new()).unwrap(),
        ] {
            assert!(sql.contains("1 = 0"));
        }
    }
}
