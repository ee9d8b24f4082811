//! Non-recursive Datalog programs as an alternative rewriting target.
//!
//! Section 2 of the paper contrasts UCQ rewritings with the non-recursive
//! Datalog programs produced by Presto \[20\]: a program can "hide" the
//! exponential disjunctive normal form inside intermediate rules, at the
//! price of being harder to distribute and less amenable to existing UCQ
//! optimizers. Section 8 lists rewriting into non-recursive Datalog as
//! future work. This module provides the shared *representation*: rules,
//! programs, stratification, size metrics, and the unfolding back into a
//! [`UnionQuery`] used to prove a program equivalent to a UCQ rewriting.
//!
//! The construction of programs from a query and a TGD set lives in
//! `nyaya-rewrite` (`nr_datalog_rewrite` and its optimizer); evaluation
//! over a database lives in `nyaya-sql` (`execute_program` bottom-up,
//! `MaterializedView` for a standing query's support-counted view).

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::atom::{Atom, Predicate};
use crate::canonical::canonical_key;
use crate::query::{ConjunctiveQuery, UnionQuery};
use crate::substitution::Substitution;
use crate::symbols;
use crate::term::Term;
use crate::unify::unify_atoms_into;

/// A single (plain, positive) Datalog rule `head :- body`.
#[derive(Clone, PartialEq, Eq)]
pub struct DatalogRule {
    pub head: Atom,
    pub body: Vec<Atom>,
}

impl DatalogRule {
    pub fn new(head: Atom, body: Vec<Atom>) -> Self {
        assert!(!body.is_empty(), "Datalog rule body must be non-empty");
        DatalogRule { head, body }
    }

    /// Is the rule range-restricted (every head variable occurs in the
    /// body)? Rules produced by the rewriter always are; the check guards
    /// hand-constructed programs.
    pub fn is_safe(&self) -> bool {
        let mut head_vars = Vec::new();
        self.head.collect_vars(&mut head_vars);
        head_vars
            .iter()
            .all(|v| self.body.iter().any(|a| a.contains_var(*v)))
    }
}

impl fmt::Display for DatalogRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} :- ", self.head)?;
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ".")
    }
}

impl fmt::Debug for DatalogRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A non-recursive Datalog program with a distinguished goal atom.
///
/// Predicates appearing in some rule head are *defined* (intensional);
/// all others are *base* (extensional, i.e. database relations). The goal
/// atom's predicate must be defined.
#[derive(Clone)]
pub struct DatalogProgram {
    /// The answer atom `q(X̄)`; its predicate is defined by the program.
    pub goal: Atom,
    pub rules: Vec<DatalogRule>,
}

impl DatalogProgram {
    pub fn new(goal: Atom, rules: Vec<DatalogRule>) -> Self {
        DatalogProgram { goal, rules }
    }

    /// An unsatisfiable program (no rule ever derives the goal) — produced
    /// when negative-constraint pruning empties a rewriting.
    pub fn unsatisfiable(goal: Atom) -> Self {
        DatalogProgram {
            goal,
            rules: Vec::new(),
        }
    }

    /// Predicates defined by some rule head.
    pub fn defined_predicates(&self) -> HashSet<Predicate> {
        self.rules.iter().map(|r| r.head.pred).collect()
    }

    /// Base (extensional) predicates: those used in rule bodies but never
    /// defined.
    pub fn base_predicates(&self) -> HashSet<Predicate> {
        let defined = self.defined_predicates();
        let mut base = HashSet::new();
        for r in &self.rules {
            for a in &r.body {
                if !defined.contains(&a.pred) {
                    base.insert(a.pred);
                }
            }
        }
        base
    }

    /// Number of rules.
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }

    /// Total number of body atoms over all rules — the program-size
    /// analogue of the UCQ `length` metric.
    pub fn total_atoms(&self) -> usize {
        self.rules.iter().map(|r| r.body.len()).sum()
    }

    /// Defined predicates in dependency order (a predicate appears after
    /// every defined predicate its rules use), or `None` if the program is
    /// recursive.
    pub fn stratum_order(&self) -> Option<Vec<Predicate>> {
        let defined = self.defined_predicates();
        // deps[p] = defined predicates used by rules with head p.
        let mut deps: HashMap<Predicate, HashSet<Predicate>> = HashMap::new();
        for r in &self.rules {
            let entry = deps.entry(r.head.pred).or_default();
            for a in &r.body {
                if defined.contains(&a.pred) {
                    entry.insert(a.pred);
                }
            }
        }
        // Kahn's algorithm over the defined-predicate graph.
        let mut order = Vec::with_capacity(deps.len());
        let mut placed: HashSet<Predicate> = HashSet::new();
        while placed.len() < deps.len() {
            let mut progressed = false;
            let mut ready: Vec<Predicate> = deps
                .iter()
                .filter(|(p, ds)| !placed.contains(*p) && ds.iter().all(|d| placed.contains(d)))
                .map(|(p, _)| *p)
                .collect();
            ready.sort();
            for p in ready {
                placed.insert(p);
                order.push(p);
                progressed = true;
            }
            if !progressed {
                return None; // cycle
            }
        }
        Some(order)
    }

    /// Is the program non-recursive (the defined-predicate dependency graph
    /// is acyclic)?
    pub fn is_nonrecursive(&self) -> bool {
        self.stratum_order().is_some()
    }

    /// Defined predicates grouped into evaluation *levels*: a predicate at
    /// level `k` depends only on base predicates and defined predicates of
    /// levels `< k`, so all predicates of one level can be materialized in
    /// parallel once every lower level is done. `None` if the program is
    /// recursive. Levels are sorted internally for determinism.
    pub fn strata(&self) -> Option<Vec<Vec<Predicate>>> {
        // stratum_order does the cycle detection; walking its order, every
        // defined body predicate of `p`'s rules already has a level.
        let order = self.stratum_order()?;
        let mut level: HashMap<Predicate, usize> = HashMap::new();
        let mut levels: Vec<Vec<Predicate>> = Vec::new();
        for p in order {
            let l = self
                .rules
                .iter()
                .filter(|r| r.head.pred == p)
                .flat_map(|r| r.body.iter())
                .filter_map(|a| level.get(&a.pred).map(|d| d + 1))
                .max()
                .unwrap_or(0);
            level.insert(p, l);
            if levels.len() <= l {
                levels.resize_with(l + 1, Vec::new);
            }
            levels[l].push(p);
        }
        for l in &mut levels {
            l.sort();
        }
        Some(levels)
    }

    /// Deterministic rendering for program comparison: defined predicates
    /// are renamed `d0, d1, …` in first-occurrence order over the goal
    /// atom and the rules, so two programs that differ only in the
    /// globally-fresh names minted for their intensional predicates (e.g.
    /// a sequential and a parallel run of the clustered rewriter) print
    /// identically iff they are the same program.
    pub fn canonical_text(&self) -> String {
        use std::fmt::Write as _;
        let defined = self.defined_predicates();
        let mut names: HashMap<Predicate, String> = HashMap::new();
        let rename = |names: &mut HashMap<Predicate, String>, p: Predicate| -> String {
            if !defined.contains(&p) {
                return p.sym.to_string();
            }
            let next = names.len();
            names.entry(p).or_insert_with(|| format!("d{next}")).clone()
        };
        let atom_text = |names: &mut HashMap<Predicate, String>, a: &Atom| -> String {
            let name = rename(names, a.pred);
            let args: Vec<String> = a.args.iter().map(|t| t.to_string()).collect();
            format!("{name}({})", args.join(", "))
        };
        let mut out = String::new();
        let _ = writeln!(out, "goal: {}", atom_text(&mut names, &self.goal));
        for r in &self.rules {
            let head = atom_text(&mut names, &r.head);
            let body: Vec<String> = r.body.iter().map(|a| atom_text(&mut names, a)).collect();
            let _ = writeln!(out, "{head} :- {}.", body.join(", "));
        }
        out
    }

    /// Unfold the program into the equivalent union of conjunctive queries
    /// (the disjunctive normal form the program "hides", Section 2).
    ///
    /// Every defined predicate is expanded bottom-up into a set of
    /// base-only bodies; the goal atom's expansions become the CQs of the
    /// union. Panics on recursive programs.
    pub fn expand(&self) -> UnionQuery {
        let order = self
            .stratum_order()
            .expect("expand() requires a non-recursive program");
        if !self.defined_predicates().contains(&self.goal.pred) {
            // No rule ever derives the goal: the empty union (false).
            return UnionQuery::default();
        }
        // For each defined predicate: (head-argument pattern, base-only body).
        let mut expansions: Expansions = HashMap::new();
        for p in order {
            let mut entries: Vec<(Vec<Term>, Vec<Atom>)> = Vec::new();
            let mut seen: HashSet<String> = HashSet::new();
            for rule in self.rules.iter().filter(|r| r.head.pred == p) {
                for (body, s) in unfold_body(&rule.body, &expansions) {
                    let head: Vec<Term> = rule.head.args.iter().map(|t| s.apply_term(t)).collect();
                    // Dedup modulo bijective renaming via the CQ canonical key.
                    let key = canonical_key(&ConjunctiveQuery::new(head.clone(), body.clone()));
                    if seen.insert(key.as_str().to_owned()) {
                        entries.push((head, body));
                    }
                }
            }
            expansions.insert(p, entries);
        }
        let mut cqs = Vec::new();
        let mut seen: HashSet<String> = HashSet::new();
        for (body, s) in unfold_body(std::slice::from_ref(&self.goal), &expansions) {
            let head: Vec<Term> = self.goal.args.iter().map(|t| s.apply_term(t)).collect();
            let cq = ConjunctiveQuery::new(head, body);
            let key = canonical_key(&cq);
            if seen.insert(key.as_str().to_owned()) {
                cqs.push(cq);
            }
        }
        UnionQuery::new(cqs)
    }
}

/// The fully-unfolded alternatives of a defined predicate: one
/// (head-argument pattern, base-only body) entry per derivation.
type Expansions = HashMap<Predicate, Vec<(Vec<Term>, Vec<Atom>)>>;

/// All ways of replacing defined-predicate atoms in `body` by their
/// (renamed-apart) expansions; atoms over base predicates stay. Each
/// alternative carries the substitution accumulated by call-site
/// unification, which the caller must also apply to the rule head.
fn unfold_body(body: &[Atom], expansions: &Expansions) -> Vec<(Vec<Atom>, Substitution)> {
    let mut alts: Vec<(Vec<Atom>, Substitution)> = vec![(Vec::new(), Substitution::new())];
    for atom in body {
        match expansions.get(&atom.pred) {
            None => {
                for (b, _) in &mut alts {
                    b.push(atom.clone());
                }
            }
            Some(entries) => {
                let mut next = Vec::new();
                for (args, exp_body) in entries {
                    let (r_args, r_body) = rename_apart(args, exp_body);
                    let call = Atom::new(atom.pred, r_args);
                    for (b, s) in &alts {
                        let mut s2 = s.clone();
                        if !unify_atoms_into(atom, &call, &mut s2) {
                            continue; // constant clash — this disjunct is dead
                        }
                        let mut nb = b.clone();
                        nb.extend(r_body.iter().cloned());
                        next.push((nb, s2));
                    }
                }
                alts = next;
            }
        }
    }
    // Apply each alternative's final substitution and deduplicate atoms
    // (unification may have collapsed previously distinct ones).
    alts.into_iter()
        .filter_map(|(atoms, s)| {
            let mut out: Vec<Atom> = Vec::with_capacity(atoms.len());
            for a in &atoms {
                let a = s.apply_atom(a);
                if !out.contains(&a) {
                    out.push(a);
                }
            }
            (!out.is_empty()).then_some((out, s))
        })
        .collect()
}

/// Rename the variables of an expansion entry apart from everything else.
fn rename_apart(args: &[Term], body: &[Atom]) -> (Vec<Term>, Vec<Atom>) {
    let mut vars = Vec::new();
    for t in args {
        t.collect_vars(&mut vars);
    }
    for a in body {
        a.collect_vars(&mut vars);
    }
    let mut s = Substitution::new();
    for v in vars {
        if !s.contains(v) {
            s.bind(v, Term::Var(symbols::fresh("U")));
        }
    }
    (
        args.iter().map(|t| s.apply_term(t)).collect(),
        body.iter().map(|a| s.apply_atom(a)).collect(),
    )
}

impl fmt::Display for DatalogProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "goal: {}", self.goal)?;
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn simple_program() -> DatalogProgram {
        // q(X) :- d1(X,Y), d2(Y).   d1(X,Y) :- r(X,Y).  d1(X,Y) :- s(X,Y).
        // d2(Y) :- t(Y).            d2(Y) :- u(Y).
        DatalogProgram::new(
            atom("q", &["X"]),
            vec![
                DatalogRule::new(
                    atom("q", &["X"]),
                    vec![atom("d1", &["X", "Y"]), atom("d2", &["Y"])],
                ),
                DatalogRule::new(atom("d1", &["X", "Y"]), vec![atom("r", &["X", "Y"])]),
                DatalogRule::new(atom("d1", &["X", "Y"]), vec![atom("s", &["X", "Y"])]),
                DatalogRule::new(atom("d2", &["Y"]), vec![atom("t", &["Y"])]),
                DatalogRule::new(atom("d2", &["Y"]), vec![atom("u", &["Y"])]),
            ],
        )
    }

    #[test]
    fn base_and_defined_predicates() {
        let p = simple_program();
        let defined = p.defined_predicates();
        assert_eq!(defined.len(), 3);
        assert!(defined.contains(&Predicate::new("q", 1)));
        let base = p.base_predicates();
        assert_eq!(base.len(), 4);
        assert!(base.contains(&Predicate::new("r", 2)));
    }

    #[test]
    fn stratum_order_is_dependency_respecting() {
        let p = simple_program();
        let order = p.stratum_order().unwrap();
        let pos = |name: &str, ar: usize| {
            order
                .iter()
                .position(|q| *q == Predicate::new(name, ar))
                .unwrap()
        };
        assert!(pos("d1", 2) < pos("q", 1));
        assert!(pos("d2", 1) < pos("q", 1));
    }

    #[test]
    fn strata_group_independent_predicates() {
        // d1 and d2 are independent (level 0); q joins them (level 1).
        let p = simple_program();
        let levels = p.strata().unwrap();
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0].len(), 2, "{levels:?}");
        assert_eq!(levels[1], vec![Predicate::new("q", 1)]);
        // A recursive program has no strata.
        let rec = DatalogProgram::new(
            atom("q", &["X"]),
            vec![
                DatalogRule::new(atom("q", &["X"]), vec![atom("p", &["X"])]),
                DatalogRule::new(atom("p", &["X"]), vec![atom("q", &["X"])]),
            ],
        );
        assert!(rec.strata().is_none());
    }

    #[test]
    fn canonical_text_erases_intensional_names_only() {
        // Two copies of the same program with differently-named defs must
        // print identically; base predicates keep their names.
        let build = |d1: &str, d2: &str| {
            DatalogProgram::new(
                atom("q", &["X"]),
                vec![
                    DatalogRule::new(
                        atom("q", &["X"]),
                        vec![atom(d1, &["X", "Y"]), atom(d2, &["Y"])],
                    ),
                    DatalogRule::new(atom(d1, &["X", "Y"]), vec![atom("r", &["X", "Y"])]),
                    DatalogRule::new(atom(d2, &["Y"]), vec![atom("t", &["Y"])]),
                ],
            )
        };
        let a = build("_def7", "_def8");
        let b = build("_def91", "_def92");
        assert_eq!(a.canonical_text(), b.canonical_text());
        assert!(a.canonical_text().contains("r(X, Y)"), "base names kept");
        // Swapping rule content must still be visible.
        let c = build("_def7", "_def8");
        let mut d = c.clone();
        d.rules[2] = DatalogRule::new(atom("_def8", &["Y"]), vec![atom("u", &["Y"])]);
        assert_ne!(c.canonical_text(), d.canonical_text());
    }

    #[test]
    fn recursion_is_detected() {
        let p = DatalogProgram::new(
            atom("q", &["X"]),
            vec![
                DatalogRule::new(atom("q", &["X"]), vec![atom("p", &["X"])]),
                DatalogRule::new(atom("p", &["X"]), vec![atom("q", &["X"])]),
            ],
        );
        assert!(!p.is_nonrecursive());
        assert!(p.stratum_order().is_none());
    }

    #[test]
    fn expansion_is_the_cross_product() {
        // 2 alternatives × 2 alternatives = 4 CQs in DNF, while the program
        // itself has 5 rules / 6 atoms — the "hiding" of Section 2.
        let p = simple_program();
        let u = p.expand();
        assert_eq!(u.size(), 4);
        assert_eq!(u.length(), 8); // each CQ has 2 atoms
        assert!(p.total_atoms() < u.length());
    }

    #[test]
    fn expansion_unifies_call_sites() {
        // q(X) :- d(X,X) forces both def arguments equal.
        let p = DatalogProgram::new(
            atom("q", &["X"]),
            vec![
                DatalogRule::new(atom("q", &["X"]), vec![atom("d", &["X", "X"])]),
                DatalogRule::new(atom("d", &["A", "B"]), vec![atom("r", &["A", "B"])]),
            ],
        );
        let u = p.expand();
        assert_eq!(u.size(), 1);
        let cq = &u.cqs[0];
        assert_eq!(cq.body.len(), 1);
        assert_eq!(cq.body[0].args[0], cq.body[0].args[1]);
    }

    #[test]
    fn expansion_drops_constant_clashes() {
        // d is only defined for the constant `a`; calling it with `b` kills
        // the disjunct.
        let p = DatalogProgram::new(
            atom("q", &["X"]),
            vec![
                DatalogRule::new(
                    atom("q", &["X"]),
                    vec![atom("r", &["X"]), atom("d", &["b"])],
                ),
                DatalogRule::new(atom("d", &["a"]), vec![atom("s", &["a"])]),
            ],
        );
        assert!(p.expand().is_empty());
    }

    #[test]
    fn unsatisfiable_program_expands_to_empty_union() {
        let p = DatalogProgram::unsatisfiable(atom("q", &["X"]));
        assert!(p.expand().is_empty());
        assert!(p.is_nonrecursive());
    }

    #[test]
    fn safety_check() {
        let safe = DatalogRule::new(atom("q", &["X"]), vec![atom("r", &["X", "Y"])]);
        assert!(safe.is_safe());
        let unsafe_rule = DatalogRule::new(atom("q", &["Z"]), vec![atom("r", &["X", "Y"])]);
        assert!(!unsafe_rule.is_safe());
    }

    #[test]
    fn nested_definitions_expand_transitively() {
        // q(X) :- d1(X);  d1(X) :- d2(X), w(X);  d2(X) :- r(X) | s(X).
        let p = DatalogProgram::new(
            atom("q", &["X"]),
            vec![
                DatalogRule::new(atom("q", &["X"]), vec![atom("d1", &["X"])]),
                DatalogRule::new(
                    atom("d1", &["X"]),
                    vec![atom("d2", &["X"]), atom("w", &["X"])],
                ),
                DatalogRule::new(atom("d2", &["X"]), vec![atom("r", &["X"])]),
                DatalogRule::new(atom("d2", &["X"]), vec![atom("s", &["X"])]),
            ],
        );
        let u = p.expand();
        assert_eq!(u.size(), 2);
        for cq in u.iter() {
            assert_eq!(cq.body.len(), 2);
        }
    }
}
