//! Delta-rule compilation for incremental view maintenance.
//!
//! A nonrecursive Datalog program (the PR 5 compile target) is turned into
//! a *delta program*: for every rule `h :- b_1, …, b_n` and every body
//! position `i` we emit one delta rule that fires when `b_i`'s relation
//! changes. Evaluated seminaive-style — positions left of the delta atom
//! read the *new* state, positions right of it read the *old* state —
//! the delta rules enumerate exactly the derivations gained or lost by an
//! update:
//!
//! ```text
//! Δ(B_1 ⋈ … ⋈ B_n) = Σ_i  new(B_1) ⋈ … ⋈ new(B_{i-1}) ⋈ ΔB_i ⋈ old(B_{i+1}) ⋈ … ⋈ old(B_n)
//! ```
//!
//! Each valuation carries the sign of its delta tuple, so summing signed
//! derivation counts per head tuple maintains exact per-tuple *support*
//! (number of derivations); a tuple is in the view iff its support is
//! positive, which makes retractions exact without recomputation
//! (counting-based maintenance). Rules are tagged with their head
//! predicate's stratum level so a propagation pass can commit set-level
//! transitions (support 0 → positive, positive → 0) level by level before
//! higher strata read them.
//!
//! Before emitting delta rules the compiler inlines *renaming rules*
//! (`p(X, Y) :- r(Y, X)` as the only rule of a non-goal `p`). The
//! program compiler gives every body atom its own auxiliary predicate,
//! and for an atom with no alternative rewriting that predicate only
//! renames a relation; materializing it would copy the relation into the
//! view. Inlined, its uses read the relation itself.
//!
//! The compiler lives here, next to [`crate::program_opt`], because delta
//! programs are derived from the same rewriting output; the
//! [`DeltaProgram`] type lives in `nyaya-core` beside [`DatalogProgram`],
//! and evaluation in the `nyaya-sql` engine, which owns the indexes.

use std::collections::{HashMap, HashSet};
use std::fmt;

use nyaya_core::{Atom, DatalogProgram, DatalogRule, DeltaProgram, DeltaRule, Predicate, Term};

/// Why a program cannot be compiled into delta rules.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// The program's defined-predicate dependency graph has a cycle;
    /// seminaive level-by-level propagation needs a stratification.
    Recursive,
    /// A rule has a head variable that never occurs in its body, so its
    /// delta would be infinite.
    UnsafeRule {
        /// Display form of the offending rule's head.
        head: String,
    },
    /// A rule has an empty body; it asserts its head unconditionally and
    /// has no delta atom to react to.
    EmptyBody {
        /// Display form of the offending rule's head.
        head: String,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::Recursive => {
                write!(f, "cannot compile delta rules for a recursive program")
            }
            DeltaError::UnsafeRule { head } => {
                write!(f, "unsafe rule (head {head} has an unbound variable)")
            }
            DeltaError::EmptyBody { head } => {
                write!(f, "rule with empty body (head {head}) has no delta atom")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// Compile a nonrecursive Datalog program into its delta program: one
/// [`DeltaRule`] per (rule, body position) of the *inlined* program, each
/// tagged with the head predicate's stratum level.
///
/// The recursion, safety and empty-body checks run on `program` as given.
/// Then every *renaming rule* is inlined: the only rule of a non-goal
/// predicate, whose body is one atom over exactly the head's variables,
/// each used once (`p(X, Y) :- r(Y, X)`). Such a predicate is not
/// materialized; its uses read the relation it renames. A renamed tuple
/// has exactly one derivation, so every predicate the delta program
/// keeps has the same per-tuple support as without the pass; only
/// [`DeltaProgram::intensional`] and [`DeltaProgram::levels`] shrink.
pub fn compile_delta_program(program: &DatalogProgram) -> Result<DeltaProgram, DeltaError> {
    if !program.is_nonrecursive() {
        return Err(DeltaError::Recursive);
    }
    for rule in &program.rules {
        if !rule.is_safe() {
            return Err(DeltaError::UnsafeRule {
                head: rule.head.to_string(),
            });
        }
        if rule.body.is_empty() {
            return Err(DeltaError::EmptyBody {
                head: rule.head.to_string(),
            });
        }
    }
    let program = inline_renamings(program);
    let strata = program
        .strata()
        .expect("inlining keeps a program nonrecursive");
    let mut level_of: HashMap<Predicate, usize> = HashMap::new();
    for (l, preds) in strata.iter().enumerate() {
        for p in preds {
            level_of.insert(*p, l);
        }
    }
    let intensional = program.defined_predicates();
    let base = program.base_predicates();
    let mut rules = Vec::with_capacity(program.total_atoms());
    for rule in &program.rules {
        let level = level_of[&rule.head.pred];
        for delta_idx in 0..rule.body.len() {
            rules.push(DeltaRule {
                head: rule.head.clone(),
                body: rule.body.clone(),
                delta_idx,
                level,
            });
        }
    }
    Ok(DeltaProgram {
        goal: program.goal,
        levels: strata.len(),
        rules,
        intensional,
        base,
    })
}

/// Inline every renaming rule of `program` (see [`compile_delta_program`];
/// `p(X, Y) :- r(X, Y)` and `p(X, Y) :- r(Y, X)` are two). Every use
/// `p(s, t)` becomes the body atom under the head's substitution
/// (`r(t, s)` for the second), repeated until no renamed predicate is
/// left, so a chain `a → b → base` collapses onto `base`; the renaming
/// rules themselves go. A rule keeps its shape under the pass (a use is
/// replaced by an atom of the same terms), so which rules are renamings
/// is read off the input once.
fn inline_renamings(program: &DatalogProgram) -> DatalogProgram {
    let mut rules_of: HashMap<Predicate, usize> = HashMap::new();
    for rule in &program.rules {
        *rules_of.entry(rule.head.pred).or_default() += 1;
    }
    let renamings: HashMap<Predicate, &DatalogRule> = program
        .rules
        .iter()
        .filter(|r| r.head.pred != program.goal.pred && rules_of[&r.head.pred] == 1)
        .filter(|r| is_renaming(r))
        .map(|r| (r.head.pred, r))
        .collect();
    let resolve = |atom: &Atom| {
        let mut atom = atom.clone();
        while let Some(renaming) = renamings.get(&atom.pred) {
            // Head argument `i` is a variable; the body atom reads it
            // where the call passes its `i`-th term.
            let body = &renaming.body[0];
            let args = body.args.iter().map(|t| {
                let i = renaming.head.args.iter().position(|h| h == t);
                atom.args[i.expect("a renaming reads only head variables")].clone()
            });
            atom = Atom::new(body.pred, args.collect());
        }
        atom
    };
    let rules = program
        .rules
        .iter()
        .filter(|r| !renamings.contains_key(&r.head.pred))
        .map(|r| DatalogRule::new(r.head.clone(), r.body.iter().map(resolve).collect()))
        .collect();
    DatalogProgram::new(program.goal.clone(), rules)
}

/// Is `rule` `p(X̄) :- r(Ȳ)` with `X̄` distinct variables and `Ȳ` a
/// permutation of them?
fn is_renaming(rule: &DatalogRule) -> bool {
    let [atom] = rule.body.as_slice() else {
        return false;
    };
    let distinct_vars = |args: &[Term]| {
        let mut seen = HashSet::new();
        args.iter()
            .all(|t| t.as_var().is_some_and(|v| seen.insert(v)))
    };
    let (head, body) = (&rule.head.args, &atom.args);
    head.len() == body.len()
        && distinct_vars(head)
        && distinct_vars(body)
        && body.iter().all(|t| head.contains(t))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(head: Atom, body: Vec<Atom>) -> DatalogRule {
        DatalogRule { head, body }
    }

    #[test]
    fn one_delta_rule_per_body_atom() {
        // goal: q(X,Y).  q(X,Y) :- top(X), edge(X,Y), top(Y).
        //                top(X) :- c(X).  top(X) :- d(X).
        // (Two rules, so `top` is no renaming and stays.)
        let program = DatalogProgram {
            goal: Atom::make("q", ["X", "Y"]),
            rules: vec![
                rule(
                    Atom::make("q", ["X", "Y"]),
                    vec![
                        Atom::make("top", ["X"]),
                        Atom::make("edge", ["X", "Y"]),
                        Atom::make("top", ["Y"]),
                    ],
                ),
                rule(Atom::make("top", ["X"]), vec![Atom::make("c", ["X"])]),
                rule(Atom::make("top", ["X"]), vec![Atom::make("d", ["X"])]),
            ],
        };
        let delta = compile_delta_program(&program).unwrap();
        assert_eq!(delta.num_rules(), 5); // 3 for the q rule, 1 per top rule
        assert_eq!(delta.levels, 2);
        let q = Predicate::new("q", 2);
        let top = Predicate::new("top", 1);
        assert!(delta.intensional.contains(&q) && delta.intensional.contains(&top));
        assert!(delta.base.contains(&Predicate::new("edge", 2)));
        assert!(!delta.base.contains(&q));
        // Levels: top is level 0, q is level 1.
        for r in &delta.rules {
            let expect = if r.head.pred == q { 1 } else { 0 };
            assert_eq!(r.level, expect, "rule {:?}", r.head);
        }
        // delta_idx covers every body position exactly once per rule.
        let q_idxs: Vec<usize> = delta
            .rules
            .iter()
            .filter(|r| r.head.pred == q)
            .map(|r| r.delta_idx)
            .collect();
        assert_eq!(q_idxs, vec![0, 1, 2]);
    }

    /// The source rules of a delta program (its `delta_idx == 0` rules),
    /// in order.
    fn source_rules(delta: &DeltaProgram) -> Vec<DatalogRule> {
        let rules = delta.rules.iter().filter(|r| r.delta_idx == 0);
        rules
            .map(|r| rule(r.head.clone(), r.body.clone()))
            .collect()
    }

    fn preds(names: &[(&str, usize)]) -> HashSet<Predicate> {
        names.iter().map(|(n, a)| Predicate::new(n, *a)).collect()
    }

    #[test]
    fn renaming_chains_collapse_onto_the_base_relation() {
        // q(X) :- a(X, Y), s(Y).  a(X, Y) :- b(X, Y).  b(U, V) :- r(V, U).
        let program = DatalogProgram {
            goal: Atom::make("q", ["X"]),
            rules: vec![
                rule(
                    Atom::make("q", ["X"]),
                    vec![Atom::make("a", ["X", "Y"]), Atom::make("s", ["Y"])],
                ),
                rule(
                    Atom::make("a", ["X", "Y"]),
                    vec![Atom::make("b", ["X", "Y"])],
                ),
                rule(
                    Atom::make("b", ["U", "V"]),
                    vec![Atom::make("r", ["V", "U"])],
                ),
            ],
        };
        let delta = compile_delta_program(&program).unwrap();
        assert_eq!(
            source_rules(&delta),
            vec![rule(
                Atom::make("q", ["X"]),
                vec![Atom::make("r", ["Y", "X"]), Atom::make("s", ["Y"])],
            )]
        );
        assert_eq!((delta.num_rules(), delta.levels), (2, 1));
        assert_eq!(delta.intensional, preds(&[("q", 1)]));
        assert_eq!(delta.base, preds(&[("r", 2), ("s", 1)]));
    }

    #[test]
    fn a_permuted_renaming_carries_constants_and_repeats_of_its_uses() {
        // p(X, Y) :- r(Y, X), used as p(A, k) and p(B, B).
        let program = DatalogProgram {
            goal: Atom::make("q", ["A", "B"]),
            rules: vec![
                rule(
                    Atom::make("q", ["A", "B"]),
                    vec![Atom::make("p", ["A", "k"]), Atom::make("p", ["B", "B"])],
                ),
                rule(
                    Atom::make("p", ["X", "Y"]),
                    vec![Atom::make("r", ["Y", "X"])],
                ),
            ],
        };
        let delta = compile_delta_program(&program).unwrap();
        assert_eq!(
            source_rules(&delta),
            vec![rule(
                Atom::make("q", ["A", "B"]),
                vec![Atom::make("r", ["k", "A"]), Atom::make("r", ["B", "B"])],
            )]
        );
        assert_eq!(delta.intensional, preds(&[("q", 2)]));
    }

    #[test]
    fn a_renaming_of_a_union_reads_the_union() {
        // q(X) :- p(X), e(X, Y).  p(Z) :- u(Z).  u(X) :- c1(X).  u(X) :- c2(X).
        let program = DatalogProgram {
            goal: Atom::make("q", ["X"]),
            rules: vec![
                rule(
                    Atom::make("q", ["X"]),
                    vec![Atom::make("p", ["X"]), Atom::make("e", ["X", "Y"])],
                ),
                rule(Atom::make("p", ["Z"]), vec![Atom::make("u", ["Z"])]),
                rule(Atom::make("u", ["X"]), vec![Atom::make("c1", ["X"])]),
                rule(Atom::make("u", ["X"]), vec![Atom::make("c2", ["X"])]),
            ],
        };
        let delta = compile_delta_program(&program).unwrap();
        assert_eq!(
            source_rules(&delta),
            vec![
                rule(
                    Atom::make("q", ["X"]),
                    vec![Atom::make("u", ["X"]), Atom::make("e", ["X", "Y"])],
                ),
                rule(Atom::make("u", ["X"]), vec![Atom::make("c1", ["X"])]),
                rule(Atom::make("u", ["X"]), vec![Atom::make("c2", ["X"])]),
            ]
        );
        assert_eq!(delta.levels, 2);
        assert_eq!(delta.intensional, preds(&[("q", 1), ("u", 1)]));
    }

    #[test]
    fn rules_that_are_not_renamings_stay() {
        let q_rule = || {
            rule(
                Atom::make("q", ["X"]),
                vec![Atom::make("p", ["X"]), Atom::make("s", ["X"])],
            )
        };
        let cases = [
            (
                "projection",
                vec![rule(
                    Atom::make("p", ["X"]),
                    vec![Atom::make("r", ["X", "Y"])],
                )],
            ),
            (
                "repeated variable",
                vec![rule(
                    Atom::make("p", ["X"]),
                    vec![Atom::make("r", ["X", "X"])],
                )],
            ),
            (
                "constant",
                vec![rule(
                    Atom::make("p", ["X"]),
                    vec![Atom::make("r", ["X", "a"])],
                )],
            ),
            (
                "two-rule union",
                vec![
                    rule(Atom::make("p", ["X"]), vec![Atom::make("r", ["X"])]),
                    rule(Atom::make("p", ["X"]), vec![Atom::make("t", ["X"])]),
                ],
            ),
        ];
        for (name, p_rules) in cases {
            let mut rules = vec![q_rule()];
            rules.extend(p_rules);
            let program = DatalogProgram::new(Atom::make("q", ["X"]), rules.clone());
            let delta = compile_delta_program(&program).unwrap();
            assert_eq!(source_rules(&delta), rules, "{name}");
            assert_eq!(delta.num_rules(), program.total_atoms(), "{name}");
            assert_eq!(delta.intensional, preds(&[("q", 1), ("p", 1)]), "{name}");
        }

        // The goal predicate is a renaming's shape, but it is the view's
        // answer relation and stays.
        let program = DatalogProgram::new(
            Atom::make("q", ["X", "Y"]),
            vec![rule(
                Atom::make("q", ["X", "Y"]),
                vec![Atom::make("r", ["Y", "X"])],
            )],
        );
        let delta = compile_delta_program(&program).unwrap();
        assert_eq!(source_rules(&delta), program.rules);
        assert_eq!(delta.intensional, preds(&[("q", 2)]));
    }

    #[test]
    fn recursive_programs_are_rejected() {
        let program = DatalogProgram {
            goal: Atom::make("p", ["X"]),
            rules: vec![
                rule(Atom::make("p", ["X"]), vec![Atom::make("r", ["X"])]),
                rule(Atom::make("r", ["X"]), vec![Atom::make("p", ["X"])]),
            ],
        };
        assert_eq!(
            compile_delta_program(&program).unwrap_err(),
            DeltaError::Recursive
        );
    }

    #[test]
    fn unsafe_rules_are_rejected() {
        let program = DatalogProgram {
            goal: Atom::make("p", ["X", "Y"]),
            rules: vec![rule(
                Atom::make("p", ["X", "Y"]),
                vec![Atom::make("r", ["X"])],
            )],
        };
        assert!(matches!(
            compile_delta_program(&program).unwrap_err(),
            DeltaError::UnsafeRule { .. }
        ));
    }

    #[test]
    fn reads_any_matches_base_predicates_only() {
        let program = DatalogProgram {
            goal: Atom::make("q", ["X"]),
            rules: vec![rule(Atom::make("q", ["X"]), vec![Atom::make("c", ["X"])])],
        };
        let delta = compile_delta_program(&program).unwrap();
        let mut touched = HashSet::new();
        touched.insert(Predicate::new("unrelated", 1));
        assert!(!delta.reads_any(&touched));
        touched.insert(Predicate::new("c", 1));
        assert!(delta.reads_any(&touched));
    }
}
