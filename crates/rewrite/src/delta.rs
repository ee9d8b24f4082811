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
//! The compiler lives here, next to [`crate::program_opt`], because delta
//! programs are derived from the same rewriting output; the
//! [`DeltaProgram`] type lives in `nyaya-core` beside [`DatalogProgram`],
//! and evaluation in the `nyaya-sql` engine, which owns the indexes.

use std::collections::HashMap;
use std::fmt;

use nyaya_core::{DatalogProgram, DeltaProgram, DeltaRule, Predicate};

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
/// [`DeltaRule`] per (rule, body position), each tagged with the head
/// predicate's stratum level.
pub fn compile_delta_program(program: &DatalogProgram) -> Result<DeltaProgram, DeltaError> {
    let strata = program.strata().ok_or(DeltaError::Recursive)?;
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
        goal: program.goal.clone(),
        levels: strata.len(),
        rules,
        intensional,
        base,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    use nyaya_core::{Atom, DatalogRule};

    fn rule(head: Atom, body: Vec<Atom>) -> DatalogRule {
        DatalogRule { head, body }
    }

    #[test]
    fn one_delta_rule_per_body_atom() {
        // goal: q(X,Y).  q(X,Y) :- top(X), edge(X,Y), top(Y).
        //                top(X) :- c(X).
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
            ],
        };
        let delta = compile_delta_program(&program).unwrap();
        assert_eq!(delta.num_rules(), 4); // 3 for the q rule, 1 for the top rule
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
