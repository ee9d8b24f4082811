//! Atoms and predicates.

use std::fmt;

use crate::symbols::{self, Symbol};
use crate::term::Term;

/// A predicate symbol with its arity.
///
/// Two predicates are the same only if both name and arity agree; the paper's
/// positions `r[i]` are pairs of a predicate and an argument index.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Predicate {
    pub sym: Symbol,
    pub arity: usize,
}

impl Predicate {
    pub fn new(name: &str, arity: usize) -> Self {
        Predicate {
            sym: symbols::intern(name),
            arity,
        }
    }

    /// All positions `self[0] … self[arity-1]` of this predicate.
    pub fn positions(self) -> impl Iterator<Item = Position> {
        (0..self.arity).map(move |i| Position {
            pred: self,
            index: i,
        })
    }
}

impl fmt::Debug for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.sym, self.arity)
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.sym)
    }
}

/// A position `r[i]`: the `i`-th argument slot (0-based) of predicate `r`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Position {
    pub pred: Predicate,
    pub index: usize,
}

impl fmt::Debug for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The paper writes positions 1-based: r[1] is the first argument.
        write!(f, "{}[{}]", self.pred.sym, self.index + 1)
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// An atomic formula `r(t1, …, tn)`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    pub pred: Predicate,
    pub args: Vec<Term>,
}

impl Atom {
    /// Construct an atom, checking that the argument count matches the arity.
    pub fn new(pred: Predicate, args: Vec<Term>) -> Self {
        assert_eq!(
            pred.arity,
            args.len(),
            "arity mismatch constructing atom for {:?}",
            pred
        );
        Atom { pred, args }
    }

    /// Parse-free convenience constructor: `Atom::make("stock", ["X","Y"])`
    /// where lowercase-initial names become constants and uppercase-initial
    /// names become variables (Prolog convention, same as the text syntax).
    pub fn make<const N: usize>(pred: &str, args: [&str; N]) -> Self {
        let terms = args
            .iter()
            .map(|a| {
                let first = a.chars().next().expect("empty term name");
                if first.is_uppercase() {
                    Term::var(a)
                } else {
                    Term::constant(a)
                }
            })
            .collect();
        Atom::new(Predicate::new(pred, N), terms)
    }

    /// Append every variable occurrence (with repetitions) to `out`.
    pub fn collect_vars(&self, out: &mut Vec<Symbol>) {
        for t in &self.args {
            t.collect_vars(out);
        }
    }

    /// The set-like list of distinct variables, in first-occurrence order.
    pub fn variables(&self) -> Vec<Symbol> {
        let mut occ = Vec::new();
        self.collect_vars(&mut occ);
        let mut seen = Vec::new();
        for v in occ {
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
        seen
    }

    /// Does variable `v` occur in this atom?
    pub fn contains_var(&self, v: Symbol) -> bool {
        self.args.iter().any(|t| t.contains_var(v))
    }

    /// The (0-based) argument indices at which variable `v` occurs as a
    /// direct argument.
    pub fn positions_of_var(&self, v: Symbol) -> Vec<usize> {
        self.args
            .iter()
            .enumerate()
            .filter_map(|(i, t)| (t.as_var() == Some(v)).then_some(i))
            .collect()
    }

    /// True if no variable occurs in the atom (a fact).
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(Term::is_ground)
    }

    /// True if some argument is a function term.
    pub(crate) fn has_function_term(&self) -> bool {
        self.args.iter().any(|t| matches!(t, Term::Func(..)))
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred.sym)?;
        for (i, t) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn make_uses_case_convention() {
        let a = Atom::make("list_comp", ["X", "nasdaq"]);
        assert!(a.args[0].is_var());
        assert!(a.args[1].is_const());
        assert_eq!(a.to_string(), "list_comp(X,nasdaq)");
    }

    #[test]
    fn predicate_identity_includes_arity() {
        assert_ne!(Predicate::new("p", 1), Predicate::new("p", 2));
        assert_eq!(Predicate::new("p", 2), Predicate::new("p", 2));
    }

    #[test]
    fn positions_of_var_finds_all() {
        let a = Atom::make("t", ["X", "Y", "X"]);
        let x = symbols::intern("X");
        assert_eq!(a.positions_of_var(x), vec![0, 2]);
        assert_eq!(a.variables().len(), 2);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        Atom::new(Predicate::new("p", 2), vec![Term::var("X")]);
    }

    #[test]
    fn position_display_is_one_based() {
        let p = Predicate::new("r", 3);
        let pos: Vec<Position> = p.positions().collect();
        assert_eq!(pos.len(), 3);
        assert_eq!(pos[0].to_string(), "r[1]");
        assert_eq!(pos[2].to_string(), "r[3]");
    }
}
