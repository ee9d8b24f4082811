//! Substitutions: finite maps from variables to terms.

use std::collections::HashMap;
use std::fmt;

use crate::atom::Atom;
use crate::symbols::Symbol;
use crate::term::Term;

/// A substitution `h : vars → terms`.
///
/// Internally triangular (bindings may map variables to other bound
/// variables); [`Substitution::apply_term`] resolves chains on the fly, so
/// callers always observe the fully-applied substitution.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Substitution {
    map: HashMap<Symbol, Term>,
}

impl Substitution {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Bind `var` to `term`. Panics if `var` is already bound to a different
    /// term (bindings are decided once during unification / matching).
    pub fn bind(&mut self, var: Symbol, term: Term) {
        let prev = self.map.insert(var, term);
        debug_assert!(
            prev.is_none(),
            "variable {var} bound twice in one substitution"
        );
    }

    /// Raw (un-walked) binding lookup.
    pub fn get(&self, var: Symbol) -> Option<&Term> {
        self.map.get(&var)
    }

    pub fn contains(&self, var: Symbol) -> bool {
        self.map.contains_key(&var)
    }

    /// Iterate over the raw bindings.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Term)> {
        self.map.iter().map(|(v, t)| (*v, t))
    }

    /// Follow variable-to-variable chains: the representative term of `t`
    /// (one step at a time, without descending into function terms).
    pub(crate) fn walk<'a>(&'a self, t: &'a Term) -> &'a Term {
        let mut cur = t;
        let mut steps = 0usize;
        while let Term::Var(v) = cur {
            match self.map.get(v) {
                Some(next) => {
                    cur = next;
                    steps += 1;
                    // A substitution built with occurs checks is acyclic;
                    // guard against accidental cycles in debug builds.
                    debug_assert!(steps <= self.map.len() + 1, "cyclic substitution");
                    if steps > self.map.len() + 1 {
                        break;
                    }
                }
                None => break,
            }
        }
        cur
    }

    /// Apply the substitution exhaustively to a term.
    pub fn apply_term(&self, t: &Term) -> Term {
        let walked = self.walk(t);
        match walked {
            Term::Func(f, args) => Term::Func(
                *f,
                args.iter()
                    .map(|a| self.apply_term(a))
                    .collect::<Vec<_>>()
                    .into_boxed_slice(),
            ),
            other => other.clone(),
        }
    }

    /// Apply the substitution to an atom.
    pub fn apply_atom(&self, a: &Atom) -> Atom {
        Atom {
            pred: a.pred,
            args: a.args.iter().map(|t| self.apply_term(t)).collect(),
        }
    }

    /// Apply the substitution to a slice of atoms.
    pub fn apply_atoms(&self, atoms: &[Atom]) -> Vec<Atom> {
        atoms.iter().map(|a| self.apply_atom(a)).collect()
    }

    /// The composition `other ∘ self` (apply `self` first, then `other`).
    pub fn compose(&self, other: &Substitution) -> Substitution {
        let mut out = Substitution::new();
        for (v, t) in &self.map {
            out.map.insert(*v, other.apply_term(&self.apply_term(t)));
        }
        for (v, t) in &other.map {
            out.map.entry(*v).or_insert_with(|| other.apply_term(t));
        }
        out
    }

    /// Restrict the substitution to bindings whose variable satisfies `keep`.
    pub fn restrict(&self, keep: impl Fn(Symbol) -> bool) -> Substitution {
        let mut out = Substitution::new();
        for (v, t) in &self.map {
            if keep(*v) {
                out.map.insert(*v, self.apply_term(t));
            }
        }
        out
    }
}

impl fmt::Debug for Substitution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut entries: Vec<String> = self
            .map
            .iter()
            .map(|(v, t)| format!("{v}→{}", self.apply_term(t)))
            .collect();
        entries.sort();
        write!(f, "{{{}}}", entries.join(", "))
    }
}

#[cfg(test)]
impl Substitution {
    /// Is the substitution idempotent after full application (no bound
    /// variable occurs in any fully-applied right-hand side)?
    pub(crate) fn is_idempotent(&self) -> bool {
        self.map.keys().all(|v| {
            self.map
                .values()
                .all(|t| !self.apply_term(t).contains_var(*v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::intern;

    #[test]
    fn walk_follows_chains() {
        let mut s = Substitution::new();
        s.bind(intern("X"), Term::var("Y"));
        s.bind(intern("Y"), Term::constant("a"));
        assert_eq!(s.apply_term(&Term::var("X")), Term::constant("a"));
    }

    #[test]
    fn apply_descends_into_functions() {
        let mut s = Substitution::new();
        s.bind(intern("X"), Term::constant("a"));
        let f = Term::Func(
            intern("f"),
            vec![Term::var("X"), Term::var("Z")].into_boxed_slice(),
        );
        let applied = s.apply_term(&f);
        assert_eq!(applied.to_string(), "f(a,Z)");
    }

    #[test]
    fn compose_applies_left_then_right() {
        let mut s1 = Substitution::new();
        s1.bind(intern("X"), Term::var("Y"));
        let mut s2 = Substitution::new();
        s2.bind(intern("Y"), Term::constant("c"));
        let c = s1.compose(&s2);
        assert_eq!(c.apply_term(&Term::var("X")), Term::constant("c"));
        assert_eq!(c.apply_term(&Term::var("Y")), Term::constant("c"));
    }

    #[test]
    fn restrict_keeps_only_selected() {
        let mut s = Substitution::new();
        s.bind(intern("X"), Term::constant("a"));
        s.bind(intern("Y"), Term::constant("b"));
        let r = s.restrict(|v| v == intern("X"));
        assert!(r.contains(intern("X")));
        assert!(!r.contains(intern("Y")));
    }

    #[test]
    fn idempotence_detection() {
        let mut s = Substitution::new();
        s.bind(intern("X"), Term::var("Y"));
        s.bind(intern("Y"), Term::constant("a"));
        // After full application X→a, Y→a: idempotent, so applying the
        // substitution to its own images changes nothing.
        assert!(s.is_idempotent());
        for v in ["X", "Y"] {
            let once = s.apply_term(&Term::var(v));
            assert_eq!(once, Term::constant("a"));
            assert_eq!(s.apply_term(&once), once);
        }
    }
}
