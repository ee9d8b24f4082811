//! Homomorphisms between sets of atoms (paper, Section 3.1).
//!
//! A homomorphism maps variables to arbitrary terms of the target while
//! fixing constants; nulls and function terms on the source side must match
//! structurally. Variables occurring in the *target* are treated as frozen
//! values (this is exactly what containment mappings and NC pruning need).

use std::collections::HashMap;

use crate::atom::{Atom, Predicate};
use crate::substitution::Substitution;
use crate::symbols::Symbol;
use crate::term::Term;

/// A reusable homomorphism search over a fixed target atom set.
pub struct HomSearch<'a> {
    index: HashMap<Predicate, Vec<&'a Atom>>,
}

impl<'a> HomSearch<'a> {
    pub fn new(target: &'a [Atom]) -> Self {
        let mut index: HashMap<Predicate, Vec<&'a Atom>> = HashMap::new();
        for a in target {
            index.entry(a.pred).or_default().push(a);
        }
        HomSearch { index }
    }

    /// Find one homomorphism from `from` into the target extending `init`.
    pub fn find(&self, from: &[Atom], init: &Substitution) -> Option<Substitution> {
        let mut found = None;
        self.search(from, init, &mut |s| {
            found = Some(s.clone());
            false // stop at the first one
        });
        found
    }

    /// Is there any homomorphism from `from` into the target extending
    /// `init`?
    pub fn exists(&self, from: &[Atom], init: &Substitution) -> bool {
        let mut any = false;
        self.search(from, init, &mut |_| {
            any = true;
            false
        });
        any
    }

    /// Enumerate homomorphisms; the callback returns `false` to stop early.
    pub fn search(
        &self,
        from: &[Atom],
        init: &Substitution,
        visit: &mut dyn FnMut(&Substitution) -> bool,
    ) {
        let mut bindings: HashMap<Symbol, Term> = HashMap::new();
        for (v, t) in init.iter() {
            bindings.insert(v, init.apply_term(t));
        }
        // Order atoms so that ones constrained by already-bound variables
        // come early: simple static heuristic — most distinct variables last.
        let mut order: Vec<&Atom> = from.iter().collect();
        order.sort_by_key(|a| a.variables().len());
        let mut trail: Vec<Symbol> = Vec::new();
        self.backtrack(&order, 0, &mut bindings, &mut trail, visit);
    }

    fn backtrack(
        &self,
        from: &[&Atom],
        depth: usize,
        bindings: &mut HashMap<Symbol, Term>,
        trail: &mut Vec<Symbol>,
        visit: &mut dyn FnMut(&Substitution) -> bool,
    ) -> bool {
        if depth == from.len() {
            let mut s = Substitution::new();
            for (v, t) in bindings.iter() {
                s.bind(*v, t.clone());
            }
            return visit(&s);
        }
        let atom = from[depth];
        let Some(candidates) = self.index.get(&atom.pred) else {
            return true; // no candidates: this branch fails, keep searching elsewhere
        };
        for cand in candidates {
            let mark = trail.len();
            if match_atom(atom, cand, bindings, trail)
                && !self.backtrack(from, depth + 1, bindings, trail, visit)
            {
                undo(bindings, trail, mark);
                return false;
            }
            undo(bindings, trail, mark);
        }
        true
    }
}

fn undo(bindings: &mut HashMap<Symbol, Term>, trail: &mut Vec<Symbol>, mark: usize) {
    while trail.len() > mark {
        let v = trail.pop().expect("trail underflow");
        bindings.remove(&v);
    }
}

fn match_atom(
    from: &Atom,
    to: &Atom,
    bindings: &mut HashMap<Symbol, Term>,
    trail: &mut Vec<Symbol>,
) -> bool {
    debug_assert_eq!(from.pred, to.pred);
    from.args
        .iter()
        .zip(to.args.iter())
        .all(|(s, t)| match_term(s, t, bindings, trail))
}

/// Match source term `s` against fixed target term `t`.
fn match_term(
    s: &Term,
    t: &Term,
    bindings: &mut HashMap<Symbol, Term>,
    trail: &mut Vec<Symbol>,
) -> bool {
    match s {
        Term::Var(v) => match bindings.get(v) {
            Some(bound) => bound == t,
            None => {
                bindings.insert(*v, t.clone());
                trail.push(*v);
                true
            }
        },
        Term::Const(c) => matches!(t, Term::Const(d) if d == c),
        Term::Null(n) => matches!(t, Term::Null(m) if m == n),
        Term::Func(f, fargs) => match t {
            Term::Func(g, gargs) if g == f && gargs.len() == fargs.len() => fargs
                .iter()
                .zip(gargs.iter())
                .all(|(x, y)| match_term(x, y, bindings, trail)),
            _ => false,
        },
    }
}

/// One-shot convenience: is there a homomorphism `from → to`?
pub fn exists_homomorphism(from: &[Atom], to: &[Atom]) -> bool {
    HomSearch::new(to).exists(from, &Substitution::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atoms(spec: &[(&str, &[&str])]) -> Vec<Atom> {
        spec.iter()
            .map(|(p, args)| {
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
            })
            .collect()
    }

    #[test]
    fn maps_variables_to_constants() {
        let from = atoms(&[("p", &["X", "Y"])]);
        let to = atoms(&[("p", &["a", "b"])]);
        let h = HomSearch::new(&to)
            .find(&from, &Substitution::new())
            .unwrap();
        assert_eq!(h.apply_atom(&from[0]).to_string(), "p(a,b)");
    }

    #[test]
    fn respects_constants() {
        let from = atoms(&[("p", &["a"])]);
        let to = atoms(&[("p", &["b"])]);
        assert!(!exists_homomorphism(&from, &to));
    }

    #[test]
    fn joins_must_agree() {
        // p(X), r(X) → target has p(a), r(b): no homomorphism.
        let from = atoms(&[("p", &["X"]), ("r", &["X"])]);
        let to_bad = atoms(&[("p", &["a"]), ("r", &["b"])]);
        let to_good = atoms(&[("p", &["a"]), ("r", &["a"]), ("r", &["b"])]);
        assert!(!exists_homomorphism(&from, &to_bad));
        assert!(exists_homomorphism(&from, &to_good));
    }

    #[test]
    fn target_variables_are_frozen() {
        // X can map to the frozen variable W of the target.
        let from = atoms(&[("p", &["X", "X"])]);
        let to = atoms(&[("p", &["W", "W"])]);
        assert!(exists_homomorphism(&from, &to));
        // but p(X,X) cannot map to p(W,U) with distinct frozen vars.
        let to2 = atoms(&[("p", &["W", "U"])]);
        assert!(!exists_homomorphism(&from, &to2));
    }

    #[test]
    fn initial_bindings_constrain_search() {
        let from = atoms(&[("p", &["X"])]);
        let to = atoms(&[("p", &["a"]), ("p", &["b"])]);
        let mut init = Substitution::new();
        init.bind(crate::symbols::intern("X"), Term::constant("b"));
        let h = HomSearch::new(&to).find(&from, &init).unwrap();
        assert_eq!(h.apply_term(&Term::var("X")), Term::constant("b"));
        let mut init_bad = Substitution::new();
        init_bad.bind(crate::symbols::intern("X"), Term::constant("c"));
        assert!(!HomSearch::new(&to).exists(&from, &init_bad));
    }

    #[test]
    fn enumerates_all_homomorphisms() {
        let from = atoms(&[("p", &["X"])]);
        let to = atoms(&[("p", &["a"]), ("p", &["b"]), ("p", &["c"])]);
        let mut images = Vec::new();
        HomSearch::new(&to).search(&from, &Substitution::new(), &mut |s| {
            images.push(s.apply_term(&Term::var("X")).to_string());
            true
        });
        images.sort();
        assert_eq!(images, vec!["a", "b", "c"]);
    }

    #[test]
    fn function_terms_match_structurally() {
        use crate::symbols::intern;
        let f_x = Term::Func(intern("f"), vec![Term::var("X")].into_boxed_slice());
        let f_a = Term::Func(intern("f"), vec![Term::constant("a")].into_boxed_slice());
        let from = vec![Atom::new(Predicate::new("p", 1), vec![f_x])];
        let to = vec![Atom::new(Predicate::new("p", 1), vec![f_a])];
        let h = HomSearch::new(&to)
            .find(&from, &Substitution::new())
            .unwrap();
        assert_eq!(h.apply_term(&Term::var("X")), Term::constant("a"));
    }
}
