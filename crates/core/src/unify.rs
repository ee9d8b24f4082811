//! First-order unification and most general unifiers (MGUs) for atom sets.
//!
//! The rewriting algorithm (Section 5) needs MGUs of sets of atoms
//! `A ∪ {head(σ)}`; the Requiem-style baseline additionally unifies function
//! terms, so we implement full Robinson unification with an occurs check.

use crate::atom::Atom;
use crate::substitution::Substitution;
use crate::term::Term;

/// Unify two terms under the current bindings in `subst`, extending it.
///
/// Returns `false` (leaving `subst` in a partially-extended state — callers
/// discard it on failure) if the terms are not unifiable.
pub(crate) fn unify_terms(a: &Term, b: &Term, subst: &mut Substitution) -> bool {
    let ra = subst.walk(a).clone();
    let rb = subst.walk(b).clone();
    match (ra, rb) {
        (Term::Var(x), Term::Var(y)) if x == y => true,
        (Term::Var(x), t) => {
            if occurs(x, &t, subst) {
                return false;
            }
            subst.bind(x, t);
            true
        }
        (t, Term::Var(y)) => {
            if occurs(y, &t, subst) {
                return false;
            }
            subst.bind(y, t);
            true
        }
        (Term::Const(c), Term::Const(d)) => c == d,
        (Term::Null(m), Term::Null(n)) => m == n,
        (Term::Func(f, fa), Term::Func(g, ga)) => {
            if f != g || fa.len() != ga.len() {
                return false;
            }
            fa.iter()
                .zip(ga.iter())
                .all(|(x, y)| unify_terms(x, y, subst))
        }
        _ => false,
    }
}

/// Occurs check: does `v` occur in `t` once bindings are resolved?
fn occurs(v: crate::symbols::Symbol, t: &Term, subst: &Substitution) -> bool {
    match subst.walk(t) {
        Term::Var(w) => *w == v,
        Term::Func(_, args) => args.iter().any(|a| occurs(v, a, subst)),
        _ => false,
    }
}

/// Unify two atoms, extending `subst`. Fails fast on predicate mismatch.
pub(crate) fn unify_atoms_into(a: &Atom, b: &Atom, subst: &mut Substitution) -> bool {
    if a.pred != b.pred {
        return false;
    }
    a.args
        .iter()
        .zip(b.args.iter())
        .all(|(x, y)| unify_terms(x, y, subst))
}

/// The MGU of a pair of atoms, if it exists.
pub fn mgu_pair(a: &Atom, b: &Atom) -> Option<Substitution> {
    let mut s = Substitution::new();
    unify_atoms_into(a, b, &mut s).then_some(s)
}

/// The MGU of a set of atoms (`γ_A` in the paper): a substitution `γ` with
/// `γ(a_1) = … = γ(a_n)`. For a singleton set this is the identity.
///
/// The MGU is unique modulo variable renaming (paper, Section 5).
pub fn mgu_set(atoms: &[&Atom]) -> Option<Substitution> {
    let mut s = Substitution::new();
    if atoms.len() < 2 {
        return Some(s);
    }
    let first = atoms[0];
    for other in &atoms[1..] {
        if !unify_atoms_into(first, other, &mut s) {
            return None;
        }
    }
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::intern;

    fn atom(s: &str) -> Atom {
        // tiny helper: "p(X,a)" — single-letter-ish args, no nesting
        let open = s.find('(').unwrap();
        let pred = &s[..open];
        let inner = &s[open + 1..s.len() - 1];
        let args: Vec<&str> = if inner.is_empty() {
            vec![]
        } else {
            inner.split(',').collect()
        };
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
        Atom::new(crate::atom::Predicate::new(pred, terms.len()), terms)
    }

    #[test]
    fn unifies_var_with_constant() {
        let a = atom("p(X,a)");
        let b = atom("p(b,Y)");
        let s = mgu_pair(&a, &b).unwrap();
        assert_eq!(s.apply_atom(&a), s.apply_atom(&b));
        assert_eq!(s.apply_atom(&a).to_string(), "p(b,a)");
    }

    #[test]
    fn constant_clash_fails() {
        assert!(mgu_pair(&atom("p(a)"), &atom("p(b)")).is_none());
    }

    #[test]
    fn predicate_mismatch_fails() {
        assert!(mgu_pair(&atom("p(X)"), &atom("q(X)")).is_none());
    }

    #[test]
    fn repeated_vars_propagate() {
        // p(X,X) with p(a,Y) forces Y=a.
        let a = atom("p(X,X)");
        let b = atom("p(a,Y)");
        let s = mgu_pair(&a, &b).unwrap();
        assert_eq!(s.apply_term(&Term::var("Y")), Term::constant("a"));
    }

    #[test]
    fn occurs_check_blocks_cyclic_unifier() {
        let x = Term::var("X");
        let f = Term::Func(intern("f"), vec![Term::var("X")].into_boxed_slice());
        let mut s = Substitution::new();
        assert!(!unify_terms(&x, &f, &mut s));
    }

    #[test]
    fn mgu_of_three_atoms() {
        // Example 1 of the paper unifies t(A,B,C), t(A,E,C) via {E→B}.
        let a1 = atom("t(A,B,C)");
        let a2 = atom("t(A,E,C)");
        let s = mgu_set(&[&a1, &a2]).unwrap();
        assert_eq!(s.apply_atom(&a1), s.apply_atom(&a2));
        // Triple set with a constant.
        let b1 = atom("r(X,a)");
        let b2 = atom("r(Y,Z)");
        let b3 = atom("r(W,W)");
        let s = mgu_set(&[&b1, &b2, &b3]).unwrap();
        let u1 = s.apply_atom(&b1);
        assert_eq!(u1, s.apply_atom(&b2));
        assert_eq!(u1, s.apply_atom(&b3));
        assert_eq!(u1.args[0], Term::constant("a"));
    }

    #[test]
    fn function_terms_unify_structurally() {
        let f1 = Term::Func(intern("f"), vec![Term::var("X")].into_boxed_slice());
        let f2 = Term::Func(intern("f"), vec![Term::constant("c")].into_boxed_slice());
        let mut s = Substitution::new();
        assert!(unify_terms(&f1, &f2, &mut s));
        assert_eq!(s.apply_term(&Term::var("X")), Term::constant("c"));
        let g = Term::Func(intern("g"), vec![Term::var("X")].into_boxed_slice());
        let mut s2 = Substitution::new();
        assert!(!unify_terms(&f1, &g, &mut s2));
    }

    #[test]
    fn mgu_is_most_general_on_examples() {
        // For p(X,Y) and p(Y,X), the MGU maps one variable to the other and
        // leaves everything else open: applying it twice changes nothing.
        let a = atom("p(X,Y)");
        let b = atom("p(Y,X)");
        let s = mgu_pair(&a, &b).unwrap();
        let once = s.apply_atom(&a);
        let twice = s.apply_atom(&once);
        assert_eq!(once, twice);
        assert!(s.is_idempotent());
    }
}
