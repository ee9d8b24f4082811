//! Tuple-generating dependencies, negative constraints and key dependencies
//! (paper, Sections 3.2 and 4.2).

use std::collections::HashSet;
use std::fmt;

use crate::atom::{Atom, Predicate};
use crate::substitution::Substitution;
use crate::symbols::{self, Symbol};
use crate::term::Term;

/// A tuple-generating dependency `∀X∀Y φ(X,Y) → ∃Z ψ(X,Z)`.
///
/// Quantifiers are implicit: every variable occurring in the body is
/// universally quantified; every head-only variable is existentially
/// quantified.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Tgd {
    /// Optional rule name (`σ1`, …) used in diagnostics and the dependency
    /// graph display.
    pub label: Option<Symbol>,
    pub body: Vec<Atom>,
    pub head: Vec<Atom>,
}

impl Tgd {
    pub fn new(body: Vec<Atom>, head: Vec<Atom>) -> Self {
        assert!(!body.is_empty(), "TGD body must be non-empty");
        assert!(!head.is_empty(), "TGD head must be non-empty");
        Tgd {
            label: None,
            body,
            head,
        }
    }

    pub fn labeled(label: &str, body: Vec<Atom>, head: Vec<Atom>) -> Self {
        let mut t = Tgd::new(body, head);
        t.label = Some(symbols::intern(label));
        t
    }

    /// Distinct variables occurring in the body, in first-occurrence order.
    pub fn body_vars(&self) -> Vec<Symbol> {
        distinct_vars(&self.body)
    }

    /// Distinct variables occurring in the head, in first-occurrence order.
    pub fn head_vars(&self) -> Vec<Symbol> {
        distinct_vars(&self.head)
    }

    /// Existentially quantified variables: head variables not in the body.
    pub fn existential_vars(&self) -> Vec<Symbol> {
        let body: HashSet<Symbol> = self.body_vars().into_iter().collect();
        self.head_vars()
            .into_iter()
            .filter(|v| !body.contains(v))
            .collect()
    }

    /// Frontier: variables shared between body and head.
    pub fn frontier(&self) -> Vec<Symbol> {
        let head: HashSet<Symbol> = self.head_vars().into_iter().collect();
        self.body_vars()
            .into_iter()
            .filter(|v| head.contains(v))
            .collect()
    }

    /// A TGD is *linear* iff its body is a single atom (Section 4.1).
    pub fn is_linear(&self) -> bool {
        self.body.len() == 1
    }

    /// A TGD is *full* iff it has no existentially quantified variable.
    pub fn is_full(&self) -> bool {
        self.existential_vars().is_empty()
    }

    /// A TGD is *guarded* iff some body atom (the guard) contains all
    /// universally quantified variables (Section 4.1).
    pub fn is_guarded(&self) -> bool {
        let vars = self.body_vars();
        self.body
            .iter()
            .any(|a| vars.iter().all(|v| a.contains_var(*v)))
    }

    /// Is the TGD in the normal form assumed from Section 5 on: a single
    /// head atom with at most one existential variable occurring exactly
    /// once?
    pub fn is_normal(&self) -> bool {
        if self.head.len() != 1 {
            return false;
        }
        let ex = self.existential_vars();
        match ex.len() {
            0 => true,
            1 => {
                let mut occ = Vec::new();
                self.head[0].collect_vars(&mut occ);
                occ.iter().filter(|v| **v == ex[0]).count() == 1
            }
            _ => false,
        }
    }

    /// The single head atom of a normal TGD.
    pub fn head_atom(&self) -> &Atom {
        debug_assert_eq!(self.head.len(), 1, "head_atom on multi-head TGD");
        &self.head[0]
    }

    /// `π_σ`: the argument index of the head atom at which the existential
    /// variable occurs (normal TGDs only). `None` for full TGDs.
    pub fn existential_position(&self) -> Option<usize> {
        debug_assert!(self.is_normal(), "existential_position on non-normal TGD");
        let ex = self.existential_vars();
        let z = *ex.first()?;
        self.head[0].args.iter().position(|t| t.as_var() == Some(z))
    }

    /// Rename every variable of the TGD to a globally fresh one, so it shares
    /// no variable with any query (the rewriting step's standing assumption).
    pub fn rename_apart(&self) -> Tgd {
        let mut s = Substitution::new();
        for v in self.all_vars() {
            s.bind(v, Term::fresh_var());
        }
        Tgd {
            label: self.label,
            body: s.apply_atoms(&self.body),
            head: s.apply_atoms(&self.head),
        }
    }

    /// Distinct variables of body and head, in first-occurrence order.
    pub fn all_vars(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        let mut occ = Vec::new();
        for a in self.body.iter().chain(self.head.iter()) {
            a.collect_vars(&mut occ);
        }
        for v in occ {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    /// Every predicate mentioned by the TGD.
    pub fn predicates(&self) -> impl Iterator<Item = Predicate> + '_ {
        self.body.iter().chain(self.head.iter()).map(|a| a.pred)
    }
}

impl fmt::Debug for Tgd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Tgd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(l) = self.label {
            write!(f, "{l}: ")?;
        }
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, " -> ")?;
        for (i, a) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

fn distinct_vars(atoms: &[Atom]) -> Vec<Symbol> {
    let mut occ = Vec::new();
    for a in atoms {
        a.collect_vars(&mut occ);
    }
    let mut out = Vec::new();
    for v in occ {
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// A negative constraint `∀X φ(X) → ⊥` (Section 4.2).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct NegativeConstraint {
    pub label: Option<Symbol>,
    pub body: Vec<Atom>,
}

impl NegativeConstraint {
    pub fn new(body: Vec<Atom>) -> Self {
        assert!(!body.is_empty(), "NC body must be non-empty");
        NegativeConstraint { label: None, body }
    }

    pub fn labeled(label: &str, body: Vec<Atom>) -> Self {
        let mut nc = NegativeConstraint::new(body);
        nc.label = Some(symbols::intern(label));
        nc
    }
}

impl fmt::Debug for NegativeConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for NegativeConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(l) = self.label {
            write!(f, "{l}: ")?;
        }
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, " -> false")
    }
}

/// A key dependency `key(r) = {i1, …, ik}` (0-based positions).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct KeyDependency {
    pub pred: Predicate,
    /// 0-based key positions, strictly increasing.
    pub key: Vec<usize>,
}

impl KeyDependency {
    pub fn new(pred: Predicate, mut key: Vec<usize>) -> Self {
        key.sort_unstable();
        key.dedup();
        assert!(
            key.iter().all(|i| *i < pred.arity),
            "key position out of range for {pred:?}"
        );
        assert!(!key.is_empty(), "empty key");
        KeyDependency { pred, key }
    }
}

impl fmt::Debug for KeyDependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ones: Vec<String> = self.key.iter().map(|i| (i + 1).to_string()).collect();
        write!(f, "key({}) = {{{}}}", self.pred.sym, ones.join(","))
    }
}

/// A Datalog± ontology: TGDs plus (optional) negative constraints and key
/// dependencies.
#[derive(Clone, Debug, Default)]
pub struct Ontology {
    pub tgds: Vec<Tgd>,
    pub ncs: Vec<NegativeConstraint>,
    pub kds: Vec<KeyDependency>,
}

impl Ontology {
    pub fn from_tgds(tgds: Vec<Tgd>) -> Self {
        Ontology {
            tgds,
            ncs: Vec::new(),
            kds: Vec::new(),
        }
    }

    /// Every predicate mentioned anywhere in the ontology.
    pub fn predicates(&self) -> HashSet<Predicate> {
        let mut out = HashSet::new();
        for t in &self.tgds {
            out.extend(t.predicates());
        }
        for nc in &self.ncs {
            out.extend(nc.body.iter().map(|a| a.pred));
        }
        for kd in &self.kds {
            out.insert(kd.pred);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tgd(body: &[(&str, &[&str])], head: &[(&str, &[&str])]) -> Tgd {
        let mk = |spec: &[(&str, &[&str])]| {
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
                .collect::<Vec<_>>()
        };
        Tgd::new(mk(body), mk(head))
    }

    #[test]
    fn quantifier_classification() {
        // stock_portf(X,Y,Z) → ∃V∃W company(X,V,W)   (σ1 of the paper)
        let s1 = tgd(
            &[("stock_portf", &["X", "Y", "Z"])],
            &[("company", &["X", "V", "W"])],
        );
        assert!(s1.is_linear());
        assert!(s1.is_guarded());
        assert!(!s1.is_full());
        assert_eq!(s1.existential_vars().len(), 2);
        assert_eq!(s1.frontier(), vec![symbols::intern("X")]);
        assert!(!s1.is_normal()); // two existential variables
    }

    #[test]
    fn guardedness_examples_from_paper() {
        // r(X,Y), s(X,Y,Z) → ∃W s(Z,X,W) is guarded via s(X,Y,Z)
        let guarded = tgd(
            &[("r", &["X", "Y"]), ("s", &["X", "Y", "Z"])],
            &[("s", &["Z", "X", "W"])],
        );
        assert!(guarded.is_guarded());
        // r(X,Y), r(Y,Z) → r(X,Z) is not guarded
        let unguarded = tgd(
            &[("r", &["X", "Y"]), ("r", &["Y", "Z"])],
            &[("r", &["X", "Z"])],
        );
        assert!(!unguarded.is_guarded());
        assert!(unguarded.is_full());
    }

    #[test]
    fn normal_form_and_existential_position() {
        // s(X) → ∃Z t(X,X,Z): normal, π_σ = t[3] (index 2)
        let s = tgd(&[("s", &["X"])], &[("t", &["X", "X", "Z"])]);
        assert!(s.is_normal());
        assert_eq!(s.existential_position(), Some(2));
        // full TGD has no existential position
        let f = tgd(&[("t", &["X", "Y", "Z"])], &[("r", &["Y", "Z"])]);
        assert!(f.is_normal());
        assert_eq!(f.existential_position(), None);
        // existential occurring twice is not normal
        let d = tgd(&[("s", &["X"])], &[("t", &["X", "Z", "Z"])]);
        assert!(!d.is_normal());
    }

    #[test]
    fn rename_apart_preserves_structure() {
        let s = tgd(&[("s", &["X"])], &[("t", &["X", "Z"])]);
        let r = s.rename_apart();
        assert_eq!(r.body.len(), 1);
        assert_eq!(r.head.len(), 1);
        assert_eq!(r.body[0].pred, s.body[0].pred);
        // variables are fresh
        assert_ne!(r.body[0].args[0], s.body[0].args[0]);
        // and the frontier link X is preserved
        assert_eq!(r.body[0].args[0], r.head[0].args[0]);
    }

    #[test]
    fn display_round_trip_shape() {
        let s = Tgd::labeled(
            "sigma6",
            vec![Atom::make("has_stock", ["X", "Y"])],
            vec![Atom::make("stock_portf", ["Y", "X", "Z"])],
        );
        assert_eq!(
            s.to_string(),
            "sigma6: has_stock(X,Y) -> stock_portf(Y,X,Z)"
        );
    }
}
