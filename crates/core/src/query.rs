//! Conjunctive queries, unions of conjunctive queries, and the evaluation
//! metrics of Section 7 (size / length / width).

use std::collections::HashMap;
use std::fmt;

use crate::atom::Atom;
use crate::homomorphism::HomSearch;
use crate::substitution::Substitution;
use crate::symbols::{self, Symbol};
use crate::term::Term;

/// A conjunctive query `q(X) ← φ(X, Y)`.
///
/// A Boolean CQ has an empty head vector. The body is kept duplicate-free
/// (the paper identifies conjunctions with sets of atoms).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ConjunctiveQuery {
    /// Head predicate name (conventionally `q`).
    pub head_pred: Symbol,
    /// Distinguished terms (variables or constants).
    pub head: Vec<Term>,
    pub body: Vec<Atom>,
}

impl ConjunctiveQuery {
    /// A Boolean CQ `q() ← body`.
    pub fn boolean(body: Vec<Atom>) -> Self {
        ConjunctiveQuery::new(Vec::new(), body)
    }

    /// A CQ with the given head terms.
    pub fn new(head: Vec<Term>, body: Vec<Atom>) -> Self {
        assert!(!body.is_empty(), "CQ body must be non-empty");
        let mut q = ConjunctiveQuery {
            head_pred: symbols::intern("q"),
            head,
            body,
        };
        q.dedup_body();
        q
    }

    /// Remove duplicate body atoms while preserving first-occurrence order.
    pub fn dedup_body(&mut self) {
        let mut seen: Vec<Atom> = Vec::with_capacity(self.body.len());
        for a in self.body.drain(..) {
            if !seen.contains(&a) {
                seen.push(a);
            }
        }
        self.body = seen;
    }

    pub fn is_boolean(&self) -> bool {
        self.head.is_empty()
    }

    pub fn arity(&self) -> usize {
        self.head.len()
    }

    /// Is `v` shared in this query?
    pub fn is_shared(&self, v: Symbol) -> bool {
        let mut count = 0usize;
        let mut occ = Vec::new();
        for t in &self.head {
            t.collect_vars(&mut occ);
        }
        for a in &self.body {
            a.collect_vars(&mut occ);
        }
        for w in occ {
            if w == v {
                count += 1;
                if count > 1 {
                    return true;
                }
            }
        }
        false
    }

    /// Distinct variables of the query in first-occurrence order (head
    /// first).
    pub fn variables(&self) -> Vec<Symbol> {
        let mut occ = Vec::new();
        for t in &self.head {
            t.collect_vars(&mut occ);
        }
        for a in &self.body {
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

    /// Apply a substitution to head and body (body is re-deduplicated, since
    /// unification can collapse atoms).
    pub fn apply(&self, s: &Substitution) -> ConjunctiveQuery {
        let mut q = ConjunctiveQuery {
            head_pred: self.head_pred,
            head: self.head.iter().map(|t| s.apply_term(t)).collect(),
            body: s.apply_atoms(&self.body),
        };
        q.dedup_body();
        q
    }

    /// Freeze the query: replace every variable with a fresh constant.
    /// Returns the frozen body together with the freezing substitution
    /// (used by the chase & back-chase algorithm and containment tests).
    pub fn freeze(&self) -> (Vec<Atom>, Vec<Term>, Substitution) {
        let mut s = Substitution::new();
        for v in self.variables() {
            s.bind(v, Term::Const(symbols::fresh("c")));
        }
        let body = s.apply_atoms(&self.body);
        let head = self.head.iter().map(|t| s.apply_term(t)).collect();
        (body, head, s)
    }

    /// Does `self` contain `other` (i.e. `other ⊆ self`: every answer of
    /// `other` over every database is an answer of `self`)?
    ///
    /// Decided via the Chandra–Merlin containment-mapping criterion: freeze
    /// `other` and look for a homomorphism from `self` that maps the head
    /// onto the frozen head.
    pub fn contains(&self, other: &ConjunctiveQuery) -> bool {
        if self.head.len() != other.head.len() {
            return false;
        }
        let (frozen_body, frozen_head, _) = other.freeze();
        let search = HomSearch::new(&frozen_body);
        let mut init = Substitution::new();
        for (t, target) in self.head.iter().zip(frozen_head.iter()) {
            match t {
                Term::Var(v) => match init.get(*v) {
                    Some(bound) => {
                        if bound != target {
                            return false;
                        }
                    }
                    None => init.bind(*v, target.clone()),
                },
                other_t => {
                    if other_t != target {
                        return false;
                    }
                }
            }
        }
        search.exists(&self.body, &init)
    }

    /// Mutual containment.
    pub fn equivalent_to(&self, other: &ConjunctiveQuery) -> bool {
        self.contains(other) && other.contains(self)
    }

    /// `length` contribution: number of body atoms.
    pub fn length(&self) -> usize {
        self.body.len()
    }

    /// `width` contribution: the number of joins executed when evaluating
    /// this CQ, counted as Σ_v C(m_v, 2) where `m_v` is the number of
    /// distinct body atoms in which variable `v` occurs (reverse-engineered
    /// from Table 1; see DESIGN.md).
    pub fn width(&self) -> usize {
        let mut per_var: HashMap<Symbol, usize> = HashMap::new();
        for a in &self.body {
            for v in a.variables() {
                *per_var.entry(v).or_insert(0) += 1;
            }
        }
        per_var
            .values()
            .map(|m| m * (m.saturating_sub(1)) / 2)
            .sum()
    }

    /// Does any body atom contain a function term (Skolemized rewritings
    /// keep such CQs out of the final result)?
    pub fn has_function_terms(&self) -> bool {
        self.body.iter().any(Atom::has_function_term) || self.head.iter().any(|t| t.is_func())
    }
}

impl fmt::Debug for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.head_pred)?;
        for (i, t) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ") :- ")?;
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

/// A union of conjunctive queries with the paper's three quality metrics.
#[derive(Clone, Default)]
pub struct UnionQuery {
    pub cqs: Vec<ConjunctiveQuery>,
}

impl UnionQuery {
    pub fn new(cqs: Vec<ConjunctiveQuery>) -> Self {
        UnionQuery { cqs }
    }

    /// Table 1 "Size": the number of CQs in the perfect rewriting.
    pub fn size(&self) -> usize {
        self.cqs.len()
    }

    /// Table 1 "Length": total number of atoms over all CQs.
    pub fn length(&self) -> usize {
        self.cqs.iter().map(ConjunctiveQuery::length).sum()
    }

    /// Table 1 "Width": total number of joins over all CQs.
    pub fn width(&self) -> usize {
        self.cqs.iter().map(ConjunctiveQuery::width).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.cqs.is_empty()
    }

    pub fn iter(&self) -> std::slice::Iter<'_, ConjunctiveQuery> {
        self.cqs.iter()
    }
}

impl fmt::Display for UnionQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for q in &self.cqs {
            writeln!(f, "{q}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(head: &[&str], body: &[(&str, &[&str])]) -> ConjunctiveQuery {
        let head_terms = head
            .iter()
            .map(|a| {
                if a.chars().next().unwrap().is_uppercase() {
                    Term::var(a)
                } else {
                    Term::constant(a)
                }
            })
            .collect();
        let atoms = body
            .iter()
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
                Atom::new(crate::atom::Predicate::new(p, terms.len()), terms)
            })
            .collect();
        ConjunctiveQuery::new(head_terms, atoms)
    }

    #[test]
    fn shared_variables_count_head_occurrences() {
        // q(A) ← p(A,B): A is shared (head + body), B is not.
        let query = q(&["A"], &[("p", &["A", "B"])]);
        assert!(query.is_shared(symbols::intern("A")));
        assert!(!query.is_shared(symbols::intern("B")));
    }

    #[test]
    fn shared_within_single_atom_counts() {
        // q() ← t(A,C,C): C occurs twice in one atom → shared.
        let query = q(&[], &[("t", &["A", "C", "C"])]);
        assert!(query.is_shared(symbols::intern("C")));
        assert!(!query.is_shared(symbols::intern("A")));
    }

    #[test]
    fn width_matches_table1_examples() {
        // V-q5: q5(A) ← Individual(A), hasRole(A,B), Scientist(B),
        //       hasRole(A,C), Discoverer(C), hasRole(A,D), Inventor(D)
        // Table 1 reports width 270 for 30 CQs of this shape → 9 each.
        let v_q5 = q(
            &["A"],
            &[
                ("Individual", &["A"]),
                ("hasRole", &["A", "B"]),
                ("Scientist", &["B"]),
                ("hasRole", &["A", "C"]),
                ("Discoverer", &["C"]),
                ("hasRole", &["A", "D"]),
                ("Inventor", &["D"]),
            ],
        );
        assert_eq!(v_q5.width(), 9);
        // U-q3 shape: 9 joins (3 variables in 3 atoms each).
        let u_q3 = q(
            &["A", "B", "C"],
            &[
                ("Student", &["A"]),
                ("advisor", &["A", "B"]),
                ("FacultyStaff", &["B"]),
                ("takesCourse", &["A", "C"]),
                ("teacherOf", &["B", "C"]),
                ("Course", &["C"]),
            ],
        );
        assert_eq!(u_q3.width(), 9);
        // S-q2 shape: 2 joins.
        let s_q2 = q(
            &["A", "B"],
            &[
                ("Person", &["A"]),
                ("hasStock", &["A", "B"]),
                ("Stock", &["B"]),
            ],
        );
        assert_eq!(s_q2.width(), 2);
        // single-atom query: width 0.
        let v_q1 = q(&["A"], &[("Location", &["A"])]);
        assert_eq!(v_q1.width(), 0);
    }

    #[test]
    fn body_is_deduplicated() {
        let query = q(&[], &[("p", &["X"]), ("p", &["X"])]);
        assert_eq!(query.body.len(), 1);
    }

    #[test]
    fn containment_basic() {
        // q1() ← p(X,Y)  contains  q2() ← p(X,X)
        let q1 = q(&[], &[("p", &["X", "Y"])]);
        let q2 = q(&[], &[("p", &["X", "X"])]);
        assert!(q1.contains(&q2));
        assert!(!q2.contains(&q1));
    }

    #[test]
    fn containment_respects_head() {
        // q(A) ← p(A,B) vs q(B) ← p(A,B): not equivalent.
        let qa = q(&["A"], &[("p", &["A", "B"])]);
        let qb = q(&["B"], &[("p", &["A", "B"])]);
        assert!(!qa.contains(&qb));
        assert!(!qb.contains(&qa));
        assert!(qa.contains(&qa));
    }

    #[test]
    fn equivalence_modulo_redundant_atom() {
        // q() ← p(X,Y), p(X,Z)  ≡  q() ← p(X,Y)
        let big = q(&[], &[("p", &["X", "Y"]), ("p", &["X", "Z"])]);
        let small = q(&[], &[("p", &["X", "Y"])]);
        assert!(big.equivalent_to(&small));
    }

    #[test]
    fn union_metrics_sum() {
        let u = UnionQuery::new(vec![
            q(&["A"], &[("p", &["A", "B"]), ("r", &["B"])]),
            q(&["A"], &[("s", &["A"])]),
        ]);
        assert_eq!(u.size(), 2);
        assert_eq!(u.length(), 3);
        assert_eq!(u.width(), 1);
    }
}
