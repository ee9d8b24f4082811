//! Conjunctive-query minimization: computing the *core* of a CQ.
//!
//! Section 2 traces query minimization back to Chandra–Merlin \[21\]: a CQ
//! is minimal iff no proper sub-query is equivalent to it, and every CQ
//! has a unique minimal equivalent (its core, up to isomorphism). Unlike
//! the query elimination of Section 6, minimization uses no constraints —
//! it removes atoms that are redundant *logically*, e.g. `p(X,Y), p(X,Z)`
//! collapses to `p(X,Y)`. The two optimizations compose: elimination
//! strips atoms implied by Σ, minimization strips atoms implied by the
//! rest of the body.

use crate::query::{ConjunctiveQuery, UnionQuery};

/// Compute the core of `q`: the unique (up to variable renaming) minimal
/// equivalent sub-query.
///
/// Greedy atom removal is correct here: an atom is removable iff the query
/// without it still contains the original, and removability is preserved
/// under other removals on the way to the core.
pub fn minimize_cq(q: &ConjunctiveQuery) -> ConjunctiveQuery {
    let mut current = q.clone();
    let mut i = 0usize;
    while i < current.body.len() {
        if current.body.len() == 1 {
            break; // bodies must stay non-empty
        }
        let mut candidate = current.clone();
        candidate.body.remove(i);
        // Removing an atom weakens the query (current ⊆ candidate always);
        // equivalence needs the other direction.
        if current.contains(&candidate) {
            current = candidate; // same index now holds the next atom
        } else {
            i += 1;
        }
    }
    current
}

/// Minimize every member of a union (does not remove subsumed members —
/// that is `nyaya-rewrite`'s `minimize_union`).
pub fn minimize_union_bodies(u: &UnionQuery) -> UnionQuery {
    UnionQuery::new(u.iter().map(minimize_cq).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{Atom, Predicate};
    use crate::term::Term;

    fn cq(head: &[&str], body: &[(&str, &[&str])]) -> ConjunctiveQuery {
        let conv = |a: &&str| {
            if a.chars().next().unwrap().is_uppercase() {
                Term::var(a)
            } else {
                Term::constant(a)
            }
        };
        ConjunctiveQuery::new(
            head.iter().map(conv).collect(),
            body.iter()
                .map(|(p, args)| {
                    let terms: Vec<Term> = args.iter().map(conv).collect();
                    Atom::new(Predicate::new(p, terms.len()), terms)
                })
                .collect(),
        )
    }

    #[test]
    fn redundant_sibling_atom_is_removed() {
        // q(X) ← p(X,Y), p(X,Z): the second atom folds onto the first.
        let q = cq(&["X"], &[("p", &["X", "Y"]), ("p", &["X", "Z"])]);
        let m = minimize_cq(&q);
        assert_eq!(m.body.len(), 1);
        assert!(m.equivalent_to(&q));
    }

    #[test]
    fn non_redundant_atoms_survive() {
        // A 2-path cannot fold onto one edge atom (Y is shared).
        let q = cq(&["X"], &[("e", &["X", "Y"]), ("e", &["Y", "Z"])]);
        assert_eq!(minimize_cq(&q).body.len(), 2);
        // The triangle query is its own core.
        let tri = cq(
            &[],
            &[("e", &["X", "Y"]), ("e", &["Y", "Z"]), ("e", &["Z", "X"])],
        );
        assert_eq!(minimize_cq(&tri).body.len(), 3);
    }

    #[test]
    fn folding_respects_constants() {
        // p(X,a) cannot fold onto p(X,Y) unless Y ↦ a is allowed — it is,
        // but then the head variable must still be preserved.
        let q = cq(&["X"], &[("p", &["X", "Y"]), ("p", &["X", "a"])]);
        // p(X,Y) folds onto p(X,a) via Y ↦ a: core is the constant atom.
        let m = minimize_cq(&q);
        assert_eq!(m.body.len(), 1);
        assert_eq!(m.body[0].args[1], Term::constant("a"));
    }

    #[test]
    fn head_variables_block_folding() {
        // q(X,Y) ← p(X,Y), p(X,Z): Z-atom folds, but not the Y-atom.
        let q = cq(&["X", "Y"], &[("p", &["X", "Y"]), ("p", &["X", "Z"])]);
        let m = minimize_cq(&q);
        assert_eq!(m.body.len(), 1);
        assert!(m.body[0].contains_var(crate::symbols::intern("Y")));
    }

    #[test]
    fn classic_double_edge_example() {
        // e(X,Y), e(X,Z), e(W,Y): folds to a single edge atom? W ↦ X, Z ↦ Y
        // maps all three atoms onto e(X,Y) — Boolean query, so yes.
        let q = cq(
            &[],
            &[("e", &["X", "Y"]), ("e", &["X", "Z"]), ("e", &["W", "Y"])],
        );
        let m = minimize_cq(&q);
        assert_eq!(m.body.len(), 1);
    }

    #[test]
    fn minimization_is_idempotent_and_order_stable() {
        let q = cq(
            &["X"],
            &[
                ("p", &["X", "Y"]),
                ("p", &["X", "Z"]),
                ("r", &["Y"]),
                ("p", &["X", "W"]),
            ],
        );
        let once = minimize_cq(&q);
        let twice = minimize_cq(&once);
        assert_eq!(once.body.len(), twice.body.len());
        assert!(once.equivalent_to(&q));
        // p(X,Y),r(Y) survive; the two free-ended p-atoms fold onto p(X,Y).
        assert_eq!(once.body.len(), 2);
    }

    #[test]
    fn union_body_minimization() {
        let u = UnionQuery::new(vec![
            cq(&["X"], &[("p", &["X", "Y"]), ("p", &["X", "Z"])]),
            cq(&["X"], &[("s", &["X"])]),
        ]);
        let m = minimize_union_bodies(&u);
        assert_eq!(m.size(), 2);
        assert_eq!(m.length(), 2);
    }

    #[test]
    fn single_atom_queries_are_untouched() {
        let q = cq(&["X"], &[("p", &["X", "X"])]);
        let m = minimize_cq(&q);
        assert_eq!(m.body, q.body);
    }
}
