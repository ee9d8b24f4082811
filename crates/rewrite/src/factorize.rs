//! Restricted factorization (Definition 2 and the `factorize` function of
//! Algorithm 1), run by the engine through [`factorize_group`].
//!
//! A set `S ⊆ body(q)` (|S| ≥ 2, unifiable) is *factorizable* w.r.t. a TGD
//! `σ` with an existential variable iff some variable `V` occurs in every
//! atom of `S` only at the existential position `π_σ`, and `V` occurs
//! nowhere else in the query. Such atoms can only have been matched by a
//! single chase atom, so unifying them loses no completeness — and unlike
//! the exhaustive factorization of QuOnto-style rewriters, queries produced
//! here are *excluded* from the final rewriting (label 0 in Algorithm 1).

use nyaya_core::{mgu_set, Atom, ConjunctiveQuery, Symbol};

use crate::applicability::is_shared_in;

/// The factorizations of `q` w.r.t. a TGD with existential position `pi`
/// whose head predicate is that of the body atoms `group` (all of them, in
/// body order); `shared` is
/// [`shared_variables`](crate::applicability::shared_variables)`(q)`.
///
/// An eligible `V` sits at `π_σ` of at least two atoms of the group, so
/// only the (shared) variables found there are tried — in the order the
/// query first mentions them, one product each.
pub(crate) fn factorize_group(
    q: &ConjunctiveQuery,
    group: &[usize],
    pi: usize,
    shared: &[Symbol],
    mut emit: impl FnMut(ConjunctiveQuery),
) {
    if group.len() < 2 {
        return;
    }
    let head_pred = q.body[group[0]].pred;
    let mut tried: Vec<Symbol> = Vec::new();
    for &i in group {
        let Some(v) = q.body[i].args[pi].as_var() else {
            continue;
        };
        if tried.contains(&v) || !is_shared_in(shared, v) {
            continue;
        }
        tried.push(v);
        let Some(s_set) = factorizable_set(q, v, head_pred, pi) else {
            continue;
        };
        let atoms: Vec<&Atom> = s_set.iter().map(|&i| &q.body[i]).collect();
        let Some(gamma) = mgu_set(&atoms) else {
            continue; // S must unify
        };
        emit(q.apply(&gamma));
    }
}

/// The candidate set `S` for variable `v`: all body atoms containing `v`.
/// Returns `Some(indices)` iff Definition 2 is satisfied:
/// - `|S| ≥ 2`;
/// - every atom of `S` has the head predicate of `σ` and contains `v`
///   exactly once, at position `π_σ`;
/// - `v` occurs nowhere in `body(q) ∖ S` (ensured by construction: `S` *is*
///   the set of atoms containing `v`) and not in the head of `q`.
fn factorizable_set(
    q: &ConjunctiveQuery,
    v: Symbol,
    head_pred: nyaya_core::Predicate,
    pi: usize,
) -> Option<Vec<usize>> {
    // V must not occur in the head of the query (for a non-Boolean CQ the
    // head occurrence would survive factorization and block applicability
    // anyway; see the remark after Definition 2).
    if q.head.iter().any(|t| t.contains_var(v)) {
        return None;
    }
    let mut s_set = Vec::new();
    for (i, atom) in q.body.iter().enumerate() {
        if !atom.contains_var(v) {
            continue;
        }
        // v must occur in this atom only at π_σ — hence the atom must have
        // the head predicate of σ.
        if atom.pred != head_pred {
            return None;
        }
        let positions = atom.positions_of_var(v);
        if positions != [pi] {
            return None;
        }
        // Function terms never appear in TGD-rewrite queries; if v were
        // buried inside one, positions_of_var would miss it — guard.
        debug_assert!(atom.args.iter().all(|t| !t.is_func()));
        s_set.push(i);
    }
    (s_set.len() >= 2).then_some(s_set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::applicability::shared_variables;
    use nyaya_core::{Predicate, Term, Tgd};

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

    fn cq(head: &[&str], body: &[(&str, &[&str])]) -> ConjunctiveQuery {
        let head_terms = head.iter().map(|a| Term::var(a)).collect();
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
                Atom::new(Predicate::new(p, terms.len()), terms)
            })
            .collect();
        ConjunctiveQuery::new(head_terms, atoms)
    }

    /// Every factorization of `q` w.r.t. `tgd`, as the engine finds them:
    /// [`factorize_group`] over all body atoms with the head predicate.
    fn factorizations(q: &ConjunctiveQuery, tgd: &Tgd) -> Vec<ConjunctiveQuery> {
        let Some(pi) = tgd.existential_position() else {
            return Vec::new(); // factorization needs an existential variable
        };
        let head_pred = tgd.head_atom().pred;
        let group: Vec<usize> = (0..q.body.len())
            .filter(|&i| q.body[i].pred == head_pred)
            .collect();
        let mut out = Vec::new();
        factorize_group(q, &group, pi, &shared_variables(q), |p| out.push(p));
        out
    }

    // Example 1 of the paper: σ: s(X), r(X,Y) → ∃Z t(X,Y,Z), π_σ = t[3].
    fn sigma() -> Tgd {
        tgd(
            &[("s", &["X"]), ("r", &["X", "Y"])],
            &[("t", &["X", "Y", "Z"])],
        )
    }

    #[test]
    fn example1_q1_is_factorizable() {
        // q1: q() ← t(A,B,C), t(A,E,C): C occurs in both atoms only at t[3]
        // and nowhere else → factorizable; result q() ← t(A,B,C).
        let q1 = cq(&[], &[("t", &["A", "B", "C"]), ("t", &["A", "E", "C"])]);
        let results = factorizations(&q1, &sigma());
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].body.len(), 1);
        assert_eq!(results[0].body[0].pred, Predicate::new("t", 3));
    }

    #[test]
    fn example1_q2_not_factorizable() {
        // q2: q() ← s(C), t(A,B,C), t(A,E,C): C also occurs in s(C) →
        // not factorizable.
        let q2 = cq(
            &[],
            &[
                ("s", &["C"]),
                ("t", &["A", "B", "C"]),
                ("t", &["A", "E", "C"]),
            ],
        );
        assert!(factorizations(&q2, &sigma()).is_empty());
    }

    #[test]
    fn example1_q3_not_factorizable() {
        // q3: q() ← t(A,B,C), t(A,C,C): C appears at t[2] too → no.
        let q3 = cq(&[], &[("t", &["A", "B", "C"]), ("t", &["A", "C", "C"])]);
        assert!(factorizations(&q3, &sigma()).is_empty());
    }

    #[test]
    fn full_tgds_never_factorize() {
        let full = tgd(&[("t", &["X", "Y", "Z"])], &[("r", &["Y", "Z"])]);
        let q1 = cq(&[], &[("r", &["A", "C"]), ("r", &["B", "C"])]);
        assert!(factorizations(&q1, &full).is_empty());
    }

    #[test]
    fn head_occurrence_blocks_factorization() {
        // q(C) ← t(A,B,C), t(A,E,C): C is an answer variable.
        let q = cq(&["C"], &[("t", &["A", "B", "C"]), ("t", &["A", "E", "C"])]);
        assert!(factorizations(&q, &sigma()).is_empty());
    }

    #[test]
    fn factorize_merges_more_than_two_atoms() {
        let q = cq(
            &[],
            &[
                ("t", &["A", "B", "C"]),
                ("t", &["A", "E", "C"]),
                ("t", &["F", "G", "C"]),
            ],
        );
        let results = factorizations(&q, &sigma());
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].body.len(), 1);
    }

    #[test]
    fn non_unifiable_set_is_skipped() {
        // Same V pattern but constants clash: t(a,B,C), t(b,E,C).
        let q = cq(&[], &[("t", &["a", "B", "C"]), ("t", &["b", "E", "C"])]);
        assert!(factorizations(&q, &sigma()).is_empty());
    }

    #[test]
    fn example4_factorization_enables_completeness() {
        // σ1: p(X) → ∃Y t(X,Y); q': q() ← t(A,B), t(V1,B).
        let s1 = tgd(&[("p", &["X"])], &[("t", &["X", "Y"])]);
        let qp = cq(&[], &[("t", &["A", "B"]), ("t", &["V1", "B"])]);
        let results = factorizations(&qp, &s1);
        assert_eq!(results.len(), 1);
        let fq = &results[0];
        assert_eq!(fq.body.len(), 1);
        // B is no longer shared → σ1 now applicable (checked elsewhere).
        assert!(!fq.is_shared(nyaya_core::symbols::intern("B")));
    }
}
