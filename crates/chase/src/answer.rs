//! Query answering over instances and certain-answer evaluation via the
//! chase (paper, Sections 3.1–3.3).

use std::collections::BTreeSet;

use nyaya_core::{ConjunctiveQuery, HomSearch, Substitution, Term, Tgd, UnionQuery};

use crate::chase::{chase, ChaseConfig, ChaseOutcome};
use crate::instance::Instance;

/// Does the instance entail the BCQ (`I ⊨ q`)?
pub fn entails_bcq(instance: &Instance, q: &ConjunctiveQuery) -> bool {
    debug_assert!(q.is_boolean(), "entails_bcq expects a Boolean CQ");
    HomSearch::new(instance.atoms()).exists(&q.body, &Substitution::new())
}

/// The answer `q(I)`: all tuples of **constants** `t` with a homomorphism
/// mapping the body into `I` and the head to `t`. (Tuples containing nulls
/// are not answers — Section 3.1 requires `t ∈ (Δ_c)^n`.)
pub fn answers(instance: &Instance, q: &ConjunctiveQuery) -> BTreeSet<Vec<Term>> {
    let mut out = BTreeSet::new();
    HomSearch::new(instance.atoms()).search(&q.body, &Substitution::new(), &mut |h| {
        let tuple: Vec<Term> = q.head.iter().map(|t| h.apply_term(t)).collect();
        if tuple.iter().all(Term::is_const) {
            out.insert(tuple);
        }
        true
    });
    out
}

/// The answer to a union of CQs over an instance.
pub fn answers_union(instance: &Instance, u: &UnionQuery) -> BTreeSet<Vec<Term>> {
    let mut out = BTreeSet::new();
    for q in u.iter() {
        out.extend(answers(instance, q));
    }
    out
}

/// Certain-answer evaluation: `ans(q, D, Σ)` computed on the (budgeted)
/// chase. The `saturated` flag tells whether the result is exact (fixpoint
/// reached) or a sound under-approximation (budget hit: every returned
/// answer is certain, but some certain answer may be missing).
pub struct CertainAnswers {
    pub answers: BTreeSet<Vec<Term>>,
    pub saturated: bool,
    pub chase: ChaseOutcome,
}

/// Compute the certain answers of `q` w.r.t. `db` and `tgds`.
pub fn certain_answers(
    db: &Instance,
    tgds: &[Tgd],
    q: &ConjunctiveQuery,
    config: ChaseConfig,
) -> CertainAnswers {
    let outcome = chase(db, tgds, config);
    let answers = answers(&outcome.instance, q);
    CertainAnswers {
        answers,
        saturated: outcome.saturated,
        chase: outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nyaya_core::{Atom, Predicate};

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

    /// `D ∪ Σ ⊨ q` for a Boolean CQ, on a chase that reached its fixpoint.
    fn entailed(db: &Instance, tgds: &[Tgd], q: &ConjunctiveQuery) -> bool {
        let outcome = chase(db, tgds, ChaseConfig::default());
        assert!(outcome.saturated);
        entails_bcq(&outcome.instance, q)
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

    #[test]
    fn intro_example_fin_idx_query() {
        // Section 1: q(X) ← fin_idx(X) should return nasdaq after reasoning.
        let tgds = vec![tgd(&[("list_comp", &["X", "Y"])], &[("fin_idx", &["Y"])])];
        let db = Instance::from_atoms([
            Atom::make("company", ["ibm"]),
            Atom::make("list_comp", ["ibm", "nasdaq"]),
        ]);
        let q = cq(&["X"], &[("fin_idx", &["X"])]);
        let res = certain_answers(&db, &tgds, &q, ChaseConfig::default());
        assert!(res.saturated);
        assert_eq!(res.answers.len(), 1);
        assert!(res.answers.contains(&vec![Term::constant("nasdaq")]));
    }

    #[test]
    fn null_tuples_are_not_answers() {
        // p(X) → ∃Y r(X,Y): r's second column is a null → q(Y) ← r(X,Y) has
        // no certain answers.
        let tgds = vec![tgd(&[("p", &["X"])], &[("r", &["X", "Y"])])];
        let db = Instance::from_atoms([Atom::make("p", ["a"])]);
        let q = cq(&["Y"], &[("r", &["X", "Y"])]);
        let res = certain_answers(&db, &tgds, &q, ChaseConfig::default());
        assert!(res.saturated);
        assert!(res.answers.is_empty());
        // But the Boolean projection is entailed.
        let bq = ConjunctiveQuery::boolean(q.body.clone());
        assert!(entailed(&db, &tgds, &bq));
    }

    #[test]
    fn example4_completeness_case() {
        // Example 4: D = {p(a)}, σ1: p(X) → ∃Y t(X,Y), σ2: t(X,Y) → s(Y);
        // q() ← t(A,B), s(B) is entailed.
        let tgds = vec![
            tgd(&[("p", &["X"])], &[("t", &["X", "Y"])]),
            tgd(&[("t", &["X", "Y"])], &[("s", &["Y"])]),
        ];
        let db = Instance::from_atoms([Atom::make("p", ["a"])]);
        let q = cq(&[], &[("t", &["A", "B"]), ("s", &["B"])]);
        assert!(entailed(&db, &tgds, &q));
    }

    #[test]
    fn example3_soundness_case() {
        // Example 3: Σ = {σ1: s(X) → ∃Z t(X,X,Z), σ2: t(X,Y,Z) → r(Y,Z)},
        // D = {s(b), t(a,b,d)}; q() ← t(A,B,c) (constant c) is NOT entailed.
        let tgds = vec![
            tgd(&[("s", &["X"])], &[("t", &["X", "X", "Z"])]),
            tgd(&[("t", &["X", "Y", "Z"])], &[("r", &["Y", "Z"])]),
        ];
        let db = Instance::from_atoms([Atom::make("s", ["b"]), Atom::make("t", ["a", "b", "d"])]);
        let q1 = cq(&[], &[("t", &["A", "B", "c"])]);
        assert!(!entailed(&db, &tgds, &q1));
        // q'' () ← t(A,B,B) is also not entailed (no t with equal 2nd/3rd).
        let q2 = cq(&[], &[("t", &["A", "B", "B"])]);
        assert!(!entailed(&db, &tgds, &q2));
    }

    #[test]
    fn union_answers_accumulate() {
        let db = Instance::from_atoms([Atom::make("p", ["a"]), Atom::make("r", ["b"])]);
        let u = UnionQuery::new(vec![
            cq(&["X"], &[("p", &["X"])]),
            cq(&["X"], &[("r", &["X"])]),
        ]);
        let ans = answers_union(&db, &u);
        assert_eq!(ans.len(), 2);
    }
}
