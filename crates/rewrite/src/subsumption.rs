//! UCQ minimization by subsumption: drop every CQ contained in another CQ
//! of the union.
//!
//! This is the post-processing step Requiem's "G" configuration applies
//! (\[19\]) and an orthogonal optimization to the paper's query elimination:
//! elimination shrinks *individual* queries during rewriting; subsumption
//! removes *whole* queries whose answers another disjunct already covers.
//! The result is answer-equivalent: if `q ⊑ q'` then `q ∪ q' ≡ q'`.
//!
//! Naively this is `O(n²)` homomorphism searches. Since PR 4 the pass is
//! **indexed**: a [`QuerySignature`] per member (head arity + body
//! predicate set + Bloom fingerprint) rejects most candidate pairs in O(1)
//! — `q_j` can only contain `q_i` if every body predicate of `q_j` occurs
//! in `q_i` — so the homomorphism search runs only on compatible pairs.
//! `tests/rewrite_differential.rs` holds the unindexed pass as its oracle.

use nyaya_core::{QuerySignature, UnionQuery};

/// Counters describing one subsumption pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubsumptionStats {
    /// Ordered candidate pairs considered.
    pub pairs: usize,
    /// Pairs rejected by the signature index without a homomorphism check.
    pub skipped_by_signature: usize,
    /// Containment (homomorphism) checks actually run.
    pub hom_checks: usize,
    /// Members dropped as subsumed.
    pub dropped: usize,
}

/// [`minimize_union_with_stats`] without the counters.
pub(crate) fn minimize_union(u: &UnionQuery) -> UnionQuery {
    minimize_union_with_stats(u).0
}

/// Remove subsumed CQs from a union, using the predicate-signature index
/// to avoid incompatible containment checks; also returns the pass's
/// counters. `q_i` is dropped iff some surviving `q_j` contains it (ties —
/// mutual containment — keep the earlier member).
pub fn minimize_union_with_stats(u: &UnionQuery) -> (UnionQuery, SubsumptionStats) {
    let n = u.cqs.len();
    let mut keep = vec![true; n];
    let mut stats = SubsumptionStats::default();
    let sigs: Vec<QuerySignature> = u.cqs.iter().map(QuerySignature::of).collect();
    for i in 0..n {
        for j in 0..n {
            if i == j || !keep[j] {
                continue;
            }
            stats.pairs += 1;
            // Can q_j contain q_i at all? The signature test is a necessary
            // condition for a containment mapping, so skipping is sound.
            if !sigs[j].may_contain(&sigs[i]) {
                stats.skipped_by_signature += 1;
                continue;
            }
            stats.hom_checks += 1;
            if !u.cqs[j].contains(&u.cqs[i]) {
                continue;
            }
            // Mutual containment keeps the earlier member: a later `q_j`
            // only displaces `q_i` if the containment is strict.
            let drop_i = if j < i {
                true
            } else {
                stats.hom_checks += 1;
                !u.cqs[i].contains(&u.cqs[j])
            };
            if drop_i {
                keep[i] = false;
                stats.dropped += 1;
                break;
            }
        }
    }
    let survivors = u.cqs.iter().zip(&keep).filter(|(_, k)| **k);
    let survivors = UnionQuery::new(survivors.map(|(q, _)| q.clone()).collect());
    (survivors, stats)
}

/// Full Σ-free minimization of a UCQ: first compute the core of every
/// member ([`nyaya_core::minimize_cq`], Chandra–Merlin \[21\]), then drop
/// subsumed members. The result is the canonical minimal form of the
/// union — answer-equivalent on every database.
pub fn fully_minimize_union(u: &UnionQuery) -> UnionQuery {
    minimize_union(&nyaya_core::minimize_union_bodies(u))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nyaya_core::{Atom, ConjunctiveQuery, Term};

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
                Atom::new(nyaya_core::Predicate::new(p, terms.len()), terms)
            })
            .collect();
        ConjunctiveQuery::new(head_terms, atoms)
    }

    #[test]
    fn more_constrained_query_is_dropped() {
        // p(A,B) subsumes p(A,A).
        let u = UnionQuery::new(vec![
            cq(&["A"], &[("p", &["A", "B"])]),
            cq(&["A"], &[("p", &["A", "A"])]),
        ]);
        let m = minimize_union(&u);
        assert_eq!(m.size(), 1);
        assert_eq!(m.cqs[0].body[0].variables().len(), 2);
    }

    #[test]
    fn extra_atoms_are_subsumed() {
        // p(A,B) subsumes p(A,B) ∧ r(B).
        let u = UnionQuery::new(vec![
            cq(&["A"], &[("p", &["A", "B"]), ("r", &["B"])]),
            cq(&["A"], &[("p", &["A", "B"])]),
        ]);
        assert_eq!(minimize_union(&u).size(), 1);
        let (m, stats) = minimize_union_with_stats(&u);
        assert_eq!(stats.dropped, 1);
        assert_eq!(m.cqs, vec![u.cqs[1].clone()]);
    }

    #[test]
    fn incomparable_queries_survive() {
        let u = UnionQuery::new(vec![
            cq(&["A"], &[("p", &["A", "B"])]),
            cq(&["A"], &[("r", &["A"])]),
        ]);
        let (m, stats) = minimize_union_with_stats(&u);
        assert_eq!(m.size(), 2);
        // Disjoint predicate sets: the index must reject both pairs.
        assert_eq!(stats.skipped_by_signature, 2);
        assert_eq!(stats.hom_checks, 0);
    }

    #[test]
    fn equivalent_duplicates_keep_exactly_one() {
        // Same query modulo renaming plus a genuinely different one.
        let u = UnionQuery::new(vec![
            cq(&["A"], &[("p", &["A", "B"])]),
            cq(&["X"], &[("p", &["X", "Y"])]),
            cq(&["A"], &[("r", &["A"])]),
        ]);
        assert_eq!(minimize_union(&u).size(), 2);
    }

    #[test]
    fn empty_union_is_stable() {
        assert_eq!(minimize_union(&UnionQuery::default()).size(), 0);
    }

    #[test]
    fn full_minimization_composes_core_and_subsumption() {
        let u = UnionQuery::new(vec![
            cq(&["A"], &[("p", &["A", "B"]), ("p", &["A", "C"])]),
            cq(&["A"], &[("p", &["A", "A"])]),
        ]);
        // Subsumption alone drops the more constrained member but keeps the
        // survivor's redundant body atom…
        let sub_only = minimize_union(&u);
        assert_eq!(sub_only.size(), 1);
        assert_eq!(sub_only.length(), 2);
        // …the composed minimizer also computes the survivor's core.
        let m = fully_minimize_union(&u);
        assert_eq!(m.size(), 1);
        assert_eq!(m.length(), 1);
    }

    #[test]
    fn minimization_preserves_answers() {
        use nyaya_sql::{execute_ucq, Database};
        let u = UnionQuery::new(vec![
            cq(&["A"], &[("p", &["A", "B"])]),
            cq(&["A"], &[("p", &["A", "A"])]),
            cq(&["A"], &[("r", &["A"]), ("p", &["A", "C"])]),
        ]);
        let m = minimize_union(&u);
        assert!(m.size() < u.size());
        let db = Database::from_facts([
            Atom::make("p", ["x", "x"]),
            Atom::make("p", ["y", "z"]),
            Atom::make("r", ["y"]),
        ]);
        assert_eq!(execute_ucq(&db, &u), execute_ucq(&db, &m));
    }
}
