//! Predicate signatures of conjunctive queries: a cheap, renaming-invariant
//! fingerprint of *which* predicates a query's body mentions.
//!
//! Two places in the rewriting compiler are quadratic in the number of
//! queries and pay a full homomorphism search (or an exact canonical-key
//! computation) per pair:
//!
//! - **subsumption** (`minimize_union`): `q_j` can only contain `q_i` if
//!   every body predicate of `q_j` also occurs in the body of `q_i` (a
//!   containment mapping sends each atom of `q_j` onto *some* atom of the
//!   frozen `q_i`, so the container's predicate set must be a subset of the
//!   containee's) and the head arities match;
//! - **frontier sharding**: the parallel worklist partitions its canonical
//!   table by signature, so queries that could ever collide under
//!   α-renaming (equal signatures are a necessary condition for canonical-
//!   key equality) land in the same shard.
//!
//! The signature records the head arity, the sorted *set* of body
//! predicates (the multiset collapses — a containment mapping may send
//! several atoms onto one), and a 64-bit Bloom fingerprint of that set for
//! O(1) subset rejection before the exact merge-walk.

use crate::query::ConjunctiveQuery;

/// Renaming-invariant predicate signature of one conjunctive query.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct QuerySignature {
    /// Head arity (containment requires equal arities).
    arity: usize,
    /// Number of body atoms (the multiset cardinality; kept for display
    /// and shard mixing, not for the subset test).
    atoms: usize,
    /// Sorted, deduplicated `(symbol index, arity)` pairs of the body.
    preds: Vec<(u32, u32)>,
    /// One bit per predicate (hashed); `a ⊆ b` implies
    /// `a.fingerprint & !b.fingerprint == 0`.
    fingerprint: u64,
}

/// Mix a predicate into a 0..64 bit position (splitmix-style multiply).
#[inline]
fn pred_bit(sym: u32, arity: u32) -> u64 {
    let x = ((sym as u64) << 32) | arity as u64;
    1u64 << (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
}

impl QuerySignature {
    /// Compute the signature of `q`.
    pub fn of(q: &ConjunctiveQuery) -> Self {
        let mut preds: Vec<(u32, u32)> = q
            .body
            .iter()
            .map(|a| (a.pred.sym.index(), a.pred.arity as u32))
            .collect();
        let atoms = preds.len();
        preds.sort_unstable();
        preds.dedup();
        let fingerprint = preds.iter().fold(0u64, |f, &(s, ar)| f | pred_bit(s, ar));
        QuerySignature {
            arity: q.head.len(),
            atoms,
            preds,
            fingerprint,
        }
    }

    /// The Bloom fingerprint of the body-predicate set.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of body atoms.
    pub fn atoms(&self) -> usize {
        self.atoms
    }

    /// A stable shard index in `0..shards` for partitioned tables. Mixes
    /// the whole signature so single-bit fingerprints still spread.
    pub fn shard(&self, shards: usize) -> usize {
        debug_assert!(shards > 0);
        let mut h = self.fingerprint ^ (self.arity as u64).wrapping_mul(0x517C_C1B7_2722_0A95);
        for &(s, ar) in &self.preds {
            h = (h ^ (((s as u64) << 32) | ar as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        (h >> 32) as usize % shards
    }

    /// Necessary condition for "the query of `self` contains the query of
    /// `other`" (`other ⊆ self` — every answer of `other` is an answer of
    /// `self`). A containment mapping from `self` into frozen `other`
    /// requires equal head arities and `preds(self) ⊆ preds(other)`.
    ///
    /// Returns `false` only when containment is impossible; `true` means
    /// "run the homomorphism search".
    pub fn may_contain(&self, other: &QuerySignature) -> bool {
        if self.arity != other.arity {
            return false;
        }
        // O(1) Bloom rejection before the exact merge walk.
        if self.fingerprint & !other.fingerprint != 0 {
            return false;
        }
        // self.preds ⊆ other.preds — both sorted and deduplicated.
        let mut it = other.preds.iter();
        'outer: for p in &self.preds {
            for q in it.by_ref() {
                match q.cmp(p) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{Atom, Predicate};
    use crate::term::Term;

    fn q(head: &[&str], body: &[(&str, &[&str])]) -> ConjunctiveQuery {
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
    fn signature_is_renaming_invariant() {
        let a = q(&["A"], &[("p", &["A", "B"]), ("r", &["B"])]);
        let b = q(&["X"], &[("r", &["Y"]), ("p", &["X", "Y"])]);
        assert_eq!(QuerySignature::of(&a), QuerySignature::of(&b));
    }

    #[test]
    fn subset_signatures_may_contain() {
        // p(A,B) can contain p(A,B) ∧ r(B): preds {p} ⊆ {p, r}.
        let small = q(&["A"], &[("p", &["A", "B"])]);
        let big = q(&["A"], &[("p", &["A", "B"]), ("r", &["B"])]);
        let (ss, bs) = (QuerySignature::of(&small), QuerySignature::of(&big));
        assert!(ss.may_contain(&bs));
        // …but not the other way around: r is missing from `small`.
        assert!(!bs.may_contain(&ss));
    }

    #[test]
    fn arity_mismatch_rules_out_containment() {
        let a = q(&["A"], &[("p", &["A", "B"])]);
        let b = q(&[], &[("p", &["A", "B"])]);
        assert!(!QuerySignature::of(&a).may_contain(&QuerySignature::of(&b)));
    }

    #[test]
    fn disjoint_predicates_rule_out_containment() {
        let a = q(&[], &[("p", &["A"])]);
        let b = q(&[], &[("r", &["A"])]);
        assert!(!QuerySignature::of(&a).may_contain(&QuerySignature::of(&b)));
    }

    #[test]
    fn multiset_collapses_for_the_subset_test() {
        // p(A,B) ∧ p(B,C) contains p(A,A) — repeated predicates collapse.
        let twice = q(&[], &[("p", &["A", "B"]), ("p", &["B", "C"])]);
        let once = q(&[], &[("p", &["A", "A"])]);
        assert!(QuerySignature::of(&twice).may_contain(&QuerySignature::of(&once)));
        assert_eq!(QuerySignature::of(&twice).preds.len(), 1);
        assert_eq!(QuerySignature::of(&twice).atoms(), 2);
    }

    #[test]
    fn may_contain_never_false_negative_vs_contains() {
        // Signature pruning must be sound: whenever contains() holds, the
        // signature test must pass.
        let queries = [
            q(&["A"], &[("p", &["A", "B"])]),
            q(&["A"], &[("p", &["A", "A"])]),
            q(&["A"], &[("p", &["A", "B"]), ("r", &["B"])]),
            q(&["A"], &[("r", &["A"])]),
            q(&["A"], &[("p", &["A", "c"])]),
        ];
        for a in &queries {
            for b in &queries {
                if a.contains(b) {
                    assert!(
                        QuerySignature::of(a).may_contain(&QuerySignature::of(b)),
                        "signature rejected a true containment: {a} ⊇ {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn shard_is_stable_and_in_range() {
        let a = q(&["A"], &[("p", &["A", "B"])]);
        let s = QuerySignature::of(&a);
        for shards in [1usize, 2, 7, 16] {
            let idx = s.shard(shards);
            assert!(idx < shards);
            assert_eq!(idx, QuerySignature::of(&a).shard(shards));
        }
    }
}
