//! Negative constraints and key dependencies (paper, Sections 4.2 and 5.1).
//!
//! Checking an NC `φ(X) → ⊥` is tantamount to answering the BCQ
//! `q() ← φ(X)`; a theory `D ∪ Σ ∪ Σ⊥` is consistent iff no NC body is
//! entailed by `chase(D, Σ)`. Non-conflicting KDs are handled by a
//! preliminary direct check on the database (separability).

use std::collections::HashMap;

use nyaya_core::{Atom, ConjunctiveQuery, KeyDependency, NegativeConstraint, Ontology, Term};

use crate::answer::entails_bcq;
use crate::chase::{chase, ChaseConfig};
use crate::instance::Instance;

/// Does the instance (already chased, or plain) violate some NC?
pub(crate) fn violates_ncs(instance: &Instance, ncs: &[NegativeConstraint]) -> Option<usize> {
    ncs.iter().position(|nc| {
        let q = ConjunctiveQuery::boolean(nc.body.clone());
        entails_bcq(instance, &q)
    })
}

/// Direct key-dependency check on a database: no two atoms of `kd.pred` may
/// agree on all key positions and differ elsewhere.
pub(crate) fn violates_kd(db: &Instance, kd: &KeyDependency) -> bool {
    let mut groups: HashMap<Vec<&Term>, &Atom> = HashMap::new();
    for atom in db.by_predicate(kd.pred) {
        let key: Vec<&Term> = kd.key.iter().map(|&i| &atom.args[i]).collect();
        match groups.get(&key) {
            None => {
                groups.insert(key, atom);
            }
            Some(prev) => {
                if prev != &atom {
                    return true;
                }
            }
        }
    }
    false
}

/// Outcome of a full consistency check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Consistency {
    Consistent,
    /// A key dependency is violated directly by the database.
    KdViolated(usize),
    /// A negative constraint is violated by the chase.
    NcViolated(usize),
    /// The chase budget was exhausted before reaching a verdict.
    Unknown,
}

/// Full consistency workflow of Sections 4.2/5.1:
/// 1. check the KDs directly on `db` (separability's preliminary check);
/// 2. chase `db` with the TGDs;
/// 3. check every NC body against the chase.
pub fn check_consistency(db: &Instance, ontology: &Ontology, config: ChaseConfig) -> Consistency {
    for (i, kd) in ontology.kds.iter().enumerate() {
        if violates_kd(db, kd) {
            return Consistency::KdViolated(i);
        }
    }
    if ontology.ncs.is_empty() {
        return Consistency::Consistent;
    }
    let outcome = chase(db, &ontology.tgds, config);
    if let Some(i) = violates_ncs(&outcome.instance, &ontology.ncs) {
        return Consistency::NcViolated(i);
    }
    if outcome.saturated {
        Consistency::Consistent
    } else {
        Consistency::Unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nyaya_core::{Predicate, Tgd};

    #[test]
    fn kd_violation_detected_directly() {
        // key(list_comp) = {1}: a stock is listed on at most one index.
        let pred = Predicate::new("list_comp", 2);
        let kd = KeyDependency::new(pred, vec![0]);
        let ok = Instance::from_atoms([
            Atom::make("list_comp", ["ibm", "nasdaq"]),
            Atom::make("list_comp", ["sap", "dax"]),
        ]);
        assert!(!violates_kd(&ok, &kd));
        let bad = Instance::from_atoms([
            Atom::make("list_comp", ["ibm", "nasdaq"]),
            Atom::make("list_comp", ["ibm", "dax"]),
        ]);
        assert!(violates_kd(&bad, &kd));
    }

    #[test]
    fn nc_violation_through_chase() {
        // δ1 of the running example: legal_person(X), fin_ins(X) → ⊥, with
        // σ8: stock(X,Y,Z) → fin_ins(X) and σ9: company(X,Y,Z) → legal_person(X).
        let tgds = vec![
            Tgd::new(
                vec![Atom::make("stock", ["X", "Y", "Z"])],
                vec![Atom::make("fin_ins", ["X"])],
            ),
            Tgd::new(
                vec![Atom::make("company", ["X", "Y", "Z"])],
                vec![Atom::make("legal_person", ["X"])],
            ),
        ];
        let ncs = vec![NegativeConstraint::new(vec![
            Atom::make("legal_person", ["X"]),
            Atom::make("fin_ins", ["X"]),
        ])];
        let ontology = Ontology {
            tgds,
            ncs,
            kds: vec![],
        };
        // acme is both a stock id and a company name → inconsistent.
        let bad = Instance::from_atoms([
            Atom::make("stock", ["acme", "acme_corp", "p10"]),
            Atom::make("company", ["acme", "us", "tech"]),
        ]);
        assert_eq!(
            check_consistency(&bad, &ontology, ChaseConfig::default()),
            Consistency::NcViolated(0)
        );
        let good = Instance::from_atoms([
            Atom::make("stock", ["ibm_s", "ibm_stock", "p10"]),
            Atom::make("company", ["ibm", "us", "tech"]),
        ]);
        assert_eq!(
            check_consistency(&good, &ontology, ChaseConfig::default()),
            Consistency::Consistent
        );
    }

    #[test]
    fn kd_check_runs_before_chase() {
        let pred = Predicate::new("r", 2);
        let ontology = Ontology {
            tgds: vec![],
            ncs: vec![],
            kds: vec![KeyDependency::new(pred, vec![0])],
        };
        let bad = Instance::from_atoms([Atom::make("r", ["a", "b"]), Atom::make("r", ["a", "c"])]);
        assert_eq!(
            check_consistency(&bad, &ontology, ChaseConfig::default()),
            Consistency::KdViolated(0)
        );
    }
}
