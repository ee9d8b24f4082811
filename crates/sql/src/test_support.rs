//! Fixtures shared by the unit tests of the engine modules.

use std::collections::BTreeSet;

use nyaya_core::{Atom, ConjunctiveQuery, Predicate, Term, UnionQuery};

use crate::table::Database;

pub(crate) fn cq(head: &[&str], body: &[(&str, &[&str])]) -> ConjunctiveQuery {
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
            Atom::new(Predicate::new(p, terms.len()), terms)
        })
        .collect();
    ConjunctiveQuery::new(head_terms, atoms)
}

pub(crate) fn sample_db() -> Database {
    Database::from_facts([
        Atom::make("list_comp", ["ibm_s", "nasdaq"]),
        Atom::make("list_comp", ["sap_s", "dax"]),
        Atom::make("stock_portf", ["fund1", "ibm_s", "q10"]),
        Atom::make("stock_portf", ["fund2", "sap_s", "q20"]),
        Atom::make("has_stock", ["ibm_s", "fund3"]),
    ])
}

/// One CQ through the engine's UCQ entry point.
pub(crate) fn execute_one(db: &Database, q: &ConjunctiveQuery) -> BTreeSet<Vec<Term>> {
    crate::execute_ucq(db, &UnionQuery::new(vec![q.clone()]))
}
