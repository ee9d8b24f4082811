//! Property-based tests for the chase: a saturated chase is a model, it
//! extends the database monotonically, and certain answers contain only
//! constants.

use proptest::prelude::*;

use nyaya_chase::{answers, chase, satisfies_tgds, ChaseConfig, Instance};
use nyaya_core::{Atom, ConjunctiveQuery, Predicate, Term, Tgd};

const PREDS: [(&str, usize); 4] = [("cp1", 1), ("cp2", 1), ("cr1", 2), ("cr2", 2)];
const VARS: [&str; 3] = ["X", "Y", "Z"];
const CONSTS: [&str; 3] = ["a", "b", "c"];

fn pred(i: usize) -> Predicate {
    let (n, a) = PREDS[i];
    Predicate::new(n, a)
}

fn body_atom() -> impl Strategy<Value = Atom> {
    (0..PREDS.len(), proptest::collection::vec(0..VARS.len(), 2)).prop_map(|(p, vs)| {
        let pr = pred(p);
        let args = (0..pr.arity).map(|k| Term::var(VARS[vs[k]])).collect();
        Atom::new(pr, args)
    })
}

fn tgd_strategy() -> impl Strategy<Value = Tgd> {
    (body_atom(), body_atom()).prop_map(|(b, h)| Tgd::new(vec![b], vec![h]))
}

fn fact_strategy() -> impl Strategy<Value = Atom> {
    (0..PREDS.len(), proptest::collection::vec(0..CONSTS.len(), 2)).prop_map(|(p, cs)| {
        let pr = pred(p);
        let args = (0..pr.arity)
            .map(|k| Term::constant(CONSTS[cs[k]]))
            .collect();
        Atom::new(pr, args)
    })
}

const CONFIG: ChaseConfig = ChaseConfig {
    max_rounds: 10,
    max_atoms: 20_000,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn saturated_chase_satisfies_all_tgds(
        tgds in proptest::collection::vec(tgd_strategy(), 1..5),
        facts in proptest::collection::vec(fact_strategy(), 1..6),
    ) {
        let db = Instance::from_atoms(facts);
        let out = chase(&db, &tgds, CONFIG);
        if out.saturated {
            prop_assert!(satisfies_tgds(&out.instance, &tgds));
        }
    }

    #[test]
    fn chase_extends_the_database(
        tgds in proptest::collection::vec(tgd_strategy(), 1..5),
        facts in proptest::collection::vec(fact_strategy(), 1..6),
    ) {
        let db = Instance::from_atoms(facts.clone());
        let out = chase(&db, &tgds, CONFIG);
        for f in &facts {
            prop_assert!(out.instance.contains(f), "chase lost fact {f}");
        }
        prop_assert!(out.instance.len() >= db.len());
    }

    #[test]
    fn answers_contain_only_constants(
        tgds in proptest::collection::vec(tgd_strategy(), 1..4),
        facts in proptest::collection::vec(fact_strategy(), 1..6),
    ) {
        let db = Instance::from_atoms(facts);
        let out = chase(&db, &tgds, CONFIG);
        // q(X,Y) ← cr1(X,Y)
        let q = ConjunctiveQuery::new(
            vec![Term::var("X"), Term::var("Y")],
            vec![Atom::new(pred(2), vec![Term::var("X"), Term::var("Y")])],
        );
        for tuple in answers(&out.instance, &q) {
            prop_assert!(tuple.iter().all(Term::is_const), "null leaked: {tuple:?}");
        }
    }

    #[test]
    fn chase_is_monotone_in_the_database(
        tgds in proptest::collection::vec(tgd_strategy(), 1..4),
        facts in proptest::collection::vec(fact_strategy(), 2..6),
    ) {
        // Chasing a subset derives a subset of the *constant* atoms (null
        // names may differ, so compare only null-free atoms).
        let db_all = Instance::from_atoms(facts.clone());
        let db_some = Instance::from_atoms(facts[..facts.len() / 2].to_vec());
        let out_all = chase(&db_all, &tgds, CONFIG);
        let out_some = chase(&db_some, &tgds, CONFIG);
        if out_all.saturated && out_some.saturated {
            for atom in out_some.instance.atoms() {
                if atom.args.iter().all(Term::is_const) {
                    prop_assert!(
                        out_all.instance.contains(atom),
                        "monotonicity violated on {atom}"
                    );
                }
            }
        }
    }
}
