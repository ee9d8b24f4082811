//! Property-based tests for query elimination: Lemma 8 (the eliminated
//! query is equivalent over every instance satisfying Σ) and Lemma 9 (the
//! number of eliminated atoms is strategy-independent).

use proptest::prelude::*;

use nyaya_chase::{chase, entails_bcq, ChaseConfig, Instance};
use nyaya_core::{Atom, ConjunctiveQuery, Predicate, Term, Tgd};
use nyaya_rewrite::EliminationContext;

const PREDS: [(&str, usize); 4] = [("ea", 1), ("eb", 1), ("er", 2), ("es", 2)];
const VARS: [&str; 4] = ["X", "Y", "Z", "W"];
const CONSTS: [&str; 2] = ["a", "b"];

fn pred(i: usize) -> Predicate {
    let (n, a) = PREDS[i];
    Predicate::new(n, a)
}

fn tgd_atom() -> impl Strategy<Value = Atom> {
    (0..PREDS.len(), proptest::collection::vec(0..3usize, 2)).prop_map(|(p, vs)| {
        let pr = pred(p);
        let args = (0..pr.arity).map(|k| Term::var(VARS[vs[k]])).collect();
        Atom::new(pr, args)
    })
}

/// Linear normal TGDs only (the precondition of Section 6).
fn tgd_strategy() -> impl Strategy<Value = Tgd> {
    (tgd_atom(), tgd_atom()).prop_filter_map("normal", |(b, h)| {
        let t = Tgd::new(vec![b], vec![h]);
        t.is_normal().then_some(t)
    })
}

fn query_atom() -> impl Strategy<Value = Atom> {
    (0..PREDS.len(), proptest::collection::vec(0..VARS.len(), 2)).prop_map(|(p, vs)| {
        let pr = pred(p);
        let args = (0..pr.arity).map(|k| Term::var(VARS[vs[k]])).collect();
        Atom::new(pr, args)
    })
}

fn bcq_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    proptest::collection::vec(query_atom(), 2..5).prop_map(ConjunctiveQuery::boolean)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lemma9_count_is_strategy_independent(
        tgds in proptest::collection::vec(tgd_strategy(), 1..5),
        q in bcq_strategy(),
        seed in any::<u64>(),
    ) {
        let ctx = EliminationContext::new(&tgds);
        let n = q.body.len();
        let forward: Vec<usize> = (0..n).collect();
        let backward: Vec<usize> = (0..n).rev().collect();
        use rand::{seq::SliceRandom, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut random = forward.clone();
        random.shuffle(&mut rng);

        let c1 = ctx.eliminate_indices(&q, &forward).len();
        let c2 = ctx.eliminate_indices(&q, &backward).len();
        let c3 = ctx.eliminate_indices(&q, &random).len();
        prop_assert!(c1 == c2 && c2 == c3, "counts {c1}/{c2}/{c3} for {q}");
    }

    #[test]
    fn lemma8_elimination_preserves_entailment_over_models(
        tgds in proptest::collection::vec(tgd_strategy(), 1..5),
        q in bcq_strategy(),
        facts in proptest::collection::vec(fact_strategy(), 1..5),
    ) {
        let ctx = EliminationContext::new(&tgds);
        let reduced = ctx.eliminate(&q);
        prop_assume!(reduced.body.len() < q.body.len()); // only interesting cases

        // Lemma 8 speaks about instances satisfying Σ: chase the random
        // database into a model first.
        let db = Instance::from_atoms(facts);
        let out = chase(&db, &tgds, ChaseConfig { max_rounds: 10, max_atoms: 20_000 });
        prop_assume!(out.saturated);
        prop_assert_eq!(
            entails_bcq(&out.instance, &q),
            entails_bcq(&out.instance, &reduced),
            "Σ = {:?}\nq = {}\neliminate(q) = {}\nI = {:?}",
            tgds, q, reduced, out.instance
        );
    }

    #[test]
    fn elimination_output_is_a_subset_of_the_body(
        tgds in proptest::collection::vec(tgd_strategy(), 1..5),
        q in bcq_strategy(),
    ) {
        let ctx = EliminationContext::new(&tgds);
        let reduced = ctx.eliminate(&q);
        prop_assert!(!reduced.body.is_empty());
        for atom in &reduced.body {
            prop_assert!(q.body.contains(atom));
        }
        prop_assert_eq!(reduced.head.clone(), q.head.clone());
        // Single-pass elimination is NOT idempotent (dropping an atom can
        // unshare a variable) — but a second pass may only shrink further,
        // and the fixpoint variant is stable.
        let again = ctx.eliminate(&reduced);
        prop_assert!(again.body.len() <= reduced.body.len());
        let fixed = ctx.eliminate_fixpoint(&q);
        let refixed = ctx.eliminate(&fixed);
        prop_assert_eq!(refixed.body.len(), fixed.body.len());
        prop_assert!(fixed.body.len() <= reduced.body.len());
    }

    #[test]
    fn fixpoint_elimination_preserves_entailment_over_models(
        tgds in proptest::collection::vec(tgd_strategy(), 1..5),
        q in bcq_strategy(),
        facts in proptest::collection::vec(fact_strategy(), 1..5),
    ) {
        let ctx = EliminationContext::new(&tgds);
        let reduced = ctx.eliminate_fixpoint(&q);
        prop_assume!(reduced.body.len() < q.body.len());
        let db = Instance::from_atoms(facts);
        let out = chase(&db, &tgds, ChaseConfig { max_rounds: 10, max_atoms: 20_000 });
        prop_assume!(out.saturated);
        prop_assert_eq!(
            entails_bcq(&out.instance, &q),
            entails_bcq(&out.instance, &reduced),
            "Σ = {:?}\nq = {}\nfixpoint(q) = {}",
            tgds, q, reduced
        );
    }
}
