//! Property-based tests for the non-recursive Datalog rewriter: on random
//! linear ontologies the clustered program must be indistinguishable from
//! the monolithic TGD-rewrite output — same unfolded UCQ (modulo CQ
//! equivalence) and same certain answers against the chase oracle.

use proptest::prelude::*;

use nyaya_chase::{certain_answers, ChaseConfig, Instance};
use nyaya_core::{Atom, ConjunctiveQuery, Predicate, Term, Tgd, UnionQuery};
use nyaya_rewrite::{interaction_clusters, nr_datalog_rewrite, tgd_rewrite, RewriteOptions};
use nyaya_sql::{execute_program, execute_ucq, Database};

const PREDS: [(&str, usize); 4] = [("pa", 1), ("pb", 1), ("pr", 2), ("ps", 2)];
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

/// Linear, normal TGDs (the rewriter's precondition).
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

/// A unary-head CQ whose answer variable is the first variable of the
/// first atom (keeps every generated query safe).
fn cq_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    proptest::collection::vec(query_atom(), 2..5).prop_map(|body| {
        let head = vec![Term::Var(body[0].variables()[0])];
        ConjunctiveQuery::new(head, body)
    })
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

fn ucq_equivalent(a: &UnionQuery, b: &UnionQuery) -> bool {
    a.iter().all(|qa| b.iter().any(|qb| qb.contains(qa)))
        && b.iter().all(|qb| a.iter().any(|qa| qa.contains(qb)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn clusters_partition_the_body(
        tgds in proptest::collection::vec(tgd_strategy(), 1..5),
        q in cq_strategy(),
    ) {
        let clusters = interaction_clusters(&q, &tgds);
        let mut seen = vec![false; q.body.len()];
        for c in &clusters {
            prop_assert!(!c.is_empty());
            for &i in c {
                prop_assert!(!seen[i], "atom {i} in two clusters");
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "uncovered atom: {clusters:?}");
    }

    #[test]
    fn program_expansion_equivalent_to_monolithic_ucq(
        tgds in proptest::collection::vec(tgd_strategy(), 1..5),
        q in cq_strategy(),
    ) {
        let opts = RewriteOptions::nyaya();
        let mono = tgd_rewrite(&q, &tgds, &[], &opts).unwrap();
        prop_assume!(!mono.stats.budget_exhausted);
        prop_assume!(mono.ucq.size() <= 200);
        let program = nr_datalog_rewrite(&q, &tgds, &[], &opts).unwrap().program;
        let expanded = program.expand();
        prop_assert!(
            ucq_equivalent(&mono.ucq, &expanded),
            "Σ = {tgds:?}\nq = {q}\nmono {} CQs, expanded {} CQs",
            mono.ucq.size(),
            expanded.size()
        );
    }

    #[test]
    fn program_answers_match_certain_answers(
        tgds in proptest::collection::vec(tgd_strategy(), 1..4),
        q in cq_strategy(),
        facts in proptest::collection::vec(fact_strategy(), 1..6),
    ) {
        let opts = RewriteOptions::nyaya_star();
        let rewriting = tgd_rewrite(&q, &tgds, &[], &opts).unwrap();
        prop_assume!(!rewriting.stats.budget_exhausted);
        prop_assume!(rewriting.ucq.size() <= 200);
        let program = nr_datalog_rewrite(&q, &tgds, &[], &opts).unwrap().program;

        let db = Database::from_facts(facts.clone());
        let via_program = execute_program(&db, &program).expect("rewriter programs evaluate");
        let via_ucq = execute_ucq(&db, &rewriting.ucq);
        prop_assert_eq!(&via_program, &via_ucq, "program vs UCQ for {}", &q);

        // And both must agree with the chase oracle (Theorem 10 analogue).
        let instance = Instance::from_atoms(facts);
        let config = ChaseConfig { max_rounds: 12, max_atoms: 20_000 };
        let oracle = certain_answers(&instance, &tgds, &q, config);
        prop_assume!(oracle.saturated);
        let oracle_set: std::collections::BTreeSet<Vec<Term>> =
            oracle.answers.into_iter().collect();
        prop_assert_eq!(&via_program, &oracle_set, "program vs chase for {}", &q);
    }
}
