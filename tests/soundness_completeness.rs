//! Property-based validation of Theorems 6 and 10: for random linear
//! ontologies, random databases and random BCQs,
//! `D ⊨ TGD-rewrite(q, Σ) ⇔ chase(D, Σ) ⊨ q`, and likewise for
//! TGD-rewrite⋆. The QuOnto- and Requiem-style baselines must agree on
//! entailment too.

use proptest::prelude::*;

use nyaya::chase::{chase, entails_bcq, ChaseConfig, Instance};
use nyaya::core::{Atom, ConjunctiveQuery, Predicate, Term, Tgd};
use nyaya::rewrite::{quonto_rewrite, requiem_rewrite, tgd_rewrite, RewriteOptions};
use nyaya::sql::{execute_ucq, Database};

/// Predicates: p1..p3 unary, r1..r3 binary.
fn pred(i: usize) -> Predicate {
    if i < 3 {
        Predicate::new(["p1", "p2", "p3"][i], 1)
    } else {
        Predicate::new(["r1", "r2", "r3"][i - 3], 2)
    }
}

fn var(i: usize) -> Term {
    Term::var(["X", "Y", "Z", "W"][i % 4])
}

fn atom_strategy(max_var: usize) -> impl Strategy<Value = Atom> {
    (0..6usize, proptest::collection::vec(0..max_var, 2)).prop_map(|(p, vs)| {
        let pr = pred(p);
        let args = (0..pr.arity).map(|k| var(vs[k])).collect();
        Atom::new(pr, args)
    })
}

/// A random *linear, normal* TGD: one body atom, one head atom, and any
/// head variable not in the body is existential — normality is enforced by
/// deduplicating existential occurrences.
fn tgd_strategy() -> impl Strategy<Value = Tgd> {
    (atom_strategy(2), atom_strategy(3)).prop_filter_map("normal tgd", |(body, head)| {
        let tgd = Tgd::new(vec![body], vec![head]);
        tgd.is_normal().then_some(tgd)
    })
}

fn db_strategy() -> impl Strategy<Value = Vec<Atom>> {
    proptest::collection::vec(
        (0..6usize, proptest::collection::vec(0..3usize, 2)).prop_map(|(p, cs)| {
            let pr = pred(p);
            let names = ["a", "b", "c"];
            let args = (0..pr.arity).map(|k| Term::constant(names[cs[k]])).collect();
            Atom::new(pr, args)
        }),
        1..6,
    )
}

fn bcq_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    proptest::collection::vec(atom_strategy(4), 1..4)
        .prop_map(ConjunctiveQuery::boolean)
}

/// Chase deep enough that, for these tiny linear ontologies, every BCQ with
/// ≤ 3 atoms entailed at all is entailed within the bound. With ≤ 6 rules
/// over 6 predicates, atom shapes repeat after a handful of rounds; 12
/// rounds is generous (validated by the saturation flag below: most runs
/// saturate outright).
const CHASE: ChaseConfig = ChaseConfig {
    max_rounds: 12,
    max_atoms: 60_000,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rewriting_matches_chase_semantics(
        tgds in proptest::collection::vec(tgd_strategy(), 1..5),
        facts in db_strategy(),
        q in bcq_strategy(),
    ) {
        let db = Instance::from_atoms(facts.clone());
        let outcome = chase(&db, &tgds, CHASE);
        // Only saturated chases give an exact oracle; budget-limited runs
        // are skipped (rare with these sizes).
        prop_assume!(outcome.saturated);
        let expected = entails_bcq(&outcome.instance, &q);

        let mut opts = RewriteOptions::nyaya();
        opts.max_queries = 40_000;
        let rewriting = tgd_rewrite(&q, &tgds, &[], &opts).unwrap();
        prop_assume!(!rewriting.stats.budget_exhausted);

        let sql_db = Database::from_facts(facts);
        let got = !execute_ucq(&sql_db, &rewriting.ucq).is_empty();
        prop_assert_eq!(
            got, expected,
            "NY disagrees with chase\nΣ = {:?}\nq = {}\nrewriting:\n{}",
            tgds, q, rewriting.ucq
        );
    }

    #[test]
    fn star_rewriting_matches_plain(
        tgds in proptest::collection::vec(tgd_strategy(), 1..5),
        facts in db_strategy(),
        q in bcq_strategy(),
    ) {
        let mut plain_opts = RewriteOptions::nyaya();
        plain_opts.max_queries = 40_000;
        let plain = tgd_rewrite(&q, &tgds, &[], &plain_opts).unwrap();
        prop_assume!(!plain.stats.budget_exhausted);
        let mut star_opts = RewriteOptions::nyaya_star();
        star_opts.max_queries = 40_000;
        let star = tgd_rewrite(&q, &tgds, &[], &star_opts).unwrap();
        prop_assume!(!star.stats.budget_exhausted);

        // Elimination may only shrink the rewriting…
        prop_assert!(star.ucq.size() <= plain.ucq.size());
        // …while preserving answers over every database.
        let sql_db = Database::from_facts(facts);
        prop_assert_eq!(
            !execute_ucq(&sql_db, &plain.ucq).is_empty(),
            !execute_ucq(&sql_db, &star.ucq).is_empty(),
            "Σ = {:?}\nq = {}", tgds, q
        );
    }

    #[test]
    fn baselines_agree_on_entailment(
        tgds in proptest::collection::vec(tgd_strategy(), 1..4),
        facts in db_strategy(),
        q in bcq_strategy(),
    ) {
        let mut opts = RewriteOptions::nyaya();
        opts.max_queries = 40_000;
        let qo = quonto_rewrite(&q, &tgds, &opts).unwrap();
        let rq = requiem_rewrite(&q, &tgds, &opts).unwrap();
        let ny = tgd_rewrite(&q, &tgds, &[], &opts).unwrap();
        prop_assume!(
            !qo.stats.budget_exhausted
                && !rq.stats.budget_exhausted
                && !ny.stats.budget_exhausted
        );

        let sql_db = Database::from_facts(facts);
        let answers = [
            !execute_ucq(&sql_db, &qo.ucq).is_empty(),
            !execute_ucq(&sql_db, &rq.ucq).is_empty(),
            !execute_ucq(&sql_db, &ny.ucq).is_empty(),
        ];
        prop_assert!(
            answers.windows(2).all(|w| w[0] == w[1]),
            "QO/RQ/NY disagree: {:?}\nΣ = {:?}\nq = {}",
            answers, tgds, q
        );
    }
}
