//! Semantic validation of the Lemma 1/2 normalization: for every database,
//! the raw and the normalized ontology entail exactly the same Boolean CQs
//! over the original schema (auxiliary predicates excluded).

use nyaya::chase::{chase, entails_bcq, ChaseConfig, Instance};
use nyaya::core::{normalize, Atom, ConjunctiveQuery};
use nyaya::ontologies::{load, running_example, BenchmarkId};
use nyaya::parser::parse_query;

fn config() -> ChaseConfig {
    ChaseConfig {
        max_rounds: 10,
        max_atoms: 100_000,
    }
}

#[test]
fn running_example_normalization_preserves_entailment() {
    let ontology = running_example::ontology();
    let norm = normalize(&ontology.tgds);
    assert!(norm.tgds.len() > ontology.tgds.len());

    let db = Instance::from_atoms(running_example::database_facts());
    let raw_chase = chase(&db, &ontology.tgds, config());
    let norm_chase = chase(&db, &norm.tgds, config());
    assert!(raw_chase.saturated && norm_chase.saturated);

    let queries = [
        "q() :- fin_ins(A).",
        "q() :- fin_idx(nasdaq, T, M).",
        "q() :- has_stock(S, C), stock_portf(C, S, Q).",
        "q() :- company(ibm, C, S), legal_person(ibm).",
        "q() :- stock_portf(V, ibm_s, W).",
        "q() :- fin_idx(dax, T, M).",
    ];
    for src in queries {
        let q = parse_query(src).unwrap();
        assert_eq!(
            entails_bcq(&raw_chase.instance, &q),
            entails_bcq(&norm_chase.instance, &q),
            "normalization changed the answer to {src}"
        );
    }
}

#[test]
fn path5_normalization_preserves_entailment() {
    let bench = load(BenchmarkId::P5);
    // a3(v) entails a 3-edge chain from v in both the raw (multi-head) and
    // the normalized ontology.
    let db = Instance::from_atoms([Atom::make("a3", ["v"])]);
    let raw = chase(&db, &bench.raw.tgds, config());
    let norm = chase(&db, &bench.normalized, config());
    assert!(raw.saturated && norm.saturated);

    for n in 1..=3 {
        let body = (0..n)
            .map(|i| {
                Atom::make(
                    "edge",
                    [format!("B{i}").as_str(), format!("B{}", i + 1).as_str()],
                )
            })
            .map(|mut a| {
                // make B0 the constant v
                if let nyaya::core::Term::Var(v) = &a.args[0] {
                    if v.name() == "B0" {
                        a.args[0] = nyaya::core::Term::constant("v");
                    }
                }
                a
            })
            .collect::<Vec<_>>();
        let q = ConjunctiveQuery::boolean(body);
        assert!(
            entails_bcq(&raw.instance, &q),
            "raw P5 must entail the {n}-chain"
        );
        assert!(
            entails_bcq(&norm.instance, &q),
            "normalized P5 must entail the {n}-chain"
        );
    }
    // …but not a 4-chain from a level-3 vertex.
    let q4 = parse_query("q() :- edge(v, B1), edge(B1, B2), edge(B2, B3), edge(B3, B4).").unwrap();
    let q4 = ConjunctiveQuery::boolean(q4.body);
    assert!(!entails_bcq(&raw.instance, &q4));
    assert!(!entails_bcq(&norm.instance, &q4));
}

#[test]
fn aux_predicates_never_survive_into_hidden_rewritings() {
    for id in [BenchmarkId::U, BenchmarkId::A, BenchmarkId::P5] {
        let bench = load(id);
        let mut opts = nyaya::rewrite::RewriteOptions::nyaya();
        opts.hidden_predicates = bench.hidden_predicates.clone();
        let r = nyaya::rewrite::tgd_rewrite(&bench.queries[0].1, &bench.normalized, &[], &opts)
            .unwrap();
        for cq in r.ucq.iter() {
            for atom in &cq.body {
                assert!(
                    !bench.aux_predicates.contains(&atom.pred),
                    "{id}: auxiliary predicate {:?} leaked into the rewriting",
                    atom.pred
                );
            }
        }
    }
}
