//! Lockdown of the columnar storage engine against the preserved
//! row-at-a-time oracle.
//!
//! The fact store is column-major (flat `u32` cell vectors per column,
//! a cell being a constant's symbol index) and joins run in
//! morsel-batched kernels with optional intra-query parallelism. None of
//! that may be observable in any answer. Three suites pin it:
//!
//! 1. **Fuzz**: 300 seeded random databases × UCQs — the columnar engine
//!    and every intra-query worker split agree with the preserved
//!    `reference` row engine bit for bit.
//! 2. **Benchmark suites**: the Table 1 ontologies' queries over
//!    generated ABoxes agree the same way, per suite.
//! 3. **Segment v3 kill-and-reopen**: encode → decode → re-encode is bit
//!    stable, and a decoded database is indistinguishable (bytes and
//!    answers) from a from-scratch rebuild of the same facts.

use nyaya_core::{Atom, Term, UnionQuery};
use nyaya_ontologies::rng::Prng;
use nyaya_ontologies::{
    generate_abox, lubm_abox, random_database, random_ucq, AboxConfig, FuzzConfig, LubmConfig,
};
use nyaya_sql::{
    decode_database, encode_database, execute_ucq, execute_ucq_intra, plan_cq_cost, reference,
    BuildCache, Database, StepOp,
};

const SEEDS: u64 = 300;

#[test]
fn columnar_engine_matches_row_oracle_across_fuzz_seeds_and_worker_splits() {
    let config = FuzzConfig::default();
    for seed in 0..SEEDS {
        let mut rng = Prng::seed_from_u64(0xC01A_0000 ^ seed);
        let facts = random_database(&mut rng, &config);
        let db = Database::from_facts(facts.iter().cloned());
        let ucq = random_ucq(&mut rng, &config);

        let oracle = reference::execute_ucq_reference(&db, &ucq);
        assert_eq!(
            execute_ucq(&db, &ucq),
            oracle,
            "seed {seed}: columnar cost-planned engine vs row oracle on {ucq}"
        );
        for intra in [2, 5] {
            let (answers, _) = execute_ucq_intra(&db, &ucq, 1, intra, &BuildCache::new(), 1.0);
            assert_eq!(
                answers, oracle,
                "seed {seed}: intra={intra} morsel split vs row oracle on {ucq}"
            );
        }
    }
}

/// A join whose intermediate comfortably exceeds two morsels, so the
/// intra-query path really splits (guarded by the engine's 2-morsel
/// floor) instead of silently running sequentially.
#[test]
fn intra_query_split_really_engages_and_stays_bit_identical() {
    let n = 5_000u32;
    let mut facts: Vec<Atom> = Vec::new();
    for i in 0..n {
        facts.push(Atom::make(
            "edge",
            [format!("a{i}").as_str(), format!("b{}", i % 97).as_str()],
        ));
    }
    for i in 0..97u32 {
        facts.push(Atom::make(
            "label",
            [format!("b{i}").as_str(), format!("l{}", i % 5).as_str()],
        ));
    }
    // A third atom over the join's 5000-tuple intermediate: the planner
    // scans the small side first, so only this step's probe side is big
    // enough to split.
    for i in 0..n {
        facts.push(Atom::make("check", [format!("a{i}").as_str()]));
    }
    let db = Database::from_facts(facts);
    let ucq = UnionQuery::new(vec![nyaya_parser::parse_query(
        "q(X, L) :- edge(X, Y), label(Y, L), check(X).",
    )
    .unwrap()]);

    let (sequential, seq_metrics) = execute_ucq_intra(&db, &ucq, 1, 1, &BuildCache::new(), 1.0);
    assert_eq!(sequential.len(), n as usize);
    // 5000 probe tuples = 5 logical morsels on the second join step; the
    // counter is split-independent, so sequential and parallel agree.
    assert!(
        seq_metrics.morsel_tasks >= 5,
        "morsel batching never engaged: {seq_metrics:?}"
    );
    for intra in [2, 4, 16] {
        let (parallel, par_metrics) =
            execute_ucq_intra(&db, &ucq, 1, intra, &BuildCache::new(), 1.0);
        assert_eq!(parallel, sequential, "intra={intra}");
        assert_eq!(
            par_metrics.morsel_tasks, seq_metrics.morsel_tasks,
            "morsel count must be host- and split-stable (intra={intra})"
        );
    }
    assert_eq!(
        sequential,
        reference::execute_ucq_reference(&db, &ucq),
        "columnar vs row oracle on the wide join"
    );
}

/// What a `merge` step (a probe of the key column's posting index) must
/// do whatever drives it: join repeated keys with every one of their rows,
/// and drop probe values the table does not hold — constants absent from
/// the column — on a probe side long enough to split.
#[test]
fn merge_step_probes_the_posting_index_with_present_and_absent_keys() {
    let keys = 1_000u32;
    let mut facts: Vec<Atom> = Vec::new();
    // 4 000 rows, every key four times.
    for i in 0..4 * keys {
        facts.push(Atom::make(
            "big",
            [format!("k{}", i % keys).as_str(), format!("v{i}").as_str()],
        ));
    }
    // 2 502 probe values (three morsels): every second one is in `big`.
    let probe = nyaya_core::Predicate::new("probe", 1);
    let mut probes: Vec<Term> = (0..2_500u32)
        .map(|i| match i % 2 {
            0 => Term::constant(&format!("k{}", (i / 2) % keys)),
            _ => Term::constant(&format!("absent{i}")),
        })
        .collect();
    probes.insert(700, Term::constant("gone7"));
    probes.insert(1_900, Term::constant("gone_k1"));
    let probe_rows = probes.len();
    facts.extend(probes.into_iter().map(|t| Atom::new(probe, vec![t])));
    let db = Database::from_facts(facts);

    let q = nyaya_parser::parse_query("q(X, V) :- probe(X), big(X, V).").unwrap();
    let plan = plan_cq_cost(&db, &q);
    assert_eq!(
        (plan.order.as_slice(), plan.ops.as_slice()),
        (
            &[0, 1][..],
            &[StepOp::Scan, StepOp::Merge { key_col: 0 }][..]
        ),
        "the second step must be the merge step this test is about"
    );

    let oracle = reference::execute_cq_reference(&db, &q);
    assert_eq!(oracle.len(), 4 * keys as usize, "every key, all four rows");
    let ucq = UnionQuery::new(vec![q]);
    let run = |intra| execute_ucq_intra(&db, &ucq, 1, intra, &BuildCache::new(), 1.0);
    let (sequential, seq_metrics) = run(1);
    let (split, split_metrics) = run(3);
    for (answers, m) in [(&sequential, &seq_metrics), (&split, &split_metrics)] {
        assert_eq!(answers, &oracle);
        assert_eq!(m.merge_joins, 1, "{m:?}");
        // The scan of `probe` is the only step that fetches a build side.
        assert_eq!((m.build_cache_misses, m.build_cache_hits), (1, 0), "{m:?}");
    }
    // One morsel for the scan's seed tuple, three for the probe side.
    assert_eq!(
        seq_metrics.morsel_tasks,
        1 + probe_rows.div_ceil(1024) as u64
    );
    assert_eq!(split_metrics.morsel_tasks, seq_metrics.morsel_tasks);
}

#[test]
fn benchmark_suite_queries_agree_with_the_row_oracle() {
    for bench in nyaya_ontologies::load_all() {
        let facts = generate_abox(&bench, &AboxConfig::default());
        let db = Database::from_facts(facts);
        for (name, query) in &bench.queries {
            let ucq = UnionQuery::new(vec![query.clone()]);
            let oracle = reference::execute_ucq_reference(&db, &ucq);
            assert_eq!(
                execute_ucq(&db, &ucq),
                oracle,
                "{}/{name}: columnar engine vs row oracle",
                bench.id
            );
            let (intra, _) = execute_ucq_intra(&db, &ucq, 1, 4, &BuildCache::new(), 1.0);
            assert_eq!(
                intra, oracle,
                "{}/{name}: intra-parallel engine vs row oracle",
                bench.id
            );
        }
    }
}

#[test]
fn segment_v3_reopen_is_bit_identical_to_a_fresh_rebuild() {
    // Random fuzz databases plus a LUBM ABox (realistic shape, ~20k
    // facts, shared constants across predicates).
    let config = FuzzConfig::default();
    let mut cases: Vec<Vec<Atom>> = (0..40u64)
        .map(|seed| {
            let mut rng = Prng::seed_from_u64(0x5E6_3000 ^ seed);
            random_database(&mut rng, &config)
        })
        .collect();
    cases.push(lubm_abox(&LubmConfig {
        universities: 1,
        departments_per_university: 15,
        seed: 7,
    }));

    for (i, facts) in cases.into_iter().enumerate() {
        let live = Database::from_facts(facts.iter().cloned());
        let bytes = encode_database(&live);
        let reopened = decode_database(&bytes).expect("own segment bytes decode");

        // Canonical bytes: re-encoding the decoded database reproduces
        // the segment bit for bit.
        assert_eq!(
            encode_database(&reopened),
            bytes,
            "case {i}: canonical bytes"
        );
        // And the reopened database is indistinguishable from a
        // from-scratch rebuild over the same facts.
        let rebuilt = Database::from_facts(facts.iter().cloned());
        assert_eq!(
            encode_database(&rebuilt),
            bytes,
            "case {i}: reopen vs fresh rebuild"
        );
        assert_eq!(reopened.len(), live.len(), "case {i}: fact count");
    }
}
