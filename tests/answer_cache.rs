//! Exactness harness for the answer cache.
//!
//! The cache claims to be *exact*: a hit is provably bit-identical to
//! re-execution, because entries are keyed by the snapshot's
//! per-predicate write epochs over the query's touched predicates. This
//! harness attacks that claim differentially: for hundreds of seeded
//! random write workloads, every answer a cache-enabled knowledge base
//! produces — live, pinned to old snapshots, and (durably) via
//! `snapshot_at` time travel — must bit-equal a cache-disabled twin fed
//! the identical batches.

use std::collections::BTreeSet;
use std::sync::Arc;

use nyaya::core::{Atom, Term};
use nyaya::{KnowledgeBase, PreparedQuery, Snapshot, UpdateBatch};
use nyaya_ontologies::rng::Prng;

const ONTOLOGY: &str = "
    t1: manager(X) -> employee(X).
    t2: employee(X) -> person(X).
    t3: person(X) -> member(X, Y).
";

/// Queries over distinct touched-predicate sets, so batches that write
/// one predicate leave the others' cache entries valid.
const QUERIES: [&str; 4] = [
    "q(A) :- person(A).",
    "q(A) :- employee(A).",
    "q(A, B) :- member(A, B).",
    "q(A) :- manager(A), employee(A).",
];

const SEEDS: u64 = 200;

fn build(cache: bool) -> KnowledgeBase {
    KnowledgeBase::builder()
        .program_text(ONTOLOGY)
        .unwrap()
        .answer_cache(cache)
        .build()
        .unwrap()
}

/// One random fact over a small constant pool (collisions intended, so
/// retractions sometimes hit and inserts sometimes duplicate).
fn random_fact(rng: &mut Prng) -> Atom {
    let c = |rng: &mut Prng| format!("c{}", rng.gen_range(0..8));
    match rng.gen_range(0..3) {
        0 => Atom::make("manager", [c(rng).as_str()]),
        1 => Atom::make("person", [c(rng).as_str()]),
        _ => Atom::make("member", [c(rng).as_str(), c(rng).as_str()]),
    }
}

fn random_batch(rng: &mut Prng) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for _ in 0..rng.gen_range(1..4) {
        let fact = random_fact(rng);
        if rng.gen_bool(0.25) {
            batch = batch.retract(fact);
        } else {
            batch = batch.insert(fact);
        }
    }
    batch
}

fn tuples(kb: &KnowledgeBase, query: &PreparedQuery) -> BTreeSet<Vec<Term>> {
    kb.execute(query).expect("execute").tuples
}

fn tuples_at(kb: &KnowledgeBase, query: &PreparedQuery, snap: &Snapshot) -> BTreeSet<Vec<Term>> {
    kb.execute_at(query, snap).expect("execute_at").tuples
}

#[test]
fn cached_answers_bit_equal_uncached_reexecution_across_200_seeds() {
    let mut total_hits = 0u64;
    for seed in 0..SEEDS {
        let mut rng = Prng::seed_from_u64(0xAC_CE55 ^ seed);
        let cached = build(true);
        let plain = build(false);
        let cached_queries: Vec<PreparedQuery> = QUERIES
            .iter()
            .map(|q| cached.prepare_text(q).unwrap())
            .collect();
        let plain_queries: Vec<PreparedQuery> = QUERIES
            .iter()
            .map(|q| plain.prepare_text(q).unwrap())
            .collect();
        let mut pins: Vec<(Arc<Snapshot>, Arc<Snapshot>)> = Vec::new();

        for epoch in 0..4u64 {
            if epoch > 0 {
                // Identical interleaved writer batch on both twins.
                let batch = random_batch(&mut rng);
                let a = cached.apply(batch.clone()).expect("apply cached");
                let b = plain.apply(batch).expect("apply plain");
                assert_eq!((a.inserted, a.retracted), (b.inserted, b.retracted));
            }
            pins.push((cached.snapshot(), plain.snapshot()));
            for (cq, pq) in cached_queries.iter().zip(&plain_queries) {
                let expected = tuples(&plain, pq);
                // Twice: the first execution fills the cache, the second
                // is the hit under test. Both must be bit-identical.
                assert_eq!(tuples(&cached, cq), expected, "seed {seed} epoch {epoch}");
                assert_eq!(
                    tuples(&cached, cq),
                    expected,
                    "seed {seed} epoch {epoch} (cache hit)"
                );
            }
        }

        // Pinned snapshots: hits keyed by *old* predicate epochs must
        // still be exact after later writes changed the live tables.
        for (e, (cached_pin, plain_pin)) in pins.iter().enumerate() {
            for (cq, pq) in cached_queries.iter().zip(&plain_queries) {
                let expected = tuples_at(&plain, pq, plain_pin);
                assert_eq!(
                    tuples_at(&cached, cq, cached_pin),
                    expected,
                    "seed {seed} pinned epoch {e}"
                );
                assert_eq!(
                    tuples_at(&cached, cq, cached_pin),
                    expected,
                    "seed {seed} pinned epoch {e} (cache hit)"
                );
            }
        }

        let stats = cached.stats();
        total_hits += stats.cache_answer_hits;
        assert_eq!(plain.stats().cache_answer_hits, 0, "cache off means off");
        assert_eq!(plain.stats().cache_answer_misses, 0);
    }
    // The harness proves nothing if the cache never actually hit.
    assert!(
        total_hits >= SEEDS * QUERIES.len() as u64,
        "only {total_hits} cache hits across {SEEDS} seeds"
    );
}

#[test]
fn writes_invalidate_only_touched_predicates() {
    let kb = build(true);
    let member = kb.prepare_text("q(A, B) :- member(A, B).").unwrap();
    let manager = kb.prepare_text("q(A) :- manager(A).").unwrap();
    kb.apply(UpdateBatch::new().insert(Atom::make("manager", ["ada"])))
        .unwrap();

    // Fill both entries, then hit both once.
    for query in [&member, &manager] {
        tuples(&kb, query);
        tuples(&kb, query);
    }
    let before = kb.stats();
    assert_eq!(before.cache_answer_hits, 2, "{before:?}");

    // Write ONLY `member`: the member entry must miss, the manager
    // entry (fingerprinted over untouched predicates) must still hit.
    kb.apply(UpdateBatch::new().insert(Atom::make("member", ["ada", "grace"])))
        .unwrap();
    // (Only the explicit member fact answers: B is a head variable, so
    // the existential in t3 cannot bind it.)
    assert_eq!(tuples(&kb, &member).len(), 1);
    assert_eq!(tuples(&kb, &manager).len(), 1);
    let after = kb.stats();
    assert_eq!(
        after.cache_answer_hits,
        before.cache_answer_hits + 1,
        "manager must hit across the member-only write: {after:?}"
    );
    assert_eq!(
        after.cache_answer_misses,
        before.cache_answer_misses + 1,
        "member must miss after its predicate was written: {after:?}"
    );
}

#[test]
fn time_travel_hits_are_exact_over_a_durable_ledger() {
    let dir = std::env::temp_dir().join(format!("nyaya-answer-cache-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let kb = KnowledgeBase::builder()
        .program_text(ONTOLOGY)
        .unwrap()
        .durable(&dir)
        .build()
        .unwrap();
    let query = kb.prepare_text("q(A) :- person(A).").unwrap();

    let mut rng = Prng::seed_from_u64(0x7173);
    let mut expected_by_epoch = vec![tuples(&kb, &query)];
    for _ in 0..6 {
        kb.apply(random_batch(&mut rng)).expect("apply");
        expected_by_epoch.push(tuples(&kb, &query));
    }

    // `snapshot_at` materializes historical epochs; repeated executions
    // at the same epoch must serve exact cache hits, and every answer
    // must equal what the live execution saw when that epoch was
    // current.
    let before = kb.stats().cache_answer_hits;
    for (epoch, expected) in expected_by_epoch.iter().enumerate() {
        let snap = kb.snapshot_at(epoch as u64).expect("snapshot_at");
        for _ in 0..2 {
            assert_eq!(&tuples_at(&kb, &query, &snap), expected, "epoch {epoch}");
        }
    }
    assert!(
        kb.stats().cache_answer_hits > before,
        "time-travel re-executions never hit the cache: {:?}",
        kb.stats()
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The answer ring keys on a handle's bound constants: point queries
/// whose constants the ontology never mentions share one template and one
/// cache entry, yet each gets its own answers at the same epoch, live and
/// under time travel, and the same constant asked twice is one hit.
#[test]
fn constants_of_one_template_never_share_a_cached_answer() {
    let dir =
        std::env::temp_dir().join(format!("nyaya-answer-cache-points-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let kb = KnowledgeBase::builder()
        .program_text(ONTOLOGY)
        .unwrap()
        .durable(&dir)
        .build()
        .unwrap();
    let member = |a: &str, b: &str| Atom::make("member", [a, b]);
    kb.apply(
        UpdateBatch::new()
            .insert(member("ann", "x"))
            .insert(member("bob", "y")),
    )
    .unwrap();
    kb.apply(UpdateBatch::new().insert(member("ann", "z")))
        .unwrap();
    let point = |c: &str| {
        kb.prepare_text(&format!("q(B) :- member({c}, B)."))
            .unwrap()
    };
    let names = |tuples: BTreeSet<Vec<Term>>| -> Vec<String> {
        tuples.iter().map(|t| t[0].to_string()).collect()
    };
    let (ann, bob) = (point("ann"), point("bob"));
    assert_eq!(ann.key(), bob.key(), "one template");

    // Epoch 2, live: each constant misses once, then hits its own answer.
    let hits = |kb: &KnowledgeBase| kb.stats().cache_answer_hits;
    assert_eq!(names(tuples(&kb, &ann)), ["x", "z"]);
    assert_eq!(names(tuples(&kb, &bob)), ["y"]);
    assert_eq!(hits(&kb), 0, "bob must not be served ann's answer");
    let before = hits(&kb);
    assert_eq!(names(tuples(&kb, &point("ann"))), ["x", "z"]);
    assert_eq!(hits(&kb), before + 1, "the same constant twice is one hit");

    // Epoch 1, time travel: the same, against the historical snapshot.
    let before = kb.stats();
    assert_eq!(names(kb.execute_at_epoch(&ann, 1).unwrap().tuples), ["x"]);
    assert_eq!(names(kb.execute_at_epoch(&bob, 1).unwrap().tuples), ["y"]);
    assert_eq!(names(kb.execute_at_epoch(&ann, 1).unwrap().tuples), ["x"]);
    assert_eq!(names(kb.execute_at_epoch(&bob, 1).unwrap().tuples), ["y"]);
    let after = kb.stats();
    assert_eq!(after.cache_answer_misses, before.cache_answer_misses + 2);
    assert_eq!(after.cache_answer_hits, before.cache_answer_hits + 2);

    drop(kb);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hot constants asked in rotation keep hitting: the template's ring has
/// room for a few dozen of them, as when each constant had an entry of
/// its own, and a fresh handle per request finds them.
#[test]
fn hot_constants_in_rotation_keep_hitting() {
    let kb = KnowledgeBase::builder()
        .program_text(ONTOLOGY)
        .unwrap()
        .build()
        .unwrap();
    let hot: Vec<String> = (0..16).map(|i| format!("p{i}")).collect();
    let mut batch = UpdateBatch::new();
    for c in &hot {
        batch = batch.insert(Atom::make("member", [c.as_str(), "club"]));
    }
    kb.apply(batch).unwrap();
    let ask = |c: &str| {
        let q = kb
            .prepare_text(&format!("q(B) :- member({c}, B)."))
            .unwrap();
        tuples(&kb, &q).len()
    };
    for c in &hot {
        assert_eq!(ask(c), 1);
    }
    let before = kb.stats();
    for _ in 0..3 {
        for c in &hot {
            assert_eq!(ask(c), 1);
        }
    }
    let after = kb.stats();
    assert_eq!(after.cache_answer_misses, before.cache_answer_misses);
    assert_eq!(after.cache_answer_hits, before.cache_answer_hits + 3 * 16);
}
