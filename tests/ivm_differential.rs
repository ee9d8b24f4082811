//! Differential tests for standing queries (incremental view
//! maintenance): across hundreds of seeded batch sequences, the diff
//! stream of a subscription — replayed from its seed epoch — must
//! bit-equal per-epoch full re-execution of the same prepared query,
//! including retraction-heavy and same-fact insert+retract batches. A
//! durable variant kills the process state mid-stream and resumes a
//! subscriber from a historical epoch via the ledger. Below the facade,
//! a view over a program whose renaming rules the optimizer's last pass
//! inlined must maintain the same answers as a view over the program as
//! written.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use nyaya::core::{Atom, DatalogProgram, DatalogRule, Predicate, Term};
use nyaya::prelude::*;
use nyaya::rewrite::inline_renamings;
use nyaya::sql::{BaseDeltas, BuildCache, MaterializedView};
use nyaya::{AnswerDiff, Subscription};
use nyaya_ontologies::rng::Prng;

const CLASSES: usize = 4;
const INDIVIDUALS: usize = 8;

/// A small taxonomy whose query answers flow through an intensional
/// predicate on both join sides — exercising multi-level delta
/// propagation, support counting (one `top` tuple can have several
/// derivations) and goal projection.
fn ontology_text() -> String {
    let mut text = String::new();
    for i in 0..CLASSES {
        text.push_str(&format!("t{i}: c{i}(X) -> top(X).\n"));
    }
    text.push_str("q(X, Y) :- top(X), edge(X, Y), top(Y).\n");
    text
}

fn individual(i: usize) -> String {
    format!("ind{i}")
}

fn random_fact(rng: &mut Prng) -> Atom {
    if rng.gen_bool(0.5) {
        let class = format!("c{}", rng.gen_range(0..CLASSES));
        Atom::make(
            class.as_str(),
            [individual(rng.gen_range(0..INDIVIDUALS)).as_str()],
        )
    } else {
        Atom::make(
            "edge",
            [
                individual(rng.gen_range(0..INDIVIDUALS)).as_str(),
                individual(rng.gen_range(0..INDIVIDUALS)).as_str(),
            ],
        )
    }
}

/// A random batch: mixed inserts and retracts over a narrow fact domain
/// (so retractions frequently hit), with every third batch
/// retraction-heavy and an occasional same-fact insert+retract pair.
fn random_batch(rng: &mut Prng, batch_no: usize) -> UpdateBatch {
    let insert_p = if batch_no % 3 == 2 { 0.25 } else { 0.7 };
    let mut batch = UpdateBatch::new();
    for _ in 0..rng.gen_range(1..6) {
        let fact = random_fact(rng);
        if rng.gen_bool(insert_p) {
            batch = batch.insert(fact);
        } else {
            batch = batch.retract(fact);
        }
    }
    if rng.gen_bool(0.3) {
        // The documented semantics: retract-then-insert, so the fact is
        // present afterwards and the net delta is zero if it already was.
        let fact = random_fact(rng);
        batch = batch.insert(fact.clone()).retract(fact);
    }
    batch
}

/// Fold one diff into the replayed answer set, asserting the diff is
/// exact: nothing added twice, nothing removed that was absent.
fn replay_diff(replayed: &mut BTreeSet<Vec<Term>>, diff: &AnswerDiff, context: &str) {
    for tuple in &diff.added {
        assert!(
            replayed.insert(tuple.clone()),
            "{context}: epoch {} added an already-present tuple {tuple:?}",
            diff.epoch
        );
    }
    for tuple in &diff.removed {
        assert!(
            replayed.remove(tuple),
            "{context}: epoch {} removed an absent tuple {tuple:?}",
            diff.epoch
        );
    }
}

fn answers_of(kb: &KnowledgeBase, query: &PreparedQuery) -> BTreeSet<Vec<Term>> {
    kb.execute(query).expect("execute").tuples
}

/// Drain the subscription, expecting exactly one diff at `epoch`.
fn single_diff(sub: &Subscription, epoch: u64, context: &str) -> AnswerDiff {
    let mut diffs = sub.poll();
    assert_eq!(
        diffs.len(),
        1,
        "{context}: expected one diff, got {diffs:?}"
    );
    let diff = diffs.pop().unwrap();
    assert_eq!(diff.epoch, epoch, "{context}");
    diff
}

#[test]
fn seeded_batch_sequences_replay_to_full_reexecution() {
    for seed in 0..200u64 {
        let kb = KnowledgeBase::from_program_text(&ontology_text()).expect("build");
        let query = kb.prepare(&kb.queries()[0].clone()).expect("prepare");
        let sub = kb.subscribe(&query).expect("subscribe");
        let context = format!("seed {seed}");

        let mut replayed = BTreeSet::new();
        let initial = single_diff(&sub, 0, &context);
        assert!(initial.removed.is_empty(), "{context}");
        replay_diff(&mut replayed, &initial, &context);
        assert_eq!(replayed, answers_of(&kb, &query), "{context}: seed diff");

        let mut rng = Prng::seed_from_u64(seed);
        for batch_no in 0..10usize {
            let epoch = kb
                .apply(random_batch(&mut rng, batch_no))
                .expect("apply")
                .epoch;
            let context = format!("seed {seed}, batch {batch_no}");
            let diff = single_diff(&sub, epoch, &context);
            replay_diff(&mut replayed, &diff, &context);
            // The replayed diff stream equals full re-execution, every epoch.
            assert_eq!(replayed, answers_of(&kb, &query), "{context}");
            assert_eq!(sub.current(), replayed, "{context}: view answers");
        }
    }
}

/// A temp data directory removed on drop.
struct DataDir(PathBuf);

impl DataDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("nyaya-ivm-test-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        DataDir(dir)
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[test]
fn durable_subscriptions_resume_from_any_epoch_across_restarts() {
    const BATCHES: u64 = 8;
    for seed in 0..10u64 {
        let dir = DataDir::new("resume");
        // First life: apply batches, recording the per-epoch answer sets
        // a live subscriber would have tracked.
        let mut expected = Vec::new();
        {
            let kb = KnowledgeBase::builder()
                .program_text(&ontology_text())
                .expect("parse")
                .durable(&dir.0)
                .build()
                .expect("build durable");
            let query = kb.prepare(&kb.queries()[0].clone()).expect("prepare");
            expected.push(answers_of(&kb, &query)); // epoch 0
            let mut rng = Prng::seed_from_u64(seed);
            for batch_no in 0..BATCHES as usize {
                kb.apply(random_batch(&mut rng, batch_no)).expect("apply");
                expected.push(answers_of(&kb, &query));
            }
            assert_eq!(kb.epoch(), BATCHES);
        } // dropped mid-stream: the ledger is all that survives

        // Second life: resume a subscriber from a mid-stream epoch. The
        // catch-up diffs must replay the exact per-epoch history.
        let kb = KnowledgeBase::builder()
            .program_text(&ontology_text())
            .expect("parse")
            .durable(&dir.0)
            .build()
            .expect("reopen durable");
        assert_eq!(kb.epoch(), BATCHES, "recovery replays the full WAL");
        let query = kb.prepare(&kb.queries()[0].clone()).expect("prepare");
        let resume_from = 3u64;
        let sub = kb
            .subscribe_from(&query, resume_from)
            .expect("subscribe_from");
        let diffs = sub.poll();
        assert_eq!(
            diffs.len(),
            (BATCHES - resume_from + 1) as usize,
            "seed {seed}"
        );
        let mut replayed = BTreeSet::new();
        for (i, diff) in diffs.iter().enumerate() {
            let context = format!("seed {seed}, catch-up diff {i}");
            assert_eq!(diff.epoch, resume_from + i as u64, "{context}");
            replay_diff(&mut replayed, diff, &context);
            assert_eq!(replayed, expected[diff.epoch as usize], "{context}");
        }
        assert_eq!(sub.epoch(), BATCHES);

        // The resumed subscription is live: new batches keep streaming.
        let mut rng = Prng::seed_from_u64(seed ^ 0xDEAD_BEEF);
        for batch_no in 0..3usize {
            let epoch = kb
                .apply(random_batch(&mut rng, batch_no))
                .expect("apply after resume")
                .epoch;
            let context = format!("seed {seed}, post-resume batch {batch_no}");
            let diff = single_diff(&sub, epoch, &context);
            replay_diff(&mut replayed, &diff, &context);
            assert_eq!(replayed, answers_of(&kb, &query), "{context}");
        }
    }
}

#[test]
fn subscribe_from_past_epoch_requires_durability() {
    let kb = KnowledgeBase::from_program_text(&ontology_text()).expect("build");
    let query = kb.prepare(&kb.queries()[0].clone()).expect("prepare");
    kb.apply(UpdateBatch::new().insert(Atom::make("edge", ["ind0", "ind1"])))
        .expect("apply");
    match kb.subscribe_from(&query, 0) {
        Err(NyayaError::NotDurable { requested: 0 }) => {}
        other => panic!("expected NotDurable, got {other:?}"),
    }
    // A future epoch is EpochNotFound, durable or not.
    match kb.subscribe_from(&query, 99) {
        Err(NyayaError::EpochNotFound {
            requested: 99,
            latest: 1,
        }) => {}
        other => panic!("expected EpochNotFound, got {other:?}"),
    }
    // The current epoch needs no ledger.
    let sub = kb.subscribe_from(&query, 1).expect("subscribe at current");
    assert_eq!(sub.poll().len(), 1);
}

/// A second ontology and query for the join shapes the taxonomy above
/// never puts into a delta rule's body. `W` is existential in `m1` and
/// every atom it occurs in can reach that position, so the four atoms
/// stay one interaction cluster and are rewritten together: their rules
/// keep a constant in a non-delta atom (`link(W, hub)`, and `owns(hub, W)`
/// once `m3` resolves it), a variable repeated inside one atom and bound
/// by nothing before it (`tri(V, V, W)`) and a two-column join key
/// (`pair(X, W)` against `owns(X, W)`); `flag(Z)` shares no variable
/// with anything, so the goal rule joins it as a Cartesian step.
fn shapes_ontology_text(rng: &mut Prng) -> String {
    let mut text = String::from(
        "m1: maker(X) -> owns(X, W).\n\
         m2: owns(X, W) -> pair(Y, W).\n\
         m3: owns(X, W) -> link(W, X).\n\
         m4: owns(X, W) -> tri(X, Y, W).\n",
    );
    // A seeded initial ABox: the seed diff already joins every shape.
    for _ in 0..30 {
        text.push_str(&format!("{}.\n", shapes_fact(rng)));
    }
    text.push_str("q(X, Z) :- owns(X, W), pair(X, W), link(W, hub), tri(V, V, W), flag(Z).\n");
    text
}

/// A fact over three individuals, one of them the query's constant: few,
/// so that the five-atom body is satisfied often enough for the diffs to
/// carry tuples.
fn shapes_fact(rng: &mut Prng) -> Atom {
    let mut ind = || ["ind0", "ind1", "hub"][rng.gen_range(0..3)];
    let (a, b, c) = (ind(), ind(), ind());
    match rng.gen_range(0..7) {
        0 => Atom::make("maker", [a]),
        1 => Atom::make("owns", [a, b]),
        2 => Atom::make("pair", [a, b]),
        3 => Atom::make("link", [a, b]),
        // Half of the triples carry the repeat the query asks for.
        4 => Atom::make("tri", [a, a, c]),
        5 => Atom::make("tri", [a, b, c]),
        _ => Atom::make("flag", [a]),
    }
}

#[test]
fn constants_repeats_wide_keys_and_cartesian_steps_replay_to_full_reexecution() {
    let mut changed_tuples = 0usize;
    for seed in 0..100u64 {
        let mut rng = Prng::seed_from_u64(seed ^ 0x5AFE);
        let kb = KnowledgeBase::from_program_text(&shapes_ontology_text(&mut rng)).expect("build");
        let query = kb.prepare(&kb.queries()[0].clone()).expect("prepare");
        let sub = kb.subscribe(&query).expect("subscribe");
        let context = format!("seed {seed}");

        let mut replayed = BTreeSet::new();
        let initial = single_diff(&sub, 0, &context);
        replay_diff(&mut replayed, &initial, &context);
        assert_eq!(replayed, answers_of(&kb, &query), "{context}: seed diff");
        changed_tuples += initial.added.len();

        for batch_no in 0..12usize {
            let insert_p = if batch_no % 3 == 2 { 0.25 } else { 0.6 };
            let mut batch = UpdateBatch::new();
            for _ in 0..rng.gen_range(1..5) {
                let fact = shapes_fact(&mut rng);
                batch = if rng.gen_bool(insert_p) {
                    batch.insert(fact)
                } else {
                    batch.retract(fact)
                };
            }
            let epoch = kb.apply(batch).expect("apply").epoch;
            let context = format!("seed {seed}, batch {batch_no}");
            let diff = single_diff(&sub, epoch, &context);
            replay_diff(&mut replayed, &diff, &context);
            assert_eq!(replayed, answers_of(&kb, &query), "{context}");
            assert_eq!(sub.current(), replayed, "{context}: view answers");
            changed_tuples += diff.added.len() + diff.removed.len();
        }
    }
    assert!(
        changed_tuples > 300,
        "the fixture must move answers, not replay empty diffs: {changed_tuples}"
    );
}

/// One of four constants, the whole domain of the inlining fixtures.
fn constant(rng: &mut Prng) -> Term {
    Term::constant(&format!("k{}", rng.gen_range(0..4)))
}

/// An atom over `pred` with variables from a pool of four (so atoms
/// repeat variables and join) or, one in six, constants.
fn random_atom(rng: &mut Prng, pred: Predicate) -> Atom {
    let args = (0..pred.arity)
        .map(|_| match rng.gen_range(0..6) {
            0 => constant(rng),
            _ => Term::var(&format!("V{}", rng.gen_range(0..4))),
        })
        .collect();
    Atom::new(pred, args)
}

/// `pred(H0, …)` renaming `read` with its columns shuffled: the shape
/// `inline_renamings` inlines.
fn renaming_rule(rng: &mut Prng, pred: Predicate, read: Predicate) -> DatalogRule {
    let head: Vec<Term> = (0..pred.arity)
        .map(|i| Term::var(&format!("H{i}")))
        .collect();
    let mut body = head.clone();
    for i in (1..body.len()).rev() {
        body.swap(i, rng.gen_range(0..i + 1));
    }
    DatalogRule::new(Atom::new(pred, head), vec![Atom::new(read, body)])
}

/// A rule with one to three body atoms over `readable` and a head over
/// its body variables or, one in eight, a constant.
fn random_rule(rng: &mut Prng, pred: Predicate, readable: &[Predicate]) -> DatalogRule {
    let body: Vec<Atom> = (0..rng.gen_range(1..4))
        .map(|_| {
            let read = readable[rng.gen_range(0..readable.len())];
            random_atom(rng, read)
        })
        .collect();
    let vars: Vec<Term> = body
        .iter()
        .flat_map(|a| a.args.iter())
        .filter(|t| t.is_var())
        .cloned()
        .collect();
    let head = (0..pred.arity)
        .map(|_| {
            if vars.is_empty() || rng.gen_range(0..8) == 0 {
                constant(rng)
            } else {
                vars[rng.gen_range(0..vars.len())].clone()
            }
        })
        .collect();
    DatalogRule::new(Atom::new(pred, head), body)
}

const BASE: [(&str, usize); 3] = [("b1", 1), ("b2", 2), ("b3", 2)];

/// A random stratified program over `b1/1`, `b2/2` and `b3/2` with
/// renaming rules injected. One to four levels define one or two
/// predicates each; a predicate is a renaming of a base or lower
/// predicate (so renamings chain), a renaming beside a second rule (a
/// union, which stays), or one or two random rules, which use the lower
/// predicates with constants and repeated variables. The goal is the last
/// predicate defined, under distinct variables, a repeat or a constant.
fn random_renaming_program(rng: &mut Prng) -> DatalogProgram {
    let mut readable: Vec<Predicate> = BASE.iter().map(|(p, a)| Predicate::new(p, *a)).collect();
    let mut rules = Vec::new();
    for level in 0..rng.gen_range(1..5) {
        let mut defined = Vec::new();
        for i in 0..rng.gen_range(1..3) {
            let read = readable[rng.gen_range(0..readable.len())];
            let pred = Predicate::new(&format!("d{level}_{i}"), read.arity);
            match rng.gen_range(0..6) {
                0..=2 => rules.push(renaming_rule(rng, pred, read)),
                3 => {
                    rules.push(renaming_rule(rng, pred, read));
                    rules.push(random_rule(rng, pred, &readable));
                }
                _ => {
                    for _ in 0..rng.gen_range(1..3) {
                        rules.push(random_rule(rng, pred, &readable));
                    }
                }
            }
            defined.push(pred);
        }
        readable.extend(defined);
    }
    let top = *readable.last().expect("one defined predicate per level");
    let goal = match (top.arity, rng.gen_range(0..3)) {
        (2, 0) => vec![Term::var("G"), Term::var("G")],
        (_, 1) => {
            let mut args = vec![constant(rng)];
            args.extend((1..top.arity).map(|i| Term::var(&format!("G{i}"))));
            args
        }
        _ => (0..top.arity)
            .map(|i| Term::var(&format!("G{i}")))
            .collect(),
    };
    DatalogProgram::new(Atom::new(top, goal), rules)
}

/// A random fact over a base predicate or, one in ten, over `stray` (a
/// defined predicate, whose facts no view may read).
fn random_base_fact(rng: &mut Prng, stray: Predicate) -> Atom {
    let pred = match rng.gen_range(0..10) {
        0 => stray,
        n => {
            let (name, arity) = BASE[n % BASE.len()];
            Predicate::new(name, arity)
        }
    };
    Atom::new(pred, (0..pred.arity).map(|_| constant(rng)).collect())
}

#[test]
fn inlined_renamings_maintain_the_views_plain_delta_rules_do() {
    const SEEDS: u64 = 300;
    let (mut inlined_some, mut moved) = (0, 0);
    for seed in 0..SEEDS {
        let mut rng = Prng::seed_from_u64(seed ^ 0x1_41_1E);
        let program = random_renaming_program(&mut rng);
        let mut inlined = program.clone();
        inline_renamings(&mut inlined);
        let plain = program.clone();
        inlined_some +=
            usize::from(inlined.defined_predicates().len() < plain.defined_predicates().len());
        let mut defined: Vec<Predicate> = program.defined_predicates().into_iter().collect();
        defined.sort();
        let stray = defined[rng.gen_range(0..defined.len())];

        let mut db = Database::new();
        for _ in 0..16 {
            db.insert(random_base_fact(&mut rng, stray));
        }
        let seed_view = |program| MaterializedView::seed(program, &db, &BuildCache::new(), 1);
        let (mut inlined, inlined_diff) = seed_view(inlined).expect("seeds");
        let (mut plain, plain_diff) = seed_view(plain).expect("seeds");
        let context = format!("seed {seed}, program\n{program}");
        assert_eq!(inlined_diff, plain_diff, "{context}: seed diff");
        let from_scratch = execute_program(&db, &program).expect("executes");
        assert_eq!(inlined.answers(), &from_scratch, "{context}: seed answers");
        assert!(
            inlined.support_size() <= plain.support_size(),
            "{context}: seed support"
        );

        for batch_no in 0..8 {
            let old = db.clone();
            let mut touched = Vec::new();
            for _ in 0..rng.gen_range(1..6) {
                let fact = random_base_fact(&mut rng, stray);
                if rng.gen_bool(if batch_no % 3 == 2 { 0.3 } else { 0.6 }) {
                    db.insert(&fact);
                } else {
                    db.remove(&fact);
                }
                touched.push(fact);
            }
            let mut net = BaseDeltas::new();
            for fact in touched {
                let sign = i64::from(db.contains(&fact)) - i64::from(old.contains(&fact));
                if sign != 0 {
                    net.entry(fact.pred).or_default().insert(fact.args, sign);
                }
            }
            let (cold, hot) = (BuildCache::new(), BuildCache::new());
            let inlined_diff = inlined.propagate((&old, &cold), (&db, &hot), &net);
            let plain_diff = plain.propagate((&old, &cold), (&db, &hot), &net);
            let context = format!("{context}batch {batch_no}");
            assert_eq!(inlined_diff, plain_diff, "{context}: diff");
            assert_eq!(inlined.answers(), plain.answers(), "{context}: answers");
            let from_scratch = execute_program(&db, &program).expect("executes");
            assert_eq!(inlined.answers(), &from_scratch, "{context}: answers");
            assert!(
                inlined.support_size() <= plain.support_size(),
                "{context}: support"
            );
            moved += usize::from(!inlined_diff.is_empty());
        }
    }
    // The generator must reach what the comparison is about.
    assert!(
        inlined_some > 150,
        "only {inlined_some} programs inline a renaming"
    );
    assert!(moved > 300, "only {moved} batches moved an answer");
}
