//! Standing queries: subscribe to a prepared query, apply batches, and
//! consume the per-epoch answer diffs the maintained view streams back —
//! insertions, exact retractions through the TGDs, and a same-fact
//! retract+insert that nets to nothing.
//!
//! ```text
//! cargo run --example standing_queries
//! ```

use nyaya::prelude::*;
use nyaya::UpdateBatch;

fn main() {
    // A tiny taxonomy: two subclasses under `employee`, queried through
    // a binary join. `employee` is intensional, so answers flow through
    // the compiled program's strata, not just base-fact matches. No TGD
    // defines `reports`: the compiler gives its atom a predicate that
    // only renames the relation, which the program optimizer inlines
    // instead of copying `reports` into the view.
    let kb = KnowledgeBase::from_program_text(
        "
        t0: analyst(X) -> employee(X).
        t1: manager(X) -> employee(X).

        analyst(ann).
        manager(bob).
        reports(ann, bob).

        q(A, B) :- employee(A), reports(A, B), employee(B).
        ",
    )
    .expect("valid program");
    let prepared = kb.prepare(&kb.queries()[0].clone()).expect("prepares");

    // Subscribing materializes the answer set once (with per-tuple
    // support counts) and registers the view for delta maintenance.
    // The first diff is the seed: the full answer set at this epoch.
    let sub = kb.subscribe(&prepared).expect("subscribes");
    let seed = sub.poll().pop().expect("seed diff");
    assert_eq!((seed.epoch, seed.added.len()), (0, 1));
    println!("epoch 0: +{} (seed)", seed.added.len());
    // Seeded: `employee` at both join sides ({ann, bob} twice) and the
    // answer. A materialized `reports` renaming would add a sixth entry.
    assert_eq!(kb.stats().ivm_seeded_tuples, 5);

    // An insertion batch. Only the batch's deltas are propagated — the
    // query is never re-executed. The new `reports` fact reaches the goal
    // rule directly, through the inlined renaming.
    kb.apply(
        UpdateBatch::new()
            .insert(Atom::make("reports", ["bob", "ann"]))
            .insert(Atom::make("analyst", ["cyd"])),
    )
    .expect("applies");
    let diff = sub.poll().pop().expect("one diff per epoch");
    assert_eq!(
        (diff.epoch, diff.added.len(), diff.removed.len()),
        (1, 1, 0)
    );
    let pair = |a: &str, b: &str| vec![Term::constant(a), Term::constant(b)];
    assert_eq!(diff.added, vec![pair("bob", "ann")]);
    println!("epoch 1: +{} -{}", diff.added.len(), diff.removed.len());

    // Retracting ann's only class membership removes employee(ann)'s
    // last support — both answers involving ann disappear, exactly.
    kb.apply(UpdateBatch::new().retract(Atom::make("analyst", ["ann"])))
        .expect("applies");
    let diff = sub.poll().pop().expect("diff");
    assert_eq!(
        (diff.epoch, diff.added.len(), diff.removed.len()),
        (2, 0, 2)
    );
    assert_eq!(diff.removed, vec![pair("ann", "bob"), pair("bob", "ann")]);
    println!("epoch 2: +{} -{}", diff.added.len(), diff.removed.len());

    // A same-fact retract+insert nets to zero: the snapshot changes
    // epoch, the subscription stays epoch-aligned with an empty diff.
    kb.apply(
        UpdateBatch::new()
            .retract(Atom::make("manager", ["bob"]))
            .insert(Atom::make("manager", ["bob"])),
    )
    .expect("applies");
    let diff = sub.poll().pop().expect("diff");
    assert!(diff.is_empty() && diff.epoch == 3);
    println!("epoch 3: empty diff (same-fact retract+insert nets out)");

    // The maintained view equals full re-execution at every point.
    assert_eq!(
        sub.current(),
        kb.execute(&prepared).expect("executes").tuples
    );

    let stats = kb.stats();
    println!(
        "\nstats: {} subscription(s), {} diff(s) streamed, +{}/-{} view tuples, {} µs maintaining, \
         {} support entries seeded in {} µs",
        stats.subscriptions_active,
        stats.subscription_diffs,
        stats.ivm_added_tuples,
        stats.ivm_removed_tuples,
        stats.ivm_micros,
        stats.ivm_seeded_tuples,
        stats.ivm_seed_micros
    );
}
