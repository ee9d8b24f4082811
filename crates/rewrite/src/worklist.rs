//! The shared fixpoint core of every rewriting engine.
//!
//! TGD-rewrite (Algorithm 1), the QuOnto baseline and the Requiem baseline
//! are all the same computation: explore the closure of a seed query under
//! an engine-specific *expansion* relation, deduplicating modulo bijective
//! variable renaming (the `notExists` of Algorithm 1), and emit the subset
//! of the closure that belongs in the final union. Until PR 4 each engine
//! carried its own copy of that loop; this module is the single shared
//! implementation. An engine supplies an [`Expand`] implementation — how to
//! pre-process a query on admission, how to expand it, and which table
//! entries to emit — and the core supplies everything else:
//!
//! - the **canonical-key table** (dedup modulo α-renaming), sharded by
//!   [`QuerySignature`] so parallel workers rarely contend. One ordering
//!   search per product yields its key; only a genuinely new query pays
//!   for its **canonical form**, which is what the table stores and what
//!   the frontier hands to [`Expand::expand`] — so every explored query
//!   uses the names `V0, V1, …` and nothing else, whichever representative
//!   of its class was generated first;
//! - the **budget**: at most `max_queries` distinct queries are admitted,
//!   enforced at admission so an exact-budget fixpoint completes cleanly
//!   and [`RewriteStats::budget_exhausted`] is set only when a genuinely
//!   new query had to be refused;
//! - **hidden-predicate filtering** of the final union;
//! - **parallel exploration** ([`RewriteOptions::parallel_workers`] > 1):
//!   the frontier is processed in breadth-first rounds, each round split
//!   across plain `std::thread` workers that admit through the sharded
//!   table. No work is duplicated across rounds and no dependencies beyond
//!   the standard library are involved;
//! - **determinism**: the closure of the seed under expansion is a set,
//!   independent of exploration order, and the final union is the stored
//!   canonical forms sorted by canonical key — so for every run that
//!   completes within budget the output and the stats (wall-clock aside)
//!   are bit-identical whether one worker explored the frontier or sixteen
//!   did. (When the budget *is* exhausted the admitted subset is
//!   order-dependent, but the `budget_exhausted` flag itself is still
//!   deterministic: it is set iff the closure exceeds the budget, and
//!   callers such as the `KnowledgeBase` facade treat exhaustion as an
//!   error.)
//! - **stats**: per-step counters, dedup hits, frontier rounds and
//!   wall-clock, merged across workers into one [`RewriteStats`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use nyaya_core::{
    canonical_form, canonical_order, CanonicalKey, ConjunctiveQuery, QuerySignature, UnionQuery,
};

use crate::engine::{RewriteOptions, RewriteStats, Rewriting};
use crate::error::RewriteError;
use crate::subsumption;

/// Successor queries produced by one [`Expand::expand`] call, each labeled
/// with whether it belongs in the final union (`true` — the ⟨q,1⟩ label of
/// Algorithm 1) or is exploration-only (`false` — ⟨q,0⟩, factorization
/// products).
pub struct Products {
    items: Vec<(ConjunctiveQuery, bool)>,
}

impl Products {
    /// Queue `query` for admission with the given output label.
    #[inline]
    pub fn push(&mut self, query: ConjunctiveQuery, in_output: bool) {
        self.items.push((query, in_output));
    }
}

/// An engine-specific expansion relation driven by [`run`].
///
/// Implementations must be [`Sync`]: in parallel mode one shared instance
/// is read by every worker.
pub trait Expand: Sync {
    /// Pre-process a query before it is admitted to the table (and before
    /// deduplication — counters recorded here fire once per *generated*
    /// product, duplicates included, exactly as the pre-PR 4 engines did).
    /// Return `None` to discard the query entirely (negative-constraint
    /// pruning). Also applied to the seed; a discarded seed yields an
    /// empty rewriting.
    fn prepare(
        &self,
        query: ConjunctiveQuery,
        stats: &mut RewriteStats,
    ) -> Option<ConjunctiveQuery> {
        let _ = stats;
        Some(query)
    }

    /// Generate the successor queries of `query` into `out`. `query` is in
    /// canonical form: its variables are `V0, V1, …`, so rules renamed to
    /// any other name space are apart from it.
    fn expand(
        &self,
        query: &ConjunctiveQuery,
        out: &mut Products,
        stats: &mut RewriteStats,
    ) -> Result<(), RewriteError>;

    /// Final filter on table entries that carry the output label (the
    /// Requiem engine drops CQs with Skolem terms here). Hidden-predicate
    /// filtering is applied by the core on top of this.
    fn emit(&self, query: &ConjunctiveQuery) -> bool {
        let _ = query;
        true
    }
}

struct Entry {
    query: ConjunctiveQuery,
    in_output: bool,
}

enum Admitted {
    /// Genuinely new: the caller owns scheduling it for exploration.
    New(ConjunctiveQuery),
    /// Already in the table (label updated if needed).
    Known,
    /// Refused by the budget.
    Refused,
}

/// The sharded canonical-key table. Shard choice follows the query's
/// predicate signature: α-renaming cannot change a signature, so two
/// queries that could collide under the canonical key always land in the
/// same shard, and a shard lock is all the synchronization admission needs.
struct Table {
    shards: Vec<Mutex<HashMap<CanonicalKey, Entry>>>,
    admitted: AtomicUsize,
    budget: usize,
    exhausted: AtomicBool,
}

const SHARDS: usize = 32;

impl Table {
    fn new(budget: usize) -> Self {
        Table {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            admitted: AtomicUsize::new(0),
            budget,
            exhausted: AtomicBool::new(false),
        }
    }

    fn admit(&self, query: ConjunctiveQuery, in_output: bool) -> Admitted {
        let shard = QuerySignature::of(&query).shard(SHARDS);
        let (order, key) = canonical_order(&query);
        let mut map = self.shards[shard].lock().expect("worklist shard poisoned");
        if let Some(entry) = map.get_mut(&key) {
            // ⟨q,0⟩ and ⟨q,1⟩ may coexist in Algorithm 1; the final union
            // keeps queries that received the output label at least once.
            // Re-exploration is unnecessary: expansion depends only on the
            // query, never on its label.
            if in_output {
                entry.in_output = true;
            }
            return Admitted::Known;
        }
        // Budget: refuse genuinely new queries beyond `max_queries` and
        // record that the result is incomplete. Label updates on known
        // queries always go through (above), so an exact-budget fixpoint
        // does not report exhaustion. `fetch_add` under the shard lock can
        // briefly overshoot across shards once the budget is hit; that
        // only ever happens on the (erroring) exhausted path.
        let prior = self.admitted.fetch_add(1, Ordering::Relaxed);
        if prior >= self.budget {
            self.exhausted.store(true, Ordering::Relaxed);
            return Admitted::Refused;
        }
        let query = canonical_form(&query, &order);
        map.insert(
            key,
            Entry {
                query: query.clone(),
                in_output,
            },
        );
        Admitted::New(query)
    }
}

/// Explore one chunk of the frontier: expand each query, prepare and admit
/// every product, and collect the genuinely new queries for the next round.
fn process<E: Expand>(
    chunk: &[ConjunctiveQuery],
    expander: &E,
    table: &Table,
    stats: &mut RewriteStats,
    next: &mut Vec<ConjunctiveQuery>,
) -> Result<(), RewriteError> {
    let mut products = Products { items: Vec::new() };
    for query in chunk {
        stats.explored += 1;
        expander.expand(query, &mut products, stats)?;
        for (product, in_output) in products.items.drain(..) {
            let Some(prepared) = expander.prepare(product, stats) else {
                continue;
            };
            match table.admit(prepared, in_output) {
                Admitted::New(q) => next.push(q),
                Admitted::Known => stats.dedup_hits += 1,
                Admitted::Refused => {}
            }
        }
    }
    Ok(())
}

fn merge(total: &mut RewriteStats, part: RewriteStats) {
    total.explored += part.explored;
    total.factorization_products += part.factorization_products;
    total.rewriting_products += part.rewriting_products;
    total.nc_pruned += part.nc_pruned;
    total.atoms_eliminated += part.atoms_eliminated;
    total.dedup_hits += part.dedup_hits;
}

/// Run an engine's fixpoint: explore the closure of `seed` under
/// `expander`, then assemble the deterministic final union.
///
/// Reads `options.max_queries`, `options.parallel_workers`,
/// `options.hidden_predicates` and `options.minimize`; the engine-specific
/// flags (`elimination`, `nc_pruning`) are the expander's business.
pub fn run<E: Expand>(
    seed: ConjunctiveQuery,
    expander: &E,
    options: &RewriteOptions,
) -> Result<Rewriting, RewriteError> {
    let start = Instant::now();
    let workers = options.parallel_workers.max(1);
    let mut stats = RewriteStats {
        workers,
        ..RewriteStats::default()
    };

    // Section 5.1 / seed admission: a seed the expander discards (e.g. an
    // NC matches the input query itself) yields an empty rewriting.
    let Some(seed) = expander.prepare(seed, &mut stats) else {
        stats.rewrite_micros = elapsed_micros(start);
        return Ok(Rewriting {
            ucq: UnionQuery::default(),
            stats,
        });
    };

    let table = Table::new(options.max_queries);
    let mut frontier: Vec<ConjunctiveQuery> = match table.admit(seed, true) {
        Admitted::New(q) => vec![q],
        // max_queries == 0: nothing may be explored at all.
        Admitted::Known | Admitted::Refused => Vec::new(),
    };

    let mut rounds = 0usize;
    while !frontier.is_empty() {
        rounds += 1;
        if workers == 1 || frontier.len() < 2 * workers {
            // Sequential round (also the parallel path's small-frontier
            // fast path: identical results either way, no spawn overhead).
            let mut next = Vec::new();
            process(&frontier, expander, &table, &mut stats, &mut next)?;
            frontier = next;
        } else {
            let chunk = frontier.len().div_ceil(workers);
            let results: Vec<Result<(RewriteStats, Vec<ConjunctiveQuery>), RewriteError>> =
                std::thread::scope(|scope| {
                    let table = &table;
                    let handles: Vec<_> = frontier
                        .chunks(chunk)
                        .map(|part| {
                            scope.spawn(move || {
                                let mut local = RewriteStats::default();
                                let mut next = Vec::new();
                                process(part, expander, table, &mut local, &mut next)
                                    .map(|()| (local, next))
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| match h.join() {
                            Ok(result) => result,
                            Err(payload) => std::panic::resume_unwind(payload),
                        })
                        .collect()
                });
            let mut next = Vec::new();
            for result in results {
                let (local, part) = result?;
                merge(&mut stats, local);
                next.extend(part);
            }
            frontier = next;
        }
    }
    stats.frontier_rounds = rounds;
    stats.budget_exhausted = table.exhausted.load(Ordering::Relaxed);

    // Deterministic assembly: output-labeled entries, engine emit filter,
    // hidden predicates dropped, sorted by canonical key — identical for
    // every exploration order. The entries already are canonical forms.
    let hidden = |q: &ConjunctiveQuery| {
        q.body
            .iter()
            .any(|a| options.hidden_predicates.contains(&a.pred))
    };
    let mut keyed: Vec<(CanonicalKey, ConjunctiveQuery)> = Vec::new();
    for shard in table.shards {
        let map = shard.into_inner().expect("worklist shard poisoned");
        for (key, entry) in map {
            if entry.in_output && expander.emit(&entry.query) && !hidden(&entry.query) {
                keyed.push((key, entry.query));
            }
        }
    }
    keyed.sort_by(|a, b| a.0.cmp(&b.0));

    let mut ucq = UnionQuery::new(keyed.into_iter().map(|(_, cq)| cq).collect());
    if options.minimize {
        let (minimized, sub) = subsumption::minimize_union_with_stats(&ucq);
        stats.subsumption_checks = sub.hom_checks;
        stats.subsumption_avoided = sub.skipped_by_signature;
        ucq = minimized;
    }
    stats.rewrite_micros = elapsed_micros(start);
    Ok(Rewriting { ucq, stats })
}

fn elapsed_micros(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nyaya_core::Atom;

    /// Fans the one-atom seed out into enough two-atom products for a
    /// parallel round, then panics on the first of them.
    struct Boom;

    impl Expand for Boom {
        fn expand(
            &self,
            query: &ConjunctiveQuery,
            out: &mut Products,
            _stats: &mut RewriteStats,
        ) -> Result<(), RewriteError> {
            if query.body.len() > 1 {
                panic!("boom");
            }
            for name in ["r1", "r2", "r3", "r4"] {
                let mut product = query.clone();
                product.body.push(Atom::make(name, ["X"]));
                out.push(product, true);
            }
            Ok(())
        }
    }

    /// A worker's panic reaches the caller with its original payload, not
    /// a message made up at the join site.
    #[test]
    fn run_re_raises_a_worker_panic_with_its_payload() {
        let seed = ConjunctiveQuery::boolean(vec![Atom::make("p", ["X"])]);
        let options = RewriteOptions {
            parallel_workers: 2,
            ..RewriteOptions::default()
        };
        let caught = std::panic::catch_unwind(|| run(seed, &Boom, &options).map(|r| r.ucq.size()))
            .expect_err("the worker's panic must propagate");
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"boom"));
    }
}
