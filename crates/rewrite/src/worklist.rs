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
//! - **parallel exploration**: the frontier is processed in breadth-first
//!   rounds, and a round of at least [`SPLIT_FRONTIER`] queries is split
//!   across up to [`RewriteOptions::parallel_workers`] workers
//!   ([`nyaya_core::par::fan_out`]) that admit through the sharded table.
//!   Smaller rounds run on the caller, where a spawn would cost more than
//!   the round. No work is duplicated across rounds;
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

use nyaya_core::par::fan_out;
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
pub(crate) struct Products {
    items: Vec<(ConjunctiveQuery, bool)>,
}

impl Products {
    /// Queue `query` for admission with the given output label.
    #[inline]
    pub(crate) fn push(&mut self, query: ConjunctiveQuery, in_output: bool) {
        self.items.push((query, in_output));
    }
}

/// An engine-specific expansion relation driven by [`run`].
///
/// Implementations must be [`Sync`]: in parallel mode one shared instance
/// is read by every worker.
pub(crate) trait Expand: Sync {
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

/// The smallest frontier round that is split across workers.
///
/// On the suites of Section 7 the frontier rounds fall into two groups:
/// the light cells never hold more than 140 queries in a round, and the
/// six heavy cells (A-q2..q5, P5-q4, P5-q5) reach at least 841, with
/// 91–100 % of their explored queries in rounds of this size or more.
/// Splitting the light rounds made them slower on a 2-core host; splitting
/// the heavy ones made those compiles 1.25–1.64× faster.
pub(crate) const SPLIT_FRONTIER: usize = 256;

/// Run an engine's fixpoint: explore the closure of `seed` under
/// `expander`, splitting every frontier round of at least `split_at`
/// queries ([`SPLIT_FRONTIER`] outside this crate's tests) across
/// workers, then assemble the deterministic final union.
///
/// Reads `options.max_queries`, `options.parallel_workers`,
/// `options.hidden_predicates` and `options.minimize`; the engine-specific
/// flags (`elimination`, `nc_pruning`) are the expander's business.
pub(crate) fn run<E: Expand>(
    seed: ConjunctiveQuery,
    expander: &E,
    options: &RewriteOptions,
    split_at: usize,
) -> Result<Rewriting, RewriteError> {
    let start = Instant::now();
    let mut stats = RewriteStats {
        workers: 1,
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
        let workers = if frontier.len() >= split_at {
            options.parallel_workers
        } else {
            1
        };
        let (parts, used) = fan_out(&frontier, workers, |out: &mut Vec<_>, part| {
            let mut local = RewriteStats::default();
            let mut next = Vec::new();
            out.push(
                process(part, expander, &table, &mut local, &mut next).map(|()| (local, next)),
            );
        });
        stats.workers = stats.workers.max(used);
        let mut next = Vec::new();
        for part in parts {
            let (local, queries) = part?;
            merge(&mut stats, local);
            next.extend(queries);
        }
        frontier = next;
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
    use crate::engine::tgd_rewrite_split;
    use crate::quonto::quonto_rewrite_split;
    use crate::requiem::requiem_rewrite_split;
    use nyaya_core::{Atom, Tgd};
    use nyaya_ontologies::rng::Prng;
    use nyaya_ontologies::{random_cq, random_linear_tgds, FuzzConfig};
    use std::thread::ThreadId;

    /// Fans the one-atom seed out into `width` two-atom products, which
    /// expand to nothing. With `boom` set to the caller's thread they
    /// panic instead, after checking that a worker, not the caller, is
    /// expanding them.
    struct Fan {
        width: usize,
        boom: Option<ThreadId>,
    }

    impl Expand for Fan {
        fn expand(
            &self,
            query: &ConjunctiveQuery,
            out: &mut Products,
            _stats: &mut RewriteStats,
        ) -> Result<(), RewriteError> {
            if query.body.len() > 1 {
                if let Some(caller) = self.boom {
                    assert_ne!(std::thread::current().id(), caller, "ran on the caller");
                    panic!("boom");
                }
                return Ok(());
            }
            for i in 0..self.width {
                let mut product = query.clone();
                product.body.push(Atom::make(&format!("r{i}"), ["X"]));
                out.push(product, true);
            }
            Ok(())
        }
    }

    fn fan(width: usize, boom: Option<ThreadId>) -> Result<Rewriting, RewriteError> {
        let seed = ConjunctiveQuery::boolean(vec![Atom::make("p", ["X"])]);
        let options = RewriteOptions {
            parallel_workers: 2,
            ..RewriteOptions::default()
        };
        run(seed, &Fan { width, boom }, &options, SPLIT_FRONTIER)
    }

    /// A round under [`SPLIT_FRONTIER`] queries runs on the caller; a round
    /// of exactly that many splits across the workers.
    #[test]
    fn only_a_frontier_of_split_frontier_queries_splits() {
        let below = fan(SPLIT_FRONTIER - 1, None).unwrap();
        assert_eq!((below.ucq.size(), below.stats.workers), (SPLIT_FRONTIER, 1));
        let at = fan(SPLIT_FRONTIER, None).unwrap();
        assert_eq!((at.ucq.size(), at.stats.workers), (SPLIT_FRONTIER + 1, 2));
    }

    /// A worker's panic reaches the caller with its original payload, not
    /// a message made up at the join site.
    #[test]
    fn run_re_raises_a_worker_panic_with_its_payload() {
        let caller = std::thread::current().id();
        let caught = std::panic::catch_unwind(|| fan(SPLIT_FRONTIER, Some(caller)).map(|_| ()))
            .expect_err("the worker's panic must propagate");
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"boom"));
    }

    /// Stats with wall-clock and worker count blanked, for
    /// sequential-vs-parallel comparison.
    fn comparable(stats: &RewriteStats) -> RewriteStats {
        RewriteStats {
            rewrite_micros: 0,
            workers: 0,
            ..stats.clone()
        }
    }

    /// For every run within budget, a run that splits every frontier round
    /// of two or more queries across three workers prints the sequential
    /// run's UCQ and reports its stats, for NY, QuOnto and Requiem on 200
    /// seeded random ontologies.
    #[test]
    fn parallel_rounds_are_bit_identical_across_200_fuzz_seeds() {
        type Engine = fn(
            &ConjunctiveQuery,
            &[Tgd],
            &RewriteOptions,
            usize,
        ) -> Result<Rewriting, RewriteError>;
        let engines: [(&str, Engine); 3] = [
            ("NY", |q, tgds, o, split| {
                tgd_rewrite_split(q, tgds, &[], o, None, split)
            }),
            ("QO", quonto_rewrite_split),
            ("RQ", requiem_rewrite_split),
        ];
        let config = FuzzConfig {
            max_atoms: 3,
            ..Default::default()
        };
        let options = |workers| RewriteOptions {
            max_queries: 30_000,
            parallel_workers: workers,
            ..Default::default()
        };
        let mut split = 0usize;
        for seed in 0..200u64 {
            let mut rng = Prng::seed_from_u64(0x9E37 ^ seed);
            let tgds = random_linear_tgds(&mut rng, 1 + (seed as usize % 6));
            let head_arity = rng.gen_range(0..3);
            let q = random_cq(&mut rng, &config, head_arity);
            for (label, engine) in engines {
                let seq = engine(&q, &tgds, &options(1), 2).unwrap();
                if seq.stats.budget_exhausted {
                    continue;
                }
                let par = engine(&q, &tgds, &options(3), 2).unwrap();
                assert_eq!(
                    seq.ucq.to_string(),
                    par.ucq.to_string(),
                    "seed {seed}: {label} parallel UCQ differs from sequential"
                );
                assert_eq!(
                    comparable(&seq.stats),
                    comparable(&par.stats),
                    "seed {seed}: {label} parallel stats differ from sequential"
                );
                split += usize::from(par.stats.workers > 1);
            }
        }
        // Most fuzz closures are a single query; 81 of the 600 runs reach
        // a round of two or more.
        assert!(split >= 50, "only {split} runs split a round");
    }
}
