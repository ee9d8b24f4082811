//! [`KbStats`], the knowledge base's counters, declared once.
//!
//! Every field is one entry of the `kb_stats!` list below, with its doc
//! comment. A `count` entry is a lifetime `u64` that the knowledge base
//! bumps as work happens: the list gives it an `AtomicU64` of the same
//! name in [`Counters`], which [`Counters::load`] reads into a
//! [`KbStats`]. A `read` entry is read off the current snapshot by
//! [`KnowledgeBase::stats`](super::KnowledgeBase::stats). Every entry is
//! one key of [`KbStats::to_json`], in list order.

use std::sync::atomic::{AtomicU64, Ordering};

use nyaya_sql::TableMemory;

macro_rules! kb_stats {
    (@counters [$($counted:ident)*] count $name:ident $($rest:tt)*) => {
        kb_stats!(@counters [$($counted)* $name] $($rest)*);
    };
    (@counters [$($counted:ident)*] read $name:ident $($rest:tt)*) => {
        kb_stats!(@counters [$($counted)*] $($rest)*);
    };
    (@counters [$($counted:ident)*]) => {
        /// The live `count` fields of [`KbStats`], under the same names:
        /// one per knowledge base, shared with its durable ledger's
        /// compactor thread.
        #[derive(Default)]
        pub(crate) struct Counters {
            $(pub(crate) $counted: AtomicU64,)*
        }

        impl Counters {
            /// Every `count` field, loaded; the `read` fields are left at
            /// their defaults.
            pub(crate) fn load(&self) -> KbStats {
                KbStats {
                    $($counted: self.$counted.load(Ordering::Relaxed),)*
                    ..KbStats::default()
                }
            }
        }
    };
    ($($(#[$doc:meta])* $kind:ident $name:ident: $ty:ty,)*) => {
        /// Snapshot of a knowledge base's lifetime counters.
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct KbStats {
            $($(#[$doc])* pub $name: $ty,)*
        }

        impl KbStats {
            /// The stats as one flat JSON object, one key per field in
            /// declaration order — the document behind both the CLI's
            /// `stats --json`/`answer --json` output and the serving
            /// layer's `stats` endpoint, so the two can never drift apart.
            pub fn to_json(&self) -> String {
                let mut out = String::from("{");
                $(
                    out.push_str(concat!("\"", stringify!($name), "\":"));
                    self.$name.write_json(&mut out);
                    out.push(',');
                )*
                out.pop();
                out.push('}');
                out
            }
        }

        kb_stats!(@counters [] $($kind $name)*);
    };
}

kb_stats! {
    /// Queries passed through
    /// [`KnowledgeBase::prepare`](super::KnowledgeBase::prepare)/`prepare_text`.
    count prepared: u64,
    /// Rewriting-cache hits (a compile was skipped entirely).
    count cache_hits: u64,
    /// Rewriting-cache misses (a rewriting was computed).
    count cache_misses: u64,
    /// Compiled forms (a rewriting or a program) bound to one prepared
    /// query's constants: its template's form with the constants the
    /// ontology never mentions put back, once per handle and form.
    count template_binds: u64,
    /// Executions across all backends.
    count executions: u64,
    /// Chases run by the chase backend: one per snapshot it answers
    /// over, shared by every query on that snapshot.
    count chase_runs: u64,
    /// Distinct rewritings currently memoized.
    read cached_rewritings: usize,
    /// Wall-clock microseconds spent in the in-memory engine.
    count exec_micros: u64,
    /// Answer tuples returned by the in-memory engine.
    count rows_returned: u64,
    /// In-memory runs that used more than one worker thread: UCQ
    /// executions whose disjuncts were split across workers (unions wide
    /// enough for the facade's parallel route), and program runs in which
    /// at least one stratum's rules were split across workers. Intra-query
    /// morsel splits of a single join step are not counted.
    count parallel_executions: u64,
    /// Build sides served from the engine's shared cache.
    count build_cache_hits: u64,
    /// Build sides the engine had to construct.
    count build_cache_misses: u64,
    /// The currently published data epoch (0 = the build-time state;
    /// each applied [`UpdateBatch`](super::UpdateBatch) increments it).
    read epoch: u64,
    /// Update batches applied over the lifetime of this knowledge base.
    count batches_applied: u64,
    /// Facts actually inserted by
    /// [`KnowledgeBase::apply`](super::KnowledgeBase::apply) (duplicates of
    /// already-present facts are not counted).
    count facts_inserted: u64,
    /// Facts actually retracted by
    /// [`KnowledgeBase::apply`](super::KnowledgeBase::apply) (retractions of
    /// absent facts are not counted).
    count facts_retracted: u64,
    /// Build-cache entries evicted by writes — each one a pattern keyed
    /// on a predicate some batch touched. Entries over untouched
    /// predicates are carried across epochs instead.
    count build_cache_invalidations: u64,
    /// Facts in the current snapshot.
    read snapshot_facts: usize,
    /// Wall-clock microseconds spent compiling rewritings (cache misses
    /// and `program` calls; cache hits cost none).
    count rewrite_micros: u64,
    /// Queries explored across all rewriting compiles.
    count rewrite_explored: u64,
    /// Compiles that split at least one frontier round across workers
    /// (rounds of at least 256 queries, the rewriter's `SPLIT_FRONTIER`).
    count rewrites_parallel: u64,
    /// Subsumption candidate pairs the predicate-signature index rejected
    /// without a homomorphism check (non-zero only with
    /// [`KnowledgeBaseBuilder::minimize_rewritings`](super::KnowledgeBaseBuilder::minimize_rewritings)).
    count subsumption_checks_avoided: u64,
    /// Non-recursive Datalog programs compiled (program-cache misses;
    /// cached programs cost nothing, like cached rewritings).
    count program_compiles: u64,
    /// Executions routed to the program target (bottom-up materialization
    /// instead of flat-UCQ evaluation).
    count program_executions: u64,
    /// Wall-clock microseconds spent executing programs bottom-up.
    count program_micros: u64,
    /// Rules across all compiled programs (post-optimizer).
    count program_rules: u64,
    /// Stratum levels across all compiled programs.
    count program_strata: u64,
    /// Intensional tuples materialized below the goal across all program
    /// executions (a program's answers are not materialized).
    count program_tuples_materialized: u64,
    /// Is this knowledge base backed by a durable ledger?
    read durable: bool,
    /// Batches appended to the write-ahead log this run.
    count wal_records: u64,
    /// Bytes appended to the write-ahead log this run.
    count wal_bytes: u64,
    /// Index segments flushed this run (background + explicit compacts,
    /// including the epoch-0 seed of a fresh ledger).
    count segments_flushed: u64,
    /// Total bytes across the segments flushed this run.
    count segment_bytes: u64,
    /// The newest epoch any flushed segment snapshots.
    count last_segment_epoch: u64,
    /// Historical epochs materialized on demand by
    /// [`KnowledgeBase::snapshot_at`](super::KnowledgeBase::snapshot_at) (cache hits not counted).
    count epochs_materialized: u64,
    /// WAL records replayed by crash recovery when this knowledge base
    /// was built over an existing ledger.
    count recovery_replayed: u64,
    /// Standing queries currently registered (live [`Subscription`](super::Subscription)
    /// handles; dropped subscriptions stop counting).
    read subscriptions_active: usize,
    /// Per-epoch [`AnswerDiff`](super::AnswerDiff)s published across all subscriptions
    /// (empty diffs included — one per subscription per applied batch).
    count subscription_diffs: u64,
    /// Answer tuples added across all published diffs.
    count ivm_added_tuples: u64,
    /// Answer tuples removed across all published diffs.
    count ivm_removed_tuples: u64,
    /// Wall-clock microseconds spent propagating deltas through standing
    /// queries inside [`KnowledgeBase::apply`](super::KnowledgeBase::apply).
    count ivm_micros: u64,
    /// Wall-clock microseconds spent seeding standing queries' views and
    /// catching them up to the present epoch, inside
    /// [`KnowledgeBase::subscribe`](super::KnowledgeBase::subscribe) and
    /// [`subscribe_from`](super::KnowledgeBase::subscribe_from).
    count ivm_seed_micros: u64,
    /// Support entries (intensional tuples with their derivation counts)
    /// materialized by those seeds, summed over subscriptions.
    count ivm_seeded_tuples: u64,
    /// Join steps the in-memory engine ran as the planner's `merge`
    /// operator — an index nested-loop join over a column's posting index,
    /// with no build side and no sort.
    count merge_joins: u64,
    /// Probe morsels (fixed-size probe batches) the engine's join
    /// kernels drove across all executions. Counts logical batches,
    /// independent of the intra-query worker split, so the value is
    /// host-stable.
    count morsel_tasks: u64,
    /// Optimizer row estimates summed across executed cost-based plans.
    count plan_estimated_rows: u64,
    /// Actual answer rows those same executions returned.
    count plan_actual_rows: u64,
    /// Corrections stored by the cardinality-feedback loop: an execution
    /// missed its estimate by ≥ the replan ratio, so the next execution
    /// of that query re-plans with the learned factor.
    count plan_replans: u64,
    /// Executions answered from the exact answer cache — the snapshot's
    /// per-predicate write epochs matched a stored entry, so the cached
    /// answer is provably identical to re-execution (never stale).
    count cache_answer_hits: u64,
    /// Answer-cache lookups that had to execute (no entry with a
    /// matching predicate-epoch fingerprint).
    count cache_answer_misses: u64,
    /// Requests served through the network serving layer (`nyaya serve`).
    count net_requests: u64,
    /// Approximate resident heap bytes of the current snapshot's fact
    /// payload (flat cell columns).
    read fact_bytes: u64,
    /// Approximate resident heap bytes of the current snapshot's index
    /// structures (postings, the deltas' dead sets and touched postings).
    read index_bytes: u64,
    /// Heap bytes held by the current snapshot's cached build sides (the
    /// hashed join inputs its executions reuse).
    read build_cache_bytes: u64,
    /// Times a write folded a table's delta into a new base, over the
    /// lifetime of the current snapshot's database — the one O(table)
    /// write left; an `apply` that folds is the slow one. Per table,
    /// [`tables`](Self::tables) says how far each delta has grown
    /// (`delta_rows`, `dead_rows`).
    read table_folds: u64,
    /// Per-table memory breakdown of the current snapshot, sorted by
    /// predicate name then arity.
    read tables: Vec<TableMemory>,
}

/// How one [`KbStats`] field is spelled in [`KbStats::to_json`].
trait JsonValue {
    fn write_json(&self, out: &mut String);
}

impl JsonValue for u64 {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
}

impl JsonValue for usize {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
}

impl JsonValue for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl JsonValue for Vec<TableMemory> {
    fn write_json(&self, out: &mut String) {
        let tables: Vec<String> = self
            .iter()
            .map(|t| {
                format!(
                    "{{\"predicate\":\"{}\",\"arity\":{},\"rows\":{},\
                     \"fact_bytes\":{},\"index_bytes\":{},\
                     \"delta_rows\":{},\"dead_rows\":{}}}",
                    json_escape(&t.predicate),
                    t.arity,
                    t.rows,
                    t.fact_bytes,
                    t.index_bytes,
                    t.delta_rows,
                    t.dead_rows,
                )
            })
            .collect();
        out.push_str(&format!("[{}]", tables.join(",")));
    }
}

/// `s` as the body of a JSON string literal: `"` and `\` are escaped, and
/// every control character below U+0020 is spelled as an escape. The one
/// escaper behind [`KbStats::to_json`] and the CLI's JSON output.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
