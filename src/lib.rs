//! # Nyaya-rs
//!
//! A Rust reproduction of *Gottlob, Orsi, Pieris: "Ontological Queries:
//! Rewriting and Optimization"* (ICDE 2011; extended version
//! arXiv:1112.0343) — ontological query answering by UCQ rewriting over
//! Datalog± ontologies, with the paper's query-elimination optimization.
//!
//! ## The 60-second tour
//!
//! The paper's pipeline is *compile once, execute many*, and
//! [`KnowledgeBase`] is that pipeline as a value: the builder normalizes
//! and classifies the ontology once, prepared queries are rewritten once
//! and memoized, and execution runs them on the backend of your choice.
//!
//! ```
//! use nyaya::{ExecutorKind, KnowledgeBase};
//!
//! // 1. Build: parse, normalize (Lemmas 1–2), classify, index — once.
//! //    An ontology of linear TGDs in Datalog± syntax, with one fact.
//! let kb = KnowledgeBase::from_program_text(
//!     "sigma: has_stock(X, Y) -> stock_portf(Y, X, Z).
//!      has_stock(ibm_s, fund1).",
//! )
//! .unwrap();
//! assert!(kb.classification().linear); // ⇒ FO-rewritable, in-memory backend
//!
//! // 2. Prepare: compile the query into a union of conjunctive queries.
//! //    The rewriting is memoized — preparing or executing this query
//! //    again will never rewrite twice.
//! let query = kb.prepare_text("q(A, B) :- stock_portf(B, A, D).").unwrap();
//! let rewriting = kb.rewriting(&query).unwrap();
//! assert_eq!(rewriting.ucq.size(), 2); // stock_portf(B,A,D) ∨ has_stock(A,B)
//!
//! // 3. Execute — on the default backend (the in-memory engine: no
//! //    reasoning left, pure database work) …
//! let fast = kb.execute(&query).unwrap();
//! assert_eq!(fast.tuples.len(), 1);
//!
//! // … and the same prepared query on the chase backend (the semantics
//! // oracle). Theorem 10: both backends agree.
//! let oracle = kb.execute_on(&query, ExecutorKind::Chase).unwrap();
//! assert!(oracle.complete);
//! assert_eq!(fast.tuples, oracle.tuples);
//!
//! // The second execution above reused the cached rewriting:
//! assert_eq!(kb.stats().cache_misses, 1);
//! assert_eq!(kb.stats().cache_hits, 1);
//!
//! // 4. Or ship SQL to the DBMS that actually holds the data.
//! let sql = kb.sql(&query).unwrap();
//! assert!(sql.contains("UNION"));
//!
//! // 5. Evolve the data without recompiling anything: batched updates
//! //    publish epoch-stamped snapshots. Readers pinned to an old
//! //    snapshot keep a consistent view; rewritings (TBox-only) survive.
//! use nyaya::UpdateBatch;
//! use nyaya::core::Atom;
//! let pinned = kb.snapshot(); // epoch 0, immutable
//! kb.apply(
//!     UpdateBatch::new().insert(Atom::make("has_stock", ["sap_s", "fund2"])),
//! )
//! .unwrap();
//! assert_eq!(kb.epoch(), 1);
//! assert_eq!(kb.execute(&query).unwrap().tuples.len(), 2); // live view
//! assert_eq!(kb.execute_at(&query, &pinned).unwrap().tuples.len(), 1); // pinned view
//! assert_eq!(kb.stats().cache_misses, 1); // still exactly one compile
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | `kb` (private, re-exported here) | **the facade**: [`KnowledgeBase`], builders, prepared queries with a rewriting cache, one execution path over the backend an [`ExecutorKind`] names, batched [`UpdateBatch`] writes with epoch-stamped [`Snapshot`]s, [`NyayaError`] |
//! | [`core`] | terms, atoms, queries, TGDs, unification, canonical forms, containment & core minimization, non-recursive Datalog programs, Datalog± classes, normalization |
//! | [`chase`] | the restricted TGD chase, certain answers, consistency (NCs/KDs) |
//! | [`rewrite`] | TGD-rewrite / TGD-rewrite⋆, non-recursive Datalog rewriting, QuOnto & Requiem baselines, chase & back-chase |
//! | [`parser`] | Datalog± text syntax + DL-Lite_R and OWL 2 QL front ends |
//! | [`ontologies`] | the benchmark suite (V, S, U, A, P5 + X-variants) |
//! | [`sql`] | UCQ → SQL, an in-memory executor with a cost-based join planner, and bottom-up Datalog program evaluation |
//! | `serving` (private, re-exported here) | the network backend: [`KbBackend`] implements `nyaya-serve`'s `Backend` trait over a shared [`KnowledgeBase`] (prepared handles, pinned-epoch answers, batch applies) |

#![warn(missing_docs)]

mod kb;
mod serving;

pub use nyaya_chase as chase;
pub use nyaya_core as core;
pub use nyaya_ledger as ledger;
pub use nyaya_ontologies as ontologies;
pub use nyaya_parser as parser;
pub use nyaya_rewrite as rewrite;
pub use nyaya_serve as serve;
pub use nyaya_sql as sql;

pub use kb::json_escape;
pub use kb::{
    Algorithm, AnswerDiff, Answers, ApplyOutcome, CompiledProgram, CompiledRewriting, ExecutorKind,
    KbStats, KnowledgeBase, KnowledgeBaseBuilder, LedgerHistory, NyayaError, PreparedQuery,
    SealedWalInfo, SegmentFlush, SegmentInfo, Snapshot, Strategy, Subscription, UpdateBatch,
    DEFAULT_PROGRAM_THRESHOLD, REPLAN_RATIO,
};
pub use serving::{parse_fact, KbBackend};

/// The most commonly used items in one import.
pub mod prelude {
    pub use crate::kb::{
        Algorithm, AnswerDiff, Answers, ApplyOutcome, ExecutorKind, KbStats, KnowledgeBase,
        KnowledgeBaseBuilder, LedgerHistory, NyayaError, PreparedQuery, SegmentFlush, Snapshot,
        Strategy, Subscription, UpdateBatch,
    };
    pub use nyaya_chase::{certain_answers, chase, ChaseConfig, Instance};
    pub use nyaya_core::{
        classify, minimize_cq, normalize, Atom, ConjunctiveQuery, DatalogProgram,
        NegativeConstraint, Ontology, Predicate, Term, Tgd, UnionQuery,
    };
    pub use nyaya_parser::{parse_dl_lite, parse_owl_ql, parse_program, parse_query};
    pub use nyaya_rewrite::{
        nr_datalog_rewrite, tgd_rewrite, tgd_rewrite_star, RewriteError, RewriteOptions,
    };
    pub use nyaya_sql::{execute_program, execute_ucq, ucq_to_sql, Catalog, Database};
}
