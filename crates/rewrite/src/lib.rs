//! # nyaya-rewrite
//!
//! UCQ rewriting for Datalog± ontologies — the primary contribution of
//! *Gottlob, Orsi, Pieris (ICDE 2011)*:
//!
//! - [`tgd_rewrite`]: Algorithm 1 (TGD-rewrite) with restricted
//!   factorization and negative-constraint pruning;
//! - [`EliminationContext`]: the query-elimination optimization for linear
//!   TGDs (TGD-rewrite⋆ = [`tgd_rewrite_star`], Section 6);
//! - [`quonto_rewrite`]: a QuOnto/PerfectRef-style baseline with exhaustive
//!   factorization (the QO column of Table 1);
//! - [`requiem_rewrite`]: a Requiem-style resolution baseline with
//!   Skolemized existentials (the RQ column of Table 1).
//!
//! All three engines run on one shared fixpoint core (canonical-key dedup,
//! budget, hidden-predicate filtering, optional parallel exploration with
//! deterministic output); subsumption ([`minimize_union_with_stats`]) is
//! indexed by [`nyaya_core::QuerySignature`].

mod applicability;
mod elimination;
mod engine;
mod error;
mod factorize;
mod presto;
mod program_opt;
mod quonto;
mod requiem;
mod subsumption;
mod worklist;

pub use elimination::EliminationContext;
pub use engine::{
    tgd_rewrite, tgd_rewrite_star, tgd_rewrite_with, RewriteOptions, RewriteStats, Rewriting,
};
pub use error::RewriteError;

pub use presto::{
    estimate_dnf_bound, interaction_clusters, nr_datalog_rewrite, nr_datalog_rewrite_with,
    ProgramRewriting, ProgramStrategy,
};
pub use program_opt::{inline_renamings, ProgramOptStats};
pub use quonto::quonto_rewrite;
pub use requiem::requiem_rewrite;
pub use subsumption::{fully_minimize_union, minimize_union_with_stats, SubsumptionStats};
