//! # nyaya-rewrite
//!
//! UCQ rewriting for Datalog± ontologies — the primary contribution of
//! *Gottlob, Orsi, Pieris (ICDE 2011)*:
//!
//! - [`engine::tgd_rewrite`]: Algorithm 1 (TGD-rewrite) with restricted
//!   factorization and negative-constraint pruning;
//! - [`elimination`]: the query-elimination optimization for linear TGDs
//!   (TGD-rewrite⋆, Section 6);
//! - [`quonto`]: a QuOnto/PerfectRef-style baseline with exhaustive
//!   factorization (the QO column of Table 1);
//! - [`requiem`]: a Requiem-style resolution baseline with Skolemized
//!   existentials (the RQ column of Table 1);
//! - [`cnb`]: the chase & back-chase minimizer (Section 2 related work,
//!   Example 8).
//!
//! All three engines run on the shared [`worklist`] fixpoint core
//! (canonical-key dedup, budget, hidden-predicate filtering, optional
//! parallel exploration with deterministic output); [`subsumption`] is
//! indexed by [`nyaya_core::QuerySignature`].

pub mod applicability;
pub mod cnb;
pub mod delta;
pub mod elimination;
pub mod engine;
pub mod error;
pub mod factorize;
pub mod presto;
pub mod program_opt;
pub mod quonto;
pub mod requiem;
pub mod subsumption;
pub mod worklist;

pub use applicability::{apply_rewrite_step, is_applicable};
pub use cnb::{chase_and_backchase, CnbConfig};
pub use delta::{compile_delta_program, DeltaError};
pub use elimination::{DependencyGraph, EliminationContext, EqType};
pub use engine::{
    tgd_rewrite, tgd_rewrite_star, tgd_rewrite_with, RewriteOptions, RewriteStats, Rewriting,
    MAX_SUBSET_ATOMS,
};
pub use error::RewriteError;
pub use factorize::{factorize, factorize_all, is_factorizable};
pub use presto::{
    estimate_dnf_bound, interaction_clusters, nr_datalog_rewrite, nr_datalog_rewrite_with,
    ProgramRewriting, ProgramStrategy,
};
pub use program_opt::{optimize_program, ProgramOptStats};
pub use quonto::quonto_rewrite;
pub use requiem::requiem_rewrite;
pub use subsumption::{
    fully_minimize_union, minimize_union, minimize_union_reference, minimize_union_with_stats,
    SubsumptionStats,
};
pub use worklist::{Expand, Products};
