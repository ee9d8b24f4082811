//! # nyaya-sql
//!
//! The OBDA back end (paper, Section 1): once a query is compiled to a UCQ
//! over the relational schema, it is "submitted as a standard SQL query to
//! the DBMS holding D". This crate provides both halves of that story:
//!
//! - [`ucq_to_sql`]: UCQ → SQL text (`SELECT`/`WHERE`/`UNION`) against a
//!   [`Catalog`] of table schemas;
//! - [`execute_ucq_intra`]: an indexed in-memory relational engine (persistent
//!   per-column hash indexes, planned join orders, a cross-disjunct
//!   build-side cache and a parallel union path) so the whole OBDA stack
//!   runs end-to-end without an external database.

mod build_cache;
mod catalog;
mod exec;
mod ivm;
mod join;
mod plan;
mod program;
pub mod reference;
pub mod segment;
mod table;
#[cfg(test)]
mod test_support;
mod translate;

pub use build_cache::BuildCache;
pub use catalog::{Catalog, TableSchema};
pub use exec::{execute_ucq, execute_ucq_intra, ExecMetrics};
pub use ivm::{AnswerDelta, BaseDeltas, MaterializedView};
pub use plan::{explain_cq, plan_cq_cost, plan_cq_cost_corrected, CostPlan, StepOp};
pub use program::{
    execute_program, execute_program_shared, program_to_sql, program_to_sql_views, ProgramError,
    ProgramMetrics,
};
pub use segment::{decode_batch, decode_database, encode_batch, encode_database, CodecError};
pub use table::{Database, DbMemory, TableMemory};
pub use translate::ucq_to_sql;
