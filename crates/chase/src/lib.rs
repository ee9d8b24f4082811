//! # nyaya-chase
//!
//! The TGD chase substrate (paper, Section 3.3): relational instances, the
//! restricted chase with budgets, query answering over instances,
//! certain-answer evaluation, and consistency checking with negative
//! constraints and key dependencies.
//!
//! The chase serves three roles in this reproduction:
//! 1. the *semantics oracle* against which the rewriting algorithms are
//!    validated (`D ⊨ q_Σ ⇔ chase(D,Σ) ⊨ q`, Theorems 6 and 10);
//! 2. the fallback executor for ontologies that are not FO-rewritable;
//! 3. the consistency checker for NC/KD handling (Sections 4.2, 5.1).
//!
//! The restricted chase is the only chase: the chase & back-chase
//! minimizer of Example 8 runs it from `tests/minimality.rs`.

mod answer;
mod chase;
mod consistency;
mod instance;

pub use answer::{answers, answers_union, certain_answers, entails_bcq, CertainAnswers};
pub use chase::{chase, ChaseConfig, ChaseOutcome};
pub use consistency::{check_consistency, Consistency};
pub use instance::Instance;
