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
//! 2. the engine of the chase & back-chase baseline (Section 2);
//! 3. the consistency checker for NC/KD handling (Sections 4.2, 5.1).

mod answer;
mod chase;
mod consistency;
mod instance;

pub use answer::{answers, answers_union, certain_answers, entails_bcq, CertainAnswers};
pub use chase::{chase, ChaseConfig, ChaseKind, ChaseOutcome};
pub use consistency::{check_consistency, Consistency};
pub use instance::Instance;
