//! # nyaya-core
//!
//! Logical data model for Datalog± ontological query processing — the
//! foundation of a reproduction of *Gottlob, Orsi, Pieris: "Ontological
//! Queries: Rewriting and Optimization"* (ICDE 2011, extended version
//! arXiv:1112.0343).
//!
//! This crate provides:
//!
//! - interned [`symbols`], [`term::Term`]s, [`atom::Atom`]s;
//! - [`substitution::Substitution`]s, first-order [`unify`]cation with MGUs
//!   of atom sets, and [`homomorphism`] search;
//! - [`query::ConjunctiveQuery`] / [`query::UnionQuery`] with the paper's
//!   evaluation metrics (size / length / width) and CQ containment;
//! - exact [`canonical`] forms modulo bijective variable renaming (the
//!   dedup relation used by Algorithm 1);
//! - cheap predicate [`signature`]s for containment pruning and frontier
//!   sharding in the rewriting compiler;
//! - [`tgd::Tgd`]s, negative constraints, key dependencies and
//!   [`tgd::Ontology`];
//! - the syntactic Datalog± language [`classes`] (linear, guarded,
//!   weakly-acyclic, sticky, sticky-join);
//! - [`normalize()`]: the Lemma 1/2 transformation to single-head,
//!   single-existential TGDs;
//! - [`par`]: the one fork-join every parallel path of the workspace
//!   splits work through, and the host's core count it defaults to.

pub mod affected;
pub mod atom;
pub mod canonical;
pub mod classes;
pub mod components;
pub mod datalog;
pub mod homomorphism;
pub mod minimize;
pub mod normalize;
pub mod par;
pub mod query;
pub mod select;
pub mod signature;
pub mod substitution;
pub mod symbols;
pub mod term;
pub mod tgd;
pub mod unify;

pub use affected::{affected_positions, is_weakly_guarded};
pub use atom::{Atom, Position, Predicate};
pub use canonical::{
    canonical_form, canonical_key, canonical_order, canonicalize, canonicalize_keyed, CanonicalKey,
};
pub use classes::{classify, Classification};
pub use components::{connected_components, split_boolean_query};
pub use datalog::{DatalogProgram, DatalogRule, DeltaProgram, DeltaRule};
pub use homomorphism::{exists_homomorphism, find_homomorphism, HomSearch};
pub use minimize::{is_minimal, minimize_cq, minimize_union_bodies};
pub use normalize::{normalize, Normalization};
pub use query::{ConjunctiveQuery, UnionQuery};
pub use select::{
    apply_select, AggFunc, Aggregate, ColumnFilter, FilterOp, SelectOptions, SortDir,
};
pub use signature::QuerySignature;
pub use substitution::Substitution;
pub use symbols::Symbol;
pub use term::Term;
pub use tgd::{KeyDependency, NegativeConstraint, Ontology, Tgd};
pub use unify::{mgu_pair, mgu_set, unifiable, unify_terms};
