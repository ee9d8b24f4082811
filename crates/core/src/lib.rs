//! # nyaya-core
//!
//! Logical data model for Datalog± ontological query processing — the
//! foundation of a reproduction of *Gottlob, Orsi, Pieris: "Ontological
//! Queries: Rewriting and Optimization"* (ICDE 2011, extended version
//! arXiv:1112.0343).
//!
//! This crate provides:
//!
//! - interned [`symbols`], [`term::Term`]s, [`Atom`]s;
//! - [`Substitution`]s, first-order unification with MGUs of atom sets
//!   ([`mgu_set`]), and homomorphism search ([`HomSearch`]);
//! - [`ConjunctiveQuery`] / [`UnionQuery`] with the paper's evaluation
//!   metrics (size / length / width) and CQ containment;
//! - exact canonical forms modulo bijective variable renaming
//!   ([`canonical_key`], [`canonical_form`]: the dedup relation used by
//!   Algorithm 1);
//! - cheap predicate [`QuerySignature`]s for containment pruning and
//!   frontier sharding in the rewriting compiler;
//! - [`Tgd`]s, negative constraints, key dependencies and [`Ontology`];
//! - the syntactic Datalog± language [`classes`] (linear, guarded,
//!   weakly-acyclic, sticky, sticky-join);
//! - [`normalize()`]: the Lemma 1/2 transformation to single-head,
//!   single-existential TGDs;
//! - [`par`]: the one fork-join every parallel path of the workspace
//!   splits work through, and the host's core count it defaults to.

mod affected;
mod atom;
mod canonical;
pub mod classes;
mod datalog;
mod homomorphism;
mod minimize;
mod normalize;
pub mod par;
mod query;
pub mod select;
mod signature;
mod substitution;
pub mod symbols;
pub mod term;
mod tgd;
mod unify;

pub use atom::{Atom, Position, Predicate};
pub use canonical::{canonical_form, canonical_key, canonical_order, CanonicalKey};
pub use classes::{classify, Classification};

pub use datalog::{DatalogProgram, DatalogRule};
pub use homomorphism::{exists_homomorphism, HomSearch};
pub use minimize::{minimize_cq, minimize_union_bodies};
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
pub use unify::{mgu_pair, mgu_set};
