//! # nyaya-ontologies
//!
//! The benchmark ontology suite of Section 7: regenerated V (VICODI), S
//! (STOCKEXCHANGE), U (UNIVERSITY/LUBM), A (ADOLENA) and P5 (Path5)
//! ontologies with the Table 2 queries, the X-variants (UX, AX, P5X) where
//! the Lemma 1/2 auxiliary predicates are part of the schema, the running
//! example of Section 1, and synthetic ABox generators.
//!
//! The original ontology files from the Requiem distribution are not
//! available; these regenerations reproduce their documented structure
//! (taxonomic V; domain/range-complete S; LUBM-shaped U; qualified-
//! existential-heavy A; exponential P5) with subtree sizes tuned to the
//! published rewriting sizes — see DESIGN.md for the substitution notes.

pub mod adolena;
mod data;
pub mod fuzz;
pub mod lubm;
pub mod path5;
pub mod rng;
pub mod running_example;
pub mod stockexchange;
mod suite;
pub mod university;
pub mod vicodi;

pub use data::{generate_abox, AboxConfig};
pub use fuzz::{random_cq, random_database, random_linear_tgds, random_ucq, FuzzConfig};
pub use lubm::{fact_count as lubm_fact_count, lubm_abox, LubmConfig};
pub use suite::{load, load_all, Benchmark, BenchmarkId};
