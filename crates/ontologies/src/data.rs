//! Synthetic ABox / database generators.
//!
//! The paper evaluates rewriting *sizes* (engine-independent), but this
//! reproduction also runs queries end-to-end; these generators produce
//! databases over a benchmark's base predicates so examples, integration
//! tests and execution benches have realistic inputs.

use nyaya_core::{Atom, Predicate, Term};

use crate::rng::Prng;

use crate::suite::Benchmark;

/// Configuration for the synthetic ABox generator.
#[derive(Clone, Debug)]
pub struct AboxConfig {
    /// Number of individuals in the domain.
    pub individuals: usize,
    /// Number of facts to generate.
    pub facts: usize,
    /// RNG seed (generation is deterministic given the seed).
    pub seed: u64,
}

impl Default for AboxConfig {
    fn default() -> Self {
        AboxConfig {
            individuals: 200,
            facts: 1_000,
            seed: 42,
        }
    }
}

/// Generate a random ABox over the *base* predicates of a benchmark
/// (auxiliary normalization predicates are never populated — databases
/// cannot store them, which is the point of the U/UX distinction).
pub fn generate_abox(bench: &Benchmark, config: &AboxConfig) -> Vec<Atom> {
    let mut preds: Vec<Predicate> = bench
        .raw
        .predicates()
        .into_iter()
        .filter(|p| !bench.aux_predicates.contains(p))
        .collect();
    preds.sort_by_key(|p| (p.sym.index(), p.arity));
    generate_for_predicates(&preds, config)
}

/// Generate a random database over an explicit predicate list.
pub(crate) fn generate_for_predicates(preds: &[Predicate], config: &AboxConfig) -> Vec<Atom> {
    assert!(!preds.is_empty(), "no predicates to populate");
    let mut rng = Prng::seed_from_u64(config.seed);
    let domain: Vec<Term> = (0..config.individuals.max(1))
        .map(|i| Term::constant(&format!("ind{i}")))
        .collect();
    let mut out = Vec::with_capacity(config.facts);
    for _ in 0..config.facts {
        let pred = preds[rng.gen_range(0..preds.len())];
        let args = (0..pred.arity)
            .map(|_| domain[rng.gen_range(0..domain.len())].clone())
            .collect();
        out.push(Atom::new(pred, args));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{load, BenchmarkId};

    #[test]
    fn abox_generation_is_deterministic() {
        let bench = load(BenchmarkId::S);
        let config = AboxConfig::default();
        let a = generate_abox(&bench, &config);
        let b = generate_abox(&bench, &config);
        assert_eq!(a, b);
        assert_eq!(a.len(), config.facts);
    }

    #[test]
    fn abox_never_uses_aux_predicates() {
        let bench = load(BenchmarkId::U);
        let facts = generate_abox(&bench, &AboxConfig::default());
        for f in &facts {
            assert!(
                !bench.aux_predicates.contains(&f.pred),
                "aux predicate {:?} in ABox",
                f.pred
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let bench = load(BenchmarkId::P5);
        let a = generate_abox(
            &bench,
            &AboxConfig {
                seed: 1,
                ..Default::default()
            },
        );
        let b = generate_abox(
            &bench,
            &AboxConfig {
                seed: 2,
                ..Default::default()
            },
        );
        assert_ne!(a, b);
    }
}
