//! Typed errors for the rewriting engines.
//!
//! The engines used to `assert!` their preconditions (normal-form TGDs,
//! Lemmas 1–2), which turned a caller mistake into a process abort. A
//! serving system cannot afford that, so precondition violations are now
//! ordinary values.

use std::error::Error;
use std::fmt;

/// An error raised by one of the rewriting engines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RewriteError {
    /// A TGD handed to the engine was not in Lemma 1/2 normal form
    /// (single head atom, at most one existential variable occurring once).
    /// Run [`nyaya_core::normalize()`] on the ontology first.
    NotNormalized {
        /// The engine that rejected the input.
        algorithm: &'static str,
        /// Display form of the offending TGD.
        tgd: String,
    },
    /// A query reached the rewriting step with more same-predicate body
    /// atoms than the subset enumeration can handle
    /// (`limit`, 30): Algorithm 1 ranges over every
    /// non-empty subset of the group, and 2ⁿ subsets are infeasible beyond
    /// the limit (the mask arithmetic would overflow first).
    AtomGroupTooLarge {
        /// The predicate whose body-atom group overflowed.
        predicate: String,
        /// Size of the group.
        atoms: usize,
        /// The enforced limit.
        limit: usize,
    },
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::NotNormalized { algorithm, tgd } => write!(
                f,
                "{algorithm} requires normalized TGDs (Lemmas 1\u{2013}2); \
                 offending TGD: {tgd}"
            ),
            RewriteError::AtomGroupTooLarge {
                predicate,
                atoms,
                limit,
            } => write!(
                f,
                "rewriting step cannot enumerate the subsets of {atoms} \
                 same-predicate body atoms over `{predicate}` (limit {limit})"
            ),
        }
    }
}

impl Error for RewriteError {}

/// Check the Lemma 1/2 precondition shared by all engines.
pub(crate) fn ensure_normalized(
    algorithm: &'static str,
    tgds: &[nyaya_core::Tgd],
) -> Result<(), RewriteError> {
    for tgd in tgds {
        if !tgd.is_normal() {
            return Err(RewriteError::NotNormalized {
                algorithm,
                tgd: tgd.to_string(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_algorithm_and_tgd() {
        let err = RewriteError::NotNormalized {
            algorithm: "tgd_rewrite",
            tgd: "p(X) -> q(X, Y), r(Y)".to_owned(),
        };
        let text = err.to_string();
        assert!(text.contains("tgd_rewrite"));
        assert!(text.contains("p(X) -> q(X, Y), r(Y)"));
    }
}
