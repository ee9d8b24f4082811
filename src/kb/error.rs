//! The structured error type of the facade.
//!
//! Every failure mode of the compile-once / execute-many pipeline is a
//! variant here — loading, parsing, normalization preconditions, rewriting
//! budgets, schema gaps, inconsistency — so callers can match on what went
//! wrong instead of string-scraping, and nothing in the facade panics on
//! user input.

use std::error::Error;
use std::fmt;

use nyaya_parser::ParseError;
use nyaya_rewrite::RewriteError;

/// An error from the [`KnowledgeBase`](crate::KnowledgeBase) pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NyayaError {
    /// A source file could not be read.
    Io {
        /// The path that failed to load.
        path: String,
        /// The underlying I/O error.
        message: String,
    },
    /// A front end rejected its input (`line:col: message` in `source`).
    Parse {
        /// Which front end: `datalog±`, `dl-lite` or `owl2-ql`.
        front_end: &'static str,
        /// The parser's `line:col: message` diagnostic.
        message: String,
    },
    /// A TGD reached a rewriting engine without being in Lemma 1/2 normal
    /// form. The facade always normalizes at build time, so seeing this
    /// from [`crate::KnowledgeBase`] indicates a bug; it is surfaced for
    /// callers that drive the engines directly.
    NotNormalized {
        /// The engine that refused the TGD.
        algorithm: &'static str,
        /// The offending TGD, rendered in Datalog± syntax.
        tgd: String,
    },
    /// The rewriting explored `budget` distinct queries without reaching a
    /// fixpoint; the result would be incomplete, so none is returned.
    BudgetExhausted {
        /// Distinct queries explored before giving up.
        explored: usize,
        /// The configured budget that was hit.
        budget: usize,
    },
    /// A query reached the rewriting step with more same-predicate body
    /// atoms than the 2ⁿ subset enumeration of Algorithm 1 can handle
    /// (`limit`).
    AtomGroupTooLarge {
        /// The predicate whose body-atom group overflowed.
        predicate: String,
        /// Size of the group.
        atoms: usize,
        /// The enforced limit.
        limit: usize,
    },
    /// SQL translation met a predicate with no table in the catalog.
    UnregisteredPredicate {
        /// The first predicate found without a registered table.
        predicate: String,
    },
    /// A Datalog program reached bottom-up evaluation with a cycle in its
    /// defined-predicate dependency graph. The rewriters never produce
    /// recursive programs; this surfaces hand-built ones as an error
    /// instead of a panic.
    RecursiveProgram,
    /// A program rule is not range-restricted (a head variable never
    /// occurs in the body), so its derived relation would be unbounded.
    UnsafeRule {
        /// The offending rule, rendered in Datalog syntax.
        rule: String,
    },
    /// A program rule contains terms SQL cannot express (labeled nulls or
    /// function terms).
    UntranslatableRule {
        /// The offending rule, rendered in Datalog syntax.
        rule: String,
    },
    /// The database violates a key dependency.
    KeyViolation {
        /// The violated key dependency, rendered for display.
        key: String,
    },
    /// The database contradicts a negative constraint — the theory is
    /// inconsistent and every Boolean query would be trivially entailed.
    ConstraintViolation {
        /// The violated constraint, rendered in Datalog± syntax.
        constraint: String,
    },
    /// The consistency chase hit its budget before reaching a verdict.
    ConsistencyUnknown,
    /// A query was expected but none was found (empty program, empty body).
    NoQuery,
    /// The query's body is empty — it has no canonical form and nothing to
    /// rewrite.
    EmptyQuery,
    /// A fact holds a variable, labelled null or function term; the
    /// database holds constants only. From
    /// [`apply`](crate::KnowledgeBase::apply), the whole
    /// [`UpdateBatch`](crate::UpdateBatch) is rejected and no snapshot is
    /// published; from [`build`](crate::KnowledgeBaseBuilder::build), no
    /// knowledge base is built.
    NonGroundFact {
        /// The offending atom, rendered in Datalog± syntax.
        fact: String,
    },
    /// [`execute_at`](crate::KnowledgeBase::execute_at) was handed a
    /// [`Snapshot`](crate::Snapshot) published by a *different* knowledge
    /// base — its data belongs to another ontology, so evaluating this
    /// base's rewritings over it would be meaningless.
    ForeignSnapshot {
        /// The foreign snapshot's epoch, for diagnostics.
        epoch: u64,
    },
    /// The durable ledger hit an underlying file-system failure.
    LedgerIo {
        /// The file or directory involved.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// The durable ledger found invalid bytes: a bad checksum or magic, a
    /// duplicated or out-of-order record, or an undecodable payload. The
    /// damaged state is never served and nothing is silently dropped.
    LedgerCorrupt {
        /// The file that failed validation (`<payload>` for a decoded
        /// record or segment body).
        path: String,
        /// Byte offset of the first invalid record or field.
        offset: u64,
        /// What exactly failed.
        detail: String,
    },
    /// The ledger's epoch sequence has a hole — some epoch's record is
    /// missing from both the sealed history and the active log.
    LedgerEpochGap {
        /// The epoch the contiguous sequence required next.
        expected: u64,
        /// The epoch actually found.
        found: u64,
    },
    /// [`snapshot_at`](crate::KnowledgeBase::snapshot_at) asked for an
    /// epoch this knowledge base never published. The valid range is
    /// `0..=latest`.
    EpochNotFound {
        /// The epoch asked for.
        requested: u64,
        /// The newest epoch that exists.
        latest: u64,
    },
    /// A historical epoch was requested on a memory-only knowledge base —
    /// past epochs are reconstructible only with a durable data
    /// directory (see
    /// [`KnowledgeBaseBuilder::durable`](crate::KnowledgeBaseBuilder::durable)).
    NotDurable {
        /// The epoch that could not be served.
        requested: u64,
    },
    /// Result modifiers (filters, ORDER BY, aggregates) reference columns
    /// outside the query head, or are otherwise malformed.
    InvalidSelect {
        /// What exactly is wrong, with 1-based column numbers.
        detail: String,
    },
    /// A lock protecting *write* state was poisoned: some thread panicked
    /// while holding it, so the guarded invariants cannot be trusted. The
    /// operation is refused instead of panicking in turn; reads over
    /// already-published snapshots keep working. (Locks over advisory
    /// state — caches, the published-snapshot pointer — recover from
    /// poisoning silently and never produce this error.)
    Poisoned {
        /// Which lock was found poisoned.
        what: &'static str,
    },
}

impl fmt::Display for NyayaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NyayaError::Io { path, message } => write!(f, "cannot read {path}: {message}"),
            NyayaError::Parse { front_end, message } => {
                write!(f, "{front_end} parse error: {message}")
            }
            NyayaError::NotNormalized { algorithm, tgd } => write!(
                f,
                "{algorithm} requires normalized TGDs (Lemmas 1\u{2013}2); offending TGD: {tgd}"
            ),
            NyayaError::BudgetExhausted { explored, budget } => write!(
                f,
                "rewriting exceeded the query budget ({explored} explored, budget {budget}); \
                 result would be incomplete"
            ),
            NyayaError::AtomGroupTooLarge {
                predicate,
                atoms,
                limit,
            } => write!(
                f,
                "rewriting step cannot enumerate the subsets of {atoms} \
                 same-predicate body atoms over `{predicate}` (limit {limit})"
            ),
            NyayaError::UnregisteredPredicate { predicate } => {
                write!(
                    f,
                    "rewriting mentions predicate `{predicate}` with no registered table"
                )
            }
            NyayaError::RecursiveProgram => {
                write!(
                    f,
                    "Datalog program is recursive; bottom-up evaluation requires a stratification"
                )
            }
            NyayaError::UnsafeRule { rule } => {
                write!(f, "unsafe program rule (unbound head variable): {rule}")
            }
            NyayaError::UntranslatableRule { rule } => {
                write!(f, "program rule contains terms SQL cannot express: {rule}")
            }
            NyayaError::KeyViolation { key } => {
                write!(f, "database violates key dependency {key}")
            }
            NyayaError::ConstraintViolation { constraint } => {
                write!(
                    f,
                    "theory is inconsistent: violated constraint `{constraint}`"
                )
            }
            NyayaError::ConsistencyUnknown => {
                write!(f, "consistency check exceeded the chase budget")
            }
            NyayaError::NoQuery => {
                write!(f, "program contains no query (add `q(X) :- \u{2026}.`)")
            }
            NyayaError::EmptyQuery => write!(f, "query body is empty"),
            NyayaError::NonGroundFact { fact } => {
                write!(f, "facts hold constants only, got {fact}")
            }
            NyayaError::ForeignSnapshot { epoch } => {
                write!(
                    f,
                    "snapshot (epoch {epoch}) was published by a different knowledge base"
                )
            }
            NyayaError::LedgerIo { path, message } => {
                write!(f, "ledger I/O on {path}: {message}")
            }
            NyayaError::LedgerCorrupt {
                path,
                offset,
                detail,
            } => write!(f, "ledger corruption in {path} at byte {offset}: {detail}"),
            NyayaError::LedgerEpochGap { expected, found } => write!(
                f,
                "ledger epoch sequence broken: expected epoch {expected}, found {found}"
            ),
            NyayaError::EpochNotFound { requested, latest } => write!(
                f,
                "epoch {requested} does not exist; valid epochs are 0..={latest}"
            ),
            NyayaError::NotDurable { requested } => write!(
                f,
                "epoch {requested} is not reconstructible: this knowledge base is \
                 memory-only (build with .durable(path) for time travel)"
            ),
            NyayaError::InvalidSelect { detail } => {
                write!(f, "invalid select options: {detail}")
            }
            NyayaError::Poisoned { what } => write!(
                f,
                "{what} lock poisoned by a panicking writer; refusing to touch its state"
            ),
        }
    }
}

impl Error for NyayaError {}

impl From<RewriteError> for NyayaError {
    fn from(err: RewriteError) -> Self {
        match err {
            RewriteError::NotNormalized { algorithm, tgd } => {
                NyayaError::NotNormalized { algorithm, tgd }
            }
            RewriteError::AtomGroupTooLarge {
                predicate,
                atoms,
                limit,
            } => NyayaError::AtomGroupTooLarge {
                predicate,
                atoms,
                limit,
            },
        }
    }
}

impl From<nyaya_sql::ProgramError> for NyayaError {
    fn from(err: nyaya_sql::ProgramError) -> Self {
        match err {
            nyaya_sql::ProgramError::Recursive => NyayaError::RecursiveProgram,
            nyaya_sql::ProgramError::UnsafeRule { rule } => NyayaError::UnsafeRule { rule },
            nyaya_sql::ProgramError::UnregisteredPredicate { predicate } => {
                NyayaError::UnregisteredPredicate { predicate }
            }
            nyaya_sql::ProgramError::Untranslatable { rule } => {
                NyayaError::UntranslatableRule { rule }
            }
        }
    }
}

impl NyayaError {
    pub(crate) fn parse(front_end: &'static str, err: ParseError) -> Self {
        NyayaError::Parse {
            front_end,
            message: err.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable_for_cli_consumers() {
        let err = NyayaError::BudgetExhausted {
            explored: 10,
            budget: 10,
        };
        assert!(err.to_string().contains("incomplete"));
        let err = NyayaError::Io {
            path: "x.dlp".into(),
            message: "no such file".into(),
        };
        assert_eq!(err.to_string(), "cannot read x.dlp: no such file");
    }

    #[test]
    fn rewrite_error_converts() {
        let err: NyayaError = RewriteError::NotNormalized {
            algorithm: "tgd_rewrite",
            tgd: "t".into(),
        }
        .into();
        assert!(matches!(err, NyayaError::NotNormalized { .. }));
    }
}
