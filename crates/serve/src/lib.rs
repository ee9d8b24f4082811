//! # nyaya-serve
//!
//! The network serving layer: a std-only TCP server speaking a
//! length-prefixed text protocol, exposing `answer`/`apply`/`stats`/
//! `explain` against whatever implements [`Backend`], plus the matching
//! blocking [`Client`].
//!
//! The TODS extension of the source paper frames the serving split this
//! crate implements: the rewriting is compiled **once** (here: the
//! `PREPARE` handshake returns a handle clients reuse across requests)
//! while the extensional database evolves underneath (`APPLY` batches),
//! and every answer is computed — or served from the exact answer cache
//! — against one pinned epoch.
//!
//! Layering: this crate knows nothing about the knowledge base. The
//! root `nyaya` crate implements [`Backend`] over its `KnowledgeBase`
//! and hosts the `serve`/`client` CLI commands; keeping the dependency
//! arrow in that direction (root → serve, never serve → root) is what
//! lets the CLI, the serving bench and the tests all share one server.
//!
//! See `protocol` for the frame layout and verb grammar, `server` for
//! the worker-pool connection scheduler and graceful shutdown, `client`
//! for the blocking client.

mod client;
mod protocol;
mod server;

pub use client::{Client, ClientError};
pub use protocol::{read_frame, write_frame, Request, Response, DEFAULT_MAX_FRAME};
pub use server::{serve, Server, ServerConfig, ServerHandle};

/// One answer set as shipped over the wire: the epoch it was computed
/// at, the backend that produced it, and the tuples as rendered term
/// strings (the serving layer never depends on the term representation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnswerSet {
    /// The epoch the answer reflects (pinned for the whole execution).
    pub epoch: u64,
    /// Name of the execution backend (`in-memory`, `program`, …).
    pub backend: String,
    /// False when the backend could not guarantee completeness.
    pub complete: bool,
    /// Answer tuples; each term pre-rendered to text.
    pub tuples: Vec<Vec<String>>,
}

/// What one applied batch did, as shipped over the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ApplySummary {
    /// The epoch the batch was published under.
    pub epoch: u64,
    /// Facts actually inserted (duplicates don't count).
    pub inserted: u64,
    /// Facts actually retracted (absent facts don't count).
    pub retracted: u64,
}

/// What the server serves. Implemented by the root crate over its
/// `KnowledgeBase`; the trait is object-safe and stringly-typed at the
/// edges so this crate stays dependency-free.
///
/// Every method may be called concurrently from multiple worker
/// threads.
pub trait Backend: Send + Sync + 'static {
    /// Compile `query` once and return a handle for reuse — the
    /// prepared-statement handshake. The rewriting behind the handle is
    /// TBox-only: no later `apply` invalidates it.
    fn prepare(&self, query: &str) -> Result<u64, String>;

    /// Execute a prepared handle, optionally *as of* a historical epoch.
    fn answer(&self, handle: u64, at: Option<u64>) -> Result<AnswerSet, String>;

    /// One-shot prepare + execute (still hits the rewriting cache).
    fn query(&self, query: &str, at: Option<u64>) -> Result<AnswerSet, String>;

    /// Apply a batch atomically: `retracts` first, then `inserts`, each
    /// a rendered fact like `p(a, b)`.
    fn apply(&self, retracts: &[String], inserts: &[String]) -> Result<ApplySummary, String>;

    /// The stats endpoint's JSON document.
    fn stats_json(&self) -> String;

    /// Human-readable execution plan for a prepared handle.
    fn explain(&self, handle: u64) -> Result<String, String>;

    /// Called once per decoded request frame, before dispatch — the
    /// `net_requests` counter hook.
    fn record_request(&self) {}

    /// Called exactly once during graceful shutdown, after in-flight
    /// connections have drained — flush durable state here.
    fn flush(&self) {}
}
