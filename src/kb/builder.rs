use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use nyaya_chase::ChaseConfig;
use nyaya_core::{classify, normalize, Atom, ConjunctiveQuery, Ontology, Predicate, Tgd};
use nyaya_parser::{parse_dl_lite, parse_owl_ql, parse_program};
use nyaya_rewrite::EliminationContext;
use nyaya_sql::{BuildCache, Catalog, Database};

use super::durability::Durability;
use super::stats::Counters;
use super::template::sigma_constants;
use super::{
    check_constants, Algorithm, ExecutorKind, KnowledgeBase, NyayaError, Snapshot, Strategy,
    DEFAULT_FLUSH_INTERVAL,
};

/// Process-unique knowledge-base identities (a `PreparedQuery`'s `kb_id`).
static NEXT_KB_ID: AtomicU64 = AtomicU64::new(0);

/// Builder for [`KnowledgeBase`] — see the [crate docs](crate).
pub struct KnowledgeBaseBuilder {
    ontology: Ontology,
    facts: Vec<Atom>,
    queries: Vec<ConjunctiveQuery>,
    algorithm: Option<Algorithm>,
    show_aux: bool,
    nc_pruning: Option<bool>,
    max_queries: usize,
    minimize_rewritings: bool,
    strategy: Strategy,
    chase_config: ChaseConfig,
    catalog: Option<Catalog>,
    durable_path: Option<PathBuf>,
    flush_interval: u64,
    answer_cache: bool,
}

impl Default for KnowledgeBaseBuilder {
    fn default() -> Self {
        KnowledgeBaseBuilder {
            ontology: Ontology::from_tgds(Vec::new()),
            facts: Vec::new(),
            queries: Vec::new(),
            algorithm: None,
            show_aux: false,
            nc_pruning: None,
            max_queries: 500_000,
            minimize_rewritings: false,
            strategy: Strategy::Auto,
            chase_config: ChaseConfig::default(),
            catalog: None,
            durable_path: None,
            flush_interval: DEFAULT_FLUSH_INTERVAL,
            answer_cache: true,
        }
    }
}

impl KnowledgeBaseBuilder {
    /// An empty builder (no ontology, facts or queries loaded yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Load a Datalog± program: TGDs, NCs, KDs, facts and queries. Facts
    /// and queries accumulate; constraints extend the ontology.
    pub fn program_text(mut self, source: &str) -> Result<Self, NyayaError> {
        let program = parse_program(source).map_err(|e| NyayaError::parse("datalog\u{b1}", e))?;
        self.merge_ontology(program.ontology);
        self.facts.extend(program.facts);
        self.queries.extend(program.queries);
        Ok(self)
    }

    /// Load a DL-Lite_R axiom list (TBox only — no facts or queries).
    pub fn dl_lite_text(mut self, source: &str) -> Result<Self, NyayaError> {
        let ontology = parse_dl_lite(source).map_err(|e| NyayaError::parse("dl-lite", e))?;
        self.merge_ontology(ontology);
        Ok(self)
    }

    /// Load an OWL 2 QL document in functional-style syntax (TBox + ABox).
    pub fn owl_ql_text(mut self, source: &str) -> Result<Self, NyayaError> {
        let program = parse_owl_ql(source).map_err(|e| NyayaError::parse("owl2-ql", e))?;
        self.merge_ontology(program.ontology);
        self.facts.extend(program.facts);
        self.queries.extend(program.queries);
        Ok(self)
    }

    /// Load from a file, dispatching on extension: `.dl` ⇒ DL-Lite_R,
    /// `.owl`/`.ofn` ⇒ OWL 2 QL, anything else ⇒ Datalog±.
    pub fn file(self, path: impl AsRef<Path>) -> Result<Self, NyayaError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| NyayaError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        match path.extension().and_then(|e| e.to_str()) {
            Some("dl") => self.dl_lite_text(&text),
            Some("owl") | Some("ofn") => self.owl_ql_text(&text),
            _ => self.program_text(&text),
        }
    }

    /// Add a pre-built ontology (merged with anything already loaded).
    pub fn ontology(mut self, ontology: Ontology) -> Self {
        self.merge_ontology(ontology);
        self
    }

    /// Add raw TGDs.
    pub fn tgds(mut self, tgds: impl IntoIterator<Item = Tgd>) -> Self {
        self.ontology.tgds.extend(tgds);
        self
    }

    /// Add database facts.
    pub fn facts(mut self, facts: impl IntoIterator<Item = Atom>) -> Self {
        self.facts.extend(facts);
        self
    }

    /// Force a rewriting engine. Default: TGD-rewrite⋆ for linear
    /// ontologies, plain TGD-rewrite otherwise (elimination is only proven
    /// complete for linear TGDs — Theorem 10).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = Some(algorithm);
        self
    }

    /// Keep the Lemma 1/2 auxiliary predicates in final rewritings (the
    /// paper's UX/AX/P5X mode, where auxiliaries are part of the schema).
    pub fn show_aux(mut self, show_aux: bool) -> Self {
        self.show_aux = show_aux;
        self
    }

    /// Enable/disable negative-constraint pruning (Section 5.1). Default:
    /// enabled iff the ontology has NCs.
    pub fn nc_pruning(mut self, nc_pruning: bool) -> Self {
        self.nc_pruning = Some(nc_pruning);
        self
    }

    /// Rewriting budget: maximum distinct queries explored per compile.
    pub fn max_queries(mut self, max_queries: usize) -> Self {
        self.max_queries = max_queries;
        self
    }

    /// Post-process every compiled rewriting with signature-indexed
    /// subsumption (answer-equivalent, possibly smaller UCQs; default
    /// off, keeping the raw Algorithm 1 output). The pass's counters
    /// surface in [`RewriteStats`](nyaya_rewrite::RewriteStats) and
    /// [`KbStats`](super::KbStats).
    pub fn minimize_rewritings(mut self, minimize: bool) -> Self {
        self.minimize_rewritings = minimize;
        self
    }

    /// Force an execution form for prepared queries: the flat UCQ
    /// rewriting, the non-recursive Datalog program, or (default) the
    /// per-query [`Strategy::Auto`] selection based on the estimated DNF
    /// size.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Chase budgets for the consistency check and the chase backend.
    pub fn chase_config(mut self, config: ChaseConfig) -> Self {
        self.chase_config = config;
        self
    }

    /// Use an explicit relational catalog. Predicates it does not cover are
    /// still registered with default table/column names at build time.
    pub fn catalog(mut self, catalog: Catalog) -> Self {
        self.catalog = Some(catalog);
        self
    }

    /// Persist the ABox in a durable ledger rooted at `path` (created if
    /// absent): every applied batch is written to a checksummed,
    /// fsynced write-ahead log *before* its snapshot is published, and
    /// index segments bound recovery replay.
    ///
    /// If the directory already holds a ledger, [`build`](Self::build)
    /// **recovers** from it — the on-disk state wins and any facts
    /// staged on this builder are ignored (they were the epoch-0 seed of
    /// the run that created the ledger). A fresh directory is seeded
    /// with the builder's facts as epoch 0.
    ///
    /// Durable knowledge bases serve *any* historical epoch through
    /// [`KnowledgeBase::snapshot_at`], across restarts.
    pub fn durable(mut self, path: impl Into<PathBuf>) -> Self {
        self.durable_path = Some(path.into());
        self
    }

    /// How many applied batches between background index-segment flushes
    /// (default 64; `0` is treated as 1). Only
    /// meaningful together with [`durable`](Self::durable).
    pub fn flush_interval(mut self, interval: u64) -> Self {
        self.flush_interval = interval.max(1);
        self
    }

    /// Enable/disable the exact answer cache (default **on**). A hit
    /// requires the snapshot's per-predicate write epochs to match the
    /// stored entry over every predicate the query reads, so a cached
    /// answer is provably bit-identical to re-execution — disabling it
    /// only matters for workloads that *measure* re-execution (benchmark
    /// harnesses, planner-feedback tests).
    pub fn answer_cache(mut self, enabled: bool) -> Self {
        self.answer_cache = enabled;
        self
    }

    fn merge_ontology(&mut self, other: Ontology) {
        self.ontology.tgds.extend(other.tgds);
        self.ontology.ncs.extend(other.ncs);
        self.ontology.kds.extend(other.kds);
    }

    /// Normalize, classify and index the ontology — the compile-once half
    /// of the pipeline. Everything done here is done exactly once per
    /// knowledge base, never per query.
    ///
    /// Fails with [`NyayaError::NonGroundFact`] if a fact holds anything
    /// but constants: the database holds constants only.
    pub fn build(self) -> Result<KnowledgeBase, NyayaError> {
        check_constants(&self.facts)?;
        let classification = classify(&self.ontology.tgds);
        let normalization = normalize(&self.ontology.tgds);
        let algorithm = self.algorithm.unwrap_or(if classification.linear {
            Algorithm::NyayaStar
        } else {
            Algorithm::Nyaya
        });
        // The elimination context (Section 6) depends on Σ alone; built
        // here once and reused by every prepared query.
        let elimination = classification
            .linear
            .then(|| EliminationContext::new(&normalization.tgds));
        let hidden: HashSet<Predicate> = if self.show_aux {
            HashSet::new()
        } else {
            normalization.aux_predicates.clone()
        };
        // FO-rewritable: evaluate the perfect rewriting over D; otherwise
        // no finite rewriting is guaranteed, and the chase answers.
        let executor = if classification.fo_rewritable() {
            ExecutorKind::InMemory
        } else {
            ExecutorKind::Chase
        };
        let mut catalog = self.catalog.unwrap_or_default();
        catalog.register_defaults(
            self.ontology
                .predicates()
                .into_iter()
                .chain(normalization.tgds.iter().flat_map(|t| t.predicates()))
                .chain(self.facts.iter().map(|f| f.pred))
                // Bundled queries may mention database predicates that no
                // TGD or fact touches — they still need tables for SQL.
                .chain(
                    self.queries
                        .iter()
                        .flat_map(|q| q.body.iter().map(|a| a.pred)),
                ),
        );
        let nc_pruning = self.nc_pruning.unwrap_or(!self.ontology.ncs.is_empty());
        let sigma_constants = sigma_constants(&self.ontology, &normalization.tgds);
        let mut database = Database::from_facts(self.facts.iter().cloned());
        let mut epoch = 0u64;
        let counters = Arc::new(Counters::default());
        let durability = match &self.durable_path {
            None => None,
            Some(path) => {
                let (durability, recovered) =
                    Durability::open(path, self.flush_interval, Arc::clone(&counters))?;
                match recovered {
                    // Fresh directory: the builder's facts become epoch 0,
                    // sealed immediately as the base segment so recovery
                    // always has something to replay from.
                    None => durability.seed(&database)?,
                    // Existing ledger: the durable state wins over any
                    // builder-staged facts (those seeded the run that
                    // created this ledger).
                    Some(state) => {
                        catalog.register_defaults(state.database.predicates());
                        database = state.database;
                        epoch = state.epoch;
                    }
                }
                Some(durability)
            }
        };
        let id = NEXT_KB_ID.fetch_add(1, Ordering::Relaxed);
        // Epoch 0 (or the recovered epoch): the build-time data, published
        // like any later epoch so readers and writers go through one code
        // path from the start.
        let snapshot = Arc::new(Snapshot::new(
            id,
            epoch,
            database,
            catalog,
            BuildCache::new(),
        ));
        Ok(KnowledgeBase {
            id,
            ontology: self.ontology,
            queries: self.queries,
            classification,
            normalization,
            elimination,
            hidden,
            sigma_constants,
            state: RwLock::new(snapshot),
            apply_lock: Mutex::new(()),
            chase_config: self.chase_config,
            nc_pruning,
            max_queries: self.max_queries,
            minimize_rewritings: self.minimize_rewritings,
            strategy: self.strategy,
            default_algorithm: algorithm,
            executor,
            entries: RwLock::default(),
            counters,
            durability,
            subscriptions: Mutex::new(Vec::new()),
            answer_cache_enabled: self.answer_cache,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::PROGRAM;
    use super::*;
    use nyaya_core::Term;

    /// The database holds constants: a builder fact with a labelled null,
    /// a function term or a variable is a typed error, not a panic in the
    /// bulk loader.
    #[test]
    fn builder_facts_must_be_constants() {
        let pred = Predicate::new("has_stock", 2);
        let skolem = Term::Func(
            nyaya_core::symbols::intern("sk0"),
            [Term::constant("ibm_s")].into(),
        );
        for bad in [Term::Null(3), skolem, Term::var("X")] {
            let fact = Atom::new(pred, vec![Term::constant("ibm_s"), bad]);
            let built = KnowledgeBase::builder()
                .program_text(PROGRAM)
                .unwrap()
                .facts([fact])
                .build();
            match built {
                Err(NyayaError::NonGroundFact { fact }) => assert!(fact.contains("has_stock")),
                Err(other) => panic!("expected NonGroundFact, got {other:?}"),
                Ok(_) => panic!("built a knowledge base over a non-constant fact"),
            }
        }
    }
}
