//! The SMOQE engine façade: a multi-tenant catalog of documents, a shared
//! compiled-plan cache, and owned, thread-safe sessions.
//!
//! Mirrors the architecture of Fig. 1 at serving scale: the engine owns
//! *named* documents (each with its DTD, DOM/stream source, TAX index and
//! registered security views — see [`crate::catalog`]); a [`Session`] is
//! the access path of one user into one document — either an administrator
//! querying it directly, or a member of a user group whose queries are
//! transparently **rewritten** against the group's virtual view and
//! answered without materialization (§2, "Query support").
//!
//! Sessions are owned values (`Arc`-based, `Send + Sync`): one engine
//! answers queries from many threads concurrently. Evaluation works on
//! snapshots (`Arc` clones) of the catalog state, so no lock is held while
//! a query runs, and compiled plans are memoized engine-wide in the
//! [plan cache](crate::plancache).

use crate::catalog::{Catalog, DocHandle, DocumentEntry, LoadedSource, ViewSlot, ViewSource};
use crate::config::{DocumentMode, EngineConfig, EvalMode};
use crate::durable::wal::WalOp;
use crate::error::EngineError;
use crate::plancache::{CacheMetrics, PlanCache, PlanKey};
use smoqe_automata::compile::CompiledMfa;
use smoqe_automata::{compile, optimize::optimize, Mfa};
use smoqe_hype::batch::{evaluate_batch_stream_plans_budgeted, BatchOutcome};
use smoqe_hype::dom::{evaluate_mfa_plan_budgeted, DomOptions};
use smoqe_hype::stream::StreamOptions;
use smoqe_hype::{evaluate_jump_frontier, jump_available, selectivity_estimate};
use smoqe_hype::{DriverError, EvalObserver, EvalStats, ExecMode, NoopObserver, WorkBudget};
use smoqe_rxpath::parse_path;
use smoqe_tax::TaxIndex;
use smoqe_update::{parse_update, UpdateError};
use smoqe_view::{
    derive, materialize, materialize_fragment, AccessPolicy, MaterializedView, ViewSpec,
};
use smoqe_xml::{Document, Dtd, NodeId, Vocabulary, XmlError};
use std::path::Path as FsPath;
use std::sync::Arc;

/// The catalog name used by the single-document convenience methods
/// ([`Engine::load_document`] and friends).
pub const DEFAULT_DOCUMENT: &str = "default";

/// The Secure MOdular Query Engine.
///
/// Construct with [`Engine::new`] / [`Engine::with_defaults`] (both return
/// `Arc<Engine>`), populate the catalog through [`Engine::open_document`],
/// then serve queries through owned [`Session`]s from as many threads as
/// desired.
pub struct Engine {
    vocab: Vocabulary,
    config: EngineConfig,
    catalog: Catalog,
    plans: PlanCache,
    tenants: crate::tenants::TenantRegistry,
    /// Durable state (WAL + checkpoints), set once by
    /// [`Engine::recover`]; `None` for a purely in-memory engine.
    pub(crate) durable: std::sync::OnceLock<Arc<crate::durable::Durability>>,
}

/// Who a session belongs to.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum User {
    /// May query the underlying document directly.
    Admin,
    /// Queries are answered through the group's security view.
    Group(String),
}

/// One user's owned access path into one document of an engine.
///
/// Sessions are `Send + Sync + Clone`: hand them to worker threads freely.
/// A session holds `Arc`s to the engine and its document entry, never
/// locks, so concurrent queries proceed in parallel and a session stays
/// valid (seeing the latest contents) across document reloads.
#[derive(Clone)]
pub struct Session {
    engine: Arc<Engine>,
    entry: Arc<DocumentEntry>,
    user: User,
}

/// A query answer: nodes of the underlying document (in document order)
/// plus evaluation statistics.
#[derive(Debug)]
pub struct Answer {
    /// Answer node ids (ids of the *source* document, document order).
    pub nodes: Vec<NodeId>,
    /// Evaluator counters.
    pub stats: EvalStats,
    /// Whether the plan came from the engine's plan cache.
    pub plan_cached: bool,
    /// The execution mode the plan actually ran in — in particular
    /// whether [`EvalMode::Auto`](crate::config::EvalMode) picked the
    /// jump scan or the tree walk for this query.
    pub mode: ExecMode,
    /// Serialized answer subtrees (always present in stream mode; filled
    /// lazily from the DOM otherwise via [`Answer::serialize_with`]).
    pub xml: Option<Vec<String>>,
}

impl Answer {
    /// Number of answer nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the answer is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Serializes each answer's **raw source subtree** using `doc`.
    ///
    /// Intended for admin-level inspection; view users should go through
    /// [`Session::query_serialized`], which filters hidden descendants.
    pub fn serialize_with(&self, doc: &Document) -> Vec<String> {
        self.nodes
            .iter()
            .map(|&n| smoqe_xml::serialize::subtree_to_string(doc, n))
            .collect()
    }
}

/// Result of a batched query.
///
/// Returned by [`Session::query_batch`], [`DocHandle::query_batch`] and
/// [`Engine::evaluate_batch`]. Every answer is computed on **one**
/// snapshot of the document; how the batch amortizes depends on the
/// engine's [`DocumentMode`]:
///
/// * **DOM engines** answer from the snapshot's tree, at every
///   [`EngineConfig::eval_threads`]. Each plan takes the scan/jump pick
///   [`Session::query`] makes; jump plans share one sweep of a merged
///   candidate frontier, the rest are evaluated one by one (partitioned
///   across scoped worker threads when `eval_threads > 1`). Per-plan
///   statistics merge via [`BatchAnswer::merged_stats`]. Nothing is
///   parsed, so `events` is 0 and `xml` stays `None`, like any other DOM
///   answer.
/// * **Streaming engines** share one parse: every plan rides **one**
///   sequential scan of the document. `events` is the total parser event
///   count of that scan — the same count a *single* streamed query
///   reports, which is the proof the pass was shared — and every answer
///   carries its serialized XML: raw source subtrees for admin sessions,
///   the access-controlled view rendering for group sessions.
#[derive(Debug)]
pub struct BatchAnswer {
    /// One answer per query, in input order.
    pub answers: Vec<Answer>,
    /// Parser events of the single shared document scan of a streaming
    /// engine (0 on DOM engines, which answer from the tree and parse
    /// nothing).
    pub events: usize,
}

impl BatchAnswer {
    /// The per-query evaluation counters merged into one total (additive
    /// counters sum, depth takes the maximum) — the batch-level figure
    /// of a DOM batch, whatever its worker count.
    pub fn merged_stats(&self) -> EvalStats {
        let mut total = EvalStats::default();
        for a in &self.answers {
            total.merge(&a.stats);
        }
        total
    }
}

/// Outcome of one accepted update statement.
///
/// Returned by [`Session::update`], [`DocHandle::update`] and
/// [`DocHandle::update_batch`].
#[derive(Clone, Copy, Debug)]
pub struct UpdateReport {
    /// Number of target nodes the operation was applied to (an update
    /// whose path selects several nodes applies at each of them).
    pub applied: usize,
    /// Node count **of the document as the session sees it** before this
    /// statement: the source document for admins, the security view for
    /// group sessions — source-side counts would reveal how many hidden
    /// nodes an edited subtree contained.
    pub nodes_before: usize,
    /// Same count after the statement.
    pub nodes_after: usize,
    /// Whether a TAX index was present and was **incrementally patched**
    /// across the edit (an update never triggers an index build, and
    /// never discards one either).
    pub tax_patched: bool,
}

impl Engine {
    /// Creates an engine with the given configuration and a fresh
    /// vocabulary.
    pub fn new(config: EngineConfig) -> Arc<Self> {
        Arc::new(Engine {
            vocab: Vocabulary::new(),
            plans: PlanCache::new(config.plan_cache_capacity),
            config,
            catalog: Catalog::default(),
            tenants: crate::tenants::TenantRegistry::default(),
            durable: std::sync::OnceLock::new(),
        })
    }

    /// Creates an engine with default configuration.
    pub fn with_defaults() -> Arc<Self> {
        Engine::new(EngineConfig::default())
    }

    /// The engine's vocabulary (shared by its documents, views and
    /// queries).
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    // ------------------------------------------------------------------
    // Catalog management
    // ------------------------------------------------------------------

    /// Opens (creating if necessary) the named document, returning an
    /// owned handle for loading data and minting sessions.
    ///
    /// A durability failure on the creation record is deferred here (an
    /// empty entry holds no data, and every data-bearing operation on the
    /// handle reports the dead durability layer); callers that want it
    /// eagerly use [`Engine::try_open_document`].
    pub fn open_document(self: &Arc<Self>, name: &str) -> DocHandle {
        self.open_document_logged(name).0
    }

    /// Like [`Engine::open_document`], but surfaces a durability failure
    /// on the creation record immediately instead of deferring it to the
    /// first data-bearing operation.
    pub fn try_open_document(self: &Arc<Self>, name: &str) -> Result<DocHandle, EngineError> {
        let (handle, logged) = self.open_document_logged(name);
        logged?;
        Ok(handle)
    }

    fn open_document_logged(self: &Arc<Self>, name: &str) -> (DocHandle, Result<(), EngineError>) {
        let (entry, created) = self.catalog.entry_or_create_tracked(name);
        let logged = if created {
            // Under the new entry's write lock, like every other durable
            // mutation, so the record cannot interleave with a concurrent
            // checkpoint's cut.
            let _writer = entry.write_serial.lock();
            self.durable_log(WalOp::OpenDocument {
                doc: name.to_string(),
            })
        } else {
            Ok(())
        };
        let handle = DocHandle {
            engine: self.clone(),
            entry,
        };
        (handle, logged)
    }

    /// A handle to an *existing* document, or `UnknownDocument`.
    pub fn document_handle(self: &Arc<Self>, name: &str) -> Result<DocHandle, EngineError> {
        Ok(DocHandle {
            engine: self.clone(),
            entry: self.catalog.entry(name)?,
        })
    }

    /// Removes `name` from the catalog and purges its cached plans.
    /// Sessions already bound to the document keep working on it.
    ///
    /// On a durable engine the drop is logged first, so recovery can
    /// never resurrect the document; a drop that cannot be logged does
    /// not happen (and reports `false`) — use
    /// [`Engine::try_drop_document`] to see the durability error.
    pub fn drop_document(&self, name: &str) -> bool {
        self.try_drop_document(name).unwrap_or(false)
    }

    /// Like [`Engine::drop_document`], surfacing durability failures
    /// instead of folding them into `false`.
    pub fn try_drop_document(&self, name: &str) -> Result<bool, EngineError> {
        let Ok(entry) = self.catalog.entry(name) else {
            return Ok(false);
        };
        // Under the entry's write lock the drop record and the catalog
        // removal are atomic with respect to a concurrent checkpoint
        // capture — a checkpoint can never include a document whose drop
        // record its LSN already covers.
        let _writer = entry.write_serial.lock();
        if entry.is_dropped() {
            return Ok(false); // another dropper won the race
        }
        self.durable_log(WalOp::DropDocument {
            doc: name.to_string(),
        })?;
        Ok(self.drop_document_local(name))
    }

    /// The in-memory half of a drop (also the replay path — the record
    /// is already in the log then).
    pub(crate) fn drop_document_local(&self, name: &str) -> bool {
        match self.catalog.remove(name) {
            Some(entry) => {
                self.plans.purge_entry(entry.id());
                true
            }
            None => false,
        }
    }

    /// The catalog (durability's capture/replay entry point).
    pub(crate) fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Sorted names of the documents currently in the catalog.
    pub fn document_names(&self) -> Vec<String> {
        self.catalog.names()
    }

    /// Point-in-time plan-cache counters (hits, misses, invalidations,
    /// resident entries).
    pub fn cache_metrics(&self) -> CacheMetrics {
        self.plans.metrics()
    }

    /// Sorted per-tenant load counters — one row per principal this engine
    /// has served ([`crate::tenants::ADMIN_TENANT`] for admin sessions,
    /// the group name otherwise). The serving layer's `Stats` op reports
    /// these so per-group load on a shared engine is observable; the CLI
    /// prints them under `--cache-stats`.
    pub fn tenant_metrics(&self) -> Vec<(String, crate::tenants::TenantMetrics)> {
        self.tenants.metrics()
    }

    // ------------------------------------------------------------------
    // Single-document conveniences (operate on `DEFAULT_DOCUMENT`)
    // ------------------------------------------------------------------

    fn default_entry(&self) -> Arc<DocumentEntry> {
        self.catalog.entry_or_create(DEFAULT_DOCUMENT)
    }

    /// Parses and installs the default document's DTD.
    pub fn load_dtd(&self, dtd_text: &str) -> Result<(), EngineError> {
        self.load_dtd_on(&self.default_entry(), dtd_text)
    }

    /// The default document's DTD, if any.
    pub fn dtd(&self) -> Option<Arc<Dtd>> {
        self.default_entry().dtd.read().clone()
    }

    /// Loads the default document from XML text, validating against the
    /// DTD when one is installed.
    pub fn load_document(&self, xml: &str) -> Result<(), EngineError> {
        self.load_document_on(&self.default_entry(), xml.into())
    }

    /// Loads (and validates) the default document from a file, read once
    /// (see [`DocHandle::load_document_file`]).
    pub fn load_document_file(&self, path: impl AsRef<FsPath>) -> Result<(), EngineError> {
        self.load_document_on(&self.default_entry(), read_text(path.as_ref())?)
    }

    /// Loads an already-built default document (e.g. from the generator)
    /// as the parse of its serialization (see
    /// [`DocHandle::load_document_tree`]).
    pub fn load_document_tree(&self, doc: Document) -> Result<(), EngineError> {
        self.load_document_on(&self.default_entry(), doc.to_xml().into())
    }

    /// The loaded default document.
    pub fn document(&self) -> Result<Arc<Document>, EngineError> {
        Ok(self.default_entry().snapshot()?.doc.clone())
    }

    /// Builds the TAX index over the default document (the "indexer" box
    /// of Fig. 1).
    pub fn build_tax_index(&self) -> Result<Arc<TaxIndex>, EngineError> {
        self.build_tax_index_on(&self.default_entry())
    }

    /// The default document's TAX index, if built or loaded.
    pub fn tax_index(&self) -> Option<Arc<TaxIndex>> {
        self.default_entry()
            .source
            .read()
            .as_ref()
            .and_then(|s| s.tax.clone())
    }

    /// Persists the default document's TAX index ("compresses it before
    /// it is stored in disk").
    pub fn save_tax_index(&self, path: impl AsRef<FsPath>) -> Result<(), EngineError> {
        self.save_tax_index_on(&self.default_entry(), path.as_ref())
    }

    /// Loads a TAX index for the default document from disk ("uploads it
    /// from disk when needed").
    pub fn load_tax_index(&self, path: impl AsRef<FsPath>) -> Result<(), EngineError> {
        self.load_tax_index_on(&self.default_entry(), path.as_ref())
    }

    /// Registers a user group of the default document by access-control
    /// policy: the view is derived automatically (§2, automated view
    /// derivation).
    pub fn register_policy(&self, group: &str, policy_text: &str) -> Result<(), EngineError> {
        self.register_policy_on(&self.default_entry(), group, policy_text)
    }

    /// Registers a user group of the default document with a
    /// hand-authored view specification (the DAD/AXSD-style mode).
    pub fn register_view_spec(&self, group: &str, spec_text: &str) -> Result<(), EngineError> {
        self.register_view_spec_on(&self.default_entry(), group, spec_text)
    }

    /// The view spec registered for `group` on the default document.
    pub fn view(&self, group: &str) -> Result<Arc<ViewSpec>, EngineError> {
        Ok(self.default_entry().view_slot(group)?.0)
    }

    /// Opens a session for `user` on the default document.
    pub fn session(self: &Arc<Self>, user: User) -> Session {
        Session::new(self.clone(), self.default_entry(), user)
    }

    /// Opens a session for `user` on an existing named document.
    pub fn session_on(
        self: &Arc<Self>,
        document: &str,
        user: User,
    ) -> Result<Session, EngineError> {
        Ok(Session::new(
            self.clone(),
            self.catalog.entry(document)?,
            user,
        ))
    }

    /// Compiles (and, per config, rewrites and optimizes) a query for
    /// `user` on the default document, consulting the plan cache.
    pub fn plan(&self, user: &User, query: &str) -> Result<Arc<Mfa>, EngineError> {
        self.plan_on(&self.default_entry(), user, query)
    }

    /// Picks the DOM traversal for one (plan, snapshot) pair: scan, jump,
    /// or — in auto mode — whichever the selectivity estimate favours.
    /// Observed evaluations always scan (a jump produces no per-node
    /// event stream for the observer).
    fn resolve_dom_mode(
        &self,
        source: &LoadedSource,
        plan: &CompiledMfa,
        observed: bool,
    ) -> ExecMode {
        if observed {
            return ExecMode::Compiled;
        }
        let tax = if self.config.use_tax {
            source.tax.as_deref()
        } else {
            None
        };
        let jumpable = jump_available(&source.doc, plan, tax);
        match self.config.eval_mode {
            EvalMode::Scan => ExecMode::Compiled,
            EvalMode::Jump if jumpable => ExecMode::Jump,
            EvalMode::Auto
                if jumpable
                    && selectivity_estimate(&source.doc, plan, tax)
                        .measured()
                        .is_some_and(|s| s <= self.config.jump_selectivity) =>
            {
                ExecMode::Jump
            }
            // An unselective estimate, a `NoRequiredLabel` plan, or (in
            // principle — `jumpable` already implies an index) a
            // `NoIndex` report all stay on the scan walker.
            _ => ExecMode::Compiled,
        }
    }

    /// Materializes the view of `group` over the default document — only
    /// used by tests and the E6 baseline; production queries never
    /// materialize.
    pub fn materialize_view(
        &self,
        group: &str,
    ) -> Result<smoqe_view::MaterializedView, EngineError> {
        let entry = self.default_entry();
        let spec = entry.view_slot(group)?.0;
        let doc = entry.snapshot()?.doc.clone();
        Ok(materialize(&spec, &doc)?)
    }

    // ------------------------------------------------------------------
    // Per-entry operations (shared by DocHandle and the conveniences)
    // ------------------------------------------------------------------

    pub(crate) fn load_dtd_on(
        &self,
        entry: &Arc<DocumentEntry>,
        dtd_text: &str,
    ) -> Result<(), EngineError> {
        let dtd = Dtd::parse(dtd_text, &self.vocab)?;
        let _writer = entry.write_serial.lock();
        self.durable_log(WalOp::LoadDtd {
            doc: entry.name().to_string(),
            text: dtd_text.to_string(),
        })?;
        *entry.dtd.write() = Some(Arc::new(dtd));
        *entry.dtd_text.write() = Some(Arc::from(dtd_text));
        entry.bump_generation();
        Ok(())
    }

    /// The one document loader: parses `text`, validates the parse
    /// against the entry's DTD, logs that same text and installs the
    /// parse. Every public loader, checkpoint restore and WAL replay come
    /// through here, so an installed document is always the parse of the
    /// one buffer that streams, logs and checkpoints read.
    pub(crate) fn load_document_on(
        &self,
        entry: &Arc<DocumentEntry>,
        text: Arc<str>,
    ) -> Result<(), EngineError> {
        let source =
            LoadedSource::new(Arc::new(smoqe_xml::parse_buffer(text, &self.vocab)?), None)?;
        // A fresh source carries no TAX index (the old one described the
        // old document); cached plans stay valid. Validation, the
        // WAL record and the install all happen under the write lock that
        // orders DTD swaps and installs, so the log never holds a
        // document its preceding DTD record would refuse on replay.
        let _writer = entry.write_serial.lock();
        if let Some(dtd) = entry.dtd.read().clone() {
            dtd.validate(&source.doc)?;
        }
        self.durable_log(WalOp::LoadDocument {
            doc: entry.name().to_string(),
            xml: source.buffer.to_string(),
        })?;
        *entry.source.write() = Some(Arc::new(source));
        entry.bump_generation();
        Ok(())
    }

    pub(crate) fn build_tax_index_on(
        &self,
        entry: &Arc<DocumentEntry>,
    ) -> Result<Arc<TaxIndex>, EngineError> {
        let snapshot = entry.snapshot()?;
        let tax = Arc::new(TaxIndex::build(&snapshot.doc));
        self.attach_tax_logged(entry, &snapshot, tax.clone())?;
        Ok(tax)
    }

    /// [`Engine::attach_tax_restored`] plus a WAL record (when the index
    /// actually attached), under the entry's write lock so the record's
    /// position among the entry's updates matches the document state the
    /// index was built over.
    fn attach_tax_logged(
        &self,
        entry: &Arc<DocumentEntry>,
        built_over: &LoadedSource,
        tax: Arc<TaxIndex>,
    ) -> Result<(), EngineError> {
        let _writer = entry.write_serial.lock();
        let mut source = entry.source.write();
        if let Some(current) = source.as_ref() {
            if Arc::ptr_eq(&current.doc, &built_over.doc) {
                self.durable_log(WalOp::BuildTaxIndex {
                    doc: entry.name().to_string(),
                })?;
                *source = Some(Arc::new(current.with_tax(tax)));
            }
        }
        Ok(())
    }

    /// Installs `tax` on the entry's source, but only if the source is
    /// still the one the index was built over — a concurrent reload makes
    /// the freshly built index describe a dead document, in which case it
    /// is discarded (the reload already invalidated it).
    pub(crate) fn attach_tax_restored(
        &self,
        entry: &Arc<DocumentEntry>,
        built_over: &LoadedSource,
        tax: Arc<TaxIndex>,
    ) {
        let mut source = entry.source.write();
        if let Some(current) = source.as_ref() {
            if Arc::ptr_eq(&current.doc, &built_over.doc) {
                *source = Some(Arc::new(current.with_tax(tax)));
            }
        }
    }

    pub(crate) fn save_tax_index_on(
        &self,
        entry: &Arc<DocumentEntry>,
        path: &FsPath,
    ) -> Result<(), EngineError> {
        let tax = entry
            .snapshot()?
            .tax
            .clone()
            .ok_or(EngineError::NoDocument)?;
        tax.save_to_file(path, &self.vocab)?;
        Ok(())
    }

    pub(crate) fn load_tax_index_on(
        &self,
        entry: &Arc<DocumentEntry>,
        path: &FsPath,
    ) -> Result<(), EngineError> {
        let snapshot = entry.snapshot()?;
        let mut tax = TaxIndex::load_from_file(path, &self.vocab)?;
        // The file is outside input: an index over another document would
        // answer wrongly or index past the end. The format carries no
        // document fingerprint, so the node count is the check there is.
        if tax.node_count() != snapshot.doc.node_count() {
            return Err(EngineError::Xml(XmlError::Invalid(format!(
                "TAX index covers {} nodes, the document has {}",
                tax.node_count(),
                snapshot.doc.node_count()
            ))));
        }
        // The on-disk format carries the descendant sets only; rebuild
        // the positional label index from the live document so jump-scan
        // evaluation works for loaded indexes too.
        tax.attach_label_index(&snapshot.doc);
        self.attach_tax_logged(entry, &snapshot, Arc::new(tax))
    }

    pub(crate) fn register_policy_on(
        &self,
        entry: &Arc<DocumentEntry>,
        group: &str,
        policy_text: &str,
    ) -> Result<(), EngineError> {
        let dtd = entry.dtd.read().clone().ok_or(EngineError::NoDocument)?;
        let policy = AccessPolicy::parse((*dtd).clone(), policy_text)?;
        let spec = derive(&policy);
        spec.validate(&dtd)?;
        self.install_view(
            entry,
            group,
            spec,
            ViewSource::Policy(Arc::from(policy_text)),
        )
    }

    pub(crate) fn register_view_spec_on(
        &self,
        entry: &Arc<DocumentEntry>,
        group: &str,
        spec_text: &str,
    ) -> Result<(), EngineError> {
        let spec = ViewSpec::parse(spec_text, &self.vocab)?;
        if let Some(dtd) = entry.dtd.read().clone() {
            spec.validate(&dtd)?;
        }
        self.install_view(entry, group, spec, ViewSource::Spec(Arc::from(spec_text)))
    }

    fn install_view(
        &self,
        entry: &Arc<DocumentEntry>,
        group: &str,
        spec: ViewSpec,
        source: ViewSource,
    ) -> Result<(), EngineError> {
        // Registrations serialize with the entry's other writers so the
        // WAL interleaves view changes and updates in install order — a
        // replayed group update must resolve against the same view
        // version the original write saw.
        let _writer = entry.write_serial.lock();
        self.durable_log(match &source {
            ViewSource::Policy(text) => WalOp::RegisterPolicy {
                doc: entry.name().to_string(),
                group: group.to_string(),
                text: text.to_string(),
            },
            ViewSource::Spec(text) => WalOp::RegisterViewSpec {
                doc: entry.name().to_string(),
                group: group.to_string(),
                text: text.to_string(),
            },
        })?;
        let slot = ViewSlot {
            spec: Arc::new(spec),
            generation: entry.next_view_generation(),
            source,
        };
        entry.views.write().insert(group.to_string(), slot);
        self.plans.purge_view(entry.id(), group);
        Ok(())
    }

    /// Plans `query` for `user` on `entry`: cache lookup first, full
    /// parse → rewrite → compile → optimize pipeline on a miss.
    pub(crate) fn plan_on(
        &self,
        entry: &Arc<DocumentEntry>,
        user: &User,
        query: &str,
    ) -> Result<Arc<Mfa>, EngineError> {
        Ok(self.plan_tracked(entry, user, query)?.0.mfa_arc().clone())
    }

    /// Like [`Engine::plan_on`], also reporting whether the plan was a
    /// cache hit.
    pub(crate) fn plan_tracked(
        &self,
        entry: &Arc<DocumentEntry>,
        user: &User,
        query: &str,
    ) -> Result<(Arc<CompiledMfa>, bool), EngineError> {
        // Resolve the view first: an unknown group must error even for
        // queries that were cached for other principals.
        let (spec, view_generation) = match user {
            User::Admin => (None, 0),
            User::Group(g) => {
                let (spec, generation) = entry.view_slot(g)?;
                (Some(spec), generation)
            }
        };
        // Plans of a dropped entry stay out of the shared cache: the drop
        // purged them, and sessions still bound to the entry must not
        // regrow residency for a document the catalog has forgotten.
        let cacheable = !entry.is_dropped();
        let key = PlanKey {
            entry_id: entry.id(),
            scope: PlanKey::scope_of(user, view_generation),
            query: query.to_string(),
        };
        if cacheable {
            if let Some(plan) = self.plans.get(&key) {
                return Ok((plan, true));
            }
        }
        let path = parse_path(query, &self.vocab)?;
        let mfa = match &spec {
            None => compile(&path, &self.vocab),
            Some(spec) => smoqe_rewrite::rewrite(&path, spec),
        };
        let mfa = Arc::new(if self.config.optimize_mfa {
            optimize(&mfa)
        } else {
            mfa
        });
        // Table compilation (ε-closures, subset DFAs, CSR rows, required
        // labels) happens exactly once per cached plan; every evaluation
        // of the plan — any session, batch lane or thread — reuses it.
        let mfa = Arc::new(CompiledMfa::from_arc(mfa));
        if cacheable {
            self.plans.insert(key, mfa.clone());
            // A concurrent drop_document may have marked the entry and
            // purged between the check above and the insert; whichever
            // side purges last wins, so re-checking here closes the race
            // (drop marks before it purges).
            if entry.is_dropped() {
                self.plans.purge_entry(entry.id());
            }
        }
        Ok((mfa, false))
    }

    // ------------------------------------------------------------------
    // Secure updates
    // ------------------------------------------------------------------

    /// Applies a sequence of update statements to `entry` on behalf of
    /// `user`, **all-or-nothing**.
    ///
    /// * **Target resolution.** Admins resolve targets directly against
    ///   the document. Group users resolve them against their *security
    ///   view*: the view is materialized over the snapshot (the same
    ///   [`smoqe_view::accessible_nodes`] relation that defines read
    ///   semantics), the target path is evaluated **on the view**, and
    ///   the selected view nodes map back to their source origins. A
    ///   hidden node is therefore never selected, and an empty target set
    ///   — whether the node is hidden, conditionally hidden, or simply
    ///   absent — yields the same opaque [`EngineError::UpdateDenied`].
    /// * **Application.** Each statement's targets are applied
    ///   last-to-first (pre-order ids before an edit window are stable),
    ///   rebuilding the arena per edit and **incrementally patching** the
    ///   TAX index instead of rebuilding it.
    /// * **Conformance.** The final document is validated against the
    ///   entry's DTD. Admins see the typed schema error; for group users
    ///   it collapses into `UpdateDenied` too — a validation message
    ///   could describe content the view hides.
    /// * **Installation.** Only after everything succeeded is the new
    ///   snapshot swapped in and the entry's generation (its write
    ///   version) bumped. Cached plans stay valid: no plan reads the
    ///   document, only its query and view. Writers are serialized
    ///   on the entry's write lock; readers keep evaluating on their old
    ///   snapshot throughout and are never blocked.
    pub(crate) fn apply_updates_on(
        &self,
        entry: &Arc<DocumentEntry>,
        user: &User,
        updates: &[&str],
    ) -> Result<Vec<UpdateReport>, EngineError> {
        let result = self.apply_updates_inner(entry, user, updates);
        self.tenants
            .record_update(user, updates.len(), result.as_ref().err());
        if result.is_ok() {
            // The periodic checkpoint cadence rides the update path (the
            // only high-frequency durable mutation).
            self.maybe_checkpoint();
        }
        result
    }

    pub(crate) fn apply_updates_inner(
        &self,
        entry: &Arc<DocumentEntry>,
        user: &User,
        updates: &[&str],
    ) -> Result<Vec<UpdateReport>, EngineError> {
        if updates.is_empty() {
            return Ok(Vec::new());
        }
        let _writer = entry.write_serial.lock();
        let snapshot = entry.snapshot()?;
        let dtd = entry.dtd.read().clone();
        let mut doc: Arc<Document> = snapshot.doc.clone();
        let mut tax: Option<Arc<TaxIndex>> = snapshot.tax.clone();
        let mut reports = Vec::with_capacity(updates.len());
        // One view spec for the whole transaction (group sessions only).
        let spec = match user {
            User::Admin => None,
            User::Group(group) => Some(entry.view_slot(group)?.0),
        };
        // The materialized view of the *current* document state: target
        // resolution and the report's node counts both read it, and each
        // post-edit state is materialized exactly once (reused as the
        // next statement's pre-state). A group update that breaks
        // materialization itself (e.g. replacing the root with a foreign
        // type) is opaquely denied — a ViewError message is not part of
        // the group update contract.
        let make_view = |doc: &Document| -> Result<Option<MaterializedView>, EngineError> {
            match &spec {
                None => Ok(None),
                Some(spec) => match materialize(spec, doc) {
                    Ok(view) => Ok(Some(view)),
                    Err(_) => Err(EngineError::UpdateDenied),
                },
            }
        };
        // Group sessions never see source-side node counts: the report
        // counts the document *as the session sees it* (the view), or a
        // delete of a visible node with hidden descendants would leak how
        // many hidden nodes its subtree held.
        let visible_count = |doc: &Document, view: &Option<MaterializedView>| match view {
            None => doc.node_count(),
            Some(view) => view.doc.node_count(),
        };
        let mut view = make_view(&doc)?;
        let mut nodes_before = visible_count(&doc, &view);
        for text in updates {
            let update = parse_update(text, &self.vocab)?;
            let targets: Vec<NodeId> = match &view {
                None => smoqe_rxpath::evaluate(&doc, &update.target).into_vec(),
                Some(view) => {
                    let hits = smoqe_rxpath::evaluate(&view.doc, &update.target);
                    view.origins_of(hits.iter())
                }
            };
            if targets.is_empty() {
                return Err(match user {
                    User::Admin => EngineError::Update(UpdateError::NoTarget),
                    User::Group(_) => EngineError::UpdateDenied,
                });
            }
            let (new_doc, new_tax, applied) =
                smoqe_update::apply_update(&doc, &update, &targets, tax.as_deref())?;
            doc = Arc::new(new_doc);
            tax = new_tax.map(Arc::new);
            view = make_view(&doc)?;
            let nodes_after = visible_count(&doc, &view);
            reports.push(UpdateReport {
                applied,
                nodes_before,
                nodes_after,
                tax_patched: tax.is_some(),
            });
            nodes_before = nodes_after;
        }
        if let Some(dtd) = dtd {
            dtd.validate(&doc).map_err(|e| match user {
                User::Admin => EngineError::Update(UpdateError::Schema(e)),
                // A schema message can describe hidden content; the view
                // user learns only that the write did not happen.
                User::Group(_) => EngineError::UpdateDenied,
            })?;
        }
        // Buffer-spliced updates leave the new document holding its own
        // text; `LoadedSource::new` re-parses the rare rebuilt one.
        let source = LoadedSource::new(doc, tax)?;
        // Write-ahead: the accepted transaction is logged (statement
        // texts + acting principal) before the snapshot is installed. A
        // crash after this point recovers *with* the transaction; before
        // it, without — either way a prefix, never a torn document.
        self.durable_log(WalOp::Update {
            doc: entry.name().to_string(),
            group: match user {
                User::Admin => None,
                User::Group(g) => Some(g.clone()),
            },
            statements: updates.iter().map(|s| s.to_string()).collect(),
        })?;
        *entry.source.write() = Some(Arc::new(source));
        entry.bump_generation();
        Ok(reports)
    }

    /// Applies one admin update to the default document (single-document
    /// convenience; see [`DocHandle::update`]).
    pub fn update(&self, update: &str) -> Result<UpdateReport, EngineError> {
        let mut reports = self.apply_updates_on(&self.default_entry(), &User::Admin, &[update])?;
        Ok(reports.pop().expect("one statement yields one report"))
    }

    /// Evaluates each `(session, query)` request — possibly for different
    /// users, groups and views — against **one snapshot** of their
    /// (shared) document, as [`Session::query_batch`] does: DOM engines
    /// answer from the snapshot's tree, streaming engines share one parse.
    ///
    /// Every session must belong to this engine and target the same
    /// catalog entry; mixing documents or engines is a
    /// [`EngineError::BatchMismatch`] (one snapshot can only serve one
    /// document). Plans are resolved per request through the shared plan
    /// cache, so a busy serving mix pays at most one compilation per
    /// distinct `(scope, query)` pair, and a streaming engine exactly one
    /// parse of the document for the whole batch.
    pub fn evaluate_batch(
        self: &Arc<Self>,
        requests: &[(&Session, &str)],
    ) -> Result<BatchAnswer, EngineError> {
        let Some((first, _)) = requests.first() else {
            return Ok(BatchAnswer {
                answers: Vec::new(),
                events: 0,
            });
        };
        let entry = first.entry.clone();
        let mut parts = Vec::with_capacity(requests.len());
        for (session, query) in requests {
            if !Arc::ptr_eq(&session.engine, self) || !Arc::ptr_eq(&session.entry, &entry) {
                return Err(EngineError::BatchMismatch);
            }
            let (mfa, cached) = self.plan_tracked(&entry, &session.user, query)?;
            parts.push((session.user.clone(), mfa, cached));
        }
        let result = self
            .evaluate_batch_parts(&entry, &parts, &WorkBudget::unlimited())
            .map(|(batch, _)| batch);
        // Cross-session batches account each answer to its own tenant
        // (the per-session `query_batch` path records through
        // `record_batch` instead).
        match &result {
            Ok(batch) => {
                for ((session, _), answer) in requests.iter().zip(&batch.answers) {
                    self.tenants.record_query(&session.user, Ok(answer));
                }
            }
            Err(e) => {
                for (session, _) in requests {
                    self.tenants.record_query(&session.user, Err(e));
                }
            }
        }
        result
    }

    /// Shared batch path: plan-ordered `(user, plan, plan_cached)` triples
    /// answered against ONE snapshot of `entry`, which is returned with
    /// the answers (their node ids refer to its document; `None` only for
    /// an empty batch, which takes no snapshot). DOM engines answer from
    /// the snapshot's tree ([`Engine::evaluate_batch_dom`]); streaming
    /// engines share one parse of its buffer.
    pub(crate) fn evaluate_batch_parts(
        &self,
        entry: &Arc<DocumentEntry>,
        parts: &[(User, Arc<CompiledMfa>, bool)],
        budget: &WorkBudget,
    ) -> Result<(BatchAnswer, Option<Arc<LoadedSource>>), EngineError> {
        if parts.is_empty() {
            let empty = BatchAnswer {
                answers: Vec::new(),
                events: 0,
            };
            return Ok((empty, None));
        }
        let source = entry.snapshot()?;
        let batch = match self.config.mode {
            DocumentMode::Dom => self.evaluate_batch_dom(&source, parts, budget)?,
            DocumentMode::Stream => self.evaluate_batch_stream(entry, &source, parts, budget)?,
        };
        Ok((batch, Some(source)))
    }

    /// The streaming batch path: every plan rides one sequential scan of
    /// the snapshot's buffer and every answer is returned serialized. Only
    /// admin lanes buffer subtree XML during the scan; group answers are
    /// rendered through their view from the snapshot's DOM afterwards (the
    /// raw buffered subtrees would leak hidden descendants and be
    /// discarded anyway).
    fn evaluate_batch_stream(
        &self,
        entry: &Arc<DocumentEntry>,
        source: &LoadedSource,
        parts: &[(User, Arc<CompiledMfa>, bool)],
        budget: &WorkBudget,
    ) -> Result<BatchAnswer, EngineError> {
        let plans: Vec<(&CompiledMfa, StreamOptions)> = parts
            .iter()
            .map(|(user, mfa, _)| {
                let want_xml = matches!(user, User::Admin);
                (mfa.as_ref(), StreamOptions { want_xml })
            })
            .collect();
        let mut observers: Vec<NoopObserver> = plans.iter().map(|_| NoopObserver).collect();
        let mut dyns: Vec<&mut dyn EvalObserver> = observers
            .iter_mut()
            .map(|o| o as &mut dyn EvalObserver)
            .collect();
        let outcome = self.scan_source(source, &plans, &mut dyns, budget)?;
        let events = outcome.events;
        let mut answers = Vec::with_capacity(parts.len());
        for (out, (user, _, cached)) in outcome.outcomes.into_iter().zip(parts) {
            let mut answer = Answer {
                nodes: out.answers.into_iter().map(NodeId).collect(),
                stats: out.stats,
                plan_cached: *cached,
                mode: ExecMode::Compiled,
                xml: out.answer_xml,
            };
            if let User::Group(g) = user {
                answer.xml = Some(render_view_xml(entry, g, source, &answer.nodes)?);
            }
            answers.push(answer);
        }
        Ok(BatchAnswer { answers, events })
    }

    /// The DOM batch path, at every [`EngineConfig::eval_threads`]. Each
    /// plan takes the scan/jump pick a lone [`Session::query`] makes.
    /// Jump plans merge their candidate lists into **one shared ascending
    /// frontier**, partitioned by frontier ranges across the workers — one
    /// hop sequence drives all of them instead of each plan re-walking the
    /// document. The remaining plans are evaluated one by one, inline on
    /// the calling thread with one worker, or partitioned across scoped
    /// workers with more. Every worker reads the same `Arc` document/TAX
    /// snapshot (`Send + Sync`, no worker takes a lock), so answers are
    /// independent of the thread count by construction. Nothing is parsed:
    /// `events` is 0 and `xml` stays `None`, like any other DOM answer.
    fn evaluate_batch_dom(
        &self,
        source: &LoadedSource,
        parts: &[(User, Arc<CompiledMfa>, bool)],
        budget: &WorkBudget,
    ) -> Result<BatchAnswer, EngineError> {
        let mut slots: Vec<Option<Result<Answer, EngineError>>> = Vec::new();
        slots.resize_with(parts.len(), || None);
        let mut jump_idx: Vec<usize> = Vec::new();
        let mut scan_idx: Vec<(usize, ExecMode)> = Vec::new();
        for (i, (_, plan, _)) in parts.iter().enumerate() {
            match self.resolve_dom_mode(source, plan, false) {
                ExecMode::Jump => jump_idx.push(i),
                mode => scan_idx.push((i, mode)),
            }
        }
        if !jump_idx.is_empty() {
            let tax = source
                .tax
                .as_deref()
                .expect("resolving to jump mode implies a TAX index");
            let plans: Vec<&CompiledMfa> = jump_idx.iter().map(|&i| parts[i].1.as_ref()).collect();
            let outcomes =
                evaluate_jump_frontier(&source.doc, &plans, tax, self.config.eval_threads, budget)
                    .map_err(|interrupt| EngineError::from(interrupt.kind))?;
            for (&i, outcome) in jump_idx.iter().zip(outcomes) {
                match outcome {
                    Some((nodes, stats)) => {
                        slots[i] = Some(Ok(Answer {
                            nodes: nodes.into_vec(),
                            stats,
                            plan_cached: parts[i].2,
                            mode: ExecMode::Jump,
                            xml: None,
                        }));
                    }
                    // The mode pick said jump but the frontier could not
                    // admit the plan: run its own jump evaluation.
                    None => scan_idx.push((i, ExecMode::Jump)),
                }
            }
        }
        if !scan_idx.is_empty() {
            let mut scan_slots: Vec<Option<Result<Answer, EngineError>>> = Vec::new();
            scan_slots.resize_with(scan_idx.len(), || None);
            let evaluate = |idx: &[(usize, ExecMode)], out: &mut [Option<Result<Answer, _>>]| {
                for (&(i, mode), slot) in idx.iter().zip(out) {
                    let (_, plan, cached) = &parts[i];
                    let result = self
                        .evaluate_dom(source, plan, mode, &mut NoopObserver, budget)
                        .map(|mut answer| {
                            answer.plan_cached = *cached;
                            answer
                        });
                    *slot = Some(result);
                }
            };
            let workers = self.config.eval_threads.min(scan_idx.len()).max(1);
            if workers == 1 {
                evaluate(&scan_idx, &mut scan_slots);
            } else {
                let chunk = scan_idx.len().div_ceil(workers);
                std::thread::scope(|scope| {
                    for (idx_chunk, slot_chunk) in
                        scan_idx.chunks(chunk).zip(scan_slots.chunks_mut(chunk))
                    {
                        scope.spawn(move || evaluate(idx_chunk, slot_chunk));
                    }
                });
            }
            for ((i, _), slot) in scan_idx.into_iter().zip(scan_slots) {
                slots[i] = slot;
            }
        }
        let answers = slots
            .into_iter()
            .map(|slot| slot.expect("every batch slot is written by its worker"))
            .collect::<Result<Vec<Answer>, EngineError>>()?;
        Ok(BatchAnswer { answers, events: 0 })
    }

    /// Evaluates a compiled plan against one consistent source snapshot
    /// (document + its TAX index travel together inside the
    /// `LoadedSource`) under a [`WorkBudget`]: the evaluator abandons mid-scan
    /// — surfacing the opaque [`EngineError::DeadlineExceeded`] /
    /// [`EngineError::Cancelled`] — when the deadline passes or the
    /// cancel token flips. Abandonment drops only evaluator-local state;
    /// the snapshot is immutable and shared by reference, so a torn-down
    /// evaluation leaves nothing to clean up.
    pub(crate) fn evaluate_snapshot_budgeted(
        &self,
        source: &LoadedSource,
        plan: &CompiledMfa,
        observer: &mut dyn EvalObserver,
        budget: &WorkBudget,
    ) -> Result<Answer, EngineError> {
        match self.config.mode {
            DocumentMode::Dom => {
                let mode = self.resolve_dom_mode(source, plan, !observer.is_noop());
                self.evaluate_dom(source, plan, mode, observer, budget)
            }
            DocumentMode::Stream => {
                let lane = [(plan, StreamOptions { want_xml: true })];
                let outcome = self
                    .scan_source(source, &lane, &mut [observer], budget)?
                    .outcomes
                    .pop()
                    .expect("one plan in, one outcome out");
                Ok(Answer {
                    nodes: outcome.answers.into_iter().map(NodeId).collect(),
                    stats: outcome.stats,
                    plan_cached: false,
                    mode: ExecMode::Compiled,
                    xml: outcome.answer_xml,
                })
            }
        }
    }

    /// Evaluates `plan` over the snapshot's tree in the already-resolved
    /// DOM traversal `mode`.
    fn evaluate_dom(
        &self,
        source: &LoadedSource,
        plan: &CompiledMfa,
        mode: ExecMode,
        observer: &mut dyn EvalObserver,
        budget: &WorkBudget,
    ) -> Result<Answer, EngineError> {
        let tax = if self.config.use_tax {
            source.tax.as_deref()
        } else {
            None
        };
        let options = DomOptions { tax };
        let (nodes, stats) =
            evaluate_mfa_plan_budgeted(&source.doc, plan, &options, mode, observer, budget)
                .map_err(|interrupt| EngineError::from(interrupt.kind))?;
        Ok(Answer {
            nodes: nodes.into_vec(),
            stats,
            plan_cached: false,
            mode,
            xml: None,
        })
    }

    /// Runs `plans` over one sequential scan of the snapshot's buffer —
    /// the text its document was parsed from, so streamed node ids are
    /// the snapshot's DOM ids.
    fn scan_source(
        &self,
        source: &LoadedSource,
        plans: &[(&CompiledMfa, StreamOptions)],
        observers: &mut [&mut dyn EvalObserver],
        budget: &WorkBudget,
    ) -> Result<BatchOutcome, EngineError> {
        evaluate_batch_stream_plans_budgeted(
            source.buffer.as_bytes(),
            plans,
            &self.vocab,
            observers,
            budget,
        )
        .map_err(driver_error)
    }
}

/// Reads a document file into the buffer the loader parses.
pub(crate) fn read_text(path: &FsPath) -> Result<Arc<str>, EngineError> {
    Ok(std::fs::read_to_string(path).map_err(XmlError::Io)?.into())
}

/// Maps a streaming-driver failure onto the engine error surface: parse
/// failures keep their detail, budget interrupts collapse to the opaque
/// deadline/cancel variants.
fn driver_error(e: DriverError) -> EngineError {
    match e {
        DriverError::Xml(e) => EngineError::Xml(e),
        DriverError::Interrupted(interrupt) => interrupt.kind.into(),
    }
}

/// Serializes each answer node through `group`'s view so hidden
/// descendants never reach the user (stream mode buffers raw source
/// subtrees; serving them to a view user verbatim would leak).
fn render_view_xml(
    entry: &Arc<DocumentEntry>,
    group: &str,
    source: &LoadedSource,
    nodes: &[NodeId],
) -> Result<Vec<String>, EngineError> {
    let spec = entry.view_slot(group)?.0;
    nodes
        .iter()
        .map(|&n| {
            let fragment = materialize_fragment(&spec, &source.doc, n)?;
            Ok(fragment.doc.to_xml())
        })
        .collect()
}

impl Session {
    pub(crate) fn new(engine: Arc<Engine>, entry: Arc<DocumentEntry>, user: User) -> Self {
        Session {
            engine,
            entry,
            user,
        }
    }

    /// The session's user.
    pub fn user(&self) -> &User {
        &self.user
    }

    /// The catalog name of the document this session queries.
    pub fn document_name(&self) -> &str {
        self.entry.name()
    }

    /// The engine this session belongs to.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Answers a Regular XPath query. Group sessions are rewritten through
    /// their view; admin sessions run directly on the document.
    pub fn query(&self, query: &str) -> Result<Answer, EngineError> {
        self.query_observed(query, &mut NoopObserver)
    }

    /// Like [`Session::query`], reporting evaluation events to `observer`
    /// (the iSMOQE monitoring hook).
    pub fn query_observed(
        &self,
        query: &str,
        observer: &mut dyn EvalObserver,
    ) -> Result<Answer, EngineError> {
        Ok(self
            .query_with_source(query, observer, &WorkBudget::unlimited())?
            .0)
    }

    /// The shared query path: plan (cached), take ONE source snapshot,
    /// evaluate against it, and re-render stream answers through the view
    /// using that same snapshot. Answer node ids are only meaningful
    /// relative to the returned snapshot's document, so serialization must
    /// use it too — a concurrent reload must never mix documents.
    fn query_with_source(
        &self,
        query: &str,
        observer: &mut dyn EvalObserver,
        budget: &WorkBudget,
    ) -> Result<(Answer, Arc<crate::catalog::LoadedSource>), EngineError> {
        let result = self.query_with_source_inner(query, observer, budget);
        self.engine
            .tenants
            .record_query(&self.user, result.as_ref().map(|(a, _)| a));
        result
    }

    fn query_with_source_inner(
        &self,
        query: &str,
        observer: &mut dyn EvalObserver,
        budget: &WorkBudget,
    ) -> Result<(Answer, Arc<crate::catalog::LoadedSource>), EngineError> {
        let (mfa, cached) = self.engine.plan_tracked(&self.entry, &self.user, query)?;
        let source = self.entry.snapshot()?;
        let mut answer = self
            .engine
            .evaluate_snapshot_budgeted(&source, &mfa, observer, budget)?;
        answer.plan_cached = cached;
        // Stream mode buffers raw source subtrees; for group sessions
        // re-render each answer through the view so hidden descendants
        // never reach the user.
        if answer.xml.is_some() {
            if let User::Group(g) = &self.user {
                answer.xml = Some(render_view_xml(&self.entry, g, &source, &answer.nodes)?);
            }
        }
        Ok((answer, source))
    }

    /// Answers a whole batch of queries against one snapshot of the
    /// document. Answers come back in query order, each identical to what
    /// [`Session::query`] would have returned. DOM engines answer from the
    /// snapshot's tree (jump plans share one frontier sweep; `events` is
    /// 0); streaming engines share one parse of the buffer (all plans are
    /// fed the same pull-parser events, see [`smoqe_hype::batch`]) and
    /// report its event count.
    pub fn query_batch(&self, queries: &[&str]) -> Result<BatchAnswer, EngineError> {
        Ok(self
            .query_batch_budgeted(queries, &WorkBudget::unlimited())?
            .0)
    }

    /// [`Session::query_batch`] under a [`WorkBudget`] shared by every
    /// plan in the batch (one snapshot, one deadline), returning the
    /// snapshot the answers were computed on.
    fn query_batch_budgeted(
        &self,
        queries: &[&str],
        budget: &WorkBudget,
    ) -> Result<(BatchAnswer, Option<Arc<LoadedSource>>), EngineError> {
        let result = self.query_batch_inner(queries, budget);
        self.engine.tenants.record_batch(
            &self.user,
            queries.len(),
            result.as_ref().map(|(batch, _)| batch),
        );
        result
    }

    fn query_batch_inner(
        &self,
        queries: &[&str],
        budget: &WorkBudget,
    ) -> Result<(BatchAnswer, Option<Arc<LoadedSource>>), EngineError> {
        let mut parts = Vec::with_capacity(queries.len());
        for query in queries {
            let (mfa, cached) = self.engine.plan_tracked(&self.entry, &self.user, query)?;
            parts.push((self.user.clone(), mfa, cached));
        }
        self.engine
            .evaluate_batch_parts(&self.entry, &parts, budget)
    }

    /// Like [`Session::query`], with `xml` always filled **safely for
    /// this principal**: raw source subtrees for admin sessions, the view
    /// image (hidden descendants filtered) for group sessions — the
    /// answer and its serialization come from one source snapshot. This
    /// is the evaluation the network server runs for the `Query` op, so a
    /// remote client and a local caller see the same bytes.
    pub fn query_serialized(&self, query: &str) -> Result<Answer, EngineError> {
        self.query_serialized_budgeted(query, &WorkBudget::unlimited())
    }

    /// [`Session::query_serialized`] under a [`WorkBudget`] — the serving
    /// path for requests carrying a deadline or a cancel token. An
    /// interrupted evaluation surfaces the opaque
    /// [`EngineError::DeadlineExceeded`] / [`EngineError::Cancelled`]
    /// within one budget check interval of the trigger.
    pub fn query_serialized_budgeted(
        &self,
        query: &str,
        budget: &WorkBudget,
    ) -> Result<Answer, EngineError> {
        let (mut answer, source) = self.query_with_source(query, &mut NoopObserver, budget)?;
        if answer.xml.is_none() {
            answer.xml = Some(match &self.user {
                User::Admin => answer.serialize_with(&source.doc),
                User::Group(g) => render_view_xml(&self.entry, g, &source, &answer.nodes)?,
            });
        }
        Ok(answer)
    }

    /// Like [`Session::query_batch`], with every answer's `xml` filled
    /// safely for this principal (see [`Session::query_serialized`]).
    /// Streaming batches already serialize during the scan; DOM batches
    /// render afterwards from the snapshot they were answered on.
    pub fn query_batch_serialized(&self, queries: &[&str]) -> Result<BatchAnswer, EngineError> {
        self.query_batch_serialized_budgeted(queries, &WorkBudget::unlimited())
    }

    /// [`Session::query_batch_serialized`] under a [`WorkBudget`] shared
    /// by the whole batch.
    pub fn query_batch_serialized_budgeted(
        &self,
        queries: &[&str],
        budget: &WorkBudget,
    ) -> Result<BatchAnswer, EngineError> {
        let (mut batch, source) = self.query_batch_budgeted(queries, budget)?;
        if let Some(source) = source {
            for answer in &mut batch.answers {
                if answer.xml.is_none() {
                    answer.xml = Some(match &self.user {
                        User::Admin => answer.serialize_with(&source.doc),
                        User::Group(g) => render_view_xml(&self.entry, g, &source, &answer.nodes)?,
                    });
                }
            }
        }
        Ok(batch)
    }

    /// The compiled/rewritten (and possibly cached) MFA for a query, for
    /// inspection.
    pub fn plan(&self, query: &str) -> Result<Arc<Mfa>, EngineError> {
        self.engine.plan_on(&self.entry, &self.user, query)
    }

    /// Applies one update statement (`insert <f> into|before|after p`,
    /// `delete p`, `replace p with <f>`) **subject to this session's
    /// access policy**.
    ///
    /// Admin sessions mutate the document directly. Group sessions
    /// resolve the target path against their security view, so an update
    /// can only ever touch nodes the session may read; a statement whose
    /// target is hidden, conditionally hidden, or non-existent fails with
    /// the same opaque [`EngineError::UpdateDenied`] — denials do not
    /// reveal whether anything matched. Accepted updates incrementally
    /// patch the TAX index, bump only this document's generation (its
    /// write version; every cached plan stays valid) and never block
    /// concurrent readers, which finish on their pre-update snapshot.
    pub fn update(&self, update: &str) -> Result<UpdateReport, EngineError> {
        let mut reports = self
            .engine
            .apply_updates_on(&self.entry, &self.user, &[update])?;
        Ok(reports.pop().expect("one statement yields one report"))
    }

    /// Applies a sequence of update statements **transactionally** under
    /// this session's policy: each statement resolves against the
    /// document (and view) as left by the previous one, and any failure —
    /// including a denial of a later statement — installs nothing (see
    /// [`DocHandle::update_batch`] for the admin counterpart).
    pub fn update_batch(&self, updates: &[&str]) -> Result<Vec<UpdateReport>, EngineError> {
        self.engine
            .apply_updates_on(&self.entry, &self.user, updates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{hospital, org};

    fn engine_with_sample() -> Arc<Engine> {
        let engine = Engine::with_defaults();
        engine.load_dtd(smoqe_xml::HOSPITAL_DTD).unwrap();
        engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
        engine
            .register_policy("researchers", smoqe_view::HOSPITAL_POLICY)
            .unwrap();
        engine
    }

    #[test]
    fn admin_sees_everything() {
        let engine = engine_with_sample();
        let admin = engine.session(User::Admin);
        let names = admin.query("hospital/patient/pname").unwrap();
        assert!(names.len() >= 2);
    }

    #[test]
    fn group_queries_are_rewritten() {
        let engine = engine_with_sample();
        let session = engine.session(User::Group("researchers".into()));
        // pname is hidden from the view.
        assert!(session.query("//pname").unwrap().is_empty());
        // treatments of autism patients are visible.
        let meds = session
            .query("hospital/patient/treatment/medication")
            .unwrap();
        assert!(!meds.is_empty());
    }

    #[test]
    fn unknown_group_is_an_error() {
        let engine = engine_with_sample();
        let session = engine.session(User::Group("nosuch".into()));
        assert!(matches!(
            session.query("hospital"),
            Err(EngineError::UnknownGroup(_))
        ));
    }

    #[test]
    fn tax_round_trip_through_engine() {
        let engine = engine_with_sample();
        engine.build_tax_index().unwrap();
        let dir = std::env::temp_dir().join("smoqe-core-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.tax");
        engine.save_tax_index(&path).unwrap();
        engine.load_tax_index(&path).unwrap();
        assert!(engine.tax_index().is_some());
        std::fs::remove_file(&path).ok();
        // Query still correct with the loaded index.
        let admin = engine.session(User::Admin);
        assert!(!admin.query("//medication").unwrap().is_empty());
    }

    #[test]
    fn stream_mode_agrees_with_dom_mode() {
        let dom = engine_with_sample();
        let stream = Engine::new(EngineConfig::streaming());
        stream.load_dtd(smoqe_xml::HOSPITAL_DTD).unwrap();
        stream.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
        stream
            .register_policy("researchers", smoqe_view::HOSPITAL_POLICY)
            .unwrap();
        for q in ["//medication", "hospital/patient/treatment"] {
            let a = dom
                .session(User::Group("researchers".into()))
                .query(q)
                .unwrap();
            let b = stream
                .session(User::Group("researchers".into()))
                .query(q)
                .unwrap();
            assert_eq!(a.nodes, b.nodes, "query {q}");
            assert!(b.xml.is_some());
        }
    }

    #[test]
    fn hand_authored_view_spec_mode() {
        let engine = engine_with_sample();
        engine
            .register_view_spec(
                "meds-only",
                "<!ELEMENT hospital (medication*)>\n\
                 <!ELEMENT medication (#PCDATA)>\n\
                 sigma(hospital, medication) = patient/visit/treatment/medication\n",
            )
            .unwrap();
        let session = engine.session(User::Group("meds-only".into()));
        let meds = session.query("hospital/medication").unwrap();
        assert_eq!(meds.len(), 4); // all four medications in the sample
        assert!(session.query("//patient").unwrap().is_empty());
    }

    #[test]
    fn plan_exposes_rewritten_mfa() {
        let engine = engine_with_sample();
        let session = engine.session(User::Group("researchers".into()));
        let mfa = session.plan("hospital/patient/treatment").unwrap();
        // The rewritten automaton navigates through hidden `visit` nodes.
        let vocab = engine.vocabulary();
        let visit = vocab.lookup("visit").unwrap();
        let uses_visit = mfa.nfas().any(|(_, nfa)| {
            nfa.states().any(|s| {
                nfa.transitions(s).iter().any(|t| {
                    t.test.matches(visit) && !matches!(t.test, smoqe_automata::LabelTest::Wildcard)
                })
            })
        });
        assert!(uses_visit, "rewritten plan should traverse visit");
    }

    #[test]
    fn loading_new_document_invalidates_index() {
        let engine = engine_with_sample();
        engine.build_tax_index().unwrap();
        assert!(engine.tax_index().is_some());
        engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
        assert!(engine.tax_index().is_none());
    }

    #[test]
    fn catalog_serves_multiple_documents_and_groups() {
        let engine = Engine::with_defaults();
        let hosp = engine.open_document("hospital");
        hosp.load_dtd(hospital::DTD).unwrap();
        hosp.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
        hosp.register_policy("researchers", hospital::POLICY)
            .unwrap();
        let orgdoc = engine.open_document("org");
        orgdoc.load_dtd(org::DTD).unwrap();
        orgdoc.load_document(org::SAMPLE_DOCUMENT).unwrap();
        orgdoc.register_policy("staff", org::POLICY).unwrap();

        assert_eq!(engine.document_names(), vec!["hospital", "org"]);

        let meds = hosp
            .session(User::Group("researchers".into()))
            .query("//medication")
            .unwrap();
        assert!(!meds.is_empty());
        let salaries = orgdoc
            .session(User::Group("staff".into()))
            .query("//salary")
            .unwrap();
        assert!(salaries.is_empty(), "salaries are confidential");
        // Groups are per document: the hospital group does not exist on
        // the org document.
        assert!(matches!(
            engine
                .session_on("org", User::Group("researchers".into()))
                .unwrap()
                .query("//emp"),
            Err(EngineError::UnknownGroup(_))
        ));
        // Dropping a document forgets it.
        assert!(engine.drop_document("org"));
        assert!(engine.session_on("org", User::Admin).is_err());
        assert!(matches!(
            engine.document_handle("org"),
            Err(EngineError::UnknownDocument(_))
        ));
    }

    #[test]
    fn repeated_queries_hit_the_plan_cache() {
        let engine = engine_with_sample();
        let session = engine.session(User::Group("researchers".into()));
        let first = session.query("//medication").unwrap();
        assert!(!first.plan_cached);
        let second = session.query("//medication").unwrap();
        assert!(second.plan_cached);
        assert_eq!(first.nodes, second.nodes);
        let m = engine.cache_metrics();
        assert!(m.hits >= 1, "{m:?}");
        assert!(m.entries >= 1, "{m:?}");
    }

    #[test]
    fn document_replacement_keeps_cached_plans_valid() {
        let engine = engine_with_sample();
        let session = engine.session(User::Admin);
        session.query("//medication").unwrap();
        assert!(session.query("//medication").unwrap().plan_cached);
        engine
            .load_document(
                "<hospital><patient><pname>Dee</pname><visit><treatment>\
                 <medication>cold</medication></treatment><date>d</date></visit>\
                 </patient></hospital>",
            )
            .unwrap();
        let after = session.query("//medication").unwrap();
        assert!(after.plan_cached, "a reload must keep the cached plan");
        // The cached plan answers the new document, not the old one.
        let doc = engine.document().unwrap();
        let oracle = smoqe_rxpath::evaluate(
            &doc,
            &parse_path("//medication", engine.vocabulary()).unwrap(),
        );
        assert_eq!(after.nodes, oracle.into_vec());
        assert_eq!(
            after.serialize_with(&doc),
            vec!["<medication>cold</medication>"]
        );
        assert_eq!(engine.cache_metrics().invalidations, 0);
    }

    #[test]
    fn view_reregistration_invalidates_only_that_group() {
        let engine = engine_with_sample();
        let researchers = engine.session(User::Group("researchers".into()));
        let admin = engine.session(User::Admin);
        researchers.query("//medication").unwrap();
        admin.query("//medication").unwrap();
        engine
            .register_policy("researchers", hospital::POLICY)
            .unwrap();
        assert!(
            !researchers.query("//medication").unwrap().plan_cached,
            "re-registration must invalidate the group's plans"
        );
        assert!(
            admin.query("//medication").unwrap().plan_cached,
            "admin plans are untouched by a view change"
        );
    }

    #[test]
    fn query_batch_agrees_with_serial_queries() {
        for config in [EngineConfig::default(), EngineConfig::streaming()] {
            let engine = Engine::new(config);
            engine.load_dtd(smoqe_xml::HOSPITAL_DTD).unwrap();
            engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
            engine
                .register_policy("researchers", smoqe_view::HOSPITAL_POLICY)
                .unwrap();
            let session = engine.session(User::Group("researchers".into()));
            let queries: Vec<&str> = hospital::VIEW_QUERIES.iter().map(|(_, q)| *q).collect();
            let batch = session.query_batch(&queries).unwrap();
            assert_eq!(batch.answers.len(), queries.len());
            for (q, batched) in queries.iter().zip(&batch.answers) {
                let serial = session.query(q).unwrap();
                assert_eq!(batched.nodes, serial.nodes, "batched `{q}` diverged");
            }
            if config.mode == DocumentMode::Stream {
                // The scan is shared: a batch of one reports the same
                // event count as the full batch.
                let single = session.query_batch(&queries[..1]).unwrap();
                assert_eq!(batch.events, single.events, "batch must not re-scan");
            } else {
                assert_eq!(batch.events, 0, "DOM batches answer from the snapshot");
            }
        }
    }

    #[test]
    fn query_batch_filters_view_xml_in_stream_mode() {
        let engine = Engine::new(EngineConfig::streaming());
        engine.load_dtd(org::DTD).unwrap();
        engine.load_document(org::SAMPLE_DOCUMENT).unwrap();
        engine.register_policy("staff", org::POLICY).unwrap();
        let session = engine.session(User::Group("staff".into()));
        let batch = session.query_batch(&["//review", "//ename"]).unwrap();
        let reviews = batch.answers[0].xml.as_ref().unwrap();
        assert_eq!(reviews.len(), 2);
        for xml in reviews {
            assert!(xml.contains("public") && !xml.contains("private"));
        }
    }

    #[test]
    fn cross_session_batch_spans_groups_but_not_documents() {
        let engine = Engine::with_defaults();
        let hosp = engine.open_document("hospital");
        hosp.load_dtd(hospital::DTD).unwrap();
        hosp.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
        hosp.register_policy("researchers", hospital::POLICY)
            .unwrap();
        let admin = hosp.session(User::Admin);
        let researcher = hosp.session(User::Group("researchers".into()));
        let requests: Vec<(&Session, &str)> = vec![
            (&admin, "//pname"),
            (&researcher, "//pname"),
            (&admin, "//medication"),
            (&researcher, "//medication"),
        ];
        let batch = engine.evaluate_batch(&requests).unwrap();
        for ((session, q), batched) in requests.iter().zip(&batch.answers) {
            assert_eq!(
                batched.nodes,
                session.query(q).unwrap().nodes,
                "cross-session batch diverged on `{q}` as {:?}",
                session.user()
            );
        }
        // Admin sees names, the researcher view hides them — in one scan.
        assert!(!batch.answers[0].is_empty());
        assert!(batch.answers[1].is_empty());

        // A second document cannot ride the same scan.
        let orgdoc = engine.open_document("org");
        org::install_sample(&orgdoc).unwrap();
        let org_admin = orgdoc.session(User::Admin);
        assert!(matches!(
            engine.evaluate_batch(&[(&admin, "//pname"), (&org_admin, "//ename")]),
            Err(EngineError::BatchMismatch)
        ));
        // Nor can a session of a different engine.
        let other = Engine::with_defaults();
        other.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
        let foreign = other.session(User::Admin);
        assert!(matches!(
            engine.evaluate_batch(&[(&admin, "//pname"), (&foreign, "//pname")]),
            Err(EngineError::BatchMismatch)
        ));

        let empty = engine.evaluate_batch(&[]).unwrap();
        assert!(empty.answers.is_empty());
        assert_eq!(empty.events, 0);
    }

    #[test]
    fn admin_updates_mutate_the_document() {
        let engine = engine_with_sample();
        let doc = engine.document_handle(DEFAULT_DOCUMENT).unwrap();
        let admin = engine.session(User::Admin);
        let before = admin.query("//patient").unwrap().len();
        let report = doc
            .update(
                "insert <patient><pname>Zoe</pname>\
                 <visit><treatment><medication>autism</medication></treatment>\
                 <date>2006-06-01</date></visit></patient> into hospital",
            )
            .unwrap();
        assert_eq!(report.applied, 1);
        assert!(report.nodes_after > report.nodes_before);
        assert_eq!(admin.query("//patient").unwrap().len(), before + 1);
        assert_eq!(
            admin
                .query("hospital/patient[pname = 'Zoe']")
                .unwrap()
                .len(),
            1
        );

        // delete + replace round out the primitives.
        doc.update("replace hospital/patient[pname = 'Zoe']/pname with <pname>Zed</pname>")
            .unwrap();
        assert!(admin.query("//patient[pname = 'Zoe']").unwrap().is_empty());
        doc.update("delete hospital/patient[pname = 'Zed']")
            .unwrap();
        assert_eq!(admin.query("//patient").unwrap().len(), before);
    }

    #[test]
    fn updates_are_dtd_checked() {
        let engine = engine_with_sample();
        let doc = engine.document_handle(DEFAULT_DOCUMENT).unwrap();
        // A patient inside a treatment violates the hospital DTD.
        let err = doc
            .update("insert <patient><pname>X</pname></patient> into //treatment")
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Update(smoqe_update::UpdateError::Schema(_))
        ));
        // Nothing was installed.
        let admin = engine.session(User::Admin);
        assert!(admin.query("//treatment/patient").unwrap().is_empty());
    }

    #[test]
    fn group_updates_go_through_the_view() {
        let engine = engine_with_sample();
        let session = engine.session(User::Group("researchers".into()));
        // Accessible target (a visible medication), view-side path.
        let report = session
            .update("replace hospital/patient/treatment/medication with <medication>autism</medication>")
            .unwrap();
        assert!(report.applied >= 1);
        // Hidden target and non-existent target: the SAME opaque denial.
        let hidden = session.update("delete //pname").unwrap_err();
        let missing = session.update("delete //nonexistent-thing").unwrap_err();
        assert!(matches!(hidden, EngineError::UpdateDenied));
        assert!(matches!(missing, EngineError::UpdateDenied));
        assert_eq!(hidden.to_string(), missing.to_string());
        // Schema violations are opaque for groups too.
        let invalid = session
            .update("insert <medication>x</medication> into hospital/patient/treatment")
            .unwrap_err();
        assert!(matches!(invalid, EngineError::UpdateDenied));
        // The document is intact after every denial.
        let admin = engine.session(User::Admin);
        assert!(!admin.query("//pname").unwrap().is_empty());
    }

    #[test]
    fn update_bumps_only_the_affected_documents_generation() {
        let engine = Engine::with_defaults();
        let hosp = engine.open_document("hospital");
        hospital::install_sample(&hosp).unwrap();
        let orgdoc = engine.open_document("org");
        org::install_sample(&orgdoc).unwrap();
        let hosp_admin = hosp.session(User::Admin);
        let org_admin = orgdoc.session(User::Admin);
        hosp_admin.query("//medication").unwrap();
        org_admin.query("//salary").unwrap();
        assert!(hosp_admin.query("//medication").unwrap().plan_cached);
        assert!(org_admin.query("//salary").unwrap().plan_cached);

        let before = engine.cache_metrics();
        let (hosp_generation, org_generation) = (hosp.generation(), orgdoc.generation());
        let meds_before = hosp_admin.query("//medication").unwrap().len();
        hosp.update("delete hospital/patient[pname = 'Bob']")
            .unwrap();
        assert!(hosp.generation() > hosp_generation);
        assert_eq!(orgdoc.generation(), org_generation);

        let meds = hosp_admin.query("//medication").unwrap();
        assert!(meds.plan_cached, "an update must keep the cached plan");
        assert_eq!(
            meds.len(),
            meds_before - 1,
            "the cached plan answers the edited document (Bob's headache is gone)"
        );
        assert!(
            org_admin.query("//salary").unwrap().plan_cached,
            "the other document's plans must survive"
        );
        let after = engine.cache_metrics();
        assert_eq!(after.invalidations, before.invalidations);
        assert_eq!(after.misses, before.misses);
    }

    #[test]
    fn update_patches_the_tax_index_incrementally() {
        let engine = engine_with_sample();
        engine.build_tax_index().unwrap();
        let doc = engine.document_handle(DEFAULT_DOCUMENT).unwrap();
        let report = doc
            .update("insert <visit><treatment><test>mri</test></treatment><date>d</date></visit> into hospital/patient[pname = 'Bob']")
            .unwrap();
        assert!(report.tax_patched, "the index must ride along");
        let tax = engine.tax_index().expect("index survives the update");
        let current = engine.document().unwrap();
        assert_eq!(tax.node_count(), current.node_count());
        // The patched index equals a rebuild, node for node.
        let rebuilt = TaxIndex::build(&current);
        for n in current.all_nodes() {
            assert_eq!(
                tax.descendant_labels(n).iter().collect::<Vec<_>>(),
                rebuilt.descendant_labels(n).iter().collect::<Vec<_>>()
            );
        }
        // And TAX-pruned answers stay correct.
        let admin = engine.session(User::Admin);
        assert_eq!(admin.query("//test").unwrap().len(), 2);
    }

    #[test]
    fn update_batch_is_all_or_nothing() {
        let engine = engine_with_sample();
        let doc = engine.document_handle(DEFAULT_DOCUMENT).unwrap();
        let before = engine.document().unwrap().to_xml();
        let err = doc
            .update_batch(&[
                "delete hospital/patient[pname = 'Bob']",
                "delete //no-such-element",
            ])
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Update(smoqe_update::UpdateError::NoTarget)
        ));
        assert_eq!(
            engine.document().unwrap().to_xml(),
            before,
            "a failing batch must install nothing"
        );
        // A good batch applies in order: the second statement sees the
        // first one's effect.
        let reports = doc
            .update_batch(&[
                "insert <patient><pname>New</pname><visit><treatment><test>blood</test>\
                 </treatment><date>d</date></visit></patient> into hospital",
                "replace hospital/patient[pname = 'New']/pname with <pname>Renamed</pname>",
            ])
            .unwrap();
        assert_eq!(reports.len(), 2);
        let admin = engine.session(User::Admin);
        assert_eq!(
            admin.query("//patient[pname = 'Renamed']").unwrap().len(),
            1
        );
        assert!(admin.query("//patient[pname = 'New']").unwrap().is_empty());
    }

    #[test]
    fn updates_serve_stream_mode_sessions_too() {
        let engine = Engine::new(EngineConfig::streaming());
        engine.load_dtd(smoqe_xml::HOSPITAL_DTD).unwrap();
        engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
        engine
            .register_policy("researchers", smoqe_view::HOSPITAL_POLICY)
            .unwrap();
        engine
            .update("delete hospital/patient[pname = 'Cal']")
            .unwrap();
        // Streaming needs a raw source: the update must have regenerated it.
        let admin = engine.session(User::Admin);
        let answer = admin.query("//patient").unwrap();
        assert_eq!(answer.len(), 3); // Ann, Pat (nested), Bob
        assert!(answer.xml.is_some(), "stream mode serializes answers");
    }

    #[test]
    fn update_on_an_empty_entry_is_no_document() {
        let engine = Engine::with_defaults();
        let doc = engine.open_document("empty");
        assert!(matches!(
            doc.update("delete //x"),
            Err(EngineError::NoDocument)
        ));
    }

    #[test]
    fn auto_mode_jumps_on_selective_queries_and_reports_it() {
        let engine = Engine::with_defaults();
        hospital::dtd(engine.vocabulary());
        let doc = hospital::generate_document(engine.vocabulary(), 9, 4_000);
        engine.load_document_tree(doc).unwrap();
        engine.build_tax_index().unwrap();
        let admin = engine.session(User::Admin);
        // `test` is rare in the generated workload: auto must jump, and
        // the answer must match an explicit scan-mode engine.
        let jumped = admin.query("//test").unwrap();
        assert_eq!(jumped.mode, ExecMode::Jump, "auto should pick jump");
        let scan_engine = Engine::new(EngineConfig {
            eval_mode: crate::config::EvalMode::Scan,
            ..EngineConfig::default()
        });
        hospital::dtd(scan_engine.vocabulary());
        let doc2 = hospital::generate_document(scan_engine.vocabulary(), 9, 4_000);
        scan_engine.load_document_tree(doc2).unwrap();
        scan_engine.build_tax_index().unwrap();
        let scanned = scan_engine.session(User::Admin).query("//test").unwrap();
        assert_eq!(scanned.mode, ExecMode::Compiled);
        assert_eq!(jumped.nodes, scanned.nodes);
        assert!(
            jumped.stats.nodes_visited <= scanned.stats.nodes_visited,
            "jump visited {} > scan {}",
            jumped.stats.nodes_visited,
            scanned.stats.nodes_visited
        );
        // `//patient` blankets the document: auto must keep scanning.
        let unselective = admin.query("//patient").unwrap();
        assert_eq!(unselective.mode, ExecMode::Compiled);
    }

    #[test]
    fn jump_mode_falls_back_without_an_index_and_runs_guarded_plans() {
        let engine = Engine::new(EngineConfig {
            eval_mode: crate::config::EvalMode::Jump,
            ..EngineConfig::default()
        });
        engine.load_dtd(smoqe_xml::HOSPITAL_DTD).unwrap();
        engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
        engine
            .register_policy("researchers", smoqe_view::HOSPITAL_POLICY)
            .unwrap();
        let admin = engine.session(User::Admin);
        // No TAX index yet: no positional lists, so jump cannot engage.
        assert_eq!(admin.query("//test").unwrap().mode, ExecMode::Compiled);
        engine.build_tax_index().unwrap();
        assert_eq!(admin.query("//test").unwrap().mode, ExecMode::Jump);
        // Predicated plans jump too now (guard-stripped DFA + exact
        // re-verification at candidates); answers stay correct.
        let guarded = admin.query("hospital/patient[pname = 'Ann']").unwrap();
        assert_eq!(guarded.mode, ExecMode::Jump);
        assert_eq!(guarded.len(), 1);
        let scan = Engine::new(EngineConfig {
            eval_mode: crate::config::EvalMode::Scan,
            ..EngineConfig::default()
        });
        scan.load_dtd(smoqe_xml::HOSPITAL_DTD).unwrap();
        scan.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
        let reference = scan
            .session(User::Admin)
            .query("hospital/patient[pname = 'Ann']")
            .unwrap();
        assert_eq!(reference.mode, ExecMode::Compiled);
        assert_eq!(guarded.nodes, reference.nodes);
        // Rewritten (view) plans ride the same resolution transparently.
        let group = engine.session(User::Group("researchers".into()));
        let meds = group.query("//medication").unwrap();
        assert!(!meds.is_empty());
    }

    #[test]
    fn parallel_dom_batch_agrees_with_serial_and_merges_stats() {
        let queries: Vec<&str> = hospital::DOC_QUERIES.iter().map(|(_, q)| *q).collect();
        let serial = {
            let engine = engine_with_sample();
            engine.build_tax_index().unwrap();
            engine.session(User::Admin).query_batch(&queries).unwrap()
        };
        for threads in [1, 2, 4] {
            let engine = Engine::new(EngineConfig {
                eval_threads: threads,
                ..EngineConfig::default()
            });
            engine.load_dtd(smoqe_xml::HOSPITAL_DTD).unwrap();
            engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
            engine.build_tax_index().unwrap();
            let session = engine.session(User::Admin);
            let batch = session.query_batch(&queries).unwrap();
            assert_eq!(batch.events, 0, "DOM batches do not parse");
            assert_eq!(batch.answers.len(), serial.answers.len());
            for ((q, serial_answer), parallel_answer) in
                queries.iter().zip(&serial.answers).zip(&batch.answers)
            {
                assert_eq!(
                    parallel_answer.nodes, serial_answer.nodes,
                    "parallel batch diverged on `{q}` at {threads} threads"
                );
                // Each parallel answer equals what a lone query returns.
                assert_eq!(parallel_answer.nodes, session.query(q).unwrap().nodes);
            }
            let merged = batch.merged_stats();
            assert_eq!(
                merged.nodes_visited,
                batch
                    .answers
                    .iter()
                    .map(|a| a.stats.nodes_visited)
                    .sum::<usize>()
            );
            assert_eq!(merged.tree_passes, queries.len());
        }
    }

    #[test]
    fn single_thread_dom_batch_honours_cancel_and_deadline() {
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        // Check on every unit of work so the 2k-node document trips the
        // budget long before the batch could finish.
        let cancelled = WorkBudget {
            check_interval: 1,
            ..WorkBudget::with_cancel(Arc::new(AtomicBool::new(true)))
        };
        let expired = WorkBudget {
            check_interval: 1,
            ..WorkBudget::with_deadline(Instant::now() - Duration::from_secs(1))
        };
        // With TAX the selective plans share the jump frontier; without
        // it every plan runs the inline scan.
        for (tax, mode, query) in [
            (true, ExecMode::Jump, "//medication"),
            (
                false,
                ExecMode::Compiled,
                "hospital/patient/(parent/patient)*/visit",
            ),
        ] {
            let engine = Engine::new(EngineConfig {
                eval_threads: 1,
                ..EngineConfig::default()
            });
            hospital::dtd(engine.vocabulary());
            let doc = hospital::generate_document(engine.vocabulary(), 5, 2_000);
            engine.load_document_tree(doc).unwrap();
            if tax {
                engine.build_tax_index().unwrap();
            }
            let session = engine.session(User::Admin);
            let queries = [query, query];
            let full = session.query_batch(&queries).unwrap();
            assert!(full.answers.iter().all(|a| a.mode == mode && !a.is_empty()));
            assert!(matches!(
                session.query_batch_serialized_budgeted(&queries, &cancelled),
                Err(EngineError::Cancelled)
            ));
            assert!(matches!(
                session.query_batch_serialized_budgeted(&queries, &expired),
                Err(EngineError::DeadlineExceeded)
            ));
        }
    }

    #[test]
    fn loaded_tax_index_reattaches_the_positional_lists() {
        let engine = engine_with_sample();
        engine.build_tax_index().unwrap();
        let dir = std::env::temp_dir().join("smoqe-jump-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reattach.tax");
        engine.save_tax_index(&path).unwrap();
        engine.load_tax_index(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let tax = engine.tax_index().unwrap();
        assert!(
            tax.label_index().is_some(),
            "loading through the engine must rebuild the label index"
        );
        // And jump mode works on the loaded index.
        let jump_engine_answer = {
            let e2 = Engine::new(EngineConfig {
                eval_mode: crate::config::EvalMode::Jump,
                ..EngineConfig::default()
            });
            e2.load_dtd(smoqe_xml::HOSPITAL_DTD).unwrap();
            e2.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
            e2.build_tax_index().unwrap();
            e2.session(User::Admin).query("//test").unwrap()
        };
        assert_eq!(jump_engine_answer.mode, ExecMode::Jump);
        assert_eq!(
            engine.session(User::Admin).query("//test").unwrap().nodes,
            jump_engine_answer.nodes
        );
    }

    #[test]
    fn sessions_are_send_sync_and_clonable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
        assert_send_sync::<Engine>();
        assert_send_sync::<DocHandle>();
        let engine = engine_with_sample();
        let session = engine.session(User::Admin);
        let clone = session.clone();
        let handle = std::thread::spawn(move || clone.query("//medication").unwrap().len());
        let here = session.query("//medication").unwrap().len();
        assert_eq!(handle.join().unwrap(), here);
    }
}
