//! Durability: write-ahead logging, checkpoints and crash recovery.
//!
//! An engine constructed with [`Engine::recover`] is **durable**: every
//! catalog mutation — document loads, DTD swaps, policy/view
//! registrations, index builds, accepted updates, drops — appends a
//! checksummed, LSN-sequenced record to `wal.log` in the data directory
//! *before* the new snapshot is installed in memory (see [`wal`]), and
//! [`Engine::checkpoint`] (run periodically after
//! [`EngineConfig::checkpoint_every`](crate::config::EngineConfig)
//! accepted records, on graceful server drain, and at the end of every
//! recovery) captures the whole catalog into an atomically-renamed
//! snapshot file so the log stays short (see [`checkpoint`]).
//!
//! Recovery loads the newest valid checkpoint, replays the WAL tail
//! through the ordinary engine paths (an update record re-resolves its
//! targets through the same security view the original write used),
//! truncates a torn final record, and refuses with a typed error on
//! mid-log corruption and on a fallback to an older checkpoint that the
//! log cannot carry forward without a gap.
//!
//! ## The crash-consistency contract
//!
//! * WAL appends are flushed to the operating system (one `write(2)` per
//!   record) but **not** fsynced per record: a `kill -9` of the process
//!   loses nothing, while an operating-system crash or power failure may
//!   lose a suffix of accepted records. Checkpoints and clean shutdown
//!   fsync everything.
//! * Recovery always yields a **prefix-consistent** engine: the state
//!   equals the one produced by some prefix of the logged operations —
//!   never a torn document, never an index describing a different
//!   document (indexes are rebuilt through the same incremental-patch
//!   path that built them live).
//! * [`failpoints`] injects crashes at every write-path site so the
//!   fault-injection harness (`tests/fault_injection.rs`) can check that
//!   contract without killing the test process.

pub mod checkpoint;
pub mod failpoints;
pub mod wal;

use crate::catalog::ViewSource;
use crate::config::EngineConfig;
use crate::engine::{Engine, User};
use crate::error::EngineError;
use crate::sync::Mutex;
use checkpoint::{Checkpoint, CheckpointDoc, ViewKind};
use failpoints::{Failpoint, FailpointRegistry};
use smoqe_tax::TaxIndex;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use wal::{WalOp, WalWriter};

/// Name of the write-ahead log inside the data directory.
const WAL_FILE: &str = "wal.log";

/// A durability failure. Wrapped as
/// [`EngineError::Durability`](crate::error::EngineError) when it crosses
/// the engine API.
#[derive(Debug)]
pub enum DurError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// A *complete* WAL record mid-log failed its checksum or structure —
    /// distinct from a torn tail, which recovery silently truncates.
    Corrupt {
        /// Byte offset of the broken record in `wal.log`.
        offset: u64,
        /// What exactly was wrong.
        detail: String,
    },
    /// No checkpoint the log can carry forward: checkpoint files exist
    /// but none passes its checksum, or the WAL records after the loaded
    /// one have a gap or stop short of a newer, unreadable checkpoint.
    Checkpoint(String),
    /// The operation's WAL record would exceed the per-record ceiling
    /// that recovery enforces. The operation is refused before any bytes
    /// reach the log, so the log stays recoverable and the engine stays
    /// alive.
    RecordTooLarge {
        /// Encoded payload size the record would have had.
        size: u64,
        /// The enforced ceiling ([`wal::MAX_RECORD`]).
        limit: u64,
    },
    /// Replaying the record with this LSN failed against the recovered
    /// state — the log and the checkpoint disagree.
    Replay {
        /// LSN of the record that failed to replay.
        lsn: u64,
        /// The engine error the replay surfaced.
        detail: String,
    },
    /// An armed [`Failpoint`] fired here (fault injection only).
    Injected(&'static str),
    /// A previous injected crash or append failure killed this engine's
    /// durability; writes are refused until the directory is recovered.
    Crashed,
}

impl std::fmt::Display for DurError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurError::Io(e) => write!(f, "durability I/O error: {e}"),
            DurError::Corrupt { offset, detail } => {
                write!(f, "write-ahead log corrupt at byte {offset}: {detail}")
            }
            DurError::Checkpoint(detail) => write!(f, "checkpoint unreadable: {detail}"),
            DurError::RecordTooLarge { size, limit } => write!(
                f,
                "operation refused: its WAL record would be {size} bytes, \
                 over the {limit}-byte ceiling recovery enforces"
            ),
            DurError::Replay { lsn, detail } => {
                write!(f, "replay of WAL record {lsn} failed: {detail}")
            }
            DurError::Injected(name) => write!(f, "injected crash at failpoint '{name}'"),
            DurError::Crashed => write!(
                f,
                "durability layer is dead after a crash; recover the data directory"
            ),
        }
    }
}

impl std::error::Error for DurError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// The durable state attached to an [`Engine`] by [`Engine::recover`]:
/// the WAL writer, the failpoint registry, and the recovery epoch.
pub struct Durability {
    dir: PathBuf,
    failpoints: FailpointRegistry,
    writer: Mutex<WalWriter>,
    /// Serializes checkpointers (each takes every entry's write lock).
    checkpoint_serial: Mutex<()>,
    /// Set after an injected crash or an append failure: the on-disk log
    /// may end mid-state, so further durable writes are refused and the
    /// engine behaves like a dead process awaiting recovery.
    dead: AtomicBool,
    /// How many times this data directory has been recovered. Counters
    /// and the trace ring restart from zero on recovery; this marker
    /// makes the reset observable (a consumer seeing the epoch advance
    /// knows the zeros mean "recovered", not "idle").
    epoch: u64,
    records_since_checkpoint: AtomicU64,
}

impl Durability {
    /// The data directory this engine persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The recovery epoch (0 for a freshly initialized directory).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The fault-injection registry (armed from `SMOQE_FAILPOINTS` at
    /// recovery, or programmatically by tests).
    pub fn failpoints(&self) -> &FailpointRegistry {
        &self.failpoints
    }

    /// Whether an injected crash or append failure has killed this
    /// durability layer.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    fn die(&self, fp: Failpoint) -> DurError {
        self.dead.store(true, Ordering::Release);
        DurError::Injected(fp.name())
    }

    /// Appends one record. Called by the engine's write paths under the
    /// affected entry's write lock, so log order and install order agree
    /// per document; LSN order is fixed under the writer mutex.
    pub(crate) fn log(&self, op: WalOp) -> Result<(), DurError> {
        if self.is_dead() {
            return Err(DurError::Crashed);
        }
        if self.failpoints.fire(Failpoint::CrashBeforeAppend) {
            return Err(self.die(Failpoint::CrashBeforeAppend));
        }
        let result = self.writer.lock().append(op, &self.failpoints);
        match result {
            Ok(_lsn) => {
                self.records_since_checkpoint
                    .fetch_add(1, Ordering::Relaxed);
                if self.failpoints.fire(Failpoint::CrashAfterAppend) {
                    return Err(self.die(Failpoint::CrashAfterAppend));
                }
                Ok(())
            }
            Err(e) => {
                // A failed append may have left partial bytes at the log
                // tail; appending more would bury them mid-log and turn a
                // recoverable torn tail into corruption. Dead it is — with
                // one exception: an oversized record is refused before any
                // byte reaches the log, so the log is intact and the
                // engine keeps serving (only that operation fails).
                if !matches!(e, DurError::RecordTooLarge { .. }) {
                    self.dead.store(true, Ordering::Release);
                }
                Err(e)
            }
        }
    }
}

fn dur_err(e: DurError) -> EngineError {
    EngineError::Durability(e)
}

/// Refuses a recovery whose result would not be a prefix of the log. The
/// records replayed over the checkpoint at `base_lsn` must continue it
/// without a gap and reach `newest_named`, the LSN of the newest
/// checkpoint file. That file is newer than the loaded checkpoint only if
/// it failed its checksum; the log was truncated when it was written, so
/// without the records it covered the fallback would silently lose them.
fn check_replay_is_a_prefix(
    base_lsn: u64,
    newest_named: u64,
    records: &[wal::WalRecord],
) -> Result<(), DurError> {
    let mut reached = base_lsn;
    for record in records.iter().filter(|r| r.lsn > base_lsn) {
        if record.lsn != reached + 1 {
            return Err(DurError::Checkpoint(format!(
                "the log resumes at record {} after record {reached}: records {} to {} are lost",
                record.lsn,
                reached + 1,
                record.lsn - 1
            )));
        }
        reached = record.lsn;
    }
    if reached < newest_named {
        return Err(DurError::Checkpoint(format!(
            "the checkpoint at record {newest_named} is unreadable and the log \
             only reaches record {reached}"
        )));
    }
    Ok(())
}

impl Engine {
    /// Opens (creating if needed) the data directory `dir` and returns a
    /// **durable** engine: the latest valid checkpoint is loaded, the WAL
    /// tail is replayed through the ordinary engine paths, a torn final
    /// record is truncated, and from here on every catalog mutation is
    /// logged before it is installed. Fails with a typed
    /// [`EngineError::Durability`] on mid-log corruption, and when the
    /// newest checkpoint is unreadable and the log cannot replace it — a
    /// durable engine never serves a half-recovered state.
    ///
    /// Recovery ends with a fresh checkpoint, so the next boot replays
    /// nothing and the recovery epoch is persisted.
    pub fn recover(
        config: EngineConfig,
        dir: impl AsRef<Path>,
    ) -> Result<Arc<Engine>, EngineError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| dur_err(DurError::Io(e)))?;
        let (ckpt, newest_named) = match checkpoint::load_latest(dir).map_err(dur_err)? {
            Some((ckpt, newest_named)) => (Some(ckpt), newest_named),
            None => (None, 0),
        };
        let wal_path = dir.join(WAL_FILE);
        let had_wal = wal_path.exists();
        let scan = wal::scan_wal(&wal_path).map_err(dur_err)?;

        let base_lsn = ckpt.as_ref().map(|c| c.last_lsn).unwrap_or(0);
        check_replay_is_a_prefix(base_lsn, newest_named, &scan.records).map_err(dur_err)?;
        let had_state = ckpt.is_some() || had_wal;
        let epoch = match &ckpt {
            Some(c) => c.epoch + 1,
            None if had_state => 1,
            None => 0,
        };
        // LSNs start at 1 and never repeat, across checkpoints and
        // recoveries alike.
        let next_lsn = scan
            .records
            .last()
            .map(|r| r.lsn + 1)
            .unwrap_or(1)
            .max(base_lsn + 1);
        let writer = WalWriter::open(&wal_path, scan.valid_len, next_lsn).map_err(dur_err)?;

        let engine = Engine::new(config);
        if let Some(ckpt) = &ckpt {
            restore_checkpoint(&engine, ckpt)?;
        }
        for record in &scan.records {
            if record.lsn <= base_lsn {
                continue; // already reflected in the checkpoint
            }
            replay_record(&engine, &record.op).map_err(|e| {
                dur_err(DurError::Replay {
                    lsn: record.lsn,
                    detail: e.to_string(),
                })
            })?;
        }

        let durable = Arc::new(Durability {
            dir: dir.to_path_buf(),
            failpoints: FailpointRegistry::from_env(),
            writer: Mutex::new(writer),
            checkpoint_serial: Mutex::default(),
            dead: AtomicBool::new(false),
            epoch,
            records_since_checkpoint: AtomicU64::new(0),
        });
        engine
            .durable
            .set(durable)
            .unwrap_or_else(|_| unreachable!("fresh engine cannot be durable yet"));
        engine.checkpoint()?;
        Ok(engine)
    }

    /// The durable state, when this engine was built by
    /// [`Engine::recover`].
    pub fn durability(&self) -> Option<&Arc<Durability>> {
        self.durable.get()
    }

    /// The recovery epoch: 0 for an in-memory engine or a freshly
    /// initialized directory, incremented by every recovery of existing
    /// state. Load counters and the request trace restart from zero each
    /// epoch; consumers use the marker to tell "recovered" from "idle".
    pub fn recovery_epoch(&self) -> u64 {
        self.durable.get().map(|d| d.epoch()).unwrap_or(0)
    }

    /// Captures the whole catalog into a checkpoint file and, when no
    /// append raced the capture, empties the WAL. Returns the LSN the
    /// checkpoint covers, or `Ok(None)` for a non-durable engine.
    ///
    /// The capture takes every entry's write lock (in name order) and
    /// re-lists the catalog after reading the cut LSN, retrying until the
    /// locked set covers every entry — a consistent cut: no logged record
    /// can fall at or below the checkpoint's LSN without its document in
    /// the capture, even when documents are created concurrently. Readers
    /// are never blocked — they evaluate on `Arc` snapshots.
    pub fn checkpoint(&self) -> Result<Option<u64>, EngineError> {
        let Some(durable) = self.durable.get() else {
            return Ok(None);
        };
        if durable.is_dead() {
            return Err(dur_err(DurError::Crashed));
        }
        let _one = durable.checkpoint_serial.lock();
        // The cut is only consistent if every entry that could have logged
        // a record at or below `last_lsn` is locked during the capture. An
        // entry created *after* the listing is not — its loads could
        // append before we read the LSN, giving acknowledged records at or
        // below the cut with the document absent from the capture (and
        // lost when the log truncates). So: list, lock, read the LSN, then
        // re-list. Any append that beat the LSN read came from an entry
        // that was already in the catalog at that point, so a re-listing
        // that shows nothing outside the locked set proves the cut is
        // closed; otherwise release and retry (rare — a document was
        // created mid-capture).
        let (docs, last_lsn) = loop {
            let entries = self.catalog().entries_sorted();
            let guards: Vec<_> = entries.iter().map(|e| e.write_serial.lock()).collect();
            let last_lsn = durable.writer.lock().next_lsn() - 1;
            let covered = self
                .catalog()
                .entries_sorted()
                .iter()
                .all(|seen| entries.iter().any(|locked| Arc::ptr_eq(locked, seen)));
            if !covered {
                drop(guards);
                continue;
            }
            let mut docs = Vec::with_capacity(entries.len());
            for entry in &entries {
                if entry.is_dropped() {
                    continue; // dropped between listing and locking
                }
                let snapshot = entry.source.read().clone();
                let dtd_text = entry.dtd_text.read().clone().map(|t| t.to_string());
                let mut views: Vec<(String, ViewKind, String)> = entry
                    .views
                    .read()
                    .iter()
                    .map(|(group, slot)| {
                        let (kind, text) = match &slot.source {
                            ViewSource::Policy(t) => (ViewKind::Policy, t.to_string()),
                            ViewSource::Spec(t) => (ViewKind::Spec, t.to_string()),
                        };
                        (group.clone(), kind, text)
                    })
                    .collect();
                views.sort_by(|a, b| a.0.cmp(&b.0));
                let (xml, tax) = match &snapshot {
                    None => (None, Vec::new()),
                    Some(source) => {
                        let xml = source.buffer.to_string();
                        let mut tax_bytes = Vec::new();
                        if let Some(tax) = &source.tax {
                            tax.save(&mut tax_bytes, self.vocabulary())
                                .map_err(EngineError::Xml)?;
                        }
                        (Some(xml), tax_bytes)
                    }
                };
                docs.push(CheckpointDoc {
                    name: entry.name().to_string(),
                    generation: entry.generation(),
                    counter: entry.counter_value(),
                    dtd: dtd_text,
                    xml,
                    views,
                    tax,
                });
            }
            break (docs, last_lsn); // entry locks release here
        };
        let ckpt = Checkpoint {
            epoch: durable.epoch,
            last_lsn,
            docs,
        };
        // The file write happens outside the entry locks — the captured
        // state is all `Arc` clones and stays exactly the cut's.
        checkpoint::write_checkpoint(&durable.dir, &ckpt, &durable.failpoints).map_err(|e| {
            if matches!(e, DurError::Injected(_)) {
                durable.dead.store(true, Ordering::Release);
            }
            dur_err(e)
        })?;
        durable.records_since_checkpoint.store(0, Ordering::Relaxed);
        let mut writer = durable.writer.lock();
        if writer.next_lsn() == last_lsn + 1 {
            // No append raced the capture: every record is covered by the
            // checkpoint and the log can restart empty.
            writer.truncate_all().map_err(dur_err)?;
        } else {
            // Appends landed since the cut; keep them (replay skips
            // records at or below the checkpoint LSN) and fsync.
            writer.sync().map_err(dur_err)?;
        }
        Ok(Some(last_lsn))
    }

    /// Checkpoint when enough records have accumulated since the last one
    /// (the periodic cadence of the update path). Errors are left for the
    /// next durable operation to surface: the WAL itself is intact, so
    /// skipping a periodic checkpoint never loses data.
    pub(crate) fn maybe_checkpoint(&self) {
        if let Some(durable) = self.durable.get() {
            let every = self.config().checkpoint_every;
            if every > 0
                && !durable.is_dead()
                && durable.records_since_checkpoint.load(Ordering::Relaxed) >= every
            {
                let _ = self.checkpoint();
            }
        }
    }

    /// Appends `op` to the WAL when this engine is durable; a no-op
    /// otherwise. Called *before* the corresponding in-memory install,
    /// under the affected entry's write lock.
    pub(crate) fn durable_log(&self, op: WalOp) -> Result<(), EngineError> {
        match self.durable.get() {
            None => Ok(()),
            Some(durable) => durable.log(op).map_err(dur_err),
        }
    }
}

/// Rebuilds the catalog from a checkpoint. Runs before the durability
/// handle is attached, so nothing here re-logs.
fn restore_checkpoint(engine: &Arc<Engine>, ckpt: &Checkpoint) -> Result<(), EngineError> {
    for doc in &ckpt.docs {
        let entry = engine.catalog().entry_or_create(&doc.name);
        // Document before DTD: the checkpoint is a trusted capture of
        // state the engine already accepted, and the live engine permits
        // registering a DTD the installed document does not match
        // (`load_dtd_on` never revalidates). Restoring DTD-first would
        // re-validate in `load_document_on` and refuse that live-legal
        // state on every boot.
        if let Some(xml) = &doc.xml {
            engine.load_document_on(&entry, xml.as_str().into())?;
        }
        if let Some(dtd) = &doc.dtd {
            engine.load_dtd_on(&entry, dtd)?;
        }
        for (group, kind, text) in &doc.views {
            match kind {
                ViewKind::Policy => engine.register_policy_on(&entry, group, text)?,
                ViewKind::Spec => engine.register_view_spec_on(&entry, group, text)?,
            }
        }
        if !doc.tax.is_empty() {
            let snapshot = entry.snapshot()?;
            let mut tax =
                TaxIndex::load(&mut &doc.tax[..], engine.vocabulary()).map_err(EngineError::Xml)?;
            // The persisted format carries the descendant sets; the
            // positional/value label index rebuilds over the live tree.
            tax.attach_label_index(&snapshot.doc);
            engine.attach_tax_restored(&entry, &snapshot, Arc::new(tax));
        }
        // Restore the generation counters last: the loads above bumped
        // them from zero, the stored values are what sessions saw.
        entry.restore_counters(doc.generation, doc.counter);
    }
    Ok(())
}

/// Applies one WAL record to the recovering engine through the ordinary
/// mutation paths (the durability handle is not attached yet, so nothing
/// re-logs). Group updates re-resolve their targets through the group's
/// security view, exactly as the original write did.
fn replay_record(engine: &Arc<Engine>, op: &WalOp) -> Result<(), EngineError> {
    match op {
        WalOp::OpenDocument { doc } => {
            engine.catalog().entry_or_create(doc);
            Ok(())
        }
        WalOp::LoadDtd { doc, text } => {
            engine.load_dtd_on(&engine.catalog().entry_or_create(doc), text)
        }
        WalOp::LoadDocument { doc, xml } => {
            engine.load_document_on(&engine.catalog().entry_or_create(doc), xml.as_str().into())
        }
        WalOp::RegisterPolicy { doc, group, text } => {
            engine.register_policy_on(&engine.catalog().entry_or_create(doc), group, text)
        }
        WalOp::RegisterViewSpec { doc, group, text } => {
            engine.register_view_spec_on(&engine.catalog().entry_or_create(doc), group, text)
        }
        WalOp::BuildTaxIndex { doc } => engine
            .build_tax_index_on(&engine.catalog().entry_or_create(doc))
            .map(|_| ()),
        WalOp::Update {
            doc,
            group,
            statements,
        } => {
            let entry = engine.catalog().entry(doc)?;
            let user = match group {
                None => User::Admin,
                Some(g) => User::Group(g.clone()),
            };
            let refs: Vec<&str> = statements.iter().map(String::as_str).collect();
            engine.apply_updates_inner(&entry, &user, &refs).map(|_| ())
        }
        WalOp::DropDocument { doc } => {
            engine.drop_document_local(doc);
            Ok(())
        }
    }
}
