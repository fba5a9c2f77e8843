//! The durability subsystem end to end: WAL logging, checkpoints, and
//! crash recovery through [`Engine::recover`].
//!
//! The heart of the file is the torn-log sweep: a populated WAL is cut at
//! **every byte offset** and recovery must come back with exactly the
//! state of some prefix of the logged operations (monotonically growing
//! with the cut), never a torn document and never a panic. A proptest
//! flips random bits the same way: recovery either succeeds on a prefix
//! or refuses with a typed corruption error.

use proptest::prelude::*;
use smoqe::workloads::hospital;
use smoqe::{DurError, Engine, EngineConfig, EngineError, Failpoint, User};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A unique scratch directory removed on drop (the workspace has no
/// `tempfile` dependency; std is enough).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "smoqe-durability-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn recover(dir: &Path) -> Arc<Engine> {
    Engine::recover(EngineConfig::default(), dir).unwrap()
}

/// An admin insert with a unique marker name, so every accepted update
/// changes the serialized document distinguishably.
fn marker_insert(i: usize) -> String {
    format!(
        "insert <patient><pname>M{i}</pname><visit><treatment><medication>autism\
         </medication></treatment><date>d</date></visit></patient> into hospital"
    )
}

#[test]
fn a_recovered_engine_is_indistinguishable_from_the_one_that_crashed() {
    let dir = TempDir::new("roundtrip");
    let engine = recover(dir.path());
    assert_eq!(
        engine.recovery_epoch(),
        0,
        "fresh directory starts at epoch 0"
    );

    engine.load_dtd(hospital::DTD).unwrap();
    engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
    engine
        .register_policy(hospital::GROUP, hospital::POLICY)
        .unwrap();
    engine.build_tax_index().unwrap();
    for i in 0..4 {
        engine.update(&marker_insert(i)).unwrap();
    }
    let generation = engine
        .document_handle(smoqe::DEFAULT_DOCUMENT)
        .unwrap()
        .generation();
    let admin_before: Vec<_> = hospital::DOC_QUERIES
        .iter()
        .map(|(_, q)| engine.session(User::Admin).query(q).unwrap().nodes)
        .collect();
    let view_before: Vec<_> = hospital::VIEW_QUERIES
        .iter()
        .map(|(_, q)| {
            engine
                .session(User::Group(hospital::GROUP.into()))
                .query(q)
                .unwrap()
                .nodes
        })
        .collect();
    drop(engine); // an abrupt exit: no checkpoint, no shutdown hook

    let recovered = recover(dir.path());
    assert_eq!(
        recovered.recovery_epoch(),
        1,
        "recovering existing state advances the epoch"
    );
    assert_eq!(
        recovered
            .document_handle(smoqe::DEFAULT_DOCUMENT)
            .unwrap()
            .generation(),
        generation,
        "the document's write version (its generation) must survive recovery"
    );
    assert!(recovered.tax_index().is_some(), "the TAX index is rebuilt");
    for ((_, q), nodes) in hospital::DOC_QUERIES.iter().zip(&admin_before) {
        assert_eq!(
            &recovered.session(User::Admin).query(q).unwrap().nodes,
            nodes,
            "admin `{q}` diverged after recovery"
        );
    }
    for ((_, q), nodes) in hospital::VIEW_QUERIES.iter().zip(&view_before) {
        assert_eq!(
            &recovered
                .session(User::Group(hospital::GROUP.into()))
                .query(q)
                .unwrap()
                .nodes,
            nodes,
            "view `{q}` diverged after recovery"
        );
    }

    // A third boot advances the epoch again.
    drop(recovered);
    assert_eq!(recover(dir.path()).recovery_epoch(), 2);
}

#[test]
fn checkpoint_empties_the_wal_and_recovery_replays_only_the_tail() {
    let dir = TempDir::new("checkpoint");
    let wal = dir.path().join("wal.log");
    let engine = recover(dir.path());
    engine.load_dtd(hospital::DTD).unwrap();
    engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
    engine
        .register_policy(hospital::GROUP, hospital::POLICY)
        .unwrap();
    engine.build_tax_index().unwrap();
    engine.update(&marker_insert(0)).unwrap();
    assert!(std::fs::metadata(&wal).unwrap().len() > 0);

    let covered = engine
        .checkpoint()
        .unwrap()
        .expect("durable engines checkpoint");
    assert!(covered > 0);
    assert_eq!(
        std::fs::metadata(&wal).unwrap().len(),
        0,
        "a quiet checkpoint truncates the log"
    );

    // Post-checkpoint writes land in the (now short) WAL tail.
    engine.update(&marker_insert(1)).unwrap();
    let expected = engine.document().unwrap().to_xml();
    drop(engine);

    let recovered = recover(dir.path());
    assert_eq!(
        recovered.document().unwrap().to_xml(),
        expected,
        "checkpointed state plus the replayed tail must equal the pre-crash state"
    );
    assert!(expected.contains("M0") && expected.contains("M1"));
}

#[test]
fn dropped_documents_are_not_resurrected_by_recovery() {
    let dir = TempDir::new("drop");
    let engine = recover(dir.path());
    for name in ["keep", "gone"] {
        let doc = engine.open_document(name);
        hospital::install_sample(&doc).unwrap();
    }
    // Checkpoint first: the drop must also erase the document from the
    // *persisted* artifacts, not just from memory.
    engine.checkpoint().unwrap();
    assert!(engine.drop_document("gone"));
    drop(engine);

    let recovered = recover(dir.path());
    let names = recovered.document_names();
    assert!(names.iter().any(|n| n == "keep"));
    assert!(
        !names.iter().any(|n| n == "gone"),
        "a dropped document came back from the dead: {names:?}"
    );
    assert!(recovered
        .document_handle("keep")
        .unwrap()
        .document()
        .is_ok());
}

#[test]
fn group_updates_replay_through_their_security_view_not_as_admin() {
    let dir = TempDir::new("group");
    let engine = recover(dir.path());
    engine.load_dtd(hospital::DTD).unwrap();
    engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
    engine
        .register_policy(hospital::GROUP, hospital::POLICY)
        .unwrap();
    // The researchers' view hides some medications; this statement, run
    // as admin, would replace *every* medication. The replay must keep
    // the group's restricted target set.
    let session = engine.session(User::Group(hospital::GROUP.into()));
    let report = session
        .update(
            "replace hospital/patient/treatment/medication with <medication>autism</medication>",
        )
        .unwrap();
    assert!(report.applied >= 1);
    let expected = engine.document().unwrap().to_xml();
    assert!(
        expected.contains("flu") || expected.contains("headache"),
        "the view must have hidden at least one medication from the update"
    );
    drop(engine);

    let recovered = recover(dir.path());
    assert_eq!(
        recovered.document().unwrap().to_xml(),
        expected,
        "replaying the group update as a different principal changes its targets"
    );
}

/// The deterministic setup used by the corruption tests: returns the data
/// directory populated with a checkpoint (empty, from initialization) and
/// a WAL holding the whole history, plus the fingerprint after every
/// logged step (`states[0]` = empty engine).
fn populated_wal(tag: &str) -> (TempDir, Vec<String>) {
    let dir = TempDir::new(tag);
    let engine = recover(dir.path());
    let mut states = vec![fingerprint(&engine)];
    engine.load_dtd(hospital::DTD).unwrap();
    states.push(fingerprint(&engine));
    engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
    states.push(fingerprint(&engine));
    engine
        .register_policy(hospital::GROUP, hospital::POLICY)
        .unwrap();
    states.push(fingerprint(&engine));
    engine.build_tax_index().unwrap();
    states.push(fingerprint(&engine));
    for i in 0..4 {
        engine.update(&marker_insert(i)).unwrap();
        states.push(fingerprint(&engine));
    }
    (dir, states)
}

/// A state digest that is defined even before a document is loaded.
fn fingerprint(engine: &Arc<Engine>) -> String {
    let mut names = engine.document_names();
    names.sort();
    let mut out = String::new();
    for name in names {
        let doc = engine.document_handle(&name).unwrap();
        out.push_str(&format!(
            "{name}|dtd:{}|view:{}|tax:{}|{}\n",
            doc.dtd().is_some(),
            doc.view(hospital::GROUP).is_ok(),
            doc.tax_index().is_some(),
            doc.document().map(|d| d.to_xml()).unwrap_or_default(),
        ));
    }
    out
}

/// Copies the populated directory, truncating its WAL to `cut` bytes.
fn copy_with_wal(src: &Path, tag: &str, wal: &[u8]) -> TempDir {
    let scratch = TempDir::new(tag);
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        if entry.file_name() != *"wal.log" {
            std::fs::copy(entry.path(), scratch.path().join(entry.file_name())).unwrap();
        }
    }
    std::fs::write(scratch.path().join("wal.log"), wal).unwrap();
    scratch
}

#[test]
fn truncating_the_wal_at_every_byte_offset_recovers_a_growing_prefix() {
    let (dir, states) = populated_wal("sweep");
    let wal = std::fs::read(dir.path().join("wal.log")).unwrap();
    assert!(wal.len() > 100, "the sweep needs a real log to cut");

    let mut last_matched = 0usize;
    for cut in 0..=wal.len() {
        let scratch = copy_with_wal(dir.path(), "sweep-cut", &wal[..cut]);
        let recovered = Engine::recover(EngineConfig::default(), scratch.path())
            .unwrap_or_else(|e| panic!("cut at {cut}/{} must recover, got: {e}", wal.len()));
        let state = fingerprint(&recovered);
        let matched = states
            .iter()
            .position(|s| *s == state)
            .unwrap_or_else(|| panic!("cut at {cut} recovered a state that never existed"));
        assert!(
            matched >= last_matched,
            "cut at {cut} recovered state {matched}, an earlier prefix than {last_matched}"
        );
        last_matched = matched;
    }
    assert_eq!(
        last_matched,
        states.len() - 1,
        "the uncut log must recover the full history"
    );
}

#[test]
fn midlog_corruption_is_refused_with_a_typed_error() {
    let (dir, _) = populated_wal("midlog");
    let mut wal = std::fs::read(dir.path().join("wal.log")).unwrap();
    // A payload byte of the first record: the record is complete, so this
    // is corruption, not a torn tail.
    wal[10] ^= 0x01;
    let scratch = copy_with_wal(dir.path(), "midlog-flip", &wal);
    match Engine::recover(EngineConfig::default(), scratch.path()) {
        Err(EngineError::Durability(DurError::Corrupt { offset: 0, .. })) => {}
        Ok(_) => panic!("recovery accepted a corrupt log"),
        Err(other) => panic!("expected a typed corruption error, got: {other}"),
    }
}

/// Patient `X` is inserted between two checkpoints, and the second one
/// truncates the log: from then on only that checkpoint holds `X`. The
/// returned directory holds the engine's files after an abrupt exit, and
/// the copy of `wal.log` taken just before the second checkpoint.
fn x_only_in_the_newest_checkpoint(tag: &str, write_y: bool) -> (TempDir, Vec<u8>) {
    let dir = TempDir::new(tag);
    let engine = recover(dir.path());
    engine.load_dtd(hospital::DTD).unwrap();
    engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
    engine.checkpoint().unwrap();
    engine.update(&marker_insert(0)).unwrap(); // patient X = M0
    let wal_with_x = std::fs::read(dir.path().join("wal.log")).unwrap();
    engine.checkpoint().unwrap();
    if write_y {
        engine.update(&marker_insert(1)).unwrap(); // patient Y = M1
    }
    drop(engine); // an abrupt exit
    (dir, wal_with_x)
}

/// Flips one byte in the middle of the newest checkpoint file.
fn corrupt_newest_checkpoint(dir: &Path) {
    let mut checkpoints: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    checkpoints.sort();
    assert!(
        checkpoints.len() >= 2,
        "an older checkpoint to fall back to"
    );
    let newest = checkpoints.last().unwrap();
    let mut bytes = std::fs::read(newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(newest, bytes).unwrap();
}

fn expect_checkpoint_refusal(dir: &Path) {
    match Engine::recover(EngineConfig::default(), dir) {
        Err(EngineError::Durability(DurError::Checkpoint(_))) => {}
        Ok(engine) => panic!(
            "recovery fell back past a lost record: {}",
            engine.document().unwrap().to_xml()
        ),
        Err(other) => panic!("expected a checkpoint refusal, got: {other}"),
    }
}

#[test]
fn a_checkpoint_fallback_that_skips_logged_records_is_refused() {
    // The older checkpoint plus the log tail would hold Y without X: not
    // a prefix of the logged operations.
    let (dir, _) = x_only_in_the_newest_checkpoint("lossy-tail", true);
    corrupt_newest_checkpoint(dir.path());
    expect_checkpoint_refusal(dir.path());
}

#[test]
fn a_checkpoint_fallback_short_of_the_unreadable_checkpoint_is_refused() {
    // No write after the corrupt checkpoint: the log is empty, and the
    // older checkpoint alone silently lacks X.
    let (dir, _) = x_only_in_the_newest_checkpoint("lossy-empty", false);
    corrupt_newest_checkpoint(dir.path());
    expect_checkpoint_refusal(dir.path());
}

#[test]
fn a_checkpoint_fallback_the_log_still_covers_recovers() {
    // With the log as it was before the second checkpoint, the older
    // checkpoint plus the log reach everything the corrupt one covered.
    let (dir, wal_with_x) = x_only_in_the_newest_checkpoint("lossless", false);
    corrupt_newest_checkpoint(dir.path());
    std::fs::write(dir.path().join("wal.log"), wal_with_x).unwrap();
    let recovered = recover(dir.path());
    let xml = recovered.document().unwrap().to_xml();
    assert!(xml.contains("<pname>M0</pname>"), "X must survive: {xml}");
}

/// The live engine permits loading a document and then registering a DTD
/// it does not match (`load_dtd` never revalidates the installed
/// document). That state must checkpoint *and restore*: a restore that
/// re-validated would refuse on every boot, making the directory
/// permanently unrecoverable for state the engine accepted.
#[test]
fn a_tree_load_recovers_to_the_live_document() {
    let dir = TempDir::new("tree-load");
    let engine = recover(dir.path());
    // `<r> <a>x</a></r>` with a whitespace-only text node, which a
    // serialize-and-parse round trip does not keep.
    let mut b = smoqe_xml::TreeBuilder::new(engine.vocabulary().clone());
    b.start_element_named("r");
    b.text(" ");
    b.start_element_named("a");
    b.text("x");
    b.end_element();
    b.end_element();
    engine.load_document_tree(b.finish().unwrap()).unwrap();
    let state = |e: &Arc<Engine>| {
        let nodes = e.session(User::Admin).query("r/a").unwrap().nodes;
        (e.document().unwrap().node_count(), nodes)
    };
    let live = state(&engine);
    drop(engine);

    // From the WAL, then from the checkpoint the first boot writes.
    let recovered = recover(dir.path());
    assert_eq!(state(&recovered), live, "replayed from the WAL");
    recovered.checkpoint().unwrap();
    drop(recovered);
    assert_eq!(
        state(&recover(dir.path())),
        live,
        "restored from a checkpoint"
    );
}

#[test]
fn a_dtd_violating_tree_is_refused_like_its_text_and_recovery_still_boots() {
    let dir = TempDir::new("bad-tree");
    let engine = recover(dir.path());
    engine.load_dtd(hospital::DTD).unwrap();
    let bad = "<hospital><bogus/></hospital>";
    let text_err = engine.load_document(bad).unwrap_err();
    let tree = smoqe_xml::Document::parse_str(bad, engine.vocabulary()).unwrap();
    let tree_err = engine.load_document_tree(tree).unwrap_err();
    assert!(matches!(tree_err, EngineError::Xml(_)), "{tree_err}");
    assert_eq!(tree_err.to_string(), text_err.to_string());
    assert!(matches!(engine.document(), Err(EngineError::NoDocument)));
    engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
    let expected = engine.document().unwrap().to_xml();
    drop(engine);

    let recovered = Engine::recover(EngineConfig::default(), dir.path())
        .unwrap_or_else(|e| panic!("recovery refused the log: {e}"));
    assert_eq!(recovered.document().unwrap().to_xml(), expected);
}

#[test]
fn a_document_loaded_before_a_mismatched_dtd_still_recovers() {
    let dir = TempDir::new("dtd-after-doc");
    let engine = recover(dir.path());
    engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
    // A DTD the hospital document does not satisfy — accepted live.
    engine
        .load_dtd("<!ELEMENT inventory (item*)> <!ELEMENT item (#PCDATA)>")
        .unwrap();
    let before = engine.document().unwrap().to_xml();
    engine.checkpoint().unwrap();
    drop(engine);

    // Boot from the checkpoint, then once more from the checkpoint the
    // recovery itself writes — both must accept the capture as-is.
    for boot in 1..=2 {
        let recovered = Engine::recover(EngineConfig::default(), dir.path())
            .unwrap_or_else(|e| panic!("boot {boot} refused accepted state: {e}"));
        assert_eq!(recovered.document().unwrap().to_xml(), before);
        assert!(recovered.dtd().is_some(), "the mismatched DTD survives too");
        drop(recovered);
    }
}

/// Stress for the checkpoint's consistent cut: documents created and
/// loaded *while* checkpoints run must never be lost, even though they
/// were absent from the entry listing a racing checkpoint started from.
#[test]
fn documents_created_during_a_checkpoint_are_never_lost() {
    let dir = TempDir::new("ckpt-race");
    let engine = recover(dir.path());
    let n = 150;
    let writer = {
        let engine = engine.clone();
        std::thread::spawn(move || {
            for i in 0..n {
                let handle = engine.try_open_document(&format!("doc{i}")).unwrap();
                handle.load_document(&format!("<a><b>{i}</b></a>")).unwrap();
            }
        })
    };
    while !writer.is_finished() {
        engine.checkpoint().unwrap();
    }
    writer.join().unwrap();
    drop(engine); // abrupt: whatever the last checkpoint + WAL hold must suffice

    let recovered = recover(dir.path());
    for i in 0..n {
        let handle = recovered
            .document_handle(&format!("doc{i}"))
            .unwrap_or_else(|_| panic!("acknowledged doc{i} vanished after recovery"));
        assert_eq!(
            handle.document().unwrap().to_xml(),
            format!("<a><b>{i}</b></a>"),
            "doc{i} recovered torn"
        );
    }
}

#[test]
fn try_open_document_surfaces_a_dead_durability_layer() {
    let dir = TempDir::new("dead-open");
    let engine = recover(dir.path());
    engine
        .durability()
        .unwrap()
        .failpoints()
        .arm(Failpoint::CrashBeforeAppend);
    match engine.try_open_document("fresh") {
        Err(EngineError::Durability(_)) => {}
        Ok(_) => panic!("a dying creation record must surface"),
        Err(other) => panic!("expected a durability error, got: {other}"),
    }
    // The plain variant still hands out a handle, but the dead layer is
    // visible at the first data-bearing operation.
    let handle = engine.open_document("another");
    assert!(matches!(
        handle.load_document("<a/>"),
        Err(EngineError::Durability(DurError::Crashed))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// Satellite: flipping any single bit of the WAL either recovers some
    /// prefix of the history or fails with a typed durability error —
    /// never a panic, never a state that did not exist.
    #[test]
    fn bit_flips_recover_a_prefix_or_fail_typed(byte in 0usize..4096, bit in 0u8..8) {
        let (dir, states) = populated_wal("bitflip");
        let mut wal = std::fs::read(dir.path().join("wal.log")).unwrap();
        let byte = byte % wal.len();
        wal[byte] ^= 1 << bit;
        let scratch = copy_with_wal(dir.path(), "bitflip-case", &wal);
        match Engine::recover(EngineConfig::default(), scratch.path()) {
            Ok(recovered) => {
                let state = fingerprint(&recovered);
                prop_assert!(
                    states.contains(&state),
                    "flip of bit {} at byte {} recovered a state that never existed",
                    bit, byte
                );
            }
            Err(EngineError::Durability(_)) => {} // typed refusal is the other legal outcome
            Err(other) => prop_assert!(false, "untyped failure {} for flip at {}", other, byte),
        }
    }
}
