//! The secure update subsystem end to end: the update language, policy
//! enforcement through security views, incremental TAX maintenance, and
//! cache/generation hygiene.
//!
//! The property tests are the heart of the file:
//! * for random documents and random structural edits, the incrementally
//!   patched TAX index assigns every node the same descendant-type set as
//!   a from-scratch `TaxIndex::build` rebuild — and answers the same
//!   queries under TAX-pruned evaluation;
//! * random *accepted* engine updates leave the engine indistinguishable
//!   from a fresh engine that loaded the updated serialization and
//!   rebuilt everything;
//! * plans cached before a write answer every later state exactly like
//!   plans compiled from scratch.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smoqe::workloads::hospital;
use smoqe::{DocHandle, Engine, EngineConfig, EngineError, User};
use smoqe_rxpath::evaluate;
use smoqe_tax::TaxIndex;
use smoqe_update::parse_update;
use smoqe_xml::{delete_subtree, insert_fragment, replace_subtree, SplicePlace};
use smoqe_xml::{Document, NodeId, Vocabulary};

/// A random structural edit of `doc`: returns the new document and the
/// span, or `None` when the drawn edit is structurally impossible (e.g.
/// deleting the root).
fn random_edit(
    rng: &mut StdRng,
    vocab: &Vocabulary,
    doc: &Document,
) -> Option<(Document, smoqe_xml::EditSpan)> {
    let elements: Vec<NodeId> = doc.all_nodes().filter(|&n| doc.is_element(n)).collect();
    let target = elements[rng.random_range(0..elements.len())];
    let fragment_xml = match rng.random_range(0..3) {
        0 => "<visit><treatment><medication>autism</medication></treatment><date>d</date></visit>",
        1 => {
            "<patient><pname>Rnd</pname><visit><treatment><test>mri</test></treatment>\
              <date>d</date></visit></patient>"
        }
        _ => "<treatment><medication>flu</medication></treatment>",
    };
    let fragment = Document::parse_str(fragment_xml, vocab).unwrap();
    match rng.random_range(0..5) {
        0 => delete_subtree(doc, target).ok(),
        1 => replace_subtree(doc, target, &fragment).ok(),
        2 => insert_fragment(doc, target, SplicePlace::Into, &fragment).ok(),
        3 => insert_fragment(doc, target, SplicePlace::Before, &fragment).ok(),
        _ => insert_fragment(doc, target, SplicePlace::After, &fragment).ok(),
    }
}

/// Asserts that the TAX index's positional label index (occurrence
/// lists, subtree ends, levels) describes `doc` exactly — i.e. equals
/// what a from-scratch build would produce.
fn assert_label_index_matches(tax: &TaxIndex, doc: &Document) {
    let li = tax
        .label_index()
        .expect("built or patched indexes carry the label index");
    assert_eq!(li.node_count(), doc.node_count());
    for n in doc.all_nodes() {
        assert_eq!(
            li.subtree_end(n) as usize,
            n.index() + doc.subtree_size(n),
            "subtree_end of {n:?}"
        );
        assert_eq!(li.level(n) as usize, doc.depth(n), "level of {n:?}");
    }
    for raw in 0..doc.vocabulary().len() as u32 {
        let label = smoqe_xml::Label(raw);
        let want: Vec<u32> = doc.nodes_labeled(label).map(|n| n.0).collect();
        assert_eq!(
            li.occurrences(label),
            want.as_slice(),
            "occurrence list of label {raw}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// Satellite: for random documents and random accepted edits, the
    /// incrementally patched index equals a from-scratch rebuild.
    #[test]
    fn patched_tax_equals_rebuild_on_random_edits(seed in 0u64..10_000) {
        let vocab = Vocabulary::new();
        hospital::dtd(&vocab);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut doc = hospital::generate_document(&vocab, seed, 300);
        let mut tax = TaxIndex::build(&doc);
        // Chain a few edits so patches compose (patch of a patch).
        for _ in 0..3 {
            let Some((new_doc, span)) = random_edit(&mut rng, &vocab, &doc) else {
                continue;
            };
            tax = tax.patched(&new_doc, &span);
            let rebuilt = TaxIndex::build(&new_doc);
            prop_assert_eq!(tax.node_count(), rebuilt.node_count());
            for n in new_doc.all_nodes() {
                prop_assert_eq!(
                    tax.descendant_labels(n).iter().collect::<Vec<_>>(),
                    rebuilt.descendant_labels(n).iter().collect::<Vec<_>>(),
                    "node {:?} diverged after patch (seed {})", n, seed
                );
            }
            assert_label_index_matches(&tax, &new_doc);
            doc = new_doc;
        }
    }

    /// The patched index answers queries identically to a rebuilt one
    /// when driving TAX-pruned evaluation inside the engine.
    #[test]
    fn updated_engine_matches_fresh_engine_with_rebuilt_index(seed in 0u64..10_000) {
        let statements = [
            "insert <patient><pname>Zoe</pname><visit><treatment><medication>autism\
             </medication></treatment><date>d</date></visit></patient> into hospital",
            "delete hospital/patient[visit/treatment/test]",
            "replace //treatment[medication = 'flu'] with \
             <treatment><medication>headache</medication></treatment>",
            "insert <visit><treatment><test>blood</test></treatment><date>d2</date></visit> \
             after //patient[not(parent)]/visit",
        ];
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let engine = Engine::with_defaults();
        let vocab = engine.vocabulary().clone();
        engine.load_dtd(hospital::DTD).unwrap();
        engine.load_document_tree(hospital::generate_document(&vocab, seed, 250)).unwrap();
        engine.build_tax_index().unwrap();

        let mut applied_any = false;
        for _ in 0..3 {
            let stmt = statements[rng.random_range(0..statements.len())];
            match engine.update(stmt) {
                Ok(report) => {
                    prop_assert!(report.tax_patched, "index must be maintained");
                    applied_any = true;
                }
                // Rejected updates (no target / schema) change nothing —
                // also part of the contract.
                Err(EngineError::Update(_)) => {}
                Err(other) => prop_assert!(false, "unexpected error: {}", other),
            }
        }

        // A fresh engine loads the updated serialization and rebuilds its
        // index from scratch; both engines must answer identically.
        let updated_xml = engine.document().unwrap().to_xml();
        let fresh = Engine::with_defaults();
        fresh.load_dtd(hospital::DTD).unwrap();
        fresh.load_document(&updated_xml).unwrap();
        fresh.build_tax_index().unwrap();
        fresh
            .register_policy(hospital::GROUP, hospital::POLICY)
            .unwrap();
        engine
            .register_policy(hospital::GROUP, hospital::POLICY)
            .unwrap();
        for (_, q) in hospital::DOC_QUERIES {
            let a = engine.session(User::Admin).query(q).unwrap();
            let b = fresh.session(User::Admin).query(q).unwrap();
            prop_assert_eq!(&a.nodes, &b.nodes, "admin `{}` diverged (seed {})", q, seed);
        }
        for (_, q) in hospital::VIEW_QUERIES {
            let a = engine.session(User::Group(hospital::GROUP.into())).query(q).unwrap();
            let b = fresh.session(User::Group(hospital::GROUP.into())).query(q).unwrap();
            prop_assert_eq!(&a.nodes, &b.nodes, "view `{}` diverged (seed {})", q, seed);
        }
        let _ = applied_any;
    }

    /// Group updates only ever touch nodes the security view exposes, and
    /// denials never mutate anything.
    #[test]
    fn group_updates_stay_inside_the_view(seed in 0u64..10_000) {
        let engine = Engine::with_defaults();
        let vocab = engine.vocabulary().clone();
        engine.load_dtd(hospital::DTD).unwrap();
        engine.load_document_tree(hospital::generate_document(&vocab, seed, 200)).unwrap();
        engine
            .register_policy(hospital::GROUP, hospital::POLICY)
            .unwrap();
        let doc_before = engine.document().unwrap();
        let spec = engine.view(hospital::GROUP).unwrap();
        let accessible = smoqe_view::accessible_nodes(&spec, &doc_before).unwrap();

        let session = engine.session(User::Group(hospital::GROUP.into()));
        // Replacing a medication by a medication is always DTD-valid, so
        // acceptance depends on accessibility alone.
        let stmt = "replace hospital/patient/treatment/medication \
                    with <medication>autism</medication>";
        let update = parse_update(stmt, &vocab).unwrap();
        // The targets the engine will pick are exactly the accessible
        // medications selected through the view.
        let view = smoqe_view::materialize(&spec, &doc_before).unwrap();
        let view_hits = evaluate(&view.doc, &update.target);
        let expected = view.origins_of(view_hits.iter());
        for &t in &expected {
            prop_assert!(accessible.binary_search(&t).is_ok());
        }
        match session.update(stmt) {
            Ok(report) => {
                prop_assert_eq!(report.applied, expected.len());
                // Group reports count the document AS THE VIEW SEES IT —
                // source-side counts would leak hidden structure.
                prop_assert_eq!(report.nodes_before, view.doc.node_count());
                prop_assert!(report.nodes_before <= doc_before.node_count());
                // A medication swaps for a medication: size is stable.
                prop_assert_eq!(report.nodes_after, report.nodes_before);
            }
            Err(EngineError::UpdateDenied) => {
                prop_assert!(expected.is_empty(), "deny only when nothing accessible matches");
                prop_assert_eq!(
                    engine.document().unwrap().to_xml(),
                    doc_before.to_xml(),
                    "denied updates must not mutate"
                );
            }
            Err(other) => prop_assert!(false, "unexpected error: {}", other),
        }
    }
}

/// Regression (bugfix satellite): edits splicing at the very tail of the
/// id space — the last sibling of the root's final child — recompute
/// ancestors from the splice point only, which must keep the root-level
/// `subtree_end` / label-set maintenance of the positional index
/// consistent under `update_batch`; and a span touching the root itself
/// (root replacement) must fall back to a full positional rebuild.
#[test]
fn tail_and_root_spanning_updates_keep_the_label_index_consistent() {
    let engine = Engine::with_defaults();
    engine.load_dtd(hospital::DTD).unwrap();
    engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
    engine.build_tax_index().unwrap();
    let doc = engine.document_handle(smoqe::DEFAULT_DOCUMENT).unwrap();

    let check = |stage: &str| {
        let tax = engine.tax_index().expect("index survives updates");
        let current = engine.document().unwrap();
        let rebuilt = TaxIndex::build(&current);
        assert_eq!(tax.node_count(), rebuilt.node_count(), "{stage}");
        for n in current.all_nodes() {
            assert_eq!(
                tax.descendant_labels(n).iter().collect::<Vec<_>>(),
                rebuilt.descendant_labels(n).iter().collect::<Vec<_>>(),
                "{stage}: node {n:?}"
            );
        }
        assert_label_index_matches(&tax, &current);
    };

    // Cal is the root's final child; the edits below all splice at (or
    // after) the last ids of the document.
    let reports = doc
        .update_batch(&[
            // Append after the final child's last visit (the last sibling
            // inside the root's final child).
            "insert <visit><treatment><test>mri</test></treatment><date>d1</date></visit> \
             after hospital/patient[pname = 'Cal']/visit[date = '2006-05-02']",
            // Append a whole new final child of the root.
            "insert <patient><pname>Tail</pname><visit><treatment><test>xray</test>\
             </treatment><date>d2</date></visit></patient> \
             after hospital/patient[pname = 'Cal']",
            // And take it away again (delete spanning the document tail).
            "delete hospital/patient[pname = 'Tail']",
        ])
        .unwrap();
    assert!(
        reports.iter().all(|r| r.tax_patched),
        "patched, not rebuilt"
    );
    check("tail splices");

    // Root replacement: span.parent is None, the positional index must
    // rebuild rather than splice — and still end up exact.
    doc.update(
        "replace hospital with <hospital><patient><pname>Solo</pname>\
         <visit><treatment><test>blood</test></treatment><date>d3</date></visit>\
         </patient></hospital>",
    )
    .unwrap();
    check("root replacement");
    assert_eq!(
        engine
            .session(User::Admin)
            .query("//patient")
            .unwrap()
            .len(),
        1
    );
}

#[test]
fn group_update_reports_count_the_view_not_the_source() {
    // Regression (information leak): deleting a visible node whose source
    // subtree contains hidden descendants must report VIEW-side node
    // counts — source-side counts would reveal how many hidden nodes the
    // subtree held.
    let engine = Engine::with_defaults();
    let doc = engine.open_document("h");
    hospital::install_sample(&doc).unwrap();
    let source_before = doc.document().unwrap();
    let spec = doc.view(hospital::GROUP).unwrap();
    let view_before = smoqe_view::materialize(&spec, &source_before).unwrap();

    let session = doc.session(User::Group(hospital::GROUP.into()));
    // Every view-visible patient goes away; their source subtrees are much
    // larger than their view images (pname/visit/date are hidden).
    let report = session.update("delete hospital/patient").unwrap();
    let source_after = doc.document().unwrap();
    let view_after = smoqe_view::materialize(&spec, &source_after).unwrap();

    assert_eq!(report.nodes_before, view_before.doc.node_count());
    assert_eq!(report.nodes_after, view_after.doc.node_count());
    let view_delta = report.nodes_before - report.nodes_after;
    let source_delta = source_before.node_count() - source_after.node_count();
    assert!(
        view_delta < source_delta,
        "the report must not expose the {source_delta}-node source delta \
         (view delta: {view_delta})"
    );
}

#[test]
fn group_update_that_breaks_the_view_is_opaquely_denied() {
    // The visible root is a legal target, but replacing it with a foreign
    // element makes the security view unmaterializable. A group session
    // must get the opaque denial (not a typed view/schema error that
    // could describe structure), and nothing may be installed.
    let engine = Engine::with_defaults();
    let doc = engine.open_document("h");
    hospital::install_sample(&doc).unwrap();
    let before = doc.document().unwrap().to_xml();
    let session = doc.session(User::Group(hospital::GROUP.into()));
    let err = session
        .update("replace hospital with <clinic/>")
        .unwrap_err();
    assert!(matches!(err, EngineError::UpdateDenied), "got {err}");
    assert_eq!(doc.document().unwrap().to_xml(), before);
}

#[test]
fn update_language_round_trips_through_the_engine() {
    let engine = Engine::with_defaults();
    engine.load_dtd(hospital::DTD).unwrap();
    engine.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
    let admin = engine.session(User::Admin);

    // insert into / before / after, delete, replace — every primitive.
    engine
        .update(
            "insert <patient><pname>Neu</pname><visit><treatment><test>blood</test>\
             </treatment><date>d</date></visit></patient> into hospital",
        )
        .unwrap();
    engine
        .update(
            "insert <visit><treatment><medication>flu</medication></treatment><date>d2</date>\
             </visit> before hospital/patient[pname = 'Neu']/visit",
        )
        .unwrap();
    engine
        .update(
            "insert <visit><treatment><test>mri</test></treatment><date>d3</date>\
             </visit> after hospital/patient[pname = 'Neu']/visit[treatment/test = 'blood']",
        )
        .unwrap();
    assert_eq!(
        admin
            .query("hospital/patient[pname = 'Neu']/visit")
            .unwrap()
            .len(),
        3
    );
    // The inserted visits are ordered: flu, blood, mri.
    let xml = admin
        .query_serialized("hospital/patient[pname = 'Neu']")
        .unwrap()
        .xml
        .unwrap()
        .pop()
        .unwrap();
    let (flu, blood, mri) = (
        xml.find("flu").unwrap(),
        xml.find("blood").unwrap(),
        xml.find("mri").unwrap(),
    );
    assert!(flu < blood && blood < mri, "sibling order preserved: {xml}");

    engine
        .update("replace hospital/patient[pname = 'Neu']/pname with <pname>Alt</pname>")
        .unwrap();
    engine
        .update("delete hospital/patient[pname = 'Alt']")
        .unwrap();
    assert!(admin.query("//patient[pname = 'Alt']").unwrap().is_empty());
    assert!(admin.query("//patient[pname = 'Neu']").unwrap().is_empty());
}

#[test]
fn denied_and_accepted_updates_manage_generations_precisely() {
    let engine = Engine::with_defaults();
    let doc = engine.open_document("h");
    hospital::install_sample(&doc).unwrap();
    let session = doc.session(User::Group(hospital::GROUP.into()));
    let admin = doc.session(User::Admin);

    let before = admin.query_serialized("//medication").unwrap();
    assert!(admin.query("//medication").unwrap().plan_cached);
    let generation = doc.generation();

    // A denied update must not bump the generation or drop plans.
    assert!(matches!(
        session.update("delete //pname"),
        Err(EngineError::UpdateDenied)
    ));
    assert_eq!(doc.generation(), generation, "a denial writes nothing");
    assert!(
        admin.query("//medication").unwrap().plan_cached,
        "denied update must not invalidate plans"
    );

    // An accepted one bumps the generation (the write version) but keeps
    // every plan, and the cached plan answers the edited document.
    session
        .update(
            "replace hospital/patient/treatment/medication with <medication>autism</medication>",
        )
        .unwrap();
    assert!(doc.generation() > generation);
    let after = admin.query_serialized("//medication").unwrap();
    assert!(after.plan_cached, "accepted update must keep plans");
    assert_ne!(after.xml, before.xml, "the edit changed the answer");
    let edited = doc.document().unwrap();
    let query = smoqe_rxpath::parse_path("//medication", engine.vocabulary()).unwrap();
    assert_eq!(after.nodes, evaluate(&edited, &query).into_vec());
    assert_eq!(engine.cache_metrics().invalidations, 0);
}

#[test]
fn view_paths_and_source_paths_are_different_worlds() {
    // The researchers' view hides `visit`: the *view* path
    // patient/treatment works, while the *source* path
    // patient/visit/treatment selects nothing for the group (visit is not
    // a view type) and is therefore denied.
    let engine = Engine::with_defaults();
    let doc = engine.open_document("h");
    hospital::install_sample(&doc).unwrap();
    let session = doc.session(User::Group(hospital::GROUP.into()));
    assert!(session
        .update(
            "replace hospital/patient/treatment/medication with <medication>autism</medication>"
        )
        .is_ok());
    assert!(matches!(
        session.update(
            "replace hospital/patient/visit/treatment/medication with <medication>autism</medication>"
        ),
        Err(EngineError::UpdateDenied)
    ));
}

/// Every `DOC_QUERIES` answer (admin) and `VIEW_QUERIES` answer (group) of
/// `doc`, with its serialized XML and whether its plan came from the cache.
fn all_answers(doc: &DocHandle) -> Vec<(Vec<NodeId>, Option<Vec<String>>, bool)> {
    let admin = hospital::DOC_QUERIES.iter().map(|(_, q)| (User::Admin, *q));
    let group = hospital::VIEW_QUERIES
        .iter()
        .map(|(_, q)| (User::Group(hospital::GROUP.into()), *q));
    admin
        .chain(group)
        .map(|(user, q)| {
            let answer = doc.session(user).query_serialized(q).unwrap();
            (answer.nodes, answer.xml, answer.plan_cached)
        })
        .collect()
}

/// Plans survive content writes, so a plan cached before an edit must
/// answer the edited document exactly like a plan compiled afterwards. A
/// warm engine (every plan cached up front) and a cold one (no plan cache)
/// take the same seeded sequence of accepted admin and group updates, one
/// reload of the DTD and one load of a different document; after every
/// step their answers must agree and the warm engine must not recompile.
#[test]
fn cached_plans_answer_every_edit_like_fresh_plans() {
    const STEPS: usize = 16;
    let warm = Engine::with_defaults();
    let cold = Engine::new(EngineConfig {
        plan_cache_capacity: 0,
        ..EngineConfig::default()
    });
    let docs = [&warm, &cold].map(|engine| {
        let doc = engine.open_document("h");
        hospital::install_sample(&doc).unwrap();
        doc
    });
    all_answers(&docs[0]);
    let warm_misses = warm.cache_metrics().misses;
    let other_document = hospital::generate_document(warm.vocabulary(), 5, 200).to_xml();

    let mut rng = StdRng::seed_from_u64(14);
    let dtd_step = rng.random_range(0..STEPS / 2);
    let load_step = rng.random_range(STEPS / 2..STEPS);
    // Marker patients present in the document; `unreplaced` still hold
    // their `m{i}` medication, which the group may rewrite once.
    let (mut markers, mut unreplaced) = (Vec::<usize>::new(), Vec::<usize>::new());
    let (mut group_updates, mut deletes) = (0, 0);
    for step in 0..STEPS {
        let label;
        if step == dtd_step {
            label = "load_dtd".to_string();
            for doc in &docs {
                doc.load_dtd(hospital::DTD).unwrap();
            }
        } else if step == load_step {
            label = "load_document".to_string();
            for doc in &docs {
                doc.load_document(&other_document).unwrap();
            }
            markers.clear();
            unreplaced.clear();
        } else {
            let (user, statement) = match rng.random_range(0..3) {
                1 if !unreplaced.is_empty() => {
                    let i = unreplaced.swap_remove(rng.random_range(0..unreplaced.len()));
                    group_updates += 1;
                    (
                        User::Group(hospital::GROUP.into()),
                        format!(
                            "replace hospital/patient/treatment[medication = 'm{i}']/medication \
                             with <medication>g{i}</medication>"
                        ),
                    )
                }
                2 if !markers.is_empty() => {
                    let i = markers.swap_remove(rng.random_range(0..markers.len()));
                    unreplaced.retain(|&u| u != i);
                    deletes += 1;
                    (
                        User::Admin,
                        format!("delete hospital/patient[pname = 'M{i}']"),
                    )
                }
                _ => {
                    // Autism makes the marker visible to the group; `m{i}`
                    // gives the group a medication of its own to rewrite.
                    markers.push(step);
                    unreplaced.push(step);
                    (
                        User::Admin,
                        format!(
                            "insert <patient><pname>M{step}</pname>\
                             <visit><treatment><medication>autism</medication></treatment>\
                             <date>d</date></visit>\
                             <visit><treatment><medication>m{step}</medication></treatment>\
                             <date>d</date></visit></patient> into hospital"
                        ),
                    )
                }
            };
            for doc in &docs {
                doc.session(user.clone())
                    .update(&statement)
                    .unwrap_or_else(|e| panic!("step {step}: `{statement}` refused: {e}"));
            }
            label = statement;
        }

        let (hot, fresh) = (all_answers(&docs[0]), all_answers(&docs[1]));
        for (i, (h, f)) in hot.iter().zip(&fresh).enumerate() {
            assert_eq!(h.0, f.0, "step {step} ({label}): answer {i} nodes diverged");
            assert_eq!(h.1, f.1, "step {step} ({label}): answer {i} XML diverged");
            assert!(h.2, "step {step} ({label}): answer {i} was recompiled");
        }
    }
    assert!(
        group_updates > 0 && deletes > 0,
        "the seed exercises every write kind"
    );
    let m = warm.cache_metrics();
    assert_eq!(m.misses, warm_misses, "no write forced a recompile");
    assert_eq!(m.invalidations, 0);
}
