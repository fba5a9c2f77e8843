//! Engine-mode integration: file-backed streaming, DOM/stream agreement
//! at scale, the hand-authored view-spec mode, and configuration toggles.

use smoqe::workloads::{hospital, org};
use smoqe::{DocumentMode, Engine, EngineConfig, EngineError, User};
use smoqe_xml::{generate_to_writer, Document, NodeId, TreeBuilder, Vocabulary, XmlError};
use std::sync::Arc;

fn temp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("smoqe-int-stream");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn file_backed_streaming_matches_dom() {
    // Generate a mid-size document straight to disk.
    let vocab = Vocabulary::new();
    let dtd = hospital::dtd(&vocab);
    let config = hospital::generator_config(&vocab, 99, 20_000);
    let path = temp_dir().join("stream-20k.xml");
    {
        let f = std::fs::File::create(&path).unwrap();
        generate_to_writer(&dtd, &config, std::io::BufWriter::new(f)).unwrap();
    }

    let dom = Engine::new(EngineConfig::default());
    dom.load_dtd(hospital::DTD).unwrap();
    dom.load_document_file(&path).unwrap();
    dom.register_policy("g", hospital::POLICY).unwrap();

    let stream = Engine::new(EngineConfig::streaming());
    stream.load_dtd(hospital::DTD).unwrap();
    stream.load_document_file(&path).unwrap();
    stream.register_policy("g", hospital::POLICY).unwrap();

    for user in [User::Admin, User::Group("g".into())] {
        let qs: &[&str] = match user {
            User::Admin => &["//medication", "hospital/patient/pname", hospital::Q0],
            User::Group(_) => &["//medication", "hospital/patient/treatment"],
        };
        for q in qs {
            let a = dom.session(user.clone()).query(q).unwrap();
            let b = stream.session(user.clone()).query(q).unwrap();
            assert_eq!(a.nodes, b.nodes, "mode mismatch for {q} as {user:?}");
        }
    }
    std::fs::remove_file(&path).ok();
}

/// `<r> <a>x</a> <a>y</a></r>` built programmatically: its
/// whitespace-only text nodes do not survive a serialize-and-parse round
/// trip, so any path that re-parses the tree sees different node ids.
fn tree_with_blank_text(vocab: &Vocabulary) -> Document {
    let mut b = TreeBuilder::new(vocab.clone());
    b.start_element_named("r");
    for t in ["x", "y"] {
        b.text(" ");
        b.start_element_named("a");
        b.text(t);
        b.end_element();
    }
    b.end_element();
    b.finish().unwrap()
}

#[test]
fn tree_loaded_batch_answers_equal_single_answers() {
    for config in [EngineConfig::default(), EngineConfig::streaming()] {
        let e = Engine::new(config);
        e.load_document_tree(tree_with_blank_text(e.vocabulary()))
            .unwrap();
        let admin = e.session(User::Admin);
        let single = admin.query("r/a").unwrap().nodes;
        let batch = admin.query_batch(&["r/a"]).unwrap();
        assert_eq!(batch.answers[0].nodes, single, "{:?}", config.mode);
        // Both name the installed document's `a` elements.
        let doc = e.document().unwrap();
        let a = doc.vocabulary().lookup("a").unwrap();
        assert_eq!(single, doc.nodes_labeled(a).collect::<Vec<NodeId>>());
    }
}

#[test]
fn file_loaded_documents_answer_from_their_loaded_snapshot() {
    let path = temp_dir().join(format!("snapshot-{}.xml", std::process::id()));
    std::fs::write(&path, "<r><a>old</a></r>").unwrap();
    let stream = Engine::new(EngineConfig::streaming());
    stream.load_document_file(&path).unwrap();
    let dom = Engine::with_defaults();
    dom.load_document_file(&path).unwrap();
    // (single query, batch) answer XML: stream mode streams both, the DOM
    // engine streams its batch.
    let answers = |e: &Arc<Engine>| {
        let s = e.session(User::Admin);
        let single = s.query_serialized("r/a").unwrap().xml.unwrap();
        let mut batch = s.query_batch_serialized(&["r/a"]).unwrap();
        (single, batch.answers.pop().unwrap().xml.unwrap())
    };
    let old = vec!["<a>old</a>".to_string()];
    std::fs::write(&path, "<r><a>new</a><a>extra</a></r>").unwrap();
    for e in [&stream, &dom] {
        assert_eq!(answers(e), (old.clone(), old.clone()), "after overwrite");
    }
    std::fs::remove_file(&path).unwrap();
    for e in [&stream, &dom] {
        assert_eq!(answers(e), (old.clone(), old.clone()), "after delete");
        assert_eq!(e.document().unwrap().to_xml(), "<r><a>old</a></r>");
    }
}

#[test]
fn tax_index_files_for_another_document_are_refused() {
    let small = Engine::with_defaults();
    small.load_document("<r><w><x><y/></x></w></r>").unwrap();
    small.build_tax_index().unwrap();
    let path = temp_dir().join(format!("small-{}.tax", std::process::id()));
    small.save_tax_index(&path).unwrap();

    // 14 nodes: r, nine p, w, x, y (n12), p.
    let e = Engine::with_defaults();
    e.load_document(&format!(
        "<r>{}<w><x><y/></x></w><p/></r>",
        "<p/>".repeat(9)
    ))
    .unwrap();
    let built = e.build_tax_index().unwrap();
    let admin = e.session(User::Admin);
    let queries = ["//x/y", "r/w/x/y"];
    let answer = |q: &str| admin.query(q).unwrap().nodes;
    assert_eq!(answer("r/w/x/y"), vec![NodeId(12)]);
    let before: Vec<Vec<NodeId>> = queries.iter().map(|q| answer(q)).collect();

    let err = e.load_tax_index(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(err, EngineError::Xml(XmlError::Invalid(_))),
        "{err}"
    );
    assert!(Arc::ptr_eq(&e.tax_index().unwrap(), &built));
    let after: Vec<Vec<NodeId>> = queries.iter().map(|q| answer(q)).collect();
    assert_eq!(after, before);
}

#[test]
fn streaming_engine_from_string_source() {
    let e = Engine::new(EngineConfig::streaming());
    e.load_dtd(org::DTD).unwrap();
    e.load_document(org::SAMPLE_DOCUMENT).unwrap();
    e.register_policy("staff", org::POLICY).unwrap();
    let s = e.session(User::Group("staff".into()));
    let reviews = s.query("//review").unwrap();
    // Only public reviews are visible (2 of 3 in the sample).
    assert_eq!(reviews.len(), 2);
    for xml in reviews.xml.unwrap() {
        assert!(xml.contains("public"));
        assert!(!xml.contains("private"));
    }
}

#[test]
fn split_character_data_agrees_between_stream_and_dom() {
    // Character data split across entity references and CDATA boundaries
    // arrives as multiple parser Text events; the DOM builder merges the
    // run into ONE text node. The stream machine must coalesce the same
    // way — both for `text()='c'` predicates and for the document-order
    // node ids of everything that follows.
    let doc = "<lib>\
        <book><title>a&amp;b</title><year>2006</year></book>\
        <book><title>a<![CDATA[&]]>b</title><year>2007</year></book>\
        <book><title><![CDATA[one]]><![CDATA[two]]></title><year>2008</year></book>\
        <book><title>onetwo</title><year>2009</year></book>\
      </lib>";
    let dom = Engine::new(EngineConfig::default());
    dom.load_document(doc).unwrap();
    let stream = Engine::new(EngineConfig::streaming());
    stream.load_document(doc).unwrap();
    for q in [
        "lib/book[title = 'a&b']/year",    // entity- and CDATA-split text
        "lib/book[title = 'onetwo']/year", // adjacent CDATA sections
        "//year",                          // ids after split-text runs
        "lib/book[not(title = 'a&b')]/year",
    ] {
        let a = dom.session(User::Admin).query(q).unwrap();
        let b = stream.session(User::Admin).query(q).unwrap();
        assert_eq!(a.nodes, b.nodes, "mode mismatch for `{q}`");
        assert!(!a.is_empty(), "query `{q}` should match something");
    }
    // The split runs really do compare as one value.
    let amp = dom
        .session(User::Admin)
        .query("lib/book[title = 'a&b']")
        .unwrap();
    assert_eq!(amp.len(), 2, "both split spellings of a&b must match");
    let cat = stream
        .session(User::Admin)
        .query("lib/book[title = 'onetwo']")
        .unwrap();
    assert_eq!(cat.len(), 2, "CDATA-split and plain 'onetwo' must match");
}

#[test]
fn hand_authored_spec_and_derived_policy_can_coexist() {
    let e = Engine::with_defaults();
    e.load_dtd(hospital::DTD).unwrap();
    e.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
    e.register_policy("derived", hospital::POLICY).unwrap();
    e.register_view_spec(
        "flat",
        "<!ELEMENT hospital (pname*)>\n<!ELEMENT pname (#PCDATA)>\n\
         sigma(hospital, pname) = patient/pname\n",
    )
    .unwrap();
    // The two groups see different shapes of the same data.
    let derived = e.session(User::Group("derived".into()));
    let flat = e.session(User::Group("flat".into()));
    assert!(derived.query("//pname").unwrap().is_empty());
    assert_eq!(flat.query("hospital/pname").unwrap().len(), 3); // top-level names
                                                                // The flat view exposes names that the derived view hides - distinct
                                                                // policies genuinely isolate groups.
    let xmls = flat
        .query_serialized("hospital/pname")
        .unwrap()
        .xml
        .unwrap();
    assert!(xmls.iter().any(|x| x.contains("Ann")));
}

#[test]
fn config_toggles_do_not_change_answers() {
    let configs = [
        EngineConfig::default(),
        EngineConfig::plain(),
        EngineConfig {
            mode: DocumentMode::Dom,
            use_tax: true,
            optimize_mfa: false,
            ..EngineConfig::default()
        },
        EngineConfig::streaming(),
    ];
    let mut reference: Option<Vec<Vec<u32>>> = None;
    for config in configs {
        let e = Engine::new(config);
        e.load_dtd(hospital::DTD).unwrap();
        e.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
        e.register_policy("g", hospital::POLICY).unwrap();
        if config.use_tax && config.mode == DocumentMode::Dom {
            e.build_tax_index().unwrap();
        }
        let s = e.session(User::Group("g".into()));
        let results: Vec<Vec<u32>> = hospital::VIEW_QUERIES
            .iter()
            .map(|(_, q)| s.query(q).unwrap().nodes.iter().map(|n| n.0).collect())
            .collect();
        match &reference {
            None => reference = Some(results),
            Some(r) => assert_eq!(&results, r, "config {config:?} changed answers"),
        }
    }
}

#[test]
fn dtd_validation_rejects_bad_documents_through_engine() {
    let e = Engine::with_defaults();
    e.load_dtd(hospital::DTD).unwrap();
    // Wrong child order: visit before pname.
    let err = e
        .load_document(
            "<hospital><patient><visit><treatment><test>t</test></treatment><date>d</date></visit>\
             <pname>A</pname></patient></hospital>",
        )
        .unwrap_err();
    assert!(err.to_string().contains("content model"), "{err}");
    // Without a DTD, the same document is accepted.
    let e2 = Engine::new(EngineConfig::default());
    e2.load_document("<anything><goes/></anything>").unwrap();
}

#[test]
fn large_generated_document_through_engine_with_all_features() {
    let e = Engine::with_defaults();
    e.load_dtd(hospital::DTD).unwrap();
    let doc = hospital::generate_document(e.vocabulary(), 5, 30_000);
    e.load_document_tree(doc).unwrap();
    e.build_tax_index().unwrap();
    e.register_policy("g", hospital::POLICY).unwrap();
    let s = e.session(User::Group("g".into()));
    let a = s
        .query("hospital/patient/(parent/patient)*/treatment/medication")
        .unwrap();
    // TAX + optimizer on; sanity cross-check against the plain config.
    let plain = Engine::new(EngineConfig::plain());
    plain.load_dtd(hospital::DTD).unwrap();
    let doc2 = hospital::generate_document(plain.vocabulary(), 5, 30_000);
    plain.load_document_tree(doc2).unwrap();
    plain.register_policy("g", hospital::POLICY).unwrap();
    let b = plain
        .session(User::Group("g".into()))
        .query("hospital/patient/(parent/patient)*/treatment/medication")
        .unwrap();
    assert_eq!(a.nodes, b.nodes);
    assert!(!a.is_empty());
}
