//! Batched evaluation: one document scan (streaming) or one snapshot
//! (DOM) must serve a whole query batch with answers identical to
//! per-query evaluation.
//!
//! * 32 random Regular XPath queries over a generated hospital document:
//!   DOM, serial stream and batched stream all agree, and the batch
//!   reports exactly one document's worth of parser events;
//! * the engine-level batch API (`Session::query_batch`) agrees with
//!   serial `Session::query` in both DOM and stream configurations —
//!   nodes, xml and execution mode — and serialized batch answers match
//!   serialized serial ones;
//! * DOM batches (answered from the snapshot, never parsed) agree with
//!   serial queries at every thread count and eval mode, with and
//!   without a TAX index.

use rand::SeedableRng;
use smoqe::workloads::hospital;
use smoqe::{DocumentMode, Engine, EngineConfig, EvalMode, ExecMode, Session, User};
use smoqe_automata::{compile, Mfa};
use smoqe_hype::batch::evaluate_batch_stream;
use smoqe_hype::dom::evaluate_mfa;
use smoqe_hype::stream::{evaluate_stream, StreamOptions};
use smoqe_rxpath::random::{random_path, QueryGenConfig};
use smoqe_xml::stax::{PullParser, XmlEvent};
use smoqe_xml::Vocabulary;

/// Counts the pull-parser events of `xml` — the cost of ONE scan.
fn one_scan_events(xml: &str) -> usize {
    let mut parser = PullParser::from_str(xml);
    let mut events = 0;
    loop {
        events += 1;
        if parser.next_event().unwrap() == XmlEvent::EndDocument {
            return events;
        }
    }
}

#[test]
fn thirty_two_random_queries_agree_across_all_modes_in_one_scan() {
    let vocab = Vocabulary::new();
    hospital::dtd(&vocab);
    let doc = hospital::generate_document(&vocab, 7, 800);
    let xml = doc.to_xml();

    let labels = vec![
        vocab.lookup("hospital").unwrap(),
        vocab.lookup("patient").unwrap(),
        vocab.lookup("pname").unwrap(),
        vocab.lookup("visit").unwrap(),
        vocab.lookup("treatment").unwrap(),
        vocab.lookup("medication").unwrap(),
        vocab.lookup("parent").unwrap(),
        vocab.lookup("test").unwrap(),
    ];
    let values = vec!["autism".into(), "headache".into(), "Ann".into()];
    let mut cfg = QueryGenConfig::new(labels, values);
    cfg.max_depth = 4;

    let mut rng = rand::rngs::StdRng::seed_from_u64(20_060_912);
    let paths: Vec<_> = (0..32).map(|_| random_path(&mut rng, &cfg)).collect();
    let mfas: Vec<Mfa> = paths.iter().map(|p| compile(p, &vocab)).collect();
    let plans: Vec<&Mfa> = mfas.iter().collect();

    let batch =
        evaluate_batch_stream(xml.as_bytes(), &plans, &vocab, StreamOptions::default()).unwrap();
    assert_eq!(batch.outcomes.len(), 32);

    // One scan for the whole batch: exactly one document's event count.
    assert_eq!(
        batch.events,
        one_scan_events(&xml),
        "a batch of 32 queries must cost a single document scan"
    );

    for (i, path) in paths.iter().enumerate() {
        let q = path.display(&vocab).to_string();
        // DOM reference.
        let (dom, _) = evaluate_mfa(&doc, &mfas[i]);
        let dom_ids: Vec<u32> = dom.iter().map(|n| n.0).collect();
        // Serial stream: its own full scan.
        let serial =
            evaluate_stream(xml.as_bytes(), &mfas[i], &vocab, StreamOptions::default()).unwrap();
        assert_eq!(serial.answers, dom_ids, "serial stream vs DOM on `{q}`");
        assert_eq!(serial.events, batch.events, "serial scan length `{q}`");
        // Batched: same answers without a scan of its own.
        assert_eq!(
            batch.outcomes[i].answers, dom_ids,
            "batched stream vs DOM on `{q}`"
        );
    }
}

#[test]
fn engine_batch_answers_and_xml_match_serial_sessions() {
    for config in [EngineConfig::default(), EngineConfig::streaming()] {
        let engine = Engine::new(config);
        let doc = engine.open_document("hospital");
        hospital::install_sample(&doc).unwrap();
        for user in [User::Admin, User::Group(hospital::GROUP.into())] {
            let session = doc.session(user.clone());
            let queries: Vec<&str> = match user {
                User::Admin => hospital::DOC_QUERIES.iter().map(|(_, q)| *q).collect(),
                User::Group(_) => hospital::VIEW_QUERIES.iter().map(|(_, q)| *q).collect(),
            };
            let batch = session.query_batch(&queries).unwrap();
            let serialized = session.query_batch_serialized(&queries).unwrap();
            for ((q, batched), batched_xml) in
                queries.iter().zip(&batch.answers).zip(&serialized.answers)
            {
                // A batched answer is exactly the lone query's answer: DOM
                // engines leave `xml` unset for both, streaming engines
                // serialize both (view users get the access-controlled
                // rendering).
                let serial = session.query(q).unwrap();
                let context = format!("`{q}` as {user:?} in {:?} mode", config.mode);
                assert_eq!(batched.nodes, serial.nodes, "nodes of {context}");
                assert_eq!(batched.xml, serial.xml, "xml of {context}");
                assert_eq!(batched.mode, serial.mode, "mode of {context}");
                let serial_xml = session.query_serialized(q).unwrap();
                assert!(
                    batched_xml.xml.is_some(),
                    "serialized batch xml of {context}"
                );
                assert_eq!(
                    batched_xml.xml, serial_xml.xml,
                    "serialized xml of {context}"
                );
            }
            if config.mode == DocumentMode::Stream {
                // The whole batch cost one scan.
                let single = session.query_batch(&queries[..1]).unwrap();
                assert!(batch.events > 0);
                assert_eq!(batch.events, single.events);
            } else {
                assert_eq!(batch.events, 0, "DOM batches answer from the snapshot");
            }
            // An empty batch (e.g. a batch file of only comments) must
            // not scan at all.
            let empty = session.query_batch(&[]).unwrap();
            assert!(empty.answers.is_empty());
            assert_eq!(empty.events, 0);
        }
    }
}

/// Differential grid for the DOM batch path: on a generated hospital,
/// every `eval_threads` × [`EvalMode`] combination answers serialized
/// admin and S0-view batches exactly as per-query serialized evaluation
/// does — nodes, xml and the scan/jump pick — with and without a TAX
/// index (without one, every plan takes the inline scan).
#[test]
fn dom_batches_match_serial_queries_across_threads_and_modes() {
    for tax in [true, false] {
        for threads in [1usize, 2] {
            for eval_mode in [EvalMode::Auto, EvalMode::Scan, EvalMode::Jump] {
                let engine = Engine::new(EngineConfig {
                    eval_threads: threads,
                    eval_mode,
                    ..EngineConfig::default()
                });
                let doc = engine.open_document("wards");
                doc.load_dtd(hospital::DTD).unwrap();
                let tree = hospital::generate_document(engine.vocabulary(), 11, 2_000);
                doc.load_document_tree(tree).unwrap();
                doc.register_policy(hospital::GROUP, hospital::POLICY)
                    .unwrap();
                if tax {
                    doc.build_tax_index().unwrap();
                }
                let context = format!("tax={tax} threads={threads} {eval_mode:?}");
                let admin = doc.session(User::Admin);
                let researcher = doc.session(User::Group(hospital::GROUP.into()));
                let doc_queries: Vec<&str> =
                    hospital::DOC_QUERIES.iter().map(|(_, q)| *q).collect();
                let view_queries: Vec<&str> =
                    hospital::VIEW_QUERIES.iter().map(|(_, q)| *q).collect();
                let mut jumped = 0;
                for (session, queries) in [(&admin, &doc_queries), (&researcher, &view_queries)] {
                    let batch = session.query_batch_serialized(queries).unwrap();
                    assert_eq!(batch.events, 0, "{context}");
                    for (q, batched) in queries.iter().zip(&batch.answers) {
                        let serial = session.query_serialized(q).unwrap();
                        let who = format!("`{q}` as {:?}, {context}", session.user());
                        assert_eq!(batched.nodes, serial.nodes, "nodes of {who}");
                        assert_eq!(batched.xml, serial.xml, "xml of {who}");
                        assert_eq!(batched.mode, serial.mode, "mode of {who}");
                        jumped += usize::from(batched.mode == ExecMode::Jump);
                    }
                }
                // The cross-session mix: admin and view plans in one batch.
                let requests: Vec<(&Session, &str)> = doc_queries
                    .iter()
                    .map(|q| (&admin, *q))
                    .chain(view_queries.iter().map(|q| (&researcher, *q)))
                    .collect();
                let mixed = engine.evaluate_batch(&requests).unwrap();
                assert_eq!(mixed.events, 0, "{context}");
                for ((session, q), batched) in requests.iter().zip(&mixed.answers) {
                    let serial = session.query(q).unwrap();
                    let who = format!("mixed `{q}` as {:?}, {context}", session.user());
                    assert_eq!(batched.nodes, serial.nodes, "nodes of {who}");
                    assert_eq!(batched.mode, serial.mode, "mode of {who}");
                }
                match (tax, eval_mode) {
                    (false, _) | (true, EvalMode::Scan) => {
                        assert_eq!(jumped, 0, "{context} must scan every plan")
                    }
                    (true, _) => assert!(jumped > 0, "{context} must jump some plan"),
                }
            }
        }
    }
}

#[test]
fn batch_plans_come_from_the_shared_cache() {
    let engine = Engine::with_defaults();
    let doc = engine.open_document("h");
    hospital::install_sample(&doc).unwrap();
    let session = doc.session(User::Group(hospital::GROUP.into()));
    let queries: Vec<&str> = hospital::VIEW_QUERIES.iter().map(|(_, q)| *q).collect();
    let first = session.query_batch(&queries).unwrap();
    assert!(first.answers.iter().all(|a| !a.plan_cached));
    let second = session.query_batch(&queries).unwrap();
    assert!(
        second.answers.iter().all(|a| a.plan_cached),
        "the second batch must reuse every cached plan"
    );
    // A duplicate inside ONE batch hits the plan just cached by its twin.
    let dup = doc
        .query_batch(&User::Admin, &["//medication", "//medication"])
        .unwrap();
    assert!(!dup.answers[0].plan_cached);
    assert!(dup.answers[1].plan_cached);
    assert_eq!(dup.answers[0].nodes, dup.answers[1].nodes);
}
