//! Batched evaluation: one document scan must serve a whole query batch
//! with answers identical to per-query evaluation.
//!
//! * 32 random Regular XPath queries over a generated hospital document:
//!   DOM, serial stream and batched stream all agree, and the batch
//!   reports exactly one document's worth of parser events;
//! * the engine-level batch API (`Session::query_batch`) agrees with
//!   serial `Session::query` in both DOM and stream configurations;
//! * serialized batch answers match serial ones (stream mode).

use rand::SeedableRng;
use smoqe::workloads::hospital;
use smoqe::{DocumentMode, Engine, EngineConfig, User};
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
            for (q, batched) in queries.iter().zip(&batch.answers) {
                let serial = session.query(q).unwrap();
                assert_eq!(
                    batched.nodes, serial.nodes,
                    "batched `{q}` as {user:?} in {:?} mode",
                    config.mode
                );
                // Batches always stream, so xml is always present; in
                // stream mode it must match the serial rendering exactly
                // (view users get the access-controlled rendering).
                assert!(batched.xml.is_some(), "batch xml for `{q}` as {user:?}");
                if config.mode == DocumentMode::Stream {
                    assert_eq!(batched.xml, serial.xml, "xml for `{q}` as {user:?}");
                }
            }
            // The whole batch cost one scan.
            let single = session.query_batch(&queries[..1]).unwrap();
            assert_eq!(batch.events, single.events);
            // An empty batch (e.g. a batch file of only comments) must
            // not scan at all.
            let empty = session.query_batch(&[]).unwrap();
            assert!(empty.answers.is_empty());
            assert_eq!(empty.events, 0);
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
