//! Property-based tests (proptest): the workspace invariants under
//! randomly generated documents and randomly generated Regular XPath.
//!
//! * print → parse round-trips the AST;
//! * every evaluator agrees with the naive reference on random inputs;
//! * the MFA optimizer never changes answers;
//! * TAX pruning never changes answers;
//! * TAX persistence round-trips;
//! * generated documents always validate against their DTD.

use proptest::prelude::*;
use smoqe::workloads::hospital;
use smoqe_automata::{compile, optimize::optimize};
use smoqe_hype::dom::{evaluate_mfa_with, DomOptions};
use smoqe_hype::stream::{evaluate_stream, StreamOptions};
use smoqe_hype::{evaluate_mfa_twopass, NoopObserver};
use smoqe_rxpath::random::{random_path, QueryGenConfig};
use smoqe_rxpath::{evaluate as naive, parse_path};
use smoqe_tax::TaxIndex;
use smoqe_xml::{Document, NodeId, Vocabulary};

/// One prepared document + query-generation config per RNG seed.
fn setup(doc_seed: u64) -> (Vocabulary, Document, QueryGenConfig) {
    let vocab = Vocabulary::new();
    hospital::dtd(&vocab);
    let doc = hospital::generate_document(&vocab, doc_seed, 400);
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
    (vocab, doc, cfg)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    #[test]
    fn print_parse_round_trip(seed in 0u64..10_000) {
        let vocab = Vocabulary::new();
        hospital::dtd(&vocab);
        let labels: Vec<_> = ["a", "b", "c", "d"].iter().map(|n| vocab.intern(n)).collect();
        let cfg = QueryGenConfig::new(labels, vec!["x".into(), "y".into()]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        use rand::SeedableRng;
        let p = random_path(&mut rng, &cfg);
        let printed = p.display(&vocab).to_string();
        let reparsed = parse_path(&printed, &vocab)
            .unwrap_or_else(|e| panic!("unparseable `{printed}`: {e}"));
        prop_assert_eq!(reparsed.display(&vocab).to_string(), printed);
    }

    #[test]
    fn all_engines_agree_on_random_queries(doc_seed in 0u64..4, query_seed in 0u64..10_000) {
        use rand::SeedableRng;
        let (vocab, doc, cfg) = setup(doc_seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(query_seed);
        let path = random_path(&mut rng, &cfg);
        let expected = naive(&doc, &path);

        let mfa = compile(&path, &vocab);
        let (dom, _) = evaluate_mfa_with(&doc, &mfa, &DomOptions::default(), &mut NoopObserver);
        prop_assert_eq!(&dom, &expected, "HyPE/DOM, query {}", path.display(&vocab));

        let opt = optimize(&mfa);
        let (dom_opt, _) = evaluate_mfa_with(&doc, &opt, &DomOptions::default(), &mut NoopObserver);
        prop_assert_eq!(&dom_opt, &expected, "optimized, query {}", path.display(&vocab));

        let tax = TaxIndex::build(&doc);
        let opts = DomOptions { tax: Some(&tax) };
        let (pruned, _) = evaluate_mfa_with(&doc, &opt, &opts, &mut NoopObserver);
        prop_assert_eq!(&pruned, &expected, "TAX, query {}", path.display(&vocab));

        let (two, _) = evaluate_mfa_twopass(&doc, &mfa);
        prop_assert_eq!(&two, &expected, "two-pass, query {}", path.display(&vocab));

        let xml = doc.to_xml();
        let stream = evaluate_stream(xml.as_bytes(), &mfa, &vocab, StreamOptions::default()).unwrap();
        let stream_nodes: Vec<NodeId> = stream.answers.into_iter().map(NodeId).collect();
        prop_assert_eq!(stream_nodes.as_slice(), expected.as_slice(),
            "stream, query {}", path.display(&vocab));
    }

    #[test]
    fn generated_documents_always_validate(seed in 0u64..200, size in 50usize..600) {
        let vocab = Vocabulary::new();
        let dtd = hospital::dtd(&vocab);
        let doc = hospital::generate_document(&vocab, seed, size);
        prop_assert!(dtd.validate(&doc).is_ok());
        prop_assert!(doc.node_count() >= size);
    }

    #[test]
    fn document_serialization_round_trips(seed in 0u64..200) {
        let vocab = Vocabulary::new();
        hospital::dtd(&vocab);
        let doc = hospital::generate_document(&vocab, seed, 200);
        let xml = doc.to_xml();
        let doc2 = Document::parse_str(&xml, &vocab).unwrap();
        prop_assert_eq!(doc2.to_xml(), xml);
        prop_assert_eq!(doc2.node_count(), doc.node_count());
    }

    #[test]
    fn tax_persistence_round_trips(seed in 0u64..100) {
        let vocab = Vocabulary::new();
        hospital::dtd(&vocab);
        let doc = hospital::generate_document(&vocab, seed, 300);
        let tax = TaxIndex::build(&doc);
        let mut buf = Vec::new();
        tax.save(&mut buf, &vocab).unwrap();
        let loaded = TaxIndex::load(&mut &buf[..], &vocab).unwrap();
        for n in doc.all_nodes() {
            prop_assert_eq!(
                tax.descendant_labels(n).iter().collect::<Vec<_>>(),
                loaded.descendant_labels(n).iter().collect::<Vec<_>>()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        .. ProptestConfig::default()
    })]

    /// The headline invariant under random *view* queries: rewriting over
    /// the derived hospital view is equivalent to materialize-then-query.
    #[test]
    fn rewriting_equivalence_on_random_view_queries(doc_seed in 0u64..3, query_seed in 0u64..5_000) {
        use rand::SeedableRng;
        use smoqe_view::{derive, materialize, AccessPolicy};

        let vocab = Vocabulary::new();
        let dtd = hospital::dtd(&vocab);
        let policy = AccessPolicy::parse(dtd.clone(), hospital::POLICY).unwrap();
        let spec = derive(&policy);
        let doc = hospital::generate_document(&vocab, doc_seed, 300);

        // Queries over the *view* alphabet.
        let view_labels = vec![
            vocab.lookup("hospital").unwrap(),
            vocab.lookup("patient").unwrap(),
            vocab.lookup("parent").unwrap(),
            vocab.lookup("treatment").unwrap(),
            vocab.lookup("medication").unwrap(),
        ];
        let mut cfg = QueryGenConfig::new(view_labels, vec!["autism".into(), "flu".into()]);
        cfg.max_depth = 3;
        let mut rng = rand::rngs::StdRng::seed_from_u64(query_seed);
        let q = random_path(&mut rng, &cfg);

        let mfa = smoqe_rewrite::rewrite(&q, &spec);
        let (got, _) = smoqe_hype::evaluate_mfa(&doc, &mfa);
        let view = materialize(&spec, &doc).unwrap();
        let expected = view.origins_of(naive(&view.doc, &q).iter());
        prop_assert_eq!(got.as_slice(), expected.as_slice(),
            "Q'(T) != Q(V(T)) for {}", q.display(&vocab));
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// The wire codec invariant behind the chaos harness's dribble
    /// fault: however the TCP layer chops the byte stream — one byte at
    /// a time, across frame boundaries, mid-header — `FrameBuffer`
    /// reassembles exactly the frames that were sent, in order, with
    /// ids and payloads intact.
    #[test]
    fn frame_reassembly_is_chop_invariant(
        seed in 0u64..100_000,
        nframes in 1usize..8,
        max_chop in 1usize..9,
    ) {
        use smoqe_server::proto::{FrameBuffer, Request, DEFAULT_MAX_FRAME_LEN};

        // Seed-derived queries and chop sizes (xorshift64*, the
        // workspace's usual deterministic generator).
        let mut state = seed.wrapping_mul(2).max(1);
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let alphabet: Vec<char> = "abcdefghij/*()@ ".chars().collect();
        let requests: Vec<Request> = (0..nframes)
            .map(|i| Request::Query {
                query: (0..next() as usize % 40)
                    .map(|_| alphabet[next() as usize % alphabet.len()])
                    .collect(),
                deadline_ms: (next() % 5_000) as u32 + i as u32,
            })
            .collect();
        let mut stream = Vec::new();
        for (i, r) in requests.iter().enumerate() {
            stream.extend_from_slice(&r.encode(i as u64 + 1));
        }

        // Deliver the stream in random chops of 1..=max_chop bytes, the
        // way the chaos proxy's dribble fault does at its cruelest.
        let mut fb = FrameBuffer::new();
        let mut decoded = Vec::new();
        let mut ids = Vec::new();
        let mut offset = 0;
        while offset < stream.len() {
            let n = (1 + next() as usize % max_chop).min(stream.len() - offset);
            fb.push(&stream[offset..offset + n]);
            offset += n;
            while let Some(frame) = fb.next_frame(DEFAULT_MAX_FRAME_LEN).unwrap() {
                ids.push(frame.request_id);
                decoded.push(Request::decode(frame.op, &frame.payload).unwrap());
            }
        }
        prop_assert_eq!(decoded, requests);
        prop_assert_eq!(ids, (1..=nframes as u64).collect::<Vec<_>>());
    }
}
