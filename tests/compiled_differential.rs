//! Differential suite for the compiled evaluation plans: on random
//! documents × random Regular XPath queries, the dense-table executor
//! must agree with the naive reference evaluator in DOM mode (with and
//! without TAX pruning), stream mode, and batch mode. Buffered answer
//! XML must equal the DOM serialization of the naive answers, and the
//! counters must respect the invariants TAX pruning and scan sharing
//! promise.

use proptest::prelude::*;
use smoqe::workloads::hospital;
use smoqe_automata::compile::CompiledMfa;
use smoqe_automata::{compile, optimize::optimize};
use smoqe_hype::batch::evaluate_batch_stream_plans;
use smoqe_hype::dom::{evaluate_mfa_plan, DomOptions};
use smoqe_hype::stream::StreamOptions;
use smoqe_hype::{ExecMode, NoopObserver};
use smoqe_rxpath::random::{random_path, QueryGenConfig};
use smoqe_rxpath::{evaluate as naive, parse_path};
use smoqe_tax::TaxIndex;
use smoqe_xml::serialize::subtree_to_string;
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
        cases: 48,
        .. ProptestConfig::default()
    })]

    #[test]
    fn compiled_equals_naive_everywhere(
        doc_seed in 0u64..6,
        query_seed in 0u64..10_000,
        optimized in 0u64..2,
    ) {
        let optimized = optimized == 1;
        let (vocab, doc, cfg) = setup(doc_seed);
        let xml = doc.to_xml();
        let tax = TaxIndex::build(&doc);

        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(query_seed);
        let path = random_path(&mut rng, &cfg);
        let printed = path.display(&vocab).to_string();
        let path = parse_path(&printed, &vocab).unwrap();
        let mfa = if optimized {
            optimize(&compile(&path, &vocab))
        } else {
            compile(&path, &vocab)
        };
        let plan = CompiledMfa::compile(&mfa);
        let expected = naive(&doc, &path);

        // DOM mode, with and without TAX pruning: naive answers either
        // way; pruning only ever removes visits, and never fires without
        // an index.
        let dom = |tax: Option<&TaxIndex>| {
            evaluate_mfa_plan(&doc, &plan, &DomOptions { tax }, ExecMode::Compiled, &mut NoopObserver)
        };
        let (a_plain, s_plain) = dom(None);
        let (a_tax, s_tax) = dom(Some(&tax));
        prop_assert_eq!(&a_plain, &expected, "DOM vs naive on `{}`", printed);
        prop_assert_eq!(&a_tax, &expected, "DOM+TAX vs naive on `{}`", printed);
        prop_assert_eq!(s_plain.subtrees_pruned_tax, 0, "TAX prunes without TAX on `{}`", printed);
        prop_assert!(
            s_tax.nodes_visited <= s_plain.nodes_visited,
            "TAX raised visits {} -> {} on `{}`", s_plain.nodes_visited, s_tax.nodes_visited, printed
        );

        // Stream mode (one lane) and batch mode (the same plan twice in
        // one shared scan, one lane buffering XML): naive answers, and
        // every lane reports the events of the one scan.
        let expected_ids: Vec<u32> = expected.iter().map(|n| n.0).collect();
        let single = evaluate_batch_stream_plans(
            xml.as_bytes(),
            &[(&plan, StreamOptions::default())],
            &vocab,
            ExecMode::Compiled,
        )
        .unwrap();
        prop_assert_eq!(&single.outcomes[0].answers, &expected_ids, "stream on `{}`", printed);
        let lanes = [
            (&plan, StreamOptions::default()),
            (&plan, StreamOptions { want_xml: true }),
        ];
        let batch = evaluate_batch_stream_plans(xml.as_bytes(), &lanes, &vocab, ExecMode::Compiled)
            .unwrap();
        prop_assert_eq!(single.events, batch.events, "stream vs batch events on `{}`", printed);
        for lane in &batch.outcomes {
            prop_assert_eq!(&lane.answers, &expected_ids, "batch on `{}`", printed);
            prop_assert_eq!(lane.events, batch.events, "lane events on `{}`", printed);
        }
        // The XML-buffering lane must serialize each answer exactly as
        // the DOM serializer does.
        let want_xml: Vec<String> = expected.iter().map(|n| subtree_to_string(&doc, n)).collect();
        prop_assert_eq!(
            batch.outcomes[1].answer_xml.as_ref(),
            Some(&want_xml),
            "buffered answer XML vs DOM serialization on `{}`",
            printed
        );
    }

    /// The `Cow` fast path of `direct_text`/`string_value` must agree with
    /// the allocating originals on arbitrary generated documents.
    #[test]
    fn text_cow_accessors_agree(doc_seed in 0u64..50) {
        let vocab = Vocabulary::new();
        hospital::dtd(&vocab);
        let doc = hospital::generate_document(&vocab, doc_seed, 200);
        for n in doc.all_nodes() {
            let n = NodeId(n.0);
            prop_assert_eq!(doc.direct_text(n), doc.direct_text_cow(n).into_owned());
            prop_assert_eq!(doc.string_value(n), doc.string_value_cow(n).into_owned());
        }
    }
}
