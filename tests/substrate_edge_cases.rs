//! Cross-crate edge-case coverage of the substrate: parser/serializer
//! round-trips on adversarial inputs, deep documents, unicode text,
//! vocabulary sharing, and generator/DTD interplay on unusual schemas.

use smoqe_rxpath::{evaluate, parse_path};
use smoqe_xml::stax::{PullParser, XmlEvent};
use smoqe_xml::{generate, Document, Dtd, GeneratorConfig, TreeBuilder, Vocabulary};

#[test]
fn deep_documents_do_not_overflow_any_engine() {
    // 5,000 levels of nesting: every evaluator must use iterative
    // traversal (explicit stacks), not recursion.
    let vocab = Vocabulary::new();
    let mut b = TreeBuilder::new(vocab.clone());
    let a = vocab.intern("a");
    let depth = 5_000;
    for _ in 0..depth {
        b.start_element(a);
    }
    b.text("bottom");
    for _ in 0..depth {
        b.end_element();
    }
    let doc = b.finish().unwrap();
    assert_eq!(doc.max_depth(), depth); // a-chain + text at the last level

    let q = parse_path("(a)*[not(a)]", &vocab).unwrap();
    let deepest = evaluate(&doc, &q);
    assert_eq!(deepest.len(), 1);

    let mfa = smoqe_automata::compile(&q, &vocab);
    let (hype, stats) = smoqe_hype::evaluate_mfa(&doc, &mfa);
    assert_eq!(hype, deepest);
    assert_eq!(stats.max_depth, depth);

    // Streaming over the serialized form.
    let xml = doc.to_xml();
    let out =
        smoqe_hype::evaluate_stream(xml.as_bytes(), &mfa, &vocab, Default::default()).unwrap();
    assert_eq!(out.answers.len(), 1);
}

#[test]
fn unicode_text_survives_parse_serialize_query() {
    let vocab = Vocabulary::new();
    let xml = "<a><b>caf\u{e9} \u{1F600} \u{4e2d}\u{6587}</b><b>plain</b></a>";
    let doc = Document::parse_str(xml, &vocab).unwrap();
    assert_eq!(doc.to_xml(), xml);
    let q = parse_path(
        "a/b[text() = 'caf\u{e9} \u{1F600} \u{4e2d}\u{6587}']",
        &vocab,
    )
    .unwrap();
    assert_eq!(evaluate(&doc, &q).len(), 1);
    // And through the streaming evaluator (byte-capped accumulation must
    // respect char boundaries).
    let mfa = smoqe_automata::compile(&q, &vocab);
    let out =
        smoqe_hype::evaluate_stream(xml.as_bytes(), &mfa, &vocab, Default::default()).unwrap();
    assert_eq!(out.answers.len(), 1);
}

#[test]
fn entities_round_trip_through_every_layer() {
    let vocab = Vocabulary::new();
    let xml = r#"<m><v k="a&amp;b">1 &lt; 2 &amp; 3 &gt; 2</v></m>"#;
    let doc = Document::parse_str(xml, &vocab).unwrap();
    let v = doc.first_child(doc.root()).unwrap();
    assert_eq!(doc.direct_text(v), "1 < 2 & 3 > 2");
    assert_eq!(doc.attribute(v, "k"), Some("a&b"));
    assert_eq!(
        doc.to_xml(),
        r#"<m><v k="a&amp;b">1 &lt; 2 &amp; 3 &gt; 2</v></m>"#
    );
}

#[test]
fn pull_parser_reports_positions_and_depth() {
    let mut p = PullParser::from_str("<a>\n<b>x</b>\n</a>");
    assert!(matches!(
        p.next_event().unwrap(),
        XmlEvent::StartElement { .. }
    ));
    assert_eq!(p.depth(), 1);
    assert!(matches!(
        p.next_event().unwrap(),
        XmlEvent::StartElement { .. }
    ));
    assert_eq!(p.depth(), 2);
    assert!(p.byte_offset() > 0);
}

#[test]
fn shared_vocabulary_keeps_queries_portable_across_documents() {
    let vocab = Vocabulary::new();
    let d1 = Document::parse_str("<a><b>1</b></a>", &vocab).unwrap();
    let d2 = Document::parse_str("<a><b>2</b><b>3</b></a>", &vocab).unwrap();
    let q = parse_path("a/b", &vocab).unwrap();
    assert_eq!(evaluate(&d1, &q).len(), 1);
    assert_eq!(evaluate(&d2, &q).len(), 2);
}

#[test]
fn generator_handles_unusual_content_models() {
    let vocab = Vocabulary::new();
    let dtd = Dtd::parse(
        "<!ELEMENT r ((a | b)+, c?, (d, e)*)>\
         <!ELEMENT a EMPTY><!ELEMENT b (#PCDATA)><!ELEMENT c (r?)>\
         <!ELEMENT d (#PCDATA)><!ELEMENT e EMPTY>",
        &vocab,
    )
    .unwrap();
    for seed in 0..10 {
        let doc = generate(
            &dtd,
            &GeneratorConfig {
                seed,
                ..Default::default()
            },
        )
        .unwrap();
        dtd.validate(&doc)
            .unwrap_or_else(|err| panic!("seed {seed}: {err}"));
    }
}

#[test]
fn mixed_content_queries() {
    let vocab = Vocabulary::new();
    let dtd = Dtd::parse(
        "<!ELEMENT doc (#PCDATA | em | strong)*><!ELEMENT em (#PCDATA)><!ELEMENT strong (#PCDATA)>",
        &vocab,
    )
    .unwrap();
    let doc = Document::parse_str(
        "<doc>plain <em>emphasis</em> more <strong>bold</strong> tail</doc>",
        &vocab,
    )
    .unwrap();
    dtd.validate(&doc).unwrap();
    let q = parse_path("doc/(em | strong)", &vocab).unwrap();
    assert_eq!(evaluate(&doc, &q).len(), 2);
    // Direct text of <doc> is the concatenation of its own text nodes.
    let q2 = parse_path("doc[text() = 'plain  more  tail']", &vocab).unwrap();
    assert_eq!(evaluate(&doc, &q2).len(), 1);
}

#[test]
fn answers_and_ids_are_stable_between_dom_parse_and_stream_numbering() {
    // The stream evaluator numbers nodes exactly like the DOM builder:
    // parse -> ids and stream -> ids must coincide for mixed text/element
    // content and self-closing tags.
    let vocab = Vocabulary::new();
    let xml = "<a>t1<b/>t2<c><d>x</d></c>t3</a>";
    let doc = Document::parse_str(xml, &vocab).unwrap();
    let q = parse_path("//d", &vocab).unwrap();
    let mfa = smoqe_automata::compile(&q, &vocab);
    let (dom, _) = smoqe_hype::evaluate_mfa(&doc, &mfa);
    let stream =
        smoqe_hype::evaluate_stream(xml.as_bytes(), &mfa, &vocab, Default::default()).unwrap();
    assert_eq!(stream.answers, dom.iter().map(|n| n.0).collect::<Vec<_>>());
    // The id really points at <d> in the DOM.
    let d = smoqe_xml::NodeId(stream.answers[0]);
    assert_eq!(&*vocab.name(doc.label(d).unwrap()), "d");
}

#[test]
fn empty_documents_and_empty_answers() {
    let vocab = Vocabulary::new();
    let doc = Document::parse_str("<lonely/>", &vocab).unwrap();
    assert_eq!(doc.node_count(), 1);
    for q in ["lonely", "other", "lonely/child", "//x", "(lonely)*"] {
        let path = parse_path(q, &vocab).unwrap();
        let naive = evaluate(&doc, &path);
        let mfa = smoqe_automata::compile(&path, &vocab);
        let (hype, _) = smoqe_hype::evaluate_mfa(&doc, &mfa);
        assert_eq!(hype, naive, "query {q}");
    }
}
