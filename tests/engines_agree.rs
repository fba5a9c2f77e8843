//! Cross-engine agreement: the naive reference evaluator, HyPE in DOM
//! mode (with and without TAX, with and without the MFA optimizer), HyPE
//! in StAX mode, and the two-pass baseline must all return identical
//! answers on identical inputs.

use smoqe::workloads::{hospital, org};
use smoqe_automata::{compile, optimize::optimize};
use smoqe_hype::dom::{evaluate_mfa_with, DomOptions};
use smoqe_hype::stream::{evaluate_stream, StreamOptions};
use smoqe_hype::{evaluate_mfa_twopass, NoopObserver};
use smoqe_rxpath::{evaluate as naive, parse_path};
use smoqe_tax::TaxIndex;
use smoqe_xml::{Document, NodeId, Vocabulary};

fn check_all_engines(doc: &Document, vocab: &Vocabulary, query: &str) {
    let path = parse_path(query, vocab).unwrap();
    let expected = naive(doc, &path);
    let xml = doc.to_xml();
    let tax = TaxIndex::build(doc);

    for optimized in [false, true] {
        let mfa = if optimized {
            optimize(&compile(&path, vocab))
        } else {
            compile(&path, vocab)
        };
        // DOM, no TAX.
        let (plain, _) = evaluate_mfa_with(doc, &mfa, &DomOptions::default(), &mut NoopObserver);
        assert_eq!(
            plain, expected,
            "HyPE/DOM differs (`{query}`, opt={optimized})"
        );
        // DOM, TAX.
        let opts = DomOptions { tax: Some(&tax) };
        let (pruned, _) = evaluate_mfa_with(doc, &mfa, &opts, &mut NoopObserver);
        assert_eq!(
            pruned, expected,
            "HyPE/TAX differs (`{query}`, opt={optimized})"
        );
        // Stream.
        let out = evaluate_stream(xml.as_bytes(), &mfa, vocab, StreamOptions::default()).unwrap();
        let stream_nodes: Vec<NodeId> = out.answers.into_iter().map(NodeId).collect();
        assert_eq!(
            stream_nodes,
            expected.as_slice(),
            "HyPE/stream differs (`{query}`, opt={optimized})"
        );
        // Two-pass.
        let (two, _) = evaluate_mfa_twopass(doc, &mfa);
        assert_eq!(
            two, expected,
            "two-pass differs (`{query}`, opt={optimized})"
        );
    }
}

#[test]
fn engines_agree_on_hospital_documents() {
    let vocab = Vocabulary::new();
    hospital::dtd(&vocab);
    for seed in [2u64, 17] {
        let doc = hospital::generate_document(&vocab, seed, 1_500);
        for (_, q) in hospital::DOC_QUERIES {
            check_all_engines(&doc, &vocab, q);
        }
    }
}

#[test]
fn engines_agree_on_org_documents() {
    let vocab = Vocabulary::new();
    org::dtd(&vocab);
    let doc = org::generate_document(&vocab, 8, 1_500);
    for q in [
        "//ename",
        "company/dept/(dept)*/emp",
        "//emp[review]/ename",
        "//emp[not(review) and salary]",
        "company/dept[emp/review = 'public']/dname",
        "//dept[dname = 'db']/emp/ename",
    ] {
        check_all_engines(&doc, &vocab, q);
    }
}

#[test]
fn engines_agree_on_adversarial_shapes() {
    let vocab = Vocabulary::new();
    // Deep recursion, text at several levels, empty elements.
    let doc = Document::parse_str(
        "<a>top<b><a>mid<b><a>deep<c>x</c></a></b></a></b><c>y</c><b/></a>",
        &vocab,
    )
    .unwrap();
    for q in [
        "(a/b)*",
        "(a/b)*/a/c",
        "a[b/a]/c",
        "a/b[a[c = 'x']]",
        "//a[text() = 'deep']",
        "//a[not(b)]",
        "a/(b/a | c)*",
        "a/b[not(a[c])]",
        "//*",
        ".",
    ] {
        check_all_engines(&doc, &vocab, q);
    }
}

#[test]
fn engines_agree_on_predicate_ordering_edge_cases() {
    let vocab = Vocabulary::new();
    // Witness appears before / after / around the candidate.
    for xml in [
        "<a><w/><b><x/></b></a>",
        "<a><b><x/></b><w/></a>",
        "<a><b><x/><w/></b><b><w/><x/></b><b><x/></b></a>",
    ] {
        let doc = Document::parse_str(xml, &vocab).unwrap();
        for q in ["a[w]/b/x", "a/b[w]/x", "a/b[x]/w", "a[w and b]/b[x]"] {
            check_all_engines(&doc, &vocab, q);
        }
    }
}

#[test]
fn engines_agree_with_nested_negation() {
    let vocab = Vocabulary::new();
    let doc = Document::parse_str("<r><p><q><s>v</s></q></p><p><q/></p><p/></r>", &vocab).unwrap();
    for q in [
        "r/p[not(q)]",
        "r/p[not(q[s])]",
        "r/p[not(q[not(s)])]",
        "r/p[q[not(s = 'v')]]",
        "r/p[not(q/s = 'w') and q]",
    ] {
        check_all_engines(&doc, &vocab, q);
    }
}
