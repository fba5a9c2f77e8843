//! Batched vs serial streaming: how much does sharing the document scan
//! save when a whole query batch targets one document?
//!
//! Serial streaming costs one full parse per query; the batched driver
//! feeds every pull-parser event to all machines, so the batch costs one
//! parse total plus the (shared) automaton work. The gap widens with
//! batch size — this is the serving-scale story of the paper's one-scan
//! property.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smoqe::workloads::hospital;
use smoqe_automata::compile::CompiledMfa;
use smoqe_automata::{compile, Mfa};
use smoqe_hype::batch::evaluate_batch_stream_plans;
use smoqe_hype::stream::StreamOptions;
use smoqe_hype::ExecMode;
use smoqe_xml::Vocabulary;

fn setup(target_nodes: usize) -> (Vocabulary, String, Vec<Mfa>) {
    let vocab = Vocabulary::new();
    hospital::dtd(&vocab);
    let doc = hospital::generate_document(&vocab, 17, target_nodes);
    let xml = doc.to_xml();
    // 32 plans cycling through the workload queries.
    let mfas: Vec<Mfa> = (0..32)
        .map(|i| {
            let (_, q) = hospital::DOC_QUERIES[i % hospital::DOC_QUERIES.len()];
            let path = smoqe_rxpath::parse_path(q, &vocab).unwrap();
            compile(&path, &vocab)
        })
        .collect();
    (vocab, xml, mfas)
}

/// Answers of `plans` over one shared scan of `xml`, counted.
fn run_batched(xml: &str, plans: &[&CompiledMfa], vocab: &Vocabulary) -> usize {
    let each: Vec<(&CompiledMfa, StreamOptions)> = plans
        .iter()
        .map(|&p| (p, StreamOptions::default()))
        .collect();
    evaluate_batch_stream_plans(xml.as_bytes(), &each, vocab, ExecMode::Compiled)
        .unwrap()
        .outcomes
        .iter()
        .map(|o| o.answers.len())
        .sum()
}

/// One scan per plan: the 1-lane case of [`run_batched`], repeated.
fn run_serial(xml: &str, plans: &[&CompiledMfa], vocab: &Vocabulary) -> usize {
    plans
        .iter()
        .map(|&plan| run_batched(xml, &[plan], vocab))
        .sum()
}

fn bench_batch_scan(c: &mut Criterion) {
    let (vocab, xml, mfas) = setup(30_000);
    let compiled: Vec<CompiledMfa> = mfas.iter().map(CompiledMfa::compile).collect();
    let mut group = c.benchmark_group("batch_scan");
    for batch_size in [1usize, 4, 8, 16, 32] {
        let plans: Vec<&CompiledMfa> = compiled.iter().take(batch_size).collect();
        // Correctness guard: batching may not change any answer.
        let reference = run_serial(&xml, &plans, &vocab);
        assert_eq!(
            reference,
            run_batched(&xml, &plans, &vocab),
            "batched answers diverged at batch size {batch_size}"
        );
        group.bench_with_input(
            BenchmarkId::new("serial", batch_size),
            &batch_size,
            |b, _| b.iter(|| run_serial(&xml, &plans, &vocab)),
        );
        group.bench_with_input(
            BenchmarkId::new("batched", batch_size),
            &batch_size,
            |b, _| b.iter(|| run_batched(&xml, &plans, &vocab)),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_batch_scan
}
criterion_main!(benches);
