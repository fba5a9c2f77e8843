//! E3: HyPE vs the two-pass baseline vs naive navigation.
//!
//! The paper's evaluator claim: one top-down pass + a Cans pass beats
//! bottom-up+top-down tree-automata evaluation and per-node navigation
//! ("outperforms popular XPath engines such as Xalan"). The
//! `dom_compiled` and `stream_compiled` series run a plan precompiled
//! once, as the engine's plan cache does.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smoqe::workloads::hospital;
use smoqe_automata::compile::CompiledMfa;
use smoqe_automata::{compile, optimize::optimize};
use smoqe_bench::HospitalSetup;
use smoqe_hype::batch::evaluate_batch_stream_plans;
use smoqe_hype::dom::{evaluate_mfa_plan, DomOptions};
use smoqe_hype::stream::StreamOptions;
use smoqe_hype::{evaluate_mfa, evaluate_mfa_twopass, ExecMode, NoopObserver};
use smoqe_rxpath::{evaluate as naive, parse_path};

fn bench_engines(c: &mut Criterion) {
    let setup = HospitalSetup::generated(42, 20_000);
    let xml = setup.doc.to_xml();
    let mut group = c.benchmark_group("eval_engines");
    for (name, q) in hospital::DOC_QUERIES {
        let path = parse_path(q, &setup.vocab).unwrap();
        let mfa = optimize(&compile(&path, &setup.vocab));
        let plan = CompiledMfa::compile(&mfa);
        // `hype` times the convenience API, which compiles the plan on
        // the fly per call (as PR-3's `Machine::new` re-ran the per-plan
        // analyses per call) — what an uncached caller pays. The
        // `dom_*`/`stream_*` series below precompile once, as the
        // engine's plan cache does.
        group.bench_with_input(BenchmarkId::new("hype", name), &mfa, |b, m| {
            b.iter(|| evaluate_mfa(&setup.doc, m))
        });
        group.bench_with_input(BenchmarkId::new("dom_compiled", name), &plan, |b, p| {
            b.iter(|| {
                evaluate_mfa_plan(
                    &setup.doc,
                    p,
                    &DomOptions::default(),
                    ExecMode::Compiled,
                    &mut NoopObserver,
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("stream_compiled", name), &plan, |b, p| {
            b.iter(|| {
                let lane = [(p, StreamOptions::default())];
                evaluate_batch_stream_plans(xml.as_bytes(), &lane, &setup.vocab, ExecMode::Compiled)
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("twopass", name), &mfa, |b, m| {
            b.iter(|| evaluate_mfa_twopass(&setup.doc, m))
        });
        group.bench_with_input(BenchmarkId::new("naive", name), &path, |b, p| {
            b.iter(|| naive(&setup.doc, p))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_engines
}
criterion_main!(benches);
