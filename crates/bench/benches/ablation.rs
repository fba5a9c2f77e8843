//! Ablations of SMOQE's design choices (DESIGN.md §3):
//!
//! * MFA optimizer on/off — effect of trimming/GC on rewritten automata;
//! * guard-free closure fast path exercised vs predicate-heavy queries;
//! * compile+rewrite pipeline cost breakdown (including table
//!   compilation itself — the cost the plan cache amortizes away).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smoqe_automata::compile::CompiledMfa;
use smoqe_automata::{compile, optimize::optimize};
use smoqe_bench::HospitalSetup;
use smoqe_hype::dom::{evaluate_mfa_plan, DomOptions};
use smoqe_hype::{ExecMode, NoopObserver};
use smoqe_rewrite::rewrite;
use smoqe_rxpath::parse_path;

fn bench_ablation(c: &mut Criterion) {
    let setup = HospitalSetup::generated(31, 20_000);
    let mut group = c.benchmark_group("ablation");

    // Optimizer on/off over rewritten (view) queries, where trimming
    // matters most: rewriting produces dead product states.
    let queries = [
        ("view_meds", "hospital/patient/treatment/medication"),
        (
            "view_closure",
            "hospital/patient/(parent/patient)*/treatment",
        ),
        (
            "view_pred",
            "hospital/patient[treatment/medication = 'autism']",
        ),
    ];
    for (name, q) in queries {
        let path = parse_path(q, &setup.vocab).unwrap();
        let raw = rewrite(&path, &setup.spec);
        let opt = optimize(&raw);
        // Plans are precompiled outside the timed loops (as the engine's
        // plan cache does) so each series isolates pure evaluation.
        let raw_plan = CompiledMfa::compile(&raw);
        let opt_plan = CompiledMfa::compile(&opt);
        group.bench_with_input(
            BenchmarkId::new("eval_unoptimized", name),
            &raw_plan,
            |b, p| {
                b.iter(|| {
                    evaluate_mfa_plan(
                        &setup.doc,
                        p,
                        &DomOptions::default(),
                        ExecMode::Compiled,
                        &mut NoopObserver,
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("eval_optimized", name),
            &opt_plan,
            |b, p| {
                b.iter(|| {
                    evaluate_mfa_plan(
                        &setup.doc,
                        p,
                        &DomOptions::default(),
                        ExecMode::Compiled,
                        &mut NoopObserver,
                    )
                })
            },
        );
    }

    // Pipeline costs: parse, compile, rewrite, optimize.
    let q0 = smoqe::workloads::hospital::Q0;
    group.bench_function("parse_q0", |b| {
        b.iter(|| parse_path(q0, &setup.vocab).unwrap())
    });
    let path = parse_path(q0, &setup.vocab).unwrap();
    group.bench_function("compile_q0", |b| b.iter(|| compile(&path, &setup.vocab)));
    let view_q = parse_path("hospital/patient/(parent/patient)*/treatment", &setup.vocab).unwrap();
    group.bench_function("rewrite_view_closure", |b| {
        b.iter(|| rewrite(&view_q, &setup.spec))
    });
    let rewritten = rewrite(&view_q, &setup.spec);
    group.bench_function("optimize_rewritten", |b| b.iter(|| optimize(&rewritten)));
    let optimized = optimize(&rewritten);
    group.bench_function("compile_tables_rewritten", |b| {
        b.iter(|| CompiledMfa::compile(&optimized))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ablation
}
criterion_main!(benches);
