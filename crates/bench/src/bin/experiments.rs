//! The experiment harness: regenerates every demonstration claim of the
//! paper as a table on stdout; `bench` records its series in BENCH.json.
//!
//! ```text
//! cargo run --release -p smoqe-bench --bin experiments            # all
//! cargo run --release -p smoqe-bench --bin experiments -- e3 e5   # subset
//! cargo run --release -p smoqe-bench --bin experiments -- quick   # small sizes
//! cargo run --release -p smoqe-bench --bin experiments -- bench   # BENCH.json
//! ```

use smoqe::workloads::hospital;
use smoqe::{Engine, EngineConfig, User};
use smoqe_automata::compile::CompiledMfa;
use smoqe_automata::{compile, optimize::optimize};
use smoqe_bench::{fmt_duration, time, time_mean, time_min, HospitalSetup, OrgSetup, Table};
use smoqe_hype::batch::evaluate_batch_stream_plans;
use smoqe_hype::dom::{evaluate_mfa_plan, evaluate_mfa_with, DomOptions};
use smoqe_hype::stream::{evaluate_stream, StreamOptions};
use smoqe_hype::{
    evaluate_jump_frontier, evaluate_mfa, evaluate_mfa_twopass_report, ExecMode, NoopObserver,
    WorkBudget,
};
use smoqe_rewrite::{rewrite, rewrite_direct};
use smoqe_rxpath::{evaluate as naive_evaluate, parse_path};
use smoqe_server::{run_traffic, Server, ServerConfig, TrafficConfig};
use smoqe_tax::TaxIndex;
use smoqe_view::{derive, materialize, AccessPolicy};
use smoqe_xml::{generate_to_writer, Document, Vocabulary};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "quick");
    let selected: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| a.starts_with('e') || *a == "bench" || *a == "largedoc")
        .collect();
    let run = |name: &str| selected.is_empty() || selected.contains(&name);

    println!("SMOQE experiment harness (quick={quick})");
    println!("=========================================\n");
    if run("e1") {
        e1();
    }
    if run("e2") {
        e2(quick);
    }
    if run("e3") {
        e3(quick);
    }
    if run("e4") {
        e4(quick);
    }
    if run("e5") {
        e5(quick);
    }
    if run("e6") {
        e6(quick);
    }
    if run("e7") {
        e7();
    }
    // The machine-readable perf trajectory is only written on request:
    // `experiments -- bench [quick]`.
    if selected.contains(&"bench") {
        bench_json(quick);
    }
    // Large-document smoke (`experiments -- largedoc [quick]`): parse a
    // ~100 MB synthetic document and keep peak RSS under budget.
    if selected.contains(&"largedoc") {
        largedoc(quick);
    }
}

/// Generates a large (~100 MB, or ~10 MB with `quick`) synthetic hospital
/// document on disk, parses it into the span-arena DOM, runs one
/// selective query, and asserts peak RSS stays within a fixed multiple of
/// the document size — a CI guard against memory-footprint regressions in
/// the zero-copy document storage.
fn largedoc(quick: bool) {
    println!("## largedoc  ~100 MB parse + query under a peak-RSS budget\n");
    let target_mb: usize = if quick { 10 } else { 100 };
    let vocab = Vocabulary::new();
    let dtd = hospital::dtd(&vocab);
    // The hospital DTD serializes at roughly 14 bytes of XML per node.
    let target_nodes = target_mb * (1 << 20) / 14;
    let config = hospital::generator_config(&vocab, 99, target_nodes);
    let path = std::env::temp_dir().join("smoqe-largedoc.xml");
    {
        let file = std::fs::File::create(&path).expect("create large doc");
        generate_to_writer(&dtd, &config, std::io::BufWriter::new(file)).expect("generate");
    }
    let bytes = std::fs::metadata(&path).expect("stat large doc").len();
    let (doc, parse_d) = time(|| smoqe_xml::parse_file(&path, &vocab).expect("parse large doc"));
    std::fs::remove_file(&path).ok();
    let plan = {
        let q = parse_path("//test", &vocab).unwrap();
        CompiledMfa::compile(&optimize(&compile(&q, &vocab)))
    };
    let ((answers, _), query_d) = time(|| {
        evaluate_mfa_plan(
            &doc,
            &plan,
            &DomOptions::default(),
            ExecMode::Compiled,
            &mut NoopObserver,
        )
    });
    let mb = bytes as f64 / (1 << 20) as f64;
    println!(
        "document: {mb:.1} MB, {} nodes; parse {} ({:.1} MB/s); //test -> {} answers in {}",
        doc.node_count(),
        fmt_duration(parse_d),
        mb / parse_d.as_secs_f64(),
        answers.len(),
        fmt_duration(query_d),
    );
    println!("memory: {}", doc.memory_summary());
    match peak_rss_mb() {
        Some(peak) => {
            // Budget: buffer + span tables + transient parse copies stay
            // well under 12x the serialized size (the old string-arena
            // DOM plus a separate raw copy trended far above this).
            let budget = mb * 12.0;
            println!("peak RSS: {peak:.0} MB (budget {budget:.0} MB)");
            assert!(
                peak <= budget,
                "peak RSS {peak:.0} MB exceeds budget {budget:.0} MB"
            );
        }
        None => println!("peak RSS: unavailable on this platform (check skipped)"),
    }
}

/// Peak resident set size of this process in MB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// E1 (Fig. 3): policy -> derived view specification and view DTD.
fn e1() {
    println!("## E1  Fig. 3: automatic view derivation\n");
    let vocab = Vocabulary::new();
    let dtd = hospital::dtd(&vocab);
    let policy = AccessPolicy::parse(dtd.clone(), hospital::POLICY).unwrap();
    println!("--- access control policy S0 (Fig. 3(b)) ---");
    println!("{}", policy.to_policy_string());
    let spec = derive(&policy);
    println!("--- derived view specification sigma0 + view DTD (Fig. 3(c)/(d)) ---");
    println!("{}", spec.to_spec_string());
    println!("view DTD recursive: {}\n", spec.view_dtd().is_recursive());
}

/// E2 (Fig. 4 / §3 Rewriter): MFA size is linear in |Q|; the direct
/// syntactic rewriting explodes.
fn e2(quick: bool) {
    println!("## E2  Rewriting: MFA (linear) vs direct syntactic (exponential)\n");
    let setup = HospitalSetup::sample();
    let max_n = if quick { 4 } else { 6 };
    let mut table = Table::new(&[
        "closure depth n",
        "|Q|",
        "MFA size",
        "direct size",
        "direct/MFA",
        "rewrite time",
    ]);
    for n in 1..=max_n {
        let q = format!(
            "hospital/patient{}/treatment",
            "/(parent/patient)*[treatment]".repeat(n)
        );
        let path = parse_path(&q, &setup.vocab).unwrap();
        let (mfa, t) = time(|| rewrite(&path, &setup.spec));
        let mfa_size = mfa.stats().total();
        let direct_size = rewrite_direct(&path, &setup.spec)
            .map(|p| p.size())
            .unwrap_or(0);
        table.row(vec![
            n.to_string(),
            path.size().to_string(),
            mfa_size.to_string(),
            direct_size.to_string(),
            format!("{:.1}x", direct_size as f64 / mfa_size as f64),
            fmt_duration(t),
        ]);
    }
    println!("{}", table.render());
    // Fig. 4: the MFA of the paper's Q0.
    let q0 = parse_path(hospital::Q0, &setup.vocab).unwrap();
    let m0 = compile(&q0, &setup.vocab);
    println!("MFA M0 of the paper's Q0: {}", m0.stats());
    println!("after optimizer:          {}\n", optimize(&m0).stats());
}

/// E3 (§3 Evaluator): HyPE single pass vs two-pass vs naive navigation.
fn e3(quick: bool) {
    println!("## E3  Evaluation: HyPE vs two-pass vs naive ('Xalan-like')\n");
    let sizes: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let mut table = Table::new(&[
        "nodes",
        "query",
        "HyPE",
        "two-pass",
        "naive",
        "|Cans|",
        "Cans/visited",
    ]);
    for &size in sizes {
        let setup = HospitalSetup::generated(42, size);
        let iters = if size <= 10_000 { 20 } else { 5 };
        for (name, q) in hospital::DOC_QUERIES {
            let path = parse_path(q, &setup.vocab).unwrap();
            let mfa = optimize(&compile(&path, &setup.vocab));
            let hype_t = time_mean(iters, || evaluate_mfa(&setup.doc, &mfa));
            let (answers, stats) = evaluate_mfa(&setup.doc, &mfa);
            let two_t = time_mean(iters, || evaluate_mfa_twopass_report(&setup.doc, &mfa));
            let naive_t = time_mean(iters.min(5), || naive_evaluate(&setup.doc, &path));
            // Sanity: all engines agree.
            let ((two_answers, _), _) = evaluate_mfa_twopass_report(&setup.doc, &mfa);
            assert_eq!(answers, two_answers, "engines disagree on {name}");
            table.row(vec![
                size.to_string(),
                name.to_string(),
                fmt_duration(hype_t),
                fmt_duration(two_t),
                fmt_duration(naive_t),
                stats.cans_size.to_string(),
                format!("{:.3}", stats.cans_ratio()),
            ]);
        }
    }
    println!("{}", table.render());
}

/// E4 (§2 XML documents): DOM mode vs StAX mode.
fn e4(quick: bool) {
    println!("## E4  DOM vs StAX (one sequential scan, bounded memory)\n");
    let sizes: &[usize] = if quick {
        &[10_000]
    } else {
        &[10_000, 100_000, 300_000]
    };
    let mut table = Table::new(&[
        "nodes",
        "query",
        "DOM eval",
        "stream eval (incl. parse)",
        "xml bytes",
        "peak buffered",
    ]);
    for &size in sizes {
        let vocab = Vocabulary::new();
        let dtd = hospital::dtd(&vocab);
        let config = hospital::generator_config(&vocab, 7, size);
        let mut xml_bytes: Vec<u8> = Vec::new();
        generate_to_writer(&dtd, &config, &mut xml_bytes).unwrap();
        let xml = String::from_utf8(xml_bytes).unwrap();
        let doc = Document::parse_str(&xml, &vocab).unwrap();
        for (name, q) in &hospital::DOC_QUERIES[..3] {
            let path = parse_path(q, &vocab).unwrap();
            let mfa = optimize(&compile(&path, &vocab));
            let iters = if size <= 10_000 { 10 } else { 3 };
            let dom_t = time_mean(iters, || evaluate_mfa(&doc, &mfa));
            let stream_t = time_mean(iters, || {
                evaluate_stream(xml.as_bytes(), &mfa, &vocab, StreamOptions::default()).unwrap()
            });
            let outcome = evaluate_stream(
                xml.as_bytes(),
                &mfa,
                &vocab,
                StreamOptions { want_xml: true },
            )
            .unwrap();
            // Stream answers match DOM answers.
            let (dom_answers, _) = evaluate_mfa(&doc, &mfa);
            assert_eq!(
                outcome.answers,
                dom_answers.iter().map(|n| n.0).collect::<Vec<_>>()
            );
            table.row(vec![
                size.to_string(),
                name.to_string(),
                fmt_duration(dom_t),
                fmt_duration(stream_t),
                xml.len().to_string(),
                outcome.peak_buffered_bytes.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
}

/// E5 (§3 Indexer): TAX on vs off; index build/persist costs.
fn e5(quick: bool) {
    println!("## E5  TAX index: pruning effect and build/persist costs\n");
    let size = if quick { 20_000 } else { 200_000 };
    let setup = HospitalSetup::generated(11, size);
    let (tax, build_t) = time(|| TaxIndex::build(&setup.doc));
    println!(
        "index build over {} nodes: {} ({} distinct sets, ~{} bytes in memory)",
        setup.doc.node_count(),
        fmt_duration(build_t),
        tax.distinct_sets(),
        tax.memory_bytes()
    );
    let mut buf = Vec::new();
    let (_, save_t) = time(|| tax.save(&mut buf, &setup.vocab).unwrap());
    let (loaded, load_t) = time(|| TaxIndex::load(&mut &buf[..], &setup.vocab).unwrap());
    println!(
        "persist: {} bytes on disk (save {}, load {})\n",
        buf.len(),
        fmt_duration(save_t),
        fmt_duration(load_t)
    );
    drop(loaded);

    let mut table = Table::new(&[
        "query",
        "no TAX",
        "with TAX",
        "speedup",
        "visited (no TAX)",
        "visited (TAX)",
        "TAX-pruned subtrees",
    ]);
    // Selective queries benefit; exhaustive ones are ~neutral.
    let queries = [
        ("descendant //test", "//test"),
        ("selective //parent/patient/pname", "//parent/patient/pname"),
        ("negation", "//treatment[not(test)]/medication"),
        ("exhaustive //patient", "//patient"),
    ];
    for (name, q) in queries {
        let path = parse_path(q, &setup.vocab).unwrap();
        let mfa = optimize(&compile(&path, &setup.vocab));
        let iters = if quick { 10 } else { 5 };
        let plain_opts = DomOptions::default();
        let tax_opts = DomOptions { tax: Some(&tax) };
        let t_plain = time_mean(iters, || {
            evaluate_mfa_with(&setup.doc, &mfa, &plain_opts, &mut NoopObserver)
        });
        let t_tax = time_mean(iters, || {
            evaluate_mfa_with(&setup.doc, &mfa, &tax_opts, &mut NoopObserver)
        });
        let (a_plain, s_plain) =
            evaluate_mfa_with(&setup.doc, &mfa, &plain_opts, &mut NoopObserver);
        let (a_tax, s_tax) = evaluate_mfa_with(&setup.doc, &mfa, &tax_opts, &mut NoopObserver);
        assert_eq!(a_plain, a_tax, "TAX changed answers for {name}");
        table.row(vec![
            name.to_string(),
            fmt_duration(t_plain),
            fmt_duration(t_tax),
            format!("{:.2}x", t_plain.as_secs_f64() / t_tax.as_secs_f64()),
            s_plain.nodes_visited.to_string(),
            s_tax.nodes_visited.to_string(),
            s_tax.subtrees_pruned_tax.to_string(),
        ]);
    }
    println!("{}", table.render());
}

/// E6 (§1/§2): virtual views (rewrite + HyPE) vs materialize-then-query.
fn e6(quick: bool) {
    println!("## E6  Virtual views vs materialization\n");
    let sizes: &[usize] = if quick { &[5_000] } else { &[5_000, 50_000] };
    let mut table = Table::new(&[
        "nodes",
        "view query",
        "virtual (rewrite+HyPE)",
        "virtual+TAX",
        "materialize+eval",
        "|V(T)| nodes",
        "answers",
    ]);
    for &size in sizes {
        let setup = HospitalSetup::generated(23, size);
        let tax = TaxIndex::build(&setup.doc);
        let iters = if size <= 5_000 { 10 } else { 3 };
        for (name, q) in hospital::VIEW_QUERIES {
            let path = parse_path(q, &setup.vocab).unwrap();
            let mfa = optimize(&rewrite(&path, &setup.spec));
            let t_virtual = time_mean(iters, || evaluate_mfa(&setup.doc, &mfa));
            let tax_opts = DomOptions { tax: Some(&tax) };
            let t_tax = time_mean(iters, || {
                evaluate_mfa_with(&setup.doc, &mfa, &tax_opts, &mut NoopObserver)
            });
            let (tax_answers, _) =
                evaluate_mfa_with(&setup.doc, &mfa, &tax_opts, &mut NoopObserver);
            let t_mat = time_mean(iters.min(3), || {
                let view = materialize(&setup.spec, &setup.doc).unwrap();
                naive_evaluate(&view.doc, &path)
            });
            // Correctness: Q'(T) == Q(V(T)).
            let (virtual_answers, _) = evaluate_mfa(&setup.doc, &mfa);
            let view = materialize(&setup.spec, &setup.doc).unwrap();
            let expected = view.origins_of(naive_evaluate(&view.doc, &path).iter());
            assert_eq!(
                virtual_answers.as_slice(),
                expected.as_slice(),
                "equivalence violated for {name}"
            );
            assert_eq!(
                tax_answers, virtual_answers,
                "TAX changed answers for {name}"
            );
            table.row(vec![
                size.to_string(),
                name.to_string(),
                fmt_duration(t_virtual),
                fmt_duration(t_tax),
                fmt_duration(t_mat),
                view.doc.node_count().to_string(),
                virtual_answers.len().to_string(),
            ]);
        }
    }
    println!("{}", table.render());
    // The org workload as a control.
    let org = OrgSetup::generated(5, if quick { 5_000 } else { 20_000 });
    let mut t2 = Table::new(&["org view query", "virtual", "materialized", "answers"]);
    for (name, q) in smoqe::workloads::org::VIEW_QUERIES {
        let path = parse_path(q, &org.vocab).unwrap();
        let mfa = optimize(&rewrite(&path, &org.spec));
        let tv = time_mean(5, || evaluate_mfa(&org.doc, &mfa));
        let tm = time_mean(3, || {
            let view = materialize(&org.spec, &org.doc).unwrap();
            naive_evaluate(&view.doc, &path)
        });
        let (ans, _) = evaluate_mfa(&org.doc, &mfa);
        t2.row(vec![
            name.to_string(),
            fmt_duration(tv),
            fmt_duration(tm),
            ans.len().to_string(),
        ]);
    }
    println!("{}", t2.render());
}

/// `bench`: the machine-readable perf trajectory.
///
/// Writes `BENCH.json` in the current directory so successive PRs have a
/// comparable baseline: document size, stream throughput (serial vs
/// batched), DOM per-query latency, plan
/// (table) compilation time, and incremental TAX patch vs rebuild time.
/// Formatting is by hand — the workspace is offline and carries no serde.
fn bench_json(quick: bool) {
    println!("## bench  machine-readable perf trajectory (BENCH.json)\n");
    let target_nodes = if quick { 5_000 } else { 30_000 };
    let iters = if quick { 3 } else { 30 };
    // Sub-millisecond measurements need many more samples for the
    // minimum to reliably land on an interference-free run.
    let micro_iters = if quick { 10 } else { 300 };
    let vocab = Vocabulary::new();
    hospital::dtd(&vocab);
    let doc = hospital::generate_document(&vocab, 17, target_nodes);
    let xml = doc.to_xml();

    // The serving batch: 16 plans cycling the document workload.
    let plans: Vec<CompiledMfa> = (0..16)
        .map(|i| {
            let (_, q) = hospital::DOC_QUERIES[i % hospital::DOC_QUERIES.len()];
            let path = parse_path(q, &vocab).unwrap();
            CompiledMfa::compile(&optimize(&compile(&path, &vocab)))
        })
        .collect();
    let each: Vec<(&CompiledMfa, StreamOptions)> = plans
        .iter()
        .map(|p| (p, StreamOptions::default()))
        .collect();
    let run_serial = || {
        for lane in &each {
            evaluate_batch_stream_plans(xml.as_bytes(), &[*lane], &vocab, ExecMode::Compiled)
                .unwrap();
        }
    };
    let run_batched = || {
        evaluate_batch_stream_plans(xml.as_bytes(), &each, &vocab, ExecMode::Compiled).unwrap();
    };
    // Queries/second = plans per wall-clock second of the whole batch.
    let qps = |d: std::time::Duration| plans.len() as f64 / d.as_secs_f64();
    let serial_compiled = qps(time_min(iters, run_serial));
    let batched_compiled = qps(time_min(iters, run_batched));

    // DOM per-query latency over the document workload (mean of means).
    let dom_compiled_us = plans
        .iter()
        .map(|plan| {
            time_min(iters, || {
                evaluate_mfa_plan(
                    &doc,
                    plan,
                    &DomOptions::default(),
                    ExecMode::Compiled,
                    &mut NoopObserver,
                )
            })
            .as_secs_f64()
        })
        .sum::<f64>()
        / plans.len() as f64
        * 1e6; // µs

    // Plan-table compilation cost (what the plan cache amortizes).
    let q0 = parse_path(hospital::Q0, &vocab).unwrap();
    let m0 = optimize(&compile(&q0, &vocab));
    let compile_us = time_min(iters.max(10), || CompiledMfa::compile(&m0)).as_secs_f64() * 1e6;

    // Incremental index maintenance vs rebuild on one edit.
    let tax = TaxIndex::build(&doc);
    let fragment = Document::parse_str(
        "<patient><pname>Frag</pname><visit><treatment><test>blood</test></treatment>\
         <date>2006-01-01</date></visit></patient>",
        &vocab,
    )
    .unwrap();
    let (new_doc, span) =
        smoqe_xml::insert_fragment(&doc, doc.root(), smoqe_xml::SplicePlace::Into, &fragment)
            .unwrap();
    let patch_us = time_min(iters, || tax.patched(&new_doc, &span)).as_secs_f64() * 1e6;
    let rebuild_us = time_min(iters, || TaxIndex::build(&new_doc)).as_secs_f64() * 1e6;

    // Document build: parse-to-DOM throughput (the unified scanner into
    // the span arena) and the cost of deep-cloning a parsed snapshot
    // (span tables copy; the backing buffer is shared, not copied).
    let parsed = Document::parse_str(&xml, &vocab).unwrap();
    let parse_mb_per_s = {
        let d = time_min(iters, || Document::parse_str(&xml, &vocab).unwrap());
        xml.len() as f64 / (1024.0 * 1024.0) / d.as_secs_f64()
    };
    let snapshot_clone_us = time_min(iters.max(10), || parsed.clone()).as_secs_f64() * 1e6;

    // Jump-scan vs tree-walk DOM latency (both with the TAX index
    // available, so the comparison isolates navigation, not pruning
    // data), plus what the default auto heuristic actually picks.
    let plan_for = |q: &str| {
        let path = parse_path(q, &vocab).unwrap();
        CompiledMfa::compile(&optimize(&compile(&path, &vocab)))
    };
    let dom_mode_us = |q: &str, mode: ExecMode| -> f64 {
        let plan = plan_for(q);
        let opts = DomOptions { tax: Some(&tax) };
        time_min(micro_iters, || {
            evaluate_mfa_plan(&doc, &plan, &opts, mode, &mut NoopObserver)
        })
        .as_secs_f64()
            * 1e6
    };
    let auto_mode = |q: &str| -> ExecMode {
        // The same resolution the default engine config applies.
        let plan = plan_for(q);
        let threshold = EngineConfig::default().jump_selectivity;
        if smoqe_hype::jump_available(&doc, &plan, Some(&tax))
            && smoqe_hype::selectivity_estimate(&doc, &plan, Some(&tax))
                .measured()
                .is_some_and(|s| s <= threshold)
        {
            ExecMode::Jump
        } else {
            ExecMode::Compiled
        }
    };
    const SELECTIVE_Q: &str = "//test";
    const UNSELECTIVE_Q: &str = "//patient";
    let selective_scan_us = dom_mode_us(SELECTIVE_Q, ExecMode::Compiled);
    let selective_jump_us = dom_mode_us(SELECTIVE_Q, ExecMode::Jump);
    let selective_auto_us = dom_mode_us(SELECTIVE_Q, auto_mode(SELECTIVE_Q));
    let unselective_scan_us = dom_mode_us(UNSELECTIVE_Q, ExecMode::Compiled);
    let unselective_auto_us = dom_mode_us(UNSELECTIVE_Q, auto_mode(UNSELECTIVE_Q));

    // Predicated jump: a selective `text() = 'v'` query resolves through
    // the (label, value) posting lists — the scan walker still touches
    // the whole document. The point workload splices 32 unique-pname
    // patients in, so the measured posting lists have length 1.
    let point_doc = smoqe_bench::splice_unique_patients(&doc, &vocab, 32);
    let point_tax = TaxIndex::build(&point_doc);
    let point_mode_us = |q: &str, mode: ExecMode| -> f64 {
        let plan = plan_for(q);
        let opts = DomOptions {
            tax: Some(&point_tax),
        };
        time_min(micro_iters, || {
            evaluate_mfa_plan(&point_doc, &plan, &opts, mode, &mut NoopObserver)
        })
        .as_secs_f64()
            * 1e6
    };
    const PREDICATED_Q: &str = "//pname[. = 'U00']";
    let predicated_scan_us = point_mode_us(PREDICATED_Q, ExecMode::Compiled);
    let predicated_jump_us = point_mode_us(PREDICATED_Q, ExecMode::Jump);

    // The shared batch jump frontier: 32 selective point plans, swept
    // serially (threads = 1) so the number holds on a single-core host.
    let frontier_queries: Vec<String> = (0..32)
        .map(|i| {
            if i % 2 == 0 {
                format!("//patient[pname = 'U{i:02}']")
            } else {
                format!("//pname[. = 'U{i:02}']")
            }
        })
        .collect();
    let frontier_plans: Vec<CompiledMfa> = frontier_queries.iter().map(|q| plan_for(q)).collect();
    let frontier_refs: Vec<&CompiledMfa> = frontier_plans.iter().collect();
    let batch_jump_qps = {
        let d = time_min(micro_iters, || {
            evaluate_jump_frontier(
                &point_doc,
                &frontier_refs,
                &point_tax,
                1,
                &WorkBudget::unlimited(),
            )
        });
        frontier_refs.len() as f64 / d.as_secs_f64()
    };

    // DOM batch throughput: the same 16-query mix, serially (one DOM
    // query at a time) vs one batch over one snapshot — inline at 1
    // thread (the default engine's batch path), partitioned across worker
    // threads at 2 and 4.
    let batch_queries: Vec<&str> = (0..16)
        .map(|i| hospital::DOC_QUERIES[i % hospital::DOC_QUERIES.len()].1)
        .collect();
    let engine_with = |threads: usize| {
        let engine = Engine::new(EngineConfig {
            eval_threads: threads,
            ..EngineConfig::default()
        });
        hospital::dtd(engine.vocabulary());
        let doc = hospital::generate_document(engine.vocabulary(), 17, target_nodes);
        engine.load_document_tree(doc).unwrap();
        engine.build_tax_index().unwrap();
        engine
    };
    let serial_dom_qps = {
        let engine = engine_with(1);
        let session = engine.session(User::Admin);
        for q in &batch_queries {
            session.query(q).unwrap(); // warm the plan cache
        }
        let d = time_min(iters, || {
            for q in &batch_queries {
                session.query(q).unwrap();
            }
        });
        batch_queries.len() as f64 / d.as_secs_f64()
    };
    let parallel_qps = |threads: usize| -> f64 {
        let engine = engine_with(threads);
        let session = engine.session(User::Admin);
        session.query_batch(&batch_queries).unwrap(); // warm the plan cache
        let d = time_min(iters, || session.query_batch(&batch_queries).unwrap());
        batch_queries.len() as f64 / d.as_secs_f64()
    };
    let threads1_qps = parallel_qps(1);
    let threads2_qps = parallel_qps(2);
    let threads4_qps = parallel_qps(4);

    // The serving layer: a real TCP server on an ephemeral port under the
    // mixed traffic harness (hospital workload, admin + group sessions,
    // reads/batches/self-cancelling writes). Latencies are wire-level —
    // request written to response decoded — so they include framing,
    // admission, queueing, and evaluation.
    let (serving, serving_sessions) = {
        let engine = Engine::with_defaults();
        let doc = engine.open_document("wards");
        hospital::install_sample(&doc).expect("install hospital sample");
        let handle = Server::start(engine, ServerConfig::default()).expect("start bench server");
        let sessions = if quick { 16 } else { 64 };
        let requests = if quick { 10 } else { 50 };
        let config = TrafficConfig::hospital(handle.local_addr().to_string(), sessions, requests);
        let report = run_traffic(&config).expect("traffic harness");
        assert_eq!(
            report.protocol_errors, 0,
            "serving bench hit protocol errors"
        );
        handle.shutdown();
        handle.join();
        (report, sessions)
    };

    // Durability: the same end-to-end update measured on an in-memory vs
    // a write-ahead-logged engine (the delta is the WAL append), plus
    // cold crash-recovery speed over a WAL tail of logical records.
    let (update_mem_us, update_durable_us, recovery_records, recovery_ms) = {
        let mk = |durable: Option<&std::path::Path>| {
            let engine = match durable {
                Some(dir) => Engine::recover(
                    EngineConfig {
                        checkpoint_every: 0,
                        ..EngineConfig::default()
                    },
                    dir,
                )
                .unwrap(),
                None => Engine::with_defaults(),
            };
            engine.load_dtd(hospital::DTD).unwrap();
            let gen = hospital::generate_document(engine.vocabulary(), 17, target_nodes);
            engine.load_document_tree(gen).unwrap();
            engine.build_tax_index().unwrap();
            engine
                .update(
                    "insert <patient><pname>Bench</pname><visit><treatment>\
                     <medication>autism</medication></treatment><date>d</date></visit>\
                     </patient> into hospital",
                )
                .unwrap();
            engine
        };
        const REPLACE: &str =
            "replace hospital/patient[pname = 'Bench']/pname with <pname>Bench</pname>";
        // The two sides differ by one buffered WAL append (~µs) against a
        // multi-ms update, so measurement discipline matters more than
        // sample count: interleave the two engines round-by-round (two
        // back-to-back min-of-N loops see different allocator/cache
        // weather and have produced deltas of ±20% either way) and don't
        // let quick mode starve N.
        let iters = iters.max(20);
        let dur_dir = std::env::temp_dir().join(format!("smoqe-bench-dur-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dur_dir);
        std::fs::create_dir_all(&dur_dir).unwrap();
        let mem = mk(None);
        let dur = mk(Some(&dur_dir));
        let mut mem_us = f64::INFINITY;
        let mut dur_us = f64::INFINITY;
        for _ in 0..iters {
            let t0 = std::time::Instant::now();
            mem.update(REPLACE).unwrap();
            mem_us = mem_us.min(t0.elapsed().as_secs_f64() * 1e6);
            let t0 = std::time::Instant::now();
            dur.update(REPLACE).unwrap();
            dur_us = dur_us.min(t0.elapsed().as_secs_f64() * 1e6);
        }
        drop(dur);
        let _ = std::fs::remove_dir_all(&dur_dir);

        // Cold recovery: checkpoint a small catalog, leave `records`
        // updates in the WAL tail, and time a fresh `Engine::recover`
        // (checkpoint load + security-revalidating replay + the
        // end-of-recovery checkpoint).
        let records = if quick { 100 } else { 1000 };
        let rec_dir = std::env::temp_dir().join(format!("smoqe-bench-rec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&rec_dir);
        std::fs::create_dir_all(&rec_dir).unwrap();
        let config = EngineConfig {
            checkpoint_every: 0,
            ..EngineConfig::default()
        };
        {
            let e = Engine::recover(config, &rec_dir).unwrap();
            e.load_dtd(hospital::DTD).unwrap();
            e.load_document(hospital::SAMPLE_DOCUMENT).unwrap();
            e.build_tax_index().unwrap();
            e.checkpoint().unwrap();
            for i in 0..records {
                e.update(&format!(
                    "insert <patient><pname>R{i}</pname><visit><treatment>\
                     <medication>autism</medication></treatment><date>d</date></visit>\
                     </patient> into hospital"
                ))
                .unwrap();
            }
        }
        let t0 = std::time::Instant::now();
        let recovered = Engine::recover(config, &rec_dir).unwrap();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(
            recovered.recovery_epoch() >= 1,
            "recovery bench found no WAL tail"
        );
        drop(recovered);
        let _ = std::fs::remove_dir_all(&rec_dir);
        (mem_us, dur_us, records, ms)
    };

    let json = format!(
        "{{\n\
         \x20 \"schema\": 4,\n\
         \x20 \"workload\": {{\n\
         \x20   \"document\": \"hospital\",\n\
         \x20   \"nodes\": {nodes},\n\
         \x20   \"xml_bytes\": {bytes},\n\
         \x20   \"batch_plans\": {nplans},\n\
         \x20   \"quick\": {quick}\n\
         \x20 }},\n\
         \x20 \"stream_queries_per_sec\": {{\n\
         \x20   \"serial_compiled\": {serial_compiled:.1},\n\
         \x20   \"batched_compiled\": {batched_compiled:.1}\n\
         \x20 }},\n\
         \x20 \"dom_query_latency_us\": {{\n\
         \x20   \"compiled\": {dom_compiled_us:.2}\n\
         \x20 }},\n\
         \x20 \"plan_table_compile_us\": {compile_us:.2},\n\
         \x20 \"doc_build\": {{\n\
         \x20   \"parse_mb_per_s\": {parse_mb_per_s:.1},\n\
         \x20   \"snapshot_clone_us\": {snapshot_clone_us:.2}\n\
         \x20 }},\n\
         \x20 \"jump_query_latency_us\": {{\n\
         \x20   \"selective_scan\": {selective_scan_us:.2},\n\
         \x20   \"selective_jump\": {selective_jump_us:.2},\n\
         \x20   \"selective_auto\": {selective_auto_us:.2},\n\
         \x20   \"unselective_scan\": {unselective_scan_us:.2},\n\
         \x20   \"unselective_auto\": {unselective_auto_us:.2}\n\
         \x20 }},\n\
         \x20 \"predicated_jump_latency_us\": {{\n\
         \x20   \"scan\": {predicated_scan_us:.2},\n\
         \x20   \"jump\": {predicated_jump_us:.2}\n\
         \x20 }},\n\
         \x20 \"batch_jump_qps\": {batch_jump_qps:.1},\n\
         \x20 \"parallel_batch_qps\": {{\n\
         \x20   \"serial_dom\": {serial_dom_qps:.1},\n\
         \x20   \"threads_1\": {threads1_qps:.1},\n\
         \x20   \"threads_2\": {threads2_qps:.1},\n\
         \x20   \"threads_4\": {threads4_qps:.1}\n\
         \x20 }},\n\
         \x20 \"tax_index_patch_us\": {{\n\
         \x20   \"incremental\": {patch_us:.2},\n\
         \x20   \"full_rebuild\": {rebuild_us:.2}\n\
         \x20 }},\n\
         \x20 \"serving_latency_us\": {{\n\
         \x20   \"sessions\": {serving_sessions},\n\
         \x20   \"p50\": {serve_p50},\n\
         \x20   \"p95\": {serve_p95},\n\
         \x20   \"p99\": {serve_p99},\n\
         \x20   \"qps\": {serve_qps:.1}\n\
         \x20 }},\n\
         \x20 \"recovery\": {{\n\
         \x20   \"update_us_in_memory\": {update_mem_us:.2},\n\
         \x20   \"update_us_durable\": {update_durable_us:.2},\n\
         \x20   \"wal_overhead_pct\": {wal_overhead_pct:.1},\n\
         \x20   \"replayed_records\": {recovery_records},\n\
         \x20   \"recovery_ms\": {recovery_ms:.1},\n\
         \x20   \"recovery_ms_per_10k_records\": {recovery_per_10k:.1}\n\
         \x20 }}\n\
         }}\n",
        nodes = doc.node_count(),
        bytes = xml.len(),
        nplans = plans.len(),
        serve_p50 = serving.overall.p50_us,
        serve_p95 = serving.overall.p95_us,
        serve_p99 = serving.overall.p99_us,
        serve_qps = serving.qps,
        wal_overhead_pct = (update_durable_us / update_mem_us - 1.0) * 100.0,
        recovery_per_10k = recovery_ms * 10_000.0 / recovery_records as f64,
    );
    std::fs::write("BENCH.json", &json).expect("write BENCH.json");
    println!("{json}");
    println!("wrote BENCH.json");
}

/// E7 (Figs. 4(b), 5, 6): the visual artifacts, in text form.
fn e7() {
    println!("## E7  Visualizations (iSMOQE substitute)\n");
    let setup = HospitalSetup::sample();
    let q0 = parse_path(hospital::Q0, &setup.vocab).unwrap();
    let m0 = compile(&q0, &setup.vocab);
    println!("--- Fig. 4: MFA M0 for Q0 ---");
    println!("{}", smoqe_viz::mfa_listing(&m0));
    println!("--- Fig. 5: HyPE evaluation of M0 on the sample document ---");
    let mut trace = smoqe_viz::TraceCollector::new();
    let tax = TaxIndex::build(&setup.doc);
    let opts = DomOptions { tax: Some(&tax) };
    evaluate_mfa_with(&setup.doc, &m0, &opts, &mut trace);
    println!("{}", smoqe_viz::annotated_tree(&setup.doc, &trace));
    println!("--- Fig. 6: TAX index on the sample document ---");
    println!("{}", tax.summary(&setup.vocab));
}
