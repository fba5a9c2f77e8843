//! Runs every workload at smoke scale, untraced and traced, and checks the
//! output contract: exit 0, a final JSON line with `correct: true` and no
//! failed op, `failed_ratio` 0, and every metric name printed.

use std::path::PathBuf;
use std::process::Command;

const END_TO_END: &[&str] = &[
    "setup_s",
    "throughput_ops_s",
    "cpu_us_per_op",
    "peak_rss_mb",
];

/// Printed by every untraced run, not declared in `BENCHMARK.json`.
const REPORTED: &[&str] = &[
    "query_p50_us",
    "query_p90_us",
    "query_p99_us",
    "failed_ratio",
];

const PER_LAYER: &[&str] = &[
    "server.service_us",
    "server.wire_us",
    "server.refused",
    "core.query_us",
    "core.unattributed_us",
    "core.plancache.hit_ratio",
    "core.plancache.evictions",
    "core.plancache.invalidations",
    "core.plancache.hit_us",
    "core.plancache.miss_us",
    "rxpath.parse_us",
    "automata.optimize_us",
    "automata.plan_us",
    "hype.eval_us",
    "hype.visited_per_answer",
    "hype.jump_share",
    "xml.parse_mb_s",
    "view.derive_ms",
    "tax.build_ms",
];

/// Metric lines only the workloads that exercise the layer print.
fn specific(workload: &str, trace: bool) -> &'static [&'static str] {
    match (workload, trace) {
        ("view_read", false) => &["batch_p50_us", "batch_p90_us"],
        ("mixed_write", false) => &["update_p50_us", "update_p90_us"],
        ("view_read", true) => &[
            "core.batch_us",
            "hype.batch_us",
            "hype.batch_events",
            "rewrite.rewrite_us",
            "view.render_us",
            "view.render_bytes",
        ],
        ("point_lookup", true) => &["automata.compile_us", "xml.serialize_us"],
        ("mixed_write", true) => &[
            "core.update_us",
            "update.parse_us",
            "update.resolve_us",
            "view.materialize_us",
            "xml.splice_us",
            "tax.patch_us",
            "xml.validate_us",
            "rewrite.rewrite_us",
            "automata.compile_us",
            "view.render_us",
            "xml.serialize_us",
            "core.durable.wal_bytes_per_txn",
            "core.durable.recover_ms",
            "core.durable.records",
        ],
        _ => &[],
    }
}

fn run(workload: &str, trace: bool) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "2"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "smoke"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().unwrap();
    assert!(last.starts_with("{\"correct\": true,"), "{last}");
    assert!(last.contains("\"failed\": 0,"), "{last}");
    assert!(
        stdout.contains("metric failed_ratio 0.000000 fraction"),
        "{stdout}"
    );
    assert!(stdout.contains("wrong_answers=0"), "{stdout}");
    let set = if trace { PER_LAYER } else { END_TO_END };
    for name in set {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{workload}: {name} missing from {last}"
        );
    }
    let reported: &[&str] = if trace { &[] } else { REPORTED };
    for name in set.iter().chain(specific(workload, trace)).chain(reported) {
        assert!(
            stdout.contains(&format!("\nmetric {name} ")),
            "{workload}: no metric line for {name}\n{stdout}"
        );
    }
    if workload == "mixed_write" {
        assert!(stdout.contains("final_doc_identical=true recovered_doc_identical=true"));
    }
    if trace {
        assert!(stdout.contains("# tracing overhead:"), "{stdout}");
    }
}

#[test]
fn view_read() {
    run("view_read", false);
}

#[test]
fn point_lookup() {
    run("point_lookup", false);
}

#[test]
fn mixed_write() {
    run("mixed_write", false);
}

#[test]
fn view_read_traced() {
    run("view_read", true);
}

#[test]
fn point_lookup_traced() {
    run("point_lookup", true);
}

#[test]
fn mixed_write_traced() {
    run("mixed_write", true);
}

/// The metric lists above are the ones `BENCHMARK.json` declares.
#[test]
fn benchmark_json_declares_the_printed_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).unwrap();
    for name in END_TO_END.iter().chain(PER_LAYER) {
        assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
    }
    assert_eq!(
        json.matches("\"name\": ").count(),
        END_TO_END.len() + PER_LAYER.len() + 3,
        "three workloads plus the metric lists"
    );
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
