//! `perfbench` — the SMOQE wire-level benchmark.
//!
//! ```text
//! perfbench --workload <view_read|point_lookup|mixed_write> --seed <n>
//!           --seconds <s> --trace <0|1> [--scale full|smoke]
//! ```
//!
//! Runs one workload against an in-process `smoqe_server::Server` on
//! loopback (every admission quota lifted), from two client threads on two
//! connections: a warm-up, a closed loop (35% of `--seconds`) and an
//! open loop at the workload's fixed rate (65%). Every answer is checked
//! against the oracle. Prints one `metric` line per value and, last, one
//! JSON object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1` (a separate run with the same seed and op
//! sequence that also replays the ops in process, layer by layer).

mod oracle;
mod replay;
mod report;
mod rng;
mod setup;
mod stats;
mod sys;
mod trace;
mod wire;
mod workload;

use oracle::Oracle;
use report::{Report, END_TO_END, PER_LAYER};
use stats::{median, peak_rss_mb, percentile, Pct};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use wire::{Conn, Failure, Sample};
use workload::{Inputs, OpKind, Scale, Spec, Workload};

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// The closed loop's share of `--seconds`; the open loop gets the rest.
const CLOSED_SHARE: f64 = 0.35;
/// Where runs keep their scratch data (durable data dirs, crash images);
/// removed when the run ends.
const WORK_DIR: &str = ".perfbench_work";
/// Where traced runs write their spans.
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut map: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        let k = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k}"))?;
        map.insert(k.to_string(), v);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("--{k} is required"));
    let workload = Workload::parse(get("workload")?)
        .ok_or_else(|| format!("unknown workload {}", map["workload"]))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match map.get("trace").map(String::as_str).unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let scale = match map.get("scale").map(String::as_str).unwrap_or("full") {
        "full" => Scale::Full,
        "smoke" => Scale::Smoke,
        other => return Err(format!("--scale must be full or smoke, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        scale,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work =
        PathBuf::from(WORK_DIR).join(format!("{}-{}", args.workload.name(), std::process::id()));
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_DIR);
    match result {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The git revision of the working directory, read from `.git` without
/// running git; `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn pct_note(p: &Pct) -> String {
    format!("n={} above={}", p.n, p.above)
}

/// Total size of the regular files directly in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Copies the regular files of `from` into a fresh `to`: the crash image
/// of a live data directory.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        if e.metadata()?.is_file() {
            std::fs::copy(e.path(), to.join(e.file_name()))?;
        }
    }
    Ok(())
}

/// Counts the complete `[len u32][crc u32][payload]` records of a WAL.
fn wal_records(path: &Path) -> usize {
    let Ok(bytes) = std::fs::read(path) else {
        return 0;
    };
    let (mut pos, mut n) = (0usize, 0usize);
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        if pos + 8 + len > bytes.len() {
            break;
        }
        pos += 8 + len;
        n += 1;
    }
    n
}

/// Latency percentiles of the open-loop samples of one op kind.
fn latencies(samples: &[Sample], kind: OpKind) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.kind == kind && s.failure.is_none())
        .map(Sample::latency_us)
        .collect()
}

/// Width of the open loop's latency windows.
const LATENCY_WINDOW: Duration = Duration::from_secs(2);

/// Percentile `p` of the open-loop latencies of `kind`, taken in each
/// [`LATENCY_WINDOW`] of due times and reported as the median over the
/// windows — a burst of interference from outside the system (CPU steal
/// on a shared host) moves a few windows, not the figure. Returns the
/// value, the window count and the smallest window's sample counts.
fn windowed(open: &[Sample], kind: OpKind, p: f64) -> Option<(f64, usize, Pct)> {
    let t0 = open.first()?.due;
    let width = LATENCY_WINDOW.as_secs_f64();
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for s in open
        .iter()
        .filter(|s| s.kind == kind && s.failure.is_none())
    {
        let w = ((s.due - t0).as_secs_f64() / width) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, Vec::new());
        }
        windows[w].push(s.latency_us());
    }
    // Drop a trailing partial window, unless it is the only one.
    let full = ((open.last()?.due - t0).as_secs_f64() / width).floor() as usize;
    if full >= 1 {
        windows.truncate(full);
    }
    let per: Vec<Pct> = windows.iter().filter_map(|w| percentile(w, p)).collect();
    let smallest = *per.iter().min_by_key(|x| x.n)?;
    let value = median(&per.iter().map(|x| x.value).collect::<Vec<_>>())?;
    Some((value, per.len(), smallest))
}

/// Whether a backlog grew across the open loop: the generator fell further
/// and further behind (the median lag of the last quarter exceeds the
/// first quarter's by more than 5 ms), or requests queued up in the server
/// (the last quarter's median latency exceeds twice the first quarter's
/// plus 5 ms). Returns the verdict and the quarters' lag and latency
/// medians, µs.
fn backlog_grew(open: &[Sample]) -> (bool, [f64; 4]) {
    let q = (open.len() / 4).max(1);
    let (first, last) = (
        &open[..q.min(open.len())],
        &open[open.len().saturating_sub(q)..],
    );
    let med = |s: &[Sample], f: fn(&Sample) -> f64| {
        median(&s.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let lags = [med(first, Sample::lag_us), med(last, Sample::lag_us)];
    let lats = [
        med(first, Sample::latency_us),
        med(last, Sample::latency_us),
    ];
    let grew = lags[1] - lags[0] > 5_000.0 || lats[1] > 2.0 * lats[0] + 5_000.0;
    (grew, [lags[0], lags[1], lats[0], lats[1]])
}

fn run(args: &Args, work: &Path) -> Result<String, String> {
    let spec = Spec::of(args.workload, args.scale);
    let closed_secs = args.seconds * CLOSED_SHARE;
    let open_secs = args.seconds - closed_secs;
    let t_gen = Instant::now();
    let inputs = Inputs::generate(spec, args.seed, open_secs);
    let oracle = Oracle::build(&inputs)?;
    let gen_s = t_gen.elapsed().as_secs_f64();
    std::fs::create_dir_all(work).map_err(|e| format!("{work:?}: {e}"))?;

    println!(
        "# perfbench workload={} seed={} scale={:?} trace={} seconds={}",
        args.workload.name(),
        args.seed,
        args.scale,
        u8::from(args.trace),
        args.seconds
    );
    println!("# why: {}", args.workload.why());
    println!(
        "# env nproc={} git={} client_threads=2 load_connections=2 (pipelined in the open loop) control_connections=1 (stats only)",
        nproc(),
        git_revision()
    );
    println!(
        "# phases warmup_ops={}x2 closed_s={closed_secs:.3} open_s={open_secs:.3} open_rate={} ops/s open_ops={} setups={SETUPS}",
        spec.warmup_ops,
        spec.rate,
        inputs.ops.len()
    );
    println!(
        "# inputs op_hash={:016x} doc_nodes={} doc_bytes={} distinct_plan_keys={} answer_bytes={} plan_cache_capacity={} oracle_naive_lookups={} generate_s={gen_s:.3}",
        inputs.op_hash,
        inputs.nodes,
        inputs.xml.len(),
        inputs.queries.len(),
        oracle.expected.iter().map(oracle::Expected::bytes).sum::<usize>(),
        smoqe::EngineConfig::default().plan_cache_capacity,
        oracle.naive_checked
    );
    if spec.durable {
        println!(
            "# durability: Engine::recover on a fresh data dir; WAL flushed per append, no fsync; checkpoint every {} records",
            smoqe::EngineConfig::default().checkpoint_every
        );
    }

    // Set up several times; serve from the last setup.
    let mut setups = Vec::new();
    let trace_capacity = if args.trace {
        inputs.ops.len() + 1024
    } else {
        smoqe_server::ServerConfig::default().trace_capacity
    };
    let mut live = None;
    for k in 0..SETUPS {
        let dir = spec.durable.then(|| work.join(format!("data-{k}")));
        let (l, times) = setup::start(&inputs, dir.as_deref(), trace_capacity)?;
        setups.push(times);
        if let Some(prev) = live.replace(l) {
            setup::Live::stop(prev);
        }
    }
    let live = live.expect("at least one setup");
    let initial = live.engine.document().map_err(|e| e.to_string())?.to_xml();
    if initial != inputs.xml {
        return Err("the loaded document does not serialize back to its input".into());
    }
    let addr = live.handle.local_addr();
    let mut control = smoqe_server::Client::connect(addr).map_err(|e| e.to_string())?;
    control
        .hello(smoqe::DEFAULT_DOCUMENT, smoqe_server::Principal::Admin)
        .map_err(|e| e.to_string())?;
    let mut conns = [
        Conn::open(addr, &inputs.principals[0])?,
        Conn::open(addr, &inputs.principals[1])?,
    ];
    let tenants: Vec<String> = conns.iter().map(|c| c.tenant.clone()).collect();

    let warm_failed = wire::warm_up(&mut conns, &inputs, &oracle)?;
    let stats0 = control.stats(false).map_err(|e| e.to_string())?;
    let cache0 = live.engine.cache_metrics();
    let wal0 = live.data_dir.as_deref().map(dir_bytes);
    let steal0 = sys::host_steal_ticks();
    let phases_start = Instant::now();
    let cpu0 = sys::process_cpu();

    // Closed loop. The traced run splits it: an untraced half and a
    // traced half, whose difference is the tracing overhead.
    let (closed, overhead) = if args.trace {
        let half = Duration::from_secs_f64(closed_secs / 2.0);
        let mut plain = wire::closed_loop(&mut conns, &inputs, &oracle, half)?;
        let traced = wire::closed_loop(&mut conns, &inputs, &oracle, half)?;
        let rtt = |c: &wire::Closed| {
            median(&c.rtt_us.iter().map(|&v| f64::from(v)).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        let overhead = (
            traced.throughput().unwrap_or(0.0) - plain.throughput().unwrap_or(0.0),
            rtt(&traced) - rtt(&plain),
        );
        plain.merge(traced);
        (plain, Some(overhead))
    } else {
        let c = wire::closed_loop(
            &mut conns,
            &inputs,
            &oracle,
            Duration::from_secs_f64(closed_secs),
        )?;
        (c, None)
    };
    // The main thread waits while the clients run, so the process's CPU
    // beyond the client threads' own is the server's.
    let server_cpu = (sys::process_cpu() - cpu0).saturating_sub(closed.client_cpu);
    let open = wire::open_loop(&mut conns, &inputs, &oracle)?;
    let stats1 = control.stats(args.trace).map_err(|e| e.to_string())?;
    if let (Some(a), Some(b)) = (steal0, sys::host_steal_ticks()) {
        // Clock ticks are 10 ms at the usual 100 Hz.
        let cpu_s = phases_start.elapsed().as_secs_f64() * nproc() as f64;
        println!(
            "# host cpu_steal_share={:.3} (share of CPU time a virtualizing host withheld during the measured phases; high values make wall-clock figures noisy)",
            (b - a) as f64 / 100.0 / cpu_s
        );
    }
    let cache1 = live.engine.cache_metrics();

    let mut correct = true;
    let mut report = Report::default();
    let open_failed = |f: Failure| open.iter().filter(|s| s.failure == Some(f)).count();
    let attempted = closed.attempted + open.len();
    let failed = closed.failed + open.iter().filter(|s| s.failure.is_some()).count();
    let wrong = closed.wrong + open_failed(Failure::Wrong);
    let refused = closed.refused + open_failed(Failure::Refused);
    if wrong > 0 || warm_failed > 0 {
        correct = false;
    }
    println!(
        "# ops attempted={attempted} failed={failed} wrong_answers={wrong} refused={refused} warmup_failed={warm_failed} closed={} open={}",
        closed.attempted,
        open.len()
    );
    let (grew, [lag_first, lag_last, lat_first, lat_last]) = backlog_grew(&open);
    let lag = percentile(&open.iter().map(Sample::lag_us).collect::<Vec<_>>(), 99.0)
        .ok_or("empty open loop")?;
    println!(
        "# open_loop generator_lag_p99_us={:.1} ({}) quarter_p50s: lag_us {lag_first:.1} -> {lag_last:.1}, latency_us {lat_first:.1} -> {lat_last:.1} valid={}",
        lag.value,
        pct_note(&lag),
        !grew
    );

    // Mixed writes must leave the document as they found it, and the
    // crash image of the data dir must recover to that same document.
    let mut durable_layers = None;
    if let Some(dir) = live.data_dir.clone() {
        let committed = closed.updates_ok
            + open
                .iter()
                .filter(|s| s.kind == OpKind::Update && s.failure.is_none())
                .count();
        let wal_growth = dir_bytes(&dir).saturating_sub(wal0.unwrap_or(0));
        let crash = work.join("crash-image");
        copy_dir(&dir, &crash).map_err(|e| format!("crash image: {e}"))?;
        let final_xml = live.engine.document().map_err(|e| e.to_string())?.to_xml();
        if final_xml != inputs.xml {
            eprintln!("perfbench: the final document differs from the initial one");
            correct = false;
        }
        let records = wal_records(&crash.join("wal.log"));
        let t = Instant::now();
        let recovered = smoqe::Engine::recover(smoqe::EngineConfig::default(), &crash)
            .map_err(|e| e.to_string())?;
        let recover_ms = t.elapsed().as_secs_f64() * 1e3;
        let recovered_ok = recovered.document().map_err(|e| e.to_string())?.to_xml() == inputs.xml;
        if !recovered_ok {
            eprintln!("perfbench: the crash image recovers to a different document");
            correct = false;
        }
        println!(
            "# durable committed_txns={committed} data_dir_growth_bytes={wal_growth} crash_image_records={records} final_doc_identical={} recovered_doc_identical={recovered_ok}",
            final_xml == inputs.xml,
        );
        durable_layers = Some((
            wal_growth as f64 / committed.max(1) as f64,
            committed,
            recover_ms,
            records,
        ));
    }
    drop(conns);
    drop(control);
    live.stop();

    if grew {
        return Err(format!(
            "open loop invalid: a backlog grew (quarter median lag {lag_first:.0} -> {lag_last:.0} us, latency {lat_first:.0} -> {lat_last:.0} us); no latency is reported"
        ));
    }

    // End-to-end metrics.
    let setup_s: Vec<f64> = setups.iter().map(|t| t.total_s).collect();
    report.add(
        "setup_s",
        median(&setup_s).expect("setups ran"),
        "s",
        format!("median of {} setups", setup_s.len()),
    );
    report.add(
        "throughput_ops_s",
        closed
            .throughput()
            .ok_or("closed loop shorter than one window")?,
        "ops/s",
        format!(
            "closed loop, median of {} windows of {} ms; {} ops in {:.3} s",
            closed.window_rates.len(),
            wire::WINDOW.as_millis(),
            closed.attempted,
            closed.elapsed.as_secs_f64()
        ),
    );
    let closed_ok = closed.attempted - closed.failed;
    report.add(
        "cpu_us_per_op",
        server_cpu.as_secs_f64() * 1e6 / closed_ok.max(1) as f64,
        "us",
        format!(
            "closed loop, process CPU minus the client threads' ({:.3} s of {:.3} s) over {closed_ok} ops",
            closed.client_cpu.as_secs_f64(),
            (server_cpu + closed.client_cpu).as_secs_f64()
        ),
    );
    for (name, p) in [("query_p50_us", 50.0), ("query_p90_us", 90.0)] {
        let (value, windows, smallest) =
            windowed(&open, OpKind::Query, p).ok_or("no open-loop queries")?;
        report.add(
            name,
            value,
            "us",
            format!(
                "open loop, from due time, median over {windows} windows of {} s; smallest window {}",
                LATENCY_WINDOW.as_secs(),
                pct_note(&smallest)
            ),
        );
    }
    let q = latencies(&open, OpKind::Query);
    let p99 = percentile(&q, 99.0).ok_or("no open-loop queries")?;
    report.add(
        "query_p99_us",
        p99.value,
        "us",
        format!("open loop, from due time, whole phase, {}", pct_note(&p99)),
    );
    for (kind, label, hi) in [
        (OpKind::Batch, "batch", 90.0),
        (OpKind::Update, "update", 90.0),
    ] {
        let v = latencies(&open, kind);
        if let (Some(p50), Some(phi)) = (percentile(&v, 50.0), percentile(&v, hi)) {
            report.add(&format!("{label}_p50_us"), p50.value, "us", pct_note(&p50));
            report.add(
                &format!("{label}_p{hi}_us"),
                phi.value,
                "us",
                pct_note(&phi),
            );
        }
    }
    report.add(
        "failed_ratio",
        failed as f64 / attempted.max(1) as f64,
        "fraction",
        format!("{failed} of {attempted} ops, both phases"),
    );
    report.add(
        "peak_rss_mb",
        peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?,
        "MB",
        "VmHWM of the benchmark process (server in process)",
    );

    if !args.trace {
        return report.json(END_TO_END, correct, attempted, failed);
    }

    // ---- Per-layer metrics (traced run) ----
    let (thr_over, p50_over) = overhead.expect("traced run");
    println!(
        "# tracing overhead: throughput_ops_s {thr_over:+.1}, closed-loop rtt_p50_us {p50_over:+.2} (traced half minus untraced half)"
    );

    // Server time: match each open-loop request with its trace-ring entry.
    let mut ring: HashMap<(String, u64), Vec<u64>> = HashMap::new();
    for e in &stats1.trace {
        ring.entry((e.tenant.clone(), e.request_id))
            .or_default()
            .push(e.micros);
    }
    let mut by_key: HashMap<(String, u64), Vec<&Sample>> = HashMap::new();
    for s in &open {
        by_key
            .entry((tenants[s.conn].clone(), s.request_id))
            .or_default()
            .push(s);
    }
    let (mut service, mut wire_us) = (Vec::new(), Vec::new());
    let mut wire_spans = trace::Tracer::new(open.first().map_or_else(Instant::now, |s| s.due));
    for (key, mut samples) in by_key {
        let Some(micros) = ring.get(&key) else {
            continue;
        };
        // Two connections of one tenant share request ids: pair them in
        // completion order.
        samples.sort_by_key(|s| s.done);
        for (s, &m) in samples.iter().zip(micros) {
            service.push(m as f64);
            wire_us.push(s.rtt_us() - m as f64);
            let op = s.conn as u64 * (1 << 32) + s.request_id;
            let root = wire_spans.record(op, 0, "wire.op", s.sent, s.done, true);
            let d = Duration::from_micros(m);
            wire_spans.record_len(
                op,
                root,
                "server.service",
                s.done.checked_sub(d).unwrap_or(s.sent),
                d,
                true,
            );
        }
    }
    println!(
        "# server trace ring entries={} dropped={} matched_open_loop={} of {}",
        stats1.trace.len(),
        stats1.trace_dropped,
        service.len(),
        open.len()
    );
    let mut layer = |name: &str, v: &[f64], unit: &str, note: &str| {
        if let Some(p) = percentile(v, 50.0) {
            report.add(name, p.value, unit, format!("p50 {} {note}", pct_note(&p)));
        }
    };
    layer("server.service_us", &service, "us", "trace-ring micros");
    layer("server.wire_us", &wire_us, "us", "client rtt minus service");
    let refused_server = (stats1.busy_total + stats1.overloaded_total + stats1.shed_total)
        - (stats0.busy_total + stats0.overloaded_total + stats0.shed_total);
    report.add(
        "server.refused",
        refused_server as f64,
        "count",
        "busy+overloaded+shed deltas",
    );
    let lookups = (cache1.hits + cache1.misses) - (cache0.hits + cache0.misses);
    report.add(
        "core.plancache.hit_ratio",
        (cache1.hits - cache0.hits) as f64 / lookups.max(1) as f64,
        "fraction",
        format!("{lookups} lookups, measured phases"),
    );
    report.add(
        "core.plancache.evictions",
        (cache1.evictions - cache0.evictions) as f64,
        "count",
        "measured phases",
    );
    report.add(
        "core.plancache.invalidations",
        (cache1.invalidations - cache0.invalidations) as f64,
        "count",
        "measured phases",
    );
    let med = |f: fn(&setup::SetupTimes) -> f64| {
        median(&setups.iter().map(f).collect::<Vec<_>>()).expect("setups ran")
    };
    report.add(
        "xml.parse_mb_s",
        inputs.xml.len() as f64 / 1e6 / med(|t| t.load_document_s),
        "MB/s",
        "Engine::load_document, median of setups",
    );
    report.add(
        "view.derive_ms",
        med(|t| t.register_policy_s) * 1e3,
        "ms",
        "Engine::register_policy per policy, median of setups",
    );
    report.add(
        "tax.build_ms",
        med(|t| t.build_tax_s) * 1e3,
        "ms",
        "Engine::build_tax_index, median of setups",
    );
    if let Some((per_txn, committed, recover_ms, records)) = durable_layers {
        report.add(
            "core.durable.wal_bytes_per_txn",
            per_txn,
            "bytes",
            format!("data-dir growth over {committed} committed txns"),
        );
        report.add(
            "core.durable.recover_ms",
            recover_ms,
            "ms",
            "Engine::recover on the end-of-run crash image",
        );
        report.add(
            "core.durable.records",
            records as f64,
            "count",
            "WAL records in the crash image",
        );
    }

    // Engine time: replay the ops in process, layer by layer.
    let replay_dir = spec.durable.then(|| work.join("replay"));
    let (engine, _) = setup::build_engine(&inputs, replay_dir.as_deref())?;
    let mut replayer = replay::Replayer::new(engine, &inputs, &oracle);
    replayer.run(spec.replay_ops)?;
    let totals = replayer.tracer.per_op_totals();
    let roots = replayer.tracer.root_self_times();
    let counts = &replayer.counts;
    println!(
        "# replay ops_measured={} (first {} of the open-loop sequence, after the warm-up)",
        counts.ops,
        spec.replay_ops.min(inputs.ops.len())
    );
    // Every replayed span is a layer call; its metric is `<span>_us`.
    for (span, (values, from_warmup)) in &totals {
        let phase = if *from_warmup {
            "warm-up phase (the measured phase made no such call)"
        } else {
            "measured phase"
        };
        let p = percentile(values, 50.0).expect("non-empty");
        report.add(
            &format!("{span}_us"),
            p.value,
            "us",
            format!("p50 per op {} {phase}", pct_note(&p)),
        );
    }
    let unattributed: Vec<f64> = roots.values().flatten().copied().collect();
    if let Some(p) = percentile(&unattributed, 50.0) {
        report.add(
            "core.unattributed_us",
            p.value,
            "us",
            format!(
                "p50 per op of core.* minus its layer spans {}",
                pct_note(&p)
            ),
        );
    }
    for (root, v) in &roots {
        if let Some(p) = percentile(v, 50.0) {
            println!(
                "layer {root}.unattributed_us p50={:.3} {}",
                p.value,
                pct_note(&p)
            );
        }
    }
    report.add(
        "hype.visited_per_answer",
        counts.visited as f64 / counts.answers.max(1) as f64,
        "nodes",
        format!(
            "{} nodes visited for {} answers",
            counts.visited, counts.answers
        ),
    );
    report.add(
        "hype.jump_share",
        counts.jump_evals as f64 / counts.evals.max(1) as f64,
        "fraction",
        format!(
            "{} of {} evaluations jumped",
            counts.jump_evals, counts.evals
        ),
    );
    for (name, v) in [
        ("view.render_bytes", &counts.render_bytes),
        ("xml.serialize_bytes", &counts.serialize_bytes),
    ] {
        if let Some(p) = percentile(v, 50.0) {
            report.add(
                name,
                p.value,
                "bytes",
                format!("p50 per op {}", pct_note(&p)),
            );
        }
    }
    if let Some(p) = percentile(&counts.batch_events, 50.0) {
        report.add(
            "hype.batch_events",
            p.value,
            "count",
            format!("p50 per batch {}", pct_note(&p)),
        );
    }
    for (span, (total_us, calls)) in replayer.tracer.self_time_totals() {
        println!(
            "layer_self {span} total_ms={:.3} calls={calls} mean_us={:.3}",
            total_us / 1e3,
            total_us / calls.max(1) as f64
        );
    }
    for (kind, tracer) in [("wire", &wire_spans), ("engine", &replayer.tracer)] {
        let file = PathBuf::from(OUT_DIR).join(format!(
            "spans-{}-{kind}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ));
        tracer.write(&file).map_err(|e| format!("{file:?}: {e}"))?;
        println!(
            "# spans {kind} written={} file={}",
            tracer.spans.len(),
            file.display()
        );
    }
    report.json(PER_LAYER, correct, attempted, failed)
}
