//! Load generation over loopback: two connections, one client thread each.
//!
//! * **Closed loop** — each client sends its next request when the
//!   previous one returns; this gives capacity.
//! * **Open loop** — op `i` is due at `i / rate`; each request is sent when
//!   due, whatever is still in flight on its connection (the server
//!   accepts pipelined requests), and is timed from its due time, so a
//!   stall also counts against the requests queued behind it.
//!
//! The connections speak the wire protocol directly (`proto`'s frames),
//! because the blocking `Client` allows one request in flight. Every
//! answer is checked against the oracle as it arrives.

use crate::oracle::Oracle;
use crate::sys;
use crate::workload::{Inputs, Op, OpKind};
use smoqe_server::proto::{Frame, FrameBuffer, Request, Response, DEFAULT_MAX_FRAME_LEN};
use smoqe_server::{Principal, RemoteAnswer};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The longest a connection waits for a response before giving up.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// How long before a due time the open loop stops sleeping and polls: the
/// OS sleep overshoots by tens of microseconds, which would bias every
/// open-loop latency.
const SPIN: Duration = Duration::from_micros(200);

/// One load connection, bound to its principal.
pub struct Conn {
    stream: TcpStream,
    fb: FrameBuffer,
    buf: Vec<u8>,
    next_id: u64,
    /// The tenant key the server accounts this connection under.
    pub tenant: String,
}

impl Conn {
    pub fn open(addr: SocketAddr, principal: &Principal) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut conn = Conn {
            stream,
            fb: FrameBuffer::new(),
            buf: vec![0; 64 * 1024],
            next_id: 0,
            tenant: String::new(),
        };
        let id = conn.send(&Request::Hello {
            document: smoqe::DEFAULT_DOCUMENT.to_string(),
            principal: principal.clone(),
            auth: None,
        })?;
        let frame = conn.wait(id)?;
        match Response::decode(frame.op, &frame.payload).map_err(|e| e.to_string())? {
            Response::HelloOk { tenant } => conn.tenant = tenant,
            other => return Err(format!("hello refused: {other:?}")),
        }
        Ok(conn)
    }

    /// Sends `request` under the next request id and returns the id.
    fn send(&mut self, request: &Request) -> Result<u64, String> {
        self.next_id += 1;
        let bytes = request
            .try_encode(self.next_id)
            .map_err(|e| e.to_string())?;
        self.stream.write_all(&bytes).map_err(|e| e.to_string())?;
        Ok(self.next_id)
    }

    /// Waits up to `timeout` for bytes; returns whether any arrived.
    fn read_some(&mut self, timeout: Duration) -> Result<bool, String> {
        if !crate::sys::readable(&self.stream, timeout).map_err(|e| e.to_string())? {
            return Ok(false);
        }
        match self.stream.read(&mut self.buf) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(n) => {
                self.fb.push(&self.buf[..n]);
                Ok(true)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(false),
            Err(e) => Err(e.to_string()),
        }
    }

    fn next_frame(&mut self) -> Result<Option<Frame>, String> {
        self.fb
            .next_frame(DEFAULT_MAX_FRAME_LEN)
            .map_err(|e| e.to_string())
    }

    /// Blocks until the response to `id` arrives (nothing else may be in
    /// flight).
    fn wait(&mut self, id: u64) -> Result<Frame, String> {
        loop {
            if let Some(frame) = self.next_frame()? {
                if frame.request_id != id {
                    return Err(format!("response {} while awaiting {id}", frame.request_id));
                }
                return Ok(frame);
            }
            if !self.read_some(RESPONSE_TIMEOUT)? {
                return Err("response timed out".to_string());
            }
        }
    }
}

/// The result of one open-loop request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub conn: usize,
    pub kind: OpKind,
    pub request_id: u64,
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub failure: Option<Failure>,
}

impl Sample {
    /// Latency from the due time, in microseconds.
    pub fn latency_us(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e6
    }

    /// Client round trip (send → response), in microseconds.
    pub fn rtt_us(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e6
    }

    /// Generator lag (send − due), in microseconds.
    pub fn lag_us(&self) -> f64 {
        (self.sent - self.due).as_secs_f64() * 1e6
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    /// Busy / Overloaded: refused by admission or the queue.
    Refused,
    /// Any other error response or transport failure.
    Error,
    /// An answer that disagrees with the oracle.
    Wrong,
}

fn request(op: &Op, inputs: &Inputs) -> Request {
    match op {
        Op::Query(qid) => Request::Query {
            query: inputs.queries[*qid].text.clone(),
            deadline_ms: 0,
        },
        Op::Batch(qids) => Request::QueryBatch {
            queries: inputs.texts(qids).into_iter().map(str::to_string).collect(),
            deadline_ms: 0,
        },
        Op::Update(stmts) => Request::UpdateBatch {
            statements: stmts.clone(),
            deadline_ms: 0,
        },
    }
}

/// Checks the response `frame` to `op`; returns the failure, if any, with
/// a description for the log.
fn check(op: &Op, frame: &Frame, inputs: &Inputs, oracle: &Oracle) -> Option<(Failure, String)> {
    let response = match Response::decode(frame.op, &frame.payload) {
        Ok(r) => r,
        Err(e) => return Some((Failure::Error, e.to_string())),
    };
    match (op, response) {
        (_, Response::Busy { .. } | Response::Overloaded { .. }) => {
            Some((Failure::Refused, "refused".to_string()))
        }
        (_, Response::Error { code, message }) => {
            Some((Failure::Error, format!("error {code}: {message}")))
        }
        (Op::Query(qid), Response::AnswerOk(answer)) => check_answer(*qid, &answer, oracle, inputs),
        (Op::Batch(qids), Response::BatchOk { answers, .. }) if answers.len() == qids.len() => qids
            .iter()
            .zip(&answers)
            .find_map(|(qid, a)| check_answer(*qid, a, oracle, inputs)),
        (Op::Update(_), Response::UpdateBatchOk(r))
            if r.len() == 2
                && r[0].applied == 1
                && r[1].applied == 1
                && r[1].nodes_after == r[0].nodes_before =>
        {
            None
        }
        (op, other) => Some((
            Failure::Wrong,
            format!("{:?} answered {other:?}", op.kind()),
        )),
    }
}

fn check_answer(
    qid: usize,
    answer: &RemoteAnswer,
    oracle: &Oracle,
    inputs: &Inputs,
) -> Option<(Failure, String)> {
    let expected = oracle.get(qid);
    if answer.xml == expected.xml && answer.nodes.len() == expected.xml.len() {
        None
    } else {
        Some((
            Failure::Wrong,
            format!(
                "{}: {} answers ({} bytes), oracle {} ({} bytes)",
                inputs.queries[qid].text,
                answer.xml.len(),
                answer.xml.iter().map(String::len).sum::<usize>(),
                expected.xml.len(),
                expected.bytes()
            ),
        ))
    }
}

fn log_failure(kind: OpKind, msg: &str, logged: &mut usize) {
    if *logged < 5 {
        eprintln!("perfbench: {kind:?} failed: {msg}");
        *logged += 1;
    }
}

/// Sends `op`, waits for its response and checks it.
fn call(
    conn: &mut Conn,
    op: &Op,
    inputs: &Inputs,
    oracle: &Oracle,
) -> Result<Option<(Failure, String)>, String> {
    let id = conn.send(&request(op, inputs))?;
    let frame = conn.wait(id)?;
    Ok(check(op, &frame, inputs, oracle))
}

/// Issues each connection's warm-up ops back to back, both connections
/// concurrently. Returns how many failed; none is measured.
pub fn warm_up(conns: &mut [Conn; 2], inputs: &Inputs, oracle: &Oracle) -> Result<usize, String> {
    fn run(conn: &mut Conn, ops: &[Op], inputs: &Inputs, oracle: &Oracle) -> Result<usize, String> {
        let mut logged = 0;
        let mut failed = 0;
        for op in ops {
            if let Some((_, msg)) = call(conn, op, inputs, oracle)? {
                log_failure(op.kind(), &msg, &mut logged);
                failed += 1;
            }
        }
        Ok(failed)
    }
    let [c0, c1] = conns;
    std::thread::scope(|s| {
        let h = s.spawn(|| run(c1, &inputs.warmup[1], inputs, oracle));
        let a = run(c0, &inputs.warmup[0], inputs, oracle)?;
        Ok(a + h.join().expect("warm-up thread")?)
    })
}

/// Width of the closed loop's throughput windows.
pub const WINDOW: Duration = Duration::from_millis(250);

/// What a closed-loop phase measured. Kept compact, so the benchmark's own
/// memory does not grow much with the system's throughput (it counts in
/// `peak_rss_mb`).
#[derive(Default)]
pub struct Closed {
    pub elapsed: Duration,
    /// Completion rate (ops/s) within each full [`WINDOW`] of the phase:
    /// completions after the window's first, over the time from its first
    /// completion to its last.
    pub window_rates: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    pub wrong: usize,
    pub refused: usize,
    pub updates_ok: usize,
    /// Round trips of the successful ops, µs.
    pub rtt_us: Vec<f32>,
    /// Completion times of the successful ops, seconds into the phase.
    done_s: Vec<f32>,
    /// CPU time the client threads spent (framing, decoding, checking).
    pub client_cpu: Duration,
}

impl Closed {
    /// Throughput as the median of the window rates: a burst of
    /// interference from outside the system moves a few windows, not the
    /// median.
    pub fn throughput(&self) -> Option<f64> {
        crate::stats::median(&self.window_rates)
    }

    pub fn merge(&mut self, other: Closed) {
        self.elapsed += other.elapsed;
        self.window_rates.extend(other.window_rates.iter().copied());
        self.add(other);
    }

    /// Adds `other`'s counts (not its windows or elapsed time).
    fn add(&mut self, other: Closed) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.refused += other.refused;
        self.updates_ok += other.updates_ok;
        self.rtt_us.extend(other.rtt_us);
        self.done_s.extend(other.done_s);
        self.client_cpu += other.client_cpu;
    }

    /// Computes the window rates of a phase of `duration` from the
    /// completion times.
    fn close_windows(&mut self, duration: Duration) {
        let width = WINDOW.as_secs_f64();
        let n_windows = (duration.as_secs_f64() / width).floor() as usize;
        let mut done: Vec<f64> = self.done_s.drain(..).map(f64::from).collect();
        done.sort_by(f64::total_cmp);
        for w in 0..n_windows {
            let (lo, hi) = (w as f64 * width, (w + 1) as f64 * width);
            let a = done.partition_point(|&t| t < lo);
            let b = done.partition_point(|&t| t < hi);
            if b >= a + 2 && done[b - 1] > done[a] {
                self.window_rates
                    .push((b - a - 1) as f64 / (done[b - 1] - done[a]));
            }
        }
    }
}

/// Runs both connections closed-loop for `duration`, each cycling its own
/// closed-loop sequence.
pub fn closed_loop(
    conns: &mut [Conn; 2],
    inputs: &Inputs,
    oracle: &Oracle,
    duration: Duration,
) -> Result<Closed, String> {
    let [c0, c1] = conns;
    let start = Instant::now();
    let end = start + duration;
    let run = |conn_ix: usize, conn: &mut Conn| -> Result<Closed, String> {
        let ops = &inputs.closed[conn_ix];
        let mut out = Closed::default();
        let mut logged = 0;
        let mut i = 0;
        let cpu0 = sys::thread_cpu();
        while Instant::now() < end && !ops.is_empty() {
            let op = &ops[i % ops.len()];
            let sent = Instant::now();
            let failure = call(conn, op, inputs, oracle)?;
            let done = Instant::now();
            out.attempted += 1;
            match &failure {
                Some((kind, msg)) => {
                    log_failure(op.kind(), msg, &mut logged);
                    out.failed += 1;
                    out.wrong += usize::from(*kind == Failure::Wrong);
                    out.refused += usize::from(*kind == Failure::Refused);
                }
                None => {
                    out.updates_ok += usize::from(op.kind() == OpKind::Update);
                    out.rtt_us.push(((done - sent).as_secs_f64() * 1e6) as f32);
                    out.done_s.push((done - start).as_secs_f32());
                }
            }
            i += 1;
        }
        out.client_cpu = sys::thread_cpu() - cpu0;
        Ok(out)
    };
    std::thread::scope(|s| {
        let h = s.spawn(|| run(1, c1));
        let mut a = run(0, c0)?;
        a.add(h.join().expect("closed-loop thread")?);
        a.close_windows(duration);
        a.elapsed = start.elapsed();
        Ok(a)
    })
}

/// Issues the open-loop sequence at the workload's rate (op `i` due at
/// `i / rate`), each connection sending its own share when due.
pub fn open_loop(
    conns: &mut [Conn; 2],
    inputs: &Inputs,
    oracle: &Oracle,
) -> Result<Vec<Sample>, String> {
    let rate = inputs.spec.rate;
    let [c0, c1] = conns;
    // A little slack before the first due time, so both threads are up.
    let start = Instant::now() + Duration::from_millis(20);
    let run = |conn_ix: usize, conn: &mut Conn| -> Result<Vec<Sample>, String> {
        let ops: Vec<(Instant, &Op)> = inputs
            .ops
            .iter()
            .enumerate()
            .filter(|(_, (c, _))| *c == conn_ix)
            .map(|(i, (_, op))| (start + Duration::from_secs_f64(i as f64 / rate), op))
            .collect();
        let mut out = Vec::with_capacity(ops.len());
        let mut pending: HashMap<u64, (Instant, Instant, &Op)> = HashMap::new();
        let mut logged = 0;
        let mut next = 0;
        while next < ops.len() || !pending.is_empty() {
            let now = Instant::now();
            while next < ops.len() && ops[next].0 <= now {
                let (due, op) = ops[next];
                let sent = Instant::now();
                let id = conn.send(&request(op, inputs))?;
                pending.insert(id, (due, sent, op));
                next += 1;
            }
            // Wait for responses until the next op is nearly due, then poll
            // until it is.
            let arrived = match ops.get(next) {
                None => conn.read_some(RESPONSE_TIMEOUT)?,
                Some(&(due, _)) if due > now + SPIN => conn.read_some(due - now - SPIN)?,
                Some(_) => {
                    let got = conn.read_some(Duration::ZERO)?;
                    if !got {
                        std::thread::yield_now();
                    }
                    got
                }
            };
            if !arrived {
                if next >= ops.len() {
                    return Err("open loop: response timed out".to_string());
                }
                continue;
            }
            let done = Instant::now();
            while let Some(frame) = conn.next_frame()? {
                let (due, sent, op) = pending
                    .remove(&frame.request_id)
                    .ok_or_else(|| format!("unexpected response {}", frame.request_id))?;
                let failure = check(op, &frame, inputs, oracle);
                if let Some((_, msg)) = &failure {
                    log_failure(op.kind(), msg, &mut logged);
                }
                out.push(Sample {
                    conn: conn_ix,
                    kind: op.kind(),
                    request_id: frame.request_id,
                    due,
                    sent,
                    done,
                    failure: failure.map(|f| f.0),
                });
            }
        }
        Ok(out)
    };
    std::thread::scope(|s| {
        let h = s.spawn(|| run(1, c1));
        let mut samples = run(0, c0)?;
        samples.extend(h.join().expect("open-loop thread")?);
        samples.sort_by_key(|s| s.due);
        Ok(samples)
    })
}
