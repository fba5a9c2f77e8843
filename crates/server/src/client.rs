//! Blocking client for the SMOQE wire protocol.
//!
//! One [`Client`] wraps one TCP connection and issues synchronous
//! request/response roundtrips (request ids still increment, so traces on
//! the server side stay distinguishable). It is deliberately simple — no
//! reconnect, no pooling — but it can retry admission refusals for you:
//! an opt-in [`RetryPolicy`] re-sends a request the server answered with
//! `Busy`, waiting at least the server's `retry_after_ms` hint, with
//! jittered exponential backoff and a bounded attempt count. Retrying a
//! `Busy` is always safe: it means the request was *refused before
//! execution*, never half-done.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::proto::{
    Frame, FrameBuffer, Principal, Request, Response, WireStats, WireUpdateReport,
    DEFAULT_MAX_FRAME_LEN,
};

/// What a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server's bytes did not decode, or the response op did not
    /// match the request.
    Protocol(String),
    /// The server refused the request under admission control; retry
    /// after the hint. The connection remains usable.
    Busy {
        /// Suggested backoff in milliseconds.
        retry_after_ms: u32,
    },
    /// The server is in brownout (queue past its high-watermark) and
    /// refused the request before execution; retry after the hint. The
    /// connection remains usable.
    Overloaded {
        /// Suggested backoff in milliseconds.
        retry_after_ms: u32,
    },
    /// The caller's [request deadline](Client::set_request_deadline)
    /// elapsed on the client side — before the request could be (re)sent,
    /// or while waiting out a retry backoff. The server may also report
    /// its own expiry; that arrives as [`ClientError::Remote`] with the
    /// `DEADLINE_EXCEEDED` code.
    DeadlineExceeded,
    /// The server answered with an error frame (engine codes `1..=99`,
    /// protocol codes `100..`).
    Remote {
        /// Stable error code.
        code: u16,
        /// Display text.
        message: String,
    },
}

impl ClientError {
    /// The remote error code, if this is a remote failure.
    pub fn code(&self) -> Option<u16> {
        match self {
            ClientError::Remote { code, .. } => Some(*code),
            _ => None,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Busy { retry_after_ms } => {
                write!(f, "server busy; retry after {retry_after_ms}ms")
            }
            ClientError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded; retry after {retry_after_ms}ms")
            }
            ClientError::DeadlineExceeded => {
                write!(f, "request deadline exceeded before a response arrived")
            }
            ClientError::Remote { code, message } => {
                write!(f, "server error {code}: {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// The wire answer type a query returns (admin: raw ids + full stats;
/// group: masked — see [`crate::proto::WireAnswer`]).
pub use crate::proto::WireAnswer as RemoteAnswer;

/// Opt-in retry behavior for `Busy` (admission-refused) responses.
///
/// The wait before attempt `n` is the larger of the server's
/// `retry_after_ms` hint and `base_ms * 2^(n-1)`, capped at `cap_ms`,
/// then jittered down by up to half (a deterministic xorshift stream
/// seeded per client, so runs are reproducible and a fleet of retrying
/// clients does not stampede in lockstep).
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts per request, including the first (minimum 1).
    pub max_attempts: u32,
    /// First-retry backoff in milliseconds (doubles per attempt).
    pub base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub cap_ms: u64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_ms: 5,
            cap_ms: 500,
            seed: 0x5EED_CAFE,
        }
    }
}

impl RetryPolicy {
    /// The jittered wait before retry number `attempt` (1-based), given
    /// the server's hint.
    fn backoff_ms(&self, attempt: u32, hint_ms: u32, jitter: &mut u64) -> u64 {
        let exp = self
            .base_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(20));
        let full = u64::from(hint_ms).max(exp).min(self.cap_ms.max(1));
        // Jitter into [ceil(full/2), full].
        let half = full / 2;
        full - xorshift(jitter) % (half + 1)
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = state.wrapping_add(0x9E37_79B9_7F4A_7C15).max(1);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A blocking connection to a SMOQE server.
pub struct Client {
    stream: TcpStream,
    fb: FrameBuffer,
    next_id: u64,
    buf: Vec<u8>,
    retry: Option<RetryPolicy>,
    jitter: u64,
    busy_retries: u64,
    request_deadline: Option<Duration>,
}

impl Client {
    /// Connects (no session yet — call [`hello`](Client::hello)).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            stream,
            fb: FrameBuffer::new(),
            next_id: 0,
            buf: vec![0u8; 64 * 1024],
            retry: None,
            jitter: 0,
            busy_retries: 0,
            request_deadline: None,
        })
    }

    /// Caps how long a single socket operation may block — reads *and*
    /// writes: a server that stops draining its receive buffer must not
    /// wedge the client any more than the reverse.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    /// Sets (or, with `None`, clears) a per-request deadline.
    ///
    /// Each subsequent engine op carries the *remaining* budget as its
    /// wire `deadline_ms` — recomputed per retry attempt, so the server
    /// sees how much time the caller actually has left, not the original
    /// allowance. The retry loop never sleeps past the deadline: a
    /// backoff that would overshoot returns
    /// [`ClientError::DeadlineExceeded`] instead of retrying.
    pub fn set_request_deadline(&mut self, deadline: Option<Duration>) {
        self.request_deadline = deadline;
    }

    /// Enables (or, with `None`, disables) transparent retry of `Busy`
    /// responses. The jitter stream is reseeded from the policy.
    pub fn set_retry_policy(&mut self, policy: Option<RetryPolicy>) {
        self.jitter = policy.map_or(0, |p| p.seed);
        self.retry = policy;
    }

    /// How many `Busy` responses the retry policy has absorbed (each
    /// retried attempt counts once; a final `Busy` that exhausts the
    /// policy is returned to the caller and *not* counted here).
    pub fn busy_retries(&self) -> u64 {
        self.busy_retries
    }

    /// Sends `request` and returns the raw response frame, uninterpreted.
    ///
    /// This is the byte-level escape hatch the security tests use: two
    /// denials are only *provably* indistinguishable if the raw frames
    /// (op + payload) compare equal.
    pub fn request_raw(&mut self, request: &Request) -> Result<Frame, ClientError> {
        self.next_id += 1;
        let id = self.next_id;
        let bytes = request
            .try_encode(id)
            .map_err(|e| ClientError::Protocol(e.to_string()))?;
        self.stream.write_all(&bytes)?;
        loop {
            if let Some(frame) = self
                .fb
                .next_frame(DEFAULT_MAX_FRAME_LEN)
                .map_err(|e| ClientError::Protocol(e.to_string()))?
            {
                if frame.request_id != id {
                    return Err(ClientError::Protocol(format!(
                        "response for request {} while awaiting {}",
                        frame.request_id, id
                    )));
                }
                return Ok(frame);
            }
            let n = self.stream.read(&mut self.buf)?;
            if n == 0 {
                return Err(ClientError::Protocol(
                    "connection closed mid-response".to_string(),
                ));
            }
            self.fb.push(&self.buf[..n]);
        }
    }

    /// Sends `request` and decodes the response, mapping
    /// `Busy`/`Overloaded`/`Error` frames to their error variants. With a
    /// [`RetryPolicy`] installed, `Busy` and `Overloaded` responses are
    /// retried in place (either refusal happened before execution, so a
    /// re-send cannot double-apply) until the policy's attempt budget —
    /// or the [request deadline](Client::set_request_deadline) — runs
    /// out.
    pub fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        let deadline = self.request_deadline.map(|d| Instant::now() + d);
        let mut attempt = 1u32;
        loop {
            let frame = match deadline {
                Some(deadline) => {
                    // Stamp this attempt with the budget actually left.
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return Err(ClientError::DeadlineExceeded);
                    }
                    let ms = remaining.as_millis().min(u128::from(u32::MAX)).max(1) as u32;
                    let mut stamped = request.clone();
                    stamped.set_deadline_ms(ms);
                    self.request_raw(&stamped)?
                }
                None => self.request_raw(request)?,
            };
            let response = Response::decode(frame.op, &frame.payload)
                .map_err(|e| ClientError::Protocol(e.to_string()))?;
            let (retry_after_ms, exhausted): (u32, fn(u32) -> ClientError) = match response {
                Response::Busy { retry_after_ms } => (retry_after_ms, |ms| ClientError::Busy {
                    retry_after_ms: ms,
                }),
                Response::Overloaded { retry_after_ms } => (retry_after_ms, |ms| {
                    ClientError::Overloaded { retry_after_ms: ms }
                }),
                Response::Error { code, message } => {
                    return Err(ClientError::Remote { code, message })
                }
                other => return Ok(other),
            };
            match self.retry {
                Some(policy) if attempt < policy.max_attempts => {
                    let wait = policy.backoff_ms(attempt, retry_after_ms, &mut self.jitter);
                    // Never sleep past the caller's deadline: if the
                    // backoff would overshoot, the retry could not be
                    // answered in time anyway.
                    if let Some(deadline) = deadline {
                        let remaining = deadline.saturating_duration_since(Instant::now());
                        if Duration::from_millis(wait) >= remaining {
                            return Err(ClientError::DeadlineExceeded);
                        }
                    }
                    self.busy_retries += 1;
                    std::thread::sleep(Duration::from_millis(wait));
                    attempt += 1;
                }
                _ => return Err(exhausted(retry_after_ms)),
            }
        }
    }

    /// Binds this connection to `document` as `principal` with no
    /// credential; returns the tenant key the session is accounted
    /// under. Sufficient for group principals without a configured
    /// token, and for admin principals connecting over loopback to a
    /// server without an admin token.
    pub fn hello(&mut self, document: &str, principal: Principal) -> Result<String, ClientError> {
        self.hello_auth(document, principal, None)
    }

    /// Binds this connection like [`hello`](Client::hello), presenting
    /// `auth` where the server requires a token for the principal.
    pub fn hello_auth(
        &mut self,
        document: &str,
        principal: Principal,
        auth: Option<&str>,
    ) -> Result<String, ClientError> {
        match self.roundtrip(&Request::Hello {
            document: document.to_string(),
            principal,
            auth: auth.map(str::to_string),
        })? {
            Response::HelloOk { tenant } => Ok(tenant),
            other => Err(unexpected(&other)),
        }
    }

    /// Evaluates one query.
    pub fn query(&mut self, query: &str) -> Result<RemoteAnswer, ClientError> {
        match self.roundtrip(&Request::Query {
            query: query.to_string(),
            deadline_ms: 0,
        })? {
            Response::AnswerOk(a) => Ok(a),
            other => Err(unexpected(&other)),
        }
    }

    /// Evaluates a batch; returns per-query answers plus the shared-scan
    /// event count (0 for group principals and DOM engines).
    pub fn query_batch(
        &mut self,
        queries: &[&str],
    ) -> Result<(Vec<RemoteAnswer>, u64), ClientError> {
        match self.roundtrip(&Request::QueryBatch {
            queries: queries.iter().map(|q| q.to_string()).collect(),
            deadline_ms: 0,
        })? {
            Response::BatchOk { answers, events } => Ok((answers, events)),
            other => Err(unexpected(&other)),
        }
    }

    /// Applies one update statement.
    pub fn update(&mut self, statement: &str) -> Result<WireUpdateReport, ClientError> {
        match self.roundtrip(&Request::Update {
            statement: statement.to_string(),
            deadline_ms: 0,
        })? {
            Response::UpdateOk(r) => Ok(r),
            other => Err(unexpected(&other)),
        }
    }

    /// Applies a batch of update statements as one transaction.
    pub fn update_batch(
        &mut self,
        statements: &[&str],
    ) -> Result<Vec<WireUpdateReport>, ClientError> {
        match self.roundtrip(&Request::UpdateBatch {
            statements: statements.iter().map(|s| s.to_string()).collect(),
            deadline_ms: 0,
        })? {
            Response::UpdateBatchOk(reports) => Ok(reports),
            other => Err(unexpected(&other)),
        }
    }

    /// Loads a document into the server's catalog (admin sessions only).
    pub fn open_document(
        &mut self,
        name: &str,
        dtd: Option<&str>,
        xml: Option<&str>,
        policies: &[(&str, &str)],
    ) -> Result<(), ClientError> {
        match self.roundtrip(&Request::OpenDocument {
            name: name.to_string(),
            dtd: dtd.map(str::to_string),
            xml: xml.map(str::to_string),
            policies: policies
                .iter()
                .map(|(g, p)| (g.to_string(), p.to_string()))
                .collect(),
        })? {
            Response::OpenOk => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches server/engine statistics (the trace ring is included only
    /// for admin sessions asking for it).
    pub fn stats(&mut self, include_trace: bool) -> Result<WireStats, ClientError> {
        match self.roundtrip(&Request::Stats { include_trace })? {
            Response::StatsOk(s) => Ok(*s),
            other => Err(unexpected(&other)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the server to drain (admin sessions only).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::ShutdownOk => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(response: &Response) -> ClientError {
    ClientError::Protocol(format!("unexpected response op 0x{:02x}", response.op()))
}
