//! Span recording for the traced run. Spans live in memory and are
//! written out when the run ends; nothing here touches the program.
//!
//! A span has a name, a start, an end, the span that caused it (0 for an
//! op's root span) and the id of the op it belongs to. A layer's self
//! time is its span's duration minus its children's durations. (Replayed
//! layer calls run after the Session call they decompose, so children do
//! not lie inside their parent's wall-clock interval; durations are what
//! add up.)

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub op: u64,
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// Whether the op belongs to the measured phase (not the warm-up).
    pub measured: bool,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    next_id: u64,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            next_id: 1,
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        op: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        measured: bool,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            op,
            id,
            parent,
            name,
            start,
            end,
            measured,
        });
        id
    }

    /// Records a span whose duration is `d` but which was assembled from
    /// several calls (it starts at `start` and lasts `d`).
    pub fn record_len(
        &mut self,
        op: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        d: Duration,
        measured: bool,
    ) -> u64 {
        self.record(op, parent, name, start, start + d, measured)
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        op: u64,
        parent: u64,
        name: &'static str,
        measured: bool,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        self.record(op, parent, name, start, end, measured);
        out
    }

    /// Per op, the summed duration of each named layer's spans, from the
    /// measured phase (or, for a layer the measured phase never called,
    /// from the warm-up): `name -> (per-op totals, from_warmup)`.
    pub fn per_op_totals(&self) -> BTreeMap<&'static str, (Vec<f64>, bool)> {
        let mut measured: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        let mut warm: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for s in &self.spans {
            let target = if s.measured { &mut measured } else { &mut warm };
            *target.entry(s.name).or_default().entry(s.op).or_default() += s.micros();
        }
        let mut out = BTreeMap::new();
        for (name, ops) in warm {
            out.insert(name, (ops.into_values().collect(), true));
        }
        for (name, ops) in measured {
            out.insert(name, (ops.into_values().collect(), false));
        }
        out
    }

    /// Per op, each op span's self time (duration minus its direct
    /// children), measured phase only: `root name -> per-op self times`.
    pub fn root_self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_sum: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_sum.entry(s.parent).or_default() += s.micros();
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.parent == 0 && s.measured) {
            let own = s.micros() - child_sum.get(&s.id).copied().unwrap_or(0.0);
            out.entry(s.name).or_default().push(own);
        }
        out
    }

    /// Self time of every span, summed per layer name (measured phase),
    /// with the call count: `name -> (total self µs, calls)`.
    pub fn self_time_totals(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut child_sum: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.measured && s.parent != 0) {
            *child_sum.entry(s.parent).or_default() += s.micros();
        }
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.measured) {
            let own = s.micros() - child_sum.get(&s.id).copied().unwrap_or(0.0);
            let e = out.entry(s.name).or_default();
            e.0 += own;
            e.1 += 1;
        }
        out
    }

    /// Writes every span as one tab-separated line (times in µs from the
    /// run's origin).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tid\tparent\tname\tmeasured\tstart_us\tend_us")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{:.3}\t{:.3}",
                s.op,
                s.id,
                s.parent,
                s.name,
                u8::from(s.measured),
                (s.start.saturating_duration_since(self.origin)).as_secs_f64() * 1e6,
                (s.end.saturating_duration_since(self.origin)).as_secs_f64() * 1e6,
            )?;
        }
        out.flush()
    }
}
