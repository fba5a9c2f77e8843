//! The traced run's engine-side breakdown: each op is replayed in process
//! against an engine built from the same inputs. The replay makes the
//! untraced `Session` call the server would make, then calls the layers'
//! public functions in the order the engine does, timing each as a span
//! and checking that each layer's result equals what the `Session` call
//! returned.
//!
//! * Query: `Session::plan` (a cache hit, or a miss decomposed into
//!   `parse_path` → `rewrite` | `compile` → `optimize` →
//!   `CompiledMfa::from_arc`), `Session::query_serialized`, then
//!   `hype::evaluate_mfa_plan` in the mode the answer reports and the
//!   answer rendering (`materialize_fragment` + `to_xml` for groups,
//!   `subtree_to_string` for admins).
//! * Batch: the per-query plans, `Session::query_batch_serialized`, then
//!   `hype::evaluate_batch_stream_plans` over the snapshot's buffer and
//!   the group rendering.
//! * Update: `Session::update_batch`, then per statement `parse_update`,
//!   target resolution (on the source for admins; on the materialized
//!   view plus `origins_of` for groups), the splice, the TAX patch and the
//!   post-edit view, then `Dtd::validate` and — only when the spliced
//!   document holds no buffer — `Document::to_xml`.

use crate::oracle::Oracle;
use crate::trace::Tracer;
use crate::workload::{Inputs, Op};
use smoqe::automata::{compile, optimize::optimize, CompiledMfa};
use smoqe::hype::batch::evaluate_batch_stream_plans;
use smoqe::hype::dom::{evaluate_mfa_plan, DomOptions};
use smoqe::hype::stream::StreamOptions;
use smoqe::hype::{ExecMode, NoopObserver};
use smoqe::rxpath::{evaluate, parse_path};
use smoqe::update::{parse_update, InsertPos, UpdateKind};
use smoqe::view::{materialize, materialize_fragment};
use smoqe::xml::serialize::subtree_to_string;
use smoqe::xml::{delete_subtree, insert_fragment, replace_subtree, Document, NodeId, SplicePlace};
use smoqe::{Engine, Session, User};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counters the replay gathers besides spans.
#[derive(Default)]
pub struct ReplayCounts {
    pub ops: usize,
    pub answers: usize,
    pub visited: usize,
    pub jump_evals: usize,
    pub evals: usize,
    pub render_bytes: Vec<f64>,
    pub serialize_bytes: Vec<f64>,
    pub batch_events: Vec<f64>,
}

pub struct Replayer<'a> {
    engine: Arc<Engine>,
    sessions: [Session; 2],
    inputs: &'a Inputs,
    oracle: &'a Oracle,
    /// Compiled plans built from the replayed stages, by query id.
    plans: HashMap<usize, Arc<CompiledMfa>>,
    pub tracer: Tracer,
    pub counts: ReplayCounts,
    next_op: u64,
}

type R<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl<'a> Replayer<'a> {
    pub fn new(engine: Arc<Engine>, inputs: &'a Inputs, oracle: &'a Oracle) -> Replayer<'a> {
        let sessions = [0, 1].map(|c| engine.session(inputs.principals[c].to_user()));
        Replayer {
            engine,
            sessions,
            inputs,
            oracle,
            plans: HashMap::new(),
            tracer: Tracer::new(Instant::now()),
            counts: ReplayCounts::default(),
            next_op: 0,
        }
    }

    /// Replays the warm-up (interleaved by connection), then the first
    /// `max_measured` ops of the measured sequence.
    pub fn run(&mut self, max_measured: usize) -> R<()> {
        let warm = self.inputs.warmup.clone();
        for i in 0..warm[0].len().max(warm[1].len()) {
            for (conn, ops) in warm.iter().enumerate() {
                if let Some(op) = ops.get(i) {
                    self.op(conn, op, false)?;
                }
            }
        }
        let ops: Vec<(usize, Op)> = self.inputs.ops.iter().take(max_measured).cloned().collect();
        for (conn, op) in &ops {
            self.op(*conn, op, true)?;
        }
        Ok(())
    }

    fn op(&mut self, conn: usize, op: &Op, measured: bool) -> R<()> {
        self.next_op += 1;
        if measured {
            self.counts.ops += 1;
        }
        match op {
            Op::Query(qid) => self.query(conn, *qid, measured),
            Op::Batch(qids) => self.batch(conn, qids, measured),
            Op::Update(stmts) => self.update(conn, stmts, measured),
        }
    }

    /// Times `Session::plan` for `qid` as a child of `parent`; on a cache
    /// miss, decomposes the pipeline into its stages. Returns the call's
    /// duration and the compiled plan.
    fn plan(
        &mut self,
        conn: usize,
        qid: usize,
        parent: u64,
        measured: bool,
    ) -> R<(Duration, Arc<CompiledMfa>)> {
        let op = self.next_op;
        let text = &self.inputs.queries[qid].text;
        let before = self.engine.cache_metrics().misses;
        let start = Instant::now();
        self.sessions[conn].plan(text).map_err(err)?;
        let end = Instant::now();
        let missed = self.engine.cache_metrics().misses > before;
        let name = if missed {
            "core.plancache.miss"
        } else {
            "core.plancache.hit"
        };
        let span = self.tracer.record(op, parent, name, start, end, measured);
        // The replay engine starts cold, so every query misses before it
        // hits: the stages below always ran once for a hit's plan.
        if missed {
            let (p, m) = (span, measured);
            let vocab = self.engine.vocabulary();
            let t = &mut self.tracer;
            let path = t
                .time(op, p, "rxpath.parse", m, || parse_path(text, vocab))
                .map_err(err)?;
            let mfa = match &self.inputs.queries[qid].group {
                Some(g) => {
                    let spec = self.engine.view(g).map_err(err)?;
                    t.time(op, p, "rewrite.rewrite", m, || {
                        smoqe::rewrite::rewrite(&path, &spec)
                    })
                }
                None => t.time(op, p, "automata.compile", m, || compile(&path, vocab)),
            };
            let optimized = t.time(op, p, "automata.optimize", m, || optimize(&mfa));
            let plan = t.time(op, p, "automata.plan", m, || {
                CompiledMfa::from_arc(Arc::new(optimized))
            });
            self.plans.insert(qid, Arc::new(plan));
        }
        let plan = self.plans.get(&qid).ok_or("a plan hit before its miss")?;
        Ok((end - start, plan.clone()))
    }

    /// Renders `nodes` as this connection's principal sees them, timing
    /// each call; returns the serialized answers.
    fn render(
        &mut self,
        conn: usize,
        nodes: &[NodeId],
        parent: u64,
        measured: bool,
    ) -> R<Vec<String>> {
        let op = self.next_op;
        let doc = self.engine.document().map_err(err)?;
        let mut out = Vec::with_capacity(nodes.len());
        let user = self.sessions[conn].user().clone();
        match &user {
            User::Group(g) => {
                let spec = self.engine.view(g).map_err(err)?;
                for &n in nodes {
                    let xml = self
                        .tracer
                        .time(op, parent, "view.render", measured, || {
                            materialize_fragment(&spec, &doc, n).map(|f| f.doc.to_xml())
                        })
                        .map_err(err)?;
                    out.push(xml);
                }
            }
            User::Admin => {
                for &n in nodes {
                    out.push(self.tracer.time(op, parent, "xml.serialize", measured, || {
                        subtree_to_string(&doc, n)
                    }));
                }
            }
        }
        if measured {
            let bytes = out.iter().map(String::len).sum::<usize>() as f64;
            match user {
                User::Group(_) => self.counts.render_bytes.push(bytes),
                User::Admin => self.counts.serialize_bytes.push(bytes),
            }
        }
        Ok(out)
    }

    fn query(&mut self, conn: usize, qid: usize, measured: bool) -> R<()> {
        let op = self.next_op;
        let start = Instant::now();
        // The op span is assembled below; children point at its id.
        let root = self
            .tracer
            .record(op, 0, "core.query", start, start, measured);
        let (plan_d, plan) = self.plan(conn, qid, root, measured)?;
        let text = &self.inputs.queries[qid].text;
        let t = Instant::now();
        let answer = self.sessions[conn].query_serialized(text).map_err(err)?;
        let call_d = t.elapsed();
        self.set_root_len(root, plan_d + call_d);
        let expected = self.oracle.get(qid);
        if answer.xml.as_ref() != Some(&expected.xml) {
            return Err(format!(
                "replayed {text}: Session answer disagrees with the oracle"
            ));
        }
        let doc = self.engine.document().map_err(err)?;
        let tax = self.engine.tax_index();
        let (nodes, stats) = self.tracer.time(op, root, "hype.eval", measured, || {
            evaluate_mfa_plan(
                &doc,
                &plan,
                &DomOptions {
                    tax: tax.as_deref(),
                },
                answer.mode,
                &mut NoopObserver,
            )
        });
        if nodes.as_slice() != answer.nodes.as_slice() {
            return Err(format!(
                "replayed {text}: hype answer disagrees with the Session"
            ));
        }
        if measured {
            self.counts.evals += 1;
            self.counts.answers += nodes.len();
            self.counts.visited += stats.nodes_visited;
            self.counts.jump_evals += usize::from(answer.mode == ExecMode::Jump);
        }
        let xml = self.render(conn, &answer.nodes, root, measured)?;
        if Some(&xml) != answer.xml.as_ref() {
            return Err(format!(
                "replayed {text}: rendering disagrees with the Session"
            ));
        }
        Ok(())
    }

    fn batch(&mut self, conn: usize, qids: &[usize], measured: bool) -> R<()> {
        let op = self.next_op;
        let start = Instant::now();
        let root = self
            .tracer
            .record(op, 0, "core.batch", start, start, measured);
        let mut plans = Vec::new();
        let mut total = Duration::ZERO;
        for &qid in qids {
            let (d, plan) = self.plan(conn, qid, root, measured)?;
            total += d;
            plans.push(plan);
        }
        let texts = self.inputs.texts(qids);
        let t = Instant::now();
        let batch = self.sessions[conn]
            .query_batch_serialized(&texts)
            .map_err(err)?;
        self.set_root_len(root, total + t.elapsed());
        for (qid, a) in qids.iter().zip(&batch.answers) {
            if a.xml.as_ref() != Some(&self.oracle.get(*qid).xml) {
                return Err("replayed batch: Session answer disagrees with the oracle".into());
            }
        }
        let admin = matches!(self.sessions[conn].user(), User::Admin);
        let doc = self.engine.document().map_err(err)?;
        let raw = doc
            .shared_buffer()
            .ok_or("the loaded document holds no buffer")?;
        let lanes: Vec<(&CompiledMfa, StreamOptions)> = plans
            .iter()
            .map(|p| (p.as_ref(), StreamOptions { want_xml: admin }))
            .collect();
        let vocab = self.engine.vocabulary();
        let outcome = self
            .tracer
            .time(op, root, "hype.batch", measured, || {
                evaluate_batch_stream_plans(raw.as_bytes(), &lanes, vocab, ExecMode::Compiled)
            })
            .map_err(err)?;
        if measured {
            self.counts.batch_events.push(outcome.events as f64);
        }
        for (out, answer) in outcome.outcomes.iter().zip(&batch.answers) {
            let nodes: Vec<NodeId> = out.answers.iter().map(|&n| NodeId(n)).collect();
            if nodes != answer.nodes {
                return Err("replayed batch: shared scan disagrees with the Session".into());
            }
            if !admin {
                let xml = self.render(conn, &nodes, root, measured)?;
                if Some(&xml) != answer.xml.as_ref() {
                    return Err("replayed batch: rendering disagrees with the Session".into());
                }
            }
        }
        Ok(())
    }

    fn update(&mut self, conn: usize, stmts: &[String], measured: bool) -> R<()> {
        let op = self.next_op;
        let before = self.engine.document().map_err(err)?;
        let tax_before = self.engine.tax_index();
        let dtd = self.engine.dtd();
        let texts: Vec<&str> = stmts.iter().map(String::as_str).collect();
        let start = Instant::now();
        self.sessions[conn].update_batch(&texts).map_err(err)?;
        let end = Instant::now();
        let root = self
            .tracer
            .record(op, 0, "core.update", start, end, measured);
        let after = self.engine.document().map_err(err)?;

        let spec = match self.sessions[conn].user() {
            User::Group(g) => Some(self.engine.view(g).map_err(err)?),
            User::Admin => None,
        };
        let vocab = self.engine.vocabulary();
        let t = &mut self.tracer;
        let mut doc: Arc<Document> = before;
        let mut tax = tax_before;
        let mut view = match &spec {
            Some(spec) => Some(
                t.time(op, root, "view.materialize", measured, || {
                    materialize(spec, &doc)
                })
                .map_err(err)?,
            ),
            None => None,
        };
        for text in &texts {
            let update = t
                .time(op, root, "update.parse", measured, || {
                    parse_update(text, vocab)
                })
                .map_err(err)?;
            let targets: Vec<NodeId> =
                t.time(op, root, "update.resolve", measured, || match &view {
                    None => evaluate(&doc, &update.target).into_vec(),
                    Some(view) => view.origins_of(evaluate(&view.doc, &update.target).iter()),
                });
            if targets.is_empty() {
                return Err(format!("replayed update {text}: no target"));
            }
            for &target in targets.iter().rev() {
                let (new_doc, span) = t
                    .time(op, root, "xml.splice", measured, || match &update.kind {
                        UpdateKind::Delete => delete_subtree(&doc, target),
                        UpdateKind::Replace { fragment } => replace_subtree(&doc, target, fragment),
                        UpdateKind::Insert { fragment, pos } => {
                            insert_fragment(&doc, target, place(*pos), fragment)
                        }
                    })
                    .map_err(err)?;
                tax = tax.map(|old| {
                    Arc::new(t.time(op, root, "tax.patch", measured, || {
                        old.patched(&new_doc, &span)
                    }))
                });
                doc = Arc::new(new_doc);
            }
            if let Some(spec) = &spec {
                view = Some(
                    t.time(op, root, "view.materialize", measured, || {
                        materialize(spec, &doc)
                    })
                    .map_err(err)?,
                );
            }
        }
        if let Some(dtd) = &dtd {
            t.time(op, root, "xml.validate", measured, || dtd.validate(&doc))
                .map_err(err)?;
        }
        if doc.shared_buffer().is_none() {
            t.time(op, root, "xml.reserialize", measured, || doc.to_xml());
        }
        if doc.to_xml() != after.to_xml() {
            return Err("replayed update: the layer replay disagrees with the Session".into());
        }
        Ok(())
    }

    /// Sets an assembled op span's duration.
    fn set_root_len(&mut self, root: u64, d: Duration) {
        if let Some(s) = self.tracer.spans.iter_mut().rev().find(|s| s.id == root) {
            s.end = s.start + d;
        }
    }
}

fn place(pos: InsertPos) -> SplicePlace {
    match pos {
        InsertPos::Into => SplicePlace::Into,
        InsertPos::Before => SplicePlace::Before,
        InsertPos::After => SplicePlace::After,
    }
}
