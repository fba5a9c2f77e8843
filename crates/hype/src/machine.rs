//! The shared HyPE evaluation core.
//!
//! HyPE (Hybrid Pass Evaluation, paper §3) performs **one** top-down
//! depth-first traversal during which it simultaneously (a) advances the
//! selection NFA, (b) instantiates and resolves predicates (the AFA layer),
//! and (c) collects potential answers into `Cans`; a single post-pass over
//! `Cans` then selects the answer. The same core drives both the DOM
//! walker and the StAX stream evaluator — the only differences are how
//! `text() = 'c'` tests are resolved (eagerly via the tree vs. by
//! accumulation) and whether subtrees can be skipped (random access vs.
//! sequential scan).
//!
//! ## Compiled execution
//!
//! The machine executes a [`CompiledMfa`] — the dense-table form of the
//! plan (see `smoqe_automata::compile`). Guard-free NFAs run as
//! subset-construction **DFAs** — one `u32` per open tree level, one
//! dense-row lookup per event. Guarded NFAs step through precomputed CSR
//! rows instead of scanning transition lists, the per-node predicate spawn
//! cache is an epoch-marked array (no hashing), and the guard-aware
//! closure uses a dense epoch-marked builder. Nothing in the per-event
//! path hashes or allocates beyond pooled scratch. Answers are checked
//! against the naive `smoqe_rxpath` evaluator by the differential tests.
//!
//! ## Runs, tags and instances
//!
//! * A **run** is a live simulation of one NFA: the selection NFA (the
//!   "top" run, alive for the whole traversal) or a `HasPath` predicate
//!   automaton rooted at the node that instantiated it. A run maintains a
//!   stack of *active sets*, one per open tree level: pairs of
//!   `(state, validity tag)` — or, for DFA-kind NFAs, a single dense state
//!   id per level.
//! * A **validity tag** ([`Tag`]) says under which predicate instances the
//!   state assignment is valid. Guard-free regions keep the constant
//!   `True` and allocate nothing.
//! * A **predicate instance** is a predicate pinned to the node where a
//!   guarded ε-edge was traversed. `HasPath` instances own a run;
//!   `text()='c'` instances either resolve eagerly (DOM) or accumulate
//!   text (StAX); `not/and/or` combine sub-instances. Every instance
//!   resolves no later than when the traversal leaves its origin node, so
//!   the final Cans pass sees only resolved instances.

use crate::cans::{Cans, FId, FormulaArena, InstId, Tag};
use crate::observer::EvalObserver;
use crate::stats::EvalStats;
use smoqe_automata::compile::{CompiledMfa, DEAD};
use smoqe_automata::{Mfa, NfaId, Pred, PredId, StateId};
use smoqe_xml::{Label, LabelSet};
use std::borrow::Cow;

/// Sentinel node id for the virtual document node above the root.
pub const VIRTUAL_NODE: u32 = u32::MAX;

/// How a DOM driver traverses the document.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Dense-table execution over a full walk (DFA fast path, CSR rows,
    /// epoch arenas).
    #[default]
    Compiled,
    /// Jump-scan evaluation (DOM mode only): predicate-free DFA plans
    /// skip between candidate subtrees through the positional label index
    /// instead of walking the tree (see [`crate::jump`]). Drivers that
    /// cannot jump — streaming, guarded plans, no index — silently fall
    /// back to [`ExecMode::Compiled`]; answers are identical either way.
    Jump,
}

/// Eager `text()='c'` resolution callback (DOM mode). Returning
/// [`Cow::Borrowed`] for the common single-text-child case keeps the
/// per-check path allocation-free.
pub type TextResolver<'a> = dyn Fn(u32) -> Cow<'a, str> + 'a;

/// How far a child's label lets the automata advance (pre-enter check used
/// for subtree skipping).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preview {
    /// No live run has a transition matching the label: the subtree is
    /// invisible to the query.
    NoMatch,
    /// Some run advances, but the TAX index proves no accepting
    /// continuation fits in the subtree.
    Pruned,
    /// The subtree must be visited.
    Progress,
}

#[derive(Clone, Copy, Debug)]
enum InstRef {
    Resolved(bool),
    Pending(InstId),
}

#[derive(Debug)]
enum InstKind {
    TextEq {
        /// Accumulated text, capped at `target.len() + 1` bytes.
        buf: String,
        target: String,
        /// Frame depth of the origin element: only its *direct* text
        /// counts (`text() = 'c'` compares direct text content).
        depth: usize,
    },
    HasPath {
        /// Validity tags of accept events collected by the run.
        accepts: Vec<Tag>,
    },
    Not {
        sub: InstId,
    },
    And {
        subs: Vec<InstId>,
    },
    Or {
        subs: Vec<InstId>,
    },
}

#[derive(Debug)]
struct Instance {
    kind: InstKind,
}

type RunId = usize;

/// `(state, validity)` pairs; states unique, sorted by id (lookups scan,
/// sets are small).
type ActiveSet = Vec<(StateId, Tag)>;

/// Per-run stack of active levels: dense DFA states for guard-free NFAs,
/// tagged state sets otherwise.
#[derive(Debug)]
enum RunStack {
    Dfa(Vec<u32>),
    Sets(Vec<ActiveSet>),
}

impl RunStack {
    fn clear(&mut self) {
        match self {
            RunStack::Dfa(v) => v.clear(),
            RunStack::Sets(v) => v.clear(),
        }
    }
}

#[derive(Debug)]
struct Run {
    nfa: NfaId,
    /// Owning instance; `None` for the top (selection) run.
    inst: Option<InstId>,
    dead: bool,
    stack: RunStack,
}

struct Frame {
    node: u32,
    /// Runs whose stacks we pushed at this level (popped symmetric).
    stepped: Vec<RunId>,
    /// Runs spawned at this node (finalized when it closes).
    spawned_runs: Vec<RunId>,
    /// Instances spawned at this node (resolved when it closes).
    opened: Vec<InstId>,
    /// Runs children should step.
    live: Vec<RunId>,
}

/// Epoch-marked dense builder for the guard-aware closure.
/// One builder per closure invocation; recursive `HasPath` spawns take a
/// fresh builder from the machine's pool, so arrays are never shared
/// across nesting levels.
#[derive(Default)]
struct ClosureBuilder {
    /// Epoch per state; entries from older epochs are logically absent.
    mark: Vec<u32>,
    epoch: u32,
    known_true: Vec<bool>,
    /// Sorted, deduplicated formula parts per state.
    parts: Vec<Vec<FId>>,
    /// States touched this epoch (each exactly once).
    touched: Vec<StateId>,
    work: Vec<StateId>,
}

impl ClosureBuilder {
    fn begin(&mut self, states: usize) {
        if self.mark.len() < states {
            self.mark.resize(states, 0);
            self.known_true.resize(states, false);
            self.parts.resize_with(states, Vec::new);
        }
        self.epoch += 1;
        self.touched.clear();
        self.work.clear();
    }

    /// Merges `tag` into state `s`, returning whether anything changed.
    fn merge(&mut self, s: StateId, tag: Tag) -> bool {
        let i = s.index();
        if self.mark[i] != self.epoch {
            self.mark[i] = self.epoch;
            self.known_true[i] = false;
            self.parts[i].clear();
            self.touched.push(s);
        }
        match tag {
            Tag::True => {
                let changed = !self.known_true[i];
                self.known_true[i] = true;
                changed
            }
            Tag::Formula(f) => {
                if self.known_true[i] {
                    false
                } else {
                    match self.parts[i].binary_search(&f) {
                        Ok(_) => false,
                        Err(pos) => {
                            self.parts[i].insert(pos, f);
                            true
                        }
                    }
                }
            }
        }
    }
}

/// The evaluation machine. Drivers feed `begin`/`enter`/`text`/`leave`/
/// `end` in document order.
pub struct Machine<'a> {
    plan: &'a CompiledMfa,
    mfa: &'a Mfa,
    /// Epoch-marked scratch for closure merging (index = state id).
    scratch: Vec<u32>,
    scratch_epoch: u32,
    /// Pool of dense closure builders (guarded slow path).
    builder_pool: Vec<ClosureBuilder>,
    /// Recycled frames and active sets (per-node allocation avoidance).
    frame_pool: Vec<Frame>,
    set_pool: Vec<ActiveSet>,
    seed_buf: Vec<(StateId, Tag)>,
    runs: Vec<Run>,
    insts: Vec<Instance>,
    truths: Vec<Option<bool>>,
    arena: FormulaArena,
    cans: Cans,
    immediate: Vec<u32>,
    frames: Vec<Frame>,
    open_texteq: Vec<InstId>,
    /// Per-node spawn cache: epoch-marked arrays indexed by predicate id
    /// — one instance per (pred, node), no hashing.
    spawn_mark: Vec<u32>,
    spawn_val: Vec<InstRef>,
    spawn_epoch: u32,
    /// Eager `text()='c'` resolution (DOM mode): node id -> string value.
    text_resolver: Option<&'a TextResolver<'a>>,
    /// Candidate discovered by the most recent `enter` (for stream
    /// recorders).
    last_candidate: Option<(u32, bool)>,
    /// Whether the observer wants events (cached at `begin`; skipping the
    /// per-event virtual dispatch for `NoopObserver` is measurable).
    observe: bool,
    /// The whole-plan DFA, present when the plan has **no predicates** and
    /// the top NFA compiled to a dense table: exactly one run, every tag
    /// `True`, nothing ever spawns. Such plans bypass the frame/run
    /// machinery entirely — one `u32` per level and one table read per
    /// event ([`Machine::enter_simple`]).
    simple_dfa: Option<&'a smoqe_automata::compile::DfaTable>,
    /// `simple_dfa` engaged for this traversal (disabled when an observer
    /// wants the full event stream, which the lean path does not produce).
    simple_active: bool,
    /// Per-level DFA states of the lean path ([`DEAD`] = dormant level).
    simple_stack: Vec<u32>,
    stats: EvalStats,
}

impl<'a> Machine<'a> {
    /// Creates a machine for `plan`. `text_resolver` enables eager
    /// `text()='c'` resolution (DOM mode); without it, text is accumulated
    /// from `text` events (StAX mode). Jumping is a driver-level strategy
    /// (`crate::jump`), so the machine always executes the compiled tables.
    pub fn new(plan: &'a CompiledMfa, text_resolver: Option<&'a TextResolver<'a>>) -> Self {
        let pred_count = plan.mfa().pred_count();
        let simple_dfa = if pred_count == 0 {
            plan.nfa(plan.mfa().top()).dfa()
        } else {
            None
        };
        Machine {
            plan,
            mfa: plan.mfa(),
            simple_dfa,
            simple_active: false,
            simple_stack: Vec::new(),
            scratch: vec![0; plan.max_states()],
            scratch_epoch: 0,
            builder_pool: Vec::new(),
            frame_pool: Vec::new(),
            set_pool: Vec::new(),
            seed_buf: Vec::new(),
            runs: Vec::new(),
            insts: Vec::new(),
            truths: Vec::new(),
            arena: FormulaArena::new(),
            cans: Cans::new(),
            immediate: Vec::new(),
            frames: Vec::new(),
            open_texteq: Vec::new(),
            spawn_mark: vec![0; pred_count],
            spawn_val: vec![InstRef::Resolved(false); pred_count],
            spawn_epoch: 0,
            text_resolver,
            last_candidate: None,
            observe: true,
            stats: EvalStats {
                tree_passes: 1,
                ..Default::default()
            },
        }
    }

    /// Whether any `text()='c'` instance is still accumulating (stream
    /// drivers must keep feeding text while this holds).
    pub fn has_open_texteq(&self) -> bool {
        !self.open_texteq.is_empty()
    }

    /// Candidate discovered by the most recent `enter`, if any.
    pub fn take_last_candidate(&mut self) -> Option<(u32, bool)> {
        self.last_candidate.take()
    }

    /// Mutable access to the statistics (drivers add prune counters).
    pub fn stats_mut(&mut self) -> &mut EvalStats {
        &mut self.stats
    }

    /// Whether `nfa` executes as a dense-table DFA in this machine.
    #[inline]
    fn dfa_kind(&self, nfa: NfaId) -> bool {
        self.plan.nfa(nfa).dfa().is_some()
    }

    /// Starts a fresh per-node spawn-cache window.
    fn reset_spawn_cache(&mut self) {
        self.spawn_epoch = self.spawn_epoch.wrapping_add(1);
    }

    fn spawn_lookup(&self, pred: PredId) -> Option<InstRef> {
        if self.spawn_mark[pred.index()] == self.spawn_epoch && self.spawn_epoch != 0 {
            Some(self.spawn_val[pred.index()])
        } else {
            None
        }
    }

    fn spawn_store(&mut self, pred: PredId, r: InstRef) {
        self.spawn_mark[pred.index()] = self.spawn_epoch;
        self.spawn_val[pred.index()] = r;
    }

    fn take_frame(&mut self, node: u32) -> Frame {
        match self.frame_pool.pop() {
            Some(mut f) => {
                f.node = node;
                f
            }
            None => Frame {
                node,
                stepped: Vec::new(),
                spawned_runs: Vec::new(),
                opened: Vec::new(),
                live: Vec::new(),
            },
        }
    }

    fn recycle_frame(&mut self, mut frame: Frame) {
        frame.stepped.clear();
        frame.spawned_runs.clear();
        frame.opened.clear();
        frame.live.clear();
        self.frame_pool.push(frame);
    }

    fn take_set(&mut self) -> ActiveSet {
        self.set_pool.pop().unwrap_or_default()
    }

    /// Starts the traversal: pushes the virtual document frame and seeds
    /// the selection run.
    pub fn begin(&mut self, observer: &mut dyn EvalObserver) {
        assert!(
            self.frames.is_empty() && self.simple_stack.is_empty(),
            "begin called twice"
        );
        self.observe = !observer.is_noop();
        // Predicate-free DFA plans take the lean path unless an observer
        // wants the full event stream.
        if !self.observe {
            if let Some(dfa) = self.simple_dfa {
                self.simple_active = true;
                // Accepts at the virtual node are dropped, as below.
                self.simple_stack.push(dfa.start());
                return;
            }
        }
        let frame = self.take_frame(VIRTUAL_NODE);
        self.frames.push(frame);
        let top = self.mfa.top();
        self.reset_spawn_cache();
        if self.dfa_kind(top) {
            // An accept at the virtual node would select the document
            // node, which is not an element answer — dropped, matching
            // the reference evaluator.
            let start = self.plan.nfa(top).dfa().expect("dfa kind").start();
            self.runs.push(Run {
                nfa: top,
                inst: None,
                dead: false,
                stack: RunStack::Dfa(vec![start]),
            });
            let frame = self.frames.last_mut().expect("virtual frame");
            frame.live = vec![0];
            return;
        }
        self.runs.push(Run {
            nfa: top,
            inst: None,
            dead: false,
            stack: RunStack::Sets(Vec::new()),
        });
        let mut new_runs = Vec::new();
        let start = self.mfa.nfa(top).start();
        let set = self.closure(
            top,
            &[(start, Tag::True)],
            VIRTUAL_NODE,
            &mut new_runs,
            observer,
        );
        // Top-run accepts at the virtual node are dropped (see above).
        match &mut self.runs[0].stack {
            RunStack::Sets(stack) => stack.push(set),
            RunStack::Dfa(_) => unreachable!("top run built as Sets"),
        }
        let mut live = vec![0];
        live.extend(new_runs.iter().copied().filter(|&r| !self.runs[r].dead));
        let frame = self.frames.last_mut().expect("virtual frame");
        frame.spawned_runs = new_runs;
        frame.live = live;
    }

    /// Pre-enter check: can any live run make progress in a subtree whose
    /// root has `label` and whose descendants offer `available` labels?
    /// Pass `None` for `available` when no index is present (pure
    /// automaton check).
    pub fn preview(&self, label: Label, available: Option<&LabelSet>) -> Preview {
        if self.simple_active {
            let dfa = self.simple_dfa.expect("simple mode has a dfa");
            let cur = *self.simple_stack.last().expect("preview outside traversal");
            if cur == DEAD {
                return Preview::NoMatch;
            }
            let col = self.plan.col(label);
            if dfa.step(cur, col) == DEAD {
                return Preview::NoMatch;
            }
            return match available {
                None => Preview::Progress,
                Some(avail) => {
                    let compiled = self.plan.nfa(self.mfa.top());
                    let req = compiled.required();
                    let satisfiable = dfa.members(cur).iter().any(|&s| {
                        compiled
                            .row(s, col)
                            .iter()
                            .any(|&t| req[t.index()].satisfiable_within(avail))
                    });
                    if satisfiable {
                        Preview::Progress
                    } else {
                        Preview::Pruned
                    }
                }
            };
        }
        let frame = self.frames.last().expect("preview outside traversal");
        let plan = self.plan;
        let col = plan.col(label);
        let mut any_match = false;
        for &r in &frame.live {
            let run = &self.runs[r];
            if run.dead {
                continue;
            }
            let compiled = plan.nfa(run.nfa);
            let req = compiled.required();
            match &run.stack {
                RunStack::Dfa(stack) => {
                    let cur = *stack.last().expect("live dfa run has a state");
                    let dfa = compiled.dfa().expect("dfa-kind run");
                    let next = dfa.step(cur, col);
                    if next == DEAD {
                        continue;
                    }
                    any_match = true;
                    match available {
                        None => return Preview::Progress,
                        Some(avail) => {
                            // Check the *pre-closure* transition targets
                            // of the subset members, as the set-based
                            // path below does.
                            for &s in dfa.members(cur) {
                                for &t in compiled.row(s, col) {
                                    if req[t.index()].satisfiable_within(avail) {
                                        return Preview::Progress;
                                    }
                                }
                            }
                        }
                    }
                }
                RunStack::Sets(stack) => {
                    let Some(top) = stack.last() else {
                        continue;
                    };
                    for &(s, _) in top {
                        for &t in compiled.row(s, col) {
                            any_match = true;
                            match available {
                                None => return Preview::Progress,
                                Some(avail) => {
                                    if req[t.index()].satisfiable_within(avail) {
                                        return Preview::Progress;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        if any_match {
            Preview::Pruned
        } else {
            Preview::NoMatch
        }
    }

    /// Enters an element node. Returns whether any run is still live (if
    /// not, the subtree can be skipped by the driver — nothing below can
    /// match, and no predicate instance is waiting for its text unless
    /// [`Machine::has_open_texteq`] holds).
    pub fn enter(&mut self, label: Label, node: u32, observer: &mut dyn EvalObserver) -> bool {
        if self.simple_active {
            return self.enter_simple(label, node);
        }
        let depth = self.frames.len();
        self.stats.nodes_visited += 1;
        self.stats.max_depth = self.stats.max_depth.max(depth);
        self.last_candidate = None;
        self.reset_spawn_cache();
        if self.observe {
            observer.enter_node(node, label, depth);
        }
        let plan = self.plan;
        let col = plan.col(label);
        // Move the parent's live list out to iterate it without cloning;
        // restored before returning.
        let parent_live =
            std::mem::take(&mut self.frames.last_mut().expect("enter before begin").live);
        let frame = self.take_frame(node);
        self.frames.push(frame);
        let mut new_runs = Vec::new();
        for &r in &parent_live {
            if self.runs[r].dead {
                continue;
            }
            let nfa_id = self.runs[r].nfa;
            match &self.runs[r].stack {
                RunStack::Dfa(stack) => {
                    // Dense fast path: one table read steps the whole
                    // (ε-closed) state set.
                    let cur = *stack.last().expect("live dfa run has a state");
                    let dfa = plan.nfa(nfa_id).dfa().expect("dfa-kind run");
                    let next = dfa.step(cur, col);
                    if next == DEAD {
                        continue; // dormant below this node
                    }
                    if dfa.accept(next) {
                        self.accept_true(r, node, observer);
                    }
                    match &mut self.runs[r].stack {
                        RunStack::Dfa(stack) => stack.push(next),
                        RunStack::Sets(_) => unreachable!("run kind is fixed"),
                    }
                }
                RunStack::Sets(stack) => {
                    // Step on the label through the precomputed rows.
                    let top = stack.last().expect("live run has a set");
                    let mut seed = std::mem::take(&mut self.seed_buf);
                    seed.clear();
                    let compiled = plan.nfa(nfa_id);
                    for &(s, tag) in top {
                        for &t in compiled.row(s, col) {
                            seed.push((t, tag));
                        }
                    }
                    if seed.is_empty() {
                        self.seed_buf = seed;
                        continue; // dormant below this node
                    }
                    let set = self.closure(nfa_id, &seed, node, &mut new_runs, observer);
                    self.seed_buf = seed;
                    self.process_accept(r, &set, node, observer);
                    match &mut self.runs[r].stack {
                        RunStack::Sets(stack) => stack.push(set),
                        RunStack::Dfa(_) => unreachable!("run kind is fixed"),
                    }
                }
            }
            let frame = self.frames.last_mut().expect("frame just pushed");
            frame.stepped.push(r);
            if !self.runs[r].dead {
                frame.live.push(r);
            }
        }
        // Restore the parent's live list.
        let depth_frames = self.frames.len();
        self.frames[depth_frames - 2].live = parent_live;
        let live_new: Vec<RunId> = new_runs
            .iter()
            .copied()
            .filter(|&r| !self.runs[r].dead)
            .collect();
        let frame = self.frames.last_mut().expect("frame just pushed");
        frame.spawned_runs = new_runs;
        frame.live.extend(live_new);
        !frame.live.is_empty()
    }

    /// The lean `enter`: one table read, no frames, no run lists. Only
    /// reachable for predicate-free DFA plans with a no-op observer, where
    /// every per-node structure the general path maintains is provably
    /// empty.
    #[inline]
    fn enter_simple(&mut self, label: Label, node: u32) -> bool {
        let depth = self.simple_stack.len();
        self.stats.nodes_visited += 1;
        self.stats.max_depth = self.stats.max_depth.max(depth);
        self.last_candidate = None;
        let dfa = self.simple_dfa.expect("simple mode has a dfa");
        let cur = *self.simple_stack.last().expect("enter after begin");
        let next = if cur == DEAD {
            DEAD
        } else {
            dfa.step(cur, self.plan.col(label))
        };
        self.simple_stack.push(next);
        if next == DEAD {
            return false; // dormant below this node
        }
        if dfa.accept(next) {
            self.immediate.push(node);
            self.stats.immediate_answers += 1;
            self.last_candidate = Some((node, true));
        }
        true
    }

    /// Records an unconditional accept for run `r` at `node` (DFA runs
    /// carry no tags: every accept is `Tag::True`).
    fn accept_true(&mut self, r: RunId, node: u32, observer: &mut dyn EvalObserver) {
        match self.runs[r].inst {
            None => {
                if node == VIRTUAL_NODE {
                    return;
                }
                self.immediate.push(node);
                self.stats.immediate_answers += 1;
                self.last_candidate = Some((node, true));
                if self.observe {
                    observer.candidate(node, true);
                }
            }
            Some(inst) => {
                if self.truths[inst].is_some() {
                    return; // already resolved (true)
                }
                self.resolve_instance(inst, true, observer);
                self.runs[r].dead = true;
            }
        }
    }

    /// Records an accept (if present in `set`) for run `r` at `node`.
    fn process_accept(
        &mut self,
        r: RunId,
        set: &ActiveSet,
        node: u32,
        observer: &mut dyn EvalObserver,
    ) {
        let accept = self.mfa.nfa(self.runs[r].nfa).accept();
        let Some(&(_, tag)) = set.iter().find(|(s, _)| *s == accept) else {
            return;
        };
        match self.runs[r].inst {
            None => {
                // Top run: candidate answer.
                if node == VIRTUAL_NODE {
                    return;
                }
                match tag {
                    Tag::True => {
                        self.immediate.push(node);
                        self.stats.immediate_answers += 1;
                        self.last_candidate = Some((node, true));
                        observer.candidate(node, true);
                    }
                    Tag::Formula(_) => {
                        self.cans.push(node, tag);
                        self.last_candidate = Some((node, false));
                        observer.candidate(node, false);
                    }
                }
            }
            Some(inst) => {
                if self.truths[inst].is_some() {
                    return; // already resolved (true)
                }
                match tag {
                    Tag::True => {
                        self.resolve_instance(inst, true, observer);
                        self.runs[r].dead = true;
                    }
                    Tag::Formula(_) => {
                        if let InstKind::HasPath { accepts } = &mut self.insts[inst].kind {
                            accepts.push(tag);
                        }
                    }
                }
            }
        }
    }

    /// Feeds character data (stream mode; DOM drivers may skip text nodes
    /// entirely since `text()='c'` resolves eagerly there).
    pub fn text(&mut self, content: &str) {
        if self.open_texteq.is_empty() {
            return;
        }
        let here = self.frames.len();
        // Iterate by index: resolution never happens here, only appends.
        for idx in 0..self.open_texteq.len() {
            let inst = self.open_texteq[idx];
            if let InstKind::TextEq { buf, target, depth } = &mut self.insts[inst].kind {
                if *depth != here {
                    continue; // not direct text of the origin element
                }
                let cap = target.len() + 1;
                if buf.len() < cap {
                    let room = cap - buf.len();
                    let take = content
                        .char_indices()
                        .map(|(i, c)| i + c.len_utf8())
                        .take_while(|&end| end <= room)
                        .last()
                        .unwrap_or(0);
                    buf.push_str(&content[..take]);
                    if take < content.len() && buf.len() < cap {
                        // Remaining content overflows the cap: mark by
                        // exceeding the target length with a placeholder.
                        buf.push('\u{0}');
                    }
                }
            }
        }
    }

    /// Leaves the current element node, resolving everything rooted there.
    pub fn leave(&mut self, observer: &mut dyn EvalObserver) {
        if self.simple_active {
            self.simple_stack.pop().expect("leave without enter");
            return;
        }
        let frame = self.frames.pop().expect("leave without enter");
        if self.observe {
            observer.leave_node(frame.node);
        }
        for &r in &frame.stepped {
            match &mut self.runs[r].stack {
                RunStack::Dfa(stack) => {
                    stack.pop();
                }
                RunStack::Sets(stack) => {
                    if let Some(set) = stack.pop() {
                        let mut set = set;
                        set.clear();
                        self.set_pool.push(set);
                    }
                }
            }
        }
        self.resolve_opened(&frame.opened, observer);
        for &r in &frame.spawned_runs {
            self.runs[r].stack.clear();
            self.runs[r].dead = true;
        }
        self.recycle_frame(frame);
    }

    /// Resolves all instances opened at the closing node. Dependencies are
    /// all within the now-closed subtree, so a fixpoint over the opened
    /// list terminates.
    fn resolve_opened(&mut self, opened: &[InstId], observer: &mut dyn EvalObserver) {
        let mut pending: Vec<InstId> = opened
            .iter()
            .copied()
            .filter(|&i| self.truths[i].is_none())
            .collect();
        while !pending.is_empty() {
            let mut progressed = false;
            let mut still: Vec<InstId> = Vec::new();
            for &i in &pending {
                if self.truths[i].is_some() {
                    progressed = true;
                    continue;
                }
                let value = match &self.insts[i].kind {
                    InstKind::TextEq { buf, target, .. } => Some(buf == target),
                    InstKind::HasPath { accepts } => {
                        let mut verdict = Some(false);
                        for &tag in accepts {
                            match self.arena.eval(tag, &self.truths) {
                                Some(true) => {
                                    verdict = Some(true);
                                    break;
                                }
                                Some(false) => {}
                                None => verdict = None,
                            }
                        }
                        verdict
                    }
                    InstKind::Not { sub } => self.truths[*sub].map(|b| !b),
                    InstKind::And { subs } => {
                        let mut verdict = Some(true);
                        for &s in subs {
                            match self.truths[s] {
                                Some(false) => {
                                    verdict = Some(false);
                                    break;
                                }
                                Some(true) => {}
                                None => verdict = None,
                            }
                        }
                        verdict
                    }
                    InstKind::Or { subs } => {
                        let mut verdict = Some(false);
                        for &s in subs {
                            match self.truths[s] {
                                Some(true) => {
                                    verdict = Some(true);
                                    break;
                                }
                                Some(false) => {}
                                None => verdict = None,
                            }
                        }
                        verdict
                    }
                };
                match value {
                    Some(v) => {
                        self.resolve_instance(i, v, observer);
                        progressed = true;
                    }
                    None => still.push(i),
                }
            }
            assert!(
                progressed || still.is_empty(),
                "instance dependency cycle (evaluator bug)"
            );
            pending = still;
        }
    }

    fn resolve_instance(&mut self, inst: InstId, value: bool, observer: &mut dyn EvalObserver) {
        if self.truths[inst].is_some() {
            return;
        }
        self.truths[inst] = Some(value);
        observer.instance_resolved(inst, value);
        if matches!(self.insts[inst].kind, InstKind::TextEq { .. }) {
            if let Some(pos) = self.open_texteq.iter().position(|&x| x == inst) {
                self.open_texteq.swap_remove(pos);
            }
        }
    }

    /// Finishes the traversal: closes the virtual frame, runs the Cans
    /// pass, and returns the answer node ids in document order.
    pub fn end(mut self, observer: &mut dyn EvalObserver) -> (Vec<u32>, EvalStats) {
        if self.simple_active {
            self.simple_stack.pop().expect("virtual level");
            assert!(self.simple_stack.is_empty(), "unbalanced enter/leave");
            let mut answers = self.immediate;
            answers.sort_unstable();
            answers.dedup();
            self.stats.answers = answers.len();
            return (answers, self.stats);
        }
        self.leave(observer); // virtual frame
        assert!(self.frames.is_empty(), "unbalanced enter/leave");
        self.stats.cans_size = self.cans.len();
        self.stats.formula_nodes = self.arena.len();
        let mut answers = self.immediate.clone();
        for c in self.cans.iter() {
            let kept = self
                .arena
                .eval(c.tag, &self.truths)
                .expect("all instances resolved after traversal");
            observer.candidate_resolved(c.node, kept);
            if kept {
                answers.push(c.node);
            }
        }
        answers.sort_unstable();
        answers.dedup();
        self.stats.answers = answers.len();
        (answers, self.stats)
    }

    // -- closure with guard pickup -----------------------------------------

    /// Guard-aware ε-closure of `seed` at `node`. Spawns predicate
    /// instances for guards it crosses; newly created `HasPath` runs are
    /// appended to `new_runs`.
    fn closure(
        &mut self,
        nfa_id: NfaId,
        seed: &[(StateId, Tag)],
        node: u32,
        new_runs: &mut Vec<RunId>,
        observer: &mut dyn EvalObserver,
    ) -> ActiveSet {
        // Fast path: all-True seeds whose closures cross no guard edge.
        // This covers every guard-free region of every query and avoids
        // the formula machinery entirely.
        let plan = self.plan;
        let compiled = plan.nfa(nfa_id);
        if seed
            .iter()
            .all(|&(s, t)| t == Tag::True && !compiled.closure(s).guarded)
        {
            self.scratch_epoch += 1;
            let epoch = self.scratch_epoch;
            let mut out: ActiveSet = self.take_set();
            for &(s, _) in seed {
                for &t in &compiled.closure(s).states {
                    if self.scratch[t.index()] != epoch {
                        self.scratch[t.index()] = epoch;
                        out.push((t, Tag::True));
                    }
                }
            }
            out.sort_unstable_by_key(|&(s, _)| s);
            return out;
        }
        self.closure_slow(nfa_id, seed, node, new_runs, observer)
    }

    /// Guarded slow path: dense epoch-marked builder, no hashing.
    fn closure_slow(
        &mut self,
        nfa_id: NfaId,
        seed: &[(StateId, Tag)],
        node: u32,
        new_runs: &mut Vec<RunId>,
        observer: &mut dyn EvalObserver,
    ) -> ActiveSet {
        let mfa: &'a Mfa = self.mfa;
        let nfa = mfa.nfa(nfa_id);
        let mut b = self.builder_pool.pop().unwrap_or_default();
        b.begin(self.plan.max_states());
        for &(s, tag) in seed {
            if b.merge(s, tag) {
                b.work.push(s);
            }
        }
        while let Some(s) = b.work.pop() {
            let cur = if b.known_true[s.index()] {
                Tag::True
            } else {
                match self.arena.or_sorted(&b.parts[s.index()]) {
                    Some(t) => t,
                    None => continue, // no valid way to be here
                }
            };
            for e in nfa.eps_edges(s) {
                let tag = match e.guard {
                    None => cur,
                    Some(g) => match self.spawn(g, node, new_runs, observer) {
                        InstRef::Resolved(true) => cur,
                        InstRef::Resolved(false) => continue,
                        InstRef::Pending(i) => self.arena.and_inst(cur, i),
                    },
                };
                if b.merge(e.target, tag) {
                    b.work.push(e.target);
                }
            }
        }
        let mut out: ActiveSet = self.take_set();
        for &s in &b.touched {
            let tag = if b.known_true[s.index()] {
                Tag::True
            } else {
                match self.arena.or_sorted(&b.parts[s.index()]) {
                    Some(t) => t,
                    None => continue,
                }
            };
            out.push((s, tag));
        }
        out.sort_unstable_by_key(|&(s, _)| s);
        self.builder_pool.push(b);
        out
    }

    /// Instantiates predicate `pred` at `node` (cached per node).
    fn spawn(
        &mut self,
        pred: PredId,
        node: u32,
        new_runs: &mut Vec<RunId>,
        observer: &mut dyn EvalObserver,
    ) -> InstRef {
        if let Some(r) = self.spawn_lookup(pred) {
            return r;
        }
        let result = match self.mfa.pred(pred) {
            Pred::True => InstRef::Resolved(true),
            Pred::TextEq(target) => {
                if let Some(resolver) = self.text_resolver {
                    InstRef::Resolved(resolver(node).as_ref() == target.as_str())
                } else {
                    let depth = self.frames.len();
                    let i = self.new_instance(
                        InstKind::TextEq {
                            buf: String::new(),
                            target: target.clone(),
                            depth,
                        },
                        node,
                        observer,
                    );
                    self.open_texteq.push(i);
                    InstRef::Pending(i)
                }
            }
            Pred::HasPath(sub_nfa) => {
                let sub_nfa = *sub_nfa;
                let i = self.new_instance(
                    InstKind::HasPath {
                        accepts: Vec::new(),
                    },
                    node,
                    observer,
                );
                let run_id = self.runs.len();
                self.stats.runs_spawned += 1;
                // Cache before the recursive closure so diamond-shaped
                // sharing reuses the same instance.
                self.spawn_store(pred, InstRef::Pending(i));
                if self.dfa_kind(sub_nfa) {
                    let plan = self.plan;
                    let dfa = plan.nfa(sub_nfa).dfa().expect("dfa kind");
                    let start = dfa.start();
                    let accepting = dfa.accept(start);
                    self.runs.push(Run {
                        nfa: sub_nfa,
                        inst: Some(i),
                        dead: false,
                        stack: RunStack::Dfa(vec![start]),
                    });
                    if accepting {
                        // Accept at the spawn node resolves on the spot.
                        self.accept_true(run_id, node, observer);
                    }
                } else {
                    self.runs.push(Run {
                        nfa: sub_nfa,
                        inst: Some(i),
                        dead: false,
                        stack: RunStack::Sets(Vec::new()),
                    });
                    let start = self.mfa.nfa(sub_nfa).start();
                    let set =
                        self.closure(sub_nfa, &[(start, Tag::True)], node, new_runs, observer);
                    self.process_accept(run_id, &set, node, observer);
                    match &mut self.runs[run_id].stack {
                        RunStack::Sets(stack) => stack.push(set),
                        RunStack::Dfa(_) => unreachable!("run kind is fixed"),
                    }
                }
                new_runs.push(run_id);
                if let Some(v) = self.truths[i] {
                    // Accept with a constant-true tag resolved it on the
                    // spot.
                    let r = InstRef::Resolved(v);
                    self.spawn_store(pred, r);
                    return r;
                }
                return InstRef::Pending(i);
            }
            Pred::Not(sub) => {
                let sub = *sub;
                match self.spawn(sub, node, new_runs, observer) {
                    InstRef::Resolved(b) => InstRef::Resolved(!b),
                    InstRef::Pending(si) => InstRef::Pending(self.new_instance(
                        InstKind::Not { sub: si },
                        node,
                        observer,
                    )),
                }
            }
            Pred::And(subs) => {
                let subs = subs.clone();
                let mut pending = Vec::new();
                let mut value = Some(true);
                for s in subs {
                    match self.spawn(s, node, new_runs, observer) {
                        InstRef::Resolved(false) => {
                            value = Some(false);
                            break;
                        }
                        InstRef::Resolved(true) => {}
                        InstRef::Pending(i) => pending.push(i),
                    }
                }
                match (value, pending.is_empty()) {
                    (Some(false), _) => InstRef::Resolved(false),
                    (_, true) => InstRef::Resolved(true),
                    _ => InstRef::Pending(self.new_instance(
                        InstKind::And { subs: pending },
                        node,
                        observer,
                    )),
                }
            }
            Pred::Or(subs) => {
                let subs = subs.clone();
                let mut pending = Vec::new();
                let mut value = Some(false);
                for s in subs {
                    match self.spawn(s, node, new_runs, observer) {
                        InstRef::Resolved(true) => {
                            value = Some(true);
                            break;
                        }
                        InstRef::Resolved(false) => {}
                        InstRef::Pending(i) => pending.push(i),
                    }
                }
                match (value, pending.is_empty()) {
                    (Some(true), _) => InstRef::Resolved(true),
                    (_, true) => InstRef::Resolved(false),
                    _ => InstRef::Pending(self.new_instance(
                        InstKind::Or { subs: pending },
                        node,
                        observer,
                    )),
                }
            }
        };
        self.spawn_store(pred, result);
        result
    }

    fn new_instance(
        &mut self,
        kind: InstKind,
        node: u32,
        observer: &mut dyn EvalObserver,
    ) -> InstId {
        let id = self.insts.len();
        self.insts.push(Instance { kind });
        self.truths.push(None);
        self.stats.pred_instances += 1;
        observer.instance_spawned(id, node);
        self.frames
            .last_mut()
            .expect("spawn inside a frame")
            .opened
            .push(id);
        id
    }
}
