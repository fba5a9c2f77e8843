//! The three workloads: their constants, and the inputs each one generates
//! from the seed (document, policies, principals and op sequences).
//!
//! The program under test only ever sees what this module produces.

use crate::rng::{Fnv, Rng, Zipf};
use smoqe::workloads::hospital;
use smoqe::xml::{generate, GeneratorConfig, Vocabulary};
use smoqe_server::Principal;
use std::collections::HashMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ViewRead,
    PointLookup,
    MixedWrite,
}

pub const ALL: [Workload; 3] = [
    Workload::ViewRead,
    Workload::PointLookup,
    Workload::MixedWrite,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::ViewRead => "view_read",
            Workload::PointLookup => "point_lookup",
            Workload::MixedWrite => "mixed_write",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (as `BENCHMARK.json` records it).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ViewRead => {
                "the paper's core path: two groups read a ~30k-node hospital through their views (12 plan keys, cache 1024); rewritten evaluation and view rendering dominate"
            }
            Workload::PointLookup => {
                "Zipf lookups over 4096 unique names on ~67k nodes, 4x the plan cache: jump evaluation is cheap, so the wire, plan building and eviction dominate"
            }
            Workload::MixedWrite => {
                "durable engine, self-cancelling group and admin transactions beside reads: update parse, view resolution, splice, TAX patch, DTD check and WAL dominate"
            }
        }
    }
}

/// How big a run is: `Full` is the benchmark, `Smoke` the package's own
/// tests (same code paths, small inputs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// The fixed constants of one workload at one scale.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub workload: Workload,
    /// Target node count of the generated hospital document.
    pub base_nodes: usize,
    /// Patients with unique names spliced into the document
    /// (`point_lookup` only).
    pub unique_patients: usize,
    /// Open-loop arrival rate, ops/s over both connections. A constant of
    /// the workload, never derived from a run.
    pub rate: f64,
    /// Warm-up ops per connection, issued before anything is measured.
    pub warmup_ops: usize,
    /// Whether the engine is durable (`Engine::recover` on a data dir).
    pub durable: bool,
    /// Measured ops the traced run replays in process.
    pub replay_ops: usize,
    /// Length of each connection's closed-loop op sequence (cycled if the
    /// loop outruns it).
    pub closed_ops: usize,
}

impl Spec {
    pub fn of(workload: Workload, scale: Scale) -> Spec {
        let full = scale == Scale::Full;
        let base_nodes = if full { 30_000 } else { 2_000 };
        match workload {
            Workload::ViewRead => Spec {
                workload,
                base_nodes,
                unique_patients: 0,
                rate: 200.0,
                warmup_ops: 60,
                durable: false,
                replay_ops: 600,
                closed_ops: 4096,
            },
            Workload::PointLookup => Spec {
                workload,
                base_nodes,
                unique_patients: if full { 4096 } else { 256 },
                rate: if full { 1000.0 } else { 200.0 },
                warmup_ops: if full { 1500 } else { 100 },
                durable: false,
                replay_ops: 3000,
                closed_ops: 32768,
            },
            Workload::MixedWrite => Spec {
                workload,
                base_nodes,
                unique_patients: 0,
                rate: 100.0,
                warmup_ops: 20,
                durable: true,
                replay_ops: 600,
                closed_ops: 2048,
            },
        }
    }
}

/// The group name of policy S0 (Fig. 3(b)).
pub const GROUP_S0: &str = "s0";
/// The group name of the S0 variant whose patient qualifier is
/// `medication = 'headache'`.
pub const GROUP_HEADACHE: &str = "s0h";

/// S0 with the patient qualifier switched to headache medication.
pub fn headache_policy() -> String {
    hospital::POLICY.replace(
        "visit/treatment/medication = 'autism'",
        "visit/treatment/medication = 'headache'",
    )
}

/// One distinct query a connection may issue: its principal scope and text.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct QuerySpec {
    /// `None` = admin, `Some(group)` = through that group's view.
    pub group: Option<String>,
    pub text: String,
}

/// Index into [`Inputs::queries`].
pub type Qid = usize;

#[derive(Clone, Debug)]
pub enum Op {
    Query(Qid),
    Batch(Vec<Qid>),
    /// A self-cancelling transaction: insert, then delete what was
    /// inserted. The document is unchanged once it commits.
    Update(Vec<String>),
}

impl Op {
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Query(_) => OpKind::Query,
            Op::Batch(_) => OpKind::Batch,
            Op::Update(_) => OpKind::Update,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Query,
    Batch,
    Update,
}

/// Everything one run feeds the server, generated from the seed.
pub struct Inputs {
    pub spec: Spec,
    pub xml: String,
    pub nodes: usize,
    /// `(group, policy text)` registered at setup, in order.
    pub policies: Vec<(String, String)>,
    /// The principal of each of the two load connections.
    pub principals: [Principal; 2],
    pub queries: Vec<QuerySpec>,
    /// Per connection, issued before measuring.
    pub warmup: [Vec<Op>; 2],
    /// Per connection, the closed loop's sequence.
    pub closed: [Vec<Op>; 2],
    /// The open loop's op sequence in due order: `(connection, op)`; op
    /// `i` is due at `i / rate`.
    pub ops: Vec<(usize, Op)>,
    /// For `point_lookup`: the exact subtree each lookup must return, by
    /// construction of the spliced patients.
    pub constructed: HashMap<Qid, String>,
    /// Fingerprint of the queries, warm-up and op sequence.
    pub op_hash: u64,
}

impl Inputs {
    pub fn generate(spec: Spec, seed: u64, open_secs: f64) -> Inputs {
        let mut rng = Rng::new(seed);
        let vocab = Vocabulary::new();
        let mut xml = hospital_document(&vocab, seed, spec.base_nodes);
        let mut constructed_xml = Vec::new();
        if spec.unique_patients > 0 {
            let tail = "</hospital>";
            assert!(xml.ends_with(tail), "generated hospital has patients");
            let mut spliced = String::new();
            for i in 0..spec.unique_patients {
                let med = ["autism", "headache", "flu", "fever", "allergy"][rng.below(5)];
                let date = ["2006-01-11", "2006-02-07", "2006-03-14"][rng.below(3)];
                let patient = format!(
                    "<patient><pname>{}</pname><visit><treatment><medication>{med}\
                     </medication></treatment><date>{date}</date></visit></patient>",
                    unique_name(i)
                );
                spliced.push_str(&patient);
                constructed_xml.push(patient);
            }
            xml.insert_str(xml.len() - tail.len(), &spliced);
        }
        let nodes = smoqe::xml::Document::parse_str(&xml, &vocab)
            .expect("generated document parses")
            .node_count();
        let policies = vec![
            (GROUP_S0.to_string(), hospital::POLICY.to_string()),
            (GROUP_HEADACHE.to_string(), headache_policy()),
        ];

        let view_queries = |group: &str| -> Vec<QuerySpec> {
            hospital::VIEW_QUERIES
                .iter()
                .map(|(_, q)| QuerySpec {
                    group: Some(group.to_string()),
                    text: q.to_string(),
                })
                .collect()
        };
        let mut queries: Vec<QuerySpec> = Vec::new();
        let mut constructed = HashMap::new();
        let (principals, per_conn): ([Principal; 2], [Vec<Qid>; 2]) = match spec.workload {
            Workload::ViewRead => {
                queries.extend(view_queries(GROUP_S0));
                queries.extend(view_queries(GROUP_HEADACHE));
                let n = hospital::VIEW_QUERIES.len();
                (
                    [
                        Principal::Group(GROUP_S0.into()),
                        Principal::Group(GROUP_HEADACHE.into()),
                    ],
                    [(0..n).collect(), (n..2 * n).collect()],
                )
            }
            Workload::PointLookup => {
                for (i, patient) in constructed_xml.into_iter().enumerate() {
                    constructed.insert(queries.len(), patient);
                    queries.push(QuerySpec {
                        group: None,
                        text: format!("//patient[pname = '{}']", unique_name(i)),
                    });
                }
                let all: Vec<Qid> = (0..queries.len()).collect();
                ([Principal::Admin, Principal::Admin], [all.clone(), all])
            }
            Workload::MixedWrite => {
                queries.extend(view_queries(GROUP_S0));
                let n = queries.len();
                queries.extend(hospital::DOC_QUERIES.iter().map(|(_, q)| QuerySpec {
                    group: None,
                    text: q.to_string(),
                }));
                (
                    [Principal::Group(GROUP_S0.into()), Principal::Admin],
                    [(0..n).collect(), (n..queries.len()).collect()],
                )
            }
        };

        // Zipf ranks map to names through a seeded permutation, so the hot
        // keys are spread over the document rather than clustered.
        let zipf = Zipf::new(per_conn[0].len().max(1), 1.0);
        let hot_order = rng.permutation(per_conn[0].len());
        // One heavy op (a batch or a write) per block of this many ops.
        let blocks = match spec.workload {
            Workload::ViewRead => [10, 10],
            Workload::PointLookup => [0, 0],
            Workload::MixedWrite => [10, 5],
        };
        let mut mixers = [0, 1].map(|c| Mixer::new(per_conn[c].clone(), blocks[c]));
        let mut tag = 0usize;
        let mut draw = |conn: usize, rng: &mut Rng| -> Op {
            let mixer = &mut mixers[conn];
            let heavy = mixer.next_is_heavy(rng);
            match spec.workload {
                Workload::ViewRead if heavy => {
                    let pool = &mixer.pool;
                    let order = rng.permutation(pool.len());
                    Op::Batch(order[..3].iter().map(|&i| pool[i]).collect())
                }
                Workload::PointLookup => Op::Query(mixer.pool[hot_order[zipf.sample(rng)]]),
                Workload::MixedWrite if heavy => {
                    tag += 1;
                    Op::Update(if conn == 0 {
                        group_transaction(tag)
                    } else {
                        admin_transaction(tag)
                    })
                }
                _ => Op::Query(mixer.deal(rng)),
            }
        };
        let warmup: [Vec<Op>; 2] = [
            (0..spec.warmup_ops).map(|_| draw(0, &mut rng)).collect(),
            (0..spec.warmup_ops).map(|_| draw(1, &mut rng)).collect(),
        ];
        let closed: [Vec<Op>; 2] = [
            (0..spec.closed_ops).map(|_| draw(0, &mut rng)).collect(),
            (0..spec.closed_ops).map(|_| draw(1, &mut rng)).collect(),
        ];
        let n_ops = ((spec.rate * open_secs).round() as usize).max(20);
        let ops: Vec<(usize, Op)> = (0..n_ops).map(|i| (i % 2, draw(i % 2, &mut rng))).collect();

        let mut fnv = Fnv::new();
        for q in &queries {
            fnv.write(q.group.as_deref().unwrap_or("").as_bytes());
            fnv.write(q.text.as_bytes());
        }
        let ops_seq = warmup[0]
            .iter()
            .map(|op| (0, op))
            .chain(warmup[1].iter().map(|op| (1, op)))
            .chain(closed[0].iter().map(|op| (0, op)))
            .chain(closed[1].iter().map(|op| (1, op)))
            .chain(ops.iter().map(|(c, op)| (*c, op)));
        for (conn, op) in ops_seq {
            fnv.write(&[conn as u8]);
            match op {
                Op::Query(q) => fnv.write(&q.to_le_bytes()),
                Op::Batch(qs) => qs.iter().for_each(|q| fnv.write(&q.to_le_bytes())),
                Op::Update(stmts) => stmts.iter().for_each(|s| fnv.write(s.as_bytes())),
            }
        }
        fnv.write(xml.as_bytes());

        Inputs {
            spec,
            xml,
            nodes,
            policies,
            principals,
            queries,
            warmup,
            closed,
            ops,
            constructed,
            op_hash: fnv.finish(),
        }
    }

    /// The query texts of `qids`.
    pub fn texts(&self, qids: &[Qid]) -> Vec<&str> {
        qids.iter()
            .map(|&q| self.queries[q].text.as_str())
            .collect()
    }
}

/// Draws one connection's ops with the workload's mix held exact: every
/// block of `block` ops holds exactly one heavy op (a batch or a write) at
/// a seeded position, and single queries are dealt from a shuffled deck of
/// the connection's queries, so each recurs equally often. Independent
/// draws let a seed's share of heavy ops, and with it every throughput
/// figure, wander by several percent.
struct Mixer {
    pool: Vec<Qid>,
    deck: Vec<Qid>,
    /// Ops per block; 0 = no heavy ops.
    block: usize,
    heavy_at: usize,
    drawn: usize,
}

impl Mixer {
    fn new(pool: Vec<Qid>, block: usize) -> Mixer {
        Mixer {
            pool,
            deck: Vec::new(),
            block,
            heavy_at: 0,
            drawn: 0,
        }
    }

    /// Whether the next op is its block's heavy op.
    fn next_is_heavy(&mut self, rng: &mut Rng) -> bool {
        if self.block == 0 {
            return false;
        }
        let pos = self.drawn % self.block;
        if pos == 0 {
            self.heavy_at = rng.below(self.block);
        }
        self.drawn += 1;
        pos == self.heavy_at
    }

    /// The next single query from the deck.
    fn deal(&mut self, rng: &mut Rng) -> Qid {
        if self.deck.is_empty() {
            self.deck = rng
                .permutation(self.pool.len())
                .into_iter()
                .map(|i| self.pool[i])
                .collect();
        }
        self.deck.pop().expect("a connection has queries")
    }
}

/// Nodes per independently generated slice of a hospital document.
const SLICE_NODES: usize = 600;
/// Depth bound of a slice (the hospital generator's default is 14).
const SLICE_MAX_DEPTH: usize = 8;

/// A hospital document of about `nodes` nodes: the patients of many small,
/// independently generated hospitals under one root, each of bounded
/// depth. A single generator run of the full size lets a few deep
/// `parent` chains hold a large share of the document, so the view
/// answers' total size swung 2x from seed to seed; slices of depth at most
/// 8 keep it within about 10%.
fn hospital_document(vocab: &Vocabulary, seed: u64, nodes: usize) -> String {
    let mut rng = Rng::new(seed ^ 0x5EED_D0C5);
    let mut xml = String::from("<hospital>");
    let dtd = hospital::dtd(vocab);
    for _ in 0..(nodes / SLICE_NODES).max(1) {
        let config = GeneratorConfig {
            max_depth: SLICE_MAX_DEPTH,
            ..hospital::generator_config(vocab, rng.next_u64(), SLICE_NODES)
        };
        let slice = generate(&dtd, &config)
            .expect("hospital DTD generates")
            .to_xml();
        if let Some(patients) = slice
            .strip_prefix("<hospital>")
            .and_then(|s| s.strip_suffix("</hospital>"))
        {
            xml.push_str(patients);
        }
    }
    xml.push_str("</hospital>");
    xml
}

/// The name of spliced patient `i` — outside the generator's name pool.
fn unique_name(i: usize) -> String {
    format!("U{i:04}")
}

/// A group transaction under S0: insert a patient the view shows (it has
/// an autism visit) carrying a unique medication tag, then delete it by
/// that tag — both statements resolved on the view.
fn group_transaction(tag: usize) -> Vec<String> {
    vec![
        format!(
            "insert <patient><pname>G{tag}</pname><visit><treatment><medication>autism\
             </medication></treatment><date>2006-01-11</date></visit><visit><treatment>\
             <medication>tag{tag}</medication></treatment><date>2006-01-11</date></visit>\
             </patient> into hospital"
        ),
        format!("delete hospital/patient[treatment/medication = 'tag{tag}']"),
    ]
}

/// An admin transaction: insert a patient with a unique name, then delete
/// it by that name.
fn admin_transaction(tag: usize) -> Vec<String> {
    vec![
        format!("insert <patient><pname>W{tag}</pname></patient> into hospital"),
        format!("delete hospital/patient[pname = 'W{tag}']"),
    ]
}
