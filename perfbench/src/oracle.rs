//! The answer oracle: each distinct query's expected answer computed from
//! the paper's definition, independently of the engine.
//!
//! * Group queries: the naive `rxpath::evaluate` over the materialized
//!   view `view::materialize`, mapped to source nodes through
//!   `origins_of`, each rendered as its view image by
//!   `materialize_fragment`.
//! * Admin queries: the naive `rxpath::evaluate` over the source, each
//!   answer serialized by `subtree_to_string`.
//!
//! The oracle parses its own copy of the document with its own
//! vocabulary; it shares no state with the engine under test.

use crate::workload::{Inputs, Qid};
use smoqe::rxpath::{evaluate, parse_path};
use smoqe::view::{derive, materialize, materialize_fragment, AccessPolicy, ViewSpec};
use smoqe::xml::serialize::subtree_to_string;
use smoqe::xml::{Document, Dtd, Vocabulary};
use std::collections::HashMap;

/// What one query must return: the serialized answers in document order
/// (their count is the answer count).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expected {
    pub xml: Vec<String>,
}

impl Expected {
    pub fn bytes(&self) -> usize {
        self.xml.iter().map(String::len).sum()
    }
}

pub struct Oracle {
    pub expected: Vec<Expected>,
    /// How many point-lookup answers were also re-derived naively (the
    /// rest are checked against the spliced patient by construction).
    pub naive_checked: usize,
}

/// At most this many point lookups are re-evaluated naively at setup; the
/// naive evaluator walks the whole document per query.
const NAIVE_LOOKUP_SAMPLE: usize = 64;

impl Oracle {
    pub fn build(inputs: &Inputs) -> Result<Oracle, String> {
        let vocab = Vocabulary::new();
        let dtd = Dtd::parse(smoqe::workloads::hospital::DTD, &vocab).map_err(|e| e.to_string())?;
        let doc = Document::parse_str(&inputs.xml, &vocab).map_err(|e| e.to_string())?;
        let mut views: HashMap<&str, (ViewSpec, smoqe::view::MaterializedView)> = HashMap::new();
        for (group, text) in &inputs.policies {
            let policy = AccessPolicy::parse(dtd.clone(), text).map_err(|e| e.to_string())?;
            let spec = derive(&policy);
            let view = materialize(&spec, &doc).map_err(|e| e.to_string())?;
            views.insert(group.as_str(), (spec, view));
        }
        let mut expected = Vec::with_capacity(inputs.queries.len());
        let mut naive_checked = 0;
        for (qid, q) in inputs.queries.iter().enumerate() {
            let answer = match (&q.group, inputs.constructed.get(&qid)) {
                (None, Some(patient)) => {
                    let by_construction = Expected {
                        xml: vec![patient.clone()],
                    };
                    if qid % (inputs.queries.len() / NAIVE_LOOKUP_SAMPLE).max(1) == 0 {
                        let naive = admin_answer(&doc, &vocab, &q.text)?;
                        if naive != by_construction {
                            return Err(format!(
                                "oracle disagrees with the spliced patient for {}",
                                q.text
                            ));
                        }
                        naive_checked += 1;
                    }
                    by_construction
                }
                (None, None) => admin_answer(&doc, &vocab, &q.text)?,
                (Some(group), _) => {
                    let (spec, view) = views
                        .get(group.as_str())
                        .ok_or_else(|| format!("no policy for group {group}"))?;
                    let path = parse_path(&q.text, &vocab).map_err(|e| e.to_string())?;
                    let hits = evaluate(&view.doc, &path);
                    let nodes = view.origins_of(hits.iter());
                    let xml = nodes
                        .iter()
                        .map(|&n| {
                            materialize_fragment(spec, &doc, n)
                                .map(|f| f.doc.to_xml())
                                .map_err(|e| e.to_string())
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    Expected { xml }
                }
            };
            expected.push(answer);
        }
        Ok(Oracle {
            expected,
            naive_checked,
        })
    }

    pub fn get(&self, qid: Qid) -> &Expected {
        &self.expected[qid]
    }
}

fn admin_answer(doc: &Document, vocab: &Vocabulary, query: &str) -> Result<Expected, String> {
    let path = parse_path(query, vocab).map_err(|e| e.to_string())?;
    let xml = evaluate(doc, &path)
        .iter()
        .map(|n| subtree_to_string(doc, n))
        .collect();
    Ok(Expected { xml })
}
