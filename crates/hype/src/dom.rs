//! HyPE in DOM mode: evaluate an MFA over an in-memory [`Document`].
//!
//! One explicit-stack depth-first traversal; `text()='c'` predicates
//! resolve eagerly against the tree, so text nodes are never visited.
//! Subtrees are skipped when every automaton run dies on their label, and
//! — when a TAX index is supplied — when the index proves that no required
//! label occurs below (paper §3, "Indexer").

use crate::budget::{EvalInterrupt, WorkBudget};
use crate::machine::{ExecMode, Machine, Preview, VIRTUAL_NODE};
use crate::observer::{EvalObserver, NoopObserver, PruneReason};
use crate::stats::EvalStats;
use smoqe_automata::compile::CompiledMfa;
use smoqe_automata::Mfa;
use smoqe_rxpath::NodeSet;
use smoqe_tax::TaxIndex;
use smoqe_xml::{Document, NodeId};
use std::borrow::Cow;

/// Options for DOM evaluation.
#[derive(Default)]
pub struct DomOptions<'t> {
    /// TAX index over the same document, enabling subtree pruning.
    pub tax: Option<&'t TaxIndex>,
}

/// Evaluates `mfa` over `doc` with default options (compiling the plan on
/// the fly; hot paths should precompile and use [`evaluate_mfa_plan`]).
pub fn evaluate_mfa(doc: &Document, mfa: &Mfa) -> (NodeSet, EvalStats) {
    evaluate_mfa_with(doc, mfa, &DomOptions::default(), &mut NoopObserver)
}

/// Evaluates `mfa` over `doc` with options and an observer.
pub fn evaluate_mfa_with(
    doc: &Document,
    mfa: &Mfa,
    options: &DomOptions<'_>,
    observer: &mut dyn EvalObserver,
) -> (NodeSet, EvalStats) {
    let plan = CompiledMfa::compile(mfa);
    evaluate_mfa_plan(doc, &plan, options, ExecMode::Compiled, observer)
}

/// Evaluates a precompiled plan over `doc` — the engine's DOM path. The
/// plan is compiled once (and cached engine-wide); `mode` selects the
/// full compiled walk or the jump scan.
///
/// [`ExecMode::Jump`] engages for DFA plans — exact DFAs for the
/// guard-free fragment, guard-stripped DFAs with exact per-candidate
/// re-verification for predicated plans — given a positional label index
/// on `options.tax` and a no-op observer (a jump produces no per-node
/// event stream); anything else falls back to the compiled scan, with
/// identical answers.
pub fn evaluate_mfa_plan(
    doc: &Document,
    plan: &CompiledMfa,
    options: &DomOptions<'_>,
    mode: ExecMode,
    observer: &mut dyn EvalObserver,
) -> (NodeSet, EvalStats) {
    match evaluate_mfa_plan_budgeted(doc, plan, options, mode, observer, &WorkBudget::unlimited()) {
        Ok(result) => result,
        Err(_) => unreachable!("an unlimited budget never interrupts"),
    }
}

/// [`evaluate_mfa_plan`] under a [`WorkBudget`]: the traversal checks the
/// budget once per stack pop and abandons with the partial counters when
/// the deadline passes or the cancel token flips. Abandonment only drops
/// evaluator-local state (the machine, the stack) — the document snapshot
/// is immutable and shared structures are untouched.
pub fn evaluate_mfa_plan_budgeted(
    doc: &Document,
    plan: &CompiledMfa,
    options: &DomOptions<'_>,
    mode: ExecMode,
    observer: &mut dyn EvalObserver,
    budget: &WorkBudget,
) -> Result<(NodeSet, EvalStats), EvalInterrupt> {
    debug_assert!(
        doc.vocabulary().same_as(plan.mfa().vocabulary()),
        "document and query must share a vocabulary"
    );
    if mode == ExecMode::Jump && observer.is_noop() {
        if let Some(tax) = options.tax {
            if let Some(result) = crate::jump::evaluate_jump(doc, plan, tax, budget) {
                return result;
            }
        }
    }
    // `text() = 'c'` compares the node's direct text; the virtual
    // document node has none.
    let resolver = |n: u32| -> Cow<'_, str> {
        if n == VIRTUAL_NODE {
            Cow::Borrowed("")
        } else {
            doc.direct_text_cow(NodeId(n))
        }
    };
    let mut meter = budget.meter();
    let mut machine = Machine::new(plan, Some(&resolver));
    machine.begin(observer);

    // Explicit stack: (node, entered?).
    let mut stack: Vec<(NodeId, bool)> = vec![(doc.root(), false)];
    // Pre-enter check for the root too (its label may already kill all
    // runs, e.g. a query starting with a different root name).
    while let Some((node, entered)) = stack.pop() {
        if let Some(kind) = meter.tick() {
            return Err(EvalInterrupt {
                kind,
                stats: *machine.stats_mut(),
            });
        }
        if entered {
            machine.leave(observer);
            continue;
        }
        let label = doc.label(node).expect("only elements are scheduled");
        match machine.preview(label, options.tax.map(|t| t.descendant_labels(node))) {
            Preview::NoMatch => {
                machine.stats_mut().subtrees_skipped_dead += 1;
                observer.subtree_pruned(node.0, label, PruneReason::DeadRuns);
                continue;
            }
            Preview::Pruned => {
                machine.stats_mut().subtrees_pruned_tax += 1;
                observer.subtree_pruned(node.0, label, PruneReason::TaxIndex);
                continue;
            }
            Preview::Progress => {}
        }
        stack.push((node, true));
        let alive = machine.enter(label, node.0, observer);
        if !alive {
            continue; // nothing below can match and no text is awaited
        }
        // Push children, then reverse the pushed slice in place so they
        // are visited in document order (no per-node allocation).
        let mark = stack.len();
        for c in doc.child_elements(node) {
            stack.push((c, false));
        }
        stack[mark..].reverse();
    }

    let (answers, stats) = machine.end(observer);
    Ok((
        NodeSet::from_sorted(answers.into_iter().map(NodeId).collect()),
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoqe_automata::compile;
    use smoqe_rxpath::{evaluate as naive, parse_path};
    use smoqe_xml::Vocabulary;

    fn check(xml: &str, query: &str) -> (NodeSet, EvalStats) {
        let vocab = Vocabulary::new();
        let doc = Document::parse_str(xml, &vocab).unwrap();
        let path = parse_path(query, &vocab).unwrap();
        let mfa = compile(&path, &vocab);
        let (got, stats) = evaluate_mfa(&doc, &mfa);
        let want = naive(&doc, &path);
        assert_eq!(got, want, "query `{query}` on `{xml}`");
        (got, stats)
    }

    #[test]
    fn agrees_with_naive_on_steps() {
        check("<a><b>1</b><c>2</c><b>3</b></a>", "a/b");
        check("<a><b/><c/></a>", "a/*");
        check("<a><b/></a>", "a/zzz");
        check("<a><b/></a>", "zzz");
    }

    #[test]
    fn agrees_on_descendants_and_closures() {
        check("<a><b><c>x</c></b><c>y</c></a>", "//c");
        check("<a><b><a><b><a/></b></a></b></a>", "a/(b/a)*");
        check("<a><b><a><b><a/></b></a></b></a>", "(a/b)*/a");
    }

    #[test]
    fn agrees_on_qualifiers() {
        let doc = "<a><b><c>yes</c></b><b><d/></b><b><c>no</c></b></a>";
        check(doc, "a/b[c]");
        check(doc, "a/b[c = 'yes']");
        check(doc, "a/b[not(c)]");
        check(doc, "a/b[c and d]");
        check(doc, "a/b[c or d]");
        check(doc, "a/b[text() = 'yes']");
    }

    #[test]
    fn agrees_on_nested_qualifiers() {
        let doc = "<a><b><c><d>v</d></c></b><b><c><e/></c></b></a>";
        check(doc, "a/b[c[d]]");
        check(doc, "a/b[c[not(d)]]");
        check(doc, "a/b[c/d = 'v']");
        check(doc, "//b[c[d = 'v' or e]]");
    }

    #[test]
    fn candidate_discovered_before_predicate_witness() {
        // The answer node (x) appears before the predicate witness (w)
        // in document order: candidates must park in Cans.
        let doc = "<a><b><x/><w/></b><b><x/></b></a>";
        let (res, stats) = check(doc, "a/b[w]/x");
        assert_eq!(res.len(), 1);
        assert!(stats.cans_size >= 1, "expected unresolved candidates");
    }

    #[test]
    fn immediate_answers_skip_cans() {
        let (res, stats) = check("<a><b/><b/></a>", "a/b");
        assert_eq!(res.len(), 2);
        assert_eq!(stats.cans_size, 0);
        assert_eq!(stats.immediate_answers, 2);
    }

    #[test]
    fn dead_subtrees_are_skipped() {
        // Query a/b; the <z> subtree can never match below the root.
        let (_, stats) = check("<a><z><b/><b/><b/></z><b/></a>", "a/b");
        assert!(stats.subtrees_skipped_dead >= 1);
        // The b-nodes inside z were never visited.
        assert!(stats.nodes_visited <= 3);
    }

    #[test]
    fn paper_q0() {
        let xml = "<hospital>\
               <patient><pname>Ann</pname>\
                 <visit><treatment><test>blood</test></treatment><date>d1</date></visit>\
                 <visit><treatment><medication>headache</medication></treatment><date>d2</date></visit>\
               </patient>\
               <patient><pname>Bob</pname>\
                 <visit><treatment><medication>headache</medication></treatment><date>d3</date></visit>\
               </patient>\
               <patient><pname>Cat</pname>\
                 <parent><patient><pname>Dan</pname>\
                   <visit><treatment><test>x-ray</test></treatment><date>d4</date></visit>\
                 </patient></parent>\
                 <visit><treatment><medication>headache</medication></treatment><date>d5</date></visit>\
               </patient>\
             </hospital>";
        check(
            xml,
            "hospital/patient[(parent/patient)*/visit/treatment/test and \
             visit/treatment[medication/text() = 'headache']]/pname",
        );
    }

    #[test]
    fn union_and_mixed_shapes() {
        let doc = "<a><b><c/></b><d><c/></d><e/></a>";
        check(doc, "a/(b | d)/c");
        check(doc, "a/(b/c | d/c | e)");
        check(doc, "(a | a/b)*");
    }

    #[test]
    fn empty_path_returns_nothing_from_virtual() {
        // `.` selects the virtual context node, which is not an element
        // answer.
        check("<a/>", ".");
    }

    #[test]
    fn expired_deadline_abandons_within_one_check_interval() {
        use crate::budget::{Interrupt, WorkBudget};
        use std::time::{Duration, Instant};
        let body: String = (0..500).map(|i| format!("<b><c>{i}</c></b>")).collect();
        let xml = format!("<a>{body}</a>");
        let vocab = Vocabulary::new();
        let doc = Document::parse_str(&xml, &vocab).unwrap();
        let plan = CompiledMfa::compile(&compile(&parse_path("//c", &vocab).unwrap(), &vocab));
        let budget = WorkBudget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            cancel: None,
            check_interval: 32,
        };
        let interrupt = evaluate_mfa_plan_budgeted(
            &doc,
            &plan,
            &DomOptions::default(),
            ExecMode::Compiled,
            &mut NoopObserver,
            &budget,
        )
        .expect_err("an already-expired deadline must interrupt");
        assert_eq!(interrupt.kind, Interrupt::DeadlineExceeded);
        // The meter ticks once per stack pop and node visits are a subset
        // of pops, so post-expiry work is bounded by one check interval.
        assert!(
            interrupt.stats.nodes_visited <= 32,
            "visited {} nodes past an expired deadline",
            interrupt.stats.nodes_visited
        );
    }

    #[test]
    fn cancel_token_aborts_mid_scan() {
        use crate::budget::{Interrupt, WorkBudget};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let xml = "<a><b><c>x</c></b><b><c>y</c></b></a>";
        let vocab = Vocabulary::new();
        let doc = Document::parse_str(xml, &vocab).unwrap();
        let plan = CompiledMfa::compile(&compile(&parse_path("//c", &vocab).unwrap(), &vocab));
        let cancel = Arc::new(AtomicBool::new(false));
        cancel.store(true, Ordering::Relaxed);
        let budget = WorkBudget {
            deadline: None,
            cancel: Some(cancel),
            check_interval: 1,
        };
        let interrupt = evaluate_mfa_plan_budgeted(
            &doc,
            &plan,
            &DomOptions::default(),
            ExecMode::Compiled,
            &mut NoopObserver,
            &budget,
        )
        .expect_err("a set cancel token must interrupt");
        assert_eq!(interrupt.kind, Interrupt::Cancelled);
    }

    #[test]
    fn armed_but_generous_budget_changes_nothing() {
        use crate::budget::WorkBudget;
        use std::time::{Duration, Instant};
        let xml = "<a><b><c>yes</c></b><b><d/></b><b><c>no</c></b></a>";
        let vocab = Vocabulary::new();
        let doc = Document::parse_str(xml, &vocab).unwrap();
        let plan = CompiledMfa::compile(&compile(&parse_path("a/b[c]", &vocab).unwrap(), &vocab));
        let options = DomOptions::default();
        let plain = evaluate_mfa_plan(&doc, &plan, &options, ExecMode::Compiled, &mut NoopObserver);
        let budget = WorkBudget::with_deadline(Instant::now() + Duration::from_secs(3600));
        let budgeted = evaluate_mfa_plan_budgeted(
            &doc,
            &plan,
            &options,
            ExecMode::Compiled,
            &mut NoopObserver,
            &budget,
        )
        .expect("a generous deadline never fires");
        assert_eq!(plain.0, budgeted.0);
        assert_eq!(plain.1.nodes_visited, budgeted.1.nodes_visited);
    }

    #[test]
    fn qualifier_on_closure() {
        let doc = "<a><b><a><b/></a></b><b><c/></b></a>";
        check(doc, "(a/b)*[c]");
        check(doc, "a/(b[c])*");
        check(doc, "a/(b[not(c)]/a)*");
    }
}
