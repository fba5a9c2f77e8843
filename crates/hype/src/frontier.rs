//! Shared batch jump frontier: many selective plans, one merged cursor.
//!
//! A batch of jump-eligible plans evaluated one after another repeats the
//! same work per plan: each binary-searches the same occurrence lists and
//! walks its own cursor over the same document. This module merges the
//! plans' **root-region candidate lists** into one ascending frontier of
//! `(node, plan)` entries and processes it in a single sweep — every
//! candidate is touched once, in document order, for exactly the plans
//! that asked for it. The frontier is partitioned into contiguous ranges
//! across worker threads; per-plan cursors are recovered at a chunk
//! boundary by replaying the plan's candidate prefix (every probed
//! candidate unconditionally skips its whole subtree, so the cursor after
//! a prefix is independent of probe outcomes — replay needs only
//! `subtree_end`, no evaluation).
//!
//! Deeper jump regions (a candidate whose own subtree jump-scans again)
//! stay inside the owning plan's probe: only the **root** region is
//! shared. That is where batches overlap — all plans start at the same
//! root — and it keeps per-plan probes independent, which is what makes
//! the range partition embarrassingly parallel.
//!
//! Answers per plan are identical to [`crate::jump::evaluate_jump`] by
//! construction: the same candidates are probed in the same order with
//! the same per-probe driver logic, whatever the thread count.

use crate::budget::{EvalInterrupt, WorkBudget};
use crate::jump::{frontier_setup, FrontierSetup, Jump, RegionPlan};
use crate::stats::EvalStats;
use smoqe_automata::compile::CompiledMfa;
use smoqe_rxpath::NodeSet;
use smoqe_tax::TaxIndex;
use smoqe_xml::Document;

/// Raw `(answers, stats)` probe output, one entry per region.
type RegionParts = Vec<(Vec<u32>, EvalStats)>;

/// Per-region raw probe output of one frontier chunk, plus the first
/// interrupt the chunk hit (if any — the parts then cover a prefix).
type ChunkOut = (RegionParts, Option<EvalInterrupt>);

/// Evaluates a batch of plans over one document through a shared jump
/// frontier. The returned vector is parallel to `plans`:
///
/// * `Some((answers, stats))` — the plan was evaluated in jump mode
///   (through the shared frontier, or outright during setup when its
///   root region was dead, pruned, a leaf, or child-stepping);
/// * `None` — the plan cannot jump (no DFA, or no positional index for
///   this document); the caller must evaluate it in scan mode.
///
/// `threads` bounds the worker count for the frontier sweep; `1` runs
/// the whole sweep inline on the calling thread.
///
/// Every chunk sweeps with its own meter of `budget` (ticking once per
/// frontier entry, on top of the drivers' own per-node ticks) and the
/// whole batch abandons with merged partial counters as soon as any chunk
/// observes the deadline or the cancel token. Abandonment drops only
/// per-chunk drivers and cursors — the document, the TAX index, and the
/// plans are shared immutable snapshots.
pub fn evaluate_jump_frontier(
    doc: &Document,
    plans: &[&CompiledMfa],
    tax: &TaxIndex,
    threads: usize,
    budget: &WorkBudget,
) -> Result<Vec<Option<(NodeSet, EvalStats)>>, EvalInterrupt> {
    let mut results: Vec<Option<(NodeSet, EvalStats)>> = Vec::with_capacity(plans.len());
    results.resize_with(plans.len(), || None);
    // Admit each plan: setup handles the root step; jumpable root regions
    // contribute their candidates to the shared frontier.
    let mut regions: Vec<(usize, RegionPlan<'_>)> = Vec::new();
    for (i, plan) in plans.iter().enumerate() {
        match frontier_setup(doc, plan, tax, budget.meter()) {
            None => {}
            Some(FrontierSetup::Done(result)) => results[i] = Some(result),
            Some(FrontierSetup::Interrupted(interrupt)) => return Err(interrupt),
            Some(FrontierSetup::Region(region)) => regions.push((i, region)),
        }
    }
    if regions.is_empty() {
        return Ok(results);
    }
    // The shared frontier: all candidates of all regions, ascending.
    // Ties (one node wanted by several plans) order by region — each
    // probe is per-plan, so the tie order is immaterial.
    let mut frontier: Vec<(u32, u32)> = Vec::new();
    for (r, (_, region)) in regions.iter().enumerate() {
        frontier.extend(region.candidates.iter().map(|&c| (c, r as u32)));
    }
    frontier.sort_unstable();
    let workers = threads.max(1).min(frontier.len().max(1));
    let chunk_len = frontier.len().div_ceil(workers);
    // chunk_results[chunk][region] = (answers, stats) for that slice.
    let chunk_results: Vec<ChunkOut> = if workers == 1 {
        vec![sweep_chunk(&regions, &frontier, 0, frontier.len(), budget)]
    } else {
        let mut slots: Vec<Option<ChunkOut>> = Vec::new();
        slots.resize_with(workers, || None);
        std::thread::scope(|scope| {
            for (w, slot) in slots.iter_mut().enumerate() {
                let regions = &regions;
                let frontier = &frontier;
                scope.spawn(move || {
                    let start = (w * chunk_len).min(frontier.len());
                    let end = ((w + 1) * chunk_len).min(frontier.len());
                    *slot = Some(sweep_chunk(regions, frontier, start, end, budget));
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every frontier chunk is swept"))
            .collect()
    };
    // Any interrupted chunk abandons the whole batch; the counters merged
    // across every chunk's partial output travel out for observability.
    if let Some(kind) = chunk_results
        .iter()
        .find_map(|(_, interrupt)| interrupt.map(|i| i.kind))
    {
        let mut stats = EvalStats::default();
        for (parts, _) in &chunk_results {
            for (_, chunk_stats) in parts {
                stats.merge(chunk_stats);
            }
        }
        return Err(EvalInterrupt { kind, stats });
    }
    // Stitch: per region, concatenate chunk outputs in chunk order
    // (probed candidates ascend across chunks and skip disjoint
    // subtrees, so the concatenation is sorted).
    let mut per_region: Vec<RegionParts> = Vec::new();
    per_region.resize_with(regions.len(), Vec::new);
    for (parts, _) in chunk_results {
        for (r, pair) in parts.into_iter().enumerate() {
            per_region[r].push(pair);
        }
    }
    for ((i, region), chunks) in regions.iter().zip(per_region) {
        results[*i] = Some(region.assemble(chunks));
    }
    Ok(results)
}

/// Sweeps `frontier[start..end)`, probing each entry for its region, and
/// returns per-region `(answers, stats)` for the slice.
///
/// The per-region cursor at `start` is recovered by replaying the
/// region's candidates in `frontier[..start]`: a candidate at or past the
/// cursor would have been probed — and **every** probed candidate
/// advances the cursor past its whole subtree, whether it was entered,
/// dead, pruned, or guard-dead — while a candidate below the cursor
/// leaves it unchanged. The replay is therefore exact without evaluating
/// anything.
fn sweep_chunk(
    regions: &[(usize, RegionPlan<'_>)],
    frontier: &[(u32, u32)],
    start: usize,
    end: usize,
    budget: &WorkBudget,
) -> ChunkOut {
    let mut cursors: Vec<u32> = regions.iter().map(|(_, region)| region.lo).collect();
    for &(node, r) in &frontier[..start] {
        let r = r as usize;
        if node >= cursors[r] {
            cursors[r] = regions[r].1.subtree_end(node);
        }
    }
    let mut drivers: Vec<_> = regions
        .iter()
        .map(|(_, region)| region.driver(budget.meter()))
        .collect();
    let mut meter = budget.meter();
    let mut interrupted = None;
    for &(node, r) in &frontier[start..end] {
        let r = r as usize;
        if let Some(kind) = meter.tick() {
            interrupted = Some(kind);
            break;
        }
        if node < cursors[r] {
            continue; // inside an already-probed candidate's subtree
        }
        drivers[r].step_into(node, regions[r].1.state);
        cursors[r] = regions[r].1.subtree_end(node);
        if let Some(interrupt) = drivers[r].take_interrupt() {
            interrupted = Some(interrupt.kind);
            break;
        }
    }
    let parts: RegionParts = drivers.into_iter().map(Jump::into_parts).collect();
    let interrupt = interrupted.map(|kind| {
        let mut stats = EvalStats::default();
        for (_, part_stats) in &parts {
            stats.merge(part_stats);
        }
        EvalInterrupt { kind, stats }
    });
    (parts, interrupt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoqe_automata::compile;
    use smoqe_rxpath::parse_path;
    use smoqe_xml::Vocabulary;

    fn setup(xml: &str) -> (Vocabulary, Document, TaxIndex) {
        let vocab = Vocabulary::new();
        let doc = Document::parse_str(xml, &vocab).unwrap();
        let tax = TaxIndex::build(&doc);
        (vocab, doc, tax)
    }

    fn plan_for(q: &str, vocab: &Vocabulary) -> CompiledMfa {
        CompiledMfa::compile(&compile(&parse_path(q, vocab).unwrap(), vocab))
    }

    fn unlimited(
        doc: &Document,
        plans: &[&CompiledMfa],
        tax: &TaxIndex,
        threads: usize,
    ) -> Vec<Option<(NodeSet, EvalStats)>> {
        evaluate_jump_frontier(doc, plans, tax, threads, &WorkBudget::unlimited())
            .expect("an unlimited budget never interrupts")
    }

    /// The frontier must agree with per-plan jump evaluation for every
    /// plan, at every thread count.
    fn check_batch(xml: &str, queries: &[&str]) {
        let (vocab, doc, tax) = setup(xml);
        let plans: Vec<CompiledMfa> = queries.iter().map(|q| plan_for(q, &vocab)).collect();
        let refs: Vec<&CompiledMfa> = plans.iter().collect();
        let solo: Vec<_> = refs
            .iter()
            .map(|p| {
                crate::jump::evaluate_jump(&doc, p, &tax, &WorkBudget::unlimited())
                    .map(|r| r.expect("an unlimited budget never interrupts"))
            })
            .collect();
        for threads in [1, 2, 5] {
            let batch = unlimited(&doc, &refs, &tax, threads);
            for ((q, solo), batch) in queries.iter().zip(&solo).zip(&batch) {
                match (solo, batch) {
                    (Some((sa, ss)), Some((ba, bs))) => {
                        assert_eq!(sa, ba, "`{q}` answers @ {threads} threads");
                        assert_eq!(
                            ss.nodes_visited, bs.nodes_visited,
                            "`{q}` visits @ {threads} threads"
                        );
                        assert_eq!(bs.tree_passes, 1, "`{q}` passes");
                        assert_eq!(bs.answers, ba.len(), "`{q}` answer counter");
                    }
                    (None, None) => {}
                    other => panic!("`{q}`: solo/batch availability split: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn batch_agrees_with_per_plan_jump() {
        let xml = "<lib><shelf><book><title>x</title></book>\
                   <book><title>y</title></book></shelf>\
                   <shelf><cd><title>x</title></cd></shelf><misc/></lib>";
        check_batch(
            xml,
            &[
                "//book/title",
                "//cd",
                "//book[title = 'x']",
                "//title[. = 'y']",
                "//missing",
                "lib/misc",
                "//shelf//title",
            ],
        );
    }

    #[test]
    fn batch_handles_root_edge_cases() {
        // Root answer, leaf root region, dead root, child-stepping root.
        check_batch("<a/>", &["a", "b", "//a", "."]);
        check_batch(
            "<a><b/><c><b/></c></a>",
            &["a", ".", "a/*", "//*", "a/b", "//b"],
        );
    }

    #[test]
    fn many_selective_plans_share_one_frontier() {
        // 40 sections, each with a unique id value; 8 point queries.
        let body: String = (0..40)
            .map(|i| format!("<sec><id>k{i}</id><data><x/><x/></data></sec>"))
            .collect();
        let xml = format!("<db>{body}</db>");
        let queries: Vec<String> = (0..8)
            .map(|i| format!("//sec[id = 'k{}']", i * 5))
            .collect();
        let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
        check_batch(&xml, &refs);
        // Every plan finds exactly its one section.
        let (vocab, doc, tax) = setup(&xml);
        let plans: Vec<CompiledMfa> = refs.iter().map(|q| plan_for(q, &vocab)).collect();
        let plan_refs: Vec<&CompiledMfa> = plans.iter().collect();
        let batch = unlimited(&doc, &plan_refs, &tax, 3);
        for (q, result) in refs.iter().zip(&batch) {
            let (answers, stats) = result.as_ref().expect("indexed doc: all plans jump");
            assert_eq!(answers.len(), 1, "`{q}`");
            assert!(
                stats.nodes_visited <= 4,
                "`{q}` visited {} nodes",
                stats.nodes_visited
            );
        }
    }

    #[test]
    fn expired_deadline_interrupts_the_sweep_at_any_thread_count() {
        use crate::budget::{Interrupt, WorkBudget};
        use std::time::{Duration, Instant};
        let body: String = (0..60)
            .map(|i| format!("<sec><id>k{i}</id><data><x/></data></sec>"))
            .collect();
        let xml = format!("<db>{body}</db>");
        let (vocab, doc, tax) = setup(&xml);
        let queries: Vec<String> = (0..4).map(|i| format!("//sec[id = 'k{i}']")).collect();
        let plans: Vec<CompiledMfa> = queries.iter().map(|q| plan_for(q, &vocab)).collect();
        let refs: Vec<&CompiledMfa> = plans.iter().collect();
        let budget = WorkBudget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            cancel: None,
            check_interval: 1,
        };
        for threads in [1, 3] {
            let interrupt = evaluate_jump_frontier(&doc, &refs, &tax, threads, &budget)
                .expect_err("an already-expired deadline must interrupt");
            assert_eq!(interrupt.kind, Interrupt::DeadlineExceeded, "@{threads}");
        }
        // A generous budget changes nothing.
        let generous = WorkBudget::with_deadline(Instant::now() + Duration::from_secs(3600));
        let plain = unlimited(&doc, &refs, &tax, 2);
        let budgeted = evaluate_jump_frontier(&doc, &refs, &tax, 2, &generous)
            .expect("a generous deadline never fires");
        assert_eq!(plain, budgeted);
    }

    #[test]
    fn unavailable_plans_report_none() {
        let (vocab, doc, _) = setup("<a><b/></a>");
        let other = Document::parse_str("<a><b/><b/></a>", &vocab).unwrap();
        let stale = TaxIndex::build(&other);
        let plan = plan_for("//b", &vocab);
        let batch = unlimited(&doc, &[&plan], &stale, 2);
        assert_eq!(batch, vec![None]);
    }
}
