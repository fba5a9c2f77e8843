//! Engine configuration.

/// How documents are processed (paper §2, "XML documents").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DocumentMode {
    /// The whole document tree in memory; enables TAX pruning.
    #[default]
    Dom,
    /// Each query is one sequential StAX scan of the document's text
    /// buffer, with answer subtrees serialized during the scan. The
    /// engine still holds the parsed document (view rendering, updates
    /// and the WAL need it), so memory is not bounded by this mode; the
    /// TAX index and jump evaluation are not used.
    Stream,
}

/// How DOM-mode queries traverse the document.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// Always walk the tree (the compiled scan walker).
    Scan,
    /// Jump between candidate subtrees through the positional label index
    /// whenever the plan allows it (predicate-free DFA plans with a TAX
    /// index); ineligible plans scan.
    Jump,
    /// Pick per query: jump when the plan is eligible **and** its
    /// estimated selectivity (rarest required label's occurrence count /
    /// node count) is at most [`EngineConfig::jump_selectivity`];
    /// otherwise scan, whose per-node constants win on unselective
    /// queries.
    #[default]
    Auto,
}

/// Engine tuning knobs (each is an experiment toggle of the `experiments`
/// binary in `crates/bench`, whose tables print on stdout).
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// DOM or streaming evaluation.
    pub mode: DocumentMode,
    /// Consult the TAX index (DOM mode only) — the E5 toggle.
    pub use_tax: bool,
    /// Run the MFA optimizer on compiled/rewritten queries.
    pub optimize_mfa: bool,
    /// Scan, jump, or auto-picked DOM traversal (jumping needs a TAX index
    /// with its positional label index, so `use_tax` off pins everything
    /// to scan). Plans always execute in their dense-table compiled form.
    pub eval_mode: EvalMode,
    /// Selectivity ceiling under which auto mode jumps (fraction of the
    /// document the rarest required label occupies).
    pub jump_selectivity: f64,
    /// Worker threads for DOM-mode query batches, which always answer
    /// from one document snapshot: `1` evaluates inline on the calling
    /// thread, `> 1` partitions the jump frontier and the remaining plans
    /// across scoped threads (streaming batches share one parse instead).
    pub eval_threads: usize,
    /// Maximum number of compiled plans memoized engine-wide (0 disables
    /// the plan cache entirely).
    pub plan_cache_capacity: usize,
    /// Durable engines only: checkpoint automatically after this many
    /// WAL records have accumulated since the last checkpoint (0 = never
    /// checkpoint periodically; explicit [`Engine::checkpoint`]
    /// (crate::engine::Engine::checkpoint) calls — e.g. on graceful
    /// server drain — still work). Ignored by in-memory engines.
    pub checkpoint_every: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mode: DocumentMode::Dom,
            use_tax: true,
            optimize_mfa: true,
            eval_mode: EvalMode::Auto,
            jump_selectivity: 0.1,
            eval_threads: 1,
            plan_cache_capacity: 1024,
            checkpoint_every: 1024,
        }
    }
}

impl EngineConfig {
    /// DOM mode with every optional optimization off (the baseline
    /// configuration): no TAX, no MFA optimizer, scan only, no plan cache.
    pub fn plain() -> Self {
        EngineConfig {
            mode: DocumentMode::Dom,
            use_tax: false,
            optimize_mfa: false,
            eval_mode: EvalMode::Scan,
            jump_selectivity: 0.0,
            eval_threads: 1,
            plan_cache_capacity: 0,
            checkpoint_every: 0,
        }
    }

    /// Streaming configuration.
    pub fn streaming() -> Self {
        EngineConfig {
            mode: DocumentMode::Stream,
            use_tax: false,
            optimize_mfa: true,
            ..EngineConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_dom_with_everything_on() {
        let c = EngineConfig::default();
        assert_eq!(c.mode, DocumentMode::Dom);
        assert!(c.use_tax);
        assert!(c.optimize_mfa);
        assert_eq!(c.eval_mode, EvalMode::Auto);
        assert!(c.jump_selectivity > 0.0);
        assert_eq!(c.eval_threads, 1);
        assert!(c.plan_cache_capacity > 0);
        assert!(c.checkpoint_every > 0);
        assert_eq!(EngineConfig::plain().checkpoint_every, 0);
        assert!(!EngineConfig::plain().use_tax);
        assert_eq!(EngineConfig::plain().eval_mode, EvalMode::Scan);
        assert_eq!(EngineConfig::plain().plan_cache_capacity, 0);
        assert_eq!(EngineConfig::streaming().mode, DocumentMode::Stream);
        assert!(EngineConfig::streaming().plan_cache_capacity > 0);
    }
}
