//! Compiler configuration.

use serde::Serialize;

/// Selects one of the built-in routing strategies.
///
/// The strategy is instantiated per compilation through
/// [`RoutingConfig::build`](crate::routing::RoutingStrategy); custom
/// implementations drive [`RoutePass`](crate::RoutePass) and
/// [`MovePass`](crate::MovePass) directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RoutingStrategyKind {
    /// The paper's continuous router with dwell-ordered chunked packing
    /// ([`GreedyRouter`](crate::GreedyRouter)); byte-identical to the
    /// pre-refactor compiler.
    Greedy,
    /// Greedy planning, but undecided pairs score candidate sites against
    /// the next [`RoutingConfig::lookahead`] stages
    /// ([`LookaheadRouter`](crate::LookaheadRouter)).
    Lookahead,
    /// Greedy planning with per-AOD, duration-balanced move windows
    /// ([`MultiAodScheduler`](crate::MultiAodScheduler)).
    MultiAod,
    /// Per-instance strategy selection ([`AutoRouter`](crate::AutoRouter)):
    /// the compiler lowers two routes three ways and keeps the schedule with
    /// the lower movement wall clock.
    Auto,
}

impl RoutingStrategyKind {
    /// Short identifier of the strategy kind, matching
    /// [`RoutingStrategy::name`](crate::RoutingStrategy::name) for the
    /// per-stage built-ins. Auto-tuning reports `"auto"`.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            RoutingStrategyKind::Greedy => "greedy",
            RoutingStrategyKind::Lookahead => "lookahead",
            RoutingStrategyKind::MultiAod => "multi-aod",
            RoutingStrategyKind::Auto => "auto",
        }
    }

    /// Whether this kind is resolved per instance by the auto-tuning layer
    /// rather than naming one fixed per-stage strategy.
    #[must_use]
    pub fn is_auto(&self) -> bool {
        matches!(self, RoutingStrategyKind::Auto)
    }
}

/// How the multi-AOD scheduler assigns collective moves to parallel
/// windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum AodAssignment {
    /// Chunk the dwell-time order as-is (the greedy packing of Sec. 6.2).
    Chunked,
    /// Sort each move class by translation length before chunking, so
    /// similar-duration moves share a window and no AOD idles behind one
    /// slow member.
    Balanced,
}

/// Configuration of the routing subsystem: which strategy plans stage
/// transitions and how collective moves are packed onto AOD arrays.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RoutingConfig {
    /// The active routing strategy.
    pub strategy: RoutingStrategyKind,
    /// Lookahead window in stages, used by
    /// [`RoutingStrategyKind::Lookahead`].
    pub lookahead: usize,
    /// Window-assignment policy, used by
    /// [`RoutingStrategyKind::MultiAod`].
    pub aod_assignment: AodAssignment,
}

impl RoutingConfig {
    /// The greedy configuration (the default).
    #[must_use]
    pub fn greedy() -> Self {
        Self::default()
    }

    /// The lookahead configuration with a `depth`-stage window.
    #[must_use]
    pub fn lookahead(depth: usize) -> Self {
        RoutingConfig {
            strategy: RoutingStrategyKind::Lookahead,
            lookahead: depth,
            ..Self::default()
        }
    }

    /// The multi-AOD scheduler with duration-balanced windows.
    #[must_use]
    pub fn multi_aod() -> Self {
        RoutingConfig {
            strategy: RoutingStrategyKind::MultiAod,
            aod_assignment: AodAssignment::Balanced,
            ..Self::default()
        }
    }

    /// The auto-tuning configuration: every candidate strategy (greedy,
    /// lookahead with this config's window, multi-AOD with this config's
    /// assignment) lowers a route of the one staged program, and the
    /// schedule with the lower movement wall clock wins (tie → fewer
    /// transfers → greedy). Exact by construction, at the cost of two
    /// routes (greedy and multi-AOD share one) and three lowerings.
    #[must_use]
    pub fn auto() -> Self {
        RoutingConfig {
            strategy: RoutingStrategyKind::Auto,
            aod_assignment: AodAssignment::Balanced,
            ..Self::default()
        }
    }
}

impl Default for RoutingConfig {
    fn default() -> Self {
        RoutingConfig {
            strategy: RoutingStrategyKind::Greedy,
            lookahead: 2,
            aod_assignment: AodAssignment::Chunked,
        }
    }
}

/// Configuration knobs of the PowerMove compiler.
///
/// The two evaluation scenarios of the paper map onto this struct directly:
/// the *with-storage* case is [`CompilerConfig::default`] (storage zone on),
/// the *non-storage* case is [`CompilerConfig::without_storage`] (only the
/// continuous router is active and every qubit stays in the computation
/// zone).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CompilerConfig {
    /// Whether non-interacting qubits are parked in the storage zone between
    /// stages (Sec. 4 and Sec. 6 optimizations).
    pub use_storage: bool,
    /// Weight `α < 1` of the "move-out" term in the stage-scheduling
    /// difference metric `|Q_i \ Q_{i+1}| + α·|Q_{i+1} \ Q_i|` (Sec. 4.2).
    pub alpha: f64,
    /// Whether single-qubit moves are grouped into AOD-compatible collective
    /// moves (Sec. 6). Disabled only by the grouping-ablation configuration,
    /// which emits every move as its own collective move.
    pub use_grouping: bool,
    /// Worker threads for the parallel pipeline passes. `0` (the default)
    /// resolves through `POWERMOVE_THREADS`, falling back to the available
    /// core count; any other value pins the pool size. The compiled program
    /// is byte-identical for every setting — parallelism only changes how
    /// fast independent blocks are processed.
    pub threads: usize,
    /// The routing subsystem configuration: which strategy plans stage
    /// transitions and how moves are packed onto AOD arrays. The default
    /// ([`RoutingConfig::greedy`]) reproduces the paper's router exactly.
    pub routing: RoutingConfig,
}

impl CompilerConfig {
    /// The with-storage configuration used by the paper's main results.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The non-storage configuration: only the continuous router is applied
    /// and all qubits remain in the computation zone.
    #[must_use]
    pub fn without_storage() -> Self {
        CompilerConfig {
            use_storage: false,
            ..Self::default()
        }
    }

    /// Disables collective-move grouping (the grouping-ablation
    /// configuration): every single-qubit move becomes its own collective
    /// move.
    #[must_use]
    pub fn without_grouping(mut self) -> Self {
        self.use_grouping = false;
        self
    }

    /// Pins the worker-thread count of the parallel pipeline passes
    /// (`0` restores the automatic `POWERMOVE_THREADS` / core-count default).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Replaces the routing subsystem configuration.
    #[must_use]
    pub fn with_routing(mut self, routing: RoutingConfig) -> Self {
        self.routing = routing;
        self
    }
}

impl Default for CompilerConfig {
    fn default() -> Self {
        CompilerConfig {
            use_storage: true,
            alpha: 0.5,
            use_grouping: true,
            threads: 0,
            routing: RoutingConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_uses_storage() {
        let c = CompilerConfig::default();
        assert!(c.use_storage);
        assert!(c.alpha > 0.0 && c.alpha < 1.0);
        assert_eq!(CompilerConfig::new(), c);
    }

    #[test]
    fn without_storage_disables_storage_only() {
        let c = CompilerConfig::without_storage();
        assert!(!c.use_storage);
        assert_eq!(c.alpha, CompilerConfig::default().alpha);
    }

    #[test]
    fn threads_default_to_automatic_and_can_be_pinned() {
        assert_eq!(CompilerConfig::default().threads, 0);
        let c = CompilerConfig::default().with_threads(4);
        assert_eq!(c.threads, 4);
        assert_eq!(c.with_threads(0).threads, 0);
    }

    #[test]
    fn grouping_is_on_by_default_and_can_be_ablated() {
        assert!(CompilerConfig::default().use_grouping);
        let c = CompilerConfig::default().without_grouping();
        assert!(!c.use_grouping);
        assert!(c.use_storage, "grouping ablation leaves storage on");
    }

    #[test]
    fn routing_defaults_to_greedy_and_can_be_replaced() {
        let c = CompilerConfig::default();
        assert_eq!(c.routing.strategy, RoutingStrategyKind::Greedy);
        assert_eq!(c.routing, RoutingConfig::greedy());
        let c = c.with_routing(RoutingConfig::multi_aod());
        assert_eq!(c.routing.strategy, RoutingStrategyKind::MultiAod);
        assert_eq!(c.routing.aod_assignment, AodAssignment::Balanced);
        assert!(c.use_storage, "routing override leaves other knobs alone");
        let c = c.with_routing(RoutingConfig::lookahead(4));
        assert_eq!(c.routing.strategy, RoutingStrategyKind::Lookahead);
        assert_eq!(c.routing.lookahead, 4);
    }

    #[test]
    fn auto_configs_select_the_auto_kind() {
        let auto = RoutingConfig::auto();
        assert_eq!(auto.strategy, RoutingStrategyKind::Auto);
        assert_eq!(auto.aod_assignment, AodAssignment::Balanced);
        assert!(auto.strategy.is_auto());
        assert!(!RoutingStrategyKind::Greedy.is_auto());
    }

    #[test]
    fn strategy_kind_names_are_stable() {
        assert_eq!(RoutingStrategyKind::Greedy.name(), "greedy");
        assert_eq!(RoutingStrategyKind::Lookahead.name(), "lookahead");
        assert_eq!(RoutingStrategyKind::MultiAod.name(), "multi-aod");
        assert_eq!(RoutingStrategyKind::Auto.name(), "auto");
    }
}
