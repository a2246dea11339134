//! The pluggable routing subsystem.
//!
//! Routing — deciding *where* qubits move between Rydberg stages and *when*
//! their collective moves fly on which AOD array — is the compiler's hottest
//! decision layer, so it is a first-class, open surface rather than one
//! baked-in algorithm. A [`RoutingStrategy`] is an object-safe
//! `Send + Sync` trait (mirroring the [`CompilerBackend`] registry pattern)
//! with two responsibilities, consumed by [`RoutePass`] and [`MovePass`]
//! respectively:
//!
//! * [`RoutingStrategy::route_stage`] plans one stage transition over the
//!   shared [`RoutingState`] (the evolving layout);
//! * [`RoutingStrategy::schedule_moves`] lowers a stage's movement plan
//!   into move-group instructions — per-AOD collective-move batches whose
//!   windows overlap across distinct AODs.
//!
//! Three strategies ship in-tree, selected through [`RoutingConfig`]:
//!
//! | strategy | stage planning | move scheduling |
//! |---|---|---|
//! | [`GreedyRouter`] | nearest free site (Sec. 5) | dwell-ordered chunks (Sec. 6) |
//! | [`LookaheadRouter`] | scores sites against the next *k* stages | dwell-ordered chunks |
//! | [`MultiAodScheduler`] | greedy | duration-balanced per-AOD windows |
//!
//! All three planners resolve their site decisions through the shared
//! [`RoutingState`], whose free-site queries run on a spatial index (see
//! `site_index`): candidates are walked best-first in attractor score for
//! lookahead ([`SitePolicy::attractors`]), and the walk cuts off once its
//! key cannot beat the best candidate — same site selected, far fewer
//! examined. Queries scored by distance alone (greedy, multi-AOD, parking
//! and stale pairs) are answered by row and column oracles over the same
//! bitsets, which report what the walk would have examined. The
//! [`SITE_SCANS`] / [`SITES_PRUNED`] metadata counters report the saved
//! work.
//!
//! On top of the per-stage strategies sits the **auto-tuning layer**
//! ([`auto`]): [`RoutingStrategyKind::Auto`] makes the compiler select the
//! winning strategy *per instance* from **two routes, three lowerings** and
//! keep the fastest-moving schedule ([`AutoRouter`]).
//!
//! A compile picks its strategy from [`RoutingConfig`] alone; custom
//! strategies drive [`RoutePass`] and [`MovePass`] directly. Everything
//! downstream — schedule validation, the fidelity model, the benchmark
//! gate — consumes the strategy's output through the same instruction
//! stream.
//!
//! [`CompilerBackend`]: crate::CompilerBackend
//! [`RoutePass`]: crate::RoutePass
//! [`MovePass`]: crate::MovePass
//! [`RoutingStrategyKind::Auto`]: crate::RoutingStrategyKind::Auto

pub mod auto;
mod greedy;
mod lookahead;
mod multi_aod;
mod site_index;
mod state;

pub use auto::AutoRouter;
pub use greedy::GreedyRouter;
pub use lookahead::LookaheadRouter;
pub use multi_aod::MultiAodScheduler;
// The canonical movement fold lives in the schedule layer next to
// `move_group_duration`; re-exported here because routing selection is its
// primary consumer.
pub use powermove_schedule::movement_wall_clock;
pub use site_index::{SITES_PRUNED, SITE_SCANS};
pub use state::{
    Attractors, BiasFn, FreeSiteHarness, RoutingState, SitePolicy, StageRouting, ZeroBias,
};

use crate::config::{RoutingConfig, RoutingStrategyKind};
use crate::{CompileError, MoveScratch, Stage};
use powermove_hardware::Architecture;
use powermove_schedule::Instruction;
use std::sync::Arc;

/// An interchangeable routing algorithm.
///
/// Strategies are stateless trait objects (`&self` methods, `Send + Sync`):
/// all mutable routing state lives in the [`RoutingState`] the pipeline
/// threads through the stage sequence, so one strategy instance can serve
/// concurrent compilations. Both steps default to greedy, so a strategy
/// that only changes stage planning ([`LookaheadRouter`]) or only move
/// scheduling ([`MultiAodScheduler`]) implements just that.
pub trait RoutingStrategy: Send + Sync {
    /// Short identifier of the strategy, e.g. `"greedy"`.
    fn name(&self) -> &str;

    /// How many upcoming stages the strategy wants to see in `upcoming`
    /// when planning a stage. Zero (the default) for history-free
    /// strategies.
    fn lookahead(&self) -> usize {
        0
    }

    /// Plans the single-qubit movements preparing `stage`, mutating the
    /// shared routing state (layout) accordingly. `upcoming` holds the next
    /// [`RoutingStrategy::lookahead`] stages of the same commuting CZ
    /// block, for strategies that place qubits with future pairings in
    /// mind. The default is the greedy router of Sec. 5.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::NoFreeSite`] if a zone runs out of free
    /// sites.
    fn route_stage(
        &self,
        state: &mut RoutingState,
        stage: &Stage,
        _upcoming: &[Stage],
    ) -> Result<StageRouting, CompileError> {
        state.route_stage_with(stage, &ZeroBias)
    }

    /// Lowers one stage's movement plan into move-group instructions,
    /// appended to `out`: conflict-free collective moves assigned to
    /// distinct AOD arrays, at most `arch.num_aods()` per parallel window.
    /// `use_grouping == false` is the grouping-ablation configuration
    /// (every move flies alone). `scratch` is the caller's reusable
    /// grouping, ordering and packing buffer ([`MoveScratch`]); the
    /// default is the greedy schedule ([`greedy_move_schedule`]).
    fn schedule_moves(
        &self,
        routing: &StageRouting,
        arch: &Architecture,
        use_grouping: bool,
        scratch: &mut MoveScratch,
        out: &mut Vec<Instruction>,
    ) {
        scratch.lower_greedy(routing, arch, use_grouping, out);
    }
}

/// The default move schedule (Sec. 6): group each move class into
/// AOD-compatible collective moves, order them for maximum storage dwell
/// time — storage-bound groups strictly before interaction groups, so a
/// vacated site is free before an interaction arrives — and chunk the
/// ordered sequence onto the available AOD arrays. `use_grouping == false`
/// makes every move its own collective move.
///
/// This is [`RoutingStrategy::schedule_moves`]'s default on a fresh
/// [`MoveScratch`]; the move pass reuses one scratch per worker instead.
#[must_use]
pub fn greedy_move_schedule(
    routing: &StageRouting,
    arch: &Architecture,
    use_grouping: bool,
) -> Vec<Instruction> {
    let mut out = Vec::new();
    MoveScratch::new().lower_greedy(routing, arch, use_grouping, &mut out);
    out
}

impl RoutingConfig {
    /// Instantiates the configured built-in strategy.
    ///
    /// [`RoutingStrategyKind::Auto`] is a program-level decision, not a
    /// per-stage strategy: the pass pipeline intercepts it and dispatches to
    /// [`AutoRouter`] instead of calling this. For callers that need *some*
    /// per-stage strategy regardless (e.g. driving a
    /// [`RoutePass`](crate::RoutePass) by hand),
    /// an auto configuration builds the portfolio's greedy baseline.
    #[must_use]
    pub fn build(&self) -> Arc<dyn RoutingStrategy> {
        match self.strategy {
            RoutingStrategyKind::Greedy | RoutingStrategyKind::Auto => Arc::new(GreedyRouter),
            RoutingStrategyKind::Lookahead => Arc::new(LookaheadRouter::new(self.lookahead)),
            RoutingStrategyKind::MultiAod => Arc::new(MultiAodScheduler::new(self.aod_assignment)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AodAssignment;

    #[test]
    fn config_builds_the_matching_strategy() {
        assert_eq!(RoutingConfig::default().build().name(), "greedy");
        assert_eq!(RoutingConfig::lookahead(3).build().name(), "lookahead");
        assert_eq!(RoutingConfig::lookahead(3).build().lookahead(), 3);
        assert_eq!(RoutingConfig::multi_aod().build().name(), "multi-aod");
        assert_eq!(RoutingConfig::default().build().lookahead(), 0);
        let chunked = RoutingConfig {
            strategy: RoutingStrategyKind::MultiAod,
            aod_assignment: AodAssignment::Chunked,
            ..RoutingConfig::default()
        };
        assert_eq!(chunked.build().name(), "multi-aod");
        // Auto is resolved by the pipeline; the per-stage fallback is the
        // portfolio's greedy baseline.
        assert_eq!(RoutingConfig::auto().build().name(), "greedy");
    }

    #[test]
    fn strategies_are_object_safe_and_shareable() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn RoutingStrategy>();
        let strategies: Vec<Arc<dyn RoutingStrategy>> = vec![
            Arc::new(GreedyRouter),
            Arc::new(LookaheadRouter::new(2)),
            Arc::new(MultiAodScheduler::default()),
        ];
        let names: Vec<&str> = strategies.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["greedy", "lookahead", "multi-aod"]);
    }
}
