//! The routing auto-tuner: per-instance selection over the built-in
//! strategy portfolio.
//!
//! [`AutoRouter`] is a **program-level** selector, not a per-stage
//! [`RoutingStrategy`]: the compiler hands it the staged program and it
//! returns the routed program plus instruction stream of the winning
//! candidate. The portfolio is **two routes, three lowerings** of the one
//! frozen staged program, through a [`RoutingSession`]: the greedy route is
//! planned once and lowered by both the greedy and the multi-AOD move
//! scheduler, the lookahead route once for its own lowering. The routes fan
//! out over the `powermove-exec` thread pool, each lowering on its own
//! scratch pass context, merged back in candidate order so the result is
//! byte-identical at any worker count. The schedule with the lower movement
//! wall clock wins; ties break to fewer SLM↔AOD transfers, then to the
//! earlier candidate — greedy first. The winner can therefore never be worse than
//! any portfolio member on movement wall clock.
//!
//! The winning strategy's name lands in
//! [`CompileMetadata::selected_strategy`], the number of candidates in the
//! [`AutoRouter::PORTFOLIO_COUNTER`] pass counter and the single shared
//! front-end pass in [`AutoRouter::STAGE_COUNTER`], so bench reports and
//! diagnostics can attribute both the decision and its cost shape (one
//! stage, two routes and three lowerings, not three full compiles).
//!
//! [`CompileMetadata::selected_strategy`]: powermove_schedule::CompileMetadata

use crate::compiler::{Replay, RoutingSession};
use crate::config::{RoutingConfig, RoutingStrategyKind};
use crate::pipeline::{CompileContext, RoutedProgram, StagedProgram};
use crate::routing::RoutingStrategy;
use crate::CompileError;
use powermove_exec::{Parallelism, ThreadPool};
use powermove_hardware::Architecture;
use powermove_schedule::Instruction;
use std::sync::Arc;

/// The per-instance routing auto-tuner (see the module docs).
pub struct AutoRouter {
    candidates: Vec<(RoutingStrategyKind, Arc<dyn RoutingStrategy>)>,
    /// Candidate indices grouped by the route they lower, in ascending
    /// order: the first candidate of a group plans the route and every
    /// candidate of the group lowers it.
    routes: Vec<Vec<usize>>,
}

impl AutoRouter {
    /// Name of the pass counter recording how many candidates the auto-tuner
    /// lowered for one program (the portfolio size). Every candidate shares
    /// the single front-end pass recorded by [`AutoRouter::STAGE_COUNTER`]
    /// — candidates are back-end replays, not full compiles.
    pub const PORTFOLIO_COUNTER: &'static str = "portfolio_compiles";

    /// Name of the pass counter recording how many front-end (stage) passes
    /// fed the auto-tuner's candidates: always one — the staged program is
    /// frozen once and every candidate replays only the back end from it.
    pub const STAGE_COUNTER: &'static str = "portfolio_stage_passes";

    /// Builds the auto-tuner from a routing configuration: the candidate
    /// portfolio is the greedy router, the lookahead router with
    /// `config.lookahead`, and the multi-AOD scheduler with
    /// `config.aod_assignment` — in that order, which is also the
    /// tie-breaking preference. Multi-AOD keeps the default greedy
    /// [`RoutingStrategy::route_stage`], so it lowers the greedy route.
    #[must_use]
    pub fn from_config(config: &RoutingConfig) -> Self {
        use RoutingStrategyKind::{Greedy, Lookahead, MultiAod};
        let candidates = [Greedy, Lookahead, MultiAod].map(|strategy| {
            let routing = RoutingConfig {
                strategy,
                ..*config
            };
            (strategy, routing.build())
        });
        AutoRouter {
            candidates: candidates.to_vec(),
            routes: vec![vec![0, 2], vec![1]],
        }
    }

    /// The candidate strategies with the kinds that select each as a fixed
    /// configuration, in tie-breaking preference order.
    #[must_use]
    pub fn candidates(&self) -> &[(RoutingStrategyKind, Arc<dyn RoutingStrategy>)] {
        &self.candidates
    }

    /// Routes and schedules `staged` with the winning candidate, recording
    /// the selection in `ctx` (see the module docs).
    ///
    /// The routes run concurrently on `pool`, each followed by its lowerings
    /// on a single-worker move-scheduling pool; records merge back in
    /// candidate order, so timing and counter layout — like the emitted
    /// program — is identical for every worker count. Merged counters
    /// report **total work across candidates** (a shared route's counters
    /// once per candidate that lowers it), while the `route` timing counts
    /// each route once, as it ran.
    ///
    /// # Errors
    ///
    /// A candidate that fails to route is dropped from the selection — the
    /// error (first in candidate order) surfaces only when **every**
    /// candidate fails, so auto compiles whenever any portfolio member does.
    pub fn run<'a>(
        &self,
        staged: &'a StagedProgram,
        arch: &Architecture,
        use_storage: bool,
        use_grouping: bool,
        pool: &ThreadPool,
        ctx: &mut CompileContext,
    ) -> Result<(RoutedProgram<'a>, Vec<Instruction>), CompileError> {
        ctx.count(Self::STAGE_COUNTER, 1);
        // Each route and its lowerings run sequentially inside one pool
        // job, so the per-candidate output is deterministic and the
        // cross-route fan-out is where the parallelism lives.
        let session = RoutingSession::new(staged, use_storage, use_grouping);
        let mut routes = pool.par_map(self.routes.iter().collect(), |group: &Vec<usize>| {
            let inline = ThreadPool::new(Parallelism::fixed(1));
            let mut route_records = CompileContext::scratch();
            let planner = self.candidates[group[0]].1.clone();
            let routed = session.route(arch, planner, &mut route_records)?;
            // Every lowering records the route's counters, as if it had
            // planned the route itself; only the first records its timing.
            let counters = route_records.counters().to_vec();
            let mut first = Some(route_records);
            let lowerings: Vec<_> = group
                .iter()
                .map(|&index| {
                    let mut records = first.take().unwrap_or_else(|| {
                        CompileContext::from_parts(Vec::new(), counters.clone())
                    });
                    let strategy = self.candidates[index].1.clone();
                    let lowered = session.lower(&routed, arch, strategy, &inline, &mut records);
                    (index, Replay::score(lowered, arch), records)
                })
                .collect();
            Ok::<_, CompileError>((routed, lowerings))
        });

        // Routes are listed by their first candidate and lowered in
        // candidate order, so this walk meets the first surviving
        // candidate, the first error and every new counter name in
        // candidate order; ties break to the earlier candidate explicitly.
        let mut best: Option<(usize, usize, Replay)> = None;
        let mut first_error = None;
        for (route, outcome) in routes.iter_mut().enumerate() {
            // A candidate that fails to route is dropped from the
            // selection, not fatal: the auto configuration compiles
            // whenever any portfolio member does, so it can never be worse
            // than a weaker fixed configuration that would have survived.
            let lowerings = match outcome {
                Ok((_, lowerings)) => std::mem::take(lowerings),
                Err(error) => {
                    first_error.get_or_insert_with(|| error.clone());
                    continue;
                }
            };
            for (index, replay, records) in lowerings {
                ctx.merge(records);
                let key = |index: usize, replay: &Replay| {
                    (replay.movement_wall_clock(), replay.transfer_count(), index)
                };
                let better = best.as_ref().map_or(true, |(best_index, _, best)| {
                    key(index, &replay) < key(*best_index, best)
                });
                if better {
                    best = Some((index, route, replay));
                }
            }
        }
        ctx.count(Self::PORTFOLIO_COUNTER, self.candidates.len() as u64);
        match best {
            Some((index, route, replay)) => {
                ctx.select_strategy(self.candidates[index].1.name());
                let (routed, _) = routes.swap_remove(route).expect("the winner routed");
                Ok((routed, replay.instructions))
            }
            None => Err(first_error.expect("the portfolio is never empty")),
        }
    }
}

impl std::fmt::Debug for AutoRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AutoRouter")
            .field(
                "candidates",
                &self
                    .candidates
                    .iter()
                    .map(|(_, strategy)| strategy.name().to_string())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::ring_circuit;
    use crate::pipeline::{StagePass, SynthesisPass};
    use crate::{CompilerConfig, PowerMoveCompiler, RoutingConfig};
    use powermove_circuit::Circuit;
    use powermove_fidelity::evaluate_program;
    use powermove_schedule::{movement_wall_clock, validate, CompiledProgram};

    fn compile(routing: RoutingConfig, n: u32, aods: usize) -> CompiledProgram {
        let arch = Architecture::for_qubits(n).with_num_aods(aods);
        PowerMoveCompiler::new(CompilerConfig::default().with_routing(routing))
            .compile(&ring_circuit(n), &arch)
            .unwrap()
    }

    #[test]
    fn from_config_builds_the_three_candidate_portfolio() {
        let auto = AutoRouter::from_config(&RoutingConfig::auto());
        let names: Vec<&str> = auto
            .candidates()
            .iter()
            .map(|(_, strategy)| strategy.name())
            .collect();
        let kinds: Vec<&str> = auto
            .candidates()
            .iter()
            .map(|(kind, _)| kind.name())
            .collect();
        assert_eq!(
            names, kinds,
            "each candidate runs under its own strategy's kind"
        );
        assert_eq!(names, vec!["greedy", "lookahead", "multi-aod"]);
        let debug = format!("{auto:?}");
        assert!(debug.contains("multi-aod"));
    }

    #[test]
    fn portfolio_never_moves_slower_than_any_member() {
        for aods in [1_usize, 2, 3, 4] {
            let auto = compile(RoutingConfig::auto(), 12, aods);
            assert!(validate(&auto).is_ok());
            let t_auto = movement_wall_clock(auto.instructions(), auto.architecture());
            for member in [
                RoutingConfig::greedy(),
                RoutingConfig::lookahead(2),
                RoutingConfig::multi_aod(),
            ] {
                let program = compile(member, 12, aods);
                let t_member = movement_wall_clock(program.instructions(), program.architecture());
                assert!(
                    t_auto <= t_member + 1e-12,
                    "{aods} aods: auto {t_auto} vs {:?} {t_member}",
                    member.strategy
                );
            }
        }
    }

    #[test]
    fn portfolio_records_selection_and_compile_count() {
        let program = compile(RoutingConfig::auto(), 12, 3);
        let metadata = program.metadata();
        let selected = metadata.selected_strategy.as_deref().expect("recorded");
        assert!(["greedy", "lookahead", "multi-aod"].contains(&selected));
        // One shared front-end pass, three route-only back-end replays.
        assert_eq!(metadata.counter(AutoRouter::PORTFOLIO_COUNTER), Some(3));
        assert_eq!(metadata.counter(AutoRouter::STAGE_COUNTER), Some(1));
    }

    #[test]
    fn auto_output_is_byte_identical_across_worker_counts() {
        let arch = Architecture::for_qubits(12).with_num_aods(3);
        let circuit = ring_circuit(12);
        let bytes = |threads: usize| {
            let program = PowerMoveCompiler::new(
                CompilerConfig::default()
                    .with_routing(RoutingConfig::auto())
                    .with_threads(threads),
            )
            .compile(&circuit, &arch)
            .unwrap();
            (
                format!("{:?}", program.instructions()),
                format!("{:?}", program.metadata().counters),
                program.metadata().selected_strategy.clone(),
            )
        };
        let reference = bytes(1);
        for threads in [2, 4] {
            assert_eq!(reference, bytes(threads), "threads={threads}");
        }
    }

    #[test]
    fn movement_wall_clock_matches_the_trace_simulator() {
        let program = compile(RoutingConfig::auto(), 10, 2);
        let trace = evaluate_program(&program).unwrap().trace;
        let direct = movement_wall_clock(program.instructions(), program.architecture());
        assert!((direct - trace.movement_time).abs() < 1e-12);
    }

    #[test]
    fn portfolio_falls_back_to_surviving_candidates() {
        use crate::routing::{GreedyRouter, RoutingState, StageRouting};
        use crate::Stage;

        // A candidate that can never route: the portfolio must drop it and
        // select among the survivors instead of failing a compile a plain
        // greedy configuration would have survived.
        struct AlwaysFails;
        impl crate::RoutingStrategy for AlwaysFails {
            fn name(&self) -> &str {
                "always-fails"
            }
            fn route_stage(
                &self,
                _state: &mut RoutingState,
                stage: &Stage,
                _upcoming: &[Stage],
            ) -> Result<StageRouting, CompileError> {
                Err(CompileError::NoFreeSite {
                    qubit: stage.gates()[0].lo(),
                    zone: powermove_hardware::Zone::Compute,
                })
            }
        }

        let broken_first = AutoRouter {
            candidates: vec![
                (RoutingStrategyKind::Lookahead, Arc::new(AlwaysFails)),
                (RoutingStrategyKind::Greedy, Arc::new(GreedyRouter)),
            ],
            routes: vec![vec![0], vec![1]],
        };
        let arch = Architecture::for_qubits(8);
        let mut ctx = CompileContext::new();
        let blocks = SynthesisPass.run(&ring_circuit(8), &mut ctx);
        let pool = ThreadPool::new(Parallelism::fixed(2));
        let staged = StagePass::new(0.5).run(&blocks, &pool, &mut ctx);
        let (_, instructions) = broken_first
            .run(&staged, &arch, true, true, &pool, &mut ctx)
            .expect("the surviving greedy candidate wins");
        assert!(!instructions.is_empty());
        assert_eq!(ctx.selected_strategy(), Some("greedy"));

        // Every candidate failing surfaces the first error in order.
        let all_broken = AutoRouter {
            candidates: vec![(RoutingStrategyKind::Greedy, Arc::new(AlwaysFails))],
            routes: vec![vec![0]],
        };
        let result = all_broken.run(
            &staged,
            &arch,
            true,
            true,
            &pool,
            &mut CompileContext::new(),
        );
        assert!(matches!(result, Err(CompileError::NoFreeSite { .. })));
    }

    #[test]
    fn an_auto_compile_plans_the_greedy_route_once_per_stage() {
        use crate::routing::{RoutingState, StageRouting};
        use crate::{MoveScratch, Stage};
        use std::sync::atomic::{AtomicUsize, Ordering};

        // Counts the stage plans of the strategy it wraps.
        struct Counting(Arc<dyn RoutingStrategy>, Arc<AtomicUsize>);
        impl RoutingStrategy for Counting {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn route_stage(
                &self,
                state: &mut RoutingState,
                stage: &Stage,
                upcoming: &[Stage],
            ) -> Result<StageRouting, CompileError> {
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.route_stage(state, stage, upcoming)
            }
            fn schedule_moves(
                &self,
                routing: &StageRouting,
                arch: &Architecture,
                use_grouping: bool,
                scratch: &mut MoveScratch,
                out: &mut Vec<Instruction>,
            ) {
                self.0
                    .schedule_moves(routing, arch, use_grouping, scratch, out);
            }
        }

        let arch = Architecture::for_qubits(12).with_num_aods(3);
        let pool = ThreadPool::new(Parallelism::fixed(2));
        let run = |auto: &AutoRouter| {
            let mut ctx = CompileContext::new();
            let blocks = SynthesisPass.run(&ring_circuit(12), &mut ctx);
            let staged = StagePass::new(0.5).run(&blocks, &pool, &mut ctx);
            let (_, instructions) = auto
                .run(&staged, &arch, true, true, &pool, &mut ctx)
                .unwrap();
            let stages = staged.num_stages();
            (
                instructions,
                ctx.finish("powermove", true, stages, 3),
                stages,
            )
        };
        // The greedy and the multi-AOD planner count into one counter.
        let plans = Arc::new(AtomicUsize::new(0));
        let mut counted = AutoRouter::from_config(&RoutingConfig::auto());
        for index in [0, 2] {
            let inner = counted.candidates[index].1.clone();
            counted.candidates[index].1 = Arc::new(Counting(inner, plans.clone()));
        }
        let (instructions, metadata, stages) = run(&counted);
        assert!(stages >= 2);
        assert_eq!(plans.load(Ordering::Relaxed), stages, "one greedy route");

        let (expected, reference, _) = run(&AutoRouter::from_config(&RoutingConfig::auto()));
        assert_eq!(instructions, expected);
        assert_eq!(metadata.selected_strategy, reference.selected_strategy);
        assert_eq!(metadata.counter(AutoRouter::PORTFOLIO_COUNTER), Some(3));
        assert_eq!(metadata.counters, reference.counters);
    }

    #[test]
    fn empty_programs_select_greedy_by_tie_break() {
        let arch = Architecture::for_qubits(3);
        let auto = AutoRouter::from_config(&RoutingConfig::auto());
        let mut ctx = CompileContext::new();
        let blocks = SynthesisPass.run(&Circuit::new(3), &mut ctx);
        let pool = ThreadPool::new(Parallelism::fixed(2));
        let staged = StagePass::new(0.5).run(&blocks, &pool, &mut ctx);
        let (routed, instructions) = auto
            .run(&staged, &arch, true, true, &pool, &mut ctx)
            .unwrap();
        assert_eq!(routed.segments().len(), 0);
        assert!(instructions.is_empty());
        let metadata = ctx.finish("powermove", true, 0, 1);
        assert_eq!(metadata.selected_strategy.as_deref(), Some("greedy"));
    }
}
