//! The greedy routing strategy: the paper's continuous router, unchanged.

use crate::routing::RoutingStrategy;

/// The baseline routing strategy: the continuous router of Sec. 5 with the
/// dwell-time-ordered, chunked multi-AOD packing of Sec. 6.
///
/// This is the pre-refactor router verbatim — both [`RoutingStrategy`]
/// defaults: greedy stage planning (nearest free site, no lookahead) and
/// [`greedy_move_schedule`](crate::greedy_move_schedule) — so its output is
/// byte-identical to what the compiler emitted before routing became
/// pluggable (asserted by `tests/routing_strategies.rs` and the benchmark
/// gate's exact stage/transfer checks).
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyRouter;

impl RoutingStrategy for GreedyRouter {
    fn name(&self) -> &str {
        "greedy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{RoutingState, ZeroBias};
    use crate::Stage;
    use powermove_circuit::CzGate;
    use powermove_hardware::{Architecture, Zone};
    use powermove_schedule::Layout;

    #[test]
    fn greedy_strategy_matches_direct_state_routing() {
        let arch = Architecture::for_qubits(6);
        let layout = Layout::row_major(&arch, 6, Zone::Storage).unwrap();
        let stage = Stage::new(vec![
            CzGate::new(
                powermove_circuit::Qubit::new(0),
                powermove_circuit::Qubit::new(1),
            ),
            CzGate::new(
                powermove_circuit::Qubit::new(2),
                powermove_circuit::Qubit::new(3),
            ),
        ]);

        let mut via_strategy = RoutingState::new(arch.clone(), layout.clone(), true);
        let mut direct = RoutingState::new(arch, layout, true);
        let a = GreedyRouter
            .route_stage(&mut via_strategy, &stage, &[])
            .unwrap();
        let b = direct.route_stage_with(&stage, &ZeroBias).unwrap();
        assert_eq!(a, b);
        assert_eq!(GreedyRouter.name(), "greedy");
    }
}
