//! Revert-to-initial-layout routing (the movement scheme of Enola).
//!
//! For every Rydberg stage, one qubit of each CZ pair is moved to its
//! partner's site in the fixed initial layout; after the excitation every
//! moved qubit is returned to its own initial site, spatially separating the
//! qubits so the next stage cannot cluster (Sec. 3.1 and Fig. 3 of the
//! PowerMove paper). All qubits live in the computation zone.

use powermove_circuit::{CzGate, Qubit};
use powermove_hardware::{Architecture, SiteId};
use powermove_schedule::{Layout, SiteMove};

/// The revert-based router of the Enola baseline.
#[derive(Debug, Clone)]
pub struct RevertRouter {
    arch: Architecture,
    initial: Layout,
}

impl RevertRouter {
    /// Creates a router over the fixed initial layout.
    #[must_use]
    pub fn new(arch: Architecture, initial: Layout) -> Self {
        RevertRouter { arch, initial }
    }

    /// The fixed initial layout.
    #[must_use]
    pub fn initial_layout(&self) -> &Layout {
        &self.initial
    }

    /// The target architecture.
    #[must_use]
    pub fn architecture(&self) -> &Architecture {
        &self.arch
    }

    /// The site a qubit occupies in the initial layout.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is not placed in the initial layout.
    #[must_use]
    fn home_site(&self, q: Qubit) -> SiteId {
        self.initial
            .site_of(q)
            .expect("every qubit is placed in the initial layout")
    }

    /// The forward moves of a stage: for each gate, the qubit of the pair
    /// with the longer distance-to-partner stays put and the other moves to
    /// its partner's home site.
    ///
    /// Because every qubit starts at its own home site and the stage's gates
    /// are qubit-disjoint, the forward moves never cluster qubits.
    #[must_use]
    pub fn forward_moves(&self, gates: &[CzGate]) -> Vec<SiteMove> {
        gates
            .iter()
            .map(|gate| {
                // Move the higher-indexed qubit onto the lower-indexed one's
                // home site (a fixed, deterministic convention).
                let mover = gate.hi();
                let target = self.home_site(gate.lo());
                SiteMove::new(mover, self.home_site(mover), target)
            })
            .collect()
    }

    /// The reverse moves that undo `forward`: every moved qubit returns to
    /// its home site.
    #[must_use]
    pub fn reverse_moves(&self, forward: &[SiteMove]) -> Vec<SiteMove> {
        forward
            .iter()
            .map(|m| SiteMove::new(m.qubit, m.to, m.from))
            .collect()
    }

    /// Groups moves into AOD-compatible collective moves using first-fit in
    /// the given order (Enola does not perform the distance-aware sorting of
    /// PowerMove's grouping).
    #[must_use]
    pub fn group_moves(&self, moves: &[SiteMove]) -> Vec<Vec<SiteMove>> {
        let mut groups: Vec<Vec<SiteMove>> = Vec::new();
        for m in moves {
            let tm = m.to_trap_move(&self.arch);
            let slot = groups.iter_mut().find(|group| {
                group
                    .iter()
                    .all(|other| !tm.conflicts_with(&other.to_trap_move(&self.arch)))
            });
            match slot {
                Some(group) => group.push(*m),
                None => groups.push(vec![*m]),
            }
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermove_hardware::Zone;

    fn q(i: u32) -> Qubit {
        Qubit::new(i)
    }

    fn router(n: u32) -> RevertRouter {
        let arch = Architecture::for_qubits(n);
        let layout = Layout::row_major(&arch, n, Zone::Compute).unwrap();
        RevertRouter::new(arch, layout)
    }

    #[test]
    fn forward_moves_one_qubit_per_gate() {
        let r = router(6);
        let gates = vec![CzGate::new(q(0), q(1)), CzGate::new(q(2), q(3))];
        let fwd = r.forward_moves(&gates);
        assert_eq!(fwd.len(), 2);
        assert_eq!(fwd[0].qubit, q(1));
        assert_eq!(fwd[0].to, r.home_site(q(0)));
        assert_eq!(fwd[1].qubit, q(3));
        assert_eq!(fwd[1].to, r.home_site(q(2)));
    }

    #[test]
    fn reverse_moves_undo_forward() {
        let r = router(6);
        let gates = vec![CzGate::new(q(0), q(5))];
        let fwd = r.forward_moves(&gates);
        let rev = r.reverse_moves(&fwd);
        assert_eq!(rev.len(), 1);
        assert_eq!(rev[0].qubit, q(5));
        assert_eq!(rev[0].from, fwd[0].to);
        assert_eq!(rev[0].to, r.home_site(q(5)));
    }

    #[test]
    fn grouping_is_conflict_free() {
        let r = router(9);
        let gates = vec![
            CzGate::new(q(0), q(8)),
            CzGate::new(q(1), q(7)),
            CzGate::new(q(2), q(6)),
        ];
        let fwd = r.forward_moves(&gates);
        let groups = r.group_moves(&fwd);
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, fwd.len());
        for group in &groups {
            for (i, a) in group.iter().enumerate() {
                for b in &group[i + 1..] {
                    assert!(!a
                        .to_trap_move(r.architecture())
                        .conflicts_with(&b.to_trap_move(r.architecture())));
                }
            }
        }
    }

    #[test]
    fn empty_stage_has_no_moves() {
        let r = router(4);
        assert!(r.forward_moves(&[]).is_empty());
        assert!(r.group_moves(&[]).is_empty());
    }
}
