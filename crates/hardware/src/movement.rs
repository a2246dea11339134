//! Qubit movement physics and AOD collective-movement constraints.
//!
//! Qubits are moved by transferring them from static SLM traps into a mobile
//! AOD lattice, translating the lattice, and dropping them back into SLM
//! traps (Sec. 2.1). All moves executed by one AOD in a single collective
//! move must preserve the relative order of rows and columns: the lattice can
//! stretch and contract but rows/columns cannot cross or merge (Fig. 2(c) and
//! Fig. 5 of the paper).

use crate::{HardwareError, Point};
use powermove_circuit::Qubit;
use serde::Serialize;
use std::cmp::Ordering;
use std::fmt;

/// Identifier of an AOD array.
///
/// NAQC hardware may drive several independently-operating AOD arrays;
/// conflicting moves can be executed in parallel if they are assigned to
/// different arrays (Sec. 6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Default)]
pub struct AodId(usize);

impl AodId {
    /// Creates an AOD identifier.
    #[must_use]
    pub const fn new(index: usize) -> Self {
        AodId(index)
    }

    /// The dense index of the AOD array.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for AodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "aod{}", self.0)
    }
}

/// Duration of an AOD translation over `distance` meters at the maximum
/// allowed acceleration, in seconds.
///
/// The time model `t = sqrt(d / a_max)` reproduces the examples quoted in
/// Table 1 of the paper: 100 µs for 27.5 µm and 200 µs for 110 µm at
/// `a_max = 2750 m/s²`.
///
/// # Example
///
/// ```
/// use powermove_hardware::move_duration;
///
/// let t = move_duration(27.5e-6, 2750.0);
/// assert!((t - 100e-6).abs() < 1e-9);
/// ```
#[must_use]
pub fn move_duration(distance: f64, max_acceleration: f64) -> f64 {
    if distance <= 0.0 {
        return 0.0;
    }
    (distance / max_acceleration).sqrt()
}

/// A single-qubit movement between two physical positions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrapMove {
    /// The qubit being moved.
    pub qubit: Qubit,
    /// Start position.
    pub from: Point,
    /// End position.
    pub to: Point,
}

impl TrapMove {
    /// Creates a movement of `qubit` from `from` to `to`.
    #[must_use]
    pub const fn new(qubit: Qubit, from: Point, to: Point) -> Self {
        TrapMove { qubit, from, to }
    }

    /// Euclidean length of the movement, in meters.
    #[must_use]
    pub fn distance(&self) -> f64 {
        self.from.distance(self.to)
    }

    /// Duration of the movement at the given maximum acceleration.
    #[must_use]
    pub fn duration(&self, max_acceleration: f64) -> f64 {
        move_duration(self.distance(), max_acceleration)
    }

    /// Returns `true` if this move and `other` cannot be executed within the
    /// same AOD collective move.
    ///
    /// Following the conflict definition of Sec. 5.3 of the paper, two moves
    /// conflict on a coordinate when their order *reverses*: `x1_start <=
    /// x2_start` but `x1_end > x2_end`, or `x1_start >= x2_start` but
    /// `x1_end < x2_end` (and likewise for `y`). Moves whose coordinates
    /// become equal at the destination do not conflict — two qubits brought
    /// to the same interaction site are dropped into static traps a few
    /// micrometres apart, so their AOD rows/columns never coincide.
    #[must_use]
    pub fn conflicts_with(&self, other: &TrapMove) -> bool {
        fn reversed(s1: f64, s2: f64, e1: f64, e2: f64) -> bool {
            (matches!(s1.partial_cmp(&s2), Some(Ordering::Less | Ordering::Equal)) && e1 > e2)
                || (matches!(
                    s1.partial_cmp(&s2),
                    Some(Ordering::Greater | Ordering::Equal)
                ) && e1 < e2)
        }
        let x_conflict = reversed(self.from.x, other.from.x, self.to.x, other.to.x);
        let y_conflict = reversed(self.from.y, other.from.y, self.to.y, other.to.y);
        x_conflict || y_conflict
    }
}

impl fmt::Display for TrapMove {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} -> {}", self.qubit, self.from, self.to)
    }
}

/// A batch of single-qubit movements owned by one AOD array.
///
/// Batches are the unit the multi-AOD scheduler partitions a stage's
/// [`TrapMove`] set into: every batch is internally conflict-free (the AOD
/// order constraint), and batches assigned to *distinct* AODs may execute in
/// the same parallel window even when their moves would conflict within a
/// single lattice (Sec. 6.2).
#[derive(Debug, Clone, PartialEq)]
pub struct AodBatch {
    /// The AOD array that executes this batch.
    pub aod: AodId,
    /// The constituent single-qubit movements.
    pub moves: Vec<TrapMove>,
}

impl AodBatch {
    /// Creates a batch owned by `aod`.
    #[must_use]
    pub fn new(aod: AodId, moves: Vec<TrapMove>) -> Self {
        AodBatch { aod, moves }
    }

    /// Number of qubits moved by this batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// Returns `true` if the batch moves no qubit.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// The longest single movement distance of the batch, in meters, which
    /// determines its translation duration.
    #[must_use]
    pub fn max_distance(&self) -> f64 {
        self.moves
            .iter()
            .map(TrapMove::distance)
            .fold(0.0, f64::max)
    }

    /// Checks the batch against the AOD order constraint.
    ///
    /// # Errors
    ///
    /// Same as [`validate_collective_move`].
    pub fn validate(&self) -> Result<(), HardwareError> {
        validate_collective_move(&self.moves)
    }
}

/// Checks that a set of per-AOD batches can execute in one parallel window:
/// every batch must be internally conflict-free, no AOD array may own two
/// batches (an AOD cannot run two collective moves at once — that is an
/// intra-AOD overlap), and no qubit may be moved by two batches (an atom
/// cannot ride two AOD arrays at once).
///
/// Batches are checked in order; for batch `i` the AOD assignment is
/// checked first, then the batch itself, then its qubits against the later
/// batches.
///
/// # Errors
///
/// Returns [`HardwareError::DuplicateAodAssignment`] on an AOD owning two
/// batches, the first per-batch error from [`validate_collective_move`], or
/// [`HardwareError::DuplicateMovedQubit`] on a qubit moved by two batches.
pub fn validate_aod_batches(batches: &[AodBatch]) -> Result<(), HardwareError> {
    for (i, batch) in batches.iter().enumerate() {
        let later = &batches[i + 1..];
        if later.iter().any(|b| b.aod == batch.aod) {
            return Err(HardwareError::DuplicateAodAssignment { aod: batch.aod });
        }
        batch.validate()?;
        for m in &batch.moves {
            if later
                .iter()
                .flat_map(|b| &b.moves)
                .any(|o| o.qubit == m.qubit)
            {
                return Err(HardwareError::DuplicateMovedQubit { qubit: m.qubit });
            }
        }
    }
    Ok(())
}

/// Checks that a set of single-qubit moves can be executed as one AOD
/// collective move.
///
/// # Errors
///
/// Returns [`HardwareError::ConflictingMoves`] identifying the first pair of
/// conflicting moves, or [`HardwareError::DuplicateMovedQubit`] if the same
/// qubit appears twice.
pub fn validate_collective_move(moves: &[TrapMove]) -> Result<(), HardwareError> {
    for (i, a) in moves.iter().enumerate() {
        for b in &moves[i + 1..] {
            if a.qubit == b.qubit {
                return Err(HardwareError::DuplicateMovedQubit { qubit: a.qubit });
            }
            if a.conflicts_with(b) {
                return Err(HardwareError::ConflictingMoves {
                    first: a.qubit,
                    second: b.qubit,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mv(q: u32, fx: f64, fy: f64, tx: f64, ty: f64) -> TrapMove {
        TrapMove::new(
            Qubit::new(q),
            Point::from_um(fx, fy),
            Point::from_um(tx, ty),
        )
    }

    #[test]
    fn duration_matches_paper_examples() {
        assert!((move_duration(27.5e-6, 2750.0) - 100e-6).abs() < 1e-9);
        assert!((move_duration(110e-6, 2750.0) - 200e-6).abs() < 1e-9);
        assert_eq!(move_duration(0.0, 2750.0), 0.0);
    }

    #[test]
    fn distance_and_duration_of_move() {
        let m = mv(0, 0.0, 0.0, 30.0, 40.0);
        assert!((m.distance() - 50e-6).abs() < 1e-12);
        assert!(m.duration(2750.0) > 0.0);
    }

    #[test]
    fn order_preserving_moves_do_not_conflict() {
        // Both move right by the same offset: order preserved.
        let a = mv(0, 0.0, 0.0, 15.0, 0.0);
        let b = mv(1, 30.0, 0.0, 45.0, 0.0);
        assert!(!a.conflicts_with(&b));
        // Stretch: distances change but order preserved.
        let c = mv(2, 30.0, 0.0, 60.0, 0.0);
        assert!(!a.conflicts_with(&c));
    }

    #[test]
    fn crossing_moves_conflict() {
        // a starts left of b but ends right of b: x-order crossing.
        let a = mv(0, 0.0, 0.0, 45.0, 0.0);
        let b = mv(1, 30.0, 0.0, 15.0, 0.0);
        assert!(a.conflicts_with(&b));
        assert!(b.conflicts_with(&a));
    }

    #[test]
    fn converging_on_one_interaction_site_is_allowed() {
        // Start at different x, end at the same x: the qubits are dropped
        // into separate static traps at the shared site, so their columns
        // never coincide and the moves may share a collective move.
        let a = mv(0, 0.0, 0.0, 15.0, 15.0);
        let b = mv(1, 30.0, 15.0, 15.0, 30.0);
        assert!(!a.conflicts_with(&b));
    }

    #[test]
    fn splitting_a_column_conflicts() {
        // Start at the same x, end at different x (Fig. 5, first case).
        let a = mv(0, 15.0, 0.0, 0.0, 0.0);
        let b = mv(1, 15.0, 15.0, 30.0, 15.0);
        assert!(a.conflicts_with(&b));
    }

    #[test]
    fn y_axis_conflicts_detected() {
        let a = mv(0, 0.0, 0.0, 0.0, 30.0);
        let b = mv(1, 15.0, 15.0, 15.0, 0.0);
        assert!(a.conflicts_with(&b));
    }

    #[test]
    fn tandem_column_moves_are_compatible() {
        // Same column moving down together; row order (b above a) preserved.
        let a = mv(0, 15.0, 0.0, 15.0, -30.0);
        let b = mv(1, 15.0, 15.0, 15.0, -15.0);
        assert!(!a.conflicts_with(&b));
    }

    #[test]
    fn row_stretch_that_reorders_conflicts() {
        // Same column, but the upper qubit overtakes the lower one.
        let a = mv(0, 15.0, 0.0, 15.0, -30.0);
        let b = mv(1, 15.0, 15.0, 15.0, -45.0);
        assert!(a.conflicts_with(&b));
    }

    #[test]
    fn validate_collective_move_accepts_compatible_set() {
        // One AOD row moving down into storage in tandem.
        let moves = vec![
            mv(0, 0.0, 0.0, 0.0, -30.0),
            mv(1, 15.0, 0.0, 15.0, -30.0),
            mv(2, 30.0, 0.0, 30.0, -30.0),
        ];
        assert!(validate_collective_move(&moves).is_ok());
    }

    #[test]
    fn validate_collective_move_rejects_conflict() {
        let moves = vec![mv(0, 0.0, 0.0, 45.0, 0.0), mv(1, 30.0, 0.0, 15.0, 0.0)];
        let err = validate_collective_move(&moves).unwrap_err();
        assert!(matches!(err, HardwareError::ConflictingMoves { .. }));
    }

    #[test]
    fn validate_collective_move_rejects_duplicate_qubit() {
        let moves = vec![mv(0, 0.0, 0.0, 15.0, 0.0), mv(0, 30.0, 0.0, 45.0, 0.0)];
        let err = validate_collective_move(&moves).unwrap_err();
        assert!(matches!(err, HardwareError::DuplicateMovedQubit { .. }));
    }

    #[test]
    fn aod_id_round_trip() {
        let a = AodId::new(2);
        assert_eq!(a.index(), 2);
        assert_eq!(a.to_string(), "aod2");
    }

    #[test]
    fn aod_batches_on_distinct_arrays_may_conflict() {
        // Crossing moves conflict within one lattice but are fine when
        // partitioned onto two independent AODs.
        let crossing_a = mv(0, 0.0, 0.0, 45.0, 0.0);
        let crossing_b = mv(1, 30.0, 0.0, 15.0, 0.0);
        assert!(crossing_a.conflicts_with(&crossing_b));
        let batches = vec![
            AodBatch::new(AodId::new(0), vec![crossing_a]),
            AodBatch::new(AodId::new(1), vec![crossing_b]),
        ];
        assert!(validate_aod_batches(&batches).is_ok());
    }

    #[test]
    fn duplicate_aod_assignment_is_rejected() {
        let batches = vec![
            AodBatch::new(AodId::new(0), vec![mv(0, 0.0, 0.0, 15.0, 0.0)]),
            AodBatch::new(AodId::new(0), vec![mv(1, 30.0, 0.0, 45.0, 0.0)]),
        ];
        let err = validate_aod_batches(&batches).unwrap_err();
        assert!(matches!(err, HardwareError::DuplicateAodAssignment { .. }));
    }

    #[test]
    fn qubit_moved_by_two_batches_is_rejected() {
        // Compatible moves on distinct AODs, but both carry qubit 0.
        let batches = vec![
            AodBatch::new(AodId::new(0), vec![mv(0, 0.0, 0.0, 0.0, -30.0)]),
            AodBatch::new(
                AodId::new(1),
                vec![mv(1, 15.0, 0.0, 15.0, -30.0), mv(0, 0.0, 0.0, 15.0, -30.0)],
            ),
        ];
        let err = validate_aod_batches(&batches).unwrap_err();
        assert_eq!(
            err,
            HardwareError::DuplicateMovedQubit {
                qubit: Qubit::new(0)
            }
        );
    }

    #[test]
    fn batch_internal_conflicts_are_rejected() {
        let batches = vec![AodBatch::new(
            AodId::new(0),
            vec![mv(0, 0.0, 0.0, 45.0, 0.0), mv(1, 30.0, 0.0, 15.0, 0.0)],
        )];
        assert!(validate_aod_batches(&batches).is_err());
    }

    #[test]
    fn batch_reports_size_and_longest_move() {
        let batch = AodBatch::new(
            AodId::new(1),
            vec![mv(0, 0.0, 0.0, 30.0, 0.0), mv(1, 0.0, 15.0, 15.0, 15.0)],
        );
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        assert!((batch.max_distance() - 30e-6).abs() < 1e-12);
        assert!(AodBatch::new(AodId::new(0), vec![]).is_empty());
    }
}
