//! Time-stamped view of a compiled program.
//!
//! The [`Timeline`] expands a [`CompiledProgram`] into absolute-time events,
//! which is what one would hand to a control-system backend or a schedule
//! visualizer, and provides aggregate occupancy statistics (how much of the
//! wall-clock time is spent moving, exciting, or executing 1Q layers).

use crate::{instruction_duration, CompiledProgram, Instruction};
use powermove_hardware::AodId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The kind of a timeline event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A layer of parallel single-qubit gates.
    OneQubitLayer,
    /// A group of collective qubit movements (including the trap transfers).
    Movement,
    /// A global Rydberg excitation executing one CZ stage.
    RydbergStage,
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::OneQubitLayer => write!(f, "1q-layer"),
            EventKind::Movement => write!(f, "movement"),
            EventKind::RydbergStage => write!(f, "rydberg"),
        }
    }
}

/// One event of the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimelineEvent {
    /// Index of the originating instruction in the program.
    pub instruction_index: usize,
    /// Event kind.
    pub kind: EventKind,
    /// Absolute start time in seconds.
    pub start: f64,
    /// Duration in seconds.
    pub duration: f64,
    /// Number of qubits actively involved (gated or moved).
    pub active_qubits: usize,
}

impl TimelineEvent {
    /// Absolute end time in seconds.
    #[must_use]
    pub fn end(&self) -> f64 {
        self.start + self.duration
    }
}

/// The busy window of one AOD array within one move-group instruction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AodWindow {
    /// Index of the originating move-group instruction.
    pub instruction_index: usize,
    /// The AOD array executing the collective move.
    pub aod: AodId,
    /// Absolute start time in seconds (shared by every AOD of the group).
    pub start: f64,
    /// Busy duration: two trap transfers plus this AOD's own translation.
    pub duration: f64,
}

impl AodWindow {
    /// Absolute end time in seconds.
    #[must_use]
    pub fn end(&self) -> f64 {
        self.start + self.duration
    }

    /// Whether this window overlaps `other` in time.
    #[must_use]
    pub fn overlaps(&self, other: &AodWindow) -> bool {
        self.start < other.end() && other.start < self.end()
    }
}

/// The absolute-time expansion of a compiled program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    events: Vec<TimelineEvent>,
    total_duration: f64,
}

impl Timeline {
    /// Builds the timeline of a program by laying its instructions out
    /// back-to-back (the hardware executes them sequentially: a global
    /// Rydberg pulse, a collective move and a Raman layer cannot overlap).
    #[must_use]
    pub fn of(program: &CompiledProgram) -> Self {
        let arch = program.architecture();
        let mut events = Vec::with_capacity(program.num_instructions());
        let mut clock = 0.0;
        for (index, instruction) in program.instructions().iter().enumerate() {
            let duration = instruction_duration(instruction, arch);
            let kind = match instruction {
                Instruction::OneQubitLayer { .. } => EventKind::OneQubitLayer,
                Instruction::MoveGroup { .. } => EventKind::Movement,
                Instruction::RydbergStage { .. } => EventKind::RydbergStage,
            };
            events.push(TimelineEvent {
                instruction_index: index,
                kind,
                start: clock,
                duration,
                active_qubits: instruction.active_qubit_count(),
            });
            clock += duration;
        }
        Timeline {
            events,
            total_duration: clock,
        }
    }

    /// The events in execution order.
    #[must_use]
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events
    }

    /// Total duration in seconds (equals the program's `T_exe`).
    #[must_use]
    pub fn total_duration(&self) -> f64 {
        self.total_duration
    }

    /// Total time spent in events of the given kind, in seconds.
    #[must_use]
    pub fn time_in(&self, kind: EventKind) -> f64 {
        self.events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.duration)
            .sum()
    }

    /// Fraction of the total duration spent in events of the given kind.
    ///
    /// Returns 0 for an empty timeline.
    #[must_use]
    pub fn fraction_in(&self, kind: EventKind) -> f64 {
        if self.total_duration <= 0.0 {
            0.0
        } else {
            self.time_in(kind) / self.total_duration
        }
    }

    /// Expands every movement event of `program` into per-AOD busy windows.
    ///
    /// Collective moves of one move group share the group's start time —
    /// their windows *overlap*, which is exactly the multi-AOD parallelism
    /// the scheduler exploits — but each window lasts only two transfers
    /// plus that AOD's own translation, so an AOD driving a short move goes
    /// idle before the group's slowest member finishes. Windows of the same
    /// AOD never overlap: groups execute sequentially and the validator
    /// rejects a doubly-booked AOD within one group
    /// ([`crate::ScheduleError::IntraAodOverlap`]).
    ///
    /// The timeline must have been built from the same program.
    #[must_use]
    pub fn aod_windows(&self, program: &CompiledProgram) -> Vec<AodWindow> {
        let arch = program.architecture();
        let mut windows = Vec::new();
        for event in &self.events {
            let Some(Instruction::MoveGroup { coll_moves }) =
                program.instructions().get(event.instruction_index)
            else {
                continue;
            };
            for cm in coll_moves {
                if cm.is_empty() {
                    continue;
                }
                windows.push(AodWindow {
                    instruction_index: event.instruction_index,
                    aod: cm.aod,
                    start: event.start,
                    duration: 2.0 * arch.params().transfer_duration + cm.move_duration(arch),
                });
            }
        }
        windows
    }

    /// Renders a compact text summary, one line per event, with times in
    /// microseconds. Useful for debugging schedules.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for event in &self.events {
            let _ = writeln!(
                out,
                "[{:>10.2} us + {:>8.2} us] {:<9} ({} qubits)",
                event.start * 1e6,
                event.duration * 1e6,
                event.kind.to_string(),
                event.active_qubits
            );
        }
        let _ = writeln!(out, "total: {:.2} us", self.total_duration * 1e6);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CollMove, Layout, SiteMove};
    use powermove_circuit::{CzGate, OneQubitGate, Qubit};
    use powermove_hardware::{AodId, Architecture, Zone};

    fn q(i: u32) -> Qubit {
        Qubit::new(i)
    }

    fn sample_program() -> CompiledProgram {
        let arch = Architecture::for_qubits(4);
        let layout = Layout::row_major(&arch, 4, Zone::Compute).unwrap();
        let g = arch.grid().clone();
        let s = |c, r| g.site(Zone::Compute, c, r).unwrap();
        CompiledProgram::new(
            arch,
            4,
            layout,
            vec![
                Instruction::one_qubit_layer(vec![(q(0), OneQubitGate::H)]),
                Instruction::move_group(vec![CollMove::new(
                    AodId::new(0),
                    vec![SiteMove::new(q(1), s(1, 0), s(0, 0))],
                )]),
                Instruction::rydberg(vec![CzGate::new(q(0), q(1))]),
            ],
        )
    }

    #[test]
    fn timeline_is_contiguous_and_ordered() {
        let timeline = Timeline::of(&sample_program());
        assert_eq!(timeline.events().len(), 3);
        let mut clock = 0.0;
        for event in timeline.events() {
            assert!((event.start - clock).abs() < 1e-12);
            clock = event.end();
        }
        assert!((timeline.total_duration() - clock).abs() < 1e-12);
    }

    #[test]
    fn total_duration_matches_simulated_time() {
        let program = sample_program();
        let timeline = Timeline::of(&program);
        let trace = crate::simulate(&program).unwrap();
        assert!((timeline.total_duration() - trace.total_time).abs() < 1e-12);
    }

    #[test]
    fn kind_breakdown_sums_to_total() {
        let timeline = Timeline::of(&sample_program());
        let sum = timeline.time_in(EventKind::OneQubitLayer)
            + timeline.time_in(EventKind::Movement)
            + timeline.time_in(EventKind::RydbergStage);
        assert!((sum - timeline.total_duration()).abs() < 1e-12);
        let fractions = timeline.fraction_in(EventKind::Movement);
        assert!(fractions > 0.9, "movement dominates this schedule");
    }

    #[test]
    fn empty_program_has_empty_timeline() {
        let arch = Architecture::for_qubits(2);
        let layout = Layout::row_major(&arch, 2, Zone::Compute).unwrap();
        let program = CompiledProgram::new(arch, 2, layout, vec![]);
        let timeline = Timeline::of(&program);
        assert!(timeline.events().is_empty());
        assert_eq!(timeline.total_duration(), 0.0);
        assert_eq!(timeline.fraction_in(EventKind::Movement), 0.0);
    }

    #[test]
    fn aod_windows_overlap_across_arrays_but_never_within_one() {
        let arch = Architecture::for_qubits(9).with_num_aods(2);
        let layout = Layout::row_major(&arch, 6, Zone::Compute).unwrap();
        let g = arch.grid().clone();
        let s = |c, r| g.site(Zone::Compute, c, r).unwrap();
        let program = CompiledProgram::new(
            arch,
            6,
            layout,
            vec![
                Instruction::move_group(vec![
                    CollMove::new(AodId::new(0), vec![SiteMove::new(q(2), s(2, 0), s(2, 2))]),
                    CollMove::new(AodId::new(1), vec![SiteMove::new(q(3), s(0, 1), s(0, 2))]),
                ]),
                Instruction::move_group(vec![CollMove::new(
                    AodId::new(0),
                    vec![SiteMove::new(q(2), s(2, 2), s(2, 1))],
                )]),
            ],
        );
        let timeline = Timeline::of(&program);
        let windows = timeline.aod_windows(&program);
        assert_eq!(windows.len(), 3);
        // The two windows of the first group share a start and overlap.
        assert_eq!(windows[0].start, windows[1].start);
        assert!(windows[0].overlaps(&windows[1]));
        assert_ne!(windows[0].aod, windows[1].aod);
        // The longer translation outlives the shorter one's window.
        assert!(windows[0].duration > windows[1].duration);
        // Same-AOD windows (groups 1 and 2 on aod0) never overlap.
        assert!(!windows[0].overlaps(&windows[2]));
        assert!(windows[2].start >= windows[0].end());
        // Every window ends within its group's event.
        let events = timeline.events();
        assert!(windows
            .iter()
            .all(|w| w.end() <= events[w.instruction_index].end() + 1e-12));
    }

    #[test]
    fn render_lists_every_event() {
        let timeline = Timeline::of(&sample_program());
        let text = timeline.render();
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("rydberg"));
        assert!(text.contains("total:"));
    }
}
