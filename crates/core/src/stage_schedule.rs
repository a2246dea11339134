//! Stage scheduling: ordering the stages of a block to minimize inter-zone
//! qubit interchange (Sec. 4.2 of the paper).

use crate::Stage;
use powermove_circuit::CzGate;
use std::cmp::Ordering;

/// Orders the stages of one commuting CZ block.
///
/// The first stage is the one with the fewest interacting qubits, so that as
/// many qubits as possible stay in the storage zone at the start. Each
/// subsequent stage is chosen greedily to minimize
///
/// ```text
/// |Q_i \ Q_{i+1}|  +  α · |Q_{i+1} \ Q_i|
/// ```
///
/// where `Q_i` is the interacting-qubit set of the current stage and
/// `Q_{i+1}` that of the candidate. The weight `α < 1` prefers moving qubits
/// *into* storage (they stop interacting) over pulling qubits *out of*
/// storage, because stored qubits suffer negligible decoherence.
///
/// Ties are broken by the original stage index, making the schedule
/// deterministic.
///
/// Each `Q_i` is held as a bitset of `⌈n/64⌉` words, `n` one past the highest
/// qubit index, so scheduling `S` stages runs in `O(S²·⌈n/64⌉)`.
#[must_use]
pub fn schedule_stages(stages: Vec<Stage>, alpha: f64) -> Vec<Stage> {
    if stages.len() <= 1 {
        return stages;
    }

    let words = stages
        .iter()
        .flat_map(Stage::gates)
        .map(|g| g.hi().as_usize() / 64 + 1)
        .max()
        .unwrap_or(0);
    let mut bits = vec![0_u64; stages.len() * words];
    for (i, stage) in stages.iter().enumerate() {
        for q in stage.gates().iter().flat_map(CzGate::qubits) {
            bits[i * words + q.as_usize() / 64] |= 1 << (q.as_usize() % 64);
        }
    }
    let set = |i: usize| &bits[i * words..(i + 1) * words];
    let sizes: Vec<u32> = (0..stages.len())
        .map(|i| set(i).iter().map(|w| w.count_ones()).sum())
        .collect();

    let mut remaining: Vec<usize> = (0..stages.len()).collect();
    // First stage: fewest interacting qubits.
    let first_pos = remaining
        .iter()
        .enumerate()
        .min_by_key(|&(_, &idx)| (sizes[idx], idx))
        .map(|(pos, _)| pos)
        .expect("at least one stage");
    let mut order = vec![remaining.swap_remove(first_pos)];

    while !remaining.is_empty() {
        let current = *order.last().expect("order is non-empty");
        let cost = |idx: usize| {
            transition_cost(set(current), set(idx), [sizes[current], sizes[idx]], alpha)
        };
        // `Iterator::min_by` over (cost, stage index), costing each once.
        let mut best = (0, cost(remaining[0]));
        for (pos, &idx) in remaining.iter().enumerate().skip(1) {
            let c = cost(idx);
            let by_cost = best.1.partial_cmp(&c).unwrap_or(Ordering::Equal);
            if by_cost.then(remaining[best.0].cmp(&idx)) == Ordering::Greater {
                best = (pos, c);
            }
        }
        order.push(remaining.swap_remove(best.0));
    }

    let mut slots: Vec<Option<Stage>> = stages.into_iter().map(Some).collect();
    order
        .into_iter()
        .map(|idx| slots[idx].take().expect("every stage is scheduled once"))
        .collect()
}

/// The cost `|from \ to| + α·|to \ from|` of a transition between two stage
/// bitsets of the given `sizes`: each difference is a size less the shared
/// count, the same integers as `popcount(from & !to)` and `popcount(to & !from)`.
fn transition_cost(from: &[u64], to: &[u64], sizes: [u32; 2], alpha: f64) -> f64 {
    let shared: u32 = from.iter().zip(to).map(|(f, t)| (f & t).count_ones()).sum();
    f64::from(sizes[0] - shared) + alpha * f64::from(sizes[1] - shared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermove_circuit::Qubit;

    fn q(i: u32) -> Qubit {
        Qubit::new(i)
    }

    fn stage(edges: &[(u32, u32)]) -> Stage {
        Stage::new(
            edges
                .iter()
                .map(|&(a, b)| CzGate::new(q(a), q(b)))
                .collect(),
        )
    }

    #[test]
    fn smallest_stage_goes_first() {
        let stages = vec![
            stage(&[(0, 1), (2, 3), (4, 5)]),
            stage(&[(6, 7)]),
            stage(&[(0, 2), (1, 3)]),
        ];
        let ordered = schedule_stages(stages, 0.5);
        assert_eq!(ordered[0].len(), 1);
    }

    #[test]
    fn similar_stages_are_adjacent() {
        // Stage A and C share all qubits; stage B is disjoint from both. The
        // greedy schedule keeps A and C adjacent.
        let a = stage(&[(0, 1), (2, 3)]);
        let b = stage(&[(4, 5), (6, 7)]);
        let c = stage(&[(0, 2), (1, 3)]);
        let ordered = schedule_stages(vec![a.clone(), b.clone(), c.clone()], 0.5);
        let pos = |s: &Stage| ordered.iter().position(|x| x == s).unwrap();
        assert_eq!((pos(&a) as i64 - pos(&c) as i64).abs(), 1);
    }

    #[test]
    fn preserves_all_stages() {
        let stages = vec![
            stage(&[(0, 1)]),
            stage(&[(1, 2)]),
            stage(&[(2, 3)]),
            stage(&[(3, 4)]),
        ];
        let ordered = schedule_stages(stages.clone(), 0.3);
        assert_eq!(ordered.len(), stages.len());
        for s in &stages {
            assert!(ordered.contains(s));
        }
    }

    #[test]
    fn single_and_empty_inputs_pass_through() {
        assert!(schedule_stages(vec![], 0.5).is_empty());
        let one = vec![stage(&[(0, 1)])];
        assert_eq!(schedule_stages(one.clone(), 0.5), one);
    }

    #[test]
    fn alpha_prefers_shrinking_transitions() {
        // From {0,1,2,3}: candidate X = {0,1} (2 leave, 0 enter, cost 2),
        // candidate Y = {0,1,2,3,4,5} (0 leave, 2 enter, cost 2α). With
        // α < 1, Y is preferred right after the current stage... but the
        // schedule starts from the smallest stage, so check the metric
        // directly instead.
        let bitset = |qubits: &[u32]| [qubits.iter().fold(0_u64, |w, &q| w | 1 << q)];
        let from = bitset(&[0, 1, 2, 3]);
        let x = bitset(&[0, 1]);
        let y = bitset(&[0, 1, 2, 3, 4, 5]);
        let cost =
            |to: &[u64; 1], alpha| transition_cost(&from, to, [4, to[0].count_ones()], alpha);
        assert!(cost(&y, 0.5) < cost(&x, 0.5));
        assert!(cost(&x, 1.5) < cost(&y, 1.5));
    }
}
