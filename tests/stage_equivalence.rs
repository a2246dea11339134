//! Seeded equivalence of the stage scheduler against reference copies of
//! its set-based formulation.
//!
//! `partition_stages` colours gates on their qubits and `schedule_stages`
//! scores transitions on bitsets. The references below are the direct
//! textbook forms — a greedy colouring of an explicit gate conflict graph
//! and a greedy stage order over `BTreeSet` differences — and both
//! implementations must return identical stages in identical order over a
//! ladder of block shapes and sizes and every tested α.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use powermove_suite::benchmarks::random_regular_graph;
use powermove_suite::circuit::{CzBlock, CzGate, Qubit};
use powermove_suite::powermove::{partition_stages, schedule_stages, Stage};

/// Qubit counts of the block ladder.
const QUBITS: &[u32] = &[16, 64, 256];

// Every rung must host a 4-regular graph and a clique on a quarter of its
// qubits, and stay small enough for the quadratic references in a debug
// build.
const _: () = {
    let mut i = 0;
    while i < QUBITS.len() {
        assert!(QUBITS[i] >= 16 && QUBITS[i] % 4 == 0 && QUBITS[i] <= 256);
        i += 1;
    }
};

const ALPHAS: [f64; 4] = [0.1, 0.5, 1.0, 1.5];
const SEEDS: u64 = 3;

fn block(edges: impl IntoIterator<Item = (u32, u32)>) -> CzBlock {
    edges
        .into_iter()
        .map(|(a, b)| CzGate::new(Qubit::new(a), Qubit::new(b)))
        .collect()
}

fn star(n: u32) -> CzBlock {
    block((1..n).map(|i| (0, i)))
}

fn ring(n: u32) -> CzBlock {
    block((0..n).map(|i| (i, (i + 1) % n)))
}

fn clique(n: u32) -> CzBlock {
    block((0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))))
}

/// `2n` random gates, then `n / 2` repeats of earlier gates (half of them
/// with their qubits swapped), so most blocks carry duplicate pairs.
fn random_with_duplicates(n: u32, seed: u64) -> CzBlock {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    while edges.len() < 2 * n as usize {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            edges.push((a, b));
        }
    }
    for k in 0..n / 2 {
        let (a, b) = edges[rng.gen_range(0..edges.len())];
        edges.push(if k % 2 == 0 { (a, b) } else { (b, a) });
    }
    block(edges)
}

fn ladder() -> Vec<(String, CzBlock)> {
    let mut blocks = vec![
        ("empty".to_string(), CzBlock::new()),
        ("one-gate".to_string(), block([(3, 7)])),
        (
            "one-pair-repeated".to_string(),
            block([(1, 2), (2, 1), (1, 2)]),
        ),
    ];
    for &n in QUBITS {
        blocks.push((format!("star-{n}"), star(n)));
        blocks.push((format!("ring-{n}"), ring(n)));
        blocks.push((format!("clique-{}", n / 4), clique(n / 4)));
        for seed in 0..SEEDS {
            for d in [3, 4] {
                let edges = random_regular_graph(n, d, seed);
                blocks.push((format!("{d}-regular-{n}/{seed}"), block(edges)));
            }
            let random = random_with_duplicates(n, seed);
            blocks.push((format!("random-{n}/{seed}"), random));
        }
    }
    blocks
}

/// Reference Algorithm 1: greedy colouring of the explicit gate conflict
/// graph in descending-degree order (stable, so ties keep block order).
fn reference_partition(block: &CzBlock) -> Vec<Stage> {
    let gates = block.gates();
    let mut by_qubit: BTreeMap<Qubit, Vec<usize>> = BTreeMap::new();
    for (i, g) in gates.iter().enumerate() {
        by_qubit.entry(g.lo()).or_default().push(i);
        by_qubit.entry(g.hi()).or_default().push(i);
    }
    let mut conflicts: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); gates.len()];
    for bucket in by_qubit.values() {
        for (k, &i) in bucket.iter().enumerate() {
            for &j in &bucket[k + 1..] {
                conflicts[i].insert(j);
                conflicts[j].insert(i);
            }
        }
    }

    let mut order: Vec<usize> = (0..gates.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(conflicts[i].len()));
    let mut color = vec![usize::MAX; gates.len()];
    let mut num_colors = 0;
    for &v in &order {
        let mut available = vec![true; num_colors + 1];
        for &u in &conflicts[v] {
            if color[u] != usize::MAX && color[u] < available.len() {
                available[color[u]] = false;
            }
        }
        let c = available.iter().position(|&a| a).expect("a free colour");
        color[v] = c;
        num_colors = num_colors.max(c + 1);
    }

    let mut stages: Vec<Vec<CzGate>> = vec![Vec::new(); num_colors];
    for (&g, &c) in gates.iter().zip(&color) {
        stages[c].push(g);
    }
    stages.into_iter().map(Stage::new).collect()
}

/// Reference Sec. 4.2 order: smallest stage first, then the greedy minimum
/// of `|Q_i \ Q_j| + α·|Q_j \ Q_i|`, ties broken by stage index.
fn reference_schedule(stages: Vec<Stage>, alpha: f64) -> Vec<Stage> {
    let sets: Vec<BTreeSet<Qubit>> = stages
        .iter()
        .map(|s| s.interacting_qubits().into_iter().collect())
        .collect();
    let cost = |from: usize, to: usize| {
        let leaving = sets[from].difference(&sets[to]).count() as f64;
        let entering = sets[to].difference(&sets[from]).count() as f64;
        leaving + alpha * entering
    };
    let mut remaining: BTreeSet<usize> = (0..stages.len()).collect();
    let mut order: Vec<usize> = Vec::new();
    while !remaining.is_empty() {
        let next = *match order.last() {
            None => remaining.iter().min_by_key(|&&i| (sets[i].len(), i)),
            Some(&current) => remaining.iter().min_by(|&&a, &&b| {
                cost(current, a)
                    .partial_cmp(&cost(current, b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            }),
        }
        .expect("remaining is non-empty");
        remaining.remove(&next);
        order.push(next);
    }
    order.into_iter().map(|i| stages[i].clone()).collect()
}

#[test]
fn partition_matches_the_conflict_graph_colouring() {
    for (name, block) in ladder() {
        let stages = partition_stages(&block);
        assert_eq!(stages, reference_partition(&block), "{name}");
        let total: usize = stages.iter().map(Stage::len).sum();
        assert_eq!(total, block.len(), "{name}");
    }
}

#[test]
fn schedule_matches_the_set_difference_order() {
    for (name, block) in ladder() {
        let stages = reference_partition(&block);
        for alpha in ALPHAS {
            assert_eq!(
                schedule_stages(stages.clone(), alpha),
                reference_schedule(stages.clone(), alpha),
                "{name}, alpha {alpha}"
            );
        }
    }
}

#[test]
fn ladder_reaches_the_stage_bound_shapes() {
    // Stars need exactly Δ = n − 1 stages; every block stays within 2·Δ − 1.
    for (name, block) in ladder() {
        let stages = partition_stages(&block).len();
        let max_degree = block.max_qubit_degree();
        if name.starts_with("star-") {
            assert_eq!(stages, max_degree, "{name}");
        }
        assert!(
            stages <= (2 * max_degree).saturating_sub(1),
            "{name}: {stages} stages"
        );
    }
}
