//! Regenerates Table 2 of the paper: the benchmark instances and the zone
//! dimensions of the hardware configuration derived from each qubit count,
//! plus the `bench-gate` group that gates each instance.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p powermove-bench --bin table2 [--json <path>]
//! ```

use powermove_bench::{take_json_path, write_json, ShardRegistry, DEFAULT_SEED, POWERMOVE_STORAGE};
use powermove_benchmarks::table2_suite;
use powermove_circuit::CircuitStats;
use powermove_hardware::Zone;
use serde::Serialize;

/// One serializable row of Table 2.
#[derive(Debug, Clone, Serialize)]
struct Table2Row {
    name: String,
    num_qubits: u32,
    cz_gates: usize,
    cz_blocks: usize,
    shard: String,
    compute_zone_um: (f64, f64),
    inter_zone_um: (f64, f64),
    storage_zone_um: (f64, f64),
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = take_json_path(&mut args);
    let suite = table2_suite(DEFAULT_SEED);
    let shards = ShardRegistry::standard(DEFAULT_SEED);
    println!(
        "{:<20} {:>8} {:>10} {:>9} {:<14} {:>18} {:>16} {:>18}",
        "Name",
        "#Qubits",
        "#CZ gates",
        "#Blocks",
        "Shard",
        "Compute (um^2)",
        "Inter (um^2)",
        "Storage (um^2)"
    );
    let mut rows: Vec<Table2Row> = Vec::new();
    for instance in &suite {
        let arch = instance.architecture();
        let stats = CircuitStats::of(&instance.circuit);
        let (cw, ch) = arch.grid().zone_size_um(Zone::Compute);
        let (iw, ih) = arch.grid().inter_zone_size_um();
        let (sw, sh) = arch.grid().zone_size_um(Zone::Storage);
        // Every Table 2 instance is gated under the with-storage backend in
        // exactly one group of the standard registry.
        let shard = shards
            .shard_of_cell(POWERMOVE_STORAGE, &instance.name)
            .map_or("-", |s| s.name())
            .to_string();
        println!(
            "{:<20} {:>8} {:>10} {:>9} {:<14} {:>18} {:>16} {:>18}",
            instance.name,
            instance.num_qubits,
            stats.cz_gates,
            stats.cz_blocks,
            shard,
            format!("{cw:.0} x {ch:.0}"),
            format!("{iw:.0} x {ih:.0}"),
            format!("{sw:.0} x {sh:.0}"),
        );
        rows.push(Table2Row {
            name: instance.name.clone(),
            num_qubits: instance.num_qubits,
            cz_gates: stats.cz_gates,
            cz_blocks: stats.cz_blocks,
            shard,
            compute_zone_um: (cw, ch),
            inter_zone_um: (iw, ih),
            storage_zone_um: (sw, sh),
        });
    }
    if let Some(path) = json_path {
        write_json(&path, &rows);
    }
}
