//! Content addressing for compile requests.
//!
//! A compile is a pure function of the immutable `(circuit, architecture,
//! config)` triple — no hidden pipeline state survives between calls — so
//! the triple's canonical serialized form is a complete identity for the
//! emitted program. [`content_hash`] condenses that form into a stable
//! 64-bit key that the compile service uses to address its schedule cache
//! and to coalesce identical in-flight requests.

use crate::CompilerConfig;
use powermove_circuit::Circuit;
use powermove_hardware::Architecture;
use powermove_schedule::{write_canonical_json, Fnv1a};
use std::fmt;

/// A deterministic identity for one compile request.
///
/// Equal triples always hash equal, across processes and machines: the hash
/// is FNV-1a 64 over the canonical JSON of each component
/// ([`powermove_schedule::canonical_json`]), with an unambiguous separator
/// between components so `(ab, c)` and `(a, bc)` cannot collide by
/// concatenation. The JSON is streamed into the hash
/// ([`powermove_schedule::write_canonical_json`]), never built as text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(u64);

impl ContentHash {
    /// The raw 64-bit hash value.
    #[must_use]
    pub const fn value(&self) -> u64 {
        self.0
    }

    /// The 16-hex-digit rendering used as cache key and in service frames.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{self}")
    }
}

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Hashes a compile request's `(circuit, architecture, config)` triple into
/// its content address.
///
/// # Example
///
/// Identical triples produce identical hashes; changing any component
/// changes the hash:
///
/// ```
/// use powermove::{content_hash, CompilerConfig};
/// use powermove_circuit::{Circuit, Qubit};
/// use powermove_hardware::Architecture;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut circuit = Circuit::new(2);
/// circuit.cz(Qubit::new(0), Qubit::new(1))?;
/// let arch = Architecture::for_qubits(2);
/// let config = CompilerConfig::default();
///
/// let key = content_hash(&circuit, &arch, &config);
/// assert_eq!(key, content_hash(&circuit, &arch, &config));
/// assert_ne!(
///     key,
///     content_hash(&circuit, &arch.with_num_aods(2), &config)
/// );
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn content_hash(
    circuit: &Circuit,
    arch: &Architecture,
    config: &CompilerConfig,
) -> ContentHash {
    // The '\n' separator cannot occur inside a component: compact JSON
    // escapes raw newlines, so component boundaries are unambiguous.
    let mut hash = Fnv1a::new();
    write_canonical_json(&mut hash, circuit);
    hash.write_bytes(b"\n");
    write_canonical_json(&mut hash, arch);
    hash.write_bytes(b"\n");
    write_canonical_json(&mut hash, config);
    ContentHash(hash.finish())
}

/// Hashes the front-end inputs `(circuit, config)` into a content address
/// for the frozen staged IR.
///
/// The compiler front end ([`PowerMoveCompiler::stage`]) is
/// architecture-independent: synthesis and stage partitioning read only the
/// circuit and the configuration. The stage hash therefore deliberately
/// omits the architecture, so one cached
/// [`StagedIr`](crate::StagedIr) is shared by requests that differ only in
/// their target machine — the compile service keys its stage cache with
/// this and its program cache with the full [`content_hash`].
///
/// [`PowerMoveCompiler::stage`]: crate::PowerMoveCompiler::stage
///
/// # Example
///
/// Requests that differ only in architecture share a stage hash; changing
/// the circuit or the config changes it:
///
/// ```
/// use powermove::{stage_hash, CompilerConfig};
/// use powermove_circuit::{Circuit, Qubit};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut circuit = Circuit::new(2);
/// circuit.cz(Qubit::new(0), Qubit::new(1))?;
/// let config = CompilerConfig::default();
///
/// let key = stage_hash(&circuit, &config);
/// assert_eq!(key, stage_hash(&circuit, &config));
/// assert_ne!(key, stage_hash(&circuit, &CompilerConfig::without_storage()));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn stage_hash(circuit: &Circuit, config: &CompilerConfig) -> ContentHash {
    // Same framing as `content_hash`: '\n'-separated compact JSON, which
    // cannot contain a raw newline.
    let mut hash = Fnv1a::new();
    write_canonical_json(&mut hash, circuit);
    hash.write_bytes(b"\n");
    write_canonical_json(&mut hash, config);
    ContentHash(hash.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermove_circuit::Qubit;

    fn ring(n: u32) -> Circuit {
        let mut c = Circuit::new(n);
        for i in 0..n {
            c.cz(Qubit::new(i), Qubit::new((i + 1) % n)).unwrap();
        }
        c
    }

    #[test]
    fn equal_triples_hash_equal() {
        let a = content_hash(
            &ring(6),
            &Architecture::for_qubits(6),
            &CompilerConfig::default(),
        );
        let b = content_hash(
            &ring(6),
            &Architecture::for_qubits(6),
            &CompilerConfig::default(),
        );
        assert_eq!(a, b);
        assert_eq!(a.hex(), b.hex());
        assert_eq!(a.hex().len(), 16);
        assert_eq!(a.hex(), format!("{:016x}", a.value()));
    }

    #[test]
    fn every_component_contributes() {
        let circuit = ring(6);
        let arch = Architecture::for_qubits(6);
        let config = CompilerConfig::default();
        let base = content_hash(&circuit, &arch, &config);
        assert_ne!(base, content_hash(&ring(8), &arch, &config));
        assert_ne!(
            base,
            content_hash(&circuit, &arch.clone().with_num_aods(3), &config)
        );
        assert_ne!(
            base,
            content_hash(&circuit, &arch, &CompilerConfig::without_storage())
        );
    }

    #[test]
    fn stage_hash_ignores_the_architecture_but_nothing_else() {
        let circuit = ring(6);
        let config = CompilerConfig::default();
        let base = stage_hash(&circuit, &config);
        // Same front-end inputs: same key, however the target machine varies
        // (there is no architecture input at all).
        assert_eq!(base, stage_hash(&ring(6), &CompilerConfig::default()));
        // Both remaining components contribute.
        assert_ne!(base, stage_hash(&ring(8), &config));
        assert_ne!(
            base,
            stage_hash(&circuit, &CompilerConfig::without_storage())
        );
        // And the stage key is not the full content key of any triple with
        // the same circuit and config.
        let arch = Architecture::for_qubits(6);
        assert_ne!(base, content_hash(&circuit, &arch, &config));
    }

    #[test]
    fn threads_knob_changes_the_key_conservatively() {
        // The worker count does not change the emitted program, but it is
        // part of the config struct and therefore of the key: the cache
        // trades a few redundant entries for a key that can never alias two
        // different configurations.
        let circuit = ring(4);
        let arch = Architecture::for_qubits(4);
        assert_ne!(
            content_hash(&circuit, &arch, &CompilerConfig::default()),
            content_hash(&circuit, &arch, &CompilerConfig::default().with_threads(2))
        );
    }
}
