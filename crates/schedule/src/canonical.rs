//! Canonical serialized forms for content hashing and byte-identity checks.
//!
//! Two consumers need a *deterministic* textual form of compiler data:
//!
//! * the compile service's content-addressed schedule cache, which keys
//!   entries by a hash of the serialized `(circuit, architecture, config)`
//!   triple and must produce the same key for the same inputs on every
//!   machine and run;
//! * the determinism tests (and the cache's byte-identity guarantee), which
//!   compare the *observable* content of two [`CompiledProgram`]s while
//!   ignoring wall-clock measurements that legitimately differ run to run.
//!
//! The canonical form is the vendored serializer's compact JSON: struct
//! fields render in declaration order, map keys are never reordered, and
//! float rendering is fixed, so equal values always produce equal bytes.
//! The serializer streams that text into any [`fmt::Write`] sink, so the
//! hashes here ([`program_digest`], and the service keys built on
//! [`write_canonical_json`] and [`Fnv1a`]) feed it straight into FNV-1a
//! without materializing a `String` or a value tree.

use crate::CompiledProgram;
use serde::Serialize;
use std::fmt;

/// Renders any serializable value in its canonical compact-JSON form.
///
/// Determinism contract: two values that are `==` serialize to identical
/// bytes — struct fields appear in declaration order and the number
/// formatting is fixed — so the output is safe to hash or compare.
///
/// # Example
///
/// ```
/// let a = powermove_schedule::canonical_json(&(1_u32, "x"));
/// let b = powermove_schedule::canonical_json(&(1_u32, "x"));
/// assert_eq!(a, b);
/// assert_eq!(a, "[1,\"x\"]");
/// ```
#[must_use]
pub fn canonical_json<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("the vendored serializer is infallible")
}

/// Streams the canonical compact JSON of `value` into `out`: byte for byte
/// what [`canonical_json`] returns, with no intermediate `String`.
pub fn write_canonical_json<W: fmt::Write + ?Sized, T: Serialize + ?Sized>(out: &mut W, value: &T) {
    serde_json::to_writer(out, value);
}

/// A streaming 64-bit FNV-1a hasher, usable as a [`fmt::Write`] sink.
///
/// Chosen for content addressing because it is fully deterministic across
/// platforms, allocation-free and has no dependencies; it is **not** a
/// cryptographic hash — cache keys assume cooperative clients, not
/// adversarial collision construction. Hashing text in pieces gives the
/// same value as hashing the concatenation ([`fnv1a_64`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher that has seen no bytes.
    #[must_use]
    pub const fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }

    /// Feeds `bytes` into the hash.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut hash = self.0;
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(Self::PRIME);
        }
        self.0 = hash;
    }

    /// The hash of every byte fed so far.
    #[must_use]
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// 64-bit FNV-1a hash of a byte string (see [`Fnv1a`]).
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write_bytes(bytes);
    hash.finish()
}

/// Serializes the observable content of a program — initial layout,
/// instruction stream, work counters, stage count and storage flag — to a
/// canonical byte string. Pass timings and the end-to-end compile clock are
/// **excluded**: they are wall-clock measurements and differ run to run even
/// for byte-identical schedules.
///
/// This is the byte-identity yardstick shared by the parallel-determinism
/// tests and the compile service's cache (`cache hit == cold compile` is
/// asserted on exactly these bytes).
///
/// # Example
///
/// ```
/// use powermove_hardware::{Architecture, Zone};
/// use powermove_schedule::{canonical_program_bytes, CompiledProgram, Layout};
///
/// let arch = Architecture::for_qubits(2);
/// let layout = Layout::row_major(&arch, 2, Zone::Compute).unwrap();
/// let program = CompiledProgram::new(arch, 2, layout, vec![]);
/// assert_eq!(
///     canonical_program_bytes(&program),
///     canonical_program_bytes(&program.clone()),
/// );
/// ```
#[must_use]
pub fn canonical_program_bytes(program: &CompiledProgram) -> String {
    let mut bytes = String::new();
    write_program(&mut bytes, program).expect("writing to a String is infallible");
    bytes
}

/// 16-hex-digit digest of [`canonical_program_bytes`], streamed into the
/// hash without building the bytes.
///
/// Small enough to embed in every service response frame, so clients can
/// verify that a cache hit is byte-identical to a cold compile without
/// shipping the full program back.
#[must_use]
pub fn program_digest(program: &CompiledProgram) -> String {
    let mut hash = Fnv1a::new();
    write_program(&mut hash, program).expect("hashing is infallible");
    format!("{:016x}", hash.finish())
}

/// Writes `layout|instructions|counters|stages=…|storage=…`, the text of
/// [`canonical_program_bytes`].
fn write_program<W: fmt::Write>(out: &mut W, program: &CompiledProgram) -> fmt::Result {
    let metadata = program.metadata();
    write_canonical_json(out, program.initial_layout());
    out.write_char('|')?;
    write_canonical_json(out, program.instructions());
    out.write_char('|')?;
    write_canonical_json(out, &metadata.counters);
    write!(
        out,
        "|stages={}|storage={}",
        metadata.num_stages, metadata.uses_storage
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Instruction, Layout};
    use powermove_circuit::{CzGate, Qubit};
    use powermove_hardware::{Architecture, Zone};

    fn sample_program(gates: usize) -> CompiledProgram {
        let arch = Architecture::for_qubits(4);
        let layout = Layout::row_major(&arch, 4, Zone::Compute).unwrap();
        let cz: Vec<CzGate> = (0..gates as u32)
            .map(|i| CzGate::new(Qubit::new(2 * i % 4), Qubit::new((2 * i + 1) % 4)))
            .collect();
        CompiledProgram::new(arch, 4, layout, vec![Instruction::rydberg(cz)])
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streamed_hashes_match_hashing_the_text() {
        let p = sample_program(2);
        let bytes = canonical_program_bytes(&p);
        assert_eq!(
            program_digest(&p),
            format!("{:016x}", fnv1a_64(bytes.as_bytes()))
        );
        let mut pieces = Fnv1a::new();
        write_canonical_json(&mut pieces, p.initial_layout());
        assert_eq!(
            pieces.finish(),
            fnv1a_64(canonical_json(p.initial_layout()).as_bytes())
        );
    }

    #[test]
    fn canonical_json_is_deterministic() {
        let p = sample_program(2);
        assert_eq!(canonical_json(&p), canonical_json(&p.clone()));
    }

    #[test]
    fn equal_programs_share_bytes_and_digest() {
        let a = sample_program(2);
        let b = sample_program(2);
        assert_eq!(canonical_program_bytes(&a), canonical_program_bytes(&b));
        assert_eq!(program_digest(&a), program_digest(&b));
        assert_eq!(program_digest(&a).len(), 16);
    }

    #[test]
    fn different_programs_differ() {
        let a = sample_program(1);
        let b = sample_program(2);
        assert_ne!(canonical_program_bytes(&a), canonical_program_bytes(&b));
        assert_ne!(program_digest(&a), program_digest(&b));
    }

    #[test]
    fn timings_do_not_affect_the_canonical_bytes() {
        use crate::{CompileMetadata, PassTiming};
        let plain = sample_program(2);
        let timed = plain.clone().with_metadata(CompileMetadata {
            compile_time: Some(12.5),
            pass_timings: vec![PassTiming {
                pass: "route".to_string(),
                seconds: 3.25,
            }],
            ..plain.metadata().clone()
        });
        assert_eq!(
            canonical_program_bytes(&plain),
            canonical_program_bytes(&timed)
        );
    }
}
