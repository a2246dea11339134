//! The compile service: cache and in-flight coalescing.

use crate::cache::{CacheStats, LruCache, ScheduleCache};
use powermove::{
    content_hash, stage_hash, CompileError, CompilerConfig, PowerMoveCompiler, StagedIr,
};
use powermove_circuit::Circuit;
use powermove_hardware::Architecture;
use powermove_schedule::CompiledProgram;
use serde::Serialize;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// How a compile request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The program was already cached.
    Hit,
    /// The request compiled cold and populated the cache.
    Miss,
    /// An identical request was already in flight; this one waited for it
    /// and shares its program without compiling.
    Coalesced,
}

impl CacheOutcome {
    /// Wire name used in service response frames.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Coalesced => "coalesced",
        }
    }
}

/// A point-in-time snapshot of service counters, reported by the `stats`
/// frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ServiceStats {
    /// Program-cache effectiveness counters. Each request counts one
    /// lookup, on arrival: a coalesced request is a miss, not a hit.
    pub cache: CacheStats,
    /// Cold compiles whose front end was answered from the stage cache
    /// (only the route/emit back end ran).
    pub stage_hits: u64,
    /// Cold compiles that staged from scratch and populated the stage
    /// cache.
    pub stage_misses: u64,
    /// Cold compiles actually executed (misses that reached the compiler).
    pub compiles: u64,
    /// Requests that coalesced onto another request's in-flight compile.
    pub coalesced: u64,
}

/// State guarded by the service mutex: the program and stage caches plus
/// the set of content keys whose compiles are currently in flight.
#[derive(Debug)]
struct Inner {
    cache: ScheduleCache,
    /// Frozen front-end IRs keyed by [`stage_hash`]: the front end is
    /// architecture-independent, so requests that differ only in their
    /// target machine share one staged IR and replay only the back end.
    stages: LruCache<StagedIr>,
    in_flight: HashSet<u64>,
}

/// A thread-safe compile front end with a content-addressed schedule cache
/// and in-flight request coalescing.
///
/// Every request is keyed by [`content_hash`] over its `(circuit,
/// architecture, config)` triple. A request whose key is cached returns the
/// cached program ([`CacheOutcome::Hit`]); a request whose key is currently
/// compiling on another thread blocks until that compile lands and shares
/// its result ([`CacheOutcome::Coalesced`]); otherwise the request compiles
/// cold exactly once ([`CacheOutcome::Miss`]). Since compilation is pure,
/// all three paths yield byte-identical programs.
///
/// Cold compiles are themselves split along the compiler's front/back-end
/// seam: the front end ([`PowerMoveCompiler::stage`]) depends only on the
/// `(circuit, config)` pair, so its frozen [`StagedIr`] is cached under
/// [`stage_hash`] and shared by requests that differ only in architecture —
/// those requests replay only the route/emit back end. The `stage_hits` /
/// `stage_misses` counters in [`ServiceStats`] report how often that
/// happens.
///
/// # Example
///
/// ```
/// use powermove::CompilerConfig;
/// use powermove_circuit::{Circuit, Qubit};
/// use powermove_hardware::Architecture;
/// use powermove_service::{CacheOutcome, CompileService};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let service = CompileService::new(16);
/// let mut circuit = Circuit::new(2);
/// circuit.cz(Qubit::new(0), Qubit::new(1))?;
/// let arch = Architecture::for_qubits(2);
/// let config = CompilerConfig::default();
///
/// let (cold, outcome) = service.compile(&circuit, &arch, &config)?;
/// assert_eq!(outcome, CacheOutcome::Miss);
/// let (warm, outcome) = service.compile(&circuit, &arch, &config)?;
/// assert_eq!(outcome, CacheOutcome::Hit);
/// assert_eq!(
///     powermove_schedule::canonical_program_bytes(&cold),
///     powermove_schedule::canonical_program_bytes(&warm),
/// );
/// assert_eq!(service.compiles(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CompileService {
    inner: Mutex<Inner>,
    landed: Condvar,
    compiles: AtomicU64,
    coalesced: AtomicU64,
}

/// Ownership of one key's cold compile. Dropping it — after the program is
/// cached, or when the compile fails or panics — removes the key from the
/// in-flight set and wakes the waiters, so a failed compile never strands
/// the requests coalesced onto it: the first to wake compiles it again.
struct InFlight<'a> {
    service: &'a CompileService,
    key: u64,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.service
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .in_flight
            .remove(&self.key);
        self.service.landed.notify_all();
    }
}

impl CompileService {
    /// Creates a service whose program cache holds at most `capacity`
    /// emitted programs and whose stage cache at most `capacity` frozen
    /// front-end IRs.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        CompileService {
            inner: Mutex::new(Inner {
                cache: ScheduleCache::new(capacity),
                stages: LruCache::new(capacity),
                in_flight: HashSet::new(),
            }),
            landed: Condvar::new(),
            compiles: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Compiles a request, satisfying it from the cache or an in-flight
    /// identical compile when possible.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from a cold compile. A failed compile is
    /// not cached, and any coalesced waiters retry (the first retrier
    /// becomes the new cold compiler).
    ///
    /// # Panics
    ///
    /// Panics if another thread panicked while holding the service lock.
    pub fn compile(
        &self,
        circuit: &Circuit,
        arch: &Architecture,
        config: &CompilerConfig,
    ) -> Result<(Arc<CompiledProgram>, CacheOutcome), CompileError> {
        let key = content_hash(circuit, arch, config).value();
        let mut waited = false;
        let in_flight = {
            let mut inner = self.inner.lock().expect("service lock poisoned");
            loop {
                // Only the arrival lookup is counted, so every request lands
                // in exactly one of `cache.hits`, `coalesced` and `compiles`
                // (or fails).
                let cached = if waited {
                    inner.cache.touch(key)
                } else {
                    inner.cache.get(key)
                };
                if let Some(program) = cached {
                    let outcome = if waited {
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                        CacheOutcome::Coalesced
                    } else {
                        CacheOutcome::Hit
                    };
                    return Ok((program, outcome));
                }
                if inner.in_flight.insert(key) {
                    break InFlight { service: self, key };
                }
                waited = true;
                inner = self
                    .landed
                    .wait(inner)
                    .expect("service lock poisoned while waiting");
            }
        };
        // Compile outside the lock: identical concurrent requests block on
        // the condvar above, different requests proceed in parallel. The
        // front end is served from the stage cache when possible, so a
        // request that differs from a cached one only in architecture pays
        // only for the route/emit back end. Dropping `in_flight` — after
        // caching, on error or on panic — wakes the waiters.
        let program = Arc::new(self.emit_via_stage_cache(circuit, arch, config)?);
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().expect("service lock poisoned");
        inner.cache.insert(key, Arc::clone(&program));
        drop(inner);
        drop(in_flight);
        Ok((program, CacheOutcome::Miss))
    }

    /// Runs one cold compile, reusing a cached front-end IR if one exists
    /// for this `(circuit, config)` pair.
    fn emit_via_stage_cache(
        &self,
        circuit: &Circuit,
        arch: &Architecture,
        config: &CompilerConfig,
    ) -> Result<CompiledProgram, CompileError> {
        let compiler = PowerMoveCompiler::new(*config);
        let stage_key = stage_hash(circuit, config).value();
        let cached = {
            let mut inner = self.inner.lock().expect("service lock poisoned");
            inner.stages.get(stage_key)
        };
        let ir = match cached {
            Some(ir) => ir,
            None => {
                // Stage outside the lock; a concurrent duplicate insert is
                // benign because staging is pure — both IRs are identical.
                let ir = Arc::new(compiler.stage(circuit));
                let mut inner = self.inner.lock().expect("service lock poisoned");
                inner.stages.insert(stage_key, Arc::clone(&ir));
                ir
            }
        };
        compiler.emit(&ir, arch)
    }

    /// Number of cold compiles executed so far.
    #[must_use]
    pub fn compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    /// A snapshot of the service counters.
    ///
    /// # Panics
    ///
    /// Panics if another thread panicked while holding the service lock.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let inner = self.inner.lock().expect("service lock poisoned");
        let stages = inner.stages.stats();
        ServiceStats {
            cache: inner.cache.stats(),
            stage_hits: stages.hits,
            stage_misses: stages.misses,
            compiles: self.compiles.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }
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
    fn distinct_requests_each_compile_once() {
        let service = CompileService::new(16);
        let config = CompilerConfig::default();
        for n in [4, 6, 8] {
            let (_, outcome) = service
                .compile(&ring(n), &Architecture::for_qubits(n), &config)
                .unwrap();
            assert_eq!(outcome, CacheOutcome::Miss);
        }
        assert_eq!(service.compiles(), 3);
        let stats = service.stats();
        assert_eq!(stats.cache.entries, 3);
        assert_eq!(stats.cache.misses, 3);
    }

    #[test]
    fn architecture_sweep_shares_one_staged_ir() {
        let service = CompileService::new(16);
        let config = CompilerConfig::default();
        let circuit = ring(6);
        // Same circuit and config, three different machines: three distinct
        // content keys (three cold compiles) but one shared front end.
        for aods in [1, 2, 4] {
            let arch = Architecture::for_qubits(6).with_num_aods(aods);
            let (_, outcome) = service.compile(&circuit, &arch, &config).unwrap();
            assert_eq!(outcome, CacheOutcome::Miss);
        }
        let stats = service.stats();
        assert_eq!(stats.compiles, 3);
        assert_eq!(stats.stage_misses, 1);
        assert_eq!(stats.stage_hits, 2);
    }

    #[test]
    fn stage_and_emit_match_the_all_in_one_compile() {
        let service = CompileService::new(16);
        let config = CompilerConfig::default();
        let circuit = ring(8);
        // Warm the stage cache with a different architecture first, so the
        // second request emits from a cached IR.
        let first = Architecture::for_qubits(8);
        let second = Architecture::for_qubits(8).with_num_aods(2);
        service.compile(&circuit, &first, &config).unwrap();
        let (via_cache, outcome) = service.compile(&circuit, &second, &config).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(service.stats().stage_hits, 1);
        let direct = powermove::compile(&circuit, &second, &config).unwrap();
        assert_eq!(
            powermove_schedule::canonical_program_bytes(&via_cache),
            powermove_schedule::canonical_program_bytes(&direct),
        );
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let service = CompileService::new(16);
        // 10 qubits on a 2x2 compute grid cannot fit.
        let tiny = Architecture::for_qubits(10)
            .with_grid(powermove_hardware::ZonedGrid::with_dims(2, 2, 4).unwrap());
        let config = CompilerConfig::default();
        assert!(service.compile(&ring(10), &tiny, &config).is_err());
        assert!(service.compile(&ring(10), &tiny, &config).is_err());
        assert_eq!(service.compiles(), 0);
        assert_eq!(service.stats().cache.entries, 0);
    }

    #[test]
    fn panicking_cold_compile_wakes_its_waiters() {
        use std::time::{Duration, Instant};
        let service = Arc::new(CompileService::new(4));
        let (circuit, config) = (ring(6), CompilerConfig::default());
        let arch = Architecture::for_qubits(6);
        // The holder claims the request's key as a cold compile would.
        let key = content_hash(&circuit, &arch, &config).value();
        service.inner.lock().unwrap().in_flight.insert(key);
        let in_flight = InFlight {
            service: &service,
            key,
        };
        let (send, woke) = std::sync::mpsc::channel();
        let waiter = Arc::clone(&service);
        let waiter = std::thread::spawn(move || {
            send.send(waiter.compile(&circuit, &arch, &config).map(|r| r.1))
        });
        // The waiter counts its arrival miss under the lock and releases the
        // lock only inside the condvar wait: once the miss shows, it waits.
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.stats().cache.misses == 0 {
            assert!(Instant::now() < deadline, "the waiter never arrived");
            std::thread::yield_now();
        }
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _in_flight = in_flight;
            panic!("cold compile panicked");
        }));
        assert!(unwound.is_err());
        // Nothing was cached, so the woken waiter took the key and compiled.
        let outcome = woke.recv_timeout(Duration::from_secs(10));
        assert_eq!(
            outcome.expect("the waiter stayed blocked").unwrap(),
            CacheOutcome::Miss
        );
        waiter.join().unwrap().unwrap();
    }
}
