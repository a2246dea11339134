//! The content-addressed LRU cache backing the compile service.

use powermove_schedule::CompiledProgram;
use serde::Serialize;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// A bounded LRU cache of `Arc`-shared values keyed by a 64-bit content
/// hash.
///
/// The service instantiates it twice: as [`ScheduleCache`] for emitted
/// programs (keyed by [`content_hash`](powermove::content_hash) over the
/// full request triple) and for frozen front-end IRs (keyed by
/// [`stage_hash`](powermove::stage_hash) over the architecture-independent
/// `(circuit, config)` pair). Entries are shared as [`Arc`]s, so a hit
/// never clones the value.
///
/// The cache is not internally synchronized;
/// [`CompileService`](crate::CompileService) wraps it in a mutex and adds
/// in-flight coalescing on top.
#[derive(Debug)]
pub struct LruCache<T> {
    capacity: usize,
    entries: HashMap<u64, Arc<T>>,
    /// Recency order: front is least recently used, back most recent.
    recency: VecDeque<u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// An LRU cache of emitted programs, keyed by the
/// [`ContentHash`](powermove::ContentHash) of the compile request that
/// produced them.
///
/// Because compilation is a pure function of the request triple, a cached
/// program is byte-identical (in the sense of
/// [`canonical_program_bytes`](powermove_schedule::canonical_program_bytes))
/// to what a cold compile of the same triple would emit — the cache can
/// never serve a stale or divergent schedule.
///
/// # Example
///
/// ```
/// use powermove_service::ScheduleCache;
/// use powermove::{content_hash, CompilerConfig};
/// use powermove_circuit::{Circuit, Qubit};
/// use powermove_hardware::Architecture;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut circuit = Circuit::new(2);
/// circuit.cz(Qubit::new(0), Qubit::new(1))?;
/// let arch = Architecture::for_qubits(2);
/// let config = CompilerConfig::default();
/// let key = content_hash(&circuit, &arch, &config);
///
/// let mut cache = ScheduleCache::new(8);
/// assert!(cache.get(key.value()).is_none());
/// let program = powermove::compile(&circuit, &arch, &config)?;
/// cache.insert(key.value(), Arc::new(program));
/// assert!(cache.get(key.value()).is_some());
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// # Ok(())
/// # }
/// ```
pub type ScheduleCache = LruCache<CompiledProgram>;

/// A point-in-time snapshot of cache effectiveness counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Entries discarded to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum number of resident entries.
    pub capacity: usize,
}

impl<T> LruCache<T> {
    /// Creates a cache holding at most `capacity` values.
    ///
    /// A capacity of `0` disables caching: every lookup misses and inserts
    /// are dropped, which keeps the service correct (every request compiles
    /// cold) while storing nothing.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            entries: HashMap::new(),
            recency: VecDeque::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up a value by content key, marking the entry most recently
    /// used on a hit. Counts a hit or a miss either way.
    pub fn get(&mut self, key: u64) -> Option<Arc<T>> {
        let value = self.touch(key);
        if value.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        value
    }

    /// Like [`LruCache::get`], but counts neither a hit nor a miss: for a
    /// repeated lookup on behalf of a request whose first lookup was
    /// already counted.
    pub(crate) fn touch(&mut self, key: u64) -> Option<Arc<T>> {
        let value = Arc::clone(self.entries.get(&key)?);
        if let Some(pos) = self.recency.iter().position(|k| *k == key) {
            self.recency.remove(pos);
        }
        self.recency.push_back(key);
        Some(value)
    }

    /// Checks for a key without touching recency or counters.
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        self.entries.contains_key(&key)
    }

    /// Inserts a value under its content key, evicting the least recently
    /// used entries if the cache is over capacity. Re-inserting an existing
    /// key refreshes its recency (the value is identical by construction,
    /// so which copy survives is immaterial).
    pub fn insert(&mut self, key: u64, value: Arc<T>) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.insert(key, value).is_none() {
            self.recency.push_back(key);
        } else if let Some(pos) = self.recency.iter().position(|k| *k == key) {
            self.recency.remove(pos);
            self.recency.push_back(key);
        }
        while self.entries.len() > self.capacity {
            let Some(oldest) = self.recency.pop_front() else {
                break;
            };
            self.entries.remove(&oldest);
            self.evictions += 1;
        }
    }

    /// Number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A snapshot of the effectiveness counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermove::CompilerConfig;
    use powermove_circuit::{Circuit, Qubit};
    use powermove_hardware::Architecture;

    fn program(n: u32) -> Arc<CompiledProgram> {
        let mut circuit = Circuit::new(n);
        circuit.cz(Qubit::new(0), Qubit::new(1)).unwrap();
        Arc::new(
            powermove::compile(
                &circuit,
                &Architecture::for_qubits(n),
                &CompilerConfig::default(),
            )
            .unwrap(),
        )
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = ScheduleCache::new(2);
        let p = program(2);
        cache.insert(1, Arc::clone(&p));
        cache.insert(2, Arc::clone(&p));
        // Touch key 1 so key 2 becomes the eviction victim.
        assert!(cache.get(1).is_some());
        cache.insert(3, Arc::clone(&p));
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(1));
        assert!(!cache.contains(2));
        assert!(cache.contains(3));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut cache = ScheduleCache::new(3);
        let p = program(2);
        for key in 0..10_u64 {
            cache.insert(key, Arc::clone(&p));
            assert!(cache.len() <= 3);
        }
        assert_eq!(cache.stats().evictions, 7);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut cache = ScheduleCache::new(0);
        cache.insert(1, program(2));
        assert!(cache.is_empty());
        assert!(cache.get(1).is_none());
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn reinserting_refreshes_recency_without_growing() {
        let mut cache = ScheduleCache::new(2);
        let p = program(2);
        cache.insert(1, Arc::clone(&p));
        cache.insert(2, Arc::clone(&p));
        cache.insert(1, Arc::clone(&p));
        assert_eq!(cache.len(), 2);
        cache.insert(3, Arc::clone(&p));
        // Key 2 was the least recently used after 1's refresh.
        assert!(cache.contains(1));
        assert!(!cache.contains(2));
    }

    #[test]
    fn cache_is_generic_over_the_stored_value() {
        let mut cache: LruCache<&str> = LruCache::new(2);
        cache.insert(7, Arc::new("staged"));
        assert_eq!(cache.get(7).as_deref(), Some(&"staged"));
        assert!(cache.get(8).is_none());
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }
}
