//! The work-stealing scoped thread pool.

use crate::Parallelism;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// A task queued on the pool. Tasks may borrow data that outlives the
/// enclosing [`ThreadPool::scope`] call (the `'env` lifetime), mirroring
/// [`std::thread::scope`].
type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

/// A work-stealing scoped thread pool built directly on [`std::thread`].
///
/// The pool is deliberately small: workers are spawned per
/// [`ThreadPool::scope`] call as scoped threads (so tasks can borrow stack
/// data), every worker owns a deque that [`PoolScope::spawn`] fills
/// round-robin, and an idle worker steals from the back of a sibling's deque
/// before sleeping. A [`Parallelism`] of one short-circuits to inline
/// execution — no threads, no locks — which is what makes
/// `POWERMOVE_THREADS=1` byte-for-byte comparable with parallel runs.
///
/// # Example
///
/// ```
/// use powermove_exec::{Parallelism, ThreadPool};
///
/// let pool = ThreadPool::new(Parallelism::fixed(4));
/// let squares = pool.par_map((0..100).collect::<Vec<u64>>(), |x| x * x);
/// assert_eq!(squares[7], 49); // results stay in input order
///
/// let sum = std::sync::atomic::AtomicU64::new(0);
/// pool.scope(|scope| {
///     for chunk in 0..8u64 {
///         let sum = &sum;
///         scope.spawn(move || {
///             sum.fetch_add(chunk, std::sync::atomic::Ordering::Relaxed);
///         });
///     }
/// });
/// assert_eq!(sum.into_inner(), 28);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ThreadPool {
    parallelism: Parallelism,
}

impl ThreadPool {
    /// Creates a pool configuration. Threads are only spawned while a
    /// [`ThreadPool::scope`] call is active, so constructing a pool is free.
    #[must_use]
    pub fn new(parallelism: Parallelism) -> Self {
        ThreadPool { parallelism }
    }

    /// A pool sized by `POWERMOVE_THREADS`, defaulting to the core count.
    #[must_use]
    pub fn from_env() -> Self {
        ThreadPool::new(Parallelism::from_env())
    }

    /// The worker count used by [`ThreadPool::scope`] and
    /// [`ThreadPool::par_map`].
    #[must_use]
    pub fn threads(&self) -> usize {
        self.parallelism.threads()
    }

    /// Runs `f` with a [`PoolScope`] through which tasks can be spawned onto
    /// the pool. Returns once `f` has returned **and** every spawned task has
    /// finished, so tasks may borrow anything that outlives the `scope` call.
    ///
    /// With one worker, tasks run inline on the calling thread in spawn
    /// order; otherwise the pool's workers drain them concurrently.
    ///
    /// # Panics
    ///
    /// If a spawned task panics, the panic payload is captured and re-raised
    /// on the calling thread after all remaining tasks have completed (the
    /// first payload wins). A panic inside `f` itself also propagates, after
    /// spawned tasks have drained.
    pub fn scope<'env, T>(&self, f: impl FnOnce(&PoolScope<'_, 'env>) -> T) -> T {
        let workers = self.threads();
        if workers <= 1 {
            return f(&PoolScope { shared: None });
        }
        let shared: Shared<'env> = Shared::new(workers);
        let outcome = std::thread::scope(|s| {
            for index in 0..workers {
                let shared = &shared;
                s.spawn(move || shared.worker_loop(index));
            }
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                f(&PoolScope {
                    shared: Some(&shared),
                })
            }));
            // Always drain and release the workers, even when `f` panicked;
            // otherwise `std::thread::scope` would join forever.
            shared.close_and_wait();
            outcome
        });
        shared.propagate_panic();
        match outcome {
            Ok(value) => value,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Applies `f` to every item, in parallel, returning the results **in
    /// input order** regardless of which worker ran which item or in what
    /// order they finished. Sequential configurations (one worker, or fewer
    /// than two items) run inline, so a `POWERMOVE_THREADS=1` run is the
    /// exact sequential loop.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by `f` after the remaining items
    /// have completed.
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        if self.threads() <= 1 || items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        // Never spawn more workers than there are jobs: a 3-item map on a
        // 64-thread pool needs 3 workers, not 64 idle spawn/joins.
        let sized = ThreadPool::new(Parallelism::fixed(self.threads().min(items.len())));
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        {
            let slots = &slots;
            let f = &f;
            sized.scope(|scope| {
                for (index, item) in items.into_iter().enumerate() {
                    scope.spawn(move || {
                        *slots[index].lock().expect("result slot poisoned") = Some(f(item));
                    });
                }
            });
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("scope waits for every task")
            })
            .collect()
    }

    /// Like [`ThreadPool::par_map`], but queues one job per contiguous
    /// **index range** instead of one job per item, so very wide fan-outs
    /// (e.g. block-level compilation of a 100k-block program) do not pay a
    /// queue push, mutex slot and wake-up per item.
    ///
    /// The input is split into at most `workers × `[`CHUNKS_PER_WORKER`]
    /// near-equal contiguous chunks (never fewer than one item per chunk);
    /// each chunk runs `f` over its items sequentially. Results are returned
    /// in input order, and a sequential configuration degenerates to the
    /// plain loop — the output is always identical to
    /// `items.into_iter().map(f).collect()`.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by `f` after the remaining chunks
    /// have completed.
    pub fn par_map_chunked<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let chunks = self.chunk_count(items.len());
        if self.threads() <= 1 || chunks <= 1 {
            return items.into_iter().map(&f).collect();
        }
        let mut chunked: Vec<Vec<T>> = Vec::with_capacity(chunks);
        let len = items.len();
        let base = len / chunks;
        let remainder = len % chunks;
        let mut items = items.into_iter();
        for index in 0..chunks {
            let take = base + usize::from(index < remainder);
            chunked.push(items.by_ref().take(take).collect());
        }
        self.par_map(chunked, |chunk| {
            chunk.into_iter().map(&f).collect::<Vec<R>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// How many chunks [`ThreadPool::par_map_chunked`] splits `len` items
    /// into: `workers × `[`CHUNKS_PER_WORKER`], capped at one item per chunk.
    /// The oversubscription factor keeps workers busy when chunk runtimes are
    /// skewed without approaching one-job-per-item queue pressure.
    #[must_use]
    fn chunk_count(&self, len: usize) -> usize {
        len.min(self.threads() * CHUNKS_PER_WORKER).max(1)
    }
}

/// Oversubscription factor of [`ThreadPool::par_map_chunked`]: the number of
/// index-range chunks queued per worker, trading work-stealing balance
/// against per-job queue overhead.
pub const CHUNKS_PER_WORKER: usize = 4;

impl Default for ThreadPool {
    fn default() -> Self {
        ThreadPool::from_env()
    }
}

/// Handle for spawning tasks onto an active [`ThreadPool::scope`].
pub struct PoolScope<'pool, 'env> {
    /// `None` in the sequential (single-worker) configuration, where spawned
    /// tasks execute inline.
    shared: Option<&'pool Shared<'env>>,
}

impl<'pool, 'env> PoolScope<'pool, 'env> {
    /// Queues `job` for execution on the pool (or runs it inline when the
    /// pool is sequential). The enclosing [`ThreadPool::scope`] call does not
    /// return until the job has finished.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'env) {
        match self.shared {
            None => job(),
            Some(shared) => shared.push(Box::new(job)),
        }
    }

    /// The number of workers draining this scope (1 when sequential).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shared.map_or(1, |shared| shared.queues.len())
    }
}

/// Coordination counters shared by the scope owner and the workers.
#[derive(Debug, Default)]
struct Coord {
    /// Jobs pushed but not yet claimed by a worker.
    queued: usize,
    /// Jobs pushed but not yet finished (claimed jobs included).
    pending: usize,
    /// Set once the scope closure has returned: no further spawns arrive.
    closed: bool,
}

struct Shared<'env> {
    /// One deque per worker. `push` distributes round-robin; worker `i` pops
    /// from the front of `queues[i]` and steals from the back of the others.
    queues: Vec<Mutex<VecDeque<Job<'env>>>>,
    coord: Mutex<Coord>,
    /// Signals workers that work arrived or the scope is shutting down.
    work_signal: Condvar,
    /// Signals the scope owner that `pending` reached zero.
    done_signal: Condvar,
    /// Round-robin cursor for `push`.
    next_queue: AtomicUsize,
    /// First panic payload raised by a job, re-raised by the scope owner.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl<'env> Shared<'env> {
    fn new(workers: usize) -> Self {
        Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            coord: Mutex::new(Coord::default()),
            work_signal: Condvar::new(),
            done_signal: Condvar::new(),
            next_queue: AtomicUsize::new(0),
            panic: Mutex::new(None),
        }
    }

    fn push(&self, job: Job<'env>) {
        let target = self.next_queue.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        self.queues[target]
            .lock()
            .expect("job queue poisoned")
            .push_back(job);
        // The job must be visible in its queue before a worker is entitled
        // to claim it, hence queue push first, counters second.
        let mut coord = self.coord.lock().expect("pool coordination poisoned");
        coord.queued += 1;
        coord.pending += 1;
        drop(coord);
        self.work_signal.notify_one();
    }

    fn worker_loop(&self, index: usize) {
        loop {
            // Claim the entitlement to exactly one queued job, or exit once
            // the scope has closed and everything has drained.
            {
                let mut coord = self.coord.lock().expect("pool coordination poisoned");
                loop {
                    if coord.queued > 0 {
                        coord.queued -= 1;
                        break;
                    }
                    if coord.closed && coord.pending == 0 {
                        return;
                    }
                    coord = self
                        .work_signal
                        .wait(coord)
                        .expect("pool coordination poisoned");
                }
            }
            let job = self.take_job(index);
            if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(job)) {
                let mut slot = self.panic.lock().expect("panic slot poisoned");
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            let mut coord = self.coord.lock().expect("pool coordination poisoned");
            coord.pending -= 1;
            if coord.pending == 0 {
                self.done_signal.notify_all();
                // Wake the other workers so they can observe the exit
                // condition once the scope closes.
                self.work_signal.notify_all();
            }
        }
    }

    /// Dequeues one job for worker `index`: own deque first (FIFO), then a
    /// steal sweep over the siblings (LIFO, the classic stealing end).
    ///
    /// The caller has already decremented `queued`, so at least one job is
    /// reserved for this worker; the loop only spins when a concurrent
    /// spawn/steal interleaving momentarily hides it.
    fn take_job(&self, index: usize) -> Job<'env> {
        loop {
            if let Some(job) = self.queues[index]
                .lock()
                .expect("job queue poisoned")
                .pop_front()
            {
                return job;
            }
            for offset in 1..self.queues.len() {
                let victim = (index + offset) % self.queues.len();
                if let Some(job) = self.queues[victim]
                    .lock()
                    .expect("job queue poisoned")
                    .pop_back()
                {
                    return job;
                }
            }
            std::thread::yield_now();
        }
    }

    fn close_and_wait(&self) {
        let mut coord = self.coord.lock().expect("pool coordination poisoned");
        coord.closed = true;
        self.work_signal.notify_all();
        while coord.pending > 0 {
            coord = self
                .done_signal
                .wait(coord)
                .expect("pool coordination poisoned");
        }
        drop(coord);
        self.work_signal.notify_all();
    }

    fn propagate_panic(&self) {
        let payload = self.panic.lock().expect("panic slot poisoned").take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn par_map_preserves_input_order() {
        let pool = ThreadPool::new(Parallelism::fixed(4));
        let input: Vec<usize> = (0..257).collect();
        let expected: Vec<usize> = input.iter().map(|x| x * 3 + 1).collect();
        // Skew per-item latency so completion order differs from input order.
        let output = pool.par_map(input, |x| {
            if x % 13 == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
            x * 3 + 1
        });
        assert_eq!(output, expected);
    }

    #[test]
    fn par_map_matches_sequential_map() {
        let items: Vec<u64> = (0..100).collect();
        let sequential = ThreadPool::new(Parallelism::fixed(1)).par_map(items.clone(), |x| x * x);
        let parallel = ThreadPool::new(Parallelism::fixed(8)).par_map(items, |x| x * x);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn par_map_handles_empty_and_single_inputs() {
        let pool = ThreadPool::new(Parallelism::fixed(4));
        assert_eq!(pool.par_map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(pool.par_map(vec![9], |x| x + 1), vec![10]);
    }

    #[test]
    fn par_map_chunked_matches_per_item_map() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 7 + 3).collect();
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(Parallelism::fixed(threads));
            assert_eq!(pool.par_map_chunked(items.clone(), |x| x * 7 + 3), expected);
        }
    }

    #[test]
    fn par_map_chunked_preserves_order_under_skew() {
        let pool = ThreadPool::new(Parallelism::fixed(4));
        let items: Vec<usize> = (0..300).collect();
        let output = pool.par_map_chunked(items.clone(), |x| {
            if x % 17 == 0 {
                std::thread::sleep(Duration::from_micros(150));
            }
            x + 1
        });
        assert_eq!(output, items.iter().map(|x| x + 1).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_chunked_handles_empty_and_tiny_inputs() {
        let pool = ThreadPool::new(Parallelism::fixed(4));
        assert_eq!(
            pool.par_map_chunked(Vec::<u32>::new(), |x| x),
            Vec::<u32>::new()
        );
        assert_eq!(pool.par_map_chunked(vec![5], |x| x * 2), vec![10]);
        assert_eq!(pool.par_map_chunked(vec![1, 2], |x| x * 2), vec![2, 4]);
    }

    #[test]
    fn chunk_count_is_bounded_by_items_and_oversubscription() {
        let pool = ThreadPool::new(Parallelism::fixed(4));
        assert_eq!(pool.chunk_count(0), 1);
        assert_eq!(pool.chunk_count(3), 3);
        assert_eq!(pool.chunk_count(1_000_000), 4 * CHUNKS_PER_WORKER);
        let sequential = ThreadPool::new(Parallelism::fixed(1));
        assert_eq!(sequential.chunk_count(100), CHUNKS_PER_WORKER);
    }

    #[test]
    fn par_map_chunked_propagates_panics() {
        let pool = ThreadPool::new(Parallelism::fixed(4));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_map_chunked((0..100).collect::<Vec<u32>>(), |x| {
                assert!(x != 57, "boom on {x}");
                x
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn scope_runs_every_spawned_task() {
        let pool = ThreadPool::new(Parallelism::fixed(3));
        let counter = AtomicUsize::new(0);
        pool.scope(|scope| {
            for _ in 0..50 {
                let counter = &counter;
                scope.spawn(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.into_inner(), 50);
    }

    #[test]
    fn scope_tasks_actually_overlap() {
        // Two tasks that each wait for the other to start can only both
        // finish if they run concurrently.
        let pool = ThreadPool::new(Parallelism::fixed(2));
        let flags = [AtomicBool::new(false), AtomicBool::new(false)];
        pool.scope(|scope| {
            for i in 0..2 {
                let flags = &flags;
                scope.spawn(move || {
                    flags[i].store(true, Ordering::SeqCst);
                    let deadline = Instant::now() + Duration::from_secs(20);
                    while !flags[1 - i].load(Ordering::SeqCst) {
                        assert!(Instant::now() < deadline, "peer task never started");
                        std::thread::yield_now();
                    }
                });
            }
        });
        assert!(flags[0].load(Ordering::SeqCst) && flags[1].load(Ordering::SeqCst));
    }

    #[test]
    fn sequential_pool_runs_inline_in_spawn_order() {
        let pool = ThreadPool::new(Parallelism::fixed(1));
        let mut order = Vec::new();
        pool.scope(|scope| {
            scope.spawn(|| order.push(1));
        });
        assert_eq!(order, vec![1]);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn worker_count_is_reported() {
        let pool = ThreadPool::new(Parallelism::fixed(3));
        pool.scope(|scope| assert_eq!(scope.workers(), 3));
        ThreadPool::new(Parallelism::fixed(1)).scope(|scope| assert_eq!(scope.workers(), 1));
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let pool = ThreadPool::new(Parallelism::fixed(4));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(vec![1, 2, 3, 4, 5], |x| {
                assert!(x != 3, "boom on {x}");
                x
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn panics_propagate_from_sequential_pools_too() {
        let pool = ThreadPool::new(Parallelism::fixed(1));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(vec![1, 2, 3], |x| {
                assert!(x != 2, "boom");
                x
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn scope_returns_the_closure_value() {
        let pool = ThreadPool::new(Parallelism::fixed(2));
        let value = pool.scope(|_| 42);
        assert_eq!(value, 42);
    }

    #[test]
    fn tasks_can_borrow_stack_data() {
        let pool = ThreadPool::new(Parallelism::fixed(4));
        let data: Vec<u64> = (0..64).collect();
        let total = AtomicUsize::new(0);
        pool.scope(|scope| {
            for chunk in data.chunks(8) {
                let total = &total;
                scope.spawn(move || {
                    let sum: u64 = chunk.iter().sum();
                    total.fetch_add(sum as usize, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.into_inner(), (0..64).sum::<u64>() as usize);
    }
}
