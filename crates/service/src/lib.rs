//! A long-running compile daemon with a content-addressed schedule cache.
//!
//! The PowerMove pipeline is a pure function of its `(circuit,
//! architecture, config)` input triple ([`powermove::compile`]), which
//! makes compile results cacheable and identical concurrent requests
//! coalescible. This crate builds the serving layer on top of that purity:
//!
//! * [`ScheduleCache`]: an LRU cache ([`LruCache`]) of emitted programs
//!   keyed by [`content_hash`](powermove::content_hash), with
//!   hit/miss/eviction counters — a hit is byte-identical to a cold compile
//!   by construction;
//! * a second [`LruCache`] of frozen front-end IRs keyed by
//!   [`stage_hash`](powermove::stage_hash): cold compiles that differ only
//!   in target architecture share one staged IR and replay only the
//!   route/emit back end;
//! * [`CompileService`]: thread-safe compile admission over the cache, with
//!   in-flight coalescing (identical concurrent requests share one
//!   compile);
//! * [`protocol`]: the JSONL frame protocol — one request or response
//!   object per line, correlated by `id`;
//! * [`Daemon`]: the serve loop, speaking the protocol over stdin/stdout
//!   or a Unix socket, with a flush-per-frame writer and an optional JSONL
//!   response log.
//!
//! The `powermove-serve` binary wraps [`Daemon`] for the command line; the
//! `powermove_client` example drives it with a concurrent request burst
//! and doubles as the CI smoke test.
//!
//! # Example
//!
//! ```
//! use powermove_exec::Parallelism;
//! use powermove_service::{CompileService, Daemon};
//!
//! let service = CompileService::new(16);
//! let daemon = Daemon::new(&service).with_parallelism(Parallelism::fixed(2));
//! let input = concat!(
//!     r#"{"id": 1, "benchmark": {"family": "QFT", "qubits": 6}}"#,
//!     "\n",
//!     r#"{"id": 2, "op": "shutdown"}"#,
//!     "\n",
//! );
//! let mut output = Vec::new();
//! let report = daemon.serve(input.as_bytes(), &mut output);
//! assert_eq!(report.frames, 2);
//! assert!(report.shutdown);
//! assert_eq!(service.compiles(), 1);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod cache;
mod daemon;
pub mod protocol;
mod service;

pub use cache::{CacheStats, LruCache, ScheduleCache};
pub use daemon::{Daemon, ServeReport};
pub use service::{CacheOutcome, CompileService, ServiceStats};
