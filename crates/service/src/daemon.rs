//! The serve loop: JSONL frames over stdio or a Unix socket.

use crate::protocol::{
    CompileReply, CompileRequest, FrameError, Request, ShutdownReply, StatsReply,
};
use crate::CompileService;
use powermove_exec::{Parallelism, ThreadPool};
use powermove_hardware::Architecture;
use serde::Serialize;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What one serve loop processed, returned when its input closes or a
/// shutdown frame arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeReport {
    /// Non-blank input lines consumed.
    pub frames: u64,
    /// Error frames written.
    pub errors: u64,
    /// Whether the loop ended on an explicit `shutdown` frame (as opposed
    /// to end of input).
    pub shutdown: bool,
}

/// Serializes frames to an output stream with the one-line-per-frame,
/// flush-after-every-line discipline of the bench report writer, so a
/// crash never truncates a frame and clients can stream responses as they
/// land. An optional log sink receives a copy of every frame.
struct FrameWriter<W: Write> {
    out: Mutex<W>,
    log: Option<Arc<Mutex<File>>>,
}

impl<W: Write> FrameWriter<W> {
    fn new(out: W, log: Option<Arc<Mutex<File>>>) -> Self {
        FrameWriter {
            out: Mutex::new(out),
            log,
        }
    }

    /// Writes one frame. The line is rendered before the lock is taken, so
    /// frames from concurrent handlers interleave line-atomically.
    fn write<T: Serialize>(&self, frame: &T) {
        let line = serde_json::to_jsonl_line(frame);
        {
            let mut out = self.out.lock().expect("frame writer lock poisoned");
            // Best effort: a closed pipe must not kill the daemon loop.
            let _ = out.write_all(line.as_bytes());
            let _ = out.flush();
        }
        if let Some(log) = &self.log {
            let mut log = log.lock().expect("frame log lock poisoned");
            let _ = log.write_all(line.as_bytes());
            let _ = log.flush();
        }
    }
}

/// Answers one parsed compile frame.
type CompileHandler = fn(&CompileService, &CompileRequest) -> Result<CompileReply, FrameError>;

/// The compile daemon: drives a [`CompileService`] from JSONL frame
/// streams.
///
/// One daemon can serve stdio ([`Daemon::serve`]) or a Unix socket
/// ([`Daemon::serve_unix`]); both share the same service, so the cache and
/// its counters span all connections. Compile frames are handled
/// concurrently on a work-stealing pool — identical concurrent requests
/// coalesce onto one compile — while `stats` and `shutdown` are answered
/// inline. Responses stream in completion order, correlated by `id`; the
/// shutdown acknowledgement is always the last frame written. Every frame
/// gets exactly one reply: a compile that panics is answered with an
/// `internal` error frame, and the loop keeps serving.
pub struct Daemon<'a> {
    service: &'a CompileService,
    parallelism: Parallelism,
    log: Option<Arc<Mutex<File>>>,
    handler: CompileHandler,
}

impl<'a> Daemon<'a> {
    /// Creates a daemon over `service` with worker count resolved from the
    /// environment ([`Parallelism::from_env`]).
    #[must_use]
    pub fn new(service: &'a CompileService) -> Self {
        Daemon {
            service,
            parallelism: Parallelism::from_env(),
            log: None,
            handler: handle_compile,
        }
    }

    /// Replaces the compile-frame handler, to inject faults.
    #[cfg(test)]
    fn with_handler(mut self, handler: CompileHandler) -> Self {
        self.handler = handler;
        self
    }

    /// Pins the handler pool's worker count.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Appends a copy of every response frame to a JSONL log file (created
    /// or truncated), e.g. for CI artifact upload.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be created.
    pub fn with_log(mut self, path: &Path) -> std::io::Result<Self> {
        self.log = Some(Arc::new(Mutex::new(File::create(path)?)));
        Ok(self)
    }

    /// Serves one frame stream until end of input or a `shutdown` frame.
    ///
    /// Malformed frames produce error responses and the loop continues —
    /// one bad client line never kills the daemon. On shutdown, in-flight
    /// compiles drain before the acknowledgement is written.
    pub fn serve(&self, input: impl BufRead, output: impl Write + Send) -> ServeReport {
        let writer = FrameWriter::new(output, self.log.clone());
        self.serve_frames(input, &writer)
    }

    fn serve_frames(
        &self,
        mut input: impl BufRead,
        writer: &FrameWriter<impl Write + Send>,
    ) -> ServeReport {
        let pool = ThreadPool::new(self.parallelism);
        let frames = AtomicU64::new(0);
        let errors = AtomicU64::new(0);
        let mut shutdown_id = None;
        let mut raw = Vec::new();
        pool.scope(|scope| {
            loop {
                // Only end of input or an I/O error ends the stream; a line
                // that is not UTF-8 is answered like any malformed frame.
                raw.clear();
                match input.read_until(b'\n', &mut raw) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let line = std::str::from_utf8(&raw);
                if line.is_ok_and(|line| line.trim().is_empty()) {
                    continue;
                }
                frames.fetch_add(1, Ordering::Relaxed);
                let request = line
                    .map_err(|e| FrameError::new(None, format!("frame is not valid UTF-8: {e}")))
                    .and_then(|line| Request::parse(line.trim_end_matches(['\r', '\n'])));
                match request {
                    Err(err) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        writer.write(&err.reply());
                    }
                    Ok(Request::Stats { id }) => writer.write(&StatsReply {
                        id,
                        ok: true,
                        stats: self.service.stats(),
                    }),
                    Ok(Request::Shutdown { id }) => {
                        shutdown_id = Some(id);
                        break;
                    }
                    Ok(Request::Compile(request)) => {
                        let (service, handler) = (self.service, self.handler);
                        let errors = &errors;
                        scope.spawn(move || match guarded(handler, service, &request) {
                            Ok(reply) => writer.write(&reply),
                            Err(err) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                                writer.write(&err.reply());
                            }
                        });
                    }
                }
            }
        });
        // The scope has drained every in-flight compile; the shutdown
        // acknowledgement is the daemon's final frame.
        if let Some(id) = shutdown_id {
            writer.write(&ShutdownReply {
                id,
                ok: true,
                shutdown: true,
            });
        }
        ServeReport {
            frames: frames.into_inner(),
            errors: errors.into_inner(),
            shutdown: shutdown_id.is_some(),
        }
    }

    /// Binds a Unix socket and serves connections until one of them sends a
    /// `shutdown` frame.
    ///
    /// Connections are served concurrently, each with its own frame stream
    /// over the shared service, so cache hits cross connection boundaries.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the socket cannot be bound. A pre-existing
    /// socket file at `path` is removed first (the conventional takeover
    /// for daemon restarts).
    #[cfg(unix)]
    pub fn serve_unix(&self, path: &Path) -> std::io::Result<ServeReport> {
        use std::os::unix::net::UnixListener;

        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let stop = AtomicBool::new(false);
        let frames = AtomicU64::new(0);
        let errors = AtomicU64::new(0);
        std::thread::scope(|s| {
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let stop = &stop;
                        let frames = &frames;
                        let errors = &errors;
                        s.spawn(move || {
                            stream
                                .set_nonblocking(false)
                                .expect("stream mode reset failed");
                            let reader = match stream.try_clone() {
                                Ok(clone) => BufReader::new(clone),
                                Err(_) => return,
                            };
                            let report = self.serve(reader, stream);
                            frames.fetch_add(report.frames, Ordering::Relaxed);
                            errors.fetch_add(report.errors, Ordering::Relaxed);
                            if report.shutdown {
                                stop.store(true, Ordering::SeqCst);
                            }
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(std::time::Duration::from_millis(10));
                    }
                    Err(_) => break,
                }
            }
        });
        let _ = std::fs::remove_file(path);
        Ok(ServeReport {
            frames: frames.into_inner(),
            errors: errors.into_inner(),
            shutdown: stop.into_inner(),
        })
    }
}

/// Runs `handler` on one compile frame, answering a panic with an
/// `internal` error for that frame so one faulty compile never takes the
/// daemon down. A panicking cold compile still wakes the requests
/// coalesced onto it (its in-flight guard is dropped while unwinding).
fn guarded(
    handler: CompileHandler,
    service: &CompileService,
    request: &CompileRequest,
) -> Result<CompileReply, FrameError> {
    panic::catch_unwind(AssertUnwindSafe(|| handler(service, request))).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("the compile panicked");
        Err(FrameError::new(
            Some(request.id),
            format!("internal: {message}"),
        ))
    })
}

/// Handles one compile request end to end: materialize the circuit, derive
/// the architecture, compile through the service, shape the reply. The
/// request is hashed once, inside the service, and the digest comes from
/// the cache entry.
fn handle_compile(
    service: &CompileService,
    request: &CompileRequest,
) -> Result<CompileReply, FrameError> {
    let circuit = request.circuit()?;
    let arch = Architecture::for_qubits(circuit.num_qubits()).with_num_aods(request.aods);
    let served = service
        .compile_keyed(&circuit, &arch, &request.config)
        .map_err(|e| FrameError::new(Some(request.id), format!("compile: {e}")))?;
    let program = served.entry.program();
    Ok(CompileReply {
        id: request.id,
        ok: true,
        cache: served.outcome.as_str().to_string(),
        key: served.key.hex(),
        digest: served.entry.digest().to_string(),
        qubits: program.num_qubits(),
        instructions: program.num_instructions(),
        stages: program.rydberg_stage_count(),
        program: request
            .include_program
            .then(|| serde_json::to_value(&**program)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn parse_lines(out: &[u8]) -> Vec<Value> {
        serde_json::from_str_jsonl(std::str::from_utf8(out).unwrap()).unwrap()
    }

    #[test]
    fn serve_answers_compile_stats_and_shutdown() {
        let service = CompileService::new(8);
        let daemon = Daemon::new(&service).with_parallelism(Parallelism::fixed(2));
        let input = concat!(
            r#"{"id": 1, "benchmark": {"family": "BV", "qubits": 6}}"#,
            "\n",
            r#"{"id": 2, "benchmark": {"family": "BV", "qubits": 6}}"#,
            "\n",
            r#"{"id": 3, "op": "stats"}"#,
            "\n",
            r#"{"id": 4, "op": "shutdown"}"#,
            "\n",
        );
        let mut out = Vec::new();
        let report = daemon.serve(input.as_bytes(), &mut out);
        assert_eq!(report.frames, 4);
        assert!(report.shutdown);
        let frames = parse_lines(&out);
        assert_eq!(frames.len(), 4);
        // The shutdown ack is last; compile replies precede it in some order.
        let last = frames.last().unwrap();
        assert_eq!(last.get("shutdown").and_then(Value::as_bool), Some(true));
        let digests: Vec<&str> = frames
            .iter()
            .filter(|f| f.get("digest").is_some())
            .filter_map(|f| f.get("digest").and_then(Value::as_str))
            .collect();
        assert_eq!(digests.len(), 2);
        assert_eq!(
            digests[0], digests[1],
            "identical requests, identical programs"
        );
    }

    #[test]
    fn non_utf8_line_is_an_error_frame_not_end_of_stream() {
        let service = CompileService::new(8);
        let daemon = Daemon::new(&service).with_parallelism(Parallelism::fixed(1));
        let mut input = Vec::new();
        input.extend_from_slice(b"{\"id\": 1, \"op\": \"stats\"}\n");
        input.extend_from_slice(b"\xff\xfe\n");
        input.extend_from_slice(b"{\"id\": 2, \"op\": \"stats\"}\n");
        input.extend_from_slice(b"{\"id\": 3, \"op\": \"shutdown\"}\n");
        let mut out = Vec::new();
        let report = daemon.serve(input.as_slice(), &mut out);
        assert_eq!(
            report,
            ServeReport {
                frames: 4,
                errors: 1,
                shutdown: true,
            }
        );
        let frames = parse_lines(&out);
        assert_eq!(frames.len(), 4);
        let error = &frames[1];
        assert_eq!(error.get("id"), Some(&Value::Null));
        assert!(error
            .get("error")
            .and_then(Value::as_str)
            .is_some_and(|message| message.contains("UTF-8")));
        assert_eq!(frames[2].get("id").and_then(Value::as_i64), Some(2));
        let last = frames.last().unwrap();
        assert_eq!(last.get("shutdown").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn malformed_frames_do_not_kill_the_loop() {
        let service = CompileService::new(8);
        let daemon = Daemon::new(&service).with_parallelism(Parallelism::fixed(1));
        let input = concat!(
            "this is not json\n",
            r#"{"op": "stats"}"#,
            "\n",
            r#"{"id": 2, "op": "teleport"}"#,
            "\n",
            r#"{"id": 3, "benchmark": {"family": "QFT", "qubits": 6}}"#,
            "\n",
            r#"{"id": 4, "op": "shutdown"}"#,
            "\n",
        );
        let mut out = Vec::new();
        let report = daemon.serve(input.as_bytes(), &mut out);
        assert_eq!(report.frames, 5);
        assert_eq!(report.errors, 3);
        assert!(report.shutdown);
        let frames = parse_lines(&out);
        assert_eq!(frames.len(), 5);
        let oks: Vec<bool> = frames
            .iter()
            .filter_map(|f| f.get("ok").and_then(Value::as_bool))
            .collect();
        assert_eq!(oks.iter().filter(|ok| !**ok).count(), 3);
        // The compile after the garbage still succeeded.
        assert!(frames
            .iter()
            .any(|f| f.get("id").and_then(Value::as_i64) == Some(3)
                && f.get("ok").and_then(Value::as_bool) == Some(true)));
    }

    #[test]
    fn a_panicking_compile_gets_one_error_reply_and_the_loop_keeps_serving() {
        fn faulty(
            service: &CompileService,
            request: &CompileRequest,
        ) -> Result<CompileReply, FrameError> {
            if request.id == 2 {
                panic!("injected fault in frame {}", request.id);
            }
            handle_compile(service, request)
        }
        let service = CompileService::new(8);
        let daemon = Daemon::new(&service)
            .with_parallelism(Parallelism::fixed(2))
            .with_handler(faulty);
        let input = concat!(
            r#"{"id": 1, "benchmark": {"family": "BV", "qubits": 6}}"#,
            "\n",
            r#"{"id": 2, "benchmark": {"family": "BV", "qubits": 6}}"#,
            "\n",
            r#"{"id": 3, "benchmark": {"family": "QFT", "qubits": 6}}"#,
            "\n",
            r#"{"id": 4, "op": "shutdown"}"#,
            "\n",
        );
        let mut out = Vec::new();
        let report = daemon.serve(input.as_bytes(), &mut out);
        assert_eq!(
            report,
            ServeReport {
                frames: 4,
                errors: 1,
                shutdown: true,
            }
        );
        let frames = parse_lines(&out);
        assert_eq!(frames.len(), 4);
        let replies_to = |id| {
            frames
                .iter()
                .filter(|f| f.get("id").and_then(Value::as_i64) == Some(id))
                .collect::<Vec<_>>()
        };
        let faulted = replies_to(2);
        assert_eq!(faulted.len(), 1, "exactly one reply to the panicking frame");
        assert_eq!(faulted[0].get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            faulted[0].get("error").and_then(Value::as_str),
            Some("internal: injected fault in frame 2")
        );
        for id in [1, 3] {
            let replies = replies_to(id);
            assert_eq!(replies.len(), 1);
            assert_eq!(replies[0].get("ok").and_then(Value::as_bool), Some(true));
        }
        let last = frames.last().unwrap();
        assert_eq!(last.get("shutdown").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn end_of_input_without_shutdown_reports_clean_exit() {
        let service = CompileService::new(8);
        let daemon = Daemon::new(&service).with_parallelism(Parallelism::fixed(1));
        let mut out = Vec::new();
        let report = daemon.serve(b"".as_slice(), &mut out);
        assert_eq!(report, ServeReport::default());
        assert!(out.is_empty());
    }
}
