//! Streaming JSONL matrix reports.
//!
//! A monolithic run that crashes after 40 minutes used to leave *nothing*:
//! the `--json` report was serialized only once every cell had finished.
//! [`ReportWriter`] instead appends one self-delimiting JSON line per
//! **completed** matrix cell, flushed as cells finish, so a crashed or
//! killed run still leaves a parseable partial report — and per-shard CI
//! jobs each leave a part-file that `bench-gate merge` reassembles into the
//! full-matrix report.
//!
//! Each line is a [`CellRecord`]: the shard name, the cell's deterministic
//! run-order index within the shard, and the full [`RunResult`]. Because
//! cells finish out of order under the thread pool, the *line order* of a
//! JSONL file is nondeterministic; [`merge_cells`] restores the canonical
//! order (shard registry order, then cell index), which is what makes a
//! merge of shard part-files byte-identical to a monolithic run's report.

use crate::gate::GateError;
use crate::harness::{RunResult, ShardRegistry};
use serde::{Serialize, Value};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// One streamed matrix cell: shard name, run-order index, and the result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CellRecord {
    /// Name of the shard the cell belongs to, e.g. `"table2/small"`.
    pub shard: String,
    /// Deterministic run-order index of the cell within its shard.
    pub index: usize,
    /// The cell's run result.
    pub result: RunResult,
}

/// A cell read back from a JSONL stream. The result is kept as a parsed
/// [`Value`] tree: merging re-renders the tree verbatim (which preserves
/// byte-identity with the monolithic report), and the gate extracts only the
/// metrics it compares.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedCell {
    /// Name of the shard the cell belongs to.
    pub shard: String,
    /// Run-order index of the cell within its shard.
    pub index: usize,
    /// The serialized [`RunResult`] tree.
    pub result: Value,
}

/// Appends one JSON line per completed matrix cell to a `.jsonl` file.
///
/// `append` is safe to call from several pool workers at once (the file
/// handle sits behind a mutex) and flushes after every line, so the file is
/// a valid JSONL prefix at all times — killing the process mid-run loses at
/// most the cells that had not finished.
#[derive(Debug)]
pub struct ReportWriter {
    file: Mutex<std::fs::File>,
    path: PathBuf,
}

impl ReportWriter {
    /// Creates (truncating) the stream file.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be created; the experiment binaries treat
    /// an unwritable report path as fatal.
    #[must_use]
    pub fn create(path: &Path) -> Self {
        let file = std::fs::File::create(path)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
        ReportWriter {
            file: Mutex::new(file),
            path: path.to_path_buf(),
        }
    }

    /// The path the writer streams to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one completed cell as a single JSON line and flushes it.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors (see [`ReportWriter::create`]).
    pub fn append(&self, shard: &str, index: usize, result: &RunResult) {
        let record = CellRecord {
            shard: shard.to_string(),
            index,
            result: result.clone(),
        };
        let line = serde_json::to_jsonl_line(&record);
        let mut file = self.file.lock().expect("report stream poisoned");
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .unwrap_or_else(|e| panic!("cannot append to {}: {e}", self.path.display()));
    }
}

/// Parses the text of a JSONL cell stream (see [`ReportWriter`]).
///
/// # Errors
///
/// Returns [`GateError::Parse`] on a malformed line or a record missing the
/// `shard`/`index`/`result` fields.
pub fn parse_cells(text: &str) -> Result<Vec<ParsedCell>, GateError> {
    let lines = serde_json::from_str_jsonl(text).map_err(|e| GateError::Parse(e.to_string()))?;
    lines
        .into_iter()
        .enumerate()
        .map(|(line, record)| {
            let field = |key: &str| {
                record
                    .get(key)
                    .ok_or_else(|| GateError::Parse(format!("record {line}: missing `{key}`")))
            };
            let shard = field("shard")?
                .as_str()
                .ok_or_else(|| GateError::Parse(format!("record {line}: `shard` is not a string")))?
                .to_string();
            let index = field("index")?
                .as_i64()
                .and_then(|i| usize::try_from(i).ok())
                .ok_or_else(|| {
                    GateError::Parse(format!(
                        "record {line}: `index` is not a non-negative integer"
                    ))
                })?;
            let result = field("result")?.clone();
            Ok(ParsedCell {
                shard,
                index,
                result,
            })
        })
        .collect()
}

/// Loads and parses one JSONL cell stream.
///
/// # Errors
///
/// Returns [`GateError::Io`] if the file cannot be read and
/// [`GateError::Parse`] if a record is malformed.
pub fn read_cells(path: &Path) -> Result<Vec<ParsedCell>, GateError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| GateError::Io(format!("{}: {e}", path.display())))?;
    parse_cells(&text)
}

/// Like [`parse_cells`], but forgives an **unterminated** malformed final
/// line — the artifact a SIGKILL leaves when it lands mid-append (the
/// writer appends one newline-terminated line per cell and flushes it, so
/// only an unfinished write can leave a tail without its newline). The
/// valid prefix parses normally and the dropped tail's parse error is
/// returned alongside it, so callers can warn; the lost cell then surfaces
/// as MISSING when the merged matrix is gated. A malformed line anywhere
/// *before* the tail — or a malformed final line that *is*
/// newline-terminated, which a crash cannot produce — is data corruption,
/// not a crash artifact, and still fails.
///
/// # Errors
///
/// Returns [`GateError::Parse`] when the stream is malformed beyond an
/// unterminated final line.
fn parse_cells_lossy(text: &str) -> Result<(Vec<ParsedCell>, Option<String>), GateError> {
    match parse_cells(text) {
        Ok(cells) => Ok((cells, None)),
        Err(error) => {
            if text.ends_with('\n') {
                // Every line made it out whole: whatever is malformed was
                // written that way.
                return Err(error);
            }
            let prefix = match text.rfind('\n') {
                Some(newline) => &text[..=newline],
                None => "",
            };
            match parse_cells(prefix) {
                Ok(cells) => Ok((cells, Some(error.to_string()))),
                Err(_) => Err(error),
            }
        }
    }
}

/// Loads one JSONL cell stream, tolerating a crash-torn final line: an
/// unterminated last line that does not parse is dropped, and its error is
/// returned alongside the cells.
///
/// # Errors
///
/// Returns [`GateError::Io`] if the file cannot be read, or
/// [`GateError::Parse`] when more than the final line is malformed.
pub fn read_cells_lossy(path: &Path) -> Result<(Vec<ParsedCell>, Option<String>), GateError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| GateError::Io(format!("{}: {e}", path.display())))?;
    parse_cells_lossy(&text)
}

/// Reassembles shard part-files into canonical full-matrix order: shards in
/// registry order (unknown shard names after the known ones, alphabetically),
/// then cells by run-order index. Rejects duplicate `(shard, index)` cells —
/// the same shard streamed twice into one merge is operator error, not data.
///
/// # Errors
///
/// Returns [`GateError::Parse`] on duplicate cells.
pub fn merge_cells(
    files: Vec<Vec<ParsedCell>>,
    shards: &ShardRegistry,
) -> Result<Vec<ParsedCell>, GateError> {
    let mut cells: Vec<ParsedCell> = files.into_iter().flatten().collect();
    let shard_rank = |name: &str| {
        shards
            .names()
            .iter()
            .position(|n| *n == name)
            .unwrap_or(usize::MAX)
    };
    cells.sort_by(|a, b| {
        shard_rank(&a.shard)
            .cmp(&shard_rank(&b.shard))
            .then_with(|| a.shard.cmp(&b.shard))
            .then_with(|| a.index.cmp(&b.index))
    });
    for pair in cells.windows(2) {
        if pair[0].shard == pair[1].shard && pair[0].index == pair[1].index {
            // Name the offending cell, not just its stream coordinates:
            // the operator greps the verdict table by compiler/benchmark.
            let label = |key: &str| {
                pair[0]
                    .result
                    .get(key)
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_string()
            };
            return Err(GateError::Parse(format!(
                "duplicate cell {}#{} ({} on {}) — was the same shard report passed twice?",
                pair[0].shard,
                pair[0].index,
                label("compiler"),
                label("benchmark")
            )));
        }
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::DEFAULT_SEED;
    use crate::{run_instance, BackendRegistry, ENOLA};
    use powermove_benchmarks::{generate, BenchmarkFamily};

    fn sample_result() -> RunResult {
        let registry = BackendRegistry::standard();
        let instance = generate(BenchmarkFamily::Bv, 8, DEFAULT_SEED);
        run_instance(&instance, 1, registry.entry(ENOLA).unwrap())
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "powermove-report-{tag}-{}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn writer_streams_parseable_cells() {
        let result = sample_result();
        let path = temp_path("stream");
        let writer = ReportWriter::create(&path);
        assert_eq!(writer.path(), path.as_path());
        writer.append("table2/small", 0, &result);
        writer.append("table2/small", 1, &result);
        let cells = read_cells(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].shard, "table2/small");
        assert_eq!(cells[1].index, 1);
        assert_eq!(
            cells[0].result.get("compiler").and_then(Value::as_str),
            Some("enola")
        );
    }

    #[test]
    fn partial_stream_with_truncated_tail_still_parses_whole_lines() {
        let result = sample_result();
        let path = temp_path("partial");
        let writer = ReportWriter::create(&path);
        writer.append("fig6/sweep", 0, &result);
        writer.append("fig6/sweep", 1, &result);
        drop(writer);
        // Simulate a crash mid-append: keep line 1 plus half of line 2.
        let text = std::fs::read_to_string(&path).unwrap();
        let first_len = text.find('\n').unwrap() + 1;
        std::fs::write(&path, &text[..first_len + 40]).unwrap();
        let err = read_cells(&path).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        // A crash *between* appends (the flush boundary) parses cleanly.
        std::fs::write(&path, &text[..first_len]).unwrap();
        let cells = read_cells(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].index, 0);
    }

    #[test]
    fn merge_orders_by_shard_registry_then_index() {
        let result = sample_result();
        let value = serde_json::to_value(&result);
        let cell = |shard: &str, index: usize| ParsedCell {
            shard: shard.to_string(),
            index,
            result: value.clone(),
        };
        let shards = ShardRegistry::standard(DEFAULT_SEED);
        let merged = merge_cells(
            vec![
                vec![cell("fig6/sweep", 1), cell("fig6/sweep", 0)],
                vec![cell("table2/large", 0)],
                vec![cell("custom/extra", 0), cell("table2/small", 0)],
            ],
            &shards,
        )
        .unwrap();
        let order: Vec<(String, usize)> =
            merged.iter().map(|c| (c.shard.clone(), c.index)).collect();
        assert_eq!(
            order,
            vec![
                ("table2/small".to_string(), 0),
                ("table2/large".to_string(), 0),
                ("fig6/sweep".to_string(), 0),
                ("fig6/sweep".to_string(), 1),
                ("custom/extra".to_string(), 0),
            ]
        );
    }

    #[test]
    fn merge_rejects_duplicate_cells_naming_the_offender() {
        let result = sample_result();
        let value = serde_json::to_value(&result);
        let cell = ParsedCell {
            shard: "table2/small".to_string(),
            index: 3,
            result: value,
        };
        let shards = ShardRegistry::standard(DEFAULT_SEED);
        let err = merge_cells(vec![vec![cell.clone()], vec![cell]], &shards).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("duplicate"), "{message}");
        assert!(message.contains("table2/small#3"), "{message}");
        // The offending cell is named, not just its stream coordinates.
        assert!(message.contains("enola"), "{message}");
        assert!(message.contains(&result.benchmark), "{message}");
    }

    #[test]
    fn duplicate_detection_survives_results_without_name_fields() {
        let cell = ParsedCell {
            shard: "table2/small".to_string(),
            index: 0,
            result: Value::Object(vec![]),
        };
        let shards = ShardRegistry::standard(DEFAULT_SEED);
        let err = merge_cells(vec![vec![cell.clone()], vec![cell]], &shards).unwrap_err();
        assert!(err.to_string().contains("? on ?"), "{err}");
    }

    #[test]
    fn lossy_parse_keeps_the_valid_prefix_of_a_torn_stream() {
        let result = sample_result();
        let path = temp_path("lossy");
        let writer = ReportWriter::create(&path);
        writer.append("fig6/sweep", 0, &result);
        writer.append("fig6/sweep", 1, &result);
        drop(writer);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let first_len = text.find('\n').unwrap() + 1;

        // SIGKILL mid-append: half of line 2 survives. Strict parsing
        // errors; lossy parsing keeps line 1 and reports the dropped tail.
        let torn = &text[..first_len + 40];
        assert!(parse_cells(torn).is_err());
        let (cells, dropped) = parse_cells_lossy(torn).unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].index, 0);
        assert!(dropped.unwrap().contains("line 2"));

        // Garbage bytes as the tail line behave the same way …
        let garbage = format!("{}not json at all", &text[..first_len]);
        let (cells, dropped) = parse_cells_lossy(&garbage).unwrap();
        assert_eq!(cells.len(), 1);
        assert!(dropped.is_some());

        // … a clean stream reports nothing dropped …
        let (cells, dropped) = parse_cells_lossy(&text).unwrap();
        assert_eq!(cells.len(), 2);
        assert!(dropped.is_none());

        // … corruption before the final line is not a crash artifact …
        let mid_corrupt = format!("broken\n{}", &text[first_len..]);
        assert!(parse_cells_lossy(&mid_corrupt).is_err());

        // … and neither is a malformed final line that was fully written
        // out (newline-terminated): the per-line flush means a crash can
        // only leave an unterminated tail.
        let terminated_bad = format!("{}{{\"index\": 0}}\n", &text[..first_len]);
        assert!(parse_cells_lossy(&terminated_bad).is_err());
    }

    #[test]
    fn read_cells_lossy_round_trips_through_a_file() {
        let result = sample_result();
        let path = temp_path("lossy-file");
        let writer = ReportWriter::create(&path);
        writer.append("table2/small", 0, &result);
        drop(writer);
        // Append a torn half-line as a crash would.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"shard\": \"table2/sm");
        std::fs::write(&path, &text).unwrap();
        let (cells, dropped) = read_cells_lossy(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(cells.len(), 1);
        assert!(dropped.is_some());
        assert!(read_cells_lossy(&PathBuf::from("/nonexistent/x.jsonl")).is_err());
    }

    #[test]
    fn parse_cells_reports_missing_fields() {
        assert!(parse_cells(r#"{"index": 0, "result": {}}"#)
            .unwrap_err()
            .to_string()
            .contains("shard"));
        assert!(parse_cells(r#"{"shard": "s", "index": -1, "result": {}}"#)
            .unwrap_err()
            .to_string()
            .contains("index"));
        assert!(parse_cells(r#"{"shard": "s", "index": 0}"#)
            .unwrap_err()
            .to_string()
            .contains("result"));
        assert_eq!(parse_cells("").unwrap(), Vec::new());
    }
}
