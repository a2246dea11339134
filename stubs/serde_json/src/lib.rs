//! Offline stand-in for `serde_json`: streams any [`Serialize`] value as
//! JSON text through the vendored [`Serializer`] — into a `String`
//! ([`to_string`], [`to_string_pretty`]) or any [`fmt::Write`] sink
//! ([`to_writer`]), with no intermediate tree — and parses JSON text into a
//! [`Value`] tree ([`from_str`]). There is no typed, derive-based parsing:
//! callers that read JSON (e.g. the `bench-gate` baseline loader) extract
//! fields from the parsed [`Value`] explicitly.

pub use serde::{Serializer, Value};

use serde::Serialize;
use std::fmt;

/// Error type mirroring `serde_json::Error`.
///
/// Produced only by the parsing half ([`from_str`]); the vendored serializer
/// is infallible and keeps `serde_json::to_string(...)?` call sites
/// source-compatible.
#[derive(Debug)]
pub struct Error {
    message: String,
}

impl Error {
    fn parse(message: impl Into<String>, offset: usize) -> Self {
        Error {
            message: format!("{} at byte {offset}", message.into()),
        }
    }

    fn raw(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for Error {}

/// Builds a value's [`Value`] tree, for the callers that need one: the tree
/// is parsed back from the value's compact JSON, so it renders to exactly
/// those bytes again.
///
/// # Panics
///
/// Never in practice: the compact writer only emits JSON the parser reads.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    let text = to_string(value).expect("serialization is infallible");
    from_str(&text).expect("the compact writer emits valid JSON")
}

/// Streams a value's compact JSON into a [`fmt::Write`] sink — byte for
/// byte what [`to_string`] returns, without building the `String`.
pub fn to_writer<W: fmt::Write + ?Sized, T: Serialize + ?Sized>(out: &mut W, value: &T) {
    value.serialize(&mut Serializer::compact(out));
}

/// Serializes a value to a compact JSON string.
///
/// # Errors
///
/// Never fails; the `Result` mirrors the real `serde_json` signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    to_writer(&mut out, value);
    Ok(out)
}

/// Serializes a value to a pretty-printed JSON string.
///
/// # Errors
///
/// Never fails; the `Result` mirrors the real `serde_json` signature.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.serialize(&mut Serializer::pretty(&mut out));
    Ok(out)
}

/// Serializes a value as one newline-terminated JSON Lines record (compact
/// JSON followed by `\n`), suitable for appending to a `.jsonl` stream where
/// every record must stay on its own line.
///
/// The compact renderer never emits raw newlines (strings escape them as
/// `\n`), so the produced line is always a complete, self-delimiting record.
pub fn to_jsonl_line<T: Serialize + ?Sized>(value: &T) -> String {
    let mut line = to_string(value).expect("serialization is infallible");
    line.push('\n');
    line
}

/// Parses newline-delimited JSON (JSON Lines) into one [`Value`] per
/// non-blank line.
///
/// Blank lines are skipped, so a file whose final record was fully written
/// parses cleanly even without a trailing newline — and a stream truncated
/// *between* records (e.g. by a killed writer) parses up to the truncation
/// point. Only a line that is itself malformed fails.
///
/// # Errors
///
/// Returns an [`Error`] naming the 1-based line number of the first
/// malformed record.
pub fn from_str_jsonl(text: &str) -> Result<Vec<Value>, Error> {
    let mut values = Vec::new();
    for (index, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value =
            from_str(line).map_err(|e| Error::raw(format!("line {}: {}", index + 1, e.message)))?;
        values.push(value);
    }
    Ok(values)
}

/// Parses JSON text into a [`Value`] tree.
///
/// Supports the full JSON grammar the workspace emits: objects, arrays,
/// strings (with escapes incl. `\uXXXX`), numbers (integers, floats,
/// exponents), booleans and `null`. Numbers without a fraction or exponent
/// that fit `i64` parse as [`Value::Int`], everything else as
/// [`Value::Float`].
///
/// # Errors
///
/// Returns an [`Error`] describing the first offending byte offset on
/// malformed input, including trailing garbage after the top-level value.
pub fn from_str(text: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_whitespace();
    let value = parser.parse_value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(Error::parse("trailing characters", parser.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::parse(
                format!("expected '{}'", char::from(byte)),
                self.pos,
            ))
        }
    }

    fn eat_literal(&mut self, literal: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(Error::parse(format!("expected '{literal}'"), self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Value::Null),
            Some(b't') => self.eat_literal("true", Value::Bool(true)),
            Some(b'f') => self.eat_literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(Error::parse("unexpected character", self.pos)),
            None => Err(Error::parse("unexpected end of input", self.pos)),
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::parse("expected ',' or ']'", self.pos)),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            entries.push((key, self.parse_value()?));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(Error::parse("expected ',' or '}'", self.pos)),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(Error::parse("unterminated string", start)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| Error::parse("unterminated escape", self.pos))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| Error::parse("truncated \\u escape", start))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::parse("invalid \\u escape", start))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by the
                            // workspace serializer; map lone surrogates to
                            // the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(Error::parse("invalid escape", start)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. Every `pos` mutation lands
                    // on a char boundary (ASCII structural bytes or whole
                    // scalars), so the slice below cannot panic.
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::parse("invalid number", start))?;
        if !is_float {
            if let Ok(int) = text.parse::<i64>() {
                return Ok(Value::Int(int));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::parse("invalid number", start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_json() {
        let v = Value::Object(vec![
            ("a".into(), Value::Int(1)),
            (
                "b".into(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
        ]);
        assert_eq!(to_string(&v).unwrap(), r#"{"a":1,"b":[true,null]}"#);
    }

    #[test]
    fn renders_pretty_json() {
        let v = Value::Object(vec![("a".into(), Value::Int(1))]);
        assert_eq!(to_string_pretty(&v).unwrap(), "{\n  \"a\": 1\n}");
    }

    #[test]
    fn escapes_strings() {
        let v = Value::String("a\"b\\c\nd".into());
        assert_eq!(to_string(&v).unwrap(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn whole_floats_keep_a_decimal_point() {
        assert_eq!(to_string(&2.0_f64).unwrap(), "2.0");
        assert_eq!(to_string(&2.5_f64).unwrap(), "2.5");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(from_str("null").unwrap(), Value::Null);
        assert_eq!(from_str("true").unwrap(), Value::Bool(true));
        assert_eq!(from_str("false").unwrap(), Value::Bool(false));
        assert_eq!(from_str("42").unwrap(), Value::Int(42));
        assert_eq!(from_str("-7").unwrap(), Value::Int(-7));
        assert_eq!(from_str("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(from_str("2.126e-11").unwrap(), Value::Float(2.126e-11));
        assert_eq!(from_str("1E3").unwrap(), Value::Float(1000.0));
        assert_eq!(from_str("\"hi\"").unwrap(), Value::String("hi".into()));
    }

    #[test]
    fn parses_containers_and_whitespace() {
        let v = from_str(" { \"a\" : [ 1 , 2.0 ] , \"b\" : { } } ").unwrap();
        assert_eq!(
            v,
            Value::Object(vec![
                (
                    "a".into(),
                    Value::Array(vec![Value::Int(1), Value::Float(2.0)])
                ),
                ("b".into(), Value::Object(vec![])),
            ])
        );
        assert_eq!(from_str("[]").unwrap(), Value::Array(vec![]));
    }

    #[test]
    fn parses_string_escapes() {
        assert_eq!(
            from_str(r#""a\"b\\c\ndA""#).unwrap(),
            Value::String("a\"b\\c\ndA".into())
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "tru", "1.2.3", "{\"a\":}", "[1] x", "nul"] {
            assert!(from_str(bad).is_err(), "{bad:?} should fail");
        }
        let err = from_str("[1,]").unwrap_err();
        assert!(err.to_string().contains("at byte"));
    }

    #[test]
    fn serializer_output_round_trips() {
        let original = Value::Object(vec![
            ("name".into(), Value::String("QAOA-regular3-30".into())),
            ("fidelity".into(), Value::Float(0.8653)),
            ("stages".into(), Value::Int(12)),
            ("tiny".into(), Value::Float(2.126e-11)),
            (
                "nested".into(),
                Value::Array(vec![Value::Bool(false), Value::Null]),
            ),
        ]);
        for text in [
            to_string(&original).unwrap(),
            to_string_pretty(&original).unwrap(),
        ] {
            assert_eq!(from_str(&text).unwrap(), original);
        }
    }

    #[test]
    fn jsonl_lines_round_trip() {
        let values = [
            Value::Object(vec![("cell".into(), Value::Int(0))]),
            Value::Object(vec![("cell".into(), Value::Float(1.5))]),
        ];
        let mut stream = String::new();
        for v in &values {
            stream.push_str(&to_jsonl_line(v));
        }
        assert_eq!(stream.matches('\n').count(), 2);
        let parsed = from_str_jsonl(&stream).unwrap();
        assert_eq!(parsed, values);
    }

    #[test]
    fn jsonl_skips_blank_lines_and_tolerates_missing_trailing_newline() {
        let parsed = from_str_jsonl("{\"a\":1}\n\n  \n{\"b\":2}").unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].get("b").and_then(Value::as_i64), Some(2));
        assert_eq!(from_str_jsonl("").unwrap(), Vec::<Value>::new());
    }

    #[test]
    fn jsonl_reports_the_offending_line() {
        let err = from_str_jsonl("{\"ok\":true}\n{\"broken\":\n{\"ok\":2}").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn jsonl_strings_with_newlines_stay_on_one_line() {
        let v = Value::Object(vec![("msg".into(), Value::String("a\nb".into()))]);
        let line = to_jsonl_line(&v);
        assert_eq!(line.matches('\n').count(), 1, "only the terminator");
        assert_eq!(from_str_jsonl(&line).unwrap(), vec![v]);
    }

    #[test]
    fn value_accessors_navigate_parsed_trees() {
        let v = from_str(r#"{"x": 1, "y": [2.5, "s"], "z": null}"#).unwrap();
        assert_eq!(v.get("x").and_then(Value::as_i64), Some(1));
        assert_eq!(v.get("x").and_then(Value::as_f64), Some(1.0));
        let y = v.get("y").and_then(Value::as_array).unwrap();
        assert_eq!(y[0].as_f64(), Some(2.5));
        assert_eq!(y[1].as_str(), Some("s"));
        assert!(v.get("z").unwrap().is_null());
        assert!(v.get("missing").is_none());
        assert_eq!(v.as_object().unwrap().len(), 3);
    }
}
