//! JSON text in and out of [`Value`] trees, both directions at byte level.
//!
//! Implemented from scratch because `serde_json` is outside the allowed
//! dependency set (see DESIGN.md).
//!
//! **The writer** ([`write_json`], [`write_json_str`], [`write_json_f64`])
//! is the one place JSON text is produced: `Value`'s `Display`, the JSONL
//! exporter and `dj-store`'s frame → JSONL transcoder all call it, so every
//! output is byte-identical whichever path rendered it. Text that is
//! *stored* in place of a value — a `dj-store` frame's JSON columns — is
//! printed by its guard, [`write_exact_json`], which refuses a value its
//! text would not read back as (see `round_trips` below). The text
//! contract (also in `docs/formats.md`):
//!
//! * strings escape exactly `"` → `\"`, `\` → `\\`, LF → `\n`, CR → `\r`,
//!   TAB → `\t` and every other byte below `0x20` → `\u00xx` (lower-case
//!   hex); everything else — DEL, non-ASCII — is copied through as UTF-8;
//! * floats: non-finite → `null`; integral with `|x| < 1e15` → one decimal
//!   (`2.0`); anything else Rust's shortest round-trip form (`{x}`);
//! * ints `{i}`, bools `true`/`false`, `null`;
//! * no whitespace; map keys in the map's own (sorted) order.
//!
//! **The parser** ([`parse_json`]) accepts the full JSON grammar with
//! `\uXXXX` escapes (including surrogate pairs), walking the input's bytes
//! in place: the run between two escapes is copied in one piece and numbers
//! are parsed from the borrowed slice. Error offsets are byte offsets into
//! the input. Arrays and objects nest at most [`MAX_NESTING_DEPTH`] deep.
//!
//! **The record splitter** ([`parse_record`]) reads one JSONL record the
//! way the reader feeds a run: only the top-level fields the run's ops can
//! touch become `Value`s. Every other field is stepped over by a scanner
//! that recognizes canonical text — exactly what [`write_json`] prints for
//! the value [`parse_json`] would build — and its bytes go to the shard's
//! [`RawColumns`] as they are; a field the scanner does not recognize is
//! parsed and written, so its entry is canonical all the same. A field
//! whose value that text would not read back as (a non-finite float, an
//! integral float printed as an integer: see `round_trips`) demotes its
//! column for the rest of the shard: the field is parsed into the samples
//! from then on, and the entries the column already holds are parsed into
//! theirs ([`RawColumns::restore_demoted`]). A record the splitter cannot
//! read goes to [`parse_json`] whole, so it accepts and refuses exactly
//! what `parse_json` does, with the same error.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};

use crate::error::{DjError, Result};
use crate::raw::RawColumns;
use crate::sample::Sample;
use crate::value::Value;

/// How deep arrays and objects may nest in anything this workspace decodes
/// — JSON text here, tagged values in `dj-store` — serde_json's default.
/// The decoders recurse once per level; past the limit they return a typed
/// error instead of letting a nesting bomb overflow the stack, which no
/// error policy could catch.
pub const MAX_NESTING_DEPTH: usize = 128;

// ---- writer -----------------------------------------------------------

const LOW7: u64 = 0x0101_0101_0101_0101;
const HIGH: u64 = 0x8080_8080_8080_8080;

/// Whether any of the eight bytes of `w` is zero.
#[inline]
fn has_zero(w: u64) -> bool {
    w.wrapping_sub(LOW7) & !w & HIGH != 0
}

/// Whether any of the eight bytes of `w` needs escaping inside a JSON
/// string: below `0x20`, `"` or `\`.
#[inline]
fn word_needs_escape(w: u64) -> bool {
    let control = w.wrapping_sub(LOW7 * 0x20) & !w & HIGH != 0;
    control || has_zero(w ^ (LOW7 * b'"' as u64)) || has_zero(w ^ (LOW7 * b'\\' as u64))
}

/// The index of the first byte at or after `from` that cannot sit in a
/// JSON string as it is — `"`, `\` or a control byte — or `bytes.len()`.
/// Eight clean bytes are stepped over at a time. Such a byte is ASCII, so
/// in UTF-8 text the index is a char boundary.
fn next_special(bytes: &[u8], from: usize) -> usize {
    let mut i = from;
    while let Some(chunk) = bytes[i..].first_chunk::<8>() {
        if word_needs_escape(u64::from_le_bytes(*chunk)) {
            break;
        }
        i += 8;
    }
    while let Some(&b) = bytes.get(i) {
        if b == b'"' || b == b'\\' || b < 0x20 {
            break;
        }
        i += 1;
    }
    i
}

/// Write `s` as a JSON string literal: clean runs are copied whole, only
/// the bytes of the escape set are rewritten.
pub fn write_json_str<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.write_char('"')?;
    let mut start = 0;
    loop {
        let at = next_special(bytes, start);
        out.write_str(&s[start..at])?;
        let Some(&b) = bytes.get(at) else { break };
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => {
                out.write_str("\\u00")?;
                out.write_char(HEX[(b >> 4) as usize] as char)?;
                out.write_char(HEX[(b & 0xf) as usize] as char)?;
            }
        }
        start = at + 1;
    }
    out.write_char('"')
}

/// Write a float the way every output of this workspace renders it.
pub fn write_json_f64<W: fmt::Write>(out: &mut W, x: f64) -> fmt::Result {
    if !x.is_finite() {
        // JSON has no Inf/NaN literal; emit null like Python's json.
        out.write_str("null")
    } else if x.fract() == 0.0 && x.abs() < 1e15 {
        write!(out, "{x:.1}")
    } else {
        write!(out, "{x}")
    }
}

/// Write a whole [`Value`] tree as JSON text (what `Display` prints).
pub fn write_json<W: fmt::Write>(out: &mut W, v: &Value) -> fmt::Result {
    match v {
        Value::Null => out.write_str("null"),
        Value::Bool(true) => out.write_str("true"),
        Value::Bool(false) => out.write_str("false"),
        Value::Int(i) => write!(out, "{i}"),
        Value::Float(x) => write_json_f64(out, *x),
        Value::Str(s) => write_json_str(out, s),
        Value::List(items) => {
            out.write_char('[')?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_json(out, item)?;
            }
            out.write_char(']')
        }
        Value::Map(m) => {
            out.write_char('{')?;
            for (i, (k, item)) in m.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_json_str(out, k)?;
                out.write_char(':')?;
                write_json(out, item)?;
            }
            out.write_char('}')
        }
    }
}

/// Whether [`parse_json`] reads back `v` itself from what [`write_json`]
/// prints for it. Two floats print as another value: a non-finite one as
/// `null`, and an integral one of `|x| ≥ 1e15` that fits an `i64` as the
/// digits of an integer, which read back as [`Value::Int`].
pub(crate) fn round_trips(v: &Value) -> bool {
    match v {
        Value::Float(x) if !x.is_finite() => false,
        Value::Float(x) if x.fract() != 0.0 || x.abs() < 1e15 => true,
        Value::Float(x) => {
            // Printed as the digits of an integer, too long for the stack
            // unless they might fit an `i64`.
            let mut printed = StackText::default();
            let as_int = write_json_f64(&mut printed, *x).is_ok()
                && std::str::from_utf8(printed.as_bytes())
                    .is_ok_and(|text| text.parse::<i64>().is_ok());
            !as_int
        }
        Value::List(items) => items.iter().all(round_trips),
        Value::Map(map) => map.values().all(round_trips),
        Value::Null | Value::Bool(_) | Value::Int(_) | Value::Str(_) => true,
    }
}

/// Print `v`'s JSON text — exactly what [`write_json`] prints — at the end
/// of `out` and return its length, when [`parse_json_nested`] at `depth`
/// (the arrays and objects the text will sit inside) reads that text back
/// as `v` itself; otherwise refuse with `None`, writing nothing. It refuses
/// a float printed as another value (see `round_trips`) and a value nested
/// deeper than [`MAX_NESTING_DEPTH`] counts from `depth`. This is the
/// writer for text that is stored in place of a value.
pub fn write_exact_json(out: &mut Vec<u8>, v: &Value, depth: usize) -> Option<usize> {
    if !round_trips(v) || !nests_within(v, depth) {
        return None;
    }
    let start = out.len();
    // Writing into a byte buffer cannot fail.
    let _ = write_json(&mut ByteText(out), v);
    Some(out.len() - start)
}

/// Whether the parser, `depth` containers deep, reads `v` without passing
/// [`MAX_NESTING_DEPTH`]. Stops at the limit, however deep `v` goes.
fn nests_within(v: &Value, depth: usize) -> bool {
    match v {
        Value::List(items) => {
            depth < MAX_NESTING_DEPTH && items.iter().all(|i| nests_within(i, depth + 1))
        }
        Value::Map(map) => {
            depth < MAX_NESTING_DEPTH && map.values().all(|i| nests_within(i, depth + 1))
        }
        _ => true,
    }
}

/// A byte buffer the writer prints into.
struct ByteText<'a>(&'a mut Vec<u8>);

impl fmt::Write for ByteText<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// Text short enough for the stack: a number's canonical form, at most 24
/// bytes. Writing more is an error.
#[derive(Default)]
struct StackText {
    buf: [u8; 32],
    len: usize,
}

impl StackText {
    fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

impl fmt::Write for StackText {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len + s.len();
        self.buf
            .get_mut(self.len..end)
            .ok_or(fmt::Error)?
            .copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

// ---- parser -----------------------------------------------------------

/// Parse a JSON document into a [`Value`].
pub fn parse_json(input: &str) -> Result<Value> {
    parse_json_nested(input, 0)
}

/// Parse a JSON document that sits `depth` arrays and objects deep inside
/// another (a top-level field of a sample is 1 deep), so that the whole
/// nests at most [`MAX_NESTING_DEPTH`] levels.
pub fn parse_json_nested(input: &str, depth: usize) -> Result<Value> {
    let mut p = Parser::new(input, depth);
    let v = p.parse_value()?;
    p.finish()?;
    Ok(v)
}

/// Parse one JSONL record into a sample, leaving its top-level fields that
/// `parsed` does not name out of it: each becomes the open sample's entry
/// in `raw`, as canonical JSON text, and `raw` closes the sample. The
/// input bytes of a field are copied when the scanner confirms they are
/// what [`write_json`] prints; any other field is parsed and written, or,
/// when that text would read back as another value, kept in the sample and
/// its column demoted ([`RawColumns::demote`]).
///
/// Accepts and refuses exactly what `parse_json` followed by
/// [`Sample::from_value`] does, with the same error, and leaves no entry of
/// a refused record in `raw`: a record the splitter cannot read is handed
/// to `parse_json` whole.
pub fn parse_record(
    input: &str,
    parsed: &BTreeSet<String>,
    raw: &mut RawColumns,
) -> Result<Sample> {
    let split = Parser::new(input, 0).split_record(parsed, raw);
    let root = match split {
        Ok(root) => root,
        Err(_) => {
            raw.discard_open();
            let mut root = parse_json(input)?;
            if root.as_map().is_some() {
                raw.take_inert(&mut root, |key| parsed.contains(key));
            }
            root
        }
    };
    match Sample::from_value(root) {
        Ok(sample) => {
            raw.close();
            Ok(sample)
        }
        Err(e) => {
            raw.discard_open();
            Err(e)
        }
    }
}

/// A cursor over the input's bytes. `pos` only ever steps over ASCII bytes
/// one at a time (multi-byte characters are crossed inside string runs,
/// which end at an ASCII byte), so it always sits on a char boundary.
struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str, depth: usize) -> Parser<'a> {
        Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            depth,
        }
    }

    /// Only whitespace may follow the document.
    fn finish(&mut self) -> Result<()> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(())
    }

    /// The root object of a record, holding the fields `parsed` names;
    /// every other field goes to `raw`'s open sample. Any error here is
    /// re-judged by [`parse_json`], so only the verdict matters.
    fn split_record(&mut self, parsed: &BTreeSet<String>, raw: &mut RawColumns) -> Result<Value> {
        self.skip_ws();
        self.expect(b'{')?;
        self.depth = 1;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                let key = self.parse_key()?;
                self.skip_ws();
                self.expect(b':')?;
                if parsed.contains(key.as_ref()) || raw.is_demoted(&key) {
                    let value = self.parse_value()?;
                    map.insert(key.into_owned(), value);
                } else {
                    self.skip_ws();
                    let start = self.pos;
                    if self.scan_canonical() {
                        raw.push(&key, &self.src[start..self.pos]);
                    } else {
                        self.pos = start;
                        let value = self.parse_value()?;
                        if round_trips(&value) {
                            raw.push_with(&key, |text| {
                                let _ = write_json(text, &value);
                            });
                        } else {
                            raw.demote(&key);
                            map.insert(key.into_owned(), value);
                        }
                    }
                }
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.err("expected `,` or `}` in object")),
                }
            }
        }
        self.depth = 0;
        self.finish()?;
        Ok(Value::Map(map))
    }

    /// An object key, borrowed from the input when it holds no escape.
    fn parse_key(&mut self) -> Result<Cow<'a, str>> {
        let start = self.pos;
        self.expect(b'"')?;
        let run = next_special(self.bytes, self.pos);
        if self.bytes.get(run) == Some(&b'"') {
            self.pos = run + 1;
            return Ok(Cow::Borrowed(&self.src[start + 1..run]));
        }
        self.pos = start;
        self.parse_string().map(Cow::Owned)
    }

    // ---- the canonical-text scanner ------------------------------------
    //
    // `scan_*` step over one value at `pos` and answer whether its text is
    // canonical: valid JSON that `parse_value` reads to exactly where the
    // scan stopped, and that `write_json` prints back byte for byte. Any
    // doubt — invalid text included — answers `false` at once, and the
    // caller re-reads the value from its start with `parse_value`, which
    // decides. Nothing is allocated.

    fn scan_canonical(&mut self) -> bool {
        match self.peek() {
            Some(b'{') => self.scan_nested(Self::scan_object),
            Some(b'[') => self.scan_nested(Self::scan_array),
            Some(b'"') => self.scan_string().is_some(),
            Some(b't') => self.scan_literal("true"),
            Some(b'f') => self.scan_literal("false"),
            Some(b'n') => self.scan_literal("null"),
            Some(b'-' | b'0'..=b'9') => self.scan_number(),
            _ => false,
        }
    }

    /// One level deeper, within [`MAX_NESTING_DEPTH`].
    fn scan_nested(&mut self, scan: fn(&mut Self) -> bool) -> bool {
        if self.depth == MAX_NESTING_DEPTH {
            return false;
        }
        self.depth += 1;
        let canonical = scan(self);
        self.depth -= 1;
        canonical
    }

    fn scan_literal(&mut self, lit: &str) -> bool {
        let matched = self.bytes[self.pos..].starts_with(lit.as_bytes());
        self.pos += if matched { lit.len() } else { 0 };
        matched
    }

    /// `{`, keys in strictly ascending order, `}`, with no whitespace.
    /// A key holding an escape is not compared: it answers `false`.
    fn scan_object(&mut self) -> bool {
        self.pos += 1;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return true;
        }
        let mut prev: Option<&[u8]> = None;
        loop {
            let start = self.pos + 1;
            if self.peek() != Some(b'"') || self.scan_string() != Some(false) {
                return false;
            }
            let key = &self.bytes[start..self.pos - 1];
            if prev.is_some_and(|p| p >= key) || self.peek() != Some(b':') {
                return false;
            }
            prev = Some(key);
            self.pos += 1;
            if !self.scan_canonical() {
                return false;
            }
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return true;
                }
                _ => return false,
            }
        }
    }

    /// `[`, values, `]`, with no whitespace.
    fn scan_array(&mut self) -> bool {
        self.pos += 1;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return true;
        }
        loop {
            if !self.scan_canonical() {
                return false;
            }
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return true;
                }
                _ => return false,
            }
        }
    }

    /// A string whose escapes are exactly the writer's: `\"`, `\\`, `\n`,
    /// `\r`, `\t`, and `\u00xx` (lower-case hex) for the other bytes below
    /// `0x20`. `Some(escaped)` when canonical.
    fn scan_string(&mut self) -> Option<bool> {
        self.pos += 1;
        let mut escaped = false;
        loop {
            self.pos = next_special(self.bytes, self.pos);
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Some(escaped);
                }
                b'\\' => {
                    escaped = true;
                    match *self.bytes.get(self.pos + 1)? {
                        b'"' | b'\\' | b'n' | b'r' | b't' => self.pos += 2,
                        b'u' => {
                            let hex = self.bytes.get(self.pos + 2..self.pos + 6)?;
                            let low = |b: u8| matches!(b, b'0'..=b'9' | b'a'..=b'f');
                            let canonical = hex[..2] == *b"00"
                                && matches!(hex[2], b'0' | b'1')
                                && low(hex[3])
                                && !matches!(&hex[2..], b"09" | b"0a" | b"0d");
                            if !canonical {
                                return None;
                            }
                            self.pos += 6;
                        }
                        _ => return None,
                    }
                }
                // A raw control byte: invalid, for `parse_value` to refuse.
                _ => return None,
            }
        }
    }

    /// An integer in `i64` range as `i64`'s `Display` prints it, or a
    /// finite float as [`write_json_f64`] prints it.
    fn scan_number(&mut self) -> bool {
        let start = self.pos;
        let Ok(value) = self.parse_number() else {
            return false;
        };
        let text = &self.src[start..self.pos];
        let mut printed = StackText::default();
        let fits = match value {
            Value::Int(i) => write!(printed, "{i}").is_ok(),
            Value::Float(x) => x.is_finite() && write_json_f64(&mut printed, x).is_ok(),
            _ => false,
        };
        fits && printed.as_bytes() == text.as_bytes()
    }
    fn err(&self, msg: &str) -> DjError {
        DjError::Parse(format!("json: {msg} at offset {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'n') => self.parse_literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => {
                let c = self.src[self.pos..].chars().next().unwrap_or('\u{fffd}');
                Err(self.err(&format!("unexpected character `{c}`")))
            }
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse the array or object at `pos` one level deeper, refusing to go
    /// past [`MAX_NESTING_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_NESTING_DEPTH {
            return Err(self.err(&format!(
                "arrays and objects nested deeper than {MAX_NESTING_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_literal(&mut self, lit: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("invalid literal, expected `{lit}`")))
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::List(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::List(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        // The common string has no escape: one run, one exact allocation.
        let run = next_special(self.bytes, self.pos);
        let mut out = String::from(&self.src[self.pos..run]);
        self.pos = run;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self.peek();
                    self.pos += usize::from(escaped.is_some());
                    match escaped {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => out.push(self.parse_unicode_escape()?),
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
            let run = next_special(self.bytes, self.pos);
            out.push_str(&self.src[self.pos..run]);
            self.pos = run;
        }
    }

    /// The character of a `\uXXXX` escape whose `\u` is already consumed,
    /// pairing a high surrogate with the `\uXXXX` low surrogate after it.
    fn parse_unicode_escape(&mut self) -> Result<char> {
        let hi = self.parse_hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            self.expect(b'\\')?;
            self.expect(b'u')?;
            let lo = self.parse_hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            self.pos += 1;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.skip_digits();
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.skip_digits();
        }
        let text = &self.src[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("invalid float"))
        } else {
            // Fall back to float for integers beyond i64 range.
            text.parse::<i64>().map(Value::Int).or_else(|_| {
                text.parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| self.err("invalid number"))
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse_json("null").unwrap(), Value::Null);
        assert_eq!(parse_json("true").unwrap(), Value::Bool(true));
        assert_eq!(parse_json("false").unwrap(), Value::Bool(false));
        assert_eq!(parse_json("42").unwrap(), Value::Int(42));
        assert_eq!(parse_json("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse_json("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(parse_json("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(parse_json("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse_json(r#"{"a": [1, {"b": "c"}, null], "d": {"e": 2.5}}"#).unwrap();
        assert_eq!(v.get_path("d.e").unwrap().as_float(), Some(2.5));
        let list = v.get_path("a").unwrap().as_list().unwrap();
        assert_eq!(list.len(), 3);
        assert_eq!(list[1].get_path("b").unwrap().as_str(), Some("c"));
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            parse_json(r#""a\"b\\c\nd\teA""#).unwrap(),
            Value::Str("a\"b\\c\nd\teA".into())
        );
        // Escapes at the start, back to back, and after a long clean run.
        assert_eq!(
            parse_json(r#""\n\n0123456789abcdef\/Aé\b\f""#).unwrap(),
            Value::Str("\n\n0123456789abcdef/Aé\u{8}\u{c}".into())
        );
    }

    #[test]
    fn surrogate_pairs() {
        assert_eq!(parse_json(r#""😀""#).unwrap(), Value::Str("😀".into()));
        assert_eq!(
            parse_json(r#""\ud83d\ude00""#).unwrap(),
            Value::Str("😀".into())
        );
        assert!(parse_json(r#""\ud83d""#).is_err());
        assert!(parse_json(r#""\ud83dx""#).is_err());
        assert!(parse_json(r#""\ude00""#).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "01x",
            "\"unterminated",
            "\"raw\ncontrol\"",
            "\"bad \\x escape\"",
            "\"cut \\",
            "\"\\u12",
            "{\"a\":1} extra",
            "[1 2]",
            "nan",
            "-",
            "1e",
            "é",
        ] {
            assert!(parse_json(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn error_offsets_are_byte_offsets() {
        // `é` is two bytes: the stray `x` sits at byte 7 (char 6).
        let err = parse_json("[\"é\", x]").unwrap_err().to_string();
        assert!(
            err.contains("unexpected character `x` at offset 7"),
            "{err}"
        );
        let err = parse_json("[\"éé\", x]").unwrap_err().to_string();
        assert!(err.contains("at offset 9"), "{err}");
    }

    #[test]
    fn roundtrip_display_then_parse() {
        let mut v = Value::map();
        v.set_path("text", Value::from("line1\nline2\t\"quoted\""))
            .unwrap();
        v.set_path("meta.count", Value::Int(5)).unwrap();
        v.set_path("stats.ratio", Value::Float(0.25)).unwrap();
        v.set_path("tags", Value::from(vec!["a", "b"])).unwrap();
        let parsed = parse_json(&v.to_string()).unwrap();
        assert_eq!(parsed, v);
    }

    /// `levels` nested arrays (alternating with objects) around one `null`,
    /// as the value of a sample's `text`.
    fn nested(levels: usize) -> String {
        let mut doc = String::from("{\"text\":");
        for i in 1..levels {
            doc.push_str(if i % 2 == 0 { "{\"k\":" } else { "[" });
        }
        doc.push_str("null");
        for i in (1..levels).rev() {
            doc.push(if i % 2 == 0 { '}' } else { ']' });
        }
        doc.push('}');
        doc
    }

    #[test]
    fn nesting_stops_at_the_depth_limit_with_a_typed_error() {
        let at_limit = parse_json(&nested(MAX_NESTING_DEPTH)).unwrap();
        let mut depth = 0;
        let mut v = &at_limit;
        while let Some(inner) = v
            .as_list()
            .and_then(|l| l.first())
            .or(v.as_map().and_then(|m| m.values().next()))
        {
            depth += 1;
            v = inner;
        }
        assert_eq!((depth, v), (MAX_NESTING_DEPTH, &Value::Null));

        let past = nested(MAX_NESTING_DEPTH + 1);
        let err = parse_json(&past).unwrap_err();
        // The offset is the opening bracket of level 129.
        let offset = past
            .match_indices(['[', '{'])
            .nth(MAX_NESTING_DEPTH)
            .unwrap()
            .0;
        assert!(matches!(err, DjError::Parse(_)), "{err:?}");
        assert!(
            err.to_string().ends_with(&format!("at offset {offset}")),
            "{err}"
        );

        // A nesting bomb far past any stack: 200 000 levels.
        let bomb = format!(
            "{{\"text\": {}{}}}",
            "[".repeat(200_000),
            "]".repeat(200_000)
        );
        assert!(matches!(parse_json(&bomb), Err(DjError::Parse(_))));
    }

    /// `parse_record` against `parse_json`: the same verdict and error, the
    /// same sample once the raw entries are parsed back in, and every entry
    /// what `write_json` prints for its field.
    fn splits_like_parse_json(line: &str, parsed: &[&str]) -> Option<Vec<(String, String)>> {
        let parsed: BTreeSet<String> = parsed.iter().map(|s| s.to_string()).collect();
        let mut raw = RawColumns::new();
        raw.push("left", "\"over\"");
        raw.close();
        let want = parse_json(line).and_then(Sample::from_value);
        let got = parse_record(line, &parsed, &mut raw);
        match (got, want) {
            (Ok(sample), Ok(want)) => {
                assert_eq!(raw.len(), 2, "{line}");
                let mut whole = sample.into_value();
                let mut entries = Vec::new();
                for (name, text) in raw.sample_entries(1) {
                    assert!(!parsed.contains(name), "{line}: {name} was parsed");
                    assert!(!raw.is_demoted(name), "{line}: {name} was demoted");
                    let value = want.value().get_path(name).unwrap();
                    assert_eq!(text, value.to_string(), "{line}: {name}");
                    whole
                        .as_map_mut()
                        .unwrap()
                        .insert(name.into(), parse_json(text).unwrap());
                    entries.push((name.to_string(), text.to_string()));
                }
                // The two are one record, value for value: no entry reads
                // back as another value than the one it was printed from.
                assert_eq!(&whole, want.value(), "{line}");
                assert_eq!(whole.to_string(), want.value().to_string(), "{line}");
                Some(entries)
            }
            (Err(got), Err(want)) => {
                assert_eq!(got.to_string(), want.to_string(), "{line}");
                assert_eq!((raw.len(), raw.text_len()), (1, 6), "{line}: left debris");
                None
            }
            (got, want) => panic!("{line}: {got:?} vs {want:?}"),
        }
    }

    #[test]
    fn a_record_splits_into_its_parsed_fields_and_canonical_raw_text() {
        let canonical = r#"{"text":"t","url":"https:\/\/x","h":{"a":[1,-2,0.5,-0.0,true,null],"b":"q\"\\\n\u0001"}}"#;
        let entries = splits_like_parse_json(canonical, &["text"]).unwrap();
        assert_eq!(entries.len(), 2);
        // Non-canonical text of every kind is parsed and written instead.
        for line in [
            r#"{"text":"t", "m" : { "b" : 1 , "a" : 2 } }"#,
            r#"{"text":"t","m":"\/\u0041\u001F\u000a\b\f\ud83d\ude00"}"#,
            r#"{"text":"t","m":[1.0e3,-0,01,1E2,99999999999999999999,1e999,2.50]}"#,
            r#"{"text":"t","m":{"b":1,"a":2},"n":{"a":1,"a":2},"o":{"\n":1}}"#,
            r#"{"m":1,"m":{"z":[]},"text":"x","text":"y"}"#,
            r#"{"text":"t","m":1700000000000000.0,"n":[1e999],"o":{"a":-1e15}}"#,
            r#"{"m":2,"m":1e999,"n":1e999,"n":3}"#,
            r#"{}"#,
            r#" {"text":"only"} "#,
        ] {
            splits_like_parse_json(line, &["text"]);
            splits_like_parse_json(line, &[]);
        }
        // Refused exactly as parse_json refuses, with nothing left behind.
        for line in [
            r#"{"text":"t","m":"\x"}"#,
            r#"{"text":"t","m":[1,}"#,
            r#"{"text":"t","m":tru}"#,
            r#"{"text":"t","m":"raw
control"}"#,
            r#"{"text":"t","m":1} trailing"#,
            r#"{"text":"t","m":{"a":1"#,
            r#"[1,2]"#,
            r#""just a string""#,
            r#"{"text":"t","m":"\ud83d"}"#,
        ] {
            assert!(splits_like_parse_json(line, &["text"]).is_none(), "{line}");
        }
        // Nesting counts from the record's root, on both paths.
        for levels in [MAX_NESTING_DEPTH, MAX_NESTING_DEPTH + 1] {
            let line = nested(levels).replace("\"text\"", "\"m\"");
            splits_like_parse_json(&line, &["text"]);
        }
    }

    /// `round_trips` is what the writer and the parser do.
    #[test]
    fn round_trips_says_whether_a_value_reads_back_from_its_text() {
        let two63 = 2f64.powi(63);
        let floats = [
            0.0,
            -0.0,
            0.5,
            1e-7,
            2.5e14,
            999_999_999_999_999.0,
            1e15,
            -1e15,
            1.7e15,
            1e15 + 0.5,
            9.2e18,
            two63,
            -two63,
            -two63 * 2.0,
            1e20,
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for x in floats {
            let v = Value::Float(x);
            let back = parse_json(&v.to_string()).unwrap();
            assert_eq!(round_trips(&v), back == v, "{x}: read back as {back:?}");
        }
        assert!(round_trips(
            &parse_json(r#"{"a":[1,"s",null,true,2.5]}"#).unwrap()
        ));
        let nested = Value::from(vec![Value::Int(1), Value::Float(f64::INFINITY)]);
        assert!(!round_trips(&nested));
    }

    /// The guarded writer prints what `write_json` prints, and refuses
    /// exactly what `round_trips` refuses and what the parser would not
    /// read back at the depth given.
    #[test]
    fn the_guarded_writer_prints_only_text_that_reads_back() {
        let values = [
            parse_json(r#"{"a":[1,"s\n\"",null,true,2.5],"b":{}}"#).unwrap(),
            Value::Str("中文 \u{1} \\".into()),
            Value::Float(-0.0),
            Value::Float(1e20),
            Value::Float(1e16),
            Value::Float(1.7e15),
            Value::Float(f64::NAN),
            Value::from(vec![Value::Int(1), Value::Float(f64::INFINITY)]),
        ];
        for v in values {
            let mut out = b"x".to_vec();
            let len = write_exact_json(&mut out, &v, 0);
            if round_trips(&v) {
                assert_eq!(out[1..], *v.to_string().as_bytes(), "{v:?}");
                assert_eq!(len, Some(out.len() - 1));
            } else {
                assert_eq!((len, &out[..]), (None, &b"x"[..]), "{v:?}");
            }
        }
        // Nested as deep as the parser reads from `depth`, and one deeper.
        let mut v = Value::Null;
        for levels in 1..=MAX_NESTING_DEPTH + 1 {
            v = Value::List(vec![v]);
            for depth in [0, 1, 5] {
                let text = v.to_string();
                let reads = parse_json_nested(&text, depth).is_ok();
                let written = write_exact_json(&mut Vec::new(), &v, depth);
                assert_eq!(written.is_some(), reads, "{levels} levels at {depth}");
                assert_eq!(reads, levels + depth <= MAX_NESTING_DEPTH);
            }
        }
    }

    /// A field with a value that would read back as another demotes its
    /// column for the rest of the shard: the entries the column already
    /// held are parsed into their samples, so the shard holds what a whole
    /// parse of each record holds.
    #[test]
    fn a_value_that_reads_back_as_another_demotes_its_column() {
        let lines = [
            r#"{"text":"a","m":1,"u":"x"}"#,
            r#"{"text":"b","u":"y"}"#,
            r#"{"text":"c","m": 2.0,"u":"z"}"#,
            r#"{"text":"d","m":1700000000000000.0,"u":"w"}"#,
            r#"{"text":"e","m":"s","u":1e999}"#,
            r#"{"text":"f","m":3,"u":"v"}"#,
        ];
        let parsed: BTreeSet<String> = ["text".to_string()].into();
        let mut raw = RawColumns::new();
        let mut shard = crate::Dataset::new();
        for line in lines {
            shard.push(parse_record(line, &parsed, &mut raw).unwrap());
        }
        assert!(raw.is_demoted("m") && raw.is_demoted("u"));
        assert!(!raw.has_columns());
        raw.restore_demoted(&mut shard).unwrap();
        for (sample, line) in shard.iter().zip(lines) {
            let want = parse_json(line).unwrap();
            assert_eq!(sample.value(), &want, "{line}");
        }
        assert_eq!(
            shard.get(3).unwrap().value().get_path("m"),
            Some(&Value::Float(1.7e15))
        );
    }

    #[test]
    fn big_integers_fall_back_to_float() {
        let v = parse_json("99999999999999999999999").unwrap();
        assert!(matches!(v, Value::Float(_)));
    }

    #[test]
    fn whitespace_tolerance() {
        let v = parse_json(" \n\t{ \"a\" :\r[ 1 , 2 ] } \n").unwrap();
        assert_eq!(v.get_path("a").unwrap().as_list().unwrap().len(), 2);
    }

    #[test]
    fn writer_escapes_exactly_the_escape_set() {
        let mut out = String::new();
        write_json_str(&mut out, "a\"b\\c\nd\re\tf\u{1}g\u{1f}h\u{7f}é😀").unwrap();
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fh\u{7f}é😀\"");
        // An escape in every position of a word-sized window.
        for at in 0..20 {
            let mut s = "x".repeat(20);
            s.replace_range(at..at + 1, "\n");
            let mut out = String::new();
            write_json_str(&mut out, &s).unwrap();
            assert_eq!(out, format!("\"{}\"", s.replace('\n', "\\n")), "at {at}");
        }
    }

    #[test]
    fn writer_float_rules() {
        let render = |x: f64| {
            let mut out = String::new();
            write_json_f64(&mut out, x).unwrap();
            out
        };
        assert_eq!(render(2.0), "2.0");
        assert_eq!(render(-0.0), "-0.0");
        assert_eq!(render(0.25), "0.25");
        assert_eq!(render(1e15), "1000000000000000");
        assert_eq!(render(999_999_999_999_999.0), "999999999999999.0");
        assert_eq!(render(1e300), format!("{}", 1e300));
        assert_eq!(render(f64::NAN), "null");
        assert_eq!(render(f64::NEG_INFINITY), "null");
    }
}
