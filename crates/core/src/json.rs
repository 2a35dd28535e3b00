//! JSON text in and out of [`Value`] trees, both directions at byte level.
//!
//! Implemented from scratch because `serde_json` is outside the allowed
//! dependency set (see DESIGN.md).
//!
//! **The writer** ([`write_json`], [`write_json_str`], [`write_json_f64`])
//! is the one place JSON text is produced: `Value`'s `Display`, the JSONL
//! exporter and `dj-store`'s frame → JSONL transcoder all call it, so every
//! output is byte-identical whichever path rendered it. The text contract
//! (also in `docs/formats.md`):
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

use std::collections::BTreeMap;
use std::fmt;

use crate::error::{DjError, Result};
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

// ---- parser -----------------------------------------------------------

/// Parse a JSON document into a [`Value`].
pub fn parse_json(input: &str) -> Result<Value> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
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

impl Parser<'_> {
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
