//! Dynamically-typed values with nested-path access.
//!
//! Data-Juicer unifies heterogeneous data sources into a structured format of
//! columns with *nested access support* (paper §3.1). A [`Value`] is the
//! building block: samples are `Value::Map`s whose fields are addressed by
//! dotted paths such as `"text.abstract"` or `"stats.word_count"`.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::{DjError, Result};

/// A dynamically typed value tree (the intermediate representation of §3.1).
///
/// `Map` uses a `BTreeMap` so that iteration order — and therefore
/// serialization, hashing and cache fingerprints — is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    List(Vec<Value>),
    Map(BTreeMap<String, Value>),
}

impl Value {
    /// Empty map value, the starting point for building samples.
    pub fn map() -> Value {
        Value::Map(BTreeMap::new())
    }

    /// Kind name used in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::List(_) => "list",
            Value::Map(_) => "map",
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric coercion: ints read as floats, matching how recipe parameters
    /// written as `3` are consumed by float thresholds.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    pub fn as_map(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_map_mut(&mut self) -> Option<&mut BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Look up a nested value by dotted path, e.g. `"meta.language"`.
    ///
    /// Returns `None` when any segment is missing or a non-map is traversed.
    pub fn get_path(&self, path: &str) -> Option<&Value> {
        let mut cur = self;
        for seg in path.split('.') {
            cur = cur.as_map()?.get(seg)?;
        }
        Some(cur)
    }

    /// Mutable nested lookup by dotted path.
    pub fn get_path_mut(&mut self, path: &str) -> Option<&mut Value> {
        let mut cur = self;
        for seg in path.split('.') {
            cur = cur.as_map_mut()?.get_mut(seg)?;
        }
        Some(cur)
    }

    /// Insert a value at a dotted path, creating intermediate maps as needed.
    ///
    /// Fails if an intermediate segment exists but is not a map.
    pub fn set_path(&mut self, path: &str, value: Value) -> Result<()> {
        self.set_segments(path, path, value)
    }

    /// `set_path` over the not-yet-walked `rest` of `path`. A key is only
    /// allocated for a segment that does not exist yet, so overwriting a
    /// field (every mapper edit) costs no key allocation.
    fn set_segments(&mut self, path: &str, rest: &str, value: Value) -> Result<()> {
        let (seg, tail) = match rest.split_once('.') {
            Some((seg, tail)) => (seg, Some(tail)),
            None => (rest, None),
        };
        let map = self.as_map_mut().ok_or_else(|| {
            DjError::Field(format!("`{path}`: segment before `{seg}` is not a map"))
        })?;
        match (map.get_mut(seg), tail) {
            (Some(slot), None) => *slot = value,
            (Some(next), Some(tail)) => return next.set_segments(path, tail, value),
            (None, None) => {
                map.insert(seg.to_string(), value);
            }
            (None, Some(tail)) => {
                let mut sub = Value::map();
                sub.set_segments(path, tail, value)?;
                map.insert(seg.to_string(), sub);
            }
        }
        Ok(())
    }

    /// Remove the value at a dotted path; returns the removed value if present.
    pub fn remove_path(&mut self, path: &str) -> Option<Value> {
        match path.rsplit_once('.') {
            Some((parent, leaf)) => self.get_path_mut(parent)?.as_map_mut()?.remove(leaf),
            None => self.as_map_mut()?.remove(path),
        }
    }

    /// Approximate heap footprint in bytes. Used by the end-to-end benchmark
    /// harness (Fig. 8) for memory accounting.
    pub fn approx_bytes(&self) -> usize {
        const NODE: usize = std::mem::size_of::<Value>();
        match self {
            Value::Null | Value::Bool(_) | Value::Int(_) | Value::Float(_) => NODE,
            Value::Str(s) => NODE + s.capacity(),
            Value::List(l) => NODE + l.iter().map(Value::approx_bytes).sum::<usize>(),
            Value::Map(m) => {
                NODE + m
                    .iter()
                    .map(|(k, v)| k.capacity() + 24 + v.approx_bytes())
                    .sum::<usize>()
            }
        }
    }

    /// Stable structural equality helper usable as a dedup key.
    ///
    /// Floats are compared by bit pattern so the function is total.
    pub fn structural_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::List(a), Value::List(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.structural_eq(y))
            }
            (Value::Map(a), Value::Map(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b.iter())
                        .all(|((ka, va), (kb, vb))| ka == kb && va.structural_eq(vb))
            }
            (a, b) => a == b,
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::List(v.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Value {
    /// JSON rendering through the shared byte-level writer
    /// ([`crate::json::write_json`]) — the JSONL exporter and the frame
    /// transcoder print the same text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::json::write_json(f, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> Value {
        let mut v = Value::map();
        v.set_path("text", Value::from("hello")).unwrap();
        v.set_path("meta.language", Value::from("en")).unwrap();
        v.set_path("stats.word_count", Value::from(2i64)).unwrap();
        v
    }

    #[test]
    fn nested_get_set_roundtrip() {
        let v = sample_tree();
        assert_eq!(v.get_path("text").unwrap().as_str(), Some("hello"));
        assert_eq!(v.get_path("meta.language").unwrap().as_str(), Some("en"));
        assert_eq!(v.get_path("stats.word_count").unwrap().as_int(), Some(2));
        assert!(v.get_path("meta.missing").is_none());
        assert!(v.get_path("text.sub").is_none());
    }

    #[test]
    fn set_path_creates_intermediate_maps() {
        let mut v = Value::map();
        v.set_path("a.b.c.d", Value::from(1i64)).unwrap();
        assert_eq!(v.get_path("a.b.c.d").unwrap().as_int(), Some(1));
    }

    #[test]
    fn set_path_fails_through_non_map() {
        let mut v = sample_tree();
        let err = v.set_path("text.sub", Value::Null).unwrap_err();
        assert!(err.to_string().contains("not a map"));
    }

    #[test]
    fn remove_path_removes_leaf() {
        let mut v = sample_tree();
        let removed = v.remove_path("meta.language").unwrap();
        assert_eq!(removed.as_str(), Some("en"));
        assert!(v.get_path("meta.language").is_none());
        assert!(v.get_path("meta").is_some());
    }

    #[test]
    fn float_coercion_from_int() {
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Float(0.5).as_float(), Some(0.5));
        assert_eq!(Value::Str("x".into()).as_float(), None);
    }

    #[test]
    fn display_is_json_compatible() {
        let v = sample_tree();
        let s = v.to_string();
        assert_eq!(
            s,
            r#"{"meta":{"language":"en"},"stats":{"word_count":2},"text":"hello"}"#
        );
    }

    #[test]
    fn display_escapes_control_chars() {
        let v = Value::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(v.to_string(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn approx_bytes_grows_with_content() {
        let small = Value::from("ab");
        let big = Value::from("a".repeat(1000));
        assert!(big.approx_bytes() > small.approx_bytes() + 900);
    }

    #[test]
    fn structural_eq_total_on_floats() {
        assert!(Value::Float(f64::NAN).structural_eq(&Value::Float(f64::NAN)));
        assert!(!Value::Float(0.0).structural_eq(&Value::Float(-0.0)));
    }
}
