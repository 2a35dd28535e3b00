//! Text samples: the row type of the unified intermediate representation.
//!
//! Each sample is conceptually organized in three primary parts (paper §3.1):
//! `"text"` (the raw textual data), `"meta"` (metadata such as source, date,
//! language tags) and `"stats"` (statistics generated and consumed by OPs and
//! tools). OPs may also be pointed at any other nested field.

use crate::error::{DjError, Result};
use crate::value::Value;

/// Default field processed by every OP unless reconfigured (paper §3.3).
pub const TEXT_KEY: &str = "text";
/// Conventional prefix for metadata fields.
pub const META_KEY: &str = "meta";
/// Conventional prefix for per-sample statistics written by Filters.
pub const STATS_KEY: &str = "stats";

/// One document / record flowing through a processing pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    root: Value,
}

impl Default for Sample {
    fn default() -> Self {
        Sample { root: Value::map() }
    }
}

impl Sample {
    /// Create an empty sample (all three parts absent until written).
    pub fn new() -> Sample {
        Sample::default()
    }

    /// Create a sample holding `text` in the default text field.
    pub fn from_text(text: impl Into<String>) -> Sample {
        let mut s = Sample::new();
        s.set_text(text);
        s
    }

    /// Wrap an existing value tree. Fails unless the root is a map.
    pub fn from_value(root: Value) -> Result<Sample> {
        if root.as_map().is_none() {
            return Err(DjError::Field(format!(
                "sample root must be a map, got {}",
                root.kind()
            )));
        }
        Ok(Sample { root })
    }

    /// Borrow the underlying value tree.
    pub fn value(&self) -> &Value {
        &self.root
    }

    /// Mutably borrow the underlying value tree.
    pub fn value_mut(&mut self) -> &mut Value {
        &mut self.root
    }

    /// Consume the sample, yielding the value tree.
    pub fn into_value(self) -> Value {
        self.root
    }

    /// The default text payload ("" when the field is absent or non-string).
    pub fn text(&self) -> &str {
        self.text_at(TEXT_KEY)
    }

    /// Text payload at an arbitrary dotted field (e.g. `"text.abstract"`).
    pub fn text_at(&self, field: &str) -> &str {
        self.root
            .get_path(field)
            .and_then(Value::as_str)
            .unwrap_or("")
    }

    /// Overwrite the default text payload.
    pub fn set_text(&mut self, text: impl Into<String>) {
        self.set_root_path(TEXT_KEY, Value::Str(text.into()));
    }

    /// Dotted write under the root. The root is constructed as a map and
    /// no API replaces it wholesale, so this cannot fail — an
    /// allow-listed `expect` documenting that invariant.
    fn set_root_path(&mut self, path: &str, value: Value) {
        #[allow(clippy::expect_used)]
        self.root
            .set_path(path, value)
            .expect("sample root is a map");
    }

    /// Overwrite the text payload at an arbitrary dotted field.
    pub fn set_text_at(&mut self, field: &str, text: impl Into<String>) -> Result<()> {
        self.root.set_path(field, Value::Str(text.into()))
    }

    /// Look up `<section>.<key>` (`key` may itself be dotted) without
    /// building the joined path.
    fn section_get(&self, section: &str, key: &str) -> Option<&Value> {
        self.root.as_map()?.get(section)?.get_path(key)
    }

    /// Write `<section>.<key>`, creating the section map on first use.
    /// Allocates only for map entries that do not exist yet.
    fn section_set(&mut self, section: &str, key: &str, value: Value) {
        let Some(root) = self.root.as_map_mut() else {
            return; // unreachable: the root is constructed as a map
        };
        let written = match root.get_mut(section) {
            Some(map) => map.set_path(key, value),
            None => {
                let mut map = Value::map();
                let written = map.set_path(key, value);
                root.insert(section.to_string(), map);
                written
            }
        };
        // A section holding a non-map (hostile input) is a caller error,
        // as it always was — the allow-listed `expect` for that invariant.
        #[allow(clippy::expect_used)]
        written.expect("`meta` / `stats` sections are maps");
    }

    /// Read a metadata field (`meta.<key>`).
    pub fn meta(&self, key: &str) -> Option<&Value> {
        self.section_get(META_KEY, key)
    }

    /// Write a metadata field (`meta.<key>`).
    pub fn set_meta(&mut self, key: &str, value: impl Into<Value>) {
        self.section_set(META_KEY, key, value.into());
    }

    /// Read a numeric statistic (`stats.<key>`), coercing ints to floats.
    pub fn stat(&self, key: &str) -> Option<f64> {
        self.section_get(STATS_KEY, key).and_then(Value::as_float)
    }

    /// Write a numeric statistic (`stats.<key>`).
    ///
    /// Filters call this from `compute_stats` so that the decision in
    /// `process` reads the value just measured rather than recomputing it
    /// (the decoupling of paper §3.2). A value already recorded under
    /// `key` is replaced.
    pub fn set_stat(&mut self, key: &str, value: f64) {
        self.section_set(STATS_KEY, key, Value::Float(value));
    }

    /// All recorded statistics as `(key, value)` pairs.
    pub fn stats(&self) -> Vec<(String, f64)> {
        match self.root.get_path(STATS_KEY).and_then(Value::as_map) {
            Some(m) => m
                .iter()
                .filter_map(|(k, v)| v.as_float().map(|f| (k.clone(), f)))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Approximate heap footprint in bytes (memory-accounting harness).
    pub fn approx_bytes(&self) -> usize {
        self.root.approx_bytes()
    }
}

impl From<&str> for Sample {
    fn from(text: &str) -> Self {
        Sample::from_text(text)
    }
}

impl From<String> for Sample {
    fn from(text: String) -> Self {
        Sample::from_text(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_roundtrip() {
        let mut s = Sample::from_text("hello world");
        assert_eq!(s.text(), "hello world");
        s.set_text("changed");
        assert_eq!(s.text(), "changed");
    }

    #[test]
    fn missing_text_reads_empty() {
        let s = Sample::new();
        assert_eq!(s.text(), "");
        assert_eq!(s.text_at("text.main_body"), "");
    }

    #[test]
    fn nested_text_fields() {
        let mut s = Sample::new();
        s.set_text_at("text.abstract", "short").unwrap();
        s.set_text_at("text.main_body", "long body").unwrap();
        assert_eq!(s.text_at("text.abstract"), "short");
        assert_eq!(s.text_at("text.main_body"), "long body");
        // Default text key now holds a map, not a string: reads as empty.
        assert_eq!(s.text(), "");
    }

    #[test]
    fn meta_and_stats_accessors() {
        let mut s = Sample::from_text("x");
        s.set_meta("language", "EN");
        s.set_meta("stars", 42i64);
        s.set_stat("word_count", 1.0);
        assert_eq!(s.meta("language").unwrap().as_str(), Some("EN"));
        assert_eq!(s.meta("stars").unwrap().as_int(), Some(42));
        assert_eq!(s.stat("word_count"), Some(1.0));
        assert_eq!(s.stat("perplexity"), None);
        assert_eq!(s.stats(), vec![("word_count".to_string(), 1.0)]);
    }

    #[test]
    fn from_value_rejects_non_map() {
        assert!(Sample::from_value(Value::from("str")).is_err());
        assert!(Sample::from_value(Value::map()).is_ok());
    }
}
