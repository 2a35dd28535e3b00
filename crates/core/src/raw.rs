//! Raw JSON columns: the top-level fields of a shard's samples that no op
//! of the run reads or writes, kept as the JSON text the writer prints.
//!
//! A file run knows before it reads a line which top-level fields any op
//! can touch (the recipe's footprint). Every other field is *inert*: it is
//! read, carried and written back, never looked at. The JSONL reader
//! therefore leaves it unparsed ([`crate::json::parse_record`]) and puts
//! its canonical JSON text — exactly what [`crate::write_json`] prints for
//! the value — into the shard's [`RawColumns`], one column per field name.
//! The shard's frame stores the text as it is, and egress copies it.
//!
//! An entry is only ever text that reads back as the value it was printed
//! from. A field with a value that does not (a float the writer prints as
//! `null` or as an integer) is *demoted* for the rest of the shard: it is
//! parsed into the samples like a field some op touches, and the entries
//! its column already held are parsed into theirs when the shard is cut
//! ([`RawColumns::restore_demoted`]), so a decode of the shard reads back
//! the values a whole parse reads.

use std::ops::Range;

use crate::dataset::Dataset;
use crate::error::Result;
use crate::json::{parse_json_nested, round_trips};
use crate::value::Value;

/// One raw column: its field name and, per sample, where that sample's
/// entry sits in the table's text. A sample past the end of `entries` has
/// none.
#[derive(Debug, Clone)]
struct RawColumn {
    name: String,
    entries: Vec<Option<Range<usize>>>,
}

/// The inert fields of one shard's samples, column by column, as canonical
/// JSON text.
///
/// Samples are added one at a time: entries go to the *open* sample
/// ([`push`](RawColumns::push)), which [`close`](RawColumns::close) makes
/// the next sample of the table and [`discard_open`](RawColumns::discard_open)
/// forgets (a record that failed to parse leaves nothing behind). A second
/// entry for one field of the open sample replaces the first, as a
/// duplicate key does in a parsed object.
#[derive(Debug, Clone, Default)]
pub struct RawColumns {
    /// Every entry's text, back to back.
    text: String,
    /// In the order their fields were first seen.
    columns: Vec<RawColumn>,
    /// Closed samples.
    samples: usize,
    /// Where the open sample's text starts.
    open_at: usize,
    /// Columns taken out of the table ([`demote`](RawColumns::demote)),
    /// with the entries of the closed samples they held.
    demoted: Vec<RawColumn>,
}

impl RawColumns {
    pub fn new() -> RawColumns {
        RawColumns::default()
    }

    /// An empty table with room for `text` bytes of entries.
    pub fn with_capacity(text: usize) -> RawColumns {
        RawColumns {
            text: String::with_capacity(text),
            ..RawColumns::default()
        }
    }

    /// Closed samples.
    pub fn len(&self) -> usize {
        self.samples
    }

    pub fn is_empty(&self) -> bool {
        self.samples == 0
    }

    /// Whether any sample has an entry: without one there is nothing to
    /// store beside the samples.
    pub fn has_columns(&self) -> bool {
        !self.columns.is_empty()
    }

    /// Bytes of JSON text the entries hold.
    pub fn text_len(&self) -> usize {
        self.text.len()
    }

    /// Column names, in the order their fields were first seen.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|c| c.name.as_str())
    }

    /// The column named `name`, by its index in [`names`](RawColumns::names).
    pub fn column(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Closed sample `sample`'s entry in column `column`, if it has one.
    pub fn entry(&self, column: usize, sample: usize) -> Option<&str> {
        let range = self.columns.get(column)?.entries.get(sample)?.clone()?;
        self.text.get(range)
    }

    /// Every entry of closed sample `sample`, as `(field, JSON text)`.
    pub fn sample_entries(&self, sample: usize) -> impl Iterator<Item = (&str, &str)> {
        (0..self.columns.len())
            .filter_map(move |c| Some((self.columns[c].name.as_str(), self.entry(c, sample)?)))
    }

    /// Give the open sample the field `name`, whose JSON text `write` appends
    /// to the string it is handed (and nothing else).
    pub fn push_with(&mut self, name: &str, write: impl FnOnce(&mut String)) {
        let start = self.text.len();
        write(&mut self.text);
        let range = start..self.text.len();
        let at = self.samples;
        let c = self.column(name).unwrap_or_else(|| {
            self.columns.push(RawColumn {
                name: name.to_string(),
                entries: Vec::new(),
            });
            self.columns.len() - 1
        });
        let column = &mut self.columns[c];
        column.entries.resize(at, None);
        column.entries.push(Some(range));
    }

    /// Give the open sample the field `name` with JSON text `json`, which
    /// must be what `write_json` prints for its value.
    pub fn push(&mut self, name: &str, json: &str) {
        self.push_with(name, |text| text.push_str(json));
    }

    /// Move every top-level field of `root` (a map) that `parsed` does not
    /// name and no demoted column holds out of it and into the open sample,
    /// printed by `write_json`. A value that would not read back from that
    /// text stays in `root`, and its column is demoted.
    pub fn take_inert(&mut self, root: &mut Value, parsed: impl Fn(&str) -> bool) {
        let Some(map) = root.as_map_mut() else { return };
        let inert: Vec<String> = map
            .keys()
            .filter(|k| !parsed(k) && !self.is_demoted(k))
            .cloned()
            .collect();
        for key in inert {
            if !map.get(&key).is_some_and(round_trips) {
                self.demote(&key);
            } else if let Some(value) = map.remove(&key) {
                self.push_with(&key, |text| {
                    // Writing into a String cannot fail.
                    let _ = crate::json::write_json(text, &value);
                });
            }
        }
    }

    /// Whether column `name` was demoted: its field is parsed into the
    /// samples for the rest of the table.
    pub fn is_demoted(&self, name: &str) -> bool {
        self.demoted.iter().any(|c| c.name == name)
    }

    /// Take column `name` out of the table: from now on its field is
    /// parsed into the samples. The entries of the closed samples go with
    /// it, for [`restore_demoted`](RawColumns::restore_demoted); the open
    /// sample's entry, if any, is dropped, as the value that demoted the
    /// column replaces it.
    pub fn demote(&mut self, name: &str) {
        if self.is_demoted(name) {
            return;
        }
        let mut column = match self.column(name) {
            Some(c) => self.columns.remove(c),
            None => RawColumn {
                name: name.to_string(),
                entries: Vec::new(),
            },
        };
        column.entries.truncate(self.samples);
        self.demoted.push(column);
    }

    /// Parse every entry a demoted column held into its sample of
    /// `samples`, the table's closed samples in order.
    pub fn restore_demoted(&mut self, samples: &mut Dataset) -> Result<()> {
        for column in std::mem::take(&mut self.demoted) {
            let entries = column.entries.iter().zip(samples.samples_mut());
            for (range, sample) in entries {
                let Some(range) = range else { continue };
                // Text that came out of `write_json`, one level deep.
                let value = parse_json_nested(&self.text[range.clone()], 1)?;
                if let Some(map) = sample.value_mut().as_map_mut() {
                    map.insert(column.name.clone(), value);
                }
            }
        }
        Ok(())
    }

    /// The open sample becomes the table's next sample.
    pub fn close(&mut self) {
        self.samples += 1;
        self.open_at = self.text.len();
    }

    /// Forget the open sample's entries.
    pub fn discard_open(&mut self) {
        for column in &mut self.columns {
            column.entries.truncate(self.samples);
        }
        self.columns
            .retain(|c| c.entries.iter().any(Option::is_some));
        self.text.truncate(self.open_at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_kept_per_sample_and_column() {
        let mut raw = RawColumns::new();
        raw.push("url", "\"a\"");
        raw.push("headers", "{\"k\":1}");
        raw.close();
        raw.close(); // a sample with no inert field
        raw.push("headers", "[]");
        raw.push("headers", "null"); // a duplicate key: the last one wins
        raw.close();
        assert_eq!(raw.len(), 3);
        assert_eq!(raw.names().collect::<Vec<_>>(), ["url", "headers"]);
        let (url, headers) = (raw.column("url").unwrap(), raw.column("headers").unwrap());
        assert_eq!(raw.entry(url, 0), Some("\"a\""));
        assert_eq!(raw.entry(url, 1), None);
        assert_eq!(raw.entry(url, 2), None);
        assert_eq!(raw.entry(headers, 0), Some("{\"k\":1}"));
        assert_eq!(raw.entry(headers, 2), Some("null"));
        assert_eq!(
            raw.sample_entries(0).collect::<Vec<_>>(),
            [("url", "\"a\""), ("headers", "{\"k\":1}")]
        );
    }

    #[test]
    fn a_discarded_sample_leaves_nothing_behind() {
        let mut raw = RawColumns::new();
        raw.push("a", "1");
        raw.close();
        let before = (raw.text_len(), raw.names().count());
        raw.push("a", "2");
        raw.push("b", "3");
        raw.discard_open();
        assert_eq!((raw.text_len(), raw.names().count()), before);
        raw.push("a", "4");
        raw.close();
        assert_eq!(raw.entry(0, 1), Some("4"));
    }

    #[test]
    fn take_inert_moves_the_unparsed_fields_as_written_json() {
        let mut root =
            crate::parse_json(r#"{"text":"t","url":"u","h":{"b":1.0,"a":[true]}}"#).unwrap();
        let mut raw = RawColumns::new();
        raw.take_inert(&mut root, |k| k == "text");
        raw.close();
        assert_eq!(root.to_string(), r#"{"text":"t"}"#);
        assert_eq!(
            raw.sample_entries(0).collect::<Vec<_>>(),
            [("h", r#"{"a":[true],"b":1.0}"#), ("url", "\"u\"")]
        );
    }
}
