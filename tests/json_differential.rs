//! Differential oracle for JSON text in and out.
//!
//! The byte-level writer (`Value`'s `Display`, `write_jsonl_into`), the
//! byte-level parser (`parse_json`) and both frame → JSONL transcoders are
//! checked against `json_reference` — the `char`-by-`char` `Display` and
//! the `Vec<char>` parser they replaced, kept verbatim — over random `Value`
//! trees built to hit every branch: control characters, `"` and `\`, DEL,
//! non-ASCII, clean runs longer than a machine word, integral / huge /
//! NaN / infinite floats, nested maps and lists, columns absent vs explicit
//! `null`, empty shards and masks that drop everything.

mod json_reference;

use std::collections::BTreeMap;

use proptest::prelude::*;

use data_juicer::core::{parse_json, Dataset, Sample, Value};
use data_juicer::store::{
    encode_columnar_frame, encode_shard_frame, to_jsonl, Codec, ColumnarSlab, FrameSlab,
};

/// String pieces: every byte class the writer's escape scan and the
/// parser's run scan branch on.
const PIECES: &[&str] = &[
    "",
    "a",
    "plain ascii run, longer than eight bytes",
    "\"",
    "\\",
    "\\\"",
    "/",
    "\n",
    "\r",
    "\t",
    "\u{0}",
    "\u{1}",
    "\u{8}",
    "\u{c}",
    "\u{1f}",
    "\u{7f}",
    " ",
    "é",
    "中文",
    "😀",
    "\u{2028}",
    "\\u0041",
    "{\"k\":[1,2]}",
];

fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..PIECES.len(), 0..7)
        .prop_map(|picks| picks.into_iter().map(|i| PIECES[i]).collect())
}

fn float() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(2.0),
        Just(0.25),
        Just(-1.5e-7),
        Just(999_999_999_999_999.0),
        Just(1e15),
        Just(1e300),
        Just(f64::MIN_POSITIVE),
        Just(f64::MAX),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        any::<u64>().prop_map(f64::from_bits),
        any::<u64>().prop_map(|n| (n % 100_000) as f64 / 8.0),
    ]
}

fn leaf() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(|n| Value::Int(n as i64)),
        any::<u64>().prop_map(|n| Value::Int((n % 2000) as i64 - 1000)),
        float().prop_map(Value::Float),
        text().prop_map(Value::Str),
    ]
}

fn tree() -> impl Strategy<Value = Value> {
    leaf().prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
            proptest::collection::btree_map(text(), inner, 0..4).prop_map(Value::Map),
        ]
    })
}

/// Sample roots over a small column set: each column absent, explicitly
/// `null`, or any tree — so columnar presence bytes see all three.
fn shard() -> impl Strategy<Value = Dataset> {
    const COLUMNS: [&str; 5] = ["text", "meta", "stats", "a\"b", "ünï"];
    let cell = prop_oneof![
        Just(None),
        Just(None),
        Just(Some(Value::Null)),
        tree().prop_map(Some),
        text().prop_map(|t| Some(Value::Str(t))),
    ];
    let sample =
        proptest::collection::vec(cell, COLUMNS.len()..COLUMNS.len() + 1).prop_map(|cells| {
            let root: BTreeMap<String, Value> = COLUMNS
                .iter()
                .zip(cells)
                .filter_map(|(name, cell)| Some((name.to_string(), cell?)))
                .collect();
            Sample::from_value(Value::Map(root)).unwrap()
        });
    proptest::collection::vec(sample, 0..7).prop_map(Dataset::from_samples)
}

fn reference_jsonl<'a>(samples: impl Iterator<Item = &'a Sample>) -> String {
    samples
        .map(|s| json_reference::to_json(s.value()) + "\n")
        .collect()
}

/// Tokens garbage documents are assembled from: enough structure that a
/// fair share parses, enough noise that most of the reject paths fire.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "\\n",
    "\\/",
    "\\x",
    "u",
    "D83D",
    "dE00",
    "00e9",
    "\"a\"",
    "\"\"",
    "0",
    "1",
    "-",
    "+",
    ".",
    "e",
    "E",
    "9",
    "42",
    "-7",
    "2.5",
    "1e3",
    "01",
    "99999999999999999999",
    "true",
    "false",
    "null",
    "tru",
    "nul",
    "nan",
    " ",
    "\n",
    "\t",
    "\r",
    "\u{1}",
    "é",
    "😀",
    "x",
];

fn garbage() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..TOKENS.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| TOKENS[i]).collect())
}

/// Both parsers on one input: same verdict, and on success the same tree
/// (bit-exact floats).
fn parsers_agree(input: &str) {
    match (parse_json(input), json_reference::parse(input)) {
        (Ok(got), Ok(want)) => assert!(
            got.structural_eq(&want),
            "{input:?}: {got:?} vs reference {want:?}"
        ),
        (Err(_), Err(_)) => {}
        (got, want) => panic!("{input:?}: {got:?} vs reference {want:?}"),
    }
}

/// `text` with one character deleted, doubled or replaced by a structural
/// character — the near-misses of a valid document.
fn mutations(text: &str, seed: u64) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    if chars.is_empty() {
        return Vec::new();
    }
    let at = (seed % chars.len() as u64) as usize;
    let with = |replacement: &[char]| -> String {
        chars[..at]
            .iter()
            .chain(replacement)
            .chain(&chars[at + 1..])
            .collect()
    };
    let structural = ['"', '\\', '{', ']', ',', ':', 'e', '\n', '\u{1}'];
    let swap = structural[(seed / 7 % structural.len() as u64) as usize];
    vec![with(&[]), with(&[chars[at], chars[at]]), with(&[swap])]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn prop_writer_prints_what_the_reference_prints(v in tree()) {
        prop_assert_eq!(v.to_string(), json_reference::to_json(&v));
    }

    #[test]
    fn prop_parser_reads_what_the_reference_reads(v in tree(), seed in any::<u64>()) {
        let rendered = v.to_string();
        parsers_agree(&rendered);
        // Whitespace between tokens is legal wherever the writer put none.
        parsers_agree(&format!(" \n{}\t\r ", rendered.replace("\":", "\" :\n")));
        for mutated in mutations(&rendered, seed) {
            parsers_agree(&mutated);
        }
    }

    #[test]
    fn prop_parsers_agree_on_garbage(doc in garbage(), raw in text(), tail in text()) {
        parsers_agree(&doc);
        // Unescaped pieces between quotes: raw control characters, stray
        // quotes and dangling backslashes, at word-aligned offsets and in
        // the last few bytes of the input alike.
        parsers_agree(&format!("\"{raw}\""));
        parsers_agree(&format!("[\"{raw}{tail}\",\"{tail}\"]"));
    }

    #[test]
    fn prop_written_text_parses_back(v in tree()) {
        // NaN / ±Inf are printed as `null`, everything else round-trips.
        fn printable(v: &Value) -> Value {
            match v {
                Value::Float(x) if !x.is_finite() => Value::Null,
                Value::List(l) => Value::List(l.iter().map(printable).collect()),
                Value::Map(m) => {
                    Value::Map(m.iter().map(|(k, v)| (k.clone(), printable(v))).collect())
                }
                other => other.clone(),
            }
        }
        let back = parse_json(&v.to_string()).unwrap();
        // A float that prints without `.` or `e` (|x| ≥ 1e15, integral)
        // reads back as an int or a float of the same value.
        fn same(a: &Value, b: &Value) -> bool {
            match (a, b) {
                (Value::List(a), Value::List(b)) => {
                    a.len() == b.len() && a.iter().zip(b).all(|(a, b)| same(a, b))
                }
                (Value::Map(a), Value::Map(b)) => {
                    a.len() == b.len()
                        && a.iter().zip(b).all(|((ka, a), (kb, b))| ka == kb && same(a, b))
                }
                (Value::Float(a), b) | (b, Value::Float(a)) => b.as_float() == Some(*a),
                (a, b) => a == b,
            }
        }
        prop_assert!(same(&back, &printable(&v)), "{v:?} read back as {back:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// JSONL text is the same whoever prints it: the reference `Display`,
    /// `write_jsonl_into`, the row transcoder and the columnar transcoder,
    /// with and without a keep mask.
    #[test]
    fn prop_transcoders_print_what_the_reference_prints(ds in shard(), bits in any::<u64>()) {
        let row = FrameSlab::from_frame_bytes(&encode_shard_frame(&ds, Codec::Djz)).unwrap();
        let col = ColumnarSlab::from_frame_bytes(&encode_columnar_frame(&ds, Codec::Djz)).unwrap();
        prop_assert_eq!(to_jsonl(&ds), reference_jsonl(ds.iter()));
        let some: Vec<bool> = (0..ds.len()).map(|i| bits >> i & 1 == 1).collect();
        let none = vec![false; ds.len()];
        for keep in [None, Some(some.as_slice()), Some(none.as_slice())] {
            let live = ds.iter().enumerate().filter(|(i, _)| keep.is_none_or(|k| k[*i]));
            let want = reference_jsonl(live.map(|(_, s)| s));
            let mut out = String::new();
            let n = row.write_jsonl(keep, &mut out).unwrap();
            prop_assert_eq!(&out, &want, "row transcoder, keep {:?}", keep);
            prop_assert_eq!(n, want.lines().count());
            out.clear();
            prop_assert_eq!(col.write_jsonl(keep, &mut out).unwrap(), n);
            prop_assert_eq!(&out, &want, "columnar transcoder, keep {:?}", keep);
            // The masked decodes and the entry-filtered frames agree too.
            let decoded = row.decode_kept(keep).unwrap();
            prop_assert_eq!(to_jsonl(&decoded), want.clone());
            prop_assert_eq!(to_jsonl(&col.decode_kept(None, keep).unwrap().0), want.clone());
            if let Some(keep) = keep {
                let filtered = row.filter_frame(keep, Codec::Djz).unwrap();
                prop_assert_eq!(filtered, encode_shard_frame(&decoded, Codec::Djz));
            }
        }
    }
}
