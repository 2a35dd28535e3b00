//! The benchmark's inputs: three seeded corpora built on `dj-synth`, their
//! digests, and the pinned values of the default seed and scale.
//!
//! The same `(corpus, seed, docs)` always gives the same samples. A change
//! to `dj-synth` that alters the load is caught by the pins below instead
//! of silently moving every number.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use dj_core::{Dataset, Value};
use dj_synth::{
    arxiv_corpus, book_corpus, code_corpus, dialog_corpus, web_corpus, wiki_corpus, WebNoise,
};

pub const DEFAULT_SEED: u64 = 11;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// RedPajama-like mixture: web, wiki, books, code, arXiv and dialog.
    Web,
    /// Web documents with 15 % exact and 25 % near duplicates.
    Dup,
    /// Web documents dragging `url` / `headers` / `render_log` columns of
    /// about ten times the text bytes.
    Meta,
}

impl Corpus {
    pub fn name(self) -> &'static str {
        match self {
            Corpus::Web => "web",
            Corpus::Dup => "dup",
            Corpus::Meta => "meta",
        }
    }

    pub fn from_name(name: &str) -> Option<Corpus> {
        [Corpus::Web, Corpus::Dup, Corpus::Meta]
            .into_iter()
            .find(|c| c.name() == name)
    }

    /// Generator size at scale 1.0. For `Web` this is the number of web
    /// documents; the other sources follow in RedPajama-like proportion
    /// (about 1.94 documents in total per web document).
    pub fn base_docs(self) -> usize {
        match self {
            Corpus::Web => 40_000,
            Corpus::Dup => 60_000,
            Corpus::Meta => 20_000,
        }
    }

    /// The fields the corpus digest covers.
    fn digest_fields(self) -> &'static [&'static str] {
        match self {
            Corpus::Meta => &["text", "url", "headers", "render_log"],
            _ => &["text"],
        }
    }

    pub fn generate(self, seed: u64, docs: usize) -> Dataset {
        // Sub-streams of one seed never collide with those of another.
        let sub = |k: u64| seed.wrapping_mul(1000).wrapping_add(k);
        match self {
            Corpus::Web => {
                let mut ds = web_corpus(sub(0), docs, WebNoise::default());
                ds.extend(wiki_corpus(sub(1), docs / 4));
                ds.extend(book_corpus(sub(2), docs / 40));
                ds.extend(code_corpus(sub(3), docs / 4));
                ds.extend(arxiv_corpus(sub(4), docs / 6));
                ds.extend(dialog_corpus(sub(5), docs / 4));
                ds
            }
            Corpus::Dup => web_corpus(
                sub(6),
                docs,
                WebNoise {
                    dup_rate: 0.15,
                    near_dup_rate: 0.25,
                    ..WebNoise::default()
                },
            ),
            Corpus::Meta => {
                let mut ds = web_corpus(sub(7), docs, WebNoise::default());
                add_metadata(&mut ds, sub(8));
                ds
            }
        }
    }

    pub fn digest(self, ds: &Dataset) -> u64 {
        let mut h = Fnv::new();
        for s in ds.iter() {
            for field in self.digest_fields() {
                h.update(s.text_at(field).as_bytes());
                h.update(&[0xff]);
            }
        }
        h.finish()
    }
}

/// `base × scale` documents, never fewer than 64 so the smallest tier
/// still has several shards' worth of every source.
pub fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale).round() as usize).max(64)
}

const SERVERS: [&str; 4] = ["nginx/1.18.0", "Apache/2.4.57", "cloudflare", "gws"];
const EVENTS: [&str; 6] = ["dns", "connect", "tls", "ttfb", "parse", "paint"];

/// Provenance columns no benchmark recipe reads: about 5.5 KB per
/// document, half fixed boilerplate and half per-document values, so they
/// compress like real crawl metadata rather than like one repeated line.
fn add_metadata(ds: &mut Dataset, seed: u64) {
    let mut rng = SplitMix64(seed);
    for (i, s) in ds.samples_mut().iter_mut().enumerate() {
        let url = format!(
            "https://host{}.example.org/section{}/doc/{i}",
            rng.below(5000),
            rng.below(12)
        );
        let mut headers = String::with_capacity(3000);
        let _ = write!(
            headers,
            "content-type: text/html; charset=utf-8; server: {}; content-length: {}; ",
            SERVERS[rng.below(4) as usize],
            rng.below(400_000)
        );
        for k in 0..24 {
            let _ = write!(
                headers,
                "x-cache-node-{k}: HIT from edge-{}; etag-{k}: \"{:016x}\"; \
                 cache-control: public, max-age={}; ",
                rng.below(64),
                rng.next(),
                rng.below(86_400)
            );
        }
        let mut log = String::with_capacity(3000);
        for k in 0..48 {
            let _ = write!(
                log,
                "fetch {i} step {k}: {} took {} us at offset {}; ",
                EVENTS[rng.below(6) as usize],
                rng.below(250_000),
                rng.below(1_000_000)
            );
        }
        let root = s.value_mut();
        for (key, value) in [("url", url), ("headers", headers), ("render_log", log)] {
            root.set_path(key, Value::Str(value))
                .expect("a sample's root is a map");
        }
    }
}

/// Write `ds` as `parts` JSONL files `<stem>-<k>.jsonl` of near-equal
/// sample counts and return their paths and total bytes.
pub fn write_parts(
    ds: &Dataset,
    dir: &Path,
    stem: &str,
    parts: usize,
) -> std::io::Result<(Vec<PathBuf>, u64)> {
    let per = ds.len().div_ceil(parts).max(1);
    let mut paths = Vec::new();
    let mut bytes = 0u64;
    let mut line = String::new();
    for (k, chunk) in ds.samples().chunks(per).enumerate() {
        let path = dir.join(format!("{stem}-{k}.jsonl"));
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for s in chunk {
            line.clear();
            let _ = writeln!(line, "{}", s.value());
            w.write_all(line.as_bytes())?;
            bytes += line.len() as u64;
        }
        w.flush()?;
        paths.push(path);
    }
    Ok((paths, bytes))
}

/// 64-bit FNV-1a, kept in the benchmark so that what verifies the
/// program's output shares no code with the program.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of an output: FNV over every sample's `text`, in order.
pub fn text_digest<'a>(texts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = Fnv::new();
    for t in texts {
        h.update(t.as_bytes());
        h.update(&[0xff]);
    }
    h.finish()
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_seeded() {
        for corpus in [Corpus::Web, Corpus::Dup, Corpus::Meta] {
            let a = corpus.generate(3, 200);
            let b = corpus.generate(3, 200);
            let c = corpus.generate(4, 200);
            assert_eq!(corpus.digest(&a), corpus.digest(&b), "{corpus:?}");
            assert_ne!(corpus.digest(&a), corpus.digest(&c), "{corpus:?}");
            assert_eq!(Corpus::from_name(corpus.name()), Some(corpus));
        }
    }

    #[test]
    fn metadata_outweighs_text_about_tenfold() {
        let ds = Corpus::Meta.generate(1, 300);
        let text: usize = ds.iter().map(|s| s.text().len()).sum();
        let meta: usize = ds
            .iter()
            .map(|s| s.text_at("headers").len() + s.text_at("render_log").len())
            .sum();
        let ratio = meta as f64 / text as f64;
        assert!((6.0..16.0).contains(&ratio), "metadata/text = {ratio}");
    }

    #[test]
    fn fnv_matches_the_published_vectors() {
        let mut h = Fnv::new();
        h.update(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.update(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn parts_cover_the_corpus_once() {
        let ds = Corpus::Web.generate(2, 120);
        let dir = std::env::temp_dir().join(format!("djbench-parts-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (paths, bytes) = write_parts(&ds, &dir, "t", 4).unwrap();
        assert_eq!(paths.len(), 4);
        let lines: usize = paths
            .iter()
            .map(|p| std::fs::read_to_string(p).unwrap().lines().count())
            .sum();
        let on_disk: u64 = paths.iter().map(|p| p.metadata().unwrap().len()).sum();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(lines, ds.len());
        assert_eq!(on_disk, bytes);
    }
}
