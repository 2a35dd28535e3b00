//! Deduplicator OPs: whole-dataset duplicate removal (Table 1, "compare
//! with hash-based and vector-based deduplication methods").
//!
//! All deduplicators follow the two-phase protocol of Listing 1, on `u64`
//! words: `fingerprint` appends a sample's words (parallelizable) and
//! `cluster` turns the dataset's [`Fingerprints`] into the keep mask,
//! retaining the first occurrence of each duplicate cluster. Listing 1's
//! `compute_hash` / `keep_mask` are the trait's adapters over the two.

use std::borrow::Cow;

use dj_core::{
    Dataset, Deduplicator, DjError, Fingerprints, Result, Sample, SampleContext, Value, TEXT_KEY,
};
use dj_hash::{hash128, simhash_tokens, MinHasher};

use crate::par_dedup::ParallelDedup;

/// Exact document deduplication by 128-bit content hash
/// (`document_deduplicator`).
#[derive(Debug, Clone)]
pub struct DocumentDeduplicator {
    pub field: String,
    /// Compare case-insensitively.
    pub lowercase: bool,
    /// Strip non-alphanumeric characters before hashing (catches trivially
    /// reformatted duplicates).
    pub ignore_non_alnum: bool,
}

impl Default for DocumentDeduplicator {
    fn default() -> Self {
        DocumentDeduplicator {
            field: TEXT_KEY.to_string(),
            lowercase: false,
            ignore_non_alnum: false,
        }
    }
}

impl DocumentDeduplicator {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn normalized() -> Self {
        DocumentDeduplicator {
            field: TEXT_KEY.to_string(),
            lowercase: true,
            ignore_non_alnum: true,
        }
    }

    /// Canonical form for hashing. Borrows when no normalization is
    /// configured, so the common exact-hash path allocates nothing.
    fn canonical<'a>(&self, text: &'a str) -> Cow<'a, str> {
        if !self.lowercase && !self.ignore_non_alnum {
            return Cow::Borrowed(text);
        }
        let mut t = if self.lowercase {
            text.to_lowercase()
        } else {
            text.to_string()
        };
        if self.ignore_non_alnum {
            t.retain(|c| c.is_alphanumeric());
        }
        Cow::Owned(t)
    }
}

impl Deduplicator for DocumentDeduplicator {
    fn name(&self) -> &'static str {
        "document_deduplicator"
    }

    fn fingerprint(
        &self,
        sample: &Sample,
        ctx: &mut SampleContext,
        out: &mut Vec<u64>,
    ) -> Result<()> {
        self.fingerprint_text(sample.text_at(&self.field), ctx, out)
    }

    fn hash_field(&self) -> Option<&str> {
        Some(&self.field)
    }

    /// The 128-bit content hash as two words, high limb first.
    fn fingerprint_text(
        &self,
        text: &str,
        _ctx: &mut SampleContext,
        out: &mut Vec<u64>,
    ) -> Result<()> {
        let h = hash128(self.canonical(text).as_bytes());
        out.extend([(h >> 64) as u64, h as u64]);
        Ok(())
    }

    fn cluster(&self, fingerprints: &Fingerprints, _num_workers: usize) -> Result<Vec<bool>> {
        let words = fixed_width(self.name(), fingerprints, 2)?;
        Ok(ParallelDedup::exact_mask(words.as_chunks().0))
    }
}

/// The most words a MinHash signature may have (`bands × rows`): eight
/// times the default 128, and 8 KB per sample in the barrier. A recipe
/// asking for more is refused before anything is allocated.
pub const MAX_SIGNATURE_WORDS: usize = 1024;

/// MinHash-LSH near-duplicate removal (`document_minhash_deduplicator`).
#[derive(Debug, Clone)]
pub struct MinHashDeduplicator {
    pub field: String,
    pub jaccard_threshold: f64,
    pub bands: usize,
    pub rows: usize,
    pub shingle_size: usize,
    hasher: MinHasher,
}

impl MinHashDeduplicator {
    /// `bands * rows` hash functions, at most [`MAX_SIGNATURE_WORDS`]; the
    /// candidate S-curve midpoint is approximately `(1/bands)^(1/rows)`.
    pub fn new(
        jaccard_threshold: f64,
        bands: usize,
        rows: usize,
        shingle_size: usize,
    ) -> Result<Self> {
        if !(0.0..=1.0).contains(&jaccard_threshold) {
            return Err(DjError::Config(
                "minhash: jaccard_threshold must be in [0,1]".into(),
            ));
        }
        if bands == 0 || rows == 0 || shingle_size == 0 {
            return Err(DjError::Config(
                "minhash: bands, rows and shingle_size must be positive".into(),
            ));
        }
        let width = bands
            .checked_mul(rows)
            .filter(|&w| w <= MAX_SIGNATURE_WORDS)
            .ok_or_else(|| {
                DjError::Config(format!(
                    "minhash: bands × rows must be at most {MAX_SIGNATURE_WORDS} \
                     hash functions, got {bands} × {rows}"
                ))
            })?;
        Ok(MinHashDeduplicator {
            field: TEXT_KEY.to_string(),
            jaccard_threshold,
            bands,
            rows,
            shingle_size,
            hasher: MinHasher::new(width, shingle_size),
        })
    }

    /// The paper-style default: threshold 0.7, 16 bands × 8 rows, 5-shingles.
    pub fn default_config() -> Self {
        Self::new(0.7, 16, 8, 5).expect("valid defaults")
    }
}

impl Deduplicator for MinHashDeduplicator {
    fn name(&self) -> &'static str {
        "document_minhash_deduplicator"
    }

    fn fingerprint(
        &self,
        sample: &Sample,
        ctx: &mut SampleContext,
        out: &mut Vec<u64>,
    ) -> Result<()> {
        self.fingerprint_text(sample.text_at(&self.field), ctx, out)
    }

    fn hash_field(&self) -> Option<&str> {
        Some(&self.field)
    }

    /// The `bands × rows` signature, written straight into `out`.
    fn fingerprint_text(
        &self,
        text: &str,
        ctx: &mut SampleContext,
        out: &mut Vec<u64>,
    ) -> Result<()> {
        let start = out.len();
        out.resize(start + self.hasher.num_hashes(), 0);
        let (words, joined, bases) = ctx.words_and_buffers(text);
        // Every word and its separator: a cold buffer grows once, not by
        // doubling.
        joined.clear();
        joined.reserve(text.len() + words.len());
        self.hasher
            .signature_into(words, joined, bases, &mut out[start..]);
        Ok(())
    }

    fn cluster(&self, fingerprints: &Fingerprints, num_workers: usize) -> Result<Vec<bool>> {
        let words = fixed_width(self.name(), fingerprints, self.bands * self.rows)?;
        Ok(ParallelDedup::new(num_workers).minhash_mask(
            words,
            self.bands,
            self.rows,
            self.jaccard_threshold,
        ))
    }
}

/// SimHash near-duplicate removal (`document_simhash_deduplicator`),
/// the vector-based comparison method.
#[derive(Debug, Clone)]
pub struct SimHashDeduplicator {
    pub field: String,
    pub max_distance: u32,
}

impl SimHashDeduplicator {
    pub fn new(max_distance: u32) -> Result<Self> {
        if max_distance > 16 {
            return Err(DjError::Config(
                "simhash: max_distance above 16 makes everything a duplicate".into(),
            ));
        }
        Ok(SimHashDeduplicator {
            field: TEXT_KEY.to_string(),
            max_distance,
        })
    }
}

impl Deduplicator for SimHashDeduplicator {
    fn name(&self) -> &'static str {
        "document_simhash_deduplicator"
    }

    fn fingerprint(
        &self,
        sample: &Sample,
        ctx: &mut SampleContext,
        out: &mut Vec<u64>,
    ) -> Result<()> {
        self.fingerprint_text(sample.text_at(&self.field), ctx, out)
    }

    fn hash_field(&self) -> Option<&str> {
        Some(&self.field)
    }

    fn fingerprint_text(
        &self,
        text: &str,
        ctx: &mut SampleContext,
        out: &mut Vec<u64>,
    ) -> Result<()> {
        out.push(simhash_tokens(ctx.words(text)));
        Ok(())
    }

    fn cluster(&self, fingerprints: &Fingerprints, num_workers: usize) -> Result<Vec<bool>> {
        let words = fixed_width(self.name(), fingerprints, 1)?;
        Ok(ParallelDedup::new(num_workers).simhash_mask(words, self.max_distance))
    }

    /// The one-word fingerprint as a bare int, not a one-element list.
    fn compute_hash(&self, sample: &Sample, ctx: &mut SampleContext) -> Result<Value> {
        let fp = simhash_tokens(ctx.words(sample.text_at(&self.field)));
        Ok(Value::Int(fp as i64))
    }
}

/// Paragraph-level exact dedup across the dataset: a sample is dropped when
/// all of its paragraphs have already been seen in kept samples
/// (`paragraph_deduplicator` — the "multiple views" comparison of Table 1).
#[derive(Debug, Clone)]
pub struct ParagraphDeduplicator {
    pub field: String,
}

impl Default for ParagraphDeduplicator {
    fn default() -> Self {
        ParagraphDeduplicator {
            field: TEXT_KEY.to_string(),
        }
    }
}

impl ParagraphDeduplicator {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Deduplicator for ParagraphDeduplicator {
    fn name(&self) -> &'static str {
        "paragraph_deduplicator"
    }

    fn fingerprint(
        &self,
        sample: &Sample,
        ctx: &mut SampleContext,
        out: &mut Vec<u64>,
    ) -> Result<()> {
        self.fingerprint_text(sample.text_at(&self.field), ctx, out)
    }

    fn hash_field(&self) -> Option<&str> {
        Some(&self.field)
    }

    /// One word per non-blank paragraph.
    fn fingerprint_text(
        &self,
        text: &str,
        _ctx: &mut SampleContext,
        out: &mut Vec<u64>,
    ) -> Result<()> {
        let paragraphs = text.split("\n\n").map(str::trim).filter(|p| !p.is_empty());
        out.extend(paragraphs.map(|p| dj_hash::hash64(p.as_bytes())));
        Ok(())
    }

    fn cluster(&self, fingerprints: &Fingerprints, _num_workers: usize) -> Result<Vec<bool>> {
        Ok(ParallelDedup::paragraph_mask(fingerprints))
    }
}

/// The words of `fingerprints` once every sample's run is `width` long —
/// the shape clustering indexes by; fingerprints of any other shape (a
/// damaged sidecar, a caller's own values) are an error naming the sample,
/// and so is a dataset too large for clustering's 32-bit sample ids.
fn fixed_width<'a>(op: &str, fingerprints: &'a Fingerprints, width: usize) -> Result<&'a [u64]> {
    if fingerprints.len() > u32::MAX as usize {
        return Err(DjError::op(
            op,
            format!(
                "{} samples in one barrier; clustering numbers them in 32 bits",
                fingerprints.len()
            ),
        ));
    }
    match fingerprints.first_not_of_width(width) {
        None => Ok(fingerprints.words()),
        Some(i) => Err(DjError::op(
            op,
            format!(
                "fingerprint of sample {i} has {} words, expected {width}",
                fingerprints.get(i).len()
            ),
        )),
    }
}

/// Run a deduplicator end-to-end on a dataset (hash phase then mask phase),
/// returning the deduplicated dataset and the number of removed samples.
pub fn run_dedup(dedup: &dyn Deduplicator, mut dataset: Dataset) -> Result<(Dataset, usize)> {
    let mut ctx = SampleContext::new();
    let mut fingerprints = Fingerprints::with_capacity(dataset.len());
    for s in dataset.iter() {
        ctx.invalidate();
        fingerprints.push_with(|out| dedup.fingerprint(s, &mut ctx, out))?;
    }
    let mask = dedup.cluster(&fingerprints, 1)?;
    let removed = mask.iter().filter(|&&k| !k).count();
    dataset.retain_mask(&mask);
    Ok((dataset, removed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds(texts: &[&str]) -> Dataset {
        Dataset::from_texts(texts.iter().copied())
    }

    #[test]
    fn exact_dedup_keeps_first_occurrence() {
        let d = ds(&["a", "b", "a", "c", "b"]);
        let (out, removed) = run_dedup(&DocumentDeduplicator::new(), d).unwrap();
        assert_eq!(removed, 2);
        let texts: Vec<_> = out.iter().map(|s| s.text()).collect();
        assert_eq!(texts, vec!["a", "b", "c"]);
    }

    #[test]
    fn normalized_dedup_catches_reformatted() {
        let d = ds(&["Hello, World!", "hello world", "different"]);
        let (out, removed) = run_dedup(&DocumentDeduplicator::normalized(), d).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(out.len(), 2);
        // Exact mode keeps both variants.
        let d2 = ds(&["Hello, World!", "hello world", "different"]);
        let (out2, _) = run_dedup(&DocumentDeduplicator::new(), d2).unwrap();
        assert_eq!(out2.len(), 3);
    }

    const LONG_BASE: &str = "the data juicer system processes massive heterogeneous corpora for \
         large language model pretraining with composable operators and tools \
         the pipeline applies filters mappers and deduplicators in sequence \
         producing refined recipes that improve downstream model quality";

    #[test]
    fn minhash_catches_near_duplicates() {
        let base = LONG_BASE;
        let near = format!("{base} indeed truly");
        let far = "completely unrelated text about gardening tomatoes in the greenhouse \
                   with notes on watering schedules and soil acidity levels for beginners";
        let d = ds(&[base, &near, far]);
        let (out, removed) = run_dedup(&MinHashDeduplicator::default_config(), d).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(out.len(), 2);
        assert_eq!(out.get(0).unwrap().text(), base);
    }

    #[test]
    fn simhash_catches_near_duplicates() {
        let base = LONG_BASE;
        let near = format!("{base} indeed truly");
        let far = "gardening tomatoes greenhouse watering schedule soil acidity compost \
                   seeds sunlight harvest pruning fertilizer mulch irrigation beds";
        let d = ds(&[base, &near, far]);
        let (out, removed) = run_dedup(&SimHashDeduplicator::new(3).unwrap(), d).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn paragraph_dedup_drops_fully_seen_docs() {
        let d = ds(&[
            "para one\n\npara two",
            "para two\n\npara three", // has a new paragraph → kept
            "para one\n\npara three", // all paragraphs already seen → dropped
            "",                       // empty → kept
        ]);
        let (out, removed) = run_dedup(&ParagraphDeduplicator::new(), d).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn dedup_on_large_duplicated_corpus() {
        // 200 docs, every 4th is a duplicate of doc i-4.
        let texts: Vec<String> = (0..200)
            .map(|i| {
                if i % 4 == 3 {
                    format!("unique document number {} with some padding words", i - 3)
                } else {
                    format!("unique document number {i} with some padding words")
                }
            })
            .collect();
        let d = Dataset::from_texts(texts);
        let (out, removed) = run_dedup(&DocumentDeduplicator::new(), d).unwrap();
        assert_eq!(removed, 50);
        assert_eq!(out.len(), 150);
    }

    #[test]
    fn config_validation() {
        assert!(MinHashDeduplicator::new(1.5, 4, 4, 3).is_err());
        assert!(MinHashDeduplicator::new(0.5, 0, 4, 3).is_err());
        assert!(SimHashDeduplicator::new(40).is_err());
        // A signature past the ceiling, or past `usize` where the product
        // wraps, is refused before the hasher allocates its seeds.
        for (bands, rows) in [
            (3_000_000, 3_000_000),
            (1 << 32, 1 << 32),
            (MAX_SIGNATURE_WORDS + 1, 1),
        ] {
            let err = MinHashDeduplicator::new(0.7, bands, rows, 5).unwrap_err();
            assert!(matches!(err, DjError::Config(_)), "{bands} × {rows}: {err}");
        }
        let widest = MinHashDeduplicator::new(0.7, MAX_SIGNATURE_WORDS / 8, 8, 5).unwrap();
        assert_eq!(widest.hasher.num_hashes(), MAX_SIGNATURE_WORDS);
    }

    #[test]
    fn mask_length_mismatch_is_error() {
        let dedup = DocumentDeduplicator::new();
        let d = ds(&["a", "b"]);
        let err = dedup.keep_mask(d.len(), &[]).unwrap_err();
        assert!(err.to_string().contains("0 hashes for 2 samples"));
    }

    #[test]
    fn empty_dataset_roundtrip() {
        let (out, removed) = run_dedup(&DocumentDeduplicator::new(), Dataset::new()).unwrap();
        assert!(out.is_empty());
        assert_eq!(removed, 0);
    }

    /// The `hash_field` contract: for every built-in deduplicator,
    /// `fingerprint_text(sample.text_at(field))` must append what
    /// `fingerprint(sample)` appends — the zero-copy slab hash pass relies
    /// on it — and `compute_hash` must be those words as a `Value`.
    #[test]
    fn compute_hash_text_matches_compute_hash() {
        let d = ds(&[
            LONG_BASE,
            "",
            "para one\n\npara two",
            "Ünïcødé ♥ 中文 🦀 mixed-script text",
            "Hello, World!",
        ]);
        let dedups: Vec<Box<dyn Deduplicator>> = vec![
            Box::new(DocumentDeduplicator::new()),
            Box::new(DocumentDeduplicator::normalized()),
            Box::new(MinHashDeduplicator::default_config()),
            Box::new(SimHashDeduplicator::new(3).unwrap()),
            Box::new(ParagraphDeduplicator::new()),
        ];
        for dedup in &dedups {
            let field = dedup
                .hash_field()
                .expect("built-ins are single-field")
                .to_string();
            // One context and one buffer for all samples, as a hash pass has.
            let (mut ctx, mut whole, mut text_only) = (SampleContext::new(), vec![7], vec![7]);
            for s in d.iter() {
                let (start, name) = (whole.len(), dedup.name());
                ctx.invalidate();
                dedup.fingerprint(s, &mut ctx, &mut whole).unwrap();
                ctx.invalidate();
                dedup
                    .fingerprint_text(s.text_at(&field), &mut ctx, &mut text_only)
                    .unwrap();
                assert_eq!(whole, text_only, "{name}");
                // The adapter wraps the same words, and unwraps back to them.
                let value = dedup.compute_hash(s, &mut SampleContext::new()).unwrap();
                let unwrapped = Fingerprints::from_values(name, &[value]).unwrap();
                assert_eq!(unwrapped.words(), &whole[start..], "{name}");
            }
        }
    }

    fn dup_heavy_corpus() -> Dataset {
        let base = LONG_BASE;
        let near = format!("{base} indeed truly");
        Dataset::from_texts((0..40).map(|i| match i % 5 {
            0 => base.to_string(),
            1 => near.clone(),
            2 => format!("unique document number {i} about methodology\n\nshared para"),
            3 => "shared para".to_string(),
            _ => format!("unique document number {i} about methodology"),
        }))
    }

    /// Both representations of one dataset's fingerprints: the words the
    /// engine moves and the `Value`s of the Listing 1 adapters.
    fn hash_both_ways(dedup: &dyn Deduplicator, d: &Dataset) -> (Fingerprints, Vec<Value>) {
        let mut ctx = SampleContext::new();
        let mut words = Fingerprints::new();
        let mut values = Vec::new();
        for s in d.iter() {
            ctx.invalidate();
            words
                .push_with(|out| dedup.fingerprint(s, &mut ctx, out))
                .unwrap();
            ctx.invalidate();
            values.push(dedup.compute_hash(s, &mut ctx).unwrap());
        }
        (words, values)
    }

    /// Every deduplicator's mask at any worker count must be identical to
    /// its one-worker `keep_mask` (the executor treats workers as a pure
    /// perf knob), through the word method and through the `Value` adapter
    /// alike.
    #[test]
    fn parallel_keep_mask_matches_sequential() {
        let d = dup_heavy_corpus();
        let dedups: Vec<Box<dyn Deduplicator>> = vec![
            Box::new(DocumentDeduplicator::new()),
            Box::new(MinHashDeduplicator::default_config()),
            Box::new(SimHashDeduplicator::new(3).unwrap()),
            Box::new(ParagraphDeduplicator::new()),
        ];
        for dedup in &dedups {
            let (words, values) = hash_both_ways(dedup.as_ref(), &d);
            assert_eq!(
                Fingerprints::from_values(dedup.name(), &values).unwrap(),
                words
            );
            let sequential = dedup.keep_mask(d.len(), &values).unwrap();
            assert!(
                sequential.iter().any(|&k| !k),
                "{} must drop something",
                dedup.name()
            );
            for workers in [1usize, 2, 3, 4, 8] {
                let adapter = dedup.keep_mask_parallel(d.len(), &values, workers).unwrap();
                assert_eq!(adapter, sequential, "{} workers={workers}", dedup.name());
                let direct = dedup.cluster(&words, workers).unwrap();
                assert_eq!(direct, sequential, "{} workers={workers}", dedup.name());
            }
        }
    }

    /// A fingerprint of the wrong width — words read back from a damaged
    /// sidecar, or a caller's own values — is an error naming the operator
    /// and the sample, whichever way it comes in and at any worker count.
    #[test]
    fn a_fingerprint_of_the_wrong_width_is_an_error_not_a_panic() {
        let d = dup_heavy_corpus();
        let dedups: Vec<Box<dyn Deduplicator>> = vec![
            Box::new(DocumentDeduplicator::new()),
            Box::new(MinHashDeduplicator::default_config()),
            Box::new(SimHashDeduplicator::new(3).unwrap()),
        ];
        for dedup in &dedups {
            let (words, values) = hash_both_ways(dedup.as_ref(), &d);
            let width = words.get(0).len();
            let resized = |len: usize| {
                let mut sample = words.get(17).to_vec();
                sample.resize(len, 1);
                sample
            };
            for bad in [resized(width - 1), resized(width + 1), resized(2 * width)] {
                let mut damaged = Fingerprints::new();
                for (i, sample) in words.iter().enumerate() {
                    damaged.push(if i == 17 { &bad } else { sample }).unwrap();
                }
                let mut bad_values = values.clone();
                bad_values[17] = dj_core::words_to_value(&bad);
                for workers in [1, 2] {
                    let by_words = dedup.cluster(&damaged, workers);
                    let by_values = dedup.keep_mask_parallel(d.len(), &bad_values, workers);
                    for err in [by_words.unwrap_err(), by_values.unwrap_err()] {
                        assert!(matches!(err, DjError::Op { .. }), "{err}");
                        let text = err.to_string();
                        assert!(
                            text.contains(dedup.name()) && text.contains("sample 17"),
                            "{text}"
                        );
                    }
                }
            }
        }
    }
}
