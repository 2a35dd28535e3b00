//! Context management: shared intermediate variables across operators.
//!
//! Many OPs derive the same intermediate views from a sample's text —
//! segmented words, split lines, sentences, character-class counts (paper
//! §6, "Optimized Computation"). A [`SampleContext`] memoizes those views
//! for the text they were computed from, so fused operators reuse them
//! instead of re-deriving them.
//!
//! The views never copy text. Words, lines and sentences are byte-offset
//! [`Span`]s into the text the caller still holds, kept in buffers that
//! survive from sample to sample: invalidating or clearing the context
//! resets their length, not their capacity, so a warmed context derives
//! views without touching the allocator.

/// Bit flags describing which derived views an operator consumes.
///
/// Two Filters are *fusible* when their context needs intersect (they share
/// a computation sub-procedure, paper §6 / Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContextNeeds(pub u8);

impl ContextNeeds {
    pub const NONE: ContextNeeds = ContextNeeds(0);
    pub const WORDS: ContextNeeds = ContextNeeds(1);
    pub const LINES: ContextNeeds = ContextNeeds(1 << 1);
    pub const SENTENCES: ContextNeeds = ContextNeeds(1 << 2);
    pub const CHARS: ContextNeeds = ContextNeeds(1 << 3);

    /// Union of two need sets.
    pub const fn union(self, other: ContextNeeds) -> ContextNeeds {
        ContextNeeds(self.0 | other.0)
    }

    /// True when the two need sets share at least one view.
    pub const fn intersects(self, other: ContextNeeds) -> bool {
        self.0 & other.0 != 0
    }

    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// A half-open byte range `start..end` of the text a view was derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub start: usize,
    pub end: usize,
}

/// A borrowed view of a text cut into pieces (words, lines or sentences):
/// the text plus the spans of its pieces. `Copy`, and free to iterate more
/// than once.
#[derive(Debug, Clone, Copy)]
pub struct Spans<'a> {
    text: &'a str,
    spans: &'a [Span],
}

impl<'a> Spans<'a> {
    /// Pair `text` with spans derived from it.
    pub fn new(text: &'a str, spans: &'a [Span]) -> Spans<'a> {
        Spans { text, spans }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The `i`-th piece. Spans that do not fit the text (a view asked for
    /// with another text than it was derived from) read as `""`.
    pub fn get(&self, i: usize) -> &'a str {
        self.spans.get(i).map_or("", |s| slice(self.text, *s))
    }

    pub fn iter(&self) -> SpanIter<'a> {
        SpanIter {
            text: self.text,
            spans: self.spans.iter(),
        }
    }
}

impl<'a> IntoIterator for Spans<'a> {
    type Item = &'a str;
    type IntoIter = SpanIter<'a>;

    fn into_iter(self) -> SpanIter<'a> {
        self.iter()
    }
}

/// Iterator over the pieces of a [`Spans`] view.
#[derive(Debug, Clone)]
pub struct SpanIter<'a> {
    text: &'a str,
    spans: std::slice::Iter<'a, Span>,
}

impl<'a> Iterator for SpanIter<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.spans.next().map(|s| slice(self.text, *s))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.spans.size_hint()
    }
}

impl ExactSizeIterator for SpanIter<'_> {}

fn slice(text: &str, span: Span) -> &str {
    text.get(span.start..span.end).unwrap_or("")
}

/// Character-class counts of a text, the shared `CHARS` view: one pass
/// feeds every character-ratio filter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CharCounts {
    /// All characters (Unicode scalar values).
    pub chars: usize,
    pub alphanumeric: usize,
    pub whitespace: usize,
    /// ASCII digits `0-9`.
    pub digits: usize,
    pub alphabetic: usize,
    /// Uppercase among the alphabetic characters.
    pub uppercase: usize,
    /// Neither alphanumeric, whitespace, nor common punctuation.
    pub special: usize,
}

/// Classes of an ASCII byte. Each has a 10-bit counter in a packed `u64`.
const SPECIAL: u32 = 0;
const LOWER: u32 = 1;
const UPPER: u32 = 2;
const DIGIT: u32 = 3;
const SPACE: u32 = 4;
const PUNCT: u32 = 5;
const COUNTER_BITS: u32 = 10;

/// Per byte, a 1 in its class's packed counter; 0 for non-ASCII bytes.
const fn packed_classes() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut b = 0usize;
    while b < 128 {
        let c = b as u8;
        let class = if c.is_ascii_lowercase() {
            LOWER
        } else if c.is_ascii_uppercase() {
            UPPER
        } else if c.is_ascii_digit() {
            DIGIT
        } else if matches!(c, b'\t'..=b'\r' | b' ') {
            SPACE // `char::is_whitespace` on ASCII, vertical tab included
        } else if matches!(
            c,
            b'.' | b',' | b'!' | b'?' | b';' | b':' | b'\'' | b'"' | b'-' | b'(' | b')'
        ) {
            PUNCT
        } else {
            SPECIAL
        };
        table[b] = 1 << (class * COUNTER_BITS);
        b += 1;
    }
    table
}

static PACKED_CLASS: [u64; 256] = packed_classes();

impl CharCounts {
    /// Count every class in one pass over the bytes: per byte one table
    /// lookup and one add into six packed counters, emptied before any can
    /// overflow. `char` predicates run only for non-ASCII characters.
    pub fn of(text: &str) -> CharCounts {
        let mut ascii = [0usize; 6];
        for block in text.as_bytes().chunks((1 << COUNTER_BITS) - 1) {
            let packed = block
                .iter()
                .fold(0u64, |sum, &b| sum + PACKED_CLASS[b as usize]);
            for (class, count) in ascii.iter_mut().enumerate() {
                let counter = packed >> (class as u32 * COUNTER_BITS);
                *count += (counter & ((1 << COUNTER_BITS) - 1)) as usize;
            }
        }
        let [special, lower, upper, digit, space, punct] = ascii;
        let mut n = CharCounts {
            chars: special + lower + upper + digit + space + punct,
            alphanumeric: lower + upper + digit,
            whitespace: space,
            digits: digit,
            alphabetic: lower + upper,
            uppercase: upper,
            special,
        };
        if n.chars == text.len() {
            return n; // all ASCII
        }
        for c in text.chars().filter(|c| !c.is_ascii()) {
            n.chars += 1;
            let alnum = c.is_alphanumeric();
            let space = c.is_whitespace();
            n.alphanumeric += alnum as usize;
            n.whitespace += space as usize;
            if c.is_alphabetic() {
                n.alphabetic += 1;
                n.uppercase += c.is_uppercase() as usize;
            }
            let punct = matches!(c, '。' | '，' | '！' | '？' | '；' | '：');
            n.special += !(alnum || space || punct) as usize;
        }
        n
    }

    fn ratio(part: usize, whole: usize) -> f64 {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    }

    /// Alphanumeric characters over all characters (0 for empty text).
    pub fn alnum_ratio(&self) -> f64 {
        Self::ratio(self.alphanumeric, self.chars)
    }

    /// Special characters over all characters.
    pub fn special_ratio(&self) -> f64 {
        Self::ratio(self.special, self.chars)
    }

    /// Whitespace characters over all characters.
    pub fn whitespace_ratio(&self) -> f64 {
        Self::ratio(self.whitespace, self.chars)
    }

    /// ASCII digits over all characters.
    pub fn digit_ratio(&self) -> f64 {
        Self::ratio(self.digits, self.chars)
    }

    /// Uppercase over alphabetic characters (0 when there are none).
    pub fn uppercase_ratio(&self) -> f64 {
        Self::ratio(self.uppercase, self.alphabetic)
    }
}

/// Length of the ASCII prefix of `bytes`.
fn non_ascii_run_start(bytes: &[u8]) -> usize {
    bytes
        .iter()
        .position(|b| !b.is_ascii())
        .unwrap_or(bytes.len())
}

/// End of the run of non-ASCII bytes starting at `start`. Both ends of the
/// run are character boundaries.
fn non_ascii_run_end(bytes: &[u8], start: usize) -> usize {
    bytes[start..]
        .iter()
        .position(u8::is_ascii)
        .map_or(bytes.len(), |len| start + len)
}

/// Memoized per-sample derived views.
///
/// A view is valid for the text it was derived from until the context is
/// [invalidated](SampleContext::invalidate) — the executor does that for
/// every new sample and whenever a Mapper rewrites the text.
#[derive(Debug, Default)]
pub struct SampleContext {
    /// Views derived since the last invalidation.
    valid: ContextNeeds,
    /// Address and length of the text the valid views belong to, so a
    /// fused group whose filters read different fields never shares them.
    text_id: (usize, usize),
    words: Vec<Span>,
    lines: Vec<Span>,
    sentences: Vec<Span>,
    chars: CharCounts,
    scratch: Vec<u64>,
    bytes: Vec<u8>,
    /// Count of (re)computations, exposed for the context-reuse ablation.
    pub compute_count: u64,
}

impl SampleContext {
    pub fn new() -> SampleContext {
        SampleContext::default()
    }

    /// Invalidate all cached views (new sample, or the text was rewritten
    /// by a Mapper). Buffers keep their capacity.
    pub fn invalidate(&mut self) {
        self.valid = ContextNeeds::NONE;
    }

    /// Drop cached views (end of a fused OP; paper: "contexts of each
    /// sample will be cleaned up after each fused OP"). Like
    /// [`invalidate`](SampleContext::invalidate) this resets lengths, not
    /// capacities: memory stays flat and the next sample allocates nothing.
    pub fn clear(&mut self) {
        self.invalidate();
    }

    /// True when `view` must be derived from `text` now; marks it valid.
    fn stale(&mut self, text: &str, view: ContextNeeds) -> bool {
        let id = (text.as_ptr() as usize, text.len());
        if self.text_id != id {
            self.text_id = id;
            self.invalidate();
        }
        if self.valid.intersects(view) {
            return false;
        }
        self.valid = self.valid.union(view);
        self.compute_count += 1;
        true
    }

    /// Segmented words of `text`, computed at most once per text version.
    ///
    /// Word segmentation is Unicode-alphanumeric runs; CJK characters are
    /// treated as single-character words, which matches how the paper's
    /// Chinese OPs count tokens without a whitespace convention.
    pub fn words<'a>(&'a mut self, text: &'a str) -> Spans<'a> {
        self.words_and_scratch(text).0
    }

    /// [`words`](SampleContext::words) plus the context's scratch buffer,
    /// for kernels that need working memory while they read the words
    /// (n-gram counting). The buffer's contents are unspecified.
    pub fn words_and_scratch<'a>(&'a mut self, text: &'a str) -> (Spans<'a>, &'a mut Vec<u64>) {
        let (words, _, scratch) = self.words_and_buffers(text);
        (words, scratch)
    }

    /// [`words_and_scratch`](SampleContext::words_and_scratch) plus a byte
    /// buffer, for kernels that also build a string while they read the
    /// words (MinHash shingling). Both buffers survive across samples;
    /// their contents are unspecified.
    pub fn words_and_buffers<'a>(
        &'a mut self,
        text: &'a str,
    ) -> (Spans<'a>, &'a mut Vec<u8>, &'a mut Vec<u64>) {
        if self.stale(text, ContextNeeds::WORDS) {
            word_spans(text, &mut self.words);
        }
        (
            Spans::new(text, &self.words),
            &mut self.bytes,
            &mut self.scratch,
        )
    }

    /// Working memory that survives across samples. Contents unspecified.
    pub fn scratch(&mut self) -> &mut Vec<u64> {
        &mut self.scratch
    }

    /// Lines of `text` (split on `\n`), computed at most once per version.
    pub fn lines<'a>(&'a mut self, text: &'a str) -> Spans<'a> {
        if self.stale(text, ContextNeeds::LINES) {
            line_spans(text, &mut self.lines);
        }
        Spans::new(text, &self.lines)
    }

    /// Sentences of `text` (split on `.!?` and CJK equivalents), memoized.
    pub fn sentences<'a>(&'a mut self, text: &'a str) -> Spans<'a> {
        if self.stale(text, ContextNeeds::SENTENCES) {
            sentence_spans(text, &mut self.sentences);
        }
        Spans::new(text, &self.sentences)
    }

    /// Character-class counts of `text`, memoized: the one pass every
    /// character-ratio filter of a fused group shares.
    pub fn chars(&mut self, text: &str) -> CharCounts {
        if self.stale(text, ContextNeeds::CHARS) {
            self.chars = CharCounts::of(text);
        }
        self.chars
    }
}

const fn word_bytes() -> [bool; 256] {
    let mut table = [false; 256];
    let mut b = 0usize;
    while b < 128 {
        let c = b as u8;
        table[b] = c.is_ascii_alphanumeric() || c == b'_' || c == b'\'';
        b += 1;
    }
    table
}

static WORD_BYTE: [bool; 256] = word_bytes();

/// ASCII bytes [`word_spans`] classifies per pass.
const BLOCK: usize = 64;

/// The one word segmentation shared by OPs, deduplicators and the
/// analyzer: replaces `out` with the spans of the words of `text`.
pub fn word_spans(text: &str, out: &mut Vec<Span>) {
    out.clear();
    let bytes = text.as_bytes();
    // Start of a word still being read when a run of non-ASCII bytes
    // begins or ends; a word may run across both kinds ("café").
    let mut open: Option<usize> = None;
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii() {
            // Up to a block of ASCII bytes at once, without a branch per
            // byte: every position is written to `marks`, and kept only
            // where word bytes start or stop. Word lengths are irregular,
            // so a branch there would mispredict about once a word.
            let mut block = &bytes[i..bytes.len().min(i + BLOCK)];
            if !block.is_ascii() {
                block = &block[..non_ascii_run_start(block)];
            }
            let mut marks = [0usize; BLOCK + 1];
            let mut count = 0;
            let mut inside = open.is_some();
            for (k, &b) in block.iter().enumerate() {
                let word = WORD_BYTE[b as usize];
                marks[count] = i + k;
                count += (word != inside) as usize;
                inside = word;
            }
            // The marks alternate between starts and ends of words.
            for &mark in &marks[..count] {
                match open.take() {
                    Some(start) => out.push(Span { start, end: mark }),
                    None => open = Some(mark),
                }
            }
            i += block.len();
            // A word open here runs on into a non-ASCII run, the next
            // block, or the end of the text.
            continue;
        }
        let end = non_ascii_run_end(bytes, i);
        for (offset, c) in text[i..end].char_indices() {
            let at = i + offset;
            if c.is_alphanumeric() && !is_cjk(c) {
                open.get_or_insert(at);
                continue;
            }
            if let Some(start) = open.take() {
                out.push(Span { start, end: at });
            }
            if is_cjk(c) {
                out.push(Span {
                    start: at,
                    end: at + c.len_utf8(),
                });
            }
        }
        i = end;
    }
    if let Some(start) = open {
        out.push(Span {
            start,
            end: text.len(),
        });
    }
}

/// Replace `out` with the spans of the `\n`-separated lines of `text`
/// (always at least one, like `str::split`).
pub fn line_spans(text: &str, out: &mut Vec<Span>) {
    out.clear();
    let mut start = 0;
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            out.push(Span { start, end: i });
            start = i + 1;
        }
    }
    out.push(Span {
        start,
        end: text.len(),
    });
}

/// Replace `out` with the spans of the sentences of `text`: cut after each
/// terminal punctuation mark (ASCII + CJK), trimmed, blank pieces dropped.
pub fn sentence_spans(text: &str, out: &mut Vec<Span>) {
    out.clear();
    let bytes = text.as_bytes();
    let mut push = |start: usize, end: usize| {
        let piece = &text[start..end];
        let lead = piece.len() - piece.trim_start().len();
        let kept = piece.trim().len();
        if kept > 0 {
            out.push(Span {
                start: start + lead,
                end: start + lead + kept,
            });
        }
    };
    let mut start = 0;
    let mut i = 0;
    while i < bytes.len() {
        // '。' '！' '？' are the only terminals beyond ASCII; UTF-8 is
        // self-synchronizing, so matching their bytes at a lead byte is
        // matching the character.
        let terminal = match bytes[i] {
            b'.' | b'!' | b'?' => 1,
            0xE3 if bytes[i..].starts_with("。".as_bytes()) => 3,
            0xEF if bytes[i..].starts_with("！".as_bytes())
                || bytes[i..].starts_with("？".as_bytes()) =>
            {
                3
            }
            _ => 0,
        };
        if terminal == 0 {
            i += 1;
            continue;
        }
        i += terminal;
        push(start, i);
        start = i;
    }
    push(start, bytes.len());
}

/// Words of `text` as owned strings — a convenience over [`word_spans`]
/// for callers that keep the words longer than the text.
pub fn segment_words(text: &str) -> Vec<String> {
    let mut spans = Vec::new();
    word_spans(text, &mut spans);
    Spans::new(text, &spans)
        .iter()
        .map(str::to_string)
        .collect()
}

/// Sentences of `text` as owned strings, over [`sentence_spans`].
pub fn segment_sentences(text: &str) -> Vec<String> {
    let mut spans = Vec::new();
    sentence_spans(text, &mut spans);
    Spans::new(text, &spans)
        .iter()
        .map(str::to_string)
        .collect()
}

/// True for CJK unified ideographs and common fullwidth ranges.
pub fn is_cjk(c: char) -> bool {
    matches!(c as u32,
        0x4E00..=0x9FFF      // CJK Unified Ideographs
        | 0x3400..=0x4DBF    // Extension A
        | 0x3000..=0x303F    // CJK punctuation
        | 0xFF00..=0xFFEF    // fullwidth forms
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_are_memoized_until_invalidated() {
        let mut ctx = SampleContext::new();
        let text = "one two three";
        assert_eq!(ctx.words(text).len(), 3);
        assert_eq!(ctx.words(text).len(), 3);
        assert_eq!(ctx.compute_count, 1);
        ctx.invalidate();
        assert_eq!(ctx.words("four five").len(), 2);
        assert_eq!(ctx.compute_count, 2);
    }

    #[test]
    fn views_are_not_shared_between_texts() {
        // A fused group whose filters read different fields hands the
        // context different texts without invalidating in between.
        let mut ctx = SampleContext::new();
        let (a, b) = ("one two three".to_string(), "four five".to_string());
        assert_eq!(ctx.words(&a).len(), 3);
        assert_eq!(ctx.words(&b).iter().collect::<Vec<_>>(), ["four", "five"]);
        assert_eq!(ctx.chars(&b).chars, 9);
        assert_eq!(ctx.chars(&a).chars, 13);
    }

    #[test]
    fn buffers_keep_their_capacity_across_samples() {
        let mut ctx = SampleContext::new();
        let long = "w ".repeat(500);
        assert_eq!(ctx.words(&long).len(), 500);
        let cap = ctx.words.capacity();
        ctx.clear();
        ctx.invalidate();
        assert_eq!(ctx.words("a b").len(), 2);
        assert_eq!(ctx.words.capacity(), cap);
    }

    #[test]
    fn segment_words_handles_cjk_and_contractions() {
        assert_eq!(segment_words("don't stop"), vec!["don't", "stop"]);
        assert_eq!(segment_words("数据处理"), vec!["数", "据", "处", "理"]);
        assert_eq!(
            segment_words("mix 数据 end"),
            vec!["mix", "数", "据", "end"]
        );
        assert_eq!(segment_words(""), Vec::<String>::new());
        assert_eq!(segment_words("  ,,  "), Vec::<String>::new());
    }

    #[test]
    fn words_run_across_ascii_and_non_ascii() {
        assert_eq!(segment_words("café au lait"), ["café", "au", "lait"]);
        assert_eq!(segment_words("naïve_x'y"), ["naïve_x'y"]);
        assert_eq!(segment_words("ab数cd"), ["ab", "数", "cd"]);
        assert_eq!(segment_words("x。y"), ["x", "。", "y"]); // CJK punctuation counts
        assert_eq!(segment_words("a—b"), ["a", "b"]);
    }

    #[test]
    fn segment_sentences_splits_on_terminals() {
        let s = segment_sentences("One. Two! Three? Four");
        assert_eq!(s, vec!["One.", "Two!", "Three?", "Four"]);
        let zh = segment_sentences("第一句。第二句！");
        assert_eq!(zh, vec!["第一句。", "第二句！"]);
        assert_eq!(segment_sentences(" . x  "), vec![".", "x"]);
        assert!(segment_sentences("  \n ").is_empty());
    }

    #[test]
    fn lines_split_like_str_split() {
        let mut ctx = SampleContext::new();
        for text in ["", "a", "a\nb", "a\n", "\n\n", "a\r\nb"] {
            ctx.invalidate();
            let got: Vec<&str> = ctx.lines(text).iter().collect();
            assert_eq!(got, text.split('\n').collect::<Vec<_>>(), "{text:?}");
        }
    }

    #[test]
    fn char_counts_match_char_predicates() {
        let text = "Ab1 _.\t\u{b}É²数。\u{a0}░";
        let n = CharCounts::of(text);
        let count = |p: &dyn Fn(char) -> bool| text.chars().filter(|c| p(*c)).count();
        assert_eq!(n.chars, text.chars().count());
        assert_eq!(n.alphanumeric, count(&|c| c.is_alphanumeric()));
        assert_eq!(n.whitespace, count(&|c| c.is_whitespace()));
        assert_eq!(n.digits, 1);
        assert_eq!(n.alphabetic, count(&|c| c.is_alphabetic()));
        assert_eq!(n.uppercase, 2);
        assert_eq!(n.special, 2); // '_' and '░'
        assert_eq!(CharCounts::of(""), CharCounts::default());
        assert_eq!(CharCounts::default().alnum_ratio(), 0.0);
        assert_eq!(CharCounts::default().uppercase_ratio(), 0.0);
    }

    #[test]
    fn stale_spans_read_as_empty() {
        let spans = [Span { start: 1, end: 9 }, Span { start: 1, end: 2 }];
        let view = Spans::new("数", &spans);
        assert_eq!(view.get(0), "");
        assert_eq!(view.get(1), ""); // not a character boundary
        assert_eq!(view.get(2), "");
    }

    #[test]
    fn needs_set_operations() {
        let wl = ContextNeeds::WORDS.union(ContextNeeds::LINES);
        assert!(wl.intersects(ContextNeeds::WORDS));
        assert!(wl.intersects(ContextNeeds::LINES));
        assert!(!wl.intersects(ContextNeeds::SENTENCES));
        assert!(!ContextNeeds::NONE.intersects(wl));
        assert!(ContextNeeds::NONE.is_empty());
    }

    #[test]
    fn clear_forces_recompute() {
        let mut ctx = SampleContext::new();
        ctx.words("a b");
        ctx.clear();
        ctx.words("a b");
        assert_eq!(ctx.compute_count, 2);
    }
}
