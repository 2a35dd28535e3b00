//! Text normalization and repair utilities backing the Mapper OPs:
//! whitespace unification, unicode punctuation fixing, mojibake ("messy
//! code") repair, and removals of headers/links/emails/IPs — the in-place
//! text-editing functions of Table 1.
//!
//! Every function returns a [`Cow`]: text that needs no edit comes back
//! borrowed, at zero allocations, and edited text is built in one buffer.
//! [`Rewrite`] is the builder that makes this the default — it stays a
//! borrow for as long as what is pushed repeats the source.

use std::borrow::Cow;

/// Builds the edited form of `src`, borrowing while it can.
///
/// Push the output piece by piece. While every piece repeats the source
/// from where the last one ended, nothing is copied; the first piece that
/// differs allocates one buffer (sized for the source) and copies the
/// agreed prefix into it. [`finish`](Rewrite::finish) returns the borrowed
/// prefix or the buffer.
#[derive(Debug)]
pub struct Rewrite<'a> {
    src: &'a str,
    /// Bytes of `src` the output agrees with so far (while `out` is unset).
    kept: usize,
    out: Option<String>,
}

impl<'a> Rewrite<'a> {
    pub fn new(src: &'a str) -> Rewrite<'a> {
        Rewrite {
            src,
            kept: 0,
            out: None,
        }
    }

    pub fn push_str(&mut self, piece: &str) {
        if let Some(out) = &mut self.out {
            out.push_str(piece);
            return;
        }
        let rest = &self.src.as_bytes()[self.kept..];
        // Pieces are mostly slices of the source itself, already in place.
        let in_place = std::ptr::eq(rest.as_ptr(), piece.as_ptr()) && piece.len() <= rest.len();
        if in_place || rest.starts_with(piece.as_bytes()) {
            self.kept += piece.len();
            return;
        }
        let mut out = String::with_capacity(self.src.len());
        out.push_str(&self.src[..self.kept]);
        out.push_str(piece);
        self.out = Some(out);
    }

    pub fn push(&mut self, c: char) {
        self.push_str(c.encode_utf8(&mut [0; 4]));
    }

    /// The output so far.
    pub fn as_str(&self) -> &str {
        match &self.out {
            Some(out) => out,
            None => &self.src[..self.kept],
        }
    }

    pub fn finish(self) -> Cow<'a, str> {
        match self.out {
            Some(out) => Cow::Owned(out),
            None => Cow::Borrowed(&self.src[..self.kept]),
        }
    }
}

/// Apply `f` to a text that may already be an edited copy.
fn and_then<'a>(text: Cow<'a, str>, f: impl Fn(&str) -> Cow<'_, str>) -> Cow<'a, str> {
    match text {
        Cow::Borrowed(t) => f(t),
        Cow::Owned(t) => {
            let edited = match f(&t) {
                Cow::Borrowed(kept) if kept == t => None,
                edited => Some(edited.into_owned()),
            };
            Cow::Owned(edited.unwrap_or(t))
        }
    }
}

/// True when lowercasing leaves `text` as it is.
fn is_lowercase(text: &str) -> bool {
    text.chars().all(|c| {
        let mut lower = c.to_lowercase();
        lower.next() == Some(c) && lower.next().is_none()
    })
}

/// `text.to_lowercase()`, borrowed when the text already is lowercase.
pub fn lowercase(text: &str) -> Cow<'_, str> {
    if is_lowercase(text) {
        Cow::Borrowed(text)
    } else {
        Cow::Owned(text.to_lowercase())
    }
}

/// `word.to_lowercase()` for lookups: the word itself when it already is
/// lowercase, otherwise written into the caller's reused `buf`.
pub fn lowercase_into<'a>(word: &'a str, buf: &'a mut String) -> &'a str {
    if is_lowercase(word) {
        return word;
    }
    buf.clear();
    if word.is_ascii() {
        buf.push_str(word);
        buf.make_ascii_lowercase();
    } else {
        buf.push_str(&word.to_lowercase());
    }
    buf
}

/// True for a copyright / license boilerplate line: its lowercase form
/// contains one of a few markers (`clean_copyright_mapper`).
pub fn is_copyright_line(line: &str) -> bool {
    // ASCII, lowercase, none containing `k` or ending in `i`: the two
    // ASCII letters a non-ASCII character lowercases to (`K` KELVIN SIGN;
    // `İ`, which leaves a combining dot behind). So matching bytes
    // ASCII-case-insensitively is matching `line.to_lowercase()`.
    const MARKERS: [&str; 6] = [
        "copyright",
        "all rights reserved",
        "(c) 19",
        "(c) 20",
        "licensed under",
        "spdx-license-identifier",
    ];
    MARKERS.iter().any(|m| {
        line.as_bytes()
            .windows(m.len())
            .any(|w| w.eq_ignore_ascii_case(m.as_bytes()))
    })
}

/// Bytes at which [`normalize_whitespace`] stops copying a run: the ASCII
/// blanks and line breaks, and the lead bytes of U+00A0 and U+3000.
static ENDS_RUN: [bool; 256] = {
    let mut table = [false; 256];
    let stops = [b'\n', b'\r', b' ', b'\t', 0xC2, 0xE3];
    let mut i = 0;
    while i < stops.len() {
        table[stops[i] as usize] = true;
        i += 1;
    }
    table
};

/// A sufficient test that [`normalize_whitespace`] changes nothing, written
/// as branch-free comparisons over neighbouring bytes so it runs at memory
/// speed; most documents of a cleaned corpus stop here. Any byte it cannot
/// judge alone (`\r`, `\t`, the lead bytes of U+00A0 / U+3000) counts
/// against the text, which then takes the exact path.
fn is_whitespace_normal(bytes: &[u8]) -> bool {
    let (Some(&first), Some(&last)) = (bytes.first(), bytes.last()) else {
        return true;
    };
    let blank_edge = first == b' ' || matches!(last, b' ' | b'\n');
    let unclear = bytes.iter().fold(false, |any, &b| {
        any | matches!(b, b'\r' | b'\t' | 0xC2 | 0xE3)
    });
    // A space next to a space or a line break, in either order.
    let doubled = bytes.windows(2).fold(false, |any, w| {
        let blank = |b: u8| (b == b' ') | (b == b'\n');
        any | (blank(w[0]) & blank(w[1]) & ((w[0] == b' ') | (w[1] == b' ')))
    });
    let long_break = bytes.windows(3).fold(false, |any, w| {
        any | ((w[0] == b'\n') & (w[1] == b'\n') & (w[2] == b'\n'))
    });
    !(blank_edge | unclear | doubled | long_break)
}

/// Collapse runs of spaces/tabs, normalize newlines, trim trailing spaces.
pub fn normalize_whitespace(text: &str) -> Cow<'_, str> {
    let bytes = text.as_bytes();
    if is_whitespace_normal(bytes) {
        return Cow::Borrowed(text);
    }
    let mut out = Rewrite::new(text);
    let mut pending_space = false;
    let mut pending_newlines = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        // Length of the blank or line break at `i`, if there is one.
        let (blank, newline) = match bytes[i] {
            b'\n' => (0, 1),
            b'\r' if bytes.get(i + 1) == Some(&b'\n') => (0, 2),
            b'\r' => (0, 1),
            b' ' | b'\t' => (1, 0),
            0xC2 if bytes[i..].starts_with("\u{a0}".as_bytes()) => (2, 0),
            0xE3 if bytes[i..].starts_with("\u{3000}".as_bytes()) => (3, 0),
            _ => (0, 0),
        };
        if newline > 0 {
            pending_space = false;
            pending_newlines += 1;
            i += newline;
            continue;
        }
        if blank > 0 {
            pending_space = true;
            i += blank;
            continue;
        }
        if pending_newlines > 0 {
            // At most one blank line is kept (paragraph break).
            out.push_str(if pending_newlines > 1 { "\n\n" } else { "\n" });
            pending_newlines = 0;
        } else if pending_space && !out.as_str().is_empty() {
            out.push_str(" ");
        }
        pending_space = false;
        // Copy the whole run of ordinary bytes at once. A single space
        // between two ordinary bytes comes out as itself, so it belongs
        // to the run; a lead byte of one of the two non-ASCII blanks ends
        // the run even when it starts some other character.
        let mut end = i + 1;
        loop {
            while end < bytes.len() && !ENDS_RUN[bytes[end] as usize] {
                end += 1;
            }
            let inner_space = bytes.get(end) == Some(&b' ')
                && bytes.get(end + 1).is_some_and(|&b| !ENDS_RUN[b as usize]);
            if !inner_space {
                break;
            }
            end += 2;
        }
        out.push_str(&text[i..end]);
        i = end;
    }
    out.finish()
}

/// Map fullwidth/typographic unicode punctuation to ASCII equivalents
/// (the `punctuation_normalization_mapper`).
pub fn normalize_punctuation(text: &str) -> Cow<'_, str> {
    let mut out = Rewrite::new(text);
    for c in text.chars() {
        out.push(match c {
            '“' | '”' | '„' | '«' | '»' => '"',
            '‘' | '’' | '‚' | '`' => '\'',
            '—' | '–' | '―' => '-',
            '…' => '.',
            '，' => ',',
            '。' => '.',
            '！' => '!',
            '？' => '?',
            '：' => ':',
            '；' => ';',
            '（' => '(',
            '）' => ')',
            c => c,
        });
    }
    out.finish()
}

/// Repair common UTF-8-decoded-as-Latin-1 mojibake sequences ("fix messy
/// codes" in Table 1). Only a conservative, high-precision table is applied.
pub fn fix_mojibake(text: &str) -> Cow<'_, str> {
    const TABLE: &[(&str, &str)] = &[
        ("â€™", "'"),
        ("â€œ", "\""),
        ("â€\u{9d}", "\""),
        ("â€“", "-"),
        ("â€”", "-"),
        ("â€¦", "..."),
        ("Ã©", "é"),
        ("Ã¨", "è"),
        ("Ã¼", "ü"),
        ("Ã¶", "ö"),
        ("Ã¤", "ä"),
        ("Ã±", "ñ"),
        ("Â ", " "),
        ("\u{fffd}", ""),
    ];
    let mut out = Cow::Borrowed(text);
    for (bad, good) in TABLE {
        if out.contains(bad) {
            out = Cow::Owned(out.replace(bad, good));
        }
    }
    out
}

/// Remove http(s)/ftp links, replacing them with nothing.
pub fn remove_links(text: &str) -> Cow<'_, str> {
    // Every link prefix holds one of these, so most documents are settled
    // by two substring searches and never split into tokens.
    if !text.contains("://") && !text.contains("www.") {
        return Cow::Borrowed(text);
    }
    remove_token_matches(text, |tok| {
        tok.starts_with("http://")
            || tok.starts_with("https://")
            || tok.starts_with("ftp://")
            || tok.starts_with("www.")
    })
}

/// Remove email addresses (token contains '@' with a dot after it).
pub fn remove_emails(text: &str) -> Cow<'_, str> {
    remove_token_matches(text, |tok| {
        let t = tok.trim_matches(|c: char| !c.is_alphanumeric() && c != '@' && c != '.');
        match t.split_once('@') {
            Some((user, host)) => !user.is_empty() && host.contains('.') && !host.ends_with('.'),
            None => false,
        }
    })
}

/// Remove IPv4-looking tokens.
pub fn remove_ips(text: &str) -> Cow<'_, str> {
    remove_token_matches(text, |tok| {
        let t = tok.trim_matches(|c: char| !c.is_ascii_digit() && c != '.');
        let mut parts = 0;
        t.split('.').all(|p| {
            parts += 1;
            !p.is_empty() && p.len() <= 3 && p.bytes().all(|b| b.is_ascii_digit())
        }) && parts == 4
    })
}

/// Drop every token `pred` matches. Tokens are what single spaces separate
/// within a line; the kept ones are joined back by single spaces.
fn remove_token_matches(text: &str, pred: impl Fn(&str) -> bool) -> Cow<'_, str> {
    let bytes = text.as_bytes();
    let mut out = Rewrite::new(text);
    let mut first = true; // no token kept on this line yet
    let mut start = 0;
    loop {
        let mut end = start;
        while end < bytes.len() && !matches!(bytes[end], b' ' | b'\n') {
            end += 1;
        }
        if !pred(&text[start..end]) {
            // The separating space and the token in one piece: for kept
            // neighbours that is the source as it stands.
            let from = if first { start } else { start - 1 };
            out.push_str(&text[from..end]);
            first = false;
        }
        match bytes.get(end) {
            Some(b'\n') => {
                out.push_str("\n");
                first = true;
            }
            Some(_) => {}
            None => return out.finish(),
        }
        start = end + 1;
    }
}

/// Strip LaTeX preamble/headers: drops everything before `\begin{document}`
/// (if present), removes comment lines and common header commands
/// (the `remove_header_mapper` for LaTeX sources).
pub fn strip_latex_header(text: &str) -> Cow<'_, str> {
    let body = match text.find("\\begin{document}") {
        Some(pos) => &text[pos + "\\begin{document}".len()..],
        None => text,
    };
    let mut out = Rewrite::new(body);
    let mut first = true;
    for line in body.split('\n') {
        let trimmed = line.trim_start();
        if trimmed.starts_with('%')
            || trimmed.starts_with("\\documentclass")
            || trimmed.starts_with("\\usepackage")
            || trimmed.starts_with("\\end{document}")
        {
            continue;
        }
        if !first {
            out.push_str("\n");
        }
        first = false;
        out.push_str(line);
    }
    and_then(out.finish(), |t| Cow::Borrowed(t.trim()))
}

/// Strip HTML tags, unescaping the few common entities.
pub fn strip_html(text: &str) -> Cow<'_, str> {
    let mut out = Rewrite::new(text);
    let mut in_tag = false;
    let mut chars = text.char_indices().peekable();
    while let Some((at, c)) = chars.next() {
        match c {
            '<' => in_tag = true,
            '>' if in_tag => {
                in_tag = false;
                // Tags often imply breaks; preserve word separation.
                let so_far = out.as_str();
                if !so_far.ends_with(' ') && !so_far.ends_with('\n') && !so_far.is_empty() {
                    out.push_str(" ");
                }
            }
            _ if in_tag => {}
            '&' => {
                // `&` plus at most six ASCII name characters.
                let mut end = at + 1;
                let mut matched = false;
                for _ in 0..6 {
                    match chars.peek() {
                        Some(&(_, e)) if e.is_ascii_alphanumeric() || e == '#' => {
                            end += 1;
                            chars.next();
                        }
                        Some(&(_, ';')) => {
                            chars.next();
                            matched = true;
                            break;
                        }
                        _ => break,
                    }
                }
                match (matched, &text[at..end]) {
                    (true, "&amp") => out.push_str("&"),
                    (true, "&lt") => out.push_str("<"),
                    (true, "&gt") => out.push_str(">"),
                    (true, "&quot") => out.push_str("\""),
                    (true, "&nbsp") => out.push_str(" "),
                    (true, "&#39") => out.push_str("'"),
                    // Not an entity we know: keep what was read, less the
                    // `;` that ended it.
                    (_, raw) => out.push_str(raw),
                }
            }
            c => out.push(c),
        }
    }
    and_then(out.finish(), normalize_whitespace)
}

/// Remove code comments (`//`, `#`, `/* */`) — `remove_comments_mapper`.
pub fn strip_code_comments(text: &str) -> Cow<'_, str> {
    let mut out = Rewrite::new(text);
    let mut first = true;
    let mut in_block = false;
    for line in text.split('\n') {
        let kept = uncommented(line, &mut in_block);
        if !kept.trim().is_empty() {
            if !first {
                out.push_str("\n");
            }
            first = false;
            out.push_str(kept.trim_end());
        }
    }
    // Every piece pushed is non-blank and right-trimmed: nothing to trim.
    out.finish()
}

/// What is left of `line` outside comments; `in_block` carries an open
/// `/* */` from line to line. A line without comment markers is borrowed.
fn uncommented<'l>(line: &'l str, in_block: &mut bool) -> Cow<'l, str> {
    let mut kept = Cow::Borrowed("");
    let mut keep = |piece: &'l str| {
        if kept.is_empty() {
            kept = Cow::Borrowed(piece);
        } else {
            kept.to_mut().push_str(piece);
        }
    };
    let mut rest = line;
    loop {
        if *in_block {
            let Some(close) = rest.find("*/") else {
                break;
            };
            rest = &rest[close + 2..];
            *in_block = false;
        }
        // The markers are ASCII, so the line can be searched as bytes.
        let bytes = rest.as_bytes();
        let marker = (0..bytes.len()).find(|&i| {
            bytes[i] == b'#' || (bytes[i] == b'/' && matches!(bytes.get(i + 1), Some(b'/' | b'*')))
        });
        let Some(at) = marker else {
            keep(rest);
            break;
        };
        keep(&rest[..at]);
        if !rest[at..].starts_with("/*") {
            break; // `#` or `//`: the rest of the line is comment
        }
        *in_block = true;
        rest = &rest[at + 2..];
    }
    kept
}

/// Deduplicate consecutive identical lines (boilerplate collapse).
pub fn dedup_consecutive_lines(text: &str) -> Cow<'_, str> {
    let mut out = Rewrite::new(text);
    let mut prev: Option<&str> = None;
    for line in text.split('\n') {
        if prev == Some(line) && !line.trim().is_empty() {
            continue;
        }
        if prev.is_some() {
            out.push_str("\n");
        }
        out.push_str(line);
        prev = Some(line);
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rewrite_borrows_until_output_diverges() {
        let src = "keep this, drop that";
        let mut same = Rewrite::new(src);
        same.push_str("keep ");
        same.push_str(&src[5..]); // a slice of the source, in place
        assert!(matches!(same.finish(), Cow::Borrowed(s) if s == src));

        let mut prefix = Rewrite::new(src);
        prefix.push_str("keep this");
        assert!(matches!(prefix.finish(), Cow::Borrowed("keep this")));

        let mut edited = Rewrite::new(src);
        edited.push_str("keep this,");
        edited.push('!');
        assert_eq!(edited.as_str(), "keep this,!");
        edited.push_str(" drop that");
        assert!(matches!(edited.finish(), Cow::Owned(s) if s == "keep this,! drop that"));

        let mut longer = Rewrite::new("ab");
        longer.push_str("abc"); // runs past the source
        assert!(matches!(longer.finish(), Cow::Owned(s) if s == "abc"));
    }

    #[test]
    fn clean_text_is_returned_borrowed() {
        let clean = "Plain prose, one space apart.\nSecond line here; nothing to fix\nlast";
        let edits: [fn(&str) -> Cow<'_, str>; 10] = [
            normalize_whitespace,
            normalize_punctuation,
            fix_mojibake,
            remove_links,
            remove_emails,
            remove_ips,
            strip_latex_header,
            strip_html,
            strip_code_comments,
            dedup_consecutive_lines,
        ];
        for (i, edit) in edits.iter().enumerate() {
            assert!(matches!(edit(clean), Cow::Borrowed(_)), "edit {i} copied");
        }
        assert!(matches!(lowercase("already lower ß"), Cow::Borrowed(_)));
        assert!(matches!(lowercase("Not Lower"), Cow::Owned(s) if s == "not lower"));
    }

    #[test]
    fn lowercase_into_reuses_the_buffer() {
        let mut buf = String::new();
        assert_eq!(lowercase_into("plain", &mut buf), "plain");
        assert_eq!(buf.capacity(), 0, "lowercase words are not copied");
        assert_eq!(lowercase_into("MiXed", &mut buf), "mixed");
        assert_eq!(lowercase_into("ÉCOLE", &mut buf), "école");
        assert_eq!(lowercase_into("ΟΔΟΣ", &mut buf), "οδος"); // final sigma
    }

    #[test]
    fn copyright_lines_match_case_insensitively() {
        assert!(is_copyright_line("// COPYRIGHT 2020 Example"));
        assert!(is_copyright_line("Licensed Under the Apache License"));
        assert!(is_copyright_line("x (C) 2019 y"));
        assert!(!is_copyright_line("a perfectly normal line"));
        assert!(!is_copyright_line("COPYRİGHT")); // lowercases to "copyri̇ght"
    }

    #[test]
    fn whitespace_collapses_runs() {
        assert_eq!(normalize_whitespace("a   b\t\tc"), "a b c");
        assert_eq!(normalize_whitespace("a\r\nb\rc"), "a\nb\nc");
        assert_eq!(normalize_whitespace("a\n\n\n\nb"), "a\n\nb");
        assert_eq!(normalize_whitespace("  leading"), "leading");
        assert_eq!(normalize_whitespace(""), "");
    }

    #[test]
    fn punctuation_normalized() {
        assert_eq!(normalize_punctuation("“quote”—and…"), "\"quote\"-and.");
        assert_eq!(normalize_punctuation("你好。"), "你好.");
    }

    #[test]
    fn mojibake_fixed() {
        assert_eq!(fix_mojibake("donâ€™t"), "don't");
        assert_eq!(fix_mojibake("cafÃ©"), "café");
        assert_eq!(fix_mojibake("clean text"), "clean text");
    }

    #[test]
    fn links_removed() {
        assert_eq!(
            remove_links("see https://example.com/page for info"),
            "see for info"
        );
        assert_eq!(remove_links("no links here"), "no links here");
    }

    #[test]
    fn emails_removed() {
        assert_eq!(
            remove_emails("mail me at bob@example.com today"),
            "mail me at today"
        );
        assert_eq!(remove_emails("not@anemail"), "not@anemail");
        assert_eq!(remove_emails("a @ b"), "a @ b");
    }

    #[test]
    fn ips_removed() {
        assert_eq!(remove_ips("server at 192.168.0.1 down"), "server at down");
        assert_eq!(remove_ips("version 1.2.3 ok"), "version 1.2.3 ok");
    }

    #[test]
    fn latex_header_stripped() {
        let src = "\\documentclass{article}\n\\usepackage{amsmath}\n% comment\n\\begin{document}\nBody text.\n\\end{document}";
        assert_eq!(strip_latex_header(src), "Body text.");
        assert_eq!(strip_latex_header("plain text"), "plain text");
    }

    #[test]
    fn html_stripped_and_entities_unescaped() {
        assert_eq!(
            strip_html("<p>Hello &amp; <b>world</b></p>"),
            "Hello & world"
        );
        assert_eq!(strip_html("a &lt; b"), "a < b");
        assert_eq!(strip_html("no tags"), "no tags");
    }

    #[test]
    fn code_comments_stripped() {
        let src = "let x = 1; // count\n# python note\ncode(); /* block\nstill block */ more();";
        let out = strip_code_comments(src);
        assert!(out.contains("let x = 1;"));
        assert!(!out.contains("count"));
        assert!(!out.contains("python"));
        assert!(out.contains("more();"));
        assert!(!out.contains("block"));
    }

    #[test]
    fn consecutive_line_dedup() {
        assert_eq!(dedup_consecutive_lines("a\na\nb\na"), "a\nb\na");
        assert_eq!(dedup_consecutive_lines("\n\n"), "\n\n"); // blank lines kept
    }
}
