//! Snippet extraction and query-term highlighting.
//!
//! Symphony result layouts show a "descriptive field" per hit (paper
//! Fig. 1); for web results that field is a contextual snippet. The
//! generator picks the token window with the highest count of distinct
//! matched query terms (ties: earliest window) and wraps matches in
//! `<b>` tags, HTML-escaping everything else.
//!
//! The kernel streams the text through [`Analyzer::analyze_with`] into
//! `(start, end, matched-term id)` triples, so no token materializes an
//! owned term, and scores every window with one sliding count of
//! distinct matched terms.

use crate::analysis::{Analyzer, TokenScratch};
use crate::fx::FxHashMap;

/// Term id of a token that matches no query term.
const NO_TERM: u32 = u32::MAX;

/// Configuration for [`SnippetGenerator`].
#[derive(Debug, Clone)]
pub struct SnippetConfig {
    /// Window size in tokens.
    pub window: usize,
    /// Hard cap on snippet length in characters (applied after window
    /// selection, on a char boundary, with an ellipsis).
    pub max_chars: usize,
}

impl Default for SnippetConfig {
    fn default() -> Self {
        SnippetConfig {
            window: 24,
            max_chars: 220,
        }
    }
}

/// Builds highlighted snippets for a fixed set of query words.
pub struct SnippetGenerator<'a> {
    analyzer: &'a dyn Analyzer,
    /// Analyzed query terms, each with a dense id in `0..terms.len()`.
    terms: FxHashMap<String, u32>,
    config: SnippetConfig,
}

impl<'a> SnippetGenerator<'a> {
    /// Create a generator for `query_words` (raw query words; they are
    /// analyzed with the same analyzer as the text so stemmed forms
    /// match).
    pub fn new<S: AsRef<str>>(analyzer: &'a dyn Analyzer, query_words: &[S]) -> Self {
        Self::with_config(analyzer, query_words, SnippetConfig::default())
    }

    /// Create a generator with explicit window/length configuration.
    pub fn with_config<S: AsRef<str>>(
        analyzer: &'a dyn Analyzer,
        query_words: &[S],
        config: SnippetConfig,
    ) -> Self {
        let mut terms = FxHashMap::default();
        for w in query_words {
            for tok in analyzer.analyze(w.as_ref()) {
                let id = terms.len() as u32;
                terms.entry(tok.term).or_insert(id);
            }
        }
        SnippetGenerator {
            analyzer,
            terms,
            config,
        }
    }

    /// Produce a highlighted, HTML-escaped snippet of `text`.
    ///
    /// When no query term occurs in the text the leading window is
    /// returned un-highlighted (the behaviour users expect from a web
    /// result with a title-only match).
    pub fn snippet(&self, text: &str) -> String {
        // (start, end, matched-term id) per token.
        let mut tokens: Vec<(usize, usize, u32)> = Vec::new();
        let mut scratch = TokenScratch::default();
        self.analyzer
            .analyze_with(text, &mut scratch, &mut |term, _, start, end| {
                let id = self.terms.get(term).copied().unwrap_or(NO_TERM);
                tokens.push((start, end, id));
            });
        if tokens.is_empty() {
            return truncate_escape(text, self.config.max_chars);
        }

        // Slide the window, keeping per-term occurrence counts and the
        // number of distinct matched terms inside it. Strict `>` keeps
        // the earliest window on ties, and no later window can beat
        // one that already holds every query term.
        let w = self.config.window.max(1).min(tokens.len());
        let mut counts = vec![0u32; self.terms.len()];
        let mut distinct = 0usize;
        for &(_, _, id) in &tokens[..w] {
            if id != NO_TERM {
                distinct += usize::from(counts[id as usize] == 0);
                counts[id as usize] += 1;
            }
        }
        let (mut best_start, mut best) = (0usize, distinct);
        for start in 1..=(tokens.len() - w) {
            if best == self.terms.len() {
                break;
            }
            let (_, _, out) = tokens[start - 1];
            if out != NO_TERM {
                counts[out as usize] -= 1;
                distinct -= usize::from(counts[out as usize] == 0);
            }
            let (_, _, inn) = tokens[start + w - 1];
            if inn != NO_TERM {
                distinct += usize::from(counts[inn as usize] == 0);
                counts[inn as usize] += 1;
            }
            if distinct > best {
                best = distinct;
                best_start = start;
            }
        }
        let window = &tokens[best_start..best_start + w];

        // Extend the window to the text boundaries when it touches the
        // first/last token, so leading/trailing punctuation survives.
        let from = if best_start == 0 { 0 } else { window[0].0 };
        let to = if best_start + w == tokens.len() {
            text.len()
        } else {
            window[w - 1].1
        };

        // Emit escaped text with <b> around matched tokens.
        let mut out = String::with_capacity((to - from) + 32);
        if from > 0 {
            out.push_str("… ");
        }
        let mut cursor = from;
        for &(start, end, id) in window {
            if start > cursor {
                push_escaped(&mut out, &text[cursor..start]);
            }
            if id != NO_TERM {
                out.push_str("<b>");
                push_escaped(&mut out, &text[start..end]);
                out.push_str("</b>");
            } else {
                push_escaped(&mut out, &text[start..end]);
            }
            cursor = end;
        }
        if to > cursor {
            push_escaped(&mut out, &text[cursor..to]);
        }
        if to < text.len() {
            out.push_str(" …");
        }
        clamp_chars(&mut out, self.config.max_chars);
        out
    }
}

/// Escape `&`, `<`, `>`, `"` for safe HTML embedding.
pub fn escape_html(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    push_escaped(&mut out, text);
    out
}

fn push_escaped(out: &mut String, text: &str) {
    for ch in text.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(ch),
        }
    }
}

fn truncate_escape(text: &str, max_chars: usize) -> String {
    let mut s = escape_html(text);
    clamp_chars(&mut s, max_chars);
    s
}

fn clamp_chars(s: &mut String, max_chars: usize) {
    if s.chars().count() > max_chars {
        let cut = s
            .char_indices()
            .nth(max_chars.saturating_sub(1))
            .map(|(i, _)| i)
            .unwrap_or(s.len());
        s.truncate(cut);
        s.push('…');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::StandardAnalyzer;
    use crate::fx::FxHashSet;
    use proptest::prelude::*;

    /// The original kernel, kept as the differential oracle: one owned
    /// `Token` per word and a fresh distinct-term set per window start.
    fn oracle_snippet(
        analyzer: &dyn Analyzer,
        query_words: &[&str],
        config: &SnippetConfig,
        text: &str,
    ) -> String {
        let mut terms = FxHashSet::default();
        for w in query_words {
            for tok in analyzer.analyze(w) {
                terms.insert(tok.term);
            }
        }
        let tokens = analyzer.analyze(text);
        if tokens.is_empty() {
            return truncate_escape(text, config.max_chars);
        }
        let matched: Vec<bool> = tokens.iter().map(|t| terms.contains(&t.term)).collect();
        let w = config.window.max(1).min(tokens.len());
        let mut best_start = 0usize;
        let mut best_score = -1i64;
        for start in 0..=(tokens.len() - w) {
            let mut seen = FxHashSet::default();
            for i in start..start + w {
                if matched[i] {
                    seen.insert(tokens[i].term.as_str());
                }
            }
            let score = seen.len() as i64;
            if score > best_score {
                best_score = score;
                best_start = start;
            }
        }
        let last_idx = (best_start + w - 1).min(tokens.len() - 1);
        let from = if best_start == 0 {
            0
        } else {
            tokens[best_start].start
        };
        let to = if last_idx == tokens.len() - 1 {
            text.len()
        } else {
            tokens[last_idx].end
        };
        let mut out = String::with_capacity((to - from) + 32);
        if from > 0 {
            out.push_str("… ");
        }
        let mut cursor = from;
        for (i, tok) in tokens.iter().enumerate() {
            if i < best_start || i >= best_start + w {
                continue;
            }
            if tok.start > cursor {
                push_escaped(&mut out, &text[cursor..tok.start]);
            }
            if matched[i] {
                out.push_str("<b>");
                push_escaped(&mut out, &text[tok.start..tok.end]);
                out.push_str("</b>");
            } else {
                push_escaped(&mut out, &text[tok.start..tok.end]);
            }
            cursor = tok.end;
        }
        if to > cursor {
            push_escaped(&mut out, &text[cursor..to]);
        }
        if to < text.len() {
            out.push_str(" …");
        }
        clamp_chars(&mut out, config.max_chars);
        out
    }

    /// Words for random texts and queries: stems and their inflections,
    /// stopwords, case variants, digits, and non-ASCII letters.
    const WORDS: &[&str] = &[
        "space", "Spaces", "laser", "lasers", "LASERS", "story", "stories", "the", "of", "and",
        "wine", "Wines", "bordeaux", "x", "42", "ab", "Über", "über", "ÉCOLE", "école", "game",
        "gaming",
    ];

    /// Separators between random words, including HTML metacharacters.
    const SEPS: &[&str] = &[
        " ", "  ", ", ", ". ", "-", " & ", "<", "> ", "\"", "—", "\n",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The streaming, sliding-window kernel is byte-identical to
        /// the original over random texts, query words and configs.
        #[test]
        fn kernel_matches_oracle(
            lead in 0usize..SEPS.len() + 1,
            body in prop::collection::vec((0usize..WORDS.len(), 0usize..SEPS.len()), 0..60),
            query in prop::collection::vec(0usize..WORDS.len(), 0..5),
            window in 0usize..30,
            max_chars in 0usize..260,
        ) {
            let mut text = String::from(SEPS.get(lead).copied().unwrap_or(""));
            for &(w, sep) in &body {
                text.push_str(WORDS[w]);
                text.push_str(SEPS[sep]);
            }
            let words: Vec<&str> = query.iter().map(|&i| WORDS[i]).collect();
            let config = SnippetConfig { window, max_chars };
            let an = StandardAnalyzer::new();
            let g = SnippetGenerator::with_config(&an, &words, config.clone());
            prop_assert_eq!(g.snippet(&text), oracle_snippet(&an, &words, &config, &text));
        }
    }

    #[test]
    fn ties_resolve_to_the_earliest_window() {
        let an = StandardAnalyzer::new();
        let cfg = SnippetConfig {
            window: 3,
            max_chars: 500,
        };
        let g = SnippetGenerator::with_config(&an, &["wine", "bordeaux"], cfg);
        // Two windows hold one distinct term each; the first wins.
        let s = g.snippet("filler wine filler filler filler bordeaux filler filler");
        assert_eq!(s, "filler <b>wine</b> filler …");
    }

    fn gen<'a>(an: &'a StandardAnalyzer, words: &[&str]) -> SnippetGenerator<'a> {
        SnippetGenerator::new(an, words)
    }

    #[test]
    fn highlights_matched_terms() {
        let an = StandardAnalyzer::new();
        let g = gen(&an, &["space", "shooter"]);
        let s = g.snippet("A thrilling space shooter for everyone");
        assert!(s.contains("<b>space</b>"), "got: {s}");
        assert!(s.contains("<b>shooter</b>"), "got: {s}");
    }

    #[test]
    fn stemmed_forms_highlight() {
        let an = StandardAnalyzer::new();
        let g = gen(&an, &["laser"]);
        let s = g.snippet("many lasers everywhere");
        assert!(s.contains("<b>lasers</b>"), "got: {s}");
    }

    #[test]
    fn picks_window_with_most_distinct_terms() {
        let an = StandardAnalyzer::new();
        let cfg = SnippetConfig {
            window: 5,
            max_chars: 500,
        };
        let g = SnippetGenerator::with_config(&an, &["wine", "bordeaux"], cfg);
        let text = "filler filler filler filler filler filler filler filler \
                    great wine from bordeaux chateau filler filler";
        let s = g.snippet(text);
        assert!(
            s.contains("<b>wine</b>") && s.contains("<b>bordeaux</b>"),
            "got: {s}"
        );
        assert!(s.starts_with("… "), "leading ellipsis expected: {s}");
    }

    #[test]
    fn no_match_returns_leading_window() {
        let an = StandardAnalyzer::new();
        let g = gen(&an, &["absent"]);
        let s = g.snippet("Just a plain description of a product");
        assert!(!s.contains("<b>"));
        assert!(s.contains("plain"));
    }

    #[test]
    fn escapes_html() {
        let an = StandardAnalyzer::new();
        let g = gen(&an, &["bold"]);
        let s = g.snippet("<script> bold & dangerous \"stuff\"");
        assert!(s.contains("&lt;script&gt;"), "got: {s}");
        assert!(s.contains("&amp;"), "got: {s}");
        assert!(s.contains("&quot;stuff&quot;"), "got: {s}");
        assert!(s.contains("<b>bold</b>"), "got: {s}");
    }

    #[test]
    fn empty_text() {
        let an = StandardAnalyzer::new();
        let g = gen(&an, &["x"]);
        assert_eq!(g.snippet(""), "");
    }

    #[test]
    fn clamps_to_max_chars() {
        let an = StandardAnalyzer::new();
        let cfg = SnippetConfig {
            window: 50,
            max_chars: 20,
        };
        let g = SnippetGenerator::with_config(&an, &["word"], cfg);
        let s = g.snippet("word ".repeat(50).as_str());
        assert!(s.chars().count() <= 21, "got len {}", s.chars().count());
        assert!(s.ends_with('…'));
    }

    #[test]
    fn escape_html_standalone() {
        assert_eq!(escape_html("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
    }

    #[test]
    fn trailing_ellipsis_when_text_continues() {
        let an = StandardAnalyzer::new();
        let cfg = SnippetConfig {
            window: 3,
            max_chars: 500,
        };
        let g = SnippetGenerator::with_config(&an, &["alpha"], cfg);
        let s = g.snippet("alpha beta gamma delta epsilon");
        assert!(s.ends_with(" …"), "got: {s}");
    }
}
