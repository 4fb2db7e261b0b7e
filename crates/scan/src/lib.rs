//! Single-pass multi-pattern scanning for the Guillotine detector hot path.
//!
//! The hypervisor sits synchronously on every prompt/response port, so
//! detector throughput *is* serving throughput. The naive screens this crate
//! replaces paid `text.to_lowercase()` once (or worse, once per marker) plus
//! an O(patterns × text) `contains` sweep for every scan. This crate compiles
//! the whole pattern set into one ASCII-case-insensitive Aho–Corasick
//! automaton: [`Matcher::compile`] (or [`MatcherBuilder`] for per-pattern
//! options) builds it once, and a scan is a single left-to-right pass over
//! the **original** text — no lowercase copies, no per-pattern rescans —
//! reporting every match as a pattern id plus a byte span.
//!
//! # The automaton
//!
//! Compilation inserts the case-folded patterns into a trie, computes
//! failure links breadth-first (the classic Aho–Corasick construction), and
//! then flattens goto + failure into a dense DFA transition table indexed by
//! *byte equivalence class* (bytes that appear in no pattern share one
//! class, so the table stays small however many of the 256 byte values the
//! haystack uses). Output sets are merged down failure chains at build time,
//! so scanning never chases links: each input byte costs one class lookup,
//! one table load, and an (almost always empty) output-range check.
//!
//! # Case-folding contract
//!
//! Matching is **ASCII**-case-insensitive: bytes `A`–`Z` are folded to
//! `a`–`z` on both the pattern and the haystack, and every other byte —
//! including all non-ASCII UTF-8 — must match exactly. This is deliberately
//! *not* Unicode case folding: folding single bytes never changes offsets or
//! lengths, so a reported span always indexes the original text, always
//! falls on UTF-8 character boundaries (for valid UTF-8 patterns), and can
//! be sliced or redacted directly. The old lowercase-shadow scans got this
//! wrong: `"İ".to_lowercase()` grows from 2 bytes to 3, so offsets found in
//! the shadow misaligned (or sliced mid-codepoint and panicked) when mapped
//! back onto the original. Callers who need Unicode-exotic variants of a
//! pattern should register each variant as its own pattern.
//!
//! Empty patterns never match (a naive `contains("")` is vacuously true;
//! the automaton has no position at which a zero-length hit is useful).
//!
//! # Word boundaries
//!
//! A pattern registered through [`MatcherBuilder::add_word_bounded`] only
//! matches where neither neighbouring byte is an ASCII word byte
//! (alphanumeric or `_`). The output sanitizer uses this for markers shorter
//! than four bytes — e.g. the `"vx"` nerve-agent marker must fire on
//! `"VX gas"` but not inside `"devx"`.
//!
//! ```
//! use guillotine_scan::{Matcher, MatcherBuilder};
//!
//! let matcher = Matcher::compile(["precursor", "Weight Shard"]);
//! let hits = matcher.find_all("The PRECURSOR ships as a weight shard.");
//! assert_eq!(hits.len(), 2);
//! assert_eq!(hits[0].pattern, 0);
//! assert_eq!(&"The PRECURSOR ships as a weight shard."[hits[0].range()], "PRECURSOR");
//!
//! let mut builder = MatcherBuilder::new();
//! builder.add_word_bounded("vx");
//! let bounded = builder.build();
//! assert!(bounded.is_match("VX is a nerve agent"));
//! assert!(!bounded.is_match("our devx tooling"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod naive;

/// Sentinel for "no trie child" during construction.
const EMPTY: u32 = u32::MAX;

/// One occurrence of a pattern in a haystack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Match {
    /// Id of the matched pattern (its insertion index at compile time).
    pub pattern: usize,
    /// Byte offset of the first matched byte in the original haystack.
    pub start: usize,
    /// Byte offset one past the last matched byte.
    pub end: usize,
}

impl Match {
    /// The matched byte range, ready for slicing the original haystack.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

/// Per-pattern metadata retained by the compiled matcher.
#[derive(Debug, Clone)]
struct PatternMeta {
    /// The case-folded pattern bytes (empty for the never-matching empty
    /// pattern). A slice's length lives in its fat pointer, so the hot
    /// `len()` lookup costs the same as the dedicated field it replaced.
    folded: Box<[u8]>,
    /// Whether both neighbours must be non-word bytes for a hit to count.
    word_bounded: bool,
}

/// Read-only view of one compiled pattern, for configuration introspection
/// (the `guillotine-audit` analyzer walks these to prove rules live).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternInfo<'m> {
    /// The pattern id (its insertion index at compile time).
    pub id: usize,
    /// The ASCII-case-folded pattern bytes the automaton actually matches.
    /// Empty patterns never match.
    pub folded: &'m [u8],
    /// True when the pattern only matches with non-word bytes (or text
    /// edges) on both sides.
    pub word_bounded: bool,
}

/// Builder collecting patterns (with per-pattern options) for a [`Matcher`].
#[derive(Debug, Clone, Default)]
pub struct MatcherBuilder {
    patterns: Vec<(Vec<u8>, bool)>,
}

impl MatcherBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        MatcherBuilder::default()
    }

    /// Adds a pattern matched anywhere; returns its pattern id.
    pub fn add(&mut self, pattern: &str) -> usize {
        self.push(pattern, false)
    }

    /// Adds a pattern matched only at word boundaries; returns its id.
    pub fn add_word_bounded(&mut self, pattern: &str) -> usize {
        self.push(pattern, true)
    }

    fn push(&mut self, pattern: &str, word_bounded: bool) -> usize {
        let folded = pattern.bytes().map(|b| b.to_ascii_lowercase()).collect();
        self.patterns.push((folded, word_bounded));
        self.patterns.len() - 1
    }

    /// Number of patterns added so far.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True if no patterns were added.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Compiles the automaton.
    pub fn build(&self) -> Matcher {
        Matcher::construct(&self.patterns)
    }
}

/// A compiled ASCII-case-insensitive multi-pattern automaton.
///
/// Compile once (construction is O(total pattern bytes × alphabet)), scan
/// many times: each scan is a single pass over the haystack bytes with no
/// allocation beyond the caller's result collection.
#[derive(Debug, Clone)]
pub struct Matcher {
    /// Raw byte → equivalence class, with ASCII case folding baked in.
    classes: Vec<u16>,
    /// Number of distinct classes (the DFA row stride).
    class_count: usize,
    /// Dense DFA: `table[state * class_count + class] -> state`.
    table: Vec<u32>,
    /// Per-state `(start, end)` range into `out_ids`.
    out_ranges: Vec<(u32, u32)>,
    /// Flattened, failure-merged output sets (pattern ids).
    out_ids: Vec<u32>,
    /// Per-pattern metadata, indexed by pattern id.
    patterns: Vec<PatternMeta>,
    /// Longest folded pattern length, for leftmost-longest early exit.
    max_len: usize,
}

/// True for bytes that extend a word (ASCII alphanumeric or underscore).
#[inline]
fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

impl Matcher {
    /// Compiles patterns with default options (matched anywhere).
    ///
    /// Pattern ids are the iteration indices.
    pub fn compile<I>(patterns: I) -> Matcher
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let mut builder = MatcherBuilder::new();
        for pattern in patterns {
            builder.add(pattern.as_ref());
        }
        builder.build()
    }

    fn construct(patterns: &[(Vec<u8>, bool)]) -> Matcher {
        // Byte equivalence classes over folded pattern bytes. Class 0 is
        // "appears in no pattern"; every such byte shares one DFA column.
        let mut classes = vec![0u16; 256];
        let mut class_count = 1usize;
        for (folded, _) in patterns {
            for &b in folded {
                if classes[b as usize] == 0 {
                    classes[b as usize] = class_count as u16;
                    class_count += 1;
                }
            }
        }
        // Fold the class map itself so scans skip the per-byte fold.
        for upper in b'A'..=b'Z' {
            classes[upper as usize] = classes[upper.to_ascii_lowercase() as usize];
        }

        // Trie over folded patterns, rows indexed by class.
        let mut next: Vec<u32> = vec![EMPTY; class_count];
        let mut ends: Vec<Vec<u32>> = vec![Vec::new()];
        for (id, (folded, _)) in patterns.iter().enumerate() {
            if folded.is_empty() {
                continue;
            }
            let mut state = 0usize;
            for &b in folded {
                let class = classes[b as usize] as usize;
                let slot = state * class_count + class;
                if next[slot] == EMPTY {
                    let new_state = ends.len() as u32;
                    next[slot] = new_state;
                    next.extend(std::iter::repeat_n(EMPTY, class_count));
                    ends.push(Vec::new());
                    state = new_state as usize;
                } else {
                    state = next[slot] as usize;
                }
            }
            ends[state].push(id as u32);
        }

        // Breadth-first failure links, converting goto → DFA in place and
        // merging output sets down the failure chain (fail links point at
        // strictly shallower states, so by BFS order the fail target's
        // outputs are already complete when we copy them).
        let state_count = ends.len();
        let mut fail = vec![0u32; state_count];
        let mut queue = std::collections::VecDeque::new();
        for slot in next.iter_mut().take(class_count) {
            let child = *slot;
            if child == EMPTY {
                *slot = 0;
            } else {
                fail[child as usize] = 0;
                queue.push_back(child);
            }
        }
        while let Some(state) = queue.pop_front() {
            let state = state as usize;
            let fallback = fail[state] as usize;
            for class in 0..class_count {
                let slot = state * class_count + class;
                let child = next[slot];
                let via_fail = next[fallback * class_count + class];
                if child == EMPTY {
                    next[slot] = via_fail;
                } else {
                    fail[child as usize] = via_fail;
                    let inherited = ends[via_fail as usize].clone();
                    ends[child as usize].extend(inherited);
                    queue.push_back(child);
                }
            }
        }

        // Flatten output sets into one arena with per-state ranges.
        let mut out_ranges = Vec::with_capacity(state_count);
        let mut out_ids = Vec::new();
        for state_ends in &ends {
            let start = out_ids.len() as u32;
            out_ids.extend_from_slice(state_ends);
            out_ranges.push((start, out_ids.len() as u32));
        }

        Matcher {
            classes,
            class_count,
            table: next,
            out_ranges,
            out_ids,
            max_len: patterns
                .iter()
                .map(|(folded, _)| folded.len())
                .max()
                .unwrap_or(0),
            patterns: patterns
                .iter()
                .map(|(folded, word_bounded)| PatternMeta {
                    folded: folded.clone().into_boxed_slice(),
                    word_bounded: *word_bounded,
                })
                .collect(),
        }
    }

    /// Number of compiled patterns (including never-matching empty ones).
    pub fn pattern_count(&self) -> usize {
        self.patterns.len()
    }

    /// Length in bytes of the longest compiled pattern (0 with no patterns).
    ///
    /// This bounds how much context a streaming caller must carry across
    /// chunk seams: any match crossing a seam starts within `max_pattern_len
    /// - 1` bytes of it.
    pub fn max_pattern_len(&self) -> usize {
        self.max_len
    }

    /// Iterates every compiled pattern in id order.
    ///
    /// This is the introspection surface the `guillotine-audit` configuration
    /// analyzer reasons over: the *folded* bytes are what the automaton
    /// matches, so subsumption ("every occurrence of P contains Q") and
    /// duplicate detection must be decided on these, not on the source
    /// spellings callers registered.
    pub fn patterns(&self) -> impl Iterator<Item = PatternInfo<'_>> {
        self.patterns
            .iter()
            .enumerate()
            .map(|(id, meta)| PatternInfo {
                id,
                folded: &meta.folded,
                word_bounded: meta.word_bounded,
            })
    }

    /// Streams every match to `visit` in end-offset order (ties
    /// longest-pattern first); `visit` returns `false` to stop the scan
    /// early.
    ///
    /// This is the zero-allocation core every other query wraps.
    pub fn scan<F>(&self, haystack: &str, mut visit: F)
    where
        F: FnMut(Match) -> bool,
    {
        let bytes = haystack.as_bytes();
        let mut state = 0usize;
        for (i, &b) in bytes.iter().enumerate() {
            let class = self.classes[b as usize] as usize;
            state = self.table[state * self.class_count + class] as usize;
            let (out_start, out_end) = self.out_ranges[state];
            if out_start == out_end {
                continue;
            }
            for &id in &self.out_ids[out_start as usize..out_end as usize] {
                let meta = &self.patterns[id as usize];
                let start = i + 1 - meta.folded.len();
                if meta.word_bounded {
                    let left_ok = start == 0 || !is_word_byte(bytes[start - 1]);
                    let right_ok = i + 1 == bytes.len() || !is_word_byte(bytes[i + 1]);
                    if !left_ok || !right_ok {
                        continue;
                    }
                }
                if !visit(Match {
                    pattern: id as usize,
                    start,
                    end: i + 1,
                }) {
                    return;
                }
            }
        }
    }

    /// Streams every match in `window` to `visit`, treating the window as a
    /// slice out of a longer stream rather than a whole haystack.
    ///
    /// `left_word` tells the word-boundary check whether the byte
    /// immediately *before* the window is an ASCII word byte (`false` at
    /// the true start of the stream). `at_end` declares whether the window
    /// ends at the true end of the stream. The second argument to `visit`
    /// is a *tentative* flag: `true` means the match is word-bounded, ends
    /// flush with the window, and the stream continues — whether it really
    /// matches depends on the next byte, which the caller has not seen yet.
    /// Tentative matches must not be acted on; the caller re-scans once
    /// more bytes (or the end of stream) arrive. Non-tentative matches are
    /// exactly the matches [`Matcher::scan`] would report over the full
    /// stream, restricted to spans inside the window.
    pub fn scan_window<F>(&self, window: &str, left_word: bool, at_end: bool, mut visit: F)
    where
        F: FnMut(Match, bool) -> bool,
    {
        let bytes = window.as_bytes();
        let mut state = 0usize;
        for (i, &b) in bytes.iter().enumerate() {
            let class = self.classes[b as usize] as usize;
            state = self.table[state * self.class_count + class] as usize;
            let (out_start, out_end) = self.out_ranges[state];
            if out_start == out_end {
                continue;
            }
            for &id in &self.out_ids[out_start as usize..out_end as usize] {
                let meta = &self.patterns[id as usize];
                let start = i + 1 - meta.folded.len();
                let mut tentative = false;
                if meta.word_bounded {
                    let left_ok = if start == 0 {
                        !left_word
                    } else {
                        !is_word_byte(bytes[start - 1])
                    };
                    if !left_ok {
                        continue;
                    }
                    if i + 1 == bytes.len() {
                        if !at_end {
                            tentative = true;
                        }
                    } else if is_word_byte(bytes[i + 1]) {
                        continue;
                    }
                }
                if !visit(
                    Match {
                        pattern: id as usize,
                        start,
                        end: i + 1,
                    },
                    tentative,
                ) {
                    return;
                }
            }
        }
    }

    /// Collects every match, in end-offset order.
    pub fn find_all(&self, haystack: &str) -> Vec<Match> {
        let mut matches = Vec::new();
        self.scan(haystack, |m| {
            matches.push(m);
            true
        });
        matches
    }

    /// True if any pattern occurs in `haystack` (stops at the first hit).
    pub fn is_match(&self, haystack: &str) -> bool {
        self.find_earliest(haystack).is_some()
    }

    /// The earliest-ending match (ties broken longest-pattern first, i.e.
    /// the first match [`Matcher::scan`] would visit), or `None`.
    ///
    /// This is the refuse-fast/allow-fast primitive: it stops the DFA walk
    /// at the first hit, so callers that only need "does anything match,
    /// and what" — admission checks, clean-text fast paths — pay for the
    /// scanned prefix only, never for full span enumeration.
    pub fn find_earliest(&self, haystack: &str) -> Option<Match> {
        let mut first = None;
        self.scan(haystack, |m| {
            first = Some(m);
            false
        });
        first
    }

    /// The leftmost match, ties broken longest (then lowest pattern id) —
    /// the "what comes first in reading order" query, as opposed to
    /// [`Matcher::find_earliest`]'s "what does the DFA prove first".
    ///
    /// With overlapping patterns the two differ: over patterns
    /// `["bcd", "abcde"]` on `"abcde"`, `find_earliest` reports `bcd`
    /// (its end offset comes first) while `find_leftmost_longest` reports
    /// `abcde` (it starts first). Leftmost-longest is the right semantics
    /// for streaming redaction: rewrite the earliest flagged span, emit
    /// clean text up to it, continue after it.
    pub fn find_leftmost_longest(&self, haystack: &str) -> Option<Match> {
        self.leftmost_longest_from(haystack.as_bytes(), 0)
    }

    /// Streams successive non-overlapping leftmost-longest matches: each
    /// match is the leftmost (longest, at its start) match beginning at or
    /// after the previous match's end. This is the iteration order a
    /// streaming redactor consumes — emit `haystack[last_end..m.start]`,
    /// rewrite `m`, repeat — without materializing the full match list.
    pub fn leftmost_longest_matches<'m, 'h>(
        &'m self,
        haystack: &'h str,
    ) -> LeftmostLongestMatches<'m, 'h> {
        LeftmostLongestMatches {
            matcher: self,
            haystack,
            pos: 0,
        }
    }

    /// The leftmost-longest match whose start is at or after `from`.
    ///
    /// One DFA walk from `from`, cut short as soon as no later match could
    /// start at or before the best start seen (every match is at most
    /// `max_len` bytes, so candidate starts only move right). Word-boundary
    /// checks still see the full haystack, so restarting mid-text never
    /// changes what counts as a boundary.
    fn leftmost_longest_from(&self, bytes: &[u8], from: usize) -> Option<Match> {
        if self.max_len == 0 || from >= bytes.len() {
            return None;
        }
        let mut best: Option<Match> = None;
        let mut state = 0usize;
        for (i, &b) in bytes.iter().enumerate().skip(from) {
            if let Some(m) = &best {
                // Any match ending at i+1 or later starts at or after
                // i + 1 - max_len; once that bound passes the best start,
                // nothing later can start sooner or extend the tie.
                if i + 1 > m.start + self.max_len {
                    break;
                }
            }
            let class = self.classes[b as usize] as usize;
            state = self.table[state * self.class_count + class] as usize;
            let (out_start, out_end) = self.out_ranges[state];
            for &id in &self.out_ids[out_start as usize..out_end as usize] {
                let meta = &self.patterns[id as usize];
                let start = i + 1 - meta.folded.len();
                if start < from {
                    continue;
                }
                if meta.word_bounded {
                    let left_ok = start == 0 || !is_word_byte(bytes[start - 1]);
                    let right_ok = i + 1 == bytes.len() || !is_word_byte(bytes[i + 1]);
                    if !left_ok || !right_ok {
                        continue;
                    }
                }
                let better = match &best {
                    None => true,
                    Some(m) => start < m.start || (start == m.start && i + 1 > m.end),
                };
                if better {
                    best = Some(Match {
                        pattern: id as usize,
                        start,
                        end: i + 1,
                    });
                }
            }
        }
        best
    }

    /// Which patterns occur at least once — the shared per-text scan result
    /// the detectors build their verdicts from.
    pub fn matched_ids(&self, haystack: &str) -> MatchSet {
        let mut set = MatchSet {
            hits: vec![false; self.patterns.len()],
            distinct: 0,
        };
        let total = self.patterns.len();
        self.scan(haystack, |m| {
            if !set.hits[m.pattern] {
                set.hits[m.pattern] = true;
                set.distinct += 1;
            }
            // Every pattern already seen: nothing left to learn.
            set.distinct < total
        });
        set
    }
}

/// Streaming iterator over successive non-overlapping leftmost-longest
/// matches; see [`Matcher::leftmost_longest_matches`].
#[derive(Debug, Clone)]
pub struct LeftmostLongestMatches<'m, 'h> {
    matcher: &'m Matcher,
    haystack: &'h str,
    pos: usize,
}

impl Iterator for LeftmostLongestMatches<'_, '_> {
    type Item = Match;

    fn next(&mut self) -> Option<Match> {
        let m = self
            .matcher
            .leftmost_longest_from(self.haystack.as_bytes(), self.pos)?;
        self.pos = m.end;
        Some(m)
    }
}

/// The distinct-pattern result of one [`Matcher::matched_ids`] pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchSet {
    hits: Vec<bool>,
    distinct: usize,
}

impl MatchSet {
    /// True if pattern `id` occurred.
    pub fn contains(&self, id: usize) -> bool {
        self.hits.get(id).copied().unwrap_or(false)
    }

    /// Number of distinct patterns that occurred.
    pub fn distinct_count(&self) -> usize {
        self.distinct
    }

    /// True if nothing matched.
    pub fn is_empty(&self) -> bool {
        self.distinct == 0
    }

    /// Iterates the ids of the patterns that occurred, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.hits
            .iter()
            .enumerate()
            .filter_map(|(id, &hit)| hit.then_some(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_all_occurrences_with_correct_spans() {
        let matcher = Matcher::compile(["ab", "bc", "abc"]);
        let hits = matcher.find_all("xxABCxx");
        assert_eq!(
            hits,
            vec![
                Match {
                    pattern: 0,
                    start: 2,
                    end: 4
                },
                Match {
                    pattern: 2,
                    start: 2,
                    end: 5
                },
                Match {
                    pattern: 1,
                    start: 3,
                    end: 5
                },
            ]
        );
    }

    #[test]
    fn overlapping_and_nested_patterns_all_fire() {
        let matcher = Matcher::compile(["aa", "aaa"]);
        let hits = matcher.find_all("aaaa");
        let aa: Vec<usize> = hits
            .iter()
            .filter(|m| m.pattern == 0)
            .map(|m| m.start)
            .collect();
        let aaa: Vec<usize> = hits
            .iter()
            .filter(|m| m.pattern == 1)
            .map(|m| m.start)
            .collect();
        assert_eq!(aa, vec![0, 1, 2]);
        assert_eq!(aaa, vec![0, 1]);
    }

    #[test]
    fn ascii_case_folding_is_symmetric() {
        let matcher = Matcher::compile(["Nerve AGENT"]);
        assert!(matcher.is_match("a NERVE agent appears"));
        assert!(matcher.is_match("nerve agent"));
        assert!(!matcher.is_match("nerve_agent"));
    }

    #[test]
    fn non_ascii_bytes_match_exactly_with_stable_offsets() {
        let matcher = Matcher::compile(["password:"]);
        let text = "İİİ password: hunter2";
        let hits = matcher.find_all(text);
        assert_eq!(hits.len(), 1);
        assert_eq!(&text[hits[0].range()], "password:");
        // Unicode-only case variants do not fold.
        let dotted = Matcher::compile(["i"]);
        assert!(!dotted.is_match("İ"));
    }

    #[test]
    fn empty_patterns_never_match_and_keep_ids_stable() {
        let matcher = Matcher::compile(["", "b"]);
        let hits = matcher.find_all("abc");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].pattern, 1);
        assert_eq!(matcher.pattern_count(), 2);
    }

    #[test]
    fn duplicate_patterns_each_report() {
        let matcher = Matcher::compile(["dup", "dup"]);
        let set = matcher.matched_ids("a dup here");
        assert!(set.contains(0) && set.contains(1));
        assert_eq!(set.distinct_count(), 2);
    }

    #[test]
    fn word_boundaries_suppress_embedded_hits() {
        let mut builder = MatcherBuilder::new();
        builder.add_word_bounded("vx");
        builder.add("vx");
        let matcher = builder.build();
        // Embedded: only the unbounded copy fires.
        let set = matcher.matched_ids("devx tooling");
        assert!(!set.contains(0));
        assert!(set.contains(1));
        // Standalone, punctuation-adjacent and string-edge hits all count.
        for text in ["vx", "VX gas", "(vx)", "use VX."] {
            assert!(matcher.matched_ids(text).contains(0), "missed in {text:?}");
        }
        assert!(!matcher.matched_ids("vx_payload").contains(0));
    }

    #[test]
    fn find_earliest_returns_the_first_visited_match() {
        let matcher = Matcher::compile(["bc", "abc", "zz"]);
        let hit = matcher.find_earliest("xxabcxx").unwrap();
        // Both "abc" and "bc" end at offset 5; the longer pattern is
        // visited first, exactly as scan() orders them.
        assert_eq!(
            hit,
            Match {
                pattern: 1,
                start: 2,
                end: 5
            }
        );
        assert!(matcher.find_earliest("nothing here").is_none());
        // Word-bounded patterns that are suppressed do not count as first.
        let mut builder = MatcherBuilder::new();
        builder.add_word_bounded("vx");
        builder.add("tooling");
        let bounded = builder.build();
        assert_eq!(bounded.find_earliest("devx tooling").unwrap().pattern, 1);
    }

    #[test]
    fn leftmost_longest_prefers_start_over_end() {
        let matcher = Matcher::compile(["bcd", "abcde"]);
        // find_earliest proves "bcd" first (ends at 4); leftmost-longest
        // wants "abcde" (starts at 0).
        assert_eq!(matcher.find_earliest("abcde").unwrap().pattern, 0);
        let m = matcher.find_leftmost_longest("abcde").unwrap();
        assert_eq!((m.pattern, m.start, m.end), (1, 0, 5));
        // At the same start, the longer pattern wins.
        let nested = Matcher::compile(["ab", "abc"]);
        let m = nested.find_leftmost_longest("zzABCz").unwrap();
        assert_eq!((m.pattern, m.start, m.end), (1, 2, 5));
        assert!(nested.find_leftmost_longest("no hit").is_none());
        assert!(Matcher::compile([""; 0])
            .find_leftmost_longest("abc")
            .is_none());
    }

    #[test]
    fn leftmost_longest_iteration_is_non_overlapping_and_ordered() {
        let matcher = Matcher::compile(["aa", "aaa"]);
        let hits: Vec<(usize, usize, usize)> = matcher
            .leftmost_longest_matches("aaaaaaa")
            .map(|m| (m.pattern, m.start, m.end))
            .collect();
        // 7 a's: "aaa" at 0, "aaa" at 3, then only "aa"-worth remains? No:
        // one 'a' remains at 6, which matches nothing.
        assert_eq!(hits, vec![(1, 0, 3), (1, 3, 6)]);
        let matcher = Matcher::compile(["he", "hers"]);
        let hits: Vec<(usize, usize)> = matcher
            .leftmost_longest_matches("he hers he")
            .map(|m| (m.pattern, m.start))
            .collect();
        assert_eq!(hits, vec![(0, 0), (1, 3), (0, 8)]);
    }

    #[test]
    fn leftmost_longest_respects_word_boundaries_across_restarts() {
        let mut builder = MatcherBuilder::new();
        builder.add("agent");
        builder.add_word_bounded("vx");
        let matcher = builder.build();
        // After consuming "agent", the scan restarts inside "devx" — the
        // bounded "vx" must still see the 'e' to its left and stay quiet.
        let hits: Vec<usize> = matcher
            .leftmost_longest_matches("agentdevx tooling, vx here")
            .map(|m| m.pattern)
            .collect();
        assert_eq!(hits, vec![0, 1]);
        let m = matcher.find_leftmost_longest("devx then VX").unwrap();
        assert_eq!((m.pattern, m.start), (1, 10));
    }

    #[test]
    fn scan_window_carries_word_context_across_the_left_edge() {
        let mut builder = MatcherBuilder::new();
        builder.add_word_bounded("vx");
        let matcher = builder.build();
        // The stream is "devx gas", windowed as "de" | "vx gas": the left
        // neighbour of the window is 'e', a word byte, so "vx" at window
        // start must stay quiet.
        let mut hits = Vec::new();
        matcher.scan_window("vx gas", true, true, |m, tentative| {
            hits.push((m.pattern, tentative));
            true
        });
        assert!(hits.is_empty());
        // Same window after punctuation: a real hit.
        matcher.scan_window("vx gas", false, true, |m, tentative| {
            hits.push((m.pattern, tentative));
            true
        });
        assert_eq!(hits, vec![(0, false)]);
    }

    #[test]
    fn scan_window_marks_flush_word_bounded_matches_tentative() {
        let mut builder = MatcherBuilder::new();
        builder.add_word_bounded("vx");
        builder.add("gas");
        let matcher = builder.build();
        // "vx" ends flush with a continuing window: tentative, because the
        // next stream byte decides the right boundary.
        let mut hits = Vec::new();
        matcher.scan_window("use vx", false, false, |m, tentative| {
            hits.push((m.pattern, tentative));
            true
        });
        assert_eq!(hits, vec![(0, true)]);
        // At the true stream end the same match is definitive.
        hits.clear();
        matcher.scan_window("use vx", false, true, |m, tentative| {
            hits.push((m.pattern, tentative));
            true
        });
        assert_eq!(hits, vec![(0, false)]);
        // Unbounded patterns are never tentative, even flush with the end.
        hits.clear();
        matcher.scan_window("nerve gas", false, false, |m, tentative| {
            hits.push((m.pattern, tentative));
            true
        });
        assert_eq!(hits, vec![(1, false)]);
    }

    #[test]
    fn max_pattern_len_reports_the_longest_pattern() {
        assert_eq!(Matcher::compile(["ab", "abcde"]).max_pattern_len(), 5);
        assert_eq!(Matcher::compile([""; 0]).max_pattern_len(), 0);
    }

    #[test]
    fn matched_ids_stops_early_once_saturated() {
        let matcher = Matcher::compile(["a"]);
        let set = matcher.matched_ids(&"a".repeat(10_000));
        assert_eq!(set.distinct_count(), 1);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn scan_agrees_with_naive_reference_on_a_known_text() {
        let patterns = ["he", "she", "his", "hers"];
        let matcher = Matcher::compile(patterns);
        let text = "uSHErs and HIS HERS";
        let got: std::collections::BTreeSet<(usize, usize)> = matcher
            .find_all(text)
            .into_iter()
            .map(|m| (m.pattern, m.start))
            .collect();
        let want = naive::all_occurrences(&patterns, text)
            .into_iter()
            .collect::<std::collections::BTreeSet<_>>();
        assert_eq!(got, want);
    }
}
