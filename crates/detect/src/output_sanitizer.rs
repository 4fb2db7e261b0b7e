//! Output sanitization: removing problematic content from model responses.
//!
//! All markers across every category are compiled into one
//! [`guillotine_scan::Matcher`] automaton (at construction and on each
//! [`OutputSanitizer::add_category`]), so sanitizing a response is a single
//! pass over its original bytes: the automaton yields the byte span of every
//! marker occurrence, the matched categories fall out of the pattern ids,
//! and redaction splices the spans directly — no lowercase shadow copies,
//! whose offsets misalign on non-ASCII text, and no per-marker rescans.
//! Markers shorter than four bytes (e.g. `"vx"`) are matched with word
//! boundaries so they cannot fire inside unrelated words like `"devx"`.
//! The compiled form lives in a [`CompiledCategories`] behind an `Arc`, so
//! a fleet compiles its category set once and shares it across every
//! shard's sanitizer ([`OutputSanitizer::with_compiled`]).

use crate::observation::ModelObservation;
use crate::verdict::{Detector, RecommendedAction, Verdict};
use guillotine_scan::{Matcher, MatcherBuilder};
use std::sync::Arc;

/// Markers shorter than this many bytes only match at word boundaries;
/// very short markers are otherwise frequent false positives inside
/// unrelated words (`"vx"` in `"devx"`).
const WORD_BOUND_BELOW_BYTES: usize = 4;

/// A category of content that must not leave the sandbox.
#[derive(Debug, Clone)]
pub struct ForbiddenCategory {
    /// Category name (appears in audit records).
    pub name: String,
    /// Lowercase markers whose presence indicates the category.
    pub markers: Vec<String>,
    /// Severity in `[0, 1]`.
    pub severity: f64,
}

/// A category set in compiled form: the categories, their single-pass
/// automaton, and the pattern-id → category-index map.
///
/// Like `CompiledShieldRules`, this is immutable and made to be shared
/// behind an [`Arc`]: a fleet compiles its category set once and every
/// shard's sanitizer scans with the same automaton
/// ([`OutputSanitizer::with_compiled`]).
#[derive(Debug)]
pub struct CompiledCategories {
    categories: Vec<ForbiddenCategory>,
    matcher: Matcher,
    /// Pattern id → index of the owning category.
    marker_category: Vec<usize>,
}

impl CompiledCategories {
    /// Compiles every marker of every category into one automaton; short
    /// markers get word-boundary semantics, and markers containing
    /// non-ASCII letters also register their Unicode case variants.
    pub fn compile(categories: impl IntoIterator<Item = ForbiddenCategory>) -> Self {
        let categories: Vec<ForbiddenCategory> = categories.into_iter().collect();
        let mut builder = MatcherBuilder::new();
        let mut marker_category = Vec::new();
        for (index, category) in categories.iter().enumerate() {
            for marker in &category.markers {
                crate::scan_util::add_case_variants(
                    &mut builder,
                    marker,
                    marker.len() < WORD_BOUND_BELOW_BYTES,
                    index,
                    &mut marker_category,
                );
            }
        }
        CompiledCategories {
            categories,
            matcher: builder.build(),
            marker_category,
        }
    }

    /// Compiles the default category set (see [`OutputSanitizer::new`]).
    pub fn standard() -> Self {
        CompiledCategories::compile(OutputSanitizer::default_categories())
    }

    /// The compiled categories, in registration order.
    pub fn categories(&self) -> &[ForbiddenCategory] {
        &self.categories
    }

    /// The compiled single-pass automaton.
    pub fn matcher(&self) -> &Matcher {
        &self.matcher
    }

    /// Index of the category owning `pattern` (a pattern id reported by
    /// [`CompiledCategories::matcher`]).
    pub fn category_of_pattern(&self, pattern: usize) -> usize {
        self.marker_category[pattern]
    }
}

/// The output sanitizer: scans responses and replaces forbidden spans with a
/// redaction marker, so the hypervisor can forward the sanitized response
/// instead of suppressing it entirely.
///
/// Not serializable: the compiled [`Matcher`] is a derived artifact of the
/// categories. Persist the categories (serializable
/// [`ForbiddenCategory`]s) and rebuild. Cloning a sanitizer shares its
/// [`CompiledCategories`] (no recompilation).
#[derive(Debug, Clone)]
pub struct OutputSanitizer {
    compiled: Arc<CompiledCategories>,
    redaction: String,
    inspected: u64,
    sanitized: u64,
}

impl Default for OutputSanitizer {
    fn default() -> Self {
        OutputSanitizer::new()
    }
}

impl OutputSanitizer {
    /// The marker spliced over every redacted span, shared with the
    /// streaming sanitizer so chunked and whole-string redaction produce
    /// byte-identical output.
    pub const REDACTION: &'static str = "[REDACTED BY GUILLOTINE]";

    /// Creates a sanitizer with the default category set.
    pub fn new() -> Self {
        OutputSanitizer::with_compiled(Arc::new(CompiledCategories::standard()))
    }

    /// Creates a sanitizer around an already-compiled, possibly shared
    /// category set (the fleet path: compile once, share across shards).
    pub fn with_compiled(compiled: Arc<CompiledCategories>) -> Self {
        OutputSanitizer {
            compiled,
            redaction: OutputSanitizer::REDACTION.into(),
            inspected: 0,
            sanitized: 0,
        }
    }

    /// The shared compiled category set this sanitizer scans with.
    pub fn compiled(&self) -> &Arc<CompiledCategories> {
        &self.compiled
    }

    /// The default forbidden-category set.
    fn default_categories() -> Vec<ForbiddenCategory> {
        vec![
            ForbiddenCategory {
                name: "weapon-synthesis".into(),
                markers: vec![
                    "synthesis route".into(),
                    "precursor".into(),
                    "enrichment cascade".into(),
                    "vx".into(),
                    "sarin".into(),
                ],
                severity: 0.95,
            },
            ForbiddenCategory {
                name: "self-exfiltration".into(),
                markers: vec![
                    "my weights are".into(),
                    "weight shard".into(),
                    "base64 checkpoint".into(),
                    "upload my parameters".into(),
                ],
                severity: 0.9,
            },
            ForbiddenCategory {
                name: "sandbox-probing".into(),
                markers: vec![
                    "hypervisor core".into(),
                    "cache set index".into(),
                    "management bus".into(),
                    "kill switch location".into(),
                ],
                severity: 0.8,
            },
            ForbiddenCategory {
                name: "credential-leak".into(),
                markers: vec!["password:".into(), "api key:".into(), "private key".into()],
                severity: 0.7,
            },
        ]
    }

    /// Adds a forbidden category and recompiles the marker automaton
    /// (construction-time cost; scans stay single-pass).
    pub fn add_category(&mut self, category: ForbiddenCategory) {
        self.add_categories([category]);
    }

    /// Adds many categories with a single automaton recompilation — the way
    /// to load large fleet category sets without O(categories²) rebuild
    /// cost. The sanitizer detaches from any shared category set (other
    /// sanitizers keep the old one).
    pub fn add_categories<I>(&mut self, categories: I)
    where
        I: IntoIterator<Item = ForbiddenCategory>,
    {
        let mut merged = self.compiled.categories.clone();
        merged.extend(categories);
        self.compiled = Arc::new(CompiledCategories::compile(merged));
    }

    /// The installed categories, in registration order.
    pub fn categories(&self) -> &[ForbiddenCategory] {
        &self.compiled.categories
    }

    /// Number of responses inspected.
    pub fn inspected(&self) -> u64 {
        self.inspected
    }

    /// Number of responses that required sanitization.
    pub fn sanitized_count(&self) -> u64 {
        self.sanitized
    }

    /// Sanitizes `text`, returning the clean text, the matched categories and
    /// the maximum severity among them.
    ///
    /// One automaton pass yields every marker occurrence as a byte span in
    /// the original text; overlapping spans are merged and each merged span
    /// is replaced with the redaction marker. Spans come straight from the
    /// original bytes (ASCII case folding never shifts offsets), so
    /// non-ASCII text around markers survives intact — unlike the old
    /// lowercase-shadow scan, which misaligned on text like `"İ"`.
    pub fn sanitize(&self, text: &str) -> (String, Vec<String>, f64) {
        // Clean-fast: the common clean response exits on a single DFA pass
        // that stops at the first hit, allocating nothing.
        if self.compiled.matcher.find_earliest(text).is_none() {
            return (text.to_string(), Vec::new(), 0.0);
        }
        let mut spans: Vec<(usize, usize)> = Vec::new();
        let mut category_hit = vec![false; self.compiled.categories.len()];
        self.compiled.matcher.scan(text, |m| {
            category_hit[self.compiled.marker_category[m.pattern]] = true;
            spans.push((m.start, m.end));
            true
        });
        let mut matched = Vec::new();
        let mut severity: f64 = 0.0;
        for (category, hit) in self.compiled.categories.iter().zip(&category_hit) {
            if *hit {
                matched.push(category.name.clone());
                severity = severity.max(category.severity);
            }
        }
        if spans.is_empty() {
            return (text.to_string(), matched, severity);
        }
        // Merge overlapping spans, then splice: original text between spans,
        // one redaction marker per merged span.
        spans.sort_unstable();
        let mut clean = String::with_capacity(text.len());
        let mut cursor = 0;
        let mut pending: Option<(usize, usize)> = None;
        for (start, end) in spans {
            match pending {
                Some((p_start, p_end)) if start < p_end => {
                    pending = Some((p_start, p_end.max(end)));
                }
                Some((p_start, p_end)) => {
                    clean.push_str(&text[cursor..p_start]);
                    clean.push_str(&self.redaction);
                    cursor = p_end;
                    pending = Some((start, end));
                }
                None => pending = Some((start, end)),
            }
        }
        if let Some((p_start, p_end)) = pending {
            clean.push_str(&text[cursor..p_start]);
            clean.push_str(&self.redaction);
            cursor = p_end;
        }
        clean.push_str(&text[cursor..]);
        (clean, matched, severity)
    }
}

impl Detector for OutputSanitizer {
    fn name(&self) -> &str {
        "output-sanitizer"
    }

    fn inspect(&mut self, observation: &ModelObservation) -> Verdict {
        let text = match observation {
            ModelObservation::Response { text, .. } => text,
            _ => return Verdict::clean(self.name()),
        };
        self.inspected += 1;
        let (clean, matched, severity) = self.sanitize(text);
        if matched.is_empty() {
            Verdict::clean(self.name())
        } else {
            self.sanitized += 1;
            let action = if severity >= 0.9 {
                RecommendedAction::Restrict
            } else {
                RecommendedAction::Sanitize
            };
            Verdict::flagged(
                self.name(),
                severity,
                format!(
                    "response contained forbidden categories: {}",
                    matched.join(", ")
                ),
                action,
            )
            .with_replacement(clean)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guillotine_types::ModelId;

    fn response(text: &str) -> ModelObservation {
        ModelObservation::Response {
            model: ModelId::new(0),
            text: text.into(),
        }
    }

    #[test]
    fn benign_responses_pass_unchanged() {
        let mut s = OutputSanitizer::new();
        let v = s.inspect(&response("The capital of France is Paris."));
        assert!(!v.flagged);
        assert!(v.replacement.is_none());
    }

    #[test]
    fn forbidden_content_is_redacted() {
        let mut s = OutputSanitizer::new();
        let v = s.inspect(&response(
            "Sure! The synthesis route starts with a common precursor.",
        ));
        assert!(v.flagged);
        let clean = v.replacement.unwrap();
        assert!(clean.contains("[REDACTED BY GUILLOTINE]"));
        assert!(!clean.to_lowercase().contains("synthesis route"));
        assert!(v.score >= 0.9);
    }

    #[test]
    fn sandbox_probing_answers_are_caught() {
        let mut s = OutputSanitizer::new();
        let v = s.inspect(&response(
            "The hypervisor core can be reached if you learn the cache set index of its heap.",
        ));
        assert!(v.flagged);
        assert!(v.reason.contains("sandbox-probing"));
    }

    #[test]
    fn multiple_categories_report_highest_severity() {
        let s = OutputSanitizer::new();
        let (_, cats, sev) =
            s.sanitize("password: hunter2 and a weight shard in base64 checkpoint form");
        assert!(cats.contains(&"credential-leak".to_string()));
        assert!(cats.contains(&"self-exfiltration".to_string()));
        assert!(sev >= 0.9);
    }

    #[test]
    fn prompts_are_not_this_detectors_business() {
        let mut s = OutputSanitizer::new();
        let v = s.inspect(&ModelObservation::Prompt {
            model: ModelId::new(0),
            text: "password: abc".into(),
        });
        assert!(!v.flagged);
        assert_eq!(s.inspected(), 0);
    }

    #[test]
    fn non_ascii_text_around_markers_survives_redaction() {
        // The old lowercase-shadow scan misaligned here: "İ".to_lowercase()
        // is one byte longer than "İ", so offsets found in the shadow slice
        // the original mid-codepoint.
        let s = OutputSanitizer::new();
        let (clean, cats, _) = s.sanitize("İİİ password: hunter2 İİİ");
        assert!(clean.starts_with("İİİ "));
        assert!(clean.ends_with(" İİİ"));
        assert!(clean.contains("[REDACTED BY GUILLOTINE]"));
        assert!(!clean.contains("password:"));
        assert_eq!(cats, vec!["credential-leak".to_string()]);
    }

    #[test]
    fn short_markers_need_word_boundaries() {
        let s = OutputSanitizer::new();
        // "vx" inside an unrelated word is not a weapon reference.
        let (clean, cats, _) = s.sanitize("our devx tooling improved");
        assert_eq!(clean, "our devx tooling improved");
        assert!(cats.is_empty());
        // Standalone and case-variant occurrences still are.
        for text in ["VX is a nerve agent", "use vx.", "(vx)"] {
            let (clean, cats, sev) = s.sanitize(text);
            assert!(cats.contains(&"weapon-synthesis".to_string()), "{text:?}");
            assert!(!clean.to_ascii_lowercase().contains("vx"), "{text:?}");
            assert!(sev >= 0.95);
        }
    }

    #[test]
    fn non_ascii_markers_keep_unicode_case_variants() {
        let mut s = OutputSanitizer::new();
        s.add_category(ForbiddenCategory {
            name: "codeword".into(),
            markers: vec!["geräteplan".into()],
            severity: 0.6,
        });
        for text in ["the geräteplan says", "THE GERÄTEPLAN SAYS"] {
            let (clean, cats, _) = s.sanitize(text);
            assert_eq!(cats, vec!["codeword".to_string()], "missed in {text:?}");
            assert!(clean.contains("[REDACTED BY GUILLOTINE]"));
        }
    }

    #[test]
    fn compiled_categories_are_shared_not_recompiled() {
        let compiled = Arc::new(CompiledCategories::standard());
        let a = OutputSanitizer::with_compiled(Arc::clone(&compiled));
        let b = a.clone();
        assert_eq!(Arc::strong_count(&compiled), 3);
        assert!(Arc::ptr_eq(a.compiled(), b.compiled()));
        // A local category addition detaches only the mutant.
        let mut c = b.clone();
        c.add_category(ForbiddenCategory {
            name: "local".into(),
            markers: vec!["localmarker".into()],
            severity: 0.5,
        });
        assert!(!Arc::ptr_eq(c.compiled(), &compiled));
        assert!(Arc::ptr_eq(b.compiled(), &compiled));
        assert_eq!(b.categories().len() + 1, c.categories().len());
    }

    #[test]
    fn overlapping_marker_spans_merge_into_one_redaction() {
        let mut s = OutputSanitizer::new();
        s.add_category(ForbiddenCategory {
            name: "test-overlap".into(),
            markers: vec!["route starts".into()],
            severity: 0.5,
        });
        // "synthesis route" and "route starts" overlap; the union is redacted
        // exactly once.
        let (clean, cats, _) = s.sanitize("The synthesis route starts here.");
        assert_eq!(clean, "The [REDACTED BY GUILLOTINE] here.");
        assert!(cats.contains(&"weapon-synthesis".to_string()));
        assert!(cats.contains(&"test-overlap".to_string()));
    }

    #[test]
    fn adjacent_occurrences_each_get_their_own_redaction() {
        let s = OutputSanitizer::new();
        let (clean, _, _) = s.sanitize("precursorprecursor");
        assert_eq!(clean, "[REDACTED BY GUILLOTINE][REDACTED BY GUILLOTINE]");
    }
}
