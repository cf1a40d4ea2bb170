//! Curation: posts → curated smishing messages (§3.2).
//!
//! Screenshots go through the configured extractor (the §3.2 comparison is
//! reproducible by switching [`ExtractorChoice`]); text forms are parsed
//! directly; noise posts are dismissed. The output preserves duplicates
//! (Table 1's "Total" columns); [`dedup`] computes the "Unique" view.

use smishing_screenshot::{Extractor, LlmExtractor, NaiveOcr, Screenshot, VisionOcr};
use smishing_textnlp::identify_language;
use smishing_textnlp::normalize::normalize_text;
use smishing_textnlp::translate::{TemplateTranslator, Translator};
use smishing_types::{
    parse_timestamp, Date, Forum, Language, MessageId, ParsedStamp, PostId, UnixTime,
};
use smishing_webinfra::refang;
use smishing_worldsim::{Post, PostBody};

/// Which screenshot extractor the pipeline uses (§3.2's three contenders).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractorChoice {
    /// Pytesseract-like naive OCR.
    Naive,
    /// Google-Vision-like block OCR.
    Vision,
    /// OpenAI-Vision-like structured extraction (the paper's choice).
    Llm,
}

/// Deduplication keying (ablation: DESIGN.md §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DedupMode {
    /// Key on the exact message text.
    Exact,
    /// Key on homoglyph-normalized text (merges OCR-confused duplicates).
    Normalized,
}

/// Curation configuration.
#[derive(Debug, Clone, Copy)]
pub struct CurationOptions {
    /// The extractor.
    pub extractor: ExtractorChoice,
    /// Dedup keying.
    pub dedup: DedupMode,
    /// Seed for the extractors' deterministic noise.
    pub seed: u64,
}

impl Default for CurationOptions {
    fn default() -> Self {
        CurationOptions {
            extractor: ExtractorChoice::Llm,
            dedup: DedupMode::Normalized,
            seed: 0xC0FFEE,
        }
    }
}

/// One curated smishing message (§3.2's four extracted variables plus the
/// translation).
#[derive(Debug, Clone)]
pub struct CuratedMessage {
    /// The post it came from.
    pub post_id: PostId,
    /// The forum.
    pub forum: Forum,
    /// When the report was posted (the forum's arrival clock — the
    /// first/last-seen evidence an intelligence index carries per entry,
    /// and the clock the latency, freshness and case-study analyses read).
    pub posted_at: UnixTime,
    /// Extracted message text (original language).
    pub text: String,
    /// English rendering (§3.2 translates non-English texts).
    pub english: String,
    /// Detected language.
    pub language: Option<Language>,
    /// Raw sender string as displayed/entered (None = redacted).
    pub sender_raw: Option<String>,
    /// Raw URL string (refanged), if present.
    pub url_raw: Option<String>,
    /// Parsed screenshot timestamp.
    pub stamp: Option<ParsedStamp>,
    /// Receive date from text forms (date-only, §3.3.2 excludes these from
    /// the time-of-day analysis).
    pub form_date: Option<Date>,
    /// Ground-truth message id — evaluation only.
    pub truth_message: Option<MessageId>,
}

impl CuratedMessage {
    /// The dedup key under a mode.
    pub fn dedup_key(&self, mode: DedupMode) -> String {
        match mode {
            DedupMode::Exact => self.text.clone(),
            DedupMode::Normalized => normalize_text(&self.text),
        }
    }
}

fn extract_with(
    choice: ExtractorChoice,
    seed: u64,
    shot: &Screenshot,
) -> smishing_screenshot::Extraction {
    match choice {
        ExtractorChoice::Naive => NaiveOcr::new(seed).extract(shot),
        ExtractorChoice::Vision => VisionOcr::new(seed).extract(shot),
        ExtractorChoice::Llm => LlmExtractor::new(seed).extract(shot),
    }
}

/// Curate a single post. `None` when the post is not a usable report.
pub fn curate_post(post: &Post, opts: &CurationOptions) -> Option<CuratedMessage> {
    let (text, sender_raw, url_raw, stamp_raw, form_date) = match &post.body {
        PostBody::ImageReport(shot) | PostBody::NoiseImage(shot) => {
            let e = extract_with(opts.extractor, opts.seed, shot);
            if !e.is_sms_screenshot {
                return None;
            }
            let text = e.text?;
            if text.trim().is_empty() {
                return None;
            }
            (text, e.sender, e.url, e.timestamp_raw, None)
        }
        PostBody::Form { report, screenshot } => {
            // Prefer the structured fields; fall back to the screenshot.
            let _ = screenshot;
            (
                report.body.clone(),
                report.sender.clone(),
                report.url.clone(),
                None,
                report.received_date,
            )
        }
        PostBody::NoiseText(_) => return None,
    };

    let language = identify_language(&text);
    let english = TemplateTranslator::new()
        .to_english(&text, language)
        .text()
        .to_string();
    let url_raw = url_raw
        .map(|u| refang(&u))
        .or_else(|| smishing_webinfra::find_url_in_text(&text).map(|p| p.to_url_string()));
    let stamp = stamp_raw.as_deref().and_then(parse_timestamp);
    Some(CuratedMessage {
        post_id: post.id,
        forum: post.forum,
        posted_at: post.posted_at,
        text,
        english,
        language,
        sender_raw,
        url_raw,
        stamp,
        form_date,
        truth_message: post.reported_message,
    })
}

/// Curate a batch of posts on the calling thread, sorted by post id: the
/// sequential reference. Parallel curation is the execution core's
/// curator pool ([`ExecPlan::curators`](crate::exec::ExecPlan::curators)).
pub fn curate_posts(posts: &[&Post], opts: &CurationOptions) -> Vec<CuratedMessage> {
    let mut out: Vec<CuratedMessage> = posts.iter().filter_map(|p| curate_post(p, opts)).collect();
    out.sort_by_key(|c| c.post_id);
    out
}

/// Unique view of curated messages: first occurrence per dedup key.
pub fn dedup(curated: &[CuratedMessage], mode: DedupMode) -> Vec<CuratedMessage> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for c in curated {
        if seen.insert(c.dedup_key(mode)) {
            out.push(c.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ingest, ExecPlan};
    use smishing_obs::Obs;
    use smishing_worldsim::{World, WorldConfig};
    use std::sync::Arc;

    fn world() -> World {
        World::generate(WorldConfig::test_scale(61))
    }

    #[test]
    fn noise_is_dismissed_reports_survive() {
        let w = world();
        let opts = CurationOptions::default();
        let refs: Vec<&Post> = w.posts.iter().collect();
        let curated = curate_posts(&refs, &opts);
        let n_reports = w
            .posts
            .iter()
            .filter(|p| p.reported_message.is_some())
            .count();
        // The LLM extractor keeps nearly all reports and drops nearly all
        // noise (§3.2).
        assert!(
            curated.len() as f64 > n_reports as f64 * 0.9,
            "{} vs {}",
            curated.len(),
            n_reports
        );
        assert!((curated.len() as f64) < n_reports as f64 * 1.1);
        let false_reports = curated.iter().filter(|c| c.truth_message.is_none()).count();
        assert!(
            (false_reports as f64) < curated.len() as f64 * 0.05,
            "{false_reports} noise posts curated"
        );
    }

    /// Curated messages of an engine run over `posts` under `plan`.
    fn engine_curated(w: &World, posts: &[Post], plan: &ExecPlan) -> Vec<Arc<CuratedMessage>> {
        let opts = CurationOptions::default();
        ingest(w, posts.iter(), &opts, plan, &Obs::noop(), |_| {})
            .output
            .curated_total
    }

    #[test]
    fn parallel_equals_serial() {
        // The engine's curator pool against a single curator.
        let w = world();
        let posts = &w.posts[..800];
        let serial = engine_curated(&w, posts, &ExecPlan::sequential());
        let parallel = engine_curated(
            &w,
            posts,
            &ExecPlan {
                curators: 8,
                ..ExecPlan::sequential()
            },
        );
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(parallel.iter()) {
            assert_eq!(a.post_id, b.post_id);
            assert_eq!(a.text, b.text);
            assert_eq!(a.url_raw, b.url_raw);
        }
    }

    #[test]
    fn bounded_output_handles_more_messages_than_capacity() {
        // Regression: every engine channel is bounded; feeding, curating
        // and draining must overlap or a corpus larger than the capacity
        // deadlocks. Push far past a capacity of one through many curators.
        let w = World::generate(WorldConfig {
            seed: 63,
            scale: 0.05,
            ..WorldConfig::default()
        });
        let serial = engine_curated(&w, &w.posts, &ExecPlan::sequential());
        assert!(
            serial.len() > 1024,
            "corpus too small to stress the channel: {}",
            serial.len()
        );
        let parallel = engine_curated(
            &w,
            &w.posts,
            &ExecPlan {
                curators: 8,
                channel_capacity: 1,
                ..ExecPlan::sequential()
            },
        );
        assert_eq!(serial.len(), parallel.len());
    }

    #[test]
    fn naive_extractor_loses_messages() {
        let w = world();
        let refs: Vec<&Post> = w.posts.iter().collect();
        let llm = curate_posts(&refs, &CurationOptions::default());
        let naive = curate_posts(
            &refs,
            &CurationOptions {
                extractor: ExtractorChoice::Naive,
                ..Default::default()
            },
        );
        // Naive OCR fails on themed screenshots but also "curates" posters;
        // its *usable text* yield is poorer — and it keeps noise in.
        let naive_noise = naive.iter().filter(|c| c.truth_message.is_none()).count();
        let llm_noise = llm.iter().filter(|c| c.truth_message.is_none()).count();
        assert!(naive_noise > llm_noise, "{naive_noise} vs {llm_noise}");
    }

    #[test]
    fn dedup_shrinks_totals() {
        let w = world();
        let refs: Vec<&Post> = w.posts.iter().collect();
        let curated = curate_posts(&refs, &CurationOptions::default());
        let unique = dedup(&curated, DedupMode::Normalized);
        assert!(unique.len() < curated.len());
        let ratio = curated.len() as f64 / unique.len() as f64;
        assert!((1.05..1.8).contains(&ratio), "total/unique = {ratio}");
    }

    #[test]
    fn form_posts_keep_their_fields() {
        let w = world();
        let opts = CurationOptions::default();
        let mut checked = 0;
        // All three text-form forums produce Form bodies; at test scale the
        // smallest (Smishing.eu) may draw zero posts, so check them all.
        for forum in [Forum::SmishingEu, Forum::Pastebin, Forum::Smishtank] {
            for p in w.posts_on(forum) {
                if !matches!(p.body, PostBody::Form { .. }) {
                    continue; // Smishtank also attracts noise images
                }
                let c = curate_post(p, &opts).expect("forms always curate");
                assert!(c.form_date.is_some(), "{forum}");
                assert!(!c.text.is_empty());
                if let Some(u) = &c.url_raw {
                    assert!(!u.contains("[.]"), "defanged URL not refanged: {u}");
                }
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn languages_detected_and_translated() {
        let w = world();
        let refs: Vec<&Post> = w.posts.iter().collect();
        let curated = curate_posts(&refs, &CurationOptions::default());
        let non_english = curated
            .iter()
            .filter(|c| c.language.is_some() && c.language != Some(Language::English))
            .count();
        assert!(non_english > 0);
        for c in curated
            .iter()
            .filter(|c| c.language == Some(Language::Dutch))
            .take(5)
        {
            assert_ne!(c.english, c.text, "Dutch text should be translated");
        }
    }
}
