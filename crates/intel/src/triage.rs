//! Scoring raw incoming SMS against the store.
//!
//! [`Triage`] is what a messaging app's abuse desk would embed: hand it
//! the raw text and sender of an incoming message and get a scored
//! verdict back. Every request — a URL, a sender, a near-duplicate
//! probe or a whole message — is one [`Query`] answered by
//! [`Triage::answer`]. The lookup ladder mirrors the paper's pivot strength
//! ordering (§5.1): exact URL, then apex domain, then sender identity —
//! a hit anywhere is a known-infrastructure match with campaign
//! attribution; otherwise the `detect` logistic-regression model scores
//! the message alone. The model belongs to the snapshot it was trained
//! on ([`IntelSnapshot::model`]): the first model-rung `msg` of an epoch
//! trains it, and every `Triage`, serve worker and collector reading
//! that epoch shares the one copy. A `url`, `sender` or `near` query
//! never trains.
//!
//! Extraction reuses the pipeline's own stack — `webinfra` refanging +
//! homoglyph host folding and `textnlp` featurization — so a defanged or
//! mixed-script spelling of known infrastructure cannot dodge the index.
//!
//! Between the last exact pivot and the model sits the similarity rung:
//! when a campaign has rotated every exact indicator, the snapshot's
//! SimHash index (`smishing-simindex`) is probed for near-duplicate
//! texts, and a match returns the nearest template's evidence with a
//! similarity score ([`NearAttribution`]).
//!
//! Misses are remembered in a bounded [`LruSet`] keyed per pivot —
//! similarity misses included, keyed by the query's signature + shingle
//! fingerprint; the cache is cleared whenever the reader observes a
//! republish, because a fresh snapshot may turn yesterday's miss into
//! today's hit (for the similarity rung: a newly reported campaign may
//! now sit within radius of a previously unmatched text). That flush is
//! all a republish costs a `Triage`.

use crate::cache::LruSet;
use crate::hub::IntelReader;
use crate::snapshot::{domain_of, IntelSnapshot};
use smishing_core::enrich::parse_sender;
use smishing_detect::featurize;
use smishing_obs::TraceBuilder;
use smishing_simindex::{set_hash, SimMatch};
use smishing_types::{ScamType, UnixTime};
use smishing_webinfra::{find_url_in_text, parse_url, refang};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Score at or above which a verdict calls a message smishing: the one
/// threshold behind the serve protocol's `smishing=` field, the
/// evaluation and the drift scorecard.
pub const SMISHING_THRESHOLD: f64 = 0.5;

/// Wall-clock ns since `start` when tracing, 0 otherwise.
fn since(start: Option<Instant>) -> u64 {
    start.map_or(0, |t| {
        u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
    })
}

/// Which pivot matched known infrastructure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchedKey {
    /// Exact canonical URL.
    Url,
    /// Apex domain (registrable domain / free-hosting site).
    Domain,
    /// Sender ID.
    Sender,
    /// Phone number (digits-only E.164).
    Phone,
}

impl MatchedKey {
    /// Stable lowercase label for display and metrics.
    pub fn label(self) -> &'static str {
        match self {
            MatchedKey::Url => "url",
            MatchedKey::Domain => "domain",
            MatchedKey::Sender => "sender",
            MatchedKey::Phone => "phone",
        }
    }
}

/// A known-infrastructure match with its campaign attribution.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// The pivot that matched.
    pub matched: MatchedKey,
    /// The canonical key that matched.
    pub key: String,
    /// The first matching entry (canonical post-id order).
    pub entry: u32,
    /// Campaign-template id of that entry (similarity component).
    pub template: u32,
    /// Campaign-link cluster of that entry.
    pub cluster: u32,
    /// Entries in that cluster.
    pub cluster_size: usize,
    /// Annotated scam category of the matched entry.
    pub scam_type: ScamType,
    /// Impersonated brand, when identified.
    pub brand: Option<String>,
    /// Reports (duplicates included) behind the matched entry.
    pub n_reports: u32,
    /// Earliest report of the matched entry.
    pub first_seen: UnixTime,
    /// Latest report of the matched entry.
    pub last_seen: UnixTime,
    /// Majority ground-truth campaign of the cluster — evaluation only,
    /// a real deployment has no truth column.
    pub truth_campaign: Option<u32>,
}

/// A near-duplicate match from the similarity tier: the message is not
/// known infrastructure, but its text is a near-duplicate of a reported
/// campaign's — the rotated-indicator case.
#[derive(Debug, Clone)]
pub struct NearAttribution {
    /// The matched entry (canonical post-id order).
    pub entry: u32,
    /// Campaign-template id of the matched entry (similarity component).
    pub template: u32,
    /// Campaign-link cluster of the matched entry.
    pub cluster: u32,
    /// Entries in that cluster.
    pub cluster_size: usize,
    /// Hamming distance between query and entry signatures.
    pub hamming: u32,
    /// Exact n-gram Jaccard similarity in `[0, 1]`.
    pub jaccard: f64,
    /// Number of indexed texts sharing a signature band with the query.
    pub candidates: usize,
    /// Annotated scam category of the matched entry.
    pub scam_type: ScamType,
    /// Impersonated brand, when identified.
    pub brand: Option<String>,
    /// Reports (duplicates included) behind the matched entry.
    pub n_reports: u32,
    /// Earliest report of the matched entry.
    pub first_seen: UnixTime,
    /// Latest report of the matched entry.
    pub last_seen: UnixTime,
    /// Majority ground-truth campaign of the cluster — evaluation only.
    pub truth_campaign: Option<u32>,
}

impl NearAttribution {
    /// Similarity score in `(0.5, 1.0]`: between
    /// [`SMISHING_THRESHOLD`] and an exact-infrastructure hit, scaled by
    /// Jaccard — so an accepted near match always calls smishing, but
    /// never outranks exact evidence.
    pub fn score(&self) -> f64 {
        0.5 + self.jaccard / 2.0
    }
}

/// The outcome of a query or triage call.
#[derive(Debug, Clone)]
pub enum TriageVerdict {
    /// A lookup key matched known infrastructure (score 1.0).
    Hit(Attribution),
    /// Every exact pivot missed, but the text is a near-duplicate of a
    /// reported campaign's (score `0.5 + jaccard/2`).
    Near(NearAttribution),
    /// No infrastructure match; the detection model scored the text.
    ModelOnly {
        /// P(smishing) from the logistic-regression model.
        score: f64,
    },
    /// No infrastructure match and nothing to score (no snapshot, or a
    /// key-only query that missed).
    Unknown,
}

impl TriageVerdict {
    /// The verdict's score in `[0, 1]`.
    pub fn score(&self) -> f64 {
        match self {
            TriageVerdict::Hit(_) => 1.0,
            TriageVerdict::Near(a) => a.score(),
            TriageVerdict::ModelOnly { score } => *score,
            TriageVerdict::Unknown => 0.0,
        }
    }

    /// Whether the verdict calls the message smishing at `threshold`.
    pub fn is_smishing(&self, threshold: f64) -> bool {
        self.score() >= threshold
    }

    /// The attribution, when this is an infrastructure hit.
    pub fn attribution(&self) -> Option<&Attribution> {
        match self {
            TriageVerdict::Hit(a) => Some(a),
            _ => None,
        }
    }

    /// The near-match attribution, when this is a similarity hit.
    pub fn near(&self) -> Option<&NearAttribution> {
        match self {
            TriageVerdict::Near(a) => Some(a),
            _ => None,
        }
    }
}

/// Triage tuning knobs.
#[derive(Debug, Clone)]
pub struct TriageConfig {
    /// Negative-cache capacity (0 disables the cache).
    pub cache_capacity: usize,
}

impl Default for TriageConfig {
    fn default() -> Self {
        TriageConfig {
            cache_capacity: 4096,
        }
    }
}

/// One triage request: the four query verbs of the serve protocol,
/// borrowed from the request line. [`Query::parse`] is the one parser
/// for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query<'a> {
    /// `url <raw>`: exact URL, then apex domain. Defanged and homoglyph
    /// spellings normalize before lookup; a miss is `Unknown`, never
    /// model-scored (there is no text to score).
    Url(&'a str),
    /// `sender <raw>`: sender ID, then phone number.
    Sender(&'a str),
    /// `near <text>`: the similarity rung alone; a miss is `Unknown`.
    Near(&'a str),
    /// `msg [<sender>|]<text>`: the full ladder — refang and URL
    /// extraction, every exact pivot, the near rung, the model.
    Msg {
        /// Claimed sender, when the request carried one.
        sender: Option<&'a str>,
        /// Message body.
        text: &'a str,
    },
}

impl<'a> Query<'a> {
    /// Parse one of the four query verbs and its value; `None` for any
    /// other command.
    pub fn parse(cmd: &str, rest: &'a str) -> Option<Query<'a>> {
        Some(match cmd {
            "url" => Query::Url(rest),
            "sender" => Query::Sender(rest),
            "near" => Query::Near(rest),
            "msg" => Query::msg(rest),
            _ => return None,
        })
    }

    /// A `msg` payload: an optional `sender|` prefix, then the text
    /// (both trimmed when the prefix is present).
    pub(crate) fn msg(rest: &'a str) -> Query<'a> {
        match rest.split_once('|') {
            Some((s, t)) => Query::Msg {
                sender: Some(s.trim()),
                text: t.trim(),
            },
            None => Query::Msg {
                sender: None,
                text: rest,
            },
        }
    }

    /// Whether the query carries something to answer: a value, and for
    /// `msg`, text after its optional `sender|` prefix. The protocol
    /// refuses one without as a missing value.
    pub fn has_value(&self) -> bool {
        match self {
            Query::Url(v) | Query::Sender(v) | Query::Near(v) | Query::Msg { text: v, .. } => {
                !v.trim().is_empty()
            }
        }
    }

    /// The protocol verb this query answers.
    pub fn verb(&self) -> &'static str {
        match self {
            Query::Url(_) => "url",
            Query::Sender(_) => "sender",
            Query::Near(_) => "near",
            Query::Msg { .. } => "msg",
        }
    }
}

/// What [`Triage::answer`] returns.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The triage outcome.
    pub verdict: TriageVerdict,
    /// Band-sharing candidates the near rung counted (0 when it did not
    /// run or answered from the negative cache).
    pub candidates: usize,
    /// True when this call's reader refresh observed a republish: it
    /// flushed the negative cache, so the call's wall time carries that
    /// cost. Training is not tied to it: the first model-rung `msg` of
    /// an epoch trains the snapshot's model, whichever call observed
    /// the republish.
    pub republished: bool,
}

/// The raw-SMS scoring front door.
#[derive(Debug)]
pub struct Triage {
    reader: IntelReader,
    ladder: Ladder,
}

/// Everything the ladder walk mutates besides the snapshot it reads —
/// kept apart from the reader so [`Triage::answer`] can borrow the
/// reader's snapshot while the walk feeds the cache.
#[derive(Debug)]
struct Ladder {
    cache: LruSet,
}

impl Triage {
    /// A triage head over a reader, with default tuning.
    pub fn new(reader: IntelReader) -> Triage {
        Triage::with_config(reader, TriageConfig::default())
    }

    /// A triage head with explicit tuning.
    pub fn with_config(reader: IntelReader, cfg: TriageConfig) -> Triage {
        let cache = LruSet::new(cfg.cache_capacity);
        Triage {
            reader,
            ladder: Ladder { cache },
        }
    }

    /// Current snapshot (refreshing the reader); `None` before the first
    /// publish.
    pub fn snapshot(&mut self) -> Option<Arc<IntelSnapshot>> {
        self.refresh();
        self.reader.cached().cloned()
    }

    /// Refresh the reader; on a republish, drop stale negatives.
    /// Returns whether this refresh observed the republish.
    fn refresh(&mut self) -> bool {
        let before = self.reader.epoch_seen();
        if self.reader.current().is_none() {
            return false;
        }
        let republished = self.reader.epoch_seen() != before;
        if republished {
            self.ladder.cache.clear();
        }
        republished
    }

    /// Answer one query: refresh the reader, then walk the ladder the
    /// query names against the reader's snapshot (borrowed, not cloned).
    /// With a trace attached, every rung probed — or skipped via the
    /// negative cache — records a span: `refang` (body refang + URL
    /// extraction, `msg` only), one per exact pivot
    /// (`url`/`domain`/`sender`/`phone`), `near`, and `model`, each with
    /// its wall_ns and candidate count; the `model` note ends in
    /// ` trained` on the call that trained the snapshot's model. Without
    /// one, the same ladder runs with zero clock reads. Before the first
    /// publish every query is `Unknown`.
    pub fn answer(&mut self, query: &Query<'_>, trace: Option<&mut TraceBuilder>) -> Answer {
        let republished = self.refresh();
        let Some(snap) = self.reader.cached() else {
            return Answer {
                verdict: TriageVerdict::Unknown,
                candidates: 0,
                republished,
            };
        };
        let (verdict, candidates) = self.ladder.walk(snap, query, trace);
        Answer {
            verdict,
            candidates,
            republished,
        }
    }

    /// Epoch of the snapshot view last answered from (0 before the first
    /// successful lookup).
    pub fn epoch_seen(&self) -> u64 {
        self.reader.epoch_seen()
    }

    /// Time since the hub's last publish (`None` before the first).
    pub fn epoch_age(&self) -> Option<Duration> {
        self.reader.epoch_age()
    }

    /// Negative-cache occupancy (entries currently remembered).
    pub fn cache_len(&self) -> usize {
        self.ladder.cache.len()
    }

    /// Negative-cache capacity (0 = disabled).
    pub fn cache_capacity(&self) -> usize {
        self.ladder.cache.capacity()
    }
}

impl Ladder {
    /// Walk the rungs `query` names; returns the verdict and the near
    /// rung's candidate-set size.
    fn walk(
        &mut self,
        snap: &IntelSnapshot,
        query: &Query<'_>,
        trace: Option<&mut TraceBuilder>,
    ) -> (TriageVerdict, usize) {
        match *query {
            Query::Url(raw) => (self.exact(snap, &url_keys(raw), trace), 0),
            Query::Sender(raw) => (self.exact(snap, &sender_keys(raw), trace), 0),
            Query::Near(text) => {
                let (near, candidates) = self.near_lookup(snap, text, trace);
                (
                    near.map_or(TriageVerdict::Unknown, TriageVerdict::Near),
                    candidates,
                )
            }
            Query::Msg { sender, text } => self.msg(snap, sender, text, trace),
        }
    }

    /// An exact-pivot walk: a hit, or `Unknown`.
    fn exact(
        &mut self,
        snap: &IntelSnapshot,
        keys: &[(MatchedKey, String)],
        trace: Option<&mut TraceBuilder>,
    ) -> TriageVerdict {
        self.infra_lookup(snap, keys, trace)
            .map_or(TriageVerdict::Unknown, TriageVerdict::Hit)
    }

    /// Probe the index ladder, consulting and feeding the negative cache.
    /// With a trace, every rung probed (or skipped via the cache) records
    /// a span named after its pivot, with the matched-entry count as the
    /// candidate figure. Timing only happens when a trace is attached, so
    /// the untraced path never reads the clock.
    fn infra_lookup(
        &mut self,
        snap: &IntelSnapshot,
        keys: &[(MatchedKey, String)],
        mut trace: Option<&mut TraceBuilder>,
    ) -> Option<Attribution> {
        let mut missed: Vec<String> = Vec::new();
        let mut hit = None;
        for (kind, key) in keys {
            let start = trace.as_ref().map(|_| Instant::now());
            let cache_key = format!("{}:{key}", kind.label());
            if self.cache.contains(&cache_key) {
                if let Some(tb) = trace.as_deref_mut() {
                    tb.rung(
                        kind.label(),
                        since(start),
                        0,
                        format!("negative-cache skip key={key}"),
                    );
                }
                continue;
            }
            let ids = match kind {
                MatchedKey::Url => snap.lookup_url_key(key),
                MatchedKey::Domain => snap.lookup_domain(key),
                MatchedKey::Sender => snap.lookup_sender_key(key),
                MatchedKey::Phone => snap.lookup_phone(key),
            };
            let n = ids.len();
            let first = ids.first().copied();
            if let Some(tb) = trace.as_deref_mut() {
                let note = match first {
                    Some(id) => format!("hit key={key} entry={id}"),
                    None => format!("miss key={key}"),
                };
                tb.rung(kind.label(), since(start), n as u64, note);
            }
            match first {
                Some(id) => {
                    hit = Some(attribution(snap, *kind, key.clone(), id));
                    break;
                }
                None => missed.push(cache_key),
            }
        }
        // Only remember negatives from a completed ladder walk; a hit
        // higher up says nothing about the keys below it.
        for m in &missed {
            self.cache.insert(m);
        }
        hit
    }

    /// Probe the similarity rung, consulting and feeding the negative
    /// cache exactly like the exact-pivot ladder does. The cache key is
    /// the query's SimHash signature plus an order-insensitive shingle
    /// fingerprint — both derived from the text alone, so the key is
    /// stable across snapshots and invalidates with the rest of the
    /// cache on republish. Returns the best match (if accepted) and the
    /// number of band-sharing candidates.
    fn near_lookup(
        &mut self,
        snap: &IntelSnapshot,
        text: &str,
        mut trace: Option<&mut TraceBuilder>,
    ) -> (Option<NearAttribution>, usize) {
        let start = trace.as_ref().map(|_| Instant::now());
        let q = snap.sim().query(text);
        if q.is_empty() {
            if let Some(tb) = trace.as_deref_mut() {
                tb.rung("near", since(start), 0, "empty query".to_string());
            }
            return (None, 0);
        }
        let cache_key = format!("near:{:016x}:{:016x}", q.sig, set_hash(&q.shingles));
        if self.cache.contains(&cache_key) {
            if let Some(tb) = trace.as_deref_mut() {
                tb.rung("near", since(start), 0, "negative-cache skip".to_string());
            }
            return (None, 0);
        }
        let r = snap.sim().nearest(&q, 1);
        if let Some(tb) = trace {
            let note = match r.matches.first() {
                Some(m) => format!(
                    "hit entry={} hamming={} jaccard={:.3} ranked={} reranked={}",
                    m.id, m.hamming, m.jaccard, r.ranked, r.reranked
                ),
                None => format!("miss ranked={} reranked={}", r.ranked, r.reranked),
            };
            tb.rung("near", since(start), r.candidates as u64, note);
        }
        match r.matches.first() {
            Some(m) => (Some(near_attribution(snap, m, r.candidates)), r.candidates),
            None => {
                self.cache.insert(&cache_key);
                (None, r.candidates)
            }
        }
    }

    /// The full ladder for a raw SMS: extract URL and sender, walk the
    /// exact pivots, probe the similarity rung, fall back to the
    /// snapshot's model (training it if this is its first use).
    fn msg(
        &mut self,
        snap: &IntelSnapshot,
        sender: Option<&str>,
        text: &str,
        mut trace: Option<&mut TraceBuilder>,
    ) -> (TriageVerdict, usize) {
        // Reports defang; refang the whole body before URL extraction so
        // `evil [dot] com` spellings still surface their host.
        let start = trace.as_ref().map(|_| Instant::now());
        let refanged = refang(text);
        let mut keys = Vec::new();
        if let Some(u) = find_url_in_text(&refanged) {
            keys.push((MatchedKey::Url, u.to_url_string()));
            if let Some(d) = domain_of(&u) {
                keys.push((MatchedKey::Domain, d));
            }
        }
        let url_extracted = keys.first().map(|(_, u)| u.clone());
        if let Some(s) = sender {
            keys.extend(sender_keys(s));
        }
        if let Some(tb) = trace.as_deref_mut() {
            let note = match &url_extracted {
                Some(url) => format!("extracted url={url}"),
                None => "no url in text".to_string(),
            };
            tb.rung("refang", since(start), keys.len() as u64, note);
        }
        if let Some(a) = self.infra_lookup(snap, &keys, trace.as_deref_mut()) {
            return (TriageVerdict::Hit(a), 0);
        }
        let (near, candidates) = self.near_lookup(snap, &refanged, trace.as_deref_mut());
        if let Some(a) = near {
            return (TriageVerdict::Near(a), candidates);
        }
        let start = trace.as_ref().map(|_| Instant::now());
        let (model, trained) = snap.model();
        let score = model.probability(&featurize(text));
        if let Some(tb) = trace {
            let note = format!("score={score:.4}{}", if trained { " trained" } else { "" });
            tb.rung("model", since(start), 0, note);
        }
        (TriageVerdict::ModelOnly { score }, candidates)
    }
}

/// Key ladder for a raw URL string (exact URL, then apex domain).
fn url_keys(raw: &str) -> Vec<(MatchedKey, String)> {
    let mut keys = Vec::new();
    if let Some(p) = parse_url(raw) {
        keys.push((MatchedKey::Url, p.to_url_string()));
        if let Some(d) = domain_of(&p) {
            keys.push((MatchedKey::Domain, d));
        }
    }
    keys
}

/// Key ladder for a raw sender string (sender ID, then phone number).
fn sender_keys(raw: &str) -> Vec<(MatchedKey, String)> {
    let mut keys = Vec::new();
    if let Some(s) = parse_sender(raw) {
        keys.push((MatchedKey::Sender, s.display_string()));
        if let Some(p) = s.phone() {
            keys.push((
                MatchedKey::Phone,
                p.e164().chars().filter(|c| c.is_ascii_digit()).collect(),
            ));
        }
    }
    keys
}

fn near_attribution(snap: &IntelSnapshot, m: &SimMatch, candidates: usize) -> NearAttribution {
    let e = snap.entry(m.id);
    NearAttribution {
        entry: m.id,
        template: e.template,
        cluster: e.cluster,
        cluster_size: snap.cluster_entries(e.cluster).len(),
        hamming: m.hamming,
        jaccard: m.jaccard,
        candidates,
        scam_type: e.scam_type,
        brand: e.brand.map(|b| snap.resolve(b).to_string()),
        n_reports: e.n_reports,
        first_seen: e.first_seen,
        last_seen: e.last_seen,
        truth_campaign: snap.cluster_campaign(e.cluster),
    }
}

fn attribution(snap: &IntelSnapshot, matched: MatchedKey, key: String, id: u32) -> Attribution {
    let e = snap.entry(id);
    Attribution {
        matched,
        key,
        entry: id,
        template: e.template,
        cluster: e.cluster,
        cluster_size: snap.cluster_entries(e.cluster).len(),
        scam_type: e.scam_type,
        brand: e.brand.map(|b| snap.resolve(b).to_string()),
        n_reports: e.n_reports,
        first_seen: e.first_seen,
        last_seen: e.last_seen,
        truth_campaign: snap.cluster_campaign(e.cluster),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::IntelHub;
    use smishing_core::pipeline::Pipeline;
    use smishing_obs::Obs;
    use smishing_worldsim::{World, WorldConfig};
    use std::sync::OnceLock;

    fn verdict(t: &mut Triage, q: Query<'_>) -> TriageVerdict {
        t.answer(&q, None).verdict
    }

    fn hub() -> &'static IntelHub {
        static H: OnceLock<IntelHub> = OnceLock::new();
        H.get_or_init(|| {
            let w = World::generate(WorldConfig::test_scale(43));
            let out = Pipeline::default().run(&w, &Obs::noop());
            let hub = IntelHub::new();
            hub.publish(IntelSnapshot::build(&out));
            hub
        })
    }

    #[test]
    fn known_url_hits_with_attribution() {
        let mut t = Triage::new(hub().reader());
        let snap = t.snapshot().unwrap();
        let e = snap
            .entries()
            .iter()
            .find(|e| e.url.is_some())
            .expect("url entry");
        let url = snap.resolve(e.url.unwrap()).to_string();
        let v = verdict(&mut t, Query::Url(&url));
        let a = v.attribution().expect("hit");
        assert_eq!(a.matched, MatchedKey::Url);
        assert_eq!(v.score(), 1.0);
        assert!(a.cluster_size >= 1);
    }

    #[test]
    fn defanged_spelling_gets_identical_verdict() {
        let mut t = Triage::new(hub().reader());
        let snap = t.snapshot().unwrap();
        let e = snap
            .entries()
            .iter()
            .find(|e| e.url.is_some())
            .expect("url entry");
        let clean = snap.resolve(e.url.unwrap()).to_string();
        let defanged = clean
            .replacen("https://", "hxxps://", 1)
            .replace('.', "[dot]");
        let (a, b) = (
            verdict(&mut t, Query::Url(&clean)),
            verdict(&mut t, Query::Url(&defanged)),
        );
        let (a, b) = (a.attribution().unwrap(), b.attribution().unwrap());
        assert_eq!(a.entry, b.entry);
        assert_eq!(a.key, b.key);
        assert_eq!(a.cluster, b.cluster);
    }

    #[test]
    fn misses_are_cached_and_model_scores_text() {
        let mut t = Triage::new(hub().reader());
        let v = verdict(
            &mut t,
            Query::Msg {
                sender: Some("+15550000001"),
                text: "hello, are we still on for lunch tomorrow?",
            },
        );
        assert!(
            matches!(v, TriageVerdict::ModelOnly { .. }),
            "benign text should fall through to the model: {v:?}"
        );
        assert!(v.score() < 0.5, "score {}", v.score());
        assert!(t.cache_len() > 0, "negative lookups should be cached");

        let smishy = verdict(
            &mut t,
            Query::Msg {
                sender: None,
                text: "URGENT: your bank account is suspended, verify now at http://totally-new.example/login to avoid closure",
            },
        );
        assert!(smishy.score() > v.score());
    }

    #[test]
    fn republish_clears_negative_cache() {
        let w = World::generate(WorldConfig::test_scale(47));
        let out = Pipeline::default().run(&w, &Obs::noop());
        let hub = IntelHub::new();
        hub.publish(IntelSnapshot::build(&out));
        let mut t = Triage::new(hub.reader());
        assert!(matches!(
            verdict(&mut t, Query::Url("https://never-reported.example/x")),
            TriageVerdict::Unknown
        ));
        assert!(t.cache_len() > 0);
        hub.publish(IntelSnapshot::build(&out));
        let _ = verdict(&mut t, Query::Url("https://also-never-reported.example/y"));
        // The republish invalidated the old negatives; only the new
        // query's misses remain.
        assert!(t.cache_len() <= 2);
    }

    #[test]
    fn eviction_republish_turns_hit_into_miss() {
        use crate::snapshot::BuildOptions;
        let w = World::generate(WorldConfig::test_scale(59));
        let out = Pipeline::default().run(&w, &Obs::noop());
        let full = IntelSnapshot::build(&out);

        // Age out the older three quarters of the store: window = time
        // between the newest report and the 75th-percentile entry.
        let mut lasts: Vec<i64> = full.entries().iter().map(|e| e.last_seen.0).collect();
        lasts.sort_unstable();
        let cutoff = lasts[lasts.len() * 3 / 4];
        let horizon = full.horizon().0;
        assert!(cutoff < horizon, "need age spread to exercise eviction");
        let windowed = IntelSnapshot::build_full(
            &out,
            BuildOptions {
                window_secs: Some((horizon - cutoff) as u64),
            },
        );
        assert!(windowed.evicted_count() > 0, "window must evict something");
        assert!(!windowed.is_empty(), "window must retain something");

        // A URL the full store serves but whose every ladder rung (exact
        // URL, apex domain) is gone from the windowed store.
        let url = full
            .entries()
            .iter()
            .filter_map(|e| e.url.map(|s| full.resolve(s).to_string()))
            .find(|u| {
                url_keys(u).iter().all(|(kind, key)| match kind {
                    MatchedKey::Url => windowed.lookup_url_key(key).is_empty(),
                    _ => windowed.lookup_domain(key).is_empty(),
                })
            })
            .expect("an evicted URL with no surviving ladder rung");

        let hub = IntelHub::new();
        hub.publish(full);
        let mut t = Triage::new(hub.reader());
        assert!(
            verdict(&mut t, Query::Url(&url)).attribution().is_some(),
            "key must hit before eviction"
        );

        // Republish with the aging window: the key must transition to a
        // genuine miss — not a stale hit, and not a stale cached verdict.
        hub.publish(windowed);
        assert!(
            matches!(verdict(&mut t, Query::Url(&url)), TriageVerdict::Unknown),
            "evicted key must miss after the windowed republish"
        );
        // The repeat is served from the refreshed negative cache and
        // stays a miss.
        assert!(matches!(
            verdict(&mut t, Query::Url(&url)),
            TriageVerdict::Unknown
        ));
    }

    #[test]
    fn rotated_indicators_fall_through_to_the_near_rung() {
        let mut t = Triage::new(hub().reader());
        let snap = t.snapshot().unwrap();
        let e = snap
            .entries()
            .iter()
            .find(|e| e.text.contains("http"))
            .expect("an entry with a URL in its text");
        // Rotate every exact indicator: fresh URL, no sender.
        let rotated: String = e
            .text
            .split_whitespace()
            .map(|tok| {
                if tok.contains("http") {
                    "https://rotated-fresh.example/xk9"
                } else {
                    tok
                }
            })
            .collect::<Vec<_>>()
            .join(" ");
        let v = verdict(
            &mut t,
            Query::Msg {
                sender: None,
                text: &rotated,
            },
        );
        let a = v.near().expect("near rung should catch the rotation");
        assert_eq!(a.hamming, 0, "URL rotation must not perturb shingles");
        assert!(v.is_smishing(SMISHING_THRESHOLD));
        assert!(v.score() > 0.5 && v.score() <= 1.0);
        assert_eq!(a.template, snap.entry(a.entry).template);
    }

    #[test]
    fn republish_flips_cached_near_miss_to_hit() {
        // Prefix store: only the first quarter of the report stream has
        // been seen, so campaigns first reported later are absent.
        let w = World::generate(WorldConfig::test_scale(53));
        let full_out = Pipeline::default().run(&w, &Obs::noop());
        let full = IntelSnapshot::build(&full_out);
        let mut pw = World::generate(WorldConfig::test_scale(53));
        pw.posts.truncate((pw.posts.len() / 4).max(1));
        let prefix_out = Pipeline::default().run(&pw, &Obs::noop());
        let prefix = IntelSnapshot::build(&prefix_out);

        let text = full
            .entries()
            .iter()
            .map(|e| e.text.clone())
            .find(|t| prefix.near(t, 1).matches.is_empty())
            .expect("a campaign text the prefix store cannot near-match");

        let hub = IntelHub::new();
        hub.publish(prefix);
        let mut t = Triage::new(hub.reader());
        assert!(matches!(
            verdict(&mut t, Query::Near(&text)),
            TriageVerdict::Unknown
        ));
        let cached = t.cache_len();
        assert!(cached > 0, "similarity misses must be cached");
        // The repeat consults the cache instead of re-missing into it.
        assert!(matches!(
            verdict(&mut t, Query::Near(&text)),
            TriageVerdict::Unknown
        ));
        assert_eq!(t.cache_len(), cached);

        // Republish with the newly similar campaign reported: the cached
        // miss must be invalidated, not served.
        hub.publish(full);
        let v = verdict(&mut t, Query::Near(&text));
        let a = v.near().expect("republish must flip the cached near miss");
        assert_eq!(a.hamming, 0);
        assert!((a.jaccard - 1.0).abs() < 1e-12);
    }

    #[test]
    fn answer_flags_a_republish_on_the_next_call_only() {
        let hub = IntelHub::new();
        let mut t = Triage::new(hub.reader());
        // Nothing published: every query kind degrades to `Unknown`.
        let queries = [
            Query::Url("https://x.example/a"),
            Query::Sender("shortcode 999999"),
            Query::Near("anything at all"),
            Query::Msg {
                sender: Some("+15550000001"),
                text: "anything at all",
            },
        ];
        for q in &queries {
            let a = t.answer(q, None);
            assert!(matches!(a.verdict, TriageVerdict::Unknown), "{q:?}");
            assert!(!a.republished, "{q:?}");
            assert_eq!(a.candidates, 0, "{q:?}");
        }

        let w = World::generate(WorldConfig::test_scale(61));
        let out = Pipeline::default().run(&w, &Obs::noop());
        hub.publish(IntelSnapshot::build(&out));
        let snap = hub.latest().unwrap();
        let e = snap
            .entries()
            .iter()
            .find(|e| e.url.is_some())
            .expect("url entry");
        let url = snap.resolve(e.url.unwrap()).to_string();

        // The first answer after a publish carries the flip; the next
        // one answers from the same epoch and does not.
        let first = t.answer(&Query::Url(&url), None);
        assert!(matches!(first.verdict, TriageVerdict::Hit(_)));
        assert!(first.republished);
        let near = t.answer(&Query::Near(&e.text), None);
        assert!(matches!(near.verdict, TriageVerdict::Near(_)));
        assert!(!near.republished);
        assert!(near.candidates >= 1, "near answer carries candidates");

        hub.publish(IntelSnapshot::build(&out));
        let flips: Vec<bool> = queries
            .iter()
            .map(|q| t.answer(q, None).republished)
            .collect();
        assert_eq!(flips, [true, false, false, false]);
    }

    #[test]
    fn traced_triage_names_every_rung_traversed() {
        use smishing_obs::{Tracer, TracerConfig};
        let mut t = Triage::new(hub().reader());
        let mut tracer = Tracer::new(TracerConfig::default());

        // A miss walks the whole ladder: refang, sender pivots, near, model.
        let mut tb = tracer.begin_forced("msg");
        let lunch = Query::Msg {
            sender: Some("+15550000001"),
            text: "hello, are we still on for lunch tomorrow?",
        };
        let v = t.answer(&lunch, Some(&mut tb)).verdict;
        assert!(matches!(v, TriageVerdict::ModelOnly { .. }), "{v:?}");
        let trace = tb.finish("model");
        let rungs: Vec<&str> = trace.spans.iter().map(|s| s.rung).collect();
        assert_eq!(rungs, ["refang", "sender", "phone", "near", "model"]);
        assert!(trace.spans.iter().skip(1).all(|s| s.wall_ns > 0));
        assert!(trace.spans[3].note.starts_with("miss"), "{trace:?}");
        assert!(trace.spans[4].note.starts_with("score="), "{trace:?}");

        // An exact-URL hit stops the ladder at its first rung.
        let snap = t.snapshot().unwrap();
        let e = snap
            .entries()
            .iter()
            .find(|e| e.url.is_some())
            .expect("url entry");
        let url = snap.resolve(e.url.unwrap()).to_string();
        let mut tb = tracer.begin_forced("url");
        let v = t.answer(&Query::Url(&url), Some(&mut tb)).verdict;
        assert!(v.attribution().is_some());
        let trace = tb.finish("hit");
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].rung, "url");
        assert!(trace.spans[0].note.starts_with("hit key="), "{trace:?}");
        assert!(trace.spans[0].candidates >= 1);

        // A repeat of the original miss shows the negative cache at work.
        let mut tb = tracer.begin_forced("msg");
        let _ = t.answer(&lunch, Some(&mut tb));
        let trace = tb.finish("model");
        assert!(
            trace
                .spans
                .iter()
                .any(|s| s.note.starts_with("negative-cache skip")),
            "{trace:?}"
        );
        assert!(t.cache_len() > 0);
        assert_eq!(t.cache_capacity(), TriageConfig::default().cache_capacity);
    }
}
