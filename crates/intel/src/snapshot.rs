//! The immutable, interned, hash-indexed intelligence store.
//!
//! [`IntelSnapshot::build`] digests a [`PipelineOutput`] — the assembled,
//! canonical output of the one execution core — into one entry per unique
//! record, with secondary indexes over every pivot an abuse desk queries
//! by: normalized URL, apex domain (registrable domain or free-hosting
//! site), sender ID, phone number, impersonated brand, and campaign-link
//! cluster. Each entry carries its evidence: which forums reported it,
//! how often, first/last seen, scam type and lures, HLR line status, and
//! AV/GSB verdicts. The report evidence (forums, count, first/last seen)
//! is the dedup group's, read off the record: the execution core's shard
//! table is the only place duplicates are grouped, so the store cannot
//! group them differently from the pipeline.
//!
//! The snapshot is immutable after build (the read path is lock-free by
//! construction) and owns every byte — no borrow of the world or the
//! pipeline output survives — so an `Arc<IntelSnapshot>` can be handed to
//! any thread and republished mid-stream through the
//! [`IntelHub`](crate::IntelHub).
//!
//! Key derivation lives in one place ([`record_keys`]) so the index
//! builder, the query normalizer, and the linear-scan reference the
//! proptests compare against can never drift apart.

use crate::intern::{Interner, Sym};
use smishing_core::analysis::linking::{pivot_keys, LinkingPivots, WEAK_KEY_CAP};
use smishing_core::curation::CuratedMessage;
use smishing_core::enrich::EnrichedRecord;
use smishing_core::pipeline::PipelineOutput;
use smishing_simindex::{DocInput, NearResult, SimIndex};
use smishing_stats::unionfind::UnionFind;
use smishing_telecom::NumberStatus;
use smishing_textnlp::normalize::normalize_token;
use smishing_types::{Forum, Language, LureSet, PostId, ScamType, SenderId, UnixTime};
use smishing_webinfra::{
    fold_host, free_hosting_site, parse_url, registrable_domain, ParsedUrl, ShortenerCatalog,
};
use std::collections::HashMap;

/// The index keys of one enriched record, exactly as the snapshot builder
/// derives them. Shared by [`IntelSnapshot::build`], the query
/// normalizers, and the tests' linear-scan reference.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordKeys {
    /// Canonical URL string (`ParsedUrl::to_url_string`).
    pub url: Option<String>,
    /// Apex domain: registrable domain or free-hosting site of a direct
    /// URL; `None` for shortened / click-to-chat links (destination
    /// hidden, §3.3.5).
    pub domain: Option<String>,
    /// Sender ID as displayed (`SenderId::display_string`).
    pub sender: Option<String>,
    /// Digits-only E.164 for phone senders.
    pub phone: Option<String>,
    /// Normalized impersonated-brand token.
    pub brand: Option<String>,
}

/// Apex-domain rule for a parsed URL — the same decision
/// `UrlParseEnricher` makes at enrichment time, applied to raw queries.
pub fn domain_of(parsed: &ParsedUrl) -> Option<String> {
    let catalog = ShortenerCatalog::new();
    if catalog.service_of(parsed).is_some() || catalog.is_whatsapp_link(parsed) {
        return None;
    }
    free_hosting_site(&parsed.host).or_else(|| registrable_domain(&parsed.host))
}

/// Digits-only key for a phone sender.
fn phone_key(sender: &SenderId) -> Option<String> {
    sender
        .phone()
        .map(|p| p.e164().chars().filter(|c| c.is_ascii_digit()).collect())
}

/// Derive the index keys of one enriched record.
pub fn record_keys(r: &EnrichedRecord) -> RecordKeys {
    RecordKeys {
        url: r.url.as_ref().map(|u| u.parsed.to_url_string()),
        domain: r.url.as_ref().and_then(|u| u.domain.clone()),
        sender: r.sender.as_ref().map(|s| s.display_string()),
        phone: r.sender.as_ref().and_then(phone_key),
        brand: r
            .annotation
            .brand
            .as_deref()
            .map(normalize_token)
            .filter(|b| !b.is_empty()),
    }
}

/// How to build a snapshot: an optional aging window for eviction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildOptions {
    /// Aging window in seconds: entries whose dedup group was last
    /// reported more than this long before the newest report anywhere in
    /// the stream are evicted at build time. `None` keeps everything.
    pub window_secs: Option<u64>,
}

/// The curated messages that arrived since the previous epoch's snapshot
/// was built. [`IntelSnapshot::build_incremental`] reuses the previous
/// epoch only when the delta lines up with what that epoch digested.
/// Produced by the exec engine (`StreamSnapshot::curated_delta` /
/// `IngestResult::curated_delta`); sorted by post id, and the deltas of
/// consecutive snapshots partition `curated_total`.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotDelta<'a> {
    /// New curated messages, duplicates included.
    pub curated: &'a [CuratedMessage],
}

impl<'a> SnapshotDelta<'a> {
    /// Wrap an engine-produced delta slice.
    pub fn new(curated: &'a [CuratedMessage]) -> Self {
        SnapshotDelta { curated }
    }
}

/// Oldest last-seen a dedup group may have and still be retained. A
/// window too wide for the clock evicts nothing.
fn cutoff_of(horizon: UnixTime, window_secs: Option<u64>) -> Option<UnixTime> {
    let w = i64::try_from(window_secs?).ok()?;
    Some(UnixTime(horizon.0.saturating_sub(w)))
}

/// Newest report time of the output — the last-seen of its newest group.
fn horizon_of(out: &PipelineOutput<'_>) -> UnixTime {
    out.records
        .iter()
        .map(|r| r.evidence.last_seen)
        .max()
        .unwrap_or(UnixTime(i64::MIN))
}

/// Where one retained record's entry comes from during a build.
enum EntrySource {
    /// Compute keys, evidence, and SimHash signature from scratch.
    Fresh,
    /// Same winner as the previous epoch: reuse its key strings, enriched
    /// annotations, and SimHash signature/shingles. The report evidence is
    /// read off the record, since the group may have grown.
    Reuse { prev_id: u32 },
}

/// One unique record's worth of intelligence, fully owned.
#[derive(Debug, Clone, PartialEq)]
pub struct IntelEntry {
    /// Post id of the dedup winner (ties entries back to the pipeline
    /// output for the equivalence tests).
    pub post_id: PostId,
    /// Message text of the winner (model training corpus).
    pub text: String,
    /// Canonical URL key.
    pub url: Option<Sym>,
    /// Apex-domain key.
    pub domain: Option<Sym>,
    /// Sender-ID key.
    pub sender: Option<Sym>,
    /// Phone key (digits-only E.164).
    pub phone: Option<Sym>,
    /// Normalized brand key.
    pub brand: Option<Sym>,
    /// Campaign-link cluster id ([`IntelSnapshot::cluster_entries`]).
    pub cluster: u32,
    /// Campaign-template id from the similarity index's
    /// connected-components pass (paper RQ2 lure templates) — entries
    /// whose texts are near-duplicates share a template even when every
    /// exact indicator differs.
    pub template: u32,
    /// Bitmask over [`Forum::ALL`] of forums that reported this message.
    pub forums: u8,
    /// Total reports (duplicates included) behind this entry.
    pub n_reports: u32,
    /// Earliest report time.
    pub first_seen: UnixTime,
    /// Latest report time.
    pub last_seen: UnixTime,
    /// Annotated scam category.
    pub scam_type: ScamType,
    /// Annotated lure set.
    pub lures: LureSet,
    /// Detected language.
    pub language: Option<Language>,
    /// HLR line status for phone senders.
    pub hlr_status: Option<NumberStatus>,
    /// Whether any VirusTotal vendor flagged the URL.
    pub av_flagged: bool,
    /// GSB Lookup-API verdict for the URL.
    pub gsb_unsafe: bool,
    /// Whether enrichment was degraded by service faults.
    pub degraded: bool,
    /// Ground-truth campaign id — populated for evaluation, never used on
    /// the query path.
    pub truth_campaign: Option<u32>,
}

impl IntelEntry {
    /// Decode the forum bitmask.
    pub fn forums(&self) -> Vec<Forum> {
        Forum::ALL
            .iter()
            .copied()
            .filter(|&f| self.forums & f.bit() != 0)
            .collect()
    }
}

/// Distinct-key counts of each pivot index, as reported by the serve
/// `health` verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexSizes {
    /// Distinct canonical URLs.
    pub urls: usize,
    /// Distinct apex domains.
    pub domains: usize,
    /// Distinct sender keys.
    pub senders: usize,
    /// Distinct phone keys.
    pub phones: usize,
    /// Distinct brand keys.
    pub brands: usize,
}

/// The immutable, indexed intelligence store.
#[derive(Debug, Clone, PartialEq)]
pub struct IntelSnapshot {
    interner: Interner,
    entries: Vec<IntelEntry>,
    by_url: HashMap<Sym, Vec<u32>>,
    by_domain: HashMap<Sym, Vec<u32>>,
    by_sender: HashMap<Sym, Vec<u32>>,
    by_phone: HashMap<Sym, Vec<u32>>,
    by_brand: HashMap<Sym, Vec<u32>>,
    clusters: Vec<Vec<u32>>,
    cluster_campaign: Vec<Option<u32>>,
    sim: SimIndex,
    built_from_posts: u64,
    /// Curated messages (duplicates included) digested so far — the
    /// incremental guard: a delta only applies if `curated_seen + delta`
    /// equals the new total.
    curated_seen: u64,
    /// Newest report time seen anywhere in the stream — the aging clock
    /// that eviction windows measure against. Monotone across epochs.
    horizon: UnixTime,
    /// The options this snapshot was built with; an incremental build
    /// must use the same ones or it falls back to a full build.
    opts: BuildOptions,
    /// Records dropped by the aging window at this build.
    evicted: usize,
}

impl Default for IntelSnapshot {
    fn default() -> Self {
        IntelSnapshot {
            interner: Interner::default(),
            entries: Vec::new(),
            by_url: HashMap::new(),
            by_domain: HashMap::new(),
            by_sender: HashMap::new(),
            by_phone: HashMap::new(),
            by_brand: HashMap::new(),
            clusters: Vec::new(),
            cluster_campaign: Vec::new(),
            sim: SimIndex::default(),
            built_from_posts: 0,
            curated_seen: 0,
            horizon: UnixTime(i64::MIN),
            opts: BuildOptions::default(),
            evicted: 0,
        }
    }
}

const NO_ENTRIES: &[u32] = &[];

impl IntelSnapshot {
    /// Build the store from assembled pipeline output, keeping every
    /// entry.
    pub fn build(out: &PipelineOutput<'_>) -> IntelSnapshot {
        IntelSnapshot::build_full(out, BuildOptions::default())
    }

    /// Build from scratch: digest every record. This is the reference the
    /// incremental path is pinned against — for any prefix of the stream,
    /// `build_incremental` chained over the snapshot deltas must produce
    /// exactly this snapshot.
    pub fn build_full(out: &PipelineOutput<'_>, opts: BuildOptions) -> IntelSnapshot {
        // Retention: a record survives iff its dedup group was reported
        // within the window of the newest report anywhere.
        let horizon = horizon_of(out);
        let cutoff = cutoff_of(horizon, opts.window_secs);
        let plan: Vec<(usize, EntrySource)> = out
            .records
            .iter()
            .enumerate()
            .filter(|(_, r)| cutoff.is_none_or(|c| r.evidence.last_seen >= c))
            .map(|(i, _)| (i, EntrySource::Fresh))
            .collect();
        Self::assemble_snapshot(out, horizon, opts, None, plan)
    }

    /// Build the next epoch from the previous one plus the delta of
    /// curated messages that arrived since: entries whose winner is
    /// unchanged reuse their key strings, annotations, and SimHash
    /// signatures from `prev` instead of re-deriving them, and take their
    /// report evidence from the record.
    ///
    /// Falls back to [`IntelSnapshot::build_full`] when there is no
    /// previous snapshot, the options changed, or the delta does not line
    /// up with what `prev` had digested (`prev.curated_seen + delta` must
    /// equal the new curated total).
    pub fn build_incremental(
        out: &PipelineOutput<'_>,
        prev: Option<&IntelSnapshot>,
        delta: SnapshotDelta<'_>,
        opts: BuildOptions,
    ) -> IntelSnapshot {
        let Some(prev) = prev else {
            return Self::build_full(out, opts);
        };
        if prev.opts != opts
            || prev.curated_seen + delta.curated.len() as u64 != out.curated_total.len() as u64
        {
            return Self::build_full(out, opts);
        }

        // Walk the retained records against the previous entries (both in
        // canonical post-id order): a record whose post id already had an
        // entry is the same winner, so its entry is reused.
        let horizon = horizon_of(out);
        let cutoff = cutoff_of(horizon, opts.window_secs);
        let mut plan: Vec<(usize, EntrySource)> = Vec::with_capacity(out.records.len());
        let mut pi = 0usize;
        for (j, r) in out.records.iter().enumerate() {
            if cutoff.is_some_and(|c| r.evidence.last_seen < c) {
                continue;
            }
            let pid = r.curated.post_id;
            while pi < prev.entries.len() && prev.entries[pi].post_id < pid {
                pi += 1;
            }
            let matched = pi < prev.entries.len() && prev.entries[pi].post_id == pid;
            plan.push((
                j,
                if matched {
                    EntrySource::Reuse { prev_id: pi as u32 }
                } else {
                    EntrySource::Fresh
                },
            ));
        }

        Self::assemble_snapshot(out, horizon, opts, Some(prev), plan)
    }

    /// Shared back half of both build paths: campaign linking, entry and
    /// index construction, and the similarity tier, over the retained
    /// records in `plan` (canonical post-id order).
    ///
    /// Reused entries re-intern their key strings so the interner is a
    /// pure function of the retained set — a reused symbol table would
    /// leak evicted strings and break incremental ≡ from-scratch.
    fn assemble_snapshot(
        out: &PipelineOutput<'_>,
        horizon: UnixTime,
        opts: BuildOptions,
        prev: Option<&IntelSnapshot>,
        plan: Vec<(usize, EntrySource)>,
    ) -> IntelSnapshot {
        // Campaign-link clusters over the retained records, with the same
        // pivots and anti-hub rule the §5.1 ablation measures. Recomputed
        // every epoch: the weak-key cap is non-monotone (a pivot can cross
        // it as reports accumulate), so a carried union-find would diverge
        // from the from-scratch reference.
        let n = plan.len();
        let mut uf = UnionFind::new(n);
        let mut key_freq: HashMap<String, u32> = HashMap::new();
        for &(ri, _) in &plan {
            for (key, strong) in pivot_keys(&out.records[ri], LinkingPivots::ALL) {
                if !strong {
                    *key_freq.entry(key).or_default() += 1;
                }
            }
        }
        let mut by_key: HashMap<String, usize> = HashMap::new();
        for (i, &(ri, _)) in plan.iter().enumerate() {
            for (key, strong) in pivot_keys(&out.records[ri], LinkingPivots::ALL) {
                if !strong && key_freq.get(&key).copied().unwrap_or(0) > WEAK_KEY_CAP {
                    continue;
                }
                match by_key.get(&key) {
                    Some(&j) => {
                        uf.union(i, j);
                    }
                    None => {
                        by_key.insert(key, i);
                    }
                }
            }
        }
        let roots = uf.clusters();
        // Compact root ids to dense cluster ids in first-appearance order
        // (records are in canonical post-id order, so this is stable).
        let mut dense: HashMap<usize, u32> = HashMap::new();
        let cluster_of: Vec<u32> = roots
            .iter()
            .map(|&root| {
                let next = dense.len() as u32;
                *dense.entry(root).or_insert(next)
            })
            .collect();
        let n_clusters = dense.len();

        let mut snap = IntelSnapshot {
            clusters: vec![Vec::new(); n_clusters],
            cluster_campaign: vec![None; n_clusters],
            built_from_posts: out.collection.iter().map(|(_, s)| s.posts as u64).sum(),
            curated_seen: out.curated_total.len() as u64,
            horizon,
            opts,
            evicted: out.records.len() - plan.len(),
            ..IntelSnapshot::default()
        };
        let mut cluster_votes: Vec<HashMap<u32, u32>> = vec![HashMap::new(); n_clusters];
        let mut docs: Vec<DocInput<'_>> = Vec::with_capacity(n);

        for (i, &(ri, ref src)) in plan.iter().enumerate() {
            let r = &out.records[ri];
            let id = snap.entries.len() as u32;
            let mut sym_into = |key: Option<&str>,
                                index: fn(&mut IntelSnapshot) -> &mut HashMap<Sym, Vec<u32>>|
             -> Option<Sym> {
                let key = key?;
                let sym = snap.interner.intern(key);
                index(&mut snap).entry(sym).or_default().push(id);
                Some(sym)
            };

            let entry = match *src {
                EntrySource::Fresh => {
                    let keys = record_keys(r);
                    let url = sym_into(keys.url.as_deref(), |s| &mut s.by_url);
                    let domain = sym_into(keys.domain.as_deref(), |s| &mut s.by_domain);
                    let sender = sym_into(keys.sender.as_deref(), |s| &mut s.by_sender);
                    let phone = sym_into(keys.phone.as_deref(), |s| &mut s.by_phone);
                    let brand = sym_into(keys.brand.as_deref(), |s| &mut s.by_brand);
                    docs.push(DocInput::Text(r.curated.text.as_str()));
                    IntelEntry {
                        post_id: r.curated.post_id,
                        text: r.curated.text.clone(),
                        url,
                        domain,
                        sender,
                        phone,
                        brand,
                        cluster: 0,  // assigned below
                        template: 0, // assigned after the similarity index builds
                        forums: r.evidence.forums,
                        n_reports: r.evidence.reports,
                        first_seen: r.evidence.first_seen,
                        last_seen: r.evidence.last_seen,
                        scam_type: r.annotation.scam_type,
                        lures: r.annotation.lures,
                        language: r.annotation.language,
                        hlr_status: r.hlr.as_ref().map(|h| h.status),
                        av_flagged: r.url.as_ref().is_some_and(|u| !u.vt.is_clean()),
                        gsb_unsafe: r.url.as_ref().is_some_and(|u| u.gsb_api_unsafe),
                        degraded: r.is_degraded(),
                        truth_campaign: r
                            .curated
                            .truth_message
                            .map(|mid| out.world.messages[mid.0 as usize].campaign.0),
                    }
                }
                EntrySource::Reuse { prev_id } => {
                    let prev = prev.expect("reuse plan requires a previous snapshot");
                    let pe = &prev.entries[prev_id as usize];
                    let url = sym_into(pe.url.map(|s| prev.resolve(s)), |s| &mut s.by_url);
                    let domain = sym_into(pe.domain.map(|s| prev.resolve(s)), |s| &mut s.by_domain);
                    let sender = sym_into(pe.sender.map(|s| prev.resolve(s)), |s| &mut s.by_sender);
                    let phone = sym_into(pe.phone.map(|s| prev.resolve(s)), |s| &mut s.by_phone);
                    let brand = sym_into(pe.brand.map(|s| prev.resolve(s)), |s| &mut s.by_brand);
                    docs.push(DocInput::Reuse(prev_id));
                    IntelEntry {
                        url,
                        domain,
                        sender,
                        phone,
                        brand,
                        cluster: 0,
                        template: 0,
                        forums: r.evidence.forums,
                        n_reports: r.evidence.reports,
                        first_seen: r.evidence.first_seen,
                        last_seen: r.evidence.last_seen,
                        ..pe.clone()
                    }
                }
            };

            let cluster = cluster_of[i];
            snap.clusters[cluster as usize].push(id);
            if let Some(c) = entry.truth_campaign {
                *cluster_votes[cluster as usize].entry(c).or_default() += 1;
            }
            snap.entries.push(IntelEntry { cluster, ..entry });
        }

        // Majority ground-truth campaign per cluster (ties broken by the
        // smaller campaign id for determinism) — evaluation only.
        for (cluster, votes) in cluster_votes.into_iter().enumerate() {
            snap.cluster_campaign[cluster] = votes
                .into_iter()
                .max_by_key(|&(c, n)| (n, std::cmp::Reverse(c)))
                .map(|(c, _)| c);
        }

        // Similarity tier: one SimHash doc per entry, in entry order, so
        // doc ids ARE entry ids. Built here so every published epoch
        // carries its index — the read path never builds anything. On the
        // incremental path, reused docs skip shingling + signature work
        // entirely, and template components update incrementally when no
        // doc was evicted.
        snap.sim = match prev {
            Some(p) => SimIndex::rebuild(p.sim(), docs),
            None => SimIndex::build(snap.entries.iter().map(|e| e.text.as_str())),
        };
        for (id, e) in snap.entries.iter_mut().enumerate() {
            e.template = snap.sim.template_of(id as u32);
        }
        snap
    }

    /// Number of entries (== unique records of the source run).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries, in canonical post-id order.
    pub fn entries(&self) -> &[IntelEntry] {
        &self.entries
    }

    /// One entry by id.
    pub fn entry(&self, id: u32) -> &IntelEntry {
        &self.entries[id as usize]
    }

    /// The string behind an interned key.
    pub fn resolve(&self, sym: Sym) -> &str {
        self.interner.resolve(sym)
    }

    /// Posts the source run had consumed when this snapshot was built.
    pub fn built_from_posts(&self) -> u64 {
        self.built_from_posts
    }

    /// Curated messages (duplicates included) digested so far — what the
    /// next epoch's delta must line up against.
    pub fn curated_seen(&self) -> u64 {
        self.curated_seen
    }

    /// The options this snapshot was built with.
    pub fn build_options(&self) -> BuildOptions {
        self.opts
    }

    /// The aging window, if any.
    pub fn window_secs(&self) -> Option<u64> {
        self.opts.window_secs
    }

    /// Newest report time seen anywhere in the stream — the clock the
    /// aging window measures against.
    pub fn horizon(&self) -> UnixTime {
        self.horizon
    }

    /// Records dropped by the aging window at this build. Retained count
    /// is [`IntelSnapshot::len`].
    pub fn evicted_count(&self) -> usize {
        self.evicted
    }

    /// Number of campaign-link clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Entry ids of one cluster.
    pub fn cluster_entries(&self, cluster: u32) -> &[u32] {
        self.clusters
            .get(cluster as usize)
            .map_or(NO_ENTRIES, |v| v)
    }

    /// Majority ground-truth campaign of a cluster (evaluation only).
    pub fn cluster_campaign(&self, cluster: u32) -> Option<u32> {
        self.cluster_campaign.get(cluster as usize).copied()?
    }

    fn lookup<'a>(&self, index: &'a HashMap<Sym, Vec<u32>>, key: &str) -> &'a [u32] {
        self.interner
            .get(key)
            .and_then(|sym| index.get(&sym))
            .map_or(NO_ENTRIES, |v| v)
    }

    /// Entries for an exact canonical URL key (already normalized).
    pub fn lookup_url_key(&self, key: &str) -> &[u32] {
        self.lookup(&self.by_url, key)
    }

    /// Entries for a raw URL query: defanged, scheme-less, and
    /// mixed-script spellings normalize through the same `webinfra`
    /// parser the pipeline uses.
    pub fn lookup_url(&self, raw: &str) -> &[u32] {
        match parse_url(raw) {
            Some(p) => self.lookup_url_key(&p.to_url_string()),
            None => NO_ENTRIES,
        }
    }

    /// Entries for an apex-domain query (homoglyphs folded).
    pub fn lookup_domain(&self, raw: &str) -> &[u32] {
        self.lookup(&self.by_domain, &fold_host(raw.trim()))
    }

    /// Entries for an exact sender-key query.
    pub fn lookup_sender_key(&self, key: &str) -> &[u32] {
        self.lookup(&self.by_sender, key)
    }

    /// Entries for a raw sender query, parsed like the pipeline parses
    /// sender strings (E.164 canonicalization for phone numbers).
    pub fn lookup_sender(&self, raw: &str) -> &[u32] {
        match smishing_core::enrich::parse_sender(raw) {
            Some(s) => {
                let hit = self.lookup_sender_key(&s.display_string());
                if hit.is_empty() {
                    phone_key(&s).map_or(NO_ENTRIES, |p| self.lookup(&self.by_phone, &p))
                } else {
                    hit
                }
            }
            None => NO_ENTRIES,
        }
    }

    /// Entries for a digits-only phone query.
    pub fn lookup_phone(&self, raw: &str) -> &[u32] {
        let digits: String = raw.chars().filter(|c| c.is_ascii_digit()).collect();
        self.lookup(&self.by_phone, &digits)
    }

    /// Entries for a brand query (normalized like brand NER input).
    pub fn lookup_brand(&self, raw: &str) -> &[u32] {
        self.lookup(&self.by_brand, &normalize_token(raw))
    }

    /// Entry texts — the triage model's training corpus.
    pub fn texts(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.text.as_str())
    }

    /// The similarity index over entry texts (doc ids == entry ids).
    pub fn sim(&self) -> &SimIndex {
        &self.sim
    }

    /// Number of distinct campaign templates (similarity components).
    pub fn template_count(&self) -> usize {
        self.sim.template_count() as usize
    }

    /// Distinct-key counts of every pivot index — what the serve `health`
    /// verb reports so an operator can see the store's shape at a glance.
    pub fn index_sizes(&self) -> IndexSizes {
        IndexSizes {
            urls: self.by_url.len(),
            domains: self.by_domain.len(),
            senders: self.by_sender.len(),
            phones: self.by_phone.len(),
            brands: self.by_brand.len(),
        }
    }

    /// Near-duplicate entries of a raw message text: SimHash candidates
    /// sharing a band, ranked by Hamming distance, re-ranked by exact
    /// n-gram Jaccard. Match ids are entry ids.
    pub fn near(&self, text: &str, k: usize) -> NearResult {
        self.sim.nearest(&self.sim.query(text), k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smishing_core::pipeline::Pipeline;
    use smishing_obs::Obs;
    use smishing_worldsim::{World, WorldConfig};
    use std::sync::OnceLock;

    fn world() -> &'static World {
        static W: OnceLock<World> = OnceLock::new();
        W.get_or_init(|| World::generate(WorldConfig::test_scale(41)))
    }

    fn snap() -> &'static IntelSnapshot {
        static S: OnceLock<IntelSnapshot> = OnceLock::new();
        S.get_or_init(|| {
            let out = Pipeline::default().run(world(), &Obs::noop());
            IntelSnapshot::build(&out)
        })
    }

    #[test]
    fn every_record_becomes_one_entry() {
        let out = Pipeline::default().run(world(), &Obs::noop());
        let s = IntelSnapshot::build(&out);
        assert_eq!(s.len(), out.records.len());
        for (e, r) in s.entries().iter().zip(&out.records) {
            assert_eq!(e.post_id, r.curated.post_id);
        }
    }

    #[test]
    fn a_window_wider_than_the_clock_evicts_nothing() {
        let out = Pipeline::default().run(world(), &Obs::noop());
        let all = IntelSnapshot::build(&out);
        for w in [i64::MAX as u64, 1 << 63, u64::MAX] {
            let mut wide = IntelSnapshot::build_full(
                &out,
                BuildOptions {
                    window_secs: Some(w),
                },
            );
            assert_eq!(wide.evicted_count(), 0, "window {w}");
            wide.opts = all.opts;
            assert!(wide == all, "window {w}");
        }
    }

    #[test]
    fn url_lookup_roundtrips_through_keys() {
        let s = snap();
        let mut checked = 0;
        for e in s.entries().iter().take(200) {
            if let Some(u) = e.url {
                let raw = s.resolve(u).to_string();
                let ids = s.lookup_url(&raw);
                assert!(!ids.is_empty(), "{raw}");
                assert!(ids.iter().any(|&i| s.entry(i).post_id == e.post_id));
                checked += 1;
            }
        }
        assert!(checked > 20, "only {checked} URL entries");
    }

    #[test]
    fn absent_keys_miss() {
        let s = snap();
        assert!(s
            .lookup_url("https://definitely-not-seen.example/x")
            .is_empty());
        assert!(s.lookup_domain("not-a-known-apex.example").is_empty());
        assert!(s.lookup_sender("NOSUCHSENDER").is_empty());
        assert!(s.lookup_url("not a url at all").is_empty());
    }

    #[test]
    fn evidence_counts_duplicates() {
        let s = snap();
        let total: u64 = s.entries().iter().map(|e| e.n_reports as u64).sum();
        let out = Pipeline::default().run(world(), &Obs::noop());
        // Every curated duplicate lands in exactly one entry's evidence.
        assert_eq!(total, out.curated_total.len() as u64);
        assert!(s.entries().iter().all(|e| e.first_seen <= e.last_seen));
        assert!(s.entries().iter().any(|e| e.n_reports > 1));
    }

    #[test]
    fn clusters_partition_the_entries() {
        let s = snap();
        let mut seen = vec![false; s.len()];
        for c in 0..s.cluster_count() as u32 {
            for &id in s.cluster_entries(c) {
                assert_eq!(s.entry(id).cluster, c);
                assert!(!seen[id as usize], "entry {id} in two clusters");
                seen[id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&x| x));
        assert!(s.cluster_count() > 1);
        assert!(s.cluster_count() < s.len());
    }

    #[test]
    fn templates_are_dense_and_group_identical_texts() {
        let s = snap();
        let n_templates = s.template_count();
        assert!(n_templates > 1);
        assert!(n_templates <= s.len());
        let max = s.entries().iter().map(|e| e.template).max().unwrap();
        assert_eq!(max as usize + 1, n_templates, "template ids are dense");
        // Identical texts are trivially near-duplicates.
        let mut by_text: HashMap<&str, u32> = HashMap::new();
        for e in s.entries() {
            if let Some(&t) = by_text.get(e.text.as_str()) {
                assert_eq!(t, e.template, "{}", e.text);
            } else {
                by_text.insert(e.text.as_str(), e.template);
            }
        }
        // Fewer templates than entries: the corpus has real variants.
        assert!(n_templates < s.len());
    }

    #[test]
    fn near_finds_indexed_texts_and_rejects_unrelated() {
        let s = snap();
        let e = &s.entries()[0];
        let r = s.near(&e.text, 3);
        let top = r.matches.first().expect("self near-match");
        assert_eq!(top.hamming, 0);
        assert_eq!(s.entry(top.id).template, e.template);
        assert!(r.candidates >= r.matches.len());
        let none = s.near("completely unrelated grocery list: eggs, milk, bread", 3);
        assert!(none.matches.is_empty(), "{:?}", none.matches);
    }

    #[test]
    fn defanged_and_homoglyph_queries_normalize() {
        let s = snap();
        let e = s
            .entries()
            .iter()
            .find(|e| e.url.is_some())
            .expect("some URL entry");
        let clean = s.resolve(e.url.unwrap()).to_string();
        let defanged = clean
            .replacen("https://", "hxxps://", 1)
            .replace('.', "[.]");
        assert_eq!(s.lookup_url(&clean), s.lookup_url(&defanged), "{defanged}");
    }
}
