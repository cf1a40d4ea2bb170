//! The immutable, interned, symbol-indexed intelligence store.
//!
//! [`IntelSnapshot::build`] digests a [`PipelineOutput`] — the assembled,
//! canonical output of the one execution core — into one entry per unique
//! record, with secondary indexes over every pivot an abuse desk queries
//! by: normalized URL, apex domain (registrable domain or free-hosting
//! site), sender ID, phone number, impersonated brand, and campaign-link
//! cluster. Each pivot index is a [`SymIndex`] over the dense symbols of
//! the store's one [`Interner`], so a lookup is one interner probe and a
//! slice. Each entry carries its evidence: which forums reported it,
//! how often, first/last seen, scam type and lures, HLR line status, and
//! AV/GSB verdicts. The report evidence (forums, count, first/last seen)
//! is the dedup group's, read off the record: the execution core's shard
//! table is the only place duplicates are grouped, so the store cannot
//! group them differently from the pipeline.
//!
//! The snapshot is immutable after build, but for the triage model its
//! first use trains (the read path is lock-free by construction), and
//! owns every byte — no borrow of the world or the pipeline output
//! survives — so an `Arc<IntelSnapshot>` can be handed to any thread and
//! republished mid-stream through the [`IntelHub`](crate::IntelHub).
//!
//! Key derivation lives in one place ([`record_keys`]) so the index
//! builder, the query normalizer, and the linear-scan reference the
//! proptests compare against can never drift apart.

use crate::intern::{Interner, Renumber, Sym, SymIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;
use smishing_core::analysis::linking::{cluster_by_keys, skeleton_of};
use smishing_core::curation::CuratedMessage;
use smishing_core::enrich::EnrichedRecord;
use smishing_core::pipeline::PipelineOutput;
use smishing_detect::{smish_vs_ham, LogisticRegression, LrConfig};
use smishing_simindex::{DocInput, NearResult, SimIndex};
use smishing_telecom::NumberStatus;
use smishing_textnlp::normalize::{normalize_text, normalize_token};
use smishing_types::{Forum, Language, LureSet, PostId, ScamType, SenderId, UnixTime};
use smishing_webinfra::{
    fold_host, free_hosting_site, parse_url, registrable_domain, ParsedUrl, ShortenerCatalog,
};
use std::collections::HashMap;
use std::sync::OnceLock;

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

/// A campaign-link pivot of one entry. The variants keep the pivot kinds
/// apart as `linking::pivot_keys`' `d:`/`u:`/`s:`/`t:` prefixes do, since
/// one symbol table holds domains, URLs and senders alike.
#[derive(Clone, Copy, PartialEq, Eq)]
enum LinkKey {
    Domain(Sym),
    Url(Sym),
    Sender(Sym),
    Skeleton(Sym),
}

impl LinkKey {
    /// Pivot kinds: the key space is `KINDS × n_syms` ids.
    const KINDS: usize = 4;

    /// The key's id in the clusterer's dense key space, `kind × n_syms +
    /// sym`, where `n_syms` bounds both symbol tables.
    fn dense(self, n_syms: usize) -> usize {
        let (kind, sym) = match self {
            LinkKey::Domain(s) => (0, s),
            LinkKey::Url(s) => (1, s),
            LinkKey::Sender(s) => (2, s),
            LinkKey::Skeleton(s) => (3, s),
        };
        kind * n_syms + sym.0 as usize
    }
}

/// An entry's `(key, strong)` campaign-link pivots, those of
/// `linking::pivot_keys` over its record: the strong apex domain (the
/// exact URL for a link without one), the weak sender and the weak
/// template skeleton.
fn link_keys(e: &IntelEntry) -> impl Iterator<Item = (LinkKey, bool)> {
    let strong = e.domain.map(LinkKey::Domain).or(e.url.map(LinkKey::Url));
    [
        strong.map(|k| (k, true)),
        e.sender.map(|s| (LinkKey::Sender(s), false)),
        Some((LinkKey::Skeleton(e.skeleton), false)),
    ]
    .into_iter()
    .flatten()
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
    /// Template-skeleton campaign-link key, a symbol of the snapshot's
    /// link-key table, not of the query interner.
    pub(crate) skeleton: Sym,
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

/// The model [`IntelSnapshot::model`] trains. Any two cells compare
/// equal: the model is a pure function of the entry texts and the seed,
/// which the snapshot compares already.
#[derive(Debug, Clone, Default)]
struct ModelCell(OnceLock<LogisticRegression>);

impl PartialEq for ModelCell {
    fn eq(&self, _: &ModelCell) -> bool {
        true
    }
}

/// The immutable, indexed intelligence store.
#[derive(Debug, Clone, PartialEq)]
pub struct IntelSnapshot {
    interner: Interner,
    /// Skeleton strings of the campaign-link pivots. Only the build reads
    /// them, so they stay out of the query interner.
    link_keys: Interner,
    entries: Vec<IntelEntry>,
    by_url: SymIndex,
    by_domain: SymIndex,
    by_sender: SymIndex,
    by_phone: SymIndex,
    by_brand: SymIndex,
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
    /// Seed of the world the store was built from; the model's seed.
    seed: u64,
    model: ModelCell,
}

impl Default for IntelSnapshot {
    fn default() -> Self {
        IntelSnapshot {
            interner: Interner::default(),
            link_keys: Interner::default(),
            entries: Vec::new(),
            by_url: SymIndex::default(),
            by_domain: SymIndex::default(),
            by_sender: SymIndex::default(),
            by_phone: SymIndex::default(),
            by_brand: SymIndex::default(),
            clusters: Vec::new(),
            cluster_campaign: Vec::new(),
            sim: SimIndex::default(),
            built_from_posts: 0,
            curated_seen: 0,
            horizon: UnixTime(i64::MIN),
            opts: BuildOptions::default(),
            evicted: 0,
            seed: 0,
            model: ModelCell::default(),
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

    /// Shared back half of both build paths: entry and index
    /// construction, campaign linking, and the similarity tier, over the
    /// retained records in `plan` (canonical post-id order). Each phase
    /// is one sample of `intel.build.{entries,link,sim}_ns` under the
    /// output's [`Obs`](smishing_obs::Obs).
    ///
    /// Both symbol tables are renumbered in the entries' first-appearance
    /// order ([`Renumber`]): a reused entry carries its symbols through
    /// an integer remap, a fresh one interns its key strings, and strings
    /// no retained entry carries are dropped. The tables are therefore a
    /// pure function of the retained set, as a from-scratch build's are —
    /// a reused table would leak evicted strings and break incremental ≡
    /// from-scratch.
    fn assemble_snapshot(
        out: &PipelineOutput<'_>,
        horizon: UnixTime,
        opts: BuildOptions,
        prev: Option<&IntelSnapshot>,
        plan: Vec<(usize, EntrySource)>,
    ) -> IntelSnapshot {
        let obs = out.obs();
        let n = plan.len();
        let mut snap = IntelSnapshot {
            built_from_posts: out.collection.iter().map(|(_, s)| s.posts as u64).sum(),
            curated_seen: out.curated_total.len() as u64,
            horizon,
            opts,
            evicted: out.records.len() - plan.len(),
            seed: out.world.config.seed,
            entries: Vec::with_capacity(n),
            ..IntelSnapshot::default()
        };
        let mut docs: Vec<DocInput<'_>> = Vec::with_capacity(n);

        let entries_span = obs.span("intel.build.entries_ns");
        let empty = Interner::default();
        let mut syms = Renumber::new(prev.map_or(&empty, |p| &p.interner));
        let mut skeletons = Renumber::new(prev.map_or(&empty, |p| &p.link_keys));
        for &(ri, ref src) in &plan {
            let r = &out.records[ri];
            // Key fields are numbered in the order url, domain, sender,
            // phone, brand on both paths.
            let entry = match *src {
                EntrySource::Fresh => {
                    let keys = record_keys(r);
                    let mut sym = |key: Option<String>| key.map(|k| syms.intern(&k));
                    let url = sym(keys.url);
                    let domain = sym(keys.domain);
                    let sender = sym(keys.sender);
                    let phone = sym(keys.phone);
                    let brand = sym(keys.brand);
                    // The skeleton pivot of `linking::pivot_keys`.
                    let skeleton = skeletons.intern(&skeleton_of(&normalize_text(&r.curated.text)));
                    docs.push(DocInput::Text(r.curated.text.as_str()));
                    IntelEntry {
                        post_id: r.curated.post_id,
                        text: r.curated.text.clone(),
                        url,
                        domain,
                        sender,
                        phone,
                        brand,
                        skeleton,
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
                    let mut carry = |sym: Option<Sym>| sym.map(|s| syms.carry(s));
                    let url = carry(pe.url);
                    let domain = carry(pe.domain);
                    let sender = carry(pe.sender);
                    let phone = carry(pe.phone);
                    let brand = carry(pe.brand);
                    let skeleton = skeletons.carry(pe.skeleton);
                    docs.push(DocInput::Reuse(prev_id));
                    IntelEntry {
                        url,
                        domain,
                        sender,
                        phone,
                        brand,
                        skeleton,
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
            snap.entries.push(entry);
        }
        snap.interner = syms.finish();
        snap.link_keys = skeletons.finish();
        let n_syms = snap.interner.len();
        let index = |key: fn(&IntelEntry) -> Option<Sym>| {
            SymIndex::build(n_syms, snap.entries.iter().map(key))
        };
        snap.by_url = index(|e| e.url);
        snap.by_domain = index(|e| e.domain);
        snap.by_sender = index(|e| e.sender);
        snap.by_phone = index(|e| e.phone);
        snap.by_brand = index(|e| e.brand);
        drop(entries_span);

        // Campaign-link clusters over the retained entries, on the pivots
        // and anti-hub rule the §5.1 ablation measures, as integer work
        // over the symbols each entry carries. Recomputed every epoch: the
        // weak-key cap is non-monotone (a pivot can cross it as reports
        // accumulate), so a carried union-find would diverge from the
        // from-scratch reference.
        let link_span = obs.span("intel.build.link_ns");
        let n_syms = snap.interner.len().max(snap.link_keys.len());
        let (cluster_of, n_clusters) = cluster_by_keys(n, LinkKey::KINDS * n_syms, |i| {
            link_keys(&snap.entries[i]).map(|(key, strong)| (key.dense(n_syms), strong))
        });
        snap.clusters = vec![Vec::new(); n_clusters];
        let mut cluster_votes: Vec<HashMap<u32, u32>> = vec![HashMap::new(); n_clusters];
        for (id, (e, &cluster)) in snap.entries.iter_mut().zip(&cluster_of).enumerate() {
            e.cluster = cluster as u32;
            snap.clusters[cluster].push(id as u32);
            if let Some(c) = e.truth_campaign {
                *cluster_votes[cluster].entry(c).or_default() += 1;
            }
        }
        // Majority ground-truth campaign per cluster (ties broken by the
        // smaller campaign id for determinism) — evaluation only.
        snap.cluster_campaign = cluster_votes
            .into_iter()
            .map(|votes| {
                votes
                    .into_iter()
                    .max_by_key(|&(c, n)| (n, std::cmp::Reverse(c)))
                    .map(|(c, _)| c)
            })
            .collect();
        drop(link_span);

        // Similarity tier: one SimHash doc per entry, in entry order, so
        // doc ids ARE entry ids. Built here so every published epoch
        // carries its index — the read path never builds anything. On the
        // incremental path, reused docs skip shingling + signature work
        // entirely, and the previous template components are repaired
        // where docs left or arrived.
        let _sim_span = obs.span("intel.build.sim_ns");
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

    fn lookup<'a>(&self, index: &'a SymIndex, key: &str) -> &'a [u32] {
        self.interner
            .get(key)
            .map_or(NO_ENTRIES, |sym| index.get(sym))
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

    /// The triage ladder's `detect` logistic regression, and whether
    /// this call trained it. The first call on any thread trains it;
    /// every later call, and any call that waited for it, shares it.
    pub fn model(&self) -> (&LogisticRegression, bool) {
        let mut trained = false;
        let model = self.model.0.get_or_init(|| {
            trained = true;
            // Entry texts are the positives, ham drawn under the world
            // seed the negatives.
            let texts: Vec<&str> = self.texts().collect();
            let samples = smish_vs_ham(&texts, &mut StdRng::seed_from_u64(self.seed));
            let config = LrConfig {
                seed: self.seed,
                ..LrConfig::default()
            };
            LogisticRegression::train(&samples, config)
                .expect("the samples hold 40 or more ham texts")
        });
        (model, trained)
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
            urls: self.by_url.rows(),
            domains: self.by_domain.rows(),
            senders: self.by_sender.rows(),
            phones: self.by_phone.rows(),
            brands: self.by_brand.rows(),
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
    use smishing_core::analysis::linking::{pivot_keys, LinkingPivots};
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

    /// Every build, full or incremental, records one sample of each
    /// phase span under its output's handle.
    #[test]
    fn each_build_times_its_three_phases() {
        use smishing_core::exec::{ingest, ExecPlan, SnapshotPlan};
        use smishing_core::CurationOptions;
        use smishing_worldsim::ReportStream;

        let world = world();
        let obs = Obs::enabled();
        let every = (world.posts.len() as u64 / 4).max(1);
        let plan = ExecPlan::default().with_snapshots(SnapshotPlan::every(every));
        let opts = BuildOptions::default();
        let mut prev: Option<IntelSnapshot> = None;
        let mut builds = 0u64;
        let result = ingest(
            world,
            ReportStream::replay(world),
            &CurationOptions::default(),
            &plan,
            &obs,
            |s| {
                let delta = SnapshotDelta::new(&s.curated_delta);
                prev = Some(IntelSnapshot::build_incremental(
                    &s.output,
                    prev.as_ref(),
                    delta,
                    opts,
                ));
                builds += 1;
            },
        );
        let delta = SnapshotDelta::new(&result.curated_delta);
        IntelSnapshot::build_incremental(&result.output, prev.as_ref(), delta, opts);
        builds += 1;
        assert!(builds >= 4, "{builds} builds");
        for phase in ["entries", "link", "sim"] {
            let name = format!("intel.build.{phase}_ns");
            assert_eq!(obs.histogram(&name, &[]).count(), builds, "{name}");
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

    /// One thread of many trains the model and says so; the rest share
    /// it. Training leaves the snapshot equal to an untrained copy.
    #[test]
    fn the_model_trains_once_and_stays_out_of_equality() {
        let out = Pipeline::default().run(world(), &Obs::noop());
        let s = IntelSnapshot::build(&out);
        let untrained = s.clone();
        let claims: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4).map(|_| scope.spawn(|| s.model().1)).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(claims.iter().filter(|&&c| c).count(), 1, "{claims:?}");
        assert!(!s.model().1);
        assert!(s == untrained);
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

    /// Every entry's carried link keys, spelled out, are the §5.1 pivot
    /// strings of its record, strength flags and order included.
    #[test]
    fn carried_link_keys_spell_the_pivot_strings() {
        let out = Pipeline::default().run(world(), &Obs::noop());
        let s = IntelSnapshot::build(&out);
        for (e, r) in s.entries().iter().zip(&out.records) {
            let spelled: Vec<(String, bool)> = link_keys(e)
                .map(|(key, strong)| {
                    let key = match key {
                        LinkKey::Domain(d) => format!("d:{}", s.resolve(d)),
                        LinkKey::Url(u) => format!("u:{}", s.resolve(u)),
                        LinkKey::Sender(x) => format!("s:{}", s.resolve(x)),
                        LinkKey::Skeleton(t) => format!("t:{}", s.link_keys.resolve(t)),
                    };
                    (key, strong)
                })
                .collect();
            assert_eq!(spelled, pivot_keys(r, LinkingPivots::ALL), "{}", e.text);
        }
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
