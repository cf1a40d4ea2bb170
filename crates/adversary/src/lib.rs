//! # smishing-adversary
//!
//! A deterministic, seeded campaign-evolution engine. The base world
//! (`smishing-worldsim`) is immutable once generated; real smishing
//! operations are not — they rotate URLs and sender pools on a cadence,
//! re-spell brand apexes as IDN/homoglyph look-alikes, and hide landing
//! pages behind fresh shortener chains precisely to outrun blocklists.
//!
//! This crate models that arms race *on the stream*, not in the world:
//!
//! - [`AdversaryWorld::build`] precomputes epoch-aligned [`RotationWave`]s
//!   for a drifting subset of campaigns, drawing every choice from an RNG
//!   stream isolated from world generation (`world_seed ^ plan.seed ^`
//!   [`WAVE_STREAM`]), and registers the rotated infrastructure (WHOIS,
//!   CT, short links) into the world's service simulators so enrichment
//!   sees it like any other campaign's.
//! - [`AdversaryStream`] wraps [`ReportStream::replay`] and injects wave
//!   `k`'s reports as soon as `k * epoch_posts` posts have been yielded —
//!   immediately *after* the ingest engine's snapshot marker at the same
//!   count, so epoch `k`'s published intel never contains wave `k`.
//! - [`drift::drift_scorecard`] replays the adversarial stream through the
//!   incremental epoch engine and scores, per epoch, which triage-ladder
//!   rung caught each rotated probe and how many epochs each wave stayed
//!   dark ([`drift::EpochDrift`]).
//!
//! With an empty [`AdversaryPlan`] the engine builds no waves and the
//! stream is byte-identical to the plain replay — the same contract the
//! world generator keeps for `template_variants`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drift;

pub use drift::{drift_scorecard, DriftOptions, DriftScorecard, EpochDrift};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use smishing_telecom::NumberFactory;
use smishing_types::{AdversaryPlan, CampaignId, PostId, SenderId, SmsMessage, UnixTime};
use smishing_webinfra::punycode::encode_host;
use smishing_worldsim::domaingen::{gen_domain, gen_path, gen_short_code};
use smishing_worldsim::reporting::{build_report_post, pick_forum_for};
use smishing_worldsim::{Campaign, Post, ReportStream, World};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Stream separator for the wave RNG: keeps rotation draws out of the
/// world's and the funnel graft's RNG streams.
pub const WAVE_STREAM: u64 = 0xAD5A_11E5_C0DE_D00D;

/// Most messages a single wave re-issues (and probes).
const WAVE_MSG_CAP: usize = 3;

/// The most epochs an adversarial stream may span. Waves land on every
/// cadence boundary, and the drift scorecard republishes and probes at
/// each, so wall time grows faster than quadratically with the epoch
/// count: on a 2-core VM at scale 0.01, `smish drift` took 3.6 s at 30
/// epochs, 41 s at 86 and over 300 s at 3,035 (one post per epoch).
/// 32 is twice the 16-epoch drift soak,
/// the largest use in the repository. Front ends refuse longer
/// schedules before ingest.
pub const MAX_ADVERSARY_EPOCHS: u64 = 32;

/// The shortest epoch, in posts, that cuts `posts` posts into at most
/// [`MAX_ADVERSARY_EPOCHS`] epochs.
pub fn min_epoch_posts(posts: u64) -> u64 {
    posts / (MAX_ADVERSARY_EPOCHS + 1) + 1
}

/// How one rotation wave replaces a campaign's indicators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Fresh registered domain + path; WHOIS/CT records appear like any
    /// newly stood-up campaign's.
    FreshDomain,
    /// The same apex re-spelled with a Cyrillic confusable, emitted either
    /// as the raw homoglyph host or its punycode (`xn--`) ACE form.
    Respell,
    /// A two-hop shortener chain in front of the unchanged landing page.
    ShortenChain,
    /// Indicators unchanged except the sender pool (sender-only plans).
    SenderOnly,
}

impl Strategy {
    /// Short lowercase label for reports and logs.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::FreshDomain => "fresh-domain",
            Strategy::Respell => "respell",
            Strategy::ShortenChain => "shorten-chain",
            Strategy::SenderOnly => "sender-only",
        }
    }
}

/// One precomputed rotation: campaign `campaign` re-blasts its lure at
/// epoch boundary `epoch` under fresh indicators.
#[derive(Debug, Clone)]
pub struct RotationWave {
    /// The rotating campaign.
    pub campaign: CampaignId,
    /// Epoch boundary (in units of `epoch_posts`) after which the wave's
    /// reports enter the stream.
    pub epoch: u64,
    /// How many rotations this campaign has done before this one.
    pub generation: u64,
    /// The strategy this wave used.
    pub strategy: Strategy,
    /// The URL as written in the rotated SMS.
    pub url: String,
    /// URLs whose indexing counts as re-acquiring the wave (the SMS URL
    /// plus, for shortened waves, the unchanged landing URL).
    pub probe_urls: Vec<String>,
    /// The rotated messages (base message ids, mutated indicators).
    pub messages: Vec<SmsMessage>,
    /// Report posts for the rotated messages. Ids and timestamps are
    /// placeholders; [`AdversaryStream`] re-stamps both at injection.
    pub posts: Vec<Post>,
}

/// The wave schedule for one world under one [`AdversaryPlan`].
///
/// Construction is a pure function of `(world, plan, epoch_posts)`; the
/// only side effect is registering rotated infrastructure into
/// `world.services`, which an empty plan skips entirely.
#[derive(Debug)]
pub struct AdversaryWorld<'w> {
    world: &'w World,
    /// The plan this schedule was built from.
    pub plan: AdversaryPlan,
    /// Posts per epoch the waves are aligned to.
    pub epoch_posts: u64,
    /// Waves sorted by `(epoch, campaign)`.
    pub waves: Vec<RotationWave>,
}

/// Eligible base material: a campaign plus up to [`WAVE_MSG_CAP`] of its
/// messages whose text carries the campaign URL inline.
fn eligible(world: &World) -> Vec<(&Campaign, Vec<&SmsMessage>)> {
    let mut out = Vec::new();
    for c in &world.campaigns {
        let Some(plan) = &c.url_plan else { continue };
        // Funnels drip their payload conversationally; blast-rotation is a
        // baseline-archetype behavior. wa.me links have nothing to rotate.
        if plan.whatsapp || c.archetype.is_funnel() {
            continue;
        }
        let msgs: Vec<&SmsMessage> = world
            .messages
            .iter()
            .filter(|m| m.campaign == c.id)
            .filter(|m| m.url.as_deref().is_some_and(|u| m.text.contains(u)))
            .take(WAVE_MSG_CAP)
            .collect();
        if !msgs.is_empty() {
            out.push((c, msgs));
        }
    }
    out
}

/// Re-spell the first confusable-mappable character of the host's first
/// label with its Cyrillic look-alike. `None` when nothing maps.
fn respell_host(host: &str) -> Option<String> {
    let first_len = host.find('.').unwrap_or(host.len());
    let mut done = false;
    let spoofed: String = host
        .char_indices()
        .map(|(i, ch)| {
            if done || i >= first_len {
                return ch;
            }
            let swap = match ch {
                'a' => Some('а'),
                'e' => Some('е'),
                'o' => Some('о'),
                'p' => Some('р'),
                'c' => Some('с'),
                'x' => Some('х'),
                'y' => Some('у'),
                'i' => Some('і'),
                's' => Some('ѕ'),
                'j' => Some('ј'),
                'h' => Some('һ'),
                'd' => Some('ԁ'),
                'q' => Some('ԛ'),
                'w' => Some('ԝ'),
                _ => None,
            };
            match swap {
                Some(s) => {
                    done = true;
                    s
                }
                None => ch,
            }
        })
        .collect();
    done.then_some(spoofed)
}

/// Shortener hosts the chain strategy rotates through — all in
/// `webinfra`'s catalog, so curation expands them like organic links.
const CHAIN_HOSTS: &[&str] = &["bit.ly", "is.gd", "tinyurl.com", "rb.gy"];

impl<'w> AdversaryWorld<'w> {
    /// Precompute the wave schedule for `world.config.adversary`.
    ///
    /// `epoch_posts` is the stream's snapshot interval; waves land on its
    /// boundaries. A plan that does not rotate campaigns
    /// ([`AdversaryPlan::rotates`]) yields no waves and touches nothing.
    pub fn build(world: &'w World, epoch_posts: u64) -> AdversaryWorld<'w> {
        let plan = world.config.adversary.clone();
        let mut aw = AdversaryWorld {
            world,
            plan,
            epoch_posts: epoch_posts.max(1),
            waves: Vec::new(),
        };
        let plan = &aw.plan;
        if !plan.rotates() {
            return aw;
        }
        let n_epochs = world.posts.len() as u64 / aw.epoch_posts;
        if n_epochs < 2 {
            return aw;
        }

        let mut rng = StdRng::seed_from_u64(world.config.seed ^ plan.seed ^ WAVE_STREAM);
        let mut pool = eligible(world);
        if pool.is_empty() {
            return aw;
        }
        pool.shuffle(&mut rng);
        let n_drift = ((pool.len() as f64 * plan.drifting_share.clamp(0.0, 1.0)).ceil() as usize)
            .clamp(1, pool.len());
        pool.truncate(n_drift);

        let mut strategies: Vec<Strategy> = Vec::new();
        if plan.rotate_url {
            strategies.push(Strategy::FreshDomain);
        }
        if plan.respell {
            strategies.push(Strategy::Respell);
        }
        if plan.shorten {
            strategies.push(Strategy::ShortenChain);
        }
        if strategies.is_empty() {
            strategies.push(Strategy::SenderOnly);
        }

        let cadence = plan.cadence_epochs.max(1);
        let factory = NumberFactory::new();
        for (rank, (campaign, msgs)) in pool.iter().enumerate() {
            let boundaries = (1..n_epochs).filter(|k| k.is_multiple_of(cadence));
            for (generation, epoch) in boundaries.enumerate() {
                let generation = generation as u64;
                let strategy = strategies[(rank as u64 + generation) as usize % strategies.len()];
                let wave = build_wave(
                    aw.world, campaign, msgs, epoch, generation, strategy, plan, &factory, &mut rng,
                );
                aw.waves.push(wave);
            }
        }
        aw.waves.sort_by_key(|w| (w.epoch, w.campaign.0));
        aw
    }

    /// Boundaries the stream spans (floor of base posts / `epoch_posts`).
    pub fn n_epochs(&self) -> u64 {
        self.world.posts.len() as u64 / self.epoch_posts
    }

    /// The adversarial post stream: base replay plus injected waves.
    pub fn stream(&self) -> AdversaryStream<'_, 'w> {
        self.stream_counted(None)
    }

    /// Like [`Self::stream`], but incrementing `injected` for every wave
    /// post yielded (live gauges, e.g. the serve `health` line).
    pub fn stream_counted(&self, injected: Option<Arc<AtomicU64>>) -> AdversaryStream<'_, 'w> {
        let next_id = self
            .world
            .posts
            .iter()
            .map(|p| p.id.0 + 1)
            .max()
            .unwrap_or(0);
        AdversaryStream {
            base: ReportStream::replay(self.world),
            waves: &self.waves,
            epoch_posts: self.epoch_posts,
            yielded: 0,
            next_wave: 0,
            pending: VecDeque::new(),
            next_id,
            last_at: UnixTime(0),
            injected,
        }
    }
}

/// Build one wave: rotated URL/sender, mutated messages, report posts.
#[allow(clippy::too_many_arguments)]
fn build_wave(
    world: &World,
    campaign: &Campaign,
    msgs: &[&SmsMessage],
    epoch: u64,
    generation: u64,
    strategy: Strategy,
    plan: &AdversaryPlan,
    factory: &NumberFactory,
    rng: &mut StdRng,
) -> RotationWave {
    let url_plan = campaign.url_plan.as_ref().expect("eligible campaign");
    let services = &world.services;
    let stood_up = campaign.schedule.start;
    let landing = url_plan.landing_url(0);

    // Respelling an apex hidden behind a shortener would change the visible
    // host class entirely; real operators re-spell direct links. Fall back
    // to a fresh domain for shortened campaigns.
    let strategy = if strategy == Strategy::Respell && url_plan.shortener.is_some() {
        Strategy::FreshDomain
    } else {
        strategy
    };

    let (url, mut probe_urls) = match strategy {
        Strategy::FreshDomain => {
            let domain = gen_domain(campaign.brand.map(|b| b.name), rng);
            services.whois.register(&domain, "NameCheap", stood_up, 365);
            if let Some(ca) = smishing_webinfra::ca_policy("Let's Encrypt") {
                services.ctlog.provision(
                    &domain,
                    &ca,
                    stood_up,
                    UnixTime(stood_up.0 + 90 * 86_400),
                );
            }
            let url = format!("https://{domain}{}", gen_path(rng));
            (url.clone(), vec![url])
        }
        Strategy::Respell => {
            let spoofed = respell_host(&url_plan.domain).unwrap_or_else(|| {
                // No confusable-mappable character: punycode the plain apex
                // path below still folds to the same identity.
                url_plan.domain.clone()
            });
            // Alternate between the raw homoglyph spelling and its ACE form
            // across generations; both must fold to the clean apex.
            let host = if generation.is_multiple_of(2) {
                spoofed
            } else {
                encode_host(&spoofed).unwrap_or(spoofed)
            };
            let url = format!("https://{host}{}", url_plan.paths[0]);
            (url.clone(), vec![url, landing.clone()])
        }
        Strategy::ShortenChain => {
            let hop1 = CHAIN_HOSTS[rng.gen_range(0..CHAIN_HOSTS.len())];
            let hop2 = CHAIN_HOSTS[rng.gen_range(0..CHAIN_HOSTS.len())];
            let code1 = gen_short_code(rng);
            let code2 = gen_short_code(rng);
            let mid = format!("https://{hop2}/{code2}");
            let minted = UnixTime(stood_up.0 - 3600);
            let life = Some(45 * 86_400);
            services
                .short_links
                .register(hop2, &code2, &landing, minted, life);
            services
                .short_links
                .register(hop1, &code1, &mid, minted, life);
            let url = format!("https://{hop1}/{code1}");
            (url.clone(), vec![url, mid, landing.clone()])
        }
        Strategy::SenderOnly => {
            let url = msgs[0].url.clone().expect("eligible message");
            (url.clone(), vec![url])
        }
    };
    probe_urls.dedup();

    let sender = plan
        .rotate_sender
        .then(|| SenderId::MalformedPhone(factory.bad_format(rng)));

    let mut messages = Vec::with_capacity(msgs.len());
    let mut posts = Vec::new();
    for base in msgs {
        let old = base.url.as_deref().expect("eligible message");
        let mut m = (*base).clone();
        m.text = base.text.replace(old, &url);
        m.truth.english_text = base.truth.english_text.replace(old, &url);
        m.url = Some(url.clone());
        if let Some(s) = &sender {
            m.sender = s.clone();
        }
        // 2–3 reports per rotated message: a re-blast hits the same victim
        // pool again, so the report volume matches the original wave's.
        let n_reports = 2 + usize::from(rng.gen_bool(0.5));
        for _ in 0..n_reports {
            let forum = pick_forum_for(m.received, rng);
            posts.push(build_report_post(PostId(0), &m, forum, rng));
        }
        messages.push(m);
    }

    RotationWave {
        campaign: campaign.id,
        epoch,
        generation,
        strategy,
        url,
        probe_urls,
        messages,
        posts,
    }
}

/// Iterator over the adversarial stream: the base replay with wave posts
/// spliced in at epoch boundaries.
///
/// Injected posts get fresh ids past the base world's maximum and the
/// timestamp of the last base post yielded, so arrival order stays
/// monotone. Counting is over *total* posts yielded (base + injected) —
/// exactly what the ingest engine's [`SnapshotPlan`] counts, so wave `k`
/// always lands after the snapshot marker at `k * epoch_posts`.
///
/// [`SnapshotPlan`]: smishing_core::exec::SnapshotPlan
#[derive(Debug)]
pub struct AdversaryStream<'a, 'w> {
    base: ReportStream<'w>,
    waves: &'a [RotationWave],
    epoch_posts: u64,
    yielded: u64,
    next_wave: usize,
    pending: VecDeque<Post>,
    next_id: u64,
    last_at: UnixTime,
    injected: Option<Arc<AtomicU64>>,
}

impl AdversaryStream<'_, '_> {
    /// Total posts yielded so far (base + injected).
    pub fn position(&self) -> u64 {
        self.yielded
    }

    fn enqueue_due_waves(&mut self) {
        while self.next_wave < self.waves.len()
            && self.waves[self.next_wave].epoch * self.epoch_posts <= self.yielded
        {
            for post in &self.waves[self.next_wave].posts {
                let mut p = post.clone();
                p.id = PostId(self.next_id);
                self.next_id += 1;
                p.posted_at = self.last_at;
                self.pending.push_back(p);
            }
            self.next_wave += 1;
        }
    }
}

impl Iterator for AdversaryStream<'_, '_> {
    type Item = Post;

    fn next(&mut self) -> Option<Post> {
        self.enqueue_due_waves();
        if let Some(p) = self.pending.pop_front() {
            self.yielded += 1;
            if let Some(c) = &self.injected {
                c.fetch_add(1, Ordering::Relaxed);
            }
            return Some(p);
        }
        let p = self.base.next()?;
        self.last_at = p.posted_at;
        self.yielded += 1;
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smishing_types::Archetype;
    use smishing_worldsim::WorldConfig;

    fn world(seed: u64, plan: AdversaryPlan) -> World {
        World::generate(WorldConfig {
            adversary: plan,
            ..WorldConfig::test_scale(seed)
        })
    }

    #[test]
    fn min_epoch_posts_is_the_shortest_epoch_within_the_cap() {
        for posts in [0, 1, 32, 33, 34, 3_037, 235_140] {
            let min = min_epoch_posts(posts);
            assert!(posts / min <= MAX_ADVERSARY_EPOCHS, "{posts}");
            assert!(
                min == 1 || posts / (min - 1) > MAX_ADVERSARY_EPOCHS,
                "{posts}"
            );
        }
        assert_eq!(min_epoch_posts(3_037), 93);
    }

    #[test]
    fn empty_plan_stream_is_byte_identical_to_replay() {
        let w = world(31, AdversaryPlan::none());
        let aw = AdversaryWorld::build(&w, 500);
        assert!(aw.waves.is_empty());
        let adv: Vec<Post> = aw.stream().collect();
        let plain: Vec<Post> = ReportStream::replay(&w).collect();
        assert_eq!(adv.len(), plain.len());
        for (a, b) in adv.iter().zip(&plain) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.posted_at, b.posted_at);
            assert_eq!(a.reported_message, b.reported_message);
        }
    }

    #[test]
    fn waves_are_deterministic_and_epoch_aligned() {
        let plan = AdversaryPlan::profile("full").unwrap();
        let w = world(32, plan.clone());
        let e = (w.posts.len() / 6).max(1) as u64;
        let a = AdversaryWorld::build(&w, e);
        let b = AdversaryWorld::build(&w, e);
        assert!(!a.waves.is_empty());
        assert_eq!(a.waves.len(), b.waves.len());
        for (x, y) in a.waves.iter().zip(&b.waves) {
            assert_eq!(x.campaign, y.campaign);
            assert_eq!(x.url, y.url);
            assert_eq!(x.strategy, y.strategy);
        }
        for wv in &a.waves {
            assert!(wv.epoch >= 1 && wv.epoch < a.n_epochs());
            assert!(!wv.messages.is_empty() && !wv.posts.is_empty());
            for m in &wv.messages {
                assert!(m.text.contains(&wv.url), "rotated URL is inline");
            }
        }
        let strategies: std::collections::HashSet<_> =
            a.waves.iter().map(|w| w.strategy.label()).collect();
        assert!(strategies.len() >= 2, "full profile mixes strategies");
    }

    #[test]
    fn injection_lands_right_after_the_epoch_boundary() {
        let plan = AdversaryPlan::profile("rotation").unwrap();
        let w = world(33, plan);
        let e = (w.posts.len() / 5).max(1) as u64;
        let aw = AdversaryWorld::build(&w, e);
        assert!(!aw.waves.is_empty());
        let base_max = w.posts.iter().map(|p| p.id.0).max().unwrap();
        let injected_flag = Arc::new(AtomicU64::new(0));
        let posts: Vec<Post> = aw.stream_counted(Some(injected_flag.clone())).collect();
        assert_eq!(
            posts.len(),
            w.posts.len() + aw.waves.iter().map(|wv| wv.posts.len()).sum::<usize>()
        );
        assert_eq!(
            injected_flag.load(Ordering::Relaxed),
            (posts.len() - w.posts.len()) as u64
        );
        // Wave posts appear at their boundary: position of first injected id
        // must be exactly at a multiple of `e`.
        let first_injected = posts.iter().position(|p| p.id.0 > base_max).unwrap() as u64;
        assert_eq!(first_injected % e, 0, "first wave at an epoch boundary");
        // Arrival order stays monotone and ids unique.
        let mut seen = std::collections::HashSet::new();
        let mut last = UnixTime(i64::MIN);
        for p in &posts {
            assert!(seen.insert(p.id));
            assert!(p.posted_at >= last);
            last = p.posted_at;
        }
    }

    #[test]
    fn respelled_hosts_fold_back_to_the_campaign_apex() {
        assert_eq!(
            respell_host("secure-hsbc.com"),
            Some("ѕecure-hsbc.com".into())
        );
        assert_eq!(respell_host("zz-42.net"), None);
        let plan = AdversaryPlan::profile("respell").unwrap();
        let w = world(34, plan);
        let e = (w.posts.len() / 6).max(1) as u64;
        let aw = AdversaryWorld::build(&w, e);
        let mut checked = 0;
        for wv in aw.waves.iter().filter(|w| w.strategy == Strategy::Respell) {
            let c = &w.campaigns[wv.campaign.0 as usize];
            let apex = &c.url_plan.as_ref().unwrap().domain;
            let parsed = smishing_webinfra::parse_url(&wv.url).expect("respelled URL parses");
            assert_eq!(&parsed.host, apex, "folds to the clean apex");
            checked += 1;
        }
        assert!(checked > 0, "respell waves exist");
    }

    #[test]
    fn funnel_campaigns_do_not_rotate() {
        let plan = AdversaryPlan::profile("full").unwrap();
        let w = world(35, plan);
        assert!(w.campaigns.iter().any(|c| c.archetype.is_funnel()));
        let e = (w.posts.len() / 6).max(1) as u64;
        let aw = AdversaryWorld::build(&w, e);
        for wv in &aw.waves {
            let c = &w.campaigns[wv.campaign.0 as usize];
            assert_eq!(c.archetype, Archetype::Baseline, "wa.me funnels excluded");
        }
    }
}
