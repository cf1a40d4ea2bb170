//! The sharded stage engine — the one execution path behind both the
//! batch [`Pipeline`](crate::pipeline::Pipeline) and streaming ingest.
//!
//! ```text
//!             bounded              bounded                bounded
//!  feeder ──► curator 0 ──┬──► analyst shard 0 ──┬──► collector (caller
//!         ──► curator 1 ──┤ ──► analyst shard 1 ──┤     thread: merges each
//!             ...         │     ...               │     cut's delta into its
//!                         └──► shard = fnv(key)%N ┘     one running copy)
//! ```
//!
//! * The **feeder** pulls posts from the caller's iterator in arrival
//!   order and round-robins them over per-curator bounded channels. The
//!   iterator yields anything that borrows as a [`Post`]: a batch run
//!   lends the world's own posts (`&Post`, nothing copied), a
//!   [`ReportStream`](smishing_worldsim::ReportStream) yields owned ones.
//!   A full channel blocks the feeder — real backpressure, bounded
//!   memory.
//! * **Curators** run the pure per-post curation (`curate_post`), derive
//!   each curated message's dedup key and send the message with its key to
//!   the analyst shard owning that key. They count only what the output
//!   does not keep, as [`CollectionStats`]: posts and images per forum,
//!   and Table 15's Twitter posts and images per year. At every cut a
//!   curator hands the collector its counts since its previous cut and
//!   starts afresh.
//! * **Analyst shards** each own a [`GroupTable`]: the per-key dedup
//!   winner (minimum post id) with its group's report evidence. It is the
//!   program's only dedup-group table. Enrichment runs through the
//!   [`EnricherRegistry`] — the same stage list everywhere — behind a
//!   per-shard [`ResilientClient`]. When a later-arriving but
//!   earlier-posted duplicate displaces a winner, the new record simply
//!   replaces it. Winners are `Arc`s shared with the collector: a winner
//!   whose evidence grows while the collector still holds it is copied on
//!   write, so no handle a cut sent ever changes. At every cut (a
//!   snapshot or the end of the stream) the shard sends its
//!   [`WinnerDelta`] — the handles of the winners that are new, displaced
//!   in or whose evidence grew since its previous cut, and the post ids of
//!   the sent winners they displaced — with the curated messages it took
//!   in over the same interval. A winner displaced before any cut sent it
//!   leaves no trace. A shard keeps no curated history and folds nothing.
//! * **Snapshots** use aligned markers: the feeder injects a marker after
//!   post `k`; curators forward it to every shard; a shard cuts once
//!   markers from *all* curators arrived, buffering any messages that
//!   overtook a slower curator's marker. The end of the stream is one more
//!   cut, taken by every worker once its input closes.
//! * The **collector** folds each complete cut, in cut order, into its one
//!   running copy: the curators' counts, summed; the shards' winner
//!   deltas, merged into the post-id-sorted records in one pass
//!   ([`WinnerDelta::merge_into`]); and the interval's curated messages,
//!   merged the same way into the post-id-sorted history of shared
//!   handles. No cut clones, folds or frees an unchanged record or
//!   message. The collector lends that copy to `on_snapshot` as a
//!   [`StreamSnapshot`], equal to the batch pipeline over exactly the
//!   first `k` posts, while ingestion continues behind it, and hands it
//!   over as the end-of-stream output. No worker and no cut computes a
//!   table: every table is a function of the output
//!   ([`experiment::TABLES`](crate::experiment::TABLES)), so consumers
//!   that read only records and counts never pay for one.
//!
//! # Ordering invariant
//!
//! The collector's one fold (`StreamSnapshot::fold`) owns canonical
//! ordering, for every snapshot and for the end of the stream: curated
//! messages and enriched records are sorted by post id, and per-forum
//! collection stats are listed in `Forum::ALL` order. Combined with
//! set-semantics dedup (minimum post id wins per key), the output is a
//! pure function of the post *multiset* — independent of arrival order,
//! shard count, curator count, channel capacity, and thread scheduling.
//! No frontend may rely on feeding posts in any particular order, and
//! none needs to sort afterwards. End-of-stream output is *identical* to
//! the batch [`Pipeline`](crate::pipeline::Pipeline).
//!
//! # Observability
//!
//! Passing an enabled [`Obs`] threads instrumentation through every
//! worker: per-shard ingest counters (`exec.shard.curated{shard="i"}`),
//! displaced winners (`exec.shard.displaced{shard="i"}`, one per wasted
//! enrichment), the per-post curation cost (`exec.curate.post_ns`, all
//! curators), bounded channel depth gauges with high-water marks
//! (`exec.{curator,shard}.channel_depth`), backpressure wait histograms
//! (`exec.{feeder,curator}.backpressure_wait_ns`, recorded only when a
//! `try_send` finds the channel full), each shard's cut
//! (`exec.shard.cut_ns`, and `exec.shard.winner_delta`, the entries its
//! delta carries; once per snapshot and once at the end), the collector's
//! fold (`exec.collector.fold.wall_ns` per cut, `exec.snapshot.cost_ns`
//! per snapshot), the whole run (`exec.ingest.wall_ns`, and the posts it
//! took in as `pipeline.collect.posts`, the growth gate's size) and
//! per-service enrichment meters (each shard owns a `ResilientClient`, so
//! retry, breaker, and degradation counters aggregate across shards
//! through the shared registry, and
//! `exec.engine.{degraded_records,uncounted_drops}` summarize the run).
//! Per-shard enrichment, cut and delta histograms are additionally
//! combined, exactly, with `Histogram::merge_from` into a `shard="all"`
//! series. With a no-op handle every instrumentation point short-circuits
//! and the engine runs the pre-observability code path.
//!
//! # Worker panics
//!
//! A panic on any worker thread (feeder, curator, shard) is caught at the
//! thread boundary, counted in `exec.engine.worker_panics`, and re-raised
//! on the caller's thread with its original payload once the remaining
//! workers have drained — never silently swallowed, and never a deadlock:
//! peers detect the closed channels and shut down cleanly. A panic in
//! `on_snapshot` unwinds the collector, whose closed channel winds the
//! workers down the same way before it re-raises.

use super::{ExecPlan, SnapshotPlan};
use crate::collect::CollectionStats;
use crate::curation::{curate_post, CuratedMessage, CurationOptions};
use crate::enrich::{EnrichedRecord, EnricherRegistry, ResilientClient};
use crate::pipeline::PipelineOutput;
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use smishing_obs::{obs_warn, Counter, Gauge, Histogram, Obs};
use smishing_types::{fnv1a, Forum, PostId};
use smishing_worldsim::{Post, World};
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::mem;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// A consistent mid-stream view: an assembled [`PipelineOutput`], equal
/// to a batch run over the first [`at_posts`](Self::at_posts) posts.
/// `on_snapshot` borrows it from the engine's collector, which keeps it as
/// its running copy: a consumer that needs it past the callback copies
/// what it needs (records by handle).
pub struct StreamSnapshot<'w> {
    /// How many posts the snapshot covers.
    pub at_posts: u64,
    /// Batch-equivalent assembled output, which every table renders from.
    pub output: PipelineOutput<'w>,
    /// Curated messages (duplicates included) that arrived since the
    /// previous snapshot marker — the delta an incremental consumer
    /// (e.g. `IntelSnapshot::build_incremental`) applies on top of its
    /// previous epoch. Sorted by post id; every snapshot's delta plus the
    /// end-of-stream delta hold exactly `curated_total`'s messages, each
    /// once (posts need not arrive in post-id order, so neither do the
    /// deltas).
    pub curated_delta: Vec<CuratedMessage>,
}

/// The end-of-stream result.
pub struct IngestResult<'w> {
    /// Assembled output, identical to `Pipeline::run` over the same
    /// posts.
    pub output: PipelineOutput<'w>,
    /// Curated messages that arrived after the last snapshot marker (the
    /// whole stream when no snapshot fired). Sorted by post id.
    pub curated_delta: Vec<CuratedMessage>,
    /// Posts consumed from the stream.
    pub posts_ingested: u64,
    /// Snapshots emitted.
    pub snapshots_taken: usize,
}

/// `P` is what the caller's iterator yields: a borrowed `&Post` from a
/// batch run over the world, or an owned `Post` from a live stream.
#[derive(Debug)]
enum CuratorMsg<P> {
    Post(P),
    Marker { id: u64 },
}

#[derive(Debug)]
enum ShardMsg {
    Curated {
        curator: usize,
        key: String,
        msg: CuratedMessage,
    },
    Marker {
        curator: usize,
        id: u64,
    },
}

/// The id of the end-of-stream cut, which follows every marker's.
const END: u64 = u64::MAX;

/// One worker's part of cut `id`: marker `id`, or [`END`].
#[derive(Debug)]
enum CollectorMsg {
    /// What a curator counted since its previous cut.
    Curator {
        id: u64,
        collection: HashMap<Forum, CollectionStats>,
        twitter_years: BTreeMap<i32, CollectionStats>,
    },
    /// A shard's winner delta since its previous cut, and the curated
    /// messages it took in over the same interval.
    Shard {
        id: u64,
        winners: WinnerDelta,
        curated: Vec<CuratedMessage>,
    },
}

impl CollectorMsg {
    fn id(&self) -> u64 {
        match self {
            CollectorMsg::Curator { id, .. } | CollectorMsg::Shard { id, .. } => *id,
        }
    }
}

/// Stable routing hash (FNV-1a) so a dedup key always lands on the same
/// shard, across runs and platforms.
fn shard_of(key: &str, shards: usize) -> usize {
    (fnv1a(0, key.bytes()) % shards as u64) as usize
}

/// Send with backpressure accounting. When the wait histogram is live, a
/// full channel is detected with `try_send` first, so only genuinely
/// blocked sends pay for a clock read; when disabled this is a plain
/// `send`. Returns `false` when the receiver is gone (it panicked —
/// the caller winds down and the panic is surfaced by the join path).
pub fn obs_send<T>(tx: &Sender<T>, msg: T, blocked: &Counter, wait: &Histogram) -> bool {
    if wait.is_active() {
        match tx.try_send(msg) {
            Ok(()) => true,
            Err(TrySendError::Full(m)) => {
                blocked.inc();
                wait.time(|| tx.send(m)).is_ok()
            }
            Err(TrySendError::Disconnected(_)) => false,
        }
    } else {
        tx.send(msg).is_ok()
    }
}

/// The dedup-group table of one analyst shard, and the only dedup-group
/// table in the program. Per dedup key it keeps the group's winner (the
/// minimum post id, enriched) carrying the group's
/// [`Evidence`](crate::enrich::Evidence). A later-arriving but
/// earlier-posted duplicate displaces the winner and takes over the
/// evidence. Winners are shared with the collector by handle: a record
/// is copied on write (`Arc::make_mut`) only when its evidence grows while
/// a cut's handle to it is still held. Each cut sends only what changed
/// since the previous one ([`WinnerDelta`]), so a winner displaced before
/// any cut sent it leaves no trace.
#[derive(Debug, Default)]
pub struct GroupTable {
    /// Each dedup key's index in `groups`.
    slots: HashMap<String, usize>,
    groups: Vec<Group>,
    /// Groups applied to since the previous cut, with repeats.
    touched: Vec<usize>,
}

#[derive(Debug)]
struct Group {
    winner: Arc<EnrichedRecord>,
    /// The post id of the winner a previous cut sent, if one did.
    sent: Option<PostId>,
}

impl GroupTable {
    /// New empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one curated message under its dedup key. `enrich` runs only
    /// when the message becomes its group's winner. Returns whether it
    /// displaced a winner.
    pub fn apply(
        &mut self,
        key: String,
        c: &CuratedMessage,
        enrich: impl FnOnce(CuratedMessage) -> EnrichedRecord,
    ) -> bool {
        let new = self.groups.len();
        let slot = *self.slots.entry(key).or_insert(new);
        self.touched.push(slot);
        if slot == new {
            let winner = Arc::new(enrich(c.clone()));
            self.groups.push(Group { winner, sent: None });
            return false;
        }
        let g = &mut self.groups[slot];
        let displaced = c.post_id < g.winner.curated.post_id;
        if displaced {
            let mut rec = enrich(c.clone());
            rec.evidence = g.winner.evidence;
            g.winner = Arc::new(rec);
        }
        Arc::make_mut(&mut g.winner).evidence.absorb(c);
        displaced
    }

    /// The table at a cut: the winners of every group applied to since the
    /// previous cut, and the post ids of the sent winners they displaced.
    pub fn cut(&mut self) -> WinnerDelta {
        self.touched.sort_unstable();
        self.touched.dedup();
        let mut delta = WinnerDelta::default();
        for slot in self.touched.drain(..) {
            let g = &mut self.groups[slot];
            let id = g.winner.curated.post_id;
            delta
                .displaced
                .extend(g.sent.replace(id).filter(|&sent| sent != id));
            delta.changed.push(Arc::clone(&g.winner));
        }
        delta
    }
}

/// What dedup winners changed between two cuts: what a shard's cut sends,
/// and what the collector merges into its records.
#[derive(Debug, Default)]
pub struct WinnerDelta {
    /// Winners that are new, displaced in or whose evidence grew, in no
    /// particular order.
    pub changed: Vec<Arc<EnrichedRecord>>,
    /// Post ids of winners a previous cut sent that have been displaced
    /// since.
    pub displaced: Vec<PostId>,
}

impl WinnerDelta {
    /// Merge into `records`, sorted by post id and holding every winner
    /// the previous cuts sent: displaced winners leave, changed ones
    /// replace or join theirs. Each entry is placed by binary search, so
    /// the one pass over `records` moves an unchanged record without
    /// reading, cloning or freeing it.
    pub fn merge_into(self, records: &mut Vec<Arc<EnrichedRecord>>) {
        let displaced = self.displaced.into_iter().map(|post| (post, None));
        let changed = self
            .changed
            .into_iter()
            .map(|r| (r.curated.post_id, Some(r)));
        merge_by_post_id(records, displaced.chain(changed), |r| r.curated.post_id);
    }
}

/// Apply `edits` to `held`, sorted by post id (`id`): `(post, Some(item))`
/// replaces the item with that post id or joins at its place, and
/// `(post, None)` takes it out. Each edit is placed by binary search, so
/// the one pass over `held` moves every other item without reading,
/// cloning or freeing it, and no item is hashed.
fn merge_by_post_id<T>(
    held: &mut Vec<T>,
    edits: impl Iterator<Item = (PostId, Option<T>)>,
    id: impl Fn(&T) -> PostId,
) {
    let old = mem::take(held);
    let place = |post| old.partition_point(|item| id(item) < post);
    let mut edits: Vec<_> = edits
        .map(|(post, item)| {
            let at = place(post);
            (post, at, old.get(at).is_some_and(|o| id(o) == post), item)
        })
        .collect();
    edits.sort_unstable_by_key(|e| e.0);
    held.reserve(old.len() + edits.len());
    let (mut old, mut next) = (old.into_iter(), 0);
    for (_, at, replaces, item) in edits {
        debug_assert!(replaces || item.is_some(), "took out an item not held");
        held.extend(old.by_ref().take(at - next));
        next = at + usize::from(replaces);
        if replaces {
            old.next();
        }
        held.extend(item);
    }
    held.extend(old);
}

impl<'w> StreamSnapshot<'w> {
    /// The collector's running copy before any cut: nothing ingested.
    fn empty(world: &'w World, obs: &Obs) -> Self {
        StreamSnapshot {
            at_posts: 0,
            output: PipelineOutput {
                world,
                collection: Forum::ALL
                    .iter()
                    .map(|&f| (f, CollectionStats::default()))
                    .collect(),
                curated_total: Vec::new(),
                records: Vec::new(),
                twitter_years: BTreeMap::new(),
                obs: obs.clone(),
            },
            curated_delta: Vec::new(),
        }
    }

    /// Fold one complete cut — every worker's part of it — into the
    /// running copy. This is the engine's **canonical-ordering step** (see
    /// the module docs), for every snapshot and for the end of the
    /// stream: whatever order parts arrive in, `curated_total`,
    /// `curated_delta` and `records` leave sorted by post id and
    /// `collection` lists forums in `Forum::ALL` order. The curators'
    /// counts add to the running ones and the shards' winner deltas merge
    /// into the records. Everything grows by the interval alone: the
    /// records and the history are merged by handle, and no unchanged
    /// record or message is read, copied or freed.
    fn fold(&mut self, parts: Vec<CollectorMsg>) {
        let out = &mut self.output;
        let mut winners = WinnerDelta::default();
        let mut delta: Vec<CuratedMessage> = Vec::new();
        for part in parts {
            match part {
                CollectorMsg::Curator {
                    collection,
                    twitter_years,
                    ..
                } => {
                    for (year, stats) in twitter_years {
                        *out.twitter_years.entry(year).or_default() += stats;
                    }
                    for (forum, stats) in collection {
                        if let Some((_, e)) = out.collection.iter_mut().find(|(f, _)| *f == forum) {
                            *e += stats;
                        }
                    }
                }
                CollectorMsg::Shard {
                    winners: w,
                    curated,
                    ..
                } => {
                    winners.changed.extend(w.changed);
                    winners.displaced.extend(w.displaced);
                    delta.extend(curated);
                }
            }
        }
        winners.merge_into(&mut out.records);
        delta.sort_by_key(|c| c.post_id);
        // The history takes the messages the shards sent and the delta a
        // copy, which this thread frees at the next cut: freeing the
        // shards' messages here instead cost about 30x as much at scale
        // 1.0 (memory other threads allocated frees slowly).
        self.curated_delta = delta.clone();
        let added = delta.into_iter().map(|c| (c.post_id, Some(Arc::new(c))));
        merge_by_post_id(&mut out.curated_total, added, |c| c.post_id);
        // Every post a curator took in before the cut is in its stats.
        self.at_posts = out.collection.iter().map(|(_, s)| s.posts as u64).sum();
    }
}

/// Run the engine over a post stream. `on_snapshot` fires on the caller's
/// thread, in snapshot order, while ingestion continues in the workers;
/// snapshots come from `plan.snapshots`. It borrows the collector's
/// running copy, so a snapshot costs its interval's delta, never a copy
/// of the history; a consumer that keeps the records clones their
/// handles.
///
/// The returned output is byte-identical (table-for-table) to a
/// single-threaded sequential pass over the same posts, at any shard
/// count. Pass [`Obs::noop`] for an unobserved run — every
/// instrumentation point short-circuits. A worker-thread panic is counted
/// under `exec.engine.worker_panics` and re-raised here with its original
/// payload after the remaining workers drain.
pub fn ingest<'w, I, P, F>(
    world: &'w World,
    posts: I,
    curation: &CurationOptions,
    plan: &ExecPlan,
    obs: &Obs,
    mut on_snapshot: F,
) -> IngestResult<'w>
where
    I: Iterator<Item = P> + Send,
    P: Borrow<Post> + Send,
    F: FnMut(&StreamSnapshot<'w>),
{
    let _run = obs.span("exec.ingest.wall_ns");
    let n_curators = plan.curators.max(1);
    let n_shards = plan.shards.max(1);
    let cap = plan.channel_capacity.max(1);
    let opts = *curation;
    let observing = obs.is_enabled();

    // Worker panic capture: payloads land here, the join path re-raises.
    let panics: Mutex<Vec<Box<dyn std::any::Any + Send>>> = Mutex::new(Vec::new());
    let panic_counter = obs.counter("exec.engine.worker_panics", &[]);

    let (curator_txs, curator_rxs): (Vec<_>, Vec<_>) = (0..n_curators)
        .map(|_| channel::bounded::<CuratorMsg<P>>(cap))
        .unzip();
    let (shard_txs, shard_rxs): (Vec<Sender<ShardMsg>>, Vec<Receiver<ShardMsg>>) =
        (0..n_shards).map(|_| channel::bounded(cap)).unzip();
    let (collector_tx, collector_rx) = channel::bounded::<CollectorMsg>(cap);

    // Handles resolved once; clones into workers share the same atomics.
    let per_shard = |name: &str| -> Vec<Histogram> {
        (0..n_shards)
            .map(|i| obs.histogram(name, &[("shard", &i.to_string())]))
            .collect()
    };
    let shard_enrich = per_shard("exec.shard.enrich_ns");
    let shard_cut = per_shard("exec.shard.cut_ns");
    let shard_delta = per_shard("exec.shard.winner_delta");
    let curate_ns = obs.histogram("exec.curate.post_ns", &[]);
    let snap_cost = obs.histogram("exec.snapshot.cost_ns", &[]);
    let fold_ns = obs.histogram("exec.collector.fold.wall_ns", &[]);
    let snap_counter = obs.counter("exec.snapshot.count", &[]);
    let snapshots: &SnapshotPlan = &plan.snapshots;

    let result = crossbeam::scope(|s| {
        // Feeder: arrival-order fan-out plus marker injection.
        s.spawn({
            let curator_txs = curator_txs;
            let snapshots = snapshots.clone();
            let mut posts = posts;
            let obs = obs.clone();
            let panics = &panics;
            let panic_counter = panic_counter.clone();
            move |_| {
                let body = AssertUnwindSafe(|| {
                    let posts_counter = obs.counter("exec.feeder.posts", &[]);
                    let blocked = obs.counter("exec.feeder.blocked_sends", &[]);
                    let wait = obs.histogram("exec.feeder.backpressure_wait_ns", &[]);
                    let depth: Vec<Gauge> = (0..n_curators)
                        .map(|i| {
                            obs.gauge("exec.curator.channel_depth", &[("curator", &i.to_string())])
                        })
                        .collect();
                    let mut count: u64 = 0;
                    let mut marker_id: u64 = 0;
                    for post in posts.by_ref() {
                        let target = (count % n_curators as u64) as usize;
                        count += 1;
                        posts_counter.inc();
                        let msg = CuratorMsg::Post(post);
                        if !obs_send(&curator_txs[target], msg, &blocked, &wait) {
                            return;
                        }
                        if observing {
                            depth[target].set(curator_txs[target].len() as i64);
                        }
                        if snapshots.fires_at(count) {
                            marker_id += 1;
                            for tx in &curator_txs {
                                if tx.send(CuratorMsg::Marker { id: marker_id }).is_err() {
                                    return;
                                }
                            }
                        }
                    }
                    // Dropping the senders ends every curator's loop.
                });
                if let Err(payload) = catch_unwind(body) {
                    panic_counter.inc();
                    panics.lock().expect("panic sink lock").push(payload);
                }
            }
        });

        // Curators: pure per-post curation + the post counts.
        for (curator_idx, rx) in curator_rxs.into_iter().enumerate() {
            s.spawn({
                let shard_txs = shard_txs.clone();
                let collector_tx = collector_tx.clone();
                let obs = obs.clone();
                let curate_ns = curate_ns.clone();
                let panics = &panics;
                let panic_counter = panic_counter.clone();
                move |_| {
                    let body = AssertUnwindSafe(|| {
                        let label = curator_idx.to_string();
                        let posts_counter =
                            obs.counter("exec.curator.posts", &[("curator", &label)]);
                        let curated_counter =
                            obs.counter("exec.curator.curated", &[("curator", &label)]);
                        let blocked = obs.counter("exec.curator.blocked_sends", &[]);
                        let wait = obs.histogram("exec.curator.backpressure_wait_ns", &[]);
                        // Both count only the interval since the last cut.
                        let mut collection: HashMap<Forum, CollectionStats> = HashMap::new();
                        let mut twitter_years: BTreeMap<i32, CollectionStats> = BTreeMap::new();
                        for msg in rx.iter() {
                            match msg {
                                CuratorMsg::Post(post) => {
                                    let post: &Post = post.borrow();
                                    posts_counter.inc();
                                    let one = CollectionStats {
                                        posts: 1,
                                        images: usize::from(post.body.has_image()),
                                    };
                                    *collection.entry(post.forum).or_default() += one;
                                    if post.forum == Forum::Twitter {
                                        let year = post.posted_at.year();
                                        *twitter_years.entry(year).or_default() += one;
                                    }
                                    if let Some(c) = curate_ns.time(|| curate_post(post, &opts)) {
                                        curated_counter.inc();
                                        // Derived once: the key routes the
                                        // message and keys the shard's
                                        // group table.
                                        let key = c.dedup_key(opts.dedup);
                                        let shard = shard_of(&key, n_shards);
                                        let m = ShardMsg::Curated {
                                            curator: curator_idx,
                                            key,
                                            msg: c,
                                        };
                                        if !obs_send(&shard_txs[shard], m, &blocked, &wait) {
                                            return;
                                        }
                                    }
                                }
                                CuratorMsg::Marker { id } => {
                                    let part = CollectorMsg::Curator {
                                        id,
                                        collection: mem::take(&mut collection),
                                        twitter_years: mem::take(&mut twitter_years),
                                    };
                                    if collector_tx.send(part).is_err() {
                                        return;
                                    }
                                    for tx in &shard_txs {
                                        let m = ShardMsg::Marker {
                                            curator: curator_idx,
                                            id,
                                        };
                                        if tx.send(m).is_err() {
                                            return;
                                        }
                                    }
                                }
                            }
                        }
                        let _ = collector_tx.send(CollectorMsg::Curator {
                            id: END,
                            collection,
                            twitter_years,
                        });
                    });
                    if let Err(payload) = catch_unwind(body) {
                        panic_counter.inc();
                        panics.lock().expect("panic sink lock").push(payload);
                    }
                }
            });
        }
        drop(shard_txs);

        // Analyst shards: dedup winners, sent as a delta at every cut, with marker
        // alignment (messages that overtake a slower curator's marker wait
        // in `deferred`).
        for (shard_idx, rx) in shard_rxs.into_iter().enumerate() {
            s.spawn({
                let collector_tx = collector_tx.clone();
                let obs = obs.clone();
                let enrich_ns = shard_enrich[shard_idx].clone();
                let cut_ns = shard_cut[shard_idx].clone();
                let delta_len = shard_delta[shard_idx].clone();
                let panics = &panics;
                let panic_counter = panic_counter.clone();
                move |_| {
                    let body = AssertUnwindSafe(|| {
                        let label = shard_idx.to_string();
                        let curated_counter =
                            obs.counter("exec.shard.curated", &[("shard", &label)]);
                        let depth = obs.gauge("exec.shard.channel_depth", &[("shard", &label)]);
                        let displaced = obs.counter("exec.shard.displaced", &[("shard", &label)]);
                        // Each shard enriches through the same registry
                        // and retries independently: the client's fault
                        // handling is a pure function of (service, key,
                        // attempt, tick), so per-shard retry loops cannot
                        // diverge from a sequential pass.
                        let registry = EnricherRegistry::standard();
                        let client = ResilientClient::new(&obs);
                        let enrich = |c| enrich_ns.time(|| registry.enrich(&client, c, world));
                        let mut table = GroupTable::new();
                        let apply = |table: &mut GroupTable, key, c: &CuratedMessage| {
                            if table.apply(key, c, enrich) {
                                displaced.inc();
                            }
                        };
                        let cut = |table: &mut GroupTable| {
                            let delta = cut_ns.time(|| table.cut());
                            delta_len.record((delta.changed.len() + delta.displaced.len()) as u64);
                            delta
                        };
                        // Curated messages taken in since the last cut.
                        let mut curated: Vec<CuratedMessage> = Vec::new();
                        let mut marker_seen = vec![0u64; n_curators];
                        let mut completed: u64 = 0;
                        let mut deferred: HashMap<u64, Vec<(String, CuratedMessage)>> =
                            HashMap::new();
                        for msg in rx.iter() {
                            if observing {
                                depth.set(rx.len() as i64);
                            }
                            match msg {
                                ShardMsg::Curated { curator, key, msg } => {
                                    curated_counter.inc();
                                    if marker_seen[curator] == completed {
                                        apply(&mut table, key, &msg);
                                        curated.push(msg);
                                    } else {
                                        deferred
                                            .entry(marker_seen[curator])
                                            .or_default()
                                            .push((key, msg));
                                    }
                                }
                                ShardMsg::Marker { curator, id } => {
                                    debug_assert_eq!(
                                        id,
                                        marker_seen[curator] + 1,
                                        "markers in order"
                                    );
                                    marker_seen[curator] = id;
                                    while marker_seen.iter().all(|&m| m > completed) {
                                        completed += 1;
                                        // Deferred messages for the next
                                        // interval are applied *after* this
                                        // send, so the cut holds exactly
                                        // the ≤-marker messages.
                                        let part = CollectorMsg::Shard {
                                            id: completed,
                                            winners: cut(&mut table),
                                            curated: mem::take(&mut curated),
                                        };
                                        if collector_tx.send(part).is_err() {
                                            return;
                                        }
                                        for (key, c) in
                                            deferred.remove(&completed).unwrap_or_default()
                                        {
                                            apply(&mut table, key, &c);
                                            curated.push(c);
                                        }
                                    }
                                }
                            }
                        }
                        let _ = collector_tx.send(CollectorMsg::Shard {
                            id: END,
                            winners: cut(&mut table),
                            curated,
                        });
                    });
                    if let Err(payload) = catch_unwind(body) {
                        panic_counter.inc();
                        panics.lock().expect("panic sink lock").push(payload);
                    }
                }
            });
        }
        drop(collector_tx);

        // Collector (this thread): fold each cut once all its parts are
        // in, in cut order; the end-of-stream cut completes last.
        let parts_per_cut = n_curators + n_shards;
        let mut pending: HashMap<u64, Vec<CollectorMsg>> = HashMap::new();
        let mut running = StreamSnapshot::empty(world, obs);
        let mut next_cut: u64 = 1;
        // Owned here, so a panicking `on_snapshot` drops the receiver on
        // its way out and the workers' sends fail instead of blocking.
        for part in collector_rx {
            pending.entry(part.id()).or_default().push(part);
            while pending
                .get(&next_cut)
                .is_some_and(|p| p.len() == parts_per_cut)
            {
                let parts = pending.remove(&next_cut).expect("checked");
                snap_cost.time(|| fold_ns.time(|| running.fold(parts)));
                snap_counter.inc();
                on_snapshot(&running);
                next_cut += 1;
            }
        }
        fold_ns.time(|| running.fold(pending.remove(&END).unwrap_or_default()));
        IngestResult {
            posts_ingested: running.at_posts,
            output: running.output,
            curated_delta: running.curated_delta,
            snapshots_taken: (next_cut - 1) as usize,
        }
    })
    // Worker panics are caught inside the scope; a panic in `on_snapshot`
    // is not, and re-raises here once the workers have wound down.
    .unwrap_or_else(|payload| resume_unwind(payload));

    // Join path: surface the first worker panic with its original payload.
    let caught = panics.into_inner().expect("panic sink lock");
    if let Some(payload) = caught.into_iter().next() {
        obs_warn!(
            obs,
            "exec engine worker panicked; re-raising on the caller thread"
        );
        resume_unwind(payload);
    }

    if observing {
        // Exact cross-shard combination of the per-shard histograms.
        for (name, per) in [
            ("exec.shard.enrich_ns", &shard_enrich),
            ("exec.shard.cut_ns", &shard_cut),
            ("exec.shard.winner_delta", &shard_delta),
        ] {
            let all = obs.histogram(name, &[("shard", "all")]);
            for h in per {
                all.merge_from(h);
            }
        }
        obs.counter("exec.engine.posts_ingested", &[])
            .add(result.posts_ingested);
        // The growth gate's input size (`smish perfdiff`), batch or stream.
        obs.counter("pipeline.collect.posts", &[])
            .add(result.posts_ingested);
        let degraded = result.output.records.iter().filter(|r| r.is_degraded());
        obs.counter("exec.engine.degraded_records", &[])
            .add(degraded.count() as u64);
        // Conservation check for the chaos suite: every curated message a
        // curator routed must have reached a shard. Nonzero means a
        // message vanished between workers.
        let routed: u64 = (0..n_curators)
            .map(|i| {
                obs.counter("exec.curator.curated", &[("curator", &i.to_string())])
                    .get()
            })
            .sum();
        let landed: u64 = (0..n_shards)
            .map(|i| {
                obs.counter("exec.shard.curated", &[("shard", &i.to_string())])
                    .get()
            })
            .sum();
        obs.counter("exec.engine.uncounted_drops", &[])
            .add(routed.saturating_sub(landed));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `shard_of` as it was before it called `fnv1a`, verbatim.
    fn shard_of_loop(key: &str, shards: usize) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        (h % shards as u64) as usize
    }

    proptest! {
        #[test]
        fn shard_of_matches_its_former_loop(key in "\\PC{0,40}", shards in 1usize..300) {
            prop_assert_eq!(shard_of(&key, shards), shard_of_loop(&key, shards));
        }
    }

    #[test]
    fn fnv_routing_is_stable_and_in_range() {
        for shards in [1, 2, 4, 8] {
            for key in ["", "a", "hello world", "Ваш пакет"] {
                let s = shard_of(key, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(key, shards), "stable");
            }
        }
    }
}
