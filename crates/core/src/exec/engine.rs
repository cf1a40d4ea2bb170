//! The sharded stage engine — the one execution path behind both the
//! batch [`Pipeline`](crate::pipeline::Pipeline) and streaming ingest.
//!
//! ```text
//!             bounded              bounded                bounded
//!  feeder ──► curator 0 ──┬──► analyst shard 0 ──┬──► collector (caller
//!         ──► curator 1 ──┤ ──► analyst shard 1 ──┤     thread: merges
//!             ...         │     ...               │     snapshots, builds
//!                         └──► shard = fnv(key)%N ┘     the final output)
//! ```
//!
//! * The **feeder** pulls posts from the caller's iterator (the world's
//!   post list for a batch run, a
//!   [`ReportStream`](smishing_worldsim::ReportStream) for a live one) in
//!   arrival order and round-robins them over per-curator bounded
//!   channels. A full channel blocks the feeder — real backpressure,
//!   bounded memory.
//! * **Curators** run the pure per-post curation (`curate_post`), own the
//!   accumulators that do not depend on deduplication (Table 1's volume
//!   and message columns, Tables 11 and 15, Figure 2), derive each curated
//!   message's dedup key and send the message with its key to the analyst
//!   shard owning that key.
//! * **Analyst shards** each own a [`GroupTable`]: the per-key dedup
//!   winner (minimum post id) with its group's report evidence. It is the
//!   program's only dedup-group table. Enrichment runs through the
//!   [`EnricherRegistry`] — the same stage list everywhere — behind a
//!   per-shard [`ResilientClient`]. When a later-arriving but
//!   earlier-posted duplicate displaces a winner, the new record simply
//!   replaces it: nothing has been folded yet. At every cut (a snapshot or
//!   the end of the stream) the shard folds each group once, through its
//!   winner and the evidence it carries ([`AnalysisAccs::add_group`]),
//!   into a fresh bundle it sends, so the bundle always equals a batch
//!   pass over the posts seen so far.
//! * **Snapshots** use aligned markers: the feeder injects a marker after
//!   post `k`; curators forward it to every shard; a shard freezes its
//!   state once markers from *all* curators arrived, buffering any
//!   messages that overtook a slower curator's marker. The merged snapshot
//!   therefore equals the batch pipeline over exactly the first `k` posts,
//!   while ingestion continues behind it.
//!
//! # Ordering invariant
//!
//! The merge step (`assemble`) owns canonical ordering: curated
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
//! bounded channel depth gauges with high-water marks
//! (`exec.{curator,shard}.channel_depth`), backpressure wait histograms
//! (`exec.{feeder,curator}.backpressure_wait_ns`, recorded only when a
//! `try_send` finds the channel full), snapshot cost histograms
//! (`exec.snapshot.cost_ns`) and per-service enrichment meters (each
//! shard owns a `ResilientClient`, so retry, breaker, and degradation
//! counters aggregate across shards through the shared registry, and
//! `exec.engine.{degraded_records,uncounted_drops}` summarize the run).
//! Per-shard enrichment histograms are additionally combined with
//! `Histogram::merge_from` into a `shard="all"` series — exact, like the
//! accumulators' `merge()`. With a no-op handle every instrumentation
//! point short-circuits and the engine runs the pre-observability code
//! path.
//!
//! # Worker panics
//!
//! A panic on any worker thread (feeder, curator, shard) is caught at the
//! thread boundary, counted in `exec.engine.worker_panics`, and re-raised
//! on the caller's thread with its original payload once the remaining
//! workers have drained — never silently swallowed, and never a deadlock:
//! peers detect the closed channels and shut down cleanly.

use super::accs::AnalysisAccs;
use super::{ExecPlan, SnapshotPlan};
use crate::collect::CollectionStats;
use crate::curation::{curate_post, CuratedMessage, CurationOptions};
use crate::enrich::{EnrichedRecord, EnricherRegistry, ResilientClient};
use crate::pipeline::PipelineOutput;
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use smishing_obs::{obs_warn, Counter, Gauge, Histogram, Obs};
use smishing_types::Forum;
use smishing_worldsim::{Post, World};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// A consistent mid-stream view: an assembled [`PipelineOutput`], merged
/// accumulators included, equal to a batch run over the first
/// [`at_posts`](Self::at_posts) posts.
pub struct StreamSnapshot<'w> {
    /// How many posts the snapshot covers.
    pub at_posts: u64,
    /// Batch-equivalent assembled output (render the accumulator-backed
    /// tables via [`AnalysisAccs::tables`] on its `accs`).
    pub output: PipelineOutput<'w>,
    /// Curated messages (duplicates included) that arrived since the
    /// previous snapshot marker — the delta an incremental consumer
    /// (e.g. `IntelSnapshot::build_incremental`) applies on top of its
    /// previous epoch. Sorted by post id; the concatenation of every
    /// snapshot's delta plus the end-of-stream delta is exactly
    /// `curated_total`, each message appearing once.
    pub curated_delta: Vec<CuratedMessage>,
}

/// The end-of-stream result.
pub struct IngestResult<'w> {
    /// Assembled output, merged accumulators included — identical to
    /// `Pipeline::run` over the same posts.
    pub output: PipelineOutput<'w>,
    /// Curated messages that arrived after the last snapshot marker (the
    /// whole stream when no snapshot fired). Sorted by post id.
    pub curated_delta: Vec<CuratedMessage>,
    /// Posts consumed from the stream.
    pub posts_ingested: u64,
    /// Snapshots emitted.
    pub snapshots_taken: usize,
}

#[derive(Debug)]
enum CuratorMsg {
    // Boxed: a Post is ~336 bytes, a marker 16; boxing keeps the queued
    // enum small and the channel buffers cheap.
    Post(Box<Post>),
    Marker { id: u64, at_posts: u64 },
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
        at_posts: u64,
    },
}

#[derive(Debug)]
enum CollectorMsg {
    CuratorSnap {
        id: u64,
        accs: AnalysisAccs,
        collection: HashMap<Forum, CollectionStats>,
    },
    CuratorDone {
        accs: AnalysisAccs,
        collection: HashMap<Forum, CollectionStats>,
    },
    ShardSnap {
        id: u64,
        at_posts: u64,
        accs: AnalysisAccs,
        curated: Vec<CuratedMessage>,
        curated_delta: Vec<CuratedMessage>,
        records: Vec<EnrichedRecord>,
    },
    ShardDone {
        accs: AnalysisAccs,
        curated: Vec<CuratedMessage>,
        curated_delta: Vec<CuratedMessage>,
        records: Vec<EnrichedRecord>,
    },
}

/// Stable routing hash (FNV-1a) so a dedup key always lands on the same
/// shard, across runs and platforms.
fn shard_of(key: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// Send with backpressure accounting. When the wait histogram is live, a
/// full channel is detected with `try_send` first, so only genuinely
/// blocked sends pay for a clock read; when disabled this is a plain
/// `send`. Returns `false` when the receiver is gone (it panicked —
/// the caller winds down and the panic is surfaced by the join path).
fn obs_send<T>(tx: &Sender<T>, msg: T, blocked: &Counter, wait: &Histogram) -> bool {
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
/// evidence. Nothing is folded until a cut, so a displaced winner leaves
/// no trace.
#[derive(Debug, Default)]
pub struct GroupTable {
    winners: HashMap<String, EnrichedRecord>,
}

impl GroupTable {
    /// New empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one curated message under its dedup key. `enrich` runs only
    /// when the message becomes its group's winner.
    pub fn apply(
        &mut self,
        key: String,
        c: &CuratedMessage,
        enrich: impl FnOnce(CuratedMessage) -> EnrichedRecord,
    ) {
        match self.winners.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(enrich(c.clone()));
            }
            Entry::Occupied(mut slot) => {
                let winner = slot.get_mut();
                if c.post_id < winner.curated.post_id {
                    let mut rec = enrich(c.clone());
                    rec.evidence = winner.evidence;
                    rec.evidence.absorb(c);
                    *winner = rec;
                } else {
                    winner.evidence.absorb(c);
                }
            }
        }
    }

    /// The table at a cut: its winners (in no particular order), and a
    /// fresh bundle with each group folded in once
    /// ([`AnalysisAccs::add_group`]).
    pub fn cut(&self) -> (AnalysisAccs, Vec<EnrichedRecord>) {
        with_groups(self.winners.values().cloned().collect())
    }

    /// [`GroupTable::cut`], consuming the table.
    pub fn into_cut(self) -> (AnalysisAccs, Vec<EnrichedRecord>) {
        with_groups(self.winners.into_values().collect())
    }
}

fn with_groups(records: Vec<EnrichedRecord>) -> (AnalysisAccs, Vec<EnrichedRecord>) {
    let mut accs = AnalysisAccs::new();
    for r in &records {
        accs.add_group(r);
    }
    (accs, records)
}

/// Parts of one in-flight snapshot at the collector.
#[derive(Default)]
struct SnapParts {
    at_posts: u64,
    accs: Vec<AnalysisAccs>,
    collections: Vec<HashMap<Forum, CollectionStats>>,
    curated: Vec<Vec<CuratedMessage>>,
    curated_delta: Vec<Vec<CuratedMessage>>,
    records: Vec<Vec<EnrichedRecord>>,
    parts: usize,
}

/// Merge per-shard curated deltas into one post-id-sorted vector — the
/// same canonical ordering [`assemble`] gives `curated_total`, so the
/// delta is a pure function of the post multiset too.
fn assemble_delta(parts: Vec<Vec<CuratedMessage>>) -> Vec<CuratedMessage> {
    let mut delta: Vec<CuratedMessage> = parts.into_iter().flatten().collect();
    delta.sort_by_key(|c| c.post_id);
    delta
}

/// Deterministically assemble worker parts into a batch-identical
/// [`PipelineOutput`].
///
/// This is the engine's **canonical-ordering step** (see the module
/// docs): whatever order worker parts arrive in, `curated_total` and
/// `records` leave sorted by post id and `collection` lists forums in
/// `Forum::ALL` order. Every frontend inherits its output ordering from
/// here — it is an engine invariant, not a frontend courtesy sort. The
/// workers' accumulator bundles merge into the output's `accs`; merges
/// are exact and order-free, so arrival order cannot move them either.
fn assemble<'w>(
    world: &'w World,
    accs: Vec<AnalysisAccs>,
    collections: Vec<HashMap<Forum, CollectionStats>>,
    curated: Vec<Vec<CuratedMessage>>,
    records: Vec<Vec<EnrichedRecord>>,
) -> PipelineOutput<'w> {
    let mut merged_accs = AnalysisAccs::new();
    for part in accs {
        merged_accs.merge(part);
    }
    let mut merged: HashMap<Forum, CollectionStats> = HashMap::new();
    for part in collections {
        for (forum, stats) in part {
            let e = merged.entry(forum).or_default();
            e.posts += stats.posts;
            e.images += stats.images;
        }
    }
    let collection: Vec<(Forum, CollectionStats)> = Forum::ALL
        .iter()
        .map(|&f| (f, merged.get(&f).copied().unwrap_or_default()))
        .collect();
    let mut curated_total: Vec<CuratedMessage> = curated.into_iter().flatten().collect();
    curated_total.sort_by_key(|c| c.post_id);
    let mut records: Vec<EnrichedRecord> = records.into_iter().flatten().collect();
    records.sort_by_key(|r| r.curated.post_id);
    PipelineOutput {
        world,
        collection,
        curated_total,
        records,
        accs: merged_accs,
    }
}

/// Run the engine over a post stream. `on_snapshot` fires on the caller's
/// thread, in snapshot order, while ingestion continues in the workers;
/// snapshots come from `plan.snapshots`.
///
/// The returned output is byte-identical (table-for-table) to a
/// single-threaded sequential pass over the same posts, at any shard
/// count. Pass [`Obs::noop`] for an unobserved run — every
/// instrumentation point short-circuits. A worker-thread panic is counted
/// under `exec.engine.worker_panics` and re-raised here with its original
/// payload after the remaining workers drain.
pub fn ingest<'w, I, F>(
    world: &'w World,
    posts: I,
    curation: &CurationOptions,
    plan: &ExecPlan,
    obs: &Obs,
    mut on_snapshot: F,
) -> IngestResult<'w>
where
    I: Iterator<Item = Post> + Send,
    F: FnMut(StreamSnapshot<'w>),
{
    let n_curators = plan.curators.max(1);
    let n_shards = plan.shards.max(1);
    let cap = plan.channel_capacity.max(1);
    let opts = *curation;
    let observing = obs.is_enabled();

    // Worker panic capture: payloads land here, the join path re-raises.
    let panics: Mutex<Vec<Box<dyn std::any::Any + Send>>> = Mutex::new(Vec::new());
    let panic_counter = obs.counter("exec.engine.worker_panics", &[]);

    let (curator_txs, curator_rxs): (Vec<Sender<CuratorMsg>>, Vec<Receiver<CuratorMsg>>) =
        (0..n_curators).map(|_| channel::bounded(cap)).unzip();
    let (shard_txs, shard_rxs): (Vec<Sender<ShardMsg>>, Vec<Receiver<ShardMsg>>) =
        (0..n_shards).map(|_| channel::bounded(cap)).unzip();
    let (collector_tx, collector_rx) = channel::bounded::<CollectorMsg>(cap);

    // Handles resolved once; clones into workers share the same atomics.
    let shard_enrich: Vec<Histogram> = (0..n_shards)
        .map(|i| obs.histogram("exec.shard.enrich_ns", &[("shard", &i.to_string())]))
        .collect();
    let snap_cost = obs.histogram("exec.snapshot.cost_ns", &[]);
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
                        let msg = CuratorMsg::Post(Box::new(post));
                        if !obs_send(&curator_txs[target], msg, &blocked, &wait) {
                            return;
                        }
                        if observing {
                            depth[target].set(curator_txs[target].len() as i64);
                        }
                        if snapshots.fires_at(count) {
                            marker_id += 1;
                            for tx in &curator_txs {
                                let m = CuratorMsg::Marker {
                                    id: marker_id,
                                    at_posts: count,
                                };
                                if tx.send(m).is_err() {
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

        // Curators: pure per-post curation + the dedup-free accumulators.
        for (curator_idx, rx) in curator_rxs.into_iter().enumerate() {
            s.spawn({
                let shard_txs = shard_txs.clone();
                let collector_tx = collector_tx.clone();
                let obs = obs.clone();
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
                        let mut accs = AnalysisAccs::new();
                        let mut collection: HashMap<Forum, CollectionStats> = HashMap::new();
                        for msg in rx.iter() {
                            match msg {
                                CuratorMsg::Post(post) => {
                                    posts_counter.inc();
                                    accs.add_post(&post);
                                    let e = collection.entry(post.forum).or_default();
                                    e.posts += 1;
                                    if post.body.has_image() {
                                        e.images += 1;
                                    }
                                    if let Some(c) = curate_post(&post, &opts) {
                                        curated_counter.inc();
                                        accs.add_curated(&c);
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
                                CuratorMsg::Marker { id, at_posts } => {
                                    let snap = CollectorMsg::CuratorSnap {
                                        id,
                                        accs: accs.clone(),
                                        collection: collection.clone(),
                                    };
                                    if collector_tx.send(snap).is_err() {
                                        return;
                                    }
                                    for tx in &shard_txs {
                                        let m = ShardMsg::Marker {
                                            curator: curator_idx,
                                            id,
                                            at_posts,
                                        };
                                        if tx.send(m).is_err() {
                                            return;
                                        }
                                    }
                                }
                            }
                        }
                        let _ = collector_tx.send(CollectorMsg::CuratorDone { accs, collection });
                    });
                    if let Err(payload) = catch_unwind(body) {
                        panic_counter.inc();
                        panics.lock().expect("panic sink lock").push(payload);
                    }
                }
            });
        }
        drop(shard_txs);

        // Analyst shards: dedup winners, folded at every cut, with marker
        // alignment (messages that overtake a slower curator's marker wait
        // in `deferred`).
        for (shard_idx, rx) in shard_rxs.into_iter().enumerate() {
            s.spawn({
                let collector_tx = collector_tx.clone();
                let obs = obs.clone();
                let enrich_ns = shard_enrich[shard_idx].clone();
                let panics = &panics;
                let panic_counter = panic_counter.clone();
                move |_| {
                    let body = AssertUnwindSafe(|| {
                        let label = shard_idx.to_string();
                        let curated_counter =
                            obs.counter("exec.shard.curated", &[("shard", &label)]);
                        let depth = obs.gauge("exec.shard.channel_depth", &[("shard", &label)]);
                        // Each shard enriches through the same registry
                        // and retries independently: the client's fault
                        // handling is a pure function of (service, key,
                        // attempt, tick), so per-shard retry loops cannot
                        // diverge from a sequential pass.
                        let registry = EnricherRegistry::standard();
                        let client = ResilientClient::new(&obs);
                        let enrich = |c| enrich_ns.time(|| registry.enrich(&client, c, world));
                        let mut table = GroupTable::new();
                        let mut curated: Vec<CuratedMessage> = Vec::new();
                        // Watermark into `curated` at the last emitted
                        // marker: everything past it is this shard's delta
                        // for the next snapshot interval.
                        let mut snap_mark: usize = 0;
                        let mut marker_seen = vec![0u64; n_curators];
                        let mut completed: u64 = 0;
                        let mut deferred: HashMap<u64, Vec<(String, CuratedMessage)>> =
                            HashMap::new();
                        let mut marker_posts: HashMap<u64, u64> = HashMap::new();
                        for msg in rx.iter() {
                            if observing {
                                depth.set(rx.len() as i64);
                            }
                            match msg {
                                ShardMsg::Curated { curator, key, msg } => {
                                    curated_counter.inc();
                                    if marker_seen[curator] == completed {
                                        table.apply(key, &msg, enrich);
                                        curated.push(msg);
                                    } else {
                                        deferred
                                            .entry(marker_seen[curator])
                                            .or_default()
                                            .push((key, msg));
                                    }
                                }
                                ShardMsg::Marker {
                                    curator,
                                    id,
                                    at_posts,
                                } => {
                                    debug_assert_eq!(
                                        id,
                                        marker_seen[curator] + 1,
                                        "markers in order"
                                    );
                                    marker_seen[curator] = id;
                                    marker_posts.insert(id, at_posts);
                                    while marker_seen.iter().all(|&m| m > completed) {
                                        completed += 1;
                                        let at = marker_posts
                                            .remove(&completed)
                                            .expect("marker position recorded");
                                        // Deferred messages for the next
                                        // interval are applied *after* this
                                        // send, so `curated` holds exactly
                                        // the ≤-marker messages here.
                                        let (accs, records) = table.cut();
                                        let snap = CollectorMsg::ShardSnap {
                                            id: completed,
                                            at_posts: at,
                                            accs,
                                            curated: curated.clone(),
                                            curated_delta: curated[snap_mark..].to_vec(),
                                            records,
                                        };
                                        snap_mark = curated.len();
                                        if collector_tx.send(snap).is_err() {
                                            return;
                                        }
                                        for (key, c) in
                                            deferred.remove(&completed).unwrap_or_default()
                                        {
                                            table.apply(key, &c, enrich);
                                            curated.push(c);
                                        }
                                    }
                                }
                            }
                        }
                        let curated_delta = curated[snap_mark..].to_vec();
                        let (accs, records) = table.into_cut();
                        let _ = collector_tx.send(CollectorMsg::ShardDone {
                            accs,
                            curated,
                            curated_delta,
                            records,
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

        // Collector (this thread): merge snapshot parts in id order, then
        // the final state.
        let parts_per_snapshot = n_curators + n_shards;
        let mut pending: HashMap<u64, SnapParts> = HashMap::new();
        let mut next_emit: u64 = 1;
        let mut snapshots_taken = 0usize;
        let mut final_accs: Vec<AnalysisAccs> = Vec::new();
        let mut final_collections: Vec<HashMap<Forum, CollectionStats>> = Vec::new();
        let mut final_curated: Vec<Vec<CuratedMessage>> = Vec::new();
        let mut final_curated_delta: Vec<Vec<CuratedMessage>> = Vec::new();
        let mut final_records: Vec<Vec<EnrichedRecord>> = Vec::new();
        for msg in collector_rx.iter() {
            match msg {
                CollectorMsg::CuratorSnap {
                    id,
                    accs,
                    collection,
                } => {
                    let p = pending.entry(id).or_default();
                    p.accs.push(accs);
                    p.collections.push(collection);
                    p.parts += 1;
                }
                CollectorMsg::ShardSnap {
                    id,
                    at_posts,
                    accs,
                    curated,
                    curated_delta,
                    records,
                } => {
                    let p = pending.entry(id).or_default();
                    p.at_posts = at_posts;
                    p.accs.push(accs);
                    p.curated.push(curated);
                    p.curated_delta.push(curated_delta);
                    p.records.push(records);
                    p.parts += 1;
                }
                CollectorMsg::CuratorDone { accs, collection } => {
                    final_accs.push(accs);
                    final_collections.push(collection);
                }
                CollectorMsg::ShardDone {
                    accs,
                    curated,
                    curated_delta,
                    records,
                } => {
                    final_accs.push(accs);
                    final_curated.push(curated);
                    final_curated_delta.push(curated_delta);
                    final_records.push(records);
                }
            }
            while pending
                .get(&next_emit)
                .is_some_and(|p| p.parts == parts_per_snapshot)
            {
                let p = pending.remove(&next_emit).expect("checked");
                let (output, curated_delta) = snap_cost.time(|| {
                    let output = assemble(world, p.accs, p.collections, p.curated, p.records);
                    (output, assemble_delta(p.curated_delta))
                });
                snap_counter.inc();
                on_snapshot(StreamSnapshot {
                    at_posts: p.at_posts,
                    output,
                    curated_delta,
                });
                snapshots_taken += 1;
                next_emit += 1;
            }
        }
        let posts_ingested = final_collections
            .iter()
            .flat_map(|m| m.values())
            .map(|s| s.posts as u64)
            .sum();
        let output = assemble(
            world,
            final_accs,
            final_collections,
            final_curated,
            final_records,
        );
        let curated_delta = assemble_delta(final_curated_delta);
        IngestResult {
            output,
            curated_delta,
            posts_ingested,
            snapshots_taken,
        }
    })
    .expect("worker panics are caught inside the scope");

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
        // Exact cross-shard combination of the per-shard enrichment
        // histograms, mirroring the accumulators' merge().
        let all = obs.histogram("exec.shard.enrich_ns", &[("shard", "all")]);
        for h in &shard_enrich {
            all.merge_from(h);
        }
        obs.counter("exec.engine.posts_ingested", &[])
            .add(result.posts_ingested);
        obs.counter("exec.engine.degraded_records", &[])
            .add(result.output.accs.degraded_records);
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
