//! `smish` — the command-line face of the workspace.
//!
//! ```text
//! smish generate --scale 0.1 --seed 7 --out ./dataset   # export the pseudo-anonymized dataset
//! smish run      --scale 0.1 [--experiment T10]         # regenerate paper tables
//! smish analyze  ...                                    # alias of `run`
//! smish detect   --scale 0.1                            # §7.2 detection studies
//! smish link     --scale 0.1                            # campaign-linking ablation
//! smish mitigate --scale 0.1                            # §7.2 what-if coverage
//! smish stream   --scale 0.1 --shards 4                 # replay as a live feed
//! smish stream   --scale 0.1 --adversary rotation       # …with drifting campaigns
//! smish watch    --scale 0.1 --posts 50000              # infinite-feed soak
//! smish drift    --scale 0.05 --adversary rotation      # per-epoch drift scorecard
//! smish serve    --scale 0.1 [--stream]                 # answer queries on stdin/stdout
//! smish serve    --scale 0.1 --serve-workers 4          # …over a multi-worker serve plane
//! smish serve    --stream --checkpoint ck.json          # …resumable: restart picks up the epoch clock
//! smish query    url hxxps://evil[.]com/x               # one-shot lookup
//! smish query    near Your parcel is held, pay at ...   # similarity lookup
//! smish query    explain Your account is locked, go to…  # one-shot + span tree
//! smish perfdiff small.json large.json                   # growth gate: no layer above n^1.5
//! ```
//!
//! Commands dispatch through one table (name → handler); the usage line
//! is generated from the same table, so the two cannot drift — a unit
//! test pins the invariant anyway.
//!
//! `serve` builds the intelligence store (`smishing-intel`) from a batch
//! run — or, with `--stream`, republishes it live from every aligned
//! stream snapshot while queries are being answered — then speaks the
//! line protocol of `smishing::intel::serve_session` on stdin/stdout.
//! Every query is answered by `Triage::answer`; a request line that is
//! not UTF-8 or longer than 64 KiB gets an `err` reply and the
//! session goes on. An IO error on stdin/stdout is logged and exits 1.
//! Streamed republishes are incremental: epoch 1 builds the store from
//! scratch, and every later epoch reuses the previous store's entries
//! for every dedup winner that did not change. `--intel-window SECS` ages entries
//! out: a dedup group last reported more than SECS before the newest
//! report is evicted at the next republish (and its keys go back to
//! missing). `--checkpoint PATH` persists a resumable checkpoint at
//! every published epoch; restarting with the same flags replays the
//! verified prefix without republishing it and re-enters the epoch
//! sequence where the interrupted server left off. A checkpoint the
//! replay does not reproduce (other flags, an edited file) is an error
//! line and exit 1 once the replay ends.
//! `query <url|sender|msg|near|explain> <value>` is the one-shot form,
//! printing exactly the line `serve` would for the same request; defanged
//! (`hxxps://`, `[.]`, `(dot)`) and homoglyph spellings normalize to the
//! same verdict as the clean string. `near` skips the exact pivots and
//! asks the snapshot's SimHash similarity tier directly: it reports the
//! closest indexed lure (campaign template id, Hamming distance, n-gram
//! Jaccard) even when the URL and sender are fresh.
//! `perfdiff SMALL LARGE` is the growth gate: it reads two reports of one
//! command at two input sizes (the `pipeline.collect.posts` counter, at
//! least 2x apart) and exits 1 when an unlabelled `*.wall_ns` layer of at
//! least 5 ms grows faster than posts^1.5. It exits 2 on unreadable
//! reports, swapped sizes or a missing size counter.
//!
//! Every command accepts the shared [`RunConfig`] flags (the same
//! vocabulary `repro` uses):
//!
//! * `--shards N` / `--curators N` / `--channel-capacity N` — worker
//!   topology of the execution core. Never changes the output, only the
//!   parallelism: batch and stream both run the same sharded engine.
//! * `--serve-workers N` / `--queue-depth M` — topology of the `serve`
//!   plane: N triage workers behind a bounded admission queue of M
//!   requests, with in-order reply reassembly (stdout stays
//!   byte-identical to the default inline loop; a full queue sheds
//!   requests into the `serve.shed` counter instead of blocking).
//! * `--metrics-json PATH` — write the run report (schema
//!   `smishing-obs/v1`) to `PATH` on completion.
//! * `--metrics-text` — print a Prometheus-style text exposition to
//!   stdout on completion.
//! * `--log-level LEVEL` — `error|warn|info|debug|trace` (default
//!   `info`); progress goes to stderr through the leveled logger.
//! * `--quiet` — shorthand for `--log-level error`.
//! * `--adversary PROFILE[:SEED]` — run a seeded campaign-evolution plan
//!   (`none|rotation|respell|shorteners|funnels|full`) against the triage
//!   ladder. Funnel archetypes are grafted into the world at generation;
//!   rotation waves are injected into the `stream` / `serve --stream`
//!   replay at epoch boundaries. `smish drift` measures the effect as a
//!   per-epoch scorecard (rung-attributed recall, time-to-reacquire). The
//!   default (`none`) keeps every output byte-identical to a plan-free run.
//! * `--fault-profile none|mild|harsh[:SEED]` — install a deterministic
//!   fault plan on the world's services before the pipeline queries them
//!   (default `none`: byte-identical to a fault-free run). A bare integer
//!   is shorthand for `mild:SEED`. Failures degrade records instead of
//!   dropping them; the run report's `enrich.*` counters show retries,
//!   breaker trips, and degraded-record totals.

use smishing::adversary::{drift_scorecard, AdversaryWorld, DriftOptions};
use smishing::core::analysis::freshness::domain_freshness;
use smishing::core::analysis::latency::report_latency;
use smishing::core::analysis::linking::linking_ablation;
use smishing::core::analysis::mitigation::mitigation_study;
use smishing::core::dataset;
use smishing::core::exec::{ingest, resume, Checkpoint, ServeState, SnapshotPlan, StreamSnapshot};
use smishing::core::experiment::run_all;
use smishing::core::pipeline::PipelineOutput;
use smishing::core::runcfg::{parse_count, RunConfig};
use smishing::detect::{binary_study, multiclass_study_grouped};
use smishing::intel::{
    explain, reply_line, serve_session, serve_workers, AdversaryGauge, BuildOptions, IntelHub,
    IntelSnapshot, Query, ServeOptions, SnapshotDelta, Triage, TriageConfig, WorkerPlan,
};
use smishing::obs::perfdiff::GROWTH_LIMIT;
use smishing::obs::{growth_diff, obs_error, obs_info, parse_report, Obs, Tracer, TracerConfig};
use smishing::prelude::*;
use smishing::worldsim::{Post, ReportStream, World};
use std::io::Write;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    command: String,
    cfg: RunConfig,
    out: Option<String>,
    experiment: Option<String>,
    snapshot_every: Option<u64>,
    posts: Option<u64>,
    /// `serve --stream`: republish the store from live stream snapshots.
    stream_mode: bool,
    /// `serve --stream --checkpoint PATH`: persist a resumable checkpoint
    /// at every published epoch; an existing file resumes the epoch clock.
    checkpoint: Option<String>,
    /// Bare (non-flag) operands, e.g. `query url https://...`.
    positional: Vec<String>,
}

/// How a subcommand consumes the shared setup in `main`.
enum Handler {
    /// Needs the simulated world (pipeline/stream/serve commands).
    World(fn(&Args, &Obs, &World)),
    /// Pure plumbing over files and reports — skips world generation,
    /// so e.g. the growth gate costs milliseconds, not a synthesis run.
    Plain(fn(&Args, &Obs)),
}

/// The single source of truth for subcommands: `(name, summary, handler)`.
/// `usage()` and dispatch both read this table.
const COMMANDS: &[(&str, &str, Handler)] = &[
    (
        "generate",
        "export the pseudo-anonymized dataset",
        Handler::World(cmd_generate),
    ),
    ("run", "regenerate paper tables", Handler::World(cmd_run)),
    ("analyze", "alias of `run`", Handler::World(cmd_run)),
    (
        "detect",
        "§7.2 detection studies",
        Handler::World(cmd_detect),
    ),
    (
        "link",
        "campaign-linking ablation",
        Handler::World(cmd_link),
    ),
    (
        "mitigate",
        "§7.2 what-if coverage",
        Handler::World(cmd_mitigate),
    ),
    (
        "stream",
        "replay reports as a live feed",
        Handler::World(cmd_stream),
    ),
    ("watch", "infinite-feed soak", Handler::World(cmd_watch)),
    (
        "drift",
        "per-epoch drift scorecard under an adversary profile",
        Handler::World(cmd_drift),
    ),
    (
        "serve",
        "answer intel queries on stdin/stdout",
        Handler::World(cmd_serve),
    ),
    (
        "query",
        "one-shot lookup: query <url|sender|msg|near|explain> <value>",
        Handler::World(cmd_query),
    ),
    (
        "perfdiff",
        "growth gate over two run reports (SMALL LARGE); exit 1 on regression",
        Handler::Plain(cmd_perfdiff),
    ),
];

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(usage)?;
    let mut args = Args {
        command,
        cfg: RunConfig::default(),
        out: None,
        experiment: None,
        snapshot_every: None,
        posts: None,
        stream_mode: false,
        checkpoint: None,
        positional: Vec::new(),
    };
    while let Some(flag) = argv.next() {
        if args.cfg.parse_flag(&flag, &mut || argv.next())? {
            continue;
        }
        let mut take = |name: &str| -> Result<String, String> {
            argv.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--out" => args.out = Some(take("--out")?),
            "--experiment" => args.experiment = Some(take("--experiment")?),
            "--snapshot-every" => {
                let raw = take("--snapshot-every")?;
                args.snapshot_every =
                    Some(parse_count("--snapshot-every", &raw, 1, usize::MAX)? as u64)
            }
            "--posts" => {
                let raw = take("--posts")?;
                args.posts = Some(parse_count("--posts", &raw, 1, usize::MAX)? as u64)
            }
            "--stream" => args.stream_mode = true,
            "--checkpoint" => args.checkpoint = Some(take("--checkpoint")?),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}\n{}", usage()))
            }
            operand => args.positional.push(operand.to_string()),
        }
    }
    Ok(args)
}

fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|(name, _, _)| *name).collect();
    format!(
        "usage: smish <{}> \
         [--out DIR] [--experiment ID] [--snapshot-every POSTS] [--posts N] [--stream] \
         [--checkpoint PATH] \
         {}",
        names.join("|"),
        RunConfig::FLAGS_USAGE
    )
}

/// Batch commands all funnel through here: one pipeline run, same engine
/// as the streaming commands.
fn run_pipeline<'w>(args: &Args, obs: &Obs, world: &'w World) -> PipelineOutput<'w> {
    let output = args.cfg.pipeline().run(world, obs);
    obs_info!(obs, "pipeline: {} unique records", output.records.len());
    output
}

fn cmd_generate(args: &Args, _obs: &Obs, world: &World) {
    let output = run_pipeline(args, _obs, world);
    let rows = dataset::build_dataset(&output.records);
    dataset::validate_anonymization(&rows).expect("anonymization contract");
    let dir = args.out.clone().unwrap_or_else(|| "dataset".to_string());
    std::fs::create_dir_all(&dir).expect("create output dir");
    let json = dataset::to_json(&rows).expect("serialize");
    let csv = dataset::to_csv(&rows);
    std::fs::File::create(format!("{dir}/smishing-dataset.json"))
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .expect("write json");
    std::fs::File::create(format!("{dir}/smishing-dataset.csv"))
        .and_then(|mut f| f.write_all(csv.as_bytes()))
        .expect("write csv");
    println!(
        "wrote {} rows to {dir}/smishing-dataset.{{json,csv}}",
        rows.len()
    );
}

fn cmd_run(args: &Args, obs: &Obs, world: &World) {
    let output = run_pipeline(args, obs, world);
    let results = run_all(&output, obs);
    let mut shown = 0;
    for r in &results {
        if let Some(want) = &args.experiment {
            if !r.id.eq_ignore_ascii_case(want) {
                continue;
            }
        }
        shown += 1;
        println!("[{}] paper: {}", r.id, r.paper);
        println!("{}", r.table);
        for (desc, ok) in &r.checks {
            println!("  [{}] {desc}", if *ok { "PASS" } else { "FAIL" });
        }
        println!();
    }
    if shown == 0 {
        obs_error!(obs, "no experiment matched {:?}", args.experiment);
        std::process::exit(2);
    }
}

fn cmd_detect(args: &Args, obs: &Obs, world: &World) {
    let texts: Vec<String> = world.messages.iter().map(|m| m.text.clone()).collect();
    let binary = obs
        .histogram("detect.binary.wall_ns", &[])
        .time(|| binary_study(&texts, args.cfg.seed))
        .expect("corpus");
    println!(
        "binary smish-vs-ham:        accuracy {:.1}%  macro-F1 {:.3}  (n={})",
        binary.report.accuracy * 100.0,
        binary.report.macro_f1,
        binary.report.n
    );
    let labeled: Vec<(String, ScamType, u32)> = world
        .messages
        .iter()
        .map(|m| (m.text.clone(), m.truth.scam_type, m.campaign.0))
        .collect();
    let grouped = obs
        .histogram("detect.multiclass.wall_ns", &[])
        .time(|| multiclass_study_grouped(&labeled, args.cfg.seed))
        .expect("corpus");
    println!(
        "typology (campaign-held-out): accuracy {:.1}%  macro-F1 {:.3}  (n={})",
        grouped.report.accuracy * 100.0,
        grouped.report.macro_f1,
        grouped.report.n
    );
}

fn cmd_link(args: &Args, obs: &Obs, world: &World) {
    let output = run_pipeline(args, obs, world);
    let (_, table) = linking_ablation(&output);
    println!("{table}");
}

fn cmd_mitigate(args: &Args, obs: &Obs, world: &World) {
    let output = run_pipeline(args, obs, world);
    println!("{}", mitigation_study(&output).to_table());
    println!("{}", domain_freshness(&output).to_table());
    println!("{}", report_latency(&output).to_table());
}

fn cmd_stream(args: &Args, obs: &Obs, world: &World) {
    // Chronological replay through the sharded engine; snapshots
    // report progress without pausing ingestion, and the final
    // merged accumulators render the same tables, under the same ids,
    // as `run`.
    let epoch_posts = args
        .snapshot_every
        .unwrap_or((world.posts.len() as u64 / 4).max(1));
    let plan = args
        .cfg
        .exec
        .clone()
        .with_snapshots(SnapshotPlan::every(epoch_posts));
    let adv = AdversaryWorld::build(world, epoch_posts);
    if !adv.waves.is_empty() {
        obs_info!(
            obs,
            "adversary {}: {} rotation waves over {} epochs",
            adv.plan,
            adv.waves.len(),
            adv.n_epochs()
        );
    }
    let posts: Box<dyn Iterator<Item = Post> + Send + '_> = if adv.waves.is_empty() {
        Box::new(ReportStream::replay(world))
    } else {
        Box::new(adv.stream())
    };
    let result = ingest(world, posts, &args.cfg.curation, &plan, obs, |s| {
        obs_info!(
            obs,
            "snapshot @ {:>7} posts: {} curated / {} unique records",
            s.at_posts,
            s.output.curated_total.len(),
            s.output.records.len()
        );
    });
    obs_info!(
        obs,
        "stream: {} posts through {} shards, {} snapshots",
        result.posts_ingested,
        plan.shards,
        result.snapshots_taken
    );
    let mut shown = 0;
    for (id, table) in result.output.accs.tables() {
        if let Some(want) = &args.experiment {
            if !id.eq_ignore_ascii_case(want) {
                continue;
            }
        }
        shown += 1;
        println!("[{id}]\n{table}\n");
    }
    if shown == 0 {
        obs_error!(obs, "no experiment matched {:?}", args.experiment);
        std::process::exit(2);
    }
}

fn cmd_watch(args: &Args, obs: &Obs, world: &World) {
    // Infinite-feed soak: the world's reports loop forever with
    // fresh post ids and advancing timestamps. Bounded by --posts
    // (default two laps) so the command terminates.
    let lap = world.posts.len() as u64;
    let budget = args.posts.unwrap_or(2 * lap);
    let every = args.snapshot_every.unwrap_or((lap / 2).max(1));
    let plan = args
        .cfg
        .exec
        .clone()
        .with_snapshots(SnapshotPlan::every(every));
    let result = ingest(
        world,
        ReportStream::soak(world).take(budget as usize),
        &args.cfg.curation,
        &plan,
        obs,
        |s| {
            obs_info!(
                obs,
                "[lap {}] {:>7} posts: {} curated / {} unique records",
                s.at_posts / lap,
                s.at_posts,
                s.output.curated_total.len(),
                s.output.records.len()
            );
            if let Some(want) = &args.experiment {
                for (id, table) in s.output.accs.tables() {
                    if id.eq_ignore_ascii_case(want) {
                        println!("{table}");
                    }
                }
            }
        },
    );
    println!(
        "soak done: {} posts ({:.1} laps), {} snapshots",
        result.posts_ingested,
        result.posts_ingested as f64 / lap as f64,
        result.snapshots_taken
    );
}

fn cmd_drift(args: &Args, obs: &Obs, world: &World) {
    // Run the adversarial stream through the incremental intel plane and
    // probe each wave's rotated URL at every epoch boundary: how far did
    // exact-rung recall fall, which rung caught the probe instead, and
    // how many epochs until the rotated infrastructure was reacquired.
    let opts = DriftOptions {
        epoch_posts: args.snapshot_every,
        window_secs: args.cfg.intel_window_secs,
        ..DriftOptions::default()
    };
    match drift_scorecard(world, &opts, obs) {
        Some(card) => print!("{}", card.render()),
        None => {
            obs_error!(
                obs,
                "adversary plan `{}` schedules no rotation waves; \
                 pass --adversary rotation|respell|shorteners|full",
                world.config.adversary
            );
            std::process::exit(2);
        }
    }
}

/// Persist a serve checkpoint atomically: write to `PATH.tmp`, then
/// rename over `PATH`, so a crash mid-write never leaves a torn file.
fn write_checkpoint(path: &str, ck: &Checkpoint, obs: &Obs) {
    let json = match ck.to_json() {
        Ok(j) => j,
        Err(e) => {
            obs_error!(obs, "checkpoint serialize: {e}");
            return;
        }
    };
    let tmp = format!("{path}.tmp");
    if let Err(e) = std::fs::write(&tmp, json).and_then(|()| std::fs::rename(&tmp, path)) {
        obs_error!(obs, "checkpoint write {path}: {e}");
    }
}

/// Load the checkpoint behind `serve --stream --checkpoint PATH`, when
/// the file exists and belongs to this world. A missing file is a fresh
/// run that will start writing one; a mismatched or unreadable file is
/// reported and ignored.
fn load_checkpoint(path: &str, obs: &Obs, world: &World) -> Option<Checkpoint> {
    let parsed = match std::fs::read_to_string(path) {
        Ok(text) => Checkpoint::from_json(&text).map_err(|e| e.to_string()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
        Err(e) => Err(e.to_string()),
    };
    match parsed {
        Ok(ck) if ck.matches_world(world) => {
            obs_info!(
                obs,
                "resuming from checkpoint: {} posts, epoch {}",
                ck.posts_consumed,
                ck.serve.map_or(0, |s| s.epoch)
            );
            Some(ck)
        }
        Ok(ck) => {
            obs_error!(
                obs,
                "checkpoint {path} is for world seed={:#x} scale={}; starting fresh",
                ck.world_seed,
                ck.world_scale
            );
            None
        }
        Err(e) => {
            obs_error!(obs, "checkpoint {path} unreadable ({e}); starting fresh");
            None
        }
    }
}

fn cmd_serve(args: &Args, obs: &Obs, world: &World) {
    let mut build_opts = BuildOptions {
        window_secs: args.cfg.intel_window_secs,
    };
    // `--checkpoint PATH` over an existing matching file turns this
    // invocation into a resume: the epoch clock re-enters the recorded
    // sequence and the verified replay prefix is not republished. A
    // replay that does not verify the checkpoint exits 1.
    let resumed = match (&args.checkpoint, args.stream_mode) {
        (Some(path), true) => load_checkpoint(path, obs, world),
        _ => None,
    };
    let serve_state = resumed.as_ref().and_then(|ck| ck.serve);
    if let Some(sv) = serve_state {
        // The checkpointed build/triage configuration wins over flags:
        // resuming must continue the exact published sequence.
        if build_opts.window_secs != sv.intel_window_secs {
            obs_info!(
                obs,
                "resume: using checkpointed intel window {:?} (flags said {:?})",
                sv.intel_window_secs,
                build_opts.window_secs
            );
            build_opts.window_secs = sv.intel_window_secs;
        }
    }
    let hub = match serve_state {
        // Seed with `epoch - 1`: the first republish (the snapshot the
        // checkpoint was taken at) lands back on the recorded epoch.
        Some(sv) => IntelHub::with_epoch(sv.epoch.saturating_sub(1)),
        None => IntelHub::new(),
    };
    let triage_cfg = match serve_state {
        Some(sv) => TriageConfig {
            cache_capacity: sv.cache_capacity,
            ..TriageConfig::default()
        },
        None => TriageConfig::default(),
    };
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    // Epoch cadence: also the boundary rotation waves align to.
    let epoch_posts = args
        .snapshot_every
        .unwrap_or((world.posts.len() as u64 / 4).max(1));
    let adv = AdversaryWorld::build(world, epoch_posts);
    let injected = Arc::new(AtomicU64::new(0));
    // Adversarial injection only exists in `--stream` mode (waves land at
    // epoch boundaries of the live replay); the gauge rides the `health`
    // line so an operator can see the drift pressure the store is under.
    let serve_opts = ServeOptions {
        adversary: (args.stream_mode && !adv.waves.is_empty()).then(|| AdversaryGauge {
            profile: adv.plan.to_string(),
            waves: adv.waves.len() as u64,
            injected: Arc::clone(&injected),
        }),
        ..ServeOptions::default()
    };
    // Serve the protocol, then flush the run report immediately at EOF:
    // in `--stream` mode the publisher thread may still be replaying
    // posts, and `main`'s emit only runs after it joins. Flushing here
    // puts the session's gauges (trace ring, time series, serve stats)
    // on disk the moment the query stream ends; the later emit rewrites
    // the same file with the same schema, so the double write is benign.
    let serve_and_flush = |hub: &IntelHub| {
        let served = if args.cfg.serve_workers > 0 {
            // Multi-worker plane: parsed requests fan out over a bounded
            // queue to N triage workers and reassemble in order, so
            // stdout is byte-identical to the inline path; overload is
            // shed (counted, never silent) instead of blocking intake.
            let plan = WorkerPlan::new(args.cfg.serve_workers, args.cfg.queue_depth);
            // The collector thread owns the output, so it takes the
            // `Stdout` handle (`Send`, line-buffered) rather than the
            // caller-pinned `StdoutLock`.
            serve_workers(
                hub,
                triage_cfg.clone(),
                stdin.lock(),
                std::io::stdout(),
                obs,
                serve_opts.clone(),
                &plan,
            )
        } else {
            let mut triage = Triage::with_config(hub.reader(), triage_cfg.clone());
            serve_session(
                &mut triage,
                stdin.lock(),
                stdout.lock(),
                obs,
                serve_opts.clone(),
            )
        };
        let stats = match served {
            Ok(session) => session.stats,
            Err(e) => {
                obs_error!(obs, "serve: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = args.cfg.emit_metrics(obs) {
            obs_error!(obs, "{e}");
        }
        stats
    };
    let stats = if args.stream_mode {
        // Live mode: the streaming engine republishes the store at every
        // aligned snapshot while this thread keeps answering queries —
        // the epoch hub guarantees each answer comes from one consistent
        // view. Epoch 1 is a full build; every later epoch reuses the
        // previous store's entries for unchanged dedup winners.
        let plan = args
            .cfg
            .exec
            .clone()
            .with_snapshots(SnapshotPlan::every(epoch_posts));
        if !adv.waves.is_empty() {
            obs_info!(
                obs,
                "adversary {}: {} rotation waves over {} epochs",
                adv.plan,
                adv.waves.len(),
                adv.n_epochs()
            );
        }
        std::thread::scope(|scope| {
            let publisher = hub.clone();
            let resumed_ck = resumed;
            let ck_path = args.checkpoint.clone();
            let cache_capacity = triage_cfg.cache_capacity;
            let adv = &adv;
            let wave_counter = Arc::clone(&injected);
            scope.spawn(move || {
                let mut prev: Option<Arc<IntelSnapshot>> = None;
                let mut on_snapshot = |s: StreamSnapshot<'_>| {
                    let snap = IntelSnapshot::build_incremental(
                        &s.output,
                        prev.as_deref(),
                        SnapshotDelta::new(&s.curated_delta),
                        build_opts,
                    );
                    let entries = snap.len();
                    let evicted = snap.evicted_count();
                    let shared = Arc::new(snap);
                    let epoch = publisher.publish_arc(Arc::clone(&shared));
                    prev = Some(shared);
                    if let Some(path) = &ck_path {
                        let ck = Checkpoint::capture_serving(
                            &s,
                            &plan,
                            ServeState {
                                epoch,
                                intel_window_secs: build_opts.window_secs,
                                cache_capacity,
                            },
                        );
                        write_checkpoint(path, &ck, obs);
                    }
                    obs_info!(
                        obs,
                        "published epoch {epoch} @ {:>7} posts \
                         ({entries} entries, {evicted} evicted)",
                        s.at_posts
                    );
                };
                // The replay (and any resume of it) must carry the same
                // injected waves as the original run, or the epoch clock
                // would drift from the checkpointed sequence.
                let posts: Box<dyn Iterator<Item = Post> + Send + '_> = if adv.waves.is_empty() {
                    Box::new(ReportStream::replay(world))
                } else {
                    Box::new(adv.stream_counted(Some(wave_counter)))
                };
                // A resume forwards only the snapshots from the verified
                // checkpoint on: the interrupted server already published
                // (and checkpointed past) the replayed prefix.
                let result = match &resumed_ck {
                    Some(ck) => resume(
                        world,
                        posts,
                        ck,
                        &args.cfg.curation,
                        &plan,
                        obs,
                        &mut on_snapshot,
                    ),
                    None => Ok(ingest(
                        world,
                        posts,
                        &args.cfg.curation,
                        &plan,
                        obs,
                        &mut on_snapshot,
                    )),
                };
                let result = result.unwrap_or_else(|e| {
                    obs_error!(obs, "cannot resume from checkpoint: {e}");
                    std::process::exit(1);
                });
                let snap = IntelSnapshot::build_incremental(
                    &result.output,
                    prev.as_deref(),
                    SnapshotDelta::new(&result.curated_delta),
                    build_opts,
                );
                let entries = snap.len();
                let epoch = publisher.publish(snap);
                obs_info!(
                    obs,
                    "final publish: epoch {epoch} after {} posts ({entries} entries)",
                    result.posts_ingested
                );
            });
            let mut ready = hub.reader();
            if !ready.wait_ready(Duration::from_secs(300)) {
                obs_error!(obs, "no snapshot published within 300s");
                std::process::exit(1);
            }
            serve_and_flush(&hub)
        })
    } else {
        let output = run_pipeline(args, obs, world);
        hub.publish(IntelSnapshot::build_full(&output, build_opts));
        serve_and_flush(&hub)
    };
    // Diagnostics go to stderr — stdout is the protocol channel and gets
    // piped back in as queries by the CI smoke job.
    eprintln!(
        "serve done: {} queries ({} hits, {} near hits, {} misses, {} triaged, {} errors, {} shed), epoch {}",
        stats.queries,
        stats.hits,
        stats.near_hits,
        stats.misses,
        stats.triaged,
        stats.errors,
        stats.shed,
        hub.epoch()
    );
}

fn cmd_query(args: &Args, obs: &Obs, world: &World) {
    let (kind, value) = match args.positional.split_first() {
        Some((kind, rest)) if !rest.is_empty() => (kind.as_str(), rest.join(" ")),
        _ => {
            eprintln!("query needs a kind and a value\n{}", usage());
            std::process::exit(2);
        }
    };
    let query = match kind {
        "explain" => None,
        _ => match Query::parse(kind, &value) {
            Some(query) => Some(query),
            None => {
                eprintln!("unknown query kind {kind:?}; expected url|sender|msg|near|explain");
                std::process::exit(2);
            }
        },
    };
    // Key-only lookups never need the model; don't pay for training.
    // An `explain` trains unless its first token names a key-only verb.
    let verb = match query {
        Some(q) => q.verb(),
        None => value.split_whitespace().next().unwrap_or(""),
    };
    let needs_model = !matches!(verb, "url" | "sender" | "near");
    let output = run_pipeline(args, obs, world);
    let hub = IntelHub::new();
    hub.publish(IntelSnapshot::build(&output));
    let mut triage = Triage::with_config(
        hub.reader(),
        TriageConfig {
            train_model: needs_model,
            ..TriageConfig::default()
        },
    );
    let Some(query) = query else {
        // One-shot mirror of the serve-plane `explain` verb.
        let mut tracer = Tracer::new(TracerConfig::default());
        if let Err(e) = explain(&mut triage, &mut tracer, &value, &mut std::io::stdout()) {
            obs_error!(obs, "query: {e}");
            std::process::exit(1);
        }
        return;
    };
    let answer = obs
        .histogram("intel.query.wall_ns", &[])
        .time(|| triage.answer(&query, None));
    println!("{}", reply_line(&query, &answer.verdict));
}

/// The growth gate over two `smishing-obs/v1` run reports: fail (exit 1)
/// when a layer's wall time grows faster than posts^1.5 between the two
/// input sizes.
fn cmd_perfdiff(args: &Args, obs: &Obs) {
    let [small_path, large_path] = args.positional.as_slice() else {
        eprintln!("perfdiff needs exactly two report paths\n{}", usage());
        std::process::exit(2);
    };
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("perfdiff: read {path}: {e}");
            std::process::exit(2);
        });
        parse_report(&text).unwrap_or_else(|e| {
            eprintln!("perfdiff: parse {path}: {e}");
            std::process::exit(2);
        })
    };
    let growth = growth_diff(&load(small_path), &load(large_path)).unwrap_or_else(|e| {
        eprintln!("perfdiff: {e}");
        std::process::exit(2);
    });
    print!("{}", growth.render());
    if growth.failures() > 0 {
        obs_error!(
            obs,
            "growth gate: {} layer(s) grow faster than posts^{GROWTH_LIMIT}",
            growth.failures()
        );
        std::process::exit(1);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let Some((_, _, handler)) = COMMANDS.iter().find(|(name, _, _)| *name == args.command) else {
        eprintln!("unknown command {}\n{}", args.command, usage());
        std::process::exit(2);
    };
    let obs = args.cfg.obs();
    match handler {
        Handler::Plain(f) => f(&args, &obs),
        Handler::World(f) => {
            let world = args.cfg.world(&obs);
            obs_info!(
                obs,
                "world: {} campaigns / {} messages / {} posts (scale {}, seed {:#x})",
                world.campaigns.len(),
                world.messages.len(),
                world.posts.len(),
                args.cfg.scale,
                args.cfg.seed
            );
            f(&args, &obs, &world);
        }
    }
    if let Err(e) = args.cfg.emit_metrics(&obs) {
        obs_error!(obs, "{e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The usage string and the dispatch table cannot drift: usage is
    /// generated from `COMMANDS`, every listed name resolves to a
    /// handler, and the module docs show an example for each command.
    #[test]
    fn usage_and_dispatch_agree() {
        let u = usage();
        let inside = u
            .split('<')
            .nth(1)
            .and_then(|s| s.split('>').next())
            .expect("usage lists commands in <...>");
        let listed: Vec<&str> = inside.split('|').collect();
        let table: Vec<&str> = COMMANDS.iter().map(|&(name, _, _)| name).collect();
        assert_eq!(listed, table, "usage string vs dispatch table");

        let mut unique = table.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), table.len(), "duplicate command names");

        for name in &table {
            assert!(
                COMMANDS.iter().any(|&(n, _, _)| n == *name),
                "{name} listed in usage but not dispatchable"
            );
        }

        // And the doc header demonstrates every command.
        let src = include_str!("smish.rs");
        for &(name, _, _) in COMMANDS {
            assert!(
                src.contains(&format!("smish {name}")),
                "module docs lack an example for `smish {name}`"
            );
        }
    }
}
