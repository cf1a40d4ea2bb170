//! Chaos suite: deterministic fault injection must degrade records —
//! never drop them — and stay perfectly replayable.
//!
//! Three pillars:
//!
//! 1. **Inertness** — `--fault-profile none` is byte-identical to a run
//!    with no plan installed: same tables, same metric counters.
//! 2. **Replayability** — two runs with the same world seed and the same
//!    fault plan produce byte-identical tables and identical deterministic
//!    counters (retries, breaker trips, degradation totals included).
//! 3. **Survival** — the harsh profile completes with `Partial` records
//!    and honest "(unresolved)" table rows; curated/unique counts match
//!    the fault-free run exactly. Batch and snapshotting stream runs both
//!    report degraded records, zero dropped records and zero worker
//!    panics in their run reports.
//!
//! The property block then generalizes: for *any* generated fault plan,
//! curated counts are fault-independent, unique ≤ total per forum, and
//! the sharded streaming engine agrees with the batch pipeline
//! table-for-table.
//!
//! The replay tests run the pipeline on [`ExecPlan::sequential`] and
//! compare only the schedule-independent counter families (`enrich.*`,
//! `pipeline.*`). *Output* is deterministic under every plan, but with
//! multiple shards the interleaving of duplicate keys decides which
//! dedup losers get enriched before they are displaced, so raw service
//! call totals — and timing series like `blocked_sends` or channel-depth
//! gauges — legitimately vary run to run. On one curator and one shard
//! every message is applied in arrival order, making the retry/breaker/
//! degradation counters exact replay invariants.

mod common;

use proptest::prelude::*;
use smishing::core::analysis::timestamps::send_times;
use smishing::core::exec::ingest;
use smishing::core::experiment::{run_all, TABLES};
use smishing::fault::{FaultPlan, FaultProfile, ServiceKind, TickWindow, DEFAULT_FAULT_SEED};
use smishing::obs::{MetricId, Obs};
use smishing::prelude::*;
use smishing::worldsim::ReportStream;
use std::collections::BTreeMap;
use std::sync::OnceLock;

fn world_at(scale: f64, seed: u64) -> World {
    World::generate(WorldConfig {
        scale,
        seed,
        ..WorldConfig::default()
    })
}

fn sequential() -> Pipeline {
    Pipeline {
        curation: CurationOptions::default(),
        exec: ExecPlan::sequential(),
    }
}

/// Tables plus the deterministic counter series of one observed batch run
/// (sequential plan; only the `enrich.*` / `pipeline.*` families — see
/// the module docs).
fn observed_run(world: &World) -> (Vec<(String, String)>, BTreeMap<String, u64>) {
    let obs = Obs::enabled();
    let out = sequential().run(world, &obs);
    let tables = run_all(&out, &Obs::noop())
        .into_iter()
        .map(|r| (r.id.to_string(), r.table.to_string()))
        .collect();
    let counters = obs
        .report()
        .expect("enabled")
        .counters
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .filter(|(k, _)| k.starts_with("enrich.") || k.starts_with("pipeline."))
        .collect();
    (tables, counters)
}

#[test]
fn none_profile_is_byte_identical_to_a_plain_run() {
    let (t_plain, c_plain) = observed_run(&world_at(0.02, 71));
    let mut world = world_at(0.02, 71);
    world.set_fault_plan(&FaultPlan::none());
    let (t_none, c_none) = observed_run(&world);
    assert_eq!(t_plain, t_none, "tables must not move under the inert plan");
    assert_eq!(c_plain, c_none, "metric series must not move either");
}

#[test]
fn same_seed_harsh_runs_replay_byte_identically() {
    let run = || {
        let mut world = world_at(0.02, 71);
        world.set_fault_plan(&FaultPlan::harsh(42));
        observed_run(&world)
    };
    let (t_a, c_a) = run();
    let (t_b, c_b) = run();
    assert_eq!(t_a, t_b, "same seed + same plan ⇒ same tables");
    assert_eq!(c_a, c_b, "… and the same counters, retries included");
    assert!(c_a["enrich.retries"] > 0, "harsh run must have retried");
    assert!(
        c_a["enrich.degraded_records"] > 0,
        "harsh run must have degraded records"
    );
    assert_eq!(c_a["pipeline.enrich.dropped"], 0, "faults never drop");
}

/// The run-report invariants of a harsh chaos run, on the two runs the
/// CI chaos job makes with the release binaries: a batch run like
/// `repro`'s, and a stream replay snapshotting every quarter of the posts
/// like `smish stream`. Faults degrade records but never lose one, and no
/// engine worker panics.
#[test]
fn harsh_runs_degrade_records_but_never_drop_or_panic() {
    let mut world = world_at(0.02, WorldConfig::default().seed);
    world.set_fault_plan(&FaultPlan::harsh(DEFAULT_FAULT_SEED));
    let batch = Obs::enabled();
    Pipeline::default().run(&world, &batch);
    let stream = Obs::enabled();
    let every = (world.posts.len() as u64 / 4).max(1);
    let result = ingest(
        &world,
        ReportStream::replay(&world),
        &CurationOptions::default(),
        &ExecPlan::default().with_snapshots(SnapshotPlan::every(every)),
        &stream,
        |_| {},
    );
    assert!(result.snapshots_taken > 0, "snapshot plan fired");
    let counter = |obs: &Obs, name: &str| {
        obs.report()
            .expect("enabled")
            .counters
            .get(&MetricId::new(name, &[]))
            .copied()
    };
    for (run, obs) in [("batch", &batch), ("stream", &stream)] {
        assert_eq!(counter(obs, "exec.engine.worker_panics"), Some(0), "{run}");
        assert_eq!(
            counter(obs, "exec.engine.uncounted_drops"),
            Some(0),
            "{run}"
        );
        assert!(
            counter(obs, "enrich.degraded_records").unwrap_or(0) > 0,
            "{run}: the harsh profile must degrade records"
        );
    }
    assert_eq!(counter(&batch, "pipeline.enrich.dropped"), Some(0));
}

#[test]
fn harsh_profile_completes_with_partial_records() {
    let plain = world_at(0.02, 71);
    let baseline = Pipeline::default().run(&plain, &Obs::noop());
    let mut world = world_at(0.02, 71);
    world.set_fault_plan(&FaultPlan::harsh(9));
    let out = Pipeline::default().run(&world, &Obs::noop());
    assert_eq!(out.curated_total.len(), baseline.curated_total.len());
    assert_eq!(out.records.len(), baseline.records.len());
    assert!(
        out.records.iter().any(|r| r.is_degraded()),
        "harsh profile must actually degrade something"
    );
    // Partial status and the missing-field list agree record by record.
    for r in &out.records {
        assert_eq!(r.is_degraded(), !r.missing().is_empty());
    }
}

/// Any rate mix the generator below produces, on any service, with any
/// single outage window.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    let rates = (
        0.0f64..0.12,
        0.0f64..0.12,
        0.0f64..0.12,
        0.0f64..0.12,
        0.0f64..0.5,
    );
    (
        0u64..u64::MAX,
        prop::collection::vec(rates, 7),
        // (enabled, service, from, length) — the stand-in proptest has no
        // Option strategy, so a coin flip gates the outage window.
        (0u8..2, 0usize..7, 0u64..500, 1u64..2000),
    )
        .prop_map(|(seed, profiles, outage)| {
            let mut plan = FaultPlan::none();
            plan.seed = seed;
            for (i, (timeout, transient, rate_limit, malformed, hard)) in
                profiles.into_iter().enumerate()
            {
                plan.set_profile(
                    ServiceKind::ALL[i],
                    FaultProfile {
                        timeout,
                        transient,
                        rate_limit,
                        malformed,
                        hard,
                        outages: Vec::new(),
                    },
                );
            }
            let (enabled, svc, from, len) = outage;
            if enabled == 1 {
                plan = plan.with_outage(
                    ServiceKind::ALL[svc],
                    TickWindow {
                        from,
                        until: from + len,
                    },
                );
            }
            plan
        })
}

/// Every table of the output by id, plus Figure 2 without the burst
/// filter.
fn rendered(out: &PipelineOutput<'_>) -> Vec<(&'static str, String)> {
    let mut tables: Vec<(&'static str, String)> = TABLES
        .iter()
        .map(|&(id, table)| (id, table(out).to_string()))
        .collect();
    let unfiltered = send_times(out, false).to_table();
    tables.push(("F2 unfiltered", unfiltered.to_string()));
    tables
}

/// Fault-free curated/unique counts of the property-test world, computed
/// once.
fn baseline_counts() -> (usize, usize) {
    static BASELINE: OnceLock<(usize, usize)> = OnceLock::new();
    *BASELINE.get_or_init(|| {
        let world = world_at(0.01, 0xBAD);
        let out = Pipeline::default().run(&world, &Obs::noop());
        (out.curated_total.len(), out.records.len())
    })
}

proptest! {
    // Each case generates a world and runs the pipeline (twice for the
    // equivalence case), so keep the case count low — the plans inside
    // each case still cover seven services × five knobs.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn any_plan_preserves_counts_and_row_sanity(plan in arb_plan()) {
        let (curated, unique) = baseline_counts();
        let mut world = world_at(0.01, 0xBAD);
        world.set_fault_plan(&plan);
        let out = Pipeline::default().run(&world, &Obs::noop());
        // (a) curation happens before any service call: counts cannot
        // depend on the plan.
        prop_assert_eq!(out.curated_total.len(), curated);
        prop_assert_eq!(out.records.len(), unique);
        // (b) unique ≤ total, overall and per forum (Table 1's rows).
        prop_assert!(out.records.len() <= out.curated_total.len());
        for &forum in Forum::ALL.iter() {
            prop_assert!(out.records_on(forum).count() <= out.curated_on(forum).count());
        }
    }

    #[test]
    fn stream_and_batch_agree_under_any_plan(plan in arb_plan()) {
        let mut world = world_at(0.01, 0xBAD);
        world.set_fault_plan(&plan);
        let batch = Pipeline::default().run(&world, &Obs::noop());
        let exec = ExecPlan {
            curators: 2,
            shards: 3,
            ..ExecPlan::default()
        };
        let result = ingest(
            &world,
            ReportStream::replay(&world),
            &CurationOptions::default(),
            &exec,
            &Obs::noop(),
            |_| {},
        );
        // Table-level equality across every table: the stream's output
        // against the reference output over the batch run.
        prop_assert_eq!(
            rendered(&result.output),
            rendered(&common::reference_output(&batch))
        );
        prop_assert_eq!(result.output.records.len(), batch.records.len());
        prop_assert_eq!(
            result.output.records.iter().filter(|r| r.is_degraded()).count(),
            batch.records.iter().filter(|r| r.is_degraded()).count()
        );
    }
}
