//! The repository benchmark: three workloads driven only through the
//! program's public entry points, each printing the end-to-end metrics of
//! an untraced measurement or, on a traced run, the per-layer metrics.
//! See `README.md` in this directory for why each workload exists and
//! what each layer metric should move.

pub mod epoch_stream;
pub mod feed;
pub mod layers;
pub mod paper_batch;
pub mod report;
pub mod stats;
pub mod triage_mix;

use report::Outcome;
use smishing::core::exec::ExecPlan;
use smishing::core::{CurationOptions, Pipeline, PipelineOutput};
use smishing::worldsim::{World, WorldConfig};
use std::collections::HashSet;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// See [`paper_batch`].
    PaperBatch,
    /// See [`epoch_stream`].
    EpochStream,
    /// See [`triage_mix`].
    TriageMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperBatch,
        Workload::EpochStream,
        Workload::TriageMix,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperBatch => "paper_batch",
            Workload::EpochStream => "epoch_stream",
            Workload::TriageMix => "triage_mix",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload {name:?}; expected one of {}",
                    names.join(", ")
                )
            })
    }

    /// The configuration the benchmark command runs this workload at.
    pub fn config(self, seed: u64, seconds: f64, trace: bool) -> RunConfig {
        let scale = match self {
            Workload::PaperBatch => paper_batch::SCALE,
            Workload::EpochStream => epoch_stream::SCALE,
            Workload::TriageMix => triage_mix::SCALE,
        };
        RunConfig {
            seed,
            seconds,
            trace,
            scale,
            setups: 3,
        }
    }

    /// Run this workload.
    pub fn run(self, cfg: &RunConfig) -> Result<Outcome, String> {
        match self {
            Workload::PaperBatch => paper_batch::run(cfg),
            Workload::EpochStream => epoch_stream::run(cfg),
            Workload::TriageMix => triage_mix::run(cfg),
        }
    }
}

/// How one run is sized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of each measured phase; a phase always completes at least
    /// one unit of work.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// World scale (1.0 ≈ the paper's 220k posts).
    pub scale: f64,
    /// Set-up repetitions; `setup_s` is their median.
    pub setups: usize,
}

/// The world every workload generates from its seed.
pub fn generate_world(seed: u64, scale: f64) -> World {
    World::generate(WorldConfig {
        seed,
        scale,
        ..WorldConfig::default()
    })
}

/// Generate the workload's world `cfg.setups` times (at least once):
/// the last world and the median generation time in seconds.
pub fn timed_world(cfg: &RunConfig) -> (World, f64) {
    let mut gen_s = Vec::new();
    let mut world = None;
    for _ in 0..cfg.setups.max(1) {
        let t = Instant::now();
        world = Some(generate_world(cfg.seed, cfg.scale));
        gen_s.push(secs(t));
    }
    (world.expect("at least one set-up"), stats::median(&gen_s))
}

/// The batch pipeline `paper_batch` times and `triage_mix` builds its
/// store with: one curator and two analyst shards, so two busy threads
/// on two cores.
pub fn pipeline() -> Pipeline {
    Pipeline {
        curation: CurationOptions::default(),
        exec: ExecPlan {
            curators: 1,
            shards: 2,
            ..ExecPlan::default()
        },
    }
}

/// Record accounting of one pipeline output: the records dedup calls
/// for against the records enrichment delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Records {
    /// Curated messages, duplicates included.
    pub curated: u64,
    /// Distinct dedup keys among curated messages: the records expected.
    pub expected: u64,
    /// Expected records missing from the output.
    pub dropped: u64,
    /// Records only partly enriched.
    pub degraded: u64,
}

impl Records {
    /// Account `out`.
    pub fn of(out: &PipelineOutput<'_>) -> Records {
        let mode = CurationOptions::default().dedup;
        let unique: HashSet<String> = out
            .curated_total
            .iter()
            .map(|c| c.dedup_key(mode))
            .collect();
        Records {
            curated: out.curated_total.len() as u64,
            expected: unique.len() as u64,
            dropped: (unique.len() as u64).saturating_sub(out.records.len() as u64),
            degraded: out.records.iter().filter(|r| r.is_degraded()).count() as u64,
        }
    }

    /// Records dropped or degraded.
    pub fn failed(&self) -> u64 {
        self.dropped + self.degraded
    }

    /// The failure, if any record failed.
    pub fn problem(&self) -> Option<String> {
        (self.failed() > 0).then(|| {
            format!(
                "{} records dropped, {} degraded",
                self.dropped, self.degraded
            )
        })
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_different_seed_changes_the_inputs() {
        let texts = |seed| -> Vec<String> {
            let w = generate_world(seed, 0.01);
            w.posts.iter().take(50).map(|p| format!("{p:?}")).collect()
        };
        assert_eq!(texts(7), texts(7), "same seed, same inputs");
        assert_ne!(texts(7), texts(8), "another seed, other inputs");
    }

    #[test]
    fn benchmark_json_names_every_metric_and_workload() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = serde_json::from_str_value(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(serde_json::Value::Array(items)) => items
                    .iter()
                    .map(|m| {
                        let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("");
                        (field("name").to_string(), field("unit").to_string())
                    })
                    .collect(),
                _ => panic!("{key} is not a list"),
            }
        };
        let e2e: Vec<(String, String)> = report::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> = report::per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }

    #[test]
    fn every_workload_parses_by_name_and_nothing_else_does() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Ok(w));
        }
        assert!(Workload::parse("paper").is_err());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
