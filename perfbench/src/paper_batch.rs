//! `paper_batch`: the paper-scale batch reproduction — `Pipeline::run`
//! over a scale-1.0 world, then every artifact of `experiment::run_all`.
//! One unit of work is one whole batch; its wall time is the latency, and
//! posts ingested per second of `Pipeline::run` the throughput.

use crate::layers;
use crate::report::{EndToEnd, Layers, Outcome};
use crate::stats::median;
use crate::{peak_rss_mb, pipeline, secs, timed_world, Records, RunConfig};
use smishing::core::experiment::{run_all, ExperimentResult};
use smishing::core::PipelineOutput;
use smishing::obs::Obs;
use smishing::worldsim::World;
use std::time::Instant;

/// World scale of the workload (the paper's ~220k posts).
pub const SCALE: f64 = 1.0;

/// Artifacts `run_all` reproduces.
pub const ARTIFACTS: usize = 23;

/// FNV-1a digest of every rendered artifact, in `run_all` order.
pub fn tables_digest(results: &[ExperimentResult]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in results {
        for b in r.id.bytes().chain(r.table.to_string().bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// What one batch must satisfy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchCheck {
    /// Record accounting of the output.
    pub records: Records,
    /// Artifacts produced.
    pub artifacts: usize,
    /// Ids of artifacts whose shape checks failed.
    pub failed_shapes: Vec<String>,
    /// [`tables_digest`] of the artifacts.
    pub digest: u64,
}

impl BatchCheck {
    /// Inspect one batch's output and artifacts.
    pub fn of(out: &PipelineOutput<'_>, results: &[ExperimentResult]) -> BatchCheck {
        BatchCheck {
            records: Records::of(out),
            artifacts: results.len(),
            failed_shapes: results
                .iter()
                .filter(|r| !r.passed())
                .map(|r| r.id.to_string())
                .collect(),
            digest: tables_digest(results),
        }
    }

    /// Every way the batch is wrong; empty when correct. `expected` is
    /// the digest an earlier batch of the same world produced.
    pub fn problems(&self, expected: Option<u64>) -> Vec<String> {
        let mut p: Vec<String> = self.records.problem().into_iter().collect();
        if self.artifacts != ARTIFACTS {
            p.push(format!(
                "{} artifacts, expected {ARTIFACTS}",
                self.artifacts
            ));
        }
        if !self.failed_shapes.is_empty() {
            p.push(format!(
                "shape checks failed: {}",
                self.failed_shapes.join(" ")
            ));
        }
        if let Some(d) = expected.filter(|&d| d != self.digest) {
            p.push(format!(
                "tables digest {:016x} differs from {d:016x}",
                self.digest
            ));
        }
        p
    }
}

/// One timed batch.
pub struct Batch {
    /// `Pipeline::run` wall time.
    pub ingest_s: f64,
    /// `Pipeline::run` plus `run_all` wall time.
    pub wall_s: f64,
    /// Posts ingested.
    pub posts: usize,
    /// Its correctness figures.
    pub check: BatchCheck,
}

/// Time one batch. A traced batch also records the program's `exec.*`
/// and `analysis.*` series and runs the ingest-side probes on its output,
/// after the timed region.
fn batch(world: &World, obs: &Obs, traced: Option<(&mut Layers, &mut Vec<String>)>) -> Batch {
    let t = Instant::now();
    let out = pipeline().run(world, obs);
    let ingest_s = secs(t);
    let results = run_all(&out, obs);
    let wall_s = secs(t);
    if let Some((layers, notes)) = traced {
        layers.set("exec.ingest_s", ingest_s);
        layers::exec_series(obs, &out, layers);
        let analysis_s = layers::analysis_series(obs, layers);
        layers.set(
            "analysis.attributed_share",
            (ingest_s + analysis_s) / wall_s,
        );
        layers::ingest_probes(&out, layers, notes);
    }
    Batch {
        ingest_s,
        wall_s,
        posts: world.posts.len(),
        check: BatchCheck::of(&out, &results),
    }
}

/// Median ingest rate; median and slowest batch wall time (one batch per
/// run while a batch outlasts the run length).
fn end_to_end(setup_s: f64, peak_rss_mb: f64, batches: &[Batch]) -> EndToEnd {
    let rates: Vec<f64> = batches
        .iter()
        .map(|b| b.posts as f64 / b.ingest_s)
        .collect();
    let walls: Vec<f64> = batches.iter().map(|b| b.wall_s * 1e3).collect();
    EndToEnd {
        setup_s,
        peak_rss_mb,
        throughput_per_s: median(&rates),
        latency_ms: median(&walls),
        latency_tail_ms: walls.iter().copied().fold(0.0, f64::max),
    }
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let (world, setup_s) = timed_world(cfg);

    let mut batches = Vec::new();
    let mut spent = 0.0;
    while batches.is_empty() || spent < cfg.seconds {
        let b = batch(&world, &Obs::noop(), None);
        spent += b.wall_s;
        batches.push(b);
    }
    let e2e = end_to_end(setup_s, peak_rss_mb()?, &batches);

    let first = batches[0].check.digest;
    let mut problems: Vec<String> = batches
        .iter()
        .flat_map(|b| b.check.problems(Some(first)))
        .collect();
    let mut notes = vec![
        format!(
            "paper_batch: {} posts, {} batch(es); batch_wall_s {:.4} ingest_posts_per_s {:.1}",
            world.posts.len(),
            batches.len(),
            e2e.latency_ms / 1e3,
            e2e.throughput_per_s
        ),
        format!(
            "counts: curated_records {} unique_records {} tables_digest {first:016x}",
            batches[0].check.records.curated, batches[0].check.records.expected
        ),
    ];

    let layers = if cfg.trace {
        let mut layers = Layers::default();
        layers.set("worldsim.generate_s", setup_s);
        let obs = Obs::enabled();
        let traced = batch(&world, &obs, Some((&mut layers, &mut notes)));
        problems.extend(traced.check.problems(Some(first)));
        // One batch against one batch, as epoch_stream compares replays.
        end_to_end(setup_s, e2e.peak_rss_mb, &batches[..1]).overhead_into(
            &end_to_end(setup_s, e2e.peak_rss_mb, std::slice::from_ref(&traced)),
            &mut layers,
        );
        Some(layers)
    } else {
        None
    };

    let attempted: u64 = batches.iter().map(|b| b.check.records.expected).sum();
    let failed: u64 = batches.iter().map(|b| b.check.records.failed()).sum();
    notes.extend(problems.iter().map(|p| format!("FAILED: {p}")));
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        e2e,
        layers,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{per_layer, END_TO_END};

    /// A world on which every shape check holds (the seed and scale the
    /// repository's own shape tests use).
    fn smoke() -> RunConfig {
        RunConfig {
            seed: 0x5EED_CAFE,
            seconds: 0.1,
            trace: true,
            scale: 0.2,
            setups: 1,
        }
    }

    #[test]
    fn smoke_run_is_correct_and_names_every_metric() {
        let o = run(&smoke()).unwrap();
        assert!(o.correct, "{:#?}", o.notes);
        assert!(o.attempted > 0 && o.failed == 0);
        let layers = o.layers.as_ref().expect("traced run");
        assert!(layers.get("analysis.casestudy_ms") > 0.0);
        assert!(layers.get("exec.enrich_attempts") >= layers.get("exec.unique_records"));
        let line = o.result_line();
        for (name, _) in per_layer() {
            assert!(line.contains(&format!("\"{name}\"")), "{name}");
        }
        let untraced = Outcome { layers: None, ..o }.result_line();
        for (name, _) in END_TO_END {
            assert!(untraced.contains(&format!("\"{name}\"")), "{name}");
        }
    }

    #[test]
    fn a_wrong_expected_digest_is_rejected() {
        let world = crate::generate_world(0x5EED_CAFE, 0.02);
        let b = batch(&world, &Obs::noop(), None);
        let right = b.check.problems(Some(b.check.digest));
        let wrong = b.check.problems(Some(b.check.digest ^ 1));
        assert_eq!(wrong.len(), right.len() + 1, "{wrong:?}");
        assert!(wrong.iter().any(|p| p.contains("digest")), "{wrong:?}");
    }
}
