//! Per-epoch drift scorecard: how the triage ladder degrades and recovers
//! while campaigns rotate out from under it.
//!
//! [`drift_scorecard`] replays the adversarial stream through the
//! incremental epoch engine (`SnapshotPlan::every(epoch_posts)` →
//! [`IntelSnapshot::build_incremental`] → [`IntelHub::publish_arc`]) and,
//! at every boundary:
//!
//! 1. **probes** the waves landing at that boundary *before* their reports
//!    are ingested, attributing each rotated message to the ladder rung
//!    that resolved it ([`RungCounts`]) — this is the defender's blind
//!    spot, measured;
//! 2. **checks re-acquisition** of every still-dark wave by querying its
//!    probe URLs against the fresh snapshot, recording time-to-reacquire
//!    in epochs once an exact rung answers.
//!
//! The expected shape — pinned by tests and the CI drift soak — is the
//! paper's arms-race story told in numbers: the exact rung collapses on
//! rotated indicators, the similarity rung holds recall up via the lure
//! text, and each wave is re-acquired one epoch later once victims report
//! the fresh infrastructure. Respelled apexes never even go dark, because
//! host folding (`webinfra::fold_host` + punycode decode) normalizes them
//! to the indexed apex.

use crate::AdversaryWorld;
use smishing_core::curation::CurationOptions;
use smishing_core::exec::{ingest, ExecPlan, SnapshotPlan};
use smishing_intel::{
    rung_of, BuildOptions, IntelHub, IntelSnapshot, Query, RungCounts, SnapshotDelta, Triage,
    TriageVerdict,
};
use smishing_obs::Obs;
use smishing_worldsim::World;
use std::fmt::Write as _;
use std::sync::Arc;

/// Knobs for [`drift_scorecard`].
#[derive(Debug, Clone)]
pub struct DriftOptions {
    /// Epoch length in posts. `None` derives it from `target_epochs`.
    pub epoch_posts: Option<u64>,
    /// When `epoch_posts` is `None`: split the base stream into this many
    /// epochs.
    pub target_epochs: u64,
    /// Aging window passed to the snapshot builder (`None` = keep all).
    pub window_secs: Option<u64>,
}

impl Default for DriftOptions {
    fn default() -> Self {
        DriftOptions {
            epoch_posts: None,
            target_epochs: 8,
            window_secs: None,
        }
    }
}

/// One epoch boundary's drift measurements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochDrift {
    /// Epoch index (boundary at `epoch * epoch_posts` posts).
    pub epoch: u64,
    /// Posts ingested when the boundary fired.
    pub at_posts: u64,
    /// Rotation waves landing at this boundary.
    pub rotations: usize,
    /// Rotated probe messages triaged (pre-ingest).
    pub probes: usize,
    /// Ladder-rung attribution of those probes.
    pub rungs: RungCounts,
    /// Previously-dark waves whose infrastructure the fresh snapshot now
    /// answers exactly.
    pub reacquired: usize,
    /// Waves still dark after this boundary.
    pub outstanding: usize,
}

impl EpochDrift {
    /// Share of probes the exact rung caught.
    pub fn exact_recall(&self) -> f64 {
        if self.probes == 0 {
            return 0.0;
        }
        self.rungs.exact as f64 / self.probes as f64
    }

    /// Share of probes an infrastructure rung (exact or near) caught.
    pub fn near_recall(&self) -> f64 {
        if self.probes == 0 {
            return 0.0;
        }
        self.rungs.infra() as f64 / self.probes as f64
    }
}

/// The full drift report for one adversarial run.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftScorecard {
    /// Adversary profile label (`AdversaryPlan::to_string`).
    pub profile: String,
    /// Epoch length in posts.
    pub epoch_posts: u64,
    /// Total rotation waves scheduled.
    pub waves: usize,
    /// Wave posts injected into the stream.
    pub injected_posts: u64,
    /// Per-boundary measurements, in epoch order.
    pub epochs: Vec<EpochDrift>,
    /// Time-to-reacquire, in epochs, for every re-acquired wave
    /// (0 = the rotation never went dark, e.g. folded respellings).
    pub reacquire_epochs: Vec<u64>,
    /// Waves never re-acquired by the end of the stream.
    pub unresolved: usize,
}

impl DriftScorecard {
    /// Total probes across all epochs.
    pub fn total_probes(&self) -> usize {
        self.epochs.iter().map(|e| e.probes).sum()
    }

    /// Rung attribution summed over all epochs.
    pub fn rungs_total(&self) -> RungCounts {
        let mut total = RungCounts::default();
        for e in &self.epochs {
            total.merge(&e.rungs);
        }
        total
    }

    /// Mean time-to-reacquire in epochs (`None` when nothing rotated or
    /// nothing was re-acquired).
    pub fn mean_time_to_reacquire(&self) -> Option<f64> {
        if self.reacquire_epochs.is_empty() {
            return None;
        }
        Some(self.reacquire_epochs.iter().sum::<u64>() as f64 / self.reacquire_epochs.len() as f64)
    }

    /// Smallest per-epoch near-rung recall over boundaries that probed
    /// anything.
    pub fn min_near_recall(&self) -> f64 {
        self.epochs
            .iter()
            .filter(|e| e.probes > 0)
            .map(|e| e.near_recall())
            .fold(f64::INFINITY, f64::min)
            .min(1.0)
    }

    /// [`Self::min_near_recall`] restricted to *warm* boundaries (epoch
    /// ≥ 2) — the floor the CI drift soak gates on. Epoch 1 probes a
    /// store built from a single epoch of reports; at small scales the
    /// similarity tier legitimately has nothing near the rotated lures
    /// yet, so the cold boundary measures corpus size, not the ladder.
    pub fn warm_min_near_recall(&self) -> f64 {
        self.epochs
            .iter()
            .filter(|e| e.epoch >= 2 && e.probes > 0)
            .map(|e| e.near_recall())
            .fold(f64::INFINITY, f64::min)
            .min(1.0)
    }

    /// Render the scorecard as an aligned text table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "drift scorecard  profile={}  epoch_posts={}  waves={}  injected={}",
            self.profile, self.epoch_posts, self.waves, self.injected_posts
        );
        let _ = writeln!(
            s,
            "{:>5} {:>9} {:>4} {:>6} {:>6} {:>5} {:>5} {:>4} {:>6} {:>5} {:>6} {:>6}",
            "epoch",
            "posts",
            "rot",
            "probes",
            "exact",
            "near",
            "model",
            "miss",
            "reacq",
            "dark",
            "ex-rec",
            "nr-rec"
        );
        for e in &self.epochs {
            let _ = writeln!(
                s,
                "{:>5} {:>9} {:>4} {:>6} {:>6} {:>5} {:>5} {:>4} {:>6} {:>5} {:>6.3} {:>6.3}",
                e.epoch,
                e.at_posts,
                e.rotations,
                e.probes,
                e.rungs.exact,
                e.rungs.near,
                e.rungs.model,
                e.rungs.miss,
                e.reacquired,
                e.outstanding,
                e.exact_recall(),
                e.near_recall()
            );
        }
        match self.mean_time_to_reacquire() {
            Some(tta) => {
                let _ = writeln!(
                    s,
                    "mean_time_to_reacquire_epochs={tta:.2}  unresolved={}  min_near_recall={:.3}",
                    self.unresolved,
                    self.min_near_recall()
                );
            }
            None => {
                let _ = writeln!(s, "no waves re-acquired  unresolved={}", self.unresolved);
            }
        }
        s
    }
}

/// Does the fresh snapshot answer any of the wave's probe URLs exactly?
fn wave_visible(triage: &mut Triage, probe_urls: &[String]) -> bool {
    probe_urls.iter().any(|u| {
        matches!(
            triage.answer(&Query::Url(u), None).verdict,
            TriageVerdict::Hit(_)
        )
    })
}

/// Run the adversarial stream through the incremental epoch engine and
/// score per-epoch drift. `None` when the world's plan schedules no waves.
pub fn drift_scorecard(world: &World, opts: &DriftOptions, obs: &Obs) -> Option<DriftScorecard> {
    let epoch_posts = opts
        .epoch_posts
        .unwrap_or(world.posts.len() as u64 / opts.target_epochs.max(1));
    let adv = AdversaryWorld::build(world, epoch_posts);
    if adv.waves.is_empty() {
        return None;
    }

    let hub = IntelHub::new();
    let mut triage = Triage::new(hub.reader());
    let build_opts = BuildOptions {
        window_secs: opts.window_secs,
    };
    // `adv.epoch_posts` is the requested length clamped to at least one
    // post: snapshots, epoch indices and waves all count in it.
    let exec = ExecPlan::sequential().with_snapshots(SnapshotPlan::every(adv.epoch_posts));

    let mut prev: Option<Arc<IntelSnapshot>> = None;
    let mut epochs: Vec<EpochDrift> = Vec::new();
    // (wave index, epoch it rotated at) for waves still dark.
    let mut dark: Vec<(usize, u64)> = Vec::new();
    let mut reacquire_epochs: Vec<u64> = Vec::new();

    let result = ingest(
        world,
        adv.stream(),
        &CurationOptions::default(),
        &exec,
        obs,
        |snap| {
            let built = IntelSnapshot::build_incremental(
                &snap.output,
                prev.as_deref(),
                SnapshotDelta::new(&snap.curated_delta),
                build_opts,
            );
            let arc = Arc::new(built);
            hub.publish_arc(arc.clone());
            prev = Some(arc);

            let epoch = snap.at_posts / adv.epoch_posts;
            let mut row = EpochDrift {
                epoch,
                at_posts: snap.at_posts,
                rotations: 0,
                probes: 0,
                rungs: RungCounts::default(),
                reacquired: 0,
                outstanding: 0,
            };

            // Re-acquisition first: waves from earlier epochs whose reports
            // the just-published snapshot has now indexed.
            dark.retain(|&(wi, rotated_at)| {
                if wave_visible(&mut triage, &adv.waves[wi].probe_urls) {
                    reacquire_epochs.push(epoch - rotated_at);
                    row.reacquired += 1;
                    false
                } else {
                    true
                }
            });

            // Probe this boundary's waves before their reports enter the
            // stream: what would the ladder say about the rotated blast?
            for (wi, wave) in adv.waves.iter().enumerate() {
                if wave.epoch != epoch {
                    continue;
                }
                row.rotations += 1;
                for m in &wave.messages {
                    let sender = m.sender.display_string();
                    let probe = Query::Msg {
                        sender: Some(&sender),
                        text: &m.text,
                    };
                    let v = triage.answer(&probe, None).verdict;
                    row.rungs.record(rung_of(&v));
                    row.probes += 1;
                }
                if wave_visible(&mut triage, &wave.probe_urls) {
                    // Folded respellings (and sender-only waves) never go
                    // dark: the rotation is re-acquired instantly.
                    reacquire_epochs.push(0);
                    row.reacquired += 1;
                } else {
                    dark.push((wi, epoch));
                }
            }
            row.outstanding = dark.len();
            epochs.push(row);
        },
    );

    // Final partial epoch: publish the tail and give still-dark waves one
    // last re-acquisition check.
    if !result.curated_delta.is_empty() {
        let built = IntelSnapshot::build_incremental(
            &result.output,
            prev.as_deref(),
            SnapshotDelta::new(&result.curated_delta),
            build_opts,
        );
        hub.publish_arc(Arc::new(built));
        let epoch = result.posts_ingested.div_ceil(adv.epoch_posts);
        dark.retain(|&(wi, rotated_at)| {
            if wave_visible(&mut triage, &adv.waves[wi].probe_urls) {
                reacquire_epochs.push(epoch - rotated_at);
                if let Some(last) = epochs.last_mut() {
                    last.reacquired += 1;
                    last.outstanding = last.outstanding.saturating_sub(1);
                }
                false
            } else {
                true
            }
        });
    }

    let injected_posts = result.posts_ingested - world.posts.len() as u64;
    let card = DriftScorecard {
        profile: adv.plan.to_string(),
        epoch_posts: adv.epoch_posts,
        waves: adv.waves.len(),
        injected_posts,
        epochs,
        reacquire_epochs,
        unresolved: dark.len(),
    };

    // Export the scorecard's floor numbers into the run report so CI
    // (the `drift-soak` job) can gate on them without parsing the table.
    let rungs = card.rungs_total();
    obs.counter("adversary.drift.waves", &[])
        .add(card.waves as u64);
    obs.counter("adversary.drift.injected_posts", &[])
        .add(card.injected_posts);
    obs.counter("adversary.drift.probes", &[])
        .add(card.total_probes() as u64);
    obs.counter("adversary.drift.rung_exact", &[])
        .add(rungs.exact as u64);
    obs.counter("adversary.drift.rung_near", &[])
        .add(rungs.near as u64);
    obs.counter("adversary.drift.rung_model", &[])
        .add(rungs.model as u64);
    obs.counter("adversary.drift.rung_miss", &[])
        .add(rungs.miss as u64);
    obs.gauge("adversary.drift.unresolved", &[])
        .set(card.unresolved as i64);
    obs.gauge("adversary.drift.min_near_recall_x1000", &[])
        .set((card.min_near_recall() * 1000.0) as i64);
    obs.gauge("adversary.drift.warm_min_near_recall_x1000", &[])
        .set((card.warm_min_near_recall() * 1000.0) as i64);
    if let Some(tta) = card.mean_time_to_reacquire() {
        obs.gauge("adversary.drift.mean_tta_x1000", &[])
            .set((tta * 1000.0) as i64);
    }
    Some(card)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smishing_types::AdversaryPlan;
    use smishing_worldsim::WorldConfig;

    fn drift_world(seed: u64, profile: &str) -> World {
        World::generate(WorldConfig {
            adversary: AdversaryPlan::profile(profile).unwrap(),
            ..WorldConfig::test_scale(seed)
        })
    }

    #[test]
    fn empty_plan_has_no_scorecard() {
        let w = World::generate(WorldConfig::test_scale(41));
        assert!(drift_scorecard(&w, &DriftOptions::default(), &Obs::noop()).is_none());
    }

    #[test]
    fn rotation_degrades_exact_rung_and_near_rung_recovers() {
        let w = drift_world(42, "rotation");
        let opts = DriftOptions {
            target_epochs: 5,
            ..DriftOptions::default()
        };
        let s = drift_scorecard(&w, &opts, &Obs::noop()).expect("waves scheduled");
        assert!(s.waves > 0 && s.injected_posts > 0);

        // Rung attribution partitions the probes.
        assert_eq!(s.rungs_total().total(), s.total_probes());
        assert!(s.total_probes() > 0);

        // Fresh-domain + fresh-sender rotation must blind the exact rung on
        // at least part of the probes, and the similarity rung must catch
        // rotated lure texts the exact rung lost.
        let t = s.rungs_total();
        assert!(
            t.exact < s.total_probes(),
            "rotated indicators cannot all hit exact pivots: {t:?}"
        );
        assert!(t.near > 0, "near rung catches rotated lures: {t:?}");
        let exact_recall = t.exact as f64 / s.total_probes() as f64;
        let near_recall = t.infra() as f64 / s.total_probes() as f64;
        assert!(
            near_recall > exact_recall,
            "near rung recovers recall: {near_recall} vs {exact_recall}"
        );

        // Every wave is re-acquired within a finite number of epochs.
        assert_eq!(s.unresolved, 0, "{}", s.render());
        assert_eq!(s.reacquire_epochs.len(), s.waves);
        let tta = s.mean_time_to_reacquire().expect("waves re-acquired");
        assert!(tta >= 0.0 && tta.is_finite());
        assert!(
            s.reacquire_epochs.iter().all(|&e| e <= 2),
            "reports of the rotated blast re-acquire within two epochs: {:?}",
            s.reacquire_epochs
        );
    }

    #[test]
    fn scorecard_is_deterministic_for_a_fixed_seed() {
        let w = drift_world(43, "rotation");
        let opts = DriftOptions {
            target_epochs: 4,
            ..DriftOptions::default()
        };
        let a = drift_scorecard(&w, &opts, &Obs::noop()).unwrap();
        let b = drift_scorecard(&w, &opts, &Obs::noop()).unwrap();
        assert_eq!(a, b);
        assert!(!a.render().is_empty());
    }

    #[test]
    fn respell_waves_never_go_dark() {
        let w = drift_world(44, "respell");
        let opts = DriftOptions {
            target_epochs: 4,
            ..DriftOptions::default()
        };
        let s = drift_scorecard(&w, &opts, &Obs::noop()).expect("waves scheduled");
        // Host folding (homoglyph + punycode decode) keeps respelled apexes
        // on the indexed identity: re-acquisition is instantaneous for the
        // respelled share of waves.
        assert!(
            s.reacquire_epochs.contains(&0),
            "folded respellings are visible at rotation time: {:?}",
            s.reacquire_epochs
        );
    }
}
