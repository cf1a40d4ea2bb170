//! Checkpoint/resume on top of the serde dataset layer.
//!
//! A [`Checkpoint`] freezes a [`StreamSnapshot`] into the released-dataset
//! schema ([`crate::dataset`]) plus the stream position and world
//! identity. Because the whole pipeline is deterministic, resuming does
//! not need raw engine state: [`resume`] replays the first
//! `posts_consumed` posts through the engine, verifies the rebuilt
//! dataset matches the checkpoint row-for-row, and carries on with the
//! remainder of the stream.

use super::{ingest, ExecPlan, IngestResult, StreamSnapshot};
use crate::curation::CurationOptions;
use crate::dataset::{build_dataset, DatasetRow};
use serde::{Deserialize, Serialize};
use smishing_obs::Obs;
use smishing_worldsim::{Post, World};

/// Serve-side state frozen alongside a stream checkpoint, so a live
/// `smish serve --stream` can restart mid-soak and resume publishing from
/// the epoch it left off at instead of epoch 1.
///
/// Everything else the serve plane needs is deterministic replay: the
/// snapshot contents themselves are rebuilt from the stream prefix, so
/// only the epoch clock and the build/triage configuration that shaped
/// the published sequence need to survive.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeState {
    /// Hub epoch at the checkpointed publish — resume seeds the hub with
    /// `epoch - 1` so its first republish lands back on this epoch.
    pub epoch: u64,
    /// Aging/eviction window the published snapshots were built with.
    pub intel_window_secs: Option<u64>,
    /// Negative-cache capacity of the triage tier.
    pub cache_capacity: usize,
}

/// Format version of the checkpoint file this build writes. Bump it when
/// a field is added, removed or changes meaning: [`Checkpoint::from_json`]
/// accepts this version only, so a file from another build is reported
/// as unreadable instead of being resumed with a misread field.
pub const CHECKPOINT_VERSION: u32 = 1;

/// A serializable stream checkpoint.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// File format version ([`CHECKPOINT_VERSION`] when captured).
    pub version: u32,
    /// Seed of the world the stream was drawn from.
    pub world_seed: u64,
    /// Scale of that world.
    pub world_scale: f64,
    /// Shard count of the engine that produced it.
    pub shards: usize,
    /// Posts consumed when the snapshot was taken.
    pub posts_consumed: u64,
    /// The released dataset built from the snapshot's unique records
    /// (Appendix C schema, via the existing serde dataset layer).
    pub dataset: Vec<DatasetRow>,
    /// Serve-side state, when the checkpoint came from a live server.
    pub serve: Option<ServeState>,
}

impl Checkpoint {
    /// Freeze a snapshot.
    pub fn capture(snap: &StreamSnapshot<'_>, plan: &ExecPlan) -> Self {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            world_seed: snap.output.world.config.seed,
            world_scale: snap.output.world.config.scale,
            shards: plan.shards,
            posts_consumed: snap.at_posts,
            dataset: build_dataset(&snap.output.records),
            serve: None,
        }
    }

    /// Freeze a snapshot taken by a live server, recording the serve-side
    /// state needed to resume publishing where it left off.
    pub fn capture_serving(snap: &StreamSnapshot<'_>, plan: &ExecPlan, serve: ServeState) -> Self {
        Checkpoint {
            serve: Some(serve),
            ..Checkpoint::capture(snap, plan)
        }
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Deserialize from JSON. A file that does not parse, or whose
    /// `version` is missing or is not [`CHECKPOINT_VERSION`], is an error.
    pub fn from_json(s: &str) -> Result<Checkpoint, String> {
        let ck: Checkpoint = serde_json::from_str(s).map_err(|e| e.to_string())?;
        if ck.version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint format version {} (this build reads {CHECKPOINT_VERSION})",
                ck.version
            ));
        }
        Ok(ck)
    }

    /// Whether this checkpoint belongs to `world`.
    pub fn matches_world(&self, world: &World) -> bool {
        self.world_seed == world.config.seed && self.world_scale == world.config.scale
    }
}

/// Resume an interrupted ingest: replay `posts` (which must restart from
/// the beginning of the stream the checkpoint came from), verify the
/// checkpointed dataset is reproduced exactly at `posts_consumed`, then
/// keep ingesting to the end of the stream.
///
/// `on_snapshot` borrows, as in [`ingest`], only the snapshots at and
/// after the verified checkpoint; the run that wrote the checkpoint
/// already handled the prefix. Returns an error, without calling
/// `on_snapshot`, when the checkpoint is from a different world, when
/// the replay does not reproduce its dataset, or when the stream ends
/// before `posts_consumed`. The last two errors arrive once the replay
/// has finished.
pub fn resume<'w, I, F>(
    world: &'w World,
    posts: I,
    checkpoint: &Checkpoint,
    curation: &CurationOptions,
    plan: &ExecPlan,
    obs: &Obs,
    mut on_snapshot: F,
) -> Result<IngestResult<'w>, String>
where
    I: Iterator<Item = Post> + Send,
    F: FnMut(&StreamSnapshot<'w>),
{
    if !checkpoint.matches_world(world) {
        return Err(format!(
            "checkpoint is for world seed={:#x} scale={}, not seed={:#x} scale={}",
            checkpoint.world_seed, checkpoint.world_scale, world.config.seed, world.config.scale,
        ));
    }
    let at = checkpoint.posts_consumed;
    let mut replay_plan = plan.clone();
    if !replay_plan.snapshots.at.contains(&at) {
        replay_plan.snapshots.at.push(at);
    }
    // `None` until the replay reaches the checkpoint, then whether it
    // reproduced the checkpointed dataset.
    let mut verified = None;
    let result = ingest(world, posts, curation, &replay_plan, obs, |snap| {
        if snap.at_posts == at {
            verified = Some(build_dataset(&snap.output.records) == checkpoint.dataset);
        }
        if verified == Some(true) {
            on_snapshot(snap);
        }
    });
    match verified {
        Some(true) => Ok(result),
        Some(false) => Err(format!(
            "replay does not reproduce the checkpointed dataset at post {at}"
        )),
        None => Err(format!(
            "stream ended after {} posts, before the checkpoint at post {at}",
            result.posts_ingested
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::SnapshotPlan;
    use proptest::prelude::*;
    use smishing_worldsim::{ReportStream, WorldConfig};
    use std::sync::OnceLock;

    /// A live server's checkpoint halfway through a small world, as the
    /// JSON `smish serve --stream --checkpoint` writes.
    fn checkpoint_json() -> &'static [u8] {
        static JSON: OnceLock<String> = OnceLock::new();
        JSON.get_or_init(|| {
            let world = World::generate(WorldConfig {
                scale: 0.01,
                ..WorldConfig::default()
            });
            let plan = ExecPlan::sequential();
            let half = (world.posts.len() / 2) as u64;
            let serve = ServeState {
                epoch: 3,
                intel_window_secs: Some(86_400),
                cache_capacity: 4_096,
            };
            let mut json = None;
            ingest(
                &world,
                ReportStream::replay(&world),
                &CurationOptions::default(),
                &plan.clone().with_snapshots(SnapshotPlan::at(&[half])),
                &Obs::noop(),
                |snap| {
                    json = Checkpoint::capture_serving(snap, &plan, serve)
                        .to_json()
                        .ok()
                },
            );
            let json = json.expect("the snapshot fired");
            let intact = Checkpoint::from_json(&json).expect("an intact checkpoint parses");
            assert_eq!(intact.serve, Some(serve));
            json
        })
        .as_bytes()
    }

    /// `checkpoint_json` with its version field replaced by `field`
    /// (empty: removed).
    fn with_version(field: &str) -> String {
        let json = std::str::from_utf8(checkpoint_json()).expect("UTF-8 JSON");
        let current = format!("\"version\":{CHECKPOINT_VERSION},");
        assert!(json.contains(&current), "version field leads the object");
        json.replacen(&current, field, 1)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A damaged checkpoint file parses or errors, never panics; no
        /// strict prefix of a checkpoint parses; and a missing, older or
        /// future format version is refused, whatever its number.
        #[test]
        fn from_json_never_panics_on_damaged_checkpoints(
            cut in 0usize..1 << 24,
            at in 0usize..1 << 24,
            bit in 0u32..8,
            version in 0u64..1 << 33,
        ) {
            let json = checkpoint_json();
            let truncated = String::from_utf8_lossy(&json[..cut % json.len()]);
            prop_assert!(Checkpoint::from_json(&truncated).is_err());
            let mut flipped = json.to_vec();
            flipped[at % json.len()] ^= 1 << bit;
            let _ = Checkpoint::from_json(&String::from_utf8_lossy(&flipped));
            if version != u64::from(CHECKPOINT_VERSION) {
                let wrong = with_version(&format!("\"version\":{version},"));
                prop_assert!(Checkpoint::from_json(&wrong).is_err(), "version {}", version);
            }
            prop_assert!(Checkpoint::from_json(&with_version("")).is_err());
            prop_assert!(Checkpoint::from_json(&with_version("\"version\":null,")).is_err());
            prop_assert!(Checkpoint::from_json(&with_version("\"version\":\"1\",")).is_err());
        }
    }
}
