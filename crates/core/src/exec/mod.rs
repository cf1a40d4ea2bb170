//! The single execution core: one sharded stage engine behind both the
//! batch [`Pipeline`](crate::pipeline::Pipeline) and streaming ingest.
//!
//! An [`ExecPlan`] describes *how* to run — curator count, analyst shard
//! count, channel capacity, snapshot schedule — while the caller supplies
//! *what* to run: a world, a post iterator, and
//! [`CurationOptions`](crate::curation::CurationOptions). Batch runs feed
//! the world's posts with no snapshot plan; streaming runs feed a live
//! [`ReportStream`](smishing_worldsim::ReportStream) and snapshot
//! mid-flight. Either way the output is a pure function of the post
//! multiset (see [`engine`]'s ordering invariant), so both fronts are
//! byte-identical at any shard count.
//!
//! A streaming run can be interrupted and picked up again: a
//! [`Checkpoint`] persists a snapshot through the serde dataset layer,
//! and [`resume`] replays the stream, verifies the checkpoint and
//! carries on (see [`checkpoint`]).

pub mod checkpoint;
pub mod engine;

pub use checkpoint::{resume, Checkpoint, ServeState, CHECKPOINT_VERSION};
pub use engine::{ingest, obs_send, GroupTable, IngestResult, StreamSnapshot, WinnerDelta};

/// When the feeder injects snapshot markers.
#[derive(Debug, Clone, Default)]
pub struct SnapshotPlan {
    /// Snapshot every `n` posts.
    pub every: Option<u64>,
    /// Snapshot at these exact post counts (positions past the end of a
    /// finite stream never fire).
    pub at: Vec<u64>,
}

impl SnapshotPlan {
    /// No snapshots.
    pub fn none() -> Self {
        Self::default()
    }

    /// Snapshot at exactly these post counts.
    pub fn at(points: &[u64]) -> Self {
        SnapshotPlan {
            every: None,
            at: points.to_vec(),
        }
    }

    /// Snapshot every `n` posts.
    pub fn every(n: u64) -> Self {
        SnapshotPlan {
            every: Some(n),
            at: Vec::new(),
        }
    }

    pub(crate) fn fires_at(&self, count: u64) -> bool {
        self.at.contains(&count)
            || self
                .every
                .is_some_and(|n| n > 0 && count > 0 && count.is_multiple_of(n))
    }
}

/// How the engine executes: worker topology plus snapshot schedule.
///
/// The plan never changes *what* is computed — output is invariant under
/// every field here — only how much parallelism and which mid-run
/// snapshots the run gets.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    /// Curation workers.
    pub curators: usize,
    /// Analyst shards (each owns a [`GroupTable`] over the dedup keys
    /// routed to it, and folds nothing).
    pub shards: usize,
    /// Capacity of every channel; a full channel blocks the producer.
    pub channel_capacity: usize,
    /// When to take consistent mid-run snapshots (batch fronts run with
    /// [`SnapshotPlan::none`]).
    pub snapshots: SnapshotPlan,
}

impl Default for ExecPlan {
    fn default() -> Self {
        ExecPlan {
            curators: 2,
            shards: 4,
            channel_capacity: 256,
            snapshots: SnapshotPlan::none(),
        }
    }
}

impl ExecPlan {
    /// One curator, one shard: fully deterministic scheduling, so even
    /// schedule-dependent *metric* counters replay exactly (the output is
    /// deterministic under every plan).
    pub fn sequential() -> Self {
        ExecPlan {
            curators: 1,
            shards: 1,
            ..ExecPlan::default()
        }
    }

    /// The default topology with an explicit shard count.
    pub fn sharded(shards: usize) -> Self {
        ExecPlan {
            shards,
            ..ExecPlan::default()
        }
    }

    /// Attach a snapshot schedule.
    pub fn with_snapshots(mut self, snapshots: SnapshotPlan) -> Self {
        self.snapshots = snapshots;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_fires() {
        let p = SnapshotPlan::every(10);
        assert!(p.fires_at(10) && p.fires_at(20) && !p.fires_at(15) && !p.fires_at(0));
        let p = SnapshotPlan::at(&[7]);
        assert!(p.fires_at(7) && !p.fires_at(14));
        assert!(!SnapshotPlan::none().fires_at(1));
    }

    #[test]
    fn sequential_plan_is_single_threaded_per_stage() {
        let p = ExecPlan::sequential();
        assert_eq!((p.curators, p.shards), (1, 1));
        let p = ExecPlan::sharded(8);
        assert_eq!(p.shards, 8);
    }
}
