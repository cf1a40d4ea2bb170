//! Helpers shared by the root test suites.

use smishing::core::exec::AnalysisAccs;
use smishing::core::PipelineOutput;

/// The reference fold: one sequential pass of every analysis accumulator
/// over a pipeline output — `add_post` over the world's posts, then
/// `add_curated` over its curated messages, and `add_record` and
/// `add_group` over its unique records (the latter weighting each by the
/// evidence it carries). No shards, retractions or merges are involved,
/// so it checks the engine's merged `accs` independently.
pub fn sequential_fold(out: &PipelineOutput<'_>) -> AnalysisAccs {
    let mut accs = AnalysisAccs::new();
    for post in &out.world.posts {
        accs.add_post(post);
    }
    for c in &out.curated_total {
        accs.add_curated(c);
    }
    for r in &out.records {
        accs.add_record(r);
        accs.add_group(r);
    }
    accs
}
