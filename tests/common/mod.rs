//! Helpers shared by the root test suites.

use smishing::core::collect::CollectionStats;
use smishing::core::exec::AnalysisAccs;
use smishing::core::PipelineOutput;
use smishing::types::Forum;

/// The reference fold: one sequential pass of every analysis accumulator
/// over a pipeline output — Table 1's post and image columns and Table
/// 15's per-year counts over the world's posts, then `add_curated` over
/// its curated messages, and `add_group` over its unique records
/// (weighting each by the evidence it carries). It reads no engine count,
/// so it checks the engine's collection stats and per-year counts
/// independently.
pub fn sequential_fold(out: &PipelineOutput<'_>) -> AnalysisAccs {
    let mut accs = AnalysisAccs::new();
    for post in &out.world.posts {
        let has_image = post.body.has_image();
        let one = CollectionStats {
            posts: 1,
            images: usize::from(has_image),
        };
        accs.overview.add_collection(post.forum, &one);
        if post.forum == Forum::Twitter {
            accs.twitter_years
                .add_post(post.posted_at.year(), has_image);
        }
    }
    for c in &out.curated_total {
        accs.add_curated(c);
    }
    for r in &out.records {
        accs.add_group(r);
    }
    accs
}
