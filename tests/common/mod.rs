//! Helpers shared by the root test suites.

use smishing::core::collect::CollectionStats;
use smishing::core::PipelineOutput;
use smishing::types::Forum;
use std::collections::BTreeMap;

/// The reference output: `out`'s curated messages and unique records,
/// with Table 1's post and image columns and Table 15's per-year counts
/// recounted from the world's posts. It reads no engine count, so the
/// tables it renders check the engine's collection stats and per-year
/// counts independently.
pub fn reference_output<'w>(out: &PipelineOutput<'w>) -> PipelineOutput<'w> {
    let mut collection: BTreeMap<Forum, CollectionStats> = BTreeMap::new();
    let mut twitter_years: BTreeMap<i32, CollectionStats> = BTreeMap::new();
    for post in &out.world.posts {
        let one = CollectionStats {
            posts: 1,
            images: usize::from(post.body.has_image()),
        };
        *collection.entry(post.forum).or_default() += one;
        if post.forum == Forum::Twitter {
            *twitter_years.entry(post.posted_at.year()).or_default() += one;
        }
    }
    PipelineOutput::new(
        out.world,
        collection.into_iter().collect(),
        out.curated_total.clone(),
        out.records.clone(),
        twitter_years,
    )
}
