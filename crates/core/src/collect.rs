//! Collection: gathering keyword-matched posts from the five forums (§3.1).
//!
//! In a live deployment each forum collector wraps an API client; here they
//! read from the generated world. What the collectors hand downstream is
//! exactly what the paper's scrapers had: posts with image attachments or
//! structured text, plus the ground-truth back-pointer used *only* by the
//! evaluation analyses.

use smishing_types::Forum;
use smishing_worldsim::{Post, World};

/// Per-forum collection statistics (Table 1's raw columns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectionStats {
    /// Keyword-matched posts collected.
    pub posts: usize,
    /// Image attachments among them.
    pub images: usize,
}

impl std::ops::AddAssign for CollectionStats {
    fn add_assign(&mut self, other: CollectionStats) {
        self.posts += other.posts;
        self.images += other.images;
    }
}

/// Collect all posts of one forum.
pub fn collect_forum(world: &World, forum: Forum) -> (Vec<&Post>, CollectionStats) {
    let posts: Vec<&Post> = world.posts_on(forum).collect();
    let stats = CollectionStats {
        posts: posts.len(),
        images: posts.iter().filter(|p| p.body.has_image()).count(),
    };
    (posts, stats)
}

/// Collect everything, in forum order.
pub fn collect_all(world: &World) -> Vec<(Forum, Vec<&Post>, CollectionStats)> {
    Forum::ALL
        .iter()
        .map(|&forum| {
            let (posts, stats) = collect_forum(world, forum);
            (forum, posts, stats)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smishing_worldsim::WorldConfig;

    #[test]
    fn collects_every_post_exactly_once() {
        let world = World::generate(WorldConfig::test_scale(51));
        let all = collect_all(&world);
        let total: usize = all.iter().map(|(_, p, _)| p.len()).sum();
        assert_eq!(total, world.posts.len());
    }

    #[test]
    fn stats_match_content() {
        let world = World::generate(WorldConfig::test_scale(52));
        for (forum, posts, stats) in collect_all(&world) {
            assert_eq!(stats.posts, posts.len());
            assert!(stats.images <= stats.posts);
            if !forum.carries_images() {
                assert_eq!(stats.images, 0, "{forum}");
            }
        }
    }

    #[test]
    fn twitter_has_the_most_posts() {
        let world = World::generate(WorldConfig::test_scale(53));
        let all = collect_all(&world);
        let twitter = all.iter().find(|(f, _, _)| *f == Forum::Twitter).unwrap().2;
        for (forum, _, stats) in &all {
            if *forum != Forum::Twitter {
                assert!(twitter.posts >= stats.posts, "{forum}");
            }
        }
    }
}
