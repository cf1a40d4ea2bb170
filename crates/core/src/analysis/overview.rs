//! Table 1 (dataset overview per forum) and Table 15 (yearly Twitter
//! distribution).

use crate::collect::CollectionStats;
use crate::curation::CuratedMessage;
use crate::enrich::Evidence;
use crate::table::{count_pct, group_thousands, TextTable};
use smishing_stats::Counter;
use smishing_types::Forum;
use std::collections::HashMap;

/// One forum's row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForumRow {
    /// Forum.
    pub forum: Forum,
    /// Keyword-matched posts collected.
    pub posts: usize,
    /// Image attachments.
    pub images: usize,
    /// Unique messages.
    pub msgs_unique: usize,
    /// Total messages (with duplicates).
    pub msgs_total: usize,
    /// Unique sender IDs.
    pub senders_unique: usize,
    /// Total sender IDs.
    pub senders_total: usize,
    /// Unique URLs.
    pub urls_unique: usize,
    /// Total URLs.
    pub urls_total: usize,
}

/// The Table 1 reproduction.
#[derive(Debug, Clone)]
pub struct Overview {
    /// Per-forum rows in Table 1 order.
    pub rows: Vec<ForumRow>,
}

/// Table 1: the post and image columns arrive as each forum's collection
/// stats via [`OverviewAcc::add_collection`], message-level counts via
/// [`OverviewAcc::add_curated`], and the unique messages per forum via
/// [`OverviewAcc::add_group`], once per dedup group. The sender and URL
/// columns count the distinct keys and the total of one multiset each.
#[derive(Debug, Clone, Default)]
pub struct OverviewAcc {
    collection: HashMap<Forum, CollectionStats>,
    msgs: Counter<Forum>,
    unique_msgs: Counter<Forum>,
    senders: HashMap<Forum, Counter<String>>,
    urls: HashMap<Forum, Counter<String>>,
}

impl OverviewAcc {
    /// New empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one forum's collection stats: its posts and images.
    pub fn add_collection(&mut self, forum: Forum, stats: &CollectionStats) {
        let e = self.collection.entry(forum).or_default();
        e.posts += stats.posts;
        e.images += stats.images;
    }

    /// Fold in one curated message.
    pub fn add_curated(&mut self, c: &CuratedMessage) {
        self.msgs.add(c.forum);
        if let Some(s) = c.sender_raw.as_deref() {
            self.senders.entry(c.forum).or_default().add(s.to_string());
        }
        if let Some(u) = c.url_raw.as_deref() {
            self.urls.entry(c.forum).or_default().add(u.to_string());
        }
    }

    /// Fold in one dedup group: a unique message of every forum that
    /// reported it.
    pub fn add_group(&mut self, evidence: &Evidence) {
        for &forum in Forum::ALL {
            if evidence.reported_on(forum) {
                self.unique_msgs.add(forum);
            }
        }
    }

    /// Produce the batch result.
    pub fn finish(&self) -> Overview {
        let empty = Counter::new();
        let mut rows = Vec::new();
        for &forum in Forum::ALL {
            let senders = self.senders.get(&forum).unwrap_or(&empty);
            let urls = self.urls.get(&forum).unwrap_or(&empty);
            let collected = self.collection.get(&forum).copied().unwrap_or_default();
            rows.push(ForumRow {
                forum,
                posts: collected.posts,
                images: collected.images,
                msgs_unique: self.unique_msgs.get(&forum) as usize,
                msgs_total: self.msgs.get(&forum) as usize,
                senders_unique: senders.distinct(),
                senders_total: senders.total() as usize,
                urls_unique: urls.distinct(),
                urls_total: urls.total() as usize,
            });
        }
        Overview { rows }
    }
}

impl Overview {
    /// Column sums (the Table 1 "Total" row).
    pub fn totals(&self) -> ForumRow {
        let mut t = ForumRow {
            forum: Forum::Twitter, // placeholder; not meaningful for totals
            posts: 0,
            images: 0,
            msgs_unique: 0,
            msgs_total: 0,
            senders_unique: 0,
            senders_total: 0,
            urls_unique: 0,
            urls_total: 0,
        };
        for r in &self.rows {
            t.posts += r.posts;
            t.images += r.images;
            t.msgs_unique += r.msgs_unique;
            t.msgs_total += r.msgs_total;
            t.senders_unique += r.senders_unique;
            t.senders_total += r.senders_total;
            t.urls_unique += r.urls_unique;
            t.urls_total += r.urls_total;
        }
        t
    }

    /// Render as Table 1.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 1: dataset overview per forum",
            &[
                "Forum",
                "Posts",
                "Images",
                "Msgs uniq",
                "Msgs total",
                "Senders uniq",
                "Senders total",
                "URLs uniq",
                "URLs total",
            ],
        );
        let total = self.totals();
        for r in &self.rows {
            t.row(&[
                r.forum.name().to_string(),
                group_thousands(r.posts as u64),
                group_thousands(r.images as u64),
                count_pct(r.msgs_unique as u64, total.msgs_unique as u64),
                group_thousands(r.msgs_total as u64),
                count_pct(r.senders_unique as u64, total.senders_unique as u64),
                group_thousands(r.senders_total as u64),
                count_pct(r.urls_unique as u64, total.urls_unique as u64),
                group_thousands(r.urls_total as u64),
            ]);
        }
        t.row(&[
            "Total".to_string(),
            group_thousands(total.posts as u64),
            group_thousands(total.images as u64),
            group_thousands(total.msgs_unique as u64),
            group_thousands(total.msgs_total as u64),
            group_thousands(total.senders_unique as u64),
            group_thousands(total.senders_total as u64),
            group_thousands(total.urls_unique as u64),
            group_thousands(total.urls_total as u64),
        ]);
        t
    }
}

/// Table 15: per-year Twitter post and image-attachment counts. The
/// output keeps no posts, so the engine's curators count them during
/// ingest and its collector merges each curator's interval.
#[derive(Debug, Clone, Default)]
pub struct TwitterYearsAcc {
    posts: Counter<i32>,
    images: Counter<i32>,
}

impl TwitterYearsAcc {
    /// New empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one Twitter post.
    pub fn add_post(&mut self, year: i32, has_image: bool) {
        self.posts.add(year);
        if has_image {
            self.images.add(year);
        }
    }

    /// Absorb another curator's counts.
    pub fn merge(&mut self, other: TwitterYearsAcc) {
        self.posts.merge(&other.posts);
        self.images.merge(&other.images);
    }

    /// Produce the batch result, sorted by year.
    pub fn finish(&self) -> Vec<(i32, usize, usize)> {
        let mut years: Vec<i32> = self.posts.iter().map(|(y, _)| *y).collect();
        years.sort_unstable();
        years
            .into_iter()
            .map(|y| (y, self.posts.get(&y) as usize, self.images.get(&y) as usize))
            .collect()
    }
}

/// Render Table 15.
pub fn twitter_by_year_table(rows: &[(i32, usize, usize)]) -> TextTable {
    let mut t = TextTable::new(
        "Table 15: annual distribution of Twitter posts and images",
        &["Year", "Tweets", "Image attachments"],
    );
    let total_posts: usize = rows.iter().map(|r| r.1).sum();
    let total_images: usize = rows.iter().map(|r| r.2).sum();
    for (y, p, i) in rows {
        t.row(&[
            y.to_string(),
            count_pct(*p as u64, total_posts as u64),
            count_pct(*i as u64, total_images as u64),
        ]);
    }
    t.row(&[
        "Total".to_string(),
        group_thousands(total_posts as u64),
        group_thousands(total_images as u64),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testfix;

    #[test]
    fn twitter_dominates_and_ratios_hold() {
        let ov = testfix::output().accs().overview.finish();
        let twitter = &ov.rows[0];
        assert_eq!(twitter.forum, Forum::Twitter);
        for r in &ov.rows[1..] {
            assert!(twitter.msgs_total >= r.msgs_total, "{:?}", r.forum);
        }
        // Paper: Twitter ≈ 92% of unique messages.
        let total = ov.totals();
        let share = twitter.msgs_unique as f64 / total.msgs_unique as f64;
        assert!((0.80..0.99).contains(&share), "{share}");
        // Unique ≤ total everywhere.
        for r in &ov.rows {
            assert!(r.msgs_unique <= r.msgs_total);
            assert!(r.senders_unique <= r.senders_total);
            assert!(r.urls_unique <= r.urls_total);
        }
    }

    #[test]
    fn text_forums_have_no_images() {
        let ov = testfix::output().accs().overview.finish();
        for r in &ov.rows {
            if !r.forum.carries_images() {
                assert_eq!(r.images, 0, "{:?}", r.forum);
            }
        }
    }

    #[test]
    fn posts_exceed_messages() {
        // Raw keyword volume ≫ usable reports (§3.2).
        let ov = testfix::output().accs().overview.finish();
        let t = ov.totals();
        assert!(
            t.posts > t.msgs_total * 3,
            "{} vs {}",
            t.posts,
            t.msgs_total
        );
    }

    #[test]
    fn table_renders() {
        let ov = testfix::output().accs().overview.finish();
        let table = ov.to_table();
        assert_eq!(table.len(), 6); // 5 forums + total
        assert!(table.to_string().contains("Twitter"));
    }

    #[test]
    fn yearly_growth_shape() {
        let rows = testfix::output().accs().twitter_years.finish();
        assert!(rows.len() >= 6, "{rows:?}");
        // Volume grows: last year's posts > first year's (Table 15).
        assert!(rows.last().unwrap().1 > rows.first().unwrap().1, "{rows:?}");
        let table = twitter_by_year_table(&rows);
        assert!(table.len() >= 7);
    }
}
