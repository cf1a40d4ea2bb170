//! Table 1 (dataset overview per forum) and Table 15 (yearly Twitter
//! distribution).

use crate::pipeline::PipelineOutput;
use crate::table::{count_pct, group_thousands, TextTable};
use smishing_types::Forum;
use std::collections::HashSet;

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

/// Table 1 over the output: the post and image columns from each forum's
/// collection stats, the message, sender and URL columns over every
/// curated message, duplicates included (a sender or URL is unique per
/// forum the first time it is seen), and the unique messages per forum
/// over each dedup group's evidence.
pub fn overview(out: &PipelineOutput<'_>) -> Overview {
    let mut rows: Vec<ForumRow> = Forum::ALL.iter().map(|&f| ForumRow::empty(f)).collect();
    fn row(rows: &mut [ForumRow], forum: Forum) -> &mut ForumRow {
        rows.iter_mut()
            .find(|r| r.forum == forum)
            .expect("a row per forum")
    }
    for (forum, stats) in &out.collection {
        let r = row(&mut rows, *forum);
        r.posts += stats.posts;
        r.images += stats.images;
    }
    let mut senders: HashSet<(Forum, &str)> = HashSet::with_capacity(out.curated_total.len());
    let mut urls: HashSet<(Forum, &str)> = HashSet::with_capacity(out.curated_total.len());
    for c in &out.curated_total {
        let r = row(&mut rows, c.forum);
        r.msgs_total += 1;
        if let Some(s) = c.sender_raw.as_deref() {
            r.senders_total += 1;
            r.senders_unique += usize::from(senders.insert((c.forum, s)));
        }
        if let Some(u) = c.url_raw.as_deref() {
            r.urls_total += 1;
            r.urls_unique += usize::from(urls.insert((c.forum, u)));
        }
    }
    for rec in &out.records {
        for r in &mut rows {
            r.msgs_unique += usize::from(rec.evidence.reported_on(r.forum));
        }
    }
    Overview { rows }
}

impl ForumRow {
    /// A row of zeros.
    fn empty(forum: Forum) -> ForumRow {
        ForumRow {
            forum,
            posts: 0,
            images: 0,
            msgs_unique: 0,
            msgs_total: 0,
            senders_unique: 0,
            senders_total: 0,
            urls_unique: 0,
            urls_total: 0,
        }
    }
}

impl Overview {
    /// Column sums (the Table 1 "Total" row).
    pub fn totals(&self) -> ForumRow {
        // The forum is a placeholder, not meaningful for totals.
        let mut t = ForumRow::empty(Forum::Twitter);
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

/// Table 15: Twitter posts and image attachments per year, sorted by
/// year. The output keeps no posts, so the engine's curators count them
/// during ingest.
pub fn twitter_years(out: &PipelineOutput<'_>) -> Vec<(i32, usize, usize)> {
    let years = out.twitter_years.iter();
    years.map(|(&y, s)| (y, s.posts, s.images)).collect()
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
        let ov = overview(testfix::output());
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
        let ov = overview(testfix::output());
        for r in &ov.rows {
            if !r.forum.carries_images() {
                assert_eq!(r.images, 0, "{:?}", r.forum);
            }
        }
    }

    #[test]
    fn posts_exceed_messages() {
        // Raw keyword volume ≫ usable reports (§3.2).
        let ov = overview(testfix::output());
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
        let ov = overview(testfix::output());
        let table = ov.to_table();
        assert_eq!(table.len(), 6); // 5 forums + total
        assert!(table.to_string().contains("Twitter"));
    }

    #[test]
    fn yearly_growth_shape() {
        let rows = twitter_years(testfix::output());
        assert!(rows.len() >= 6, "{rows:?}");
        // Volume grows: last year's posts > first year's (Table 15).
        assert!(rows.last().unwrap().1 > rows.first().unwrap().1, "{rows:?}");
        let table = twitter_by_year_table(&rows);
        assert!(table.len() >= 7);
    }
}
