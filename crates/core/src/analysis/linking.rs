//! Campaign linking by infrastructure pivoting (extension).
//!
//! §5.1 identifies "a popular smishing campaign from 2021" by its shared
//! timing/brand/URL; takedown teams generalize this: reports that share a
//! registrable domain, a sender ID, or a template skeleton belong to one
//! campaign. This module clusters the curated records on those pivots with
//! union-find and — because the generator knows the true campaign of every
//! message — evaluates the clustering with pairwise precision/recall.
//!
//! The measured result is itself a finding: the *domain* pivot is nearly
//! lossless in precision, while shortcode and template pivots over-merge
//! (the same shortcode stem and template skeleton recur across campaigns),
//! buying recall at a precision cost.

use crate::pipeline::PipelineOutput;
use crate::table::TextTable;
use smishing_stats::unionfind::UnionFind;
use smishing_textnlp::normalize::normalize_text;
use std::collections::HashMap;

/// Which pivots to cluster on (for ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkingPivots {
    /// Shared registrable domain / free-hosting site / short-link URL.
    pub domain: bool,
    /// Shared sender ID.
    pub sender: bool,
    /// Shared template skeleton (text with digits/URLs masked).
    pub skeleton: bool,
}

impl LinkingPivots {
    /// All pivots on (the production configuration).
    pub const ALL: LinkingPivots = LinkingPivots {
        domain: true,
        sender: true,
        skeleton: true,
    };
}

/// Clustering outcome with ground-truth evaluation.
#[derive(Debug, Clone)]
pub struct LinkingResult {
    /// Records clustered.
    pub n: usize,
    /// Clusters found.
    pub clusters: usize,
    /// True campaigns among the clustered records.
    pub true_campaigns: usize,
    /// Pairwise precision: of record pairs we linked, how many share a
    /// true campaign.
    pub pair_precision: f64,
    /// Pairwise recall: of record pairs sharing a true campaign, how many
    /// we linked.
    pub pair_recall: f64,
}

impl LinkingResult {
    /// Pairwise F1.
    pub fn pair_f1(&self) -> f64 {
        if self.pair_precision + self.pair_recall == 0.0 {
            0.0
        } else {
            2.0 * self.pair_precision * self.pair_recall / (self.pair_precision + self.pair_recall)
        }
    }

    fn row(&self, label: &str, t: &mut TextTable) {
        t.row(&[
            label.to_string(),
            self.n.to_string(),
            self.clusters.to_string(),
            self.true_campaigns.to_string(),
            format!("{:.3}", self.pair_precision),
            format!("{:.3}", self.pair_recall),
            format!("{:.3}", self.pair_f1()),
        ]);
    }

    /// Render a one-row summary.
    pub fn to_table(&self, label: &str) -> TextTable {
        let mut t = linking_table_header();
        self.row(label, &mut t);
        t
    }
}

fn linking_table_header() -> TextTable {
    TextTable::new(
        "Campaign linking by infrastructure pivoting",
        &[
            "Pivots",
            "Records",
            "Clusters",
            "True campaigns",
            "Pair P",
            "Pair R",
            "Pair F1",
        ],
    )
}

/// The full pivot ablation: each pivot alone, then all combined.
pub fn linking_ablation(
    out: &PipelineOutput<'_>,
) -> (Vec<(&'static str, LinkingResult)>, TextTable) {
    let configs = [
        (
            "domain",
            LinkingPivots {
                domain: true,
                sender: false,
                skeleton: false,
            },
        ),
        (
            "sender",
            LinkingPivots {
                domain: false,
                sender: true,
                skeleton: false,
            },
        ),
        (
            "skeleton",
            LinkingPivots {
                domain: false,
                sender: false,
                skeleton: true,
            },
        ),
        ("all", LinkingPivots::ALL),
    ];
    let mut table = linking_table_header();
    let mut results = Vec::new();
    for (label, pivots) in configs {
        let r = link_campaigns(out, pivots);
        r.row(label, &mut table);
        results.push((label, r));
    }
    (results, table)
}

/// Mask volatile spans so template siblings share a skeleton.
///
/// Public so downstream consumers (the `smishing-intel` snapshot builder)
/// cluster on exactly the pivots this ablation measures.
pub fn skeleton_of(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for tok in text.split_whitespace() {
        if smishing_textnlp::tokenize::looks_like_url(tok) {
            out.push_str("<URL> ");
        } else if tok.chars().filter(|c| c.is_ascii_digit()).count() >= 2 {
            out.push_str("<N> ");
        } else {
            out.push_str(&tok.to_lowercase());
            out.push(' ');
        }
    }
    out
}

/// Pivot keys for one record: `(key, strong)` — strong pivots (domains)
/// are exempt from the anti-hub rule, weak ones (senders, skeletons) are
/// capped.
///
/// One pivot vocabulary, shared between the §5.1 ablation here and the
/// serving-side `IntelSnapshot` linker: the store derives these same
/// keys once per entry, as interned symbols, and an intel test pins its
/// clusters to the ones these strings give.
pub fn pivot_keys(r: &crate::enrich::EnrichedRecord, pivots: LinkingPivots) -> Vec<(String, bool)> {
    let mut keys = Vec::new();
    if pivots.domain {
        if let Some(u) = &r.url {
            // The pivot is the registrable unit for direct URLs; for
            // shortened links the exact short URL (codes are per campaign).
            keys.push((
                match &u.domain {
                    Some(d) => format!("d:{d}"),
                    None => format!("u:{}", u.parsed.to_url_string()),
                },
                true,
            ));
        }
    }
    if pivots.sender {
        if let Some(s) = &r.sender {
            keys.push((format!("s:{}", s.display_string()), false));
        }
    }
    if pivots.skeleton {
        keys.push((
            format!("t:{}", skeleton_of(&normalize_text(&r.curated.text))),
            false,
        ));
    }
    keys
}

/// The anti-hub cap on weak pivots.
///
/// Weak pivots (sender, skeleton) pass through an anti-hub rule: a weak
/// key shared across too many *clusters-so-far* would glue unrelated
/// campaigns transitively, so weak keys seen on more than `WEAK_KEY_CAP`
/// records are skipped. Strong pivots (domains, exact short URLs) are
/// never capped — a big key there is one big campaign.
pub const WEAK_KEY_CAP: u32 = 40;

/// The anti-hub clusterer behind [`link_campaigns`] and the intel
/// store's campaign-link clusters, over dense key ids: `link_campaigns`
/// numbers its pivot strings, the store its interned symbols.
///
/// `keys_of(i)` yields record `i`'s `(key, strong)` pivots, as
/// [`pivot_keys`] does but with each key an id below `n_keys`, and is
/// called twice per record. The first pass counts how many records carry
/// each weak key; the second unions every record with the first record
/// that carried each of its keys, skipping weak keys seen on more than
/// [`WEAK_KEY_CAP`] records. Both tables are arrays indexed by key id.
/// The cap is non-monotone (a key crosses it as records accumulate), so a
/// caller whose record set grows reruns both passes rather than carrying
/// a union-find over. Returns each record's cluster id, dense in order
/// of first appearance, and the number of clusters.
pub fn cluster_by_keys<I>(
    n: usize,
    n_keys: usize,
    keys_of: impl Fn(usize) -> I,
) -> (Vec<usize>, usize)
where
    I: IntoIterator<Item = (usize, bool)>,
{
    let mut weak_freq = vec![0u32; n_keys];
    for i in 0..n {
        for (key, strong) in keys_of(i) {
            if !strong {
                weak_freq[key] += 1;
            }
        }
    }
    let mut uf = UnionFind::new(n);
    let mut first = vec![usize::MAX; n_keys];
    for i in 0..n {
        for (key, strong) in keys_of(i) {
            if !strong && weak_freq[key] > WEAK_KEY_CAP {
                continue;
            }
            if first[key] == usize::MAX {
                first[key] = i;
            } else {
                uf.union(i, first[key]);
            }
        }
    }
    (uf.clusters(), uf.components())
}

/// Cluster the unique records on the chosen pivots and evaluate.
pub fn link_campaigns(out: &PipelineOutput<'_>, pivots: LinkingPivots) -> LinkingResult {
    let records: Vec<_> = out
        .records
        .iter()
        .filter(|r| r.curated.truth_message.is_some())
        .collect();
    let n = records.len();
    // Each distinct pivot string gets a dense id once.
    let mut ids: HashMap<String, usize> = HashMap::new();
    let keys: Vec<Vec<(usize, bool)>> = records
        .iter()
        .map(|r| {
            pivot_keys(r, pivots)
                .into_iter()
                .map(|(key, strong)| {
                    let next = ids.len();
                    (*ids.entry(key).or_insert(next), strong)
                })
                .collect()
        })
        .collect();
    let (cluster_ids, n_clusters) = cluster_by_keys(n, ids.len(), |i| keys[i].iter().copied());

    // Evaluate pairwise against ground-truth campaign ids, per cluster and
    // per campaign (avoiding the O(n²) full pair enumeration).
    let truth: Vec<u32> = records
        .iter()
        .map(|r| {
            let mid = r.curated.truth_message.expect("filtered");
            out.world.messages[mid.0 as usize].campaign.0
        })
        .collect();

    let mut cluster_sizes: Vec<u64> = vec![0; n_clusters];
    let mut campaign_sizes: HashMap<u32, u64> = HashMap::new();
    let mut joint_sizes: HashMap<(usize, u32), u64> = HashMap::new();
    for i in 0..n {
        cluster_sizes[cluster_ids[i]] += 1;
        *campaign_sizes.entry(truth[i]).or_default() += 1;
        *joint_sizes.entry((cluster_ids[i], truth[i])).or_default() += 1;
    }
    let pairs = |c: u64| c * (c.saturating_sub(1)) / 2;
    let linked_pairs: u64 = cluster_sizes.iter().map(|&c| pairs(c)).sum();
    let true_pairs: u64 = campaign_sizes.values().map(|&c| pairs(c)).sum();
    let joint_pairs: u64 = joint_sizes.values().map(|&c| pairs(c)).sum();

    LinkingResult {
        n,
        clusters: n_clusters,
        true_campaigns: campaign_sizes.len(),
        pair_precision: if linked_pairs == 0 {
            1.0
        } else {
            joint_pairs as f64 / linked_pairs as f64
        },
        pair_recall: if true_pairs == 0 {
            1.0
        } else {
            joint_pairs as f64 / true_pairs as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::testfix;

    #[test]
    fn domain_pivot_is_near_perfectly_precise() {
        // Domains are minted per campaign: sharing one is (almost) proof of
        // a shared campaign — the analyst's strongest pivot.
        let r = link_campaigns(
            testfix::output(),
            LinkingPivots {
                domain: true,
                sender: false,
                skeleton: false,
            },
        );
        assert!(r.n > 2000, "{}", r.n);
        assert!(r.pair_precision > 0.95, "precision {}", r.pair_precision);
        assert!(
            (0.35..0.9).contains(&r.pair_recall),
            "recall {}",
            r.pair_recall
        );
    }

    #[test]
    fn weak_pivots_over_merge_but_lift_recall() {
        // Shortcode stems and template skeletons repeat ACROSS campaigns
        // (two SBI waves both send "SBIBNK" KYC texts), so adding them
        // trades precision for recall — the practitioner's dilemma.
        let domain = link_campaigns(
            testfix::output(),
            LinkingPivots {
                domain: true,
                sender: false,
                skeleton: false,
            },
        );
        let all = link_campaigns(testfix::output(), LinkingPivots::ALL);
        assert!(
            all.pair_recall > domain.pair_recall + 0.05,
            "{} vs {}",
            all.pair_recall,
            domain.pair_recall
        );
        assert!(
            all.pair_precision < domain.pair_precision,
            "weak pivots must cost precision"
        );
        // Transitive chaining through weak keys costs real precision even
        // with the anti-hub cap — the honest over-merge number stays well
        // above chance but far below the domain pivot.
        assert!(all.pair_precision > 0.08, "{}", all.pair_precision);
    }

    #[test]
    fn cluster_count_brackets_the_truth() {
        let (results, _) = linking_ablation(testfix::output());
        let domain = &results.iter().find(|(l, _)| *l == "domain").unwrap().1;
        let all = &results.iter().find(|(l, _)| *l == "all").unwrap().1;
        // Domain-only splinters campaigns (more clusters than campaigns);
        // combining pivots approaches the truth from above.
        assert!(domain.clusters > domain.true_campaigns);
        assert!(all.clusters < domain.clusters);
    }

    #[test]
    fn weak_keys_past_the_cap_link_nothing() {
        // `n` records share one weak key (0); every third also shares a
        // strong one (1), which is never capped.
        let clusters = |n: usize| {
            cluster_by_keys(n, 2, |i| {
                let strong = (i % 3 == 0).then_some((1, true));
                [Some((0, false)), strong].into_iter().flatten()
            })
            .1
        };
        let cap = WEAK_KEY_CAP as usize;
        assert_eq!(clusters(cap), 1);
        // Past the cap only the strong key links: its records form one
        // cluster and the rest stay alone.
        let n = cap + 1;
        assert_eq!(clusters(n), 1 + n - n.div_ceil(3));
    }

    #[test]
    fn skeletons_mask_variants() {
        let a = skeleton_of("Evri: parcel RM123456789GB held, pay £1.99 at https://cutt.ly/a1");
        let b = skeleton_of("Evri: parcel RM987654321GB held, pay £2.49 at https://cutt.ly/z9");
        assert_eq!(a, b);
        let c = skeleton_of("Your SBI account is blocked");
        assert_ne!(a, c);
    }

    #[test]
    fn table_renders() {
        let r = link_campaigns(testfix::output(), LinkingPivots::ALL);
        assert_eq!(r.to_table("all pivots").len(), 1);
    }
}
