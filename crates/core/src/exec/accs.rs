//! The per-worker analysis state: every incremental accumulator from
//! `crate::analysis`, bundled with uniform `add`/`merge` entry
//! points.
//!
//! Each engine worker owns one [`AnalysisAccs`]. Curation workers feed the
//! post- and message-level accumulators, which do not depend on
//! deduplication (Table 1's volume columns, Tables 11 and 15, Figure 2).
//! Analyst shards fold each dedup group once, at every cut, into a fresh
//! bundle through its winner and the evidence it carries
//! ([`AnalysisAccs::add_group`]). Nothing is ever withdrawn. Merging the
//! bundles from every worker yields exactly the state a single sequential
//! pass would have built. The engine's assembly step stores that merge on
//! every [`PipelineOutput`](crate::pipeline::PipelineOutput) it builds —
//! batch, end of stream and each snapshot — so these accumulators are the
//! one fold behind every accumulator-backed table, mid-stream or final.

use crate::analysis::asn::AsnAcc;
use crate::analysis::av::AvAcc;
use crate::analysis::brands::BrandsAcc;
use crate::analysis::categories::CategoriesAcc;
use crate::analysis::countries::CountriesAcc;
use crate::analysis::languages::LanguagesAcc;
use crate::analysis::lures::LuresAcc;
use crate::analysis::overview::{twitter_by_year_table, OverviewAcc, TwitterYearsAcc};
use crate::analysis::registrars::RegistrarsAcc;
use crate::analysis::sender_info::SenderInfoAcc;
use crate::analysis::shorteners::ShortenerAcc;
use crate::analysis::timestamps::SendTimesAcc;
use crate::analysis::tlds::TldAcc;
use crate::analysis::tls::TlsAcc;
use crate::curation::CuratedMessage;
use crate::enrich::EnrichedRecord;
use crate::table::TextTable;
use smishing_types::Forum;
use smishing_worldsim::Post;

/// Every incremental analysis accumulator, mergeable across shards.
#[derive(Debug, Clone, Default)]
pub struct AnalysisAccs {
    /// Table 1 (posts/images arrive per post, message columns per curated
    /// message, unique messages per dedup group).
    pub overview: OverviewAcc,
    /// Table 15.
    pub twitter_years: TwitterYearsAcc,
    /// Table 11.
    pub languages: LanguagesAcc,
    /// Figure 2 send-time samples.
    pub send_times: SendTimesAcc,
    /// Table 10 (per dedup group).
    pub categories: CategoriesAcc,
    /// Table 12 (per dedup group).
    pub brands: BrandsAcc,
    /// Table 13.
    pub lures: LuresAcc,
    /// Tables 3 and 4.
    pub sender_info: SenderInfoAcc,
    /// Table 5.
    pub shorteners: ShortenerAcc,
    /// Tables 6 and 16.
    pub tlds: TldAcc,
    /// Table 7.
    pub tls: TlsAcc,
    /// Table 8.
    pub asn: AsnAcc,
    /// Tables 9 and 18.
    pub av: AvAcc,
    /// Table 14 / Figure 3.
    pub countries: CountriesAcc,
    /// Table 17.
    pub registrars: RegistrarsAcc,
    /// Records enriched only partially because a service kept failing
    /// after retries (snapshots carry this so mid-stream views report
    /// degradation honestly).
    pub degraded_records: u64,
}

impl AnalysisAccs {
    /// New empty bundle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one collected post (curation-worker side: raw volume).
    pub fn add_post(&mut self, post: &Post) {
        let has_image = post.body.has_image();
        self.overview.add_post(post.forum, has_image);
        if post.forum == Forum::Twitter {
            self.twitter_years
                .add_post(post.posted_at.year(), has_image);
        }
    }

    /// Fold in one curated message, duplicates included (curation-worker
    /// side: none of these columns depends on deduplication).
    pub fn add_curated(&mut self, c: &CuratedMessage) {
        self.overview.add_curated(c);
        self.languages.add_curated(c);
        self.send_times.add_curated(c);
    }

    /// Fold in one dedup group through its winner and the evidence the
    /// winner carries: every record-level table, Table 1's unique-message
    /// column, and Tables 10 and 12, which weight the winner's annotation
    /// by the group's report count. The engine runs it once per group
    /// whenever a shard emits a cut (a snapshot or the end of the stream),
    /// on the fresh bundle it sends.
    pub fn add_group(&mut self, r: &EnrichedRecord) {
        self.overview.add_group(&r.evidence);
        self.categories.add_group(r);
        self.brands.add_group(r);
        self.lures.add_record(r);
        self.sender_info.add_record(r);
        self.shorteners.add_record(r);
        self.tlds.add_record(r);
        self.tls.add_record(r);
        self.asn.add_record(r);
        self.av.add_record(r);
        self.countries.add_record(r);
        self.registrars.add_record(r);
        if r.is_degraded() {
            self.degraded_records += 1;
        }
    }

    /// Absorb another worker's bundle.
    pub fn merge(&mut self, other: AnalysisAccs) {
        self.overview.merge(other.overview);
        self.twitter_years.merge(other.twitter_years);
        self.languages.merge(other.languages);
        self.send_times.merge(other.send_times);
        self.categories.merge(other.categories);
        self.brands.merge(other.brands);
        self.lures.merge(other.lures);
        self.sender_info.merge(other.sender_info);
        self.shorteners.merge(other.shorteners);
        self.tlds.merge(other.tlds);
        self.tls.merge(other.tls);
        self.asn.merge(other.asn);
        self.av.merge(other.av);
        self.countries.merge(other.countries);
        self.registrars.merge(other.registrars);
        self.degraded_records += other.degraded_records;
    }

    /// Render every table the accumulators cover, mid-stream or final,
    /// under the ids `experiment::run_all` gives the same artifacts.
    pub fn tables(&self) -> Vec<(&'static str, TextTable)> {
        let av = self.av.finish();
        let tlds = self.tlds.finish();
        vec![
            ("T1", self.overview.finish().to_table()),
            ("T3", self.sender_info.finish().number_types_table()),
            ("T4", self.sender_info.finish().operators_table()),
            ("T5", self.shorteners.finish().to_table()),
            ("T6", tlds.to_table6()),
            ("T7", self.tls.finish().to_table()),
            ("T8", self.asn.finish().to_table()),
            ("T9", av.to_table9()),
            ("T10", self.categories.finish().to_table()),
            ("T11", self.languages.finish().to_table()),
            ("T12", self.brands.finish().to_table()),
            ("F2", self.send_times.finish(true).to_table()),
            ("T14", self.countries.finish().to_table()),
            ("F3", self.countries.finish().figure3_table()),
            ("T15", twitter_by_year_table(&self.twitter_years.finish())),
            ("T16", tlds.to_table16()),
            ("T17", self.registrars.finish().to_table()),
            ("T18", av.to_table18()),
            ("T13", self.lures.finish().to_table()),
        ]
    }
}
