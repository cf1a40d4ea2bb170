//! Every accumulator-backed artifact in one bundle, folded once per
//! output.
//!
//! [`AnalysisAccs`] holds every incremental accumulator from
//! `crate::analysis`. A [`PipelineOutput`](crate::pipeline::PipelineOutput)
//! builds it the first time a consumer asks for its
//! [`accs`](crate::pipeline::PipelineOutput::accs), in one sequential pass
//! over what the output keeps: Table 1's post and image columns from the
//! per-forum collection stats and Table 15 from the per-year Twitter
//! counts (the only two artifacts that need raw posts, which the engine's
//! curators count during ingest), then every curated message
//! ([`AnalysisAccs::add_curated`]), then each dedup group once, through
//! its winner and the evidence it carries ([`AnalysisAccs::add_group`]).
//! Messages and records are held in post-id order, so the bundle is
//! exactly the state a single sequential pass over the posts would have
//! built: the one fold behind every accumulator-backed table, mid-stream
//! or final.

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

/// Every incremental analysis accumulator.
#[derive(Debug, Clone, Default)]
pub struct AnalysisAccs {
    /// Table 1 (post and image columns from the collection stats, message
    /// columns per curated message, unique messages per dedup group).
    pub overview: OverviewAcc,
    /// Table 15 (Twitter posts and images per year).
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

    /// Fold in one curated message, duplicates included: Table 1's
    /// message, sender and URL columns, Table 11 and Figure 2, none of
    /// which depends on deduplication.
    pub fn add_curated(&mut self, c: &CuratedMessage) {
        self.overview.add_curated(c);
        self.languages.add_curated(c);
        self.send_times.add_curated(c);
    }

    /// Fold in one dedup group through its winner and the evidence the
    /// winner carries: every record-level table, Table 1's unique-message
    /// column, and Tables 10 and 12, which weight the winner's annotation
    /// by the group's report count. [`PipelineOutput::accs`] runs it once
    /// per record, on demand.
    ///
    /// [`PipelineOutput::accs`]: crate::pipeline::PipelineOutput::accs
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
