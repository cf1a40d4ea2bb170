//! One analysis module per paper artifact (see DESIGN.md's per-experiment
//! index).
//!
//! | module | artifacts |
//! |---|---|
//! | [`overview`] | Table 1, Table 15 |
//! | [`methods`] | Table 2 |
//! | [`sender_info`] | Tables 3, 4 |
//! | [`shorteners`] | Table 5 |
//! | [`tlds`] | Tables 6, 16 |
//! | [`tls`] | Table 7 |
//! | [`asn`] | Table 8 |
//! | [`av`] | Tables 9, 18 |
//! | [`categories`] | Table 10 |
//! | [`languages`] | Table 11 |
//! | [`brands`] | Table 12 |
//! | [`lures`] | Table 13 |
//! | [`countries`] | Table 14, Figure 3 |
//! | [`registrars`] | Table 17 |
//! | [`timestamps`] | Figure 2 |
//! | [`irr`] | §3.4 κ evaluation |
//! | [`mitigation`] | §7.2 countermeasure what-if study (extension) |
//! | [`linking`] | campaign linking by infrastructure pivoting (extension) |
//! | [`latency`] | report latency & takedown window (extension) |
//! | [`freshness`] | domain age at first report & NRD coverage (extension) |
//! | [`extraction`] | §3.2 extractor comparison |
//!
//! Every module computes its artifacts as functions of a
//! [`PipelineOutput`](crate::pipeline::PipelineOutput): `overview(out)`,
//! `sender_info(out)`, `tld_use(out)`, `send_times(out, remove_bursts)`,
//! `twitter_years(out)` and so on. The functions behind Tables 1 and 3–18
//! and Figures 2–3 each make one pass over the output's curated messages
//! or unique records, which it holds in post-id order; a URL, domain,
//! sender or phone number counts once, for its first reporter, by a
//! first-seen check. Only Table 1's post and image columns and Table 15
//! need raw posts, which the engine's curators count during ingest.

pub mod asn;
pub mod av;
pub mod brands;
pub mod categories;
pub mod countries;
pub mod extraction;
pub mod freshness;
pub mod irr;
pub mod languages;
pub mod latency;
pub mod linking;
pub mod lures;
pub mod methods;
pub mod mitigation;
pub mod overview;
pub mod registrars;
pub mod sender_info;
pub mod shorteners;
pub mod timestamps;
pub mod tlds;
pub mod tls;

#[cfg(test)]
pub(crate) mod testfix {
    //! A shared world + pipeline output for analysis tests (built once).
    use crate::pipeline::{Pipeline, PipelineOutput};
    use smishing_worldsim::{World, WorldConfig};
    use std::sync::OnceLock;

    pub fn output() -> &'static PipelineOutput<'static> {
        static OUT: OnceLock<PipelineOutput<'static>> = OnceLock::new();
        OUT.get_or_init(|| {
            let config = WorldConfig {
                scale: 0.2,
                ..WorldConfig::default()
            };
            let world: &'static World = Box::leak(Box::new(World::generate(config)));
            Pipeline::default().run(world, &smishing_obs::Obs::noop())
        })
    }
}
