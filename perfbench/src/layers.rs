//! Traced-run probes. They read the program's own `exec.*` and
//! `analysis.*` series from an enabled [`Obs`], and time calls into the
//! public functions of the layers that have no series of their own:
//! curation, each enrichment stage, the text-NLP functions, and the
//! similarity index. Probes run over a fixed, seed-determined sample and
//! outside every end-to-end measurement.

use crate::report::{Layers, ANALYSIS_MODULES};
use crate::stats::{median, percentile};
use smishing::core::curation::{curate_post, CurationOptions};
use smishing::core::enrich::{
    annotate::AnnotateEnricher, av::AvEnricher, ct::CtEnricher, hlr::HlrEnricher,
    ipinfo::IpInfoEnricher, pdns::PdnsEnricher, sender::SenderEnricher, url::UrlParseEnricher,
    whois::WhoisEnricher, Draft, EnrichCtx, Enricher, EnricherRegistry, ResilientClient,
};
use smishing::core::PipelineOutput;
use smishing::intel::IntelSnapshot;
use smishing::obs::Obs;
use smishing::simindex::{cluster::connected_templates, SimIndex};
use smishing::textnlp::{classify_scam, detect_lures, extract_brand, identify_language};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Posts timed through curation.
const PROBE_POSTS: usize = 20_000;
/// Records timed through enrichment and the text-NLP functions.
const PROBE_RECORDS: usize = 2_000;
/// Entry texts probed against the similarity index.
const PROBE_NEAR: usize = 300;

/// Every `len / max`-th item, at most `max` of them: a sample that is a
/// pure function of the input.
fn spread<T>(items: &[T], max: usize) -> impl Iterator<Item = &T> {
    items
        .iter()
        .step_by((items.len() / max.max(1)).max(1))
        .take(max)
}

fn us_each(total: Duration, n: usize) -> f64 {
    total.as_secs_f64() * 1e6 / n.max(1) as f64
}

/// `exec.*` volume and waste figures of one engine run observed through
/// `obs` (the caller times `exec.ingest_s`).
pub fn exec_series(obs: &Obs, out: &PipelineOutput<'_>, layers: &mut Layers) {
    let attempts = obs
        .histogram("exec.shard.enrich_ns", &[("shard", "all")])
        .count();
    layers.set("exec.enrich_attempts", attempts as f64);
    layers.set("exec.curated_records", out.curated_total.len() as f64);
    layers.set("exec.unique_records", out.records.len() as f64);
    layers.set(
        "exec.enrich_waste_ratio",
        attempts as f64 / out.records.len().max(1) as f64,
    );
}

/// `analysis.<module>_ms` from the `analysis.<module>.wall_ns` spans
/// `experiment::run_all` records; returns their sum in seconds.
pub fn analysis_series(obs: &Obs, layers: &mut Layers) -> f64 {
    let mut total_ms = 0.0;
    for module in ANALYSIS_MODULES {
        let ms = obs
            .histogram(&format!("analysis.{module}.wall_ns"), &[])
            .sum() as f64
            / 1e6;
        total_ms += ms;
        layers.set(&format!("analysis.{module}_ms"), ms);
    }
    let run_all = obs.histogram("analysis.run_all.wall_ns", &[]).sum() as f64 / 1e6;
    layers.set("analysis.run_all_ms", run_all);
    total_ms / 1e3
}

/// `curation.post_us` (curating one post) and `curation.dedup_key_us`
/// (deriving one normalized dedup key).
pub fn curation(out: &PipelineOutput<'_>, layers: &mut Layers) {
    let opts = CurationOptions::default();
    let posts: Vec<_> = spread(&out.world.posts, PROBE_POSTS).collect();
    let t = Instant::now();
    for p in &posts {
        black_box(curate_post(p, &opts));
    }
    layers.set("curation.post_us", us_each(t.elapsed(), posts.len()));
    let msgs: Vec<_> = spread(&out.curated_total, PROBE_POSTS).collect();
    let t = Instant::now();
    for c in &msgs {
        black_box(c.dedup_key(opts.dedup));
    }
    layers.set("curation.dedup_key_us", us_each(t.elapsed(), msgs.len()));
}

/// A stage that adds its own run time to a shared clock.
struct Timed {
    stage: Box<dyn Enricher>,
    clock: Arc<AtomicU64>,
}

impl Enricher for Timed {
    fn name(&self) -> &'static str {
        self.stage.name()
    }

    fn apply(&self, draft: &mut Draft, cx: &EnrichCtx<'_>) {
        let t = Instant::now();
        self.stage.apply(draft, cx);
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.clock.fetch_add(ns, Ordering::Relaxed);
    }
}

/// `enrich.<stage>_us`: the standard stages, each wrapped in a timing
/// stage, re-enrich a sample of the run's unique records. Returns a note
/// when the wrapped list no longer matches the standard registry.
pub fn enrich(out: &PipelineOutput<'_>, layers: &mut Layers) -> Option<String> {
    let stages: Vec<Box<dyn Enricher>> = vec![
        Box::new(SenderEnricher),
        Box::new(HlrEnricher),
        Box::new(UrlParseEnricher),
        Box::new(WhoisEnricher),
        Box::new(CtEnricher),
        Box::new(PdnsEnricher),
        Box::new(IpInfoEnricher),
        Box::new(AvEnricher),
        Box::new(AnnotateEnricher),
    ];
    let mut clocks: Vec<(&'static str, Arc<AtomicU64>)> = Vec::new();
    let timed: Vec<Box<dyn Enricher>> = stages
        .into_iter()
        .map(|stage| {
            let clock = Arc::new(AtomicU64::new(0));
            clocks.push((stage.name(), Arc::clone(&clock)));
            Box::new(Timed { stage, clock }) as Box<dyn Enricher>
        })
        .collect();
    let registry = EnricherRegistry::from_stages(timed);
    let client = ResilientClient::new(&Obs::noop());
    let sample: Vec<_> = spread(&out.records, PROBE_RECORDS).collect();
    for r in &sample {
        black_box(registry.enrich(&client, r.curated.clone(), out.world));
    }
    for (name, clock) in &clocks {
        let ns = clock.load(Ordering::Relaxed);
        layers.set(
            &format!("enrich.{name}_us"),
            ns as f64 / 1e3 / sample.len().max(1) as f64,
        );
    }
    let standard = EnricherRegistry::standard().stage_names();
    (standard != registry.stage_names()).then(|| {
        format!(
            "note: enrich probes time {:?} but the standard registry runs {standard:?}",
            registry.stage_names()
        )
    })
}

/// `textnlp.*_us`: the annotation functions, called the way the
/// annotator calls them, over a sample of the run's unique records.
pub fn textnlp(out: &PipelineOutput<'_>, layers: &mut Layers) {
    let sample: Vec<_> = spread(&out.records, PROBE_RECORDS).collect();
    let mut ns = [Duration::ZERO; 4];
    for r in &sample {
        let (text, english) = (&r.curated.text, &r.annotation.english_text);
        let t = Instant::now();
        black_box(identify_language(text));
        let t1 = Instant::now();
        let brand = extract_brand(english).or_else(|| extract_brand(text));
        let t2 = Instant::now();
        black_box(classify_scam(english, brand));
        let t3 = Instant::now();
        black_box(detect_lures(english, brand));
        let t4 = Instant::now();
        for (slot, d) in ns.iter_mut().zip([t1 - t, t2 - t1, t3 - t2, t4 - t3]) {
            *slot += d;
        }
    }
    for (name, d) in [
        "identify_language",
        "extract_brand",
        "classify_scam",
        "detect_lures",
    ]
    .iter()
    .zip(ns)
    {
        layers.set(&format!("textnlp.{name}_us"), us_each(d, sample.len()));
    }
}

/// `simindex.*`: rebuild the index and its template clustering over the
/// snapshot's entry texts, and probe it with a sample of those texts —
/// each must find itself.
pub fn simindex(snap: &IntelSnapshot, layers: &mut Layers) -> Result<(), String> {
    let t = Instant::now();
    let idx = SimIndex::build(snap.texts());
    layers.set("simindex.build_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    black_box(connected_templates(&idx));
    layers.set("simindex.templates_ms", t.elapsed().as_secs_f64() * 1e3);
    layers.set("simindex.template_count", snap.template_count() as f64);

    let ids: Vec<u32> = (0..snap.len() as u32)
        .filter(|&id| !snap.sim().shingles_of(id).is_empty())
        .collect();
    let mut candidates = Vec::new();
    let mut near_us = Vec::new();
    for &id in spread(&ids, PROBE_NEAR) {
        let q = snap.sim().query(&snap.entry(id).text);
        let t = Instant::now();
        let r = snap.sim().nearest(&q, 1);
        near_us.push(t.elapsed().as_secs_f64() * 1e6);
        candidates.push(r.candidates as f64);
        if r.matches.first().map(|m| m.hamming) != Some(0) {
            return Err(format!(
                "entry {id} did not find itself in the similarity index"
            ));
        }
    }
    layers.set("simindex.candidates_p50", percentile(&candidates, 50.0));
    layers.set("simindex.candidates_p99", percentile(&candidates, 99.0));
    layers.set("simindex.nearest_us", median(&near_us));
    Ok(())
}

/// The ingest-side probes every workload runs on its traced output.
pub fn ingest_probes(out: &PipelineOutput<'_>, layers: &mut Layers, notes: &mut Vec<String>) {
    curation(out, layers);
    notes.extend(enrich(out, layers));
    textnlp(out, layers);
}
