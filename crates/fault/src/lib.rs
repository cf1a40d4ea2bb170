//! # smishing-fault
//!
//! Deterministic, seeded fault injection for the seven external services
//! the enrichment pipeline depends on (HLR, WHOIS, CT log, passive DNS,
//! ipinfo, VirusTotal, GSB).
//!
//! The paper's pipeline leans on real upstream APIs that rate-limit, time
//! out and return partial data — the authors explicitly note missing
//! HLR/WHOIS coverage in their tables. This crate makes that reality a
//! first-class, replayable part of the simulated world:
//!
//! - [`FaultPlan`] holds a seed plus a per-service [`FaultProfile`]: rates
//!   for timeouts, transient errors, rate-limit rejections and malformed
//!   responses, and sustained [`TickWindow`] outages on a virtual clock.
//! - [`Faulty<S>`] wraps any service implementation and injects faults in
//!   front of its fallible API traits without the caller knowing. It
//!   [`Deref`]s to the inner service, so registration-side code (world
//!   population) is untouched.
//! - [`decide`] is the whole model: a **pure function** of
//!   (seed, service, query key, attempt, tick). Nothing depends on call
//!   order or wall-clock time, so batch and sharded-streaming runs see
//!   byte-identical faults, and the same seed replays the same run.
//!
//! Faults *persist* per query key: a faulted key keeps failing for a
//! deterministic number of attempts (1–3, cleared by retries) or — with
//! probability [`FaultProfile::hard`] — forever, which is what ultimately
//! produces partially-enriched records downstream. Outage windows are
//! keyed on the virtual tick alone: every call during the window fails
//! with [`ServiceError::Outage`] carrying the exact window, which lets a
//! circuit breaker skip doomed calls without changing any outcome.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::net::Ipv4Addr;
use std::ops::{Deref, DerefMut};
use std::str::FromStr;

use smishing_avscan::{GsbApi, TransparencyVerdict, VtApi, VtResult};
use smishing_telecom::{HlrApi, HlrRecord};
use smishing_types::{fnv1a, CallCtx, SenderId, ServiceError, UnixTime, FNV_PRIME};
use smishing_webinfra::{
    CertRecord, CtApi, IpInfo, IpInfoApi, PdnsApi, Resolution, WhoisApi, WhoisRecord,
};

/// Default seed used by named profiles when none is given on the CLI.
pub const DEFAULT_FAULT_SEED: u64 = 0xFA17;

/// The seven fault-injectable external services.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ServiceKind {
    /// Home Location Register gateway.
    Hlr,
    /// WHOIS provider.
    Whois,
    /// Certificate-transparency log (crt.sh).
    CtLog,
    /// Passive DNS feed.
    Pdns,
    /// IP metadata provider (ipinfo).
    IpInfo,
    /// VirusTotal.
    VirusTotal,
    /// Google Safe Browsing (all three views).
    Gsb,
}

impl ServiceKind {
    /// All services, in metric/display order.
    pub const ALL: [ServiceKind; 7] = [
        ServiceKind::Hlr,
        ServiceKind::Whois,
        ServiceKind::CtLog,
        ServiceKind::Pdns,
        ServiceKind::IpInfo,
        ServiceKind::VirusTotal,
        ServiceKind::Gsb,
    ];

    /// Stable lowercase name used in metric series.
    pub fn name(self) -> &'static str {
        match self {
            ServiceKind::Hlr => "hlr",
            ServiceKind::Whois => "whois",
            ServiceKind::CtLog => "ctlog",
            ServiceKind::Pdns => "pdns",
            ServiceKind::IpInfo => "ipinfo",
            ServiceKind::VirusTotal => "virustotal",
            ServiceKind::Gsb => "gsb",
        }
    }

    /// Per-service hash salt so the same key faults independently across
    /// services.
    fn salt(self) -> u64 {
        (self as u64 + 1).wrapping_mul(0xA5A5_5EED_0B5E_55ED)
    }
}

/// A half-open `[from, until)` window on the virtual clock.
///
/// The pipeline's virtual clock is the post id of the record being
/// enriched — identical in batch and streaming execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickWindow {
    /// First tick (inclusive) of the window.
    pub from: u64,
    /// First tick (exclusive) after the window.
    pub until: u64,
}

impl TickWindow {
    /// A window covering every tick — a sustained outage for a whole run.
    pub const ALWAYS: TickWindow = TickWindow {
        from: 0,
        until: u64::MAX,
    };

    /// Whether `tick` falls inside the window.
    pub fn contains(self, tick: u64) -> bool {
        tick >= self.from && tick < self.until
    }
}

/// Fault rates and outage windows for one service.
///
/// The four rate fields are probabilities (per query key) of each failure
/// mode; their sum is the overall fault probability. `hard` is the
/// conditional probability that a faulted key fails *forever* rather than
/// clearing after 1–3 attempts. The default profile is inert.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultProfile {
    /// Probability a key's calls time out.
    pub timeout: f64,
    /// Probability a key's calls hit a transient upstream error.
    pub transient: f64,
    /// Probability a key's calls are rate-limited.
    pub rate_limit: f64,
    /// Probability a key's responses come back malformed.
    pub malformed: f64,
    /// Conditional probability a faulted key never recovers.
    pub hard: f64,
    /// Sustained outage windows on the virtual clock.
    pub outages: Vec<TickWindow>,
}

impl FaultProfile {
    /// Whether this profile can never produce a fault.
    pub fn is_inert(&self) -> bool {
        self.timeout <= 0.0
            && self.transient <= 0.0
            && self.rate_limit <= 0.0
            && self.malformed <= 0.0
            && self.outages.is_empty()
    }
}

/// A seeded, per-service fault plan for a whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every fault decision.
    pub seed: u64,
    profiles: [FaultProfile; 7],
}

impl FaultPlan {
    /// The inert plan: no service ever faults.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            profiles: Default::default(),
        }
    }

    /// Realistic background flakiness: ~4–5% of keys fault per service,
    /// most recover within the retry budget, ~8% of faults are permanent.
    pub fn mild(seed: u64) -> FaultPlan {
        let p = FaultProfile {
            timeout: 0.010,
            transient: 0.020,
            rate_limit: 0.010,
            malformed: 0.005,
            hard: 0.08,
            outages: Vec::new(),
        };
        FaultPlan {
            seed,
            profiles: std::array::from_fn(|_| p.clone()),
        }
    }

    /// A bad week: ~25% of keys fault per service, a quarter of faults are
    /// permanent, and one seed-chosen service suffers a sustained outage
    /// over ticks `[200, 1200)`.
    pub fn harsh(seed: u64) -> FaultPlan {
        let p = FaultProfile {
            timeout: 0.060,
            transient: 0.100,
            rate_limit: 0.060,
            malformed: 0.030,
            hard: 0.25,
            outages: Vec::new(),
        };
        let mut plan = FaultPlan {
            seed,
            profiles: std::array::from_fn(|_| p.clone()),
        };
        let down = ServiceKind::ALL[(seed % 7) as usize];
        plan.profiles[down as usize].outages.push(TickWindow {
            from: 200,
            until: 1200,
        });
        plan
    }

    /// The profile governing one service.
    pub fn profile(&self, kind: ServiceKind) -> &FaultProfile {
        &self.profiles[kind as usize]
    }

    /// Replace the profile governing one service.
    pub fn set_profile(&mut self, kind: ServiceKind, profile: FaultProfile) {
        self.profiles[kind as usize] = profile;
    }

    /// Add a sustained outage window for one service (builder style).
    pub fn with_outage(mut self, kind: ServiceKind, window: TickWindow) -> FaultPlan {
        self.profiles[kind as usize].outages.push(window);
        self
    }

    /// Whether the plan can never produce a fault.
    pub fn is_none(&self) -> bool {
        self.profiles.iter().all(FaultProfile::is_inert)
    }
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::none()
    }
}

impl FromStr for FaultPlan {
    type Err = String;

    /// Accepts `none`, `mild`, `harsh`, `mild:SEED`, `harsh:SEED`, or a
    /// bare integer seed (meaning `mild:SEED`).
    fn from_str(s: &str) -> Result<FaultPlan, String> {
        let (name, seed) = match s.split_once(':') {
            Some((name, seed)) => {
                let seed = seed
                    .parse::<u64>()
                    .map_err(|_| format!("bad fault seed in {s:?}"))?;
                (name, Some(seed))
            }
            None => (s, None),
        };
        match name {
            "none" => match seed {
                None => Ok(FaultPlan::none()),
                Some(_) => Err(format!("profile 'none' takes no seed: {s:?}")),
            },
            "mild" => Ok(FaultPlan::mild(seed.unwrap_or(DEFAULT_FAULT_SEED))),
            "harsh" => Ok(FaultPlan::harsh(seed.unwrap_or(DEFAULT_FAULT_SEED))),
            _ => name
                .parse::<u64>()
                .map(FaultPlan::mild)
                .map_err(|_| format!("unknown fault profile {s:?} (expected none|mild|harsh, optionally :SEED, or a bare seed)")),
        }
    }
}

fn hash64(seed: u64, key: &str) -> u64 {
    fnv1a(seed.wrapping_mul(FNV_PRIME), key.bytes())
}

fn remix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The fault model: decide whether one call succeeds.
///
/// Pure in (profile, seed, kind, key, ctx) — call order, thread
/// interleaving and wall-clock time never enter the decision, which is
/// what makes fault runs replayable and batch/stream equivalent.
///
/// Outage windows are checked first and fail every key during the window.
/// Otherwise the key is hashed once: with probability `Σ rates` it is
/// faulted, the failure mode chosen by cumulative rate. A faulted key
/// persists for `1 + (hash % 3)` attempts — so bounded retries clear it —
/// or forever with probability `hard`.
pub fn decide(
    profile: &FaultProfile,
    seed: u64,
    kind: ServiceKind,
    key: &str,
    ctx: CallCtx,
) -> Result<(), ServiceError> {
    if let Some(w) = profile.outages.iter().find(|w| w.contains(ctx.tick)) {
        return Err(ServiceError::Outage {
            from_tick: w.from,
            until_tick: w.until,
        });
    }
    let total = profile.timeout + profile.transient + profile.rate_limit + profile.malformed;
    if total <= 0.0 {
        return Ok(());
    }
    let h = hash64(seed ^ kind.salt(), key);
    let u = unit(h);
    if u >= total {
        return Ok(());
    }
    let p = remix(h);
    let persistence = if unit(p) < profile.hard {
        u32::MAX
    } else {
        1 + (remix(p) % 3) as u32
    };
    if ctx.attempt >= persistence {
        return Ok(());
    }
    if u < profile.timeout {
        Err(ServiceError::Timeout)
    } else if u < profile.timeout + profile.transient {
        Err(ServiceError::Transient {
            reason: "upstream 5xx",
        })
    } else if u < profile.timeout + profile.transient + profile.rate_limit {
        Err(ServiceError::RateLimited {
            retry_after_ms: 250 + (remix(h ^ 0x5EED) % 2000) as u32,
        })
    } else {
        Err(ServiceError::Malformed)
    }
}

/// A service wrapped in a fault layer.
///
/// `Faulty<S>` implements the same fallible API traits as `S`, rolling the
/// fault model before delegating; registration-side methods reach the
/// inner service untouched through [`Deref`]/[`DerefMut`]. A freshly
/// wrapped service is inert until [`Faulty::set_faults`] installs a plan,
/// and the inert fast path adds no per-call work beyond one branch.
#[derive(Debug)]
pub struct Faulty<S> {
    inner: S,
    kind: ServiceKind,
    seed: u64,
    profile: FaultProfile,
}

impl<S> Faulty<S> {
    /// Wrap a service with no faults installed.
    pub fn new(inner: S, kind: ServiceKind) -> Faulty<S> {
        Faulty {
            inner,
            kind,
            seed: 0,
            profile: FaultProfile::default(),
        }
    }

    /// Install the plan's profile for this service.
    pub fn set_faults(&mut self, plan: &FaultPlan) {
        self.seed = plan.seed;
        self.profile = plan.profile(self.kind).clone();
    }

    /// Remove all faults (back to inert).
    pub fn clear_faults(&mut self) {
        self.profile = FaultProfile::default();
    }

    /// Which service this wrapper fronts.
    pub fn kind(&self) -> ServiceKind {
        self.kind
    }

    /// Whether the wrapper can currently produce faults.
    pub fn is_inert(&self) -> bool {
        self.profile.is_inert()
    }

    /// The wrapped service.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn roll(&self, key: &str, ctx: CallCtx) -> Result<(), ServiceError> {
        if self.profile.is_inert() {
            return Ok(());
        }
        decide(&self.profile, self.seed, self.kind, key, ctx)
    }
}

impl<S> Deref for Faulty<S> {
    type Target = S;
    fn deref(&self) -> &S {
        &self.inner
    }
}

impl<S> DerefMut for Faulty<S> {
    fn deref_mut(&mut self) -> &mut S {
        &mut self.inner
    }
}

impl<S: WhoisApi> WhoisApi for Faulty<S> {
    fn whois_lookup(
        &self,
        ctx: CallCtx,
        domain: &str,
    ) -> Result<Option<WhoisRecord>, ServiceError> {
        self.roll(domain, ctx)?;
        self.inner.whois_lookup(ctx, domain)
    }
}

impl<S: CtApi> CtApi for Faulty<S> {
    fn ct_lookup(&self, ctx: CallCtx, domain: &str) -> Result<Vec<CertRecord>, ServiceError> {
        self.roll(domain, ctx)?;
        self.inner.ct_lookup(ctx, domain)
    }
}

impl<S: PdnsApi> PdnsApi for Faulty<S> {
    fn pdns_lookup(
        &self,
        ctx: CallCtx,
        domain: &str,
        now: UnixTime,
    ) -> Result<Vec<Resolution>, ServiceError> {
        self.roll(domain, ctx)?;
        self.inner.pdns_lookup(ctx, domain, now)
    }
}

impl<S: IpInfoApi> IpInfoApi for Faulty<S> {
    fn ip_lookup(&self, ctx: CallCtx, ip: Ipv4Addr) -> Result<Option<IpInfo>, ServiceError> {
        if !self.profile.is_inert() {
            decide(&self.profile, self.seed, self.kind, &ip.to_string(), ctx)?;
        }
        self.inner.ip_lookup(ctx, ip)
    }
}

impl<S: HlrApi> HlrApi for Faulty<S> {
    fn hlr_lookup(
        &self,
        ctx: CallCtx,
        sender: &SenderId,
    ) -> Result<Option<HlrRecord>, ServiceError> {
        if !self.profile.is_inert() {
            decide(
                &self.profile,
                self.seed,
                self.kind,
                &sender.display_string(),
                ctx,
            )?;
        }
        self.inner.hlr_lookup(ctx, sender)
    }
}

impl<S: VtApi> VtApi for Faulty<S> {
    fn vt_scan(&self, ctx: CallCtx, url: &str) -> Result<VtResult, ServiceError> {
        self.roll(url, ctx)?;
        self.inner.vt_scan(ctx, url)
    }
}

impl<S: GsbApi> GsbApi for Faulty<S> {
    fn gsb_api_unsafe(&self, ctx: CallCtx, url: &str) -> Result<bool, ServiceError> {
        self.roll(url, ctx)?;
        self.inner.gsb_api_unsafe(ctx, url)
    }

    fn gsb_vt_listed(&self, ctx: CallCtx, url: &str) -> Result<bool, ServiceError> {
        self.roll(url, ctx)?;
        self.inner.gsb_vt_listed(ctx, url)
    }

    fn gsb_transparency(
        &self,
        ctx: CallCtx,
        url: &str,
    ) -> Result<TransparencyVerdict, ServiceError> {
        self.roll(url, ctx)?;
        self.inner.gsb_transparency(ctx, url)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smishing_webinfra::WhoisDb;

    /// `hash64` as it was before it called `fnv1a`, verbatim.
    fn hash64_loop(seed: u64, key: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed.wrapping_mul(0x100_0000_01b3);
        for b in key.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    proptest! {
        #[test]
        fn hash64_matches_its_former_loop(seed in 0u64..u64::MAX, key in "\\PC{0,40}") {
            prop_assert_eq!(hash64(seed, &key), hash64_loop(seed, &key));
        }
    }

    fn harsh_profile() -> FaultProfile {
        FaultPlan::harsh(1).profile(ServiceKind::Whois).clone()
    }

    #[test]
    fn decide_is_deterministic() {
        let p = harsh_profile();
        for key in ["a.com", "b.net", "c.org", "dddd.xyz"] {
            for attempt in 0..5 {
                let ctx = CallCtx {
                    attempt,
                    tick: 5000,
                };
                let a = decide(&p, 9, ServiceKind::Whois, key, ctx);
                let b = decide(&p, 9, ServiceKind::Whois, key, ctx);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn soft_faults_clear_within_retry_budget() {
        let p = FaultProfile {
            transient: 1.0,
            hard: 0.0,
            ..FaultProfile::default()
        };
        let ctx0 = CallCtx::first(0);
        assert!(decide(&p, 1, ServiceKind::Whois, "x.com", ctx0).is_err());
        // Persistence is at most 3 attempts when nothing is hard.
        let late = CallCtx {
            attempt: 3,
            tick: 0,
        };
        assert!(decide(&p, 1, ServiceKind::Whois, "x.com", late).is_ok());
    }

    #[test]
    fn hard_faults_never_clear() {
        let p = FaultProfile {
            timeout: 1.0,
            hard: 1.0,
            ..FaultProfile::default()
        };
        let late = CallCtx {
            attempt: 10_000,
            tick: 0,
        };
        assert_eq!(
            decide(&p, 1, ServiceKind::Whois, "x.com", late),
            Err(ServiceError::Timeout)
        );
    }

    #[test]
    fn outage_window_hits_every_key_and_carries_the_window() {
        let p = FaultProfile {
            outages: vec![TickWindow {
                from: 100,
                until: 200,
            }],
            ..FaultProfile::default()
        };
        for key in ["a.com", "b.com", "c.com"] {
            let during = CallCtx::first(150);
            assert_eq!(
                decide(&p, 1, ServiceKind::Pdns, key, during),
                Err(ServiceError::Outage {
                    from_tick: 100,
                    until_tick: 200
                })
            );
            let after = CallCtx::first(200);
            assert!(decide(&p, 1, ServiceKind::Pdns, key, after).is_ok());
        }
    }

    #[test]
    fn inert_profile_never_faults() {
        let p = FaultProfile::default();
        assert!(p.is_inert());
        for tick in [0, 1, 1_000_000] {
            assert!(decide(&p, 1, ServiceKind::Gsb, "k", CallCtx::first(tick)).is_ok());
        }
    }

    #[test]
    fn parse_accepts_the_documented_forms() {
        assert!("none".parse::<FaultPlan>().unwrap().is_none());
        assert_eq!(
            "mild".parse::<FaultPlan>().unwrap(),
            FaultPlan::mild(DEFAULT_FAULT_SEED)
        );
        assert_eq!(
            "harsh:42".parse::<FaultPlan>().unwrap(),
            FaultPlan::harsh(42)
        );
        assert_eq!("99".parse::<FaultPlan>().unwrap(), FaultPlan::mild(99));
        assert!("bogus".parse::<FaultPlan>().is_err());
        assert!("none:3".parse::<FaultPlan>().is_err());
        assert!("mild:x".parse::<FaultPlan>().is_err());
    }

    #[test]
    fn faulty_wrapper_is_transparent_when_inert() {
        let mut w = Faulty::new(WhoisDb::new(), ServiceKind::Whois);
        assert!(w.is_inert());
        // Deref reaches registration-side methods.
        assert_eq!(w.len(), 0);
        let ctx = CallCtx::first(0);
        assert_eq!(w.whois_lookup(ctx, "missing.com").unwrap(), None);
        w.set_faults(&FaultPlan::harsh(3));
        assert!(!w.is_inert());
        w.clear_faults();
        assert!(w.is_inert());
    }

    #[test]
    fn harsh_plan_takes_one_service_down() {
        let plan = FaultPlan::harsh(5);
        let down: Vec<ServiceKind> = ServiceKind::ALL
            .into_iter()
            .filter(|k| !plan.profile(*k).outages.is_empty())
            .collect();
        assert_eq!(down.len(), 1);
        assert_eq!(down[0], ServiceKind::ALL[5]); // seed 5 % 7 services
    }

    proptest! {
        #[test]
        fn rates_bound_fault_frequency(seed in 0u64..1000, timeout in 0.0f64..0.5) {
            // With only a timeout rate, the observed first-attempt fault
            // fraction over many keys stays near the configured rate.
            let p = FaultProfile { timeout, ..FaultProfile::default() };
            let n = 2000u32;
            let mut faults = 0u32;
            for i in 0..n {
                let key = format!("domain{i}.com");
                if decide(&p, seed, ServiceKind::Whois, &key, CallCtx::first(0)).is_err() {
                    faults += 1;
                }
            }
            let observed = f64::from(faults) / f64::from(n);
            prop_assert!((observed - timeout).abs() < 0.05,
                "rate {timeout} observed {observed}");
        }
    }
}
