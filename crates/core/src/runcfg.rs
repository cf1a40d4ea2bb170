//! One run configuration for every frontend.
//!
//! `smish`, `repro`, and integration harnesses all build the same
//! [`RunConfig`]: world parameters (scale/seed), curation options, an
//! [`ExecPlan`] for the execution core, a deterministic
//! [`FaultPlan`], and the observability sinks.
//! The shared [`RunConfig::parse_flag`] gives every binary the same
//! flag vocabulary — a flag documented for one tool means the same thing
//! everywhere — and the helpers ([`world`](RunConfig::world),
//! [`obs`](RunConfig::obs), [`pipeline`](RunConfig::pipeline),
//! [`emit_metrics`](RunConfig::emit_metrics)) keep per-command plumbing
//! out of `main`.

use crate::curation::CurationOptions;
use crate::exec::ExecPlan;
use crate::pipeline::Pipeline;
use smishing_fault::FaultPlan;
use smishing_obs::{obs_info, Level, Obs};
use smishing_types::AdversaryPlan;
use smishing_worldsim::{World, WorldConfig};
use std::io::Write;

/// Where a run's observability output goes.
#[derive(Debug, Clone)]
pub struct ObsSinks {
    /// Write the JSON run report (schema `smishing-obs/v1`) here.
    pub metrics_json: Option<String>,
    /// Print a Prometheus-style text exposition to stdout on completion.
    pub metrics_text: bool,
    /// Logger level (stderr).
    pub level: Level,
}

impl Default for ObsSinks {
    fn default() -> Self {
        ObsSinks {
            metrics_json: None,
            metrics_text: false,
            level: Level::Info,
        }
    }
}

/// Everything a run needs: what world, how to curate, how to execute,
/// which faults to inject, and where observability goes.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// World scale factor (1.0 = the paper's dataset size).
    pub scale: f64,
    /// World seed.
    pub seed: u64,
    /// Curation options (extractor, dedup mode).
    pub curation: CurationOptions,
    /// Worker topology for the execution core.
    pub exec: ExecPlan,
    /// Deterministic service-fault plan (default: none).
    pub faults: FaultPlan,
    /// Observability sinks.
    pub sinks: ObsSinks,
    /// Triage workers for the serve plane (0 = answer inline on one
    /// thread, the default).
    pub serve_workers: usize,
    /// Bounded admission queue for the serve worker plane; a full queue
    /// sheds requests instead of blocking the intake loop.
    pub queue_depth: usize,
    /// Aging window (seconds) for the serve plane's intel snapshots:
    /// entries whose dedup group was last reported more than this long
    /// before the newest report are evicted at republish. `None` (the
    /// default) keeps everything forever.
    pub intel_window_secs: Option<u64>,
    /// Adversarial campaign-evolution plan (default: empty, which leaves
    /// every output byte-identical to a plan-free run).
    pub adversary: AdversaryPlan,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            scale: 0.1,
            seed: 0xF15F,
            curation: CurationOptions::default(),
            exec: ExecPlan::default(),
            faults: FaultPlan::none(),
            sinks: ObsSinks::default(),
            serve_workers: 0,
            queue_depth: 1024,
            intel_window_secs: None,
            adversary: AdversaryPlan::none(),
        }
    }
}

/// Largest accepted world scale. The world is generated in memory, so a
/// typo such as `1e9` would otherwise abort on allocation; the largest
/// scale any test, bench or doc uses is 1.0.
pub const MAX_SCALE: f64 = 64.0;

/// Parse a world scale: a finite number in `(0, MAX_SCALE]`.
pub fn parse_scale(s: &str) -> Result<f64, String> {
    let scale: f64 = s.parse().map_err(|e| format!("bad scale {s}: {e}"))?;
    if scale.is_finite() && scale > 0.0 && scale <= MAX_SCALE {
        Ok(scale)
    } else {
        Err(format!(
            "bad scale {s}: must be a finite number above 0 and at most {MAX_SCALE}"
        ))
    }
}

/// Largest accepted thread count (`--shards`, `--curators`,
/// `--serve-workers`). Each one spawns that many threads and channels, so
/// a typo such as `99999999999` would otherwise abort on allocation; the
/// largest count any test, bench, CI step or doc uses is 8.
const MAX_THREADS: usize = 256;

/// Largest accepted queue capacity (`--channel-capacity`,
/// `--queue-depth`). The worker plane sizes its reply queue as depth plus
/// a batch per worker, which must not overflow; the largest capacity any
/// test, bench or doc uses is 1024.
const MAX_CAPACITY: usize = 1 << 20;

/// Parse the value of the count flag `flag`: an integer in `min..=max`.
pub fn parse_count(flag: &str, s: &str, min: usize, max: usize) -> Result<usize, String> {
    match s.parse::<usize>() {
        Ok(n) if (min..=max).contains(&n) => Ok(n),
        _ => Err(format!(
            "bad {flag} {s}: must be an integer from {min} to {max}"
        )),
    }
}

/// Parse the value of the seed flag `flag` (`--seed`, or `repro`'s
/// positional `seed`): decimal, or hex with an `0x` prefix, from 0 to
/// 2^64-1.
pub fn parse_seed(flag: &str, s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|_| format!("bad {flag} {s}: must be decimal or 0x hex, from 0 to 2^64-1"))
}

impl RunConfig {
    /// The flag vocabulary [`parse_flag`](Self::parse_flag) accepts, for
    /// usage strings.
    pub const FLAGS_USAGE: &'static str = "[--scale S] [--seed N] [--shards N] [--curators N] \
         [--channel-capacity N] [--serve-workers N] [--queue-depth N] [--intel-window SECS] \
         [--adversary PROFILE[:SEED]] [--fault-profile none|mild|harsh[:SEED]] \
         [--metrics-json PATH] [--metrics-text] [--log-level LEVEL] [--quiet]";

    /// Try to consume one shared flag. Returns `Ok(true)` if `flag` was
    /// recognized (its value, when needed, pulled via `next`), `Ok(false)`
    /// if the caller should handle it, and `Err` on a malformed value so
    /// every binary reports bad input the same way.
    pub fn parse_flag(
        &mut self,
        flag: &str,
        next: &mut dyn FnMut() -> Option<String>,
    ) -> Result<bool, String> {
        let mut take = |name: &str| -> Result<String, String> {
            next().ok_or_else(|| format!("{name} needs a value"))
        };
        let mut count = |name: &str, min: usize, max: usize| -> Result<usize, String> {
            parse_count(name, &take(name)?, min, max)
        };
        match flag {
            "--scale" => self.scale = parse_scale(&take("--scale")?)?,
            "--seed" => self.seed = parse_seed("--seed", &take("--seed")?)?,
            "--shards" => self.exec.shards = count("--shards", 1, MAX_THREADS)?,
            "--curators" => self.exec.curators = count("--curators", 1, MAX_THREADS)?,
            "--channel-capacity" => {
                self.exec.channel_capacity = count("--channel-capacity", 1, MAX_CAPACITY)?
            }
            // Zero serve workers answers inline on the intake thread.
            "--serve-workers" => self.serve_workers = count("--serve-workers", 0, MAX_THREADS)?,
            "--queue-depth" => self.queue_depth = count("--queue-depth", 1, MAX_CAPACITY)?,
            "--intel-window" => {
                self.intel_window_secs = Some(count("--intel-window", 0, usize::MAX)? as u64)
            }
            "--adversary" => self.adversary = take("--adversary")?.parse()?,
            "--fault-profile" => self.faults = take("--fault-profile")?.parse()?,
            "--metrics-json" => self.sinks.metrics_json = Some(take("--metrics-json")?),
            "--metrics-text" => self.sinks.metrics_text = true,
            "--log-level" => self.sinks.level = take("--log-level")?.parse()?,
            "--quiet" => self.sinks.level = Level::Error,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Build the observability handle for this run.
    pub fn obs(&self) -> Obs {
        Obs::with_level(self.sinks.level)
    }

    /// Generate the world and install the fault plan (after generation, so
    /// only the query-side services misbehave — the world itself is
    /// unaffected).
    pub fn world(&self, obs: &Obs) -> World {
        let mut world = World::generate(WorldConfig {
            scale: self.scale,
            seed: self.seed,
            adversary: self.adversary.clone(),
            ..WorldConfig::default()
        });
        if !self.faults.is_none() {
            world.set_fault_plan(&self.faults);
            obs_info!(
                obs,
                "fault plan installed (seed {:#x}) — degraded records will be \
                 reported, never dropped",
                self.faults.seed
            );
        }
        world
    }

    /// The batch pipeline this configuration describes.
    pub fn pipeline(&self) -> Pipeline {
        Pipeline {
            curation: self.curation,
            exec: self.exec.clone(),
        }
    }

    /// Emit the configured run reports once the command finished.
    pub fn emit_metrics(&self, obs: &Obs) -> Result<(), String> {
        if let Some(path) = &self.sinks.metrics_json {
            let json = obs.json_report();
            std::fs::File::create(path)
                .and_then(|mut f| f.write_all(json.as_bytes()))
                .map_err(|e| format!("failed to write metrics report to {path}: {e}"))?;
            obs_info!(obs, "wrote metrics report to {path}");
        }
        if self.sinks.metrics_text {
            print!("{}", obs.text_exposition());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parse(cfg: &mut RunConfig, argv: &[&str]) -> Result<(), String> {
        let mut it = argv.iter().map(|s| s.to_string());
        while let Some(flag) = it.next() {
            let handled = cfg.parse_flag(&flag, &mut || it.next())?;
            assert!(handled, "unhandled flag {flag}");
        }
        Ok(())
    }

    #[test]
    fn shared_flags_cover_world_exec_faults_and_sinks() {
        let mut cfg = RunConfig::default();
        parse(
            &mut cfg,
            &[
                "--scale",
                "0.02",
                "--seed",
                "0xBEEF",
                "--shards",
                "8",
                "--curators",
                "3",
                "--channel-capacity",
                "64",
                "--serve-workers",
                "4",
                "--queue-depth",
                "256",
                "--intel-window",
                "86400",
                "--adversary",
                "rotation:0x5EED",
                "--fault-profile",
                "mild:7",
                "--metrics-json",
                "out.json",
                "--quiet",
            ],
        )
        .unwrap();
        assert_eq!(cfg.scale, 0.02);
        assert_eq!(cfg.seed, 0xBEEF);
        assert_eq!(cfg.exec.shards, 8);
        assert_eq!(cfg.exec.curators, 3);
        assert_eq!(cfg.exec.channel_capacity, 64);
        assert_eq!(cfg.serve_workers, 4);
        assert_eq!(cfg.queue_depth, 256);
        assert_eq!(cfg.intel_window_secs, Some(86400));
        assert_eq!(cfg.adversary.profile, "rotation");
        assert_eq!(cfg.adversary.seed, 0x5EED);
        assert!(cfg.adversary.rotate_url && cfg.adversary.rotate_sender);
        assert!(!cfg.faults.is_none());
        assert_eq!(cfg.sinks.metrics_json.as_deref(), Some("out.json"));
        assert_eq!(cfg.sinks.level, Level::Error);
    }

    #[test]
    fn unknown_flags_are_left_to_the_caller() {
        let mut cfg = RunConfig::default();
        let handled = cfg.parse_flag("--out", &mut || None).unwrap();
        assert!(!handled);
    }

    #[test]
    fn malformed_values_error_instead_of_defaulting() {
        let mut cfg = RunConfig::default();
        assert!(parse(&mut cfg, &["--shards", "many"]).is_err());
        assert!(parse(&mut cfg, &["--seed"]).is_err());
        assert!(parse(&mut cfg, &["--serve-workers", "lots"]).is_err());
        assert!(parse(&mut cfg, &["--queue-depth"]).is_err());
        assert!(parse(&mut cfg, &["--intel-window", "forever"]).is_err());
        assert!(parse(&mut cfg, &["--intel-window"]).is_err());
        assert!(parse(&mut cfg, &["--adversary", "bogus"]).is_err());
        assert!(parse(&mut cfg, &["--adversary", "rotation:banana"]).is_err());
    }

    #[test]
    fn scales_outside_the_world_range_are_rejected() {
        assert_eq!(parse_scale("0.02").unwrap(), 0.02);
        assert_eq!(parse_scale("64").unwrap(), MAX_SCALE);
        for bad in [
            "NaN", "inf", "-inf", "-1", "0", "-0", "64.01", "1e9", "", "big",
        ] {
            let err = parse_scale(bad).unwrap_err();
            assert!(err.starts_with("bad scale"), "{bad}: {err}");
        }
        let mut cfg = RunConfig::default();
        for bad in ["NaN", "inf", "-1", "0", "1e9"] {
            assert!(parse(&mut cfg, &["--scale", bad]).is_err(), "{bad}");
        }
        assert_eq!(
            cfg.scale,
            RunConfig::default().scale,
            "rejected values never land"
        );
    }

    #[test]
    fn counts_outside_their_range_are_rejected() {
        assert_eq!(parse_count("--shards", "8", 1, MAX_THREADS).unwrap(), 8);
        assert_eq!(
            parse_count("--shards", "256", 1, MAX_THREADS).unwrap(),
            MAX_THREADS
        );
        for bad in ["0", "257", "99999999999", "-1", "1.5", "", "many"] {
            let err = parse_count("--shards", bad, 1, MAX_THREADS).unwrap_err();
            assert!(err.starts_with("bad --shards"), "{bad}: {err}");
        }
        let mut cfg = RunConfig::default();
        for (flag, bad) in [
            ("--shards", "0"),
            ("--shards", "99999999999"),
            ("--curators", "0"),
            ("--curators", "99999999999"),
            ("--channel-capacity", "0"),
            ("--channel-capacity", "1048577"),
            ("--serve-workers", "100000"),
            ("--serve-workers", "-1"),
            ("--queue-depth", "0"),
            ("--queue-depth", "18446744073709551615"),
            ("--intel-window", "-5"),
            ("--intel-window", "18446744073709551616"),
        ] {
            assert!(parse(&mut cfg, &[flag, bad]).is_err(), "{flag} {bad}");
        }
        let d = RunConfig::default();
        assert_eq!(
            (
                cfg.exec.shards,
                cfg.exec.curators,
                cfg.exec.channel_capacity,
                cfg.serve_workers,
                cfg.queue_depth
            ),
            (
                d.exec.shards,
                d.exec.curators,
                d.exec.channel_capacity,
                d.serve_workers,
                d.queue_depth
            ),
            "rejected values never land"
        );
        assert_eq!(cfg.intel_window_secs, d.intel_window_secs);
        let err = parse(&mut cfg, &["--intel-window", "-5"]).unwrap_err();
        assert!(err.starts_with("bad --intel-window -5"), "{err}");
        parse(&mut cfg, &["--serve-workers", "0", "--queue-depth", "1"]).unwrap();
        assert_eq!((cfg.serve_workers, cfg.queue_depth), (0, 1));
        parse(&mut cfg, &["--intel-window", "0"]).unwrap();
        assert_eq!(cfg.intel_window_secs, Some(0));
        parse(&mut cfg, &["--intel-window", "18446744073709551615"]).unwrap();
        assert_eq!(cfg.intel_window_secs, Some(u64::MAX));
    }

    /// Every flag the usage string lists.
    fn usage_flags() -> Vec<String> {
        RunConfig::FLAGS_USAGE
            .split_whitespace()
            .filter_map(|t| t.strip_prefix("[--"))
            .map(|t| format!("--{}", t.trim_end_matches(']')))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any flag with any value parses or errors; nothing panics, and
        /// every flag the usage string lists is recognised.
        #[test]
        fn parse_flag_never_panics(
            flag in prop::sample::select(usage_flags()),
            value in "\\PC{0,24}",
            numeric in "-?[0-9]{0,22}(\\.[0-9]{0,4})?(e-?[0-9]{1,3})?",
            unknown in "--?[a-z-]{0,16}",
            pick in 0u8..3,
        ) {
            let value = match pick {
                0 => value,
                1 => numeric,
                _ => format!("{}:{value}", ["rotation", "mild", "harsh", "full"][value.len() % 4]),
            };
            let mut cfg = RunConfig::default();
            let mut next = Some(value.clone());
            prop_assert!(!matches!(cfg.parse_flag(&flag, &mut || next.take()), Ok(false)), "{flag}");
            let _ = cfg.parse_flag(&flag, &mut || None);
            let mut next = Some(value);
            let _ = cfg.parse_flag(&unknown, &mut || next.take());
        }
    }

    #[test]
    fn seeds_parse_decimal_and_hex() {
        assert_eq!(parse_seed("--seed", "10").unwrap(), 10);
        assert_eq!(parse_seed("--seed", "0xF15F").unwrap(), 0xF15F);
        assert_eq!(
            parse_seed("--seed", "18446744073709551615").unwrap(),
            u64::MAX
        );
        assert_eq!(parse_seed("seed", "0xffffffffffffffff").unwrap(), u64::MAX);
        let mut cfg = RunConfig::default();
        for bad in ["abc", "-3", "99999999999999999999", "0xZZ", "0x", "", "1.5"] {
            let err = parse(&mut cfg, &["--seed", bad]).unwrap_err();
            assert_eq!(
                err,
                format!("bad --seed {bad}: must be decimal or 0x hex, from 0 to 2^64-1")
            );
        }
        assert_eq!(
            cfg.seed,
            RunConfig::default().seed,
            "rejected values never land"
        );
        let err = parse_seed("seed", "abc").unwrap_err();
        assert!(err.starts_with("bad seed abc: must be"), "{err}");
    }
}
