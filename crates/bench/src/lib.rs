//! Shared fixtures for the benchmark harness.
//!
//! Benchmarks measure the *analysis* cost over a pre-built world and
//! pipeline output, so the (deterministic, cached) generation cost does not
//! pollute the numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use smishing_core::pipeline::{Pipeline, PipelineOutput};
use smishing_worldsim::{World, WorldConfig};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The benchmark world scale (~2% of paper volume: fast but non-trivial).
pub const BENCH_SCALE: f64 = 0.02;

/// A cached world at [`BENCH_SCALE`].
pub fn bench_world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        World::generate(WorldConfig {
            scale: BENCH_SCALE,
            ..WorldConfig::default()
        })
    })
}

/// A cached pipeline output over [`bench_world`].
pub fn bench_output() -> &'static PipelineOutput<'static> {
    static OUT: OnceLock<PipelineOutput<'static>> = OnceLock::new();
    OUT.get_or_init(|| Pipeline::default().run(bench_world(), &smishing_obs::Obs::noop()))
}

/// Min-of-3 wall time in nanoseconds of `kernel` over every item: both
/// sides of the benches' same-machine kernel ratio checks.
pub fn time_kernel<T, R>(items: &[T], kernel: impl Fn(&T) -> R) -> u64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            for item in items {
                black_box(kernel(item));
            }
            t.elapsed().as_nanos() as u64
        })
        .min()
        .expect("three runs")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        assert!(!bench_output().records.is_empty());
    }
}
