//! The drift soak's gates, checked by `cargo test`: the world the CI
//! `drift-soak` job soaks (`rotation` profile, seed `0xD21F`, scale 0.02,
//! 16 epochs; see `crates/bench/benches/drift.rs`), replayed through the
//! incremental epoch engine and scored by `drift_scorecard`.

use smishing::adversary::{drift_scorecard, DriftOptions};
use smishing::obs::Obs;
use smishing::types::AdversaryPlan;
use smishing::worldsim::{World, WorldConfig};

#[test]
fn rotation_soak_holds_the_near_rung_floor_and_resolves_every_wave() {
    let world = World::generate(WorldConfig {
        scale: 0.02,
        seed: 0xD21F,
        adversary: AdversaryPlan::profile("rotation").expect("known profile"),
        ..WorldConfig::default()
    });
    let opts = DriftOptions {
        target_epochs: 16,
        ..DriftOptions::default()
    };
    let card =
        drift_scorecard(&world, &opts, &Obs::noop()).expect("rotation profile schedules waves");
    let report = card.render();
    // Every probe lands on exactly one rung.
    assert_eq!(
        card.rungs_total().total(),
        card.total_probes(),
        "rung attribution must sum to the probe count\n{report}"
    );
    // The arms-race floor: once the store has seen a full epoch, the
    // similarity rung must re-catch rotated campaigns at every warm
    // boundary. The soak is seeded, so 0.9 leaves room for strategy
    // tweaks, not for noise.
    assert!(
        card.warm_min_near_recall() >= 0.9,
        "warm min near recall {:.3} under the 0.9 floor\n{report}",
        card.warm_min_near_recall()
    );
    // A wave whose every re-blast redacts is invisible to the scorecard;
    // the soak must not schedule one.
    assert_eq!(card.unresolved, 0, "unresolved waves\n{report}");
    assert!(card.waves > 0, "soak scheduled no waves");
}
