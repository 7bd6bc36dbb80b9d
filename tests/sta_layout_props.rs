//! Seeded property checks on the physical/timing stack. Each property
//! runs [`CASES`] cases drawn from its own fixed `SplitMix64` stream.

use camsoc::layout::floorplan::Floorplan;
use camsoc::layout::gdsii;
use camsoc::layout::place::{place, PlacementConfig, PlacementMode};
use camsoc::netlist::generate::{ip_block, IpBlockParams, SplitMix64};
use camsoc::netlist::tech::Technology;
use camsoc::sta::{Constraints, Sta};

/// Cases per property.
const CASES: usize = 10;

/// A draw from `lo..hi`.
fn range(rng: &mut SplitMix64, lo: usize, hi: usize) -> usize {
    lo + rng.below(hi - lo)
}

/// Setup slack is monotone in the clock period: a slower clock never
/// makes any design harder to close.
#[test]
fn slack_monotone_in_period() {
    let mut rng = SplitMix64::new(0x5A01);
    for _ in 0..CASES {
        let seed = range(&mut rng, 0, 300) as u64;
        let gates = range(&mut rng, 100, 400);
        let nl = ip_block(
            "blk",
            &IpBlockParams { target_gates: gates, seed, ..Default::default() },
        )
        .expect("generate");
        let tech = Technology::default();
        let mut last = f64::NEG_INFINITY;
        for period in [4.0, 7.5, 12.0, 20.0] {
            let r = Sta::new(&nl, &tech, Constraints::single_clock("clk", period))
                .analyze()
                .expect("sta");
            assert!(
                r.setup.wns_ns >= last - 1e-9,
                "seed {seed} gates {gates}: slack regressed: {} at period {period}",
                r.setup.wns_ns
            );
            last = r.setup.wns_ns;
        }
    }
}

/// Uniformly scaling all wire delays up never improves setup slack.
#[test]
fn slack_monotone_in_wire_delay() {
    let mut rng = SplitMix64::new(0x5A02);
    for _ in 0..CASES {
        let seed = range(&mut rng, 0, 300) as u64;
        let nl = ip_block(
            "blk",
            &IpBlockParams { target_gates: 200, seed, ..Default::default() },
        )
        .expect("generate");
        let tech = Technology::default();
        let light = vec![0.005; nl.num_nets()];
        let heavy = vec![0.08; nl.num_nets()];
        let c = Constraints::single_clock("clk", 7.5);
        let r_light = Sta::new(&nl, &tech, c.clone())
            .with_wire_delays(light)
            .analyze()
            .expect("sta");
        let r_heavy =
            Sta::new(&nl, &tech, c).with_wire_delays(heavy).analyze().expect("sta");
        assert!(r_heavy.setup.wns_ns <= r_light.setup.wns_ns + 1e-9, "seed {seed}");
    }
}

/// Placement always produces a legal result (cells in core, unique
/// slots) regardless of seed and iteration count.
#[test]
fn placement_is_always_legal() {
    let mut rng = SplitMix64::new(0x5A03);
    for _ in 0..CASES {
        let seed = range(&mut rng, 0, 300) as u64;
        let iters = range(&mut rng, 0, 4_000);
        let nl = ip_block(
            "blk",
            &IpBlockParams { target_gates: 150, seed, ..Default::default() },
        )
        .expect("generate");
        let tech = Technology::default();
        let fp = Floorplan::generate(&nl, &tech).expect("floorplan");
        let p = place(
            &nl,
            &tech,
            &fp,
            &Constraints::single_clock("clk", 7.5),
            &PlacementConfig {
                mode: PlacementMode::Wirelength,
                iterations: iters,
                seed,
                ..PlacementConfig::default()
            },
        );
        let mut seen = std::collections::HashSet::new();
        for i in 0..nl.num_instances() {
            assert!(p.x[i] >= 0.0 && p.x[i] <= fp.core.w, "seed {seed} iters {iters}");
            assert!(p.y[i] >= 0.0 && p.y[i] <= fp.core.h, "seed {seed} iters {iters}");
            assert!(seen.insert((p.row[i], (p.x[i] * 1000.0) as i64)), "seed {seed}");
        }
    }
}

/// The GDSII writer always emits a stream the verifier accepts, with one
/// boundary per cell plus the outline.
#[test]
fn gdsii_always_well_formed() {
    let mut rng = SplitMix64::new(0x5A04);
    for _ in 0..CASES {
        let seed = range(&mut rng, 0, 300) as u64;
        let nl = ip_block(
            "blk",
            &IpBlockParams { target_gates: 120, seed, ..Default::default() },
        )
        .expect("generate");
        let tech = Technology::default();
        let fp = Floorplan::generate(&nl, &tech).expect("floorplan");
        let p = place(
            &nl,
            &tech,
            &fp,
            &Constraints::single_clock("clk", 7.5),
            &PlacementConfig { iterations: 200, ..PlacementConfig::default() },
        );
        let stream = gdsii::write(&nl, &fp, &p);
        let counts = gdsii::verify(&stream).expect("well-formed");
        assert_eq!(counts[&0x0800], nl.num_instances() + 1, "seed {seed}");
    }
}
