//! Integration: the incremental STA engine against the paper's full
//! 29-change history. After every netlist-touching change the patched
//! annotation must reproduce a from-scratch analysis bit-for-bit (WNS,
//! TNS, path endpoints — the whole report) while evaluating strictly
//! fewer gates and nets, and the engine's journal-patched snapshot must
//! equal a fresh compile, across both timing corners and two replay
//! seeds.

use camsoc::flow::build_dsc;
use camsoc::flow::eco::{apply_change, paper_change_history, ReplayContext};
use camsoc::netlist::tech::Technology;
use camsoc::sta::{Constraints, Corner, Sta};

/// Replay the full history at one (corner, seed) point, diffing the
/// incremental report against a from-scratch analysis after each
/// change. Pin-assignment versions do not touch the netlist and are
/// skipped; everything else (3 spec + 10 netlist + 3 timing = 16
/// changes) must re-time bit-identically.
fn replay_and_diff(corner: Corner, seed: u64) {
    let design = build_dsc(0.015).expect("dsc");
    let history = paper_change_history();
    let tech = Technology::default();
    let constraints = Constraints::single_clock("clk", 7.5);

    // few equivalence rounds: the formal verdicts are exercised
    // elsewhere (tests/eco_equivalence.rs); here they only gate the
    // ECO retry loop inside apply_change
    let mut ctx = ReplayContext::new(&design.netlist, seed, 4);

    let (inc, baseline) = Sta::new(&design.netlist, &tech, constraints.clone())
        .with_corner(corner)
        .into_incremental()
        .expect("baseline");
    // fraction 1.0 disables the full-reannotation fallback so every
    // change exercises the cone-patching path (the fallback has its
    // own coverage in the sta crate's unit tests)
    let mut inc = inc.with_max_cone_fraction(1.0);
    assert!(baseline.setup.endpoints > 0, "design must have timing endpoints");

    let mut current = design.netlist;
    let mut checked = 0usize;
    for (i, request) in history.iter().enumerate() {
        let outcome = apply_change(current, request, &mut ctx).expect("change applies");
        current = outcome.netlist;
        if outcome.delta.is_empty() {
            continue;
        }

        let report = inc.update(&current, &tech, &outcome.delta).expect("incremental");
        let full = Sta::new(&current, &tech, constraints.clone())
            .with_corner(corner)
            .analyze()
            .expect("full");

        // bit-level scalars first for a readable failure...
        assert_eq!(
            report.setup.wns_ns.to_bits(),
            full.setup.wns_ns.to_bits(),
            "change {i} ({:?}): setup WNS diverged ({} vs {})",
            request.kind,
            report.setup.wns_ns,
            full.setup.wns_ns
        );
        assert_eq!(
            report.setup.tns_ns.to_bits(),
            full.setup.tns_ns.to_bits(),
            "change {i} ({:?}): setup TNS diverged",
            request.kind
        );
        assert_eq!(
            report.critical_path.as_ref().map(|p| &p.steps),
            full.critical_path.as_ref().map(|p| &p.steps),
            "change {i} ({:?}): critical path diverged",
            request.kind
        );
        // ...then the whole report (hold checks, violation lists, fmax)
        assert_eq!(report, full, "change {i} ({:?}): report diverged", request.kind);

        // the patched snapshot must be exactly a fresh compile
        assert!(
            *inc.compiled() == current.compile().expect("acyclic"),
            "change {i} ({:?}): patched snapshot diverged from a fresh compile",
            request.kind
        );

        let stats = inc.stats();
        assert!(!stats.used_full, "change {i}: fallback must stay disabled");
        assert!(
            stats.evaluated < stats.full_evaluated,
            "change {i} ({:?}): expected a strict eval saving, got {}/{}",
            request.kind,
            stats.evaluated,
            stats.full_evaluated
        );
        // O(cone) bookkeeping: every localized change must patch the
        // snapshot, not recompile it, and the patch work (levels
        // recomputed, fanout entries moved, endpoint requirements
        // re-derived) must stay well below netlist size.
        let nets = current.num_nets();
        assert!(
            !stats.structures_rebuilt,
            "change {i} ({:?}): snapshot was recompiled, not patched",
            request.kind
        );
        assert!(
            stats.order_reordered < nets / 2,
            "change {i} ({:?}): level repair recomputed {} levels ({} nets)",
            request.kind,
            stats.order_reordered,
            nets
        );
        assert!(
            stats.fanout_patched < nets / 2,
            "change {i} ({:?}): fanout patching touched {} entries ({} nets)",
            request.kind,
            stats.fanout_patched,
            nets
        );
        assert!(
            stats.endpoints_recomputed < nets / 2,
            "change {i} ({:?}): {} endpoint requirements recomputed ({} nets)",
            request.kind,
            stats.endpoints_recomputed,
            nets
        );
        checked += 1;
    }
    assert_eq!(checked, 16, "3 spec + 10 netlist + 3 timing changes re-timed");
}

#[test]
fn replay_is_bit_identical_typical_corner_seed_a() {
    replay_and_diff(Corner::typical(), 0x1CA);
}

#[test]
fn replay_is_bit_identical_typical_corner_seed_b() {
    replay_and_diff(Corner::typical(), 0x2CB);
}

#[test]
fn replay_is_bit_identical_worst_corner_seed_a() {
    replay_and_diff(Corner::worst(), 0x1CA);
}

#[test]
fn replay_is_bit_identical_worst_corner_seed_b() {
    replay_and_diff(Corner::worst(), 0x2CB);
}
