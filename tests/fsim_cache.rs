//! Integration: the cone-cached fault-simulation engine must be
//! invisible in the results. For every fault, seed and thread count the
//! cached path (per-net cone index + epoch-stamped scratch) must return
//! exactly the detection lanes of the uncached reference engine, and an
//! ATPG run switched between the two `FsimMode`s must produce the same
//! `AtpgResult` field for field — only the work counters (and wall
//! clock) may differ, and those must show the cache doing *less* work.
//! A golden run pins the full-universe ATPG result on the DSC block, so
//! any change to the random phase, PODEM or fault dropping is named.

use camsoc::dft::atpg::{Atpg, AtpgConfig, AtpgResult};
use camsoc::dft::faults::FaultList;
use camsoc::dft::fsim::{CombCircuit, FsimCounters, FsimMode};
use camsoc::dft::scan::{insert_scan, ScanConfig};
use camsoc::flow::build_dsc;
use camsoc::netlist::generate::{ripple_adder, SplitMix64};
use camsoc::netlist::graph::Netlist;
use camsoc::par::Parallelism;

/// Pattern digests of the golden runs (see [`pattern_digest`]).
const DIGEST_A7B6: u64 = 0xcd57_d7ed_47e1_0e59;
const DIGEST_7: u64 = 0x4ac8_e817_778e_353c;

const PAR: [Parallelism; 3] =
    [Parallelism::Serial, Parallelism::Threads(2), Parallelism::Threads(4)];

fn scanned_dsc() -> Netlist {
    let design = build_dsc(0.02).expect("dsc");
    insert_scan(design.netlist, &ScanConfig::default()).expect("scan").0
}

fn assert_same_result(a: &AtpgResult, b: &AtpgResult, ctx: &str) {
    assert_eq!(a.total_faults, b.total_faults, "{ctx}: total_faults");
    assert_eq!(a.detected, b.detected, "{ctx}: detected");
    assert_eq!(a.untestable, b.untestable, "{ctx}: untestable");
    assert_eq!(a.aborted, b.aborted, "{ctx}: aborted");
    assert_eq!(a.not_attempted, b.not_attempted, "{ctx}: not_attempted");
    assert_eq!(a.random_detected, b.random_detected, "{ctx}: random_detected");
    assert_eq!(a.podem_detected, b.podem_detected, "{ctx}: podem_detected");
    assert_eq!(a.patterns, b.patterns, "{ctx}: patterns");
}

#[test]
fn detect_all_lanes_are_mode_invariant_on_the_dsc_block() {
    let nl = scanned_dsc();
    let cc = CombCircuit::new(&nl).expect("comb");
    let faults = FaultList::generate(&nl).sample(400);
    for seed in [1u64, 0xD5C] {
        let mut rng = SplitMix64::new(seed);
        let assign: Vec<u64> = (0..cc.sources.len()).map(|_| rng.next_u64()).collect();
        let good = cc.good_sim(&assign);
        let reference = cc.detect_all_mode(
            &faults.faults,
            &good,
            Parallelism::Serial,
            FsimMode::Uncached,
            &FsimCounters::default(),
        );
        for par in PAR {
            for mode in [FsimMode::Cached, FsimMode::Uncached] {
                let lanes = cc.detect_all_mode(
                    &faults.faults,
                    &good,
                    par,
                    mode,
                    &FsimCounters::default(),
                );
                assert_eq!(lanes, reference, "seed {seed} {par:?} {mode:?}");
            }
        }
    }
}

#[test]
fn atpg_result_is_mode_invariant_and_the_cache_does_less_work() {
    let designs: [(&str, Netlist); 2] =
        [("dsc", scanned_dsc()), ("ripple_adder", {
            let nl = ripple_adder(16).expect("adder");
            insert_scan(nl, &ScanConfig::default()).expect("scan").0
        })];
    for (name, nl) in &designs {
        for seed in [3u64, 11] {
            let cfg = AtpgConfig {
                seed,
                fault_sample: Some(250),
                max_random_blocks: 6,
                ..AtpgConfig::default()
            };
            let uncached = Atpg::new(
                nl,
                AtpgConfig { fsim_mode: FsimMode::Uncached, ..cfg.clone() },
            )
            .expect("atpg")
            .run();
            for par in PAR {
                let cached = Atpg::new(
                    nl,
                    AtpgConfig {
                        fsim_mode: FsimMode::Cached,
                        parallelism: par,
                        ..cfg.clone()
                    },
                )
                .expect("atpg")
                .run();
                let ctx = format!("{name} seed {seed} {par:?}");
                assert_same_result(&cached, &uncached, &ctx);
                assert_eq!(
                    cached.fsim_stats.faults_simulated,
                    uncached.fsim_stats.faults_simulated,
                    "{ctx}: faults_simulated"
                );
                assert!(
                    cached.fsim_stats.gate_evals < uncached.fsim_stats.gate_evals,
                    "{ctx}: cached evals {} !< uncached {}",
                    cached.fsim_stats.gate_evals,
                    uncached.fsim_stats.gate_evals
                );
                assert!(
                    cached.fsim_stats.early_exits > 0,
                    "{ctx}: no early exits recorded"
                );
                assert!(
                    cached.fsim_stats.allocations < uncached.fsim_stats.allocations,
                    "{ctx}: cached allocations {} !< uncached {}",
                    cached.fsim_stats.allocations,
                    uncached.fsim_stats.allocations
                );
            }
        }
    }
}

/// FNV-1a (64-bit) over every pattern bit, one byte per bit (0 or 1),
/// with a 0xFF byte closing each pattern.
fn pattern_digest(patterns: &[Vec<bool>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for p in patterns {
        for &bit in p {
            feed(u8::from(bit));
        }
        feed(0xFF);
    }
    h
}

/// One pinned full-universe ATPG run on the DSC block.
struct Golden {
    seed: u64,
    random_detected: usize,
    podem_detected: usize,
    patterns: usize,
    gate_evals: usize,
    digest: u64,
}

#[test]
fn golden_atpg_on_the_dsc_block() {
    let nl = scanned_dsc();
    let goldens = [
        Golden {
            seed: 0xA7B6,
            random_detected: 14296,
            podem_detected: 1,
            patterns: 80,
            gate_evals: 56824,
            digest: DIGEST_A7B6,
        },
        Golden {
            seed: 7,
            random_detected: 14294,
            podem_detected: 3,
            patterns: 78,
            gate_evals: 54413,
            digest: DIGEST_7,
        },
    ];
    for g in &goldens {
        let r = Atpg::new(&nl, AtpgConfig { seed: g.seed, ..AtpgConfig::default() })
            .expect("atpg")
            .run();
        let ctx = format!("seed {:#x}", g.seed);
        assert_eq!(r.total_faults, 15964, "{ctx}: total_faults");
        assert_eq!(r.detected, 14297, "{ctx}: detected");
        assert_eq!(r.random_detected, g.random_detected, "{ctx}: random_detected");
        assert_eq!(r.podem_detected, g.podem_detected, "{ctx}: podem_detected");
        assert_eq!(r.untestable, 1247, "{ctx}: untestable");
        assert_eq!(r.aborted, 420, "{ctx}: aborted");
        assert_eq!(r.not_attempted, 0, "{ctx}: not_attempted");
        assert_eq!(r.patterns.len(), g.patterns, "{ctx}: patterns");
        assert_eq!(r.fsim_stats.gate_evals, g.gate_evals, "{ctx}: gate_evals");
        assert_eq!(
            pattern_digest(&r.patterns),
            g.digest,
            "{ctx}: pattern digest {:#018x}",
            pattern_digest(&r.patterns)
        );
    }
}
