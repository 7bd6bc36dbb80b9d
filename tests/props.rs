//! Seeded property checks on cross-crate invariants. Each property
//! runs [`CASES`] cases drawn from its own fixed `SplitMix64` stream, so
//! every run checks the same cases and a failure names a reproducible
//! one.

use camsoc::dft::scan::{insert_scan, ScanConfig};
use camsoc::jpeg::jfif::{decode, encode, EncodeParams, Sampling};
use camsoc::jpeg::psnr::{psnr, test_image};
use camsoc::mbist::faults::MemoryFault;
use camsoc::mbist::march::{run_march, MarchAlgorithm};
use camsoc::mbist::memory::Sram;
use camsoc::netlist::eco::EcoSession;
use camsoc::netlist::equiv::{check_equivalence, EquivOptions};
use camsoc::netlist::generate::{ip_block, IpBlockParams, SplitMix64};
use camsoc::netlist::verilog;
use camsoc::pinassign::assign::{inversions, min_layers};

/// Cases per property.
const CASES: usize = 10;

/// A draw from `lo..hi`.
fn range(rng: &mut SplitMix64, lo: usize, hi: usize) -> usize {
    lo + rng.below(hi - lo)
}

/// Function-preserving ECOs (buffering + resizing) stay formally
/// equivalent on generated blocks.
#[test]
fn timing_ecos_preserve_equivalence() {
    let mut rng = SplitMix64::new(0x9E01);
    for _ in 0..CASES {
        let seed = range(&mut rng, 0, 500) as u64;
        let gates = range(&mut rng, 120, 500);
        let nl = ip_block(
            "blk",
            &IpBlockParams { target_gates: gates, seed, spare_cells: 2, ..Default::default() },
        )
        .expect("generate");
        let mut eco = EcoSession::new(nl.clone());
        // buffer the first few instance-driven nets and upsize drivers
        let targets: Vec<_> = eco
            .netlist()
            .instances()
            .filter(|(_, i)| !i.spare && !i.function().is_tie())
            .take(4)
            .map(|(id, i)| (id, i.output))
            .collect();
        for (id, out) in targets {
            let _ = eco.insert_buffer(out, camsoc::netlist::Drive::X2);
            let _ = eco.upsize(id);
        }
        assert!(eco.function_preserving(), "seed {seed} gates {gates}");
        let (after, _) = eco.finish();
        let report = check_equivalence(
            &nl,
            &after,
            &EquivOptions { random_rounds: 6, ..EquivOptions::default() },
        )
        .expect("equiv");
        assert!(report.passed(), "seed {seed} gates {gates}: verdict {:?}", report.verdict);
    }
}

/// Structural Verilog round-trips any generated block with exact
/// equivalence.
#[test]
fn verilog_round_trip_equivalence() {
    let mut rng = SplitMix64::new(0x9E02);
    for _ in 0..CASES {
        let seed = range(&mut rng, 0, 500) as u64;
        let nl = ip_block(
            "blk",
            &IpBlockParams { target_gates: 150, seed, ..Default::default() },
        )
        .expect("generate");
        let text = verilog::write(&nl);
        let back = verilog::parse(&text).expect("parse");
        let report = check_equivalence(
            &nl,
            &back,
            &EquivOptions { random_rounds: 4, ..EquivOptions::default() },
        )
        .expect("equiv");
        assert!(report.passed(), "seed {seed}: verdict {:?}", report.verdict);
    }
}

/// Scan insertion preserves the flop population and never breaks
/// structural validity, for any chain count.
#[test]
fn scan_preserves_flops() {
    let mut rng = SplitMix64::new(0x9E03);
    for _ in 0..CASES {
        let seed = range(&mut rng, 0, 500) as u64;
        let chains = range(&mut rng, 1, 6);
        let nl = ip_block(
            "blk",
            &IpBlockParams { target_gates: 200, seed, ..Default::default() },
        )
        .expect("generate");
        let flops_before = nl.flops().count();
        let (scanned, report) = insert_scan(
            nl,
            &ScanConfig { num_chains: chains, ..ScanConfig::default() },
        )
        .expect("scan");
        let context = format!("seed {seed} chains {chains}");
        assert_eq!(scanned.flops().count(), flops_before, "{context}");
        assert_eq!(report.scan_flops, flops_before, "{context}");
        assert_eq!(
            report.chains.iter().map(Vec::len).sum::<usize>(),
            flops_before,
            "{context}"
        );
        scanned.validate().expect("valid");
        scanned.combinational_topo_order().expect("acyclic");
    }
}

/// March C- detects every unlinked static fault class except
/// stuck-open, on arbitrary geometries.
#[test]
fn march_c_minus_detects_static_faults() {
    let mut rng = SplitMix64::new(0x9E04);
    for _ in 0..CASES {
        let words = 1usize << range(&mut rng, 4, 9);
        let bits = range(&mut rng, 2, 17);
        let mut faults = SplitMix64::new(range(&mut rng, 0, 1000) as u64);
        for class in ["SAF", "TF", "CFin", "CFid", "AF"] {
            let mut mem = Sram::new(words, bits);
            mem.inject(MemoryFault::random_of_class(class, words, bits, &mut faults));
            assert!(
                run_march(&MarchAlgorithm::march_c_minus(), &mut mem).failed(),
                "{class} escaped on {words}x{bits}"
            );
        }
    }
}

/// JPEG round trip never fails and keeps PSNR above a floor that rises
/// with quality.
#[test]
fn jpeg_round_trip_quality_floor() {
    let mut rng = SplitMix64::new(0x9E05);
    for _ in 0..CASES {
        let seed = range(&mut rng, 0, 200) as u64;
        let quality = range(&mut rng, 30, 96) as u8;
        let w = range(&mut rng, 17, 49);
        let h = range(&mut rng, 9, 41);
        let img = test_image(w, h, seed);
        let bytes = encode(&img, &EncodeParams { quality, sampling: Sampling::S420 })
            .expect("encode");
        let back = decode(&bytes).expect("decode");
        assert_eq!((back.width, back.height), (w, h), "seed {seed} q{quality}");
        let p = psnr(&img, &back);
        let floor = 18.0 + quality as f64 / 10.0;
        assert!(p > floor, "psnr {p} below floor {floor} at q{quality} ({w}x{h}, seed {seed})");
    }
}

/// The decoder is total: mutations of a valid stream return an error or
/// an image, never panic.
#[test]
fn jpeg_decoder_never_panics_on_corruption() {
    let mut rng = SplitMix64::new(0x9E06);
    for _ in 0..CASES {
        let img = test_image(24, 16, range(&mut rng, 0, 50) as u64);
        let mut bytes = encode(&img, &EncodeParams::default()).expect("encode");
        let idx = range(&mut rng, 0, 2000) % bytes.len();
        bytes[idx] ^= range(&mut rng, 0, 255) as u8 | 1;
        let _ = decode(&bytes); // Ok or Err are both fine; panics are not
    }
}

/// Layer estimation invariants: a sorted permutation needs one layer;
/// inversions and layers are consistent bounds.
#[test]
fn layer_estimation_invariants() {
    let mut rng = SplitMix64::new(0x9E07);
    for _ in 0..CASES {
        let len = range(&mut rng, 1, 64);
        let perm: Vec<usize> = (0..len).map(|_| rng.below(64)).collect();
        // dedupe into a permutation of its sorted ranks
        let mut uniq: Vec<usize> = perm.clone();
        uniq.sort_unstable();
        uniq.dedup();
        let rank: Vec<usize> = perm.iter().filter_map(|v| uniq.binary_search(v).ok()).collect();
        let inv = inversions(&rank);
        let layers = min_layers(&rank);
        assert!(layers >= 1 && layers <= rank.len(), "{rank:?}");
        if inv == 0 {
            assert!(layers <= 1 || rank.windows(2).all(|w| w[0] <= w[1]), "{rank:?}");
        }
        // a decreasing run of length L forces >= L layers
        let mut run = 1usize;
        let mut best = 1usize;
        for w in rank.windows(2) {
            if w[1] < w[0] {
                run += 1;
                best = best.max(run);
            } else {
                run = 1;
            }
        }
        assert!(layers >= best, "layers {layers} < decreasing run {best} in {rank:?}");
    }
}
