//! Serial-vs-parallel wall-time report for the `camsoc-par` hot
//! kernels: fault simulation (dft), multi-start placement (layout),
//! wafer-lot yield ramp (fab), equivalence checking (netlist),
//! negotiated routing (layout) and multi-corner STA (sta), plus a
//! full-vs-incremental comparison for the ECO-loop STA engine, a
//! compiled-netlist (SoA/CSR) vs graph-walking traversal comparison,
//! and a throughput row for the durable design-service job farm
//! (`camsoc-serve`): ~100 queued small tapeout jobs drained by 1 vs 4
//! workers, reported in jobs/hour.
//!
//! Emits `BENCH_par.json` in the current directory alongside a human
//! table on stdout, and re-checks that every parallel run is
//! bit-identical to serial (and the incremental STA report identical
//! to from-scratch). Speedups depend on the host: on a 1-core box the
//! parallel rows are expected to be ~1x (thread overhead), so
//! `host_threads` is recorded in the JSON for context.
//!
//! Run with `cargo run --release -p camsoc-bench --bin perf_report`.

use camsoc_bench::timer;
use camsoc_core::build_dsc;
use camsoc_core::eco::{apply_change, paper_change_history, ReplayContext};
use camsoc_dft::faults::FaultList;
use camsoc_dft::fsim::{CombCircuit, FsimCounters, FsimMode};
use camsoc_dft::scan::{insert_scan, ScanConfig};
use camsoc_fab::ramp::{RampConfig, RampSimulator};
use camsoc_layout::floorplan::Floorplan;
use camsoc_layout::place::{place, PlacementConfig, PlacementMode};
use camsoc_layout::route::{route, RouteConfig};
use camsoc_netlist::equiv::{check_equivalence, CombModel, EquivOptions};
use camsoc_netlist::generate::{ip_block, IpBlockParams, SplitMix64};
use camsoc_netlist::graph::NetId;
use camsoc_netlist::tech::Technology;
use camsoc_par::Parallelism;
use camsoc_sta::{multi_corner, Constraints, Corner, Sta};

const THREADS: [usize; 2] = [2, 4];

struct ThreadRow {
    threads: usize,
    ms: f64,
    speedup: f64,
    bit_identical: bool,
}

struct KernelRow {
    kernel: &'static str,
    workload: String,
    serial_ms: f64,
    rows: Vec<ThreadRow>,
}

/// Time one kernel serially and at each thread count, checking the
/// parallel result against serial with `same`.
fn profile<R>(
    kernel: &'static str,
    workload: String,
    warmup: usize,
    samples: usize,
    run: impl Fn(Parallelism) -> R,
    same: impl Fn(&R, &R) -> bool,
) -> KernelRow {
    let reference = run(Parallelism::Serial);
    let serial = timer::bench(&format!("{kernel}/serial"), warmup, samples, || {
        run(Parallelism::Serial)
    });
    let mut rows = Vec::new();
    for &t in &THREADS {
        let out = run(Parallelism::Threads(t));
        let bit_identical = same(&reference, &out);
        let timed = timer::bench(&format!("{kernel}/t{t}"), warmup, samples, || {
            run(Parallelism::Threads(t))
        });
        rows.push(ThreadRow {
            threads: t,
            ms: timed.median_ms(),
            speedup: serial.median_ms() / timed.median_ms(),
            bit_identical,
        });
    }
    KernelRow { kernel, workload, serial_ms: serial.median_ms(), rows }
}

fn fsim_row() -> KernelRow {
    let nl = ip_block(
        "blk",
        &IpBlockParams { target_gates: 2_000, seed: 9, ..Default::default() },
    )
    .expect("generate");
    let nl = insert_scan(nl, &ScanConfig::default()).expect("scan").0;
    let cc = CombCircuit::new(&nl).expect("comb");
    let faults = FaultList::generate(&nl).sample(800);
    let mut rng = SplitMix64::new(1);
    let assign: Vec<u64> = (0..cc.sources.len()).map(|_| rng.next_u64()).collect();
    let good = cc.good_sim(&assign);
    profile(
        "fsim",
        "2000-gate scanned block, 800 faults x 64 patterns".into(),
        1,
        5,
        move |par| cc.detect_all(&faults.faults, &good, par),
        |a, b| a == b,
    )
}

fn place_row() -> KernelRow {
    let nl = ip_block(
        "blk",
        &IpBlockParams { target_gates: 800, seed: 4, ..Default::default() },
    )
    .expect("generate");
    let tech = Technology::default();
    let fp = Floorplan::generate(&nl, &tech).expect("floorplan");
    let constraints = Constraints::single_clock("clk", 7.5);
    profile(
        "place",
        "800-gate block, 4-start SA, 4000 iterations/chain".into(),
        1,
        5,
        move |par| {
            place(
                &nl,
                &tech,
                &fp,
                &constraints,
                &PlacementConfig {
                    mode: PlacementMode::Wirelength,
                    iterations: 4_000,
                    starts: 4,
                    parallelism: par,
                    ..PlacementConfig::default()
                },
            )
        },
        |a, b| {
            a.x == b.x
                && a.y == b.y
                && a.row == b.row
                && a.hpwl_um == b.hpwl_um
                && a.accepted_moves == b.accepted_moves
        },
    )
}

fn ramp_row() -> KernelRow {
    profile(
        "ramp",
        "40000 dies/month x 8 months, 2500-die lots".into(),
        1,
        5,
        |par| {
            let mut sim = RampSimulator::new(RampConfig {
                dies_per_month: 40_000,
                parallelism: par,
                ..RampConfig::default()
            });
            sim.run()
        },
        |a, b| a == b,
    )
}

fn equiv_row() -> KernelRow {
    let a = ip_block(
        "blk",
        &IpBlockParams { target_gates: 1_500, seed: 7, ..Default::default() },
    )
    .expect("generate");
    let b = a.clone();
    profile(
        "equiv",
        "1500-gate block vs itself, 32 random rounds + BDD cones".into(),
        1,
        5,
        move |par| {
            check_equivalence(
                &a,
                &b,
                &EquivOptions { parallelism: par, ..EquivOptions::default() },
            )
            .expect("equiv")
        },
        |a, b| a == b,
    )
}

fn route_row() -> KernelRow {
    let nl = ip_block(
        "blk",
        &IpBlockParams { target_gates: 600, seed: 3, ..Default::default() },
    )
    .expect("generate");
    let tech = Technology::default();
    let fp = Floorplan::generate(&nl, &tech).expect("floorplan");
    let constraints = Constraints::single_clock("clk", 7.5);
    let pl = place(
        &nl,
        &tech,
        &fp,
        &constraints,
        &PlacementConfig {
            mode: PlacementMode::Wirelength,
            iterations: 5_000,
            ..PlacementConfig::default()
        },
    );
    profile(
        "route",
        "600-gate block, cap-8 grid, batched negotiation rounds".into(),
        1,
        5,
        move |par| {
            route(
                &nl,
                &fp,
                &pl,
                &RouteConfig { edge_capacity: 8, parallelism: par, ..RouteConfig::default() },
            )
        },
        // everything but `threads_used`, which records the requested
        // fan-out and differs between serial and parallel by design
        |a, b| {
            a.net_length_um == b.net_length_um
                && a.total_overflow == b.total_overflow
                && a.overflowed_edges == b.overflowed_edges
                && a.max_utilisation == b.max_utilisation
                && a.total_wirelength_um == b.total_wirelength_um
        },
    )
}

fn multi_corner_sta_row() -> KernelRow {
    let nl = ip_block(
        "blk",
        &IpBlockParams { target_gates: 3_000, seed: 5, ..Default::default() },
    )
    .expect("generate");
    let tech = Technology::default();
    let constraints = Constraints::single_clock("clk", 7.5);
    let corners =
        [Corner::typical(), Corner::worst(), Corner::best(), Corner::ocv(0.04)];
    profile(
        "mc_sta",
        "3000-gate block, 4 corners (typ/worst/best/ocv) fan-out".into(),
        1,
        5,
        move |par| {
            let base = Sta::new(&nl, &tech, constraints.clone());
            multi_corner::analyze_corners(&base, &corners, par).expect("sta")
        },
        |a, b| a == b,
    )
}

struct FsimCacheRow {
    workload: String,
    uncached_ms: f64,
    cached_ms: f64,
    speedup: f64,
    uncached_evals: usize,
    cached_evals: usize,
    early_exits: usize,
    bit_identical: bool,
}

/// Cached (cone-index + epoch scratch) vs uncached (per-fault
/// worklist) fault-simulation engines on the same workload as the
/// `fsim` thread row. Both run serially so the comparison isolates the
/// propagation engine, not the thread pool.
fn fsim_cache_row() -> FsimCacheRow {
    let nl = ip_block(
        "blk",
        &IpBlockParams { target_gates: 2_000, seed: 9, ..Default::default() },
    )
    .expect("generate");
    let nl = insert_scan(nl, &ScanConfig::default()).expect("scan").0;
    let cc = CombCircuit::new(&nl).expect("comb");
    let faults = FaultList::generate(&nl).sample(800);
    let mut rng = SplitMix64::new(1);
    let assign: Vec<u64> = (0..cc.sources.len()).map(|_| rng.next_u64()).collect();
    let good = cc.good_sim(&assign);

    let run = |mode: FsimMode, counters: &FsimCounters| {
        cc.detect_all_mode(&faults.faults, &good, Parallelism::Serial, mode, counters)
    };
    let uncached_counters = FsimCounters::default();
    let reference = run(FsimMode::Uncached, &uncached_counters);
    let before = uncached_counters.snapshot();
    let cached_counters = FsimCounters::default();
    let lanes = run(FsimMode::Cached, &cached_counters);
    let cached_before = cached_counters.snapshot();
    let bit_identical = lanes == reference;

    let uncached = timer::bench("fsim_cache/uncached", 1, 5, || {
        run(FsimMode::Uncached, &uncached_counters)
    });
    let cached = timer::bench("fsim_cache/cached", 1, 5, || {
        run(FsimMode::Cached, &cached_counters)
    });
    FsimCacheRow {
        workload: "2000-gate scanned block, 800 faults x 64 patterns, serial".into(),
        uncached_ms: uncached.median_ms(),
        cached_ms: cached.median_ms(),
        speedup: uncached.median_ms() / cached.median_ms(),
        uncached_evals: before.gate_evals,
        cached_evals: cached_before.gate_evals,
        early_exits: cached_before.early_exits,
        bit_identical,
    }
}

struct EcoStaRow {
    workload: String,
    changes: usize,
    full_ms: f64,
    incremental_ms: f64,
    speedup: f64,
    evaluated: usize,
    full_evaluated: usize,
    order_reordered: usize,
    fanout_patched: usize,
    endpoints_recomputed: usize,
    structures_rebuilt: bool,
    bit_identical: bool,
}

/// Full-vs-incremental STA across the paper's complete ECO change
/// history on the DSC design. The ECO mechanics (`apply_change`, with
/// its equivalence retries) run once up front to materialise the
/// post-change snapshots; the clock only sees the timing work — a
/// from-scratch `analyze` per change versus one persistent engine
/// patched through every delta. Bookkeeping counters (levels the
/// snapshot patch recomputed, fanout entries it patched, endpoint
/// requirements re-derived) are summed over the replay;
/// `structures_rebuilt` is true if any change recompiled the snapshot
/// instead of patching it.
fn eco_sta_row() -> EcoStaRow {
    let design = build_dsc(0.015).expect("dsc");
    let tech = Technology::default();
    let constraints = Constraints::single_clock("clk", 7.5);

    let mut ctx = ReplayContext::new(&design.netlist, 0x1CA, 4);
    let mut current = design.netlist.clone();
    let mut snapshots = Vec::new();
    for request in paper_change_history() {
        let outcome = apply_change(current, &request, &mut ctx).expect("change applies");
        current = outcome.netlist;
        if !outcome.delta.is_empty() {
            snapshots.push((current.clone(), outcome.delta));
        }
    }

    let (engine, _) = Sta::new(&design.netlist, &tech, constraints.clone())
        .into_incremental()
        .expect("baseline");
    // disable the full-reannotation fallback so the row measures the
    // cone-patching path on every change, mirroring tests/sta_incremental.rs
    let engine = engine.with_max_cone_fraction(1.0);

    // reference pass: reports for the identity check plus the (fully
    // deterministic) per-change bookkeeping counters
    let mut reference = engine.clone();
    let mut inc_reports = Vec::new();
    let mut evaluated = 0usize;
    let mut full_evaluated = 0usize;
    let mut order_reordered = 0usize;
    let mut fanout_patched = 0usize;
    let mut endpoints_recomputed = 0usize;
    let mut structures_rebuilt = false;
    for (nl, delta) in &snapshots {
        inc_reports.push(reference.update(nl, &tech, delta).expect("update"));
        let s = reference.stats();
        evaluated += s.evaluated;
        full_evaluated += s.full_evaluated;
        order_reordered += s.order_reordered;
        fanout_patched += s.fanout_patched;
        endpoints_recomputed += s.endpoints_recomputed;
        structures_rebuilt |= s.structures_rebuilt;
    }
    let bit_identical = snapshots.iter().zip(&inc_reports).all(|((nl, _), inc)| {
        let full = Sta::new(nl, &tech, constraints.clone()).analyze().expect("sta");
        *inc == full
    });

    let full = timer::bench("eco_sta/full", 1, 5, || {
        for (nl, _) in &snapshots {
            Sta::new(nl, &tech, constraints.clone()).analyze().expect("sta");
        }
    });
    // clone untimed per sample so each replay patches forward from the
    // same pre-history baseline; only the updates are on the clock
    let mut times = Vec::new();
    for _ in 0..6 {
        let mut e = engine.clone();
        let (t, ()) = timer::time_once(|| {
            for (nl, delta) in &snapshots {
                e.update(nl, &tech, delta).expect("update");
            }
        });
        times.push(t);
    }
    times.sort_unstable();
    let incremental_ms = times[times.len() / 2].as_secs_f64() * 1e3;
    EcoStaRow {
        workload: format!(
            "DSC design, paper ECO history replay ({} re-timed changes)",
            snapshots.len()
        ),
        changes: snapshots.len(),
        full_ms: full.median_ms(),
        incremental_ms,
        speedup: full.median_ms() / incremental_ms,
        evaluated,
        full_evaluated,
        order_reordered,
        fanout_patched,
        endpoints_recomputed,
        structures_rebuilt,
        bit_identical,
    }
}

struct CompiledRow {
    workload: String,
    compile_ms: f64,
    graph_ms: f64,
    compiled_ms: f64,
    speedup: f64,
    cones_walked: usize,
    bit_identical: bool,
}

/// Compiled-netlist (SoA/CSR arrays) vs graph-walking traversal on the
/// cone-extraction microbenchmark: the transitive-fanin support of
/// every sink of a combinational model, the inner loop of the exact
/// equivalence phase. Both engines run serially in one thread, so the
/// comparison isolates the data layout and is meaningful on any host
/// (including the 1-thread box the other rows warn about). The one-off
/// `Netlist::compile` cost is timed separately for context.
fn compiled_row() -> CompiledRow {
    let nl = ip_block(
        "blk",
        &IpBlockParams { target_gates: 2_000, seed: 9, ..Default::default() },
    )
    .expect("generate");
    let model = CombModel::new(&nl).expect("comb model");
    let sinks: Vec<NetId> = model.sinks.values().copied().collect();

    let mut rng = SplitMix64::new(1);
    let assign: Vec<u64> = (0..model.sources.len()).map(|_| rng.next_u64()).collect();
    let bit_identical = sinks
        .iter()
        .all(|&s| model.cone_support(s) == model.cone_support_graph(s))
        && model.eval(&assign) == model.eval_graph(&assign);

    let compile = timer::bench("compiled/compile", 1, 5, || nl.compile().expect("compile"));
    let graph = timer::bench("compiled/graph_walk", 1, 5, || {
        sinks.iter().map(|&s| model.cone_support_graph(s).len()).sum::<usize>()
    });
    let compiled = timer::bench("compiled/soa_walk", 1, 5, || {
        sinks.iter().map(|&s| model.cone_support(s).len()).sum::<usize>()
    });
    CompiledRow {
        workload: "2000-gate block, transitive-fanin cone of every sink, serial".into(),
        compile_ms: compile.median_ms(),
        graph_ms: graph.median_ms(),
        compiled_ms: compiled.median_ms(),
        speedup: graph.median_ms() / compiled.median_ms(),
        cones_walked: sinks.len(),
        bit_identical,
    }
}

struct ServeRow {
    workload: String,
    jobs: usize,
    workers_1_s: f64,
    workers_4_s: f64,
    jobs_per_hour_1: f64,
    jobs_per_hour_4: f64,
    speedup: f64,
    preemptions: usize,
    retries: usize,
    quarantines: usize,
    all_signed_off: bool,
    bit_identical: bool,
}

/// Throughput of the durable job farm: ~100 queued small tapeout jobs
/// drained by 1 worker vs 4 workers, in jobs/hour. Every job runs the
/// full 9-stage flow with a checkpoint write after each stage, so the
/// row prices durability, scheduling and the farm's thread fan-out
/// together. One job is re-run through a bare `FlowSupervisor` to
/// re-check that serving does not change results. On a 1-thread host
/// the 4-worker row is expected to be ~1x (see the warning above).
fn serve_row(jobs: usize) -> ServeRow {
    use camsoc_dft::atpg::AtpgConfig;
    use camsoc_layout::place::{PlacementConfig as PC, PlacementMode as PM};
    use camsoc_layout::ImplementOptions;
    use camsoc_serve::{DesignSpec, Farm, JobRequest};

    let options = camsoc_core::flow::FlowOptions {
        atpg: AtpgConfig { fault_sample: Some(400), max_random_blocks: 16, ..AtpgConfig::default() },
        layout: ImplementOptions {
            placement: PC { mode: PM::Wirelength, iterations: 40_000, ..PC::default() },
            ..ImplementOptions::default()
        },
        ..camsoc_core::flow::FlowOptions::default()
    };
    let spec = |i: u64| DesignSpec::IpBlock {
        name: format!("svc{i}"),
        target_gates: 260,
        seed: 1000 + i,
    };

    let mut elapsed = [0.0f64; 2];
    let mut all_signed_off = true;
    let mut bit_identical = true;
    let (mut preemptions, mut retries, mut quarantines) = (0usize, 0usize, 0usize);
    for (slot, workers) in [(0usize, 1usize), (1, 4)] {
        let dir = std::env::temp_dir()
            .join(format!("camsoc-bench-serve-{workers}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut farm = Farm::open(&dir, workers).expect("farm");
        for i in 0..jobs as u64 {
            farm.submit(&JobRequest::new(spec(i), options.clone())).expect("submit");
        }
        let (t, report) = timer::time_once(|| farm.run_until_idle().expect("drain"));
        elapsed[slot] = t.as_secs_f64();
        preemptions += report.preemptions;
        retries += report.retries;
        quarantines += report.quarantines;
        all_signed_off &= report.outcomes.len() == jobs
            && report
                .outcomes
                .values()
                .all(|o| matches!(o, camsoc_serve::JobOutcome::Done(r) if r.tapeout_ready()));
        if let Some(served) = report.outcomes.keys().next().and_then(|id| report.result(*id)) {
            let direct = camsoc_core::flow::FlowSupervisor::new(options.clone())
                .run(spec(0).materialize().expect("spec"))
                .expect("direct run");
            bit_identical &= served.gds == direct.gds;
        } else {
            bit_identical = false;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    ServeRow {
        workload: format!("{jobs} queued 260-gate tapeout jobs, quick options, full 9-stage flow"),
        jobs,
        workers_1_s: elapsed[0],
        workers_4_s: elapsed[1],
        jobs_per_hour_1: jobs as f64 * 3600.0 / elapsed[0],
        jobs_per_hour_4: jobs as f64 * 3600.0 / elapsed[1],
        speedup: elapsed[0] / elapsed[1],
        preemptions,
        retries,
        quarantines,
        all_signed_off,
        bit_identical,
    }
}

struct HierScale {
    label: String,
    flat_gates: usize,
    tiles: usize,
    unique_macros: usize,
    flat_ms: f64,
    harden_cold_ms: f64,
    hier_cold_ms: f64,
    hier_warm_ms: f64,
    speedup: f64,
    cold_hardened: usize,
    warm_rehardened: usize,
    warm_cache_hits: usize,
}

struct HierRow {
    workload: String,
    scales: Vec<HierScale>,
    /// The largest flat netlist, kept for the 1M-scale `compile` row.
    giant: camsoc_netlist::graph::Netlist,
}

/// Flat vs hierarchical implementation of the same tiled design at
/// ~240K and ~1M gates. Flat runs the full supervised flow over every
/// gate; hierarchical hardens the (two) unique tile kinds bottom-up —
/// cold with an empty abstract cache, then warm against the abstracts
/// the cold run left on disk — and integrates the abstracts as opaque
/// placed blocks at top level. The warm run must re-harden nothing:
/// its cost is cache loads plus the (tiny) top-level flow, which is
/// where the hierarchy's ≥3x win over flat comes from. Coverage and
/// overflow gates are relaxed identically on both sides so each form
/// pays exactly one uncontested pass; the flat-vs-hier sign-off
/// equivalence gate runs at small scale in `tests/hier_hardening.rs`.
///
/// Routing uses `capacity_scale: 3.0` (a six-metal-layer stack like
/// the paper's SoC) on both sides: the dense generated tiles otherwise
/// sit far over the single-layer-model track capacity and the flat
/// negotiation degenerates into flood-searching every net for all
/// eight rounds — about 500 s at a mere 16K gates, and unboundedly
/// worse at 1M.
///
/// Scales can be overridden for development with
/// `CAMSOC_HIER_TILES=8,60` (tile counts, 4000 gates per tile).
fn hier_row() -> HierRow {
    use camsoc_core::flow::{FlowOptions, FlowSupervisor};
    use camsoc_core::hier::{build_tiled_flat, harden_tiled, AbstractCache, TiledParams};
    use camsoc_core::resilience::QualityGates;
    use camsoc_dft::atpg::AtpgConfig;
    use camsoc_layout::ImplementOptions;

    let options = FlowOptions {
        clock_period_ns: 20.0,
        atpg: AtpgConfig { fault_sample: Some(400), max_random_blocks: 8, ..AtpgConfig::default() },
        layout: ImplementOptions {
            placement: PlacementConfig {
                mode: PlacementMode::Wirelength,
                iterations: 40_000,
                ..PlacementConfig::default()
            },
            routing: RouteConfig { capacity_scale: 3.0, ..RouteConfig::default() },
            ..ImplementOptions::default()
        },
        ..FlowOptions::default()
    };
    let gates = QualityGates {
        min_fault_coverage: None,
        max_route_overflow: None,
        ..QualityGates::default()
    };
    let tile_counts: Vec<usize> = std::env::var("CAMSOC_HIER_TILES")
        .ok()
        .map(|s| s.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![60, 250]);

    let mut scales = Vec::new();
    let mut giant = None;
    for tiles in tile_counts {
        let p = TiledParams { tiles, kinds: 2, tile_gates: 4_000, data_width: 16, seed: 42 };
        let flat = build_tiled_flat(&p).expect("flat generator");
        let flat_gates = flat.num_instances();
        let label = format!("{}k", flat_gates / 1000);

        let (t_flat, flat_result) = timer::time_once(|| {
            FlowSupervisor::new(options.clone())
                .with_gates(gates)
                .run(flat.clone())
                .expect("flat flow")
        });
        drop(flat_result);
        giant = Some(flat);

        let dir = std::env::temp_dir()
            .join(format!("camsoc-bench-hier-{tiles}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = AbstractCache::open(&dir).expect("cache dir");

        let run_hier = |phase: &str| {
            let (t, (h, result)) = timer::time_once(|| {
                let h = harden_tiled(&p, &options, 0.05, Some(&cache), Parallelism::Threads(2))
                    .expect("harden");
                let result = FlowSupervisor::new(options.clone())
                    .with_gates(gates)
                    .with_hier(h.hard.clone())
                    .run(h.top.clone())
                    .expect("hier flow");
                (h, result)
            });
            println!(
                "hier/{label}/{phase}: {:.1} ms ({} hardened, {} cache hits)",
                t.as_secs_f64() * 1e3,
                h.report.hardened,
                h.report.cache_hits
            );
            drop(result);
            (t.as_secs_f64() * 1e3, h.report)
        };
        let (hier_cold_ms, cold_report) = run_hier("cold");
        let (hier_warm_ms, warm_report) = run_hier("warm");
        let _ = std::fs::remove_dir_all(&dir);

        let flat_ms = t_flat.as_secs_f64() * 1e3;
        scales.push(HierScale {
            label,
            flat_gates,
            tiles,
            unique_macros: cold_report.unique,
            flat_ms,
            // cold-minus-warm isolates the hardening work the warm
            // cache saves (the top-level integration cost is common)
            harden_cold_ms: (hier_cold_ms - hier_warm_ms).max(0.0),
            hier_cold_ms,
            hier_warm_ms,
            speedup: flat_ms / hier_warm_ms,
            cold_hardened: cold_report.hardened,
            warm_rehardened: warm_report.hardened,
            warm_cache_hits: warm_report.cache_hits,
        });
    }
    HierRow {
        workload: "tiled design (4000-gate tiles, 2 unique kinds), flat flow vs \
                   bottom-up hardened integration, cold and warm abstract cache"
            .into(),
        scales,
        giant: giant.expect("at least one scale"),
    }
}

fn main() {
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("perf_report: camsoc-par serial vs parallel (host_threads = {host_threads})");
    camsoc_bench::rule(72);

    if host_threads == 1 {
        println!();
        println!("WARNING: this host exposes a single hardware thread.");
        println!("         Parallel rows will show ~1x (thread overhead only);");
        println!("         bit-identity checks below are still meaningful.");
        println!();
    }

    let kernels = [
        fsim_row(),
        place_row(),
        ramp_row(),
        equiv_row(),
        route_row(),
        multi_corner_sta_row(),
    ];
    let fsim_cache = fsim_cache_row();
    let eco_sta = eco_sta_row();
    let compiled = compiled_row();
    let serve = serve_row(100);
    let hier = hier_row();
    // the pre-sized counting-sweep compile, priced where it matters:
    // the million-gate flat netlist the hier row just built
    let giant_gates = hier.giant.num_instances();
    let giant_compile =
        timer::bench("compiled/compile_1m", 1, 3, || hier.giant.compile().expect("compile"));

    println!(
        "{:<8} {:>12} {:>10} {:>8} {:>10} {:>8}  identical",
        "kernel", "serial ms", "2t ms", "x", "4t ms", "x"
    );
    for k in &kernels {
        println!(
            "{:<8} {:>12.2} {:>10.2} {:>8.2} {:>10.2} {:>8.2}  {}",
            k.kernel,
            k.serial_ms,
            k.rows[0].ms,
            k.rows[0].speedup,
            k.rows[1].ms,
            k.rows[1].speedup,
            k.rows.iter().all(|r| r.bit_identical)
        );
    }
    println!();
    println!(
        "fsim     uncached {:.2} ms vs cached {:.2} ms ({:.2}x, {} -> {} evals, {} early exits)  identical: {}",
        fsim_cache.uncached_ms,
        fsim_cache.cached_ms,
        fsim_cache.speedup,
        fsim_cache.uncached_evals,
        fsim_cache.cached_evals,
        fsim_cache.early_exits,
        fsim_cache.bit_identical
    );
    println!(
        "eco_sta  full {:.2} ms vs incremental {:.2} ms ({:.2}x over {} changes, {}/{} evals)  identical: {}",
        eco_sta.full_ms,
        eco_sta.incremental_ms,
        eco_sta.speedup,
        eco_sta.changes,
        eco_sta.evaluated,
        eco_sta.full_evaluated,
        eco_sta.bit_identical
    );
    println!(
        "         bookkeeping: {} order slots, {} fanout entries, {} endpoints; rebuilt: {}",
        eco_sta.order_reordered,
        eco_sta.fanout_patched,
        eco_sta.endpoints_recomputed,
        eco_sta.structures_rebuilt
    );
    println!(
        "compiled graph {:.2} ms vs SoA {:.2} ms ({:.2}x over {} cones; compile {:.2} ms)  identical: {}",
        compiled.graph_ms,
        compiled.compiled_ms,
        compiled.speedup,
        compiled.cones_walked,
        compiled.compile_ms,
        compiled.bit_identical
    );
    println!(
        "compiled 1M-scale: {} gates compile in {:.2} ms (pre-sized CSR counting sweep)",
        giant_gates,
        giant_compile.median_ms()
    );
    for s in &hier.scales {
        println!(
            "hier     {} ({} tiles, {} unique): flat {:.0} ms vs hier cold {:.0} ms / warm {:.0} ms ({:.1}x, {} cold hardens, {} warm re-hardens)",
            s.label,
            s.tiles,
            s.unique_macros,
            s.flat_ms,
            s.hier_cold_ms,
            s.hier_warm_ms,
            s.speedup,
            s.cold_hardened,
            s.warm_rehardened
        );
    }
    println!(
        "serve    {} jobs: 1 worker {:.1}s ({:.0} jobs/h) vs 4 workers {:.1}s ({:.0} jobs/h, {:.2}x)  preempt/retry/quarantine: {}/{}/{}  signed off: {}  identical: {}",
        serve.jobs,
        serve.workers_1_s,
        serve.jobs_per_hour_1,
        serve.workers_4_s,
        serve.jobs_per_hour_4,
        serve.speedup,
        serve.preemptions,
        serve.retries,
        serve.quarantines,
        serve.all_signed_off,
        serve.bit_identical
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"camsoc-par serial vs parallel hot kernels\",\n");
    json.push_str(&format!("  \"host_threads\": {host_threads},\n"));
    json.push_str("  \"kernels\": [\n");
    for (i, k) in kernels.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"kernel\": \"{}\",\n", k.kernel));
        json.push_str(&format!("      \"workload\": \"{}\",\n", k.workload));
        json.push_str(&format!("      \"host_threads\": {host_threads},\n"));
        json.push_str(&format!("      \"serial_ms\": {:.3},\n", k.serial_ms));
        json.push_str("      \"parallel\": [\n");
        for (j, r) in k.rows.iter().enumerate() {
            json.push_str(&format!(
                "        {{\"threads\": {}, \"ms\": {:.3}, \"speedup\": {:.3}, \"bit_identical\": {}}}{}\n",
                r.threads,
                r.ms,
                r.speedup,
                r.bit_identical,
                if j + 1 < k.rows.len() { "," } else { "" }
            ));
        }
        json.push_str("      ]\n");
        json.push_str(&format!(
            "    }}{}\n",
            if i + 1 < kernels.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"fsim\": {\n");
    json.push_str(&format!("    \"workload\": \"{}\",\n", fsim_cache.workload));
    json.push_str(&format!("    \"uncached_ms\": {:.3},\n", fsim_cache.uncached_ms));
    json.push_str(&format!("    \"cached_ms\": {:.3},\n", fsim_cache.cached_ms));
    json.push_str(&format!("    \"speedup\": {:.3},\n", fsim_cache.speedup));
    json.push_str(&format!(
        "    \"uncached_evals\": {},\n",
        fsim_cache.uncached_evals
    ));
    json.push_str(&format!("    \"cached_evals\": {},\n", fsim_cache.cached_evals));
    json.push_str(&format!("    \"early_exits\": {},\n", fsim_cache.early_exits));
    json.push_str(&format!(
        "    \"bit_identical\": {}\n",
        fsim_cache.bit_identical
    ));
    json.push_str("  },\n");
    json.push_str("  \"eco_sta\": {\n");
    json.push_str(&format!("    \"workload\": \"{}\",\n", eco_sta.workload));
    json.push_str(&format!("    \"host_threads\": {host_threads},\n"));
    json.push_str(&format!("    \"changes\": {},\n", eco_sta.changes));
    json.push_str(&format!("    \"full_ms\": {:.3},\n", eco_sta.full_ms));
    json.push_str(&format!(
        "    \"incremental_ms\": {:.3},\n",
        eco_sta.incremental_ms
    ));
    json.push_str(&format!("    \"speedup\": {:.3},\n", eco_sta.speedup));
    json.push_str(&format!("    \"evaluated\": {},\n", eco_sta.evaluated));
    json.push_str(&format!(
        "    \"full_evaluated\": {},\n",
        eco_sta.full_evaluated
    ));
    json.push_str(&format!(
        "    \"order_reordered\": {},\n",
        eco_sta.order_reordered
    ));
    json.push_str(&format!(
        "    \"fanout_patched\": {},\n",
        eco_sta.fanout_patched
    ));
    json.push_str(&format!(
        "    \"endpoints_recomputed\": {},\n",
        eco_sta.endpoints_recomputed
    ));
    json.push_str(&format!(
        "    \"structures_rebuilt\": {},\n",
        eco_sta.structures_rebuilt
    ));
    json.push_str(&format!(
        "    \"bit_identical\": {}\n",
        eco_sta.bit_identical
    ));
    json.push_str("  },\n");
    json.push_str("  \"compiled\": {\n");
    json.push_str(&format!("    \"workload\": \"{}\",\n", compiled.workload));
    json.push_str(&format!("    \"compile_ms\": {:.3},\n", compiled.compile_ms));
    json.push_str(&format!("    \"graph_ms\": {:.3},\n", compiled.graph_ms));
    json.push_str(&format!("    \"compiled_ms\": {:.3},\n", compiled.compiled_ms));
    json.push_str(&format!("    \"speedup\": {:.3},\n", compiled.speedup));
    json.push_str(&format!("    \"cones_walked\": {},\n", compiled.cones_walked));
    json.push_str(&format!("    \"gates_1m\": {giant_gates},\n"));
    json.push_str(&format!(
        "    \"compile_1m_ms\": {:.3},\n",
        giant_compile.median_ms()
    ));
    json.push_str(&format!(
        "    \"bit_identical\": {}\n",
        compiled.bit_identical
    ));
    json.push_str("  },\n");
    json.push_str("  \"hier\": {\n");
    json.push_str(&format!("    \"workload\": \"{}\",\n", hier.workload));
    json.push_str(&format!("    \"host_threads\": {host_threads},\n"));
    json.push_str("    \"scales\": [\n");
    for (i, s) in hier.scales.iter().enumerate() {
        json.push_str("      {\n");
        json.push_str(&format!("        \"label\": \"{}\",\n", s.label));
        json.push_str(&format!("        \"flat_gates\": {},\n", s.flat_gates));
        json.push_str(&format!("        \"tiles\": {},\n", s.tiles));
        json.push_str(&format!("        \"unique_macros\": {},\n", s.unique_macros));
        json.push_str(&format!("        \"flat_ms\": {:.3},\n", s.flat_ms));
        json.push_str(&format!("        \"harden_cold_ms\": {:.3},\n", s.harden_cold_ms));
        json.push_str(&format!("        \"hier_cold_ms\": {:.3},\n", s.hier_cold_ms));
        json.push_str(&format!("        \"hier_warm_ms\": {:.3},\n", s.hier_warm_ms));
        json.push_str(&format!("        \"speedup\": {:.3},\n", s.speedup));
        json.push_str(&format!("        \"cold_hardened\": {},\n", s.cold_hardened));
        json.push_str(&format!("        \"warm_rehardened\": {},\n", s.warm_rehardened));
        json.push_str(&format!("        \"warm_cache_hits\": {}\n", s.warm_cache_hits));
        json.push_str(&format!(
            "      }}{}\n",
            if i + 1 < hier.scales.len() { "," } else { "" }
        ));
    }
    json.push_str("    ]\n");
    json.push_str("  },\n");
    json.push_str("  \"serve\": {\n");
    json.push_str(&format!("    \"workload\": \"{}\",\n", serve.workload));
    json.push_str(&format!("    \"host_threads\": {host_threads},\n"));
    json.push_str(&format!("    \"jobs\": {},\n", serve.jobs));
    json.push_str(&format!("    \"workers_1_s\": {:.3},\n", serve.workers_1_s));
    json.push_str(&format!("    \"workers_4_s\": {:.3},\n", serve.workers_4_s));
    json.push_str(&format!(
        "    \"jobs_per_hour_1\": {:.1},\n",
        serve.jobs_per_hour_1
    ));
    json.push_str(&format!(
        "    \"jobs_per_hour_4\": {:.1},\n",
        serve.jobs_per_hour_4
    ));
    json.push_str(&format!("    \"speedup\": {:.3},\n", serve.speedup));
    json.push_str(&format!("    \"preemptions\": {},\n", serve.preemptions));
    json.push_str(&format!("    \"retries\": {},\n", serve.retries));
    json.push_str(&format!("    \"quarantines\": {},\n", serve.quarantines));
    json.push_str(&format!(
        "    \"all_signed_off\": {},\n",
        serve.all_signed_off
    ));
    json.push_str(&format!(
        "    \"bit_identical\": {}\n",
        serve.bit_identical
    ));
    json.push_str("  }\n");
    json.push_str("}\n");

    std::fs::write("BENCH_par.json", &json).expect("write BENCH_par.json");
    println!("\nwrote BENCH_par.json");

    let all_identical = kernels.iter().all(|k| k.rows.iter().all(|r| r.bit_identical));
    if !all_identical {
        eprintln!("ERROR: a parallel run diverged from serial");
        std::process::exit(1);
    }
    if !fsim_cache.bit_identical {
        eprintln!("ERROR: cached fault simulation diverged from the uncached engine");
        std::process::exit(1);
    }
    if !eco_sta.bit_identical {
        eprintln!("ERROR: incremental STA diverged from a from-scratch analysis");
        std::process::exit(1);
    }
    if !compiled.bit_identical {
        eprintln!("ERROR: compiled-netlist traversal diverged from the graph engine");
        std::process::exit(1);
    }
    if !serve.all_signed_off {
        eprintln!("ERROR: a farmed job failed to tape out cleanly");
        std::process::exit(1);
    }
    if !serve.bit_identical {
        eprintln!("ERROR: a farmed job's GDSII diverged from a direct supervisor run");
        std::process::exit(1);
    }
    if serve.retries != 0 || serve.quarantines != 0 {
        eprintln!("ERROR: the healthy serve workload retried or quarantined a job");
        std::process::exit(1);
    }
    // serial engine-vs-engine: a pure data-layout comparison, so the
    // floor holds regardless of how many hardware threads the host has
    if compiled.speedup < 1.5 {
        eprintln!(
            "ERROR: compiled-netlist cone walk speedup {:.2}x below the 1.5x floor",
            compiled.speedup
        );
        std::process::exit(1);
    }
    // hierarchy floors: a warm abstract cache may never re-harden, and
    // at the million-gate scale bottom-up integration must beat the
    // flat flow by >= 3x wall-clock. Host-thread-count independent:
    // the win comes from avoided work (dedupe + cache), not fan-out.
    for s in &hier.scales {
        if s.warm_rehardened != 0 {
            eprintln!(
                "ERROR: hier {} re-hardened {} macros against a warm cache",
                s.label, s.warm_rehardened
            );
            std::process::exit(1);
        }
    }
    if let Some(biggest) = hier.scales.iter().max_by_key(|s| s.flat_gates) {
        if biggest.flat_gates >= 900_000 && biggest.speedup < 3.0 {
            eprintln!(
                "ERROR: hier {} speedup {:.2}x below the 3x floor at {} gates",
                biggest.label, biggest.speedup, biggest.flat_gates
            );
            std::process::exit(1);
        }
    }
    // speedup floor only where the host can actually run 4 workers;
    // on smaller boxes the warning above explains the ~1x rows
    if host_threads >= 4 {
        for k in kernels.iter().filter(|k| matches!(k.kernel, "route" | "mc_sta")) {
            let four_t = k.rows.iter().find(|r| r.threads == 4).expect("4t row");
            if four_t.speedup < 2.0 {
                eprintln!(
                    "ERROR: {} 4t speedup {:.2}x below the 2x floor on a \
                     {host_threads}-thread host",
                    k.kernel, four_t.speedup
                );
                std::process::exit(1);
            }
        }
    }
}
