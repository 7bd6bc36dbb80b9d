//! The two netlist→GDSII flow workloads, `dsc_tapeout` and
//! `tiled_route`, and the stage-by-stage flow runner the other
//! workloads share.
//!
//! A flow is stepped with `FlowSupervisor::advance`, one stage per
//! call, exactly as `FlowSupervisor::run` does it, so each stage can be
//! timed from outside. The traced run also round-trips the checkpoint
//! through its codec after every stage and re-runs the work the stages
//! hide (layout sub-steps, random-only ATPG, random-only equivalence)
//! from outside, checking that each re-run reproduces the real stage.

use std::collections::HashMap;

use camsoc_core::dsc::build_dsc;
use camsoc_core::flow::{FlowCheckpoint, FlowOptions, FlowResult, FlowSupervisor};
use camsoc_core::hier::{build_tiled_flat, TiledParams};
use camsoc_core::resilience::{QualityGates, StageId};
use camsoc_dft::atpg::{Atpg, AtpgConfig};
use camsoc_dft::scan::insert_scan;
use camsoc_layout::place::{PlacementConfig, PlacementMode};
use camsoc_layout::route::RouteConfig;
use camsoc_layout::{cts, drc, extract, floorplan, gdsii, place, route, ImplementOptions};
use camsoc_netlist::equiv::{check_equivalence, EquivOptions};
use camsoc_netlist::graph::Netlist;
use camsoc_sta::{Constraints, Sta};

use crate::common::{closed_loop, derive, time_setups, Args};
use crate::metrics::{Metrics, Outcome};
use crate::trace::Tracer;

/// Metric name of a stage's span.
fn stage_metric(stage: StageId) -> &'static str {
    match stage {
        StageId::Validate => "core.stage.validate_ms",
        StageId::PreSta => "core.stage.pre_sta_ms",
        StageId::Scan => "core.stage.scan_ms",
        StageId::Atpg => "core.stage.atpg_ms",
        StageId::Layout => "core.stage.layout_ms",
        StageId::TimingFix => "core.stage.timing_fix_ms",
        StageId::Equiv => "core.stage.equiv_ms",
        StageId::Lvs => "core.stage.lvs_ms",
        StageId::StreamOut => "core.stage.stream_out_ms",
    }
}

/// A finished flow with its stage times.
pub struct FlowRun {
    /// The flow's product.
    pub result: FlowResult,
    /// Wall time of the flow proper (stages plus the final drain), ms.
    pub flow_ms: f64,
    /// Per-stage time, ms, in execution order.
    pub stage_ms: Vec<(StageId, f64)>,
}

impl FlowRun {
    /// Time of one stage, ms.
    pub fn stage(&self, stage: StageId) -> f64 {
        self.stage_ms
            .iter()
            .filter(|(s, _)| *s == stage)
            .map(|(_, ms)| ms)
            .sum()
    }
}

/// Drive one flow stage by stage. When tracing, the checkpoint is
/// encoded and decoded after every stage (outside the flow's time) and
/// the decoded copy must equal the original.
pub fn drive(
    sup: &FlowSupervisor,
    input: Netlist,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> Result<FlowRun, String> {
    let mut checkpoint = FlowCheckpoint::new(input);
    let mut stage_ms = Vec::new();
    let (mut bytes, mut encode_ms, mut decode_ms) = (0usize, 0.0, 0.0);
    while let Some(stage) = StageId::ALL
        .into_iter()
        .find(|&s| !checkpoint.is_complete(s))
    {
        let (advanced, ms) = tr.time(stage_metric(stage), || sup.advance(&mut checkpoint));
        advanced.map_err(|e| format!("stage {stage}: {e}"))?;
        stage_ms.push((stage, ms));
        if tr.enabled() {
            let (image, enc) = tr.time("core.checkpoint_encode", || checkpoint.to_bytes());
            let (decoded, dec) = tr.time("core.checkpoint_decode", || {
                FlowCheckpoint::from_bytes(&image)
            });
            if decoded.as_ref().ok() != Some(&checkpoint) {
                return Err(format!("checkpoint after {stage} does not round-trip"));
            }
            bytes += image.len();
            encode_ms += enc;
            decode_ms += dec;
        }
    }
    let (result, finish_ms) = tr.time("core.finish", || checkpoint.finish());
    let result = result.map_err(|e| format!("finish: {e}"))?;
    if tr.enabled() {
        for &(stage, ms) in &stage_ms {
            m.sample(stage_metric(stage), ms);
        }
        m.sample("core.checkpoint_bytes", bytes as f64);
        m.sample("core.checkpoint_encode_ms", encode_ms);
        m.sample("core.checkpoint_decode_ms", decode_ms);
        m.sample("netlist.compiles", result.compile_stats.total() as f64);
    }
    let flow_ms = stage_ms.iter().map(|(_, ms)| ms).sum::<f64>() + finish_ms;
    Ok(FlowRun {
        result,
        flow_ms,
        stage_ms,
    })
}

/// Why a finished flow is not a correct tapeout, if it is not.
pub fn flow_problem(r: &FlowResult) -> Option<String> {
    if !r.tapeout_ready() {
        Some("flow result is not tapeout-ready".into())
    } else if let Err(e) = gdsii::verify(&r.gds) {
        Some(format!("GDSII does not verify: {e}"))
    } else if !r.lvs.clean() {
        Some("LVS is not clean".into())
    } else if !r.equivalence.passed() {
        Some(format!("equivalence verdict {:?}", r.equivalence.verdict))
    } else {
        None
    }
}

/// Record the end-to-end quality of one flow.
pub fn sample_qor(m: &mut Metrics, r: &FlowResult) {
    m.sample("fault_coverage", r.atpg.fault_coverage());
    m.sample("wirelength_mm", r.layout.routing.total_wirelength_um / 1e3);
    m.sample("route_max_util", r.layout.routing.max_utilisation);
    m.sample("setup_wns_ns", r.signoff_timing.setup.wns_ns);
}

/// Re-run from outside the work the flow's stages hide, and check that
/// each re-run reproduces what the stage produced.
fn decompose(
    input: &Netlist,
    options: &FlowOptions,
    run: &FlowRun,
    tr: &mut Tracer,
    m: &mut Metrics,
    out: &mut Outcome,
) -> Result<(), String> {
    let r = &run.result;
    let (scan, _) = tr.time("dft.scan", || insert_scan(input.clone(), &options.scan));
    let (scanned, scan_report) = scan.map_err(|e| format!("scan: {e}"))?;
    out.check(scan_report == r.scan, || {
        "re-run scan insertion differs from the stage".into()
    });

    let (compiled, ms) = tr.time("netlist.compile", || scanned.compile());
    compiled.map_err(|e| format!("compile: {e}"))?;
    m.sample("netlist.compile_ms", ms);

    // ATPG with PODEM disabled is the random phase alone.
    let random_cfg = AtpgConfig {
        podem_backtrack_limit: 0,
        parallelism: options.parallelism,
        fsim_mode: options.fsim_mode,
        ..options.atpg.clone()
    };
    let (random, ms) = tr.time("dft.atpg_random", || {
        Atpg::new(&scanned, random_cfg).map(|a| a.run())
    });
    let random = random.map_err(|e| format!("atpg: {e}"))?;
    out.check(random.random_detected == r.atpg.random_detected, || {
        format!(
            "random-only ATPG detected {} faults, the stage's random phase {}",
            random.random_detected, r.atpg.random_detected
        )
    });
    m.sample("dft.atpg_random_ms", ms);
    m.sample(
        "dft.atpg_podem_ms",
        (run.stage(StageId::Atpg) - ms).max(0.0),
    );
    let a = &r.atpg;
    for (name, v) in [
        ("dft.atpg.faults", a.total_faults),
        ("dft.atpg.detected", a.detected),
        ("dft.atpg.random_detected", a.random_detected),
        ("dft.atpg.podem_detected", a.podem_detected),
        ("dft.atpg.aborted", a.aborted),
        ("dft.atpg.patterns", a.patterns.len()),
        ("dft.fsim.faults_simulated", a.fsim_stats.faults_simulated),
        ("dft.fsim.gate_evals", a.fsim_stats.gate_evals),
        ("dft.fsim.early_exits", a.fsim_stats.early_exits),
    ] {
        m.sample(name, v as f64);
    }
    m.sample(
        "dft.fsim.evals_per_fault",
        a.fsim_stats.gate_evals as f64 / a.fsim_stats.faults_simulated.max(1) as f64,
    );

    // The layout sub-step chain of `implement_with`, one span each.
    let tech = &options.tech;
    let lo = &options.layout;
    let constraints = Constraints::single_clock(&options.clock_port, options.clock_period_ns);
    let (fp, ms) = tr.time("layout.floorplan", || {
        floorplan::Floorplan::generate_with(&scanned, tech, &HashMap::new())
    });
    let fp = fp.map_err(|e| format!("floorplan: {e}"))?;
    m.sample("layout.floorplan_ms", ms);
    let (pl, ms) = tr.time("layout.place", || {
        place::place(&scanned, tech, &fp, &constraints, &lo.placement)
    });
    m.sample("layout.place_ms", ms);
    let (tree, ms) = tr.time("layout.cts", || {
        cts::synthesize(&scanned, tech, &fp, &pl, &lo.clock_port)
    });
    m.sample("layout.cts_ms", ms);
    let (routing, ms) = tr.time("layout.route", || {
        route::route(&scanned, &fp, &pl, &lo.routing)
    });
    m.sample("layout.route_ms", ms);
    let (wires, ms) = tr.time("layout.extract", || {
        extract::wire_delays(&scanned, tech, &routing)
    });
    m.sample("layout.extract_ms", ms);
    let (_, ms) = tr.time("layout.drc", || drc::check(&scanned, &fp, &pl, &routing));
    m.sample("layout.drc_ms", ms);
    let (timing, ms) = tr.time("layout.signoff_sta", || {
        Sta::new(&scanned, tech, constraints.clone())
            .with_wire_delays(wires)
            .with_clock_latency(tree.latency_ns.clone())
            .analyze()
    });
    let timing = timing.map_err(|e| format!("sign-off sta: {e}"))?;
    m.sample("layout.signoff_sta_ms", ms);
    let l = &r.layout;
    out.check(routing == l.routing, || {
        "re-run routing differs from the layout stage".into()
    });
    out.check(pl.hpwl_um == l.placement.hpwl_um, || {
        format!(
            "re-run placement HPWL {} vs stage {}",
            pl.hpwl_um, l.placement.hpwl_um
        )
    });
    out.check(timing == l.timing, || {
        "re-run sign-off timing differs from the layout stage".into()
    });
    m.sample("layout.route.wirelength_um", l.routing.total_wirelength_um);
    m.sample(
        "layout.route.overflowed_edges",
        l.routing.overflowed_edges as f64,
    );
    m.sample("layout.route.max_utilisation", l.routing.max_utilisation);
    m.sample(
        "layout.route.gcells",
        (l.routing.grid.0 * l.routing.grid.1) as f64,
    );
    m.sample("layout.place.hpwl_um", l.placement.hpwl_um);
    m.sample("layout.place.improvement", l.placement.improvement());

    // Equivalence with no cone admitted to the exact phase is the
    // random-vector phase (plus the model builds and support walks).
    let random_opts = EquivOptions {
        max_support: 0,
        parallelism: options.parallelism,
        ..options.equiv.clone()
    };
    let (eq, ms) = tr.time("netlist.equiv_random", || {
        check_equivalence(&scanned, &r.netlist, &random_opts)
    });
    let eq = eq.map_err(|e| format!("equivalence: {e}"))?;
    out.check(eq.vectors_applied == r.equivalence.vectors_applied, || {
        format!(
            "random-only equivalence applied {} vectors, the stage {}",
            eq.vectors_applied, r.equivalence.vectors_applied
        )
    });
    sample_equiv(m, ms, run.stage(StageId::Equiv), &r.equivalence);
    m.sample("sta.incremental_evals", r.sta_incremental_evals as f64);
    m.sample("sta.full_evals", r.sta_full_evals as f64);
    m.sample(
        "sta.eval_ratio",
        r.sta_incremental_evals as f64 / r.sta_full_evals.max(1) as f64,
    );
    Ok(())
}

/// Record an equivalence check split into its random phase (`random_ms`,
/// from a random-only re-run) and the rest of `total_ms`.
pub fn sample_equiv(
    m: &mut Metrics,
    random_ms: f64,
    total_ms: f64,
    report: &camsoc_netlist::equiv::EquivReport,
) {
    m.sample("netlist.equiv_random_ms", random_ms);
    m.sample("netlist.equiv_exact_ms", (total_ms - random_ms).max(0.0));
    m.sample("netlist.equiv.sinks_compared", report.sinks_compared as f64);
    m.sample("netlist.equiv.cones_proven", report.cones_proven as f64);
    m.sample(
        "netlist.equiv.vectors_applied",
        report.vectors_applied as f64,
    );
    m.sample(
        "netlist.equiv.proven_frac",
        report.cones_proven as f64 / report.sinks_compared.max(1) as f64,
    );
}

/// Run a flow workload: unit k's input and recipe are made from its
/// seed by `input` and `options`.
fn run_flow_workload(
    args: &Args,
    tr: &mut Tracer,
    input: impl Fn(u64) -> Result<Netlist, String>,
    options: impl Fn(u64) -> FlowOptions,
    gates: QualityGates,
) -> Outcome {
    let mut out = Outcome::default();
    let mut m = Metrics::default();
    let mut unit_ms = Vec::new();
    let unit_seed = |k: usize| derive(args.seed, 100 + k as u64);
    time_setups(&mut m, |_| input(unit_seed(0)));
    closed_loop(args.seconds, |k| {
        tr.set_run(k);
        let seed = unit_seed(k);
        let input = match input(seed) {
            Ok(nl) => nl,
            Err(e) => return out.operation(Some(format!("unit {k}: input: {e}"))),
        };
        let options = options(seed);
        let sup = FlowSupervisor::new(options.clone()).with_gates(gates);
        let span = tr.open("core.flow");
        let run = drive(&sup, input.clone(), tr, &mut m);
        tr.close(span);
        let run = match run {
            Ok(run) => run,
            Err(e) => return out.operation(Some(format!("unit {k}: {e}"))),
        };
        out.operation(flow_problem(&run.result).map(|p| format!("unit {k}: {p}")));
        sample_qor(&mut m, &run.result);
        unit_ms.push(run.flow_ms);
        if tr.enabled() {
            let span = tr.open("decompose");
            let decomposed = decompose(&input, &options, &run, tr, &mut m, &mut out);
            tr.close(span);
            if let Err(e) = decomposed {
                out.check(false, || format!("unit {k}: decomposition: {e}"));
            }
        }
    });
    m.set_timing(&unit_ms, &unit_ms, tr.enabled());
    out.metrics = m;
    out
}

/// `dsc_tapeout`: the paper's DSC controller at 5 % scale through the
/// full sign-off recipe (133 MHz, six-metal routing capacity, the full
/// fault universe, default quality gates).
pub fn dsc_tapeout(args: &Args, tr: &mut Tracer) -> Outcome {
    run_flow_workload(
        args,
        tr,
        |_| {
            build_dsc(0.05)
                .map(|d| d.netlist)
                .map_err(|e| e.to_string())
        },
        |seed| FlowOptions {
            clock_period_ns: 7.5,
            atpg: AtpgConfig {
                fault_sample: None,
                seed: derive(seed, 1),
                ..AtpgConfig::default()
            },
            layout: ImplementOptions {
                placement: PlacementConfig {
                    seed: derive(seed, 2),
                    ..PlacementConfig::default()
                },
                routing: RouteConfig {
                    capacity_scale: 3.0,
                    ..RouteConfig::default()
                },
                ..ImplementOptions::default()
            },
            equiv: EquivOptions {
                seed: derive(seed, 3),
                ..EquivOptions::default()
            },
            ..FlowOptions::default()
        },
        QualityGates::default(),
    )
}

/// Tiles in the `tiled_route` design.
const TILES: usize = 4;

/// `tiled_route`: a flat tiled design (4000-gate tiles of two kinds)
/// through the `perf_report` hier-row recipe (20 ns clock, sampled
/// ATPG, short wirelength-driven placement, six-metal routing capacity,
/// coverage and overflow gates relaxed), with a 1600-fault sample so the
/// coverage figure is steady from seed to seed.
pub fn tiled_route(args: &Args, tr: &mut Tracer) -> Outcome {
    run_flow_workload(
        args,
        tr,
        |seed| {
            let p = TiledParams {
                tiles: TILES,
                kinds: 2,
                tile_gates: 4_000,
                data_width: 16,
                seed: derive(seed, 4),
            };
            build_tiled_flat(&p).map_err(|e| e.to_string())
        },
        |seed| FlowOptions {
            clock_period_ns: 20.0,
            atpg: AtpgConfig {
                fault_sample: Some(1_600),
                max_random_blocks: 8,
                seed: derive(seed, 1),
                ..AtpgConfig::default()
            },
            layout: ImplementOptions {
                placement: PlacementConfig {
                    mode: PlacementMode::Wirelength,
                    iterations: 40_000,
                    seed: derive(seed, 2),
                    ..PlacementConfig::default()
                },
                routing: RouteConfig {
                    capacity_scale: 3.0,
                    ..RouteConfig::default()
                },
                ..ImplementOptions::default()
            },
            equiv: EquivOptions {
                seed: derive(seed, 3),
                ..EquivOptions::default()
            },
            ..FlowOptions::default()
        },
        QualityGates {
            min_fault_coverage: None,
            max_route_overflow: None,
            ..QualityGates::default()
        },
    )
}
