//! Rows of the performance report that the end-to-end benchmark
//! (`perfbench`) cannot express:
//!
//! - serial vs 2/4-thread wall time for the `camsoc-par` hot kernels:
//!   fault simulation (dft), multi-start placement (layout), wafer-lot
//!   yield ramp (fab), equivalence checking (netlist), negotiated
//!   routing (layout) and multi-corner STA (sta);
//! - the compiled-netlist (SoA/CSR) vs graph-walking cone traversal,
//!   plus the compile cost of a million-gate netlist;
//! - flat vs hierarchical implementation of a tiled design up to ~1M
//!   gates, with cold and warm abstract caches reported apart.
//!
//! Emits `BENCH_par.json` in the current directory alongside a human
//! table on stdout, and exits non-zero if a parallel run diverges from
//! serial, the compiled walk diverges from the graph walk, or a speed
//! floor fails. `host_threads` is recorded in the JSON: thread-scaling
//! speedups depend on it, the engine comparisons do not.
//!
//! Run with `cargo run --release -p camsoc-bench --bin perf_report`.

use std::fmt::Write as _;

use camsoc_bench::timer;
use camsoc_dft::faults::FaultList;
use camsoc_dft::fsim::CombCircuit;
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
/// comparison isolates the data layout and is meaningful on any
/// host. The one-off `Netlist::compile` cost is timed separately for
/// context.
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

struct HierScale {
    label: String,
    flat_gates: usize,
    tiles: usize,
    unique_macros: usize,
    flat_ms: f64,
    harden_cold_ms: f64,
    hier_cold_ms: f64,
    hier_warm_ms: f64,
    cold_speedup: f64,
    warm_speedup: f64,
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
/// gate; hierarchical hardens the unique tile kinds bottom-up — cold
/// with an empty abstract cache, then warm against the abstracts the
/// cold run left on disk — and integrates the abstracts as opaque
/// placed blocks at top level. The cold run is the compute speedup
/// (dedupe plus a small top level); the warm run adds the cache hit and
/// must re-harden nothing. Coverage and overflow gates are relaxed
/// identically on both sides so each form pays exactly one uncontested
/// pass; the flat-vs-hier sign-off equivalence gate runs at small scale
/// in `tests/hier_hardening.rs`.
///
/// Most scales use two tile kinds, the dedupe best case; the 60-tile,
/// 15-kind scale prices hardening traffic with many unique kinds.
///
/// Routing uses `capacity_scale: 3.0` (a six-metal-layer stack like
/// the paper's SoC) on both sides: the dense generated tiles otherwise
/// sit far over the single-layer-model track capacity and the flat
/// negotiation degenerates into flood-searching every net for all
/// eight rounds — about 500 s at a mere 16K gates, and unboundedly
/// worse at 1M.
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

    let mut scales = Vec::new();
    let mut giant: Option<camsoc_netlist::graph::Netlist> = None;
    for (tiles, kinds) in [(60, 2), (60, 15), (250, 2)] {
        let p = TiledParams { tiles, kinds, tile_gates: 4_000, data_width: 16, seed: 42 };
        let flat = build_tiled_flat(&p).expect("flat generator");
        let flat_gates = flat.num_instances();
        let label = format!("{}k-{kinds}kinds", flat_gates / 1000);

        let (t_flat, flat_result) = timer::time_once(|| {
            FlowSupervisor::new(options.clone())
                .with_gates(gates)
                .run(flat.clone())
                .expect("flat flow")
        });
        drop(flat_result);
        if giant.as_ref().is_none_or(|g| g.num_instances() < flat_gates) {
            giant = Some(flat);
        }

        let dir = std::env::temp_dir()
            .join(format!("camsoc-bench-hier-{tiles}-{kinds}-{}", std::process::id()));
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
            cold_speedup: flat_ms / hier_cold_ms,
            warm_speedup: flat_ms / hier_warm_ms,
            cold_hardened: cold_report.hardened,
            warm_rehardened: warm_report.hardened,
            warm_cache_hits: warm_report.cache_hits,
        });
    }
    HierRow {
        workload: "tiled design (4000-gate tiles), flat flow vs bottom-up hardened \
                   integration, cold and warm abstract cache"
            .into(),
        scales,
        giant: giant.expect("at least one scale"),
    }
}

/// A JSON value for `BENCH_par.json`. Keys keep their insertion order.
enum Json {
    Str(String),
    Int(usize),
    /// Printed with [`FLOAT_DECIMALS`] decimals; non-finite as `null`.
    Num(f64),
    Bool(bool),
    Arr(Vec<Json>),
    Obj(Vec<(&'static str, Json)>),
}

/// Fixed precision of every float in `BENCH_par.json`.
const FLOAT_DECIMALS: usize = 3;

impl Json {
    fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Render with two-space indentation and a trailing newline.
    fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Str(s) => write_escaped(out, s),
            Json::Int(n) => write!(out, "{n}").expect("write to String"),
            Json::Num(x) if x.is_finite() => {
                write!(out, "{x:.FLOAT_DECIMALS$}").expect("write to String")
            }
            Json::Num(_) => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").expect("write to String"),
            Json::Arr(items) => {
                write_seq(out, depth, ('[', ']'), items.iter().map(|v| (None, v)))
            }
            Json::Obj(fields) => {
                write_seq(out, depth, ('{', '}'), fields.iter().map(|(k, v)| (Some(*k), v)))
            }
        }
    }
}

/// One element per line, a comma after every element but the last.
fn write_seq<'a>(
    out: &mut String,
    depth: usize,
    (open, close): (char, char),
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let pad = |out: &mut String, depth: usize| out.push_str(&"  ".repeat(depth));
    out.push(open);
    let mut empty = true;
    for (key, value) in items {
        out.push_str(if empty { "\n" } else { ",\n" });
        empty = false;
        pad(out, depth + 1);
        if let Some(key) = key {
            write_escaped(out, key);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
    }
    if !empty {
        out.push('\n');
        pad(out, depth);
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => {
                write!(out, "\\u{:04x}", u32::from(c)).expect("write to String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn report_json(
    host_threads: usize,
    kernels: &[KernelRow],
    compiled: &CompiledRow,
    giant_gates: usize,
    giant_compile_ms: f64,
    hier: &HierRow,
) -> Json {
    use Json::{Arr, Bool, Int, Num, Obj};
    let kernel = |k: &KernelRow| {
        let parallel = k.rows.iter().map(|r| {
            Obj(vec![
                ("threads", Int(r.threads)),
                ("ms", Num(r.ms)),
                ("speedup", Num(r.speedup)),
                ("bit_identical", Bool(r.bit_identical)),
            ])
        });
        Obj(vec![
            ("kernel", Json::str(k.kernel)),
            ("workload", Json::str(&k.workload)),
            ("serial_ms", Num(k.serial_ms)),
            ("parallel", Arr(parallel.collect())),
        ])
    };
    let scale = |s: &HierScale| {
        Obj(vec![
            ("label", Json::str(&s.label)),
            ("flat_gates", Int(s.flat_gates)),
            ("tiles", Int(s.tiles)),
            ("unique_macros", Int(s.unique_macros)),
            ("flat_ms", Num(s.flat_ms)),
            ("harden_cold_ms", Num(s.harden_cold_ms)),
            ("hier_cold_ms", Num(s.hier_cold_ms)),
            ("hier_warm_ms", Num(s.hier_warm_ms)),
            ("cold_speedup", Num(s.cold_speedup)),
            ("warm_speedup", Num(s.warm_speedup)),
            ("cold_hardened", Int(s.cold_hardened)),
            ("warm_rehardened", Int(s.warm_rehardened)),
            ("warm_cache_hits", Int(s.warm_cache_hits)),
        ])
    };
    Obj(vec![
        ("bench", Json::str("kernel thread scaling, compiled traversal, hierarchical hardening")),
        ("host_threads", Int(host_threads)),
        ("kernels", Arr(kernels.iter().map(kernel).collect())),
        (
            "compiled",
            Obj(vec![
                ("workload", Json::str(&compiled.workload)),
                ("compile_ms", Num(compiled.compile_ms)),
                ("graph_ms", Num(compiled.graph_ms)),
                ("compiled_ms", Num(compiled.compiled_ms)),
                ("speedup", Num(compiled.speedup)),
                ("cones_walked", Int(compiled.cones_walked)),
                ("gates_1m", Int(giant_gates)),
                ("compile_1m_ms", Num(giant_compile_ms)),
                ("bit_identical", Bool(compiled.bit_identical)),
            ]),
        ),
        (
            "hier",
            Obj(vec![
                ("workload", Json::str(&hier.workload)),
                ("scales", Arr(hier.scales.iter().map(scale).collect())),
            ]),
        ),
    ])
}

/// Every exit condition of the report, checked after `BENCH_par.json`
/// is written; an empty list means the run passes.
fn gate_failures(
    host_threads: usize,
    kernels: &[KernelRow],
    compiled: &CompiledRow,
    hier: &HierRow,
) -> Vec<String> {
    let mut failures = Vec::new();
    for k in kernels {
        for r in k.rows.iter().filter(|r| !r.bit_identical) {
            failures.push(format!("{} at {} threads diverged from serial", k.kernel, r.threads));
        }
    }
    if !compiled.bit_identical {
        failures.push("compiled-netlist traversal diverged from the graph engine".into());
    }
    // serial engine-vs-engine: a pure data-layout comparison, so the
    // floor holds regardless of how many hardware threads the host has
    if compiled.speedup < 1.5 {
        failures.push(format!(
            "compiled-netlist cone walk speedup {:.2}x below the 1.5x floor",
            compiled.speedup
        ));
    }
    // hierarchy floors: a warm abstract cache may never re-harden, and
    // at the million-gate scale a cold bottom-up integration must beat
    // the flat flow by >= 3x wall-clock. Host-thread-count independent:
    // the win comes from avoided work (dedupe), not fan-out.
    for s in &hier.scales {
        if s.warm_rehardened != 0 {
            failures.push(format!(
                "hier {} re-hardened {} macros against a warm cache",
                s.label, s.warm_rehardened
            ));
        }
        if s.flat_gates >= 900_000 && s.cold_speedup < 3.0 {
            failures.push(format!(
                "hier {} cold speedup {:.2}x below the 3x floor at {} gates",
                s.label, s.cold_speedup, s.flat_gates
            ));
        }
    }
    // speedup floor only where the host can actually run 4 workers
    if host_threads >= 4 {
        for k in kernels.iter().filter(|k| matches!(k.kernel, "route" | "mc_sta")) {
            let four_t = k.rows.iter().find(|r| r.threads == 4).expect("4t row");
            if four_t.speedup < 2.0 {
                failures.push(format!(
                    "{} 4t speedup {:.2}x below the 2x floor on a {host_threads}-thread host",
                    k.kernel, four_t.speedup
                ));
            }
        }
    }
    failures
}

fn main() {
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("perf_report: kernels, compiled walk, hierarchy (host_threads = {host_threads})");
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
    let compiled = compiled_row();
    let hier = hier_row();
    // the pre-sized counting-sweep compile, priced where it matters:
    // the million-gate flat netlist the hier row just built
    let giant_gates = hier.giant.num_instances();
    let giant_compile_ms = timer::bench("compiled/compile_1m", 1, 3, || {
        hier.giant.compile().expect("compile")
    })
    .median_ms();

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
        giant_gates, giant_compile_ms
    );
    for s in &hier.scales {
        println!(
            "hier     {} ({} tiles, {} unique): flat {:.0} ms vs hier cold {:.0} ms ({:.1}x) / warm {:.0} ms ({:.1}x), {} cold hardens, {} warm re-hardens",
            s.label,
            s.tiles,
            s.unique_macros,
            s.flat_ms,
            s.hier_cold_ms,
            s.cold_speedup,
            s.hier_warm_ms,
            s.warm_speedup,
            s.cold_hardened,
            s.warm_rehardened
        );
    }

    let json = report_json(host_threads, &kernels, &compiled, giant_gates, giant_compile_ms, &hier);
    std::fs::write("BENCH_par.json", json.render()).expect("write BENCH_par.json");
    println!("\nwrote BENCH_par.json");

    let failures = gate_failures(host_threads, &kernels, &compiled, &hier);
    for f in &failures {
        eprintln!("ERROR: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::Json::{self, Arr, Bool, Int, Num, Obj};

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        let s = Json::str("a \"quoted\" C:\\path\nnext\u{1}");
        assert_eq!(s.render(), "\"a \\\"quoted\\\" C:\\\\path\\nnext\\u0001\"\n");
    }

    #[test]
    fn commas_only_between_elements_of_nested_containers() {
        let doc = Obj(vec![
            ("a", Arr(vec![Int(1), Obj(vec![("b", Bool(true)), ("c", Arr(vec![]))])])),
            ("d", Obj(vec![])),
        ]);
        let expected = concat!(
            "{\n",
            "  \"a\": [\n",
            "    1,\n",
            "    {\n",
            "      \"b\": true,\n",
            "      \"c\": []\n",
            "    }\n",
            "  ],\n",
            "  \"d\": {}\n",
            "}\n",
        );
        assert_eq!(doc.render(), expected);
    }

    #[test]
    fn floats_print_with_three_decimals() {
        let doc = Arr(vec![Num(1.0), Num(2.0 / 3.0), Num(155_146.867_6), Num(f64::INFINITY)]);
        assert_eq!(doc.render(), "[\n  1.000,\n  0.667,\n  155146.868,\n  null\n]\n");
    }
}
