//! Helpers shared by the workloads: arguments, seeds, the closed loop,
//! host facts and the shared flow recipes.

use std::time::{Duration, Instant};

use camsoc_core::flow::FlowOptions;
use camsoc_dft::atpg::AtpgConfig;
use camsoc_layout::place::{PlacementConfig, PlacementMode};
use camsoc_layout::ImplementOptions;
use camsoc_netlist::generate::SplitMix64;

use crate::metrics::Metrics;

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measured time per run.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

/// Derive the seed of sub-stream `salt` (a generator, a unit, an
/// option) from the workload seed, so one `--seed` fixes every input.
pub fn derive(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Run `unit(k)` for k = 0, 1, ... until `seconds` have passed: a
/// closed loop with one client, so unit k+1 starts when unit k ends.
/// At least one unit runs.
pub fn closed_loop(seconds: f64, mut unit: impl FnMut(usize)) {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut k = 0;
    loop {
        unit(k);
        k += 1;
        if started.elapsed() >= budget {
            return;
        }
    }
}

/// Time `f` in seconds.
pub fn time_s<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Set-ups timed back to back at the start of a run; `setup_s` is
/// their median. The units of work set up their own inputs the same
/// way, untimed.
pub const SETUPS: usize = 10;

/// Time [`SETUPS`] set-ups back to back and record them as `setup_s`
/// samples. Each set-up's product is dropped outside the timing.
pub fn time_setups<R>(m: &mut Metrics, mut setup: impl FnMut(usize) -> R) {
    for x in 0..SETUPS {
        let (product, s) = time_s(|| setup(x));
        m.sample("setup_s", s);
        drop(product);
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads the host exposes.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The quick recipe of the farm's small IP-block jobs (and of the host
/// calibration flow): sampled ATPG, short wirelength-driven placement.
pub fn quick_options(seed: u64) -> FlowOptions {
    FlowOptions {
        atpg: AtpgConfig {
            fault_sample: Some(400),
            max_random_blocks: 16,
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
            ..ImplementOptions::default()
        },
        equiv: camsoc_netlist::equiv::EquivOptions {
            seed: derive(seed, 3),
            ..Default::default()
        },
        ..FlowOptions::default()
    }
}

/// Effective parallelism of the host for serial flows: the time of one
/// small serial flow against two copies run concurrently, as
/// `2 * t(one) / t(two)`. 2.0 means two independent flows really run
/// side by side; 1.0 means they only take turns. Median of three
/// trials.
pub fn effective_parallelism() -> f64 {
    use camsoc_core::flow::FlowSupervisor;
    use camsoc_netlist::generate::{ip_block, IpBlockParams};
    let nl = ip_block(
        "calib",
        &IpBlockParams {
            target_gates: 1_500,
            seed: 7,
            ..Default::default()
        },
    )
    .expect("calibration block");
    let run = || {
        FlowSupervisor::new(quick_options(7))
            .run(nl.clone())
            .expect("calibration flow");
    };
    let mut ratios = Vec::new();
    for _ in 0..3 {
        let ((), one) = time_s(run);
        let ((), two) = time_s(|| {
            std::thread::scope(|s| {
                let a = s.spawn(run);
                run();
                a.join().expect("calibration thread");
            })
        });
        ratios.push(2.0 * one / two);
    }
    crate::metrics::median(&ratios)
}
