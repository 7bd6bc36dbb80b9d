//! `dsc_eco_replay`: the paper's 29-change history replayed on the DSC
//! controller, each change re-verified as it lands.
//!
//! The replay is driven from outside, change by change, the way
//! `replay_history_with` drives it: `apply_change` (the change plus the
//! formal check its class demands) followed by an `IncrementalSta`
//! update of the edited cones. One operation is one change plus its
//! timing update. After the loop, the last replay's netlist is signed
//! off through the full flow, which gives the workload its quality
//! figures and checks that the ECO'd chip still tapes out.

use std::time::Instant;

use camsoc_core::dsc::build_dsc;
use camsoc_core::eco::{
    apply_change, paper_change_history, ChangeKind, ReplayContext, ReplayOptions,
};
use camsoc_core::flow::{FlowOptions, FlowSupervisor};
use camsoc_dft::atpg::AtpgConfig;
use camsoc_layout::route::RouteConfig;
use camsoc_netlist::equiv::{check_equivalence, EquivOptions};
use camsoc_netlist::graph::Netlist;
use camsoc_sta::{Constraints, Sta};

use crate::common::{closed_loop, derive, quick_options, time_setups, Args};
use crate::flows::{drive, flow_problem, sample_equiv, sample_qor};
use crate::metrics::{Metrics, Outcome};
use crate::trace::Tracer;

/// DSC scale of the replayed design.
const SCALE: f64 = 0.1;

/// Clock period of the replay's timing view and of the sign-off, ns.
/// The scaled DSC's logic is deeper than the 133 MHz original's, so it
/// closes timing at a slower clock.
const CLOCK_NS: f64 = 20.0;

fn kind_metric(kind: ChangeKind) -> &'static str {
    match kind {
        ChangeKind::Spec => "eco.spec_ms",
        ChangeKind::NetlistEco => "eco.netlist_eco_ms",
        ChangeKind::TimingEco => "eco.timing_eco_ms",
        ChangeKind::PinAssign => "eco.pin_assign_ms",
    }
}

/// One replay of the history; returns the final netlist and the
/// replay's wall time in ms, less the traced run's re-checks.
fn replay(
    input: Netlist,
    seed: u64,
    tr: &mut Tracer,
    m: &mut Metrics,
    out: &mut Outcome,
    op_ms: &mut Vec<f64>,
) -> Result<(Netlist, f64), String> {
    let started = Instant::now();
    let mut recheck_ms = 0.0;
    let ro = ReplayOptions {
        clock_period_ns: CLOCK_NS,
        ..ReplayOptions::default()
    };
    let history = paper_change_history();
    let mut ctx = ReplayContext::new(&input, seed, ro.equiv_rounds);
    let equiv_opts = EquivOptions {
        random_rounds: ro.equiv_rounds,
        ..EquivOptions::default()
    };
    let constraints = Constraints::single_clock(&ro.clock_port, ro.clock_period_ns);
    let (baseline, _) = tr.time("sta.baseline", || {
        Sta::new(&input, &ro.tech, constraints)
            .with_corner(ro.corner)
            .into_incremental()
    });
    let mut engine = baseline.map_err(|e| format!("baseline sta: {e}"))?.0;
    engine = engine.with_max_cone_fraction(ro.max_cone_fraction);
    let (mut inc_evals, mut full_evals) = (0usize, 0usize);
    let mut current = input;
    for (i, request) in history.iter().enumerate() {
        // the formal re-check of a timing ECO is re-run from outside to
        // split it into its random and exact phases
        let before =
            (tr.enabled() && request.kind == ChangeKind::TimingEco).then(|| current.clone());
        let (applied, apply_ms) = tr.time(kind_metric(request.kind), || {
            apply_change(current, request, &mut ctx)
        });
        let outcome = match applied {
            Ok(o) => o,
            Err(e) => {
                let left = history.len() - i;
                for _ in 0..left {
                    out.operation(Some(format!("change {i}: {e}")));
                }
                return Err(format!("change {i} ({}) failed: {e}", request.description));
            }
        };
        let mut sta_ms = 0.0;
        if !outcome.delta.is_empty() {
            let (updated, ms) = tr.time("sta.incremental_update", || {
                engine.update(&outcome.netlist, &ro.tech, &outcome.delta)
            });
            sta_ms = ms;
            if let Err(e) = updated {
                out.operation(Some(format!("change {i}: sta update: {e}")));
                current = outcome.netlist;
                continue;
            }
            let s = engine.stats();
            inc_evals += s.evaluated;
            full_evals += s.full_evaluated;
            if tr.enabled() {
                m.sample("sta.incremental_update_ms", ms);
            }
        }
        op_ms.push(apply_ms + sta_ms);
        out.operation(
            (!outcome.check_ok)
                .then(|| format!("change {i}: {} check failed", request.description)),
        );
        if tr.enabled() {
            m.sample(kind_metric(request.kind), apply_ms);
            if let Some(before) = before {
                let t = Instant::now();
                split_equiv(
                    &before,
                    &outcome.netlist,
                    &equiv_opts,
                    outcome.check_ok,
                    tr,
                    m,
                    out,
                )?;
                recheck_ms += t.elapsed().as_secs_f64() * 1e3;
            }
        }
        current = outcome.netlist;
    }
    if tr.enabled() {
        m.sample("sta.incremental_evals", inc_evals as f64);
        m.sample("sta.full_evals", full_evals as f64);
        m.sample(
            "sta.eval_ratio",
            inc_evals as f64 / full_evals.max(1) as f64,
        );
    }
    Ok((current, started.elapsed().as_secs_f64() * 1e3 - recheck_ms))
}

/// Re-run a timing ECO's equivalence proof, in full and random-only,
/// and check both agree with what the change reported.
fn split_equiv(
    before: &Netlist,
    after: &Netlist,
    opts: &EquivOptions,
    check_ok: bool,
    tr: &mut Tracer,
    m: &mut Metrics,
    out: &mut Outcome,
) -> Result<(), String> {
    let (full, full_ms) = tr.time("netlist.equiv", || check_equivalence(before, after, opts));
    let full = full.map_err(|e| format!("equivalence: {e}"))?;
    let random_opts = EquivOptions {
        max_support: 0,
        ..opts.clone()
    };
    let (random, random_ms) = tr.time("netlist.equiv_random", || {
        check_equivalence(before, after, &random_opts)
    });
    let random = random.map_err(|e| format!("equivalence: {e}"))?;
    out.check(full.passed() == check_ok, || {
        format!(
            "re-run timing-ECO proof says passed={}, the change {check_ok}",
            full.passed()
        )
    });
    out.check(random.vectors_applied == full.vectors_applied, || {
        format!(
            "random-only equivalence applied {} vectors, the full check {}",
            random.vectors_applied, full.vectors_applied
        )
    });
    sample_equiv(m, random_ms, full_ms, &full);
    Ok(())
}

/// The sign-off recipe for the ECO'd netlist.
fn signoff_options(seed: u64) -> FlowOptions {
    let mut o = quick_options(seed);
    o.clock_period_ns = CLOCK_NS;
    o.atpg = AtpgConfig {
        fault_sample: Some(4_000),
        ..o.atpg
    };
    o.layout.routing = RouteConfig {
        capacity_scale: 3.0,
        ..RouteConfig::default()
    };
    o
}

/// Run the workload.
pub fn dsc_eco_replay(args: &Args, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut m = Metrics::default();
    let make = || {
        build_dsc(SCALE)
            .map(|d| d.netlist)
            .map_err(|e| e.to_string())
    };
    time_setups(&mut m, |_| make());
    let mut replay_ms = Vec::new();
    let mut op_ms = Vec::new();
    let mut last = None;
    closed_loop(args.seconds, |k| {
        tr.set_run(k);
        let input = match make() {
            Ok(nl) => nl,
            Err(e) => return out.operation(Some(format!("replay {k}: input: {e}"))),
        };
        let seed = derive(args.seed, 200 + k as u64);
        let span = tr.open("eco.replay");
        let replayed = replay(input, seed, tr, &mut m, &mut out, &mut op_ms);
        tr.close(span);
        match replayed {
            Ok((nl, ms)) => {
                replay_ms.push(ms);
                last = Some(nl);
            }
            Err(e) => out.check(false, || format!("replay {k}: {e}")),
        }
    });
    m.set_timing(&replay_ms, &op_ms, tr.enabled());

    // sign-off of the ECO'd chip: quality figures and a tapeout check
    tr.set_run(replay_ms.len());
    match last {
        Some(nl) => {
            let sup = FlowSupervisor::new(signoff_options(derive(args.seed, 300)));
            let span = tr.open("core.flow");
            let signed_off = drive(&sup, nl, tr, &mut m);
            tr.close(span);
            match signed_off {
                Ok(run) => {
                    out.operation(flow_problem(&run.result).map(|p| format!("sign-off: {p}")));
                    sample_qor(&mut m, &run.result);
                }
                Err(e) => out.operation(Some(format!("sign-off: {e}"))),
            }
        }
        None => out.check(false, || "no replay finished; nothing to sign off".into()),
    }
    out.metrics = m;
    out
}
