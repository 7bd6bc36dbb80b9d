//! Incremental timing update for ECO loops.
//!
//! A full [`Sta::analyze`](crate::Sta::analyze) walks every gate of the
//! netlist. After a localized ECO edit — a rewire, a buffer insertion,
//! a resize — almost all of that work reproduces numbers that cannot
//! have moved: arrivals only change in the *forward fanout cone* of the
//! edit frontier, and required times only change in the *backward fanin
//! cone*. [`IncrementalSta`] keeps the [`Annotation`] from a baseline
//! analysis alive, takes the [`EditDelta`] an
//! [`EcoSession`](camsoc_netlist::eco::EcoSession) accumulates, and
//! re-evaluates only those two cones.
//!
//! # One snapshot, patched
//!
//! The engine walks the same [`CompiledNetlist`] a full analysis walks
//! and keeps it current by replaying each delta's connectivity journal
//! through [`CompiledNetlist::patch`]: fanout rows and counts are patched
//! per journal entry and logic levels are recomputed over the edit's
//! combinational fanout cone only. Cones are evaluated in the
//! snapshot's `(level, id)` order. `patch` re-sorts that order with a
//! linear counting sort over the instances, so every update carries one
//! O(instances) pass over a flat array on top of the O(cone) evaluation;
//! nothing is levelized, fanout-mapped or re-annotated from scratch.
//!
//! Two more structures are patched rather than re-derived:
//!
//! - **Endpoint requirements**: the static macro/port part never moves
//!   under ECO edits; per-net flop constraints are recomputed only for
//!   nets whose flop readers or capture periods actually changed.
//! - **Capture clocks** (`flop_clock`): re-traced only for flops whose
//!   clock tree intersects the edit.
//!
//! When `patch` returns `None` — a delta whose journal does not explain
//! the netlist, or an edit that closed a combinational loop — and on the
//! first update after any failed one, the engine recompiles the snapshot
//! and re-annotates it; [`UpdateStats::structures_rebuilt`] records it.
//!
//! The update is **bit-identical** to a from-scratch analysis: it uses
//! the exact per-gate evaluation routines of the full pass on the same
//! snapshot, re-seeds launch points through the same code path, and
//! re-derives order-sensitive scalars (like the IO reference latency)
//! deterministically. `TimingReport` equality — including WNS/TNS
//! floats and critical-path backtraces — is asserted across the whole
//! 29-change paper ECO history in `tests/sta_incremental.rs`.
//!
//! When an edit's cones grow past a configurable fraction of the graph
//! (default 0.75), the engine re-annotates the whole patched snapshot
//! instead — at that size the cone bookkeeping costs more than it saves.

use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};

use camsoc_netlist::compiled::{CompiledNetlist, CLOCK_PIN};
use camsoc_netlist::eco::{ConnectivityEdit, EditDelta};
use camsoc_netlist::graph::{InstanceId, NetId, Netlist};
use camsoc_netlist::tech::Technology;

use crate::analysis::{Annotation, Sta, StaError, TimingReport, NEG, POS};
use crate::constraints::Constraints;
use crate::derate::Corner;
use crate::macro_model::MacroTiming;

/// Cost accounting for one [`IncrementalSta::update`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateStats {
    /// Evaluations this update performed (forward gate evaluations plus
    /// backward required-time evaluations).
    pub evaluated: usize,
    /// Evaluations a from-scratch [`Sta::annotate`](crate::Sta) of the
    /// current netlist would perform.
    pub full_evaluated: usize,
    /// `evaluated / full_evaluated` — the dirty-cone fraction (`0.0`
    /// when the combinational graph is empty).
    pub cone_fraction: f64,
    /// True when the engine re-annotated the whole snapshot: the cone
    /// exceeded the threshold, or the snapshot was recompiled.
    pub used_full: bool,
    /// Logic levels the snapshot patch recomputed: the edited gates and
    /// the part of their combinational fanout whose level moved. Zero
    /// for an empty delta; every combinational instance on a recompile.
    pub order_reordered: usize,
    /// Fanout entries the snapshot patch inserted or moved while
    /// replaying the connectivity journal (a rewire counts 2). O(edits),
    /// independent of netlist size; zero on a recompile.
    pub fanout_patched: usize,
    /// Per-net endpoint requirements recomputed (nets whose flop
    /// readers or capture periods changed).
    pub endpoints_recomputed: usize,
    /// True when the snapshot was recompiled and re-annotated from
    /// scratch instead of patched: the journal did not explain the
    /// netlist, the edit closed a combinational loop, or the previous
    /// update failed.
    pub structures_rebuilt: bool,
}

impl UpdateStats {
    /// Stats of a from-scratch annotation worth `full` evaluations.
    fn full(full: usize, levels: usize, endpoints: usize) -> UpdateStats {
        UpdateStats {
            evaluated: full,
            full_evaluated: full,
            cone_fraction: 1.0,
            used_full: true,
            order_reordered: levels,
            fanout_patched: 0,
            endpoints_recomputed: endpoints,
            structures_rebuilt: true,
        }
    }
}

/// Incremental timing engine: a compiled snapshot, its annotation, and
/// the machinery to patch both after netlist edits.
///
/// Build one from a configured analyzer via
/// [`Sta::into_incremental`], then call [`IncrementalSta::update`]
/// with the netlist's current state and the accumulated edit delta
/// after each ECO.
///
/// # Example
///
/// ```
/// use camsoc_netlist::builder::NetlistBuilder;
/// use camsoc_netlist::cell::CellFunction;
/// use camsoc_netlist::eco::EcoSession;
/// use camsoc_netlist::tech::Technology;
/// use camsoc_sta::{Constraints, IncrementalSta, Sta};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new("d");
/// let clk = b.input("clk");
/// let din = b.input("din");
/// let mut net = b.dff("u_src", din, clk);
/// for _ in 0..8 {
///     net = b.gate_auto(CellFunction::Inv, &[net]);
/// }
/// let q = b.dff("u_dst", net, clk);
/// b.output("dout", q);
///
/// let tech = Technology::default();
/// let constraints = Constraints::single_clock("clk", 7.5);
/// let mut eco = EcoSession::new(b.finish());
///
/// // Baseline: one full analysis, annotation kept alive.
/// let sta = Sta::new(eco.netlist(), &tech, constraints.clone());
/// let (mut inc, baseline) = sta.into_incremental()?;
///
/// // Edit: upsize one inverter, then patch the timing.
/// let victim = inc.compiled().topo_order()[4];
/// eco.upsize(victim)?;
/// let delta = eco.take_delta();
/// let report = inc.update(eco.netlist(), &tech, &delta)?;
///
/// // Bit-identical to a from-scratch analysis, at a fraction of the work.
/// let full = Sta::new(eco.netlist(), &tech, constraints).analyze()?;
/// assert_eq!(report, full);
/// assert!(inc.stats().evaluated < inc.stats().full_evaluated);
/// assert!(!inc.stats().structures_rebuilt); // patched, not rebuilt
/// assert!(report.fmax_mhz >= baseline.fmax_mhz);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct IncrementalSta {
    constraints: Constraints,
    corner: Corner,
    clock_latency_ns: HashMap<InstanceId, f64>,
    wire_delays_ns: Option<Vec<f64>>,
    macro_timing: HashMap<String, MacroTiming>,
    max_cone_fraction: f64,
    /// The snapshot every pass walks, patched from each delta's journal.
    cn: CompiledNetlist,
    ann: Annotation,
    /// Live per-net endpoint requirement and its flop-independent part.
    endpoint_req: Vec<f64>,
    static_endpoint_req: Vec<f64>,
    /// Per-engine scalars that a full analysis re-derives each run but
    /// that cannot change between updates (constraints and clock-tree
    /// latencies are fixed at construction).
    io_reference_ns: f64,
    clock_ports: Vec<NetId>,
    marks: Marks,
    /// Nets whose wire delay changed via [`IncrementalSta::set_wire_delays`],
    /// pending the next update.
    pending_dirty_nets: BTreeSet<NetId>,
    /// Set by a failed update, which may leave the snapshot or the
    /// annotation half-patched: the next update recompiles.
    stale: bool,
    stats: UpdateStats,
}

/// Epoch-stamped visit marks for cone collection: `inst[i] == epoch`
/// means "in the current cone". Bumping the epoch clears every mark in
/// O(1), so collecting a cone allocates nothing in steady state.
#[derive(Clone, Default)]
struct Marks {
    inst: Vec<u32>,
    net: Vec<u32>,
    epoch: u32,
}

impl Marks {
    fn resize(&mut self, instances: usize, nets: usize) {
        self.inst.resize(instances, 0);
        self.net.resize(nets, 0);
    }

    fn bump(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.inst.fill(0);
            self.net.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

impl<'a> Sta<'a> {
    /// Run the baseline analysis and keep the snapshot and annotation
    /// alive for incremental updates. Consumes the analyzer (the engine
    /// carries owned copies of its configuration so it outlives the
    /// netlist borrow); returns the engine together with the baseline
    /// report.
    ///
    /// # Errors
    ///
    /// Same as [`Sta::analyze`].
    pub fn into_incremental(self) -> Result<(IncrementalSta, TimingReport), StaError> {
        let cn = self.compile_netlist()?;
        let ann = self.annotate_with(&cn, self.flop_clock_map()?);
        let report = self.report_from(&ann);
        let endpoint_req = self.endpoint_required(&ann.flop_clock, ann.default_period);
        let static_endpoint_req = self.static_endpoint_required(ann.default_period);
        let io_reference_ns = self.io_reference_ns();
        let clock_ports = self.clock_port_nets();
        let mut marks = Marks::default();
        marks.resize(cn.num_instances(), cn.num_nets());
        let stats = UpdateStats::full(ann.evaluated, 0, 0);
        let inc = IncrementalSta {
            constraints: self.constraints,
            corner: self.corner,
            clock_latency_ns: self.clock_latency_ns,
            wire_delays_ns: self.wire_delays_ns,
            macro_timing: self.macro_timing,
            max_cone_fraction: 0.75,
            cn,
            ann,
            endpoint_req,
            static_endpoint_req,
            io_reference_ns,
            clock_ports,
            marks,
            pending_dirty_nets: BTreeSet::new(),
            stale: false,
            stats,
        };
        Ok((inc, report))
    }
}

impl IncrementalSta {
    /// Set the cone fraction above which an update re-annotates the
    /// whole snapshot (default 0.75). `1.0` disables the fallback.
    pub fn with_max_cone_fraction(mut self, fraction: f64) -> Self {
        self.max_cone_fraction = fraction;
        self
    }

    /// The live annotation (current arrivals/required times).
    pub fn annotation(&self) -> &Annotation {
        &self.ann
    }

    /// The compiled snapshot the engine walks. After a successful
    /// update it equals a fresh `compile()` of the netlist that update
    /// was given, so other snapshot consumers (a multi-corner sign-off)
    /// can share it instead of compiling again.
    pub fn compiled(&self) -> &CompiledNetlist {
        &self.cn
    }

    /// Cost accounting for the most recent update (the baseline counts
    /// as a full evaluation).
    pub fn stats(&self) -> &UpdateStats {
        &self.stats
    }

    /// Replace the extracted wire delays (e.g. after re-routing new ECO
    /// nets). Nets whose delay changed are marked dirty and re-timed on
    /// the next [`IncrementalSta::update`]. The vector must cover every
    /// net of the netlist passed to that update.
    pub fn set_wire_delays(&mut self, delays_ns: Vec<f64>) {
        if let Some(old) = &self.wire_delays_ns {
            let common = old.len().min(delays_ns.len());
            for i in 0..common {
                if old[i] != delays_ns[i] {
                    self.pending_dirty_nets.insert(NetId(i as u32));
                }
            }
            // nets beyond either length are new — the delta covers them
        } else {
            // switching from estimated to extracted wires re-times everything
            for i in 0..delays_ns.len() {
                self.pending_dirty_nets.insert(NetId(i as u32));
            }
        }
        self.wire_delays_ns = Some(delays_ns);
    }

    /// Patch the snapshot and the annotation after netlist edits and
    /// return the timing report — bit-identical to `Sta::analyze` on the
    /// same netlist.
    ///
    /// `delta` is the touched-net/instance set and connectivity journal
    /// from
    /// [`EcoSession::take_delta`](camsoc_netlist::eco::EcoSession::take_delta)
    /// (plus anything queued by [`IncrementalSta::set_wire_delays`]).
    /// Arrivals are recomputed over the forward fanout cone of the
    /// frontier, required times over the backward fanin cone; if the
    /// combined cone exceeds the configured fraction of the graph the
    /// engine re-annotates the whole snapshot instead. A delta the
    /// journal replay rejects is handled by recompiling (see
    /// [`UpdateStats::structures_rebuilt`]).
    ///
    /// # Errors
    ///
    /// Same as [`Sta::analyze`] (the edit may have introduced a
    /// combinational cycle or an unclocked flop). An error leaves the
    /// engine usable: the next update recompiles from the netlist it is
    /// given.
    ///
    /// # Panics
    ///
    /// Panics if extracted wire delays are in use and their length does
    /// not match the netlist — call
    /// [`IncrementalSta::set_wire_delays`] first when nets were added.
    pub fn update(
        &mut self,
        nl: &Netlist,
        tech: &Technology,
        delta: &EditDelta,
    ) -> Result<TimingReport, StaError> {
        if let Some(w) = &self.wire_delays_ns {
            assert_eq!(w.len(), nl.num_nets(), "wire delay vector length");
        }
        // Loan the owned configuration to a borrowed analyzer instead of
        // cloning it — per-update cost must not scale with the number of
        // ports or clock-tree leaves.
        let sta = Sta {
            nl,
            tech,
            constraints: std::mem::take(&mut self.constraints),
            corner: self.corner,
            wire_delays_ns: self.wire_delays_ns.take(),
            clock_latency_ns: std::mem::take(&mut self.clock_latency_ns),
            macro_timing: std::mem::take(&mut self.macro_timing),
        };
        let result = if self.stale { self.recompile(&sta) } else { self.patch(&sta, delta) };
        self.stale = result.is_err();
        let Sta { constraints, wire_delays_ns, clock_latency_ns, macro_timing, .. } = sta;
        self.constraints = constraints;
        self.wire_delays_ns = wire_delays_ns;
        self.clock_latency_ns = clock_latency_ns;
        self.macro_timing = macro_timing;
        result
    }

    /// The incremental path: patch the snapshot from the journal, then
    /// re-time the two cones of the edit frontier.
    fn patch(&mut self, sta: &Sta<'_>, delta: &EditDelta) -> Result<TimingReport, StaError> {
        let Some(patch) = self.cn.patch(sta.nl, delta) else {
            // The journal does not explain the netlist (stale baseline,
            // hand-built delta) or the edit closed a loop; the snapshot
            // may be half-patched.
            return self.recompile(sta);
        };
        let cn = &self.cn;
        let n = cn.num_nets();
        let ann = &mut self.ann;
        // New nets start untimed; the edit primitives cannot attach a
        // new net to a macro pin or port, so its static requirement is
        // `+inf` too.
        ann.at_max.resize(n, NEG);
        ann.at_min.resize(n, POS);
        ann.req_max.resize(n, POS);
        ann.pred.resize(n, None);
        ann.start_label.resize(n, None);
        self.endpoint_req.resize(n, POS);
        self.static_endpoint_req.resize(n, POS);
        self.marks.resize(cn.num_instances(), n);

        // ---- Edit frontier -------------------------------------------
        // Gates whose delay may have moved re-evaluate; launch points
        // (ports, flops, macros), latch outputs and undriven nets
        // re-seed. Every such net also seeds the backward cone.
        let mut dirty_gates: BTreeSet<InstanceId> = BTreeSet::new();
        let mut reseed_nets: BTreeSet<NetId> = BTreeSet::new();
        let mut bseeds: BTreeSet<NetId> = BTreeSet::new();
        for &id in &delta.instances {
            if cn.is_sequential(id) {
                reseed_nets.insert(cn.output(id));
            } else {
                dirty_gates.insert(id);
            }
        }
        let mut touch = |net: NetId, dirty_gates: &mut BTreeSet<InstanceId>| {
            match cn.driver_instance(net) {
                Some(id) if !cn.is_sequential(id) => {
                    dirty_gates.insert(id);
                }
                _ => {
                    reseed_nets.insert(net);
                }
            }
            bseeds.insert(net);
        };
        // Capture periods move only for flops whose clock pin or clock
        // tree the edit touched; endpoint requirements only on nets a
        // flop data pin joined or left.
        let mut retrace: BTreeSet<InstanceId> = BTreeSet::new();
        let mut ep_dirty: BTreeSet<NetId> = BTreeSet::new();
        for e in &delta.edits {
            match *e {
                // a load moved: the fanout, and so the delay, of both nets
                ConnectivityEdit::RewireInput { inst, from, to, .. } => {
                    for net in [from, to] {
                        touch(net, &mut dirty_gates);
                        if cn.function(inst).is_flop() {
                            ep_dirty.insert(net);
                        }
                    }
                }
                ConnectivityEdit::Connect { inst, pin, net } => {
                    touch(net, &mut dirty_gates);
                    if pin != usize::MAX && cn.function(inst).is_flop() {
                        ep_dirty.insert(net);
                    }
                }
                ConnectivityEdit::AddInstance { inst } if cn.function(inst).is_flop() => {
                    retrace.insert(inst);
                }
                ConnectivityEdit::MoveOutput { from, to, .. } => {
                    clock_readers_into(cn, from, &mut retrace);
                    clock_readers_into(cn, to, &mut retrace);
                }
                _ => {}
            }
        }
        for &net in delta.nets.iter().chain(&self.pending_dirty_nets) {
            touch(net, &mut dirty_gates);
        }
        self.pending_dirty_nets.clear();

        let mut fcone = collect_fcone(cn, &mut self.marks, &dirty_gates, &reseed_nets);

        // ---- Capture clocks: retrace the affected subtree only --------
        // Every changed clock-tree gate is in the forward cone.
        for &net in &delta.nets {
            clock_readers_into(cn, net, &mut retrace);
        }
        for &id in &fcone {
            clock_readers_into(cn, cn.output(id), &mut retrace);
        }
        let mut period_changed: Vec<InstanceId> = Vec::new();
        if !retrace.is_empty() {
            if sta.constraints.clocks.is_empty() {
                return Err(StaError::NoClock);
            }
            let port_clock = sta.port_clock_map();
            for &f in &retrace {
                let inst = sta.nl.instance(f);
                let clock = inst
                    .clock
                    .and_then(|c| sta.trace_clock_with(&port_clock, c))
                    .ok_or_else(|| StaError::UnclockedFlop(inst.name.clone()))?;
                if ann.flop_clock.insert(f, clock.period_ns) != Some(clock.period_ns) {
                    period_changed.push(f);
                }
            }
        }

        // ---- Endpoint requirements: recompute dirtied nets only ------
        for &f in &period_changed {
            ep_dirty.extend(cn.fanin(f).iter().map(|&net| NetId(net)));
        }
        for &net in &ep_dirty {
            let req = sta.endpoint_required_for(
                cn,
                net,
                self.static_endpoint_req[net.index()],
                &ann.flop_clock,
                ann.default_period,
            );
            if self.endpoint_req[net.index()] != req {
                self.endpoint_req[net.index()] = req;
                bseeds.insert(net);
            }
        }

        // A gate with a changed delay shifts the required time of its
        // input nets; a re-seeded net's own required time may move.
        for &id in &dirty_gates {
            bseeds.extend(cn.fanin(id).iter().map(|&net| NetId(net)));
        }
        bseeds.extend(reseed_nets.iter().copied());
        let mut bcone = collect_bcone(cn, &mut self.marks, &bseeds);

        // ---- Fallback decision ---------------------------------------
        let non_tie =
            |ids: &[InstanceId]| ids.iter().filter(|&&id| !cn.function(id).is_tie()).count();
        let full_evaluated = non_tie(cn.topo_order()) + n;
        let evaluated = non_tie(&fcone) + bcone.len();
        let cone_fraction = if full_evaluated > 0 {
            evaluated as f64 / full_evaluated as f64
        } else {
            0.0
        };
        let mut stats = UpdateStats {
            evaluated,
            full_evaluated,
            cone_fraction,
            used_full: false,
            order_reordered: patch.levels_recomputed,
            fanout_patched: patch.fanout_entries_patched,
            endpoints_recomputed: ep_dirty.len(),
            structures_rebuilt: false,
        };
        if cone_fraction > self.max_cone_fraction {
            let flop_clock = std::mem::take(&mut self.ann.flop_clock);
            let report = self.reannotate(sta, flop_clock);
            stats.evaluated = self.ann.evaluated;
            stats.used_full = true;
            self.stats = stats;
            return Ok(report);
        }

        // ---- Re-seed, then re-evaluate both cones ---------------------
        let ann = &mut self.ann;
        for &net in &reseed_nets {
            sta.seed_net(
                net,
                &self.clock_ports,
                self.io_reference_ns,
                &mut ann.at_max,
                &mut ann.at_min,
                &mut ann.pred,
                &mut ann.start_label,
            );
        }
        fcone.sort_unstable_by_key(|&id| (cn.level(id), id));
        for &id in &fcone {
            sta.eval_forward(cn, id, &mut ann.at_max, &mut ann.at_min, &mut ann.pred);
        }
        // The full pass's backward order restricted to the cone: gate
        // outputs readers-first (descending driver level; a reader's
        // level always exceeds its driver's), then the nets no gate
        // drives, in index order.
        bcone.sort_unstable_by_key(|&net| {
            let driver = cn.driver_instance(net).filter(|&d| !cn.is_sequential(d));
            (driver.is_none(), Reverse(driver.map(|d| (cn.level(d), d))), net)
        });
        for &net in &bcone {
            ann.req_max[net.index()] =
                sta.eval_required(cn, net, &self.endpoint_req, &ann.req_max);
        }

        ann.evaluated = evaluated;
        self.stats = stats;
        Ok(sta.report_from(&self.ann))
    }

    /// Recompile the snapshot from the netlist and re-annotate it: the
    /// path for a delta `patch` rejects and for the update after a
    /// failed one.
    fn recompile(&mut self, sta: &Sta<'_>) -> Result<TimingReport, StaError> {
        self.cn = sta.compile_netlist()?;
        let report = self.reannotate(sta, sta.flop_clock_map()?);
        self.stats = UpdateStats::full(
            self.ann.evaluated,
            self.cn.topo_order().len(),
            self.cn.num_nets(),
        );
        Ok(report)
    }

    /// Re-annotate the whole snapshot and re-derive the endpoint
    /// requirements from it. The caller sets `stats`.
    fn reannotate(
        &mut self,
        sta: &Sta<'_>,
        flop_clock: HashMap<InstanceId, f64>,
    ) -> TimingReport {
        self.ann = sta.annotate_with(&self.cn, flop_clock);
        self.endpoint_req = sta.endpoint_required(&self.ann.flop_clock, self.ann.default_period);
        self.static_endpoint_req = sta.static_endpoint_required(self.ann.default_period);
        self.marks.resize(self.cn.num_instances(), self.cn.num_nets());
        self.pending_dirty_nets.clear();
        sta.report_from(&self.ann)
    }
}

/// Combinational gates reading `net` through a data pin.
fn comb_readers(cn: &CompiledNetlist, net: NetId) -> impl Iterator<Item = InstanceId> + '_ {
    cn.fanout(net)
        .iter()
        .filter(|&&(_, pin)| pin != CLOCK_PIN)
        .map(|&(g, _)| InstanceId(g))
        .filter(|&g| !cn.is_sequential(g))
}

/// The forward cone of the edit frontier: every combinational gate
/// whose arrival can move — the dirty gates and everything downstream
/// of them or of a re-seeded launch net. Sequential readers stop the
/// walk: a D-pin arrival does not move the Q launch.
fn collect_fcone(
    cn: &CompiledNetlist,
    marks: &mut Marks,
    dirty_gates: &BTreeSet<InstanceId>,
    reseed_nets: &BTreeSet<NetId>,
) -> Vec<InstanceId> {
    let epoch = marks.bump();
    let mut cone: Vec<InstanceId> = Vec::new();
    let mut visit = |id: InstanceId, cone: &mut Vec<InstanceId>| {
        if marks.inst[id.index()] != epoch {
            marks.inst[id.index()] = epoch;
            cone.push(id);
        }
    };
    for &id in dirty_gates {
        visit(id, &mut cone);
    }
    for &net in reseed_nets {
        comb_readers(cn, net).for_each(|r| visit(r, &mut cone));
    }
    let mut next = 0;
    while let Some(&id) = cone.get(next) {
        next += 1;
        comb_readers(cn, cn.output(id)).for_each(|r| visit(r, &mut cone));
    }
    cone
}

/// The backward cone of the seed nets: every net whose required time
/// can move. Required times stop at launch points (sequential drivers).
fn collect_bcone(cn: &CompiledNetlist, marks: &mut Marks, seeds: &BTreeSet<NetId>) -> Vec<NetId> {
    let epoch = marks.bump();
    let mut cone: Vec<NetId> = Vec::new();
    let mut visit = |net: NetId, cone: &mut Vec<NetId>| {
        if marks.net[net.index()] != epoch {
            marks.net[net.index()] = epoch;
            cone.push(net);
        }
    };
    for &net in seeds {
        visit(net, &mut cone);
    }
    let mut next = 0;
    while let Some(&net) = cone.get(next) {
        next += 1;
        if let Some(d) = cn.driver_instance(net).filter(|&d| !cn.is_sequential(d)) {
            for &input in cn.fanin(d) {
                visit(NetId(input), &mut cone);
            }
        }
    }
    cone
}

/// Flops reading `net` through their clock pin.
fn clock_readers_into(cn: &CompiledNetlist, net: NetId, out: &mut BTreeSet<InstanceId>) {
    for &(reader, pin) in cn.fanout(net) {
        if pin == CLOCK_PIN && cn.function(InstanceId(reader)).is_flop() {
            out.insert(InstanceId(reader));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camsoc_netlist::builder::NetlistBuilder;
    use camsoc_netlist::cell::{CellFunction, Drive};
    use camsoc_netlist::eco::EcoSession;
    use camsoc_netlist::generate;
    use camsoc_netlist::tech::TechnologyNode;

    fn tech() -> Technology {
        Technology::node(TechnologyNode::Tsmc250)
    }

    fn cons() -> Constraints {
        Constraints::single_clock("clk", 7.5)
    }

    /// Independent flop-to-flop inverter chains sharing a clock, one per
    /// entry of `lengths`: an edit on one chain must not re-evaluate the
    /// others.
    fn chains(lengths: &[usize]) -> Netlist {
        let mut b = NetlistBuilder::new("tc");
        let clk = b.input("clk");
        for (c, &k) in lengths.iter().enumerate() {
            let din = b.input(&format!("din{c}"));
            let mut net = b.dff(&format!("u_src{c}"), din, clk);
            for _ in 0..k {
                net = b.gate_auto(CellFunction::Inv, &[net]);
            }
            let q = b.dff(&format!("u_dst{c}"), net, clk);
            b.output(&format!("dout{c}"), q);
        }
        b.finish()
    }

    fn two_chains(k: usize) -> Netlist {
        chains(&[k, k])
    }

    fn assert_matches_full(
        inc: &IncrementalSta,
        eco: &EcoSession,
        t: &Technology,
        report: &TimingReport,
    ) {
        let full = Sta::new(eco.netlist(), t, cons()).analyze().unwrap();
        assert_eq!(*report, full, "incremental report diverged from full analysis");
        // the patched snapshot is exactly the one a full analysis walks ...
        assert_eq!(*inc.compiled(), eco.netlist().compile().unwrap(), "snapshot diverged");
        // ... and every timing number matches bit for bit
        let full_ann = Sta::new(eco.netlist(), t, cons()).annotate().unwrap();
        let mut patched = inc.annotation().clone();
        patched.evaluated = full_ann.evaluated;
        assert_eq!(patched, full_ann, "incremental annotation diverged");
    }

    #[test]
    fn upsize_retimes_only_one_chain() {
        let t = tech();
        let mut eco = EcoSession::new(two_chains(20));
        let sta = Sta::new(eco.netlist(), &t, cons());
        let (mut inc, _) = sta.into_incremental().unwrap();

        let victim = inc.compiled().topo_order()[5];
        eco.upsize(victim).unwrap();
        let delta = eco.take_delta();
        let report = inc.update(eco.netlist(), &t, &delta).unwrap();
        assert_matches_full(&inc, &eco, &t, &report);

        let s = *inc.stats();
        assert!(!s.used_full);
        assert!(
            s.evaluated < s.full_evaluated / 2,
            "one-chain edit re-timed {} of {} evals",
            s.evaluated,
            s.full_evaluated
        );
    }

    #[test]
    fn every_eco_kind_stays_bit_identical() {
        let t = tech();
        let nl = generate::fsm(32, 8, 8, 0xA5);
        let mut eco = EcoSession::new(nl);
        let (inc, _) = Sta::new(eco.netlist(), &t, cons()).into_incremental().unwrap();
        let mut inc = inc.with_max_cone_fraction(1.0);

        // exercise every edit class the ECO session offers
        let g0 = inc.compiled().topo_order()[0];
        let g9 = inc.compiled().topo_order()[9];
        let gmid = inc.compiled().topo_order()[40];
        let some_net = eco.netlist().instance(gmid).output;

        eco.upsize(g0).unwrap();
        eco.upsize(g9).unwrap();
        eco.downsize(g9).unwrap(); // default drive may already be minimum
        eco.insert_buffer(some_net, Drive::X4).unwrap();
        let delta = eco.take_delta();
        let report = inc.update(eco.netlist(), &t, &delta).unwrap();
        assert_matches_full(&inc, &eco, &t, &report);
        assert!(inc.stats().evaluated < inc.stats().full_evaluated);

        let g1 = inc.compiled().topo_order()[17];
        eco.insert_inverter(g1, 0).unwrap();
        let delta = eco.take_delta();
        let report = inc.update(eco.netlist(), &t, &delta).unwrap();
        assert_matches_full(&inc, &eco, &t, &report);
    }

    #[test]
    fn fallback_runs_full_reannotation() {
        let t = tech();
        let mut eco = EcoSession::new(two_chains(10));
        let (inc, _) = Sta::new(eco.netlist(), &t, cons()).into_incremental().unwrap();
        let mut inc = inc.with_max_cone_fraction(0.0);
        let victim = inc.compiled().topo_order()[0];
        eco.upsize(victim).unwrap();
        let delta = eco.take_delta();
        let report = inc.update(eco.netlist(), &t, &delta).unwrap();
        assert!(inc.stats().used_full);
        // the whole snapshot is re-annotated, but it was patched, not rebuilt
        assert!(!inc.stats().structures_rebuilt);
        assert_matches_full(&inc, &eco, &t, &report);
    }

    #[test]
    fn pipeline_flop_insertion_is_tracked() {
        let t = tech();
        let mut eco = EcoSession::new(two_chains(12));
        let (inc, _) = Sta::new(eco.netlist(), &t, cons()).into_incremental().unwrap();
        let mut inc = inc.with_max_cone_fraction(1.0);
        // cut chain 0 in half with a pipeline flop (spec-change ECO)
        let mid_gate = inc.compiled().topo_order()[6];
        let cut = eco.netlist().instance(mid_gate).output;
        let clk = eco.netlist().find_net("clk").unwrap();
        eco.add_pipeline_flop(cut, clk).unwrap();
        let delta = eco.take_delta();
        let report = inc.update(eco.netlist(), &t, &delta).unwrap();
        assert_matches_full(&inc, &eco, &t, &report);
        assert!(report.setup.wns_ns > 0.0);
        // the new flop's capture clock was traced incrementally
        assert!(!inc.stats().structures_rebuilt);
    }

    #[test]
    fn wire_delay_changes_are_dirty_tracked() {
        let t = tech();
        let mut eco = EcoSession::new(two_chains(8));
        let n = eco.netlist().num_nets();
        let wires = vec![0.01; n];
        let sta = Sta::new(eco.netlist(), &t, cons()).with_wire_delays(wires.clone());
        let (inc, _) = sta.into_incremental().unwrap();
        let mut inc = inc.with_max_cone_fraction(1.0);

        // slow one net down without any netlist edit
        let victim = eco.netlist().instance(inc.compiled().topo_order()[3]).output;
        let mut wires2 = wires;
        wires2[victim.index()] = 0.9;
        inc.set_wire_delays(wires2.clone());
        let report = inc.update(eco.netlist(), &t, &EditDelta::default()).unwrap();
        let full = Sta::new(eco.netlist(), &t, cons())
            .with_wire_delays(wires2)
            .analyze()
            .unwrap();
        assert_eq!(report, full);
        assert!(inc.stats().evaluated < inc.stats().full_evaluated);
        let _ = eco.take_delta();
    }

    #[test]
    fn empty_delta_is_nearly_free() {
        let t = tech();
        let eco = EcoSession::new(two_chains(10));
        let (inc, baseline) = Sta::new(eco.netlist(), &t, cons()).into_incremental().unwrap();
        let mut inc = inc.with_max_cone_fraction(1.0);
        let report = inc.update(eco.netlist(), &t, &EditDelta::default()).unwrap();
        assert_eq!(report, baseline);
        assert_eq!(inc.stats().evaluated, 0);
        assert_eq!(inc.stats().order_reordered, 0);
        assert_eq!(inc.stats().fanout_patched, 0);
        assert_eq!(inc.stats().endpoints_recomputed, 0);
        assert!(!inc.stats().structures_rebuilt);
    }

    #[test]
    fn bookkeeping_counters_scale_with_cone() {
        let t = tech();
        let mut eco = EcoSession::new(two_chains(20));
        let (mut inc, _) = Sta::new(eco.netlist(), &t, cons()).into_incremental().unwrap();

        // A resize changes no connectivity: no fanout or endpoint
        // bookkeeping, and only the touched gates' levels are re-derived.
        let victim = inc.compiled().topo_order()[5];
        eco.upsize(victim).unwrap();
        let delta = eco.take_delta();
        let report = inc.update(eco.netlist(), &t, &delta).unwrap();
        assert_matches_full(&inc, &eco, &t, &report);
        let s = *inc.stats();
        assert!(!s.structures_rebuilt);
        assert!(s.order_reordered <= 2, "{} levels recomputed", s.order_reordered);
        assert_eq!(s.fanout_patched, 0);
        assert_eq!(s.endpoints_recomputed, 0);

        // A buffer insertion is an O(1) connectivity change: counters
        // stay far below netlist size.
        let some_net = eco.netlist().instance(inc.compiled().topo_order()[10]).output;
        eco.insert_buffer(some_net, Drive::X4).unwrap();
        let delta = eco.take_delta();
        let report = inc.update(eco.netlist(), &t, &delta).unwrap();
        assert_matches_full(&inc, &eco, &t, &report);
        let s = *inc.stats();
        let nets = eco.netlist().num_nets();
        assert!(!s.structures_rebuilt);
        assert!(s.order_reordered >= 1 && s.order_reordered < nets / 2, "{s:?} nets {nets}");
        assert!(s.fanout_patched >= 1 && s.fanout_patched < nets / 2);
        assert!(s.endpoints_recomputed < nets / 2);
    }

    #[test]
    fn empty_combinational_graph_has_finite_cone_fraction() {
        // A netlist with no gates and no nets: full_evaluated is zero
        // and the fraction must guard the division, not emit NaN.
        let t = tech();
        let nl = NetlistBuilder::new("empty").finish();
        let (mut inc, _) =
            Sta::new(&nl, &t, Constraints::default()).into_incremental().unwrap();
        let _ = inc.update(&nl, &t, &EditDelta::default()).unwrap();
        let s = *inc.stats();
        assert_eq!(s.full_evaluated, 0);
        assert_eq!(s.cone_fraction, 0.0);
        assert!(s.cone_fraction.is_finite());
    }

    #[test]
    fn unreplayable_journal_rebuilds_structures() {
        let t = tech();
        let mut eco = EcoSession::new(two_chains(10));
        let (mut inc, _) = Sta::new(eco.netlist(), &t, cons()).into_incremental().unwrap();

        // A hand-built delta whose journal claims a rewire that never
        // happened: dims look explained, but the replay cannot find the
        // pin entry — the engine must detect it and rebuild.
        let g = inc.compiled().topo_order()[2];
        let from = eco.netlist().instance(g).output;
        let to = eco.netlist().instance(g).inputs[0];
        let mut delta = EditDelta::default();
        delta.instances.insert(g);
        delta.nets.insert(from);
        delta.edits.push(ConnectivityEdit::RewireInput { inst: g, pin: 7, from, to });
        let report = inc.update(eco.netlist(), &t, &delta).unwrap();
        let full = Sta::new(eco.netlist(), &t, cons()).analyze().unwrap();
        assert_eq!(report, full);
        let s = *inc.stats();
        assert!(s.used_full && s.structures_rebuilt);

        // ... and keeps working incrementally afterwards.
        let victim = inc.compiled().topo_order()[4];
        eco.upsize(victim).unwrap();
        let delta = eco.take_delta();
        let report = inc.update(eco.netlist(), &t, &delta).unwrap();
        assert_matches_full(&inc, &eco, &t, &report);
        assert!(!inc.stats().structures_rebuilt);
    }

    #[test]
    fn journalless_delta_recompiles() {
        // A delta whose journal was stripped (a foreign delta source
        // that only reports touched nets) no longer explains the
        // netlist growth: the engine recompiles and re-annotates.
        let t = tech();
        let mut eco = EcoSession::new(two_chains(10));
        let (inc, _) = Sta::new(eco.netlist(), &t, cons()).into_incremental().unwrap();
        let mut inc = inc.with_max_cone_fraction(1.0);
        let net = eco.netlist().instance(inc.compiled().topo_order()[4]).output;
        eco.insert_buffer(net, Drive::X4).unwrap();
        let mut delta = eco.take_delta();
        delta.edits.clear();
        let report = inc.update(eco.netlist(), &t, &delta).unwrap();
        assert_matches_full(&inc, &eco, &t, &report);
        let s = *inc.stats();
        assert!(s.structures_rebuilt && s.used_full);

        // ... and the journal path resumes on the next edit.
        let victim = inc.compiled().topo_order()[2];
        eco.upsize(victim).unwrap();
        let delta = eco.take_delta();
        let report = inc.update(eco.netlist(), &t, &delta).unwrap();
        assert_matches_full(&inc, &eco, &t, &report);
        assert!(!inc.stats().structures_rebuilt);
    }

    #[test]
    fn failed_update_is_not_carried_into_the_next() {
        // Chains of 12 and 6 inverters at 1 GHz. The first delta buffers
        // the long chain and closes the short one into a loop; the
        // second undoes the loop. The second update must time the
        // buffered netlist exactly as a fresh analysis does.
        let t = tech();
        let c = Constraints::single_clock("clk", 1.0);
        let mut eco = EcoSession::new(chains(&[12, 6]));
        let (inc, _) = Sta::new(eco.netlist(), &t, c.clone()).into_incremental().unwrap();
        let mut inc = inc.with_max_cone_fraction(1.0);

        let nl = eco.netlist();
        let reader_of = |net: NetId| {
            nl.instances().find(|(_, i)| i.inputs.contains(&net)).map(|(id, _)| id).unwrap()
        };
        let long_q = nl.instance(nl.find_instance("u_src0").unwrap()).output;
        let short_q = nl.instance(nl.find_instance("u_src1").unwrap()).output;
        let short_head = reader_of(short_q);
        let short_tail = nl.instance(nl.find_instance("u_dst1").unwrap()).inputs[0];
        let long_mid = nl.instance(reader_of(long_q)).output;

        eco.insert_buffer(long_mid, Drive::X1).unwrap();
        eco.rewire(short_head, 0, short_tail).unwrap();
        let delta = eco.take_delta();
        let err = inc.update(eco.netlist(), &t, &delta).unwrap_err();
        assert_eq!(Err(err), Sta::new(eco.netlist(), &t, c.clone()).analyze());

        eco.rewire(short_head, 0, short_q).unwrap();
        let delta = eco.take_delta();
        let report = inc.update(eco.netlist(), &t, &delta).unwrap();
        assert_eq!(report, Sta::new(eco.netlist(), &t, c).analyze().unwrap());
        assert!(inc.stats().structures_rebuilt);
        assert_eq!(*inc.compiled(), eco.netlist().compile().unwrap());
    }
}
