//! Automatic test-pattern generation.
//!
//! Two classic phases:
//!
//! 1. **Random phase** — blocks of 64 random patterns are fault-simulated
//!    with fault dropping; lanes that detect at least one new fault are
//!    kept as test patterns. Random patterns typically reach the low-90 %
//!    coverage region quickly — exactly the neighbourhood the paper
//!    reports ("after scan insertion, the fault coverage was 93 %").
//! 2. **Deterministic phase** — a PODEM-style branch-and-bound search
//!    targets each remaining fault: backtrace an objective to an
//!    assignable source, imply by 3-valued simulation of the good and
//!    faulty machines, backtrack on conflict. Faults whose search space
//!    exhausts are *untestable* (redundant); faults that hit the
//!    backtrack budget are *aborted*. The search reads only the
//!    compiled snapshot of [`CombCircuit`]: a fault's cone of influence
//!    is its site's [`crate::fsim::ConeIndex`] cone plus that cone's
//!    combinational fanin, in `(level, id)` order.

use camsoc_netlist::cell::{CellFunction, MAX_CELL_INPUTS};
use camsoc_netlist::generate::SplitMix64;
use camsoc_netlist::graph::{InstanceId, NetId, Netlist};
use camsoc_netlist::NetlistError;
use camsoc_par::Parallelism;

use crate::faults::{FaultList, StuckAtFault};
use crate::fsim::{CombCircuit, FsimCounters, FsimMode, FsimStats};

/// 3-valued logic for the PODEM engine: 0, 1, unknown.
const V0: u8 = 0;
const V1: u8 = 1;
const VX: u8 = 2;

fn not3(a: u8) -> u8 {
    match a {
        V0 => V1,
        V1 => V0,
        _ => VX,
    }
}
fn and3(a: u8, b: u8) -> u8 {
    if a == V0 || b == V0 {
        V0
    } else if a == V1 && b == V1 {
        V1
    } else {
        VX
    }
}
fn or3(a: u8, b: u8) -> u8 {
    if a == V1 || b == V1 {
        V1
    } else if a == V0 && b == V0 {
        V0
    } else {
        VX
    }
}
fn xor3(a: u8, b: u8) -> u8 {
    if a == VX || b == VX {
        VX
    } else {
        a ^ b
    }
}

fn eval3(f: CellFunction, ins: &[u8]) -> u8 {
    match f {
        CellFunction::Buf => ins[0],
        CellFunction::Inv => not3(ins[0]),
        CellFunction::And2 => and3(ins[0], ins[1]),
        CellFunction::And3 => and3(and3(ins[0], ins[1]), ins[2]),
        CellFunction::Nand2 => not3(and3(ins[0], ins[1])),
        CellFunction::Nand3 => not3(and3(and3(ins[0], ins[1]), ins[2])),
        CellFunction::Nand4 => not3(and3(and3(ins[0], ins[1]), and3(ins[2], ins[3]))),
        CellFunction::Or2 => or3(ins[0], ins[1]),
        CellFunction::Or3 => or3(or3(ins[0], ins[1]), ins[2]),
        CellFunction::Nor2 => not3(or3(ins[0], ins[1])),
        CellFunction::Nor3 => not3(or3(or3(ins[0], ins[1]), ins[2])),
        CellFunction::Xor2 => xor3(ins[0], ins[1]),
        CellFunction::Xnor2 => not3(xor3(ins[0], ins[1])),
        CellFunction::Mux2 => match ins[2] {
            V0 => ins[0],
            V1 => ins[1],
            _ => {
                if ins[0] == ins[1] && ins[0] != VX {
                    ins[0]
                } else {
                    VX
                }
            }
        },
        CellFunction::Aoi21 => not3(or3(and3(ins[0], ins[1]), ins[2])),
        CellFunction::Oai21 => not3(and3(or3(ins[0], ins[1]), ins[2])),
        CellFunction::Maj3 => or3(
            or3(and3(ins[0], ins[1]), and3(ins[1], ins[2])),
            and3(ins[0], ins[2]),
        ),
        CellFunction::Tie0 => V0,
        CellFunction::Tie1 => V1,
        CellFunction::Dff
        | CellFunction::Dffr
        | CellFunction::Sdff
        | CellFunction::Sdffr
        | CellFunction::Latch => ins[0],
    }
}

/// ATPG configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AtpgConfig {
    /// PRNG seed.
    pub seed: u64,
    /// Maximum 64-pattern random blocks.
    pub max_random_blocks: usize,
    /// Stop the random phase after this many consecutive blocks without
    /// a new detection.
    pub stall_blocks: usize,
    /// PODEM backtrack budget per fault (0 disables the phase).
    pub podem_backtrack_limit: usize,
    /// Cap on faults attempted by PODEM (`None` = all remaining).
    pub podem_fault_cap: Option<usize>,
    /// Optional fault-universe sample size (`None` = full universe).
    pub fault_sample: Option<usize>,
    /// Thread budget for fault simulation (the fault universe is
    /// partitioned across threads; results merge deterministically, so
    /// coverage and patterns are bit-identical to `Serial`).
    pub parallelism: Parallelism,
    /// Fault-simulation engine: cone-cached (default) or the uncached
    /// reference. Results are bit-identical; only speed differs.
    pub fsim_mode: FsimMode,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            seed: 0xA7B6,
            max_random_blocks: 64,
            stall_blocks: 6,
            podem_backtrack_limit: 60,
            podem_fault_cap: None,
            fault_sample: None,
            parallelism: Parallelism::Serial,
            fsim_mode: FsimMode::Cached,
        }
    }
}

impl AtpgConfig {
    /// Deterministic effort escalation for supervised retries: level 0
    /// returns the config unchanged (bit-identical results); each level
    /// doubles the PODEM backtrack budget, adds 32 random blocks,
    /// tolerates two more stalled blocks before giving up on the random
    /// phase (more fault-dropping opportunity), and scales any PODEM
    /// fault cap. The escalated config is a pure function of
    /// `(self, level)`.
    pub fn escalated(&self, level: u32) -> AtpgConfig {
        if level == 0 {
            return self.clone();
        }
        AtpgConfig {
            podem_backtrack_limit: self
                .podem_backtrack_limit
                .saturating_mul(1usize << level.min(16)),
            max_random_blocks: self.max_random_blocks + 32 * level as usize,
            stall_blocks: self.stall_blocks + 2 * level as usize,
            podem_fault_cap: self
                .podem_fault_cap
                .map(|c| c.saturating_mul(1 + level as usize)),
            ..self.clone()
        }
    }
}

/// One stored test pattern: a value per circuit source.
pub type Pattern = Vec<bool>;

/// Outcome of an ATPG run.
///
/// Every fault lands in exactly one bucket:
/// `total_faults == detected + untestable + aborted + not_attempted`.
#[derive(Debug, Clone, PartialEq)]
pub struct AtpgResult {
    /// Faults in the (possibly sampled) target list.
    pub total_faults: usize,
    /// Faults detected by some pattern.
    pub detected: usize,
    /// Faults proven untestable (redundant logic).
    pub untestable: usize,
    /// Faults whose PODEM search actually ran and hit the backtrack
    /// budget (and were not later caught by fault dropping).
    pub aborted: usize,
    /// Faults PODEM never attempted: left over when `podem_fault_cap`
    /// was reached, or all random-phase survivors when
    /// `podem_backtrack_limit == 0` disables the deterministic phase.
    pub not_attempted: usize,
    /// Kept test patterns.
    pub patterns: Vec<Pattern>,
    /// Detections contributed by the random phase.
    pub random_detected: usize,
    /// Detections contributed by the deterministic phase.
    pub podem_detected: usize,
    /// Fault-simulation work counters (gate evals, early exits,
    /// container allocations) summed over both phases.
    pub fsim_stats: FsimStats,
}

impl AtpgResult {
    /// Fault coverage: detected / total.
    pub fn fault_coverage(&self) -> f64 {
        if self.total_faults == 0 {
            return 1.0;
        }
        self.detected as f64 / self.total_faults as f64
    }

    /// Test coverage: detected / (total − untestable).
    pub fn test_coverage(&self) -> f64 {
        let testable = self.total_faults.saturating_sub(self.untestable);
        if testable == 0 {
            return 1.0;
        }
        self.detected as f64 / testable as f64
    }
}

/// The ATPG engine.
pub struct Atpg<'a> {
    cc: CombCircuit<'a>,
    faults: FaultList,
    cfg: AtpgConfig,
}

impl<'a> Atpg<'a> {
    /// Prepare ATPG for a (scan-inserted) netlist.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError::CombinationalCycle`].
    pub fn new(nl: &'a Netlist, cfg: AtpgConfig) -> Result<Self, NetlistError> {
        let cc = CombCircuit::new(nl)?;
        let full = FaultList::generate(nl);
        let faults = match cfg.fault_sample {
            Some(n) => full.sample(n),
            None => full,
        };
        Ok(Atpg { cc, faults, cfg })
    }

    /// Run both phases and return the result.
    pub fn run(&self) -> AtpgResult {
        let mut rng = SplitMix64::new(self.cfg.seed);
        let nsrc = self.cc.sources.len();
        let counters = FsimCounters::default();
        let mut undetected: Vec<StuckAtFault> = self.faults.faults.clone();
        let mut patterns: Vec<Pattern> = Vec::new();
        let mut random_detected = 0usize;

        // ---- random phase ----
        let mut stall = 0usize;
        for _ in 0..self.cfg.max_random_blocks {
            if undetected.is_empty() || stall >= self.cfg.stall_blocks {
                break;
            }
            let assign: Vec<u64> = (0..nsrc).map(|_| rng.next_u64()).collect();
            let good = self.cc.good_sim(&assign);
            let before = undetected.len();
            // fault universe partitioned across threads; the per-fault
            // lanes are independent, and the drop + first-lane merge
            // below walks them in fault order, so the surviving list and
            // kept patterns are identical for every thread count
            let lanes_all = self.cc.detect_all_mode(
                &undetected,
                &good,
                self.cfg.parallelism,
                self.cfg.fsim_mode,
                &counters,
            );
            // each detected fault keeps its first detecting lane
            let lane_useful =
                lanes_all.iter().fold(0u64, |acc, &lanes| acc | (lanes & lanes.wrapping_neg()));
            keep_undetected(&mut undetected, &lanes_all);
            let newly = before - undetected.len();
            random_detected += newly;
            stall = if newly == 0 { stall + 1 } else { 0 };
            // keep the useful lanes as patterns
            let mut l = lane_useful;
            while l != 0 {
                let lane = l.trailing_zeros() as usize;
                l &= l - 1;
                patterns.push(assign.iter().map(|w| (w >> lane) & 1 == 1).collect());
            }
        }

        // ---- deterministic phase ----
        let mut untestable = 0usize;
        let mut podem_detected = 0usize;
        let mut aborted = 0usize;
        let not_attempted;
        if self.cfg.podem_backtrack_limit > 0 && !undetected.is_empty() {
            let cap = self.cfg.podem_fault_cap.unwrap_or(undetected.len());
            let mut remaining = std::mem::take(&mut undetected);
            // lockstep with `remaining`: has this fault's PODEM search
            // already aborted? (such a fault can still be rescued later
            // by fault dropping, so the flag travels with the fault)
            let mut was_aborted = vec![false; remaining.len()];
            let mut walk = ConeWalk::new(&self.cc);
            let mut i = 0usize;
            let mut attempted = 0usize;
            while i < remaining.len() && attempted < cap {
                let fault = remaining[i];
                attempted += 1;
                match self.podem(fault, &mut walk) {
                    PodemOutcome::Test(pattern) => {
                        podem_detected += 1;
                        remaining.swap_remove(i);
                        was_aborted.swap_remove(i);
                        // fault-drop the rest with this pattern
                        let assign: Vec<u64> = pattern
                            .iter()
                            .map(|&b| if b { !0u64 } else { 0u64 })
                            .collect();
                        let good = self.cc.good_sim(&assign);
                        let before = remaining.len();
                        let lanes_all = self.cc.detect_all_mode(
                            &remaining,
                            &good,
                            self.cfg.parallelism,
                            self.cfg.fsim_mode,
                            &counters,
                        );
                        keep_undetected(&mut remaining, &lanes_all);
                        keep_undetected(&mut was_aborted, &lanes_all);
                        podem_detected += before - remaining.len();
                        patterns.push(pattern);
                        // do not advance i: swap_remove replaced position i
                    }
                    PodemOutcome::Untestable => {
                        untestable += 1;
                        remaining.swap_remove(i);
                        was_aborted.swap_remove(i);
                    }
                    PodemOutcome::Aborted => {
                        was_aborted[i] = true;
                        i += 1;
                    }
                }
            }
            aborted = was_aborted.iter().filter(|&&b| b).count();
            not_attempted = remaining.len() - aborted;
        } else {
            not_attempted = undetected.len();
        }

        let total = self.faults.len();
        let detected = random_detected + podem_detected;
        debug_assert_eq!(total, detected + untestable + aborted + not_attempted);
        AtpgResult {
            total_faults: total,
            detected,
            untestable,
            aborted,
            not_attempted,
            patterns,
            random_detected,
            podem_detected,
            fsim_stats: counters.snapshot(),
        }
    }

    // ---- PODEM ----

    /// Compute the cone of instances relevant to a fault: the fanout
    /// cone of the fault site (from the shared [`crate::fsim::ConeIndex`])
    /// plus the transitive combinational fanin of everything in it,
    /// sorted by `(level, id)` — the snapshot's topological order
    /// restricted to the cone. PODEM then simulates only this region —
    /// the standard cone-of-influence optimisation that makes
    /// deterministic ATPG tractable on full-chip netlists.
    fn fault_cone(&self, fault: StuckAtFault, walk: &mut ConeWalk) -> Vec<u32> {
        let cn = &self.cc.compiled;
        let (seed_net, faulty_gate) = match fault {
            StuckAtFault::Net { net, .. } => (net, None),
            StuckAtFault::Pin { inst, .. } => {
                (cn.output(inst), Some(inst.0).filter(|_| !cn.is_sequential(inst)))
            }
        };
        let mut cone: Vec<u32> = self.cc.cones().cone(seed_net).to_vec();
        cone.extend(faulty_gate);
        let epoch = walk.next_epoch();
        // backward: transitive fanin of the forward region's inputs and
        // of the fault site itself
        walk.stack.clear();
        walk.stack.push(seed_net.0);
        for &g in &cone {
            walk.gate_seen[g as usize] = epoch;
            walk.stack.extend_from_slice(cn.fanin(InstanceId(g)));
        }
        while let Some(net) = walk.stack.pop() {
            let ni = net as usize;
            if walk.net_seen[ni] == epoch || self.cc.source_of_net[ni] != u32::MAX {
                continue;
            }
            walk.net_seen[ni] = epoch;
            if let Some(d) = cn.driver_instance(NetId(net)) {
                if !cn.is_sequential(d) && walk.gate_seen[d.index()] != epoch {
                    walk.gate_seen[d.index()] = epoch;
                    cone.push(d.0);
                    walk.stack.extend_from_slice(cn.fanin(d));
                }
            }
        }
        cone.sort_unstable_by_key(|&g| (cn.level(InstanceId(g)), g));
        cone
    }

    fn podem(&self, fault: StuckAtFault, walk: &mut ConeWalk) -> PodemOutcome {
        let nsrc = self.cc.sources.len();
        let cone = self.fault_cone(fault, walk);
        // every step rewrites the sources, the fault net and the cone
        // outputs; every other net stays X, so the buffers live per fault
        let mut good = vec![VX; self.cc.compiled.num_nets()];
        let mut faulty = good.clone();
        // decision stack: (source index, current value, tried both?)
        let mut stack: Vec<(usize, bool, bool)> = Vec::new();
        let mut assignment: Vec<u8> = vec![VX; nsrc];
        let mut backtracks = 0usize;

        loop {
            self.sim3(&assignment, fault, &cone, &mut good, &mut faulty);
            let decision = match self.analyze_state(fault, &good, &faulty, &cone) {
                State::Detected => {
                    let pattern =
                        assignment.iter().map(|&v| v == V1).collect::<Pattern>();
                    return PodemOutcome::Test(pattern);
                }
                State::Conflict => None,
                // no X path to a source is a conflict too
                State::Objective(net, want) => self.backtrace(net, want, &good, &assignment),
            };
            if let Some((src, val)) = decision {
                assignment[src] = bit3(val);
                stack.push((src, val, false));
                continue;
            }
            // backtrack: flip the most recent decision not yet tried both ways
            loop {
                match stack.pop() {
                    Some((src, val, tried_both)) => {
                        assignment[src] = VX;
                        if !tried_both {
                            backtracks += 1;
                            if backtracks > self.cfg.podem_backtrack_limit {
                                return PodemOutcome::Aborted;
                            }
                            assignment[src] = bit3(!val);
                            stack.push((src, !val, true));
                            break;
                        }
                    }
                    None => return PodemOutcome::Untestable,
                }
            }
        }
    }

    /// 3-valued simulation of good and faulty machines under a partial
    /// source assignment, restricted to the fault's cone of influence.
    fn sim3(
        &self,
        assignment: &[u8],
        fault: StuckAtFault,
        cone: &[u32],
        good: &mut [u8],
        faulty: &mut [u8],
    ) {
        let cn = &self.cc.compiled;
        for (&net, &v) in self.cc.sources.iter().zip(assignment) {
            good[net.index()] = v;
            faulty[net.index()] = v;
        }
        if let StuckAtFault::Net { net, stuck_one } = fault {
            faulty[net.index()] = bit3(stuck_one);
        }
        for &raw in cone {
            let id = InstanceId(raw);
            let fanin = cn.fanin(id);
            let mut gi = [VX; MAX_CELL_INPUTS];
            let mut fi = [VX; MAX_CELL_INPUTS];
            for (k, &n) in fanin.iter().enumerate() {
                gi[k] = good[n as usize];
                fi[k] = faulty[n as usize];
            }
            if let StuckAtFault::Pin { inst: fi_inst, pin, stuck_one } = fault {
                if fi_inst == id {
                    fi[pin] = bit3(stuck_one);
                }
            }
            let out = cn.output(id);
            let nin = fanin.len().clamp(1, MAX_CELL_INPUTS);
            good[out.index()] = eval3(cn.function(id), &gi[..nin]);
            faulty[out.index()] = match fault {
                StuckAtFault::Net { net, stuck_one } if net == out => bit3(stuck_one),
                _ => eval3(cn.function(id), &fi[..nin]),
            };
        }
    }

    fn analyze_state(
        &self,
        fault: StuckAtFault,
        good: &[u8],
        faulty: &[u8],
        cone: &[u32],
    ) -> State {
        let cn = &self.cc.compiled;
        let differs = |n: usize| good[n] != VX && faulty[n] != VX && good[n] != faulty[n];
        // detection: a sink where good and faulty are both binary and
        // differ — only the fault net and the cone outputs can
        let fault_net = match fault {
            StuckAtFault::Net { net, .. } => Some(net),
            StuckAtFault::Pin { .. } => None,
        };
        let mut touched =
            fault_net.into_iter().chain(cone.iter().map(|&g| cn.output(InstanceId(g))));
        if touched.any(|n| self.cc.is_sink[n.index()] && differs(n.index())) {
            return State::Detected;
        }
        // excitation
        let (site, stuck_one) = match fault {
            StuckAtFault::Net { net, stuck_one } => (net, stuck_one),
            StuckAtFault::Pin { inst, pin, stuck_one } => (NetId(cn.fanin(inst)[pin]), stuck_one),
        };
        let want_good = if stuck_one { V0 } else { V1 };
        let site_good = good[site.index()];
        if site_good == VX {
            return State::Objective(site, want_good == V1);
        }
        if site_good != want_good {
            return State::Conflict;
        }
        // fault excited; find the D-frontier: gates with a differing
        // binary input and an undetermined output difference
        for &raw in cone {
            let id = InstanceId(raw);
            let fanin = cn.fanin(id);
            let out = cn.output(id).index();
            if differs(out) {
                continue; // difference already past this gate
            }
            let has_diff_input = fanin.iter().any(|&n| differs(n as usize))
                || matches!(fault, StuckAtFault::Pin { inst: fi, .. } if fi == id);
            if !has_diff_input {
                continue;
            }
            if good[out] == VX || faulty[out] == VX {
                // objective: set an X side-input to the non-controlling value
                if let Some(&n) = fanin.iter().find(|&&n| good[n as usize] == VX) {
                    return State::Objective(NetId(n), non_controlling(cn.function(id)));
                }
            }
        }
        State::Conflict // no way to push the difference forward
    }

    /// Backtrace an objective `(net, want)` to an assignable source.
    fn backtrace(
        &self,
        mut net: NetId,
        mut want: bool,
        good: &[u8],
        assignment: &[u8],
    ) -> Option<(usize, bool)> {
        let cn = &self.cc.compiled;
        for _ in 0..200_000 {
            let src = self.cc.source_of_net[net.index()];
            if src != u32::MAX {
                if assignment[src as usize] == VX {
                    return Some((src as usize, want));
                }
                return None; // already assigned — cannot satisfy here
            }
            let driver = cn.driver_instance(net)?;
            let f = cn.function(driver);
            if f.is_tie() {
                return None;
            }
            // choose an X input to chase
            let x_input = cn.fanin(driver).iter().copied().find(|&n| good[n as usize] == VX)?;
            // AND-like: output 1 needs all inputs 1; OR-like: output 0
            // needs all inputs 0 — either way the same literal chases up,
            // through an inversion for inverting gates (XOR, MUX and MAJ
            // chase the literal as is)
            net = NetId(x_input);
            want ^= inverting(f);
        }
        None
    }
}

/// Per-run PODEM scratch: epoch stamps for the fault-cone walk,
/// allocated once per [`Atpg::run`] and reused by every fault.
struct ConeWalk {
    gate_seen: Vec<u32>,
    net_seen: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
}

impl ConeWalk {
    fn new(cc: &CombCircuit<'_>) -> ConeWalk {
        ConeWalk {
            gate_seen: vec![0; cc.compiled.num_instances()],
            net_seen: vec![0; cc.compiled.num_nets()],
            epoch: 0,
            stack: Vec::new(),
        }
    }

    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.gate_seen.fill(0);
            self.net_seen.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

enum State {
    Detected,
    Conflict,
    Objective(NetId, bool),
}

/// Outcome of a single PODEM search.
enum PodemOutcome {
    Test(Pattern),
    Untestable,
    Aborted,
}

/// Keep the entries of `items` (lockstep with `lanes`) whose fault no
/// pattern lane detected.
fn keep_undetected<T>(items: &mut Vec<T>, lanes: &[u64]) {
    let mut detected = lanes.iter().map(|&l| l != 0);
    items.retain(|_| detected.next() == Some(false));
}

/// The 3-valued constant for a binary value.
fn bit3(b: bool) -> u8 {
    if b {
        V1
    } else {
        V0
    }
}

/// Does the gate invert (backtrace parity)?
fn inverting(f: CellFunction) -> bool {
    use CellFunction::*;
    matches!(f, Inv | Nand2 | Nand3 | Nand4 | Nor2 | Nor3 | Aoi21 | Oai21)
}

/// The non-controlling input value of a gate (used to sensitise paths):
/// 0 for OR-like gates, 1 for everything else.
fn non_controlling(f: CellFunction) -> bool {
    use CellFunction::*;
    !matches!(f, Or2 | Or3 | Nor2 | Nor3 | Oai21)
}

#[cfg(test)]
mod tests {
    use super::*;
    use camsoc_netlist::builder::NetlistBuilder;
    use camsoc_netlist::generate;

    #[test]
    fn eval3_tables() {
        assert_eq!(and3(V0, VX), V0);
        assert_eq!(and3(V1, VX), VX);
        assert_eq!(or3(V1, VX), V1);
        assert_eq!(or3(V0, VX), VX);
        assert_eq!(xor3(V1, VX), VX);
        assert_eq!(not3(VX), VX);
        assert_eq!(eval3(CellFunction::Mux2, &[V1, V1, VX]), V1);
        assert_eq!(eval3(CellFunction::Tie1, &[VX]), V1);
    }

    #[test]
    fn full_coverage_on_small_adder() {
        let nl = generate::ripple_adder(4).unwrap();
        let result = Atpg::new(&nl, AtpgConfig::default()).unwrap().run();
        // a small adder has no redundancy: everything detected
        assert_eq!(result.detected, result.total_faults, "aborted={}", result.aborted);
        assert_eq!(result.fault_coverage(), 1.0);
        assert!(!result.patterns.is_empty());
    }

    #[test]
    fn redundant_fault_is_untestable_not_aborted() {
        // y = a AND 1 : tie net SA1 is redundant
        let mut b = NetlistBuilder::new("r");
        let a = b.input("a");
        let one = b.tie(true);
        let y = b.gate_auto(CellFunction::And2, &[a, one]);
        b.output("y", y);
        let nl = b.finish();
        let cfg = AtpgConfig { max_random_blocks: 2, ..AtpgConfig::default() };
        let result = Atpg::new(&nl, cfg).unwrap().run();
        assert!(result.untestable >= 1, "untestable={}", result.untestable);
        assert!(result.test_coverage() >= result.fault_coverage());
    }

    #[test]
    fn podem_finds_what_random_misses() {
        // A wide AND tree: the output SA0 needs all-ones — a 2^-16 random
        // shot per pattern. Random-only misses it at tiny budgets; PODEM
        // nails it.
        let mut b = NetlistBuilder::new("wide");
        let ins = b.input_bus("a", 16);
        let mut layer = ins;
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|p| {
                    if p.len() == 2 {
                        b.gate_auto(CellFunction::And2, &[p[0], p[1]])
                    } else {
                        p[0]
                    }
                })
                .collect();
        }
        b.output("y", layer[0]);
        let nl = b.finish();

        let no_podem = AtpgConfig {
            max_random_blocks: 1,
            stall_blocks: 1,
            podem_backtrack_limit: 0,
            ..AtpgConfig::default()
        };
        let r1 = Atpg::new(&nl, no_podem).unwrap().run();
        assert!(r1.detected < r1.total_faults);

        let with_podem = AtpgConfig {
            max_random_blocks: 1,
            stall_blocks: 1,
            ..AtpgConfig::default()
        };
        let r2 = Atpg::new(&nl, with_podem).unwrap().run();
        assert!(r2.detected > r1.detected);
        assert_eq!(r2.detected, r2.total_faults, "aborted={}", r2.aborted);
        assert!(r2.podem_detected > 0);
    }

    #[test]
    fn scan_inserted_fsm_reaches_high_coverage() {
        let nl = generate::fsm(8, 4, 4, 77);
        let (scanned, _) =
            crate::scan::insert_scan(nl, &crate::scan::ScanConfig::default()).unwrap();
        let result = Atpg::new(&scanned, AtpgConfig::default()).unwrap().run();
        assert!(
            result.fault_coverage() > 0.85,
            "coverage {:.3} (detected {}/{})",
            result.fault_coverage(),
            result.detected,
            result.total_faults
        );
    }

    #[test]
    fn coverage_of_empty_list_is_one() {
        let r = AtpgResult {
            total_faults: 0,
            detected: 0,
            untestable: 0,
            aborted: 0,
            not_attempted: 0,
            patterns: vec![],
            random_detected: 0,
            podem_detected: 0,
            fsim_stats: FsimStats::default(),
        };
        assert_eq!(r.fault_coverage(), 1.0);
        assert_eq!(r.test_coverage(), 1.0);
    }

    #[test]
    fn disabled_podem_reports_not_attempted_not_aborted() {
        // one tiny random block leaves survivors; with the deterministic
        // phase disabled none of them was ever attempted, so none may be
        // reported as "aborted"
        let nl = generate::fsm(8, 4, 4, 5);
        let cfg = AtpgConfig {
            max_random_blocks: 1,
            stall_blocks: 1,
            podem_backtrack_limit: 0,
            ..AtpgConfig::default()
        };
        let r = Atpg::new(&nl, cfg).unwrap().run();
        assert!(r.detected < r.total_faults, "need survivors for this test");
        assert_eq!(r.aborted, 0);
        assert_eq!(
            r.not_attempted,
            r.total_faults - r.detected - r.untestable
        );
        assert_eq!(
            r.total_faults,
            r.detected + r.untestable + r.aborted + r.not_attempted
        );
    }

    #[test]
    fn fault_cap_leftovers_are_not_attempted() {
        let nl = generate::fsm(8, 4, 4, 5);
        let cfg = AtpgConfig {
            max_random_blocks: 1,
            stall_blocks: 1,
            podem_fault_cap: Some(1),
            ..AtpgConfig::default()
        };
        let r = Atpg::new(&nl, cfg).unwrap().run();
        // at most one fault was attempted, so at most one can be aborted
        assert!(r.aborted <= 1, "aborted = {}", r.aborted);
        assert_eq!(
            r.total_faults,
            r.detected + r.untestable + r.aborted + r.not_attempted
        );
    }

    #[test]
    fn atpg_counts_fsim_work() {
        let nl = generate::ripple_adder(8).unwrap();
        let cached = Atpg::new(&nl, AtpgConfig::default()).unwrap().run();
        let uncached = Atpg::new(
            &nl,
            AtpgConfig { fsim_mode: FsimMode::Uncached, ..AtpgConfig::default() },
        )
        .unwrap()
        .run();
        assert_eq!(cached.detected, uncached.detected);
        assert_eq!(cached.patterns, uncached.patterns);
        assert!(cached.fsim_stats.faults_simulated > 0);
        assert_eq!(
            cached.fsim_stats.faults_simulated,
            uncached.fsim_stats.faults_simulated
        );
        assert!(
            cached.fsim_stats.gate_evals < uncached.fsim_stats.gate_evals,
            "cached {} evals vs uncached {}",
            cached.fsim_stats.gate_evals,
            uncached.fsim_stats.gate_evals
        );
        assert!(cached.fsim_stats.allocations < uncached.fsim_stats.allocations);
    }

    #[test]
    fn sampling_reduces_fault_count() {
        let nl = generate::ripple_adder(8).unwrap();
        let cfg = AtpgConfig { fault_sample: Some(20), ..AtpgConfig::default() };
        let r = Atpg::new(&nl, cfg).unwrap().run();
        assert_eq!(r.total_faults, 20);
    }
}
