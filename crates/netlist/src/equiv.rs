//! Combinational equivalence checking.
//!
//! The paper's sign-off flow runs formal verification after physical
//! synthesis and after every ECO. This module reproduces that check for
//! our netlist IR with the classic structure:
//!
//! 1. **Interface matching** — sequential elements cut the design into a
//!    combinational core; inputs are primary inputs, flop Q pins and
//!    macro outputs, outputs are primary outputs, flop data pins and
//!    macro inputs, matched by name between the two netlists.
//! 2. **Random simulation** — 64-bit parallel random vectors look for a
//!    cheap counterexample first.
//! 3. **Exact cone check** — each output cone with bounded support is
//!    proven equivalent with a small BDD package (shared manager, same
//!    variable order); cones whose support exceeds the cap keep the
//!    random-simulation verdict.

use std::collections::{BTreeMap, HashMap, HashSet};

use camsoc_par::Parallelism;

use crate::cell::{CellFunction, MAX_CELL_INPUTS};
use crate::compiled::CompiledNetlist;
use crate::error::NetlistError;
use crate::generate::SplitMix64;
use crate::graph::{NetDriver, NetId, Netlist};

/// A combinational source point (pseudo-primary input).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SourceKey {
    /// Primary input port, by name.
    Port(String),
    /// Flip-flop or latch output, by instance name.
    StateQ(String),
    /// Memory macro output pin, by macro name and pin index.
    MacroOut(String, usize),
}

/// A combinational sink point (pseudo-primary output).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SinkKey {
    /// Primary output port, by name.
    Port(String),
    /// Flip-flop or latch data-side input pin, by instance name and pin.
    StateD(String, usize),
    /// Memory macro input pin, by macro name and pin index.
    MacroIn(String, usize),
}

/// The combinational view of a netlist: sources, sinks and a compiled
/// SoA snapshot (whose topological order drives evaluation), ready for
/// bit-parallel simulation.
#[derive(Debug)]
pub struct CombModel<'a> {
    nl: &'a Netlist,
    compiled: CompiledNetlist,
    /// Dense net → source-variable index (`u32::MAX` = not a source),
    /// in [`CombModel::sources`] iteration order.
    source_of_net: Vec<u32>,
    /// source key → net
    pub sources: BTreeMap<SourceKey, NetId>,
    /// sink key → net
    pub sinks: BTreeMap<SinkKey, NetId>,
}

impl<'a> CombModel<'a> {
    /// Build the combinational view.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError::CombinationalCycle`].
    pub fn new(nl: &'a Netlist) -> Result<Self, NetlistError> {
        let compiled = nl.compile()?;
        let mut sources = BTreeMap::new();
        let mut sinks = BTreeMap::new();
        for (_, port) in nl.input_ports() {
            sources.insert(SourceKey::Port(port.name.clone()), port.net);
        }
        for (_, port) in nl.output_ports() {
            sinks.insert(SinkKey::Port(port.name.clone()), port.net);
        }
        for (_, inst) in nl.instances() {
            if inst.function().is_sequential() {
                sources.insert(SourceKey::StateQ(inst.name.clone()), inst.output);
                for (pin, &net) in inst.inputs.iter().enumerate() {
                    sinks.insert(SinkKey::StateD(inst.name.clone(), pin), net);
                }
            }
        }
        for (_, m) in nl.macros() {
            for (pin, &net) in m.outputs.iter().enumerate() {
                sources.insert(SourceKey::MacroOut(m.name.clone(), pin), net);
            }
            for (pin, &net) in m.inputs.iter().enumerate() {
                sinks.insert(SinkKey::MacroIn(m.name.clone(), pin), net);
            }
        }
        let mut source_of_net = vec![u32::MAX; nl.num_nets()];
        for (i, &net) in sources.values().enumerate() {
            source_of_net[net.index()] = i as u32;
        }
        Ok(CombModel { nl, compiled, source_of_net, sources, sinks })
    }

    /// Evaluate the combinational core bit-parallel, walking the
    /// compiled SoA snapshot's flat arrays.
    ///
    /// `assign` gives a 64-lane value per source (in the iteration order
    /// of [`CombModel::sources`]). Returns one value per net; unassigned,
    /// undriven nets evaluate to 0. Bit-identical to
    /// [`CombModel::eval_graph`].
    pub fn eval(&self, assign: &[u64]) -> Vec<u64> {
        debug_assert_eq!(assign.len(), self.sources.len());
        let mut values = vec![0u64; self.compiled.num_nets()];
        for (value, (_, &net)) in assign.iter().zip(self.sources.iter()) {
            values[net.index()] = *value;
        }
        self.compiled.eval_lanes(&mut values);
        values
    }

    /// The graph-walking reference evaluator: same contract and results
    /// as [`CombModel::eval`], reading `Instance`/`Net` structs through
    /// pointers instead of the compiled arrays. Kept as the engine the
    /// compiled path is validated and benchmarked against.
    pub fn eval_graph(&self, assign: &[u64]) -> Vec<u64> {
        debug_assert_eq!(assign.len(), self.sources.len());
        let mut values = vec![0u64; self.nl.num_nets()];
        for (value, (_, &net)) in assign.iter().zip(self.sources.iter()) {
            values[net.index()] = *value;
        }
        for &id in self.compiled.topo_order() {
            let inst = self.nl.instance(id);
            let mut ins = [0u64; MAX_CELL_INPUTS];
            for (k, &n) in inst.inputs.iter().enumerate() {
                ins[k] = values[n.index()];
            }
            values[inst.output.index()] = inst.function().eval(&ins[..inst.inputs.len()]);
        }
        values
    }

    /// Sink values extracted from a full net-value vector, in
    /// [`CombModel::sinks`] iteration order.
    pub fn sink_values(&self, values: &[u64]) -> Vec<u64> {
        self.sinks.values().map(|&n| values[n.index()]).collect()
    }

    /// Transitive-fanin support (as sorted source indices) of a sink
    /// net, walking the compiled CSR fanin rows with a dense visited
    /// bitmap and the precomputed net→source table — no hashing in the
    /// loop. Bit-identical to [`CombModel::cone_support_graph`].
    pub fn cone_support(&self, sink_net: NetId) -> Vec<usize> {
        self.cone_support_scratch(sink_net, &mut ConeScratch::default())
    }

    /// [`CombModel::cone_support`] with a caller-owned [`ConeScratch`]:
    /// repeated walks (one per sink in the exact-cone phase) reuse one
    /// epoch-stamped visited array instead of zeroing a fresh
    /// `num_nets`-sized bitmap per sink, so the per-sink cost is O(cone)
    /// rather than O(nets). Same result as [`CombModel::cone_support`].
    pub fn cone_support_scratch(
        &self,
        sink_net: NetId,
        scratch: &mut ConeScratch,
    ) -> Vec<usize> {
        let cn = &self.compiled;
        if scratch.stamp.len() < cn.num_nets() {
            scratch.stamp.resize(cn.num_nets(), 0);
        }
        scratch.epoch = match scratch.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                scratch.stamp.fill(0);
                1
            }
        };
        let epoch = scratch.epoch;
        let mut support = Vec::new();
        let mut stack = vec![sink_net];
        while let Some(net) = stack.pop() {
            let i = net.index();
            if scratch.stamp[i] == epoch {
                continue;
            }
            scratch.stamp[i] = epoch;
            let si = self.source_of_net[i];
            if si != u32::MAX {
                support.push(si as usize);
                continue;
            }
            // ports/macros are sources; undriven → constant 0
            if let Some(id) = cn.driver_instance(net) {
                if cn.is_sequential(id) {
                    // its Q is a source; handled above via source_of_net
                    continue;
                }
                for &input in cn.fanin(id) {
                    stack.push(NetId(input));
                }
            }
        }
        support.sort_unstable();
        support
    }

    /// The graph-walking reference for [`CombModel::cone_support`]:
    /// per-call hash maps and a DFS through `Net`/`Instance` structs.
    /// Same sorted result.
    pub fn cone_support_graph(&self, sink_net: NetId) -> Vec<usize> {
        let source_index: HashMap<NetId, usize> =
            self.sources.values().enumerate().map(|(i, &n)| (n, i)).collect();
        let mut support = HashSet::new();
        let mut seen = HashSet::new();
        let mut stack = vec![sink_net];
        while let Some(net) = stack.pop() {
            if !seen.insert(net) {
                continue;
            }
            if let Some(&si) = source_index.get(&net) {
                support.insert(si);
                continue;
            }
            // ports/macros are sources; undriven → constant 0
            if let Some(NetDriver::Instance(id)) = self.nl.net(net).driver {
                let inst = self.nl.instance(id);
                if inst.function().is_sequential() {
                    // its Q is a source; handled above via source_index
                    continue;
                }
                for &i in &inst.inputs {
                    stack.push(i);
                }
            }
        }
        let mut v: Vec<usize> = support.into_iter().collect();
        v.sort_unstable();
        v
    }
}

/// Reusable visited-stamp buffer for
/// [`CombModel::cone_support_scratch`]. One instance per worker thread
/// amortises the `num_nets`-sized allocation across every sink that
/// thread proves; the epoch counter makes clearing O(1) per walk.
#[derive(Debug, Default)]
pub struct ConeScratch {
    stamp: Vec<u32>,
    epoch: u32,
}

impl ConeScratch {
    /// Fresh scratch; buffers grow to the model's net count on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

// ---------------------------------------------------------------------
// BDD package
// ---------------------------------------------------------------------

/// Terminal and node handles into a [`Bdd`] manager. 0 = FALSE, 1 = TRUE.
pub type BddRef = u32;

/// Error from BDD construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BddOverflow;

impl std::fmt::Display for BddOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("bdd node limit exceeded")
    }
}
impl std::error::Error for BddOverflow {}

/// A small reduced-ordered-BDD manager with hash-consing and an ITE
/// cache, capped at a node limit so pathological cones degrade to the
/// random-simulation verdict instead of exploding.
#[derive(Debug)]
pub struct Bdd {
    // nodes[i] = (var, lo, hi); nodes 0/1 are terminals (var = u32::MAX)
    nodes: Vec<(u32, BddRef, BddRef)>,
    unique: HashMap<(u32, BddRef, BddRef), BddRef>,
    ite_cache: HashMap<(BddRef, BddRef, BddRef), BddRef>,
    limit: usize,
}

impl Bdd {
    /// FALSE terminal.
    pub const ZERO: BddRef = 0;
    /// TRUE terminal.
    pub const ONE: BddRef = 1;

    /// Create a manager with the given node limit.
    pub fn new(limit: usize) -> Self {
        Bdd {
            nodes: vec![(u32::MAX, 0, 0), (u32::MAX, 1, 1)],
            unique: HashMap::new(),
            ite_cache: HashMap::new(),
            limit,
        }
    }

    /// Number of live nodes (including terminals).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn var_of(&self, f: BddRef) -> u32 {
        self.nodes[f as usize].0
    }

    fn mk(&mut self, var: u32, lo: BddRef, hi: BddRef) -> Result<BddRef, BddOverflow> {
        if lo == hi {
            return Ok(lo);
        }
        if let Some(&n) = self.unique.get(&(var, lo, hi)) {
            return Ok(n);
        }
        if self.nodes.len() >= self.limit {
            return Err(BddOverflow);
        }
        let id = self.nodes.len() as BddRef;
        self.nodes.push((var, lo, hi));
        self.unique.insert((var, lo, hi), id);
        Ok(id)
    }

    /// The function of a single variable.
    pub fn var(&mut self, v: u32) -> Result<BddRef, BddOverflow> {
        self.mk(v, Bdd::ZERO, Bdd::ONE)
    }

    fn cofactor(&self, f: BddRef, v: u32, phase: bool) -> BddRef {
        let (var, lo, hi) = self.nodes[f as usize];
        if var == v {
            if phase {
                hi
            } else {
                lo
            }
        } else {
            f
        }
    }

    /// If-then-else: `ite(f, g, h) = f·g + !f·h`. The workhorse.
    pub fn ite(&mut self, f: BddRef, g: BddRef, h: BddRef) -> Result<BddRef, BddOverflow> {
        // terminal cases
        if f == Bdd::ONE {
            return Ok(g);
        }
        if f == Bdd::ZERO {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        if g == Bdd::ONE && h == Bdd::ZERO {
            return Ok(f);
        }
        if let Some(&r) = self.ite_cache.get(&(f, g, h)) {
            return Ok(r);
        }
        // top variable among the three
        let mut top = self.var_of(f);
        for x in [g, h] {
            let v = self.var_of(x);
            if v < top {
                top = v;
            }
        }
        let f0 = self.cofactor(f, top, false);
        let f1 = self.cofactor(f, top, true);
        let g0 = self.cofactor(g, top, false);
        let g1 = self.cofactor(g, top, true);
        let h0 = self.cofactor(h, top, false);
        let h1 = self.cofactor(h, top, true);
        let lo = self.ite(f0, g0, h0)?;
        let hi = self.ite(f1, g1, h1)?;
        let r = self.mk(top, lo, hi)?;
        self.ite_cache.insert((f, g, h), r);
        Ok(r)
    }

    /// Negation.
    pub fn not(&mut self, f: BddRef) -> Result<BddRef, BddOverflow> {
        self.ite(f, Bdd::ZERO, Bdd::ONE)
    }
    /// Conjunction.
    pub fn and(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, BddOverflow> {
        self.ite(f, g, Bdd::ZERO)
    }
    /// Disjunction.
    pub fn or(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, BddOverflow> {
        self.ite(f, Bdd::ONE, g)
    }
    /// Exclusive or.
    pub fn xor(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, BddOverflow> {
        let ng = self.not(g)?;
        self.ite(f, ng, g)
    }

    /// Evaluate a cell function over BDD operands.
    pub fn eval_function(
        &mut self,
        f: CellFunction,
        ins: &[BddRef],
    ) -> Result<BddRef, BddOverflow> {
        Ok(match f {
            CellFunction::Buf => ins[0],
            CellFunction::Inv => self.not(ins[0])?,
            CellFunction::And2 => self.and(ins[0], ins[1])?,
            CellFunction::And3 => {
                let t = self.and(ins[0], ins[1])?;
                self.and(t, ins[2])?
            }
            CellFunction::Nand2 => {
                let t = self.and(ins[0], ins[1])?;
                self.not(t)?
            }
            CellFunction::Nand3 => {
                let t = self.and(ins[0], ins[1])?;
                let t = self.and(t, ins[2])?;
                self.not(t)?
            }
            CellFunction::Nand4 => {
                let t = self.and(ins[0], ins[1])?;
                let t = self.and(t, ins[2])?;
                let t = self.and(t, ins[3])?;
                self.not(t)?
            }
            CellFunction::Or2 => self.or(ins[0], ins[1])?,
            CellFunction::Or3 => {
                let t = self.or(ins[0], ins[1])?;
                self.or(t, ins[2])?
            }
            CellFunction::Nor2 => {
                let t = self.or(ins[0], ins[1])?;
                self.not(t)?
            }
            CellFunction::Nor3 => {
                let t = self.or(ins[0], ins[1])?;
                let t = self.or(t, ins[2])?;
                self.not(t)?
            }
            CellFunction::Xor2 => self.xor(ins[0], ins[1])?,
            CellFunction::Xnor2 => {
                let t = self.xor(ins[0], ins[1])?;
                self.not(t)?
            }
            CellFunction::Mux2 => self.ite(ins[2], ins[1], ins[0])?,
            CellFunction::Aoi21 => {
                let t = self.and(ins[0], ins[1])?;
                let t = self.or(t, ins[2])?;
                self.not(t)?
            }
            CellFunction::Oai21 => {
                let t = self.or(ins[0], ins[1])?;
                let t = self.and(t, ins[2])?;
                self.not(t)?
            }
            CellFunction::Maj3 => {
                let ab = self.and(ins[0], ins[1])?;
                let bc = self.and(ins[1], ins[2])?;
                let ac = self.and(ins[0], ins[2])?;
                let t = self.or(ab, bc)?;
                self.or(t, ac)?
            }
            CellFunction::Tie0 => Bdd::ZERO,
            CellFunction::Tie1 => Bdd::ONE,
            CellFunction::Dff
            | CellFunction::Dffr
            | CellFunction::Sdff
            | CellFunction::Sdffr
            | CellFunction::Latch => ins[0],
        })
    }
}

// ---------------------------------------------------------------------
// Equivalence checking
// ---------------------------------------------------------------------

/// Options for [`check_equivalence`].
#[derive(Debug, Clone, PartialEq)]
pub struct EquivOptions {
    /// Rounds of 64-lane random vectors in the simulation phase.
    pub random_rounds: usize,
    /// Maximum cone support for the exact BDD phase; larger cones keep
    /// the random verdict.
    pub max_support: usize,
    /// BDD node limit per manager.
    pub bdd_node_limit: usize,
    /// PRNG seed.
    pub seed: u64,
    /// Thread budget: random-vector rounds and per-sink cone proofs are
    /// partitioned across threads. The verdict, counter-example sink and
    /// all report counters are bit-identical to `Serial` (the first
    /// mismatch in round/sink order always wins).
    pub parallelism: Parallelism,
}

impl Default for EquivOptions {
    fn default() -> Self {
        EquivOptions {
            random_rounds: 32,
            max_support: 24,
            bdd_node_limit: 200_000,
            seed: 0xEC0,
            parallelism: Parallelism::Serial,
        }
    }
}

impl EquivOptions {
    /// Deterministic effort escalation for supervised retries: level 0
    /// returns the options unchanged (bit-identical results); each
    /// level adds 16 random-vector rounds, admits cones with 4 more
    /// support variables into the exact BDD phase, and doubles the BDD
    /// node budget. The escalated options are a pure function of
    /// `(self, level)`.
    pub fn escalated(&self, level: u32) -> EquivOptions {
        if level == 0 {
            return self.clone();
        }
        EquivOptions {
            random_rounds: self.random_rounds + 16 * level as usize,
            max_support: self.max_support + 4 * level as usize,
            bdd_node_limit: self.bdd_node_limit.saturating_mul(1usize << level.min(16)),
            ..self.clone()
        }
    }
}

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivVerdict {
    /// All compared cones proven equivalent exactly.
    Equivalent,
    /// No counterexample found; `unproven_cones` were too large for the
    /// exact phase and hold only to random-vector confidence.
    ProbablyEquivalent {
        /// Number of cones that exceeded the support/node caps.
        unproven_cones: usize,
    },
    /// A differing sink was found.
    NotEquivalent {
        /// The sink point that differs.
        sink: SinkKey,
    },
    /// The two netlists do not expose the same interface.
    InterfaceMismatch {
        /// Description of the first mismatch found.
        detail: String,
    },
}

/// Full report from [`check_equivalence`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivReport {
    /// The verdict.
    pub verdict: EquivVerdict,
    /// Sinks compared.
    pub sinks_compared: usize,
    /// Cones proven exactly by the BDD phase.
    pub cones_proven: usize,
    /// Random vector lanes applied.
    pub vectors_applied: usize,
}

impl EquivReport {
    /// Convenience: true when the verdict is `Equivalent` or
    /// `ProbablyEquivalent`.
    pub fn passed(&self) -> bool {
        matches!(
            self.verdict,
            EquivVerdict::Equivalent | EquivVerdict::ProbablyEquivalent { .. }
        )
    }
}

/// Check combinational equivalence of two netlists.
///
/// Interfaces (ports, state elements, macros) are matched by name; see
/// the module docs for the method.
///
/// # Errors
///
/// Propagates [`NetlistError::CombinationalCycle`] from either netlist.
pub fn check_equivalence(
    a: &Netlist,
    b: &Netlist,
    options: &EquivOptions,
) -> Result<EquivReport, NetlistError> {
    let ma = CombModel::new(a)?;
    let mb = CombModel::new(b)?;

    // Interface match: sources must be identical; sinks must be identical.
    if ma.sources.keys().ne(mb.sources.keys()) {
        let only_a: Vec<_> = ma.sources.keys().filter(|k| !mb.sources.contains_key(*k)).collect();
        let only_b: Vec<_> = mb.sources.keys().filter(|k| !ma.sources.contains_key(*k)).collect();
        return Ok(EquivReport {
            verdict: EquivVerdict::InterfaceMismatch {
                detail: format!("source sets differ (a-only {only_a:?}, b-only {only_b:?})"),
            },
            sinks_compared: 0,
            cones_proven: 0,
            vectors_applied: 0,
        });
    }
    if ma.sinks.keys().ne(mb.sinks.keys()) {
        let only_a: Vec<_> = ma.sinks.keys().filter(|k| !mb.sinks.contains_key(*k)).collect();
        let only_b: Vec<_> = mb.sinks.keys().filter(|k| !ma.sinks.contains_key(*k)).collect();
        return Ok(EquivReport {
            verdict: EquivVerdict::InterfaceMismatch {
                detail: format!("sink sets differ (a-only {only_a:?}, b-only {only_b:?})"),
            },
            sinks_compared: 0,
            cones_proven: 0,
            vectors_applied: 0,
        });
    }

    let nsrc = ma.sources.len();
    let nsink = ma.sinks.len();
    let sink_keys: Vec<SinkKey> = ma.sinks.keys().cloned().collect();

    // Phase 1: random simulation. The per-round source assignments are
    // drawn serially from the seed (so the stream is identical for every
    // thread count), then the rounds — each a pure function of its
    // assignment — are evaluated in parallel. The winning mismatch is
    // always the lowest (round, sink) pair, exactly the serial early
    // exit.
    let mut rng = SplitMix64::new(options.seed);
    let assigns: Vec<Vec<u64>> = (0..options.random_rounds)
        .map(|_| (0..nsrc).map(|_| rng.next_u64()).collect())
        .collect();
    let mismatch = camsoc_par::find_first(options.parallelism, assigns.len(), |round| {
        let va = ma.eval(&assigns[round]);
        let vb = mb.eval(&assigns[round]);
        let sa = ma.sink_values(&va);
        let sb = mb.sink_values(&vb);
        (0..nsink).find(|&i| sa[i] != sb[i])
    });
    if let Some((round, sink)) = mismatch {
        return Ok(EquivReport {
            verdict: EquivVerdict::NotEquivalent { sink: sink_keys[sink].clone() },
            sinks_compared: nsink,
            cones_proven: 0,
            vectors_applied: 64 * (round + 1),
        });
    }
    let vectors = 64 * options.random_rounds;

    // Phase 2: exact cone proofs for bounded-support cones, one
    // independent BDD manager per sink so the proofs parallelize without
    // sharing. Outcomes merge in sink order: the first mismatching sink
    // wins and `cones_proven` counts only the sinks before it, matching
    // the serial loop bit-for-bit.
    enum ConeOutcome {
        Proven,
        Unproven,
        Mismatch,
    }
    // Source index → net, precomputed once per model: the per-cone BDD
    // build maps its ≤ max_support variables straight through this table
    // instead of re-scanning the full source map for every sink.
    let src_nets_a: Vec<NetId> = ma.sources.values().copied().collect();
    let src_nets_b: Vec<NetId> = mb.sources.values().copied().collect();
    let outcomes = camsoc_par::map(options.parallelism, &sink_keys, |key| {
        // one visited-stamp buffer per worker thread: support walks cost
        // O(cone), not O(nets), per sink
        thread_local! {
            static SCRATCH: std::cell::RefCell<ConeScratch> =
                std::cell::RefCell::new(ConeScratch::new());
        }
        let net_a = ma.sinks[key];
        let net_b = mb.sinks[key];
        let (sup_a, sup_b) = SCRATCH.with(|s| {
            let scratch = &mut *s.borrow_mut();
            (
                ma.cone_support_scratch(net_a, scratch),
                mb.cone_support_scratch(net_b, scratch),
            )
        });
        // union support under same variable indices (source order shared)
        let union: Vec<usize> = {
            let mut s: Vec<usize> = sup_a.iter().chain(sup_b.iter()).copied().collect();
            s.sort_unstable();
            s.dedup();
            s
        };
        if union.len() > options.max_support {
            return ConeOutcome::Unproven;
        }
        let var_of_source: HashMap<usize, u32> =
            union.iter().enumerate().map(|(v, &s)| (s, v as u32)).collect();
        let mut mgr = Bdd::new(options.bdd_node_limit);
        match (
            build_cone_bdd(&ma, &src_nets_a, net_a, &var_of_source, &mut mgr),
            build_cone_bdd(&mb, &src_nets_b, net_b, &var_of_source, &mut mgr),
        ) {
            (Ok(fa), Ok(fb)) => {
                if fa != fb {
                    ConeOutcome::Mismatch
                } else {
                    ConeOutcome::Proven
                }
            }
            _ => ConeOutcome::Unproven,
        }
    });
    let mut proven = 0usize;
    let mut unproven = 0usize;
    for (key, outcome) in sink_keys.iter().zip(&outcomes) {
        match outcome {
            ConeOutcome::Proven => proven += 1,
            ConeOutcome::Unproven => unproven += 1,
            ConeOutcome::Mismatch => {
                return Ok(EquivReport {
                    verdict: EquivVerdict::NotEquivalent { sink: key.clone() },
                    sinks_compared: nsink,
                    cones_proven: proven,
                    vectors_applied: vectors,
                });
            }
        }
    }

    let verdict = if unproven == 0 {
        EquivVerdict::Equivalent
    } else {
        EquivVerdict::ProbablyEquivalent { unproven_cones: unproven }
    };
    Ok(EquivReport { verdict, sinks_compared: nsink, cones_proven: proven, vectors_applied: vectors })
}

/// Build the BDD of the cone rooted at `net` in terms of the shared
/// source-variable mapping.
fn build_cone_bdd(
    model: &CombModel<'_>,
    src_nets: &[NetId],
    net: NetId,
    var_of_source: &HashMap<usize, u32>,
    mgr: &mut Bdd,
) -> Result<BddRef, BddOverflow> {
    // source net → variable index, straight through the precomputed
    // index→net table: O(support), not O(sources), per cone
    let source_var: HashMap<NetId, u32> =
        var_of_source.iter().map(|(&s, &v)| (src_nets[s], v)).collect();
    let mut memo: HashMap<NetId, BddRef> = HashMap::new();
    build_rec(model, net, &source_var, mgr, &mut memo)
}

fn build_rec(
    model: &CombModel<'_>,
    net: NetId,
    source_var: &HashMap<NetId, u32>,
    mgr: &mut Bdd,
    memo: &mut HashMap<NetId, BddRef>,
) -> Result<BddRef, BddOverflow> {
    if let Some(&r) = memo.get(&net) {
        return Ok(r);
    }
    if let Some(&v) = source_var.get(&net) {
        let r = mgr.var(v)?;
        memo.insert(net, r);
        return Ok(r);
    }
    let r = match model.nl.net(net).driver {
        Some(NetDriver::Instance(id)) => {
            let inst = model.nl.instance(id);
            if inst.function().is_sequential() {
                // Sequential Q that is a source would have been in the
                // source map; reaching here means it was filtered out of
                // the support, which cannot happen for a proper cone.
                // Treat as constant 0 (matches eval() for undriven).
                Bdd::ZERO
            } else {
                let mut ins = Vec::with_capacity(inst.inputs.len());
                for &i in &inst.inputs {
                    ins.push(build_rec(model, i, source_var, mgr, memo)?);
                }
                mgr.eval_function(inst.function(), &ins)?
            }
        }
        _ => Bdd::ZERO, // ports/macro outputs are sources; undriven → 0
    };
    memo.insert(net, r);
    Ok(r)
}

/// A cheap structural fingerprint: hashes the sorted (function, drive,
/// fanin-names, output-name) tuples. Identical netlists hash identically;
/// unequal hashes guarantee structural difference (not functional).
pub fn structural_hash(nl: &Netlist) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut entries: Vec<String> = nl
        .instances()
        .map(|(_, i)| {
            let ins: Vec<&str> =
                i.inputs.iter().map(|&n| nl.net(n).name.as_str()).collect();
            format!("{}:{}:{}:{:?}", i.name, i.cell.lib_name(), nl.net(i.output).name, ins)
        })
        .collect();
    entries.sort();
    let mut h = DefaultHasher::new();
    entries.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::cell::Drive;
    use crate::eco::EcoSession;

    fn two_gate(f1: CellFunction, f2: CellFunction) -> Netlist {
        let mut b = NetlistBuilder::new("d");
        let a = b.input("a");
        let c = b.input("b");
        let t = b.gate(f1, Drive::X1, "u_1", &[a, c]);
        let y = b.gate(f2, Drive::X1, "u_2", &[t, c]);
        b.output("y", y);
        b.finish()
    }

    #[test]
    fn identical_netlists_are_equivalent() {
        let a = two_gate(CellFunction::Nand2, CellFunction::Xor2);
        let b = two_gate(CellFunction::Nand2, CellFunction::Xor2);
        let r = check_equivalence(&a, &b, &EquivOptions::default()).unwrap();
        assert_eq!(r.verdict, EquivVerdict::Equivalent);
        assert!(r.passed());
        assert_eq!(structural_hash(&a), structural_hash(&b));
    }

    #[test]
    fn demorgan_equivalents_proven() {
        // !(a & b) == !a | !b  — structurally different, logically equal.
        let a = {
            let mut b = NetlistBuilder::new("x");
            let p = b.input("a");
            let q = b.input("b");
            let y = b.gate_auto(CellFunction::Nand2, &[p, q]);
            b.output("y", y);
            b.finish()
        };
        let bnl = {
            let mut b = NetlistBuilder::new("x");
            let p = b.input("a");
            let q = b.input("b");
            let np = b.gate_auto(CellFunction::Inv, &[p]);
            let nq = b.gate_auto(CellFunction::Inv, &[q]);
            let y = b.gate_auto(CellFunction::Or2, &[np, nq]);
            b.output("y", y);
            b.finish()
        };
        let r = check_equivalence(&a, &bnl, &EquivOptions::default()).unwrap();
        assert_eq!(r.verdict, EquivVerdict::Equivalent);
        assert_ne!(structural_hash(&a), structural_hash(&bnl));
    }

    #[test]
    fn different_functions_caught() {
        let a = two_gate(CellFunction::Nand2, CellFunction::Xor2);
        let b = two_gate(CellFunction::Nor2, CellFunction::Xor2);
        let r = check_equivalence(&a, &b, &EquivOptions::default()).unwrap();
        assert!(matches!(r.verdict, EquivVerdict::NotEquivalent { .. }));
        assert!(!r.passed());
    }

    #[test]
    fn interface_mismatch_detected() {
        let a = two_gate(CellFunction::Nand2, CellFunction::Xor2);
        let b = {
            let mut bb = NetlistBuilder::new("d");
            let p = bb.input("a");
            let y = bb.gate_auto(CellFunction::Inv, &[p]);
            bb.output("y", y);
            bb.finish()
        };
        let r = check_equivalence(&a, &b, &EquivOptions::default()).unwrap();
        assert!(matches!(r.verdict, EquivVerdict::InterfaceMismatch { .. }));
    }

    #[test]
    fn buffer_eco_is_equivalent() {
        let a = two_gate(CellFunction::Nand2, CellFunction::Xor2);
        let mut eco = EcoSession::new(a.clone());
        let g = eco.netlist().find_instance("u_1").unwrap();
        let out = eco.netlist().instance(g).output;
        eco.insert_buffer(out, Drive::X2).unwrap();
        eco.upsize(g).unwrap();
        let (b, _) = eco.finish();
        let r = check_equivalence(&a, &b, &EquivOptions::default()).unwrap();
        assert_eq!(r.verdict, EquivVerdict::Equivalent);
    }

    #[test]
    fn inverter_eco_is_not_equivalent() {
        let a = two_gate(CellFunction::Nand2, CellFunction::Xor2);
        let mut eco = EcoSession::new(a.clone());
        let g = eco.netlist().find_instance("u_2").unwrap();
        eco.insert_inverter(g, 0).unwrap();
        let (b, _) = eco.finish();
        let r = check_equivalence(&a, &b, &EquivOptions::default()).unwrap();
        assert!(matches!(r.verdict, EquivVerdict::NotEquivalent { .. }));
    }

    #[test]
    fn sequential_cut_matches_flops_by_name() {
        let build = |swap: bool| {
            let mut b = NetlistBuilder::new("seq");
            let clk = b.input("clk");
            let d = b.input("d");
            let t = if swap {
                // inv then flop vs flop of inv — same D function
                b.gate_auto(CellFunction::Inv, &[d])
            } else {
                let n = b.gate_auto(CellFunction::Inv, &[d]);
                b.gate_auto(CellFunction::Buf, &[n])
            };
            let q = b.dff("u_ff", t, clk);
            b.output("q", q);
            b.finish()
        };
        let a = build(true);
        let b = build(false);
        let r = check_equivalence(&a, &b, &EquivOptions::default()).unwrap();
        assert_eq!(r.verdict, EquivVerdict::Equivalent);
    }

    #[test]
    fn comb_model_eval_adder() {
        let nl = crate::generate::ripple_adder(4).unwrap();
        let m = CombModel::new(&nl).unwrap();
        // source order is BTreeMap order of names: a[0..3], b[0..3], cin
        let mut assign = vec![0u64; m.sources.len()];
        let keys: Vec<&SourceKey> = m.sources.keys().collect();
        // encode a=5, b=6, cin=1 on lane 0
        for (i, k) in keys.iter().enumerate() {
            if let SourceKey::Port(name) = k {
                let bit = |v: u64, idx: usize| (v >> idx) & 1;
                assign[i] = if let Some(rest) = name.strip_prefix("a[") {
                    bit(5, rest.trim_end_matches(']').parse::<usize>().unwrap())
                } else if let Some(rest) = name.strip_prefix("b[") {
                    bit(6, rest.trim_end_matches(']').parse::<usize>().unwrap())
                } else {
                    1 // cin
                };
            }
        }
        let values = m.eval(&assign);
        // 5 + 6 + 1 = 12 = 0b1100
        let mut sum = 0u64;
        for bit in 0..4 {
            let net = nl.port(nl.find_port(&format!("sum[{bit}]")).unwrap()).net;
            sum |= (values[net.index()] & 1) << bit;
        }
        let cout = nl.port(nl.find_port("cout").unwrap()).net;
        assert_eq!(sum, 12);
        assert_eq!(values[cout.index()] & 1, 0);
    }

    #[test]
    fn bdd_basics() {
        let mut m = Bdd::new(1000);
        let x = m.var(0).unwrap();
        let y = m.var(1).unwrap();
        let xy = m.and(x, y).unwrap();
        let yx = m.and(y, x).unwrap();
        assert_eq!(xy, yx); // hash-consing canonical
        let nx = m.not(x).unwrap();
        let nnx = m.not(nx).unwrap();
        assert_eq!(nnx, x);
        let t = m.or(x, nx).unwrap();
        assert_eq!(t, Bdd::ONE);
        let f = m.and(x, nx).unwrap();
        assert_eq!(f, Bdd::ZERO);
        let x1 = m.xor(x, y).unwrap();
        let x2 = m.xor(y, x).unwrap();
        assert_eq!(x1, x2);
    }

    #[test]
    fn bdd_overflow_is_graceful() {
        let mut m = Bdd::new(8);
        let mut acc = m.var(0).unwrap();
        let mut overflowed = false;
        for v in 1..64 {
            let x = match m.var(v) {
                Ok(x) => x,
                Err(BddOverflow) => {
                    overflowed = true;
                    break;
                }
            };
            match m.xor(acc, x) {
                Ok(r) => acc = r,
                Err(BddOverflow) => {
                    overflowed = true;
                    break;
                }
            }
        }
        assert!(overflowed);
    }

    #[test]
    fn parallel_report_matches_serial_bitwise() {
        // one equivalent pair and one counter-example pair, both must
        // produce identical reports (verdict + all counters) at any
        // thread count
        let pairs = [
            (
                two_gate(CellFunction::Nand2, CellFunction::Xor2),
                two_gate(CellFunction::Nand2, CellFunction::Xor2),
            ),
            (
                two_gate(CellFunction::Nand2, CellFunction::Xor2),
                two_gate(CellFunction::Nor2, CellFunction::Xor2),
            ),
        ];
        for (a, b) in &pairs {
            let serial = check_equivalence(a, b, &EquivOptions::default()).unwrap();
            for threads in [2usize, 4] {
                let opts = EquivOptions {
                    parallelism: Parallelism::Threads(threads),
                    ..EquivOptions::default()
                };
                let par = check_equivalence(a, b, &opts).unwrap();
                assert_eq!(par, serial, "threads = {threads}");
            }
        }
    }

    #[test]
    fn adder_equivalence_after_regeneration() {
        let a = crate::generate::ripple_adder(6).unwrap();
        let b = crate::generate::ripple_adder(6).unwrap();
        let r = check_equivalence(&a, &b, &EquivOptions::default()).unwrap();
        assert_eq!(r.verdict, EquivVerdict::Equivalent);
    }
}
