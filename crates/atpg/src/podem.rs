//! PODEM: path-oriented decision making, on the nine-valued algebra.

use std::sync::Arc;

use soctest_netlist::{CompiledNetlist, GateKind, NetId, Netlist, NetlistError};

use soctest_fault::{Fault, FaultKind};

use crate::nine::V9;

/// Tuning knobs for [`Podem`].
#[derive(Debug, Clone)]
pub struct PodemConfig {
    /// Abandon a fault after this many backtracks (it is then counted as
    /// aborted, not untestable).
    pub max_backtracks: u32,
}

impl Default for PodemConfig {
    fn default() -> Self {
        PodemConfig { max_backtracks: 64 }
    }
}

/// A generated test cube: one assignment (or don't-care) per primary input
/// of the view, in [`Netlist::primary_inputs`] order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestCube {
    /// `Some(v)` = required value, `None` = don't care.
    pub assignments: Vec<Option<bool>>,
}

impl TestCube {
    /// Fills don't-cares with pseudo-random values from `seed`.
    pub fn fill_random(&self, seed: &mut u64) -> Vec<bool> {
        self.assignments
            .iter()
            .map(|a| {
                a.unwrap_or_else(|| {
                    *seed = crate::random::xorshift64(*seed);
                    *seed & 1 == 1
                })
            })
            .collect()
    }

    /// Number of specified (non-X) positions.
    pub fn specified(&self) -> usize {
        self.assignments.iter().filter(|a| a.is_some()).count()
    }
}

/// The PODEM test generator over a combinational view.
///
/// Implication is event-driven over the view's [`CompiledNetlist`]: the
/// nine-valued values start from a fault-free, all-X baseline computed
/// once, and every assignment change re-evaluates only the gates its
/// events reach, in schedule order. The schedule is topological, so the
/// result is the fixpoint a full re-evaluation would reach.
///
/// See the [crate example](crate).
#[derive(Debug)]
pub struct Podem<'a> {
    view: &'a Netlist,
    kernel: Arc<CompiledNetlist>,
    config: PodemConfig,
    levels: Vec<u32>,
    pi_index: Vec<Option<u32>>,
    assignable: Vec<bool>,
    observe: Vec<NetId>,
    /// Values with every primary input at X and no fault injected.
    baseline: Vec<V9>,
    values: Vec<V9>,
    /// Schedule positions awaiting re-evaluation, one bit each.
    pending: Vec<u64>,
    /// The current target's fanout cone, in ascending schedule position
    /// (= ascending level, then net id): the only gates that can be on
    /// its D-frontier. Scanning the schedule from the site instead gives
    /// the same gate but measured slower: PODEM busy time 1.49 s against
    /// 1.07 s (median of 9 traced full-scan runs, seed 1, 2 vCPUs).
    cone: Vec<u32>,
    /// Scratch marks over schedule positions for [`Podem::collect_cone`].
    seen: Vec<u64>,
    /// Statistics: faults aborted on the backtrack limit.
    aborted: u64,
}

impl<'a> Podem<'a> {
    /// Prepares a generator for a combinational view.
    ///
    /// # Errors
    ///
    /// Returns a levelization error for cyclic netlists.
    pub fn new(view: &'a Netlist, config: PodemConfig) -> Result<Self, NetlistError> {
        let kernel = view.compile()?;
        let levels = view.levels()?;
        let mut pi_index = vec![None; view.len()];
        for (i, &pi) in kernel.pis().iter().enumerate() {
            pi_index[pi as usize] = Some(i as u32);
        }
        let mut baseline: Vec<V9> = view.iter().map(|(_, g)| source_value(g.kind)).collect();
        for p in 0..kernel.ops() {
            baseline[kernel.op_out(p) as usize] = eval_op(&kernel, p, &baseline);
        }
        let words = kernel.ops().div_ceil(64);
        Ok(Podem {
            view,
            config,
            levels,
            pi_index,
            assignable: vec![true; kernel.pis().len()],
            observe: view.primary_outputs(),
            values: baseline.clone(),
            baseline,
            pending: vec![0; words],
            cone: Vec::new(),
            seen: vec![0; words],
            kernel,
            aborted: 0,
        })
    }

    /// Restricts which primary inputs the generator may assign (used by the
    /// time-frame-expansion flow, where the initial state is unknown and
    /// therefore unassignable).
    ///
    /// # Panics
    ///
    /// Panics if the mask length differs from the primary-input count.
    pub fn set_assignable(&mut self, mask: Vec<bool>) {
        assert_eq!(mask.len(), self.assignable.len(), "assignable mask size");
        self.assignable = mask;
    }

    /// Overrides the observation nets (default: the view's primary outputs).
    pub fn set_observe(&mut self, nets: Vec<NetId>) {
        self.observe = nets;
    }

    /// Number of faults abandoned at the backtrack limit so far.
    pub fn aborted(&self) -> u64 {
        self.aborted
    }

    /// Attempts to generate a test cube for a stuck-at fault.
    ///
    /// Returns `None` when the fault is untestable within the backtrack
    /// budget (redundant faults and aborted faults are indistinguishable
    /// here; [`Podem::aborted`] counts the latter).
    ///
    /// # Panics
    ///
    /// Panics if called with a transition fault; transition coverage is
    /// obtained by replaying stuck-at cubes as launch/capture pairs (see
    /// `soctest-fault::CombFaultSim::run_transition`).
    pub fn generate(&mut self, fault: Fault) -> Option<TestCube> {
        assert!(
            fault.kind.is_stuck_at(),
            "PODEM targets stuck-at faults; transition tests reuse stuck-at cubes"
        );
        let stuck = fault.kind == FaultKind::Sa1;
        let site = fault.net;
        self.inject(site, stuck);
        self.collect_cone(site);
        let mut assign: Vec<Option<bool>> = vec![None; self.assignable.len()];
        // (pi, value, already flipped)
        let mut decisions: Vec<(usize, bool, bool)> = Vec::new();
        let mut backtracks = 0u32;

        loop {
            self.imply(site, stuck);
            if self
                .observe
                .iter()
                .any(|&o| self.values[o.index()].is_fault_visible())
            {
                return Some(TestCube {
                    assignments: assign,
                });
            }
            let next = self
                .objective(site, stuck)
                .and_then(|(net, val)| self.backtrace(net, val));
            match next {
                Some((pi, val)) if assign[pi].is_none() => {
                    assign[pi] = Some(val);
                    self.set_pi(pi, Some(val), site, stuck);
                    decisions.push((pi, val, false));
                }
                _ => {
                    // Backtrack.
                    loop {
                        match decisions.pop() {
                            None => return None,
                            Some((pi, val, flipped)) => {
                                assign[pi] = None;
                                if !flipped {
                                    backtracks += 1;
                                    if backtracks > self.config.max_backtracks {
                                        self.aborted += 1;
                                        return None;
                                    }
                                    assign[pi] = Some(!val);
                                    self.set_pi(pi, Some(!val), site, stuck);
                                    decisions.push((pi, !val, true));
                                    break;
                                }
                                self.set_pi(pi, None, site, stuck);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Resets the values to the baseline with the fault injected at
    /// `site`, leaving the injection's events pending.
    fn inject(&mut self, site: NetId, stuck: bool) {
        self.values.copy_from_slice(&self.baseline);
        self.pending.fill(0);
        match self.kernel.sched_of(site.0) {
            Some(p) => Self::mark(&mut self.pending, &[p as u32]),
            None => {
                self.values[site.index()] = self.values[site.index()].with_faulty(stuck);
                self.mark_fanout(site.0);
            }
        }
    }

    /// Drives primary input `pi` to `value` (`None` = X) and leaves its
    /// fanout pending.
    fn set_pi(&mut self, pi: usize, value: Option<bool>, site: NetId, stuck: bool) {
        let net = self.kernel.pis()[pi];
        let v = value.map_or(V9::X, V9::known);
        self.values[net as usize] = if net == site.0 {
            v.with_faulty(stuck)
        } else {
            v
        };
        self.mark_fanout(net);
    }

    /// Leaves schedule positions `ops` pending.
    fn mark(pending: &mut [u64], ops: &[u32]) {
        for &p in ops {
            pending[p as usize / 64] |= 1 << (p % 64);
        }
    }

    fn mark_fanout(&mut self, net: u32) {
        Self::mark(&mut self.pending, self.kernel.fanout_ops(net));
    }

    /// Nine-valued implication: re-evaluates every pending gate in
    /// ascending schedule position, re-injecting the fault at `site`, and
    /// schedules a gate's fanout only when its value changed. Fanout
    /// positions are always later, so one ascending sweep drains the set.
    fn imply(&mut self, site: NetId, stuck: bool) {
        let kernel = &*self.kernel;
        for w in 0..self.pending.len() {
            // Fanout may land later in this same word: re-read it.
            while self.pending[w] != 0 {
                let bits = self.pending[w];
                self.pending[w] = bits & (bits - 1);
                let p = w * 64 + bits.trailing_zeros() as usize;
                let out = kernel.op_out(p);
                let mut v = eval_op(kernel, p, &self.values);
                if out == site.0 {
                    v = v.with_faulty(stuck);
                }
                if v != self.values[out as usize] {
                    self.values[out as usize] = v;
                    Self::mark(&mut self.pending, kernel.fanout_ops(out));
                }
            }
        }
    }

    /// Collects the schedule positions downstream of `site` into
    /// [`Podem::cone`], ascending.
    fn collect_cone(&mut self, site: NetId) {
        let kernel = &*self.kernel;
        self.cone.clear();
        self.cone.extend_from_slice(kernel.fanout_ops(site.0));
        for &p in &self.cone {
            self.seen[p as usize / 64] |= 1 << (p % 64);
        }
        let mut i = 0;
        while i < self.cone.len() {
            let out = kernel.op_out(self.cone[i] as usize);
            for &q in kernel.fanout_ops(out) {
                let (w, bit) = (q as usize / 64, 1u64 << (q % 64));
                if self.seen[w] & bit == 0 {
                    self.seen[w] |= bit;
                    self.cone.push(q);
                }
            }
            i += 1;
        }
        for &p in &self.cone {
            self.seen[p as usize / 64] = 0;
        }
        self.cone.sort_unstable();
    }

    /// The D-frontier gate to advance: the first one in the cone, which is
    /// the lowest-level one (ties: lowest net id).
    fn frontier(&self) -> Option<NetId> {
        let kernel = &*self.kernel;
        let visible = |n: u32| self.values[n as usize].is_fault_visible();
        self.cone
            .iter()
            .map(|&p| p as usize)
            .find(|&p| {
                let out = self.values[kernel.op_out(p) as usize];
                !out.is_fault_visible()
                    && out.has_x()
                    && kernel.op_pins(p)[..kernel.op_arity(p)]
                        .iter()
                        .any(|&n| visible(n))
            })
            .map(|p| NetId(kernel.op_out(p)))
    }

    /// Chooses the next objective: excite the fault, then advance the
    /// D-frontier.
    fn objective(&self, site: NetId, stuck: bool) -> Option<(NetId, bool)> {
        let sv = self.values[site.index()];
        match sv.good_known() {
            None => return Some((site, !stuck)),
            Some(g) if g == stuck => return None, // excitation conflict
            Some(_) => {}
        }
        let gid = self.frontier()?;
        let gate = self.view.gate(gid);
        let x_pin = |want_low_level: bool| {
            let mut cands: Vec<NetId> = gate
                .pins
                .iter()
                .copied()
                .filter(|&p| self.values[p.index()].good_known().is_none())
                .collect();
            cands.sort_by_key(|p| self.levels[p.index()]);
            if want_low_level {
                cands.first().copied()
            } else {
                cands.last().copied()
            }
        };
        match gate.kind {
            GateKind::And | GateKind::Nand => x_pin(false).map(|p| (p, true)),
            GateKind::Or | GateKind::Nor => x_pin(false).map(|p| (p, false)),
            GateKind::Xor | GateKind::Xnor => x_pin(true).map(|p| (p, false)),
            GateKind::Mux2 => {
                let sel = gate.pins[0];
                let a = gate.pins[1];
                let b = gate.pins[2];
                if self.values[a.index()].is_fault_visible() {
                    Some((sel, false))
                } else if self.values[b.index()].is_fault_visible() {
                    Some((sel, true))
                } else {
                    // Fault on select: make the data inputs differ.
                    if self.values[a.index()].good_known().is_none() {
                        Some((a, true))
                    } else if self.values[b.index()].good_known().is_none() {
                        let av = self.values[a.index()].good_known().unwrap_or(true);
                        Some((b, !av))
                    } else {
                        None
                    }
                }
            }
            _ => None,
        }
    }

    /// Walks an objective back to an assignable primary input.
    fn backtrace(&self, mut net: NetId, mut val: bool) -> Option<(usize, bool)> {
        loop {
            if let Some(pi) = self.pi_index[net.index()] {
                let pi = pi as usize;
                if self.assignable[pi] && self.values[net.index()].good_known().is_none() {
                    return Some((pi, val));
                }
                return None;
            }
            let gate = self.view.gate(net);
            let x_pin = |want_low_level: bool| {
                let mut cands: Vec<NetId> = gate
                    .pins
                    .iter()
                    .copied()
                    .filter(|&p| self.values[p.index()].good_known().is_none())
                    .collect();
                cands.sort_by_key(|p| self.levels[p.index()]);
                if want_low_level {
                    cands.first().copied()
                } else {
                    cands.last().copied()
                }
            };
            match gate.kind {
                GateKind::Buf => net = gate.pins[0],
                GateKind::Not => {
                    net = gate.pins[0];
                    val = !val;
                }
                GateKind::And | GateKind::Nand => {
                    let inv = gate.kind == GateKind::Nand;
                    let want = val ^ inv; // required AND-function value
                    let pick = if want {
                        x_pin(false)? // all inputs must be 1: hardest first
                    } else {
                        x_pin(true)? // one controlling 0 suffices: easiest
                    };
                    net = pick;
                    val = want;
                }
                GateKind::Or | GateKind::Nor => {
                    let inv = gate.kind == GateKind::Nor;
                    let want = val ^ inv; // required OR-function value
                    let pick = if want { x_pin(true)? } else { x_pin(false)? };
                    net = pick;
                    val = want;
                }
                GateKind::Xor | GateKind::Xnor => {
                    let inv = gate.kind == GateKind::Xnor;
                    let pick = x_pin(true)?;
                    let other = gate
                        .pins
                        .iter()
                        .copied()
                        .find(|&p| p != pick)
                        .map(|p| self.values[p.index()].good_known().unwrap_or(false))
                        .unwrap_or(false);
                    net = pick;
                    val = val ^ inv ^ other;
                }
                GateKind::Mux2 => {
                    let sel = self.values[gate.pins[0].index()].good_known();
                    match sel {
                        Some(false) => net = gate.pins[1],
                        Some(true) => net = gate.pins[2],
                        None => {
                            net = gate.pins[0];
                            val = false;
                        }
                    }
                }
                GateKind::Const0 | GateKind::Const1 | GateKind::Dff | GateKind::Input => {
                    return None;
                }
            }
        }
    }
}

/// The value of a net before implication: constants, flip-flops held at 0
/// as in the fault simulators, and X for everything else.
fn source_value(kind: GateKind) -> V9 {
    match kind {
        GateKind::Const0 | GateKind::Dff => V9::ZERO,
        GateKind::Const1 => V9::ONE,
        _ => V9::X,
    }
}

/// Nine-valued evaluation of the gate at schedule position `p`.
fn eval_op(kernel: &CompiledNetlist, p: usize, values: &[V9]) -> V9 {
    let [a, b, c] = kernel.op_pins(p).map(|n| values[n as usize]);
    match kernel.op_kind(p) {
        GateKind::Buf => a,
        GateKind::Not => a.not(),
        GateKind::And => a.and(b),
        GateKind::Nand => a.and(b).not(),
        GateKind::Or => a.or(b),
        GateKind::Nor => a.or(b).not(),
        GateKind::Xor => a.xor(b),
        GateKind::Xnor => a.xor(b).not(),
        GateKind::Mux2 => V9::mux(a, b, c),
        // Sources are never scheduled.
        GateKind::Input | GateKind::Const0 | GateKind::Const1 | GateKind::Dff => V9::X,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_fault::{CombFaultSim, FaultUniverse, PatternSet};
    use soctest_netlist::{ModuleBuilder, PortDir};

    /// A seeded random combinational view: `inputs` primary inputs, a tie
    /// cell, and `gates` gates of every combinational kind, each reading
    /// among the last `window` nets; the last four nets are the outputs.
    fn random_view(seed: u64, inputs: usize, gates: usize, window: usize) -> Netlist {
        const KINDS: [GateKind; 9] = [
            GateKind::Buf,
            GateKind::Not,
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Mux2,
        ];
        let mut s = seed | 1;
        let mut draw = |n: usize| {
            s = crate::random::xorshift64(s);
            (s % n as u64) as usize
        };
        let mut nl = Netlist::new("rand");
        let pis: Vec<NetId> = (0..inputs)
            .map(|_| nl.add_gate(GateKind::Input, vec![]))
            .collect();
        nl.add_port(PortDir::Input, "in", pis.clone()).unwrap();
        let mut nets = pis;
        nets.push(nl.add_gate(GateKind::Const1, vec![]));
        for _ in 0..gates {
            let kind = KINDS[draw(KINDS.len())];
            let arity = match kind {
                GateKind::Buf | GateKind::Not => 1,
                GateKind::Mux2 => 3,
                _ => 2,
            };
            // Pins come from the most recent nets: a narrow window makes
            // deep chains, a wide one reconvergence and wide D-frontiers.
            let pins = (0..arity)
                .map(|_| nets[nets.len() - 1 - draw(nets.len().min(window))])
                .collect();
            nets.push(nl.add_gate(kind, pins));
        }
        nl.add_port(PortDir::Output, "out", nets[nets.len() - 4..].to_vec())
            .unwrap();
        nl
    }

    /// The values of a from-scratch sweep: sources from `assign` and the
    /// fault, then every scheduled gate in order.
    fn from_scratch(
        podem: &Podem<'_>,
        assign: &[Option<bool>],
        site: NetId,
        stuck: bool,
    ) -> Vec<V9> {
        let k = &*podem.kernel;
        let mut v: Vec<V9> = podem
            .view
            .iter()
            .map(|(_, g)| source_value(g.kind))
            .collect();
        for (&pi, a) in k.pis().iter().zip(assign) {
            v[pi as usize] = a.map_or(V9::X, V9::known);
        }
        if k.sched_of(site.0).is_none() {
            v[site.index()] = v[site.index()].with_faulty(stuck);
        }
        for p in 0..k.ops() {
            let mut x = eval_op(k, p, &v);
            if k.op_out(p) == site.0 {
                x = x.with_faulty(stuck);
            }
            v[k.op_out(p) as usize] = x;
        }
        v
    }

    /// The lowest-level (then lowest-id) D-frontier gate over the whole
    /// view: the full scan the cone-scoped search replaces.
    fn full_scan_frontier(podem: &Podem<'_>) -> Option<NetId> {
        let mut best: Option<(u32, NetId)> = None;
        for (id, gate) in podem.view.iter() {
            let out = podem.values[id.index()];
            if gate.kind.is_source() || out.is_fault_visible() || !out.has_x() {
                continue;
            }
            if gate
                .pins
                .iter()
                .any(|&p| podem.values[p.index()].is_fault_visible())
            {
                let lvl = podem.levels[id.index()];
                if best.is_none_or(|(bl, _)| lvl < bl) {
                    best = Some((lvl, id));
                }
            }
        }
        best.map(|(_, id)| id)
    }

    /// Random assign / flip / unassign walks, with a fault on a primary
    /// input and on a gate: after every implication the incremental values
    /// equal a from-scratch sweep, and the first D-frontier gate of the
    /// cone is the one a full scan picks.
    #[test]
    fn incremental_implication_matches_a_full_sweep() {
        for seed in 1..=12u64 {
            let window = if seed % 2 == 0 { 12 } else { 48 };
            let nl = random_view(seed, 6 + seed as usize % 5, 40 + 7 * seed as usize, window);
            let mut podem = Podem::new(&nl, PodemConfig::default()).unwrap();
            let npis = podem.assignable.len();
            let gate_site = podem.kernel.op_out(podem.kernel.ops() / 3);
            let sites = [(NetId(0), true), (NetId(gate_site), false)];
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut draw = |n: u64| {
                s = crate::random::xorshift64(s);
                s % n
            };
            for (site, stuck) in sites {
                podem.inject(site, stuck);
                podem.collect_cone(site);
                let mut assign = vec![None; npis];
                for step in 0..120 {
                    // Several changes per implication, as a backtrack makes.
                    for _ in 0..1 + draw(3) {
                        let pi = draw(npis as u64) as usize;
                        assign[pi] = match (assign[pi], draw(2)) {
                            (None, b) => Some(b == 1),
                            (Some(b), 0) => Some(!b),
                            (Some(_), _) => None,
                        };
                        podem.set_pi(pi, assign[pi], site, stuck);
                    }
                    podem.imply(site, stuck);
                    assert_eq!(
                        podem.values,
                        from_scratch(&podem, &assign, site, stuck),
                        "seed {seed} site {site} step {step}"
                    );
                    assert_eq!(
                        podem.frontier(),
                        full_scan_frontier(&podem),
                        "seed {seed} site {site} step {step}"
                    );
                }
            }
        }
    }

    fn full_adder() -> Netlist {
        let mut mb = ModuleBuilder::new("fa");
        let a = mb.input("a");
        let b = mb.input("b");
        let cin = mb.input("cin");
        let ab = mb.xor(a, b);
        let s = mb.xor(ab, cin);
        let m1 = mb.and(a, b);
        let m2 = mb.and(ab, cin);
        let cout = mb.or(m1, m2);
        mb.output("s", s);
        mb.output("cout", cout);
        mb.finish().unwrap()
    }

    #[test]
    fn podem_covers_every_full_adder_fault() {
        let nl = full_adder();
        let u = FaultUniverse::stuck_at(&nl);
        let mut podem = Podem::new(u.view(), PodemConfig::default()).unwrap();
        let mut pats = PatternSet::new(u.view().primary_inputs().len());
        let mut seed = 42u64;
        for &f in u.faults() {
            let cube = podem
                .generate(f)
                .unwrap_or_else(|| panic!("fault {f} should be testable"));
            pats.push(&cube.fill_random(&mut seed));
        }
        let r = CombFaultSim::new(&u).run_stuck_at(&pats).unwrap();
        assert_eq!(r.coverage_percent(), 100.0);
        assert_eq!(podem.aborted(), 0);
    }

    #[test]
    fn podem_detects_redundant_fault() {
        // y = a AND (NOT a) is constant 0: y/sa0 is untestable.
        let mut mb = ModuleBuilder::new("red");
        let a = mb.input("a");
        let na = mb.not(a);
        let y = mb.and(a, na);
        mb.output("y", y);
        let nl = mb.finish().unwrap();
        let u = FaultUniverse::stuck_at(&nl);
        let mut podem = Podem::new(u.view(), PodemConfig::default()).unwrap();
        // The class representative may be a fanout-branch buffer; look the
        // class up through its members.
        let idx = (0..u.len())
            .find(|&i| {
                u.class(i)
                    .iter()
                    .any(|f| f.net == y && f.kind == soctest_fault::FaultKind::Sa0)
            })
            .unwrap();
        assert!(podem.generate(u.faults()[idx]).is_none());
    }

    #[test]
    fn unassignable_inputs_block_generation() {
        let mut mb = ModuleBuilder::new("blk");
        let a = mb.input("a");
        let b = mb.input("b");
        let y = mb.and(a, b);
        mb.output("y", y);
        let nl = mb.finish().unwrap();
        let u = FaultUniverse::stuck_at(&nl);
        let mut podem = Podem::new(u.view(), PodemConfig::default()).unwrap();
        podem.set_assignable(vec![true, false]);
        let sa0 = u
            .faults()
            .iter()
            .copied()
            .find(|f| f.net == y && f.kind == soctest_fault::FaultKind::Sa0)
            .unwrap();
        // y/sa0 needs b=1 but b is unassignable.
        assert!(podem.generate(sa0).is_none());
    }

    #[test]
    fn cube_random_fill_respects_assignments() {
        let cube = TestCube {
            assignments: vec![Some(true), None, Some(false)],
        };
        let mut seed = 7;
        let filled = cube.fill_random(&mut seed);
        assert!(filled[0]);
        assert!(!filled[2]);
        assert_eq!(cube.specified(), 2);
    }

    #[test]
    fn mux_heavy_circuit_is_testable() {
        let mut mb = ModuleBuilder::new("muxes");
        let sel = mb.input_bus("sel", 2);
        let d = mb.input_bus("d", 4);
        let opts: Vec<Vec<_>> = (0..4).map(|i| vec![d[i]]).collect();
        let y = mb.select(&sel, &opts);
        mb.output("y", y[0]);
        let nl = mb.finish().unwrap();
        let u = FaultUniverse::stuck_at(&nl);
        let mut podem = Podem::new(u.view(), PodemConfig::default()).unwrap();
        let mut pats = PatternSet::new(6);
        let mut seed = 3u64;
        let mut missing = 0;
        for &f in u.faults() {
            match podem.generate(f) {
                Some(c) => pats.push(&c.fill_random(&mut seed)),
                None => missing += 1,
            }
        }
        let r = CombFaultSim::new(&u).run_stuck_at(&pats).unwrap();
        assert!(
            r.coverage_percent() > 90.0,
            "coverage {:.1}%, {} unresolved",
            r.coverage_percent(),
            missing
        );
    }
}
