//! The deliberately naive reference interpreter.
//!
//! [`RefMachine`] evaluates one bit per net by sweeping *all* gates to a
//! fixpoint — no levelization, no event scheduling, no bit-parallel words.
//! It shares no code with `soctest-sim` or `soctest-fault` beyond the
//! netlist data structure, which is exactly what makes it a useful oracle:
//! a bug would have to be reimplemented here, in a completely different
//! style, to go unnoticed.
//!
//! A single optional *injected fault* rewrites one net's value every
//! sweep, which matches how the fault simulators inject at a site (the
//! site's fanout sees the faulty value):
//!
//! * stuck-at forces a constant, ignoring the site's own gate function;
//! * a transition fault passes the site's value through on the first
//!   cycle; afterwards slow-to-rise gives `cur && prev` and slow-to-fall
//!   gives `cur || prev`, where `prev` is the site's faulty value on the
//!   previous cycle (recorded at every [`RefMachine::clock`], or set
//!   explicitly with [`RefMachine::set_prev`] for launch-on-capture).

use soctest_fault::{Fault, FaultKind};
use soctest_netlist::{GateKind, NetId, Netlist};

/// Naive single-bit interpreter with DFF state and an optional injected
/// fault.
#[derive(Debug, Clone)]
pub struct RefMachine<'a> {
    nl: &'a Netlist,
    values: Vec<bool>,
    dffs: Vec<NetId>,
    dff_state: Vec<bool>,
    /// Per net: its index into `dffs` (meaningful for DFF nets only).
    dff_pos: Vec<usize>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    fault: Option<Fault>,
    /// The transition site's faulty value on the previous cycle; `None`
    /// on the first cycle.
    prev: Option<bool>,
}

impl<'a> RefMachine<'a> {
    /// Wraps `nl`; all nets and DFF states start at 0.
    pub fn new(nl: &'a Netlist) -> Self {
        let dffs = nl.dffs();
        let mut dff_pos = vec![usize::MAX; nl.len()];
        for (i, d) in dffs.iter().enumerate() {
            dff_pos[d.index()] = i;
        }
        RefMachine {
            nl,
            values: vec![false; nl.len()],
            dff_state: vec![false; dffs.len()],
            dffs,
            dff_pos,
            inputs: nl.primary_inputs(),
            outputs: nl.primary_outputs(),
            fault: None,
            prev: None,
        }
    }

    /// Injects `fault` (replacing any earlier one), starting on its first
    /// cycle.
    pub fn inject(&mut self, fault: Fault) {
        self.fault = Some(fault);
        self.prev = None;
    }

    /// Sets the transition site's previous-cycle value (`None`: the first
    /// cycle, which passes the value through).
    pub fn set_prev(&mut self, prev: Option<bool>) {
        self.prev = prev;
    }

    /// The injected fault's value at its site, given the fault-free `cur`.
    fn faulty(&self, kind: FaultKind, cur: bool) -> bool {
        match (kind, self.prev) {
            (FaultKind::Sa0, _) => false,
            (FaultKind::Sa1, _) => true,
            (_, None) => cur,
            (FaultKind::SlowToRise, Some(prev)) => cur && prev,
            (FaultKind::SlowToFall, Some(prev)) => cur || prev,
        }
    }

    /// Drives the primary inputs, port-declaration order.
    ///
    /// # Panics
    ///
    /// Panics when `bits` does not match the primary-input count.
    pub fn set_inputs(&mut self, bits: &[bool]) {
        assert_eq!(bits.len(), self.inputs.len(), "primary-input arity");
        for (net, &b) in self.inputs.iter().zip(bits) {
            self.values[net.index()] = b;
        }
    }

    /// Drives a single input net.
    pub fn set_input(&mut self, net: NetId, value: bool) {
        self.values[net.index()] = value;
    }

    fn eval_gate(&self, id: usize) -> bool {
        let gate = self.nl.gate(NetId(id as u32));
        let pin = |p: usize| self.values[gate.pins[p].index()];
        match gate.kind {
            GateKind::Input => self.values[id],
            GateKind::Const0 => false,
            GateKind::Const1 => true,
            GateKind::Dff => self.dff_state[self.dff_pos[id]],
            GateKind::Buf => pin(0),
            GateKind::Not => !pin(0),
            GateKind::And => pin(0) & pin(1),
            GateKind::Or => pin(0) | pin(1),
            GateKind::Nand => !(pin(0) & pin(1)),
            GateKind::Nor => !(pin(0) | pin(1)),
            GateKind::Xor => pin(0) ^ pin(1),
            GateKind::Xnor => !(pin(0) ^ pin(1)),
            GateKind::Mux2 => {
                if pin(0) {
                    pin(2)
                } else {
                    pin(1)
                }
            }
        }
    }

    /// Sweeps every gate until no value changes (bounded by the gate
    /// count, which is enough for any acyclic combinational cloud).
    pub fn settle(&mut self) {
        for _ in 0..self.nl.len() + 2 {
            let mut changed = false;
            for id in 0..self.nl.len() {
                let mut next = self.eval_gate(id);
                if let Some(f) = self.fault {
                    if f.net.index() == id {
                        next = self.faulty(f.kind, next);
                    }
                }
                if next != self.values[id] {
                    self.values[id] = next;
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
        unreachable!("combinational fixpoint did not converge");
    }

    /// Clock edge: every DFF samples its `d` pin, and a transition site
    /// remembers its value as the next cycle's `prev`. Call [`settle`]
    /// (`RefMachine::settle`) first so the sampled values are current.
    pub fn clock(&mut self) {
        let next: Vec<bool> = self
            .dffs
            .iter()
            .map(|d| self.values[self.nl.gate(*d).pins[0].index()])
            .collect();
        self.dff_state = next;
        if let Some(f) = self.fault {
            self.prev = Some(self.values[f.net.index()]);
        }
    }

    /// Convenience: settle then clock.
    pub fn step(&mut self) {
        self.settle();
        self.clock();
    }

    /// The value of one net.
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// The primary-output values, port-declaration order.
    pub fn outputs(&self) -> Vec<bool> {
        self.outputs
            .iter()
            .map(|n| self.values[n.index()])
            .collect()
    }
}

/// One-shot combinational evaluation of `nl` under `inputs`.
pub fn eval_comb(nl: &Netlist, inputs: &[bool]) -> Vec<bool> {
    let mut m = RefMachine::new(nl);
    m.set_inputs(inputs);
    m.settle();
    m.outputs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_netlist::PortDir;

    fn xor_with_ff() -> Netlist {
        let mut nl = Netlist::new("t");
        let a = nl.add_gate(GateKind::Input, vec![]);
        let b = nl.add_gate(GateKind::Input, vec![]);
        let x = nl.add_gate(GateKind::Xor, vec![a, b]);
        let q = nl.add_gate_unchecked(GateKind::Dff, vec![x]);
        let y = nl.add_gate(GateKind::Xnor, vec![q, a]);
        nl.add_port(PortDir::Input, "in", vec![a, b]).unwrap();
        nl.add_port(PortDir::Output, "out", vec![y]).unwrap();
        nl
    }

    #[test]
    fn settles_combinational_logic() {
        let nl = xor_with_ff();
        assert_eq!(eval_comb(&nl, &[true, false]), vec![false]);
        assert_eq!(eval_comb(&nl, &[false, false]), vec![true]);
    }

    #[test]
    fn clock_updates_dff_state() {
        let nl = xor_with_ff();
        let mut m = RefMachine::new(&nl);
        m.set_inputs(&[true, false]);
        m.step();
        m.set_inputs(&[false, false]);
        m.settle();
        // q is now 1 (xor of 1,0 sampled), so y = !(1 ^ 0) = 0.
        assert_eq!(m.outputs(), vec![false]);
    }

    #[test]
    fn transition_fault_holds_the_previous_value() {
        let nl = xor_with_ff();
        let x = NetId(2);
        let mut m = RefMachine::new(&nl);
        m.inject(Fault::new(x, FaultKind::SlowToRise));
        // First cycle: the value passes through.
        m.set_inputs(&[true, false]);
        m.settle();
        assert!(m.value(x));
        m.clock();
        // A fall is on time...
        m.set_inputs(&[false, false]);
        m.settle();
        assert!(!m.value(x));
        m.clock();
        // ...but the rise is late: the site holds its previous 0.
        m.set_inputs(&[true, false]);
        m.settle();
        assert!(!m.value(x));
        // Launch-on-capture: an explicit launch value of 1 lets it rise.
        m.set_prev(Some(true));
        m.settle();
        assert!(m.value(x));

        m.inject(Fault::new(x, FaultKind::SlowToFall));
        m.set_prev(Some(true));
        m.set_inputs(&[false, false]);
        m.settle();
        assert!(m.value(x), "a slow fall holds the previous 1");
    }

    #[test]
    fn forced_net_overrides_logic() {
        let nl = xor_with_ff();
        let mut m = RefMachine::new(&nl);
        m.inject(Fault::new(NetId(2), FaultKind::Sa1)); // the Xor output
        m.set_inputs(&[false, false]);
        m.settle();
        assert!(m.value(NetId(2)));
    }
}
