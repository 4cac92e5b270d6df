//! Combinational 64-lane evaluation.

use std::sync::Arc;

use soctest_netlist::{CompiledNetlist, NetId, Netlist, NetlistError};

/// A reusable combinational evaluator: applies 64 patterns per pass over the
/// combinational view of a netlist (flip-flop outputs are treated as
/// pseudo-primary inputs).
///
/// The evaluator owns a value buffer indexed by [`NetId`]; callers write
/// input and pseudo-input words, call [`CombSim::eval`], and read any net.
/// Evaluation sweeps the netlist's compiled schedule
/// ([`CompiledNetlist::eval`]).
#[derive(Debug, Clone)]
pub struct CombSim {
    kernel: Arc<CompiledNetlist>,
    values: Vec<u64>,
}

impl CombSim {
    /// Prepares an evaluator for `netlist`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the netlist has a
    /// combinational loop.
    pub fn new(netlist: &Netlist) -> Result<Self, NetlistError> {
        let kernel = netlist.compile()?;
        let values = kernel.fresh_values();
        Ok(CombSim { kernel, values })
    }

    /// Writes an input (or flip-flop pseudo-input) word.
    #[inline]
    pub fn set(&mut self, net: NetId, word: u64) {
        self.values[net.index()] = word;
    }

    /// Reads a net's word (valid after [`CombSim::eval`]).
    #[inline]
    pub fn get(&self, net: NetId) -> u64 {
        self.values[net.index()]
    }

    /// The full value buffer, indexed by net id.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Evaluates every combinational gate in schedule order.
    pub fn eval(&mut self) {
        self.kernel.eval(&mut self.values);
    }

    /// Clocks every flip-flop. Every `d` is sampled before any `q` is
    /// written, so a flip-flop fed by another one's `q` sees the pre-edge
    /// value.
    pub(crate) fn clock(&mut self) {
        let sampled: Vec<u64> = self
            .kernel
            .dff_d()
            .iter()
            .map(|&d| self.values[d as usize])
            .collect();
        self.set_dff_state(&sampled);
    }

    /// The flip-flop output words, in [`Netlist::dffs`] order.
    pub(crate) fn dff_state(&self) -> Vec<u64> {
        let dff_q = self.kernel.dff_q();
        dff_q.iter().map(|&q| self.values[q as usize]).collect()
    }

    /// Overwrites the flip-flop output words, in [`Netlist::dffs`] order.
    pub(crate) fn set_dff_state(&mut self, state: &[u64]) {
        let dff_q = self.kernel.dff_q();
        assert_eq!(state.len(), dff_q.len(), "state snapshot size");
        for (&q, &w) in dff_q.iter().zip(state) {
            self.values[q as usize] = w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_netlist::ModuleBuilder;

    #[test]
    fn evaluates_adder_correctly() {
        let mut mb = ModuleBuilder::new("add");
        let a = mb.input_bus("a", 8);
        let b = mb.input_bus("b", 8);
        let r = mb.add(&a, &b);
        mb.output_bus("sum", &r.sum);
        mb.output("cout", r.carry);
        let nl = mb.finish().unwrap();

        let mut sim = CombSim::new(&nl).unwrap();
        // 64 lanes: lane i computes i + 3*i.
        for bit in 0..8 {
            let mut wa = 0u64;
            let mut wb = 0u64;
            for lane in 0..64u64 {
                let x = lane & 0xFF;
                let y = (3 * lane) & 0xFF;
                wa |= ((x >> bit) & 1) << lane;
                wb |= ((y >> bit) & 1) << lane;
            }
            sim.set(nl.port("a").unwrap().bits()[bit as usize], wa);
            sim.set(nl.port("b").unwrap().bits()[bit as usize], wb);
        }
        sim.eval();
        for lane in 0..64u64 {
            let expect = (lane + 3 * lane) & 0xFF;
            let mut got = 0u64;
            for (bit, &net) in nl.port("sum").unwrap().bits().iter().enumerate() {
                got |= ((sim.get(net) >> lane) & 1) << bit;
            }
            assert_eq!(got, expect, "lane {lane}");
        }
    }

    #[test]
    fn constants_hold_their_value() {
        let mut mb = ModuleBuilder::new("c");
        let k = mb.constant(0b01, 2);
        mb.output_bus("k", &k);
        let nl = mb.finish().unwrap();
        let mut sim = CombSim::new(&nl).unwrap();
        sim.eval();
        let bits = nl.port("k").unwrap().bits();
        assert_eq!(sim.get(bits[0]), u64::MAX);
        assert_eq!(sim.get(bits[1]), 0);
    }
}
