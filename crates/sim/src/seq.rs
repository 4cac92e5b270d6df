//! Sequential 64-lane simulation with explicit flip-flop state.

use soctest_netlist::{NetId, Netlist, NetlistError, PortDir};

use crate::{broadcast, CombSim};

/// A cycle-accurate sequential simulator.
///
/// Each net carries 64 lanes (see the [crate docs](crate)); flip-flops hold
/// one word of state per lane set. A [`SeqSim::step`] evaluates the
/// combinational logic and then clocks every flip-flop.
///
/// The simulator is a front end over the netlist's compiled schedule; the
/// flip-flop state lives in the value buffer at the `q` nets.
#[derive(Debug, Clone)]
pub struct SeqSim<'a> {
    netlist: &'a Netlist,
    comb: CombSim,
    cycle: u64,
}

impl<'a> SeqSim<'a> {
    /// Prepares a simulator with all flip-flops reset to 0.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn new(netlist: &'a Netlist) -> Result<Self, NetlistError> {
        Ok(SeqSim {
            netlist,
            comb: CombSim::new(netlist)?,
            cycle: 0,
        })
    }

    /// The simulated netlist.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Number of clock cycles applied since construction or [`SeqSim::reset`].
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Resets all flip-flops to 0 and the cycle counter.
    pub fn reset(&mut self) {
        let zeros = vec![0u64; self.comb.dff_state().len()];
        self.comb.set_dff_state(&zeros);
        self.cycle = 0;
    }

    /// Writes a 64-lane input word.
    #[inline]
    pub fn set_input(&mut self, net: NetId, word: u64) {
        self.comb.set(net, word);
    }

    /// Writes the same boolean to all 64 lanes of an input.
    #[inline]
    pub fn set_input_bit(&mut self, net: NetId, bit: bool) {
        self.comb.set(net, broadcast(bit));
    }

    /// Writes a whole input port from a lane-0 integer, broadcast to all
    /// lanes (bit *i* of `value` goes to port bit *i*).
    ///
    /// Returns `false` if the port does not exist or is not an input.
    pub fn drive_port(&mut self, name: &str, value: u64) -> bool {
        match self.netlist.port(name) {
            Some(p) if p.dir() == PortDir::Input => {
                let bits: Vec<NetId> = p.bits().to_vec();
                for (i, net) in bits.into_iter().enumerate() {
                    self.set_input_bit(net, (value >> i) & 1 == 1);
                }
                true
            }
            _ => false,
        }
    }

    /// Evaluates combinational logic for the current cycle without clocking.
    pub fn eval_comb(&mut self) {
        self.comb.eval();
    }

    /// Clocks every flip-flop (their `d` pins must be up to date, i.e. call
    /// [`SeqSim::eval_comb`] first or use [`SeqSim::step`]).
    pub fn clock(&mut self) {
        self.comb.clock();
        self.cycle += 1;
    }

    /// One full clock cycle: evaluate, then clock.
    pub fn step(&mut self) {
        self.eval_comb();
        self.clock();
    }

    /// Reads a net's 64-lane word (valid after [`SeqSim::eval_comb`]).
    #[inline]
    pub fn get(&self, net: NetId) -> u64 {
        self.comb.get(net)
    }

    /// Reads one lane of an output port as an integer (bit *i* of the result
    /// is port bit *i* in that lane). Returns `None` for unknown ports.
    pub fn read_port_lane(&self, name: &str, lane: u32) -> Option<u64> {
        let p = self.netlist.port(name)?;
        let mut out = 0u64;
        for (i, &net) in p.bits().iter().enumerate() {
            out |= ((self.comb.get(net) >> lane) & 1) << i;
        }
        Some(out)
    }

    /// Snapshot of the flip-flop state words, in [`Netlist::dffs`] order.
    pub fn state(&self) -> Vec<u64> {
        self.comb.dff_state()
    }

    /// Restores a state snapshot taken with [`SeqSim::state`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot length does not match the flip-flop count.
    pub fn restore_state(&mut self, state: &[u64]) {
        self.comb.set_dff_state(state);
    }

    /// Access to the underlying combinational evaluator.
    pub fn comb(&self) -> &CombSim {
        &self.comb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_netlist::ModuleBuilder;

    fn counter() -> Netlist {
        let mut mb = ModuleBuilder::new("cnt");
        let en = mb.input("en");
        let clr = mb.input("clr");
        let q = mb.counter(8, en, clr);
        mb.output_bus("q", &q);
        mb.finish().unwrap()
    }

    #[test]
    fn counter_counts_and_clears() {
        let nl = counter();
        let mut sim = SeqSim::new(&nl).unwrap();
        sim.drive_port("en", 1);
        sim.drive_port("clr", 0);
        for _ in 0..10 {
            sim.step();
        }
        assert_eq!(sim.read_port_lane("q", 0), Some(10));
        assert_eq!(sim.read_port_lane("q", 63), Some(10));
        sim.drive_port("clr", 1);
        sim.step();
        assert_eq!(sim.read_port_lane("q", 7), Some(0));
        assert_eq!(sim.cycle(), 11);
    }

    #[test]
    fn enable_holds_value() {
        let nl = counter();
        let mut sim = SeqSim::new(&nl).unwrap();
        sim.drive_port("en", 1);
        sim.drive_port("clr", 0);
        sim.step();
        sim.step();
        sim.drive_port("en", 0);
        sim.step();
        sim.step();
        assert_eq!(sim.read_port_lane("q", 0), Some(2));
    }

    #[test]
    fn state_roundtrip() {
        let nl = counter();
        let mut sim = SeqSim::new(&nl).unwrap();
        sim.drive_port("en", 1);
        sim.drive_port("clr", 0);
        for _ in 0..5 {
            sim.step();
        }
        let snap = sim.state();
        for _ in 0..3 {
            sim.step();
        }
        assert_eq!(sim.read_port_lane("q", 0), Some(8));
        sim.restore_state(&snap);
        sim.eval_comb();
        assert_eq!(sim.read_port_lane("q", 0), Some(5));
    }

    #[test]
    fn drive_port_refuses_output_ports() {
        let nl = counter();
        let mut sim = SeqSim::new(&nl).unwrap();
        sim.drive_port("en", 1);
        sim.drive_port("clr", 0);
        for _ in 0..3 {
            sim.step();
        }
        let before = sim.state();
        assert!(!sim.drive_port("q", 0xA5));
        assert!(!sim.drive_port("no_such_port", 1));
        assert_eq!(sim.state(), before, "an output port must not be written");
        sim.eval_comb();
        assert_eq!(sim.read_port_lane("q", 0), Some(3));
    }

    #[test]
    fn reset_zeroes_state() {
        let nl = counter();
        let mut sim = SeqSim::new(&nl).unwrap();
        sim.drive_port("en", 1);
        sim.drive_port("clr", 0);
        sim.step();
        sim.reset();
        sim.eval_comb();
        assert_eq!(sim.read_port_lane("q", 0), Some(0));
        assert_eq!(sim.cycle(), 0);
    }
}
