//! Bit-parallel logic simulation for `soctest` netlists.
//!
//! The simulators here evaluate 64 independent "lanes" per pass: each net is
//! represented by a `u64` whose bit *i* is the net's value in lane *i*.
//! Lanes are used two ways across the workspace:
//!
//! * **64 patterns at once** for combinational circuits (ATPG fault
//!   simulation, signature checks), via [`CombSim`];
//! * **64 machines at once** for sequential circuits, via [`SeqSim`]:
//!   every lane carries its own flip-flop state under the same per-cycle
//!   stimulus.
//!
//! Both are front ends over the netlist's compiled schedule
//! ([`soctest_netlist::CompiledNetlist`]), the workspace's one
//! gate-evaluation engine.
//!
//! [`ToggleMonitor`] implements the toggle-activity metric of the paper's
//! step-1 evaluation loop (Fig. 3): the percentage of nets that were driven
//! both to 0 and to 1 by the applied patterns.
//!
//! # Example
//!
//! ```
//! use soctest_netlist::ModuleBuilder;
//! use soctest_sim::SeqSim;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mb = ModuleBuilder::new("cnt");
//! let en = mb.input("en");
//! let clr = mb.input("clr");
//! let q = mb.counter(4, en, clr);
//! mb.output_bus("q", &q);
//! let nl = mb.finish()?;
//!
//! let mut sim = SeqSim::new(&nl)?;
//! sim.set_input_bit(nl.port("en").unwrap().bits()[0], true);
//! sim.set_input_bit(nl.port("clr").unwrap().bits()[0], false);
//! for _ in 0..5 {
//!     sim.step();
//! }
//! assert_eq!(sim.read_port_lane("q", 0), Some(5));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod comb;
mod seq;
mod toggle;
mod vcd;

pub use comb::CombSim;
pub use seq::SeqSim;
pub use toggle::{ToggleMonitor, ToggleReport};
pub use vcd::VcdProbe;

/// Broadcasts a boolean to a full 64-lane word.
#[inline]
pub fn broadcast(bit: bool) -> u64 {
    if bit {
        u64::MAX
    } else {
        0
    }
}

/// Packs up to 64 booleans into a lane word (element *i* goes to bit *i*).
///
/// # Panics
///
/// Panics if more than 64 booleans are supplied.
pub fn pack_lanes(bits: &[bool]) -> u64 {
    assert!(bits.len() <= 64, "at most 64 lanes per word");
    bits.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_and_pack() {
        assert_eq!(broadcast(true), u64::MAX);
        assert_eq!(broadcast(false), 0);
        assert_eq!(pack_lanes(&[true, false, true]), 0b101);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn pack_rejects_overwide() {
        let bits = vec![false; 65];
        let _ = pack_lanes(&bits);
    }
}
