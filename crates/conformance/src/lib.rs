//! Differential conformance harness for the BIST/P1500 stack.
//!
//! The repo contains several *independently implemented* pairs of engines
//! that must agree bit for bit: the 64-lane simulators vs a naive
//! interpreter, the fault simulators' zero-fault good machines vs `sim`,
//! behavioral BIST blocks vs their `bist::structural` netlists, and the
//! TAP/P1500 driver vs the structural wrapper. This crate fuzzes all of
//! them with seeded random netlists and a deliberately naive reference
//! model, so that the next silent divergence (PR 2 caught two by hand) is
//! found by a machine.
//!
//! Layout:
//! * [`generator`] — seeded random netlist/FSM generator;
//! * [`reference`] — the naive fixpoint interpreter ([`RefMachine`]);
//! * [`oracle`] — the brute-force good-vs-forced fault-simulation runner
//!   on [`RefMachine`], the reference both fault simulators are checked
//!   against;
//! * [`pairs`] — one differential runner per redundant engine pair;
//! * [`selftest`] — mutation self-test that verifies the oracle itself;
//! * [`report`] — mismatch reports, netlist dump/replay, and the greedy
//!   minimizer;
//! * [`fleet`] — fleet-vs-standalone leg: sampled fleet dies replayed as
//!   from-scratch gate-level sessions, verdicts compared exactly.
//!
//! The `difftest` binary drives everything:
//!
//! ```text
//! cargo run --release -p soctest-conformance --bin difftest -- --seeds 100
//! cargo run --release -p soctest-conformance --bin difftest -- --self-test
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod generator;
pub mod oracle;
pub mod pairs;
pub mod reference;
pub mod report;
pub mod selftest;

pub use fleet::{fleet_difftest, FleetDiffOutcome, FleetMismatch};
pub use generator::{random_netlist, GeneratorConfig};
pub use oracle::{brute_force, seq_check, Campaign, RefRun};
pub use pairs::{run_all_pairs, PAIR_NAMES};
pub use reference::RefMachine;
pub use report::{dump_netlist, minimize, parse_netlist, render_report, Mismatch};
pub use selftest::{mutation_self_test, MutationOutcome};
