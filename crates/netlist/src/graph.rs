//! The flat gate graph: ports, validation, levelization, hierarchy merging.

use std::collections::HashMap;

use crate::{Gate, GateKind, NetId, NetlistError, NetlistStats, PinIndex};

/// Direction of a [`Port`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Driven from outside the module.
    Input,
    /// Observed from outside the module.
    Output,
}

/// A named bus of nets at the module boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    name: String,
    dir: PortDir,
    bits: Vec<NetId>,
}

impl Port {
    /// The port name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The port direction.
    pub fn dir(&self) -> PortDir {
        self.dir
    }

    /// The nets carried by the port, LSB first.
    pub fn bits(&self) -> &[NetId] {
        &self.bits
    }

    /// Bus width in bits.
    pub fn width(&self) -> usize {
        self.bits.len()
    }
}

/// A flat, single-clock gate-level netlist.
///
/// Construct one through [`crate::ModuleBuilder`] (preferred) or by calling
/// [`Netlist::add_gate`] directly. See the crate-level docs for the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    name: String,
    gates: Vec<Gate>,
    ports: Vec<Port>,
    labels: HashMap<NetId, String>,
}

impl Netlist {
    /// Creates an empty netlist with the given module name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            gates: Vec::new(),
            ports: Vec::new(),
            labels: HashMap::new(),
        }
    }

    /// The module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the module.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of gates (equivalently, nets).
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the netlist has no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Appends a gate and returns the net it drives.
    ///
    /// # Panics
    ///
    /// Panics if `pins.len() != kind.arity()` or a pin references a net that
    /// does not exist yet (forward references are not allowed except through
    /// [`Netlist::set_pin`], used to close register feedback loops).
    pub fn add_gate(&mut self, kind: GateKind, pins: Vec<NetId>) -> NetId {
        let id = NetId(self.gates.len() as u32);
        for &p in &pins {
            assert!(
                p.index() < self.gates.len(),
                "pin {p} of new gate {id} is a forward reference"
            );
        }
        self.gates.push(Gate::new(kind, pins));
        id
    }

    /// Appends a gate *allowing forward references* — used to create
    /// flip-flops whose `d` pin is wired up later via [`Netlist::set_pin`],
    /// and by view-construction passes that copy gates verbatim. Call
    /// [`Netlist::validate`] once construction is complete.
    pub fn add_gate_unchecked(&mut self, kind: GateKind, pins: Vec<NetId>) -> NetId {
        let id = NetId(self.gates.len() as u32);
        self.gates.push(Gate::new(kind, pins));
        id
    }

    /// Rewires pin `pin` of the gate driving `gate` to `net`.
    ///
    /// # Panics
    ///
    /// Panics if the gate or pin index is out of range.
    pub fn set_pin(&mut self, gate: NetId, pin: PinIndex, net: NetId) {
        self.gates[gate.index()].pins[pin as usize] = net;
    }

    /// Forces net `id` to a constant: the driving gate is replaced by
    /// `Const1`/`Const0` and its input pins are disconnected. Models a
    /// stuck-at defect at the node for fault-injection experiments; the
    /// netlist stays valid (constants are legal sources).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn force_constant(&mut self, id: NetId, value: bool) {
        let gate = &mut self.gates[id.index()];
        gate.kind = if value {
            GateKind::Const1
        } else {
            GateKind::Const0
        };
        gate.pins.clear();
    }

    /// Replaces the kind of the gate driving `id`, keeping its pins — the
    /// mutation hook for conformance testing (e.g. And↔Nand polarity
    /// flips). The new kind must consume the same number of pins.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or `kind` has a different arity.
    pub fn set_gate_kind(&mut self, id: NetId, kind: GateKind) {
        let gate = &mut self.gates[id.index()];
        assert_eq!(
            gate.pins.len(),
            kind.arity(),
            "replacement kind must keep the pin count of {:?}",
            gate.kind
        );
        gate.kind = kind;
    }

    /// The gate driving `id`.
    pub fn gate(&self, id: NetId) -> &Gate {
        &self.gates[id.index()]
    }

    /// All gates, indexed by the net they drive.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Iterator over `(NetId, &Gate)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NetId, &Gate)> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (NetId(i as u32), g))
    }

    /// Attaches a debug label to a net (used in fault and timing reports).
    pub fn set_label(&mut self, id: NetId, label: impl Into<String>) {
        self.labels.insert(id, label.into());
    }

    /// The label of a net, if any.
    pub fn label(&self, id: NetId) -> Option<&str> {
        self.labels.get(&id).map(String::as_str)
    }

    /// A human-readable name for a net: its label if present, else
    /// `"<mnemonic>_<id>"`.
    pub fn describe(&self, id: NetId) -> String {
        match self.label(id) {
            Some(l) => l.to_owned(),
            None => format!("{}_{}", self.gate(id).kind.mnemonic(), id.0),
        }
    }

    /// Declares a port over existing nets.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicatePort`] if a port of the same name
    /// already exists, and [`NetlistError::EmptyBus`] for zero-width buses.
    pub fn add_port(
        &mut self,
        dir: PortDir,
        name: impl Into<String>,
        bits: Vec<NetId>,
    ) -> Result<(), NetlistError> {
        let name = name.into();
        if bits.is_empty() {
            return Err(NetlistError::EmptyBus { name });
        }
        if self.ports.iter().any(|p| p.name == name) {
            return Err(NetlistError::DuplicatePort { name });
        }
        self.ports.push(Port { name, dir, bits });
        Ok(())
    }

    /// All ports in declaration order.
    pub fn ports(&self) -> &[Port] {
        &self.ports
    }

    /// Input ports in declaration order.
    pub fn input_ports(&self) -> Vec<&Port> {
        self.ports
            .iter()
            .filter(|p| p.dir == PortDir::Input)
            .collect()
    }

    /// Output ports in declaration order.
    pub fn output_ports(&self) -> Vec<&Port> {
        self.ports
            .iter()
            .filter(|p| p.dir == PortDir::Output)
            .collect()
    }

    /// Looks a port up by name.
    pub fn port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// All primary-input nets, in port order then bit order.
    pub fn primary_inputs(&self) -> Vec<NetId> {
        self.input_ports()
            .iter()
            .flat_map(|p| p.bits.iter().copied())
            .collect()
    }

    /// All primary-output nets, in port order then bit order.
    pub fn primary_outputs(&self) -> Vec<NetId> {
        self.output_ports()
            .iter()
            .flat_map(|p| p.bits.iter().copied())
            .collect()
    }

    /// Total primary-input width.
    pub fn input_width(&self) -> usize {
        self.input_ports().iter().map(|p| p.width()).sum()
    }

    /// Total primary-output width.
    pub fn output_width(&self) -> usize {
        self.output_ports().iter().map(|p| p.width()).sum()
    }

    /// Nets driven by flip-flops, in id order.
    pub fn dffs(&self) -> Vec<NetId> {
        self.iter()
            .filter(|(_, g)| g.kind == GateKind::Dff)
            .map(|(id, _)| id)
            .collect()
    }

    /// Number of flip-flops.
    pub fn dff_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| g.kind == GateKind::Dff)
            .count()
    }

    /// Checks structural sanity: pin references in range.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DanglingNet`] on the first out-of-range pin.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (id, gate) in self.iter() {
            for &p in &gate.pins {
                if p.index() >= self.gates.len() {
                    return Err(NetlistError::DanglingNet {
                        gate: id,
                        missing: p,
                    });
                }
            }
        }
        Ok(())
    }

    /// Computes a combinational topological order.
    ///
    /// Sources (inputs, constants, flip-flop outputs) are omitted; the
    /// returned vector lists every *combinational* gate such that all its
    /// combinational predecessors appear earlier. Flip-flop `d` pins are
    /// sinks and impose no ordering.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the combinational
    /// subgraph is cyclic.
    pub fn levelize(&self) -> Result<Vec<NetId>, NetlistError> {
        let n = self.gates.len();
        let mut indegree = vec![0u32; n];
        let mut fanout: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (id, gate) in self.iter() {
            if gate.kind.is_source() {
                continue;
            }
            indegree[id.index()] = gate.pins.len() as u32;
            for &p in &gate.pins {
                fanout[p.index()].push(id.0);
            }
        }
        let mut order = Vec::with_capacity(n);
        // Retire all sources first, then gather every combinational gate
        // whose inputs are fully satisfied in a single pass (pushing inside
        // the decrement loop would double-queue gates the seed loop has not
        // reached yet).
        for (id, gate) in self.iter() {
            if gate.kind.is_source() {
                for &s in &fanout[id.index()] {
                    indegree[s as usize] -= 1;
                }
            }
        }
        let mut ready: Vec<u32> = self
            .iter()
            .filter(|(id, g)| !g.kind.is_source() && indegree[id.index()] == 0)
            .map(|(id, _)| id.0)
            .collect();
        while let Some(g) = ready.pop() {
            order.push(NetId(g));
            for &s in &fanout[g as usize] {
                indegree[s as usize] -= 1;
                if indegree[s as usize] == 0 {
                    ready.push(s);
                }
            }
        }
        let comb_count = self.gates.iter().filter(|g| !g.kind.is_source()).count();
        if order.len() != comb_count {
            let on_cycle = self
                .iter()
                .find(|(id, g)| !g.kind.is_source() && indegree[id.index()] > 0)
                .map(|(id, _)| id)
                .unwrap_or(NetId(0));
            return Err(NetlistError::CombinationalCycle { on_cycle });
        }
        Ok(order)
    }

    /// Computes the logic level of every net: sources are level 0 and each
    /// combinational gate is one more than its deepest predecessor.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError::CombinationalCycle`] from
    /// [`Netlist::levelize`].
    pub fn levels(&self) -> Result<Vec<u32>, NetlistError> {
        let order = self.levelize()?;
        let mut level = vec![0u32; self.gates.len()];
        for id in order {
            let gate = &self.gates[id.index()];
            level[id.index()] = gate
                .pins
                .iter()
                .map(|p| level[p.index()])
                .max()
                .unwrap_or(0)
                + 1;
        }
        Ok(level)
    }

    /// Gathers gate-count statistics.
    pub fn stats(&self) -> NetlistStats {
        NetlistStats::of(self)
    }

    /// Copies `other` into `self`, wiring each of `other`'s input ports to
    /// the nets supplied in `input_map` (keyed by port name) and returning
    /// `other`'s output ports remapped into `self`'s id space.
    ///
    /// Gates of `other` that are [`GateKind::Input`] are *not* copied; every
    /// reference to them is redirected through the map. Labels are copied
    /// with the prefix `"{other.name}."`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::WidthMismatch`] if a mapped bus has the wrong
    /// width, and [`NetlistError::DanglingNet`] if an input port of `other`
    /// is missing from `input_map`.
    pub fn instantiate(
        &mut self,
        other: &Netlist,
        input_map: &HashMap<String, Vec<NetId>>,
    ) -> Result<HashMap<String, Vec<NetId>>, NetlistError> {
        let mut remap: Vec<Option<NetId>> = vec![None; other.gates.len()];
        for port in other.input_ports() {
            let mapped = input_map
                .get(port.name())
                .ok_or(NetlistError::DanglingNet {
                    gate: port.bits()[0],
                    missing: port.bits()[0],
                })?;
            if mapped.len() != port.width() {
                return Err(NetlistError::WidthMismatch {
                    left: mapped.len(),
                    right: port.width(),
                    op: "instantiate",
                });
            }
            for (&bit, &target) in port.bits().iter().zip(mapped) {
                remap[bit.index()] = Some(target);
            }
        }
        // First pass: allocate ids for all copied gates (inputs excluded).
        let base = self.gates.len() as u32;
        let mut next = base;
        for (id, gate) in other.iter() {
            if gate.kind == GateKind::Input {
                continue;
            }
            remap[id.index()] = Some(NetId(next));
            next += 1;
        }
        // Second pass: push gates with remapped pins.
        for (id, gate) in other.iter() {
            if gate.kind == GateKind::Input {
                continue;
            }
            let pins = gate
                .pins
                .iter()
                .map(|p| {
                    remap[p.index()].ok_or(NetlistError::DanglingNet {
                        gate: id,
                        missing: *p,
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            self.gates.push(Gate::new(gate.kind, pins));
        }
        for (id, label) in &other.labels {
            if let Some(new_id) = remap[id.index()] {
                self.labels
                    .insert(new_id, format!("{}.{}", other.name, label));
            }
        }
        let mut outputs = HashMap::new();
        for port in other.output_ports() {
            let bits = port
                .bits()
                .iter()
                .map(|b| {
                    remap[b.index()].ok_or(NetlistError::DanglingNet {
                        gate: *b,
                        missing: *b,
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            outputs.insert(port.name().to_owned(), bits);
        }
        Ok(outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Netlist {
        // c = a AND b; out port on c.
        let mut nl = Netlist::new("tiny");
        let a = nl.add_gate(GateKind::Input, vec![]);
        let b = nl.add_gate(GateKind::Input, vec![]);
        let c = nl.add_gate(GateKind::And, vec![a, b]);
        nl.add_port(PortDir::Input, "a", vec![a]).unwrap();
        nl.add_port(PortDir::Input, "b", vec![b]).unwrap();
        nl.add_port(PortDir::Output, "c", vec![c]).unwrap();
        nl
    }

    #[test]
    fn ports_and_widths() {
        let nl = tiny();
        assert_eq!(nl.input_width(), 2);
        assert_eq!(nl.output_width(), 1);
        assert_eq!(nl.primary_inputs().len(), 2);
        assert!(nl.port("c").is_some());
        assert!(nl.port("zzz").is_none());
    }

    #[test]
    fn duplicate_port_rejected() {
        let mut nl = tiny();
        let extra = nl.add_gate(GateKind::Const0, vec![]);
        let err = nl.add_port(PortDir::Output, "c", vec![extra]).unwrap_err();
        assert!(matches!(err, NetlistError::DuplicatePort { .. }));
    }

    #[test]
    fn levelize_orders_predecessors_first() {
        let mut nl = Netlist::new("chain");
        let a = nl.add_gate(GateKind::Input, vec![]);
        let n1 = nl.add_gate(GateKind::Not, vec![a]);
        let n2 = nl.add_gate(GateKind::Not, vec![n1]);
        let n3 = nl.add_gate(GateKind::And, vec![n1, n2]);
        let order = nl.levelize().unwrap();
        let pos = |id: NetId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(n1) < pos(n2));
        assert!(pos(n2) < pos(n3));
        let levels = nl.levels().unwrap();
        assert_eq!(levels[n3.index()], 3);
    }

    #[test]
    fn cycle_detected() {
        let mut nl = Netlist::new("cyclic");
        let a = nl.add_gate(GateKind::Input, vec![]);
        // g = AND(a, g) — a combinational self-loop built via set_pin.
        let g = nl.add_gate(GateKind::And, vec![a, a]);
        nl.set_pin(g, 1, g);
        assert!(matches!(
            nl.levelize(),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn dff_breaks_cycles() {
        let mut nl = Netlist::new("toggler");
        // q = DFF(not q): classic toggle flop; must levelize fine.
        let q = nl.add_gate_unchecked(GateKind::Dff, vec![NetId(1)]);
        let nq = nl.add_gate(GateKind::Not, vec![q]);
        nl.set_pin(q, 0, nq);
        assert!(nl.levelize().is_ok());
        assert_eq!(nl.dff_count(), 1);
    }

    #[test]
    fn instantiate_remaps_everything() {
        let inner = tiny();
        let mut outer = Netlist::new("outer");
        let x = outer.add_gate(GateKind::Input, vec![]);
        let y = outer.add_gate(GateKind::Input, vec![]);
        let map = HashMap::from([("a".to_owned(), vec![x]), ("b".to_owned(), vec![y])]);
        let outs = outer.instantiate(&inner, &map).unwrap();
        let c = outs["c"][0];
        assert_eq!(outer.gate(c).kind, GateKind::And);
        assert_eq!(outer.gate(c).pins, vec![x, y]);
    }

    #[test]
    fn instantiate_checks_widths() {
        let inner = tiny();
        let mut outer = Netlist::new("outer");
        let x = outer.add_gate(GateKind::Input, vec![]);
        let map = HashMap::from([("a".to_owned(), vec![x, x]), ("b".to_owned(), vec![x])]);
        assert!(matches!(
            outer.instantiate(&inner, &map),
            Err(NetlistError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn describe_uses_labels() {
        let mut nl = tiny();
        nl.set_label(NetId(2), "and_out");
        assert_eq!(nl.describe(NetId(2)), "and_out");
        assert!(nl.describe(NetId(0)).starts_with("in_"));
    }

    #[test]
    fn set_gate_kind_keeps_pins_and_checks_arity() {
        let mut nl = tiny();
        let pins_before = nl.gate(NetId(2)).pins.clone();
        nl.set_gate_kind(NetId(2), GateKind::Nand);
        assert_eq!(nl.gate(NetId(2)).kind, GateKind::Nand);
        assert_eq!(nl.gate(NetId(2)).pins, pins_before);
        assert!(nl.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "pin count")]
    fn set_gate_kind_rejects_arity_changes() {
        let mut nl = tiny();
        nl.set_gate_kind(NetId(2), GateKind::Not);
    }
}
