//! The brute-force fault-simulation oracle.
//!
//! [`brute_force`] replays a fault campaign one fault at a time on the
//! naive [`RefMachine`]: one good machine, and per fault one forced
//! machine carrying the injected fault, compared cycle by cycle (or
//! pattern by pattern). It shares nothing with the fault simulators' window
//! loop, lane packing, merge or MISR read schedule — only the netlist, the
//! fault list, the result types and the thread count of a
//! [`ParallelPolicy`] — so it checks everything a simulator
//! reports ([`RefRun::check`]):
//!
//! * first-detection indices;
//! * syndrome streams (when collected);
//! * the survivor trajectory, derived from the detections: a fault survives
//!   a window if it is still undetected at the window's end.

use soctest_bist::Misr;
use soctest_fault::{
    Fault, FaultSimResult, FaultUniverse, ObserveMode, ParallelPolicy, SeqFaultSim,
    SeqFaultSimConfig, SeqStimulus, Syndrome,
};
use soctest_netlist::NetId;
use soctest_prng::SplitMix64;

use crate::reference::RefMachine;

/// A campaign for [`brute_force`] to replay.
#[derive(Debug, Clone, Copy)]
pub enum Campaign<'a> {
    /// A [`SeqFaultSim`] run from reset: `rows[t]` drives the primary
    /// inputs at cycle `t`. Survivors are counted every `window` cycles
    /// (0 counts as 1).
    Seq {
        /// One primary-input row per cycle.
        rows: &'a [Vec<bool>],
        /// How faults are observed.
        observe: &'a ObserveMode,
        /// Survivor-counting window, in cycles.
        window: u64,
    },
    /// A `CombFaultSim` run: every row is an independent pattern, and
    /// survivors are counted every 64 patterns. With a `state_map`
    /// (pseudo-input, pseudo-output pairs) it is a launch-on-capture
    /// transition run: the fault-free launch frame feeds the capture
    /// frame's pseudo-inputs, and a transition site's `prev` is its
    /// launch-frame value.
    Comb {
        /// One primary-input row per pattern.
        rows: &'a [Vec<bool>],
        /// Launch-on-capture state map, for transition runs.
        state_map: Option<&'a [(NetId, NetId)]>,
    },
}

/// The reference outcome of a campaign, field for field the checked part
/// of a [`FaultSimResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct RefRun {
    /// First-detection cycle (or pattern) per fault.
    pub detection: Vec<Option<u64>>,
    /// Per-fault syndromes, when collected.
    pub syndromes: Option<Vec<Syndrome>>,
    /// Undetected faults at the end of each window (or 64-pattern block).
    pub survivors: Vec<usize>,
}

impl RefRun {
    /// Compares a simulator result over `universe` against this reference:
    /// detections, the survivor trajectory and, when this run collected
    /// them, the syndrome streams. Returns the first difference.
    ///
    /// # Errors
    ///
    /// A one-line description of the first difference.
    pub fn check(&self, universe: &FaultUniverse, got: &FaultSimResult) -> Result<(), String> {
        if got.detection.len() != self.detection.len() {
            return Err(format!(
                "{} simulated faults vs {} reference faults",
                got.detection.len(),
                self.detection.len()
            ));
        }
        for (fi, (g, e)) in got.detection.iter().zip(&self.detection).enumerate() {
            if g != e {
                return Err(format!(
                    "fault {fi} ({}): simulator={g:?} reference={e:?}",
                    universe.describe(fi)
                ));
            }
        }
        if got.stats.survivors != self.survivors {
            return Err(format!(
                "survivors: simulator={:?} reference={:?}",
                got.stats.survivors, self.survivors
            ));
        }
        if let Some(expect) = &self.syndromes {
            let Some(syn) = &got.syndromes else {
                return Err("the simulator collected no syndromes".into());
            };
            if let Some(fi) = (0..expect.len()).find(|&fi| syn.get(fi) != Some(&expect[fi])) {
                return Err(format!(
                    "fault {fi} ({}): syndrome streams diverge",
                    universe.describe(fi)
                ));
            }
        }
        Ok(())
    }
}

/// One fault's part of a [`RefRun`].
#[derive(Debug, Clone)]
struct FaultRun {
    detection: Option<u64>,
    syndrome: Option<Syndrome>,
}

impl FaultRun {
    fn new(collect: bool) -> Self {
        FaultRun {
            detection: None,
            syndrome: collect.then(Syndrome::new),
        }
    }

    /// Whether the fault still needs simulating.
    fn live(&self) -> bool {
        self.syndrome.is_some() || self.detection.is_none()
    }

    /// Records the fault's observation `got` at cycle (or pattern) `t`
    /// against the good machine's; returns [`FaultRun::live`].
    fn record(&mut self, t: u64, good: &Observation, got: &Observation) -> bool {
        let events: Vec<(u64, u64)> = match (good, got) {
            (Observation::Bits(g), Observation::Bits(f)) => (0..g.len())
                .filter(|&oi| g[oi] != f[oi])
                .map(|oi| (t, oi as u64))
                .collect(),
            (Observation::Sig(_, g), Observation::Sig(read, f)) if g != f => vec![(*read, *f)],
            _ => Vec::new(),
        };
        if !events.is_empty() && self.detection.is_none() {
            self.detection = Some(t);
        }
        if let Some(syn) = &mut self.syndrome {
            for (when, what) in events {
                syn.record(when, what);
            }
        }
        self.live()
    }
}

/// One observation point of a run: the observed bits of a cycle (or
/// pattern), or a MISR read's `(read index, signature)`.
#[derive(Debug, Clone)]
enum Observation {
    Bits(Vec<bool>),
    Sig(u64, u64),
}

/// Replays `campaign` on `universe` by brute force; `collect` records
/// syndromes and simulates every fault to the end (otherwise a fault stops
/// at its first detection). Faults are independent, so they are sharded
/// over scoped threads; the result does not depend on the thread count.
pub fn brute_force(universe: &FaultUniverse, campaign: Campaign<'_>, collect: bool) -> RefRun {
    let faults = universe.faults();
    let threads = ParallelPolicy::default().workers_for(faults.len());
    let runs: Vec<FaultRun> = match campaign {
        Campaign::Seq { rows, observe, .. } => {
            let mut good = Vec::new();
            seq_observations(universe, observe, rows, None, |_, obs| {
                good.push(obs);
                true
            });
            sharded(threads, faults.len(), |shard| {
                shard
                    .map(|fi| {
                        let mut run = FaultRun::new(collect);
                        let mut k = 0;
                        seq_observations(universe, observe, rows, Some(faults[fi]), |t, obs| {
                            k += 1;
                            run.record(t, &good[k - 1], &obs)
                        });
                        run
                    })
                    .collect()
            })
        }
        Campaign::Comb { rows, state_map } => {
            let view = universe.view();
            let obs = universe.observe_nets();
            sharded(threads, faults.len(), |shard| {
                let shard: Vec<usize> = shard.collect();
                let mut runs = vec![FaultRun::new(collect); shard.len()];
                for (p, row) in rows.iter().enumerate() {
                    let mut good = RefMachine::new(view);
                    good.set_inputs(row);
                    good.settle();
                    let launch: Vec<bool> = (0..view.len())
                        .map(|i| good.value(NetId(i as u32)))
                        .collect();
                    if let Some(map) = state_map {
                        for &(ppi, ppo) in map {
                            good.set_input(ppi, launch[ppo.index()]);
                        }
                        good.settle();
                    }
                    let good_obs = Observation::Bits(obs.iter().map(|&o| good.value(o)).collect());
                    for (run, &fi) in runs.iter_mut().zip(&shard) {
                        if !run.live() {
                            continue;
                        }
                        let fault = faults[fi];
                        let mut m = good.clone();
                        m.inject(fault);
                        if state_map.is_some() {
                            m.set_prev(Some(launch[fault.net.index()]));
                        }
                        m.settle();
                        let got = Observation::Bits(obs.iter().map(|&o| m.value(o)).collect());
                        run.record(p as u64, &good_obs, &got);
                    }
                }
                runs
            })
        }
    };
    let detection: Vec<Option<u64>> = runs.iter().map(|r| r.detection).collect();
    let survivors = match campaign {
        // The window loop stops once every fault is dropped.
        Campaign::Seq { rows, window, .. } => {
            let window = window.max(1);
            let cycles = rows.len() as u64;
            let mut survivors = Vec::new();
            let (mut start, mut active) = (0u64, detection.len());
            while start < cycles && active > 0 {
                let end = (start + window).min(cycles);
                let s = undetected_at(&detection, end);
                survivors.push(s);
                if !collect {
                    active = s;
                }
                start = end;
            }
            survivors
        }
        Campaign::Comb { rows, .. } => (0..rows.len().div_ceil(64))
            .map(|b| undetected_at(&detection, (b as u64 + 1) * 64))
            .collect(),
    };
    RefRun {
        detection,
        syndromes: collect.then(|| runs.into_iter().flat_map(|r| r.syndrome).collect()),
        survivors,
    }
}

/// The fault indices of one shard.
type Shard = std::iter::StepBy<std::ops::Range<usize>>;

/// Runs `shard` over the fault indices `0..n` split round-robin across
/// `threads` (at least 1) scoped threads (shard `t` of `T` gets
/// `t, t + T, t + 2T, …`), and returns the per-fault results in fault
/// order.
fn sharded<T: Send>(threads: usize, n: usize, shard: impl Fn(Shard) -> Vec<T> + Sync) -> Vec<T> {
    let shards: Vec<Vec<T>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let shard = &shard;
                s.spawn(move || shard((t..n).step_by(threads)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut iters: Vec<_> = shards.into_iter().map(Vec::into_iter).collect();
    (0..n).filter_map(|fi| iters[fi % threads].next()).collect()
}

/// Faults not yet detected before cycle `end`.
fn undetected_at(detection: &[Option<u64>], end: u64) -> usize {
    detection
        .iter()
        .filter(|d| d.is_none_or(|t| t >= end))
        .count()
}

/// Runs one machine (good, or carrying `fault`) from reset over `rows`,
/// handing every observation point to `visit` until it returns `false`.
fn seq_observations(
    universe: &FaultUniverse,
    observe: &ObserveMode,
    rows: &[Vec<bool>],
    fault: Option<Fault>,
    mut visit: impl FnMut(u64, Observation) -> bool,
) {
    let nets: &[NetId] = match observe {
        ObserveMode::Nets(nets) => nets,
        ObserveMode::Outputs | ObserveMode::Misr { .. } => universe.observe_nets(),
    };
    let mut misr = match *observe {
        ObserveMode::Misr {
            width,
            taps,
            read_every,
        } => Some((Misr::with_taps(width, taps), read_every.max(1))),
        _ => None,
    };
    let cycles = rows.len() as u64;
    let mut reads = 0u64;
    let mut m = RefMachine::new(universe.view());
    if let Some(f) = fault {
        m.inject(f);
    }
    for (t, row) in (0u64..).zip(rows) {
        m.set_inputs(row);
        m.settle();
        let bits: Vec<bool> = nets.iter().map(|&o| m.value(o)).collect();
        let obs = match &mut misr {
            None => Some(Observation::Bits(bits)),
            Some((reg, read_every)) => {
                reg.absorb_folded(&bits);
                ((t + 1) % *read_every == 0 || t + 1 == cycles).then(|| {
                    reads += 1;
                    Observation::Sig(reads - 1, reg.signature())
                })
            }
        };
        if let Some(obs) = obs {
            if !visit(t, obs) {
                return;
            }
        }
        m.clock();
    }
}

/// Materializes `stim` as one primary-input row per cycle.
pub fn stimulus_rows(stim: &mut dyn SeqStimulus, width: usize) -> Vec<Vec<bool>> {
    (0..stim.cycles())
        .map(|t| {
            let mut row = vec![false; width];
            stim.fill(t, &mut row);
            row
        })
        .collect()
}

/// Runs [`SeqFaultSim`] under `config` on `rows` and checks it against
/// [`brute_force`] with the same observation, window and syndrome setting.
/// Returns the simulator's result.
///
/// # Errors
///
/// The first difference (see [`RefRun::check`]).
pub fn seq_check(
    universe: &FaultUniverse,
    rows: &[Vec<bool>],
    config: SeqFaultSimConfig,
) -> Result<FaultSimResult, String> {
    let reference = brute_force(
        universe,
        Campaign::Seq {
            rows,
            observe: &config.observe,
            window: config.window,
        },
        config.collect_syndromes,
    );
    let mut stim = (rows.len() as u64, |t: u64, out: &mut [bool]| {
        out.copy_from_slice(&rows[t as usize]);
    });
    let got = SeqFaultSim::new(universe, config)
        .run(&mut stim)
        .map_err(|e| format!("fault sim: {e}"))?;
    reference.check(universe, &got)?;
    Ok(got)
}

/// A seeded sample of `n` of `universe`'s faults, in universe order (the
/// whole universe when it has at most `n`).
pub fn sample(universe: &FaultUniverse, n: usize, seed: u64) -> FaultUniverse {
    // Partial Fisher-Yates: the first `n` slots of a shuffled index list.
    let mut idx: Vec<usize> = (0..universe.len()).collect();
    let n = n.min(idx.len());
    let mut rng = SplitMix64::new(seed);
    for i in 0..n {
        let j = i + rng.gen_index(idx.len() - i);
        idx.swap(i, j);
    }
    let mut keep = vec![false; idx.len()];
    for &i in &idx[..n] {
        keep[i] = true;
    }
    let mut sampled = universe.clone();
    sampled.retain_faults(|i| keep[i]);
    sampled
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_netlist::{ModuleBuilder, Netlist};

    /// Combinational XOR/AND block behind a register.
    fn small_seq() -> Netlist {
        let mut mb = ModuleBuilder::new("blk");
        let a = mb.input_bus("a", 4);
        let x0 = mb.xor(a[0], a[1]);
        let x1 = mb.and(a[2], a[3]);
        let o = mb.or(x0, x1);
        let q = mb.register(&[x0, x1, o]);
        mb.output_bus("q", &q);
        mb.finish().unwrap()
    }

    /// The 16 input combinations of `small_seq`, swept three times.
    fn sweep_rows() -> Vec<Vec<bool>> {
        (0..48u64)
            .map(|v| (0..4).map(|i| (v >> i) & 1 == 1).collect())
            .collect()
    }

    fn config(observe: ObserveMode) -> SeqFaultSimConfig {
        SeqFaultSimConfig {
            window: 8,
            observe,
            collect_syndromes: true,
            ..Default::default()
        }
    }

    /// The kernel sequential simulator matches the brute-force reference
    /// across universes and observation modes — detections, syndrome
    /// streams, and per-window survivor counts alike.
    #[test]
    fn seq_fault_sim_matches_brute_force() {
        let nl = small_seq();
        for universe in [FaultUniverse::stuck_at(&nl), FaultUniverse::transition(&nl)] {
            for observe in [ObserveMode::Outputs, ObserveMode::misr_default(16, 5)] {
                for collect_syndromes in [false, true] {
                    let cfg = SeqFaultSimConfig {
                        collect_syndromes,
                        ..config(observe.clone())
                    };
                    let got = seq_check(&universe, &sweep_rows(), cfg)
                        .unwrap_or_else(|d| panic!("observe={observe:?}: {d}"));
                    assert!(got.detected_count() > 0);
                }
            }
        }
    }

    /// Stuck-at and launch-on-capture transition detections of the
    /// combinational simulator match the reference on a fixed adder view.
    #[test]
    fn comb_fault_sim_matches_brute_force() {
        let mut mb = ModuleBuilder::new("pipe_view");
        let ppi = mb.input_bus("ppi", 6);
        let s = mb.add(&ppi[..3], &ppi[3..]);
        mb.output_bus("ppo", &s.sum);
        mb.output("carry", s.carry);
        let nl = mb.finish().unwrap();
        assert_eq!(crate::pairs::kernel_comb_divergence(&nl, &nl, 3), None);
    }

    /// The check behind `repro --bench-faultsim` rejects a result that is
    /// off by one detection index, one survivor count, or one syndrome.
    #[test]
    fn check_rejects_a_single_perturbation() {
        let nl = small_seq();
        let u = FaultUniverse::stuck_at(&nl);
        let rows = sweep_rows();
        let observe = ObserveMode::Outputs;
        let good = seq_check(&u, &rows, config(observe.clone())).unwrap();
        let reference = brute_force(
            &u,
            Campaign::Seq {
                rows: &rows,
                observe: &observe,
                window: 8,
            },
            true,
        );
        reference.check(&u, &good).unwrap();

        let fi = good.detection.iter().position(Option::is_some).unwrap();
        let mut bad = good.clone();
        bad.detection[fi] = bad.detection[fi].map(|t| t + 1);
        assert!(reference
            .check(&u, &bad)
            .unwrap_err()
            .contains("reference="));

        let mut bad = good.clone();
        bad.stats.survivors[0] += 1;
        assert!(reference
            .check(&u, &bad)
            .unwrap_err()
            .starts_with("survivors"));

        let mut bad = good.clone();
        bad.syndromes.as_mut().unwrap()[fi].record(999, 0);
        assert!(reference.check(&u, &bad).unwrap_err().contains("syndrome"));
    }

    /// Shards merge back in fault order whatever the thread count.
    #[test]
    fn shards_merge_in_fault_order() {
        for threads in 1..=5 {
            for n in 0..12 {
                let got = sharded(threads, n, |shard| shard.collect());
                assert_eq!(
                    got,
                    (0..n).collect::<Vec<_>>(),
                    "{threads} threads, {n} faults"
                );
            }
        }
    }

    #[test]
    fn sample_is_seeded_and_ordered() {
        let nl = small_seq();
        let u = FaultUniverse::stuck_at(&nl);
        let a = sample(&u, 5, 7);
        assert_eq!(a.len(), 5);
        assert_eq!(a.faults(), sample(&u, 5, 7).faults());
        assert_ne!(a.faults(), sample(&u, 5, 8).faults());
        let pos: Vec<usize> = a
            .faults()
            .iter()
            .map(|f| u.faults().iter().position(|g| g == f).unwrap())
            .collect();
        assert!(pos.windows(2).all(|w| w[0] < w[1]), "universe order kept");
        assert_eq!(sample(&u, u.len(), 1).faults(), u.faults());
    }
}
