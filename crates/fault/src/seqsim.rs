//! Parallel-fault sequential fault simulation.
//!
//! Up to 64 faulty machines share the 64 lanes of a word: lane *i* carries
//! machine *i*'s deviation from the good machine. All machines receive the
//! same per-cycle stimulus — exactly the situation of a BIST run, where the
//! pattern generator feeds every module one pattern per clock.
//!
//! Simulation proceeds in *windows*: the good machine's trajectory over the
//! window (every net's value per cycle as a packed bitmap, MISR signatures
//! at read boundaries, and the next flip-flop state) is computed **once**
//! on the compiled kernel, then every 64-fault lane chunk is simulated
//! against that trace. Chunks are independent, so they are sharded across a
//! scoped worker pool ([`ParallelPolicy`]); per-chunk detections and
//! syndrome events are merged in chunk order, which makes a `threads: N`
//! run bit-identical to `threads: 1`. After each window, detected faults
//! are dropped and the survivors (which carry their flip-flop state, their
//! MISR state, and the previous value of their fault site for transition
//! faults) are repacked into fewer, denser lane groups. Random patterns
//! detect most faults early, so the survivor tail is short and the
//! windowed schedule approaches good-machine-only cost.
//!
//! A chunk re-evaluates incrementally against the cached good trace: each
//! cycle starts from the good row and sweeps only the gates that can
//! actually deviate — seeded from the injection sites and from flip-flops
//! whose lane word differs from the good machine, expanding along the
//! kernel's scheduled fanout lists in topological order. Every net the
//! sweep never touches holds the good value by construction. Sequential
//! state is tracked just as sparsely: a bitmap marks the deviating
//! flip-flops, and the clock edge only visits flip-flops whose `d` net was
//! stored with a deviation this cycle (via the kernel's sequential-sink
//! CSR) — so per-cycle chunk cost follows the size of the deviated region,
//! not the size of the netlist.
//!
//! Detections, syndrome streams and per-window survivors are checked
//! against brute-force good-vs-forced runs of the naive reference
//! interpreter (`RefMachine` in `crates/conformance`): the `kernel`
//! conformance pair on generated netlists, and `repro --bench-faultsim` on
//! the case-study modules.

use std::collections::HashMap;
use std::time::Instant;

use soctest_netlist::{CompiledNetlist, NetId, NetlistError};
use soctest_obs::{ProfileHandle, TraceEvent, TraceHandle};

use crate::stimulus::StimulusMatrix;
use crate::{
    Fault, FaultKind, FaultSimResult, FaultSimStats, FaultUniverse, ParallelPolicy, SeqStimulus,
    Syndrome,
};

/// How fault effects are observed.
#[derive(Debug, Clone)]
pub enum ObserveMode {
    /// Compare the universe's observation nets (default: primary outputs)
    /// to the good machine every cycle — the ideal "fault simulator tool"
    /// view used for the paper's coverage figures.
    Outputs,
    /// Compare an explicit set of nets every cycle.
    Nets(Vec<NetId>),
    /// Compact the observation nets into a multiple-input signature
    /// register and compare *signatures* at read boundaries only. This
    /// models the BIST Result Collector, including aliasing.
    Misr {
        /// Signature register width in bits (at most 64).
        width: usize,
        /// Feedback taps: bit *j* set feeds the last stage back into stage
        /// *j*. Bit 0 must be set.
        taps: u64,
        /// Read (and compare) the signature every this many cycles; a final
        /// read always happens on the last cycle.
        read_every: u64,
    },
}

impl ObserveMode {
    /// A MISR observation with the workspace's default primitive-style tap
    /// set, mirroring the 16-bit MISRs of the case study. Kept identical to
    /// `soctest_bist::Misr::default_taps` across the full 2..=64 range.
    pub fn misr_default(width: usize, read_every: u64) -> Self {
        assert!((2..=64).contains(&width), "MISR width must be in 2..=64");
        // `1u64 << 64` is a shift overflow, so width 64 takes the full mask
        // explicitly instead of computing `(1 << width) - 1`.
        let mask = match width {
            64.. => u64::MAX,
            w => (1u64 << w) - 1,
        };
        let taps = (0b101_1011u64 | 1) & mask.max(1);
        ObserveMode::Misr {
            width,
            taps,
            read_every,
        }
    }
}

/// Configuration for [`SeqFaultSim`].
#[derive(Debug, Clone)]
pub struct SeqFaultSimConfig {
    /// Window length in cycles between fault-dropping/repacking points
    /// (0 is treated as 1).
    pub window: u64,
    /// Observation mode.
    pub observe: ObserveMode,
    /// Collect per-fault syndromes for diagnosis. Implies simulating every
    /// fault over the full test (no dropping), which is slower.
    pub collect_syndromes: bool,
    /// Worker-thread policy for the per-window fault chunks.
    pub parallel: ParallelPolicy,
    /// Trace handle: one `FaultSimWindow` event per retired window and a
    /// final `FaultSimDone`, all emitted from the coordinating thread
    /// (disabled by default).
    pub trace: TraceHandle,
    /// Profiler handle: per-window `good_trace` / `chunk_eval` / `merge`
    /// phase attribution plus cycle counters, recorded from the
    /// coordinating thread (disabled by default).
    pub profile: ProfileHandle,
}

impl Default for SeqFaultSimConfig {
    fn default() -> Self {
        SeqFaultSimConfig {
            window: 256,
            observe: ObserveMode::Outputs,
            collect_syndromes: false,
            parallel: ParallelPolicy::default(),
            trace: TraceHandle::none(),
            profile: ProfileHandle::none(),
        }
    }
}

/// The parallel-fault sequential fault simulator.
///
/// See the [crate example](crate) for usage.
#[derive(Debug)]
pub struct SeqFaultSim<'a> {
    universe: &'a FaultUniverse,
    config: SeqFaultSimConfig,
}

#[derive(Debug, Clone)]
struct ActiveFault {
    idx: usize,
    /// Packed state: flip-flop bits, then the fault site's previous value
    /// (for transition faults), then MISR stage bits.
    state: Vec<u64>,
}

#[derive(Debug, Clone, Copy)]
struct InjEntry {
    lane: u8,
    kind: FaultKind,
    prev: bool,
}

/// The good machine's trajectory over one window, computed once and shared
/// (read-only) by every fault chunk.
struct GoodTrace {
    /// Good MISR signature at each read boundary inside the window, in
    /// boundary order, paired with `(cycle, read_idx)`. Read indices are
    /// assigned by a monotone counter — the single source of truth for the
    /// read schedule that the chunk loops replay.
    sigs: Vec<(u64, u64, u64)>,
    /// Good flip-flop + MISR state at window end (packed like
    /// `ActiveFault::state`).
    next_state: Vec<u64>,
    /// The full good value of every net at every cycle (post-eval,
    /// pre-clock), bit-packed per cycle — net `n` of cycle `t` is bit
    /// `n % 64` of word `t * net_words + n / 64`, broadcast to a 64-lane
    /// word on read. Chunks overlay XOR deviations on these rows, so every
    /// net the deviation sweep never touches provably holds the good value.
    net_bits: Vec<u64>,
    net_words: usize,
}

/// Per-chunk results produced by a worker: merged serially in chunk order.
#[derive(Default)]
struct ChunkOut {
    /// `(fault index, first in-window detection cycle)`.
    detections: Vec<(usize, u64)>,
    /// `(fault index, when, what)` syndrome events in generation order.
    events: Vec<(usize, u64, u64)>,
}

/// Read-only context shared by the good pass and every fault chunk.
struct WindowCtx<'b> {
    kernel: &'b CompiledNetlist,
    pis: &'b [NetId],
    obs: &'b [NetId],
    stim: &'b StimulusMatrix,
    faults: &'b [Fault],
    misr_width: usize,
    misr_taps: u64,
    misr_read: u64,
    total_cycles: u64,
    ndff: usize,
    collect: bool,
}

/// Overlays a net's 64-lane word with every fault injected at that net.
/// Transition faults remember the site's previous-cycle value in `prev`.
fn apply(w: u64, entries: &mut [InjEntry], first_ever: bool) -> u64 {
    let mut out = w;
    for e in entries.iter_mut() {
        let m = 1u64 << e.lane;
        match e.kind {
            FaultKind::Sa0 => out &= !m,
            FaultKind::Sa1 => out |= m,
            FaultKind::SlowToRise | FaultKind::SlowToFall => {
                let cur = (out >> e.lane) & 1 == 1;
                let faulty = if first_ever {
                    cur
                } else if e.kind == FaultKind::SlowToRise {
                    cur && e.prev
                } else {
                    cur || e.prev
                };
                if faulty {
                    out |= m;
                } else {
                    out &= !m;
                }
                e.prev = faulty;
            }
        }
    }
    out
}

fn get_bit(state: &[u64], j: usize) -> bool {
    (state[j / 64] >> (j % 64)) & 1 == 1
}

fn set_bit(state: &mut [u64], j: usize, v: bool) {
    if v {
        state[j / 64] |= 1u64 << (j % 64);
    } else {
        state[j / 64] &= !(1u64 << (j % 64));
    }
}

impl<'a> SeqFaultSim<'a> {
    /// Creates a simulator over a fault universe.
    pub fn new(universe: &'a FaultUniverse, config: SeqFaultSimConfig) -> Self {
        SeqFaultSim { universe, config }
    }

    /// Runs the whole campaign over the given stimulus.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the fault view cannot
    /// be compiled (it always can if the original netlist could).
    pub fn run(&self, stimulus: &mut dyn SeqStimulus) -> Result<FaultSimResult, NetlistError> {
        let start = Instant::now();
        let kernel = self.universe.kernel()?;
        let pis = self.universe.view().primary_inputs();
        let stim = StimulusMatrix::materialize(stimulus, pis.len());
        let obs: Vec<NetId> = match &self.config.observe {
            ObserveMode::Outputs => self.universe.observe_nets().to_vec(),
            ObserveMode::Nets(nets) => nets.clone(),
            ObserveMode::Misr { .. } => self.universe.observe_nets().to_vec(),
        };
        let (misr_width, misr_taps, misr_read) = match self.config.observe {
            ObserveMode::Misr {
                width,
                taps,
                read_every,
            } => (width, taps, read_every.max(1)),
            _ => (0, 0, 0),
        };

        let faults = self.universe.faults();
        let ndff = kernel.dff_q().len();
        let cycles = stim.cycles;

        let ctx = WindowCtx {
            kernel: &kernel,
            pis: &pis,
            obs: &obs,
            stim: &stim,
            faults,
            misr_width,
            misr_taps,
            misr_read,
            total_cycles: cycles,
            ndff,
            collect: self.config.collect_syndromes,
        };
        Ok(self.run_windows(&ctx, start))
    }

    /// The window loop: good pass, chunk fan-out with a deterministic
    /// merge, fault dropping, and survivor repacking.
    fn run_windows(&self, ctx: &WindowCtx<'_>, start: Instant) -> FaultSimResult {
        let faults = ctx.faults;
        let nstate = ctx.ndff + 1 + ctx.misr_width; // +1: previous-value bit
        let state_words = nstate.div_ceil(64).max(1);
        let cycles = ctx.total_cycles;

        let mut detection: Vec<Option<u64>> = vec![None; faults.len()];
        let mut syndromes: Vec<Syndrome> = if self.config.collect_syndromes {
            vec![Syndrome::new(); faults.len()]
        } else {
            Vec::new()
        };

        let mut active: Vec<ActiveFault> = (0..faults.len())
            .map(|idx| ActiveFault {
                idx,
                state: vec![0u64; state_words],
            })
            .collect();
        let mut good_state = vec![0u64; state_words];

        // Clamp the worker count to the campaign's actual fault-lane chunk
        // count up front: a 1-core host (or a tiny universe) resolves to 1
        // and takes the exact serial path below — no scoped pool, no extra
        // scratchpads — instead of paying worker-pool overhead for nothing.
        let nthreads = self.config.parallel.workers_for(faults.len().div_ceil(64));
        let mut stats = FaultSimStats {
            threads: nthreads,
            ..FaultSimStats::default()
        };

        // Per-worker scratchpads, hoisted across windows (plus one for the
        // coordinating thread's good pass).
        let mut scratches: Vec<_> = (0..nthreads).map(|_| ctx.new_scratch()).collect();
        let mut good_scratch = ctx.new_scratch();

        // A zero-length window would never advance.
        let window = self.config.window.max(1);
        let mut window_start = 0u64;
        while window_start < cycles && !active.is_empty() {
            let wlen = window.min(cycles - window_start);
            let trace = {
                let _p = self.config.profile.scope("good_trace");
                ctx.good_window(&good_state, window_start, wlen, &mut good_scratch)
            };
            stats.good_cycles += wlen;
            stats.faulty_cycles += wlen * active.chunks(64).count() as u64;

            let eval_scope = self.config.profile.scope("chunk_eval");
            let mut chunk_slices: Vec<&mut [ActiveFault]> = active.chunks_mut(64).collect();
            let nchunks = chunk_slices.len();
            let workers = nthreads.min(nchunks.max(1));
            let outs: Vec<Vec<ChunkOut>> = if workers <= 1 {
                vec![chunk_slices
                    .iter_mut()
                    .map(|chunk| {
                        ctx.run_chunk(
                            chunk,
                            &good_state,
                            &trace,
                            window_start,
                            wlen,
                            &mut scratches[0],
                        )
                    })
                    .collect()]
            } else {
                let per = nchunks.div_ceil(workers);
                let trace_ref = &trace;
                let good_ref: &[u64] = &good_state;
                std::thread::scope(|s| {
                    let handles: Vec<_> = chunk_slices
                        .chunks_mut(per)
                        .zip(scratches.iter_mut())
                        .map(|(group, scratch)| {
                            s.spawn(move || {
                                group
                                    .iter_mut()
                                    .map(|chunk| {
                                        ctx.run_chunk(
                                            chunk,
                                            good_ref,
                                            trace_ref,
                                            window_start,
                                            wlen,
                                            scratch,
                                        )
                                    })
                                    .collect::<Vec<ChunkOut>>()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("fault-sim worker panicked"))
                        .collect()
                })
            };
            drop(eval_scope);
            // Deterministic merge: workers in spawn order, chunks in chunk
            // order; each fault lives in exactly one chunk, so per-fault
            // event order is exactly the serial order.
            {
                let _p = self.config.profile.scope("merge");
                for out in outs.into_iter().flatten() {
                    for (idx, t) in out.detections {
                        if detection[idx].is_none() {
                            detection[idx] = Some(t);
                        }
                    }
                    for (idx, when, what) in out.events {
                        syndromes[idx].record(when, what);
                    }
                }
            }

            good_state = trace.next_state;
            if !self.config.collect_syndromes {
                active.retain(|af| detection[af.idx].is_none());
            }
            let survivors = detection.iter().filter(|d| d.is_none()).count();
            self.config.trace.emit(
                window_start + wlen,
                TraceEvent::FaultSimWindow {
                    index: stats.windows,
                    start_cycle: window_start,
                    length: wlen,
                    chunks: nchunks as u64,
                    survivors: survivors as u64,
                },
            );
            stats.windows += 1;
            stats.survivors.push(survivors);
            window_start += wlen;
        }

        stats.wall = start.elapsed();
        if self.config.profile.is_enabled() {
            self.config.profile.count("faults", faults.len() as u64);
            self.config.profile.count("good_cycles", stats.good_cycles);
            self.config
                .profile
                .count("faulty_cycles", stats.faulty_cycles);
            self.config.profile.count("windows", stats.windows);
        }
        self.config.trace.emit(
            cycles,
            TraceEvent::FaultSimDone {
                faults: faults.len() as u64,
                detected: detection.iter().filter(|d| d.is_some()).count() as u64,
                windows: stats.windows,
                threads: nthreads as u64,
            },
        );
        FaultSimResult {
            detection,
            cycles,
            wall: stats.wall,
            syndromes: if self.config.collect_syndromes {
                Some(syndromes)
            } else {
                None
            },
            stats,
        }
    }
}

/// Per-worker scratch. `qdev` marks the flip-flops whose lane word
/// currently deviates from the good machine; `qwords[j]` is only meaningful
/// while bit `j` is set. `inj_mark` is stamped with `chunk_no` so it never
/// needs clearing between chunks.
struct KernelScratch {
    vals: Vec<u64>,
    dev: Vec<u64>,
    stored: Vec<u32>,
    pending: Vec<u64>,
    qwords: Vec<u64>,
    qdev: Vec<u64>,
    touched: Vec<u32>,
    misr: Vec<u64>,
    misr_next: Vec<u64>,
    inj_mark: Vec<u64>,
    chunk_no: u64,
}

/// Broadcast of the good bit of `net` from a packed per-cycle row.
#[inline]
fn gbit(row: &[u64], net: usize) -> u64 {
    0u64.wrapping_sub((row[net / 64] >> (net % 64)) & 1)
}

impl WindowCtx<'_> {
    /// Allocates one worker's scratchpad, reused across windows and chunks.
    fn new_scratch(&self) -> KernelScratch {
        let sched_words = self.kernel.ops().div_ceil(64).max(1);
        KernelScratch {
            vals: self.kernel.fresh_values(),
            dev: vec![0u64; self.kernel.nets()],
            stored: Vec::new(),
            pending: vec![0u64; sched_words],
            qwords: vec![0u64; self.ndff],
            qdev: vec![0u64; self.ndff.div_ceil(64).max(1)],
            touched: Vec::new(),
            misr: vec![0u64; self.misr_width],
            misr_next: vec![0u64; self.misr_width],
            inj_mark: vec![0u64; self.kernel.nets()],
            chunk_no: 0,
        }
    }

    /// The good pass on the flat schedule: captures the good value of every
    /// net at every cycle as a packed per-cycle bitmap — small enough to
    /// stay cache-resident while every chunk replays the window against
    /// it — plus the MISR read signatures and the end-of-window state.
    fn good_window(
        &self,
        good_state: &[u64],
        window_start: u64,
        wlen: u64,
        scratch: &mut KernelScratch,
    ) -> GoodTrace {
        let kernel = self.kernel;
        let net_words = kernel.nets().div_ceil(64).max(1);
        let mut trace = GoodTrace {
            sigs: Vec::new(),
            next_state: vec![0u64; good_state.len()],
            net_bits: vec![0u64; net_words * wlen as usize],
            net_words,
        };
        let values = &mut scratch.vals;

        for (j, &q) in kernel.dff_q().iter().enumerate() {
            values[q as usize] = if get_bit(good_state, j) { u64::MAX } else { 0 };
        }
        let mut misr: u64 = (0..self.misr_width).rev().fold(0u64, |acc, j| {
            (acc << 1) | u64::from(get_bit(good_state, self.ndff + 1 + j))
        });
        let misr_mask = match self.misr_width {
            0 => 0,
            64.. => u64::MAX,
            w => (1u64 << w) - 1,
        };
        // Monotone read-index counter, seeded with the number of boundary
        // reads strictly before this window (`t` is absolute, so earlier
        // windows contributed exactly `window_start / read_every` reads; the
        // forced off-boundary final read can only occur in the last window).
        // Assigning indices sequentially instead of re-deriving
        // `t / read_every` per read makes collisions between a boundary read
        // and the forced final read structurally impossible.
        let mut read_idx = if self.misr_width == 0 {
            0
        } else {
            window_start / self.misr_read
        };

        for t in window_start..window_start + wlen {
            for (k, &pi) in self.pis.iter().enumerate() {
                values[pi.index()] = if self.stim.get(t, k) { u64::MAX } else { 0 };
            }
            kernel.eval(values);
            let rel = (t - window_start) as usize;
            let row = &mut trace.net_bits[rel * net_words..(rel + 1) * net_words];
            for (net, &v) in values.iter().enumerate() {
                row[net / 64] |= (v & 1) << (net % 64);
            }
            if self.misr_width != 0 {
                // Scalar form of the per-lane MISR update in `run_chunk`.
                let fb = (misr >> (self.misr_width - 1)) & 1;
                let mut next = (misr << 1) & misr_mask;
                if fb == 1 {
                    next ^= self.misr_taps;
                }
                for (oi, &o) in self.obs.iter().enumerate() {
                    next ^= (values[o.index()] & 1) << (oi % self.misr_width);
                }
                misr = next & misr_mask;
                let is_read = (t + 1) % self.misr_read == 0 || t + 1 == self.total_cycles;
                if is_read {
                    trace.sigs.push((t, read_idx, misr));
                    read_idx += 1;
                }
            }
            // Clock: stage every d sample before writing any q so chained
            // flip-flops see pre-edge values.
            let sampled: Vec<u64> = kernel.dff_d().iter().map(|&d| values[d as usize]).collect();
            for (&q, v) in kernel.dff_q().iter().zip(sampled) {
                values[q as usize] = v;
            }
        }

        for (j, &q) in kernel.dff_q().iter().enumerate() {
            set_bit(&mut trace.next_state, j, values[q as usize] & 1 == 1);
        }
        for j in 0..self.misr_width {
            set_bit(
                &mut trace.next_state,
                self.ndff + 1 + j,
                (misr >> j) & 1 == 1,
            );
        }
        trace
    }

    /// Simulates one 64-fault lane chunk over one window against the good
    /// trace, updating the chunk's packed states in place and returning its
    /// detections and syndrome events.
    fn run_chunk(
        &self,
        chunk: &mut [ActiveFault],
        good_state: &[u64],
        trace: &GoodTrace,
        window_start: u64,
        wlen: u64,
        scratch: &mut KernelScratch,
    ) -> ChunkOut {
        let kernel = self.kernel;
        let nw = trace.net_words;
        let mut out = ChunkOut::default();
        let mut first_det: Vec<Option<u64>> = vec![None; chunk.len()];
        let lanes_mask = if chunk.len() == 64 {
            u64::MAX
        } else {
            (1u64 << chunk.len()) - 1
        };
        let ndff = self.ndff;
        let (dff_q, dff_d) = (kernel.dff_q(), kernel.dff_d());
        // In-window fault dropping: once a lane has its first detection it
        // can no longer influence anything observable (post-detection
        // deviations are only meaningful to syndrome collection), so when
        // syndromes are off the lane is masked out of every *propagation
        // decision*. Bitwise evaluation is lane-pure — an op's live-lane
        // output bits depend only on live-lane input bits — so the live
        // lanes stay exact while dead-lane wavefronts collapse.
        let mut live = lanes_mask;

        // Load the sparse flip-flop/MISR lane state: broadcast the good
        // bits, then flip the lanes whose packed state diffs from the good
        // machine (deviating state bits are rare, so walk the XOR words).
        scratch.qdev.fill(0);
        for (j, m) in scratch.misr.iter_mut().enumerate() {
            *m = if get_bit(good_state, ndff + 1 + j) {
                u64::MAX
            } else {
                0
            };
        }
        for (l, af) in chunk.iter().enumerate() {
            for (wi, (&aw, &gw)) in af.state.iter().zip(good_state.iter()).enumerate() {
                let mut diff = aw ^ gw;
                while diff != 0 {
                    let sbit = wi * 64 + diff.trailing_zeros() as usize;
                    diff &= diff - 1;
                    if sbit < ndff {
                        if scratch.qdev[sbit / 64] >> (sbit % 64) & 1 == 0 {
                            scratch.qdev[sbit / 64] |= 1u64 << (sbit % 64);
                            scratch.qwords[sbit] = if get_bit(good_state, sbit) {
                                u64::MAX
                            } else {
                                0
                            };
                        }
                        scratch.qwords[sbit] ^= 1u64 << l;
                    } else if sbit > ndff && sbit < ndff + 1 + self.misr_width {
                        // MISR stage bit (the `ndff` slot is the transition
                        // `prev` bit, carried by the injection entries).
                        scratch.misr[sbit - ndff - 1] ^= 1u64 << l;
                    }
                }
            }
        }

        // Injection tables: per-net entry lists (lane order), split into
        // scheduled gate sites and source sites.
        scratch.chunk_no += 1;
        let chunk_no = scratch.chunk_no;
        let mut inj: HashMap<u32, Vec<InjEntry>> = HashMap::new();
        for (l, af) in chunk.iter().enumerate() {
            let f = self.faults[af.idx];
            inj.entry(f.net.0).or_default().push(InjEntry {
                lane: l as u8,
                kind: f.kind,
                prev: get_bit(&af.state, ndff),
            });
        }
        let mut site_ops: Vec<u32> = Vec::new();
        let mut src_sites: Vec<u32> = Vec::new();
        for &net in inj.keys() {
            scratch.inj_mark[net as usize] = chunk_no;
            match kernel.sched_of(net) {
                Some(p) => site_ops.push(p as u32),
                None => src_sites.push(net),
            }
        }

        let mut read_cursor = 0usize;
        for t in window_start..window_start + wlen {
            let first_ever = t == 0;
            let rel = (t - window_start) as usize;
            let row = &trace.net_bits[rel * nw..(rel + 1) * nw];

            // Deviating flip-flop outputs only — `qdev` guarantees the lane
            // word differs, so fanouts and d-sinks are seeded untested.
            for wi in 0..scratch.qdev.len() {
                let mut rem = scratch.qdev[wi];
                while rem != 0 {
                    let j = wi * 64 + rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    let q = dff_q[j];
                    scratch.dev[q as usize] = scratch.qwords[j] ^ gbit(row, q as usize);
                    scratch.stored.push(q);
                    for &op in kernel.fanout_ops(q) {
                        scratch.pending[op as usize / 64] |= 1u64 << (op % 64);
                    }
                    for &k in kernel.dff_d_sinks(q) {
                        scratch.touched.push(k);
                    }
                }
            }
            // Source-site injections (primary inputs, flip-flop outputs,
            // constants) — applied before the sweep.
            for &net in &src_sites {
                let n = net as usize;
                let entries = inj.get_mut(&net).expect("registered");
                let g = gbit(row, n);
                let w = apply(g ^ scratch.dev[n], entries, first_ever);
                scratch.dev[n] = w ^ g;
                scratch.stored.push(net);
                if (w ^ g) & live != 0 {
                    for &op in kernel.fanout_ops(net) {
                        scratch.pending[op as usize / 64] |= 1u64 << (op % 64);
                    }
                    for &k in kernel.dff_d_sinks(net) {
                        scratch.touched.push(k);
                    }
                }
            }
            // Injected gates are evaluated every cycle: their outputs are
            // forced, and transition injections must update `prev`.
            for &p in &site_ops {
                scratch.pending[p as usize / 64] |= 1u64 << (p % 64);
            }

            // Event-driven sweep in schedule order. Fanout positions are
            // strictly greater than the producing op's, so newly seeded
            // work always lies ahead of the cursor.
            for wi in 0..scratch.pending.len() {
                loop {
                    let rem = scratch.pending[wi];
                    if rem == 0 {
                        break;
                    }
                    let b = rem.trailing_zeros() as usize;
                    scratch.pending[wi] &= !(1u64 << b);
                    let p = wi * 64 + b;
                    let [pa, pb, pc] = kernel.op_pins(p);
                    let mut w = kernel.eval_pins(
                        p,
                        [
                            gbit(row, pa as usize) ^ scratch.dev[pa as usize],
                            gbit(row, pb as usize) ^ scratch.dev[pb as usize],
                            gbit(row, pc as usize) ^ scratch.dev[pc as usize],
                        ],
                    );
                    let outn = kernel.op_out(p);
                    if scratch.inj_mark[outn as usize] == chunk_no {
                        let entries = inj.get_mut(&outn).expect("registered");
                        w = apply(w, entries, first_ever);
                    }
                    let d = w ^ gbit(row, outn as usize);
                    scratch.dev[outn as usize] = d;
                    scratch.stored.push(outn);
                    if d & live != 0 {
                        for &op in kernel.fanout_ops(outn) {
                            scratch.pending[op as usize / 64] |= 1u64 << (op % 64);
                        }
                        for &k in kernel.dff_d_sinks(outn) {
                            scratch.touched.push(k);
                        }
                    }
                }
            }

            // Observation, in `oi` order: the syndrome event order.
            if self.misr_width == 0 {
                for (oi, &o) in self.obs.iter().enumerate() {
                    let on = o.index();
                    let mut diff = scratch.dev[on] & live;
                    while diff != 0 {
                        let lane = diff.trailing_zeros() as usize;
                        diff &= diff - 1;
                        if first_det[lane].is_none() {
                            first_det[lane] = Some(t);
                            if !self.collect {
                                live &= !(1u64 << lane);
                            }
                        }
                        if self.collect {
                            out.events.push((chunk[lane].idx, t, oi as u64));
                        }
                    }
                }
            } else {
                let fb = scratch.misr[self.misr_width - 1];
                for j in (1..self.misr_width).rev() {
                    scratch.misr_next[j] = scratch.misr[j - 1];
                }
                scratch.misr_next[0] = 0;
                for (j, n) in scratch.misr_next.iter_mut().enumerate() {
                    if (self.misr_taps >> j) & 1 == 1 {
                        *n ^= fb;
                    }
                }
                for (oi, &o) in self.obs.iter().enumerate() {
                    let on = o.index();
                    scratch.misr_next[oi % self.misr_width] ^= gbit(row, on) ^ scratch.dev[on];
                }
                std::mem::swap(&mut scratch.misr, &mut scratch.misr_next);
                let is_read = read_cursor < trace.sigs.len() && trace.sigs[read_cursor].0 == t;
                if is_read {
                    let (_, read_idx, good_sig) = trace.sigs[read_cursor];
                    read_cursor += 1;
                    for (l, af) in chunk.iter().enumerate() {
                        let mut sig = 0u64;
                        for (j, &w) in scratch.misr.iter().enumerate() {
                            sig |= ((w >> l) & 1) << j;
                        }
                        if sig != good_sig {
                            if first_det[l].is_none() {
                                first_det[l] = Some(t);
                                if !self.collect {
                                    live &= !(1u64 << l);
                                }
                            }
                            if self.collect {
                                out.events.push((af.idx, read_idx, sig));
                            }
                        }
                    }
                }
            }

            // Clock. Only flip-flops whose `d` was stored with a deviation
            // this cycle can deviate next cycle; everything else snaps back
            // to the good trajectory, so `qdev` is rebuilt from `touched`.
            // `row[d]` is the good post-eval value of `d` at this cycle,
            // i.e. the good `q` entering the next cycle.
            scratch.qdev.fill(0);
            for &k in &scratch.touched {
                let j = k as usize;
                let dn = dff_d[j] as usize;
                let d = scratch.dev[dn];
                scratch.qwords[j] = gbit(row, dn) ^ d;
                if d & live != 0 {
                    scratch.qdev[j / 64] |= 1u64 << (j % 64);
                }
            }
            scratch.touched.clear();
            // Reset the deviation overlay sparsely: only stored nets can
            // hold a nonzero word, so `dev` is all-zero again afterwards.
            for &n in &scratch.stored {
                scratch.dev[n as usize] = 0;
            }
            scratch.stored.clear();
            // Every lane detected and no syndromes wanted: the rest of the
            // window cannot change any output (detected faults are dropped
            // at the window boundary), so stop simulating this chunk.
            if live == 0 {
                break;
            }
        }

        for (l, d) in first_det.iter().enumerate() {
            if let Some(t) = d {
                out.detections.push((chunk[l].idx, *t));
            }
        }

        // Extract survivor states: start from the good end-of-window state
        // and overlay the deviating flip-flops, the transition `prev` bit,
        // and the MISR lane words.
        for (l, af) in chunk.iter_mut().enumerate() {
            af.state.copy_from_slice(&trace.next_state);
            for wi in 0..scratch.qdev.len() {
                let mut rem = scratch.qdev[wi];
                while rem != 0 {
                    let j = wi * 64 + rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    set_bit(&mut af.state, j, (scratch.qwords[j] >> l) & 1 == 1);
                }
            }
            let f = self.faults[af.idx];
            if let Some(entries) = inj.get(&f.net.0) {
                if let Some(e) = entries.iter().find(|e| e.lane as usize == l) {
                    set_bit(&mut af.state, ndff, e.prev);
                }
            }
            for (j, &w) in scratch.misr.iter().enumerate() {
                set_bit(&mut af.state, ndff + 1 + j, (w >> l) & 1 == 1);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VectorStimulus;
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

    fn exhaustive_patterns(width: u32, repeats: usize) -> Vec<u64> {
        let mut v: Vec<u64> = (0..(1u64 << width)).collect();
        for _ in 0..repeats {
            v.extend(0..(1u64 << width));
        }
        v
    }

    #[test]
    fn exhaustive_patterns_reach_full_stuck_at_coverage() {
        let nl = small_seq();
        let u = FaultUniverse::stuck_at(&nl);
        let mut stim = VectorStimulus::new(exhaustive_patterns(4, 1));
        let sim = SeqFaultSim::new(&u, SeqFaultSimConfig::default());
        let r = sim.run(&mut stim).unwrap();
        assert_eq!(
            r.coverage_percent(),
            100.0,
            "undetected: {:?}",
            r.undetected()
                .iter()
                .map(|&i| u.describe(i))
                .collect::<Vec<_>>()
        );
        assert!(r.stats.windows >= 1);
        assert_eq!(r.stats.good_cycles, r.cycles);
        assert_eq!(r.stats.survivors.last(), Some(&0));
    }

    #[test]
    fn transition_faults_need_pattern_pairs() {
        let nl = small_seq();
        let u = FaultUniverse::transition(&nl);
        // Repeating the exhaustive sweep provides launch/capture pairs.
        let mut stim = VectorStimulus::new(exhaustive_patterns(4, 3));
        let sim = SeqFaultSim::new(&u, SeqFaultSimConfig::default());
        let r = sim.run(&mut stim).unwrap();
        assert!(
            r.coverage_percent() > 90.0,
            "got {:.1}%",
            r.coverage_percent()
        );
    }

    #[test]
    fn single_constant_pattern_detects_little() {
        let nl = small_seq();
        let u = FaultUniverse::stuck_at(&nl);
        let mut stim = VectorStimulus::new(vec![0u64; 16]);
        let sim = SeqFaultSim::new(&u, SeqFaultSimConfig::default());
        let r = sim.run(&mut stim).unwrap();
        assert!(r.coverage_percent() < 60.0);
    }

    #[test]
    fn small_window_matches_large_window() {
        let nl = small_seq();
        let u = FaultUniverse::stuck_at(&nl);
        let run = |window| {
            let mut stim = VectorStimulus::new(exhaustive_patterns(4, 1));
            let sim = SeqFaultSim::new(
                &u,
                SeqFaultSimConfig {
                    window,
                    ..Default::default()
                },
            );
            sim.run(&mut stim).unwrap().detection
        };
        assert_eq!(run(4), run(1024), "windowing must not change results");
    }

    /// Regression: a zero-length window never advanced, so the run looped
    /// forever while the survivor trajectory grew without bound.
    #[test]
    fn zero_window_terminates_and_matches_window_one() {
        let nl = small_seq();
        let u = FaultUniverse::stuck_at(&nl);
        let run = |window| {
            let mut stim = VectorStimulus::new(exhaustive_patterns(4, 1));
            let sim = SeqFaultSim::new(
                &u,
                SeqFaultSimConfig {
                    window,
                    ..Default::default()
                },
            );
            sim.run(&mut stim).unwrap()
        };
        let zero = run(0);
        let one = run(1);
        assert!(zero.detected_count() > 0);
        assert_eq!(zero.detection, one.detection);
        assert_eq!(zero.stats.windows, one.stats.windows);
        assert_eq!(zero.stats.survivors, one.stats.survivors);
    }

    #[test]
    fn misr_observation_detects_with_aliasing_bound() {
        let nl = small_seq();
        let u = FaultUniverse::stuck_at(&nl);
        let mut stim = VectorStimulus::new(exhaustive_patterns(4, 1));
        let sim = SeqFaultSim::new(
            &u,
            SeqFaultSimConfig {
                observe: ObserveMode::misr_default(16, 8),
                ..Default::default()
            },
        );
        let r = sim.run(&mut stim).unwrap();
        // MISR compaction may alias a fault or two but must stay close to
        // the ideal per-cycle coverage (100% here).
        assert!(
            r.coverage_percent() >= 90.0,
            "got {:.1}%",
            r.coverage_percent()
        );
    }

    #[test]
    fn misr_default_width_64_is_not_degenerate() {
        // Regression: `(1u64 << 64) - 1` overflowed at the documented upper
        // width bound; the taps must match the narrower widths.
        match ObserveMode::misr_default(64, 8) {
            ObserveMode::Misr { width, taps, .. } => {
                assert_eq!(width, 64);
                assert_eq!(taps, 0b101_1011);
            }
            other => panic!("unexpected mode {other:?}"),
        }
        let nl = small_seq();
        let u = FaultUniverse::stuck_at(&nl);
        let mut stim = VectorStimulus::new(exhaustive_patterns(4, 1));
        let sim = SeqFaultSim::new(
            &u,
            SeqFaultSimConfig {
                observe: ObserveMode::misr_default(64, 8),
                ..Default::default()
            },
        );
        let r = sim.run(&mut stim).unwrap();
        assert!(
            r.coverage_percent() >= 90.0,
            "got {:.1}%",
            r.coverage_percent()
        );
    }

    #[test]
    fn syndromes_distinguish_most_detected_faults() {
        let nl = small_seq();
        let u = FaultUniverse::stuck_at(&nl);
        let mut stim = VectorStimulus::new(exhaustive_patterns(4, 1));
        let sim = SeqFaultSim::new(
            &u,
            SeqFaultSimConfig {
                collect_syndromes: true,
                ..Default::default()
            },
        );
        let r = sim.run(&mut stim).unwrap();
        let syn = r.syndromes.as_ref().unwrap();
        let m = crate::DiagnosticMatrix::from_syndromes(syn);
        assert_eq!(m.detected(), r.detected_count());
        assert!(m.stats().classes > 1);
        assert!(m.stats().max_size <= m.detected());
    }

    #[test]
    fn detection_cycles_are_recorded_in_order() {
        let nl = small_seq();
        let u = FaultUniverse::stuck_at(&nl);
        let mut stim = VectorStimulus::new(exhaustive_patterns(4, 1));
        let sim = SeqFaultSim::new(&u, SeqFaultSimConfig::default());
        let r = sim.run(&mut stim).unwrap();
        for d in r.detection.iter().flatten() {
            assert!(*d < r.cycles);
        }
        assert!(r.last_useful_cycle().is_some());
    }

    /// Regression for the MISR read-boundary index bug: read indices were
    /// recomputed per window from the window base rather than carried by a
    /// monotone counter, so a window length not divisible by `read_every`
    /// shifted every later read's `read_idx` — and with it the syndrome
    /// stream. Off-boundary totals (13 cycles, `read_every = 5`) leave a
    /// trailing partial read interval that must simply never fire.
    #[test]
    fn misr_reads_survive_off_boundary_windows_and_totals() {
        let nl = small_seq();
        let u = FaultUniverse::stuck_at(&nl);
        let run = |window| {
            let mut stim = VectorStimulus::new(exhaustive_patterns(4, 0)[..13].to_vec());
            let sim = SeqFaultSim::new(
                &u,
                SeqFaultSimConfig {
                    window,
                    observe: ObserveMode::misr_default(16, 5),
                    collect_syndromes: true,
                    ..Default::default()
                },
            );
            sim.run(&mut stim).unwrap()
        };
        let reference = run(1024); // one window covers all 13 cycles
        assert!(reference.detected_count() > 0);
        for window in [3, 4, 5, 7] {
            let r = run(window);
            assert_eq!(r.detection, reference.detection, "window={window}");
            assert_eq!(r.syndromes, reference.syndromes, "window={window}");
        }
    }

    /// Syndrome collection keeps detected faults alive past their first
    /// detection (to record later events); with it off they are dropped.
    /// Either way the first-detection indices must be identical.
    #[test]
    fn first_detection_is_independent_of_syndrome_collection() {
        let nl = small_seq();
        let u = FaultUniverse::stuck_at(&nl);
        for observe in [ObserveMode::Outputs, ObserveMode::misr_default(16, 5)] {
            let run = |collect_syndromes| {
                let mut stim = VectorStimulus::new(exhaustive_patterns(4, 1));
                let sim = SeqFaultSim::new(
                    &u,
                    SeqFaultSimConfig {
                        window: 8,
                        observe: observe.clone(),
                        collect_syndromes,
                        ..Default::default()
                    },
                );
                sim.run(&mut stim).unwrap()
            };
            let with = run(true);
            let without = run(false);
            assert!(with.detected_count() > 0);
            assert_eq!(with.detection, without.detection, "observe={observe:?}");
            assert!(with.syndromes.is_some() && without.syndromes.is_none());
        }
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let nl = small_seq();
        for universe in [FaultUniverse::stuck_at(&nl), FaultUniverse::transition(&nl)] {
            for observe in [ObserveMode::Outputs, ObserveMode::misr_default(16, 8)] {
                let run = |threads: usize| {
                    let mut stim = VectorStimulus::new(exhaustive_patterns(4, 2));
                    let sim = SeqFaultSim::new(
                        &universe,
                        SeqFaultSimConfig {
                            window: 8, // several windows and chunks
                            observe: observe.clone(),
                            collect_syndromes: true,
                            parallel: ParallelPolicy::with_threads(threads),
                            ..Default::default()
                        },
                    );
                    sim.run(&mut stim).unwrap()
                };
                let serial = run(1);
                assert!(serial.detected_count() > 0);
                for threads in [2, 4] {
                    let par = run(threads);
                    assert_eq!(par.detection, serial.detection, "threads={threads}");
                    assert_eq!(par.syndromes, serial.syndromes, "threads={threads}");
                    assert_eq!(par.stats.windows, serial.stats.windows);
                    assert_eq!(par.stats.survivors, serial.stats.survivors);
                    assert_eq!(par.stats.good_cycles, serial.stats.good_cycles);
                    assert_eq!(par.stats.faulty_cycles, serial.stats.faulty_cycles);
                }
            }
        }
    }
}
