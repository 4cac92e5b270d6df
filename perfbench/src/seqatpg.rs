//! `seq-atpg`: the Table 3 sequential column, `SequentialAtpg::run` on all
//! three modules at the paper budget.

use std::time::Instant;

use soctest_atpg::{random_rows, unroll, Podem, SequentialAtpg, SequentialAtpgConfig};
use soctest_core::experiments::Budget;
use soctest_fault::{
    Fault, FaultSimResult, FaultUniverse, ParallelPolicy, SeqFaultSim, SeqFaultSimConfig,
};
use soctest_netlist::Netlist;

use crate::host::{self, input_seed, WORKERS};
use crate::scan::PodemTally;
use crate::trace::Tracer;
use crate::{
    finish_traced, paper, ratio, Args, Checks, Coverage, EndToEnd, Layers, Report, Res, Walls,
};

/// Stuck-at and transition coverage floors per module (BIT_NODE,
/// CHECK_NODE, CONTROL_UNIT), in percent: the mean less five standard
/// deviations over seeds 1–30 when the benchmark was introduced, rounded
/// down to a tenth of a point. Coverage depends on the seed; a drop below
/// these is a change in the flow, not a bad draw.
const FLOORS: [(f64, f64); 3] = [(79.7, 74.4), (78.2, 75.6), (32.9, 17.6)];

/// Distinct seeded inputs per untraced run: coverage, and with it the
/// escape rate, moves by several points between seeds on CONTROL_UNIT.
const INPUTS: usize = 8;

/// The paper-budget sequential configuration with an explicit worker
/// count and library seed `seed`.
pub fn config(seed: u64) -> SequentialAtpg {
    let budget = Budget::paper();
    SequentialAtpg::new(SequentialAtpgConfig {
        random_cycles: budget.seq_random_cycles,
        max_targets: Some(budget.seq_max_targets),
        parallel: ParallelPolicy::with_threads(WORKERS),
        seed,
        ..SequentialAtpgConfig::default()
    })
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct ModuleOut {
    saf: Vec<Option<u64>>,
    tdf: Vec<Option<u64>>,
    cycles: usize,
    aborted: u64,
}

impl ModuleOut {
    fn counts(r: &[Option<u64>]) -> (usize, usize) {
        (r.iter().filter(|d| d.is_some()).count(), r.len())
    }
}

fn run_module(atpg: &SequentialAtpg, module: &Netlist) -> Res<ModuleOut> {
    let o = atpg.run(module)?;
    Ok(ModuleOut {
        saf: o.stuck_at.detection,
        tdf: o.transition.detection,
        cycles: o.pattern_count,
        aborted: o.aborted,
    })
}

/// The untraced run: `CaseStudy::paper()` as set-up, whole campaigns as
/// the body, one library seed per input (see `host::measure`).
pub fn measure(args: &Args) -> Res<Report> {
    let timed = host::measure(
        args.seconds,
        INPUTS,
        |i| -> Res<_> { Ok((paper()?, config(input_seed(args.seed, i)))) },
        |(case, atpg)| -> Res<Vec<ModuleOut>> {
            case.modules().iter().map(|m| run_module(atpg, m)).collect()
        },
    )?;
    let mut checks = Checks::default();
    let case = &timed.inputs[0].0;
    let mut cov = Coverage::default();
    let mut lengths = Vec::new();
    for outs in timed.per_input() {
        let counts = outs
            .iter()
            .map(|o| (ModuleOut::counts(&o.saf), ModuleOut::counts(&o.tdf)));
        checks.floors(case, counts, &FLOORS);
        for o in outs {
            cov.add(ModuleOut::counts(&o.saf), ModuleOut::counts(&o.tdf));
        }
        lengths.push(outs.iter().map(|o| o.cycles).sum::<usize>() as f64);
    }
    checks.repeats(&timed);
    let wall_s = timed.wall_s();
    let faults = (cov.saf_faults + cov.tdf_faults) / INPUTS;
    let e = EndToEnd {
        wall_s,
        setup_s: timed.setup_s,
        saf_coverage_pct: cov.saf_pct(),
        tdf_coverage_pct: cov.tdf_pct(),
        dies_per_s: faults as f64 / wall_s,
        tck_p99: host::median(&lengths),
        escape_pct: 100.0 - cov.saf_pct(),
    };
    Ok(Report::end_to_end(checks, e, &timed))
}

/// Sequential fault-simulation calls and the fault × cycle products they
/// were offered.
#[derive(Default)]
pub struct SeqTally {
    pub calls: u64,
    pub fault_cycles: f64,
}

impl SeqTally {
    /// Runs one campaign inside a `seq.run` span.
    pub fn run(
        &mut self,
        tr: &mut Tracer,
        universe: &FaultUniverse,
        cfg: &SeqFaultSimConfig,
        stim: &mut dyn soctest_fault::SeqStimulus,
    ) -> Res<FaultSimResult> {
        self.calls += 1;
        self.fault_cycles += (universe.len() as u64 * stim.cycles()) as f64;
        Ok(tr.span("seq.run", || {
            SeqFaultSim::new(universe, cfg.clone()).run(stim)
        })?)
    }

    /// Sets the `seq.*` layer metrics.
    pub fn report(&self, layers: &mut Layers, tr: &Tracer, rounds: f64, wall: f64) {
        let busy = tr.total("seq.run");
        layers.set("seq.calls", self.calls as f64 / rounds);
        layers.set("seq.busy_s", busy / rounds);
        layers.set("seq.share", ratio(busy, wall));
        layers.set("seq.fault_cycles_per_s", ratio(self.fault_cycles, busy));
    }
}

fn rows_stimulus(rows: &[Vec<bool>]) -> (u64, impl FnMut(u64, &mut [bool]) + '_) {
    (rows.len() as u64, move |t: u64, out: &mut [bool]| {
        out.copy_from_slice(&rows[t as usize]);
    })
}

/// One module replayed from public calls, mirroring `SequentialAtpg::run`.
fn replay(
    tr: &mut Tracer,
    cfg: &SequentialAtpgConfig,
    netlist: &Netlist,
    podem_tally: &mut PodemTally,
    seq: &mut SeqTally,
) -> Res<ModuleOut> {
    let saf = tr.span("fault.universe", || FaultUniverse::stuck_at(netlist));
    tr.span("netlist.compile", || saf.kernel())?;
    let width = netlist.primary_inputs().len();
    let mut rows = random_rows(cfg.random_cycles, width, cfg.seed);
    let seq_cfg = SeqFaultSimConfig {
        window: cfg.window,
        parallel: cfg.parallel,
        ..Default::default()
    };
    let prelim = seq.run(tr, &saf, &seq_cfg, &mut rows_stimulus(&rows))?;

    let unrolled = tr.span("atpg.unroll", || unroll(saf.view(), cfg.frames))?;
    let mut podem = tr.span("podem.new", || {
        Podem::new(&unrolled.view, cfg.podem.clone())
    })?;
    podem.set_assignable(unrolled.assignable.clone());
    let state_bits = unrolled.assignable.iter().filter(|a| !**a).count();
    let mut seed = cfg.seed | 1;
    let mut targeted = 0usize;
    for (fi, &fault) in saf.faults().iter().enumerate() {
        if prelim.detection[fi].is_some() {
            continue;
        }
        if cfg.max_targets.is_some_and(|cap| targeted >= cap) {
            break;
        }
        targeted += 1;
        let mapped = Fault::new(unrolled.map_net(cfg.frames - 1, fault.net), fault.kind);
        if let Some(cube) = podem_tally.generate(tr, &mut podem, mapped) {
            let filled = cube.fill_random(&mut seed);
            for f in 0..cfg.frames {
                let base = state_bits + f * width;
                rows.push(filled[base..base + width].to_vec());
            }
        }
    }

    let stuck_at = seq.run(tr, &saf, &seq_cfg, &mut rows_stimulus(&rows))?;
    let tdf = tr.span("fault.universe", || FaultUniverse::transition(netlist));
    tr.span("netlist.compile", || tdf.kernel())?;
    let transition = seq.run(tr, &tdf, &seq_cfg, &mut rows_stimulus(&rows))?;
    Ok(ModuleOut {
        saf: stuck_at.detection,
        tdf: transition.detection,
        cycles: rows.len(),
        aborted: podem.aborted(),
    })
}

/// The traced run. Each round runs `SequentialAtpg::run` untraced, then
/// the public-call replay untraced and traced; the replay must equal the
/// library's outcome exactly.
pub fn traced(args: &Args) -> Res<Report> {
    let mut tr = Tracer::new(true);
    let case = tr.span("casestudy.build", paper)?;
    let atpg = config(input_seed(args.seed, 0));
    let mut checks = Checks::default();
    let (mut podem, mut seq) = (PodemTally::default(), SeqTally::default());
    let (mut walls, mut rounds) = (Walls::default(), 0.0);
    let since = (Instant::now(), host::cpu_s());
    loop {
        for module in case.modules() {
            let lib = host::clocked(&mut walls.library, || run_module(&atpg, module))?;
            host::clocked(&mut walls.plain, || {
                let (mut p, mut s) = (PodemTally::default(), SeqTally::default());
                replay(
                    &mut Tracer::new(false),
                    &atpg.config,
                    module,
                    &mut p,
                    &mut s,
                )
            })?;
            let out = host::clocked(&mut walls.traced, || {
                let root = tr.enter("seq_atpg.module");
                let out = replay(&mut tr, &atpg.config, module, &mut podem, &mut seq);
                tr.exit(root);
                out
            })?;
            checks.check(out == lib, || {
                format!("{}: replay differs from SequentialAtpg::run", module.name())
            });
        }
        rounds += 1.0;
        if since.0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let mut layers = Layers::default();
    layers.set("casestudy.build_s", tr.total("casestudy.build"));
    layers.set("fault.universe_s", tr.total("fault.universe") / rounds);
    layers.set("netlist.compile_s", tr.total("netlist.compile") / rounds);
    layers.set("atpg.unroll_s", tr.total("atpg.unroll") / rounds);
    podem.report(&mut layers, &tr, rounds, walls.traced);
    seq.report(&mut layers, &tr, rounds, walls.traced);
    finish_traced(args, &tr, layers, checks, since, &walls)
}
