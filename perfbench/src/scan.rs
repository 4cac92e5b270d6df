//! `scan-atpg`: the Table 3 full-scan column, `ScanAtpg::run` on all three
//! modules at the paper budget.

use std::time::Instant;

use soctest_atpg::{insert_scan, random_pattern_set, Podem, ScanAtpg, ScanSchedule, ScanView};
use soctest_core::experiments::Budget;
use soctest_fault::{CombCampaign, CombFaultSim, FaultUniverse, ParallelPolicy, PatternSet};
use soctest_netlist::Netlist;

use crate::host::{self, input_seed, WORKERS};
use crate::trace::Tracer;
use crate::{
    finish_traced, paper, ratio, Args, Checks, Coverage, EndToEnd, Layers, Report, Res, Walls,
};

/// Stuck-at and transition coverage floors per module (BIT_NODE,
/// CHECK_NODE, CONTROL_UNIT), in percent: the mean less five standard
/// deviations over seeds 1–20 when the benchmark was introduced, rounded
/// down to a tenth of a point. Coverage depends on the seed; a drop below
/// these is a change in the flow, not a bad draw.
const FLOORS: [(f64, f64); 3] = [(90.5, 54.9), (96.7, 69.4), (91.6, 35.2)];

/// Distinct seeded inputs per untraced run: two full campaigns fit in a
/// run, and their seeds move the wall by about a tenth.
const INPUTS: usize = 2;

/// The paper-budget full-scan configuration with an explicit worker count
/// and library seed `seed`.
pub fn config(seed: u64) -> ScanAtpg {
    let budget = Budget::paper();
    ScanAtpg {
        random_patterns: budget.scan_random,
        max_targets: budget.scan_max_targets,
        parallel: ParallelPolicy::with_threads(WORKERS),
        seed,
        ..ScanAtpg::default()
    }
}

/// What one module's run produced, reduced to the figures checked and
/// reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ModuleOut {
    saf: (usize, usize),
    tdf: (usize, usize),
    stuck_cycles: u64,
    transition_cycles: u64,
}

fn run_module(cfg: &ScanAtpg, module: &Netlist) -> Res<ModuleOut> {
    let o = cfg.run(module)?.outcome;
    Ok(ModuleOut {
        saf: (o.stuck_at.detected_count(), o.stuck_at.fault_count()),
        tdf: (o.transition.detected_count(), o.transition.fault_count()),
        stuck_cycles: o.stuck_cycles,
        transition_cycles: o.transition_cycles,
    })
}

/// The untraced run: `CaseStudy::paper()` as set-up, whole campaigns as
/// the body, one library seed per input (see `host::measure`).
pub fn measure(args: &Args) -> Res<Report> {
    let timed = host::measure(
        args.seconds,
        INPUTS,
        |i| -> Res<_> { Ok((paper()?, config(input_seed(args.seed, i)))) },
        |(case, cfg)| -> Res<Vec<ModuleOut>> {
            case.modules().iter().map(|m| run_module(cfg, m)).collect()
        },
    )?;
    let mut checks = Checks::default();
    let case = &timed.inputs[0].0;
    let mut cov = Coverage::default();
    let mut lengths = Vec::new();
    for outs in timed.per_input() {
        let counts = outs.iter().map(|o| (o.saf, o.tdf));
        checks.floors(case, counts, &FLOORS);
        for o in outs {
            cov.add(o.saf, o.tdf);
        }
        lengths.push(
            outs.iter()
                .map(|o| o.stuck_cycles + o.transition_cycles)
                .sum::<u64>() as f64,
        );
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

/// PODEM verdicts, classified by whether `Podem::aborted()` moved.
#[derive(Default)]
pub struct PodemTally {
    pub cubes: u64,
    pub aborted: u64,
    pub untestable: u64,
}

impl PodemTally {
    /// Calls `generate` inside a `podem.generate` span and classifies it.
    pub fn generate(
        &mut self,
        tr: &mut Tracer,
        podem: &mut Podem<'_>,
        fault: soctest_fault::Fault,
    ) -> Option<soctest_atpg::TestCube> {
        let before = podem.aborted();
        let cube = tr.span("podem.generate", || podem.generate(fault));
        match (&cube, podem.aborted() > before) {
            (Some(_), _) => self.cubes += 1,
            (None, true) => self.aborted += 1,
            (None, false) => self.untestable += 1,
        }
        cube
    }

    /// Sets the `podem.*` layer metrics from the tally and the trace.
    pub fn report(&self, layers: &mut Layers, tr: &Tracer, rounds: f64, wall: f64) {
        let per_target = tr.durations("podem.generate");
        let ms: Vec<f64> = per_target.iter().map(|s| s * 1e3).collect();
        let busy = tr.total("podem.generate");
        let targets = (self.cubes + self.aborted + self.untestable) as f64;
        layers.set("podem.targets", targets / rounds);
        layers.set("podem.busy_s", busy / rounds);
        layers.set("podem.share", ratio(busy, wall));
        layers.set("podem.ms_per_target_p50", host::median(&ms));
        layers.set("podem.ms_per_target_p99", host::quantile(&ms, 0.99));
        layers.set("podem.cubes", self.cubes as f64 / rounds);
        layers.set("podem.aborted", self.aborted as f64 / rounds);
        layers.set("podem.untestable", self.untestable as f64 / rounds);
        layers.set("podem.cube_yield", ratio(self.cubes as f64, targets));
    }
}

/// Combinational fault-simulation calls: count, patterns, and live
/// fault × pattern products offered to the simulator.
#[derive(Default)]
struct CombTally {
    calls: u64,
    patterns: u64,
    fault_patterns: f64,
}

impl CombTally {
    fn resume(
        &mut self,
        tr: &mut Tracer,
        sim: &CombFaultSim<'_>,
        patterns: &PatternSet,
        campaign: &mut CombCampaign,
    ) -> Res<()> {
        let live = campaign.detection.iter().filter(|d| d.is_none()).count();
        self.calls += 1;
        self.patterns += patterns.len() as u64;
        self.fault_patterns += (live * patterns.len()) as f64;
        tr.span("comb.resume_stuck_at", || {
            sim.resume_stuck_at(patterns, campaign)
        })?;
        Ok(())
    }
}

/// One module replayed from public calls, mirroring `ScanAtpg::run` up to
/// its transition top-up, which uses a private view.
fn replay(
    tr: &mut Tracer,
    cfg: &ScanAtpg,
    module: &Netlist,
    podem_tally: &mut PodemTally,
    comb: &mut CombTally,
) -> Res<(usize, u64)> {
    let design = tr.span("atpg.insert_scan", || insert_scan(module, cfg.chains))?;
    let sv = tr.span("atpg.scan_view", || ScanView::of(&design.netlist))?;
    let saf = tr.span("fault.universe", || FaultUniverse::stuck_at(&sv.view));
    tr.span("netlist.compile", || saf.kernel())?;
    let width = sv.view.primary_inputs().len();

    let mut patterns = random_pattern_set(cfg.random_patterns, width, cfg.seed);
    let sim = CombFaultSim::new(&saf).with_parallelism(cfg.parallel);
    let mut campaign = sim.campaign();
    comb.resume(tr, &sim, &patterns, &mut campaign)?;

    let mut podem = Podem::new(saf.view(), cfg.podem.clone())?;
    let mut seed = cfg.seed | 1;
    let mut buffer = PatternSet::new(width);
    let mut targeted = 0usize;
    for fi in 0..saf.len() {
        if campaign.detection[fi].is_some() {
            continue;
        }
        if cfg.max_targets.is_some_and(|cap| targeted >= cap) {
            break;
        }
        targeted += 1;
        if let Some(cube) = podem_tally.generate(tr, &mut podem, saf.faults()[fi]) {
            buffer.push(&cube.fill_random(&mut seed));
            if buffer.len() == 64 {
                comb.resume(tr, &sim, &buffer, &mut campaign)?;
                for p in 0..buffer.len() {
                    patterns.push(&buffer.row(p));
                }
                buffer = PatternSet::new(width);
            }
        }
    }
    if !buffer.is_empty() {
        comb.resume(tr, &sim, &buffer, &mut campaign)?;
        for p in 0..buffer.len() {
            patterns.push(&buffer.row(p));
        }
    }
    let stuck_cycles = ScanSchedule::new(&design, patterns.len()).stuck_at_cycles();
    let detected = campaign.detection.iter().filter(|d| d.is_some()).count();

    let tdf = tr.span("fault.universe", || FaultUniverse::transition(&sv.view));
    tr.span("netlist.compile", || tdf.kernel())?;
    let tdf_sim = CombFaultSim::new(&tdf).with_parallelism(cfg.parallel);
    let mut tdf_campaign = tdf_sim.campaign();
    tr.span("atpg.tdf_replay", || {
        tdf_sim.resume_transition(&patterns, &sv.state_map(), &mut tdf_campaign)
    })?;
    Ok((detected, stuck_cycles))
}

/// The traced run. Each round runs `ScanAtpg::run` untraced, then the
/// public-call replay twice, untraced and traced; the replay must match
/// the library on stuck-at detections and stuck-at test length.
pub fn traced(args: &Args) -> Res<Report> {
    let mut tr = Tracer::new(true);
    let case = tr.span("casestudy.build", paper)?;
    let cfg = config(input_seed(args.seed, 0));
    let mut checks = Checks::default();
    let (mut podem, mut comb) = (PodemTally::default(), CombTally::default());
    let (mut walls, mut rounds) = (Walls::default(), 0.0);
    let since = (Instant::now(), host::cpu_s());
    loop {
        for module in case.modules() {
            let lib = host::clocked(&mut walls.library, || cfg.run(module))?.outcome;
            host::clocked(&mut walls.plain, || {
                let (mut p, mut c) = (PodemTally::default(), CombTally::default());
                replay(&mut Tracer::new(false), &cfg, module, &mut p, &mut c)
            })?;
            let (detected, stuck_cycles) = host::clocked(&mut walls.traced, || {
                let root = tr.enter("scan_atpg.module");
                let out = replay(&mut tr, &cfg, module, &mut podem, &mut comb);
                tr.exit(root);
                out
            })?;
            let name = module.name();
            let lib_detected = lib.stuck_at.detected_count();
            checks.check(detected == lib_detected, || {
                format!("{name}: replay detects {detected}, ScanAtpg::run {lib_detected}")
            });
            checks.check(stuck_cycles == lib.stuck_cycles, || {
                format!(
                    "{name}: replay stuck-at cycles {stuck_cycles}, ScanAtpg::run {}",
                    lib.stuck_cycles
                )
            });
        }
        rounds += 1.0;
        if since.0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    // Derived: the top-up's private view cannot be called from outside, so
    // its time is what `ScanAtpg::run` spends beyond the replayed phases.
    let topup = (walls.library - walls.plain).max(0.0);
    let mut layers = Layers::default();
    layers.set("casestudy.build_s", tr.total("casestudy.build"));
    layers.set("fault.universe_s", tr.total("fault.universe") / rounds);
    layers.set("netlist.compile_s", tr.total("netlist.compile") / rounds);
    layers.set(
        "atpg.scan_insert_s",
        (tr.total("atpg.insert_scan") + tr.total("atpg.scan_view")) / rounds,
    );
    podem.report(&mut layers, &tr, rounds, walls.traced + topup);
    let comb_busy = tr.total("comb.resume_stuck_at");
    layers.set("comb.calls", comb.calls as f64 / rounds);
    layers.set("comb.busy_s", comb_busy / rounds);
    layers.set(
        "comb.patterns_per_call",
        ratio(comb.patterns as f64, comb.calls as f64),
    );
    layers.set(
        "comb.fault_patterns_per_s",
        ratio(comb.fault_patterns, comb_busy),
    );
    layers.set("atpg.tdf_replay_s", tr.total("atpg.tdf_replay") / rounds);
    layers.set("atpg.tdf_topup_s", topup / rounds);
    finish_traced(args, &tr, layers, checks, since, &walls)
}
