//! `bist-eval`: the Table 3 BIST column, `SeqFaultSim::run` for stuck-at
//! and transition faults on all three modules over the paper's 4,096
//! patterns from `CaseStudy::pattern_generator()`.

use std::time::{Duration, Instant};

use soctest_core::casestudy::CaseStudy;
use soctest_core::experiments::Budget;
use soctest_fault::{FaultUniverse, ParallelPolicy, SeqFaultSim, SeqFaultSimConfig, SeqStimulus};

use crate::host::{self, WORKERS};
use crate::seqatpg::SeqTally;
use crate::trace::Tracer;
use crate::{finish_traced, paper, Args, Checks, Coverage, EndToEnd, Layers, Report, Res, Walls};

/// Detected stuck-at and transition faults per module (BIT_NODE,
/// CHECK_NODE, CONTROL_UNIT) at 4,096 patterns. The BIST hardware fixes
/// the stimulus, so these hold for every seed.
const PINNED: [(usize, usize); 3] = [(2715, 2496), (12333, 11907), (1184, 956)];

/// What the timed body reuses: the case study, its pattern generator, and
/// each module's fault universes with their compiled kernels.
struct Setup {
    case: CaseStudy,
    pgen: soctest_bist::PatternGenerator,
    universes: Vec<(FaultUniverse, FaultUniverse)>,
}

fn setup() -> Res<Setup> {
    let case = CaseStudy::paper()?;
    let pgen = case.pattern_generator();
    let universes = case
        .modules()
        .iter()
        .map(|m| -> Res<_> {
            let (saf, tdf) = (FaultUniverse::stuck_at(m), FaultUniverse::transition(m));
            saf.kernel()?;
            tdf.kernel()?;
            Ok((saf, tdf))
        })
        .collect::<Res<_>>()?;
    Ok(Setup {
        case,
        pgen,
        universes,
    })
}

fn sim_config() -> SeqFaultSimConfig {
    SeqFaultSimConfig {
        parallel: ParallelPolicy::with_threads(WORKERS),
        ..SeqFaultSimConfig::default()
    }
}

type Detections = Vec<(Vec<Option<u64>>, Vec<Option<u64>>)>;

/// The timed body: both fault models on every module.
fn body(s: &Setup, patterns: u64) -> Res<Detections> {
    let cfg = sim_config();
    let mut out = Vec::new();
    for (m, (saf, tdf)) in s.universes.iter().enumerate() {
        let a = SeqFaultSim::new(saf, cfg.clone()).run(&mut s.pgen.stimulus(m, patterns))?;
        let b = SeqFaultSim::new(tdf, cfg.clone()).run(&mut s.pgen.stimulus(m, patterns))?;
        out.push((a.detection, b.detection));
    }
    Ok(out)
}

fn detected(d: &[Option<u64>]) -> usize {
    d.iter().filter(|x| x.is_some()).count()
}

fn check_pinned(checks: &mut Checks, case: &CaseStudy, outs: &Detections) {
    for ((module, (saf, tdf)), pinned) in case.modules().iter().zip(outs).zip(PINNED) {
        let got = (detected(saf), detected(tdf));
        checks.check(got == pinned, || {
            format!(
                "{}: detected (saf, tdf) {got:?}, pinned {pinned:?}",
                module.name()
            )
        });
    }
}

/// The untraced run: the case study, generator, universes and kernels as
/// set-up, both fault models on every module as the body. The stimulus
/// is fixed by the BIST hardware, so a run has one input.
pub fn measure(args: &Args) -> Res<Report> {
    let patterns = Budget::paper().bist_patterns;
    let timed = host::measure(args.seconds, 1, |_| setup(), |s| body(s, patterns))?;
    let mut checks = Checks::default();
    let s = &timed.inputs[0];
    check_pinned(&mut checks, &s.case, &timed.outs[0]);
    checks.repeats(&timed);
    let mut cov = Coverage::default();
    for (saf, tdf) in &timed.outs[0] {
        cov.add((detected(saf), saf.len()), (detected(tdf), tdf.len()));
    }
    let wall_s = timed.wall_s();
    let e = EndToEnd {
        wall_s,
        setup_s: timed.setup_s,
        saf_coverage_pct: cov.saf_pct(),
        tdf_coverage_pct: cov.tdf_pct(),
        dies_per_s: (cov.saf_faults + cov.tdf_faults) as f64 / wall_s,
        tck_p99: (patterns * s.universes.len() as u64) as f64,
        escape_pct: 100.0 - cov.saf_pct(),
    };
    Ok(Report::end_to_end(checks, e, &timed))
}

/// A stimulus wrapper that times the pattern generator from outside.
struct TimedStimulus<S> {
    inner: S,
    on: bool,
    busy: Duration,
}

impl<S: SeqStimulus> SeqStimulus for TimedStimulus<S> {
    fn cycles(&self) -> u64 {
        self.inner.cycles()
    }

    fn fill(&mut self, t: u64, out: &mut [bool]) {
        if self.on {
            let t0 = Instant::now();
            self.inner.fill(t, out);
            self.busy += t0.elapsed();
        } else {
            self.inner.fill(t, out);
        }
    }
}

/// Pattern-generator cycles produced and the time spent producing them.
#[derive(Default)]
struct PgenTally {
    cycles: u64,
    busy: Duration,
}

/// The body replayed from public calls with its set-up, traced or not.
fn replay(
    tr: &mut Tracer,
    s: &Setup,
    patterns: u64,
    seq: &mut SeqTally,
    pgen: &mut PgenTally,
) -> Res<Detections> {
    let cfg = sim_config();
    let mut out = Vec::new();
    for (m, module) in s.case.modules().iter().enumerate() {
        let saf = tr.span("fault.universe", || FaultUniverse::stuck_at(module));
        let tdf = tr.span("fault.universe", || FaultUniverse::transition(module));
        tr.span("netlist.compile", || saf.kernel())?;
        tr.span("netlist.compile", || tdf.kernel())?;
        let mut sim = |tr: &mut Tracer, u: &FaultUniverse| -> Res<Vec<Option<u64>>> {
            let mut stim = TimedStimulus {
                inner: s.pgen.stimulus(m, patterns),
                on: tr.is_on(),
                busy: Duration::ZERO,
            };
            let detection = seq.run(tr, u, &cfg, &mut stim)?.detection;
            pgen.cycles += patterns;
            pgen.busy += stim.busy;
            Ok(detection)
        };
        out.push((sim(tr, &saf)?, sim(tr, &tdf)?));
    }
    Ok(out)
}

/// The traced run. Each round runs the body untraced, then the replay
/// (universes, kernels and simulations from public calls) untraced and
/// traced; the replay must detect exactly what the body detects.
pub fn traced(args: &Args) -> Res<Report> {
    let mut tr = Tracer::new(true);
    tr.span("casestudy.build", paper)?;
    let s = setup()?;
    let patterns = Budget::paper().bist_patterns;
    let mut checks = Checks::default();
    let (mut seq, mut pgen) = (SeqTally::default(), PgenTally::default());
    let (mut walls, mut rounds) = (Walls::default(), 0.0);
    let since = (Instant::now(), host::cpu_s());
    loop {
        let lib = host::clocked(&mut walls.library, || body(&s, patterns))?;
        check_pinned(&mut checks, &s.case, &lib);
        host::clocked(&mut walls.plain, || {
            let (mut q, mut p) = (SeqTally::default(), PgenTally::default());
            replay(&mut Tracer::new(false), &s, patterns, &mut q, &mut p)
        })?;
        let got = host::clocked(&mut walls.traced, || {
            let root = tr.enter("bist_eval.replay");
            let out = replay(&mut tr, &s, patterns, &mut seq, &mut pgen);
            tr.exit(root);
            out
        })?;
        checks.check(got == lib, || {
            "replay differs from the body's detections".into()
        });
        rounds += 1.0;
        if since.0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let mut layers = Layers::default();
    layers.set("casestudy.build_s", tr.total("casestudy.build"));
    layers.set("fault.universe_s", tr.total("fault.universe") / rounds);
    layers.set("netlist.compile_s", tr.total("netlist.compile") / rounds);
    seq.report(&mut layers, &tr, rounds, walls.traced);
    layers.set("pgen.cycles", pgen.cycles as f64 / rounds);
    layers.set("pgen.busy_s", pgen.busy.as_secs_f64() / rounds);
    finish_traced(args, &tr, layers, checks, since, &walls)
}
