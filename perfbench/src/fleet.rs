//! `fleet-replay`: `Fleet::run` with the health monitor on, replaying
//! TAP + P1500 BIST sessions and the retry ladder for a die population.

use std::time::Instant;

use soctest_core::casestudy::CaseStudy;
use soctest_core::fleet::{DefectClass, DieRecord, Fleet, FleetConfig};
use soctest_core::health::{FleetHealthMonitor, HealthConfig};
use soctest_fault::{FaultUniverse, ParallelPolicy, SeqFaultSim, SeqFaultSimConfig};

use crate::host::{self, input_seed, WORKERS};
use crate::trace::Tracer;
use crate::{
    finish_traced, paper, ratio, Args, Checks, Coverage, EndToEnd, Layers, Report, Res, Walls,
};

/// Dies per campaign.
const DIES: u64 = 100_000;

/// Distinct seeded inputs (fleets) per untraced run. The seed draws the
/// 24-site stuck-at pool, which alone moves a fleet's escape rate between
/// about 40 % and 70 %; a run pools 24 of them, so it runs many mid-sized
/// fleets rather than one large one.
const INPUTS: usize = 24;

/// A reference flight whose report digest is pinned: `DIGEST_DIES` dies
/// at library seed `DIGEST_SEED`, monitor on, the `FleetConfig::new`
/// defaults otherwise.
const DIGEST_DIES: u64 = 20_000;
const DIGEST_SEED: u64 = 42;
const PINNED_DIGEST: u64 = 0xc5b1_b2cb_943c_868f;

fn config(dies: u64, seed: u64) -> FleetConfig {
    FleetConfig {
        workers: WORKERS,
        ..FleetConfig::new(dies, seed)
    }
}

fn build(case: &CaseStudy, cfg: FleetConfig) -> Res<Fleet> {
    Ok(Fleet::new(case, cfg)?.with_monitor(HealthConfig::default()))
}

/// FNV-1a over the report JSON and the health ledger: both are pure
/// functions of the configuration, with no wall-clock figures.
fn digest(report_json: &str, health_jsonl: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in report_json
        .bytes()
        .chain([b'\n'])
        .chain(health_jsonl.bytes())
    {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
    }
    h
}

/// What one `Fleet::run` is checked and scored on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RunOut {
    digest: u64,
    tck_p99: u64,
    escapes: u64,
    stuck_at_dies: u64,
}

fn run(fleet: &Fleet) -> RunOut {
    let out = fleet.run();
    let health = out.health.map(|h| h.to_jsonl()).unwrap_or_default();
    let r = &out.report;
    RunOut {
        digest: digest(&r.to_json(), &health),
        tck_p99: r.tck.p99,
        escapes: r.escapes,
        stuck_at_dies: r
            .classes
            .iter()
            .find(|c| c.class == DefectClass::StuckAt)
            .map_or(0, |c| c.sampled),
    }
}

/// Gate-level coverage of the session every die gets: the first-rung
/// BIST programme of `patterns` patterns, observed at module outputs.
fn session_coverage(case: &CaseStudy, patterns: u64) -> Res<Coverage> {
    let pgen = case.pattern_generator();
    let cfg = SeqFaultSimConfig {
        parallel: ParallelPolicy::with_threads(WORKERS),
        ..SeqFaultSimConfig::default()
    };
    let mut cov = Coverage::default();
    for (m, module) in case.modules().iter().enumerate() {
        let sim = |u: FaultUniverse| -> Res<(usize, usize)> {
            let r = SeqFaultSim::new(&u, cfg.clone()).run(&mut pgen.stimulus(m, patterns))?;
            Ok((r.detected_count(), r.fault_count()))
        };
        cov.add(
            sim(FaultUniverse::stuck_at(module))?,
            sim(FaultUniverse::transition(module))?,
        );
    }
    Ok(cov)
}

/// The untraced run: `CaseStudy::paper()` plus `Fleet::new` as set-up,
/// one fleet per seeded input (see `host::measure`), `Fleet::run` as the
/// body; then the pinned reference flight.
pub fn measure(args: &Args) -> Res<Report> {
    let setup = |i| build(&paper()?, config(DIES, input_seed(args.seed, i)));
    let timed = host::measure(args.seconds, INPUTS, setup, |fleet| -> Res<_> {
        Ok(run(fleet))
    })?;
    let mut checks = Checks::default();
    checks.repeats(&timed);
    let case = &paper()?;
    let reference = run(&build(case, config(DIGEST_DIES, DIGEST_SEED))?).digest;
    checks.check(reference == PINNED_DIGEST, || {
        format!("reference flight digest {reference:#018x}, pinned {PINNED_DIGEST:#018x}")
    });
    let cov = session_coverage(case, FleetConfig::new(DIES, 0).patterns)?;
    let per_input = timed.per_input();
    let p99: Vec<f64> = per_input.iter().map(|o| o.tck_p99 as f64).collect();
    let escapes: u64 = per_input.iter().map(|o| o.escapes).sum();
    let stuck_at: u64 = per_input.iter().map(|o| o.stuck_at_dies).sum();
    let wall_s = timed.wall_s();
    let e = EndToEnd {
        wall_s,
        setup_s: timed.setup_s,
        saf_coverage_pct: cov.saf_pct(),
        tdf_coverage_pct: cov.tdf_pct(),
        dies_per_s: DIES as f64 / wall_s,
        tck_p99: host::median(&p99),
        escape_pct: crate::pct(escapes as usize, stuck_at as usize),
    };
    Ok(Report::end_to_end(checks, e, &timed))
}

/// The campaign replayed serially from public calls: `simulate_die` per
/// die, `summarize`, then the health monitor over the records in order.
fn replay(tr: &mut Tracer, fleet: &Fleet) -> (String, String) {
    let records: Vec<DieRecord> = (0..fleet.config().dies)
        .map(|d| tr.span("fleet.die", || fleet.simulate_die(d)))
        .collect();
    let report = tr.span("fleet.summarize", || fleet.summarize(&records, 1));
    let health = tr.span("health.observe", || {
        let batch = fleet.config().effective_batch();
        let mut monitor =
            FleetHealthMonitor::new(HealthConfig::default(), batch, fleet.module_names());
        for rec in &records {
            monitor.observe_die(rec);
        }
        monitor.finish()
    });
    (report.to_json(), health.to_jsonl())
}

/// The traced run. Each round runs `Fleet::run` untraced on the worker
/// pool, then the serial replay untraced and traced; the replay's report
/// JSON and health ledger must equal the library's byte for byte.
pub fn traced(args: &Args) -> Res<Report> {
    let mut tr = Tracer::new(true);
    let case = tr.span("casestudy.build", paper)?;
    let fleet = tr.span("fleet.cache_build", || {
        build(&case, config(DIES, input_seed(args.seed, 0)))
    })?;
    let mut checks = Checks::default();
    let (mut walls, mut rounds) = (Walls::default(), 0.0);
    let since = (Instant::now(), host::cpu_s());
    loop {
        let lib = host::clocked(&mut walls.library, || fleet.run());
        let lib_health = lib.health.map(|h| h.to_jsonl()).unwrap_or_default();
        host::clocked(&mut walls.plain, || replay(&mut Tracer::new(false), &fleet));
        let (json, health) = host::clocked(&mut walls.traced, || {
            let root = tr.enter("fleet.replay");
            let out = replay(&mut tr, &fleet);
            tr.exit(root);
            out
        });
        checks.check(json == lib.report.to_json(), || {
            "replayed report differs from Fleet::run".into()
        });
        checks.check(health == lib_health, || {
            "replayed health ledger differs from Fleet::run".into()
        });
        rounds += 1.0;
        if since.0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let die_us: Vec<f64> = tr.durations("fleet.die").iter().map(|s| s * 1e6).collect();
    let mut layers = Layers::default();
    layers.set("casestudy.build_s", tr.total("casestudy.build"));
    layers.set("fleet.cache_build_s", tr.total("fleet.cache_build"));
    layers.set("fleet.die_us_p50", host::median(&die_us));
    layers.set("fleet.die_us_p99", host::quantile(&die_us, 0.99));
    layers.set("fleet.summarize_s", tr.total("fleet.summarize") / rounds);
    layers.set("health.observe_s", tr.total("health.observe") / rounds);
    // Serial replay time over the pool's worker-seconds.
    layers.set(
        "fleet.parallel_efficiency",
        ratio(walls.plain, walls.library * WORKERS as f64),
    );
    finish_traced(args, &tr, layers, checks, since, &walls)
}
