//! The soctest benchmark: the three Table 3 flows and the fleet, measured
//! end to end (`--trace 0`) or layer by layer (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scan-atpg --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it carries the
//! run's host diagnostics. Traced runs also write their spans to
//! `$CARGO_TARGET_DIR/perfbench-trace/`. See `README.md` beside this
//! crate for the workloads and metrics.

mod bisteval;
mod fleet;
mod host;
mod scan;
mod seqatpg;
mod trace;

use std::error::Error;
use std::fmt::Write as _;
use std::process::ExitCode;

pub type Res<T> = Result<T, Box<dyn Error>>;

/// End-to-end metrics, printed by every untraced run, in this order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("saf_coverage_pct", "%"),
    ("tdf_coverage_pct", "%"),
    ("dies_per_s", "1/s"),
    ("tck_p99", "TCK"),
    ("escape_pct", "%"),
];

/// Per-layer metrics, printed by every traced run, in this order.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("casestudy.build_s", "s"),
    ("fault.universe_s", "s"),
    ("netlist.compile_s", "s"),
    ("atpg.scan_insert_s", "s"),
    ("atpg.unroll_s", "s"),
    ("fleet.cache_build_s", "s"),
    ("podem.targets", "count"),
    ("podem.busy_s", "s"),
    ("podem.share", "ratio"),
    ("podem.ms_per_target_p50", "ms"),
    ("podem.ms_per_target_p99", "ms"),
    ("podem.cubes", "count"),
    ("podem.aborted", "count"),
    ("podem.untestable", "count"),
    ("podem.cube_yield", "ratio"),
    ("comb.calls", "count"),
    ("comb.busy_s", "s"),
    ("comb.patterns_per_call", "count"),
    ("comb.fault_patterns_per_s", "1/s"),
    ("atpg.tdf_replay_s", "s"),
    ("atpg.tdf_topup_s", "s"),
    ("seq.calls", "count"),
    ("seq.busy_s", "s"),
    ("seq.share", "ratio"),
    ("seq.fault_cycles_per_s", "1/s"),
    ("pgen.cycles", "count"),
    ("pgen.busy_s", "s"),
    ("fleet.die_us_p50", "us"),
    ("fleet.die_us_p99", "us"),
    ("fleet.summarize_s", "s"),
    ("health.observe_s", "s"),
    ("fleet.parallel_efficiency", "ratio"),
    ("run.cpu_s", "s"),
    ("run.cpu_per_wall", "ratio"),
    ("host.calib_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = val.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Correctness checks of one run; every failing check is a failed
/// operation.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one check, reporting `what` on standard error if it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Two checks per module: stuck-at and transition coverage, from
    /// `(detected, faults)` counts, at or above the module's floors.
    pub fn floors(
        &mut self,
        case: &soctest_core::casestudy::CaseStudy,
        counts: impl Iterator<Item = ((usize, usize), (usize, usize))>,
        floors: &[(f64, f64)],
    ) {
        for ((module, (saf, tdf)), &(saf_floor, tdf_floor)) in
            case.modules().iter().zip(counts).zip(floors)
        {
            let (saf, tdf) = (pct(saf.0, saf.1), pct(tdf.0, tdf.1));
            let name = module.name();
            self.check(saf >= saf_floor, || {
                format!("{name}: stuck-at coverage {saf:.3}% < floor {saf_floor}%")
            });
            self.check(tdf >= tdf_floor, || {
                format!("{name}: transition coverage {tdf:.3}% < floor {tdf_floor}%")
            });
        }
    }

    /// One check per pass that repeated an input: it must reproduce that
    /// input's first output exactly.
    pub fn repeats<S, T: PartialEq>(&mut self, timed: &host::Timed<S, T>) {
        let k = timed.inputs.len();
        for (p, out) in timed.outs.iter().enumerate().skip(k) {
            self.check(*out == timed.outs[p % k], || {
                format!("pass {p} differs from the first run of input {}", p % k)
            });
        }
    }
}

/// Detected and total collapsed faults, summed over modules.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Coverage {
    pub saf_detected: usize,
    pub saf_faults: usize,
    pub tdf_detected: usize,
    pub tdf_faults: usize,
}

impl Coverage {
    pub fn add(&mut self, saf: (usize, usize), tdf: (usize, usize)) {
        self.saf_detected += saf.0;
        self.saf_faults += saf.1;
        self.tdf_detected += tdf.0;
        self.tdf_faults += tdf.1;
    }

    pub fn saf_pct(&self) -> f64 {
        pct(self.saf_detected, self.saf_faults)
    }

    pub fn tdf_pct(&self) -> f64 {
        pct(self.tdf_detected, self.tdf_faults)
    }
}

pub fn pct(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64 * 100.0
    }
}

/// The end-to-end figures a workload measured; see README.md for what
/// each means on each workload.
pub struct EndToEnd {
    pub wall_s: f64,
    pub setup_s: f64,
    pub saf_coverage_pct: f64,
    pub tdf_coverage_pct: f64,
    pub dies_per_s: f64,
    pub tck_p99: f64,
    pub escape_pct: f64,
}

/// A finished run: its checks, its metrics, and host diagnostics.
pub struct Report {
    pub checks: Checks,
    pub metrics: Vec<(&'static str, f64)>,
    pub diag: Vec<(&'static str, f64)>,
}

impl Report {
    /// An untraced run's report: the end-to-end metrics plus the timed
    /// loop's CPU time as diagnostics.
    pub fn end_to_end<S, T>(checks: Checks, e: EndToEnd, timed: &host::Timed<S, T>) -> Self {
        let loop_wall: f64 = timed.walls.iter().sum();
        Report {
            checks,
            metrics: vec![
                ("wall_s", e.wall_s),
                ("setup_s", e.setup_s),
                ("peak_rss_mb", host::peak_rss_mb()),
                ("saf_coverage_pct", e.saf_coverage_pct),
                ("tdf_coverage_pct", e.tdf_coverage_pct),
                ("dies_per_s", e.dies_per_s),
                ("tck_p99", e.tck_p99),
                ("escape_pct", e.escape_pct),
            ],
            diag: vec![
                ("run.cpu_s", timed.cpu_s),
                ("run.cpu_per_wall", ratio(timed.cpu_s, loop_wall)),
                ("inputs", timed.inputs.len() as f64),
                ("wall_s.passes", timed.walls.len() as f64),
                ("wall_s.min", host::quantile(&timed.walls, 0.0)),
                ("wall_s.max", host::quantile(&timed.walls, 1.0)),
            ],
        }
    }

    /// Renders the result line. Every declared metric of the run's kind is
    /// printed; a missing or non-finite value fails the run's checks.
    fn render(mut self, trace: bool) -> (String, String) {
        let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in declared.iter().enumerate() {
            let value = self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1);
            let ok = value.is_some_and(f64::is_finite);
            self.checks
                .check(ok, || format!("metric {name} missing or not finite"));
            let sep = if i == 0 { "" } else { ", " };
            let v = value.filter(|v| v.is_finite()).unwrap_or(0.0);
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        let mut diag = String::from("{\"diag\": {");
        for (i, (name, v)) in self.diag.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(diag, "{sep}\"{name}\": {v}");
        }
        diag.push_str("}}");
        let line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.checks.failed == 0,
            self.checks.attempted,
            self.checks.failed
        );
        (diag, line)
    }
}

/// Per-layer metrics keyed by name; unset layers read 0 (the layer did no
/// work on this workload).
#[derive(Default)]
pub struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    /// The full per-layer report: every declared name, 0 where unset.
    pub fn into_report(self, checks: Checks) -> Report {
        let metrics = PER_LAYER
            .iter()
            .map(|(name, _)| {
                let v = self.0.iter().find(|(n, _)| n == name).map_or(0.0, |m| m.1);
                (*name, v)
            })
            .collect();
        Report {
            checks,
            metrics,
            diag: Vec::new(),
        }
    }
}

/// The set-up every workload starts from: the paper's case study.
pub fn paper() -> Res<soctest_core::casestudy::CaseStudy> {
    Ok(soctest_core::casestudy::CaseStudy::paper()?)
}

/// Fraction `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Wall seconds of a traced run's three passes over the same work, summed
/// over rounds.
#[derive(Default)]
pub struct Walls {
    /// The library call, untraced.
    pub library: f64,
    /// The public-call replay with the tracer off.
    pub plain: f64,
    /// The public-call replay with the tracer on.
    pub traced: f64,
}

/// Finishes a traced run: sets the CPU and tracing-overhead figures,
/// records the walls they come from as diagnostics, and writes the spans.
pub fn finish_traced(
    args: &Args,
    tr: &trace::Tracer,
    mut layers: Layers,
    checks: Checks,
    since: (std::time::Instant, f64),
    walls: &Walls,
) -> Res<Report> {
    let cpu = host::cpu_s() - since.1;
    layers.set("run.cpu_s", cpu);
    layers.set(
        "run.cpu_per_wall",
        ratio(cpu, since.0.elapsed().as_secs_f64()),
    );
    layers.set(
        "trace.overhead_pct",
        (ratio(walls.traced, walls.plain) - 1.0) * 100.0,
    );
    write_trace(args, tr)?;
    let mut report = layers.into_report(checks);
    report.diag = vec![
        ("trace.library_wall_s", walls.library),
        ("trace.plain_wall_s", walls.plain),
        ("trace.traced_wall_s", walls.traced),
    ];
    Ok(report)
}

/// Writes a traced run's spans where build outputs go, so they stay
/// inside the checkout and out of version control.
fn write_trace(args: &Args, tracer: &trace::Tracer) -> Res<()> {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let dir = std::path::Path::new(&base).join("perfbench-trace");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, tracer.to_jsonl(256))?;
    eprintln!("spans: {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <scan-atpg|seq-atpg|bist-eval|fleet-replay> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let calib_ms = host::calibrate_ms();
    let result = match (args.workload.as_str(), args.trace) {
        ("scan-atpg", false) => scan::measure(&args),
        ("scan-atpg", true) => scan::traced(&args),
        ("seq-atpg", false) => seqatpg::measure(&args),
        ("seq-atpg", true) => seqatpg::traced(&args),
        ("bist-eval", false) => bisteval::measure(&args),
        ("bist-eval", true) => bisteval::traced(&args),
        ("fleet-replay", false) => fleet::measure(&args),
        ("fleet-replay", true) => fleet::traced(&args),
        (w, _) => Err(format!("unknown workload {w}").into()),
    };
    match result {
        Ok(mut report) => {
            report.diag.push(("host.calib_ms", calib_ms));
            if args.trace {
                report.metrics.retain(|(n, _)| *n != "host.calib_ms");
                report.metrics.push(("host.calib_ms", calib_ms));
            }
            let (diag, line) = report.render(args.trace);
            println!("{diag}");
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
