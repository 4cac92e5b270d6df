//! Host-side measurement: process CPU time, peak RSS, a fixed calibration
//! loop, and the order statistics every metric is reported with.

use std::hint::black_box;
use std::time::Instant;

/// Worker threads every workload uses. Fixed, never the library's
/// `0 = all cores`, so the work done does not change with the host.
pub const WORKERS: usize = 2;

/// Maps the command-line seed to the library seed (SplitMix64 finalizer),
/// so small or zero seeds still give well-mixed generator states.
pub fn lib_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `v`; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Times a fixed integer loop five times and returns the median in
/// milliseconds. The loop does the same work on every host, so a change
/// in this figure between runs is the host's speed changing, not the
/// program's.
pub fn calibrate_ms() -> f64 {
    let walls: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
            for _ in 0..16_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&walls)
}

/// CPU time (user + system, all threads) this process has used, in
/// seconds, from `/proc/self/stat` at the usual 100 ticks per second.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds of set-up repetitions timed before the first pass of the body
/// and again after the last.
const SETUP_SECONDS: f64 = 0.5;

/// Share of each pass's wall spent timing set-up repetitions right after
/// it. Set-up takes from under a millisecond to a tenth of a second and
/// this host's speed shifts on a scale of a few hundred milliseconds, so
/// set-up is sampled across the whole run, not in one burst.
const SETUP_SHARE: f64 = 0.05;

/// The library seed of input `i` of a run with command-line seed `seed`:
/// input 0 uses `lib_seed(seed)`, later inputs step the seed by 2^32.
pub fn input_seed(seed: u64, i: usize) -> u64 {
    lib_seed(seed.wrapping_add((i as u64) << 32))
}

/// What an untraced measurement produced.
pub struct Timed<S, T> {
    /// The set-up of each input, in input order.
    pub inputs: Vec<S>,
    /// Median wall of one set-up, in seconds.
    pub setup_s: f64,
    /// Wall time of each pass of the body, in seconds.
    pub walls: Vec<f64>,
    /// Each pass's output; pass `p` ran input `p % inputs.len()`.
    pub outs: Vec<T>,
    /// Process CPU time spent over all passes, in seconds.
    pub cpu_s: f64,
}

impl<S, T: PartialEq> Timed<S, T> {
    /// Median pass wall, in seconds.
    pub fn wall_s(&self) -> f64 {
        median(&self.walls)
    }

    /// The output of each distinct input, in input order.
    pub fn per_input(&self) -> &[T] {
        &self.outs[..self.inputs.len()]
    }
}

/// Runs `f`, adding its wall time in seconds to `acc`.
pub fn clocked<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed().as_secs_f64();
    r
}

/// An untraced measurement over `inputs` seeded inputs.
///
/// `setup(i)` builds input `i`; every input is built once, then set-up
/// repeats (cycling through the inputs, results dropped) for about
/// [`SETUP_SECONDS`]. Pass `p` of the body runs `body` on input
/// `p % inputs`; after each pass, set-up repeats while the time spent on
/// it stays within [`SETUP_SHARE`] of the passes so far. Passes continue
/// until every input ran once and `seconds` have passed; set-up then
/// repeats for about another [`SETUP_SECONDS`]. `setup_s` is the median
/// over every timed set-up; `cpu_s` covers the passes only.
pub fn measure<S, T, E>(
    seconds: f64,
    inputs: usize,
    mut setup: impl FnMut(usize) -> Result<S, E>,
    mut body: impl FnMut(&S) -> Result<T, E>,
) -> Result<Timed<S, T>, E> {
    let k = inputs.max(1);
    // The first k set-ups build inputs 0..k; later ones cycle through them.
    let mut setup_walls = Vec::new();
    let mut built = Vec::with_capacity(k);
    for i in 0..k {
        let t = Instant::now();
        built.push(black_box(setup(i)?));
        setup_walls.push(t.elapsed().as_secs_f64());
    }
    // Times one set-up, cycling through the inputs, and returns its wall.
    let mut one_setup = |walls: &mut Vec<f64>| -> Result<f64, E> {
        let t = Instant::now();
        black_box(setup(walls.len() % k)?);
        walls.push(t.elapsed().as_secs_f64());
        Ok(walls[walls.len() - 1])
    };
    let mut credit = SETUP_SECONDS;
    while credit > 0.0 {
        credit -= one_setup(&mut setup_walls)?;
    }

    let start = Instant::now();
    let (mut walls, mut outs, mut cpu) = (Vec::new(), Vec::new(), 0.0);
    while outs.len() < k || start.elapsed().as_secs_f64() < seconds {
        let (t, cpu0) = (Instant::now(), cpu_s());
        let out = black_box(body(&built[outs.len() % k])?);
        let wall = t.elapsed().as_secs_f64();
        cpu += cpu_s() - cpu0;
        walls.push(wall);
        outs.push(out);
        credit += SETUP_SHARE * wall;
        while credit > 0.0 {
            credit -= one_setup(&mut setup_walls)?;
        }
    }
    credit += SETUP_SECONDS;
    while credit > 0.0 {
        credit -= one_setup(&mut setup_walls)?;
    }
    Ok(Timed {
        inputs: built,
        setup_s: median(&setup_walls),
        walls,
        outs,
        cpu_s: cpu,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn seeds_mix() {
        assert_ne!(lib_seed(0), 0);
        assert_ne!(lib_seed(1), lib_seed(2));
    }
}
