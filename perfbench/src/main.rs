//! End-to-end and per-layer benchmark of the mGBA workspace.
//!
//! ```text
//! perfbench --workload <calibrate_cold|refit_parallel|optimizer_session>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` one workload runs untraced and the end-to-end
//! metrics are printed. With `--trace 1` every workload is re-executed
//! step by step through the same public functions, with a span around
//! each call, and the per-layer metrics are printed. The last line of
//! standard output is the result object; the line before it holds
//! diagnostics (threads, core count, seed, commit, host-speed probe,
//! sample counts). See `perfbench/README.md`.

mod calibrate_cold;
mod optimizer_session;
mod refit_parallel;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workload names, in the order the traced run executes them.
pub const WORKLOADS: [&str; 3] = ["calibrate_cold", "refit_parallel", "optimizer_session"];

/// Builds of a workload's inputs timed after the timed task and its
/// checks, besides the one before it.
pub const SETUP_AFTER: usize = 2;

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// Set-up or check failures that are not operations.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Diagnostics: key and rendered JSON value.
    pub info: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn info(&mut self, key: impl Into<String>, value: impl std::fmt::Display) {
        self.info.push((key.into(), value.to_string()));
    }

    /// Records a failed check; the run is then reported incorrect.
    pub fn error(&mut self, message: impl Into<String>) {
        let message = message.into();
        eprintln!("perfbench: {message}");
        self.errors.push(message);
    }

    /// Merges another workload's outcome into this one.
    fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.metrics.extend(other.metrics);
        self.info.extend(other.info);
    }
}

/// Rounds every op slot is timed in at least.
pub const MIN_ROUNDS: usize = 3;

/// Quantile of a slot's rounds taken as its sample. With the three to
/// five rounds of `calibrate_cold` it is the fastest round; with the
/// 11–17 of `optimizer_session`, the third to fifth fastest, so a wait
/// that happens in most rounds (a read queued behind a commit's
/// snapshot) stays in the figure while a spell of a slow host does not.
const ROUND_QUANTILE: f64 = 0.25;

/// Latencies of each op slot over the rounds of a run, ms.
pub struct Slots(Vec<Vec<f64>>);

impl Slots {
    pub fn new(slots: usize) -> Self {
        Self(vec![Vec::new(); slots])
    }

    pub fn record(&mut self, slot: usize, ms: f64) {
        self.0[slot].push(ms);
    }

    /// Each slot's sample: the lower quartile (nearest rank) of its
    /// rounds, NaN if it has none.
    fn samples(&self) -> Vec<f64> {
        self.0
            .iter()
            .map(|xs| {
                if xs.is_empty() {
                    f64::NAN
                } else {
                    stats::quantile(xs, ROUND_QUANTILE)
                }
            })
            .collect()
    }
}

/// Latencies of one untraced run.
///
/// The timed task is a fixed list of op slots, each one input or one
/// request, re-run in interleaved rounds, and a slot's sample is the
/// lower quartile of its rounds. On a host shared with other tenants,
/// single ops slow by up to 4.6x in spells lasting seconds; the quartile
/// keeps such a spell out unless it hit most of a slot's rounds. What the
/// rounds measured as a whole is in the diagnostics line
/// (`measured_ops_per_s`).
pub struct Samples {
    pub ops: Slots,
    pub reads: Slots,
    pub writes: Slots,
    rounds: usize,
}

impl Samples {
    pub fn new(ops: usize, reads: usize, writes: usize) -> Self {
        Self {
            ops: Slots::new(ops),
            reads: Slots::new(reads),
            writes: Slots::new(writes),
            rounds: 0,
        }
    }

    /// Whether to run another round of a timed task that began at
    /// `start`, counting it if so: until the budget is spent and
    /// [`MIN_ROUNDS`] are done, or the budget is spent and the run is
    /// failing.
    pub fn next_round(&mut self, start: Instant, budget: Duration, out: &Outcome) -> bool {
        let spent = start.elapsed();
        let more =
            spent < HARD_LIMIT && (spent < budget || (self.rounds < MIN_ROUNDS && out.failed == 0));
        self.rounds += usize::from(more);
        more
    }

    /// The end-to-end metrics shared by every workload. `ops_per_s` is
    /// the rate of one caller issuing the op slots back to back at their
    /// sampled latencies.
    pub fn report(&self, out: &mut Outcome, setup_s: f64, elapsed: Duration, pass_ratio: f64) {
        let done = out.attempted - out.failed;
        out.metric("setup_s", setup_s, "s");
        let ops = self.ops.samples();
        let busy_s: f64 = ops.iter().sum::<f64>() / 1e3;
        out.metric("ops_per_s", ops.len() as f64 / busy_s, "1/s");
        for (name, xs, q) in [
            ("op_p50_ms", &ops, 0.5),
            ("op_p90_ms", &ops, 0.9),
            ("read_p90_ms", &self.reads.samples(), 0.9),
            ("write_p90_ms", &self.writes.samples(), 0.9),
        ] {
            out.metric(name, stats::quantile(xs, q), "ms");
        }
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
        out.metric("pass_ratio", pass_ratio, "ratio");
        out.metric(
            "ok_ratio",
            done as f64 / out.attempted.max(1) as f64,
            "ratio",
        );
        for (class, slots) in [
            ("ops", &self.ops),
            ("reads", &self.reads),
            ("writes", &self.writes),
        ] {
            let n = slots.0.len();
            out.info(format!("samples.{class}"), n);
            let tail = stats::highest_supported(n).map_or("null".into(), |p| p.to_string());
            out.info(format!("tail_percentile.{class}"), tail);
        }
        out.info("rounds", self.rounds);
        out.info("timed_s", elapsed.as_secs_f64());
        out.info("measured_ops_per_s", done as f64 / elapsed.as_secs_f64());
    }
}

/// Longest a timed task may run on, to finish its rounds, before the
/// run gives up; keeps every run inside its time limit.
const HARD_LIMIT: Duration = Duration::from_secs(120);

/// Mean of per-design pass ratios, each given as (passing, total).
pub fn mean_pass_ratio(passes: &[(usize, usize)]) -> f64 {
    let sum: f64 = passes
        .iter()
        .map(|&(p, t)| p as f64 / t.max(1) as f64)
        .sum();
    sum / passes.len() as f64
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `variants` seeded copies of each `D1`–`D10` generator preset, the
/// presets interleaved within each copy. Copy `v` under run seed `s` adds
/// `s * variants + v` to the preset's own seed: seed 0 starts with the
/// paper's presets, and no two run seeds share a design.
pub fn seeded_designs(seed: u64, variants: u64) -> Vec<netlist::GeneratorConfig> {
    (0..variants)
        .flat_map(|v| {
            netlist::DesignSpec::all().into_iter().map(move |spec| {
                let mut config = spec.config();
                config.seed = config
                    .seed
                    .wrapping_add(seed.wrapping_mul(variants))
                    .wrapping_add(v);
                config
            })
        })
        .collect()
}

/// Wall times of repeated builds of a workload's inputs, seconds. Builds
/// run both before and after the timed task, so their median, `setup_s`,
/// samples the host at both ends of the run.
#[derive(Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Builds the inputs once, timing the build.
    pub fn first<T>(build: impl FnOnce() -> T) -> (T, Self) {
        let mut times = Self::default();
        let built = times.time(build);
        (built, times)
    }

    /// Builds and drops the inputs [`SETUP_AFTER`] more times.
    pub fn after<T>(&mut self, mut build: impl FnMut() -> T) {
        for _ in 0..SETUP_AFTER {
            drop(self.time(&mut build));
        }
    }

    fn time<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let built = build();
        self.0.push(t.elapsed().as_secs_f64());
        built
    }

    pub fn median(&self) -> f64 {
        stats::median(&self.0)
    }
}

/// Cores the OS reports.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Small deterministic generator (SplitMix64) for seeded choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6d67_6261_6265_6e63)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Peak resident memory of this process (`VmHWM`), megabytes.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Wall time of a fixed loop owned by the benchmark, milliseconds. It
/// does not touch the program under test, so a change in it between
/// runs is a change in the host.
fn host_probe_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x1234_5678_9abc_def0u64;
    let mut acc = 0.0f64;
    for i in 0..30_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += (x >> 40) as f64 * 1e-9 + i as f64 * 1e-12;
    }
    std::hint::black_box(acc);
    ms_since(t)
}

/// Directory for span dumps and run records (ignored by git).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// The commit the benchmark was built from, read from `.git` without
/// running git; `unknown` outside a repository.
fn commit() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return sha.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".into())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}` (want 0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (want one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool) -> Outcome {
    match (name, trace) {
        ("calibrate_cold", false) => calibrate_cold::run(seed, seconds),
        ("calibrate_cold", true) => calibrate_cold::traced(seed, seconds),
        ("refit_parallel", false) => refit_parallel::run(seed, seconds),
        ("refit_parallel", true) => refit_parallel::traced(seed, seconds),
        ("optimizer_session", false) => optimizer_session::run(seed, seconds),
        ("optimizer_session", true) => optimizer_session::traced(seed, seconds),
        _ => unreachable!("workload names are validated"),
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let probe_before = host_probe_ms();
    let mut outcome = Outcome::default();
    if args.trace {
        // The traced run re-executes every workload, the requested one
        // first, each for an equal share of the time.
        let share = args.seconds / WORKLOADS.len() as f64;
        let order = std::iter::once(args.workload.as_str())
            .chain(WORKLOADS.iter().copied().filter(|w| *w != args.workload));
        for w in order {
            outcome.absorb(run_workload(w, args.seed, share, true));
        }
    } else {
        outcome = run_workload(&args.workload, args.seed, args.seconds, false);
    }
    let probe_after = host_probe_ms();

    let mut info = format!(
        r#"{{"workload":"{}","seed":{},"seconds":{},"trace":{},"nproc":{},"commit":"{}","host_probe_ms":[{probe_before:.3},{probe_after:.3}]"#,
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        json_escape(&commit()),
    );
    for (k, v) in &outcome.info {
        let _ = write!(info, r#","{}":{v}"#, json_escape(k));
    }
    info.push('}');
    println!("{info}");
    let record = out_dir().join(format!(
        "run-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::write(record, format!("{info}\n"));

    for m in &outcome.metrics {
        if !m.value.is_finite() {
            outcome
                .errors
                .push(format!("metric {} is not finite", m.name));
        }
    }
    let correct = outcome.failed == 0 && outcome.errors.is_empty();
    let mut line = format!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{"#,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".into()
        };
        let _ = write!(
            line,
            r#"{sep}"{}":{{"value":{value},"unit":"{}"}}"#,
            m.name, m.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_sample_is_the_lower_quartile_of_its_rounds() {
        let mut slots = Slots::new(3);
        for ms in [40.0, 10.0, 30.0, 20.0] {
            slots.record(0, ms);
        }
        for ms in (1..=16).rev() {
            slots.record(1, f64::from(ms));
        }
        let samples = slots.samples();
        assert_eq!(samples[0], 10.0);
        assert_eq!(samples[1], 4.0);
        assert!(samples[2].is_nan());
    }
}
