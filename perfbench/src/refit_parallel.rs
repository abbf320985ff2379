//! `refit_parallel`: the solver stack on prebuilt fit problems.
//!
//! Set-up builds the fit problems of four seeded copies of each D1–D10
//! preset (`select_paths` + `FitProblem::build_par`). One op is one
//! `solve_with_fallback` call at `threads = nproc`; ops rotate over CGNR,
//! GD and SCG+RS, rounds interleave the forty designs, and each
//! (design, solver) pair is one op slot, timed once a round. Selection
//! and engine build stay out of the timed task, so the parallel layer and
//! the `sparsela` kernels do the work. The read after each solve evaluates the
//! fitted model (model slacks and their pass ratio against golden PBA).
//! Every solve's `x` must equal, bit for bit, the same solve at one
//! thread.

use crate::trace::Tracer;
use crate::{mean_pass_ratio, ms_since, nproc, stats, Outcome, Samples, SetupTimes};
use mgba::{
    auto_period, build_engine, select_paths, solve_with_fallback, FitProblem, MgbaConfig,
    PassRatio, SelectionScheme, Solver,
};
use parallel::Parallelism;
use std::time::{Duration, Instant};

/// Solvers in rotation, with the span name of each.
const SOLVERS: [(Solver, &str); 3] = [
    (Solver::Cgnr, "core.solve.cgnr"),
    (Solver::Gd, "core.solve.gd"),
    (Solver::ScgRs, "core.solve.scgrs"),
];

/// Seeded copies of each preset.
const VARIANTS: u64 = 4;

/// Traced ops at least: every solver on one copy of each preset.
const MIN_TRACED: usize = 30;

/// One design's fit problem, assembled for `threads = nproc`.
struct Problem {
    name: String,
    fit: FitProblem,
}

/// The expected result of one (design, solver) pair.
struct Reference {
    x: Vec<u64>,
    pass: (usize, usize),
}

fn config() -> MgbaConfig {
    MgbaConfig::default().with_threads(nproc())
}

fn problems(seed: u64, config: &MgbaConfig) -> Result<Vec<Problem>, String> {
    let scheme = SelectionScheme::PerEndpoint {
        k: config.paths_per_endpoint,
        max_total: config.max_paths,
    };
    crate::seeded_designs(seed, VARIANTS)
        .into_iter()
        .map(|design| {
            let netlist = design.generate();
            let period = auto_period(&netlist).map_err(|e| e.to_string())?;
            let sta = build_engine(netlist, period).map_err(|e| e.to_string())?;
            let selection = select_paths(&sta, scheme, config.only_violating);
            if selection.paths.is_empty() {
                return Err(format!(
                    "{} (seed {}): no paths selected",
                    design.name, design.seed
                ));
            }
            let fit = FitProblem::build_par(
                &sta,
                &selection.paths,
                config.epsilon,
                config.penalty,
                config.parallelism(),
            );
            Ok(Problem {
                name: format!("{} (seed {})", design.name, design.seed),
                fit,
            })
        })
        .collect()
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Evaluates the fitted model: its path slacks against golden PBA.
fn read_model(fit: &FitProblem, x: &[f64]) -> PassRatio {
    PassRatio::compute(&fit.model_slacks(x), fit.pba_slacks())
}

/// Every (design, solver) pair in round order: designs interleaved,
/// solvers rotating within each design.
fn pairs(problems: &[Problem]) -> Vec<(usize, usize)> {
    (0..problems.len())
        .flat_map(|d| (0..SOLVERS.len()).map(move |s| (d, s)))
        .collect()
}

/// Set-up, one warm-up solve per design, and the one-thread solve of
/// every pair, which every later solve must reproduce bit for bit.
fn prepare(seed: u64, out: &mut Outcome) -> Option<(Vec<Problem>, Vec<Reference>, SetupTimes)> {
    let config = config();
    let (built, times) = SetupTimes::first(|| problems(seed, &config));
    let problems = match built {
        Ok(p) => p,
        Err(e) => {
            out.error(e);
            return None;
        }
    };
    for (d, problem) in problems.iter().enumerate() {
        let (solver, _) = SOLVERS[d % SOLVERS.len()];
        std::hint::black_box(solve_with_fallback(solver, &problem.fit, &config));
    }
    let serial = config.clone().with_threads(1);
    let refs = pairs(&problems)
        .into_iter()
        .map(|(d, s)| {
            let fit = problems[d]
                .fit
                .clone()
                .with_parallelism(Parallelism::serial());
            let (result, _) = solve_with_fallback(SOLVERS[s].0, &fit, &serial);
            let pass = read_model(&fit, &result.x);
            Reference {
                x: bits(&result.x),
                pass: (pass.passing, pass.total),
            }
        })
        .collect();
    Some((problems, refs, times))
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    out.info("threads", nproc());
    let Some((problems, refs, mut setup)) = prepare(seed, &mut out) else {
        return out;
    };
    let config = config();
    let order = pairs(&problems);
    let budget = Duration::from_secs_f64(seconds);
    let mut samples = Samples::new(order.len(), order.len(), order.len());
    let start = Instant::now();
    while samples.next_round(start, budget, &out) {
        for (slot, (&(d, s), reference)) in order.iter().zip(&refs).enumerate() {
            let (problem, (solver, _)) = (&problems[d], SOLVERS[s]);
            out.attempted += 1;
            let t = Instant::now();
            let (result, _) = solve_with_fallback(solver, &problem.fit, &config);
            let op_ms = ms_since(t);
            let t = Instant::now();
            let pass = read_model(&problem.fit, &result.x);
            let read_ms = ms_since(t);
            if bits(&result.x) != reference.x || (pass.passing, pass.total) != reference.pass {
                out.failed += 1;
                eprintln!(
                    "perfbench: {} {}: x differs from the one-thread solve",
                    problem.name,
                    solver.paper_name()
                );
                continue;
            }
            samples.ops.record(slot, op_ms);
            samples.writes.record(slot, op_ms);
            samples.reads.record(slot, read_ms);
        }
    }
    let passes: Vec<_> = refs.iter().map(|r| r.pass).collect();
    let elapsed = start.elapsed();
    drop(problems);
    setup.after(|| self::problems(seed, &config));
    samples.report(&mut out, setup.median(), elapsed, mean_pass_ratio(&passes));
    out
}

/// Calls of each `sparsela` kernel per traced op.
const KERNEL_CALLS: usize = 3;

fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// The traced run: per-layer metrics.
pub fn traced(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let Some((problems, refs, _)) = prepare(seed, &mut out) else {
        return out;
    };
    let config = config();
    let serial = config.clone().with_threads(1);
    let par = config.parallelism();
    let narrow: Vec<FitProblem> = problems
        .iter()
        .map(|p| p.fit.clone().with_parallelism(Parallelism::serial()))
        .collect();
    let order = pairs(&problems);
    let mut tr = Tracer::new(true);
    let mut untraced = Tracer::new(false);
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let (mut wide_s, mut narrow_s) = (0.0, 0.0);
    let (mut ops, mut iterations, mut rows_touched) = (0usize, 0u64, 0u64);
    let mut per_solver = [(0.0f64, 0usize); SOLVERS.len()];
    let mut kernels: [Vec<f64>; 3] = Default::default();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    for (i, (&(d, s), reference)) in order.iter().zip(&refs).cycle().enumerate() {
        if i >= MIN_TRACED && start.elapsed() >= budget {
            break;
        }
        let (fit, (solver, name)) = (&problems[d].fit, SOLVERS[s]);
        let t = Instant::now();
        untraced.enter("refit.op");
        std::hint::black_box(untraced.span(name, || solve_with_fallback(solver, fit, &config)));
        untraced.exit();
        untraced_ms.push(ms_since(t));

        out.attempted += 1;
        tr.enter("refit.op");
        let (result, _) = tr.span(name, || solve_with_fallback(solver, fit, &config));
        let root = tr.exit().expect("tracer is enabled");
        let op = &tr.spans()[root];
        let wide_ms = (op.end - op.start) as f64 / 1e6;
        traced_ms.push(wide_ms);

        // The same solve on one thread, for the parallel speed-up.
        let t = Instant::now();
        std::hint::black_box(solve_with_fallback(solver, &narrow[d], &serial));
        narrow_s += t.elapsed().as_secs_f64();
        wide_s += wide_ms / 1e3;

        // Each kernel on this fit matrix, a few calls in a row.
        let a = fit.matrix();
        let y = a.matvec(&result.x);
        for _ in 0..KERNEL_CALLS {
            let t = Instant::now();
            std::hint::black_box(a.matvec(&result.x));
            kernels[0].push(micros(t));
            let t = Instant::now();
            std::hint::black_box(a.matvec_par(&result.x, par));
            kernels[1].push(micros(t));
            let t = Instant::now();
            std::hint::black_box(a.matvec_t_par(&y, par));
            kernels[2].push(micros(t));
        }

        if bits(&result.x) != reference.x {
            out.failed += 1;
            eprintln!(
                "perfbench: {} {}: x differs",
                problems[d].name,
                solver.paper_name()
            );
            continue;
        }
        ops += 1;
        iterations += result.iterations as u64;
        rows_touched += result.rows_touched;
        per_solver[s].0 += wide_ms;
        per_solver[s].1 += 1;
    }
    for ((_, name), (ms, n)) in SOLVERS.iter().zip(per_solver) {
        out.metric(format!("{name}_ms"), ms / n.max(1) as f64, "ms");
    }
    let per_op = |total: u64| total as f64 / ops.max(1) as f64;
    out.metric("core.solve.iterations", per_op(iterations), "count");
    out.metric("core.solve.rows_touched", per_op(rows_touched), "count");
    out.metric("parallel.speedup", narrow_s / wide_s, "ratio");
    for (name, xs) in [
        "sparsela.matvec_us",
        "sparsela.matvec_par_us",
        "sparsela.matvec_t_par_us",
    ]
    .iter()
    .zip(&kernels)
    {
        out.metric(*name, stats::median(xs), "us");
    }
    out.metric(
        "refit.trace_overhead_ratio",
        stats::median(&traced_ms) / stats::median(&untraced_ms),
        "ratio",
    );
    out.info("refit_parallel.traced_ops", ops);
    out.info("refit_parallel.threads", nproc());
    let _ = tr.write_json(&crate::out_dir().join(format!("spans-refit_parallel-seed{seed}.jsonl")));
    out
}
