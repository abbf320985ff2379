//! `calibrate_cold`: the `mgba-sta calibrate` user path, serial.
//!
//! Set-up renders ten seeded copies of each D1–D10 preset to netlist
//! text; a hundred designs keep a run's figures from hanging on how one
//! seed happens to draw one design, and give the op p90 ten samples
//! beyond it. One op is a full cold calibration of
//! one design at `threads = 1` with the default SCG+RS solver:
//! `parse_netlist` → `auto_period` → `build_engine` →
//! `run_mgba_with_accuracy`. Rounds interleave the designs. After each op
//! the calibrated engine answers the server's read queries in-process
//! (WNS, TNS, the ten worst endpoints, and the worst path to each of them
//! re-timed with PBA); that query is the read sample and the calibration
//! is the write sample. Each design is one op slot, timed once a round.

use crate::trace::Tracer;
use crate::{mean_pass_ratio, ms_since, stats, Outcome, Samples, SetupTimes};
use mgba::{
    auto_period, build_engine, run_mgba_with_accuracy, select_paths, solve_with_fallback,
    FitProblem, MgbaConfig, PassRatio, SelectionScheme, Solver,
};
use netlist::{parse_netlist, write_netlist, CellId, GeneratorConfig};
use sta::paths::worst_paths_to_endpoint;
use sta::{gba_path_timing_batch, pba_timing, pba_timing_batch, Sta};
use std::time::{Duration, Instant};

/// Seeded copies of each preset.
const VARIANTS: u64 = 10;

/// Designs in one copy of the presets. The traced run covers at least
/// one copy, and the text round-trip check runs on the first.
const PRESETS: usize = 10;

/// One seeded design, rendered to netlist text.
struct Input {
    name: String,
    config: GeneratorConfig,
    text: String,
}

/// What a correct calibration of one design produces.
struct Reference {
    /// Installed per-cell weights, as bits.
    weights: Vec<u64>,
    pass: (usize, usize),
    /// Violating endpoints and all endpoints before calibration.
    violating: (usize, usize),
}

fn inputs(seed: u64) -> Vec<Input> {
    crate::seeded_designs(seed, VARIANTS)
        .into_iter()
        .map(|config| Input {
            name: format!("{} (seed {})", config.name, config.seed),
            text: write_netlist(&config.generate()),
            config,
        })
        .collect()
}

fn config() -> MgbaConfig {
    MgbaConfig::default().with_threads(1)
}

fn installed_weights(sta: &Sta) -> Vec<u64> {
    (0..sta.netlist().num_cells())
        .map(|i| sta.gate_weight(CellId::new(i)).to_bits())
        .collect()
}

fn pass_key(p: &PassRatio) -> (usize, usize) {
    (p.passing, p.total)
}

/// The user path: netlist text in, calibrated engine out.
fn calibrate(text: &str, config: &MgbaConfig) -> Result<(Sta, PassRatio), String> {
    let netlist = parse_netlist(text).map_err(|e| e.to_string())?;
    let period = auto_period(&netlist).map_err(|e| e.to_string())?;
    let mut sta = build_engine(netlist, period).map_err(|e| e.to_string())?;
    let (report, _accuracy) = run_mgba_with_accuracy(&mut sta, config, Solver::ScgRs);
    Ok((sta, report.pass_after))
}

/// The server's read queries against a calibrated engine; returns a
/// value derived from every answer so none of it is optimised away.
fn read_queries(sta: &Sta) -> f64 {
    let mut worst: Vec<(f64, CellId)> = sta
        .netlist()
        .endpoints()
        .into_iter()
        .map(|e| (sta.setup_slack(e), e))
        .filter(|(s, _)| s.is_finite())
        .collect();
    worst.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.index().cmp(&b.1.index())));
    worst.truncate(10);
    let mut acc = sta.wns() + sta.tns();
    for &(slack, e) in &worst {
        acc += slack;
        if let Some(path) = worst_paths_to_endpoint(sta, e, 1).first() {
            acc += pba_timing(sta, path).slack;
        }
    }
    acc
}

/// Calibrates `input` from its text (the warm-up op). With `check`, also
/// calibrates the netlist regenerated from its settings and checks that
/// both install the same weights.
fn reference(input: &Input, config: &MgbaConfig, check: bool) -> Result<Reference, String> {
    let (mut parsed, pass) = calibrate(&input.text, config)?;
    let weights = installed_weights(&parsed);
    if check {
        let generated = input.config.generate();
        let period = auto_period(&generated).map_err(|e| e.to_string())?;
        let mut direct = build_engine(generated, period).map_err(|e| e.to_string())?;
        let (report, _) = run_mgba_with_accuracy(&mut direct, config, Solver::ScgRs);
        if weights != installed_weights(&direct) || pass_key(&pass) != pass_key(&report.pass_after)
        {
            return Err(format!(
                "{}: the parsed netlist calibrates differently from the generated one",
                input.name
            ));
        }
    }
    // Back to original GBA, as selection sees it.
    parsed.clear_weights();
    let violating = (
        parsed.violating_endpoints().len(),
        parsed.netlist().endpoints().len(),
    );
    Ok(Reference {
        weights,
        pass: pass_key(&pass),
        violating,
    })
}

/// Set-up, warm-up and the reference of every design. The text
/// round-trip check runs on the first copy of each preset.
fn prepare(seed: u64, out: &mut Outcome) -> Option<(Vec<Input>, Vec<Reference>, SetupTimes)> {
    let (inputs, times) = SetupTimes::first(|| inputs(seed));
    let config = config();
    let mut refs = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        match reference(input, &config, i < PRESETS) {
            Ok(r) => refs.push(r),
            Err(e) => {
                out.error(e);
                return None;
            }
        }
    }
    Some((inputs, refs, times))
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    out.info("threads", 1);
    let Some((inputs, refs, mut setup)) = prepare(seed, &mut out) else {
        return out;
    };
    let config = config();
    let budget = Duration::from_secs_f64(seconds);
    let mut samples = Samples::new(inputs.len(), inputs.len(), inputs.len());
    let start = Instant::now();
    while samples.next_round(start, budget, &out) {
        for (slot, (input, reference)) in inputs.iter().zip(&refs).enumerate() {
            out.attempted += 1;
            let t = Instant::now();
            let result = calibrate(&input.text, &config);
            let op_ms = ms_since(t);
            let (sta, pass) = match result {
                Ok(r) => r,
                Err(e) => {
                    out.failed += 1;
                    eprintln!("perfbench: {}: {e}", input.name);
                    continue;
                }
            };
            let t = Instant::now();
            std::hint::black_box(read_queries(&sta));
            let read_ms = ms_since(t);
            if installed_weights(&sta) != reference.weights || pass_key(&pass) != reference.pass {
                out.failed += 1;
                eprintln!(
                    "perfbench: {}: weights differ from the reference",
                    input.name
                );
                continue;
            }
            samples.ops.record(slot, op_ms);
            samples.writes.record(slot, op_ms);
            samples.reads.record(slot, read_ms);
        }
    }
    let elapsed = start.elapsed();
    drop(inputs);
    setup.after(|| self::inputs(seed));
    let passes: Vec<_> = refs.iter().map(|r| r.pass).collect();
    samples.report(&mut out, setup.median(), elapsed, mean_pass_ratio(&passes));
    out
}

/// Per-op counts the traced composition reports.
struct StepCounts {
    paths: usize,
    nnz: usize,
}

/// `run_mgba_with_accuracy` composed step by step from the public
/// functions it calls, with a span around each call.
fn calibrate_steps(
    text: &str,
    config: &MgbaConfig,
    tr: &mut Tracer,
) -> Result<(Sta, PassRatio, StepCounts), String> {
    let netlist = tr
        .span("netlist.parse", || parse_netlist(text))
        .map_err(|e| e.to_string())?;
    let period = tr
        .span("sta.probe_period", || auto_period(&netlist))
        .map_err(|e| e.to_string())?;
    let mut sta = tr
        .span("sta.build", || build_engine(netlist, period))
        .map_err(|e| e.to_string())?;
    sta.clear_weights();
    let scheme = SelectionScheme::PerEndpoint {
        k: config.paths_per_endpoint,
        max_total: config.max_paths,
    };
    let selection = tr.span("core.select", || {
        select_paths(&sta, scheme, config.only_violating)
    });
    if selection.paths.is_empty() {
        return Err("no paths selected".into());
    }
    let par = config.parallelism();
    let fit = tr.span("core.fit_build", || {
        FitProblem::build_par(&sta, &selection.paths, config.epsilon, config.penalty, par)
    });
    let (result, _stage) = tr.span("core.solve", || {
        solve_with_fallback(Solver::ScgRs, &fit, config)
    });
    let weights = tr.span("core.fold_back", || {
        fit.to_cell_weights(&result.x, sta.netlist().num_cells())
    });
    let golden: Vec<f64> = tr.span("core.evaluate", || {
        pba_timing_batch(&sta, &selection.paths, par)
            .iter()
            .map(|t| t.slack)
            .collect()
    });
    tr.span("core.fold_back", || sta.set_weights(&weights));
    let after: Vec<f64> = tr.span("core.evaluate", || {
        gba_path_timing_batch(&sta, &selection.paths, par)
            .iter()
            .map(|t| t.slack)
            .collect()
    });
    let counts = StepCounts {
        paths: selection.paths.len(),
        nnz: fit.matrix().nnz(),
    };
    Ok((sta, PassRatio::compute(&after, &golden), counts))
}

/// Layers of one calibration, in pipeline order.
const LAYERS: [(&str, &str); 8] = [
    ("netlist.parse", "netlist.parse_ms"),
    ("sta.probe_period", "sta.probe_period_ms"),
    ("sta.build", "sta.build_ms"),
    ("core.select", "core.select_ms"),
    ("core.fit_build", "core.fit_build_ms"),
    ("core.solve", "core.solve_ms"),
    ("core.fold_back", "core.fold_back_ms"),
    ("core.evaluate", "core.evaluate_ms"),
];

/// The traced run: per-layer metrics.
pub fn traced(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let Some((inputs, refs, _)) = prepare(seed, &mut out) else {
        return out;
    };
    let config = config();
    let mut tr = Tracer::new(true);
    let mut untraced = Tracer::new(false);
    let (mut roots, mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut paths, mut nnz) = (0usize, 0usize);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    for (i, (input, reference)) in inputs.iter().zip(&refs).cycle().enumerate() {
        if i >= PRESETS && start.elapsed() >= budget {
            break;
        }
        // The same composition untraced, for the tracing overhead.
        let t = Instant::now();
        let plain = calibrate_steps(&input.text, &config, &mut untraced);
        untraced_ms.push(ms_since(t));

        out.attempted += 1;
        tr.enter("calibrate.op");
        let result = calibrate_steps(&input.text, &config, &mut tr);
        let root = tr.exit().expect("tracer is enabled");
        let span = &tr.spans()[root];
        traced_ms.push((span.end - span.start) as f64 / 1e6);
        match (&result, &plain) {
            (Ok((sta, pass, counts)), Ok((plain_sta, _, _)))
                if installed_weights(sta) == reference.weights
                    && installed_weights(plain_sta) == reference.weights
                    && pass_key(pass) == reference.pass =>
            {
                paths += counts.paths;
                nnz += counts.nnz;
                roots.push(root);
            }
            _ => {
                out.failed += 1;
                eprintln!("perfbench: {}: step-by-step weights differ", input.name);
            }
        }
    }
    let selfs = tr.self_times();
    for &root in &roots {
        let span = &tr.spans()[root];
        let total: u64 = tr.subtree(root).iter().map(|&i| selfs[i]).sum();
        if total != span.end - span.start {
            out.error("layer self times do not add up to the op time");
        }
    }
    let ops = roots.len().max(1) as f64;
    let by_name = tr.self_time_by_name(&roots);
    let layer_ms = |name: &str| by_name.get(name).copied().unwrap_or(0) as f64 / 1e6 / ops;
    for (span, metric) in LAYERS {
        out.metric(metric, layer_ms(span), "ms");
    }
    out.metric("calibrate.unattributed_ms", layer_ms("calibrate.op"), "ms");
    out.metric("core.select.paths", paths as f64 / ops, "count");
    let (bad, all) = refs
        .iter()
        .fold((0, 0), |(b, a), r| (b + r.violating.0, a + r.violating.1));
    out.metric(
        "core.select.violating_endpoint_ratio",
        bad as f64 / all.max(1) as f64,
        "ratio",
    );
    out.metric("core.fit.nnz", nnz as f64 / ops, "count");
    out.metric(
        "calibrate.trace_overhead_ratio",
        stats::median(&traced_ms) / stats::median(&untraced_ms),
        "ratio",
    );
    out.info("calibrate_cold.traced_ops", roots.len());
    let _ = tr.write_json(&crate::out_dir().join(format!("spans-calibrate_cold-seed{seed}.jsonl")));
    out
}
