//! `optimizer_session`: a sizing optimizer talking to the query server.
//!
//! Set-up writes two seeded copies of each D1–D10 preset to netlist
//! files, starts an in-process `Server` on loopback with one read worker,
//! and over one `Client` connection loads and calibrates each design in a
//! protocol-v2 session of its own. Each design loads with the clock
//! period at which 8 % of its endpoints violate, so the calibrated path
//! set — which sets the cost of every write — scales with the design and
//! not with how its seed happened to draw it; twenty designs rather than
//! one do the same for the rest.
//!
//! The timed task is a closed loop on that connection — the next request
//! goes out only when the previous reply is in. Each visit to a session
//! sends one cycle of the fixed request mix: writes (`whatif_batch` with
//! 16 candidates; `commit`, which recalibrates warm) beside reads (`wns`,
//! `slack top:10`, `path pba:true`).
//!
//! Candidates are a seeded pool of combinational gates whose cell has
//! both a stronger and a weaker drive. Commits move the first two, each
//! `up` and then back `down`, so no request is refused and the design
//! does not drift; each visit's whatif batch is a fixed seeded draw from
//! the pool. A session's script thus repeats every four visits, and a
//! round — every session at each script position — sends each request
//! slot once. After the loop an in-process replica of each
//! session applies the same commits; the server's final WNS and TNS must
//! equal the replica's bit for bit.

use crate::trace::Tracer;
use crate::{ms_since, out_dir, stats, Outcome, Rng, Samples, SetupTimes};
use mgba::{
    build_engine, load_netlist_file, recalibrate_warm, run_mgba_cached, CalibrationCache,
    MgbaConfig, Solver,
};
use netlist::{write_netlist, CellId, CellRole, LibCellId, Netlist};
use server::json::Value;
use server::proto::Command;
use server::{Client, ClientConfig, Server, ServerConfig};
use sta::{gba_path_timing_batch, Sta};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Seeded copies of each preset, one session each.
const COPIES: u64 = 2;
/// Share of endpoints that violate at the period a session loads with.
const VIOLATING_SHARE: f64 = 0.08;
/// Gates of each design the optimizer may resize.
const POOL: usize = 64;
/// Gates of the pool that commits move, each `up` and then back `down`.
const COMMIT_GATES: usize = 2;
/// Visits of a session before its request script repeats: one per commit
/// of the up-and-down walk over [`COMMIT_GATES`].
const POSITIONS: usize = 2 * COMMIT_GATES;
/// Candidates per `whatif_batch`.
const WHATIF: usize = 16;
/// Request stages the server times, as named in its metrics.
const STAGES: [&str; 4] = ["queue_wait", "ticket_wait", "execute", "reply_write"];

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Wns,
    Slack,
    Path,
    WhatIf,
    Commit,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Wns => "server.rtt.wns",
            Kind::Slack => "server.rtt.slack",
            Kind::Path => "server.rtt.path",
            Kind::WhatIf => "server.rtt.whatif_batch",
            Kind::Commit => "server.rtt.commit",
        }
    }

    fn is_write(self) -> bool {
        matches!(self, Kind::WhatIf | Kind::Commit)
    }
}

/// One cycle of the request mix, sent to one session: two writes beside
/// six reads. The read right after a `commit` waits for the commit's
/// snapshot to be published and is the one slow read; at one in six
/// reads it puts `read_p90_ms` inside its own spread of latencies rather
/// than on the edge between it and the fast reads, and the five fast
/// reads keep `op_p50_ms` among themselves.
const CYCLE: [Kind; 8] = [
    Kind::Commit,
    Kind::Wns,
    Kind::Slack,
    Kind::Path,
    Kind::WhatIf,
    Kind::Wns,
    Kind::Slack,
    Kind::Path,
];

/// A running server with one connected client; dropping it shuts the
/// server down and joins its thread.
struct Served {
    client: Client,
    server: Option<JoinHandle<Result<(), mgba::MgbaError>>>,
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.client.call(&Command::Shutdown);
        if let Some(h) = self.server.take() {
            let _ = h.join();
        }
    }
}

fn ok_result(client: &mut Client, cmd: &Command) -> Result<Value, String> {
    let resp = client.call(cmd).map_err(|e| e.to_string())?;
    resp.into_result().map_err(|e| e.to_string())
}

/// One design, served in the session named after its preset.
struct Design {
    session: String,
    path: PathBuf,
    period: f64,
    /// `pass_after` of the session's calibration.
    pass_ratio: f64,
    pool: Vec<String>,
    /// The whatif batch sent at each position of the script.
    batches: Vec<Vec<(String, String)>>,
    /// Commits sent, in order, as (cell, direction).
    commits: Vec<(String, &'static str)>,
    /// Position of the last whatif batch sent.
    last_batch: Option<usize>,
}

impl Design {
    fn request(&mut self, kind: Kind) -> Command {
        match kind {
            Kind::Wns => Command::Wns,
            Kind::Slack => Command::Slack {
                endpoint: None,
                top: 10,
            },
            Kind::Path => Command::PathQuery {
                endpoint: None,
                pba: true,
            },
            Kind::WhatIf => {
                // The batch of the position the last commit reached.
                let k = self.commits.len().saturating_sub(1) % POSITIONS;
                self.last_batch = Some(k);
                Command::WhatIfBatch {
                    resizes: self.batches[k].clone(),
                    pba: false,
                }
            }
            Kind::Commit => {
                let k = self.commits.len();
                let cell = self.pool[(k / 2) % COMMIT_GATES].clone();
                let to = if k.is_multiple_of(2) { "up" } else { "down" };
                self.commits.push((cell.clone(), to));
                Command::Commit {
                    cell,
                    to: to.to_owned(),
                    full: false,
                }
            }
        }
    }
}

/// Seeded pool of resizable gates: combinational, with both a stronger
/// and a weaker drive in the library.
fn pool(netlist: &Netlist, rng: &mut Rng) -> Vec<String> {
    let lib = netlist.library();
    let mut names: Vec<String> = netlist
        .cells()
        .filter(|(_, c)| {
            c.role == CellRole::Combinational
                && lib.upsized(c.lib_cell).is_some()
                && lib.downsized(c.lib_cell).is_some()
        })
        .map(|(_, c)| c.name.clone())
        .collect();
    for i in (1..names.len()).rev() {
        names.swap(i, rng.below(i + 1));
    }
    names.truncate(POOL);
    names
}

/// One whatif batch for each position of the script, drawn from the
/// pool. At an even position the commit has just moved gate `k / 2` up,
/// and its batch leaves that gate out.
fn batches(pool: &[String], rng: &mut Rng) -> Vec<Vec<(String, String)>> {
    (0..POSITIONS)
        .map(|k| {
            let up = (k % 2 == 0).then_some(k / 2);
            let mut resizes = Vec::with_capacity(WHATIF);
            while resizes.len() < WHATIF {
                let g = rng.below(pool.len());
                if Some(g) == up {
                    continue;
                }
                let to = if rng.below(2) == 0 { "up" } else { "down" };
                resizes.push((pool[g].clone(), to.to_owned()));
            }
            resizes
        })
        .collect()
}

/// The clock period at which [`VIOLATING_SHARE`] of the endpoints of
/// `netlist` have negative setup slack. Slack shifts one for one with the
/// period, so one engine at a relaxed period gives every endpoint's slack
/// at any other.
fn period_for_share(netlist: &Netlist) -> Result<f64, String> {
    const RELAXED: f64 = 10_000.0;
    let probe = build_engine(netlist.clone(), RELAXED).map_err(|e| e.to_string())?;
    let mut slacks: Vec<f64> = netlist
        .endpoints()
        .into_iter()
        .map(|e| probe.setup_slack(e))
        .filter(|s| s.is_finite())
        .collect();
    slacks.sort_by(f64::total_cmp);
    let k = (VIOLATING_SHARE * slacks.len() as f64).ceil() as usize;
    let at = slacks.get(k).ok_or("too few constrained endpoints")?;
    Ok(RELAXED - at)
}

/// The session's inputs: a started server holding every design.
struct Setup {
    served: Served,
    designs: Vec<Design>,
}

impl Drop for Setup {
    fn drop(&mut self) {
        for d in &self.designs {
            let _ = std::fs::remove_file(&d.path);
        }
    }
}

fn setup(seed: u64) -> Result<Setup, String> {
    let config = ServerConfig {
        read_workers: 1,
        ..ServerConfig::default()
    };
    let srv = Server::bind("127.0.0.1:0", config).map_err(|e| e.to_string())?;
    let addr = srv.local_addr().map_err(|e| e.to_string())?.to_string();
    let server = std::thread::spawn(move || srv.run());
    let client = match Client::connect(&addr, ClientConfig::default()) {
        Ok(c) => c,
        Err(e) => {
            // Without a client nothing can send `shutdown`; the server
            // thread ends with the process.
            return Err(e.to_string());
        }
    };
    let mut served = Served {
        client,
        server: Some(server),
    };
    served.client.hello().map_err(|e| e.to_string())?;
    let mut rng = Rng::new(seed);
    let mut designs = Vec::new();
    for config in crate::seeded_designs(seed, COPIES) {
        let session = format!("{}-s{}", config.name, config.seed);
        let netlist = config.generate();
        let path = out_dir().join(format!("session-{}-{session}.nl", std::process::id()));
        std::fs::write(&path, write_netlist(&netlist)).map_err(|e| e.to_string())?;
        let period = period_for_share(&netlist)?;
        let c = &mut served.client;
        c.set_session(session.clone());
        let spec = path.to_str().ok_or("non-UTF-8 path")?.to_owned();
        let load = Command::Load {
            spec,
            period: Some(period),
        };
        ok_result(c, &load)?;
        let solver = Some("scgrs".to_owned());
        let calibrated = ok_result(c, &Command::Calibrate { solver })?;
        let pass_ratio = calibrated
            .get("pass_after")
            .and_then(Value::as_f64)
            .ok_or("calibrate reply lacks pass_after")?;
        let pool = pool(&netlist, &mut rng);
        if pool.len() <= COMMIT_GATES {
            return Err(format!("{session}: too few resizable gates"));
        }
        let batches = batches(&pool, &mut rng);
        designs.push(Design {
            session,
            path,
            period,
            pass_ratio,
            pool,
            batches,
            commits: Vec::new(),
            last_batch: None,
        });
    }
    Ok(Setup { served, designs })
}

/// The requests of one visit to a session: one cycle of the mix.
fn visit(design: &mut Design) -> Vec<(Kind, Command)> {
    CYCLE.iter().map(|&k| (k, design.request(k))).collect()
}

/// Sessions in the order one round visits them: every session at each
/// position of its script in turn, so a round holds every request slot
/// once and leaves each design as it found it.
fn round(sessions: usize) -> impl Iterator<Item = usize> {
    (0..POSITIONS).flat_map(move |_| 0..sessions)
}

/// Whether a reply is a success with no per-candidate error.
fn reply_ok(kind: Kind, resp: &server::Response) -> bool {
    if !resp.ok {
        return false;
    }
    match (kind, resp.result.as_ref().and_then(|r| r.get("results"))) {
        (Kind::WhatIf, Some(Value::Arr(results))) => {
            results.len() == WHATIF && results.iter().all(|r| r.get("error").is_none())
        }
        (Kind::WhatIf, _) => false,
        _ => true,
    }
}

/// Sends one request to session `d`; its round trip in ms, or `None`
/// on a failure.
fn send(s: &mut Setup, d: usize, kind: Kind, cmd: &Command, out: &mut Outcome) -> Option<f64> {
    out.attempted += 1;
    s.served.client.set_session(s.designs[d].session.clone());
    let t = Instant::now();
    let resp = s.served.client.call(cmd);
    let ms = ms_since(t);
    match resp {
        Ok(r) if reply_ok(kind, &r) => Some(ms),
        Ok(r) => {
            out.failed += 1;
            eprintln!("perfbench: {} refused: {}", kind.span(), r.raw);
            None
        }
        Err(e) => {
            out.failed += 1;
            eprintln!("perfbench: {}: {e}", kind.span());
            None
        }
    }
}

/// One session replayed in-process: same file, same calibration, same
/// commits with warm recalibration.
struct Replica {
    sta: Sta,
    cache: CalibrationCache,
    config: MgbaConfig,
    pass_ratio: f64,
}

impl Replica {
    fn new(path: &std::path::Path, period: f64) -> Result<Self, String> {
        let netlist =
            load_netlist_file(path.to_str().ok_or("non-UTF-8 path")?).map_err(|e| e.to_string())?;
        let mut sta = build_engine(netlist, period).map_err(|e| e.to_string())?;
        let config = MgbaConfig::default();
        let (report, cache) = run_mgba_cached(&mut sta, &config, Solver::ScgRs);
        Ok(Self {
            sta,
            cache: cache.ok_or("replica calibration left no cache")?,
            config,
            pass_ratio: report.pass_after.ratio(),
        })
    }

    fn resolve(&self, cell: &str, to: &str) -> Result<(CellId, LibCellId), String> {
        let netlist = self.sta.netlist();
        let id = netlist
            .find_cell(cell)
            .ok_or(format!("unknown cell {cell}"))?;
        let current = netlist.cell(id).lib_cell;
        let lib = netlist.library();
        let target = if to == "up" {
            lib.upsized(current)
        } else {
            lib.downsized(current)
        };
        Ok((id, target.ok_or(format!("cannot resize {cell} {to}"))?))
    }

    /// Applies one commit as the session does; returns the dirty rows
    /// and all rows of the refit.
    fn commit(&mut self, cell: &str, to: &str, tr: &mut Tracer) -> Result<(usize, usize), String> {
        let (id, target) = self.resolve(cell, to)?;
        tr.span("sta.resize", || self.sta.resize_cell(id, target))
            .map_err(|e| e.to_string())?;
        let mut dirty = self.sta.last_touched().to_vec();
        dirty.sort_unstable_by_key(|c| c.index());
        dirty.dedup();
        let report = tr.span("core.recalibrate_warm", || {
            recalibrate_warm(
                &mut self.sta,
                &self.config,
                Solver::ScgRs,
                &mut self.cache,
                &dirty,
            )
        });
        Ok((report.dirty_rows, report.total_rows))
    }

    /// One whatif candidate as the session evaluates it: resize, re-time
    /// the calibrated paths, resize back.
    fn whatif(&mut self, cell: &str, to: &str, tr: &mut Tracer) -> Result<(), String> {
        let (id, target) = self.resolve(cell, to)?;
        let current = self.sta.netlist().cell(id).lib_cell;
        let par = parallel::global();
        tr.enter("sta.whatif_candidate");
        let r = self.sta.resize_cell(id, target).and_then(|()| {
            std::hint::black_box(gba_path_timing_batch(&self.sta, &self.cache.paths, par));
            self.sta.resize_cell(id, current)
        });
        tr.exit();
        r.map_err(|e| e.to_string())
    }
}

/// Set-up, then one warm-up round, which sends every request slot once.
fn prepare(seed: u64, out: &mut Outcome) -> Option<(Setup, SetupTimes)> {
    let (built, times) = SetupTimes::first(|| setup(seed));
    let mut s = match built {
        Ok(s) => s,
        Err(e) => {
            out.error(format!("session set-up failed: {e}"));
            return None;
        }
    };
    let mut warm = Outcome::default();
    for d in round(s.designs.len()) {
        for (kind, cmd) in visit(&mut s.designs[d]) {
            if send(&mut s, d, kind, &cmd, &mut warm).is_none() {
                out.error(format!("warm-up {} failed", kind.span()));
                return None;
            }
        }
    }
    Some((s, times))
}

/// Checks each session's final WNS and TNS against a replica that
/// applied the same commits, spanning the replica's layers in `tr`; with
/// `whatif`, each replica then also replays its session's last whatif
/// batch, which was drawn after the session's last commit and so fits
/// the replica's final state. Returns the share of fit rows the warm refits rebuilt.
fn check_final(s: &mut Setup, tr: &mut Tracer, whatif: bool, out: &mut Outcome) -> f64 {
    let (mut dirty, mut total) = (0, 0);
    for design in &s.designs {
        let c = &mut s.served.client;
        c.set_session(design.session.clone());
        let mut final_of = |cmd: Command, key: &str| {
            ok_result(c, &cmd)
                .ok()
                .and_then(|v| v.get(key).and_then(Value::as_f64))
        };
        let (wns, tns) = (final_of(Command::Wns, "wns"), final_of(Command::Tns, "tns"));
        let mut replica = match Replica::new(&design.path, design.period) {
            Ok(r) => r,
            Err(e) => {
                out.error(format!("{} replica: {e}", design.session));
                continue;
            }
        };
        if replica.pass_ratio != design.pass_ratio {
            out.error(format!(
                "{}: replica calibrates differently",
                design.session
            ));
        }
        for (cell, to) in &design.commits {
            match replica.commit(cell, to, tr) {
                Ok((d, t)) => {
                    dirty += d;
                    total += t;
                }
                Err(e) => out.error(format!("{} replica: {e}", design.session)),
            }
        }
        let same = |a: Option<f64>, b: f64| a.is_some_and(|a| a.to_bits() == b.to_bits());
        if !same(wns, replica.sta.wns()) || !same(tns, replica.sta.tns()) {
            out.error(format!(
                "{}: final wns/tns {wns:?}/{tns:?} differ from the replica's {}/{}",
                design.session,
                replica.sta.wns(),
                replica.sta.tns()
            ));
        }
        if whatif {
            let batch = design.last_batch.map(|k| &design.batches[k]);
            for (cell, to) in batch.into_iter().flatten() {
                if let Err(e) = replica.whatif(cell, to, tr) {
                    out.error(format!("{} replica whatif: {e}", design.session));
                }
            }
        }
    }
    let commits: usize = s.designs.iter().map(|d| d.commits.len()).sum();
    out.info("optimizer_session.commits", commits);
    dirty as f64 / total.max(1) as f64
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    out.info("threads", parallel::global().threads());
    out.info("read_workers", 1);
    let Some((mut s, mut setup_times)) = prepare(seed, &mut out) else {
        return out;
    };
    let budget = Duration::from_secs_f64(seconds);
    let visits = POSITIONS * s.designs.len();
    let writes = CYCLE.iter().filter(|k| k.is_write()).count();
    let mut samples = Samples::new(
        visits * CYCLE.len(),
        visits * (CYCLE.len() - writes),
        visits * writes,
    );
    let start = Instant::now();
    while samples.next_round(start, budget, &out) {
        // Slot indices within the round: every op, reads, writes.
        let (mut op, mut read, mut write) = (0, 0, 0);
        for d in round(s.designs.len()) {
            for (kind, cmd) in visit(&mut s.designs[d]) {
                let ms = send(&mut s, d, kind, &cmd, &mut out);
                let class = if kind.is_write() {
                    (&mut samples.writes, &mut write)
                } else {
                    (&mut samples.reads, &mut read)
                };
                if let Some(ms) = ms {
                    samples.ops.record(op, ms);
                    class.0.record(*class.1, ms);
                }
                op += 1;
                *class.1 += 1;
            }
        }
    }
    let elapsed = start.elapsed();
    check_final(&mut s, &mut Tracer::new(false), false, &mut out);
    let pass_ratio = s.designs.iter().map(|d| d.pass_ratio).sum::<f64>() / s.designs.len() as f64;
    drop(s);
    setup_times.after(|| setup(seed));
    samples.report(&mut out, setup_times.median(), elapsed, pass_ratio);
    out
}

/// Per-stage (sum µs, count) over every session's request-stage
/// histogram, read through the public `metrics` command.
fn stage_totals(client: &mut Client) -> Result<Vec<(f64, f64)>, String> {
    let v = ok_result(client, &Command::Metrics)?;
    let text = v
        .get("exposition")
        .and_then(Value::as_str)
        .ok_or("metrics reply lacks an exposition")?;
    let total = |suffix: &str, stage: &str| -> f64 {
        let family = format!("mgba_server_stage_us_{suffix}{{");
        let label = format!(r#"stage="{stage}"}}"#);
        text.lines()
            .filter(|l| l.starts_with(&family))
            .filter_map(|l| l.split_once(&label))
            .filter_map(|(_, v)| v.trim().parse::<f64>().ok())
            .sum()
    };
    Ok(STAGES
        .iter()
        .map(|stage| (total("sum", stage), total("count", stage)))
        .collect())
}

fn span_ms(tr: &Tracer, name: &str) -> Vec<f64> {
    tr.spans()
        .iter()
        .filter(|sp| sp.name == name)
        .map(|sp| (sp.end - sp.start) as f64 / 1e6)
        .collect()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The traced run: per-layer metrics.
pub fn traced(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let Some((mut s, _)) = prepare(seed, &mut out) else {
        return out;
    };
    let before = stage_totals(&mut s.served.client);
    let mut tr = Tracer::new(true);
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let sessions = s.designs.len();
    let mut cycles = 0usize;
    // At least two traced and two untraced visits of every session.
    while cycles < 4 * sessions || start.elapsed() < budget {
        // Traced and untraced alternate every two visits of each
        // session, so both see `up` and `down` commits alike.
        let traced = (cycles / (2 * sessions)).is_multiple_of(2);
        let d = cycles % sessions;
        cycles += 1;
        for (kind, cmd) in visit(&mut s.designs[d]) {
            if traced {
                tr.enter(kind.span());
                let ms = send(&mut s, d, kind, &cmd, &mut out);
                tr.exit();
                traced_ms.extend(ms);
            } else {
                untraced_ms.extend(send(&mut s, d, kind, &cmd, &mut out));
            }
        }
    }
    let after = stage_totals(&mut s.served.client);
    for kind in [
        Kind::Commit,
        Kind::WhatIf,
        Kind::Wns,
        Kind::Slack,
        Kind::Path,
    ] {
        let rtt = span_ms(&tr, kind.span());
        out.metric(format!("{}_ms", kind.span()), stats::median(&rtt), "ms");
    }
    match (before, after) {
        (Ok(b), Ok(a)) => {
            for (stage, ((s0, c0), (s1, c1))) in STAGES.iter().zip(b.into_iter().zip(a)) {
                let mean_us = (s1 - s0) / (c1 - c0).max(1.0);
                out.metric(format!("server.stage.{stage}_us"), mean_us, "us");
            }
        }
        (Err(e), _) | (_, Err(e)) => out.error(e),
    }

    // Replica layers: every commit, and each session's last whatif batch.
    let mut layers = Tracer::new(true);
    let dirty_ratio = check_final(&mut s, &mut layers, true, &mut out);
    out.metric("sta.resize_ms", mean(&span_ms(&layers, "sta.resize")), "ms");
    out.metric(
        "core.recalibrate_warm_ms",
        mean(&span_ms(&layers, "core.recalibrate_warm")),
        "ms",
    );
    out.metric(
        "sta.whatif_candidate_ms",
        mean(&span_ms(&layers, "sta.whatif_candidate")),
        "ms",
    );
    out.metric("core.recalibrate.dirty_row_ratio", dirty_ratio, "ratio");
    out.metric(
        "server.trace_overhead_ratio",
        stats::median(&traced_ms) / stats::median(&untraced_ms),
        "ratio",
    );
    let _ = tr.write_json(&out_dir().join(format!("spans-optimizer_session-seed{seed}.jsonl")));
    out
}
