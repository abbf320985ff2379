//! Exactness of the violating-only cut in critical-path enumeration.
//!
//! With `only_violating`, each endpoint's best-first search stops at a
//! floor just below the endpoint's required time (`sta::paths::MARGIN`)
//! instead of enumerating `k` paths and filtering them. The unpruned
//! enumeration (`only_violating = false`) is the oracle: the pruned
//! selection must equal it filtered to negative GBA slack, bit for bit —
//! cells, arrival and slack bits, and order — on every D-series preset
//! at tight, calibrate-default and relaxed periods, at periods that put
//! the worst slack within a few ulps of zero, and after chains of
//! incremental `resize_cell` updates.

use mgba::{auto_period, select_paths, SelectionScheme};
use netlist::{CellId, DesignSpec, GeneratorConfig, Netlist};
use sta::paths::{select_critical_paths, worst_paths_to_endpoint, Path, MARGIN};
use sta::{DerateSet, Sdc, Sta};

/// Paths per endpoint, as in the calibrate default.
const K: usize = 20;

/// Seeded copies of each preset.
const SEEDS: u64 = 3;

/// Probe period of `auto_period`: far longer than any path.
const RELAXED: f64 = 10_000.0;

/// Every D1–D10 preset under `SEEDS` seeds.
fn designs() -> Vec<GeneratorConfig> {
    DesignSpec::all()
        .into_iter()
        .flat_map(|spec| {
            (0..SEEDS).map(move |s| {
                let mut config = spec.config();
                config.seed = config.seed.wrapping_add(1000 * s);
                config
            })
        })
        .collect()
}

fn engine(netlist: Netlist, period: f64) -> Sta {
    Sta::new(netlist, Sdc::with_period(period), DerateSet::standard()).expect("engine builds")
}

/// WNS and worst endpoint arrival of `netlist` at the relaxed probe
/// period (the recipe `auto_period` uses).
fn probe(netlist: &Netlist) -> (f64, f64) {
    let sta = engine(netlist.clone(), RELAXED);
    let max_arrival = netlist
        .endpoints()
        .iter()
        .map(|&e| sta.endpoint_arrival(e))
        .filter(|a| a.is_finite())
        .fold(0.0, f64::max);
    (sta.wns(), max_arrival)
}

/// A selection as bits: cells, arrival and slack bits, in order.
fn bits(paths: &[Path]) -> Vec<(Vec<CellId>, CellId, u64, u64)> {
    paths
        .iter()
        .map(|p| {
            (
                p.cells.clone(),
                p.endpoint,
                p.gba_arrival.to_bits(),
                p.gba_slack.to_bits(),
            )
        })
        .collect()
}

/// The oracle: the unpruned selection filtered to violating paths and
/// capped at `max_total`.
fn oracle(sta: &Sta, k: usize, max_total: usize) -> Vec<Path> {
    let mut paths = select_critical_paths(sta, k, usize::MAX, false);
    paths.retain(|p| p.gba_slack < 0.0);
    paths.truncate(max_total);
    paths
}

/// Endpoints with a path at or below the cut floor among their `k`
/// worst: the searches the floor stops early.
fn endpoints_below_floor(sta: &Sta, k: usize) -> usize {
    sta.netlist()
        .endpoints()
        .into_iter()
        .filter(|&e| {
            let floor = sta.endpoint_required(e) - MARGIN;
            worst_paths_to_endpoint(sta, e, k)
                .iter()
                .any(|p| p.gba_arrival <= floor)
        })
        .count()
}

/// Checks every pruned entry point against the oracle on `sta`; returns
/// the number of violating paths.
fn assert_exact(sta: &Sta, k: usize, max_total: usize, label: &str) -> usize {
    let want = bits(&oracle(sta, k, max_total));
    let pruned = select_critical_paths(sta, k, max_total, true);
    assert_eq!(bits(&pruned), want, "{label}: select_critical_paths");
    for scheme in [
        SelectionScheme::TopGlobal {
            k_enum: k,
            m: max_total,
        },
        SelectionScheme::PerEndpoint { k, max_total },
    ] {
        let selection = select_paths(sta, scheme, true);
        assert_eq!(bits(&selection.paths), want, "{label}: {scheme:?}");
    }
    want.len()
}

#[test]
fn pruned_selection_equals_filtered_oracle_on_every_preset() {
    let (mut violating, mut cut) = (0, 0);
    for config in designs() {
        let netlist = config.generate();
        let (wns, max_arrival) = probe(&netlist);
        let auto = auto_period(&netlist).expect("period");
        let periods = [
            ("tight", RELAXED - wns - 0.25 * max_arrival),
            ("auto", auto),
            ("relaxed", RELAXED - wns - 0.02 * max_arrival),
        ];
        for (name, period) in periods {
            let sta = engine(netlist.clone(), period);
            let label = format!("{} seed {} at {name} period", config.name, config.seed);
            violating += assert_exact(&sta, K, usize::MAX, &label);
            cut += endpoints_below_floor(&sta, K);
        }
    }
    assert!(violating > 0, "the presets must violate");
    assert!(cut > 0, "the floor must stop some searches");
}

#[test]
fn worst_slack_within_ulps_of_zero() {
    for spec in DesignSpec::all() {
        let netlist = spec.config().generate();
        let (wns, _) = probe(&netlist);
        // Slack moves 1:1 with the period, so at `RELAXED - wns` the
        // worst endpoint sits at zero slack up to rounding; the offsets
        // put it just either side of zero and of the cut floor.
        for offset in [0.0, -1e-9, 1e-9, 0.5 * MARGIN, MARGIN, 2.0 * MARGIN] {
            let sta = engine(netlist.clone(), RELAXED - wns + offset);
            let worst = sta.wns();
            assert!(
                (worst - offset).abs() < 1e-6,
                "{spec:?}: worst slack {worst} should sit at {offset}"
            );
            assert_exact(&sta, K, usize::MAX, &format!("{spec:?} offset {offset}"));
        }
    }
}

#[test]
fn exact_after_incremental_resizes() {
    for spec in [
        DesignSpec::D1,
        DesignSpec::D2,
        DesignSpec::D5,
        DesignSpec::D9,
    ] {
        let netlist = spec.config().generate();
        let period = auto_period(&netlist).expect("period");
        let mut sta = engine(netlist, period);
        // Resize gates on the current worst paths up, then some of them
        // back down: each call is an incremental update whose arrivals
        // carry the propagation tolerance.
        let gates: Vec<CellId> = select_critical_paths(&sta, 2, 40, true)
            .iter()
            .flat_map(|p| p.cells[1..p.cells.len() - 1].to_vec())
            .collect();
        let mut resized = Vec::new();
        for &c in gates.iter().step_by(3).take(12) {
            let lib = sta.netlist().library();
            if let Some(up) = lib.upsized(sta.netlist().cell(c).lib_cell) {
                sta.resize_cell(c, up).expect("same function");
                resized.push(c);
            }
        }
        for &c in resized.iter().step_by(2) {
            let lib = sta.netlist().library();
            if let Some(down) = lib.downsized(sta.netlist().cell(c).lib_cell) {
                sta.resize_cell(c, down).expect("same function");
            }
        }
        assert!(!resized.is_empty(), "{spec:?}: nothing to resize");
        assert!(sta.stats.incremental_updates >= resized.len() as u64);
        let n = assert_exact(&sta, K, usize::MAX, &format!("{spec:?} after resizes"));
        assert!(n > 0, "{spec:?}: still violating after resizes");
    }
}

#[test]
fn exact_for_small_k_and_binding_cap() {
    for spec in [DesignSpec::D3, DesignSpec::D4, DesignSpec::D8] {
        let netlist = spec.config().generate();
        let period = auto_period(&netlist).expect("period");
        let sta = engine(netlist, period);
        assert_eq!(assert_exact(&sta, 0, usize::MAX, "k = 0"), 0);
        let one = assert_exact(&sta, 1, usize::MAX, &format!("{spec:?} k = 1"));
        let violating_endpoints = sta
            .netlist()
            .endpoints()
            .into_iter()
            .filter(|&e| sta.setup_slack(e) < 0.0)
            .count();
        assert_eq!(one, violating_endpoints, "{spec:?}: one path per violator");
        let all = assert_exact(&sta, K, usize::MAX, &format!("{spec:?} uncapped"));
        assert!(all > 2, "{spec:?}: need paths to cap");
        let capped = assert_exact(&sta, K, all / 2, &format!("{spec:?} capped"));
        assert_eq!(capped, all / 2);
    }
}
