//! Critical-path enumeration.
//!
//! GBA identifies candidate critical paths; PBA then re-times them
//! path-by-path. This module enumerates, for each endpoint, the `k` worst
//! paths by GBA arrival using a best-first backward search with an
//! admissible bound (the classic lazy k-longest-path scheme): a partial
//! suffix from some cell `c` to the endpoint has exact suffix delay `S`,
//! and `arrival_late(c) + S` is an upper bound on any completion, so a
//! max-heap pops complete paths in exactly descending arrival order.
//!
//! # Suffix arena
//!
//! A search state does not own its suffix. Expanding a gate appends one
//! `(cell, next)` entry to a per-search arena, and every child state
//! points at that entry; following `next` links walks the suffix toward
//! the endpoint. A heap push therefore copies no cells, and a path's
//! `Vec` is built only when the search completes it.
//!
//! # The violating-only cut
//!
//! The fit only uses paths with negative GBA slack (the paper's §3.2
//! scheme keeps violating paths only). With `only_violating`, each
//! endpoint's search stops at the first popped bound at or below the
//! floor `required − MARGIN`. Up to that pop the heap sees the same
//! push/pop sequence as the unpruned search, so the kept paths and their
//! order are unchanged. Every state left in the heap has a bound at or
//! below the floor, and every completion of it has an arrival below
//! `required` (see [`MARGIN`]), so the unpruned search would have
//! dropped all of them as non-violating. An endpoint's first bound is
//! `endpoint_arrival` itself (the same expression), so an endpoint whose
//! slack is at least `MARGIN` costs one heap pop.

use crate::analysis::Sta;
use netlist::{CellId, CellRole};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Headroom between an endpoint's required time and the violating-only
/// cut, ps.
///
/// Mathematically a child's bound never exceeds its parent's: for a gate
/// `c` with fanin `f` over wire `w`, GBA gives
/// `arrival(c) ≥ arrival(f) + w + d_c·λ_c`. In floating point the child
/// bound `fl(arrival(f) + fl(fl(S + d_c·λ_c) + w))` can exceed the parent
/// bound `fl(arrival(c) + S)` by the rounding of the three additions on
/// the child side and of the two in `arrival(c)` and one in the parent
/// bound: six roundings of at most ½ ulp each. For magnitudes below
/// 2^20 ps (about 1 µs) ½ ulp is 2^-33 ps ≈ 1.2e-10 ps, so the drift is
/// below 7.1e-10 ps per stage. Incremental update ([`Sta::resize_cell`])
/// stops propagating a change of at most `EPS` = 1e-9 ps, so a stored
/// arrival can lag its fanins by that much more: under 2e-9 ps per
/// stage in all. A completion `D` stages below a state therefore has an
/// arrival at most `bound + D · 2e-9` ps, and 1e-2 ps covers paths of
/// up to 5·10^6 stages, far deeper than any D-series path. Over D1–D10
/// at three seeds each and the calibrate default period, the smallest
/// non-negative endpoint slack measured 0.054 ps, so the margin adds
/// almost no enumeration. A larger margin is always exact; it only
/// enumerates more.
///
/// [`Sta::resize_cell`]: crate::Sta::resize_cell
pub const MARGIN: f64 = 1e-2;

/// Arena link after the endpoint: the end of a suffix.
const NONE: u32 = u32::MAX;

/// A complete timing path from a startpoint to an endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Cells on the path: `cells[0]` is the launching flip-flop or input
    /// port, the middle cells are combinational gates, and the last cell
    /// is the capturing flip-flop or output port.
    pub cells: Vec<CellId>,
    /// The endpoint cell (same as `cells.last()`).
    pub endpoint: CellId,
    /// GBA late arrival at the endpoint pin along this path, under the
    /// engine's current effective derates, ps.
    pub gba_arrival: f64,
    /// GBA slack of this path (endpoint required − arrival), ps.
    pub gba_slack: f64,
}

impl Path {
    /// The launching cell.
    pub fn startpoint(&self) -> CellId {
        self.cells[0]
    }

    /// Number of combinational gates on the path (the PBA cell depth).
    pub fn num_gates(&self) -> usize {
        self.cells.len().saturating_sub(2)
    }
}

/// Search state: a suffix of a path, from `cell`'s output to the endpoint.
struct State {
    /// Upper bound on the arrival of any completion of this suffix.
    bound: f64,
    cell: CellId,
    /// Exact delay from `cell`'s output to the endpoint pin.
    suffix_delay: f64,
    /// Arena index of the cell after `cell`.
    suffix: u32,
}

impl PartialEq for State {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for State {}
impl PartialOrd for State {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for State {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound
            .partial_cmp(&other.bound)
            .unwrap_or(Ordering::Equal)
    }
}

/// The best-first search, with its heap and suffix arena kept across
/// endpoints so their allocations are reused.
#[derive(Default)]
struct Search {
    heap: BinaryHeap<State>,
    /// `(cell, next)`: a suffix cell and the arena index of the cell
    /// after it, or [`NONE`] after the endpoint.
    arena: Vec<(CellId, u32)>,
}

impl Search {
    /// Appends the `k` worst paths to `endpoint` to `out`, in descending
    /// arrival order. With `only_violating`, appends only paths with
    /// negative slack and stops at the floor (see the module docs).
    /// Returns the number of paths completed and whether the floor
    /// stopped the search.
    fn run(
        &mut self,
        sta: &Sta,
        endpoint: CellId,
        k: usize,
        only_violating: bool,
        out: &mut Vec<Path>,
    ) -> (u64, bool) {
        let netlist = sta.netlist();
        let graph = sta.graph();
        debug_assert!(
            matches!(
                netlist.cell(endpoint).role,
                CellRole::Sequential | CellRole::Output
            ),
            "paths end at endpoints"
        );
        let required = sta.endpoint_required(endpoint);
        let floor = only_violating.then_some(required - MARGIN);
        self.heap.clear();
        self.arena.clear();
        self.arena.push((endpoint, NONE));
        for e in graph.data_fanins(netlist, endpoint) {
            self.heap.push(State {
                bound: sta.arrival_late(e.from) + e.wire_delay,
                cell: e.from,
                suffix_delay: e.wire_delay,
                suffix: 0,
            });
        }

        let mut completed = 0;
        while completed < k as u64 {
            let Some(state) = self.heap.pop() else { break };
            if floor.is_some_and(|floor| state.bound <= floor) {
                return (completed, true);
            }
            match netlist.cell(state.cell).role {
                CellRole::Input | CellRole::Sequential => {
                    let arrival = sta.arrival_late(state.cell) + state.suffix_delay;
                    if !arrival.is_finite() {
                        continue;
                    }
                    completed += 1;
                    let slack = required - arrival;
                    if only_violating && slack >= 0.0 {
                        continue;
                    }
                    let mut cells = vec![state.cell];
                    let mut at = state.suffix;
                    while at != NONE {
                        let (cell, next) = self.arena[at as usize];
                        cells.push(cell);
                        at = next;
                    }
                    out.push(Path {
                        cells,
                        endpoint,
                        gba_arrival: arrival,
                        gba_slack: slack,
                    });
                }
                CellRole::Combinational => {
                    let contribution =
                        sta.gate_delay(state.cell) * sta.effective_derate(state.cell);
                    let suffix = u32::try_from(self.arena.len()).expect("suffix arena fits u32");
                    self.arena.push((state.cell, state.suffix));
                    for e in graph.data_fanins(netlist, state.cell) {
                        let suffix_delay = state.suffix_delay + contribution + e.wire_delay;
                        let bound = sta.arrival_late(e.from) + suffix_delay;
                        if !bound.is_finite() {
                            continue;
                        }
                        self.heap.push(State {
                            bound,
                            cell: e.from,
                            suffix_delay,
                            suffix,
                        });
                    }
                }
                // Clock cells never appear on data suffixes.
                _ => {}
            }
        }
        (completed, false)
    }
}

/// Enumerates the `k` worst (largest GBA arrival) paths ending at
/// `endpoint`, in descending arrival order.
///
/// Returns fewer than `k` paths if the endpoint's fanin cone contains
/// fewer distinct paths.
pub fn worst_paths_to_endpoint(sta: &Sta, endpoint: CellId, k: usize) -> Vec<Path> {
    let mut out = Vec::with_capacity(k);
    Search::default().run(sta, endpoint, k, false, &mut out);
    out
}

/// Per-endpoint critical path selection over the whole design: the
/// paper's §3.2 "second scheme". For every endpoint, takes the `k` worst
/// paths; optionally keeps only paths with negative GBA slack; caps the
/// total at `max_total` worst-first (a stable sort, so ties keep their
/// enumeration order).
///
/// With `only_violating`, each endpoint's search is cut at the floor
/// described in the module docs; the result equals the unpruned
/// selection with the non-violating paths filtered out. Adds the
/// complete paths the searches produced, kept or not, to the
/// `sta.paths.enumerated` counter, and the endpoints whose search
/// stopped at the floor before `k` paths to `mgba.select.endpoints_cut`.
pub fn select_critical_paths(
    sta: &Sta,
    k_per_endpoint: usize,
    max_total: usize,
    only_violating: bool,
) -> Vec<Path> {
    let mut search = Search::default();
    let (mut enumerated, mut endpoints_cut) = (0, 0);
    let mut all = Vec::new();
    for e in sta.netlist().endpoints() {
        let (completed, cut) = search.run(sta, e, k_per_endpoint, only_violating, &mut all);
        enumerated += completed;
        endpoints_cut += u64::from(cut);
    }
    obs::counter_add("sta.paths.enumerated", enumerated);
    obs::counter_add("mgba.select.endpoints_cut", endpoints_cut);
    all.sort_by(|a, b| {
        a.gba_slack
            .partial_cmp(&b.gba_slack)
            .expect("slacks are finite")
    });
    all.truncate(max_total);
    all
}

/// Global top-`m` path selection (the paper's strawman "first scheme"):
/// sorts every enumerated path by GBA slack and keeps the worst `m`,
/// ignoring endpoint coverage. Exists to reproduce the §3.2 comparison.
pub fn select_top_global_paths(sta: &Sta, k_per_endpoint: usize, m: usize) -> Vec<Path> {
    select_critical_paths(sta, k_per_endpoint, m, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aocv::DerateSet;
    use crate::constraints::Sdc;
    use netlist::GeneratorConfig;
    use std::collections::HashSet;

    fn engine(seed: u64) -> Sta {
        let n = GeneratorConfig::small(seed).generate();
        Sta::new(n, Sdc::with_period(1200.0), DerateSet::standard()).unwrap()
    }

    #[test]
    fn worst_path_realizes_endpoint_arrival() {
        let sta = engine(61);
        for e in sta.netlist().endpoints() {
            let paths = worst_paths_to_endpoint(&sta, e, 1);
            if sta.endpoint_arrival(e).is_finite() {
                assert_eq!(paths.len(), 1);
                assert!(
                    (paths[0].gba_arrival - sta.endpoint_arrival(e)).abs() < 1e-6,
                    "worst path must realize the GBA endpoint arrival at {}",
                    sta.netlist().cell(e).name
                );
            }
        }
    }

    #[test]
    fn paths_are_sorted_and_distinct() {
        let sta = engine(62);
        let e = sta.netlist().endpoints()[0];
        let paths = worst_paths_to_endpoint(&sta, e, 10);
        for w in paths.windows(2) {
            assert!(w[0].gba_arrival >= w[1].gba_arrival - 1e-9);
        }
        let distinct: HashSet<Vec<CellId>> = paths.iter().map(|p| p.cells.clone()).collect();
        assert_eq!(distinct.len(), paths.len(), "no duplicate paths");
    }

    #[test]
    fn paths_start_and_end_correctly() {
        let sta = engine(63);
        for e in sta.netlist().endpoints().into_iter().take(5) {
            for p in worst_paths_to_endpoint(&sta, e, 5) {
                let start_role = sta.netlist().cell(p.startpoint()).role;
                assert!(matches!(start_role, CellRole::Input | CellRole::Sequential));
                assert_eq!(*p.cells.last().unwrap(), e);
                // Middle cells are combinational.
                for &c in &p.cells[1..p.cells.len() - 1] {
                    assert_eq!(sta.netlist().cell(c).role, CellRole::Combinational);
                }
                // Consecutive cells are actually connected.
                for w in p.cells.windows(2) {
                    let connected = sta
                        .graph()
                        .fanins(w[1])
                        .iter()
                        .any(|edge| edge.from == w[0]);
                    assert!(connected, "path cells must be wired in sequence");
                }
            }
        }
    }

    #[test]
    fn path_arrival_matches_manual_sum() {
        let sta = engine(64);
        let e = sta.netlist().endpoints()[0];
        for p in worst_paths_to_endpoint(&sta, e, 3) {
            let mut arr = sta.arrival_late(p.startpoint());
            for w in p.cells.windows(2) {
                let edge = sta
                    .graph()
                    .fanins(w[1])
                    .iter()
                    .find(|edge| edge.from == w[0])
                    .expect("consecutive path cells are connected");
                arr += edge.wire_delay;
                if sta.netlist().cell(w[1]).role == CellRole::Combinational {
                    arr += sta.gate_delay(w[1]) * sta.effective_derate(w[1]);
                }
            }
            assert!((arr - p.gba_arrival).abs() < 1e-6);
        }
    }

    #[test]
    fn per_endpoint_selection_covers_endpoints() {
        let sta = engine(65);
        let paths = select_critical_paths(&sta, 3, usize::MAX, false);
        let covered: HashSet<CellId> = paths.iter().map(|p| p.endpoint).collect();
        let reachable = sta
            .netlist()
            .endpoints()
            .into_iter()
            .filter(|&e| sta.endpoint_arrival(e).is_finite())
            .count();
        assert_eq!(covered.len(), reachable);
    }

    #[test]
    fn global_selection_truncates_worst_first() {
        let sta = engine(66);
        let global = select_top_global_paths(&sta, 5, 10);
        assert!(global.len() <= 10);
        for w in global.windows(2) {
            assert!(w[0].gba_slack <= w[1].gba_slack + 1e-9);
        }
    }

    #[test]
    fn violating_filter_drops_positive_slack() {
        let n = GeneratorConfig::small(67).generate();
        // Very long period: nothing violates.
        let sta = Sta::new(n, Sdc::with_period(100_000.0), DerateSet::standard()).unwrap();
        let v = select_critical_paths(&sta, 3, usize::MAX, true);
        assert!(v.is_empty());
    }

    #[test]
    fn num_gates_counts_middles() {
        let sta = engine(68);
        let e = sta.netlist().endpoints()[0];
        if let Some(p) = worst_paths_to_endpoint(&sta, e, 1).first() {
            assert_eq!(p.num_gates(), p.cells.len() - 2);
        }
    }
}
