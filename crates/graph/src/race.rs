//! Race detection (§6.3–6.4, Definitions 6.1–6.4).
//!
//! Two internal edges are **simultaneous** if neither precedes the other
//! (Def 6.1). Simultaneous edges are **race-free** iff their shared
//! READ/WRITE sets have no read/write or write/write conflict (Def 6.3);
//! an execution instance is race-free iff all simultaneous pairs are
//! (Def 6.4).
//!
//! "The problem of finding all pairs of possible conflicting edges is
//! more expensive. We are currently investigating algorithms to reduce
//! the cost" (§7) — so there is one scan, [`detect_races`], and every
//! cost reduction is a filter on its input. The scan groups edges by
//! accessed cell and compares only a writer with another process's
//! writer or reader of the same cell. An optional static
//! [`RaceCandidates`] index from `ppd-analysis` (GMOD/GREF, refined by
//! MHP, payload types and interval regions) drops `(variable, process
//! pair)` combinations that can never conflict dynamically before any
//! ordering query; `jobs > 1` spreads the ordering queries over a
//! thread pool. [`race_pairs`] counts the pairs a scan would examine
//! without ordering anything, and [`naive_pairs`] gives the all-pairs
//! count in closed form. [`detect_races_naive`], the literal all-pairs
//! scan, is kept as the test oracle. Experiment **E4** compares the
//! pruning tiers.

use crate::order::Ordering;
use crate::parallel::{InternalEdgeId, ParallelGraph};
pub use ppd_analysis::RaceCandidates;
use ppd_analysis::VarSetRepr;
use ppd_lang::{ProcId, VarId};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// The kind of access conflict between two simultaneous edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ConflictKind {
    /// Both edges write the variable.
    WriteWrite,
    /// One writes while the other reads.
    ReadWrite,
}

impl fmt::Display for ConflictKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConflictKind::WriteWrite => write!(f, "write/write"),
            ConflictKind::ReadWrite => write!(f, "read/write"),
        }
    }
}

/// One detected race: a conflicting pair of simultaneous edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Race {
    /// The shared variable raced on.
    pub var: VarId,
    /// The array element raced on, when the graph records accesses at
    /// element granularity; `None` for scalars (and legacy graphs).
    #[serde(default)]
    pub elem: Option<u32>,
    /// One conflicting edge (the smaller id).
    pub first: InternalEdgeId,
    /// The other conflicting edge.
    pub second: InternalEdgeId,
    /// Conflict kind.
    pub kind: ConflictKind,
}

/// Checks Definition 6.3 for one pair of edges, returning every
/// conflicting **cell** between them (empty = race-free pair). Cells
/// are whole variables for scalars and per-element ids for arrays in
/// cell-granular graphs; map back with [`ParallelGraph::owner_of`].
pub fn pair_conflicts(
    graph: &ParallelGraph,
    a: InternalEdgeId,
    b: InternalEdgeId,
) -> Vec<(VarId, ConflictKind)> {
    let ea = graph.internal_edge(a);
    let eb = graph.internal_edge(b);
    let mut out = Vec::new();
    for v in ea.writes.to_vec() {
        if eb.writes.contains(v) {
            out.push((v, ConflictKind::WriteWrite));
        } else if eb.reads.contains(v) {
            out.push((v, ConflictKind::ReadWrite));
        }
    }
    for v in ea.reads.to_vec() {
        if eb.writes.contains(v) && !out.iter().any(|&(w, _)| w == v) {
            out.push((v, ConflictKind::ReadWrite));
        }
    }
    out
}

/// Whether two edges are simultaneous (Definition 6.1).
pub fn simultaneous(
    graph: &ParallelGraph,
    ord: &dyn Ordering,
    a: InternalEdgeId,
    b: InternalEdgeId,
) -> bool {
    a != b && !graph.edge_precedes(ord, a, b) && !graph.edge_precedes(ord, b, a)
}

/// The naive detector: examine **every** pair of internal edges.
/// O(E² · cost(order) + conflicts). Kept as the oracle the pruned
/// scans are tested against.
///
/// # Examples
///
/// ```
/// use ppd_graph::{detect_races, detect_races_naive};
/// use ppd_graph::parallel::ParallelGraph;
/// use ppd_graph::order::VectorClocks;
/// use ppd_lang::{ProcId, VarId};
///
/// let mut g = ParallelGraph::new(1);
/// g.start_process(ProcId(0), 0);
/// g.start_process(ProcId(1), 1);
/// g.record_write(ProcId(0), VarId(0));
/// g.record_write(ProcId(1), VarId(0));
/// g.end_process(ProcId(0), 2);
/// g.end_process(ProcId(1), 3);
/// let ord = VectorClocks::compute(&g);
/// // The two scans agree (property-tested); the per-cell one scales.
/// assert_eq!(detect_races_naive(&g, &ord), detect_races(&g, &ord, None, 1));
/// ```
pub fn detect_races_naive(graph: &ParallelGraph, ord: &dyn Ordering) -> Vec<Race> {
    let edges = graph.internal_edges();
    let mut races = Vec::new();
    for (i, ea) in edges.iter().enumerate() {
        for eb in &edges[i + 1..] {
            if ea.proc == eb.proc {
                continue; // same-process edges are always ordered
            }
            let conflicts = pair_conflicts(graph, ea.id, eb.id);
            if conflicts.is_empty() || !simultaneous(graph, ord, ea.id, eb.id) {
                continue;
            }
            for (cell, kind) in conflicts {
                races.push(Race {
                    var: graph.owner_of(cell),
                    elem: graph.element_of(cell),
                    first: ea.id,
                    second: eb.id,
                    kind,
                });
            }
        }
    }
    races.sort();
    races.dedup();
    races
}

/// The number of edge pairs [`detect_races_naive`] examines: every pair
/// of internal edges from different processes. With `n_p` internal
/// edges in process `p` that is `((Σ n_p)² − Σ n_p²) / 2`, so no scan
/// is needed.
pub fn naive_pairs(graph: &ParallelGraph) -> usize {
    let mut per_proc: HashMap<ProcId, usize> = HashMap::new();
    for e in graph.internal_edges() {
        *per_proc.entry(e.proc).or_default() += 1;
    }
    let total: usize = per_proc.values().sum();
    let squares: usize = per_proc.values().map(|n| n * n).sum();
    (total * total - squares) / 2
}

/// The race scan (Definition 6.4): compares each writer of a cell with
/// every other-process writer or reader of that cell and reports the
/// simultaneous pairs, sorted and deduplicated.
///
/// `candidates` restricts the scan to the `(variable, process pair)`
/// combinations of a static index; `None` scans every shared cell. Any
/// index from `ppd-analysis` (`race_candidates`, `mhp_candidates`,
/// `typed_candidates`, `absint_candidates`, each refining the last)
/// over-approximates the program's dynamic accesses and orderings, so
/// the combinations it drops can never race and the result stays
/// **identical** to [`detect_races_naive`] (asserted over the corpus
/// and randomized schedules in `tests/prune.rs` and `tests/mhp.rs`, and
/// property-tested).
///
/// `jobs <= 1` checks each pair as it is enumerated. `jobs > 1`
/// collects the same pairs and order-checks them in chunks on a
/// work-stealing pool of `jobs` threads ([`rayon`]); the final sort
/// makes the output bit-identical to the one-job scan
/// (`tests/parallel_backend.rs`).
pub fn detect_races(
    graph: &ParallelGraph,
    ord: &dyn Ordering,
    candidates: Option<&RaceCandidates>,
    jobs: usize,
) -> Vec<Race> {
    let mut span = ppd_obs::span("race", "scan");
    span.arg("jobs", jobs);
    span.arg("pruned", candidates.is_some());
    let is_race = |r: &Race| simultaneous(graph, ord, r.first, r.second);
    let mut races = Vec::new();
    if jobs <= 1 {
        for_each_pair(graph, candidates, |r| {
            if is_race(&r) {
                races.push(r);
            }
        });
    } else {
        let mut pairs = Vec::new();
        for_each_pair(graph, candidates, |r| pairs.push(r));
        span.arg("pairs", pairs.len());
        // Chunk so each stealable task amortizes scheduling overhead;
        // chunks are re-concatenated in input order before the final
        // sort, keeping the merge deterministic.
        let chunk = (pairs.len().div_ceil(jobs * 4)).max(16);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(jobs)
            .build()
            .expect("thread pool build is infallible");
        let per_chunk: Vec<Vec<Race>> = pool.install(|| {
            let chunks: Vec<&[Race]> = pairs.chunks(chunk).collect();
            chunks.par_iter().map(|c| c.iter().copied().filter(is_race).collect()).collect()
        });
        races = per_chunk.into_iter().flatten().collect();
    }
    races.sort();
    races.dedup();
    races
}

/// The number of distinct cross-process edge pairs [`detect_races`]
/// examines with these `candidates`. Counting needs no ordering query,
/// so it runs without vector clocks. It never exceeds [`naive_pairs`],
/// and a sub-index never counts more.
pub fn race_pairs(graph: &ParallelGraph, candidates: Option<&RaceCandidates>) -> usize {
    let mut seen = HashSet::new();
    for_each_pair(graph, candidates, |r| {
        seen.insert((r.first, r.second));
    });
    seen.len()
}

/// [`detect_races`] with the interval-refined index at one job; stays
/// for `perfbench/`, which times the scan under this name.
#[doc(hidden)]
pub fn detect_races_absint(
    graph: &ParallelGraph,
    ord: &dyn Ordering,
    absint_candidates: &RaceCandidates,
) -> Vec<Race> {
    detect_races(graph, ord, Some(absint_candidates), 1)
}

/// [`detect_races`] under its former name; stays for `perfbench/`,
/// which times the parallel scan under this name.
#[doc(hidden)]
pub fn detect_races_par<O: Ordering + Sync>(
    graph: &ParallelGraph,
    ord: &O,
    candidates: Option<&RaceCandidates>,
    jobs: usize,
) -> Vec<Race> {
    detect_races(graph, ord, candidates, jobs)
}

/// The one pair enumeration behind [`detect_races`] and [`race_pairs`]:
/// hands `visit` every `(cell, edge pair)` comparison — a writer of the
/// cell against another process's writer or reader of it — that passes
/// the static filter, as the race it would be if the edges turn out
/// simultaneous (`first < second`). A pair sharing several cells is
/// visited once per cell.
fn for_each_pair(
    graph: &ParallelGraph,
    candidates: Option<&RaceCandidates>,
    mut visit: impl FnMut(Race),
) {
    type Accessors = Vec<(InternalEdgeId, ProcId)>;
    // cell -> (writers, readers that do not also write it); an edge that
    // both reads and writes a cell is compared as a writer only.
    let mut cells: HashMap<VarId, (Accessors, Accessors)> = HashMap::new();
    for e in graph.internal_edges() {
        for v in e.writes.to_vec() {
            cells.entry(v).or_default().0.push((e.id, e.proc));
        }
        for v in e.reads.to_vec() {
            if !e.writes.contains(v) {
                cells.entry(v).or_default().1.push((e.id, e.proc));
            }
        }
    }
    for (&cell, (writers, readers)) in &cells {
        // The static candidate index is keyed by declared variables, so
        // array-element cells are filtered through their owner.
        let (var, elem) = (graph.owner_of(cell), graph.element_of(cell));
        let mut compare = |(a, pa): (InternalEdgeId, ProcId), (b, pb), kind| {
            if pa != pb && candidates.is_none_or(|c| c.allows(var, pa, pb)) {
                let (first, second) = if a < b { (a, b) } else { (b, a) };
                visit(Race { var, elem, first, second, kind });
            }
        };
        for (i, &w) in writers.iter().enumerate() {
            for &other in &writers[i + 1..] {
                compare(w, other, ConflictKind::WriteWrite);
            }
            for &r in readers {
                compare(w, r, ConflictKind::ReadWrite);
            }
        }
    }
}

/// The tightest candidate index derivable from an execution itself: a
/// combination is included iff some edge of one process writes the
/// variable while some edge of another touches it. Pruning with this
/// index never filters anything the unpruned scan would examine —
/// useful as a test oracle and as the upper bound on static pruning.
pub fn candidates_from_graph(graph: &ParallelGraph) -> RaceCandidates {
    let mut writer_procs: HashMap<VarId, Vec<ProcId>> = HashMap::new();
    let mut accessor_procs: HashMap<VarId, Vec<ProcId>> = HashMap::new();
    for e in graph.internal_edges() {
        for v in e.writes.to_vec() {
            let owner = graph.owner_of(v);
            writer_procs.entry(owner).or_default().push(e.proc);
            accessor_procs.entry(owner).or_default().push(e.proc);
        }
        for v in e.reads.to_vec() {
            accessor_procs.entry(graph.owner_of(v)).or_default().push(e.proc);
        }
    }
    let mut out = RaceCandidates::new();
    for (&var, ws) in &writer_procs {
        for &w in ws {
            for &a in &accessor_procs[&var] {
                out.insert(var, w, a);
            }
        }
    }
    out
}

/// Whether the execution instance is race-free (Definition 6.4).
pub fn is_race_free(graph: &ParallelGraph, ord: &dyn Ordering) -> bool {
    detect_races(graph, ord, None, 1).is_empty()
}

/// A human-readable report of one race against a program's names.
pub fn describe_race(graph: &ParallelGraph, rp: &ppd_lang::ResolvedProgram, race: &Race) -> String {
    let e1 = graph.internal_edge(race.first);
    let e2 = graph.internal_edge(race.second);
    let target = match race.elem {
        Some(i) => format!("{}[{i}]", rp.var_name(race.var)),
        None => rp.var_name(race.var).to_string(),
    };
    format!(
        "{} race on `{}` between {} (process {}) and {} (process {})",
        race.kind,
        target,
        race.first,
        rp.proc_name(e1.proc),
        race.second,
        rp.proc_name(e2.proc),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::{random_graph, TransitiveClosure, VectorClocks};
    use crate::parallel::fig61_graph;

    #[test]
    fn fig61_races_found() {
        let (g, ids) = fig61_graph();
        let ord = VectorClocks::compute(&g);
        let races = detect_races(&g, &ord, None, 1);
        // e1/e2 write/write, e2/e3 read-write; e1/e3 ordered by message.
        assert_eq!(races.len(), 2, "{races:?}");
        let ww = races.iter().find(|r| r.kind == ConflictKind::WriteWrite).unwrap();
        assert_eq!((ww.first, ww.second), (ids[0], ids[1]));
        let rw = races.iter().find(|r| r.kind == ConflictKind::ReadWrite).unwrap();
        assert_eq!((rw.first, rw.second), (ids[1], ids[5]));
        assert!(!is_race_free(&g, &ord));
    }

    #[test]
    fn naive_and_scan_agree_on_fig61() {
        let (g, _) = fig61_graph();
        let ord = TransitiveClosure::compute(&g);
        assert_eq!(detect_races_naive(&g, &ord), detect_races(&g, &ord, None, 1));
    }

    #[test]
    fn naive_and_scan_agree_on_random_graphs() {
        // `random_graph` records no shared accesses, so this pins the
        // conflict-free case; `tests/proptest_graphs.rs` adds accesses.
        for seed in 0..20u64 {
            let g = random_graph(seed, 3, 4);
            let ord = VectorClocks::compute(&g);
            assert_eq!(
                detect_races_naive(&g, &ord),
                detect_races(&g, &ord, None, 1),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn ordered_conflicts_are_not_races() {
        use crate::parallel::{SyncEdgeLabel, SyncNodeKind};
        use ppd_lang::ProcId;
        // P0 writes x then V(s); P1 P(s) then writes x: properly ordered.
        let mut g = ParallelGraph::new(1);
        g.start_process(ProcId(0), 1);
        g.start_process(ProcId(1), 2);
        g.record_write(ProcId(0), VarId(0));
        let v = g.sync_point(ProcId(0), SyncNodeKind::V, None, 3);
        let p = g.sync_point(ProcId(1), SyncNodeKind::P, None, 4);
        g.add_sync_edge(v, p, SyncEdgeLabel::Semaphore);
        g.record_write(ProcId(1), VarId(0));
        g.end_process(ProcId(0), 5);
        g.end_process(ProcId(1), 6);
        let ord = VectorClocks::compute(&g);
        assert!(is_race_free(&g, &ord));
        assert!(detect_races_naive(&g, &ord).is_empty());
    }

    #[test]
    fn unsynchronized_conflict_is_a_race() {
        use ppd_lang::ProcId;
        let mut g = ParallelGraph::new(1);
        g.start_process(ProcId(0), 1);
        g.start_process(ProcId(1), 2);
        g.record_write(ProcId(0), VarId(0));
        g.record_read(ProcId(1), VarId(0));
        g.end_process(ProcId(0), 3);
        g.end_process(ProcId(1), 4);
        let ord = VectorClocks::compute(&g);
        let races = detect_races(&g, &ord, None, 1);
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].kind, ConflictKind::ReadWrite);
    }

    #[test]
    fn reads_alone_never_race() {
        use ppd_lang::ProcId;
        let mut g = ParallelGraph::new(1);
        g.start_process(ProcId(0), 1);
        g.start_process(ProcId(1), 2);
        g.record_read(ProcId(0), VarId(0));
        g.record_read(ProcId(1), VarId(0));
        g.end_process(ProcId(0), 3);
        g.end_process(ProcId(1), 4);
        let ord = VectorClocks::compute(&g);
        assert!(is_race_free(&g, &ord));
    }

    #[test]
    fn same_process_edges_never_race() {
        use crate::parallel::SyncNodeKind;
        use ppd_lang::ProcId;
        let mut g = ParallelGraph::new(1);
        g.start_process(ProcId(0), 1);
        g.record_write(ProcId(0), VarId(0));
        g.sync_point(ProcId(0), SyncNodeKind::V, None, 2);
        g.record_write(ProcId(0), VarId(0));
        g.end_process(ProcId(0), 3);
        // Second process so concurrency is possible in principle.
        g.start_process(ProcId(1), 4);
        g.end_process(ProcId(1), 5);
        let ord = VectorClocks::compute(&g);
        assert!(is_race_free(&g, &ord));
    }

    #[test]
    fn pruned_with_graph_derived_candidates_matches_naive() {
        let (g, _) = fig61_graph();
        let ord = VectorClocks::compute(&g);
        let cands = candidates_from_graph(&g);
        assert_eq!(detect_races(&g, &ord, Some(&cands), 1), detect_races_naive(&g, &ord));
        assert_eq!(race_pairs(&g, Some(&cands)), race_pairs(&g, None));
    }

    #[test]
    fn empty_candidate_index_prunes_everything() {
        // The index is a filter: correctness rests on how it is built
        // (from GMOD/GREF, or from the graph itself). An empty index
        // filters every pair.
        let (g, _) = fig61_graph();
        let ord = VectorClocks::compute(&g);
        assert!(!detect_races_naive(&g, &ord).is_empty());
        assert!(detect_races(&g, &ord, Some(&RaceCandidates::new()), 1).is_empty());
        assert_eq!(race_pairs(&g, Some(&RaceCandidates::new())), 0);
    }

    #[test]
    fn pair_counts_shrink_through_the_tiers() {
        let (g, _) = fig61_graph();
        let cands = candidates_from_graph(&g);
        let n_pairs = naive_pairs(&g);
        let i_pairs = race_pairs(&g, None);
        let p_pairs = race_pairs(&g, Some(&cands));
        assert!(p_pairs <= i_pairs, "pruned {p_pairs} vs indexed {i_pairs}");
        // Fig 6.1 has edges with no shared accesses at all, so indexing
        // must drop some pairs the naive scan examines.
        assert!(i_pairs < n_pairs, "indexed {i_pairs} vs naive {n_pairs}");
    }

    #[test]
    fn naive_pairs_counts_every_cross_process_pair() {
        for (seed, procs, syncs) in [(0u64, 1, 3), (1, 3, 4), (2, 5, 2)] {
            let g = random_graph(seed, procs, syncs);
            let edges = g.internal_edges();
            let brute = (0..edges.len())
                .flat_map(|i| (i + 1..edges.len()).map(move |j| (i, j)))
                .filter(|&(i, j)| edges[i].proc != edges[j].proc)
                .count();
            assert_eq!(naive_pairs(&g), brute, "seed {seed}");
        }
    }

    #[test]
    fn mhp_pruning_matches_naive_and_scans_fewer_pairs_on_fig61() {
        // The static MHP index for the real Fig 6.1 program drops the
        // message-ordered (SV, P1, P3) combination; the scan must still
        // find exactly the races the naive scan finds, while examining
        // strictly fewer pairs than GMOD/GREF pruning alone.
        let rp = ppd_lang::corpus::FIG_6_1.compile();
        let analyses = ppd_analysis::Analyses::run(&rp);
        let (g, _) = fig61_graph();
        let ord = VectorClocks::compute(&g);
        let naive = detect_races_naive(&g, &ord);
        let (mhp, gmod) = (&analyses.mhp_candidates, &analyses.race_candidates);
        assert_eq!(detect_races(&g, &ord, Some(mhp), 1), naive);
        assert_eq!(detect_races(&g, &ord, Some(gmod), 1), naive);
        let (m_pairs, p_pairs) = (race_pairs(&g, Some(mhp)), race_pairs(&g, Some(gmod)));
        assert!(m_pairs < p_pairs, "mhp {m_pairs} vs gmod/gref {p_pairs}");
    }

    #[test]
    fn parallel_scan_matches_one_job_on_fig61() {
        let (g, _) = fig61_graph();
        let ord = VectorClocks::compute(&g);
        let cands = candidates_from_graph(&g);
        for jobs in [2, 8] {
            assert_eq!(detect_races(&g, &ord, None, jobs), detect_races(&g, &ord, None, 1));
            assert_eq!(
                detect_races(&g, &ord, Some(&cands), jobs),
                detect_races(&g, &ord, Some(&cands), 1),
            );
        }
    }

    #[test]
    fn parallel_scan_matches_one_job_on_random_graphs() {
        for seed in 0..15u64 {
            let g = random_graph(seed, 4, 6);
            let ord = VectorClocks::compute(&g);
            for jobs in [2, 8] {
                assert_eq!(
                    detect_races(&g, &ord, None, jobs),
                    detect_races(&g, &ord, None, 1),
                    "seed {seed} jobs {jobs}"
                );
            }
        }
    }

    #[test]
    fn pair_conflicts_classification() {
        let (g, ids) = fig61_graph();
        // e1 vs e2: write/write on SV.
        let c = pair_conflicts(&g, ids[0], ids[1]);
        assert_eq!(c, vec![(VarId(0), ConflictKind::WriteWrite)]);
        // e2 vs e3: read/write.
        let c = pair_conflicts(&g, ids[1], ids[5]);
        assert_eq!(c, vec![(VarId(0), ConflictKind::ReadWrite)]);
        // e1 vs e4 (empty edge): none.
        assert!(pair_conflicts(&g, ids[0], ids[3]).is_empty());
    }
}
