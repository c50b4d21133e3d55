//! Candidate-pruned race detection is *correctness-preserving*: on every
//! corpus program, every on-disk example program, and randomized
//! schedules, each stage of the static prune chain
//! `absint ⊆ typed ⊆ mhp ⊆ gmod/gref ⊆ naive` returns exactly the race
//! set of `detect_races_naive` while examining no more edge pairs than
//! the stage before it — and the scan at 8 jobs agrees bit-for-bit with
//! the scan at 1 job.

use ppd::analysis::EBlockStrategy;
use ppd::core::{PpdSession, RunConfig};
use ppd::graph::{detect_races, detect_races_naive, naive_pairs, race_pairs, VectorClocks};
use ppd::lang::corpus;
use ppd::runtime::SchedulerSpec;

/// Per-stage examined-pair counts for one execution, after asserting
/// that every stage found the identical race set.
struct StagePairs {
    naive: usize,
    pruned: usize,
    mhp: usize,
    typed: usize,
    absint: usize,
}

/// Runs `source` under `scheduler`, checks that all five detector
/// stages agree on the race set (sequentially and at 8 jobs), and that
/// the examined-pair counts never grow along the chain.
fn check_schedule(name: &str, source: &str, scheduler: SchedulerSpec) -> StagePairs {
    let session = PpdSession::prepare(source, EBlockStrategy::per_subroutine())
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let a = session.analyses();
    let execution =
        session.execute(RunConfig { scheduler, inputs: inputs_for(name), ..RunConfig::default() });
    let g = &execution.pgraph;
    let ord = VectorClocks::compute(g);

    let naive = detect_races_naive(g, &ord);
    let scan = |c| detect_races(g, &ord, Some(c), 1);
    assert_eq!(naive, scan(&a.race_candidates), "{name}: gmod/gref pruning changed the race set");
    assert_eq!(naive, scan(&a.mhp_candidates), "{name}: MHP pruning changed the race set");
    assert_eq!(naive, scan(&a.typed_candidates), "{name}: typed pruning changed the race set");
    assert_eq!(naive, scan(&a.absint_candidates), "{name}: interval pruning changed the race set");

    let naive_pairs = naive_pairs(g);
    let indexed_pairs = race_pairs(g, None);
    let pruned_pairs = race_pairs(g, Some(&a.race_candidates));
    let mhp_pairs = race_pairs(g, Some(&a.mhp_candidates));
    let typed_pairs = race_pairs(g, Some(&a.typed_candidates));
    let absint_pairs = race_pairs(g, Some(&a.absint_candidates));
    assert!(indexed_pairs <= naive_pairs, "{name}: indexed examined more pairs than naive");
    assert!(
        pruned_pairs <= indexed_pairs,
        "{name}: pruned examined more pairs ({pruned_pairs} > {indexed_pairs})"
    );
    assert!(mhp_pairs <= pruned_pairs, "{name}: mhp examined more pairs than gmod/gref");
    assert!(typed_pairs <= mhp_pairs, "{name}: typed examined more pairs than mhp");
    assert!(absint_pairs <= typed_pairs, "{name}: absint examined more pairs than typed");

    // The scan over the final (absint) candidate index must agree
    // bit-for-bit at 1 and 8 jobs.
    for jobs in [1, 8] {
        let par = detect_races(g, &ord, Some(&a.absint_candidates), jobs);
        assert_eq!(par, naive, "{name}: scan at {jobs} jobs disagrees");
    }

    StagePairs {
        naive: naive_pairs,
        pruned: pruned_pairs,
        mhp: mhp_pairs,
        typed: typed_pairs,
        absint: absint_pairs,
    }
}

fn check(name: &str, source: &str) -> StagePairs {
    check_schedule(name, source, SchedulerSpec::RoundRobin)
}

fn inputs_for(name: &str) -> Vec<Vec<i64>> {
    match name {
        "fig41" => vec![vec![5, 3, 2]],
        "flowback_demo" => vec![vec![42, 10]],
        "overdraw.ppd" => vec![vec![50]],
        "bounds.ppd" => vec![vec![3]],
        _ => Vec::new(),
    }
}

#[test]
fn corpus_prune_chain_preserves_races() {
    for prog in corpus::terminating() {
        check(prog.name, prog.source);
    }
}

#[test]
fn corpus_prune_chain_preserves_races_on_random_schedules() {
    for prog in corpus::terminating() {
        for seed in 0..4 {
            check_schedule(prog.name, prog.source, SchedulerSpec::Random { seed });
        }
    }
}

#[test]
fn example_programs_prune_chain_preserves_races_and_shrinks() {
    // Multi-process example programs where at least two processes touch
    // shared state: the candidate index must cut the comparison count.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("programs");
    let mut shrank_somewhere = false;
    for file in ["bank.ppd", "overdraw.ppd", "phils.ppd", "lintdemo.ppd", "bounds.ppd"] {
        let source = std::fs::read_to_string(dir.join(file)).unwrap();
        let p = check(file, &source);
        assert!(p.naive > 0, "{file}: expected cross-process pairs to compare");
        if p.absint < p.naive {
            shrank_somewhere = true;
        }
        for seed in [3, 11] {
            check_schedule(file, &source, SchedulerSpec::Random { seed });
        }
    }
    assert!(shrank_somewhere, "pruning never reduced the pair count on any example program");
}

#[test]
fn overdraw_pruning_strictly_shrinks() {
    // The flagship demo: the teller/auditor race survives pruning while
    // strictly fewer edge pairs reach a Definition 6.4 comparison.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("programs");
    let source = std::fs::read_to_string(dir.join("overdraw.ppd")).unwrap();
    let p = check("overdraw.ppd", &source);
    assert!(p.pruned < p.naive, "expected strict shrink, got {} vs {}", p.pruned, p.naive);
}

#[test]
fn element_granular_intervals_prune_disjoint_array_halves() {
    // Two processes sweep provably disjoint halves of one array. The
    // GMOD/GREF, MHP and typed stages must keep the `(a, Lo, Hi)`
    // candidate (both processes write `a` concurrently), but the
    // interval stage proves the written regions disjoint and drops it —
    // while the dynamic race set (empty: the cell-granular graph never
    // sees two processes on one element) is preserved by every stage.
    use ppd::lang::{ProcId, VarId};
    let src = "shared int a[8]; \
               process Lo { int i; for (i = 0; i < 4; i = i + 1) { a[i] = i; } } \
               process Hi { int i; for (i = 4; i < 8; i = i + 1) { a[i] = i; } }";
    let p = check("disjoint_halves", src);
    assert_eq!(p.absint, 0, "no pair survives to a Definition 6.4 comparison");
    // The cell-granular dynamic scan already sees the halves as
    // separate cells, so the earlier candidate-filtered stages examine
    // no pairs either — absint's contribution here is static (below).
    assert_eq!(p.mhp, 0, "disjoint cells share no dynamic group at the MHP stage");
    assert_eq!(p.typed, 0, "disjoint cells share no dynamic group at the typed stage");

    let session = PpdSession::prepare(src, EBlockStrategy::per_subroutine()).unwrap();
    let rp = session.rp();
    let a = session.analyses();
    let arr =
        (0..rp.var_count() as u32).map(VarId).find(|&v| rp.var_name(v) == "a").expect("array `a`");
    let (lo, hi) = (ProcId(0), ProcId(1));
    assert!(a.race_candidates.allows(arr, lo, hi), "GMOD/GREF keeps the candidate");
    assert!(a.mhp_candidates.allows(arr, lo, hi), "the sweeps are MHP-concurrent");
    assert!(a.typed_candidates.allows(arr, lo, hi), "no channel typing orders them");
    assert!(
        !a.absint_candidates.allows(arr, lo, hi),
        "interval analysis must prove the halves disjoint"
    );
}
