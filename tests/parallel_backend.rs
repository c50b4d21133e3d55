//! Determinism suite for the parallel debugging backend.
//!
//! Every parallel path — work-stealing e-block replay, the sharded
//! race scan, parallel log decode and index construction — must be
//! bit-identical to its sequential twin: same race sets, same flowback
//! slices, same dynamic-graph fingerprints, at jobs ∈ {1, 2, 8}, over
//! the corpus, the `programs/` directory, and randomized schedules.
//! Plus a thread-stress test of the sharded trace cache's global byte
//! budget (never exceeded, no lost insertions, coherent counters).

use ppd::analysis::EBlockStrategy;
use ppd::core::{Controller, PpdSession, RunConfig, ShardedTraceCache};
use ppd::graph::{detect_races, detect_races_naive, VectorClocks};
use ppd::lang::{corpus, ProcId};
use ppd::log::{IntervalIndex, LogStore};
use ppd::runtime::SchedulerSpec;
use proptest::prelude::*;
use std::sync::Arc;

const JOB_COUNTS: [usize; 3] = [1, 2, 8];

/// The corpus + `programs/` workload sweep.
fn workloads() -> Vec<(String, PpdSession, RunConfig)> {
    let mut out = Vec::new();
    let corpus_set: Vec<(&str, &str, Vec<Vec<i64>>)> = vec![
        ("flowback_demo", corpus::FLOWBACK_DEMO.source, vec![vec![42, 10]]),
        ("producer_consumer", corpus::PRODUCER_CONSUMER.source, vec![]),
        ("fig41", corpus::FIG_4_1.source, vec![vec![5, 3, 2]]),
        ("fig61", corpus::FIG_6_1.source, vec![]),
        ("quicksort", corpus::QUICKSORT.source, vec![]),
    ];
    for (name, source, inputs) in corpus_set {
        let session = PpdSession::prepare(source, EBlockStrategy::per_subroutine())
            .expect("corpus program compiles");
        out.push((name.to_owned(), session, RunConfig { inputs, ..RunConfig::default() }));
    }
    for entry in std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/programs"))
        .expect("programs/ exists")
    {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("ppd") {
            continue;
        }
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(&path).expect("program reads");
        let session = PpdSession::prepare(&source, EBlockStrategy::per_subroutine())
            .expect("programs/ compiles");
        // overdraw.ppd reads one input (the CLI demos pass `--inputs 95`);
        // bounds.ppd's sampler probes one input (3 stays in bounds, so
        // the run completes and every interval replays cleanly).
        let inputs = match name.as_str() {
            "overdraw" => vec![vec![95]],
            "bounds" => vec![vec![3]],
            _ => vec![],
        };
        out.push((name, session, RunConfig { inputs, ..RunConfig::default() }));
    }
    out
}

/// A total, order-stable description of the dynamic graph.
fn fingerprint(controller: &Controller<'_>) -> String {
    use std::fmt::Write as _;
    let graph = controller.graph();
    let mut out = String::new();
    for n in graph.nodes() {
        let mut preds: Vec<String> =
            graph.dependence_preds(n.id).iter().map(|(p, k)| format!("{}:{k:?}", p.0)).collect();
        preds.sort();
        let _ = writeln!(
            out,
            "#{} {:?} {} proc{} seq{} {:?} <- [{}]",
            n.id.0,
            n.kind,
            n.label,
            n.proc.0,
            n.seq,
            n.value,
            preds.join(", ")
        );
    }
    out
}

/// Expands every expandable node until none remain.
fn expand_all(controller: &mut Controller<'_>) {
    loop {
        let pending = controller.unexpanded();
        let before = controller.graph().len();
        for node in pending {
            let _ = controller.expand(node);
        }
        if controller.graph().len() == before {
            break;
        }
    }
}

/// Full debug transcript at a given thread count: parallel prefetch of
/// every interval, then start + expand everything + flowback + slices
/// + races — all the answers a user could compare across jobs values.
fn transcript(session: &PpdSession, execution: &ppd::core::Execution, jobs: usize) -> Vec<String> {
    let mut c = Controller::new(session, execution);
    c.set_jobs(jobs);
    let prefetched = c.prefetch_all().expect("prefetch succeeds");
    assert!(prefetched > 0, "every workload logs at least one interval");
    let mut out = Vec::new();
    match c.start() {
        Ok(root) => {
            expand_all(&mut c);
            out.push(fingerprint(&c));
            out.push(format!("flowback: {:?}", c.flowback(root)));
            out.push(format!("slice: {:?}", c.backward_slice(root)));
        }
        Err(e) => out.push(format!("start failed: {e}")),
    }
    let races: Vec<String> = c.races().into_iter().map(|r| r.description).collect();
    out.push(format!("races: {races:?}"));
    out
}

#[test]
fn parallel_backend_is_bit_identical_across_corpus_and_programs() {
    for (name, session, config) in workloads() {
        let execution = session.execute(config);
        let baseline = transcript(&session, &execution, 1);
        for jobs in [2, 8] {
            let par = transcript(&session, &execution, jobs);
            assert_eq!(baseline, par, "{name}: jobs=1 vs jobs={jobs} diverged");
        }
    }
}

#[test]
fn parallel_race_scan_matches_every_sequential_detector() {
    for (name, session, config) in workloads() {
        let execution = session.execute(config);
        let g = &execution.pgraph;
        let ord = VectorClocks::compute(g);
        let naive = {
            let mut r = detect_races_naive(g, &ord);
            r.sort();
            r.dedup();
            r
        };
        let mhp_index = &session.analyses().mhp_candidates;
        let indexed = detect_races(g, &ord, None, 1);
        let mhp = detect_races(g, &ord, Some(mhp_index), 1);
        assert_eq!(indexed, mhp, "{name}: MHP pruning changed the race set");
        for jobs in JOB_COUNTS {
            let par = detect_races(g, &ord, None, jobs);
            assert_eq!(par, indexed, "{name}: unpruned par scan diverged at jobs={jobs}");
            assert_eq!(par, naive, "{name}: par scan disagrees with naive at jobs={jobs}");
            let par_pruned = detect_races(g, &ord, Some(mhp_index), jobs);
            assert_eq!(par_pruned, mhp, "{name}: pruned par scan diverged at jobs={jobs}");
        }
    }
}

#[test]
fn parallel_log_decode_and_index_match_sequential() {
    let root = std::env::temp_dir().join(format!("ppd-par-decode-{}", std::process::id()));
    for (name, session, config) in workloads() {
        let execution = session.execute(config);
        let seq = &execution.logs;
        let dir = root.join(&name);
        let _ = std::fs::remove_dir_all(&dir);
        seq.write_dir(&dir, 512).expect("segment store writes");
        for jobs in JOB_COUNTS {
            // A fresh open per job count: preload decodes each process
            // at most once per open.
            let par = LogStore::open_dir(&dir).expect("segment store opens");
            par.preload(jobs);
            assert_eq!(par.process_count(), seq.process_count(), "{name}");
            for p in 0..seq.process_count() {
                let pid = ProcId(p as u32);
                assert_eq!(par.log(pid).entries, seq.log(pid).entries, "{name} proc {p}");
            }
            // Index construction sharded by process = single-pass build.
            let built = IntervalIndex::build(seq);
            let built_par = IntervalIndex::build_par(&par, jobs);
            for p in 0..seq.process_count() {
                let pid = ProcId(p as u32);
                assert_eq!(
                    built_par.intervals(pid),
                    built.intervals(pid),
                    "{name}: index intervals diverged for proc {p} at jobs={jobs}"
                );
                assert_eq!(
                    built_par.open_intervals(pid),
                    built.open_intervals(pid),
                    "{name}: open intervals diverged for proc {p} at jobs={jobs}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------
// Randomized schedules (proptest)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Under proptest-randomized schedules, every answer the debugger
    /// gives is independent of the worker-thread count.
    #[test]
    fn randomized_schedules_are_jobs_invariant(
        choice in any::<u8>(),
        seed in 0u64..10_000,
    ) {
        let (source, inputs): (&str, Vec<Vec<i64>>) = match choice % 4 {
            0 => (corpus::PRODUCER_CONSUMER.source, vec![]),
            1 => (corpus::FIG_6_1.source, vec![]),
            2 => (corpus::FLOWBACK_DEMO.source, vec![vec![42, 10]]),
            _ => (corpus::QUICKSORT.source, vec![]),
        };
        let session = PpdSession::prepare(source, EBlockStrategy::per_subroutine())
            .expect("corpus program compiles");
        let execution = session.execute(RunConfig {
            scheduler: SchedulerSpec::Random { seed },
            inputs,
            ..RunConfig::default()
        });
        let baseline = transcript(&session, &execution, 1);
        for jobs in [2usize, 8] {
            let par = transcript(&session, &execution, jobs);
            prop_assert_eq!(&baseline, &par, "jobs={} diverged under seed {}", jobs, seed);
        }
    }
}

// ---------------------------------------------------------------------
// Sharded-cache stress (the loom-or-proptest satellite, via threads)
// ---------------------------------------------------------------------

/// Hammers one cache from many threads while a sampler thread checks
/// the global-budget invariant *concurrently* — the gauge is raised
/// only by CAS reservation, so `bytes() <= budget()` must hold at every
/// instant, not just at quiescence.
#[test]
fn sharded_cache_stress_budget_and_counters() {
    use ppd::analysis::EBlockId;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const THREADS: usize = 8;
    const KEYS_PER_THREAD: u64 = 200;
    const ENTRY_BYTES: usize = 64;
    // Room for ~24 entries: far fewer than the 1600 inserted, so the
    // budget is under constant eviction pressure.
    const BUDGET: usize = ENTRY_BYTES * 24;

    let cache = Arc::new(ShardedTraceCache::new(BUDGET));
    let events: Arc<Vec<ppd::runtime::TraceEvent>> = Arc::new(Vec::new());
    let done = Arc::new(AtomicUsize::new(0));
    let violations = Arc::new(AtomicUsize::new(0));
    let lost = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        // The concurrent invariant sampler: runs until every writer is
        // finished, checking the gauge between their operations.
        {
            let cache = Arc::clone(&cache);
            let done = Arc::clone(&done);
            let violations = Arc::clone(&violations);
            scope.spawn(move || {
                while done.load(Ordering::Relaxed) < THREADS {
                    if cache.bytes() > cache.budget() {
                        violations.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::yield_now();
                }
            });
        }
        for t in 0..THREADS {
            let cache = Arc::clone(&cache);
            let events = Arc::clone(&events);
            let done = Arc::clone(&done);
            let violations = Arc::clone(&violations);
            let lost = Arc::clone(&lost);
            scope.spawn(move || {
                for i in 0..KEYS_PER_THREAD {
                    // Half the key space is shared across threads, so
                    // racing duplicate inserts happen; half is private.
                    let key = if i % 2 == 0 {
                        (ProcId(0), EBlockId((i % 16) as u32), i % 8)
                    } else {
                        (ProcId(t as u32 + 1), EBlockId(i as u32), i)
                    };
                    let _ = cache.get(&key);
                    if !cache.insert(key, Arc::clone(&events), ENTRY_BYTES) {
                        // Within-budget inserts on an enabled cache
                        // must never be dropped.
                        lost.fetch_add(1, Ordering::Relaxed);
                    }
                    if cache.bytes() > cache.budget() {
                        violations.fetch_add(1, Ordering::Relaxed);
                    }
                    // The just-inserted key may already be evicted by a
                    // sibling — but a get must never error or wedge.
                    let _ = cache.get(&key);
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
    });

    assert_eq!(violations.load(Ordering::SeqCst), 0, "budget exceeded mid-run");
    assert_eq!(lost.load(Ordering::SeqCst), 0, "a within-budget insert was dropped");

    let stats = cache.stats();
    // Gauge coherence at quiescence: the atomic byte gauge equals the
    // sum of what the shards actually hold, and the entry count implied
    // by the uniform entry size matches.
    assert_eq!(stats.bytes, cache.len() * ENTRY_BYTES, "byte gauge out of sync with shards");
    assert!(stats.bytes <= BUDGET);
    assert!(cache.len() <= BUDGET / ENTRY_BYTES);
    assert!(stats.evictions > 0, "budget pressure must evict");
    // Every insert beyond capacity evicted exactly one entry.
    let inserted_new = stats.evictions as usize + cache.len();
    assert!(
        inserted_new <= (THREADS as u64 * KEYS_PER_THREAD) as usize,
        "more evictions+residents than inserts"
    );
    assert_eq!(stats.shard_hits.len(), ppd::core::SHARD_COUNT);
    assert_eq!(stats.shard_misses.len(), ppd::core::SHARD_COUNT);
}

/// Budget shrink under load: `set_budget` must evict down and the new
/// ceiling must hold for subsequent inserts.
#[test]
fn sharded_cache_budget_shrink_holds() {
    use ppd::analysis::EBlockId;
    let cache = ShardedTraceCache::new(4096);
    let events: Arc<Vec<ppd::runtime::TraceEvent>> = Arc::new(Vec::new());
    for i in 0..40u64 {
        assert!(cache.insert((ProcId(0), EBlockId(i as u32), i), Arc::clone(&events), 100));
    }
    assert!(cache.bytes() <= 4096);
    cache.set_budget(500);
    assert!(cache.bytes() <= 500, "shrink evicts down to the new budget");
    assert!(cache.insert((ProcId(9), EBlockId(0), 0), Arc::clone(&events), 100));
    assert!(cache.bytes() <= 500);
    // An entry larger than the whole budget is refused, like the
    // sequential LRU it replaced.
    assert!(!cache.insert((ProcId(9), EBlockId(1), 0), Arc::clone(&events), 501));
}
