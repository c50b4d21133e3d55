//! The per-layer profile of a workload's programs: each metric times
//! one public call of one crate, or reads one public counter, from
//! outside. Times are per program (static layers), per run or per
//! query, as each name says.

use crate::probe::store_bytes;
use crate::stats::{median, timed};
use crate::workloads::{default_jobs, strategy, Target};
use ppd_analysis::{Analyses, AnalysisConfig};
use ppd_core::{Controller, Execution};
use ppd_graph::VectorClocks;
use ppd_log::{LogStore, SegmentFormat};
use std::path::Path;

/// One reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

fn put(out: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    out.push((name.to_string(), value, unit));
}

/// Repetitions of each timed call; the profile reports their median.
const REPS: usize = 3;

fn med_ms(mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..REPS).map(|_| f()).collect::<Vec<_>>())
}

/// Profiles every layer over `targets`. Static layers cover every
/// program; the runtime, log, core and graph layers cover the runnable
/// ones.
pub fn profile(targets: &[Target], scratch: &Path) -> Vec<Metric> {
    let mut out = Vec::new();
    static_layers(targets, &mut out);
    let runnable: Vec<&Target> = targets.iter().filter(|t| t.program.runnable).collect();
    runtime_layer(&runnable, &mut out);
    dynamic_layers(&runnable, scratch, &mut out);
    let pairs = race_pairs(targets);
    for stage in ["naive", "indexed", "pruned", "mhp", "typed", "absint"] {
        let c = pairs.iter().find(|(s, _)| *s == stage).map_or(0, |p| p.1);
        put(&mut out, &format!("graph.pairs.{stage}"), c as f64, "count");
    }
    out
}

/// Static race candidates summed over `targets`, per pruning stage:
/// GMOD/GREF, MHP, typed, absint.
pub fn candidates(targets: &[Target]) -> [usize; 4] {
    let mut cands = [0usize; 4];
    for t in targets {
        let a = t.session.analyses();
        let lens = [
            a.race_candidates.len(),
            a.mhp_candidates.len(),
            a.typed_candidates.len(),
            a.absint_candidates.len(),
        ];
        cands.iter_mut().zip(lens).for_each(|(c, n)| *c += n);
    }
    cands
}

/// Pairs the race scan examines at each stage
/// (`Controller::race_stage_pairs`), summed over one execution of each
/// runnable target under its own configuration.
pub fn race_pairs(targets: &[Target]) -> Vec<(&'static str, u64)> {
    let mut pairs: Vec<(&'static str, u64)> = Vec::new();
    for t in targets.iter().filter(|t| t.program.runnable) {
        let exec = t.session.execute(t.config.clone());
        for (stage, n) in Controller::new(&t.session, &exec).race_stage_pairs() {
            match pairs.iter_mut().find(|(s, _)| *s == stage) {
                Some((_, total)) => *total += n as u64,
                None => pairs.push((stage, n as u64)),
            }
        }
    }
    pairs
}

fn static_layers(targets: &[Target], out: &mut Vec<Metric>) {
    let jobs = default_jobs();
    let (mut compile, mut check, mut analyses, mut plan, mut lint) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for t in targets {
        let rp = t.session.rp();
        compile += med_ms(|| timed(|| ppd_lang::compile(&t.program.source)).1);
        check += med_ms(|| timed(|| ppd_lang::types::check(rp)).1);
        analyses += med_ms(|| timed(|| Analyses::run_with(rp, AnalysisConfig::default())).1);
        let a = t.session.analyses();
        plan += med_ms(|| timed(|| a.eblock_plan(rp, strategy())).1);
        lint += med_ms(|| timed(|| ppd_analysis::lint::run_default_par(rp, a, jobs)).1);
    }
    let n = targets.len() as f64;
    put(out, "lang.compile_ms", compile / n, "ms");
    put(out, "lang.typecheck_ms", check / n, "ms");
    put(out, "analysis.analyses_ms", analyses / n, "ms");
    put(out, "analysis.plan_ms", plan / n, "ms");
    put(out, "analysis.lint_ms", lint / n, "ms");
    for (stage, c) in ["race", "mhp", "typed", "absint"].iter().zip(candidates(targets)) {
        put(out, &format!("analysis.candidates.{stage}"), c as f64, "count");
    }
}

fn runtime_layer(targets: &[&Target], out: &mut Vec<Metric>) {
    // Each instrument alone against the uninstrumented run, timed back
    // to back so that both see the same host speed.
    let (mut log_ratio, mut pgraph_ratio) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (mut base, mut log, mut pg) = (0.0, 0.0, 0.0);
        for t in targets {
            base += timed(|| t.session.measure_run(t.config.clone(), false, false)).1;
            log += timed(|| t.session.measure_run(t.config.clone(), true, false)).1;
            pg += timed(|| t.session.measure_run(t.config.clone(), false, true)).1;
        }
        log_ratio.push(log / base);
        pgraph_ratio.push(pg / base);
    }
    put(out, "runtime.log_ratio", median(&log_ratio), "ratio");
    put(out, "runtime.pgraph_ratio", median(&pgraph_ratio), "ratio");
    let (mut steps, mut pre, mut post, mut snap) = (0u64, 0u64, 0u64, 0u64);
    for t in targets {
        let (_, meter) = t.session.execute_metered(t.config.clone());
        pre += meter.per_eblock.values().map(|c| c.prelog_bytes).sum::<u64>();
        post += meter.per_eblock.values().map(|c| c.postlog_bytes).sum::<u64>();
        snap += meter.snapshot_bytes;
        steps += t.session.execute_baseline(t.config.clone()).2;
    }
    put(out, "runtime.steps", steps as f64, "count");
    put(out, "runtime.prelog_bytes", pre as f64, "B");
    put(out, "runtime.postlog_bytes", post as f64, "B");
    put(out, "runtime.snapshot_bytes", snap as f64, "B");
    put(out, "runtime.snapshot_share", snap as f64 / (pre + post + snap).max(1) as f64, "ratio");
}

/// Intervals per program in the replay sample. The sample
/// materializes them cold, spread over the whole run, then again in
/// reverse order: on `debug`'s fat intervals the cold pass overflows
/// the engine's 16 MiB cache, so the sample evicts and the reverse
/// pass misses on the oldest; on the other workloads it all fits.
const SAMPLE: usize = 256;

/// Backward slices per program, from the sample's first roots.
const QUERY_SLICES: usize = 24;

#[derive(Default)]
struct Acc {
    write_ms: f64,
    raw_bytes: u64,
    z_bytes: u64,
    open_ms: f64,
    record_ms: f64,
    first_ms: f64,
    /// Time and count of sampled queries that replayed, and of those
    /// answered from the cache.
    replay_ms: f64,
    replayed: u64,
    hit_ms: f64,
    hit: u64,
    slice_ms: f64,
    slices: u64,
    hits: u64,
    lookups: u64,
    evictions: u64,
    replays: u64,
    decoded: u64,
    blocks: u64,
    bytes_read: u64,
    clocks_ms: f64,
    scan_ms: f64,
    scan_par_ms: f64,
    nodes: u64,
}

fn global(name: &str) -> u64 {
    ppd_obs::global().counter(name).get()
}

/// The segment store's read counters: entries decoded, blocks
/// inflated, bytes read.
fn store_reads() -> [u64; 3] {
    [
        global("log.segment_entries_decoded"),
        global("log.segment_blocks_inflated"),
        global("log.segment_bytes_read"),
    ]
}

/// The replay sample over one reopened store: its queries' timings
/// and the cache and store counters they moved.
fn replay_sample(ctl: &mut Controller<'_>, a: &mut Acc) {
    let intervals = ctl.all_intervals();
    let step = intervals.len().div_ceil(SAMPLE).max(1);
    let picks: Vec<_> = intervals.into_iter().step_by(step).take(SAMPLE).collect();
    let before = ctl.stats();
    let reads = store_reads();
    let mut roots = Vec::new();
    for (pass, iv) in picks.iter().chain(picks.iter().rev()).enumerate() {
        let replays = ctl.stats().replays;
        let (r, ms) = timed(|| ctl.materialize(*iv, None));
        if ctl.stats().replays > replays {
            (a.replay_ms, a.replayed) = (a.replay_ms + ms, a.replayed + 1);
        } else {
            (a.hit_ms, a.hit) = (a.hit_ms + ms, a.hit + 1);
        }
        if pass < picks.len() {
            roots.extend(r.ok().and_then(|r| r.root));
        }
    }
    let after = store_reads();
    let s = ctl.stats();
    a.hits += s.cache_hits - before.cache_hits;
    a.lookups += (s.cache_hits + s.cache_misses) - (before.cache_hits + before.cache_misses);
    a.evictions += s.evictions - before.evictions;
    a.replays += s.replays - before.replays;
    a.decoded += after[0] - reads[0];
    a.blocks += after[1] - reads[1];
    a.bytes_read += after[2] - reads[2];
    for node in roots.into_iter().take(QUERY_SLICES) {
        a.slice_ms += timed(|| ctl.backward_slice(node)).1;
        a.slices += 1;
    }
}

fn dynamic_layers(targets: &[&Target], scratch: &Path, out: &mut Vec<Metric>) {
    let mut a = Acc::default();
    for (i, t) in targets.iter().enumerate() {
        let exec = t.session.execute(t.config.clone());
        let dir = scratch.join(format!("layer-store-{i}"));
        let raw = scratch.join(format!("layer-raw-{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&raw);
        let (saved, ms) = timed(|| exec.logs.write_dir_with(&dir, 0, SegmentFormat::V2Compressed));
        a.write_ms += ms;
        if saved.is_err() || exec.save_dir_with(&dir, 0, SegmentFormat::V2Compressed).is_err() {
            continue;
        }
        let _ = exec.logs.write_dir_with(&raw, 0, SegmentFormat::V2Raw);
        a.raw_bytes += store_bytes(&raw);
        a.z_bytes += store_bytes(&dir);
        a.open_ms += med_ms(|| timed(|| LogStore::open_dir(&dir)).1);
        let (open, open_ms) = timed(|| LogStore::open_dir(&dir));
        drop(open);
        let (loaded, load_ms) = timed(|| Execution::load_dir(&dir));
        let Ok(loaded) = loaded else { continue };
        a.record_ms += (load_ms - open_ms).max(0.0);
        let (mut ctl, new_ms) = timed(|| Controller::new(&t.session, &loaded));
        a.first_ms += new_ms + timed(|| ctl.start()).1;
        replay_sample(&mut ctl, &mut a);
        let g = &exec.pgraph;
        let (ord, ms) = timed(|| VectorClocks::compute(g));
        a.clocks_ms += ms;
        let cands = &t.session.analyses().absint_candidates;
        a.scan_ms += med_ms(|| timed(|| ppd_graph::detect_races_absint(g, &ord, cands)).1);
        a.scan_par_ms += med_ms(|| {
            timed(|| ppd_graph::detect_races_par(g, &ord, Some(cands), default_jobs())).1
        });
        a.nodes += g.nodes().len() as u64;
    }
    let n = targets.len().max(1) as f64;
    let q = (a.replayed + a.hit).max(1) as f64;
    put(out, "log.write_ms", a.write_ms / n, "ms");
    put(out, "log.compress_ratio", a.raw_bytes as f64 / a.z_bytes.max(1) as f64, "ratio");
    put(out, "log.open_ms", a.open_ms / n, "ms");
    put(out, "log.entries_decoded", a.decoded as f64 / q, "count");
    put(out, "log.blocks_inflated", a.blocks as f64 / q, "count");
    put(out, "log.bytes_read", a.bytes_read as f64 / q, "B");
    put(out, "core.run_record_ms", a.record_ms / n, "ms");
    put(out, "core.first_query_ms", a.first_ms / n, "ms");
    put(out, "core.replay_us", 1e3 * a.replay_ms / a.replayed.max(1) as f64, "us");
    put(out, "core.hit_us", 1e3 * a.hit_ms / a.hit.max(1) as f64, "us");
    put(out, "core.hit_rate", a.hits as f64 / a.lookups.max(1) as f64, "ratio");
    put(out, "core.evictions", a.evictions as f64, "count");
    put(out, "core.replays", a.replays as f64, "count");
    put(out, "graph.clocks_ms", a.clocks_ms / n, "ms");
    put(out, "graph.scan_ms", a.scan_ms / n, "ms");
    put(out, "graph.scan_par_ms", a.scan_par_ms / n, "ms");
    put(out, "graph.pgraph_nodes", a.nodes as f64, "count");
    put(out, "graph.slice_us", 1e3 * a.slice_ms / a.slices.max(1) as f64, "us");
}
