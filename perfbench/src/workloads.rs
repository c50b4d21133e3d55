//! The four closed-loop workloads: one caller issues an operation,
//! waits for its answer, checks it, and issues the next.
//!
//! A workload runs in rounds. A round is a fixed, seeded sequence of
//! operations (every program once, or the whole query mix), so the
//! counts a round produces are the same on every run of one seed.

use crate::programs::{self, Program};
use crate::stats::{ms_since, Rng};
use crate::trace::{call, op};
use ppd_analysis::EBlockStrategy;
use ppd_core::{Controller, Execution, FeedReport, PpdSession, RunConfig};
use ppd_graph::{DynEdgeKind, DynNodeId, VectorClocks};
use ppd_lang::ProcId;
use ppd_log::IntervalRef;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Operations attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one operation; `ok` is whether its answer checked out.
    pub fn record(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(why());
            }
        }
    }
}

/// The worker count the race scan runs with in `races`. At the CLI's
/// default (every hardware thread, 2 on the reference host) the scan
/// waits on both vCPUs, whose speeds the host changes independently,
/// and `races/op_ms` spread 0.31 over ten runs; at one job it follows
/// one vCPU like `record` does. The parallel scan is measured as the
/// per-layer `graph.scan_par_ms`.
pub const RACES_JOBS: usize = 1;

/// The worker count the CLI uses by default (`--jobs`).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

pub fn strategy() -> EBlockStrategy {
    EBlockStrategy::per_subroutine()
}

/// `PpdSession::prepare`: compile, every analysis, the e-block plan
/// and the static PDG (§3.2.1).
pub fn prepare(p: &Program) -> Result<PpdSession, String> {
    call("core", "PpdSession::prepare", || PpdSession::prepare(&p.source, strategy()))
        .map_err(|e| format!("{}: {e}", p.name))
}

/// A prepared, runnable program with the configuration it runs under.
pub struct Target {
    pub program: Program,
    pub session: PpdSession,
    pub config: RunConfig,
    /// A store the debugging phase reopens, when set-up recorded one.
    pub store: Option<PathBuf>,
}

/// Latency samples: (operation key, ms). Operations with one key do
/// comparable work wherever they appear.
pub type Ops = Vec<(usize, f64)>;

/// What a workload does in its timed loop.
pub trait Workload {
    /// Runs one round, pushing each operation's key and latency.
    fn round(&mut self, round: u64, tally: &mut Tally, ops: &mut Ops);
    /// The runnable programs, for the run probes and the layer profile.
    fn targets(&self) -> &[Target];
    /// What the operations with latency key `key` do, for the per-kind
    /// `op_ms` lines (keys with one name print as one line).
    fn kind_name(&self, key: usize) -> String;
    /// Counts that one seed must reproduce exactly on every run. They
    /// are printed, and are not per-layer metrics.
    fn counts(&self) -> Vec<(String, f64)>;
}

/// Set-up for one workload: every program prepared (and, for `debug`,
/// the large run recorded to a compressed store in `store`), timed as
/// a whole.
pub fn setup(
    name: &str,
    seed: u64,
    root: &Path,
    store: &Path,
) -> Result<(Box<dyn Workload>, f64), String> {
    let t = Instant::now();
    let w: Box<dyn Workload> = match name {
        "lint" => Box::new(Lint::setup(programs::lint(seed, root)?)?),
        "record" => Box::new(Record::setup(programs::record(seed))?),
        "races" => Box::new(Races::setup(programs::races(seed), seed)?),
        "debug" => Box::new(Debug::setup(programs::debug(seed), seed, store)?),
        other => return Err(format!("unknown workload `{other}`")),
    };
    Ok((w, t.elapsed().as_secs_f64()))
}

fn targets(
    progs: Vec<Program>,
    config: impl Fn(usize) -> RunConfig,
) -> Result<Vec<Target>, String> {
    progs
        .into_iter()
        .enumerate()
        .map(|(i, program)| {
            let session = prepare(&program)?;
            Ok(Target { program, session, config: config(i), store: None })
        })
        .collect()
}

// ---------------------------------------------------------------- lint

/// `lint`: `types::check` + `lint::run_default_par`, one program per
/// operation, at the CLI's default `--jobs`.
pub struct Lint {
    targets: Vec<Target>,
    /// (type errors, diagnostics) of each program's first check; later
    /// rounds must reproduce it.
    expect: Vec<Option<(usize, usize)>>,
}

impl Lint {
    fn setup(progs: Vec<Program>) -> Result<Lint, String> {
        let targets = targets(progs, |_| programs::round_robin())?;
        Ok(Lint { expect: vec![None; targets.len()], targets })
    }
}

/// `ppd lint`'s text output for `diags`, which the goldens pin.
fn render_lint(p: &Program, s: &PpdSession, diags: &[ppd_analysis::Diagnostic]) -> String {
    use ppd_analysis::Severity;
    let file = ppd_lang::SourceFile::new(p.path.clone(), p.source.clone());
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!("{}\n\n", d.render(&file)));
    }
    let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
    if diags.is_empty() {
        out.push_str("lint: no diagnostics\n");
    } else {
        out.push_str(&format!("lint: {} warning(s), {errors} error(s)\n", diags.len() - errors));
    }
    let a = s.analyses();
    out.push_str(&format!(
        "candidates: {} gmod/gref -> {} mhp -> {} typed -> {} absint\n",
        a.race_candidates.len(),
        a.mhp_candidates.len(),
        a.typed_candidates.len(),
        a.absint_candidates.len()
    ));
    out
}

impl Workload for Lint {
    fn round(&mut self, _round: u64, tally: &mut Tally, ops: &mut Ops) {
        let jobs = default_jobs();
        for (k, (t, expect)) in self.targets.iter().zip(&mut self.expect).enumerate() {
            let (rp, analyses) = (t.session.rp(), t.session.analyses());
            let start = Instant::now();
            let (tc, diags) = op(|| {
                let tc = call("lang", "types::check", || ppd_lang::types::check(rp));
                let diags = call("analysis", "lint::run_default_par", || {
                    ppd_analysis::lint::run_default_par(rp, analyses, jobs)
                });
                (tc, diags)
            });
            ops.push((k, ms_since(start)));
            let got = (tc.errors.len(), diags.len());
            let ok = match (*expect, &t.program.golden) {
                (Some(e), _) => e == got,
                (None, golden) => {
                    *expect = Some(got);
                    golden.as_ref().is_none_or(|g| {
                        tc.is_ok() && *g == render_lint(&t.program, &t.session, &diags)
                    })
                }
            };
            tally.record(ok, || {
                format!("lint {}: diagnostics differ from the golden", t.program.name)
            });
        }
    }

    fn targets(&self) -> &[Target] {
        &self.targets
    }

    fn kind_name(&self, key: usize) -> String {
        self.targets[key].program.name.clone()
    }

    fn counts(&self) -> Vec<(String, f64)> {
        let diags: usize = self.expect.iter().map(|e| e.map_or(0, |(_, d)| d)).sum();
        vec![("lint.diagnostics".to_string(), diags as f64)]
    }
}

// -------------------------------------------------------------- record

/// `record`: one `PpdSession::execute` per operation (logs and the
/// parallel dynamic graph, what `ppd run` does), round-robin.
pub struct Record {
    targets: Vec<Target>,
    /// Each program's uninstrumented outcome and output.
    reference: Vec<(ppd_runtime::Outcome, Vec<(ProcId, i64)>)>,
    log_bytes: u64,
}

impl Record {
    fn setup(progs: Vec<Program>) -> Result<Record, String> {
        let targets = targets(progs, |_| programs::round_robin())?;
        Ok(Record { targets, reference: Vec::new(), log_bytes: 0 })
    }
}

impl Workload for Record {
    fn round(&mut self, round: u64, tally: &mut Tally, ops: &mut Ops) {
        if self.reference.is_empty() {
            self.reference = self
                .targets
                .iter()
                .map(|t| {
                    let (outcome, output, _) = t.session.execute_baseline(t.config.clone());
                    (outcome, output)
                })
                .collect();
        }
        for (k, (t, (outcome, output))) in self.targets.iter().zip(&self.reference).enumerate() {
            let start = Instant::now();
            let exec =
                op(|| call("core", "PpdSession::execute", || t.session.execute(t.config.clone())));
            ops.push((k, ms_since(start)));
            if round == 0 {
                self.log_bytes += exec.logs.total_bytes() as u64;
            }
            let ok = exec.outcome == *outcome && exec.output == *output;
            tally.record(ok, || {
                format!("record {}: output differs from the baseline", t.program.name)
            });
        }
    }

    fn targets(&self) -> &[Target] {
        &self.targets
    }

    fn kind_name(&self, key: usize) -> String {
        self.targets[key].program.name.clone()
    }

    fn counts(&self) -> Vec<(String, f64)> {
        vec![("record.log_bytes".into(), self.log_bytes as f64)]
    }
}

// --------------------------------------------------------------- races

/// `races`: one seeded random schedule per operation — `execute` and
/// `Controller::races` at [`RACES_JOBS`]. Round `r` runs
/// every program under schedule `r % SCHEDULES` of that program, so
/// each schedule is timed several times in a run.
pub struct Races {
    targets: Vec<Target>,
    seed: u64,
    races_found: u64,
}

/// Distinct random schedules per program and run.
pub const SCHEDULES: u64 = 3;

/// Every this many rounds, the race set is checked against the naive
/// detector (so every schedule is checked).
const NAIVE_CHECK_EVERY: u64 = 4;

/// The seed of program `i`'s schedule `k`.
pub fn schedule_seed(seed: u64, k: u64, i: usize) -> u64 {
    Rng::derive(seed, 0x7ace ^ (k << 8) ^ i as u64).next_u64()
}

impl Races {
    fn setup(progs: Vec<Program>, seed: u64) -> Result<Races, String> {
        let targets = targets(progs, |i| programs::random_schedule(schedule_seed(seed, 0, i)))?;
        Ok(Races { targets, seed, races_found: 0 })
    }
}

impl Workload for Races {
    fn round(&mut self, round: u64, tally: &mut Tally, ops: &mut Ops) {
        let k = round % SCHEDULES;
        let n = self.targets.len();
        for (i, t) in self.targets.iter().enumerate() {
            let config = programs::random_schedule(schedule_seed(self.seed, k, i));
            let start = Instant::now();
            let (exec, races) = op(|| {
                let exec = call("core", "PpdSession::execute", || t.session.execute(config));
                let mut ctl =
                    call("core", "Controller::new", || Controller::new(&t.session, &exec));
                call("core", "Controller::set_jobs", || ctl.set_jobs(RACES_JOBS));
                let races = call("core", "Controller::races", || ctl.races());
                call("core", "Controller::drop", || drop(ctl));
                (exec, races)
            });
            ops.push((k as usize * n + i, ms_since(start)));
            let mut found: Vec<_> = races.iter().map(|r| r.race).collect();
            found.sort();
            let mut ok = found.is_empty() != t.program.racy;
            if round.is_multiple_of(NAIVE_CHECK_EVERY) {
                let ord = VectorClocks::compute(&exec.pgraph);
                let mut naive = ppd_graph::detect_races_naive(&exec.pgraph, &ord);
                naive.sort();
                ok &= naive == found;
            }
            if round == 0 {
                self.races_found += found.len() as u64;
            }
            tally.record(ok, || format!("races {} round {round}: wrong race set", t.program.name));
        }
    }

    fn targets(&self) -> &[Target] {
        &self.targets
    }

    fn kind_name(&self, key: usize) -> String {
        let n = self.targets.len();
        format!("{} schedule {}", self.targets[key % n].program.name, key / n)
    }

    fn counts(&self) -> Vec<(String, f64)> {
        vec![("races.found".to_string(), self.races_found as f64)]
    }
}

// --------------------------------------------------------------- debug

/// One query of the `debug` mix.
#[derive(Debug, Clone, Copy)]
enum Query {
    /// `Controller::start_at` on a process of the program.
    StartAt(u32),
    /// `materialize` of the interval at this index of `all_intervals`.
    Materialize(usize),
    /// `expand` of the n-th unexpanded node (modulo their count).
    Expand(usize),
    /// `flowback` from the n-th node of the graph (modulo its size).
    Flowback(usize),
    /// `backward_slice` from the n-th node of the graph.
    Slice(usize),
}

/// `debug`: a seeded query mix over one large recorded run. A round is
/// the whole mix against a fresh controller, so every round starts
/// with a cold cache and sees the same hits, misses and evictions.
pub struct Debug {
    targets: Vec<Target>,
    exec: Execution,
    intervals: Vec<IntervalRef>,
    plan: Vec<Query>,
    /// Answer fingerprints of the first round.
    expect: Vec<u64>,
    /// The kind of each query of the plan, as the first round ran it
    /// (every round runs it the same way).
    kinds: Vec<usize>,
    stats: Vec<(String, f64)>,
}

/// Queries per round, and how many intervals the hot set holds.
const DEBUG_QUERIES: usize = 400;
const HOT_SET: usize = 12;

impl Debug {
    fn setup(progs: Vec<Program>, seed: u64, dir: &Path) -> Result<Debug, String> {
        let mut targets = targets(progs, |_| programs::round_robin())?;
        let t = &mut targets[0];
        let _ = std::fs::remove_dir_all(dir);
        let exec = call("core", "PpdSession::execute_streaming_with", || {
            t.session.execute_streaming_with(t.config.clone(), dir, 0, true)
        })
        .map_err(|e| format!("record {}: {e}", t.program.name))?;
        t.store = Some(dir.to_path_buf());
        let intervals = Controller::new(&t.session, &exec).all_intervals();
        let procs = t.session.rp().procs.len() as u64;
        let plan = debug_plan(seed, intervals.len(), procs);
        Ok(Debug {
            targets,
            exec,
            intervals,
            plan,
            expect: Vec::new(),
            kinds: Vec::new(),
            stats: Vec::new(),
        })
    }
}

/// The seeded query mix: each process's start first, then cold
/// `materialize` calls spread over every interval, repeats of a hot
/// set (cache hits), `expand`, `flowback` and `backward_slice`.
///
/// The mix is an assumption, not measured traffic: there is no record
/// of real debugging sessions to draw it from. The weights follow what
/// each query is for. 60 % cold `materialize`: most of a flowback
/// session follows dependences into intervals not yet seen, and each
/// of those replays one e-block (§5.3), the cost the paper claims is
/// small. 20 % repeats of a 12-interval hot set: a user returns to the
/// few places under suspicion, which is what the replay cache is for;
/// 12 intervals fit the cache many times over, so only cold traffic
/// evicts them. 8 % `expand`, 6 % `flowback`, 6 % `backward_slice`:
/// the graph queries over what is already built, kept few so that
/// replay dominates the operation. `op_ms` is printed per query kind
/// as well, so that a change in one kind shows whatever the weights.
fn debug_plan(seed: u64, intervals: usize, procs: u64) -> Vec<Query> {
    let mut rng = Rng::derive(seed, 5);
    let hot: Vec<usize> = (0..HOT_SET).map(|_| rng.below(intervals as u64) as usize).collect();
    let mut plan: Vec<Query> = (0..procs as u32).map(Query::StartAt).collect();
    while plan.len() < DEBUG_QUERIES {
        let pick = rng.below(100);
        let n = rng.next_u64() as usize;
        plan.push(match pick {
            0..=59 => Query::Materialize(n % intervals),
            60..=79 => Query::Materialize(hot[n % HOT_SET]),
            80..=87 => Query::Expand(n),
            88..=93 => Query::Flowback(n),
            _ => Query::Slice(n),
        });
    }
    plan
}

fn node_at(ctl: &Controller<'_>, n: usize) -> Option<DynNodeId> {
    let nodes = ctl.graph().nodes();
    (!nodes.is_empty()).then(|| nodes[n % nodes.len()].id)
}

/// Names of the kinds [`query_kind`] returns.
const QUERY_KINDS: [&str; 7] = [
    "start_at",
    "materialize (cache hit)",
    "materialize (replay)",
    "expand (cache hit)",
    "expand (replay)",
    "flowback",
    "backward_slice",
];

/// A query's kind: what it asks, and for `materialize` and `expand`
/// whether it replayed or was answered from the cache.
fn query_kind(q: Query, replayed: bool) -> usize {
    match q {
        Query::StartAt(_) => 0,
        Query::Materialize(_) => 1 + usize::from(replayed),
        Query::Expand(_) => 3 + usize::from(replayed),
        Query::Flowback(_) => 5,
        Query::Slice(_) => 6,
    }
}

/// A query's answer, kept until the query's timing has ended.
enum Answer {
    Root(DynNodeId),
    Feed(FeedReport),
    Causes(Vec<(DynNodeId, DynEdgeKind)>),
    Slice(Vec<DynNodeId>),
}

/// Runs one query: what is timed as the operation.
fn run_query(
    ctl: &mut Controller<'_>,
    intervals: &[IntervalRef],
    q: Query,
) -> Result<Answer, String> {
    let err = |e: ppd_core::PpdError| e.to_string();
    Ok(match q {
        Query::StartAt(p) => Answer::Root(
            call("core", "Controller::start_at", || ctl.start_at(ProcId(p))).map_err(err)?,
        ),
        Query::Materialize(i) => Answer::Feed(
            call("core", "Controller::materialize", || ctl.materialize(intervals[i], None))
                .map_err(err)?,
        ),
        Query::Expand(n) => {
            // The list is dropped inside the call's span: freeing it is
            // part of asking for it.
            let node = call("core", "Controller::unexpanded", || {
                let open = ctl.unexpanded();
                open.get(n % open.len().max(1)).copied()
            })
            .ok_or("nothing left to expand")?;
            Answer::Feed(call("core", "Controller::expand", || ctl.expand(node)).map_err(err)?)
        }
        Query::Flowback(n) => {
            let node = node_at(ctl, n).ok_or("empty graph")?;
            Answer::Causes(call("core", "Controller::flowback", || ctl.flowback(node)))
        }
        Query::Slice(n) => {
            let node = node_at(ctl, n).ok_or("empty graph")?;
            Answer::Slice(call("core", "Controller::backward_slice", || ctl.backward_slice(node)))
        }
    })
}

/// The answer's fingerprint, compared only within one process. A fed
/// fragment is fingerprinted by its content (labels, values, event
/// order), not its node ids, so a warm repeat can be compared with the
/// cold answer.
fn fingerprint(ctl: &Controller<'_>, answer: &Answer) -> u64 {
    let mut h = DefaultHasher::new();
    match answer {
        Answer::Root(id) => id.index().hash(&mut h),
        Answer::Feed(report) => {
            for &id in &report.nodes {
                let node = ctl.graph().node(id);
                (&node.label, format!("{:?}", node.value), node.seq).hash(&mut h);
            }
        }
        Answer::Causes(causes) => {
            for (id, kind) in causes {
                (id.index(), format!("{kind:?}")).hash(&mut h);
            }
        }
        Answer::Slice(ids) => ids.iter().for_each(|id| id.index().hash(&mut h)),
    }
    h.finish()
}

impl Workload for Debug {
    fn round(&mut self, round: u64, tally: &mut Tally, ops: &mut Ops) {
        let t = &self.targets[0];
        let global = |name| ppd_obs::global().counter(name).get();
        let decoded = global("log.segment_entries_decoded");
        let blocks = global("log.segment_blocks_inflated");
        let read = global("log.segment_bytes_read");
        let mut ctl = Controller::new(&t.session, &self.exec);
        // First answer of each materialized interval this round: a warm
        // repeat must return the same trace as the cold replay did.
        let mut seen: HashMap<usize, u64> = HashMap::new();
        let mut answers = Vec::with_capacity(self.plan.len());
        for (k, &q) in self.plan.iter().enumerate() {
            let replays = ctl.stats().replays;
            let start = Instant::now();
            let answer =
                catch_unwind(AssertUnwindSafe(|| op(|| run_query(&mut ctl, &self.intervals, q))))
                    .unwrap_or_else(|_| Err("panicked".into()));
            let ms = ms_since(start);
            // The latency key is the query's place in the plan. Every
            // round runs the plan against a fresh controller, so one
            // place does the same work in every round; one kind does
            // not, because each query feeds the dynamic graph and the
            // same kind costs more the later it comes in a round.
            ops.push((k, ms));
            if round == 0 {
                self.kinds.push(query_kind(q, ctl.stats().replays > replays));
            }
            let answer = answer.map(|a| fingerprint(&ctl, &a));
            let mut ok = answer.is_ok();
            if let (Query::Materialize(i), Ok(fp)) = (q, &answer) {
                ok &= *seen.entry(i).or_insert(*fp) == *fp;
            }
            let fp = answer.as_ref().copied().unwrap_or(0);
            if round == 0 {
                self.expect.push(fp);
            } else {
                ok &= self.expect.get(k) == Some(&fp);
            }
            answers.push(fp);
            tally.record(ok, || format!("debug query {k} {q:?} round {round}: {answer:?}"));
        }
        if round == 0 {
            let s = ctl.stats();
            let since = |name, before| (global(name) - before) as f64;
            self.stats = vec![
                ("debug.queries".into(), s.queries as f64),
                ("debug.replays".into(), s.replays as f64),
                ("debug.cache_hits".into(), s.cache_hits as f64),
                ("debug.cache_misses".into(), s.cache_misses as f64),
                ("debug.evictions".into(), s.evictions as f64),
                ("debug.log_entries_scanned".into(), s.log_entries_scanned as f64),
                ("debug.cached_bytes".into(), s.cached_bytes as f64),
                ("debug.entries_decoded".into(), since("log.segment_entries_decoded", decoded)),
                ("debug.blocks_inflated".into(), since("log.segment_blocks_inflated", blocks)),
                ("debug.bytes_read".into(), since("log.segment_bytes_read", read)),
            ];
        }
    }

    fn targets(&self) -> &[Target] {
        &self.targets
    }

    fn kind_name(&self, key: usize) -> String {
        QUERY_KINDS[self.kinds[key]].to_string()
    }

    fn counts(&self) -> Vec<(String, f64)> {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One seeded set-up and one round; the counts it leaves.
    fn counts_of(name: &str, seed: u64) -> Vec<(String, f64)> {
        let dir =
            Path::new("../.perfbench").join(format!("test-{}-{name}-{seed}", std::process::id()));
        let (mut w, _) = setup(name, seed, Path::new(".."), &dir).expect("set-up");
        let mut tally = Tally::default();
        let mut ops = Vec::new();
        w.round(0, &mut tally, &mut ops);
        assert_eq!(tally.failed, 0, "{name}: {:?}", tally.reasons);
        assert!(!ops.is_empty());
        let mut counts = w.counts();
        let cands = crate::layers::candidates(w.targets());
        for (stage, n) in ["race", "mhp", "typed", "absint"].iter().zip(cands) {
            counts.push((format!("candidates.{stage}"), n as f64));
        }
        for (stage, n) in crate::layers::race_pairs(w.targets()) {
            counts.push((format!("pairs.{stage}"), n as f64));
        }
        drop(w);
        let _ = std::fs::remove_dir_all(&dir);
        counts
    }

    #[test]
    fn one_seed_gives_the_same_counts_on_every_run() {
        // Serial: the segment-store counters the debug counts read are
        // process-wide.
        let _serial = crate::SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        for name in ["lint", "record", "races", "debug"] {
            let first = counts_of(name, 3);
            assert!(first.iter().any(|(_, v)| *v > 0.0), "{name}: {first:?}");
            assert_eq!(first, counts_of(name, 3), "{name}");
        }
    }

    #[test]
    fn seeds_draw_different_schedules_and_query_orders() {
        assert_ne!(schedule_seed(1, 0, 0), schedule_seed(2, 0, 0));
        assert_ne!(schedule_seed(1, 0, 0), schedule_seed(1, 1, 0));
        let plan = |seed| format!("{:?}", debug_plan(seed, 1000, 4));
        assert_eq!(plan(1), plan(1));
        assert_ne!(plan(1), plan(2));
    }

    #[test]
    fn debug_plan_starts_every_process_within_range() {
        let plan = debug_plan(9, 500, 4);
        assert_eq!(plan.len(), DEBUG_QUERIES);
        let starts: Vec<u32> = plan
            .iter()
            .filter_map(|q| if let Query::StartAt(p) = q { Some(*p) } else { None })
            .collect();
        assert_eq!(starts, vec![0, 1, 2, 3]);
    }
}
