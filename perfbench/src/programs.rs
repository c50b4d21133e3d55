//! The programs each workload runs, drawn from the seed.
//!
//! The seed only decides sizes (within narrow bands, so that the
//! amount of work per run stays comparable across seeds), orders and
//! schedules. The generators are the repository's own
//! (`ppd_bench::workloads`, `ppd_lang::corpus`) plus [`ledger`], which
//! exists to give the `debug` workload fat replay intervals.

use crate::stats::Rng;
use ppd_core::RunConfig;
use ppd_runtime::SchedulerSpec;
use std::path::Path;

/// One program of a workload.
#[derive(Debug, Clone)]
pub struct Program {
    pub name: String,
    pub source: String,
    /// Display path used when rendering diagnostics (`programs/x.ppd`
    /// for checked-in programs).
    pub path: String,
    /// Committed `ppd lint` text output this program must reproduce.
    pub golden: Option<String>,
    /// Whether executing it is part of the workload's run probes.
    pub runnable: bool,
    /// Whether a correct race detector must report races on it.
    pub racy: bool,
}

impl Program {
    fn generated(name: String, source: String, racy: bool) -> Program {
        Program { path: format!("<{name}>"), name, source, golden: None, runnable: true, racy }
    }
}

/// Round-robin configuration with a generous step budget.
pub fn round_robin() -> RunConfig {
    RunConfig {
        scheduler: SchedulerSpec::RoundRobin,
        max_steps: Some(200_000_000),
        ..RunConfig::default()
    }
}

/// A seeded random-schedule configuration.
pub fn random_schedule(seed: u64) -> RunConfig {
    RunConfig { scheduler: SchedulerSpec::Random { seed }, ..round_robin() }
}

fn bench(w: ppd_bench::workloads::Workload, racy: bool) -> Program {
    Program::generated(w.name, w.source, racy)
}

/// Scales `base` by a seeded factor in [0.96, 1.04].
fn jitter(rng: &mut Rng, base: u32) -> u32 {
    let lo = base - base / 25;
    let hi = base + base / 25;
    rng.range(lo, hi)
}

/// `lint`: generated programs that stress the static stack, three of
/// each generator at seeded sizes, plus every checked-in
/// `programs/*.ppd`, in seeded order.
pub fn lint(seed: u64, root: &Path) -> Result<Vec<Program>, String> {
    use ppd_bench::workloads::{disjoint_sweep, handoff, racy_workers, typed_pipeline};
    let mut rng = Rng::derive(seed, 1);
    let mut progs = Vec::new();
    for _ in 0..3 {
        progs.push(bench(handoff(rng.range(31, 33), rng.range(48, 52)), true));
        progs.push(bench(typed_pipeline(6, rng.range(38, 42)), false));
        progs.push(bench(disjoint_sweep(9, rng.range(18, 22)), false));
        progs.push(bench(racy_workers(12, rng.range(28, 32)), true));
    }
    progs.extend(checked_in(root)?);
    rng.shuffle(&mut progs);
    Ok(progs)
}

/// Every `programs/*.ppd` of the checkout, with its lint golden when
/// `tests/golden/<name>.lint.txt` exists. Read only.
fn checked_in(root: &Path) -> Result<Vec<Program>, String> {
    let dir = root.join("programs");
    let entries = std::fs::read_dir(&dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ppd"))
        .collect();
    paths.sort();
    let mut out = Vec::new();
    for p in paths {
        let name = p.file_stem().and_then(|s| s.to_str()).unwrap_or_default().to_string();
        let source =
            std::fs::read_to_string(&p).map_err(|e| format!("read {}: {e}", p.display()))?;
        let golden_path = root.join("tests/golden").join(format!("{name}.lint.txt"));
        let golden = std::fs::read_to_string(golden_path).ok();
        out.push(Program {
            path: format!("programs/{name}.ppd"),
            name,
            source,
            golden,
            runnable: false,
            racy: false,
        });
    }
    if out.is_empty() {
        return Err(format!("no programs in {}", dir.display()));
    }
    Ok(out)
}

/// `record`: the synchronization-heavy programs of the overhead suite
/// (prodcons, bank, token_ring: shared-sync-unit snapshots of §5.5)
/// plus its log-light compute loop as control, at the suite's sizes
/// (seeded within ±4 %). At these sizes a run's working set stays
/// within a core's L2 cache, where the host's slow mode bites least.
pub fn record(seed: u64) -> Vec<Program> {
    use ppd_lang::corpus::{gen_bank, gen_loop_heavy, gen_prodcons, gen_token_ring};
    let mut rng = Rng::derive(seed, 2);
    let mut progs = vec![
        Program::generated("prodcons".into(), gen_prodcons(jitter(&mut rng, 400)), false),
        Program::generated("bank".into(), gen_bank(jitter(&mut rng, 300)), false),
        Program::generated("token_ring".into(), gen_token_ring(jitter(&mut rng, 150)), false),
        Program::generated("loop_heavy".into(), gen_loop_heavy(jitter(&mut rng, 3000)), false),
    ];
    rng.shuffle(&mut progs);
    progs
}

/// `races`: race-free synchronization-heavy programs, where the scan
/// dominates, plus racy workers so that races are found.
pub fn races(seed: u64) -> Vec<Program> {
    use ppd_lang::corpus::{gen_bank, gen_prodcons, gen_racy_workers};
    let mut rng = Rng::derive(seed, 3);
    let mut progs = vec![
        Program::generated("bank".into(), gen_bank(jitter(&mut rng, 400)), false),
        Program::generated("prodcons".into(), gen_prodcons(jitter(&mut rng, 800)), false),
        Program::generated("racy_workers".into(), gen_racy_workers(4, jitter(&mut rng, 150)), true),
    ];
    rng.shuffle(&mut progs);
    progs
}

/// `debug`: one large recorded run of [`ledger`]: about 250 intervals
/// of about 23,000 interpreter steps each. Few, fat intervals keep the
/// recording, which set-up repeats, near a third of a second while a
/// round's cold replays (about 130 KB of trace each) still overflow the
/// 16 MiB replay cache.
pub fn debug(seed: u64) -> Vec<Program> {
    let mut rng = Rng::derive(seed, 4);
    let procs = 4;
    let posts = jitter(&mut rng, 62);
    vec![Program::generated("ledger".into(), ledger(procs, posts, 448), false)]
}

/// `procs` clerks each post `posts` batches to their own
/// `width`-entry slice of a shared ledger. Every batch is one call, so
/// one replay interval whose trace walks the whole slice: the
/// intervals are all alike and fat enough that a query mix over them
/// overflows the replay cache. The slices are disjoint and unlocked,
/// so the parallel dynamic graph stays small (a quick `run.json`
/// parse) and the race scan has little to examine.
pub fn ledger(procs: u32, posts: u32, width: u32) -> String {
    let mut src = format!(
        "shared int book[{}];\n\
         int post(int k, int base) {{\n    int j;\n    int s = 0;\n    \
         for (j = 0; j < {width}; j = j + 1) {{\n        \
         book[base + j] = book[base + j] + (k + j) % 7;\n        s = s + book[base + j] % 11;\n    }}\n    \
         return s;\n}}\n",
        procs * width
    );
    for p in 0..procs {
        let base = p * width;
        src.push_str(&format!(
            "process Clerk{p} {{\n    int r;\n    int t = 0;\n    \
             for (r = 0; r < {posts}; r = r + 1) {{ t = (t + post(r + {p}, {base})) % 100003; }}\n    \
             print(t);\n}}\n"
        ));
    }
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sources(progs: &[Program]) -> Vec<String> {
        progs.iter().map(|p| p.source.clone()).collect()
    }

    #[test]
    fn draws_are_reproducible_and_seed_sensitive() {
        assert_eq!(sources(&record(5)), sources(&record(5)));
        assert_ne!(sources(&record(5)), sources(&record(6)));
        assert_eq!(sources(&races(5)), sources(&races(5)));
        assert_ne!(sources(&races(5)), sources(&races(6)));
        assert_ne!(sources(&debug(1)), sources(&debug(2)));
    }

    #[test]
    fn generated_programs_compile() {
        for p in record(1).iter().chain(&races(1)).chain(&debug(1)) {
            ppd_lang::compile(&p.source).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }
}
