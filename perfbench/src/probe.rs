//! The run probes: what recording and reopening a workload's programs
//! cost the user, measured on every workload so that each one reports
//! every end-to-end metric.
//!
//! - `slowdown`: `execute` ÷ `execute_baseline`, each pair timed back
//!   to back (in alternating order), so that both halves of a ratio
//!   see the same host speed.
//! - `log_bytes_per_step` and `store_bytes_per_step`: counts.
//! - `first_answer_ms`: `Execution::load_dir` + `Controller::new` +
//!   `start()`, what `ppd debug --log-dir` waits for before it shows
//!   the first flowback root.

use crate::stats::{fastest, median, ms_since, timed};
use crate::trace::call;
use crate::workloads::{Tally, Target};
use ppd_core::{Controller, Execution};
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Debug, Default)]
pub struct Probe {
    /// Per runnable program: the execute ÷ execute_baseline ratio of
    /// each pair, and each pair's baseline time (ms).
    pub ratios: Vec<Vec<f64>>,
    pub base_ms: Vec<Vec<f64>>,
    /// Per runnable program: each first-answer latency (ms).
    pub answer_ms: Vec<Vec<f64>>,
    pub log_bytes: u64,
    pub store_bytes: u64,
    pub steps: u64,
    /// Where each runnable program's store is.
    stores: Vec<PathBuf>,
}

/// On-disk bytes of a segment store's `.seg` files.
pub fn store_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "seg"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

fn runnable(targets: &[Target]) -> impl Iterator<Item = &Target> + Clone {
    targets.iter().filter(|t| t.program.runnable)
}

impl Probe {
    /// Runs every runnable program once, untimed: counts its log bytes
    /// and steps, and saves the compressed store the first answers
    /// reopen (set-up already recorded one for `debug`).
    pub fn new(targets: &[Target], scratch: &Path, tally: &mut Tally) -> Probe {
        let mut probe = Probe::default();
        for (i, t) in runnable(targets).enumerate() {
            let exec = t.session.execute(t.config.clone());
            probe.log_bytes += exec.logs.total_bytes() as u64;
            probe.steps += exec.steps;
            let dir = match &t.store {
                Some(dir) => dir.clone(),
                None => {
                    let dir = scratch.join(format!("probe-store-{i}"));
                    let _ = std::fs::remove_dir_all(&dir);
                    let saved = exec.save_dir_with(&dir, 0, ppd_log::SegmentFormat::V2Compressed);
                    tally.record(saved.is_ok(), || {
                        format!("{}: save failed: {saved:?}", t.program.name)
                    });
                    dir
                }
            };
            probe.store_bytes += store_bytes(&dir);
            probe.stores.push(dir);
            probe.ratios.push(Vec::new());
            probe.base_ms.push(Vec::new());
            probe.answer_ms.push(Vec::new());
        }
        probe
    }

    /// One instrumented/uninstrumented pair per runnable program; the
    /// two must agree on outcome and output.
    pub fn pair_round(&mut self, targets: &[Target], tally: &mut Tally) {
        let inst_first = self.ratios.first().is_some_and(|r| r.len() % 2 == 1);
        for (i, t) in runnable(targets).enumerate() {
            let base = || timed(|| t.session.execute_baseline(t.config.clone()));
            let inst = || timed(|| t.session.execute(t.config.clone()));
            let ((b, b_ms), (exec, e_ms)) = if inst_first {
                let e = inst();
                (base(), e)
            } else {
                let b = base();
                (b, inst())
            };
            self.ratios[i].push(e_ms / b_ms);
            self.base_ms[i].push(b_ms);
            let ok = exec.outcome == b.0 && exec.output == b.1;
            tally.record(ok, || {
                format!("{}: instrumented run differs from baseline", t.program.name)
            });
        }
    }

    /// One first answer per runnable program.
    pub fn answer_round(&mut self, targets: &[Target], tally: &mut Tally) {
        for (i, (t, dir)) in runnable(targets).zip(&self.stores).enumerate() {
            let start = Instant::now();
            let root = first_answer(t, dir);
            self.answer_ms[i].push(ms_since(start));
            tally.record(root.is_ok(), || {
                format!("{}: first answer failed: {root:?}", t.program.name)
            });
        }
    }

    /// Execute ÷ execute_baseline over the workload's programs: each
    /// program's median paired ratio, weighted by its baseline time.
    pub fn slowdown(&self) -> f64 {
        let weights: Vec<f64> = self.base_ms.iter().map(|b| fastest(b)).collect();
        let weighted: f64 = self.ratios.iter().zip(&weights).map(|(r, w)| median(r) * w).sum();
        weighted / weights.iter().sum::<f64>()
    }

    /// Mean over the programs of each one's fastest first-answer
    /// latency.
    pub fn first_answer_ms(&self) -> f64 {
        self.answer_ms.iter().map(|a| fastest(a)).sum::<f64>() / self.answer_ms.len() as f64
    }
}

/// What `ppd debug --log-dir` does before its first answer.
fn first_answer(t: &Target, dir: &Path) -> Result<usize, String> {
    let exec = call("core", "Execution::load_dir", || Execution::load_dir(dir))
        .map_err(|e| e.to_string())?;
    let mut ctl = Controller::new(&t.session, &exec);
    let root = call("core", "Controller::start", || ctl.start()).map_err(|e| e.to_string())?;
    Ok(root.index())
}
