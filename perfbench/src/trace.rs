//! The benchmark's own spans, and the traced run's per-layer self time.
//!
//! Every public call a workload makes goes through [`call`], and every
//! operation through [`op`]. With span recording off (the untraced
//! runs) each costs one relaxed load. In the traced run they nest with
//! the spans the crates record themselves (`ppd_obs`), all kept in
//! memory until [`Profile::take`] drains them once at the end.
//!
//! While recording, each of these spans also times its own
//! bookkeeping — opening the span before the work, closing it after —
//! where it happens, between real calls with the caches as the work
//! left them. That is the measured cost of recording a span.

use ppd_obs::SpanRecord;
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

thread_local! {
    /// Bookkeeping time (ns) and count of this thread's benchmark
    /// spans recorded so far.
    static BOOKKEEPING: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn spanned<T>(cat: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
    if !ppd_obs::spans_enabled() {
        return f();
    }
    let t0 = Instant::now();
    let span = ppd_obs::span(cat, name);
    let t1 = Instant::now();
    let out = f();
    let t2 = Instant::now();
    drop(span);
    let ns = (t1 - t0 + t2.elapsed()).as_nanos() as u64;
    BOOKKEEPING.with(|b| b.set((b.get().0 + ns, b.get().1 + 1)));
    out
}

/// Runs `f` inside a span named after the public call it makes;
/// `layer` is the crate the call belongs to.
#[inline]
pub fn call<T>(layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
    spanned(layer, name, f)
}

/// Runs one operation inside the root span every span of that
/// operation is attributed to. [`Profile::take`] numbers the roots and
/// tags each span with its operation's number, so the root itself
/// records nothing beyond its span.
#[inline]
pub fn op<T>(f: impl FnOnce() -> T) -> T {
    spanned("bench", "op", f)
}

/// The mean measured bookkeeping of one benchmark span recorded on
/// this thread, in ns, and how many there were; resets both.
pub fn span_cost_ns() -> (f64, u64) {
    let (ns, spans) = BOOKKEEPING.with(|b| b.replace((0, 0)));
    (ns as f64 / spans.max(1) as f64, spans)
}

/// The crate a span category belongs to. The benchmark's own spans
/// use crate names; the crates' spans use finer categories.
fn layer_of(cat: &str) -> &str {
    match cat {
        "replay" | "cache" => "core",
        "race" => "graph",
        "lint" => "analysis",
        other => other,
    }
}

/// Per-layer self time of the traced operations.
#[derive(Debug, Default)]
pub struct Profile {
    /// Operations seen.
    pub ops: u64,
    /// Summed wall time of the operations' root spans, in ns.
    pub op_ns: u64,
    /// Self time per layer on the operations' own thread, in ns. The
    /// root span's self time is the benchmark's glue (`bench`).
    pub self_ns: BTreeMap<String, u64>,
    /// Per operation: its root span's self time (the glue, in ns) and
    /// the spans recorded on its thread, root included — what tracing
    /// added to its wall time.
    pub per_op: Vec<(u64, u64)>,
    /// Busy time of pool worker threads during the operations, in ns.
    pub worker_ns: u64,
    /// Pool tasks run and stolen during the operations.
    pub pool_tasks: u64,
    pub pool_steals: u64,
    /// The recorded spans, each tagged with its operation's id.
    pub records: Vec<SpanRecord>,
}

impl Profile {
    /// Drains every recorded span and attributes it: self time is a
    /// span's duration minus the part its children cover.
    pub fn take() -> Profile {
        let mut records = ppd_obs::take_spans();
        let mut prof = Profile::default();
        // (start, end) of every root operation span; an operation's id
        // is its root's place in start order.
        let mut roots: Vec<(u64, u64)> = records
            .iter()
            .filter(|r| r.cat == "bench" && r.name == "op" && !r.instant)
            .map(|r| (r.start_ns, r.start_ns + r.dur_ns))
            .collect();
        roots.sort();
        let op_tid = records.iter().find(|r| r.cat == "bench" && r.name == "op").map(|r| r.tid);
        prof.ops = roots.len() as u64;
        prof.per_op = vec![(0, 0); roots.len()];
        prof.op_ns = roots.iter().map(|(s, e)| e - s).sum();

        // Records are sorted by (tid, seq): each thread's spans in the
        // order they opened, so a depth stack recovers the tree.
        let mut child_ns = vec![0u64; records.len()];
        let mut stack: Vec<usize> = Vec::new();
        let mut tid = None;
        for (i, r) in records.iter().enumerate() {
            if tid != Some(r.tid) {
                stack.clear();
                tid = Some(r.tid);
            }
            if r.instant {
                continue;
            }
            stack.truncate(r.depth as usize);
            if let Some(&parent) = stack.last() {
                child_ns[parent] += r.dur_ns;
            }
            stack.push(i);
        }
        for (i, r) in records.iter_mut().enumerate() {
            let Some(op) = containing(&roots, r.start_ns) else { continue };
            r.args.push(("op", Cow::Owned(op.to_string())));
            if r.instant {
                continue;
            }
            if Some(r.tid) == op_tid {
                let own = r.dur_ns.saturating_sub(child_ns[i]);
                *prof.self_ns.entry(layer_of(r.cat).to_string()).or_default() += own;
                let (glue, spans) = &mut prof.per_op[op];
                *spans += 1;
                if r.cat == "bench" && r.name == "op" {
                    *glue = own;
                }
            } else if r.depth == 0 {
                prof.worker_ns += r.dur_ns;
            }
            if r.cat == "pool" && r.name == "task" {
                prof.pool_tasks += 1;
                prof.pool_steals += u64::from(r.args.iter().any(|(k, _)| *k == "stolen"));
            }
        }
        prof.records = records;
        prof
    }

    /// Spans recorded on the operations' thread, over all operations.
    pub fn spans(&self) -> u64 {
        self.per_op.iter().map(|p| p.1).sum()
    }

    /// Self time summed over every layer but the benchmark's glue.
    pub fn layers_ns(&self) -> u64 {
        self.self_ns.iter().filter(|(k, _)| k.as_str() != "bench").map(|(_, v)| v).sum()
    }

    /// Writes the spans as one Chrome trace.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let json = ppd_obs::chrome::trace_json(&self.records, &ppd_obs::thread_names());
        std::fs::write(path, json)
    }
}

/// The id of the root operation whose interval contains `t`.
fn containing(roots: &[(u64, u64)], t: u64) -> Option<usize> {
    let i = roots.partition_point(|(s, _)| *s <= t).checked_sub(1)?;
    let (s, e) = roots[i];
    (s <= t && t <= e).then_some(i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_operation() {
        let _serial = crate::SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        ppd_obs::reset_spans();
        ppd_obs::enable_spans(true);
        for _ in 0..3 {
            op(|| {
                call("lang", "outer", || {
                    call("core", "inner", || std::hint::black_box((0..10_000u64).sum::<u64>()))
                })
            });
        }
        ppd_obs::enable_spans(false);
        let prof = Profile::take();
        assert_eq!(prof.ops, 3);
        let total: u64 = prof.self_ns.values().sum();
        assert_eq!(total, prof.op_ns, "self times partition the root spans");
        assert!(prof.self_ns.contains_key("lang") && prof.self_ns.contains_key("core"));
        assert!(prof.per_op.iter().all(|&(_, spans)| spans == 3), "three spans per operation");
        let ids: std::collections::BTreeSet<String> = prof
            .records
            .iter()
            .filter_map(|r| r.args.iter().find(|(k, _)| *k == "op").map(|(_, v)| v.to_string()))
            .collect();
        assert_eq!(ids.len(), 3, "spans of one operation share its id");
        let (cost, spans) = span_cost_ns();
        assert_eq!(spans, 9, "the benchmark's own spans time their bookkeeping");
        assert!(cost > 0.0);
    }
}
