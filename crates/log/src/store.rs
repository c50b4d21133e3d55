//! Per-process log files and the whole-execution log store (§5.6).
//!
//! "There is one log file for each process of a parallel program." The
//! [`LogStore`] owns every process's log; the Controller navigates it via
//! [`IntervalRef`]s — the log intervals `I_i` of §5.1 — and a
//! [`LogCursor`] that the replayer consumes entries from in order.
//!
//! A store has two backings behind one API: a plain in-memory entry
//! vector per process (what the runtime fills during execution), or a
//! mapped on-disk [`SegmentedLog`] opened from a `--log-dir` directory —
//! the only persisted form of a log. On the segmented backing,
//! structural queries are answered from footer metadata alone, and a
//! process's entries are decoded from the mapped bytes only when first
//! touched.

use crate::entry::LogEntry;
use crate::index::IntervalIndex;
use crate::segment::{RefreshStats, SegError, SegmentFormat, SegmentedLog, SinkReport, KIND_NAMES};
use ppd_analysis::EBlockId;
use ppd_lang::ProcId;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// The log of one process.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProcessLog {
    /// Entries in chronological order.
    pub entries: Vec<LogEntry>,
}

impl ProcessLog {
    /// Total byte size of the log.
    pub fn size_bytes(&self) -> usize {
        self.entries.iter().map(LogEntry::size_bytes).sum()
    }
}

/// A log interval `I_i` (§5.1): one dynamic e-block execution, from its
/// prelog to its postlog (or to the halt, if the postlog was never
/// written).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalRef {
    /// The owning process.
    pub proc: ProcId,
    /// The e-block executed.
    pub eblock: EBlockId,
    /// The per-process instance number.
    pub instance: u64,
    /// Index of the prelog entry in the process log.
    pub prelog_pos: usize,
    /// Index of the matching postlog, or `None` if execution halted
    /// inside the interval.
    pub postlog_pos: Option<usize>,
}

/// Where a store's bytes live.
#[derive(Debug)]
enum Repr {
    /// Plain per-process entry vectors (the runtime's write path).
    Mem(Vec<ProcessLog>),
    /// A mapped segment directory; entries decode lazily per process.
    Seg(Arc<SegmentedLog>),
}

/// All logs of one execution.
#[derive(Debug)]
pub struct LogStore {
    repr: Repr,
    /// The interval index, built lazily on first structural query and
    /// invalidated by [`LogStore::push`]. Never persisted: it is a pure
    /// function of the entries.
    index: OnceLock<Arc<IntervalIndex>>,
}

impl Default for LogStore {
    fn default() -> LogStore {
        LogStore::new(0)
    }
}

impl Clone for LogStore {
    fn clone(&self) -> LogStore {
        // Share the already-built index if there is one; both copies are
        // views over identical entries until one of them pushes.
        let index = OnceLock::new();
        if let Some(i) = self.index.get() {
            let _ = index.set(Arc::clone(i));
        }
        let repr = match &self.repr {
            Repr::Mem(logs) => Repr::Mem(logs.clone()),
            Repr::Seg(seg) => Repr::Seg(Arc::clone(seg)),
        };
        LogStore { repr, index }
    }
}

impl LogStore {
    /// A store for `processes` processes.
    pub fn new(processes: usize) -> LogStore {
        LogStore { repr: Repr::Mem(vec![ProcessLog::default(); processes]), index: OnceLock::new() }
    }

    /// Opens a store over a segmented log directory: segments are
    /// mapped and footers decoded, but **no entry payload is touched**
    /// until a query needs it.
    ///
    /// # Errors
    ///
    /// Returns a [`SegError`] on I/O failure, a bad manifest, or
    /// non-tail corruption (an unsealed tail segment is dropped with a
    /// warning instead — see [`LogStore::recovery_warnings`]).
    pub fn open_dir(dir: &Path) -> Result<LogStore, SegError> {
        let seg = SegmentedLog::open(dir)?;
        Ok(LogStore { repr: Repr::Seg(Arc::new(seg)), index: OnceLock::new() })
    }

    /// Packs this store's entries into `dir` as a segmented log
    /// (`segment_bytes` = payload capacity per segment; 0 for the
    /// default).
    ///
    /// # Errors
    ///
    /// Returns [`SegError::Io`] if the directory or a segment cannot
    /// be written.
    pub fn write_dir(&self, dir: &Path, segment_bytes: usize) -> Result<SinkReport, SegError> {
        crate::segment::write_store(self, dir, segment_bytes)
    }

    /// [`write_dir`](Self::write_dir) with an explicit payload format
    /// (`ppd log pack --compress` writes
    /// [`SegmentFormat::V2Compressed`]).
    ///
    /// # Errors
    ///
    /// As [`write_dir`](Self::write_dir).
    pub fn write_dir_with(
        &self,
        dir: &Path,
        segment_bytes: usize,
        format: SegmentFormat,
    ) -> Result<SinkReport, SegError> {
        crate::segment::write_store_with(self, dir, segment_bytes, format)
    }

    /// Re-opens a segment-backed store's directory in place — cheap when
    /// a still-running program has appended since the last open: sealed
    /// segments are reused by `(proc, seq)`, a previously recovered live
    /// tail resumes scanning from its high-water mark, and a cached
    /// interval index is extended with only the new events. A no-op for
    /// in-memory stores (returns `None`).
    ///
    /// # Errors
    ///
    /// As [`open_dir`](Self::open_dir).
    pub fn refresh(&mut self) -> Result<Option<RefreshStats>, SegError> {
        let Repr::Seg(seg) = &self.repr else { return Ok(None) };
        let fresh = seg.refresh()?;
        let stats = fresh.refresh_stats().copied();
        self.repr = Repr::Seg(Arc::new(fresh));
        self.index.take();
        Ok(stats)
    }

    /// The segmented backing, if this store was opened from a log
    /// directory.
    pub fn segmented(&self) -> Option<&Arc<SegmentedLog>> {
        match &self.repr {
            Repr::Seg(seg) => Some(seg),
            Repr::Mem(_) => None,
        }
    }

    /// Whether this store reads from a mapped segment directory.
    pub fn is_segmented(&self) -> bool {
        matches!(self.repr, Repr::Seg(_))
    }

    /// Recovery warnings from opening the log directory (empty for
    /// in-memory stores).
    pub fn recovery_warnings(&self) -> &[String] {
        match &self.repr {
            Repr::Seg(seg) => seg.warnings(),
            Repr::Mem(_) => &[],
        }
    }

    /// The per-segment access heatmap (empty for in-memory stores):
    /// what this session has decoded from each sealed segment. See
    /// [`SegmentedLog::access_heatmap`].
    pub fn access_heatmap(&self) -> Vec<crate::segment::HeatRecord> {
        match &self.repr {
            Repr::Seg(seg) => seg.access_heatmap(),
            Repr::Mem(_) => Vec::new(),
        }
    }

    /// Decodes every process eagerly, concurrently across `jobs`
    /// threads. A no-op for in-memory stores.
    pub fn preload(&self, jobs: usize) {
        if let Repr::Seg(seg) = &self.repr {
            seg.preload(jobs);
        }
    }

    /// The in-memory entry vectors, converting a segment-backed store
    /// by materializing every process first.
    fn logs_mut(&mut self) -> &mut Vec<ProcessLog> {
        if let Repr::Seg(seg) = &self.repr {
            let logs = (0..seg.process_count())
                .map(|p| seg.process_log(ProcId(p as u32)).clone())
                .collect();
            self.repr = Repr::Mem(logs);
        }
        match &mut self.repr {
            Repr::Mem(logs) => logs,
            Repr::Seg(_) => unreachable!("just materialized"),
        }
    }

    /// Appends an entry to a process's log, invalidating the cached
    /// interval index. On a segment-backed store this materializes
    /// every process into memory first (the write path is for live
    /// executions, which always start from [`LogStore::new`]).
    pub fn push(&mut self, proc: ProcId, entry: LogEntry) {
        self.index.take();
        self.logs_mut()[proc.index()].entries.push(entry);
    }

    /// The interval index over the current entries (§5.1). Built once
    /// and cached; every structural query
    /// ([`intervals`](Self::intervals), [`open_intervals`](Self::open_intervals),
    /// [`find_interval`](Self::find_interval), nesting links) is a view
    /// over it. In-memory stores build it by a single entry scan per
    /// process; segment-backed stores load it from footer digests
    /// without decoding any entry.
    pub fn index(&self) -> Arc<IntervalIndex> {
        Arc::clone(self.index.get_or_init(|| match &self.repr {
            Repr::Mem(_) => Arc::new(IntervalIndex::build(self)),
            Repr::Seg(seg) => seg.index(),
        }))
    }

    /// Like [`index`](Self::index), but a cold in-memory build is
    /// sharded by process across `jobs` worker threads. The cached
    /// result (and any already-cached one) is identical to the
    /// sequential build. Segment-backed stores load from footers
    /// either way.
    pub fn index_par(&self, jobs: usize) -> Arc<IntervalIndex> {
        Arc::clone(self.index.get_or_init(|| match &self.repr {
            Repr::Mem(_) => Arc::new(IntervalIndex::build_par(self, jobs)),
            Repr::Seg(seg) => seg.index(),
        }))
    }

    /// The log of one process (decoded from mapped segments on first
    /// touch, for segment-backed stores).
    ///
    /// # Panics
    ///
    /// Panics if a segment-backed process fails to decode; callers that
    /// may be first to touch `proc` go through [`try_log`](Self::try_log).
    pub fn log(&self, proc: ProcId) -> &ProcessLog {
        match &self.repr {
            Repr::Mem(logs) => &logs[proc.index()],
            Repr::Seg(seg) => seg.process_log(proc),
        }
    }

    /// The log of one process, or the decode failure of a damaged
    /// segment (open checks only footers, so payload damage first shows
    /// here). Once it has succeeded, [`log`](Self::log) cannot panic for
    /// `proc`.
    ///
    /// # Errors
    ///
    /// Returns the [`SegError`] naming the damaged segment file.
    pub fn try_log(&self, proc: ProcId) -> Result<&ProcessLog, &SegError> {
        match &self.repr {
            Repr::Mem(logs) => Ok(&logs[proc.index()]),
            Repr::Seg(seg) => seg.try_process_log(proc),
        }
    }

    /// Number of process logs.
    pub fn process_count(&self) -> usize {
        match &self.repr {
            Repr::Mem(logs) => logs.len(),
            Repr::Seg(seg) => seg.process_count(),
        }
    }

    /// Total log volume in bytes across all processes (experiment E2).
    /// Answered from footers alone on the segmented backing.
    pub fn total_bytes(&self) -> usize {
        match &self.repr {
            Repr::Mem(logs) => logs.iter().map(ProcessLog::size_bytes).sum(),
            Repr::Seg(seg) => seg.total_logical_bytes() as usize,
        }
    }

    /// Total entry count. Answered from footers alone on the segmented
    /// backing.
    pub fn total_entries(&self) -> usize {
        match &self.repr {
            Repr::Mem(logs) => logs.iter().map(|l| l.entries.len()).sum(),
            Repr::Seg(seg) => seg.total_entries() as usize,
        }
    }

    /// Entry counts by kind, for the statistics tables, in the fixed
    /// wire-tag order of [`KIND_NAMES`] with zero-count kinds omitted —
    /// identical across backings (footers answer it without a decode).
    pub fn counts_by_kind(&self) -> Vec<(&'static str, usize)> {
        let counts: [u64; 6] = match &self.repr {
            Repr::Mem(logs) => {
                let mut counts = [0u64; 6];
                for log in logs {
                    for e in &log.entries {
                        let slot = KIND_NAMES
                            .iter()
                            .position(|&k| k == e.kind_name())
                            .expect("every entry kind is named");
                        counts[slot] += 1;
                    }
                }
                counts
            }
            Repr::Seg(seg) => seg.counts_by_kind(),
        };
        KIND_NAMES
            .iter()
            .zip(counts)
            .filter(|&(_, c)| c > 0)
            .map(|(&name, c)| (name, c as usize))
            .collect()
    }

    /// All log intervals of `proc`, in prelog order (outer intervals
    /// appear before the intervals nested inside them — Figure 5.1/5.2).
    ///
    /// A view over the cached [`IntervalIndex`]: the prelog/postlog
    /// pairing is done once, by single-pass stack matching, instead of a
    /// forward postlog search per prelog.
    pub fn intervals(&self, proc: ProcId) -> Vec<IntervalRef> {
        self.index().intervals(proc)
    }

    /// The intervals of `proc` still open when execution stopped —
    /// innermost last. The Controller starts debugging from the last
    /// prelog whose postlog has not yet been generated (§5.3).
    pub fn open_intervals(&self, proc: ProcId) -> Vec<IntervalRef> {
        self.index().open_intervals(proc)
    }

    /// Finds a specific interval — an O(1) table lookup.
    pub fn find_interval(
        &self,
        proc: ProcId,
        eblock: EBlockId,
        instance: u64,
    ) -> Option<IntervalRef> {
        self.index().find(proc, eblock, instance)
    }

    /// The interval (of any process) whose span covers logical time `t`
    /// and whose e-block is `eblock` — how the Controller locates "the
    /// log interval of the second process" for cross-process dependences
    /// (§5.6).
    pub fn interval_covering(&self, proc: ProcId, eblock: EBlockId, t: u64) -> Option<IntervalRef> {
        self.index().interval_covering(proc, eblock, t)
    }

    /// A cursor positioned immediately after `interval`'s prelog, for
    /// replay to consume.
    pub fn cursor_at(&self, interval: IntervalRef) -> LogCursor<'_> {
        LogCursor { entries: &self.log(interval.proc).entries, pos: interval.prelog_pos + 1 }
    }

    /// The prelog entry of an interval.
    pub fn prelog_of(&self, interval: IntervalRef) -> &LogEntry {
        &self.log(interval.proc).entries[interval.prelog_pos]
    }

    /// The postlog entry of an interval, if complete.
    pub fn postlog_of(&self, interval: IntervalRef) -> Option<&LogEntry> {
        interval.postlog_pos.map(|p| &self.log(interval.proc).entries[p])
    }
}

/// A forward-only reader over one process's log, used by e-block replay
/// to consume shared snapshots, inputs, receives and nested postlogs in
/// the order they were recorded.
#[derive(Debug, Clone)]
pub struct LogCursor<'a> {
    entries: &'a [LogEntry],
    pos: usize,
}

impl<'a> LogCursor<'a> {
    /// The next entry without consuming it.
    pub fn peek(&self) -> Option<&'a LogEntry> {
        self.entries.get(self.pos)
    }

    /// Consumes and returns the next entry.
    pub fn next_entry(&mut self) -> Option<&'a LogEntry> {
        let e = self.entries.get(self.pos)?;
        self.pos += 1;
        Some(e)
    }

    /// Consumes entries until (and including) the next entry matching
    /// `pred`; returns it, or `None` if the log ends first.
    pub fn seek(&mut self, pred: impl Fn(&LogEntry) -> bool) -> Option<&'a LogEntry> {
        while let Some(e) = self.entries.get(self.pos) {
            self.pos += 1;
            if pred(e) {
                return Some(e);
            }
        }
        None
    }

    /// Skips a whole nested interval: assuming the next relevant entries
    /// contain `Prelog(eblock=b)` for some instance, consumes through its
    /// matching postlog and returns that postlog (§5.2's substitution).
    /// Handles arbitrarily deep nesting inside.
    pub fn skip_nested_interval(&mut self, eblock: EBlockId) -> Option<&'a LogEntry> {
        // Find the nested interval's prelog.
        let instance = loop {
            let e = self.entries.get(self.pos)?;
            self.pos += 1;
            if let LogEntry::Prelog { eblock: b, instance, .. } = e {
                if *b == eblock {
                    break *instance;
                }
            }
        };
        // Consume to the matching postlog (same block id and instance).
        self.seek(|e| {
            matches!(e, LogEntry::Postlog { eblock: b, instance: i, .. }
                     if *b == eblock && *i == instance)
        })
    }

    /// Current position (for diagnostics).
    pub fn position(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppd_lang::{Value, VarId};

    fn prelog(b: u32, i: u64, t: u64) -> LogEntry {
        LogEntry::Prelog { eblock: EBlockId(b), instance: i, values: vec![], time: t }
    }

    fn postlog(b: u32, i: u64, t: u64) -> LogEntry {
        LogEntry::Postlog {
            eblock: EBlockId(b),
            instance: i,
            values: vec![(VarId(0), Value::Int(t as i64))],
            ret: None,
            time: t,
        }
    }

    /// The nesting of Figure 5.2: SubJ's interval I_j contains SubK's
    /// I_{j+1}.
    fn fig52_store() -> LogStore {
        let mut s = LogStore::new(1);
        let p = ProcId(0);
        s.push(p, prelog(0, 0, 1)); // SubJ prelog at t1
        s.push(p, prelog(1, 0, 2)); // SubK prelog at t2 (nested)
        s.push(p, postlog(1, 0, 3)); // SubK postlog at t3
        s.push(p, postlog(0, 0, 4)); // SubJ postlog at t4
        s
    }

    #[test]
    fn intervals_pair_prelogs_and_postlogs() {
        let s = fig52_store();
        let ivs = s.intervals(ProcId(0));
        assert_eq!(ivs.len(), 2);
        assert_eq!(ivs[0].eblock, EBlockId(0));
        assert_eq!(ivs[0].prelog_pos, 0);
        assert_eq!(ivs[0].postlog_pos, Some(3));
        assert_eq!(ivs[1].eblock, EBlockId(1));
        assert_eq!(ivs[1].postlog_pos, Some(2));
    }

    #[test]
    fn open_intervals_at_halt() {
        let mut s = LogStore::new(1);
        let p = ProcId(0);
        s.push(p, prelog(0, 0, 1));
        s.push(p, prelog(1, 0, 2));
        // halt: neither postlog written
        let open = s.open_intervals(p);
        assert_eq!(open.len(), 2);
        // Innermost (last prelog without postlog) is the SubK interval.
        assert_eq!(open.last().unwrap().eblock, EBlockId(1));
    }

    #[test]
    fn recursive_instances_disambiguated() {
        let mut s = LogStore::new(1);
        let p = ProcId(0);
        s.push(p, prelog(0, 0, 1));
        s.push(p, prelog(0, 1, 2)); // recursive nested call, same block
        s.push(p, postlog(0, 1, 3));
        s.push(p, postlog(0, 0, 4));
        let outer = s.find_interval(p, EBlockId(0), 0).unwrap();
        let inner = s.find_interval(p, EBlockId(0), 1).unwrap();
        assert_eq!(outer.postlog_pos, Some(3));
        assert_eq!(inner.postlog_pos, Some(2));
    }

    #[test]
    fn cursor_skips_nested_interval() {
        let s = fig52_store();
        let outer = s.find_interval(ProcId(0), EBlockId(0), 0).unwrap();
        let mut cur = s.cursor_at(outer);
        let post = cur.skip_nested_interval(EBlockId(1)).unwrap();
        assert!(matches!(post, LogEntry::Postlog { eblock: EBlockId(1), .. }));
        // Next entry is SubJ's own postlog.
        assert!(matches!(cur.next_entry(), Some(LogEntry::Postlog { eblock: EBlockId(0), .. })));
    }

    #[test]
    fn cursor_skips_deeply_nested_intervals() {
        let mut s = LogStore::new(1);
        let p = ProcId(0);
        s.push(p, prelog(0, 0, 1));
        s.push(p, prelog(1, 0, 2));
        s.push(p, prelog(2, 0, 3)); // grandchild
        s.push(p, postlog(2, 0, 4));
        s.push(p, postlog(1, 0, 5));
        s.push(p, postlog(0, 0, 6));
        let outer = s.find_interval(p, EBlockId(0), 0).unwrap();
        let mut cur = s.cursor_at(outer);
        let post = cur.skip_nested_interval(EBlockId(1)).unwrap();
        assert_eq!(post.time(), 5);
    }

    #[test]
    fn interval_covering_time() {
        let s = fig52_store();
        let iv = s.interval_covering(ProcId(0), EBlockId(0), 2).unwrap();
        assert_eq!(iv.eblock, EBlockId(0));
        assert!(s.interval_covering(ProcId(0), EBlockId(1), 9).is_none());
    }

    #[test]
    fn counts_by_kind() {
        let s = fig52_store();
        let counts = s.counts_by_kind();
        assert!(counts.contains(&("prelog", 2)));
        assert!(counts.contains(&("postlog", 2)));
        // Fixed wire-tag order, zero-count kinds omitted.
        assert_eq!(counts, vec![("prelog", 2), ("postlog", 2)]);
    }

    #[test]
    fn dir_round_trip_preserves_entries_and_index() {
        let dir = std::env::temp_dir().join("ppd-store-dir-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let s = fig52_store();
        let report = s.write_dir(&dir, 0).unwrap();
        assert_eq!(report.entries, 4);
        let back = LogStore::open_dir(&dir).unwrap();
        assert!(back.is_segmented());
        assert_eq!(back.total_entries(), 4);
        assert_eq!(back.total_bytes(), s.total_bytes());
        assert_eq!(back.counts_by_kind(), s.counts_by_kind());
        assert_eq!(back.intervals(ProcId(0)), s.intervals(ProcId(0)));
        assert_eq!(back.log(ProcId(0)).entries, s.log(ProcId(0)).entries);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn push_on_segment_backed_store_materializes() {
        let dir = std::env::temp_dir().join("ppd-store-dir-push");
        let _ = std::fs::remove_dir_all(&dir);
        fig52_store().write_dir(&dir, 0).unwrap();
        let mut back = LogStore::open_dir(&dir).unwrap();
        back.push(ProcId(0), prelog(7, 0, 9));
        assert!(!back.is_segmented());
        assert_eq!(back.total_entries(), 5);
        assert_eq!(back.open_intervals(ProcId(0)).last().unwrap().eblock, EBlockId(7));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
