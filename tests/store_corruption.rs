//! Hostile-input sweep over the on-disk log store.
//!
//! A small multi-segment store of `programs/bank.ppd` is written in both
//! payload formats; then every single-byte flip (three masks per byte)
//! and every truncation length of every segment file and of the
//! manifest is applied in turn. Each damaged store goes through
//! `Execution::load_dir`, `SegmentedLog::verify`,
//! `SegmentedLog::entries_in_range` and a first `Controller::start()`.
//! Every call must return `Ok` or an `Err`; none may panic.

use ppd::analysis::EBlockStrategy;
use ppd::core::{Controller, Execution, PpdSession, RunConfig};
use ppd::lang::ProcId;
use ppd::log::segment::{segment_file_name, MANIFEST_NAME};
use ppd::log::SegmentFormat;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Payload capacity small enough that bank's process 0 spans several
/// segments.
const SEG_BYTES: usize = 32;

/// XOR masks applied to each byte: the low bit, a high bit, all bits.
const MASKS: [u8; 3] = [0x01, 0x40, 0xFF];

fn bank() -> PpdSession {
    let source = std::fs::read_to_string("programs/bank.ppd").expect("programs/bank.ppd reads");
    PpdSession::prepare(&source, EBlockStrategy::per_subroutine()).expect("bank compiles")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("ppd-store-corruption-{}", std::process::id()))
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The store files a mutation may target: every segment plus the
/// manifest (the `run.json` sidecar is not part of the log store).
fn store_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("store dir lists")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".seg") || n == MANIFEST_NAME)
        .map(|n| {
            let bytes = std::fs::read(dir.join(&n)).expect("store file reads");
            (n, bytes)
        })
        .collect();
    files.sort();
    files
}

/// Drives every layer that reads the store. `Err`s are expected on
/// damaged input; only a panic fails the sweep.
fn exercise(session: &PpdSession, dir: &Path) {
    let Ok(execution) = Execution::load_dir(dir) else { return };
    let seg = execution.logs.segmented().expect("load_dir is segment-backed");
    let _ = seg.verify();
    for p in 0..seg.process_count() {
        let _ = seg.entries_in_range(ProcId(p as u32), 0, seg.total_entries());
        let _ = seg.entries_in_range(ProcId(p as u32), 1, 3);
    }
    let mut controller = Controller::new(session, &execution);
    controller.set_jobs(1);
    let _ = controller.start();
}

#[test]
fn every_flip_and_truncation_is_an_error_or_ok_never_a_panic() {
    let session = bank();
    let execution = session.execute(RunConfig::default());
    let mut failures = Vec::new();
    let mut cases = 0usize;
    for (tag, format) in [("v2raw", SegmentFormat::V2Raw), ("v2z", SegmentFormat::V2Compressed)] {
        let dir = tmp_dir(tag);
        let report = execution.save_dir_with(&dir, SEG_BYTES, format).expect("store writes");
        assert!(report.segments >= 4, "{tag}: want a multi-segment store, got {report:?}");
        // The undamaged store answers.
        let clean = Execution::load_dir(&dir).expect("clean store loads");
        clean.logs.segmented().unwrap().verify().expect("clean store verifies");
        Controller::new(&session, &clean).start().expect("clean store debugs");
        for (name, original) in store_files(&dir) {
            let path = dir.join(&name);
            let mut mutants: Vec<(String, Vec<u8>)> = Vec::new();
            for at in 0..original.len() {
                for mask in MASKS {
                    let mut bytes = original.clone();
                    bytes[at] ^= mask;
                    mutants.push((format!("flip byte {at} ^ {mask:#04x}"), bytes));
                }
            }
            for len in 0..original.len() {
                mutants.push((format!("truncate to {len} bytes"), original[..len].to_vec()));
            }
            for (what, bytes) in mutants {
                std::fs::write(&path, &bytes).expect("mutant writes");
                cases += 1;
                if catch_unwind(AssertUnwindSafe(|| exercise(&session, &dir))).is_err() {
                    failures.push(format!("{tag}/{name}: {what}"));
                }
            }
            std::fs::write(&path, &original).expect("original restores");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(cases > 2000, "sweep too small: {cases} cases");
    let panicked = failures.join("\n");
    assert!(failures.is_empty(), "{} of {cases} mutants panicked:\n{panicked}", failures.len());
}

#[test]
fn version_one_segment_or_manifest_is_unsupported() {
    let session = bank();
    let execution = session.execute(RunConfig::default());
    let dir = tmp_dir("version-one");
    execution.save_dir(&dir, SEG_BYTES).expect("store writes");
    let last = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().starts_with("p0000-"))
        .count() as u64
        - 1;
    // A sealed segment mid-chain and process 0's last segment (which a
    // version-2 reader would otherwise try to recover as a live tail).
    for victim in [segment_file_name(0, 0), segment_file_name(0, last), MANIFEST_NAME.to_string()] {
        let path = dir.join(&victim);
        let original = std::fs::read(&path).unwrap();
        let damaged = if victim == MANIFEST_NAME {
            String::from_utf8(original.clone())
                .unwrap()
                .replace("\"version\":2", "\"version\":1")
                .into_bytes()
        } else {
            let mut bytes = original.clone();
            bytes[4] = 1; // the version byte after the "PPDS" magic
            bytes
        };
        assert_ne!(damaged, original, "{victim}: version byte not found");
        std::fs::write(&path, &damaged).unwrap();
        let err = Execution::load_dir(&dir).expect_err("version 1 must not load").to_string();
        assert!(err.contains("unsupported segment version 1"), "{victim}: {err}");
        if victim != MANIFEST_NAME {
            assert!(err.contains(&victim), "{victim}: error must name the file: {err}");
        }
        std::fs::write(&path, &original).unwrap();
    }
    Execution::load_dir(&dir).expect("restored store loads");
    let _ = std::fs::remove_dir_all(&dir);
}
