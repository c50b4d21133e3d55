//! Interval soundness: the abstract interpreter over-approximates every
//! concrete execution. For every corpus program, every example program,
//! and randomized well-typed programs under randomized schedules, each
//! concretely observed fact must lie inside its inferred interval:
//!
//! - a written value inside `value_after` of the written variable (for
//!   arrays and shared variables, the flow-insensitive invariant);
//! - a written array index inside the statement's `write_region`;
//! - a read array index inside the statement's `access_region`;
//! - an evaluated branch condition inside the recorded condition range.
//!
//! This is the property the race-pruning chain leans on: if any
//! concrete index or value could escape its interval, disjoint-region
//! pruning (`detect_races` over `absint_candidates`) could drop a real race.

use ppd::analysis::EBlockStrategy;
use ppd::core::PpdSession;
use ppd::lang::corpus;
use ppd::runtime::{EventKind, ExecConfig, Machine, ReadSource, SchedulerSpec, VecTracer};
use proptest::prelude::*;

/// Executes `source` concretely and checks every trace event against
/// the abstract interpretation. Returns the number of facts checked.
fn check_soundness(name: &str, source: &str, inputs: Vec<Vec<i64>>, seed: Option<u64>) -> usize {
    let session = PpdSession::prepare(source, EBlockStrategy::per_subroutine())
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let rp = session.rp();
    let absint = &session.analyses().absint;
    let mut cfg = ExecConfig { inputs, ..ExecConfig::default() };
    if let Some(seed) = seed {
        cfg.scheduler = SchedulerSpec::Random { seed };
    }
    let mut tracer = VecTracer::default();
    let _result = Machine::new(rp, session.analyses(), None, cfg).run(&mut tracer);
    let mut checked = 0;
    for e in &tracer.events {
        if let Some((cell, value)) = e.write {
            let iv = absint.value_after(rp, e.stmt, cell.var);
            assert!(
                iv.contains(value),
                "{name}: stmt {:?}: value {value} written to `{}` escapes {iv}",
                e.stmt,
                rp.var_name(cell.var)
            );
            checked += 1;
            if let Some(i) = cell.index {
                let region = absint.write_region(cell.var, e.stmt);
                assert!(
                    region.contains(i as i64),
                    "{name}: stmt {:?}: write index {i} of `{}` escapes {region}",
                    e.stmt,
                    rp.var_name(cell.var)
                );
                checked += 1;
            }
        }
        for r in &e.reads {
            if let ReadSource::Cell(cell) = r {
                if let Some(i) = cell.index {
                    let region = absint.access_region(cell.var, e.stmt);
                    assert!(
                        region.contains(i as i64),
                        "{name}: stmt {:?}: read index {i} of `{}` escapes {region}",
                        e.stmt,
                        rp.var_name(cell.var)
                    );
                    checked += 1;
                }
            }
        }
        if let EventKind::Predicate { taken } = e.kind {
            if let Some(iv) = absint.condition(e.stmt) {
                assert!(
                    iv.contains(taken as i64),
                    "{name}: stmt {:?}: condition evaluated {taken} outside {iv}",
                    e.stmt
                );
                checked += 1;
            }
        }
    }
    checked
}

fn inputs_for(name: &str) -> Vec<Vec<i64>> {
    match name {
        "fig41" => vec![vec![5, 3, 2]],
        "flowback_demo" => vec![vec![42, 10]],
        "overdraw.ppd" => vec![vec![50]],
        "bounds.ppd" => vec![vec![8]],
        _ => Vec::new(),
    }
}

#[test]
fn corpus_is_interval_sound() {
    let mut checked = 0;
    for prog in corpus::terminating() {
        checked += check_soundness(prog.name, prog.source, inputs_for(prog.name), None);
        for seed in 0..3 {
            check_soundness(prog.name, prog.source, inputs_for(prog.name), Some(seed));
        }
    }
    assert!(checked > 0, "the corpus produced no checkable facts");
}

#[test]
fn example_programs_are_interval_sound() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("programs");
    let mut indexed_facts = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("ppd") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(&path).unwrap();
        for seed in [None, Some(1), Some(7)] {
            indexed_facts += check_soundness(&name, &source, inputs_for(&name), seed);
        }
    }
    assert!(indexed_facts > 0, "no example program produced checkable facts");
}

#[test]
fn corpus_generators_are_interval_sound() {
    let generated = [
        ("loop_heavy", corpus::gen_loop_heavy(9)),
        ("deep_calls", corpus::gen_deep_calls(5)),
        ("racy_workers", corpus::gen_racy_workers(3, 4)),
        ("prodcons", corpus::gen_prodcons(6)),
        ("bank", corpus::gen_bank(5)),
        ("token_ring", corpus::gen_token_ring(3)),
        ("quicksort", corpus::gen_quicksort(12)),
    ];
    for (name, source) in &generated {
        for seed in [None, Some(2), Some(5)] {
            check_soundness(name, source, Vec::new(), seed);
        }
    }
}

/// A byte-driven well-typed program generator aimed at the interval
/// domain: constants, bounded loops, refined branches, array sweeps
/// with data-dependent offsets, and unknown inputs.
fn gen_interval_program(bytes: &[u8], nprocs: u32) -> String {
    let mut pos = 0usize;
    let mut next = |d: u8| -> i64 {
        let b = if bytes.is_empty() { 0 } else { bytes[pos % bytes.len()] };
        pos += 1;
        (b % d) as i64
    };
    let len = next(6) + 3; // 3..=8 elements
    let mut src = format!("shared int a[{len}];\nshared int g;\n");
    for p in 0..nprocs {
        let lo = next(3);
        let hi = (lo + 1 + next(5)).min(len); // in-bounds sweep
        let c1 = next(9) + 1;
        let c2 = next(30);
        let c3 = next(7) + 1;
        let div = next(4) + 1;
        src.push_str(&format!(
            "process P{p} {{\n\
             \x20   int x = {c1};\n\
             \x20   int u = input();\n\
             \x20   int i;\n\
             \x20   for (i = {lo}; i < {hi}; i = i + 1) {{\n\
             \x20       x = x + {c1};\n\
             \x20       if (x > {c2}) {{ x = x - {c3}; }} else {{ g = g + 1; }}\n\
             \x20       a[i] = x + u / {div};\n\
             \x20       g = g + a[i];\n\
             \x20   }}\n\
             \x20   if (u > 0) {{ x = u; }}\n\
             \x20   print(x);\n\
             }}\n"
        ));
    }
    src
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random interval-shaped programs under random schedules and
    /// random inputs: the abstract interpretation stays sound.
    #[test]
    fn random_programs_are_interval_sound(
        bytes in proptest::collection::vec(any::<u8>(), 4..40),
        nprocs in 1u32..4,
        seed in 0u64..64,
        input in -100i64..100,
    ) {
        let src = gen_interval_program(&bytes, nprocs);
        let inputs = (0..nprocs).map(|_| vec![input]).collect();
        check_soundness("generated", &src, inputs, Some(seed));
    }
}
