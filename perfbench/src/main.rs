//! `perfbench`: the PPD benchmark, one process per run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lint|record|debug|races --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Prints human-readable lines, then, as
//! the last line, one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones,
//! with `--trace 1` the per-layer ones (see README.md for both lists
//! and for why each estimator was chosen).

mod layers;
mod probe;
mod programs;
mod stats;
mod trace;
mod workloads;

use layers::Metric;
use probe::Probe;
use stats::{by_kind, fastest, median, per_kind_fastest, quantile, tail};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Ops, Tally, Workload};

const WORKLOADS: [&str; 4] = ["lint", "record", "debug", "races"];

/// Tests that read process-wide state (span gate, store counters) hold
/// this lock.
#[cfg(test)]
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// How an untraced run shares its `--seconds` between its activities:
/// the timed operations, the slowdown pairs, the first answers and
/// repeated set-ups. They are interleaved over the whole run, so that
/// each sees the same mix of the host's speed modes.
const SHARES: [f64; 4] = [0.5, 0.2, 0.15, 0.15];

/// The shares on `debug`, whose set-up records a large run and whose
/// rounds take seconds: two thirds of the run go to rounds, so that
/// every place in the query plan is timed about five times, and a
/// sixth to set-ups, which still repeat about a dozen times. Its first
/// answers are quick, so a sixteenth gives hundreds.
const DEBUG_SHARES: [f64; 4] = [0.65, 0.12, 0.06, 0.17];

/// Each activity runs at least this often, however short the run.
const MIN_COUNTS: [usize; 4] = [3, 3, 3, 5];

/// Traced rounds at most, each paired with an untraced round. Tracing
/// records every span the crates open, so more rounds would only grow
/// the trace.
const TRACED_ROUNDS: u64 = 8;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num =
            |v: &str| v.parse::<u64>().map_err(|_| format!("{flag}: `{v}` is not a whole number"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => trace = Some(num(&value)? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {})", WORKLOADS.join(", ")));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds as f64,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    let out_dir = root.join(".perfbench");
    let scratch = out_dir.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args, &root, &scratch, &out_dir);
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Everything an untraced run samples.
#[derive(Default)]
struct Samples {
    ops: Ops,
    round_means: Vec<f64>,
    setup_s: Vec<f64>,
    host_ref: Vec<f64>,
}

/// One round of the workload, preceded by the host reference kernel.
fn op_round(w: &mut dyn Workload, round: u64, tally: &mut Tally, s: &mut Samples) {
    s.host_ref.push(stats::ref_kernel());
    let mut ops = Vec::new();
    w.round(round, tally, &mut ops);
    s.round_means.push(ops.iter().map(|o| o.1).sum::<f64>() / ops.len() as f64);
    s.ops.extend(ops);
}

fn run(args: &Args, root: &Path, scratch: &Path, out_dir: &Path) -> Result<String, String> {
    let mut s = Samples::default();
    let (mut w, secs) = workloads::setup(&args.workload, args.seed, root, &scratch.join("store"))?;
    s.setup_s.push(secs);
    let mut tally = Tally::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);

    if args.trace {
        let metrics = traced(args, w.as_mut(), scratch, out_dir, &mut tally, &mut s, deadline)?;
        return Ok(finish(w.as_ref(), &tally, &s, &metrics));
    }

    // Interleave the activities: always run the one furthest behind its
    // share of the time spent so far.
    let mut probe = Probe::new(w.targets(), scratch, &mut tally);
    let shares = if args.workload == "debug" { DEBUG_SHARES } else { SHARES };
    let mut spent = [0.0f64; 4];
    let mut counts = [0usize; 4];
    let mut round = 0;
    loop {
        // Past the deadline, only activities short of their minimum
        // count still run.
        let late = Instant::now() >= deadline;
        let Some(next) = (0..shares.len())
            .filter(|&a| !late || counts[a] < MIN_COUNTS[a])
            .min_by(|&a, &b| (spent[a] / shares[a]).total_cmp(&(spent[b] / shares[b])))
        else {
            break;
        };
        let start = Instant::now();
        match next {
            0 => {
                op_round(w.as_mut(), round, &mut tally, &mut s);
                round += 1;
            }
            1 => probe.pair_round(w.targets(), &mut tally),
            2 => probe.answer_round(w.targets(), &mut tally),
            _ => {
                let dir = scratch.join("setup-rep");
                let (again, secs) = workloads::setup(&args.workload, args.seed, root, &dir)?;
                drop(again);
                let _ = std::fs::remove_dir_all(&dir);
                s.setup_s.push(secs);
            }
        }
        spent[next] += start.elapsed().as_secs_f64();
        counts[next] += 1;
    }

    let all: Vec<f64> = s.ops.iter().map(|o| o.1).collect();
    println!(
        "op_ms: {} ops in {} rounds; {}",
        all.len(),
        s.round_means.len(),
        spread("round mean", &s.round_means)
    );
    match tail(&all) {
        Some((pct, v)) => println!("op_ms tail: p{pct} = {v:.4} ms over {} samples", all.len()),
        None => println!("op_ms tail: fewer than 11 samples ({})", all.len()),
    }
    let mut named: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (key, v) in by_kind(&s.ops) {
        named.entry(w.kind_name(key)).or_default().extend(v);
    }
    for (name, v) in &named {
        println!(
            "op_ms kind {name:<28} {:>6} ops, fastest {:.4} median {:.4} ms",
            v.len(),
            fastest(v),
            median(v)
        );
    }
    println!("setup_s: {}", spread("set-up", &s.setup_s));
    println!("probe: {} slowdown pair rounds, {} first-answer rounds", counts[1], counts[2]);
    let steps = probe.steps.max(1) as f64;
    let metrics = vec![
        ("setup_s".to_string(), fastest(&s.setup_s), "s"),
        ("op_ms".to_string(), per_kind_fastest(&s.ops), "ms"),
        ("slowdown".to_string(), probe.slowdown(), "ratio"),
        ("log_bytes_per_step".to_string(), probe.log_bytes as f64 / steps, "B/step"),
        ("store_bytes_per_step".to_string(), probe.store_bytes as f64 / steps, "B/step"),
        ("first_answer_ms".to_string(), probe.first_answer_ms(), "ms"),
        ("peak_rss_mb".to_string(), peak_rss_mb()?, "MB"),
    ];
    Ok(finish(w.as_ref(), &tally, &s, &metrics))
}

/// Prints the counts, the host diagnostic and any failures; returns
/// the result line.
fn finish(w: &dyn Workload, tally: &Tally, s: &Samples, metrics: &[Metric]) -> String {
    for (name, value) in w.counts() {
        println!("count {name} = {value}");
    }
    println!(
        "host.ref_ms: median {:.4}, p10 {:.4}, p90 {:.4} over {} samples",
        median(&s.host_ref),
        quantile(&s.host_ref, 0.1),
        quantile(&s.host_ref, 0.9),
        s.host_ref.len()
    );
    for why in &tally.reasons {
        println!("FAILED: {why}");
    }
    report(tally, metrics)
}

/// The traced run: untraced and traced rounds alternate, so the
/// tracing overhead is a paired difference; then the layer profile.
fn traced(
    args: &Args,
    w: &mut dyn Workload,
    scratch: &Path,
    out_dir: &Path,
    tally: &mut Tally,
    s: &mut Samples,
    deadline: Instant,
) -> Result<Vec<Metric>, String> {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    ppd_obs::reset_spans();
    let half = Instant::now() + deadline.saturating_duration_since(Instant::now()) / 2;
    let mut round = 0;
    while round < 2 * TRACED_ROUNDS && (round < 4 || Instant::now() < half) {
        op_round(w, round, tally, s);
        plain.push(*s.round_means.last().expect("a round ran"));
        ppd_obs::enable_spans(true);
        op_round(w, round + 1, tally, s);
        ppd_obs::enable_spans(false);
        traced.push(*s.round_means.last().expect("a round ran"));
        round += 2;
    }
    let overhead: Vec<f64> = traced.iter().zip(&plain).map(|(t, p)| t - p).collect();
    let prof = trace::Profile::take();
    let path = out_dir.join(format!("trace-{}.json", args.workload));
    prof.write_chrome(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
    let ops = prof.ops.max(1) as f64;
    let per_op = |ns: u64| ns as f64 / 1e6 / ops;
    let wall = per_op(prof.op_ns);
    let glue = per_op(*prof.self_ns.get("bench").unwrap_or(&0));
    // The tracing overhead two ways: the paired difference of traced
    // and untraced rounds, which host noise can even make negative, and
    // the spans recorded per operation times the bookkeeping one of the
    // benchmark's spans was measured to cost in place.
    let paired = median(&overhead);
    let (cost_ns, timed_spans) = trace::span_cost_ns();
    let span_over = prof.spans() as f64 * cost_ns / 1e6 / ops;
    println!("traced run: {} ops, chrome trace {}", prof.ops, path.display());
    println!(
        "untraced op_ms {:.4}, traced op_ms {:.4}, paired tracing overhead {paired:.4} ms/op",
        median(&plain),
        median(&traced)
    );
    println!(
        "span tracing overhead {span_over:.4} ms/op: {:.1} spans/op at {cost_ns:.1} ns \
         (bookkeeping measured over {timed_spans} spans)",
        prof.spans() as f64 / ops
    );
    for (layer, ns) in &prof.self_ns {
        let ms = per_op(*ns);
        println!("self {layer:<9} {ms:>10.4} ms/op {:>6.1}%", 100.0 * ms / wall);
    }
    println!("pool workers busy {:.4} ms/op", per_op(prof.worker_ns));
    // The layers' self times partition each operation; what no layer
    // explains is the root span's own time, which must be no more than
    // what tracing added to that operation. Compared per operation, at
    // the median, so that a rare preemption between two calls does not
    // decide it.
    let excess: Vec<f64> =
        prof.per_op.iter().map(|&(glue, spans)| glue as f64 - spans as f64 * cost_ns).collect();
    let typical = median(&excess) / 1e6;
    let explained = typical <= 0.0;
    println!(
        "layers explain {:.4} of {wall:.4} ms/op; unattributed {glue:.4} ms/op; median op's \
         unattributed less its span overhead {typical:.5} ms: {}",
        per_op(prof.layers_ns()),
        if explained { "within the tracing overhead" } else { "ABOVE the tracing overhead" }
    );
    tally.record(explained, || {
        format!("traced run: unattributed time exceeds the tracing overhead by {typical:.5} ms/op")
    });
    let mut metrics = layers::profile(w.targets(), scratch);
    metrics.push(("pool.jobs".into(), workloads::default_jobs() as f64, "count"));
    metrics.push(("pool.tasks".into(), prof.pool_tasks as f64 / ops, "count"));
    metrics.push(("pool.steals".into(), prof.pool_steals as f64 / ops, "count"));
    metrics.push(("host.ref_ms".into(), median(&s.host_ref), "ms"));
    metrics.push(("trace.op_ms".into(), median(&traced), "ms"));
    metrics.push(("trace.overhead_ms".into(), span_over, "ms"));
    metrics.push(("trace.unattributed_ms".into(), glue, "ms"));
    Ok(metrics)
}

fn spread(what: &str, v: &[f64]) -> String {
    format!(
        "{} {what} samples, p10 {:.4} p25 {:.4} median {:.4} p75 {:.4}",
        v.len(),
        quantile(v, 0.1),
        quantile(v, 0.25),
        median(v),
        quantile(v, 0.75)
    )
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The last line: one JSON object the harness reads.
fn report(tally: &Tally, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.1.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && finite,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}
