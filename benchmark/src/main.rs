//! The repository benchmark: four workloads through the public APIs of
//! the Varuna crates, each checked for correctness, reported end to end
//! (`--trace 0`) or per layer (`--trace 1`).
//!
//! ```console
//! $ cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!       --workload spot_replay --seed 60 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Every metric, with its
//! unit, sample count and the run's provenance, is also written to
//! `benchmark/results/`. See README.md for the workloads and the
//! layer → metric → workload table.

mod common;
mod emulate;
mod fleet;
mod planner_layers;
mod spot;
mod train;

use std::path::{Path, PathBuf};

use common::{median, peak_rss_mb, sum_of_lap_medians, Report, SetupSampler, Tracer};

/// Set-up samples taken before the first pass; one more follows each pass.
const SETUP_SAMPLES_BEFORE: usize = 3;

/// Metrics printed with `--trace 0`: they exist on every workload.
const END_TO_END: [&str; 3] = ["setup_s", "run_s", "peak_rss_mb"];

/// The end-to-end outcomes that head every run's table, whether or not
/// the workload has them; the workload-specific ones also ride the
/// traced run's per-layer line.
const OUTCOMES: [&str; 12] = [
    "setup_s",
    "run_s",
    "peak_rss_mb",
    "fail_frac",
    "decision_ms_p50",
    "decision_ms_p90",
    "recover_ms_p50",
    "train_tokens_per_s",
    "sim_ex_per_s",
    "sim_downtime_frac",
    "sim_usd_per_mtoken",
    "sim_minibatch_s",
];

/// Metrics printed with `--trace 1`, with their units. A metric of a
/// layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 62] = [
    ("calibrate.busy_ms", "ms"),
    ("cluster.trace_gen_ms", "ms"),
    ("partition.calls", "count"),
    ("partition.busy_ms", "ms"),
    ("estimator.calls", "count"),
    ("estimator.busy_ms", "ms"),
    ("estimator.us_per_call_p50", "us"),
    ("planner.calls", "count"),
    ("planner.busy_ms", "ms"),
    ("planner.candidates", "count"),
    ("planner.feasible_frac", "frac"),
    ("plan_cache.hit_frac", "frac"),
    ("plan_cache.cross_job_repeat_frac", "frac"),
    ("manager.decisions", "count"),
    ("manager.self_ms", "ms"),
    ("wal.records", "count"),
    ("wal.bytes", "B"),
    ("wal.decode_ms", "ms"),
    ("wal.replayed_records", "count"),
    ("wal.torn_detected", "count"),
    ("fleet.run_ms.spot_only", "ms"),
    ("fleet.run_ms.on_demand_only", "ms"),
    ("fleet.run_ms.spot_with_fallback", "ms"),
    ("fleet.recover_ms", "ms"),
    ("fleet.rechecked_events", "count"),
    ("exec.build_ms", "ms"),
    ("exec.events", "count"),
    ("exec.busy_ms", "ms"),
    ("exec.events_per_s", "ev/s"),
    ("sched.plan_schedule_ms", "ms"),
    ("obs.bus.events", "count"),
    ("obs.profile.busy_ms", "ms"),
    ("obs.profile.events_per_s", "ev/s"),
    ("obs.stream.busy_ms", "ms"),
    ("obs.stream.peak_resident", "count"),
    ("obs.chrome_trace.export_ms", "ms"),
    ("obs.chrome_trace.import_ms", "ms"),
    ("obs.chrome_trace.bytes", "B"),
    ("train.step_ms.1x1", "ms"),
    ("train.step_ms.2x1", "ms"),
    ("train.step_ms.1x2", "ms"),
    ("train.fwd_ms", "ms"),
    ("train.bwd_ms", "ms"),
    ("train.opt_ms", "ms"),
    ("train.exchange_bytes", "B"),
    ("train.idle_frac", "frac"),
    ("net.ring.calls", "count"),
    ("net.ring.bytes", "B"),
    ("net.ring.busy_ms", "ms"),
    // Workload-specific end-to-end outcomes: measured on the workloads
    // named in README.md, 0 elsewhere, so they ride the per-layer run.
    ("decision_ms_p50", "ms"),
    ("decision_ms_p90", "ms"),
    ("recover_ms_p50", "ms"),
    ("train_tokens_per_s", "tok/s"),
    ("sim_ex_per_s", "ex/s"),
    ("sim_downtime_frac", "frac"),
    ("sim_usd_per_mtoken", "USD/Mtok"),
    ("sim_minibatch_s", "s"),
    ("fail_frac", "frac"),
    // Wall time of a pass, median: run_s is its CPU time.
    ("run_wall_s", "s"),
    // The traced run's own cost: its run_s (compare with the untraced
    // run_s for the tracing overhead) and the time spent re-calling
    // layers, which runs after the timed passes.
    ("trace.run_s", "s"),
    ("trace.recall_ms", "ms"),
    ("trace.spans", "count"),
];

const WORKLOADS: [&str; 4] = [
    "spot_replay",
    "fleet_market",
    "emulate_profile",
    "pipeline_train",
];

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    /// Internal: time set-ups only, and print their medians (see
    /// `SetupSampler`).
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 25.0,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// The commit the benchmark was built from, read from `.git` without
/// spawning git; `unknown` outside a repository.
fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let bench_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let seed = args.seed.unwrap_or(match args.workload.as_str() {
        "spot_replay" => spot::DEFAULT_SEED,
        "fleet_market" => fleet::DEFAULT_SEED,
        "emulate_profile" => emulate::DEFAULT_SEED,
        _ => train::DEFAULT_SEED,
    });
    let mut tracer = args.trace.then(Tracer::new);
    let mut rep = Report::default();

    if args.setup_only {
        let medians = match args.workload.as_str() {
            "spot_replay" => common::time_setups(|| spot::setup(seed).1),
            "fleet_market" => common::time_setups(|| fleet::setup(seed).1),
            "emulate_profile" => common::time_setups(|| emulate::setup(seed).1),
            _ => common::time_setups(|| train::setup(seed).1),
        };
        println!("{:?} {:?} {:?}", medians[0], medians[1], medians[2]);
        return;
    }

    let mut sampler = SetupSampler::new(&args.workload, seed);
    for _ in 0..SETUP_SAMPLES_BEFORE {
        sampler.sample();
    }
    let tr = tracer.as_mut();
    let s = &mut sampler;
    let passes = match args.workload.as_str() {
        "spot_replay" => spot::measure(&spot::setup(seed).0, seed, args.seconds, tr, &mut rep, s),
        "fleet_market" => {
            fleet::measure(&fleet::setup(seed).0, seed, args.seconds, tr, &mut rep, s)
        }
        "emulate_profile" => {
            emulate::measure(&emulate::setup(seed).0, seed, args.seconds, tr, &mut rep, s)
        }
        _ => train::measure(&mut train::setup(seed).0, args.seconds, tr, &mut rep, s),
    };

    let pass_s: Vec<f64> = passes
        .iter()
        .map(|laps| laps.iter().map(|l| l.wall_s).sum())
        .collect();
    let pass_cpu_s: Vec<f64> = passes
        .iter()
        .map(|laps| laps.iter().map(|l| l.cpu_s).sum())
        .collect();
    let run_s = sum_of_lap_medians(&passes);
    rep.check(run_s.is_some(), || {
        "the passes split into different numbers of laps".to_string()
    });
    let run_s = run_s.unwrap_or_else(|| median(&pass_cpu_s));
    let (setup_s, samples) = sampler.median_of(0);
    rep.set("setup_s", setup_s, "s", samples);
    rep.set("run_s", run_s, "s", pass_s.len());
    rep.set("run_wall_s", median(&pass_s), "s", pass_s.len());
    rep.set("peak_rss_mb", peak_rss_mb(), "MB", 1);
    let (calibrate_ms, samples) = sampler.median_of(1);
    rep.set("calibrate.busy_ms", calibrate_ms, "ms", samples);
    let (trace_gen_ms, samples) = sampler.median_of(2);
    rep.set("cluster.trace_gen_ms", trace_gen_ms, "ms", samples);
    rep.set(
        "fail_frac",
        rep.failed as f64 / rep.attempted.max(1) as f64,
        "frac",
        rep.attempted as usize,
    );
    if let Some(tr) = &tracer {
        rep.set("trace.run_s", run_s, "s", pass_s.len());
        rep.set("trace.spans", tr.count_all() as f64, "count", 1);
    }

    // Human-readable table: every metric this run measured.
    println!(
        "workload {} seed {} trace {} passes {} attempted {} failed {}",
        args.workload,
        seed,
        u8::from(args.trace),
        pass_s.len(),
        rep.attempted,
        rep.failed
    );
    let row = |name: &str, m: &common::Metric| {
        println!(
            "  {name:<36} {:>16.6} {:<8} n={}",
            m.value, m.unit, m.samples
        )
    };
    println!(" end to end");
    for name in OUTCOMES {
        match rep.metrics.get(name) {
            Some(m) => row(name, m),
            None => println!("  {name:<36} {:>16} (not measured by this workload)", "n/a"),
        }
    }
    println!(" per layer and provenance");
    for (name, m) in rep
        .metrics
        .iter()
        .filter(|(n, _)| !OUTCOMES.contains(&n.as_str()))
    {
        row(name, m);
    }
    for f in &rep.failures {
        println!("  FAILED CHECK: {f}");
    }

    // Provenance and every metric go to a result file of the run.
    let results = bench_dir.join("results");
    let revision = git_revision(bench_dir.parent().unwrap_or(&bench_dir));
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut body = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"seconds\":{},\"trace\":{},\"git_revision\":\"{revision}\",\
         \"build_profile\":\"{profile}\",\"nproc\":{nproc},\"passes\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        args.workload,
        json_num(args.seconds),
        u8::from(args.trace),
        pass_s.len(),
        rep.attempted,
        rep.failed,
    );
    let entries: Vec<String> = rep
        .metrics
        .iter()
        .map(|(k, m)| {
            format!(
                "\"{k}\":{{\"value\":{},\"unit\":\"{}\",\"samples\":{}}}",
                json_num(m.value),
                m.unit,
                m.samples
            )
        })
        .collect();
    body.push_str(&entries.join(","));
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| json_num(*x))
            .collect::<Vec<_>>()
            .join(",")
    };
    body.push_str(&format!(
        "}},\"passes_s\":[{}],\"passes_cpu_s\":[{}]}}\n",
        list(&pass_s),
        list(&pass_cpu_s)
    ));
    let stem = format!("{}-seed{seed}-trace{}", args.workload, u8::from(args.trace));
    let written = std::fs::create_dir_all(&results)
        .and_then(|()| std::fs::write(results.join(format!("{stem}.json")), body))
        .and_then(|()| match &tracer {
            Some(tr) => tr.write(&results.join(format!("{stem}-spans.jsonl"))),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("error: writing {}: {e}", results.display());
        std::process::exit(1);
    }

    // The contract line: end-to-end metrics untraced, per-layer traced.
    let names: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END
            .iter()
            .map(|n| (*n, rep.metrics[*n].unit))
            .collect()
    };
    let metrics: Vec<String> = names
        .iter()
        .map(|(n, unit)| {
            let value = rep.metrics.get(*n).map_or(0.0, |m| m.value);
            format!(
                "\"{n}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(value)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        rep.failed == 0,
        rep.attempted.max(1),
        rep.failed,
        metrics.join(",")
    );
}
