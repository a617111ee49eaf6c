//! `emulate_profile`: one GPT-2 20B mini-batch at 49×6 (Figure 7)
//! emulated under seeded jitter, captured by a `VecSink` and folded live
//! by a `StreamSink`, then profiled post hoc and round-tripped through a
//! chrome trace.

use std::time::Instant;

use serde::Value;
use varuna::job::TrainingJob;
use varuna::simulator::{plan_schedule, SimInput};
use varuna::{balanced_partition, estimate_minibatch_time, Calibration, Planner, VarunaCluster};
use varuna_exec::pipeline::SimOptions;
use varuna_models::ModelZoo;
use varuna_obs::{
    chrome_trace_json, events_from_chrome_trace, profile, EventBus, EventKind, StreamConfig,
    StreamSink, StreamingProfiler, VecSink,
};

use crate::common::{laps, median, ms, timed, Lap, Mark, Report, SetupSampler, SetupTimes, Tracer};
use crate::planner_layers;

/// Jitter seed of the Figure 7 mini-batch (`SimOptions::default()`).
pub const DEFAULT_SEED: u64 = 0;

const P: usize = 49;
const D: usize = 6;
const M_TOTAL: usize = 8192;
const MICRO: usize = 4;

pub struct Inputs {
    calib: Calibration,
    job: TrainingJob,
    build_ms: f64,
}

pub fn setup(_seed: u64) -> (Inputs, SetupTimes) {
    let model = ModelZoo::gpt2_20b();
    let cluster = VarunaCluster::commodity_1gpu(P * D);
    let (calib, calibrate_ms) = timed(|| Calibration::profile(&model, &cluster));
    let cfg = Planner::new(&model, &calib)
        .batch_size(M_TOTAL)
        .micro_batch(MICRO)
        .evaluate(P, D)
        .expect("the paper's 49x6 20B configuration is feasible");
    let (job, build_ms) = timed(|| TrainingJob::build(&calib, &cluster, cfg));
    let job = job.expect("49x6 fits the 294-GPU cluster");
    (
        Inputs {
            calib,
            job,
            build_ms,
        },
        SetupTimes {
            calibrate_ms,
            trace_gen_ms: 0.0,
        },
    )
}

/// Relative tolerance of the chrome-trace round trip. The trace stores
/// times as microsecond decimals, so a non-dyadic emulated time comes back
/// a few ulps off, and sums over ~800k ops drift by about 1e-14.
const ROUND_TRIP_RTOL: f64 = 1e-9;

/// The first field where two profile reports differ beyond the round
/// trip's rounding, ignoring the event count (checked on its own).
fn disagreement(imported: &str, posthoc: &str) -> Option<String> {
    fn walk(a: &Value, b: &Value, path: &str) -> Option<String> {
        let num = |v: &Value| match v {
            Value::Int(x) => Some(*x as f64),
            Value::UInt(x) => Some(*x as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        };
        match (a, b) {
            (Value::Map(x), Value::Map(y)) => {
                if x.len() != y.len() {
                    return Some(format!("{path}: {} vs {} fields", x.len(), y.len()));
                }
                x.iter().zip(y).find_map(|((ka, va), (kb, vb))| {
                    if ka != kb {
                        Some(format!("{path}: field {ka} vs {kb}"))
                    } else if path.is_empty() && ka == "events" {
                        None
                    } else {
                        walk(va, vb, &format!("{path}.{ka}"))
                    }
                })
            }
            (Value::Seq(x), Value::Seq(y)) => {
                if x.len() != y.len() {
                    return Some(format!("{path}: {} vs {} items", x.len(), y.len()));
                }
                x.iter()
                    .zip(y)
                    .enumerate()
                    .find_map(|(i, (va, vb))| walk(va, vb, &format!("{path}[{i}]")))
            }
            _ => match (num(a), num(b)) {
                (Some(x), Some(y))
                    if (x - y).abs() <= ROUND_TRIP_RTOL * x.abs().max(y.abs()).max(1.0) =>
                {
                    None
                }
                (Some(x), Some(y)) => Some(format!("{path}: {x} vs {y}")),
                _ if a == b => None,
                _ => Some(format!("{path}: {a:?} vs {b:?}")),
            },
        }
    }
    match (
        serde_json::parse_value(imported),
        serde_json::parse_value(posthoc),
    ) {
        (Ok(a), Ok(b)) => walk(&a, &b, ""),
        _ => Some("a report is not valid JSON".to_string()),
    }
}

pub fn measure(
    inp: &Inputs,
    seed: u64,
    seconds: f64,
    tr: Option<&mut Tracer>,
    rep: &mut Report,
    sampler: &mut SetupSampler,
) -> Vec<Vec<Lap>> {
    let mut passes = Vec::new();
    let mut exec_ms = Vec::new();
    let mut profile_ms = Vec::new();
    let mut export_ms = Vec::new();
    let mut import_ms = Vec::new();
    let mut minibatch_s = Vec::new();
    let mut events_n = 0usize;
    let mut kept = None;
    let started = Instant::now();
    let mut pass = 0u64;
    while pass == 0 || started.elapsed().as_secs_f64() < seconds {
        // The timed pass: emulation with the live fold on the bus, the
        // post-hoc profile, and the chrome-trace export and import. The
        // checks run after it.
        let mut marks = vec![Mark::now()];
        let opts = SimOptions {
            seed: seed.wrapping_add(pass),
            ..SimOptions::default()
        };
        let sink = VecSink::new();
        let live = StreamSink::new(StreamConfig::default());
        let mut bus = EventBus::with_sink(Box::new(sink.clone()));
        bus.add_sink(Box::new(live.clone()));
        let (res, t) = timed(|| inp.job.run_minibatch_on_bus(&opts, &mut bus));
        exec_ms.push(t);
        drop(bus);
        let events = sink.take();
        marks.push(Mark::now());
        let (report, t) = timed(|| profile(&events));
        profile_ms.push(t);
        marks.push(Mark::now());
        let (json, t) = timed(|| chrome_trace_json(&events));
        export_ms.push(t);
        marks.push(Mark::now());
        let (imported, t) = timed(|| events_from_chrome_trace(&json));
        import_ms.push(t);
        marks.push(Mark::now());
        passes.push(laps(&marks));
        sampler.sample();

        rep.check(res.is_ok(), || {
            format!("emulation errored: {:?}", res.as_ref().err())
        });
        if let Ok((r, _)) = &res {
            minibatch_s.push(r.total_time);
        }
        events_n = events.len();
        let posthoc = report.to_json();
        let partial = live.take_partial();
        let violations = partial.counters().violations();
        let peak_resident = partial.counters().peak_resident;
        rep.check(violations == 0, || {
            format!("live stream fold: {violations} violations")
        });
        rep.check(partial.into_report().to_json() == posthoc, || {
            "streamed report differs from the post-hoc profile".to_string()
        });
        match imported {
            Ok(back) => {
                // The exporter folds each op's OpStart into its slice.
                let starts = events
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::OpStart { .. }))
                    .count();
                rep.check(back.len() + starts == events.len(), || {
                    format!(
                        "chrome-trace import: {} events, expected {}",
                        back.len(),
                        events.len() - starts
                    )
                });
                let mismatch = disagreement(&profile(&back).to_json(), &posthoc);
                rep.check(mismatch.is_none(), || {
                    format!("chrome-trace import does not reproduce the profile: {mismatch:?}")
                });
            }
            Err(e) => rep.check(false, || format!("chrome-trace import failed: {e}")),
        }
        if pass == 0 {
            rep.set("obs.chrome_trace.bytes", json.len() as f64, "B", 1);
            rep.set("obs.stream.peak_resident", peak_resident as f64, "count", 1);
            if tr.is_some() {
                kept = Some(events);
            }
        }
        pass += 1;
    }
    let exec = median(&exec_ms);
    let prof = median(&profile_ms);
    rep.set(
        "sim_minibatch_s",
        median(&minibatch_s),
        "s",
        minibatch_s.len(),
    );
    rep.set("exec.build_ms", inp.build_ms, "ms", 1);
    rep.set("exec.events", events_n as f64, "count", 1);
    rep.set("exec.busy_ms", exec, "ms", exec_ms.len());
    rep.set(
        "exec.events_per_s",
        events_n as f64 / (exec / 1e3),
        "ev/s",
        exec_ms.len(),
    );
    rep.set("obs.bus.events", events_n as f64, "count", 1);
    rep.set("obs.profile.busy_ms", prof, "ms", profile_ms.len());
    rep.set(
        "obs.profile.events_per_s",
        events_n as f64 / (prof / 1e3),
        "ev/s",
        profile_ms.len(),
    );
    rep.set(
        "obs.chrome_trace.export_ms",
        median(&export_ms),
        "ms",
        export_ms.len(),
    );
    rep.set(
        "obs.chrome_trace.import_ms",
        median(&import_ms),
        "ms",
        import_ms.len(),
    );
    if let (Some(tr), Some(events)) = (tr, kept) {
        let recall_start = Instant::now();
        // The live fold runs inside the emulation's bus; re-fold the same
        // events through a fresh profiler to time it on its own.
        tr.span("stream", None, |_| {
            let mut fold = StreamingProfiler::new(StreamConfig::default());
            for e in &events {
                fold.observe(e);
            }
            std::hint::black_box(fold.into_partial().into_report());
        });
        rep.set("obs.stream.busy_ms", tr.busy_ms("stream"), "ms", 1);
        let cfg = &inp.job.config;
        let input = SimInput {
            calib: &inp.calib,
            assignment: &cfg.assignment,
            d: cfg.d,
            m: cfg.m,
            n_micro: cfg.n_micro,
            offload: cfg.offload,
        };
        tr.span("plan_schedule", None, |_| {
            std::hint::black_box(plan_schedule(&input)).is_ok()
        });
        rep.set(
            "sched.plan_schedule_ms",
            tr.busy_ms("plan_schedule"),
            "ms",
            1,
        );
        // The planner's one evaluate of 49x6, and the layers inside it.
        let planner = Planner::new(&inp.calib.model, &inp.calib)
            .batch_size(M_TOTAL)
            .micro_batch(MICRO);
        tr.span("planner", Some(0), |_| {
            std::hint::black_box(planner.evaluate(P, D)).is_ok()
        });
        tr.span("partition", Some(0), |_| {
            std::hint::black_box(balanced_partition(&inp.calib.graph, P))
        });
        tr.span("estimator", Some(0), |_| {
            std::hint::black_box(estimate_minibatch_time(&input)).is_ok()
        });
        planner_layers::set_planner_metrics(tr, rep, 1, 1);
        rep.set("trace.recall_ms", ms(recall_start.elapsed()), "ms", 1);
    }
    passes
}
