//! `spot_replay`: one GPT-2 2.5B job on a seeded 1-GPU spot trace (the
//! Figure 8 setup scaled down), replayed through the write-ahead log,
//! then killed at seed-chosen WAL boundaries (some torn) and recovered.

use std::collections::BTreeSet;
use std::time::Instant;

use varuna::{Calibration, Manager, ManagerWal, VarunaCluster};
use varuna_chaos::digest_control_events;
use varuna_cluster::trace::ClusterTrace;
use varuna_models::ModelZoo;
use varuna_obs::{profile, Event, EventBus, EventKind, VecSink};

use crate::common::{
    laps, median, ms, quantile, timed, Lap, Mark, Report, SetupSampler, SetupTimes, SplitMix,
    StampSink, Tracer,
};
use crate::planner_layers;

/// Default seed of the kill points.
pub const DEFAULT_SEED: u64 = 60;
/// The spot trace is pinned to the Figure 8 seed: planner cost depends on
/// which capacities a trace visits, and one replay takes 5.2 to 6.7 s
/// across trace seeds, more than the run-to-run bound. `--seed` picks the
/// kill points instead.
const TRACE_SEED: u64 = 60;

const HOSTS: usize = 12;
const TARGET_GPUS: usize = 48;
const HOURS: f64 = 60.0;
const POLL_MINUTES: f64 = 10.0;
const M_TOTAL: usize = 8192;
const MICRO: usize = 4;
/// Kill points per run.
const KILLS: usize = 4;

pub struct Inputs {
    calib: Calibration,
    trace: ClusterTrace,
}

pub fn setup(_seed: u64) -> (Inputs, SetupTimes) {
    let (calib, calibrate_ms) = timed(|| {
        Calibration::profile(
            &ModelZoo::gpt2_2_5b(),
            &VarunaCluster::commodity_1gpu(TARGET_GPUS),
        )
    });
    let (trace, trace_gen_ms) = timed(|| {
        ClusterTrace::generate_spot_1gpu(HOSTS, TARGET_GPUS, HOURS, POLL_MINUTES, TRACE_SEED)
    });
    (
        Inputs { calib, trace },
        SetupTimes {
            calibrate_ms,
            trace_gen_ms,
        },
    )
}

/// Whether an event belongs to one plan attempt (see
/// `varuna::wal::is_plan_attempt_record`); `Morph` and `MorphRetry` end it.
fn in_attempt(e: &Event) -> bool {
    matches!(
        e.kind,
        EventKind::DegradedExit { .. }
            | EventKind::LostWork { .. }
            | EventKind::PlanSearch { .. }
            | EventKind::Morph { .. }
            | EventKind::DegradedEnter { .. }
            | EventKind::MorphRetry { .. }
    )
}

/// One manager decision, attributed from the host stamps of its events.
struct Decision {
    gpus: usize,
    /// Whether the manager's capacity-keyed plan cache could serve it.
    cache_hit: bool,
    start: Instant,
    end: Instant,
}

/// Splits a stamped event stream into manager decisions. A decision's
/// host time runs from the event before its first plan-attempt event to
/// its terminal `Morph`/`MorphRetry`: the manager plans before it logs
/// and emits, so that interval holds the planning.
fn decisions(events: &[Event], stamps: &[Mark], origin: Instant) -> Vec<Decision> {
    let mut out = Vec::new();
    let mut planned = BTreeSet::new();
    let mut prev = origin;
    let mut from: Option<Instant> = None;
    for (e, s) in events.iter().zip(stamps.iter().map(|m| m.wall)) {
        if in_attempt(e) {
            let start = *from.get_or_insert(prev);
            let terminal = match e.kind {
                EventKind::Morph { gpus_held, .. } => Some((gpus_held, !planned.insert(gpus_held))),
                // Failed plans are not cached: every retry re-plans.
                EventKind::MorphRetry { gpus, .. } => Some((gpus, false)),
                _ => None,
            };
            if let Some((gpus, cache_hit)) = terminal {
                out.push(Decision {
                    gpus,
                    cache_hit,
                    start,
                    end: s,
                });
                from = None;
            }
        } else {
            from = None;
        }
        prev = s;
    }
    out
}

/// Simulated examples/sec averaged over the whole trace: the active
/// plan's throughput, zero while degraded.
fn sim_ex_per_s(events: &[Event], duration_s: f64) -> f64 {
    let (mut t, mut rate, mut examples) = (0.0f64, 0.0f64, 0.0f64);
    for e in events {
        let next = match e.kind {
            EventKind::Morph {
                examples_per_sec, ..
            } => Some(examples_per_sec),
            EventKind::DegradedEnter { .. } => Some(0.0),
            _ => None,
        };
        if let Some(r) = next {
            examples += rate * (e.t_sim - t);
            t = e.t_sim;
            rate = r;
        }
    }
    examples += rate * (duration_s - t).max(0.0);
    examples / duration_s
}

/// The first pass's outcome: the reference every later pass and every
/// recovery must reproduce.
struct FirstPass {
    events: Vec<Event>,
    decided: Vec<Decision>,
    wal: ManagerWal,
    digest: u64,
    bytes: Vec<u8>,
    replay_start: Instant,
    replay_end: Instant,
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
    let mut decision_ms = Vec::new();
    let mut first: Option<FirstPass> = None;
    let started = Instant::now();
    while first.is_none() || started.elapsed().as_secs_f64() < seconds {
        let sink = VecSink::new();
        let stamps = StampSink::default();
        let mut bus = EventBus::with_sink(Box::new(sink.clone()));
        bus.add_sink(Box::new(stamps.clone()));
        let mut wal = ManagerWal::new();
        let mut mgr = Manager::new(&inp.calib, M_TOTAL, MICRO).with_zero_downtime();
        let start = Mark::now();
        let ok = mgr.replay_walled(&inp.trace, &mut bus, &mut wal);
        let end = Mark::now();
        // One lap per stretch between two events on the bus.
        let stamped = stamps.take();
        let mut marks = Vec::with_capacity(stamped.len() + 2);
        marks.push(start);
        marks.extend_from_slice(&stamped);
        marks.push(end);
        passes.push(laps(&marks));
        sampler.sample();
        rep.check(ok.is_ok(), || format!("replay_walled failed: {ok:?}"));
        let events = sink.take();
        let (replay_start, replay_end) = (start.wall, end.wall);
        let decided = decisions(&events, &stamped, replay_start);
        decision_ms.extend(decided.iter().map(|d| ms(d.end - d.start)));
        let digest = digest_control_events(&events);
        let bytes = wal.to_bytes();
        match &first {
            Some(f) => rep.check(digest == f.digest && bytes == f.bytes, || {
                "a replay of the same trace logged or emitted differently".to_string()
            }),
            None => {
                first = Some(FirstPass {
                    events,
                    decided,
                    wal,
                    digest,
                    bytes,
                    replay_start,
                    replay_end,
                })
            }
        }
    }
    let f = first.expect("at least one pass ran");

    // Kill the logged run at seed-chosen boundaries, one in each equal
    // slice of the log (a recovery's cost depends on how much of the log
    // is left to plan live), every second one tearing the next frame, and
    // recover each from the surviving bytes.
    let mut rng = SplitMix(seed);
    let n = f.wal.len();
    let slice = (n as u64 + 1) / KILLS as u64;
    let mut recover_ms = Vec::new();
    let (mut replayed_records, mut torn_detected) = (0usize, 0usize);
    for k in 0..KILLS {
        let boundary = (k as u64 * slice + rng.below(slice.max(1))) as usize;
        let torn = k % 2 == 1 && boundary < n;
        let bytes = if torn {
            f.wal.torn_bytes(boundary, 0.5)
        } else {
            f.wal.truncated_bytes(boundary)
        };
        let t0 = Instant::now();
        let loaded = ManagerWal::from_bytes(&bytes);
        rep.check(loaded.is_ok(), || {
            format!("surviving WAL failed to load at {boundary}")
        });
        let Ok(mut log) = loaded else { continue };
        let sink = VecSink::new();
        let mut bus = EventBus::with_sink(Box::new(sink.clone()));
        let mut mgr = Manager::new(&inp.calib, M_TOTAL, MICRO).with_zero_downtime();
        let rec = mgr.recover_on_bus(&inp.trace, &mut bus, &mut log);
        recover_ms.push(ms(t0.elapsed()));
        let Ok(rec) = rec else {
            rep.check(false, || {
                format!("recovery from boundary {boundary} errored")
            });
            continue;
        };
        replayed_records += rec.replayed_records;
        torn_detected += usize::from(rec.torn.is_some());
        let digest = digest_control_events(&sink.take());
        rep.check(digest == f.digest, || {
            format!("boundary {boundary} (torn {torn}): control digest diverged")
        });
        rep.check(log.to_bytes() == f.bytes, || {
            format!("boundary {boundary} (torn {torn}): recovered WAL bytes diverged")
        });
        rep.check(rec.torn.is_some() == torn, || {
            format!(
                "boundary {boundary}: torn {torn} but detected {:?}",
                rec.torn
            )
        });
    }

    let duration_s = inp.trace.duration_hours * 3600.0;
    rep.set(
        "sim_ex_per_s",
        sim_ex_per_s(&f.events, duration_s),
        "ex/s",
        1,
    );
    let report = profile(&f.events);
    rep.set(
        "sim_downtime_frac",
        report.downtime.downtime_seconds() / report.makespan,
        "frac",
        1,
    );
    rep.set(
        "decision_ms_p50",
        median(&decision_ms),
        "ms",
        decision_ms.len(),
    );
    rep.set(
        "decision_ms_p90",
        quantile(&decision_ms, 0.9),
        "ms",
        decision_ms.len(),
    );
    rep.set(
        "recover_ms_p50",
        median(&recover_ms),
        "ms",
        recover_ms.len(),
    );
    rep.set("wal.records", n as f64, "count", 1);
    rep.set("wal.bytes", f.bytes.len() as f64, "B", 1);
    rep.set(
        "wal.replayed_records",
        replayed_records as f64,
        "count",
        KILLS,
    );
    rep.set("wal.torn_detected", torn_detected as f64, "count", KILLS);
    rep.set("obs.bus.events", f.events.len() as f64, "count", 1);
    let hits = f.decided.iter().filter(|d| d.cache_hit).count();
    rep.set("manager.decisions", f.decided.len() as f64, "count", 1);
    rep.set(
        "plan_cache.hit_frac",
        hits as f64 / f.decided.len().max(1) as f64,
        "frac",
        f.decided.len(),
    );
    if let Some(tr) = tr {
        trace_layers(
            tr,
            inp,
            &f.decided,
            f.replay_start,
            f.replay_end,
            &f.bytes,
            rep,
        );
    }
    passes
}

/// The traced extras, after the timed passes: decision spans from the host
/// stamps, and the planner, partition and estimator re-timed on every
/// capacity the manager planned afresh.
fn trace_layers(
    tr: &mut Tracer,
    inp: &Inputs,
    decided: &[Decision],
    replay_start: Instant,
    replay_end: Instant,
    wal_bytes: &[u8],
    rep: &mut Report,
) {
    tr.record("replay", replay_start, replay_end, None);
    for (id, d) in decided.iter().enumerate() {
        tr.record("decision", d.start, d.end, Some(id as u64));
    }
    let recall_start = Instant::now();
    // Planner time per capacity, re-timed once per first-seen capacity. A
    // failed plan is not cached, so every retry re-plans and is charged
    // the same planner time.
    let mut planner_ms = std::collections::BTreeMap::new();
    let (mut candidates, mut feasible) = (0usize, 0usize);
    for (id, d) in decided.iter().enumerate() {
        if d.cache_hit || planner_ms.contains_key(&d.gpus) {
            continue;
        }
        let probe = planner_layers::probe(tr, &inp.calib, M_TOTAL, MICRO, false, d.gpus, id as u64);
        rep.check(probe.copy_agrees, || {
            format!(
                "re-planning {} GPUs: the copied sweep disagrees with the planner",
                d.gpus
            )
        });
        candidates += probe.candidates;
        feasible += probe.feasible;
        planner_ms.insert(d.gpus, probe.planner_ms);
    }
    let planned_ms: f64 = decided
        .iter()
        .filter(|d| !d.cache_hit)
        .map(|d| planner_ms[&d.gpus])
        .sum();
    let (wal_ok, decode_ms) = timed(|| ManagerWal::from_bytes(wal_bytes).is_ok());
    rep.check(wal_ok, || "complete WAL failed to decode".to_string());
    rep.set("wal.decode_ms", decode_ms, "ms", 1);
    rep.set("trace.recall_ms", ms(recall_start.elapsed()), "ms", 1);
    planner_layers::set_planner_metrics(tr, rep, candidates, feasible);
    let decision_total: f64 = decided.iter().map(|d| ms(d.end - d.start)).sum();
    rep.set(
        "manager.self_ms",
        decision_total - planned_ms,
        "ms",
        decided.len(),
    );
}
