//! Downtime accounting over the CI chaos corpus: for every golden seed,
//! the profiler's priced components must exactly explain the simulated
//! wall-clock — nothing double-counted, nothing dropped. The sweep runs
//! the corpus twice, once under the default full-restart policy and once
//! under the zero-downtime policy (delta checkpoints, overlapped writes,
//! live migration), where overlapped seconds are informational and must
//! never leak into the priced sum.

use varuna::{Calibration, Manager, VarunaCluster};
use varuna_chaos::inject::ChaosInjector;
use varuna_chaos::ChaosConfig;
use varuna_cluster::trace::ClusterTrace;
use varuna_models::ModelZoo;
use varuna_obs::{profile, Event, EventBus, EventKind, Source, StreamingProfiler, VecSink};

/// Replays one chaos seed on the Figure-8 workload and returns the
/// manager's (non-chaos-sourced) event stream.
fn replay_seed(seed: u64, zero_downtime: bool) -> Vec<Event> {
    let calib = Calibration::profile(&ModelZoo::gpt2_2_5b(), &VarunaCluster::commodity_1gpu(160));
    let base = ClusterTrace::generate_spot_1gpu(40, 60, 3.0, 10.0, 7);
    let cfg = if zero_downtime {
        ChaosConfig {
            zero_downtime: true,
            ..ChaosConfig::from_seed(seed)
        }
    } else {
        ChaosConfig::from_seed(seed)
    };
    let injector = ChaosInjector::new(cfg).expect("valid config");
    let sink = VecSink::new();
    let mut bus = EventBus::with_sink(Box::new(sink.clone()));
    let (trace, _faults) = injector.perturb_observed(&base, &mut bus);
    let mut mgr = Manager::new(&calib, 8192, 4).with_fallback();
    if zero_downtime {
        mgr = mgr.with_zero_downtime();
    }
    mgr.replay_on_bus(&trace, &mut bus).expect("replay");
    sink.take()
        .into_iter()
        .filter(|e| e.source != Source::Chaos)
        .collect()
}

const SEEDS: [u64; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

/// The shared per-seed check: the attribution fold flags no anomaly,
/// every priced component re-derived independently from the raw stream
/// must match the profiler term by term, and the components plus useful
/// time must sum to the makespan.
fn assert_components_sum(seed: u64, zero_downtime: bool) {
    let events = replay_seed(seed, zero_downtime);
    assert!(!events.is_empty(), "seed {seed}: replay emitted nothing");
    let mut fold = StreamingProfiler::default();
    for e in &events {
        fold.observe(e);
    }
    let counters = *fold.counters();
    assert_eq!(counters.violations(), 0, "seed {seed}: {counters:?}");
    let report = profile(&events);
    let dt = &report.downtime;

    let mut degraded = 0.0;
    let mut open_since = None;
    let mut restarts = 0.0;
    let mut migrations = 0.0;
    let mut writes = 0.0;
    let mut overlapped = 0.0;
    let mut lost = 0.0;
    for e in &events {
        match &e.kind {
            EventKind::DegradedEnter { .. } => open_since = Some(e.t_sim),
            EventKind::DegradedExit { paused_seconds, .. } => {
                open_since = None;
                degraded += paused_seconds;
            }
            EventKind::Morph {
                restart_seconds,
                migration_seconds,
                ..
            } => {
                restarts += restart_seconds;
                migrations += migration_seconds;
            }
            EventKind::Checkpoint {
                write_seconds,
                overlapped_seconds,
                ..
            } => {
                writes += write_seconds;
                overlapped += overlapped_seconds;
            }
            EventKind::LostWork { seconds, .. } => lost += seconds,
            _ => {}
        }
    }
    if let Some(since) = open_since {
        degraded += report.makespan - since;
    }
    let tol = 1e-9 * report.makespan.max(1.0);
    assert!(
        (dt.degraded_seconds - degraded).abs() < tol,
        "seed {seed}: degraded {} != {}",
        dt.degraded_seconds,
        degraded
    );
    assert!(
        (dt.morph_restart_seconds - restarts).abs() < tol,
        "seed {seed}"
    );
    assert!(
        (dt.migration_seconds - migrations).abs() < tol,
        "seed {seed}"
    );
    assert!(
        (dt.checkpoint_write_seconds - writes).abs() < tol,
        "seed {seed}"
    );
    assert!(
        (dt.checkpoint_overlapped_seconds - overlapped).abs() < tol,
        "seed {seed}"
    );
    assert!((dt.lost_work_seconds - lost).abs() < tol, "seed {seed}");

    // The full identity: useful time plus every priced component equals
    // the simulated wall-clock window. Overlapped checkpoint seconds are
    // deliberately absent — they hide behind compute and must never be
    // double-counted into the priced sum.
    let total = dt.useful_seconds
        + dt.degraded_seconds
        + dt.morph_restart_seconds
        + dt.migration_seconds
        + dt.checkpoint_write_seconds
        + dt.lost_work_seconds;
    assert!(
        (total - report.makespan).abs() < tol,
        "seed {seed}: components sum to {total}, makespan {}",
        report.makespan
    );
    for v in [
        dt.degraded_seconds,
        dt.morph_restart_seconds,
        dt.migration_seconds,
        dt.checkpoint_write_seconds,
        dt.checkpoint_overlapped_seconds,
        dt.lost_work_seconds,
    ] {
        assert!(v.is_finite() && v >= 0.0, "seed {seed}: component {v}");
    }

    // Manager streams carry no ops, so the compute/comms/bubble axes
    // must be exactly zero — downtime pricing is the whole story.
    assert!(report.lanes.is_empty(), "seed {seed}: phantom GPU lanes");
    assert_eq!(report.transfer_seconds, 0.0, "seed {seed}");

    // Same seed, same profile: the report is a pure function of the
    // deterministic replay.
    assert_eq!(
        report,
        profile(&replay_seed(seed, zero_downtime)),
        "seed {seed}: profile not deterministic"
    );
}

#[test]
fn profiled_components_sum_to_simulated_wall_clock_for_the_ci_corpus() {
    for seed in SEEDS {
        assert_components_sum(seed, false);
    }
}

#[test]
fn zero_downtime_components_sum_and_overlap_is_never_priced() {
    let mut any_migration = false;
    let mut any_overlap = false;
    for seed in SEEDS {
        assert_components_sum(seed, true);
        let report = profile(&replay_seed(seed, true));
        if report.downtime.migration_seconds > 0.0 {
            any_migration = true;
        }
        if report.downtime.checkpoint_overlapped_seconds > 0.0 {
            any_overlap = true;
        }
    }
    assert!(
        any_migration,
        "no seed in the corpus performed a live migration"
    );
    assert!(
        any_overlap,
        "no seed in the corpus overlapped a checkpoint write"
    );
}

#[test]
fn counted_events_match_the_stream() {
    let events = replay_seed(3, true);
    let report = profile(&events);
    let count = |pred: fn(&EventKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count();
    assert_eq!(
        report.downtime.morphs,
        count(|k| matches!(k, EventKind::Morph { .. }))
    );
    assert_eq!(
        report.downtime.checkpoints,
        count(|k| matches!(k, EventKind::Checkpoint { .. }))
    );
    assert_eq!(
        report.downtime.preemptions,
        count(|k| matches!(k, EventKind::Preemption { .. }))
    );
    assert_eq!(
        report.downtime.degraded_episodes,
        count(|k| matches!(k, EventKind::DegradedEnter { .. }))
    );
    assert_eq!(
        report.downtime.migrations,
        events
            .iter()
            .filter(
                |e| matches!(e.kind, EventKind::Morph { migration_seconds, .. }
                if migration_seconds > 0.0)
            )
            .count()
    );
    assert_eq!(
        report.downtime.delta_checkpoints,
        count(|k| matches!(k, EventKind::Checkpoint { full: false, .. }))
    );
}
