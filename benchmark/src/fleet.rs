//! `fleet_market`: the committed `fleet_sweep` fleet (10 jobs, 151 hosts,
//! 72 h) under all three provisioning policies, plus one kill-and-recover
//! of the spot-only control plane.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use serde::Value;
use varuna::{Calibration, Manager, VarunaCluster};
use varuna_bench::fleet_sweep::{job_mix, multi_day_market, POLICIES};
use varuna_cluster::trace::ClusterTrace;
use varuna_fleet::{
    recover_fleet, run_fleet_walled, FleetConfig, FleetOutcome, FleetRun, FleetWal, JobOutcome,
    JobSpec, ProvisionPolicy,
};
use varuna_obs::{Event, EventBus, EventKind, VecSink};

use crate::common::{
    median, ms, quantile, timed, Lap, Mark, Report, SetupSampler, SetupTimes, SplitMix, Tracer,
};
use crate::planner_layers;

/// Default seed of the kill point.
pub const DEFAULT_SEED: u64 = 42;
/// The market is pinned to the committed `BENCH_fleet_sweep.json` seed, so
/// every run reproduces its digests; `--seed` picks the kill point.
const MARKET_SEED: u64 = 42;

const JOBS: usize = 10;
const HOURS: f64 = 72.0;

/// The committed fleet sweep, whose per-policy outcomes every run must
/// reproduce exactly.
const GOLDEN: &str = include_str!("../../BENCH_fleet_sweep.json");

/// The fleet digest of each policy's run at this tree, which the
/// committed sweep's own `fleet_sweep` binary also reproduces. The digest
/// fields of `BENCH_fleet_sweep.json` predate the write-ahead log and
/// zero-downtime morphing, which added events to every job's stream, so
/// they are stale; its other values still reproduce and are checked.
const DIGESTS: [(ProvisionPolicy, u64); 3] = [
    (ProvisionPolicy::SpotOnly, 0x9dfe_6a82_8aa2_7a22),
    (ProvisionPolicy::OnDemandOnly, 0x1a50_039e_bd47_f381),
    (ProvisionPolicy::SpotWithFallback, 0x44aa_99e8_2307_7a74),
];

pub struct Inputs {
    specs: Vec<JobSpec>,
    market: ClusterTrace,
    /// Each job's calibration, as the fleet builds it, for re-driving
    /// managers in the traced run.
    calibs: Vec<Calibration>,
}

pub fn setup(_seed: u64) -> (Inputs, SetupTimes) {
    let specs = job_mix(JOBS);
    let total_demand: usize = specs.iter().map(|s| s.demand_gpus).sum();
    let hosts = total_demand * 9 / 20;
    let (market, trace_gen_ms) = timed(|| multi_day_market(hosts, HOURS, MARKET_SEED));
    let (calibs, calibrate_ms) = timed(|| {
        specs
            .iter()
            .map(|j| Calibration::profile(&j.model, &VarunaCluster::commodity_1gpu(j.demand_gpus)))
            .collect()
    });
    (
        Inputs {
            specs,
            market,
            calibs,
        },
        SetupTimes {
            calibrate_ms,
            trace_gen_ms,
        },
    )
}

/// The committed sweep's value of `field` for `policy`.
fn golden(policy: ProvisionPolicy, field: &str) -> Option<f64> {
    let doc = serde_json::parse_value(GOLDEN).ok()?;
    match doc
        .get("summary")?
        .get(&format!("{}_{field}", policy.label()))?
    {
        Value::Float(x) => Some(*x),
        Value::Int(x) => Some(*x as f64),
        Value::UInt(x) => Some(*x as f64),
        _ => None,
    }
}

/// The first committed outcome value `o` does not reproduce exactly.
fn outcome_mismatch(policy: ProvisionPolicy, o: &FleetOutcome) -> Option<String> {
    let sum = |f: fn(&JobOutcome) -> f64| o.per_job.iter().map(f).sum::<f64>();
    let values = [
        ("dollars", o.dollars),
        ("tokens", o.tokens),
        ("dollars_per_ktoken", o.dollars_per_ktoken),
        ("goodput_tokens_per_hour", o.goodput_tokens_per_hour),
        ("jain_fairness", o.jain_fairness),
        ("spot_gpu_hours", sum(|j| j.spot_gpu_hours)),
        ("on_demand_gpu_hours", sum(|j| j.on_demand_gpu_hours)),
    ];
    values
        .iter()
        .find_map(|&(field, value)| match golden(policy, field) {
            Some(g) if g.to_bits() == value.to_bits() => None,
            g => Some(format!("{field}: {value} vs committed {g:?}")),
        })
}

fn is_terminal(e: &Event) -> Option<usize> {
    match e.kind {
        EventKind::Morph { gpus_held, .. } => Some(gpus_held),
        EventKind::MorphRetry { gpus, .. } => Some(gpus),
        _ => None,
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
    let mut run_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut rechecked = Vec::new();
    let mut spot_only: Option<(FleetRun, FleetWal)> = None;
    let started = Instant::now();
    while passes.is_empty() || started.elapsed().as_secs_f64() < seconds {
        // One lap per policy run; the checks between them and the
        // recovery after the passes are not timed.
        let mut pass = Vec::new();
        let mut events_rechecked = 0usize;
        for policy in POLICIES {
            let cfg = FleetConfig::new(inp.specs.clone()).with_policy(policy);
            let mut wal = FleetWal::new();
            let start = Mark::now();
            let run = run_fleet_walled(&cfg, &inp.market, &mut wal);
            let lap = start.to(Mark::now());
            run_ms
                .entry(policy.label())
                .or_default()
                .push(lap.wall_s * 1e3);
            pass.push(lap);
            let label = policy.label();
            rep.check(run.is_ok(), || format!("{label}: run_fleet_walled errored"));
            let Ok(run) = run else { continue };
            let o = &run.outcome;
            rep.check(
                o.capacity_violations == 0 && o.fairness_violations == 0,
                || {
                    format!(
                        "{label}: {} capacity, {} fairness violations",
                        o.capacity_violations, o.fairness_violations
                    )
                },
            );
            rep.check(run.stream.all_clean(), || {
                format!("{label}: stream check failed")
            });
            let pinned = DIGESTS.iter().find(|(p, _)| *p == policy).map(|&(_, d)| d);
            rep.check(pinned == Some(o.digest), || {
                format!("{label}: digest {:016x} != pinned {pinned:016x?}", o.digest)
            });
            let mismatch = outcome_mismatch(policy, o);
            rep.check(mismatch.is_none(), || format!("{label}: {mismatch:?}"));
            events_rechecked += std::iter::once(&run.stream.fleet)
                .chain(&run.stream.jobs)
                .map(|c| c.events)
                .sum::<usize>();
            if policy == ProvisionPolicy::SpotOnly && spot_only.is_none() {
                rep.set(
                    "sim_usd_per_mtoken",
                    o.dollars_per_ktoken * 1e3,
                    "USD/Mtok",
                    1,
                );
                spot_only = Some((run, wal));
            }
        }
        rechecked.push(events_rechecked as f64);
        passes.push(pass);
        sampler.sample();
    }
    for (label, ts) in &run_ms {
        rep.set(&format!("fleet.run_ms.{label}"), median(ts), "ms", ts.len());
    }
    rep.set(
        "fleet.rechecked_events",
        median(&rechecked),
        "count",
        rechecked.len(),
    );
    if let Some((run, wal)) = &spot_only {
        recover(inp, seed, run.outcome.digest, wal, rep);
        cache_metrics(inp, run, rep);
        redrive(tr, inp, run, rep);
    }
    passes
}

/// Kills the spot-only control plane at a seed-chosen boundary, torn or
/// not, and recovers it from the surviving bytes.
fn recover(inp: &Inputs, seed: u64, digest: u64, wal: &FleetWal, rep: &mut Report) {
    let mut rng = SplitMix(seed);
    let boundary = rng.below(wal.len() as u64 + 1) as usize;
    let torn = rng.below(2) == 1 && boundary < wal.len();
    let bytes = if torn {
        wal.torn_bytes(boundary, 0.5)
    } else {
        wal.truncated_bytes(boundary)
    };
    let cfg = FleetConfig::new(inp.specs.clone()).with_policy(ProvisionPolicy::SpotOnly);
    let t0 = Instant::now();
    let recovered = FleetWal::from_bytes(&bytes)
        .map_err(|e| e.to_string())
        .and_then(|mut log| {
            recover_fleet(&cfg, &inp.market, &mut log)
                .map(|(run, report)| (run, report, log))
                .map_err(|e| e.to_string())
        });
    rep.set("fleet.recover_ms", ms(t0.elapsed()), "ms", 1);
    match recovered {
        Ok((run, report, log)) => {
            rep.check(run.outcome.digest == digest, || {
                format!("fleet recovery at {boundary} (torn {torn}): digest diverged")
            });
            rep.check(log.to_bytes() == wal.to_bytes(), || {
                format!("fleet recovery at {boundary} (torn {torn}): WAL bytes diverged")
            });
            rep.check(report.torn.is_some() == torn, || {
                format!(
                    "fleet recovery at {boundary}: torn {torn}, detected {:?}",
                    report.torn
                )
            });
        }
        Err(e) => rep.check(false, || format!("fleet recovery at {boundary}: {e}")),
    }
}

/// Plan-cache metrics from the spot-only run's `Morph` events: a hit is a
/// capacity this job's manager planned before; a cross-job repeat is a
/// miss whose (model, capacity) another job's manager already planned.
fn cache_metrics(inp: &Inputs, run: &FleetRun, rep: &mut Report) {
    let mut misses: Vec<(f64, usize, usize)> = Vec::new();
    let (mut hits, mut morphs, mut decisions) = (0usize, 0usize, 0usize);
    for (j, events) in run.job_events.iter().enumerate() {
        let mut planned = BTreeSet::new();
        for e in events {
            if is_terminal(e).is_some() {
                decisions += 1;
            }
            if let EventKind::Morph { gpus_held, .. } = e.kind {
                morphs += 1;
                if planned.insert(gpus_held) {
                    misses.push((e.t_sim, j, gpus_held));
                } else {
                    hits += 1;
                }
            }
        }
    }
    misses.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut planned_by: BTreeMap<(&str, usize), usize> = BTreeMap::new();
    let mut repeats = 0usize;
    for &(_, j, g) in &misses {
        let first = *planned_by
            .entry((inp.specs[j].model.name.as_str(), g))
            .or_insert(j);
        repeats += usize::from(first != j);
    }
    rep.set("manager.decisions", decisions as f64, "count", 1);
    rep.set(
        "plan_cache.hit_frac",
        hits as f64 / morphs.max(1) as f64,
        "frac",
        morphs,
    );
    rep.set(
        "plan_cache.cross_job_repeat_frac",
        repeats as f64 / misses.len().max(1) as f64,
        "frac",
        misses.len(),
    );
}

/// Host time per manager decision. The fleet drives its managers on
/// private buses, so every job's manager of the spot-only run is driven
/// again through `Manager::on_external_capacity` with the capacities the
/// arbiter gave it, each call timed as one decision. Traced, every
/// capacity it planned afresh is also re-planned with the planner layers
/// re-timed.
fn redrive(mut tr: Option<&mut Tracer>, inp: &Inputs, run: &FleetRun, rep: &mut Report) {
    let recall_start = Instant::now();
    let mut decision_ms = Vec::new();
    let mut planned_ms = 0.0f64;
    let (mut candidates, mut feasible) = (0usize, 0usize);
    let mut id = 0u64;
    for (j, events) in run.job_events.iter().enumerate() {
        let spec = &inp.specs[j];
        let calib = &inp.calibs[j];
        let mut mgr = Manager::new(calib, spec.m_total, spec.micro).with_fallback();
        let sink = VecSink::new();
        let mut bus = EventBus::with_sink(Box::new(sink.clone()));
        let mut planner_ms: BTreeMap<usize, f64> = BTreeMap::new();
        let mut planned = BTreeSet::new();
        let mut expected = Vec::new();
        for e in events {
            let Some(g) = is_terminal(e) else { continue };
            let start = Instant::now();
            mgr.on_external_capacity(e.t_sim / 3600.0, g, 0, 0, &mut bus);
            let end = Instant::now();
            decision_ms.push(ms(end - start));
            let hit = matches!(e.kind, EventKind::Morph { .. }) && !planned.insert(g);
            if let Some(tr) = tr.as_deref_mut() {
                tr.record("decision", start, end, Some(id));
            }
            if let (false, Some(tr)) = (hit, tr.as_deref_mut()) {
                let t = *planner_ms.entry(g).or_insert_with(|| {
                    let probe =
                        planner_layers::probe(tr, calib, spec.m_total, spec.micro, true, g, id);
                    rep.check(probe.copy_agrees, || {
                        format!("job {j}, {g} GPUs: the copied sweep disagrees with the planner")
                    });
                    candidates += probe.candidates;
                    feasible += probe.feasible;
                    probe.planner_ms
                });
                planned_ms += t;
            }
            if let EventKind::Morph {
                p, d, gpus_held, ..
            } = e.kind
            {
                expected.push((p, d, gpus_held));
            }
            id += 1;
        }
        let redriven: Vec<_> = sink
            .take()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Morph {
                    p, d, gpus_held, ..
                } => Some((p, d, gpus_held)),
                _ => None,
            })
            .collect();
        rep.check(redriven == expected, || {
            format!("job {j}: re-driven manager chose different plans than in the fleet")
        });
    }
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
    if let Some(tr) = tr {
        rep.set(
            "manager.self_ms",
            decision_ms.iter().sum::<f64>() - planned_ms,
            "ms",
            decision_ms.len(),
        );
        planner_layers::set_planner_metrics(tr, rep, candidates, feasible);
        rep.set("trace.recall_ms", ms(recall_start.elapsed()), "ms", 1);
    }
}
