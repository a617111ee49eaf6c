//! Re-times the layers nested inside one planning decision by calling
//! their public functions again on the decision's inputs: the whole
//! planner (`Planner::best_config[_with_fallback]`), then, for every
//! candidate depth the sweep tries, the partition DP
//! (`balanced_partition`) and the §4.4 estimator
//! (`estimate_minibatch_time`).

use varuna::simulator::SimInput;
use varuna::{balanced_partition, estimate_minibatch_time, Calibration, Planner};

use crate::common::{median, Report, Tracer};

/// What one re-timed planning call saw.
#[derive(Debug, Default, Clone, Copy)]
pub struct PlanProbe {
    /// Candidate depths tried across the rungs the planner walked.
    pub candidates: usize,
    /// Candidates the estimator accepted (memory-feasible).
    pub feasible: usize,
    /// Host time of the planner call itself, ms.
    pub planner_ms: f64,
    /// Whether the copied search ends on the rung, and holds the
    /// configuration, the planner itself chose.
    pub copy_agrees: bool,
}

/// Re-plans `g` GPUs the way a manager with this batch contract does, and
/// re-times its partition and estimator calls candidate by candidate, all
/// under one `replan` span carrying the decision's id.
pub fn probe(
    tr: &mut Tracer,
    calib: &Calibration,
    m_total: usize,
    micro: usize,
    fallback: bool,
    g: usize,
    decision: u64,
) -> PlanProbe {
    tr.span("replan", Some(decision), |tr| {
        probe_layers(tr, calib, m_total, micro, fallback, g, decision)
    })
}

fn probe_layers(
    tr: &mut Tracer,
    calib: &Calibration,
    m_total: usize,
    micro: usize,
    fallback: bool,
    g: usize,
    decision: u64,
) -> PlanProbe {
    let planner = Planner::new(&calib.model, calib)
        .batch_size(m_total)
        .micro_batch(micro);
    let start = std::time::Instant::now();
    let chosen = tr.span("planner", Some(decision), |_| {
        if fallback {
            std::hint::black_box(planner.best_config_with_fallback(g)).map(|(c, _)| c)
        } else {
            std::hint::black_box(planner.best_config(g))
        }
    });
    let chosen = chosen.ok().map(|c| (c.p, c.d, c.m, c.offload));
    let mut out = PlanProbe {
        planner_ms: start.elapsed().as_secs_f64() * 1e3,
        ..PlanProbe::default()
    };

    // The recovery ladder `best_config_with_fallback` walks: the pinned
    // micro-batch, then halvings down to 1, then offload at m = 1.
    let mut rungs = vec![(micro, false)];
    if fallback {
        let mut m = micro / 2;
        while m >= 1 {
            rungs.push((m, false));
            if m == 1 {
                break;
            }
            m /= 2;
        }
        rungs.push((1, true));
    }
    let k = calib.graph.len();
    let mut last_rung = Vec::new();
    for (m, offload) in rungs {
        let mut rung_feasible = 0;
        last_rung.clear();
        for p in 1..=k.min(g) {
            let d = g / p;
            if d == 0 {
                break;
            }
            out.candidates += 1;
            if m * d > m_total {
                continue;
            }
            let assignment = tr.span("partition", Some(decision), |_| {
                std::hint::black_box(balanced_partition(&calib.graph, p))
            });
            let input = SimInput {
                calib,
                assignment: &assignment,
                d,
                m,
                n_micro: m_total.div_ceil(m * d),
                offload,
            };
            let est = tr.span("estimator", Some(decision), |_| {
                std::hint::black_box(estimate_minibatch_time(&input))
            });
            if est.is_ok() {
                rung_feasible += 1;
                last_rung.push((p, d, m, offload));
            }
        }
        out.feasible += rung_feasible;
        if rung_feasible > 0 {
            break;
        }
    }
    out.copy_agrees = match chosen {
        Some(c) => last_rung.contains(&c),
        None => out.feasible == 0,
    };
    out
}

/// Sets the planner, partition and estimator metrics from the spans the
/// probes recorded.
pub fn set_planner_metrics(tr: &Tracer, rep: &mut Report, candidates: usize, feasible: usize) {
    let planner_calls = tr.count("planner");
    rep.set("planner.calls", planner_calls as f64, "count", 1);
    rep.set(
        "planner.busy_ms",
        tr.busy_ms("planner"),
        "ms",
        planner_calls,
    );
    rep.set("planner.candidates", candidates as f64, "count", 1);
    rep.set(
        "planner.feasible_frac",
        feasible as f64 / candidates.max(1) as f64,
        "frac",
        candidates,
    );
    rep.set("partition.calls", tr.count("partition") as f64, "count", 1);
    rep.set(
        "partition.busy_ms",
        tr.busy_ms("partition"),
        "ms",
        tr.count("partition"),
    );
    let est = tr.durations_ms("estimator");
    rep.set("estimator.calls", est.len() as f64, "count", 1);
    rep.set("estimator.busy_ms", est.iter().sum(), "ms", est.len());
    rep.set(
        "estimator.us_per_call_p50",
        median(&est) * 1e3,
        "us",
        est.len(),
    );
}
