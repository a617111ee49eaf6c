//! Test-only reference for the attribution fold.
//!
//! [`reference_profile`] is the batch profiler the fold replaced: it
//! collects every lane's busy intervals, sorts and sweeps them, and walks
//! the critical path backwards from the last op to finish. The tests below
//! pin [`profile`] (the fold) to it byte for byte.

use std::collections::{BTreeMap, HashMap};

use proptest::collection::vec;
use proptest::prelude::*;

use crate::attrib::{downtime, finish_critical_path, ChainSummary, CriticalPath};
use crate::event::{Event, EventKind};
use crate::profile::{
    assemble_report, profile, spans, BusyKind, LaneFold, ProfileReport, ProfileSpan,
};
use crate::stream::StreamingProfiler;

#[derive(Clone, Copy)]
struct BusyInterval {
    start: f64,
    end: f64,
    kind: BusyKind,
}

/// The batch profiler: makespan first, then one stable-sorted cursor
/// sweep per lane with every interval clipped to the makespan.
fn reference_profile(events: &[Event]) -> ProfileReport {
    let mut makespan: f64 = 0.0;
    for e in events {
        let end = match &e.kind {
            EventKind::SendBusy { seconds, .. } => e.t_sim + seconds,
            EventKind::Transfer { seconds, .. } => e.t_sim + seconds,
            _ => e.t_sim,
        };
        if end.is_finite() {
            makespan = makespan.max(end);
        }
    }

    let mut lanes_map: BTreeMap<(usize, usize), Vec<BusyInterval>> = BTreeMap::new();
    let mut lane_ops: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    let mut pipeline_end: f64 = 0.0;
    let mut transfer_seconds = 0.0;
    let mut transfer_out: BTreeMap<usize, f64> = BTreeMap::new();
    let mut allreduces: Vec<(usize, f64, f64)> = Vec::new();
    for e in events {
        match &e.kind {
            EventKind::OpEnd {
                stage,
                replica,
                op,
                start,
                ..
            } => {
                let kind = match op {
                    'F' => BusyKind::Forward,
                    'R' => BusyKind::Recompute,
                    _ => BusyKind::Backward,
                };
                lanes_map
                    .entry((*stage, *replica))
                    .or_default()
                    .push(BusyInterval {
                        start: start.max(0.0),
                        end: e.t_sim,
                        kind,
                    });
                *lane_ops.entry((*stage, *replica)).or_default() += 1;
                pipeline_end = pipeline_end.max(e.t_sim);
            }
            EventKind::SendBusy {
                stage,
                replica,
                seconds,
                ..
            } => {
                lanes_map
                    .entry((*stage, *replica))
                    .or_default()
                    .push(BusyInterval {
                        start: e.t_sim.max(0.0),
                        end: e.t_sim + seconds,
                        kind: BusyKind::Send,
                    });
            }
            EventKind::Allreduce { stage, seconds, .. } => {
                allreduces.push((*stage, (e.t_sim - seconds).max(0.0), e.t_sim));
            }
            EventKind::Transfer {
                from_stage,
                seconds,
                ..
            } => {
                transfer_seconds += seconds;
                *transfer_out.entry(*from_stage).or_default() += seconds;
            }
            _ => {}
        }
    }

    // Each allreduce joins every lane of its stage; a stage with no op
    // lanes gets a synthetic replica-0 lane.
    for (stage, start, end) in allreduces {
        let mut keys: Vec<(usize, usize)> = lanes_map
            .range((stage, 0)..(stage + 1, 0))
            .map(|(k, _)| *k)
            .collect();
        if keys.is_empty() {
            keys.push((stage, 0));
        }
        for key in keys {
            lanes_map.entry(key).or_default().push(BusyInterval {
                start,
                end,
                kind: BusyKind::Allreduce,
            });
        }
    }

    let mut lanes = Vec::with_capacity(lanes_map.len());
    for ((stage, replica), mut intervals) in lanes_map {
        intervals.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.end.total_cmp(&b.end)));
        let mut fold = LaneFold::default();
        for iv in intervals {
            fold.push(iv.start, iv.end.min(makespan), iv.kind);
        }
        let ops = lane_ops.get(&(stage, replica)).copied().unwrap_or(0);
        lanes.push(fold.finish(stage, replica, ops, makespan));
    }

    assemble_report(
        events.len(),
        makespan,
        pipeline_end,
        lanes,
        transfer_seconds,
        &transfer_out,
        critical_path(&spans(events)),
        downtime(events, makespan),
    )
}

/// The backward critical-path walk: from the last op to finish, follow
/// the latest-finishing predecessor (lane, upstream forward, downstream
/// backward) that ended by the op's start, then fold the path forward.
fn critical_path(spans: &[ProfileSpan]) -> Option<CriticalPath> {
    if spans.is_empty() {
        return None;
    }
    let mut by_lane: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
    let mut by_key: HashMap<(usize, usize, char, usize), usize> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_lane.entry((s.stage, s.replica)).or_default().push(i);
        by_key.insert((s.stage, s.replica, s.op, s.micro), i);
    }
    let mut lane_pos: HashMap<usize, usize> = HashMap::new();
    for lane in by_lane.values_mut() {
        lane.sort_by(|&a, &b| {
            spans[a]
                .start
                .total_cmp(&spans[b].start)
                .then(spans[a].end.total_cmp(&spans[b].end))
        });
        for (pos, &i) in lane.iter().enumerate() {
            lane_pos.insert(i, pos);
        }
    }

    let mut cur = 0;
    for (i, s) in spans.iter().enumerate() {
        let best = &spans[cur];
        if s.end > best.end
            || (s.end == best.end
                && (s.stage, s.replica, s.micro) < (best.stage, best.replica, best.micro))
        {
            cur = i;
        }
    }
    let length = spans[cur].end;
    let max_stage = spans.iter().map(|s| s.stage).max().unwrap_or(0);

    // Each step moves to an op ending by the current op's start, so
    // `spans.len()` steps suffice unless zero-length ops form a cycle.
    let mut path = Vec::new();
    let mut rooted = false;
    for _ in 0..=spans.len() {
        let s = spans[cur];
        path.push(cur);
        let mut candidates = Vec::with_capacity(3);
        if let Some(&pos) = lane_pos.get(&cur) {
            if pos > 0 {
                candidates.push(by_lane[&(s.stage, s.replica)][pos - 1]);
            }
        }
        if s.op == 'F' && s.stage > 0 {
            candidates.extend(by_key.get(&(s.stage - 1, s.replica, 'F', s.micro)));
        }
        if s.op == 'B' {
            candidates.extend(by_key.get(&(s.stage + 1, s.replica, 'B', s.micro)));
        }
        let pred = candidates
            .into_iter()
            .filter(|&i| i != cur && spans[i].end <= s.start + 1e-9)
            .max_by(|&a, &b| {
                spans[a].end.total_cmp(&spans[b].end).then_with(|| {
                    (spans[b].stage, spans[b].replica).cmp(&(spans[a].stage, spans[a].replica))
                })
            });
        match pred {
            Some(p) => cur = p,
            None => {
                rooted = true;
                break;
            }
        }
    }

    path.reverse();
    let mut chain = ChainSummary::leaf(&spans[path[0]]);
    if !rooted {
        // The walk's bound cut the path: its true start is unknown, so
        // no initial wait is charged.
        chain.wait = 0.0;
    }
    for &i in &path[1..] {
        chain = chain.extend(&spans[i]);
    }
    Some(finish_critical_path(chain, length, max_stage))
}

fn op(stage: usize, replica: usize, op: char, micro: usize, start: f64, end: f64) -> Event {
    Event::exec(
        end,
        EventKind::OpEnd {
            stage,
            replica,
            op,
            micro,
            start,
        },
    )
}

fn assert_fold_matches_reference(events: &[Event]) {
    assert_eq!(
        profile(events).to_json(),
        reference_profile(events).to_json()
    );
}

#[test]
fn empty_stream_matches_reference() {
    assert_fold_matches_reference(&[]);
}

#[test]
fn simple_pipeline_matches_reference_bytes() {
    assert_fold_matches_reference(&[
        op(0, 0, 'F', 0, 0.0, 1.0),
        op(0, 0, 'F', 1, 1.0, 2.0),
        op(1, 0, 'F', 0, 1.5, 2.5),
        op(1, 0, 'B', 0, 2.5, 4.5),
        op(0, 0, 'B', 0, 5.0, 7.0),
    ]);
}

#[test]
fn sends_allreduces_and_control_match_reference_bytes() {
    assert_fold_matches_reference(&[
        op(0, 0, 'F', 0, 0.0, 1.0),
        Event::exec(
            1.0,
            EventKind::SendBusy {
                stage: 0,
                replica: 0,
                micro: 0,
                seconds: 0.5,
            },
        ),
        Event::exec(
            1.2,
            EventKind::Transfer {
                from_stage: 0,
                to_stage: 1,
                replica: 0,
                micro: 0,
                bytes: 1e6,
                seconds: 0.125,
            },
        ),
        op(1, 0, 'F', 0, 1.625, 2.625),
        op(1, 0, 'B', 0, 2.625, 3.625),
        op(0, 0, 'B', 0, 4.0, 5.0),
        Event::exec(
            5.5,
            EventKind::Allreduce {
                stage: 0,
                bytes: 1e9,
                ring: 2,
                seconds: 0.5,
            },
        ),
        Event::exec(
            5.75,
            EventKind::Allreduce {
                stage: 1,
                bytes: 1e9,
                ring: 2,
                seconds: 0.25,
            },
        ),
        Event::manager(
            6.0,
            EventKind::LostWork {
                minibatches: 1,
                seconds: 0.5,
            },
        ),
    ]);
}

#[test]
fn allreduce_only_stage_gets_a_synthetic_lane() {
    let events = [Event::exec(
        2.0,
        EventKind::Allreduce {
            stage: 3,
            bytes: 1e9,
            ring: 4,
            seconds: 0.5,
        },
    )];
    assert_fold_matches_reference(&events);
    let r = profile(&events);
    assert_eq!(r.lanes.len(), 1);
    assert_eq!((r.lanes[0].stage, r.lanes[0].replica), (3, 0));
}

const MAX_P: usize = 4;

/// Dependency-consistent GPipe schedule, replica by replica: forwards
/// chain down the pipeline, backwards chain back up, every op starting
/// exactly when its latest prerequisite ends. Per-stage allreduces and
/// `LostWork` control events follow the data plane.
fn gpipe_stream(
    p: usize,
    d: usize,
    n_micro: usize,
    fwd: &[f64],
    bwd: &[f64],
    ctrl: &[(f64, f64)],
) -> Vec<Event> {
    let mut events = Vec::new();
    for r in 0..d {
        let mut lane_free = vec![0.0f64; p];
        // Per micro-batch, the end of its forward at each stage.
        let mut f_end: Vec<Vec<f64>> = Vec::with_capacity(n_micro);
        for m in 0..n_micro {
            let mut row = vec![0.0f64; p];
            for s in 0..p {
                let start = lane_free[s].max(if s == 0 { 0.0 } else { row[s - 1] });
                lane_free[s] = start + fwd[s];
                row[s] = lane_free[s];
                events.push(op(s, r, 'F', m, start, lane_free[s]));
            }
            f_end.push(row);
        }
        for (m, f_row) in f_end.iter().enumerate() {
            let mut b_next = f_row[p - 1];
            for s in (0..p).rev() {
                let start = lane_free[s].max(b_next);
                lane_free[s] = start + bwd[s];
                b_next = lane_free[s];
                events.push(op(s, r, 'B', m, start, lane_free[s]));
            }
        }
    }
    let end = events.iter().map(|e| e.t_sim).fold(0.0f64, f64::max);
    for s in 0..p {
        events.push(Event::exec(
            end + 1.0 + s as f64 * 0.25,
            EventKind::Allreduce {
                stage: s,
                bytes: 1e9,
                ring: 2,
                seconds: 0.5,
            },
        ));
    }
    let mut t = end + 2.0;
    for &(dt, seconds) in ctrl {
        t += dt;
        events.push(Event::manager(
            t,
            EventKind::LostWork {
                minibatches: 1,
                seconds,
            },
        ));
    }
    events
}

/// Fisher-Yates with a xorshift stream.
fn shuffle(events: &mut [Event], mut seed: u64) {
    for i in (1..events.len()).rev() {
        seed |= 1;
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        events.swap(i, (seed % (i as u64 + 1)) as usize);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fold reproduces the batch reference byte for byte whatever
    /// order the events arrive in, with zero violations, and its report
    /// keeps the sum-to-makespan and downtime identities.
    #[test]
    fn fold_matches_reference_bytes_in_any_arrival_order(
        p in 1usize..MAX_P + 1,
        d in 1usize..4,
        n_micro in 1usize..6,
        fwd in vec(0.01f64..1.0, MAX_P..MAX_P + 1),
        bwd in vec(0.01f64..1.0, MAX_P..MAX_P + 1),
        n_ctrl in 0usize..4,
        ctrl_dts in vec(0.1f64..5.0, 4..5),
        ctrl_secs in vec(0.0f64..3.0, 4..5),
        seed in any::<u64>(),
    ) {
        let ctrl: Vec<(f64, f64)> = (0..n_ctrl).map(|i| (ctrl_dts[i], ctrl_secs[i])).collect();
        let mut events = gpipe_stream(p, d, n_micro, &fwd[..p], &bwd[..p], &ctrl);
        shuffle(&mut events, seed);

        let mut fold = StreamingProfiler::default();
        for e in &events {
            fold.observe(e);
        }
        prop_assert_eq!(fold.counters().violations(), 0);
        let r = fold.into_partial().into_report();
        prop_assert_eq!(r.to_json(), reference_profile(&events).to_json());

        let tol = 1e-9 * r.makespan.max(1.0);
        for lane in &r.lanes {
            prop_assert!(
                (lane.total() - r.makespan).abs() <= tol,
                "lane ({}, {}) total {} vs makespan {}",
                lane.stage,
                lane.replica,
                lane.total(),
                r.makespan
            );
            prop_assert!(lane.warmup >= 0.0 && lane.stall >= 0.0 && lane.drain >= 0.0);
        }
        let dt = &r.downtime;
        prop_assert!(
            (dt.useful_seconds + dt.downtime_seconds() - r.makespan).abs() <= tol,
            "useful {} + downtime {} != makespan {}",
            dt.useful_seconds,
            dt.downtime_seconds(),
            r.makespan
        );
    }
}
