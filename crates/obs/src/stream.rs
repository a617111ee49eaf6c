//! The attribution engine: one incremental fold over an event stream.
//!
//! A [`StreamingProfiler`] folds events as they arrive, holding
//! `O(stages × replicas)` lane state plus a reorder window of pending
//! intervals instead of `O(events)`, and its [`PartialReport`] closes that
//! state into a [`ProfileReport`] at any point. [`profile`](crate::profile())
//! is this fold over a whole capture with an unbounded window; a
//! [`StreamSink`] runs it live on a bus, and `varuna-profile --follow`
//! runs it over a growing capture.
//!
//! # Why a finite window is exact
//!
//! Three observations carry the design:
//!
//! 1. **Lanes fold in sorted order.** Pending intervals fold in `(start,
//!    end)` key order once their start falls a window behind the stream's
//!    high-water mark. On a time-ordered stream whose intervals are
//!    shorter than the window, that is the order an unbounded window
//!    (which folds everything at seal time) would use.
//! 2. **No makespan clipping.** Every interval's end is itself a makespan
//!    candidate, so no well-formed interval reaches past the makespan and
//!    the fold never needs it until the report is closed.
//! 3. **The critical path folds forward.** An op's candidate predecessors
//!    (the previous op on its own `(stage, replica)` lane, the same-micro
//!    forward one stage upstream, the same-micro backward one stage
//!    downstream) end before it starts, so they fold before it does. Each
//!    op extends its binding predecessor's chain summary; the chain of
//!    the last op to finish is the critical path.
//!
//! Everything the stream cannot prove incrementally is *counted, never
//! silent*: late arrivals, lanes first seen after their stage's allreduce
//! folded, duplicate op keys, malformed intervals ([`StreamCounters`]).
//! The proptests pin that a finite window with zero
//! [`StreamCounters::violations`] reproduces the unbounded report
//! byte-for-byte.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};

use serde::Serialize;

use crate::attrib::{finish_critical_path, ChainSummary, DowntimeAcc};
use crate::bus::EventSink;
use crate::event::{Event, EventKind};
use crate::profile::{
    assemble_report, BusyKind, LaneFold, LaneProfile, ProfileReport, ProfileSpan,
};

const EPS: f64 = 1e-9;

/// Configuration of the streaming profiler: the reorder window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Reorder window, seconds of stream time. A pending interval folds
    /// once its start falls `window_seconds` behind the high-water mark.
    /// The default (`f64::INFINITY`) folds everything at seal time —
    /// exact for *any* input order, at `O(events)` pending cost; any
    /// finite window larger than the stream's worst-case interval length
    /// plus reordering is exact for time-ordered streams and bounds the
    /// pending buffer. Critical-path predecessor summaries still
    /// unconsumed four windows later are pruned (and counted), which
    /// bounds the dependency table on endless streams.
    pub window_seconds: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            window_seconds: f64::INFINITY,
        }
    }
}

impl StreamConfig {
    /// Age, seconds, past which unconsumed predecessor summaries are
    /// pruned: four windows (never, for the unbounded default).
    fn prune_inflight_after(&self) -> f64 {
        self.window_seconds * 4.0
    }
}

/// Accounting the streaming pass keeps about itself.
///
/// `violations()` totals the conditions under which a windowed fold is no
/// longer guaranteed to match the unbounded one — the CI smoke gate pins
/// it at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct StreamCounters {
    /// Events observed.
    pub events: usize,
    /// Intervals that arrived after their window had already folded.
    pub late_events: usize,
    /// Lanes first seen after one of their stage's allreduces folded.
    pub late_allreduce_lanes: usize,
    /// Duplicate `(stage, replica, op, micro)` op keys observed.
    pub dup_op_keys: usize,
    /// Intervals with non-finite or negative-start bounds.
    pub irregular_intervals: usize,
    /// Unconsumed predecessor summaries dropped by the prune horizon
    /// (memory bound; exactness still holds unless a pruned entry would
    /// have been referenced).
    pub pruned_inflight: usize,
    /// Peak pending-buffer size.
    pub peak_pending: usize,
    /// Peak dependency-table size.
    pub peak_inflight: usize,
    /// Peak total resident state ([`StreamingProfiler::resident`]).
    pub peak_resident: usize,
}

impl StreamCounters {
    /// Conditions under which a windowed fold is no longer guaranteed to
    /// match the unbounded one.
    pub fn violations(&self) -> usize {
        self.late_events + self.late_allreduce_lanes + self.dup_op_keys + self.irregular_intervals
    }
}

/// `f64` with a total order, usable in a sort key.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Tf64(f64);

impl Eq for Tf64 {}

impl PartialOrd for Tf64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tf64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Pending-buffer key. The ordering — `(start, end, class, seq)` — folds
/// a lane's intervals by time, data intervals (`class` 0) before
/// allreduces (`class` 1) at equal bounds, and in arrival order (`seq`)
/// after that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct PendKey {
    start: Tf64,
    end: Tf64,
    class: u8,
    seq: u64,
}

/// A pending interval. The heap orders it by key alone, smallest key
/// on top (`BinaryHeap` is a max-heap, so the order is reversed).
#[derive(Debug, Clone)]
struct Pending(PendKey, Pend);

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.cmp(&self.0)
    }
}

#[derive(Debug, Clone)]
enum Pend {
    /// An op interval (`OpEnd`): lane fold + critical-path walk. `start`
    /// in the key is clamped to 0 (lane-sweep semantics); `raw_start`
    /// keeps the unclamped value the critical path charges.
    Op {
        stage: usize,
        replica: usize,
        kind: BusyKind,
        raw_start: f64,
        op: char,
        micro: usize,
    },
    /// A blocked-send interval: lane fold only.
    Send { stage: usize, replica: usize },
    /// A per-stage allreduce: folds into every known lane of the stage
    /// plus the stage's synthetic-lane candidate (all replicas take part
    /// at once).
    Allreduce { stage: usize },
}

/// Per-lane streaming state: the shared cursor sweep plus the last op's
/// chain summary (the lane-predecessor candidate for the next op).
#[derive(Debug, Clone, Default, PartialEq)]
struct LaneState {
    fold: LaneFold,
    ops: usize,
    last_op: Option<ChainSummary>,
}

/// The terminal candidate for the critical path: the last op to finish,
/// ties broken toward the lowest `(stage, replica, micro)`, so the pick
/// does not depend on fold order.
#[derive(Debug, Clone, PartialEq)]
struct Terminal {
    end: f64,
    stage: usize,
    replica: usize,
    micro: usize,
    chain: ChainSummary,
}

/// The streaming profiler's state over the events seen so far.
///
/// `report`/`into_report` close the stream at the current makespan, so
/// every intermediate partial satisfies the same sum-to-makespan and
/// downtime identities the final report does.
#[derive(Debug, Clone)]
pub struct PartialReport {
    cfg: StreamConfig,
    makespan: f64,
    pipeline_end: f64,
    high_water: f64,
    max_op_stage: usize,
    seq: u64,
    frontier: Option<PendKey>,
    pending: BinaryHeap<Pending>,
    lanes: BTreeMap<(usize, usize), LaneState>,
    /// Per stage, the replica-0 lane an allreduce-only stage reports
    /// (used at finish only if the stage has no real lanes).
    synth: BTreeMap<usize, LaneFold>,
    /// Stages with at least one folded allreduce.
    folded_ars: BTreeSet<usize>,
    inflight: BTreeMap<(usize, usize, char, usize), ChainSummary>,
    prune_watermark: usize,
    terminal: Option<Terminal>,
    transfer_seconds: f64,
    transfer_out: BTreeMap<usize, f64>,
    downtime: DowntimeAcc,
    counters: StreamCounters,
}

impl PartialReport {
    fn new(cfg: StreamConfig) -> Self {
        PartialReport {
            cfg,
            makespan: 0.0,
            pipeline_end: 0.0,
            high_water: 0.0,
            max_op_stage: 0,
            seq: 0,
            frontier: None,
            pending: BinaryHeap::new(),
            lanes: BTreeMap::new(),
            synth: BTreeMap::new(),
            folded_ars: BTreeSet::new(),
            inflight: BTreeMap::new(),
            prune_watermark: 64,
            terminal: None,
            transfer_seconds: 0.0,
            transfer_out: BTreeMap::new(),
            downtime: DowntimeAcc::default(),
            counters: StreamCounters::default(),
        }
    }

    /// The streaming counters accumulated so far.
    pub fn counters(&self) -> &StreamCounters {
        &self.counters
    }

    /// The stream's makespan so far.
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// Events consumed so far.
    pub fn events(&self) -> usize {
        self.counters.events
    }

    /// Resident state entries (pending + dependency table + lanes +
    /// synthetic lanes) — the quantity that stays bounded.
    pub fn resident(&self) -> usize {
        self.pending.len() + self.inflight.len() + self.lanes.len() + self.synth.len()
    }

    fn touch_lane(&mut self, stage: usize, replica: usize) -> &mut LaneState {
        if !self.lanes.contains_key(&(stage, replica)) && self.folded_ars.contains(&stage) {
            self.counters.late_allreduce_lanes += 1;
        }
        self.lanes.entry((stage, replica)).or_default()
    }

    fn push_pend(&mut self, start: f64, end: f64, class: u8, pend: Pend) {
        let key = PendKey {
            start: Tf64(start),
            end: Tf64(end),
            class,
            seq: self.seq,
        };
        self.seq += 1;
        if let Some(f) = &self.frontier {
            if key < *f {
                self.counters.late_events += 1;
            }
        }
        self.pending.push(Pending(key, pend));
    }

    fn observe(&mut self, e: &Event) {
        self.counters.events += 1;
        match &e.kind {
            EventKind::OpEnd {
                stage,
                replica,
                op,
                micro,
                start,
            } => {
                let end = e.t_sim;
                if end.is_finite() {
                    self.makespan = self.makespan.max(end);
                    self.high_water = self.high_water.max(end);
                    self.pipeline_end = self.pipeline_end.max(end);
                }
                self.max_op_stage = self.max_op_stage.max(*stage);
                if !(start.is_finite() && end.is_finite()) {
                    self.counters.irregular_intervals += 1;
                } else {
                    if *start < 0.0 {
                        self.counters.irregular_intervals += 1;
                    }
                    let kind = match op {
                        'F' => BusyKind::Forward,
                        'R' => BusyKind::Recompute,
                        _ => BusyKind::Backward,
                    };
                    self.touch_lane(*stage, *replica).ops += 1;
                    self.push_pend(
                        start.max(0.0),
                        end,
                        0,
                        Pend::Op {
                            stage: *stage,
                            replica: *replica,
                            kind,
                            raw_start: *start,
                            op: *op,
                            micro: *micro,
                        },
                    );
                }
            }
            EventKind::SendBusy {
                stage,
                replica,
                seconds,
                ..
            } => {
                let start = e.t_sim.max(0.0);
                let end = e.t_sim + seconds;
                if e.t_sim.is_finite() {
                    self.high_water = self.high_water.max(e.t_sim);
                }
                if end.is_finite() {
                    self.makespan = self.makespan.max(end);
                }
                if !(start.is_finite() && end.is_finite()) {
                    self.counters.irregular_intervals += 1;
                } else {
                    if e.t_sim < 0.0 {
                        self.counters.irregular_intervals += 1;
                    }
                    self.touch_lane(*stage, *replica);
                    self.push_pend(
                        start,
                        end,
                        0,
                        Pend::Send {
                            stage: *stage,
                            replica: *replica,
                        },
                    );
                }
            }
            EventKind::Allreduce { stage, seconds, .. } => {
                if e.t_sim.is_finite() {
                    self.makespan = self.makespan.max(e.t_sim);
                    self.high_water = self.high_water.max(e.t_sim);
                }
                let start = (e.t_sim - seconds).max(0.0);
                if !(start.is_finite() && e.t_sim.is_finite()) {
                    self.counters.irregular_intervals += 1;
                } else {
                    self.push_pend(start, e.t_sim, 1, Pend::Allreduce { stage: *stage });
                }
            }
            EventKind::Transfer {
                from_stage,
                seconds,
                ..
            } => {
                if e.t_sim.is_finite() {
                    self.high_water = self.high_water.max(e.t_sim);
                }
                let end = e.t_sim + seconds;
                if end.is_finite() {
                    self.makespan = self.makespan.max(end);
                }
                self.transfer_seconds += seconds;
                *self.transfer_out.entry(*from_stage).or_default() += seconds;
            }
            _ => {
                if e.t_sim.is_finite() {
                    self.makespan = self.makespan.max(e.t_sim);
                    self.high_water = self.high_water.max(e.t_sim);
                }
                self.downtime.observe(e);
            }
        }
        self.advance();
    }

    /// Folds pending intervals whose window has passed, then updates
    /// peaks.
    fn advance(&mut self) {
        if self.cfg.window_seconds.is_finite() {
            let cut = self.high_water - self.cfg.window_seconds;
            while self.pending.peek().is_some_and(|p| p.0.start.0 <= cut) {
                let Pending(k, p) = self.pending.pop().expect("checked non-empty");
                self.fold_pend(k, p);
            }
        }
        self.counters.peak_pending = self.counters.peak_pending.max(self.pending.len());
        self.counters.peak_inflight = self.counters.peak_inflight.max(self.inflight.len());
        self.counters.peak_resident = self.counters.peak_resident.max(self.resident());
    }

    /// Folds every pending interval (stream end).
    fn seal(&mut self) {
        let mut all = std::mem::take(&mut self.pending).into_vec();
        all.sort_unstable_by_key(|p| p.0);
        for Pending(k, p) in all {
            self.fold_pend(k, p);
        }
        self.counters.peak_inflight = self.counters.peak_inflight.max(self.inflight.len());
        self.counters.peak_resident = self.counters.peak_resident.max(self.resident());
    }

    fn fold_pend(&mut self, key: PendKey, pend: Pend) {
        self.frontier = Some(key);
        match pend {
            Pend::Op {
                stage,
                replica,
                kind,
                raw_start,
                op,
                micro,
            } => {
                let lane = self
                    .lanes
                    .get_mut(&(stage, replica))
                    .expect("lane created at pend time");
                lane.fold.push(key.start.0, key.end.0, kind);
                self.walk_op(ProfileSpan {
                    stage,
                    replica,
                    op,
                    micro,
                    start: raw_start,
                    end: key.end.0,
                });
            }
            Pend::Send { stage, replica } => {
                let lane = self
                    .lanes
                    .get_mut(&(stage, replica))
                    .expect("lane created at pend time");
                lane.fold.push(key.start.0, key.end.0, BusyKind::Send);
            }
            Pend::Allreduce { stage } => {
                let keys: Vec<(usize, usize)> = self
                    .lanes
                    .range((stage, 0)..(stage + 1, 0))
                    .map(|(k, _)| *k)
                    .collect();
                for k in keys {
                    self.lanes
                        .get_mut(&k)
                        .expect("ranged key exists")
                        .fold
                        .push(key.start.0, key.end.0, BusyKind::Allreduce);
                }
                self.synth.entry(stage).or_default().push(
                    key.start.0,
                    key.end.0,
                    BusyKind::Allreduce,
                );
                self.folded_ars.insert(stage);
            }
        }
    }

    /// One step of the incremental critical path: bind the op to its
    /// latest-finishing predecessor that ended by its start (ties break
    /// toward the lowest `(stage, replica)`) and extend that
    /// predecessor's chain summary; an op with none starts a new chain.
    fn walk_op(&mut self, s: ProfileSpan) {
        // Consume-on-lookup: each F/B key has exactly one possible
        // dependent (this op), so the entry is dead after this lookup
        // whether or not it wins.
        let fpred = if s.op == 'F' && s.stage > 0 {
            self.inflight
                .remove(&(s.stage - 1, s.replica, 'F', s.micro))
        } else {
            None
        };
        let bpred = if s.op == 'B' {
            self.inflight
                .remove(&(s.stage + 1, s.replica, 'B', s.micro))
        } else {
            None
        };
        let lane_pred = self
            .lanes
            .get(&(s.stage, s.replica))
            .and_then(|l| l.last_op.as_ref());

        let mut best: Option<(f64, (usize, usize), &ChainSummary)> = None;
        let candidates = [
            (lane_pred, (s.stage, s.replica)),
            (fpred.as_ref(), (s.stage.wrapping_sub(1), s.replica)),
            (bpred.as_ref(), (s.stage + 1, s.replica)),
        ];
        for (cand, sr) in candidates {
            let Some(c) = cand else { continue };
            if c.end <= s.start + EPS {
                let better = match &best {
                    None => true,
                    Some((be, bsr, _)) => c.end > *be || (c.end == *be && sr < *bsr),
                };
                if better {
                    best = Some((c.end, sr, c));
                }
            }
        }
        let chain = match best {
            Some((_, _, c)) => c.extend(&s),
            None => ChainSummary::leaf(&s),
        };

        if (s.op == 'F' || (s.op == 'B' && s.stage > 0))
            && self
                .inflight
                .insert((s.stage, s.replica, s.op, s.micro), chain.clone())
                .is_some()
        {
            self.counters.dup_op_keys += 1;
        }
        self.lanes
            .get_mut(&(s.stage, s.replica))
            .expect("lane created at pend time")
            .last_op = Some(chain.clone());

        let better = match &self.terminal {
            None => true,
            Some(t) => {
                s.end > t.end
                    || (s.end == t.end
                        && (s.stage, s.replica, s.micro) < (t.stage, t.replica, t.micro))
            }
        };
        if better {
            self.terminal = Some(Terminal {
                end: s.end,
                stage: s.stage,
                replica: s.replica,
                micro: s.micro,
                chain,
            });
        }

        // Amortized prune of never-consumed predecessors (last-stage
        // forwards, truncated streams) — the dependency table's memory
        // bound on endless streams.
        let horizon = self.cfg.prune_inflight_after();
        if horizon.is_finite() && self.inflight.len() >= self.prune_watermark {
            let cutoff = s.start - horizon;
            let before = self.inflight.len();
            self.inflight.retain(|_, c| c.end >= cutoff);
            self.counters.pruned_inflight += before - self.inflight.len();
            self.prune_watermark = (self.inflight.len() * 2).max(64);
        }
    }

    /// Closes the stream at the current makespan and produces the full
    /// report. For a finite window, byte-identical to `profile(&events)`
    /// over the same events whenever [`StreamCounters::violations`] is
    /// zero.
    pub fn into_report(mut self) -> ProfileReport {
        self.seal();
        let makespan = self.makespan;

        // Real lanes, plus each allreduce-only stage's synthetic
        // replica-0 lane, so its allreduce time is still visible.
        let mut all: BTreeMap<(usize, usize), (LaneFold, usize)> = self
            .lanes
            .into_iter()
            .map(|(k, ls)| (k, (ls.fold, ls.ops)))
            .collect();
        for (stage, fold) in self.synth {
            if all.range((stage, 0)..(stage + 1, 0)).next().is_none() {
                all.insert((stage, 0), (fold, 0));
            }
        }
        let lanes: Vec<LaneProfile> = all
            .into_iter()
            .map(|((stage, replica), (fold, ops))| fold.finish(stage, replica, ops, makespan))
            .collect();

        let critical_path = self
            .terminal
            .map(|t| finish_critical_path(t.chain, t.end, self.max_op_stage));

        assemble_report(
            self.counters.events,
            makespan,
            self.pipeline_end,
            lanes,
            self.transfer_seconds,
            &self.transfer_out,
            critical_path,
            self.downtime.finish(makespan),
        )
    }

    /// Non-destructive [`PartialReport::into_report`] (clones the state;
    /// the live `--follow` surface calls this per poll).
    pub fn report(&self) -> ProfileReport {
        self.clone().into_report()
    }
}

/// Incremental profiler over one event stream.
///
/// Feed events with [`observe`](StreamingProfiler::observe), then close
/// the [`PartialReport`] into a report; [`profile`](crate::profile()) is
/// exactly that with the default (unbounded) configuration.
#[derive(Debug, Clone)]
pub struct StreamingProfiler {
    part: PartialReport,
}

impl Default for StreamingProfiler {
    fn default() -> Self {
        StreamingProfiler::new(StreamConfig::default())
    }
}

impl StreamingProfiler {
    /// A profiler with the given window/bounds configuration.
    pub fn new(cfg: StreamConfig) -> Self {
        StreamingProfiler {
            part: PartialReport::new(cfg),
        }
    }

    /// Consumes one event.
    pub fn observe(&mut self, e: &Event) {
        self.part.observe(e);
    }

    /// Resident state entries — bounded by the window, not the stream.
    pub fn resident(&self) -> usize {
        self.part.resident()
    }

    /// The streaming counters accumulated so far.
    pub fn counters(&self) -> &StreamCounters {
        self.part.counters()
    }

    /// Clones the current state.
    pub fn snapshot(&self) -> PartialReport {
        self.part.clone()
    }

    /// Consumes the profiler, yielding its state.
    pub fn into_partial(self) -> PartialReport {
        self.part
    }

    /// The report as of now (non-destructive).
    pub fn report(&self) -> ProfileReport {
        self.part.report()
    }
}

/// An [`EventSink`] wrapping a shared [`StreamingProfiler`] — clone it
/// before boxing into a bus, then read the state back through the clone.
#[derive(Debug, Clone)]
pub struct StreamSink {
    inner: Arc<Mutex<StreamingProfiler>>,
    cfg: StreamConfig,
}

impl StreamSink {
    /// A streaming sink with the given configuration.
    pub fn new(cfg: StreamConfig) -> Self {
        StreamSink {
            inner: Arc::new(Mutex::new(StreamingProfiler::new(cfg))),
            cfg,
        }
    }

    /// Takes the accumulated state, leaving a fresh profiler behind.
    pub fn take_partial(&self) -> PartialReport {
        std::mem::replace(
            &mut *self.inner.lock().expect("stream sink lock"),
            StreamingProfiler::new(self.cfg),
        )
        .into_partial()
    }
}

impl Default for StreamSink {
    fn default() -> Self {
        StreamSink::new(StreamConfig::default())
    }
}

impl EventSink for StreamSink {
    fn record(&mut self, event: &Event) {
        self.inner.lock().expect("stream sink lock").observe(event);
    }
}

/// Spawns the live HTTP surface: a std-only `TcpListener` serving the
/// shared partial's current state as JSON. Routes:
///
/// - `/report` — the full [`ProfileReport`]
/// - `/downtime` — just the downtime profile
/// - `/counters` — the [`StreamCounters`]
/// - `/healthz` — liveness
///
/// Returns the bound address (bind to port 0 for an ephemeral port). The
/// accept loop runs on a detached thread for the life of the process.
///
/// # Errors
///
/// Propagates bind failures.
pub fn spawn_http(addr: &str, state: Arc<Mutex<PartialReport>>) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                let _ = serve_one(stream, &state);
            });
        }
    });
    Ok(local)
}

fn serve_one(stream: TcpStream, state: &Mutex<PartialReport>) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers so the client can reuse well-formed HTTP.
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, body) = match path {
        "/report" => {
            let body = state.lock().expect("http state lock").report().to_json();
            ("200 OK", body)
        }
        "/downtime" => {
            let report = state.lock().expect("http state lock").report();
            let mut body =
                serde_json::to_string_pretty(&report.downtime).expect("downtime serializes");
            body.push('\n');
            ("200 OK", body)
        }
        "/counters" => {
            let mut body =
                serde_json::to_string_pretty(state.lock().expect("http state lock").counters())
                    .expect("counters serialize");
            body.push('\n');
            ("200 OK", body)
        }
        "/healthz" => ("200 OK", "{\"ok\": true}\n".to_string()),
        _ => ("404 Not Found", "{\"error\": \"not found\"}\n".to_string()),
    };
    let mut stream = reader.into_inner();
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile;

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

    #[test]
    fn finite_window_bounds_pending_and_stays_exact_on_ordered_streams() {
        let mut events = Vec::new();
        for m in 0..200usize {
            let t0 = m as f64 * 0.5;
            events.push(op(0, 0, 'F', m, t0, t0 + 0.25));
        }
        let mut p = StreamingProfiler::new(StreamConfig {
            window_seconds: 2.0,
        });
        for e in &events {
            p.observe(e);
        }
        let peak = p.counters().peak_pending;
        assert!(peak <= 8, "window must bound pending, got {peak}");
        assert_eq!(p.counters().violations(), 0);
        assert_eq!(
            p.into_partial().into_report().to_json(),
            profile(&events).to_json()
        );
    }

    #[test]
    fn intermediate_partials_keep_the_identities() {
        let events = vec![
            op(0, 0, 'F', 0, 0.0, 1.0),
            op(1, 0, 'F', 0, 1.0, 2.0),
            op(1, 0, 'B', 0, 2.0, 3.0),
            op(0, 0, 'B', 0, 3.0, 4.0),
        ];
        let mut p = StreamingProfiler::default();
        for e in &events {
            p.observe(e);
            let r = p.report();
            for lane in &r.lanes {
                assert!(
                    (lane.total() - r.makespan).abs() <= 1e-9 * r.makespan.max(1.0),
                    "intermediate lane identity"
                );
            }
            let dt = &r.downtime;
            assert!(
                (dt.useful_seconds + dt.downtime_seconds() - r.makespan).abs()
                    <= 1e-9 * r.makespan.max(1.0),
                "intermediate downtime identity"
            );
        }
    }

    #[test]
    fn late_events_are_counted_not_silent() {
        let mut p = StreamingProfiler::new(StreamConfig {
            window_seconds: 1.0,
        });
        p.observe(&op(0, 0, 'F', 0, 0.0, 0.5));
        p.observe(&op(0, 0, 'F', 1, 5.0, 5.5)); // folds the first
        p.observe(&op(0, 0, 'F', 2, 10.0, 10.5)); // folds the second
        p.observe(&op(0, 0, 'F', 3, 1.0, 1.5)); // behind the frontier
        assert_eq!(p.counters().late_events, 1);
        assert!(p.counters().violations() > 0);
    }

    #[test]
    fn http_surface_serves_report_and_downtime() {
        let mut p = StreamingProfiler::default();
        p.observe(&op(0, 0, 'F', 0, 0.0, 1.0));
        let state = Arc::new(Mutex::new(p.snapshot()));
        let addr = spawn_http("127.0.0.1:0", Arc::clone(&state)).unwrap();

        let get = |path: &str| -> (String, String) {
            let mut s = TcpStream::connect(addr).unwrap();
            write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut buf = String::new();
            use std::io::Read;
            s.read_to_string(&mut buf).unwrap();
            let (head, body) = buf.split_once("\r\n\r\n").unwrap();
            (head.to_string(), body.to_string())
        };

        let (head, body) = get("/report");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let report: ProfileReport = serde_json::from_str(&body).unwrap();
        assert_eq!(report.events, 1);
        let (head, _) = get("/downtime");
        assert!(head.starts_with("HTTP/1.1 200"));
        let (head, body) = get("/healthz");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(body.contains("ok"));
        let (head, _) = get("/nope");
        assert!(head.starts_with("HTTP/1.1 404"));
    }
}
