//! Adapters between the emulator and the `varuna-obs` event bus.
//!
//! The emulator no longer keeps a private trace recorder: it emits
//! [`varuna_obs::Event`]s, and the legacy [`OpSpan`] trace (Gantt charts,
//! Figure 7) is rebuilt by attaching a [`SpanCollector`] sink. Because
//! `OpEnd` events are emitted at exactly the point the old recorder pushed
//! spans, the collected trace is identical — order included — to what
//! [`simulate_minibatch`](crate::pipeline::simulate_minibatch) historically
//! returned.

use std::sync::{Arc, Mutex};

use varuna_obs::{Event, EventKind, EventSink};

use varuna_sched::op::{Op, OpKind, OpSpan};

/// Rebuilds the legacy per-op span trace from `OpEnd` events.
///
/// Clone the collector before boxing it into the bus, then read the spans
/// back through the clone:
///
/// ```
/// use varuna_obs::EventBus;
/// use varuna_exec::observe::SpanCollector;
///
/// let collector = SpanCollector::new();
/// let mut bus = EventBus::with_sink(Box::new(collector.clone()));
/// // ... run simulate_minibatch_on_bus(job, policies, opts, &mut bus) ...
/// let spans = collector.take();
/// # let _ = (bus, spans);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpanCollector {
    spans: Arc<Mutex<Vec<OpSpan>>>,
}

impl SpanCollector {
    /// An empty collector.
    pub fn new() -> Self {
        SpanCollector::default()
    }

    /// Drains and returns the collected spans, in event-arrival order.
    pub fn take(&self) -> Vec<OpSpan> {
        std::mem::take(&mut *self.spans.lock().expect("collector lock"))
    }

    /// Number of spans collected so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("collector lock").len()
    }

    /// Whether no spans were collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for SpanCollector {
    fn record(&mut self, event: &Event) {
        if let EventKind::OpEnd {
            stage,
            replica,
            op,
            micro,
            start,
        } = &event.kind
        {
            let kind = OpKind::from_code(*op).expect("emulator emits valid op codes");
            self.spans.lock().expect("collector lock").push(OpSpan {
                stage: *stage,
                replica: *replica,
                op: Op::new(kind, *micro),
                start: *start,
                end: event.t_sim,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use varuna_obs::EventBus;

    #[test]
    fn collector_rebuilds_spans_from_op_end_events() {
        let collector = SpanCollector::new();
        let mut bus = EventBus::with_sink(Box::new(collector.clone()));
        bus.emit(Event::exec(
            0.0,
            EventKind::OpStart {
                stage: 1,
                replica: 0,
                op: 'F',
                micro: 2,
            },
        ));
        bus.emit(Event::exec(
            0.5,
            EventKind::OpEnd {
                stage: 1,
                replica: 0,
                op: 'F',
                micro: 2,
                start: 0.0,
            },
        ));
        bus.emit(Event::exec(
            0.5,
            EventKind::Transfer {
                from_stage: 1,
                to_stage: 2,
                replica: 0,
                micro: 2,
                bytes: 1e6,
                seconds: 0.01,
            },
        ));
        let spans = collector.take();
        assert_eq!(spans.len(), 1, "only OpEnd events become spans");
        assert_eq!(spans[0].op, Op::new(OpKind::Forward, 2));
        assert_eq!(spans[0].start, 0.0);
        assert_eq!(spans[0].end, 0.5);
        assert!(collector.is_empty());
    }

    #[test]
    fn a_live_stream_sink_matches_the_profile_of_the_tape_on_a_real_minibatch() {
        use crate::job::PlacedJob;
        use crate::pipeline::{simulate_minibatch_on_bus, SimOptions};
        use crate::placement::Placement;
        use varuna_models::{CutpointGraph, GpuModel, ModelZoo};
        use varuna_net::Topology;
        use varuna_obs::{profile, StreamConfig, StreamSink, VecSink};
        use varuna_sched::policy::{GreedyPolicy, SchedulePolicy};

        let (p, d, n_micro) = (3, 2, 4);
        let graph = CutpointGraph::from_transformer(&ModelZoo::gpt2_2_5b());
        let job = PlacedJob::uniform_from_graph(
            &graph,
            &GpuModel::v100(),
            p,
            d,
            2,
            n_micro,
            Topology::commodity_1gpu(p * d),
            Placement::one_stage_per_gpu(p, d),
        );
        let greedy = |_: usize, _: usize| -> Box<dyn SchedulePolicy> { Box::new(GreedyPolicy) };

        let tape = VecSink::new();
        let live = StreamSink::new(StreamConfig::default());
        let mut bus = EventBus::with_sink(Box::new(tape.clone()));
        bus.add_sink(Box::new(live.clone()));
        simulate_minibatch_on_bus(&job, &greedy, &SimOptions::default(), &mut bus)
            .expect("minibatch simulates");

        let events = tape.take();
        assert!(!events.is_empty(), "emulator must emit events");
        let partial = live.take_partial();
        let counters = *partial.counters();
        assert_eq!(
            counters.violations(),
            0,
            "live emulator stream must profile cleanly: {counters:?}"
        );
        assert_eq!(
            partial.into_report().to_json(),
            profile(&events).to_json(),
            "live report must equal profile() of the tape byte-for-byte"
        );
    }
}
