//! The event bus and its pluggable sinks.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::{Arc, Mutex};

use crate::event::Event;

/// A consumer of the event stream.
///
/// Sinks own no thread and see events synchronously, in emission order.
/// A sink that reports `enabled() == false` never receives events and,
/// when no enabled sink is attached, producers skip constructing payloads
/// entirely (see [`EventBus::emit_with`]).
pub trait EventSink {
    /// Consumes one event.
    fn record(&mut self, event: &Event);

    /// Whether this sink wants events at all. [`NullSink`] returns
    /// `false`, letting a wired-but-silent bus cost nothing.
    fn enabled(&self) -> bool {
        true
    }

    /// Flushes any buffered output (no-op by default).
    fn flush(&mut self) {}
}

/// Fans events out to the attached sinks.
#[derive(Default)]
pub struct EventBus {
    sinks: Vec<Box<dyn EventSink>>,
}

impl EventBus {
    /// An empty (inert) bus.
    pub fn new() -> Self {
        EventBus::default()
    }

    /// A bus with one sink attached.
    pub fn with_sink(sink: Box<dyn EventSink>) -> Self {
        let mut bus = EventBus::new();
        bus.add_sink(sink);
        bus
    }

    /// Attaches a sink.
    pub fn add_sink(&mut self, sink: Box<dyn EventSink>) {
        self.sinks.push(sink);
    }

    /// Whether any attached sink wants events. Producers use this (via
    /// [`EventBus::emit_with`]) to skip payload construction on inert
    /// buses — the emulator's hot loop depends on it.
    pub fn is_active(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    /// Delivers an already-built event to every enabled sink.
    pub fn emit(&mut self, event: Event) {
        for sink in &mut self.sinks {
            if sink.enabled() {
                sink.record(&event);
            }
        }
    }

    /// Builds the event lazily and delivers it — the closure never runs
    /// when no enabled sink is attached.
    pub fn emit_with(&mut self, build: impl FnOnce() -> Event) {
        if self.is_active() {
            self.emit(build());
        }
    }

    /// Flushes every sink.
    pub fn flush(&mut self) {
        for sink in &mut self.sinks {
            sink.flush();
        }
    }
}

/// Discards every event while keeping the bus wired. Reports
/// `enabled() == false`, so producers skip even building payloads.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn record(&mut self, _event: &Event) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Buffers every event in memory behind a shared handle: clone the sink
/// before boxing it into the bus, then read the events back through the
/// clone.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl VecSink {
    /// An empty buffer.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("sink lock").len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains and returns the buffered events.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("sink lock"))
    }

    /// Clones the buffered events without draining.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.lock().expect("sink lock").clone()
    }
}

impl EventSink for VecSink {
    fn record(&mut self, event: &Event) {
        self.events.lock().expect("sink lock").push(event.clone());
    }
}

/// A flight recorder: keeps only the newest `capacity` events. Shares its
/// buffer the same way [`VecSink`] does.
#[derive(Debug, Clone)]
pub struct RingBufferSink {
    events: Arc<Mutex<VecDeque<Event>>>,
    capacity: usize,
}

impl RingBufferSink {
    /// A ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a ring buffer needs room for one event");
        RingBufferSink {
            events: Arc::new(Mutex::new(VecDeque::with_capacity(capacity))),
            capacity,
        }
    }

    /// Number of buffered events (at most the capacity).
    pub fn len(&self) -> usize {
        self.events.lock().expect("sink lock").len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The surviving (newest) events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events
            .lock()
            .expect("sink lock")
            .iter()
            .cloned()
            .collect()
    }
}

impl EventSink for RingBufferSink {
    fn record(&mut self, event: &Event) {
        let mut q = self.events.lock().expect("sink lock");
        if q.len() == self.capacity {
            q.pop_front();
        }
        q.push_back(event.clone());
    }
}

/// Streams events as JSON Lines — one `Event` object per line — to any
/// writer.
pub struct JsonlSink<W: Write> {
    writer: W,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) a JSONL file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(JsonlSink {
            writer: BufWriter::new(File::create(path)?),
        })
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer }
    }

    /// Consumes the sink, flushing and returning the writer.
    ///
    /// # Errors
    ///
    /// Propagates flush failures.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn record(&mut self, event: &Event) {
        let line = serde_json::to_string(event).expect("events always serialize");
        // I/O failures surface on flush; dropping mid-stream events keeps
        // the producer's hot path free of Result plumbing.
        let _ = writeln!(self.writer, "{line}");
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(t: f64, vm: u64) -> Event {
        Event::cluster(t, EventKind::Preemption { vm })
    }

    #[test]
    fn empty_bus_is_inert_and_skips_payload_construction() {
        let mut bus = EventBus::new();
        assert!(!bus.is_active());
        bus.emit_with(|| panic!("payload must not be built on an inert bus"));
    }

    #[test]
    fn null_sink_keeps_the_bus_inert() {
        let mut bus = EventBus::with_sink(Box::new(NullSink));
        assert!(!bus.is_active());
        bus.emit_with(|| panic!("payload must not be built for NullSink"));
        // Direct emit is also harmless.
        bus.emit(ev(0.0, 1));
    }

    #[test]
    fn vec_sink_buffers_in_order() {
        let sink = VecSink::new();
        let mut bus = EventBus::with_sink(Box::new(sink.clone()));
        assert!(bus.is_active());
        for i in 0..5 {
            bus.emit(ev(i as f64, i));
        }
        let events = sink.take();
        assert_eq!(events.len(), 5);
        assert!(events.windows(2).all(|w| w[0].t_sim < w[1].t_sim));
        assert!(sink.is_empty(), "take drains the buffer");
    }

    #[test]
    fn ring_buffer_keeps_only_the_newest() {
        let sink = RingBufferSink::new(3);
        let mut bus = EventBus::with_sink(Box::new(sink.clone()));
        for i in 0..10u64 {
            bus.emit(ev(i as f64, i));
        }
        let events = sink.snapshot();
        assert_eq!(events.len(), 3);
        let vms: Vec<f64> = events.iter().map(|e| e.t_sim).collect();
        assert_eq!(vms, vec![7.0, 8.0, 9.0]);
    }

    #[test]
    fn jsonl_sink_writes_one_object_per_line() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&ev(1.0, 7));
        sink.record(&ev(2.0, 8));
        let bytes = sink.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let back: Event = serde_json::from_str(line).unwrap();
            assert!(matches!(back.kind, EventKind::Preemption { .. }));
        }
    }

    #[test]
    fn multiple_sinks_all_receive() {
        let a = VecSink::new();
        let b = RingBufferSink::new(2);
        let mut bus = EventBus::new();
        bus.add_sink(Box::new(a.clone()));
        bus.add_sink(Box::new(b.clone()));
        bus.add_sink(Box::new(NullSink));
        for i in 0..4u64 {
            bus.emit_with(|| ev(i as f64, i));
        }
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 2);
    }
}
