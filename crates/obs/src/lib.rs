#![warn(missing_docs)]
//! Unified observability for the Varuna reproduction.
//!
//! Every subsystem — the discrete-event emulator (`varuna-exec`), the spot
//! cluster substrate (`varuna-cluster`), the manager (`varuna` core), and
//! the miniature training engine (`varuna-train`) — reports what it does
//! through one structured [`Event`] stream instead of each keeping its own
//! ad-hoc recorder. Consumers plug [`EventSink`]s into an [`EventBus`]:
//!
//! - [`VecSink`] buffers events in memory (tests, exporters),
//! - [`RingBufferSink`] keeps only the newest `N` (flight recorder),
//! - [`JsonlSink`] streams one JSON object per line to a writer,
//! - [`NullSink`] discards everything while keeping the wiring in place.
//!
//! With no enabled sink attached the bus is inert: producers guard every
//! emission with [`EventBus::emit_with`], so no payload is even
//! constructed and the emulator's hot loop stays within noise of its
//! bus-free wall-clock (verified by the criterion benches).
//!
//! On top of the event stream sit a [`MetricsRegistry`] (counters, gauges,
//! fixed-bucket histograms, snapshot-able to one JSON document), a
//! `chrome://tracing` exporter ([`chrome_trace_json`]) whose output loads
//! directly in Perfetto, the [`BenchReport`] schema the bench binaries
//! emit as `BENCH_*.json`, and the time-attribution profiler that
//! decomposes a stream into compute, communication, bubble, and downtime,
//! with a critical path that names the bottleneck stage. Attribution is
//! one fold, [`StreamingProfiler`]: [`profile()`] runs it over a whole
//! capture, a [`StreamSink`] runs it live on a bus, and `varuna-profile`
//! (its CLI front-end) runs it over a file or a growing capture.

pub mod attrib;
pub mod bus;
pub mod chrome_trace;
pub mod event;
pub mod metrics;
pub mod profile;
#[cfg(test)]
mod reference;
pub mod report;
pub mod stream;

pub use attrib::{downtime, CriticalPath, DowntimeProfile};
pub use bus::{EventBus, EventSink, JsonlSink, NullSink, RingBufferSink, VecSink};
pub use chrome_trace::{chrome_trace_json, events_from_chrome_trace};
pub use event::{Event, EventKind, Source};
pub use metrics::{Histogram, MetricsRegistry};
pub use profile::{
    events_from_jsonl, profile, LaneProfile, ProfileReport, ProfileSpan, StageProfile,
    PROFILE_SCHEMA,
};
pub use report::{BenchReport, REPORT_SCHEMA};
pub use stream::{
    spawn_http, PartialReport, StreamConfig, StreamCounters, StreamSink, StreamingProfiler,
};
