//! The timeline: one bounded ring of completed span events, exported as
//! Chrome trace-event JSON.
//!
//! Aggregate counters (§ [`crate::MetricsRecorder`]) say *how much* time
//! the pipeline spends per stage; the timeline says *where across threads
//! and grains* it goes. Every [`crate::span`] that closes into a handle
//! carrying a [`Timeline`] becomes one [`TimelineEvent`] carrying
//! monotonic begin/end timestamps (nanoseconds since the timeline's
//! epoch), a dense in-process thread index, the span's nesting depth, and
//! its typed [`TimelineArgs`] (grain, events replayed, distinct blocks,
//! tree nodes, hierarchy name).
//!
//! ## One ring and its overflow policy
//!
//! Every writer appends to one mutex-guarded ring. Spans close once per
//! grain, sweep or report, never per access, so the lock is
//! taken a few times per grain and does not contend. The ring holds at
//! most `capacity` events: when full, the **oldest** event overall is
//! dropped, the [`Counter::TimelineDropped`](crate::Counter) counter of
//! the same handle's recorder ticks, and the push proceeds. A full
//! timeline therefore never blocks the pipeline and never grows past its
//! configured bound. One sequence number per timeline numbers the events
//! in push order, so sorting by `(begin_ns, thread, seq)` keeps each
//! writer's own order.
//!
//! Events are recorded only when a span *closes*, into the timeline of
//! the handle ([`crate::Obs`]) the closing thread reports to, so adding or
//! removing a timeline mid-run can never leave a half-open ("dangling")
//! event in the buffer: a span that closes after its scope ends is simply
//! not recorded, and one that opened before the timeline arrived is
//! recorded with its begin clamped to the timeline's epoch.
//!
//! # Examples
//!
//! ```
//! use reuselens_obs as obs;
//! use std::sync::Arc;
//!
//! let timeline = Arc::new(obs::Timeline::new());
//! let handle = obs::Obs {
//!     timeline: Some(timeline.clone()),
//!     ..obs::Obs::default()
//! };
//! {
//!     let _scope = handle.enter();
//!     let mut span = obs::span_with(obs::Stage::Replay, || obs::TimelineArgs {
//!         grain: Some(64),
//!         ..obs::TimelineArgs::default()
//!     });
//!     span.record(|args| args.events = Some(1024));
//! }
//!
//! let snapshot = timeline.snapshot();
//! assert_eq!(snapshot.events.len(), 1);
//! assert_eq!(snapshot.events[0].args.grain, Some(64));
//! assert!(obs::format_chrome_trace(&snapshot).contains("\"name\":\"replay\""));
//! ```

use crate::json::escape;
use crate::Stage;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Default bound on retained events.
const DEFAULT_CAPACITY: usize = 524_288;

/// Dense in-process thread indices: assigned once per thread, stable for
/// the thread's lifetime, and small enough to render as `tid`s in the
/// Chrome trace.
static NEXT_THREAD_INDEX: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_INDEX: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

/// This thread's dense index, assigned on first use.
fn thread_index() -> u64 {
    THREAD_INDEX.with(|slot| match slot.get() {
        Some(index) => index,
        None => {
            let index = NEXT_THREAD_INDEX.fetch_add(1, Ordering::Relaxed);
            slot.set(Some(index));
            index
        }
    })
}

/// Typed arguments attached to one span's timeline event. Every field is
/// optional; instrumented code fills in what its stage knows — a replay
/// span carries its grain and replay totals, a sweep span its hierarchy
/// name. Rendered as the `args` object of the Chrome trace event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimelineArgs {
    /// The grain (block size in bytes) a replay span analyzed.
    pub grain: Option<u64>,
    /// Events replayed or decoded within the span.
    pub events: Option<u64>,
    /// Distinct blocks the span's analyzer ended with.
    pub distinct_blocks: Option<u64>,
    /// Peak order-statistic-tree nodes the span's analyzer held.
    pub tree_nodes: Option<u64>,
    /// Inverse sampling rate a sampled replay span finished at.
    pub sample_inv: Option<u64>,
    /// Name of the hierarchy a sweep or report span scored.
    pub hierarchy: Option<String>,
}

impl TimelineArgs {
    /// True when no argument is set.
    pub fn is_empty(&self) -> bool {
        self.grain.is_none()
            && self.events.is_none()
            && self.distinct_blocks.is_none()
            && self.tree_nodes.is_none()
            && self.sample_inv.is_none()
            && self.hierarchy.is_none()
    }
}

/// One completed span on the timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEvent {
    /// The pipeline stage the span timed.
    pub stage: Stage,
    /// Nanoseconds from the timeline's epoch to the span's open (clamped
    /// to zero for spans opened before the timeline was attached).
    pub begin_ns: u64,
    /// Nanoseconds from the epoch to the span's close; `>= begin_ns`.
    pub end_ns: u64,
    /// Dense in-process index of the thread the span closed on.
    pub thread: u64,
    /// Thread-local nesting depth the span ran at (1 = top level).
    pub depth: u32,
    /// Push-order sequence number; orders events that share a timestamp.
    pub seq: u64,
    /// The span's typed arguments.
    pub args: TimelineArgs,
}

/// The ring and the next sequence number.
#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<TimelineEvent>,
    seq: u64,
}

/// The bounded timeline buffer. Spans reach it through an
/// [`crate::Obs`] handle; snapshot any time with
/// [`snapshot`](Timeline::snapshot).
#[derive(Debug)]
pub struct Timeline {
    epoch: Instant,
    ring: Mutex<Ring>,
    capacity: usize,
    dropped: AtomicU64,
}

impl Timeline {
    /// A timeline holding at most 524,288 events.
    pub fn new() -> Timeline {
        Timeline::with_capacity(DEFAULT_CAPACITY)
    }

    /// A timeline holding at most `capacity` events (clamped to at
    /// least 1).
    pub fn with_capacity(capacity: usize) -> Timeline {
        Timeline {
            epoch: Instant::now(),
            ring: Mutex::new(Ring::default()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// The instant timestamps are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Events dropped so far by the full ring.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records one completed span; true when the full ring dropped its
    /// oldest event for it. Called from [`crate::SpanGuard`]'s drop on the
    /// closing thread; also usable directly by tests.
    pub fn record(
        &self,
        stage: Stage,
        start: Instant,
        wall: Duration,
        depth: u32,
        args: TimelineArgs,
    ) -> bool {
        let begin_ns = duration_ns(start.saturating_duration_since(self.epoch));
        let end_ns = begin_ns.saturating_add(duration_ns(wall));
        let thread = thread_index();
        let mut ring = self.lock_ring();
        let evicted = ring.events.len() >= self.capacity;
        if evicted {
            ring.events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let seq = ring.seq;
        ring.seq += 1;
        ring.events.push_back(TimelineEvent {
            stage,
            begin_ns,
            end_ns,
            thread,
            depth,
            seq,
            args,
        });
        evicted
    }

    /// Poison-tolerant like the recorder slot: a panic while the ring was
    /// held must not wedge every later span.
    fn lock_ring(&self) -> std::sync::MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A point-in-time copy of the ring, sorted by begin timestamp (ties
    /// broken by thread then sequence), plus the drop count.
    pub fn snapshot(&self) -> TimelineSnapshot {
        let mut events: Vec<TimelineEvent> = self.lock_ring().events.iter().cloned().collect();
        events.sort_by_key(|e| (e.begin_ns, e.thread, e.seq));
        TimelineSnapshot {
            events,
            dropped: self.dropped(),
        }
    }
}

impl Default for Timeline {
    fn default() -> Timeline {
        Timeline::new()
    }
}

/// Saturating nanoseconds of a duration.
fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// An ordered copy of a [`Timeline`]'s events. Plain data: tests
/// build it directly and [`normalize`](TimelineSnapshot::normalize) it
/// for machine-independent golden comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineSnapshot {
    /// Completed span events, ordered by `(begin_ns, thread, seq)`.
    pub events: Vec<TimelineEvent>,
    /// Events dropped by the full ring over the timeline's lifetime.
    pub dropped: u64,
}

impl TimelineSnapshot {
    /// Events whose stage is `stage`, in timeline order.
    pub fn stage_events(&self, stage: Stage) -> impl Iterator<Item = &TimelineEvent> {
        self.events.iter().filter(move |e| e.stage == stage)
    }

    /// Makes the snapshot machine-independent for golden tests: zeroes
    /// every timestamp and renumbers threads densely in order of first
    /// appearance. Event order (already fixed at snapshot time) and all
    /// args are preserved.
    pub fn normalize(&mut self) {
        let mut remap: Vec<u64> = Vec::new();
        for event in &mut self.events {
            let tid = match remap.iter().position(|&t| t == event.thread) {
                Some(i) => i as u64,
                None => {
                    remap.push(event.thread);
                    (remap.len() - 1) as u64
                }
            };
            event.thread = tid;
            event.begin_ns = 0;
            event.end_ns = 0;
        }
    }

    /// Renders this snapshot with [`format_chrome_trace`].
    pub fn to_chrome_trace(&self) -> String {
        format_chrome_trace(self)
    }
}

/// Microseconds with nanosecond precision, the unit Chrome trace `ts` and
/// `dur` fields use.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders a timeline snapshot as Chrome trace-event JSON (the
/// `traceEvents` object form), loadable in `chrome://tracing` and
/// Perfetto. One complete (`"ph":"X"`) event per span, `ts`/`dur` in
/// microseconds, `tid` the dense thread index, and the span's typed args
/// (plus its nesting depth) under `args`. The drop count is reported in
/// `otherData` so a truncated capture is visible in the viewer.
///
/// The output is a pure function of the snapshot — byte-exact golden
/// tests normalize the snapshot first
/// ([`TimelineSnapshot::normalize`]).
pub fn format_chrome_trace(snapshot: &TimelineSnapshot) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, event) in snapshot.events.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"reuselens\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{},\"dur\":{},\"args\":{{\"depth\":{}",
            event.stage.name(),
            event.thread,
            micros(event.begin_ns),
            micros(event.end_ns.saturating_sub(event.begin_ns)),
            event.depth,
        );
        if let Some(grain) = event.args.grain {
            let _ = write!(out, ",\"grain\":{grain}");
        }
        if let Some(events) = event.args.events {
            let _ = write!(out, ",\"events\":{events}");
        }
        if let Some(blocks) = event.args.distinct_blocks {
            let _ = write!(out, ",\"distinct_blocks\":{blocks}");
        }
        if let Some(nodes) = event.args.tree_nodes {
            let _ = write!(out, ",\"tree_nodes\":{nodes}");
        }
        if let Some(inv) = event.args.sample_inv {
            let _ = write!(out, ",\"sample_inv\":{inv}");
        }
        if let Some(hierarchy) = &event.args.hierarchy {
            let _ = write!(out, ",\"hierarchy\":\"{}\"", escape(hierarchy));
        }
        out.push_str("}}");
        if i + 1 < snapshot.events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"timeline_dropped_total\":{}}}}}",
        snapshot.dropped
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(stage: Stage, begin_ns: u64, end_ns: u64, thread: u64, seq: u64) -> TimelineEvent {
        TimelineEvent {
            stage,
            begin_ns,
            end_ns,
            thread,
            depth: 1,
            seq,
            args: TimelineArgs::default(),
        }
    }

    #[test]
    fn record_keeps_order_and_bounds() {
        let tl = Timeline::with_capacity(3);
        let epoch = tl.epoch();
        for i in 0..5u64 {
            tl.record(
                Stage::Replay,
                epoch + Duration::from_nanos(i * 10),
                Duration::from_nanos(5),
                1,
                TimelineArgs {
                    grain: Some(i),
                    ..TimelineArgs::default()
                },
            );
        }
        let snap = tl.snapshot();
        assert_eq!(snap.events.len(), 3, "ring bounded at capacity");
        assert_eq!(snap.dropped, 2, "oldest two dropped");
        let grains: Vec<u64> = snap.events.iter().filter_map(|e| e.args.grain).collect();
        assert_eq!(grains, vec![2, 3, 4], "survivors are the newest events");
        for e in &snap.events {
            assert!(e.end_ns >= e.begin_ns);
        }
    }

    #[test]
    fn spans_opened_before_epoch_are_clamped() {
        let early = Instant::now();
        let tl = Timeline::new();
        tl.record(
            Stage::Capture,
            early,
            Duration::from_nanos(7),
            1,
            TimelineArgs::default(),
        );
        let snap = tl.snapshot();
        assert_eq!(snap.events[0].begin_ns, 0);
        assert_eq!(snap.events[0].end_ns, 7);
    }

    #[test]
    fn normalize_renumbers_threads_and_zeroes_timestamps() {
        let mut snap = TimelineSnapshot {
            events: vec![
                event(Stage::Capture, 100, 200, 17, 0),
                event(Stage::Replay, 150, 250, 3, 0),
                event(Stage::Replay, 160, 260, 17, 1),
            ],
            dropped: 0,
        };
        snap.normalize();
        let tids: Vec<u64> = snap.events.iter().map(|e| e.thread).collect();
        assert_eq!(tids, vec![0, 1, 0]);
        assert!(snap.events.iter().all(|e| e.begin_ns == 0 && e.end_ns == 0));
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let snap = TimelineSnapshot {
            events: vec![event(Stage::Sweep, 1_500, 4_000, 0, 0)],
            dropped: 3,
        };
        let json = format_chrome_trace(&snap);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":2.500"));
        assert!(json.contains("\"timeline_dropped_total\":3"));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn json_escaping_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(1_234_567), "1234.567");
    }
}
