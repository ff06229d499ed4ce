//! Outside-in tracing for the traced run: a benchmark-owned probe that
//! reads the host clock at every event boundary, and the in-memory span
//! log (workload → trial → {setup, loop} → event) written out at the end.

use sct_core::metrics::StateView;
use sct_core::{Probe, SimEvent};
use sct_simcore::SimTime;
use std::io::Write;
use std::time::Instant;

/// What an event emitted, which names the kind of event it was.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Emitted `Admitted` or `Rejected`.
    Arrival = 0,
    /// Emitted `Completed` (and no admission).
    Completion = 1,
    /// Emitted nothing: a wake that only re-armed its server.
    SilentWake = 2,
    /// Anything else (pauses, failures, samples).
    Other = 3,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Arrival,
        Kind::Completion,
        Kind::SilentWake,
        Kind::Other,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Arrival => "arrival",
            Kind::Completion => "completion",
            Kind::SilentWake => "silent_wake",
            Kind::Other => "other",
        }
    }
}

/// One recorded span. Times are nanoseconds since the run's epoch.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The stream an event concerned, so a stream's event spans can be
    /// joined across the trial.
    pub stream: Option<u64>,
}

/// The span log of one traced run.
pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Appends a span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            stream: None,
        });
        self.spans.len() - 1
    }

    /// Writes one JSON object per span: `id`, `parent`, `name`,
    /// `start_ns`, `end_ns`, `stream`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"stream\":{}}}",
                opt(s.parent.map(|p| p as u64)),
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.stream)
            )?;
        }
        out.flush()
    }
}

/// One timed event: its kind, the stream it concerned, and the host
/// instants of the boundaries before and after it.
pub type EventSpan = (Kind, Option<u64>, Instant, Instant);

/// Reads the host clock after every event (in `on_state`, which the loop
/// calls once per live event) and charges the time since the previous
/// boundary to the event, labelled by what it emitted. The first event of
/// a trial has no previous boundary and is counted but not timed.
pub struct EventClock {
    current: Option<Kind>,
    stream: Option<u64>,
    /// The trial's first and latest event boundaries.
    first: Option<Instant>,
    last: Option<Instant>,
    /// Exact event counts per [`Kind`].
    pub counts: [u64; 4],
    /// Host nanoseconds per timed event, per [`Kind`], when recording.
    pub durations: [Vec<u64>; 4],
    /// Event spans `(kind, stream, start, end)` when recording.
    pub events: Option<Vec<EventSpan>>,
}

impl EventClock {
    /// A clock that keeps per-event durations and spans only when
    /// `record`; otherwise it only counts.
    pub fn new(record: bool) -> Self {
        EventClock {
            current: None,
            stream: None,
            first: None,
            last: None,
            counts: [0; 4],
            durations: Default::default(),
            events: record.then(Vec::new),
        }
    }

    /// Closes the trial: returns its recorded event spans and its first
    /// and last event boundaries (`None` if it had no event), and forgets
    /// them, so the next event opens a new trial.
    pub fn end_trial(&mut self) -> (Vec<EventSpan>, Option<(Instant, Instant)>) {
        let window = self.first.take().zip(self.last.take());
        let events = self.events.as_mut().map(std::mem::take).unwrap_or_default();
        (events, window)
    }
}

impl Probe for EventClock {
    fn on_event(&mut self, _now: SimTime, event: &SimEvent) {
        let (kind, stream) = match *event {
            SimEvent::Admitted { stream, .. } | SimEvent::Rejected { stream, .. } => {
                (Kind::Arrival, Some(stream))
            }
            SimEvent::Completed { stream, .. } => (Kind::Completion, Some(stream)),
            SimEvent::Migrated { stream, .. }
            | SimEvent::Paused { stream, .. }
            | SimEvent::Resumed { stream, .. }
            | SimEvent::WaitlistQueued { stream, .. }
            | SimEvent::WaitlistServed { stream, .. }
            | SimEvent::CrossShard { stream, .. } => (Kind::Other, Some(stream)),
            _ => (Kind::Other, None),
        };
        // Lower kinds win: an arrival's admission outranks the migration
        // it caused, and a completion outranks a pause or failure record
        // in the same event.
        if self.current.is_none_or(|c| kind < c) {
            self.current = Some(kind);
            if stream.is_some() {
                self.stream = stream;
            }
        } else if self.stream.is_none() {
            self.stream = stream;
        }
    }

    fn on_state(&mut self, _now: SimTime, _view: &StateView) {
        let now = Instant::now();
        let kind = self.current.take().unwrap_or(Kind::SilentWake);
        let stream = self.stream.take();
        self.counts[kind as usize] += 1;
        if let (Some(prev), Some(events)) = (self.last, self.events.as_mut()) {
            self.durations[kind as usize].push((now - prev).as_nanos() as u64);
            events.push((kind, stream, prev, now));
        }
        self.first.get_or_insert(now);
        self.last = Some(now);
    }
}

/// Reads the host clock at every `every`-th event boundary of a trial
/// (the first event's included), so an end-to-end run can be cut into
/// short slices of identical work. Between marks it only counts, so its
/// cost per event is an increment and a compare.
pub struct SliceClock {
    every: u64,
    seen: u64,
    /// Host instants of the marked boundaries, in order.
    pub marks: Vec<Instant>,
}

impl SliceClock {
    pub fn new(every: u64) -> Self {
        SliceClock {
            every: every.max(1),
            seen: 0,
            marks: Vec::new(),
        }
    }
}

impl Probe for SliceClock {
    fn on_event(&mut self, _now: SimTime, _event: &SimEvent) {}

    fn on_state(&mut self, _now: SimTime, _view: &StateView) {
        if self.seen.is_multiple_of(self.every) {
            self.marks.push(Instant::now());
        }
        self.seen += 1;
    }
}
