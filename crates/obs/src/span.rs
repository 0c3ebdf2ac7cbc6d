//! Virtual-time spans and per-run trace buffers.
//!
//! A [`TraceBuf`] belongs to exactly one simulated run: the run's sink owns
//! it, appends to plain `Vec`s (no locks, no atomics), and hands it back
//! when the run finishes. Timestamps come from the buffer's **virtual
//! clock**, which the owner ticks once per engine event — a run's trace is
//! therefore a pure function of the run, independent of wall time, machine
//! load, or which pool worker executed it.
//!
//! [`RunTrace`] merges the buffers of a whole engine invocation in *run
//! order* (profiling run first, then one buffer per crash target), giving
//! each run its own lane. That merge order is what makes the aggregate
//! trace byte-identical at every `--workers` count.

/// The engine phase a span or instant belongs to. Names are stable — they
/// appear in Chrome trace categories and in DESIGN.md's span taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Execution of the first (pre-crash) execution of a run.
    PreCrashExec,
    /// The injected (or end-of-phase) crash.
    CrashInjection,
    /// Execution of a post-crash (recovery) execution.
    PostCrashExec,
    /// Detector work: race-checking the post-crash reads.
    Detection,
}

impl Phase {
    /// The stable name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::PreCrashExec => "pre-crash-exec",
            Phase::CrashInjection => "crash-injection",
            Phase::PostCrashExec => "post-crash-exec",
            Phase::Detection => "detection",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A closed span: `[start, start + dur)` in virtual-clock units.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Phase taxonomy bucket (becomes the Chrome trace category).
    pub phase: Phase,
    /// Display name, e.g. `"exec 1"`.
    pub name: String,
    /// Virtual start time.
    pub start: u64,
    /// Virtual duration (0 is legal: an empty execution).
    pub dur: u64,
    /// Deterministic key/value annotations (rendered as Chrome `args`).
    pub args: Vec<(&'static str, u64)>,
}

/// A point event on a lane (e.g. a crash).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanInstant {
    /// Phase taxonomy bucket.
    pub phase: Phase,
    /// Display name, e.g. `"crash"`.
    pub name: String,
    /// Virtual timestamp.
    pub ts: u64,
    /// Deterministic key/value annotations.
    pub args: Vec<(&'static str, u64)>,
}

/// One run's trace: spans, instants, and the virtual clock that stamps
/// them. Owned by a single thread for its whole life — recording is
/// plain `Vec::push`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TraceBuf {
    now: u64,
    /// Closed spans in recording order.
    pub spans: Vec<Span>,
    /// Instant events in recording order.
    pub instants: Vec<SpanInstant>,
}

impl TraceBuf {
    /// Creates an empty buffer at virtual time 0.
    pub fn new() -> Self {
        TraceBuf::default()
    }

    /// The current virtual time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances the virtual clock by one event and returns the new time.
    pub fn tick(&mut self) -> u64 {
        self.now += 1;
        self.now
    }

    /// Records a span that started at `start` and ends now.
    pub fn span_since(
        &mut self,
        phase: Phase,
        name: impl Into<String>,
        start: u64,
        args: Vec<(&'static str, u64)>,
    ) {
        self.spans.push(Span {
            phase,
            name: name.into(),
            start,
            dur: self.now.saturating_sub(start),
            args,
        });
    }

    /// Records an instant at the current virtual time.
    pub fn instant(
        &mut self,
        phase: Phase,
        name: impl Into<String>,
        args: Vec<(&'static str, u64)>,
    ) {
        self.instants.push(SpanInstant {
            phase,
            name: name.into(),
            ts: self.now,
            args,
        });
    }

    /// Total events witnessed (the final virtual time).
    pub fn events(&self) -> u64 {
        self.now
    }
}

/// The merged trace of an engine invocation: one lane per run, in run
/// order.
///
/// Its [`runs`](Self::runs), [`span_count`](Self::span_count) and
/// [`event_count`](Self::event_count) are the only computation of the
/// trace's totals: the metrics registry and the Chrome export both read
/// them from here.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RunTrace {
    runs: Vec<TraceBuf>,
}

impl RunTrace {
    /// Creates an empty merged trace.
    pub fn new() -> Self {
        RunTrace::default()
    }

    /// Appends the next run's buffer. Call in run order — lane order is
    /// what encodes the deterministic merge.
    pub fn push_run(&mut self, buf: TraceBuf) {
        self.runs.push(buf);
    }

    /// Every run's buffer in run order, one per lane.
    pub fn lanes(&self) -> &[TraceBuf] {
        &self.runs
    }

    /// Number of run lanes.
    pub fn runs(&self) -> usize {
        self.runs.len()
    }

    /// Total spans across every lane.
    pub fn span_count(&self) -> usize {
        self.runs.iter().map(|b| b.spans.len()).sum()
    }

    /// Total virtual events across every lane.
    pub fn event_count(&self) -> u64 {
        self.runs.iter().map(TraceBuf::events).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf_with(name: &str, ticks: u64) -> TraceBuf {
        let mut buf = TraceBuf::new();
        let start = buf.now();
        for _ in 0..ticks {
            buf.tick();
        }
        buf.span_since(Phase::PreCrashExec, name, start, vec![("ticks", ticks)]);
        buf
    }

    #[test]
    fn spans_use_virtual_time() {
        let buf = buf_with("exec 0", 3);
        assert_eq!(buf.spans.len(), 1);
        assert_eq!(buf.spans[0].start, 0);
        assert_eq!(buf.spans[0].dur, 3);
        assert_eq!(buf.events(), 3);
    }

    #[test]
    fn run_order_assigns_lanes_deterministically() {
        let mut trace = RunTrace::new();
        trace.push_run(buf_with("a", 1));
        trace.push_run(buf_with("b", 2));
        let names: Vec<&str> = trace
            .lanes()
            .iter()
            .map(|b| b.spans[0].name.as_str())
            .collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(trace.runs(), 2);
        assert_eq!(trace.span_count(), 2);
        assert_eq!(trace.event_count(), 3);
    }

    #[test]
    fn instants_are_stamped_at_now() {
        let mut buf = TraceBuf::new();
        buf.tick();
        buf.tick();
        buf.instant(Phase::CrashInjection, "crash", vec![]);
        assert_eq!(buf.instants[0].ts, 2);
        assert_eq!(buf.instants[0].phase, Phase::CrashInjection);
    }
}
