//! The plugin interface between the execution engine and detectors.
//!
//! The paper implements Yashme "as a plugin for the model checking
//! infrastructure, which reports persistent memory relevant execution events
//! to Yashme" (§6). [`EventSink`] is that interface: the engine calls it at
//! every instruction-execution, buffer-eviction, crash, and
//! pre-crash-read event. The `yashme` crate implements the detector;
//! [`NullSink`] implements "plain Jaaru" for overhead comparisons (Table 5).

use vclock::VectorClock;

use crate::event::{ExecId, FlushEvent, LoadInfo, StoreEvent};
use crate::report::RaceReport;

/// Receiver of engine events. See the module docs.
///
/// All callbacks have empty default implementations so a sink only overrides
/// what it needs.
pub trait EventSink: Send {
    /// A new execution was pushed on the execution stack.
    fn on_execution_start(&mut self, exec: ExecId) {
        let _ = exec;
    }

    /// A store executed (entered its thread's store buffer). `Exec_Store` in
    /// Fig. 7.
    fn on_store_executed(&mut self, store: &StoreEvent) {
        let _ = store;
    }

    /// A store exited the store buffer and took effect on the cache, last
    /// in its line's committed-store log. `Evict_SB(store)` in Fig. 8.
    fn on_store_committed(&mut self, store: &StoreEvent) {
        let _ = store;
    }

    /// A `clflush` exited the store buffer and flushed its line.
    /// `Evict_SB(clflush)` in Fig. 8. `line_stores` holds the most recent
    /// committed store to each address of the flushed cache line, each
    /// store once, in first-appearance byte order: the store covering the
    /// line's lowest written byte comes first. That is not id order (a
    /// later store may sit at a lower offset). The order is part of the
    /// contract: the Yashme detector folds flush records into its
    /// [`fingerprint_token`](EventSink::fingerprint_token) in this order.
    fn on_clflush_committed(&mut self, flush: &FlushEvent, line_stores: &[&StoreEvent]) {
        let _ = (flush, line_stores);
    }

    /// A `clwb` previously evicted into the flush buffer was made persistent
    /// by a fence in its thread. `Evict_FB` in Fig. 8. `line_stores` is
    /// built and ordered exactly as for
    /// [`on_clflush_committed`](EventSink::on_clflush_committed), at the
    /// moment the fence retires the `clwb`.
    fn on_clwb_fenced(
        &mut self,
        clwb: &FlushEvent,
        fence_cv: &VectorClock,
        line_stores: &[&StoreEvent],
    ) {
        let _ = (clwb, fence_cv, line_stores);
    }

    /// A crash was injected; `exec` is the execution that crashed.
    fn on_crash(&mut self, exec: ExecId) {
        let _ = exec;
    }

    /// A load in a later execution read bytes produced by earlier
    /// executions.
    ///
    /// * `chosen` — the distinct stores whose bytes the load actually
    ///   observes in the simulated persistent image, oldest-execution first.
    /// * `candidates` — every store the load *could* have read depending on
    ///   when the cache line was written back (Jaaru's constraint-based
    ///   read-from set, §6 "Implementation"); a superset of the pre-crash
    ///   part of `chosen`.
    ///
    /// The detector race-checks all candidates and updates its
    /// `CVpre`/`lastflush` state from the chosen stores.
    fn on_pre_exec_read(
        &mut self,
        load: &LoadInfo,
        chosen: &[&StoreEvent],
        candidates: &[&StoreEvent],
    ) {
        let _ = (load, chosen, candidates);
    }

    /// Streaming GC retired these store events: their ids will never appear
    /// in any future callback, candidate set, or line-store slice, so a
    /// detector can drop per-store state keyed by them. Ids arrive sorted
    /// ascending and each id is reported at most once per run.
    ///
    /// Retirement is a *physical* memory event, not a logical one: an
    /// implementation MUST NOT let it influence [`fingerprint_token`]
    /// (or any report/trace content), because runs with GC off never see it
    /// and the two must stay byte-identical.
    ///
    /// [`fingerprint_token`]: EventSink::fingerprint_token
    fn on_stores_retired(&mut self, retired: &[crate::event::EventId]) {
        let _ = retired;
    }

    /// Live-state gauges (`(metric name, value)` pairs) describing this
    /// sink's resident memory — e.g. the detector's flushmap occupancy.
    /// Collected by the engine at the end of a run into the
    /// [`GcStats`](crate::report::GcStats) field of the same metric name
    /// (`gc.flushmap_live`, `gc.flushmap_peak`); a name no field has
    /// panics. Like retirement itself, gauges are physical observability
    /// and never part of the logical report.
    fn live_gauges(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Takes every report accumulated since the last drain.
    fn drain_reports(&mut self) -> Vec<RaceReport> {
        Vec::new()
    }

    /// Takes the span trace recorded during the run, if this sink records
    /// one. Only [`SpanTraceSink`] (and wrappers around it) return `Some`;
    /// detectors and [`NullSink`] use the default, so a run without tracing
    /// pays nothing.
    fn drain_trace(&mut self) -> Option<obs::TraceBuf> {
        None
    }

    /// Captures this sink's accumulated state as an independent copy, for
    /// checkpoint/fork crash-point exploration: the engine snapshots the
    /// sink at each crash point of the profiling run and resumes each
    /// post-crash continuation against the copy.
    ///
    /// Returns `None` (the default) if the sink cannot be forked — e.g. it
    /// writes through shared handles whose output would interleave between
    /// forks. The engine then falls back to full re-execution, so a sink
    /// without fork support is never wrong, only slower.
    fn fork_sink(&self) -> Option<Box<dyn EventSink>> {
        None
    }

    /// A rolling token over this sink's accumulated state, folded into the
    /// engine's crash-point fingerprints for equivalence pruning: two crash
    /// points may share a pruning class only if the sink state at both is
    /// identical, because the pruned suffixes replay against a snapshot of
    /// that state.
    ///
    /// The contract is one-sided: the token MUST change whenever sink state
    /// that can influence later reports, traces, or metrics changes, and
    /// SHOULD stay unchanged when nothing changed (every token change
    /// splits classes and costs a resumed run). The default — constant 0 —
    /// is correct for stateless sinks.
    fn fingerprint_token(&self) -> u64 {
        0
    }
}

/// Boxed sinks forward every event — this is what lets the engine wrap a
/// factory-built `Box<dyn EventSink>` in a [`SpanTraceSink`].
impl<S: EventSink + ?Sized> EventSink for Box<S> {
    fn on_execution_start(&mut self, exec: ExecId) {
        (**self).on_execution_start(exec);
    }

    fn on_store_executed(&mut self, store: &StoreEvent) {
        (**self).on_store_executed(store);
    }

    fn on_store_committed(&mut self, store: &StoreEvent) {
        (**self).on_store_committed(store);
    }

    fn on_clflush_committed(&mut self, flush: &FlushEvent, line_stores: &[&StoreEvent]) {
        (**self).on_clflush_committed(flush, line_stores);
    }

    fn on_clwb_fenced(
        &mut self,
        clwb: &FlushEvent,
        fence_cv: &VectorClock,
        line_stores: &[&StoreEvent],
    ) {
        (**self).on_clwb_fenced(clwb, fence_cv, line_stores);
    }

    fn on_crash(&mut self, exec: ExecId) {
        (**self).on_crash(exec);
    }

    fn on_pre_exec_read(
        &mut self,
        load: &LoadInfo,
        chosen: &[&StoreEvent],
        candidates: &[&StoreEvent],
    ) {
        (**self).on_pre_exec_read(load, chosen, candidates);
    }

    fn on_stores_retired(&mut self, retired: &[crate::event::EventId]) {
        (**self).on_stores_retired(retired);
    }

    fn live_gauges(&self) -> Vec<(&'static str, u64)> {
        (**self).live_gauges()
    }

    fn drain_reports(&mut self) -> Vec<RaceReport> {
        (**self).drain_reports()
    }

    fn drain_trace(&mut self) -> Option<obs::TraceBuf> {
        (**self).drain_trace()
    }

    fn fork_sink(&self) -> Option<Box<dyn EventSink>> {
        (**self).fork_sink()
    }

    fn fingerprint_token(&self) -> u64 {
        (**self).fingerprint_token()
    }
}

/// A sink that ignores every event: the plain Jaaru baseline used to measure
/// Yashme's overhead (Table 5).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    fn fork_sink(&self) -> Option<Box<dyn EventSink>> {
        Some(Box::new(NullSink))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_reports_nothing() {
        let mut sink = NullSink;
        sink.on_execution_start(0);
        sink.on_crash(0);
        assert!(sink.drain_reports().is_empty());
    }
}

/// Records the engine event stream as deterministic spans and counters in
/// an [`obs::TraceBuf`], forwarding every event to an inner sink (usually
/// the Yashme detector).
///
/// Timestamps come from the buffer's virtual clock, which ticks once per
/// delivered event — never from wall time — so the trace of a run is
/// identical wherever and whenever the run executes. The engine wraps sink
/// factories in this type when [`EngineConfig::trace`](crate::EngineConfig)
/// is on and collects the buffers into the
/// [`RunReport`](crate::RunReport)'s merged [`obs::RunTrace`].
///
/// Span taxonomy (see DESIGN.md "Observability"):
/// * one `exec N` span per execution, categorized pre-/post-crash;
/// * a `detection (exec N)` span covering that execution's pre-crash-read
///   checks, with candidate/chosen counts as args;
/// * a `crash` instant at each injected or end-of-phase crash.
#[derive(Debug)]
pub struct SpanTraceSink<S> {
    inner: S,
    buf: obs::TraceBuf,
    /// Open execution span: `(exec, start, is_post_crash)`.
    open_exec: Option<(ExecId, u64, bool)>,
    /// Open detection span: `(exec, start, candidates, chosen)`.
    open_detect: Option<(ExecId, u64, u64, u64)>,
}

impl<S: EventSink> SpanTraceSink<S> {
    /// Wraps `inner`, recording spans alongside its event handling.
    pub fn new(inner: S) -> Self {
        SpanTraceSink {
            inner,
            buf: obs::TraceBuf::new(),
            open_exec: None,
            open_detect: None,
        }
    }

    fn close_detect(&mut self) {
        if let Some((exec, start, candidates, chosen)) = self.open_detect.take() {
            self.buf.span_since(
                obs::Phase::Detection,
                format!("detection (exec {exec})"),
                start,
                vec![("candidates", candidates), ("chosen", chosen)],
            );
        }
    }

    fn close_exec(&mut self) {
        self.close_detect();
        if let Some((exec, start, post_crash)) = self.open_exec.take() {
            let phase = if post_crash {
                obs::Phase::PostCrashExec
            } else {
                obs::Phase::PreCrashExec
            };
            self.buf
                .span_since(phase, format!("exec {exec}"), start, vec![]);
        }
    }
}

impl<S: EventSink> EventSink for SpanTraceSink<S> {
    fn on_execution_start(&mut self, exec: ExecId) {
        self.buf.tick();
        self.close_exec();
        self.open_exec = Some((exec, self.buf.now(), exec > 0));
        self.inner.on_execution_start(exec);
    }

    fn on_store_executed(&mut self, store: &StoreEvent) {
        self.buf.tick();
        self.inner.on_store_executed(store);
    }

    fn on_store_committed(&mut self, store: &StoreEvent) {
        self.buf.tick();
        self.inner.on_store_committed(store);
    }

    fn on_clflush_committed(&mut self, flush: &FlushEvent, line_stores: &[&StoreEvent]) {
        self.buf.tick();
        self.inner.on_clflush_committed(flush, line_stores);
    }

    fn on_clwb_fenced(
        &mut self,
        clwb: &FlushEvent,
        fence_cv: &VectorClock,
        line_stores: &[&StoreEvent],
    ) {
        self.buf.tick();
        self.inner.on_clwb_fenced(clwb, fence_cv, line_stores);
    }

    fn on_crash(&mut self, exec: ExecId) {
        self.buf.tick();
        self.buf.instant(
            obs::Phase::CrashInjection,
            "crash",
            vec![("exec", exec as u64)],
        );
        self.inner.on_crash(exec);
    }

    fn on_pre_exec_read(
        &mut self,
        load: &LoadInfo,
        chosen: &[&StoreEvent],
        candidates: &[&StoreEvent],
    ) {
        self.buf.tick();
        let entry = self
            .open_detect
            .get_or_insert((load.exec, self.buf.now() - 1, 0, 0));
        entry.2 += candidates.len() as u64;
        entry.3 += chosen.len() as u64;
        self.inner.on_pre_exec_read(load, chosen, candidates);
    }

    fn on_stores_retired(&mut self, retired: &[crate::event::EventId]) {
        // Deliberately no `tick()`: retirement is a physical memory event
        // that GC-off runs never deliver, so absorbing it into the virtual
        // clock would break trace (and fingerprint) equality between the
        // two modes.
        self.inner.on_stores_retired(retired);
    }

    fn live_gauges(&self) -> Vec<(&'static str, u64)> {
        self.inner.live_gauges()
    }

    fn drain_reports(&mut self) -> Vec<RaceReport> {
        self.inner.drain_reports()
    }

    fn drain_trace(&mut self) -> Option<obs::TraceBuf> {
        self.close_exec();
        Some(std::mem::take(&mut self.buf))
    }

    fn fork_sink(&self) -> Option<Box<dyn EventSink>> {
        // The buffer's virtual clock and open spans travel with the fork, so
        // a resumed run's trace continues exactly where the prefix left off.
        let inner = self.inner.fork_sink()?;
        Some(Box::new(SpanTraceSink {
            inner,
            buf: self.buf.clone(),
            open_exec: self.open_exec,
            open_detect: self.open_detect,
        }))
    }

    fn fingerprint_token(&self) -> u64 {
        // The virtual clock ticks on *every* delivered event, so under
        // tracing each crash point fingerprints uniquely and pruning
        // degrades gracefully to exhaustive exploration — the price of
        // byte-identical per-event traces.
        pmem::mix64(self.inner.fingerprint_token() ^ pmem::mix64(self.buf.now()))
    }
}
