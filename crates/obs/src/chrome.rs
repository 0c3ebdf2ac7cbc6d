//! Chrome trace-event JSON export.
//!
//! Emits the subset of the [trace-event format] that Perfetto and
//! `chrome://tracing` render: `M` (metadata) events naming each lane, `X`
//! (complete) events for spans, and `i` (instant) events. Virtual-clock
//! units map 1:1 to microseconds — durations then read as "engine events"
//! in the viewer's time axis.
//!
//! The export is deterministic: lanes come out in lane order and each
//! lane's events in `(ts, name)` order, so equal [`RunTrace`]s render to
//! byte-identical JSON.
//!
//! Two surfaces over the same serializer: [`to_chrome_json`] builds the
//! document in memory, [`write_chrome_json`] streams it event-by-event to
//! any [`io::Write`] — the chunked path soak runs use, where a
//! multi-million-event trace must never be resident as one string. Both
//! produce byte-identical output.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::io;

use crate::json::Json;
use crate::span::RunTrace;

/// The `pid` every event carries (one logical process per engine run).
const PID: u64 = 1;

/// The `tid` of the process-name metadata event. Run `i` of the trace
/// renders on lane (`tid`) `i + 1`.
const PROCESS_TID: u64 = 0;

/// Renders `trace` as a complete Chrome trace-event JSON document in
/// memory. Convenience wrapper over [`write_chrome_json`].
pub fn to_chrome_json(trace: &RunTrace) -> String {
    let mut buf = Vec::new();
    write_chrome_json(trace, &mut buf).expect("in-memory write cannot fail");
    String::from_utf8(buf).expect("rendered JSON is UTF-8")
}

/// Streams `trace` as a Chrome trace-event JSON document to `out`, one
/// event at a time.
///
/// Peak buffering is one rendered event plus one lane's sort index — not
/// the whole document — so arbitrarily long traces export in bounded
/// memory (modulo the in-memory `RunTrace` itself, which callers can keep
/// small by sampling crash points). Wrap `out` in a
/// [`std::io::BufWriter`] when writing to a file.
pub fn write_chrome_json<W: io::Write>(trace: &RunTrace, out: &mut W) -> io::Result<()> {
    out.write_all(b"{\"traceEvents\":[")?;
    let mut first = true;
    macro_rules! emit {
        ($event:expr) => {{
            if first {
                first = false;
            } else {
                out.write_all(b",")?;
            }
            out.write_all($event.render().as_bytes())?;
        }};
    }
    emit!(metadata(
        "process_name",
        PROCESS_TID,
        ("name", Json::from("yashme exploration")),
    ));
    for run in 0..trace.runs() {
        let name = Json::from(format!("run {run}"));
        emit!(metadata("thread_name", run as u64 + 1, ("name", name)));
    }
    for (lane, buf) in (1u64..).zip(trace.lanes()) {
        // Deterministic per-lane order even if recording interleaved spans
        // and instants: sort each kind by (ts, name), spans first.
        let mut spans: Vec<_> = buf.spans.iter().collect();
        spans.sort_by(|a, b| (a.start, &a.name).cmp(&(b.start, &b.name)));
        for span in spans {
            emit!(Json::obj([
                ("name", Json::from(span.name.as_str())),
                ("cat", Json::from(span.phase.name())),
                ("ph", Json::from("X")),
                ("ts", Json::U64(span.start)),
                ("dur", Json::U64(span.dur)),
                ("pid", Json::U64(PID)),
                ("tid", Json::U64(lane)),
                ("args", args_obj(&span.args)),
            ]));
        }
        let mut instants: Vec<_> = buf.instants.iter().collect();
        instants.sort_by(|a, b| (a.ts, &a.name).cmp(&(b.ts, &b.name)));
        for inst in instants {
            emit!(Json::obj([
                ("name", Json::from(inst.name.as_str())),
                ("cat", Json::from(inst.phase.name())),
                ("ph", Json::from("i")),
                ("ts", Json::U64(inst.ts)),
                ("s", Json::from("t")),
                ("pid", Json::U64(PID)),
                ("tid", Json::U64(lane)),
                ("args", args_obj(&inst.args)),
            ]));
        }
    }
    out.write_all(b"],\"displayTimeUnit\":\"ms\",\"otherData\":")?;
    out.write_all(
        Json::obj([
            ("clock", Json::from("virtual (engine events)")),
            ("runs", Json::from(trace.runs())),
            ("spans", Json::from(trace.span_count())),
            ("events", Json::U64(trace.event_count())),
        ])
        .render()
        .as_bytes(),
    )?;
    out.write_all(b"}")
}

fn metadata(name: &'static str, tid: u64, arg: (&'static str, Json)) -> Json {
    Json::obj([
        ("name", Json::from(name)),
        ("ph", Json::from("M")),
        ("pid", Json::U64(PID)),
        ("tid", Json::U64(tid)),
        ("args", Json::obj([arg])),
    ])
}

fn args_obj(args: &[(&'static str, u64)]) -> Json {
    Json::Obj(
        args.iter()
            .map(|&(k, v)| (k.to_owned(), Json::U64(v)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Phase, TraceBuf};

    fn sample_trace() -> RunTrace {
        let mut run = TraceBuf::new();
        let start = run.now();
        run.tick();
        run.tick();
        run.span_since(Phase::PreCrashExec, "exec 0", start, vec![("stores", 2)]);
        run.instant(Phase::CrashInjection, "crash", vec![]);
        let mut trace = RunTrace::new();
        trace.push_run(run);
        trace
    }

    #[test]
    fn export_contains_lanes_spans_and_instants() {
        let json = to_chrome_json(&sample_trace());
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"thread_name\""), "{json}");
        assert!(json.contains("\"run 0\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("\"cat\":\"pre-crash-exec\""), "{json}");
    }

    #[test]
    fn equal_traces_render_byte_identically() {
        assert_eq!(
            to_chrome_json(&sample_trace()),
            to_chrome_json(&sample_trace())
        );
    }

    #[test]
    fn streamed_export_matches_in_memory_export() {
        // A writer that forces many small chunks (capacity 7) to prove the
        // streaming path never depends on writing the document whole.
        #[derive(Debug)]
        struct Dribble(Vec<u8>);
        impl std::io::Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let n = buf.len().min(7);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let trace = sample_trace();
        let mut out = std::io::BufWriter::new(Dribble(Vec::new()));
        write_chrome_json(&trace, &mut out).expect("stream");
        let streamed = String::from_utf8(out.into_inner().expect("flush").0).expect("utf-8");
        assert_eq!(streamed, to_chrome_json(&trace));
    }
}
