//! The versioned JSON-lines wire protocol of the `rect-addr` serving
//! stack, shared by the engine, the `Service` facade, the socket
//! front-end, the CLI and external clients.
//!
//! One frame per line. **Protocol v1** (the legacy shape, still the
//! default) is job lines in, response lines out, one summary trailer:
//!
//! ```json
//! {"id": "layer-17", "matrix": ["101100", "010011"], "budget_ms": 500}
//! {"id": "layer-17", "ok": true, "depth": 5, "proved_optimal": true, ...}
//! {"summary": true, "solved": 1, "failed": 0, ...}
//! ```
//!
//! **Protocol v2** is negotiated by a [`ClientFrame::Hello`] handshake as
//! the connection's first line, answered by a [`HelloAck`] carrying server
//! capabilities. It adds per-job `priority` and `deadline_ms` fields,
//! [`ClientFrame::Cancel`] control frames (acked by [`CancelAck`]),
//! `busy` backpressure responses, structured [`ErrorKind`] error codes,
//! an on-demand [`StatsFrame`], and a versioned [`SummaryFrame`]. A
//! connection that never sends a handshake is answered in v1 shape
//! forever — existing v1 clients keep working unchanged.
//!
//! Responses are emitted in **completion order**, not submission order —
//! the `id` field is the correlation key. Failed jobs answer
//! `{"id": ..., "ok": false, "error": ...}` where the error payload is a
//! bare message string in v1 and a `{"kind", "message"}` object in v2.
//!
//! The build environment has no serde, so the [`json`] module carries a
//! small hand-rolled JSON reader/writer covering the subset the protocol
//! needs. The full framing specification lives in `PROTOCOL.md` at the
//! repository root.

pub mod frame;
pub mod job;
pub mod json;
pub mod line;
pub mod schedule;

pub use frame::{
    CancelAck, Capabilities, ClientFrame, EngineSnapshot, HelloAck, HotKey, LatencySummary,
    StatsFrame, SummaryFrame, WireVersion, PROTOCOL_VERSION,
};
pub use job::{Certificate, ErrorKind, JobError, JobRequest, JobResponse, Timing};
pub use json::{parse_json, write_json_string, Json};
pub use line::{MAX_LINE_BYTES, MAX_RESPONSE_LINE_BYTES};
pub use schedule::{ScheduleRequest, ScheduleSummary, MAX_SCHEDULE_LAYERS};
