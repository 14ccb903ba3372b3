//! The protocol session: one connection's v1/v2 state machine, with no
//! I/O of its own.
//!
//! A [`Session`] takes a connection's inbound bytes and the completions of
//! its submissions, and turns them into output lines and service
//! submissions. It owns everything the protocol keeps per connection:
//! line framing (the [`MAX_LINE_BYTES`] cap, CRLF, UTF-8 errors), the
//! handshake and its `timing`/`certificate` opt-ins, the cancel map, the
//! in-flight schedules, the tallies and the summary trailer. A transport
//! only moves bytes — into [`Session::receive`], [`Session::complete`] and
//! [`Session::close_input`], out of [`Session::drain_output`] — and picks
//! how a v1 job meets a full queue ([`Backpressure`]).
//!
//! * **v1** (no handshake): every line is a job; parse failures answer
//!   `ok: false`; a full queue stalls the input instead of rejecting, so
//!   legacy streams never observe `busy`.
//! * **v2** (`{"hello": 2}` first line): capabilities ack, per-job
//!   `priority`/`deadline_ms`, `cancel` frames (acked, canceled jobs
//!   answer `ErrorKind::Canceled`), `stats` frames, `schedule` frames, and
//!   `busy` responses once the submission queue is full.
//!
//! Responses are emitted in completion order. Once the input has ended
//! (EOF or an input error) and every submission has been answered, the
//! session emits the summary trailer and is done: end-of-input never drops
//! in-flight work or the trailer.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::Arc;

use proto::{
    CancelAck, ClientFrame, EngineSnapshot, ErrorKind, HelloAck, JobError, JobRequest, JobResponse,
    ScheduleRequest, StatsFrame, SummaryFrame, WireVersion, MAX_LINE_BYTES, PROTOCOL_VERSION,
};

use crate::schedule::{ScheduleRun, MAX_ACTIVE_SCHEDULES};
use crate::service::{Admit, GroupId, OutEvent, ResponseSink, Service, SubmitError, Ticket};

/// Totals of one drained connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConnectionSummary {
    /// Jobs answered successfully.
    pub solved: usize,
    /// Jobs answered with a non-cancel, non-busy error.
    pub failed: usize,
    /// Jobs canceled while queued (v2).
    pub canceled: usize,
    /// Submissions rejected with `busy` (v2).
    pub busy: usize,
    /// Multi-layer `schedule` frames accepted (v2).
    pub schedule_jobs: usize,
    /// Layers answered on behalf of those schedules (v2). Each layer's
    /// response also counts into `solved`/`failed`/`canceled` above, like
    /// any job answered on the connection.
    pub schedule_layers: usize,
    /// The protocol version the connection ended in.
    pub version: WireVersion,
}

/// How a v1 job meets a full queue. v1 has no `busy` frame, so its
/// backpressure is a stall; the transport picks how to stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Backpressure {
    /// Block the caller until a worker frees a slot.
    Block,
    /// Park the job and take no input until [`Session::retry_parked`]
    /// gets it in — for a transport that must not block.
    Park,
}

/// Bound on the id→ticket correlation map kept for `cancel` frames; when
/// exceeded the oldest mappings are forgotten (their jobs have almost
/// certainly completed — cancel only ever lands on queued jobs anyway).
const CANCEL_MAP_CAP: usize = 16_384;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Input {
    Open,
    /// End of input: buffered lines still dispatch (behind a parked job).
    Ended,
    /// An input error was answered; nothing more is read.
    Failed,
}

/// One connection's protocol state; see the module docs.
pub(crate) struct Session<'s> {
    service: &'s Service,
    /// Where this connection's submissions deliver; the transport hands
    /// each delivery back through [`Session::complete`].
    sink: Arc<dyn ResponseSink>,
    /// The connection's cancellation group: a dead peer must not leave its
    /// queued jobs occupying the shared worker pool.
    group: GroupId,
    backpressure: Backpressure,
    framer: Framer,
    input: Input,
    line_no: usize,
    awaiting_handshake: bool,
    /// Peer opted into per-job `timing` objects.
    timing: bool,
    /// Peer opted into `certificate` objects on certified responses.
    certificate: bool,
    tickets: HashMap<String, Ticket>,
    ticket_order: VecDeque<(String, Ticket)>,
    schedules: HashMap<String, Arc<ScheduleRun>>,
    /// Deliveries still owed: one per accepted job, and one per layer plus
    /// one for the summary of each accepted schedule.
    pending: usize,
    /// A v1 job waiting for queue space ([`Backpressure::Park`]).
    parked: Option<JobRequest>,
    tally: ConnectionSummary,
    done: bool,
    out: Vec<String>,
}

impl<'s> Session<'s> {
    /// A fresh v1 session whose submissions deliver into `sink`.
    pub(crate) fn new(
        service: &'s Service,
        sink: Arc<dyn ResponseSink>,
        backpressure: Backpressure,
    ) -> Session<'s> {
        Session {
            service,
            sink,
            group: service.new_group(),
            backpressure,
            framer: Framer::default(),
            input: Input::Open,
            line_no: 0,
            awaiting_handshake: true,
            timing: false,
            certificate: false,
            tickets: HashMap::new(),
            ticket_order: VecDeque::new(),
            schedules: HashMap::new(),
            pending: 0,
            parked: None,
            tally: ConnectionSummary::default(),
            done: false,
            out: Vec::new(),
        }
    }

    /// Inbound bytes: every complete line in them is dispatched.
    pub(crate) fn receive(&mut self, bytes: &[u8]) {
        if self.input == Input::Open {
            self.framer.push(bytes);
            self.drain_lines();
        }
        self.settle();
    }

    /// End of input: a final unterminated line is dispatched (the
    /// `BufRead::lines` convention), and the trailer follows once every
    /// submission has been answered.
    pub(crate) fn close_input(&mut self) {
        if self.input == Input::Open {
            self.input = Input::Ended;
            self.drain_lines();
        }
        self.settle();
    }

    /// A transport read error: answered once, then the input is closed —
    /// the output stays a valid JSON-lines stream to the very end.
    pub(crate) fn read_error(&mut self, err: &io::Error) {
        if self.input == Input::Open {
            self.fail_input(ErrorKind::Io, format!("input read error: {err}"));
        }
        self.settle();
    }

    /// One delivery into this session's sink.
    pub(crate) fn complete(&mut self, event: OutEvent) {
        self.pending = self.pending.saturating_sub(1);
        match event {
            OutEvent::Response(resp) => self.answer(resp),
            OutEvent::Control(line) => self.out.push(line),
        }
        self.settle();
    }

    /// Whether a v1 job is parked on a full queue.
    pub(crate) fn parked(&self) -> bool {
        self.parked.is_some()
    }

    /// Retries the parked v1 job (responses may have freed queue space);
    /// once it gets in, the lines buffered behind it dispatch.
    pub(crate) fn retry_parked(&mut self) {
        if let Some(req) = self.parked.take() {
            self.submit_v1(req);
            if self.parked.is_none() {
                self.drain_lines();
            }
        }
        self.settle();
    }

    /// Whether the transport should read more input now.
    pub(crate) fn wants_input(&self) -> bool {
        self.input == Input::Open && self.parked.is_none()
    }

    /// The lines produced so far, in order, each without its newline.
    pub(crate) fn drain_output(&mut self) -> std::vec::Drain<'_, String> {
        self.out.drain(..)
    }

    /// Whether lines are waiting in [`Session::drain_output`].
    pub(crate) fn has_output(&self) -> bool {
        !self.out.is_empty()
    }

    /// Whether the summary trailer has been emitted: nothing follows it.
    pub(crate) fn is_done(&self) -> bool {
        self.done
    }

    /// The connection's tallies so far.
    pub(crate) fn summary(&self) -> ConnectionSummary {
        self.tally
    }

    /// Abandons this connection's still-queued jobs and schedules — its
    /// peer is gone — so the shared workers move on to live work; no more
    /// input is taken.
    pub(crate) fn abandon(&mut self) {
        self.input = Input::Failed;
        self.framer = Framer::default();
        self.service.cancel_group(self.group);
        for run in self.schedules.values() {
            run.cancel(self.service);
        }
    }

    /// Dispatches the buffered complete lines (at end of input, the tail
    /// too), stopping early when a v1 job parks or the input fails.
    fn drain_lines(&mut self) {
        if self.parked.is_some() {
            return;
        }
        let mut framer = std::mem::take(&mut self.framer);
        let eof = self.input == Input::Ended;
        framer.drain(MAX_LINE_BYTES, eof, |frame| {
            match frame {
                Frame::Line(line) => {
                    self.line_no += 1;
                    self.dispatch(line);
                }
                Frame::TooLong => self.fail_input(
                    ErrorKind::Protocol,
                    format!("line exceeds {MAX_LINE_BYTES} bytes; closing connection"),
                ),
                // Worded as `BufRead::lines` reports it.
                Frame::NotUtf8 => self.fail_input(
                    ErrorKind::Io,
                    "input read error: stream did not contain valid UTF-8".to_string(),
                ),
            }
            self.parked.is_none() && self.input != Input::Failed
        });
        if self.input != Input::Failed {
            self.framer = framer;
        }
    }

    /// Answers an input error once (the stream is no longer framed) and
    /// closes the input.
    fn fail_input(&mut self, kind: ErrorKind, message: String) {
        self.line_no += 1;
        let id = format!("job-{}", self.line_no);
        self.answer(JobResponse::failure(id, JobError::new(kind, message)));
        self.input = Input::Failed;
        self.framer = Framer::default();
    }

    fn dispatch(&mut self, line: &str) {
        if line.trim().is_empty() {
            return;
        }
        // The handshake is only valid as the first non-blank line; its
        // absence locks the connection into v1. A handshake attempt carries
        // a "hello" key and no "matrix" — a legacy v1 job line with a stray
        // "hello" field keeps solving as a job, as unknown fields always
        // did. A *failed* attempt answers its protocol error and the
        // connection stays v1.
        if std::mem::take(&mut self.awaiting_handshake)
            && proto::parse_json(line)
                .is_ok_and(|json| json.get("hello").is_some() && json.get("matrix").is_none())
        {
            return self.handshake(line);
        }
        if self.tally.version == WireVersion::V1 {
            // Exactly the legacy rules: every line is a job line, and
            // v2-only fields are ignored like any unknown extra.
            match JobRequest::parse_line_in(line, self.line_no, WireVersion::V1) {
                Ok(req) => self.submit_v1(req),
                Err((id, err)) => self.answer(parse_failure(id, err)),
            }
            return;
        }
        match ClientFrame::parse_line(line, self.line_no) {
            Ok(ClientFrame::Hello { .. }) => self.answer(JobResponse::failure(
                "hello".to_string(),
                JobError::new(
                    ErrorKind::Protocol,
                    "handshake is only valid as the first line",
                ),
            )),
            Ok(ClientFrame::Job(req)) => self.submit_v2(req),
            Ok(ClientFrame::Cancel { id }) => self.cancel(id),
            Ok(ClientFrame::Stats) => self.out.push(stats_frame(self.service).to_json_line()),
            Ok(ClientFrame::Schedule(req)) => self.start_schedule(req),
            Err((id, err)) => self.answer(parse_failure(id, err)),
        }
    }

    fn handshake(&mut self, line: &str) {
        match ClientFrame::parse_line(line, self.line_no) {
            Ok(ClientFrame::Hello {
                version,
                timing,
                certificate,
            }) => {
                let granted = version.clamp(1, PROTOCOL_VERSION);
                // Timing and certificates are opt-in *and* v2-only: a
                // v1-granted handshake ignores both flags.
                if granted >= 2 {
                    self.tally.version = WireVersion::V2;
                    self.timing = timing;
                    self.certificate = certificate;
                }
                let ack = HelloAck {
                    protocol: granted,
                    server: format!("rect-addr/{}", env!("CARGO_PKG_VERSION")),
                    capabilities: self.service.capabilities(),
                };
                self.out.push(ack.to_json_line());
            }
            Err((id, err)) => self.answer(parse_failure(id, err)),
            // Unreachable: a line with a "hello" key parses as Hello or
            // errors, but stay total.
            Ok(_) => self.answer(JobResponse::failure(
                "hello".to_string(),
                JobError::new(ErrorKind::Protocol, "malformed handshake"),
            )),
        }
    }

    /// v1 submission: no ticket bookkeeping (v1 has no cancel frame), and
    /// a full queue stalls — by blocking or parking — instead of `busy`.
    fn submit_v1(&mut self, req: JobRequest) {
        let admit = match self.backpressure {
            Backpressure::Block => Admit::Wait,
            Backpressure::Park => Admit::Try,
        };
        match self
            .service
            .enqueue(req, self.sink.clone(), self.group, admit)
        {
            Ok(_ticket) => self.pending += 1,
            Err((SubmitError::Busy, req)) => self.parked = Some(req),
            Err((e, req)) => {
                let err = e.to_job_error(self.service.queue_depth());
                self.answer(JobResponse::failure(req.id, err));
            }
        }
    }

    fn submit_v2(&mut self, mut req: JobRequest) {
        // Proof logging is pure cost unless the peer opted into receiving
        // certificates at handshake: strip the flag before a worker sees it.
        req.certify &= self.certificate;
        let id = req.id.clone();
        match self
            .service
            .enqueue(req, self.sink.clone(), self.group, Admit::Try)
        {
            Ok(ticket) => {
                self.pending += 1;
                remember(
                    &mut self.tickets,
                    &mut self.ticket_order,
                    id,
                    ticket,
                    CANCEL_MAP_CAP,
                );
            }
            // Full queue → busy response: v2 backpressure.
            Err((e, _req)) => {
                let err = e.to_job_error(self.service.queue_depth());
                self.answer(JobResponse::failure(id, err));
            }
        }
    }

    /// Job tickets first (ids are connection-scoped for both namespaces),
    /// then in-flight schedules. A withdrawn job's canceled response is
    /// written before the ack.
    fn cancel(&mut self, id: String) {
        let withdrawn = self
            .tickets
            .get(&id)
            .and_then(|ticket| self.service.withdraw(*ticket));
        let done = match withdrawn {
            Some(resp) => {
                self.pending -= 1;
                self.answer(resp);
                true
            }
            None => self
                .schedules
                .get(&id)
                .is_some_and(|run| run.cancel(self.service)),
        };
        self.out.push(CancelAck { id, done }.to_json_line());
    }

    fn start_schedule(&mut self, mut req: ScheduleRequest) {
        // Same opt-in gate jobs get.
        req.certify &= self.certificate;
        self.schedules.retain(|_, run| !run.finished());
        let admitted = if self.schedules.len() >= MAX_ACTIVE_SCHEDULES {
            obs::registry().counter(obs::names::ERR_BUSY).inc();
            Err(JobError::new(
                ErrorKind::Busy,
                format!("{MAX_ACTIVE_SCHEDULES} schedules already in flight; retry later"),
            ))
        } else if self.schedules.contains_key(&req.id) {
            Err(JobError::new(
                ErrorKind::Protocol,
                format!("schedule id {:?} is already in flight", req.id),
            ))
        } else {
            ScheduleRun::start(self.service, &req, self.sink.clone())
        };
        match admitted {
            Ok(run) => {
                obs::registry().counter(obs::names::SCHEDULE_JOBS).inc();
                self.tally.schedule_jobs += 1;
                self.tally.schedule_layers += req.layers.len();
                self.pending += req.layers.len() + 1;
                self.schedules.insert(req.id, run);
            }
            Err(err) => self.answer(JobResponse::failure(req.id, err)),
        }
    }

    /// Serializes one response under the negotiated wire rules and counts
    /// it into the tallies.
    fn answer(&mut self, mut resp: JobResponse) {
        match resp.error_kind() {
            None => self.tally.solved += 1,
            Some(ErrorKind::Canceled) => self.tally.canceled += 1,
            Some(ErrorKind::Busy) => self.tally.busy += 1,
            Some(_) => self.tally.failed += 1,
        }
        // Timing objects and (large) certificates reach the wire only for
        // a v2 peer that opted in at handshake; the serializer
        // independently refuses both on v1 lines.
        if !self.timing {
            resp.timing = None;
        }
        if !self.certificate {
            resp.certificate = None;
        }
        self.out.push(resp.to_json_line_v(self.tally.version));
    }

    /// Emits the trailer once input has ended and nothing is owed.
    fn settle(&mut self) {
        if self.done || self.input == Input::Open || self.pending > 0 || self.parked.is_some() {
            return;
        }
        let frame = SummaryFrame {
            solved: self.tally.solved as u64,
            failed: self.tally.failed as u64,
            canceled: self.tally.canceled as u64,
            busy: self.tally.busy as u64,
            schedule_jobs: self.tally.schedule_jobs as u64,
            schedule_layers: self.tally.schedule_layers as u64,
            snapshot: snapshot_of(
                &self.service.engine().cache_stats(),
                self.service.engine().warm_sessions() as u64,
            ),
        };
        self.out.push(frame.to_json_line(self.tally.version));
        self.done = true;
    }
}

/// A parse/protocol failure response, counted into the error-class
/// registry on its way out — every arm that answers a malformed line
/// funnels through here so the counter can never drift from the wire.
fn parse_failure(id: String, err: JobError) -> JobResponse {
    obs::registry().counter(obs::names::ERR_PARSE).inc();
    JobResponse::failure(id, err)
}

fn remember(
    tickets: &mut HashMap<String, Ticket>,
    order: &mut VecDeque<(String, Ticket)>,
    id: String,
    ticket: Ticket,
    cap: usize,
) {
    tickets.insert(id.clone(), ticket);
    // Eviction is by insertion, so a reused id gets a fresh queue entry;
    // the stale entry's eviction below becomes a no-op instead of
    // forgetting the id's newest (possibly still-queued) ticket.
    order.push_back((id, ticket));
    while order.len() > cap {
        if let Some((old_id, old_ticket)) = order.pop_front() {
            if tickets.get(&old_id) == Some(&old_ticket) {
                tickets.remove(&old_id);
            }
        }
    }
}

/// The single mapping from engine cache counters to a wire
/// [`EngineSnapshot`] — shared by the summary trailer and the stats frame
/// so the two can never drift apart field-by-field.
fn snapshot_of(cache: &engine::CacheStats, warm_sessions: u64) -> EngineSnapshot {
    EngineSnapshot {
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_entries: cache.entries,
        cache_evictions: cache.evictions,
        flight_waits: cache.flight_waits,
        warm_sessions,
        canon_complete: cache.canon_complete,
        canon_heuristic: cache.canon_heuristic,
    }
}

/// The v2 `stats` frame for the service's current state (one
/// [`Service::stats`] collection; the cache counters inside it are reused
/// rather than fetched twice).
fn stats_frame(service: &Service) -> StatsFrame {
    let stats = service.stats();
    StatsFrame {
        snapshot: snapshot_of(&stats.cache, stats.warm_sessions as u64),
        queue_depth: stats.queue_depth as u64,
        queue_len: stats.queue_len as u64,
        persisted_sessions: stats.persisted_sessions,
        certified_jobs: stats.certified_jobs,
        schedule_jobs: stats.schedule_jobs,
        schedule_layers: stats.schedule_layers,
        canon_heuristic_hot: stats
            .hot_heuristic_keys
            .iter()
            .map(|(key, count)| proto::HotKey {
                key: key.clone(),
                count: *count,
            })
            .collect(),
        snapshot_load_failures: stats.snapshot_load_failures,
        open_connections: stats.open_connections,
        snapshot_generation: stats.snapshot_generation,
        latency: obs::registry()
            .histogram_summaries()
            .into_iter()
            .map(|(name, s)| {
                (
                    name,
                    proto::LatencySummary {
                        count: s.count,
                        p50: s.p50,
                        p90: s.p90,
                        p99: s.p99,
                        max: s.max,
                    },
                )
            })
            .collect(),
    }
}

/// One framing outcome.
#[derive(Debug, PartialEq, Eq)]
enum Frame<'a> {
    /// A line, newline and trailing carriage return stripped.
    Line(&'a str),
    /// A line outgrew the cap; the stream is no longer framed.
    TooLong,
    /// A line was not UTF-8.
    NotUtf8,
}

/// Cuts `\n`-terminated lines off an inbound byte stream in one pass:
/// every complete line in the buffer is handed out as a slice in place,
/// and the consumed prefix is removed once per call — not once per line,
/// which would move the rest of a large read for every short line in it.
#[derive(Debug, Default)]
struct Framer {
    buf: Vec<u8>,
    /// Leading bytes of `buf` already known to hold no newline, so a long
    /// line arriving in pieces is scanned once overall.
    scanned: usize,
}

impl Framer {
    fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Hands each complete line to `f` in order while `f` returns `true`;
    /// at `eof` the unterminated tail counts as a final line. A line (or
    /// a newline-less tail) longer than `max` bytes yields
    /// [`Frame::TooLong`] — the caller stops there.
    fn drain(&mut self, max: usize, eof: bool, mut f: impl FnMut(Frame<'_>) -> bool) {
        let mut start = 0;
        loop {
            let rest = &self.buf[start..];
            let (line, used) = match rest[self.scanned..].iter().position(|&b| b == b'\n') {
                Some(i) => (&rest[..self.scanned + i], self.scanned + i + 1),
                None if !rest.is_empty() && (eof || rest.len() > max) => (rest, rest.len()),
                None => {
                    self.scanned = rest.len();
                    break;
                }
            };
            self.scanned = 0;
            start += used;
            let frame = if line.len() > max {
                Frame::TooLong
            } else {
                let line = line.strip_suffix(b"\r").unwrap_or(line);
                std::str::from_utf8(line).map_or(Frame::NotUtf8, Frame::Line)
            };
            if !f(frame) {
                break;
            }
        }
        self.buf.drain(..start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_map_eviction_survives_id_reuse() {
        let mut tickets = HashMap::new();
        let mut order = VecDeque::new();
        let cap = 3;
        remember(&mut tickets, &mut order, "a".to_string(), 1, cap);
        remember(&mut tickets, &mut order, "b".to_string(), 2, cap);
        // "a" reused: its mapping must track the newest ticket and must
        // not be evicted on its *old* insertion's turn.
        remember(&mut tickets, &mut order, "a".to_string(), 3, cap);
        assert_eq!(tickets.get("a"), Some(&3));
        // Pushes past the cap: the first eviction pops ("a", 1), a stale
        // entry — "a" still maps to 3.
        remember(&mut tickets, &mut order, "c".to_string(), 4, cap);
        assert_eq!(tickets.get("a"), Some(&3), "stale eviction must be a no-op");
        assert_eq!(tickets.get("b"), Some(&2));
        // Next eviction pops ("b", 2), a live entry — "b" is forgotten.
        remember(&mut tickets, &mut order, "d".to_string(), 5, cap);
        assert_eq!(tickets.get("b"), None);
        assert_eq!(tickets.get("a"), Some(&3));
        assert!(order.len() <= cap);
        assert!(tickets.len() <= cap, "map is bounded by the queue");
    }

    /// Feeds `chunks` through a framer capped at `max` bytes, then EOF, and
    /// renders every frame; framing stops at the first error, as the
    /// session does.
    fn frames(chunks: &[&[u8]], max: usize) -> Vec<String> {
        fn render(got: &mut Vec<String>, frame: Frame<'_>) -> bool {
            got.push(match frame {
                Frame::Line(line) => format!("line {line:?}"),
                Frame::TooLong => "too long".to_string(),
                Frame::NotUtf8 => "not utf-8".to_string(),
            });
            got.last().is_some_and(|l| l.starts_with("line"))
        }
        let mut framer = Framer::default();
        let mut got = Vec::new();
        for chunk in chunks {
            framer.push(chunk);
            framer.drain(max, false, |frame| render(&mut got, frame));
            if got.last().is_some_and(|l| !l.starts_with("line")) {
                return got;
            }
        }
        framer.drain(max, true, |frame| render(&mut got, frame));
        got
    }

    /// Seeded SplitMix64 split points, so every run sees the same splits.
    fn random_splits(len: usize, seed: u64) -> Vec<usize> {
        let mut state = seed;
        let mut cuts: Vec<usize> = (0..len / 3)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as usize % (len + 1)
            })
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        cuts
    }

    fn split_at<'a>(stream: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
        let mut chunks = Vec::new();
        let mut from = 0;
        for &cut in cuts.iter().chain(std::iter::once(&stream.len())) {
            chunks.push(&stream[from..cut]);
            from = cut;
        }
        chunks
    }

    /// The same stream framed whole, byte by byte and at seeded random
    /// splits gives the same lines and the same error each way.
    #[test]
    fn framing_is_independent_of_how_the_bytes_arrive() {
        let streams: [(&[u8], &str); 4] = [
            (b"a\nbb\r\n\n{\"x\": 1}\r\nfinal-no-newline", "no error"),
            (
                b"short\n0123456789abcdef\nnever seen\n",
                "terminated line over the cap",
            ),
            (
                b"ok\nthis tail runs on without a newline",
                "unterminated tail over the cap",
            ),
            (b"fine\n\xff\xfe bad\nnever seen\n", "invalid UTF-8"),
        ];
        let max = 12;
        for (stream, case) in streams {
            let whole = frames(&[stream], max);
            let bytes: Vec<&[u8]> = stream.chunks(1).collect();
            assert_eq!(frames(&bytes, max), whole, "{case}: byte by byte");
            for seed in 0..16 {
                let chunks = split_at(stream, &random_splits(stream.len(), seed));
                assert_eq!(frames(&chunks, max), whole, "{case}: splits of seed {seed}");
            }
        }
        assert_eq!(
            frames(&[b"a\nbb\r\n\n{\"x\": 1}\r\nfinal-no-newline"], 64),
            [
                "line \"a\"",
                "line \"bb\"",
                "line \"\"",
                "line \"{\\\"x\\\": 1}\"",
                "line \"final-no-newline\""
            ]
        );
        assert_eq!(
            frames(&[b"short\n0123456789abcdef\nnever seen\n"], max),
            ["line \"short\"", "too long"]
        );
        assert_eq!(
            frames(&[b"ok\nthis tail runs on without a newline"], max),
            ["line \"ok\"", "too long"]
        );
        assert_eq!(
            frames(&[b"fine\n\xff\xfe bad\nnever seen\n"], max),
            ["line \"fine\"", "not utf-8"]
        );
        // Exactly at the cap is a line; the carriage return counts.
        assert_eq!(frames(&[b"abcd\n"], 4), ["line \"abcd\""]);
        assert_eq!(frames(&[b"abc\r\n"], 3), ["too long"]);
    }
}
