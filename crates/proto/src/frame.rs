//! Control and trailer frames of the versioned wire protocol.
//!
//! Protocol **v1** has exactly two server frame shapes: job responses and
//! the final summary trailer. Protocol **v2** (negotiated by a `hello`
//! handshake as the first client line) adds cancel acks and an on-demand
//! stats frame, and versions the summary. See `PROTOCOL.md` at the
//! repository root for the full framing specification.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::job::{ErrorKind, JobError, JobRequest};
use crate::json::{parse_json, write_json_string, Json};
use crate::schedule::ScheduleRequest;

/// The two wire protocol generations. A connection starts in
/// [`WireVersion::V1`]; a `hello` handshake as the first line upgrades it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireVersion {
    /// Legacy JSON-lines: job lines in, response lines + summary out.
    #[default]
    V1,
    /// Handshaked: capabilities, cancel, priority/deadline, busy
    /// backpressure, structured errors, stats.
    V2,
}

impl WireVersion {
    /// The numeric protocol version carried by handshake/summary frames.
    pub fn number(self) -> u32 {
        match self {
            WireVersion::V1 => 1,
            WireVersion::V2 => 2,
        }
    }
}

/// Highest protocol version this crate implements.
pub const PROTOCOL_VERSION: u32 = 2;

/// One parsed client line: either a job or a v2 control frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// `{"hello": <version>}` — handshake; only valid as the first line.
    Hello {
        /// The highest protocol version the client speaks.
        version: u32,
        /// Whether the client wants per-response `timing` breakdowns
        /// (v2; `{"hello": 2, "timing": true}`).
        timing: bool,
        /// Whether the client wants `certificate` objects on responses to
        /// jobs that set `certify` (v2; `{"hello": 2, "certificate":
        /// true}`). Certificates are large — without this opt-in the
        /// server strips them even from certified jobs.
        certificate: bool,
    },
    /// A job submission.
    Job(JobRequest),
    /// `{"cancel": "<id>"}` — cancel a still-queued job or an active
    /// schedule (v2).
    Cancel {
        /// The id the job or schedule was submitted under on this
        /// connection.
        id: String,
    },
    /// `{"stats": true}` — request a stats frame (v2).
    Stats,
    /// `{"schedule": "<id>", "layers": [...]}` — an ordered multi-layer
    /// submission solved as one unit (v2).
    Schedule(ScheduleRequest),
}

impl ClientFrame {
    /// Classifies and parses one client line. A line carrying a `matrix`
    /// key is always a **job** — legacy v1 job lines may carry stray
    /// fields named like control markers, and unknown fields were always
    /// ignored. Only matrix-less lines are classified by their marker key
    /// (`hello` / `cancel` / `stats`); anything else parses as a job
    /// request — exactly protocol v1's rule, so v1 job lines are never
    /// misread. On failure returns the job id (when one was readable)
    /// plus the categorized error.
    pub fn parse_line(line: &str, line_no: usize) -> Result<ClientFrame, (String, JobError)> {
        let fallback_id = format!("job-{line_no}");
        let json = parse_json(line)
            .map_err(|e| (fallback_id.clone(), JobError::new(ErrorKind::Parse, e)))?;
        if json.get("matrix").is_some() {
            return JobRequest::from_json(&json, &fallback_id).map(ClientFrame::Job);
        }
        if let Some(v) = json.get("hello") {
            let version = v
                .as_f64()
                .filter(|n| n.fract() == 0.0 && *n >= 1.0 && *n <= u32::MAX as f64)
                .ok_or_else(|| {
                    (
                        fallback_id.clone(),
                        JobError::new(ErrorKind::Protocol, "hello must carry a version number"),
                    )
                })?;
            // The opt-in flags are lenient: anything but `true` means off,
            // so older clients and producers are never rejected over them.
            let timing = json.get("timing").and_then(Json::as_bool) == Some(true);
            let certificate = json.get("certificate").and_then(Json::as_bool) == Some(true);
            return Ok(ClientFrame::Hello {
                version: version as u32,
                timing,
                certificate,
            });
        }
        if let Some(v) = json.get("cancel") {
            let id = v.as_str().ok_or_else(|| {
                (
                    fallback_id.clone(),
                    JobError::new(ErrorKind::Protocol, "cancel must carry a job id string"),
                )
            })?;
            return Ok(ClientFrame::Cancel { id: id.to_string() });
        }
        if json.get("stats").is_some() {
            return Ok(ClientFrame::Stats);
        }
        if json.get("schedule").is_some() {
            return ScheduleRequest::from_json(&json, &fallback_id).map(ClientFrame::Schedule);
        }
        JobRequest::from_json(&json, &fallback_id).map(ClientFrame::Job)
    }

    /// Serializes the frame as one JSON line (client side).
    pub fn to_json_line(&self) -> String {
        match self {
            ClientFrame::Hello {
                version,
                timing,
                certificate,
            } => {
                let mut out = format!("{{\"hello\": {version}");
                if *timing {
                    out.push_str(", \"timing\": true");
                }
                if *certificate {
                    out.push_str(", \"certificate\": true");
                }
                out.push('}');
                out
            }
            ClientFrame::Job(req) => req.to_json_line(),
            ClientFrame::Cancel { id } => {
                let mut out = String::from("{\"cancel\": ");
                write_json_string(&mut out, id);
                out.push('}');
                out
            }
            ClientFrame::Stats => "{\"stats\": true}".to_string(),
            ClientFrame::Schedule(req) => req.to_json_line(),
        }
    }
}

/// Server capabilities advertised in the handshake ack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capabilities {
    /// Shards of the canonical-form cache.
    pub shards: u64,
    /// Phases of the server's pipeline, in run order (stable protocol
    /// names).
    pub strategies: Vec<String>,
    /// Canonizer search budget (individualization branches).
    pub canon_budget: u64,
    /// Bound of the submission queue; a full queue answers `busy`.
    pub queue_depth: u64,
    /// Worker threads solving jobs.
    pub workers: u64,
    /// Whether the server honors the hello `timing` opt-in (per-response
    /// stage breakdowns). Absent in acks from older servers → `false`.
    pub timing: bool,
    /// Whether the server honors the `certify` job flag and the hello
    /// `certificate` opt-in (machine-checkable optimality proofs).
    /// Absent in acks from older servers → `false`.
    pub certificate: bool,
    /// Whether the server accepts multi-layer `schedule` frames. Absent
    /// in acks from older servers → `false`.
    pub schedule: bool,
}

/// `{"hello": true, "protocol": N, "server": ..., "capabilities": {...}}` —
/// the server's answer to a [`ClientFrame::Hello`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloAck {
    /// The protocol version the server granted (min of both sides).
    pub protocol: u32,
    /// Server name/version, e.g. `rect-addr/0.2.0`.
    pub server: String,
    /// What the serving stack is configured with.
    pub capabilities: Capabilities,
}

impl HelloAck {
    /// Serializes the ack as one JSON line.
    pub fn to_json_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"hello\": true, \"protocol\": {}, \"server\": ",
            self.protocol
        );
        write_json_string(&mut out, &self.server);
        let c = &self.capabilities;
        let _ = write!(
            out,
            ", \"capabilities\": {{\"shards\": {}, \"strategies\": [",
            c.shards
        );
        for (i, s) in c.strategies.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_json_string(&mut out, s);
        }
        let _ = write!(
            out,
            "], \"canon_budget\": {}, \"queue_depth\": {}, \"workers\": {}, \"timing\": {}, \
             \"certificate\": {}, \"schedule\": {}}}}}",
            c.canon_budget, c.queue_depth, c.workers, c.timing, c.certificate, c.schedule
        );
        out
    }

    /// Parses a handshake ack line (client side).
    pub fn parse_line(line: &str) -> Result<HelloAck, String> {
        let json = parse_json(line)?;
        if json.get("hello").and_then(Json::as_bool) != Some(true) {
            return Err("not a hello ack".to_string());
        }
        let protocol = json
            .get("protocol")
            .and_then(Json::as_f64)
            .ok_or("missing protocol")? as u32;
        let caps = json.get("capabilities").ok_or("missing capabilities")?;
        let num = |field: &str| -> Result<u64, String> {
            caps.get(field)
                .and_then(Json::as_f64)
                .map(|n| n as u64)
                .ok_or(format!("missing capability {field}"))
        };
        Ok(HelloAck {
            protocol,
            server: json
                .get("server")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            capabilities: Capabilities {
                shards: num("shards")?,
                strategies: caps
                    .get("strategies")
                    .and_then(Json::as_arr)
                    .map(|a| {
                        a.iter()
                            .filter_map(|s| s.as_str().map(str::to_string))
                            .collect()
                    })
                    .unwrap_or_default(),
                canon_budget: num("canon_budget")?,
                queue_depth: num("queue_depth")?,
                workers: num("workers")?,
                // Lenient: acks from servers predating the flags parse
                // with the feature unavailable rather than failing.
                timing: caps.get("timing").and_then(Json::as_bool) == Some(true),
                certificate: caps.get("certificate").and_then(Json::as_bool) == Some(true),
                schedule: caps.get("schedule").and_then(Json::as_bool) == Some(true),
            },
        })
    }
}

/// `{"cancel": "<id>", "done": bool}` — whether a cancel frame landed
/// while its job was still queued (v2). When `done` is true the canceled
/// job's own [`ErrorKind::Canceled`] response
/// is delivered immediately *before* this ack, so once the ack arrives
/// the job's response has already passed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CancelAck {
    /// The id the cancel frame named.
    pub id: String,
    /// `true` when the job was removed from the queue.
    pub done: bool,
}

impl CancelAck {
    /// Serializes the ack as one JSON line.
    pub fn to_json_line(&self) -> String {
        let mut out = String::from("{\"cancel\": ");
        write_json_string(&mut out, &self.id);
        let _ = write!(out, ", \"done\": {}}}", self.done);
        out
    }

    /// Parses a cancel ack line (client side).
    pub fn parse_line(line: &str) -> Result<CancelAck, String> {
        let json = parse_json(line)?;
        Ok(CancelAck {
            id: json
                .get("cancel")
                .and_then(Json::as_str)
                .ok_or("missing cancel id")?
                .to_string(),
            done: json
                .get("done")
                .and_then(Json::as_bool)
                .ok_or("missing done")?,
        })
    }
}

/// Point-in-time engine counters embedded in summary and stats frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineSnapshot {
    /// Cache lookups answered from the cache (flight waits included).
    pub cache_hits: u64,
    /// Cache lookups that had to solve.
    pub cache_misses: u64,
    /// Entries currently stored.
    pub cache_entries: u64,
    /// Entries dropped by LRU eviction.
    pub cache_evictions: u64,
    /// Hits served by waiting on a concurrent in-flight solve.
    pub flight_waits: u64,
    /// Warm SAP sessions currently parked.
    pub warm_sessions: u64,
    /// Lookups keyed by the complete canonizer.
    pub canon_complete: u64,
    /// Lookups keyed by the heuristic fallback labeling.
    pub canon_heuristic: u64,
}

/// The final trailer of a connection: per-connection job totals plus a
/// service-wide [`EngineSnapshot`] (the engine is shared across
/// connections, so the cache counters are global by design).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SummaryFrame {
    /// Jobs answered successfully on this connection.
    pub solved: u64,
    /// Jobs answered with a non-cancel error on this connection.
    pub failed: u64,
    /// Jobs canceled while queued (v2; always 0 on a v1 connection).
    pub canceled: u64,
    /// Submissions rejected with `busy` (v2; always 0 on v1).
    pub busy: u64,
    /// Multi-layer `schedule` frames accepted on this connection (v2;
    /// always 0 on v1).
    pub schedule_jobs: u64,
    /// Layers answered on behalf of those schedules, whatever the
    /// outcome (v2; always 0 on v1).
    pub schedule_layers: u64,
    /// Service-wide engine counters at drain time.
    pub snapshot: EngineSnapshot,
}

impl SummaryFrame {
    /// Serializes the trailer. The v1 shape is byte-identical to the
    /// pre-v2 summary line; v2 adds `protocol`, `canceled` and `busy`.
    pub fn to_json_line(&self, version: WireVersion) -> String {
        let s = &self.snapshot;
        let mut out = String::from("{\"summary\": true");
        if version == WireVersion::V2 {
            let _ = write!(out, ", \"protocol\": {}", version.number());
        }
        let _ = write!(
            out,
            ", \"solved\": {}, \"failed\": {}",
            self.solved, self.failed
        );
        if version == WireVersion::V2 {
            let _ = write!(
                out,
                ", \"canceled\": {}, \"busy\": {}, \"schedule_jobs\": {}, \
                 \"schedule_layers\": {}",
                self.canceled, self.busy, self.schedule_jobs, self.schedule_layers
            );
        }
        let _ = write!(out, ", \"cache_hits\": {}", s.cache_hits);
        if version == WireVersion::V2 {
            // v2 completes the hit/miss pair; the v1 trailer byte shape
            // (which never carried misses) stays frozen.
            let _ = write!(out, ", \"cache_misses\": {}", s.cache_misses);
        }
        let _ = write!(
            out,
            ", \"cache_entries\": {}, \"cache_evictions\": {}, \
             \"flight_waits\": {}, \"warm_sessions\": {}, \"canon_complete\": {}, \
             \"canon_heuristic\": {}}}",
            s.cache_entries,
            s.cache_evictions,
            s.flight_waits,
            s.warm_sessions,
            s.canon_complete,
            s.canon_heuristic,
        );
        out
    }

    /// Parses a summary line of either version.
    pub fn parse_line(line: &str) -> Result<SummaryFrame, String> {
        let json = parse_json(line)?;
        if json.get("summary").and_then(Json::as_bool) != Some(true) {
            return Err("not a summary frame".to_string());
        }
        let num = |field: &str| -> u64 {
            json.get(field)
                .and_then(Json::as_f64)
                .map(|n| n as u64)
                .unwrap_or(0)
        };
        Ok(SummaryFrame {
            solved: num("solved"),
            failed: num("failed"),
            canceled: num("canceled"),
            busy: num("busy"),
            // Absent on v1 trailers and pre-schedule servers → 0.
            schedule_jobs: num("schedule_jobs"),
            schedule_layers: num("schedule_layers"),
            snapshot: EngineSnapshot {
                cache_hits: num("cache_hits"),
                cache_misses: num("cache_misses"),
                cache_entries: num("cache_entries"),
                cache_evictions: num("cache_evictions"),
                flight_waits: num("flight_waits"),
                warm_sessions: num("warm_sessions"),
                canon_complete: num("canon_complete"),
                canon_heuristic: num("canon_heuristic"),
            },
        })
    }

    /// Whether a server line is a summary trailer (cheap check used by
    /// clients to detect end-of-stream without a full parse).
    pub fn is_summary_line(line: &str) -> bool {
        line.starts_with("{\"summary\": true")
    }
}

/// One hot heuristic-labeled cache key: its bit-pattern key (possibly
/// truncated for the wire) and how many lookups used it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotKey {
    /// The canonical key, truncated to [`StatsFrame::KEY_PREVIEW`] chars.
    pub key: String,
    /// Lookups that produced this heuristic key.
    pub count: u64,
}

/// Percentile digest of one named latency histogram in a stats frame.
///
/// Percentile values are lower bounds of the log-linear bucket holding
/// the rank (within 1/16 relative error); `max` is exact. Time-based
/// histograms are microseconds; `sat_conflicts` counts conflicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Number of recorded values.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

/// `{"stats": true, ...}` — the v2 on-demand observability frame.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsFrame {
    /// Service-wide engine counters.
    pub snapshot: EngineSnapshot,
    /// Configured bound of the submission queue.
    pub queue_depth: u64,
    /// Jobs currently queued (not yet running).
    pub queue_len: u64,
    /// Warm SAP sessions restored from the disk snapshot at startup
    /// (0 on a cold start or when persistence is off).
    pub persisted_sessions: u64,
    /// Jobs whose response carried an optimality certificate (absent in
    /// frames from servers predating certification → 0).
    pub certified_jobs: u64,
    /// Multi-layer `schedule` frames accepted service-wide (absent in
    /// frames from servers predating schedules → 0).
    pub schedule_jobs: u64,
    /// Layers answered on behalf of `schedule` frames, whatever the
    /// outcome (absent → 0).
    pub schedule_layers: u64,
    /// Hottest heuristic-labeled cache keys (canonizer-aware admission:
    /// these are the keys worth re-canonizing at a larger budget).
    pub canon_heuristic_hot: Vec<HotKey>,
    /// Startup snapshot loads that failed for any reason other than the
    /// file not existing (0 when persistence is off or the load worked).
    pub snapshot_load_failures: u64,
    /// Connections currently open on this server's socket front-end
    /// (absent in frames from servers predating the scaled serving tier,
    /// and 0 on the stdin/batch transport, which has no socket).
    pub open_connections: u64,
    /// Generation of the warm-state snapshot this process last wrote or
    /// adopted — the multi-process flush signal. 0 when persistence is
    /// off, before the first flush, or in frames from older servers.
    pub snapshot_generation: u64,
    /// Named latency histograms, keyed by metric name (`job_us`,
    /// `queue_wait_us`, …). Empty in frames from servers predating the
    /// telemetry section.
    pub latency: BTreeMap<String, LatencySummary>,
}

impl StatsFrame {
    /// Wire truncation bound for hot-key previews.
    pub const KEY_PREVIEW: usize = 48;

    /// Serializes the stats frame (always v2 — v1 has no stats request).
    pub fn to_json_line(&self) -> String {
        let s = &self.snapshot;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"stats\": true, \"protocol\": {}, \"cache\": {{\"hits\": {}, \"misses\": {}, \
             \"entries\": {}, \"evictions\": {}, \"flight_waits\": {}, \"canon_complete\": {}, \
             \"canon_heuristic\": {}}}, \"queue\": {{\"depth\": {}, \"len\": {}}}, \
             \"warm_sessions\": {}, \"persisted_sessions\": {}, \
             \"certified_jobs\": {}, \"schedule_jobs\": {}, \"schedule_layers\": {}, \
             \"snapshot_load_failures\": {}, \"open_connections\": {}, \
             \"snapshot_generation\": {}, \"canon_heuristic_hot\": [",
            WireVersion::V2.number(),
            s.cache_hits,
            s.cache_misses,
            s.cache_entries,
            s.cache_evictions,
            s.flight_waits,
            s.canon_complete,
            s.canon_heuristic,
            self.queue_depth,
            self.queue_len,
            s.warm_sessions,
            self.persisted_sessions,
            self.certified_jobs,
            self.schedule_jobs,
            self.schedule_layers,
            self.snapshot_load_failures,
            self.open_connections,
            self.snapshot_generation,
        );
        for (i, hot) in self.canon_heuristic_hot.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"key\": ");
            let preview: String = hot.key.chars().take(Self::KEY_PREVIEW).collect();
            write_json_string(&mut out, &preview);
            let _ = write!(out, ", \"count\": {}}}", hot.count);
        }
        out.push_str("], \"latency\": {");
        for (i, (name, l)) in self.latency.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_json_string(&mut out, name);
            let _ = write!(
                out,
                ": {{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
                l.count, l.p50, l.p90, l.p99, l.max
            );
        }
        out.push_str("}}");
        out
    }

    /// Parses a stats frame line (client side).
    pub fn parse_line(line: &str) -> Result<StatsFrame, String> {
        let json = parse_json(line)?;
        if json.get("stats").and_then(Json::as_bool) != Some(true) {
            return Err("not a stats frame".to_string());
        }
        let cache = json.get("cache").ok_or("missing cache")?;
        let num = |obj: &Json, field: &str| -> u64 {
            obj.get(field)
                .and_then(Json::as_f64)
                .map(|n| n as u64)
                .unwrap_or(0)
        };
        let queue = json.get("queue").ok_or("missing queue")?;
        Ok(StatsFrame {
            snapshot: EngineSnapshot {
                cache_hits: num(cache, "hits"),
                cache_misses: num(cache, "misses"),
                cache_entries: num(cache, "entries"),
                cache_evictions: num(cache, "evictions"),
                flight_waits: num(cache, "flight_waits"),
                warm_sessions: num(&json, "warm_sessions"),
                canon_complete: num(cache, "canon_complete"),
                canon_heuristic: num(cache, "canon_heuristic"),
            },
            queue_depth: num(queue, "depth"),
            queue_len: num(queue, "len"),
            // Older servers also send `budget_skips`; like any unknown
            // key, it is ignored.
            persisted_sessions: num(&json, "persisted_sessions"),
            certified_jobs: num(&json, "certified_jobs"),
            schedule_jobs: num(&json, "schedule_jobs"),
            schedule_layers: num(&json, "schedule_layers"),
            snapshot_load_failures: num(&json, "snapshot_load_failures"),
            // Absent on lines from servers predating the scaled serving
            // tier → 0, like every other additive stats field.
            open_connections: num(&json, "open_connections"),
            snapshot_generation: num(&json, "snapshot_generation"),
            // Absent on lines from older servers → empty histograms.
            latency: match json.get("latency") {
                Some(Json::Obj(map)) => map
                    .iter()
                    .map(|(name, l)| {
                        (
                            name.clone(),
                            LatencySummary {
                                count: num(l, "count"),
                                p50: num(l, "p50"),
                                p90: num(l, "p90"),
                                p99: num(l, "p99"),
                                max: num(l, "max"),
                            },
                        )
                    })
                    .collect(),
                _ => BTreeMap::new(),
            },
            canon_heuristic_hot: json
                .get("canon_heuristic_hot")
                .and_then(Json::as_arr)
                .map(|arr| {
                    arr.iter()
                        .filter_map(|h| {
                            Some(HotKey {
                                key: h.get("key")?.as_str()?.to_string(),
                                count: h.get("count")?.as_f64()? as u64,
                            })
                        })
                        .collect()
                })
                .unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_frames_classify_and_roundtrip() {
        let hello = ClientFrame::parse_line("{\"hello\": 2}", 1).unwrap();
        assert_eq!(
            hello,
            ClientFrame::Hello {
                version: 2,
                timing: false,
                certificate: false
            }
        );
        assert_eq!(hello.to_json_line(), "{\"hello\": 2}");

        let timed = ClientFrame::parse_line("{\"hello\": 2, \"timing\": true}", 1).unwrap();
        assert_eq!(
            timed,
            ClientFrame::Hello {
                version: 2,
                timing: true,
                certificate: false
            }
        );
        assert_eq!(timed.to_json_line(), "{\"hello\": 2, \"timing\": true}");

        let certified =
            ClientFrame::parse_line("{\"hello\": 2, \"certificate\": true}", 1).unwrap();
        assert_eq!(
            certified,
            ClientFrame::Hello {
                version: 2,
                timing: false,
                certificate: true
            }
        );
        assert_eq!(
            certified.to_json_line(),
            "{\"hello\": 2, \"certificate\": true}"
        );
        // Anything but `true` (including malformed values) means off.
        for off in ["false", "1", "\"yes\"", "null"] {
            for flag in ["timing", "certificate"] {
                let line = format!("{{\"hello\": 2, \"{flag}\": {off}}}");
                match ClientFrame::parse_line(&line, 1).unwrap() {
                    ClientFrame::Hello {
                        timing,
                        certificate,
                        ..
                    } => assert!(!timing && !certificate, "{line}"),
                    other => panic!("expected hello for {line}, got {other:?}"),
                }
            }
        }

        let cancel = ClientFrame::parse_line("{\"cancel\": \"job-7\"}", 1).unwrap();
        assert_eq!(
            cancel,
            ClientFrame::Cancel {
                id: "job-7".to_string()
            }
        );
        assert_eq!(
            ClientFrame::parse_line(&cancel.to_json_line(), 1).unwrap(),
            cancel
        );

        assert_eq!(
            ClientFrame::parse_line("{\"stats\": true}", 1).unwrap(),
            ClientFrame::Stats
        );

        // A v1 job line is still a job line.
        match ClientFrame::parse_line("{\"id\": \"a\", \"matrix\": \"10;01\"}", 1).unwrap() {
            ClientFrame::Job(req) => assert_eq!(req.id, "a"),
            other => panic!("expected job, got {other:?}"),
        }

        let sched_line = "{\"schedule\": \"s1\", \"layers\": [\"10;01\", \"11;00\"]}";
        match ClientFrame::parse_line(sched_line, 1).unwrap() {
            ClientFrame::Schedule(req) => {
                assert_eq!(req.id, "s1");
                assert_eq!(req.layers.len(), 2);
                assert_eq!(
                    ClientFrame::parse_line(&ClientFrame::Schedule(req.clone()).to_json_line(), 1)
                        .unwrap(),
                    ClientFrame::Schedule(req)
                );
            }
            other => panic!("expected schedule, got {other:?}"),
        }
    }

    #[test]
    fn job_lines_with_stray_marker_keys_stay_jobs() {
        // Unknown extra fields were always ignored on job lines, so a
        // stray control-marker-named field must not consume the job.
        for stray in [
            "\"stats\": true",
            "\"cancel\": \"x\"",
            "\"hello\": 2",
            "\"schedule\": \"x\"",
        ] {
            let line = format!("{{\"id\": \"j\", \"matrix\": \"10;01\", {stray}}}");
            match ClientFrame::parse_line(&line, 1).unwrap() {
                ClientFrame::Job(req) => assert_eq!(req.id, "j"),
                other => panic!("expected job for {line}, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_control_frames_report_protocol_errors() {
        let (_, err) = ClientFrame::parse_line("{\"hello\": \"two\"}", 1).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Protocol);
        let (_, err) = ClientFrame::parse_line("{\"cancel\": 7}", 1).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Protocol);
    }

    #[test]
    fn hello_ack_roundtrip() {
        let ack = HelloAck {
            protocol: 2,
            server: "rect-addr/0.2.0".to_string(),
            capabilities: Capabilities {
                shards: 16,
                strategies: vec!["trivial".into(), "packing".into(), "sap".into()],
                canon_budget: 4096,
                queue_depth: 1024,
                workers: 4,
                timing: true,
                certificate: true,
                schedule: true,
            },
        };
        let line = ack.to_json_line();
        assert!(line.contains("\"timing\": true"), "{line}");
        assert!(line.contains("\"certificate\": true"), "{line}");
        assert!(line.contains("\"schedule\": true"), "{line}");
        assert_eq!(HelloAck::parse_line(&line).unwrap(), ack);
        // An ack from a server predating the flags parses with all off.
        let legacy = line
            .replace(", \"timing\": true", "")
            .replace(", \"certificate\": true", "")
            .replace(", \"schedule\": true", "");
        let parsed = HelloAck::parse_line(&legacy).unwrap();
        assert!(!parsed.capabilities.timing, "{legacy}");
        assert!(!parsed.capabilities.certificate, "{legacy}");
        assert!(!parsed.capabilities.schedule, "{legacy}");
    }

    #[test]
    fn cancel_ack_roundtrip() {
        for done in [true, false] {
            let ack = CancelAck {
                id: "job \"quoted\"".to_string(),
                done,
            };
            assert_eq!(CancelAck::parse_line(&ack.to_json_line()).unwrap(), ack);
        }
    }

    #[test]
    fn summary_v1_shape_is_stable() {
        let frame = SummaryFrame {
            solved: 3,
            failed: 1,
            canceled: 0,
            busy: 0,
            schedule_jobs: 1,
            schedule_layers: 3,
            snapshot: EngineSnapshot {
                cache_hits: 2,
                cache_misses: 2,
                cache_entries: 2,
                cache_evictions: 0,
                flight_waits: 1,
                warm_sessions: 1,
                canon_complete: 4,
                canon_heuristic: 0,
            },
        };
        // The exact v1 trailer bytes existing consumers parse.
        assert_eq!(
            frame.to_json_line(WireVersion::V1),
            "{\"summary\": true, \"solved\": 3, \"failed\": 1, \"cache_hits\": 2, \
             \"cache_entries\": 2, \"cache_evictions\": 0, \"flight_waits\": 1, \
             \"warm_sessions\": 1, \"canon_complete\": 4, \"canon_heuristic\": 0}"
        );
        let v2 = frame.to_json_line(WireVersion::V2);
        assert!(v2.contains("\"protocol\": 2"), "{v2}");
        assert!(v2.contains("\"canceled\": 0"), "{v2}");
        assert!(v2.contains("\"schedule_jobs\": 1"), "{v2}");
        let parsed = SummaryFrame::parse_line(&v2).unwrap();
        assert_eq!(parsed, frame, "v2 trailer round-trips losslessly");
        assert_eq!(parsed.snapshot.cache_misses, 2);
        assert_eq!(parsed.snapshot.canon_complete, 4);
        assert!(SummaryFrame::is_summary_line(&v2));
        // A v2 trailer from a server predating schedules parses with the
        // schedule counters at 0.
        let legacy = v2.replace(", \"schedule_jobs\": 1, \"schedule_layers\": 3", "");
        let parsed = SummaryFrame::parse_line(&legacy).unwrap();
        assert_eq!(parsed.schedule_jobs, 0, "{legacy}");
        assert_eq!(parsed.schedule_layers, 0, "{legacy}");
        assert!(!SummaryFrame::is_summary_line(
            "{\"id\": \"x\", \"ok\": true"
        ));
    }

    #[test]
    fn stats_frame_roundtrip_truncates_keys() {
        let frame = StatsFrame {
            snapshot: EngineSnapshot {
                cache_hits: 10,
                cache_misses: 4,
                ..EngineSnapshot::default()
            },
            queue_depth: 64,
            queue_len: 3,
            persisted_sessions: 17,
            certified_jobs: 7,
            schedule_jobs: 2,
            schedule_layers: 6,
            canon_heuristic_hot: vec![HotKey {
                key: "x".repeat(200),
                count: 9,
            }],
            snapshot_load_failures: 2,
            open_connections: 2049,
            snapshot_generation: 12,
            latency: BTreeMap::new(),
        };
        let line = frame.to_json_line();
        assert!(!line.contains("budget_skips"), "{line}");
        let parsed = StatsFrame::parse_line(&line).unwrap();
        assert_eq!(parsed.snapshot.cache_hits, 10);
        assert_eq!(parsed.queue_len, 3);
        assert_eq!(parsed.persisted_sessions, 17);
        assert_eq!(parsed.certified_jobs, 7);
        assert_eq!(parsed.schedule_jobs, 2);
        assert_eq!(parsed.schedule_layers, 6);
        assert_eq!(parsed.snapshot_load_failures, 2);
        assert_eq!(parsed.open_connections, 2049);
        assert_eq!(parsed.snapshot_generation, 12);
        // A pre-persistence stats line — the keys genuinely absent, as an
        // older server would emit — still parses, defaulting both to 0.
        let legacy_line = "{\"stats\": true, \"protocol\": 2, \
             \"cache\": {\"hits\": 1, \"misses\": 2, \"entries\": 1, \"evictions\": 0, \
             \"flight_waits\": 0, \"canon_complete\": 3, \"canon_heuristic\": 0}, \
             \"queue\": {\"depth\": 8, \"len\": 0}, \"warm_sessions\": 1, \
             \"canon_heuristic_hot\": []}";
        let legacy = StatsFrame::parse_line(legacy_line).unwrap();
        assert_eq!(legacy.persisted_sessions, 0);
        assert_eq!(legacy.snapshot.cache_hits, 1);
        assert_eq!(parsed.canon_heuristic_hot.len(), 1);
        assert_eq!(
            parsed.canon_heuristic_hot[0].key.len(),
            StatsFrame::KEY_PREVIEW
        );
        assert_eq!(parsed.canon_heuristic_hot[0].count, 9);
    }

    #[test]
    fn stats_latency_section_roundtrips() {
        let mut frame = StatsFrame {
            queue_depth: 8,
            ..StatsFrame::default()
        };
        frame.latency.insert(
            "job_us".to_string(),
            LatencySummary {
                count: 12,
                p50: 120,
                p90: 400,
                p99: 900,
                max: 912,
            },
        );
        frame.latency.insert(
            "queue_wait_us".to_string(),
            LatencySummary {
                count: 12,
                p50: 3,
                p90: 9,
                p99: 15,
                max: 15,
            },
        );
        let line = frame.to_json_line();
        assert!(
            line.contains("\"latency\": {\"job_us\": {\"count\": 12, \"p50\": 120"),
            "{line}"
        );
        assert_eq!(StatsFrame::parse_line(&line).unwrap(), frame);
    }

    #[test]
    fn stats_line_without_latency_parses_with_empty_histograms() {
        // Same back-compat contract as `persisted_sessions`: a v2 stats
        // line from a server predating the telemetry section parses with
        // the new fields at their defaults.
        let legacy_line = "{\"stats\": true, \"protocol\": 2, \
             \"cache\": {\"hits\": 1, \"misses\": 2, \"entries\": 1, \"evictions\": 0, \
             \"flight_waits\": 0, \"canon_complete\": 3, \"canon_heuristic\": 0}, \
             \"queue\": {\"depth\": 8, \"len\": 0}, \"warm_sessions\": 1, \
             \"persisted_sessions\": 4, \"budget_skips\": 1, \
             \"canon_heuristic_hot\": []}";
        let legacy = StatsFrame::parse_line(legacy_line).unwrap();
        assert!(legacy.latency.is_empty());
        assert_eq!(legacy.snapshot_load_failures, 0);
        assert_eq!(legacy.persisted_sessions, 4);
        assert_eq!(legacy.certified_jobs, 0);
        assert_eq!(legacy.schedule_jobs, 0);
        assert_eq!(legacy.schedule_layers, 0);
        // Fields the scaled serving tier added, absent the same way.
        assert_eq!(legacy.open_connections, 0);
        assert_eq!(legacy.snapshot_generation, 0);
        // A malformed latency value degrades to empty, not an error.
        let odd = legacy_line.replace(
            ", \"canon_heuristic_hot\"",
            ", \"latency\": 7, \"canon_heuristic_hot\"",
        );
        assert!(StatsFrame::parse_line(&odd).unwrap().latency.is_empty());
    }
}
