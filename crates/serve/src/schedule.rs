//! Server-side execution of multi-layer `schedule` frames, as
//! continuations on the worker pool.
//!
//! A schedule's layers are solved **sequentially** against the shared
//! [`Service`] — layer `k+1` is submitted only after layer `k`'s answer
//! arrived, so consecutive layers reuse the warm `SapSession` chain and
//! the canonical cache the earlier layers populated (the whole point of
//! submitting a circuit as one unit instead of racing its layers against
//! each other). Each layer's ordinary response streams to the peer as it
//! completes; the aggregated [`ScheduleSummary`] trails the batch.
//!
//! No thread waits on a schedule. A [`ScheduleRun`] is the response sink
//! of its current layer: the worker that answers layer `k` records it,
//! forwards it to the connection and submits layer `k+1` without blocking,
//! past the queue bound — safe because a schedule never has more than one
//! layer queued, and the frame itself was admitted like a job.
//!
//! Each schedule owns a private cancellation group, so a `cancel` frame
//! naming the schedule abandons *its* still-queued layer without touching
//! the connection's other jobs: the already-solved layers were delivered,
//! the in-flight layer finishes (started work is never interrupted), and
//! the remaining layers answer [`ErrorKind::Canceled`] — partial results
//! by construction.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

use proto::{ErrorKind, JobError, JobRequest, JobResponse, ScheduleRequest, ScheduleSummary};

use crate::service::{Admit, GroupId, OutEvent, QueueRef, ResponseSink, Service};

/// Bound on schedules a single connection may have in flight; one past it
/// answers `busy` (same backpressure contract as a full queue).
pub const MAX_ACTIVE_SCHEDULES: usize = 64;

/// One admitted schedule frame, advanced by whoever answers its current
/// layer.
pub(crate) struct ScheduleRun {
    /// This run, as the sink of each next layer it submits.
    me: Weak<ScheduleRun>,
    queue: QueueRef,
    /// The connection's sink: layer responses, then the summary line.
    conn: Arc<dyn ResponseSink>,
    /// The schedule's private cancellation group.
    group: GroupId,
    /// Per-layer deadlines run from here.
    accepted: Instant,
    /// Flags only (`Relaxed`): the run's state is under `progress`.
    canceled: AtomicBool,
    /// Set just before the summary is delivered.
    finished: AtomicBool,
    progress: Mutex<Progress>,
}

struct Progress {
    /// Layers not yet submitted, in order.
    layers: std::vec::IntoIter<JobRequest>,
    summary: ScheduleSummary,
}

impl ScheduleRun {
    /// Admits `req` like a v2 job: its first layer is submitted without
    /// blocking, and a full queue rejects the whole frame `busy`. The first
    /// layer's deadline needs no clamping — its queue wait starts at
    /// acceptance.
    pub(crate) fn start(
        service: &Service,
        req: &ScheduleRequest,
        conn: Arc<dyn ResponseSink>,
    ) -> Result<Arc<ScheduleRun>, JobError> {
        let mut layers = req.to_jobs().into_iter();
        let first = layers.next().expect("a parsed schedule has a layer");
        let run = Arc::new_cyclic(|me| ScheduleRun {
            me: me.clone(),
            queue: service.queue_ref(),
            conn,
            group: service.new_group(),
            accepted: Instant::now(),
            canceled: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            progress: Mutex::new(Progress {
                layers,
                summary: ScheduleSummary {
                    id: req.id.clone(),
                    layers: req.layers.len() as u64,
                    solved: 0,
                    failed: 0,
                    canceled: 0,
                    total_depth: 0,
                    proved_optimal: 0,
                    cache_hits: 0,
                    certified: 0,
                    conflicts: 0,
                    millis: 0.0,
                    provenance: Vec::with_capacity(req.layers.len()),
                },
            }),
        });
        service
            .enqueue(first, run.clone(), run.group, Admit::Try)
            .map_err(|(e, _)| e.to_job_error(service.queue_depth()))?;
        Ok(run)
    }

    /// Flags the schedule canceled and abandons its queued layer (whose
    /// canceled answer advances the run through the remaining layers).
    /// Returns `false` once the schedule has finished.
    pub(crate) fn cancel(&self, service: &Service) -> bool {
        if self.finished() {
            return false;
        }
        self.canceled.store(true, Ordering::Relaxed);
        service.cancel_group(self.group);
        true
    }

    /// Whether the summary has been (or is being) delivered.
    pub(crate) fn finished(&self) -> bool {
        self.finished.load(Ordering::Relaxed)
    }
}

impl ResponseSink for ScheduleRun {
    /// Takes the current layer's answer — from the worker that solved it,
    /// or from a cancel that withdrew it — forwards it, and moves on: the
    /// next layer is submitted, or answered at once when the schedule was
    /// canceled or the layer's deadline already passed. After the last
    /// layer the summary follows.
    fn deliver(&self, event: OutEvent) -> bool {
        let OutEvent::Response(mut response) = event else {
            return true; // the service sends responses only
        };
        // Held throughout, so layer k+1's answer (possibly on another
        // worker) is forwarded only after layer k's.
        let mut progress = self.progress.lock().expect("schedule progress poisoned");
        loop {
            progress.record(&response);
            obs::registry().counter(obs::names::SCHEDULE_LAYERS).inc();
            // A closed connection discards the rest: stop submitting.
            if !self.conn.deliver(OutEvent::Response(response)) {
                return false;
            }
            let Some(mut layer) = progress.layers.next() else {
                break;
            };
            response = if self.canceled.load(Ordering::Relaxed) {
                JobResponse::failure(
                    layer.id,
                    JobError::new(ErrorKind::Canceled, "schedule canceled"),
                )
            } else if let Some(expired) = expire(&mut layer.deadline_ms, self.accepted) {
                // Per-layer deadlines run from schedule *acceptance*: a
                // layer whose clock ran out while its predecessors solved
                // fails without ever occupying a worker.
                JobResponse::failure(layer.id, expired)
            } else {
                let me = self.me.upgrade().expect("a delivering run is alive");
                match self.queue.enqueue(layer, me, self.group, Admit::Always) {
                    Ok(_ticket) => return true,
                    // Only a shutdown refuses: `Always` ignores the bound.
                    Err((e, layer)) => JobResponse::failure(layer.id, e.to_job_error(0)),
                }
            };
        }
        progress.summary.millis = self.accepted.elapsed().as_secs_f64() * 1000.0;
        self.finished.store(true, Ordering::Relaxed);
        self.conn
            .deliver(OutEvent::Control(progress.summary.to_json_line()))
    }
}

impl Progress {
    fn record(&mut self, response: &JobResponse) {
        let summary = &mut self.summary;
        match response.error_kind() {
            None => {
                summary.solved += 1;
                summary.total_depth += response.depth as u64;
                summary.proved_optimal += u64::from(response.proved_optimal);
                summary.cache_hits += u64::from(response.cache_hit);
                summary.certified += u64::from(response.certificate.is_some());
                summary.conflicts += response.conflicts;
                summary.provenance.push(response.provenance.clone());
            }
            Some(ErrorKind::Canceled) => {
                summary.canceled += 1;
                summary.provenance.push(ErrorKind::Canceled.to_string());
            }
            Some(kind) => {
                summary.failed += 1;
                summary.provenance.push(kind.to_string());
            }
        }
    }
}

/// Clamps a layer deadline to the time remaining since `accepted`;
/// returns the deadline failure when it already expired.
fn expire(deadline_ms: &mut Option<u64>, accepted: Instant) -> Option<JobError> {
    let deadline = (*deadline_ms)?;
    let elapsed = accepted.elapsed().as_millis().min(u64::MAX as u128) as u64;
    match deadline.checked_sub(elapsed).filter(|r| *r > 0) {
        Some(remaining) => {
            *deadline_ms = Some(remaining);
            None
        }
        None => {
            obs::registry().counter(obs::names::ERR_DEADLINE).inc();
            Some(JobError::new(
                ErrorKind::Deadline,
                format!("layer deadline of {deadline}ms expired {elapsed}ms into the schedule"),
            ))
        }
    }
}
