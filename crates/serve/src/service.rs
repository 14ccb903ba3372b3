//! The [`Service`] facade: a bounded, priority-ordered submission queue
//! and a worker pool in front of one shared [`Engine`].
//!
//! Every transport (the stdin/stdout loop, each socket connection, a
//! library consumer calling [`Service::submit`]) multiplexes onto the same
//! service, so the canonical-form cache and the warm SAP sessions are
//! shared across all of them — a duplicate submitted by client A is a
//! cache hit for client B.

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use engine::persist::{
    load_snapshot, lock_state_dir, save_snapshot_gen, snapshot_generation, SnapshotError,
    SnapshotStats, DEFAULT_MAX_CORE_CLAUSES,
};
use engine::{CacheStats, Engine, EngineConfig};
use obs::JobTrace;
use proto::{Capabilities, ErrorKind, JobError, JobRequest, JobResponse, Timing};

/// Where and how often a [`Service`] spills the engine's warm state (the
/// session store's parked SAP sessions) to disk. See `engine::persist`
/// for the snapshot format and its corruption/versioning guarantees.
///
/// Any number of services, in one process or several, may share a state
/// dir. The one holding the dir's writer lock
/// ([`lock_state_dir`](engine::persist::lock_state_dir)) is its only
/// snapshot writer; every other one follows it, adopting each newer
/// snapshot generation into its live engine, and takes the lock over
/// once the writer releases it (shuts down, exits or is killed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistConfig {
    /// Directory holding the snapshot and the writer lock (created at
    /// service construction). Loaded at service construction: a valid
    /// snapshot warm-starts the engine, a missing/corrupt/foreign-schema
    /// one cold-starts it.
    pub state_dir: PathBuf,
    /// Also snapshot after every `N` completed jobs (`None` = only on
    /// [`Service::shutdown`]). A periodic flush is what survives an
    /// unclean kill — `SIGKILL` runs no destructor.
    pub snapshot_every: Option<u64>,
    /// The follow period: how often a service that is not the writer
    /// tries the writer lock and adopts a newer snapshot (`None` = 1 s).
    pub lease: Option<Duration>,
}

impl PersistConfig {
    /// Persistence at `state_dir` with the default
    /// [`DEFAULT_SNAPSHOT_EVERY`] flush cadence.
    pub fn at(state_dir: impl Into<PathBuf>) -> Self {
        PersistConfig {
            state_dir: state_dir.into(),
            snapshot_every: Some(DEFAULT_SNAPSHOT_EVERY),
            lease: None,
        }
    }
}

/// Configuration of a [`Service`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Bound of the submission queue. A non-blocking submit against a full
    /// queue is rejected with [`SubmitError::Busy`] — the backpressure
    /// signal v2 connections forward as `busy` responses.
    pub queue_depth: usize,
    /// Worker threads solving jobs. `0` means
    /// [`EngineConfig::effective_workers`].
    pub workers: usize,
    /// Warm-state persistence (`None` = in-memory only, the default).
    pub persist: Option<PersistConfig>,
}

/// Default bound of the submission queue.
pub const DEFAULT_QUEUE_DEPTH: usize = 1024;

/// Default periodic-flush cadence of [`PersistConfig::at`], in completed
/// jobs.
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 32;

/// The follow period of a [`PersistConfig`] without one.
const DEFAULT_FOLLOW_PERIOD: Duration = Duration::from_secs(1);

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_depth: DEFAULT_QUEUE_DEPTH,
            workers: 0,
            persist: None,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is full; retry after draining some responses.
    Busy,
    /// The service is shutting down and accepts no new work.
    ShuttingDown,
}

impl SubmitError {
    /// The wire error this rejection maps to.
    pub fn to_job_error(self, queue_depth: usize) -> JobError {
        match self {
            SubmitError::Busy => JobError::new(
                ErrorKind::Busy,
                format!("submission queue full (depth {queue_depth}); retry later"),
            ),
            SubmitError::ShuttingDown => {
                JobError::new(ErrorKind::Internal, "service is shutting down")
            }
        }
    }
}

/// How a submission meets a full queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admit {
    /// Reject it with [`SubmitError::Busy`].
    Try,
    /// Wait until a worker frees a slot.
    Wait,
    /// Enqueue past the bound: the next layer of a schedule whose frame
    /// was already admitted. A schedule has at most one layer queued, so
    /// the excess stays bounded by the number of open schedules.
    Always,
}

/// A handle to a service's queue that does not keep the service alive: a
/// schedule holds one to submit each next layer from the worker that
/// answered the previous one.
#[derive(Debug, Clone)]
pub(crate) struct QueueRef(Weak<Inner>);

impl QueueRef {
    /// [`Service::enqueue`]; a service already dropped answers
    /// [`SubmitError::ShuttingDown`].
    #[allow(clippy::result_large_err)] // rejection returns the request by value, no alloc
    pub(crate) fn enqueue(
        &self,
        req: JobRequest,
        sink: Arc<dyn ResponseSink>,
        group: GroupId,
        admit: Admit,
    ) -> Result<Ticket, (SubmitError, JobRequest)> {
        match self.0.upgrade() {
            Some(inner) => inner.enqueue(req, sink, group, admit),
            None => Err((SubmitError::ShuttingDown, req)),
        }
    }
}

/// Opaque identity of one accepted submission, scoped to the service.
/// Wire-level `cancel` frames name the client-chosen job id; transports
/// map those to tickets, so same-id jobs from different connections never
/// cancel each other.
pub type Ticket = u64;

/// Identity of a cancellation group — typically one per connection, from
/// [`Service::new_group`] — letting a transport abandon every job it still
/// has queued in one call ([`Service::cancel_group`]) when its peer hangs
/// up. `0` means ungrouped.
pub type GroupId = u64;

/// Where a submission's events go. The service pushes a job's
/// [`OutEvent::Response`] (and cancellation notices) through this. A
/// [`Sender<OutEvent>`] is one (what [`Service::submit`] waits on); the
/// transports route completions back to their connection's session, and a
/// running schedule is the sink of its own current layer.
pub trait ResponseSink: Send + Sync {
    /// Delivers one event. Returns `false` when the receiver is gone (the
    /// submitter hung up) — senders may use that to stop early, and must
    /// tolerate the event being discarded.
    fn deliver(&self, event: OutEvent) -> bool;
}

impl ResponseSink for Sender<OutEvent> {
    fn deliver(&self, event: OutEvent) -> bool {
        self.send(event).is_ok()
    }
}

/// One event delivered to a submission's response sink. The service
/// itself only ever sends [`OutEvent::Response`]; a schedule delivers its
/// summary frame to the connection as an [`OutEvent::Control`] line after
/// its last layer.
// The size gap is real (a response with a certificate dwarfs a control
// line) but each event lives only for one trip through a sink before the
// session consumes it; boxing would buy transient bytes at the cost of an
// allocation per response on the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum OutEvent {
    /// A job's single response.
    Response(JobResponse),
    /// A pre-serialized control frame line (a schedule's summary).
    Control(String),
}

/// Point-in-time service observability, the payload of the v2 `stats`
/// frame.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Canonical-form cache counters of the shared engine.
    pub cache: CacheStats,
    /// Warm SAP sessions currently parked.
    pub warm_sessions: usize,
    /// Configured queue bound.
    pub queue_depth: usize,
    /// Jobs currently queued (not yet taken by a worker).
    pub queue_len: usize,
    /// Warm sessions restored from the disk snapshot at startup.
    pub persisted_sessions: u64,
    /// Hottest heuristic-labeled cache keys (canonizer-aware admission
    /// candidates), hottest first.
    pub hot_heuristic_keys: Vec<(String, u64)>,
    /// Jobs answered with a self-contained DRAT certificate attached.
    pub certified_jobs: u64,
    /// Multi-layer `schedule` frames accepted service-wide.
    pub schedule_jobs: u64,
    /// Layers answered on behalf of `schedule` frames, whatever the
    /// outcome (solved, failed, deadline-expired or canceled).
    pub schedule_layers: u64,
    /// Snapshot loads rejected at startup for a reason *other than* the
    /// snapshot simply not existing yet (corruption, foreign schema, IO).
    /// A first boot is not a failure; a silently ignored warm state is.
    pub snapshot_load_failures: u64,
    /// Transport connections currently open against this process (the
    /// socket layers call [`Service::connection_opened`]/`_closed`).
    pub open_connections: u64,
    /// Generation of the newest snapshot this process wrote or adopted
    /// (`0` = none yet). Under a shared state dir this is how an operator
    /// sees reader processes tracking the writer.
    pub snapshot_generation: u64,
}

/// Queue ordering: higher priority first, FIFO within a priority.
type OrderKey = (i64, u64); // (-priority, seq): BTreeMap pops the minimum

struct Queued {
    ticket: Ticket,
    group: GroupId,
    req: JobRequest,
    sink: Arc<dyn ResponseSink>,
    submitted: Instant,
    /// Per-job stage trace, born at submission so its total spans queue
    /// wait plus solve. The engine fills the canon/cache/race stages; the
    /// worker stamps queue wait and the total.
    trace: Arc<JobTrace>,
}

/// What the persister thread is woken for.
#[derive(Default)]
struct PersisterSignal {
    /// A flush was asked for since the last one began.
    flush_due: bool,
    stop: bool,
}

#[derive(Default)]
struct QueueState {
    by_order: BTreeMap<OrderKey, Queued>,
    by_ticket: HashMap<Ticket, OrderKey>,
    seq: u64,
    stop: bool,
}

struct Inner {
    engine: Arc<Engine>,
    state: Mutex<QueueState>,
    /// Signals workers that work (or stop) is available.
    work: Condvar,
    /// Signals blocking submitters that queue space freed up.
    space: Condvar,
    queue_depth: usize,
    next_ticket: AtomicU64,
    next_group: AtomicU64,
    /// Warm-state persistence, when configured.
    persist: Option<PersistConfig>,
    /// Jobs completed since startup (drives the periodic flush).
    jobs_done: AtomicU64,
    /// The state dir's writer lock while this service holds it (`None`
    /// without persistence, or while another service writes). Snapshots
    /// are written under this mutex, so no two flushes overlap.
    writer: Mutex<Option<File>>,
    /// Wakes the persister thread.
    persister_signal: Mutex<PersisterSignal>,
    persister_wake: Condvar,
    /// Startup snapshot loads rejected for a reason other than
    /// [`SnapshotError::Missing`] (see [`ServiceStats`]).
    snapshot_load_failures: AtomicU64,
    /// Generation of the newest snapshot written *or adopted* by this
    /// process (0 = none yet).
    snapshot_generation: AtomicU64,
    /// Transport connections currently open (socket layers report
    /// open/close through the [`Service`] facade).
    open_connections: AtomicU64,
}

impl Inner {
    /// Writes a snapshot now if this service holds the writer lock. Errors
    /// are reported on stderr and swallowed: a failed flush must never
    /// take down serving.
    fn flush_snapshot(&self) -> Option<SnapshotStats> {
        let persist = self.persist.as_ref()?;
        let writer = self.writer.lock().expect("writer lock slot poisoned");
        if writer.is_none() {
            return None;
        }
        let flush_start = Instant::now();
        // Generations stay monotonic across processes: continue from
        // whichever is newer, the on-disk header (a load of the previous
        // writer's last snapshot may have been rejected) or our local
        // counter.
        let disk_gen = snapshot_generation(&persist.state_dir).unwrap_or(0);
        let generation = disk_gen.max(self.snapshot_generation.load(Ordering::Relaxed)) + 1;
        match save_snapshot_gen(
            &persist.state_dir,
            &self.engine,
            DEFAULT_MAX_CORE_CLAUSES,
            generation,
        ) {
            Ok(stats) => {
                self.snapshot_generation
                    .store(generation, Ordering::Relaxed);
                obs::registry()
                    .histogram(obs::names::SNAPSHOT_FLUSH_US)
                    .record_duration(flush_start.elapsed());
                Some(stats)
            }
            Err(e) => {
                eprintln!(
                    "rect-addr: snapshot to {} failed: {e}",
                    persist.state_dir.display()
                );
                None
            }
        }
    }

    /// The periodic flush hook, called once per completed job: every
    /// `snapshot_every` jobs it asks the persister for a flush, so the
    /// worker goes straight back to serving.
    fn note_job_done(&self) {
        let done = self.jobs_done.fetch_add(1, Ordering::Relaxed) + 1;
        obs::registry().counter(obs::names::JOBS_COMPLETED).inc();
        let Some(every) = self.persist.as_ref().and_then(|p| p.snapshot_every) else {
            return;
        };
        if every > 0 && done.is_multiple_of(every) {
            self.persister_signal
                .lock()
                .expect("persister signal poisoned")
                .flush_due = true;
            self.persister_wake.notify_one();
        }
    }

    /// One follow-period step of a service that is not the writer: try
    /// the writer lock, then adopt any newer snapshot generation. In that
    /// order, a new writer starts from its predecessor's last snapshot.
    /// Returns whether this service now holds the lock.
    fn follow(&self, state_dir: &Path) -> bool {
        let mut writer = self.writer.lock().expect("writer lock slot poisoned");
        if let Ok(Some(lock)) = lock_state_dir(state_dir) {
            *writer = Some(lock);
            eprintln!(
                "rect-addr: snapshot writer for {} (took over the writer lock)",
                state_dir.display()
            );
        }
        let local = self.snapshot_generation.load(Ordering::Relaxed);
        if snapshot_generation(state_dir).is_some_and(|disk| disk > local) {
            // A rejected load installs nothing; the next period retries.
            if let Ok(restored) = load_snapshot(state_dir, &self.engine) {
                self.snapshot_generation
                    .store(restored.generation, Ordering::Relaxed);
                eprintln!(
                    "rect-addr: adopted snapshot generation {} ({} sessions) from {}",
                    restored.generation,
                    restored.sessions,
                    state_dir.display()
                );
            }
        }
        writer.is_some()
    }
}

impl Inner {
    /// Solves one dequeued job, honoring its queue deadline: an expired
    /// deadline answers [`ErrorKind::Deadline`] without running, and a
    /// live one clamps the job's wall-clock budget to the time remaining.
    /// The deadline-free common path borrows the request as-is (no
    /// per-job matrix clone on the worker hot path).
    fn run_one(&self, job: &Queued) -> JobResponse {
        // Queue wait is recorded for *every* job, not only deadline ones —
        // the histogram is what reveals a saturated worker pool.
        let waited = job.submitted.elapsed();
        let waited_us = waited.as_micros().min(u64::MAX as u128) as u64;
        job.trace.set_queue_us(waited_us);
        obs::registry()
            .histogram(obs::names::QUEUE_WAIT_US)
            .record(waited_us);
        let Some(deadline_ms) = job.req.deadline_ms else {
            return self.engine.solve_job_traced(&job.req, &job.trace);
        };
        let waited_ms = waited.as_millis() as u64;
        let Some(remaining) = deadline_ms.checked_sub(waited_ms).filter(|r| *r > 0) else {
            obs::registry().counter(obs::names::ERR_DEADLINE).inc();
            return JobResponse::failure(
                job.req.id.clone(),
                JobError::new(
                    ErrorKind::Deadline,
                    format!("deadline of {deadline_ms}ms expired after {waited_ms}ms in queue"),
                ),
            );
        };
        let mut req = job.req.clone();
        req.budget_ms = Some(req.budget_ms.map_or(remaining, |b| b.min(remaining)));
        self.engine.solve_job_traced(&req, &job.trace)
    }

    #[allow(clippy::result_large_err)] // rejection returns the request by value, no alloc
    fn enqueue(
        &self,
        req: JobRequest,
        sink: Arc<dyn ResponseSink>,
        group: GroupId,
        admit: Admit,
    ) -> Result<Ticket, (SubmitError, JobRequest)> {
        let mut state = self.state.lock().expect("service queue poisoned");
        while admit != Admit::Always && state.by_order.len() >= self.queue_depth {
            if state.stop {
                return Err((SubmitError::ShuttingDown, req));
            }
            if admit == Admit::Try {
                obs::registry().counter(obs::names::ERR_BUSY).inc();
                return Err((SubmitError::Busy, req));
            }
            state = self.space.wait(state).expect("service queue poisoned");
        }
        if state.stop {
            return Err((SubmitError::ShuttingDown, req));
        }
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        state.seq += 1;
        // Negated priority: BTreeMap iteration order pops the minimum, so
        // higher priorities sort first and ties stay FIFO by sequence.
        // Saturating: -i64::MIN would overflow; saturating to MAX keeps the
        // lowest expressible priority sorting last instead of panicking.
        let key = (req.priority.saturating_neg(), state.seq);
        state.by_ticket.insert(ticket, key);
        state.by_order.insert(
            key,
            Queued {
                ticket,
                group,
                req,
                sink,
                submitted: Instant::now(),
                trace: Arc::new(JobTrace::new()),
            },
        );
        drop(state);
        self.work.notify_one();
        Ok(ticket)
    }
}

/// The answer of a job removed from the queue by a cancel frame.
fn canceled(req: &JobRequest) -> JobResponse {
    JobResponse::failure(
        req.id.clone(),
        JobError::new(ErrorKind::Canceled, "canceled while queued"),
    )
}

/// The persister: one thread per persisting service, the only one that
/// writes periodic snapshots or follows the state dir. The writer sleeps
/// until a flush is due; a request arriving mid-flush sets the flag again
/// and so coalesces into one follow-up flush. Any other service wakes
/// once per follow period to [`Inner::follow`] the writer. `writer` is
/// the role the service started in.
fn persister_loop(inner: &Inner, mut writer: bool) {
    let Some(persist) = &inner.persist else {
        return;
    };
    let follow_period = persist.lease.unwrap_or(DEFAULT_FOLLOW_PERIOD);
    loop {
        {
            let signal = inner
                .persister_signal
                .lock()
                .expect("persister signal poisoned");
            let mut signal = if writer {
                inner
                    .persister_wake
                    .wait_while(signal, |s| !s.stop && !s.flush_due)
                    .expect("persister signal poisoned")
            } else {
                inner
                    .persister_wake
                    .wait_timeout_while(signal, follow_period, |s| !s.stop)
                    .expect("persister signal poisoned")
                    .0
            };
            if signal.stop {
                return;
            }
            signal.flush_due = false;
        }
        if writer {
            inner.flush_snapshot();
        } else {
            writer = inner.follow(&persist.state_dir);
        }
    }
}

fn worker_loop(inner: Arc<Inner>) {
    loop {
        let job = {
            let mut state = inner.state.lock().expect("service queue poisoned");
            loop {
                if let Some((_, job)) = state.by_order.pop_first() {
                    state.by_ticket.remove(&job.ticket);
                    break job;
                }
                // Stop only once the queue is drained: shutdown answers
                // every accepted job before the workers exit.
                if state.stop {
                    return;
                }
                state = inner.work.wait(state).expect("service queue poisoned");
            }
        };
        inner.space.notify_one();
        let mut response = inner.run_one(&job);
        if response.certificate.is_some() {
            obs::registry().counter(obs::names::CERTIFIED_JOBS).inc();
        }
        job.trace.finish();
        obs::registry()
            .histogram(obs::names::JOB_US)
            .record(job.trace.total_us());
        // Every worker-answered response carries its stage trace; the
        // wire layer decides whether the peer actually sees it (v2 with
        // the `timing` opt-in only — v1 stays byte-identical).
        response.timing = Some(Timing {
            queue_us: job.trace.queue_us(),
            canon_us: job.trace.canon_us(),
            cache_us: job.trace.cache_us(),
            race_us: job.trace.race_us(),
            total_us: job.trace.total_us(),
        });
        // A closed sink (the submitter hung up) just discards the answer.
        let _ = job.sink.deliver(OutEvent::Response(response));
        inner.note_job_done();
    }
}

/// Handle to one accepted submission from [`Service::submit`].
#[derive(Debug)]
pub struct JobHandle {
    ticket: Ticket,
    id: String,
    rx: Receiver<OutEvent>,
}

impl JobHandle {
    /// The service-scoped ticket (pass to [`Service::cancel`]).
    pub fn ticket(&self) -> Ticket {
        self.ticket
    }

    /// The job's correlation id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Blocks until the job's response exists (solved, canceled, or
    /// deadline-expired). A service torn down before the job ran answers
    /// [`ErrorKind::Internal`].
    pub fn wait(self) -> JobResponse {
        match self.rx.recv() {
            Ok(OutEvent::Response(resp)) => resp,
            Ok(OutEvent::Control(_)) | Err(_) => JobResponse::failure(
                self.id,
                JobError::new(ErrorKind::Internal, "service dropped the job"),
            ),
        }
    }
}

/// The serving facade over one shared [`Engine`]; see the module docs.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use engine::{Engine, EngineConfig};
/// use proto::JobRequest;
/// use rect_addr_serve::{Service, ServiceConfig};
///
/// let engine = Arc::new(Engine::new(EngineConfig::default()));
/// let service = Service::new(engine, ServiceConfig::default());
/// let handle = service
///     .submit(JobRequest::new("l0", "10\n01".parse().unwrap()))
///     .expect("queue has room");
/// let resp = handle.wait();
/// assert!(resp.ok);
/// assert_eq!(resp.depth, 2);
/// ```
pub struct Service {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    worker_count: usize,
    /// The persister thread (persistence only).
    persister: Mutex<Option<JoinHandle<()>>>,
}

impl Service {
    /// Spawns the worker pool over an existing (possibly shared) engine.
    /// With [`ServiceConfig::persist`] set, the service first tries the
    /// state dir's writer lock (its role, writer or reader, goes to
    /// stderr), then loads the snapshot — a valid one warm-starts the
    /// engine (restored sessions rehydrate lazily per canonical class); a
    /// missing, corrupt or foreign-schema one is rejected wholesale and
    /// the engine cold-starts, with the rejection reason on stderr. A
    /// persister thread then flushes or follows (see [`PersistConfig`]).
    pub fn new(engine: Arc<Engine>, config: ServiceConfig) -> Service {
        let mut load_failures = 0u64;
        let mut loaded_generation = 0u64;
        let mut writer = None;
        if let Some(persist) = &config.persist {
            // Lock before loading: a writer's predecessor has released the
            // lock, so the snapshot loaded next is its last one.
            writer = lock_state_dir(&persist.state_dir).unwrap_or_else(|e| {
                eprintln!(
                    "rect-addr: cannot lock {} ({e})",
                    persist.state_dir.display()
                );
                None
            });
            eprintln!(
                "rect-addr: snapshot {} for {}",
                if writer.is_some() { "writer" } else { "reader" },
                persist.state_dir.display()
            );
            match load_snapshot(&persist.state_dir, &engine) {
                Ok(restored) => {
                    loaded_generation = restored.generation;
                    if restored.sessions > 0 {
                        eprintln!(
                            "rect-addr: restored {} warm sessions from {}",
                            restored.sessions,
                            persist.state_dir.display()
                        );
                    }
                }
                Err(SnapshotError::Missing) => {} // first boot: silent cold start
                Err(e) => {
                    // A cold start the operator did not ask for: the stderr
                    // line scrolls away, the counter does not.
                    load_failures += 1;
                    obs::registry()
                        .counter(obs::names::SNAPSHOT_LOAD_FAILURES)
                        .inc();
                    eprintln!(
                        "rect-addr: ignoring snapshot in {} ({e}); cold start",
                        persist.state_dir.display()
                    );
                }
            }
        }
        let worker_count = if config.workers == 0 {
            engine.config().effective_workers()
        } else {
            config.workers
        };
        let started_as_writer = writer.is_some();
        let inner = Arc::new(Inner {
            engine,
            state: Mutex::new(QueueState::default()),
            work: Condvar::new(),
            space: Condvar::new(),
            queue_depth: config.queue_depth.max(1),
            next_ticket: AtomicU64::new(1),
            next_group: AtomicU64::new(1),
            persist: config.persist,
            jobs_done: AtomicU64::new(0),
            writer: Mutex::new(writer),
            persister_signal: Mutex::new(PersisterSignal::default()),
            persister_wake: Condvar::new(),
            snapshot_load_failures: AtomicU64::new(load_failures),
            snapshot_generation: AtomicU64::new(loaded_generation),
            open_connections: AtomicU64::new(0),
        });
        let workers = (0..worker_count)
            .map(|_| {
                let inner = inner.clone();
                std::thread::spawn(move || worker_loop(inner))
            })
            .collect();
        let persister = inner.persist.is_some().then(|| {
            let inner = inner.clone();
            std::thread::spawn(move || persister_loop(&inner, started_as_writer))
        });
        Service {
            inner,
            workers: Mutex::new(workers),
            worker_count,
            persister: Mutex::new(persister),
        }
    }

    /// Convenience constructor building the engine too.
    pub fn with_engine_config(engine: EngineConfig, config: ServiceConfig) -> Service {
        Service::new(Arc::new(Engine::new(engine)), config)
    }

    /// The shared engine (for direct solves or stats).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.inner.engine
    }

    /// Worker threads solving jobs.
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// Configured bound of the submission queue.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue_depth
    }

    /// A fresh cancellation group for [`Service::submit_sink`] —
    /// typically one per connection.
    pub fn new_group(&self) -> GroupId {
        self.inner.next_group.fetch_add(1, Ordering::Relaxed)
    }

    /// Submits a job, delivering its [`OutEvent::Response`] to `sink` on
    /// completion. The job joins cancellation `group` (`0` = ungrouped),
    /// so a transport can abandon everything its peer still has queued in
    /// one call ([`Service::cancel_group`]). Against a full queue a
    /// `blocking` submit waits for space; otherwise it answers
    /// [`SubmitError::Busy`] at once, which a transport turns into a
    /// `busy` response (v2 backpressure).
    pub fn submit_sink(
        &self,
        req: JobRequest,
        sink: Arc<dyn ResponseSink>,
        group: GroupId,
        blocking: bool,
    ) -> Result<Ticket, SubmitError> {
        let admit = if blocking { Admit::Wait } else { Admit::Try };
        self.enqueue(req, sink, group, admit).map_err(|(e, _req)| e)
    }

    /// Submits a job and returns a [`JobHandle`] to wait on — the
    /// library-consumer entry point. Non-blocking, like a v2 submit.
    pub fn submit(&self, req: JobRequest) -> Result<JobHandle, SubmitError> {
        let (tx, rx) = mpsc::channel();
        let id = req.id.clone();
        let ticket = self.submit_sink(req, Arc::new(tx), 0, false)?;
        Ok(JobHandle { ticket, id, rx })
    }

    /// The crate's submission path: [`Service::submit_sink`] with every
    /// [`Admit`] policy, handing the request back on rejection so a
    /// parked v1 job can be retried without a clone.
    #[allow(clippy::result_large_err)] // rejection returns the request by value, no alloc
    pub(crate) fn enqueue(
        &self,
        req: JobRequest,
        sink: Arc<dyn ResponseSink>,
        group: GroupId,
        admit: Admit,
    ) -> Result<Ticket, (SubmitError, JobRequest)> {
        self.inner.enqueue(req, sink, group, admit)
    }

    /// A handle to this service's queue that does not keep the service
    /// alive (see [`QueueRef`]).
    pub(crate) fn queue_ref(&self) -> QueueRef {
        QueueRef(Arc::downgrade(&self.inner))
    }

    /// Cancels a **still-queued** job: removes it and delivers its
    /// [`ErrorKind::Canceled`] response through its sink. Returns `false`
    /// when the ticket is unknown, already running, or already answered —
    /// a started job is never interrupted, so every accepted job yields
    /// exactly one response.
    pub fn cancel(&self, ticket: Ticket) -> bool {
        let Some(job) = self.dequeue(ticket) else {
            return false;
        };
        let _ = job.sink.deliver(OutEvent::Response(canceled(&job.req)));
        true
    }

    /// [`Service::cancel`] that hands the canceled response to the caller
    /// instead of the job's sink: a session answering its own job can then
    /// write that response before the cancel ack.
    pub(crate) fn withdraw(&self, ticket: Ticket) -> Option<JobResponse> {
        self.dequeue(ticket).map(|job| canceled(&job.req))
    }

    fn dequeue(&self, ticket: Ticket) -> Option<Queued> {
        let job = {
            let mut state = self.inner.state.lock().expect("service queue poisoned");
            let key = state.by_ticket.remove(&ticket)?;
            state.by_order.remove(&key).expect("ticket maps into queue")
        };
        self.inner.space.notify_one();
        obs::registry().counter(obs::names::ERR_CANCELED).inc();
        Some(job)
    }

    /// Cancels every **still-queued** job of `group` (running jobs finish
    /// normally), delivering each job's [`ErrorKind::Canceled`] response
    /// through its sink. Returns the number of jobs removed. Transports
    /// call this when their peer hangs up mid-stream, so abandoned work
    /// stops occupying the shared worker pool. Group `0` (ungrouped)
    /// never matches.
    pub fn cancel_group(&self, group: GroupId) -> usize {
        if group == 0 {
            return 0;
        }
        let victims: Vec<Queued> = {
            let mut state = self.inner.state.lock().expect("service queue poisoned");
            let keys: Vec<OrderKey> = state
                .by_order
                .iter()
                .filter(|(_, job)| job.group == group)
                .map(|(key, _)| *key)
                .collect();
            keys.into_iter()
                .map(|key| {
                    let job = state.by_order.remove(&key).expect("key just collected");
                    state.by_ticket.remove(&job.ticket);
                    job
                })
                .collect()
        };
        self.inner.space.notify_all();
        let count = victims.len();
        obs::registry()
            .counter(obs::names::ERR_CANCELED)
            .add(count as u64);
        for job in victims {
            let response = JobResponse::failure(
                job.req.id.clone(),
                JobError::new(ErrorKind::Canceled, "canceled: submitter hung up"),
            );
            let _ = job.sink.deliver(OutEvent::Response(response));
        }
        count
    }

    /// Current observability counters (the v2 `stats` frame payload).
    pub fn stats(&self) -> ServiceStats {
        let queue_len = self
            .inner
            .state
            .lock()
            .expect("service queue poisoned")
            .by_order
            .len();
        ServiceStats {
            cache: self.inner.engine.cache_stats(),
            warm_sessions: self.inner.engine.warm_sessions(),
            queue_depth: self.inner.queue_depth,
            queue_len,
            persisted_sessions: self.inner.engine.restored_sessions(),
            hot_heuristic_keys: self.inner.engine.hot_heuristic_keys(8),
            certified_jobs: obs::registry().counter(obs::names::CERTIFIED_JOBS).get(),
            schedule_jobs: obs::registry().counter(obs::names::SCHEDULE_JOBS).get(),
            schedule_layers: obs::registry().counter(obs::names::SCHEDULE_LAYERS).get(),
            snapshot_load_failures: self.inner.snapshot_load_failures.load(Ordering::Relaxed),
            open_connections: self.inner.open_connections.load(Ordering::Relaxed),
            snapshot_generation: self.inner.snapshot_generation.load(Ordering::Relaxed),
        }
    }

    /// Records one transport connection opening (the socket layers call
    /// this; the count surfaces in [`ServiceStats::open_connections`]).
    pub fn connection_opened(&self) {
        self.inner.open_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one transport connection closing.
    pub fn connection_closed(&self) {
        self.inner.open_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Transport connections currently open against this process.
    pub fn open_connections(&self) -> u64 {
        self.inner.open_connections.load(Ordering::Relaxed)
    }

    /// Generation of the newest snapshot this process wrote or adopted
    /// (`0` = none yet).
    pub fn snapshot_generation(&self) -> u64 {
        self.inner.snapshot_generation.load(Ordering::Relaxed)
    }

    /// Whether this service holds its state dir's writer lock (never
    /// without a [`PersistConfig`]).
    pub fn is_snapshot_writer(&self) -> bool {
        self.inner
            .writer
            .lock()
            .expect("writer lock slot poisoned")
            .is_some()
    }

    /// Writes a warm-state snapshot immediately. Returns what was written,
    /// or `None` when persistence is off, another service holds the
    /// writer lock, or the write failed (reported on stderr).
    pub fn snapshot_now(&self) -> Option<SnapshotStats> {
        self.inner.flush_snapshot()
    }

    /// What this service advertises in the v2 handshake ack.
    pub fn capabilities(&self) -> Capabilities {
        let cfg = self.inner.engine.config();
        let mut strategies = vec!["trivial".to_string(), "packing".to_string()];
        if cfg.portfolio.sap {
            strategies.push("sap".to_string());
        }
        Capabilities {
            shards: cfg.cache_shards as u64,
            strategies,
            canon_budget: cfg.canon.max_branches as u64,
            queue_depth: self.inner.queue_depth as u64,
            workers: self.worker_count as u64,
            timing: true,
            certificate: true,
            schedule: true,
        }
    }

    /// Stops accepting work, drains the queue (every accepted job is
    /// answered), joins the workers, then stops and joins the persister.
    /// The writer then writes a final snapshot of the drained state and
    /// releases the writer lock. Called automatically on drop;
    /// idempotent.
    pub fn shutdown(&self) {
        {
            let mut state = self.inner.state.lock().expect("service queue poisoned");
            state.stop = true;
        }
        self.inner.work.notify_all();
        self.inner.space.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().expect("worker list poisoned"));
        for handle in workers {
            let _ = handle.join();
        }
        self.inner
            .persister_signal
            .lock()
            .expect("persister signal poisoned")
            .stop = true;
        self.inner.persister_wake.notify_all();
        let persister = self
            .persister
            .lock()
            .expect("persister slot poisoned")
            .take();
        if let Some(handle) = persister {
            let _ = handle.join();
        }
        // Snapshot exactly once: closing the lock file after the final
        // flush releases the lock, so a repeated call writes nothing.
        self.inner.flush_snapshot();
        *self.inner.writer.lock().expect("writer lock slot poisoned") = None;
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("workers", &self.worker_count)
            .field("queue_depth", &self.inner.queue_depth)
            .finish()
    }
}
