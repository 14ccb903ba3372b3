//! The shared state dir under failure, end to end over real
//! `rect-addr serve --listen` processes: however often the snapshot
//! writer is SIGKILLed, no two live processes are writers at once, a
//! writer reappears, the snapshot generation never goes back and every
//! snapshot loads whole; and SIGTERM drains a server into a final
//! snapshot.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use engine::persist::{load_snapshot, snapshot_generation};
use engine::{Engine, EngineConfig};
use proto::{JobRequest, JobResponse};
use serve::{BindAddr, LineClient};

/// How long any one expected event may take.
const EVENT_TIMEOUT: Duration = Duration::from_secs(60);

/// One spawned server process.
struct Proc {
    /// `None` once the process was killed or stopped.
    child: Option<Child>,
    stderr: Option<JoinHandle<()>>,
    sock: PathBuf,
    listening: bool,
    writer: bool,
}

/// Server processes sharing one state dir. Their stderr lines arrive on
/// one channel and update each process's role; a writer line while
/// another live process is the writer fails the test. Dropping the fleet
/// kills every process still running.
struct Fleet {
    name: String,
    dir: PathBuf,
    procs: Vec<Proc>,
    tx: mpsc::Sender<(usize, String)>,
    rx: mpsc::Receiver<(usize, String)>,
}

impl Fleet {
    fn new(tag: &str) -> Fleet {
        let name = format!("rect-addr-{tag}-{}", std::process::id());
        let dir = std::env::temp_dir().join(&name);
        let _ = std::fs::remove_dir_all(&dir);
        let (tx, rx) = mpsc::channel();
        Fleet {
            name,
            dir,
            procs: Vec::new(),
            tx,
            rx,
        }
    }

    /// Starts `serve --listen` on the state dir and waits until it
    /// listens. Returns its slot.
    fn spawn(&mut self, args: &[&str]) -> usize {
        let slot = self.procs.len();
        let sock = std::env::temp_dir().join(format!("{}-{slot}.sock", self.name));
        let mut child = Command::new(env!("CARGO_BIN_EXE_rect-addr"))
            .arg("serve")
            .arg("--listen")
            .arg(&sock)
            .arg("--state-dir")
            .arg(&self.dir)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn rect-addr");
        let stderr = child.stderr.take().expect("piped stderr");
        let tx = self.tx.clone();
        let stderr = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if tx.send((slot, line)).is_err() {
                    break;
                }
            }
        });
        self.procs.push(Proc {
            child: Some(child),
            stderr: Some(stderr),
            sock,
            listening: false,
            writer: false,
        });
        self.wait_for(&format!("process {slot} to listen"), |f| {
            f.procs[slot].listening
        });
        slot
    }

    /// The live process that is the writer, if any.
    fn writer(&self) -> Option<usize> {
        self.procs
            .iter()
            .position(|p| p.child.is_some() && p.writer)
    }

    fn apply(&mut self, slot: usize, line: &str) {
        if self.procs[slot].child.is_none() {
            return;
        }
        if line.contains("listening on") {
            self.procs[slot].listening = true;
        }
        if line.contains("snapshot writer for") {
            if let Some(other) = self.writer() {
                panic!("process {slot} became the writer while process {other} still is");
            }
            self.procs[slot].writer = true;
        }
    }

    fn wait_for(&mut self, what: &str, done: impl Fn(&Fleet) -> bool) {
        let deadline = Instant::now() + EVENT_TIMEOUT;
        while !done(self) {
            let left = deadline.saturating_duration_since(Instant::now());
            let (slot, line) = self
                .rx
                .recv_timeout(left)
                .unwrap_or_else(|_| panic!("timed out waiting for {what}"));
            self.apply(slot, &line);
        }
    }

    /// Takes a process out of the fleet, before it is signalled: from
    /// here on its lines no longer count.
    fn retire(&mut self, slot: usize) -> (Child, JoinHandle<()>) {
        let proc = &mut self.procs[slot];
        let child = proc.child.take().expect("process is live");
        (child, proc.stderr.take().expect("stderr reader"))
    }

    fn kill(&mut self, slot: usize) {
        let (mut child, stderr) = self.retire(slot);
        child.kill().expect("SIGKILL");
        child.wait().expect("reap");
        stderr.join().expect("stderr reader");
    }

    /// Sends SIGTERM and waits for the process to exit.
    fn terminate(&mut self, slot: usize) -> ExitStatus {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGTERM: i32 = 15;
        let (mut child, stderr) = self.retire(slot);
        let pid = i32::try_from(child.id()).expect("pid fits in pid_t");
        // SAFETY: kill(2) takes two plain integers and touches no memory;
        // `pid` is our unreaped child, so it names no other process.
        assert_eq!(unsafe { kill(pid, SIGTERM) }, 0, "SIGTERM delivered");
        let deadline = Instant::now() + EVENT_TIMEOUT;
        let status = loop {
            if let Some(status) = child.try_wait().expect("poll exit") {
                break status;
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("process {slot} did not exit after SIGTERM");
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        stderr.join().expect("stderr reader");
        status
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for proc in &mut self.procs {
            if let Some(mut child) = proc.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
            let _ = std::fs::remove_file(&proc.sock);
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Sends distinct jobs one at a time until the connection dies. Returns
/// how many were answered.
fn stream_jobs(sock: PathBuf, first_seed: u64) -> JoinHandle<u64> {
    std::thread::spawn(move || {
        let Ok(mut client) = LineClient::connect(&BindAddr::Unix(sock)) else {
            return 0;
        };
        let mut answered = 0;
        for seed in first_seed.. {
            let matrix = ebmf::gen::random_benchmark(6, 6, 0.5, seed).matrix;
            if client
                .send_job(&JobRequest::new(format!("j{seed}"), matrix))
                .is_err()
            {
                break;
            }
            let Ok(Some(line)) = client.recv_line() else {
                break;
            };
            let resp = JobResponse::parse_line(&line).expect("well-formed response");
            assert!(resp.ok, "{line}");
            answered += 1;
        }
        answered
    })
}

/// Polls the state dir's snapshot generation every millisecond until
/// `stop`. Fails if the generation ever goes back or a new generation
/// does not load whole into a fresh engine; otherwise returns the last
/// generation seen and how many snapshots it loaded.
fn watch_generations(
    dir: PathBuf,
    stop: Arc<AtomicBool>,
) -> JoinHandle<Result<(u64, usize), String>> {
    std::thread::spawn(move || {
        let (mut last, mut loaded) = (0, 0);
        while !stop.load(Ordering::Relaxed) {
            if let Some(generation) = snapshot_generation(&dir) {
                if generation < last {
                    return Err(format!("generation went back from {last} to {generation}"));
                }
                if generation > last {
                    let restored = load_snapshot(&dir, &Engine::new(EngineConfig::default()))
                        .map_err(|e| format!("generation {generation} does not load: {e}"))?;
                    if restored.generation < generation {
                        return Err(format!(
                            "loaded generation {} after seeing {generation}",
                            restored.generation
                        ));
                    }
                    last = generation;
                    loaded += 1;
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((last, loaded))
    })
}

#[test]
fn sigkilled_writers_leave_one_writer_and_whole_snapshots() {
    const ROUNDS: u64 = 6;
    const ARGS: [&str; 4] = ["--workers", "1", "--snapshot-every", "1"];
    let mut fleet = Fleet::new("crash");
    for _ in 0..3 {
        fleet.spawn(&ARGS);
    }
    assert_eq!(fleet.writer(), Some(0), "the first process writes");
    assert!(
        fleet.procs[1..].iter().all(|p| !p.writer),
        "the others read"
    );

    let stop = Arc::new(AtomicBool::new(false));
    let watcher = watch_generations(fleet.dir.clone(), Arc::clone(&stop));
    let mut rng: u64 = 0x5eed;
    let mut answered = 0;
    for round in 0..ROUNDS {
        let writer = fleet.writer().expect("a live writer");
        let streamer = stream_jobs(fleet.procs[writer].sock.clone(), round * 1_000_000);
        rng = rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        std::thread::sleep(Duration::from_millis(5 + (rng >> 33) % 41));
        fleet.kill(writer);
        answered += streamer.join().expect("streamer");
        fleet.spawn(&ARGS);
        fleet.wait_for(&format!("a writer after kill {}", round + 1), |f| {
            f.writer().is_some()
        });
    }
    stop.store(true, Ordering::Relaxed);
    let (generation, loaded) = watcher
        .join()
        .expect("watcher")
        .unwrap_or_else(|e| panic!("{e}"));
    eprintln!(
        "{ROUNDS} kills, {answered} jobs answered, final generation {generation}, \
         {loaded} snapshots loaded"
    );
    assert!(answered > 0, "the writers answered no job");
    assert!(loaded > 0, "no snapshot was ever written");
}

#[test]
fn sigterm_drains_into_a_final_snapshot() {
    let mut fleet = Fleet::new("sigterm");
    let slot = fleet.spawn(&["--workers", "1", "--snapshot-every", "0"]);
    let mut client =
        LineClient::connect(&BindAddr::Unix(fleet.procs[slot].sock.clone())).expect("connect");
    let hard = ebmf::gen::gap_benchmark(14, 14, 3, 5).matrix;
    client
        .send_job(&JobRequest::new("hard", hard))
        .expect("send job");
    let line = client.recv_line().expect("recv").expect("a response");
    assert!(
        JobResponse::parse_line(&line).expect("response").ok,
        "{line}"
    );

    let status = fleet.terminate(slot);
    assert!(
        status.success(),
        "SIGTERM must drain and exit 0, got {status}"
    );
    let restored = load_snapshot(&fleet.dir, &Engine::new(EngineConfig::default()))
        .expect("the drain wrote a snapshot");
    assert!(restored.sessions >= 1, "{restored:?}");
}
