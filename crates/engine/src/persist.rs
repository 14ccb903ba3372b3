//! Disk persistence of the engine's warm state: the session store's parked
//! SAP sessions — proved incumbents, and the learnt-clause cores of the
//! unproved ones.
//!
//! A restarted server is day-zero cold without this module — every proof
//! and every learnt clause dies with the process. The snapshot spills the
//! sessions to a single versioned, checksummed file in a `--state-dir`, so
//! the next process warm-starts from day one, and several server processes
//! can share the directory.
//!
//! Design constraints, in order:
//!
//! * **Never poison a running engine.** Loads validate structure
//!   (checksum, schema version, per-record shape) before any state is
//!   installed; a truncated, bit-flipped or future-schema snapshot is
//!   rejected wholesale and the engine cold-starts. Semantic validation
//!   of each session happens again lazily at rehydration
//!   ([`SapSession::import`](ebmf::SapSession::import)).
//! * **Never tear a snapshot.** Saves write to a sibling temp file, sync
//!   it, and atomically rename it over the live one (then sync the
//!   directory), so a crash mid-save leaves the previous snapshot intact,
//!   a reader never observes a partial file, and a save that returned
//!   survives a power cut.
//! * **One writer.** A process writes snapshots only while it holds the
//!   state dir's [`lock_state_dir`] lock; every other process sharing the
//!   directory only reads.
//! * **No format dependencies.** The body is a line-oriented text format
//!   (the build environment has no serde); the header carries a schema
//!   version — any bump is a clean cold start by design — and an FNV-1a
//!   checksum of the body.

use std::fmt::Write as _;
use std::fs::{File, OpenOptions, TryLockError};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

use bitmatrix::BitMatrix;
use ebmf::SessionExport;

use crate::canon::matrix_key;
use crate::Engine;

/// Schema version of the snapshot format. Bumping it invalidates every
/// existing snapshot (clean cold start) — the upgrade story is
/// deliberately "re-learn", never "migrate". Version 2 dropped the
/// scheduler's bucket section, version 3 the session record's conflict
/// count and symmetry-breaking flag. Version 4 keeps version 3's records
/// but marks the encoder's fooling-set-first precedence order: a learnt
/// core is only sound in the encoding that learnt it, and an imported
/// core is trusted, so a core of the row-major order could refute a
/// satisfiable bound.
pub const SNAPSHOT_SCHEMA: u32 = 4;

/// File name of the snapshot inside a state directory.
pub const SNAPSHOT_FILE: &str = "engine.snapshot";

/// File name of the writer lock inside a state directory (see
/// [`lock_state_dir`]). The file is never removed or renamed: a process
/// locking a replaced file would not exclude one still holding the old.
pub const LOCK_FILE: &str = "writer.lock";

pub use ebmf::DEFAULT_MAX_CORE_CLAUSES;

const MAGIC: &str = "rect-addr-snapshot";

/// Why a snapshot failed to load. Every variant means the same thing to
/// the engine: cold start.
#[derive(Debug)]
pub enum SnapshotError {
    /// No snapshot file exists (first boot of this state dir).
    Missing,
    /// Reading the file failed.
    Io(std::io::Error),
    /// The file is not a structurally valid snapshot (truncated,
    /// bit-flipped, wrong magic, checksum mismatch, malformed record).
    Corrupt(String),
    /// The snapshot was written by a different schema version.
    SchemaMismatch {
        /// The version found in the file header.
        found: u32,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Missing => write!(f, "no snapshot file"),
            SnapshotError::Io(e) => write!(f, "snapshot I/O: {e}"),
            SnapshotError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
            SnapshotError::SchemaMismatch { found } => {
                write!(f, "snapshot schema v{found} != v{SNAPSHOT_SCHEMA}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// What one [`save_snapshot`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Sessions serialized.
    pub sessions: usize,
    /// Snapshot size on disk.
    pub bytes: usize,
}

/// What one [`load_snapshot`] installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RestoreStats {
    /// Sessions installed into the store (spilled; rehydrated lazily).
    pub sessions: usize,
    /// The snapshot's generation number (0 for snapshots written before
    /// generations existed, or by writers that don't count them).
    pub generation: u64,
}

/// The snapshot path inside `state_dir`.
pub fn snapshot_path(state_dir: &Path) -> PathBuf {
    state_dir.join(SNAPSHOT_FILE)
}

/// Takes the state dir's writer lock without blocking: `Ok(Some(file))`
/// makes the caller the directory's only snapshot writer for as long as
/// it keeps `file` open, and `Ok(None)` means another open file holds
/// the lock. The lock is the kernel's (`flock` on Unix): it belongs to
/// one open file, so two callers in one process contend just as two
/// processes do, and it is released when the file is closed or its
/// process exits, killed or not. Creates the directory if needed.
///
/// # Errors
///
/// Propagates filesystem errors creating or opening the lock file.
pub fn lock_state_dir(state_dir: &Path) -> std::io::Result<Option<File>> {
    std::fs::create_dir_all(state_dir)?;
    let file = OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(state_dir.join(LOCK_FILE))?;
    match file.try_lock() {
        Ok(()) => Ok(Some(file)),
        Err(TryLockError::WouldBlock) => Ok(None),
        Err(TryLockError::Error(e)) => Err(e),
    }
}

/// FNV-1a 64 over the body bytes — cheap, dependency-free corruption
/// detection (not authentication: the state dir is trusted like any cache
/// directory).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn push_indices(out: &mut String, indices: &[usize]) {
    if indices.is_empty() {
        out.push('-');
        return;
    }
    for (i, idx) in indices.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{idx}");
    }
}

fn parse_indices(token: &str) -> Result<Vec<usize>, String> {
    if token == "-" {
        return Ok(Vec::new());
    }
    token
        .split(',')
        .map(|t| t.parse::<usize>().map_err(|e| format!("index {t:?}: {e}")))
        .collect()
}

/// Serializes the engine's durable state (every parked session) into the
/// snapshot body.
fn serialize_body(engine: &Engine) -> (String, SnapshotStats) {
    let mut body = String::new();
    let sessions: Vec<(String, SessionExport)> = engine
        .warm_store()
        .map(|store| store.export_all())
        .unwrap_or_default();
    // Sessions whose matrix cannot round-trip through the text format
    // (degenerate empty shapes) are skipped — they carry no SAT state.
    let sessions: Vec<_> = sessions
        .into_iter()
        .filter(|(_, e)| e.matrix.nrows() > 0 && e.matrix.ncols() > 0)
        .collect();
    let _ = writeln!(body, "sessions {}", sessions.len());
    for (_key, e) in &sessions {
        let (nrows, ncols) = e.matrix.shape();
        let _ = writeln!(
            body,
            "s {nrows} {ncols} {} {} {} {}",
            u8::from(e.proved),
            e.encoder_capacity
                .map_or_else(|| "-".to_string(), |c| c.to_string()),
            e.best.len(),
            e.core.len(),
        );
        let _ = writeln!(body, "m {}", e.matrix.to_string().replace('\n', " "));
        for (rows, cols) in &e.best {
            body.push_str("r ");
            push_indices(&mut body, rows);
            body.push(' ');
            push_indices(&mut body, cols);
            body.push('\n');
        }
        for clause in &e.core {
            body.push('c');
            for lit in clause {
                let _ = write!(body, " {lit}");
            }
            body.push('\n');
        }
    }

    let stats = SnapshotStats {
        sessions: sessions.len(),
        bytes: 0, // filled in by the caller once the header is known
    };
    (body, stats)
}

/// Writes a snapshot of `engine`'s warm state into `state_dir`
/// atomically and durably (synced temp file + rename + directory sync).
/// Creates the directory if needed.
///
/// # Errors
///
/// Propagates filesystem errors; the previous snapshot (if any) survives
/// every failure mode.
pub fn save_snapshot(state_dir: &Path, engine: &Engine) -> std::io::Result<SnapshotStats> {
    save_snapshot_gen(state_dir, engine, 0)
}

/// [`save_snapshot`] stamping an explicit **generation** into the
/// snapshot header. Generations are the multi-process flush signal: the
/// holder of the [`lock_state_dir`] lock bumps the number on every flush,
/// and the other processes sharing the directory poll
/// [`snapshot_generation`] — a number larger than the one they last
/// installed means a newer warm state is on disk. The caller must be the
/// directory's only writer, as the lock holder is: the temp file's name
/// is fixed, so two writers would tear each other's temp file. The
/// header stays back-compatible in both directions: readers predating
/// generations ignore the extra token, and a two-token header reads as
/// generation 0.
///
/// # Errors
///
/// See [`save_snapshot`].
pub fn save_snapshot_gen(
    state_dir: &Path,
    engine: &Engine,
    generation: u64,
) -> std::io::Result<SnapshotStats> {
    std::fs::create_dir_all(state_dir)?;
    let (body, mut stats) = serialize_body(engine);
    let mut file = format!(
        "{MAGIC} {SNAPSHOT_SCHEMA} {generation}\nchecksum {:016x}\n",
        fnv1a(body.as_bytes())
    );
    file.push_str(&body);
    stats.bytes = file.len();

    let path = snapshot_path(state_dir);
    let tmp = state_dir.join(format!("{SNAPSHOT_FILE}.tmp"));
    let mut out = File::create(&tmp)?;
    out.write_all(file.as_bytes())?;
    out.sync_all()?;
    std::fs::rename(&tmp, &path)?;
    File::open(state_dir)?.sync_all()?;
    Ok(stats)
}

/// A line cursor over the snapshot body with uniform error reporting.
struct Lines<'a> {
    iter: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> Lines<'a> {
    fn next(&mut self, what: &str) -> Result<&'a str, SnapshotError> {
        self.line_no += 1;
        self.iter
            .next()
            .ok_or_else(|| SnapshotError::Corrupt(format!("truncated: expected {what}")))
    }

    fn corrupt(&self, why: impl std::fmt::Display) -> SnapshotError {
        SnapshotError::Corrupt(format!("line {}: {why}", self.line_no))
    }
}

fn parse_usize(token: Option<&str>, what: &str) -> Result<usize, String> {
    token
        .ok_or_else(|| format!("missing {what}"))?
        .parse::<usize>()
        .map_err(|e| format!("{what}: {e}"))
}

/// Upper bound on declared record counts: a snapshot declaring more than
/// this is rejected before any allocation is attempted.
const MAX_RECORDS: usize = 1 << 20;

fn checked_count(n: usize, what: &str) -> Result<usize, SnapshotError> {
    if n > MAX_RECORDS {
        return Err(SnapshotError::Corrupt(format!("{what} count {n} absurd")));
    }
    Ok(n)
}

/// Parses the snapshot body into the sessions it holds, not yet installed
/// anywhere.
fn parse_body(body: &str) -> Result<Vec<SessionExport>, SnapshotError> {
    let mut lines = Lines {
        iter: body.lines(),
        line_no: 2, // header lines already consumed
    };

    let header = lines.next("sessions header")?;
    let mut t = header.split_whitespace();
    if t.next() != Some("sessions") {
        return Err(lines.corrupt("expected `sessions <n>`"));
    }
    let nsessions = checked_count(
        parse_usize(t.next(), "session count").map_err(|e| lines.corrupt(e))?,
        "session",
    )?;
    let mut sessions = Vec::new();
    for _ in 0..nsessions {
        let line = lines.next("session record")?;
        let mut t = line.split_whitespace();
        if t.next() != Some("s") {
            return Err(lines.corrupt("expected `s ...` session record"));
        }
        let nrows = parse_usize(t.next(), "nrows").map_err(|e| lines.corrupt(e))?;
        let ncols = parse_usize(t.next(), "ncols").map_err(|e| lines.corrupt(e))?;
        let proved = match t.next() {
            Some("0") => false,
            Some("1") => true,
            other => return Err(lines.corrupt(format!("proved flag {other:?}"))),
        };
        let encoder_capacity = match t.next() {
            Some("-") => None,
            Some(tok) => Some(
                tok.parse::<usize>()
                    .map_err(|e| lines.corrupt(format!("capacity: {e}")))?,
            ),
            None => return Err(lines.corrupt("missing capacity")),
        };
        let nrects = checked_count(
            parse_usize(t.next(), "rect count").map_err(|e| lines.corrupt(e))?,
            "rectangle",
        )?;
        let nclauses = checked_count(
            parse_usize(t.next(), "clause count").map_err(|e| lines.corrupt(e))?,
            "clause",
        )?;
        if t.next().is_some() {
            return Err(lines.corrupt("trailing tokens on session record"));
        }

        let mline = lines.next("matrix line")?;
        let Some(rows_text) = mline.strip_prefix("m ") else {
            return Err(lines.corrupt("expected `m <rows>`"));
        };
        let matrix: BitMatrix = rows_text
            .split_whitespace()
            .collect::<Vec<_>>()
            .join("\n")
            .parse()
            .map_err(|e| lines.corrupt(format!("matrix: {e}")))?;
        if matrix.shape() != (nrows, ncols) {
            return Err(lines.corrupt(format!(
                "matrix shape {:?} != declared ({nrows}, {ncols})",
                matrix.shape()
            )));
        }

        let mut best = Vec::new();
        for _ in 0..nrects {
            let line = lines.next("rectangle record")?;
            let mut t = line.split_whitespace();
            if t.next() != Some("r") {
                return Err(lines.corrupt("expected `r <rows> <cols>`"));
            }
            let rows = t
                .next()
                .ok_or_else(|| lines.corrupt("missing rectangle rows"))
                .and_then(|tok| parse_indices(tok).map_err(|e| lines.corrupt(e)))?;
            let cols = t
                .next()
                .ok_or_else(|| lines.corrupt("missing rectangle cols"))
                .and_then(|tok| parse_indices(tok).map_err(|e| lines.corrupt(e)))?;
            if t.next().is_some() {
                return Err(lines.corrupt("trailing tokens on rectangle record"));
            }
            best.push((rows, cols));
        }

        let mut core = Vec::new();
        for _ in 0..nclauses {
            let line = lines.next("clause record")?;
            let Some(rest) = line.strip_prefix('c') else {
                return Err(lines.corrupt("expected `c <lits>`"));
            };
            let clause: Vec<i64> = rest
                .split_whitespace()
                .map(|tok| {
                    tok.parse::<i64>()
                        .map_err(|e| format!("literal {tok:?}: {e}"))
                })
                .collect::<Result<_, _>>()
                .map_err(|e| lines.corrupt(e))?;
            if clause.is_empty() {
                return Err(lines.corrupt("empty clause record"));
            }
            core.push(clause);
        }

        sessions.push(SessionExport {
            matrix,
            best,
            proved,
            encoder_capacity,
            core,
        });
    }
    if lines.iter.next().is_some() {
        return Err(SnapshotError::Corrupt("trailing data after records".into()));
    }
    Ok(sessions)
}

/// Reads and validates the snapshot in `state_dir` and installs it into
/// `engine`: sessions land **spilled** in the store (live entries win) —
/// rehydrated lazily by the first job of each canonical class
/// ([`crate::SessionStore::take`]). Also records the restored-session
/// count behind [`Engine::restored_sessions`].
///
/// # Errors
///
/// [`SnapshotError::Missing`] when no file exists; every other variant
/// means the file was rejected wholesale (nothing was installed — never
/// a half-load). The caller logs and cold-starts.
pub fn load_snapshot(state_dir: &Path, engine: &Engine) -> Result<RestoreStats, SnapshotError> {
    let path = snapshot_path(state_dir);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(SnapshotError::Missing),
        Err(e) => return Err(SnapshotError::Io(e)),
    };
    // Invalid UTF-8 is file corruption, not an I/O failure.
    let text =
        String::from_utf8(bytes).map_err(|e| SnapshotError::Corrupt(format!("not UTF-8: {e}")))?;

    // Header line 1: magic + schema.
    let mut lines = text.splitn(3, '\n');
    let head = lines.next().unwrap_or("");
    let mut t = head.split_whitespace();
    if t.next() != Some(MAGIC) {
        return Err(SnapshotError::Corrupt("bad magic".into()));
    }
    let found: u32 = t
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| SnapshotError::Corrupt("unreadable schema version".into()))?;
    if found != SNAPSHOT_SCHEMA {
        return Err(SnapshotError::SchemaMismatch { found });
    }
    // Optional third token: the writer's generation counter. Absent on
    // snapshots from before generations existed — those read as 0.
    let generation: u64 = t.next().and_then(|v| v.parse().ok()).unwrap_or(0);

    // Header line 2: checksum of everything after it.
    let sum_line = lines
        .next()
        .ok_or_else(|| SnapshotError::Corrupt("missing checksum line".into()))?;
    let declared = sum_line
        .strip_prefix("checksum ")
        .and_then(|v| u64::from_str_radix(v.trim(), 16).ok())
        .ok_or_else(|| SnapshotError::Corrupt("unreadable checksum line".into()))?;
    let body = lines.next().unwrap_or("");
    let actual = fnv1a(body.as_bytes());
    if actual != declared {
        return Err(SnapshotError::Corrupt(format!(
            "checksum mismatch: file says {declared:016x}, body is {actual:016x}"
        )));
    }

    let parsed = parse_body(body)?;

    // Validation done — install, spilled, under the re-derived keys.
    let mut sessions = 0usize;
    if let Some(store) = engine.warm_store() {
        for export in parsed {
            let key = matrix_key(&export.matrix);
            if store.install_spilled(&key, export) {
                sessions += 1;
            }
        }
    }
    engine
        .restored_sessions_counter()
        .fetch_add(sessions as u64, Ordering::Relaxed);
    Ok(RestoreStats {
        sessions,
        generation,
    })
}

/// Reads just the generation number from the snapshot header — the cheap
/// poll a reader process runs to detect a newer flush without parsing
/// (or validating) the whole snapshot. `None` when no snapshot exists or
/// its header is unreadable; a two-token pre-generation header reads as
/// `Some(0)`.
pub fn snapshot_generation(state_dir: &Path) -> Option<u64> {
    use std::io::Read as _;
    // The header line is tiny (magic + schema + generation); 128 bytes
    // covers it with room to spare and never pulls the body in.
    let mut head = [0u8; 128];
    let mut file = std::fs::File::open(snapshot_path(state_dir)).ok()?;
    let n = file.read(&mut head).ok()?;
    let text = std::str::from_utf8(&head[..n]).ok()?;
    let line = text.lines().next()?;
    let mut t = line.split_whitespace();
    if t.next() != Some(MAGIC) {
        return None;
    }
    if t.next().and_then(|v| v.parse::<u32>().ok()) != Some(SNAPSHOT_SCHEMA) {
        return None;
    }
    Some(t.next().and_then(|v| v.parse().ok()).unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;

    fn state_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rect-addr-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn hard_engine() -> Engine {
        Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        })
    }

    fn solve_hard(engine: &Engine) -> u64 {
        // A rank-gap instance: SAP must spend real conflicts.
        let m = ebmf::gen::gap_benchmark(14, 14, 3, 5).matrix;
        let out = engine.solve(&m);
        assert!(out.partition.validate(&m).is_ok());
        out.sat_conflicts
    }

    #[test]
    fn snapshot_roundtrip_restores_sessions() {
        let dir = state_dir("roundtrip");
        let donor = hard_engine();
        let cold_conflicts = solve_hard(&donor);
        assert!(cold_conflicts > 0, "hard instance must cost conflicts");
        assert!(donor.warm_sessions() >= 1);
        let saved = save_snapshot(&dir, &donor).expect("save");
        assert!(saved.sessions >= 1);

        let fresh = hard_engine();
        let restored = load_snapshot(&dir, &fresh).expect("load");
        assert_eq!(restored.sessions, saved.sessions);
        assert_eq!(fresh.restored_sessions(), restored.sessions as u64);
        assert_eq!(fresh.warm_sessions(), saved.sessions, "spilled slots count");

        // The restored engine re-solves the class with far fewer conflicts
        // (the proved session answers without re-searching).
        let warm_conflicts = solve_hard(&fresh);
        assert!(
            warm_conflicts < cold_conflicts,
            "restored session must resume: {warm_conflicts} vs {cold_conflicts}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_snapshot_is_a_clean_cold_start() {
        let dir = state_dir("missing");
        let engine = hard_engine();
        assert!(matches!(
            load_snapshot(&dir, &engine),
            Err(SnapshotError::Missing)
        ));
        assert_eq!(engine.warm_sessions(), 0);
        assert_eq!(engine.restored_sessions(), 0);
    }

    #[test]
    fn truncated_snapshot_is_rejected_wholesale() {
        let dir = state_dir("truncated");
        let donor = hard_engine();
        solve_hard(&donor);
        save_snapshot(&dir, &donor).expect("save");
        let path = snapshot_path(&dir);
        let full = std::fs::read_to_string(&path).unwrap();
        for keep in [full.len() / 2, full.len() - 1, 25] {
            std::fs::write(&path, &full[..keep]).unwrap();
            let fresh = hard_engine();
            let err = load_snapshot(&dir, &fresh).expect_err("truncated must fail");
            assert!(
                matches!(err, SnapshotError::Corrupt(_)),
                "keep={keep}: {err}"
            );
            assert_eq!(fresh.warm_sessions(), 0, "nothing may be half-loaded");
            assert_eq!(fresh.restored_sessions(), 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bitflipped_snapshot_is_rejected_by_the_checksum() {
        let dir = state_dir("bitflip");
        let donor = hard_engine();
        solve_hard(&donor);
        save_snapshot(&dir, &donor).expect("save");
        let path = snapshot_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit somewhere inside the body (past the two header
        // lines), at several positions.
        let body_start = bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .map(|(i, _)| i)
            .nth(1)
            .unwrap()
            + 1;
        for offset in [0, bytes.len() / 3, bytes.len() - body_start - 1] {
            let mut flipped = bytes.clone();
            flipped[body_start + offset] ^= 0x01;
            std::fs::write(&path, &flipped).unwrap();
            let fresh = hard_engine();
            let err = load_snapshot(&dir, &fresh).expect_err("bit flip must fail");
            assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
            assert_eq!(fresh.warm_sessions(), 0);
        }
        bytes.clear();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_schema_is_a_clean_cold_start() {
        let dir = state_dir("schema");
        std::fs::create_dir_all(&dir).unwrap();
        let body = "sessions 0\n";
        let file = format!(
            "{MAGIC} {}\nchecksum {:016x}\n{body}",
            SNAPSHOT_SCHEMA + 1,
            fnv1a(body.as_bytes())
        );
        std::fs::write(snapshot_path(&dir), file).unwrap();
        let fresh = hard_engine();
        assert!(matches!(
            load_snapshot(&dir, &fresh),
            Err(SnapshotError::SchemaMismatch { .. })
        ));
        assert_eq!(fresh.warm_sessions(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_snapshot_with_buckets_is_a_clean_cold_start() {
        let dir = state_dir("schema-v1");
        std::fs::create_dir_all(&dir).unwrap();
        let body = "buckets 1\nb 4 4 5 8 0 8 0 0 0 8 0 0\nsessions 0\n";
        let file = format!(
            "{MAGIC} 1 3\nchecksum {:016x}\n{body}",
            fnv1a(body.as_bytes())
        );
        std::fs::write(snapshot_path(&dir), file).unwrap();
        let fresh = hard_engine();
        assert!(matches!(
            load_snapshot(&dir, &fresh),
            Err(SnapshotError::SchemaMismatch { found: 1 })
        ));
        assert_eq!(
            snapshot_generation(&dir),
            None,
            "a v1 header peeks as absent"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v2_snapshot_with_conflicts_and_symmetry_flag_is_a_clean_cold_start() {
        let dir = state_dir("schema-v2");
        std::fs::create_dir_all(&dir).unwrap();
        // A v2 session record: shape, proved flag, conflict count, encoder
        // capacity, symmetry flag, rectangle count and clause count.
        let body = "sessions 1\ns 2 2 1 17 - 1 2 0\nm 10 01\nr 0 0\nr 1 1\n";
        let file = format!(
            "{MAGIC} 2 5\nchecksum {:016x}\n{body}",
            fnv1a(body.as_bytes())
        );
        std::fs::write(snapshot_path(&dir), file).unwrap();
        let fresh = hard_engine();
        assert!(matches!(
            load_snapshot(&dir, &fresh),
            Err(SnapshotError::SchemaMismatch { found: 2 })
        ));
        assert_eq!(fresh.warm_sessions(), 0);
        assert_eq!(fresh.restored_sessions(), 0);
        assert_eq!(
            snapshot_generation(&dir),
            None,
            "a v2 header peeks as absent"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A v3 record is well formed under v4's parser, but its learnt core
    /// comes from the row-major precedence order: imported as trusted
    /// clauses, it could refute a satisfiable bound. The header alone
    /// keeps it out.
    #[test]
    fn v3_snapshot_with_a_row_major_core_is_a_clean_cold_start() {
        let dir = state_dir("schema-v3");
        std::fs::create_dir_all(&dir).unwrap();
        let body = "sessions 1\ns 2 2 0 1 2 1\nm 11 10\nr 0 0,1\nr 1 0\nc -1 -2\n";
        assert_eq!(parse_body(body).expect("v3 records parse").len(), 1);
        let file = format!(
            "{MAGIC} 3 9\nchecksum {:016x}\n{body}",
            fnv1a(body.as_bytes())
        );
        std::fs::write(snapshot_path(&dir), file).unwrap();
        let fresh = hard_engine();
        assert!(matches!(
            load_snapshot(&dir, &fresh),
            Err(SnapshotError::SchemaMismatch { found: 3 })
        ));
        assert_eq!(fresh.warm_sessions(), 0);
        assert_eq!(fresh.restored_sessions(), 0);
        assert_eq!(
            snapshot_generation(&dir),
            None,
            "a v3 header peeks as absent"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generation_roundtrips_through_header_and_peek() {
        let dir = state_dir("generation");
        let donor = hard_engine();
        solve_hard(&donor);
        save_snapshot_gen(&dir, &donor, 7).expect("save");
        assert_eq!(snapshot_generation(&dir), Some(7), "cheap header peek");
        let fresh = hard_engine();
        let restored = load_snapshot(&dir, &fresh).expect("load");
        assert_eq!(restored.generation, 7, "full load reports the generation");
        assert!(restored.sessions >= 1, "generation rides a real snapshot");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pre_generation_snapshot_reads_as_generation_zero() {
        let dir = state_dir("pregen");
        std::fs::create_dir_all(&dir).unwrap();
        // A two-token header, as writers predating generations wrote it.
        let body = "sessions 0\n";
        let file = format!(
            "{MAGIC} {SNAPSHOT_SCHEMA}\nchecksum {:016x}\n{body}",
            fnv1a(body.as_bytes())
        );
        std::fs::write(snapshot_path(&dir), file).unwrap();
        assert_eq!(snapshot_generation(&dir), Some(0));
        let fresh = hard_engine();
        let restored = load_snapshot(&dir, &fresh).expect("legacy header loads");
        assert_eq!(restored.generation, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generation_peek_is_none_without_a_snapshot() {
        let dir = state_dir("nogen");
        assert_eq!(snapshot_generation(&dir), None);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(snapshot_path(&dir), "not a snapshot\n").unwrap();
        assert_eq!(snapshot_generation(&dir), None, "bad magic peeks as absent");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exactly_one_racer_locks_the_state_dir() {
        let dir = state_dir("lock-race");
        // A lease file left by an older build must not matter.
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("writer.lease"), "rect-addr-lease x 0 1\n").unwrap();
        let barrier = std::sync::Barrier::new(16);
        let locks: Vec<Option<File>> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..16)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        lock_state_dir(&dir).expect("lock file opens")
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(locks.iter().filter(|l| l.is_some()).count(), 1);
        assert!(lock_state_dir(&dir).unwrap().is_none(), "the lock is held");
        drop(locks);
        assert!(
            lock_state_dir(&dir).unwrap().is_some(),
            "dropping the winner's file releases the lock"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_is_atomic_no_tmp_left_behind() {
        let dir = state_dir("atomic");
        let donor = hard_engine();
        solve_hard(&donor);
        save_snapshot(&dir, &donor).expect("save");
        save_snapshot(&dir, &donor).expect("overwrite in place");
        assert!(snapshot_path(&dir).exists());
        assert!(!dir.join(format!("{SNAPSHOT_FILE}.tmp")).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
