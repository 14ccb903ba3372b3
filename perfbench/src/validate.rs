//! Validation of every answer against the matrix that was sent: the
//! partition must be valid, its depth at least `ebmf::lower_bound`, and a
//! depth claimed optimal must equal a one-shot `sap()` reference computed
//! once per duplicate class (or, where that budgeted reference could not
//! prove its own answer, must not exceed it).

use std::collections::HashMap;

use ebmf::{lower_bound, sap, SapConfig};
use proto::{JobResponse, ScheduleSummary};

use crate::workloads::{Layer, Request};

/// Ground truth of one duplicate class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// `ebmf::lower_bound` (real-rank floor, as SAP terminates on it).
    pub lower_bound: usize,
    /// Depth found by a one-shot `sap()`.
    pub depth: usize,
    /// Whether that `sap()` proved its depth optimal.
    pub proved: bool,
}

/// References by class label.
#[derive(Debug, Default)]
pub struct References {
    by_class: HashMap<u64, Reference>,
}

impl References {
    /// Computes the reference of every class among `layers` not yet known,
    /// spread over the available cores.
    pub fn extend<'a>(&mut self, layers: impl IntoIterator<Item = &'a Layer>) {
        let mut todo: HashMap<u64, &Layer> = HashMap::new();
        for l in layers {
            if !self.by_class.contains_key(&l.class) {
                todo.entry(l.class).or_insert(l);
            }
        }
        let todo: Vec<&Layer> = todo.into_values().collect();
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        let chunk = todo.len().div_ceil(threads).max(1);
        let found: Vec<(u64, Reference)> = std::thread::scope(|scope| {
            let handles: Vec<_> = todo
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter()
                            .map(|l| (l.class, reference(&l.matrix)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reference thread panicked"))
                .collect()
        });
        self.by_class.extend(found);
    }

    /// The reference of `class`, if computed.
    pub fn get(&self, class: u64) -> Option<Reference> {
        self.by_class.get(&class).copied()
    }
}

/// Conflict budget per query of the reference `sap()`: generous against
/// the jobs' own budget, yet bounded so a rare hard proof cannot stall
/// validation.
const REFERENCE_CONFLICTS: u64 = 10 * crate::workloads::CONFLICTS;

fn reference(m: &bitmatrix::BitMatrix) -> Reference {
    let out = sap(
        m,
        &SapConfig {
            conflict_budget: Some(REFERENCE_CONFLICTS),
            ..SapConfig::default()
        },
    );
    Reference {
        lower_bound: lower_bound(m, false).value,
        depth: out.depth(),
        proved: out.proved_optimal,
    }
}

/// Checks one answered layer; `Err` names the violation. A proved answer
/// needs its class in `refs`.
pub fn check_layer(layer: &Layer, resp: &JobResponse, refs: &References) -> Result<(), String> {
    if !resp.ok {
        return Err(format!("{}: error {:?}", resp.id, resp.error));
    }
    let (rows, cols) = layer.matrix.shape();
    let partition = resp.to_partition(rows, cols);
    partition
        .validate(&layer.matrix)
        .map_err(|e| format!("{}: invalid partition: {e}", resp.id))?;
    if partition.len() != resp.depth {
        return Err(format!(
            "{}: depth {} but {} rectangles",
            resp.id,
            resp.depth,
            partition.len()
        ));
    }
    if !resp.proved_optimal {
        let floor = lower_bound(&layer.matrix, false).value;
        if resp.depth < floor {
            return Err(format!(
                "{}: depth {} below the lower bound {floor}",
                resp.id, resp.depth
            ));
        }
        return Ok(());
    }
    let r = refs
        .get(layer.class)
        .ok_or_else(|| format!("{}: no reference for class {}", resp.id, layer.class))?;
    if resp.depth < r.lower_bound {
        return Err(format!(
            "{}: depth {} below the lower bound {}",
            resp.id, resp.depth, r.lower_bound
        ));
    }
    // A proved depth must equal the reference optimum; against an
    // unproved reference it can only be at most the depth sap() found.
    let wrong = if r.proved {
        resp.depth != r.depth
    } else {
        resp.depth > r.depth
    };
    if wrong {
        return Err(format!(
            "{}: proved depth {} but sap() finds {}",
            resp.id, resp.depth, r.depth
        ));
    }
    Ok(())
}

/// One timed request and what came back for it.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// The request sent.
    pub request: Request,
    /// Every line received for it (layer responses, then a schedule's
    /// summary frame).
    pub lines: Vec<String>,
    /// Time from writing the request to reading its last line (µs).
    pub latency_us: f64,
    /// When the last line arrived, in seconds since the timed phase began.
    pub done_s: f64,
    /// Transport failure, if the answer went missing.
    pub error: Option<String>,
}

/// Counters over a set of exchanges.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Requests attempted.
    pub attempted: usize,
    /// Requests that errored, were refused, went missing or failed
    /// validation.
    pub failed: usize,
    /// Layers answered (`ok: true`).
    pub layers: usize,
    /// Sum of answered depths.
    pub depth_sum: u64,
    /// Answered layers carrying a proof of optimality.
    pub proved: usize,
    /// SAT conflicts reported by the answers.
    pub conflicts: u64,
    /// Answered layers served from the cache.
    pub cache_hits: usize,
    /// Schedule frames with no layer answered from the cache.
    pub frames_without_hit: usize,
    /// Descriptions of the failures (first few kept).
    pub problems: Vec<String>,
}

impl Tally {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }

    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// Mean depth per answered layer.
    pub fn mean_depth(&self) -> f64 {
        crate::stats::ratio(self.depth_sum as f64, self.layers as f64)
    }

    /// Share of answered layers proved optimal.
    pub fn proved_frac(&self) -> f64 {
        crate::stats::ratio(self.proved as f64, self.layers as f64)
    }

    /// Share of answered layers served from the cache.
    pub fn hit_rate(&self) -> f64 {
        crate::stats::ratio(self.cache_hits as f64, self.layers as f64)
    }
}

/// The responses of one exchange by id, and its schedule summary.
fn parse_lines(lines: &[String]) -> (HashMap<String, JobResponse>, Option<ScheduleSummary>) {
    let mut responses = HashMap::new();
    let mut summary = None;
    for line in lines {
        if ScheduleSummary::is_summary_line(line) {
            summary = ScheduleSummary::parse_line(line).ok();
        } else if let Ok(resp) = JobResponse::parse_line(line) {
            responses.insert(resp.id.clone(), resp);
        }
    }
    (responses, summary)
}

/// Validates every exchange; references for the classes of proved answers
/// are computed on the way. The answers are parsed twice, one exchange at
/// a time, rather than held parsed: a hit mix answers hundreds of
/// thousands of requests in a run.
pub fn tally(exchanges: &[Exchange], refs: &mut References) -> Tally {
    let mut proved: HashMap<u64, &Layer> = HashMap::new();
    for x in exchanges {
        let (responses, _) = parse_lines(&x.lines);
        for (k, layer) in x.request.layers.iter().enumerate() {
            let id = x.request.layer_id(k);
            if responses.get(&id).is_some_and(|r| r.proved_optimal) {
                proved.entry(layer.class).or_insert(layer);
            }
        }
    }
    refs.extend(proved.into_values());
    let mut t = Tally::default();
    for x in exchanges {
        let (responses, summary) = parse_lines(&x.lines);
        t.attempted += 1;
        if let Some(e) = &x.error {
            t.fail(format!("{}: {e}", x.request.id));
            continue;
        }
        let mut problem = None;
        let mut hits = 0;
        for (k, layer) in x.request.layers.iter().enumerate() {
            let id = x.request.layer_id(k);
            let Some(resp) = responses.get(&id) else {
                problem.get_or_insert(format!("{id}: no response"));
                continue;
            };
            if resp.ok {
                t.layers += 1;
                t.depth_sum += resp.depth as u64;
                t.proved += usize::from(resp.proved_optimal);
                t.conflicts += resp.conflicts;
                hits += usize::from(resp.cache_hit);
            }
            if let Err(e) = check_layer(layer, resp, refs) {
                problem.get_or_insert(e);
            }
        }
        t.cache_hits += hits;
        if x.request.schedule {
            if hits == 0 {
                t.frames_without_hit += 1;
            }
            match summary {
                Some(s) if s.solved as usize == x.request.layers.len() => {}
                Some(s) => {
                    problem.get_or_insert(format!("{}: summary solved {} layers", s.id, s.solved));
                }
                None => {
                    problem.get_or_insert(format!("{}: no summary frame", x.request.id));
                }
            }
        }
        if let Some(p) = problem {
            t.fail(p);
        }
    }
    t
}
