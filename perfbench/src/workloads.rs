//! The four seeded traffic mixes. Every request carries explicit, generous
//! budgets ([`BUDGET_MS`], [`CONFLICTS`]) so that depth, proofs, conflicts
//! and cache hits never depend on machine speed. The server receives only
//! the generated lines; the class labels stay on the client side for
//! validation.

use std::collections::{HashSet, VecDeque};
use std::sync::Mutex;

use bitmatrix::BitMatrix;
use ebmf::gen::{gap_benchmark, known_optimal_benchmark, random_benchmark};
use engine::{canonical_form_with, CanonOptions};
use proto::{JobRequest, ScheduleRequest};
use traffic::{rotate_layer, SplitMix64, Workload};

/// Wall-clock budget on every job and schedule layer: far above need.
pub const BUDGET_MS: u64 = 600_000;
/// SAT conflict budget per query on every job and schedule layer. Cold
/// 10×10 instances have a heavy tail (a few need 10⁴ conflicts, half a
/// second, to prove); a conflict budget cuts it deterministically, so a
/// run's figures neither hinge on a handful of outliers nor depend on
/// machine speed. About 1.5% of `cold-sat` answers stay unproved.
pub const CONFLICTS: u64 = 500;
/// Layers per `circuit-schedule` frame.
pub const FRAME_LAYERS: usize = 12;
/// Which layers of a `circuit-schedule` frame relabel an earlier layer of
/// the same frame (`true`) rather than bring a fresh pattern.
const FRAME_REPEATS: [bool; FRAME_LAYERS] = [
    false, false, true, false, true, false, true, false, true, false, true, true,
];

/// One named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Fresh Table I instances, no two in one canonical class.
    ColdSat,
    /// Zipf-distributed relabelings of 64 primed classes.
    ZipfHit,
    /// Relabeled Paley 13/17 matrices after priming both classes.
    AdversarialCanon,
    /// 12-layer `schedule` frames mixing repeats and fresh patterns.
    CircuitSchedule,
}

impl Mix {
    /// Every mix, in report order.
    pub const ALL: [Mix; 4] = [
        Mix::ColdSat,
        Mix::ZipfHit,
        Mix::AdversarialCanon,
        Mix::CircuitSchedule,
    ];

    /// The workload name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Mix::ColdSat => "cold-sat",
            Mix::ZipfHit => "zipf-hit",
            Mix::AdversarialCanon => "adversarial-canon",
            Mix::CircuitSchedule => "circuit-schedule",
        }
    }

    /// Parses [`Mix::name`] output.
    pub fn parse(name: &str) -> Option<Mix> {
        Mix::ALL.into_iter().find(|m| m.name() == name)
    }
}

/// One matrix sent to the server, with its duplicate-class label: two
/// layers share a class exactly when one is a row/column relabeling of the
/// other.
#[derive(Debug, Clone)]
pub struct Layer {
    /// The addressing pattern.
    pub matrix: BitMatrix,
    /// Duplicate-class label (client side only).
    pub class: u64,
}

/// One request: a job line, or a `schedule` frame of several layers.
#[derive(Debug, Clone)]
pub struct Request {
    /// Wire id of the job or schedule.
    pub id: String,
    /// The exact line sent (no trailing newline).
    pub line: String,
    /// The layers it asks for (one for a job).
    pub layers: Vec<Layer>,
    /// Whether this is a `schedule` frame.
    pub schedule: bool,
}

/// A job request for `m` carrying the benchmark's budgets.
pub fn job_request(id: impl Into<String>, m: &BitMatrix) -> JobRequest {
    JobRequest::new(id, m.clone())
        .with_budget_ms(BUDGET_MS)
        .with_conflicts(CONFLICTS)
}

impl Request {
    fn job(id: String, layer: Layer) -> Request {
        Request {
            line: job_request(id.clone(), &layer.matrix).to_json_line(),
            id,
            layers: vec![layer],
            schedule: false,
        }
    }

    /// A priming job: no conflict budget, so its class is cached proved
    /// and every later relabeling is a plain hit that runs no race.
    fn priming(id: String, layer: Layer) -> Request {
        let mut req = job_request(id.clone(), &layer.matrix);
        req.conflicts = None;
        Request {
            line: req.to_json_line(),
            id,
            layers: vec![layer],
            schedule: false,
        }
    }

    /// A `schedule` frame of `layers`.
    pub fn frame(id: String, layers: Vec<Layer>) -> Request {
        let req = ScheduleRequest {
            budget_ms: Some(BUDGET_MS),
            conflicts: Some(CONFLICTS),
            ..ScheduleRequest::new(
                id.clone(),
                layers.iter().map(|l| l.matrix.clone()).collect(),
            )
        };
        Request {
            line: req.to_json_line(),
            id,
            layers,
            schedule: true,
        }
    }

    /// The wire id of layer `k`'s response.
    pub fn layer_id(&self, k: usize) -> String {
        if self.schedule {
            ScheduleRequest::layer_id(&self.id, k)
        } else {
            self.id.clone()
        }
    }

    /// The layers as independent job requests, under their layer ids
    /// (priming jobs keep their unbudgeted form).
    pub fn jobs(&self) -> Vec<JobRequest> {
        if !self.schedule {
            let req = JobRequest::parse_line(&self.line, 1).expect("generated lines parse");
            return vec![req];
        }
        self.layers
            .iter()
            .enumerate()
            .map(|(k, l)| job_request(self.layer_id(k), &l.matrix))
            .collect()
    }
}

type Produce = Box<dyn FnMut() -> Vec<Layer> + Send>;

struct StreamState {
    produce: Produce,
    ahead: VecDeque<Request>,
    next_id: usize,
}

/// The inputs of one workload and seed: the priming requests and an
/// endless, deterministic stream of timed requests.
pub struct Inputs {
    /// The mix these inputs belong to.
    pub mix: Mix,
    /// Requests answered once before timing starts: the warm-up, then
    /// (on hit mixes) one unbudgeted job per class, so that every timed
    /// request finds its class proved in the cache.
    pub priming: Vec<Request>,
    /// How many leading [`Inputs::priming`] requests are the warm-up.
    pub warmup: usize,
    schedule: bool,
    stream: Mutex<StreamState>,
}

impl Inputs {
    /// Generates the inputs of `mix` from `seed`.
    pub fn new(mix: Mix, seed: u64) -> Inputs {
        let (warm, seen) = warmup();
        let (priming_layers, produce): (Vec<Layer>, Produce) = match mix {
            Mix::ColdSat => {
                let mut fresh = Table1::new(seed, seen, 0);
                (Vec::new(), Box::new(move || vec![fresh.next()]))
            }
            Mix::ZipfHit => zipf_hit(seed),
            Mix::AdversarialCanon => adversarial(seed),
            Mix::CircuitSchedule => (Vec::new(), circuit(seed, seen)),
        };
        let warm = warm
            .into_iter()
            .enumerate()
            .map(|(n, layer)| Request::job(format!("w{n}"), layer));
        let priming = priming_layers
            .into_iter()
            .enumerate()
            .map(|(n, layer)| Request::priming(format!("p{n}"), layer));
        let priming = warm.chain(priming).collect();
        Inputs {
            mix,
            priming,
            warmup: WARMUP_JOBS,
            schedule: mix == Mix::CircuitSchedule,
            stream: Mutex::new(StreamState {
                produce,
                ahead: VecDeque::new(),
                next_id: 0,
            }),
        }
    }

    fn make(&self, state: &mut StreamState) -> Request {
        let layers = (state.produce)();
        let n = state.next_id;
        state.next_id += 1;
        if self.schedule {
            Request::frame(format!("s{n}"), layers)
        } else {
            Request::job(
                format!("j{n}"),
                layers.into_iter().next().expect("one layer"),
            )
        }
    }

    /// Generates `n` requests ahead of time, so that generation stays out
    /// of the timed loop.
    pub fn prefetch(&self, n: usize) {
        let mut state = self.stream.lock().expect("stream poisoned");
        while state.ahead.len() < n {
            let req = self.make(&mut state);
            state.ahead.push_back(req);
        }
    }

    /// The next timed request.
    pub fn next(&self) -> Request {
        let mut state = self.stream.lock().expect("stream poisoned");
        match state.ahead.pop_front() {
            Some(req) => req,
            None => self.make(&mut state),
        }
    }

    /// Whether the timed requests are `schedule` frames.
    pub fn sends_schedules(&self) -> bool {
        self.schedule
    }

    /// The next `n` timed requests.
    pub fn take(&self, n: usize) -> Vec<Request> {
        (0..n).map(|_| self.next()).collect()
    }
}

/// Canonical key under the engine's default canonizer budget.
fn class_key(m: &BitMatrix) -> String {
    canonical_form_with(m, &CanonOptions::default())
        .key()
        .to_string()
}

/// One cell of the Table I families.
#[derive(Debug, Clone, Copy)]
enum Cell {
    /// Random `rows × cols` at `occ10`·10% occupancy.
    Random(usize, usize, u32),
    /// Known-optimal 10×10 of depth `k`.
    Optimal(usize),
    /// Rank-gap 10×10 with `k` row pairs.
    Gap(usize),
}

fn table1_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for (r, c) in [(10, 10), (10, 20), (10, 30)] {
        cells.extend((1..=9).map(|occ10| Cell::Random(r, c, occ10)));
    }
    // k = 1 is a single rectangle: the trivial strategy proves it.
    cells.extend((2..=10).map(Cell::Optimal));
    cells.extend((2..=5).map(Cell::Gap));
    cells
}

/// Draws Table I instances: the cells in a fixed cycle, a fresh instance
/// seed per draw, skipping empty matrices and any canonical class already
/// in `seen`.
struct Table1 {
    cells: Vec<Cell>,
    rng: SplitMix64,
    seen: HashSet<String>,
    next_cell: usize,
    next_class: u64,
}

impl Table1 {
    fn new(seed: u64, seen: HashSet<String>, first_class: u64) -> Table1 {
        Table1 {
            cells: table1_cells(),
            rng: SplitMix64::new(seed),
            seen,
            next_cell: 0,
            next_class: first_class,
        }
    }

    fn next(&mut self) -> Layer {
        loop {
            let cell = self.cells[self.next_cell % self.cells.len()];
            self.next_cell += 1;
            let s = self.rng.next_u64();
            let m = match cell {
                Cell::Random(r, c, occ10) => {
                    random_benchmark(r, c, f64::from(occ10) / 10.0, s).matrix
                }
                Cell::Optimal(k) => known_optimal_benchmark(10, 10, k, s).0.matrix,
                Cell::Gap(k) => gap_benchmark(10, 10, k, s).matrix,
            };
            if m.is_zero() || !self.seen.insert(class_key(&m)) {
                continue;
            }
            self.next_class += 1;
            return Layer {
                matrix: m,
                class: self.next_class,
            };
        }
    }
}

/// Cold instances every server solves first, before any workload priming.
/// They fill the engine's warm-session store (128 sessions, never evicted)
/// with the same sessions in every run, so memory figures do not hinge on
/// which seed-drawn classes claim the store first, and the timed phase sees
/// the store as a long-running server does: full.
const WARMUP_JOBS: usize = 160;
const WARMUP_SEED: u64 = 0x00C0_FFEE;
/// Warm-up class labels start here, clear of every mix's own labels.
const WARMUP_CLASSES: u64 = 1 << 40;

/// The warm-up layers, and the canonical keys they use up.
fn warmup() -> (Vec<Layer>, HashSet<String>) {
    let mut t = Table1::new(WARMUP_SEED, HashSet::new(), WARMUP_CLASSES);
    let layers = (0..WARMUP_JOBS).map(|_| t.next()).collect();
    (layers, t.seen)
}

fn from_spec(spec: traffic::JobSpec) -> Layer {
    Layer {
        matrix: spec.matrix,
        class: spec.class as u64,
    }
}

/// The `zipf-hit` class patterns come from this seed on every run. Proving
/// 64 random 10×10 classes takes from 0.06 to 0.8 s depending on which
/// classes a seed draws, and that priming is `setup_s`; with one fixed set
/// of classes it is the same work on every run.
const ZIPF_POOL_SEED: u64 = 0x5EED_0064;

/// `zipf-hit`: primes the first draw of each of the 64 classes of the fixed
/// pool, then streams `Workload::zipf(seed, ..)`'s class draws, each a fresh
/// relabeling (from `seed`) of its pool class.
fn zipf_hit(seed: u64) -> (Vec<Layer>, Produce) {
    const CLASSES: usize = 64;
    let zipf = |seed| Workload::zipf(seed, (10, 10), CLASSES, 1.1);
    let mut pool: Vec<Option<Layer>> = vec![None; CLASSES];
    let mut missing = CLASSES;
    // Draws until every class has appeared; later draws are all hits.
    for spec in zipf(ZIPF_POOL_SEED).take(1_000_000) {
        let class = spec.class;
        if pool[class].is_none() {
            pool[class] = Some(from_spec(spec));
            missing -= 1;
            if missing == 0 {
                break;
            }
        }
    }
    let priming: Vec<Layer> = pool.into_iter().flatten().collect();
    let reps: Vec<BitMatrix> = priming.iter().map(|l| l.matrix.clone()).collect();
    let mut draws = zipf(seed);
    let mut rng = SplitMix64::new(seed);
    let produce = move || {
        let class = draws.next().expect("the zipf stream is endless").class;
        vec![Layer {
            matrix: rotate_layer(&reps[class], &mut rng),
            class: class as u64,
        }]
    };
    (priming, Box::new(produce))
}

/// `adversarial-canon`: primes the two unrelabeled Paley bases, then
/// streams their relabelings.
fn adversarial(seed: u64) -> (Vec<Layer>, Produce) {
    let mut w = Workload::adversarial(seed);
    let priming = w
        .by_ref()
        .take(traffic::PALEY_PRIMES.len())
        .map(from_spec)
        .collect();
    let produce = move || {
        vec![from_spec(
            w.next().expect("the adversarial stream is endless"),
        )]
    };
    (priming, Box::new(produce))
}

/// `circuit-schedule`: 12-layer frames of 10×10 patterns; the layers
/// marked in [`FRAME_REPEATS`] relabel a random earlier layer of the same
/// frame, the rest are fresh random patterns at 40% occupancy, in no class
/// of `seen`.
fn circuit(seed: u64, mut seen: HashSet<String>) -> Produce {
    let mut rng = SplitMix64::new(seed);
    let mut next_class = 0u64;
    Box::new(move || {
        let mut layers: Vec<Layer> = Vec::with_capacity(FRAME_LAYERS);
        for (k, repeat) in FRAME_REPEATS.into_iter().enumerate() {
            let layer = if repeat {
                let src = &layers[rng.next_below(k)];
                Layer {
                    matrix: rotate_layer(&src.matrix, &mut rng),
                    class: src.class,
                }
            } else {
                let matrix = loop {
                    let m = BitMatrix::from_fn(10, 10, |_, _| rng.next_f64() < 0.4);
                    if !m.is_zero() && seen.insert(class_key(&m)) {
                        break m;
                    }
                };
                next_class += 1;
                Layer {
                    matrix,
                    class: next_class,
                }
            };
            layers.push(layer);
        }
        layers
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_lines() {
        for mix in Mix::ALL {
            let a = Inputs::new(mix, 5);
            let b = Inputs::new(mix, 5);
            let la: Vec<String> = a.take(20).into_iter().map(|r| r.line).collect();
            let lb: Vec<String> = b.take(20).into_iter().map(|r| r.line).collect();
            assert_eq!(la, lb, "{} must replay", mix.name());
            assert_eq!(a.priming.len(), b.priming.len());
        }
    }

    #[test]
    fn cold_sat_classes_are_distinct_and_zipf_priming_covers_every_class() {
        let cold = Inputs::new(Mix::ColdSat, 1).take(200);
        let keys: HashSet<String> = cold
            .iter()
            .map(|r| class_key(&r.layers[0].matrix))
            .collect();
        assert_eq!(keys.len(), 200);
        let zipf = Inputs::new(Mix::ZipfHit, 1);
        assert_eq!(zipf.priming.len(), WARMUP_JOBS + 64);
        let primed: HashSet<u64> = zipf.priming.iter().map(|r| r.layers[0].class).collect();
        assert!(zipf
            .take(500)
            .iter()
            .all(|r| primed.contains(&r.layers[0].class)));
    }

    #[test]
    fn circuit_frames_repeat_within_the_frame() {
        let frame = Inputs::new(Mix::CircuitSchedule, 3).next();
        assert!(frame.schedule);
        assert_eq!(frame.layers.len(), FRAME_LAYERS);
        let classes: HashSet<u64> = frame.layers.iter().map(|l| l.class).collect();
        assert_eq!(classes.len(), FRAME_REPEATS.iter().filter(|r| !**r).count());
        assert_eq!(frame.layer_id(3), "s0/L3");
    }
}
