//! The workload mixes, exposed as one infinite iterator type.

use bitmatrix::BitMatrix;

use crate::adversarial::{paley_matrix, PALEY_PRIMES};
use crate::layers::{nearest_neighbor_round, rotate_layer, ROUND_LAYERS};
use crate::rng::SplitMix64;

/// One generated job: the pattern to solve plus its traffic shaping.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The addressing pattern.
    pub matrix: BitMatrix,
    /// Gap to wait before submitting this job (µs); 0 = back-to-back.
    /// Open-loop consumers sleep it, closed-loop ones may ignore it.
    pub arrival_gap_us: u64,
    /// Duplicate-class label: two jobs with equal `class` are the same
    /// pattern up to a row/column relabeling, i.e. the same canonical
    /// cache entry.
    pub class: usize,
}

/// An infinite, seeded stream of [`JobSpec`]s — see the crate docs for
/// the mixes. Same constructor arguments, same stream, always.
pub struct Workload {
    name: &'static str,
    rng: SplitMix64,
    kind: Kind,
}

enum Kind {
    /// Hot-class traffic: class `k` drawn with probability ∝ 1/(k+1)^s.
    Zipf {
        pool: Vec<BitMatrix>,
        cumulative: Vec<f64>,
    },
    /// The Zipf mix shaped into on/off bursts.
    Bursty {
        pool: Vec<BitMatrix>,
        cumulative: Vec<f64>,
        burst_len: usize,
        left_in_burst: usize,
        on_gap_us: u64,
        off_gap_us: u64,
    },
    /// Nearest-neighbor circuit layers, round after round.
    Layered {
        rows: usize,
        cols: usize,
        next: usize,
    },
    /// Strongly-regular (Paley) matrices cycling the prime list.
    Adversarial { next: usize },
}

impl Workload {
    /// Zipf-distributed duplicate classes over `classes` random base
    /// patterns of `shape`: class `k` is drawn with probability
    /// proportional to `1/(k+1)^exponent`, and every draw is a fresh
    /// row/column relabeling of its class representative — byte-distinct
    /// jobs that one canonical cache entry answers.
    pub fn zipf(seed: u64, shape: (usize, usize), classes: usize, exponent: f64) -> Workload {
        let mut rng = SplitMix64::new(seed);
        let (pool, cumulative) = class_pool(&mut rng, shape, classes, exponent);
        Workload {
            name: "zipf",
            rng,
            kind: Kind::Zipf { pool, cumulative },
        }
    }

    /// The [`Workload::zipf`] mix shaped into on/off arrivals: bursts of
    /// `burst_len` jobs spaced `on_gap_us` apart, separated by
    /// `off_gap_us` of silence — the dispatch-then-idle cadence of a real
    /// circuit pipeline.
    pub fn bursty(
        seed: u64,
        shape: (usize, usize),
        classes: usize,
        exponent: f64,
        burst_len: usize,
        on_gap_us: u64,
        off_gap_us: u64,
    ) -> Workload {
        let mut rng = SplitMix64::new(seed);
        let (pool, cumulative) = class_pool(&mut rng, shape, classes, exponent);
        let burst_len = burst_len.max(1);
        Workload {
            name: "bursty",
            rng,
            kind: Kind::Bursty {
                pool,
                cumulative,
                burst_len,
                left_in_burst: burst_len,
                on_gap_us,
                off_gap_us,
            },
        }
    }

    /// Circuit-layer traffic: the four nearest-neighbor round masks of a
    /// `shape` grid, round after round. After the first round every layer
    /// repeats an earlier mask — half the time verbatim, half the time
    /// under a random grid relabeling — so a canonical cache should
    /// converge to a 100% hit rate while an exact-bytes one would not.
    pub fn layered(seed: u64, shape: (usize, usize)) -> Workload {
        Workload {
            name: "layered",
            rng: SplitMix64::new(seed),
            kind: Kind::Layered {
                rows: shape.0,
                cols: shape.1,
                next: 0,
            },
        }
    }

    /// Adversarial traffic: Paley strongly-regular matrices (see
    /// [`paley_matrix`]) cycling [`PALEY_PRIMES`], relabeled on every
    /// revisit. Refinement cannot split a vertex-transitive matrix, so each
    /// job runs the canonizer's individualization search and automorphism
    /// pruning, which still finish within the default branch budget.
    pub fn adversarial(seed: u64) -> Workload {
        Workload {
            name: "adversarial",
            rng: SplitMix64::new(seed),
            kind: Kind::Adversarial { next: 0 },
        }
    }

    /// The mix's stable name (bench/report key).
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Builds the class representatives (random patterns at ~40% density —
/// dense enough for structure, sparse enough to vary) and the cumulative
/// Zipf weights over them.
fn class_pool(
    rng: &mut SplitMix64,
    (rows, cols): (usize, usize),
    classes: usize,
    exponent: f64,
) -> (Vec<BitMatrix>, Vec<f64>) {
    let classes = classes.max(1);
    let pool = (0..classes)
        .map(|_| BitMatrix::from_fn(rows, cols, |_, _| rng.next_f64() < 0.4))
        .collect();
    let mut cumulative = Vec::with_capacity(classes);
    let mut total = 0.0;
    for k in 0..classes {
        total += ((k + 1) as f64).powf(-exponent);
        cumulative.push(total);
    }
    (pool, cumulative)
}

/// Draws a class index from the cumulative weight table.
fn draw_class(rng: &mut SplitMix64, cumulative: &[f64]) -> usize {
    let total = *cumulative.last().expect("pool is never empty");
    let r = rng.next_f64() * total;
    cumulative
        .iter()
        .position(|&c| r < c)
        .unwrap_or(cumulative.len() - 1)
}

impl Iterator for Workload {
    type Item = JobSpec;

    fn next(&mut self) -> Option<JobSpec> {
        let spec = match &mut self.kind {
            Kind::Zipf { pool, cumulative } => {
                let class = draw_class(&mut self.rng, cumulative);
                JobSpec {
                    matrix: rotate_layer(&pool[class], &mut self.rng),
                    arrival_gap_us: 0,
                    class,
                }
            }
            Kind::Bursty {
                pool,
                cumulative,
                burst_len,
                left_in_burst,
                on_gap_us,
                off_gap_us,
            } => {
                // The first job of each burst pays the off gap; the rest
                // of the burst arrives back-to-back at the on gap.
                let gap = if *left_in_burst == *burst_len {
                    *off_gap_us
                } else {
                    *on_gap_us
                };
                *left_in_burst -= 1;
                if *left_in_burst == 0 {
                    *left_in_burst = *burst_len;
                }
                let class = draw_class(&mut self.rng, cumulative);
                JobSpec {
                    matrix: rotate_layer(&pool[class], &mut self.rng),
                    arrival_gap_us: gap,
                    class,
                }
            }
            Kind::Layered { rows, cols, next } => {
                let k = *next;
                *next += 1;
                let class = k % ROUND_LAYERS;
                let base = nearest_neighbor_round(*rows, *cols, class);
                let matrix = if k >= ROUND_LAYERS && self.rng.next_f64() < 0.5 {
                    rotate_layer(&base, &mut self.rng)
                } else {
                    base
                };
                JobSpec {
                    matrix,
                    arrival_gap_us: 0,
                    class,
                }
            }
            Kind::Adversarial { next } => {
                let k = *next;
                *next += 1;
                let class = k % PALEY_PRIMES.len();
                let base = paley_matrix(PALEY_PRIMES[class]);
                let matrix = if k < PALEY_PRIMES.len() {
                    base
                } else {
                    rotate_layer(&base, &mut self.rng)
                };
                JobSpec {
                    matrix,
                    arrival_gap_us: 0,
                    class,
                }
            }
        };
        Some(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(mut w: Workload, n: usize) -> Vec<JobSpec> {
        (0..n)
            .map(|_| w.next().expect("stream is infinite"))
            .collect()
    }

    #[test]
    fn every_mix_replays_from_its_seed() {
        let builders: [fn() -> Workload; 4] = [
            || Workload::zipf(11, (6, 6), 8, 1.1),
            || Workload::bursty(11, (6, 6), 8, 1.1, 4, 50, 5000),
            || Workload::layered(11, (6, 6)),
            || Workload::adversarial(11),
        ];
        for build in builders {
            let a = collect(build(), 64);
            let b = collect(build(), 64);
            assert_eq!(a, b, "{} must replay", build().name());
        }
    }

    #[test]
    fn zipf_front_classes_dominate() {
        let jobs = collect(Workload::zipf(5, (6, 6), 8, 1.2), 600);
        let count = |c: usize| jobs.iter().filter(|j| j.class == c).count();
        assert!(
            count(0) > count(7) * 2,
            "class 0 hit {} times, class 7 {} times",
            count(0),
            count(7)
        );
        // Every draw of a class is the same pattern up to relabeling.
        let ones: Vec<usize> = jobs
            .iter()
            .filter(|j| j.class == 0)
            .map(|j| j.matrix.count_ones())
            .collect();
        assert!(ones.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn bursts_alternate_silence_and_back_to_back() {
        let jobs = collect(Workload::bursty(9, (5, 5), 4, 1.0, 3, 10, 9000), 12);
        let gaps: Vec<u64> = jobs.iter().map(|j| j.arrival_gap_us).collect();
        assert_eq!(
            gaps,
            vec![9000, 10, 10, 9000, 10, 10, 9000, 10, 10, 9000, 10, 10]
        );
    }

    #[test]
    fn layered_rounds_repeat_their_masks() {
        let jobs = collect(Workload::layered(3, (6, 6)), ROUND_LAYERS * 4);
        for (k, job) in jobs.iter().enumerate() {
            assert_eq!(job.class, k % ROUND_LAYERS);
            assert_eq!(job.matrix.shape(), (6, 6));
            // Relabeled or not, a layer keeps its class's one-count.
            assert_eq!(
                job.matrix.count_ones(),
                jobs[k % ROUND_LAYERS].matrix.count_ones()
            );
        }
    }

    #[test]
    fn adversarial_jobs_are_paley_sized() {
        let jobs = collect(Workload::adversarial(2), 6);
        for (k, job) in jobs.iter().enumerate() {
            let p = PALEY_PRIMES[k % PALEY_PRIMES.len()];
            assert_eq!(job.matrix.shape(), (p, p));
            assert_eq!(job.matrix.count_ones(), p * (p - 1) / 2);
        }
    }
}
