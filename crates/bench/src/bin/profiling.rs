//! Data-plane kernel and hot-loop profiler.
//!
//! Two sections:
//!
//! 1. **Kernel microbenches** — every word-packed `bitmatrix::kernel` entry
//!    point is timed against a per-bit reference implementation on the bench
//!    matrix shapes. The run *fails* (exit 1) if any kernel is slower than
//!    its reference: that is the word-packing contract, checked in CI.
//! 2. **Hot loops** — representative canonization (random matrices plus
//!    relabeled Paley graphs, which need the individualization search),
//!    row-packing, DLX-setup and SAT-encoding workloads are driven
//!    end-to-end so the `kernel_us_*` histograms populate, then their
//!    summaries are printed.
//!
//! Output goes to stdout and `BENCH_profiling.json` (uploaded as a CI
//! artifact next to `BENCH_engine.json`).

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use bitmatrix::{kernel, BitMatrix};
use ebmf::gen::random_benchmark;
use ebmf::{EbmfEncoder, PackingConfig};
use engine::canonical_form;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bit widths matching the bench workloads: one-word rows (the 8×8 / 10×10
/// engine-bench shapes), the multi-word rows of the scaling bench, and a
/// deliberately unaligned width.
const WIDTHS: [usize; 3] = [64, 200, 1024];
const REPS: usize = 2_000;

/// Random word buffer of `bits` bits with ~40% occupancy (the bench-stream
/// density), tail bits clear.
fn random_words(bits: usize, rng: &mut StdRng) -> Vec<u64> {
    let stride = bits.div_ceil(64);
    let mut words: Vec<u64> = (0..stride)
        .map(|_| rng.next_u64() & rng.next_u64())
        .collect();
    if !bits.is_multiple_of(64) {
        words[stride - 1] &= (1u64 << (bits % 64)) - 1;
    }
    words
}

// ---- per-bit references -------------------------------------------------
// Deliberately naive: one `get`-style shift/mask per bit position, the way
// the pre-word-packed data plane walked rows.

fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 != 0
}

fn ref_count(a: &[u64], bits: usize) -> usize {
    (0..bits).filter(|&i| bit(a, i)).count()
}

fn ref_and_count(a: &[u64], b: &[u64], bits: usize) -> usize {
    (0..bits).filter(|&i| bit(a, i) && bit(b, i)).count()
}

fn ref_andnot_count(a: &[u64], b: &[u64], bits: usize) -> usize {
    (0..bits).filter(|&i| bit(a, i) && !bit(b, i)).count()
}

fn ref_intersects(a: &[u64], b: &[u64], bits: usize) -> bool {
    (0..bits).any(|i| bit(a, i) && bit(b, i))
}

fn ref_is_subset(a: &[u64], b: &[u64], bits: usize) -> bool {
    (0..bits).all(|i| !bit(a, i) || bit(b, i))
}

fn ref_andnot_assign(dst: &mut [u64], src: &[u64], bits: usize) {
    for i in 0..bits {
        if bit(src, i) {
            dst[i / 64] &= !(1u64 << (i % 64));
        }
    }
}

fn ref_first_one(a: &[u64], bits: usize) -> Option<usize> {
    (0..bits).find(|&i| bit(a, i))
}

fn ref_rank(a: &[u64], i: usize) -> usize {
    (0..i).filter(|&j| bit(a, j)).count()
}

fn ref_cmp_lex(a: &[u64], b: &[u64], bits: usize) -> std::cmp::Ordering {
    for i in 0..bits {
        match bit(a, i).cmp(&bit(b, i)) {
            std::cmp::Ordering::Equal => {}
            other => return other,
        }
    }
    std::cmp::Ordering::Equal
}

fn ref_ones_sum(a: &[u64], bits: usize) -> usize {
    (0..bits).filter(|&i| bit(a, i)).sum()
}

// ---- harness ------------------------------------------------------------

struct Measurement {
    name: &'static str,
    bits: usize,
    kernel_ns: f64,
    reference_ns: f64,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.reference_ns / self.kernel_ns.max(1e-9)
    }
}

/// Times `f` over `REPS` iterations, returning mean ns per call.
fn time_ns<F: FnMut()>(mut f: F) -> f64 {
    // One warm-up pass keeps the first-call cache misses out of the figure.
    f();
    let start = Instant::now();
    for _ in 0..REPS {
        f();
    }
    start.elapsed().as_nanos() as f64 / REPS as f64
}

fn measure<K: FnMut(), R: FnMut()>(
    name: &'static str,
    bits: usize,
    kernel: K,
    reference: R,
) -> Measurement {
    Measurement {
        name,
        bits,
        kernel_ns: time_ns(kernel),
        reference_ns: time_ns(reference),
    }
}

fn kernel_microbenches() -> Vec<Measurement> {
    let mut out = Vec::new();
    let mut rng = StdRng::seed_from_u64(42);
    for bits in WIDTHS {
        let a = random_words(bits, &mut rng);
        let b = random_words(bits, &mut rng);
        // A guaranteed subset of `b`, so is_subset takes its full path.
        let sub: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & y).collect();
        // Differs from `a` only in the last bit: lexicographic compare must
        // scan the whole width (random data would exit on the first bit).
        let mut a_twin = a.clone();
        *a_twin.last_mut().expect("nonempty") ^= 1u64 << ((bits - 1) % 64);
        let mut scratch = a.clone();
        out.push(measure(
            "count",
            bits,
            || {
                black_box(kernel::count(black_box(&a)));
            },
            || {
                black_box(ref_count(black_box(&a), bits));
            },
        ));
        out.push(measure(
            "and_count",
            bits,
            || {
                black_box(kernel::and_count(black_box(&a), black_box(&b)));
            },
            || {
                black_box(ref_and_count(black_box(&a), black_box(&b), bits));
            },
        ));
        out.push(measure(
            "andnot_count",
            bits,
            || {
                black_box(kernel::andnot_count(black_box(&a), black_box(&b)));
            },
            || {
                black_box(ref_andnot_count(black_box(&a), black_box(&b), bits));
            },
        ));
        out.push(measure(
            "intersects",
            bits,
            || {
                black_box(kernel::intersects(black_box(&sub), black_box(&b)));
            },
            || {
                black_box(ref_intersects(black_box(&sub), black_box(&b), bits));
            },
        ));
        out.push(measure(
            "is_subset",
            bits,
            || {
                black_box(kernel::is_subset(black_box(&sub), black_box(&b)));
            },
            || {
                black_box(ref_is_subset(black_box(&sub), black_box(&b), bits));
            },
        ));
        // Timed separately: the two closures cannot share `scratch`.
        let andnot_kernel_ns = time_ns(|| {
            scratch.copy_from_slice(&a);
            kernel::andnot_assign(black_box(&mut scratch), black_box(&b));
        });
        let andnot_reference_ns = time_ns(|| {
            scratch.copy_from_slice(&a);
            ref_andnot_assign(black_box(&mut scratch), black_box(&b), bits);
        });
        out.push(Measurement {
            name: "andnot_assign",
            bits,
            kernel_ns: andnot_kernel_ns,
            reference_ns: andnot_reference_ns,
        });
        out.push(measure(
            "first_one",
            bits,
            || {
                black_box(kernel::first_one(black_box(&sub)));
            },
            || {
                black_box(ref_first_one(black_box(&sub), bits));
            },
        ));
        out.push(measure(
            "rank",
            bits,
            || {
                black_box(kernel::rank(black_box(&a), bits - 1));
            },
            || {
                black_box(ref_rank(black_box(&a), bits - 1));
            },
        ));
        out.push(measure(
            "cmp_lex",
            bits,
            || {
                black_box(kernel::cmp_lex(black_box(&a), black_box(&a_twin)));
            },
            || {
                black_box(ref_cmp_lex(black_box(&a), black_box(&a_twin), bits));
            },
        ));
        out.push(measure(
            "ones",
            bits,
            || {
                black_box(kernel::ones(black_box(&a)).sum::<usize>());
            },
            || {
                black_box(ref_ones_sum(black_box(&a), bits));
            },
        ));
    }
    out
}

/// Drives the measured hot loops end-to-end so the `kernel_us_*` histograms
/// populate: canonization (refine + search, the search on relabeled Paley
/// graphs), row packing with and without the DLX exact-cover step, and the
/// SAT pair-constraint encoder.
fn drive_hot_loops() {
    let mats: Vec<BitMatrix> = (0..8)
        .map(|i| random_benchmark(10, 10, 0.4, 9_000 + i as u64).matrix)
        .collect();
    for m in &mats {
        black_box(canonical_form(m));
        let greedy = PackingConfig {
            trials: 16,
            ..PackingConfig::default()
        };
        black_box(ebmf::row_packing(m, &greedy));
        let dlx = PackingConfig {
            trials: 16,
            exact_cover: true,
            ..PackingConfig::default()
        };
        black_box(ebmf::row_packing(m, &dlx));
        black_box(EbmfEncoder::new(m, 6));
    }
    // Refinement alone makes the random matrices above discrete; relabeled
    // Paley graphs are vertex-transitive, so their canonization runs the
    // individualization search and automorphism pruning too.
    for job in traffic::Workload::adversarial(9_100).take(16) {
        black_box(canonical_form(&job.matrix));
    }
}

fn main() {
    let measurements = kernel_microbenches();
    let mut failed = false;
    println!(
        "{:<14} {:>6} {:>12} {:>12} {:>9}",
        "kernel", "bits", "packed ns", "per-bit ns", "speedup"
    );
    for m in &measurements {
        println!(
            "{:<14} {:>6} {:>12.1} {:>12.1} {:>8.1}x",
            m.name,
            m.bits,
            m.kernel_ns,
            m.reference_ns,
            m.speedup()
        );
        if m.kernel_ns >= m.reference_ns {
            eprintln!(
                "FAIL: kernel {} ({} bits) is not faster than its per-bit \
                 reference ({:.1} ns vs {:.1} ns)",
                m.name, m.bits, m.kernel_ns, m.reference_ns
            );
            failed = true;
        }
    }

    drive_hot_loops();
    println!("\nhot-loop histograms (us):");
    let mut json = String::from("{\n  \"bench\": \"profiling\",\n  \"kernels\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let comma = if i + 1 == measurements.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"bits\": {}, \"packed_ns\": {:.1}, \
             \"per_bit_ns\": {:.1}, \"speedup\": {:.1} }}{comma}",
            m.name,
            m.bits,
            m.kernel_ns,
            m.reference_ns,
            m.speedup()
        );
    }
    json.push_str("  ],\n  \"hot_loops_us\": {\n");
    let hot: Vec<_> = obs::registry()
        .histogram_summaries()
        .into_iter()
        .filter(|(name, _)| name.starts_with(obs::names::KERNEL_US_PREFIX))
        .collect();
    for (i, (name, s)) in hot.iter().enumerate() {
        let comma = if i + 1 == hot.len() { "" } else { "," };
        println!(
            "  {name}: n={} sum={} p50={} p90={} max={}",
            s.count, s.sum, s.p50, s.p90, s.max
        );
        let _ = writeln!(
            json,
            "    \"{name}\": {{ \"count\": {}, \"sum\": {}, \"p50\": {}, \"p90\": {}, \
             \"p99\": {}, \"max\": {} }}{comma}",
            s.count, s.sum, s.p50, s.p90, s.p99, s.max,
        );
    }
    json.push_str("  }\n}\n");
    std::fs::write("BENCH_profiling.json", &json).expect("write BENCH_profiling.json");

    if failed {
        std::process::exit(1);
    }
    eprintln!(
        "profiling OK: {} kernel measurements, all faster than per-bit references",
        measurements.len()
    );
}
