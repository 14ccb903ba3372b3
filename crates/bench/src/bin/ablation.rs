//! Ablation study of the design choices called out in the paper.
//!
//! §III-B names two rejected compromises for row packing — (1) dropping the
//! basis update, (2) sorting rows by sparsity instead of shuffling — and
//! §VI proposes exact-cover decomposition as an upgrade. This binary
//! measures all four variants on the gap and random families. A separate
//! section measures the effect of symmetry breaking on the SAT phase.
//!
//! ```sh
//! cargo run --release -p rect-addr-bench --bin ablation
//! ```

use std::time::Instant;

use ebmf::gen::{gap_benchmark, random_benchmark, Benchmark};
use ebmf::{binary_rank, row_packing, EbmfEncoder, EncoderOptions, PackingConfig, RowOrder};

fn variant_configs() -> Vec<(&'static str, PackingConfig)> {
    let base = PackingConfig {
        trials: 10,
        ..PackingConfig::default()
    };
    vec![
        ("shuffle+update (paper)", base),
        (
            "no basis update",
            PackingConfig {
                basis_update: false,
                ..base
            },
        ),
        (
            "sparsest-first order",
            PackingConfig {
                order: RowOrder::SparsestFirst,
                ..base
            },
        ),
        (
            "exact-cover (DLX)",
            PackingConfig {
                exact_cover: true,
                ..base
            },
        ),
    ]
}

fn main() {
    let mut benches: Vec<Benchmark> = Vec::new();
    for k in 2..=5 {
        for c in 0..10 {
            benches.push(gap_benchmark(10, 10, k, 500 + (k * 10 + c) as u64));
        }
    }
    for occ10 in [3, 5, 7] {
        for c in 0..10 {
            benches.push(random_benchmark(
                10,
                10,
                occ10 as f64 / 10.0,
                600 + (occ10 * 10 + c) as u64,
            ));
        }
    }
    let optima: Vec<usize> = benches.iter().map(|b| binary_rank(&b.matrix)).collect();

    println!(
        "ROW PACKING VARIANTS ({} instances: gap 2-5 + random 30/50/70%)",
        benches.len()
    );
    println!(
        "{:<24} {:>10} {:>12} {:>12}",
        "variant", "% optimal", "avg depth", "avg excess"
    );
    for (name, cfg) in variant_configs() {
        let mut optimal_hits = 0usize;
        let mut depth_sum = 0usize;
        let mut excess_sum = 0usize;
        for (bench, &opt) in benches.iter().zip(&optima) {
            let p = row_packing(&bench.matrix, &cfg);
            depth_sum += p.len();
            excess_sum += p.len() - opt;
            if p.len() == opt {
                optimal_hits += 1;
            }
        }
        println!(
            "{:<24} {:>9.0}% {:>12.2} {:>12.2}",
            name,
            100.0 * optimal_hits as f64 / benches.len() as f64,
            depth_sum as f64 / benches.len() as f64,
            excess_sum as f64 / benches.len() as f64,
        );
    }

    println!("\nSYMMETRY BREAKING IN THE SAT PHASE (UNSAT proofs at b = r_B - 1)");
    println!(
        "{:<24} {:>14} {:>14}",
        "instance", "with SB (s)", "without SB (s)"
    );
    for (bench, &opt) in benches.iter().zip(&optima).take(6) {
        if opt <= 1 {
            continue;
        }
        let time_solve = |sb: bool| {
            let t = Instant::now();
            let options = EncoderOptions {
                symmetry_breaking: sb,
                ..EncoderOptions::new(opt - 1)
            };
            let mut enc = EbmfEncoder::with_encoder_options(&bench.matrix, None, options);
            let r = enc.solve();
            assert!(r.is_unsat(), "b = r_B - 1 must be UNSAT");
            t.elapsed().as_secs_f64()
        };
        println!(
            "{:<24} {:>14.3} {:>14.3}",
            format!("{} #{}", bench.params, bench.seed),
            time_solve(true),
            time_solve(false),
        );
    }
}
