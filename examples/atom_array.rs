//! Addressing a 100×100 neutral-atom array — the technology-limit scale the
//! paper's large benchmark models.
//!
//! ```sh
//! cargo run --release --example atom_array
//! ```
//!
//! Sweeps pattern occupancy, compares individual / trivial / row-packing
//! addressing depth against the real-rank lower bound, and demonstrates the
//! vacancy (don't-care) advantage on a sparse sub-array.

use bitmatrix::{random_matrix, BitMatrix};
use ebmf::{lower_bound, row_packing_with_dont_cares, PackingConfig};
use qaddress::{compile, Pulse, QubitArray, Strategy};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let array = QubitArray::new(100, 100);
    println!("100x100 atom array; depth by strategy and occupancy");
    println!(
        "{:>5} {:>8} {:>9} {:>9} {:>10} {:>11}",
        "occ", "targets", "individ.", "trivial", "packing10", "rank bound"
    );
    for occ in [0.01, 0.02, 0.05, 0.10, 0.20] {
        let mut rng = StdRng::seed_from_u64((occ * 1000.0) as u64);
        let pattern = random_matrix(100, 100, occ, &mut rng);
        let individual = compile(&array, &pattern, Strategy::Individual, Pulse::X).unwrap();
        let trivial = compile(&array, &pattern, Strategy::Trivial, Pulse::X).unwrap();
        let packed = compile(&array, &pattern, Strategy::Packing(10), Pulse::X).unwrap();
        let lb = lower_bound(&pattern, false);
        println!(
            "{:>4.0}% {:>8} {:>9} {:>9} {:>10} {:>11}{}",
            occ * 100.0,
            pattern.count_ones(),
            individual.depth(),
            trivial.depth(),
            packed.depth(),
            lb.value,
            if packed.depth() == lb.value {
                "  <- proved optimal"
            } else {
                ""
            },
        );
    }

    println!("\nVacancy advantage (paper §VI): 20x20 half-filled array");
    let mut rng = StdRng::seed_from_u64(7);
    // Random half-filled array: vacant sites are don't-cares.
    let vacancies = random_matrix(20, 20, 0.5, &mut rng);
    let pattern = BitMatrix::from_fn(20, 20, |i, j| !vacancies.get(i, j) && (i + j) % 2 == 0);
    let plain = row_packing(&pattern);
    let with_dc = row_packing_with_dont_cares(&pattern, &vacancies, 10, 0);
    println!(
        "targets {}, packing depth ignoring vacancies {}, exploiting vacancies {}",
        pattern.count_ones(),
        plain,
        with_dc.len()
    );
    assert!(
        with_dc.len() <= plain,
        "exploiting vacancies must never be deeper than ignoring them"
    );
    let sparse_array = QubitArray::with_vacancies(vacancies);
    let s = compile(
        &sparse_array,
        &pattern,
        Strategy::Packing(10),
        Pulse::Rz(0.5),
    )
    .unwrap();
    s.verify(&sparse_array, &pattern).unwrap();
    println!(
        "compiled vacancy-aware schedule: {} shots, verified",
        s.depth()
    );
}

fn row_packing(pattern: &BitMatrix) -> usize {
    ebmf::row_packing(pattern, &PackingConfig::with_trials(10)).len()
}
