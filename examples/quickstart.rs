//! Quickstart: depth-optimal addressing of the paper's Figure 1b pattern.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Parses the 6×6 pattern, runs SAP (row packing + descending SAT queries),
//! prints the provably optimal 5-rectangle partition, the fooling-set
//! certificate, and the executable AOD shot schedule.

use bitmatrix::BitMatrix;
use ebmf::{sap, SapConfig};
use linalg::max_fooling_set;
use qaddress::{AddressingSchedule, Pulse, QubitArray};

fn main() {
    // The addressing pattern of paper Fig. 1b (1 = qubit to address).
    let pattern: BitMatrix = "101100\n010011\n101010\n010101\n111000\n000111"
        .parse()
        .expect("valid matrix literal");
    println!(
        "Pattern ({}x{}, {} targets):",
        pattern.nrows(),
        pattern.ncols(),
        pattern.count_ones()
    );
    println!("{pattern}\n");

    // Solve the exact binary matrix factorization with SAP (Algorithm 1).
    let outcome = sap(&pattern, &SapConfig::default());
    println!(
        "SAP: depth {} ({}), real rank {}, {} SAT queries, {:.1} ms total",
        outcome.depth(),
        if outcome.proved_optimal {
            "proved optimal"
        } else {
            "best effort"
        },
        outcome.lower_bound.real_rank.rank,
        outcome.stats.queries.len(),
        outcome.stats.total_seconds() * 1e3,
    );
    println!(
        "Partition (one symbol per rectangle):\n{}\n",
        outcome.partition
    );

    // Independent optimality certificate: a fooling set of matching size.
    let fooling = max_fooling_set(&pattern, 1_000_000);
    println!(
        "Fooling set of size {} {}: {:?}",
        fooling.size(),
        if fooling.proved_maximum {
            "(maximum)"
        } else {
            "(heuristic)"
        },
        fooling.cells,
    );
    assert_eq!(
        fooling.size(),
        outcome.depth(),
        "Fig. 1b: certificate is tight"
    );

    // Compile to an executable AOD schedule.
    let array = QubitArray::new(pattern.nrows(), pattern.ncols());
    let schedule = AddressingSchedule::from_partition(&outcome.partition, Pulse::Rz(0.31));
    schedule
        .verify(&array, &pattern)
        .expect("schedule must verify");
    println!("\nAOD schedule ({} shots):", schedule.depth());
    for (k, shot) in schedule.shots().iter().enumerate() {
        println!(
            "  shot {k}: rows {:?} cols {:?} pulse {} ({} sites, {} active tones)",
            shot.aod.row_tones().to_indices(),
            shot.aod.col_tones().to_indices(),
            shot.pulse,
            shot.aod.num_addressed(),
            shot.aod.active_tones(),
        );
    }
    println!(
        "\nControl cost: {} bits total vs {} for per-site addressing",
        schedule.total_control_bits(),
        pattern.count_ones() * pattern.nrows() * pattern.ncols(),
    );
}
