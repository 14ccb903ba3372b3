//! Compiling addressing patterns into AOD shot schedules.

use std::fmt;
use std::time::Duration;

use bitmatrix::BitMatrix;
use ebmf::{
    complete_ebmf, row_packing_with_dont_cares, sap, trivial_partition, Partition, SapConfig,
};

use crate::{AodConfig, QubitArray};

/// The pulse applied during one shot (the paper's experiments modulate Rz
/// pulses through the AOD; other single-qubit gates fit the same model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pulse {
    /// A Z-rotation by the given angle (radians).
    Rz(f64),
    /// A global X (π around X).
    X,
    /// A Hadamard.
    H,
}

impl fmt::Display for Pulse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pulse::Rz(theta) => write!(f, "Rz({theta:.4})"),
            Pulse::X => write!(f, "X"),
            Pulse::H => write!(f, "H"),
        }
    }
}

/// One shot: an AOD configuration plus the pulse it delivers.
#[derive(Debug, Clone, PartialEq)]
pub struct Shot {
    /// The AOD row/column tones.
    pub aod: AodConfig,
    /// The pulse delivered at the crossings.
    pub pulse: Pulse,
}

/// How to turn a pattern into rectangles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// One site per shot (full individual addressing — the depth
    /// worst-case baseline).
    Individual,
    /// One shot per distinct nonzero row (or column, whichever is fewer) —
    /// the trivial heuristic.
    Trivial,
    /// Row packing with the given number of trials (paper Algorithm 2).
    Packing(usize),
    /// Exact minimum depth via SAP (paper Algorithm 1). Exponential in the
    /// worst case; intended for small patterns.
    Exact,
}

/// A sequence of shots addressing a pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct AddressingSchedule {
    shots: Vec<Shot>,
    shape: (usize, usize),
}

/// Errors from schedule compilation or verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The pattern targets a vacant site.
    TargetsVacancy {
        /// The vacant site targeted.
        site: (usize, usize),
    },
    /// A shot illuminates a qubit outside the pattern.
    AddressesNonTarget {
        /// Index of the offending shot.
        shot: usize,
        /// The wrongly illuminated site.
        site: (usize, usize),
    },
    /// A target qubit is hit by two shots (would double-apply the pulse).
    DoubleAddressed {
        /// The doubly addressed site.
        site: (usize, usize),
    },
    /// A target qubit is never addressed.
    Missed {
        /// The missed site.
        site: (usize, usize),
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::TargetsVacancy { site } => {
                write!(f, "pattern targets vacant site {site:?}")
            }
            ScheduleError::AddressesNonTarget { shot, site } => {
                write!(f, "shot {shot} addresses non-target qubit at {site:?}")
            }
            ScheduleError::DoubleAddressed { site } => {
                write!(f, "target {site:?} addressed more than once")
            }
            ScheduleError::Missed { site } => write!(f, "target {site:?} never addressed"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl AddressingSchedule {
    /// Builds a schedule from a partition, applying `pulse` in every shot.
    pub fn from_partition(p: &Partition, pulse: Pulse) -> Self {
        AddressingSchedule {
            shape: p.shape(),
            shots: p
                .iter()
                .map(|r| Shot {
                    aod: AodConfig::from_rectangle(r),
                    pulse,
                })
                .collect(),
        }
    }

    /// The shots in execution order.
    pub fn shots(&self) -> &[Shot] {
        &self.shots
    }

    /// The number of shots — the schedule *depth* (the quantity the paper
    /// minimizes).
    pub fn depth(&self) -> usize {
        self.shots.len()
    }

    /// Grid shape the schedule addresses.
    pub fn shape(&self) -> (usize, usize) {
        self.shape
    }

    /// Total control bits across all shots (`depth · (m + n)`, paper §I).
    pub fn total_control_bits(&self) -> usize {
        self.shots.iter().map(|s| s.aod.control_bits()).sum()
    }

    /// Estimated duration given a fixed per-shot time (reconfiguration +
    /// pulse). A simple linear model: real systems are dominated by the
    /// per-shot AOD reconfiguration latency.
    pub fn estimated_duration(&self, per_shot: Duration) -> Duration {
        per_shot * self.depth() as u32
    }

    /// Checks the schedule against an array and a target pattern: every
    /// target qubit addressed exactly once, no other **qubit** ever
    /// addressed (vacant sites may be illuminated freely — there is no atom
    /// to disturb).
    ///
    /// # Errors
    ///
    /// Returns the first [`ScheduleError`] found.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub fn verify(&self, array: &QubitArray, pattern: &BitMatrix) -> Result<(), ScheduleError> {
        assert_eq!(
            pattern.shape(),
            array.shape(),
            "pattern/array shape mismatch"
        );
        assert_eq!(self.shape, array.shape(), "schedule/array shape mismatch");
        if let Err(site) = array.check_pattern(pattern) {
            return Err(ScheduleError::TargetsVacancy { site });
        }
        let mut hit = BitMatrix::zeros(pattern.nrows(), pattern.ncols());
        for (idx, shot) in self.shots.iter().enumerate() {
            for (i, j) in shot.aod.rectangle().cells() {
                if !array.site_occupied(i, j) {
                    continue; // illuminating a vacancy is harmless
                }
                if !pattern.get(i, j) {
                    return Err(ScheduleError::AddressesNonTarget {
                        shot: idx,
                        site: (i, j),
                    });
                }
                if hit.get(i, j) {
                    return Err(ScheduleError::DoubleAddressed { site: (i, j) });
                }
                hit.set(i, j, true);
            }
        }
        for (i, j) in pattern.ones_positions() {
            if !hit.get(i, j) {
                return Err(ScheduleError::Missed { site: (i, j) });
            }
        }
        Ok(())
    }
}

/// The bridge from a compiled [`AddressingSchedule`] to the serving
/// stack's wire layers: each shot's illuminated-site mask, in execution
/// order. Every mask is a rank-≤1 rectangle over the schedule's array
/// shape, so the list is exactly the ordered layer sequence a protocol-v2
/// `schedule` frame carries — submit it and the per-layer responses come
/// back one per shot (each trivially depth 1, but sharing the server's
/// canonical cache and warm sessions with every other layer). Their union
/// reconstructs the addressed pattern.
pub fn schedule_to_jobs(schedule: &AddressingSchedule) -> Vec<BitMatrix> {
    schedule
        .shots()
        .iter()
        .map(|shot| shot.aod.site_mask())
        .collect()
}

/// Compiles a pattern on an array into an addressing schedule.
///
/// Vacant sites of the array become don't-cares: rectangles may sweep over
/// them (paper §VI), which the `Packing`/`Exact` strategies exploit.
///
/// # Errors
///
/// Returns [`ScheduleError::TargetsVacancy`] if the pattern asks to address
/// a site with no atom.
///
/// # Panics
///
/// Panics if `pattern` shape differs from the array shape.
pub fn compile(
    array: &QubitArray,
    pattern: &BitMatrix,
    strategy: Strategy,
    pulse: Pulse,
) -> Result<AddressingSchedule, ScheduleError> {
    if let Err(site) = array.check_pattern(pattern) {
        return Err(ScheduleError::TargetsVacancy { site });
    }
    let partition = match strategy {
        Strategy::Individual => {
            let mut p = Partition::empty(pattern.nrows(), pattern.ncols());
            for (i, j) in pattern.ones_positions() {
                p.push(ebmf::Rectangle::singleton(
                    pattern.nrows(),
                    pattern.ncols(),
                    i,
                    j,
                ));
            }
            p
        }
        Strategy::Trivial => trivial_partition(pattern),
        Strategy::Packing(trials) => {
            row_packing_with_dont_cares(pattern, array.vacancies(), trials, 0)
        }
        // Without vacancies the real-rank floor holds and saves queries.
        Strategy::Exact if array.vacancies().is_zero() => {
            sap(pattern, &SapConfig::default()).partition
        }
        Strategy::Exact => complete_ebmf(pattern, array.vacancies()).partition,
    };
    let schedule = AddressingSchedule::from_partition(&partition, pulse);
    debug_assert_eq!(schedule.verify(array, pattern), Ok(()));
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1b() -> BitMatrix {
        "101100\n010011\n101010\n010101\n111000\n000111"
            .parse()
            .unwrap()
    }

    #[test]
    fn individual_depth_equals_ones() {
        let m = fig1b();
        let array = QubitArray::new(6, 6);
        let s = compile(&array, &m, Strategy::Individual, Pulse::Rz(0.5)).unwrap();
        assert_eq!(s.depth(), m.count_ones());
        assert_eq!(s.verify(&array, &m), Ok(()));
    }

    #[test]
    fn packing_beats_individual() {
        let m = fig1b();
        let array = QubitArray::new(6, 6);
        let ind = compile(&array, &m, Strategy::Individual, Pulse::X).unwrap();
        let packed = compile(&array, &m, Strategy::Packing(50), Pulse::X).unwrap();
        assert!(packed.depth() < ind.depth());
        assert_eq!(packed.verify(&array, &m), Ok(()));
    }

    #[test]
    fn exact_reaches_five_on_fig1b() {
        let m = fig1b();
        let array = QubitArray::new(6, 6);
        let s = compile(&array, &m, Strategy::Exact, Pulse::Rz(1.0)).unwrap();
        assert_eq!(s.depth(), 5);
        assert_eq!(s.verify(&array, &m), Ok(()));
    }

    #[test]
    fn vacancies_allow_shallower_schedules() {
        // I_3 pattern with all off-diagonal sites vacant: one shot suffices.
        let pattern = BitMatrix::identity(3);
        let vac = BitMatrix::from_fn(3, 3, |i, j| i != j);
        let array = QubitArray::with_vacancies(vac);
        let s = compile(&array, &pattern, Strategy::Exact, Pulse::H).unwrap();
        assert_eq!(s.depth(), 1);
        assert_eq!(s.verify(&array, &pattern), Ok(()));

        // Without vacancies, the same pattern needs 3 shots.
        let full = QubitArray::new(3, 3);
        let s3 = compile(&full, &pattern, Strategy::Exact, Pulse::H).unwrap();
        assert_eq!(s3.depth(), 3);
    }

    #[test]
    fn targeting_vacancy_is_an_error() {
        let vac: BitMatrix = "10\n00".parse().unwrap();
        let array = QubitArray::with_vacancies(vac);
        let pattern: BitMatrix = "11\n00".parse().unwrap();
        assert_eq!(
            compile(&array, &pattern, Strategy::Trivial, Pulse::X),
            Err(ScheduleError::TargetsVacancy { site: (0, 0) })
        );
    }

    #[test]
    fn verify_catches_overlapping_shots() {
        let m: BitMatrix = "11\n00".parse().unwrap();
        let array = QubitArray::new(2, 2);
        let p = Partition::from_rectangles(
            2,
            2,
            vec![
                ebmf::Rectangle::from_cells(2, 2, [(0, 0), (0, 1)]),
                ebmf::Rectangle::singleton(2, 2, 0, 1),
            ],
        );
        let s = AddressingSchedule::from_partition(&p, Pulse::X);
        assert_eq!(
            s.verify(&array, &m),
            Err(ScheduleError::DoubleAddressed { site: (0, 1) })
        );
    }

    #[test]
    fn verify_catches_missed_and_stray_targets() {
        let m: BitMatrix = "11".parse().unwrap();
        let array = QubitArray::new(1, 2);
        let missing = AddressingSchedule::from_partition(
            &Partition::from_rectangles(1, 2, vec![ebmf::Rectangle::singleton(1, 2, 0, 0)]),
            Pulse::X,
        );
        assert_eq!(
            missing.verify(&array, &m),
            Err(ScheduleError::Missed { site: (0, 1) })
        );

        let zero: BitMatrix = "10".parse().unwrap();
        let stray = AddressingSchedule::from_partition(
            &Partition::from_rectangles(
                1,
                2,
                vec![ebmf::Rectangle::from_cells(1, 2, [(0, 0), (0, 1)])],
            ),
            Pulse::X,
        );
        assert_eq!(
            stray.verify(&array, &zero),
            Err(ScheduleError::AddressesNonTarget {
                shot: 0,
                site: (0, 1)
            })
        );
    }

    #[test]
    fn control_bits_scale_with_depth() {
        let m = fig1b();
        let array = QubitArray::new(6, 6);
        let s = compile(&array, &m, Strategy::Exact, Pulse::X).unwrap();
        assert_eq!(s.total_control_bits(), s.depth() * 12);
        assert_eq!(
            s.estimated_duration(Duration::from_micros(10)),
            Duration::from_micros(10 * s.depth() as u64)
        );
    }

    #[test]
    fn schedule_to_jobs_masks_partition_the_pattern() {
        let m = fig1b();
        let array = QubitArray::new(6, 6);
        let s = compile(&array, &m, Strategy::Exact, Pulse::X).unwrap();
        let layers = schedule_to_jobs(&s);
        assert_eq!(layers.len(), s.depth());
        let mut union = BitMatrix::zeros(6, 6);
        for layer in &layers {
            assert_eq!(layer.shape(), s.shape());
            // Shots never overlap on a vacancy-free array, so the masks
            // partition the pattern: disjoint, union = pattern.
            for (i, j) in layer.ones_positions() {
                assert!(!union.get(i, j), "site ({i},{j}) doubly covered");
                union.set(i, j, true);
            }
        }
        assert_eq!(union, m);
    }

    #[test]
    fn vacancies_never_deepen_a_packed_schedule() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(7);
        for case in 0..500 {
            let (r, c) = (rng.gen_range(1..=25usize), rng.gen_range(1..=25usize));
            let density = rng.gen_range(5..=95u32) as f64 / 100.0;
            let pattern = bitmatrix::random_matrix(r, c, density, &mut rng);
            let share = rng.gen_range(5..=90u32) as f64 / 100.0;
            let vac = BitMatrix::from_fn(r, c, |i, j| !pattern.get(i, j) && rng.gen_bool(share));
            let array = QubitArray::with_vacancies(vac);
            let with = compile(&array, &pattern, Strategy::Packing(10), Pulse::X).unwrap();
            assert_eq!(with.verify(&array, &pattern), Ok(()));
            let full = QubitArray::new(r, c);
            let without = compile(&full, &pattern, Strategy::Packing(10), Pulse::X).unwrap();
            assert!(
                with.depth() <= without.depth(),
                "case {case}: {} shots with vacancies, {} without\n{pattern}",
                with.depth(),
                without.depth()
            );
        }
    }

    #[test]
    fn zero_pattern_gives_empty_schedule() {
        let array = QubitArray::new(3, 3);
        let m = BitMatrix::zeros(3, 3);
        for strat in [
            Strategy::Individual,
            Strategy::Trivial,
            Strategy::Packing(2),
            Strategy::Exact,
        ] {
            let s = compile(&array, &m, strat, Pulse::X).unwrap();
            assert_eq!(s.depth(), 0, "{strat:?}");
            assert_eq!(s.verify(&array, &m), Ok(()));
        }
    }
}
