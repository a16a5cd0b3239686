//! Seeded program inputs. Generation belongs to the benchmark and is never
//! timed; the program only ever sees the generated vectors.
//!
//! The generators and their calibrated parameters are the ones each
//! workload's own default input uses (`crates/workloads`), with the seed
//! taken from the command line instead of the workload's fixed one.

use workloads::inputs::{
    adpcm_codes, band_schedule, coefficient_blocks, go_moves, pyramid_coefficients, rng, scaled,
    speech_pcm, video_blocks,
};
use workloads::Workload;

/// Input-size scale for every generated input. GNUGO's move stream has a
/// floor of 16 moves, which this scale does not shrink.
pub const SCALE: f64 = 0.02;

/// Which repetition parameters the generators use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The workloads' calibrated defaults (the paper's reuse statistics).
    Calibrated,
    /// The low-repetition end of each parameter's range: most probes miss.
    Churn,
}

/// One input for `program`, fully determined by `seed` and `family`.
///
/// # Panics
///
/// Panics on a program name outside `workloads::main_seven()`.
pub fn generate(program: &str, seed: u64, family: Family) -> Vec<i64> {
    let scale = SCALE;
    let churn = family == Family::Churn;
    match program {
        "G721_encode" => speech_pcm(
            scaled(220_000, scale),
            seed,
            0.061,
            if churn { 30_000.0 } else { 9_200.0 },
        ),
        "G721_decode" => adpcm_codes(scaled(390_000, scale), seed, if churn { 6.0 } else { 3.2 }),
        "MPEG2_encode" => video_blocks(
            scaled(8_400, scale),
            seed,
            if churn { 0.0 } else { 0.10 },
            14,
        ),
        "MPEG2_decode" => {
            coefficient_blocks(scaled(7_900, scale), seed, if churn { 0.0 } else { 0.58 })
        }
        "RASTA" => band_schedule(scaled(250, scale), 31, seed, if churn { 0.5 } else { 0.0 }),
        "UNEPIC" => {
            pyramid_coefficients(scaled(65_600, scale), seed, if churn { 0.2 } else { 0.70 })
        }
        "GNUGO" => go_moves(scaled(56, scale), seed),
        other => panic!("no input generator for program {other}"),
    }
}

/// The profiling (training) input of `w`: the workload's own default input
/// at `SCALE`, the same for every seed, as the paper profiles on a fixed
/// training input and measures on others. The pipeline sizes its tables
/// to powers of two from the profile, so a seeded profile would make the
/// table cost jump between seeds (G721_decode's and GNUGO's sizes flip).
pub fn training(w: &Workload) -> Vec<i64> {
    (w.default_input)(SCALE)
}

/// Derives an independent input seed from the run seed, a stream label
/// and an index (SplitMix64 finalizer over their mix).
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Input streams, so no two purposes share a derived seed.
pub mod stream {
    /// The compile workload's check-run input (input B).
    pub const CHECK: u64 = 2;
    /// The serve pool (`serve_hot`) and fresh requests (`serve_churn`).
    pub const REQUEST: u64 = 3;
    /// The serve request mix.
    pub const MIX: u64 = 4;
}

/// Relative weight of GNUGO in the serve mix: each other program appears
/// `GNUGO_WEIGHT_DIV` times per GNUGO request. GNUGO costs about ten times
/// the next most expensive request, so a uniform mix would spend most of
/// the serve time in it.
pub const GNUGO_WEIGHT_DIV: usize = 8;

/// An endless program sequence for the serve mix: decks holding each
/// program `GNUGO_WEIGHT_DIV` times (GNUGO once), each deck shuffled by the
/// seed. Decks keep the mix proportions exact within every run, so the
/// share of slow requests does not drift with the seed.
#[derive(Debug)]
pub struct Mix {
    rng: workloads::rng::StdRng,
    deck: Vec<usize>,
    programs: usize,
    gnugo: Option<usize>,
}

impl Mix {
    /// A mix over `names` (GNUGO, when present, gets the reduced weight).
    pub fn new(seed: u64, names: &[&str]) -> Self {
        Mix {
            rng: rng(derive(seed, stream::MIX, 0)),
            deck: Vec::new(),
            programs: names.len(),
            gnugo: names.iter().position(|&n| n == "GNUGO"),
        }
    }

    /// The next program index.
    pub fn next_program(&mut self) -> usize {
        if self.deck.is_empty() {
            for p in 0..self.programs {
                let copies = if Some(p) == self.gnugo {
                    1
                } else {
                    GNUGO_WEIGHT_DIV
                };
                self.deck.extend(std::iter::repeat_n(p, copies));
            }
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                self.deck.swap(i, j);
            }
        }
        self.deck.pop().expect("deck refilled above")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_seeded() {
        for w in workloads::main_seven() {
            for family in [Family::Calibrated, Family::Churn] {
                let a = generate(w.name, 7, family);
                assert_eq!(a, generate(w.name, 7, family));
                // RASTA's calibrated band schedule has no jitter, so it is
                // the same for every seed.
                if w.name != "RASTA" || family == Family::Churn {
                    assert_ne!(a, generate(w.name, 8, family), "{}", w.name);
                }
            }
        }
    }

    #[test]
    fn mix_keeps_exact_proportions_per_deck() {
        let names: Vec<&str> = workloads::main_seven().iter().map(|w| w.name).collect();
        let mut mix = Mix::new(3, &names);
        let per_deck = 6 * GNUGO_WEIGHT_DIV + 1;
        let mut counts = vec![0usize; names.len()];
        for _ in 0..per_deck * 2 {
            counts[mix.next_program()] += 1;
        }
        assert_eq!(counts[6], 2, "GNUGO once per deck");
        assert!(counts[..6].iter().all(|&c| c == 2 * GNUGO_WEIGHT_DIV));
    }
}
