//! The virtual chip-testing platform (paper §4).
//!
//! The paper characterizes 160 real 48-layer 3D TLC chips on an FPGA platform
//! with a custom flash controller (full command set + `SET FEATURE` timing
//! control) and a ±1 °C temperature controller used to accelerate retention
//! loss via Arrhenius's law. We have no chips, so this module recreates the
//! *methodology* against the calibrated `rr-flash` error model: a population
//! of per-seed chip instances, pseudo-random block/page sampling (the paper
//! samples 120 blocks per chip and tests every page), temperature control,
//! and retention baking.

use rr_flash::calibration::{arrhenius_acceleration, OperatingCondition};
use rr_flash::error_model::{round_u32, ErrorModel, PageId};
use rr_flash::geometry::ChipGeometry;
use rr_flash::timing::SensePhases;
use rr_util::rng::Rng;

/// One page selected for testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TestPage {
    /// Index of the chip in the platform's population.
    pub chip: usize,
    /// The page identity within that chip.
    pub page: PageId,
}

/// The virtual test platform: a chip population plus a temperature chamber.
///
/// # Example
///
/// ```
/// use rr_charact::platform::TestPlatform;
///
/// let mut platform = TestPlatform::new(4, 42);
/// platform.set_temperature(85.0);
/// let pages = platform.sample_pages(10);
/// assert_eq!(pages.len(), 4 * 10);
/// ```
#[derive(Debug)]
pub struct TestPlatform {
    chips: Vec<ErrorModel>,
    geometry: ChipGeometry,
    temp_c: f64,
    seed: u64,
}

impl TestPlatform {
    /// Creates a platform with `n_chips` independent chip instances.
    ///
    /// # Panics
    ///
    /// Panics if `n_chips` is zero.
    pub fn new(n_chips: usize, seed: u64) -> Self {
        assert!(n_chips > 0, "a platform needs at least one chip");
        let chips = (0..n_chips)
            .map(|i| ErrorModel::new(seed ^ (0xC41F_0000 + i as u64)))
            .collect();
        Self {
            chips,
            geometry: ChipGeometry::asplos21(),
            temp_c: 85.0,
            seed,
        }
    }

    /// The paper's population: 160 chips (§4).
    pub fn paper_scale(seed: u64) -> Self {
        Self::new(160, seed)
    }

    /// Number of chips under test.
    pub fn n_chips(&self) -> usize {
        self.chips.len()
    }

    /// Sets the chamber temperature (the temperature at which pages are
    /// *read*; retention accounting stays at the 30 °C reference).
    pub fn set_temperature(&mut self, temp_c: f64) {
        assert!(
            (0.0..=125.0).contains(&temp_c),
            "chamber range is 0–125 °C, got {temp_c}"
        );
        self.temp_c = temp_c;
    }

    /// Current chamber temperature.
    pub fn temperature(&self) -> f64 {
        self.temp_c
    }

    /// Effective retention age (months at 30 °C) reached by baking for
    /// `hours` at `bake_temp_c` — Arrhenius acceleration, §4's
    /// "13 hours at 85 °C ≈ 1 year at 30 °C".
    pub fn bake_months(hours: f64, bake_temp_c: f64) -> f64 {
        let af = arrhenius_acceleration(bake_temp_c, 30.0);
        hours * af / (365.25 * 24.0) * 12.0
    }

    /// Deterministically samples `per_chip` pages from random blocks of every
    /// chip (the paper's random 120-blocks-per-chip methodology).
    pub fn sample_pages(&self, per_chip: usize) -> Vec<TestPage> {
        let mut rng = Rng::seed_from_u64(self.seed ^ 0x5a_3b1e);
        let blocks = self.geometry.blocks_per_chip();
        let pages = self.geometry.pages_per_block as u64;
        let mut out = Vec::with_capacity(self.chips.len() * per_chip);
        for chip in 0..self.chips.len() {
            for _ in 0..per_chip {
                let block = rng.below(blocks);
                let page = rng.below(pages) as u32;
                out.push(TestPage {
                    chip,
                    page: PageId::new(block, page),
                });
            }
        }
        out
    }

    fn condition(&self, pec: f64, months: f64) -> OperatingCondition {
        OperatingCondition::new(pec, months, self.temp_c)
    }

    /// The retry-table entry at which this page first reads successfully.
    pub fn required_steps(&self, p: TestPage, pec: f64, months: f64) -> u32 {
        self.chips[p.chip].required_step_index(p.page, self.condition(pec, months))
    }

    /// Raw bit errors when reading at `step` with explicit sensing phases
    /// (the platform's `SET FEATURE` + read test of §4).
    pub fn errors_at(
        &self,
        p: TestPage,
        pec: f64,
        months: f64,
        step: u32,
        phases: &SensePhases,
    ) -> u32 {
        self.chips[p.chip].errors_at_step(p.page, self.condition(pec, months), step, phases)
    }

    /// Derives the per-page inputs of M_ERR for a sample at one operating
    /// condition (and the current chamber temperature), so that any number
    /// of sensing-phase sets can then be measured against it with
    /// [`PageSweep::m_err`].
    pub fn page_sweep(&self, pages: &[TestPage], pec: f64, months: f64) -> PageSweep<'_> {
        let cond = self.condition(pec, months);
        let pages = pages
            .iter()
            .map(|p| {
                let chip = &self.chips[p.chip];
                SweepPage {
                    chip: p.chip,
                    final_errors: chip.final_step_errors(p.page, cond),
                    penalty_factor: chip.timing_penalty_factor(p.page),
                }
            })
            .collect();
        PageSweep {
            chips: &self.chips,
            cond,
            pages,
        }
    }

    /// Max final-step errors across a page sample — the measured M_ERR.
    pub fn measure_m_err(&self, pages: &[TestPage], pec: f64, months: f64) -> u32 {
        self.measure_m_err_with_phases(pages, pec, months, &SensePhases::table1())
    }

    /// Max final-step errors across a sample when reading with reduced
    /// timing parameters — Fig. 9/11's `M_ERR` under (ΔtPRE, ΔtDISCH).
    pub fn measure_m_err_with_phases(
        &self,
        pages: &[TestPage],
        pec: f64,
        months: f64,
        phases: &SensePhases,
    ) -> u32 {
        self.page_sweep(pages, pec, months).m_err(phases)
    }
}

/// One sampled page's share of a [`PageSweep`].
#[derive(Debug)]
struct SweepPage {
    chip: usize,
    final_errors: u32,
    penalty_factor: f64,
}

/// A page sample's per-page M_ERR inputs at one operating condition, built
/// by [`TestPlatform::page_sweep`].
///
/// Read at its required retry step, a page is on the near-optimal plateau,
/// so its errors under sensing phases `phases` are
/// `round(final_errors + delta_m_err(cond, phases) · penalty_factor)`: the
/// first and last terms depend only on (page, condition), the middle one
/// only on (chip calibration, condition, phases). The sweep stores the
/// per-page terms once, and every phase set costs one `delta_m_err` per chip
/// plus a multiply–round–max pass over the pages.
///
/// # Example
///
/// ```
/// use rr_charact::platform::TestPlatform;
/// use rr_flash::timing::SensePhases;
///
/// let platform = TestPlatform::new(4, 42);
/// let pages = platform.sample_pages(50);
/// let sweep = platform.page_sweep(&pages, 2000.0, 12.0);
/// let default = sweep.m_err(&SensePhases::table1());
/// let reduced = sweep.m_err(&SensePhases::table1().with_reduction(0.4, 0.0, 0.0));
/// assert!(reduced > default);
/// ```
#[derive(Debug)]
pub struct PageSweep<'a> {
    chips: &'a [ErrorModel],
    cond: OperatingCondition,
    pages: Vec<SweepPage>,
}

impl PageSweep<'_> {
    /// Max errors across the sample, each page read at its required retry
    /// step with sensing phases `phases` — the measured M_ERR under them.
    pub fn m_err(&self, phases: &SensePhases) -> u32 {
        let default = SensePhases::table1();
        let pre = default.pre_reduction_vs(phases);
        let eval = default.eval_reduction_vs(phases);
        let disch = default.disch_reduction_vs(phases);
        if pre == 0.0 && eval == 0.0 && disch == 0.0 {
            return self.pages.iter().map(|p| p.final_errors).max().unwrap_or(0);
        }
        let max_penalty: Vec<f64> = self
            .chips
            .iter()
            .map(|chip| chip.calibration().delta_m_err(self.cond, pre, eval, disch))
            .collect();
        self.pages
            .iter()
            .map(|p| {
                let penalty = max_penalty[p.chip] * p.penalty_factor;
                round_u32(p.final_errors as f64 + penalty)
            })
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chips_are_distinct_instances() {
        let p = TestPlatform::new(3, 7);
        let pages = p.sample_pages(20);
        let per_chip: Vec<u32> = (0..3)
            .map(|c| {
                pages
                    .iter()
                    .filter(|t| t.chip == c)
                    .map(|&t| p.required_steps(t, 2000.0, 12.0))
                    .sum()
            })
            .collect();
        assert!(
            per_chip[0] != per_chip[1] || per_chip[1] != per_chip[2],
            "chip instances must differ"
        );
    }

    #[test]
    fn page_sweep_matches_the_per_page_measurement() {
        let mut platform = TestPlatform::new(6, 77);
        let pages = platform.sample_pages(24);
        let default = SensePhases::table1();
        // Fig. 8's single-parameter sweeps, Fig. 9's joint grid, Fig. 11's
        // tPRE search, and tPRE at and past the hard-fail boundary.
        let mut reductions = vec![(0.0, 0.0, 0.0)];
        for x in [0.1, 0.2, 0.3, 0.4, 0.47, 0.54] {
            reductions.push((x, 0.0, 0.0));
        }
        for x in [0.05, 0.1, 0.15, 0.2] {
            reductions.push((0.0, x, 0.0));
        }
        for pre in [0.0, 0.14, 0.27, 0.4, 0.47, 0.54] {
            for disch in [0.07, 0.14, 0.2, 0.27, 0.34, 0.4] {
                reductions.push((pre, 0.0, disch));
            }
        }
        for i in 1..=27 {
            reductions.push((0.02 * i as f64, 0.0, 0.0));
        }
        reductions.extend([(0.58, 0.0, 0.0), (0.6, 0.0, 0.0)]);
        for temp in [85.0, 55.0, 30.0] {
            platform.set_temperature(temp);
            for pec in [0.0, 1000.0, 2000.0] {
                for months in [0.0, 3.0, 6.0, 9.0, 12.0] {
                    let sweep = platform.page_sweep(&pages, pec, months);
                    let steps: Vec<u32> = pages
                        .iter()
                        .map(|&p| platform.required_steps(p, pec, months))
                        .collect();
                    for &(pre, eval, disch) in &reductions {
                        let phases = default.with_reduction(pre, eval, disch);
                        let naive = pages
                            .iter()
                            .zip(&steps)
                            .map(|(&p, &n)| platform.errors_at(p, pec, months, n, &phases))
                            .max()
                            .unwrap();
                        assert_eq!(
                            sweep.m_err(&phases),
                            naive,
                            "{temp} °C, ({pec}, {months}), reductions ({pre}, {eval}, {disch})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bake_rule_of_thumb() {
        // §4: 13 h at 85 °C ≈ 1 year (12 months) at 30 °C.
        let months = TestPlatform::bake_months(13.0, 85.0);
        assert!((months - 12.0).abs() < 2.0, "13 h bake = {months} months");
    }

    #[test]
    fn sampling_is_deterministic() {
        let a = TestPlatform::new(2, 9).sample_pages(5);
        let b = TestPlatform::new(2, 9).sample_pages(5);
        assert_eq!(a, b);
    }

    #[test]
    fn m_err_measurement_tracks_calibration() {
        let p = TestPlatform::new(8, 11);
        let pages = p.sample_pages(400);
        let mut hot = TestPlatform::new(8, 11);
        hot.set_temperature(85.0);
        let measured = hot.measure_m_err(&pages, 2000.0, 12.0);
        // Fig. 7 anchor: M_ERR(2K, 12) = 35 at 85 °C.
        assert!(
            (33..=35).contains(&measured),
            "measured M_ERR = {measured}, expected ≈ 35"
        );
    }

    #[test]
    fn temperature_changes_measured_m_err() {
        let mut p = TestPlatform::new(4, 13);
        let pages = p.sample_pages(300);
        p.set_temperature(85.0);
        let at85 = p.measure_m_err(&pages, 1000.0, 12.0);
        p.set_temperature(30.0);
        let at30 = p.measure_m_err(&pages, 1000.0, 12.0);
        // §5.1: +5 errors at 30 °C.
        assert_eq!(at30 - at85, 5);
    }

    #[test]
    #[should_panic(expected = "chamber range")]
    fn chamber_range_enforced() {
        TestPlatform::new(1, 0).set_temperature(200.0);
    }
}
