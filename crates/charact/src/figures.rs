//! Regeneration of the paper's characterization figures (Figs. 4b, 5, 7–11).
//!
//! Each function runs the corresponding §4/§5 experiment on a
//! [`TestPlatform`] and returns plain serializable data; the `repro` CLI
//! renders them as tables/heatmaps, and EXPERIMENTS.md records the
//! paper-vs-measured comparison.

use crate::platform::{TestPage, TestPlatform};
use rr_flash::calibration::{
    ECC_CAPABILITY_PER_KIB, RPT_SAFETY_MARGIN_BITS, TPRE_MAX_PROFILED_REDUCTION,
};
use rr_flash::timing::SensePhases;
use rr_util::stats::Histogram;
use serde::{Deserialize, Serialize};

/// The P/E-cycle counts of the characterization sweeps.
pub const PEC_SWEEP: [f64; 3] = [0.0, 1000.0, 2000.0];
/// The retention ages (months) of the characterization sweeps.
pub const RETENTION_SWEEP: [f64; 5] = [0.0, 3.0, 6.0, 9.0, 12.0];
/// The operating temperatures of Fig. 7.
pub const TEMPERATURE_SWEEP: [f64; 3] = [85.0, 55.0, 30.0];

// ---- Fig. 4b ---------------------------------------------------------------

/// One page's RBER trajectory over its last retry steps (Fig. 4b).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4bSeries {
    /// Total retry steps this page needs (the paper plots N = 16 and N = 21).
    pub total_steps: u32,
    /// `(steps before the final step, raw errors per KiB)`, e.g. entry 0 is
    /// the final step itself.
    pub errors_by_distance: Vec<(u32, u32)>,
}

/// Measures the Fig. 4b RBER-collapse trajectories: finds pages requiring
/// exactly the `wanted` retry-step counts and records their last `tail` steps.
pub fn fig4b(
    platform: &TestPlatform,
    pec: f64,
    months: f64,
    wanted: &[u32],
    tail: u32,
) -> Vec<Fig4bSeries> {
    let pages = platform.sample_pages(256);
    let default = SensePhases::table1();
    let mut out = Vec::new();
    for &n in wanted {
        let Some(page) = pages
            .iter()
            .find(|&&p| platform.required_steps(p, pec, months) == n)
        else {
            continue;
        };
        let errors_by_distance = (0..=tail.min(n))
            .map(|d| (d, platform.errors_at(*page, pec, months, n - d, &default)))
            .collect();
        out.push(Fig4bSeries {
            total_steps: n,
            errors_by_distance,
        });
    }
    out
}

// ---- Fig. 5 ----------------------------------------------------------------

/// One (P/E count, retention) cell of Fig. 5's probability map.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Cell {
    /// P/E-cycle count.
    pub pec: f64,
    /// Retention age in months.
    pub months: f64,
    /// Distribution of required retry steps over the page sample.
    pub hist: Histogram,
    /// Mean retry steps.
    pub mean: f64,
    /// Minimum observed.
    pub min: u32,
    /// Maximum observed.
    pub max: u32,
}

/// Measures Fig. 5: the retry-step distribution per operating condition.
pub fn fig5(platform: &TestPlatform, per_chip: usize) -> Vec<Fig5Cell> {
    let pages = platform.sample_pages(per_chip);
    let mut out = Vec::new();
    for &pec in &PEC_SWEEP {
        for &months in &RETENTION_SWEEP {
            let mut hist = Histogram::new(41);
            for &p in &pages {
                hist.record(platform.required_steps(p, pec, months) as usize);
            }
            out.push(Fig5Cell {
                pec,
                months,
                mean: hist.mean(),
                min: hist.min_value().unwrap_or(0) as u32,
                max: hist.max_value().unwrap_or(0) as u32,
                hist,
            });
        }
    }
    out
}

// ---- Fig. 7 ----------------------------------------------------------------

/// One cell of Fig. 7: M_ERR at a (temperature, PEC, retention) point.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fig7Cell {
    /// Operating temperature (°C).
    pub temp_c: f64,
    /// P/E-cycle count.
    pub pec: f64,
    /// Retention age (months).
    pub months: f64,
    /// Measured M_ERR (max raw errors per KiB in the final retry step).
    pub m_err: u32,
    /// ECC-capability margin (72 − M_ERR).
    pub margin: u32,
}

/// Measures Fig. 7: the ECC-capability margin in the final retry step.
pub fn fig7(platform: &mut TestPlatform, per_chip: usize) -> Vec<Fig7Cell> {
    let pages = platform.sample_pages(per_chip);
    let mut out = Vec::new();
    for &temp in &TEMPERATURE_SWEEP {
        platform.set_temperature(temp);
        for &pec in &PEC_SWEEP {
            for &months in &RETENTION_SWEEP {
                let m_err = platform.measure_m_err(&pages, pec, months);
                out.push(Fig7Cell {
                    temp_c: temp,
                    pec,
                    months,
                    m_err,
                    margin: ECC_CAPABILITY_PER_KIB.saturating_sub(m_err),
                });
            }
        }
    }
    out
}

// ---- Fig. 8 ----------------------------------------------------------------

/// Which sensing phase a Fig. 8 sweep reduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimingParam {
    /// Bit-line precharge (tPRE).
    Pre,
    /// Sense-amplifier evaluation (tEVAL).
    Eval,
    /// Bit-line discharge (tDISCH).
    Disch,
}

impl TimingParam {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            TimingParam::Pre => "tPRE",
            TimingParam::Eval => "tEVAL",
            TimingParam::Disch => "tDISCH",
        }
    }

    fn phases(&self, reduction: f64) -> SensePhases {
        let d = SensePhases::table1();
        match self {
            TimingParam::Pre => d.with_reduction(reduction, 0.0, 0.0),
            TimingParam::Eval => d.with_reduction(0.0, reduction, 0.0),
            TimingParam::Disch => d.with_reduction(0.0, 0.0, reduction),
        }
    }
}

/// One Fig. 8 sweep: ΔM_ERR vs. reduction of a single timing parameter.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8Series {
    /// The reduced parameter.
    pub param: TimingParam,
    /// P/E-cycle count.
    pub pec: f64,
    /// Retention age (months).
    pub months: f64,
    /// `(reduction fraction, ΔM_ERR)` points.
    pub points: Vec<(f64, i64)>,
}

/// Measures Fig. 8 at 85 °C: the error cost of each timing parameter alone.
pub fn fig8(platform: &mut TestPlatform, per_chip: usize) -> Vec<Fig8Series> {
    platform.set_temperature(85.0);
    let pages = platform.sample_pages(per_chip);
    let sweeps: [(TimingParam, &[f64]); 3] = [
        (TimingParam::Pre, &[0.0, 0.1, 0.2, 0.3, 0.4, 0.47, 0.54]),
        (TimingParam::Eval, &[0.0, 0.05, 0.1, 0.15, 0.2]),
        (TimingParam::Disch, &[0.0, 0.07, 0.14, 0.2, 0.27, 0.34, 0.4]),
    ];
    let conditions: Vec<(f64, f64)> = PEC_SWEEP
        .iter()
        .flat_map(|&pec| [0.0, 6.0, 12.0].map(|months| (pec, months)))
        .collect();
    let page_sweeps: Vec<_> = conditions
        .iter()
        .map(|&(pec, months)| platform.page_sweep(&pages, pec, months))
        .collect();
    let mut out = Vec::new();
    for (param, reductions) in sweeps {
        for (&(pec, months), sweep) in conditions.iter().zip(&page_sweeps) {
            let base = sweep.m_err(&SensePhases::table1()) as i64;
            let points = reductions
                .iter()
                .map(|&x| (x, sweep.m_err(&param.phases(x)) as i64 - base))
                .collect();
            out.push(Fig8Series {
                param,
                pec,
                months,
                points,
            });
        }
    }
    out
}

// ---- Fig. 9 ----------------------------------------------------------------

/// One Fig. 9 point: M_ERR under joint (ΔtPRE, ΔtDISCH) reduction.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fig9Cell {
    /// P/E-cycle count.
    pub pec: f64,
    /// Retention age (months).
    pub months: f64,
    /// tPRE reduction fraction.
    pub d_pre: f64,
    /// tDISCH reduction fraction.
    pub d_disch: f64,
    /// Measured M_ERR in the final retry step.
    pub m_err: u32,
}

/// Measures Fig. 9's joint-reduction sweep at the paper's five conditions.
pub fn fig9(platform: &mut TestPlatform, per_chip: usize) -> Vec<Fig9Cell> {
    platform.set_temperature(85.0);
    let pages = platform.sample_pages(per_chip);
    let conditions = [
        (1000.0, 0.0),
        (2000.0, 0.0),
        (0.0, 12.0),
        (1000.0, 12.0),
        (2000.0, 12.0),
    ];
    let pre_sweep = [0.0, 0.14, 0.27, 0.4, 0.47, 0.54];
    let disch_sweep = [0.0, 0.07, 0.14, 0.2, 0.27, 0.34, 0.4];
    let mut out = Vec::new();
    for (pec, months) in conditions {
        let sweep = platform.page_sweep(&pages, pec, months);
        for &d_pre in &pre_sweep {
            for &d_disch in &disch_sweep {
                let phases = SensePhases::table1().with_reduction(d_pre, 0.0, d_disch);
                let m_err = sweep.m_err(&phases);
                out.push(Fig9Cell {
                    pec,
                    months,
                    d_pre,
                    d_disch,
                    m_err,
                });
            }
        }
    }
    out
}

// ---- Fig. 10 ---------------------------------------------------------------

/// One Fig. 10 point: temperature-induced extra ΔM_ERR under tPRE reduction.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fig10Cell {
    /// The colder temperature compared against 85 °C.
    pub temp_c: f64,
    /// P/E-cycle count.
    pub pec: f64,
    /// Retention age (months).
    pub months: f64,
    /// tPRE reduction fraction.
    pub d_pre: f64,
    /// Extra errors at `temp_c` relative to 85 °C, same reduction.
    pub extra_errors: i64,
}

/// Measures Fig. 10: the temperature sensitivity of tPRE reduction.
pub fn fig10(platform: &mut TestPlatform, per_chip: usize) -> Vec<Fig10Cell> {
    let pages = platform.sample_pages(per_chip);
    let pre_sweep = [0.0, 0.2, 0.4, 0.47, 0.54];
    let mut out = Vec::new();
    for &months in &[0.0, 12.0] {
        for &pec in &PEC_SWEEP {
            // M_ERR at `temp` for every entry of `pre_sweep`.
            let mut m_err_at = |temp: f64| -> Vec<i64> {
                platform.set_temperature(temp);
                let sweep = platform.page_sweep(&pages, pec, months);
                pre_sweep
                    .iter()
                    .map(|&d_pre| {
                        let phases = SensePhases::table1().with_reduction(d_pre, 0.0, 0.0);
                        sweep.m_err(&phases) as i64
                    })
                    .collect()
            };
            let hot = m_err_at(85.0);
            let cold = [55.0, 30.0].map(|temp| (temp, m_err_at(temp)));
            for (i, &d_pre) in pre_sweep.iter().enumerate() {
                for (temp_c, m_err) in &cold {
                    out.push(Fig10Cell {
                        temp_c: *temp_c,
                        pec,
                        months,
                        d_pre,
                        extra_errors: m_err[i] - hot[i],
                    });
                }
            }
        }
    }
    platform.set_temperature(85.0);
    out
}

// ---- Fig. 11 ---------------------------------------------------------------

/// One Fig. 11 cell: the minimum safe tPRE per operating condition.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fig11Cell {
    /// P/E-cycle count.
    pub pec: f64,
    /// Retention age (months).
    pub months: f64,
    /// Largest tPRE reduction that keeps M_ERR + 14-bit margin within the
    /// ECC capability (profiled at 85 °C like the paper).
    pub safe_reduction: f64,
    /// Measured M_ERR at that reduction.
    pub m_err_at_reduction: u32,
}

/// Measures Fig. 11: the per-condition minimum tPRE with the 14-bit safety
/// margin (7 temperature + 7 outlier bits), capped at the 54 % profiling
/// maximum.
pub fn fig11(platform: &mut TestPlatform, per_chip: usize) -> Vec<Fig11Cell> {
    platform.set_temperature(85.0);
    let pages = platform.sample_pages(per_chip);
    let mut out = Vec::new();
    for &pec in &PEC_SWEEP {
        for &months in &RETENTION_SWEEP {
            let (safe_reduction, m_err_at_reduction) =
                max_safe_reduction(platform, &pages, pec, months);
            out.push(Fig11Cell {
                pec,
                months,
                safe_reduction,
                m_err_at_reduction,
            });
        }
    }
    out
}

/// The measured-profile safety search shared by Fig. 11 and the RPT builder.
pub fn max_safe_reduction(
    platform: &TestPlatform,
    pages: &[TestPage],
    pec: f64,
    months: f64,
) -> (f64, u32) {
    let sweep = platform.page_sweep(pages, pec, months);
    let mut best = (0.0, sweep.m_err(&SensePhases::table1()));
    let mut x = 0.02f64;
    while x <= TPRE_MAX_PROFILED_REDUCTION + 1e-9 {
        let m = sweep.m_err(&SensePhases::table1().with_reduction(x, 0.0, 0.0));
        if m + RPT_SAFETY_MARGIN_BITS <= ECC_CAPABILITY_PER_KIB {
            best = (x, m);
        }
        x += 0.02;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform() -> TestPlatform {
        TestPlatform::new(8, 21)
    }

    #[test]
    fn fig5_reproduces_paper_observations() {
        let p = platform();
        let cells = fig5(&p, 300);
        let cell = |pec: f64, months: f64| {
            cells
                .iter()
                .find(|c| c.pec == pec && c.months == months)
                .expect("cell in sweep")
        };
        // Fresh pages never retry.
        assert_eq!(cell(0.0, 0.0).max, 0);
        // (0, 3 mo): every read needs more than three steps.
        assert!(cell(0.0, 3.0).min > 3);
        // (0, 6 mo): ~54 % of reads need ≥ 7 steps.
        let frac7 = cell(0.0, 6.0).hist.fraction_at_least(7);
        assert!((0.46..=0.62).contains(&frac7), "P(≥7) = {frac7}");
        // (1K, 3 mo): at least 8 steps.
        assert!(cell(1000.0, 3.0).min >= 8);
        // (2K, 12 mo): mean ≈ 19.9.
        assert!((cell(2000.0, 12.0).mean - 19.9).abs() < 0.6);
    }

    #[test]
    fn fig7_margin_preserved_at_worst_case() {
        let mut p = platform();
        let cells = fig7(&mut p, 300);
        let worst = cells
            .iter()
            .find(|c| c.temp_c == 30.0 && c.pec == 2000.0 && c.months == 12.0)
            .unwrap();
        // Fig. 7: 44.4 % margin at the worst corner (M_ERR = 40).
        assert!(
            (38..=40).contains(&worst.m_err),
            "M_ERR = {} at the worst corner",
            worst.m_err
        );
        assert!(worst.margin >= 32);
        // Monotone in temperature.
        let at85 = cells
            .iter()
            .find(|c| c.temp_c == 85.0 && c.pec == 2000.0 && c.months == 12.0)
            .unwrap();
        assert!(at85.m_err < worst.m_err);
    }

    #[test]
    fn fig8_teval_is_cost_ineffective() {
        let mut p = platform();
        let series = fig8(&mut p, 200);
        // tEVAL at 20 % on a fresh page: ≈ +30 errors (§5.2.1).
        let eval_fresh = series
            .iter()
            .find(|s| s.param == TimingParam::Eval && s.pec == 0.0 && s.months == 0.0)
            .unwrap();
        let at20 = eval_fresh.points.iter().find(|(x, _)| *x == 0.2).unwrap().1;
        assert!((25..=35).contains(&at20), "ΔM_ERR(tEVAL 20 %) = {at20}");
        // tPRE at 40 % stays safe even at (2K, 12 mo).
        let pre_worst = series
            .iter()
            .find(|s| s.param == TimingParam::Pre && s.pec == 2000.0 && s.months == 12.0)
            .unwrap();
        let base = 35i64;
        let at40 = pre_worst.points.iter().find(|(x, _)| *x == 0.4).unwrap().1;
        assert!(base + at40 <= 72, "tPRE 40 % must stay within capability");
    }

    #[test]
    fn fig9_joint_reduction_blows_capability() {
        let mut p = platform();
        let cells = fig9(&mut p, 150);
        // (1K, 0): ⟨54 %, 20 %⟩ goes far beyond the 72-bit capability.
        let joint = cells
            .iter()
            .find(|c| c.pec == 1000.0 && c.months == 0.0 && c.d_pre == 0.54 && c.d_disch == 0.2)
            .unwrap();
        assert!(joint.m_err > 80, "joint M_ERR = {}", joint.m_err);
        // Individually, ⟨54 %, 0⟩ stays below it at that condition.
        let solo = cells
            .iter()
            .find(|c| c.pec == 1000.0 && c.months == 0.0 && c.d_pre == 0.54 && c.d_disch == 0.0)
            .unwrap();
        assert!(solo.m_err <= 72, "solo M_ERR = {}", solo.m_err);
    }

    #[test]
    fn fig10_temperature_extra_is_small() {
        let mut p = platform();
        let cells = fig10(&mut p, 150);
        for c in &cells {
            // §5.2.3: ≤ 7 extra errors in the profiled reduction range; the
            // out-of-envelope 54 % point may exceed it slightly.
            let bound = if c.d_pre <= 0.47 { 7 } else { 9 };
            assert!(
                c.extra_errors <= bound,
                "temperature extra {} too large at ({}, {}, {}%)",
                c.extra_errors,
                c.pec,
                c.months,
                c.d_pre * 100.0
            );
        }
        // The worst case (30 °C, 2K, 12 mo, 47 %) is ≤ 7 extra errors + the
        // ±5 M_ERR offset; the ΔM_ERR-specific part stays ≤ 7 (§5.2.3).
        let worst = cells
            .iter()
            .filter(|c| c.temp_c == 30.0 && c.pec == 2000.0 && c.months == 12.0)
            .map(|c| c.extra_errors)
            .max()
            .unwrap();
        assert!(worst >= 5, "cold runs must show extra errors, got {worst}");
    }

    #[test]
    fn fig11_range_40_to_54_pct() {
        let mut p = platform();
        let cells = fig11(&mut p, 200);
        for c in &cells {
            assert!(
                c.safe_reduction >= 0.38,
                "safe reduction {} at ({}, {})",
                c.safe_reduction,
                c.pec,
                c.months
            );
            assert!(c.safe_reduction <= 0.54 + 1e-9);
            assert!(c.m_err_at_reduction + RPT_SAFETY_MARGIN_BITS <= ECC_CAPABILITY_PER_KIB);
        }
        let best = cells
            .iter()
            .find(|c| c.pec == 0.0 && c.months == 0.0)
            .unwrap();
        assert!(best.safe_reduction >= 0.52, "fresh blocks allow ≈ 54 %");
    }

    #[test]
    fn fig4b_shows_error_collapse() {
        let p = TestPlatform::new(32, 5);
        let series = fig4b(&p, 2000.0, 12.0, &[16, 21], 3);
        assert!(!series.is_empty(), "16/21-step pages exist at (2K, 12 mo)");
        for s in &series {
            // Fig. 4b: errors collapse below the capability only at the
            // final step, from hundreds a few steps earlier.
            let final_errors = s.errors_by_distance[0].1;
            assert!(final_errors <= 72);
            let three_out = s.errors_by_distance[3].1;
            assert!(three_out > 250, "N−3 errors = {three_out}");
        }
    }
}
