//! Per-page deterministic error behaviour, layered on the [`Calibration`].
//!
//! The paper's MQSim extension (§7.1) maps every simulated block to a real
//! characterized block so that "a simulated block can accurately emulate the
//! same read-retry behavior as the corresponding real block for every read".
//! We reproduce that by deriving, for every (chip, block, page), *stationary*
//! pseudo-random process variation from a hash of its address — the same page
//! under the same operating condition always behaves identically, within and
//! across simulation runs.
//!
//! Three quantities drive everything the mechanisms can observe:
//!
//! 1. [`ErrorModel::required_step_index`] — the retry-table index whose V_REF
//!    values first bring the page below the ECC capability (0 ⇒ the initial
//!    read succeeds; N ⇒ N retry steps after the failed initial read).
//! 2. [`ErrorModel::final_step_errors`] — raw bit errors per worst 1-KiB
//!    codeword in that final, successful step (the quantity whose population
//!    max is Fig. 7's M_ERR).
//! 3. [`ErrorModel::errors_at_step`] — raw bit errors when the page is read
//!    at an arbitrary step with arbitrary sensing timings (Figs. 4b, 8–11).
//!
//! A simulated read derives its [`PageReadProfile`] once and then evaluates
//! each sense through [`ErrorModel::errors_with_profile`], with the
//! [`ErrorModel::timing_penalty`] of the installed sensing timings;
//! `errors_at_step` is exactly that composition.

use crate::calibration::{
    Calibration, OperatingCondition, ECC_CAPABILITY_PER_KIB, MAX_RETRY_STEPS,
};
use crate::retry_table::RetryTable;
use crate::timing::SensePhases;
use rr_util::rng::{mix64, unit_hash};
use serde::{Deserialize, Serialize};

/// Stationary identity of a page for the error model: which chip, block and
/// page it is. Keys must be unique per physical page across the whole SSD
/// (the sim crate builds them from channel/chip/die/plane/block/page).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PageId {
    /// Unique key of the containing block across the SSD.
    pub block_key: u64,
    /// Page index within the block.
    pub page_in_block: u32,
}

impl PageId {
    /// Creates a page identity.
    pub const fn new(block_key: u64, page_in_block: u32) -> Self {
        Self {
            block_key,
            page_in_block,
        }
    }

    fn page_key(&self) -> u64 {
        mix64(self.block_key, self.page_in_block as u64 + 1)
    }
}

/// Everything a read-retry mechanism can learn about one page read under one
/// operating condition, computed once per flash read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageReadProfile {
    /// Retry-table index of the first successful read (0 ⇒ no retry needed).
    pub required_step: u32,
    /// Raw bit errors per worst codeword at the final (successful) step with
    /// default timings.
    pub final_errors: u32,
    /// Whether this page is an injected outlier (exceeds the population
    /// M_ERR; see [`ErrorModel::with_outlier_rate`]).
    pub outlier: bool,
}

impl PageReadProfile {
    /// Number of retry steps a regular read-retry performs (Eq. 3's N_RR).
    pub fn n_rr(&self) -> u32 {
        self.required_step
    }

    /// ECC-capability margin in the final step (footnote 5 of the paper).
    pub fn ecc_margin(&self) -> u32 {
        ECC_CAPABILITY_PER_KIB.saturating_sub(self.final_errors)
    }
}

/// The calibrated, deterministic per-page error model.
///
/// # Example
///
/// ```
/// use rr_flash::error_model::{ErrorModel, PageId};
/// use rr_flash::calibration::OperatingCondition;
///
/// let model = ErrorModel::new(42);
/// let cond = OperatingCondition::new(2000.0, 12.0, 30.0);
/// let profile = model.page_profile(PageId::new(7, 3), cond);
/// // An aged page needs many retry steps (Fig. 5: mean 19.9 at this point).
/// assert!(profile.required_step > 10);
/// // ...but once the final step is reached, errors fit within the ECC
/// // capability with a large margin (Fig. 7).
/// assert!(profile.final_errors <= 72);
/// ```
#[derive(Debug, Clone)]
pub struct ErrorModel {
    seed: u64,
    cal: Calibration,
    retry_table: RetryTable,
    outlier_rate: f64,
}

/// The replay-relevant state of an [`ErrorModel`], as carried by a device
/// image: the inputs of the stationary per-page hash. See
/// [`ErrorModel::capture`] for why this is the *whole* state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelState {
    /// Seed of the per-page process-variation hash.
    pub seed: u64,
    /// Probability that a page is an error outlier.
    pub outlier_rate: f64,
}

/// Fraction of block-level (vs. page-level) process variation in the retry
/// step count; blocks differ from each other, and pages within a block differ
/// less (the paper randomly samples 120 blocks per chip for this reason).
const BLOCK_NOISE_WEIGHT: f64 = 0.55;
const PAGE_NOISE_WEIGHT: f64 = 0.83;

/// Extra errors an injected outlier page exhibits beyond its nominal final
/// step errors (stays within ECC capability at default timings — outliers in
/// the paper only fail when timing is reduced, §6.2).
const OUTLIER_EXTRA_ERRORS: u32 = 20;

/// How far past the required step the near-optimal V_REF plateau extends:
/// reading with a slightly "too late" retry entry still succeeds, which is
/// what lets PSO start a few steps early/late without restarting from zero.
const OVERSHOOT_TOLERANCE: u32 = 3;

impl ErrorModel {
    /// Creates a model for one chip population with the paper's calibration.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            cal: Calibration::asplos21(),
            retry_table: RetryTable::asplos21(),
            outlier_rate: 0.0,
        }
    }

    /// Sets the probability that a page is an "outlier" whose final-step RBER
    /// exceeds the population M_ERR. The paper observed none across 10⁷ pages
    /// (§6.2), so the default is 0; failure-injection tests raise it to
    /// exercise AR²'s fallback-to-default-timings path.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not within `[0, 1]`.
    pub fn with_outlier_rate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "outlier rate must be in [0, 1]"
        );
        self.outlier_rate = rate;
        self
    }

    /// The underlying calibration.
    pub fn calibration(&self) -> &Calibration {
        &self.cal
    }

    /// The manufacturer retry table this model assumes.
    pub fn retry_table(&self) -> &RetryTable {
        &self.retry_table
    }

    /// The model seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Snapshots the model's replay-relevant state.
    ///
    /// The model is **stationary**: every observable quantity is a pure hash
    /// of `(seed, page, condition)`. A device image therefore carries only
    /// the inputs of that hash — seed and outlier rate — and a restored
    /// model re-derives identical behaviour from the first read onwards.
    pub fn capture(&self) -> ModelState {
        ModelState {
            seed: self.seed,
            outlier_rate: self.outlier_rate,
        }
    }

    /// Restores a captured state.
    ///
    /// # Errors
    ///
    /// Rejects an out-of-range outlier rate — a decoded image must never
    /// panic its way into a model.
    pub fn restore(&mut self, state: ModelState) -> Result<(), String> {
        if !(0.0..=1.0).contains(&state.outlier_rate) {
            return Err(format!(
                "image outlier rate {} must be in [0, 1]",
                state.outlier_rate
            ));
        }
        self.seed = state.seed;
        self.outlier_rate = state.outlier_rate;
        Ok(())
    }

    /// A standard-normal-ish variate in `[-2, 2]`, stationary per key.
    fn stationary_z(&self, key: u64, salt: u64) -> f64 {
        // Box–Muller from two stationary uniforms, truncated to ±2 by
        // folding (keeps the value deterministic without rejection loops).
        let u1 = unit_hash(self.seed, key, salt, 0x5eed).max(1e-12);
        let u2 = unit_hash(self.seed, key, salt, 0xfeed);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        // Fold the tails back inside ±2 (|z| ≤ 4 covers essentially all mass).
        let z = z.clamp(-4.0, 4.0);
        if z > 2.0 {
            4.0 - z
        } else if z < -2.0 {
            -4.0 - z
        } else {
            z
        }
    }

    /// A stationary uniform in `[0, 1)` per key.
    fn stationary_u(&self, key: u64, salt: u64) -> f64 {
        unit_hash(self.seed, key, salt, 0xcafe)
    }

    /// Retry-table index of the first read that succeeds for this page
    /// (0 = the initial read; Fig. 5 when aggregated over pages).
    pub fn required_step_index(&self, page: PageId, cond: OperatingCondition) -> u32 {
        let mean = self.cal.mean_retry_steps(cond);
        if mean <= 0.05 {
            return 0;
        }
        let zb = self.stationary_z(page.block_key, 0xb10c);
        let zp = self.stationary_z(page.page_key(), 0x9a9e);
        let z = (BLOCK_NOISE_WEIGHT * zb + PAGE_NOISE_WEIGHT * zp).clamp(-2.0, 2.0);
        let sigma = 0.5 + 0.08 * mean;
        round_u32(mean + z * sigma).min(MAX_RETRY_STEPS)
    }

    /// Whether this page is an injected outlier.
    pub fn is_outlier(&self, page: PageId) -> bool {
        self.outlier_rate > 0.0 && self.stationary_u(page.page_key(), 0x0017) < self.outlier_rate
    }

    /// Raw bit errors per worst 1-KiB codeword at the final (successful) retry
    /// step, with default timings. The population max of this quantity is
    /// Fig. 7's M_ERR; individual pages sit below it.
    pub fn final_step_errors(&self, page: PageId, cond: OperatingCondition) -> u32 {
        let m_err = self.cal.m_err(cond);
        let u = self.stationary_u(page.page_key(), 0xe44);
        // Per-page spread: [0.5·M_ERR, M_ERR], right-skewed so the max is
        // actually attained by some pages (charact sweeps recover M_ERR).
        let e = m_err * (0.5 + 0.5 * u * u.sqrt());
        let mut errors = round_u32(e);
        if self.is_outlier(page) {
            errors += OUTLIER_EXTRA_ERRORS;
        }
        errors
    }

    /// The full per-read profile, derived from the stationary hashes.
    pub fn page_profile(&self, page: PageId, cond: OperatingCondition) -> PageReadProfile {
        PageReadProfile {
            required_step: self.required_step_index(page, cond),
            final_errors: self.final_step_errors(page, cond),
            outlier: self.is_outlier(page),
        }
    }

    /// The page's share of the population-max timing penalty, in
    /// `[0.6, 1.0]`: the max is attained by the worst pages, which is what
    /// the 14-bit RPT margin is sized against. On the near-optimal plateau,
    /// [`Self::errors_at_step`] is exactly
    /// `round(final_errors + delta_m_err(cond, …) · factor)`
    /// (see [`Self::timing_penalty`]).
    #[inline]
    pub fn timing_penalty_factor(&self, page: PageId) -> f64 {
        0.6 + 0.4 * self.stationary_u(page.page_key(), 0xde17a)
    }

    /// Extra raw bit errors this page shows when sensed with `phases`
    /// instead of the Table-1 defaults under `cond`: the population-max
    /// penalty scaled by [`Self::timing_penalty_factor`], and exactly 0 at
    /// default timings. It does not depend on the retry step, so a read
    /// computes it once per installed phase set.
    pub fn timing_penalty(
        &self,
        page: PageId,
        cond: OperatingCondition,
        phases: &SensePhases,
    ) -> f64 {
        let default = SensePhases::table1();
        let pre = default.pre_reduction_vs(phases);
        let eval = default.eval_reduction_vs(phases);
        let disch = default.disch_reduction_vs(phases);
        if pre == 0.0 && eval == 0.0 && disch == 0.0 {
            0.0
        } else {
            self.cal.delta_m_err(cond, pre, eval, disch) * self.timing_penalty_factor(page)
        }
    }

    /// Raw bit errors per worst codeword when reading `page` at retry-table
    /// index `step` with sensing phases `phases` (defaults = Table 1).
    ///
    /// * For `step < required_step`, the V_REF values are too far from V_OPT
    ///   and errors grow quadratically with the distance (Fig. 4b): these
    ///   steps fail at default timings *and* at reduced timings — the paper's
    ///   argument for why AR² may shorten them freely.
    /// * For `required_step <= step <= required_step + tolerance`, the page is
    ///   on the near-optimal plateau and errors are [`Self::final_step_errors`]
    ///   plus the timing penalty.
    /// * Past the plateau the V_REF has overshot and errors grow again.
    pub fn errors_at_step(
        &self,
        page: PageId,
        cond: OperatingCondition,
        step: u32,
        phases: &SensePhases,
    ) -> u32 {
        let profile = self.page_profile(page, cond);
        self.errors_with_profile(
            page,
            &profile,
            step,
            self.timing_penalty(page, cond, phases),
        )
    }

    /// [`Self::errors_at_step`] for a read that already holds its
    /// `profile` ([`Self::page_profile`] of the same page and condition) and
    /// the `penalty` ([`Self::timing_penalty`]) of its sensing timings.
    pub fn errors_with_profile(
        &self,
        page: PageId,
        profile: &PageReadProfile,
        step: u32,
        penalty: f64,
    ) -> u32 {
        let jitter = || 0.9 + 0.2 * self.stationary_u(page.page_key(), 0x57e9 ^ step as u64);
        round_u32(base_errors(profile, step, jitter) + penalty)
    }

    /// [`Self::errors_with_profile`] when it is at most `capability`, else
    /// `None` — all an ECC decoder of that capability needs to know. The
    /// smallest jitter (0.9) first bounds the count below without the
    /// per-step hash: every operation of the formula is monotone in the
    /// jitter, so a bound above `capability` proves the count is too.
    pub fn errors_within(
        &self,
        page: PageId,
        profile: &PageReadProfile,
        step: u32,
        penalty: f64,
        capability: u32,
    ) -> Option<u32> {
        if round_u32(base_errors(profile, step, || 0.9) + penalty) > capability {
            return None;
        }
        let errors = self.errors_with_profile(page, profile, step, penalty);
        (errors <= capability).then_some(errors)
    }

    /// Convenience: does a read of `page` at `step` with `phases` succeed
    /// (errors within ECC capability)?
    pub fn read_succeeds(
        &self,
        page: PageId,
        cond: OperatingCondition,
        step: u32,
        phases: &SensePhases,
    ) -> bool {
        self.errors_at_step(page, cond, step, phases) <= ECC_CAPABILITY_PER_KIB
    }
}

/// `x.round() as u32` without the libm call, and without a branch on the
/// fraction. The cast truncates and saturates like `as u32` (NaN and
/// negatives give 0); below 2³² the fraction `x - t` is exact, so comparing
/// it with 0.5 rounds halves away from zero, and the carry saturates at
/// `u32::MAX`.
#[inline]
pub fn round_u32(x: f64) -> u32 {
    let t = x as u32;
    t.saturating_add(u32::from(x - f64::from(t) >= 0.5))
}

/// Raw bit errors at `step` before the timing penalty; `jitter` (in
/// `[0.9, 1.1)`) is drawn only off the near-optimal plateau.
fn base_errors(profile: &PageReadProfile, step: u32, jitter: impl FnOnce() -> f64) -> f64 {
    let required = profile.required_step;
    let final_errors = profile.final_errors as f64;
    if step >= required && step <= required + OVERSHOOT_TOLERANCE {
        return final_errors;
    }
    // Distance from the near-optimal plateau, in retry-table entries.
    let d = if step < required {
        (required - step) as f64
    } else {
        (step - required - OVERSHOOT_TOLERANCE) as f64
    };
    // Fig. 4b: errors collapse from ~500+/KiB three steps out to below the
    // 72-bit capability at the final step. Quadratic growth with a floor just
    // above the capability so steps short of `required` always fail.
    let above_capability = (ECC_CAPABILITY_PER_KIB as f64 + 1.0).max(final_errors);
    above_capability + (40.0 * d + 45.0 * d * d) * jitter()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_util::stats::Histogram;

    fn model() -> ErrorModel {
        ErrorModel::new(0xA5)
    }

    fn cond(pec: f64, months: f64) -> OperatingCondition {
        OperatingCondition::new(pec, months, 30.0)
    }

    fn sample_pages(n: u64) -> impl Iterator<Item = PageId> {
        (0..n).map(|i| PageId::new(i / 64, (i % 64) as u32))
    }

    #[test]
    fn deterministic_per_page() {
        let m = model();
        let p = PageId::new(123, 45);
        let c = cond(1000.0, 6.0);
        assert_eq!(m.required_step_index(p, c), m.required_step_index(p, c));
        assert_eq!(m.final_step_errors(p, c), m.final_step_errors(p, c));
    }

    #[test]
    fn fresh_pages_never_retry() {
        let m = model();
        for p in sample_pages(2000) {
            assert_eq!(m.required_step_index(p, cond(0.0, 0.0)), 0);
        }
    }

    #[test]
    fn fig5_every_read_exceeds_3_steps_at_3mo() {
        // §3.1: at (0 PEC, 3 months) every read needs > 3 retry steps.
        let m = model();
        for p in sample_pages(5000) {
            let steps = m.required_step_index(p, cond(0.0, 3.0));
            assert!(steps > 3, "page {p:?} needed only {steps} steps");
        }
    }

    #[test]
    fn fig5_54pct_at_least_7_steps_at_6mo() {
        // §3.1: 54.4 % of reads incur ≥ 7 retry steps at (0 PEC, 6 months).
        let m = model();
        let mut h = Histogram::new(64);
        for p in sample_pages(20_000) {
            h.record(m.required_step_index(p, cond(0.0, 6.0)) as usize);
        }
        let frac = h.fraction_at_least(7);
        assert!(
            (0.48..=0.60).contains(&frac),
            "fraction ≥ 7 steps = {frac}, expected ≈ 0.544"
        );
    }

    #[test]
    fn fig5_min_8_steps_at_1k_3mo() {
        // §3.1: at 1K P/E cycles, ≥ 8 retry steps after a 3-month age.
        let m = model();
        for p in sample_pages(5000) {
            let steps = m.required_step_index(p, cond(1000.0, 3.0));
            assert!(steps >= 8, "page {p:?} needed only {steps} steps");
        }
    }

    #[test]
    fn fig5_mean_19_9_at_2k_12mo() {
        let m = model();
        let mut h = Histogram::new(64);
        for p in sample_pages(20_000) {
            h.record(m.required_step_index(p, cond(2000.0, 12.0)) as usize);
        }
        let mean = h.mean();
        assert!(
            (mean - 19.9).abs() < 0.5,
            "mean steps = {mean}, expected ≈ 19.9"
        );
        // Fig. 4b shows pages needing 16 and 21 steps under aged conditions.
        assert!(h.count(16) > 0 && h.count(21) > 0);
    }

    #[test]
    fn final_errors_bounded_by_m_err_population() {
        let m = model();
        let c = cond(2000.0, 12.0);
        let m_err = m.calibration().m_err(c);
        let mut max_seen = 0;
        for p in sample_pages(20_000) {
            let e = m.final_step_errors(p, c);
            assert!(
                e as f64 <= m_err + 0.5,
                "page errors {e} exceed M_ERR {m_err}"
            );
            max_seen = max_seen.max(e);
        }
        // The spread should actually reach near the population max.
        assert!(
            max_seen as f64 >= m_err - 2.0,
            "max seen {max_seen} vs M_ERR {m_err}"
        );
        // And every page still fits in the ECC capability at default timings.
        assert!(max_seen <= ECC_CAPABILITY_PER_KIB);
    }

    #[test]
    fn fig4b_error_collapse_shape() {
        let m = model();
        let c = cond(2000.0, 12.0);
        let dflt = SensePhases::table1();
        // Find a page needing 16+ steps.
        let page = sample_pages(5000)
            .find(|&p| m.required_step_index(p, c) >= 16)
            .expect("aged condition must produce deep retries");
        let n = m.required_step_index(page, c);
        let at = |s: u32| m.errors_at_step(page, c, s, &dflt);
        // Final step succeeds; previous steps fail with growing error counts.
        assert!(at(n) <= ECC_CAPABILITY_PER_KIB);
        assert!(at(n - 1) > ECC_CAPABILITY_PER_KIB);
        assert!(at(n - 1) < at(n - 2));
        assert!(at(n - 2) < at(n - 3));
        // Fig. 4b: roughly 400–700 errors three steps before the final one.
        let three_out = at(n - 3);
        assert!(
            (250..=800).contains(&three_out),
            "errors at N-3 = {three_out}, expected hundreds"
        );
    }

    #[test]
    fn earlier_steps_fail_even_with_default_timing() {
        let m = model();
        let c = cond(1000.0, 6.0);
        let dflt = SensePhases::table1();
        for p in sample_pages(300) {
            let n = m.required_step_index(p, c);
            for s in 0..n {
                assert!(
                    !m.read_succeeds(p, c, s, &dflt),
                    "step {s} of {n} succeeded"
                );
            }
            assert!(m.read_succeeds(p, c, n, &dflt));
        }
    }

    #[test]
    fn reduced_tpre_40pct_preserves_final_step_success() {
        // §5.2/6.2: with the RPT-chosen reduction the final step still
        // succeeds for all (non-outlier) pages, at any temperature.
        let m = model();
        let reduced = SensePhases::table1().with_reduction(0.40, 0.0, 0.0);
        for temp in [30.0, 55.0, 85.0] {
            let c = OperatingCondition::new(2000.0, 12.0, temp);
            for p in sample_pages(3000) {
                let n = m.required_step_index(p, c);
                assert!(
                    m.read_succeeds(p, c, n, &reduced),
                    "final step failed with reduced tPRE at {temp}°C for {p:?}"
                );
            }
        }
    }

    #[test]
    fn excessive_tpre_reduction_fails_reads() {
        let m = model();
        let broken = SensePhases::table1().with_reduction(0.58, 0.0, 0.0);
        let c = cond(0.0, 0.0);
        let p = PageId::new(1, 1);
        assert!(!m.read_succeeds(p, c, 0, &broken));
    }

    #[test]
    fn outlier_injection_exceeds_population_max() {
        let m = ErrorModel::new(0xA5).with_outlier_rate(1.0);
        let c = cond(2000.0, 12.0);
        let p = PageId::new(9, 9);
        assert!(m.is_outlier(p));
        let base = ErrorModel::new(0xA5).final_step_errors(p, c);
        assert_eq!(m.final_step_errors(p, c), base + OUTLIER_EXTRA_ERRORS);
        // Outliers still succeed at default timings...
        assert!(m.read_succeeds(p, c, m.required_step_index(p, c), &SensePhases::table1()));
    }

    #[test]
    fn overshoot_plateau_then_failure() {
        let m = model();
        let c = cond(1000.0, 6.0);
        let dflt = SensePhases::table1();
        let p = sample_pages(1000)
            .find(|&p| m.required_step_index(p, c) >= 5)
            .unwrap();
        let n = m.required_step_index(p, c);
        // Near-optimal plateau: a few steps past N still succeed.
        for s in n..=n + OVERSHOOT_TOLERANCE {
            assert!(m.read_succeeds(p, c, s, &dflt));
        }
        // Far past the plateau, V_REF has overshot and the read fails again.
        assert!(!m.read_succeeds(p, c, n + OVERSHOOT_TOLERANCE + 2, &dflt));
    }

    #[test]
    fn profile_matches_parts() {
        let m = model();
        let c = cond(1000.0, 3.0);
        let p = PageId::new(4, 2);
        let prof = m.page_profile(p, c);
        assert_eq!(prof.required_step, m.required_step_index(p, c));
        assert_eq!(prof.final_errors, m.final_step_errors(p, c));
        assert_eq!(prof.n_rr(), prof.required_step);
        assert_eq!(prof.ecc_margin(), 72 - prof.final_errors);
    }

    #[test]
    fn penalty_factor_reproduces_errors_at_the_required_step() {
        let m = ErrorModel::new(0x5A).with_outlier_rate(0.05);
        let default = SensePhases::table1();
        let reductions = [
            (0.0, 0.0, 0.0),
            (0.3, 0.0, 0.0),
            (0.54, 0.0, 0.0),
            (0.58, 0.0, 0.0),
            (0.0, 0.2, 0.0),
            (0.4, 0.0, 0.2),
        ];
        let mut outliers = 0;
        for c in [cond(0.0, 0.0), cond(1000.0, 6.0), cond(2000.0, 12.0)] {
            for p in sample_pages(400) {
                let step = m.required_step_index(p, c);
                let final_errors = m.final_step_errors(p, c) as f64;
                outliers += usize::from(m.is_outlier(p));
                for (pre, eval, disch) in reductions {
                    let phases = default.with_reduction(pre, eval, disch);
                    let measured = (
                        default.pre_reduction_vs(&phases),
                        default.eval_reduction_vs(&phases),
                        default.disch_reduction_vs(&phases),
                    );
                    let penalty = if measured == (0.0, 0.0, 0.0) {
                        0.0
                    } else {
                        let (pre, eval, disch) = measured;
                        m.calibration().delta_m_err(c, pre, eval, disch)
                            * m.timing_penalty_factor(p)
                    };
                    assert_eq!(m.timing_penalty(p, c, &phases), penalty);
                    assert_eq!(
                        m.errors_at_step(p, c, step, &phases),
                        (final_errors + penalty).round() as u32,
                        "page {p:?}, reductions ({pre}, {eval}, {disch})"
                    );
                }
            }
        }
        assert!(outliers > 0, "the sample must contain outlier pages");
    }

    #[test]
    fn outlier_rate_change_reaches_profiles_of_the_rebuilt_model() {
        let model = ErrorModel::new(0xA5);
        let c = cond(2000.0, 12.0);
        let p = PageId::new(9, 9);
        let before = model.page_profile(p, c);
        // Rebuilding with an outlier rate must change the derived profile.
        let outliers = model.with_outlier_rate(1.0);
        let after = outliers.page_profile(p, c);
        assert!(after.outlier);
        assert_eq!(
            after.final_errors,
            before.final_errors + OUTLIER_EXTRA_ERRORS
        );
    }

    #[test]
    fn capture_restore_reproduces_the_population_exactly() {
        let source = ErrorModel::new(0xBEEF).with_outlier_rate(0.25);
        let c = cond(2000.0, 12.0);
        let state = source.capture();
        let mut target = ErrorModel::new(1).with_outlier_rate(0.9);
        target.restore(state).unwrap();
        for p in sample_pages(200) {
            assert_eq!(source.page_profile(p, c), target.page_profile(p, c));
        }
    }

    #[test]
    fn restore_rejects_out_of_range_outlier_rate() {
        let mut model = ErrorModel::new(7);
        let err = model
            .restore(ModelState {
                seed: 7,
                outlier_rate: 1.5,
            })
            .unwrap_err();
        assert!(err.contains("outlier rate"), "{err}");
        // The model is untouched by the failed restore.
        assert_eq!(model.capture().outlier_rate, 0.0);
    }

    #[test]
    fn different_seeds_give_different_populations() {
        let a = ErrorModel::new(1);
        let b = ErrorModel::new(2);
        let c = cond(1000.0, 6.0);
        let diff = sample_pages(200)
            .filter(|&p| a.required_step_index(p, c) != b.required_step_index(p, c))
            .count();
        assert!(diff > 20, "only {diff}/200 pages differ between seeds");
    }
}
