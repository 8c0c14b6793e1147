//! PSO — Process-Similarity-aware Optimization (Shim et al., MICRO'19 \[84\]),
//! the state-of-the-art read-retry *reduction* technique the paper compares
//! against and composes with (§7.3, Fig. 15).
//!
//! PSO reuses the V_REF values recently found by read-retry on pages with
//! similar error characteristics: instead of walking the retry table from
//! entry 0, a read starts a few entries *before* the most recent successful
//! entry for its similarity cluster. The paper reports PSO cuts the retry
//! step count by ~70 % but can never eliminate retries — "every read still
//! incurs at least three retry steps in an aged SSD" — because V_OPT drifts
//! and a guard band is required.
//!
//! We implement PSO as a **decorator** over any inner mechanism: it offsets
//! the retry-table indices the inner controller works with, so `PSO`
//! (over the regular baseline) and `PSO+PnAR2` (Fig. 15) fall out of one
//! implementation. Clusters are per (die, thermal-class) — cold
//! (long-retention) and hot (recently written) pages have very different
//! V_OPT and must not share predictions.

use rr_sim::readflow::{Actions, ReadAction, ReadContext, RetryController, TxnTable};
use rr_sim::request::TxnId;
use std::collections::{HashMap, VecDeque};

/// How many retry-table entries before the cluster's recent optimum a read
/// starts — the guard band that makes PSO's "at least three retry steps".
pub const PSO_GUARD_STEPS: u32 = 3;

/// Sliding-window length of remembered successful entries per cluster.
const PSO_WINDOW: usize = 8;

/// The per-cluster V_REF (retry-entry) predictor.
#[derive(Debug)]
pub struct PsoPredictor {
    guard: u32,
    cache: HashMap<(u32, bool), VecDeque<u32>>,
}

impl Default for PsoPredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl PsoPredictor {
    /// Creates an empty predictor (all clusters cold) with the default guard.
    pub fn new() -> Self {
        Self::with_guard(PSO_GUARD_STEPS)
    }

    /// Creates a predictor with an explicit guard band (ablation knob: a
    /// smaller guard means fewer retry steps but more overshoot fallbacks).
    pub fn with_guard(guard: u32) -> Self {
        Self {
            guard,
            cache: HashMap::new(),
        }
    }

    /// The configured guard band.
    pub fn guard(&self) -> u32 {
        self.guard
    }

    /// The retry-table entry a read on `die` with thermal class `cold`
    /// should start from (0 when the cluster has no history).
    pub fn predict(&self, die: u32, cold: bool) -> u32 {
        self.cache
            .get(&(die, cold))
            .and_then(|w| w.iter().min().copied())
            .map(|m| m.saturating_sub(self.guard))
            .unwrap_or(0)
    }

    /// Records the entry at which a read on `die`/`cold` finally succeeded.
    pub fn record(&mut self, die: u32, cold: bool, successful_entry: u32) {
        let w = self.cache.entry((die, cold)).or_default();
        w.push_back(successful_entry);
        if w.len() > PSO_WINDOW {
            w.pop_front();
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct PsoTxn {
    offset: u32,
    fell_back: bool,
}

/// PSO as a decorator over an inner read-retry mechanism.
///
/// All retry-table indices the inner controller sees are *virtual*: physical
/// entry = virtual entry + the cluster-predicted offset. If the shifted walk
/// exhausts the table without success (the prediction overshot V_OPT — rare,
/// because clusters track the minimum of recent optima), PSO falls back to a
/// full walk from entry 0 once.
pub struct PsoController<C> {
    inner: C,
    predictor: PsoPredictor,
    states: TxnTable<PsoTxn>,
    label: String,
}

impl<C: RetryController> PsoController<C> {
    /// Wraps `inner` with PSO prediction.
    pub fn new(inner: C) -> Self {
        Self::with_predictor(inner, PsoPredictor::new())
    }

    /// Wraps `inner` with an explicitly configured predictor (ablations).
    pub fn with_predictor(inner: C, predictor: PsoPredictor) -> Self {
        let label = if inner.name() == "Baseline" {
            "PSO".to_string()
        } else {
            format!("PSO+{}", inner.name())
        };
        Self {
            inner,
            predictor,
            states: TxnTable::new(),
            label,
        }
    }

    /// Read access to the predictor (diagnostics, tests).
    pub fn predictor(&self) -> &PsoPredictor {
        &self.predictor
    }

    fn offset(&self, txn: TxnId) -> u32 {
        self.states.get(txn).map(|s| s.offset).unwrap_or(0)
    }

    fn inner_ctx(&self, ctx: &ReadContext) -> ReadContext {
        let offset = self.offset(ctx.txn);
        ReadContext {
            max_step: ctx.max_step - offset,
            ..*ctx
        }
    }

    /// Maps the inner controller's virtual actions to physical table entries,
    /// intercepting `CompleteFailure` for the one-shot full-walk fallback.
    fn map_actions(&mut self, ctx: &ReadContext, actions: Actions) -> Actions {
        let state = *self
            .states
            .get(ctx.txn)
            .expect("mapping for unknown PSO read");
        let mut out = Actions::new();
        for &a in actions.as_slice() {
            match a {
                ReadAction::Sense { step } => out.push(ReadAction::Sense {
                    step: step + state.offset,
                }),
                ReadAction::Transfer { step } => out.push(ReadAction::Transfer {
                    step: step + state.offset,
                }),
                ReadAction::CompleteSuccess { step } => out.push(ReadAction::CompleteSuccess {
                    step: step + state.offset,
                }),
                ReadAction::CompleteFailure if state.offset > 0 && !state.fell_back => {
                    // The prediction overshot: restart the inner mechanism on
                    // the full table from entry 0.
                    let inner_ctx = self.inner_ctx(ctx);
                    self.inner.on_end(&inner_ctx, None);
                    let s = self.states.get_mut(ctx.txn).expect("state exists");
                    s.offset = 0;
                    s.fell_back = true;
                    let restart = self.inner.on_start(ctx);
                    for &r in restart.as_slice() {
                        out.push(r);
                    }
                }
                other => out.push(other),
            }
        }
        out
    }
}

impl<C: RetryController> RetryController for PsoController<C> {
    fn on_start(&mut self, ctx: &ReadContext) -> Actions {
        let offset = self
            .predictor
            .predict(ctx.die, ctx.cold)
            .min(ctx.max_step.saturating_sub(PSO_GUARD_STEPS));
        self.states.insert(
            ctx.txn,
            PsoTxn {
                offset,
                fell_back: false,
            },
        );
        let inner_ctx = self.inner_ctx(ctx);
        let actions = self.inner.on_start(&inner_ctx);
        self.map_actions(ctx, actions)
    }

    fn on_sense_done(&mut self, ctx: &ReadContext, step: u32) -> Actions {
        let inner_ctx = self.inner_ctx(ctx);
        let v = step - self.offset(ctx.txn);
        let actions = self.inner.on_sense_done(&inner_ctx, v);
        self.map_actions(ctx, actions)
    }

    fn on_decode_done(
        &mut self,
        ctx: &ReadContext,
        step: u32,
        success: bool,
        margin: u32,
    ) -> Actions {
        let inner_ctx = self.inner_ctx(ctx);
        let v = step - self.offset(ctx.txn);
        let actions = self.inner.on_decode_done(&inner_ctx, v, success, margin);
        self.map_actions(ctx, actions)
    }

    fn on_feature_applied(&mut self, ctx: &ReadContext) -> Actions {
        let inner_ctx = self.inner_ctx(ctx);
        let actions = self.inner.on_feature_applied(&inner_ctx);
        self.map_actions(ctx, actions)
    }

    fn on_reset_done(&mut self, ctx: &ReadContext) -> Actions {
        let inner_ctx = self.inner_ctx(ctx);
        let actions = self.inner.on_reset_done(&inner_ctx);
        self.map_actions(ctx, actions)
    }

    fn on_end(&mut self, ctx: &ReadContext, successful_step: Option<u32>) {
        let inner_ctx = self.inner_ctx(ctx);
        let offset = self.offset(ctx.txn);
        if let Some(p) = successful_step {
            self.predictor.record(ctx.die, ctx.cold, p);
        }
        self.inner
            .on_end(&inner_ctx, successful_step.map(|p| p - offset));
        self.states.remove(ctx.txn);
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_flash::calibration::OperatingCondition;
    use rr_sim::readflow::BaselineController;

    fn ctx(txn: u32, die: u32, cold: bool) -> ReadContext {
        ReadContext {
            txn: TxnId(txn),
            die,
            condition: OperatingCondition::new(1000.0, 6.0, 30.0),
            cold,
            max_step: 40,
        }
    }

    #[test]
    fn cold_cache_starts_from_zero() {
        let mut pso = PsoController::new(BaselineController::new());
        assert_eq!(pso.name(), "PSO");
        let x = ctx(1, 0, true);
        assert_eq!(
            pso.on_start(&x).to_vec(),
            vec![ReadAction::Sense { step: 0 }]
        );
    }

    #[test]
    fn warm_cache_skips_ahead_with_guard() {
        let mut pso = PsoController::new(BaselineController::new());
        // Teach the predictor: die 0's cold pages succeed around entry 12.
        let x = ctx(1, 0, true);
        pso.on_start(&x);
        pso.on_end(&x, Some(12));
        // The next cold read on die 0 starts at 12 − guard = 9.
        let y = ctx(2, 0, true);
        assert_eq!(
            pso.on_start(&y).to_vec(),
            vec![ReadAction::Sense { step: 9 }]
        );
        // ...which guarantees at least `guard` retry rounds ("at least three
        // retry steps", §3.1) when the page's optimum matches the cluster's.
    }

    #[test]
    fn clusters_are_per_die_and_thermal_class() {
        let mut p = PsoPredictor::new();
        p.record(0, true, 15);
        assert_eq!(p.predict(0, true), 12);
        assert_eq!(p.predict(0, false), 0, "hot pages have their own cluster");
        assert_eq!(p.predict(1, true), 0, "other dies are unaffected");
    }

    #[test]
    fn predictor_tracks_minimum_of_window() {
        let mut p = PsoPredictor::new();
        for s in [20, 18, 22, 19] {
            p.record(3, true, s);
        }
        assert_eq!(p.predict(3, true), 18 - PSO_GUARD_STEPS);
    }

    #[test]
    fn steps_are_translated_between_virtual_and_physical() {
        let mut pso = PsoController::new(BaselineController::new());
        let x = ctx(1, 0, true);
        pso.on_start(&x);
        pso.on_end(&x, Some(10));
        let y = ctx(2, 0, true);
        assert_eq!(
            pso.on_start(&y).to_vec(),
            vec![ReadAction::Sense { step: 7 }]
        );
        // Physical sense 7 completes; baseline (virtual 0) transfers it.
        assert_eq!(
            pso.on_sense_done(&y, 7).to_vec(),
            vec![ReadAction::Transfer { step: 7 }]
        );
        // Decode failure walks to physical 8.
        assert_eq!(
            pso.on_decode_done(&y, 7, false, 0).to_vec(),
            vec![ReadAction::Sense { step: 8 }]
        );
        // Success at physical 9 completes with the physical index.
        pso.on_sense_done(&y, 8);
        pso.on_decode_done(&y, 8, false, 0);
        pso.on_sense_done(&y, 9);
        assert_eq!(
            pso.on_decode_done(&y, 9, true, 30).to_vec(),
            vec![ReadAction::CompleteSuccess { step: 9 }]
        );
    }

    #[test]
    fn overshoot_falls_back_to_full_walk() {
        let mut pso = PsoController::new(BaselineController::new());
        let x = ctx(1, 0, true);
        pso.on_start(&x);
        pso.on_end(&x, Some(39)); // cluster thinks the optimum is deep
        let y = ctx(2, 0, true);
        let start = match pso.on_start(&y).to_vec()[0] {
            ReadAction::Sense { step } => step,
            ref a => panic!("expected sense, got {a:?}"),
        };
        assert_eq!(start, 36);
        // Walk to the end of the table without success...
        let mut step = start;
        loop {
            pso.on_sense_done(&y, step);
            let acts = pso.on_decode_done(&y, step, false, 0).to_vec();
            match acts.first() {
                Some(&ReadAction::Sense { step: next }) if next > step => step = next,
                // ...the virtual CompleteFailure must convert into a restart
                // from physical entry 0.
                Some(&ReadAction::Sense { step: 0 }) => break,
                other => panic!("unexpected action at step {step}: {other:?}"),
            }
            assert!(step <= 40, "ran past the table");
        }
        // The second exhaustion genuinely fails.
        let mut step = 0;
        loop {
            pso.on_sense_done(&y, step);
            let acts = pso.on_decode_done(&y, step, false, 0).to_vec();
            match acts.first() {
                Some(&ReadAction::Sense { step: next }) => step = next,
                Some(&ReadAction::CompleteFailure) => break,
                other => panic!("unexpected action: {other:?}"),
            }
        }
    }

    #[test]
    fn name_composes_with_inner() {
        let pso = PsoController::new(crate::mechanisms::PnAr2Controller::new(
            crate::rpt::ReadTimingParamTable::default(),
        ));
        assert_eq!(pso.name(), "PSO+PnAR2");
    }
}
