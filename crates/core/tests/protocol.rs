//! Protocol-conformance harness: drives every retry mechanism through an
//! abstract (timing-free) flash protocol against a synthetic page oracle and
//! checks the contract every [`RetryController`] must honour:
//!
//! * the read always terminates (Complete, never a stuck state);
//! * it completes *successfully* whenever some reachable step succeeds;
//! * `Transfer { step }` only references steps that were sensed;
//! * `SET FEATURE` installations are balanced by rollbacks at completion
//!   (the die must never be left with stale reduced timing);
//! * `Reset` is only issued while the mechanism has speculation in flight;
//! * no callback returns more than [`Actions::CAPACITY`] actions.
//!
//! This complements the full event simulator: here the *ordering freedom* of
//! the protocol is explored (decodes delivered with arbitrary lag behind
//! senses), which wall-clock simulation only exercises at specific timings.

use proptest::prelude::*;
use rr_core::extensions::{EagerPnAr2Controller, ExpectedStepsTable, RegularAr2Controller};
use rr_core::mechanisms::{Ar2Controller, PnAr2Controller, Pr2Controller};
use rr_core::pso::PsoController;
use rr_core::rpt::ReadTimingParamTable;
use rr_flash::calibration::OperatingCondition;
use rr_sim::readflow::{Actions, BaselineController, ReadAction, ReadContext, RetryController};
use rr_sim::request::TxnId;
use std::collections::VecDeque;

/// The outcome of driving one read through a controller.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Success { step: u32 },
    Failure,
}

/// A callback's response, checked to fit the bounded action list.
fn bounded(actions: Actions) -> Vec<ReadAction> {
    assert!(actions.len() <= Actions::CAPACITY, "{actions:?}");
    actions.to_vec()
}

/// A timing-free protocol driver with a configurable decode lag: decodes for
/// sensed steps are delivered `lag` sensings behind (lag 0 ≈ sequential
/// baseline timing, larger lags ≈ deep pipelining).
fn drive(
    controller: &mut dyn RetryController,
    ctx: &ReadContext,
    required_step: u32,
    plateau: u32,
    lag: usize,
) -> Outcome {
    // Success window mirrors the error model: [required, required+plateau],
    // with reduced timing irrelevant here (the oracle is timing-blind; the
    // event-simulator tests cover timing interactions).
    let succeeds = |step: u32| step >= required_step && step <= required_step + plateau;

    let mut pending_senses: VecDeque<u32> = VecDeque::new(); // queued, unsensed
    let mut sensed: Vec<u32> = Vec::new();
    let mut pending_decodes: VecDeque<u32> = VecDeque::new(); // transferred, undecoded
    let mut feature_installs = 0i64;
    let mut feature_rollbacks = 0i64;
    let mut awaiting_feature = false;
    let mut outcome = None;

    let mut actions: VecDeque<ReadAction> = bounded(controller.on_start(ctx)).into();
    let mut guard = 0;
    while outcome.is_none() {
        guard += 1;
        assert!(guard < 10_000, "protocol did not terminate");
        // Execute all queued actions first.
        if let Some(a) = actions.pop_front() {
            match a {
                ReadAction::Sense { step } => pending_senses.push_back(step),
                ReadAction::Transfer { step } => {
                    assert!(
                        sensed.contains(&step),
                        "transfer of step {step} that was never sensed"
                    );
                    pending_decodes.push_back(step);
                }
                ReadAction::SetFeature { phases } => {
                    if phases.is_some() {
                        feature_installs += 1;
                    } else {
                        feature_rollbacks += 1;
                    }
                    awaiting_feature = true;
                }
                ReadAction::Reset => {
                    // Reset kills any in-flight/queued speculation.
                    pending_senses.clear();
                }
                ReadAction::CompleteSuccess { step } => outcome = Some(Outcome::Success { step }),
                ReadAction::CompleteFailure => outcome = Some(Outcome::Failure),
            }
            continue;
        }
        // Deliver one protocol event, feature completions first (they block
        // the die), then sensings, then (lagged) decodes.
        if awaiting_feature {
            awaiting_feature = false;
            actions.extend(bounded(controller.on_feature_applied(ctx)));
        } else if !pending_senses.is_empty()
            && (pending_decodes.len() <= lag || pending_decodes.is_empty())
        {
            let step = pending_senses.pop_front().expect("non-empty");
            sensed.push(step);
            actions.extend(bounded(controller.on_sense_done(ctx, step)));
        } else if let Some(step) = pending_decodes.pop_front() {
            let ok = succeeds(step);
            let margin = if ok { 30 } else { 0 };
            actions.extend(bounded(controller.on_decode_done(ctx, step, ok, margin)));
        } else if !pending_senses.is_empty() {
            let step = pending_senses.pop_front().expect("non-empty");
            sensed.push(step);
            actions.extend(bounded(controller.on_sense_done(ctx, step)));
        } else {
            panic!("protocol stalled: no actions, no events, no completion");
        }
    }
    // Any installed reduced timing must be rolled back by completion time
    // (counting actions issued up to and including the completing batch).
    // AR2-Regular is exempt: leaving the reduction installed die-wide is its
    // documented design (§8's regular-read extension).
    for a in actions {
        if let ReadAction::SetFeature { phases: None } = a {
            feature_rollbacks += 1;
        }
    }
    assert!(
        controller.name() == "AR2-Regular" || feature_rollbacks >= feature_installs,
        "reduced timing left installed: {feature_installs} installs vs {feature_rollbacks} rollbacks"
    );
    outcome.expect("loop exits only with an outcome")
}

fn controllers() -> Vec<Box<dyn RetryController>> {
    let rpt = ReadTimingParamTable::default();
    vec![
        Box::new(BaselineController::new()),
        Box::new(Pr2Controller::new()),
        Box::new(Ar2Controller::new(rpt.clone())),
        Box::new(PnAr2Controller::new(rpt.clone())),
        Box::new(PsoController::new(BaselineController::new())),
        Box::new(PsoController::new(PnAr2Controller::new(rpt.clone()))),
        Box::new(EagerPnAr2Controller::new(
            rpt.clone(),
            ExpectedStepsTable::default(),
            2.0,
        )),
        Box::new(RegularAr2Controller::new(rpt)),
    ]
}

fn ctx_for(txn: u32, pec: f64, months: f64, max_step: u32) -> ReadContext {
    ReadContext {
        txn: TxnId(txn),
        die: 0,
        condition: OperatingCondition::new(pec, months, 30.0),
        cold: true,
        max_step,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every mechanism completes successfully when a reachable step succeeds,
    /// at any decode lag, and reports a step inside the success window.
    #[test]
    fn all_mechanisms_succeed_on_reachable_pages(
        required in 0u32..38,
        plateau in 0u32..4,
        lag in 0usize..4,
        pec in prop::sample::select(vec![0.0, 1000.0, 2000.0]),
        months in prop::sample::select(vec![0.0, 6.0, 12.0]),
    ) {
        for (i, mut c) in controllers().into_iter().enumerate() {
            let ctx = ctx_for(1000 + i as u32, pec, months, 40);
            let out = drive(c.as_mut(), &ctx, required, plateau, lag);
            match out {
                Outcome::Success { step } => {
                    prop_assert!(
                        step >= required && step <= required + plateau,
                        "{}: succeeded at {step}, window [{required}, {}]",
                        c.name(),
                        required + plateau
                    );
                    c.on_end(&ctx, Some(step));
                }
                Outcome::Failure => {
                    prop_assert!(false, "{} failed a reachable page (N={required})", c.name());
                }
            }
        }
    }

    /// When no step can succeed, every mechanism reports failure (and still
    /// terminates and rolls back timing).
    #[test]
    fn all_mechanisms_fail_cleanly_on_unreadable_pages(
        lag in 0usize..4,
        max_step in 3u32..20,
    ) {
        for (i, mut c) in controllers().into_iter().enumerate() {
            let ctx = ctx_for(2000 + i as u32, 2000.0, 12.0, max_step);
            // required step beyond the table ⇒ nothing succeeds.
            let out = drive(c.as_mut(), &ctx, max_step + 10, 0, lag);
            prop_assert_eq!(out, Outcome::Failure);
            c.on_end(&ctx, None);
        }
    }
}

/// PSO's one-shot fallback replaces the inner mechanism's `CompleteFailure`
/// with its restart: the response stays within the bounded action list, and
/// the fallback walk still finds the page.
#[test]
fn pso_fallback_restart_stays_within_capacity() {
    fn fall_back<C: RetryController>(new: impl Fn() -> PsoController<C>) {
        for lag in 0..4 {
            let mut c = new();
            // Teach the predictor a deep optimum on die 0...
            let teach = ctx_for(1, 2000.0, 12.0, 40);
            assert_eq!(
                drive(&mut c, &teach, 39, 0, lag),
                Outcome::Success { step: 39 }
            );
            c.on_end(&teach, Some(39));
            assert_eq!(c.predictor().predict(0, true), 36);
            // ...so the next read starts past its shallow optimum and only
            // the full-walk fallback can reach it.
            let read = ctx_for(2, 2000.0, 12.0, 40);
            assert_eq!(
                drive(&mut c, &read, 2, 0, lag),
                Outcome::Success { step: 2 }
            );
            c.on_end(&read, Some(2));
        }
    }
    fall_back(|| PsoController::new(BaselineController::new()));
    fall_back(|| PsoController::new(PnAr2Controller::new(ReadTimingParamTable::default())));
}
