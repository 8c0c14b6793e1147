//! The read-retry policy interface and the regular (baseline) mechanism.
//!
//! The simulator is generic over *how* a read-retry operation is conducted —
//! exactly the degree of freedom the paper's PR²/AR² exploit. A
//! [`RetryController`] is a state machine driven by flash events; it responds
//! with [`ReadAction`]s that the simulator executes against the die, channel,
//! and ECC-decoder resources.
//!
//! This crate ships the [`BaselineController`] (the regular read-retry of
//! Fig. 12(a), used by all prior work the paper compares against); the
//! `rr-core` crate implements PR², AR², PnAR², and the PSO-augmented variants
//! on the same interface.

use crate::request::TxnId;
use rr_flash::calibration::OperatingCondition;
use rr_flash::timing::SensePhases;

/// What the controller wants the simulator to do next for one read.
///
/// Die-occupying actions (`Sense`, `SetFeature`, `Reset`) are executed in
/// order, each starting when the die becomes free; `Transfer` enqueues on the
/// channel immediately; `Complete*` finish the transaction immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadAction {
    /// Sense the page at retry-table index `step` (a `PAGE READ` for the
    /// first sensing, a `CACHE READ` for pipelined follow-ups — the
    /// distinction is timing-neutral; both take tR).
    Sense {
        /// Retry-table index to sense with.
        step: u32,
    },
    /// Issue `SET FEATURE`: `Some` installs reduced sensing phases, `None`
    /// restores the default (AR² steps ② and ④).
    SetFeature {
        /// The phases to install, or `None` to restore defaults.
        phases: Option<SensePhases>,
    },
    /// Transfer the sensed data of `step` over the channel and decode it.
    Transfer {
        /// Which step's data to transfer.
        step: u32,
    },
    /// Issue `RESET`, killing any in-flight sensing on the die (PR² uses this
    /// to cancel the speculatively started extra step).
    Reset,
    /// The read is done: data of `step` decoded successfully.
    CompleteSuccess {
        /// The step whose decode succeeded.
        step: u32,
    },
    /// The read failed: the retry table is exhausted (§2.4 "read failure").
    CompleteFailure,
}

/// A short list of [`ReadAction`]s, stored inline: a plain `Copy` value.
///
/// Controllers emit at most [`Actions::CAPACITY`] actions per flash event —
/// the longest response is PnAR²'s `Reset`, `CompleteSuccess`, `SetFeature`
/// on a successful decode with speculation in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Actions {
    slots: [ReadAction; Self::CAPACITY],
    len: u8,
}

impl Default for Actions {
    fn default() -> Self {
        Self::new()
    }
}

impl Actions {
    /// Most actions one response may hold.
    pub const CAPACITY: usize = 3;

    /// The placeholder filling unused slots (never observed by iteration,
    /// which is bounded by the length).
    const FILL: ReadAction = ReadAction::CompleteFailure;

    /// An empty action list.
    pub const fn new() -> Self {
        Self {
            slots: [Self::FILL; Self::CAPACITY],
            len: 0,
        }
    }

    /// A single-action list.
    pub fn one(a: ReadAction) -> Self {
        let mut s = Self::new();
        s.push(a);
        s
    }

    /// A two-action list.
    pub fn pair(a: ReadAction, b: ReadAction) -> Self {
        let mut s = Self::new();
        s.push(a);
        s.push(b);
        s
    }

    /// Appends an action.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds [`Actions::CAPACITY`] actions — a
    /// controller that emits more per event breaks the interface contract.
    pub fn push(&mut self, a: ReadAction) {
        assert!(
            (self.len as usize) < Self::CAPACITY,
            "a controller response holds at most {} actions",
            Self::CAPACITY
        );
        self.slots[self.len as usize] = a;
        self.len += 1;
    }

    /// Number of actions.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The actions in push order.
    pub fn as_slice(&self) -> &[ReadAction] {
        &self.slots[..self.len as usize]
    }

    /// Collects into a `Vec` (test/diagnostic convenience).
    pub fn to_vec(&self) -> Vec<ReadAction> {
        self.as_slice().to_vec()
    }
}

/// Dense per-transaction state storage keyed by [`TxnId`].
///
/// Transaction ids are small, dense slab indices (the simulator's
/// transaction pool recycles them), so a flat vector with `Option` slots
/// replaces the hashing a `HashMap<TxnId, T>` would pay on every flash
/// event. The table grows to the highest id ever inserted and keeps its
/// allocation for the whole run.
#[derive(Debug, Clone)]
pub struct TxnTable<T> {
    slots: Vec<Option<T>>,
}

impl<T> Default for TxnTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TxnTable<T> {
    /// An empty table.
    pub const fn new() -> Self {
        Self { slots: Vec::new() }
    }

    /// Inserts state for `id`, returning any previous state.
    pub fn insert(&mut self, id: TxnId, value: T) -> Option<T> {
        let idx = id.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        self.slots[idx].replace(value)
    }

    /// The state for `id`, if present.
    pub fn get(&self, id: TxnId) -> Option<&T> {
        self.slots.get(id.0 as usize).and_then(Option::as_ref)
    }

    /// Mutable state for `id`, if present.
    pub fn get_mut(&mut self, id: TxnId) -> Option<&mut T> {
        self.slots.get_mut(id.0 as usize).and_then(Option::as_mut)
    }

    /// Removes and returns the state for `id`.
    pub fn remove(&mut self, id: TxnId) -> Option<T> {
        self.slots.get_mut(id.0 as usize).and_then(Option::take)
    }
}

/// Immutable facts about a read the controller may use.
///
/// Deliberately *excludes* the ground-truth required retry step — mechanisms
/// must discover it through ECC outcomes, as real firmware does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadContext {
    /// Transaction id.
    pub txn: TxnId,
    /// Global die index the page lives on (PSO clusters by die).
    pub die: u32,
    /// Operating condition of the *block* (P/E cycles, the data's retention
    /// age, temperature) — all of which a real controller tracks (§6.2
    /// footnote 12: wear leveling and refresh already need them).
    pub condition: OperatingCondition,
    /// Whether the page holds cold (preconditioned, long-retention) data.
    pub cold: bool,
    /// Highest retry-table index available.
    pub max_step: u32,
}

/// A read-retry mechanism: a deterministic state machine over flash events.
///
/// One controller instance serves *all* reads of a simulation run (so
/// mechanisms can keep cross-read state, e.g. PSO's per-die V_REF cache);
/// per-read state is keyed by [`TxnId`].
pub trait RetryController {
    /// A read transaction reached the front of its die queue; the die is
    /// free. Must emit at least one die action.
    fn on_start(&mut self, ctx: &ReadContext) -> Actions;

    /// Sensing for `step` completed (data now in the page/cache register).
    fn on_sense_done(&mut self, ctx: &ReadContext, step: u32) -> Actions;

    /// ECC decode for `step` completed. `success` is whether all errors were
    /// corrected; `margin` is the remaining ECC capability (only meaningful
    /// on success).
    fn on_decode_done(
        &mut self,
        ctx: &ReadContext,
        step: u32,
        success: bool,
        margin: u32,
    ) -> Actions;

    /// A `SET FEATURE` issued by this read completed.
    fn on_feature_applied(&mut self, ctx: &ReadContext) -> Actions;

    /// A `RESET` issued by this read completed. Usually no further action.
    fn on_reset_done(&mut self, ctx: &ReadContext) -> Actions;

    /// The transaction is fully finished (after `Complete*`); drop any
    /// per-transaction state. Mechanisms with cross-read state (PSO) update
    /// their caches here via the recorded outcome.
    fn on_end(&mut self, ctx: &ReadContext, successful_step: Option<u32>);

    /// A short display name for reports ("Baseline", "PR2", ...).
    fn name(&self) -> &str;
}

/// The regular read-retry mechanism (Fig. 12(a)): strictly sequential
/// sense → transfer → decode → (on failure) next retry step, with default
/// timing parameters throughout.
#[derive(Debug, Default)]
pub struct BaselineController;

impl BaselineController {
    /// Creates the baseline controller.
    pub fn new() -> Self {
        Self
    }
}

impl RetryController for BaselineController {
    fn on_start(&mut self, _ctx: &ReadContext) -> Actions {
        Actions::one(ReadAction::Sense { step: 0 })
    }

    fn on_sense_done(&mut self, _ctx: &ReadContext, step: u32) -> Actions {
        Actions::one(ReadAction::Transfer { step })
    }

    fn on_decode_done(
        &mut self,
        ctx: &ReadContext,
        step: u32,
        success: bool,
        _margin: u32,
    ) -> Actions {
        if success {
            Actions::one(ReadAction::CompleteSuccess { step })
        } else if step < ctx.max_step {
            Actions::one(ReadAction::Sense { step: step + 1 })
        } else {
            Actions::one(ReadAction::CompleteFailure)
        }
    }

    fn on_feature_applied(&mut self, _ctx: &ReadContext) -> Actions {
        unreachable!("baseline never issues SET FEATURE")
    }

    fn on_reset_done(&mut self, _ctx: &ReadContext) -> Actions {
        unreachable!("baseline never issues RESET")
    }

    fn on_end(&mut self, _ctx: &ReadContext, _successful_step: Option<u32>) {}

    fn name(&self) -> &str {
        "Baseline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(max_step: u32) -> ReadContext {
        ReadContext {
            txn: TxnId(1),
            die: 0,
            condition: OperatingCondition::new(1000.0, 6.0, 30.0),
            cold: true,
            max_step,
        }
    }

    #[test]
    fn baseline_walks_steps_sequentially() {
        let mut b = BaselineController::new();
        let c = ctx(40);
        assert_eq!(b.on_start(&c).to_vec(), vec![ReadAction::Sense { step: 0 }]);
        assert_eq!(
            b.on_sense_done(&c, 0).to_vec(),
            vec![ReadAction::Transfer { step: 0 }]
        );
        // Fail at step 0 → sense step 1.
        assert_eq!(
            b.on_decode_done(&c, 0, false, 0).to_vec(),
            vec![ReadAction::Sense { step: 1 }]
        );
        assert_eq!(
            b.on_sense_done(&c, 1).to_vec(),
            vec![ReadAction::Transfer { step: 1 }]
        );
        // Success at step 1 → complete.
        assert_eq!(
            b.on_decode_done(&c, 1, true, 30).to_vec(),
            vec![ReadAction::CompleteSuccess { step: 1 }]
        );
        b.on_end(&c, Some(1));
    }

    #[test]
    fn baseline_fails_when_table_exhausted() {
        let mut b = BaselineController::new();
        let c = ctx(2);
        b.on_start(&c);
        assert_eq!(
            b.on_decode_done(&c, 2, false, 0).to_vec(),
            vec![ReadAction::CompleteFailure]
        );
    }

    #[test]
    fn actions_hold_up_to_capacity_in_push_order() {
        let mut a = Actions::new();
        assert!(a.is_empty());
        for step in 0..Actions::CAPACITY as u32 {
            a.push(ReadAction::Sense { step });
        }
        assert_eq!(a.len(), Actions::CAPACITY);
        let copy = a; // `Copy`: `a` stays usable.
        assert_eq!(copy, a);
        assert_eq!(
            a.to_vec(),
            (0..Actions::CAPACITY as u32)
                .map(|step| ReadAction::Sense { step })
                .collect::<Vec<_>>()
        );
        let pair = Actions::pair(ReadAction::Reset, ReadAction::CompleteFailure);
        assert_eq!(
            pair.to_vec(),
            vec![ReadAction::Reset, ReadAction::CompleteFailure]
        );
        assert_eq!(
            Actions::one(ReadAction::Reset).to_vec(),
            vec![ReadAction::Reset]
        );
    }

    #[test]
    #[should_panic(expected = "at most 3 actions")]
    fn actions_push_past_capacity_panics() {
        let mut a = Actions::new();
        for step in 0..=Actions::CAPACITY as u32 {
            a.push(ReadAction::Sense { step });
        }
    }

    #[test]
    fn txn_table_insert_get_remove() {
        let mut t: TxnTable<u32> = TxnTable::new();
        assert_eq!(t.get(TxnId(3)), None);
        assert_eq!(t.insert(TxnId(3), 30), None);
        assert_eq!(t.insert(TxnId(0), 1), None);
        assert_eq!(t.get(TxnId(3)), Some(&30));
        *t.get_mut(TxnId(3)).unwrap() += 1;
        assert_eq!(t.insert(TxnId(3), 99), Some(31));
        assert_eq!(t.remove(TxnId(3)), Some(99));
        assert_eq!(t.remove(TxnId(3)), None);
        assert_eq!(t.get(TxnId(100)), None);
    }
}
