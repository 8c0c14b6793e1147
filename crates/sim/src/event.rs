//! The discrete-event core: a deterministic time-ordered event queue.
//!
//! Ties are broken by insertion order, which makes simulation runs
//! bit-reproducible. The backing store is a `Vec` kept sorted by descending
//! `(time, insertion order)`: pop takes the tail in `O(1)`, push binary-searches
//! its slot and shifts the entries after it. The simulator keeps few events
//! pending (8.3 on average, 31 at most, on the Fig. 14 matrix; 257 at the
//! QD-256 start burst), and at those depths the whole simulator ran faster on
//! this queue than on a binary heap.

use rr_util::time::SimTime;

/// A deterministic min-queue of `(time, payload)` events.
///
/// # Example
///
/// ```
/// use rr_sim::event::EventQueue;
/// use rr_util::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_us(5), "b");
/// q.push(SimTime::from_us(1), "a");
/// q.push(SimTime::from_us(5), "c"); // same time as "b": FIFO order
/// assert_eq!(q.pop(), Some((SimTime::from_us(1), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_us(5), "b")));
/// assert_eq!(q.pop(), Some((SimTime::from_us(5), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Pending events, latest first; among equal times, the most recently
    /// pushed first. The earliest-pushed earliest event is the tail.
    entries: Vec<(SimTime, E)>,
    last_popped: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedules `payload` at `time`, after every pending event at the same
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last popped event — scheduling
    /// into the past is always a simulator bug. The check is unconditional
    /// (present in release builds): the simulator's correctness relies on
    /// time never moving backwards, in every build profile.
    #[inline]
    pub fn push(&mut self, time: SimTime, payload: E) {
        if time < self.last_popped {
            panic!("scheduling into the past: {time} < {}", self.last_popped);
        }
        // Ahead (in memory) of every pending event at `time`: those were
        // pushed earlier and must pop first.
        let at = self.entries.partition_point(|&(t, _)| t > time);
        self.entries.insert(at, (time, payload));
    }

    /// Removes and returns the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (time, payload) = self.entries.pop()?;
        self.last_popped = time;
        Some((time, payload))
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.entries.last().map(|&(t, _)| t)
    }

    /// Empties the queue and rewinds its clock, keeping the allocation. A
    /// reset queue behaves bit-identically to a freshly constructed one (the
    /// arena path relies on this).
    pub fn reset(&mut self) {
        self.entries.clear();
        self.last_popped = SimTime::ZERO;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(10), 1);
        q.push(SimTime::from_us(5), 2);
        q.push(SimTime::from_us(10), 3);
        q.push(SimTime::from_us(7), 4);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_us(3), 0);
        q.push(SimTime::from_us(1), 0);
        assert_eq!(q.peek_time(), Some(SimTime::from_us(1)));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_us(3)));
    }

    #[test]
    fn same_time_as_last_popped_is_allowed() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(1), 1);
        q.pop();
        q.push(SimTime::from_us(1), 2); // zero-latency follow-up event
        assert_eq!(q.pop(), Some((SimTime::from_us(1), 2)));
    }

    #[test]
    fn reset_rewinds_the_clock() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(10), 1);
        q.pop();
        q.reset();
        assert!(q.is_empty());
        // Scheduling before the pre-reset watermark is legal again, and
        // ties still break FIFO.
        q.push(SimTime::from_us(1), 2);
        q.push(SimTime::from_us(1), 3);
        assert_eq!(q.pop(), Some((SimTime::from_us(1), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_us(1), 3)));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(10), 1);
        q.pop();
        q.push(SimTime::from_us(5), 2);
    }
}
