//! The CUDA-like event table: one `u64` word per event ever created.
//!
//! A serving run creates about a million events, nearly all of which fire
//! without anyone waiting on them. The table therefore stores one word per
//! event and keeps waiter lists only for the few events something is
//! actually parked on:
//!
//! ```text
//! bit 63 clear : fired; the word is the GPU-side trigger time in ns
//! bit 63 set   : unfired; the low bits are 0 (nobody waiting) or
//!                1 + the index of the event's waiter list in the slab
//! ```
//!
//! Waiter lists live in a free-listed slab. A slot is taken when the first
//! queue, host or callback parks on an unfired event and handed back, with
//! its capacity kept for reuse, once the event fires and its waiters have
//! been woken. The table's size is one word per event plus one slot per
//! event with parked waiters, whatever the run has done before.

use crate::ids::EventId;
use crate::time::SimTime;

/// Tag bit of an event word: set while the event has not fired. Fired
/// times must stay below it (asserted in [`EventTable::fire`]).
const UNFIRED: u64 = 1 << 63;

/// Something parked on an unfired event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Waiter {
    /// A hardware queue whose head is a stream wait: `(device, queue)`.
    Queue(usize, usize),
    /// A host parked on a blocking sync.
    Host(usize),
    /// A driver callback: `(token, latency-reference host)`.
    Callback(u64, usize),
}

/// The event words and the waiter slab (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct EventTable {
    words: Vec<u64>,
    slab: Vec<Vec<Waiter>>,
    free: Vec<u32>,
}

impl EventTable {
    /// Number of events created so far.
    pub(crate) fn len(&self) -> usize {
        self.words.len()
    }

    /// Creates a fresh unfired event with no waiters.
    pub(crate) fn create(&mut self) -> EventId {
        let id = EventId(self.words.len() as u64);
        self.words.push(UNFIRED);
        id
    }

    /// The event's GPU-side trigger time, once it has fired.
    #[inline]
    pub(crate) fn fired_at(&self, ev: EventId) -> Option<SimTime> {
        let word = self.words[ev.0 as usize];
        (word & UNFIRED == 0).then_some(SimTime::from_nanos(word))
    }

    /// The event's slab slot, when something is parked on it.
    #[inline]
    fn slot(&self, ev: EventId) -> Option<usize> {
        let word = self.words[ev.0 as usize];
        (word & UNFIRED != 0 && word != UNFIRED).then(|| (word & !UNFIRED) as usize - 1)
    }

    /// Parks `waiter` on the unfired event `ev`, taking a slab slot for the
    /// event's first waiter.
    pub(crate) fn park(&mut self, ev: EventId, waiter: Waiter) {
        debug_assert!(self.fired_at(ev).is_none(), "parking on fired event {ev:?}");
        let slot = match self.slot(ev) {
            Some(slot) => slot,
            None => {
                let slot = match self.free.pop() {
                    Some(slot) => slot as usize,
                    None => {
                        self.slab.push(Vec::new());
                        self.slab.len() - 1
                    }
                };
                self.words[ev.0 as usize] = UNFIRED | (slot as u64 + 1);
                slot
            }
        };
        self.slab[slot].push(waiter);
    }

    /// Everything parked on `ev`, in parking order (empty once it fired).
    pub(crate) fn waiters(&self, ev: EventId) -> &[Waiter] {
        match self.slot(ev) {
            Some(slot) => &self.slab[slot],
            None => &[],
        }
    }

    /// Marks the unfired event `ev` fired at `now` and returns the slab slot
    /// holding its waiters, if any. The slot stays reserved, and readable
    /// through [`EventTable::parked`], until the caller hands it back with
    /// [`EventTable::release`]: waking a waiter may fire further events,
    /// and those must not reuse it meanwhile.
    pub(crate) fn fire(&mut self, ev: EventId, now: SimTime) -> Option<usize> {
        debug_assert!(self.fired_at(ev).is_none(), "event {ev:?} fired twice");
        assert!(now.as_nanos() & UNFIRED == 0, "fired time {now} reaches the event tag bit");
        let slot = self.slot(ev);
        self.words[ev.0 as usize] = now.as_nanos();
        slot
    }

    /// How many waiters a slot returned by [`EventTable::fire`] holds.
    pub(crate) fn parked_len(&self, slot: usize) -> usize {
        self.slab[slot].len()
    }

    /// The waiter at position `i` of a slot returned by
    /// [`EventTable::fire`].
    #[inline]
    pub(crate) fn parked(&self, slot: usize, i: usize) -> Waiter {
        self.slab[slot][i]
    }

    /// Returns a slot taken by [`EventTable::fire`] to the free list,
    /// keeping its list's capacity for the next event parked on it.
    pub(crate) fn release(&mut self, slot: usize) {
        self.slab[slot].clear();
        self.free.push(slot as u32);
    }

    /// Slab slots ever allocated (occupied or free).
    #[cfg(test)]
    pub(crate) fn slab_slots(&self) -> usize {
        self.slab.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_event_without_waiters_takes_no_slot() {
        let mut t = EventTable::default();
        let ev = t.create();
        assert_eq!(t.fired_at(ev), None);
        assert_eq!(t.fire(ev, SimTime::from_nanos(7)), None);
        assert_eq!(t.fired_at(ev), Some(SimTime::from_nanos(7)));
        assert_eq!(t.slab_slots(), 0);
    }

    #[test]
    fn a_slot_is_reused_after_its_event_fires() {
        let mut t = EventTable::default();
        let (a, b) = (t.create(), t.create());
        t.park(a, Waiter::Host(0));
        t.park(a, Waiter::Queue(1, 2));
        assert_eq!(t.waiters(a), &[Waiter::Host(0), Waiter::Queue(1, 2)]);
        let slot = t.fire(a, SimTime::ZERO).expect("a has waiters");
        assert_eq!(t.parked_len(slot), 2);
        assert_eq!(t.parked(slot, 1), Waiter::Queue(1, 2));
        assert!(t.waiters(a).is_empty(), "a fired event has no waiters");
        t.release(slot);
        t.park(b, Waiter::Callback(9, 0));
        assert_eq!(t.slab_slots(), 1, "the released slot is reused");
        assert_eq!(t.waiters(b), &[Waiter::Callback(9, 0)]);
    }

    #[test]
    fn time_zero_is_a_fired_word() {
        let mut t = EventTable::default();
        let ev = t.create();
        t.fire(ev, SimTime::ZERO);
        assert_eq!(t.fired_at(ev), Some(SimTime::ZERO));
    }

    #[test]
    #[should_panic(expected = "tag bit")]
    fn a_time_on_the_tag_bit_is_rejected() {
        let mut t = EventTable::default();
        let ev = t.create();
        t.fire(ev, SimTime::from_nanos(UNFIRED));
    }
}
