//! The event queue at the heart of the discrete-event kernel.

use crate::SimTime;

/// Bits of a heap key that hold the event's slot; the sequence number sits
/// above them and the time in the upper 64 bits.
const SLOT_BITS: u32 = 24;
/// Bits of a heap key that hold the sequence number.
const SEQ_BITS: u32 = 64 - SLOT_BITS;

/// A priority queue of `(SimTime, E)` pairs, popped in time order, whose
/// pending events can be moved or withdrawn through the [`EventId`]
/// [`schedule`](Self::schedule) returns.
///
/// Ties are broken by insertion order (FIFO), which keeps simulations
/// deterministic when many events share a timestamp. A
/// [`reschedule`](Self::reschedule) counts as a new insertion: the event
/// takes the rank a [`cancel`](Self::cancel) followed by a `schedule` would
/// give it.
///
/// # Example
///
/// ```
/// use beehive_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let b = q.schedule(SimTime::from_nanos(10), 'b');
/// q.schedule(SimTime::from_nanos(10), 'c');
/// let x = q.schedule(SimTime::from_nanos(1), 'x');
/// q.schedule(SimTime::from_nanos(5), 'a');
/// q.reschedule(b, SimTime::from_nanos(10)); // now behind 'c'
/// assert_eq!(q.cancel(x), 'x');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'c', 'b']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// A binary min-heap of keys. Each key packs an event's time (upper 64
    /// bits), its sequence number and its slot (lowest [`SLOT_BITS`]), so
    /// one integer comparison orders by `(time, seq)` and the slot rides
    /// along.
    heap: Vec<u128>,
    /// Per slot: where its key sits in `heap` and its generation.
    slots: Vec<Slot>,
    /// Per slot: the pending event, `None` while the slot is free.
    events: Vec<Option<E>>,
    /// Free slots, reused last-freed first.
    free: Vec<u32>,
    seq: u64,
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    /// Position of the slot's key in the heap, while its event is pending.
    pos: u32,
    /// Bumped whenever the slot is freed, so that the handles of its past
    /// events no longer match it.
    gen: u32,
}

/// The handle of a pending event of an [`EventQueue`].
///
/// It is valid until its event pops or is cancelled. The queue panics on a
/// handle that is no longer valid, even when a later event has taken its
/// slot, rather than move or remove that other event.
#[derive(Clone, Copy, Debug)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

fn time_of(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

fn slot_of(key: u128) -> usize {
    (key as usize) & ((1 << SLOT_BITS) - 1)
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            events: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }

    /// Schedule `event` to fire at `time`.
    ///
    /// # Panics
    ///
    /// Panics when 2^24 events are pending at once, or after 2^40
    /// schedules and reschedules.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventId {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = self.slots.len();
                assert!(slot < 1 << SLOT_BITS, "more than 2^24 pending events");
                self.slots.push(Slot { pos: 0, gen: 0 });
                self.events.push(None);
                slot as u32
            }
        };
        self.events[slot as usize] = Some(event);
        let key = self.key(time, slot);
        self.heap.push(key);
        self.sift_up(self.heap.len() - 1, key);
        EventId {
            slot,
            gen: self.slots[slot as usize].gen,
        }
    }

    /// Move pending event `id` to `time`, behind every event already
    /// scheduled for that instant.
    ///
    /// # Panics
    ///
    /// Panics if `id`'s event already popped or was cancelled.
    pub fn reschedule(&mut self, id: EventId, time: SimTime) {
        let pos = self.position(id);
        let key = self.key(time, id.slot);
        if key < self.heap[pos] {
            self.sift_up(pos, key);
        } else {
            self.sift_down(pos, key);
        }
    }

    /// Withdraw pending event `id`, returning it.
    ///
    /// # Panics
    ///
    /// Panics if `id`'s event already popped or was cancelled.
    pub fn cancel(&mut self, id: EventId) -> E {
        let pos = self.position(id);
        self.remove_at(pos);
        self.release(id.slot as usize)
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let top = *self.heap.first()?;
        self.remove_at(0);
        Some((time_of(top), self.release(slot_of(top))))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// A fresh key for `slot` at `time`.
    fn key(&mut self, time: SimTime, slot: u32) -> u128 {
        let seq = self.seq;
        assert!(seq < 1 << SEQ_BITS, "more than 2^40 events scheduled");
        self.seq += 1;
        (u128::from(time.as_nanos()) << 64) | u128::from((seq << SLOT_BITS) | u64::from(slot))
    }

    /// The heap position of `id`'s key.
    fn position(&self, id: EventId) -> usize {
        match self.slots.get(id.slot as usize) {
            Some(s) if s.gen == id.gen => s.pos as usize,
            _ => panic!("{id:?} is stale: its event already popped or was cancelled"),
        }
    }

    /// Free `slot`, returning its event.
    fn release(&mut self, slot: usize) -> E {
        let s = &mut self.slots[slot];
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot as u32);
        self.events[slot]
            .take()
            .expect("a pending slot holds its event")
    }

    /// Put `key` at `pos` and record where its slot now sits.
    fn place(&mut self, pos: usize, key: u128) {
        self.heap[pos] = key;
        self.slots[slot_of(key)].pos = pos as u32;
    }

    /// Take the key at `pos` out of the heap.
    fn remove_at(&mut self, pos: usize) {
        let last = self.heap.pop().expect("removing from a non-empty heap");
        if pos < self.heap.len() {
            self.sift_down(pos, last);
        }
    }

    /// Settle `key` into the heap from the hole at `pos`, moving up.
    fn sift_up(&mut self, mut pos: usize, key: u128) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let above = self.heap[parent];
            if above < key {
                break;
            }
            self.place(pos, above);
            pos = parent;
        }
        self.place(pos, key);
    }

    /// Settle `key` into the heap from the hole at `pos`, wherever it
    /// belongs: walk the hole down to a leaf along the lesser children,
    /// then move `key` up from there. A key that replaces a removed one
    /// mostly belongs near the bottom, so this costs one comparison a
    /// level on the way down where a plain sift-down costs two.
    fn sift_down(&mut self, mut pos: usize, key: u128) {
        let len = self.heap.len();
        let mut child = 2 * pos + 1;
        while child + 1 < len {
            child += usize::from(self.heap[child + 1] < self.heap[child]);
            self.place(pos, self.heap[child]);
            pos = child;
            child = 2 * pos + 1;
        }
        if child + 1 == len {
            self.place(pos, self.heap[child]);
            pos = child;
        }
        self.sift_up(pos, key);
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
    use crate::Rng;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_broken_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_nanos(9), ());
        q.schedule(SimTime::from_nanos(4), ());
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    /// The queue's contract, kept naively: pending `(time, seq, event)`
    /// sorted, a schedule or reschedule taking the next `seq`.
    #[derive(Default)]
    struct Model {
        pending: Vec<(u64, u64, u64)>,
        seq: u64,
    }

    impl Model {
        fn schedule(&mut self, time: u64, event: u64) {
            self.pending.push((time, self.seq, event));
            self.seq += 1;
            self.pending.sort_unstable();
        }

        fn take(&mut self, event: u64) -> (u64, u64, u64) {
            let at = self.pending.iter().position(|p| p.2 == event);
            self.pending
                .remove(at.expect("the model holds every live event"))
        }

        fn pop(&mut self) -> Option<(u64, u64)> {
            (!self.pending.is_empty()).then(|| {
                let (t, _, e) = self.pending.remove(0);
                (t, e)
            })
        }
    }

    /// `op` on `q` panics and leaves it as it was.
    fn assert_rejected(q: &mut EventQueue<u64>, op: impl FnOnce(&mut EventQueue<u64>)) {
        let len = q.len();
        let caught = catch_unwind(AssertUnwindSafe(|| op(q)));
        assert!(caught.is_err(), "a stale handle was accepted");
        assert_eq!(q.len(), len);
    }

    /// Random schedules, reschedules, cancels and pops against the model:
    /// the same pops, the same length after every operation, and every
    /// dead handle refused. Times come from a narrow range so that ties —
    /// where a reschedule's fresh rank matters — are common.
    #[test]
    fn matches_a_sorted_vec_model() {
        for seed in 0..24 {
            let mut rng = Rng::new(seed);
            let (mut q, mut model) = (EventQueue::new(), Model::default());
            let mut live: Vec<(EventId, u64)> = Vec::new();
            let mut dead: Vec<EventId> = Vec::new();
            let mut now = 0;
            for next in 0..3_000u64 {
                let time = now + rng.gen_range(40);
                match rng.gen_range(10) {
                    0..=3 => {
                        live.push((q.schedule(SimTime::from_nanos(time), next), next));
                        model.schedule(time, next);
                    }
                    4 | 5 if !live.is_empty() => {
                        let (id, event) = live[rng.gen_range(live.len() as u64) as usize];
                        q.reschedule(id, SimTime::from_nanos(time));
                        model.take(event);
                        model.schedule(time, event);
                    }
                    6 if !live.is_empty() => {
                        let at = rng.gen_range(live.len() as u64) as usize;
                        let (id, event) = live.swap_remove(at);
                        assert_eq!(q.cancel(id), event);
                        model.take(event);
                        dead.push(id);
                    }
                    7 if !dead.is_empty() => {
                        let id = dead[rng.gen_range(dead.len() as u64) as usize];
                        assert_rejected(&mut q, |q| q.reschedule(id, SimTime::from_nanos(time)));
                        assert_rejected(&mut q, |q| {
                            q.cancel(id);
                        });
                    }
                    _ => {
                        let popped = q.pop().map(|(t, e)| (t.as_nanos(), e));
                        assert_eq!(popped, model.pop(), "seed {seed}, op {next}");
                        if let Some((t, e)) = popped {
                            now = t;
                            let at = live.iter().position(|l| l.1 == e).expect("popped live");
                            dead.push(live.swap_remove(at).0);
                        }
                    }
                }
                assert_eq!(q.len(), model.pending.len(), "seed {seed}, op {next}");
            }
            while let Some((t, e)) = q.pop() {
                assert_eq!(Some((t.as_nanos(), e)), model.pop(), "seed {seed}, drain");
            }
            assert!(model.pending.is_empty());
        }
    }

    #[test]
    fn a_popped_handle_cannot_move_the_event_in_its_slot() {
        let mut q = EventQueue::new();
        let old = q.schedule(SimTime::from_nanos(1), 1);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), 1)));
        q.schedule(SimTime::from_nanos(2), 2); // reuses the slot
        assert_rejected(&mut q, |q| q.reschedule(old, SimTime::from_nanos(9)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(2), 2)));
    }
}
