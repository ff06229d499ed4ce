//! Deterministic event queue.
//!
//! Pending events live in two binary heaps that share one `(time, seq)`
//! key space:
//!
//! * **Keyed slots** — an indexed min-heap holding at most one entry per
//!   slot. Re-arming a slot ([`EventQueue::push_keyed`]) re-keys its
//!   entry in place and [`EventQueue::cancel`] removes it, both in
//!   O(log slots). The simulator gives every server one slot for its
//!   next wake, so a reallocation that moves the wake replaces the old
//!   entry instead of leaving a tombstone behind for the pop path to
//!   discard.
//! * **Plain events** — a [`BinaryHeap`] for everything else; entries
//!   are never cancelled. [`EventEntry`]'s `Ord` is reversed, so the
//!   max-heap pops the earliest key.
//!
//! `pop` takes the smaller of the two heads. Events at equal timestamps
//! pop in insertion order: every push — keyed or plain — draws the next
//! value of one `seq` counter, so runs are reproducible regardless of
//! heap internals.
//!
//! Determinism contract: `pop` always returns the pending entry with the
//! minimum `(time, seq)` pair. Because `seq` is unique, that key is a
//! total order, so the pop sequence is a pure function of the push,
//! re-key and cancel sequence.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled at a point in simulated time.
#[derive(Clone, Debug)]
pub struct EventEntry<T> {
    /// When the event fires.
    pub time: SimTime,
    /// Global insertion sequence number; breaks timestamp ties FIFO.
    pub seq: u64,
    /// The event payload.
    pub payload: T,
}

impl<T> EventEntry<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<T> PartialEq for EventEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for EventEntry<T> {}

impl<T> PartialOrd for EventEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for EventEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed (earliest-first), so entries drop into a max-heap
        // (`BinaryHeap`) or a `sort` + `pop` pattern unchanged.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Scan-work counters, kept source-compatible for callers that report
/// them. Both heaps locate their head in O(1) and never scan, sweep or
/// rebuild, so every counter reads 0.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueCounters {
    /// Entries examined by head scans (always 0).
    pub scanned: u64,
    /// Full-queue sweeps (always 0).
    pub sweeps: u64,
    /// Storage rebuilds (always 0).
    pub rebuilds: u64,
}

/// Slot position marking "not armed".
const IDLE: u32 = u32::MAX;

/// A keyed-heap node: the slot it belongs to and its entry.
#[derive(Clone, Debug)]
struct Keyed<T> {
    slot: u32,
    entry: EventEntry<T>,
}

/// A min-priority queue of timed events with FIFO tie-breaking and
/// cancellable per-slot entries. See the module docs.
#[derive(Clone, Debug)]
pub struct EventQueue<T> {
    /// Events that are never cancelled.
    plain: BinaryHeap<EventEntry<T>>,
    /// Armed slots, a min-heap on `(time, seq)`.
    keyed: Vec<Keyed<T>>,
    /// Slot → its index in `keyed`, or [`IDLE`]. Grows on demand.
    pos: Vec<u32>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `cap` plain events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            plain: BinaryHeap::with_capacity(cap),
            keyed: Vec::new(),
            pos: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` at `time`. Panics on non-finite times — an
    /// infinite wake must be expressed by *not* scheduling.
    pub fn push(&mut self, time: SimTime, payload: T) {
        let seq = self.draw_seq();
        self.push_with_seq(time, seq, payload);
    }

    /// Arms `slot` at `time` under the next sequence number. A slot that
    /// is already armed is re-keyed in place: its previous entry is
    /// dropped, so at most one entry per slot is ever pending.
    pub fn push_keyed(&mut self, slot: usize, time: SimTime, payload: T) {
        let seq = self.draw_seq();
        self.push_keyed_with_seq(slot, time, seq, payload);
    }

    /// Disarms `slot`, returning its pending entry (`None` if idle).
    pub fn cancel(&mut self, slot: usize) -> Option<EventEntry<T>> {
        let i = *self.pos.get(slot)?;
        if i == IDLE {
            return None;
        }
        Some(self.remove_keyed(i as usize).entry)
    }

    /// The `(time, seq)` key `slot` is armed at, if any.
    pub fn armed(&self, slot: usize) -> Option<(SimTime, u64)> {
        let &i = self.pos.get(slot)?;
        (i != IDLE).then(|| self.keyed[i as usize].entry.key())
    }

    /// Draws and discards the next sequence number. A re-arm that keeps
    /// a slot's existing key still consumes one, so every later key is
    /// the one a queue that had pushed the re-arm would assign.
    pub fn skip_seq(&mut self) {
        self.next_seq += 1;
    }

    fn draw_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `payload` at `time` under an externally-assigned `seq`.
    /// Used by [`crate::sharded::ShardedQueue`], which allocates sequence
    /// numbers globally so the merged pop order across shard queues
    /// equals the single-queue order. The caller must keep `seq` unique
    /// and monotone across all queues sharing the namespace.
    pub(crate) fn push_with_seq(&mut self, time: SimTime, seq: u64, payload: T) {
        assert!(
            time.is_finite(),
            "cannot schedule an event at infinite time"
        );
        self.plain.push(EventEntry { time, seq, payload });
    }

    /// [`EventQueue::push_keyed`] under an externally-assigned `seq` (same
    /// contract as [`EventQueue::push_with_seq`]). Returns the entry the
    /// re-key replaced, if the slot was armed.
    pub(crate) fn push_keyed_with_seq(
        &mut self,
        slot: usize,
        time: SimTime,
        seq: u64,
        payload: T,
    ) -> Option<EventEntry<T>> {
        assert!(
            time.is_finite(),
            "cannot schedule an event at infinite time"
        );
        if slot >= self.pos.len() {
            self.pos.resize(slot + 1, IDLE);
        }
        let entry = EventEntry { time, seq, payload };
        let i = self.pos[slot];
        if i == IDLE {
            let i = self.keyed.len();
            self.pos[slot] = i as u32;
            self.keyed.push(Keyed {
                slot: slot as u32,
                entry,
            });
            self.sift_up(i);
            return None;
        }
        let i = i as usize;
        let later = entry.key() > self.keyed[i].entry.key();
        let old = std::mem::replace(&mut self.keyed[i].entry, entry);
        if later {
            self.sift_down(i);
        } else {
            self.sift_up(i);
        }
        Some(old)
    }

    /// `true` when the plain head precedes the keyed head (or the keyed
    /// heap is empty). Keys are unique, so the comparison is strict.
    fn plain_first(&self) -> bool {
        match (self.plain.peek(), self.keyed.first()) {
            (Some(p), Some(k)) => p.key() < k.entry.key(),
            (_, k) => k.is_none(),
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<EventEntry<T>> {
        if self.plain_first() {
            self.plain.pop()
        } else {
            Some(self.remove_keyed(0).entry)
        }
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(|(t, _)| t)
    }

    /// The full `(time, seq)` key of the earliest pending event. Keys are
    /// totally ordered (seq is unique), which is what the cross-shard
    /// barrier compares when deciding how far a shard may advance.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        if self.plain_first() {
            self.plain.peek().map(EventEntry::key)
        } else {
            Some(self.keyed[0].entry.key())
        }
    }

    /// Scan-work counters (see [`QueueCounters`]; all 0 for the heaps).
    pub fn counters(&self) -> QueueCounters {
        QueueCounters::default()
    }

    /// Number of pending events, keyed and plain.
    pub fn len(&self) -> usize {
        self.plain.len() + self.keyed.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all pending events and disarms every slot. The sequence
    /// counter keeps counting, so FIFO ordering is preserved across a
    /// clear.
    pub fn clear(&mut self) {
        self.plain.clear();
        self.keyed.clear();
        self.pos.fill(IDLE);
    }

    /// Removes the keyed node at heap index `i` and restores the heap.
    fn remove_keyed(&mut self, i: usize) -> Keyed<T> {
        let last = self.keyed.len() - 1;
        self.swap(i, last);
        let node = self.keyed.pop().expect("index within the keyed heap");
        self.pos[node.slot as usize] = IDLE;
        if i < self.keyed.len() {
            // The node moved into `i` came from the bottom: it may need
            // to go either way relative to its new neighbours.
            self.sift_down(i);
            self.sift_up(i);
        }
        node
    }

    fn less(&self, a: usize, b: usize) -> bool {
        self.keyed[a].entry.key() < self.keyed[b].entry.key()
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.keyed.swap(a, b);
        self.pos[self.keyed[a].slot as usize] = a as u32;
        self.pos[self.keyed[b].slot as usize] = b as u32;
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if !self.less(i, parent) {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.keyed.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.less(right, left) {
                right
            } else {
                left
            };
            if !self.less(child, i) {
                break;
            }
            self.swap(i, child);
            i = child;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3.0), "c");
        q.push(SimTime::from_secs(1.0), "a");
        q.push(SimTime::from_secs(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5.0);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10.0), 10);
        q.push(SimTime::from_secs(1.0), 1);
        assert_eq!(q.pop().unwrap().payload, 1);
        q.push(SimTime::from_secs(5.0), 5);
        q.push(SimTime::from_secs(0.5), 0);
        // 0.5 is in the "past" relative to popped 1.0 — the queue itself
        // doesn't enforce monotonicity; the simulation loop asserts it.
        assert_eq!(q.pop().unwrap().payload, 0);
        assert_eq!(q.pop().unwrap().payload, 5);
        assert_eq!(q.pop().unwrap().payload, 10);
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.push(SimTime::from_secs(2.0), ());
        q.push(SimTime::from_secs(1.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1.0)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2.0)));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::with_capacity(8);
        assert!(q.is_empty());
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        q.push_keyed(3, SimTime::ZERO, 3);
        assert_eq!(q.len(), 3);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.armed(3), None, "clear disarms every slot");
    }

    #[test]
    #[should_panic(expected = "infinite time")]
    fn rejects_infinite_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::FAR_FUTURE, ());
    }

    #[test]
    #[should_panic(expected = "infinite time")]
    fn rejects_infinite_keyed_time() {
        let mut q = EventQueue::new();
        q.push_keyed(0, SimTime::FAR_FUTURE, ());
    }

    /// A re-arm replaces the slot's entry in place: one pending entry per
    /// slot, popped at the new key; a cancel removes it.
    #[test]
    fn keyed_slots_rekey_and_cancel_in_place() {
        let mut q = EventQueue::new();
        q.push_keyed(0, SimTime::from_secs(5.0), "a@5");
        q.push_keyed(1, SimTime::from_secs(3.0), "b@3");
        q.push(SimTime::from_secs(4.0), "plain@4");
        // Move slot 0 earlier and slot 1 later.
        q.push_keyed(0, SimTime::from_secs(1.0), "a@1");
        q.push_keyed(1, SimTime::from_secs(9.0), "b@9");
        assert_eq!(q.len(), 3);
        assert_eq!(q.armed(0), Some((SimTime::from_secs(1.0), 3)));
        assert_eq!(q.armed(7), None, "never-armed slot");
        assert_eq!(q.pop().unwrap().payload, "a@1");
        assert_eq!(q.armed(0), None, "a popped slot is idle");
        assert_eq!(q.cancel(0), None);
        assert_eq!(q.pop().unwrap().payload, "plain@4");
        assert_eq!(q.cancel(1).map(|e| e.payload), Some("b@9"));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    /// `skip_seq` burns exactly one sequence number.
    #[test]
    fn skip_seq_consumes_one_number() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 0);
        q.skip_seq();
        q.push_keyed(4, SimTime::ZERO, 1);
        assert_eq!(q.armed(4), Some((SimTime::ZERO, 2)));
        assert_eq!(q.pop().map(|e| e.seq), Some(0));
        assert_eq!(q.pop().map(|e| e.seq), Some(2));
    }

    /// A trivially-correct model: pops the minimum `(time, seq)` pair.
    struct ModelQueue {
        pending: Vec<(SimTime, u64, u64)>,
        next_seq: u64,
    }

    impl ModelQueue {
        fn new() -> Self {
            ModelQueue {
                pending: Vec::new(),
                next_seq: 0,
            }
        }
        fn push(&mut self, time: SimTime, payload: u64) {
            self.pending.push((time, self.next_seq, payload));
            self.next_seq += 1;
        }
        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let best = self
                .pending
                .iter()
                .enumerate()
                .min_by_key(|(_, &(t, s, _))| (t, s))?
                .0;
            let (t, _, p) = self.pending.swap_remove(best);
            Some((t, p))
        }
    }

    /// The seq-counter FIFO contract, differentially: an arbitrary
    /// deterministic push/pop interleaving (duplicate timestamps, pushes
    /// into the past, same-time bursts) must match the reference model
    /// event for event.
    #[test]
    fn fifo_contract_matches_reference_model() {
        let mut rng = crate::Rng::new(0x5EC_C0FFEE);
        let mut q = EventQueue::new();
        let mut model = ModelQueue::new();
        let mut payload = 0u64;
        for round in 0..2000 {
            if rng.chance(0.6) || q.is_empty() {
                // Coarse quantisation makes duplicate timestamps common.
                let t = SimTime::from_secs((rng.range_f64(0.0, 50.0) * 4.0).floor() / 4.0);
                q.push(t, payload);
                model.push(t, payload);
                payload += 1;
                if round % 7 == 0 {
                    // Same-time burst: FIFO among equals is the contract.
                    for _ in 0..3 {
                        q.push(t, payload);
                        model.push(t, payload);
                        payload += 1;
                    }
                }
            } else {
                let got = q.pop().map(|e| (e.time, e.payload));
                assert_eq!(got, model.pop(), "divergence at round {round}");
                assert_eq!(
                    q.peek_time(),
                    model
                        .pending
                        .iter()
                        .map(|&(t, s, _)| (t, s))
                        .min()
                        .map(|(t, _)| t)
                );
            }
            assert_eq!(q.len(), model.pending.len());
        }
        while let Some(e) = q.pop() {
            assert_eq!(Some((e.time, e.payload)), model.pop());
        }
        assert!(model.pop().is_none());
    }

    /// FIFO among equal timestamps holds for a large burst, with an
    /// earlier and a later event around it.
    #[test]
    fn fifo_contract_survives_a_large_burst() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(7.25);
        for i in 0..1000u32 {
            q.push(t, i);
        }
        q.push(SimTime::from_secs(1.0), u32::MAX);
        q.push(SimTime::from_secs(90.0), u32::MAX - 1);
        assert_eq!(q.pop().unwrap().payload, u32::MAX);
        for i in 0..1000u32 {
            assert_eq!(q.pop().unwrap().payload, i, "tie order broken at {i}");
        }
        assert_eq!(q.pop().unwrap().payload, u32::MAX - 1);
        assert!(q.is_empty());
    }

    /// Far-future outliers still pop in key order.
    #[test]
    fn far_future_events_pop_in_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_hours(2.0), "soak");
        q.push(SimTime::from_secs(0.5), "now");
        q.push(SimTime::from_hours(2.0), "soak2");
        assert_eq!(q.pop().unwrap().payload, "now");
        assert_eq!(q.pop().unwrap().payload, "soak");
        assert_eq!(q.pop().unwrap().payload, "soak2");
    }

    /// `clear` must not reset the sequence counter: events pushed after a
    /// clear still order FIFO against nothing, and a fresh same-time batch
    /// stays in its own insertion order.
    #[test]
    fn clear_preserves_seq_monotonicity() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1.0), 0);
        q.clear();
        let t = SimTime::from_secs(1.0);
        for i in 1..=5 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    /// A generation-filtered plain queue — the pattern keyed slots
    /// replace. Every arm pushes a fresh entry stamped with the slot's
    /// current generation; a reschedule bumps the generation, so older
    /// entries become stale and are discarded when they pop. A re-arm
    /// with no reschedule in between pushes a duplicate under the same
    /// generation, and the earlier of the two is the one that pops live.
    struct GenerationModel {
        q: ModelQueue,
        gen: Vec<u64>,
        /// Whether the slot's current generation already has an entry.
        armed: Vec<bool>,
    }

    impl GenerationModel {
        fn payload(slot: usize, gen: u64) -> u64 {
            (gen << 8) | slot as u64
        }
        fn live(&self, payload: u64) -> bool {
            payload >> 63 == 1 || payload >> 8 == self.gen[(payload & 0xff) as usize]
        }
        fn pop(&mut self) -> Option<(SimTime, u64)> {
            loop {
                let (t, p) = self.q.pop()?;
                if self.live(p) {
                    if p >> 63 == 0 {
                        // A live wake's handler always reschedules: that
                        // makes any same-generation duplicate stale.
                        let slot = (p & 0xff) as usize;
                        self.gen[slot] += 1;
                        self.armed[slot] = false;
                    }
                    return Some((t, p));
                }
            }
        }
    }

    /// Keyed slots, differentially: random plain pushes, reschedules
    /// (re-key), re-arms with no reschedule (keep the key, burn a seq),
    /// cancels and pops — with coarse timestamps so equal times are
    /// common — must pop exactly the live entries of the
    /// generation-filtered model, in the same order with the same times.
    #[test]
    fn keyed_slots_match_the_generation_filtered_model() {
        const SLOTS: usize = 6;
        for seed in 0..20u64 {
            let mut rng = crate::Rng::new(0xC0DE_0000 + seed);
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut m = GenerationModel {
                q: ModelQueue::new(),
                gen: vec![0; SLOTS],
                armed: vec![false; SLOTS],
            };
            // Each slot's current wake time (set by its last reschedule).
            let mut wake: Vec<Option<SimTime>> = vec![None; SLOTS];
            let mut plain_id = 1u64 << 63;
            for round in 0..3000 {
                let t = SimTime::from_secs((rng.range_f64(0.0, 40.0) * 2.0).floor() / 2.0);
                let slot = rng.below(SLOTS);
                match rng.below(10) {
                    0 | 1 => {
                        q.push(t, plain_id);
                        m.q.push(t, plain_id);
                        plain_id += 1;
                    }
                    2..=4 => {
                        // Reschedule to `t`, then arm.
                        m.gen[slot] += 1;
                        wake[slot] = Some(t);
                        let p = GenerationModel::payload(slot, m.gen[slot]);
                        m.q.push(t, p);
                        m.armed[slot] = true;
                        q.push_keyed(slot, t, p);
                    }
                    5 => {
                        // Re-arm with no reschedule: the model pushes a
                        // duplicate under the same generation.
                        let Some(w) = wake[slot] else { continue };
                        m.q.push(w, GenerationModel::payload(slot, m.gen[slot]));
                        assert!(m.armed[slot]);
                        assert_eq!(q.armed(slot).map(|k| k.0), Some(w));
                        q.skip_seq();
                    }
                    6 => {
                        // Reschedule to "no wake" (or a failure).
                        m.gen[slot] += 1;
                        m.armed[slot] = false;
                        wake[slot] = None;
                        q.cancel(slot);
                    }
                    _ => {
                        let got = q.pop().map(|e| (e.time, e.payload));
                        assert_eq!(got, m.pop(), "seed {seed} round {round}");
                        if let Some((_, p)) = got {
                            if p >> 63 == 0 {
                                wake[(p & 0xff) as usize] = None;
                            }
                        }
                    }
                }
                assert_eq!(q.armed(slot).is_some(), m.armed[slot]);
            }
            while let Some(e) = q.pop() {
                assert_eq!(Some((e.time, e.payload)), m.pop(), "seed {seed} drain");
            }
            assert_eq!(m.pop(), None);
        }
    }
}
