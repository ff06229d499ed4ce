//! Parallel epochs: barrier-to-barrier bursts for *every* shard below a
//! common horizon, executed independently and merged back in global
//! `(time, seq)` order.
//!
//! The classic protocol in [`crate::sharded`] elects one shard per run.
//! An **epoch** generalizes the election: given a designated *plane*
//! shard (the shard that owns globally-coupled events), every *other*
//! shard whose head key lies strictly below the plane's head key is
//! elected at once, because each of their pending events precedes
//! anything the plane — and therefore any cross-shard coupling routed
//! through the plane — could do. Each elected shard's burst runs against
//! a private [`WorkerQueue`] with **no access to shared state**, so the
//! bursts can execute on worker threads; the barrier then replays their
//! outcomes in the exact global key order via [`ShardedQueue::end_epoch`].
//!
//! # Determinism argument
//!
//! The single-queue pop order is the total `(time, seq)` order. An epoch
//! with horizon `H` (the plane's head key) processes exactly the events
//! with key `< H`:
//!
//! * Pre-epoch events on elected shards with key `< H` are popped by
//!   their burst ([`WorkerQueue::pop`] enforces the bound).
//! * A burst's *own-shard* pushes are kept in a provisional local queue
//!   ordered by `(time, push index)`; a local event is popped only while
//!   its time is strictly below `H.time`. Since every final sequence
//!   number assigned at the barrier is `≥` the epoch's base (and
//!   `H.seq <` base), this time-only bound equals the full-key bound.
//! * *Foreign* pushes (to another shard) are buffered, never popped
//!   in-epoch, and must land at `time ≥ H.time` — the classic conservative
//!   lookahead contract, asserted at push time — so their final keys lie
//!   `> H`, after the epoch window, exactly where the single queue would
//!   process them.
//!
//! At the barrier the per-burst logs are k-way merged by final key. A
//! local entry's final sequence number is always resolvable when it
//! reaches the merge head, because the event that pushed it sits earlier
//! in the *same* burst log (its key is smaller), and visiting that
//! trigger assigns sequence numbers to its pushes in push order — which
//! is exactly the order the single-threaded loop would have assigned
//! them, since it processes the epoch's events in the same key order and
//! every push draws the next counter value at its trigger's turn. The
//! merged visit sequence is therefore bit-identical to the single-queue
//! pop sequence, independent of how many OS threads executed the bursts.
//!
//! Thread count is *not* part of the protocol: it only decides which
//! thread runs a burst, so any thread count (including fully inline
//! execution) produces identical queues, identical sequence numbers, and
//! an identical visit order. `parallel_epoch_model` pins this by
//! enumerating every interleaving of two bursts' steps, and the
//! `parallel_queue_prop` integration test fuzzes whole epoch/run
//! schedules against the plain [`EventQueue`].

use crate::event::EventQueue;
use crate::sharded::ShardedQueue;
use crate::time::SimTime;

/// Witness of an active epoch: which shards were elected (ascending head
/// key) and the shared horizon. Returned by [`ShardedQueue::begin_epoch`],
/// consumed by [`ShardedQueue::end_epoch`]. Not `Clone`: exactly one
/// epoch can be in flight.
#[derive(Debug)]
pub struct EpochToken {
    /// Elected shards with their pre-epoch head keys, ascending by key.
    elected: Vec<(usize, (SimTime, u64))>,
    /// The plane's head key; every epoch event's key is strictly below
    /// it. `None` when the plane is empty (the bursts drain fully).
    horizon: Option<(SimTime, u64)>,
    /// The shared sequence counter at election; final sequence numbers
    /// assigned at the barrier start here.
    base_seq: u64,
}

impl EpochToken {
    /// Number of elected shards.
    pub fn n_elected(&self) -> usize {
        self.elected.len()
    }

    /// The `i`-th elected shard (ascending pre-epoch head key).
    pub fn shard(&self, i: usize) -> usize {
        self.elected[i].0
    }

    /// The `i`-th elected shard's pre-epoch head key.
    pub fn head(&self, i: usize) -> (SimTime, u64) {
        self.elected[i].1
    }

    /// The epoch horizon (the plane's head key), `None` when unbounded.
    pub fn horizon(&self) -> Option<(SimTime, u64)> {
        self.horizon
    }
}

/// How a burst log entry locates the event it processed.
#[derive(Clone, Copy, Debug)]
enum EntryCls {
    /// A pre-epoch event; carries its (final) sequence number.
    Real(u64),
    /// An event the burst itself pushed; carries its push index, whose
    /// final sequence number is assigned at the barrier.
    Local(u32),
}

/// One processed event in a burst log: its time, identity, caller
/// annotation, and the range of pushes it performed.
#[derive(Debug)]
struct BurstEntry<E> {
    time: SimTime,
    cls: EntryCls,
    extra: E,
    push_start: u32,
    push_len: u32,
}

/// A foreign push buffered until the barrier.
#[derive(Debug)]
struct ForeignPush<T> {
    k: u32,
    shard: usize,
    time: SimTime,
    payload: T,
}

/// An event popped from a [`WorkerQueue`], waiting to be
/// [`WorkerQueue::record`]ed or [`WorkerQueue::discard`]ed.
#[derive(Debug)]
struct PendingPop {
    time: SimTime,
    cls: EntryCls,
    push_start: u32,
}

/// One elected shard's private queue during an epoch: the shard's real
/// event queue (detached from the [`ShardedQueue`]), a provisional queue
/// for the burst's own pushes, a buffer for foreign pushes, and the log
/// the barrier merges. Self-contained — a burst needs no access to the
/// `ShardedQueue` — so it can move to a worker thread.
///
/// The shell is reusable: [`ShardedQueue::load_worker`] re-arms it for
/// the next epoch without reallocating its buffers, which keeps the
/// epoch path allocation-free in steady state.
#[derive(Debug)]
pub struct WorkerQueue<T, E> {
    shard: usize,
    horizon: Option<(SimTime, u64)>,
    head: (SimTime, u64),
    /// The shard's detached pre-epoch queue (final sequence numbers).
    real: EventQueue<T>,
    /// Own-shard pushes made during the burst, keyed `(time, push idx)`.
    local: EventQueue<T>,
    n_pushes: u32,
    foreign: Vec<ForeignPush<T>>,
    log: Vec<BurstEntry<E>>,
    /// Push index → final sequence number (`u64::MAX` until assigned at
    /// the barrier).
    final_seq: Vec<u64>,
    pending: Option<PendingPop>,
    stalled: bool,
    loaded: bool,
}

impl<T, E> Default for WorkerQueue<T, E> {
    /// An empty shell, regardless of whether `T`/`E` implement `Default`
    /// (so shells can be `mem::take`n for thread hand-off).
    fn default() -> Self {
        Self::new()
    }
}

impl<T, E> WorkerQueue<T, E> {
    /// An empty, unloaded shell.
    pub fn new() -> Self {
        WorkerQueue {
            shard: 0,
            horizon: None,
            head: (SimTime::ZERO, 0),
            real: EventQueue::new(),
            local: EventQueue::new(),
            n_pushes: 0,
            foreign: Vec::new(),
            log: Vec::new(),
            final_seq: Vec::new(),
            pending: None,
            stalled: false,
            loaded: false,
        }
    }

    /// The shard this worker was loaded with.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The epoch horizon this burst is bounded by (`None` = drain fully).
    pub fn horizon(&self) -> Option<(SimTime, u64)> {
        self.horizon
    }

    /// The shard's pre-epoch head key.
    pub fn head(&self) -> (SimTime, u64) {
        self.head
    }

    /// Events processed (recorded, i.e. excluding discarded pops) so far.
    pub fn events(&self) -> u64 {
        self.log.len() as u64
    }

    /// After [`ShardedQueue::end_epoch`]: `true` when the burst ended
    /// with events still pending on the shard (it stalled at the epoch
    /// horizon rather than draining).
    pub fn stalled(&self) -> bool {
        self.stalled
    }

    /// Foreign pushes this burst buffered for other shards (delivered at
    /// the barrier; the buffer drains in [`ShardedQueue::end_epoch`], so
    /// read this between the burst and the merge). An execution-plane
    /// observation point: the count never feeds back into the run.
    pub fn foreign_pushes(&self) -> usize {
        self.foreign.len()
    }

    /// Pops the burst's next event — the earlier head of the real and
    /// local queues — while it stays below the epoch horizon. At equal
    /// times the real head wins: its sequence number predates the epoch,
    /// while any local push's final number is assigned after the base.
    /// The caller must [`WorkerQueue::record`] or
    /// [`WorkerQueue::discard`] the event before the next pop.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        assert!(
            self.pending.is_none(),
            "record or discard the previous event before popping"
        );
        let real_key = self.real.peek_key();
        let local_key = self.local.peek_key();
        let pick_real = match (real_key, local_key) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(r), Some(l)) => r.0 <= l.0,
        };
        if pick_real {
            let key = real_key.unwrap();
            if self.horizon.is_some_and(|h| key >= h) {
                return None;
            }
            let e = self.real.pop().unwrap();
            self.pending = Some(PendingPop {
                time: e.time,
                cls: EntryCls::Real(e.seq),
                push_start: self.n_pushes,
            });
            Some((e.time, e.payload))
        } else {
            let (time, _) = local_key.unwrap();
            if self.horizon.is_some_and(|h| time >= h.0) {
                return None;
            }
            let e = self.local.pop().unwrap();
            self.pending = Some(PendingPop {
                time: e.time,
                cls: EntryCls::Local(e.seq as u32),
                push_start: self.n_pushes,
            });
            Some((e.time, e.payload))
        }
    }

    /// Schedules `payload` at `time` on this burst's own shard. Allowed
    /// only while handling a popped event (pushes are attributed to it).
    pub fn push(&mut self, time: SimTime, payload: T) {
        let pending = self.pending.as_ref().expect("push outside a popped event");
        debug_assert!(time >= pending.time, "push into the past");
        let k = self.n_pushes;
        self.n_pushes += 1;
        self.final_seq.push(u64::MAX);
        self.local.push_with_seq(time, k as u64, payload);
    }

    /// Arms keyed `slot` at `time` on this burst's own shard (see
    /// [`EventQueue::push_keyed`]). The slot's pending entry — on the
    /// detached shard queue or from an earlier push in this burst — is
    /// replaced, so the slot keeps at most one entry; its final
    /// sequence number is assigned at the barrier like any own-shard
    /// push.
    pub fn push_keyed(&mut self, slot: usize, time: SimTime, payload: T) {
        let pending = self.pending.as_ref().expect("push outside a popped event");
        debug_assert!(time >= pending.time, "push into the past");
        let k = self.n_pushes;
        self.n_pushes += 1;
        self.final_seq.push(u64::MAX);
        self.real.cancel(slot);
        self.local
            .push_keyed_with_seq(slot, time, k as u64, payload);
    }

    /// Buffers a push onto *another* shard until the barrier. Requires a
    /// bounded epoch and `time ≥` the horizon's time — the conservative
    /// lookahead contract that keeps the target's burst (and the merge)
    /// oblivious to in-flight foreign traffic.
    pub fn push_foreign(&mut self, shard: usize, time: SimTime, payload: T) {
        assert!(self.pending.is_some(), "push outside a popped event");
        assert_ne!(shard, self.shard, "foreign push to own shard");
        let h = self
            .horizon
            .expect("foreign pushes require a bounded epoch");
        assert!(time >= h.0, "foreign push below the epoch horizon");
        let k = self.n_pushes;
        self.n_pushes += 1;
        self.final_seq.push(u64::MAX);
        self.foreign.push(ForeignPush {
            k,
            shard,
            time,
            payload,
        });
    }

    /// Commits the popped event to the burst log with a caller
    /// annotation `extra` (replayed by the barrier's visit callback) and
    /// the range of pushes it made.
    pub fn record(&mut self, extra: E) {
        let p = self.pending.take().expect("record without a popped event");
        self.log.push(BurstEntry {
            time: p.time,
            cls: p.cls,
            extra,
            push_start: p.push_start,
            push_len: self.n_pushes - p.push_start,
        });
    }

    /// Drops the popped event without logging it. The event must not
    /// have pushed anything; it simply vanishes, exactly as an event the
    /// sequential loop skips without dispatching.
    pub fn discard(&mut self) {
        let p = self.pending.take().expect("discard without a popped event");
        assert_eq!(p.push_start, self.n_pushes, "discarded event made pushes");
    }
}

impl<T> ShardedQueue<T> {
    /// Epoch barrier: elects every shard other than `plane` whose head
    /// key lies strictly below the plane's head key (all pending work
    /// when the plane is empty). Returns `None` when no shard qualifies —
    /// fall back to a classic [`ShardedQueue::begin_run`], which will
    /// elect the plane. The elected list is ordered by ascending head
    /// key, the order the sequential loop would first touch each shard.
    pub fn begin_epoch(&mut self, plane: usize) -> Option<EpochToken> {
        debug_assert!(self.active.is_none(), "begin_epoch during a run");
        let horizon = self.shards[plane].peek_key();
        let mut elected: Vec<(usize, (SimTime, u64))> = Vec::new();
        for (i, q) in self.shards.iter().enumerate() {
            if i == plane {
                continue;
            }
            let Some(key) = q.peek_key() else { continue };
            if horizon.is_none_or(|h| key < h) {
                elected.push((i, key));
            }
        }
        if elected.is_empty() {
            return None;
        }
        elected.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        Some(EpochToken {
            elected,
            horizon,
            base_seq: self.next_seq,
        })
    }

    /// Arms `w` as the burst worker for the `i`-th elected shard:
    /// detaches that shard's queue into the shell and resets the shell's
    /// per-epoch state, reusing its buffers.
    pub fn load_worker<E>(&mut self, token: &EpochToken, i: usize, w: &mut WorkerQueue<T, E>) {
        assert!(!w.loaded, "worker shell already loaded");
        let (shard, head) = token.elected[i];
        w.shard = shard;
        w.horizon = token.horizon;
        w.head = head;
        w.real = std::mem::take(&mut self.shards[shard]);
        debug_assert_eq!(w.local.len(), 0);
        w.n_pushes = 0;
        w.foreign.clear();
        w.log.clear();
        w.final_seq.clear();
        w.pending = None;
        w.stalled = false;
        w.loaded = true;
        self.len -= w.real.len();
    }

    /// Epoch barrier merge. Replays the bursts' logs in global final-key
    /// order, assigning final sequence numbers to every push at its
    /// trigger's turn (the single-threaded assignment order), calling
    /// `visit(shard, time, &extra)` per event; then re-attaches the
    /// shards' queues with unconsumed local pushes folded in and
    /// delivers the buffered foreign pushes. `workers` must be the
    /// shells loaded for this token, in elected order.
    pub fn end_epoch<E>(
        &mut self,
        token: EpochToken,
        workers: &mut [&mut WorkerQueue<T, E>],
        mut visit: impl FnMut(usize, SimTime, &E),
    ) {
        assert_eq!(workers.len(), token.elected.len(), "worker set mismatch");
        debug_assert_eq!(token.base_seq, self.next_seq, "pushes during an epoch");
        for (w, &(shard, _)) in workers.iter().zip(&token.elected) {
            assert!(w.loaded && w.shard == shard, "worker/token mismatch");
            assert!(w.pending.is_none(), "unresolved pop at the barrier");
        }
        let mut next_seq = token.base_seq;
        let mut cursors = vec![0usize; workers.len()];
        let mut last_key: Option<(SimTime, u64)> = None;
        loop {
            // The merge head: the smallest resolved final key among the
            // logs' cursors. A `Local` head is always resolvable because
            // its trigger precedes it in the same log (strictly smaller
            // key) and assigned its final number when visited.
            let mut best: Option<(usize, (SimTime, u64))> = None;
            for (wi, w) in workers.iter().enumerate() {
                let Some(e) = w.log.get(cursors[wi]) else {
                    continue;
                };
                let key = match e.cls {
                    EntryCls::Real(seq) => (e.time, seq),
                    EntryCls::Local(k) => {
                        let s = w.final_seq[k as usize];
                        debug_assert_ne!(s, u64::MAX, "unresolved local merge head");
                        (e.time, s)
                    }
                };
                if best.is_none_or(|(_, bk)| key < bk) {
                    best = Some((wi, key));
                }
            }
            let Some((wi, key)) = best else { break };
            debug_assert!(
                last_key.is_none_or(|p| p < key),
                "merge order not strictly increasing"
            );
            debug_assert!(
                token.horizon.is_none_or(|h| key < h),
                "epoch event at or past the horizon"
            );
            last_key = Some(key);
            let w = &mut *workers[wi];
            let e = &w.log[cursors[wi]];
            cursors[wi] += 1;
            let (start, len) = (e.push_start, e.push_len);
            for k in start..start + len {
                w.final_seq[k as usize] = next_seq;
                next_seq += 1;
            }
            let e = &w.log[cursors[wi] - 1];
            visit(w.shard, e.time, &e.extra);
        }
        // Re-attach the real queues first (a foreign push may target an
        // elected shard, whose placeholder queue would otherwise be
        // overwritten), folding unconsumed local pushes in with their
        // final sequence numbers (keyed ones back into their slots).
        for w in workers.iter_mut() {
            let WorkerQueue {
                real,
                local,
                final_seq,
                ..
            } = &mut **w;
            for (slot, e) in local.drain() {
                let s = final_seq[e.seq as usize];
                debug_assert_ne!(s, u64::MAX, "local push never attributed");
                match slot {
                    Some(slot) => {
                        let replaced = real.push_keyed_with_seq(slot, e.time, s, e.payload);
                        debug_assert!(replaced.is_none(), "slot armed twice");
                    }
                    None => real.push_with_seq(e.time, s, e.payload),
                }
            }
            w.stalled = !w.real.is_empty();
            self.len += w.real.len();
            self.shards[w.shard] = std::mem::take(&mut w.real);
            w.loaded = false;
        }
        for w in workers.iter_mut() {
            for fp in w.foreign.drain(..) {
                let s = w.final_seq[fp.k as usize];
                debug_assert_ne!(s, u64::MAX, "foreign push never attributed");
                self.shards[fp.shard].push_with_seq(fp.time, s, fp.payload);
                self.len += 1;
            }
        }
        self.next_seq = next_seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;

    /// The scripted "handler" both the model and the oracle run: what a
    /// popped payload pushes. Only seed payloads (< 100) push, so the
    /// recursion is bounded. Foreign pushes land at or above the plane
    /// horizon time (10.0), per the epoch contract.
    fn script(p: u64, now: SimTime) -> Vec<(Target, SimTime, u64)> {
        if p >= 100 {
            return Vec::new();
        }
        match p % 4 {
            // An own-shard push below the horizon: consumed in-epoch,
            // exercising the provisional local queue and `Local` log
            // entries in the merge.
            0 => vec![(Target::Own, now + 1.5, 100 + p)],
            // A foreign push to the *other* worker at exactly the
            // horizon time (the tightest legal key).
            1 => vec![(Target::OtherWorker, SimTime::from_secs(10.0), 200 + p)],
            // A foreign push to the plane plus an own-shard push past
            // the horizon (reinstalled unconsumed at the barrier).
            2 => vec![
                (Target::Plane, SimTime::from_secs(15.0), 300 + p),
                (Target::Own, now + 30.0, 400 + p),
            ],
            _ => Vec::new(),
        }
    }

    #[derive(Clone, Copy)]
    enum Target {
        Own,
        OtherWorker,
        Plane,
    }

    /// Initial pushes: plane (shard 0) holds the horizon events, shards
    /// 1 and 2 the worker events. Same order on every rebuild, so
    /// sequence numbers are reproducible.
    fn build() -> ShardedQueue<u64> {
        let mut q = ShardedQueue::new(3, 16);
        q.push(0, SimTime::from_secs(10.0), 90);
        q.push(0, SimTime::from_secs(12.0), 91);
        q.push(1, SimTime::from_secs(1.0), 0);
        q.push(1, SimTime::from_secs(3.0), 1);
        q.push(1, SimTime::from_secs(6.0), 2);
        q.push(1, SimTime::from_secs(8.0), 3);
        q.push(2, SimTime::from_secs(2.0), 4);
        q.push(2, SimTime::from_secs(4.0), 5);
        q.push(2, SimTime::from_secs(7.0), 6);
        q.push(2, SimTime::from_secs(8.5), 7);
        q
    }

    /// One burst step on worker `w` (other worker shard `other`): pop,
    /// run the script, record. Returns false when the burst is done.
    fn step(w: &mut WorkerQueue<u64, u64>, other: usize) -> bool {
        let Some((now, p)) = w.pop() else {
            return false;
        };
        for (target, t, payload) in script(p, now) {
            match target {
                Target::Own => w.push(t, payload),
                Target::OtherWorker => w.push_foreign(other, t, payload),
                Target::Plane => w.push_foreign(0, t, payload),
            }
        }
        w.record(p);
        true
    }

    /// Runs one epoch with the two workers' steps executed in the
    /// interleaving given by `order` (false = worker on shard 1, true =
    /// worker on shard 2), then drains the post-barrier queue with
    /// classic runs. Returns the canonical observable state: the epoch's
    /// visit sequence and the full residual pop order with final keys.
    #[allow(clippy::type_complexity)]
    fn run_interleaving(order: &[bool]) -> (Vec<(usize, SimTime, u64)>, Vec<(SimTime, u64, u64)>) {
        let mut q = build();
        let token = q.begin_epoch(0).expect("workers below the plane head");
        assert_eq!(token.n_elected(), 2);
        let mut wa: WorkerQueue<u64, u64> = WorkerQueue::new();
        let mut wb: WorkerQueue<u64, u64> = WorkerQueue::new();
        q.load_worker(&token, 0, &mut wa);
        q.load_worker(&token, 1, &mut wb);
        let (sa, sb) = (wa.shard(), wb.shard());
        for &pick_b in order {
            let ok = if pick_b {
                step(&mut wb, 3 - sb)
            } else {
                step(&mut wa, 3 - sa)
            };
            assert!(ok, "scripted step had nothing to pop");
        }
        assert!(wa.pop().is_none(), "worker A burst not exhausted");
        assert!(wb.pop().is_none(), "worker B burst not exhausted");
        let mut visits = Vec::new();
        let mut workers = [&mut wa, &mut wb];
        q.end_epoch(token, &mut workers, |shard, time, &p| {
            visits.push((shard, time, p));
        });
        // Residual state, observed through the classic barrier protocol.
        let mut rest = Vec::new();
        while let Some(tok) = q.begin_run() {
            while let Some(e) = q.pop_run(&tok) {
                rest.push((e.time, e.seq, e.payload));
            }
            q.end_run(tok);
        }
        assert!(q.is_empty());
        (visits, rest)
    }

    /// Counts each worker's burst length (independent of interleaving,
    /// since the bursts share nothing).
    fn burst_lengths() -> (usize, usize) {
        let mut q = build();
        let token = q.begin_epoch(0).unwrap();
        let mut wa: WorkerQueue<u64, u64> = WorkerQueue::new();
        let mut wb: WorkerQueue<u64, u64> = WorkerQueue::new();
        q.load_worker(&token, 0, &mut wa);
        q.load_worker(&token, 1, &mut wb);
        let (mut na, mut nb) = (0, 0);
        let (oa, ob) = (3 - wa.shard(), 3 - wb.shard());
        while step(&mut wa, oa) {
            na += 1;
        }
        while step(&mut wb, ob) {
            nb += 1;
        }
        let mut workers = [&mut wa, &mut wb];
        q.end_epoch(token, &mut workers, |_, _, _| {});
        (na, nb)
    }

    /// The sequential oracle: the same pushes and the same script on one
    /// plain `EventQueue`. The epoch window is every pop below the plane
    /// head key; what remains afterwards is the expected post-barrier
    /// state.
    #[allow(clippy::type_complexity)]
    fn oracle() -> (Vec<(SimTime, u64)>, Vec<(SimTime, u64, u64)>) {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10.0), 90);
        q.push(SimTime::from_secs(12.0), 91);
        q.push(SimTime::from_secs(1.0), 0);
        q.push(SimTime::from_secs(3.0), 1);
        q.push(SimTime::from_secs(6.0), 2);
        q.push(SimTime::from_secs(8.0), 3);
        q.push(SimTime::from_secs(2.0), 4);
        q.push(SimTime::from_secs(4.0), 5);
        q.push(SimTime::from_secs(7.0), 6);
        q.push(SimTime::from_secs(8.5), 7);
        let horizon = (SimTime::from_secs(10.0), 0u64);
        let mut visits = Vec::new();
        while q.peek_key().is_some_and(|k| k < horizon) {
            let e = q.pop().unwrap();
            for (_, t, payload) in script(e.payload, e.time) {
                q.push(t, payload);
            }
            visits.push((e.time, e.payload));
        }
        let mut rest = Vec::new();
        while let Some(e) = q.pop() {
            rest.push((e.time, e.seq, e.payload));
        }
        (visits, rest)
    }

    /// Satellite: every interleaving of two workers' burst steps —
    /// including own-shard, cross-worker, and plane-bound pushes — must
    /// yield the same visit order and the same post-barrier queue state
    /// (times, payloads, *and* final sequence numbers) as the sequential
    /// single-queue oracle. The bursts share no state, so enumerating
    /// step interleavings covers every possible thread schedule; there
    /// is no hidden nondeterminism left to sample.
    #[test]
    fn parallel_epoch_model() {
        let (na, nb) = burst_lengths();
        assert!(na >= 3 && nb >= 3, "script should grow both bursts");
        let (oracle_visits, oracle_rest) = oracle();
        let n = na + nb;
        assert!(n <= 16, "keep the enumeration exhaustive but bounded");
        let mut checked = 0u32;
        type Run = (Vec<(usize, SimTime, u64)>, Vec<(SimTime, u64, u64)>);
        let mut reference: Option<Run> = None;
        for mask in 0u32..(1 << n) {
            if mask.count_ones() as usize != nb {
                continue;
            }
            let order: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
            let (visits, rest) = run_interleaving(&order);
            // Against the oracle: the visit stream is the oracle's pop
            // stream below the horizon, and the residual queue matches
            // key-for-key (same final sequence numbers).
            let visit_tp: Vec<(SimTime, u64)> = visits.iter().map(|&(_, t, p)| (t, p)).collect();
            assert_eq!(visit_tp, oracle_visits, "mask {mask:0n$b}");
            assert_eq!(rest, oracle_rest, "mask {mask:0n$b}");
            // And against every other interleaving (shards included).
            match &reference {
                None => reference = Some((visits, rest)),
                Some(r) => assert_eq!(*r, (visits, rest), "mask {mask:0n$b}"),
            }
            checked += 1;
        }
        assert!(checked > 100, "expected a dense interleaving space");
    }

    /// Election basics: only shards whose head key lies strictly below
    /// the plane head are elected, in ascending head-key order; with an
    /// empty plane every non-empty shard is elected and the epoch is
    /// unbounded.
    #[test]
    fn epoch_election_respects_the_plane_head() {
        let mut q = ShardedQueue::new(3, 8);
        q.push(0, SimTime::from_secs(5.0), 50);
        q.push(1, SimTime::from_secs(7.0), 70); // at/above plane head: not elected
        q.push(2, SimTime::from_secs(2.0), 20);
        let token = q.begin_epoch(0).unwrap();
        assert_eq!(token.n_elected(), 1);
        assert_eq!(token.shard(0), 2);
        assert_eq!(token.horizon(), Some((SimTime::from_secs(5.0), 0)));
        let mut w: WorkerQueue<u64, ()> = WorkerQueue::new();
        q.load_worker(&token, 0, &mut w);
        let (t, p) = w.pop().unwrap();
        assert_eq!((t, p), (SimTime::from_secs(2.0), 20));
        w.record(());
        assert!(w.pop().is_none());
        let mut workers = [&mut w];
        let mut n = 0;
        q.end_epoch(token, &mut workers, |shard, _, _| {
            assert_eq!(shard, 2);
            n += 1;
        });
        assert_eq!(n, 1);
        assert!(!w.stalled());
        assert_eq!(q.len(), 2);

        // Plane empty: unbounded epoch over all remaining shards.
        let mut q = ShardedQueue::new(3, 8);
        q.push(1, SimTime::from_secs(1.0), 1);
        q.push(2, SimTime::from_secs(2.0), 2);
        let token = q.begin_epoch(0).unwrap();
        assert_eq!(token.n_elected(), 2);
        assert_eq!(token.horizon(), None);
        assert_eq!((token.shard(0), token.shard(1)), (1, 2));

        // Nothing below the plane head: no epoch, classic run instead.
        let mut q = ShardedQueue::new(2, 8);
        q.push(0, SimTime::from_secs(1.0), 1);
        q.push(1, SimTime::from_secs(4.0), 4);
        assert!(q.begin_epoch(0).is_none());
        assert_eq!(q.begin_run().map(|t| t.shard()), Some(0));
    }

    /// A discarded pop vanishes without a log entry, without a sequence
    /// number, and without counting as an event — exactly like an event
    /// the sequential loop skips without dispatching.
    #[test]
    fn discard_is_invisible_at_the_barrier() {
        let mut q = ShardedQueue::new(2, 8);
        q.push(0, SimTime::from_secs(9.0), 99);
        q.push(1, SimTime::from_secs(1.0), 1);
        q.push(1, SimTime::from_secs(2.0), 2);
        let token = q.begin_epoch(0).unwrap();
        let mut w: WorkerQueue<u64, u64> = WorkerQueue::new();
        q.load_worker(&token, 0, &mut w);
        let (_, p) = w.pop().unwrap();
        assert_eq!(p, 1);
        w.discard();
        let (t, p) = w.pop().unwrap();
        assert_eq!(p, 2);
        w.push(t + 1.0, 20);
        w.record(p);
        // The own-shard push at t=3 is below the horizon (9.0), so the
        // burst consumes it too.
        let (_, p) = w.pop().unwrap();
        assert_eq!(p, 20);
        w.record(p);
        assert!(w.pop().is_none());
        assert_eq!(w.events(), 2, "the discarded pop is not an event");
        let mut visits = Vec::new();
        let mut workers = [&mut w];
        q.end_epoch(token, &mut workers, |_, _, &p| visits.push(p));
        assert_eq!(visits, vec![2, 20]);
        let mut order = Vec::new();
        while let Some(tok) = q.begin_run() {
            while let Some(e) = q.pop_run(&tok) {
                order.push((e.time, e.seq, e.payload));
            }
            q.end_run(tok);
        }
        assert_eq!(order, vec![(SimTime::from_secs(9.0), 0, 99)]);
    }
}
