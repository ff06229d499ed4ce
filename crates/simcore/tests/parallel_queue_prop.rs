//! Property test for the parallel epoch protocol: for random
//! push/pop/foreign-push schedules, the full epoch + classic-run loop
//! over a [`ShardedQueue`] visits exactly the plain [`EventQueue`]'s
//! pop order (extends the sharded `barrier_matches_single_queue`
//! property to the threaded path).
//!
//! The harness mirrors how `sct-core` drives the queue: epochs are
//! attempted until no shard is electable, then one classic run, until
//! the queue drains. Scripted follow-ups exercise every push kind —
//! own-shard pushes below and above the horizon, and foreign pushes at
//! or above it. Foreign pushes are gated on the epoch being bounded
//! (`WorkerQueue::horizon().is_some()`); the oracle mirrors that gate
//! with "initial plane events not yet popped", which is equivalent:
//! an epoch event precedes the plane's head in global order, so the
//! head is still unpopped exactly when the horizon exists.
//!
//! Every worker shard also owns one keyed slot, re-armed the way the
//! simulator re-arms a server's wake: worker events re-key their own
//! shard's slot (inside epoch bursts and classic runs alike), and plane
//! events re-arm a worker shard's slot from across the barrier — with a
//! fresh key when it is idle, and keeping its key (burning a sequence
//! number) when it is already armed, i.e. a re-arm with no reschedule.
//! The oracle plays the same re-arms as generation-stamped plain pushes
//! and discards stale ones when they pop.

use proptest::prelude::*;
use sct_simcore::{EventQueue, ShardedQueue, SimTime, WorkerQueue};
use std::collections::HashMap;

/// One generated seed event: raw shard pick, time, own-push delay,
/// foreign-push delay, re-arm delay. The vendored proptest has no
/// `Option` strategy, so negative delays encode "no push".
type Entry = (usize, f64, f64, f64, f64);

fn delay(d: f64) -> Option<f64> {
    (d >= 0.0).then_some(d)
}

/// Foreign pushes land at `FBASE + now + d`, above every initial plane
/// time (< 1000) — hence at or above any epoch horizon.
const FBASE: f64 = 1000.0;

/// The follow-up rule for initial event `id` (pushed events never push,
/// bounding the recursion). Returns (own push time, foreign push
/// (target, time)). Plane events never push, so the plane's times stay
/// below `FBASE` for the whole run.
fn script(
    id: u32,
    now: SimTime,
    entries: &[Entry],
    shards: &[usize],
    n_shards: usize,
    foreign_ok: bool,
) -> (Option<SimTime>, Option<(usize, SimTime)>) {
    let Some(&(_, _, own_d, foreign_d, _)) = entries.get(id as usize) else {
        return (None, None); // a pushed event: no follow-ups
    };
    let my = shards[id as usize];
    if my == 0 {
        return (None, None);
    }
    let own = delay(own_d).map(|d| now + d);
    let foreign = delay(foreign_d).and_then(|d| {
        if !foreign_ok {
            return None;
        }
        // Deterministic non-plane target other than my own shard.
        let candidates: Vec<usize> = (1..n_shards).filter(|&s| s != my).collect();
        if candidates.is_empty() {
            return None;
        }
        let target = candidates[id as usize % candidates.len()];
        Some((target, SimTime::from_secs(FBASE) + (now.as_secs() + d)))
    });
    (own, foreign)
}

/// Ids of pushed events, unique per (parent, kind) since only initial
/// ids (< entries.len()) push.
fn own_id(entries: &[Entry], parent: u32) -> u32 {
    entries.len() as u32 + 3 * parent
}
fn foreign_id(entries: &[Entry], parent: u32) -> u32 {
    entries.len() as u32 + 3 * parent + 1
}
fn rearm_id(entries: &[Entry], parent: u32) -> u32 {
    entries.len() as u32 + 3 * parent + 2
}

/// A slot re-arm requested by initial event `id`: `(shard, time,
/// keep_if_armed)`. Worker shard `s` owns slot `s`. A worker event
/// re-keys its own shard's slot; a plane event re-arms a worker shard's
/// slot and keeps the existing key when that slot is already armed.
fn rearm(
    id: u32,
    now: SimTime,
    entries: &[Entry],
    shards: &[usize],
    n_shards: usize,
) -> Option<(usize, SimTime, bool)> {
    let &(_, _, _, _, d) = entries.get(id as usize)?;
    let t = now + delay(d)?;
    match shards[id as usize] {
        0 => Some((1 + id as usize % (n_shards - 1), t, true)),
        my => Some((my, t, false)),
    }
}

fn shard_assignment(entries: &[Entry], n_shards: usize) -> Vec<usize> {
    entries.iter().map(|&(raw, ..)| raw % n_shards).collect()
}

/// The oracle: one plain queue, same seed pushes, same scripts, popped
/// in the global total order.
fn run_oracle(entries: &[Entry], n_shards: usize) -> Vec<(SimTime, u32)> {
    let shards = shard_assignment(entries, n_shards);
    let mut plane_remaining = shards.iter().filter(|&&s| s == 0).count();
    let mut q = EventQueue::new();
    for (id, &(_, t, ..)) in entries.iter().enumerate() {
        q.push(SimTime::from_secs(t), id as u32);
    }
    // Per slot: generation, and the time its live entry is at (if any).
    let mut gen = vec![0u64; n_shards];
    let mut live: Vec<Option<SimTime>> = vec![None; n_shards];
    // Re-arm id → (slot, generation it was pushed under).
    let mut stamp: HashMap<u32, (usize, u64)> = HashMap::new();
    let mut visits = Vec::new();
    while let Some(e) = q.pop() {
        let id = e.payload;
        if let Some(&(slot, g)) = stamp.get(&id) {
            if g != gen[slot] {
                continue; // superseded by a later re-arm
            }
            // Popping a slot's entry reschedules it: any duplicate
            // pushed under the same generation is stale now.
            gen[slot] += 1;
            live[slot] = None;
        }
        if (id as usize) < shards.len() && shards[id as usize] == 0 {
            plane_remaining -= 1;
        }
        let (own, foreign) = script(id, e.time, entries, &shards, n_shards, plane_remaining > 0);
        if let Some(t) = own {
            q.push(t, own_id(entries, id));
        }
        if let Some((_, t)) = foreign {
            q.push(t, foreign_id(entries, id));
        }
        if let Some((slot, t, keep)) = rearm(id, e.time, entries, &shards, n_shards) {
            let rid = rearm_id(entries, id);
            match live[slot] {
                // No reschedule: a duplicate under the same generation,
                // at the live entry's time.
                Some(at) if keep => q.push(at, rid),
                _ => {
                    gen[slot] += 1;
                    live[slot] = Some(t);
                    q.push(t, rid);
                }
            }
            stamp.insert(rid, (slot, gen[slot]));
        }
        visits.push((e.time, id));
    }
    visits
}

/// The parallel runner: epochs until no shard is electable, then one
/// classic run, until the queue drains. `rev` flips the order bursts
/// execute in (the outcome must not care).
fn run_parallel(entries: &[Entry], n_shards: usize, rev: bool) -> Vec<(SimTime, u32)> {
    let shards = shard_assignment(entries, n_shards);
    let mut plane_remaining = shards.iter().filter(|&&s| s == 0).count();
    let mut q = ShardedQueue::new(n_shards, 8);
    for (id, &(_, t, ..)) in entries.iter().enumerate() {
        q.push(shards[id], SimTime::from_secs(t), id as u32);
    }
    let mut visits: Vec<(SimTime, u32)> = Vec::new();
    loop {
        while let Some(token) = q.begin_epoch(0) {
            let n = token.n_elected();
            let mut shells: Vec<WorkerQueue<u32, u32>> =
                (0..n).map(|_| WorkerQueue::new()).collect();
            for (i, w) in shells.iter_mut().enumerate() {
                q.load_worker(&token, i, w);
            }
            // Bursts share nothing, so any execution order must merge
            // identically; `rev` exercises two of them.
            let order: Vec<usize> = if rev {
                (0..n).rev().collect()
            } else {
                (0..n).collect()
            };
            for &i in &order {
                let w = &mut shells[i];
                while let Some((now, id)) = w.pop() {
                    let foreign_ok = w.horizon().is_some();
                    let (own, foreign) = script(id, now, entries, &shards, n_shards, foreign_ok);
                    if let Some(t) = own {
                        w.push(t, own_id(entries, id));
                    }
                    if let Some((target, t)) = foreign {
                        w.push_foreign(target, t, foreign_id(entries, id));
                    }
                    if let Some((slot, t, keep)) = rearm(id, now, entries, &shards, n_shards) {
                        assert!(!keep, "plane events never run in a burst");
                        w.push_keyed(slot, t, rearm_id(entries, id));
                    }
                    w.record(id);
                }
            }
            let mut refs: Vec<&mut WorkerQueue<u32, u32>> = shells.iter_mut().collect();
            q.end_epoch(token, &mut refs, |_, time, &id| visits.push((time, id)));
        }
        let Some(tok) = q.begin_run() else { break };
        while let Some(e) = q.pop_run(&tok) {
            let id = e.payload;
            if (id as usize) < shards.len() && shards[id as usize] == 0 {
                plane_remaining -= 1;
            }
            let (own, foreign) =
                script(id, e.time, entries, &shards, n_shards, plane_remaining > 0);
            if let Some(t) = own {
                q.push(shards[id as usize], t, own_id(entries, id));
            }
            if let Some((target, t)) = foreign {
                q.push(target, t, foreign_id(entries, id));
            }
            if let Some((slot, t, keep)) = rearm(id, e.time, entries, &shards, n_shards) {
                if keep && q.armed(slot, slot).is_some() {
                    q.skip_seq();
                } else {
                    q.push_keyed(slot, slot, t, rearm_id(entries, id));
                }
            }
            visits.push((e.time, id));
        }
        q.end_run(tok);
    }
    assert!(q.is_empty(), "parallel runner left events behind");
    visits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// For any seed schedule, shard count, and burst execution order,
    /// the parallel runner's merged visit order equals the plain
    /// single-queue pop order, event for event.
    #[test]
    fn parallel_runner_matches_the_single_queue(
        n_shards in 2usize..5,
        entries in prop::collection::vec(
            // Negative delay = no push (~1/3 of draws each).
            (0usize..8, 0.0f64..1000.0, -25.0f64..50.0, -25.0f64..50.0, -25.0f64..50.0),
            0..40,
        ),
        rev in any::<bool>(),
    ) {
        let expected = run_oracle(&entries, n_shards);
        let got = run_parallel(&entries, n_shards, rev);
        prop_assert_eq!(got, expected);
    }
}
