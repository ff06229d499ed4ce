//! Partitioning the cluster into event-loop shards.
//!
//! A [`ShardMap`] assigns every server (and therefore every stream the
//! server carries) to one of `n` shards. The sharded event loop in
//! `sct-core` runs each shard's events on its own event queue and only
//! synchronizes at the causal edges the span layer identifies — DRM
//! displacement, chain-2 inner hops, replication copies, and evacuation
//! rescues. The mapping is static and contiguous: servers `0..n_servers`
//! are cut into `n_shards` near-even blocks (the first `n_servers mod
//! n_shards` blocks get one extra server), so neighbouring servers —
//! which the controller's placement tends to co-locate replicas on —
//! stay on the same shard and most interactions remain shard-local.

use crate::server::ServerId;

/// A static assignment of servers to event-loop shards.
///
/// Shard ids are dense (`0..n_shards`) and every server belongs to
/// exactly one shard. The map is intentionally tiny — one `u32` per
/// shard boundary — because `shard_of` sits on the event-loop hot path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    /// `starts[s]` is the first server index of shard `s`;
    /// `starts[n_shards]` == `n_servers` (sentinel).
    starts: Vec<u32>,
}

impl ShardMap {
    /// Cuts `n_servers` into `n_shards` contiguous near-even blocks.
    ///
    /// `n_shards` is clamped to `1..=n_servers` (a shard with no servers
    /// would never receive events and only add barrier work).
    pub fn new(n_servers: usize, n_shards: usize) -> Self {
        assert!(n_servers > 0, "ShardMap needs at least one server");
        let n = n_shards.clamp(1, n_servers);
        let base = n_servers / n;
        let extra = n_servers % n;
        let mut starts = Vec::with_capacity(n + 1);
        let mut at = 0usize;
        for s in 0..n {
            starts.push(at as u32);
            at += base + usize::from(s < extra);
        }
        starts.push(n_servers as u32);
        ShardMap { starts }
    }

    /// The single-shard map: everything on shard 0 (the monolithic loop).
    pub fn single(n_servers: usize) -> Self {
        ShardMap::new(n_servers, 1)
    }

    /// Number of shards.
    #[inline]
    pub fn n_shards(&self) -> usize {
        self.starts.len() - 1
    }

    /// Number of servers covered by the map.
    #[inline]
    pub fn n_servers(&self) -> usize {
        *self.starts.last().expect("sentinel") as usize
    }

    /// The shard that owns `server`.
    #[inline]
    pub fn shard_of(&self, server: ServerId) -> usize {
        let idx = server.index() as u32;
        debug_assert!(idx < *self.starts.last().unwrap(), "server out of range");
        // Blocks are contiguous and sorted; partition_point finds the
        // first start *after* idx, whose predecessor is the owning shard.
        self.starts.partition_point(|&s| s <= idx) - 1
    }

    /// `true` when the two servers live on different shards — the test
    /// for whether an interaction between them is a cross-shard edge.
    #[inline]
    pub fn crosses(&self, a: ServerId, b: ServerId) -> bool {
        self.shard_of(a) != self.shard_of(b)
    }

    /// The server indices owned by shard `s`.
    pub fn servers_of(&self, s: usize) -> std::ops::Range<usize> {
        self.starts[s] as usize..self.starts[s + 1] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_are_near_even_and_cover_everything() {
        for n_servers in [1usize, 2, 5, 7, 20, 256] {
            for n_shards in [1usize, 2, 3, 4, 8, 300] {
                let map = ShardMap::new(n_servers, n_shards);
                let n = map.n_shards();
                assert!(n >= 1 && n <= n_servers);
                let mut total = 0;
                let mut sizes = Vec::new();
                for s in 0..n {
                    let r = map.servers_of(s);
                    sizes.push(r.len());
                    for i in r {
                        assert_eq!(map.shard_of(ServerId(i as u16)), s);
                        total += 1;
                    }
                }
                assert_eq!(total, n_servers);
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "{n_servers}/{n_shards}: uneven {sizes:?}");
            }
        }
    }

    #[test]
    fn single_is_one_shard() {
        let map = ShardMap::single(20);
        assert_eq!(map.n_shards(), 1);
        assert_eq!(map.n_servers(), 20);
        assert!(!map.crosses(ServerId(0), ServerId(19)));
    }

    #[test]
    fn crosses_detects_shard_boundaries() {
        let map = ShardMap::new(4, 2);
        assert!(!map.crosses(ServerId(0), ServerId(1)));
        assert!(map.crosses(ServerId(1), ServerId(2)));
        assert!(!map.crosses(ServerId(2), ServerId(3)));
    }
}
