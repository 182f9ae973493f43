//! Skip Graph (Aspnes & Shah, SODA 2003), simulated — the `O(logN + n)`
//! range-query row of the Armada paper's Table 1.
//!
//! A Skip Graph arranges peers in a sorted doubly-linked list (level 0) and
//! recursively splits each list by random *membership vector* bits, so every
//! peer belongs to one list per level. Search walks right/left at the
//! highest usable level and descends, taking `O(log N)` hops w.h.p.; a range
//! query then hands the query down the level-0 list — `O(n)` further hops,
//! which is exactly why its delay is *not* bounded in the range size.
//!
//! # Example
//!
//! ```
//! use skipgraph::SkipGraphNet;
//!
//! let mut rng = simnet::rng_from_seed(8);
//! let mut net = SkipGraphNet::build(100, 0.0, 1000.0, &mut rng);
//! net.publish(42.0, 1);
//! net.publish(43.5, 2);
//! net.publish(99.0, 3);
//! let origin = net.random_node(&mut rng);
//! let out = net.range_query(origin, 40.0, 50.0);
//! assert_eq!(out.results, vec![1, 2]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scheme;

pub use scheme::register;

use rand::rngs::SmallRng;
use rand::Rng;
use simnet::NodeId;

/// Result of a Skip Graph range query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkipOutcome {
    /// Matching record handles, ascending.
    pub results: Vec<u64>,
    /// Search hops + level-0 walk hops.
    pub delay: u32,
    /// The same search-then-walk path priced edge by edge under the
    /// graph's [`NetModel`](simnet::NetModel) (every hop is sequential, so
    /// the whole path is the critical path). Equals `delay` under `unit`.
    pub latency: u64,
    /// Total messages (equals delay: one message per hop).
    pub messages: u64,
    /// Peers whose key range intersected the query.
    pub dest_peers: usize,
}

/// A converged Skip Graph over peers keyed by positions in an attribute
/// domain.
///
/// `NodeId`s index peers in **key order** (the level-0 list order). Records
/// are stored at the peer with the greatest key `≤ value` (successor-style
/// buckets), so peers partition the attribute domain.
#[derive(Debug, Clone)]
pub struct SkipGraphNet {
    /// Sorted peer keys (bucket lower bounds).
    keys: Vec<f64>,
    /// `neighbors[level][node] = (left, right)` in that level's list.
    neighbors: Vec<Vec<(Option<NodeId>, Option<NodeId>)>>,
    /// Per-peer stored records `(value, handle)`.
    records: Vec<Vec<(f64, u64)>>,
    domain_lo: f64,
    domain_hi: f64,
    /// Network cost model pricing search and walk edges (`unit` default).
    net_model: simnet::NetModel,
}

impl SkipGraphNet {
    /// Builds a converged `n`-peer Skip Graph whose keys are uniform random
    /// positions in `[lo, hi]` (the first peer is pinned to `lo` so every
    /// value has an owner).
    ///
    /// # Panics
    ///
    /// Panics unless `n ≥ 1` and `lo < hi`.
    pub fn build(n: usize, lo: f64, hi: f64, rng: &mut SmallRng) -> Self {
        assert!(n >= 1, "need at least one peer");
        assert!(lo < hi, "empty domain");
        let mut keys: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(lo..hi)).collect();
        keys.push(lo);
        keys.sort_by(f64::total_cmp);
        keys.dedup();
        while keys.len() < n {
            let extra = rng.gen_range(lo..hi);
            if let Err(pos) = keys.binary_search_by(|k| k.total_cmp(&extra)) {
                keys.insert(pos, extra);
            }
        }

        // Membership vectors: enough levels that top lists are singletons.
        let levels = ((n as f64).log2().ceil() as usize) + 2;
        let membership: Vec<Vec<bool>> =
            (0..n).map(|_| (0..levels).map(|_| rng.gen()).collect()).collect();

        // Level ℓ lists: peers sharing their first ℓ membership bits, in key
        // order. Level 0 is the whole sorted list.
        let mut neighbors = Vec::with_capacity(levels + 1);
        for level in 0..=levels {
            let mut nbr = vec![(None, None); n];
            // Group by membership prefix. BTreeMap so the group walk below
            // is prefix-ordered, never hasher-ordered — within a group the
            // lists stay key-sorted because nodes arrive in key order, and
            // groups are disjoint, so neighbor assignment is independent of
            // group order; the deterministic walk makes that a non-issue
            // rather than a proof obligation.
            let mut groups: std::collections::BTreeMap<Vec<bool>, Vec<NodeId>> =
                std::collections::BTreeMap::new();
            for (node, bits) in membership.iter().enumerate() {
                groups.entry(bits[..level].to_vec()).or_default().push(node);
                // nodes iterated in key order ⇒ lists sorted
            }
            for list in groups.values() {
                for w in list.windows(2) {
                    nbr[w[0]].1 = Some(w[1]);
                    nbr[w[1]].0 = Some(w[0]);
                }
            }
            neighbors.push(nbr);
        }

        SkipGraphNet {
            keys,
            neighbors,
            records: vec![Vec::new(); n],
            domain_lo: lo,
            domain_hi: hi,
            net_model: simnet::NetModel::unit(),
        }
    }

    /// Replaces the network cost model queries price their edges with
    /// (`unit` by default). Hop and message metrics are model-invariant;
    /// only [`SkipOutcome::latency`] moves.
    pub fn set_net_model(&mut self, model: simnet::NetModel) {
        self.net_model = model;
    }

    /// The network cost model in force.
    pub fn net_model(&self) -> &simnet::NetModel {
        &self.net_model
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Always false.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The peer's bucket lower bound.
    pub fn key_of(&self, node: NodeId) -> f64 {
        self.keys[node]
    }

    /// A uniformly random peer.
    pub fn random_node(&self, rng: &mut SmallRng) -> NodeId {
        rng.gen_range(0..self.keys.len())
    }

    /// The peer owning `value`: greatest key `≤ value` (clamped into the
    /// domain).
    pub fn owner_of(&self, value: f64) -> NodeId {
        let v = value.clamp(self.domain_lo, self.domain_hi);
        match self.keys.binary_search_by(|k| k.total_cmp(&v)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    /// Stores a record at the owner of its value.
    pub fn publish(&mut self, value: f64, handle: u64) -> NodeId {
        let owner = self.owner_of(value);
        self.records[owner].push((value, handle));
        owner
    }

    /// Verifies the structure search and the range walk trust: the keys
    /// ascend strictly from `keys[0]` = the domain's low end; at every
    /// level the links are mutual (`right(x) = y` exactly when
    /// `left(y) = x`) and point up the key order; every level's list lies
    /// inside one list of the level below; and every record sits in its
    /// bucket `[keys[i], keys[i+1])` (values clamped into the domain, so
    /// the last bucket runs to its top).
    ///
    /// # Errors
    ///
    /// Returns a descriptive string on violation (test helper).
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.keys.first() != Some(&self.domain_lo) {
            return Err(format!(
                "keys[0] is {:?}, not the domain low {}",
                self.keys.first(),
                self.domain_lo
            ));
        }
        if let Some(w) = self.keys.windows(2).find(|w| w[0] >= w[1]) {
            return Err(format!("keys not ascending: {} before {}", w[0], w[1]));
        }
        let n = self.keys.len();
        // `head[x]`: the first node of `x`'s list one level down (level 0 is
        // one list). Lists run in key order, so a left link points to a
        // smaller id whose head is already known.
        let mut below = vec![0; n];
        for (level, links) in self.neighbors.iter().enumerate() {
            if links.len() != n {
                return Err(format!("level {level} links {} of {n} nodes", links.len()));
            }
            let mut head = vec![0; n];
            for x in 0..n {
                let (left, right) = links[x];
                if let Some(y) = right {
                    if y <= x || y >= n || links[y].0 != Some(x) {
                        return Err(format!(
                            "level {level}: {x} -> {y} is not mutual in key order"
                        ));
                    }
                }
                if let Some(y) = left {
                    if y >= x || links[y].1 != Some(x) {
                        return Err(format!(
                            "level {level}: {y} <- {x} is not mutual in key order"
                        ));
                    }
                }
                head[x] = left.map_or(x, |y| head[y]);
                if level > 0 && left.is_some_and(|y| below[y] != below[x]) {
                    return Err(format!("level {level}: {x} leaves its level-{} list", level - 1));
                }
            }
            below = head;
        }
        for (node, records) in self.records.iter().enumerate() {
            if let Some(&(value, handle)) = records.iter().find(|&&(v, _)| self.owner_of(v) != node)
            {
                return Err(format!(
                    "record {handle} ({value}) stored at {node}, outside its bucket"
                ));
            }
        }
        Ok(())
    }

    /// Skip Graph search from `from` to the owner of `value`; returns
    /// `(owner, hops)`. Standard algorithm: at each level move toward the
    /// target as far as possible without overshooting, then descend.
    pub fn search(&self, from: NodeId, value: f64) -> (NodeId, u32) {
        let (owner, hops, _) = self.search_priced(from, value);
        (owner, hops)
    }

    /// [`search`](Self::search) also accumulating the traversed edges'
    /// [`NetModel`](simnet::NetModel) cost: `(owner, hops, latency)`.
    pub fn search_priced(&self, from: NodeId, value: f64) -> (NodeId, u32, u64) {
        let target = self.owner_of(value);
        let mut cur = from;
        let mut hops = 0u32;
        let mut latency = 0u64;
        let mut level = self.neighbors.len() - 1;
        loop {
            if cur == target {
                return (target, hops, latency);
            }
            let rightward = target > cur; // NodeIds are in key order
            let step = if rightward {
                self.neighbors[level][cur].1.filter(|&r| r <= target)
            } else {
                self.neighbors[level][cur].0.filter(|&l| l >= target)
            };
            match step {
                Some(next) => {
                    latency += self.net_model.edge_cost(cur, next);
                    cur = next;
                    hops += 1;
                }
                None if level > 0 => level -= 1,
                None => unreachable!("level-0 list reaches every peer"),
            }
        }
    }

    /// Range query: search the owner of `lo`, then walk the level-0 list
    /// right through every bucket intersecting `[lo, hi]`.
    pub fn range_query(&self, from: NodeId, lo: f64, hi: f64) -> SkipOutcome {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let (first, search_hops, search_latency) = self.search_priced(from, lo);
        let mut results = Vec::new();
        let mut walk = 0u32;
        let mut latency = search_latency;
        let mut dest = 0usize;
        let mut cur = Some(first);
        while let Some(node) = cur {
            if self.keys[node] > hi {
                break;
            }
            dest += 1;
            for &(v, h) in &self.records[node] {
                if v >= lo && v <= hi {
                    results.push(h);
                }
            }
            cur = self.neighbors[0][node].1;
            match cur {
                Some(next) if self.keys[next] <= hi => {
                    walk += 1;
                    latency += self.net_model.edge_cost(node, next);
                }
                _ => break,
            }
        }
        results.sort_unstable();
        let delay = search_hops + walk;
        SkipOutcome { results, delay, latency, messages: u64::from(delay), dest_peers: dest }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: usize, seed: u64) -> SkipGraphNet {
        let mut rng = simnet::rng_from_seed(seed);
        SkipGraphNet::build(n, 0.0, 1000.0, &mut rng)
    }

    #[test]
    fn level_neighbors_are_hasher_and_run_independent() {
        // Regression for the level-builder hazard this PR closes: the
        // membership-prefix grouping used to live in a `HashMap`, so the
        // `groups.values()` walk at level-assembly time ran in hasher
        // order — a per-thread, per-instance random order. The grouping is
        // now a `BTreeMap`; pin the contract by rebuilding from the same
        // seed on fresh OS threads (each with fresh hasher-key state) and
        // requiring the full neighbor structure to come out identical.
        let reference = build(120, 7);
        for round in 0..3 {
            let rebuilt =
                std::thread::spawn(move || build(120, 7)).join().expect("build thread panicked");
            assert_eq!(
                rebuilt.neighbors, reference.neighbors,
                "round {round}: level lists drifted"
            );
            assert_eq!(rebuilt.keys, reference.keys, "round {round}: keys drifted");
        }
    }

    #[test]
    fn keys_are_sorted_and_first_is_domain_lo() {
        let net = build(100, 1);
        assert_eq!(net.key_of(0), 0.0);
        for i in 1..net.len() {
            assert!(net.key_of(i) > net.key_of(i - 1));
        }
    }

    #[test]
    fn owner_is_greatest_key_below() {
        let net = build(50, 2);
        let mut rng = simnet::rng_from_seed(20);
        for _ in 0..200 {
            let v: f64 = rng.gen_range(0.0..=1000.0);
            let owner = net.owner_of(v);
            assert!(net.key_of(owner) <= v);
            if owner + 1 < net.len() {
                assert!(net.key_of(owner + 1) > v);
            }
        }
    }

    #[test]
    fn search_reaches_owner_from_everywhere() {
        let net = build(150, 3);
        let mut rng = simnet::rng_from_seed(30);
        for _ in 0..200 {
            let v: f64 = rng.gen_range(0.0..=1000.0);
            let from = net.random_node(&mut rng);
            let (found, _) = net.search(from, v);
            assert_eq!(found, net.owner_of(v));
        }
    }

    #[test]
    fn search_hops_are_logarithmic() {
        let mut rng = simnet::rng_from_seed(40);
        for &n in &[128usize, 512, 2048] {
            let net = build(n, 4 + n as u64);
            let mut total = 0u64;
            let queries = 300;
            for _ in 0..queries {
                let v: f64 = rng.gen_range(0.0..=1000.0);
                let from = net.random_node(&mut rng);
                total += u64::from(net.search(from, v).1);
            }
            let avg = total as f64 / queries as f64;
            let log_n = (n as f64).log2();
            assert!(avg < 2.5 * log_n, "N = {n}: avg {avg} vs logN {log_n}");
        }
    }

    #[test]
    fn range_query_is_exact() {
        let mut rng = simnet::rng_from_seed(50);
        let mut net = build(120, 5);
        let mut data = Vec::new();
        for h in 0..400u64 {
            let v: f64 = rng.gen_range(0.0..=1000.0);
            net.publish(v, h);
            data.push((v, h));
        }
        for _ in 0..50 {
            let lo: f64 = rng.gen_range(0.0..900.0);
            let hi = lo + rng.gen_range(0.1..150.0);
            let from = net.random_node(&mut rng);
            let out = net.range_query(from, lo, hi);
            let mut expect: Vec<u64> =
                data.iter().filter(|&&(v, _)| v >= lo && v <= hi).map(|&(_, h)| h).collect();
            expect.sort_unstable();
            assert_eq!(out.results, expect, "query [{lo}, {hi}]");
        }
    }

    #[test]
    fn range_delay_grows_with_destinations() {
        let mut rng = simnet::rng_from_seed(60);
        let net = build(1000, 6);
        let from = net.random_node(&mut rng);
        let small = net.range_query(from, 500.0, 505.0);
        let large = net.range_query(from, 100.0, 900.0);
        assert!(large.dest_peers > 50 * small.dest_peers.max(1) / 10);
        assert!(large.delay > small.delay + 100);
        // delay ≥ walk length = dest − 1.
        assert!(large.delay as usize >= large.dest_peers - 1);
    }

    #[test]
    fn invariants_hold_and_catch_corruption() {
        let mut rng = simnet::rng_from_seed(80);
        for n in [1, 2, 3, 200] {
            let mut net = build(n, 8 + n as u64);
            for h in 0..300u64 {
                net.publish(rng.gen_range(-10.0..=1010.0), h);
            }
            net.check_invariants().unwrap_or_else(|e| panic!("N = {n}: {e}"));
        }
        let net = build(200, 9);
        net.check_invariants().unwrap();
        let mut stale = net.clone();
        stale.keys.swap(3, 4);
        assert!(stale.check_invariants().unwrap_err().contains("ascending"));
        let mut stale = net.clone();
        stale.keys[0] = 1.0;
        assert!(stale.check_invariants().unwrap_err().contains("domain low"));
        let mut stale = net.clone();
        stale.neighbors[0][5].1 = Some(7);
        assert!(stale.check_invariants().unwrap_err().contains("mutual"));
        // Node 100 moved into a level-2 list under the other level-1 list,
        // its links kept mutual and in key order.
        let mut stale = net.clone();
        let head = |links: &[(Option<NodeId>, Option<NodeId>)], mut x: NodeId| {
            while let Some(left) = links[x].0 {
                x = left;
            }
            x
        };
        let z = 100;
        let lv = &mut stale.neighbors;
        let w = (0..200).find(|&w| head(&lv[1], w) != head(&lv[1], z)).unwrap();
        let (l, r) = lv[2][z];
        if let Some(l) = l {
            lv[2][l].1 = r;
        }
        if let Some(r) = r {
            lv[2][r].0 = l;
        }
        let mut members = vec![head(&lv[2], w)];
        while let Some(next) = lv[2][members[members.len() - 1]].1 {
            members.push(next);
        }
        let a = members.iter().copied().rfind(|&m| m < z);
        let b = members.iter().copied().find(|&m| m > z);
        lv[2][z] = (a, b);
        if let Some(a) = a {
            lv[2][a].1 = Some(z);
        }
        if let Some(b) = b {
            lv[2][b].0 = Some(z);
        }
        assert!(stale.check_invariants().unwrap_err().contains("level-1 list"));
        let mut stale = net;
        stale.records[10].push((999.9, 77));
        assert!(stale.check_invariants().unwrap_err().contains("record 77"));
    }

    #[test]
    fn single_peer_graph_works() {
        let mut rng = simnet::rng_from_seed(70);
        let mut net = SkipGraphNet::build(1, 0.0, 10.0, &mut rng);
        net.publish(5.0, 9);
        let out = net.range_query(0, 0.0, 10.0);
        assert_eq!(out.results, vec![9]);
        assert_eq!(out.delay, 0);
    }
}
