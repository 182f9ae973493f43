//! The client-facing engine: a FISSIONE network plus an order-preserving
//! naming plus a record table, with ground-truth checkers.
//!
//! [`Armada<N>`] is one engine over either naming, as the paper's §5 has
//! MIRA be PIRA under `Multiple_hash` instead of `Single_hash`:
//! [`SingleArmada`] and [`MultiArmada`] are its two instances. A record is
//! a point of the naming's arity, stored flat, so publishing, record repair,
//! the ground-truth record filter and the dynamics
//! ([`DynamicScheme`](dht_api::DynamicScheme), in [`crate::scheme`]) are
//! written once. What stays per naming is how a query is spelled and how its
//! destination peers are found.

use crate::{ArmadaError, QueryOutcome};
use fissione::{FissioneConfig, FissioneNet, ObjectKey, PeerKey};
use kautz::naming::{MultiHash, Naming, SingleHash};
use rand::rngs::SmallRng;
use simnet::NodeId;
use std::collections::BTreeSet;

/// Handle of a published record (dense, starting at 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId(pub u64);

/// The ledger's view of an id: [`Answers::results`](simnet::Answers::results)
/// reads dense ids back out of a bitmap.
impl From<u64> for RecordId {
    fn from(id: u64) -> Self {
        RecordId(id)
    }
}

impl From<RecordId> for u64 {
    fn from(record: RecordId) -> Self {
        record.0
    }
}

impl std::fmt::Display for RecordId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "record#{}", self.0)
    }
}

/// Armada: FISSIONE + an order-preserving [`Naming`] + records.
///
/// See the [crate docs](crate) for a quickstart.
#[derive(Debug, Clone)]
pub struct Armada<N> {
    net: FissioneNet,
    naming: N,
    /// Every record's point, [`Naming::arity`] values each, in `RecordId`
    /// order.
    records: Vec<f64>,
    net_model: simnet::NetModel,
    /// [`FissioneNet::lost_handles`] as of the last
    /// [`repair_records`](Self::repair_records) sweep.
    repaired_through: u64,
}

/// Single-attribute Armada: `Single_hash` naming, queried by PIRA
/// ([`descent::query`](crate::descent::query) over one range).
pub type SingleArmada = Armada<SingleHash>;

/// Multi-attribute Armada: `Multiple_hash` naming, queried by MIRA
/// ([`descent::query`](crate::descent::query) over a rectangle).
///
/// # Example
///
/// ```
/// use armada::MultiArmada;
///
/// let mut rng = simnet::rng_from_seed(2);
/// // Grid information service: (memory MB, disk GB).
/// let mut grid =
///     MultiArmada::build(80, &[(0.0, 4096.0), (0.0, 500.0)], &mut rng)?;
/// grid.publish(&[2048.0, 120.0])?;
/// grid.publish(&[512.0, 400.0])?;
/// let origin = grid.net().random_peer(&mut rng);
/// // 1GB ≤ memory ≤ 4GB and 50GB ≤ disk ≤ 200GB (the paper's example).
/// let rect = [(1024.0, 4096.0), (50.0, 200.0)];
/// let mut scratch = simnet::QueryScratch::new();
/// let (out, _) = armada::descent::query(&grid, origin, &rect, 3, None, false, &mut scratch)?;
/// assert_eq!(out.results.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type MultiArmada = Armada<MultiHash>;

impl<N: Naming> Armada<N> {
    fn with_naming(
        cfg: FissioneConfig,
        n: usize,
        naming: N,
        rng: &mut SmallRng,
    ) -> Result<Self, ArmadaError> {
        Ok(Armada {
            net: FissioneNet::build(cfg, n, rng)?,
            naming,
            records: Vec::new(),
            net_model: simnet::NetModel::unit(),
            repaired_through: 0,
        })
    }

    /// Replaces the network cost model queries price their edges with
    /// (`unit` by default — latency reproduces hop ticks). Hop metrics,
    /// message counts and result sets are model-invariant by construction;
    /// only [`QueryMetrics::latency`](crate::QueryMetrics) moves.
    pub fn set_net_model(&mut self, model: simnet::NetModel) {
        self.net_model = model;
    }

    /// The network cost model in force.
    pub fn net_model(&self) -> &simnet::NetModel {
        &self.net_model
    }

    /// The underlying DHT (read-only).
    pub fn net(&self) -> &FissioneNet {
        &self.net
    }

    /// The underlying DHT (mutable, e.g. for churn experiments).
    pub fn net_mut(&mut self) -> &mut FissioneNet {
        &mut self.net
    }

    /// The naming scheme.
    pub fn naming(&self) -> &N {
        &self.naming
    }

    /// Number of published records.
    pub fn record_count(&self) -> usize {
        self.records.len() / self.naming.arity()
    }

    /// The attribute vector of a record.
    ///
    /// # Panics
    ///
    /// Panics on unknown record ids.
    pub fn point(&self, record: RecordId) -> &[f64] {
        let d = self.naming.arity();
        let at = record.0 as usize * d;
        &self.records[at..at + d]
    }

    /// Publishes a record at `point`: its ObjectID is the naming's, and it
    /// is stored at the owning peer.
    fn push(&mut self, point: &[f64]) -> Result<RecordId, ArmadaError> {
        let key = self.naming.point_id(point)?;
        let id = RecordId(self.record_count() as u64);
        self.records.extend_from_slice(point);
        self.net.publish(key, id.0).expect("the naming emits ObjectIDs of one length");
        Ok(id)
    }

    /// Re-publishes every record that is no longer stored anywhere in the
    /// network — the data-repair half of stabilization after crashes
    /// (a graceful leave's interval is taken over with what is in it; a
    /// crash deletes that). Returns the number of records restored.
    ///
    /// The record table is the ground truth the engine already keeps for
    /// exactness checking, so repair is a lookup-and-republish sweep: a
    /// record is missing iff its handle is no longer stored under its
    /// ObjectID. Only a crash removes anything, so the sweep runs only when
    /// the network has counted a loss since the last one (the count is the
    /// network's own: `net_mut().crash()` reaches it past any adapter).
    pub fn repair_records(&mut self) -> usize {
        let lost = self.net.lost_handles();
        if lost == self.repaired_through {
            return 0;
        }
        self.repaired_through = lost;
        let (net, naming) = (&self.net, &self.naming);
        let missing: Vec<(ObjectKey, u64)> = (0..)
            .zip(self.records.chunks_exact(naming.arity()))
            .filter_map(|(handle, point)| {
                let key = naming.point_id(point).expect("a stored point has the arity");
                let (_, mut handles) = net.lookup(key).expect("cover is complete");
                (!handles.any(|h| h == handle)).then_some((key, handle))
            })
            .collect();
        let restored = missing.len();
        for (key, handle) in missing {
            self.net.publish(key, handle).expect("the naming emits ObjectIDs of one length");
        }
        restored
    }

    /// Ground truth: the records whose point lies in the closed rectangle
    /// `query`.
    fn records_in(&self, query: &[(f64, f64)]) -> Vec<RecordId> {
        (0..)
            .zip(self.records.chunks_exact(self.naming.arity()))
            .filter(|(_, point)| in_rect(point, query))
            .map(|(i, _)| RecordId(i))
            .collect()
    }
}

/// Whether `point` lies in the closed rectangle `query`: the record filter
/// of every query and of its ground truth.
pub(crate) fn in_rect(point: &[f64], query: &[(f64, f64)]) -> bool {
    point.iter().zip(query).all(|(&v, &(lo, hi))| v >= lo && v <= hi)
}

impl Armada<SingleHash> {
    /// Builds a network of `n` peers over the attribute domain `[lo, hi]`
    /// with the paper's defaults (base 2, ObjectIDs of length 100).
    ///
    /// # Errors
    ///
    /// Returns an error for invalid domains or `n` below the root count.
    pub fn build(n: usize, lo: f64, hi: f64, rng: &mut SmallRng) -> Result<Self, ArmadaError> {
        Self::build_with(FissioneConfig::default(), n, lo, hi, rng)
    }

    /// Builds with an explicit FISSIONE configuration (tests use shorter
    /// ObjectIDs for exhaustive checking).
    ///
    /// # Errors
    ///
    /// Returns an error for invalid domains or `n` below the root count.
    pub fn build_with(
        cfg: FissioneConfig,
        n: usize,
        lo: f64,
        hi: f64,
        rng: &mut SmallRng,
    ) -> Result<Self, ArmadaError> {
        let naming = SingleHash::new(lo, hi, cfg.object_id_len)?;
        Self::with_naming(cfg, n, naming, rng)
    }

    /// The attribute value of a record.
    ///
    /// # Panics
    ///
    /// Panics on unknown record ids.
    pub fn value(&self, record: RecordId) -> f64 {
        self.records[record.0 as usize]
    }

    /// Publishes a record with the given attribute value; its ObjectID is
    /// `Single_hash(value)` and it is stored at the owning peer.
    pub fn publish(&mut self, value: f64) -> RecordId {
        self.push(&[value]).expect("a value is a one-attribute point")
    }

    /// Ground truth: the set of peers whose region intersects the query's
    /// Kautz region (the paper's "Destpeers"). `O(log N + answer)` via the
    /// contiguity of zones in leaf order.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty range.
    pub fn ground_truth_peers(&self, lo: f64, hi: f64) -> Result<BTreeSet<NodeId>, ArmadaError> {
        let (low, high) = self.naming.region_keys(lo, hi)?;
        let table = self.net.route_table();
        Ok(table.run(low, high)?.map(|rank| table.node(rank)).collect())
    }

    /// Ground truth: the records a correct query must return.
    pub fn expected_results(&self, lo: f64, hi: f64) -> Vec<RecordId> {
        self.records_in(&[(lo, hi)])
    }

    /// Runs a plain PIRA range query from `origin`: fresh buffers, no
    /// faults, no trace. [`descent::query`](crate::descent::query) is the
    /// full surface.
    ///
    /// # Errors
    ///
    /// Returns an error for dead origins or empty ranges.
    pub fn pira_query(
        &self,
        origin: NodeId,
        lo: f64,
        hi: f64,
        seed: u64,
    ) -> Result<QueryOutcome, ArmadaError> {
        self.pira_query_scratch(origin, lo, hi, seed, &mut simnet::QueryScratch::new())
    }

    /// [`pira_query`](Self::pira_query) with a caller-owned scratch.
    /// Outcomes are bit-identical to the scratch-free path.
    ///
    /// # Errors
    ///
    /// Returns an error for dead origins or empty ranges.
    pub fn pira_query_scratch(
        &self,
        origin: NodeId,
        lo: f64,
        hi: f64,
        seed: u64,
        scratch: &mut simnet::QueryScratch,
    ) -> Result<QueryOutcome, ArmadaError> {
        crate::descent::query(self, origin, &[(lo, hi)], seed, None, false, scratch)
            .map(|(out, _)| out)
    }
}

impl Armada<MultiHash> {
    /// Builds a network of `n` peers over the given per-attribute domains.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid domains or `n` below the root count.
    pub fn build(
        n: usize,
        domains: &[(f64, f64)],
        rng: &mut SmallRng,
    ) -> Result<Self, ArmadaError> {
        Self::build_with(FissioneConfig::default(), n, domains, rng)
    }

    /// Builds with an explicit FISSIONE configuration.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid domains or `n` below the root count.
    pub fn build_with(
        cfg: FissioneConfig,
        n: usize,
        domains: &[(f64, f64)],
        rng: &mut SmallRng,
    ) -> Result<Self, ArmadaError> {
        let naming = MultiHash::new(domains, cfg.object_id_len)?;
        Self::with_naming(cfg, n, naming, rng)
    }

    /// Publishes a record with the given attribute vector.
    ///
    /// # Errors
    ///
    /// Returns an error on arity mismatch.
    pub fn publish(&mut self, values: &[f64]) -> Result<RecordId, ArmadaError> {
        self.push(values)
    }

    /// Ground truth: peers whose hyper-rectangle intersects the query, by
    /// exhaustive scan (`O(N·k)`) — the reference
    /// [`descent::query`](crate::descent::query)'s destinations (the
    /// matching peers of the corner region's run) are tested against.
    ///
    /// # Errors
    ///
    /// Returns an error on arity mismatch or empty ranges.
    pub fn ground_truth_peers(
        &self,
        query: &[(f64, f64)],
    ) -> Result<BTreeSet<NodeId>, ArmadaError> {
        let rect = self.naming.query_rect(query)?;
        let mut zone = Vec::new();
        let meets = |&n: &NodeId| rect.meets_prefix(self.net.peer_id(n).expect("live"), &mut zone);
        Ok(self.net.live_peers().filter(meets).collect())
    }

    /// Ground truth: records a correct query must return.
    pub fn expected_results(&self, query: &[(f64, f64)]) -> Vec<RecordId> {
        self.records_in(query)
    }
}

/// Computes `ComS` and the descent budget for a query sub-region whose
/// endpoints share their first `c` symbols (`ComT`, read off the endpoint
/// `low`), from the origin's routing-table key: `f = |ComS|`, the longest
/// suffix of the PeerID that prefixes `ComT`, and `hops_left = b − f`
/// (§4.2).
pub(crate) fn descent_budget(origin: PeerKey, low: ObjectKey, c: usize) -> (usize, usize) {
    let f = origin.longest_suffix_prefix(low.head(), c);
    (f, origin.depth() - f)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SingleArmada {
        /// Ground truth by exhaustive scan (`O(N·k)`), the reference the
        /// fast path is tested against.
        fn ground_truth_peers_scan(
            &self,
            lo: f64,
            hi: f64,
        ) -> Result<BTreeSet<NodeId>, ArmadaError> {
            let region = self.naming.region(lo, hi)?;
            Ok(self
                .net
                .live_peers()
                .filter(|&n| region.intersects_prefix(self.net.peer_id(n).expect("live")))
                .collect())
        }

        /// This system with its naming's ObjectIDs cut to `k` symbols,
        /// fewer than its network's: a region's keys can then be too short
        /// for a hop toward them to find an owner, which no consistent
        /// build allows.
        pub(crate) fn with_object_ids_cut_to(mut self, k: usize) -> Self {
            let space = *self.naming.space();
            self.naming = SingleHash::new(space.lo(), space.hi(), k).expect("a valid naming");
            self
        }
    }

    fn small_cfg() -> FissioneConfig {
        FissioneConfig { object_id_len: 24, ..FissioneConfig::default() }
    }

    #[test]
    fn publish_and_value_roundtrip() {
        let mut rng = simnet::rng_from_seed(51);
        let mut a = SingleArmada::build_with(small_cfg(), 30, 0.0, 1000.0, &mut rng).unwrap();
        let r = a.publish(123.5);
        assert_eq!(a.value(r), 123.5);
        assert_eq!(a.record_count(), 1);
        a.net().check_invariants().unwrap();
    }

    #[test]
    fn expected_results_filters_by_value() {
        let mut rng = simnet::rng_from_seed(52);
        let mut a = SingleArmada::build_with(small_cfg(), 20, 0.0, 100.0, &mut rng).unwrap();
        let ids = [10.0, 20.0, 30.0, 40.0].map(|v| a.publish(v));
        assert_eq!(a.expected_results(15.0, 35.0), vec![ids[1], ids[2]]);
        assert_eq!(a.expected_results(90.0, 95.0), vec![]);
    }

    #[test]
    fn ground_truth_peers_nonempty_and_prefix_checked() {
        let mut rng = simnet::rng_from_seed(53);
        let a = SingleArmada::build_with(small_cfg(), 200, 0.0, 1000.0, &mut rng).unwrap();
        let truth = a.ground_truth_peers(100.0, 150.0).unwrap();
        assert!(!truth.is_empty());
        let region = a.naming().region(100.0, 150.0).unwrap();
        for n in a.net().live_peers() {
            let hit = region.intersects_prefix(a.net().peer_id(n).unwrap());
            assert_eq!(hit, truth.contains(&n));
        }
    }

    #[test]
    fn fast_ground_truth_matches_exhaustive_scan() {
        let mut rng = simnet::rng_from_seed(55);
        let a = SingleArmada::build_with(small_cfg(), 300, 0.0, 1000.0, &mut rng).unwrap();
        use rand::Rng;
        for _ in 0..100 {
            let lo: f64 = rng.gen_range(0.0..995.0);
            let hi = lo + rng.gen_range(0.0..(1000.0 - lo));
            assert_eq!(
                a.ground_truth_peers(lo, hi).unwrap(),
                a.ground_truth_peers_scan(lo, hi).unwrap(),
                "query [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn repair_restores_records_lost_to_crashes() {
        let mut rng = simnet::rng_from_seed(56);
        let mut a = SingleArmada::build_with(small_cfg(), 80, 0.0, 1000.0, &mut rng).unwrap();
        use rand::Rng;
        for _ in 0..120 {
            a.publish(rng.gen_range(0.0..=1000.0));
        }
        // Nothing to repair on a healthy network.
        assert_eq!(a.repair_records(), 0);
        let mut lost = 0;
        for _ in 0..10 {
            let victim = a.net().random_peer(&mut rng);
            lost += a.net_mut().crash(victim).unwrap();
        }
        assert!(lost > 0, "crashes should lose something at this density");
        assert_eq!(a.repair_records(), lost);
        // Full-domain query sees every record again.
        let out = a.pira_query(a.net().random_peer(&mut rng), 0.0, 1000.0, 1).unwrap();
        assert_eq!(out.results.len(), 120);
        a.net().check_invariants().unwrap();
    }

    #[test]
    fn repair_sweeps_once_per_loss_and_finds_nothing_after_graceful_churn() {
        let mut rng = simnet::rng_from_seed(57);
        let mut a = SingleArmada::build_with(small_cfg(), 80, 0.0, 1000.0, &mut rng).unwrap();
        use rand::Rng;
        for _ in 0..120 {
            a.publish(rng.gen_range(0.0..=1000.0));
        }
        // Joins and leaves move no object.
        for _ in 0..20 {
            a.net_mut().join(&mut rng);
            let victim = a.net().random_peer(&mut rng);
            a.net_mut().leave(victim).unwrap();
        }
        assert_eq!(a.repair_records(), 0);
        // Crash, repair, crash, repair: each loss is restored exactly once,
        // though the crashes go to the network past the engine.
        for _ in 0..2 {
            let mut lost = 0;
            while lost == 0 {
                let victim = a.net().random_peer(&mut rng);
                lost = a.net_mut().crash(victim).unwrap();
            }
            assert_eq!(a.repair_records(), lost);
            assert_eq!(a.net().report().total_objects, 120);
            assert_eq!(a.repair_records(), 0);
        }
    }

    #[test]
    fn multi_publish_rejects_bad_arity() {
        let mut rng = simnet::rng_from_seed(54);
        let mut m =
            MultiArmada::build_with(small_cfg(), 20, &[(0.0, 1.0), (0.0, 1.0)], &mut rng).unwrap();
        assert!(m.publish(&[0.5]).is_err());
        assert!(m.publish(&[0.5, 0.5]).is_ok());
        // The refused point left no trace in the flat record table.
        assert_eq!(m.record_count(), 1);
    }

    #[test]
    fn multi_points_round_trip_and_crashes_are_repaired() {
        let mut rng = simnet::rng_from_seed(58);
        let mut m =
            MultiArmada::build_with(small_cfg(), 80, &[(0.0, 10.0), (0.0, 500.0)], &mut rng)
                .unwrap();
        use rand::Rng;
        let points: Vec<[f64; 2]> =
            (0..120).map(|_| [rng.gen_range(0.0..=10.0), rng.gen_range(0.0..=500.0)]).collect();
        for p in &points {
            let r = m.publish(p).unwrap();
            assert_eq!(m.point(r), p);
        }
        assert_eq!(m.record_count(), 120);
        assert_eq!(m.expected_results(&[(0.0, 10.0), (0.0, 500.0)]).len(), 120);
        let mut lost = 0;
        while lost == 0 {
            let victim = m.net().random_peer(&mut rng);
            lost = m.net_mut().crash(victim).unwrap();
        }
        assert_eq!(m.repair_records(), lost);
        assert_eq!(m.net().report().total_objects, 120);
        assert_eq!(m.repair_records(), 0);
    }

    #[test]
    fn descent_budget_matches_paper_example() {
        let ks = |s: &str| s.parse::<kautz::KautzStr>().unwrap();
        let p = PeerKey::new(&ks("212"));
        // `ComT` is the first `c` symbols of the sub-region's low end.
        let budget = |low: &str, c| descent_budget(p, ObjectKey::new(&ks(low)), c);
        assert_eq!(budget("0121", 1), (0, 3));
        assert_eq!(budget("1202", 3), (2, 1));
        assert_eq!(budget("2120", 3), (3, 0));
        assert_eq!(budget("2120", 0), (0, 3));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        // The budget on keys against the string forms it replaced: every
        // sub-region's `ComT` spelled out by `split_by_common_prefix` and
        // `common_prefix`, and `ComS` by `longest_suffix_prefix`, from
        // PeerIDs that end in a piece of `ComT` as often as not.
        #[test]
        fn descent_budget_equals_the_string_prologue(
            seed in proptest::prelude::any::<u64>(),
            k in proptest::prelude::prop_oneof![
                proptest::prelude::Just(24usize),
                proptest::prelude::Just(100),
            ],
        ) {
            use rand::Rng;
            let mut rng = simnet::rng_from_seed(seed);
            let naming = SingleHash::new(0.0, 1000.0, k).unwrap();
            let lo: f64 = rng.gen_range(0.0..1000.0);
            let hi = lo + rng.gen_range(0.0..=1000.0 - lo) * rng.gen_range(0.0..=1.0f64).powi(8);
            let region = naming.region(lo, hi).unwrap();
            let (low, high) = naming.region_keys(lo, hi).unwrap();
            let subs: Vec<_> = kautz::key::split_region(low, high).collect();
            let want = region.split_by_common_prefix();
            proptest::prop_assert_eq!(subs.len(), want.len());
            for ((sub_low, sub_high), sub) in subs.into_iter().zip(&want) {
                let com_t = sub.common_prefix();
                let c = sub_low.common_prefix_len(sub_high);
                proptest::prop_assert_eq!(c, com_t.len());
                for _ in 0..8 {
                    let depth = rng.gen_range(1..=fissione::MAX_PEER_DEPTH);
                    let tail = com_t.take_front(rng.gen_range(0..=depth.min(c)));
                    let id = loop {
                        let head = kautz::KautzStr::random(depth - tail.len(), &mut rng);
                        if let Ok(id) = head.concat(&tail) {
                            break id;
                        }
                    };
                    let f = id.longest_suffix_prefix(&com_t);
                    proptest::prop_assert_eq!(
                        descent_budget(PeerKey::new(&id), sub_low, c),
                        (f, depth - f),
                        "{} against {}", id, com_t
                    );
                }
            }
        }
    }
}
