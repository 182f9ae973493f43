//! The sequential walk against the analytic walk it is a simulation of:
//! `route_fold` to the first destination, then one step per peer of the
//! destination run, summing hops and edge costs and reading each peer's
//! records on the way. On fault-free runs the simulated walk reproduces it
//! field for field, errors included.

use armada::{ArmadaError, QueryMetrics, QueryOutcome, RecordId, SingleArmada};
use fissione::FissioneConfig;
use proptest::prelude::*;
use rand::Rng;
use simnet::{NetModel, NodeId, QueryScratch};
use std::collections::BTreeSet;

/// The analytic walk: the route's edges, then every successor edge, all on
/// the critical path, and every peer of the run answering.
fn reference(
    armada: &SingleArmada,
    origin: NodeId,
    lo: f64,
    hi: f64,
) -> Result<QueryOutcome, ArmadaError> {
    let net = armada.net();
    if !net.is_live(origin) {
        return Err(ArmadaError::BadOrigin { origin });
    }
    let (low, high) = armada.naming().region_keys(lo, hi)?;
    let table = net.route_table();
    let run = table.run(low, high)?;
    let model = armada.net_model();
    let (first, (mut delay, mut latency)) =
        net.route_fold(origin, low, (0u32, 0u64), |(hop, cum), src, dst| {
            (hop + 1, cum + model.edge_cost(src, dst))
        })?;
    assert_eq!(first, table.node(run.start), "the route ends at the run's first peer");
    let mut messages = u64::from(delay);
    let mut results = BTreeSet::new();
    let mut prev = None;
    for rank in run.clone() {
        let (peer, key) = (table.node(rank), table.key(rank));
        if let Some(prev) = prev {
            messages += 1;
            delay += 1;
            latency += model.edge_cost(prev, peer);
        }
        for &(_, handle) in net.entries_in_stretch((key, key), low, high) {
            let v = armada.value(RecordId(handle));
            if v >= lo && v <= hi {
                results.insert(RecordId(handle));
            }
        }
        prev = Some(peer);
    }
    let metrics = QueryMetrics {
        delay,
        latency,
        messages,
        dest_peers: run.len(),
        reached_peers: run.len(),
        exact: true,
    };
    Ok(QueryOutcome { results: results.into_iter().collect(), metrics })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_simulated_walk_reproduces_the_analytic_walk(
        seed in any::<u64>(),
        n in 3usize..300,
        wan in any::<bool>(),
    ) {
        let mut rng = simnet::rng_from_seed(seed);
        let cfg = FissioneConfig { object_id_len: 24, ..FissioneConfig::default() };
        let mut a = SingleArmada::build_with(cfg, n, 0.0, 1000.0, &mut rng).unwrap();
        a.set_net_model(if wan { NetModel::wan() } else { NetModel::unit() });
        for _ in 0..2 * n {
            a.publish(rng.gen_range(0.0..=1000.0));
        }
        // Some graceful departures unbalance the cover (a refusal is fine).
        for _ in 0..rng.gen_range(0..=n / 4) {
            let peers: Vec<NodeId> = a.net().live_peers().collect();
            let _ = a.net_mut().leave(peers[rng.gen_range(0..peers.len())]);
        }
        // One scratch across the queries, as a driver thread keeps it.
        let mut scratch = QueryScratch::new();
        for q in 0..16 {
            // A dead origin now and then, and inverted ranges, which are
            // errors both ways.
            let origin = match rng.gen_range(0..8) {
                0 => n + 7,
                _ => a.net().random_peer(&mut rng),
            };
            let lo: f64 = rng.gen_range(-50.0..1000.0);
            let hi = lo + rng.gen_range(-5.0..400.0);
            let want = reference(&a, origin, lo, hi);
            let got = armada::seqwalk::query(&a, origin, lo, hi, q, None, false, &mut scratch);
            prop_assert_eq!(got.map(|(out, _)| out), want, "[{}, {}] from {}", lo, hi, origin);
        }
    }
}
