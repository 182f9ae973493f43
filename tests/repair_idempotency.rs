//! Repair idempotency, pinned across every dynamic scheme and crash
//! severity: after churn, one `stabilize()` pass must leave *nothing* for
//! a second pass to do — the second call returns 0 operations — and the
//! replication layer's `re_replicate()` obeys the same contract.
//!
//! This generalizes what used to be pinned only by armada's unit test of
//! `SingleArmada::repair_records`: a repair sweep that keeps finding work
//! on a converged network is either leaking repairs or mis-detecting loss,
//! and both bugs corrupt the repair-traffic series the churn and
//! replication experiments report.
//!
//! The hostile layer adds the partition variant: peers crash while a
//! partition plan's split is open, the split heals, and the same
//! idempotency contract must hold — the first `stabilize()` after the
//! heal converges the network, the second finds nothing, and a second
//! `re_replicate()` places, drops, and sends nothing.
//!
//! The last property pins *what* repair computes, not only that it
//! converges: `Replicated` keeps a cached successor ring and a value
//! index, and under arbitrary interleavings of publish and membership
//! calls its holder lists and every `ReplicaRepair` must equal a model
//! that recomputes owners from scratch with the free `ring_owners`.

use armada_suite::dht_api::{
    ring_owners, value_key, BuildParams, DynamicScheme, RangeScheme, ReplicaKind, ReplicaPolicy,
    ReplicaRepair, Replicated, ReplicationControl,
};
use armada_suite::experiments::{dynamic_single_names, standard_registry};
use proptest::prelude::*;
use rand::Rng;
use simnet::{NodeId, QueryScratch};

const DOMAIN: (f64, f64) = (0.0, 1000.0);

/// Crash severities exercised: a light brush, a heavy blow, and a third of
/// the network.
const SEVERITIES: [usize; 3] = [3, 12, 24];

/// The partition shapes of the hostile catalog.
const PARTITION_PLANS: [&str; 2] = ["split-brain", "island-3"];

fn build_loaded(name: &str, seed: u64, policy: Option<ReplicaPolicy>) -> Box<dyn RangeScheme> {
    let registry = standard_registry();
    let mut params = BuildParams::new(72, DOMAIN.0, DOMAIN.1).with_object_id_len(24);
    if let Some(p) = policy {
        params = params.with_replication(p);
    }
    let mut rng = simnet::rng_from_seed(seed ^ dht_api::fnv1a(name.as_bytes()));
    let mut scheme = registry.build_single(name, &params, &mut rng).expect("build");
    for h in 0..150u64 {
        scheme.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h).expect("publish");
    }
    scheme
}

/// The replication layer's placement rule with nothing cached: owners are
/// recomputed from the live peer list for every record, every time.
struct PlacementModel {
    policy: ReplicaPolicy,
    values: Vec<f64>,
    holders: Vec<Vec<NodeId>>,
}

impl PlacementModel {
    fn owners(&self, real: &Replicated, value: f64) -> Vec<NodeId> {
        let routing = real.inner().as_replica_routing().expect("replicable scheme");
        match self.policy.kind() {
            ReplicaKind::Successor => {
                ring_owners(&routing.live_peers(), value_key(value), self.policy.factor())
            }
            _ => routing.close_group(value, self.policy.factor()),
        }
    }

    /// Call before the real publish: owners are chosen on the membership
    /// the record arrives to.
    fn publish(&mut self, real: &Replicated, value: f64) {
        let owners = self.owners(real, value);
        self.values.push(value);
        self.holders.push(owners.into_iter().skip(1).collect());
    }

    fn evict(&mut self, node: NodeId) {
        for hs in &mut self.holders {
            hs.retain(|&h| h != node);
        }
    }

    fn re_replicate(&mut self, real: &Replicated) -> ReplicaRepair {
        let routing = real.inner().as_replica_routing().expect("replicable scheme");
        let mut repair = ReplicaRepair::default();
        for idx in 0..self.values.len() {
            let owners = self.owners(real, self.values[idx]);
            let desired = &owners[1..];
            let current = &mut self.holders[idx];
            let before = current.len();
            current.retain(|h| desired.contains(h));
            repair.dropped += before - current.len();
            repair.messages += (before - current.len()) as u64;
            for &owner in desired {
                if !current.contains(&owner) {
                    let mut cost = Vec::new();
                    routing.fetch_costs(owners[0], &[owner], &mut QueryScratch::new(), &mut cost);
                    let cost = cost[0];
                    repair.messages += cost.messages;
                    repair.latency = repair.latency.max(cost.latency);
                    current.push(owner);
                    repair.placed += 1;
                }
            }
        }
        repair
    }

    fn assert_matches(&self, real: &Replicated, step: &str) -> Result<(), TestCaseError> {
        for (idx, expected) in self.holders.iter().enumerate() {
            prop_assert_eq!(
                real.replica_holders(idx),
                &expected[..],
                "record {} after {}",
                idx,
                step
            );
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn cached_placement_equals_recomputation_under_any_interleaving(
        seed in 0u64..10_000,
        ops in prop::collection::vec((0u8..9, any::<usize>()), 20..60),
    ) {
        let stacks = [
            ("pira", ReplicaPolicy::successor(3)),
            ("dcf-can", ReplicaPolicy::successor(3)),
            ("pht-chord", ReplicaPolicy::successor(3)),
            ("pira", ReplicaPolicy::neighbor_set(3)),
        ];
        for (name, policy) in stacks {
            let params = BuildParams::new(40, DOMAIN.0, DOMAIN.1).with_object_id_len(24);
            let mut rng = simnet::rng_from_seed(seed ^ dht_api::fnv1a(name.as_bytes()));
            let inner = standard_registry().build_single(name, &params, &mut rng).expect("build");
            let mut real = Replicated::new(inner, policy.clone()).expect("replicable scheme");
            let mut model = PlacementModel { policy, values: Vec::new(), holders: Vec::new() };
            // Two values no range holds ride along: the value index must
            // keep them out of every ground truth, as the scan it replaced did.
            let strays = [f64::NAN, DOMAIN.1 + 500.0];
            for &value in strays.iter().chain(&[0.0, DOMAIN.1]) {
                model.publish(&real, value);
                real.publish(value, model.values.len() as u64 - 1).expect("publish");
            }
            for &(op, raw) in &ops {
                let live = DynamicScheme::live_peers(&real);
                let victim = live[raw % live.len()];
                let step = match op {
                    0..=2 => {
                        let value = rng.gen_range(DOMAIN.0..=DOMAIN.1);
                        model.publish(&real, value);
                        real.publish(value, model.values.len() as u64 - 1).expect("publish");
                        "publish"
                    }
                    3 => {
                        real.join(&mut rng).expect("join");
                        "join"
                    }
                    4 => {
                        if real.leave(victim).is_ok() {
                            model.evict(victim);
                        }
                        "leave"
                    }
                    5..=6 => {
                        if real.crash(victim).is_ok() {
                            model.evict(victim);
                        }
                        "crash"
                    }
                    7 => {
                        let ops = real.stabilize();
                        let repair = model.re_replicate(&real);
                        prop_assert!(ops >= repair.ops(), "{}: stabilize under-reports repair", name);
                        "stabilize"
                    }
                    _ => {
                        let repair = real.re_replicate();
                        prop_assert_eq!(repair, model.re_replicate(&real), "{}: repair differs", name);
                        "re_replicate"
                    }
                };
                prop_assert_eq!(real.replica_count(), model.holders.iter().map(Vec::len).sum::<usize>());
                model.assert_matches(&real, step)?;
            }
            // Converged, the whole domain comes back exactly — without the strays.
            real.stabilize();
            model.re_replicate(&real);
            model.assert_matches(&real, "final stabilize")?;
            let origin = real.random_origin(&mut rng);
            let out = real.range_query(origin, DOMAIN.0, DOMAIN.1, seed).expect("query");
            prop_assert!(out.exact, "{} inexact after stabilize", name);
            let in_domain: Vec<u64> = (strays.len() as u64..model.values.len() as u64).collect();
            prop_assert_eq!(out.results, in_domain, "{}: a stray value matched a range", name);
        }
    }

    #[test]
    fn second_stabilize_finds_nothing_to_repair(seed in 0u64..10_000) {
        for name in dynamic_single_names() {
            for &severity in &SEVERITIES {
                let mut scheme = build_loaded(&name, seed, None);
                let dynamic = scheme.as_dynamic().expect("dynamic scheme");
                let mut vrng = simnet::rng_from_seed(seed ^ 0xc4a5);
                for _ in 0..severity {
                    let live = dynamic.live_peers();
                    prop_assert!(!live.is_empty());
                    let victim = live[vrng.gen_range(0..live.len())];
                    dynamic.crash(victim).expect("crash a live peer");
                }
                dynamic.stabilize();
                let second = dynamic.stabilize();
                prop_assert_eq!(
                    second, 0,
                    "{} after {} crashes: a second stabilize must be a no-op",
                    name, severity
                );
                // And the repaired network answers exactly.
                let origin = scheme.random_origin(&mut vrng);
                let out = scheme.range_query(origin, 100.0, 600.0, 0).expect("query");
                prop_assert!(out.exact, "{} inexact after stabilize", name);
            }
        }
    }

    #[test]
    fn second_re_replicate_finds_nothing_to_place(seed in 0u64..10_000) {
        for name in dynamic_single_names() {
            for &severity in &SEVERITIES {
                let mut scheme =
                    build_loaded(&name, seed, Some(ReplicaPolicy::successor(3)));
                {
                    let dynamic = scheme.as_dynamic().expect("dynamic scheme");
                    let mut vrng = simnet::rng_from_seed(seed ^ 0x5e15);
                    for _ in 0..severity {
                        let live = dynamic.live_peers();
                        let victim = live[vrng.gen_range(0..live.len())];
                        dynamic.crash(victim).expect("crash a live peer");
                    }
                }
                let control = scheme.as_replicated().expect("replicated scheme");
                let first = control.re_replicate();
                prop_assert!(
                    first.placed > 0 || severity < 5,
                    "{}: heavy crashes should evict replicas somewhere",
                    name
                );
                let second = control.re_replicate();
                prop_assert_eq!(second.placed, 0, "{} second pass placed copies", name);
                prop_assert_eq!(second.dropped, 0, "{} second pass dropped copies", name);
                prop_assert_eq!(second.messages, 0, "{} second pass sent messages", name);
            }
        }
    }

    #[test]
    fn repair_is_idempotent_after_a_partition_heals(seed in 0u64..10_000) {
        for name in dynamic_single_names() {
            for plan_name in PARTITION_PLANS {
                let schedule = simnet::FaultPlan::named_hostile(plan_name).expect("cataloged");
                let partition = schedule.partition().expect("partition plan");
                let mut scheme = build_loaded(
                    &format!("{name}+r3@{plan_name}"),
                    seed,
                    None,
                );
                // Crash peers while the split is open, then heal.
                scheme.as_hostile().expect("hostile").set_epoch(partition.open_epoch());
                {
                    let dynamic = scheme.as_dynamic().expect("dynamic scheme");
                    let mut vrng = simnet::rng_from_seed(seed ^ 0x9a17);
                    for _ in 0..8 {
                        let live = dynamic.live_peers();
                        prop_assert!(!live.is_empty());
                        let victim = live[vrng.gen_range(0..live.len())];
                        dynamic.crash(victim).expect("crash a live peer");
                    }
                }
                scheme.as_hostile().expect("hostile").set_epoch(partition.heal_epoch());
                // Same contract as the plain-churn cases: one pass each
                // converges, the second finds nothing left to do.
                let dynamic = scheme.as_dynamic().expect("dynamic scheme");
                dynamic.stabilize();
                let second = dynamic.stabilize();
                prop_assert_eq!(
                    second, 0,
                    "{}@{}: second stabilize after heal must be a no-op",
                    name, plan_name
                );
                let control = scheme.as_replicated().expect("replicated scheme");
                control.re_replicate();
                let second = control.re_replicate();
                prop_assert_eq!(second.placed, 0, "{}@{} re-placed", name, plan_name);
                prop_assert_eq!(second.dropped, 0, "{}@{} re-dropped", name, plan_name);
                prop_assert_eq!(second.messages, 0, "{}@{} re-sent", name, plan_name);
                // And the healed, repaired network answers exactly.
                let mut qrng = simnet::rng_from_seed(seed ^ 0x0e4);
                let origin = scheme.random_origin(&mut qrng);
                let out = scheme.range_query(origin, 100.0, 600.0, 0).expect("query");
                prop_assert!(out.exact, "{}@{} inexact after heal", name, plan_name);
            }
        }
    }
}
