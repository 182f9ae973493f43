//! PHT behind the unified [`dht_api`] query interface.
//!
//! [`PhtScheme`] is generic over the substrate [`Dht`], mirroring PHT's
//! "runs on any DHT" design — a static substrate still makes a full
//! [`RangeScheme`] whose [`as_dynamic`](RangeScheme::as_dynamic) honestly
//! stays `None`. [`DynamicPhtScheme`] wraps it for substrates that also
//! implement [`DynamicScheme`], inheriting the dynamics capability the
//! same way the thread-safety contract is inherited: its dynamics *are*
//! the substrate, while the trie (modeled as DHT-replicated, as in the PHT
//! paper) loses nothing to crashes, so the substrate's `stabilize` repairs
//! all there is. [`register`] wires up the two
//! substrates the paper compares (`"pht-fissione"` and `"pht-chord"`),
//! both dynamic.

use crate::{Pht, PhtOutcome};
use dht_api::{
    BuildParams, Dht, DynamicScheme, FetchCost, OutcomeCosts, QueryCtx, RangeOutcome, RangeRequest,
    RangeScheme, ReplicaRouting, SchemeError, SchemeRegistry,
};
use rand::rngs::SmallRng;
use simnet::{NodeId, QueryScratch, Verdicts};

impl PhtOutcome {
    /// Converts into the scheme-generic outcome. PHT's destination unit is
    /// the trie leaf; the trie is authoritative, so a query is exact when
    /// every destination leaf answered — always, without faults.
    pub fn into_outcome(self) -> RangeOutcome {
        RangeOutcome::from_native(
            self.results,
            OutcomeCosts { hops: self.delay, latency: self.latency, messages: self.messages },
            self.dest_leaves,
            self.reached_leaves,
            self.reached_leaves == self.dest_leaves,
        )
    }
}

impl From<PhtOutcome> for RangeOutcome {
    fn from(out: PhtOutcome) -> Self {
        out.into_outcome()
    }
}

/// A Prefix Hash Tree over any [`Dht`] as a [`RangeScheme`].
#[derive(Debug, Clone)]
pub struct PhtScheme<D: Dht> {
    pht: Pht<D>,
    scheme_name: &'static str,
    degree: String,
}

impl<D: Dht> PhtScheme<D> {
    /// Wraps a substrate with a registry name and degree label.
    pub fn new(dht: D, params: &BuildParams, scheme_name: &'static str, degree: String) -> Self {
        let mut pht = Pht::new(dht, params.domain.0, params.domain.1);
        pht.set_net_model(params.net);
        PhtScheme { pht, scheme_name, degree }
    }

    /// The wrapped trie (and through it, the substrate).
    pub fn pht(&self) -> &Pht<D> {
        &self.pht
    }
}

impl<D: Dht> RangeScheme for PhtScheme<D> {
    fn scheme_name(&self) -> &'static str {
        self.scheme_name
    }

    fn substrate(&self) -> String {
        self.pht.net_model().label(self.pht.dht().name())
    }

    fn degree(&self) -> String {
        self.degree.clone()
    }

    fn node_count(&self) -> usize {
        self.pht.dht().node_count()
    }

    fn publish(&mut self, value: f64, handle: u64) -> Result<(), SchemeError> {
        self.pht.insert(value, handle);
        Ok(())
    }

    fn random_origin(&self, rng: &mut SmallRng) -> NodeId {
        self.pht.dht().random_node(rng)
    }

    fn query(
        &self,
        req: &RangeRequest,
        cx: &mut QueryCtx<'_>,
    ) -> Result<RangeOutcome, SchemeError> {
        let dht = self.pht.dht();
        let faults = cx.faults_within(dht.node_count(), |peer| dht.is_live(peer))?;
        let origin = req.origin();
        if !dht.is_live(origin) {
            return Err(SchemeError::BadOrigin { origin });
        }
        let mut verdicts =
            faults.filter(|plan| !plan.is_fault_free()).map(|plan| Verdicts::new(plan, req.seed()));
        let (lo, hi) = (req.lo(), req.hi());
        let out = self
            .pht
            .range_query_under(origin, lo, hi, verdicts.as_mut(), cx.scratch)
            .into_outcome();
        cx.trace_modeled(self.scheme_name, origin, &out);
        Ok(out)
    }
}

/// [`PhtScheme`] over a churn-capable substrate: the same queries, plus
/// the substrate itself as the dynamics capability
/// ([`as_dynamic`](RangeScheme::as_dynamic) hands it out).
///
/// A separate wrapper (rather than a [`DynamicScheme`] bound on
/// [`PhtScheme`] itself) keeps the "runs on any DHT" promise: a static substrate still
/// builds a full [`RangeScheme`] whose `as_dynamic` returns `None`.
#[derive(Debug, Clone)]
pub struct DynamicPhtScheme<D: Dht + DynamicScheme>(PhtScheme<D>);

impl<D: Dht + DynamicScheme> DynamicPhtScheme<D> {
    /// Wraps a churn-capable substrate; parameters as [`PhtScheme::new`].
    pub fn new(dht: D, params: &BuildParams, scheme_name: &'static str, degree: String) -> Self {
        DynamicPhtScheme(PhtScheme::new(dht, params, scheme_name, degree))
    }

    /// The wrapped static scheme (and through it, the trie and substrate).
    pub fn inner(&self) -> &PhtScheme<D> {
        &self.0
    }
}

impl<D: Dht + DynamicScheme> RangeScheme for DynamicPhtScheme<D> {
    fn scheme_name(&self) -> &'static str {
        self.0.scheme_name()
    }

    fn substrate(&self) -> String {
        self.0.substrate()
    }

    fn degree(&self) -> String {
        self.0.degree()
    }

    fn node_count(&self) -> usize {
        self.0.node_count()
    }

    fn publish(&mut self, value: f64, handle: u64) -> Result<(), SchemeError> {
        self.0.publish(value, handle)
    }

    fn random_origin(&self, rng: &mut SmallRng) -> NodeId {
        self.0.random_origin(rng)
    }

    fn query(
        &self,
        req: &RangeRequest,
        cx: &mut QueryCtx<'_>,
    ) -> Result<RangeOutcome, SchemeError> {
        self.0.query(req, cx)
    }

    fn as_dynamic(&mut self) -> Option<&mut dyn DynamicScheme> {
        Some(self.0.pht.dht_mut())
    }

    fn as_replica_routing(&self) -> Option<&dyn ReplicaRouting> {
        Some(self)
    }
}

impl<D: Dht + DynamicScheme> ReplicaRouting for DynamicPhtScheme<D> {
    fn live_peers(&self) -> Vec<NodeId> {
        self.0.pht.dht().live_peers()
    }

    fn close_group(&self, value: f64, r: usize) -> Vec<NodeId> {
        self.0.pht.dht().replica_owners(dht_api::value_key(value), r)
    }

    fn fetch_costs(
        &self,
        origin: NodeId,
        holders: &[NodeId],
        _scratch: &mut QueryScratch,
        costs: &mut Vec<FetchCost>,
    ) {
        // The generic substrate can route to a *key* but not to a node, so
        // a fetch is priced with the `O(log N)` point-lookup model every
        // PHT trie operation already uses, plus one direct response hop —
        // each modeled hop priced at the direct origin→holder edge. A local
        // copy costs nothing.
        let model = self.0.pht.net_model();
        let hops = (self.node_count().max(2) as f64).log2().ceil() as u64 + 1;
        costs.extend(holders.iter().map(|&holder| match holder == origin {
            true => FetchCost::default(),
            false => {
                FetchCost { hops, latency: hops * model.edge_cost(origin, holder), messages: hops }
            }
        }));
    }
}

/// Registers `"pht-fissione"` (constant-degree substrate, measured degree)
/// and `"pht-chord"` (`O(log N)`-degree substrate).
pub fn register(reg: &mut SchemeRegistry) {
    reg.register_single(
        "pht-fissione",
        Box::new(|p, rng| {
            let cfg = fissione::FissioneConfig {
                object_id_len: p.object_id_len,
                ..fissione::FissioneConfig::default()
            };
            let dht = fissione::FissioneNet::build(cfg, p.n, rng)
                .map_err(|e| SchemeError::Build(e.to_string()))?;
            let degree = format!("{:.1}", dht.degree_stats().total.mean);
            Ok(Box::new(DynamicPhtScheme::new(dht, p, "pht-fissione", degree)))
        }),
    );
    reg.register_single(
        "pht-chord",
        Box::new(|p, rng| {
            let dht = chord::ChordNet::build(p.n, rng);
            let degree = format!("O(logN) = {:.0}", (p.n as f64).log2());
            Ok(Box::new(DynamicPhtScheme::new(dht, p, "pht-chord", degree)))
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn pht_scheme_over_both_substrates_is_exact() {
        let mut reg = SchemeRegistry::new();
        register(&mut reg);
        assert_eq!(reg.single_names(), vec!["pht-chord", "pht-fissione"]);
        for name in ["pht-chord", "pht-fissione"] {
            let mut rng = simnet::rng_from_seed(910);
            let params = BuildParams::new(80, 0.0, 1000.0).with_object_id_len(24);
            let mut scheme = reg.build_single(name, &params, &mut rng).unwrap();
            let mut data = Vec::new();
            for h in 0..250u64 {
                let v = rng.gen_range(0.0..=1000.0);
                scheme.publish(v, h).unwrap();
                data.push((v, h));
            }
            for _ in 0..10 {
                let lo = rng.gen_range(0.0..900.0);
                let hi = lo + rng.gen_range(0.5..100.0);
                let origin = scheme.random_origin(&mut rng);
                let out = scheme.range_query(origin, lo, hi, 0).unwrap();
                let mut expect: Vec<u64> =
                    data.iter().filter(|&&(v, _)| v >= lo && v <= hi).map(|&(_, h)| h).collect();
                expect.sort_unstable();
                assert_eq!(out.results, expect, "{name} on [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn an_unsupported_object_id_length_is_a_build_error() {
        // Reachable through the registry; the substrate used to panic in
        // `join`'s namespace draw instead. The last case is a length the
        // substrate supports and the peer count outgrows: there are 96
        // six-symbol ObjectIDs, and a leaf one ObjectID wide cannot split.
        let mut reg = SchemeRegistry::new();
        register(&mut reg);
        let mut rng = simnet::rng_from_seed(911);
        for (n, len) in [(80, 0), (80, fissione::MAX_OBJECT_ID_LEN + 1), (80, 200), (200, 6)] {
            let params = BuildParams::new(n, 0.0, 1000.0).with_object_id_len(len);
            let refused = reg.build_single("pht-fissione", &params, &mut rng).map(|_| ());
            assert!(matches!(refused, Err(SchemeError::Build(_))), "{n} x {len}: {refused:?}");
        }
    }

    #[test]
    fn dynamics_churn_then_stabilize_keeps_queries_exact_on_both_substrates() {
        let mut reg = SchemeRegistry::new();
        register(&mut reg);
        for name in ["pht-chord", "pht-fissione"] {
            let mut rng = simnet::rng_from_seed(912);
            let params = BuildParams::new(70, 0.0, 1000.0).with_object_id_len(24);
            let mut scheme = reg.build_single(name, &params, &mut rng).unwrap();
            let mut data = Vec::new();
            for h in 0..200u64 {
                let v = rng.gen_range(0.0..=1000.0);
                scheme.publish(v, h).unwrap();
                data.push((v, h));
            }
            let dynamic = scheme.as_dynamic().expect("pht schemes are dynamic");
            for _ in 0..20 {
                dynamic.join(&mut rng).unwrap();
            }
            for _ in 0..25 {
                let live = dynamic.live_peers();
                dynamic.crash(live[live.len() / 2]).unwrap();
            }
            dynamic.stabilize();
            assert_eq!(dynamic.live_peers().len(), 65, "{name}");
            for q in 0..8 {
                let lo = rng.gen_range(0.0..850.0);
                let hi = lo + 120.0;
                let origin = scheme.random_origin(&mut rng);
                let out = scheme.range_query(origin, lo, hi, q).unwrap();
                let mut expect: Vec<u64> =
                    data.iter().filter(|&&(v, _)| v >= lo && v <= hi).map(|&(_, h)| h).collect();
                expect.sort_unstable();
                assert_eq!(out.results, expect, "{name} post-churn [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn pht_over_a_static_only_dht_is_still_a_range_scheme() {
        /// A substrate with no churn primitives at all — `Dht` only.
        struct OneNode;
        impl Dht for OneNode {
            fn route_keys(
                &self,
                _: NodeId,
                keys: &[u64],
                _: &simnet::NetModel,
                _: Option<&mut Verdicts<'_>>,
                _: &mut QueryScratch,
                out: &mut Vec<(dht_api::Lookup, u64)>,
            ) {
                out.extend(
                    keys.iter().map(|_| (dht_api::Lookup { owner: 0, hops: 0, arrived: true }, 0)),
                );
            }
            fn is_live(&self, node: NodeId) -> bool {
                node == 0
            }
            fn replica_owners(&self, _: u64, _: usize) -> Vec<NodeId> {
                vec![0]
            }
            fn any_node(&self) -> NodeId {
                0
            }
            fn random_node(&self, _: &mut SmallRng) -> NodeId {
                0
            }
            fn node_count(&self) -> usize {
                1
            }
            fn name(&self) -> &'static str {
                "static"
            }
        }
        // PHT's "runs on any DHT" promise: a static substrate still makes
        // a full RangeScheme whose dynamics hook honestly returns None.
        let params = BuildParams::new(1, 0.0, 10.0);
        let mut scheme = PhtScheme::new(OneNode, &params, "pht-static", "0".into());
        scheme.publish(5.0, 1).unwrap();
        let out = scheme.range_query(0, 4.0, 6.0, 0).unwrap();
        assert_eq!(out.results, vec![1]);
        assert!(scheme.as_dynamic().is_none());
    }

    #[test]
    fn a_dead_or_unknown_origin_is_a_typed_error_on_both_substrates() {
        // Both used to panic in the substrate's routing instead.
        let mut reg = SchemeRegistry::new();
        register(&mut reg);
        for name in ["pht-chord", "pht-fissione"] {
            let mut rng = simnet::rng_from_seed(913);
            let params = BuildParams::new(40, 0.0, 1000.0).with_object_id_len(24);
            let mut scheme = reg.build_single(name, &params, &mut rng).unwrap();
            scheme.publish(500.0, 1).unwrap();
            let dynamic = scheme.as_dynamic().expect("pht schemes are dynamic");
            let departed = dynamic
                .live_peers()
                .into_iter()
                .find(|&peer| dynamic.leave(peer).is_ok())
                .expect("some peer can leave");
            for origin in [departed, 1_000_000] {
                let refused = scheme.range_query(origin, 100.0, 900.0, 0);
                assert!(
                    matches!(refused, Err(SchemeError::BadOrigin { origin: o }) if o == origin),
                    "{name} from {origin}: {refused:?}"
                );
            }
            let live = scheme.random_origin(&mut rng);
            assert_eq!(scheme.range_query(live, 100.0, 900.0, 0).unwrap().results, vec![1]);
        }
    }

    #[test]
    fn empty_range_is_rejected_uniformly() {
        let mut rng = simnet::rng_from_seed(911);
        let dht = chord::ChordNet::build(16, &mut rng);
        let params = BuildParams::new(16, 0.0, 10.0);
        let scheme = PhtScheme::new(dht, &params, "pht-chord", "x".into());
        assert!(matches!(scheme.range_query(0, 5.0, 1.0, 0), Err(SchemeError::EmptyRange { .. })));
    }
}
