//! DCF-CAN behind the unified [`dht_api`] query interface.
//!
//! [`DcfScheme`] wraps a [`CanNet`] plus a [`FloodMode`]; both duplicate-
//! suppression variants register separately (`"dcf-can"` directed,
//! `"dcf-can-naive"` naive), so ablations select them by name at runtime.
//! Queries flood zone-to-zone through `&self` state only, so a built
//! scheme is `Send + Sync` and shards across parallel-driver threads.
//!
//! Both variants opt into the dynamics layer
//! ([`RangeScheme::as_dynamic`]): zone joins/departures go to the CAN
//! substrate, and stabilization re-publishes records lost to crashes from
//! the adapter's own record table.

use crate::dcf::{self, DcfOutcome, FloodMode};
use crate::{CanConfig, CanError, CanNet};
use dht_api::{
    BuildParams, DynamicScheme, FetchCost, OutcomeCosts, QueryCtx, RangeOutcome, RangeRequest,
    RangeScheme, ReplicaRouting, SchemeError, SchemeRegistry,
};
use rand::rngs::SmallRng;
use simnet::{NetModel, NodeId, QueryScratch};

impl From<CanError> for SchemeError {
    fn from(e: CanError) -> Self {
        match e {
            CanError::NoSuchZone { zone } => SchemeError::BadOrigin { origin: zone },
            CanError::EmptyRange { lo, hi } => SchemeError::EmptyRange { lo, hi },
            CanError::RoutingStuck | CanError::TooSmall => SchemeError::Query(e.to_string()),
        }
    }
}

impl DcfOutcome {
    /// Converts into the scheme-generic outcome (zones count as peers).
    pub fn into_outcome(self) -> RangeOutcome {
        RangeOutcome::from_native(
            self.results,
            OutcomeCosts {
                hops: u64::from(self.delay),
                latency: self.latency,
                messages: self.messages,
            },
            self.dest_zones,
            self.reached_zones,
            self.exact,
        )
    }
}

impl From<DcfOutcome> for RangeOutcome {
    fn from(out: DcfOutcome) -> Self {
        out.into_outcome()
    }
}

/// DCF range queries over CAN as a [`RangeScheme`].
#[derive(Debug, Clone)]
pub struct DcfScheme {
    net: CanNet,
    mode: FloodMode,
    /// Network cost model pricing the flood's edges (from
    /// [`BuildParams::net`]).
    net_model: NetModel,
    /// Every record ever published — the ground truth the stabilization
    /// repair sweep restores after crashes lose zone-local copies.
    published: Vec<(f64, u64)>,
}

impl DcfScheme {
    /// Builds an `n`-zone CAN per the registry parameters.
    ///
    /// # Errors
    ///
    /// [`SchemeError::Build`] when the CAN cannot be constructed.
    pub fn build(
        params: &BuildParams,
        mode: FloodMode,
        rng: &mut SmallRng,
    ) -> Result<Self, SchemeError> {
        let cfg = CanConfig {
            domain_lo: params.domain.0,
            domain_hi: params.domain.1,
            ..CanConfig::default()
        };
        let net =
            CanNet::build(cfg, params.n, rng).map_err(|e| SchemeError::Build(e.to_string()))?;
        Ok(DcfScheme { net, mode, net_model: params.net, published: Vec::new() })
    }

    /// The wrapped CAN.
    pub fn net(&self) -> &CanNet {
        &self.net
    }

    /// Re-publishes every record no longer stored at its owning zone;
    /// returns the number restored.
    fn repair_records(&mut self) -> usize {
        let missing: Vec<(f64, u64)> = self
            .published
            .iter()
            .filter(|&&(v, h)| {
                let owner = self.net.owner_of_cell(self.net.cell_of_value(v));
                !self.net.zone(owner).expect("live owner").records().contains(&(v, h))
            })
            .copied()
            .collect();
        let restored = missing.len();
        for (v, h) in missing {
            self.net.publish(v, h);
        }
        restored
    }
}

impl RangeScheme for DcfScheme {
    fn scheme_name(&self) -> &'static str {
        match self.mode {
            FloodMode::Directed => "dcf-can",
            FloodMode::Naive => "dcf-can-naive",
        }
    }

    fn substrate(&self) -> String {
        self.net_model.label("CAN (d = 2)")
    }

    fn degree(&self) -> String {
        let total: usize = self.net.live_zones().map(|z| self.net.neighbors(z).len()).sum();
        format!("{:.1}", total as f64 / self.net.len() as f64)
    }

    fn node_count(&self) -> usize {
        self.net.len()
    }

    fn publish(&mut self, value: f64, handle: u64) -> Result<(), SchemeError> {
        self.net.publish(value, handle);
        self.published.push((value, handle));
        Ok(())
    }

    fn random_origin(&self, rng: &mut SmallRng) -> NodeId {
        self.net.random_zone(rng)
    }

    fn query(
        &self,
        req: &RangeRequest,
        cx: &mut QueryCtx<'_>,
    ) -> Result<RangeOutcome, SchemeError> {
        let faults = cx.faults_within(self.node_count(), |zone| self.net.is_live(zone))?;
        let (out, records) = dcf::query(
            &self.net,
            req.origin(),
            req.lo(),
            req.hi(),
            req.seed(),
            self.mode,
            faults,
            &self.net_model,
            cx.trace.is_some(),
            cx.scratch,
        )?;
        let out = out.into_outcome();
        cx.trace_sim_records(self.scheme_name(), records, &out);
        Ok(out)
    }

    fn as_dynamic(&mut self) -> Option<&mut dyn DynamicScheme> {
        Some(self)
    }

    fn as_replica_routing(&self) -> Option<&dyn ReplicaRouting> {
        Some(self)
    }
}

impl ReplicaRouting for DcfScheme {
    fn live_peers(&self) -> Vec<NodeId> {
        self.net.live_zones().collect()
    }

    fn close_group(&self, value: f64, r: usize) -> Vec<NodeId> {
        self.net.replica_owners(value, r)
    }

    fn fetch_costs(
        &self,
        origin: NodeId,
        holders: &[NodeId],
        _scratch: &mut QueryScratch,
        costs: &mut Vec<FetchCost>,
    ) {
        // Greedy-route to the holder zone's center, plus one direct
        // response hop — the same path pricing the query flood pays, with
        // the same edges charged by the cost model.
        let model = &self.net_model;
        costs.extend(holders.iter().map(|&holder| {
            if origin == holder {
                return FetchCost::default(); // the copy is local
            }
            let response = model.edge_cost(holder, origin);
            let (hops, route_latency) = self
                .net
                .zone(holder)
                .map(|z| {
                    let rect = z.rect();
                    ((rect.x0 + rect.x1) / 2.0, (rect.y0 + rect.y1) / 2.0)
                })
                .and_then(|(cx, cy)| self.net.route_to_point(origin, cx, cy))
                .map_or_else(
                    |_| {
                        // Unroutable: fall back to the √N grid model, priced
                        // at the direct origin→holder edge per modeled hop.
                        let h = (self.net.len() as f64).sqrt().ceil() as u64;
                        (h, h * model.edge_cost(origin, holder))
                    },
                    |path| (path.len().saturating_sub(1) as u64, model.path_cost(&path)),
                );
            FetchCost { hops: hops + 1, latency: route_latency + response, messages: hops + 1 }
        }));
    }
}

impl DynamicScheme for DcfScheme {
    fn join(&mut self, rng: &mut SmallRng) -> Result<NodeId, SchemeError> {
        Ok(self.net.join(rng))
    }

    fn leave(&mut self, node: NodeId) -> Result<(), SchemeError> {
        self.net.leave(node).map_err(SchemeError::from)
    }

    fn crash(&mut self, node: NodeId) -> Result<(), SchemeError> {
        self.net.crash(node).map(|_lost| ()).map_err(SchemeError::from)
    }

    fn stabilize(&mut self) -> usize {
        // The tiling repairs itself synchronously on every event; only the
        // records crashes dropped need restoring.
        self.repair_records()
    }

    fn live_peers(&self) -> Vec<NodeId> {
        self.net.live_zones().collect()
    }
}

/// Registers `"dcf-can"` (directed controlled flooding) and
/// `"dcf-can-naive"` (plain flooding with receiver dedup).
pub fn register(reg: &mut SchemeRegistry) {
    reg.register_single(
        "dcf-can",
        Box::new(|p, rng| Ok(Box::new(DcfScheme::build(p, FloodMode::Directed, rng)?))),
    );
    reg.register_single(
        "dcf-can-naive",
        Box::new(|p, rng| Ok(Box::new(DcfScheme::build(p, FloodMode::Naive, rng)?))),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_api::QueryTrace;
    use rand::Rng;
    use simnet::FaultPlan;

    /// `[lo, hi]` from `origin` through the full-surface call.
    fn query(
        scheme: &DcfScheme,
        (origin, lo, hi, seed): (NodeId, f64, f64, u64),
        faults: Option<&FaultPlan>,
        trace: Option<&mut QueryTrace>,
    ) -> Result<RangeOutcome, SchemeError> {
        let req = RangeRequest::new(origin, lo, hi, seed)?;
        scheme.query(&req, &mut QueryCtx { scratch: &mut QueryScratch::new(), faults, trace })
    }

    #[test]
    fn dcf_scheme_is_exact_and_flags_modes() {
        let mut rng = simnet::rng_from_seed(900);
        let params = BuildParams::new(150, 0.0, 1000.0);
        let mut scheme = DcfScheme::build(&params, FloodMode::Directed, &mut rng).unwrap();
        assert_eq!(scheme.scheme_name(), "dcf-can");
        let mut data = Vec::new();
        for h in 0..300u64 {
            let v = rng.gen_range(0.0..=1000.0);
            scheme.publish(v, h).unwrap();
            data.push((v, h));
        }
        for q in 0..15 {
            let lo = rng.gen_range(0.0..900.0);
            let hi = lo + rng.gen_range(0.5..100.0);
            let origin = scheme.random_origin(&mut rng);
            let out = scheme.range_query(origin, lo, hi, q).unwrap();
            let mut expect: Vec<u64> =
                data.iter().filter(|&&(v, _)| v >= lo && v <= hi).map(|&(_, h)| h).collect();
            expect.sort_unstable();
            assert_eq!(out.results, expect, "query [{lo}, {hi}]");
            assert!(out.exact);
        }
    }

    #[test]
    fn naive_mode_sends_at_least_as_many_messages() {
        let mut rng = simnet::rng_from_seed(901);
        let params = BuildParams::new(200, 0.0, 1000.0);
        let directed = DcfScheme::build(&params, FloodMode::Directed, &mut rng).unwrap();
        let mut rng = simnet::rng_from_seed(901);
        let naive = DcfScheme::build(&params, FloodMode::Naive, &mut rng).unwrap();
        assert_eq!(naive.scheme_name(), "dcf-can-naive");
        let mut qrng = simnet::rng_from_seed(9010);
        let mut d_total = 0u64;
        let mut n_total = 0u64;
        for q in 0..20 {
            let lo = qrng.gen_range(0.0..800.0);
            let origin = directed.random_origin(&mut qrng);
            d_total += directed.range_query(origin, lo, lo + 150.0, q).unwrap().messages;
            n_total += naive.range_query(origin, lo, lo + 150.0, q).unwrap().messages;
        }
        assert!(n_total >= d_total, "naive {n_total} < directed {d_total}");
    }

    #[test]
    fn dynamics_churn_then_stabilize_restores_exactness() {
        let mut rng = simnet::rng_from_seed(903);
        let params = BuildParams::new(120, 0.0, 1000.0);
        let mut scheme = DcfScheme::build(&params, FloodMode::Directed, &mut rng).unwrap();
        let mut data = Vec::new();
        for h in 0..250u64 {
            let v = rng.gen_range(0.0..=1000.0);
            scheme.publish(v, h).unwrap();
            data.push((v, h));
        }
        let dynamic = scheme.as_dynamic().expect("dcf-can is dynamic");
        for _ in 0..30 {
            dynamic.join(&mut rng).unwrap();
        }
        for _ in 0..20 {
            let live = dynamic.live_peers();
            dynamic.leave(live[live.len() / 2]).unwrap();
        }
        for _ in 0..15 {
            let live = dynamic.live_peers();
            dynamic.crash(live[live.len() / 3]).unwrap();
        }
        let repaired = dynamic.stabilize();
        assert!(repaired > 0, "crashes at this density should lose records");
        assert_eq!(dynamic.live_peers().len(), 115);
        scheme.net().check_invariants().unwrap();
        for q in 0..10 {
            let lo = rng.gen_range(0.0..800.0);
            let hi = lo + 150.0;
            let origin = scheme.random_origin(&mut rng);
            let out = scheme.range_query(origin, lo, hi, q).unwrap();
            let mut expect: Vec<u64> =
                data.iter().filter(|&&(v, _)| v >= lo && v <= hi).map(|&(_, h)| h).collect();
            expect.sort_unstable();
            assert_eq!(out.results, expect, "post-churn query [{lo}, {hi}]");
            assert!(out.exact);
        }
    }

    #[test]
    fn out_of_range_fault_plans_are_rejected_not_ignored() {
        // Regression: a plan crashing zone ≥ N used to be a silent no-op.
        let mut rng = simnet::rng_from_seed(904);
        let scheme =
            DcfScheme::build(&BuildParams::new(50, 0.0, 100.0), FloodMode::Directed, &mut rng)
                .unwrap();
        let mut faults = FaultPlan::new();
        faults.crash(scheme.node_count());
        let err = query(&scheme, (0, 1.0, 2.0, 0), Some(&faults), None).unwrap_err();
        assert!(matches!(err, SchemeError::FaultPlanOutOfRange { .. }), "{err}");
        // In-range plans still run.
        let mut ok = FaultPlan::new();
        ok.crash(scheme.node_count() - 1);
        assert!(query(&scheme, (0, 1.0, 2.0, 0), Some(&ok), None).is_ok());
    }

    #[test]
    fn trace_totals_reproduce_reported_costs() {
        // The accounting invariant across the route→flood local hand-off:
        // the walkback must telescope through the phase switch.
        let mut rng = simnet::rng_from_seed(905);
        let params = BuildParams::new(150, 0.0, 1000.0);
        let mut scheme = DcfScheme::build(&params, FloodMode::Directed, &mut rng).unwrap();
        for h in 0..200u64 {
            scheme.publish(rng.gen_range(0.0..=1000.0), h).unwrap();
        }
        let faults = FaultPlan::with_drop_prob(0.1);
        for q in 0..15 {
            let lo = rng.gen_range(0.0..850.0);
            let hi = lo + rng.gen_range(0.5..120.0);
            let origin = scheme.random_origin(&mut rng);
            let plain = scheme.range_query(origin, lo, hi, q).unwrap();
            let mut trace = QueryTrace::default();
            let traced = query(&scheme, (origin, lo, hi, q), None, Some(&mut trace)).unwrap();
            assert_eq!(plain, traced, "tracing perturbed query [{lo}, {hi}]");
            assert_eq!(
                trace.root.total(),
                (traced.delay, traced.latency, traced.messages),
                "explain tree must sum to the outcome: [{lo}, {hi}]\n{}",
                trace.explain_text()
            );
            // And under faults too.
            let plain_f = query(&scheme, (origin, lo, hi, q), Some(&faults), None).unwrap();
            let mut trace_f = QueryTrace::default();
            let traced_f =
                query(&scheme, (origin, lo, hi, q), Some(&faults), Some(&mut trace_f)).unwrap();
            assert_eq!(plain_f, traced_f);
            assert_eq!(trace_f.root.total(), (traced_f.delay, traced_f.latency, traced_f.messages));
        }
    }

    #[test]
    fn errors_map_to_unified_error() {
        let mut rng = simnet::rng_from_seed(902);
        let scheme =
            DcfScheme::build(&BuildParams::new(30, 0.0, 10.0), FloodMode::Directed, &mut rng)
                .unwrap();
        assert!(matches!(scheme.range_query(0, 5.0, 1.0, 0), Err(SchemeError::EmptyRange { .. })));
        assert!(matches!(
            scheme.range_query(usize::MAX, 1.0, 2.0, 0),
            Err(SchemeError::BadOrigin { .. })
        ));
    }
}
