//! Armada behind the unified [`dht_api`] query interface.
//!
//! Three adapters: [`PiraScheme`] (single-attribute PIRA), [`SeqWalkScheme`]
//! (the sequential-walk reference baseline), and [`MiraScheme`]
//! (multi-attribute MIRA). Each wraps the native engine plus a
//! `RecordId → caller handle` table, so [`RangeOutcome::results`] carries
//! the handles the caller published — the contract every scheme shares.
//!
//! All three adapters are `Send + Sync` (plain owned tables, no interior
//! mutability), so one built instance shards across the parallel driver's
//! threads by reference; [`register`] wires their builders into the
//! [`SchemeRegistry`] under `"pira"`, `"seqwalk"`, and `"mira"`.
//!
//! The engine implements the dynamics layer ([`DynamicScheme`]) once, for
//! either naming: FISSIONE supplies join/leave/crash/stabilize natively, and
//! the engine adds the data-repair half — [`Armada::repair_records`]
//! re-publishes whatever crashed peers lost, restoring the post-stabilize
//! exactness contract for PIRA and MIRA alike. The single-attribute adapters
//! hand their engine out through [`RangeScheme::as_dynamic`] and, for the
//! replication layer, [`RangeScheme::as_replica_routing`] (close groups are
//! keyed by one value, so only [`SingleArmada`] routes replicas).
//!
//! [`RangeOutcome::results`]: dht_api::RangeOutcome

use crate::{Armada, ArmadaError, MultiArmada, QueryOutcome, SingleArmada};
use dht_api::{
    BuildParams, Dht, DynamicScheme, FetchCost, MultiBuildParams, MultiRangeScheme, OutcomeCosts,
    QueryCtx, RangeOutcome, RangeRequest, RangeScheme, RectRequest, ReplicaRouting, SchemeError,
    SchemeRegistry,
};
use fissione::{FissioneConfig, RouteTree};
use kautz::naming::{Naming, NamingError};
use rand::rngs::SmallRng;
use simnet::{NodeId, QueryScratch};

impl From<ArmadaError> for SchemeError {
    fn from(e: ArmadaError) -> Self {
        match e {
            ArmadaError::BadOrigin { origin } => SchemeError::BadOrigin { origin },
            ArmadaError::Naming(NamingError::WrongArity { expected, got }) => {
                SchemeError::WrongArity { expected, got }
            }
            other => SchemeError::Query(other.to_string()),
        }
    }
}

/// Remaps a native outcome's `RecordId` results through a handle table, in
/// place: a `RecordId` is a `u64`, so the collect reuses the result buffer.
/// Results arrive in `RecordId` order, so handles handed out in publish
/// order — the common case — are ascending already;
/// [`RangeOutcome::from_native`] sorts and dedups whatever is not.
fn remap(out: QueryOutcome, handles: &[u64]) -> RangeOutcome {
    let QueryOutcome { results, metrics } = out;
    RangeOutcome::from_native(
        results.into_iter().map(|record| handles[record.0 as usize]).collect(),
        OutcomeCosts {
            hops: u64::from(metrics.delay),
            latency: metrics.latency,
            messages: metrics.messages,
        },
        metrics.dest_peers,
        metrics.reached_peers,
        metrics.exact,
    )
}

fn build_single(params: &BuildParams, rng: &mut SmallRng) -> Result<SingleArmada, SchemeError> {
    let cfg = FissioneConfig { object_id_len: params.object_id_len, ..FissioneConfig::default() };
    let mut armada = SingleArmada::build_with(cfg, params.n, params.domain.0, params.domain.1, rng)
        .map_err(|e| SchemeError::Build(e.to_string()))?;
    armada.set_net_model(params.net);
    Ok(armada)
}

/// Armada's PIRA algorithm as a [`RangeScheme`].
#[derive(Debug, Clone)]
pub struct PiraScheme {
    inner: SingleArmada,
    handles: Vec<u64>,
}

impl PiraScheme {
    /// Builds an `n`-peer Armada system per the registry parameters.
    ///
    /// # Errors
    ///
    /// [`SchemeError::Build`] for invalid domains or undersized networks.
    pub fn build(params: &BuildParams, rng: &mut SmallRng) -> Result<Self, SchemeError> {
        Ok(PiraScheme { inner: build_single(params, rng)?, handles: Vec::new() })
    }

    /// The wrapped native engine.
    pub fn inner(&self) -> &SingleArmada {
        &self.inner
    }

    /// The engine's network, mutably: membership changes the
    /// [`DynamicScheme`] surface has no name for (`split_leaf`).
    pub fn net_mut(&mut self) -> &mut fissione::FissioneNet {
        self.inner.net_mut()
    }
}

impl RangeScheme for PiraScheme {
    fn scheme_name(&self) -> &'static str {
        "pira"
    }

    fn substrate(&self) -> String {
        self.inner.net_model().label("FissionE")
    }

    fn degree(&self) -> String {
        format!("{:.1}", self.inner.net().degree_stats().total.mean)
    }

    fn node_count(&self) -> usize {
        self.inner.net().len()
    }

    fn publish(&mut self, value: f64, handle: u64) -> Result<(), SchemeError> {
        self.inner.publish(value);
        self.handles.push(handle);
        Ok(())
    }

    fn random_origin(&self, rng: &mut SmallRng) -> NodeId {
        self.inner.net().random_peer(rng)
    }

    fn query(
        &self,
        req: &RangeRequest,
        cx: &mut QueryCtx<'_>,
    ) -> Result<RangeOutcome, SchemeError> {
        let faults = cx.faults_within(self.node_count(), |peer| self.inner.net().is_live(peer))?;
        let (out, records) = crate::descent::query(
            &self.inner,
            req.origin(),
            &[(req.lo(), req.hi())],
            req.seed(),
            faults,
            cx.trace.is_some(),
            cx.scratch,
        )?;
        let out = remap(out, &self.handles);
        cx.trace_sim_records("pira", records, &out);
        Ok(out)
    }

    fn as_dynamic(&mut self) -> Option<&mut dyn DynamicScheme> {
        Some(&mut self.inner)
    }

    fn as_replica_routing(&self) -> Option<&dyn ReplicaRouting> {
        Some(&self.inner)
    }
}

/// FISSIONE-backed dynamics, one for both namings: churn goes straight to
/// the substrate, and stabilization pairs the overlay's invariant repair
/// with a record-repair sweep re-publishing whatever crashes lost (the
/// engine's record table is the ground truth).
impl<N: Naming> DynamicScheme for Armada<N> {
    fn join(&mut self, rng: &mut SmallRng) -> Result<NodeId, SchemeError> {
        self.net_mut().try_join(rng).map_err(SchemeError::from)
    }

    fn leave(&mut self, node: NodeId) -> Result<(), SchemeError> {
        self.net_mut().leave(node).map_err(SchemeError::from)
    }

    fn crash(&mut self, node: NodeId) -> Result<(), SchemeError> {
        self.net_mut().crash(node).map(|_lost| ()).map_err(SchemeError::from)
    }

    fn stabilize(&mut self) -> usize {
        let migrations = self.net_mut().stabilize();
        migrations + self.repair_records()
    }

    fn live_peers(&self) -> Vec<NodeId> {
        self.net().live_peers().collect()
    }
}

/// FISSIONE-backed replica routing, shared by the PIRA and sequential-walk
/// adapters through their engine: close groups come
/// from the substrate's Kautz neighborhood ([`Dht::replica_owners`]), and
/// point fetches pay the real routed path to the holder plus one direct
/// response hop — with the same edges priced by the engine's cost model for
/// the latency figure. A batch of fetches from one origin is priced over
/// one route tree ([`fissione::FissioneNet::route_tree_fold`]) whose
/// targets are the holders' keys, read from the routing table by rank; a
/// single fetch is a batch of one, so every fetch is priced by the same
/// code.
impl ReplicaRouting for SingleArmada {
    fn live_peers(&self) -> Vec<NodeId> {
        self.net().live_peers().collect()
    }

    fn close_group(&self, value: f64, r: usize) -> Vec<NodeId> {
        self.net().replica_owners(dht_api::value_key(value), r)
    }

    fn fetch_costs(
        &self,
        origin: NodeId,
        holders: &[NodeId],
        scratch: &mut QueryScratch,
        costs: &mut Vec<FetchCost>,
    ) {
        let (net, model) = (self.net(), self.net_model());
        let table = net.route_table();
        let tree = scratch.slot::<RouteTree<(u64, u64)>>();
        // A local copy costs nothing and a dead holder has no PeerID to
        // route to: only the others are walked, in `holders` order, each
        // by its rank's key.
        let routed = |&holder: &NodeId| match holder == origin {
            true => None,
            false => table.rank(holder),
        };
        net.route_tree_fold(
            origin,
            holders.iter().filter_map(routed).map(|rank| table.key(rank)),
            (0, 0),
            |(hops, ms), src, dst| (hops + 1, ms + model.edge_cost(src, dst)),
            tree,
        );
        let mut results = tree.results().iter();
        costs.extend(holders.iter().map(|holder| {
            let holder = *holder;
            if holder == origin {
                return FetchCost::default(); // the copy is local
            }
            let route = routed(&holder)
                .and_then(|_| results.next().expect("one result per routed holder").as_ref().ok());
            let (hops, route_latency) = route.map_or_else(
                || {
                    // Unroutable (dead holder): fall back to the log N lookup
                    // model, priced at the direct origin→holder edge per
                    // modeled hop.
                    let h = (net.len() as f64).log2().ceil() as u64;
                    (h, h * model.edge_cost(origin, holder))
                },
                |&(_, cost)| cost,
            );
            FetchCost {
                hops: hops + 1, // routed request + direct response
                latency: route_latency + model.edge_cost(holder, origin),
                messages: hops + 1,
            }
        }));
    }
}

/// The sequential-walk reference baseline as a [`RangeScheme`].
///
/// Models the `O(logN + n)` linked-list class (Skip Graph / SkipNet) over
/// Armada's data placement; see [`crate::seqwalk`].
#[derive(Debug, Clone)]
pub struct SeqWalkScheme {
    inner: SingleArmada,
    handles: Vec<u64>,
}

impl SeqWalkScheme {
    /// Builds an `n`-peer network per the registry parameters.
    ///
    /// # Errors
    ///
    /// [`SchemeError::Build`] for invalid domains or undersized networks.
    pub fn build(params: &BuildParams, rng: &mut SmallRng) -> Result<Self, SchemeError> {
        Ok(SeqWalkScheme { inner: build_single(params, rng)?, handles: Vec::new() })
    }
}

impl RangeScheme for SeqWalkScheme {
    fn scheme_name(&self) -> &'static str {
        "seqwalk"
    }

    fn substrate(&self) -> String {
        self.inner.net_model().label("FissionE placement")
    }

    fn degree(&self) -> String {
        "2 (successor list)".into()
    }

    fn node_count(&self) -> usize {
        self.inner.net().len()
    }

    fn publish(&mut self, value: f64, handle: u64) -> Result<(), SchemeError> {
        self.inner.publish(value);
        self.handles.push(handle);
        Ok(())
    }

    fn random_origin(&self, rng: &mut SmallRng) -> NodeId {
        self.inner.net().random_peer(rng)
    }

    fn query(
        &self,
        req: &RangeRequest,
        cx: &mut QueryCtx<'_>,
    ) -> Result<RangeOutcome, SchemeError> {
        let faults = cx.faults_within(self.node_count(), |peer| self.inner.net().is_live(peer))?;
        let (out, records) = crate::seqwalk::query(
            &self.inner,
            req.origin(),
            req.lo(),
            req.hi(),
            req.seed(),
            faults,
            cx.trace.is_some(),
            cx.scratch,
        )?;
        let out = remap(out, &self.handles);
        cx.trace_sim_records("seqwalk", records, &out);
        Ok(out)
    }

    fn as_dynamic(&mut self) -> Option<&mut dyn DynamicScheme> {
        Some(&mut self.inner)
    }

    fn as_replica_routing(&self) -> Option<&dyn ReplicaRouting> {
        Some(&self.inner)
    }
}

/// Armada's MIRA algorithm as a [`MultiRangeScheme`].
#[derive(Debug, Clone)]
pub struct MiraScheme {
    inner: MultiArmada,
    handles: Vec<u64>,
}

impl MiraScheme {
    /// Builds an `n`-peer multi-attribute Armada system.
    ///
    /// # Errors
    ///
    /// [`SchemeError::Build`] for invalid domains or undersized networks.
    pub fn build(params: &MultiBuildParams, rng: &mut SmallRng) -> Result<Self, SchemeError> {
        let cfg =
            FissioneConfig { object_id_len: params.object_id_len, ..FissioneConfig::default() };
        let mut inner = MultiArmada::build_with(cfg, params.n, &params.domains, rng)
            .map_err(|e| SchemeError::Build(e.to_string()))?;
        inner.set_net_model(params.net);
        Ok(MiraScheme { inner, handles: Vec::new() })
    }

    /// The wrapped native engine.
    pub fn inner(&self) -> &MultiArmada {
        &self.inner
    }

    /// The wrapped native engine, mutably: it is the [`DynamicScheme`] the
    /// multi-attribute surface has no hook for.
    pub fn inner_mut(&mut self) -> &mut MultiArmada {
        &mut self.inner
    }
}

impl MultiRangeScheme for MiraScheme {
    fn scheme_name(&self) -> &'static str {
        "mira"
    }

    fn substrate(&self) -> String {
        self.inner.net_model().label("FissionE")
    }

    fn degree(&self) -> String {
        format!("{:.1}", self.inner.net().degree_stats().total.mean)
    }

    fn node_count(&self) -> usize {
        self.inner.net().len()
    }

    fn dims(&self) -> usize {
        self.inner.naming().arity()
    }

    fn publish_point(&mut self, point: &[f64], handle: u64) -> Result<(), SchemeError> {
        self.inner.publish(point)?;
        self.handles.push(handle);
        Ok(())
    }

    fn random_origin(&self, rng: &mut SmallRng) -> NodeId {
        self.inner.net().random_peer(rng)
    }

    fn query(
        &self,
        req: &RectRequest<'_>,
        cx: &mut QueryCtx<'_>,
    ) -> Result<RangeOutcome, SchemeError> {
        let faults = cx.faults_within(self.node_count(), |peer| self.inner.net().is_live(peer))?;
        let (out, records) = crate::descent::query(
            &self.inner,
            req.origin(),
            req.rect(),
            req.seed(),
            faults,
            cx.trace.is_some(),
            cx.scratch,
        )?;
        let out = remap(out, &self.handles);
        cx.trace_sim_records("mira", records, &out);
        Ok(out)
    }
}

/// Registers `"pira"`, `"seqwalk"` (single) and `"mira"` (multi).
pub fn register(reg: &mut SchemeRegistry) {
    reg.register_single("pira", Box::new(|p, rng| Ok(Box::new(PiraScheme::build(p, rng)?))));
    reg.register_single("seqwalk", Box::new(|p, rng| Ok(Box::new(SeqWalkScheme::build(p, rng)?))));
    reg.register_multi("mira", Box::new(|p, rng| Ok(Box::new(MiraScheme::build(p, rng)?))));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_api::QueryTrace;
    use rand::Rng;
    use simnet::FaultPlan;

    fn params(n: usize) -> BuildParams {
        BuildParams::new(n, 0.0, 1000.0).with_object_id_len(24)
    }

    /// `[lo, hi]` from `origin` through the full-surface call.
    fn query(
        scheme: &dyn RangeScheme,
        (origin, lo, hi, seed): (NodeId, f64, f64, u64),
        faults: Option<&FaultPlan>,
        trace: Option<&mut QueryTrace>,
    ) -> Result<RangeOutcome, SchemeError> {
        let req = RangeRequest::new(origin, lo, hi, seed)?;
        scheme.query(&req, &mut QueryCtx { scratch: &mut QueryScratch::new(), faults, trace })
    }

    /// MIRA over `[0, 1000]²`, `n` peers and `n` records.
    fn loaded_mira(n: usize, seed: u64) -> MiraScheme {
        let mut rng = simnet::rng_from_seed(seed);
        let p = MultiBuildParams::new(n, &[(0.0, 1000.0); 2]).with_object_id_len(24);
        let mut scheme = MiraScheme::build(&p, &mut rng).unwrap();
        for h in 0..n as u64 {
            let point = [rng.gen_range(0.0..=1000.0), rng.gen_range(0.0..=1000.0)];
            scheme.publish_point(&point, h).unwrap();
        }
        scheme
    }

    /// The square `[lo, hi]²` from `origin` through MIRA's full-surface call.
    fn square_query(
        scheme: &MiraScheme,
        (origin, lo, hi, seed): (NodeId, f64, f64, u64),
        faults: Option<&FaultPlan>,
        trace: Option<&mut QueryTrace>,
    ) -> Result<RangeOutcome, SchemeError> {
        let square = [(lo, hi); 2];
        let req = RectRequest::new(origin, &square, seed)?;
        let mut cx = QueryCtx { scratch: &mut QueryScratch::new(), faults, trace };
        MultiRangeScheme::query(scheme, &req, &mut cx)
    }

    /// A full-surface call with the scheme bound: what lets one test body
    /// take single- and multi-attribute schemes as inputs.
    type Ask<'a> = &'a dyn Fn(
        (NodeId, f64, f64, u64),
        Option<&FaultPlan>,
        Option<&mut QueryTrace>,
    ) -> Result<RangeOutcome, SchemeError>;

    #[test]
    fn pira_scheme_matches_native_engine() {
        let mut rng = simnet::rng_from_seed(800);
        let mut scheme = PiraScheme::build(&params(120), &mut rng).unwrap();
        // Publish with shuffled handles so remapping is actually exercised.
        let mut values = Vec::new();
        for i in 0..300u64 {
            let v = rng.gen_range(0.0..=1000.0);
            let handle = 10_000 - i; // descending handles
            scheme.publish(v, handle).unwrap();
            values.push((v, handle));
        }
        for q in 0..20 {
            let lo = rng.gen_range(0.0..900.0);
            let hi = lo + rng.gen_range(0.5..100.0);
            let origin = scheme.random_origin(&mut rng);
            let out = scheme.range_query(origin, lo, hi, q).unwrap();
            let mut expect: Vec<u64> =
                values.iter().filter(|&&(v, _)| v >= lo && v <= hi).map(|&(_, h)| h).collect();
            expect.sort_unstable();
            assert_eq!(out.results, expect, "query [{lo}, {hi}]");
            assert!(out.exact);
        }
    }

    #[test]
    fn seqwalk_scheme_agrees_with_pira_scheme() {
        let mut rng = simnet::rng_from_seed(801);
        let mut pira = PiraScheme::build(&params(100), &mut rng).unwrap();
        let mut rng2 = simnet::rng_from_seed(801);
        let mut walk = SeqWalkScheme::build(&params(100), &mut rng2).unwrap();
        let mut data_rng = simnet::rng_from_seed(8010);
        for h in 0..200u64 {
            let v = data_rng.gen_range(0.0..=1000.0);
            pira.publish(v, h).unwrap();
            walk.publish(v, h).unwrap();
        }
        for q in 0..10 {
            let lo = data_rng.gen_range(0.0..800.0);
            let origin = pira.random_origin(&mut data_rng);
            let a = pira.range_query(origin, lo, lo + 100.0, q).unwrap();
            let b = walk.range_query(origin, lo, lo + 100.0, q).unwrap();
            assert_eq!(a.results, b.results);
            assert_eq!(a.dest_peers, b.dest_peers);
        }
    }

    #[test]
    fn mira_scheme_answers_rectangles() {
        let mut rng = simnet::rng_from_seed(802);
        let p = MultiBuildParams::new(80, &[(0.0, 100.0), (0.0, 100.0)]).with_object_id_len(24);
        let mut scheme = MiraScheme::build(&p, &mut rng).unwrap();
        assert_eq!(scheme.dims(), 2);
        let mut pts = Vec::new();
        for h in 0..150u64 {
            let pt = [rng.gen_range(0.0..=100.0), rng.gen_range(0.0..=100.0)];
            scheme.publish_point(&pt, h).unwrap();
            pts.push(pt);
        }
        let rect = [(20.0, 60.0), (30.0, 70.0)];
        let origin = scheme.random_origin(&mut rng);
        let out = scheme.rect_query(origin, &rect, 1).unwrap();
        let mut expect: Vec<u64> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.iter().zip(rect.iter()).all(|(&v, &(lo, hi))| v >= lo && v <= hi))
            .map(|(h, _)| h as u64)
            .collect();
        expect.sort_unstable();
        assert_eq!(out.results, expect);
        assert!(out.exact);
        // Arity errors are uniform, and malformed bounds are typed errors.
        assert!(matches!(
            scheme.rect_query(origin, &[(0.0, 1.0)], 1),
            Err(SchemeError::WrongArity { .. })
        ));
        assert!(matches!(
            scheme.rect_query(origin, &[(20.0, 60.0), (f64::NAN, 70.0)], 1),
            Err(SchemeError::EmptyRange { .. })
        ));
        // The full-surface call: a reused scratch and a requested trace
        // leave the outcome alone; an injected plan reaches the engine.
        let req = RectRequest::new(origin, &rect, 1).unwrap();
        let mut scratch = QueryScratch::new();
        for _ in 0..2 {
            let mut trace = QueryTrace::default();
            let mut cx = QueryCtx::new(&mut scratch).with_trace(&mut trace);
            assert_eq!(MultiRangeScheme::query(&scheme, &req, &mut cx).unwrap(), out);
            assert_eq!(trace.root.total(), (out.delay, out.latency, out.messages));
        }
        let lossy = FaultPlan::with_drop_prob(1.0);
        let mut cx = QueryCtx::new(&mut scratch).with_faults(&lossy);
        assert!(!MultiRangeScheme::query(&scheme, &req, &mut cx).unwrap().exact);
    }

    #[test]
    fn an_object_id_length_too_short_for_the_peer_count_is_a_typed_error() {
        // 200 peers outgrow the 96 six-symbol ObjectIDs: some join on the
        // way finds only leaves one ObjectID wide, which cannot split.
        let mut reg = SchemeRegistry::new();
        register(&mut reg);
        let mut rng = simnet::rng_from_seed(806);
        let short = BuildParams::new(200, 0.0, 1000.0).with_object_id_len(6);
        for name in ["pira", "seqwalk"] {
            let refused = reg.build_single(name, &short, &mut rng).map(|_| ());
            assert!(matches!(refused, Err(SchemeError::Build(_))), "{name}: {refused:?}");
        }
        // A network that fits joins until a join picks a leaf one ObjectID
        // wide; the refusal leaves it answering exactly.
        let fits = BuildParams::new(40, 0.0, 1000.0).with_object_id_len(6);
        let mut scheme = reg.build_single("pira", &fits, &mut rng).unwrap();
        for h in 0..60u64 {
            scheme.publish(rng.gen_range(0.0..=1000.0), h).unwrap();
        }
        let dynamic = scheme.as_dynamic().expect("pira is dynamic");
        let refused = (0..96).find_map(|_| dynamic.join(&mut rng).err());
        let Some(SchemeError::Build(why)) = refused else { panic!("no refusal: {refused:?}") };
        assert!(why.contains("depth-6") && why.contains("6 symbols"), "{why}");
        let origin = scheme.random_origin(&mut rng);
        let out = scheme.range_query(origin, 0.0, 1000.0, 1).unwrap();
        assert!(out.exact);
        assert_eq!(out.results.len(), 60);
    }

    #[test]
    fn dynamics_churn_then_stabilize_restores_exactness() {
        let mut rng = simnet::rng_from_seed(804);
        let mut scheme = PiraScheme::build(&params(100), &mut rng).unwrap();
        let mut data = Vec::new();
        for h in 0..200u64 {
            let v = rng.gen_range(0.0..=1000.0);
            scheme.publish(v, h).unwrap();
            data.push((v, h));
        }
        // Churn through the capability hook, as a driver would.
        let dynamic = scheme.as_dynamic().expect("pira is dynamic");
        for _ in 0..40 {
            dynamic.join(&mut rng).unwrap();
        }
        for _ in 0..25 {
            let live = dynamic.live_peers();
            dynamic.leave(live[live.len() / 2]).unwrap();
        }
        for _ in 0..10 {
            let live = dynamic.live_peers();
            dynamic.crash(live[live.len() / 3]).unwrap();
        }
        dynamic.stabilize();
        assert_eq!(dynamic.live_peers().len(), 105);
        // Every query is exact again, records included.
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
            assert_eq!(out.peer_recall(), 1.0);
        }
    }

    #[test]
    fn pira_simulates_fault_plans_through_the_trait() {
        let mut rng = simnet::rng_from_seed(805);
        let mut scheme = PiraScheme::build(&params(150), &mut rng).unwrap();
        for h in 0..150u64 {
            scheme.publish(rng.gen_range(0.0..=1000.0), h).unwrap();
        }
        let mut faults = FaultPlan::with_drop_prob(0.3);
        let mut degraded = false;
        for q in 0..20 {
            let origin = scheme.random_origin(&mut rng);
            let out = query(&scheme, (origin, 100.0, 400.0, q), Some(&faults), None).unwrap();
            degraded |= out.peer_recall() < 1.0;
        }
        assert!(degraded, "30% loss should cost some recall");
        // A fault-free plan matches the plain path bit for bit.
        faults.set_drop_prob(0.0);
        let origin = scheme.random_origin(&mut rng);
        let a = scheme.range_query(origin, 100.0, 400.0, 1).unwrap();
        let b = query(&scheme, (origin, 100.0, 400.0, 1), Some(&faults), None).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn out_of_range_fault_plans_are_rejected_not_ignored() {
        // Regression: a plan crashing peer ≥ N used to be a silent no-op —
        // under MIRA for as long as its adapter had a call shape of its own.
        let mut rng = simnet::rng_from_seed(808);
        let pira = PiraScheme::build(&params(80), &mut rng).unwrap();
        let mira = loaded_mira(80, 8080);
        let origin = pira.random_origin(&mut rng);
        let asks: [(usize, Ask); 2] = [
            (pira.node_count(), &|at, faults, trace| query(&pira, at, faults, trace)),
            (mira.node_count(), &|at, faults, trace| square_query(&mira, at, faults, trace)),
        ];
        for (node_count, ask) in asks {
            let mut faults = FaultPlan::new();
            faults.crash(node_count + 5);
            let err = ask((origin, 1.0, 2.0, 0), Some(&faults), None).unwrap_err();
            assert!(matches!(err, SchemeError::FaultPlanOutOfRange { .. }), "{err}");
            assert!(err.to_string().contains("80"));
            // In-range plans still run.
            let mut ok = FaultPlan::new();
            ok.crash(node_count - 1);
            assert!(ask((origin, 1.0, 2.0, 0), Some(&ok), None).is_ok());
        }
    }

    #[test]
    fn replicated_pira_recovers_records_before_stabilize() {
        let mut reg = SchemeRegistry::new();
        register(&mut reg);
        let build = |name: &str| {
            let mut rng = simnet::rng_from_seed(806);
            let mut s = reg.build_single(name, &params(120), &mut rng).unwrap();
            let mut data_rng = simnet::rng_from_seed(8060);
            for h in 0..300u64 {
                s.publish(data_rng.gen_range(0.0..=1000.0), h).unwrap();
            }
            s
        };
        let mut plain = build("pira");
        let mut replicated = build("pira+r3");
        // The same crash sequence hits both (victims are drawn by index
        // from identical live lists — the wrapper does not perturb
        // membership).
        for s in [&mut plain, &mut replicated] {
            let dynamic = s.as_dynamic().unwrap();
            for _ in 0..15 {
                let live = dynamic.live_peers();
                dynamic.crash(live[live.len() / 2]).unwrap();
            }
        }
        // No stabilize: the primary path is degraded on both…
        let mut rng = simnet::rng_from_seed(807);
        let origin = plain.random_origin(&mut rng);
        let bare = plain.range_query(origin, 0.0, 1000.0, 0).unwrap();
        let served = replicated.range_query(origin, 0.0, 1000.0, 0).unwrap();
        assert!(bare.results.len() < 300, "15 crashes must cost the bare scheme records");
        // …but replicas win answers back, at an honest message premium.
        assert!(
            served.results.len() > bare.results.len(),
            "replicas must recover records: {} !> {}",
            served.results.len(),
            bare.results.len()
        );
        // FissionE reclaims crashed zones synchronously, so peer-level
        // recall can already sit at 1.0 mid-churn — the replicas win back
        // the *records* and must never make peer recall worse.
        assert!(served.peer_recall() >= bare.peer_recall());
        assert!(served.messages > bare.messages, "replica fetches are not free");
        assert!(served.delay >= bare.delay, "the fetch phase cannot shorten the critical path");
        // The wrapper still reports the scheme's registry identity.
        assert_eq!(replicated.scheme_name(), "pira");
        assert!(replicated.substrate().contains("successor-3"));
    }

    #[test]
    fn trace_totals_reproduce_reported_costs() {
        // The tentpole accounting invariant, on all three traced adapters:
        // the explain tree's total is exactly (delay, latency, messages).
        let mut rng = simnet::rng_from_seed(809);
        let mut pira = PiraScheme::build(&params(150), &mut rng).unwrap();
        let mut rng2 = simnet::rng_from_seed(809);
        let mut walk = SeqWalkScheme::build(&params(150), &mut rng2).unwrap();
        let mira = loaded_mira(150, 8091);
        let mut data_rng = simnet::rng_from_seed(8090);
        for h in 0..300u64 {
            let v = data_rng.gen_range(0.0..=1000.0);
            pira.publish(v, h).unwrap();
            walk.publish(v, h).unwrap();
        }
        let asks: [(&str, Ask); 3] = [
            ("pira", &|at, faults, trace| query(&pira, at, faults, trace)),
            ("seqwalk", &|at, faults, trace| query(&walk, at, faults, trace)),
            ("mira", &|at, faults, trace| square_query(&mira, at, faults, trace)),
        ];
        for q in 0..15 {
            let lo = data_rng.gen_range(0.0..900.0);
            let hi = lo + data_rng.gen_range(0.5..80.0);
            let origin = pira.random_origin(&mut data_rng);
            for (name, ask) in asks {
                let plain = ask((origin, lo, hi, q), None, None).unwrap();
                let mut trace = QueryTrace::default();
                let traced = ask((origin, lo, hi, q), None, Some(&mut trace)).unwrap();
                assert_eq!(plain, traced, "{name} query [{lo}, {hi}]");
                assert_eq!(
                    trace.root.total(),
                    (traced.delay, traced.latency, traced.messages),
                    "{name} explain tree must sum to the outcome: [{lo}, {hi}]\n{}",
                    trace.explain_text()
                );
                assert!(!trace.events.is_empty());
            }
        }
    }

    #[test]
    fn traced_faults_keep_the_accounting_invariant() {
        let mut rng = simnet::rng_from_seed(810);
        let mut pira = PiraScheme::build(&params(150), &mut rng).unwrap();
        for h in 0..200u64 {
            pira.publish(rng.gen_range(0.0..=1000.0), h).unwrap();
        }
        let mira = loaded_mira(150, 8100);
        let asks: [Ask; 2] =
            [&|at, faults, trace| query(&pira, at, faults, trace), &|at, faults, trace| {
                square_query(&mira, at, faults, trace)
            }];
        let faults = FaultPlan::with_drop_prob(0.2);
        for q in 0..15 {
            let origin = pira.random_origin(&mut rng);
            let at = (origin, 100.0, 400.0, q);
            for ask in asks {
                let plain = ask(at, Some(&faults), None).unwrap();
                let mut trace = QueryTrace::default();
                let traced = ask(at, Some(&faults), Some(&mut trace)).unwrap();
                assert_eq!(plain, traced);
                assert_eq!(trace.root.total(), (traced.delay, traced.latency, traced.messages));
            }
        }
    }

    #[test]
    fn registry_round_trip() {
        let mut reg = SchemeRegistry::new();
        register(&mut reg);
        assert_eq!(reg.single_names(), vec!["pira", "seqwalk"]);
        assert_eq!(reg.multi_names(), vec!["mira"]);
        let mut rng = simnet::rng_from_seed(803);
        let mut s = reg.build_single("pira", &params(60), &mut rng).unwrap();
        s.publish(500.0, 7).unwrap();
        let origin = s.random_origin(&mut rng);
        let out = s.range_query(origin, 499.0, 501.0, 0).unwrap();
        assert_eq!(out.results, vec![7]);
        // The unified error vocabulary holds for the Armada adapters too.
        assert!(matches!(s.range_query(origin, 5.0, 1.0, 0), Err(SchemeError::EmptyRange { .. })));
    }
}
