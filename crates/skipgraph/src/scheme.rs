//! Skip Graph behind the unified [`dht_api`] query interface.
//!
//! [`SkipGraphNet`] implements [`RangeScheme`] directly — it owns the
//! overlay, the storage, and the query algorithm, so no adapter state is
//! needed. Queries walk the skip lists through `&self`, so the net is
//! `Send + Sync` and shards across parallel-driver threads; [`register`]
//! exposes it as `"skipgraph"`.
//!
//! Skip Graph does **not** opt into the dynamics layer: the simulated
//! overlay builds its membership vectors once and has no join/leave/crash
//! protocol, so [`RangeScheme::as_dynamic`] honestly stays `None` and
//! epoch-driven churn runs skip it at runtime.

use crate::{SkipGraphNet, SkipOutcome};
use dht_api::{OutcomeCosts, RangeOutcome, RangeRequest, RangeScheme, SchemeError, SchemeRegistry};
use rand::rngs::SmallRng;
use simnet::NodeId;

impl SkipOutcome {
    /// Converts into the scheme-generic outcome. The level-0 walk visits
    /// every destination bucket, so queries are exact by construction.
    pub fn into_outcome(self) -> RangeOutcome {
        RangeOutcome::from_native(
            self.results,
            OutcomeCosts {
                hops: u64::from(self.delay),
                latency: self.latency,
                messages: self.messages,
            },
            self.dest_peers,
            self.dest_peers,
            true,
        )
    }
}

impl From<SkipOutcome> for RangeOutcome {
    fn from(out: SkipOutcome) -> Self {
        out.into_outcome()
    }
}

impl RangeScheme for SkipGraphNet {
    fn scheme_name(&self) -> &'static str {
        "skipgraph"
    }

    fn substrate(&self) -> String {
        self.net_model().label("— (is the overlay)")
    }

    fn degree(&self) -> String {
        "O(logN)".into()
    }

    fn node_count(&self) -> usize {
        self.len()
    }

    fn publish(&mut self, value: f64, handle: u64) -> Result<(), SchemeError> {
        SkipGraphNet::publish(self, value, handle);
        Ok(())
    }

    fn random_origin(&self, rng: &mut SmallRng) -> NodeId {
        self.random_node(rng)
    }

    fn range_query(
        &self,
        origin: NodeId,
        lo: f64,
        hi: f64,
        seed: u64,
    ) -> Result<RangeOutcome, SchemeError> {
        RangeRequest::new(origin, lo, hi, seed)?;
        if origin >= self.len() {
            return Err(SchemeError::BadOrigin { origin });
        }
        Ok(SkipGraphNet::range_query(self, origin, lo, hi).into_outcome())
    }
}

/// Registers `"skipgraph"`.
pub fn register(reg: &mut SchemeRegistry) {
    reg.register_single(
        "skipgraph",
        Box::new(|p, rng| {
            let mut net = SkipGraphNet::build(p.n, p.domain.0, p.domain.1, rng);
            net.set_net_model(p.net);
            Ok(Box::new(net))
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_api::BuildParams;
    use rand::Rng;

    #[test]
    fn skipgraph_scheme_is_exact_and_guards_inputs() {
        let mut reg = SchemeRegistry::new();
        register(&mut reg);
        let mut rng = simnet::rng_from_seed(920);
        let mut scheme =
            reg.build_single("skipgraph", &BuildParams::new(90, 0.0, 1000.0), &mut rng).unwrap();
        let mut data = Vec::new();
        for h in 0..200u64 {
            let v = rng.gen_range(0.0..=1000.0);
            scheme.publish(v, h).unwrap();
            data.push((v, h));
        }
        for q in 0..15 {
            let lo = rng.gen_range(0.0..900.0);
            let hi = lo + rng.gen_range(0.5..80.0);
            let origin = scheme.random_origin(&mut rng);
            let out = scheme.range_query(origin, lo, hi, q).unwrap();
            let mut expect: Vec<u64> =
                data.iter().filter(|&&(v, _)| v >= lo && v <= hi).map(|&(_, h)| h).collect();
            expect.sort_unstable();
            assert_eq!(out.results, expect, "query [{lo}, {hi}]");
        }
        assert!(matches!(scheme.range_query(0, 5.0, 1.0, 0), Err(SchemeError::EmptyRange { .. })));
        assert!(matches!(
            scheme.range_query(usize::MAX, 1.0, 2.0, 0),
            Err(SchemeError::BadOrigin { .. })
        ));
    }
}
