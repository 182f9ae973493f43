//! Squid behind the unified [`dht_api`] query interfaces.
//!
//! Squid natively answers hyper-rectangles ([`MultiRangeScheme`]); built
//! over a single attribute it also serves the single-attribute
//! [`RangeScheme`] contract, which is how it joins the cross-scheme
//! differential workload. Both impls query through `&self` (cluster
//! refinement allocates per call), so a built net is `Send + Sync` and
//! shards across parallel-driver threads; [`register`] exposes both
//! shapes under `"squid"`.
//!
//! Squid does **not** opt into the dynamics layer: its SFC cluster tables
//! are derived from a fixed Chord snapshot at build time (the native code
//! has no churn path for them), so [`RangeScheme::as_dynamic`] honestly
//! stays `None` and epoch-driven churn runs skip it at runtime.

use crate::{SquidError, SquidNet, SquidOutcome};
use dht_api::{
    BuildParams, MultiBuildParams, MultiRangeScheme, OutcomeCosts, RangeOutcome, RangeRequest,
    RangeScheme, RectRequest, SchemeError, SchemeRegistry,
};
use rand::rngs::SmallRng;
use simnet::NodeId;

impl From<SquidError> for SchemeError {
    fn from(e: SquidError) -> Self {
        match e {
            SquidError::WrongArity { expected, got } => SchemeError::WrongArity { expected, got },
            SquidError::EmptyRange { .. } => SchemeError::Query(e.to_string()),
            SquidError::UnsupportedArity { .. } => SchemeError::Build(e.to_string()),
        }
    }
}

impl SquidOutcome {
    /// Converts into the scheme-generic outcome. Squid's destination unit
    /// is the curve cluster; refinement visits every overlapping cluster,
    /// so queries are exact by construction.
    pub fn into_outcome(self) -> RangeOutcome {
        RangeOutcome::from_native(
            self.results,
            OutcomeCosts { hops: self.delay, latency: self.latency, messages: self.messages },
            self.clusters,
            self.clusters,
            true,
        )
    }
}

impl From<SquidOutcome> for RangeOutcome {
    fn from(out: SquidOutcome) -> Self {
        out.into_outcome()
    }
}

impl RangeScheme for SquidNet {
    fn scheme_name(&self) -> &'static str {
        "squid"
    }

    fn substrate(&self) -> String {
        if self.net_model().is_unit() {
            "Chord".into()
        } else {
            format!("Chord @ {}", self.net_model().name())
        }
    }

    fn degree(&self) -> String {
        "O(logN)".into()
    }

    fn node_count(&self) -> usize {
        self.len()
    }

    fn publish(&mut self, value: f64, handle: u64) -> Result<(), SchemeError> {
        if self.dims() != 1 {
            return Err(SchemeError::WrongArity { expected: self.dims(), got: 1 });
        }
        SquidNet::publish(self, &[value], handle)?;
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
        if self.dims() != 1 {
            return Err(SchemeError::WrongArity { expected: self.dims(), got: 1 });
        }
        RangeRequest::new(origin, lo, hi, seed)?;
        if origin >= self.len() {
            return Err(SchemeError::BadOrigin { origin });
        }
        Ok(SquidNet::range_query(self, origin, &[(lo, hi)])?.into_outcome())
    }
}

impl MultiRangeScheme for SquidNet {
    fn scheme_name(&self) -> &'static str {
        "squid"
    }

    fn substrate(&self) -> String {
        if self.net_model().is_unit() {
            "Chord".into()
        } else {
            format!("Chord @ {}", self.net_model().name())
        }
    }

    fn degree(&self) -> String {
        "O(logN)".into()
    }

    fn node_count(&self) -> usize {
        self.len()
    }

    fn dims(&self) -> usize {
        SquidNet::dims(self)
    }

    fn publish_point(&mut self, point: &[f64], handle: u64) -> Result<(), SchemeError> {
        SquidNet::publish(self, point, handle)?;
        Ok(())
    }

    fn random_origin(&self, rng: &mut SmallRng) -> NodeId {
        self.random_node(rng)
    }

    fn rect_query(
        &self,
        origin: NodeId,
        rect: &[(f64, f64)],
        seed: u64,
    ) -> Result<RangeOutcome, SchemeError> {
        RectRequest::new(origin, rect, seed)?;
        if origin >= self.len() {
            return Err(SchemeError::BadOrigin { origin });
        }
        Ok(SquidNet::range_query(self, origin, rect)?.into_outcome())
    }
}

/// Registers `"squid"` as both a single-attribute scheme (1-D build) and a
/// multi-attribute scheme.
pub fn register(reg: &mut SchemeRegistry) {
    reg.register_single(
        "squid",
        Box::new(|p: &BuildParams, rng| {
            let mut net = SquidNet::build(p.n, &[p.domain], rng)
                .map_err(|e| SchemeError::Build(e.to_string()))?;
            net.set_net_model(p.net);
            Ok(Box::new(net))
        }),
    );
    reg.register_multi(
        "squid",
        Box::new(|p: &MultiBuildParams, rng| {
            let mut net = SquidNet::build(p.n, &p.domains, rng)
                .map_err(|e| SchemeError::Build(e.to_string()))?;
            net.set_net_model(p.net);
            Ok(Box::new(net))
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn one_dimensional_build_serves_the_single_attr_contract() {
        let mut reg = SchemeRegistry::new();
        register(&mut reg);
        let mut rng = simnet::rng_from_seed(930);
        let mut scheme =
            reg.build_single("squid", &BuildParams::new(70, 0.0, 1000.0), &mut rng).unwrap();
        let mut data = Vec::new();
        for h in 0..200u64 {
            let v = rng.gen_range(0.0..=1000.0);
            scheme.publish(v, h).unwrap();
            data.push((v, h));
        }
        for _ in 0..15 {
            let lo = rng.gen_range(0.0..900.0);
            let hi = lo + rng.gen_range(0.5..80.0);
            let origin = scheme.random_origin(&mut rng);
            let out = scheme.range_query(origin, lo, hi, 0).unwrap();
            let mut expect: Vec<u64> =
                data.iter().filter(|&&(v, _)| v >= lo && v <= hi).map(|&(_, h)| h).collect();
            expect.sort_unstable();
            assert_eq!(out.results, expect, "query [{lo}, {hi}]");
        }
    }

    #[test]
    fn multi_build_rejects_single_attr_calls() {
        let mut reg = SchemeRegistry::new();
        register(&mut reg);
        let mut rng = simnet::rng_from_seed(931);
        let params = MultiBuildParams::new(40, &[(0.0, 1.0), (0.0, 1.0)]);
        let multi = reg.build_multi("squid", &params, &mut rng).unwrap();
        assert_eq!(multi.dims(), 2);
        // The same network viewed through the single-attribute trait must
        // refuse, not silently mis-query.
        let mut rng2 = simnet::rng_from_seed(931);
        let net = SquidNet::build(40, &[(0.0, 1.0), (0.0, 1.0)], &mut rng2).unwrap();
        assert!(matches!(
            RangeScheme::range_query(&net, 0, 0.1, 0.2, 0),
            Err(SchemeError::WrongArity { .. })
        ));
    }
}
