//! Squid behind the unified [`dht_api`] query interfaces.
//!
//! Squid natively answers hyper-rectangles, so it implements
//! [`MultiRangeScheme`] only; [`register`] exposes it under `"squid"` in
//! both registries, the single-attribute name as a one-attribute build
//! behind [`OneAttribute`]. Queries run through `&self` (each level's
//! routings keep their buffers in the caller's scratch), so a built net is
//! `Send + Sync` and shards across parallel-driver threads.
//!
//! Squid does **not** opt into the dynamics layer: its SFC cluster tables
//! are derived from a fixed Chord snapshot at build time (the native code
//! has no churn path for them), so
//! [`RangeScheme::as_dynamic`](dht_api::RangeScheme::as_dynamic) honestly
//! stays `None` and epoch-driven churn runs skip it at runtime.

use crate::SquidNet;
use dht_api::{
    MultiRangeScheme, NetModel, OneAttribute, QueryCtx, RangeOutcome, RectRequest, SchemeError,
    SchemeRegistry,
};
use rand::rngs::SmallRng;
use simnet::NodeId;

impl MultiRangeScheme for SquidNet {
    fn scheme_name(&self) -> &'static str {
        "squid"
    }

    fn substrate(&self) -> String {
        self.net_model().label("Chord")
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

    fn query(
        &self,
        req: &RectRequest<'_>,
        cx: &mut QueryCtx<'_>,
    ) -> Result<RangeOutcome, SchemeError> {
        cx.refuse_faults("squid")?;
        let origin = req.origin();
        if origin >= self.len() {
            return Err(SchemeError::BadOrigin { origin });
        }
        let out = SquidNet::range_query(self, origin, req.rect(), cx.scratch)?;
        cx.trace_modeled("squid", origin, &out);
        Ok(out)
    }
}

fn build(
    n: usize,
    domains: &[(f64, f64)],
    net: NetModel,
    rng: &mut SmallRng,
) -> Result<Box<dyn MultiRangeScheme>, SchemeError> {
    let mut squid =
        SquidNet::build(n, domains, rng).map_err(|e| SchemeError::Build(e.to_string()))?;
    squid.set_net_model(net);
    Ok(Box::new(squid))
}

/// Registers `"squid"` as a multi-attribute scheme and, over a
/// one-attribute build, as a single-attribute one.
pub fn register(reg: &mut SchemeRegistry) {
    reg.register_single(
        "squid",
        Box::new(|p, rng| Ok(Box::new(OneAttribute::new(build(p.n, &[p.domain], p.net, rng)?)?))),
    );
    reg.register_multi("squid", Box::new(|p, rng| build(p.n, &p.domains, p.net, rng)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_api::{BuildParams, MultiBuildParams};
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
        // A two-attribute network has no single-attribute reading: the
        // adapter refuses it instead of silently mis-querying.
        assert!(matches!(
            OneAttribute::new(multi).map(|_| ()),
            Err(SchemeError::WrongArity { expected: 1, got: 2 })
        ));
    }
}
