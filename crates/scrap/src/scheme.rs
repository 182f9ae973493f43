//! SCRAP behind the unified [`dht_api`] query interfaces.
//!
//! Like Squid, SCRAP natively answers hyper-rectangles, so it implements
//! [`MultiRangeScheme`] only; [`register`] exposes it under `"scrap"` in
//! both registries, the single-attribute name as a one-attribute build
//! behind [`OneAttribute`]. Queries run through `&self`, so a built net is
//! `Send + Sync` and shards across parallel-driver threads.
//!
//! SCRAP does **not** opt into the dynamics layer: it rides the static
//! Skip Graph simulation, which has no join/leave/crash protocol, so
//! [`RangeScheme::as_dynamic`](dht_api::RangeScheme::as_dynamic) honestly
//! stays `None` and epoch-driven churn runs skip it at runtime.

use crate::ScrapNet;
use dht_api::{
    MultiRangeScheme, NetModel, OneAttribute, QueryCtx, RangeOutcome, RectRequest, SchemeError,
    SchemeRegistry,
};
use rand::rngs::SmallRng;
use simnet::NodeId;

impl MultiRangeScheme for ScrapNet {
    fn scheme_name(&self) -> &'static str {
        "scrap"
    }

    fn substrate(&self) -> String {
        self.net_model().label("Skip Graph")
    }

    fn degree(&self) -> String {
        "O(logN)".into()
    }

    fn node_count(&self) -> usize {
        self.len()
    }

    fn dims(&self) -> usize {
        ScrapNet::dims(self)
    }

    fn publish_point(&mut self, point: &[f64], handle: u64) -> Result<(), SchemeError> {
        ScrapNet::publish(self, point, handle)?;
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
        cx.refuse_faults("scrap")?;
        let origin = req.origin();
        if origin >= self.len() {
            return Err(SchemeError::BadOrigin { origin });
        }
        let out = ScrapNet::range_query(self, origin, req.rect())?;
        cx.trace_modeled("scrap", origin, &out);
        Ok(out)
    }
}

fn build(
    n: usize,
    domains: &[(f64, f64)],
    net: NetModel,
    rng: &mut SmallRng,
) -> Result<Box<dyn MultiRangeScheme>, SchemeError> {
    let mut scrap =
        ScrapNet::build(n, domains, rng).map_err(|e| SchemeError::Build(e.to_string()))?;
    scrap.set_net_model(net);
    Ok(Box::new(scrap))
}

/// Registers `"scrap"` as a multi-attribute scheme and, over a
/// one-attribute build, as a single-attribute one.
pub fn register(reg: &mut SchemeRegistry) {
    reg.register_single(
        "scrap",
        Box::new(|p, rng| Ok(Box::new(OneAttribute::new(build(p.n, &[p.domain], p.net, rng)?)?))),
    );
    reg.register_multi("scrap", Box::new(|p, rng| build(p.n, &p.domains, p.net, rng)));
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
        let mut rng = simnet::rng_from_seed(940);
        let mut scheme =
            reg.build_single("scrap", &BuildParams::new(70, 0.0, 1000.0), &mut rng).unwrap();
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
    fn multi_build_answers_rectangles_through_the_trait() {
        let mut reg = SchemeRegistry::new();
        register(&mut reg);
        let mut rng = simnet::rng_from_seed(941);
        let params = MultiBuildParams::new(60, &[(0.0, 100.0), (0.0, 100.0)]);
        let mut multi = reg.build_multi("scrap", &params, &mut rng).unwrap();
        let mut pts = Vec::new();
        for h in 0..150u64 {
            let p = [rng.gen_range(0.0..=100.0), rng.gen_range(0.0..=100.0)];
            multi.publish_point(&p, h).unwrap();
            pts.push(p);
        }
        let rect = [(10.0, 60.0), (20.0, 80.0)];
        let origin = multi.random_origin(&mut rng);
        let out = multi.rect_query(origin, &rect, 0).unwrap();
        let mut expect: Vec<u64> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.iter().zip(rect.iter()).all(|(&v, &(lo, hi))| v >= lo && v <= hi))
            .map(|(h, _)| h as u64)
            .collect();
        expect.sort_unstable();
        assert_eq!(out.results, expect);
    }
}
