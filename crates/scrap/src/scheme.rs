//! SCRAP behind the unified [`dht_api`] query interfaces.
//!
//! Like Squid, SCRAP natively answers hyper-rectangles
//! ([`MultiRangeScheme`]); a one-dimensional build also serves the
//! single-attribute [`RangeScheme`] contract. Both impls query through
//! `&self`, so a built net is `Send + Sync` and shards across
//! parallel-driver threads; [`register`] exposes both shapes under
//! `"scrap"`.
//!
//! SCRAP does **not** opt into the dynamics layer: it rides the static
//! Skip Graph simulation, which has no join/leave/crash protocol, so
//! [`RangeScheme::as_dynamic`] honestly stays `None` and epoch-driven
//! churn runs skip it at runtime.

use crate::{ScrapError, ScrapNet, ScrapOutcome};
use dht_api::{
    BuildParams, MultiBuildParams, MultiRangeScheme, OutcomeCosts, RangeOutcome, RangeRequest,
    RangeScheme, RectRequest, SchemeError, SchemeRegistry,
};
use rand::rngs::SmallRng;
use simnet::NodeId;

impl From<ScrapError> for SchemeError {
    fn from(e: ScrapError) -> Self {
        match e {
            ScrapError::WrongArity { expected, got } => SchemeError::WrongArity { expected, got },
            ScrapError::EmptyRange { .. } => SchemeError::Query(e.to_string()),
            ScrapError::UnsupportedArity { .. } => SchemeError::Build(e.to_string()),
        }
    }
}

impl ScrapOutcome {
    /// Converts into the scheme-generic outcome. SCRAP's destination unit
    /// is the contiguous curve range; every range is queried, so queries
    /// are exact by construction.
    pub fn into_outcome(self) -> RangeOutcome {
        RangeOutcome::from_native(
            self.results,
            OutcomeCosts {
                hops: u64::from(self.delay),
                latency: self.latency,
                messages: self.messages,
            },
            self.ranges,
            self.ranges,
            true,
        )
    }
}

impl From<ScrapOutcome> for RangeOutcome {
    fn from(out: ScrapOutcome) -> Self {
        out.into_outcome()
    }
}

impl RangeScheme for ScrapNet {
    fn scheme_name(&self) -> &'static str {
        "scrap"
    }

    fn substrate(&self) -> String {
        if self.net_model().is_unit() {
            "Skip Graph".into()
        } else {
            format!("Skip Graph @ {}", self.net_model().name())
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
        ScrapNet::publish(self, &[value], handle)?;
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
        Ok(ScrapNet::range_query(self, origin, &[(lo, hi)])?.into_outcome())
    }
}

impl MultiRangeScheme for ScrapNet {
    fn scheme_name(&self) -> &'static str {
        "scrap"
    }

    fn substrate(&self) -> String {
        if self.net_model().is_unit() {
            "Skip Graph".into()
        } else {
            format!("Skip Graph @ {}", self.net_model().name())
        }
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
        Ok(ScrapNet::range_query(self, origin, rect)?.into_outcome())
    }
}

/// Registers `"scrap"` as both a single-attribute scheme (1-D build) and a
/// multi-attribute scheme.
pub fn register(reg: &mut SchemeRegistry) {
    reg.register_single(
        "scrap",
        Box::new(|p: &BuildParams, rng| {
            let mut net = ScrapNet::build(p.n, &[p.domain], rng)
                .map_err(|e| SchemeError::Build(e.to_string()))?;
            net.set_net_model(p.net);
            Ok(Box::new(net))
        }),
    );
    reg.register_multi(
        "scrap",
        Box::new(|p: &MultiBuildParams, rng| {
            let mut net = ScrapNet::build(p.n, &p.domains, rng)
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
