//! Runtime scheme selection: build any registered scheme by name.
//!
//! Scheme crates cannot be depended on from here (they depend on `dht-api`),
//! so the registry stores *builder closures*. Each scheme crate exports a
//! `register(&mut SchemeRegistry)` function, and
//! `armada_experiments::standard_registry()` assembles the full set.

use crate::hostile::{parse_hostile_spec, Hostile, RetryPolicy};
use crate::replication::{ReplicaPolicy, Replicated};
use crate::scheme::{MultiRangeScheme, RangeScheme, SchemeError};
use rand::rngs::SmallRng;
use simnet::{FaultPlan, NetModel};
use std::collections::BTreeMap;

/// Construction parameters for a single-attribute scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildParams {
    /// Number of peers (or zones) to build.
    pub n: usize,
    /// Attribute domain `[lo, hi]`.
    pub domain: (f64, f64),
    /// Resolution knob for Kautz-named schemes (FISSIONE ObjectID length;
    /// the paper's default is 100). Schemes without such a knob ignore it.
    pub object_id_len: usize,
    /// Replica placement policy the built scheme is wrapped with
    /// ([`ReplicaPolicy::none`] by default — no wrapper). A `+suffix` on
    /// the scheme name (e.g. `"pira+r3"`) overrides this field.
    pub replication: ReplicaPolicy,
    /// Network cost model the built scheme prices its edges with
    /// ([`NetModel::unit`] by default — latency reproduces hop ticks). An
    /// `@suffix` on the scheme name (e.g. `"pira@wan"`) overrides this
    /// field. Hop metrics are model-invariant by construction; only
    /// [`RangeOutcome::latency`](crate::RangeOutcome) moves.
    pub net: NetModel,
}

impl BuildParams {
    /// Params for `n` peers over `[lo, hi]` with the paper's defaults.
    pub fn new(n: usize, lo: f64, hi: f64) -> Self {
        BuildParams {
            n,
            domain: (lo, hi),
            object_id_len: 100,
            replication: ReplicaPolicy::none(),
            net: NetModel::unit(),
        }
    }

    /// Overrides the ObjectID length (tests use shorter IDs for speed).
    pub fn with_object_id_len(mut self, len: usize) -> Self {
        self.object_id_len = len;
        self
    }

    /// Sets the replica placement policy built schemes are wrapped with.
    pub fn with_replication(mut self, policy: ReplicaPolicy) -> Self {
        self.replication = policy;
        self
    }

    /// Sets the network cost model built schemes price their edges with.
    pub fn with_net(mut self, net: NetModel) -> Self {
        self.net = net;
        self
    }
}

/// Construction parameters for a multi-attribute scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiBuildParams {
    /// Number of peers to build.
    pub n: usize,
    /// Per-attribute domains.
    pub domains: Vec<(f64, f64)>,
    /// Resolution knob for Kautz-named schemes (see [`BuildParams`]).
    pub object_id_len: usize,
    /// Network cost model (see [`BuildParams::net`]).
    pub net: NetModel,
}

impl MultiBuildParams {
    /// Params for `n` peers over the given per-attribute domains.
    pub fn new(n: usize, domains: &[(f64, f64)]) -> Self {
        MultiBuildParams { n, domains: domains.to_vec(), object_id_len: 100, net: NetModel::unit() }
    }

    /// Overrides the ObjectID length.
    pub fn with_object_id_len(mut self, len: usize) -> Self {
        self.object_id_len = len;
        self
    }

    /// Sets the network cost model built schemes price their edges with.
    pub fn with_net(mut self, net: NetModel) -> Self {
        self.net = net;
        self
    }
}

/// A registry name parsed into its stack, `base[+policy][@suffix…]`:
/// an optional replica policy, and per `@` suffix a net model or a hostile
/// `plan[/rN]` spec — each category at most once.
struct Stack<'a> {
    base: &'a str,
    policy: Option<ReplicaPolicy>,
    net: Option<NetModel>,
    hostile: Option<(FaultPlan, Option<RetryPolicy>, String)>,
}

/// Parses a registry name for either query shape
/// (`"pira+r3@wan@lossy-p/r2"` ⇒ base `"pira"`, policy `r3`, net `wan`,
/// hostile `lossy-p` with a 2-attempt retry override). Each suffix resolves
/// first against the [`NetModel`] catalog, then as a hostile spec.
fn parse_stack(name: &str) -> Result<Stack<'_>, SchemeError> {
    let mut parts = name.split('@');
    let head = parts.next().expect("split yields at least one part");
    let (mut net, mut hostile) = (None, None);
    for s in parts {
        let repeated = if let Some(model) = NetModel::named(s) {
            net.replace(model).is_some()
        } else if let Some((plan, retry)) = parse_hostile_spec(s) {
            hostile.replace((plan, retry, s.to_string())).is_some()
        } else if s.contains('/') || s.starts_with("lossy-") || s.starts_with("island-") {
            // Clearly hostile-shaped but unparseable: name the right
            // catalog in the error.
            return Err(SchemeError::UnknownHostilePlan { name: s.to_string() });
        } else {
            return Err(SchemeError::UnknownNetModel { name: s.to_string() });
        };
        if repeated {
            return Err(SchemeError::DuplicateSuffix { suffix: s.to_string() });
        }
    }
    let (base, policy) = match head.split_once('+') {
        Some((base, suffix)) => (base, Some(ReplicaPolicy::named(suffix)?)),
        None => (head, None),
    };
    Ok(Stack { base, policy, net, hostile })
}

/// Builder closure for a single-attribute scheme.
pub type SingleBuilder =
    Box<dyn Fn(&BuildParams, &mut SmallRng) -> Result<Box<dyn RangeScheme>, SchemeError>>;

/// Builder closure for a multi-attribute scheme.
pub type MultiBuilder =
    Box<dyn Fn(&MultiBuildParams, &mut SmallRng) -> Result<Box<dyn MultiRangeScheme>, SchemeError>>;

/// Name → builder tables for both query shapes.
///
/// # Example
///
/// ```
/// use dht_api::{BuildParams, SchemeRegistry};
///
/// let mut reg = SchemeRegistry::new();
/// // Scheme crates register themselves:
/// // armada::register(&mut reg);
/// // dht_can::register(&mut reg);
/// assert!(reg.build_single("pira", &BuildParams::new(100, 0.0, 1.0),
///     &mut simnet::rng_from_seed(1)).is_err()); // nothing registered yet
/// ```
#[derive(Default)]
pub struct SchemeRegistry {
    single: BTreeMap<String, SingleBuilder>,
    multi: BTreeMap<String, MultiBuilder>,
}

impl SchemeRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SchemeRegistry::default()
    }

    /// Registers a single-attribute scheme builder under `name`
    /// (overwrites any previous registration of the same name).
    pub fn register_single(&mut self, name: &str, builder: SingleBuilder) {
        self.single.insert(name.to_string(), builder);
    }

    /// Registers a multi-attribute scheme builder under `name`.
    pub fn register_multi(&mut self, name: &str, builder: MultiBuilder) {
        self.multi.insert(name.to_string(), builder);
    }

    /// Builds the single-attribute scheme registered under `name`.
    ///
    /// # Errors
    ///
    /// [`SchemeError::UnknownScheme`] for unregistered names,
    /// [`SchemeError::Build`] for a network of no peers; otherwise whatever
    /// the scheme's own builder returns.
    ///
    /// # Example
    ///
    /// Register a builder, construct by name, publish, query (a toy
    /// local-scan scheme here; with the full workspace the same calls work
    /// on `armada_experiments::standard_registry()` with names like
    /// `"pira"` or `"skipgraph"`):
    ///
    /// ```
    /// use dht_api::{BuildParams, SchemeRegistry};
    ///
    /// # use dht_api::{RangeOutcome, RangeScheme, SchemeError};
    /// # use rand::Rng;
    /// # struct Scan { records: Vec<(f64, u64)>, n: usize }
    /// # impl RangeScheme for Scan {
    /// #     fn scheme_name(&self) -> &'static str { "scan" }
    /// #     fn substrate(&self) -> String { "local".into() }
    /// #     fn degree(&self) -> String { "0".into() }
    /// #     fn node_count(&self) -> usize { self.n }
    /// #     fn publish(&mut self, v: f64, h: u64) -> Result<(), SchemeError> {
    /// #         self.records.push((v, h));
    /// #         Ok(())
    /// #     }
    /// #     fn random_origin(&self, rng: &mut rand::rngs::SmallRng) -> usize {
    /// #         rng.gen_range(0..self.n)
    /// #     }
    /// #     fn range_query(&self, _o: usize, lo: f64, hi: f64, _s: u64)
    /// #         -> Result<RangeOutcome, SchemeError> {
    /// #         let mut results: Vec<u64> = self.records.iter()
    /// #             .filter(|&&(v, _)| v >= lo && v <= hi).map(|&(_, h)| h).collect();
    /// #         results.sort_unstable();
    /// #         Ok(RangeOutcome { results, delay: 0, latency: 0, messages: 0, dest_peers: 1,
    /// #             reached_peers: 1, exact: true })
    /// #     }
    /// # }
    /// let mut registry = SchemeRegistry::new();
    /// registry.register_single(
    ///     "scan",
    ///     Box::new(|p, _rng| Ok(Box::new(Scan { records: Vec::new(), n: p.n }))),
    /// );
    ///
    /// let mut rng = simnet::rng_from_seed(7);
    /// let params = BuildParams::new(64, 0.0, 1000.0);
    /// let mut scheme = registry.build_single("scan", &params, &mut rng)?;
    /// scheme.publish(500.0, 42)?;
    /// let origin = scheme.random_origin(&mut rng);
    /// let outcome = scheme.range_query(origin, 499.0, 501.0, 0)?;
    /// assert_eq!(outcome.results, vec![42]);
    /// assert!(outcome.exact);
    /// # Ok::<(), SchemeError>(())
    /// ```
    pub fn build_single(
        &self,
        name: &str,
        params: &BuildParams,
        rng: &mut SmallRng,
    ) -> Result<Box<dyn RangeScheme>, SchemeError> {
        // `"pira+r3@wan@lossy-p/r2"`-style names select a replica policy,
        // a net model, and/or a hostile fault plan inline; each suffix
        // takes precedence over its params field. Composition order is
        // fixed: scheme, then replication, then the hostile wrapper
        // outermost (retries see replica-served answers).
        let stack = parse_stack(name)?;
        let builder = self
            .single
            .get(stack.base)
            .ok_or_else(|| SchemeError::UnknownScheme { name: name.to_string(), kind: "single" })?;
        refuse_empty(params.n)?;
        let overridden;
        let effective = match stack.net {
            Some(net) => {
                overridden = params.clone().with_net(net);
                &overridden
            }
            None => params,
        };
        let inner = builder(effective, rng)?;
        let policy = stack.policy.unwrap_or_else(|| params.replication.clone());
        let scheme: Box<dyn RangeScheme> =
            if policy.is_none() { inner } else { Box::new(Replicated::new(inner, policy)?) };
        Ok(match stack.hostile {
            None => scheme,
            Some((plan, retry, spec)) => {
                let retry = retry.unwrap_or_else(RetryPolicy::none);
                Box::new(Hostile::new(scheme, plan, retry, spec)?)
            }
        })
    }

    /// Builds the multi-attribute scheme registered under `name`. Names
    /// parse as in [`build_single`](Self::build_single), but no wrapper
    /// serves rectangles: a replica policy or a hostile suffix is refused.
    ///
    /// # Errors
    ///
    /// As [`build_single`](Self::build_single), plus
    /// [`SchemeError::Unsupported`] for `"replication"` or
    /// `"fault injection"`.
    pub fn build_multi(
        &self,
        name: &str,
        params: &MultiBuildParams,
        rng: &mut SmallRng,
    ) -> Result<Box<dyn MultiRangeScheme>, SchemeError> {
        let stack = parse_stack(name)?;
        let builder = self
            .multi
            .get(stack.base)
            .ok_or_else(|| SchemeError::UnknownScheme { name: name.to_string(), kind: "multi" })?;
        refuse_empty(params.n)?;
        let unsupported = |feature| SchemeError::Unsupported { scheme: stack.base.into(), feature };
        if stack.policy.is_some_and(|p| !p.is_none()) {
            return Err(unsupported("replication"));
        }
        if stack.hostile.is_some() {
            return Err(unsupported("fault injection"));
        }
        let overridden;
        let effective = match stack.net {
            Some(net) => {
                overridden = params.clone().with_net(net);
                &overridden
            }
            None => params,
        };
        builder(effective, rng)
    }

    /// Names of all registered single-attribute schemes, sorted.
    pub fn single_names(&self) -> Vec<&str> {
        self.single.keys().map(String::as_str).collect()
    }

    /// Names of all registered multi-attribute schemes, sorted.
    pub fn multi_names(&self) -> Vec<&str> {
        self.multi.keys().map(String::as_str).collect()
    }
}

/// A network of no peers is refused here, once, for every scheme: no
/// substrate is asked to build one.
fn refuse_empty(n: usize) -> Result<(), SchemeError> {
    match n {
        0 => Err(SchemeError::Build("a network needs at least one peer (n = 0)".to_string())),
        _ => Ok(()),
    }
}

impl std::fmt::Debug for SchemeRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchemeRegistry")
            .field("single", &self.single_names())
            .field("multi", &self.multi_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{MultiRangeScheme, QueryCtx, RangeOutcome, RangeScheme, RectRequest};
    use simnet::NodeId;

    /// A toy in-memory scheme for registry tests.
    struct LocalScan {
        records: Vec<(f64, u64)>,
        n: usize,
    }

    impl RangeScheme for LocalScan {
        fn scheme_name(&self) -> &'static str {
            "local-scan"
        }

        fn substrate(&self) -> String {
            "none".into()
        }

        fn degree(&self) -> String {
            "0".into()
        }

        fn node_count(&self) -> usize {
            self.n
        }

        fn publish(&mut self, value: f64, handle: u64) -> Result<(), SchemeError> {
            self.records.push((value, handle));
            Ok(())
        }

        fn random_origin(&self, rng: &mut SmallRng) -> NodeId {
            use rand::Rng;
            rng.gen_range(0..self.n)
        }

        fn range_query(
            &self,
            _origin: NodeId,
            lo: f64,
            hi: f64,
            _seed: u64,
        ) -> Result<RangeOutcome, SchemeError> {
            if lo > hi {
                return Err(SchemeError::EmptyRange { lo, hi });
            }
            let mut results: Vec<u64> = self
                .records
                .iter()
                .filter(|&&(v, _)| v >= lo && v <= hi)
                .map(|&(_, h)| h)
                .collect();
            results.sort_unstable();
            Ok(RangeOutcome {
                results,
                delay: 0,
                latency: 0,
                messages: 0,
                dest_peers: 1,
                reached_peers: 1,
                exact: true,
            })
        }
    }

    fn toy_registry() -> SchemeRegistry {
        let mut reg = SchemeRegistry::new();
        reg.register_single(
            "local-scan",
            Box::new(|p, _rng| Ok(Box::new(LocalScan { records: Vec::new(), n: p.n }))),
        );
        reg
    }

    /// A toy rectangle scheme of `dims` attributes that stores nothing.
    struct LocalGrid {
        dims: usize,
    }

    impl MultiRangeScheme for LocalGrid {
        fn scheme_name(&self) -> &'static str {
            "local-grid"
        }

        fn substrate(&self) -> String {
            "none".into()
        }

        fn degree(&self) -> String {
            "0".into()
        }

        fn node_count(&self) -> usize {
            1
        }

        fn dims(&self) -> usize {
            self.dims
        }

        fn publish_point(&mut self, _: &[f64], _: u64) -> Result<(), SchemeError> {
            Ok(())
        }

        fn random_origin(&self, _: &mut SmallRng) -> NodeId {
            0
        }

        fn query(
            &self,
            _: &RectRequest<'_>,
            _: &mut QueryCtx<'_>,
        ) -> Result<RangeOutcome, SchemeError> {
            Ok(RangeOutcome::from_native(vec![], Default::default(), 0, 0, true))
        }
    }

    /// [`toy_registry`] plus `"local-grid"` as a multi-attribute scheme.
    fn toy_registry_with_grid() -> SchemeRegistry {
        let mut reg = toy_registry();
        reg.register_multi(
            "local-grid",
            Box::new(|p, _rng| Ok(Box::new(LocalGrid { dims: p.domains.len() }))),
        );
        reg
    }

    #[test]
    fn registry_builds_by_name_and_lists() {
        let reg = toy_registry();
        assert_eq!(reg.single_names(), vec!["local-scan"]);
        assert!(reg.multi_names().is_empty());
        let mut rng = simnet::rng_from_seed(1);
        let mut scheme =
            reg.build_single("local-scan", &BuildParams::new(8, 0.0, 10.0), &mut rng).unwrap();
        scheme.publish(5.0, 42).unwrap();
        scheme.publish(9.0, 43).unwrap();
        let out = scheme.range_query(0, 4.0, 6.0, 0).unwrap();
        assert_eq!(out.results, vec![42]);
    }

    #[test]
    fn unknown_names_error_cleanly() {
        let reg = toy_registry_with_grid();
        let mut rng = simnet::rng_from_seed(1);
        let err = reg
            .build_single("missing", &BuildParams::new(8, 0.0, 1.0), &mut rng)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, SchemeError::UnknownScheme { kind: "single", .. }));
        let err = reg
            .build_multi("missing", &MultiBuildParams::new(8, &[(0.0, 1.0)]), &mut rng)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, SchemeError::UnknownScheme { kind: "multi", .. }));
        // Multi names parse as single names do; what no rectangle wrapper
        // serves is refused by name, and a repeated category is refused.
        let params = MultiBuildParams::new(8, &[(0.0, 1.0)]);
        let multi = |name| reg.build_multi(name, &params, &mut rng.clone()).map(|_| ());
        assert!(multi("local-grid@wan").is_ok());
        for (name, feature) in [
            ("local-grid@lossy-p", "fault injection"),
            ("local-grid@lossy-p/r2", "fault injection"),
            ("local-grid+r3", "replication"),
        ] {
            let err = multi(name).unwrap_err();
            assert!(
                matches!(err, SchemeError::Unsupported { ref scheme, feature: f } if scheme == "local-grid" && f == feature),
                "{name}: {err}"
            );
        }
        let err = multi("local-grid@wan@lan").unwrap_err();
        assert_eq!(err, SchemeError::DuplicateSuffix { suffix: "lan".into() });
        let err = multi("missing@wan@lan").unwrap_err();
        assert!(matches!(err, SchemeError::DuplicateSuffix { .. }), "{err}");
    }

    #[test]
    fn replication_suffixes_wrap_or_refuse() {
        let reg = toy_registry();
        let mut rng = simnet::rng_from_seed(1);
        let params = BuildParams::new(8, 0.0, 10.0);
        // LocalScan exposes no ReplicaRouting: wrapping must refuse.
        let err = reg.build_single("local-scan+r2", &params, &mut rng).map(|_| ()).unwrap_err();
        assert!(matches!(err, SchemeError::Unsupported { feature: "replication", .. }), "{err}");
        let err = reg
            .build_single(
                "local-scan",
                &params.clone().with_replication(ReplicaPolicy::successor(2)),
                &mut rng,
            )
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, SchemeError::Unsupported { feature: "replication", .. }), "{err}");
        // Factor-1 and `none` policies skip the wrapper entirely.
        assert!(reg.build_single("local-scan+r1", &params, &mut rng).is_ok());
        assert!(reg.build_single("local-scan+none", &params, &mut rng).is_ok());
        // Unknown suffixes fail as policies, unknown bases as schemes.
        let err = reg.build_single("local-scan+bogus", &params, &mut rng).map(|_| ()).unwrap_err();
        assert!(matches!(err, SchemeError::UnknownReplicaPolicy { .. }), "{err}");
        let err = reg.build_single("missing+r2", &params, &mut rng).map(|_| ()).unwrap_err();
        assert!(matches!(err, SchemeError::UnknownScheme { .. }), "{err}");
    }

    #[test]
    fn net_model_suffixes_parse_and_override() {
        let reg = toy_registry();
        let mut rng = simnet::rng_from_seed(1);
        let params = BuildParams::new(8, 0.0, 10.0);
        // Known models parse (composed with replica suffixes too); the toy
        // scheme ignores the model, but construction must succeed.
        assert!(reg.build_single("local-scan@wan", &params, &mut rng).is_ok());
        assert!(reg.build_single("local-scan@unit", &params, &mut rng).is_ok());
        assert!(reg.build_single("local-scan+r1@straggler", &params, &mut rng).is_ok());
        // Unknown models fail as models, unknown bases as schemes.
        let err = reg.build_single("local-scan@dialup", &params, &mut rng).map(|_| ()).unwrap_err();
        assert!(matches!(err, SchemeError::UnknownNetModel { .. }), "{err}");
        assert!(err.to_string().contains("dialup"));
        let err = reg.build_single("missing@wan", &params, &mut rng).map(|_| ()).unwrap_err();
        assert!(matches!(err, SchemeError::UnknownScheme { .. }), "{err}");
        // A second net model is refused by name, not silently preferred.
        for (name, suffix) in [("local-scan@wan@lan", "lan"), ("local-scan+r1@unit@wan", "wan")] {
            let err = reg.build_single(name, &params, &mut rng).map(|_| ()).unwrap_err();
            assert_eq!(err, SchemeError::DuplicateSuffix { suffix: suffix.into() }, "{name}");
            assert!(err.to_string().contains(suffix), "{err}");
        }
        // The params field drives the default; the suffix overrides it.
        let p = BuildParams::new(8, 0.0, 10.0).with_net(simnet::NetModel::wan());
        assert_eq!(p.net, simnet::NetModel::wan());
        assert_eq!(BuildParams::new(8, 0.0, 10.0).net, simnet::NetModel::unit());
    }

    #[test]
    fn hostile_suffixes_wrap_and_compose() {
        let reg = toy_registry();
        let mut rng = simnet::rng_from_seed(1);
        let params = BuildParams::new(8, 0.0, 10.0);
        // A hostile suffix wraps; the substrate is annotated.
        let scheme = reg.build_single("local-scan@lossy-p", &params, &mut rng).unwrap();
        assert_eq!(scheme.scheme_name(), "local-scan");
        assert!(scheme.substrate().contains("lossy-p"), "{}", scheme.substrate());
        // Retry spellings parse; composition with net suffixes works in
        // either order, and the parameterized plan spellings parse too.
        for name in [
            "local-scan@lossy-p/r2",
            "local-scan@wan@split-brain",
            "local-scan@bursty@cluster",
            "local-scan@lossy-25/r3",
            "local-scan@island-4",
            "local-scan@throttle",
        ] {
            assert!(reg.build_single(name, &params, &mut rng).is_ok(), "{name}");
        }
        // Unknown hostile-shaped suffixes name the hostile catalog;
        // plain unknown suffixes still fail as net models.
        let err =
            reg.build_single("local-scan@lossy-p/r0", &params, &mut rng).map(|_| ()).unwrap_err();
        assert!(matches!(err, SchemeError::UnknownHostilePlan { .. }), "{err}");
        let err =
            reg.build_single("local-scan@island-1", &params, &mut rng).map(|_| ()).unwrap_err();
        assert!(matches!(err, SchemeError::UnknownHostilePlan { .. }), "{err}");
        let err = reg.build_single("local-scan@dialup", &params, &mut rng).map(|_| ()).unwrap_err();
        assert!(matches!(err, SchemeError::UnknownNetModel { .. }), "{err}");
        // A second hostile spec is refused by name, not silently preferred.
        for (name, suffix) in [
            ("local-scan@lossy-p@bursty", "bursty"),
            ("local-scan@bursty@wan@lossy-p/r2", "lossy-p/r2"),
        ] {
            let err = reg.build_single(name, &params, &mut rng).map(|_| ()).unwrap_err();
            assert_eq!(err, SchemeError::DuplicateSuffix { suffix: suffix.into() }, "{name}");
        }
        // The hostile wrapper sits outermost over replication refusals:
        // the replica error still surfaces.
        let err =
            reg.build_single("local-scan+r2@lossy-p", &params, &mut rng).map(|_| ()).unwrap_err();
        assert!(matches!(err, SchemeError::Unsupported { feature: "replication", .. }), "{err}");
    }

    #[test]
    fn build_params_builders() {
        let p = BuildParams::new(100, 0.0, 1000.0).with_object_id_len(24);
        assert_eq!(p.object_id_len, 24);
        let m = MultiBuildParams::new(50, &[(0.0, 1.0), (0.0, 2.0)]).with_object_id_len(32);
        assert_eq!(m.domains.len(), 2);
        assert_eq!(m.object_id_len, 32);
    }
}
