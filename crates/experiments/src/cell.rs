//! The experiment cell: the one place the harness turns
//! `(stack string, N, ObjectID length, build seed)` into a loaded scheme
//! and `(queries, driver seed, threads)` into the driver that measures it.
//!
//! Every number the paper reports (§4.3.3) is one measurement — a scheme
//! over `N` peers holding `N` uniform records answers a seeded batch of
//! range queries from random origins — and every extension since varies
//! one axis of it. The experiments keep their own nested loops, seeding
//! conventions and derived columns; what they share is this loop *body*:
//!
//! 1. [`build`] — the registry resolves the **stack string**
//!    (`pira+r3@wan@lossy-p/r3`: each suffix is the matching
//!    [`BuildParams`] field) from an RNG seeded with `seed`, and the same
//!    RNG stream draws `N` uniform record values and publishes them under
//!    handles `0..N`;
//! 2. [`driver`] — the [`ParallelDriver`] every batch and epoch run uses.
//!
//! The seed is the caller's: two stacks built from one seed share network
//! and records (hop metrics pair across net models only because the sweeps
//! leave the net out of the seed). [`loaded`] is [`build`] for the sweeps,
//! which panic rather than skip a cell.

use crate::paper;
use dht_api::{
    BuildParams, MultiBuildParams, MultiRangeScheme, ParallelDriver, RangeScheme, SchemeError,
    SchemeRegistry,
};
use rand::Rng;

/// The attribute interval every single-attribute cell is built over.
pub const DOMAIN: (f64, f64) = (paper::DOMAIN_LO, paper::DOMAIN_HI);

/// The per-attribute domains of the two-attribute rectangle cells.
pub const RECT_DOMAINS: [(f64, f64); 2] = [(0.0, 100.0), (0.0, 100.0)];

/// Builds the scheme stack `stack` names at `n` peers over [`DOMAIN`] and
/// publishes `n` uniform records (handles `0..n`) from the same RNG stream.
/// Errors are the registry's — an unknown scheme, policy, net model or
/// hostile plan in the stack string, or the scheme's own build error — or
/// a refused publish, as a [`SchemeError::Build`].
pub fn build(
    registry: &SchemeRegistry,
    stack: &str,
    n: usize,
    object_id_len: usize,
    seed: u64,
) -> Result<Box<dyn RangeScheme>, SchemeError> {
    let params = BuildParams::new(n, DOMAIN.0, DOMAIN.1).with_object_id_len(object_id_len);
    let mut rng = simnet::rng_from_seed(seed);
    let mut scheme = registry.build_single(stack, &params, &mut rng)?;
    for h in 0..n as u64 {
        scheme
            .publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h)
            .map_err(|e| SchemeError::Build(format!("publish: {e}")))?;
    }
    Ok(scheme)
}

/// [`build`], for the sweeps.
///
/// # Panics
///
/// Panics if the stack fails to build or load — a sweep with silently
/// missing cells would be worse than no sweep.
pub fn loaded(
    registry: &SchemeRegistry,
    stack: &str,
    n: usize,
    object_id_len: usize,
    seed: u64,
) -> Box<dyn RangeScheme> {
    build(registry, stack, n, object_id_len, seed)
        .unwrap_or_else(|e| panic!("cell {stack} (N = {n}): {e}"))
}

/// The rectangle cell: the multi-attribute scheme `stack` names at `n`
/// peers over [`RECT_DOMAINS`], loaded with `n` uniform points (panics as
/// [`loaded`]).
pub fn loaded_multi(
    registry: &SchemeRegistry,
    stack: &str,
    n: usize,
    object_id_len: usize,
    seed: u64,
) -> Box<dyn MultiRangeScheme> {
    let params = MultiBuildParams::new(n, &RECT_DOMAINS).with_object_id_len(object_id_len);
    let mut rng = simnet::rng_from_seed(seed);
    let mut scheme = registry
        .build_multi(stack, &params, &mut rng)
        .unwrap_or_else(|e| panic!("cell {stack} (N = {n}): {e}"));
    for h in 0..n as u64 {
        let p = RECT_DOMAINS.map(|(lo, hi)| rng.gen_range(lo..=hi));
        scheme.publish_point(&p, h).unwrap_or_else(|e| panic!("cell {stack}: publish: {e}"));
    }
    scheme
}

/// The driver of a cell: `queries` queries per batch (or per epoch) under
/// `seed`, on `threads` workers. Reports are identical for any thread
/// count, so `threads` only tunes wall-clock time.
pub fn driver(queries: usize, seed: u64, threads: usize) -> ParallelDriver {
    ParallelDriver { queries, seed, threads, shard_salt: 0, metrics: false }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard_registry;
    use dht_api::{DigestReport, NetModel, ReplicaPolicy, WorkloadGen};

    fn digest(scheme: &dyn RangeScheme) -> DigestReport {
        let workload = WorkloadGen::named("mixed", DOMAIN).unwrap();
        DigestReport::of(&driver(40, 0x5eed, 2).run(scheme, &workload).unwrap())
    }

    /// What the cell leans on: a suffix in the stack string is the
    /// matching `BuildParams` field, on a real stack.
    #[test]
    fn stack_suffixes_equal_build_params_fields() {
        let registry = standard_registry();
        let load = |name: &str, params: &BuildParams| {
            let mut rng = simnet::rng_from_seed(0xce11);
            let mut scheme = registry.build_single(name, params, &mut rng).unwrap();
            for h in 0..120u64 {
                scheme.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h).unwrap();
            }
            digest(scheme.as_ref())
        };
        let plain = BuildParams::new(120, DOMAIN.0, DOMAIN.1).with_object_id_len(32);
        let spelled = plain
            .clone()
            .with_net(NetModel::named("wan").unwrap())
            .with_replication(ReplicaPolicy::successor(3));
        assert_eq!(load("pira+r3@wan", &plain), load("pira", &spelled));
        assert_ne!(load("pira+r3@wan", &plain), load("pira", &plain));
        assert_eq!(load("pira+r1", &plain), load("pira", &plain), "+r1 is the bare scheme");
        // And the cell's own spelling of the same stack.
        let cell = loaded(&registry, "pira+r3@wan", 120, 32, 0xce11);
        assert_eq!(digest(cell.as_ref()), load("pira+r3@wan", &plain));
    }

    #[test]
    fn a_cell_is_a_pure_function_of_its_stack_and_seeds() {
        let registry = standard_registry();
        let a = loaded(&registry, "pira+r2@lossy-p/r2", 100, 32, 7);
        let b = loaded(&registry, "pira+r2@lossy-p/r2", 100, 32, 7);
        assert_eq!(digest(a.as_ref()), digest(b.as_ref()));
        let other_seed = loaded(&registry, "pira+r2@lossy-p/r2", 100, 32, 8);
        assert_ne!(digest(a.as_ref()), digest(other_seed.as_ref()));
    }

    #[test]
    fn stacks_sharing_a_base_name_and_seed_share_network_and_records() {
        let registry = standard_registry();
        let workload = WorkloadGen::named("uniform", DOMAIN).unwrap();
        let run = |stack: &str| {
            let scheme = loaded(&registry, stack, 150, 32, 0xba5e);
            driver(60, 1, 2).run(scheme.as_ref(), &workload).unwrap()
        };
        let (unit, wan) = (run("pira"), run("pira@wan"));
        assert_eq!(unit.delay, wan.delay);
        assert_eq!(unit.messages, wan.messages);
        assert_eq!(unit.results_returned, wan.results_returned);
        assert!(wan.latency.mean > unit.latency.mean, "the net model still prices edges");
    }

    #[test]
    fn unknown_stacks_are_typed_errors_and_loaded_panics_with_the_stack() {
        let registry = standard_registry();
        assert!(matches!(
            build(&registry, "no-such", 50, 32, 1),
            Err(SchemeError::UnknownScheme { .. })
        ));
        assert!(build(&registry, "pira@no-such-net", 50, 32, 1).is_err());
        let caught = std::panic::catch_unwind(|| {
            let _ = loaded(&standard_registry(), "pira@no-such-net", 50, 32, 1);
        });
        assert!(caught.is_err());
    }

    #[test]
    fn rect_cells_load_n_points() {
        let registry = standard_registry();
        let scheme = loaded_multi(&registry, "mira", 80, 32, 3);
        let out = scheme.rect_query(0, &RECT_DOMAINS, 0).unwrap();
        assert_eq!(out.results.len(), 80, "the whole-domain rectangle returns every point");
    }
}
