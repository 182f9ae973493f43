//! Per-scheme allocation budgets on the query hot path, enforced at
//! N = 10³ with the workspace's counting allocator installed as this test
//! binary's global allocator.
//!
//! The zero-allocation hot-path work (scratch reuse, `Sim` recycling,
//! interned routing state) drove steady-state allocations per query down
//! to O(results); these ceilings pin that property so a regressed hot
//! path — a reintroduced per-hop clone, a `Sim::new` per query — fails
//! `cargo test`. Each ceiling carries headroom over the measured steady
//! state (1.5× for the tight rungs, up to ~4× for the loose ones) so
//! routine drift stays quiet while an accidental O(messages) regression
//! (tens of allocations per hop at these sizes) trips immediately.
//!
//! The same test pins two layouts without a stopwatch: what `publish` and
//! a no-op `re_replicate` ask of the allocator per record on the
//! replication layer must not depend on the peer count, and neither must
//! what `publish` asks for on bare `pira` and `mira` at the paper's
//! ObjectID length, each of which has a ceiling of its own. Those two read
//! 112 and 128 bytes per record since the naming emits keys (212 and 440
//! while every publish spelled its ObjectID as a 100-symbol string first;
//! 191 and 424 as an ordered set before the object table became one flat
//! column, whose doubling growth asks for more bytes than it keeps).
//!
//! Everything runs inside ONE `#[test]` so the process-wide counter is
//! never shared with a concurrent test thread; queries are driven
//! serially, with a warm-up batch first so one-time scratch growth
//! (heap capacity ratchets up to the largest query seen) is excluded from
//! the steady-state figure — exactly how the bench's allocation probe
//! measures.

use armada_suite::dht_api::{
    BuildParams, MultiBuildParams, QueryCtx, RangeRequest, RectRequest, WorkloadGen,
};
use armada_suite::experiments::standard_registry;
use armada_suite::rand::Rng;

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

const DOMAIN: (f64, f64) = (0.0, 1000.0);
const N: usize = 1000;
const WARMUP: usize = 32;
const MEASURED: usize = 200;

/// Steady-state allocations per query for one single-attribute scheme
/// under `workload`: warm up the scratch, then meter `MEASURED` serial
/// queries.
fn allocs_per_query(name: &str, workload: &WorkloadGen) -> f64 {
    let registry = standard_registry();
    let params = BuildParams::new(N, DOMAIN.0, DOMAIN.1).with_object_id_len(32);
    let mut rng = simnet::rng_from_seed(0xa110c);
    let mut scheme = registry.build_single(name, &params, &mut rng).unwrap();
    for h in 0..N as u64 {
        scheme.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h).unwrap();
    }
    let mut scratch = simnet::QueryScratch::new();
    let mut run = |q: usize| {
        let (lo, hi) = workload.range(7, q as u64);
        let mut orng = simnet::rng_from_seed(0x0e15 ^ q as u64);
        let origin = scheme.random_origin(&mut orng);
        let req = RangeRequest::new(origin, lo, hi, 7 + q as u64).unwrap();
        let out = scheme.query(&req, &mut QueryCtx::new(&mut scratch)).unwrap();
        let clean = !name.contains("lossy");
        assert!(out.exact || !clean, "{name}: query {q} inexact on a clean network");
    };
    for q in 0..WARMUP {
        run(q);
    }
    let before = counting_alloc::allocation_count();
    for q in WARMUP..WARMUP + MEASURED {
        run(q);
    }
    (counting_alloc::allocation_count() - before) as f64 / MEASURED as f64
}

/// Same metering for the multi-attribute scheme.
fn rect_allocs_per_query(name: &str, dims: usize) -> f64 {
    let registry = standard_registry();
    let domains: Vec<(f64, f64)> = vec![DOMAIN; dims];
    let params = MultiBuildParams::new(N, &domains).with_object_id_len(32);
    let mut rng = simnet::rng_from_seed(0xa110c);
    let mut scheme = registry.build_multi(name, &params, &mut rng).unwrap();
    for h in 0..N as u64 {
        let p: Vec<f64> = (0..dims).map(|_| rng.gen_range(DOMAIN.0..=DOMAIN.1)).collect();
        scheme.publish_point(&p, h).unwrap();
    }
    let workload = WorkloadGen::named("rect-correlated", DOMAIN).unwrap();
    let mut scratch = simnet::QueryScratch::new();
    let mut run = |q: usize| {
        let rect = workload.rect(&domains, 7, q as u64);
        let mut orng = simnet::rng_from_seed(0x0e15 ^ q as u64);
        let origin = scheme.random_origin(&mut orng);
        let req = RectRequest::new(origin, &rect, 7 + q as u64).unwrap();
        scheme.query(&req, &mut QueryCtx::new(&mut scratch)).unwrap();
    };
    for q in 0..WARMUP {
        run(q);
    }
    let before = counting_alloc::allocation_count();
    for q in WARMUP..WARMUP + MEASURED {
        run(q);
    }
    (counting_alloc::allocation_count() - before) as f64 / MEASURED as f64
}

/// `(allocations, bytes)` requested by `f`.
fn metered(f: impl FnOnce()) -> (f64, f64) {
    let before = (counting_alloc::allocation_count(), counting_alloc::allocated_bytes());
    f();
    (
        (counting_alloc::allocation_count() - before.0) as f64,
        (counting_alloc::allocated_bytes() - before.1) as f64,
    )
}

/// What replica placement asks of the allocator on `pira+r3` at `n` peers:
/// `(allocations, bytes)` per `publish` onto a loaded scheme, then per
/// record of a `re_replicate` pass that finds nothing to move.
fn placement_cost(n: usize) -> [(f64, f64); 2] {
    const RECORDS: usize = 1024;
    let params = BuildParams::new(n, DOMAIN.0, DOMAIN.1).with_object_id_len(32);
    let mut rng = simnet::rng_from_seed(0xa110c);
    let mut scheme = standard_registry().build_single("pira+r3", &params, &mut rng).unwrap();
    let mut publish = |scheme: &mut Box<dyn armada_suite::dht_api::RangeScheme>, from: usize| {
        for h in from..from + RECORDS {
            scheme.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h as u64).unwrap();
        }
    };
    publish(&mut scheme, 0);
    let published = metered(|| publish(&mut scheme, RECORDS));
    let control = scheme.as_replicated().expect("pira+r3 is replicated");
    let repaired = metered(|| assert_eq!(control.re_replicate().ops(), 0));
    let per_record = |(allocs, bytes): (f64, f64), records: usize| {
        (allocs / records as f64, bytes / records as f64)
    };
    [per_record(published, RECORDS), per_record(repaired, 2 * RECORDS)]
}

const PUBLISHED: usize = 2048;

/// Bytes `publish` asks of the allocator per record on bare `pira` at the
/// paper's ObjectID length and `n` peers, onto a scheme that already holds
/// as many records again.
fn publish_bytes_per_record(n: usize) -> f64 {
    let params = BuildParams::new(n, DOMAIN.0, DOMAIN.1).with_object_id_len(100);
    let mut rng = simnet::rng_from_seed(0xa110c);
    let mut scheme = standard_registry().build_single("pira", &params, &mut rng).unwrap();
    let mut publish = |from: usize| {
        for h in from..from + PUBLISHED {
            scheme.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h as u64).unwrap();
        }
    };
    publish(0);
    metered(|| publish(PUBLISHED)).1 / PUBLISHED as f64
}

/// The same on bare `mira` over two attributes.
fn point_bytes_per_record(n: usize) -> f64 {
    let params = MultiBuildParams::new(n, &[DOMAIN; 2]).with_object_id_len(100);
    let mut rng = simnet::rng_from_seed(0xa110c);
    let mut scheme = standard_registry().build_multi("mira", &params, &mut rng).unwrap();
    let mut publish = |from: usize| {
        for h in from..from + PUBLISHED {
            let point = [0; 2].map(|_| rng.gen_range(DOMAIN.0..=DOMAIN.1));
            scheme.publish_point(&point, h as u64).unwrap();
        }
    };
    publish(0);
    metered(|| publish(PUBLISHED)).1 / PUBLISHED as f64
}

#[test]
fn steady_state_allocations_per_query_stay_within_budget() {
    assert!(counting_alloc::is_installed(), "counting allocator not installed");

    // What the one object table buys, without a stopwatch. A record used to
    // cost a kept 100-byte string and a `Vec<u64>`, and a peer's first
    // record a whole map leaf, so the figure rose with the peer count
    // (238 bytes at N = 500, 305 at N = 2000, one commit earlier). Then it
    // was the naming layer's transient string plus the table's amortised
    // growth: 191 as an ordered set, 212 as the flat column. The naming
    // now emits the key itself, so what is left is the column's and the
    // value column's doubling growth, whoever the owner is: measured 112 at
    // both sizes, × 1.5.
    let [small, large] = [500, 2000].map(publish_bytes_per_record);
    eprintln!("alloc budget: pira publish {small:.0} bytes/record at N = 500, {large:.0} at 2000");
    assert!(large <= 168.0, "pira publish: {large:.0} bytes per record exceeds budget 168");
    assert!((small - large).abs() <= 16.0, "pira publish: bytes per record depend on N");
    // MIRA's publish pays the same table plus a point twice PIRA's value.
    // Measured 128 at both sizes since the key is written without a string
    // or a scaled copy of the point, × 1.5 (440 with both; 455 while each
    // point was a `Vec` of its own; 424 with an ordered set).
    let [small, large] = [500, 2000].map(point_bytes_per_record);
    eprintln!("alloc budget: mira publish {small:.0} bytes/record at N = 500, {large:.0} at 2000");
    assert!(large <= 192.0, "mira publish: {large:.0} bytes per record exceeds budget 192");
    assert!((small - large).abs() <= 16.0, "mira publish: bytes per record depend on N");

    // Placement and repair cost what one record costs, whatever N: a ring
    // re-derived per record would ask for 24 more bytes per peer here.
    // Neither allocates per record: the owners go into a kept buffer and
    // the holders into one flat table, so what is left is the columns'
    // doubling growth. Measured (allocations, bytes) per record: publish
    // (0.006, 184), a no-op repair pass (0.0005, 0.016) — one buffer per
    // pass — where a `Vec` per record read (1.14, 243) and (1.0, 24). The
    // ceilings: 0.05 allocations (one per twenty records is far above
    // doubling growth), bytes at 1.5× rounded up.
    let (small, large) = (placement_cost(500), placement_cost(2000));
    for (what, small, large, bytes) in [
        ("publish", small[0], large[0], 276.0),
        ("no-op re_replicate record", small[1], large[1], 1.0),
    ] {
        eprintln!("alloc budget: {what:>26} {small:?} at N = 500, {large:?} at N = 2000");
        assert!((small.0 - large.0).abs() <= 2.0, "{what}: allocations grow with N");
        assert!((small.1 - large.1).abs() <= 512.0, "{what}: allocated bytes grow with N");
        assert!(large.0 <= 0.05, "{what}: {:.3} allocations per record", large.0);
        assert!(large.1 <= bytes, "{what}: {:.1} bytes per record exceed {bytes}", large.1);
    }

    // (scheme, ceiling). For context, the pre-optimization baseline at
    // this N measured ~1854 allocations/query for pira.
    // Measured steady states when these budgets were set (mixed workload,
    // this N): pira ≈ 9.0, seqwalk ≈ 55, dcf-can ≈ 92, dcf-can-naive ≈ 27,
    // pht-chord ≈ 103, skipgraph ≈ 3.5, mira ≈ 28. The pre-optimization
    // pira figure at this N was ≈ 1854. The pira rungs sit at 1.5× now
    // that the handler fills no ordered sets and the ground truth is a
    // range of routing-table ranks, not a list. They read 12.7, 12.7, 12.7,
    // 36.0 and 14.4 while PIRA still built its destination list, and 8.01
    // (9.00 with a copy per query) once the adapter mapped record ids to
    // handles in the result buffer itself: what was left was the naming's
    // two 100-symbol strings, the sub-regions and their common prefixes.
    // Since the whole prologue runs on keys, pira reads 1.01 — the result
    // buffer — and its three clean rungs sit at 1.5× that.
    // The dcf-can rungs likewise (measured 1.04 and 1.03, × 1.5 rounded up
    // to a whole allocation): the result buffer, and what scratch growth
    // the warm-up did not reach. pht-chord likewise (measured 1.00, × 1.5):
    // the result buffer, now that the query keeps its get keys, descent
    // levels and Chord route-tree buffers in the scratch; it read 7.6 (the
    // result buffer and the two descent frontiers, per query) once a Chord
    // route kept no path and the trie became an arena. skipgraph sits at
    // 1.5× what it measures in a debug build (3.48; its rung was 20, far
    // above any regression). seqwalk likewise (measured 1.00 in debug and
    // release builds, × 1.5): the result buffer, now that its route and
    // walk run on a recycled `Sim` with the answer ledger in the scratch;
    // it read 5.88 in a debug build (8.82 rung) while it collected its
    // records in an ordered set.
    let budgets = [
        ("pira", 1.52),
        ("seqwalk", 1.5),
        ("dcf-can", 2.0),
        ("dcf-can-naive", 2.0),
        ("pht-chord", 1.5),
        // pht-fissione: the result buffer, now that FissionE prices a
        // query's gets on one route tree of key windows in the scratch
        // (measured 1.01, × 1.5); it read 31.2 while every get unranked its
        // ObjectID as a 100-symbol string and routed it alone.
        ("pht-fissione", 1.52),
        ("skipgraph", 5.22),
        // Composed stacks: the wrappers thread the caller's scratch down
        // to the engine, so a faulted retry attempt costs what a bare
        // query does. Measured: 1.02, 1.01, 3.15 and 2.71 on keys, each at
        // 1.5× (8.02, 8.01, 23.21 and 9.91 while the naming built strings;
        // 9.01, 9.00, 25.18 and 10.61 before the in-place handle map).
        // The hostile rungs read 52.2 and 28.1 before the loss plan's
        // attempt counters became a flat table kept across recycles and
        // the fetch phase's buffers moved into the scratch (mostly
        // ordered-map nodes). A fetch phase allocates nothing per fetch or
        // per routed hop, in debug builds too (their per-fetch check prices
        // through the same scratch, and their check of the ground truth
        // sorts into a scratch buffer). The composed stack read 2.71 over an
        // ordered value index and a holder list per record, 1.69 over the
        // flat value column and holder table; its rung sits at 1.5× that.
        ("pira+r3", 1.53),
        ("pira@wan", 1.52),
        ("pira@lossy-p/r3", 4.73),
        ("pira+r3@wan@lossy-p/r3", 2.54),
    ];
    let mixed = WorkloadGen::named("mixed", DOMAIN).unwrap();
    let mut failures = Vec::new();
    for (name, ceiling) in budgets {
        let got = allocs_per_query(name, &mixed);
        eprintln!("alloc budget: {name:>22} {got:>10.2} / {ceiling}");
        if got > ceiling {
            failures.push(format!("{name}: {got:.2} allocs/query exceeds budget {ceiling}"));
        }
    }
    // MIRA shares PIRA's descent and pays, per query, for its scaled
    // rectangle (two vectors) and one `ComS` string per sub-query, which
    // its string-form rectangle test reads; the corner keys are written
    // from the rectangle, its corner run is a range of ranks and the
    // destinations in it a scratch buffer: measured 4.42, at 1.5× (19.46
    // while the corner region was spelled twice over as strings; 26.4 when
    // the run and the destinations were lists built per query).
    //
    // squid and SCRAP route every cluster or curve segment of a rectangle
    // and answer with a list per destination: measured 626.48 and 615.10,
    // at 1.5× (squid read 635.07 while each query routed its levels on a
    // fresh scratch of its own instead of the caller's).
    for (name, ceiling) in [("mira", 6.63), ("squid", 940.0), ("scrap", 923.0)] {
        let got = rect_allocs_per_query(name, 2);
        eprintln!("alloc budget: {name:>22} {got:>10.2} / {ceiling}");
        if got > ceiling {
            failures.push(format!("{name}: {got:.2} allocs/query exceeds budget {ceiling}"));
        }
    }
    // A hundred times the answer (≈ 2 → 200 peers and records) is not a
    // hundred times the allocations: a non-empty answer is one allocation
    // an empty one is not, and the scratch's record buffer still grows by
    // doubling whenever an answer outgrows every earlier one — 0.88
    // against 1.00 since the prologue runs on keys (6.9 against 12.8 while
    // a wide range's extra sub-regions were each two strings and a common
    // prefix; 8.7 against 20.8 while the ground truth was a list built per
    // query and grown by doubling too). Per-peer or per-record bookkeeping
    // (the three ordered sets the handler used to fill: 14.2 against 98.8)
    // does not fit under it, nor do strings per sub-region.
    //
    // dcf-can the same way over a tenfold range (some twenty zones against
    // some two hundred at this N): the flood's ground truth, stamps,
    // per-zone parent links and targets all live in the scratch, so the
    // difference is scratch growth alone — 1.01 against 1.00 when this was
    // written, where a copied informed set per forwarding zone read 65.6
    // against 486.3.
    //
    // pht-chord over the same tenfold range sends some 1 050 messages a
    // query against 150 (a trie get is a Chord route of several hops plus
    // its response); its get keys, descent levels and route-tree buffers
    // live in the scratch, so the difference is scratch growth alone —
    // 1.00 against 1.00 when this was written, 7.9 against 17.8 while the
    // result buffer and the two descent frontiers grew by doubling per
    // query. One allocation per get or per hop does not fit under it.
    for (name, widths, slack) in [
        ("pira", [2.0, 200.0], 1.0),
        ("dcf-can", [20.0, 200.0], 8.0),
        ("pht-chord", [20.0, 200.0], 1.0),
    ] {
        let [narrow, wide] =
            widths.map(|width| allocs_per_query(name, &WorkloadGen::uniform(DOMAIN, width)));
        let [w0, w1] = widths;
        eprintln!("alloc budget: {name} at width {w0} {narrow:.2}, at width {w1} {wide:.2}");
        if wide > narrow + slack {
            failures.push(format!(
                "{name}: {narrow:.2} allocs/query at width {w0}, {wide:.2} at width {w1}"
            ));
        }
    }
    assert!(failures.is_empty(), "hot-path allocation regressions:\n{}", failures.join("\n"));
}
