//! Criterion benches for the substrate building blocks: naming, routing,
//! network construction, the three layers a replicated stack adds
//! (placement, repair, the fetch route and a query's whole fetch phase),
//! the parts of Armada's query — the
//! routing table a membership epoch pays for once, the handler every
//! delivery runs on a key region (PIRA) and with a rectangle left to test
//! (MIRA), the gather over
//! the object table a query ends with, and a batch of publishes into that
//! table with the read that merges them in, and a membership batch with
//! the query that rebuilds the routing table after it — and
//! DCF's: the split-tree descent a query pays for once and the flood
//! handler — and PHT's over Chord: the finger walk every trie get pays, and
//! the whole layered query.

use armada::{descent, MultiArmada, SingleArmada};
use armada_experiments::standard_registry;
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use dht_api::{BuildParams, Dht, QueryCtx, RangeRequest, RangeScheme};
use dht_can::dcf::{self, FloodMode};
use dht_can::{hilbert, CanConfig, CanNet};
use fissione::{FissioneConfig, FissioneNet, ObjectKey};
use kautz::naming::{MultiHash, Naming, SingleHash};
use kautz::KautzStr;
use rand::Rng;
use simnet::QueryScratch;

fn bench_naming(c: &mut Criterion) {
    // Each naming twice: the ObjectID spelled as a string (the API edge and
    // test oracle) and emitted as the key the engine publishes under.
    let single = SingleHash::new(0.0, 1000.0, 100).unwrap();
    let multi = MultiHash::new(&[(0.0, 100.0), (0.0, 100.0), (0.0, 100.0)], 100).unwrap();
    let mut rng = simnet::rng_from_seed(5);
    c.bench_function("single_hash_k100", |b| {
        b.iter(|| single.object_id(rng.gen_range(0.0..=1000.0)))
    });
    c.bench_function("single_hash_key_k100", |b| {
        b.iter(|| single.object_key(rng.gen_range(0.0..=1000.0)))
    });
    let mut point = || [0; 3].map(|_| rng.gen_range(0.0..=100.0));
    c.bench_function("multiple_hash_m3_k100", |b| b.iter(|| multi.object_id(&point()).unwrap()));
    c.bench_function("multiple_hash_key_m3_k100", |b| {
        b.iter(|| multi.object_key(&point()).unwrap())
    });
}

fn bench_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("fissione_route");
    group.sample_size(30);
    for n in [1000usize, 4000] {
        let cfg = FissioneConfig { object_id_len: 100, ..FissioneConfig::default() };
        let mut rng = simnet::rng_from_seed(6 + n as u64);
        let net = FissioneNet::build(cfg, n, &mut rng).unwrap();
        // The first route after a membership change builds the table; the
        // shim sizes a run from its first iteration, so build it off the
        // clock.
        net.route_table();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let target = KautzStr::random(100, &mut rng);
                let from = net.random_peer(&mut rng);
                net.route(from, &target).unwrap()
            });
        });
    }
    group.finish();

    // The hop on its own: peer to peer (≈ 11.6 hops at 10⁴), each edge
    // priced under `wan` as a replica fetch prices it, no path kept.
    let mut rng = simnet::rng_from_seed(16);
    let net = FissioneNet::build(FissioneConfig::default(), 10_000, &mut rng).unwrap();
    let peers: Vec<_> = net.live_peers().collect();
    let ids: Vec<_> =
        peers.iter().map(|&p| ObjectKey::new(net.peer_id(p).expect("live"))).collect();
    let wan = simnet::NetModel::named("wan").expect("a catalog model");
    net.route_table();
    c.bench_function("fissione_route_fold/10000", |b| {
        b.iter(|| {
            let from = peers[rng.gen_range(0..peers.len())];
            let to = ids[rng.gen_range(0..ids.len())];
            net.route_fold(from, to, (0u64, 0u64), |(hops, ms), src, dst| {
                (hops + 1, ms + wan.edge_cost(src, dst))
            })
        });
    });
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("network_build");
    group.sample_size(10);
    // 10⁵ is `pira-scan`'s set-up: a join's owner probe and split at the
    // depth a large cover reaches.
    for n in [1000usize, 100_000] {
        group.bench_function(format!("fissione_{n}"), |b| {
            let cfg = FissioneConfig { object_id_len: 100, ..FissioneConfig::default() };
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = simnet::rng_from_seed(seed);
                FissioneNet::build(cfg, n, &mut rng).unwrap()
            });
        });
    }
    // 10⁴ is `pht-chord-uniform`'s set-up, 10⁵ the layered baseline's
    // scaling point.
    for n in [1000usize, 10_000, 100_000] {
        group.bench_function(format!("chord_{n}"), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = simnet::rng_from_seed(seed);
                chord::ChordNet::build(n, &mut rng)
            });
        });
    }
    group.finish();
}

/// `name` at `n` peers with `n` records published, from a fixed seed.
fn loaded(name: &str, n: usize) -> Box<dyn RangeScheme> {
    let mut rng = simnet::rng_from_seed(7 + n as u64);
    let params = BuildParams::new(n, 0.0, 1000.0);
    let mut scheme = standard_registry().build_single(name, &params, &mut rng).expect("build");
    for h in 0..n as u64 {
        scheme.publish(rng.gen_range(0.0..=1000.0), h).expect("publish");
    }
    scheme
}

fn bench_replication(c: &mut Criterion) {
    // Placement: one record onto a loaded `pira+r3` (the parameter is the
    // peer count; the cost must not grow with it).
    let mut group = c.benchmark_group("replicated_publish");
    for n in [1000usize, 10_000] {
        let mut scheme = loaded("pira+r3", n);
        let mut rng = simnet::rng_from_seed(8);
        let mut handle = n as u64;
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                handle += 1;
                scheme.publish(rng.gen_range(0.0..=1000.0), handle).expect("publish")
            });
        });
    }
    group.finish();

    // Repair: a whole pass over 4 000 records that finds nothing to move.
    let mut scheme = loaded("pira+r3", 4000);
    let control = scheme.as_replicated().expect("pira+r3 is replicated");
    c.bench_function("re_replicate_noop/4000", |b| b.iter(|| control.re_replicate()));

    // Invariant repair on the bare overlay: a built network after 32 joins
    // and 32 leaves (the churn is the same every iteration, and off the
    // clock), one `stabilize` call.
    let mut group = c.benchmark_group("fissione_stabilize");
    for n in [4000usize, 100_000] {
        let mut rng = simnet::rng_from_seed(14 + n as u64);
        let built = FissioneNet::build(FissioneConfig::default(), n, &mut rng).unwrap();
        let churned = || {
            let mut net = built.clone();
            let mut rng = simnet::rng_from_seed(15);
            for _ in 0..32 {
                net.join(&mut rng);
            }
            let victims: Vec<_> = net.live_peers().step_by(5).take(32).collect();
            for victim in victims {
                net.leave(victim).expect("a live peer above the minimum size");
            }
            net
        };
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter_batched(churned, |mut net| net.stabilize(), BatchSize::LargeInput);
        });
    }
    group.finish();

    // The fetch route: one point fetch between two random live peers,
    // priced as a batch of one holder through a scratch kept across
    // iterations.
    let scheme = loaded("pira", 10_000);
    let routing = scheme.as_replica_routing().expect("pira routes replicas");
    let peers = routing.live_peers();
    let mut rng = simnet::rng_from_seed(9);
    let mut scratch = QueryScratch::new();
    let mut costs = Vec::with_capacity(1200);
    // The first fetch builds the routing table: keep it off the clock.
    routing.fetch_costs(peers[0], &peers[1..2], &mut scratch, &mut costs);
    c.bench_function("replica_fetch_cost/10000", |b| {
        b.iter(|| {
            let origin = peers[rng.gen_range(0..peers.len())];
            let holder = peers[rng.gen_range(0..peers.len())];
            costs.clear();
            routing.fetch_costs(origin, &[holder], &mut scratch, &mut costs);
            costs[0]
        })
    });
    // A query's whole fetch phase: one origin, 223 random holders (what a
    // `stack-hostile` query fetches on average), priced in one call
    // through a scratch kept across iterations; then 1 200 (what one of its
    // wide scans fetches), which share more of one tree.
    let mut holders = Vec::with_capacity(1200);
    for (name, fetches) in
        [("replica_fetch_phase/10000", 223), ("replica_fetch_phase/wide_1e4", 1200)]
    {
        c.bench_function(name, |b| {
            b.iter(|| {
                let origin = peers[rng.gen_range(0..peers.len())];
                holders.clear();
                holders.extend((0..fetches).map(|_| peers[rng.gen_range(0..peers.len())]));
                costs.clear();
                routing.fetch_costs(origin, &holders, &mut scratch, &mut costs);
                costs.len()
            })
        });
    }
    // A fetch phase with nothing to fetch: a `pira+r3` query on a clean
    // network, whose primary answer (≈ 100 records of 10⁴) is the ground
    // truth, so the phase only finds that out; the rest of the time is the
    // primary phase.
    let scheme = loaded("pira+r3", 10_000);
    let query = |scratch: &mut QueryScratch, rng: &mut rand::rngs::SmallRng| {
        let lo = rng.gen_range(0.0..990.0);
        let origin = scheme.random_origin(rng);
        let req = RangeRequest::new(origin, lo, lo + 10.0, 11).expect("a valid range");
        let out = scheme.query(&req, &mut QueryCtx::new(scratch)).expect("a live origin");
        debug_assert!(out.exact, "a clean network answers exactly");
        out.results.len()
    };
    query(&mut scratch, &mut rng);
    c.bench_function("replica_fetch_none/10000", |b| b.iter(|| query(&mut scratch, &mut rng)));
}

fn bench_pira(c: &mut Criterion) {
    // The table: what the first query after a membership change pays. Each
    // iteration also pays the join + leave (tens of µs) that drops it and
    // puts the cover back as it was.
    let mut group = c.benchmark_group("route_table_build");
    for n in [10_000usize, 100_000] {
        let mut rng = simnet::rng_from_seed(10 + n as u64);
        let mut net = FissioneNet::build(FissioneConfig::default(), n, &mut rng).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let newcomer = net.join(&mut rng);
                net.leave(newcomer).expect("the split leaf takes its half back");
                net.route_table().len()
            });
        });
    }
    group.finish();

    // The benchmark's two corners (`pira-narrow`, `pira-scan`): a loaded
    // network each, and the width of its queries.
    let corners = [("narrow_1e4", 10_000usize, 2.0), ("scan_1e5", 100_000, 200.0)];
    let mut nets = corners.map(|(label, n, width)| {
        let mut rng = simnet::rng_from_seed(11 + n as u64);
        let mut armada = SingleArmada::build(n, 0.0, 1000.0, &mut rng).unwrap();
        for _ in 0..n {
            armada.publish(rng.gen_range(0.0..=1000.0));
        }
        (label, width, armada, rng)
    });

    // The handler: native queries over a built table and a warm scratch.
    // The first read after the load settles the object column and the first
    // route builds the routing table: one query pays both off the clock.
    let mut group = c.benchmark_group("pira_query");
    for (label, width, armada, rng) in &mut nets {
        let mut scratch = simnet::QueryScratch::new();
        let mut seed = 0u64;
        let mut query = || {
            seed += 1;
            let lo = rng.gen_range(0.0..=1000.0 - *width);
            let origin = armada.net().random_peer(rng);
            armada.pira_query_scratch(origin, lo, lo + *width, seed, &mut scratch).unwrap()
        };
        query();
        group.bench_function(*label, |b| b.iter(&mut query));
    }
    group.finish();

    // The same handler with a rectangle left to test: two attributes over
    // `[0, 1000]²`, rectangles with 50-wide sides, as many records as peers.
    let mut group = c.benchmark_group("mira_query");
    for n in [4000usize, 10_000] {
        let mut rng = simnet::rng_from_seed(17 + n as u64);
        let mut armada = MultiArmada::build(n, &[(0.0, 1000.0); 2], &mut rng).unwrap();
        for _ in 0..n {
            armada.publish(&[rng.gen_range(0.0..=1000.0), rng.gen_range(0.0..=1000.0)]).unwrap();
        }
        let mut scratch = simnet::QueryScratch::new();
        let mut seed = 0u64;
        let mut query = || {
            seed += 1;
            let rect = [0; 2].map(|_| {
                let lo = rng.gen_range(0.0..=950.0);
                (lo, lo + 50.0)
            });
            let origin = armada.net().random_peer(&mut rng);
            descent::query(&armada, origin, &rect, seed, None, false, &mut scratch).unwrap()
        };
        // Both lazy tables, off the clock.
        query();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| b.iter(&mut query));
    }
    group.finish();

    // The gather: the slice of the object column alone, every
    // destination having answered (marking them is inside the timing; the
    // region and its destination run of ranks are not).
    let mut group = c.benchmark_group("pira_gather");
    for (label, width, armada, rng) in &mut nets {
        let table = armada.net().route_table();
        let queries: Vec<_> = (0..64)
            .map(|_| {
                let lo = rng.gen_range(0.0..=1000.0 - *width);
                let range = [(lo, lo + *width)];
                let region = armada.naming().query_region(&range).unwrap();
                let run = table.run(region.0 .0, region.0 .1).unwrap();
                (region, run, range)
            })
            .collect();
        let mut answers = simnet::Answers::default();
        let mut next = 0;
        let mut gather = || {
            next += 1;
            let (region, run, range) = &queries[next % queries.len()];
            answers.begin(table.len(), run.clone());
            for rank in run.clone() {
                answers.first_answer(rank, 0);
            }
            let keep = descent::record_filter(armada, region, range);
            descent::gather(armada.net(), region.0, run.clone(), &mut answers, keep);
        };
        // The object column settled off the clock (the queries above did it
        // already; a gather run alone must too).
        gather();
        group.bench_function(*label, |b| b.iter(&mut gather));
    }
    group.finish();

    // Publish: a batch of 4 096 new pairs into the 10⁵-record table, the
    // ObjectIDs' keys given, then the one read that merges them in — what a
    // publish costs once a query has seen it, per record. Each iteration
    // starts from a copy of the loaded table (off the clock) that one
    // publish and read have given the headroom a loaded column has.
    let (_, _, armada, rng) = &mut nets[1];
    let ids: Vec<_> =
        (0..4096).map(|_| armada.naming().object_key(rng.gen_range(0.0..=1000.0))).collect();
    let loaded = || {
        let mut net = armada.net().clone();
        net.publish(ids[0], 100_000).unwrap();
        assert!(net.lookup(ids[0]).unwrap().1.any(|h| h == 100_000));
        net
    };
    let mut group = c.benchmark_group("fissione_publish");
    group.throughput(Throughput::Elements(ids.len() as u64));
    group.bench_function("100000", |b| {
        b.iter_batched(
            loaded,
            |mut net| {
                for (handle, &id) in (100_001..).zip(&ids) {
                    net.publish(id, handle).unwrap();
                }
                assert!(net.lookup(ids[0]).unwrap().1.any(|h| h == 100_001));
                net
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();

    // A membership batch and the query after it: a copy of the loaded 10⁵
    // network (off the clock) takes 32 leaves and 32 joins, then answers
    // one narrow PIRA query, which rebuilds the routing table the batch
    // dropped. The churn is the same every iteration.
    let (_, _, armada, _) = &nets[1];
    let mut scratch = simnet::QueryScratch::new();
    let mut group = c.benchmark_group("churn_then_query");
    group.sample_size(10);
    group.bench_function("100000", |b| {
        b.iter_batched(
            || armada.clone(),
            |mut armada| {
                let net = armada.net_mut();
                let victims: Vec<_> = net.live_peers().step_by(5).take(32).collect();
                for victim in victims {
                    net.leave(victim).expect("a live peer above the minimum size");
                }
                let mut rng = simnet::rng_from_seed(16);
                for _ in 0..32 {
                    net.join(&mut rng);
                }
                let origin = net.random_peer(&mut rng);
                armada.pira_query_scratch(origin, 500.0, 502.0, 1, &mut scratch).unwrap();
                armada
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bench_dcf(c: &mut Criterion) {
    // The descent: the curve cells of a width-20 range to the zones that
    // hold them, one span test per split-tree node.
    let mut group = c.benchmark_group("can_zones_meeting");
    for n in [10_000usize, 100_000] {
        let mut rng = simnet::rng_from_seed(12 + n as u64);
        let net = CanNet::build(CanConfig::default(), n, &mut rng).unwrap();
        let order = net.config().hilbert_order;
        let mut zones = Vec::new();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let lo = rng.gen_range(0.0..=980.0);
                let cell = |v| hilbert::cell_of(order, net.normalize(v));
                net.zones_meeting_cells(cell(lo), cell(lo + 20.0), &mut zones);
                zones.len()
            });
        });
    }
    group.finish();

    // The whole engine: native queries over a warm scratch, at the
    // benchmark's width (`dcf-can-uniform`) and ten times it.
    let mut group = c.benchmark_group("dcf_query");
    let mut rng = simnet::rng_from_seed(13);
    let mut net = CanNet::build(CanConfig::default(), 10_000, &mut rng).unwrap();
    for h in 0..10_000u64 {
        net.publish(rng.gen_range(0.0..=1000.0), h);
    }
    let (faults, unit) = (simnet::FaultPlan::new(), simnet::NetModel::unit());
    for (label, width) in [("uniform_1e4", 20.0), ("wide_1e4", 200.0)] {
        let mut scratch = simnet::QueryScratch::new();
        let mut seed = 0u64;
        group.bench_function(label, |b| {
            b.iter(|| {
                seed += 1;
                let lo = rng.gen_range(0.0..=1000.0 - width);
                let origin = net.random_zone(&mut rng);
                dcf::range_query_priced_scratch(
                    &net,
                    origin,
                    lo,
                    lo + width,
                    seed,
                    FloodMode::Directed,
                    &faults,
                    &unit,
                    &mut scratch,
                )
                .unwrap()
            });
        });
    }
    group.finish();
}

fn bench_pht(c: &mut Criterion) {
    // The walk one trie get pays: a greedy finger route to a random key at
    // 10⁴ peers (≈ 6.6 hops), each edge priced under `wan`, no path kept.
    let mut rng = simnet::rng_from_seed(18);
    let ring = chord::ChordNet::build(10_000, &mut rng);
    let wan = simnet::NetModel::named("wan").expect("a catalog model");
    c.bench_function("chord_route_fold/10000", |b| {
        b.iter(|| {
            let from = ring.random_node(&mut rng);
            ring.route_fold(from, rng.gen(), (0u64, 0u64), |(hops, ms), src, dst| {
                (hops + 1, ms + wan.edge_cost(src, dst))
            })
        });
    });

    // The whole layered query at `pht-chord-uniform`'s shape: 10⁴ peers and
    // records, width-20 ranges, some 170 trie gets each.
    let mut pht = pht::Pht::new(ring, 0.0, 1000.0);
    for h in 0..10_000 {
        pht.insert(rng.gen_range(0.0..=1000.0), h);
    }
    c.bench_function("pht_query/10000", |b| {
        b.iter(|| {
            let lo = rng.gen_range(0.0..=980.0);
            let from = pht.dht().random_node(&mut rng);
            pht.range_query(from, lo, lo + 20.0)
        });
    });
}

criterion_group!(
    benches,
    bench_naming,
    bench_routing,
    bench_build,
    bench_replication,
    bench_pira,
    bench_dcf,
    bench_pht
);
criterion_main!(benches);
