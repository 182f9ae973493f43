//! Quickstart: build a range-query scheme by name through the unified API,
//! publish scored documents, and run a delay-bounded PIRA range query.
//!
//! Run with: `cargo run --release --example quickstart`
//! Try another scheme: `cargo run --release --example quickstart -- skipgraph`
//! See where every hop went: `cargo run --release --example quickstart -- pira --trace`

use armada_suite::dht_api::{
    BuildParams, ParallelDriver, QueryCtx, QueryTrace, RangeRequest, WorkloadGen,
};
use armada_suite::experiments::standard_registry;
use rand::Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let registry = standard_registry();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace = args.iter().any(|a| a == "--trace");
    let name =
        args.iter().find(|a| !a.starts_with("--")).cloned().unwrap_or_else(|| "pira".to_string());
    let mut rng = simnet::rng_from_seed(2006);

    // A 500-peer P2P network over the attribute space [0, 1000] — the
    // paper's simulation setup (§4.3.3).
    println!("available schemes : {:?}", registry.single_names());
    println!("building a 500-peer {name} system…");
    let params = BuildParams::new(500, 0.0, 1000.0);
    let mut scheme = registry.build_single(&name, &params, &mut rng)?;
    println!(
        "  substrate: {}, degree: {}, peers: {}",
        scheme.substrate(),
        scheme.degree(),
        scheme.node_count()
    );

    // Publish 2000 documents with random scores.
    for handle in 0..2000u64 {
        let score: f64 = rng.gen_range(0.0..=1000.0);
        scheme.publish(score, handle)?;
    }
    println!("  published 2000 records");

    // The paper's motivating query: "70 ≤ score ≤ 80" (the plain spelling is
    // `scheme.range_query(origin, 70.0, 80.0, 1)`). With `--trace` the same
    // call also fills in its causal cost tree — the outcome is identical
    // either way, tracing observes without perturbing.
    let origin = scheme.random_origin(&mut rng);
    let mut explain = QueryTrace::default();
    let mut scratch = simnet::QueryScratch::new();
    let mut cx = QueryCtx::new(&mut scratch);
    if trace {
        cx = cx.with_trace(&mut explain);
    }
    let outcome = scheme.query(&RangeRequest::new(origin, 70.0, 80.0, 1)?, &mut cx)?;
    if trace {
        println!("\nper-hop explain tree for the query:");
        print!("{}", explain.explain_text());
    }

    let log_n = (scheme.node_count() as f64).log2();
    println!("\n{name} range query [70, 80] from peer {origin}:");
    println!("  matching records : {}", outcome.results.len());
    println!("  destination peers: {}", outcome.dest_peers);
    println!("  exact            : {}", outcome.exact);
    println!(
        "  delay            : {} hops (logN = {log_n:.1}, 2·logN = {:.1})",
        outcome.delay,
        2.0 * log_n
    );
    println!("  messages         : {} (MesgRatio = {:.2})", outcome.messages, outcome.mesg_ratio());

    // A batched workload through the driver: 200 uniform ranges of width
    // 10, fanned across threads — the report is the same for any count.
    let workload = WorkloadGen::uniform((0.0, 1000.0), 10.0);
    let report = ParallelDriver::new(200).with_seed(2006).run(scheme.as_ref(), &workload)?;
    println!("\n200-query batched workload (range size 10):");
    println!("  avg delay  : {:.2} hops (max {:.0})", report.delay.mean, report.delay.max);
    println!("  avg msgs   : {:.1}", report.messages.mean);
    println!("  exact rate : {:.2}", report.exact_rate);
    Ok(())
}
