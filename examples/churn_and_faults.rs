//! Churn and fault tolerance through the unified API: peers join, leave and
//! crash between query epochs while the system keeps answering range
//! queries; stabilization repairs what crashes lost; lossy links cost
//! recall — gracefully for PIRA and DCF-CAN, steeply for PHT, whose every
//! trie-node get is a multi-hop route that loses its subtree with any hop.
//!
//! Everything here goes through the public surface — the registry, the
//! `DynamicScheme` capability hook, `ChurnPlan`, and the epoch-mode
//! `ParallelDriver` — so any dynamic scheme can ride along.
//!
//! Run with: `cargo run --release --example churn_and_faults`
//! Other schemes: `cargo run --release --example churn_and_faults -- pira pht-chord`
//! Explain the first query hop by hop: add `--trace`

use armada_suite::dht_api::{
    BuildParams, ChurnPlan, ParallelDriver, QueryCtx, RangeRequest, SchemeError, WorkloadGen,
};
use armada_suite::experiments::standard_registry;
use rand::Rng;
use simnet::FaultPlan;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let registry = standard_registry();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace = args.iter().any(|a| a == "--trace");
    let mut names: Vec<String> = args.into_iter().filter(|a| !a.starts_with("--")).collect();
    if names.is_empty() {
        names = vec!["pira".into(), "dcf-can".into()];
    }
    println!("available schemes : {:?}", registry.single_names());

    for name in &names {
        println!("\n=== {name} ===");
        let mut rng = simnet::rng_from_seed(13);
        let params = BuildParams::new(300, 0.0, 1000.0);
        let mut scheme = registry.build_single(name, &params, &mut rng)?;
        let mut data = Vec::new();
        for h in 0..1000u64 {
            let v: f64 = rng.gen_range(0.0..=1000.0);
            scheme.publish(v, h)?;
            data.push((v, h));
        }

        if scheme.as_dynamic().is_none() {
            println!("  {name} does not support dynamics — skipping the churn phase");
            continue;
        }

        // Epoch-driven churn: the crash-heavy plan with deferred repair, so
        // the per-epoch series shows answers dipping and recovering.
        println!("querying across 6 epochs under the `massacre` churn plan (rate 20):");
        let plan = ChurnPlan::named("massacre")?.with_rate(20);
        let driver = ParallelDriver::new(150).with_seed(13);
        let workload = WorkloadGen::named("uniform", (0.0, 1000.0))?;

        // With `--trace`, explain the workload's first query — the exact
        // (origin, range, seed) the driver is about to run as query 0 —
        // before churn starts mutating the membership.
        if trace {
            let (out, qtrace) = driver.trace_one(scheme.as_ref(), &workload, 0)?;
            println!(
                "  explain tree for query 0 ({} results, delay {} hops):",
                out.results.len(),
                out.delay
            );
            for line in qtrace.explain_text().lines() {
                println!("    {line}");
            }
        }

        let report = driver.run_epochs(scheme.as_mut(), &workload, &plan, 6)?;
        for e in &report.epochs {
            println!(
                "  epoch {}: {:>3} peers | {:>2} churn events{} | avg delay {:>5.2} | \
                 results {:>4}",
                e.epoch,
                e.peers,
                e.churn.events(),
                if e.churn.stabilized { ", stabilized  " } else { "              " },
                e.delay_mean,
                e.results_returned,
            );
        }

        // An explicit stabilize restores the exactness contract.
        let dynamic = scheme.as_dynamic().expect("checked above");
        let repairs = dynamic.stabilize();
        println!("  final stabilize: {repairs} repair ops");
        let origin = scheme.random_origin(&mut rng);
        let out = scheme.range_query(origin, 250.0, 400.0, 1)?;
        let mut expect: Vec<u64> =
            data.iter().filter(|&&(v, _)| (250.0..=400.0).contains(&v)).map(|&(_, h)| h).collect();
        expect.sort_unstable();
        assert_eq!(out.results, expect, "post-stabilize queries are exact again");
        println!(
            "  post-stabilize query [250, 400]: {} results, exact = {}, delay = {} hops",
            out.results.len(),
            out.exact,
            out.delay
        );

        // Lossy network: what each loss rate costs in recall.
        println!("  recall under message loss (100 queries each):");
        let mut scratch = simnet::QueryScratch::new();
        for p in [0.0, 0.05, 0.10, 0.20] {
            let faults = FaultPlan::with_drop_prob(p);
            let mut recall_sum = 0.0;
            let mut supported = true;
            for q in 0..100 {
                let lo: f64 = rng.gen_range(0.0..900.0);
                let origin = scheme.random_origin(&mut rng);
                let req = RangeRequest::new(origin, lo, lo + 100.0, q)?;
                match scheme.query(&req, &mut QueryCtx::new(&mut scratch).with_faults(&faults)) {
                    Ok(out) => recall_sum += out.peer_recall(),
                    Err(SchemeError::Unsupported { .. }) => {
                        supported = false;
                        break;
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            if supported {
                println!(
                    "    drop {:>3.0}% → avg peer recall {:.3}",
                    p * 100.0,
                    recall_sum / 100.0
                );
            } else {
                println!("    {name} does not model per-query fault injection");
                break;
            }
        }
    }
    Ok(())
}
