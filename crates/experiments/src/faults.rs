//! R1 — robustness: recall under message loss and crashed peers, driven
//! through the unified query API.
//!
//! The paper evaluates fault-free networks; this extension quantifies how
//! a scheme degrades when the overlay misbehaves (a dropped message prunes
//! a whole subtree of PIRA's descent, or the rest of a sequential walk; a
//! crashed zone swallows a flood branch; a lost PHT get or response loses
//! its trie node's subtree). Every scheme that churns
//! ([`dynamic_single_names`]) simulates the plan its [`QueryCtx`] carries
//! on its real messages — PIRA, the sequential walk, both DCF-CAN variants
//! and PHT on either substrate — and everything is built by registry name,
//! never through a native constructor. The static baselines refuse a plan
//! and are not measured.

use crate::output::Table;
use crate::{dynamic_single_names, paper, standard_registry, Scale};
use dht_api::{BuildParams, QueryCtx, RangeRequest, RangeScheme};
use rand::Rng;
use simnet::FaultPlan;

/// Runs the fault-tolerance study.
pub fn run(scale: Scale) -> Table {
    let n = match scale {
        Scale::Full => paper::FIG56_N,
        Scale::Quick => 400,
    };
    let queries = scale.queries() / 2;
    let range = 50.0;
    let registry = standard_registry();
    let params = BuildParams::new(n, paper::DOMAIN_LO, paper::DOMAIN_HI)
        .with_object_id_len(paper::OBJECT_ID_LEN);

    let mut t = Table::new(
        format!("R1 — recall under faults (N = {n}, range = {range})"),
        &["scheme", "fault", "level", "avg peer recall", "min recall", "avg delay", "exact rate"],
    );

    for scheme_name in dynamic_single_names() {
        let mut rng = simnet::rng_from_seed(0xfa17 ^ dht_api::fnv1a(scheme_name.as_bytes()));
        let scheme = registry.build_single(&scheme_name, &params, &mut rng).expect("build");

        // Message loss.
        for &p in &[0.0f64, 0.02, 0.05, 0.10, 0.20] {
            let faults = FaultPlan::with_drop_prob(p);
            let (recall, min_recall, delay, exact) =
                measure(scheme.as_ref(), &faults, queries, range, &mut rng);
            t.push_row(vec![
                scheme_name.clone(),
                "message loss".into(),
                format!("{:.0}%", p * 100.0),
                format!("{recall:.3}"),
                format!("{min_recall:.3}"),
                format!("{delay:.2}"),
                format!("{exact:.3}"),
            ]);
        }

        // Crashed peers (never the query origin).
        for &frac in &[0.01f64, 0.05, 0.10] {
            let mut faults = FaultPlan::new();
            let crash_count = ((n as f64) * frac) as usize;
            while faults.crashed_count() < crash_count {
                faults.crash(scheme.random_origin(&mut rng));
            }
            let (recall, min_recall, delay, exact) =
                measure(scheme.as_ref(), &faults, queries, range, &mut rng);
            t.push_row(vec![
                scheme_name.clone(),
                "crashed peers".into(),
                format!("{:.0}%", frac * 100.0),
                format!("{recall:.3}"),
                format!("{min_recall:.3}"),
                format!("{delay:.2}"),
                format!("{exact:.3}"),
            ]);
        }
    }
    t
}

fn measure(
    scheme: &dyn RangeScheme,
    faults: &FaultPlan,
    queries: usize,
    range: f64,
    rng: &mut rand::rngs::SmallRng,
) -> (f64, f64, f64, f64) {
    let mut recalls = Vec::with_capacity(queries);
    let mut delay = 0f64;
    let mut exact = 0usize;
    let mut ran = 0usize;
    let mut scratch = simnet::QueryScratch::new();
    for q in 0..queries {
        let lo = rng.gen_range(paper::DOMAIN_LO..(paper::DOMAIN_HI - range));
        let origin = scheme.random_origin(rng);
        if faults.is_crashed(origin) {
            continue; // a crashed client issues nothing
        }
        ran += 1;
        let req = RangeRequest::new(origin, lo, lo + range, q as u64).expect("well-formed range");
        let out = scheme
            .query(&req, &mut QueryCtx::new(&mut scratch).with_faults(faults))
            .expect("query runs");
        recalls.push(out.peer_recall());
        delay += out.delay as f64;
        if out.exact {
            exact += 1;
        }
    }
    let avg = recalls.iter().sum::<f64>() / recalls.len().max(1) as f64;
    let min = recalls.iter().copied().fold(f64::INFINITY, f64::min);
    (avg, min, delay / ran.max(1) as f64, exact as f64 / ran.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_rows_are_perfect_and_loss_degrades() {
        let discovered = dynamic_single_names();
        assert_eq!(
            discovered,
            vec!["dcf-can", "dcf-can-naive", "pht-chord", "pht-fissione", "pira", "seqwalk"],
            "runtime discovery should find exactly the churning schemes"
        );
        let t = run(Scale::Quick);
        // 8 rows per scheme: 5 loss levels + 3 crash fractions.
        assert_eq!(t.rows.len(), discovered.len() * 8);
        for (s, chunk) in discovered.iter().zip(t.rows.chunks(8)) {
            assert_eq!(&chunk[0][0], s);
            // Row 0 is 0% loss: recall 1, exact 1.
            assert_eq!(chunk[0][3], "1.000", "{s} fault-free recall");
            assert_eq!(chunk[0][6], "1.000", "{s} fault-free exactness");
            // 20% loss (row 4) must hurt recall, monotonically vs 2%.
            let heavy: f64 = chunk[4][3].parse().unwrap();
            let light: f64 = chunk[1][3].parse().unwrap();
            assert!(heavy < 1.0, "{s} heavy loss should hurt");
            assert!(heavy <= light, "{s} more loss should not help");
        }
    }
}
