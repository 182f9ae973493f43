//! Ablations: design choices the paper fixes, quantified.
//!
//! * [`flood`] — DCF's duplicate suppression vs a naive flood (A1).
//! * [`balance`] — FISSIONE's locally-minimal split vs random splits (A2).
//! * [`pht_substrate`] — PHT over a constant-degree vs `O(log N)`-degree
//!   DHT, against PIRA (A3).

use crate::output::Table;
use crate::{paper, Scale};
use rand::Rng;

/// A1 — DCF duplicate suppression vs naive flooding, selected by registry
/// name (`dcf-can` vs `dcf-can-naive`) and driven through the unified
/// interface.
pub mod flood {
    use super::*;
    use dht_api::BuildParams;

    /// Runs the flooding ablation at fixed `N` over swept range sizes.
    pub fn run(scale: Scale) -> Table {
        let n = match scale {
            Scale::Full => paper::FIG56_N,
            Scale::Quick => 400,
        };
        let queries = scale.queries() / 2;
        let registry = crate::standard_registry();
        let params = BuildParams::new(n, paper::DOMAIN_LO, paper::DOMAIN_HI);
        // Identical seed streams give both variants the same CAN tiling, so
        // the comparison is paired query-for-query.
        let mut rng = simnet::rng_from_seed(0xab1a);
        let directed = registry.build_single("dcf-can", &params, &mut rng).expect("build");
        let mut rng2 = simnet::rng_from_seed(0xab1a);
        let naive = registry.build_single("dcf-can-naive", &params, &mut rng2).expect("build");
        let mut t = Table::new(
            format!("A1 — DCF duplicate suppression vs naive flooding (N = {n})"),
            &[
                "range_size",
                "directed_msgs",
                "naive_msgs",
                "overhead",
                "directed_delay",
                "naive_delay",
            ],
        );
        for &size in &[10.0f64, 100.0, 300.0] {
            let mut dm = 0f64;
            let mut nm = 0f64;
            let mut dd = 0f64;
            let mut nd = 0f64;
            for q in 0..queries {
                let lo = rng.gen_range(paper::DOMAIN_LO..(paper::DOMAIN_HI - size));
                let origin = directed.random_origin(&mut rng);
                let d = directed.range_query(origin, lo, lo + size, q as u64).expect("query");
                let nv = naive.range_query(origin, lo, lo + size, q as u64).expect("query");
                dm += d.messages as f64;
                nm += nv.messages as f64;
                dd += d.delay as f64;
                nd += nv.delay as f64;
            }
            let q = queries as f64;
            t.push_row(vec![
                Table::fmt_f64(size),
                Table::fmt_f64(dm / q),
                Table::fmt_f64(nm / q),
                format!("{:.2}x", nm / dm.max(1.0)),
                Table::fmt_f64(dd / q),
                Table::fmt_f64(nd / q),
            ]);
        }
        t
    }
}

/// A2 — split balancing: locally-minimal vs random-owner splits.
pub mod balance {
    use super::*;
    use armada::SingleArmada;
    use fissione::{BalanceRule, FissioneConfig};

    /// Runs the balance ablation.
    pub fn run(scale: Scale) -> Table {
        let n = match scale {
            Scale::Full => paper::FIG56_N,
            Scale::Quick => 400,
        };
        let queries = scale.queries() / 2;
        let log_n = (n as f64).log2();
        let mut t = Table::new(
            format!("A2 — join balancing rule (N = {n}, logN = {log_n:.1})"),
            &[
                "rule",
                "avg depth",
                "max depth",
                "nbhd violations",
                "pira_avg_delay",
                "pira_max_delay",
            ],
        );
        for (name, rule) in [
            ("LocalMin (paper)", BalanceRule::LocalMin { max_steps: 32 }),
            ("RandomOwner", BalanceRule::RandomOwner),
        ] {
            let cfg = FissioneConfig { object_id_len: paper::OBJECT_ID_LEN, balance: rule };
            let mut rng = simnet::rng_from_seed(0xba1a ^ name.len() as u64);
            let armada =
                SingleArmada::build_with(cfg, n, paper::DOMAIN_LO, paper::DOMAIN_HI, &mut rng)
                    .expect("build");
            let report = armada.net().check_invariants().expect("hard invariants hold");
            let depth = armada.net().depth_stats();
            let mut sum = 0f64;
            let mut max = 0f64;
            for q in 0..queries {
                let lo = rng.gen_range(paper::DOMAIN_LO..(paper::DOMAIN_HI - 20.0));
                let origin = armada.net().random_peer(&mut rng);
                let out = armada.pira_query(origin, lo, lo + 20.0, q as u64).expect("query");
                sum += f64::from(out.metrics.delay);
                max = max.max(f64::from(out.metrics.delay));
            }
            t.push_row(vec![
                name.into(),
                format!("{:.2}", depth.summary.mean),
                format!("{}", report.max_depth),
                report.neighborhood_violations.to_string(),
                format!("{:.2}", sum / queries as f64),
                format!("{max:.0}"),
            ]);
        }
        t
    }
}

/// A3 — PHT delay decomposition over constant-degree vs logarithmic-degree
/// substrates, against PIRA — three registry names, one cell each.
pub mod pht_substrate {
    use super::*;
    use crate::cell;
    use dht_api::{DriverReport, WorkloadGen};

    /// Runs the PHT substrate ablation over swept `N`.
    pub fn run(scale: Scale) -> Table {
        let ns: Vec<usize> = match scale {
            Scale::Full => vec![500, 1000, 2000, 4000],
            Scale::Quick => vec![200, 500],
        };
        let range = paper::FIG78_RANGE;
        let registry = crate::standard_registry();
        let workload = WorkloadGen::uniform(cell::DOMAIN, range);
        let mut t = Table::new(
            format!("A3 — PHT substrate vs PIRA (range = {range})"),
            &[
                "N",
                "pht_fissione_delay",
                "pht_chord_delay",
                "pira_delay",
                "pht_fissione_msgs",
                "pht_chord_msgs",
                "pira_msgs",
            ],
        );
        for n in ns {
            // One driver seed per N: the three schemes answer the same
            // ranges from the same origin stream.
            let driver =
                cell::driver(scale.queries() / 2, 0x9417 ^ n as u64, dht_api::default_threads());
            let measure = |name: &str| -> DriverReport {
                let seed = 0x9417 ^ n as u64 ^ dht_api::fnv1a(name.as_bytes());
                let scheme = cell::loaded(&registry, name, n, paper::OBJECT_ID_LEN, seed);
                driver.run(scheme.as_ref(), &workload).expect("query")
            };
            let (f, c, p) = (measure("pht-fissione"), measure("pht-chord"), measure("pira"));
            t.push_row(vec![
                n.to_string(),
                Table::fmt_f64(f.delay.mean),
                Table::fmt_f64(c.delay.mean),
                Table::fmt_f64(p.delay.mean),
                Table::fmt_f64(f.messages.mean),
                Table::fmt_f64(c.messages.mean),
                Table::fmt_f64(p.messages.mean),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flood_ablation_shows_directed_wins() {
        let t = flood::run(Scale::Quick);
        for row in &t.rows {
            let directed: f64 = row[1].parse().unwrap();
            let naive: f64 = row[2].parse().unwrap();
            assert!(naive > directed, "row {row:?}");
        }
    }

    #[test]
    fn balance_ablation_shows_local_min_is_flatter() {
        let t = balance::run(Scale::Quick);
        let local_max: f64 = t.rows[0][2].parse().unwrap();
        let random_max: f64 = t.rows[1][2].parse().unwrap();
        assert!(local_max <= random_max, "LocalMin must not be deeper");
        let local_viol: usize = t.rows[0][3].parse().unwrap();
        assert_eq!(local_viol, 0);
    }

    #[test]
    fn pht_ablation_shows_pira_fastest() {
        let t = pht_substrate::run(Scale::Quick);
        for row in &t.rows {
            let pht_f: f64 = row[1].parse().unwrap();
            let pht_c: f64 = row[2].parse().unwrap();
            let pira: f64 = row[3].parse().unwrap();
            assert!(pira < pht_f, "PIRA beats PHT/FissionE, row {row:?}");
            assert!(pira < pht_c, "PIRA beats PHT/Chord, row {row:?}");
        }
    }
}
