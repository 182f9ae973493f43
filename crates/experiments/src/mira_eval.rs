//! §5 MIRA evaluation: the paper analyses (but does not plot) MIRA's bounds —
//! average delay `< log₂N` and maximum `< 2·log₂N` regardless of the query
//! volume or attribute count. This experiment measures them.

use crate::output::Table;
use crate::{paper, Scale};
use armada::{descent, MultiArmada};
use fissione::FissioneConfig;
use rand::Rng;

/// Runs the MIRA bound measurements over attribute counts and query sides.
pub fn run(scale: Scale) -> Table {
    let n = match scale {
        Scale::Full => paper::FIG56_N,
        Scale::Quick => 300,
    };
    let queries = scale.queries() / 2;
    let log_n = (n as f64).log2();
    let mut t = Table::new(
        format!("§5 — MIRA delay bounds (N = {n})"),
        &[
            "attributes",
            "side (% of domain)",
            "avg delay",
            "max delay",
            "logN",
            "2logN",
            "avg destpeers",
            "exact rate",
        ],
    );
    for &m in &[2usize, 3] {
        let domains: Vec<(f64, f64)> = (0..m).map(|_| (0.0, 100.0)).collect();
        let cfg =
            FissioneConfig { object_id_len: paper::OBJECT_ID_LEN, ..FissioneConfig::default() };
        let mut rng = simnet::rng_from_seed(0x314a ^ m as u64);
        let armada = MultiArmada::build_with(cfg, n, &domains, &mut rng).expect("build");
        let mut scratch = simnet::QueryScratch::new();
        for &side_pct in &[1.0f64, 10.0, 40.0] {
            let side = side_pct; // domain is [0,100] ⇒ percent = units
            let mut sum = 0f64;
            let mut max = 0f64;
            let mut dest = 0f64;
            let mut exact = 0usize;
            for q in 0..queries {
                let query: Vec<(f64, f64)> = (0..m)
                    .map(|_| {
                        let lo = rng.gen_range(0.0..(100.0 - side));
                        (lo, lo + side)
                    })
                    .collect();
                let origin = armada.net().random_peer(&mut rng);
                let (out, _) =
                    descent::query(&armada, origin, &query, q as u64, None, false, &mut scratch)
                        .expect("query");
                sum += f64::from(out.metrics.delay);
                max = max.max(f64::from(out.metrics.delay));
                dest += out.metrics.dest_peers as f64;
                if out.metrics.exact {
                    exact += 1;
                }
            }
            t.push_row(vec![
                m.to_string(),
                format!("{side_pct:.0}%"),
                format!("{:.2}", sum / queries as f64),
                format!("{max:.0}"),
                format!("{log_n:.2}"),
                format!("{:.2}", 2.0 * log_n),
                format!("{:.1}", dest / queries as f64),
                format!("{:.3}", exact as f64 / queries as f64),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mira_bounds_hold_quick() {
        let t = run(Scale::Quick);
        assert_eq!(t.rows.len(), 6); // 2 attribute counts × 3 sides
        for row in &t.rows {
            let avg: f64 = row[2].parse().unwrap();
            let max: f64 = row[3].parse().unwrap();
            let log_n: f64 = row[4].parse().unwrap();
            let exact: f64 = row[7].parse().unwrap();
            assert!(avg < log_n, "avg bound, row {row:?}");
            assert!(max < 2.0 * log_n, "max bound, row {row:?}");
            assert_eq!(exact, 1.0, "exactness, row {row:?}");
        }
    }
}
