//! Table builders for Figures 5–8.

use crate::output::Table;
use crate::sweeps::{network_sweep, range_sweep, FigureSweep, PointMetrics};
use crate::{paper, Scale};

fn f(x: f64) -> String {
    Table::fmt_f64(x)
}

/// Figure 5: query delay at different range sizes (`N = 2000`).
pub mod fig5 {
    use super::*;

    /// Runs the Figure 5 experiment.
    pub fn run(scale: Scale) -> Table {
        let cfg = FigureSweep { queries: scale.queries(), ..FigureSweep::default() };
        let n = match scale {
            Scale::Full => paper::FIG56_N,
            Scale::Quick => 500,
        };
        let points = range_sweep(&cfg, n, &paper::RANGE_SIZES);
        render(n, &points)
    }

    pub(crate) fn render(n: usize, points: &[PointMetrics]) -> Table {
        let mut t = Table::new(
            format!("Figure 5 — query delay vs range size (N = {n})"),
            &["range_size", "pira_delay", "pira_max_delay", "dcf_can_delay", "logN", "2logN"],
        );
        let log_n = (n as f64).log2();
        for p in points {
            let pira = p.report("pira");
            let dcf = p.report("dcf-can");
            t.push_row(vec![
                f(p.range_size),
                f(pira.delay.mean),
                f(pira.delay.max),
                f(dcf.delay.mean),
                f(log_n),
                f(2.0 * log_n),
            ]);
        }
        t
    }
}

/// Figure 6: message cost at different range sizes (`N = 2000`) —
/// both panels: (a) message counts, (b) MesgRatio / IncreRatio.
pub mod fig6 {
    use super::*;

    /// Runs the Figure 6 experiment (both panels in one table).
    pub fn run(scale: Scale) -> Table {
        let cfg = FigureSweep { queries: scale.queries(), ..FigureSweep::default() };
        let n = match scale {
            Scale::Full => paper::FIG56_N,
            Scale::Quick => 500,
        };
        let points = range_sweep(&cfg, n, &paper::RANGE_SIZES);
        render(n, &points)
    }

    pub(crate) fn render(n: usize, points: &[PointMetrics]) -> Table {
        let mut t = Table::new(
            format!("Figure 6 — messages vs range size (N = {n})"),
            &[
                "range_size",
                "pira_messages",
                "dcf_can_messages",
                "destpeers",
                "mesg_ratio",
                "incre_ratio",
            ],
        );
        for p in points {
            let pira = p.report("pira");
            let dcf = p.report("dcf-can");
            t.push_row(vec![
                f(p.range_size),
                f(pira.messages.mean),
                f(dcf.messages.mean),
                f(pira.dest_peers.mean),
                f(pira.mesg_ratio.mean),
                f(pira.incre_ratio.mean),
            ]);
        }
        t
    }
}

/// Figure 7: query delay at different network sizes (range = 20).
pub mod fig7 {
    use super::*;

    /// Runs the Figure 7 experiment.
    pub fn run(scale: Scale) -> Table {
        let cfg = FigureSweep { queries: scale.queries(), ..FigureSweep::default() };
        let ns: Vec<usize> = match scale {
            Scale::Full => paper::NETWORK_SIZES.to_vec(),
            Scale::Quick => vec![250, 500, 1000],
        };
        let points = network_sweep(&cfg, &ns, paper::FIG78_RANGE);
        render(&points)
    }

    pub(crate) fn render(points: &[PointMetrics]) -> Table {
        let mut t = Table::new(
            format!("Figure 7 — query delay vs network size (range = {})", paper::FIG78_RANGE),
            &["network_size", "pira_delay", "pira_max_delay", "dcf_can_delay", "logN", "2logN"],
        );
        for p in points {
            let log_n = (p.n_peers as f64).log2();
            let pira = p.report("pira");
            let dcf = p.report("dcf-can");
            t.push_row(vec![
                p.n_peers.to_string(),
                f(pira.delay.mean),
                f(pira.delay.max),
                f(dcf.delay.mean),
                f(log_n),
                f(2.0 * log_n),
            ]);
        }
        t
    }
}

/// Figure 8: message cost at different network sizes (range = 20) — both
/// panels.
pub mod fig8 {
    use super::*;

    /// Runs the Figure 8 experiment (both panels in one table).
    pub fn run(scale: Scale) -> Table {
        let cfg = FigureSweep { queries: scale.queries(), ..FigureSweep::default() };
        let ns: Vec<usize> = match scale {
            Scale::Full => paper::NETWORK_SIZES.to_vec(),
            Scale::Quick => vec![250, 500, 1000],
        };
        let points = network_sweep(&cfg, &ns, paper::FIG78_RANGE);
        render(&points)
    }

    pub(crate) fn render(points: &[PointMetrics]) -> Table {
        let mut t = Table::new(
            format!("Figure 8 — messages vs network size (range = {})", paper::FIG78_RANGE),
            &[
                "network_size",
                "pira_messages",
                "dcf_can_messages",
                "destpeers",
                "mesg_ratio",
                "incre_ratio",
            ],
        );
        for p in points {
            let pira = p.report("pira");
            let dcf = p.report("dcf-can");
            t.push_row(vec![
                p.n_peers.to_string(),
                f(pira.messages.mean),
                f(dcf.messages.mean),
                f(pira.dest_peers.mean),
                f(pira.mesg_ratio.mean),
                f(pira.incre_ratio.mean),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_figures_have_expected_columns_and_rows() {
        let t5 = fig5::run(Scale::Quick);
        assert_eq!(t5.columns.len(), 6);
        assert_eq!(t5.rows.len(), paper::RANGE_SIZES.len());
        let t7 = fig7::run(Scale::Quick);
        assert_eq!(t7.rows.len(), 3);
        // PIRA delay column stays under logN for every row of fig5.
        for row in &t5.rows {
            let pira: f64 = row[1].parse().unwrap();
            let log_n: f64 = row[4].parse().unwrap();
            assert!(pira < log_n, "row {row:?}");
        }
    }
}
