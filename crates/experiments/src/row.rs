//! One [`Row`] for every baseline cell, and the one JSON writer that
//! renders it from a per-section column list.
//!
//! A row of `BENCH_baseline.json` is `scheme`, the section's key columns,
//! then the section's simulated columns — each a pure function of the
//! cell's [`DriverReport`], looked up by name in `SIMULATED`. No column
//! depends on the machine that ran the cell, so a configuration writes the
//! same bytes on every run.

use crate::output::Column;
use dht_api::{DriverReport, EpochSummary};

/// The six grids of the artifact, in the order the JSON lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Every scheme × every workload (`shape` tells single from rect).
    Grid,
    /// Every single scheme × every net model, uniform workload: `delay` in
    /// hops is identical across the model axis, `latency` is virtual ms.
    Latency,
    /// Every dynamic scheme × every churn plan, epoch-driven.
    Churn,
    /// The churn grid again behind the replication layer, per factor.
    Replication,
    /// Every dynamic scheme × every hostile spec, frozen membership (the
    /// partition specs' recall timeline lives in the per-epoch series).
    Hostile,
    /// The scaling schemes × network size: the scaling curves.
    Scaling,
}

impl Section {
    /// Every section, in artifact order.
    pub const ALL: [Section; 6] = [
        Section::Grid,
        Section::Latency,
        Section::Churn,
        Section::Replication,
        Section::Hostile,
        Section::Scaling,
    ];

    /// The section's JSON array key (and its label in the printed table).
    pub fn name(self) -> &'static str {
        match self {
            Section::Grid => "results",
            Section::Latency => "latency",
            Section::Churn => "churn",
            Section::Replication => "replication",
            Section::Hostile => "hostile",
            Section::Scaling => "scaling",
        }
    }

    /// The `SIMULATED` columns the section's JSON rows carry after their
    /// key columns, in order.
    fn columns(self) -> impl Iterator<Item = &'static str> {
        const EPOCH_DRIVEN: &str = "delay_mean delay_p95 delay_p99 latency_mean messages_mean \
            mesg_ratio_mean recall_mean exact_rate results_returned";
        let (head, tail) = match self {
            Section::Grid => (
                "delay_mean delay_p50 delay_p95 delay_p99 delay_max latency_mean messages_mean \
                 messages_p99 dest_peers_mean mesg_ratio_mean incre_ratio_mean",
                "exact_rate results_returned",
            ),
            Section::Latency => (
                "delay_mean delay_p50 delay_p95 delay_p99 latency_mean latency_p50 latency_p95 \
                 latency_p99 latency_max messages_mean",
                "exact_rate results_returned",
            ),
            Section::Churn => (EPOCH_DRIVEN, "final_peers epochs"),
            Section::Replication => {
                (EPOCH_DRIVEN, "repair_placed repair_messages final_peers epochs")
            }
            Section::Hostile => (EPOCH_DRIVEN, "epochs"),
            Section::Scaling => (
                "delay_mean delay_p99 messages_mean mesg_ratio_mean",
                "exact_rate results_returned",
            ),
        };
        head.split_whitespace().chain(tail.split_whitespace())
    }
}

/// Every simulated JSON column: its key and how a report renders under it.
const SIMULATED: [Column<DriverReport>; 22] = [
    ("delay_mean", |r| json_f64(r.delay.mean)),
    ("delay_p50", |r| json_f64(r.delay.p50)),
    ("delay_p95", |r| json_f64(r.delay.p95)),
    ("delay_p99", |r| json_f64(r.delay.p99)),
    ("delay_max", |r| json_f64(r.delay.max)),
    ("latency_mean", |r| json_f64(r.latency.mean)),
    ("latency_p50", |r| json_f64(r.latency.p50)),
    ("latency_p95", |r| json_f64(r.latency.p95)),
    ("latency_p99", |r| json_f64(r.latency.p99)),
    ("latency_max", |r| json_f64(r.latency.max)),
    ("messages_mean", |r| json_f64(r.messages.mean)),
    ("messages_p99", |r| json_f64(r.messages.p99)),
    ("dest_peers_mean", |r| json_f64(r.dest_peers.mean)),
    ("mesg_ratio_mean", |r| json_f64(r.mesg_ratio.mean)),
    ("incre_ratio_mean", |r| json_f64(r.incre_ratio.mean)),
    ("recall_mean", |r| json_f64(r.recall.mean)),
    ("exact_rate", |r| json_f64(r.exact_rate)),
    ("results_returned", |r| r.results_returned.to_string()),
    ("repair_placed", |r| r.epochs.iter().map(|e| e.repair.placed).sum::<usize>().to_string()),
    ("repair_messages", |r| r.epochs.iter().map(|e| e.repair.messages).sum::<u64>().to_string()),
    ("final_peers", |r| r.epochs.last().map_or(0, |e| e.peers).to_string()),
    ("epochs", |r| format!("[{}]", r.epochs.iter().map(epoch_json).collect::<Vec<_>>().join(", "))),
];

/// One measured cell of the baseline, whatever its section.
#[derive(Debug, Clone)]
pub struct Row {
    /// The grid the cell belongs to.
    pub section: Section,
    /// The registry stack string the cell was built from
    /// (`pira+r3`, `seqwalk@wan`, `dcf-can@lossy-p/r3`).
    pub stack: String,
    /// Registry name of the base scheme (no suffixes).
    pub scheme: String,
    /// The section's key columns as `(key, JSON value)`, in JSON order:
    /// `shape` and `workload`; `net`; `plan`; `plan`, `factor` and
    /// `policy`; `spec`; `n`. Names are quoted JSON strings, counts bare.
    pub keys: Vec<(&'static str, String)>,
    /// The full deterministic metric report of the cell (carries the
    /// per-epoch series for the epoch-driven sections).
    pub report: DriverReport,
}

impl Row {
    /// The key column `name`, unquoted (empty if the section has none such).
    pub fn key(&self, name: &str) -> &str {
        let found = self.keys.iter().find(|(k, _)| *k == name);
        found.map_or("", |(_, v)| v.trim_matches('"'))
    }

    /// The row as one JSON object.
    pub(crate) fn to_json(&self) -> String {
        let simulated = self.section.columns().map(|name| {
            let column = SIMULATED.iter().find(|(key, _)| *key == name);
            let (key, render) = column.unwrap_or_else(|| panic!("no simulated column {name:?}"));
            (*key, render(&self.report))
        });
        let cells = std::iter::once(("scheme", format!("\"{}\"", self.scheme)))
            .chain(self.keys.iter().cloned())
            .chain(simulated);
        let cells: Vec<String> = cells.map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{ {} }}", cells.join(", "))
    }

    /// The section label and the axis the section sweeps, as the printed
    /// table shows them: shape and workload for the grid, else the section
    /// name and the plan, the size, or the one workload the section runs.
    pub(crate) fn label_and_axis(&self) -> (String, String) {
        let section = self.section.name().to_string();
        match self.section {
            Section::Grid => (self.key("shape").to_string(), self.key("workload").to_string()),
            Section::Latency | Section::Hostile => (section, "uniform".to_string()),
            Section::Churn | Section::Replication => (section, self.key("plan").to_string()),
            Section::Scaling => (section, format!("n={}", self.key("n"))),
        }
    }
}

/// Renders one epoch of an epoch-driven report (shared by the churn and
/// replication sections; unreplicated rows report all-zero repair).
fn epoch_json(e: &EpochSummary) -> String {
    format!(
        "{{ \"epoch\": {}, \"peers\": {}, \"events\": {}, \"delay_mean\": {}, \
         \"latency_mean\": {}, \"exact_rate\": {}, \"recall_mean\": {}, \"results\": {}, \
         \"repair_placed\": {}, \"repair_messages\": {} }}",
        e.epoch,
        e.peers,
        e.churn.events(),
        json_f64(e.delay_mean),
        json_f64(e.latency_mean),
        json_f64(e.exact_rate),
        json_f64(e.recall_mean),
        e.results_returned,
        e.repair.placed,
        e.repair.messages,
    )
}

/// JSON-safe float rendering (JSON has no NaN/∞; neither should a
/// baseline, but a corrupt artifact must never be written).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "null".to_string()
    }
}
