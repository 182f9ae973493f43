//! Per-hop cost explainers: turn a trace event stream into a causal tree
//! whose per-hop sums exactly reproduce a query's reported `delay` and
//! `latency`.
//!
//! A [`QueryTrace`] pairs the raw [`TraceRecord`] stream (for export as
//! JSONL / Chrome trace) with a [`CostNode`] tree (for human-readable
//! explain output). The tree carries the **accounting invariant** this
//! module exists for: [`CostNode::total`] on the root equals the outcome's
//! `(delay, latency, messages)` triple, bit for bit — every virtual
//! millisecond the driver reports is attributable to a specific hop,
//! backoff wait, or replica fetch in the tree.
//!
//! Two builders cover the two kinds of scheme in the workspace:
//!
//! * [`QueryTrace::from_sim_records`] reconstructs critical paths from a
//!   real [`Sim`](simnet::Sim) event stream (PIRA, DCF-CAN): walk back
//!   from the answer that defines each metric, matching each delivery to
//!   the hop event that scheduled it.
//! * [`QueryTrace::modeled`] decomposes an analytic scheme's reported
//!   totals into a synthesized [`HopKind::Modeled`] chain (PHT, Skip
//!   Graph, Squid, SCRAP) — the invariant holds by construction and the
//!   events are honestly labeled as modeled.

use crate::scheme::RangeOutcome;
use simnet::{HopKind, NodeId, TraceEvent, TraceRecord, TraceSink, Verdict};

/// One node of the causal cost tree. A node's own `hops`/`latency`/
/// `messages` are its *direct* contribution; [`total`](Self::total) adds
/// children recursively.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostNode {
    /// Human-readable label (e.g. `"hop 3: 17 → 42 (+12 ms)"`).
    pub label: String,
    /// Direct contribution to the outcome's `delay` (overlay hops).
    pub hops: u64,
    /// Direct contribution to the outcome's `latency` (virtual ms).
    pub latency: u64,
    /// Direct contribution to the outcome's `messages`.
    pub messages: u64,
    /// Sub-costs (attempt trees, critical-path hops, fetch phases).
    pub children: Vec<CostNode>,
}

impl CostNode {
    /// A pure grouping node: zero direct contribution.
    pub fn group(label: impl Into<String>) -> CostNode {
        CostNode { label: label.into(), hops: 0, latency: 0, messages: 0, children: Vec::new() }
    }

    /// A leaf with direct contributions.
    pub fn leaf(label: impl Into<String>, hops: u64, latency: u64, messages: u64) -> CostNode {
        CostNode { label: label.into(), hops, latency, messages, children: Vec::new() }
    }

    /// Recursive `(hops, latency, messages)` total — the tree's accounting
    /// invariant is `root.total() == (outcome.delay, outcome.latency,
    /// outcome.messages)`.
    pub fn total(&self) -> (u64, u64, u64) {
        let mut t = (self.hops, self.latency, self.messages);
        for c in &self.children {
            let (h, l, m) = c.total();
            t.0 += h;
            t.1 += l;
            t.2 += m;
        }
        t
    }

    fn render(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let mut costs = Vec::new();
        if self.hops > 0 {
            costs.push(format!("{} hop{}", self.hops, if self.hops == 1 { "" } else { "s" }));
        }
        if self.latency > 0 {
            costs.push(format!("{} ms", self.latency));
        }
        if self.messages > 0 {
            costs.push(format!("{} msg", self.messages));
        }
        let suffix =
            if costs.is_empty() { String::new() } else { format!("  [{}]", costs.join(", ")) };
        out.push_str(&format!("{pad}{}{suffix}\n", self.label));
        for c in &self.children {
            c.render(out, indent + 1);
        }
    }
}

/// A query's full observability record: the raw event stream plus the
/// causal cost tree derived from it. The default is the empty record a
/// caller hands to [`QueryCtx::with_trace`](crate::QueryCtx::with_trace)
/// for the scheme to fill.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryTrace {
    /// The structured event stream, in `(time, id)` order.
    pub events: Vec<TraceRecord>,
    /// The causal cost tree; `root.total()` reproduces the outcome.
    pub root: CostNode,
}

impl QueryTrace {
    /// Builds the trace of an analytic (non-simulated) scheme by
    /// decomposing its reported totals into a [`HopKind::Modeled`] chain
    /// from `origin`: `delay` hops carrying `latency` virtual ms, the
    /// remainder spread over the earliest hops so the sum is exact.
    pub fn modeled(label: &str, origin: NodeId, outcome: &RangeOutcome) -> QueryTrace {
        let mut sink = TraceSink::new();
        let mut chain = CostNode::group("critical path (modeled)");
        let d = outcome.delay;
        if let Some(per) = outcome.latency.checked_div(d) {
            let rem = outcome.latency - per * d;
            let mut cum = 0;
            for i in 0..d {
                let edge = per + u64::from(i < rem);
                cum += edge;
                sink.emit(
                    i + 1,
                    TraceEvent::Hop {
                        src: origin,
                        dst: origin,
                        hop: (i + 1) as u32,
                        edge_cost_ms: edge,
                        cost_ms: cum,
                        kind: HopKind::Modeled,
                    },
                );
                chain.children.push(CostNode::leaf(
                    format!("hop {} (+{edge} ms)", i + 1),
                    1,
                    edge,
                    0,
                ));
            }
        } else if outcome.latency > 0 {
            // d == 0 — a purely local answer: any latency is one local charge.
            sink.emit(
                0,
                TraceEvent::Hop {
                    src: origin,
                    dst: origin,
                    hop: 0,
                    edge_cost_ms: outcome.latency,
                    cost_ms: outcome.latency,
                    kind: HopKind::Modeled,
                },
            );
            chain.children.push(CostNode::leaf(
                format!("local (+{} ms)", outcome.latency),
                0,
                outcome.latency,
                0,
            ));
        }
        sink.emit(
            d + 1,
            TraceEvent::Answer { node: origin, hop: d as u32, cost_ms: outcome.latency },
        );
        let mut root = CostNode::leaf(label, 0, 0, outcome.messages);
        root.label = format!("{label}: {} msg total (modeled decomposition)", outcome.messages);
        root.children.push(chain);
        QueryTrace { events: sink.into_records(), root }
    }

    /// Reconstructs critical paths from a real simulator event stream.
    ///
    /// `delay` is defined by the answer with the deepest hop; `latency` by
    /// the last-first-arrival answer (max over answering nodes of their
    /// min chain cost — the same rule as [`simnet::Answers::latency`]).
    /// Each path is recovered by walking back from its defining answer,
    /// matching `(node, hop, cost)` against the `Hop` event that scheduled
    /// the delivery; candidate event ids must strictly decrease, which
    /// guarantees progress across local hand-offs that preserve both hop
    /// and cost. Any matching chain telescopes to the same sums, so the
    /// accounting invariant does not depend on which equal-cost chain the
    /// walk picks.
    pub fn from_sim_records(
        label: &str,
        records: Vec<TraceRecord>,
        outcome: &RangeOutcome,
    ) -> QueryTrace {
        let mut root = CostNode::leaf(
            format!("{label}: {} msg total", outcome.messages),
            0,
            0,
            outcome.messages,
        );

        // The two defining answers.
        let answers: Vec<&TraceRecord> =
            records.iter().filter(|r| matches!(r.event, TraceEvent::Answer { .. })).collect();
        let delay_answer = answers
            .iter()
            .filter(|r| match r.event {
                TraceEvent::Answer { hop, .. } => u64::from(hop) == outcome.delay,
                _ => false,
            })
            .min_by_key(|r| r.id)
            .copied();
        let latency_answer = {
            // Per-node minimum chain cost, then the node whose minimum is
            // the global maximum — last first arrival.
            let mut per_node: std::collections::BTreeMap<NodeId, (u64, u64)> =
                std::collections::BTreeMap::new();
            for r in &answers {
                if let TraceEvent::Answer { node, cost_ms, .. } = r.event {
                    let e = per_node.entry(node).or_insert((cost_ms, r.id));
                    if cost_ms < e.0 {
                        *e = (cost_ms, r.id);
                    }
                }
            }
            per_node
                .iter()
                .filter(|(_, (c, _))| *c == outcome.latency)
                .map(|(_, &(_, id))| id)
                .min()
                .and_then(|id| answers.iter().find(|r| r.id == id).copied())
        };

        let same = match (delay_answer, latency_answer) {
            (Some(a), Some(b)) => a.id == b.id,
            _ => false,
        };
        if same {
            let a = delay_answer.expect("checked above");
            if let Some(chain) = critical_path(&records, a, true, true) {
                root.children.push(chain);
            }
        } else {
            if let Some(a) = delay_answer {
                if let Some(chain) = critical_path(&records, a, true, false) {
                    root.children.push(chain);
                }
            }
            if let Some(a) = latency_answer {
                if let Some(chain) = critical_path(&records, a, false, true) {
                    root.children.push(chain);
                }
            }
        }

        // Fault-plane summary: what never arrived, and why.
        let mut verdict_counts: std::collections::BTreeMap<&'static str, u64> =
            std::collections::BTreeMap::new();
        for r in &records {
            if let TraceEvent::FaultVerdict { verdict, .. } = &r.event {
                *verdict_counts.entry(verdict.label()).or_insert(0) += 1;
            }
        }
        if !verdict_counts.is_empty() {
            let mut faults = CostNode::group("fault verdicts (no cost: refused sends)");
            for (label, n) in verdict_counts {
                faults.children.push(CostNode::leaf(format!("{label}: {n}"), 0, 0, 0));
            }
            root.children.push(faults);
        }

        QueryTrace { events: records, root }
    }

    /// The event stream as JSON Lines, one event per line, trailing
    /// newline included. Byte-identical for byte-identical streams.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.events {
            out.push_str(&r.to_json_line());
            out.push('\n');
        }
        out
    }

    /// The event stream as a Chrome trace (`chrome://tracing` /
    /// Perfetto-loadable JSON array). Hops render as complete (`X`) slices
    /// on the destination node's track; verdicts and answers as instants.
    pub fn to_chrome(&self) -> String {
        let mut parts = Vec::with_capacity(self.events.len());
        for r in &self.events {
            let (name, ph, tid, dur, args) = match &r.event {
                TraceEvent::Hop { src, dst, hop, edge_cost_ms, cost_ms, kind } => (
                    format!("hop {hop}: {src}\\u2192{dst}"),
                    "X",
                    *dst,
                    edge_cost_ms.max(&1).to_string(),
                    format!(
                        "\"kind\":\"{}\",\"edge_cost_ms\":{edge_cost_ms},\"cost_ms\":{cost_ms}",
                        kind.label()
                    ),
                ),
                TraceEvent::FaultVerdict { src, dst, verdict, plan } => (
                    format!("{}: {src}\\u2192{dst}", verdict.label()),
                    "i",
                    *dst,
                    String::new(),
                    format!("\"plan\":\"{}\"", chrome_escape(plan)),
                ),
                TraceEvent::Delivery { node, hop, cost_ms } => (
                    format!("deliver hop {hop}"),
                    "i",
                    *node,
                    String::new(),
                    format!("\"cost_ms\":{cost_ms}"),
                ),
                TraceEvent::Answer { node, hop, cost_ms } => (
                    format!("answer hop {hop}"),
                    "i",
                    *node,
                    String::new(),
                    format!("\"cost_ms\":{cost_ms}"),
                ),
                TraceEvent::RetryAttempt { attempt, wait_ms, exact } => (
                    format!("retry attempt {attempt}"),
                    "i",
                    0,
                    String::new(),
                    format!("\"wait_ms\":{wait_ms},\"exact\":{exact}"),
                ),
                TraceEvent::ReplicaFetch { origin, holder, latency_ms, recovered, .. } => (
                    format!("replica fetch {origin}\\u2192{holder}"),
                    "X",
                    *origin,
                    latency_ms.max(&1).to_string(),
                    format!("\"recovered\":{recovered}"),
                ),
            };
            let dur_field = if ph == "X" { format!(",\"dur\":{dur}") } else { String::new() };
            let scope = if ph == "i" { ",\"s\":\"t\"" } else { "" };
            parts.push(format!(
                "{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":0,\"tid\":{tid}{dur_field}{scope},\"args\":{{{args},\"id\":{}}}}}",
                r.time * 1000,
                r.id
            ));
        }
        format!("[{}]", parts.join(","))
    }

    /// The human-readable explain tree, totals first.
    pub fn explain_text(&self) -> String {
        let (hops, latency, messages) = self.root.total();
        let mut out = format!(
            "total: delay {hops} hops, latency {latency} ms, {messages} messages, {} events\n",
            self.events.len()
        );
        self.root.render(&mut out, 0);
        out
    }

    /// Splices `other`'s events after this trace's, shifted to start at
    /// `time_offset`, re-stamping ids monotonically — how retry layers
    /// merge attempt streams onto one timeline.
    pub fn append_events(&mut self, other: Vec<TraceRecord>, time_offset: u64) {
        let mut sink = TraceSink::new();
        let events = std::mem::take(&mut self.events);
        for r in events {
            sink.emit(r.time, r.event);
        }
        sink.append_offset(other, time_offset);
        self.events = sink.into_records();
    }

    /// Count of events carrying a given fault verdict.
    pub fn verdict_count(&self, verdict: Verdict) -> usize {
        self.events
            .iter()
            .filter(|r| matches!(&r.event, TraceEvent::FaultVerdict { verdict: v, .. } if *v == verdict))
            .count()
    }
}

fn chrome_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Walks back from `answer` to the chain seed, producing a critical-path
/// node whose children are the chain's hops. `count_hops` attributes 1 hop
/// per network edge (the delay metric); `count_latency` attributes each
/// edge's cost (the latency metric) — the caller picks which metric(s)
/// this chain explains, so a shared chain explains both without double
/// counting.
fn critical_path(
    records: &[TraceRecord],
    answer: &TraceRecord,
    count_hops: bool,
    count_latency: bool,
) -> Option<CostNode> {
    let TraceEvent::Answer { node, hop, cost_ms } = answer.event else {
        return None;
    };
    let metric = match (count_hops, count_latency) {
        (true, true) => "delay + latency",
        (true, false) => "delay",
        _ => "latency",
    };
    let mut chain = CostNode::group(format!(
        "critical path ({metric}): answer at peer {node}, hop {hop}, {cost_ms} ms"
    ));
    let mut cur_node = node;
    let mut cur_hop = hop;
    let mut cur_cost = cost_ms;
    let mut bound = answer.id;
    let mut hops_rev = Vec::new();
    loop {
        let matched = records.iter().rev().find(|r| {
            r.id < bound
                && matches!(
                    r.event,
                    TraceEvent::Hop { dst, hop: h, cost_ms: c, .. }
                        if dst == cur_node && h == cur_hop && c == cur_cost
                )
        });
        let Some(m) = matched else { break };
        let TraceEvent::Hop { src, dst, hop: h, edge_cost_ms, cost_ms: c, kind } = m.event else {
            unreachable!("matched a Hop above");
        };
        hops_rev.push((src, dst, h, edge_cost_ms, kind));
        bound = m.id;
        cur_node = src;
        cur_hop = if kind == HopKind::Network { h.saturating_sub(1) } else { h };
        cur_cost = c - edge_cost_ms;
        if kind != HopKind::Network && src == dst && h == 0 && cur_cost == 0 {
            break; // the seeding self-delivery — chain complete
        }
    }
    for &(src, dst, h, edge, kind) in hops_rev.iter().rev() {
        let hops = u64::from(count_hops && kind == HopKind::Network);
        let latency = if count_latency { edge } else { 0 };
        let label = match kind {
            HopKind::Network => format!("hop {h}: {src} \u{2192} {dst} (+{edge} ms)"),
            HopKind::Local => format!("hop {h}: local hand-off at {src}"),
            HopKind::Modeled => format!("hop {h}: modeled (+{edge} ms)"),
        };
        chain.children.push(CostNode::leaf(label, hops, latency, 0));
    }
    Some(chain)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(delay: u64, latency: u64, messages: u64) -> RangeOutcome {
        RangeOutcome {
            results: vec![],
            delay,
            latency,
            messages,
            dest_peers: 1,
            reached_peers: 1,
            exact: true,
        }
    }

    #[test]
    fn modeled_decomposition_is_exact() {
        for (d, l) in [(0, 0), (0, 9), (1, 7), (3, 10), (7, 3), (5, 5)] {
            let out = outcome(d, l, 11);
            let tr = QueryTrace::modeled("toy", 4, &out);
            assert_eq!(tr.root.total(), (d, l, 11), "delay {d} latency {l}");
        }
    }

    #[test]
    fn sim_chain_reconstruction_reproduces_costs() {
        // Hand-built stream: seed at 0, two network hops 0→1→2 costing
        // 4 + 6 ms, answer at peer 2.
        let mut sink = TraceSink::new();
        sink.emit(
            0,
            TraceEvent::Hop {
                src: 0,
                dst: 0,
                hop: 0,
                edge_cost_ms: 0,
                cost_ms: 0,
                kind: HopKind::Local,
            },
        );
        sink.emit(
            0,
            TraceEvent::Hop {
                src: 0,
                dst: 1,
                hop: 1,
                edge_cost_ms: 4,
                cost_ms: 4,
                kind: HopKind::Network,
            },
        );
        sink.emit(
            1,
            TraceEvent::Hop {
                src: 1,
                dst: 2,
                hop: 2,
                edge_cost_ms: 6,
                cost_ms: 10,
                kind: HopKind::Network,
            },
        );
        sink.emit(2, TraceEvent::Answer { node: 2, hop: 2, cost_ms: 10 });
        let out = outcome(2, 10, 2);
        let tr = QueryTrace::from_sim_records("toy", sink.into_records(), &out);
        assert_eq!(tr.root.total(), (2, 10, 2));
        let text = tr.explain_text();
        assert!(text.contains("critical path (delay + latency)"), "{text}");
        assert!(text.contains("hop 2: 1 \u{2192} 2 (+6 ms)"), "{text}");
    }

    #[test]
    fn split_answers_build_two_chains() {
        // Peer 1: deep but cheap (hop 2, 2 ms). Peer 2: shallow but slow
        // (hop 1, 9 ms) — delay comes from peer 1, latency from peer 2.
        let mut sink = TraceSink::new();
        sink.emit(
            0,
            TraceEvent::Hop {
                src: 0,
                dst: 0,
                hop: 0,
                edge_cost_ms: 0,
                cost_ms: 0,
                kind: HopKind::Local,
            },
        );
        sink.emit(
            0,
            TraceEvent::Hop {
                src: 0,
                dst: 3,
                hop: 1,
                edge_cost_ms: 1,
                cost_ms: 1,
                kind: HopKind::Network,
            },
        );
        sink.emit(
            0,
            TraceEvent::Hop {
                src: 0,
                dst: 2,
                hop: 1,
                edge_cost_ms: 9,
                cost_ms: 9,
                kind: HopKind::Network,
            },
        );
        sink.emit(
            1,
            TraceEvent::Hop {
                src: 3,
                dst: 1,
                hop: 2,
                edge_cost_ms: 1,
                cost_ms: 2,
                kind: HopKind::Network,
            },
        );
        sink.emit(1, TraceEvent::Answer { node: 2, hop: 1, cost_ms: 9 });
        sink.emit(2, TraceEvent::Answer { node: 1, hop: 2, cost_ms: 2 });
        let out = outcome(2, 9, 3);
        let tr = QueryTrace::from_sim_records("toy", sink.into_records(), &out);
        assert_eq!(tr.root.total(), (2, 9, 3));
        let text = tr.explain_text();
        assert!(text.contains("critical path (delay)"), "{text}");
        assert!(text.contains("critical path (latency)"), "{text}");
    }

    #[test]
    fn local_handoff_chains_terminate() {
        // A local hand-off that preserves hop AND cost (dcf's route→flood
        // switch): the strictly-decreasing id bound must step past it.
        let mut sink = TraceSink::new();
        sink.emit(
            0,
            TraceEvent::Hop {
                src: 0,
                dst: 0,
                hop: 0,
                edge_cost_ms: 0,
                cost_ms: 0,
                kind: HopKind::Local,
            },
        );
        sink.emit(
            0,
            TraceEvent::Hop {
                src: 0,
                dst: 5,
                hop: 1,
                edge_cost_ms: 3,
                cost_ms: 3,
                kind: HopKind::Network,
            },
        );
        sink.emit(
            1,
            TraceEvent::Hop {
                src: 5,
                dst: 5,
                hop: 1,
                edge_cost_ms: 0,
                cost_ms: 3,
                kind: HopKind::Local,
            },
        );
        sink.emit(1, TraceEvent::Answer { node: 5, hop: 1, cost_ms: 3 });
        let out = outcome(1, 3, 1);
        let tr = QueryTrace::from_sim_records("toy", sink.into_records(), &out);
        assert_eq!(tr.root.total(), (1, 3, 1));
    }

    #[test]
    fn jsonl_and_chrome_exports_are_deterministic() {
        let out = outcome(3, 12, 5);
        let a = QueryTrace::modeled("toy", 1, &out);
        let b = QueryTrace::modeled("toy", 1, &out);
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.to_chrome(), b.to_chrome());
        assert!(a.to_jsonl().lines().count() == a.events.len());
        assert!(a.to_chrome().starts_with('[') && a.to_chrome().ends_with(']'));
    }

    #[test]
    fn verdict_counts_surface_in_tree() {
        let mut sink = TraceSink::new();
        sink.emit(
            0,
            TraceEvent::FaultVerdict {
                src: 0,
                dst: 1,
                verdict: Verdict::Lost,
                plan: "hash-loss attempt 0".into(),
            },
        );
        let out = outcome(0, 0, 1);
        let tr = QueryTrace::from_sim_records("toy", sink.into_records(), &out);
        assert_eq!(tr.verdict_count(Verdict::Lost), 1);
        assert!(tr.explain_text().contains("lost: 1"));
    }
}
