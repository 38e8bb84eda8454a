//! The metric tables: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` at the repo root lists the same names; a
//! test keeps the two in step.

use crate::json::Value;
use crate::pipeline::SPAN_NAMES;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// One metric definition.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// `BENCHMARK.json`, embedded at build time: `check` reads its bounds
/// from the same file the driver does.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `setup_s` is small (tenths of a second), so a relative bound alone
/// would flag scheduler jitter: `check` lets it worsen by the relative
/// bound or by this many seconds, whichever is larger.
pub const SETUP_ABSOLUTE_SLACK_S: f64 = 0.25;

/// End-to-end metrics: what a user of the monitored federation sees.
/// Every one is defined, and non-zero, on every workload.
pub const END_TO_END: [(&str, &str, Better); 5] = [
    ("requests_per_sec", "1/s", Better::Higher),
    ("setup_s", "s", Better::Lower),
    ("peak_rss_mb", "MB", Better::Lower),
    ("decision_p50_virtual_ms", "ms", Better::Lower),
    ("decision_p99_virtual_ms", "ms", Better::Lower),
];

/// Totals of the traced run.
const TOTALS: [(&str, &str, Better); 8] = [
    ("workload.us_per_request", "us/request", Better::Lower),
    ("pipeline.us_per_request", "us/request", Better::Lower),
    ("pipeline.coverage", "ratio", Better::Higher),
    (
        "pipeline.driver_self_us_per_request",
        "us/request",
        Better::Lower,
    ),
    (
        "runtime.residual_us_per_request",
        "us/request",
        Better::Lower,
    ),
    (
        "workload.excess_over_steady_us_per_request",
        "us/request",
        Better::Lower,
    ),
    ("pipeline.scale3x_ratio", "ratio", Better::Lower),
    ("trace.overhead_share", "ratio", Better::Lower),
];

/// Leaf timings (see `leaf.rs`) plus the one whole-run parallel ratio.
pub const LEAVES: [(&str, &str, Better); 31] = [
    ("crypto.schnorr.sign.us", "us", Better::Lower),
    ("crypto.schnorr.verify.us", "us", Better::Lower),
    (
        "crypto.schnorr.batch_verify.us_per_sig",
        "us",
        Better::Lower,
    ),
    ("crypto.aead.seal.us", "us", Better::Lower),
    ("crypto.aead.open.us", "us", Better::Lower),
    ("crypto.hmac.us", "us", Better::Lower),
    ("crypto.sha256.mb_per_s", "MB/s", Better::Higher),
    ("crypto.merkle.root.us_per_leaf", "us", Better::Lower),
    ("crypto.codec.entry_encode.us", "us", Better::Lower),
    ("crypto.codec.entry_decode.us", "us", Better::Lower),
    ("core.logent.verify_mac.us", "us", Better::Lower),
    (
        "core.contract.encode_batch.us_per_entry",
        "us",
        Better::Lower,
    ),
    ("store.wal.append.us", "us", Better::Lower),
    ("store.wal.replay.us_per_record", "us", Better::Lower),
    ("store.recover_node.ms", "ms", Better::Lower),
    ("store.compact_node_journal.ms", "ms", Better::Lower),
    ("chain.tx.new_signed.us", "us", Better::Lower),
    ("chain.node.submit_transaction.us", "us", Better::Lower),
    ("chain.block.compute_tx_root.us_per_tx", "us", Better::Lower),
    (
        "chain.block.verify_signatures.us_per_tx",
        "us",
        Better::Lower,
    ),
    ("chain.node.mine_block.us_per_entry", "us", Better::Lower),
    ("policy.compile.ms", "ms", Better::Lower),
    ("policy.pdp.evaluate_cold.us", "us", Better::Lower),
    ("policy.pdp.evaluate_cached.us", "us", Better::Lower),
    ("analysis.verifier.verify.us", "us", Better::Lower),
    ("faas.des.queue.ns_per_event", "ns", Better::Lower),
    ("faas.par.map.overhead_us", "us", Better::Lower),
    ("faas.par.steady_speedup_w2", "ratio", Better::Higher),
    ("net.frame.encode.us", "us", Better::Lower),
    ("net.roundtrip.p50_us", "us", Better::Lower),
    ("net.roundtrip.p99_us", "us", Better::Lower),
];

/// Exact counts and virtual-time latencies: identical for a seed, so a
/// difference between two commits is a behaviour change, not noise.
pub const EXACT: [(&str, &str, Better); 22] = [
    ("commit_p50_virtual_ms", "ms", Better::Lower),
    ("commit_p99_virtual_ms", "ms", Better::Lower),
    ("commit_samples", "count", Better::Higher),
    ("detect_p50_virtual_ms", "ms", Better::Lower),
    ("detect_p90_virtual_ms", "ms", Better::Lower),
    ("detect_samples", "count", Better::Higher),
    ("core.entries_per_request", "1/request", Better::Lower),
    ("chain.txs_per_request", "1/request", Better::Lower),
    ("chain.entries_per_tx", "count", Better::Higher),
    ("chain.blocks", "count", Better::Lower),
    ("chain.bytes_per_request", "B/request", Better::Lower),
    (
        "core.contract.storage_keys_per_request",
        "1/request",
        Better::Lower,
    ),
    ("policy.pdp.cache_hit_share", "ratio", Better::Higher),
    ("net.frames_per_request", "1/request", Better::Lower),
    ("net.bytes_per_request", "B/request", Better::Lower),
    ("pep.shed_share", "ratio", Better::Lower),
    ("pep.degraded_share", "ratio", Better::Lower),
    ("pdp.idempotency_evictions", "count", Better::Higher),
    ("analyser.groups_retired", "count", Better::Higher),
    ("store.journal_compactions", "count", Better::Higher),
    ("peak.contract_storage", "count", Better::Lower),
    ("peak.pdp_idempotency", "count", Better::Lower),
];

fn defs(table: &[(&str, &'static str, Better)]) -> Vec<MetricDef> {
    table
        .iter()
        .map(|&(name, unit, better)| MetricDef {
            name: name.to_string(),
            unit,
            better,
        })
        .collect()
}

/// The per-layer metric definitions, in print order.
pub fn per_layer() -> Vec<MetricDef> {
    let mut out = Vec::new();
    for span in SPAN_NAMES {
        for (suffix, unit) in [
            ("calls_per_request", "1/request"),
            ("us_per_call", "us"),
            ("us_per_request", "us/request"),
        ] {
            out.push(MetricDef {
                name: format!("{span}.{suffix}"),
                unit,
                better: Better::Lower,
            });
        }
    }
    out.extend(defs(&TOTALS));
    out.extend(defs(&LEAVES));
    out.extend(defs(&EXACT));
    out
}

/// The `bound` `BENCHMARK.json` gives an end-to-end metric.
pub fn bound_of(name: &str) -> Option<f64> {
    Value::parse(BENCHMARK_JSON)
        .ok()?
        .get("end_to_end")?
        .as_arr()?
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some(name))?
        .get("bound")?
        .as_f64()
}

/// `run_seconds` from `BENCHMARK.json`.
pub fn run_seconds() -> f64 {
    Value::parse(BENCHMARK_JSON)
        .ok()
        .and_then(|v| v.get("run_seconds").and_then(Value::as_f64))
        .expect("BENCHMARK.json has run_seconds (checked by the metrics tests)")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use std::collections::BTreeSet;

    fn end_to_end() -> Vec<MetricDef> {
        defs(&END_TO_END)
    }

    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    fn spelled(better: Better) -> String {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
        .to_string()
    }

    fn listed(key: &str) -> Vec<(String, String, String, Option<f64>)> {
        Value::parse(BENCHMARK_JSON)
            .expect("BENCHMARK.json parses")
            .get(key)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("string field")
                        .to_string()
                };
                (
                    field("name"),
                    field("unit"),
                    field("better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_program_prints() {
        let want: Vec<_> = end_to_end()
            .into_iter()
            .map(|d| (d.name, d.unit.to_string(), spelled(d.better)))
            .collect();
        let got: Vec<_> = listed("end_to_end")
            .into_iter()
            .map(|(n, u, b, bound)| {
                let bound = bound.expect("end-to-end metrics carry a bound");
                assert!(bound > 0.0 && bound <= 0.25, "{n}: bound {bound}");
                (n, u, b)
            })
            .collect();
        assert_eq!(got, want);
        let want: Vec<_> = per_layer()
            .into_iter()
            .map(|d| (d.name, d.unit.to_string(), spelled(d.better)))
            .collect();
        let got: Vec<_> = listed("per_layer")
            .into_iter()
            .map(|(n, u, b, bound)| {
                assert!(bound.is_none(), "{n}: per-layer metrics have no bound");
                (n, u, b)
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        assert!(
            per_layer().len() <= 128,
            "{} per-layer metrics",
            per_layer().len()
        );
        let names: BTreeSet<&str> = all.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names.len(), all.len(), "metric names are unique");
        for d in &all {
            assert!(valid_name(&d.name), "name {:?}", d.name);
            assert!(valid_unit(d.unit), "unit {:?} of {}", d.unit, d.name);
        }
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_lists_the_six_workloads_and_the_command() {
        let v = Value::parse(BENCHMARK_JSON).expect("parses");
        let keys: Vec<&str> = v
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let listed: Vec<(String, String)> = v
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                let field = |k: &str| w.get(k).and_then(Value::as_str).expect("field").to_string();
                (field("name"), field("why"))
            })
            .collect();
        let frozen: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, frozen);
        assert!(frozen
            .iter()
            .all(|(n, why)| valid_name(n) && why.len() <= 200));
        assert_eq!(v.get("paths"), Some(&vec!["benchmark"].into()));
        let seconds = run_seconds();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
        assert_eq!(bound_of("setup_s"), Some(0.25));
    }
}
