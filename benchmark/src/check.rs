//! `check A.json B.json`: is B no worse than A?
//!
//! One row per workload × end-to-end metric: value in A, value in B, the
//! ratio B ÷ A, and a verdict —
//!
//! * `worse`: B is worse than A by more than the metric's bound from
//!   `BENCHMARK.json` (for `setup_s`: and by more than
//!   [`SETUP_ABSOLUTE_SLACK_S`]);
//! * `unresolved`: within the bound, but a side's repetition walls spread
//!   (inter-quartile ÷ median) wider than the bound, so "unchanged" cannot
//!   be claimed for a host-time metric;
//! * `ok` otherwise.
//!
//! Virtual-time metrics and counts are exact for a seed: when both files
//! were made with the same seed and scale, any increase of a virtual
//! latency is `worse` (bound 0), and differing counts are listed. A rise
//! of `failed` or `oracle_violations` always fails.

use crate::json::Value;
use crate::metrics::{bound_of, Better, END_TO_END, EXACT, SETUP_ABSOLUTE_SLACK_S};
use std::fmt::Write as _;

/// A row's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse than the bound allows.
    Worse,
    /// Within the bound but the host was too noisy to call it unchanged.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of `a` by which `b` is worse (negative when better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

/// The verdict for one metric.
pub fn verdict(name: &str, better: Better, a: f64, b: f64, bound: f64, spread: f64) -> Verdict {
    let mut worse = worse_by(better, a, b) > bound;
    if name == "setup_s" {
        worse &= b - a > SETUP_ABSOLUTE_SLACK_S;
    }
    if worse {
        Verdict::Worse
    } else if name == "requests_per_sec" && spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn workloads(file: &Value) -> Result<&[Value], String> {
    file.get("workloads")
        .and_then(Value::as_arr)
        .ok_or_else(|| "no \"workloads\" array — not a result file of `all`".to_string())
}

fn num(record: &Value, path: &[&str]) -> Option<f64> {
    record.path(path).and_then(Value::as_f64)
}

/// Compares two result files. Returns the printed table and whether the
/// comparison fails.
///
/// # Errors
///
/// A message when either file is not a result file of `all`.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut failed = false;
    let same_inputs = ["seed", "scale"]
        .iter()
        .all(|k| a.get(k).is_some() && a.get(k) == b.get(k));
    let _ = writeln!(
        out,
        "{:<15} {:<26} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "B/A"
    );
    for wa in workloads(a)? {
        let name = wa.get("workload").and_then(Value::as_str).unwrap_or("?");
        let Some(wb) = workloads(b)?
            .iter()
            .find(|w| w.get("workload").and_then(Value::as_str) == Some(name))
        else {
            let _ = writeln!(out, "{name:<15} missing from B");
            failed = true;
            continue;
        };
        let spread = [wa, wb]
            .iter()
            .filter_map(|w| num(w, &["wall_iqr_share"]))
            .fold(0.0, f64::max);
        for (metric, _, better) in END_TO_END {
            let (Some(va), Some(vb)) = (
                num(wa, &["metrics", metric, "value"]),
                num(wb, &["metrics", metric, "value"]),
            ) else {
                let _ = writeln!(out, "{name:<15} {metric:<26} missing");
                failed = true;
                continue;
            };
            let exact = same_inputs && metric.ends_with("_virtual_ms");
            let bound = if exact {
                0.0
            } else {
                bound_of(metric).unwrap_or(0.0)
            };
            let v = verdict(metric, better, va, vb, bound, spread);
            let _ = writeln!(
                out,
                "{name:<15} {metric:<26} {va:>14.4} {vb:>14.4} {:>8.4}  {}",
                vb / va,
                v.as_str()
            );
            failed |= v == Verdict::Worse;
        }
        for key in ["failed", "oracle_violations"] {
            let (va, vb) = (
                num(wa, &[key]).unwrap_or(0.0),
                num(wb, &[key]).unwrap_or(0.0),
            );
            if va != 0.0 || vb != 0.0 {
                let _ = writeln!(
                    out,
                    "{name:<15} {key:<26} {va:>14} {vb:>14} {:>8}  {}",
                    "",
                    if vb > va { "worse" } else { "ok" }
                );
            }
            failed |= vb > va;
        }
        if same_inputs {
            for (metric, _, better) in EXACT {
                let (Some(va), Some(vb)) =
                    (num(wa, &["exact", metric]), num(wb, &["exact", metric]))
                else {
                    continue; // counted only by the traced run
                };
                if va == vb {
                    continue;
                }
                // Virtual latencies are tripwires: an increase fails.
                // Counts that differ are listed for the reader.
                let v = if metric.ends_with("_virtual_ms") && worse_by(better, va, vb) > 0.0 {
                    Verdict::Worse
                } else {
                    Verdict::Ok
                };
                let _ = writeln!(
                    out,
                    "{name:<15} {metric:<26} {va:>14.4} {vb:>14.4} {:>8.4}  {}",
                    vb / va,
                    if v == Verdict::Worse {
                        "worse"
                    } else {
                        "changed"
                    }
                );
                failed |= v == Verdict::Worse;
            }
            if wa.get("fingerprint") == wb.get("fingerprint") {
                let _ = writeln!(out, "{name:<15} report fingerprint identical");
            } else {
                let _ = writeln!(out, "{name:<15} report fingerprint differs");
            }
        }
    }
    let _ = writeln!(
        out,
        "{}",
        if same_inputs {
            "same seed and scale: virtual-time metrics compared exactly"
        } else {
            "different seed or scale: virtual-time metrics compared within their bounds"
        }
    );
    Ok((out, failed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn record(rps: f64, setup: f64, p99: f64, iqr: f64, failed: u64, commit: f64) -> Value {
        let m = |v: f64, unit: &str| obj([("value", Value::Num(v)), ("unit", unit.into())]);
        obj([
            ("workload", "steady".into()),
            ("wall_iqr_share", iqr.into()),
            ("failed", failed.into()),
            ("oracle_violations", 0_u64.into()),
            ("fingerprint", "abc".into()),
            (
                "metrics",
                obj([
                    ("requests_per_sec", m(rps, "1/s")),
                    ("setup_s", m(setup, "s")),
                    ("peak_rss_mb", m(20.0, "MB")),
                    ("decision_p50_virtual_ms", m(12.0, "ms")),
                    ("decision_p99_virtual_ms", m(p99, "ms")),
                ]),
            ),
            (
                "exact",
                obj([("commit_p99_virtual_ms", Value::Num(commit))]),
            ),
        ])
    }

    fn file(seed: u64, record: Value) -> Value {
        obj([
            ("seed", seed.into()),
            ("scale", Value::Num(0.2)),
            ("workloads", Value::Arr(vec![record])),
        ])
    }

    #[test]
    fn verdict_rules() {
        use Better::{Higher, Lower};
        assert_eq!(
            verdict("requests_per_sec", Higher, 100.0, 95.0, 0.1, 0.02),
            Verdict::Ok
        );
        assert_eq!(
            verdict("requests_per_sec", Higher, 100.0, 85.0, 0.1, 0.02),
            Verdict::Worse
        );
        assert_eq!(
            verdict("requests_per_sec", Higher, 100.0, 95.0, 0.1, 0.2),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict("requests_per_sec", Higher, 100.0, 150.0, 0.1, 0.02),
            Verdict::Ok
        );
        assert_eq!(
            verdict("peak_rss_mb", Lower, 20.0, 23.0, 0.1, 0.5),
            Verdict::Worse
        );
        // setup_s: 50 % worse but only 0.05 s — inside the absolute slack.
        assert_eq!(verdict("setup_s", Lower, 0.1, 0.15, 0.25, 0.0), Verdict::Ok);
        assert_eq!(
            verdict("setup_s", Lower, 1.0, 1.5, 0.25, 0.0),
            Verdict::Worse
        );
        assert!((worse_by(Higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Lower, 100.0, 90.0) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn identical_files_pass_and_say_so() {
        let a = file(7, record(5000.0, 0.1, 13.7, 0.03, 0, 499.0));
        let (table, failed) = compare(&a, &a).expect("result files");
        assert!(!failed, "{table}");
        assert!(table.contains("fingerprint identical"));
        assert!(!table.contains("worse"));
    }

    #[test]
    fn slower_throughput_fails() {
        let a = file(7, record(5000.0, 0.1, 13.7, 0.03, 0, 499.0));
        let b = file(7, record(3000.0, 0.1, 13.7, 0.03, 0, 499.0));
        let (table, failed) = compare(&a, &b).expect("result files");
        assert!(failed);
        assert!(table.contains("requests_per_sec") && table.contains("worse"));
        // The other way round is a gain, not a failure.
        assert!(!compare(&b, &a).expect("result files").1);
    }

    #[test]
    fn virtual_latency_is_exact_at_one_seed_and_bounded_across_seeds() {
        let a = file(7, record(5000.0, 0.1, 13.700, 0.03, 0, 499.0));
        let same_seed = file(7, record(5000.0, 0.1, 13.701, 0.03, 0, 499.0));
        assert!(compare(&a, &same_seed).expect("result files").1);
        let other_seed = file(11, record(5000.0, 0.1, 13.701, 0.03, 0, 499.0));
        assert!(!compare(&a, &other_seed).expect("result files").1);
        // A commit-latency rise (an `exact` tripwire) fails at one seed.
        let later = file(7, record(5000.0, 0.1, 13.7, 0.03, 0, 999.0));
        let (table, failed) = compare(&a, &later).expect("result files");
        assert!(failed && table.contains("commit_p99_virtual_ms"));
    }

    #[test]
    fn noisy_reps_are_unresolved_and_new_failures_fail() {
        let a = file(7, record(5000.0, 0.1, 13.7, 0.03, 0, 499.0));
        let noisy = file(7, record(4900.0, 0.1, 13.7, 0.3, 0, 499.0));
        let (table, failed) = compare(&a, &noisy).expect("result files");
        assert!(!failed && table.contains("unresolved"));
        let failing = file(7, record(5000.0, 0.1, 13.7, 0.03, 5, 499.0));
        assert!(compare(&a, &failing).expect("result files").1);
        assert!(compare(&Value::Null, &a).is_err());
    }
}
