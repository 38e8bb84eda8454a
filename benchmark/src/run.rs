//! Measuring one workload: the end-to-end run (tracing off) and the
//! traced per-layer run.

use crate::json::{obj, Value};
use crate::leaf;
use crate::metrics::END_TO_END;
use crate::pipeline::{self, PipelineRun, REQUEST_SPAN, ROUND_SPAN, SPAN_NAMES};
use crate::spans;
use crate::stats::{self, Summary};
use crate::workloads::{by_name, RunOutput, Workload};
use drams_attack::detected_by_any_alert;
use drams_core::monitor::{GroundTruth, MonitorConfig, MonitorReport};
use drams_crypto::codec::Encode;
use drams_crypto::sha256::Digest;
use drams_faas::des::MILLIS;
use drams_faas::msg::CorrelationId;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Set-ups per run, spread evenly over the measuring window; `setup_s` is
/// the fastest of them (README, noise rule).
pub const SETUP_REPS: usize = 7;

/// What identifies a run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Master seed of the generated inputs.
    pub seed: u64,
    /// Factor on every workload's `requests`.
    pub scale: f64,
    /// Seconds of timed repetitions.
    pub seconds: f64,
}

/// Everything that must be identical between two runs of one seed: the
/// alerts byte for byte, the ground truth, every counter and every
/// virtual-time latency.
pub fn fingerprint(report: &MonitorReport, truth: &GroundTruth) -> String {
    let mut bytes: Vec<u8> = Vec::new();
    for alert in &report.alerts {
        bytes.extend_from_slice(&alert.to_canonical_bytes());
    }
    let lat = |s: &drams_faas::des::LatencyStats| {
        format!(
            "{}/{}/{}/{}/{}",
            s.len(),
            s.percentile(50.0),
            s.percentile(90.0),
            s.percentile(99.0),
            s.max()
        )
    };
    bytes.extend_from_slice(
        format!(
            "{truth:?}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{:?}|{:?}|{}|{}|{}|{}",
            report.requests_issued,
            report.requests_completed,
            report.requests_dropped,
            report.requests_shed,
            report.granted,
            report.refused,
            report.blocks_mined,
            report.txs_committed,
            report.entries_logged,
            report.groups_completed,
            report.groups_retired,
            report.journal_compactions,
            report.idempotency_evictions,
            report.degraded_admissions,
            report.retries_total,
            report.peak,
            report.faults,
            report.finished_at,
            lat(&report.e2e_latency),
            lat(&report.log_commit_latency),
            lat(&report.detection_latency),
        )
        .as_bytes(),
    );
    Digest::of(&bytes).to_hex()
}

/// Output checks on one run: false alerts, undetected attacks, and the
/// virtual-time model's commit bound. Each finding is one violation.
pub fn oracle(w: &Workload, config: &MonitorConfig, out: &RunOutput) -> Vec<String> {
    let report = &out.report;
    let truth = &out.truth;
    let mut findings = Vec::new();
    let attacked: BTreeSet<CorrelationId> = truth
        .tampered_requests
        .iter()
        .chain(&truth.tampered_responses)
        .chain(&truth.corrupted_decisions)
        .chain(&truth.flipped_enforcements)
        .copied()
        .chain(truth.dropped_logs.iter().map(|(c, _)| *c))
        .chain(truth.tampered_logs.iter().map(|(c, _)| *c))
        .chain(truth.replayed_logs.iter().map(|(c, _)| *c))
        .collect();
    if !w.attacked && truth.total_attacks() > 0 {
        findings.push(format!(
            "{} attacks on an honest workload",
            truth.total_attacks()
        ));
    }
    let false_alerts = report
        .alerts
        .iter()
        .filter(|a| !attacked.contains(&a.correlation))
        .count();
    if false_alerts > 0 {
        findings.push(format!(
            "{false_alerts} alerts name requests nobody attacked"
        ));
    }
    let attacked: Vec<CorrelationId> = attacked.into_iter().collect();
    let detected = detected_by_any_alert(report, &attacked);
    if detected < attacked.len() {
        findings.push(format!(
            "{} of {} attacked requests raised no alert",
            attacked.len() - detected,
            attacked.len()
        ));
    }
    // Below ~1 000 requests p = 0.002 may legitimately never fire.
    if w.attacked && attacked.is_empty() && config.total_requests >= 1_000 {
        findings.push("the adversary never fired".to_string());
    }
    // Observation → block is at most one LI flush interval (a partial
    // batch waits for the tick), the probe → LI hop and one block
    // interval. A change that batches more or mines less often than the
    // frozen cadence shows here, whatever it does to host time.
    let commit_bound = config.li_flush_interval + config.block_interval + 2 * MILLIS;
    if report.log_commit_latency.max() > commit_bound {
        findings.push(format!(
            "log commit latency reached {} us, above the cadence bound {} us",
            report.log_commit_latency.max(),
            commit_bound
        ));
    }
    if config.monitoring_enabled && report.log_commit_latency.is_empty() {
        findings.push("monitoring is on but nothing was committed".to_string());
    }
    findings
}

/// Exact, seed-determined outputs of one run (the `EXACT` metric table,
/// minus the three only the pipeline can count).
pub fn exact_values(out: &RunOutput) -> BTreeMap<&'static str, f64> {
    let r = &out.report;
    #[allow(clippy::cast_precision_loss)]
    let f = |n: u64| n as f64;
    let ms = |us: u64| f(us) / 1_000.0;
    let per = |n: u64, d: u64| if d == 0 { 0.0 } else { f(n) / f(d) };
    BTreeMap::from([
        (
            "commit_p50_virtual_ms",
            ms(r.log_commit_latency.percentile(50.0)),
        ),
        (
            "commit_p99_virtual_ms",
            ms(r.log_commit_latency.percentile(99.0)),
        ),
        ("commit_samples", f(r.log_commit_latency.len() as u64)),
        (
            "detect_p50_virtual_ms",
            ms(r.detection_latency.percentile(50.0)),
        ),
        (
            "detect_p90_virtual_ms",
            ms(r.detection_latency.percentile(90.0)),
        ),
        ("detect_samples", f(r.detection_latency.len() as u64)),
        (
            "core.entries_per_request",
            per(r.entries_logged, r.requests_completed),
        ),
        (
            "chain.txs_per_request",
            per(r.txs_committed, r.requests_completed),
        ),
        (
            "chain.entries_per_tx",
            per(r.entries_logged, r.txs_committed),
        ),
        ("chain.blocks", f(r.blocks_mined)),
        (
            "net.frames_per_request",
            per(out.wire_frames, r.requests_completed),
        ),
        (
            "net.bytes_per_request",
            per(out.wire_bytes, r.requests_completed),
        ),
        ("pep.shed_share", per(r.requests_shed, r.requests_issued)),
        (
            "pep.degraded_share",
            per(r.degraded_admissions, r.requests_issued),
        ),
        ("pdp.idempotency_evictions", f(r.idempotency_evictions)),
        ("analyser.groups_retired", f(r.groups_retired)),
        ("store.journal_compactions", f(r.journal_compactions)),
        ("peak.contract_storage", f(r.peak.contract_storage)),
        ("peak.pdp_idempotency", f(r.peak.pdp_idempotency)),
    ])
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end measurement of one workload.
pub struct Measured {
    /// The workload.
    pub workload: &'static Workload,
    /// Requests per repetition.
    pub requests: u64,
    /// Seconds of each set-up (fresh process: spec generation + cold run).
    pub setup_walls_s: Vec<f64>,
    /// Wall seconds of each timed repetition.
    pub walls_s: Vec<f64>,
    /// Requests issued over all timed repetitions.
    pub attempted: u64,
    /// Requests issued but not completed (shed, abandoned) over all
    /// timed repetitions.
    pub failed: u64,
    /// Output-check findings; empty means correct.
    pub violations: Vec<String>,
    /// Fingerprint of the first timed repetition.
    pub fingerprint: String,
    /// Completed requests of one repetition.
    pub completed: u64,
    /// `e2e_latency` p50 / p99 in virtual ms, and its sample count.
    pub decision_p50_ms: f64,
    /// See [`Measured::decision_p50_ms`].
    pub decision_p99_ms: f64,
    /// See [`Measured::decision_p50_ms`].
    pub decision_samples: u64,
    /// The exact outputs of one repetition.
    pub exact: BTreeMap<&'static str, f64>,
    /// `VmHWM` after the last repetition.
    pub peak_rss_mb: f64,
}

impl Measured {
    /// Order statistics of the timed walls.
    pub fn walls(&self) -> Summary {
        stats::summarize(&self.walls_s).expect("at least SETUP_REPS timed repetitions")
    }

    /// Value of an end-to-end metric.
    pub fn metric(&self, name: &str) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        match name {
            // Host time uses the fastest repetition (README, noise rule).
            "requests_per_sec" => self.completed as f64 / self.walls().min,
            "setup_s" => stats::min(&self.setup_walls_s).expect("SETUP_REPS set-ups"),
            "peak_rss_mb" => self.peak_rss_mb,
            "decision_p50_virtual_ms" => self.decision_p50_ms,
            "decision_p99_virtual_ms" => self.decision_p99_ms,
            other => unreachable!("not an end-to-end metric: {other}"),
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        END_TO_END
            .iter()
            .map(|&(name, unit, _)| (name.to_string(), self.metric(name), unit))
            .collect()
    }

    /// The driver's result line.
    pub fn result_line(&self) -> Value {
        result_line(self.correct(), self.attempted, self.failed, self.metrics())
    }

    /// The result-file record of this workload.
    pub fn to_json(&self, args: &RunArgs) -> Value {
        let walls = self.walls();
        obj([
            ("workload", self.workload.name.into()),
            ("seed", args.seed.into()),
            ("scale", args.scale.into()),
            ("seconds", args.seconds.into()),
            ("workers", 1_u64.into()),
            ("requests_per_rep", self.requests.into()),
            ("completed_per_rep", self.completed.into()),
            ("reps", self.walls_s.len().into()),
            ("walls_s", self.walls_s.clone().into()),
            ("wall_min_s", walls.min.into()),
            ("wall_q1_s", walls.q1.into()),
            ("wall_median_s", walls.median.into()),
            ("wall_q3_s", walls.q3.into()),
            ("wall_spread", walls.wall_spread().into()),
            ("wall_iqr_share", walls.iqr_share().into()),
            ("setup_walls_s", self.setup_walls_s.clone().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("correct", self.correct().into()),
            ("oracle_violations", self.violations.len().into()),
            ("violations", self.violations.clone().into()),
            ("fingerprint", self.fingerprint.clone().into()),
            ("decision_samples", self.decision_samples.into()),
            ("metrics", metrics_json(self.metrics())),
            (
                "exact",
                obj(self.exact.iter().map(|(k, v)| (*k, Value::Num(*v)))),
            ),
        ])
    }
}

fn metrics_json(metrics: Vec<(String, f64, &'static str)>) -> Value {
    obj(metrics.into_iter().map(|(name, value, unit)| {
        (
            name,
            obj([("value", Value::Num(value)), ("unit", unit.into())]),
        )
    }))
}

/// `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
) -> Value {
    obj([
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", metrics_json(metrics)),
    ])
}

/// One set-up: what a fresh process spends before its first result.
pub struct Setup {
    /// Seconds from process start to the end of the cold run (spec
    /// generation plus `run_scenario*`; endpoint teardown excluded).
    pub seconds: f64,
    /// Fingerprint of the cold run.
    pub fingerprint: String,
}

/// Generates `w`'s spec and runs it once. Called first thing in a fresh
/// process, `since` its start, this pays every first-use cost (lazy
/// tables, allocator growth) that later repetitions no longer see.
pub fn setup_once(w: &Workload, args: &RunArgs, since: Instant) -> Setup {
    drams_faas::par::set_workers(1);
    let spec = w.spec(args.seed, args.scale);
    let build_s = since.elapsed().as_secs_f64();
    let out = w.run(&spec);
    Setup {
        seconds: build_s + out.wall_s,
        fingerprint: fingerprint(&out.report, &out.truth),
    }
}

/// Runs `w` end to end with tracing off. The measuring window of
/// `args.seconds` is cut into [`SETUP_REPS`] slices; each starts with one
/// `setup` (the caller runs [`setup_once`] in a fresh process) and then
/// repeats the identical timed job, at least once, until the slice is
/// used up — so the set-up samples see the same stretch of host time the
/// repetitions do. Every repetition and every set-up's cold run must
/// yield the fingerprint of the first repetition — a free seed-stability
/// check, within and across processes, each time the benchmark runs.
///
/// # Errors
///
/// Whatever `setup` fails with.
pub fn measure(
    w: &'static Workload,
    args: &RunArgs,
    setup: &mut dyn FnMut() -> Result<Setup, String>,
) -> Result<Measured, String> {
    drams_faas::par::set_workers(1);
    let mut violations: Vec<String> = Vec::new();
    let spec = w.spec(args.seed, args.scale);
    let mut setups: Vec<Setup> = Vec::with_capacity(SETUP_REPS);
    let mut walls_s = Vec::new();
    let mut first: Option<(RunOutput, String)> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let window = Instant::now();
    for slice in 1..=SETUP_REPS {
        setups.push(setup()?);
        #[allow(clippy::cast_precision_loss)]
        let slice_end = args.seconds * slice as f64 / SETUP_REPS as f64;
        loop {
            let out = w.run(&spec);
            walls_s.push(out.wall_s);
            attempted += out.report.requests_issued;
            failed += out.report.requests_issued - out.report.requests_completed;
            let fp = fingerprint(&out.report, &out.truth);
            match &first {
                None => {
                    violations.extend(oracle(w, &spec.config, &out));
                    first = Some((out, fp));
                }
                Some((_, reference)) if *reference != fp => {
                    violations.push(format!(
                        "repetition {} differs from repetition 1",
                        walls_s.len()
                    ));
                }
                Some(_) => {}
            }
            if window.elapsed().as_secs_f64() >= slice_end {
                break;
            }
        }
    }
    let (out, fingerprint) = first.expect("every slice runs a repetition");
    for (i, s) in setups.iter().enumerate() {
        if s.fingerprint != fingerprint {
            violations.push(format!(
                "the cold run of set-up {} differs from repetition 1",
                i + 1
            ));
        }
    }
    let r = &out.report;
    if r.requests_issued != spec.config.total_requests {
        violations.push(format!(
            "issued {} of {} requests",
            r.requests_issued, spec.config.total_requests
        ));
    }
    #[allow(clippy::cast_precision_loss)]
    let ms = |us: u64| us as f64 / 1_000.0;
    Ok(Measured {
        workload: w,
        requests: spec.config.total_requests,
        setup_walls_s: setups.iter().map(|s| s.seconds).collect(),
        walls_s,
        attempted,
        failed,
        violations,
        fingerprint,
        completed: r.requests_completed,
        decision_p50_ms: ms(r.e2e_latency.percentile(50.0)),
        decision_p99_ms: ms(r.e2e_latency.percentile(99.0)),
        decision_samples: r.e2e_latency.len() as u64,
        exact: exact_values(&out),
        peak_rss_mb: peak_rss_mb().unwrap_or(f64::NAN),
    })
}

/// The traced, per-layer measurement of one workload.
pub struct Traced {
    /// The workload.
    pub workload: &'static Workload,
    /// Every per-layer metric, by name.
    pub values: BTreeMap<String, f64>,
    /// Requests the workload run issued / failed to complete.
    pub attempted: u64,
    /// See [`Traced::attempted`].
    pub failed: u64,
    /// Output-check findings; empty means correct.
    pub violations: Vec<String>,
    /// The spans of the traced pipeline run.
    pub spans: Vec<spans::Span>,
}

impl Traced {
    /// Every per-layer metric, in table order.
    fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        crate::metrics::per_layer()
            .into_iter()
            .map(|d| {
                let value = self.values[&d.name];
                (d.name, value, d.unit)
            })
            .collect()
    }

    /// The driver's result line: every per-layer metric.
    pub fn result_line(&self) -> Value {
        result_line(
            self.violations.is_empty(),
            self.attempted,
            self.failed,
            self.metrics(),
        )
    }

    /// The trace file: metrics, findings and the spans.
    pub fn to_json(&self, args: &RunArgs) -> Value {
        obj([
            ("workload", self.workload.name.into()),
            ("seed", args.seed.into()),
            ("scale", args.scale.into()),
            ("workers", 1_u64.into()),
            ("correct", self.violations.is_empty().into()),
            ("violations", self.violations.clone().into()),
            ("metrics", metrics_json(self.metrics())),
            ("trace", spans::to_json(&self.spans)),
        ])
    }
}

/// Host µs per completed request of the fastest of `reps` untraced runs.
fn us_per_request(
    w: &Workload,
    spec: &drams_core::scenario::ScenarioSpec,
    reps: usize,
) -> (f64, RunOutput) {
    let mut best: Option<RunOutput> = None;
    for _ in 0..reps {
        let out = w.run(spec);
        if best.as_ref().is_none_or(|b| out.wall_s < b.wall_s) {
            best = Some(out);
        }
    }
    let out = best.expect("reps >= 1");
    #[allow(clippy::cast_precision_loss)]
    let us = out.wall_s * 1e6 / out.report.requests_completed.max(1) as f64;
    (us, out)
}

fn pipeline_findings(
    run: &PipelineRun,
    spec: &drams_core::scenario::ScenarioSpec,
    what: &str,
) -> Vec<String> {
    let monitored = spec.config.monitoring_enabled;
    let mut findings = Vec::new();
    if run.alerts > 0 {
        findings.push(format!("{what}: pipeline raised {} alerts", run.alerts));
    }
    let want = if monitored { run.requests } else { 0 };
    if run.checked_groups != want {
        findings.push(format!(
            "{what}: pipeline Analyser checked {} of {want} groups",
            run.checked_groups
        ));
    }
    // The retirement lag (16 s) is inside the drain (19 s), so an armed
    // Analyser has retired every group by the end.
    if spec.load.analyser_retire_lag > 0 && run.groups_retired != want {
        findings.push(format!(
            "{what}: pipeline Analyser retired {} of {want} groups",
            run.groups_retired
        ));
    }
    findings
}

/// Untraced and traced runs the traced measurement keeps the fastest of.
const TRACE_REPS: usize = 3;

/// The traced run of `w`. End-to-end numbers are never taken from here;
/// every host time in it is the fastest of [`TRACE_REPS`] runs.
#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
pub fn trace(w: &'static Workload, args: &RunArgs) -> Traced {
    drams_faas::par::set_workers(1);
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut violations: Vec<String> = Vec::new();
    let mut set = |name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };
    let spec = w.spec(args.seed, args.scale);
    let requests = spec.config.total_requests;

    // --- the workload itself, untraced, and `steady` beside it ------------------
    let (workload_us, out) = us_per_request(w, &spec, TRACE_REPS);
    violations.extend(oracle(w, &spec.config, &out));
    let attempted = out.report.requests_issued;
    let failed = attempted - out.report.requests_completed;
    for (name, value) in exact_values(&out) {
        set(name, value);
    }
    let steady = by_name("steady").expect("steady is in the workload table");
    let steady_spec = steady.spec(args.seed, args.scale);
    let (steady_us, steady_fingerprint) = if w.name == steady.name {
        (workload_us, fingerprint(&out.report, &out.truth))
    } else {
        let (us, out) = us_per_request(steady, &steady_spec, TRACE_REPS);
        (us, fingerprint(&out.report, &out.truth))
    };
    set("workload.us_per_request", workload_us);
    set(
        "workload.excess_over_steady_us_per_request",
        workload_us - steady_us,
    );

    // --- the recomposed pipeline in this workload's shape, spans off and on ---
    let mut plain: Option<PipelineRun> = None;
    let mut traced: Option<PipelineRun> = None;
    for _ in 0..TRACE_REPS {
        for on in [false, true] {
            let run = pipeline::run(&spec, w.carrier, requests, 1, on, false);
            let slot = if on { &mut traced } else { &mut plain };
            if slot.as_ref().is_none_or(|b| run.wall_s < b.wall_s) {
                *slot = Some(run);
            }
        }
    }
    let (plain, traced) = (plain.expect("ran"), traced.expect("ran"));
    violations.extend(pipeline_findings(&plain, &spec, "untraced"));
    violations.extend(pipeline_findings(&traced, &spec, "traced"));
    let n = requests as f64;
    let pipeline_us = plain.wall_s * 1e6 / n;
    set("pipeline.us_per_request", pipeline_us);
    set("pipeline.coverage", pipeline_us / workload_us);
    set("runtime.residual_us_per_request", workload_us - pipeline_us);
    set(
        "trace.overhead_share",
        traced.spans.len() as f64 * spans::calibrate_span_ns() / (traced.wall_s * 1e9),
    );
    let totals = spans::totals_by_name(&traced.spans);
    for span in SPAN_NAMES {
        let t = totals.get(span).copied().unwrap_or_default();
        let us = t.self_ns as f64 / 1_000.0;
        set(&format!("{span}.calls_per_request"), t.calls as f64 / n);
        set(
            &format!("{span}.us_per_call"),
            if t.calls == 0 {
                0.0
            } else {
                us / t.calls as f64
            },
        );
        set(&format!("{span}.us_per_request"), us / n);
    }
    let driver_self_ns: u64 = [REQUEST_SPAN, ROUND_SPAN]
        .iter()
        .filter_map(|s| totals.get(s))
        .map(|t| t.self_ns)
        .sum();
    set(
        "pipeline.driver_self_us_per_request",
        driver_self_ns as f64 / 1_000.0 / n,
    );
    set("chain.bytes_per_request", plain.chain_bytes as f64 / n);
    set(
        "core.contract.storage_keys_per_request",
        plain.storage_keys as f64 / n,
    );
    let lookups = plain.cache_hits + plain.cache_misses;
    set(
        "policy.pdp.cache_hit_share",
        if lookups == 0 {
            0.0
        } else {
            plain.cache_hits as f64 / lookups as f64
        },
    );

    // --- three times the requests, three times as many per block ---------------
    let big = pipeline::run(&spec, w.carrier, requests * 3, 3, false, false);
    violations.extend(pipeline_findings(&big, &spec, "3x"));
    set(
        "pipeline.scale3x_ratio",
        (big.wall_s / (3.0 * n)) / (plain.wall_s / n),
    );

    // --- leaf timings on inputs captured from a steady-shape pipeline run ----
    const CAPTURE_REQUESTS: u64 = 1_000;
    let capture = pipeline::run(
        &steady_spec,
        steady.carrier,
        CAPTURE_REQUESTS,
        1,
        true,
        true,
    );
    violations.extend(pipeline_findings(&capture, &steady_spec, "capture"));
    let mine_ns = spans::totals_by_name(&capture.spans)
        .get("chain.node.mine_block")
        .map_or(0, |t| t.self_ns);
    set(
        "chain.node.mine_block.us_per_entry",
        mine_ns as f64 / 1_000.0 / (4 * CAPTURE_REQUESTS) as f64,
    );
    let captured = capture.captured.expect("capture requested");
    let (leaves, leaf_findings) = leaf::run(&captured);
    violations.extend(leaf_findings);
    for l in leaves {
        set(l.name, l.value);
    }

    // --- one steady run on two workers against one -------------------------------
    drams_faas::par::set_workers(2);
    let (steady_w2_us, w2) = us_per_request(steady, &steady_spec, TRACE_REPS);
    drams_faas::par::set_workers(1);
    if steady_fingerprint != fingerprint(&w2.report, &w2.truth) {
        violations.push("steady differs between one worker and two".to_string());
    }
    set("faas.par.steady_speedup_w2", steady_us / steady_w2_us);

    Traced {
        workload: w,
        values,
        attempted,
        failed,
        violations,
        spans: traced.spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// 200 requests per repetition, one repetition per set-up slice.
    fn smoke_args(w: &Workload) -> RunArgs {
        #[allow(clippy::cast_precision_loss)]
        RunArgs {
            seed: 7,
            scale: 200.0 / w.requests as f64,
            seconds: 0.0,
        }
    }

    #[test]
    fn every_workload_smokes_clean() {
        for w in &WORKLOADS {
            let args = smoke_args(w);
            // In-process stand-in for the fresh process `main` spawns.
            let mut setup = || Ok(setup_once(w, &args, Instant::now()));
            let m = measure(w, &args, &mut setup).expect("set-up cannot fail in-process");
            assert_eq!(m.violations, Vec::<String>::new(), "{}", w.name);
            assert_eq!(m.requests, 200, "{}", w.name);
            assert_eq!(m.walls_s.len(), SETUP_REPS, "{}", w.name);
            assert_eq!(m.setup_walls_s.len(), SETUP_REPS, "{}", w.name);
            assert_eq!(m.attempted, 200 * SETUP_REPS as u64, "{}", w.name);
            assert_eq!(m.failed, 0, "{}", w.name);
            for (name, _, _) in END_TO_END {
                assert!(m.metric(name) > 0.0, "{}: {name} must never be 0", w.name);
            }
            let line = m.result_line();
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(
                Value::parse(&line.to_line()).as_ref(),
                Ok(&line),
                "result line round-trips"
            );
            // Four observations per request, unless monitoring is off or
            // the adversary dropped some.
            let entries = m.exact["core.entries_per_request"];
            match w.name {
                "monitoring_off" => assert_eq!(entries, 0.0),
                "attack_mix" => assert!(entries > 3.9 && entries <= 4.0, "{entries}"),
                _ => assert_eq!(entries, 4.0, "{}", w.name),
            }
            assert_eq!(
                m.exact["net.frames_per_request"],
                if w.name == "tcp_loopback" { 6.0 } else { 0.0 },
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn attack_mix_detects_every_attack_it_mounts() {
        let w = by_name("attack_mix").expect("known workload");
        let spec = w.spec(7, 0.1);
        let out = w.run(&spec);
        assert!(
            out.truth.total_attacks() > 0,
            "p = 0.002 over 8 000 hook calls fires"
        );
        assert_eq!(oracle(w, &spec.config, &out), Vec::<String>::new());
        assert!(!out.report.detection_latency.is_empty());
    }

    #[test]
    fn oracle_flags_false_and_missing_alerts() {
        let honest = by_name("steady").expect("known workload");
        let attacked = by_name("attack_mix").expect("known workload");
        let spec = attacked.spec(7, 0.1);
        let out = attacked.run(&spec);
        // The same attacked output judged as an honest workload's.
        assert!(!oracle(honest, &spec.config, &out).is_empty());
        // Alerts stripped: every attack is now undetected.
        let mut silenced = out;
        silenced.report.alerts.clear();
        assert!(oracle(attacked, &spec.config, &silenced)
            .iter()
            .any(|f| f.contains("raised no alert")));
    }

    #[test]
    fn fingerprint_is_stable_per_seed_and_moves_with_it() {
        let w = by_name("steady").expect("known workload");
        let fp = |seed| {
            let out = w.run(&w.spec(seed, 0.01));
            fingerprint(&out.report, &out.truth)
        };
        assert_eq!(fp(7), fp(7));
        assert_ne!(fp(7), fp(11));
    }

    #[test]
    fn traced_run_fills_every_per_layer_metric() {
        let w = by_name("steady").expect("known workload");
        let t = trace(w, &smoke_args(w));
        assert_eq!(t.violations, Vec::<String>::new());
        for d in crate::metrics::per_layer() {
            assert!(t.values.contains_key(&d.name), "{} missing", d.name);
        }
        assert_eq!(t.values["core.probe.observe.calls_per_request"], 4.0);
        assert_eq!(t.values["core.li.store.calls_per_request"], 4.0);
        assert!(t.values["pipeline.us_per_request"] > 0.0);
        assert!(!t.spans.is_empty());
    }
}
