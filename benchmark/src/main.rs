//! The DRAMS repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! drams-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--scale F] [--out FILE]
//! drams-benchmark all   [--seed N] [--scale F] [--seconds S] [--out FILE]
//! drams-benchmark trace [--seed N] [--scale F] [--workload NAME]
//! drams-benchmark check A.json B.json
//! ```
//!
//! The first form is what the benchmark driver calls (one workload, one
//! process, result as one JSON object on the last line of stdout). `all`
//! and `trace` run that form once per workload in a child process each,
//! so every workload gets a clean peak-RSS reading. An untraced run in
//! turn starts `drams-benchmark setup --workload NAME …` children: one
//! fresh process per `setup_s` sample.

mod check;
mod host;
mod json;
mod leaf;
mod metrics;
mod pipeline;
mod run;
mod spans;
mod stats;
mod workloads;

use json::{obj, Value};
use run::{RunArgs, Setup};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{by_name, Workload, DEFAULT_SCALE, DEFAULT_SEED, WORKLOADS};

const USAGE: &str = "usage:
  drams-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--scale F] [--out FILE]
  drams-benchmark all   [--seed N] [--scale F] [--seconds S] [--out FILE]
  drams-benchmark trace [--seed N] [--scale F] [--workload NAME]
  drams-benchmark check A.json B.json";

/// Where result and trace files go unless `--out` says otherwise.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Parsed `--flag value` options.
struct Options {
    workload: Option<&'static Workload>,
    run: RunArgs,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        run: RunArgs {
            seed: DEFAULT_SEED,
            scale: DEFAULT_SCALE,
            seconds: metrics::run_seconds(),
        },
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                o.workload = Some(by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => o.run.seed = value.parse().map_err(|_| bad())?,
            "--scale" => {
                o.run.scale = value.parse().map_err(|_| bad())?;
                if !(o.run.scale.is_finite() && o.run.scale > 0.0 && o.run.scale <= 100.0) {
                    return Err(bad());
                }
            }
            "--seconds" => {
                o.run.seconds = value.parse().map_err(|_| bad())?;
                if !(o.run.seconds.is_finite() && (0.0..=3600.0).contains(&o.run.seconds)) {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => o.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(o)
}

fn write_file(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, value.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_file(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn print_metrics(line: &Value) {
    for (name, m) in line
        .get("metrics")
        .and_then(Value::as_obj)
        .unwrap_or_default()
    {
        println!(
            "{name:<52} {:>16.4} {}",
            m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN),
            m.get("unit").and_then(Value::as_str).unwrap_or("")
        );
    }
}

/// This program again, as a child process on the same workload and inputs.
fn child(mode: Option<&str>, w: &Workload, run: &RunArgs) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(mode)
        .args(["--workload", w.name])
        .args(["--seed", &run.seed.to_string()])
        .args(["--scale", &run.scale.to_string()])
        .args(["--seconds", &run.seconds.to_string()]);
    Ok(command)
}

/// `setup`: one set-up, first thing in this fresh process, reported to the
/// parent that is measuring `setup_s`.
fn run_setup(o: &Options, process_start: Instant) -> Result<bool, String> {
    let w = o.workload.ok_or("--workload is required")?;
    let setup = run::setup_once(w, &o.run, process_start);
    let line = obj([
        ("setup_s", setup.seconds.into()),
        ("fingerprint", setup.fingerprint.into()),
    ]);
    println!("{}", line.to_line());
    Ok(true)
}

/// Runs `setup` in a child process and reads its report.
fn spawn_setup(w: &Workload, run: &RunArgs) -> Result<Setup, String> {
    let output = child(Some("setup"), w, run)?
        .output()
        .map_err(|e| format!("spawning the set-up of {}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let report = stdout
        .lines()
        .last()
        .filter(|_| output.status.success())
        .and_then(|line| Value::parse(line).ok())
        .ok_or_else(|| format!("the set-up of {} failed: {}", w.name, output.status))?;
    match (
        report.get("setup_s").and_then(Value::as_f64),
        report.get("fingerprint").and_then(Value::as_str),
    ) {
        (Some(seconds), Some(fingerprint)) => Ok(Setup {
            seconds,
            fingerprint: fingerprint.to_string(),
        }),
        _ => Err(format!("the set-up of {} reported {stdout}", w.name)),
    }
}

/// The driver's form: one workload in this process (and its set-ups in
/// fresh ones).
fn run_one(o: &Options) -> Result<bool, String> {
    let w = o.workload.ok_or("--workload is required")?;
    let args = o.run;
    println!(
        "workload {} seed {} scale {} workers 1 ({})",
        w.name, args.seed, args.scale, w.why
    );
    let (line, ok, violations) = if o.trace {
        let traced = run::trace(w, &args);
        let path = o
            .out
            .clone()
            .unwrap_or_else(|| out_dir().join(format!("trace-{}.json", w.name)));
        write_file(&path, &traced.to_json(&args))?;
        println!("spans and metrics written to {}", path.display());
        (
            traced.result_line(),
            traced.violations.is_empty() && traced.failed == 0,
            traced.violations,
        )
    } else {
        let measured = run::measure(w, &args, &mut || spawn_setup(w, &args))?;
        let walls = measured.walls();
        println!(
            "{} reps of {} requests: wall min {:.4} s, median {:.4} s, spread (median-min)/min {:.3}, iqr/median {:.3}",
            walls.n,
            measured.requests,
            walls.min,
            walls.median,
            walls.wall_spread(),
            walls.iqr_share()
        );
        if let Some(path) = &o.out {
            write_file(path, &measured.to_json(&args))?;
        }
        (
            measured.result_line(),
            measured.correct() && measured.failed == 0,
            measured.violations,
        )
    };
    print_metrics(&line);
    for v in &violations {
        println!("VIOLATION: {v}");
    }
    println!("{}", line.to_line());
    Ok(ok)
}

/// Runs the driver's form in a child process and returns whether it
/// succeeded.
fn spawn_one(w: &Workload, o: &Options, trace: bool, out: &Path) -> Result<bool, String> {
    let status = child(None, w, &o.run)?
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .status()
        .map_err(|e| format!("spawning {}: {e}", w.name))?;
    Ok(status.success())
}

/// `all`: every workload, one child process each, one result file.
fn run_all(o: &Options) -> Result<bool, String> {
    let mut ok = true;
    let mut records = Vec::new();
    for w in &WORKLOADS {
        let tmp = out_dir().join(format!("workload-{}.json", w.name));
        ok &= spawn_one(w, o, false, &tmp)?;
        records.push(read_file(&tmp.to_string_lossy())?);
        println!();
    }
    print!("{:<26}", "metric");
    for w in &WORKLOADS {
        print!(" {:>14}", w.name);
    }
    println!();
    let cell = |r: &Value, path: &[&str]| r.path(path).and_then(Value::as_f64).unwrap_or(f64::NAN);
    for (name, unit, _) in metrics::END_TO_END {
        print!("{:<26}", format!("{name} [{unit}]"));
        for r in &records {
            print!(" {:>14.4}", cell(r, &["metrics", name, "value"]));
        }
        println!();
    }
    for name in [
        "commit_p50_virtual_ms",
        "commit_p99_virtual_ms",
        "detect_p50_virtual_ms",
        "detect_p90_virtual_ms",
        "detect_samples",
    ] {
        print!("{name:<26}");
        for r in &records {
            print!(" {:>14.4}", cell(r, &["exact", name]));
        }
        println!();
    }
    for name in ["reps", "wall_spread", "failed", "oracle_violations"] {
        print!("{name:<26}");
        for r in &records {
            print!(" {:>14.4}", cell(r, &[name]));
        }
        println!();
    }
    let result = obj([
        ("schema", 1_u64.into()),
        ("host", host::stamp()),
        ("seed", o.run.seed.into()),
        ("scale", o.run.scale.into()),
        ("seconds", o.run.seconds.into()),
        ("workers", 1_u64.into()),
        ("workloads", Value::Arr(records)),
    ]);
    let path = o
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("results-seed{}.json", o.run.seed)));
    write_file(&path, &result)?;
    println!("result file: {}", path.display());
    Ok(ok)
}

/// `trace`: the traced run of one workload or of all six.
fn run_traces(o: &Options) -> Result<bool, String> {
    let mut ok = true;
    for w in WORKLOADS
        .iter()
        .filter(|w| o.workload.is_none_or(|only| only.name == w.name))
    {
        let path = out_dir().join(format!("trace-{}.json", w.name));
        ok &= spawn_one(w, o, true, &path)?;
        println!();
    }
    Ok(ok)
}

fn run_check(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("check needs exactly two result files".to_string());
    };
    let (table, failed) = check::compare(&read_file(a)?, &read_file(b)?)?;
    print!("{table}");
    println!("{}", if failed { "FAIL" } else { "PASS" });
    Ok(!failed)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => parse_options(&args[1..]).and_then(|o| run_all(&o)),
        Some("trace") => parse_options(&args[1..]).and_then(|o| run_traces(&o)),
        Some("check") => run_check(&args[1..]),
        Some("setup") => parse_options(&args[1..]).and_then(|o| run_setup(&o, process_start)),
        Some(flag) if flag.starts_with("--") => parse_options(&args).and_then(|o| run_one(&o)),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
