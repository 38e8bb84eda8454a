//! The host stamp every result file carries, so a noisy or different
//! host is visible in the file itself.

use crate::json::{obj, Value};
use std::process::Command;

/// First line of a command's standard output, or `"unknown"`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `model name` of the first CPU in `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// rustc, commit, core count and CPU model. The commit is `"unknown"`
/// outside a git checkout (the benchmark driver runs in one).
pub fn stamp() -> Value {
    obj([
        ("rustc", first_line("rustc", &["-V"]).into()),
        ("commit", first_line("git", &["rev-parse", "HEAD"]).into()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, std::num::NonZero::get)
                .into(),
        ),
        ("cpu_model", cpu_model().into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_has_every_field_even_when_tools_are_missing() {
        assert_eq!(first_line("definitely-not-a-program", &[]), "unknown");
        let s = stamp();
        for key in ["rustc", "commit", "nproc", "cpu_model"] {
            assert!(s.get(key).is_some(), "{key}");
        }
        assert!(s.get("nproc").and_then(Value::as_f64).expect("number") >= 1.0);
    }
}
