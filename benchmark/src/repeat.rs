//! `--repeat k`: k fresh child processes per workload, one seed each, and
//! the table of how far each end-to-end metric moved between them.

use std::process::Command;

use crate::catalog::{END_TO_END, WORKLOADS};
use crate::stats;

/// The value of metric `name` in a result line printed by this program
/// (`"name": {"value": 1.5, "unit": "s"}`).
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

fn child_line(workload: &str, seed: u64, seconds: u32) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default().to_string();
    if !output.status.success() || !line.contains("\"correct\": true") {
        return Err(format!(
            "{workload} seed {seed}: child exited {} with result {line:?}\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(line)
}

/// Runs every workload `k` times (seeds `1..=k`, fresh process each) and
/// prints min / median / max and `(max - min) / median` per end-to-end
/// metric as a Markdown table. Returns false if any spread but that of
/// `setup_s` exceeds the metric's bound (set-ups are milliseconds; the
/// driver exempts their spread too and compares only their medians).
pub fn repeat(k: u32, seconds: u32) -> Result<bool, String> {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{k} runs per workload, seeds 1..={k}, --seconds {seconds}; {cores} cores, kernel {}",
        kernel.trim()
    );
    println!();
    println!("| workload | metric | unit | min | median | max | (max-min)/median | bound |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut within = true;
    for (workload, _) in WORKLOADS {
        let lines = (1..=u64::from(k))
            .map(|seed| child_line(workload, seed, seconds))
            .collect::<Result<Vec<String>, String>>()?;
        for (name, unit, _, bound) in END_TO_END {
            let mut values = lines
                .iter()
                .map(|line| {
                    metric_value(line, name).ok_or(format!("{workload}: no {name} in {line:?}"))
                })
                .collect::<Result<Vec<f64>, String>>()?;
            let spread = stats::spread(&values);
            let median = stats::median(&mut values);
            within &= spread <= bound || name == "setup_s";
            println!(
                "| {workload} | {name} | {unit} | {:.6} | {median:.6} | {:.6} | {spread:.4} | {bound} |",
                values[0],
                values[values.len() - 1]
            );
        }
    }
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_values_parse_from_result_lines() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                    {\"ops_per_s\": {\"value\": 1250.5, \"unit\": \"1/s\"}, \
                    \"setup_s\": {\"value\": 0.0021, \"unit\": \"s\"}}}";
        assert_eq!(metric_value(line, "ops_per_s"), Some(1250.5));
        assert_eq!(metric_value(line, "setup_s"), Some(0.0021));
        assert_eq!(metric_value(line, "latency_p50_us"), None);
    }
}
