//! PERFBENCH — the POIESIS benchmark: one workload per process, end-to-end
//! metrics from an untraced run, per-layer metrics from a traced one,
//! and property checks on every output.
//!
//! ```text
//! perfbench --workload <service_bare|corpus_plan>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --manifest          # print BENCHMARK.json
//! ```
//!
//! Run it through cargo from the repository root, e.g.
//! `cargo run --release --offline --manifest-path perfbench/Cargo.toml --
//! --workload corpus_plan --seed 1 --seconds 20 --trace 0`. The human
//! report goes to stderr; the last line of stdout is the JSON result.
//! The exit code is non-zero when any operation or output check failed.

mod corpus;
mod layers;
mod procfs;
mod service;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Where runs write their scratch state and span files (git-ignored).
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Per operation type: (attempted, failed).
    pub ops: BTreeMap<&'static str, (u64, u64)>,
    /// Output checks evaluated and failed.
    pub checks: u64,
    pub check_failures: u64,
    /// The first failures, for the log.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra `key: value` lines for the human report.
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one attempted operation; `Err` counts it failed.
    pub fn op<T, E: std::fmt::Display>(
        &mut self,
        name: &'static str,
        result: Result<T, E>,
    ) -> Option<T> {
        let e = self.ops.entry(name).or_default();
        e.0 += 1;
        match result {
            Ok(v) => Some(v),
            Err(err) => {
                e.1 += 1;
                self.error(format!("{name} failed: {err}"));
                None
            }
        }
    }

    /// Records one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.check_failures += 1;
            self.error(format!("check failed: {}", what()));
        }
    }

    fn error(&mut self, message: String) {
        if self.errors.len() < 20 {
            self.errors.push(message);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn merge(&mut self, other: Report) {
        for (name, (a, f)) in other.ops {
            let e = self.ops.entry(name).or_default();
            e.0 += a;
            e.1 += f;
        }
        self.checks += other.checks;
        self.check_failures += other.check_failures;
        for e in other.errors {
            self.error(e);
        }
        self.metrics.extend(other.metrics);
        self.notes.extend(other.notes);
    }

    fn attempted(&self) -> u64 {
        self.ops.values().map(|(a, _)| a).sum()
    }

    fn failed(&self) -> u64 {
        self.ops.values().map(|(_, f)| f).sum()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--manifest") {
        return Ok(None);
    }
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, spec::RUN_SECONDS as f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = || format!("{flag}: cannot parse `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !spec::WORKLOADS.iter().any(|(w, _)| *w == workload) {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|(w, _)| *w).collect();
        return Err(format!(
            "unknown workload `{workload}` (known: {})",
            names.join(", ")
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", spec::manifest());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("error: creating {}: {e}", out_dir().display());
        return ExitCode::from(2);
    }
    let report = match args.workload.as_str() {
        "corpus_plan" => corpus::run(args.seed, args.seconds, args.trace),
        _ => service::run(args.seed, args.seconds, args.trace),
    };
    finish(&args, report)
}

/// Prints the human report to stderr and the JSON result as the last
/// line of stdout.
fn finish(args: &Args, report: Report) -> ExitCode {
    let expected = spec::metrics(args.trace);
    eprintln!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (name, (attempted, failed)) in &report.ops {
        eprintln!("  op {name:<22} attempted {attempted:>7}  failed {failed}");
    }
    eprintln!(
        "  checks {} passed, {} failed",
        report.checks - report.check_failures,
        report.check_failures
    );
    for note in &report.notes {
        eprintln!("  {note}");
    }
    for e in &report.errors {
        eprintln!("  ERROR {e}");
    }
    let mut correct = report.check_failures == 0;
    let mut fields = Vec::new();
    for metric in expected {
        match report.metrics.get(metric.name) {
            Some(&v) if v.is_finite() => {
                eprintln!("  {:<36} {:>14.4} {}", metric.name, v, metric.unit);
                fields.push(format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    metric.name, metric.unit
                ));
            }
            other => {
                eprintln!("  ERROR metric {} not measured ({other:?})", metric.name);
                correct = false;
            }
        }
    }
    let (attempted, failed) = (report.attempted(), report.failed());
    if fields.len() == expected.len() {
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            fields.join(", ")
        );
    }
    if correct && failed == 0 && attempted > 0 && fields.len() == expected.len() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
