//! `perfbench` — end-to-end and per-layer benchmark of CAMP.
//!
//! ```text
//! perfbench --workload serve-online|serve-bulk
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each run sets up twice (a daemon with one real calibration fit), runs
//! a fixed amount of seeded work through the repository's public
//! functions, checks the outputs, prints every metric with its unit, and
//! ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones;
//! with `--trace 1` the same work runs once untraced and once inside
//! spans, and the metrics are the per-layer ones taken from the spans.
//! See `README.md`.

mod serve;
mod stats;
mod suite;
mod trace;

use camp_obs::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Metric values by name.
pub type Metrics = BTreeMap<String, f64>;

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (pipeline items or requests).
    pub attempted: usize,
    /// Operations that failed (panicked, broke on the wire or were
    /// answered with an error); any is a check failure.
    pub failed: usize,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// Human-readable context printed before the metrics.
    pub notes: Vec<String>,
    /// Chrome trace of the traced pass.
    pub chrome: Option<String>,
}

/// End-to-end metrics and their units; every workload reports each.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("prediction_mae_pct", "%"),
    ("predictions_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
];

/// The suite's workload families (`sim.ns_per_op.<family>`).
const FAMILIES: [&str; 13] = [
    "mlc", "spec", "gap", "pbbs", "parsec", "xs", "redis", "voltdb", "spark", "ycsb", "ai", "phx",
    "db",
];

/// Per-layer metrics and their units; every workload reports each.
fn per_layer_units() -> Vec<(String, &'static str)> {
    let mut units: Vec<(String, &'static str)> = [
        ("workloads.suite_build_ms", "ms"),
        ("workloads.trace_gen_s", "s"),
        ("workloads.trace_ops", "count"),
        ("workloads.trace_mb", "MiB"),
        ("sim.run_s.dram", "s"),
        ("sim.run_s.cxl", "s"),
        ("sim.ops_per_s", "1/s"),
    ]
    .iter()
    .map(|&(name, unit)| (name.to_string(), unit))
    .collect();
    units.extend(FAMILIES.iter().map(|family| (format!("sim.ns_per_op.{family}"), "ns")));
    let rest = [
        ("core.calibration_fit_s", "s"),
        ("core.signature_us", "us"),
        ("core.predict_us", "us"),
        ("core.best_shot_us", "us"),
        ("bench.par_efficiency", "ratio"),
        ("bench.trace_cache_hit_ratio", "ratio"),
    ];
    units.extend(rest.iter().map(|&(name, unit)| (name.to_string(), unit)));
    for stage in serve::CLIENT_STAGES {
        for suffix in ["", ".p50", ".tail"] {
            units.push((format!("serve.client.{stage}_us{suffix}"), "us"));
        }
    }
    let rest = [
        ("serve.latency_mean_us", "us"),
        ("serve.parse_us", "us"),
        ("serve.predict_us", "us"),
        ("serve.render_us", "us"),
        ("serve.transport_us", "us"),
        ("serve.request_kb", "KiB"),
        ("serve.response_kb", "KiB"),
        ("serve.listen_ms", "ms"),
        ("serve.stats.requests", "count"),
        ("serve.stats.predictions", "count"),
        ("serve.stats.completed", "count"),
        ("serve.stats.shed", "count"),
        ("serve.stats.protocol_errors", "count"),
        ("serve.stats.model_errors", "count"),
        ("serve.stats.deadline_exceeded", "count"),
        ("serve.rss_growth_mb", "MiB"),
        ("obs.manifest_records", "count"),
        ("obs.manifest_mb", "MiB"),
        ("obs.manifest_validate_s", "s"),
        ("trace.overhead_pct", "%"),
    ];
    units.extend(rest.iter().map(|&(name, unit)| (name.to_string(), unit)));
    units
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

const USAGE: &str =
    "usage: perfbench --workload serve-online|serve-bulk [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        traced: false,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or(format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: '{value}' is not a number"));
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

/// The benchmark's own directory (where it keeps its outputs).
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// First line of a command's standard output, or `unavailable`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unavailable".to_string())
}

fn print_metadata(args: &Args) {
    let root = bench_dir().parent().unwrap_or(bench_dir());
    let commit = if root.join(".git").exists() {
        command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"])
    } else {
        "unavailable (not a git checkout)".to_string()
    };
    println!("workload: {}  seed: {}  seconds: {}", args.workload, args.seed, args.seconds);
    println!("nproc: {}", camp_bench::par::default_jobs());
    println!("rustc: {}", command_line("rustc", &["-V"]));
    println!("commit: {commit}");
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kib("VmHWM:") / 1024.0
}

/// Current resident set of this process, in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    proc_status_kib("VmRSS:") / 1024.0
}

fn proc_status_kib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .unwrap_or(0.0)
}

fn print_metrics(title: &str, metrics: &[(String, f64, &str)]) {
    println!("{title}:");
    for (name, value, unit) in metrics {
        println!("  {name:<36} {value:>18.6} {unit}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "serve-online" => serve::run(serve::Mix::Online, args.seed, args.seconds, args.traced),
        "serve-bulk" => serve::run(serve::Mix::Bulk, args.seed, args.seconds, args.traced),
        other => {
            eprintln!("perfbench: unknown workload '{other}'\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    outcome.end_to_end.insert("peak_rss_mb".into(), peak_rss_mb());

    print_metadata(&args);
    for note in &outcome.notes {
        println!("{note}");
    }
    let end_to_end: Vec<(String, f64, &str)> = END_TO_END
        .iter()
        .map(|&(name, unit)| (name.to_string(), outcome.end_to_end[name], unit))
        .collect();
    print_metrics("end-to-end", &end_to_end);
    let per_layer: Vec<(String, f64, &str)> = per_layer_units()
        .into_iter()
        .map(|(name, unit)| {
            let value = outcome.per_layer.get(&name).copied().unwrap_or(0.0);
            (name, value, unit)
        })
        .collect();
    if args.traced {
        print_metrics("per-layer (traced)", &per_layer);
        if let Some(chrome) = &outcome.chrome {
            let path = out_path(&format!("{}-seed{}.trace.json", args.workload, args.seed));
            match std::fs::write(&path, chrome) {
                Ok(()) => println!("chrome trace: {}", path.display()),
                Err(error) => outcome.problems.push(format!("writing {}: {error}", path.display())),
            }
        }
    }
    println!("operations: {} attempted, {} failed", outcome.attempted, outcome.failed);
    if outcome.failed > 0 {
        outcome.problems.push(format!("{} operations failed", outcome.failed));
    }
    for problem in &outcome.problems {
        println!("CHECK FAILED: {problem}");
    }
    let correct = outcome.problems.is_empty();
    println!("outputs checked: {}", if correct { "correct" } else { "INCORRECT" });

    let reported = if args.traced { per_layer } else { end_to_end };
    let metrics = reported
        .into_iter()
        .map(|(name, value, unit)| {
            (name, Json::obj(vec![("value", value.into()), ("unit", unit.into())]))
        })
        .collect();
    let result = Json::obj(vec![
        ("correct", correct.into()),
        ("attempted", (outcome.attempted as u64).into()),
        ("failed", (outcome.failed as u64).into()),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A path for an output file in the benchmark's `out/` directory.
pub fn out_path(file: &str) -> PathBuf {
    let dir = bench_dir().join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(file)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let args = parse_args(&strings(&[
            "--workload",
            "serve-bulk",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid arguments");
        assert_eq!((args.workload.as_str(), args.seed, args.seconds), ("serve-bulk", 7, 10));
        assert!(args.traced);
        assert!(parse_args(&strings(&["--seed", "1"])).is_err(), "workload is required");
        assert!(parse_args(&strings(&["--workload", "x", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload", "x", "--seed"])).is_err());
        assert!(parse_args(&strings(&["--workload", "x", "--seed", "-1"])).is_err());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<String> = per_layer_units().into_iter().map(|(name, _)| name).collect();
        names.extend(END_TO_END.iter().map(|(name, _)| name.to_string()));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count);
    }
}
