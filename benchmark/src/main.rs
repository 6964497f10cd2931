//! The repo's benchmark. One invocation runs one workload in this
//! process and prints every metric by name with its unit, then one JSON
//! result line; without `--workload`, or with `--repeat`, it runs each
//! workload in child processes of its own and summarises them.
//! README.md has the metric → layer → workload table.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload deit_s_fast --seed 1 --seconds 20 --trace 0
//! ```

mod deit;
mod kernels;
mod metrics;
mod serve;
mod span;
mod stats;

use std::process::{Command, ExitCode};

use bfp_serve::NonlinearMode;

use metrics::{Metrics, DETERMINISTIC, END_TO_END, PER_LAYER};
use span::Trace;
use stats::{median, quartile_spread};

pub const WORKLOADS: [&str; 4] = [
    "deit_s_exact",
    "deit_s_fast",
    "serve_steady",
    "serve_overload",
];

/// DeiT-Small's sequence length: 196 patches and the class token.
pub const SEQ: usize = 197;
/// `run_seconds` of BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 20.0;
/// `--smoke`: the same checks on a few seconds of work.
const SMOKE_SECONDS: f64 = 5.0;
/// Seconds the traced run gives each layer group the named workload
/// does not exercise, so every per-layer metric is measured in every
/// traced run.
const PROBE_SECONDS: f64 = 3.0;

/// Engine threads and serve arrays: one per CPU.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What one run reports on its last line.
pub struct Outcome {
    attempted: u64,
    /// Operations that ended wrongly. A request the server refused, shed
    /// or answered late by its stated policies is not one of these: it
    /// lowers `good_frac`.
    failed: u64,
    correct: bool,
    metrics: Metrics,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64, verdict: Result<(), String>, metrics: Metrics) -> Self {
        if let Err(why) = &verdict {
            eprintln!("INCORRECT: {why}");
        }
        Outcome {
            attempted,
            failed,
            correct: verdict.is_ok() && failed == 0,
            metrics,
        }
    }

    /// Print the metrics by name, then the result line.
    fn print(&self) {
        for (name, value, unit) in self.metrics.rows() {
            println!("{name:<48} {value:>16.6} {unit}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.to_json()
        );
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    repeat: usize,
    vary_seed: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_out: None,
        repeat: 1,
        vary_seed: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?),
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--vary-seed" => args.vary_seed = true,
            "--smoke" => args.seconds = SMOKE_SECONDS,
            "--out" => args.out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn run_untraced(workload: &str, seed: u64, seconds: f64) -> Outcome {
    match workload {
        "deit_s_exact" => deit::run(NonlinearMode::Exact, seed, seconds),
        "deit_s_fast" => deit::run(NonlinearMode::Fast, seed, seconds),
        "serve_steady" => serve::run(&serve::STEADY, seed, seconds),
        "serve_overload" => serve::run(&serve::OVERLOAD, seed, seconds),
        _ => unreachable!("parse_args admits only WORKLOADS"),
    }
}

/// The traced run. The named workload gets `seconds`; the kernel probes
/// and a [`PROBE_SECONDS`] probe of the other group (the fast engine on
/// serve workloads, steady traffic on DeiT workloads) fill in the rest
/// of the per-layer list.
fn run_traced(workload: &str, seed: u64, seconds: f64, trace_out: &str) -> Outcome {
    let mut trace = Trace::new();
    let mut m = Metrics::new(PER_LAYER);
    kernels::run(seed, &trace.tracer, &mut m);

    let (deit_mode, deit_seconds, scenario, serve_seconds) = match workload {
        "deit_s_exact" => (NonlinearMode::Exact, seconds, &serve::STEADY, PROBE_SECONDS),
        "deit_s_fast" => (NonlinearMode::Fast, seconds, &serve::STEADY, PROBE_SECONDS),
        "serve_steady" => (NonlinearMode::Fast, PROBE_SECONDS, &serve::STEADY, seconds),
        "serve_overload" => (
            NonlinearMode::Fast,
            PROBE_SECONDS,
            &serve::OVERLOAD,
            seconds,
        ),
        _ => unreachable!("parse_args admits only WORKLOADS"),
    };
    let images = deit::run_traced(deit_mode, seed, deit_seconds, &trace.tracer, &mut m);
    let requests = serve::run_traced(scenario, seed, serve_seconds, &mut trace, &mut m);

    let (spans, json) = trace.finish();
    let image_count = images.images as u64;
    let (deit_overhead, deit_verdict) = deit::report(images, &spans, &mut m);
    let on_deit = workload.starts_with("deit");
    let overhead = if on_deit {
        deit_overhead
    } else {
        requests.overhead_frac
    };
    m.set("trace.overhead_frac", overhead);

    let written = std::path::Path::new(trace_out)
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(trace_out, json))
        .map_err(|e| format!("cannot write {trace_out}: {e}"));
    println!("# chrome trace: {trace_out}");

    let attempted = if on_deit {
        image_count
    } else {
        requests.requests
    };
    let verdict = deit_verdict.and(requests.verdict).and(written);
    Outcome::new(attempted, requests.unexpected, verdict, m)
}

/// `"name": {"value": v, "unit": "u"}` fields of a result line.
fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    line.split("\"value\": ")
        .collect::<Vec<_>>()
        .windows(2)
        .filter_map(|w| {
            let name = w[0].rsplit('"').nth(1)?;
            let value = w[1].split([',', '}']).next()?.trim().parse().ok()?;
            Some((name.to_string(), value))
        })
        .collect()
}

/// Run the named workload, or every workload, `repeat` times, each run
/// in a fresh child process, and print each metric's median and quartile
/// spread.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let spec = if args.trace { PER_LAYER } else { END_TO_END };
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown", |rest| rest.trim_start_matches([' ', '\t', ':']));
    let mut report = format!(
        "{{\n  \"host\": {{\"nproc\": {}, \"cpu_model\": \"{cpu_model}\"}},\n  \"seconds\": {}, \"runs\": {}, \"first_seed\": {}, \"vary_seed\": {}, \"trace\": {},\n",
        nproc(),
        args.seconds,
        args.repeat,
        args.seed,
        args.vary_seed,
        args.trace as u8
    );
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    for (w, workload) in workloads.iter().enumerate() {
        let mut runs: Vec<Vec<(String, f64)>> = Vec::new();
        for k in 0..args.repeat {
            let seed = if args.vary_seed {
                args.seed.wrapping_add(k as u64)
            } else {
                args.seed
            };
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    workload,
                    "--trace",
                    if args.trace { "1" } else { "0" },
                ])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &args.seconds.to_string(),
                ])
                .output()
                .map_err(|e| format!("cannot start {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            if !out.status.success() {
                print!("{stdout}");
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                return Err(format!("{workload} (seed {seed}) failed: {}", out.status));
            }
            let line = stdout.lines().last().unwrap_or_default();
            println!(
                "{workload} seed {seed} run {}/{}: {line}",
                k + 1,
                args.repeat
            );
            runs.push(parse_metrics(line));
        }
        println!(
            "\n{workload}: median over {} runs, quartile spread as a share of it",
            args.repeat
        );
        report += &format!("  \"{workload}\": {{\n");
        for (i, (name, unit)) in spec.iter().enumerate() {
            let values: Vec<f64> = runs
                .iter()
                .map(|r| r.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                .collect::<Option<_>>()
                .ok_or(format!("{workload} did not report {name}"))?;
            let spread = if values.len() >= 2 {
                quartile_spread(&values)
            } else {
                0.0
            };
            println!(
                "  {name:<48} {:>16.6} {unit:<8} {:>6.2}%",
                median(&values),
                spread * 100.0
            );
            if !args.vary_seed
                && DETERMINISTIC.contains(name)
                && values.iter().any(|v| *v != values[0])
            {
                return Err(format!(
                    "{workload}: {name} is not deterministic: {values:?}"
                ));
            }
            report += &format!(
                "    \"{name}\": {{\"median\": {}, \"spread\": {spread}, \"unit\": \"{unit}\"}}{}\n",
                median(&values),
                if i + 1 == spec.len() { "" } else { "," }
            );
        }
        report += if w + 1 == workloads.len() {
            "  }\n"
        } else {
            "  },\n"
        };
        println!();
    }
    report += "}\n";
    match &args.out {
        Some(path) => std::fs::write(path, report).map_err(|e| format!("cannot write {path}: {e}")),
        None => Ok(()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    let workload = match &args.workload {
        Some(workload) if args.repeat == 1 => workload,
        _ => {
            return match run_all(&args) {
                Ok(()) => ExitCode::SUCCESS,
                Err(why) => {
                    eprintln!("benchmark: {why}");
                    ExitCode::FAILURE
                }
            }
        }
    };
    println!(
        "# {workload}: seed {}, {} s, trace {}, {} CPUs",
        args.seed,
        args.seconds,
        args.trace as u8,
        nproc()
    );
    let outcome = if args.trace {
        let default_out = format!("benchmark/out/trace.{workload}.json");
        run_traced(
            workload,
            args.seed,
            args.seconds,
            args.trace_out.as_deref().unwrap_or(&default_out),
        )
    } else {
        run_untraced(workload, args.seed, args.seconds)
    };
    outcome.print();
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_summary_parser() {
        let mut m = Metrics::new(END_TO_END);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, 1.5 + i as f64);
        }
        let parsed = parse_metrics(&format!(
            "{{\"correct\": true, \"metrics\": {}}}",
            m.to_json()
        ));
        let want: Vec<(String, f64)> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, (n, _))| (n.to_string(), 1.5 + i as f64))
            .collect();
        assert_eq!(parsed, want);
    }
}
