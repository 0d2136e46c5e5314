//! `floatbench` — the end-to-end and per-layer benchmark of the FLOAT
//! simulator. See `README.md` beside `Cargo.toml` for the metric glossary,
//! the workload rationale and how to run it.
//!
//! ```text
//! floatbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! floatbench [--seed N] [--seconds S]            every workload, both passes
//! floatbench --check [--seed N] [--seconds S]    A/A: two untraced passes must agree
//! floatbench --manifest                          print BENCHMARK.json
//! ```
//!
//! With `--workload` the last line of standard output is one JSON object:
//! `--trace 0` reports the end-to-end metrics (tracing off), `--trace 1`
//! the per-layer metrics of a separate traced pass. The other modes run
//! that mode once per workload and pass in a child process each, so that
//! every peak-memory reading belongs to one workload.

#![forbid(unsafe_code)]

mod host;
mod json;
mod manifest;
mod passes;
mod probes;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use host::Provenance;
use json::{object, value};
use manifest::{END_TO_END, RUN_SECONDS};
use stats::{Better, Bound};
use workloads::{variant_seeds, Pinned, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    manifest: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: floatbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--check] [--manifest]\nworkloads: {}",
        WORKLOADS.map(|(name, _)| name).join(" ")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        workload: None,
        seed: 20_240_422,
        seconds: RUN_SECONDS as f64,
        trace: false,
        check: false,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => args.workload = Some(it.next()?),
            "--seed" => args.seed = it.next()?.parse().ok()?,
            "--seconds" => args.seconds = it.next()?.parse().ok().filter(|s| *s > 0.0)?,
            "--trace" => {
                args.trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--check" => args.check = true,
            "--manifest" => args.manifest = true,
            _ => return None,
        }
    }
    Some(args)
}

/// Where a pass leaves its detail file: beside the executable, which is
/// inside the build directory of whichever checkout this is.
fn detail_path(workload: &str, trace: bool) -> Option<PathBuf> {
    let dir = std::env::current_exe()
        .ok()?
        .parent()?
        .join("floatbench-out");
    std::fs::create_dir_all(&dir).ok()?;
    let kind = if trace { "trace" } else { "e2e" };
    Some(dir.join(format!("{workload}.{kind}.json")))
}

/// Run one pass on one workload in this process, write its detail file,
/// and return the result object the driver reads.
fn run_pass(variants: &[Pinned], args: &Args, float_threads_cleared: bool) -> Value {
    let pinned = &variants[0];
    let mut provenance = Provenance::at_start(args.seed, float_threads_cleared);
    let pass = if args.trace {
        passes::per_layer(pinned, args.seconds)
    } else {
        passes::end_to_end(variants, args.seconds)
    };
    provenance.finish();
    for why in &pass.checker.failures {
        eprintln!("floatbench: {}: failed: {why}", pinned.name);
    }
    // Every registered metric, finite, once, in the registry's order.
    let registered = manifest::registered(args.trace);
    let metrics: Vec<(&str, Value)> = registered
        .iter()
        .filter_map(|&(name, unit)| {
            let (_, measured) = pass
                .metrics
                .iter()
                .find(|(n, v)| *n == name && v.is_finite())?;
            let entry = [
                ("value", value(measured)),
                ("unit", Value::String(unit.into())),
            ];
            Some((name, object(entry)))
        })
        .collect();
    let complete = metrics.len() == registered.len() && pass.metrics.len() == registered.len();
    if !complete {
        eprintln!(
            "floatbench: {}: a metric is missing or not finite",
            pinned.name
        );
    }
    let failed = pass.checker.failures.len();
    let result = object([
        ("correct", Value::Bool(failed == 0 && complete)),
        ("attempted", value(&pass.checker.attempted.max(1))),
        ("failed", value(&failed)),
        ("metrics", object(metrics)),
    ]);

    if let Some(path) = detail_path(pinned.name, args.trace) {
        let file = object([
            ("workload", Value::String(pinned.name.into())),
            ("provenance", value(&provenance)),
            ("seconds", value(&args.seconds)),
            ("config", pinned.config_json()),
            ("variant_seeds", value(&variant_seeds(args.seed))),
            ("result", result.clone()),
            ("detail", pass.detail),
        ]);
        let text = serde_json::to_string_pretty(&file).expect("serialises");
        match std::fs::write(&path, text + "\n") {
            Ok(()) => eprintln!("floatbench: wrote {}", path.display()),
            Err(e) => eprintln!("floatbench: cannot write {}: {e}", path.display()),
        }
    }
    result
}

/// Run one pass on one workload in a child process and read back the
/// detail file it leaves.
fn run_child(workload: &str, trace: bool, args: &Args) -> Result<Value, String> {
    let path = detail_path(workload, trace).ok_or("no directory for detail files")?;
    // A file left by an earlier run must not pass for this one's.
    let _ = std::fs::remove_file(&path);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // The child's exit status repeats `correct`, which the file carries.
    Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("{workload} left no {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn is_correct(result: &Value) -> bool {
    result["correct"].as_bool() == Some(true)
}

/// Every workload, both passes: one line per metric.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        for trace in [false, true] {
            let file = run_child(workload, trace, args)?;
            ok &= is_correct(&file["result"]);
            let metrics = file["result"]["metrics"].as_object().ok_or("no metrics")?;
            for (name, metric) in metrics.iter() {
                let value = metric["value"].as_f64().unwrap_or(f64::NAN);
                let unit = metric["unit"].as_str().unwrap_or("");
                println!("{workload:<14} {name:<30} {value:>18.6} {unit}");
            }
        }
    }
    Ok(ok)
}

/// A/A: two untraced passes over every workload on the same build must
/// agree — measured metrics within their bounds (both ways round),
/// simulated outcomes and the report digest exactly — and
/// `BENCHMARK.json` must agree with the registry.
fn check(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        let a = run_child(workload, false, args)?;
        let b = run_child(workload, false, args)?;
        ok &= is_correct(&a["result"]) && is_correct(&b["result"]);
        let mut report = |metric: &str, x: f64, y: f64, bound: Bound, better: Better| {
            let agree = !bound.regressed(better, x, y) && !bound.regressed(better, y, x);
            let verdict = if agree { "ok" } else { "DISAGREE" };
            println!("{workload:<14} {metric:<18} {x:>18.9} {y:>18.9} {verdict}");
            ok &= agree;
        };
        for (metric, _, better, bound) in END_TO_END {
            let value = |file: &Value| file["result"]["metrics"][metric]["value"].as_f64();
            let (x, y) = (value(&a), value(&b));
            report(
                metric,
                x.unwrap_or(f64::NAN),
                y.unwrap_or(f64::NAN),
                bound,
                better,
            );
        }
        let (first_a, first_b) = (&a["detail"]["samples"][0], &b["detail"]["samples"][0]);
        for outcome in ["final_acc", "dropout_frac", "wall_h", "wasted_frac"] {
            let value = |sample: &Value| sample["sim"][outcome].as_f64().unwrap_or(f64::NAN);
            let name = format!("sim_{outcome}");
            report(
                &name,
                value(first_a),
                value(first_b),
                Bound::Exact,
                Better::Lower,
            );
        }
        let same = first_a["digest"].as_u64().is_some() && first_a["digest"] == first_b["digest"];
        let verdict = if same { "ok" } else { "DISAGREE" };
        println!("{workload:<14} report digest {verdict}");
        ok &= same;
    }
    let manifest = std::fs::read_to_string("BENCHMARK.json").map_err(|e| e.to_string());
    match manifest.and_then(|text| manifest::verify(&text)) {
        Ok(()) => println!("BENCHMARK.json agrees with the registry"),
        Err(why) => {
            println!("BENCHMARK.json: {why}");
            ok = false;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    if args.manifest {
        print!("{}", manifest::benchmark_json());
        return ExitCode::SUCCESS;
    }
    // FLOAT_THREADS would override the pinned thread count inside the
    // program (children inherit the cleared environment).
    let float_threads_cleared = std::env::var_os("FLOAT_THREADS").is_some();
    std::env::remove_var("FLOAT_THREADS");

    let ok = if let Some(name) = &args.workload {
        // The traced pass runs the first variant only.
        let seeds = variant_seeds(args.seed).into_iter();
        let Some(variants) = seeds
            .map(|seed| Pinned::new(name, seed))
            .collect::<Option<Vec<_>>>()
        else {
            return usage();
        };
        let result = run_pass(&variants, &args, float_threads_cleared);
        println!("{}", serde_json::to_string(&result).expect("serialises"));
        Ok(is_correct(&result))
    } else if args.check {
        check(&args)
    } else {
        run_all(&args)
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("floatbench: {why}");
            ExitCode::FAILURE
        }
    }
}
