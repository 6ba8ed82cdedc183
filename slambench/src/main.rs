//! End-to-end SLAM benchmark.
//!
//! ```text
//! slambench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--nominal-fps <f>] [--overload-fps <f>] [--latency-limit-ms <ms>]
//! ```
//!
//! Prints one line per metric (value, unit, sample count), a provenance
//! line, and as its last line a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Untraced runs report the end-to-end metrics;
//! traced runs repeat the workload with the span recorder on and report
//! the per-layer metrics. Exits non-zero when an output check fails. See
//! `README.md` in this directory.

mod closed;
mod inputs;
mod layers;
mod metrics;
mod serve;
mod stats;
mod trace;

use metrics::{Decl, Values, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Recorder;

/// What one workload run produced.
pub struct Outcome {
    /// Measured metrics.
    pub values: Values,
    /// Operations (frames) attempted.
    pub attempted: u64,
    /// Output checks that failed, one message each.
    pub failures: Vec<String>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rates: Option<serve::Rates>,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key, value);
    }
    let workload = take(&mut map, "workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = take(&mut map, "seed")?;
    let seed = seed.parse().map_err(|e| format!("--seed {seed}: {e}"))?;
    let seconds = number(&mut map, "seconds")?;
    let trace = match take(&mut map, "trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    // The serving parameters ride along on every command line; only the
    // serving workload needs them.
    let rates = if workload == "serve-openloop" || map.contains_key("nominal-fps") {
        Some(serve::Rates {
            nominal_fps: number(&mut map, "nominal-fps")?,
            overload_fps: number(&mut map, "overload-fps")?,
            limit: Duration::from_secs_f64(number(&mut map, "latency-limit-ms")? / 1e3),
        })
    } else {
        None
    };
    if let Some(unknown) = map.keys().next() {
        return Err(format!("unknown option --{unknown}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        rates,
    })
}

fn take(map: &mut BTreeMap<String, String>, key: &str) -> Result<String, String> {
    map.remove(key)
        .ok_or_else(|| format!("--{key} is required"))
}

fn number(map: &mut BTreeMap<String, String>, key: &str) -> Result<f64, String> {
    let v = take(map, key)?;
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 => Ok(x),
        Ok(_) => Err(format!("--{key} {v}: must be positive")),
        Err(e) => Err(format!("--{key} {v}: {e}")),
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn run_once(args: &Args, seconds: f64, rec: &mut Recorder) -> Outcome {
    match args.workload.as_str() {
        "slam-rtgs" => closed::run(closed::Workload::Rtgs, args.seed, seconds, nproc(), rec),
        "slam-map-replicated" => closed::run(
            closed::Workload::MapReplicated,
            args.seed,
            seconds,
            nproc(),
            rec,
        ),
        _ => serve::run(
            args.rates
                .as_ref()
                .expect("serve rates are required with the workload"),
            args.seed,
            seconds,
            nproc(),
            rec,
        ),
    }
}

/// The source stamp every result carries.
fn provenance(args: &Args) -> String {
    let commit = git_commit().unwrap_or_else(|| "unknown".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"commit\": \"{}\", \"nproc\": {}, \
         \"cpu\": \"{}\", \"rustc\": \"{}\", \"mode\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        commit.replace('"', "'"),
        nproc(),
        cpu.replace('"', "'"),
        env!("SLAMBENCH_RUSTC_VERSION"),
        if args.trace { "traced" } else { "untraced" },
    )
}

/// `HEAD` of the checkout, when the checkout is a git working tree (git is
/// not asked to look above it).
fn git_commit() -> Option<String> {
    if !std::path::Path::new(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where the traced run's spans are written: under the build directory,
/// which the checkout ignores.
fn trace_path(args: &Args) -> PathBuf {
    let root = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"),
        PathBuf::from,
    );
    root.join("slambench-traces")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("slambench: {e}");
            return ExitCode::from(2);
        }
    };
    let stamp = provenance(&args);
    let epoch = Instant::now();
    let (decls, outcome): (&[Decl], Outcome) = if args.trace {
        // Tracing overhead: the same workload untraced, then traced.
        let untraced = run_once(&args, args.seconds, &mut Recorder::new(false, epoch));
        let mut rec = Recorder::new(true, epoch);
        // A traced closed-loop run plays one cycle; serving replays both
        // phases at full length.
        let serving = args.workload == "serve-openloop";
        let traced_seconds = if serving { args.seconds } else { 0.0 };
        let mut traced = run_once(&args, traced_seconds, &mut rec);
        for (name, e2e) in [
            ("trace.overhead_fps", "fps"),
            ("trace.overhead_sojourn_p50_ms", "sojourn_p50_ms"),
        ] {
            let (t, u) = (&traced.values.get(e2e), &untraced.values.get(e2e));
            if let (Some(t), Some(u)) = (t, u) {
                let note = format!("traced {:.4} - untraced {:.4}", t.value, u.value);
                traced
                    .values
                    .set_noted(name, t.value - u.value, t.samples, note);
            }
        }
        println!("end-to-end, untraced pass:");
        print!("{}", metrics::table(END_TO_END, &untraced.values));
        traced.failures.extend(untraced.failures);
        traced.attempted += untraced.attempted;
        let path = trace_path(&args);
        match trace::write_jsonl(&path, &stamp, rec.spans()) {
            Ok(()) => println!("spans: {} written to {}", rec.spans().len(), path.display()),
            Err(e) => println!("spans: not written ({e})"),
        }
        (PER_LAYER, traced)
    } else {
        (
            END_TO_END,
            run_once(&args, args.seconds, &mut Recorder::new(false, epoch)),
        )
    };

    let label = if args.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    println!(
        "{label}, {} {}:",
        args.workload,
        if args.trace { "traced" } else { "untraced" }
    );
    print!("{}", metrics::table(decls, &outcome.values));
    for failure in &outcome.failures {
        println!("check failed: {failure}");
    }
    println!("provenance: {stamp}");
    let failed = outcome.failures.len() as u64;
    let correct = failed == 0;
    match metrics::result_json(correct, outcome.attempted, failed, decls, &outcome.values) {
        Ok(line) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("slambench: {e}");
            ExitCode::FAILURE
        }
    }
}
