//! Benchmark of the reecc user paths: edge list → snapshot, socket →
//! answer on fresh and mutated epochs, and `optimize-submit` → plan.
//!
//! ```text
//! reecc-perfbench --reecc <path to reecc> --workload <name> --seed <n>
//!                 --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` drives the release `reecc` binary and prints the end-to-end
//! metrics; `--seconds` is the run's length, set-up included (at least
//! three rounds run, more while the next fits). `--trace 1` replays the
//! same seeded inputs in-process through each layer's public functions and
//! prints the per-layer metrics; it does a fixed amount of work. Either
//! way the last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See README.md.

mod client;
mod cpu;
mod gen;
mod json;
mod proc;
mod reference;
mod session;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;

struct Args {
    reecc: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut reecc, mut workload, mut seed, mut seconds, mut trace) =
        (None, None, 1, 40.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--reecc" => reecc = Some(PathBuf::from(&value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(1.0..=600.0).contains(&seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        reecc: reecc.ok_or("--reecc is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} has no finite value ({})", m.name, m.value));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

/// Machine and run facts printed beside the metrics, so drift between
/// records can be explained. `since` is taken at the start of the run: the
/// share of the machine's busy time the host took during the run is
/// printed as `steal_pct`.
fn environment(args: &Args, flags: &str, since: cpu::Steal) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".to_string(), |m| m.trim().to_string());
    let flag = |f: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with("flags"))
            .is_some_and(|l| l.split(' ').any(|x| x == f))
    };
    let load1 = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split(' ').next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into());
    let steal = format!("{:.1}", 100.0 * since.share());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    format!(
        "env {{\"nproc\": {}, \"cpu\": {:?}, \"avx2\": {}, \"avx512f\": {}, \"load1\": {:?}, \
         \"steal_pct\": {:?}, \"commit\": {:?}, \"workload\": {:?}, \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"reecc_flags\": {:?}}}",
        session::client_conns(),
        model,
        flag("avx2"),
        flag("avx512f"),
        load1,
        steal,
        commit,
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        flags
    )
}

fn run(args: &Args, dir: &Path, since: cpu::Steal) -> Result<(String, String), String> {
    let w = workload::by_name(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {:?} (known: {})", args.workload, names.join(", "))
    })?;
    let inputs = session::inputs(w, args.seed)?;
    if args.trace {
        let out = traced::run(w, args.seed, &inputs, dir)?;
        let env = environment(args, "in-process (no reecc process)", since);
        for p in &out.problems {
            eprintln!("check failed: {p}");
        }
        let line =
            result_line(out.problems.is_empty(), out.attempted, out.failed, &out.metrics)?;
        return Ok((env, line));
    }
    let mut s = session::Session::new(&args.reecc, dir, w, args.seed, args.seconds, &inputs);
    let flags = format!(
        "{} | serve … --addr 127.0.0.1:0 --eps {} --threads {} --wal-dir DIR --error-budget {} \
         (the writing and reading servers on CPU {})",
        s.build_args().join(" "),
        workload::EPS,
        session::server_threads(),
        session::ERROR_BUDGET,
        s.pin.map_or("any".into(), |c| c.to_string())
    );
    let m = s.run()?;
    let env = environment(args, &flags, since);
    for note in &s.notes {
        eprintln!("{note}");
    }
    for p in &s.problems {
        eprintln!("check failed: {p}");
    }
    let metrics = [
        Metric { name: "setup_s", unit: "s", value: m.setup_s },
        Metric { name: "build_s", unit: "s", value: m.build_s },
        Metric { name: "read_p50_ms", unit: "ms", value: m.read_p50_ms },
        Metric { name: "read_cpu_us", unit: "us", value: m.read_cpu_us },
        Metric { name: "write_p50_ms", unit: "ms", value: m.write_p50_ms },
        Metric { name: "write_cpu_ms", unit: "ms", value: m.write_cpu_ms },
        Metric { name: "plan_s", unit: "s", value: m.plan_s },
        Metric { name: "peak_rss_mb", unit: "MiB", value: m.peak_rss_mb },
    ];
    Ok((env, result_line(s.problems.is_empty(), s.attempted, s.failed, &metrics)?))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let since = cpu::Steal::now();
    // Run files live in the checkout, one directory per run, removed at
    // the end; traces are kept under .bench_out/.
    let dir = PathBuf::from(".bench_out").join(format!(
        "{}-seed{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let outcome = run(&args, &dir, since);
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok((env, line)) => {
            eprintln!("run took {:.1} s", started.elapsed().as_secs_f64());
            println!("{env}");
            println!("{line}");
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    }
}
