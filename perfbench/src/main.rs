//! `perfbench`: one benchmark for jitspmm.
//!
//! ```text
//! perfbench --serve-bin PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads (see `perfbench/README.md`):
//!
//! * `kernel-suite` — offline closed loop of `JitSpmm::execute` over the six
//!   Table III stand-ins, d ∈ {16, 32}, three workload-division strategies;
//! * `serve-open-loop` — seeded Poisson MUL arrivals to `jitspmm-serve`
//!   hosting a dispatch-bound and a kernel-bound engine;
//! * `update-mixed` — the same kind of stream against one mutable, sharded,
//!   cache-backed engine with UPDATE frames mixed in.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics. Any output mismatch
//! makes the run exit non-zero.

mod arrivals;
mod kernels;
mod layers;
mod loadgen;
mod report;
mod served;
mod server;
mod stats;
mod trace;
mod wire;

use report::{Metrics, Tally};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

pub const WORKLOADS: [&str; 3] = ["kernel-suite", "serve-open-loop", "update-mixed"];
/// Share of `--seconds` an untraced run spends in its workload's own phase.
const OWN_SHARE: f64 = 2.0 / 3.0;

struct Args {
    serve_bin: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv.iter().position(|a| a == flag).ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1).map(String::as_str).ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}"));
    }
    let seconds: f64 = value("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be within 1..=600".to_string());
    }
    Ok(Args {
        serve_bin: PathBuf::from(value("--serve-bin")?),
        workload,
        seed: value("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
    })
}

/// Host facts printed with every run.
fn host_facts() -> Vec<(String, f64, &'static str)> {
    let features = jitspmm::CpuFeatures::detect();
    let llc = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .ok()
        .and_then(|s| {
            let s = s.trim();
            let (digits, scale) = match s.strip_suffix('K') {
                Some(d) => (d, 1024.0),
                None => match s.strip_suffix('M') {
                    Some(d) => (d, 1024.0 * 1024.0),
                    None => (s, 1.0),
                },
            };
            digits.parse::<f64>().ok().map(|v| v * scale)
        })
        .unwrap_or(0.0);
    vec![
        ("host.cores".to_string(), nproc() as f64, "count"),
        ("host.llc_bytes".to_string(), llc, "bytes"),
        ("host.avx2".to_string(), f64::from(u8::from(features.avx2)), "flag"),
        ("host.avx512f".to_string(), f64::from(u8::from(features.avx512f)), "flag"),
        ("host.fma".to_string(), f64::from(u8::from(features.has_fma())), "flag"),
    ]
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn run(args: &Args, work: &Path) -> Result<(Tally, Metrics), String> {
    let features = jitspmm::CpuFeatures::detect();
    if !(features.avx && features.has_fma()) {
        return Err("host lacks AVX/FMA: the JIT kernels cannot run".to_string());
    }
    if args.trace {
        let (tally, mut metrics) =
            layers::run(&args.workload, args.seed, args.seconds, &args.serve_bin, work)?;
        for (name, value, unit) in host_facts() {
            metrics.push(name, value, unit);
        }
        Ok((tally, metrics))
    } else {
        // Each workload gives its own phase OWN_SHARE of the time and the
        // other phase the rest, so every run reports every end-to-end metric.
        let own = args.seconds * OWN_SHARE;
        let nproc = nproc();
        let (kernel_secs, served_secs, traffic) = match args.workload.as_str() {
            "kernel-suite" => {
                (own, args.seconds - own, served::open_loop_traffic(args.seed, nproc))
            }
            "serve-open-loop" => {
                (args.seconds - own, own, served::open_loop_traffic(args.seed, nproc))
            }
            _ => (args.seconds - own, own, served::update_traffic(args.seed, nproc)),
        };
        let run =
            served::run_workload(&args.serve_bin, &traffic, args.seed, served_secs, nproc, work)?;
        print!("server status after the run:\n{}", run.info_text);
        let kernel = kernels::run_phase(args.seed, kernel_secs)?;
        let mut metrics = Metrics::default();
        let setup_s = if args.workload == "kernel-suite" { kernel.setup_s } else { run.setup_s };
        metrics.push("setup_s", setup_s, "s");
        served::push_metrics(&run, &mut metrics)?;
        kernels::push_speedups(kernel.speedups, &mut metrics);
        let mut tally = run.tally;
        tally.add(kernel.tally.attempted, kernel.tally.failed);
        tally.mismatches += kernel.tally.mismatches;
        metrics.push("ok_share", 1.0 - tally.failed_share(), "ratio");
        Ok((tally, metrics))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, value, unit) in host_facts() {
        println!("host: {name} = {value} {unit}");
    }
    // Scratch files (kernel caches) live inside the checkout, next to the
    // build, and are removed when the run ends.
    let work = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("create {}: {e}", work.display()))
        .and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok((tally, metrics)) => {
            print!("{}", metrics.table());
            println!("{}", report::json_line(&tally, &metrics));
            if tally.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: output mismatch");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
