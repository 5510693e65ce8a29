//! End-to-end DONN benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_200|serve_small|serve_200> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with every probe off;
//! `--trace 1` is a separate run that records spans around the
//! benchmark's calls into each crate, turns on the kernel profile, and
//! reports the per-layer metrics. Human-readable lines come first; the
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The process exits
//! non-zero when any operation failed or any output was wrong.

mod report;
mod schedule;
mod serve;
mod spans;
mod stats;
mod train;

use report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 25.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// `mallopt` parameter selecting the most malloc arenas (glibc).
const M_ARENA_MAX: i32 = -8;

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

fn main() -> ExitCode {
    // One malloc arena: with one per thread, how much freed memory stays
    // resident depends on which pool thread ran which shard, and peak RSS
    // flips between two values run to run.
    // SAFETY: `mallopt` only adjusts allocator tuning; it is called once,
    // before this process starts any other thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = match args.workload.as_str() {
        "train_200" => None,
        "serve_small" => Some(serve::SERVE_SMALL),
        "serve_200" => Some(serve::SERVE_200),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let grids = spec.map_or((train::GRID, train::GRID), |s| {
        (s.models[0].grid, s.models[1].grid)
    });
    println!(
        "env: workload={} seed={} seconds={} trace={} nproc={} threads={} simd={} lanes={} grids={}x{},{}x{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from),
        lr_tensor::parallel::threads(),
        lr_tensor::simd::dispatch().isa_name(),
        lr_tensor::simd::dispatch().lanes(),
        grids.0,
        grids.0,
        grids.1,
        grids.1,
    );

    let mut report = Report::default();
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if args.trace {
        let rec = spans::Spans::new();
        if let Err(e) = std::fs::create_dir_all(&out_dir) {
            println!("trace: could not create {}: {e}", out_dir.display());
        }
        match &spec {
            None => train::run_traced(args.seed, args.seconds, &mut report, &rec),
            Some(s) => serve::run_traced(s, args.seed, args.seconds, &mut report, &rec, &out_dir),
        }
        let path = out_dir.join(format!("trace_{}.bench.json", args.workload));
        match std::fs::write(&path, rec.chrome_json()) {
            Ok(()) => println!("trace: {}", path.display()),
            Err(e) => println!("trace: could not write {}: {e}", path.display()),
        }
    } else {
        match &spec {
            None => train::run(args.seed, args.seconds, &mut report),
            Some(s) => serve::run(s, args.seed, args.seconds, &mut report),
        }
    }

    for line in &report.notes {
        println!("{line}");
    }
    for (name, value, unit) in report.all() {
        println!("metric {name} = {value} {unit}");
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", report.result_json(names));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
