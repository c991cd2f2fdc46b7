//! `specbench --workload <kv-read|kv-write|stamp> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the effective configuration and diagnostics, then as its last
//! line one JSON object `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! traced run with `--trace 1`. Exits 1 when a correctness gate fails and
//! 2 on a usage error or when a `SPECPMT_*` variable is set.

use specbench::{kv, procfs, stamp, Mode, RunResult};

const USAGE: &str =
    "usage: specbench --workload <kv-read|kv-write|stamp> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    mode: Mode,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut mode = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|e| format!("--seed {value}: {e}"))?)
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                mode = Some(match value.as_str() {
                    "0" => Mode::EndToEnd,
                    "1" => Mode::Traced,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["kv-read", "kv-write", "stamp"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        mode: mode.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The runtimes read `SPECPMT_*` knobs for their defaults (group commit,
    // linger, recorder, ring sizes, telemetry); the benchmark pins every
    // value itself and refuses to run under an inherited override.
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SPECPMT_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("refusing to run with {knobs:?} set: the benchmark pins every runtime knob");
        std::process::exit(2);
    }
    println!(
        "run: workload={} seed={} seconds={} trace={} nproc={} git={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.mode == Mode::Traced),
        procfs::nproc(),
        procfs::git_revision()
    );
    let res: RunResult = match args.workload.as_str() {
        "kv-read" => kv::run(&kv::kv_read(args.seed), args.seconds, args.mode),
        "kv-write" => kv::run(&kv::kv_write(args.seed), args.seconds, args.mode),
        _ => stamp::run(args.seed, args.seconds, args.mode),
    };
    for n in &res.notes {
        println!("{n}");
    }
    for (name, value, unit) in &res.metrics.0 {
        println!("metric {name} = {value} {unit}");
    }
    for e in &res.errors {
        eprintln!("correctness gate failed: {e}");
    }
    let correct = res.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        res.attempted.max(1),
        res.failed,
        res.metrics.to_json()
    );
    if !correct {
        std::process::exit(1);
    }
}
