//! Runs one workload of the end-to-end benchmark and prints its result.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload join_file --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; with `--trace 0` the
//! metrics are the end-to-end list, with `--trace 1` the per-layer list
//! (see `report.rs`). Lines before it are informational. The exit code is
//! 0 when every answer was correct, 1 when some were not, 2 on an error.

use psj_perfbench::report::{END_TO_END, PER_LAYER};
use psj_perfbench::{host, input, joins, layers, nproc, serving, Params, Workload};
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str =
    "usage: perfbench --workload <join_file|join_paged|serve_mix|cluster_mix> --seed <n> \
     --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(key) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{key} needs a value\n{USAGE}"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{key}: not a whole number: {value}"))
        };
        match key.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value}\n{USAGE}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {key}\n{USAGE}")),
        }
    }
    let missing = |k: &str| format!("missing {k}\n{USAGE}");
    let seconds = seconds.ok_or_else(|| missing("--seconds"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

fn run(args: &Args) -> Result<bool, String> {
    let out_dir = PathBuf::from(".perfbench");
    let work_dir = out_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;
    let params = Params::new(
        args.workload,
        args.seed,
        Duration::from_secs(args.seconds),
        &work_dir,
    );

    println!(
        "workload {} | seed {} | {} s | trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "{}",
        host::calibrate(nproc(), Duration::from_millis(200)).line()
    );
    let maps = input::Maps::generate(params.seed, params.scale);
    let result = if args.trace {
        let trace_file = out_dir.join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        layers::run(&params, &maps, &trace_file)
    } else {
        match args.workload {
            Workload::JoinFile | Workload::JoinPaged => joins::run(&params, &maps),
            Workload::ServeMix | Workload::ClusterMix => serving::run(&params, &maps),
        }
    };
    let cleanup = std::fs::remove_dir_all(&work_dir);
    let mut out = result?;
    cleanup.map_err(|e| format!("cannot remove {}: {e}", work_dir.display()))?;
    let list = if args.trace {
        PER_LAYER
    } else {
        out.set("peak_rss_mb", host::peak_rss_mb()?);
        END_TO_END
    };
    for line in &out.notes {
        println!("{line}");
    }
    for e in &out.errors {
        println!("check failed: {e}");
    }
    println!("{}", out.json_line(list)?);
    Ok(out.correct())
}

fn main() {
    let code = match parse_args().and_then(|a| run(&a)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
