//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a `host` line, a `detail` line and, last, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! A traced run writes its spans under `.bench_out` in the working
//! directory.
//! Exits 1 when any check failed, 2 on a usage error.

use perfbench::workloads::Workload;
use std::path::Path;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
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
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;
    println!(
        "host {}",
        perfbench::host::block(w.name(), perfbench::workloads::BUSY_THREADS)
    );
    let ticks = perfbench::host::cpu_ticks();
    let mut report = if args.trace {
        let file =
            Path::new(".bench_out").join(format!("trace-{}-seed{}.json", w.name(), args.seed));
        perfbench::per_layer(w, args.seed, args.seconds, &file)
    } else {
        perfbench::end_to_end(w, args.seed, args.seconds)
    };
    if let (Some(before), Some(after)) = (ticks, perfbench::host::cpu_ticks()) {
        let share = perfbench::host::steal_share(before, after);
        report.detail.push(("steal_share", format!("{share}")));
    }
    println!("detail {}", report.detail_json());
    println!("{}", report.json_line());
    if !report.correct() {
        std::process::exit(1);
    }
}
