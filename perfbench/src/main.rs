//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload for `--seconds` of host time on one thread, prints
//! a human-readable report and, as the last line of standard output,
//! one JSON result object. With `--trace 1` it also writes the spans as
//! Chrome trace-event JSON under `perfbench/out/`.

use perfbench::{run, Options, Size, Workload, DEFAULT_SEED};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <svcload-open|scenario-faulted|paper-single-node> \
[--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::SvcloadOpen,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    perfbench::host::pin_allocator();
    // One thread: the experiment pool runs every cell inline.
    kh_core::pool::set_jobs(1);
    let result = run(&opts);
    for line in &result.lines {
        println!("{line}");
    }
    if let Some(json) = &result.trace_json {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-{}.json", opts.workload.name(), opts.seed));
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, json)) {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                json.matches("\"ph\"").count(),
                path.display()
            ),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", result.json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
