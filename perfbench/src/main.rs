//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` seconds and prints one JSON
//! line with the end-to-end metrics (`--trace 0`) or the per-layer split
//! (`--trace 1`). Exits non-zero when a run errors or fails a correctness
//! check.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match perfbench::bench::Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("{}", perfbench::bench::USAGE);
            return ExitCode::from(2);
        }
    };
    let report = perfbench::bench::run(&opts);
    eprint!("{}", report.table());
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
