//! Command line of the benchmark.
//!
//! ```text
//! distill-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! distill-benchmark list
//! distill-benchmark aa <dir> <dir> [<dir>...]
//! ```
//!
//! The first form runs one workload once, prints every metric by name and,
//! as the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. It exits non-zero when an
//! output does not match its reference.

use distill_benchmark::{aa, describe, run, workloads::WORKLOADS, Args};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 8.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("list") => {
            for (name, why) in WORKLOADS {
                println!("{name}\t{why}");
            }
            ExitCode::SUCCESS
        }
        Some("aa") if argv.len() >= 3 => {
            let dirs: Vec<&Path> = argv[1..].iter().map(Path::new).collect();
            match aa::compare(&dirs) {
                Ok((table, ok)) => {
                    print!("{table}");
                    if ok {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("distill-benchmark aa: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => {
            let outcome = parse(&argv).and_then(|args| run(&args).map(|o| (args, o)));
            match outcome {
                Ok((args, o)) => {
                    print!("{}", describe(&args, &o));
                    println!("{}", o.line());
                    if o.correct {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("distill-benchmark: {e}");
                    ExitCode::from(2)
                }
            }
        }
    }
}
