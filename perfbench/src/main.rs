//! `perfbench`: the measuring half of the repository benchmark.
//!
//! `perfbench/run.py` builds this binary and drives it; it prints one
//! JSON document (on its last stdout line) holding end-to-end samples,
//! spans, counters and check results, from which `run.py` derives the
//! reported metrics.
//!
//! ```text
//! perfbench serve --workload <serve_unique|serve_sweep> --seed <n>
//!                 --seconds <s> --trace <0|1> --out <dir>
//! perfbench probe --seed <n> --store <file>
//! perfbench env
//! ```

mod probe;
mod record;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench serve --workload <serve_unique|serve_sweep> --seed <n> \
                     --seconds <s> --trace <0|1> --out <dir>\n       \
                     perfbench probe --seed <n> --store <file>\n       \
                     perfbench env";

/// The value following `--name`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let v = flag(args, name).ok_or_else(|| format!("missing {name}"))?;
    v.parse().map_err(|_| format!("invalid {name}: {v}"))
}

fn main_inner(args: &[String]) -> Result<serde_json::Value, String> {
    if args.first().map(String::as_str) == Some("env") {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        return Ok(record::obj(vec![(
            "available_parallelism",
            serde_json::Value::Int(threads as i128),
        )]));
    }
    let seed: u64 = parse(args, "--seed")?;
    match args.first().map(String::as_str) {
        Some("serve") => {
            let out = PathBuf::from(flag(args, "--out").ok_or("missing --out")?);
            std::fs::create_dir_all(&out)
                .map_err(|e| format!("cannot create {}: {e}", out.display()))?;
            let workload = match flag(args, "--workload") {
                Some("serve_unique") => serve::Workload::Unique,
                Some("serve_sweep") => serve::Workload::Sweep,
                other => return Err(format!("unknown serve workload {other:?}")),
            };
            let seconds: f64 = parse(args, "--seconds")?;
            if !(seconds.is_finite() && seconds > 0.0) {
                return Err(format!("--seconds must be positive, got {seconds}"));
            }
            let trace = match parse::<u8>(args, "--trace")? {
                0 => false,
                1 => true,
                t => return Err(format!("--trace must be 0 or 1, got {t}")),
            };
            let opts = serve::Opts {
                seed,
                seconds,
                trace,
                out,
            };
            Ok(serve::run(workload, &opts))
        }
        Some("probe") => {
            let store = flag(args, "--store").ok_or("missing --store")?;
            Ok(probe::run(seed, std::path::Path::new(store)))
        }
        _ => Err("unknown subcommand".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(doc) => {
            println!(
                "{}",
                serde_json::to_string(&doc).expect("serialisable result")
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
