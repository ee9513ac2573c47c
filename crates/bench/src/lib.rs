//! Experiment harness utilities shared by the per-figure binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper (the README's *Figure binary index* lists them) and prints both
//! a human-readable table and, with `--json`, a machine-readable dump.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::Serialize;

/// Prints the standard experiment header with the Table 2 configuration.
pub fn header(id: &str, title: &str) {
    println!("================================================================");
    println!("{id} — {title}");
    println!("config: DDR5-4400, 1ch/1rank, 8+1 chips, 32 banks, 1kB rows,");
    println!("        1024 rows/subarray (paper Table 2)");
    println!("================================================================");
}

/// Geometric mean of positive values.
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    let s: f64 = values.iter().map(|v| v.ln()).sum();
    (s / values.len() as f64).exp()
}

/// The value after flag `name`, when the flag was passed.
///
/// # Errors
///
/// The flag is last, or the next argument is another flag (begins with
/// `--`).
fn flag_value(name: &str) -> Result<Option<String>, String> {
    let args: Vec<String> = std::env::args().collect();
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(value) if !value.starts_with("--") => Ok(Some(value.clone())),
        Some(flag) => Err(format!("{name} needs a value, not the flag {flag}")),
        None => Err(format!("{name} needs a value")),
    }
}

/// The files a binary writes for `--trace` and `--cache-dir`, opened
/// before its sweep runs, so that a bad flag costs no sweep.
#[derive(Debug)]
pub struct Outputs {
    /// `--trace <out.json>`: the path, and the file created empty there.
    /// Binaries that take it re-run one representative configuration
    /// with a recording sink, assert the traced report is bit-identical
    /// to the untraced one, and export the Chrome-trace JSON.
    pub trace: Option<(String, std::fs::File)>,
    /// `--cache-dir <dir>`: binary `name`'s store file
    /// `<dir>/<name>.c2mcache.json`, whose directory exists. Binaries
    /// that take it load their persistent plan/report cache from it
    /// before sweeping and save it back afterwards, so repeated
    /// invocations start warm across processes. A missing, stale or
    /// corrupt store file is simply a cold start — results are
    /// bit-for-bit identical either way.
    pub store: Option<std::path::PathBuf>,
}

impl Outputs {
    /// Reads both flags for binary `name`, creates the cache directory,
    /// then the trace file.
    ///
    /// # Errors
    ///
    /// A flag has no value, or its path cannot be created.
    pub fn open(name: &str) -> Result<Self, String> {
        let store = match flag_value("--cache-dir")? {
            Some(dir) => {
                let dir = std::path::PathBuf::from(dir);
                std::fs::create_dir_all(&dir)
                    .map_err(|e| format!("cannot create the --cache-dir {}: {e}", dir.display()))?;
                Some(dir.join(format!("{name}.c2mcache.json")))
            }
            None => None,
        };
        let trace = match flag_value("--trace")? {
            Some(path) => {
                let file = std::fs::File::create(&path)
                    .map_err(|e| format!("cannot create the --trace file {path}: {e}"))?;
                Some((path, file))
            }
            None => None,
        };
        Ok(Self { trace, store })
    }
}

/// Prints `error: <msg>` to stderr and exits with status 1: how a
/// binary reports a bad flag or an output it cannot write.
pub fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

/// Dumps a serialisable result as pretty JSON when `--json` was passed.
pub fn maybe_json<T: Serialize>(value: &T) {
    if std::env::args().any(|a| a == "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(value).expect("serialisable result")
        );
    }
}

/// Formats a float with engineering-friendly precision.
#[must_use]
pub fn eng(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let a = v.abs();
    if a >= 100.0 {
        format!("{v:.0}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[8.0]) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn eng_formatting() {
        assert_eq!(eng(0.0), "0");
        assert_eq!(eng(123.4), "123");
        assert_eq!(eng(1.5), "1.50");
        assert_eq!(eng(0.00123), "1.23e-3");
    }
}
