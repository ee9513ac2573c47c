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

/// The output path of a `--trace <out.json>` flag, when one was passed:
/// bench binaries that support it re-run one representative
/// configuration with a recording sink, assert the traced report is
/// bit-identical to the untraced one, and export the Chrome-trace JSON.
#[must_use]
pub fn trace_flag() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1).cloned())
}

/// The directory of a `--cache-dir <dir>` flag, when one was passed:
/// binaries that support it load their persistent plan/report cache
/// store from `<dir>/<name>.c2mcache.json` before sweeping and save it
/// back afterwards, so repeated invocations start warm across
/// processes. A missing, stale or corrupt store file is simply a cold
/// start — results are bit-for-bit identical either way.
#[must_use]
pub fn cache_dir_flag() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--cache-dir")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
}

/// The store-file path for binary `name` under `--cache-dir`, when the
/// flag was passed.
#[must_use]
pub fn cache_store_path(name: &str) -> Option<std::path::PathBuf> {
    cache_dir_flag().map(|d| d.join(format!("{name}.c2mcache.json")))
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
