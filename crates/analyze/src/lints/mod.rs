//! The lint registry.
//!
//! Each lint is a token-level pass tuned to one of this repository's
//! determinism invariants. Severities default to the values below and
//! can be overridden per lint in `lint.toml`'s `[severity]` table; two
//! meta-lints police the suppression machinery itself.

use crate::config::Config;
use crate::diag::Severity;
use crate::workspace::SourceFile;

pub mod unordered_map_iter;
pub mod unordered_par_fold;
pub mod unwrap_in_lib;
pub mod wallclock_in_sim;

/// Static description of one registered lint.
#[derive(Debug, Clone, Copy)]
pub struct LintInfo {
    /// Kebab-case name, as used in `lint.toml` and pragmas.
    pub name: &'static str,
    /// Severity when `lint.toml` does not override it.
    pub default_severity: Severity,
    /// One-line description for `--list` and the README catalogue.
    pub description: &'static str,
}

/// Every lint the engine knows, meta-lints included.
pub const LINTS: &[LintInfo] = &[
    LintInfo {
        name: "unordered-map-iter",
        default_severity: Severity::Deny,
        description: "HashMap/HashSet on determinism-critical paths: iteration order is \
                      nondeterministic; use BTreeMap/BTreeSet or an explicit sorted collect",
    },
    LintInfo {
        name: "wallclock-in-sim",
        default_severity: Severity::Deny,
        description: "Instant/SystemTime in simulator code: wall-clock reads break \
                      reproducibility; simulated time only",
    },
    LintInfo {
        name: "unwrap-in-lib",
        default_severity: Severity::Deny,
        description: "unwrap()/panic!/non-literal expect() in library code outside \
                      #[cfg(test)]; propagate a Result or expect(\"<invariant>\")",
    },
    LintInfo {
        name: "unordered-par-fold",
        default_severity: Severity::Deny,
        description: "par_iter() chained into sum/fold/reduce: reduction order depends on \
                      thread scheduling; collect() in order, then fold serially",
    },
    LintInfo {
        name: "malformed-pragma",
        default_severity: Severity::Deny,
        description: "c2m-lint pragma that does not parse, names an unknown lint, or lacks \
                      the mandatory reason",
    },
    LintInfo {
        name: "unused-pragma",
        default_severity: Severity::Warn,
        description: "c2m-lint allow pragma that suppressed nothing",
    },
];

/// The registered lint names (pragma validation reads this).
#[must_use]
pub fn known_names() -> Vec<&'static str> {
    LINTS.iter().map(|l| l.name).collect()
}

/// Registry metadata for `name`.
#[must_use]
pub fn info(name: &str) -> Option<&'static LintInfo> {
    LINTS.iter().find(|l| l.name == name)
}

/// A raw lint hit before severity/snippet decoration.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// Lint name (must be in [`LINTS`]).
    pub lint: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Message.
    pub message: String,
}

/// Runs every lint over `files`.
#[must_use]
pub fn run_all(files: &[SourceFile], cfg: &Config) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for file in files {
        unordered_map_iter::check(file, cfg, &mut out);
        wallclock_in_sim::check(file, cfg, &mut out);
        unwrap_in_lib::check(file, &mut out);
        unordered_par_fold::check(file, &mut out);
    }
    out
}

/// True when `file.rel` sits under any of the path prefixes.
#[must_use]
pub fn in_scope(rel: &str, prefixes: &[String]) -> bool {
    prefixes
        .iter()
        .any(|p| rel == p || rel.starts_with(&format!("{p}/")))
}
