//! Fixture-based self-tests: every lint must detect its seeded
//! violation at the right line, honour pragma suppression, and stay
//! quiet on the sanctioned idioms sitting alongside.
//!
//! Fixtures live in `tests/fixtures/` — a directory name the workspace
//! walker skips — and are mapped to determinism-critical paths here so
//! the scope rules apply to them.

use c2m_analyze::config::Config;
use c2m_analyze::diag::{Finding, Report};
use c2m_analyze::run_files;

/// Runs one fixture as if it lived at `rel`.
fn lint_fixture(rel: &str, src: &str) -> Report {
    run_files(&[(rel.to_string(), src.to_string())], &Config::default()).expect("lint run succeeds")
}

/// 1-based line of the first source line containing `needle`.
fn line_of(src: &str, needle: &str) -> u32 {
    u32::try_from(
        src.lines()
            .position(|l| l.contains(needle))
            .unwrap_or_else(|| panic!("fixture is missing `{needle}`"))
            + 1,
    )
    .expect("fixture fits in u32 lines")
}

fn of_lint<'a>(report: &'a Report, lint: &str) -> Vec<&'a Finding> {
    report.findings.iter().filter(|f| f.lint == lint).collect()
}

#[test]
fn unordered_map_iter_fixture() {
    let src = include_str!("fixtures/unordered_map_iter.rs");
    let report = lint_fixture("crates/core/src/fixture.rs", src);
    let hits = of_lint(&report, "unordered-map-iter");
    let expected = [
        line_of(src, "use std::collections::HashMap;"),
        line_of(src, "map: HashMap<String, u64>,"),
        line_of(src, "std::collections::HashMap::new() // line 15"),
    ];
    let lines: Vec<u32> = hits.iter().map(|f| f.line).collect();
    assert_eq!(lines, expected, "{hits:?}");
    // The pragma'd fn signature and the #[cfg(test)] body are exempt.
    assert_eq!(report.suppressed, 1);
    // Out of scope, the lint stays quiet entirely.
    let quiet = lint_fixture("crates/mig/src/fixture.rs", src);
    assert!(of_lint(&quiet, "unordered-map-iter").is_empty());
}

#[test]
fn wallclock_in_sim_fixture() {
    let src = include_str!("fixtures/wallclock_in_sim.rs");
    let report = lint_fixture("crates/dram/src/fixture.rs", src);
    let hits = of_lint(&report, "wallclock-in-sim");
    let expected = [
        line_of(src, "use std::time::Instant;"),
        line_of(src, "Instant::now(); // line 6"),
    ];
    let lines: Vec<u32> = hits.iter().map(|f| f.line).collect();
    assert_eq!(lines, expected, "{hits:?}");
    assert_eq!(report.suppressed, 1, "SystemTime::now under pragma");
    // The repo's own `Event::Instant` variant must not trip the lint —
    // asserted by the exact-lines check above (no extra findings).
}

#[test]
fn unwrap_in_lib_fixture() {
    let src = include_str!("fixtures/unwrap_in_lib.rs");
    let report = lint_fixture("crates/serve/src/fixture.rs", src);
    let hits = of_lint(&report, "unwrap-in-lib");
    let expected = [
        line_of(src, "v.unwrap() // line 4"),
        line_of(src, "v.expect(&format!"),
    ];
    let lines: Vec<u32> = hits.iter().map(|f| f.line).collect();
    assert_eq!(lines, expected, "{hits:?}");
    assert_eq!(report.suppressed, 1, "contract panic under pragma");
    // Bin targets are out of this lint's scope.
    let bin = lint_fixture("src/bin/fixture.rs", src);
    assert!(of_lint(&bin, "unwrap-in-lib").is_empty());
}

#[test]
fn unordered_par_fold_fixture() {
    let src = include_str!("fixtures/unordered_par_fold.rs");
    let report = lint_fixture("crates/core/src/fixture.rs", src);
    let hits = of_lint(&report, "unordered-par-fold");
    let expected = [line_of(src, ".sum() // line 6")];
    let lines: Vec<u32> = hits.iter().map(|f| f.line).collect();
    assert_eq!(lines, expected, "{hits:?}");
    assert_eq!(report.suppressed, 1, "pragma'd reduce chain");
}

#[test]
fn real_workspace_is_clean_under_committed_config() {
    // The acceptance gate, as a test: the shipped lint.toml over the
    // real workspace yields zero visible findings. CARGO_MANIFEST_DIR
    // is crates/analyze; the workspace root is two levels up.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let toml = std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml is committed");
    let cfg = Config::parse(&toml).expect("committed lint.toml parses");
    let report = c2m_analyze::run_root(&root, &cfg).expect("workspace scan succeeds");
    assert!(
        !report.fails(true),
        "workspace must be lint-clean under --deny:\n{}",
        report.render_human()
    );
}
